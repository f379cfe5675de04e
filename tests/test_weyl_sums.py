"""Weyl sum evaluators: identities, traces, scans and the trivial/perturbation bounds."""

import math
from fractions import Fraction
from math import log, sqrt

import numpy as np
import pytest

from helpers import canonical_sums, direct_complete_sum, phase_from_float, rational_phases
from weylsums import complete_sums as cs
from weylsums import discrepancy as dc
from weylsums import weyl_sums as ws
from weylsums.errors import PreconditionError
from weylsums.phasecore import TURN, Phase, RationalPoint, phase_from_rational
from weylsums.large_values import radius_units


def _zero(d):
    return (Phase(0),) * d


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def test_weyl_sum_at_zero():
    assert ws.weyl_sum(_zero(2), 10) == 10 + 0j


def test_weyl_sum_alternating():
    assert abs(ws.weyl_sum((phase_from_rational(1, 2),), 2)) < 1e-12


def test_weyl_sum_rational_gauss_multiple_period():
    # x = (0, 1/5), N = 10: |S| = (N/p) sqrt(p) = 2 sqrt(5)
    v = ws.weyl_sum(RationalPoint(a=(0, 1), q=5), 10)
    assert abs(abs(v) - 2 * sqrt(5)) < 1e-9


def test_weyl_sum_phase_vs_rational_paths_agree():
    rp = RationalPoint(a=(3, 5), q=7)
    v1 = ws.weyl_sum(rp, 35)
    v2 = ws.weyl_sum(rational_phases(rp), 35)
    assert abs(v1 - v2) < 1e-8


def test_trace_examples():
    tr = ws.weyl_sum_trace(_zero(2), (1, 2, 4))
    assert tr.values == (1 + 0j, 2 + 0j, 4 + 0j)


def test_trace_invariants_enforced():
    with pytest.raises(PreconditionError):
        ws.SumTrace(checkpoints=(2, 1), values=(0j, 0j))  # not increasing
    with pytest.raises(PreconditionError):
        ws.SumTrace(checkpoints=(1, 2), values=(0j, 3 + 0j))  # |S| > N
    with pytest.raises(PreconditionError):
        ws.weyl_sum_trace(_zero(1), (4, 2))


def test_trace_bit_identical_to_fresh_calls():
    rng = np.random.default_rng(1)
    x = tuple(Phase(int(f)) for f in rng.integers(0, TURN, size=2, dtype=np.uint64))
    cps = (3, 100, ws.CHUNK - 1, ws.CHUNK, ws.CHUNK + 1, 100_000, 2**17)
    tr = ws.weyl_sum_trace(x, cps)
    for n, v in zip(cps, tr.values):
        assert v == ws.weyl_sum(x, n)  # bitwise


@pytest.mark.parametrize(
    "x, m",
    [
        (tuple(Phase(int(f)) for f in np.random.default_rng(11).integers(0, TURN, size=2, dtype=np.uint64)), None),
        (RationalPoint(a=(5, 7, 11), q=9973), None),
        ((Phase(0x9E3779B97F4A7C15), Phase(0x243F6A8885A308D3)), (2, 5)),
    ],
    ids=["phase", "rational", "sparse"],
)
def test_sums_pinned_to_fsum_of_all_terms(x, m):
    C = ws.CHUNK
    cps = (1, 7, C - 1, C, C + 1, 2 * C, 2 * C + 5)
    expect = canonical_sums(x, cps, m)
    assert _bits(ws.weyl_sum_trace(x, cps, m).values) == _bits(expect)
    for n, v in zip(cps, expect):
        assert _bits([ws.weyl_sum(x, n, m)]) == _bits([v])
        assert _bits(ws.weyl_sum_trace(x, (n,), m).values) == _bits([v])
    # the dense trace of the scans: 1000 prefixes inside the first chunk
    dense = ws.checkpoint_grid(2**17)
    assert _bits(ws.weyl_sum_trace(x, dense, m).values) == _bits(canonical_sums(x, dense, m))
    if m is None and not isinstance(x, RationalPoint):
        # a two-row batch: each row reduced exactly on its own
        y = (Phase(0x243F6A8885A308D3), Phase(0x13198A2E03707344))
        words = np.array([[xi.frac for xi in x], [yi.frac for yi in y]], dtype=np.uint64)
        expect_y = canonical_sums(y, cps)
        for n, vx, vy in zip(cps, expect, expect_y):
            assert _bits(ws.weyl_sum_batch(words, n)) == _bits([vx, vy])


def _fsum_prefixes(terms, ends):
    return [[math.fsum(row[:k]).hex() for k in ends] for row in terms]


def _exact_prefixes(row):
    """Exact prefix sums of a row of doubles in units of 2^-1074, of which every double is a multiple."""
    out, total = [0], 0
    for t in row.tolist():
        num, den = t.as_integer_ratio()
        total += num << (1075 - den.bit_length())
        out.append(total)
    return out


def _reduced(terms, ends):
    """The reducer's ints, each checked to be the exact prefix sum, rounded once by int division."""
    sums, limbs = ws._exact_prefix_sums(terms, ends)
    den = 1 << ws._LIMB_BITS * limbs
    exact = [_exact_prefixes(row) for row in terms]
    for k, col in zip(ends, sums):
        assert [v << 1074 for v in col] == [e[k] * den for e in exact]
    return [[(col[r] / den).hex() for col in sums] for r in range(len(terms))]


def test_exact_reducer_matches_fsum_on_hard_terms():
    rng = np.random.default_rng(17)
    n = 4096
    pool = np.concatenate([
        [1.0, -1.0, 5e-324, -5e-324],
        2.0 ** -np.arange(0, 1075, dtype=np.float64),
        -(2.0 ** -rng.integers(0, 1075, size=200).astype(np.float64)),
        rng.uniform(-1.0, 1.0, size=200),
    ])
    rows = [rng.choice(pool, size=n) for _ in range(6)]
    rows.append(rng.uniform(-1.0, 1.0, size=n) * 2.0 ** -rng.integers(0, 1070, size=n))
    half = rng.choice(pool, size=n // 2)
    rows.append(rng.permutation(np.concatenate([half, -half])))  # cancels exactly
    rows.append(np.full(n, 5e-324))
    terms = np.array(rows)
    assert math.fsum(terms[7]) == 0.0
    for ends in ([n], [1, n], [1, 2, 3, 1000, n - 1, n], list(range(1, 200)) + [n]):
        assert _reduced(terms, ends) == _fsum_prefixes(terms, ends)


def test_exact_reducer_prefixes_of_length_one_and_chunk_sized_sums():
    rng = np.random.default_rng(5)
    c = np.cos(rng.uniform(0.0, 2.0 * np.pi, size=(3, ws.CHUNK)))
    ends = [1, 2, 999, ws.CHUNK - 1, ws.CHUNK]
    assert _reduced(c, ends) == _fsum_prefixes(c, ends)
    assert _reduced(c[:, :1], [1]) == [[v.hex()] for v in c[:, 0]]
    # 2^16 terms of +-1: the top limb's running sum reaches 2^53 exactly
    ones = np.array([np.ones(ws.CHUNK), -np.ones(ws.CHUNK)])
    ones[0, -1] = np.nextafter(1.0, 0.0)
    assert _reduced(ones, [ws.CHUNK - 1, ws.CHUNK]) == _fsum_prefixes(ones, [ws.CHUNK - 1, ws.CHUNK])
    sums, limbs = ws._exact_prefix_sums(-ones[1:], [ws.CHUNK])
    assert sums == [[ws.CHUNK << ws._LIMB_BITS * limbs]]


@pytest.mark.parametrize("q", [5, 9973, 65537, 131071])
def test_rational_sums_folded_by_period_equal_fsum_of_all_terms(q, monkeypatch):
    # N = kq + r for r in {0, 1, q - 1}; q > 2^16 puts the period itself across chunks
    folds = [k * q + r for k in (1, 2) for r in (0, 1, q - 1)]
    cps = tuple(sorted(set(ws.checkpoint_grid(3 * q - 1)) | set(folds)))
    generated = []
    real = ws.residue_array

    def residues(a, q, exps, lo, hi):
        generated.append(hi - 1)
        return real(a, q, exps, lo, hi)

    monkeypatch.setattr(ws, "residue_array", residues)
    x = RationalPoint(a=(3, q - 7), q=q)
    assert _bits(ws.weyl_sum_trace(x, cps).values) == _bits(canonical_sums(x, cps))
    assert _bits(ws.weyl_sum(x, n) for n in folds) == _bits(canonical_sums(x, folds))
    y = RationalPoint(a=(5,), q=q)
    assert _bits(ws.monomial_sum(y, n, 3) for n in folds) == _bits(canonical_sums(y, folds, (3,)))
    assert max(generated) == q  # terms past one period are never generated


def _limb_count(t):
    return ws._exact_prefix_sums(t[None, :], [len(t)])[1]


def test_accumulator_aligns_limb_scales_across_chunks(monkeypatch):
    C = ws.CHUNK
    rng = np.random.default_rng(9)
    halves = rng.choice([-1.0, -0.5, 0.5, 1.0], size=C)
    fine = rng.uniform(-1.0, 1.0, size=C) * 2.0 ** -rng.integers(0, 60, size=C)
    tail = np.array([5e-324, -1.0, 0.25, 2.0**-1074, 0.75])
    re = np.concatenate([halves, fine, halves[::-1] / 2, tail])
    im = np.concatenate([fine[::-1], halves, -fine, -tail])
    chunks = [re[i : i + C] for i in range(0, len(re), C)]
    # more limbs, then fewer (the chunk is shifted up), then the most
    assert [_limb_count(t) for t in chunks] == [1, 3, 1, 30]
    cps = (1, C - 1, C, C + 1, 2 * C + 7, 3 * C, 3 * C + 1, 3 * C + 5)

    def plant(re, im):
        # the word w reads back the planted terms (re[w - 1], im[w - 1]) through the term kernel
        monkeypatch.setattr(ws, "unit_terms", lambda w, q: np.array((re[w - 1], im[w - 1])))

    plant(re, im)
    want = [complex(math.fsum(re[:n]), math.fsum(im[:n])) for n in cps]
    assert _bits(ws._accumulate(lambda lo, hi: np.arange(lo, hi), TURN, cps)[0]) == _bits(want)

    # the same terms repeated with a period that spans chunks and crosses the scale changes
    q = 2 * C + 11
    period_re, period_im = re[:q], im[:q]
    seen = []

    def periodic(lo, hi):
        seen.append(hi - 1)
        return np.arange(lo, hi) % q  # the word 0 of n = q reads the last planted term

    plant(period_re, period_im)
    cps = tuple(sorted({k * q + r for k in (0, 1, 5) for r in (1, C, C + 1, q - 1)} | {q, 3 * q}))
    full_re, full_im = np.tile(period_re, 6), np.tile(period_im, 6)
    want = [complex(math.fsum(full_re[:n]), math.fsum(full_im[:n])) for n in cps]
    assert _bits(ws._accumulate(periodic, q, cps)[0]) == _bits(want)
    assert max(seen) == q


def test_trace_trivial_bound_dyadic():
    rng = np.random.default_rng(2)
    x = tuple(Phase(int(f)) for f in rng.integers(0, TURN, size=2, dtype=np.uint64))
    cps = ws.dyadic_grid(2**20)
    tr = ws.weyl_sum_trace(x, cps)
    assert all(mag <= n * (1 + 1e-12) for n, mag in zip(cps, tr.magnitudes))
    assert tr.checkpoints == cps


def test_monomial_sum_consistency_bitwise():
    rng = np.random.default_rng(3)
    x = Phase(int(rng.integers(0, TURN, dtype=np.uint64)))
    assert ws.monomial_sum(x, 500, 3) == ws.weyl_sum((x,), 500, m=(3,))


def test_monomial_sum_examples():
    assert ws.monomial_sum(Phase(0), 7, 2) == 7 + 0j
    assert abs(ws.monomial_sum(phase_from_rational(1, 2), 4, 2)) < 1e-12
    v = ws.monomial_sum(RationalPoint(a=(1,), q=9), 9, 2)
    assert abs(v - cs.monomial_complete_sum(2, 3, 1)) < 1e-9


def test_rational_periodicity_invariant():
    for p in (3, 5, 7):
        for mult in (1, 2, 4):
            n = p * mult
            for a in [(1, 1), (0, 1), (2, p - 1)]:
                s = abs(ws.weyl_sum(RationalPoint(a=a, q=p), n))
                t = mult * abs(direct_complete_sum(2, p, a))
                assert abs(s - t) <= 1e-6 * max(t, 1e-12)


def test_perturbation_inequality_sampled():
    # |S(x;N) - S(a/p;N)| <= 2 d N^{d+1} p^{-tau} for x within p^{-tau} of a/p
    cases = [(2, 7, (3, 5), 3), (3, 5, (1, 2, 3), 4), (2, 11, (0, 1), 3)]
    for d, p, a, tau in cases:
        base = [phase_from_rational(ai, p) for ai in a]
        units = radius_units(p, Fraction(tau))
        for n_mult in (1, 2, 4):
            n = p * n_mult
            s0 = ws.weyl_sum(RationalPoint(a=a, q=p), n)
            for frac_scale in (0.2, 0.5, 0.9):
                x = list(base)
                x[0] = Phase(x[0].frac + int(units * frac_scale))
                s1 = ws.weyl_sum(tuple(x), n)
                bound = 2 * d * float(n) ** (d + 1) * float(p) ** -tau
                assert abs(s1 - s0) <= bound + 1e-9


def test_mr_ratio_scan_reports():
    rep = ws.mr_ratio_scan(_zero(2), 4096)
    assert rep.checkpoints == ws.dyadic_grid(4096)
    # at x = 0 the ratio is N^{1/2} / (log N)^{3/2}, increasing at the tail
    expect = [n / (n**0.5 * log(n) ** 1.5) for n in rep.checkpoints]
    assert np.allclose(rep.ratios, expect, rtol=1e-9)
    with pytest.raises(PreconditionError):
        ws.mr_ratio_scan(_zero(2), 8)


def test_mr_ratio_scan_all_halves_period_two():
    # x = (1/2, 1/2): the phase n(n+1)/2 is an integer, so S(x;N) = N and the
    # scan reduces to the x = 0 profile
    x = (phase_from_rational(1, 2), phase_from_rational(1, 2))
    rep = ws.mr_ratio_scan(x, 1024)
    assert abs(rep.max_ratio - 1024 / (1024**0.5 * log(1024) ** 1.5)) < 1e-9


def test_mr_ratio_scan_random_median_small():
    rng = np.random.default_rng(8)
    maxima = []
    for _ in range(21):
        x = tuple(Phase(int(f)) for f in rng.integers(0, TURN, size=2, dtype=np.uint64))
        maxima.append(ws.mr_ratio_scan(x, 10**4).max_ratio)
    maxima.sort()
    assert maxima[10] < 10.0


def test_sigma_estimate_at_zero():
    tr = ws.weyl_sum_trace(_zero(2), ws.dyadic_grid(2**12, start_exp=1))
    est = ws.sigma_estimate(tr)
    assert not est.degenerate
    assert abs(est.value - 1.0) < 1e-6


def test_sigma_estimate_alternating():
    tr = ws.weyl_sum_trace((phase_from_rational(1, 2),), ws.dyadic_grid(2**12, start_exp=1))
    est = ws.sigma_estimate(tr)
    # magnitudes alternate between 0 and 1; the envelope exponent is 0
    assert est.value <= 0.0


def test_sigma_estimate_golden_ratio_decays():
    x = phase_from_float((sqrt(5) - 1) / 2)
    tr = ws.weyl_sum_trace(x, ws.dyadic_grid(2**20))
    est = ws.sigma_estimate(tr)
    assert not est.degenerate
    assert est.value < 0.05


def test_sigma_estimate_degenerate():
    tr = ws.SumTrace(checkpoints=tuple(range(1, 9)), values=(0j,) * 8)
    est = ws.sigma_estimate(tr)
    assert est.degenerate and est.value == 0.0
    with pytest.raises(PreconditionError):
        ws.sigma_estimate(ws.SumTrace(checkpoints=(1, 2), values=(0j, 0j)))


def test_exceptional_scan_at_zero():
    hits = ws.exceptional_scan(_zero(2), 0.9, 200)
    assert hits == list(ws.checkpoint_grid(200))


def test_exceptional_scan_rational_example():
    hits = ws.exceptional_scan(RationalPoint(a=(0, 1), q=5), 0.6, 100)
    assert 10 in hits  # 2 sqrt(5) = 4.47 >= 10^0.6 = 3.98


def test_exceptional_scan_random_high_alpha():
    rng = np.random.default_rng(5)
    x = tuple(Phase(int(f)) for f in rng.integers(0, TURN, size=2, dtype=np.uint64))
    hits = ws.exceptional_scan(x, 0.99, 10**4)
    assert all(n <= 100 for n in hits)


def test_checkpoint_grid_shape():
    grid = ws.checkpoint_grid(10**4)
    assert grid[:1000] == tuple(range(1, 1001))
    assert grid[1000:] == (1024, 2048, 4096, 8192)
    assert ws.checkpoint_grid(50) == tuple(range(1, 51))


def test_exponent_vector_validation():
    assert ws.exponent_vector((1, 3, 7)) == (1, 3, 7)
    for bad in [(), (0, 1), (2, 2), (3, 1)]:
        with pytest.raises(PreconditionError):
            ws.exponent_vector(bad)
    # one exponent for a 2-D point: every evaluator rejects the length mismatch
    with pytest.raises(PreconditionError):
        dc.poly_sequence(RationalPoint((1, 2), 5), 10, m=(2,))
    with pytest.raises(PreconditionError):
        ws.weyl_sum(RationalPoint((1, 2), 5), 10, m=(2,))
    with pytest.raises(PreconditionError):
        ws.monomial_sum(RationalPoint((1, 2), 5), 10, 3)


def test_sparse_exponent_sum():
    # S_m with m = (2,) must match the monomial evaluator on the same phases
    x = phase_from_rational(1, 9)
    assert ws.weyl_sum((x,), 9, m=(2,)) == ws.monomial_sum(x, 9, 2)
    # m = (1, 3): check against a tiny direct evaluation
    rng = np.random.default_rng(6)
    fr = [int(f) for f in rng.integers(0, TURN, size=2, dtype=np.uint64)]
    xs = tuple(Phase(f) for f in fr)
    direct = sum(
        np.exp(2j * np.pi * (((fr[0] * n + fr[1] * n**3) % TURN) * 2.0**-64))
        for n in range(1, 21)
    )
    assert abs(ws.weyl_sum(xs, 20, m=(1, 3)) - direct) < 1e-9
