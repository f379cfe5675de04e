"""Weyl sum evaluators: identities, traces, scans and the trivial/perturbation bounds."""

import math
import tracemalloc
from fractions import Fraction
from math import log, sqrt

import numpy as np
import pytest

from helpers import canonical_sums, direct_complete_sum, phase_from_float, rational_phases
from weylsums import complete_sums as cs
from weylsums import discrepancy as dc
from weylsums import large_values as lv
from weylsums import weyl_sums as ws
from weylsums.errors import LemmaCheckFailureError, PreconditionError
from weylsums.phasecore import TURN, Phase, RationalPoint, phase_from_rational
from weylsums.large_values import radius_units


def _zero(d):
    return (Phase(0),) * d


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def _row(sums, r=0):
    """Row r of the (re, im) arrays that `_accumulate` returns with the moduli, as complex values."""
    re, im, _ = sums
    return list(map(complex, re[r].tolist(), im[r].tolist()))


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
    B, C = ws.BLOCK, ws.CHUNK  # block boundaries of `_accumulate`, CHUNK among them
    cps = (3, 100, B - 1, B, B + 1, 3 * B + 5, C - 1, C, C + 1, 100_000, 2**17)
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
    B, C = ws.BLOCK, ws.CHUNK
    cps = (1, 7, B - 1, B, B + 1, 2 * B, 2 * B + 5, C + 1, 2 * C + 5)
    expect = canonical_sums(x, cps, m)
    assert _bits(ws.weyl_sum_trace(x, cps, m).values) == _bits(expect)
    for n, v in zip(cps, expect):
        assert _bits([ws.weyl_sum(x, n, m)]) == _bits([v])
        assert _bits(ws.weyl_sum_trace(x, (n,), m).values) == _bits([v])
    # the dense trace of the scans: 1000 prefixes inside the first block
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
    limbs = ws._exact_prefix_sums(terms, ends)
    flat, den = ws._joined(limbs), 1 << ws._LIMB_BITS * len(limbs)
    sums = [flat[j : j + len(terms)] for j in range(0, len(flat), len(terms))]  # one list over the rows per end
    assert len(sums) == len(ends)
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
    limbs = ws._exact_prefix_sums(-ones[1:], [ws.CHUNK])
    assert ws._joined(limbs) == [ws.CHUNK << ws._LIMB_BITS * len(limbs)]


@pytest.mark.parametrize("q", [5, 9973, 65537, 131071])
def test_rational_sums_folded_by_period_equal_fsum_of_all_terms(q, monkeypatch):
    # N = kq + r for r in {0, 1, q - 1}; q > BLOCK puts the period itself across blocks
    folds = [k * q + r for k in (1, 2) for r in (0, 1, q - 1)]
    cps = tuple(sorted(set(ws.checkpoint_grid(3 * q - 1)) | set(folds)))
    generated = []
    real = ws.residue_array

    def residues(a, q, exps, lo, hi, work):
        generated.append(hi - 1)
        return real(a, q, exps, lo, hi, work)

    monkeypatch.setattr(ws, "residue_array", residues)
    x = RationalPoint(a=(3, q - 7), q=q)
    assert _bits(ws.weyl_sum_trace(x, cps).values) == _bits(canonical_sums(x, cps))
    assert _bits(ws.weyl_sum(x, n) for n in folds) == _bits(canonical_sums(x, folds))
    y = RationalPoint(a=(5,), q=q)
    assert _bits(ws.monomial_sum(y, n, 3) for n in folds) == _bits(canonical_sums(y, folds, (3,)))
    assert max(generated) == q  # terms past one period are never generated


def _limb_count(t):
    return len(ws._exact_prefix_sums(t[None, :], [len(t)]))


def test_accumulator_aligns_limb_scales_across_chunks(monkeypatch):
    C = ws.BLOCK
    rng = np.random.default_rng(9)
    halves = rng.choice([-1.0, -0.5, 0.5, 1.0], size=C)
    fine = rng.uniform(-1.0, 1.0, size=C) * 2.0 ** -rng.integers(0, 60, size=C)
    tail = np.array([5e-324, -1.0, 0.25, 2.0**-1074, 0.75])
    re = np.concatenate([halves, fine, halves[::-1] / 2, tail])
    im = np.concatenate([fine[::-1], halves, -fine, -tail])
    blocks = [re[i : i + C] for i in range(0, len(re), C)]
    # more limbs, then fewer (the block is shifted up), then the most
    assert [_limb_count(t) for t in blocks] == [1, 3, 1, 30]
    cps = (1, C - 1, C, C + 1, 2 * C + 7, 3 * C, 3 * C + 1, 3 * C + 5)

    def plant(re, im):
        # the word w reads back the planted terms (re[w - 1], im[w - 1]) through the term kernel
        monkeypatch.setattr(ws, "unit_terms", lambda w, q, work: np.array((re[w - 1], im[w - 1])))

    plant(re, im)
    want = [complex(math.fsum(re[:n]), math.fsum(im[:n])) for n in cps]
    assert _bits(_row(ws._accumulate(lambda lo, hi, work: np.arange(lo, hi), TURN, cps))) == _bits(want)

    # the same terms repeated with a period that spans blocks and crosses the scale changes
    q = 2 * C + 11
    period_re, period_im = re[:q], im[:q]
    seen = []

    def periodic(lo, hi, work):
        seen.append(hi - 1)
        return np.arange(lo, hi) % q  # the word 0 of n = q reads the last planted term

    plant(period_re, period_im)
    cps = tuple(sorted({k * q + r for k in (0, 1, 5) for r in (1, C, C + 1, q - 1)} | {q, 3 * q}))
    full_re, full_im = np.tile(period_re, 6), np.tile(period_im, 6)
    want = [complex(math.fsum(full_re[:n]), math.fsum(full_im[:n])) for n in cps]
    assert _bits(_row(ws._accumulate(periodic, q, cps))) == _bits(want)
    assert max(seen) == q


_ULP1 = 2.0**-52  # the ulp of 1.0


def _rounding_rows():
    """Rows of 8 terms whose sums need at most two limbs: half-ulp ties both ways, cancellation, signs."""
    h = _ULP1 / 2
    rows = [
        [1.0, h],  # a tie: 1 + 2^-53 rounds down to the even 1.0
        [1.0 + _ULP1, h],  # a tie: rounds up to the even 1 + 2^-51
        [-1.0, -h],
        [-1.0 - _ULP1, -h],
        [0.75, h / 2],  # ties at the ulp 2^-53 of 0.75
        [0.75 + h, h / 2],
        [0.5, 0.5, h / 2, h / 2],  # a tie reached over four terms
        [1.0, 2.0**-40, h, 2.0**-74],  # past a tie by the last bit of a 35-bit second limb sum: up
        [1.0, 2.0**-40, h, -(2.0**-74)],  # short of it: down
        [0.3, -0.3, 0.7, -0.7, 1 / 3, -1 / 3],  # cancels exactly to +0.0
        [-0.0] * 8,  # the int 0 is +0.0, whatever the signs of the zero terms
        list(-np.random.default_rng(31).uniform(0.5, 1.0, size=8)),
        list(np.random.default_rng(32).uniform(-1.0, 1.0, size=8)),
    ]
    return np.array([r + [0.0] * (8 - len(r)) for r in rows])


def _int_route(limbs):
    den = 1 << ws._LIMB_BITS * len(limbs)
    return np.array([t / den for t in ws._joined(limbs)]).reshape(limbs.shape[1:])


@pytest.mark.parametrize("limb_count", [1, 2])
def test_limb_sums_rounded_in_numpy_equal_the_int_join_and_fsum(limb_count):
    terms = _rounding_rows() if limb_count == 2 else np.array([
        [0.5, -0.25, 1.0, -1.0, 2.0**-37, 0.0, -0.5, 0.25],
        [-0.0] * 8,
        [-1.0, -0.5, -(2.0**-37), -0.0, -0.25, -1.0, -1.0, -0.125],
        [1.0, -1.0, 0.5, -0.5, 0.0, -0.0, 2.0**-36, -(2.0**-36)],
    ])
    ends = list(range(1, 9))
    limbs = ws._exact_prefix_sums(terms, ends)
    assert len(limbs) == limb_count
    rounded = ws._rounded(limbs)
    assert [v.hex() for v in rounded.ravel()] == [v.hex() for v in _int_route(limbs).ravel()]
    want = [[math.fsum(row[:k]) for row in terms] for k in ends]  # one list over the rows per end
    assert [v.hex() for v in rounded.ravel()] == [(v + 0.0).hex() for col in want for v in col]
    assert [v.hex() for v in rounded[:, 1 if limb_count == 1 else 10]] == ["0x0.0p+0"] * 8
    if limb_count == 2:
        assert rounded[-1, :9].tolist() == [1.0, 1.0 + 2 * _ULP1, -1.0, -1.0 - 2 * _ULP1, 0.75, 0.75 + _ULP1,
                                            1.0, 1.0 + 2.0**-40 + _ULP1, 1.0 + 2.0**-40]


def _plant(monkeypatch, re, im):
    """Words of a batch that read back the planted terms through the term kernel: row r's term n is
    (re[r, n - 1], im[r, n - 1]).  Returns the words and the list of the limb counts `_rounded` saw."""
    flat_re, flat_im = re.ravel(), im.ravel()
    monkeypatch.setattr(ws, "unit_terms", lambda w, q, work: np.array((flat_re[w], flat_im[w])))
    monkeypatch.setattr(ws, "_TRIVIAL_SLACK", math.inf)  # planted terms are not unit terms: |S| may pass N
    rounded, real = [], ws._rounded
    monkeypatch.setattr(ws, "_rounded", lambda limbs: rounded.append(len(limbs)) or real(limbs))
    idx = np.arange(re.size).reshape(re.shape)
    return (lambda lo, hi, work: idx[:, lo - 1 : hi - 1]), rounded


def _fsum_rows(re, im, cps):
    return [[complex(math.fsum(a[:n]), math.fsum(b[:n])) for n in cps] for a, b in zip(re, im)]


@pytest.mark.parametrize(
    "deep, n, numpy_route",
    [(None, 1000, True), (2.0**-37, 1000, True), (2.0**-80, 1000, False), (5e-324, 1000, False),
     (None, ws.BLOCK + 5, False)],
    ids=["L2", "L1", "L3", "L30", "two-blocks"],
)
def test_accumulate_rounds_in_numpy_only_one_unfolded_block_of_two_limbs(deep, n, numpy_route, monkeypatch):
    rng = np.random.default_rng(41)
    if deep == 2.0**-37:  # terms of one limb: multiples of 2^-37
        re, im = (rng.integers(-(2**37), 2**37, size=(6, n)) / 2.0**37 for _ in range(2))
    else:
        re, im = rng.uniform(-1.0, 1.0, size=(2, 6, n))
        re[:, :4] = _rounding_rows()[:6, :4]  # ties, within the first checkpoints
        if deep is not None:
            im[3, 2] = -deep  # one term of one row sets the limb count of the block
    words, rounded = _plant(monkeypatch, re, im)
    cps = (1, 2, 3, 4, 7, 999, n)
    limbs = len(ws._exact_prefix_sums(np.concatenate([re, im]), [n]))
    assert limbs == {None: 2, 2.0**-37: 1, 2.0**-80: 3, 5e-324: 30}[deep]
    want = _fsum_rows(re, im, cps)
    sums = ws._accumulate(words, TURN, cps)
    assert [_bits(_row(sums, r)) for r in range(6)] == [_bits(w) for w in want]
    assert rounded == ([limbs] if limbs <= 2 else [])  # the first block's checkpoints, whether it is the last or not
    # a fold takes the int route past its period: the same terms with period n, summed to 3n; n is the
    # first block's end, rounded in numpy if that block holds the period and needs at most two limbs
    rounded.clear()
    folded = ws._accumulate(words, n, (n, 3 * n))
    assert rounded == ([limbs] if numpy_route else [])
    want = _fsum_rows(np.tile(re, 3), np.tile(im, 3), (n, 3 * n))
    assert [_bits(_row(folded, r)) for r in range(6)] == [_bits(w) for w in want]


def _int_routed(monkeypatch, *args):
    """`_accumulate(*args)` with no checkpoint rounded by its first block: every value through the int carry."""
    with monkeypatch.context() as m:
        m.setattr(ws, "bisect_right", lambda a, x: 0)
        return ws._accumulate(*args)


def _planted_rows(first_limbs, n):
    """(re, im) of 13 rows of n terms: ties, exact cancellation and rows of -0.0 first, then random terms.

    The first block's terms need first_limbs limbs: multiples of 2^-37 for one, the rounding rows for
    two, and one term of 2^-80 more for three.
    """
    rng = np.random.default_rng(53 + first_limbs)
    re, im = rng.uniform(-1.0, 1.0, size=(2, 13, n))
    if first_limbs == 1:
        re, im = (np.rint(t * 2.0**37) / 2.0**37 for t in (re, im))
        re[:, :6] = [[0.5, -0.5, 2.0**-37, -(2.0**-37), 0.0, 0.0]] * 13  # cancels to +0.0 at 2 and 4
    else:
        re[:, :8] = _rounding_rows()
        im[:, :8] = _rounding_rows()[::-1]
    re[10] = im[10] = -0.0  # a row of -0.0 terms sums to +0.0 at every checkpoint
    if first_limbs == 3:
        im[5, 3] = 2.0**-80
    return re, im


@pytest.mark.parametrize("first_limbs", [1, 2, 3])
@pytest.mark.parametrize("period", [None, 700, ws.BLOCK - 1, ws.BLOCK + 3], ids=["unfolded", "P700", "P=B-1", "P=B+3"])
def test_first_block_checkpoints_rounded_in_numpy_equal_fsum_and_the_int_route(first_limbs, period, monkeypatch):
    # the checkpoints N <= min(P, BLOCK) are prefixes of the first block, rounded in numpy from its limb sums when
    # its terms need at most two limbs; the rest (past BLOCK, or folded past P) take the int carry
    B = ws.BLOCK
    n = B + 40 if period is None else period
    re, im = _planted_rows(first_limbs, n)
    words, rounded = _plant(monkeypatch, re, im)
    if period is None:
        q, cps = TURN, (1, 2, 3, 4, 5, 8, 999, B - 1, B, B + 1, n)
        full_re, full_im = re, im
    else:
        P = q = period
        cps = sorted({1, 2, 4, 8, P - 1, P, P + 1, 2 * P - 1, 2 * P, 2 * P + 1, 5 * P + 3, B - 1, B, B + 1} - {0})
        full_re, full_im = np.tile(re, cps[-1] // P + 1), np.tile(im, cps[-1] // P + 1)
    cps = tuple(cps)
    head = sum(c <= min(q, cps[-1], B) for c in cps)
    sums = ws._accumulate(words, q, cps)
    want = _fsum_rows(full_re, full_im, cps)
    assert [_bits(_row(sums, r)) for r in range(13)] == [_bits(w) for w in want]
    assert {v.hex() for v in (*sums[0][10], *sums[1][10])} == {"0x0.0p+0"}
    assert rounded == ([first_limbs] if first_limbs <= 2 and head else [])
    rounded.clear()
    assert [_bits(_row(_int_routed(monkeypatch, words, q, cps), r)) for r in range(13)] == [_bits(w) for w in want]
    assert rounded == []


@pytest.mark.parametrize(
    "x",
    [tuple(Phase(int(f)) for f in np.random.default_rng(17).integers(0, TURN, size=3, dtype=np.uint64)),
     RationalPoint(a=(4511, 5407), q=8093), RationalPoint(a=(3, 1, 4), q=ws.BLOCK + 7),
     RationalPoint(a=(1316, 525), q=1453)],
    ids=["phase", "rational-8093", "rational-B+7", "rational-1453"],
)
def test_traces_around_block_and_period_equal_fsum_and_the_int_route(x, monkeypatch):
    B = ws.BLOCK
    P = getattr(x, "q", 3 * B)
    cps = tuple(sorted({1, 2, 999, 1000, 1024, B - 1, B, B + 1, P - 1, P, P + 1, 2 * P + 3, 3 * B}))
    tr = ws.weyl_sum_trace(x, cps)
    assert _bits(tr.values) == _bits(canonical_sums(x, cps))
    words, q = ws._phase_words(x, None)
    assert _bits(_row(_int_routed(monkeypatch, words, q, cps))) == _bits(tr.values)
    # the trace from the checked arrays equals one built from its values, which checks them again
    again = ws.SumTrace(checkpoints=tr.checkpoints, values=tr.values)
    assert again == tr and again.magnitudes == tr.magnitudes and again.rows() == tr.rows()
    assert tr.rows() == [(n, v.real, v.imag, abs(v)) for n, v in zip(cps, tr.values)]


@pytest.mark.parametrize("n", [1000, ws.BLOCK + 5])
def test_batch_rows_cut_at_their_lengths_equal_fsum_and_the_int_route(n, monkeypatch):
    # koksma's blocks: each row sums its first lengths[r] terms, the zeros past them add to no limb
    rng = np.random.default_rng(59)
    re, im = rng.uniform(-1.0, 1.0, size=(2, 13, n))
    re[:, :8], im[:, :8] = _rounding_rows(), _rounding_rows()[::-1]
    lengths = np.array([n, 1, 2, 3, 4, 5, 6, 7, 8, 9, n - 1, n // 2, 17])
    words, rounded = _plant(monkeypatch, re, im)
    sums = ws._accumulate(words, TURN, (n,), lengths)
    want = [[complex(math.fsum(a[:k]), math.fsum(b[:k]))] for a, b, k in zip(re, im, lengths)]
    assert [_bits(_row(sums, r)) for r in range(13)] == [_bits(w) for w in want]
    assert rounded == ([2] if n <= ws.BLOCK else [])
    int_sums = _int_routed(monkeypatch, words, TURN, (n,), lengths)
    assert [_bits(_row(int_sums, r)) for r in range(13)] == [_bits(w) for w in want]


def test_accumulate_bounds_each_value_by_its_own_n(monkeypatch):
    # |S| <= N for each value, N its checkpoint or its row's own length, and the moduli come back with
    # the values: row 0's terms are all 1, row 1's are 2 and then 1, so |S(N)| = N + 1 on row 1
    re = np.ones((2, 16))
    re[1, 0] = 2.0
    slack = ws._TRIVIAL_SLACK
    words, _ = _plant(monkeypatch, re, np.zeros((2, 16)))
    monkeypatch.setattr(ws, "_TRIVIAL_SLACK", slack)  # the bound that _plant lifts, put back
    re0, im0, mags = ws._accumulate(lambda lo, hi, work: words(lo, hi, work)[:1], TURN, (1, 8, 16))
    assert mags.tolist() == [[1.0, 8.0, 16.0]] == [list(map(abs, _row((re0, im0, mags))))]
    with pytest.raises(LemmaCheckFailureError, match=r"\|S\| = 9\.0 > N = 8$"):
        ws._accumulate(words, TURN, (8, 16))
    with pytest.raises(LemmaCheckFailureError, match=r"\|S\| = 5\.0 > N = 4$"):
        ws._accumulate(words, TURN, (16,), np.array([16, 4]))


def test_batch_blocks_switch_routes_with_the_same_bits(monkeypatch):
    # measure-estimate's blocks in miniature: four calls of five rows each, the second and the last
    # with one term of three limbs, each value equal to the row summed alone and to fsum
    rng = np.random.default_rng(43)
    re, im = rng.uniform(-1.0, 1.0, size=(2, 20, 16))
    re[7, 5], im[19, 15] = 2.0**-80, -(2.0**-75)
    words, rounded = _plant(monkeypatch, re, im)
    got = []
    for b in range(4):
        rows = slice(5 * b, 5 * b + 5)
        got += list(map(complex, *(v[:, 0].tolist() for v in ws._accumulate(
            lambda lo, hi, work: words(lo, hi, work)[rows], TURN, (16,))[:2])))
    assert rounded == [2, 2]
    alone = [_row(ws._accumulate(lambda lo, hi, work: words(lo, hi, work)[r : r + 1], TURN, (16,)))[0]
             for r in range(20)]
    assert rounded == [2, 2] + [2] * 18  # each row alone: rows 7 and 19 need three limbs
    want = [w[0] for w in _fsum_rows(re, im, (16,))]
    assert _bits(got) == _bits(alone) == _bits(want)


@pytest.mark.parametrize("unit", [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), None])
def test_measure_estimate_tie_at_i_1_is_a_hit(unit, monkeypatch):
    # |S(x; 1)| = 1 = 1^alpha: a tie that the 1e-12 slack keeps a hit, for exact unit terms and real ones
    if unit is not None:
        monkeypatch.setattr(ws, "unit_terms", lambda w, q, work: np.multiply.outer(unit, np.ones(w.shape)))
    for d in (1, 2, 3):
        assert lv.measure_estimate(d, 0.4, 1, 1000, seed=d).estimate == 1.0


def test_weyl_sum_holds_a_few_block_arrays_whatever_n():
    # one workspace per call: the phase words, their ramp, the terms and the scratch of the term
    # kernel and the reducer, allocated for the first block and reused by every later one
    x = tuple(Phase(int(f)) for f in np.random.default_rng(4).integers(0, TURN, size=3, dtype=np.uint64))
    ws.weyl_sum(x, 2**17)
    peaks = []
    for n in (2**17, 2**20):
        ws._SPARE.clear()  # so that this call allocates its workspace
        tracemalloc.start()
        try:
            ws.weyl_sum(x, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert max(peaks) <= (8 + 1) * 8 * ws.BLOCK  # eight block arrays, and the small ones
    assert peaks[1] <= peaks[0] + 8 * ws.BLOCK // 16
    # the workspace handed on by the last call: the next call allocates no block array
    tracemalloc.start()
    try:
        ws.weyl_sum(x, 2**17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * ws.BLOCK


def test_a_batch_hands_on_no_workspace_larger_than_one_points():
    # 20 rows at N = 1000 put more than BLOCK words in a block and fill "terms" past one point's 2 BLOCK
    # floats, yet stay under _SPARE_BYTES: the batch grows the spare it takes and then frees it, where
    # the next call would carry its bytes or drop it when it grows
    words = np.random.default_rng(13).integers(0, TURN, size=(20, 3), dtype=np.uint64)
    ws._SPARE.clear()
    ws.weyl_sum(tuple(Phase(int(w)) for w in words[0]), 1000)
    assert len(ws._SPARE) == 1
    ws.weyl_sum_batch(words, 1000)
    assert ws._SPARE == []
    ws.weyl_sum_batch(words[:16], 1000)  # 16 rows of 1000 terms: at most BLOCK words, one point's buffers
    (work,) = ws._SPARE
    assert work._buffers[("terms", np.float64)].size <= 2 * ws.BLOCK and work.nbytes <= ws._SPARE_BYTES


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
        dc.koksma_relation_check(RationalPoint((1, 2), 5), 10, m=(2,))
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
