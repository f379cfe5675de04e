"""Exact discrepancy, the brute-force oracle pact, and the Koksma relation."""

import random
import tracemalloc
from math import pi, sqrt

import numpy as np
import pytest

from helpers import (
    disc_linear_units,
    disc_oracle_units,
    discrepancy_exact,
    phase_from_float,
    pointset_from_floats,
    poly_phase,
    poly_sequence,
    sequence_fracs,
    star_linear_units,
)
from weylsums import discrepancy as dc
from weylsums import weyl_sums as ws
from weylsums.errors import LemmaCheckFailureError, PreconditionError
from weylsums.phasecore import TURN, Phase, RationalPoint, phase_from_rational, unit_terms


def _pset(fracs):
    return dc.PointSet1D(fracs=tuple(sorted(fracs)))


def _d_units(fracs):
    """Exact D_N * 2^64 of a list of grid numerators through the library's sorted-array kernel."""
    return dc._sorted_units(_pset(fracs).fracs)[0]


def test_poly_sequence_examples():
    assert poly_sequence((Phase(0), Phase(0)), 4).fracs.tolist() == [0, 0, 0, 0]
    s = poly_sequence((phase_from_rational(1, 2),), 4)
    assert s.values() == [0.0, 0.0, 0.5, 0.5]
    s = poly_sequence(RationalPoint(a=(0, 1), q=3), 3)
    # n^2 mod 3 = 1, 1, 0 -> sorted (0, 1/3, 1/3)
    assert [round(v, 12) for v in s.values()] == [0.0, round(1 / 3, 12), round(1 / 3, 12)]


def test_discrepancy_all_zero():
    assert discrepancy_exact(_pset([0, 0, 0, 0])) == 4.0


def test_discrepancy_single_point():
    assert discrepancy_exact(_pset([TURN // 2])) == 1.0


def test_discrepancy_equidistant():
    pts = [(2 * i - 1) * TURN // 8 for i in (1, 2, 3, 4)]
    assert discrepancy_exact(_pset(pts)) == 1.0


def test_star_discrepancy_examples():
    assert dc.star_discrepancy(_pset([0, 0, 0, 0])) == 4.0
    pts = [(2 * i - 1) * TURN // 8 for i in (1, 2, 3, 4)]
    assert dc.star_discrepancy(_pset(pts)) == 0.5
    assert dc.star_discrepancy(_pset([TURN // 2])) == 0.5


def test_oracle_agreement_random_sets():
    rng = random.Random(7)
    for trial in range(120):
        n = rng.randint(1, 48)
        mode = trial % 3
        if mode == 0:
            fr = [rng.randrange(TURN) for _ in range(n)]
        elif mode == 1:
            q = rng.randint(1, 8)
            fr = [rng.randrange(q) * (TURN // q) for _ in range(n)]
        else:
            z = rng.randint(0, n)
            fr = [0] * z + [rng.randrange(TURN) for _ in range(n - z)]
        s = _pset(fr)
        fast = discrepancy_exact(s)
        oracle = disc_oracle_units(fr, n) / TURN
        assert fast == oracle  # exact float equality, both exact dyadics
    # long runs of ties on a coarse grid, with zeros
    for q in (1, 2, 3, 5, 8):
        n = rng.randint(280, 320)
        fr = [rng.randrange(q) * (TURN // q) for _ in range(n)]
        assert _d_units(fr) == disc_linear_units(sorted(fr), n) == disc_oracle_units(fr, n)


def test_sandwich_inequality_exact():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 40)
        fr = [rng.randrange(TURN) for _ in range(n)] if n % 2 else [0] * (n // 2) + [
            rng.randrange(TURN) for _ in range(n - n // 2)
        ]
        s = _pset(fr)
        d = discrepancy_exact(s)
        ds = dc.star_discrepancy(s)
        assert ds <= d <= 2 * ds


def test_duplication_doubles_exactly():
    rng = random.Random(13)
    fr = [rng.randrange(TURN) for _ in range(17)]
    d1 = _d_units(fr)
    d2 = _d_units(fr + fr)
    assert d2 == 2 * d1


def test_adding_a_point_moves_d_by_at_most_2():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 30)
        fr = sorted(rng.randrange(TURN) for _ in range(n))
        u1 = _d_units(fr)
        extra = rng.randrange(TURN)
        u2 = _d_units(fr + [extra])
        assert abs(u2 - u1) <= 2 * TURN


def test_koksma_check_at_zero():
    rep = dc.koksma_relation_check((Phase(0), Phase(0)), 50)[0]
    assert rep.passed
    assert abs(rep.ratio - 1.0) < 1e-12  # |S| = N, D* = N
    assert rep.bound >= 2 * pi * 50


def test_koksma_check_alternating():
    rep = dc.koksma_relation_check((phase_from_rational(1, 2),), 4, m=(1,))[0]
    assert rep.passed
    assert rep.s_magnitude < 1e-12


def test_koksma_check_random_points():
    rng = np.random.default_rng(23)
    for _ in range(25):
        d = 2 + int(rng.integers(0, 2))
        x = tuple(Phase(int(f)) for f in rng.integers(0, TURN, size=d, dtype=np.uint64))
        n = int(rng.integers(1, 1001))
        rep = dc.koksma_relation_check(x, n)[0]
        assert rep.passed
        assert rep.ratio <= 2 * pi


def test_discrepancy_scan_at_zero():
    hits = dc.discrepancy_scan((Phase(0), Phase(0)), 0.9, 64)
    assert hits == list(ws.checkpoint_grid(64))  # D_N = N everywhere


def test_discrepancy_scan_golden_ratio_near_empty():
    x = phase_from_float((sqrt(5) - 1) / 2)
    hits = dc.discrepancy_scan(x, 0.5, 10**4, m=(1,))
    assert hits == [1]  # D_1 = 1 = 1^0.5; nothing else qualifies


def test_exceptional_hits_are_discrepancy_hits():
    # |S| >= 2 pi N^alpha forces D_N >= D*_N >= |S| / (2 pi) >= N^alpha
    rng = np.random.default_rng(29)
    for _ in range(5):
        x = tuple(Phase(int(f)) for f in rng.integers(0, TURN, size=2, dtype=np.uint64))
        alpha = 0.3
        strong = [
            n
            for n in ws.checkpoint_grid(512)
            if abs(ws.weyl_sum(x, n)) >= 2 * pi * float(n) ** alpha
        ]
        dhits = set(dc.discrepancy_scan(x, alpha, 512))
        assert set(strong) <= dhits


@pytest.mark.parametrize(
    "x, m, n",
    [
        ((Phase(0x9E3779B97F4A7C15), Phase(0x2545F4914F6CDD1D)), None, 997),
        ((Phase(0x8CB92BA72F3D8DD7), Phase(0x5851F42D4C957F2D), Phase(0x14057B7EF767814F)), None, 70000),
        (RationalPoint(a=(3, 5), q=11), None, 500),  # q < N: the sum folds by period
        (RationalPoint(a=(17,), q=1009), (3,), 70000),  # sparse exponent, q < N past one chunk
        ((Phase(0x2545F4914F6CDD1D), Phase(0xD1B54A32D192ED03)), (2, 5), 300),
        (RationalPoint(a=(1, 1), q=2**31 - 1), (1, 4), 400),  # q > N
    ],
)
def test_koksma_check_equals_sum_and_discrepancy_routes(x, m, n):
    # one pass of phase words for both sides gives what the two public routes give, bit for bit
    rep = dc.koksma_relation_check(x, n, m)[0]
    assert rep.s_magnitude == abs(ws.weyl_sum(x, n, m))
    assert rep.d_star == dc.star_discrepancy(poly_sequence(x, n, m))


def _first_words(x, n):
    """The phase words of the point x at 1..n, each from Python ints (an independent route to the words)."""
    return np.array([poly_phase(x, k).frac for k in range(1, n + 1)], dtype=np.uint64)


@pytest.mark.parametrize(
    "d, ns",
    [
        (1, [1]),  # one row of one point
        (3, [70000]),  # one row past a chunk
        (2, [300, 1, 997, 300, 64, 997, 300]),  # N = 1, N = N_max and repeated N in one block
        (3, [65536, 65537, 70000, 5]),  # across a chunk, one row per block
        (4, [int(n) for n in np.random.default_rng(5).integers(1, 201, size=70)]),  # blocks of 32, 32, 6
        (1, [5000] * 20),  # blocks of CHUNK // 5000 = 13 rows, then 7
    ],
)
def test_koksma_rows_equal_single_point_calls(d, ns):
    points = np.random.default_rng(len(ns) + d).integers(0, TURN, size=(len(ns), d), dtype=np.uint64)
    zero = len(ns) // 2 if len(ns) > 1 else None
    if zero is not None:
        points[zero] = 0  # every point at 0: |S| = D*_N = N
    reports = dc.koksma_relation_check(points, ns)
    assert [rep.N for rep in reports] == ns
    for row, n, rep in zip(points, ns, reports):
        x = tuple(Phase(int(w)) for w in row)
        assert dc.koksma_relation_check(x, n) == [rep]  # every field, bit for bit
        assert rep.s_magnitude == abs(ws.weyl_sum(x, n))
        words = np.sort(_first_words(x, n))
        assert rep.d_star == dc.star_discrepancy(dc.PointSet1D(fracs=words))
        assert rep.d_star == star_linear_units(words.tolist(), n) / TURN
    if zero is not None:
        assert reports[zero].s_magnitude == reports[zero].d_star == ns[zero]


@pytest.mark.parametrize("d", [1, 3])
def test_koksma_rows_given_in_descending_n(d):
    # the rows run in ascending N; the reports still come back one per row, in row order
    rng = np.random.default_rng(10 + d)
    ns = sorted(rng.integers(1, 3000, size=40).tolist(), reverse=True)
    points = rng.integers(0, TURN, size=(len(ns), d), dtype=np.uint64)
    reports = dc.koksma_relation_check(points, ns)
    assert [rep.N for rep in reports] == ns
    for row, n, rep in zip(points, ns, reports):
        assert dc.koksma_relation_check(tuple(Phase(int(w)) for w in row), n) == [rep]


def test_koksma_row_with_deep_terms_past_its_n_equals_weyl_sum(monkeypatch):
    # a block's rows are summed to its largest N and read at their own: row 0 sums one term of two
    # limbs, but its second term e(1/4 + 2^-63), with a cosine near -6.8e-19, needs more, so the block's
    # values take the int route instead of numpy's rounding, with the same bits
    points = np.random.default_rng(7).integers(0, TURN, size=(6, 2), dtype=np.uint64)
    points[0] = [2**61 - 1, 1]  # phases 1/8 at n = 1 and 1/4 + 2^-63 at n = 2
    ns = [1, 300, 2, 17, 300, 64]
    terms = unit_terms(ws._phase_words(points[:1], None, 2)[0](1, 3, None), TURN)[:, 0]
    assert [len(ws._exact_prefix_sums(terms[:, :k], [k])) for k in (1, 2)] == [2, 4]
    rounded, real = [], ws._rounded
    monkeypatch.setattr(ws, "_rounded", lambda limbs: rounded.append(len(limbs)) or real(limbs))
    reports = dc.koksma_relation_check(points, ns)
    assert rounded == []
    for row, n, rep in zip(points, ns, reports):
        x = tuple(Phase(int(w)) for w in row)
        assert dc.koksma_relation_check(x, n) == [rep]  # every field, bit for bit
        assert rep.s_magnitude == abs(ws.weyl_sum(x, n))


def test_koksma_failure_names_the_first_failing_row(monkeypatch):
    # with the constant planted at 0 only |S| <= 1e-6 passes: at x = 1/2 every even N sums to exactly 0
    points = np.full((40, 1), TURN // 2, dtype=np.uint64)
    points[35:] = np.random.default_rng(3).integers(0, TURN, size=(5, 1), dtype=np.uint64)
    ns = [2 * (k + 1) for k in range(35)] + [13, 11, 9, 7, 5]
    monkeypatch.setattr(dc, "KOKSMA_CONSTANT", 0.0)
    assert all(rep.s_magnitude == 0.0 for rep in dc.koksma_relation_check(points[:35], ns[:35]))
    with pytest.raises(LemmaCheckFailureError, match=r"at N=13:"):
        dc.koksma_relation_check(points, ns)  # rows 35-39 fail; row 39 (N = 5) runs first in N order


def test_koksma_rows_refuse_bad_lengths():
    # a row with N = 0 or N >= 2^31, an N short, or no rows at all
    points = np.zeros((3, 2), dtype=np.uint64)
    for rows, ns in ((points, [5, 0, 5]), (points, [5, 2**31, 5]), (points, [5, 5]), (points[:0], [])):
        with pytest.raises(PreconditionError):
            dc.koksma_relation_check(rows, ns)


def test_pointset_validation():
    with pytest.raises(PreconditionError):
        dc.PointSet1D(fracs=(5, 3))
    with pytest.raises(PreconditionError):
        dc.PointSet1D(fracs=(TURN,))
    with pytest.raises(PreconditionError):
        dc.PointSet1D(fracs=np.array([-1, 2]))
    with pytest.raises(PreconditionError):
        discrepancy_exact(dc.PointSet1D(fracs=()))
    with pytest.raises(ValueError):  # the held array is read-only
        dc.PointSet1D(fracs=(1, 2)).fracs[0] = 3


def test_pointset_from_floats_quantizes():
    s = pointset_from_floats([0.5, 0.25, 1.25])
    assert s.fracs.tolist() == [TURN // 4, TURN // 4, TURN // 2]


def test_scan_rows_shape():
    columns = dc.scan_rows((phase_from_rational(1, 2),), 8, m=(1,))
    assert [c.dtype for c in columns] == [np.int64] + [np.float64] * 4
    assert columns[0].tolist() == list(range(1, 9))
    n, d_n, d_star, s_mag, ratio = (c[3] for c in columns)
    assert n == 4 and d_n == 2.0 and d_star == 2.0
    assert s_mag < 1e-12


@pytest.mark.parametrize(
    "x, m, n_max",
    [
        ((Phase(0x9E3779B97F4A7C15), Phase(0x2545F4914F6CDD1D)), None, 64),
        (RationalPoint(a=(1,), q=7), (2,), 200),  # n^2/7: four values, zeros at 7 | n
        ((Phase(0), Phase(0)), None, 200),
    ],
)
def test_scans_match_fresh_evaluations_at_every_checkpoint(x, m, n_max):
    grid = ws.checkpoint_grid(n_max)
    columns = dc.scan_rows(x, n_max, m=m)
    assert columns[0].tolist() == list(grid)
    fresh_hits = []
    for n, d_n, d_star, s_mag, ratio in zip(*(c.tolist() for c in columns)):
        assert ratio == (s_mag / d_star if d_star else 0.0)
        s = poly_sequence(x, n, m)
        assert d_n == discrepancy_exact(s) == disc_oracle_units(s.fracs.tolist(), n) / TURN
        assert d_star == dc.star_discrepancy(s)
        assert s_mag == abs(ws.weyl_sum(x, n, m))
        if d_n >= float(n) ** 0.5:
            fresh_hits.append(n)
    assert dc.discrepancy_scan(x, 0.5, n_max, m=m) == fresh_hits


def _linear_rows(fracs, n_max):
    """(N, D_N, D*_N) * 2^64 at each checkpoint from the linear Python-int oracle over a re-sorted prefix."""
    prefix = []
    for n in ws.checkpoint_grid(n_max):
        prefix.extend(fracs[len(prefix):n])
        prefix.sort()
        yield n, disc_linear_units(prefix, n), star_linear_units(prefix, n)


_SCAN_N = 20000
_POINTS = {
    "phase-d1": (Phase(0x9E3779B97F4A7C15),),
    "phase-d2": (Phase(0x2545F4914F6CDD1D), Phase(0xD1B54A32D192ED03)),
    "phase-d3": (Phase(0x8CB92BA72F3D8DD7), Phase(0x5851F42D4C957F2D), Phase(0x14057B7EF767814F)),
    "17/1009": RationalPoint(a=(17,), q=1009),
    "(17,33)/1009": RationalPoint(a=(17, 33), q=1009),
    "3/8": RationalPoint(a=(3,), q=8),  # ties, and a zero at every n divisible by 8
    "zero": (Phase(0),),
    "top-word": (Phase(TURN - 1),),  # x_n = 1 - n 2^-64
}


def _grid_sequence(q, seed):
    """_SCAN_N random words on the k/q grid in sequence order, built directly (q may exceed 2^31)."""
    rng = random.Random(seed)
    return np.array([phase_from_rational(rng.randrange(q), q).frac for _ in range(_SCAN_N)], dtype=np.uint64)


def _tie_sequence(seed):
    """Zeros, 2^64 - 1 and a few repeated words, mixed with fresh random words."""
    rng = random.Random(seed)
    pool = [0, TURN - 1, 1, TURN // 2, rng.randrange(TURN)]
    return np.array([rng.choice(pool) if rng.random() < 0.7 else rng.randrange(TURN) for _ in range(_SCAN_N)],
                    dtype=np.uint64)


@pytest.mark.parametrize(
    "case", [*_POINTS, *(f"grid-q{q}" for q in (1, 2, 3, 5, 8, 2**32)), "ties"],
)
def test_checkpoint_units_match_linear_oracle(case):
    # the int64 hi/lo kernels against the Python-int closed form at every checkpoint up to 2e4,
    # with the dense pass cut short (N_max = 1, 700) and run whole
    if case in _POINTS:
        fracs = sequence_fracs(_POINTS[case], _SCAN_N, None)
    elif case == "ties":
        fracs = _tie_sequence(41)
    else:
        fracs = _grid_sequence(int(case.removeprefix("grid-q")), 43)
    expected = list(_linear_rows(fracs.tolist(), _SCAN_N))
    for n_max in (1, 700, _SCAN_N):
        work = fracs.copy()  # each call sorts the prefixes of its own input in place
        got = list(dc._checkpoint_units(work, n_max))
        assert got == expected[: len(got)]
        assert [n for n, _, _ in got] == list(ws.checkpoint_grid(n_max))
        assert np.sort(work).tolist() == np.sort(fracs).tolist()  # the same points, as a multiset


@pytest.mark.parametrize("x", [(Phase(0x9E3779B97F4A7C15),), RationalPoint(a=(1,), q=3)], ids=["phase", "1/3"])
@pytest.mark.parametrize("scan", ["scan_rows", "discrepancy_scan"])
def test_scans_hold_under_20_bytes_a_point(x, scan):
    # the phase words are the only N-long array: the sums read them before the grid numerators are
    # written over them, every checkpoint sorts its prefix in place and D reads ranks as positions
    n = 2**20
    tracemalloc.start()
    try:
        dc.scan_rows(x, n) if scan == "scan_rows" else dc.discrepancy_scan(x, 0.5, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * n


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 1009, 9973, 2**30 + 3, 2**31 - 19])
def test_rational_words_round_like_phase_from_rational(q):
    # residues a n mod q over n = 1..2000, with a = 1 (0 at q | n), q - 1 (q - 1 at n = 1) and one more
    for a in (1, q - 1, 0x9E3779B9 % q):
        words = sequence_fracs(RationalPoint(a=(a,), q=q), 2000, None)
        assert words.tolist() == [phase_from_rational(a * n, q).frac for n in range(1, 2001)]
