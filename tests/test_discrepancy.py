"""Exact discrepancy, the brute-force oracle pact, and the Koksma relation."""

import random
from math import pi, sqrt

import numpy as np
import pytest

from helpers import disc_oracle_units, phase_from_float, pointset_from_floats
from weylsums import discrepancy as dc
from weylsums import weyl_sums as ws
from weylsums.errors import PreconditionError
from weylsums.phasecore import TURN, Phase, RationalPoint, phase_from_rational


def _pset(fracs):
    return dc.PointSet1D(fracs=tuple(sorted(fracs)))


def test_poly_sequence_examples():
    assert dc.poly_sequence((Phase(0), Phase(0)), 4).fracs == (0, 0, 0, 0)
    s = dc.poly_sequence((phase_from_rational(1, 2),), 4)
    assert s.values() == [0.0, 0.0, 0.5, 0.5]
    s = dc.poly_sequence(RationalPoint(a=(0, 1), q=3), 3)
    # n^2 mod 3 = 1, 1, 0 -> sorted (0, 1/3, 1/3)
    assert [round(v, 12) for v in s.values()] == [0.0, round(1 / 3, 12), round(1 / 3, 12)]


def test_discrepancy_all_zero():
    assert dc.discrepancy_exact(_pset([0, 0, 0, 0])) == 4.0


def test_discrepancy_single_point():
    assert dc.discrepancy_exact(_pset([TURN // 2])) == 1.0


def test_discrepancy_equidistant():
    pts = [(2 * i - 1) * TURN // 8 for i in (1, 2, 3, 4)]
    assert dc.discrepancy_exact(_pset(pts)) == 1.0


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
        fast = dc.discrepancy_exact(s)
        oracle = disc_oracle_units(fr, n) / TURN
        assert fast == oracle  # exact float equality, both exact dyadics
    # long runs of ties on a coarse grid, with zeros
    for q in (1, 2, 3, 5, 8):
        n = rng.randint(280, 320)
        fr = [rng.randrange(q) * (TURN // q) for _ in range(n)]
        assert dc._discrepancy_units(sorted(fr), n) == disc_oracle_units(fr, n)


def test_sandwich_inequality_exact():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 40)
        fr = [rng.randrange(TURN) for _ in range(n)] if n % 2 else [0] * (n // 2) + [
            rng.randrange(TURN) for _ in range(n - n // 2)
        ]
        s = _pset(fr)
        d = dc.discrepancy_exact(s)
        ds = dc.star_discrepancy(s)
        assert ds <= d <= 2 * ds


def test_duplication_doubles_exactly():
    rng = random.Random(13)
    fr = [rng.randrange(TURN) for _ in range(17)]
    d1 = dc._discrepancy_units(sorted(fr), 17)
    d2 = dc._discrepancy_units(sorted(fr + fr), 34)
    assert d2 == 2 * d1


def test_adding_a_point_moves_d_by_at_most_2():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 30)
        fr = sorted(rng.randrange(TURN) for _ in range(n))
        u1 = dc._discrepancy_units(fr, n)
        extra = rng.randrange(TURN)
        u2 = dc._discrepancy_units(sorted(fr + [extra]), n + 1)
        assert abs(u2 - u1) <= 2 * TURN


def test_koksma_check_at_zero():
    rep = dc.koksma_relation_check((Phase(0), Phase(0)), 50)
    assert rep.passed
    assert abs(rep.ratio - 1.0) < 1e-12  # |S| = N, D* = N
    assert rep.bound >= 2 * pi * 50


def test_koksma_check_alternating():
    rep = dc.koksma_relation_check((phase_from_rational(1, 2),), 4, m=(1,))
    assert rep.passed
    assert rep.s_magnitude < 1e-12


def test_koksma_check_random_points():
    rng = np.random.default_rng(23)
    for _ in range(25):
        d = 2 + int(rng.integers(0, 2))
        x = tuple(Phase(int(f)) for f in rng.integers(0, TURN, size=d, dtype=np.uint64))
        n = int(rng.integers(1, 1001))
        rep = dc.koksma_relation_check(x, n)
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


def test_pointset_validation():
    with pytest.raises(PreconditionError):
        dc.PointSet1D(fracs=(5, 3))
    with pytest.raises(PreconditionError):
        dc.PointSet1D(fracs=(TURN,))
    with pytest.raises(PreconditionError):
        dc.discrepancy_exact(dc.PointSet1D(fracs=()))


def test_pointset_from_floats_quantizes():
    s = pointset_from_floats([0.5, 0.25, 1.25])
    assert s.fracs == (TURN // 4, TURN // 4, TURN // 2)


def test_scan_rows_shape():
    rows = dc.scan_rows((phase_from_rational(1, 2),), 8, m=(1,))
    assert [r[0] for r in rows] == list(range(1, 9))
    n, d_n, d_star, s_mag, ratio = rows[3]
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
    rows = dc.scan_rows(x, n_max, m=m)
    assert [r[0] for r in rows] == list(grid)
    fresh_hits = []
    for n, d_n, d_star, s_mag, _ in rows:
        s = dc.poly_sequence(x, n, m)
        assert d_n == dc.discrepancy_exact(s) == disc_oracle_units(s.fracs, n) / TURN
        assert d_star == dc.star_discrepancy(s)
        assert s_mag == abs(ws.weyl_sum(x, n, m))
        if d_n >= float(n) ** 0.5:
            fresh_hits.append(n)
    assert dc.discrepancy_scan(x, 0.5, n_max, m=m) == fresh_hits
