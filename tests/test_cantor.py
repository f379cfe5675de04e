"""Pattern geometry, schedules, dimension estimators and the certified construction."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from helpers import audit_nesting, full_table
from weylsums import cantor as ct
from weylsums import complete_sums as cs
from weylsums import large_values as lv
from weylsums.errors import (
    InvalidPatternError,
    InvalidScheduleError,
    PreconditionError,
    TooFewScalesError,
    WitnessNotFoundError,
)

F = Fraction


def test_pattern_corner_count():
    spec = ct.PatternSpec(a=F(1), b=F(1, 3), c=F(1, 10), rule="corner")
    boxes = ct.make_pattern(ct.unit_box(2), spec)
    assert len(boxes) == 9
    assert all(b.side == F(1, 10) for b in boxes)
    assert boxes[0].corner == (F(0), F(0))


def test_pattern_centered():
    spec = ct.PatternSpec(a=F(1), b=F(1, 2), c=F(1, 8), rule="centered")
    boxes = ct.make_pattern(ct.unit_box(2), spec)
    assert len(boxes) == 4
    # each box centered in its half-cell: corner = cell + (1/2 - 1/8)/2
    off = (F(1, 2) - F(1, 8)) / 2
    assert boxes[0].corner == (off, off)
    assert boxes[-1].corner == (F(1, 2) + off, F(1, 2) + off)


def test_pattern_invalid_ratio():
    with pytest.raises(InvalidPatternError):
        ct.PatternSpec(a=F(1), b=F(3, 10), c=F(1, 100))  # a/b = 10/3


def test_pattern_invalid_order():
    with pytest.raises(InvalidPatternError):
        ct.PatternSpec(a=F(1, 4), b=F(1, 2), c=F(1, 8))


def test_pattern_seeded_random_deterministic_and_contained():
    spec = ct.PatternSpec(a=F(1), b=F(1, 4), c=F(1, 64), rule="seeded-random", seed=9)
    b1 = ct.make_pattern(ct.unit_box(2), spec)
    b2 = ct.make_pattern(ct.unit_box(2), spec)
    assert b1 == b2
    cells = ct.make_pattern(ct.unit_box(2), ct.PatternSpec(a=F(1), b=F(1, 4), c=F(1, 4) - F(1, 10**9), rule="corner"))
    for sub in b1:
        assert any(
            all(cc <= sc and sc + sub.side <= cc + F(1, 4) for cc, sc in zip(cell.corner, sub.corner))
            for cell in (ct.Box(corner=c.corner, side=F(1, 4)) for c in cells)
        )


def test_schedule_validation():
    with pytest.raises(InvalidScheduleError):
        # delta_0 / ell_1 = 3/2 not an integer
        ct.CantorSchedule(d=2, deltas=(F(1, 4),), ells=(F(2, 3),))
    with pytest.raises(InvalidScheduleError):
        ct.CantorSchedule(d=2, deltas=(F(1, 2),), ells=(F(1, 4),))  # ell < delta


def test_build_cantor_q4_depth3():
    sched = ct.geometric_schedule(2, [(2, F(1, 4))] * 3)
    coll = ct.build_cantor(sched, 3)
    assert len(coll.boxes) == 64
    assert all(b.side == F(1, 64) for b in coll.boxes)
    assert sched.q(1) == 4


def test_build_cantor_depth0_unit_cube():
    sched = ct.geometric_schedule(2, [(2, F(1, 4))])
    coll = ct.build_cantor(sched, 0)
    assert coll.boxes == (ct.unit_box(2),)


def test_nesting_and_disjointness_audit():
    sched = ct.geometric_schedule(2, [(2, F(1, 4))] * 3)
    prev = ct.build_cantor(sched, 2)
    curr = ct.build_cantor(sched, 3)
    assert audit_nesting(prev, curr)


def test_natural_weight_sums_to_one():
    sched = ct.geometric_schedule(2, [(2, F(1, 4))] * 3)
    coll = ct.build_cantor(sched, 3)
    w = coll.natural_weight()
    assert w == F(1, 64)
    assert w * len(coll.boxes) == 1


def test_dimension_formula_q4_exact():
    sched = ct.geometric_schedule(2, [(2, F(1, 4))] * 4)
    assert ct.dimension_formula(sched, 4) == 1.0


def test_dimension_formula_degenerate_full_packing():
    # ell_k = delta_k: q_k = (delta_{k-1}/delta_k)^d, dimension d
    deltas = (F(1, 2), F(1, 4), F(1, 8))
    sched = ct.CantorSchedule(d=2, deltas=deltas, ells=deltas)
    assert ct.dimension_formula(sched, 3) == 2.0
    # but the degenerate schedule cannot be built into boxes
    with pytest.raises(InvalidPatternError):
        ct.build_cantor(sched, 1)


def test_dimension_formula_preconditions():
    sched = ct.geometric_schedule(2, [(2, F(1, 4))] * 2)
    with pytest.raises(PreconditionError):
        ct.dimension_formula(sched, 0)
    with pytest.raises(PreconditionError):
        ct.dimension_formula(sched, 5)


def test_box_counting_full_cube():
    coll = ct.BoxCollection(depth=0, boxes=(ct.unit_box(2),))
    dim = ct.box_counting_dimension(coll, [F(1, 4), F(1, 16), F(1, 64), F(1, 256)])
    assert abs(dim - 2.0) <= 0.05


def test_box_counting_single_point():
    pt = ct.Box(corner=(F(1, 3), F(2, 7)), side=F(0))
    coll = ct.BoxCollection(depth=0, boxes=(pt,))
    dim = ct.box_counting_dimension(coll, [F(1, 4), F(1, 16), F(1, 64)])
    assert abs(dim) <= 0.05


def test_box_counting_q4_depth4():
    sched = ct.geometric_schedule(2, [(2, F(1, 4))] * 4)
    coll = ct.build_cantor(sched, 4)
    dim = ct.box_counting_dimension(coll, [F(1, 4**k) for k in range(1, 5)])
    assert abs(dim - 1.0) <= 0.15


def test_formula_matches_box_counting_constant_q():
    # self-similar cross-check at a second cell count (q = 9, shrink 1/9)
    sched = ct.geometric_schedule(2, [(3, F(1, 9))] * 4)
    dim_f = ct.dimension_formula(sched, 4)
    coll = ct.build_cantor(sched, 4)
    dim_b = ct.box_counting_dimension(coll, [F(1, 9**k) for k in range(1, 5)])
    assert abs(dim_f - dim_b) <= 0.15
    assert dim_f == 1.0  # log 9^k / log 9^k


def test_box_counting_scale_preconditions():
    coll = ct.BoxCollection(depth=0, boxes=(ct.unit_box(2),))
    with pytest.raises(TooFewScalesError):
        ct.box_counting_dimension(coll, [F(1, 4), F(1, 8)])
    with pytest.raises(TooFewScalesError):
        ct.box_counting_dimension(coll, [F(1, 2), F(1, 4), F(1, 8)])  # span 4 < 10


def test_large_sum_cantor_acceptance_shape():
    res = ct.large_sum_cantor(3, 4, F(1, 20), (31, 127), 2)
    assert len(res.collection.boxes) == 64
    assert res.cells_per_axis == (2, 2)
    assert len(res.certificates) == 16
    assert all(c.passed for c in res.certificates)
    # the dimension identity defining the effective epsilon
    kap = float(lv.kappa(3))
    predicted = 3 * kap / 4 - 3 * res.epsilon_effective / 4
    assert abs(res.dimension_value - predicted) <= 1e-9
    assert res.epsilon_requested == 0.05


def test_large_sum_cantor_boxes_nest():
    res1 = ct.large_sum_cantor(3, 4, F(1, 20), (31,), 1)
    res2 = ct.large_sum_cantor(3, 4, F(1, 20), (31, 127), 2)
    assert audit_nesting(res1.collection, res2.collection)


def test_dimension_formula_at_depth_one_is_the_large_sum_cantor_value():
    # one level: log q_1 / -log delta_1 with q_1 = m^3 and delta_1 = 31^-4
    res = ct.large_sum_cantor(3, 4, F(1, 20), (31,), 1)
    m = res.cells_per_axis[0]
    sched = ct.geometric_schedule(3, [(m, F(1, 31**4))])
    assert ct.dimension_formula(sched, 1) == res.dimension_value == math.log(m**3) / math.log(31**4)


def test_large_sum_cantor_k1_matches_box_density_search():
    # at depth 1 the kept boxes are centered on witnesses that the density
    # check finds in the central 2/5 of each chart cell
    res = ct.large_sum_cantor(3, 4, F(1, 20), (31,), 1)
    members = set(map(tuple, lv.enumerate_Lp(cs.build_table(3, 31), gamma=1.0).tolist()))
    for cert in res.certificates:
        assert cert.anchor in members
        # anchor lattice point lies inside the cell's central window
        m = res.cells_per_axis[0]
        for coord, cell_idx in zip(cert.anchor, cert.cell):
            lo = F(cell_idx, m) + F(3, 10 * m)
            hi = F(cell_idx, m) + F(7, 10 * m)
            assert lo <= F(coord, 31) < hi


@pytest.mark.parametrize("p", [7, 31])
@pytest.mark.parametrize("lo, hi", [
    ((F(0), F(0), F(0)), (F(1), F(1), F(1))),  # the first large |T| in F_p^3 has a_3 = 0
    ((F(1, 10), F(0), F(1, 5)), (F(1, 2), F(3, 10), F(7, 10))),
    ((F(0), F(1, 3), F(0)), (F(1, 2), F(2, 3), F(1, 7))),
])
def test_first_witness_is_the_oracle_first_member(p, lo, hi):
    mags = full_table(3, p)
    thr = lv.threshold(p, 1.0)
    axes = [range(math.ceil(l * p), math.ceil(h * p)) for l, h in zip(lo, hi)]
    want = next((a for a in itertools.product(*axes) if a[-1] != 0 and mags[a] >= thr), None)
    assert ct._first_witness(cs.build_table(3, p), thr, lo, hi) == want


def test_large_sum_cantor_witness_not_found():
    with pytest.raises(WitnessNotFoundError) as exc:
        ct.large_sum_cantor(3, 4, F(1, 20), (31, 127), 2, gamma=5.0)  # above the Weil cap
    assert exc.value.level == 1


def test_large_sum_cantor_preconditions():
    with pytest.raises(PreconditionError):
        ct.large_sum_cantor(3, F(7, 2), F(1, 20), (31, 127), 2)  # tau = d + 1/2
    with pytest.raises(PreconditionError):
        ct.large_sum_cantor(2, 4, F(1, 20), (31, 127), 2)  # d < 3
    with pytest.raises(PreconditionError):
        ct.large_sum_cantor(3, F(9, 2), F(1, 20), (31, 127), 2)  # non-integer tau
    with pytest.raises(PreconditionError):
        ct.large_sum_cantor(3, 4, F(1, 20), (127, 31), 2)  # not increasing


def test_jsonl_serialization():
    res = ct.large_sum_cantor(3, 4, F(1, 20), (31,), 1)
    lines = res.collection.to_jsonl().strip().split("\n")
    assert len(lines) == len(res.collection.boxes)
    row = json.loads(lines[0])
    assert row["depth"] == 1
    assert row["side"] == "1/923521"  # 31^{-4}
    assert len(row["corner"]) == 3
    assert row["certificate"]["pass"] is True


def test_schedule_pattern_accessor():
    sched = ct.geometric_schedule(2, [(2, F(1, 4)), (4, F(1, 16))])
    spec = sched.pattern(2)
    assert spec.a == F(1, 4) and spec.b == F(1, 16) and spec.c == F(1, 64)
    assert sched.q(2) == 16
