"""Pattern geometry, schedules, dimension estimators and the certified construction."""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    audit_nesting,
    box_contains,
    fraction_cantor,
    fraction_grid_count,
    fraction_pattern,
    full_table,
    level_boxes,
)
from weylsums import cantor as ct
from weylsums import complete_sums as cs
from weylsums import large_values as lv
from weylsums.errors import (
    InvalidPatternError,
    InvalidScheduleError,
    PreconditionError,
    ResourceLimitError,
    TooFewScalesError,
    WitnessNotFoundError,
)

F = Fraction


def test_pattern_corner_count():
    spec = ct.PatternSpec(a=F(1), b=F(1, 3), c=F(1, 10), rule="corner")
    boxes = level_boxes(ct.make_pattern(spec, 2))
    assert len(boxes) == 9
    assert all(side == F(1, 10) for _, side in boxes)
    assert boxes[0][0] == (F(0), F(0))


def test_pattern_centered():
    spec = ct.PatternSpec(a=F(1), b=F(1, 2), c=F(1, 8), rule="centered")
    boxes = level_boxes(ct.make_pattern(spec, 2))
    assert len(boxes) == 4
    # each box centered in its half-cell: corner = cell + (1/2 - 1/8)/2
    off = (F(1, 2) - F(1, 8)) / 2
    assert boxes[0][0] == (off, off)
    assert boxes[-1][0] == (F(1, 2) + off, F(1, 2) + off)


def test_pattern_invalid_ratio():
    with pytest.raises(InvalidPatternError):
        ct.PatternSpec(a=F(1), b=F(3, 10), c=F(1, 100))  # a/b = 10/3


def test_pattern_invalid_order():
    with pytest.raises(InvalidPatternError):
        ct.PatternSpec(a=F(1, 4), b=F(1, 2), c=F(1, 8))


def test_pattern_seeded_random_deterministic_and_contained():
    spec = ct.PatternSpec(a=F(1), b=F(1, 4), c=F(1, 64), rule="seeded-random", seed=9)
    b1 = level_boxes(ct.make_pattern(spec, 2))
    b2 = level_boxes(ct.make_pattern(spec, 2))
    assert b1 == b2
    cells = level_boxes(ct.make_pattern(ct.PatternSpec(a=F(1), b=F(1, 4), c=F(1, 4) - F(1, 10**9), rule="corner"), 2))
    for sub_corner, sub_side in b1:
        assert any(
            all(cc <= sc and sc + sub_side <= cc + F(1, 4) for cc, sc in zip(cell_corner, sub_corner))
            for cell_corner, _ in cells
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
    assert len(coll) == 64
    assert all(side == F(1, 64) for _, side in level_boxes(coll))
    assert sched.q(1) == 4


def test_build_cantor_depth0_unit_cube():
    sched = ct.geometric_schedule(2, [(2, F(1, 4))])
    coll = ct.build_cantor(sched, 0)
    assert level_boxes(coll) == [((F(0), F(0)), F(1))]


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
    assert w * len(coll) == 1


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


def _unit_cube(d):
    return ct.BoxCollection(depth=0, corners=np.zeros((1, d), dtype=object), side=1, denom=1)


def test_box_counting_full_cube():
    coll = _unit_cube(2)
    dim = ct.box_counting_dimension(coll, [F(1, 4), F(1, 16), F(1, 64), F(1, 256)])
    assert abs(dim - 2.0) <= 0.05


def test_box_counting_single_point():
    # the point (1/3, 2/7) = (7/21, 6/21): a box of side 0
    coll = ct.BoxCollection(depth=0, corners=np.array([[7, 6]], dtype=object), side=0, denom=21)
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
    coll = _unit_cube(2)
    with pytest.raises(TooFewScalesError):
        ct.box_counting_dimension(coll, [F(1, 4), F(1, 8)])
    with pytest.raises(TooFewScalesError):
        ct.box_counting_dimension(coll, [F(1, 2), F(1, 4), F(1, 8)])  # span 4 < 10


def test_large_sum_cantor_acceptance_shape():
    res = ct.large_sum_cantor(3, 4, F(1, 20), (31, 127), 2)
    assert len(res.collection) == 64
    assert res.cells_per_axis == (2, 2)
    assert len(res.certificates) == 16
    assert all(c.passed for c in res.certificates)
    # the dimension identity defining the effective epsilon
    kap = float(lv.kappa(3))
    predicted = 3 * kap / 4 - 3 * res.epsilon_effective / 4
    assert abs(res.dimension_value - predicted) <= 1e-9
    assert res.epsilon_requested == 0.05


def test_large_sum_cantor_serializes_each_certificate_once(monkeypatch):
    calls = []
    to_json_dict = ct.LevelCertificate.to_json_dict
    monkeypatch.setattr(ct.LevelCertificate, "to_json_dict", lambda cert: calls.append(cert) or to_json_dict(cert))
    res = ct.large_sum_cantor(3, 4, F(1, 20), (31, 127), 2)
    assert calls == list(res.certificates)
    # the 64 box rows: the 8 level-2 certificates, in cell order, under each of the 8 parent boxes
    last = [to_json_dict(c) for c in res.certificates[8:]]
    assert list(res.collection.certificates) == last * 8
    assert last[0] == {"level": 2, "p": 127, "cell": res.certificates[8].cell, "anchor": res.certificates[8].anchor,
                       "N": res.certificates[8].N, "value": res.certificates[8].value,
                       "bound": res.certificates[8].bound, "pass": True}


def test_box_rows_are_the_json_dumps_of_each_row():
    res = ct.large_sum_cantor(3, 4, F(1, 20), (31, 127), 2)
    coll = res.collection
    # rows without a certificate, and with shared, distinct and missing ones
    plain = ct.BoxCollection(coll.depth, coll.corners, coll.side, coll.denom)
    first = {"level": 1, "note": "a \"quoted\" value, \u00e9", "nested": {"b": [1, 2.5], "a": None}}
    mixed = replace(coll, certificates=(first, None, dict(first)) + coll.certificates[3:])
    for boxes in (coll, plain, mixed):
        want = []
        for row, cert in zip(boxes.corners.tolist(), boxes.certificates or (None,) * len(boxes)):
            reduced = [F(n, boxes.denom) for n in (*row, boxes.side)]
            reduced = [f"{r.numerator}/{r.denominator}" for r in reduced]
            entry = {"depth": boxes.depth, "corner": reduced[:-1], "side": reduced[-1]}
            if cert is not None:
                entry["certificate"] = cert
            want.append(json.dumps(entry, sort_keys=True))
        assert boxes.to_jsonl().splitlines() == want


def test_large_sum_cantor_boxes_nest():
    res1 = ct.large_sum_cantor(3, 4, F(1, 20), (31,), 1)
    res2 = ct.large_sum_cantor(3, 4, F(1, 20), (31, 127), 2)
    assert audit_nesting(res1.collection, res2.collection)
    # the Fraction chart composition: each level-2 sub-box, centered on a/127 in the chart of its parent
    charts = [tuple(F(a, 127) - F(1, 2 * 127**4) for a in c.anchor) for c in res2.certificates[8:]]
    want = [(tuple(pc + side * cc for pc, cc in zip(corner, chart)), side * F(1, 127**4))
            for corner, side in level_boxes(res1.collection) for chart in charts]
    assert level_boxes(res2.collection) == want


_SCHEDULES = [[(2, F(1, 5)), (3, F(2, 7)), (2, F(1, 3))], [(3, F(1, 4)), (2, F(3, 7))]]


@pytest.mark.parametrize("rule", ["corner", "centered", "seeded-random"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("ratios", _SCHEDULES)
def test_levels_and_grid_counts_equal_the_fraction_reference(ratios, d, rule):
    sched = ct.geometric_schedule(d, ratios)
    for depth in range(len(ratios) + 1):
        level = ct.build_cantor(sched, depth, rule=rule, seed=11)
        boxes = fraction_cantor(sched, depth, rule=rule, seed=11)
        assert level.depth == depth and level_boxes(level) == boxes
        for eps in (F(1, 3), F(2, 37), F(1, 45)):
            assert ct._grid_count(level, eps) == fraction_grid_count(boxes, eps)
    if rule == "seeded-random":
        assert level.denom > 1 << 63  # a factor 2^32 per level, carried in Python ints


@pytest.mark.parametrize("rule", ["corner", "centered", "seeded-random"])
def test_make_pattern_equals_the_fraction_pattern_in_a_side_a_box(rule):
    # a pattern in the chart of the unit cube, scaled into a side-a box, is the pattern drawn in that box
    spec = ct.PatternSpec(a=F(2, 9), b=F(2, 27), c=F(1, 50), rule=rule, seed=4)
    chart = ct.make_pattern(spec, 2)
    box = ((F(1, 3), F(5, 9)), F(2, 9))
    want = fraction_pattern(box, spec)
    assert [(tuple(c + box[1] * o for c, o in zip(box[0], corner)), box[1] * side)
            for corner, side in level_boxes(chart)] == want


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_batched_philox_draw_equals_the_per_cell_draw(d):
    # make_pattern draws all cells' words at once; the earlier per-cell loop drew d words per cell
    for cells in range(1, 65):
        per_cell = np.random.Generator(np.random.Philox(key=cells))
        want = [per_cell.integers(0, 1 << 32, size=d) for _ in range(cells)]
        got = np.random.Generator(np.random.Philox(key=cells)).integers(0, 1 << 32, size=(cells, d))
        assert np.array_equal(got, np.array(want))


def test_box_count_is_refused_before_the_first_level(monkeypatch):
    boxes = "{} boxes of 2 corner coordinates exceed the cap of {}"
    assert ct._check_size(boxes, ct.DEFAULT_CAP // 2, factor=2) is None
    with pytest.raises(ResourceLimitError):
        ct._check_size(boxes, ct.DEFAULT_CAP // 2 + 1, factor=2)
    with pytest.raises(ResourceLimitError):
        ct.make_pattern(ct.PatternSpec(a=F(1), b=F(1, 3000), c=F(1, 10**5)), 2)

    def no_level(*args, **kwargs):
        raise AssertionError("a level was built for a box count that is refused")

    monkeypatch.setattr(ct, "make_pattern", no_level)
    # 150^4 boxes at depth 2
    with pytest.raises(ResourceLimitError, match="exceed the cap"):
        ct.build_cantor(ct.geometric_schedule(2, [(150, F(1, 300))] * 2), 2)


def test_box_count_at_grid_scales_counts_every_scale():
    # cantor-dim reads every box's corner at each of its depth + 1 scales: 2^18 boxes at 19 scales pass
    # the cap of 10^7, 2^19 at 20 do not, nor 2^20 at 21
    def boxes(e):
        return f"{{}} boxes of 1 corner coordinates at {e + 1} grid scales exceed the cap of {{}}"

    assert ct._check_size(boxes(18), 2, 18, factor=19) is None
    for e in (19, 20):
        with pytest.raises(ResourceLimitError, match=f"2\\^{e} boxes of 1 corner coordinates at {e + 1} grid scales"):
            ct._check_size(boxes(e), 2, e, factor=e + 1)


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
    # and each kept sub-box, centered on its anchor, lies inside its cell
    for (corner, side), cert in zip(level_boxes(res.collection), res.certificates):
        assert corner == tuple(F(a, 31) - side / 2 for a in cert.anchor)
        assert box_contains((tuple(F(i, m) for i in cert.cell), F(1, m)), (corner, side))


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
    assert ct._first_witness(cs.build_table(3, p), thr, axes) == want


def test_large_sum_cantor_witness_not_found():
    with pytest.raises(WitnessNotFoundError) as exc:
        ct.large_sum_cantor(3, 4, F(1, 20), (31, 127), 2, gamma=5.0)  # above the Weil cap
    assert exc.value.level == 1


@pytest.mark.parametrize("gamma", [0.0, -1.0])
def test_large_sum_cantor_refuses_gamma_before_any_table(gamma, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built for a gamma that is refused")

    monkeypatch.setattr(ct, "build_table", no_table)
    with pytest.raises(PreconditionError, match="need gamma > 0"):
        ct.large_sum_cantor(3, 4, F(1, 20), (31, 127), 2, gamma=gamma)


@pytest.mark.parametrize("epsilon", [F(1, 10001), F(1, 10000019), 1 / 1000003])
def test_large_sum_cantor_refuses_a_fine_epsilon_before_any_table(epsilon, monkeypatch):
    # floor(p^(kappa_d - eps)) is an integer root whose work grows with the exponent's denominator
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built for an epsilon that is refused")

    monkeypatch.setattr(ct, "build_table", no_table)
    with pytest.raises(PreconditionError, match="denominator at most 10000"):
        ct.large_sum_cantor(3, 4, epsilon, (31,), 1)


def test_large_sum_cantor_takes_an_exponent_denominator_at_the_bound():
    # kappa_3 - 1/10000 = 2499/10000
    res = ct.large_sum_cantor(3, 4, F(1, 10000), (31,), 1)
    assert res.cells_per_axis == (2,) and len(res.collection) == 8


def test_large_sum_cantor_preconditions():
    with pytest.raises(PreconditionError):
        ct.large_sum_cantor(3, F(7, 2), F(1, 20), (31, 127), 2)  # tau = d + 1/2
    with pytest.raises(PreconditionError):
        ct.large_sum_cantor(2, 4, F(1, 20), (31, 127), 2)  # d < 3
    with pytest.raises(PreconditionError):
        ct.large_sum_cantor(3, F(9, 2), F(1, 20), (31, 127), 2)  # non-integer tau
    with pytest.raises(PreconditionError):
        ct.large_sum_cantor(3, 4, F(1, 20), (127, 31), 2)  # not increasing


def test_large_sum_cantor_sub_box_margin_is_exact(monkeypatch):
    # at p = 5, tau = 4 the kept sub-box fits its cell's 3/(10m) margin exactly when 5m <= 3 * 5^4
    monkeypatch.setattr(ct, "_iroot", lambda n, k: 376)
    with pytest.raises(PreconditionError, match="margin"):
        ct.large_sum_cantor(3, 4, F(1, 20), (5,), 1)
    # m = 375 passes; cell (0, 0, 0) then holds no lattice point a/5 in [3/3750, 7/3750)
    monkeypatch.setattr(ct, "_iroot", lambda n, k: 375)
    with pytest.raises(WitnessNotFoundError):
        ct.large_sum_cantor(3, 4, F(1, 20), (5,), 1)


def test_jsonl_serialization():
    res = ct.large_sum_cantor(3, 4, F(1, 20), (31,), 1)
    lines = res.collection.to_jsonl().strip().split("\n")
    assert len(lines) == len(res.collection)
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
