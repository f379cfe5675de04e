"""Exponents, L_p enumeration, orbit counts and the amplification inequalities."""

import tracemalloc
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from helpers import (
    box_density_check,
    direct_complete_sum,
    full_box,
    full_table,
    lambda_orbit,
    measure_estimate_loop,
    scanned_members,
    scanned_side,
    swept_side,
)
from weylsums import complete_sums as cs
from weylsums import large_values as lv
from weylsums import phasecore
from weylsums import weyl_sums as ws
from weylsums.errors import (
    InvalidNumeratorError,
    LemmaCheckFailureError,
    PreconditionError,
    PrimeTooSmallError,
    ResourceLimitError,
    UndefinedForDegreeError,
)
from weylsums.phasecore import phase_from_rational


def test_beta_values():
    assert lv.beta(3) == Fraction(3, 2)
    assert lv.beta(4) == Fraction(4, 3)
    with pytest.raises(UndefinedForDegreeError):
        lv.beta(2)


def test_kappa_values():
    assert lv.kappa(3) == Fraction(1, 4)
    assert lv.kappa(6) == Fraction(1, 8)


def test_beta_kappa_relations_up_to_64():
    for d in range(3, 65):
        b = lv.beta(d)
        assert 1 <= b <= Fraction(3, 2) + Fraction(1, d)
        assert lv.kappa(d) * 2 * d == b
        if d % 3 == 0:
            assert b == Fraction(3, 2)
        if d >= 30:
            assert Fraction(14, 10) <= b <= Fraction(16, 10)


def test_enumerate_lp_gauss_count():
    table = cs.build_table(2, 5)
    members = lv.enumerate_Lp(table, gamma=1.0)
    assert len(members) == 20  # p(p-1): every a with a_2 != 0
    assert abs(lv.count_Lp(table, 1.0) / 5**2 - 20 / 25) < 1e-12
    assert all(a[-1] != 0 for a in members)


def test_enumerate_lp_members_reverify():
    # no stale-cache acceptance: each member re-verifies by direct summation
    members = lv.enumerate_Lp(cs.build_table(3, 7), gamma=1.0)
    assert len(members) > 0
    for a in members[:20]:
        assert abs(direct_complete_sum(3, 7, a)) >= lv.threshold(7, 1.0)


def test_enumerate_lp_orbit_closure_exhaustive():
    for d, p in [(2, 5), (2, 13), (3, 11), (3, 13)]:
        members = set(map(tuple, lv.enumerate_Lp(cs.build_table(d, p), gamma=1.0).tolist()))
        for a in members:
            for lam in range(2, p):
                assert lambda_orbit(a, lam, p) in members


def test_enumerate_lp_possibly_empty_at_large_gamma():
    table = cs.build_table(2, 5)
    members = lv.enumerate_Lp(table, gamma=2.0)  # threshold 2 sqrt(5) > sqrt(5)
    assert members.shape == (0, 2)
    assert lv.count_Lp(table, 2.0) / 5**2 == 0.0


@pytest.mark.parametrize("gamma", [0, 0.0, -1.0, float("nan")])
def test_lp_readers_refuse_gamma_at_most_zero(gamma):
    # every a_d != 0 clears a threshold <= 0, which is no large-value set
    table = cs.build_table(2, 13)
    for read in (lv.count_Lp, lv.enumerate_Lp, lv.minimal_witness_side):
        with pytest.raises(PreconditionError, match="need gamma > 0"):
            read(table, gamma)


@pytest.mark.parametrize("d, p", [(1, 5), (2, 2), (2, 13), (3, 11), (3, 31), (4, 11)])
@pytest.mark.parametrize("gamma", [1.0, 1.5])
def test_enumerate_lp_rows_and_orbit_count_match_full_table(d, p, gamma):
    # the rows the p^d table gave: argwhere over its a_d >= 1 layers, in lexicographic order
    mags = full_table(d, p)
    want = np.argwhere(mags[..., 1:] >= lv.threshold(p, gamma))
    want[:, -1] += 1
    table = cs.build_table(d, p)
    members = lv.enumerate_Lp(table, gamma=gamma)
    assert members.dtype == np.int64 and np.array_equal(members, want)
    assert lv.count_Lp(table, gamma=gamma) == len(want)
    assert lv.count_Lp(table, gamma) / p**d == len(want) / p**d


@pytest.mark.parametrize(
    "d, p, gamma",
    [(2, 1009, Fraction(21, 20)), (3, 131, Fraction(19, 10)), (3, 31, 1), (4, 13, 1), (2, 2, 1), (3, 3, 1), (1, 5, 1)],
)
def test_enumerate_lp_rows_match_the_block_scan(d, p, gamma):
    # rows from the orbit representatives against the lookup scan of all p^d entries; the rows
    # at (2, 1009, 21/20) and (1, 5, 1) are empty
    table = cs.build_table(d, p)
    members = lv.enumerate_Lp(table, float(gamma))
    want = scanned_members(table, float(gamma))
    assert members.dtype == np.int64 and members.shape == (lv.count_Lp(table, float(gamma)), d)
    assert np.array_equal(members, want)
    assert len(members) or (d, p) in ((2, 1009), (1, 5))


def test_enumerate_lp_rows_refused_past_cap():
    # (3, 31): 2 * 31^2 = 1922 stored entries, 12710 members
    table = cs.build_table(3, 31, cap=5000)
    assert lv.count_Lp(table) == 12710
    with pytest.raises(ResourceLimitError, match="L_p of 12710 members exceeds the cap of 5000"):
        lv.enumerate_Lp(table, cap=5000)
    assert len(lv.enumerate_Lp(table, cap=12710)) == 12710


@pytest.mark.parametrize("d, p", [(1, 5), (2, 13), (3, 31), (4, 11)])
def test_readers_agree_on_a_reloaded_table(d, p, tmp_path):
    # d and p of the reloaded table come only from its WSLT header
    fresh = cs.build_table(d, p)
    loaded = cs.load_table(cs.save_table(fresh, tmp_path / "t.wslt"))
    assert (loaded.d, loaded.p) == (d, p)
    box = cs.DiscreteBox(starts=(p - 2,) * d, side=3)  # wraps past p
    for gamma in (1.0, 1.5):
        assert lv.count_Lp(loaded, gamma) == lv.count_Lp(fresh, gamma)
        assert np.array_equal(lv.enumerate_Lp(loaded, gamma), lv.enumerate_Lp(fresh, gamma))
        # the d < 3 reference side and ratio are None
        assert lv.minimal_witness_side(loaded, gamma) == lv.minimal_witness_side(fresh, gamma)
    for nu in range(1, d + 1):
        assert cs.mordell_moment(loaded, nu) == cs.mordell_moment(fresh, nu)
        assert cs.box_moment(loaded, nu, box) == cs.box_moment(fresh, nu, box)


def test_find_anchor_seeded():
    a = lv.find_anchor(3, 4099, seed=12345)
    assert a[-1] != 0
    assert abs(direct_complete_sum(3, 4099, a)) >= lv.threshold(4099, 1.0)
    assert lv.find_anchor(3, 4099, seed=12345) == a  # reproducible


def test_orbit_in_box_full_cube():
    p = 13
    rep = lv.orbit_in_box_count((1, 1), p, full_box(2, p))
    assert rep.count == p - 1


def test_orbit_in_box_k1_bijection():
    # k=1, interval {1..L}: lambda -> a lambda is a bijection on F_p^*
    p, L = 31, 10
    rep = lv.orbit_in_box_count((7,), p, cs.DiscreteBox(starts=(0,), side=L))
    assert rep.count == L


def test_orbit_in_box_quadratic_example():
    rep = lv.orbit_in_box_count((1, 1), 101, cs.DiscreteBox(starts=(0, 0), side=60))
    assert rep.count == 33  # frozen by exhaustive enumeration
    assert rep.count >= 0.5 * 60**2 / 101
    assert rep.passed


def test_orbit_in_box_zero_prefix_rejected():
    with pytest.raises(PreconditionError):
        lv.orbit_in_box_count((1, 0), 11, cs.DiscreteBox(starts=(0, 0), side=5))


def test_orbit_counts_partition_to_p_minus_1():
    # boxes partitioning the residue axis must split the p-1 orbit points exactly
    p = 11
    count = 0
    for start, side in [(p - 1, 5), (4, 6)]:  # values {0..4} and {5..10}
        rep = lv.orbit_in_box_count((2,), p, cs.DiscreteBox(starts=(start,), side=side))
        count += rep.count
    assert count == p - 1
    # the p^2 unit cubes partition F_p^2; the orbit has p-1 distinct points
    count2 = sum(
        lv.orbit_in_box_count(
            (2, 3), p, cs.DiscreteBox(starts=((v0 - 1) % p, (v1 - 1) % p), side=1)
        ).count
        for v0 in range(p)
        for v1 in range(p)
    )
    assert count2 == p - 1


def test_box_density_check_full_cube():
    members = lv.enumerate_Lp(cs.build_table(3, 31), gamma=1.0)
    w = box_density_check(members, 31, full_box(3, 31))
    assert w is not None and w in set(map(tuple, members.tolist()))
    assert w == tuple(members[0])  # lexicographically first member


def test_box_density_check_single_miss():
    members = lv.enumerate_Lp(cs.build_table(2, 5), gamma=1.0)
    # (1, 0) has a_2 = 0, never a member; the single-vector box must miss
    assert box_density_check(members, 5, cs.DiscreteBox(starts=(0, 4), side=1)) is None


def test_minimal_witness_side_reports():
    sweep = lv.minimal_witness_side(cs.build_table(3, 31), gamma=1.0)
    assert sweep["minimal_side"] is not None
    assert 1 <= sweep["minimal_side"] <= 31
    assert sweep["ratio"] > 0


@pytest.mark.parametrize(
    "d, p, gamma",
    [(3, 31, 1), (3, 37, 1.5), (2, 31, 1), (3, 31, 5), (1, 7, 1), (4, 11, 1), (4, 29, 2.4), (3, 211, 1.9)],
)
def test_minimal_witness_side_matches_box_sweep(d, p, gamma):
    # the scan of {1..p-1}^d against the row-based oracle over the listed members;
    # (4, 29) scans 2 values of a_1 per block and (3, 211) one: their best sides
    # per block are 9, 10, 8, 10, 9, ... and 10, 12, 5, 5, ...
    table = cs.build_table(d, p)
    swept = swept_side(lv.enumerate_Lp(table, gamma=gamma), p)
    assert lv.minimal_witness_side(table, gamma=gamma)["minimal_side"] == swept
    assert lv.minimal_witness_side(cs.build_table(d, p), gamma=gamma)["minimal_side"] == swept
    # L_p is empty for gamma=5 at (3, 31), and at d = 1, where T(a) = 0 for every a != 0
    assert (swept is None) == (gamma == 5 or d == 1) == (lv.count_Lp(table, gamma) == 0)


@pytest.mark.parametrize("gamma", [1.0, 1.5])
@pytest.mark.parametrize("d, p", [(3, 31), (3, 47), (3, 59), (4, 11)])
def test_minimal_witness_side_matches_the_a1_scan(d, p, gamma):
    # nested boxes {1..L}^d for L = 1, 2, 4, ... against the scan of {1..p-1}^d upward in a_1
    table = cs.build_table(d, p)
    assert lv.minimal_witness_side(table, gamma)["minimal_side"] == scanned_side(table, gamma)


def test_minimal_witness_side_p_and_none_match_the_a1_scan():
    slices = np.zeros((2, 5))
    slices[0, 3] = 10.0  # L_p = {(0, 3)}, in no {1..L}^2: side p
    table = cs.CompleteSumTable(d=2, p=5, slices=slices)
    assert lv.minimal_witness_side(table)["minimal_side"] == scanned_side(table, 1.0) == 5
    table = cs.build_table(3, 31)  # L_p is empty for gamma = 5
    assert lv.minimal_witness_side(table, 5.0)["minimal_side"] is scanned_side(table, 5.0) is None


def test_minimal_witness_side_zero_coordinate_members_only():
    # a hand-built (2, 5) table whose only large entry is |T(0, 3)|: L_p = {(0, 3)},
    # in no {1..L}^2, so only the side-p box (all of F_p^2) meets it
    slices = np.zeros((2, 5))
    slices[0, 3] = 10.0
    table = cs.CompleteSumTable(d=2, p=5, slices=slices)
    members = lv.enumerate_Lp(table)
    assert members.tolist() == [[0, 3]]
    assert lv.minimal_witness_side(table)["minimal_side"] == swept_side(members, 5) == 5


def test_minimal_witness_side_scans_on_to_the_best_side():
    # a hand-built (2, 65537) table, one value of a_1 per block: the orbits of
    # b = 4 and b = 1/3 in the a_1 = 1 slice hold (1, 4), (2, 16), (3, 3), ...,
    # so the best side per a_1 = 1, 2, 3 is 4, 16, 3, and the scan must read
    # a_1 = 3 after the best side 4 of a_1 = 1
    p = 65537
    slices = np.zeros((2, p))
    slices[1, [4, pow(3, -1, p)]] = 1000.0
    table = cs.CompleteSumTable(d=2, p=p, slices=slices)
    lam = np.arange(1, p, dtype=np.int64)
    sides = [np.maximum(lam, lam * lam % p * b % p).min() for b in (4, pow(3, -1, p))]
    assert min(sides) == 3
    assert lv.minimal_witness_side(table)["minimal_side"] == 3


def test_amplification_plan_examples():
    plan = lv.amplification_plan(101, 5, 2, anchor=(0, 1))
    assert plan.N == 8080  # 101 * floor(0.25 * 101^{5/4})
    plan = lv.amplification_plan(257, 3, 2, anchor=(0, 1))
    assert plan.N == 257  # boundary: floor = 1
    with pytest.raises(PreconditionError):
        lv.amplification_plan(101, Fraction(5, 2), 2)  # tau = d + 1/2
    with pytest.raises(PrimeTooSmallError):
        lv.amplification_plan(251, 3, 2, anchor=(0, 1))


def test_plan_trial_count_exact_boundary():
    # p = 4^{2d/(2tau-1-2d)} is the feasibility edge: 255 fails, 256 passes for d=2, tau=3
    assert lv.plan_trial_count(251, Fraction(3), 2, Fraction(1)) == 0
    assert lv.plan_trial_count(257, Fraction(3), 2, Fraction(1)) == 1


def test_amplified_check_at_anchor():
    plan = lv.amplification_plan(257, 3, 2, anchor=(0, 1))
    x = tuple(phase_from_rational(ai, 257) for ai in plan.anchor)
    rep = lv.amplified_sum_check(plan, x)
    assert rep.passed
    assert abs(rep.value - sqrt(257)) < 1e-6  # |S| = |T| = sqrt(p) at the anchor
    assert rep.bound == 0.25 * plan.N / sqrt(257)


def test_amplified_check_all_axis_directions():
    plan = lv.amplification_plan(257, 3, 2, seed=1)
    for axis in range(2):
        for sign in (1, -1):
            rep = lv.amplified_sum_check(plan, lv.neighborhood_point(plan, axis, sign))
            assert rep.passed


def test_amplified_check_outside_neighborhood():
    plan = lv.amplification_plan(257, 3, 2, anchor=(0, 1))
    x = lv.neighborhood_point(plan, 0, 1, scale=Fraction(2))  # 2 p^{-tau}: outside
    with pytest.raises(PreconditionError):
        lv.amplified_sum_check(plan, x)


def test_iroot_exhaustive_and_large():
    for k in range(1, 7):
        r = 0
        for n in range(10**4 + 1):
            while (r + 1) ** k <= n:
                r += 1
            assert lv._iroot(n, k) == r, (n, k)
    rng = np.random.default_rng(12)
    for k in (2, 3, 5, 7, 64):
        for _ in range(5):
            n = int.from_bytes(rng.bytes(50), "big") | 1 << 399  # a 400-bit n
            r = lv._iroot(n, k)
            assert r**k <= n < (r + 1) ** k
        n = (3**200 + 1) ** k
        assert lv._iroot(n, k) == 3**200 + 1 and lv._iroot(n - 1, k) == 3**200


def test_iroot_of_random_n_up_to_4096_bits_and_degree_up_to_10_4():
    # the float start must stay above the root at every size, and Newton from it must land on the floor
    rng = np.random.default_rng(34)
    for _ in range(300):
        bits = int(rng.integers(1, 4097))
        n = int.from_bytes(rng.bytes(bits // 8 + 1), "big") >> (8 - bits % 8) | 1 << (bits - 1)
        k = int(rng.choice([1, 2, 3, 7, 64, 1000, 10**4, int(rng.integers(1, 10**4 + 1))]))
        r = lv._iroot(n, k)
        assert r**k <= n < (r + 1) ** k, (bits, k)
    for k in (10**4, 9973):  # perfect powers and their neighbours at high degree
        for root in (2, 3, 1000003):
            n = root**k
            assert lv._iroot(n, k) == root and lv._iroot(n - 1, k) == root - 1 and lv._iroot(n + 1, k) == root


def test_radius_units_is_sharp():
    for p, tau in [(7, Fraction(3)), (101, Fraction(7, 2)), (4099, Fraction(4))]:
        r = lv.radius_units(p, tau)
        assert lv.within_radius(r, 0, p, p, tau)
        assert not lv.within_radius(r + 1, 0, p, p, tau)
    with pytest.raises(PreconditionError):
        lv.radius_units(7, Fraction(-1, 2))


def test_monomial_amplified_check_exact_point():
    # x = a/p^d exactly, N = p^d: |sigma| = p^{d-1} = N/p >= 0.5 N/p
    x = phase_from_rational(1, 25)
    rep = lv.monomial_amplified_check(1, 5, 2, 12, x=x)
    assert rep.passed
    assert abs(rep.value - 5.0) < 1e-6


def test_monomial_amplified_check_defaults():
    assert lv.monomial_amplified_check(1, 5, 2, 12).passed
    assert lv.monomial_amplified_check(1, 3, 3, 16).passed


def test_monomial_amplified_check_errors():
    with pytest.raises(InvalidNumeratorError):
        lv.monomial_amplified_check(5, 5, 2, 12)
    with pytest.raises(PrimeTooSmallError):
        lv.monomial_amplified_check(1, 5, 2, 3)  # range empty at tau = 3


def test_measure_estimate_i1_exact():
    rep = lv.measure_estimate(2, 0.4, 1, 1000, seed=0)
    assert rep.estimate == 1.0  # |S(x;1)| = 1 >= 1^alpha always
    assert rep.half_width == 0.0


def test_measure_estimate_reported_fields():
    rep = lv.measure_estimate(2, 0.4, 16, 2000, seed=9)
    assert 0.0 < rep.estimate < 1.0
    assert rep.half_width > 0
    assert rep.threshold == 16.0**0.4
    assert rep.inverse_i_ratio == rep.estimate * 16
    again = lv.measure_estimate(2, 0.4, 16, 2000, seed=9)
    assert again.estimate == rep.estimate  # counter-based RNG, same seed


def test_measure_estimate_small_alpha_near_one():
    # threshold i^alpha -> 1 as alpha -> 0; nearly every x has |S(x;i)| >= 1
    rep = lv.measure_estimate(2, 0.01, 16, 4000, seed=3)
    assert rep.estimate >= 0.85


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("i", [1, 4, 64, 300])
def test_measure_estimate_batches_match_per_point_loop(d, i):
    # i = 300: 1000 points of 300 terms span five blocks of 218 rows
    rep = lv.measure_estimate(d, 0.4, i, 1000, seed=23 + i)
    assert rep.estimate == measure_estimate_loop(d, 0.4, i, 1000, seed=23 + i)


def test_measure_estimate_trivial_bound_checked_per_row(monkeypatch):
    def last_row_doubled(words, q, work):
        terms = phasecore.unit_terms(words, q, work)
        c, s = terms
        c[-1], s[-1] = 2.0, 0.0  # |S| = 2i on the block's last row only
        return terms

    monkeypatch.setattr(ws, "unit_terms", last_row_doubled)
    with pytest.raises(LemmaCheckFailureError, match="trivial bound"):
        lv.measure_estimate(2, 0.4, 16, 1000, seed=1)


def test_measure_estimate_memory_bounded_by_block():
    # blocks of 2^16 / 64 = 1024 points: a few 2^16-element float64 arrays
    # (512 KiB each) are live at once, where one unblocked array of the
    # 10^5 * 64 terms would take 49 MiB
    tracemalloc.start()
    try:
        lv.measure_estimate(2, 0.4, 64, 10**5, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_measure_estimate_preconditions():
    with pytest.raises(PreconditionError):
        lv.measure_estimate(2, 0.4, 16, 100)
    with pytest.raises(PreconditionError):
        lv.measure_estimate(2, 0.7, 16, 2000)


def test_check_report_json_shape():
    plan = lv.amplification_plan(257, 3, 2, anchor=(0, 1))
    x = tuple(phase_from_rational(ai, 257) for ai in plan.anchor)
    d = lv.amplified_sum_check(plan, x).to_json_dict()
    assert set(d) == {"lemma", "params", "value", "bound", "pass"}
    assert d["pass"] is True
