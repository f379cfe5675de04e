"""Complete-sum identities, moments, tables and the cache format."""

import hashlib
import os
import struct
import tracemalloc
from math import comb, sqrt
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    box_moment_fsum,
    direct_complete_sum,
    full_box,
    full_table,
    orbit_multiplicities,
    unit_root_fsum,
)
from weylsums import complete_sums as cs
from weylsums.errors import (
    BinomialVanishingError,
    ChecksumMismatchError,
    InvalidFieldError,
    InvalidNumeratorError,
    InvalidScalarError,
    NotAPermutationError,
    PreconditionError,
    ResourceLimitError,
)


def test_complete_sum_gauss_example():
    assert abs(abs(cs.complete_sum(2, 5, (0, 1))) - sqrt(5)) < 1e-9


def test_complete_sum_zero_vector_gives_p():
    for d, p in [(1, 5), (2, 7), (3, 11)]:
        assert abs(cs.complete_sum(d, p, (0,) * d) - p) < 1e-9


def test_complete_sum_vanishing_example():
    assert abs(cs.complete_sum(3, 5, (3, 3, 1))) < 1e-9


def test_complete_sum_rejects_composite():
    with pytest.raises(InvalidFieldError):
        cs.complete_sum(2, 9, (1, 1))


def test_complete_sum_rejects_int64_overflow_before_allocating():
    # p^2 >= 2^62 would overflow the int64 residue path
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int64"):
            cs.complete_sum(2, 2147483659, (1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "a, q, exponents",
    [
        ((1,), 1, (1,)),
        ((1,), 2, (1,)),
        ((2, 1), 3, (1, 2)),
        # 2^j - 1, 2^j, 2^j + 1: the split k = ceil(bitlen(q) / 2) moves at 2^j for even j
        *[((3, 5, 7), q, (1, 2, 3)) for j in (4, 5, 12) for q in (2**j - 1, 2**j, 2**j + 1)],
        ((5, 7), 65537, (2, 5)),  # two chunks
        ((2,), 7**3, (3,)),  # composite moduli p^d
        ((4, 9), 11**2, (2, 5)),
        ((1, 2, 3), 5**4, (1, 2, 3)),
    ],
)
def test_unit_root_sum_matches_fsum_oracle(a, q, exponents):
    got = cs._unit_root_sum(a, q, exponents)
    want = unit_root_fsum(a, q, exponents)
    assert abs(got.real - want.real) <= q * 2**-48
    assert abs(got.imag - want.imag) <= q * 2**-48


def test_is_prime():
    assert [n for n in range(2, 30) if cs.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert cs.is_prime(4099) and cs.is_prime(2**31 - 1)
    assert not cs.is_prime(4097) and not cs.is_prime(1)


def test_table_matches_direct_sums():
    table = cs.build_table(2, 7)
    for a in [(0, 0), (1, 0), (3, 5), (6, 6), (2, 1)]:
        assert abs(float(table.lookup(a)) - abs(direct_complete_sum(2, 7, a))) < 1e-9
    t3 = cs.build_table(3, 5)
    for a in [(0, 0, 0), (3, 3, 1), (1, 2, 3), (4, 0, 2)]:
        assert abs(float(t3.lookup(a)) - abs(direct_complete_sum(3, 5, a))) < 1e-9


def test_table_zero_entry_exact():
    assert float(cs.build_table(2, 11).lookup((0, 0))) == 11.0


def test_gauss_magnitude_check():
    for p in (3, 13):
        rep = cs.gauss_magnitude_check(p)
        assert rep.passed and rep.max_deviation <= 1e-9 * sqrt(p)
    with pytest.raises(PreconditionError):
        cs.gauss_magnitude_check(2)


def test_monomial_complete_sum():
    assert abs(cs.monomial_complete_sum(2, 3, 1) - 3) < 1e-6 * 3
    assert abs(cs.monomial_complete_sum(3, 2, 1) - 4) < 1e-6 * 4
    assert abs(cs.monomial_complete_sum(3, 43, 5) - 43**2) < 1e-9 * 43**2  # two chunks
    with pytest.raises(InvalidNumeratorError):
        cs.monomial_complete_sum(2, 3, 3)
    for d in (1, 0, -1):
        with pytest.raises(PreconditionError):
            cs.monomial_complete_sum(d, 5, 1)


def test_weil_check():
    rep = cs.weil_check([0, 1], 7)  # f = X: full character sum
    assert rep.value < 1e-9 and rep.bound == 0.0
    rep = cs.weil_check([0, 0, 1], 5)  # f = X^2: Gauss equality
    assert abs(rep.value - sqrt(5)) < 1e-9 and abs(rep.bound - sqrt(5)) < 1e-12
    rep = cs.weil_check([3, 0, 1], 5)  # a constant term only rotates the sum
    assert abs(rep.value - sqrt(5)) < 1e-9
    rep = cs.weil_check([0, 1, 0, 1], 7)  # f = X^3 + X
    assert rep.value <= 2 * sqrt(7) + 1e-9
    rep = cs.weil_check([0, 1], 10000019)  # T = 0; rounding alone reads ~1e-9 at this p
    assert rep.passed and rep.bound == 0.0 and rep.value <= 10000019 * 2**-40
    with pytest.raises(PreconditionError):
        cs.weil_check([3], 7)
    with pytest.raises(PreconditionError):
        cs.weil_check([0, 7], 7)  # reduces to a constant mod 7


def test_lambda_orbit():
    assert cs.lambda_orbit((1, 1), 1, 5) == (1, 1)
    assert cs.lambda_orbit((1, 1), 2, 5) == (2, 4)
    m1 = abs(cs.complete_sum(2, 5, (1, 1)))
    m2 = abs(cs.complete_sum(2, 5, (2, 4)))
    assert abs(m1 - m2) < 1e-9 * 5
    assert cs.lambda_orbit((0, 0, 0), 3, 7) == (0, 0, 0)
    # Python ints stay exact past int64: 2^80 = 2^19 mod 2^61 - 1
    assert cs.lambda_orbit((1, 1), 2**40, 2**61 - 1) == (2**40, 2**19)
    with pytest.raises(InvalidScalarError):
        cs.lambda_orbit((1, 1), 0, 5)


def test_vanishing_family():
    fam = cs.vanishing_family(3, 5)
    assert len(fam) == 4
    assert (3, 3, 1) in fam
    with pytest.raises(NotAPermutationError):
        cs.vanishing_family(3, 7)
    with pytest.raises(BinomialVanishingError):
        cs.vanishing_family(3, 3)


def test_vanishing_family_p11():
    fam = cs.vanishing_family(3, 11)
    assert fam == [tuple(comb(3, j) * lam**j % 11 for j in (1, 2, 3)) for lam in range(1, 11)]


def test_mordell_moments_p3():
    table = cs.build_table(2, 3)
    m2 = cs.mordell_moment(table, 2, include_zero=True)
    assert abs(m2 - 135) < 1e-6 * 135
    m1 = cs.mordell_moment(table, 1, include_zero=True)
    assert abs(m1 - 27) < 1e-6 * 27
    m2x = cs.mordell_moment(table, 2, include_zero=False)
    assert abs(m2x - 54) < 1e-6 * 54
    with pytest.raises(PreconditionError):
        cs.mordell_moment(table, 3)


def test_parseval_identity():
    for d, p in [(1, 13), (2, 13), (3, 13), (2, 7), (3, 5)]:
        m1 = cs.mordell_moment(cs.build_table(d, p), 1, include_zero=True)
        assert abs(m1 - float(p) ** (d + 1)) < 1e-6 * float(p) ** (d + 1)


def test_degree2_fourth_moment_closed_form():
    for p in (3, 5, 7, 11, 13):
        m2 = cs.mordell_moment(cs.build_table(2, p), 2, include_zero=True)
        expected = 2.0 * p**4 - p**3
        assert abs(m2 - expected) < 1e-6 * expected


def test_weil_layer_bound_in_tables():
    for d, p in [(2, 13), (3, 11)]:
        table = cs.build_table(d, p)
        top = table.lookup(np.ix_(*[np.arange(p)] * (d - 1), np.arange(1, p)))  # the a_d != 0 layers
        assert top.size == p ** (d - 1) * (p - 1)
        assert float(top.max()) <= (d - 1) * sqrt(p) + 1e-9


def test_orbit_invariance_exhaustive():
    for d, p in [(2, 5), (2, 13), (3, 11), (3, 13)]:
        # the invariance the orbit slices rest on, in the full-table oracle,
        # and lookup agreeing with it on every orbit image
        mags = full_table(d, p)
        table = cs.build_table(d, p)
        grids = np.meshgrid(*[np.arange(p)] * d, indexing="ij")
        for lam in range(2, p):
            permuted = tuple((grids[j] * pow(lam, j + 1, p)) % p for j in range(d))
            assert np.abs(mags[permuted] - mags).max() <= 1e-9 * p
            assert np.abs(table.lookup(permuted) - mags).max() <= 1e-9 * p


def test_orbit_partition_sizes_divide_p_minus_1():
    p, d = 11, 2
    seen = set()
    for a1 in range(p):
        for a2 in range(p):
            if (a1, a2) in seen:
                continue
            orbit = {cs.lambda_orbit((a1, a2), lam, p) for lam in range(1, p)}
            seen |= orbit
            assert (p - 1) % len(orbit) == 0


def test_box_moment_full_cube_consistency():
    table = cs.build_table(2, 5)
    rep = cs.box_moment(table, 1, full_box(2, 5))
    excl = cs.mordell_moment(table, 1, include_zero=False)
    assert abs(rep.value - excl) < 1e-9
    assert abs(rep.value - 100.0) < 1e-6 * 100  # p^3 - p^2


def test_box_moment_single_vector():
    table = cs.build_table(2, 7)
    a = (3, 4)
    rep = cs.box_moment(table, 2, cs.DiscreteBox(starts=(a[0] - 1, a[1] - 1), side=1))
    assert abs(rep.value - float(table.lookup(a)) ** 4) < 1e-9


def test_box_moment_wraparound():
    table = cs.build_table(2, 7)
    box = cs.DiscreteBox(starts=(5, 6), side=3)  # wraps past p
    sub = 0.0
    for a1 in (6, 0, 1):
        for a2 in (0, 1, 2):
            if (a1, a2) != (0, 0):
                sub += float(table.lookup((a1, a2))) ** 2
    rep = cs.box_moment(table, 1, box)
    assert abs(rep.value - sub) < 1e-9


def test_box_moment_refuses_box_of_other_dimension():
    table = cs.build_table(2, 5)
    with pytest.raises(PreconditionError, match="box dimension must equal d"):
        cs.box_moment(table, 1, cs.DiscreteBox(starts=(0, 0, 0), side=2))
    with pytest.raises(PreconditionError, match="box dimension must equal d"):
        cs.box_moment(table, 1, cs.DiscreteBox(starts=(0,), side=2))


def _oracle_boxes(d, p):
    """Single points (a_1 != 0, a_1 = 0, a = 0), side p, and wrapping boxes with and without a_1 = 0."""
    rng = np.random.Generator(np.random.Philox(key=100 * d + p))
    rest = tuple(int(v) for v in rng.integers(0, p, size=d - 1))
    half = (p + 1) // 2
    return [
        cs.DiscreteBox((0,) * d, 1),
        cs.DiscreteBox((p - 1, *rest), 1),
        cs.DiscreteBox((p - 1,) * d, 1),
        full_box(d, p),
        cs.DiscreteBox(tuple(int(v) for v in rng.integers(0, p, size=d)), p),
        cs.DiscreteBox((p - 1 - half // 2, *rest), half),  # a_1 runs through 0
        cs.DiscreteBox((0, *rest), max(p - 1, 1)),  # a_1 = 1, ..., p - 1
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_box_moment_matches_fsum_oracle(d, p):
    table = cs.build_table(d, p)
    for box in _oracle_boxes(d, p):
        for nu in range(1, d + 1):
            want = box_moment_fsum(d, p, nu, box)
            assert abs(cs.box_moment(table, nu, box).value - want) <= 1e-12 * max(want, 1.0), (box, nu)


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("d, p", [(1, 7), (2, 5), (2, 11), (3, 5), (3, 7), (4, 5)])
def test_orbit_counts_are_the_box_multiplicities(d, p, chunk, monkeypatch):
    if chunk is not None:  # a block of a_1 values per few rows
        monkeypatch.setattr(cs, "CHUNK", chunk)
    table = cs.build_table(d, p)
    for box in _oracle_boxes(d, p):
        counts = cs._orbit_counts(table, box)
        assert counts.shape == table.slices.shape
        assert counts.sum() == box.side**d
        assert np.array_equal(counts, orbit_multiplicities(d, p, box)), box


@pytest.mark.parametrize("p", [3, 5, 13, 101, 1009])
def test_box_moment_gauss_law(p):
    # |T(a_1, a_2)| = sqrt(p) for a_2 != 0 and T(a_1, 0) = 0 for a_1 != 0
    table = cs.build_table(2, p)
    rng = np.random.Generator(np.random.Philox(key=p))
    for _ in range(20):
        box = cs.DiscreteBox(tuple(int(v) for v in rng.integers(0, p, size=2)), int(rng.integers(1, p + 1)))
        a1, a2 = box.axis_values(p)
        for nu in (1, 2):
            want = len(a1) * np.count_nonzero(a2) * float(p) ** nu
            assert abs(cs.box_moment(table, nu, box).value - want) <= 1e-12 * max(want, 1.0), (box, nu)


def test_box_moment_memory_stays_within_a_few_tables():
    table = cs.build_table(3, 211)
    tracemalloc.start()
    try:
        cs.box_moment(table, 3, cs.DiscreteBox((0, 0, 0), 211))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * table.slices.nbytes


@pytest.mark.parametrize("d, p", [(1, 5), (2, 7), (3, 5)])
def test_moments_refuse_nu_outside_1_to_d(d, p):
    table = cs.build_table(d, p)
    for nu in (0, d + 1):
        with pytest.raises(PreconditionError, match=f"need 1 <= nu <= d, got nu={nu}"):
            cs.mordell_moment(table, nu)
        with pytest.raises(PreconditionError, match=f"need 1 <= nu <= d, got nu={nu}"):
            cs.box_moment(table, nu, full_box(d, p))


def test_moment_main_term():
    assert cs.moment_main_term(2, 2) == 1  # d! - 1
    assert cs.moment_main_term(3, 3) == 5
    assert cs.moment_main_term(3, 2) == 2  # nu!


def test_discrete_box_validation():
    with pytest.raises(PreconditionError):
        cs.DiscreteBox(starts=(0,), side=0)
    box = cs.DiscreteBox(starts=(0, 0), side=12)
    with pytest.raises(PreconditionError):
        box.axis_values(11)  # side exceeds p
    vals = cs.DiscreteBox(starts=(0,), side=11).axis_values(11)[0]
    assert sorted(vals.tolist()) == list(range(11))  # cardinality L per axis


def test_resource_cap():
    with pytest.raises(ResourceLimitError):
        cs.build_table(2, 101, cap=100)
    table = cs.build_table(2, 101, cap=101**2)
    assert table.p == 101
    # the cap counts the 2 p^(d-1) stored entries
    with pytest.raises(ResourceLimitError):
        cs.build_table(3, 101, cap=2 * 101**2 - 1)
    assert cs.build_table(3, 101, cap=2 * 101**2).slices.size == 2 * 101**2
    with pytest.raises(ResourceLimitError):
        cs.build_table(1, 101, cap=100)  # the fiber pass holds p residues
    with pytest.raises(ResourceLimitError):
        cs.build_table(10**9, 3)  # refused before 3^(10^9 - 1) is formed


LOOKUP_CASES = [(1, 5), (2, 2), (2, 3), (2, 101), (3, 31), (4, 11)]


@pytest.mark.parametrize("d, p", LOOKUP_CASES)
def test_lookup_matches_full_table_oracle(d, p):
    # d = 1 has 0-dimensional slices; p = 2 makes every a_1 != 0 equal to 1
    mags = full_table(d, p)
    table = cs.build_table(d, p)
    assert table.slices.shape == (2,) + (p,) * (d - 1)
    assert np.abs(table.lookup(np.ix_(*[np.arange(p)] * d)) - mags).max() <= 1e-12 * p
    # lookup reduces its indices mod p and broadcasts them like numpy indexing
    rows = np.random.default_rng(p).integers(-3 * p, 3 * p, size=(50, d))
    assert np.abs(table.lookup(tuple(rows.T)) - mags[tuple((rows % p).T)]).max() <= 1e-12 * p


@pytest.mark.parametrize("d, p", LOOKUP_CASES)
def test_mordell_orbit_weights_match_full_table(d, p):
    mags = full_table(d, p)
    table = cs.build_table(d, p)
    for nu in range(1, d + 1):
        full = float((mags ** (2 * nu)).sum())
        assert abs(cs.mordell_moment(table, nu) - full) <= 1e-12 * full
        excl = cs.mordell_moment(table, nu, include_zero=False)
        assert abs(excl - (full - float(p) ** (2 * nu))) <= 1e-12 * full


def test_lookup_wrong_arity():
    with pytest.raises(PreconditionError):
        cs.build_table(2, 5).lookup((1, 2, 3))


@pytest.mark.parametrize("d, p", [(2, 101), (3, 31), (4, 11)])
def test_saved_table_lookup_matches_direct_sums(d, p, tmp_path):
    # the cached slices against the independent route: direct summation per a
    path = cs.save_table(cs.build_table(d, p), tmp_path / f"table_d{d}_p{p}.wslt")
    table = cs.load_table(path)
    assert (table.d, table.p) == (d, p)
    rng = np.random.default_rng(31 * p + d)
    rows = rng.integers(0, p, size=(24, d))
    rows[:8, 0] = 0  # the a_1 = 0 slice
    rows[8:, 0] = rng.integers(1, p, size=16)  # orbit images of the a_1 = 1 slice
    got = table.lookup(tuple(rows.T))
    direct = np.array([abs(cs.complete_sum(d, p, a)) for a in rows])
    assert np.abs(got - direct).max() <= 1e-10 * p


def test_cache_round_trip(tmp_path):
    table = cs.build_table(2, 7)
    path = cs.save_table(table, tmp_path / "t.wslt")
    loaded = cs.load_table(path)
    assert loaded.d == 2 and loaded.p == 7
    assert np.array_equal(loaded.slices, table.slices)  # bit-exact


def test_cache_checksum_mismatch(tmp_path):
    table = cs.build_table(2, 5)
    path = cs.save_table(table, tmp_path / "t.wslt")
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatchError):
        cs.load_table(path)


def test_cache_missing_sidecar_refused(tmp_path):
    path = cs.save_table(cs.build_table(2, 5), tmp_path / "t.wslt")
    path.with_suffix(".wslt.sha256").unlink()
    with pytest.raises(ChecksumMismatchError, match="no .sha256 sidecar"):
        cs.load_table(path)


def test_cache_save_writes_sidecar_first_through_temp_files(tmp_path, monkeypatch):
    replaced = []
    real = os.replace

    def record(src, dst):
        assert Path(src).parent == Path(dst).parent and Path(src).exists()
        replaced.append(Path(dst).name)
        real(src, dst)

    monkeypatch.setattr(os, "replace", record)
    path = cs.save_table(cs.build_table(2, 5), tmp_path / "t.wslt")
    assert replaced == ["t.wslt.sha256", "t.wslt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.wslt", "t.wslt.sha256"]
    assert cs.load_table(path).p == 5


def test_cache_save_cut_short_never_loads(tmp_path, monkeypatch):
    # a save over an existing pair stops after its sidecar: the old table no longer loads
    path = cs.save_table(cs.build_table(2, 5), tmp_path / "t.wslt")
    real = os.replace

    def stop_at_table(src, dst):
        if Path(dst) == path:
            raise KeyboardInterrupt
        real(src, dst)

    monkeypatch.setattr(os, "replace", stop_at_table)
    with pytest.raises(KeyboardInterrupt):
        cs.save_table(cs.build_table(2, 7), path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.wslt", "t.wslt.sha256"]
    with pytest.raises(ChecksumMismatchError):
        cs.load_table(path)


def test_cache_header_validation(tmp_path):
    # a sidecar that matches the bad bytes, so the header itself is checked
    p = tmp_path / "bad.wslt"
    raw = b"NOPE" + b"\x00" * 32
    p.write_bytes(raw)
    p.with_suffix(".wslt.sha256").write_text(hashlib.sha256(raw).hexdigest() + "\n")
    with pytest.raises(ChecksumMismatchError, match="unknown header"):
        cs.load_table(p)


def _write_with_sidecar(path, raw):
    path.write_bytes(raw)
    path.with_suffix(".wslt.sha256").write_text(hashlib.sha256(raw).hexdigest() + "\n")


def _forbid_body_read(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self} was read whole")

    monkeypatch.setattr(Path, "read_bytes", refuse)


def test_cache_version_1_refused(tmp_path, monkeypatch):
    # a p^d table from the earlier format, with a valid sidecar
    path = tmp_path / "v1.wslt"
    _write_with_sidecar(path, struct.pack("<4sIIQ", b"WSLT", 1, 2, 5) + full_table(2, 5).astype("<f8").tobytes())
    _forbid_body_read(monkeypatch)
    with pytest.raises(ChecksumMismatchError, match="unknown table version 1; delete the cache and rebuild"):
        cs.load_table(path)


def test_cache_huge_claimed_p_refused_before_reading(tmp_path, monkeypatch):
    path = tmp_path / "huge.wslt"
    _write_with_sidecar(path, struct.pack("<4sIIQ", b"WSLT", 2, 3, 2**61 - 1) + b"\x00" * 64)
    _forbid_body_read(monkeypatch)
    with pytest.raises(ResourceLimitError):
        cs.load_table(path)
    path.write_bytes(struct.pack("<4sIIQ", b"WSLT", 2, 2**31, 3))  # d far past any cap
    with pytest.raises(ResourceLimitError):
        cs.load_table(path)


def test_cache_wrong_body_length_refused(tmp_path, monkeypatch):
    path = cs.save_table(cs.build_table(3, 7), tmp_path / "t.wslt")
    # 20 header bytes + 2 * 7^2 float64 = 804; a matching sidecar, so the length is what fails
    _write_with_sidecar(path, path.read_bytes()[:-8])
    _forbid_body_read(monkeypatch)
    with pytest.raises(ChecksumMismatchError, match="has 796 bytes, expected 804"):
        cs.load_table(path)


def test_cached_table_hits_disk(tmp_path):
    t1 = cs.cached_table(2, 7, cache_dir=tmp_path)
    assert cs.table_cache_path(tmp_path, 2, 7).exists()
    t2 = cs.cached_table(2, 7, cache_dir=tmp_path)
    assert np.array_equal(t1.slices, t2.slices)
