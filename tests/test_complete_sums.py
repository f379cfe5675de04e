"""Complete-sum identities, moments, tables and the cache format."""

import ast
import hashlib
import io
import itertools
import os
import struct
import subprocess
import sys
import tracemalloc
from math import comb, isqrt, sqrt
from pathlib import Path

import numpy as np
import pytest

import weylsums
from helpers import (
    box_moment_fsum,
    canonical_sums,
    direct_complete_sum,
    factored_monomial_sum,
    full_box,
    full_table,
    lambda_orbit,
    long_double_unit_terms,
    orbit_counts_bincount,
    orbit_multiplicities,
    orbit_representative,
    unit_root_fsum,
)
from weylsums import complete_sums as cs
from weylsums import weyl_sums as ws
from weylsums.phasecore import Phase, RationalPoint, Workspace, _unit_root_table, residue_array
from weylsums.errors import (
    BinomialVanishingError,
    ChecksumMismatchError,
    InvalidFieldError,
    InvalidNumeratorError,
    LemmaCheckFailureError,
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
        # 2^j - 1, 2^j, 2^j + 1: past q = 2^12 the unit-root table no longer holds every residue, and
        # `unit_terms` adds its angle-addition step
        *[((3, 5, 7), q, (1, 2, 3)) for j in (4, 5, 12) for q in (2**j - 1, 2**j, 2**j + 1)],
        ((5, 7), 65537, (2, 5)),  # five blocks
        ((2,), 7**3, (3,)),  # composite moduli p^d
        ((4, 9), 11**2, (2, 5)),
        ((1, 2, 3), 5**4, (1, 2, 3)),
    ],
)
def test_unit_root_sum_matches_fsum_oracle(a, q, exponents):
    # a sum of unit roots over one period of any modulus is the Weyl sum at the rational point a/q, N = q,
    # and equals math.fsum of its terms; at a prime q with exponents 1..d it is also the complete sum
    x = RationalPoint(a, q)
    got = ws.weyl_sum(x, q, m=exponents)
    assert got == canonical_sums(x, [q], exponents)[0]
    if cs.is_prime(q) and exponents == tuple(range(1, len(a) + 1)):
        assert cs.complete_sum(len(a), q, a) == got


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


@pytest.mark.parametrize("cls", [0, 1])
def test_gauss_magnitude_check_fails_on_a_planted_entry(cls, monkeypatch):
    # one entry off by 1e-6 > 1e-9 sqrt(p) in either orbit class must fail the check, so a
    # reading of the table that skips a class fails this test
    p, build = 13, cs.build_table

    def planted(d, q, cap=cs.DEFAULT_CAP):
        table = build(d, q, cap=cap)
        table.orbits[cls].magnitude[5] = sqrt(q) + 1e-6  # a_2 = 5 != 0; the view writes through
        return table

    monkeypatch.setattr(cs, "build_table", planted)
    with pytest.raises(LemmaCheckFailureError, match="p=13"):
        cs.gauss_magnitude_check(p)


@pytest.mark.parametrize("d, p", [(d, p) for d in range(1, 5) for p in (2, 3, 5, 7, 13)])
def test_orbit_view_partitions_the_space(d, p):
    # covers p <= d, p = 1 mod d and p != 1 mod d
    table = cs.build_table(d, p)
    mags = full_table(d, p)
    assert sum(c.size * c.magnitude.size for c in table.orbits) == p**d
    for s, (magnitude, size, top) in enumerate(table.orbits):
        assert isinstance(size, int) and size == (p - 1 if s else 1)
        # the representatives of class s are (s, b), b in F_p^(d-1)
        assert magnitude.shape == top.shape == (p,) * (d - 1)
        assert np.abs(magnitude - mags[s]).max() <= 1e-12 * p
        want_top = np.indices(top.shape)[-1] != 0 if d > 1 else np.array(s != 0)
        assert top.dtype == bool and np.array_equal(top, want_top)
    # every representative marked: the orbits give every point of F_p^d once, in lexicographic order
    rows = table.orbit_rows([np.ones(c.magnitude.shape, dtype=bool) for c in table.orbits])
    assert rows.dtype == np.int64
    assert np.array_equal(rows, np.array(list(np.ndindex(*(p,) * d)), dtype=np.int64).reshape(-1, d))


def test_only_complete_sums_reads_the_table_layout():
    # the lambda-slice layout stays behind CompleteSumTable: every other module reads the
    # table through its orbit view and lookup, never its .slices
    readers = []
    for path in sorted(Path(cs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "slices":
                readers.append((path.name, node.lineno))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                if any(isinstance(a, ast.Constant) and a.value == "slices" for a in node.args):
                    readers.append((path.name, node.lineno))
    assert readers and {name for name, _ in readers} == {"complete_sums.py"}, readers


def test_monomial_complete_sum():
    assert abs(cs.monomial_complete_sum(2, 3, 1) - 3) < 1e-6 * 3
    assert abs(cs.monomial_complete_sum(3, 2, 1) - 4) < 1e-6 * 4
    assert abs(cs.monomial_complete_sum(3, 43, 5) - 43**2) < 1e-9 * 43**2  # two chunks
    with pytest.raises(InvalidNumeratorError):
        cs.monomial_complete_sum(2, 3, 3)
    for d in (1, 0, -1):
        with pytest.raises(PreconditionError):
            cs.monomial_complete_sum(d, 5, 1)


def test_monomial_identity_sweep_refuses_exactly_its_two_exceptions():
    # sum_{n <= p^d} e(a n^d / p^d) = p^(d-1) for gcd(a, p) = 1 and d >= 2, checked by the fsum oracle over
    # d = 2..8, p in {2, 3, 5, 7} and p^d <= 3 10^4, at every unit a mod p and at a = p + 1 and p^d - 1: it
    # fails only at (d, p) = (2, 2) and (4, 2), the two inputs that are refused
    refused = []
    for p in (2, 3, 5, 7):
        for d in range(2, 9):
            q = p**d
            if q > 3 * 10**4:
                break
            for a in sorted({*range(1, p), p + 1, q - 1}):
                want = unit_root_fsum((a,), q, (d,))
                holds = abs(want - p ** (d - 1)) <= 1e-9 * q
                try:
                    got = cs.monomial_complete_sum(d, p, a)
                except PreconditionError:
                    assert not holds, (d, p, a)
                    refused.append((d, p, a))
                    continue
                assert holds, (d, p, a)
                assert abs(got - want) <= q * 2**-48, (d, p, a)
    assert {(d, p) for d, p, _ in refused} == {(2, 2), (4, 2)}


@pytest.mark.parametrize(
    "kind, d, p, a",
    [
        # d = 2: rows of P = p gathered factors, whole rows per block; d >= 3: rows of head times one row of factors
        *[("monomial", d, p, a) for d, p in [(2, 3), (2, 101), (2, 1009), (3, 5), (4, 13), (5, 7), (5, 11)] for a in (1, p - 1)],
        *[("monomial", 3, p, a) for p in (2, 3, 101, 113) for a in (1, 7 % p or 1)],
        ("monomial", 3, 131, 26),  # P = 131^2 > BLOCK: each row is cut into two blocks
        ("monomial", 16, 2, 1),  # P = 2^15 and 2^16: rows of two and four whole blocks
        ("monomial", 17, 2, 3),
        # one block and two at p just below and above BLOCK = 2^14, then several past 2^16 = 4 BLOCK and 2^17
        *[("complete", 2, p, (3, 5)) for p in (16381, 16411, 65521, 65537, 131071, 131101)],
        ("complete", 3, 2097169, (1, 2, 3)),  # q > 2^21
        ("complete", 5, 101, (1, 2, 3, 4, 5)),
    ],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_complete_sums_equal_the_chunked_reference_bit_for_bit(kind, d, p, a):
    # a complete sum over F_p is math.fsum of its p terms, however many blocks they take; the monomial
    # loop keeps the bits of its factored terms formed one row at a time and cut into its blocks
    if kind == "monomial":
        assert cs.monomial_complete_sum(d, p, a, cap=10**8) == factored_monomial_sum(a, p, d)
    else:
        x = RationalPoint(a, p)
        assert cs.complete_sum(d, p, a) == ws.weyl_sum(x, p) == canonical_sums(x, [p])[0]


def _blocks(q, sizes):
    """(lo, hi) over n = 1..q, in blocks of the given sizes in turn."""
    lo = 1
    for size in itertools.cycle(sizes):
        if lo > q:
            return
        yield lo, min(lo + size, q + 1)
        lo += size


# the per-term bound of `monomial_complete_sum`'s docstring, plus 2^-60 for the rounding of the reference
_MONOMIAL_TERM_BOUND = 2.0**-50 + 2.0**-60


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the reference needs an 80-bit long double; here it has fewer than 64 mantissa bits")
@pytest.mark.parametrize("d, p, a", [(2, 2, 1), (2, 5, 3), (2, 101, 7), (3, 7, 3), (3, 101, 7), (3, 131, 26), (4, 11, 2), (5, 5, 4)])
def test_monomial_split_residues_equal_residue_array(d, p, a):
    # n = u + P v splits a n^d mod q into head's residue at u plus P (v slope[u mod p] mod p), exactly,
    # and each factored term head[u] roots[v slope[u mod p] mod p] is within the per-term bound of
    # e(r_n / q) at residue_array's residue r_n; over the loop's BLOCK blocks, then uneven ones of
    # P - 1, P and P + 1 terms and single terms, so that u = n mod P wraps at P and at p inside blocks
    # and at their edges; the last block of each ends at n = q, where v = p
    q, P = p**d, p ** (d - 1)
    head, roots, slope = cs._monomial_factors(a, p, d, Workspace())
    assert head.shape == (P // p, p) and roots.shape == slope.shape == (p,)
    first = residue_array((a,), q, (d,), 0, P)
    worst = 0.0
    uneven = [min(size, ws.BLOCK) for size in (max(P - 1, 1), P, P + 1, 1, 1, 3)]
    for sizes in ([ws.BLOCK], uneven):
        for lo, hi in _blocks(q, sizes):
            v, u = np.divmod(np.arange(lo, hi), P)
            index = v * slope[u % p] % p
            r = residue_array((a,), q, (d,), lo, hi)
            assert np.array_equal((first[u] + P * index) % q, r), (lo, hi)
            terms = head.ravel()[u] * roots[index]
            cos, sin = long_double_unit_terms(r, q)
            worst = max(worst, float(np.max(np.hypot(terms.real - cos, terms.imag - sin))))
        assert hi == q + 1
    assert worst <= _MONOMIAL_TERM_BOUND


def test_block_tree_equals_numpy_sum_of_whole_chunks():
    # numpy sums a 2^16-term complex array pairwise, halving it down to 2^14-term blocks, so the
    # tree of the four block sums is the sum of the whole chunk, bit for bit
    B = ws.BLOCK
    assert ws.CHUNK == 4 * B
    rng = np.random.default_rng(27)
    for scale in (1.0, 1e-3, 1e8):
        for _ in range(20):
            x = (rng.standard_normal(ws.CHUNK) + 1j * rng.standard_normal(ws.CHUNK)) * scale
            s = [x[j * B : (j + 1) * B].sum() for j in range(4)]
            assert (s[0] + s[1]) + (s[2] + s[3]) == x.sum()
    terms = np.exp(2j * np.pi * rng.integers(0, 131**3, ws.CHUNK) / 131**3)
    s = [terms[j * B : (j + 1) * B].sum() for j in range(4)]
    assert (s[0] + s[1]) + (s[2] + s[3]) == terms.sum()


_FAULTS_OF_A_SECOND_CALL = """
import resource
from weylsums import complete_sums as cs
cs.monomial_complete_sum(3, 131, 7)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cs.monomial_complete_sum(3, 131, 7)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults as Linux reports them")
def test_second_monomial_sum_faults_few_pages():
    # the block loop's arrays come from the workspace the first call hands on, so the second call
    # faults in only its tables and its short last chunk, not a fresh workspace
    src = str(Path(weylsums.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FAULTS_OF_A_SECOND_CALL], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 400


def test_monomial_sum_hands_on_the_weyl_sum_workspace():
    # the complete sum takes its arrays from the Weyl sum's buffers, so the workspace stays within
    # _SPARE_BYTES and is handed on to the next Weyl sum, which allocates no block array
    x = tuple(Phase(int(f)) for f in np.random.default_rng(5).integers(0, 1 << 64, size=3, dtype=np.uint64))
    ws._SPARE.clear()
    ws.weyl_sum(x, 2**17)
    (work,) = ws._SPARE
    cs.monomial_complete_sum(3, 131, 7)
    assert ws._SPARE == [work] and work.nbytes <= ws._SPARE_BYTES
    tracemalloc.start()
    try:
        ws.weyl_sum(x, 2**17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ws._SPARE == [work] and peak < 8 * ws.BLOCK


def test_monomial_sum_leaves_no_unit_root_table_cached():
    # the unit-root table of p^d is built for the call, so the cache neither gains an entry per
    # monomial modulus nor reads one
    before = _unit_root_table.cache_info()
    for d, p in [(3, 101), (3, 131), (2, 1009)]:
        cs.monomial_complete_sum(d, p, 7)
    assert _unit_root_table.cache_info() == before


def test_weil_check():
    rep = cs.weil_check([0, 1], 7)  # f = X: full character sum
    assert rep.value < 1e-9 and rep.bound == 0.0
    rep = cs.weil_check([0, 0, 1], 5)  # f = X^2: Gauss equality
    assert abs(rep.value - sqrt(5)) < 1e-9 and abs(rep.bound - sqrt(5)) < 1e-12
    rep = cs.weil_check([3, 0, 1], 5)  # a constant term only rotates the sum
    assert abs(rep.value - sqrt(5)) < 1e-9
    rep = cs.weil_check([0, 1, 0, 1], 7)  # f = X^3 + X
    assert rep.value <= 2 * sqrt(7) + 1e-9
    rep = cs.weil_check([0, 1], 10000019)  # T = 0; the rounded terms read ~1e-11 at this p
    assert rep.passed and rep.bound == 0.0 and rep.value <= 10000019 * 2**-40
    with pytest.raises(PreconditionError):
        cs.weil_check([3], 7)
    with pytest.raises(PreconditionError):
        cs.weil_check([0, 7], 7)  # reduces to a constant mod 7


def test_weil_and_vanishing_checks_fail_a_kernel_that_errs_by_1e_12_per_term(monkeypatch):
    # at degree 1 and on the vanishing family T = 0 exactly: cosines that err by 1e-12 move |T| by
    # p 1e-12, past the p 2^-50 that the per-term bound allows, though inside 1e-9 + p 2^-40 and 1e-9 p
    unit_terms = ws.unit_terms

    def skewed(words, q, work=None):
        terms = unit_terms(words, q, work)
        terms[0] += 1e-12
        return terms

    assert cs.weil_check([0, 1], 101).passed and len(cs.vanishing_family(3, 5)) == 4
    monkeypatch.setattr(ws, "unit_terms", skewed)
    with pytest.raises(LemmaCheckFailureError, match="Weil bound violated for deg=1, p=101"):
        cs.weil_check([0, 1], 101)
    with pytest.raises(LemmaCheckFailureError, match="expected 0"):
        cs.vanishing_family(3, 5)


@pytest.mark.parametrize("d, p, a", [(2, 1009, 3), (4, 53, 3)])
def test_monomial_check_fails_a_kernel_that_errs_by_1e_12_per_term(d, p, a, monkeypatch):
    # cosines of both factor tables that err by 1e-12 move the sum by 1.5e-7 and 3.1e-7: past the bound
    # p^d (2^-50 + (D(2m) + D(2B)) 2^-52) that the per-term bound and the pairwise sums allow (1.7e-8 and
    # 1.4e-7), though far inside the 1e-6 relative tolerance that the check used before
    unit_terms = cs._unit_terms

    def skewed(words, table, constants, work):
        terms = unit_terms(words, table, constants, work)
        terms[0] += 1e-12
        return terms

    expected = p ** (d - 1)
    value = cs.monomial_complete_sum(d, p, a)
    assert max(abs(value.real - expected), abs(value.imag)) < 1e-12
    monkeypatch.setattr(cs, "_unit_terms", skewed)
    with pytest.raises(LemmaCheckFailureError, match=f"monomial sum at \\(d={d}, p={p}, a={a}\\)") as failure:
        cs.monomial_complete_sum(d, p, a)
    value = complex(str(failure.value).split(" is ")[1].split(", expected")[0])
    assert 1e-7 < abs(value - expected) < 1e-6 * expected


def test_lambda_orbit():
    assert lambda_orbit((1, 1), 1, 5) == (1, 1)
    assert lambda_orbit((1, 1), 2, 5) == (2, 4)
    m1 = abs(cs.complete_sum(2, 5, (1, 1)))
    m2 = abs(cs.complete_sum(2, 5, (2, 4)))
    assert abs(m1 - m2) < 1e-9 * 5
    assert lambda_orbit((0, 0, 0), 3, 7) == (0, 0, 0)
    # Python ints stay exact past int64: 2^80 = 2^19 mod 2^61 - 1
    assert lambda_orbit((1, 1), 2**40, 2**61 - 1) == (2**40, 2**19)
    with pytest.raises(PreconditionError):
        lambda_orbit((1, 1), 0, 5)


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
    m2 = cs.mordell_moment(table, 2)
    assert abs(m2 - 135) < 1e-6 * 135
    m1 = cs.mordell_moment(table, 1)
    assert abs(m1 - 27) < 1e-6 * 27
    m2x = m2 - 3.0**4  # without a = 0, as the moments command reports it
    assert abs(m2x - 54) < 1e-6 * 54
    with pytest.raises(PreconditionError):
        cs.mordell_moment(table, 3)


def test_parseval_identity():
    for d, p in [(1, 13), (2, 13), (3, 13), (2, 7), (3, 5)]:
        m1 = cs.mordell_moment(cs.build_table(d, p), 1)
        assert abs(m1 - float(p) ** (d + 1)) < 1e-6 * float(p) ** (d + 1)


def test_degree2_fourth_moment_closed_form():
    for p in (3, 5, 7, 11, 13):
        m2 = cs.mordell_moment(cs.build_table(2, p), 2)
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
            orbit = {lambda_orbit((a1, a2), lam, p) for lam in range(1, p)}
            seen |= orbit
            assert (p - 1) % len(orbit) == 0


def test_box_moment_full_cube_consistency():
    table = cs.build_table(2, 5)
    rep = cs.box_moment(table, 1, full_box(2, 5))
    excl = cs.mordell_moment(table, 1) - 5.0**2  # the a = 0 term, T(0) = p
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


def test_box_moment_takes_each_power_once_per_table():
    # the boxes after the first read the table's held powers, and each value keeps
    # the bits of weighting the counts by a fresh slices ** (2 nu)
    table = cs.build_table(3, 31)
    rng = np.random.Generator(np.random.Philox(key=21))
    for nu in (1, 3):
        held = None
        for _ in range(4):
            box = cs.DiscreteBox(tuple(int(v) for v in rng.integers(0, 31, size=3)), int(rng.integers(1, 32)))
            value = cs.box_moment(table, nu, box).value
            counts = cs._orbit_counts(table, box)
            counts[0, 0, 0] = 0.0
            assert value == float((counts * table.slices ** (2 * nu)).sum()), (box, nu)
            held = held if held is not None else table._powers[nu]
            assert table._powers[nu] is held
    assert sorted(table._powers) == [1, 3]


def _edge_boxes(d, p):
    """Edges of the d = 2 convolution: a_2 = 0 inside and outside, only a_1 = 0, and a single a_1 != 0 with and without a_1 = 0."""
    rng = np.random.Generator(np.random.Philox(key=100 * d + p + 1))
    first, *rest = (int(v) for v in rng.integers(0, p, size=d))
    return [
        cs.DiscreteBox((first, p - 1, *rest[1:])[:d], max(p // 2, 1)),  # a_2 runs through 0
        cs.DiscreteBox((first, 0, *rest[1:])[:d], max(p - 1, 1)),  # a_2 = 1, ..., p - 1
        cs.DiscreteBox((p - 1, *rest), 1),  # only a_1 = 0
        cs.DiscreteBox((0, *rest), 1),  # only a_1 = 1
        cs.DiscreteBox((p - 1, *rest), 2),  # a_1 = 0 and a_1 = 1
    ]


def _cli_boxes(d, p, count, seed):
    """count boxes drawn as `weylsums box-moments` draws them: side from p^0.8 + 1 to p, uniform starts."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    lmin = min(max(int(float(p) ** 0.8) + 1, 2), p)
    boxes = []
    for _ in range(count):
        side = int(rng.integers(lmin, p + 1))
        boxes.append(cs.DiscreteBox(tuple(int(v) for v in rng.integers(0, p, size=d)), side))
    return boxes


@pytest.mark.parametrize("side", [None, 1])
@pytest.mark.parametrize("d, p", [(1, 7), (2, 5), (2, 11), (3, 5), (3, 7), (4, 5)])
def test_orbit_counts_are_the_box_multiplicities(d, p, side):
    # side None keeps each box; side 1 shrinks it to its corner point, a single a_1
    table = cs.build_table(d, p)
    boxes = _oracle_boxes(d, p) + _edge_boxes(d, p)
    if side is not None:
        boxes = [cs.DiscreteBox(box.starts, side) for box in boxes]
    for box in boxes:
        counts = cs._orbit_counts(table, box)
        assert counts.shape == table.slices.shape
        assert counts.sum() == box.side**d
        assert np.array_equal(counts, orbit_multiplicities(d, p, box)), box


@pytest.mark.parametrize("serial", [30, 200, 4000, 2**18])
@pytest.mark.parametrize("d, p", [(3, 7), (3, 13), (4, 7)])
def test_orbit_counts_in_product_blocks_of_any_size(d, p, serial, monkeypatch):
    # a small limit cuts the d >= 3 contraction into many row and column blocks
    monkeypatch.setattr(cs, "_BLAS_SERIAL", serial)
    table = cs.build_table(d, p)
    for box in _oracle_boxes(d, p) + _cli_boxes(d, p, 4, seed=serial):
        assert np.array_equal(cs._orbit_counts(table, box), orbit_multiplicities(d, p, box)), box


@pytest.mark.parametrize("p", [131, 521])
def test_orbit_count_products_stay_within_one_blas_thread(p, monkeypatch):
    # every product is at most _BLAS_SERIAL multiply-adds, in row and column blocks. Over all
    # of F_p^3 each a_1 = 0 entry is its own orbit and each a_1 = 1 entry stands for p - 1 points
    shapes, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        shapes.append((a.shape[0], a.shape[1], b.shape[1]))
        return matmul(a, b, **kwargs)

    table = cs.build_table(3, p)
    monkeypatch.setattr(np, "matmul", spy)
    counts = cs._orbit_counts(table, full_box(3, p))
    assert len(shapes) > 1 and all(m * k * n <= cs._BLAS_SERIAL for m, k, n in shapes)
    assert np.array_equal(counts, np.stack([np.ones((p, p)), np.full((p, p), p - 1.0)]))


@pytest.mark.parametrize("p", [2, 3, 5, 13, 127, 1009, 1019])
def test_orbit_counts_match_the_image_bincount_at_d2(p):
    # p - 1 = 1 and 2 at p = 2, 3; 1018 = 2 * 509 has a large prime factor
    table = cs.build_table(2, p)
    for box in _oracle_boxes(2, p) + _cli_boxes(2, p, 8, seed=p):
        assert np.array_equal(cs._orbit_counts(table, box), orbit_counts_bincount(p, box)), box


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1009, 65537, 999983])
def test_discrete_logs_generate_and_invert(p):
    exp, log = cs._discrete_logs(p)
    m = p - 1
    g = int(exp[1 % m])  # exp[1] is the generator; F_2^* = {1}
    divisors = {q for k in range(1, isqrt(m) + 1) if m % k == 0 for q in (k, m // k)}
    assert 1 <= g < p
    assert all(pow(g, m // q, p) != 1 for q in divisors if cs.is_prime(q))
    assert exp[0] == 1 and np.array_equal(exp[1:], exp[:-1] * g % p)
    assert np.array_equal(np.sort(exp), np.arange(1, p))
    assert np.array_equal(log[exp], np.arange(m))


@pytest.mark.parametrize("error", [0.5, 1.0])
def test_log_convolution_refuses_counts_off_the_integers(error, monkeypatch):
    # 0.5 is half-way between integers; 1.0 keeps them integers but breaks their total
    irfft = np.fft.irfft

    def planted(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[3] += error
        return out

    table = cs.build_table(2, 13)
    monkeypatch.setattr(np.fft, "irfft", planted)
    with pytest.raises(LemmaCheckFailureError, match="not integers"):
        cs.box_moment(table, 1, full_box(2, 13))


@pytest.mark.parametrize("p", [3, 5, 13, 101, 1009, 100003])
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
        for start in (0, 1):  # the second box reads the powers the first left on the table
            cs.box_moment(table, 3, cs.DiscreteBox((start, start, start), 211))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * table.slices.nbytes


def test_box_moment_memory_stays_within_a_few_tables_at_d2():
    table = cs.build_table(2, 100003)
    tracemalloc.start()
    try:
        for start in (0, 1):  # the second box reads the powers the first left on the table
            cs.box_moment(table, 2, cs.DiscreteBox((start, start), 100003))
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
def test_lookup_reads_the_python_int_representative(d, p):
    # the same stored entry, bit for bit, as lambda = pow(a_1, -1, p) in Python ints picks
    table = cs.build_table(d, p)
    reps = np.array([orbit_representative(a, p) for a in itertools.product(range(p), repeat=d)])
    want = table.slices[tuple(reps.T)].reshape((p,) * d)
    assert np.array_equal(table.lookup(np.ix_(*[np.arange(p)] * d)), want)


def test_discrete_logs_stay_off_the_saved_file(tmp_path):
    table = cs.build_table(3, 7)
    before = cs.save_table(table, tmp_path / "a.wslt").read_bytes()
    table.lookup(([1], [2], [3]))  # builds the table's discrete logs
    assert "_logs" in vars(table)
    assert cs.save_table(table, tmp_path / "b.wslt").read_bytes() == before
    assert len(before) == 52 + 16 * 7**2  # header, digest, two slices of 7^2 float64


@pytest.mark.parametrize("d, p", LOOKUP_CASES)
def test_mordell_orbit_weights_match_full_table(d, p):
    mags = full_table(d, p)
    table = cs.build_table(d, p)
    for nu in range(1, d + 1):
        full = float((mags ** (2 * nu)).sum())
        assert abs(cs.mordell_moment(table, nu) - full) <= 1e-12 * full


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
    good = cs.save_table(cs.build_table(2, 5), tmp_path / "t.wslt").read_bytes()
    # a byte of the body, of the stored digest, and the low byte of p (5 -> 250: refused by the length)
    for offset, match in ((-3, "checksum mismatch"), (30, "checksum mismatch"), (12, "has 132 bytes, expected 4052")):
        raw = bytearray(good)
        raw[offset] ^= 0xFF
        path = tmp_path / f"flip{offset}.wslt"
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatchError, match=match):
            cs.load_table(path)


def test_cache_save_writes_one_file_through_a_temp_file(tmp_path, monkeypatch):
    replaced = []
    real = os.replace

    def record(src, dst):
        assert Path(src).parent == Path(dst).parent and Path(src).exists()
        replaced.append(Path(dst).name)
        real(src, dst)

    monkeypatch.setattr(os, "replace", record)
    path = cs.save_table(cs.build_table(2, 5), tmp_path / "t.wslt")
    assert replaced == ["t.wslt"]
    assert [p.name for p in tmp_path.iterdir()] == ["t.wslt"]  # no .sha256 file and no temp file
    assert cs.load_table(path).p == 5


def test_cache_save_cut_short_keeps_the_old_table(tmp_path, monkeypatch):
    # a save over an existing table stops at its one replace: the old table still loads
    old = cs.build_table(2, 5)
    path = cs.save_table(old, tmp_path / "t.wslt")

    def stop(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", stop)
    with pytest.raises(KeyboardInterrupt):
        cs.save_table(cs.build_table(2, 7), path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["t.wslt"]
    loaded = cs.load_table(path)
    assert loaded.p == 5 and np.array_equal(loaded.slices, old.slices)


def test_cache_header_validation(tmp_path):
    p = tmp_path / "bad.wslt"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ChecksumMismatchError, match="unknown header"):
        cs.load_table(p)


class _TallyReader(io.BufferedReader):
    """A file handle that counts the bytes read through it."""

    def __init__(self, raw):
        super().__init__(raw)
        self.tally = 0

    def read(self, size=-1):
        data = super().read(size)
        self.tally += len(data)
        return data

    def readinto(self, buffer):
        count = super().readinto(buffer)
        self.tally += count
        return count


def _tally_reads(monkeypatch):
    """The list of tallying handles that every later Path.open of a .wslt file for reading appends to."""
    handles, open_ = [], Path.open

    def tally(self, mode="r", *args, **kwargs):
        if self.suffix != ".wslt" or mode != "rb":
            return open_(self, mode, *args, **kwargs)
        handles.append(_TallyReader(io.FileIO(self, "rb")))
        return handles[-1]

    monkeypatch.setattr(Path, "open", tally)
    return handles


def test_cache_version_1_refused(tmp_path, monkeypatch):
    # a p^d table from the earlier format
    path = tmp_path / "v1.wslt"
    path.write_bytes(struct.pack("<4sIIQ", b"WSLT", 1, 2, 5) + full_table(2, 5).astype("<f8").tobytes())
    handles = _tally_reads(monkeypatch)
    with pytest.raises(ChecksumMismatchError, match="unknown table version 1; delete the cache and rebuild"):
        cs.load_table(path)
    assert [h.tally for h in handles] == [20]


def test_cache_version_2_refused_with_or_without_sidecar(tmp_path, monkeypatch):
    # the earlier two-file format: header and slices, with the sha256 of both in a sidecar
    path = tmp_path / "v2.wslt"
    table = cs.build_table(2, 5)
    raw = struct.pack("<4sIIQ", b"WSLT", 2, 2, 5) + table.slices.astype("<f8").tobytes()
    path.write_bytes(raw)
    sidecar = tmp_path / "v2.wslt.sha256"
    sidecar.write_text(hashlib.sha256(raw).hexdigest() + "\n")
    handles = _tally_reads(monkeypatch)
    for _ in range(2):
        with pytest.raises(ChecksumMismatchError, match="unknown table version 2; delete the cache and rebuild"):
            cs.load_table(path)
        sidecar.unlink(missing_ok=True)
    assert [h.tally for h in handles] == [20, 20]  # the header alone, each time


def test_cache_huge_claimed_p_refused_before_reading(tmp_path, monkeypatch):
    path = tmp_path / "huge.wslt"
    path.write_bytes(struct.pack("<4sIIQ", b"WSLT", 3, 3, 2**61 - 1) + b"\x00" * 96)
    handles = _tally_reads(monkeypatch)
    with pytest.raises(ResourceLimitError):
        cs.load_table(path)
    path.write_bytes(struct.pack("<4sIIQ", b"WSLT", 3, 2**31, 3))  # d far past any cap
    with pytest.raises(ResourceLimitError):
        cs.load_table(path)
    assert [h.tally for h in handles] == [20, 20]


def test_cache_wrong_body_length_refused(tmp_path, monkeypatch):
    path = cs.save_table(cs.build_table(3, 7), tmp_path / "t.wslt")
    # 20 header bytes + a 32-byte digest + 2 * 7^2 float64 = 836
    path.write_bytes(path.read_bytes()[:-8])
    handles = _tally_reads(monkeypatch)
    with pytest.raises(ChecksumMismatchError, match="has 828 bytes, expected 836"):
        cs.load_table(path)
    assert [h.tally for h in handles] == [20]


def test_load_table_reads_through_one_handle(tmp_path, monkeypatch):
    good = cs.save_table(cs.build_table(3, 7), tmp_path / "t.wslt")
    short = tmp_path / "short.wslt"
    short.write_bytes(good.read_bytes()[:-8])
    handles = _tally_reads(monkeypatch)
    assert np.array_equal(cs.load_table(good).slices, cs.build_table(3, 7).slices)
    assert [h.tally for h in handles] == [52 + 16 * 7**2]  # header, digest, then the body, one handle
    with pytest.raises(ChecksumMismatchError, match="has 828 bytes, expected 836"):
        cs.load_table(short)
    assert [h.tally for h in handles] == [836, 20]  # refused on its length after the header alone


def test_cached_table_hits_disk(tmp_path):
    t1 = cs.cached_table(2, 7, cache_dir=tmp_path)
    assert cs.table_cache_path(tmp_path, 2, 7).exists()
    t2 = cs.cached_table(2, 7, cache_dir=tmp_path)
    assert np.array_equal(t1.slices, t2.slices)
