"""Exactness and accumulation properties of the phase foundation."""

import cmath
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    e_eval,
    long_double_unit_terms,
    phase_add,
    phase_sub,
    phase_times,
    poly_phase,
    rational_phases,
    residue_oracle,
)
from weylsums.errors import InvalidDenominatorError
from weylsums.phasecore import (
    TURN,
    Phase,
    RationalPoint,
    frac_array,
    phase_from_rational,
    residue_array,
    unit_terms,
)


def test_phase_from_rational_dyadic_exact():
    assert phase_from_rational(1, 2).frac == 1 << 63
    assert phase_from_rational(1, 4).frac == 1 << 62


def test_phase_from_rational_mod_reduction():
    assert phase_from_rational(5, 4) == phase_from_rational(1, 4)
    assert phase_from_rational(-1, 3) == phase_from_rational(2, 3)


def test_phase_from_rational_rounding_error():
    for a, q in [(1, 3), (2, 7), (100, 923521), (17, 65537)]:
        got = Fraction(phase_from_rational(a, q).frac, TURN)
        assert abs(got - Fraction(a, q)) <= Fraction(1, 2 * TURN)


def test_zero_denominator_rejected():
    with pytest.raises(InvalidDenominatorError):
        phase_from_rational(1, 0)


def test_poly_phase_examples():
    # x=(1/2), n=3 -> 3/2 mod 1 = 1/2
    assert poly_phase([phase_from_rational(1, 2)], 3) == phase_from_rational(1, 2)
    # x=(0, 1/2), n=2 -> 4/2 mod 1 = 0
    assert poly_phase([Phase(0), phase_from_rational(1, 2)], 2) == Phase(0)


def test_poly_phase_rational_path_exact():
    # (1/5, 1/5) at n=2 -> 6/5 mod 1 = 1/5, exact on the residue path
    r = residue_array((1, 1), 5, (1, 2), 2, 3)
    assert int(r[0]) == (2 + 4) % 5 == 1


def test_poly_phase_association_orders_bit_equal():
    rng = random.Random(11)
    for _ in range(200):
        fr = [rng.randrange(TURN) for _ in range(3)]
        x = [Phase(f) for f in fr]
        n = rng.randrange(1, 10**9)
        direct = poly_phase(x, n)
        # reversed accumulation order must agree bit for bit
        acc = 0
        for xj, mj in reversed(list(zip(fr, (1, 2, 3)))):
            acc = (acc + xj * pow(n, mj, TURN)) % TURN
        assert direct.frac == acc


def test_poly_phase_dyadic_denominator_bit_exact():
    # q | 2^64: quantization is lossless, so fixed point == residue arithmetic
    rng = random.Random(5)
    q = 1 << 20
    for _ in range(100):
        a = [rng.randrange(q) for _ in range(2)]
        n = rng.randrange(1, 10**6)
        x = [phase_from_rational(ai, q) for ai in a]
        got = poly_phase(x, n)
        (res,) = residue_oracle(a, q, (1, 2), n, n + 1)
        assert got == phase_from_rational(res, q)


def test_e_eval_examples():
    assert e_eval(Phase(0)) == 1 + 0j
    assert abs(e_eval(phase_from_rational(1, 2)) - (-1 + 0j)) < 1e-12
    assert abs(e_eval(phase_from_rational(1, 4)) - 1j) < 1e-12


def test_e_eval_unit_modulus():
    rng = random.Random(1)
    for _ in range(1000):
        z = e_eval(Phase(rng.randrange(TURN)))
        assert abs(abs(z) - 1.0) < 1e-12


def test_e_eval_is_homomorphism():
    rng = np.random.default_rng(2)
    fr = rng.integers(0, TURN, size=(10**5, 2), dtype=np.uint64)
    s = (fr[:, 0] + fr[:, 1]).astype(np.float64) * 2.0**-64
    a = fr[:, 0].astype(np.float64) * 2.0**-64
    b = fr[:, 1].astype(np.float64) * 2.0**-64
    lhs = np.exp(2j * np.pi * s)
    rhs = np.exp(2j * np.pi * a) * np.exp(2j * np.pi * b)
    err = np.abs(lhs - rhs)
    assert float(err.max()) < 1e-10
    # spot-check the scalar API against the vectorized identity
    pairs = rng.integers(0, TURN, size=(200, 2), dtype=np.uint64)
    for fu, fv in pairs:
        u, v = Phase(int(fu)), Phase(int(fv))
        d = e_eval(phase_add(u, v)) - e_eval(u) * e_eval(v)
        assert abs(d.real) < 1e-10 and abs(d.imag) < 1e-10


def test_frac_array_matches_scalar_poly_phase():
    rng = random.Random(7)
    for exponents in [(1, 2, 3), (3,), (2, 5), (1, 7), (1, 2, 3, 4)]:
        x = [Phase(rng.randrange(TURN)) for _ in exponents]
        for lo in (1, rng.randrange(1, 2**40)):  # large n: every power wraps mod 2^64
            arr = frac_array([xj.frac for xj in x], exponents, lo, lo + 49)
            assert [int(v) for v in arr] == [poly_phase(x, n, exponents).frac for n in range(lo, lo + 49)]
    # a (B, d) batch: one row of words per point, sharing the powers of n
    words = np.random.default_rng(8).integers(0, TURN, size=(4, 3), dtype=np.uint64)
    arr = frac_array(list(words.T), (1, 2, 3), 1000, 1040)
    assert arr.shape == (4, 40)
    for b, row in enumerate(words):
        x = [Phase(int(w)) for w in row]
        assert [int(v) for v in arr[b]] == [poly_phase(x, n).frac for n in range(1000, 1040)]


def test_frac_array_batch_with_gaps_equals_the_one_point_call():
    # exponents (2, 5, 8): each gap multiplied in by n, one unit at a time, over the (B, hi-lo)
    # accumulator; the top coefficient is a row of words or one word broadcast to every row
    words = np.random.default_rng(9).integers(0, TURN, size=(5, 3), dtype=np.uint64)
    lo = 2**40 + 3
    for top in (words[:, 2], words[0, 2]):
        arr = frac_array([words[:, 0], words[:, 1], top], (2, 5, 8), lo, lo + 70)
        assert arr.shape == (5, 70)
        for b, row in enumerate(words):
            one = frac_array([int(row[0]), int(row[1]), int(np.broadcast_to(top, 5)[b])], (2, 5, 8), lo, lo + 70)
            assert np.array_equal(arr[b], one)
    x = [Phase(int(w)) for w in words[0]]
    assert [int(v) for v in arr[0]] == [poly_phase(x, n, (2, 5, 8)).frac for n in range(lo, lo + 70)]


def test_residue_array_matches_pow_at_the_largest_modulus():
    # q = 2^31 - 1 is the largest q with q^2 < 2^62: there the Horner sums
    # t + c < 2q times a power below q come within a factor 2 of 2^63
    q = 2**31 - 1
    for exponents in [(1, 2, 3), (3,), (2, 5), (1, 7)]:
        a = [q - 1] * len(exponents)  # the largest residues
        for lo in (1, q - 20, 3 * q + 5):  # n runs past q and wraps
            assert residue_array(a, q, exponents, lo, lo + 40).tolist() == residue_oracle(a, q, exponents, lo, lo + 40)


@pytest.mark.parametrize("q", [1, 2, 97, 65537, 2**31 - 1])
def test_residue_array_matches_pow_at_random_inputs(q):
    rng = random.Random(q)
    for _ in range(20):
        exponents = tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 4))))
        a = [rng.randrange(-(2**40), 2**40) for _ in exponents]
        lo = rng.randrange(0, 5 * q)
        assert residue_array(a, q, exponents, lo, lo + 50).tolist() == residue_oracle(a, q, exponents, lo, lo + 50)


_CHUNK = 1 << 16
_Q31 = 2**31 - 1


@pytest.mark.parametrize("q, exponents, lo", [
    (127**3, (3,), 127**3 - _CHUNK + 1),  # q < 2^21: n^3 < 2^63 for every n <= q, the last chunk up to n = q
    (131**3, (3,), 2**21 - _CHUNK // 2),  # n^3 passes 2^63 at n = 2^21, in the middle of this chunk
    (131**3, (1, 7), 131**3 - _CHUNK + 1),
    (131**3, (1, 2, 3), 131**3 - _CHUNK + 1),
    (_Q31, (3,), 3 * _Q31 + 5),  # n runs past q and is reduced first
    (_Q31, (1, 7), 3 * _Q31 + 5),
    (_Q31, (1, 2, 3), _Q31 - _CHUNK // 2),
    (_Q31, (2, 5), 1),
])
def test_residue_array_whole_chunks_at_the_skip_boundaries(q, exponents, lo):
    a = [q - 1] * len(exponents)
    assert residue_array(a, q, exponents, lo, lo + _CHUNK).tolist() == residue_oracle(a, q, exponents, lo, lo + _CHUNK)


def test_residue_array_takes_numpy_integers():
    # the overflow bounds are Python ints even when q, a, lo and hi come as numpy int64
    q = 131**3
    lo = q + 1 - _CHUNK
    got = residue_array([np.int64(q - 1)], np.int64(q), (3,), np.int64(lo), np.int64(q + 1))
    assert got.tolist() == residue_oracle([q - 1], q, (3,), lo, q + 1)


def test_residue_array_leaves_room_for_the_horner_add():
    # at n = N the product c_3 N^2 is below 2^63 but the add of c_1 = q - 1 after it is not
    q, N = _Q31, 2**16 + 1
    c3 = (2**63 - 1) // N**2
    assert c3 < q and c3 * N**2 < 2**63 <= c3 * N**2 + q - 1
    a = (q - 1, c3)
    assert residue_array(a, q, (1, 3), N + 1 - _CHUNK, N + 1).tolist() == residue_oracle(a, q, (1, 3), N + 1 - _CHUNK, N + 1)


def test_residue_array_bounds_an_unreduced_n_by_itself():
    # at n = q the Horner sum t = c_2 q + c_1 times n reaches 2^63, and times q - 1 it would not:
    # the chunk's largest n, not q - 1, must bound an n that is not reduced
    q = 2**30 + 3
    c2, c1 = divmod(-(-(2**63) // q), q)
    t = c2 * q + c1
    assert c2 < q and t * (q - 1) <= 2**63 - q and t * q >= 2**63
    lo = q + 1 - _CHUNK
    assert residue_array((c1, c2), q, (1, 2), lo, q + 1).tolist() == residue_oracle((c1, c2), q, (1, 2), lo, q + 1)


@pytest.mark.parametrize("exponents, arrays", [((3,), 3), ((1, 2, 3), 3), ((1, 7), 3), ((2, 5), 3)])
def test_residue_array_holds_few_chunk_arrays(exponents, arrays):
    # n, the quotient of the reductions and one accumulator, which every product by n is
    # written over, whatever the exponent gaps
    a = [_Q31 - 1] * len(exponents)
    residue_array(a, _Q31, exponents, 1, _CHUNK + 1)
    tracemalloc.start()
    try:
        residue_array(a, _Q31, exponents, 1, _CHUNK + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (arrays + 1 / 16) * 8 * _CHUNK


def test_rational_point_normalizes():
    rp = RationalPoint(a=(7, -1), q=5)
    assert rp.a == (2, 4)
    assert [ph.frac for ph in rational_phases(rp)] == [
        phase_from_rational(2, 5).frac,
        phase_from_rational(4, 5).frac,
    ]


def test_phase_algebra_wraps():
    p = phase_add(Phase(TURN - 1), Phase(2))
    assert p.frac == 1
    assert phase_sub(Phase(1), Phase(2)).frac == TURN - 1
    assert phase_times(Phase(1 << 62), 4) == Phase(0)
    assert cmath.isclose(abs(e_eval(Phase(123456789))), 1.0, rel_tol=1e-12)


def test_residue_array_rejects_big_modulus():
    with pytest.raises(ValueError):
        residue_array((1,), 2**32, (1,), 1, 4)


def test_kernels_reject_mismatched_exponents():
    with pytest.raises(ValueError):
        frac_array([1], (1, 2), 1, 4)
    with pytest.raises(ValueError):
        residue_array((1, 1), 7, (1,), 1, 4)


def _edge_words(q: int) -> list[int]:
    """0, q - 1, and around steps j 2^k of the table and the step boundaries j 2^k +- 2^(k-1)."""
    k = max(0, (q - 1).bit_length() - 12)
    edges = {0, q - 1}
    for j in (0, 1, 2, 1000, 2047, 2048, 4095, 4096):
        for d in (-1, 0, 1):
            for at in (j << k, (j << k) + (1 << k >> 1), (j << k) - (1 << k >> 1)):
                edges.add((at + d) % q)
    return sorted(edges)


# the documented per-component bound 2^-53 + 2^-56, plus 2^-60 for the rounding of the reference
_UNIT_TERM_BOUND = 2.0**-53 + 2.0**-56 + 2.0**-60


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the reference needs an 80-bit long double; here it has fewer than 64 mantissa bits")
@pytest.mark.parametrize("q", [TURN, 1, 2, 7, 1009, 4096, 4097, 8193, 9973, 65537, 2**31 - 1])
def test_unit_terms_within_documented_bound_of_long_double_reference(q):
    rng = np.random.default_rng(q % 100003)
    dtype = np.uint64 if q == TURN else np.int64
    words = np.concatenate([np.array(_edge_words(q), dtype=dtype), rng.integers(0, q, size=20000, dtype=dtype)])
    terms = unit_terms(words, q)
    assert terms.shape == (2, len(words)) and terms.dtype == np.float64
    for got, ref in zip(terms, long_double_unit_terms(words, q)):
        assert float(np.max(np.abs(got.astype(np.longdouble) - ref))) <= _UNIT_TERM_BOUND
    # a (B, n) batch: the same terms row by row, to the bit
    batch = rng.integers(0, q, size=(3, 500), dtype=dtype)
    terms = unit_terms(batch, q)
    assert terms.shape == (2, 3, 500)
    for b in range(3):
        assert np.array_equal(terms[:, b], unit_terms(batch[b], q))
    for got, ref in zip(terms, long_double_unit_terms(batch.ravel(), q)):
        assert float(np.max(np.abs(got.ravel().astype(np.longdouble) - ref))) <= _UNIT_TERM_BOUND


@pytest.mark.parametrize("q", [TURN, 4, 8, 4096, 2**30])
def test_unit_terms_exact_on_quarter_turns(q):
    # e(0), e(1/4), e(1/2), e(3/4) are table steps, reduced exactly to a quarter turn
    words = np.array([0, q // 4, q // 2, 3 * q // 4], dtype=np.uint64 if q == TURN else np.int64)
    assert unit_terms(words, q).tolist() == [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]
    # residues may also come as uint64 words, as the discrepancy routes hold them
    assert unit_terms(words.astype(np.uint64), q).tolist() == unit_terms(words, q).tolist()
