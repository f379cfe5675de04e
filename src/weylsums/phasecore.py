"""Exact arithmetic on phases mod 1 and the vectorized term kernels.

A phase is stored as an unsigned 64-bit fraction of a full turn: the integer
``frac`` represents ``frac / 2^64``.  Addition and multiplication by an
integer wrap mod 2^64 and are therefore exact mod 1, which keeps polynomial
phase evaluation free of the N^d rounding growth that floating-point radians
would suffer.  A separate residue path (`RationalPoint`) evaluates phases of
the form a/q with zero quantization error.

Both kernels evaluate the polynomial by one Horner scheme (`_horner`, one
product by n per unit of each exponent gap, written over the accumulator) in
their own ring: uint64 products wrapping mod 2^64 for `frac_array`, and int64
products for `residue_array`, whose accumulator is reduced mod q only where a
product, or the Horner add after it, could reach 2^63.  Which products those
are is decided from bounds known before any array is built (the block's
largest n, q and the coefficients), by one run of the same Horner scheme over
Python ints; n is at most q and the q^2 < 2^62 guard keeps a reduced
accumulator times n below that limit, and one reduction at the end brings
the residues into [0, q).  A loop over blocks passes one `Workspace` to every
call, so the ramp of n, the accumulator and the quotient are allocated once,
for its first block, and reused by every later one.

`unit_terms(words, q)` turns the exact words into the unit terms e(w/q)
without a trig call per term: a table of at most 4097 unit roots per
modulus, built once from exactly reduced angles, gives e of the nearest
step, and one angle-addition step with short polynomials in the exact low
bits adds the rest.  Each component is within 2^-53 + 2^-56 of e(w/q)
(measured: 1.03 2^-53), and q <= 4096 and quarter turns are table reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDenominatorError, PreconditionError

TURN_BITS = 64
TURN = 1 << TURN_BITS
_MASK = TURN - 1


@dataclass(frozen=True, slots=True)
class Phase:
    """A point of R/Z quantized to the 2^-64 grid."""

    frac: int

    def __post_init__(self):
        object.__setattr__(self, "frac", self.frac & _MASK)


def phase_from_rational(a: int, q: int) -> Phase:
    """Nearest representable phase to (a mod q)/q; error <= 2^-65 of a turn."""
    if q < 1:
        raise InvalidDenominatorError(f"denominator must be >= 1, got {q}")
    am = a % q
    # round-to-nearest of am * 2^64 / q (ties away from zero)
    return Phase(((am << (TURN_BITS + 1)) + q) // (2 * q))


@dataclass(frozen=True, slots=True)
class RationalPoint:
    """x = a/q in T_d held exactly as a residue vector mod q."""

    a: tuple[int, ...]
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise InvalidDenominatorError(f"denominator must be >= 1, got {self.q}")
        object.__setattr__(self, "a", tuple(ai % self.q for ai in self.a))

    @property
    def dim(self) -> int:
        return len(self.a)


# ---------------------------------------------------------------------------
# vectorized kernels shared by the sum evaluators


class Workspace:
    """Scratch arrays that the kernels reuse from one block of terms to the next.

    take(name, shape, dtype) is a C-contiguous view of the first entries of
    the one flat buffer held under name for that numpy scalar type, grown only
    for a larger request, so a loop allocates its arrays once, for its first
    and largest block, and a short last block reads prefixes.  Views are kept
    for the next request of the same shape, as blocks repeat their shapes.
    ramp(lo, hi) is n = lo..hi-1 as int64 in a buffer of its own, shifted in
    place from the last call's lo; the kernels read it and never write it.  A
    view holds its values until the next request of its name.  Each kernel
    uses names of its own for what it returns, so one workspace can serve
    several kernels, and they share the name "scratch" for values that die
    when the kernel returns.  A kernel called without one makes a fresh
    workspace, which allocates every array anew.
    """

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}  # (name, dtype) -> its flat buffer
        self._views: dict[tuple, np.ndarray] = {}  # (name, dtype, shape) -> its view
        self._ramp = None
        self._ramp_lo = 0
        self.nbytes = 0  # of every array held

    def take(self, name: str, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        view = self._views.get((name, dtype, shape))
        if view is None:
            size = math.prod(shape)
            buf = self._buffers.get((name, dtype))
            if buf is None or len(buf) < size:
                self.nbytes -= 0 if buf is None else buf.nbytes
                buf = self._buffers[name, dtype] = np.empty(size, dtype=dtype)
                self.nbytes += buf.nbytes
                self._views.clear()  # no view outlives its buffer here
            elif len(self._views) >= 16:
                self._views.clear()  # a few shapes repeat from block to block; the rest need not stay
            view = self._views[name, dtype, shape] = buf[:size].reshape(shape)
        return view

    def ramp(self, lo: int, hi: int) -> np.ndarray:
        ramp = self._ramp
        if ramp is None or len(ramp) < hi - lo:
            self.nbytes -= 0 if ramp is None else ramp.nbytes
            ramp = self._ramp = np.arange(lo, hi, dtype=np.int64)
            self.nbytes += ramp.nbytes
        elif lo != self._ramp_lo:
            ramp += lo - self._ramp_lo
        self._ramp_lo = lo
        return ramp[: hi - lo]


def _horner(coeffs, exponents, n, mul):
    """c_1 n^{m_1} + ... + c_d n^{m_d} = n^{m_1} (c_1 + n^{m_2-m_1} (c_2 + ...)) in the ring of mul.

    The exponents strictly increase from m_1 >= 1, and the accumulator is
    multiplied by n once per unit of each gap, so exponents m_1 < ... < m_d
    take m_d products and d-1 adds.  The accumulator is the first factor of
    every product and n the second, so a mul may write the product over the
    accumulator; the first product's first factor is c_d itself.  The adds
    are plain; mul reduces into the ring.
    """
    if len(coeffs) != len(exponents):
        raise PreconditionError("need one exponent per coefficient")
    t = coeffs[-1]
    for j in range(len(coeffs) - 1, 0, -1):
        for _ in range(exponents[j] - exponents[j - 1]):
            t = mul(t, n)
        t += coeffs[j - 1]
    for _ in range(exponents[0]):
        t = mul(t, n)
    return t


def frac_array(x_fracs: Sequence, exponents: Sequence[int], lo: int, hi: int, work: Workspace | None = None) -> np.ndarray:
    """uint64 phase words of the polynomial at n = lo..hi-1 (wrapping mod 2^64).

    Each coefficient is an int, or a (B,) uint64 array for B points at once,
    which gives (B, hi-lo) words; the powers of n are shared by all rows.  The
    words are a view of work's accumulator, valid until its next call.
    """
    work = Workspace() if work is None else work
    coeffs = [np.asarray(xf & _MASK, dtype=np.uint64) for xf in x_fracs]
    shape = (*max((c.shape for c in coeffs), default=()), hi - lo)
    # a 0-d coefficient stays 0-d: numpy broadcasts it faster than a (1,) array
    coeffs = [c[:, None] if c.ndim else c for c in coeffs]
    acc = work.take("acc", shape, np.uint64)
    return _horner(coeffs, exponents, work.ramp(lo, hi).view(np.uint64), functools.partial(np.multiply, out=acc))


def residue_array(
    a: Sequence[int], q: int, exponents: Sequence[int], lo: int, hi: int, work: Workspace | None = None
) -> np.ndarray:
    """Residues of a_1 n^{m_1} + ... + a_d n^{m_d} mod q at n = lo..hi-1, exactly.

    The accumulator is reduced mod q before a product only where int64
    could overflow.  Before any array is built, `_horner` runs once over
    Python-int bounds on the magnitudes, in the same call sequence:
    |n| <= max(hi - 1, -lo), or q - 1 once n is reduced, which it is first
    if it passes q, and each coefficient bounds itself after its reduction
    mod q.  For each product the run records whether to reduce the
    accumulator, to below q, so that the product stays at most 2^63 - q,
    which leaves room for the Horner add of a coefficient c < q after it.
    The guard q^2 < 2^62 (q < 2^31) makes that enough: n is at most q, so a
    reduced accumulator times n is at most (q - 1) q <= 2^63 - q, and n is
    never the factor to reduce.  The arrays then follow the record, with no
    scan of the data, each product written over the one accumulator buffer
    of work, and one reduction at the end brings every residue into [0, q).
    The residues are a view of work, valid until its next call.
    """
    q = int(q)  # the bounds below are Python ints, whatever integer type the caller passed
    if q * q >= 2**62:
        raise PreconditionError("modulus too large for the int64 residue path, which needs q < 2^31")
    coeffs = [int(aj) % q for aj in a]
    top = max(int(hi) - 1, -int(lo))  # |n| <= top
    reduce_n = top > q
    limit = 2**63 - q
    plan = []

    def plan_product(t, n):
        reduce_t = t * n > limit
        plan.append(reduce_t)
        return (q - 1 if reduce_t else t) * n

    _horner(coeffs, exponents, q - 1 if reduce_n else top, plan_product)

    work = Workspace() if work is None else work
    n = work.ramp(lo, hi)
    quotient = work.take("quotient", n.shape, np.int64)
    acc = work.take("acc", n.shape, np.int64)

    def reduce(r, out=None):
        # r % q as r - (r // q) q, in place unless out is given: numpy
        # floor-divides by a scalar ~3x faster than it takes %
        np.floor_divide(r, q, out=quotient)
        np.multiply(quotient, q, out=quotient)
        return np.subtract(r, quotient, out=r if out is None else out)

    if reduce_n:  # into a buffer of its own, as the ramp is read-only
        n = reduce(n, work.take("n mod q", n.shape, np.int64))
    steps = iter(plan)

    def product(t, n):
        if next(steps):
            reduce(t)
        return np.multiply(t, n, out=acc)

    return reduce(_horner(coeffs, exponents, n, product))


# Unit terms e(w/q) of exact phase words: a table of unit roots and one
# angle-addition step (the table-lookup method of Tang, ARITH 1991).

_TABLE_BITS = 12
_TWO52 = 2.0**52


@functools.lru_cache(maxsize=32)
def _unit_root_table(q: int):
    """(table, constants) of `unit_terms` at the modulus q, built once per q.

    A word w < q is j 2^k + u with k = max(0, bitlen(q - 1) - 12), j the
    nearest step and -2^(k-1) <= u < 2^(k-1).  table is the read-only (2, J)
    array of cos and sin of 2 pi (j 2^k mod q) / q for the
    J = ((q - 1 + 2^(k-1)) >> k) + 1 <= 4097 steps (64 KiB; a 2^64 word wraps
    to j < 4096), so the rest t = 2 pi u / q has |t| <= T = pi 2^k / q,
    which is below pi / 2048, and pi / 4096 at q = 2^64.  Each angle is
    reduced exactly to a quarter turn plus |g| <= 1/8 turn, so quarter turns
    are exact; cos and sin of 2 pi g are taken in long double and rounded
    once to float64.  constants are 2^(k-1), k and 2^k - 1 as 0-d uint64,
    uint64 and int64, then 2^52 + 2^(k-1), c2, c4, s1 and s3 as 0-d float64 with
    cos t - 1 = c2 u^2 + c4 u^4 (the t^6 term is below 2^-65) and
    sin t = s1 u + s3 u^3, the t^5 term folded into s1 and s3 by Chebyshev
    economization on |t| <= T (error below T^5 / 1920 < 2^-57).  They are
    None for k = 0, where every word is a step.
    """
    k = max(0, (q - 1).bit_length() - _TABLE_BITS)
    half = (1 << k) >> 1
    # the angle of j is 2 pi (r / 4 + g) with r quarter turns and |g| <= 1/8; 4 j 2^k - r q is exact
    # in float64 (at most 14 significant bits for q = 2^64, below 2^35 else)
    num4 = np.arange(((q - 1 + half) >> k) + 1, dtype=np.float64) * 2.0 ** (k + 2)
    r = np.rint(num4 / float(q))
    two_pi = 8 * np.arctan(np.longdouble(1))
    angle = two_pi * ((num4 - r * float(q)).astype(np.longdouble) / np.longdouble(4.0 * q))
    c, s = np.cos(angle), np.sin(angle)
    quarter = r.astype(np.int64) % 4
    table = np.array([np.choose(quarter, (c, -s, -c, s)), np.choose(quarter, (s, c, -s, -c))], dtype=np.float64)
    table.flags.writeable = False  # shared by every caller
    if k == 0:
        return table, None
    a = two_pi / np.longdouble(float(q))
    tt = (a * half) ** 2  # T^2
    coeffs = (_TWO52 + half, -a**2 / 2, a**4 / 24, a * (1 - tt * tt / 384), a**3 * (tt / 96 - np.longdouble(1) / 6))
    # read-only 0-d arrays: a ufunc takes them faster than Python or numpy scalars
    ints = (_frozen(half, np.uint64), _frozen(k, np.uint64), _frozen((1 << k) - 1, np.int64))
    return table, ints + tuple(_frozen(c, np.float64) for c in coeffs)


def _frozen(value, dtype) -> np.ndarray:
    a = np.array(value, dtype=dtype)
    a.flags.writeable = False
    return a


_TWO52_BITS = _frozen(np.float64(_TWO52).view(np.int64), np.int64)  # the exponent bits of 2^52


def unit_terms(words: np.ndarray, q: int, work: Workspace | None = None) -> np.ndarray:
    """e(w/q) of every exact phase word w as one (2, *words.shape) array: its cosines, then its sines.

    words are uint64 phase words with q = 2^64, or residues in [0, q) with
    q < 2^31 (int64, or uint64).  No term calls a trig function: w = j 2^k + u
    is the table entry e(A) at its nearest step j times e(t) of its exact
    rest u, by one angle-addition step, cos = cos A + (cos A (cos t - 1) -
    sin A sin t) and sin = sin A + (sin A (cos t - 1) + cos A sin t), with
    cos t - 1 and sin t short polynomials in u (`_unit_root_table`).  A word
    on a step, w = 0 among them, is its table entry exactly, and for
    q <= 4096 every word is.  Each component is within 2^-53 + 2^-56 of the
    exact value: half an ulp for the table entry and for the last addition,
    and the rest from the small correction.  The terms, and four rows of
    words' shape as scratch, come from work; the terms are valid until its
    next call.
    """
    return _unit_terms(words, *_unit_root_table(q), work)


def _unit_terms(words: np.ndarray, table, constants, work: Workspace | None) -> np.ndarray:  # at a `_unit_root_table`
    work = Workspace() if work is None else work
    terms = work.take("terms", (2, *words.shape), np.float64)
    # the indices are in range; "wrap" skips the copy that take(out=) makes under "raise"
    if constants is None:
        return table.take(words.view(np.int64), axis=1, out=terms, mode="wrap")
    half_k, k, mask, shifted_half, c2, c4, s1, s3 = constants
    u, u2, sin_t, spent = work.take("scratch", (4, *words.shape), np.float64)
    # unsigned, as residues are nonnegative: a 2^64 word wraps to j = 0, and the shift is logical; each
    # op writes its own dtype, so that numpy runs no casting loop
    v = np.add(words.view(np.uint64), half_k, out=spent.view(np.uint64))
    table.take(np.right_shift(v, k, out=u.view(np.uint64)).view(np.int64), axis=1, out=terms, mode="wrap")
    low = v.view(np.int64)
    low &= mask
    low |= _TWO52_BITS  # the double 2^52 + low, exactly, as low < 2^k <= 2^52
    np.subtract(low.view(np.float64), shifted_half, out=u)  # exact: |u| <= 2^51
    np.multiply(u, u, out=u2)
    np.multiply(u2, s3, out=sin_t)
    sin_t += s1
    sin_t *= u
    cos_t1 = np.multiply(u2, c4, out=u)
    cos_t1 += c2
    cos_t1 *= u2
    # the corrections go to the spent scratch rows, the index words among them
    cos_a, sin_a = terms
    corr_c = np.multiply(cos_a, cos_t1, out=u2)
    corr_c -= np.multiply(sin_a, sin_t, out=spent)
    corr_s = np.multiply(sin_a, cos_t1, out=cos_t1)
    corr_s += np.multiply(cos_a, sin_t, out=sin_t)
    cos_a += corr_c
    sin_a += corr_s
    return terms
