"""Exact arithmetic on phases mod 1 and the vectorized term kernels.

A phase is stored as an unsigned 64-bit fraction of a full turn: the integer
``frac`` represents ``frac / 2^64``.  Addition and multiplication by an
integer wrap mod 2^64 and are therefore exact mod 1, which keeps polynomial
phase evaluation free of the N^d rounding growth that floating-point radians
would suffer.  A separate residue path (`RationalPoint`) evaluates phases of
the form a/q with zero quantization error.

Both kernels evaluate the polynomial by one Horner scheme (`_horner`, over
`_power` for the exponent gaps) in their own ring: uint64 products wrapping
mod 2^64 for `frac_array`, int64 products reduced mod q for `residue_array`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDenominatorError

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


def _power(base, e: int, mul):
    """base^e for e >= 1 by square-and-multiply in the ring of the product mul.

    Returns base itself for e = 1 and does no square past the top bit.
    """
    result = None
    while True:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if not e:
            return result
        base = mul(base, base)


def _horner(coeffs, exponents, n, mul):
    """c_1 n^{m_1} + ... + c_d n^{m_d} = n^{m_1} (c_1 + n^{m_2-m_1} (c_2 + ...)) in the ring of mul.

    The exponents strictly increase from m_1 >= 1, and each gap costs one
    `_power` and one product, so exponents 1..d take d products and d-1 adds.
    The adds are plain; mul reduces into the ring.
    """
    if len(coeffs) != len(exponents):
        raise ValueError("need one exponent per coefficient")
    t = coeffs[-1]
    for j in range(len(coeffs) - 1, 0, -1):
        t = mul(t, _power(n, exponents[j] - exponents[j - 1], mul))
        t += coeffs[j - 1]
    return mul(t, _power(n, exponents[0], mul))


def frac_array(x_fracs: Sequence, exponents: Sequence[int], lo: int, hi: int) -> np.ndarray:
    """uint64 phase words of the polynomial at n = lo..hi-1 (wrapping mod 2^64).

    Each coefficient is an int, or a (B,) uint64 array for B points at once,
    which gives (B, hi-lo) words; the powers of n are shared by all rows.
    """
    coeffs = [np.asarray(xf & _MASK, dtype=np.uint64)[..., None] for xf in x_fracs]
    return _horner(coeffs, exponents, np.arange(lo, hi, dtype=np.uint64), np.multiply)


def residue_array(a: Sequence[int], q: int, exponents: Sequence[int], lo: int, hi: int) -> np.ndarray:
    """Residues of a_1 n^{m_1} + ... + a_d n^{m_d} mod q at n = lo..hi-1, exactly.

    Requires q^2 < 2^62 (q < 2^31), which keeps every int64 intermediate in
    range: each product takes factors below q, or a Horner sum t + c < 2q
    times a power below q, and 2q * q < 2^63.
    """
    if q * q >= 2**62:
        raise ValueError("modulus too large for the int64 residue path")

    n = np.arange(lo, hi, dtype=np.int64)
    quotient = np.empty_like(n)

    def reduce(r):
        # r % q as r - (r // q) q, in place: numpy floor-divides by a scalar ~3x
        # faster than it takes %, and the quotient goes to the one buffer, since
        # each large temporary freed per chunk costs page faults
        np.floor_divide(r, q, out=quotient)
        np.multiply(quotient, q, out=quotient)
        r -= quotient
        return r

    return _horner([aj % q for aj in a], exponents, reduce(n), lambda u, v: reduce(u * v))


def unit_terms(phases01: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of 2*pi*t for an array of phases given in [0, 1)."""
    ang = (2.0 * np.pi) * phases01
    return np.cos(ang), np.sin(ang)
