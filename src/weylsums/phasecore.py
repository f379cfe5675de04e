"""Exact arithmetic on phases mod 1 and the vectorized term kernels.

A phase is stored as an unsigned 64-bit fraction of a full turn: the integer
``frac`` represents ``frac / 2^64``.  Addition and multiplication by an
integer wrap mod 2^64 and are therefore exact mod 1, which keeps polynomial
phase evaluation free of the N^d rounding growth that floating-point radians
would suffer.  A separate residue path (`RationalPoint`) evaluates phases of
the form a/q with zero quantization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDenominatorError

TURN_BITS = 64
TURN = 1 << TURN_BITS
_MASK = TURN - 1
_INV_TURN = 2.0 ** -64


@dataclass(frozen=True, slots=True)
class Phase:
    """A point of R/Z quantized to the 2^-64 grid."""

    frac: int

    def __post_init__(self):
        object.__setattr__(self, "frac", self.frac & _MASK)

    def __add__(self, other: "Phase") -> "Phase":
        return Phase((self.frac + other.frac) & _MASK)

    def __neg__(self) -> "Phase":
        return Phase((-self.frac) & _MASK)

    def __sub__(self, other: "Phase") -> "Phase":
        return Phase((self.frac - other.frac) & _MASK)

    def times(self, n: int) -> "Phase":
        """Integer multiple n*self, exact mod 1."""
        return Phase((self.frac * (n % TURN)) & _MASK)

    def to_float(self) -> float:
        """Value in [0, 1); loses bits below 2^-53."""
        return self.frac * _INV_TURN


ZERO_PHASE = Phase(0)


def phase_from_rational(a: int, q: int) -> Phase:
    """Nearest representable phase to (a mod q)/q; error <= 2^-65 of a turn."""
    if q < 1:
        raise InvalidDenominatorError(f"denominator must be >= 1, got {q}")
    am = a % q
    # round-to-nearest of am * 2^64 / q (ties away from zero)
    return Phase(((am << (TURN_BITS + 1)) + q) // (2 * q))


def phase_from_float(x: float) -> Phase:
    """Quantize a real number mod 1 to the 2^-64 grid."""
    return Phase(round((x % 1.0) * TURN))


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

    def to_phases(self) -> tuple[Phase, ...]:
        return tuple(phase_from_rational(ai, self.q) for ai in self.a)


# ---------------------------------------------------------------------------
# vectorized kernels shared by the sum evaluators


def frac_array(x_fracs: Sequence, exponents: Sequence[int], lo: int, hi: int) -> np.ndarray:
    """uint64 phase words of the polynomial at n = lo..hi-1 (wrapping mod 2^64).

    Each coefficient is an int, or a (B,) uint64 array for B points at once,
    which gives (B, hi-lo) words; the powers of n are shared by all rows.
    """
    n = np.arange(lo, hi, dtype=np.uint64)
    total = np.zeros(hi - lo, dtype=np.uint64)
    for xf, m in zip(x_fracs, exponents, strict=True):
        pw = np.ones(hi - lo, dtype=np.uint64)
        base = n.copy()
        e = int(m)
        while e:  # power by squaring, each product wraps mod 2^64
            if e & 1:
                pw = pw * base
            base = base * base
            e >>= 1
        total = total + np.asarray(xf & _MASK, dtype=np.uint64)[..., None] * pw
    return total


def residue_array(a: Sequence[int], q: int, exponents: Sequence[int], lo: int, hi: int) -> np.ndarray:
    """Residues of a_1 n^{m_1} + ... + a_d n^{m_d} mod q at n = lo..hi-1, exactly.

    Requires q <= ~3e9 so that all int64 intermediates stay in range.
    """
    if q * q >= 2**62:
        raise ValueError("modulus too large for the int64 residue path")
    n = np.arange(lo, hi, dtype=np.int64) % q
    total = np.zeros(hi - lo, dtype=np.int64)
    for aj, m in zip(a, exponents, strict=True):
        pw = np.ones(hi - lo, dtype=np.int64)
        base = n
        e = int(m)
        while e:
            if e & 1:
                pw = (pw * base) % q
            e >>= 1
            if e:  # no square is needed past the top bit
                base = (base * base) % q
        total = (total + (aj % q) * pw) % q
    return total


def unit_terms(phases01: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of 2*pi*t for an array of phases given in [0, 1)."""
    ang = (2.0 * np.pi) * phases01
    return np.cos(ang), np.sin(ang)
