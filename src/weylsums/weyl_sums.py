"""Streaming evaluation of Weyl sums and their scaling diagnostics.

S(x; N) = sum_{n=1}^{N} e(x_1 n^{m_1} + ... + x_d n^{m_d}) with default
exponents (1, ..., d).  Coefficients are either quantized `Phase` values
(wrapping uint64 words, exact mod 1) or an exact `RationalPoint` a/q that is
evaluated through residue arithmetic mod q.

Every point becomes its exact phases in one place (`_phase_words`), and every
sum, trace and scan reduces them in one loop (`_accumulate`), which also takes
a batch of points as rows of one array (`weyl_sum_batch`).

Terms: the loop passes each chunk of exact words and q to
`phasecore.unit_terms`, its one call of the term kernel, which gives each
component within 2^-53 + 2^-56 of e(phase), from a table of unit roots and
one angle-addition step, with no trig call per term.

Exact accumulation: terms are generated in fixed chunks of 2^16 and each
chunk is reduced once by an exact reducer (`_exact_prefix_sums`), which splits
every term into 37-bit integer limbs and sums each limb exactly in float64.
The chunk loop carries the joined limb sums as one Python int per row, and
each value is that int rounded once by int true division.  S(x; N) is
therefore the correctly rounded sum of all N terms -- math.fsum(terms[:N]).
The reduction adds one rounding to the term errors, so the total stays below
N ulp, inside the 4*N*ulp budget, and a trace equals a fresh evaluation bit
for bit at every checkpoint.  The terms repeat with the period q of the
point, so only n = 1..min(q, N) are generated: a rational point a/q is summed
over one period, S(N) = floor(N/q) I(q) + I(N mod q) on the exact ints, with
the same one rounding.  A `Phase` point has q = 2^64 > N, so nothing folds.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import log
from typing import Iterator, Sequence

import numpy as np

from .errors import LemmaCheckFailureError, PreconditionError
from .phasecore import (
    TURN,
    Phase,
    RationalPoint,
    frac_array,
    residue_array,
    unit_terms,
)

CHUNK = 1 << 16

TorusPoint = tuple[Phase, ...]


def exponent_vector(m: Sequence[int]) -> tuple[int, ...]:
    """Validated sparse exponent vector: strictly increasing, m_1 >= 1."""
    m = tuple(map(int, m))
    if not m or m[0] < 1 or any(b <= a for a, b in zip(m, m[1:])):
        raise PreconditionError(f"exponents must be strictly increasing positive integers, got {m}")
    return m


def _phase_words(x, m: Sequence[int] | None):
    """Normalize (x, m) once: (words, q) with words(lo, hi) the exact phases of n = lo..hi-1.

    The phase of n is words(lo, hi)[..., n - lo] / q mod 1: uint64
    `frac_array` words with q = 2^64 for a `Phase` or a tuple of them,
    `residue_array` residues with q = x.q for a `RationalPoint`.  A (B, d)
    uint64 array is a batch of B `Phase` points, one row each, and gives
    (B, hi-lo) words.  The exponents default to 1..d and must match the point
    dimension.
    """
    if isinstance(x, Phase):
        x = (x,)
    exact = isinstance(x, RationalPoint)
    if exact:
        coeffs = x.a
    elif isinstance(x, np.ndarray):
        coeffs = list(x.T)
    else:
        coeffs = [xi.frac for xi in x]
    exps = exponent_vector(m if m is not None else range(1, len(coeffs) + 1))
    if len(exps) != len(coeffs):
        raise PreconditionError("exponent vector length must match the point dimension")
    if exact:
        q = x.q
        return (lambda lo, hi: residue_array(coeffs, q, exps, lo, hi)), q
    return (lambda lo, hi: frac_array(coeffs, exps, lo, hi)), TURN


def _chunks(N: int) -> Iterator[tuple[int, int]]:
    lo = 1
    while lo <= N:
        hi = min(lo + CHUNK, N + 1)
        yield lo, hi
        lo = hi


_LIMB_BITS = 37
_LIMB_SCALE = float(1 << _LIMB_BITS)


def _exact_prefix_sums(terms: np.ndarray, ends: Sequence[int]) -> tuple[list[list[int]], int]:
    """Exact sums of terms[:, :k] as ints over 2^(37 L): (one list over the rows for each k in ends, L).

    terms is (rows, n) with |terms| <= 1 and n <= 2^16; ends strictly
    increase from k >= 1.  The scaled terms are peeled into integer limbs of
    37 bits, x = trunc(x) + (x - trunc(x)) then x *= 2^37, until the remainder
    is zero everywhere: every split is exact and any finite double runs out of
    bits, so no exponent range is assumed.  Each limb is an integer of
    magnitude <= 2^37, so with n <= 2^16 every partial sum is an integer of
    magnitude <= 2^53 and float64 sums them exactly in any order.  The L limb
    sums at each k join into one Python int I with I / 2^(37 L) the exact sum;
    int true division rounds it correctly (half to even), as fsum does.
    """
    starts = [0, *ends[:-1]]
    x = terms * _LIMB_SCALE
    whole = np.empty(x.shape)
    segments = []
    while True:
        np.trunc(x, out=whole)
        segments.append(np.add.reduceat(whole, starts, axis=-1).T)
        np.subtract(x, whole, out=x)
        if not np.logical_or.reduce(x, axis=None):  # x.any() without its Python wrapper
            break
        x *= _LIMB_SCALE
    limb_sums = np.array(segments).cumsum(axis=1).astype(np.int64).reshape(len(segments), -1).tolist()
    acc = limb_sums[0]
    for limb in limb_sums[1:]:
        acc = [(a << _LIMB_BITS) + b for a, b in zip(acc, limb)]
    rows = len(terms)
    return [acc[j : j + rows] for j in range(0, len(acc), rows)], len(limb_sums)


def _plus(acc: list[int], ints: list[int], shift: int) -> list[int]:
    """acc + ints * 2^shift, row by row; ints itself while acc is still empty."""
    return [a + (v << shift) for a, v in zip(acc, ints)] if acc else ints


def _accumulate(words, q: int, cps: Sequence[int]) -> list[list[complex]]:
    """S at each of the strictly increasing checkpoints, per row: the correctly rounded sum of its terms.

    words(lo, hi) gives the exact phases of n = lo..hi-1 over q, (hi-lo,) for
    one point or (rows, hi-lo) for a batch, as `_phase_words` returns them,
    so the terms repeat with period q in n.  Each chunk's words go through
    `unit_terms` here, the one call of the term kernel for every sum, trace
    and batch.  Only n = 1..P, P = min(q, N_max), are generated.  The loop
    carries one exact int per row over 2^(37 L), shifting it to the larger
    scale when a chunk needs more limbs than the chunks before, and keeps the
    exact prefix I(r) at each offset r = N mod P > 0.  Every checkpoint is then
    floor(N/P) I(P) + I(N mod P) rounded once by int true division, so it
    equals math.fsum over all N of its terms.
    """
    period = min(q, cps[-1])
    offsets = sorted({n % period for n in cps} - {0}) if period < cps[-1] else cps[:-1]
    prefix: dict[int, tuple[list[int], int]] = {}  # offset -> its ints per row, their L
    acc: list[int] = []
    scale = oi = 0
    for lo, hi in _chunks(period):
        terms = unit_terms(words(lo, hi), q).reshape(-1, hi - lo)  # the cos rows, then the sin rows
        oj = bisect_left(offsets, hi, oi)
        ends = [r - lo + 1 for r in offsets[oi:oj]]
        if not ends or ends[-1] < hi - lo:
            ends.append(hi - lo)
        sums, limbs = _exact_prefix_sums(terms, ends)
        if not acc:
            scale = limbs
        elif limbs > scale:
            acc = [a << _LIMB_BITS * (limbs - scale) for a in acc]
            scale = limbs
        shift = _LIMB_BITS * (scale - limbs)
        if oj > oi:
            for r, col in zip(offsets[oi:oj], sums):
                prefix[r] = _plus(acc, col, shift), scale
            oi = oj
        acc = _plus(acc, sums[-1], shift)
    den = 1 << _LIMB_BITS * scale
    values = []
    for n in cps:
        k, r = divmod(n, period)
        total = acc if k == 1 else [k * a for a in acc]
        if r:
            ints, limbs = prefix[r]
            total = _plus(total, ints, _LIMB_BITS * (scale - limbs))
        values.append([t / den for t in total])
    rows = len(acc) // 2
    return [[complex(v[r], v[rows + r]) for v in values] for r in range(rows)]


def weyl_sum(x, N: int, m: Sequence[int] | None = None) -> complex:
    """S(x; N) with certified accumulation error below N ulp."""
    if N < 1:
        raise PreconditionError("N must be >= 1")
    return _checked(_accumulate(*_phase_words(x, m), (N,))[0][0], N)


def weyl_sum_batch(words: np.ndarray, N: int) -> list[complex]:
    """S(x_b; N) for each row x_b of a (B, d) uint64 array of phase words.

    Entry b is bit-identical to weyl_sum(tuple(Phase(w) for w in words[b]), N):
    the rows share one chunk loop and each is reduced exactly on its own.
    Exponents are 1..d.
    """
    if N < 1:
        raise PreconditionError("N must be >= 1")
    return [_checked(v[0], N) for v in _accumulate(*_phase_words(words, None), (N,))]


def _checked(value: complex, N: int) -> complex:
    # trivial bound |S| <= N, with a few ulps of slack for the rounded terms
    if abs(value) > N * (1.0 + 1e-12):
        raise LemmaCheckFailureError(f"trivial bound violated: |S| = {abs(value)} > N = {N}")
    return value


def monomial_sum(x, N: int, d: int) -> complex:
    """sigma_d(x; N) = sum e(x n^d); same evaluator as weyl_sum with m=(d,)."""
    if d < 2:
        raise PreconditionError("monomial sums are for d >= 2")
    return weyl_sum(x, N, m=(d,))


@dataclass(frozen=True)
class SumTrace:
    """(N, S(x;N)) samples along strictly increasing checkpoints."""

    checkpoints: tuple[int, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise PreconditionError("checkpoints must be strictly increasing")
        for n, v in zip(self.checkpoints, self.values):
            if abs(v) > n * (1.0 + 1e-12):
                raise PreconditionError("trace magnitude exceeds the trivial bound")

    @property
    def magnitudes(self) -> tuple[float, ...]:
        return tuple(abs(v) for v in self.values)

    def rows(self) -> list[tuple[int, float, float, float]]:
        return [(n, v.real, v.imag, abs(v)) for n, v in zip(self.checkpoints, self.values)]


def weyl_sum_trace(x, checkpoints: Sequence[int], m: Sequence[int] | None = None) -> SumTrace:
    """One generation pass; each entry bit-identical to a fresh weyl_sum call."""
    cps = tuple(int(n) for n in checkpoints)
    if not cps or cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
        raise PreconditionError("checkpoints must be strictly increasing and >= 1")
    return _trace(*_phase_words(x, m), cps)


def _word_trace(words: np.ndarray, q: int, cps: tuple[int, ...]) -> SumTrace:
    """`weyl_sum_trace` over phase words already generated: words[n - 1] / q is the phase of n.

    words holds n = 1..N for some N >= min(q, cps[-1]), as `_phase_words`
    gives them, and cps is a valid checkpoint tuple.  Only the first
    min(q, cps[-1]) words are read, so the trace is bit-identical to
    `weyl_sum_trace` of the point the words came from.
    """
    return _trace(lambda lo, hi: words[lo - 1 : hi - 1], q, cps)


def _trace(words, q: int, cps: tuple[int, ...]) -> SumTrace:
    values = _accumulate(words, q, cps)[0]
    return SumTrace(checkpoints=cps, values=tuple(_checked(v, n) for n, v in zip(cps, values)))


DENSE_LIMIT = 1000  # the checkpoint grid holds every N up to here


def checkpoint_grid(n_max: int) -> tuple[int, ...]:
    """Every N up to min(n_max, DENSE_LIMIT), then the powers of two past DENSE_LIMIT up to n_max."""
    if n_max < 1:
        raise PreconditionError("N_max must be >= 1")
    dense = range(1, min(n_max, DENSE_LIMIT) + 1)
    return (*dense, *(1 << k for k in range(DENSE_LIMIT.bit_length(), n_max.bit_length())))


def dyadic_grid(n_max: int, start_exp: int = 4) -> tuple[int, ...]:
    if n_max < 2**start_exp:
        raise PreconditionError(f"N_max must be >= {2 ** start_exp}")
    return tuple(2**k for k in range(start_exp, n_max.bit_length()) if 2**k <= n_max)


# ---------------------------------------------------------------------------
# Menshov-Rademacher diagnostics


@dataclass(frozen=True)
class MrScanReport:
    checkpoints: tuple[int, ...]
    ratios: tuple[float, ...]
    max_ratio: float


def mr_ratio_scan(x, n_max: int, m: Sequence[int] | None = None) -> MrScanReport:
    """max over dyadic N <= N_max of |S(x;N)| / (N^{1/2} (log N)^{3/2}).

    Reported, never asserted: the almost-everywhere bound says nothing about
    an individual x.
    """
    if n_max < 16:
        raise PreconditionError("N_max must be >= 16")
    cps = dyadic_grid(n_max)
    trace = weyl_sum_trace(x, cps, m)
    ratios = tuple(
        mag / (n**0.5 * log(n) ** 1.5) for n, mag in zip(cps, trace.magnitudes)
    )
    return MrScanReport(checkpoints=cps, ratios=ratios, max_ratio=max(ratios))


@dataclass(frozen=True)
class SigmaEstimate:
    value: float
    degenerate: bool


def sigma_estimate(trace: SumTrace) -> SigmaEstimate:
    """Finite-scale upper envelope of the growth exponent.

    Max of log|S|/log N over the largest half of the checkpoints; a max (not a
    regression) because the target is a limsup.  All-zero traces return 0 with
    the degenerate flag set.
    """
    if len(trace.checkpoints) < 8:
        raise PreconditionError("need at least 8 trace entries")
    tail = len(trace.checkpoints) // 2
    best = None
    for n, mag in list(zip(trace.checkpoints, trace.magnitudes))[tail:]:
        if mag <= 0.0 or n < 2:
            continue
        v = log(mag) / log(n)
        best = v if best is None or v > best else best
    if best is None:
        return SigmaEstimate(value=0.0, degenerate=True)
    return SigmaEstimate(value=best, degenerate=False)


def exceptional_scan(x, alpha: float, n_max: int, m: Sequence[int] | None = None) -> list[int]:
    """Checkpoints N <= N_max with |S(x;N)| >= N^alpha (finite-scale E-set probe)."""
    if not 0.0 < alpha < 1.0:
        raise PreconditionError("need 0 < alpha < 1")
    cps = checkpoint_grid(n_max)
    trace = weyl_sum_trace(x, cps, m)
    return [n for n, mag in zip(cps, trace.magnitudes) if mag >= float(n) ** alpha]
