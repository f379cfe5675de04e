"""Exact discrepancy of polynomial sequences mod 1.

D_N = sup over open intervals (a, b), 0 <= a < b <= 1, of
|#{n <= N : x_n in (a, b)} - (b - a) N|  (unnormalized).

Point sets live on the 2^-64 phase grid, so every candidate value of the sup
is an integer over the denominator 2^64 and the whole computation is exact
integer arithmetic.  The sup over open intervals is attained in the limit at
sample values: an excess interval shrinks onto the extreme points it
contains, a deficit interval expands until its open endpoints sit exactly on
samples (or 0/1).  That endpoint restriction gives the algorithm: sort, then
one linear pass.  The O(N^2) oracle over the full endpoint grid with all four
one-sided-limit combinations lives in the test suite and must agree exactly.

Open-interval fine print, followed literally: a point at 0 can never lie in
(a, b) with a >= 0, so zeros count toward N but are invisible to every
interval — the all-zero sequence has D_N = N via (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Sequence

from .errors import LemmaCheckFailureError, PreconditionError
from .phasecore import TURN, phase_from_rational
from .weyl_sums import _chunks, _phase_words, checkpoint_grid, weyl_sum, weyl_sum_trace

KOKSMA_CONSTANT = 2.0 * pi  # total variation of t -> e(t) on [0, 1]


@dataclass(frozen=True)
class PointSet1D:
    """Sorted fractional parts as exact 2^-64 grid numerators."""

    fracs: tuple[int, ...]

    def __post_init__(self):
        if any(not 0 <= f < TURN for f in self.fracs):
            raise PreconditionError("fractional parts must lie in [0, 1)")
        if any(b < a for a, b in zip(self.fracs, self.fracs[1:])):
            raise PreconditionError("point set must be sorted")

    @property
    def count(self) -> int:
        return len(self.fracs)

    def values(self) -> list[float]:
        return [f / TURN for f in self.fracs]


def poly_sequence(x, N: int, m: Sequence[int] | None = None) -> PointSet1D:
    """Fractional parts of the polynomial phase at n = 1..N, sorted."""
    if N < 1:
        raise PreconditionError("N must be >= 1")
    return PointSet1D(fracs=tuple(sorted(_sequence_fracs(x, N, m))))


def _sequence_fracs(x, N: int, m) -> list[int]:
    """2^-64 grid numerators of the phases at n = 1..N; a/q rounds to its nearest grid point."""
    words, q = _phase_words(x, m)
    out: list[int] = []
    for lo, hi in _chunks(N):
        w = words(lo, hi).tolist()
        out.extend(w if q == TURN else (phase_from_rational(v, q).frac for v in w))
    return out


def _discrepancy_units(sorted_fracs: Sequence[int], N: int) -> int:
    """Exact D_N * 2^64 over the sorted multiset of N grid fractions.

    With x_0 <= ... <= x_{K-1} the positive points and g_k = N x_k - k (units
    of 2^-64), an interval shrunk onto points s..t has excess 1 + g_s - g_t
    and the open interval (x_s, x_t), s < t, has deficit 1 + g_t - g_s.  Under
    ties both are lower bounds, exact at the ends of each run, so
    D_N = 1 + max g - min g.  The endpoints enter as two more gaps, each on
    the one side where it can act: b = 1 as N - K in the max, a = 0 as 1 in
    the min.
    """
    pos = [f for f in sorted_fracs if f > 0]
    gaps = [v * N - k * TURN for k, v in enumerate(pos)]
    return TURN + max(gaps + [(N - len(pos)) * TURN]) - min(gaps + [TURN])


def discrepancy_exact(S: PointSet1D) -> float:
    """Exact unnormalized discrepancy D_N (float image of an exact dyadic)."""
    if S.count < 1:
        raise PreconditionError("need N >= 1")
    return _discrepancy_units(S.fracs, S.count) / TURN


def star_discrepancy(S: PointSet1D) -> float:
    """D*_N = N * sup_t |#{x_n < t}/N - t| via the sorted-sample formula."""
    if S.count < 1:
        raise PreconditionError("need N >= 1")
    return _star_units(S.fracs, S.count) / TURN


def _star_units(sorted_fracs: Sequence[int], N: int) -> int:
    """Exact D*_N * 2^64: with g_k = N x_k - k over all points, max(max g, 1 - min g)."""
    gaps = [v * N - k * TURN for k, v in enumerate(sorted_fracs)]
    return max(max(gaps), TURN - min(gaps))


@dataclass(frozen=True)
class KoksmaReport:
    N: int
    s_magnitude: float
    d_star: float
    bound: float
    ratio: float
    passed: bool


def koksma_relation_check(x, N: int, m: Sequence[int] | None = None) -> KoksmaReport:
    """Assert |S(x;N)| <= 2*pi*D*_N + 1e-6 (explicit Koksma constant)."""
    seq = poly_sequence(x, N, m)
    s_mag = abs(weyl_sum(x, N, m))
    d_star = star_discrepancy(seq)
    bound = KOKSMA_CONSTANT * d_star + 1e-6
    report = KoksmaReport(
        N=N,
        s_magnitude=s_mag,
        d_star=d_star,
        bound=bound,
        ratio=s_mag / d_star if d_star > 0 else 0.0,
        passed=s_mag <= bound,
    )
    if not report.passed:
        raise LemmaCheckFailureError(f"Koksma check failed at N={N}: |S| = {s_mag} > {bound}")
    return report


def _sorted_prefixes(x, n_max: int, m: Sequence[int] | None):
    """(N, sorted fractions of n = 1..N) at each checkpoint; one list grows in place.

    Timsort finds the sorted prefix as one run and merges the new points into it.
    """
    fracs = _sequence_fracs(x, n_max, m)
    prefix: list[int] = []
    for n in checkpoint_grid(n_max):
        prefix.extend(fracs[len(prefix):n])
        prefix.sort()
        yield n, prefix


def discrepancy_scan(x, alpha: float, n_max: int, m: Sequence[int] | None = None) -> list[int]:
    """Checkpoints N <= N_max with D_N >= N^alpha (same grid as exceptional_scan).

    The point multiset grows incrementally; D is recomputed exactly at each
    checkpoint.
    """
    if not 0.0 < alpha < 1.0:
        raise PreconditionError("need 0 < alpha < 1")
    # D_N is exact; the transcendental threshold N^alpha is compared at
    # float precision (exact integer ties like D_1 = 1 = 1^alpha survive)
    return [
        n
        for n, prefix in _sorted_prefixes(x, n_max, m)
        if _discrepancy_units(prefix, n) / TURN >= float(n) ** alpha
    ]


def scan_rows(x, n_max: int, m: Sequence[int] | None = None) -> list[tuple[int, float, float, float, float]]:
    """(N, D_N, D*_N, |S|, |S|/D*) rows over the checkpoint grid, for CSV output."""
    trace = weyl_sum_trace(x, checkpoint_grid(n_max), m)
    rows = []
    for (n, prefix), mag in zip(_sorted_prefixes(x, n_max, m), trace.magnitudes):
        d_n = _discrepancy_units(prefix, n) / TURN
        d_star = _star_units(prefix, n) / TURN
        rows.append((n, d_n, d_star, mag, mag / d_star if d_star else 0.0))
    return rows
