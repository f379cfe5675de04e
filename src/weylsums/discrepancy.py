"""Exact discrepancy of polynomial sequences mod 1.

D_N = sup over open intervals (a, b), 0 <= a < b <= 1, of
|#{n <= N : x_n in (a, b)} - (b - a) N|  (unnormalized).

Point sets live on the 2^-64 phase grid, so every candidate value of the sup
is an integer over the denominator 2^64 and the whole computation is exact
integer arithmetic.  The sup over open intervals is attained in the limit at
sample values: an excess interval shrinks onto the extreme points it
contains, a deficit interval expands until its open endpoints sit exactly on
samples (or 0/1).  That gives closed forms over the sorted points (`_units`).
The O(N^2) oracle over the full endpoint grid with all four
one-sided-limit combinations lives in the test suite and must agree exactly.

Each gap g = N x_k - k 2^64 is exact in two int64 words: with
x = hi 2^32 + lo, g = A 2^32 + B for A = N hi - k 2^32 + (N lo >> 32) and
B = N lo mod 2^32, so max g is the lexicographic max of (A, B).  Both words
fit for N < 2^31; larger N is refused.  Every D reads sorted rows, each
row's own points first.  The dense checkpoints N = 1..1000 (`DENSE_LIMIT`)
run 32 at a time, one row per N: the points 1..N, padded with 2^64 - 1, are
sorted along the rows.  Each dyadic checkpoint sorts its prefix in place.
Koksma rows run in blocks: one pass of phase words, one sum and one padded
row sort per block serve both sides.

Open-interval fine print, followed literally: a point at 0 can never lie in
(a, b) with a >= 0, so zeros count toward N but are invisible to every
interval — the all-zero sequence has D_N = N via (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Sequence

import numpy as np

from .errors import LemmaCheckFailureError, PreconditionError, _check_size
from .phasecore import TURN, Workspace
from .weyl_sums import CHUNK, DENSE_LIMIT, _accumulate, _chunks, _phase_words, _trace, checkpoint_grid

KOKSMA_CONSTANT = 2.0 * pi  # total variation of t -> e(t) on [0, 1]
N_LIMIT = 1 << 31  # the gaps N x - k fit two int64 words below this
_LO = (1 << 32) - 1
_BLOCK = 32  # dense checkpoints per pass, a (32, 1000) block of sorted rows of 250 KiB, and Koksma rows per block


@dataclass(frozen=True, eq=False)
class PointSet1D:
    """Sorted fractional parts as exact 2^-64 grid numerators, held as a read-only uint64 copy."""

    fracs: np.ndarray

    def __post_init__(self):
        fracs = self.fracs
        if isinstance(fracs, np.ndarray) and fracs.dtype != np.uint64:
            fracs = fracs.tolist()  # a cast from a signed array would wrap negatives silently
        try:
            fracs = np.array(fracs, dtype=np.uint64)
        except OverflowError:  # a Python int outside [0, 2^64)
            raise PreconditionError("fractional parts must lie in [0, 1)") from None
        if (fracs[1:] < fracs[:-1]).any():
            raise PreconditionError("point set must be sorted")
        fracs.flags.writeable = False
        object.__setattr__(self, "fracs", fracs)

    @property
    def count(self) -> int:
        return len(self.fracs)

    def values(self) -> list[float]:
        return (self.fracs * 2.0**-64).tolist()


def _sequence_words(x, N: int, m) -> tuple[np.ndarray, int]:
    """(words, q): the exact phases words[..., n - 1] / q of n = 1..N as uint64, one row per point of a (B, d) array."""
    if not 1 <= N < N_LIMIT:
        raise PreconditionError(f"need 1 <= N < 2^31 for the exact int64 discrepancy, got {N}")
    rows = len(x) if isinstance(x, np.ndarray) else 1
    _check_size(f"{rows} x {{}} phase words exceed the cap of {{}}", N, factor=rows)
    words, q = _phase_words(x, m, N)
    out = np.empty((rows, N) if isinstance(x, np.ndarray) else N, dtype=np.uint64)
    work = Workspace()
    for lo, hi in _chunks(N):
        out[..., lo - 1:hi - 1] = words(lo, hi, work)
    return out, q


def _grid_fracs(words: np.ndarray, q: int) -> np.ndarray:
    """The phases words / q as 2^-64 grid numerators, written over the words; for q = 2^64 they are the words."""
    if q == TURN:
        return words
    # phase_from_rational's round(v 2^64 / q) = v Q + (2 v R + q) // (2 q) with 2^64 = Q q + R,
    # exact in uint64 for residues v < q < 2^31 (2 v R + q < 2^63), and wrapping mod 2^64
    Q, R = divmod(TURN, q)
    rounding = np.multiply(words, 2 * R)
    np.floor_divide(np.add(rounding, q, out=rounding), 2 * q, out=rounding)
    return np.add(np.multiply(words, Q & (TURN - 1), out=words), rounding, out=words)


def _units(n, x, valid) -> list[tuple[int, int]]:
    """Exact (D_N, D*_N) * 2^64 of each row (N = n) of sorted uint64 points x (rows, M), its valid points first.

    With x_0 <= ... <= x_{N-1} the row's first N entries, a point's rank k its
    position, and g_k = N x_k - k (units of 2^-64), points s..t have excess
    1 + g_s - g_t and the open (x_s, x_t) deficit 1 + g_t - g_s, exact at the
    ends of runs of ties, so D_N = 1 + max g - min g and
    D*_N = max(max g, 1 - min g) (Niederreiter 1992, Thm 2.6).  Open intervals
    see only the positive points, plus the endpoints b = 1 and a = 0 as two
    more terms; all N points, zeros ranked first, give the same value: the
    zeros' gaps 0, -1, ..., 1 - zeros are those terms, and with no zeros the
    terms never act, as g_0 >= 0 and g_{N-1} < 1.  max g is the lexicographic
    max of the words (A, B) of g = A 2^32 + B, min g likewise.  Slices of
    CHUNK points in all keep the temporaries bounded.
    """
    valid, ext, i64 = np.broadcast_to(valid, x.shape), ([], []), np.iinfo(np.int64)
    step = max(1, CHUNK // len(x))
    for c in range(0, x.shape[1], step):
        xs, v = x[:, c : c + step], valid[:, c : c + step]
        b = (xs & _LO).view(np.int64) * n
        a = (xs >> 32).view(np.int64) * n
        a -= np.arange(c, c + xs.shape[1]) << 32
        a += b >> 32
        b &= _LO
        for out, pick, a_fill, b_fill in zip(ext, (np.maximum.reduce, np.minimum.reduce), (i64.min, i64.max), (0, _LO)):
            top = pick(a, axis=-1, keepdims=True, initial=a_fill, where=v)
            low = pick(b, axis=-1, initial=b_fill, where=v & (a == top))
            out.append([(t << 32) + u for t, u in zip(top[:, 0].tolist(), low.tolist())])
    g_max, g_min = map(max, zip(*ext[0])), map(min, zip(*ext[1]))
    return [(TURN + hi - lo, max(hi, TURN - lo)) for hi, lo in zip(g_max, g_min)]


def _sorted_units(fracs: np.ndarray) -> tuple[int, int]:
    """Exact (D_N, D*_N) * 2^64 of a sorted uint64 array of N points."""
    return _units(len(fracs), fracs[None], True)[0]


def star_discrepancy(S: PointSet1D) -> float:
    """D*_N = N * sup_t |#{x_n < t}/N - t| via the sorted-sample formula."""
    if S.count < 1:
        raise PreconditionError("need N >= 1")
    return _sorted_units(S.fracs)[1] / TURN


@dataclass(frozen=True)
class KoksmaReport:
    N: int
    s_magnitude: float
    d_star: float
    bound: float
    ratio: float
    passed: bool


def koksma_relation_check(x, N, m: Sequence[int] | None = None) -> list[KoksmaReport]:
    """Assert |S(x;N)| <= 2*pi*D*_N + 1e-6 (explicit Koksma constant) for each row in order, one report each.

    A row is one point with its N, or a row of a (B, d) uint64 array of Phase
    words (exponents 1..d) with its entry of N.  Rows stable-sorted by N run
    in blocks of up to _BLOCK rows and CHUNK words at the block's largest N,
    one pass of phase words for both sides: S reads each row at its N among
    the block's, bit-identical to weyl_sum; D*_N sorts them padded with
    2^64 - 1, as star_discrepancy does.  Reports, and the first failure, go
    by row order.
    """
    batch = isinstance(x, np.ndarray)
    ns = [int(n) for n in N] if batch else [int(N)]
    lo, hi = min(ns, default=0), max(ns, default=0)
    if not 1 <= lo <= hi < N_LIMIT or batch and len(ns) != len(x):
        raise PreconditionError(f"need one N per row, each 1 <= N < 2^31: got {len(ns)} N in [{lo}, {hi}]")
    order, reports, start = sorted(range(len(ns)), key=ns.__getitem__), [None] * len(ns), 0
    while start < len(order):
        rows = order[start : start + _BLOCK]
        while len(rows) > 1 and len(rows) * ns[rows[-1]] > CHUNK:  # every row is padded to the last, largest N
            rows.pop()
        start += len(rows)
        for i, rep in zip(rows, _koksma_block(x[rows] if batch else x, [ns[i] for i in rows], m)):
            reports[i] = rep
    for rep in reports:
        if not rep.passed:
            raise LemmaCheckFailureError(f"Koksma check failed at N={rep.N}: |S| = {rep.s_magnitude} > {rep.bound}")
    return reports


def _koksma_block(x, ns: list[int], m) -> list[KoksmaReport]:
    lengths, n_max, cps = np.array(ns), max(ns), sorted(set(ns))
    words, q = _sequence_words(x, n_max, m)
    words = words.reshape(len(ns), n_max)  # one point is one row
    mags = _accumulate(lambda lo, hi, work: words[:, lo - 1 : hi - 1], q, cps)[2]
    mags = mags[np.arange(len(ns)), np.searchsorted(cps, lengths)]  # each row at its own N
    fracs = _grid_fracs(words, q)  # words itself for q = 2^64, which the sums no longer need
    valid = np.arange(n_max) < lengths[:, None]
    fracs[~valid] = TURN - 1  # the pads sort past every row's own points
    fracs.sort(axis=-1)
    units = _units(lengths[:, None], fracs, valid)
    reports = []
    for n, s_mag, (_, d_units) in zip(ns, mags.tolist(), units):
        d_star = d_units / TURN
        bound = KOKSMA_CONSTANT * d_star + 1e-6
        reports.append(KoksmaReport(n, s_mag, d_star, bound, s_mag / d_star if d_star > 0 else 0.0, s_mag <= bound))
    return reports


def _checkpoint_units(fracs: np.ndarray, n_max: int):
    """(N, D_N * 2^64, D*_N * 2^64) at each checkpoint N <= n_max of the uint64 sequence fracs; sorts its prefixes in place."""
    dense = min(n_max, DENSE_LIMIT)  # the grid's N = 1..dense, then dyadic
    for n0 in range(0, dense, _BLOCK):
        n1 = min(n0 + _BLOCK, dense)
        ns = np.arange(n0 + 1, n1 + 1)[:, None]
        valid = np.arange(n1) < ns
        rows = np.where(valid, fracs[:n1], TURN - 1)  # row N: the points 1..N, the pads sorting past them
        rows.sort(axis=-1)
        for n, units in zip(range(n0 + 1, n1 + 1), _units(ns, rows, valid)):
            yield (n, *units)
    for n in checkpoint_grid(n_max)[dense:]:
        fracs[:n].sort()  # moves points only inside the prefix: every longer prefix keeps its points
        yield (n, *_sorted_units(fracs[:n]))


def discrepancy_scan(x, alpha: float, n_max: int, m: Sequence[int] | None = None) -> list[int]:
    """Checkpoints N <= N_max with D_N >= N^alpha (same grid as exceptional_scan), each D_N exact."""
    if not 0.0 < alpha < 1.0:
        raise PreconditionError("need 0 < alpha < 1")
    # D_N is exact; the transcendental threshold N^alpha is compared at
    # float precision (exact integer ties like D_1 = 1 = 1^alpha survive)
    units = _checkpoint_units(_grid_fracs(*_sequence_words(x, n_max, m)), n_max)
    return [n for n, d_n, _ in units if d_n / TURN >= float(n) ** alpha]


def scan_rows(x, n_max: int, m: Sequence[int] | None = None) -> tuple[np.ndarray, ...]:
    """The columns N, D_N, D*_N, |S| and |S|/D*_N (0 where D*_N = 0) over the checkpoint grid; one pass of phase words.

    N is int64 and the rest float64: each D is its exact int over 2^64
    rounded once, and each ratio is one IEEE division, as Python floats take it.
    """
    words, q = _sequence_words(x, n_max, m)
    trace = _trace(lambda lo, hi, work: words[lo - 1 : hi - 1], q, checkpoint_grid(n_max))
    _, d_n, d_star = zip(*_checkpoint_units(_grid_fracs(words, q), n_max))
    d_n, d_star = (np.array([v / TURN for v in units]) for units in (d_n, d_star))
    ratio = np.divide(trace.magnitudes, d_star, out=np.zeros_like(d_star), where=d_star > 0)
    return trace.checkpoints, d_n, d_star, trace.magnitudes, ratio
