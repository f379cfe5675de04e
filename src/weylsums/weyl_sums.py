"""Streaming evaluation of Weyl sums and their scaling diagnostics.

S(x; N) = sum_{n=1}^{N} e(x_1 n^{m_1} + ... + x_d n^{m_d}) with default
exponents (1, ..., d).  Coefficients are either quantized `Phase` values
(wrapping uint64 words, exact mod 1) or an exact `RationalPoint` a/q that is
evaluated through residue arithmetic mod q.

Every point becomes its exact phases in one place (`_phase_words`), and every
sum, trace and scan reduces them in one loop (`_accumulate`), which also takes
a batch of points as rows of one array (`weyl_sum_batch`, the Koksma blocks).

Terms: the loop passes each block of exact words and q to
`phasecore.unit_terms`, its one call of the term kernel, which gives each
component within 2^-53 + 2^-56 of e(phase), from a table of unit roots and
one angle-addition step, with no trig call per term.

Blocks: the loop makes and reduces the terms in blocks of BLOCK = 2^14.  A
block's arrays (its phase words and their ramp of n, its terms, and the
scratch of the term kernel and of the reducer), about 1 MiB for one point,
stay in a 2 MiB per-core L2 cache, where a 2^16-term chunk of them streams
through memory for every kernel pass; at N = 2^20, d = 3, 2^14 blocks were
the fastest of 2^12..2^16 on a 2-CPU Xeon (21.5 ms at best, against 29 ms
for 2^16).  They
come from one `phasecore.Workspace` per call, allocated for the first block,
reused by every later one and handed on to the next call, so that no block
or call frees arrays that the OS takes back and faults in again.  A
complete sum T(a) over F_p is this loop's sum at the rational point a/p with
N = p (`complete_sums.complete_sum`).

Exact accumulation: each block is reduced once by an exact reducer
(`_exact_prefix_sums`), which splits every term into 37-bit integer limbs and
sums each limb exactly in float64; with at most 2^16 terms per block every
partial sum stays below 2^53, so no value depends on the block size.  The
terms repeat with the period q of the point, so only n = 1..P, P = min(q, N),
are generated: a rational point a/q is summed over one period,
S(N) = floor(N/q) I(q) + I(N mod q), and a `Phase` point has q = 2^64 > N,
so nothing folds.  A checkpoint N <= min(P, BLOCK), as every N of a sum or
batch of at most BLOCK terms and the dense N <= 1000 of a trace are, is a
prefix of the first block and is read from its limb sums; their count only
picks the rounding.  With at most two limbs (each term a multiple of 2^-74,
as every term of magnitude at least 2^-22 is) the value is S1 2^-37 +
S2 2^-74, one IEEE addition of two exact doubles, which numpy rounds
correctly, half to even, with no Python object per row or checkpoint
(`_rounded`); with more, int true division rounds the joined limb sums.  The
rest, a few dyadic N past the first block or the folded N > P of a rational
point, take the int carry: one exact Python int per row, from which
floor(N/P) I(P) + I(N mod P) is rounded once by int true division.  Either
way S(x; N) is the correctly rounded sum of all N terms, math.fsum(terms[:N]).
The reduction adds one rounding to the term errors, so the total stays below
N ulp, inside the 4*N*ulp budget, and a trace equals a fresh evaluation bit
for bit at every checkpoint.

Values: the loop returns float64 (re, im, |S|) arrays of (rows,
checkpoints), the first block's rounded checkpoints and then the int
carry's.  It checks the trivial bound |S| <= N of each value's checkpoint on
the whole array at once; `measure_estimate` counts its hits on those moduli.
A trace (`SumTrace`) holds the loop's arrays as they are, int64 checkpoints,
complex128 values and float64 moduli, and the CSV writer reads its columns
from them, with no Python object per row.  A scan takes .tolist() once
where its values meet Python's math.log or **, so every float and every
threshold decision is the one that Python floats give: np.power differs
from ** in the last bit for some values.  |S| is libm's hypot, which
abs(complex) also calls, taken by the loop or `SumTrace`: np.abs of
complex128 differs from it in the last bit for about a third of random
values.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import cycle
from math import log
from operator import lt
from typing import Iterator, Sequence

import numpy as np

from .errors import LemmaCheckFailureError, PreconditionError, _check_size
from .phasecore import (
    TURN,
    Phase,
    RationalPoint,
    Workspace,
    frac_array,
    residue_array,
    unit_terms,
)

CHUNK = 1 << 16
BLOCK = 1 << 14  # the terms per pass of `_accumulate`; its arrays stay in a 2 MiB L2
# The workspace that an `_accumulate` or `monomial_complete_sum` call hands on to the next, if none is held and
# its loop took at most BLOCK terms a block: one point's, 8 or 9 arrays of BLOCK words, at most _SPARE_BYTES.
# A batch of more takes it and grows it, and then frees it rather than hand on larger buffers.  A workspace
# freed at the end of every call can go back to the OS (glibc trims the top of the heap) and fault
# in again in the next call, depending on what else the process has allocated: in a fresh process
# that imports only this module, 20 calls of mr_ratio_scan(x, 100_000) faulted 4,384 pages that
# way, and none with the workspace handed on (Linux, glibc).  Each byte held on raises the peak RSS
# of later work, so no more is held.
_SPARE: list[Workspace] = []
_SPARE_BYTES = 9 * 8 * BLOCK

TorusPoint = tuple[Phase, ...]
_TRIVIAL_SLACK = 1.0 + 1e-12  # |S| <= N times this: a few ulps of slack for the rounded terms


def _spare_workspace() -> Workspace:  # the workspace the last call handed on, or a fresh one
    try:
        return _SPARE.pop()  # one step, so two threads never take the same workspace
    except IndexError:
        return Workspace()


def _hand_on(work: Workspace, terms: int) -> None:  # to the next call, if none is held and work is one point's
    if terms <= BLOCK and not _SPARE and work.nbytes <= _SPARE_BYTES:
        _SPARE.append(work)


def exponent_vector(m: Sequence[int]) -> tuple[int, ...]:
    """Validated sparse exponent vector: strictly increasing, m_1 >= 1."""
    m = tuple(map(int, m))
    if not m or m[0] < 1 or any(b <= a for a, b in zip(m, m[1:])):
        raise PreconditionError(f"exponents must be strictly increasing positive integers, got {m}")
    return m


def _phase_words(x, m: Sequence[int] | None, n_max: int):
    """Normalize (x, m) once for N <= n_max: (words, q) with words(lo, hi, work) the exact phases of n = lo..hi-1.

    The phase of n is words(lo, hi, work)[..., n - lo] / q mod 1: uint64
    `frac_array` words with q = 2^64 for a `Phase` or a tuple of them,
    `residue_array` residues with q = x.q for a `RationalPoint`.  A (B, d)
    uint64 array is a batch of B `Phase` points, one row each, and gives
    (B, hi-lo) words.  The exponents default to 1..d and must match the point
    dimension.  The Horner kernel multiplies by n once per unit of each
    exponent gap, m_d products over each block's terms, so a largest exponent
    m_d with m_d min(n_max, BLOCK) past DEFAULT_CAP is refused.  The words are
    a view of the `Workspace` work, valid until the next call with it.
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
    terms = min(n_max, BLOCK)
    _check_size(f"Horner products of a largest exponent {{}} over {terms} terms a block exceed the cap of {{}}",
                exps[-1], factor=terms)
    if exact:
        q = x.q
        return (lambda lo, hi, work: residue_array(coeffs, q, exps, lo, hi, work)), q
    return (lambda lo, hi, work: frac_array(coeffs, exps, lo, hi, work)), TURN


def _chunks(N: int, size: int = CHUNK) -> Iterator[tuple[int, int]]:
    lo = 1
    while lo <= N:
        hi = min(lo + size, N + 1)
        yield lo, hi
        lo = hi


_LIMB_BITS = 37
_LIMB_SCALE = float(1 << _LIMB_BITS)


def _exact_prefix_sums(terms: np.ndarray, ends: Sequence[int], work: Workspace | None = None) -> np.ndarray:
    """Exact sums of terms[:, :k], each k in ends in turn, as L limb sums: an (L, len(ends), rows) float64 array.

    terms is (rows, n) with |terms| <= 1 and n <= 2^16; ends strictly
    increase from k >= 1.  The scaled terms are peeled into integer limbs of
    37 bits, x = trunc(x) + (x - trunc(x)) then x *= 2^37, until the remainder
    is zero everywhere: every split is exact and any finite double runs out of
    bits, so no exponent range is assumed.  Each limb is an integer of
    magnitude <= 2^37, so with n <= 2^16 every partial sum is an integer of
    magnitude <= 2^53 and float64 sums them exactly in any order.  The exact
    sum at k is the sum over j of limbs[j, k] 2^(-37 (j + 1)): `_joined` makes
    it one Python int over 2^(37 L), and `_rounded` rounds it in numpy when
    L <= 2.  x and its whole parts are work's scratch, so terms must not be.
    """
    work = Workspace() if work is None else work
    starts = [0, *ends[:-1]]
    x, whole = work.take("scratch", (2, *terms.shape), np.float64)
    np.multiply(terms, _LIMB_SCALE, out=x)
    segments = []
    while True:
        np.trunc(x, out=whole)
        segments.append(np.add.reduceat(whole, starts, axis=-1).T)
        np.subtract(x, whole, out=x)
        if not np.logical_or.reduce(x, axis=None):  # x.any() without its Python wrapper
            break
        x *= _LIMB_SCALE
    limbs = np.array(segments)
    return limbs.cumsum(axis=1) if len(ends) > 1 else limbs


def _joined(limbs: np.ndarray) -> list[int]:
    """The exact sums of `_exact_prefix_sums` as ints over 2^(37 L), in one flat list: each end, over the rows."""
    ints = limbs.astype(np.int64).reshape(len(limbs), -1).tolist()
    acc = ints[0]
    for limb in ints[1:]:
        acc = [(a << _LIMB_BITS) + b for a, b in zip(acc, limb)]
    return acc


def _rounded(limbs: np.ndarray) -> np.ndarray:
    """The exact sums of `_exact_prefix_sums` with L <= 2 limbs, each correctly rounded: (len(ends), rows) float64.

    The limb sums S1, S2 are integers of magnitude <= 2^53, so S1 and
    S2 2^-37 are exact doubles and S1 + S2 2^-37 is one IEEE addition: the
    exact sum rounded half to even, as int true division rounds
    (S1 2^37 + S2) / 2^74.  The scaling by 2^-37 is exact, since a nonzero
    sum is at least 2^-74.  Each term's second limb is +0.0 or a nonzero
    integer, so S2 is never -0.0 and neither is S1 + S2 2^-37; S1 alone is
    -0.0 for a row of -0.0 terms, and adding +0.0 makes it the +0.0 that int
    true division gives for the int 0.
    """
    if len(limbs) == 1:
        return limbs[0] / _LIMB_SCALE + 0.0
    return (limbs[1] / _LIMB_SCALE + limbs[0]) / _LIMB_SCALE


def _int_rounded(ints: list[int], scale: int, width: int) -> np.ndarray:
    """Exact sums as ints over 2^(37 scale), flat over (checkpoint, row), each rounded once: (checkpoints, width)."""
    den = 1 << _LIMB_BITS * scale
    return np.array([t / den for t in ints]).reshape(-1, width)


def _accumulate(words, q: int, cps: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S at each of the strictly increasing checkpoints, per row, correctly rounded: (re, im, |S|), each (rows, checkpoints).

    words(lo, hi, work) gives the exact phases of n = lo..hi-1 over q,
    (hi-lo,) for one point or (rows, hi-lo) for a batch, as `_phase_words`
    returns them, so the terms repeat with period q in n.  The loop reads them
    in blocks of BLOCK terms, and each block's words go through `unit_terms`
    here, the one call of the term kernel for every sum, trace and batch.  The
    words, the terms and the reducer's arrays all come from one `Workspace`
    for the call, handed on (`_SPARE`) if a block has at most BLOCK words.  Only
    n = 1..P, P = min(q, N_max), are generated.

    The checkpoints are planned once, before the loop.  Those N <= min(P,
    BLOCK), cps[:head], are read from the first block's limb sums at its ends:
    them, the residues r = N mod P > 0 of the rest that fall in the block
    (folds only), and its last n.  They are rounded in numpy by `_rounded` if
    its terms need at most two limbs, and by int true division otherwise.  The
    int carry takes cps[head:] only.  It starts at zero ints and adds each
    block's limb sums at its residues and its end, the first block's too, as
    one exact int per row over 2^(37 L), shifting what it holds when a block
    needs more limbs than those before, and keeps the prefix I(r) at each
    residue in one flat list.  Each carried value is floor(N/P) I(P) + I(N mod
    P), rounded once by int true division.  Either way each value is its exact
    sum rounded once, half to even: math.fsum over all N of its terms,
    whatever the route or the block size.

    Every value is checked against the trivial bound |S| <= N of its
    checkpoint, times _TRIVIAL_SLACK; |S| is libm's hypot, as abs(complex)
    takes it.
    """
    ns = np.array(cps)  # the N of each column
    period = min(q, cps[-1])
    end = min(period, BLOCK)  # the first block's last n
    head = bisect_right(cps, end)  # cps[:head] are read from the first block, and the int carry takes the rest
    offsets = sorted({n % period for n in cps[head:]} - {0})  # r = N mod P > 0 of the rest: the carry keeps I(r)
    oj = bisect_left(offsets, end + 1)  # those in the first block
    ends, take, inserted = [*cps[:head]], [], []  # the first block's: its checkpoints, offsets and last n
    for r in offsets[:oj]:  # a fold put carried offsets among the checkpoints: each goes in at its place
        i = bisect_left(ends, r)
        take.append(i)  # later offsets go in past i, so i stays r's place
        if ends[i : i + 1] != [r]:
            ends.insert(i, r)
            inserted.append(i)
    at = np.delete(np.arange(len(ends)), inserted) if inserted else slice(head)  # the checkpoints' places
    if ends[-1:] != [end]:
        ends.append(end)
    take = [*take, -1] if take else slice(-1, None)  # the carry's: the places of its offsets, then the last
    work = _spare_workspace()
    oi = 0
    for lo, hi in _chunks(period, BLOCK):
        if lo > 1:  # a later block's ends: the carry's offsets in it, then its last n
            oi, oj = oj, bisect_left(offsets, hi, oj)
            ends = [r - lo + 1 for r in offsets[oi:oj]]
            if ends[-1:] != [hi - lo]:
                ends.append(hi - lo)
        terms = unit_terms(words(lo, hi, work), q, work).reshape(-1, hi - lo)  # the cos rows, then the sin rows
        width = len(terms)
        limbs = _exact_prefix_sums(terms, ends, work)
        if lo == 1:  # the first block: the values at cps[:head], and a carry of zero ints for the rest
            if head:
                first = limbs[:, at]
                values = _rounded(first) if len(first) <= 2 else _int_rounded(_joined(first), len(first), width)
                if head == len(cps):
                    break
            limbs, scale, acc, pre = limbs[:, take], len(limbs), [0] * width, [0] * width  # pre: at 0, then each offset
        sums, count = _joined(limbs), len(limbs)
        if count > scale:
            bits = _LIMB_BITS * (count - scale)
            acc, pre = [a << bits for a in acc], [v << bits for v in pre]
            scale = count
        shift = _LIMB_BITS * (scale - count)
        if oj > oi:
            pre += [a + (v << shift) for a, v in zip(cycle(acc), sums[: (oj - oi) * width])]
        acc = [a + (v << shift) for a, v in zip(acc, sums[-width:])]
    else:  # the carried checkpoints, each floor(N/P) I(P) + I(N mod P)
        at = dict(zip((0, *offsets), range(0, len(pre), width)))  # offset -> its place in pre
        spans = [(n // period, at[n % period]) for n in cps[head:]]
        totals = [b + k * a for k, j in spans for a, b in zip(acc, pre[j : j + width])]
        carried = _int_rounded(totals, scale, width)
        values = np.concatenate((values, carried)) if head else carried
    _hand_on(work, width // 2 * end)  # a block's words over its rows
    rows = width // 2
    re, im = values[:, :rows].T, values[:, rows:].T
    mags = np.hypot(re, im)
    over = mags > ns * _TRIVIAL_SLACK
    if over.any():
        k = over.argmax()
        raise LemmaCheckFailureError(f"trivial bound violated: |S| = {mags.flat[k]} > N = {ns[k % len(ns)]}")
    return re, im, mags


def weyl_sum(x, N: int, m: Sequence[int] | None = None) -> complex:
    """S(x; N) with certified accumulation error below N ulp."""
    if N < 1:
        raise PreconditionError("N must be >= 1")
    re, im, _ = _accumulate(*_phase_words(x, m, N), (N,))
    return complex(re[0, 0], im[0, 0])


def weyl_sum_batch(words: np.ndarray, N: int) -> np.ndarray:
    """S(x_b; N) for each row x_b of a (B, d) uint64 array of phase words, as a (B,) complex128 array.

    Entry b is bit-identical to weyl_sum(tuple(Phase(w) for w in words[b]), N):
    the rows share one block loop and each is reduced exactly on its own.
    Exponents are 1..d.
    """
    if N < 1:
        raise PreconditionError("N must be >= 1")
    re, im, _ = _accumulate(*_phase_words(words, None, N), (N,))
    return _complex(re[:, 0], im[:, 0])


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    values = np.empty(re.shape, np.complex128)
    values.real, values.imag = re, im
    return values


def monomial_sum(x, N: int, d: int) -> complex:
    """sigma_d(x; N) = sum e(x n^d); same evaluator as weyl_sum with m=(d,)."""
    if d < 2:
        raise PreconditionError("monomial sums are for d >= 2")
    return weyl_sum(x, N, m=(d,))


@dataclass(frozen=True, eq=False)
class SumTrace:
    """S(x;N) at strictly increasing checkpoints N, and |S(x;N)| at each, as read-only arrays.

    Its one constructor takes the checkpoints (int64) and values (complex128),
    refuses checkpoints that do not strictly increase, a length mismatch and
    any |S| > N, and takes the moduli (float64) by libm's hypot, as the loop
    does.
    """

    checkpoints: np.ndarray
    values: np.ndarray
    magnitudes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ns, values = np.array(self.checkpoints, dtype=np.int64), np.array(self.values, dtype=np.complex128)
        if ns.ndim != 1 or values.shape != ns.shape:
            raise PreconditionError("need one value per checkpoint")
        if (ns[1:] <= ns[:-1]).any():
            raise PreconditionError("checkpoints must be strictly increasing")
        mags = np.hypot(values.real, values.imag)
        if (mags > ns * _TRIVIAL_SLACK).any():
            raise PreconditionError("trace magnitude exceeds the trivial bound")
        for name, array in (("checkpoints", ns), ("values", values), ("magnitudes", mags)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def weyl_sum_trace(x, checkpoints: Sequence[int], m: Sequence[int] | None = None) -> SumTrace:
    """One generation pass; each entry bit-identical to a fresh weyl_sum call."""
    cps = tuple(map(int, checkpoints))
    if not cps or cps[0] < 1 or not all(map(lt, cps, cps[1:])) or cps[-1] >= 1 << 63:
        raise PreconditionError("checkpoints must be strictly increasing int64 values >= 1")
    return _trace(*_phase_words(x, m, cps[-1]), cps)


def _trace(words, q: int, cps: tuple[int, ...]) -> SumTrace:
    re, im, _ = _accumulate(words, q, cps)
    return SumTrace(cps, _complex(re[0], im[0]))


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
    mags = weyl_sum_trace(x, cps, m).magnitudes.tolist()
    ratios = tuple(mag / (n**0.5 * log(n) ** 1.5) for n, mag in zip(cps, mags))
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
    ns, mags = trace.checkpoints[tail:].tolist(), trace.magnitudes[tail:].tolist()
    exponents = [log(mag) / log(n) for n, mag in zip(ns, mags) if mag > 0.0 and n >= 2]
    return SigmaEstimate(value=max(exponents, default=0.0), degenerate=not exponents)


def exceptional_scan(x, alpha: float, n_max: int, m: Sequence[int] | None = None) -> list[int]:
    """Checkpoints N <= N_max with |S(x;N)| >= N^alpha (finite-scale E-set probe)."""
    if not 0.0 < alpha < 1.0:
        raise PreconditionError("need 0 < alpha < 1")
    cps = checkpoint_grid(n_max)
    mags = weyl_sum_trace(x, cps, m).magnitudes.tolist()
    return [n for n, mag in zip(cps, mags) if mag >= float(n) ** alpha]
