"""Complete rational exponential sums over prime fields.

T(a) = sum_{n=1}^{p} e((a_1 n + ... + a_d n^d)/p) for a in F_p^d, together
with the exactly checkable identities attached to it: the degree-2 magnitude
law |T| = sqrt(p), the monomial evaluation p^{d-1}, the binomial vanishing
family, the Weil bound with its classical constant, and the power moments
over the full space and over discrete sub-boxes, `mordell_moment(table, nu)`
and `box_moment(table, nu, box)`, which read d and p from the table.

|T(a)| is constant on the lambda-orbits a -> (lambda a_1, lambda^2 a_2, ...,
lambda^d a_d), lambda in F_p^*, so a (d, p)-table stores two
(d-1)-dimensional slices: |T(0, b)|, the inverse DFT of the fiber counts of
n -> (n^2, ..., n^d), and |T(1, b)|, the inverse DFT of the fiber sums of
e(n/p).  Only this module knows that layout; other readers go through the
table's orbit view (`orbits`, `orbit_rows`) and `lookup`.  `lookup` and the
box orbit counts map a to its representative through the table's discrete
logs of p (built on first use, never saved): a_j != 0 goes to
g^(log a_j - j log a_1), lambda = a_1^{-1}, and lambda = 1 keeps a_1 = 0.
A table costs O(p^{d-1} log p) time and 2 p^{d-1} stored entries.  Moments
weight each stored entry by an exact integer orbit multiplicity: its orbit
size over F_p^d, and over a box of side L the number of the box's points
that map to the entry, counted without gathering the L^d points, in
O(p^{d-1} + L p^{d-2}) memory: at d = 2 one cyclic convolution over Z/(p-1)
in discrete logs, O(p log p) time and O(p) memory per box, and at d >= 3 one
matrix product, in blocks small enough for OpenBLAS to run on one thread.
Individual sums (`complete_sum`, `monomial_complete_sum`, `weil_check`,
`vanishing_family`) are always evaluated by direct summation, every term
formed and added, which keeps table-vs-direct comparisons a real two-route
check.  Over F_p, T(a) is the Weyl sum S(a/p; p) at the exact rational point
a/p (`weyl_sums.weyl_sum`): each term is `unit_terms` at an exact residue, and
the p terms are summed exactly and rounded once, as every Weyl sum is.  A
monomial sum over n < p^d (`monomial_complete_sum`) splits n = u + p^(d-1) v:
each term is exactly e(a u^d / p^d) e(v t_u / p), a product of entries from
tables of p^(d-1) and p unit roots, summed pairwise per block and over the
blocks.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, gcd, isqrt, sqrt
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DEFAULT_CAP,
    BinomialVanishingError,
    ChecksumMismatchError,
    InvalidFieldError,
    InvalidNumeratorError,
    LemmaCheckFailureError,
    NotAPermutationError,
    PreconditionError,
    _check_size,
)
from .phasecore import RationalPoint, Workspace, _unit_root_table, _unit_terms, residue_array
from .weyl_sums import BLOCK, _hand_on, _spare_workspace, weyl_sum

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid for all n < 3.3e24 with these bases)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise InvalidFieldError(f"{p} is not prime")


def complete_sum(d: int, p: int, a) -> complex:
    """T(a) = sum_{n=1}^{p} e_p(a_1 n + ... + a_d n^d): the Weyl sum S(a/p; p) at the exact point a/p.

    Every term is formed and added; each component of a term is within
    2^-53 + 2^-56 of its exact value (`phasecore.unit_terms`), and their sum
    is rounded once, so each component of T is math.fsum of the p terms'.
    """
    _require_prime(p)
    if d < 1:
        raise PreconditionError("d must be >= 1")
    a = tuple(map(int, a))
    if len(a) != d:
        raise PreconditionError(f"coefficient vector must have length {d}")
    return weyl_sum(RationalPoint(a, p), p)


def _orbit(a, lam, p: int) -> list:
    """(lam a_1, lam^2 a_2, ..., lam^d a_d) mod p, one entry per a_j.

    Ints stay exact at any p; int64 arrays broadcast together as in numpy
    indexing and need p < 2^31, so that each product fits in int64.
    """
    out, lam_j = [], 1
    for aj in a:
        lam_j = lam_j * lam % p
        out.append(aj % p * lam_j % p)
    return out


class OrbitClass(NamedTuple):
    """One stored class of orbit representatives in a `CompleteSumTable`."""

    magnitude: np.ndarray  # |T| at each representative
    size: int  # orbit size: the exact number of points of F_p^d that each representative stands for
    top: np.ndarray  # bool, shaped like magnitude: a_d != 0 at the representative


@dataclass(frozen=True)
class CompleteSumTable:
    """|T(a)| for every a in F_p^d, held as its two orbit slices.

    slices[0][b] = |T(0, b)| and slices[1][b] = |T(1, b)| for b in F_p^{d-1};
    every other a lies in the lambda-orbit of one of them.
    """

    d: int
    p: int
    slices: np.ndarray  # shape (2,) + (p,)*(d-1), float64

    @cached_property
    def orbits(self) -> tuple[OrbitClass, ...]:
        """The stored classes, which partition F_p^d: (0, b) stands for itself, (1, b) for the p - 1 points of its orbit."""
        top = np.arange(self.p) != 0  # a_d = b_d along the last axis; a_d = a_1 = s at d = 1
        return tuple(OrbitClass(self.slices[s, ...], self.p - 1 if s else 1,
                                np.broadcast_to(top if self.d > 1 else s == 1, self.slices.shape[1:]))
                     for s in range(2))

    def orbit_rows(self, marks) -> np.ndarray:
        """The orbits of the representatives marked by one bool array per class of `orbits`: (count, d) int64 rows, lexicographic.

        A marked b of the a_1 = 0 class is the row (0, b); one of the a_1 = 1 class stands for the p - 1
        rows (lambda, lambda^2 b_2, ..., lambda^d b_d), sorted per lambda by row-major keys over a_2..a_d.
        """
        d, p = self.d, self.p
        s, *b = np.nonzero(np.stack(marks))
        lam = np.arange(1, p, dtype=np.int64)[:, None]
        key = np.zeros((p - 1, np.count_nonzero(s)), dtype=np.int64)
        for image in _orbit([0, *(bj[s == 1] for bj in b)], lam, p)[1:]:
            key = key * p + image
        key.sort(axis=1)
        rows = [np.broadcast_to(lam, key.shape), *(key // p ** (d - j) % p for j in range(2, d + 1))]
        heads = np.stack([np.zeros_like(s[s == 0]), *(bj[s == 0] for bj in b)], axis=1)
        return np.concatenate([heads, np.stack(rows, axis=-1).reshape(-1, d)])

    @cached_property
    def _logs(self) -> tuple[np.ndarray, np.ndarray]:
        """`_discrete_logs(p)`, built on first use and never saved: 2p - 1 int64."""
        return _discrete_logs(self.p)

    @cached_property
    def _powers(self) -> dict[int, np.ndarray]:
        """slices ** (2 nu) by nu, filled by `box_moment` on first use and never saved, so every box reads one array."""
        return {}

    def lookup(self, indices) -> np.ndarray:
        """|T(a)| at a = indices: d integer arrays broadcast together, as in numpy indexing.

        a is read at its orbit representative, whose first entry 0 or 1 picks
        the slice; log[0] = 0 keeps lambda = 1 at a_1 = 0.
        """
        if len(indices) != self.d:
            raise PreconditionError(f"need {self.d} index arrays, got {len(indices)}")
        exp, log = self._logs
        a = [np.asarray(aj, dtype=np.int64) % self.p for aj in indices]
        return self.slices[tuple(np.where(aj != 0, exp[(log[aj] - j * log[a[0]]) % (self.p - 1)], 0)
                                 for j, aj in enumerate(a, start=1))]


def build_table(d: int, p: int, cap: int = DEFAULT_CAP) -> CompleteSumTable:
    """Both orbit slices via one (d-1)-dimensional inverse FFT each."""
    _require_prime(p)
    if d < 1:
        raise PreconditionError("d must be >= 1")
    _check_size("table of 2*{} entries exceeds the cap of {}; raise the cap", p, d - 1, cap, factor=2)
    _check_size("fiber pass of {} residues exceeds the cap of {}; raise the cap", p, cap=cap)  # more than 2 at d = 1
    n = np.arange(p, dtype=np.int64)
    fiber = np.zeros(p, dtype=np.int64)  # row-major index of (n^2, ..., n^d)
    for pw in _orbit([1] * d, n, p)[1:]:  # the orbit of (1, ..., 1) under lambda = n
        fiber = fiber * p + pw
    size = p ** (d - 1)
    ang = (2.0 * np.pi / p) * n
    weights = np.stack([
        np.bincount(fiber, minlength=size),
        np.bincount(fiber, weights=np.cos(ang), minlength=size)
        + 1j * np.bincount(fiber, weights=np.sin(ang), minlength=size),
    ]).reshape((2,) + (p,) * (d - 1))
    # ifftn uses the e(+k/p) convention; the 1/p^(d-1) normalization is undone
    slices = np.abs(np.fft.ifftn(weights, axes=range(1, d)) * float(size))
    slices[(0,) * d] = float(p)  # T(0) = p exactly; drop the FFT noise there
    return CompleteSumTable(d=d, p=p, slices=slices)


# ---------------------------------------------------------------------------
# identity checks


@dataclass(frozen=True)
class GaussReport:
    p: int
    max_deviation: float
    tolerance: float
    passed: bool


def gauss_magnitude_check(p: int, cap: int = DEFAULT_CAP) -> GaussReport:
    """max over a in [0,p), b in [1,p) of ||T(a,b)| - sqrt(p)|, asserted <= 1e-9*sqrt(p), read over the table's orbit classes."""
    if p < 3:
        raise PreconditionError("the Gauss magnitude law needs p >= 3")
    _require_prime(p)
    table = build_table(2, p, cap=cap)
    dev = max(float(np.abs(mags[top] - sqrt(p)).max()) for mags, _, top in table.orbits)
    tol = 1e-9 * sqrt(p)
    if dev > tol:
        raise LemmaCheckFailureError(
            f"Gauss magnitude check failed at p={p}: max deviation {dev} > {tol}"
        )
    return GaussReport(p=p, max_deviation=dev, tolerance=tol, passed=True)


def _monomial_factors(a: int, p: int, d: int, work: Workspace):
    """head[s, w] = e(a u^d / p^d) at u = s p + w < P = p^(d-1), roots[j] = e(j P / p^d), slope[w] = d a w^(d-1) mod p.

    The residues are exact, and each component of a unit root is within 2^-53 + 2^-56 (`unit_terms`, in BLOCK
    blocks, from a table of p^d built for the call, so that no 32-64 KiB table per modulus stays cached).
    """
    q, P = p**d, p ** (d - 1)
    words = np.concatenate([residue_array((a,), q, (d,), 0, P), np.arange(0, q, P)])
    table = _unit_root_table.__wrapped__(q)
    roots = np.empty(P + p, dtype=np.complex128)
    parts = roots.view(np.float64).reshape(-1, 2).T  # the real parts, then the imaginary parts
    for lo in range(0, P + p, BLOCK):
        parts[:, lo : lo + BLOCK] = _unit_terms(words[lo : lo + BLOCK], *table, work)
    return roots[:P].reshape(-1, p), roots[P:], residue_array((d * a,), p, (d - 1,), 0, p)


def monomial_complete_sum(d: int, p: int, a: int, cap: int = DEFAULT_CAP) -> complex:
    """sum_{n=0}^{p^d - 1} e(a n^d / p^d) by direct summation, checked against p^{d-1}.

    The identity holds for gcd(a, p) = 1 and d >= 2 except at (d, p) = (2, 2)
    and (4, 2), where the sum is 2 + 2 e(a/4) and 8 + 8 e(a/16); those two
    are refused.  With P = p^(d-1), n = u + P v (u < P, v < p), w = u mod p
    and P^2 = 0 mod p^d, the term of n is exactly head[u] roots[v slope[w] mod p]
    (`_monomial_factors`), within 2^-50 of e(a n^d / p^d): each factor errs by
    at most sqrt(2) (2^-53 + 2^-56) and the complex product adds sqrt(2) 2^-52.
    The terms go in blocks in the order of n, head seen as (P / p, p): BLOCK // P
    whole rows v, head times a (rows, 1, p) gather of factors, while a row fits
    in BLOCK, else pieces of BLOCK // p rows of head times one row of factors.
    numpy sums each block, then the block sums, pairwise; the loop's arrays are workspace views.

    The check decides through a bound on the computed sum.  Each component of
    a term is within 2^-50 of its exact value and at most 1 + 2^-50 in
    magnitude.  numpy sums a contiguous array of n doubles pairwise (complex
    values as their real and imaginary parts apart): at most 16 values run
    into each of 8 accumulators, 3 levels join them, at most 7 values are
    added after, and an array of more than 128 is halved first, so every value
    passes at most D(n) = 25 + bitlen(n) additions.  Such a sum is within
    gamma_D sum |x_i| of its exact value, gamma_D = D u / (1 - D u), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).  A block
    of at most m terms has D(2m); the B block sums, whose components add up to
    at most N = p^d times a factor below 1 + 2^-40, have D(2B).  As gamma_D
    times that factor is below D 2^-52, each component of the value is within
    N (2^-50 + (D(2m) + D(2B)) 2^-52) of p^(d-1) or of 0: 1.8e-8 at (3, 101),
    where the value errs by 2.3e-13 (the earlier 1e-6 relative tolerance
    allowed 1.0e-2), and 1.4e-7 at (4, 53).
    """
    if d < 2:
        raise PreconditionError("monomial sums are for d >= 2")
    _require_prime(p)
    if gcd(a, p) != 1:
        raise InvalidNumeratorError(f"gcd({a}, {p}) != 1")
    if p == 2 and d in (2, 4):
        raise PreconditionError(f"the monomial sum is not p^(d-1) at (d, p) = ({d}, 2), one of its two exceptions")
    _check_size("sum of {} terms exceeds the cap of {}; raise the cap", p, d, cap)
    P = p ** (d - 1)
    rows, span = min(p, max(1, BLOCK // P)), min(P // p, max(1, BLOCK // p))  # rows v, and rows of head, a block
    work = _spare_workspace()
    head, roots, slope = _monomial_factors(a, p, d, work)
    terms = work.take("terms", (2 * rows * span * p,), np.float64).view(np.complex128)
    scratch = work.take("scratch", (3 * rows * p,), np.float64)
    factors = scratch[: 2 * rows * p].view(np.complex128).reshape(rows, 1, p)
    lowered = scratch[2 * rows * p :].view(np.uint64).reshape(rows, p)
    index = work.take("acc", (rows, p), np.uint64).view(np.int64)  # v slope mod p over the block's rows v
    np.remainder(np.multiply.outer(np.arange(rows), slope, out=index), p, out=index)
    step, wrap = (rows * slope % p).view(np.uint64), index.view(np.uint64)
    sums = []
    for v in range(0, p, rows):
        k = min(rows, p - v)
        np.take(roots, index[:k], out=factors[:k, 0], mode="wrap")  # in range; "wrap" skips a copy
        for s in range(0, len(head), span):
            part = head[s : s + span]
            block = terms[: k * part.size].reshape(k, *part.shape)
            sums.append(np.multiply(part, factors[:k], out=block).sum())
        wrap += step  # below 2p; the unsigned minimum with wrap - p subtracts p where wrap >= p
        np.minimum(wrap, np.subtract(wrap, p, out=lowered), out=wrap)
    _hand_on(work, rows * span * p)
    value = complex(np.sum(sums))
    expected = float(P)
    bound = p**d * (2.0**-50 + (_pairwise_depth(2 * rows * span * p) + _pairwise_depth(2 * len(sums))) * 2.0**-52)
    if max(abs(value.real - expected), abs(value.imag)) > bound:
        raise LemmaCheckFailureError(
            f"monomial sum at (d={d}, p={p}, a={a}) is {value}, expected {expected}"
        )
    return value


def _pairwise_depth(n: int) -> int:
    """At most this many additions on any value's path through numpy's pairwise sum of n doubles."""
    return 25 + n.bit_length()


@dataclass(frozen=True)
class WeilReport:
    p: int
    degree: int
    value: float
    bound: float
    passed: bool


def weil_check(coeffs, p: int) -> WeilReport:
    """|sum_{x in F_p} e_p(f(x))| against the classical bound (deg f - 1) sqrt(p).

    ``coeffs`` lists f's coefficients from the constant term upward; the
    degree is taken after reduction mod p.  Nonconstant f with deg f < p
    required.  Each term component of `complete_sum` is within
    eps = 2^-53 + 2^-56, so the terms' exact sum is within sqrt(2) p eps of T;
    one rounding per component (2^-53 relative) and hypot (one ulp) put the
    value below (|T| + sqrt(2) p eps)(1 + 2^-53)(1 + 2^-52) < |T| (1 + 2^-51)
    + p 2^-52.  A value above bound (1 + 2^-50) + p 2^-50 fails: the margins
    of 2 and 4 cover the roundings of the bound and of this tolerance.
    """
    _require_prime(p)
    c = [int(v) % p for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    deg = len(c) - 1
    if deg < 1:
        raise PreconditionError("f must be nonconstant mod p")
    if deg >= p:
        raise PreconditionError("need deg f < p")
    value = abs(complete_sum(deg, p, c[1:]))  # e(c_0/p) is a unit factor
    bound = (deg - 1) * sqrt(p)
    if value > bound * (1 + 2**-50) + p * 2**-50:
        raise LemmaCheckFailureError(
            f"Weil bound violated for deg={deg}, p={p}: {value} > {bound}"
        )
    return WeilReport(p=p, degree=deg, value=value, bound=bound, passed=True)


def vanishing_family(d: int, p: int) -> list[tuple[int, ...]]:
    """The p-1 vectors (C(d,1)l, ..., C(d,d)l^d), l in F_p^*, all with T = 0.

    Exists because x -> x^d permutes F_p when gcd(d, p-1) = 1; each member is
    re-verified by direct summation: |T| <= p 2^-50, the tolerance that
    `weil_check` derives, at bound 0.
    """
    _require_prime(p)
    if gcd(d, p - 1) != 1:
        raise NotAPermutationError(f"gcd({d}, {p - 1}) != 1: x -> x^{d} is not a permutation")
    if p <= d:
        raise BinomialVanishingError(f"need p > d to keep binomial coefficients nonzero (p={p}, d={d})")
    binom = [comb(d, j) for j in range(1, d + 1)]
    images = _orbit(binom, np.arange(1, p, dtype=np.int64), p)  # all p-1 orbit images at once
    family = []
    for vec in zip(*(image.tolist() for image in images)):
        mag = abs(complete_sum(d, p, vec))
        if mag > p * 2**-50:
            raise LemmaCheckFailureError(
                f"family member {vec} has |T| = {mag}, expected 0"
            )
        family.append(vec)
    return family


# ---------------------------------------------------------------------------
# moments


def mordell_moment(table: CompleteSumTable, nu: int) -> float:
    """sum over a in F_p^d of |T(a)|^{2 nu}, a = 0 included, for the table's (d, p).

    Each orbit class is summed, then weighted by its exact integer orbit
    size.  The a = 0 term is p^{2 nu} exactly (T(0) = p).
    """
    if not 1 <= nu <= table.d:
        raise PreconditionError(f"need 1 <= nu <= d, got nu={nu}")
    return sum(size * float((mags ** (2 * nu)).sum()) for mags, size, _ in table.orbits)


def moment_main_term(d: int, nu: int) -> int:
    """A_d(nu): d!-1 at nu = d, else nu! (reported comparison for nu < d)."""
    if not 1 <= nu <= d:
        raise PreconditionError(f"need 1 <= nu <= d, got nu={nu}")
    return factorial(d) - 1 if nu == d else factorial(nu)


@dataclass(frozen=True)
class DiscreteBox:
    """Product of residue intervals {k_j+1, ..., k_j+L} mod p, common side L."""

    starts: tuple[int, ...]
    side: int

    def __post_init__(self):
        if self.side < 1:
            raise PreconditionError("box side must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.starts)

    def axis_values(self, p: int) -> list[np.ndarray]:
        if self.side > p:
            raise PreconditionError(f"box side {self.side} exceeds p={p}")
        return [
            (np.arange(1, self.side + 1, dtype=np.int64) + int(k)) % p
            for k in self.starts
        ]


@dataclass(frozen=True)
class BoxMomentReport:
    d: int
    p: int
    nu: int
    side: int
    value: float
    predicted_main_term: float

    @property
    def ratio(self) -> float:
        return self.value / self.predicted_main_term


_BLAS_SERIAL = 4 * 65536  # multiply-adds up to which OpenBLAS runs a product on one thread (its default)


def _box_orbit_rows(table: CompleteSumTable, first: np.ndarray, axes: list) -> np.ndarray:
    """sum over a_1 in first of the tensor product over j = 2..d of 1[a_1^-j B_j], shaped (p,)*(d-1), for d >= 3.

    first holds distinct nonzero a_1, axes B_2, ..., B_d, each of distinct
    residues.  In discrete logs the image a_1^-j B_j is B_j shifted by
    j log a_1, so each row is one gather from B_j's indicator in log order,
    taken twice; no product mod p is formed.  The B_2 rows (p wide) are
    contracted with the row-wise tensor products of the others (p^(d-2)
    wide), in O(L p^(d-2)) memory and blocks of at most _BLAS_SERIAL
    multiply-adds.  Every count is an exact integer in float64.
    """
    p, m = table.p, table.p - 1
    log = table._logs[1]
    place = np.where(np.arange(p) == 0, 2 * m, log)  # where a residue goes in the rows' source below
    rows = []
    for j, b in enumerate(axes, start=2):
        source = np.zeros(2 * m + 1)  # B_j in log order twice, then whether 0 is in B_j
        source[place[b]] = 1.0
        source[m : 2 * m] = source[:m]
        index = place + (j * log[first] % m)[:, None]  # c != 0 is in row r iff g^(log c + j log a_1) is in B_j
        index[:, 0] = 2 * m
        rows.append(source[index])
    head, tail, *rest = rows
    for ind in rest:
        tail = (tail[:, :, None] * ind[:, None, :]).reshape(len(first), -1)
    out = np.empty((p, tail.shape[1]))
    cols = max(16, _BLAS_SERIAL // (p * len(first)))  # rows are split below 16 columns
    cols -= cols % 8  # whole multiples of 8 columns measured up to 2x faster
    span = max(1, _BLAS_SERIAL // (cols * len(first)))
    for c in range(0, out.shape[1], cols):
        for r in range(0, p, span):
            np.matmul(head[:, r : r + span].T, tail[:, c : c + cols], out=out[r : r + span, c : c + cols])
    return out.reshape((p,) * len(axes))


def _discrete_logs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log): exp[k] = g^k for k < p - 1 with g the least generator of F_p^*, and log = exp^{-1} on 1..p-1.

    g is the least residue with g^((p-1)/q) != 1 for every prime q | p - 1.
    exp is the outer product, mod p, of g^0..g^(s-1) with g^0, g^s, g^2s, ...
    for s = ceil(sqrt(p - 1)), so its p - 1 entries take 2 s scalar powers.
    log[0] is 0 and stands for no residue.  int64 throughout, p < 2^31.
    """
    m = p - 1
    primes, rest, q = [], m, 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    g = 1
    while any(pow(g, m // q, p) == 1 for q in primes):
        g += 1
    s = isqrt(m - 1) + 1  # ceil(sqrt(m))
    low = np.array([pow(g, j, p) for j in range(s)], dtype=np.int64)
    high = np.array([pow(g, s * i, p) for i in range(-(-m // s))], dtype=np.int64)
    exp = (high[:, None] * low[None, :] % p).ravel()[:m]
    log = np.zeros(p, dtype=np.int64)
    log[exp] = np.arange(m)
    return exp, log


def _log_convolution(first: np.ndarray, second: np.ndarray, exp: np.ndarray, log: np.ndarray) -> np.ndarray:
    """c[b] = #{(a_1, a_2) : a_1 in first, a_2 in second, a_2 a_1^{-2} = b}; first holds distinct nonzero a_1.

    In discrete logs a_2 a_1^{-2} = g^(log a_2 - 2 log a_1), so the counts at
    b = g^beta, beta in Z/(p-1), are the cyclic convolution of the histograms
    of -2 log a_1 and of log a_2 over the nonzero entries: one real FFT at a
    power of two >= 2(p-1) - 1, folded mod p - 1, since p - 1 may have a large
    prime factor.  O(p log p) time and O(p) memory, against L_1 L images.
    Each value must lie within 1/4 of an integer and the integers must total
    #{a_1} #{a_2 != 0}, else `LemmaCheckFailureError`; b = 0 counts every
    a_1 once if 0 is in second.  exp and log are the table's `_discrete_logs`.
    """
    p = len(log)
    m = p - 1
    units = np.count_nonzero(second)
    h1 = np.bincount(-2 * log[first] % m, minlength=m)
    h2 = np.bincount(log[second[second != 0]], minlength=m)
    # each array goes once spent, so that at most about five p-float arrays are held at once
    n = 1 << (2 * m - 2).bit_length()
    f = np.fft.rfft(h1, n)
    del h1
    f *= np.fft.rfft(h2, n)
    del h2
    full = np.fft.irfft(f, n)
    del f
    cyc = full[:m]
    cyc[: m - 1] += full[m : 2 * m - 1]
    exact = np.rint(cyc)
    deviation = float(np.abs(cyc - exact).max())
    total = len(first) * units
    if not deviation <= 0.25 or exact.sum() != total:
        raise LemmaCheckFailureError(
            f"orbit counts at p={p} are not integers totalling {total}: "
            f"deviation {deviation}, total {float(exact.sum())}"
        )
    counts = np.zeros(p)
    counts[exp] = exact
    counts[0] = len(first) * (0 in second)
    return counts


def _orbit_counts(table: CompleteSumTable, box: DiscreteBox) -> np.ndarray:
    """c[s][b]: how many a in the box have (s, b) as their lambda-orbit representative, shaped like table.slices.

    The representative is the one `lookup` reads.  The a_1 = 0 row is the
    tensor product of the indicators of B_2, ..., B_d.  The a_1 != 0 row is
    the number of nonzero a_1 at d = 1, one cyclic convolution over discrete
    logs at d = 2 (`_log_convolution`, O(p log p) per box), and at d >= 3 one
    `_box_orbit_rows` contraction over all the lambdas at once, whose
    L x p^(d-2) tail rows stay within the table's 2 p^(d-1) entries.
    """
    d, p = table.d, table.p
    first, *rest = box.axis_values(p)
    nonzero = first[first != 0]
    if d == 1 or not len(nonzero):
        row = len(nonzero)
    else:
        row = _log_convolution(nonzero, rest[0], *table._logs) if d == 2 else _box_orbit_rows(table, nonzero, rest)
    counts = np.zeros(table.slices.shape)  # after the row's temporaries are gone
    if len(nonzero) < len(first):
        counts[(0, *np.ix_(*rest))] = 1.0
    counts[1] = row
    return counts


def box_moment(table: CompleteSumTable, nu: int, box: DiscreteBox) -> BoxMomentReport:
    """M(B) = sum over a in B, a != 0, of |T(a)|^{2 nu}, with the A_d(nu) L^d p^nu main term.

    The L^d points are never gathered: each stored entry is weighted by its
    orbit multiplicity in the box (`_orbit_counts`), as `mordell_moment`
    weights it by its orbit size.  a = 0 is its own orbit, so its count is
    dropped exactly.  The powers |T|^(2 nu) of the stored entries are taken
    once per table and nu, and held by the table for the boxes after the first.
    """
    d, p = table.d, table.p
    if box.dim != d:
        raise PreconditionError("box dimension must equal d")
    if not 1 <= nu <= d:
        raise PreconditionError(f"need 1 <= nu <= d, got nu={nu}")
    counts = _orbit_counts(table, box)
    counts[(0,) * d] = 0.0
    powers = table._powers.get(nu)
    if powers is None:
        powers = table._powers[nu] = table.slices ** (2 * nu)
    counts *= powers
    total = float(counts.sum())
    predicted = moment_main_term(d, nu) * float(box.side) ** d * float(p) ** nu
    return BoxMomentReport(d=d, p=p, nu=nu, side=box.side, value=total, predicted_main_term=predicted)


# ---------------------------------------------------------------------------
# on-disk table cache, one self-verifying file per table: header {magic "WSLT",
# version u32, d u32, p u64}, the 32-byte sha256 of the header and the body,
# then the body: the slices |T(0, b)| and |T(1, b)|, p^(d-1) little-endian
# float64 each in row-major order of b.

_MAGIC = b"WSLT"
_VERSION = 3
_HEADER = struct.Struct("<4sIIQ")
_DIGEST = 32  # sha256's digest size in bytes; hashlib is imported by save and load alone


def _write_atomic(path: Path, *parts) -> None:
    """Write parts, a sequence of buffers, to path through a temp file in its directory and os.replace."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_table(table: CompleteSumTable, path: str | Path) -> Path:
    """Write the table as one file, header, digest and body, replaced atomically.

    A save cut short leaves the file at path as it was: the old table, if
    any, still loads.
    """
    import hashlib
    path = Path(path)
    header = _HEADER.pack(_MAGIC, _VERSION, table.d, table.p)
    body = np.ascontiguousarray(table.slices, dtype="<f8")
    digest = hashlib.sha256(header)
    digest.update(body)
    _write_atomic(path, header, digest.digest(), body)
    return path


def load_table(path: str | Path, cap: int = DEFAULT_CAP) -> CompleteSumTable:
    """Load a cached table; its header and body must match the digest it stores.

    One handle reads the header, the length (fstat), then the digest and the
    body, into the slices that are hashed.  A stale or oversized file is
    refused by its header, cap or length without reading the body.
    """
    import hashlib
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ChecksumMismatchError(f"{path} is truncated")
        magic, version, d, p = _HEADER.unpack(header)
        if magic != _MAGIC or d < 1:
            raise ChecksumMismatchError(f"{path} has an unknown header")
        if version != _VERSION:
            raise ChecksumMismatchError(
                f"{path} has unknown table version {version}; delete the cache and rebuild"
            )
        _check_size("table of 2*{} entries exceeds the cap of {}; raise the cap", p, d - 1, cap, factor=2)
        expected_len = _HEADER.size + _DIGEST + 16 * p ** (d - 1)
        size = os.fstat(fh.fileno()).st_size
        if size != expected_len:  # before the prime test, so that a damaged p reads as a damaged file
            raise ChecksumMismatchError(f"{path} has {size} bytes, expected {expected_len}")
        _require_prime(p)
        stored = fh.read(_DIGEST)
        slices = np.empty((2,) + (p,) * (d - 1), dtype="<f8")
        got = fh.readinto(slices)
    digest = hashlib.sha256(header)
    digest.update(slices)
    if got != slices.nbytes or digest.digest() != stored:
        raise ChecksumMismatchError(f"checksum mismatch for {path}")
    return CompleteSumTable(d=d, p=p, slices=slices)


def table_cache_path(out_dir: str | Path, d: int, p: int) -> Path:
    return Path(out_dir) / f"table_d{d}_p{p}.wslt"


def cached_table(
    d: int,
    p: int,
    cache_dir: str | Path | None = None,
    cap: int = DEFAULT_CAP,
) -> CompleteSumTable:
    """Build-or-load helper used by the CLI."""
    if cache_dir is None:
        return build_table(d, p, cap=cap)
    path = table_cache_path(cache_dir, d, p)
    if path.exists():
        return load_table(path, cap=cap)
    table = build_table(d, p, cap=cap)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_table(table, path)
    return table
