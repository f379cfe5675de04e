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
e(n/p).  `CompleteSumTable.lookup` reads any a from them, normalising a_1 != 0
to 1 with lambda = a_1^{-1}, through the one vectorised orbit map `_orbit`,
which every other orbit image in the package also comes from.  A table costs
O(p^{d-1} log p) time and 2 p^{d-1} stored entries.  Moments weight each
stored entry by an exact integer orbit multiplicity: p - 1 for the a_1 = 1
slice over all of F_p^d, and over a box of side L the number of its points
that map to the entry, counted without gathering the L^d points, in
O(p^{d-1} + L p^{d-2}) memory.  Individual sums
(`complete_sum`, `monomial_complete_sum`, `weil_check`, `vanishing_family`)
are always evaluated by direct O(p d) summation, which keeps table-vs-direct
comparisons a real two-route check: each of the p terms is e(r/p) at an exact
residue r, read as the product of two entries from tables of O(sqrt p) unit
roots, and added on its own.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from math import comb, factorial, gcd, sqrt
from pathlib import Path

import numpy as np

from .errors import (
    BinomialVanishingError,
    ChecksumMismatchError,
    InvalidFieldError,
    InvalidNumeratorError,
    InvalidScalarError,
    LemmaCheckFailureError,
    NotAPermutationError,
    PreconditionError,
    ResourceLimitError,
)
from .phasecore import _power, residue_array
from .weyl_sums import CHUNK, _chunks

DEFAULT_CAP = 10**7

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


def _check_cap(count: int, cap: int, what: str = "table of {} entries") -> None:
    if count > cap:
        raise ResourceLimitError(f"{what.format(count)} exceeds the cap of {cap}; raise the cap")


def _unit_root_sum(a, q: int, exponents) -> complex:
    """sum_{n=1}^{q} e((a_1 n^{m_1} + ... + a_k n^{m_k}) / q) by direct summation.

    Residues come from `residue_array` (exact, with its int64 guard) in the
    `_chunks` slices of the Weyl sums, so memory stays bounded whatever q is.
    A residue r is split at k = ceil(bitlen(q) / 2) bits, and its term is
    e(r/q) = high[r >> k] * low[r & (2^k - 1)]: two gathers from tables of
    e(j 2^k / q) and e(j / q), of at most 2 sqrt(q) entries each, and one
    complex product.  Each table entry is np.exp of a rounded argument below
    2 pi, so a term is within ~8 ulp of e(r/q), about as close as np.exp of
    the full argument; all q terms are still added one by one.
    """
    high = None
    parts = []
    for lo, hi in _chunks(q):
        r = residue_array(a, q, exponents, lo, hi)
        if high is None:  # built after residue_array's int64 guard, so a refused q allocates nothing
            k = (q.bit_length() + 1) // 2
            step = 2j * np.pi / q
            high = np.exp(step * (np.arange(((q - 1) >> k) + 1) << k))
            low = np.exp(step * np.arange(1 << k))
            # held across chunks, so that a chunk allocates only its residues:
            # large temporaries freed per chunk go back to the OS and fault in again
            index = np.empty(len(r), dtype=np.int64)
            terms = np.empty(len(r), dtype=np.complex128)
            rest = np.empty(len(r), dtype=np.complex128)
        m = len(r)
        # the indices are in range; "wrap" skips the copy that take(out=) makes under "raise"
        np.take(high, np.right_shift(r, k, out=index[:m]), out=terms[:m], mode="wrap")
        np.take(low, np.bitwise_and(r, (1 << k) - 1, out=r), out=rest[:m], mode="wrap")
        parts.append(np.multiply(terms[:m], rest[:m], out=terms[:m]).sum())
    # start from the first part, not 0j, so a one-chunk sum keeps its exact bits
    return complex(sum(parts[1:], parts[0]))


def complete_sum(d: int, p: int, a) -> complex:
    """T(a) = sum_{n=1}^{p} e_p(a_1 n + ... + a_d n^d) by direct summation."""
    _require_prime(p)
    if d < 1:
        raise PreconditionError("d must be >= 1")
    a = tuple(int(ai) % p for ai in a)
    if len(a) != d:
        raise PreconditionError(f"coefficient vector must have length {d}")
    return _unit_root_sum(a, p, range(1, d + 1))


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


def _inverse(x: np.ndarray, p: int) -> np.ndarray:
    """The inverse of every nonzero x in F_p elementwise (int64, p < 2^31).

    x^(p-2) by Fermat; F_2 has exponent 0, and there x^1 = 1 is the same inverse.
    """
    return _power(x, max(p - 2, 1), lambda u, v: u * v % p)


@dataclass(frozen=True)
class CompleteSumTable:
    """|T(a)| for every a in F_p^d, held as its two orbit slices.

    slices[0][b] = |T(0, b)| and slices[1][b] = |T(1, b)| for b in F_p^{d-1};
    every other a lies in the lambda-orbit of one of them.
    """

    d: int
    p: int
    slices: np.ndarray  # shape (2,) + (p,)*(d-1), float64

    def lookup(self, indices) -> np.ndarray:
        """|T(a)| at a = indices: d integer arrays broadcast together, as in numpy indexing.

        For a_1 != 0, lambda = a_1^{-1} maps a to (1, lambda^2 a_2, ..., lambda^d a_d),
        and lambda = 1 keeps a_1 = 0, so the image's first entry is the slice.
        """
        if len(indices) != self.d:
            raise PreconditionError(f"need {self.d} index arrays, got {len(indices)}")
        p = self.p
        a = [np.asarray(aj, dtype=np.int64) % p for aj in indices]
        lam = np.where(a[0] == 0, 1, _inverse(a[0], p))
        return self.slices[tuple(_orbit(a, lam, p))]


def _check_table_cap(d: int, p: int, cap: int) -> None:
    """Refuse a table of more than cap stored entries, 2 p^(d-1)."""
    if d - 1 >= cap.bit_length():  # p^(d-1) >= 2^(d-1) > cap; the power is never formed
        raise ResourceLimitError(f"table of 2*{p}^{d - 1} entries exceeds the cap of {cap}; raise the cap")
    _check_cap(2 * p ** (d - 1), cap)


def build_table(d: int, p: int, cap: int = DEFAULT_CAP) -> CompleteSumTable:
    """Both orbit slices via one (d-1)-dimensional inverse FFT each."""
    _require_prime(p)
    if d < 1:
        raise PreconditionError("d must be >= 1")
    _check_table_cap(d, p, cap)
    _check_cap(p, cap, "fiber pass of {} residues")  # more than the 2 entries at d = 1
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
    """max over a in [0,p), b in [1,p) of ||T(a,b)| - sqrt(p)|, asserted <= 1e-9*sqrt(p).

    Both orbit slices a = 0 and a = 1 are checked; every other a is an orbit image of a = 1.
    """
    if p < 3:
        raise PreconditionError("the Gauss magnitude law needs p >= 3")
    _require_prime(p)
    table = build_table(2, p, cap=cap)
    dev = float(np.abs(table.slices[:, 1:] - sqrt(p)).max())  # a_1 = 0 and 1 stand for every a_1
    tol = 1e-9 * sqrt(p)
    if dev > tol:
        raise LemmaCheckFailureError(
            f"Gauss magnitude check failed at p={p}: max deviation {dev} > {tol}"
        )
    return GaussReport(p=p, max_deviation=dev, tolerance=tol, passed=True)


def monomial_complete_sum(d: int, p: int, a: int, cap: int = DEFAULT_CAP) -> complex:
    """sum_{n=1}^{p^d} e(a n^d / p^d); equals p^{d-1} for gcd(a, p) = 1 and d >= 2."""
    if d < 2:
        raise PreconditionError("monomial sums are for d >= 2")
    _require_prime(p)
    if gcd(a, p) != 1:
        raise InvalidNumeratorError(f"gcd({a}, {p}) != 1")
    _check_cap(p**d, cap, "sum of {} terms")
    value = _unit_root_sum((a,), p**d, (d,))
    expected = float(p ** (d - 1))
    if abs(value - expected) > 1e-6 * expected:
        raise LemmaCheckFailureError(
            f"monomial sum at (d={d}, p={p}, a={a}) is {value}, expected {expected}"
        )
    return value


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
    required.  The check allows 1e-9 + p 2^-40 over the bound for rounding,
    which grows with the p float64 terms: at deg 1 the bound is 0, and
    |T| = 0 reads ~1e-9 at p ~ 10^7.
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
    if value > bound + 1e-9 + p * 2**-40:
        raise LemmaCheckFailureError(
            f"Weil bound violated for deg={deg}, p={p}: {value} > {bound}"
        )
    return WeilReport(p=p, degree=deg, value=value, bound=bound, passed=True)


def lambda_orbit(a, lam: int, p: int) -> tuple[int, ...]:
    """(lambda a_1, lambda^2 a_2, ..., lambda^d a_d) mod p; preserves |T|."""
    if lam % p == 0:
        raise InvalidScalarError("lambda must be a nonzero residue")
    return tuple(_orbit([int(ai) for ai in a], int(lam), p))


def vanishing_family(d: int, p: int) -> list[tuple[int, ...]]:
    """The p-1 vectors (C(d,1)l, ..., C(d,d)l^d), l in F_p^*, all with T = 0.

    Exists because x -> x^d permutes F_p when gcd(d, p-1) = 1; each member is
    re-verified by direct summation (|T| <= 1e-9 p).
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
        if mag > 1e-9 * p:
            raise LemmaCheckFailureError(
                f"family member {vec} has |T| = {mag}, expected 0"
            )
        family.append(vec)
    return family


# ---------------------------------------------------------------------------
# moments


def mordell_moment(table: CompleteSumTable, nu: int, include_zero: bool = True) -> float:
    """sum over a in F_p^d of |T(a)|^{2 nu}, optionally excluding a = 0, for the table's (d, p).

    Orbit weights are exact: the a_1 = 0 slice counts once and the a_1 = 1
    slice p - 1 times, once for each a_1 != 0.  The a = 0 term is removed
    exactly as p^{2 nu} (T(0) = p).
    """
    d, p = table.d, table.p
    if not 1 <= nu <= d:
        raise PreconditionError(f"need 1 <= nu <= d, got nu={nu}")
    s0, s1 = table.slices ** (2 * nu)
    total = float(s0.sum()) + (p - 1) * float(s1.sum())
    if not include_zero:
        total -= float(p) ** (2 * nu)
    return total


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


def _orbit_rows(lam: np.ndarray, axes: list, p: int) -> np.ndarray:
    """sum over r of the tensor product over j = 2..d of 1[lam_r^j B_j], flattened.

    axes holds B_2, ..., B_d, each of distinct residues, and lam the nonzero
    lambdas r.  At d = 1 the sum is the number of lambdas, at d = 2 one
    bincount of the images lam_r^2 B_2, and at d >= 3 one contraction over r
    of the B_2 indicator rows (p wide) with the row-wise tensor products of
    the others (p^(d-2) wide).  Every count is an exact integer in float64.
    """
    images = _orbit([0, *(v[None, :] for v in axes)], lam[:, None], p)[1:]
    if len(images) < 2:
        return np.bincount(images[0].ravel(), minlength=p) if images else np.array([len(lam)])
    head, tail, *rest = (_indicator_rows(im, p) for im in images)
    for ind in rest:
        tail = (tail[:, :, None] * ind[:, None, :]).reshape(len(lam), -1)
    return (head.T @ tail).ravel()


def _indicator_rows(images: np.ndarray, p: int) -> np.ndarray:
    """Row r is the 0/1 indicator over F_p of the residues images[r]."""
    out = np.zeros((len(images), p))
    np.put_along_axis(out, images, 1.0, axis=1)
    return out


def _orbit_counts(table: CompleteSumTable, box: DiscreteBox) -> np.ndarray:
    """c[s][b]: how many a in the box have (s, b) as their lambda-orbit representative, shaped like table.slices.

    The representative is the one `lookup` reads: lambda = a_1^{-1} for
    a_1 != 0 and lambda = 1 for a_1 = 0.  The a_1 values go in blocks whose
    (d-1) rows of L image residues each stay within the table's 2 p^(d-1)
    entries (CHUNK at the least), so at d >= 3 one block holds them all.
    """
    d, p = table.d, table.p
    first, *rest = box.axis_values(p)
    counts = np.zeros((2, p ** (d - 1)))
    nonzero = first[first != 0]
    if len(nonzero) < len(first):
        counts[0] = _orbit_rows(np.ones(1, dtype=np.int64), rest, p)
    lam = _inverse(nonzero, p)
    step = max(1, max(CHUNK, 2 * p ** (d - 1)) // (box.side * (d - 1) or 1))
    for lo in range(0, len(lam), step):
        counts[1] += _orbit_rows(lam[lo : lo + step], rest, p)
    return counts.reshape(table.slices.shape)


def box_moment(table: CompleteSumTable, nu: int, box: DiscreteBox) -> BoxMomentReport:
    """M(B) = sum over a in B, a != 0, of |T(a)|^{2 nu}, with the A_d(nu) L^d p^nu main term.

    The L^d points are never gathered: each stored entry is weighted by its
    orbit multiplicity in the box (`_orbit_counts`), as `mordell_moment`
    weights the slices by 1 and p - 1.  a = 0 is its own orbit, so its count
    is dropped exactly.  The counts take O(p^(d-1) + L p^(d-2)) memory, within
    a small multiple of the table's own size.
    """
    d, p = table.d, table.p
    if box.dim != d:
        raise PreconditionError("box dimension must equal d")
    if not 1 <= nu <= d:
        raise PreconditionError(f"need 1 <= nu <= d, got nu={nu}")
    counts = _orbit_counts(table, box)
    counts[(0,) * d] = 0.0
    total = float((counts * table.slices ** (2 * nu)).sum())
    predicted = moment_main_term(d, nu) * float(box.side) ** d * float(p) ** nu
    return BoxMomentReport(d=d, p=p, nu=nu, side=box.side, value=total, predicted_main_term=predicted)


# ---------------------------------------------------------------------------
# on-disk table cache: header {magic "WSLT", version u32, d u32, p u64}, then
# the slices |T(0, b)| and |T(1, b)|, p^(d-1) little-endian float64 each in
# row-major order of b.

_MAGIC = b"WSLT"
_VERSION = 2
_HEADER = struct.Struct("<4sIIQ")


def _write_atomic(path: Path, data: bytes) -> None:
    """Write data to path through a temp file in its directory and os.replace."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_table(table: CompleteSumTable, path: str | Path) -> Path:
    """Write the binary cache file plus a .sha256 sidecar of the file bytes.

    The sidecar is written first and each file is replaced atomically: a save
    cut short leaves no new table, and no table loads without the sidecar of
    its bytes.
    """
    path = Path(path)
    payload = _HEADER.pack(_MAGIC, _VERSION, table.d, table.p) + np.ascontiguousarray(
        table.slices, dtype="<f8"
    ).tobytes()
    digest = hashlib.sha256(payload).hexdigest()
    _write_atomic(path.with_suffix(path.suffix + ".sha256"), (digest + "\n").encode())
    _write_atomic(path, payload)
    return path


def load_table(path: str | Path, cap: int = DEFAULT_CAP) -> CompleteSumTable:
    """Load a cached table; it must match its .sha256 sidecar.

    The header, the cap and the file length are checked before the body is
    read, so a stale or oversized file is refused without reading it.
    """
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
    _require_prime(p)
    _check_table_cap(d, p, cap)
    expected_len = _HEADER.size + 16 * p ** (d - 1)
    size = path.stat().st_size
    if size != expected_len:
        raise ChecksumMismatchError(f"{path} has {size} bytes, expected {expected_len}")
    sidecar = path.with_suffix(path.suffix + ".sha256")
    if not sidecar.exists():
        raise ChecksumMismatchError(f"{path} has no .sha256 sidecar")
    payload = path.read_bytes()
    if hashlib.sha256(payload).hexdigest() != sidecar.read_text().strip():
        raise ChecksumMismatchError(f"checksum mismatch for {path}")
    slices = np.frombuffer(payload, dtype="<f8", offset=_HEADER.size)
    return CompleteSumTable(d=d, p=p, slices=slices.reshape((2,) + (p,) * (d - 1)).copy())


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
