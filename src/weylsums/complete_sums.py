"""Complete rational exponential sums over prime fields.

T(a) = sum_{n=1}^{p} e((a_1 n + ... + a_d n^d)/p) for a in F_p^d, together
with the exactly checkable identities attached to it: the degree-2 magnitude
law |T| = sqrt(p), the monomial evaluation p^{d-1}, the binomial vanishing
family, the Weil bound with its classical constant, and the power moments
over the full space and over discrete sub-boxes.

Full (d, p)-tables of |T| are built in one pass: T over all of F_p^d is the
d-dimensional inverse DFT of the fiber-count array of n -> (n, n^2, ..., n^d),
so the whole table costs O(p^d log p).  Individual sums are always evaluated
by direct O(p d) summation, which keeps table-vs-direct comparisons a real
two-route check.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from math import factorial, gcd, sqrt
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
from .phasecore import residue_array
from .weyl_sums import _chunks

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


def _check_cap(entries: int, cap: int) -> None:
    if entries > cap:
        raise ResourceLimitError(f"table of {entries} entries exceeds the cap of {cap}; raise the cap")


def _unit_root_sum(a, q: int, exponents) -> complex:
    """sum_{n=1}^{q} e((a_1 n^{m_1} + ... + a_k n^{m_k}) / q) by direct summation.

    Residues come from `residue_array` (exact, with its int64 guard) in the
    `_chunks` slices of the Weyl sums, so memory stays bounded whatever q is.
    """
    parts = []
    for lo, hi in _chunks(q):
        # r stays bound until the next chunk's is made; freed any earlier, the
        # pages go back to the OS and fault in again (~35x the page faults)
        r = residue_array(a, q, exponents, lo, hi)
        parts.append(np.exp((2j * np.pi / q) * r).sum())
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


@dataclass(frozen=True)
class CompleteSumTable:
    """Magnitudes |T(a)| for every a in F_p^d, row-major over a."""

    d: int
    p: int
    mags: np.ndarray  # shape (p,)*d, float64

    def mag(self, a) -> float:
        return float(self.mags[tuple(int(ai) % self.p for ai in a)])


def build_table(d: int, p: int, cap: int = DEFAULT_CAP) -> CompleteSumTable:
    """All p^d magnitudes via a d-dimensional inverse FFT of the fiber counts."""
    _require_prime(p)
    if d < 1:
        raise PreconditionError("d must be >= 1")
    _check_cap(p**d, cap)
    counts = np.zeros((p,) * d)
    n = np.arange(1, p + 1, dtype=np.int64)
    coords = []
    pw = np.ones(p, dtype=np.int64)
    for _ in range(d):
        pw = (pw * n) % p
        coords.append(pw.copy())
    np.add.at(counts, tuple(coords), 1.0)
    # ifftn uses the e(+k/p) convention; the 1/p^d normalization is undone
    mags = np.abs(np.fft.ifftn(counts) * float(p) ** d)
    mags[(0,) * d] = float(p)  # T(0) = p exactly; drop the FFT noise there
    return CompleteSumTable(d=d, p=p, mags=mags)


# ---------------------------------------------------------------------------
# identity checks


@dataclass(frozen=True)
class GaussReport:
    p: int
    max_deviation: float
    tolerance: float
    passed: bool


def gauss_magnitude_check(p: int, cap: int = DEFAULT_CAP) -> GaussReport:
    """max over a in [0,p), b in [1,p) of ||T(a,b)| - sqrt(p)|, asserted <= 1e-9*sqrt(p)."""
    if p < 3:
        raise PreconditionError("the Gauss magnitude law needs p >= 3")
    _require_prime(p)
    table = build_table(2, p, cap=cap)
    dev = float(np.abs(table.mags[:, 1:] - sqrt(p)).max())
    tol = 1e-9 * sqrt(p)
    if dev > tol:
        raise LemmaCheckFailureError(
            f"Gauss magnitude check failed at p={p}: max deviation {dev} > {tol}"
        )
    return GaussReport(p=p, max_deviation=dev, tolerance=tol, passed=True)


def monomial_complete_sum(d: int, p: int, a: int, cap: int = DEFAULT_CAP) -> complex:
    """sum_{n=1}^{p^d} e(a n^d / p^d); equals p^{d-1} for gcd(a, p) = 1."""
    _require_prime(p)
    if gcd(a, p) != 1:
        raise InvalidNumeratorError(f"gcd({a}, {p}) != 1")
    _check_cap(p**d, cap)
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
    required.
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
    if value > bound + 1e-9:
        raise LemmaCheckFailureError(
            f"Weil bound violated for deg={deg}, p={p}: {value} > {bound}"
        )
    return WeilReport(p=p, degree=deg, value=value, bound=bound, passed=True)


def lambda_orbit(a, lam: int, p: int) -> tuple[int, ...]:
    """(lambda a_1, lambda^2 a_2, ..., lambda^d a_d) mod p; preserves |T|."""
    if lam % p == 0:
        raise InvalidScalarError("lambda must be a nonzero residue")
    out = []
    lp = 1
    for ai in a:
        lp = (lp * lam) % p
        out.append((int(ai) * lp) % p)
    return tuple(out)


def vanishing_family(d: int, p: int, tol_factor: float = 1e-9) -> list[tuple[int, ...]]:
    """The p-1 vectors (C(d,1)l, ..., C(d,d)l^d), l in F_p^*, all with T = 0.

    Exists because x -> x^d permutes F_p when gcd(d, p-1) = 1; each member is
    re-verified by direct summation (|T| <= tol_factor * p).
    """
    _require_prime(p)
    if gcd(d, p - 1) != 1:
        raise NotAPermutationError(f"gcd({d}, {p - 1}) != 1: x -> x^{d} is not a permutation")
    if p <= d:
        raise BinomialVanishingError(f"need p > d to keep binomial coefficients nonzero (p={p}, d={d})")
    binom = [0] * (d + 1)
    binom[0] = 1
    for j in range(1, d + 1):
        binom[j] = binom[j - 1] * (d - j + 1) // j
    family = []
    for lam in range(1, p):
        vec = lambda_orbit([binom[j] % p for j in range(1, d + 1)], lam, p)
        mag = abs(complete_sum(d, p, vec))
        if mag > tol_factor * p:
            raise LemmaCheckFailureError(
                f"family member {vec} has |T| = {mag}, expected 0"
            )
        family.append(vec)
    return family


# ---------------------------------------------------------------------------
# moments


def mordell_moment(
    d: int,
    p: int,
    nu: int,
    include_zero: bool = True,
    table: CompleteSumTable | None = None,
    cap: int = DEFAULT_CAP,
) -> float:
    """sum over a in F_p^d of |T(a)|^{2 nu}, optionally excluding a = 0.

    The a = 0 term is removed exactly as p^{2 nu} (T(0) = p).
    """
    if not 1 <= nu <= d:
        raise PreconditionError(f"need 1 <= nu <= d, got nu={nu}")
    if table is None:
        table = build_table(d, p, cap=cap)
    elif (table.d, table.p) != (d, p):
        raise PreconditionError("table does not match (d, p)")
    total = float((table.mags ** (2 * nu)).sum())
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

    def contains_zero(self, p: int) -> bool:
        return all(0 in set(v.tolist()) for v in self.axis_values(p))


def full_box(d: int, p: int) -> DiscreteBox:
    return DiscreteBox(starts=(p - 1,) * d, side=p)  # values {0, ..., p-1} on each axis


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


def box_moment(
    d: int,
    p: int,
    nu: int,
    box: DiscreteBox,
    table: CompleteSumTable | None = None,
    cap: int = DEFAULT_CAP,
) -> BoxMomentReport:
    """M(B) = sum over a in B, a != 0, of |T(a)|^{2 nu}, with the A_d(nu) L^d p^nu main term."""
    if box.dim != d:
        raise PreconditionError("box dimension must equal d")
    if not 1 <= nu <= d:
        raise PreconditionError(f"need 1 <= nu <= d, got nu={nu}")
    if table is None:
        table = build_table(d, p, cap=cap)
    sub = table.mags[np.ix_(*box.axis_values(p))]
    total = float((sub ** (2 * nu)).sum())
    if box.contains_zero(p):
        total -= float(p) ** (2 * nu)
    predicted = moment_main_term(d, nu) * float(box.side) ** d * float(p) ** nu
    return BoxMomentReport(d=d, p=p, nu=nu, side=box.side, value=total, predicted_main_term=predicted)


# ---------------------------------------------------------------------------
# on-disk table cache: header {magic "WSLT", version u32, d u32, p u64},
# then p^d little-endian float64 magnitudes in row-major order of a.

_MAGIC = b"WSLT"
_VERSION = 1
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
        table.mags, dtype="<f8"
    ).tobytes()
    digest = hashlib.sha256(payload).hexdigest()
    _write_atomic(path.with_suffix(path.suffix + ".sha256"), (digest + "\n").encode())
    _write_atomic(path, payload)
    return path


def load_table(path: str | Path, cap: int = DEFAULT_CAP) -> CompleteSumTable:
    """Load a cached table; it must match its .sha256 sidecar."""
    path = Path(path)
    payload = path.read_bytes()
    sidecar = path.with_suffix(path.suffix + ".sha256")
    if not sidecar.exists():
        raise ChecksumMismatchError(f"{path} has no .sha256 sidecar")
    if hashlib.sha256(payload).hexdigest() != sidecar.read_text().strip():
        raise ChecksumMismatchError(f"checksum mismatch for {path}")
    if len(payload) < _HEADER.size:
        raise ChecksumMismatchError(f"{path} is truncated")
    magic, version, d, p = _HEADER.unpack_from(payload)
    if magic != _MAGIC or version != _VERSION:
        raise ChecksumMismatchError(f"{path} has an unknown header")
    _require_prime(p)
    _check_cap(p**d, cap)
    expected_len = _HEADER.size + 8 * p**d
    if len(payload) != expected_len:
        raise ChecksumMismatchError(f"{path} has {len(payload)} bytes, expected {expected_len}")
    mags = np.frombuffer(payload, dtype="<f8", offset=_HEADER.size).reshape((p,) * d).copy()
    return CompleteSumTable(d=d, p=p, mags=mags)


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
