"""Large-value coefficient sets and the rational-neighborhood amplification checks.

L_p collects the a in F_p^d with a_d != 0 and |T(a)| >= gamma*sqrt(p); its
box density at scale p^{1-kappa_d} log p is what turns complete-sum lower
bounds into large Weyl sums on whole neighborhoods.  The L_p readers
`count_Lp(table, gamma)`, `enumerate_Lp(table, gamma, cap)` and
`minimal_witness_side(table, gamma)` take a `CompleteSumTable` and read d
and p from it.  They count and list those sets through the table's orbit
view, and read their members in a box by one block scan of lookups
(`_member_blocks`, shared by `minimal_witness_side` and the Cantor witness
search).  The module also computes the beta_d / kappa_d exponents in exact
rationals and verifies the two amplification inequalities with their
explicit proof constants (0.25*gamma*N*p^{-1/2} for the full polynomial,
0.5*N/p for the monomial).

All exponent and radius comparisons are done in exact integer arithmetic
(rational tau = u/v turns r < p^{-tau} into r^v * p^u < 1 over a common
denominator); floats appear only when a sum magnitude meets its bound.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import exp, gcd, log, sqrt
from typing import Sequence

import numpy as np

from .complete_sums import CompleteSumTable, DiscreteBox, _orbit, _require_prime, complete_sum
from .errors import (
    DEFAULT_CAP,
    InvalidNumeratorError,
    LemmaCheckFailureError,
    PreconditionError,
    PrimeTooSmallError,
    UndefinedForDegreeError,
    WitnessNotFoundError,
    _check_size,
)
from .phasecore import TURN, Phase, phase_from_rational
from .weyl_sums import BLOCK, CHUNK, _accumulate, _phase_words, monomial_sum, weyl_sum

MEMBERSHIP_SLACK = 1e-9  # relative slack absorbing float noise at the threshold
MAX_TAU_DENOMINATOR = 100  # tau = u/v enters integer roots of degree v and 2 d^2 v; a run took 7-45 s at v = 10^4


def beta(d: int) -> Fraction:
    """max over nu = 1..d of min(d/nu, 2d/(2d - nu)), exact rational."""
    if d < 3:
        raise UndefinedForDegreeError(f"beta_d is defined for d >= 3, got {d}")
    return max(min(Fraction(d, nu), Fraction(2 * d, 2 * d - nu)) for nu in range(1, d + 1))


def kappa(d: int) -> Fraction:
    """beta_d / (2d) = max over nu of min(1/(2 nu), 1/(2d - nu))."""
    return beta(d) / (2 * d)


# ---------------------------------------------------------------------------
# exact comparisons for p^{-tau} radii and plan sizes


def _as_fraction(x) -> Fraction:
    f = Fraction(x)
    return f.limit_denominator(10**12) if isinstance(x, float) else f


def _iroot(n: int, k: int) -> int:
    """The largest r with r**k <= n, for n >= 0 and k >= 1 (integer Newton from above).

    The start m 2^s > n^(1/k) comes from float logs (log takes big ints), raised by 2^-16, far above
    their error, so each step about doubles the correct bits, where 2^ceil(bits/k) took ~k steps.
    """
    if n < 1:
        return 0
    e = log(n) / k
    s = max(0, int(e / log(2)) - 60)
    r = (int(exp(e - s * log(2)) * (1 + 2**-16)) + 1) << s
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def radius_units(p: int, tau: Fraction) -> int:
    """Largest r with r/2^64 < p^{-tau}: the open-ball radius on the phase grid."""
    u, v = tau.numerator, tau.denominator
    if u < 0:
        raise PreconditionError(f"need tau >= 0, got {tau}")
    # r^v * p^u < 2^{64 v}  <=>  r^v <= (2^{64 v} - 1) // p^u
    return _iroot(((1 << (64 * v)) - 1) // p**u, v)


def _check_grid_radius(p: int, tau: Fraction) -> None:
    """Refuse a radius p^{-tau} below the 2^-64 step of the phase grid, where `radius_units` is 0.

    That is p^u >= 2^{64 v} for tau = u/v, decided by bit lengths before the
    power is formed when it is far past 2^{64 v}; a v past MAX_TAU_DENOMINATOR goes first.
    """
    u, v = tau.numerator, tau.denominator
    if v > MAX_TAU_DENOMINATOR:
        raise PreconditionError(f"need tau = {tau} with denominator at most {MAX_TAU_DENOMINATOR}")
    if (p.bit_length() - 1) * u >= 64 * v or p**u >= 1 << (64 * v):
        raise PreconditionError(f"p^-tau = {p}^-({tau}) is below the 2^-64 step of the phase grid")


def _wrapped_units(frac: int, target_num: int, target_den: int) -> Fraction:
    """Exact torus distance |frac/2^64 - target_num/target_den| as a Fraction."""
    diff = (Fraction(frac, TURN) - Fraction(target_num, target_den)) % 1
    return min(diff, 1 - diff)


def within_radius(x_frac: int, a: int, q: int, p: int, tau: Fraction) -> bool:
    """Exact test of |x - a/q| < p^{-tau} (torus distance)."""
    dist = _wrapped_units(x_frac, a % q, q)
    u, v = tau.numerator, tau.denominator
    return dist.numerator**v * p**u < dist.denominator**v


def plan_trial_count(p: int, tau: Fraction, d: int, gamma: Fraction) -> int:
    """floor(0.25 * gamma^{1/d} * p^{(2 tau - 1)/(2 d) - 1}) by an exact integer root."""
    u, v = tau.numerator, tau.denominator
    # exponent (2 tau - 1)/(2d) - 1 = A / B
    A = 2 * u - v - 2 * d * v
    B = 2 * d * v
    gn, gd = gamma.numerator, gamma.denominator
    if gn <= 0 or d < 1:
        raise PreconditionError(f"need gamma > 0 and d >= 1, got gamma = {gamma} and d = {d}")
    # m <= 0.25 gamma^{1/d} p^{A/B}, raised to the power B*d so every factor is
    # an integer: (4 m)^{B d} <= gn^B p^{A d} / gd^B
    return _iroot(gn**B * p ** max(A * d, 0) // (gd**B * p ** max(-A * d, 0)), B * d) // 4


# ---------------------------------------------------------------------------
# the large-value sets


def threshold(p: int, gamma: float) -> float:
    """gamma sqrt(p), less the membership slack; L_p is defined for prime p and gamma > 0 only."""
    if not gamma > 0:
        raise PreconditionError(f"need gamma > 0, got gamma = {gamma}")
    _require_prime(p)
    return gamma * sqrt(p) * (1.0 - MEMBERSHIP_SLACK)


def _marks(table: CompleteSumTable, gamma: float) -> list:
    """Per orbit class of the table, which representatives lie in L_p: a_d != 0 and |T| >= the threshold."""
    thr = threshold(table.p, gamma)
    return [(mags >= thr) & top for mags, _, top in table.orbits]


def count_Lp(table: CompleteSumTable, gamma: float = 1.0) -> int:
    """#L_p for the table's (d, p), each member representative weighted by its orbit size; no member is listed."""
    return sum(c.size * int(np.count_nonzero(m)) for c, m in zip(table.orbits, _marks(table, gamma)))


def _member_blocks(table: CompleteSumTable, thr: float, axes: Sequence[np.ndarray], step: int):
    """The member rows of L_p inside the product of the index arrays ``axes``, in blocks.

    ``axes`` holds d int64 arrays of residues.  Each block is the (k, d)
    array of the rows a with a_d != 0 and |T(a)| >= thr over ``step``
    consecutive values of axes[0] (empty blocks are yielded too), read
    through `lookup`; the rows come in the lexicographic order of the axes.
    """
    for lo in range(0, len(axes[0]), step):
        block = [axes[0][lo : lo + step], *axes[1:]]
        big = table.lookup(np.ix_(*block)) >= thr
        big &= block[-1] != 0  # a_d != 0, along the last axis
        yield np.stack([axis[i] for axis, i in zip(block, np.nonzero(big))], axis=1)


def enumerate_Lp(table: CompleteSumTable, gamma: float = 1.0, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All a with a_d != 0 and |T(a)| >= gamma*sqrt(p): the (count, d) int64 rows, lexicographic.

    The rows are refused past ``cap`` members before any is listed, then
    expanded from the member representatives by `CompleteSumTable.orbit_rows`.
    """
    _check_size("L_p of {} members exceeds the cap of {}; raise the cap", count_Lp(table, gamma), cap=cap)
    return table.orbit_rows(_marks(table, gamma))


_ANCHOR_TRIES = 10_000  # random draws before find_anchor gives up


def find_anchor(
    d: int,
    p: int,
    gamma: float = 1.0,
    seed: int = 0,
) -> tuple[int, ...]:
    """Seeded random search for a single member of L_p, verified by direct summation.

    The set has density bounded away from zero, so this stays cheap even when
    p^d is far beyond any enumerable cap.
    """
    _require_prime(p)
    rng = np.random.Generator(np.random.Philox(key=seed))
    thr = threshold(p, gamma)
    for _ in range(_ANCHOR_TRIES):
        a = tuple(int(v) for v in rng.integers(0, p, size=d - 1)) + (
            int(rng.integers(1, p)),
        )
        if abs(complete_sum(d, p, a)) >= thr:
            return a
    raise WitnessNotFoundError(
        f"no member of L_p found in {_ANCHOR_TRIES} tries (d={d}, p={p}, gamma={gamma})"
    )


@dataclass(frozen=True)
class OrbitCountReport:
    count: int
    reference: float  # 0.5 * L^k * p^{1-k}

    @property
    def passed(self) -> bool:
        return self.count >= self.reference


def orbit_in_box_count(a: Sequence[int], p: int, box: DiscreteBox) -> OrbitCountReport:
    """#{lambda in F_p^*: (a_1 lambda, ..., a_k lambda^k) in B} vs 0.5 L^k p^{1-k}."""
    _require_prime(p)
    a = tuple(int(ai) % p for ai in a)
    k = len(a)
    if k < 1 or box.dim != k:
        raise PreconditionError("box dimension must match the coefficient prefix")
    if any(ai == 0 for ai in a):
        raise PreconditionError("all prefix coefficients must be nonzero")
    inside = np.ones(p - 1, dtype=bool)
    for image, vals in zip(_orbit(a, np.arange(1, p, dtype=np.int64), p), box.axis_values(p)):
        inside &= np.isin(image, vals)
    count = int(inside.sum())
    return OrbitCountReport(count=count, reference=0.5 * box.side**k * float(p) ** (1 - k))


def minimal_witness_side(table: CompleteSumTable, gamma: float = 1.0) -> dict:
    """Smallest side L such that the origin-cornered box {1..L}^d meets L_p.

    The boxes are nested and the side-p box is all of F_p^d, so the answer is
    the least max-coordinate over members in {1..p-1}^d; p when every member
    has a zero coordinate, and None when L_p is empty.  The boxes {1..L}^d
    are read for L = 1, 2, 4, ... up to p - 1, about one CHUNK of entries per
    `_member_blocks` block, and the first that holds a member gives the
    least max-coordinate of its members; no rows are listed.  Compare against
    p^{1-kappa_d} log p (the lemma's unknown constant C).
    """
    d, p = table.d, table.p
    found, side = None, 0
    while found is None and side < p - 1:
        side = min(max(2 * side, 1), p - 1)
        inner = np.arange(1, side + 1, dtype=np.int64)
        blocks = _member_blocks(table, threshold(p, gamma), [inner] * d, max(1, CHUNK // side ** (d - 1)))
        found = min((int(rows.max(axis=1).min()) for rows in blocks if len(rows)), default=None)
    if found is None and count_Lp(table, gamma):
        found = p
    reference = float(p) ** (1 - float(kappa(d))) * log(p) if d >= 3 else float("nan")
    return {
        "minimal_side": found,
        "reference_side": reference,
        "ratio": (found / reference) if found is not None else None,
    }


# ---------------------------------------------------------------------------
# amplification


@dataclass(frozen=True)
class AmplificationPlan:
    """Trial length and neighborhood for manufacturing a large Weyl sum.

    N = p * floor(0.25 * gamma^{1/d} * p^{(2 tau - 1)/(2 d) - 1}) and the
    neighborhood is the open L-infinity ball of radius p^{-tau} around
    anchor/p.
    """

    d: int
    p: int
    tau: Fraction
    gamma: Fraction
    anchor: tuple[int, ...]
    N: int

    @property
    def bound(self) -> float:
        """0.25 * gamma * N * p^{-1/2}."""
        return 0.25 * float(self.gamma) * self.N / sqrt(self.p)


def amplification_plan(
    p: int,
    tau,
    d: int,
    gamma=1,
    anchor: Sequence[int] | None = None,
    seed: int = 0,
) -> AmplificationPlan:
    """Build the trial plan; PrimeTooSmallError when the floor vanishes."""
    _require_prime(p)
    tau = _as_fraction(tau)
    gamma = _as_fraction(gamma)
    if 2 * tau <= 2 * d + 1:
        raise PreconditionError(f"need tau > d + 1/2, got tau={tau}, d={d}")
    _check_grid_radius(p, tau)
    m = plan_trial_count(p, tau, d, gamma)
    if m < 1:
        raise PrimeTooSmallError(
            f"0.25 gamma^(1/d) p^((2tau-1)/2d-1) < 1 at p={p}: no admissible trial length"
        )
    if anchor is None:
        anchor = find_anchor(d, p, float(gamma), seed=seed)
    anchor = tuple(int(ai) % p for ai in anchor)
    if anchor[-1] == 0:
        raise PreconditionError("anchor must have a_d != 0")
    return AmplificationPlan(d=d, p=p, tau=tau, gamma=gamma, anchor=anchor, N=p * m)


def neighborhood_point(plan: AmplificationPlan, axis: int, sign: int = 1, scale: Fraction = Fraction(1, 2)) -> tuple[Phase, ...]:
    """anchor/p displaced along one axis by scale * p^{-tau} (default half radius)."""
    if not 0 <= axis < plan.d:
        raise PreconditionError("axis out of range")
    offset = int(radius_units(plan.p, plan.tau) * scale)
    fracs = [phase_from_rational(ai, plan.p) for ai in plan.anchor]
    fracs[axis] = Phase(fracs[axis].frac + (offset if sign >= 0 else -offset))
    return tuple(fracs)


def _json_fields(report) -> dict:
    """A report dataclass's fields by name, with `passed` written as "pass": the field values themselves, not deep copies."""
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    out["pass"] = out.pop("passed")
    return out


@dataclass(frozen=True)
class CheckReport:
    """JSON-able record of a single inequality check."""

    lemma: str
    params: dict
    value: float
    bound: float
    passed: bool

    def to_json_dict(self) -> dict:
        return _json_fields(self)


def amplified_sum_check(plan: AmplificationPlan, x: Sequence[Phase]) -> CheckReport:
    """Assert |S(x; N)| >= 0.25 * gamma * N * p^{-1/2} inside the neighborhood.

    The inequality is a theorem under the plan's preconditions, so a failure
    raises rather than returning a failing report.
    """
    if len(x) != plan.d:
        raise PreconditionError("point dimension must equal d")
    for xj, aj in zip(x, plan.anchor):
        if not within_radius(xj.frac, aj, plan.p, plan.p, plan.tau):
            raise PreconditionError("x lies outside the p^{-tau} neighborhood of anchor/p")
    value = abs(weyl_sum(tuple(x), plan.N))
    bound = plan.bound
    report = CheckReport(
        lemma="large-sum-neighborhood",
        params={
            "d": plan.d,
            "p": plan.p,
            "tau": str(plan.tau),
            "gamma": str(plan.gamma),
            "anchor": list(plan.anchor),
            "N": plan.N,
        },
        value=value,
        bound=bound,
        passed=value >= bound,
    )
    if not report.passed:
        raise LemmaCheckFailureError(
            f"amplified sum check failed: |S| = {value} < {bound} for {report.params}"
        )
    return report


def monomial_amplified_check(
    a: int,
    p: int,
    d: int,
    tau,
    x: Phase | None = None,
    N: int | None = None,
) -> CheckReport:
    """Assert |sigma_d(x; N)| >= 0.5 N / p near a/p^d.

    Default N = p^d (the range minimum) and default x at half the allowed
    radius.  The admissible range p^d <= N <= 0.25^{1/d} p^{(tau-1)/d} with
    p^d | N is validated exactly.
    """
    _require_prime(p)
    if gcd(a, p) != 1:
        raise InvalidNumeratorError(f"gcd({a}, {p}) != 1")
    tau = _as_fraction(tau)
    _check_grid_radius(p, tau)
    u, v = tau.numerator, tau.denominator
    # admissible iff 4 N^d <= p^{tau-1}, i.e. (4 N^d)^v <= p^{u-v} in integers; N >= p^d fails it
    # whenever d^2 >= tau - 1, which is refused before p^d is formed
    if d * d * v >= u - v:
        raise PrimeTooSmallError(f"p^d exceeds 0.25^(1/d) p^((tau-1)/d) at d={d}, tau={tau}; admissible range is empty")
    q = p**d
    if N is None:
        N = q
    if N < q or N % q != 0:
        raise PreconditionError(f"need p^d | N and N >= p^d, got N={N}")
    if (4 * N**d) ** v > p ** (u - v):
        raise PrimeTooSmallError(
            f"N={N} exceeds 0.25^(1/d) p^((tau-1)/d); admissible range is empty or smaller"
        )
    if x is None:
        offset = radius_units(p, tau) // 2
        x = Phase(phase_from_rational(a, q).frac + offset)
    if not within_radius(x.frac, a % q, q, p, tau):
        raise PreconditionError("x lies outside the p^{-tau} neighborhood of a/p^d")
    value = abs(monomial_sum(x, N, d))
    bound = 0.5 * N / p
    report = CheckReport(
        lemma="monomial-neighborhood",
        params={"d": d, "p": p, "tau": str(tau), "a": a, "N": N},
        value=value,
        bound=bound,
        passed=value >= bound,
    )
    if not report.passed:
        raise LemmaCheckFailureError(
            f"monomial amplified check failed: |sigma| = {value} < {bound} for {report.params}"
        )
    return report


# ---------------------------------------------------------------------------
# measure of the finite-N exceptional slices


@dataclass(frozen=True)
class MeasureReport:
    d: int
    alpha: float
    i: int
    samples: int
    estimate: float
    half_width: float  # 95% binomial confidence half-width
    threshold: float

    @property
    def inverse_i_ratio(self) -> float:
        """estimate * i: the constant against the lambda >> 1/i prediction."""
        return self.estimate * self.i


def measure_estimate(d: int, alpha: float, i: int, samples: int, seed: int = 0) -> MeasureReport:
    """Monte Carlo estimate of lambda{x : |S(x; i)| >= i^alpha}.

    Philox (counter-based) keyed by the seed, one draw stream in a fixed
    order, so the result is reproducible for a given seed under any split of
    the work: full-range uint64 draws do not depend on how they are split.
    Samples are drawn and summed in blocks of floor(BLOCK / i) points (at
    least one), each summed as one batch by the Weyl-sum loop
    (`weyl_sums._accumulate`), which checks the trivial bound and returns the
    moduli counted here, so memory stays at about one BLOCK of terms, the
    loop's own block, whatever the sample count.
    """
    if samples < 10**3:
        raise PreconditionError("need at least 10^3 samples")
    if not 0.0 < alpha < 0.5:
        raise PreconditionError("need 0 < alpha < 1/2")
    if i < 1:
        raise PreconditionError("i must be >= 1")
    block = max(1, BLOCK // i)
    if not 1 <= d < (1 << 60) // block:  # a block's uint64 words, as many as numpy addresses (2^63 bytes)
        raise PreconditionError(f"need 1 <= d < 2^60 / {block} for blocks of {block} points")
    rng = np.random.Generator(np.random.Philox(key=seed))
    thr = float(i) ** alpha
    # relative slack so exact ties (|S(x;1)| = 1 = threshold) are not decided
    # by trigonometric rounding noise
    cut = thr * (1.0 - 1e-12)
    hits = 0
    for start in range(0, samples, block):
        words = rng.integers(0, TURN, size=(min(block, samples - start), d), dtype=np.uint64)
        hits += int(np.count_nonzero(_accumulate(*_phase_words(words, None, i), (i,))[2] >= cut))
    est = hits / samples
    half = 1.96 * sqrt(max(est * (1.0 - est), 0.0) / samples)
    return MeasureReport(
        d=d, alpha=alpha, i=i, samples=samples, estimate=est, half_width=half, threshold=thr
    )
