"""Pattern-based Cantor constructions on integer lattices.

An (a, b, c)-pattern splits a side-a box into (a/b)^d cells and keeps one
side-c sub-box per cell.  Iterating patterns along a schedule (delta_k, ell_k)
with q_k = (delta_{k-1}/ell_k)^d produces the nested collections whose
intersection has dimension liminf log(prod q_i) / (-log delta_k).  The boxes
of a level share one side and, with their corners, one denominator, so a
level is integers: (n, d) Python-int corners C, a side S and a denominator D,
box i being prod_j [C_ij, C_ij + S) / D.  A pattern is a level in the chart
of the unit cube, over a denominator E, and one step, `compose`, copies it
into every box of a level: corners C E + S * offset, side S s, denominator
D E, with no gcd.  Python ints carry the denominators past 2^63 (2^32 per
seeded-random level).  Nesting, disjointness, grid counts and the natural
weights are exact, never tolerances; Fractions stay at the boundaries
(pattern and schedule input, the scales, the weights, the JSONL "n/d" rows).

The large-sum-guided construction keeps, inside every cell, a sub-box centered on
a point a/p of the large-sum set L_p, so each kept box carries a certificate
|S(a/p; N)| >= 0.25*gamma*N*p^{-1/2} verified by direct evaluation; the
witness is the first member the L_p block scan of `large_values` finds in the
cell's central box.  Placing level-(k+1) anchors inside a level-k box in
global coordinates would force p_{k+1} beyond anything enumerable (the
lattice spacing 1/p_{k+1} must drop under p_k^{-tau}), so levels compose in
parent-relative charts instead: every parent box is an affine copy of the
torus and the level-k anchors are genuine torus points of L_{p_k}/p_k in
that chart, composed by the same step.  The schedule then has
delta_k = prod_{i<=k} p_i^{-tau}, and the run reports the effective epsilon
its integer cell counts achieved next to the requested one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .complete_sums import DEFAULT_CAP, _check_size, _require_prime, build_table
from .errors import (
    InvalidPatternError,
    InvalidScheduleError,
    LemmaCheckFailureError,
    PreconditionError,
    TooFewScalesError,
    WitnessNotFoundError,
)
from .large_values import _as_fraction, _iroot, _json_fields, _member_blocks, kappa, plan_trial_count, threshold
from .phasecore import RationalPoint
from .weyl_sums import weyl_sum

PlacementRule = str  # "corner" | "centered" | "seeded-random"
_RULES = ("corner", "centered", "seeded-random")
# floor(p^(kappa_d - eps)) is an integer root of p^numerator, whose work grows with the denominator
MAX_EXPONENT_DENOMINATOR = 10**4


@dataclass(frozen=True)
class PatternSpec:
    """(a, b, c) with a > b > c > 0 and a/b integral, plus a placement rule."""

    a: Fraction
    b: Fraction
    c: Fraction
    rule: PlacementRule = "centered"
    seed: int = 0

    def __post_init__(self):
        a, b, c = Fraction(self.a), Fraction(self.b), Fraction(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if not a > b > c > 0:
            raise InvalidPatternError(f"need a > b > c > 0, got ({a}, {b}, {c})")
        if (a / b).denominator != 1:
            raise InvalidPatternError(f"a/b = {a}/{b} is not an integer")
        if self.rule not in _RULES:
            raise InvalidPatternError(f"unknown placement rule {self.rule!r}")

    @property
    def cells_per_axis(self) -> int:
        return int(self.a / self.b)


@dataclass(frozen=True, eq=False)
class BoxCollection:
    """Depth-k level: box i is prod_j [corners[i, j], corners[i, j] + side) / denom.

    ``corners`` is an (n, d) object array of Python ints.  The boxes are
    pairwise disjoint and nested in the boxes of the level above.
    """

    depth: int
    corners: np.ndarray
    side: int
    denom: int
    certificates: tuple[dict | None, ...] = ()

    def __len__(self) -> int:
        return len(self.corners)

    def natural_weight(self) -> Fraction:
        """nu_k(B) = 1 / #C_k per depth-k box; the weights sum to 1 exactly."""
        return Fraction(1, len(self))

    def to_jsonl(self) -> str:
        """One row per box, each the line json.dumps(row, sort_keys=True) writes.

        A certificate dict that several rows carry is serialized once and
        spliced in as the row's first key, where "certificate" sorts.
        """

        def reduced(n: int) -> str:
            g = math.gcd(n, self.denom)
            return f"{n // g}/{self.denom // g}"

        side = reduced(self.side)
        serialized: dict[int, str] = {}  # id of a certificate dict -> its JSON
        lines = []
        for row, cert in zip(self.corners.tolist(), self.certificates or (None,) * len(self)):
            line = json.dumps({"depth": self.depth, "corner": [reduced(c) for c in row], "side": side}, sort_keys=True)
            if cert is not None:
                text = serialized.get(id(cert))
                if text is None:
                    text = serialized[id(cert)] = json.dumps(cert, sort_keys=True)
                line = f'{{"certificate": {text}, {line[1:]}'
            lines.append(line)
        return "\n".join(lines) + "\n"


def compose(parent: BoxCollection, chart: BoxCollection) -> BoxCollection:
    """The chart level, drawn in the unit cube, copied into every parent box, parent by parent."""
    corners = parent.corners[:, None, :] * chart.denom + parent.side * chart.corners[None, :, :]
    return BoxCollection(parent.depth + chart.depth, corners.reshape(-1, corners.shape[-1]),
                         parent.side * chart.side, parent.denom * chart.denom)


def make_pattern(spec: PatternSpec, d: int) -> BoxCollection:
    """The pattern in the chart of its side-a box, the unit cube: one side-c/a box per cell.

    Cells run in `np.ndindex` order; a seeded-random pattern draws d words
    in [0, 2^32) per cell from one Philox stream keyed by the seed.
    """
    if d < 1:
        raise PreconditionError("dimension must be >= 1")
    m = spec.cells_per_axis
    _check_size(f"{{}} boxes of {d} corner coordinates exceed the cap of {{}}", m, d, factor=d)
    cells = np.indices((m,) * d).reshape(d, -1).T.astype(object)
    slack = (spec.b - spec.c) / spec.a  # room around the kept box in its cell, in chart units
    if spec.rule == "corner":
        step, words = Fraction(0), 0
    elif spec.rule == "centered":
        step, words = slack / 2, 1
    else:  # seeded-random
        step = slack / (1 << 32)
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
        words = rng.integers(0, 1 << 32, size=cells.shape).astype(object)
    side = spec.c / spec.a
    denom = math.lcm(m, side.denominator, step.denominator)
    corners = cells * (denom // m) + int(step * denom) * words
    return BoxCollection(depth=1, corners=corners, side=int(side * denom), denom=denom)


@dataclass(frozen=True)
class CantorSchedule:
    """delta_0 = 1 implicit; level k uses the (delta_{k-1}, ell_k, delta_k)-pattern.

    q_k = (delta_{k-1}/ell_k)^d is derived, which is why the ambient dimension
    is part of the schedule.
    """

    d: int
    deltas: tuple[Fraction, ...]
    ells: tuple[Fraction, ...]

    def __post_init__(self):
        if self.d < 1:
            raise InvalidScheduleError("dimension must be >= 1")
        deltas = tuple(Fraction(v) for v in self.deltas)
        ells = tuple(Fraction(v) for v in self.ells)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "ells", ells)
        if len(deltas) != len(ells):
            raise InvalidScheduleError("need one ell per delta")
        prev = Fraction(1)
        for k, (dk, lk) in enumerate(zip(deltas, ells), start=1):
            # ell_k = delta_k (full packing) is the degenerate dimension-d limit:
            # legal for dimension bookkeeping, rejected later by the pattern builder
            if not dk <= lk < prev:
                raise InvalidScheduleError(f"level {k}: need delta_{k} <= ell_{k} < delta_{k-1}")
            if (prev / lk).denominator != 1:
                raise InvalidScheduleError(f"level {k}: delta_{k-1}/ell_{k} not an integer")
            prev = dk

    @property
    def depth(self) -> int:
        return len(self.deltas)

    def delta(self, k: int) -> Fraction:
        return Fraction(1) if k == 0 else self.deltas[k - 1]

    def cells(self, k: int) -> int:
        """Cells per axis of level k's pattern, delta_{k-1}/ell_k."""
        return int(self.delta(k - 1) / self.ells[k - 1])

    def q(self, k: int) -> int:
        return self.cells(k) ** self.d

    def pattern(self, k: int, rule: PlacementRule = "centered", seed: int = 0) -> PatternSpec:
        return PatternSpec(
            a=self.delta(k - 1), b=self.ells[k - 1], c=self.deltas[k - 1], rule=rule, seed=seed
        )


def geometric_schedule(d: int, ratios: Sequence[tuple[int, Fraction]]) -> CantorSchedule:
    """Schedule from (cells_per_axis m_k, shrink delta_k/delta_{k-1}) pairs."""
    deltas, ells = [], []
    prev = Fraction(1)
    for m, shrink in ratios:
        ells.append(prev / m)
        prev = prev * Fraction(shrink)
        deltas.append(prev)
    return CantorSchedule(d=d, deltas=tuple(deltas), ells=tuple(ells))


def build_cantor(
    schedule: CantorSchedule,
    depth: int,
    rule: PlacementRule = "centered",
    seed: int = 0,
) -> BoxCollection:
    """Iterate the schedule's patterns to ``depth`` from the unit cube; cardinality audited exactly.

    A collection past DEFAULT_CAP corner coordinates is refused before the first level.
    """
    if depth < 0 or depth > schedule.depth:
        raise InvalidScheduleError(f"depth must lie in [0, {schedule.depth}]")
    cells = math.prod(schedule.cells(k) for k in range(1, depth + 1))
    _check_size(f"{{}} boxes of {schedule.d} corner coordinates exceed the cap of {{}}",
                cells, schedule.d, factor=schedule.d)
    expected = cells**schedule.d
    level = BoxCollection(depth=0, corners=np.zeros((1, schedule.d), dtype=object), side=1, denom=1)
    for k in range(1, depth + 1):
        level = compose(level, make_pattern(schedule.pattern(k, rule=rule, seed=seed + k), schedule.d))
    if len(level) != expected:
        raise InvalidScheduleError("cardinality audit failed")
    return level


# ---------------------------------------------------------------------------
# dimension estimators


def dimension_formula(schedule: CantorSchedule, k_max: int) -> float:
    """min over k <= K of log(prod_{i<=k} q_i) / (-log delta_k), for 1 <= K <= depth.

    Finite-depth surrogate of the liminf; upper-bound-biased because the min
    runs over computed depths only.
    """
    if k_max < 1:
        raise PreconditionError("need K_max >= 1")
    if k_max > schedule.depth:
        raise PreconditionError(f"schedule only defines {schedule.depth} levels")
    best = None
    prod_q = 1
    for k in range(1, k_max + 1):
        prod_q *= schedule.q(k)
        dk = schedule.delta(k)
        val = math.log(prod_q) / (math.log(dk.denominator) - math.log(dk.numerator))
        best = val if best is None or val < best else best
    return best


def checked_scales(scales: Sequence) -> list[Fraction]:
    """The box-counting scales as Fractions, largest first.

    Refuses fewer than 3 positive scales or scales spanning less than a
    factor of 10 (the self-similar reference schedules span 64+), so that a
    caller can check them before building the collection they measure.
    """
    eps = sorted((Fraction(s) for s in scales), reverse=True)
    if len(eps) < 3 or eps[-1] <= 0:
        raise TooFewScalesError("need at least 3 positive scales")
    if eps[0] / eps[-1] < 10:
        raise TooFewScalesError("scales must span at least a factor of 10")
    return eps


def box_counting_dimension(collection: BoxCollection, scales: Sequence) -> float:
    """Least-squares slope of log N(eps) against log(1/eps) on exact grid counts.

    N(eps) counts eps-grid cells meeting the collection; boxes are half-open
    so the count is exact in rational arithmetic.  The scales must pass
    `checked_scales`.
    """
    eps = checked_scales(scales)
    xs, ys = [], []
    for e in eps:
        n = _grid_count(collection, e)
        xs.append(math.log(float(1 / e)))
        ys.append(math.log(n))
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def _grid_count(collection: BoxCollection, eps: Fraction) -> int:
    # x = C / D lies in the eps-grid cell floor(x / eps) = floor(C q / (D n)) for eps = n / q
    num, den = collection.denom * eps.numerator, eps.denominator
    lo = collection.corners * den // num
    hi = -((collection.corners + collection.side) * -den // num) if collection.side else lo + 1
    # the cells the set below would visit, as Python ints
    _check_size("{} grid cells met at one box-counting scale exceed the cap of {}", (hi - lo).prod(axis=1).sum())
    cells: set[tuple[int, ...]] = set()
    for row_lo, row_hi in zip(lo.tolist(), hi.tolist()):
        cells.update(itertools.product(*map(range, row_lo, row_hi)))
    return len(cells)


# ---------------------------------------------------------------------------
# the large-sum-guided construction


@dataclass(frozen=True)
class LevelCertificate:
    level: int
    p: int
    cell: tuple[int, ...]
    anchor: tuple[int, ...]
    N: int
    value: float
    bound: float
    passed: bool

    def to_json_dict(self) -> dict:
        return _json_fields(self)


@dataclass(frozen=True)
class LargeSumCantorResult:
    collection: BoxCollection
    schedule: CantorSchedule
    certificates: tuple[LevelCertificate, ...]
    cells_per_axis: tuple[int, ...]
    dimension_value: float
    epsilon_requested: float
    epsilon_effective: float  # kappa_d - (tau/d) * dimension_value


def large_sum_cantor(
    d: int,
    tau,
    epsilon,
    primes: Sequence[int],
    depth: int,
    gamma=1,
    cap: int = DEFAULT_CAP,
) -> LargeSumCantorResult:
    """Cantor set whose kept boxes are centered on large-sum anchors, with certificates.

    Per level k: the chart torus is split into m_k^d cells with
    m_k = max(floor(p_k^{kappa_d - eps}), 2); the witness search runs over the
    central 2/5 of each cell (the discrete box of lattice points a/p_k) and
    keeps the sub-box of side p_k^{-tau} centered at the witness.  N_k is the
    plan trial count p_k * floor(0.25 gamma^{1/d} p_k^{(2tau-1)/2d-1}) when
    that floor is positive, else p_k (anchor periodicity still certifies the
    bound at the center).  epsilon and gamma are taken as exact rationals, a
    float by `large_values._as_fraction`.  Raises WitnessNotFoundError with
    the failing level when a cell has no witness, LemmaCheckFailureError
    if a certificate inequality fails, which would be an implementation bug,
    and ResourceLimitError before a level's boxes are composed if they would
    pass DEFAULT_CAP: prod_k m_k^d rows of 3d + 6 values, each box's corner
    and its certificate.
    """
    tau = Fraction(tau)
    if tau.denominator != 1:
        raise PreconditionError(
            "cantor geometry needs integer tau: p^(-tau) must be an exact rational"
        )
    if 2 * tau <= 2 * d + 1:
        raise PreconditionError(f"need tau > d + 1/2, got tau={tau}")
    if d < 3:
        raise PreconditionError("the construction is for d >= 3")
    primes = tuple(int(p) for p in primes)
    if len(primes) < depth or depth < 1:
        raise PreconditionError("need one prime per level")
    if any(b <= a for a, b in zip(primes, primes[1:])):
        raise PreconditionError("primes must be strictly increasing")
    eps = _as_fraction(epsilon)
    kap = kappa(d)
    if not 0 <= eps < kap:
        raise PreconditionError(f"need 0 <= epsilon < kappa_d = {kap}")
    expo = kap - eps  # > 0, so floor(p^expo) >= 1
    if expo.denominator > MAX_EXPONENT_DENOMINATOR:
        raise PreconditionError(f"need kappa_d - epsilon = {expo} with denominator at most {MAX_EXPONENT_DENOMINATOR}")
    gamma_fr = _as_fraction(gamma)
    threshold(primes[0], float(gamma_fr))  # refuses gamma <= 0 before any table is built
    tau = int(tau)
    # N_k <= gamma^(1/d) p^((2 tau - 1)/(2d)) / 4 goes into the float of its bound: refused past the
    # float range by its logarithm, before plan_trial_count forms a power of p (a tau past 2^64,
    # already far past that range, counts as 2^64, so that it converts to a float)
    log_gamma = math.log2(gamma_fr.numerator) - math.log2(gamma_fr.denominator)
    for p in primes[:depth]:
        _require_prime(p)
        log_n = (math.log2(p) * (min(tau, 1 << 64) - 0.5) + log_gamma) / d - 2
        if log_n >= 1024 - 1e-6:
            raise PreconditionError(f"at p = {p} the trial length N of about 2^{log_n:.0f} is past the float range")

    boxes = BoxCollection(depth=0, corners=np.zeros((1, d), dtype=object), side=1, denom=1)
    ratios: list[tuple[int, Fraction]] = []  # (m_k, p_k^-tau) per level, as geometric_schedule takes them
    certificates: list[LevelCertificate] = []
    cells = 1  # prod_k m_k over the levels so far

    for level in range(1, depth + 1):
        p = primes[level - 1]
        thr = threshold(p, float(gamma_fr))
        table = build_table(d, p, cap=cap)
        m = max(_iroot(p**expo.numerator, expo.denominator), 2)  # floor(p^expo)
        # a witness lies in the central 2/5 of its cell, 3/(10m) from either edge, so the
        # sub-box centered on it stays in the cell exactly when p^-tau / 2 <= 3/(10m)
        if 5 * m > 3 * p**tau:
            raise PreconditionError(f"level {level}: half of p^-tau exceeds the 3/(10m) margin of a cell")
        trial = plan_trial_count(p, tau, d, gamma_fr)
        n_level = p * max(trial, 1)
        bound = 0.25 * float(gamma_fr) * n_level / math.sqrt(p)

        # the lattice points a/p in the central 2/5 of the cell [i/m, (i+1)/m):
        # ceil((10i + 3) p / (10m)) <= a < ceil((10i + 7) p / (10m))
        central = [range(-(-(10 * i + 3) * p // (10 * m)), -(-(10 * i + 7) * p // (10 * m))) for i in range(m)]
        level_certs: list[LevelCertificate] = []
        for idx in np.ndindex(*(m,) * d):
            witness = _first_witness(table, thr, [central[i] for i in idx])
            if witness is None:
                raise WitnessNotFoundError(
                    f"no large-sum witness in cell {idx} at level {level} (p={p}): "
                    "prime too small for the kappa_d density at this cell size",
                    level=level,
                )
            value = abs(weyl_sum(RationalPoint(a=witness, q=p), n_level))
            cert = LevelCertificate(
                level=level,
                p=p,
                cell=tuple(int(i) for i in idx),
                anchor=witness,
                N=n_level,
                value=value,
                bound=bound,
                passed=value >= bound,
            )
            if not cert.passed:
                raise LemmaCheckFailureError(
                    f"certificate failed at level {level}, cell {idx}: {value} < {bound}"
                )
            level_certs.append(cert)

        # before the boxes are composed: prod_k m_k^d of them so far, each a row of its d corner
        # coordinates and its level certificate's 2d + 6 values
        cells *= m
        _check_size(f"{{}} boxes of {3 * d + 6} corner coordinates and certificate values exceed the cap of {{}}",
                    cells, d, factor=3 * d + 6)
        certificates.extend(level_certs)
        # each copy of the chart carries its certificates, serialized once
        box_certs = [c.to_json_dict() for c in level_certs] * len(boxes)
        # the sub-box of side p^-tau centered on a/p has chart corner (2 a p^(tau-1) - 1) / (2 p^tau)
        anchors = np.array([c.anchor for c in level_certs], dtype=object)
        chart = BoxCollection(depth=1, corners=anchors * (2 * p ** (tau - 1)) - 1, side=2, denom=2 * p**tau)
        boxes = compose(boxes, chart)
        ratios.append((m, Fraction(1, p**tau)))

    schedule = geometric_schedule(d, ratios)
    dim_value = dimension_formula(schedule, depth)
    eps_eff = float(kap) - (tau / d) * dim_value
    return LargeSumCantorResult(
        collection=replace(boxes, certificates=tuple(box_certs)),
        schedule=schedule,
        certificates=tuple(certificates),
        cells_per_axis=tuple(m for m, _ in ratios),
        dimension_value=dim_value,
        epsilon_requested=float(eps),
        epsilon_effective=eps_eff,
    )


def _first_witness(table, thr: float, ranges: Sequence[range]):
    """Lexicographically first member a of L_p with a_j in ranges[j], or None.

    The ranges hold residues in [0, p).  `_member_blocks` reads the box one
    a_1 value at a time, so the search stops at the first slab that holds a
    witness.
    """
    if not all(ranges):
        return None
    axes = [np.arange(r.start, r.stop, dtype=np.int64) for r in ranges]
    for rows in _member_blocks(table, thr, axes, 1):
        if len(rows):
            return tuple(int(v) for v in rows[0])
    return None
