"""Pattern-based Cantor constructions with exact rational geometry.

An (a, b, c)-pattern splits a side-a box into (a/b)^d cells and keeps one
side-c sub-box per cell.  Iterating patterns along a schedule (delta_k, ell_k)
with q_k = (delta_{k-1}/ell_k)^d produces the nested collections whose
intersection has dimension liminf log(prod q_i) / (-log delta_k).  All box
corners and sides are Fractions: nesting, disjointness and the natural-measure
weights are checked exactly, never with tolerances.

The large-sum-guided construction keeps, inside every cell, a sub-box centered on
a point a/p of the large-sum set L_p, so each kept box carries a certificate
|S(a/p; N)| >= 0.25*gamma*N*p^{-1/2} verified by direct evaluation; the
witness is the first member the L_p block scan of `large_values` finds in the
cell's central box.  Placing
level-(k+1) anchors inside a level-k box in global coordinates would force
p_{k+1} beyond anything enumerable (the lattice spacing 1/p_{k+1} must drop
under p_k^{-tau}), so levels compose in parent-relative charts instead: every
parent box is an affine copy of the torus and the level-k anchors are genuine
torus points of L_{p_k}/p_k in that chart.  The schedule then has
delta_k = prod_{i<=k} p_i^{-tau}, and the run reports the effective epsilon
its integer cell counts achieved next to the requested one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .complete_sums import DEFAULT_CAP, build_table
from .errors import (
    InvalidPatternError,
    InvalidScheduleError,
    LemmaCheckFailureError,
    PreconditionError,
    TooFewScalesError,
    WitnessNotFoundError,
)
from .large_values import _iroot, _member_blocks, kappa, plan_trial_count, threshold
from .phasecore import RationalPoint
from .weyl_sums import weyl_sum

PlacementRule = str  # "corner" | "centered" | "seeded-random"
_RULES = ("corner", "centered", "seeded-random")


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned cube: prod_j [corner_j, corner_j + side)."""

    corner: tuple[Fraction, ...]
    side: Fraction

    @property
    def dim(self) -> int:
        return len(self.corner)

    def contains_box(self, other: "Box") -> bool:
        return all(
            c <= oc and oc + other.side <= c + self.side
            for c, oc in zip(self.corner, other.corner)
        )


def unit_box(d: int) -> Box:
    return Box(corner=(Fraction(0),) * d, side=Fraction(1))


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


def make_pattern(box: Box, spec: PatternSpec) -> list[Box]:
    """One side-c box in each of the (a/b)^d cells of ``box``; deterministic given seed."""
    if box.side != spec.a:
        raise InvalidPatternError(f"box side {box.side} != pattern a {spec.a}")
    d = box.dim
    m = spec.cells_per_axis
    slack = spec.b - spec.c
    rng = None
    if spec.rule == "seeded-random":
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
    out: list[Box] = []
    for idx in np.ndindex(*(m,) * d):
        cell_corner = tuple(box.corner[j] + idx[j] * spec.b for j in range(d))
        if spec.rule == "corner":
            corner = cell_corner
        elif spec.rule == "centered":
            corner = tuple(cc + slack / 2 for cc in cell_corner)
        else:  # seeded-random
            draws = rng.integers(0, 1 << 32, size=d)
            corner = tuple(
                cc + slack * Fraction(int(u), 1 << 32) for cc, u in zip(cell_corner, draws)
            )
        out.append(Box(corner=corner, side=spec.c))
    return out


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

    def q(self, k: int) -> int:
        return int(self.delta(k - 1) / self.ells[k - 1]) ** self.d

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


@dataclass(frozen=True)
class BoxCollection:
    """Depth-k collection: prod q_i pairwise-disjoint boxes nested in the parents."""

    depth: int
    boxes: tuple[Box, ...]
    certificates: tuple[dict | None, ...] = ()

    @property
    def dim(self) -> int:
        return self.boxes[0].dim if self.boxes else 0

    def natural_weight(self) -> Fraction:
        """nu_k(B) = 1 / #C_k per depth-k box; the weights sum to 1 exactly."""
        return Fraction(1, len(self.boxes))

    def to_jsonl(self) -> str:
        lines = []
        certs = self.certificates or (None,) * len(self.boxes)
        for b, cert in zip(self.boxes, certs):
            row = {
                "depth": self.depth,
                "corner": [f"{c.numerator}/{c.denominator}" for c in b.corner],
                "side": f"{b.side.numerator}/{b.side.denominator}",
            }
            if cert is not None:
                row["certificate"] = cert
            lines.append(json.dumps(row, sort_keys=True))
        return "\n".join(lines) + "\n"


def build_cantor(
    schedule: CantorSchedule,
    depth: int,
    rule: PlacementRule = "centered",
    seed: int = 0,
) -> BoxCollection:
    """Iterate the schedule's patterns to ``depth``; cardinality audited exactly."""
    if depth < 0 or depth > schedule.depth:
        raise InvalidScheduleError(f"depth must lie in [0, {schedule.depth}]")
    boxes = [unit_box(schedule.d)]
    expected = 1
    for k in range(1, depth + 1):
        spec = schedule.pattern(k, rule=rule, seed=seed + k)
        boxes = [sub for parent in boxes for sub in make_pattern(parent, spec)]
        expected *= schedule.q(k)
        if len(boxes) != expected:
            raise InvalidScheduleError("cardinality audit failed")
    return BoxCollection(depth=depth, boxes=tuple(boxes))


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
        val = _log_int(prod_q) / (_log_int(dk.denominator) - _log_int(dk.numerator))
        best = val if best is None or val < best else best
    return best


def _log_int(n: int) -> float:
    """log of a (possibly huge) positive integer without float overflow."""
    if n <= 0:
        raise ValueError("need a positive integer")
    if n.bit_length() <= 1022:
        return math.log(n)
    shift = n.bit_length() - 64
    return math.log(n >> shift) + shift * math.log(2.0)


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
    cells: set[tuple[int, ...]] = set()
    for b in collection.boxes:
        ranges = []
        for c in b.corner:
            lo = math.floor(c / eps)
            if b.side == 0:
                ranges.append(range(lo, lo + 1))
            else:
                hi = math.ceil((c + b.side) / eps) - 1
                ranges.append(range(lo, hi + 1))
        for idx in np.ndindex(*(len(r) for r in ranges)):
            cells.add(tuple(r[i] for r, i in zip(ranges, idx)))
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
        return {
            "level": self.level,
            "p": self.p,
            "cell": list(self.cell),
            "anchor": list(self.anchor),
            "N": self.N,
            "value": self.value,
            "bound": self.bound,
            "pass": self.passed,
        }


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
    gamma: float = 1.0,
    cap: int = DEFAULT_CAP,
) -> LargeSumCantorResult:
    """Cantor set whose kept boxes are centered on large-sum anchors, with certificates.

    Per level k: the chart torus is split into m_k^d cells with
    m_k = max(floor(p_k^{kappa_d - eps}), 2); the witness search runs over the
    central 2/5 of each cell (the discrete box of lattice points a/p_k) and
    keeps the sub-box of side p_k^{-tau} centered at the witness.  N_k is the
    plan trial count p_k * floor(0.25 gamma^{1/d} p_k^{(2tau-1)/2d-1}) when
    that floor is positive, else p_k (anchor periodicity still certifies the
    bound at the center).  Raises WitnessNotFoundError with the failing level
    when a cell has no witness, and LemmaCheckFailureError if a certificate
    inequality fails, which would be an implementation bug.
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
    eps = Fraction(epsilon).limit_denominator(10**9) if isinstance(epsilon, float) else Fraction(epsilon)
    kap = kappa(d)
    if not 0 <= eps < kap:
        raise PreconditionError(f"need 0 <= epsilon < kappa_d = {kap}")
    expo = kap - eps  # > 0, so floor(p^expo) >= 1
    gamma_fr = Fraction(gamma).limit_denominator(10**9)

    boxes = [unit_box(d)]
    ratios: list[tuple[int, Fraction]] = []  # (m_k, p_k^-tau) per level, as geometric_schedule takes them
    certificates: list[LevelCertificate] = []

    for level in range(1, depth + 1):
        p = primes[level - 1]
        table = build_table(d, p, cap=cap)
        thr = threshold(p, float(gamma_fr))
        m = max(_iroot(p**expo.numerator, expo.denominator), 2)  # floor(p^expo)
        sub_side = Fraction(1, p) ** int(tau)  # chart-relative side p^{-tau}
        if sub_side >= Fraction(1, m):
            raise PreconditionError(f"level {level}: p^-tau does not fit inside a cell")
        trial = plan_trial_count(p, tau, d, gamma_fr)
        n_level = p * max(trial, 1)
        bound = 0.25 * float(gamma_fr) * n_level / math.sqrt(p)

        chart_boxes: list[Box] = []
        level_certs: list[LevelCertificate] = []
        for idx in np.ndindex(*(m,) * d):
            # central 2/5 of the cell [i/m, (i+1)/m): offsets [3/(10m), 7/(10m))
            lo = [Fraction(i, m) + Fraction(3, 10 * m) for i in idx]
            hi = [Fraction(i, m) + Fraction(7, 10 * m) for i in idx]
            witness = _first_witness(table, thr, lo, hi)
            if witness is None:
                raise WitnessNotFoundError(
                    f"no large-sum witness in cell {idx} at level {level} (p={p}): "
                    "prime too small for the kappa_d density at this cell size",
                    level=level,
                )
            center = tuple(Fraction(a, p) for a in witness)
            corner = tuple(c - sub_side / 2 for c in center)
            cell = Box(corner=tuple(Fraction(i, m) for i in idx), side=Fraction(1, m))
            sub = Box(corner=corner, side=sub_side)
            if not cell.contains_box(sub):
                raise LemmaCheckFailureError("kept sub-box escaped its cell")
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
            chart_boxes.append(sub)

        certificates.extend(level_certs)
        # compose the chart pattern into every parent box; each copy carries its certificates
        box_certs = level_certs * len(boxes)
        boxes = [
            Box(
                corner=tuple(pc + parent.side * sc for pc, sc in zip(parent.corner, sub.corner)),
                side=parent.side * sub.side,
            )
            for parent in boxes
            for sub in chart_boxes
        ]
        ratios.append((m, sub_side))

    schedule = geometric_schedule(d, ratios)
    dim_value = dimension_formula(schedule, depth)
    eps_eff = float(kap) - (float(tau) / d) * dim_value
    collection = BoxCollection(
        depth=depth,
        boxes=tuple(boxes),
        certificates=tuple(c.to_json_dict() for c in box_certs),
    )
    return LargeSumCantorResult(
        collection=collection,
        schedule=schedule,
        certificates=tuple(certificates),
        cells_per_axis=tuple(m for m, _ in ratios),
        dimension_value=dim_value,
        epsilon_requested=float(eps),
        epsilon_effective=eps_eff,
    )


def _first_witness(table, thr: float, lo: Sequence[Fraction], hi: Sequence[Fraction]):
    """Lexicographically first member a of L_p with a/p in [lo, hi) componentwise, or None.

    `_member_blocks` reads the box one a_1 value at a time, so the search
    stops at the first slab that holds a witness.
    """
    p = table.p
    axes = []
    for l, h in zip(lo, hi):
        start = math.ceil(l * p)
        stop = math.ceil(h * p)
        if stop <= start:
            return None
        axes.append(np.arange(start, stop, dtype=np.int64) % p)
    for rows in _member_blocks(table, thr, axes, 1):
        if len(rows):
            return tuple(int(v) for v in rows[0])
    return None
