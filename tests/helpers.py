"""Independent oracles shared by the module tests and the acceptance suite.

Everything here recomputes results by a route different from the library:
scalar big-integer phases and their exponential for the vectorized kernels,
math.fsum over every term up to N for the sum evaluators, a
one-point-per-call loop for the batched measure estimate, direct term-by-term
summation for complete sums, the full p^d inverse FFT of the fiber counts
of n -> (n, ..., n^d) for complete-sum tables and box moments, the
lambda-orbit representative of each box point one by one for the orbit
multiplicities, masks over listed L_p member rows for box density, and for
the discrepancy both an O(N^2) sweep over the endpoint grid with all four
one-sided-limit combinations and the linear closed form over sorted Python
ints.
"""

import bisect
import itertools
import math

import numpy as np

from weylsums import discrepancy as dc
from weylsums.complete_sums import DiscreteBox
from weylsums.discrepancy import PointSet1D
from weylsums.errors import PreconditionError
from weylsums.phasecore import TURN, Phase, RationalPoint, phase_from_rational, unit_terms
from weylsums.weyl_sums import weyl_sum

TWO64 = 1 << 64


def phase_from_float(x):
    """Quantize a real number mod 1 to the 2^-64 grid."""
    return Phase(round((x % 1.0) * TURN))


def phase_to_float(t):
    """Value of a Phase in [0, 1); loses bits below 2^-53."""
    return t.frac * 2.0**-64


def phase_add(s, t):
    """s + t of two Phases, exact mod 1."""
    return Phase(s.frac + t.frac)


def phase_sub(s, t):
    """s - t of two Phases, exact mod 1."""
    return Phase(s.frac - t.frac)


def phase_times(t, n):
    """Integer multiple n*t of a Phase, exact mod 1."""
    return Phase(t.frac * (n % TURN))


def rational_phases(rp):
    """The nearest grid phase of each coordinate of a RationalPoint."""
    return tuple(phase_from_rational(ai, rp.q) for ai in rp.a)


def pointset_from_floats(xs):
    """PointSet1D of real numbers, each quantized mod 1 to the 2^-64 grid."""
    return PointSet1D(fracs=tuple(sorted(round((x % 1.0) * TURN) % TURN for x in xs)))


def poly_phase(x, n, exponents=None):
    """x_1*n^{m_1} + ... + x_d*n^{m_d} mod 1, exact for the quantized inputs.

    Default exponents are (1, ..., d).  Each power n^{m_j} is reduced mod 2^64
    before multiplying the coefficient word, so the result is independent of
    association order.
    """
    if len(x) < 1:
        raise PreconditionError("need at least one coordinate")
    if exponents is None:
        exponents = range(1, len(x) + 1)
    acc = 0
    for xj, mj in zip(x, exponents, strict=True):
        acc = (acc + xj.frac * pow(n, mj, TURN)) % TURN
    return Phase(acc)


def e_eval(t):
    """exp(2*pi*i*t) for a Phase, principal value; modulus within 1e-12 of 1."""
    ang = 2.0 * math.pi * phase_to_float(t)
    return complex(math.cos(ang), math.sin(ang))


def canonical_sums(x, checkpoints, exponents=None):
    """S(x; N) at each checkpoint as math.fsum over all N terms, the correctly rounded sum.

    Phases come per term from big-integer arithmetic (words over 2^64 for
    Phase points, residues over q for a RationalPoint); the terms are
    `phasecore.unit_terms(words, q)` of those words, so the oracle checks the
    library's phases, period folding and reduction bit for bit, and
    test_phasecore checks the terms themselves.  Each value is computed
    afresh from terms[:N].
    """
    if isinstance(x, Phase):
        x = (x,)
    if isinstance(x, RationalPoint):
        coeffs, q = x.a, x.q
    else:
        coeffs, q = [xi.frac for xi in x], TURN
    if exponents is None:
        exponents = range(1, len(coeffs) + 1)
    pairs = list(zip(coeffs, exponents, strict=True))
    n_max = max(checkpoints)
    words = [sum(c * pow(n, m, q) for c, m in pairs) % q for n in range(1, n_max + 1)]
    cos, sin = unit_terms(np.array(words, dtype=np.uint64), q).tolist()
    return [complex(math.fsum(cos[:n]), math.fsum(sin[:n])) for n in checkpoints]


def measure_estimate_loop(d, alpha, i, samples, seed):
    """Fraction of points with |S(x; i)| >= i^alpha, one weyl_sum call per point.

    Draws d Philox words per point, point by point, so it also pins the draw
    order of the batched `measure_estimate`.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    cut = float(i) ** alpha * (1.0 - 1e-12)
    hits = 0
    for _ in range(samples):
        x = tuple(Phase(int(f)) for f in rng.integers(0, TURN, size=d, dtype=np.uint64))
        hits += abs(weyl_sum(x, i)) >= cut
    return hits / samples


def direct_complete_sum(d, p, a):
    """T(a) by plain per-term evaluation (no FFT, no residue microbatching)."""
    total = 0j
    for n in range(1, p + 1):
        r = 0
        for j, aj in enumerate(a, start=1):
            r = (r + aj * pow(n, j, p)) % p
        total += np.exp(2j * np.pi * r / p)
    return total


def unit_root_fsum(a, q, exponents):
    """sum_{n=1}^{q} e((a_1 n^{m_1} + ... + a_k n^{m_k}) / q): residues by pow, cos and sin each added by math.fsum."""
    rs = [sum(aj * pow(n, m, q) for aj, m in zip(a, exponents)) % q for n in range(1, q + 1)]
    return complex(
        math.fsum(math.cos(2 * math.pi * r / q) for r in rs),
        math.fsum(math.sin(2 * math.pi * r / q) for r in rs),
    )


def full_table(d, p):
    """|T(a)| over all of F_p^d, shape (p,)*d: one d-dimensional inverse FFT of the fiber counts."""
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
    mags[(0,) * d] = float(p)  # T(0) = p exactly
    return mags


def box_moment_fsum(d, p, nu, box):
    """sum over a in box, a != 0, of |T(a)|^{2 nu}: math.fsum over the box points of `full_table`."""
    grid = np.meshgrid(*box.axis_values(p), indexing="ij")
    terms = full_table(d, p)[tuple(grid)] ** (2 * nu)
    return math.fsum(terms[np.any([g != 0 for g in grid], axis=0)].tolist())


def orbit_multiplicities(d, p, box):
    """How many a in box have (s, b) as lambda-orbit representative, one point at a time in Python ints."""
    counts = np.zeros((2,) + (p,) * (d - 1), dtype=np.int64)
    for a in itertools.product(*(v.tolist() for v in box.axis_values(p))):
        inv = pow(a[0], p - 2, p) if a[0] else 1
        counts[tuple(aj * pow(inv, j, p) % p for j, aj in enumerate(a, start=1))] += 1
    return counts


def full_box(d, p):
    """The discrete box holding all of F_p^d: values {0, ..., p-1} on each axis."""
    return DiscreteBox(starts=(p - 1,) * d, side=p)


def box_density_check(members, p, box):
    """Some a in box intersect L_p, or None: the lexicographically first of the (count, d) member rows in it."""
    if box.dim != members.shape[1]:
        raise PreconditionError("box dimension must equal d")
    inside = np.ones(len(members), dtype=bool)
    for j, vals in enumerate(box.axis_values(p)):
        mask = np.zeros(p, dtype=bool)
        mask[vals] = True
        inside &= mask[members[:, j]]
    hits = np.flatnonzero(inside)
    return tuple(int(v) for v in members[hits[0]]) if hits.size else None


def swept_side(members, p):
    """Least side L whose origin-cornered box {1..L}^d meets the listed L_p rows: a sweep down from p."""
    swept = None
    for side in range(p, 0, -1):
        if box_density_check(members, p, DiscreteBox(starts=(0,) * members.shape[1], side=side)) is None:
            break
        swept = side
    return swept


def disc_oracle_units(fracs, N):
    """Exact D_N * 2^64 by brute force over the endpoint grid.

    Candidates a, b run over {0, 1} and all sample values; each pair is
    evaluated with the four inclusion-limit combinations, with two
    restrictions that encode the open-interval definition: an interval cannot
    include points at its left endpoint when that endpoint is 0 (a >= 0), and
    a zero-length pair needs both-inclusive limits.
    """
    ys = sorted(fracs)
    grid = sorted(set([0, TWO64] + ys))
    le = {v: bisect.bisect_right(ys, v) for v in grid}   # #{x <= v}
    lt = {v: bisect.bisect_left(ys, v) for v in grid}    # #{x < v}
    best = 0
    for i, v in enumerate(grid):
        for w in grid[i:]:
            for inc_lo in (False, True):
                if inc_lo and v == 0:
                    continue
                for inc_hi in (False, True):
                    if v == w and not (inc_lo and inc_hi):
                        continue
                    hi_cnt = le[w] if inc_hi else lt[w]
                    lo_cnt = lt[v] if inc_lo else le[v]
                    cnt = hi_cnt - lo_cnt
                    best = max(best, abs(cnt * TWO64 - (w - v) * N))
    return best


def discrepancy_exact(S):
    """D_N of a PointSet1D through the library's sorted-array kernel (float image of an exact dyadic)."""
    if S.count < 1:
        raise PreconditionError("need N >= 1")
    return dc._sorted_units(S.fracs)[0] / TURN


def disc_linear_units(sorted_fracs, N):
    """Exact D_N * 2^64 over the sorted multiset of N grid fractions, in Python ints.

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


def star_linear_units(sorted_fracs, N):
    """Exact D*_N * 2^64 in Python ints: with g_k = N x_k - k over all points, max(max g, 1 - min g)."""
    gaps = [v * N - k * TURN for k, v in enumerate(sorted_fracs)]
    return max(max(gaps), TURN - min(gaps))


def lsq_slope(xs, ys):
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )


def audit_nesting(parent, child):
    """Each box of a child BoxCollection inside exactly one parent box; children pairwise disjoint."""
    for cb in child.boxes:
        owners = sum(1 for pb in parent.boxes if pb.contains_box(cb))
        if owners != 1:
            return False
    for i, a in enumerate(child.boxes):
        for b in child.boxes[i + 1 :]:
            if not boxes_disjoint(a, b):
                return False
    return True


def boxes_disjoint(a, b):
    """Two half-open cantor Boxes share no point: they are apart along some axis."""
    return any(
        c + a.side <= oc or oc + b.side <= c
        for c, oc in zip(a.corner, b.corner)
    )
