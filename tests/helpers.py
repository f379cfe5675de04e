"""Independent oracles shared by the module tests and the acceptance suite.

Everything here recomputes results by a route different from the library:
scalar big-integer phases and their exponential, and residues by Python's
pow, for the vectorized kernels, math.fsum over every term up to N for the
sum evaluators, a one-point-per-call loop for the batched measure estimate, direct term-by-term
summation for complete sums, the monomial sums' factored terms formed one row at a time for their
block loop, unit roots in 80-bit long double for the term kernels, the full p^d inverse FFT of the fiber counts
of n -> (n, ..., n^d) for complete-sum tables and box moments, the
lambda-orbit representative of each box point one by one (lambda by
Python's modular inverse), and at d = 2 one bincount of the box's orbit
images, for the orbit multiplicities and table lookups, the block scan over
all of F_p^d for L_p rows, masks over listed L_p member rows and the upward
a_1 scan for box density, and for the discrepancy both an
O(N^2) sweep over the endpoint grid with all four one-sided-limit
combinations and the linear closed form over sorted Python ints, and for
Cantor levels the per-box Fraction patterns, compositions and grid counts.
"""

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np

from weylsums import discrepancy as dc
from weylsums import large_values as lv
from weylsums.complete_sums import DiscreteBox
from weylsums.discrepancy import PointSet1D
from weylsums.errors import PreconditionError
from weylsums.phasecore import TURN, Phase, RationalPoint, phase_from_rational, residue_array, unit_terms
from weylsums.weyl_sums import BLOCK, CHUNK, weyl_sum

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


def residue_oracle(a, q, exponents, lo, hi):
    """[a_1 n^{m_1} + ... + a_k n^{m_k} mod q for n = lo..hi-1] by Python's pow, one term at a time."""
    pairs = list(zip(a, exponents, strict=True))
    return [sum(aj * pow(n, m, q) for aj, m in pairs) % q for n in range(lo, hi)]


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
    words = residue_oracle(coeffs, q, exponents, 1, max(checkpoints) + 1)
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
    for r in residue_oracle(a, p, range(1, d + 1), 1, p + 1):
        total += np.exp(2j * np.pi * r / p)
    return total


def unit_root_fsum(a, q, exponents):
    """sum_{n=1}^{q} e((a_1 n^{m_1} + ... + a_k n^{m_k}) / q): residues by pow, cos and sin each added by math.fsum."""
    rs = residue_oracle(a, q, exponents, 1, q + 1)
    return complex(
        math.fsum(math.cos(2 * math.pi * r / q) for r in rs),
        math.fsum(math.sin(2 * math.pi * r / q) for r in rs),
    )


def factored_monomial_sum(a, p, d):
    """sum_{n=0}^{p^d - 1} e(a n^d / p^d) as the library forms and adds its factored terms.

    The tables are built here from `residue_array` and `unit_terms`:
    head[u] = e(a u^d / p^d) for u < P = p^(d-1), roots[j] = e(j P / p^d)
    and slope[w] = d a w^(d-1) mod p.  Row v of n = u + P v is formed in one
    array, head[u] * roots[v slope[u mod p] mod p], and the rows are cut into
    the library's blocks: BLOCK // P whole rows while a row fits, else pieces
    of BLOCK // p times p terms within each row.  One np.sum per block and one
    over the block sums: the reference that
    `complete_sums.monomial_complete_sum` must equal bit for bit.
    """
    q, P = p**d, p ** (d - 1)

    def roots_of(words, m):
        out = np.empty(len(words), dtype=np.complex128)
        out.real, out.imag = unit_terms(words, m)
        return out

    head, roots = roots_of(residue_array((a,), q, (d,), 0, P), q), roots_of(np.arange(0, q, P), q)
    slope = residue_array((d * a,), p, (d - 1,), 0, p)
    rows = [head * np.tile(roots[v * slope % p], P // p) for v in range(p)]
    if P <= BLOCK:
        k = BLOCK // P
        blocks = [np.concatenate(rows[v : v + k]) for v in range(0, p, k)]
    else:
        size = max(1, BLOCK // p) * p
        blocks = [row[s : s + size] for row in rows for s in range(0, P, size)]
    return complex(np.sum([block.sum() for block in blocks]))


def long_double_unit_terms(words, q):
    """cos and sin of 2 pi w / q in 80-bit long double: each word is exact there, then two roundings."""
    w = np.asarray(words, dtype=np.uint64)
    exact = (w >> np.uint64(32)).astype(np.longdouble) * 2.0**32 + (w & np.uint64(2**32 - 1)).astype(np.longdouble)
    angle = 8 * np.arctan(np.longdouble(1)) * (exact / np.longdouble(float(q)))
    return np.cos(angle), np.sin(angle)


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


def lambda_orbit(a, lam, p):
    """(lambda a_1, lambda^2 a_2, ..., lambda^d a_d) mod p; preserves |T|."""
    if lam % p == 0:
        raise PreconditionError("lambda must be a nonzero residue")
    return tuple(int(aj) * pow(lam, j, p) % p for j, aj in enumerate(a, start=1))


def orbit_representative(a, p):
    """(lambda a_1, ..., lambda^d a_d) mod p in Python ints, lambda = pow(a_1, -1, p), or 1 at a_1 = 0."""
    lam = pow(a[0], -1, p) if a[0] % p else 1
    return tuple(aj * pow(lam, j, p) % p for j, aj in enumerate(a, start=1))


def orbit_multiplicities(d, p, box):
    """How many a in box have (s, b) as lambda-orbit representative, one point at a time in Python ints."""
    counts = np.zeros((2,) + (p,) * (d - 1), dtype=np.int64)
    for a in itertools.product(*(v.tolist() for v in box.axis_values(p))):
        counts[orbit_representative(a, p)] += 1
    return counts


def orbit_counts_bincount(p, box):
    """The d = 2 orbit counts, shape (2, p), as one bincount of the L_1 L images (s, lambda^2 a_2), lambda = a_1^{-1} or 1 at a_1 = 0."""
    first, second = box.axis_values(p)
    lam = np.array([pow(a, p - 2, p) if a else 1 for a in first.tolist()], dtype=np.int64)
    images = (first != 0)[:, None] * p + lam[:, None] ** 2 % p * second[None, :] % p
    return np.bincount(images.ravel(), minlength=2 * p).reshape(2, p)


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


def scanned_members(table, gamma):
    """The L_p rows as `large_values._member_blocks` scans them over all of F_p^d, one a_1 value per block."""
    axes = [np.arange(table.p, dtype=np.int64)] * table.d
    return np.concatenate(list(lv._member_blocks(table, lv.threshold(table.p, gamma), axes, 1)))


def scanned_side(table, gamma):
    """The least side L whose box {1..L}^d meets L_p: the scan of {1..p-1}^d upward in a_1.

    Blocks of about one CHUNK of entries go through `large_values._member_blocks`,
    and the scan stops once a_1 reaches the best side found; p when every
    member has a zero coordinate, None when L_p is empty.
    """
    d, p = table.d, table.p
    inner = np.arange(1, p, dtype=np.int64)
    step = max(1, CHUNK // (p - 1) ** (d - 1))
    found = None
    for k, rows in enumerate(lv._member_blocks(table, lv.threshold(p, gamma), [inner] * d, step)):
        if len(rows):
            side = int(rows.max(axis=1).min())
            found = side if found is None else min(found, side)
        if found is not None and 1 + (k + 1) * step >= found:  # a_1 of the next block
            break
    if found is None and lv.count_Lp(table, gamma):
        found = p
    return found


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


def sequence_fracs(x, N, m=None):
    """uint64 2^-64 grid numerators of the phases at n = 1..N, from the library's phase words."""
    return dc._grid_fracs(*dc._sequence_words(x, N, m))


def poly_sequence(x, N, m=None):
    """Fractional parts of the polynomial phase at n = 1..N as a sorted PointSet1D."""
    return PointSet1D(fracs=np.sort(sequence_fracs(x, N, m)))


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


def level_boxes(level):
    """The boxes of a cantor level as (corner, side) pairs of Fractions."""
    side = Fraction(level.side, level.denom)
    return [(tuple(Fraction(c, level.denom) for c in row), side) for row in level.corners.tolist()]


def audit_nesting(parent, child):
    """Each box of a child level inside exactly one parent box; children pairwise disjoint."""
    parents, children = level_boxes(parent), level_boxes(child)
    for cb in children:
        owners = sum(1 for pb in parents if box_contains(pb, cb))
        if owners != 1:
            return False
    for i, a in enumerate(children):
        for b in children[i + 1 :]:
            if not boxes_disjoint(a, b):
                return False
    return True


def box_contains(outer, inner):
    """The half-open (corner, side) box inner lies inside outer."""
    (outer_corner, outer_side), (inner_corner, inner_side) = outer, inner
    return all(
        c <= oc and oc + inner_side <= c + outer_side
        for c, oc in zip(outer_corner, inner_corner)
    )


def boxes_disjoint(a, b):
    """Two half-open (corner, side) boxes share no point: they are apart along some axis."""
    (a_corner, a_side), (b_corner, b_side) = a, b
    return any(
        c + a_side <= oc or oc + b_side <= c
        for c, oc in zip(a_corner, b_corner)
    )


def fraction_pattern(box, spec):
    """The (a, b, c)-pattern in a side-a (corner, side) box, one Fraction box per cell."""
    corner, side = box
    assert side == spec.a
    m, slack = spec.cells_per_axis, spec.b - spec.c
    rng = np.random.Generator(np.random.Philox(key=spec.seed)) if spec.rule == "seeded-random" else None
    out = []
    for idx in np.ndindex(*(m,) * len(corner)):
        cell = [c + i * spec.b for c, i in zip(corner, idx)]
        if spec.rule == "corner":
            shift = [0] * len(cell)
        elif spec.rule == "centered":
            shift = [slack / 2] * len(cell)
        else:
            shift = [slack * Fraction(int(u), 1 << 32) for u in rng.integers(0, 1 << 32, size=len(cell))]
        out.append((tuple(c + s for c, s in zip(cell, shift)), spec.c))
    return out


def fraction_cantor(schedule, depth, rule="centered", seed=0):
    """`cantor.build_cantor` as Fraction boxes: each level's pattern made anew in every parent box."""
    boxes = [((Fraction(0),) * schedule.d, Fraction(1))]
    for k in range(1, depth + 1):
        spec = schedule.pattern(k, rule=rule, seed=seed + k)
        boxes = [sub for parent in boxes for sub in fraction_pattern(parent, spec)]
    return boxes


def fraction_grid_count(boxes, eps):
    """eps-grid cells meeting the half-open (corner, side) boxes, by Fraction floor and ceil."""
    cells = set()
    for corner, side in boxes:
        lo = [math.floor(c / eps) for c in corner]
        hi = [lo_j + 1 if side == 0 else math.ceil((c + side) / eps) for lo_j, c in zip(lo, corner)]
        cells.update(itertools.product(*map(range, lo, hi)))
    return len(cells)
