"""Output checks that recompute results by routes separate from the library.

Nothing here imports ``weylsums``.  Sums are per-term: integer phases mod 2^64
(or exact residues mod q), one cos/sin per term and ``math.fsum``; complete
sums T(a) are direct O(p) sums; D_N comes from an O(N^2) sweep over interval
endpoints.  Inputs the CLI draws from its seed are redrawn here with the same
documented Philox stream.

``check_job`` returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from fractions import Fraction
from math import fsum, log, sqrt
from pathlib import Path

import numpy as np

TURN = 1 << 64
REL = 1e-9  # relative tolerance between two float routes to the same sum


class CheckFailure(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# argv and inputs


def options(argv) -> dict:
    """'--key value' pairs of a weylsums argv; bare flags map to True."""
    opts = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


class Point:
    """Either 64-bit phase words (Philox draw) or an exact rational a/q."""

    def __init__(self, fracs=None, a=None, q=None):
        self.fracs, self.a, self.q = fracs, a, q

    @classmethod
    def from_options(cls, opts) -> "Point":
        if "x" in opts:
            parts = [Fraction(v) for v in opts["x"].split(",")]
            q = math.lcm(*(f.denominator for f in parts))
            return cls(a=[int(f * q) % q for f in parts], q=q)
        return cls(fracs=draw_phases(philox(int(opts.get("seed", 0))), int(opts.get("d", 2))))

    @property
    def dim(self) -> int:
        return len(self.a) if self.q else len(self.fracs)

    def phases(self, lo: int, hi: int, exps=None) -> np.ndarray:
        """Phases in [0, 1) of the polynomial at n = lo..hi-1."""
        exps = exps or range(1, self.dim + 1)
        if self.q:
            n = np.arange(lo, hi, dtype=np.int64) % self.q
            r = np.zeros(hi - lo, dtype=np.int64)
            for aj, m in zip(self.a, exps):
                r = (r + aj * pow_mod(n, m, self.q)) % self.q
            return r.astype(np.float64) / self.q
        n = np.arange(lo, hi, dtype=np.uint64)
        words = np.zeros(hi - lo, dtype=np.uint64)
        for f, m in zip(self.fracs, exps):
            pw = np.ones(hi - lo, dtype=np.uint64)
            for _ in range(m):
                pw *= n  # wraps mod 2^64, exact for the phase word
            words += np.uint64(f) * pw
        return words.astype(np.float64) * 2.0**-64

    def grid_fracs(self, N: int) -> list[int]:
        """Exact 2^-64 grid numerators of x_n, n = 1..N (rationals rounded half up)."""
        if self.q:
            out = []
            for n in range(1, N + 1):
                r = sum(aj * pow(n, j, self.q) for j, aj in enumerate(self.a, 1)) % self.q
                out.append((2 * r * TURN + self.q) // (2 * self.q) % TURN)
            return out
        return [sum(f * pow(n, j, TURN) for j, f in enumerate(self.fracs, 1)) % TURN
                for n in range(1, N + 1)]


def pow_mod(n: np.ndarray, m: int, q: int) -> np.ndarray:
    out = np.ones_like(n)
    for _ in range(m):
        out = (out * n) % q
    return out


def philox(seed: int):
    return np.random.Generator(np.random.Philox(key=seed))


def draw_phases(rng, d: int) -> list[int]:
    return [int(f) for f in rng.integers(0, TURN, size=d, dtype=np.uint64)]


def weyl_prefix_sums(point: Point, checkpoints, exps=None, block: int = 1 << 16) -> list[complex]:
    """S(x; N) for each N in checkpoints, per term with fsum, a block of terms at a time."""
    out, re_parts, im_parts = [], [], []
    todo = sorted(checkpoints)
    for lo in range(1, max(todo) + 1, block):
        hi = min(lo + block, max(todo) + 1)
        ang = 2.0 * np.pi * point.phases(lo, hi, exps)
        c, s = np.cos(ang).tolist(), np.sin(ang).tolist()
        while todo and todo[0] < hi:
            k = todo.pop(0) - lo + 1
            out.append(complex(fsum(re_parts + c[:k]), fsum(im_parts + s[:k])))
        re_parts.append(fsum(c))
        im_parts.append(fsum(s))
    order = {n: i for i, n in enumerate(sorted(checkpoints))}
    return [out[order[n]] for n in checkpoints]


def weyl_sum(point: Point, N: int, exps=None) -> complex:
    return weyl_prefix_sums(point, [N], exps)[0]


def complete_sums(A: np.ndarray, p: int) -> np.ndarray:
    """|T(a)| for each row a of A by direct summation over n = 1..p."""
    A = np.asarray(A, dtype=np.int64).reshape(-1, A.shape[-1])
    n = np.arange(1, p + 1, dtype=np.int64)
    r = np.zeros((A.shape[0], p), dtype=np.int64)
    pw = np.ones(p, dtype=np.int64)
    for j in range(A.shape[1]):
        pw = (pw * n) % p
        r = (r + A[:, j : j + 1] * pw) % p
    ang = (2.0 * np.pi / p) * r
    return np.hypot(np.cos(ang).sum(axis=1), np.sin(ang).sum(axis=1))


def checkpoint_grid(n_max: int, dense: int = 1000) -> list[int]:
    """1..min(n_max, dense), then the powers of two above dense up to n_max."""
    grid = list(range(1, min(n_max, dense) + 1))
    k = dense.bit_length()
    while 2**k <= n_max:
        grid.append(2**k)
        k += 1
    return grid


def dyadic_grid(n_max: int, start: int = 4) -> list[int]:
    return [2**k for k in range(start, n_max.bit_length()) if 2**k <= n_max]


def disc_units(fracs) -> int:
    """D_N * 2^64 over open intervals, O(N^2) over endpoint pairs.

    Excess is sup over intervals [u, v] between positive sample values (an
    open interval shrinking onto the points it holds); deficit is sup over
    open (a, b) with a in {0} or a sample and b a sample or 1.
    """
    N = len(fracs)
    pos = sorted(f for f in fracs if f > 0)
    vals = sorted(set(pos))
    best = 0
    for i, u in enumerate(vals):
        lo = bisect.bisect_left(pos, u)
        for v in vals[i:]:
            cnt = bisect.bisect_right(pos, v) - lo
            best = max(best, cnt * TURN - (v - u) * N)
    for a in [0] + vals:
        left = bisect.bisect_right(pos, a)
        for b in vals + [TURN]:
            if b > a:
                cnt = bisect.bisect_left(pos, b) - left
                best = max(best, (b - a) * N - cnt * TURN)
    return best


def star_units(fracs) -> int:
    """D*_N * 2^64 = sup_t |#{x < t} - tN| over t at samples (both one-sided limits)."""
    ys = sorted(fracs)
    N = len(ys)
    best = 0
    for y in set(ys):
        for cnt in (bisect.bisect_left(ys, y), bisect.bisect_right(ys, y)):
            best = max(best, abs(cnt * TURN - y * N))
    return best


def radius_units(p: int, tau: int) -> int:
    """Largest r with r / 2^64 < p^-tau, for integer tau."""
    return (TURN - 1) // p**tau


def phase_word(a: int, q: int) -> int:
    return (2 * (a % q) * TURN + q) // (2 * q) % TURN


# ---------------------------------------------------------------------------
# artifact readers


def read_json(path: Path):
    return json.loads(path.read_text())


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_table(path: Path):
    """(d, p, magnitudes) from a WSLT cache file (header u32 magic/version/d, u64 p)."""
    raw = path.read_bytes()
    expect(raw[:4] == b"WSLT", f"{path.name}: bad magic")
    d = int.from_bytes(raw[8:12], "little")
    p = int.from_bytes(raw[12:20], "little")
    body = raw[20:]
    if len(body) == 8 * p**d:
        return d, p, np.frombuffer(body, dtype="<f8").reshape((p,) * d)
    return d, p, None  # another layout (e.g. a compressed table): entries not sampled


# ---------------------------------------------------------------------------
# per-command checks; each reads the artifacts of one job


def check_mr_scan(o, out):
    r = read_json(out / "mr_scan.json")
    count, n_max, d = int(o["count"]), int(o["N-max"]), int(o.get("d", 2))
    ratios = r["ratios"]
    expect(len(ratios) == count == r["count"], "mr-scan: ratio count")
    expect(r["max_ratio"] == max(ratios), "mr-scan: max_ratio is not the max")
    expect(r["median_max_ratio"] == sorted(ratios)[count // 2], "mr-scan: median")
    rng = philox(int(o.get("seed", 0)))
    cps = [n for n in dyadic_grid(n_max) if n <= 1024]
    for got in ratios:
        point = Point(fracs=draw_phases(rng, d))
        small = max(abs(v) / (n**0.5 * log(n) ** 1.5)
                    for n, v in zip(cps, weyl_prefix_sums(point, cps)))
        expect(got >= small * (1 - REL), f"mr-scan: max ratio {got} below a small-N ratio {small}")


def check_sigma_scan(o, out):
    r = read_json(out / "sigma_scan.json")
    expect(not r["degenerate"] and 0.0 <= r["sigma_estimate"] <= 1.0 + REL, "sigma-scan: estimate out of [0, 1]")
    top = dyadic_grid(int(o["N-max"]), 1)[-1]
    mag = abs(weyl_sum(Point.from_options(o), top))
    if mag > 0:
        expect(r["sigma_estimate"] >= log(mag) / log(top) - REL,
               f"sigma-scan: estimate below log|S|/log N at N={top}")


def check_weyl_trace(o, out):
    rows = read_csv(out / "weyl_trace.csv")
    grid = checkpoint_grid(int(o["N-max"]))
    expect([int(r["N"]) for r in rows] == grid, "weyl-trace: checkpoints differ from the grid")
    for r in rows:
        expect(close(float(r["magnitude"]), math.hypot(float(r["re"]), float(r["im"])), 1e-12 * int(r["N"])),
               "weyl-trace: magnitude is not |re + i im|")
    sample = [1, 2, 3, 10, 99, 500, 1000][: len(rows)]
    for n, want in zip(sample, weyl_prefix_sums(Point.from_options(o), sample)):
        r = rows[n - 1]
        got = complex(float(r["re"]), float(r["im"]))
        expect(abs(got - want) <= REL * n, f"weyl-trace: S at N={n} is {got}, per-term sum {want}")


def check_exceptional_scan(o, out):
    r = read_json(out / "exceptional_scan.json")
    alpha, hits = float(o["alpha"]), r["qualifying_N"]
    grid = checkpoint_grid(int(o["N-max"]))
    expect(set(hits) <= set(grid) and hits == sorted(hits), "exceptional-scan: hits not on the grid")
    sample = list(range(1, min(len(grid), 1000) + 1, 37))
    hit_set = set(hits)
    for n, v in zip(sample, weyl_prefix_sums(Point.from_options(o), sample)):
        thr = float(n) ** alpha
        if abs(abs(v) - thr) > REL * n:
            expect((abs(v) >= thr) == (n in hit_set), f"exceptional-scan: N={n} misclassified")


def check_enumerate_lp(o, out):
    r = read_json(out / "enumerate_lp.json")
    d, p, gamma = int(o["d"]), int(o["p"]), float(Fraction(o["gamma"]))
    expect(r["d"] == d and r["p"] == p, "enumerate-lp: wrong (d, p)")
    expect(close(r["density"], r["count"] / p**d, 1e-15), "enumerate-lp: density != count / p^d")
    thr = gamma * sqrt(p)
    if d == 2:  # Gauss law: |T(a, b)| = sqrt(p) whenever b != 0
        expect(r["count"] == (p * (p - 1) if gamma <= 1 else 0), f"enumerate-lp: count {r['count']} breaks the Gauss law")
    if r["members"] is not None:
        members = np.array(r["members"], dtype=np.int64).reshape(-1, d)
        expect(len(members) == r["count"], "enumerate-lp: member list length")
        pick = members[:: max(1, len(members) // 16)]
        expect(bool(np.all(pick[:, -1] != 0)), "enumerate-lp: member with a_d = 0")
        expect(bool(np.all(complete_sums(pick, p) >= thr * (1 - REL))), "enumerate-lp: member below the threshold")
    table = out / "cache" / f"table_d{d}_p{p}.wslt"
    if table.exists():
        _, _, mags = read_table(table)
        if mags is not None:
            top = mags[(slice(None),) * (d - 1) + (slice(1, None),)]
            # counts with a margin either side of the threshold; the library's
            # own slack lies inside it
            above = top >= thr * (1 + 1e-6)
            lo, hi = int((top >= thr * (1 - 1e-6)).sum()), int(above.sum())
            expect(hi <= r["count"] <= lo, f"enumerate-lp: count {r['count']} outside [{hi}, {lo}] from the cached table")
            found = np.argwhere(above)
            if len(found):
                pick = found[:: max(1, len(found) // 8)]
                pick[:, -1] += 1  # undo the a_d >= 1 slice
                expect(bool(np.all(complete_sums(pick, p) >= thr * (1 - 1e-6))), "enumerate-lp: cached member below the threshold")


def check_table_file(o, out):
    """Sampled cache entries against direct sums; Gauss law on d = 2 tables."""
    d, p = int(o["d"]), int(o["p"])
    path = out / "cache" / f"table_d{d}_p{p}.wslt"
    expect(path.exists(), "cache file missing after a --cache job")
    fd, fp, mags = read_table(path)
    expect((fd, fp) == (d, p), "cache header (d, p)")
    if mags is None:
        return
    rng = np.random.default_rng(p * 31 + d)
    A = rng.integers(0, p, size=(12, d))
    direct = complete_sums(A, p)
    got = mags[tuple(A.T)]
    expect(bool(np.all(np.abs(got - direct) <= 1e-8 * p)), "cache entries differ from direct sums")
    if d == 2:
        expect(bool(np.all(np.abs(mags[:, 1:] - sqrt(p)) <= 1e-9 * sqrt(p))), "d=2 cache breaks |T| = sqrt(p)")


def main_term(d: int, nu: int) -> int:
    return math.factorial(d) - 1 if nu == d else math.factorial(nu)


def check_moments(o, out):
    rows = read_csv(out / "moments.csv")
    d, p, nu_max = int(o["d"]), int(o["p"]), int(o["nu"])
    expect([int(r["nu"]) for r in rows] == list(range(1, nu_max + 1)), "moments: nu rows")
    for r in rows:
        nu, incl, excl = int(r["nu"]), float(r["moment_with_zero"]), float(r["moment_without_zero"])
        expect(close(incl - excl, float(p) ** (2 * nu), 1e-9 * incl), "moments: zero term != p^(2 nu)")
        expect(int(float(r["main_term_A"])) == main_term(d, nu), "moments: main term A_d(nu)")
        if nu == 1:  # Parseval
            expect(close(incl, float(p) ** (d + 1), 1e-9 * incl), f"moments: Parseval sum {incl} != p^{d + 1}")
        if d == 2:  # Gauss law: p^(2 nu) + (p^2 - p) p^nu
            want = float(p) ** (2 * nu) + (p * p - p) * float(p) ** nu
            expect(close(incl, want, 1e-9 * want), "moments: d=2 moment breaks the Gauss law")
    check_table_file(o, out)


def check_box_moments(o, out):
    rows = read_csv(out / "box_moments.csv")
    d, p, nu = int(o["d"]), int(o["p"]), int(o["nu"])
    expect(len(rows) == int(o["count"]), "box-moments: row count")
    for r in rows:
        side, value, pred = int(r["side"]), float(r["value"]), float(r["predicted"])
        expect(close(pred, main_term(d, nu) * float(side) ** d * float(p) ** nu, 1e-12 * pred), "box-moments: main term")
        expect(close(float(r["ratio"]), value / pred, 1e-12), "box-moments: ratio")
        if d == 2:  # only a_2 != 0 contributes, each with p^nu
            opts = [side * side * float(p) ** nu, side * (side - 1) * float(p) ** nu]
            expect(any(close(value, w, 1e-9 * w) for w in opts), f"box-moments: d=2 value {value} off the Gauss law")
        else:
            expect(value > 0, "box-moments: nonpositive moment")


def check_box_density(o, out):
    r = read_json(out / "box_density.json")
    d, p, gamma = int(o["d"]), int(o["p"]), float(Fraction(o.get("gamma", "1")))
    s = r["minimal_side"]
    expect(s is not None and 1 <= s <= p, "box-density: no minimal side")
    if s**d * p > 4_000_000:
        return
    # an origin-cornered box of side s holds the residues 1..s on each axis
    A = np.array(np.meshgrid(*[np.arange(1, s + 1) % p] * d, indexing="ij")).reshape(d, -1).T
    A = A[A[:, -1] != 0]
    mags = complete_sums(A, p)
    member = mags >= gamma * sqrt(p) * (1 - 1e-6)
    inner = np.all((A >= 1) & (A <= s - 1), axis=1)
    expect(bool(member.any()), f"box-density: no witness in the side-{s} box")
    expect(not bool((mags[inner] >= gamma * sqrt(p) * (1 + 1e-6)).any()), f"box-density: witness in the side-{s - 1} box")


def check_gauss_check(o, out):
    reports = read_json(out / "gauss_check.json")
    primes = [int(v) for v in o["primes"].split(",")] if "primes" in o else [int(o["p"])]
    expect([r["p"] for r in reports] == primes, "gauss-check: primes")
    for r in reports:
        p = r["p"]
        expect(r["passed"] and r["max_deviation"] <= r["tolerance"] and close(r["tolerance"], 1e-9 * sqrt(p), 1e-20),
               f"gauss-check: p={p} report fails")


def check_cantor_build(o, out):
    summary = read_json(out / "cantor_summary.json")
    lines = (out / "cantor_boxes.jsonl").read_text().splitlines()
    d = int(o["d"])
    primes = [int(v) for v in o["primes"].split(",")]
    expect(summary["certificates_pass"], "cantor-build: certificates fail")
    expect(summary["box_count"] == len(lines) == math.prod(m**d for m in summary["cells_per_axis"]),
           "cantor-build: box count")
    certs = {}
    for line in lines:
        c = json.loads(line)["certificate"]
        expect(c["pass"] and c["value"] >= c["bound"], "cantor-build: failing certificate")
        certs[(c["level"], tuple(c["cell"]))] = c
    for c in list(certs.values())[:: max(1, len(certs) // 4)]:
        p, a = c["p"], c["anchor"]
        expect(p == primes[c["level"] - 1], "cantor-build: certificate prime")
        expect(complete_sums(np.array([a]), p)[0] >= sqrt(p) * (1 - 1e-6), "cantor-build: anchor not in L_p")
        value = abs(weyl_sum(Point(a=a, q=p), c["N"]))
        expect(close(value, c["value"], REL * c["N"]), f"cantor-build: certificate value {c['value']} vs {value}")


def check_measure_estimate(o, out):
    r = read_json(out / "measure_estimate.json")
    d, i, samples, alpha = int(o["d"]), int(o["i"]), int(o["samples"]), float(o["alpha"])
    rng = philox(int(o.get("seed", 0)))
    cut = float(i) ** alpha * (1 - 1e-12)
    sure, unsure = 0, 0
    for _ in range(samples):
        mag = abs(weyl_sum(Point(fracs=draw_phases(rng, d)), i))
        if abs(mag - cut) <= REL * i:
            unsure += 1
        elif mag >= cut:
            sure += 1
    hits = round(r["estimate"] * samples)
    expect(sure <= hits <= sure + unsure, f"measure-estimate: {hits} hits, per-term route gives {sure}+{unsure}")
    est = hits / samples
    expect(close(r["half_width"], 1.96 * sqrt(est * (1 - est) / samples), 1e-12), "measure-estimate: half width")


def check_koksma_check(o, out):
    r = read_json(out / "koksma_check.json")
    d, count, n_max = int(o["d"]), int(o["count"]), int(o["N-max"])
    rng = philox(int(o.get("seed", 0)))
    worst = None
    for _ in range(count):
        point = Point(fracs=draw_phases(rng, d))
        n = int(rng.integers(1, n_max + 1))
        s = abs(weyl_sum(point, n))
        dstar = star_units(point.grid_fracs(n)) / TURN
        expect(s <= 2 * math.pi * dstar + 1e-6, "Koksma inequality fails on the per-term route")
        ratio = s / dstar if dstar > 0 else 0.0
        if worst is None or ratio > worst[0] * (1 + 1e-9):
            worst = (ratio, n, s, dstar)
    expect(r["passed"] and r["N"] == worst[1], f"koksma-check: worst N {r['N']} != {worst[1]}")
    expect(r["d_star"] == worst[3] and close(r["s_magnitude"], worst[2], REL * worst[1]), "koksma-check: worst record")


def check_discrepancy(o, out):
    rows = read_csv(out / "discrepancy.csv")
    grid = checkpoint_grid(int(o["N-max"]))
    expect([int(r["N"]) for r in rows] == grid, "discrepancy: checkpoints differ from the grid")
    for r in rows:
        dn, ds = float(r["D_N"]), float(r["D_star_N"])
        expect(ds * (1 - 1e-15) <= dn <= 2 * ds * (1 + 1e-15), f"discrepancy: D*_N <= D_N <= 2 D*_N fails at N={r['N']}")
    point = Point.from_options(o)
    fracs = point.grid_fracs(40)
    sample = [1, 2, 5, 17, 40]
    for n, s in zip(sample, weyl_prefix_sums(point, sample)):
        r = rows[n - 1]
        expect(float(r["D_N"]) == disc_units(fracs[:n]) / TURN, f"discrepancy: D_N at N={n} differs from the O(N^2) oracle")
        expect(float(r["D_star_N"]) == star_units(fracs[:n]) / TURN, f"discrepancy: D*_N at N={n}")
        expect(close(float(r["S_magnitude"]), abs(s), REL * n), f"discrepancy: |S| at N={n}")


def check_discrepancy_scan(o, out):
    r = read_json(out / "discrepancy_scan.json")
    alpha, hits = float(o["alpha"]), set(r["qualifying_N"])
    expect(hits <= set(checkpoint_grid(int(o["N-max"]))), "discrepancy-scan: hits not on the grid")
    fracs = Point.from_options(o).grid_fracs(40)
    for n in range(1, 41, 3):
        dn = disc_units(fracs[:n]) / TURN
        if abs(dn - float(n) ** alpha) > 1e-12 * n:
            expect((dn >= float(n) ** alpha) == (n in hits), f"discrepancy-scan: N={n} misclassified")


def check_amplify(o, out):
    reports = read_json(out / "amplify.json")
    d, p, tau = int(o["d"]), int(o["p"]), int(o["tau"])
    expect(len(reports) == 2 * d, "amplify: one report per axis and sign")
    anchor = reports[0]["params"]["anchor"]
    expect(complete_sums(np.array([anchor]), p)[0] >= sqrt(p) * (1 - 1e-6), "amplify: anchor not in L_p")
    offset = radius_units(p, tau) // 2
    for k, r in enumerate(reports):
        expect(r["pass"] and r["value"] >= r["bound"] and r["params"]["anchor"] == anchor, "amplify: failing report")
        N = r["params"]["N"]
        expect(close(r["bound"], 0.25 * N / sqrt(p), 1e-12 * N), "amplify: bound")
        fracs = [phase_word(a, p) for a in anchor]
        fracs[k // 2] = (fracs[k // 2] + (offset if k % 2 == 0 else -offset)) % TURN
        value = abs(weyl_sum(Point(fracs=fracs), N))
        expect(close(value, r["value"], REL * N), f"amplify: |S| {r['value']} vs per-term {value}")


def check_amplify_mono(o, out):
    r = read_json(out / "amplify_mono.json")
    d, p, tau, a = int(o["d"]), int(o["p"]), int(o["tau"]), int(o["a"])
    N = r["params"]["N"]
    expect(N == p**d and r["pass"] and close(r["bound"], 0.5 * N / p, 1e-12 * N), "amplify-mono: report")
    x = (phase_word(a, p**d) + radius_units(p, tau) // 2) % TURN
    value = abs(weyl_sum(Point(fracs=[x]), N, exps=[d]))
    expect(close(value, r["value"], REL * N) and value >= 0.5 * N / p, f"amplify-mono: |sigma| {r['value']} vs {value}")


def check_monomial_check(o, out):
    r = read_json(out / "monomial_check.json")
    d, p, a = int(o["d"]), int(o["p"]), int(o["a"])
    want = float(p ** (d - 1))
    expect(r["expected"] == want, "monomial-check: expected value")
    expect(abs(complex(r["value_re"], r["value_im"]) - want) <= 1e-6 * want, "monomial-check: value != p^(d-1)")


def check_weil_check(o, out):
    r = read_json(out / "weil_check.json")
    p = int(o["p"])
    coeffs = [int(v) % p for v in o["coeffs"].split(",")]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    expect(r["degree"] == deg and close(r["bound"], (deg - 1) * sqrt(p), 1e-12 * p), "weil-check: degree or bound")
    terms = [sum(c * pow(x, j, p) for j, c in enumerate(coeffs)) % p for x in range(p)]
    ang = [2 * math.pi * t / p for t in terms]
    value = abs(complex(fsum(map(math.cos, ang)), fsum(map(math.sin, ang))))
    expect(close(value, r["value"], 1e-9 * p), f"weil-check: |sum| {r['value']} vs per-term {value}")
    expect(r["passed"] and value <= r["bound"] + 1e-6, "weil-check: Weil bound")


CHECKS = {
    "mr-scan": check_mr_scan,
    "sigma-scan": check_sigma_scan,
    "weyl-trace": check_weyl_trace,
    "exceptional-scan": check_exceptional_scan,
    "enumerate-lp": check_enumerate_lp,
    "moments": check_moments,
    "box-moments": check_box_moments,
    "box-density": check_box_density,
    "gauss-check": check_gauss_check,
    "cantor-build": check_cantor_build,
    "measure-estimate": check_measure_estimate,
    "koksma-check": check_koksma_check,
    "discrepancy": check_discrepancy,
    "discrepancy-scan": check_discrepancy_scan,
    "amplify": check_amplify,
    "amplify-mono": check_amplify_mono,
    "monomial-check": check_monomial_check,
    "weil-check": check_weil_check,
}


def check_job(argv, out: Path, artifacts) -> list[str]:
    """Problems with one finished job's artifacts (exit code checked by the caller)."""
    problems = []
    for name in (*artifacts, "manifest.json"):
        path = out / name
        if not path.is_file():
            problems.append(f"missing artifact {name}")
    if problems:
        return problems
    try:
        manifest = read_json(out / "manifest.json")
        expect(manifest.get("command") == argv[0], "manifest names another command")
        CHECKS[argv[0]](options(argv), out)
    except CheckFailure as exc:
        problems.append(str(exc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unparseable artifact: {type(exc).__name__}: {exc}")
    return problems
