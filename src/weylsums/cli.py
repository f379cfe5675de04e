"""Reproducible experiment runner: every module surface as a subcommand.

Each run writes its result artifacts (JSON and/or CSV) plus a manifest
recording the full configuration, package version, ISO-8601 timestamp and
wall time into the output directory.  Result artifacts are byte-identical
across runs with the same configuration and seed (fixed reduction orders,
counter-based RNG); the manifest carries the timestamp and is the one file
allowed to differ.

Exit codes: 0 success, 2 invalid configuration, 3 resource limit (a cap or
out of memory), 4 lemma-check failure, 5 corrupt cache.  The manifest records
the exit code as ``exit_code``; a run that fails with code 2-5 still writes
it, with ``error_class`` (the exception's class name) and ``message`` added.
Codes 2-5 map the package's own errors (`errors.WeylSumsError`) and
MemoryError only; any other exception is a bug, and exits 1 with its
traceback.  An argument the parser rejects exits 2 before the output
directory is known and writes nothing.

`run` may be called any number of times in one process: the parser is built
on first use and shared by every later call, and each call parses into a
fresh namespace, so nothing one call sets reaches the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from . import __version__
from . import cantor as ct
from . import complete_sums as cs
from . import discrepancy as dc
from . import large_values as lv
from . import weyl_sums as ws
from .errors import (
    ChecksumMismatchError,
    InvalidScheduleError,
    LemmaCheckFailureError,
    PreconditionError,
    ResourceLimitError,
    WeylSumsError,
)
from .phasecore import TURN, Phase, RationalPoint

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_LEMMA_FAILURE = 4
EXIT_CORRUPT_CACHE = 5


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from exc


def _uint64(text: str) -> int:
    v = int(text)
    if not 0 <= v < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return v


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_field(t: type) -> str:
    """The %-format of a CSV field of type t: %d for an int (a numpy integer too), %.17g for a float."""
    if t is int or issubclass(t, np.integer):
        return "%d"
    if issubclass(t, float):
        return "%.17g"
    raise AssertionError(f"no CSV field for a {t.__name__}")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The bytes csv.writer writes, in one join: floats by format(v, ".17g"), ints by str, \\r\\n line ends.

    No field is quoted: a header name that holds a comma, quote or line break
    is refused, and no number holds one.  Each run of rows with one signature
    of field types is formatted by one %-template, its row template repeated
    once per row, over all the run's fields at once; a field of any other
    type is refused.
    """
    if any(c in name for name in header for c in ',"\r\n'):
        raise AssertionError(f"a CSV header name needs quoting: {header}")
    lines = [",".join(header)]
    for types, run in groupby(rows, lambda row: tuple(map(type, row))):
        run = list(run)
        template = ",".join(map(_csv_field, types))
        lines.append("\r\n".join([template] * len(run)) % tuple(chain.from_iterable(run)))
    lines.append("")
    path.write_text("\r\n".join(lines), newline="")


def _check_drawn(d: int) -> None:
    """Refuse a drawn point of d < 1 coordinates, or of more uint64 words than numpy addresses (2^63 bytes)."""
    if not 1 <= d < 1 << 60:
        raise PreconditionError("a drawn point needs 1 <= --d < 2^60")


def _random_point(rng, d: int) -> tuple[Phase, ...]:
    _check_drawn(d)
    return tuple(Phase(int(f)) for f in rng.integers(0, TURN, size=d, dtype=np.uint64))


def _point_from_args(args):
    """--x 'a1/q,...' exact rational point, or a Philox draw at --d coordinates.

    --x excludes --seed and fixes the dimension, which --d may only restate.
    The dimension used and the seed (None for --x) go back into args, so the
    manifest records them.
    """
    if not args.x:
        args.d = 2 if args.d is None else args.d
        args.seed = 0 if args.seed is None else args.seed
        return _random_point(np.random.Generator(np.random.Philox(key=args.seed)), args.d)
    if args.seed is not None:
        raise PreconditionError("--x and --seed exclude each other")
    try:
        parts = [_fraction(v) for v in args.x.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise PreconditionError(f"--x is not a comma list of rationals: {args.x!r}") from exc
    if args.d is not None and args.d != len(parts):
        raise PreconditionError(f"--x is {len(parts)}-dimensional but --d is {args.d}")
    args.d = len(parts)
    q = 1
    for f in parts:
        q = q * f.denominator // math.gcd(q, f.denominator)
    return RationalPoint(a=tuple(int(f * q) for f in parts), q=q)


# ---------------------------------------------------------------------------
# subcommand implementations: each writes its own artifacts into out and returns None


def _run_gauss_check(args, out: Path) -> None:
    primes = args.primes if args.primes else ((args.p,) if args.p else None)
    if not primes:
        raise PreconditionError("gauss-check needs --p or --primes")
    reports = [cs.gauss_magnitude_check(p, cap=args.cap) for p in primes]
    _write_json(out / "gauss_check.json", [asdict(r) for r in reports])


def _run_monomial_check(args, out: Path) -> None:
    value = cs.monomial_complete_sum(args.d, args.p, args.a, cap=args.cap)
    _write_json(
        out / "monomial_check.json",
        {
            "d": args.d,
            "p": args.p,
            "a": args.a,
            "value_re": value.real,
            "value_im": value.imag,
            "expected": float(args.p ** (args.d - 1)),
        },
    )


def _run_weil_check(args, out: Path) -> None:
    report = cs.weil_check(args.coeffs, args.p)
    _write_json(out / "weil_check.json", asdict(report))


def _table(args):
    cache = Path(args.out) / "cache" if args.cache else None
    return cs.cached_table(args.d, args.p, cache_dir=cache, cap=args.cap)


def _run_moments(args, out: Path) -> None:
    cs.moment_main_term(args.d, args.nu)  # refuses nu outside 1..d before the table is built
    table = _table(args)
    rows = []
    for nu in range(1, args.nu + 1):
        incl = cs.mordell_moment(table, nu)
        excl = incl - float(args.p) ** (2 * nu)  # the a = 0 term, exactly p^(2 nu)
        rows.append((args.d, args.p, nu, incl, excl, float(cs.moment_main_term(args.d, nu))))
    _write_csv(
        out / "moments.csv",
        ["d", "p", "nu", "moment_with_zero", "moment_without_zero", "main_term_A"],
        rows,
    )


def _run_box_moments(args, out: Path) -> None:
    if args.count < 1:
        raise PreconditionError("count must be >= 1")
    if cs.moment_main_term(args.d, args.nu) == 0:  # refuses nu outside 1..d first; both before the table is built
        raise PreconditionError("the main term A_1(1) = 1! - 1 is 0, so there is no box-moment ratio to report")
    table = _table(args)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    lmin = min(max(int(float(args.p) ** 0.8) + 1, 2), args.p)
    rows = []
    for _ in range(args.count):
        side = int(rng.integers(lmin, args.p + 1))
        starts = tuple(int(v) for v in rng.integers(0, args.p, size=args.d))
        rep = cs.box_moment(table, args.nu, cs.DiscreteBox(starts=starts, side=side))
        rows.append((args.d, args.p, args.nu, side, rep.value, rep.predicted_main_term, rep.ratio))
    _write_csv(
        out / "box_moments.csv",
        ["d", "p", "nu", "side", "value", "predicted", "ratio"],
        rows,
    )


def _run_enumerate_lp(args, out: Path) -> None:
    gamma = float(args.gamma)
    lv.threshold(args.p, gamma)  # refuses gamma <= 0 before the table is built or cached
    table = _table(args)
    count = lv.count_Lp(table, gamma)
    members = None
    if count <= args.emit_limit:  # rows are listed only to be emitted
        members = lv.enumerate_Lp(table, gamma, cap=args.cap).tolist()
    _write_json(
        out / "enumerate_lp.json",
        {
            "d": args.d,
            "p": args.p,
            "gamma": gamma,
            "count": count,
            "density": count / args.p**args.d,
            "members": members,
        },
    )


def _run_orbit_count(args, out: Path) -> None:
    box = cs.DiscreteBox(starts=(0,) * len(args.a), side=args.side)
    rep = lv.orbit_in_box_count(args.a, args.p, box)
    _write_json(
        out / "orbit_count.json",
        {"p": args.p, "a": list(args.a), "side": args.side, "count": rep.count, "reference": rep.reference},
    )


def _run_box_density(args, out: Path) -> None:
    lv.threshold(args.p, float(args.gamma))  # likewise
    sweep = lv.minimal_witness_side(_table(args), float(args.gamma))
    _write_json(out / "box_density.json", {"d": args.d, "p": args.p, **sweep})


def _run_amplify(args, out: Path) -> None:
    plan = lv.amplification_plan(args.p, args.tau, args.d, gamma=args.gamma, seed=args.seed)
    reports = []
    for axis in range(plan.d):
        for sign in (+1, -1):
            x = lv.neighborhood_point(plan, axis, sign)
            reports.append(lv.amplified_sum_check(plan, x).to_json_dict())
    _write_json(out / "amplify.json", reports)


def _run_amplify_mono(args, out: Path) -> None:
    report = lv.monomial_amplified_check(args.a, args.p, args.d, args.tau)
    _write_json(out / "amplify_mono.json", report.to_json_dict())


def _run_weyl_trace(args, out: Path) -> None:
    x = _point_from_args(args)
    trace = ws.weyl_sum_trace(x, ws.checkpoint_grid(args.n_max), m=args.m)
    _write_csv(out / "weyl_trace.csv", ["N", "re", "im", "magnitude"], trace.rows())


def _run_mr_scan(args, out: Path) -> None:
    if args.count < 1:
        raise PreconditionError("count must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    maxima = []
    for _ in range(args.count):
        x = _random_point(rng, args.d)
        maxima.append(ws.mr_ratio_scan(x, args.n_max).max_ratio)
    maxima_sorted = sorted(maxima)
    _write_json(
        out / "mr_scan.json",
        {
            "d": args.d,
            "n_max": args.n_max,
            "count": args.count,
            "median_max_ratio": maxima_sorted[len(maxima_sorted) // 2],
            "max_ratio": maxima_sorted[-1],
            "ratios": maxima,
        },
    )


def _run_sigma_scan(args, out: Path) -> None:
    x = _point_from_args(args)
    trace = ws.weyl_sum_trace(x, ws.dyadic_grid(args.n_max, start_exp=1), m=args.m)
    est = ws.sigma_estimate(trace)
    _write_json(
        out / "sigma_scan.json",
        {"n_max": args.n_max, "sigma_estimate": est.value, "degenerate": est.degenerate},
    )


def _run_exceptional_scan(args, out: Path) -> None:
    x = _point_from_args(args)
    hits = ws.exceptional_scan(x, args.alpha, args.n_max, m=args.m)
    _write_json(out / "exceptional_scan.json", {"alpha": args.alpha, "qualifying_N": hits})


def _run_measure_estimate(args, out: Path) -> None:
    rep = lv.measure_estimate(args.d, args.alpha, args.i, args.samples, seed=args.seed)
    _write_json(out / "measure_estimate.json", asdict(rep))


def _run_cantor_build(args, out: Path) -> None:
    result = ct.large_sum_cantor(
        args.d, args.tau, args.epsilon, args.primes, args.depth, gamma=args.gamma, cap=args.cap
    )
    (out / "cantor_boxes.jsonl").write_text(result.collection.to_jsonl())
    _write_json(
        out / "cantor_summary.json",
        {
            "d": args.d,
            "tau": str(args.tau),
            "primes": list(args.primes),
            "depth": args.depth,
            "cells_per_axis": list(result.cells_per_axis),
            "box_count": len(result.collection),
            "certificates_pass": all(c.passed for c in result.certificates),
            "dimension_value": result.dimension_value,
            "epsilon_requested": result.epsilon_requested,
            "epsilon_effective": result.epsilon_effective,
        },
    )


def _run_cantor_dim(args, out: Path) -> None:
    if args.d < 1:  # d and depth are exponents of the box count below
        raise InvalidScheduleError("dimension must be >= 1")
    if args.cells < 1 or args.shrink < 1 or args.depth < 0:
        raise PreconditionError("cells and shrink must be >= 1, and depth >= 0")
    shrink = Fraction(1, args.shrink)
    # before the depth + 1 scales are formed: each grid count reads every box's Python-int corner
    cs._check_size(f"{{}} boxes of {args.d} corner coordinates at {args.depth + 1} grid scales exceed the cap of {{}}",
                   args.cells, args.d * args.depth, factor=args.d * (args.depth + 1))
    # The finest scale is shrink^-(depth + 1).  A run that the box count (cells >= 2: depth + 1 <= b bits
    # of DEFAULT_CAP) and the grid count at that scale (shrink^d <= DEFAULT_CAP) let through has scales of
    # at most b^2 bits; one cell per axis leaves the depth unbounded, so the bits are refused here.
    cs._check_size(f"box-counting scales down to shrink^-{args.depth + 1}, {{}} bits, exceed the cap of {{}}",
                   (args.depth + 1) * args.shrink.bit_length(), cap=cs.DEFAULT_CAP.bit_length() ** 2)
    scales = ct.checked_scales([shrink**k for k in range(1, args.depth + 2)])
    sched = ct.geometric_schedule(args.d, [(args.cells, shrink)] * args.depth)
    coll = ct.build_cantor(sched, args.depth, rule=args.rule, seed=args.seed)
    dim_f = ct.dimension_formula(sched, args.depth)
    dim_b = ct.box_counting_dimension(coll, scales)
    _write_json(
        out / "cantor_dim.json",
        {
            "d": args.d,
            "cells_per_axis": args.cells,
            "shrink": args.shrink,
            "depth": args.depth,
            "dimension_formula": dim_f,
            "box_counting_dimension": dim_b,
        },
    )


def _run_pattern_demo(args, out: Path) -> None:
    if args.cells < 1:
        raise PreconditionError("cells must be >= 1")
    spec = ct.PatternSpec(a=Fraction(1), b=Fraction(1, args.cells), c=args.c, rule=args.rule, seed=args.seed)
    (out / "pattern.jsonl").write_text(ct.make_pattern(spec, args.d).to_jsonl())


def _run_discrepancy(args, out: Path) -> None:
    x = _point_from_args(args)
    rows = dc.scan_rows(x, args.n_max, m=args.m)
    _write_csv(out / "discrepancy.csv", ["N", "D_N", "D_star_N", "S_magnitude", "ratio"], rows)


def _run_koksma_check(args, out: Path) -> None:
    if args.count < 1:
        raise PreconditionError("need count >= 1")
    if not 1 <= args.n_max < dc.N_LIMIT:
        raise PreconditionError(f"need 1 <= N < 2^31 for the exact int64 discrepancy, got N-max = {args.n_max}")
    _check_drawn(args.d)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    draws = [(rng.integers(0, TURN, size=args.d, dtype=np.uint64), rng.integers(1, args.n_max + 1))
             for _ in range(args.count)]  # a point's d words, then its N, point by point
    reports = dc.koksma_relation_check(np.array([x for x, _ in draws]), [n for _, n in draws])
    _write_json(out / "koksma_check.json", asdict(max(reports, key=lambda rep: rep.ratio)))  # the first worst


def _run_discrepancy_scan(args, out: Path) -> None:
    x = _point_from_args(args)
    hits = dc.discrepancy_scan(x, args.alpha, args.n_max, m=args.m)
    _write_json(out / "discrepancy_scan.json", {"alpha": args.alpha, "qualifying_N": hits})


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sp, *, d=None, p=False, seed=False, cap=False, cache=False):
    """--out everywhere; --seed, --cap and --cache only where the command reads them."""
    sp.add_argument("--out", default="out", help="output directory")
    if cap:
        sp.add_argument("--cap", type=int, default=cs.DEFAULT_CAP, help="max table entries")
    if cache:
        sp.add_argument("--cache", action="store_true", help="cache complete-sum tables under OUT/cache")
    if seed:
        sp.add_argument("--seed", type=_uint64, default=0)
    if d is not None:
        sp.add_argument("--d", type=int, default=d)
    if p:
        sp.add_argument("--p", type=int, required=True)


def _add_point(sp):
    """--out, the point (--x, or --d and --seed of a drawn one) and sparse --m."""
    _add_common(sp)
    sp.add_argument("--seed", type=_uint64, default=None, help="Philox key of a drawn point (default 0)")
    sp.add_argument("--d", type=int, default=None, help="dimension of a drawn point (default 2)")
    sp.add_argument("--x", help="exact rational point 'a1/q1,a2/q2,...'")
    sp.add_argument("--m", type=_int_list, default=None, help="sparse exponents")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The weylsums argument parser, built on the first call and shared by every later one."""
    ap = argparse.ArgumentParser(prog="weylsums", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gauss-check", help="Gauss magnitude law over all (a, b), b != 0")
    _add_common(sp, cap=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--primes", type=_int_list, help="comma list; overrides --p")
    sp.set_defaults(func=_run_gauss_check)

    sp = sub.add_parser("monomial-check", help="complete monomial sum = p^(d-1)")
    _add_common(sp, d=2, p=True, cap=True)
    sp.add_argument("--a", type=int, default=1)
    sp.set_defaults(func=_run_monomial_check)

    sp = sub.add_parser("weil-check", help="character-sum magnitude vs (deg-1) sqrt(p)")
    _add_common(sp, p=True)
    sp.add_argument("--coeffs", type=_int_list, required=True, help="f coefficients, constant first, comma list")
    sp.set_defaults(func=_run_weil_check)

    sp = sub.add_parser("moments", help="power moments of |T| over F_p^d")
    _add_common(sp, d=2, p=True, cap=True, cache=True)
    sp.add_argument("--nu", type=int, default=2)
    sp.set_defaults(func=_run_moments)

    sp = sub.add_parser("box-moments", help="moments over random sub-boxes vs the main term")
    _add_common(sp, d=2, p=True, seed=True, cap=True, cache=True)
    sp.add_argument("--nu", type=int, default=1)
    sp.add_argument("--count", type=int, default=50)
    sp.set_defaults(func=_run_box_moments)

    sp = sub.add_parser("enumerate-lp", help="the large-sum set L_p and its density")
    _add_common(sp, d=2, p=True, cap=True, cache=True)
    sp.add_argument("--gamma", type=_fraction, default=Fraction(1))
    sp.add_argument("--emit-limit", type=int, default=10000)
    sp.set_defaults(func=_run_enumerate_lp)

    sp = sub.add_parser("orbit-count", help="lambda-orbit points inside an origin-cornered box")
    _add_common(sp, p=True)
    sp.add_argument("--a", type=_int_list, default="1,1", help="nonzero prefix coefficients, comma list")
    sp.add_argument("--side", type=int, required=True)
    sp.set_defaults(func=_run_orbit_count)

    sp = sub.add_parser("box-density", help="minimal box side containing an L_p witness")
    _add_common(sp, d=3, p=True, cap=True, cache=True)
    sp.add_argument("--gamma", type=_fraction, default=Fraction(1))
    sp.set_defaults(func=_run_box_density)

    sp = sub.add_parser("amplify", help="neighborhood large-sum checks in all 2d directions")
    _add_common(sp, d=2, p=True, seed=True)
    sp.add_argument("--tau", type=_fraction, required=True)
    sp.add_argument("--gamma", type=_fraction, default=Fraction(1))
    sp.set_defaults(func=_run_amplify)

    sp = sub.add_parser("amplify-mono", help="monomial neighborhood check at N = p^d")
    _add_common(sp, d=2, p=True)
    sp.add_argument("--tau", type=_fraction, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.set_defaults(func=_run_amplify_mono)

    sp = sub.add_parser("weyl-trace", help="streaming |S| trace over the checkpoint grid")
    _add_point(sp)
    sp.add_argument("--N-max", dest="n_max", type=int, default=4096)
    sp.set_defaults(func=_run_weyl_trace)

    sp = sub.add_parser("mr-scan", help="dyadic |S| / (sqrt(N) log^1.5 N) ratios, random points")
    _add_common(sp, d=2, seed=True)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--N-max", dest="n_max", type=int, default=10**5)
    sp.set_defaults(func=_run_mr_scan)

    sp = sub.add_parser("sigma-scan", help="finite-scale growth exponent over a dyadic trace")
    _add_point(sp)
    sp.add_argument("--N-max", dest="n_max", type=int, default=2**16)
    sp.set_defaults(func=_run_sigma_scan)

    sp = sub.add_parser("exceptional-scan", help="checkpoints with |S| >= N^alpha")
    _add_point(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--N-max", dest="n_max", type=int, default=10**4)
    sp.set_defaults(func=_run_exceptional_scan)

    sp = sub.add_parser("measure-estimate", help="Monte Carlo measure of {|S(x;i)| >= i^alpha}")
    _add_common(sp, d=2, seed=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10**4)
    sp.set_defaults(func=_run_measure_estimate)

    sp = sub.add_parser("cantor-build", help="large-sum-guided Cantor construction + certificates")
    _add_common(sp, d=3, cap=True)
    sp.add_argument("--tau", type=_fraction, required=True)
    sp.add_argument("--epsilon", type=_fraction, default=Fraction(1, 20))
    sp.add_argument("--primes", type=_int_list, required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--gamma", type=_fraction, default=Fraction(1))
    sp.set_defaults(func=_run_cantor_build)

    sp = sub.add_parser("cantor-dim", help="dimension formula vs box counting on a geometric schedule")
    _add_common(sp, d=2, seed=True)
    sp.add_argument("--cells", type=int, default=2, help="cells per axis per level")
    sp.add_argument("--shrink", type=int, default=4, help="delta_{k-1}/delta_k")
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--rule", default="centered", choices=("corner", "centered", "seeded-random"))
    sp.set_defaults(func=_run_cantor_dim)

    sp = sub.add_parser("pattern-demo", help="a single (1, 1/m, c)-pattern as JSONL")
    _add_common(sp, d=2, seed=True)
    sp.add_argument("--cells", type=int, default=3)
    sp.add_argument("--c", type=_fraction, default=Fraction(1, 10))
    sp.add_argument("--rule", default="centered", choices=("corner", "centered", "seeded-random"))
    sp.set_defaults(func=_run_pattern_demo)

    sp = sub.add_parser("discrepancy", help="N, D_N, D*_N, |S| rows over the checkpoint grid")
    _add_point(sp)
    sp.add_argument("--N-max", dest="n_max", type=int, default=1024)
    sp.set_defaults(func=_run_discrepancy)

    sp = sub.add_parser("koksma-check", help="|S| <= 2 pi D*_N over random evaluations")
    _add_common(sp, d=2, seed=True)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--N-max", dest="n_max", type=int, default=1000)
    sp.set_defaults(func=_run_koksma_check)

    sp = sub.add_parser("discrepancy-scan", help="checkpoints with D_N >= N^alpha")
    _add_point(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--N-max", dest="n_max", type=int, default=10**4)
    sp.set_defaults(func=_run_discrepancy_scan)

    return ap


def _failure(code: int, prefix: str, exc: BaseException, message: str | None = None) -> dict:
    """Report a mapped failure on stderr and return its manifest fields."""
    message = str(exc) if message is None else message
    print(f"{prefix}: {message}", file=sys.stderr)
    return {"exit_code": code, "error_class": type(exc).__name__, "message": message}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        args.func(args, out)
        status = {"exit_code": EXIT_OK}
    except (ResourceLimitError, MemoryError) as exc:
        status = _failure(EXIT_RESOURCE_LIMIT, "resource limit", exc, str(exc) or "out of memory")
    except ChecksumMismatchError as exc:
        status = _failure(EXIT_CORRUPT_CACHE, "corrupt cache", exc)
    except LemmaCheckFailureError as exc:
        status = _failure(EXIT_LEMMA_FAILURE, "lemma check failed", exc)
    except WeylSumsError as exc:
        status = _failure(EXIT_INVALID_CONFIG, "invalid configuration", exc)
    wall = time.monotonic() - start
    config = {
        k: (str(v) if isinstance(v, Fraction) else v)
        for k, v in sorted(vars(args).items())
        if k != "func" and not callable(v)
    }
    manifest = {
        "command": args.command,
        "config": config,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall,
        **status,
    }
    _write_json(out / "manifest.json", manifest)
    return status["exit_code"]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
