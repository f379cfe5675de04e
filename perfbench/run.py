"""Benchmark of the weylsums CLI: seeded jobs through ``cli.run``, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (jobs.py): ``stream`` (few long Weyl sums), ``tables`` (cached
complete-sum tables, L_p sets, Cantor certificates) and ``checks`` (many short
sums, direct complete sums, exact discrepancy).  One process runs one workload
as a closed loop with one client: each job is a generated weylsums argv passed
to ``cli.run`` once the previous job has finished and its outputs have been
checked (checks.py).  The job list runs in whole passes, each with fresh output
and cache directories; the number of passes follows from ``--seconds`` and is
fixed per workload (see PASS_SECONDS).

A job's time is its fastest over the passes, scaled to nominal host speed by
a gauge run before every job (see GAUGE_NOMINAL_S); raw times are printed
beside the scaled ones.  ``setup_s`` is the median over fresh interpreters of
the time to the first job ready (setup_probe.py), scaled by the run's median
gauge.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` runs a warm-up, a traced and an untraced pass (spans.py) and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A record with
provenance, every job's argv and the sha256 of every result artifact goes to
``.perfbench/runs/`` (or ``--record``); a traced run also writes its spans
there.  ``--workload all`` runs each workload in its own process and prints
one table.

All outputs and table caches live in a fresh directory under ``.perfbench/``
that is removed at the end.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import jobs as joblib
import spans
from jobs import ARTIFACTS, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PROBE = Path(__file__).resolve().with_name("setup_probe.py")
SETUP_PROBES = 9
# a run makes round(--seconds / PASS_SECONDS) passes, at least one; at
# --seconds 30 that is two for stream and checks and three for tables, whose
# median job takes ~20 ms and needs more passes for its fastest time to settle.
# The number is fixed per workload so that every run has the same mix of cold
# and warm passes.
PASS_SECONDS = {"stream": 15.0, "tables": 10.0, "checks": 15.0}

# The host's speed drifts by tens of percent within seconds (CPU contention the
# process cannot see).  A fixed gauge of Python and numpy work runs before
# every job, outside its timing; each job time is scaled by GAUGE_NOMINAL_S
# over the median of the five gauges around it.  GAUGE_NOMINAL_S is the gauge's
# median on the reference host (2-CPU Xeon), so scaled times read as that
# host's milliseconds.  Raw times are printed and recorded beside them.  Over
# ten seeds per workload on that host, scaling narrowed the IQR/median of
# jobs_per_s from 11% to 4% (stream), 6% to 4% (tables) and 47% to 11% (checks).
GAUGE_NOMINAL_S = 0.0035
_GAUGE_ARRAY = np.random.default_rng(0).random(1 << 13)
_GAUGE_LIST = _GAUGE_ARRAY.tolist()


def gauge_s() -> float:
    """Seconds the fixed gauge work takes right now."""
    start = perf_counter()
    for _ in range(2):
        math.fsum(_GAUGE_LIST)
        sorted(_GAUGE_LIST)
        np.cos(_GAUGE_ARRAY).sum()
        np.fft.fft(_GAUGE_ARRAY)
        acc = 0
        for i in range(1500):
            acc += i * i % 7
    return perf_counter() - start


def scaled(times, gauges) -> list[float]:
    """Times scaled to nominal host speed by the median of the gauges around each."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(gauges[max(0, i - 2): i + 3])
        out.append(t * GAUGE_NOMINAL_S / local)
    return out


E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}


def import_program():
    """The weylsums package of this checkout (never an installed copy)."""
    if not (SRC / "weylsums" / "__init__.py").is_file():
        raise SystemExit(f"error: no weylsums package under {SRC}")
    sys.path.insert(0, str(SRC))
    import weylsums
    from weylsums import cantor, cli, complete_sums, discrepancy, large_values, phasecore, weyl_sums

    if Path(weylsums.__file__).resolve().parent != SRC / "weylsums":
        raise SystemExit(f"error: imported weylsums from {weylsums.__file__}, not {SRC}")
    layers = {
        "phasecore": phasecore, "weyl_sums": weyl_sums, "complete_sums": complete_sums,
        "large_values": large_values, "discrepancy": discrepancy, "cantor": cantor, "cli": cli,
    }
    return cli, layers


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from starting a fresh interpreter to its first job ready (setup_probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(PROBE), workload, str(seed), repr(start)],
            check=True, timeout=120, stdout=subprocess.PIPE, text=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def provenance(seed: int) -> dict:
    import numpy

    sha = dirty = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed,
    }


def job_out(job, index: int) -> str:
    return job.group or f"job{index:03d}"


def run_pass(cli, jobs, work: Path, recorder=None) -> dict:
    """One closed-loop pass over the job list in fresh directories."""
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
    times, gauges, failures, digests, nbytes = [], [], [], [], 0
    try:
        for i, job in enumerate(jobs):
            out = pass_dir / job_out(job, i)
            argv = [*job.argv, "--out", str(out)]
            gc.collect()
            gauges.append(gauge_s())
            if recorder is not None:
                recorder.job = i
            start = perf_counter()
            try:
                code = cli.run(argv)
            except Exception:  # a crashing job is a failed job; keep measuring the rest
                traceback.print_exc()
                code = None
            times.append(perf_counter() - start)
            problems = (checks.check_job(job.argv, out, ARTIFACTS[job.command]) if code == 0
                        else [f"exit code {code}"])
            if problems:
                failures.append({"job": i, "problems": problems})
                print(f"FAILED job {i}: weylsums {' '.join(job.argv)}: {problems}", file=sys.stderr)
            files = sorted(f for f in out.iterdir() if f.is_file()) if out.is_dir() else []
            # result artifacts only: the manifest carries a timestamp
            results = [f for f in files if f.name != "manifest.json"]
            digests.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in results})
            nbytes += sum(f.stat().st_size for f in results)
            for f in files:  # keep the cache dir for the next job of the group
                f.unlink()
    finally:
        shutil.rmtree(pass_dir)
    return {"traced": recorder is not None, "job_s": times, "gauge_s": gauges,
            "scaled_s": scaled(times, gauges), "failures": failures,
            "sha256": digests, "bytes_written": nbytes, "recorder": recorder}


def run_passes(cli, jobs, n_passes: int, work: Path, tracer=None) -> list[dict]:
    """``n_passes`` untraced passes, or warm-up, traced and untraced passes when tracing.

    The first pass of a process runs cold (the allocator has not grown yet),
    so the tracing overhead compares the traced pass with a later untraced one.
    """
    if tracer is None:
        return [run_pass(cli, jobs, work) for _ in range(n_passes)]
    passes = [run_pass(cli, jobs, work)]
    with tracer.installed(spans.Recorder()) as recorder:
        passes.append(run_pass(cli, jobs, work, recorder))
    passes.append(run_pass(cli, jobs, work))
    return passes


def jobs_per_s(passes) -> float:
    done = sum(len(p["job_s"]) - len(p["failures"]) for p in passes)
    return done / sum(sum(p["scaled_s"]) for p in passes)


def best_times(passes, key: str = "scaled_s") -> list[float]:
    """Each job's fastest (scaled) time over the passes.

    The first pass of a process runs cold, and short stalls hit single jobs;
    the fastest of passes a pass apart is the job's cost with the least of both.
    """
    return [min(ts) for ts in zip(*(p[key] for p in passes))]


def e2e_metrics(passes, setup_s: float) -> dict:
    times = best_times(passes)
    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "setup_s": setup_s,
        "jobs_per_s": (len(times) - len({f["job"] for p in passes for f in p["failures"]})) / sum(times),
        "job_ms.p50": 1e3 * statistics.median(times),
        "job_ms.p90": 1e3 * statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def layer_metrics(passes) -> dict:
    """Per-layer metrics of the traced pass, plus the tracing overhead."""
    traced = next(p for p in passes if p["traced"])
    out = spans.pass_metrics(traced["recorder"], sum(traced["job_s"]), traced["bytes_written"])
    out["trace.overhead_frac"] = (jobs_per_s(passes[-1:]) / jobs_per_s([traced]) - 1.0, "ratio")
    return out


def write_spans(path: Path, recorder) -> None:
    origin = min((s[4] for s in recorder.spans), default=0.0)
    with gzip.open(path, "wt") as fh:
        fh.write("job,span,parent,name,start_s,end_s\n")
        for job, span, parent, key, start, end in recorder.spans:
            fh.write(f"{job},{span},{parent},{key},{start - origin:.9f},{end - origin:.9f}\n")


def print_e2e(workload: str, m: dict, passes, jobs, raw_setup_s: float) -> None:
    times, raw = best_times(passes), best_times(passes, "job_s")
    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    beyond = sum(t * 1e3 > m["job_ms.p90"] for t in times)
    gauges = [g for p in passes for g in p["gauge_s"]]
    print(f"[{workload}] {len(passes)} pass(es) of {len(times)} jobs, closed loop, one client; "
          "job time = fastest pass, scaled to nominal host speed")
    print(f"  host gauge   {statistics.median(gauges) * 1e3:10.3f} ms      median (nominal {GAUGE_NOMINAL_S * 1e3:g} ms)")
    print(f"  setup_s      {m['setup_s']:10.4f} s       median of {SETUP_PROBES} fresh interpreters (raw {raw_setup_s:.4f})")
    print(f"  jobs_per_s   {m['jobs_per_s']:10.4f} jobs/s  {len(times)} jobs / {sum(times):.3f} s in cli.run (raw {len(raw) / sum(raw):.4f})")
    print(f"  job_ms.p50   {m['job_ms.p50']:10.3f} ms      of {len(times)} jobs (raw {1e3 * statistics.median(raw):.3f})")
    print(f"  job_ms.p90   {m['job_ms.p90']:10.3f} ms      of {len(times)} jobs, {beyond} beyond (raw {1e3 * statistics.quantiles(raw, n=10)[8]:.3f})")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:10.2f} MiB")
    print(f"  failed_frac  {failed / attempted:10.4f} ratio   {failed} failed / {attempted} attempted")
    print(f"  ok_frac      {m['ok_frac']:10.4f} ratio   {attempted - failed} ok / {attempted} attempted")
    print("  per command (scaled best-of-passes times; p50 and p90 are over all jobs above):")
    by_cmd: dict[str, list[float]] = {}
    for job, t in zip(jobs, times):
        by_cmd.setdefault(job.command, []).append(t)
    for cmd, ts in sorted(by_cmd.items(), key=lambda kv: statistics.median(kv[1])):
        below50 = sum(t * 1e3 <= m["job_ms.p50"] for t in ts)
        below90 = sum(t * 1e3 <= m["job_ms.p90"] for t in ts)
        print(f"    {cmd:18s} {len(ts):4d} jobs  p50 {1e3 * statistics.median(ts):9.3f} ms  "
              f"total {sum(ts):7.3f} s  at or below job_ms.p50/p90: {below50}/{below90}")


RATIO_BASES = {
    "cache.hit_ratio": "cache.hits / cache.requests",
    "find_anchor.hit_ratio": "anchors found / find_anchor.tries",
    "phasecore.ns_per_term": "phasecore.self_s / (frac_array.terms + residue_array.terms)",
    "weyl_sums.us_per_sum": "weyl_sum + weyl_sum_trace time / weyl_sums.sums",
    "discrepancy.us_per_point": "discrepancy.self_s / discrepancy.points",
    "trace.coverage": "sum of all self time / trace.job_s",
    "trace.library_share": "self time of the six layers below cli / trace.job_s",
    "trace.overhead_frac": "untraced (last pass) / traced jobs_per_s - 1",
}


def print_layers(workload: str, m: dict, absent) -> None:
    print(f"[{workload}] per-layer metrics of one traced pass")
    for name, (value, unit) in m.items():
        base = RATIO_BASES.get(name) or ("layer self time / trace.job_s" if name.endswith(".share") else "")
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {unit:6s} {base}")
    print(f"  absent functions: {', '.join(absent) if absent else 'none'}")


def run_workload(args) -> int:
    cli, layers = import_program()
    jobs = joblib.job_list(args.workload, args.seed)
    raw_setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    tracer = spans.Tracer(layers) if args.trace else None
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=WORK))
    try:
        n_passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        passes = run_passes(cli, jobs, n_passes, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(passes)
        print_layers(args.workload, metrics, tracer.absent)
    else:
        # set-up is scaled by the median of the run's several hundred gauges;
        # the few that would fit between probes follow the host less well
        setup_s = raw_setup_s * GAUGE_NOMINAL_S / statistics.median(g for p in passes for g in p["gauge_s"])
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e_metrics(passes, setup_s).items()}
        print_e2e(args.workload, {k: v for k, (v, _) in metrics.items()}, passes, jobs, raw_setup_s)
    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)

    record_path = Path(args.record) if args.record else (
        WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    prov = provenance(args.seed)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov,
        "jobs": [["weylsums", *job.argv, "--out", f"runs/{job_out(job, i)}"] for i, job in enumerate(jobs)],
        "passes": [{"traced": p["traced"], "job_s": p["job_s"], "gauge_s": p["gauge_s"],
                    "failures": p["failures"], "bytes_written": p["bytes_written"]} for p in passes],
        "sha256": passes[0]["sha256"],
        "sha256_repeat": all(p["sha256"] == passes[0]["sha256"] for p in passes),
        "absent": tracer.absent if tracer else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        traced = next(p for p in passes if p["traced"])
        write_spans(record_path.with_suffix(".spans.csv.gz"), traced["recorder"])
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"record {record_path}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS stays per workload."""
    results, records, code = {}, {}, 0
    for w in WORKLOADS:
        rec = WORK / "runs" / f"all-{w}-seed{args.seed}-trace{args.trace}.json"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--record", str(rec)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            continue
        results[w] = json.loads(lines[-1])
        records[w] = json.loads(rec.read_text())
    names = list(next(iter(results.values()))["metrics"]) if results else []
    print(f"{'metric':28s} {'unit':8s}" + "".join(f"{w:>14s}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        row = "".join(f"{r['metrics'][name]['value']:14.6g}" for r in results.values())
        print(f"{name:28s} {unit:8s}{row}")
    row = "".join(f"{r['failed'] / r['attempted']:14.6g}" for r in results.values())
    print(f"{'failed_frac':28s} {'ratio':8s}{row}")
    if args.record:
        Path(args.record).write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()) and len(results) == len(WORKLOADS),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="where to write the run record (default .perfbench/runs/)")
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
