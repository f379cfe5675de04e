"""Seeded job lists for the three benchmark workloads.

A job is one ``weylsums`` argv without ``--out``; the runner adds the output
directory.  The seed picks points, coefficients, box positions, scan
thresholds and the order of fixed sets of primes; the commands and sizes are
the same for every seed, so runs with different seeds measure the same work.

Every list has at least 100 jobs, so at least ten lie beyond its 90th
percentile.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

WORKLOADS = ("stream", "tables", "checks")

# artifacts each subcommand writes besides manifest.json
ARTIFACTS = {
    "mr-scan": ("mr_scan.json",),
    "sigma-scan": ("sigma_scan.json",),
    "weyl-trace": ("weyl_trace.csv",),
    "exceptional-scan": ("exceptional_scan.json",),
    "enumerate-lp": ("enumerate_lp.json",),
    "moments": ("moments.csv",),
    "box-moments": ("box_moments.csv",),
    "box-density": ("box_density.json",),
    "gauss-check": ("gauss_check.json",),
    "cantor-build": ("cantor_boxes.jsonl", "cantor_summary.json"),
    "measure-estimate": ("measure_estimate.json",),
    "koksma-check": ("koksma_check.json",),
    "discrepancy": ("discrepancy.csv",),
    "discrepancy-scan": ("discrepancy_scan.json",),
    "amplify": ("amplify.json",),
    "amplify-mono": ("amplify_mono.json",),
    "monomial-check": ("monomial_check.json",),
    "weil-check": ("weil_check.json",),
}


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    # jobs with the same group share one --out directory, and with it the
    # --cache table directory OUT/cache; None means a directory of its own
    group: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


@functools.cache
def primes_in(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(n for n in range(lo, hi + 1) if is_prime(n))


def _seed(rng: random.Random) -> str:
    return str(rng.getrandbits(64))


def _rational_point(rng: random.Random, dims: int) -> str:
    """An exact point a/q with prime q in [1000, 10^4] and nonzero numerators."""
    q = rng.choice(primes_in(1000, 10_000))
    return ",".join(f"{rng.randrange(1, q)}/{q}" for _ in range(dims))


def _stream_point(rng: random.Random, kind: int) -> list[str]:
    """Five point kinds in turn: Philox phases at d = 2, 3, 4 and exact a/q in 2 or 3 coordinates."""
    if kind % 5 < 3:
        return ["--d", str(2 + kind % 5), "--seed", _seed(rng)]
    return ["--x", _rational_point(rng, kind % 5 - 1)]


# How many jobs of each kind a workload runs.  The rule is the same in all
# three: every command the workload names gets the same number of jobs, and
# within a command the sizes run through a fixed list, so that no job class is
# weighted to hold a percentile.  Two exceptions keep a pass to 10-15
# seconds: long sums run mostly at the smallest N, with one job per command at
# each larger N, and the exact-discrepancy commands, each of which costs as
# much as twenty short jobs, run twice each.

STREAM_COMMANDS = ("mr-scan", "sigma-scan", "weyl-trace", "exceptional-scan")
# per command: 22 jobs at N = 2^17, then one at each of 2^18, 2^19 and 2^20
STREAM_SIZES = (17,) * 22 + (18, 19, 20)


def stream_jobs(rng: random.Random) -> list[Job]:
    """Few long sums: 25 jobs of each of the four commands, N from 2^17 to 2^20."""
    jobs = []
    for cmd in STREAM_COMMANDS:
        for k, e in enumerate(STREAM_SIZES):
            if cmd == "mr-scan":  # mr-scan draws its own points
                argv = [cmd, "--d", str(2 + k % 3), "--seed", _seed(rng), "--N-max", str(2**e), "--count", "3"]
            else:
                argv = [cmd, *_stream_point(rng, k), "--N-max", str(2**e)]
            if cmd == "exceptional-scan":
                argv += ["--alpha", rng.choice(("0.55", "0.6", "0.65", "0.7"))]
            jobs.append(Job(tuple(argv)))
    # spread the commands and sizes through the pass
    return [jobs[i] for i in sorted(range(len(jobs)), key=lambda i: (i * 37) % len(jobs))]


# (prime, gamma for enumerate-lp, whether box-density runs there); gamma rises
# at the larger primes to bound the size of L_p, and box-density runs at p <= 61
_D3_GROUPS = ((31, "1", True), (47, "1", True), (59, "1", True), (73, "6/5", False),
              (89, "5/4", False), (103, "5/4", False), (131, "3/2", False))
_D2_GROUPS = ((127, "1"), (227, "1"), (331, "1"), (431, "1"), (631, "1"), (1009, "21/20"))
# one gauss-check and one cantor-build per table group
_GAUSS_PRIMES = (101, 127, 211, 227, 307, 331, 401, 431, 503, 631, 701, 809, 1009)
_CANTOR_DEPTH1 = (31, 37, 41, 43, 47, 53, 59)
_CANTOR_DEPTH2 = ((31, 101), (31, 103), (31, 107), (37, 101), (37, 103), (37, 107))
# (d, p) of the monomial amplification checks, each with a p^-tau radius above 2^-64
_MONO_AMP = tuple((3, p) for p in (5, 11, 17, 23, 29, 41, 47, 53)) + tuple(
    (2, p) for p in (11, 31, 53, 61, 79, 97, 103, 131))
_MONOMIAL_PRIMES = (101, 103, 107, 109, 113, 127, 131)
CHECKS_SHORT = 16  # jobs of each short command


def _table_group(rng: random.Random, d: int, p: int, gamma: str, density: bool = False) -> list[Job]:
    """One job of each table command per (d, p, nu), sharing one cache; the first builds the table."""
    group = f"d{d}_p{p}"
    common = ("--d", str(d), "--p", str(p), "--cache")
    argvs = [("enumerate-lp", *common, "--gamma", gamma)]
    argvs += [("moments", *common, "--nu", str(nu)) for nu in range(1, d + 1)]
    argvs += [("box-moments", *common, "--nu", str(nu), "--count", "8", "--seed", _seed(rng))
              for nu in range(1, d + 1)]
    if density:
        argvs.append(("box-density", *common))
    return [Job(a, group) for a in argvs]


def tables_jobs(rng: random.Random) -> list[Job]:
    """13 cached (d, p) groups, each followed by one gauss-check and one cantor-build."""
    jobs: list[Job] = []
    gauss = rng.sample(_GAUSS_PRIMES, len(_GAUSS_PRIMES))
    depth1 = rng.sample(_CANTOR_DEPTH1, len(_CANTOR_DEPTH1))
    depth2 = rng.sample(_CANTOR_DEPTH2, len(_CANTOR_DEPTH2))
    for k, group in enumerate(_D3_GROUPS):
        jobs += _table_group(rng, 3, *group)
        jobs.append(Job(("gauss-check", "--p", str(gauss[2 * k]))))
        jobs.append(Job(("cantor-build", "--d", "3", "--tau", "4", "--depth", "1", "--primes", str(depth1[k]))))
        if k < len(_D2_GROUPS):
            jobs += _table_group(rng, 2, *_D2_GROUPS[k])
            jobs.append(Job(("gauss-check", "--p", str(gauss[2 * k + 1]))))
            jobs.append(Job(("cantor-build", "--d", "3", "--tau", "4", "--depth", "2",
                             "--primes", "{},{}".format(*depth2[k]))))
    return jobs


def checks_jobs(rng: random.Random) -> list[Job]:
    """16 jobs of each of six short commands, plus two exact-discrepancy jobs of each kind."""
    jobs: list[Job] = []
    for k in range(2):
        jobs.append(Job(("discrepancy", "--d", str(1 + k), "--seed", _seed(rng), "--N-max", "12000")))
        jobs.append(Job(("discrepancy-scan", "--x", _rational_point(rng, 1 + k), "--alpha", "0.5",
                         "--N-max", "20000")))
    mono_amp = rng.sample(_MONO_AMP, len(_MONO_AMP))
    for k in range(CHECKS_SHORT):
        jobs.append(Job(("measure-estimate", "--d", str(2 + k % 2), "--i", str(4 << (k % 5)),
                         "--alpha", rng.choice(("0.3", "0.4")), "--samples", "1000",
                         "--seed", _seed(rng))))
        jobs.append(Job(("koksma-check", "--d", str(1 + k % 3), "--count", "20",
                         "--N-max", "1000", "--seed", _seed(rng))))
        if k % 2 == 0:
            p, d, tau = rng.choice(primes_in(257, 1009)), 2, 3
        else:
            p, d, tau = rng.choice(primes_in(101, 131)), 3, 5
        jobs.append(Job(("amplify", "--d", str(d), "--p", str(p), "--tau", str(tau),
                         "--seed", _seed(rng))))
        d, p = mono_amp[k]
        jobs.append(Job(("amplify-mono", "--d", str(d), "--p", str(p), "--tau", "11" if d == 3 else "7",
                         "--a", str(rng.randrange(1, p)))))
        p = _MONOMIAL_PRIMES[k % len(_MONOMIAL_PRIMES)]
        jobs.append(Job(("monomial-check", "--d", "3", "--p", str(p), "--a", str(rng.randrange(1, p)))))
        p = rng.choice(primes_in(101, 1009))
        deg = 2 + k % 5
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        jobs.append(Job(("weil-check", "--p", str(p), "--coeffs", ",".join(map(str, coeffs)))))
    # interleave the kinds so that slow and fast jobs alternate through the pass
    return jobs[0::4] + jobs[1::4] + jobs[2::4] + jobs[3::4]


def job_list(workload: str, seed: int) -> list[Job]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return {"stream": stream_jobs, "tables": tables_jobs, "checks": checks_jobs}[workload](rng)
