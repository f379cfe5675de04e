"""Set-up of one benchmark process, timed from a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED START

START is the ``time.monotonic()`` reading taken just before this interpreter
was started.  The probe imports numpy and the checkout's weylsums, builds the
CLI parser, generates the workload's job list and creates an empty output and
cache directory, then prints the seconds since START.  Interpreter teardown
is not included.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    workload, seed, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (imported by weylsums too; named here as part of set-up)

    import jobs
    from weylsums import cli

    cli.build_parser()
    jobs.job_list(workload, seed)
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    probe = work / f"setup-{time.monotonic_ns()}"
    (probe / "out" / "cache").mkdir(parents=True)
    elapsed = time.monotonic() - start
    (probe / "out" / "cache").rmdir()
    (probe / "out").rmdir()
    probe.rmdir()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
