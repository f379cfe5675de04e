"""CLI wiring: artifacts, manifests, determinism and exit codes."""

import argparse
import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import weylsums
from weylsums import cli, phasecore


def _run(args):
    return cli.run(args)


def test_gauss_check_writes_report(tmp_path):
    out = tmp_path / "a"
    assert _run(["gauss-check", "--p", "13", "--out", str(out)]) == 0
    rep = json.loads((out / "gauss_check.json").read_text())
    assert rep[0]["passed"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gauss-check"
    assert manifest["config"]["p"] == 13
    assert "timestamp" in manifest and "wall_time_s" in manifest and "version" in manifest
    assert manifest["exit_code"] == 0 and "error_class" not in manifest and "message" not in manifest


def test_moments_csv_value(tmp_path):
    out = tmp_path / "m"
    assert _run(["moments", "--d", "2", "--p", "3", "--nu", "2", "--out", str(out)]) == 0
    with (out / "moments.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    nu2 = [r for r in rows if r["nu"] == "2"][0]
    assert abs(float(nu2["moment_with_zero"]) - 135.0) < 1e-6 * 135


def test_results_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "r1", tmp_path / "r2"
    for out in (a, b):
        assert _run(["mr-scan", "--d", "2", "--count", "5", "--N-max", "4096",
                     "--seed", "11", "--out", str(out)]) == 0
    assert (a / "mr_scan.json").read_bytes() == (b / "mr_scan.json").read_bytes()

    c, d = tmp_path / "r3", tmp_path / "r4"
    for out in (c, d):
        assert _run(["weyl-trace", "--d", "2", "--seed", "7", "--N-max", "2048",
                     "--out", str(out)]) == 0
    assert (c / "weyl_trace.csv").read_bytes() == (d / "weyl_trace.csv").read_bytes()


def test_weyl_trace_exact_rational_point(tmp_path):
    out = tmp_path / "t"
    assert _run(["weyl-trace", "--x", "0/5,1/5", "--N-max", "100", "--out", str(out)]) == 0
    with (out / "weyl_trace.csv").open() as fh:
        rows = {int(r["N"]): float(r["magnitude"]) for r in csv.DictReader(fh)}
    assert abs(rows[10] - 2 * 5**0.5) < 1e-9
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["d"] == 2 and config["seed"] is None


def test_drawn_point_manifest_defaults(tmp_path):
    out = tmp_path / "t"
    assert _run(["weyl-trace", "--N-max", "20", "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["d"] == 2 and config["seed"] == 0 and config["x"] is None


def test_exit_code_invalid_config(tmp_path):
    assert _run(["moments", "--d", "2", "--p", "1024", "--out", str(tmp_path / "x")]) == 2
    assert _run(["amplify", "--d", "2", "--p", "251", "--tau", "3",
                 "--out", str(tmp_path / "y")]) == 2
    assert _run(["weyl-trace", "--x", "1/0", "--out", str(tmp_path / "z")]) == 2
    # zero counts and divisors: exit 2, not an IndexError or ZeroDivisionError
    assert _run(["mr-scan", "--count", "0", "--N-max", "64", "--out", str(tmp_path / "c")]) == 2
    assert _run(["cantor-dim", "--shrink", "0", "--out", str(tmp_path / "c")]) == 2
    assert _run(["cantor-dim", "--cells", "0", "--out", str(tmp_path / "c")]) == 2
    assert _run(["pattern-demo", "--cells", "0", "--out", str(tmp_path / "c")]) == 2
    # monomial sums are for d >= 2: a lower degree is a bad configuration, not a failed lemma
    for d in ("1", "0", "-1"):
        assert _run(["monomial-check", "--d", d, "--p", "5", "--out", str(tmp_path / "m")]) == 2
    # box-moments refuses a count below 1, and both moment commands a nu outside 1..d, before
    # either builds or caches the table
    for cmd, flag, value in (("box-moments", "--count", "0"), ("box-moments", "--count", "-3"),
                             ("box-moments", "--nu", "0"), ("moments", "--nu", "0"),
                             ("moments", "--nu", "3")):
        out = tmp_path / f"{cmd}{flag}{value}"
        assert _run([cmd, "--d", "2", "--p", "13", flag, value, "--cache", "--out", str(out)]) == 2
        assert not (out / "cache").exists() and not (out / f"{cmd.replace('-', '_')}.csv").exists()
    # --x fixes the point: a --seed or a different --d is a contradiction
    for cmd in ("weyl-trace", "sigma-scan", "discrepancy"):
        assert _run([cmd, "--x", "1/5", "--seed", "9", "--N-max", "20", "--out", str(tmp_path / "s")]) == 2
        assert _run([cmd, "--x", "1/5", "--d", "3", "--N-max", "20", "--out", str(tmp_path / "d")]) == 2
    for cmd in ("exceptional-scan", "discrepancy-scan"):
        assert _run([cmd, "--x", "1/5", "--seed", "9", "--alpha", "0.5", "--N-max", "20",
                     "--out", str(tmp_path / "s")]) == 2
        assert _run([cmd, "--x", "1/5", "--d", "3", "--alpha", "0.5", "--N-max", "20",
                     "--out", str(tmp_path / "d")]) == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.run(["gauss-check", "--p", "13", "--no-such-flag", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl-trace", "--cache"],
        ["gauss-check", "--p", "13", "--force"],
        ["moments", "--p", "13", "--force"],
        ["weil-check", "--p", "13", "--coeffs", "0,1,1", "--seed", "1"],
        ["orbit-count", "--p", "13", "--side", "3", "--cap", "100"],
    ],
)
def test_flags_only_on_commands_that_read_them(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.run([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_readme_cli_block_runs_every_subcommand():
    # the README's `weylsums ...` lines are the commands run twice and diffed for byte-identical artifacts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {line.split()[1] for line in readme.splitlines() if line.startswith("weylsums ")}
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == set(sub.choices)


def _results(out):
    """name -> bytes of every result artifact under out (the manifest carries a timestamp)."""
    return {f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file() and f.name != "manifest.json"}


def test_parser_is_built_once_and_shared():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_carries_nothing_between_calls(tmp_path):
    # a drawn point's --d and --seed go into that call's namespace only: leaked into the next
    # call, the seed would contradict --x and exit 2
    assert _run(["weyl-trace", "--d", "3", "--seed", "5", "--N-max", "20", "--out", str(tmp_path / "a")]) == 0
    assert _run(["weyl-trace", "--x", "1/5,2/5", "--N-max", "20", "--out", str(tmp_path / "b")]) == 0
    config = json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]
    assert config["d"] == 2 and config["seed"] is None
    # a list option set in one call is back at its default in the next
    assert _run(["gauss-check", "--primes", "101,103", "--out", str(tmp_path / "g1")]) == 0
    assert _run(["gauss-check", "--p", "107", "--out", str(tmp_path / "g2")]) == 0
    assert [r["p"] for r in json.loads((tmp_path / "g2" / "gauss_check.json").read_text())] == [107]


def test_parse_error_leaves_the_next_call_untouched(tmp_path):
    # the parser rejects the first call before --out is known: nothing is written, and the next
    # call writes what the same command writes in a process of its own
    with pytest.raises(SystemExit) as exc:
        cli.run(["weyl-trace", "--d", "3", "--seed", "5", "--N-max", "oops", "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert not (tmp_path / "bad").exists()
    argv = ["weyl-trace", "--N-max", "300"]
    assert _run([*argv, "--out", str(tmp_path / "in")]) == 0
    src = str(Path(weylsums.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "weylsums", *argv, "--out", str(tmp_path / "fresh")],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _results(tmp_path / "in") == _results(tmp_path / "fresh") != {}


def _flip_cached_table(monkeypatch, out):
    """Cache the (2, 13) table under out and flip one body byte; the run's own files are removed."""
    assert _run(["moments", "--d", "2", "--p", "13", "--nu", "1", "--cache", "--out", str(out)]) == 0
    table = out / "cache" / "table_d2_p13.wslt"
    raw = bytearray(table.read_bytes())
    raw[-3] ^= 0xFF
    table.write_bytes(bytes(raw))
    for name in ("manifest.json", "moments.csv"):
        (out / name).unlink()


def _no_memory(monkeypatch, out):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.ws, "weyl_sum_trace", no_memory)


def _broken_terms(monkeypatch, out):
    def twos(words, q):  # every term 2, so |S(x; N)| = 2N breaks the trivial bound
        terms = phasecore.unit_terms(words, q)
        terms[0], terms[1] = 2.0, 0.0
        return terms

    monkeypatch.setattr(cli.ws, "unit_terms", twos)


def _no_cantor_build(monkeypatch, out):
    def refuse(*args, **kwargs):
        raise AssertionError("build_cantor ran before the scales were checked")

    monkeypatch.setattr(cli.ct, "build_cantor", refuse)


@pytest.mark.parametrize(
    "code, error_class, prefix, argv, setup",
    [
        (2, "PreconditionError", "invalid configuration", ["mr-scan", "--count", "0", "--N-max", "64"], None),
        (2, "PreconditionError", "invalid configuration", ["moments", "--d", "2", "--p", "13", "--nu", "0"], None),
        (2, "PreconditionError", "invalid configuration", ["moments", "--d", "2", "--p", "13", "--nu", "3"], None),
        (3, "ResourceLimitError", "resource limit", ["monomial-check", "--d", "3", "--p", "101", "--cap", "1000"],
         None),
        (3, "MemoryError", "resource limit", ["weyl-trace", "--N-max", "20"], _no_memory),
        (4, "LemmaCheckFailureError", "lemma check failed", ["weyl-trace", "--N-max", "20"], _broken_terms),
        (5, "ChecksumMismatchError", "corrupt cache", ["moments", "--d", "2", "--p", "13", "--nu", "1", "--cache"],
         _flip_cached_table),
        # 2 scales, 1/300 and 1/90000; the collection would hold 150^2 boxes
        (2, "TooFewScalesError", "invalid configuration",
         ["cantor-dim", "--d", "2", "--cells", "150", "--shrink", "300", "--depth", "1"], _no_cantor_build),
    ],
    ids=["invalid-config", "moments-nu-0", "moments-nu-above-d", "cap", "out-of-memory", "lemma-check",
         "corrupt-cache", "cantor-dim-scales"],
)
def test_failed_run_writes_manifest(code, error_class, prefix, argv, setup, tmp_path, monkeypatch, capsys):
    out = tmp_path / "fail"
    if setup is not None:
        setup(monkeypatch, out)
    capsys.readouterr()
    assert _run([*argv, "--out", str(out)]) == code
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == argv[0] and manifest["config"]["out"] == str(out)
    assert {"timestamp", "wall_time_s", "version"} <= manifest.keys()
    assert (manifest["exit_code"], manifest["error_class"]) == (code, error_class)
    assert capsys.readouterr().err == f"{prefix}: {manifest['message']}\n"
    assert manifest["message"] != ""
    # the manifest is the only file a failed run adds
    assert sorted(f.name for f in out.iterdir() if f.is_file()) == ["manifest.json"]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.run(["--version"])
    assert exc.value.code == 0


def test_exit_code_resource_limit(tmp_path):
    # 2 * 709^2 = 1005362 stored entries against a cap of 10^6
    assert _run(["moments", "--d", "3", "--p", "709", "--cap", "1000000",
                 "--out", str(tmp_path / "z")]) == 3
    # 101^3 terms against a cap of 1000
    assert _run(["monomial-check", "--d", "3", "--p", "101", "--cap", "1000",
                 "--out", str(tmp_path / "w")]) == 3


def test_fiber_pass_cap_names_residues(tmp_path, capsys):
    # at d = 1 the table holds 2 entries; the cap refuses the p-residue fiber pass, and says so
    assert _run(["enumerate-lp", "--d", "1", "--p", "101", "--cap", "50", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "resource limit: fiber pass of 101 residues exceeds the cap of 50; raise the cap\n"


def test_exit_code_out_of_memory(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.ws, "weyl_sum_trace", no_memory)
    assert _run(["weyl-trace", "--N-max", "20", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "resource limit: out of memory\n"


def test_exit_code_corrupt_cache(tmp_path, capsys):
    out = tmp_path / "c"
    argv = ["moments", "--d", "2", "--p", "13", "--nu", "1", "--cache", "--out", str(out)]
    assert _run(argv) == 0
    table = out / "cache" / "table_d2_p13.wslt"
    raw = bytearray(table.read_bytes())
    raw[-3] ^= 0xFF
    table.write_bytes(bytes(raw))
    capsys.readouterr()
    assert _run(argv) == 5
    assert capsys.readouterr().err.startswith("corrupt cache: checksum mismatch")
    # the same flipped byte with its sidecar deleted is refused, not loaded unchecked
    table.with_suffix(".wslt.sha256").unlink()
    assert _run(argv) == 5
    assert "no .sha256 sidecar" in capsys.readouterr().err


def test_exit_code_stale_table_version(tmp_path, capsys):
    out = tmp_path / "v1"
    argv = ["moments", "--d", "2", "--p", "13", "--nu", "1", "--cache", "--out", str(out)]
    table = out / "cache" / "table_d2_p13.wslt"
    table.parent.mkdir(parents=True)
    raw = struct.pack("<4sIIQ", b"WSLT", 1, 2, 13) + b"\x00" * (8 * 13**2)
    table.write_bytes(raw)
    table.with_suffix(".wslt.sha256").write_text(hashlib.sha256(raw).hexdigest() + "\n")
    capsys.readouterr()
    assert _run(argv) == 5
    assert capsys.readouterr().err.endswith("unknown table version 1; delete the cache and rebuild\n")


def test_enumerate_lp_lists_rows_only_to_emit_them(tmp_path):
    # (3, 31): a table of 1922 stored entries, 12710 members
    out = tmp_path / "lp"
    common = ["enumerate-lp", "--d", "3", "--p", "31", "--cap", "5000", "--out", str(out)]
    assert _run([*common, "--emit-limit", "10"]) == 0
    rep = json.loads((out / "enumerate_lp.json").read_text())
    assert rep["count"] == 12710 and rep["members"] is None
    assert _run([*common, "--emit-limit", "20000"]) == 3
    # box-density lists no rows: the same cap bounds only the table
    assert _run(["box-density", "--d", "3", "--p", "31", "--cap", "5000", "--out", str(out)]) == 0
    assert json.loads((out / "box_density.json").read_text())["minimal_side"] == 2


def test_box_density_cap_bounds_only_the_table(tmp_path):
    # (3, 101): a table of 2 * 101^2 = 20402 stored entries and 404000 members; the
    # member rows alone (3 int64 each) would take 9.2 MiB, the scan reads about
    # one 2^16-entry block at a time
    out = tmp_path / "bd"
    tracemalloc.start()
    try:
        assert _run(["box-density", "--d", "3", "--p", "101", "--cap", "30000", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert json.loads((out / "box_density.json").read_text())["minimal_side"] == 2
    assert peak < 4 * 2**20


def test_trivial_bound_failure_exits_4(tmp_path, monkeypatch):
    # an evaluator that breaks |S| <= N is a failed lemma on every sum route, traces included
    def twos(words, q):  # every term 2, so |S(x; N)| = 2N
        terms = phasecore.unit_terms(words, q)
        terms[0], terms[1] = 2.0, 0.0
        return terms

    monkeypatch.setattr(cli.ws, "unit_terms", twos)
    for argv in (
        ["weyl-trace", "--N-max", "20"],
        ["sigma-scan", "--N-max", "64"],
        ["exceptional-scan", "--alpha", "0.5", "--N-max", "20"],
        ["mr-scan", "--count", "1", "--N-max", "64"],
        ["koksma-check", "--count", "1", "--N-max", "20"],
    ):
        assert _run([*argv, "--out", str(tmp_path / argv[0])]) == 4


@pytest.mark.parametrize("module", ["weylsums", "weylsums.cli"])
def test_module_entry_point_runs(module, tmp_path):
    src = str(Path(weylsums.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "m"
    proc = subprocess.run(
        [sys.executable, "-m", module, "gauss-check", "--p", "13", "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "gauss_check.json").is_file()


def test_amplify_artifacts(tmp_path):
    out = tmp_path / "amp"
    assert _run(["amplify", "--d", "2", "--p", "257", "--tau", "3", "--seed", "3",
                 "--out", str(out)]) == 0
    reports = json.loads((out / "amplify.json").read_text())
    assert len(reports) == 4 and all(r["pass"] for r in reports)


def test_amplify_mono(tmp_path):
    out = tmp_path / "mono"
    assert _run(["amplify-mono", "--d", "2", "--p", "5", "--tau", "12", "--out", str(out)]) == 0
    rep = json.loads((out / "amplify_mono.json").read_text())
    assert rep["pass"] is True


def test_cantor_build_artifacts(tmp_path):
    out = tmp_path / "cb"
    assert _run(["cantor-build", "--d", "3", "--tau", "4", "--primes", "31,127",
                 "--depth", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "cantor_summary.json").read_text())
    assert summary["certificates_pass"] is True
    assert summary["box_count"] == 64
    lines = (out / "cantor_boxes.jsonl").read_text().strip().split("\n")
    assert len(lines) == 64


def test_discrepancy_csv(tmp_path):
    out = tmp_path / "disc"
    assert _run(["discrepancy", "--d", "1", "--x", "1/2", "--N-max", "4",
                 "--out", str(out)]) == 0
    with (out / "discrepancy.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["N"] for r in rows] == ["1", "2", "3", "4"]
    assert float(rows[3]["D_N"]) == 2.0


def test_discrepancy_csv_weyl_sum_at_one_half_is_exact(tmp_path):
    # every term e(n/2) = (-1)^n is a table read, so S(1/2; N) is exactly 0 at even N and -1 at odd N
    out = tmp_path / "disc"
    assert _run(["discrepancy", "--d", "1", "--x", "1/2", "--N-max", "1024", "--out", str(out)]) == 0
    with (out / "discrepancy.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["N"] == "1024"
    assert all(float(r["S_magnitude"]) == int(r["N"]) % 2 for r in rows)
    for x in (phasecore.Phase(1 << 63), phasecore.RationalPoint((1,), 2)):
        assert [cli.ws.weyl_sum(x, n) for n in (1, 2, 1023, 1024)] == [-1, 0, -1, 0]


# the README's three exact-discrepancy commands and the sha256 of their artifacts, which the int64
# discrepancy kernels must reproduce byte for byte; the S_magnitude, ratio and s_magnitude fields also
# pin the unit terms (at x = 1/2 every term is exact, so S is 0 or -1: the test above)
_README_DISCREPANCY = (
    (["discrepancy", "--x", "1/2", "--d", "1", "--N-max", "1024"], "discrepancy.csv",
     "e5c9d5f9e4a1f3c2b3cbea028a6d2169c6da311523d925e2097aa358624c876e"),
    (["koksma-check", "--d", "3", "--count", "1000", "--N-max", "1000"], "koksma_check.json",
     "1da739fb81b8a1b17ef57a0436a08787b9cdbc296feab8e91400597515ba9e6f"),
    (["discrepancy-scan", "--d", "1", "--x", "1/2", "--alpha", "0.5", "--N-max", "10000"], "discrepancy_scan.json",
     "3f0485d13a2d93fd3a76946fc572487dcc0e3b976b97e5e936b84e7da972b8d7"),
)


def test_readme_discrepancy_artifacts_are_pinned(tmp_path):
    for argv, name, digest in _README_DISCREPANCY:
        out = tmp_path / argv[0]
        assert _run([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_discrepancy_commands_refuse_n_max_past_int64_split(tmp_path, capsys):
    # the gaps N x - k fit two int64 words only for N < 2^31: refused before any array is built
    tracemalloc.start()
    try:
        for argv in (["discrepancy", "--d", "1"], ["discrepancy-scan", "--x", "1/3", "--alpha", "0.5"],
                     ["koksma-check", "--count", "1"]):
            assert _run([*argv, "--N-max", str(2**31), "--out", str(tmp_path / argv[0])]) == 2
            assert "2^31" in capsys.readouterr().err
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_koksma_check_cli(tmp_path):
    out = tmp_path / "kk"
    assert _run(["koksma-check", "--d", "2", "--count", "10", "--N-max", "200",
                 "--seed", "1", "--out", str(out)]) == 0
    rep = json.loads((out / "koksma_check.json").read_text())
    assert rep["passed"] is True


def test_enumerate_lp_cli(tmp_path):
    out = tmp_path / "lp"
    assert _run(["enumerate-lp", "--d", "2", "--p", "5", "--out", str(out)]) == 0
    rep = json.loads((out / "enumerate_lp.json").read_text())
    assert rep["count"] == 20


def test_orbit_count_cli(tmp_path):
    out = tmp_path / "oc"
    assert _run(["orbit-count", "--p", "101", "--a", "1,1", "--side", "60",
                 "--out", str(out)]) == 0
    rep = json.loads((out / "orbit_count.json").read_text())
    assert rep["count"] == 33


def test_table_cache_via_cli(tmp_path):
    out = tmp_path / "cache-run"
    for _ in range(2):
        assert _run(["moments", "--d", "2", "--p", "13", "--nu", "1", "--cache",
                     "--out", str(out)]) == 0
    assert (out / "cache" / "table_d2_p13.wslt").exists()
    assert (out / "cache" / "table_d2_p13.wslt.sha256").exists()


def test_pattern_demo(tmp_path):
    out = tmp_path / "pat"
    assert _run(["pattern-demo", "--d", "2", "--cells", "3", "--c", "1/10",
                 "--out", str(out)]) == 0
    lines = (out / "pattern.jsonl").read_text().strip().split("\n")
    assert len(lines) == 9


def test_measure_estimate_cli(tmp_path):
    out = tmp_path / "me"
    assert _run(["measure-estimate", "--d", "2", "--alpha", "0.4", "--i", "8",
                 "--samples", "1000", "--seed", "2", "--out", str(out)]) == 0
    rep = json.loads((out / "measure_estimate.json").read_text())
    assert 0.0 <= rep["estimate"] <= 1.0


def test_sigma_and_scans_cli(tmp_path):
    out = tmp_path / "sig"
    assert _run(["sigma-scan", "--x", "0/1,0/1", "--N-max", "1024", "--out", str(out)]) == 0
    rep = json.loads((out / "sigma_scan.json").read_text())
    assert abs(rep["sigma_estimate"] - 1.0) < 1e-6
    out2 = tmp_path / "exc"
    assert _run(["exceptional-scan", "--x", "0/5,1/5", "--alpha", "0.6",
                 "--N-max", "100", "--out", str(out2)]) == 0
    rep = json.loads((out2 / "exceptional_scan.json").read_text())
    assert 10 in rep["qualifying_N"]
    out3 = tmp_path / "dsc"
    assert _run(["discrepancy-scan", "--x", "0/1,0/1", "--alpha", "0.9",
                 "--N-max", "32", "--out", str(out3)]) == 0
    rep = json.loads((out3 / "discrepancy_scan.json").read_text())
    assert rep["qualifying_N"] == list(range(1, 33))


def test_box_density_cli(tmp_path):
    out = tmp_path / "bd"
    assert _run(["box-density", "--d", "3", "--p", "31", "--out", str(out)]) == 0
    rep = json.loads((out / "box_density.json").read_text())
    assert rep["minimal_side"] >= 1
