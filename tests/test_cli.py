"""CLI wiring: artifacts, manifests, determinism and exit codes."""

import argparse
import ast
import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import weylsums
from weylsums import cli, errors, phasecore
from weylsums import complete_sums as cs


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


def test_moments_without_zero_is_the_library_value(tmp_path):
    # one power sum per nu; the a = 0 term is removed exactly, as p^(2 nu)
    assert _run(["moments", "--d", "3", "--p", "31", "--nu", "3", "--out", str(tmp_path)]) == 0
    with (tmp_path / "moments.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    table = cs.build_table(3, 31)
    assert [float(r["moment_without_zero"]) for r in rows] == [
        cs.mordell_moment(table, nu) - 31.0 ** (2 * nu) for nu in (1, 2, 3)]


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


def test_exit_code_invalid_config(tmp_path, capsys):
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
    # moments reports A_1(1) = 1! - 1 = 0 as it is and divides by nothing
    assert _run(["moments", "--d", "1", "--p", "13", "--nu", "1", "--out", str(tmp_path / "m1")]) == 0
    with (tmp_path / "m1" / "moments.csv").open() as fh:
        assert [float(r["main_term_A"]) for r in csv.DictReader(fh)] == [0.0]
    capsys.readouterr()
    # a 0-dimensional box: both Cantor commands refuse it with one message
    for cmd in ("cantor-dim", "pattern-demo"):
        assert _run([cmd, "--d", "0", "--out", str(tmp_path / "d0")]) == 2
        assert capsys.readouterr().err == "invalid configuration: dimension must be >= 1\n"
    # amplify's trial count takes a d-th root: d = 0 is refused, not a ZeroDivisionError
    assert _run(["amplify", "--d", "0", "--p", "257", "--tau", "3", "--out", str(tmp_path / "a0")]) == 2
    assert "d >= 1" in capsys.readouterr().err
    # N-max 0 leaves no N to draw: the library's N range, not numpy's "low >= high"
    assert _run(["koksma-check", "--N-max", "0", "--out", str(tmp_path / "k0")]) == 2
    assert "need 1 <= N < 2^31" in capsys.readouterr().err
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
        # comma lists of integers are parsed by the parser, as --primes and --m are
        ["weil-check", "--p", "101", "--coeffs", "x"],
        ["orbit-count", "--p", "101", "--a", "1,x", "--side", "3"],
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
    def twos(words, q, work):  # every term 2, so |S(x; N)| = 2N breaks the trivial bound
        terms = phasecore.unit_terms(words, q, work)
        terms[0], terms[1] = 2.0, 0.0
        return terms

    monkeypatch.setattr(cli.ws, "unit_terms", twos)


def _no_table(monkeypatch, out):
    def refuse(*args, **kwargs):
        raise AssertionError("the table was built or cached before the refusal")

    monkeypatch.setattr(cli.cs, "cached_table", refuse)


def _no_koksma_slack(monkeypatch, out):
    monkeypatch.setattr(cli.dc, "KOKSMA_CONSTANT", 0.0)  # only |S| <= 1e-6 passes


def _no_cantor_build(monkeypatch, out):
    def refuse(*args, **kwargs):
        raise AssertionError("build_cantor ran before the scales were checked")

    monkeypatch.setattr(cli.ct, "build_cantor", refuse)


def _no_cantor_level(monkeypatch, out):
    def refuse(*args, **kwargs):
        raise AssertionError("a Cantor level was built before the box count was checked")

    monkeypatch.setattr(cli.ct, "make_pattern", refuse)


def _no_cantor_table(monkeypatch, out):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built before epsilon was checked")

    monkeypatch.setattr(cli.ct, "build_table", refuse)


@pytest.mark.parametrize(
    "code, error_class, prefix, argv, setup",
    [
        (2, "PreconditionError", "invalid configuration", ["mr-scan", "--count", "0", "--N-max", "64"], None),
        (2, "PreconditionError", "invalid configuration", ["moments", "--d", "2", "--p", "13", "--nu", "0"], None),
        (2, "PreconditionError", "invalid configuration", ["moments", "--d", "2", "--p", "13", "--nu", "3"], None),
        (3, "ResourceLimitError", "resource limit", ["monomial-check", "--d", "3", "--p", "101", "--cap", "1000"],
         None),
        # the two inputs at which the monomial sum is not p^(d-1): refused, not a failed lemma
        (2, "PreconditionError", "invalid configuration", ["monomial-check", "--d", "2", "--p", "2", "--a", "1"], None),
        (2, "PreconditionError", "invalid configuration", ["monomial-check", "--d", "4", "--p", "2"], None),
        (3, "MemoryError", "resource limit", ["weyl-trace", "--N-max", "20"], _no_memory),
        (4, "LemmaCheckFailureError", "lemma check failed", ["weyl-trace", "--N-max", "20"], _broken_terms),
        (4, "LemmaCheckFailureError", "lemma check failed", ["koksma-check", "--count", "3", "--N-max", "20"],
         _no_koksma_slack),
        (5, "ChecksumMismatchError", "corrupt cache", ["moments", "--d", "2", "--p", "13", "--nu", "1", "--cache"],
         _flip_cached_table),
        # 2 scales, 1/300 and 1/90000; the collection would hold 150^2 boxes
        (2, "TooFewScalesError", "invalid configuration",
         ["cantor-dim", "--d", "2", "--cells", "150", "--shrink", "300", "--depth", "1"], _no_cantor_build),
        # 3 scales spanning 300^2; 150^4 boxes of 2 coordinates against the cap of 10^7
        (3, "ResourceLimitError", "resource limit",
         ["cantor-dim", "--d", "2", "--cells", "150", "--shrink", "300", "--depth", "2"], _no_cantor_level),
        # 4000^2 boxes of 2 coordinates
        (3, "ResourceLimitError", "resource limit",
         ["pattern-demo", "--d", "2", "--cells", "4000", "--c", "1/100000"], None),
        # kappa_3 - epsilon = 1/4 - 1/10000019 has denominator 40000076: its integer root ran past a minute
        (2, "PreconditionError", "invalid configuration",
         ["cantor-build", "--d", "3", "--tau", "4", "--primes", "31", "--depth", "1", "--epsilon", "1/10000019"],
         _no_cantor_table),
        # A_1(1) = 1! - 1 = 0: no box-moment ratio, refused before the table is built or cached
        (2, "PreconditionError", "invalid configuration",
         ["box-moments", "--d", "1", "--p", "13", "--nu", "1", "--cache"], _no_table),
        # refused where they arise, not by numpy's or the int64 guard's ValueError
        (2, "PreconditionError", "invalid configuration", ["weyl-trace", "--x", "abc"], None),
        (2, "PreconditionError", "invalid configuration", ["weyl-trace", "--d", "-1"], None),
        (2, "PreconditionError", "invalid configuration", ["weyl-trace", "--x", "1/3037000500"], None),
    ],
    ids=["invalid-config", "moments-nu-0", "moments-nu-above-d", "cap", "monomial-d2-p2", "monomial-d4-p2",
         "out-of-memory", "lemma-check", "koksma-check", "corrupt-cache", "cantor-dim-scales", "cantor-dim-boxes",
         "pattern-demo-boxes", "cantor-build-epsilon", "box-moments-d1", "x-not-rational", "drawn-d-negative",
         "x-past-int64"],
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


def test_run_maps_only_package_errors():
    # a ValueError is a bug, shown with its traceback: the package raises none, catches one only where
    # an argparse type turns it into a parser rejection, and run's handlers name only package errors
    # and MemoryError
    tree = ast.parse(Path(cli.__file__).read_text())
    parser_types = {kw.value.id for kw in ast.walk(tree)
                    if isinstance(kw, ast.keyword) and kw.arg == "type" and isinstance(kw.value, ast.Name)}
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # node -> the innermost function around it; ast.walk reaches outer functions first
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(raised, "id", None) == "ValueError":
                    found.append(("raise", path.name, node.lineno))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                if "ValueError" in names and owner.get(node) not in parser_types:
                    found.append(("except", path.name, node.lineno))
                if owner.get(node) == "run" and path.name == "cli.py":
                    for name in names - {"MemoryError"}:
                        cls = getattr(errors, name, None)
                        if not (isinstance(cls, type) and issubclass(cls, errors.WeylSumsError)):
                            found.append((name, path.name, node.lineno))
    assert "_fraction" in parser_types and not found, found


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
    good = table.read_bytes()
    # a byte of the body, of the stored digest, and the low byte of p (13 -> 242: refused by the length)
    for offset, message in ((-3, "checksum mismatch"), (30, "checksum mismatch"), (12, "has 260 bytes, expected 3924")):
        raw = bytearray(good)
        raw[offset] ^= 0xFF
        table.write_bytes(bytes(raw))
        capsys.readouterr()
        assert _run(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("corrupt cache: ") and message in err


def test_exit_code_stale_table_version(tmp_path, capsys):
    # a version-1 p^d file, and a version-2 file of two slices with the sidecar that format kept
    for version, body in ((1, 8 * 13**2), (2, 16 * 13)):
        out = tmp_path / f"v{version}"
        argv = ["moments", "--d", "2", "--p", "13", "--nu", "1", "--cache", "--out", str(out)]
        table = out / "cache" / "table_d2_p13.wslt"
        table.parent.mkdir(parents=True)
        raw = struct.pack("<4sIIQ", b"WSLT", version, 2, 13) + b"\x00" * body
        table.write_bytes(raw)
        table.with_suffix(".wslt.sha256").write_text(hashlib.sha256(raw).hexdigest() + "\n")
        capsys.readouterr()
        assert _run(argv) == 5
        assert capsys.readouterr().err.endswith(f"unknown table version {version}; delete the cache and rebuild\n")


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
    def twos(words, q, work):  # every term 2, so |S(x; N)| = 2N
        terms = phasecore.unit_terms(words, q, work)
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


# four of the README's exact-discrepancy commands and the sha256 of their artifacts, which the int64
# discrepancy kernels must reproduce byte for byte; the S_magnitude, ratio and s_magnitude fields also
# pin the unit terms (at x = 1/2 every term is exact, so S is 0 or -1: the test above)
_README_DISCREPANCY = (
    (["discrepancy", "--x", "1/2", "--d", "1", "--N-max", "1024"], "discrepancy.csv",
     "e5c9d5f9e4a1f3c2b3cbea028a6d2169c6da311523d925e2097aa358624c876e"),
    (["koksma-check", "--d", "3", "--count", "1000", "--N-max", "1000"], "koksma_check.json",
     "1da739fb81b8a1b17ef57a0436a08787b9cdbc296feab8e91400597515ba9e6f"),
    (["discrepancy-scan", "--d", "1", "--x", "1/2", "--alpha", "0.5", "--N-max", "10000"], "discrepancy_scan.json",
     "3f0485d13a2d93fd3a76946fc572487dcc0e3b976b97e5e936b84e7da972b8d7"),
    # the largest N the cap admits: 10^7 phase words, each dyadic prefix up to 2^23 sorted in place
    (["discrepancy", "--x", "1/3", "--d", "1", "--N-max", "10000000"], "discrepancy.csv",
     "13e7fe7f18e4b372142160f5bba8b122c67fb760832e112b93c9293a97e6a14d"),
)


def test_readme_discrepancy_artifacts_are_pinned(tmp_path):
    for argv, name, digest in _README_DISCREPANCY:
        out = tmp_path / argv[0]
        assert _run([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# README commands whose artifacts the complete-sum kernels (monomial-check, weil-check) and the box
# moments' held powers (box-moments) must reproduce byte for byte
_README_RESIDUE = (
    (["monomial-check", "--d", "3", "--p", "101", "--a", "7"], "monomial_check.json",
     "33baf74b6a0eac8731a58dd6e9436b6c74ee2ab0e8e55fb7aec9d9a13b5c227b"),
    # P = 131^2 > 2^14: each row v of the factored terms is cut into two blocks
    (["monomial-check", "--d", "3", "--p", "131", "--a", "26"], "monomial_check.json",
     "015fb72d8f4dc20d46e0521820713964fbe66f5145ddd83d0e660c6bfd48146f"),
    # d = 2: 16 whole rows per block, one gather of factors per term
    (["monomial-check", "--d", "2", "--p", "1009", "--a", "3"], "monomial_check.json",
     "dbcca88b6a166b574d1855192d30062b36ecbc23601fd95fccb21fddbc21feda"),
    # d = 4: a row v of P = 53^3 terms is cut into blocks of 309 rows of 53 head entries times one row of factors
    (["monomial-check", "--d", "4", "--p", "53", "--a", "3"], "monomial_check.json",
     "2efd7b1f010f00a7744f22191477b2f70381f44f756c379d6b0b75a63e48eaa9"),
    (["weil-check", "--p", "101", "--coeffs", "1,2,3,4"], "weil_check.json",
     "63ca4637ea2efddd948fff11bf5128168237354393afa3e6e79e26256815f8c2"),
    # seven blocks of the Weyl-sum loop, joined as exact ints before the one rounding
    (["weil-check", "--p", "100003", "--coeffs", "1,2,3,4,5,6"], "weil_check.json",
     "a7e2f92799df7fb4f8760b630456695ee76b88db3faf0bd68a01ebeaf057edb1"),
    (["box-moments", "--d", "2", "--p", "101", "--nu", "1", "--count", "50", "--seed", "1"], "box_moments.csv",
     "a61f88edcba08a1b10a4650c769ef24a9f23fa65ec4326694ed336322597a0f2"),
    (["box-moments", "--d", "2", "--p", "100003", "--nu", "2", "--count", "8", "--seed", "3"], "box_moments.csv",
     "3af0286d37cc01884a5050b4679f303ed5cc3b255c4a74d3aceff6f70eb1dcf2"),
)


def test_readme_residue_and_box_artifacts_are_pinned(tmp_path):
    for i, (argv, name, digest) in enumerate(_README_RESIDUE):
        out = tmp_path / f"{argv[0]}-{i}"
        assert _run([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, argv


# the README cantor-build line: each of its 64 box rows carries a level certificate, and a certificate
# serialized once per level must read as one serialized per box
_README_CANTOR = (
    ["cantor-build", "--d", "3", "--tau", "4", "--primes", "31,127", "--depth", "2"],
    {"cantor_boxes.jsonl": "1af69d8d747da6aff7d7c9c36cab3af7b6e1c7b09d107caf9daa48f9f32fbf1f",
     "cantor_summary.json": "36a2cfce20e5f9f263a15073f46cc4944dc336e11a682fa26b4f45e6f1fe2bc5"},
)


def test_readme_cantor_artifacts_are_pinned(tmp_path):
    argv, digests = _README_CANTOR
    assert _run([*argv, "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests


# the README cantor-dim and pattern-demo lines, each also under the corner and seeded-random rules: the
# integer levels' grid counts and reduced "n/d" rows, seeded-random denominators past 2^63 among them
_CANTOR_GEOMETRY = (
    (["cantor-dim", "--d", "2", "--cells", "2", "--shrink", "4", "--depth", "4"], "cantor_dim.json", {
        (): "0671045390e14b32ea3bbd5e3d1f6353cb0e7a49f2623ef5780790142651a9c6",
        ("--rule", "corner"): "a41dcb0716af3846028c9bea4b81d68a90a737ed2a5dad5d471fd1f86caae998",
        ("--rule", "seeded-random", "--seed", "7"): "95dccdc7f3240f5289d876428ab6c773e5c87de1037670242f09feebba3c939f",
    }),
    (["pattern-demo", "--d", "2", "--cells", "3", "--c", "1/10"], "pattern.jsonl", {
        (): "7dc45ab6e6ea6dea2ba1bd35e54be387225b366b374da4326251c55db655ef7c",
        ("--rule", "corner"): "679091fa3586aefeeea3d468e72153b7ab4252099ce03ba25baa5ef3570824ed",
        ("--rule", "seeded-random", "--seed", "7"): "aa1bbcc84bf5e071b7704ab8ee4228c0ca6e4c60ebb58a7b636413187b1e1397",
    }),
)


def test_cantor_geometry_artifacts_are_pinned(tmp_path):
    for argv, name, digests in _CANTOR_GEOMETRY:
        for i, (rule, digest) in enumerate(digests.items()):
            out = tmp_path / f"{argv[0]}-{i}"
            assert _run([*argv, *rule, "--out", str(out)]) == 0
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (argv, rule)


# README commands whose artifacts the table readers (the Gauss check, the Mordell moments and the
# L_p counts, listings and box densities, all through the table's orbit view) must reproduce byte
# for byte; the last line lists 9828 member rows
_README_TABLES = (
    (["gauss-check", "--p", "101"], "gauss_check.json",
     "085f76e0d58f5c77bd8756ca8c98edd5eca5f61cd4d44faece0890a876ecc71e"),
    (["moments", "--d", "2", "--p", "13", "--nu", "2"], "moments.csv",
     "654858f5b0df9eafe12d134c68d9b0abae610734439b813bc0d9c287693375fb"),
    (["moments", "--d", "3", "--p", "1009", "--nu", "3"], "moments.csv",
     "11898bb80605ad86801a79cc0f9f11bae0391ccfd4e8e7f4a5de66eb13a36c48"),
    (["enumerate-lp", "--d", "3", "--p", "31", "--gamma", "1", "--cache"], "enumerate_lp.json",
     "5f06c2d2a46d17bed1a528c8bfa3f9e327836808c7e42ada982e78c39d81dd32"),
    (["enumerate-lp", "--d", "2", "--p", "1009", "--gamma", "21/20"], "enumerate_lp.json",
     "575133def9974f1792b4897faeb7bac450e4a6bf68fefaa77eb421792d257a15"),
    (["enumerate-lp", "--d", "3", "--p", "1009", "--gamma", "3/2"], "enumerate_lp.json",
     "3c2b3db8c1e8fb8dbb3376a9a0e9e3caeabb9fb9f53c48277d4c2c4ab6324c9c"),
    (["box-density", "--d", "3", "--p", "31"], "box_density.json",
     "22b24f83fc040c5447a6fc28e00616c45ab3bd3ab0b6cee73bccc918eefcbc27"),
    (["box-density", "--d", "3", "--p", "1009"], "box_density.json",
     "aa4e2dcff55b657d0f6608236f597b11dd25056bad44b9e10d959b083aabe203"),
    (["enumerate-lp", "--d", "4", "--p", "13", "--gamma", "1"], "enumerate_lp.json",
     "64ff9f8808f38fa4dc03e64507d21287b11651fb4898478cf7d008ec3860bb0b"),
)


def test_readme_table_artifacts_are_pinned(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for i, (argv, name, digest) in enumerate(_README_TABLES):
        assert f"weylsums {' '.join(argv)} --out " in readme, argv
        out = tmp_path / f"{argv[0]}-{i}"
        assert _run([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, argv


@pytest.mark.parametrize("command", ["enumerate-lp", "box-density"])
@pytest.mark.parametrize("gamma", ["0", "-1"])
def test_lp_commands_refuse_gamma_at_most_zero(command, gamma, tmp_path, capsys):
    # L_p is defined for gamma > 0; at gamma <= 0 every a_d != 0 would count as a member
    out = tmp_path / "g"
    assert _run([command, "--d", "2", "--p", "13", "--gamma", gamma, "--cache", "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error_class"]) == (2, "PreconditionError")
    assert "need gamma > 0" in manifest["message"]
    assert capsys.readouterr().err.startswith("invalid configuration: ")
    # refused before the table is built, so no cache file is left behind
    assert [f.name for f in out.rglob("*") if f.is_file()] == ["manifest.json"]


# README commands whose artifacts the Weyl-sum loop must reproduce byte for byte, whatever its
# block size; the last line's dense and dyadic checkpoints span many blocks
_README_STREAM = (
    (["weyl-trace", "--x", "0/5,1/5", "--N-max", "4096"], "weyl_trace.csv",
     "648e8b5ddc84b936e3c8bc42b70f6c8e0796340081d938659ca542371228e7ac"),
    (["mr-scan", "--d", "2", "--count", "100", "--N-max", "100000", "--seed", "11"], "mr_scan.json",
     "28843404c0477886ef0a238ba2de095a4cb990a9c47a38d81b603e75ff4a3e4b"),
    (["sigma-scan", "--d", "2", "--seed", "7", "--N-max", "65536"], "sigma_scan.json",
     "258fe70a2b88fd94f8227baaf17f3a197d6a393626a8d10b1e2e11d4a85ce739"),
    (["exceptional-scan", "--x", "0/5,1/5", "--alpha", "0.6", "--N-max", "10000"], "exceptional_scan.json",
     "f3e34b1f1be48d95c8dd8986001d6aed8374d61340b5c607867ab72fdbcd80b1"),
    # rational points that fold: the first block's checkpoints (every N <= 1000, then 1024 at q = 1453, and
    # 1024..4096 at q = 8093) rounded in numpy, the dyadic N past the period through the int carry
    (["weyl-trace", "--x", "1316/1453,525/1453", "--N-max", "131072"], "weyl_trace.csv",
     "31083604c4482a013df856d968995566bd9365a610ccc4b5239957d43c681f49"),
    (["exceptional-scan", "--x", "4511/8093,5407/8093", "--alpha", "0.7", "--N-max", "131072"], "exceptional_scan.json",
     "94c8ba4e5cb33211fa04a42f067b0b9a185abcb06f1955468d3e8919829d83d7"),
    (["weyl-trace", "--d", "3", "--seed", "5", "--N-max", "300000"], "weyl_trace.csv",
     "8c64ebefe7342636c65ea4a9b90cc96cd49eddaf7a77a00a729fb1502e47854e"),
    # sparse exponents 1, 4, 9: exponent gaps of 3 and 5, each multiplied in by n one unit at a time
    (["weyl-trace", "--d", "3", "--seed", "5", "--m", "1,4,9", "--N-max", "100000"], "weyl_trace.csv",
     "2f272b1339006660cd57f542d7f0aee313641e3c6fcc4e51c8b78765bbbd8d53"),
    # batches of 4096 points of 16 terms, rounded in numpy unless a block's terms need three limbs
    (["measure-estimate", "--d", "2", "--alpha", "0.4", "--i", "16", "--samples", "10000"], "measure_estimate.json",
     "3d6a16f20143406796ff4349a9cc65e9c8004357d1ab26bc1c1b1871c700e65e"),
    (["measure-estimate", "--d", "2", "--alpha", "0.4", "--i", "16", "--samples", "1000000"], "measure_estimate.json",
     "94950b2b76c27e44274744dca1eda8c152a00b29a7c7750e5b4509ccefdae145"),
)


def test_readme_stream_artifacts_are_pinned(tmp_path):
    for i, (argv, name, digest) in enumerate(_README_STREAM):
        out = tmp_path / f"{argv[0]}-{i}"
        assert _run([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, argv


# inputs whose size was once formed or visited before it was compared with a cap: a grid of 10^12
# cells per box, powers p^d and cells^d, a p^-tau below the 2^-64 phase grid, a tau of a large
# denominator, a trial length past the float range and a depth of 10^6 levels; each is refused by its
# size alone, with a short message
_OVERSIZED = (
    (["cantor-dim", "--shrink", "18446744073709551617"], 3),
    (["cantor-dim", "--d", "2", "--cells", "2", "--shrink", "1000000", "--depth", "2"], 3),
    (["amplify", "--d", "2", "--p", "257", "--tau", "10000"], 2),
    (["amplify", "--d", "2", "--p", "257", "--tau", "1000000"], 2),
    (["amplify-mono", "--d", "2", "--p", "5", "--tau", "40"], 2),
    # a tau whose denominator sets the degree of the radius and trial-count roots
    (["amplify", "--d", "2", "--p", "257", "--tau", "3000001/1000000"], 2),
    (["amplify-mono", "--d", "2", "--p", "5", "--tau", "12000001/1000000"], 2),
    (["cantor-build", "--d", "3", "--tau", "4000001/1000000", "--primes", "31", "--depth", "1"], 2),
    (["cantor-dim", "--depth", "1000000"], 3),  # 2^(2 10^6) boxes, refused before the scales
    (["cantor-dim", "--cells", "1", "--depth", "100000"], 3),  # one box, refused by the bits of its scales
    # 2^20 and 2^23 boxes of one coordinate, each read at the depth + 1 grid scales: once past a minute
    (["cantor-dim", "--d", "1", "--cells", "2", "--shrink", "4", "--depth", "20"], 3),
    (["cantor-dim", "--d", "1", "--cells", "2", "--shrink", "4", "--depth", "23"], 3),
    # 2^21 boxes of 8 cells per level, each row with its certificate: once 36 s, then out of memory under 2 GiB
    (["cantor-build", "--d", "3", "--tau", "4", "--primes", "31,37,41,43,47,53,59", "--depth", "7"], 3),
    (["cantor-build", "--d", "3", "--tau", "10000", "--primes", "31", "--depth", "1"], 2),
    (["cantor-build", "--d", "3", "--tau", "1000000", "--primes", "31", "--depth", "1"], 2),
    (["monomial-check", "--d", "1000", "--p", "5"], 3),
    (["monomial-check", "--d", "1000000000000", "--p", "5"], 3),
    (["pattern-demo", "--d", "100000"], 3),
    # 2^64 + 1 unit-step Horner products per term, refused before the first block
    (["discrepancy", "--x", "1/2", "--d", "1", "--N-max", "1024", "--m", "18446744073709551617"], 3),
    (["discrepancy-scan", "--x", "1/2", "--d", "1", "--alpha", "0.5", "--N-max", "1024",
      "--m", "18446744073709551617"], 3),
    # 2^64 + 1 drawn points of 2 words, refused before the first draw
    (["koksma-check", "--count", "18446744073709551617"], 3),
    # rows x N phase words past the cap, refused before they are allocated (once numpy's MemoryError)
    (["discrepancy", "--x", "1/3", "--d", "1", "--N-max", "200000000"], 3),
    (["discrepancy-scan", "--x", "1/3", "--d", "1", "--alpha", "0.5", "--N-max", "60000000"], 3),
    (["koksma-check", "--count", "1", "--N-max", "2147483647"], 3),  # refused before the draw of its N
)

_UNDER_ONE_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from weylsums import cli
sys.exit(cli.run(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds the address space as Linux counts it")
def test_oversized_inputs_are_refused_by_their_size(tmp_path):
    src = str(Path(weylsums.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for i, (argv, code) in enumerate(_OVERSIZED):
        out = tmp_path / str(i)
        proc = subprocess.run([sys.executable, "-c", _UNDER_ONE_GIB, *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == code, (argv, proc.stderr[-2000:])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == code, argv
        assert manifest["error_class"] == {2: "PreconditionError", 3: "ResourceLimitError"}[code], argv
        assert len(manifest["message"]) < 300, (argv, manifest["message"][:300])


def test_cantor_build_takes_gamma_exactly(tmp_path, monkeypatch):
    # the parsed Fraction reaches the trial count unrounded, and a gamma below 2^-32 is not read as 0
    seen = []
    count = cli.ct.plan_trial_count
    monkeypatch.setattr(cli.ct, "plan_trial_count", lambda p, tau, d, gamma: seen.append(gamma) or count(p, tau, d, gamma))
    argv = ["cantor-build", "--d", "3", "--tau", "4", "--primes", "31", "--depth", "1"]
    for i, gamma in enumerate(["999999937/1000000000", "1/10000000000"]):
        assert _run([*argv, "--gamma", gamma, "--out", str(tmp_path / str(i))]) == 0
        summary = json.loads((tmp_path / str(i) / "cantor_summary.json").read_text())
        assert summary["certificates_pass"] and summary["box_count"] == 8
    assert seen == [Fraction(999999937, 10**9), Fraction(1, 10**10)]


_FAULTS_AROUND_RUN = """
import resource, sys
from weylsums import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.run(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults as Linux reports them")
def test_readme_mr_scan_in_a_fresh_process_faults_few_pages(tmp_path):
    # the Weyl-sum loop reuses one workspace for every block of a call and hands it on to the
    # next call, so a fresh process does not fault its arrays in again for every block and point
    src = str(Path(weylsums.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["mr-scan", "--d", "2", "--count", "100", "--N-max", "100000", "--seed", "11"]
    proc = subprocess.run([sys.executable, "-c", _FAULTS_AROUND_RUN, *argv, "--out", str(tmp_path / "mr")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, faults = map(int, proc.stdout.split())
    assert code == 0 and faults <= 5000, faults


def test_write_csv_bytes_equal_csv_writer(tmp_path):
    ints = [1, -7, 2**62 + 1, 0, 5, 6, -(2**63), 11]
    floats = [-0.0, 5e-324, 1e300, 0.1, -2.5, float(2**53 + 1), -1e-300, 1e-320]
    # the column signatures of the weyl-trace, discrepancy, moments and box-moments artifacts
    for signature in ("ifff", "iffff", "iiifff", "iiiifff"):
        for rows in (8, 1, 0):
            columns = [np.roll(np.array(ints if t == "i" else floats), j)[:rows] for j, t in enumerate(signature)]
            header = [f"c{j}" for j in range(len(signature))]
            expect = tmp_path / "expect.csv"
            with expect.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in zip(*(c.tolist() for c in columns)):
                    writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
            cli._write_csv(tmp_path / "got.csv", header, columns)
            assert (tmp_path / "got.csv").read_bytes() == expect.read_bytes(), (signature, rows)
    good = np.array([1.5])
    for bad in (None, np.array(["a,b"]), np.array([True]), np.array([0.5], dtype=np.float32), [1]):
        with pytest.raises(AssertionError):
            cli._write_csv(tmp_path / "bad.csv", ["N", "x"], [np.array([1]), bad])
    for name in ("a,b", 'a"b', "a\nb"):
        with pytest.raises(AssertionError):
            cli._write_csv(tmp_path / "bad.csv", ["N", name], [np.array([1]), good])


def test_write_csv_prints_numpy_numbers_as_python_numbers(tmp_path):
    # an integer column of any width is printed as ints, uint64 past 2^63 too, and float64 as .17g
    columns = [np.array([2**62 + 1]), np.array([0.1]), np.array([2**64 - 1], dtype=np.uint64),
               np.array([3], dtype=np.int8)]
    cli._write_csv(tmp_path / "np.csv", ["a", "b", "c", "d"], columns)
    lines = (tmp_path / "np.csv").read_bytes().split(b"\r\n")
    assert lines == [b"a,b,c,d", b"4611686018427387905,0.10000000000000001,18446744073709551615,3", b""]


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


def test_koksma_check_memory_is_a_few_words_per_point(tmp_path):
    # N-max past CHUNK gives one row per block: its words and pads, plus the CHUNK-sized
    # temporaries of the sum and of the D* slices
    tracemalloc.start()
    try:
        assert _run(["koksma-check", "--count", "4", "--N-max", "200000", "--out", str(tmp_path / "k")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 200000


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
    # one self-verifying file per table: header, digest and the two slices
    cached = list((out / "cache").iterdir())
    assert [f.name for f in cached] == ["table_d2_p13.wslt"]
    assert cached[0].stat().st_size == 52 + 16 * 13


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
