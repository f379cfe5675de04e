"""Span and counter recorder for the traced run, and the wrappers that feed it.

Wrappers are installed by rebinding module attributes of the seven layer
modules of ``weylsums``: every attribute that holds a public library function,
including names one module imported from another (``frac_array`` in
``weyl_sums`` and ``discrepancy``, ``build_table`` in ``large_values`` and
``cantor``), plus the ``fsum`` bound in ``weyl_sums``.  A span is credited to
the module that defines the function, wherever it was called from.  A span's
self time is its duration minus the time covered by its child spans.

Counts come from job parameters (arguments) and results, never from library
internals, so a function that is removed or retyped only shows up as absent or
as a counted extraction error.
"""

from __future__ import annotations

import functools
import os
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from checks import checkpoint_grid

LAYERS = ("phasecore", "weyl_sums", "complete_sums", "large_values", "discrepancy", "cantor", "cli")

# functions the per-layer metrics are read from; missing ones are reported absent
EXPECTED = {
    "phasecore": ("frac_array", "residue_array", "unit_terms"),
    "weyl_sums": ("weyl_sum", "weyl_sum_trace", "fsum"),
    "complete_sums": ("build_table", "save_table", "load_table", "cached_table", "complete_sum",
                      "monomial_complete_sum", "weil_check", "gauss_magnitude_check",
                      "mordell_moment", "box_moment"),
    "large_values": ("enumerate_Lp", "box_density_check", "minimal_witness_side", "find_anchor",
                     "measure_estimate", "amplification_plan", "amplified_sum_check",
                     "monomial_amplified_check"),
    "discrepancy": ("poly_sequence", "star_discrepancy", "discrepancy_scan", "scan_rows",
                    "koksma_relation_check"),
    "cantor": ("large_sum_cantor",),
    "cli": ("run",),
}

# calls made inside these functions are counted by name (cache hits, anchor tries)
WATCHED = ("complete_sums.load_table", "complete_sums.build_table", "complete_sums.complete_sum")


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if i < len(args) else default


def _members(result) -> int:
    return len(getattr(result, "members", result))


def _count_sum(c, a, kw, r, w):
    c["weyl_sums.sums"] += 1
    c["weyl_sums.terms"] += int(_arg(a, kw, 1, "N"))


def _count_anchor(c, a, kw, r, w):
    c["find_anchor.found"] += 1
    c["find_anchor.tries"] += w["complete_sums.complete_sum"]


def _count_trace(c, a, kw, r, w):
    cps = _arg(a, kw, 1, "checkpoints")
    c["weyl_sums.sums"] += 1
    c["weyl_sums.checkpoints"] += len(cps)
    c["weyl_sums.terms"] += max(cps)


def _count_cached(c, a, kw, r, w):
    if _arg(a, kw, 2, "cache_dir") is not None:
        c["cache.requests"] += 1
        c["cache.hits"] += w["complete_sums.load_table"] > 0
        c["cache.misses"] += w["complete_sums.build_table"] > 0


def _count_dscan(c, a, kw, r, w):
    n_max = _arg(a, kw, 2, "n_max")
    c["discrepancy.points"] += n_max
    c["discrepancy.evaluations"] += len(checkpoint_grid(n_max))


def _count_rows(c, a, kw, r, w):
    n_max = _arg(a, kw, 1, "n_max")
    c["discrepancy.points"] += n_max
    c["discrepancy.evaluations"] += len(checkpoint_grid(n_max))  # D*_N counts via star_discrepancy


def _add(key, value):
    def count(c, a, kw, r, w):
        c[key] += value(a, kw, r)
    return count


COUNTERS = {
    "phasecore.frac_array": _add("frac_array.terms", lambda a, kw, r: len(r)),
    "phasecore.residue_array": _add("residue_array.terms", lambda a, kw, r: len(r)),
    "phasecore.unit_terms": _add("unit_terms.terms", lambda a, kw, r: len(r[0])),
    "weyl_sums.weyl_sum": _count_sum,
    "weyl_sums.weyl_sum_trace": _count_trace,
    "complete_sums.build_table": _add("build_table.entries", lambda a, kw, r: _arg(a, kw, 1, "p") ** _arg(a, kw, 0, "d")),
    "complete_sums.save_table": _add("save_table.bytes", lambda a, kw, r: os.path.getsize(r)),
    "complete_sums.load_table": _add("load_table.bytes", lambda a, kw, r: os.path.getsize(_arg(a, kw, 0, "path"))),
    "complete_sums.cached_table": _count_cached,
    "complete_sums.complete_sum": _add("complete_sum.terms", lambda a, kw, r: _arg(a, kw, 1, "p")),
    "large_values.enumerate_Lp": _add("enumerate_Lp.members", lambda a, kw, r: _members(r)),
    "large_values.box_density_check": _add("witness.box_checks", lambda a, kw, r: 1),
    "large_values.find_anchor": _count_anchor,
    "cantor.large_sum_cantor": _add("cantor.certificates", lambda a, kw, r: len(r.certificates)),
    "discrepancy.poly_sequence": _add("discrepancy.points", lambda a, kw, r: _arg(a, kw, 1, "N")),
    "discrepancy.discrepancy_scan": _count_dscan,
    "discrepancy.scan_rows": _count_rows,
    "discrepancy.star_discrepancy": _add("discrepancy.evaluations", lambda a, kw, r: 1),
    "discrepancy.discrepancy_exact": _add("discrepancy.evaluations", lambda a, kw, r: 1),
}


class Recorder:
    """Spans and counters of one traced pass, all kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (job, span id, parent id, key, start, end)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.job = -1
        self._stack: list[list] = []  # [span id, time covered by children]

    def call(self, key, fn, counter, watch, args, kwargs):
        span = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else -1
        before = tuple(self.calls[k] for k in WATCHED) if watch else None
        frame = [span, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[key] += 1
            self.total[key] += dur
            self.self_time[key] += dur - frame[1]
            self.spans.append((self.job, span, parent, key, start, end))
        if counter is not None:
            delta = dict(zip(WATCHED, (self.calls[k] - b for k, b in zip(WATCHED, before)))) if watch else None
            try:
                counter(self.counts, args, kwargs, result, delta)
            except (TypeError, AttributeError, IndexError, KeyError, ValueError, OSError):
                self.counts["trace.count_errors"] += 1
        return result


class Tracer:
    """Rebinds the layer modules' public functions to recording wrappers."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.absent = sorted(
            f"{layer}.{name}"
            for layer, names in EXPECTED.items()
            for name in names
            if not callable(getattr(modules[layer], name, None))
        )

    def _targets(self):
        """(module, attribute, function, span key) for every attribute to rebind."""
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("weylsums."):
                    owner = obj.__module__.rsplit(".", 1)[-1]
                    if owner in LAYERS:
                        yield mod, attr, obj, f"{owner}.{obj.__name__}"
                elif layer == "weyl_sums" and attr == "fsum" and callable(obj):
                    yield mod, attr, obj, "weyl_sums.fsum"

    @staticmethod
    def _wrap(fn, key, rec: Recorder):
        counter = COUNTERS.get(key)
        watch = key in ("complete_sums.cached_table", "large_values.find_anchor")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call(key, fn, counter, watch, args, kwargs)

        return wrapper

    @contextmanager
    def installed(self, recorder: Recorder):
        """Record into ``recorder`` while the wrappers are bound."""
        wrappers, saved = {}, []
        try:
            for mod, attr, obj, key in list(self._targets()):
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, key, recorder)
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
            yield recorder
        finally:
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)


def pass_metrics(rec: Recorder, job_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    st, calls, cnt = rec.self_time, rec.calls, rec.counts

    def self_of(*keys):
        return sum(st.get(k, 0.0) for k in keys)

    layer_self = defaultdict(float)
    for key, value in st.items():
        layer_self[key.split(".", 1)[0]] += value

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    for layer in LAYERS:
        put(f"{layer}.share", ratio(layer_self[layer], job_s), "ratio")

    for fn in ("frac_array", "residue_array"):
        put(f"{fn}.calls", calls[f"phasecore.{fn}"], "count")
        put(f"{fn}.terms", cnt[f"{fn}.terms"], "count")
        put(f"{fn}.self_s", self_of(f"phasecore.{fn}"), "s")
    put("unit_terms.terms", cnt["unit_terms.terms"], "count")
    put("unit_terms.self_s", self_of("phasecore.unit_terms"), "s")
    kernel_terms = cnt["frac_array.terms"] + cnt["residue_array.terms"]
    put("phasecore.self_s", layer_self["phasecore"], "s")
    put("phasecore.ns_per_term", 1e9 * ratio(layer_self["phasecore"], kernel_terms), "ns")
    # output arrays only: one 8-byte word per phase or residue, cos + sin per term
    put("phasecore.bytes_computed", 8 * kernel_terms + 16 * cnt["unit_terms.terms"], "bytes")

    ws_self = layer_self["weyl_sums"] - self_of("weyl_sums.fsum")
    put("weyl_sums.self_s", ws_self, "s")
    put("weyl_sums.sums", cnt["weyl_sums.sums"], "count")
    put("weyl_sums.terms", cnt["weyl_sums.terms"], "count")
    put("weyl_sums.checkpoints", cnt["weyl_sums.checkpoints"], "count")
    put("fsum.calls", calls["weyl_sums.fsum"], "count")
    put("fsum.self_s", self_of("weyl_sums.fsum"), "s")
    sums_total = rec.total.get("weyl_sums.weyl_sum", 0.0) + rec.total.get("weyl_sums.weyl_sum_trace", 0.0)
    put("weyl_sums.us_per_sum", 1e6 * ratio(sums_total, cnt["weyl_sums.sums"]), "us")

    put("complete_sums.self_s", layer_self["complete_sums"], "s")
    for fn, unit_key, unit in (("build_table", "entries", "count"), ("save_table", "bytes", "bytes"),
                               ("load_table", "bytes", "bytes"), ("complete_sum", "terms", "count")):
        put(f"{fn}.calls", calls[f"complete_sums.{fn}"], "count")
        put(f"{fn}.{unit_key}", cnt[f"{fn}.{unit_key}"], unit)
        put(f"{fn}.self_s", self_of(f"complete_sums.{fn}"), "s")
    put("cache.requests", cnt["cache.requests"], "count")
    put("cache.hits", cnt["cache.hits"], "count")
    put("cache.misses", cnt["cache.misses"], "count")
    put("cache.hit_ratio", ratio(cnt["cache.hits"], cnt["cache.requests"]), "ratio")
    put("checks.self_s", self_of("complete_sums.monomial_complete_sum", "complete_sums.weil_check",
                                 "complete_sums.gauss_magnitude_check"), "s")
    put("moments.self_s", self_of("complete_sums.mordell_moment", "complete_sums.box_moment",
                                  "complete_sums.moment_main_term"), "s")

    put("large_values.self_s", layer_self["large_values"], "s")
    put("enumerate_Lp.calls", calls["large_values.enumerate_Lp"], "count")
    put("enumerate_Lp.members", cnt["enumerate_Lp.members"], "count")
    put("enumerate_Lp.self_s", self_of("large_values.enumerate_Lp"), "s")
    put("witness.box_checks", cnt["witness.box_checks"], "count")
    put("witness.self_s", self_of("large_values.minimal_witness_side", "large_values.box_density_check"), "s")
    put("find_anchor.calls", calls["large_values.find_anchor"], "count")
    put("find_anchor.tries", cnt["find_anchor.tries"], "count")
    put("find_anchor.hit_ratio", ratio(cnt["find_anchor.found"], cnt["find_anchor.tries"]), "ratio")
    put("measure_estimate.self_s", self_of("large_values.measure_estimate"), "s")
    put("amplify.self_s", self_of(*(f"large_values.{f}" for f in (
        "amplification_plan", "plan_trial_count", "neighborhood_point", "radius_units",
        "within_radius", "amplified_sum_check", "monomial_amplified_check"))), "s")

    put("discrepancy.self_s", layer_self["discrepancy"], "s")
    put("discrepancy.points", cnt["discrepancy.points"], "count")
    put("discrepancy.evaluations", cnt["discrepancy.evaluations"], "count")
    put("discrepancy.us_per_point", 1e6 * ratio(layer_self["discrepancy"], cnt["discrepancy.points"]), "us")

    put("cantor.self_s", layer_self["cantor"], "s")
    put("cantor.certificates", cnt["cantor.certificates"], "count")

    put("cli.self_s", layer_self["cli"], "s")
    put("cli.jobs", calls["cli.run"], "count")
    put("cli.bytes_written", bytes_written, "bytes")

    put("trace.job_s", job_s, "s")
    put("trace.coverage", ratio(sum(layer_self.values()), job_s), "ratio")
    # cli.run encloses every job, so its self time takes in whatever no wrapper
    # saw and coverage stays near 1; this share leaves cli out and so drops
    # when work moves into untraced code
    put("trace.library_share", ratio(sum(v for k, v in layer_self.items() if k != "cli"), job_s), "ratio")
    put("trace.spans", len(rec.spans), "count")
    put("trace.count_errors", cnt["trace.count_errors"], "count")
    return m
