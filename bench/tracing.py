"""Spans around kstab's public functions, and the per-layer metrics from them.

Tracing replaces a function at every module binding kstab calls it through
(the defining module, each `from .x import f` copy and the package
namespace), so calls between kstab's own modules are seen, not only the
benchmark's.  Spans (name, start, end, parent, operation) stay in memory
until the run writes them out.  Nothing inside kstab changes.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from typing import Callable

# (module, function) pairs wrapped in a traced round.
TRACED = (
    ("cli", "main"),
    ("cli", "load_configuration"),
    ("cli", "_write_json"),
    ("cli", "_write_csv"),
    ("groebner", "buchberger"),
    ("groebner", "standard_monomials"),
    ("spectra", "graded_slice"),
    ("asymptotics", "fit_asymptotics"),
    ("asymptotics", "newton_power_coefficients"),
    ("asymptotics", "chow_weight_algebraic"),
    ("geometry", "mc_charts"),
    ("geometry", "n2_integral"),
    ("geometry", "gram_matrix"),
    ("geometry", "moment_matrix"),
    ("geometry", "monomial_values"),
    ("geometry", "monomial_jet"),
    ("geometry", "fs_density_values"),
    ("geometry", "equivariant_gram_schmidt"),
    ("rays", "section_frame"),
    ("rays", "ma_mass"),
    ("rays", "grid_points"),
    ("rays", "build_ray_grid"),
    ("rays", "slope_report"),
    ("rays", "convexity_report"),
    ("rays", "sup_osc_report"),
)

# Per-layer metrics: name -> unit.  Values are per round, i.e. per pass over
# the workload's fixed list of operations.
PER_LAYER = {
    "cli.load_s": "s",
    "cli.main_s": "s",
    "cli.write_s": "s",
    "groebner.buchberger_s": "s",
    "groebner.standard_monomials_s": "s",
    "groebner.monomials_scanned": "count",
    "groebner.kept_per_scanned": "ratio",
    "spectra.graded_slice_s": "s",
    "spectra.graded_slice_calls": "count",
    "asymptotics.fit_s": "s",
    "asymptotics.interpolate_s": "s",
    "asymptotics.chow_ladder_s": "s",
    "asymptotics.fit_calls": "count",
    "geometry.mc_s": "s",
    "geometry.mc_samples_per_s": "1/s",
    "geometry.gram_self_s": "s",
    "geometry.moment_self_s": "s",
    "geometry.monomial_values_s": "s",
    "geometry.monomial_jet_s": "s",
    "geometry.fs_density_s": "s",
    "geometry.accum_gflop": "count",
    "geometry.cholesky_s": "s",
    "geometry.n2_s": "s",
    "rays.section_frame_s": "s",
    "rays.ma_mass_s": "s",
    "rays.frames_built": "count",
    "rays.grid_points_s": "s",
    "rays.ray_grid_s": "s",
    "rays.diagnostics_s": "s",
    "trace.overhead_s": "s",
}


def _standard_monomials_counts(args, kwargs, result) -> dict:
    nvars, degree = args[1], args[2]
    return {"scanned": math.comb(nvars + degree - 1, degree), "kept": len(result)}


def _mc_counts(args, kwargs, result) -> dict:
    mc = result[1] if isinstance(result, tuple) else result
    return {"samples": mc.n_samples * len(args[0])}


def _accum_counts(args, kwargs, result) -> dict:
    # one complex rank-B update of a D x D matrix per batch: 8 B D^2 flops
    matrix, mc = result
    d = matrix.shape[0]
    return {"flop": 8 * mc.n_samples * d * d * len(args[0])}


COUNTERS: dict[str, Callable] = {
    "standard_monomials": _standard_monomials_counts,
    "mc_charts": _mc_counts,
    "n2_integral": _mc_counts,
    "gram_matrix": _accum_counts,
    "moment_matrix": _accum_counts,
}


class Tracer:
    """Installs span-recording wrappers into the loaded kstab modules."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.op = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.op, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                spans[idx][5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        for modname, fname in TRACED:
            original = getattr(sys.modules.get(f"{prefix}.{modname}"), fname, None)
            if original is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(fname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "counts": c}
            for n, s, e, p, op, c in self.spans
        ]


def layer_metrics(spans: list[list], rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-round per-layer metrics from recorded spans.

    Inclusive times count only the outermost span of a name, so a function
    reached again beneath itself is not counted twice.  Self time is a
    span's duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def nested_in_same(i: int) -> bool:
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    gram_self = moment_self = 0.0
    for i, (name, start, end, parent, _, c) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if not nested_in_same(i):
            incl[name] = incl.get(name, 0.0) + (end - start)
        for key, value in (c or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        own = (end - start) - child_time[i]
        owner = name if name != "mc_charts" or parent < 0 else spans[parent][0]
        if owner == "gram_matrix":
            gram_self += own
        elif owner == "moment_matrix":
            moment_self += own

    def t(*names: str) -> float:
        return sum(incl.get(n, 0.0) for n in names)

    scanned = counts.get("standard_monomials.scanned", 0)
    samples = counts.get("mc_charts.samples", 0) + counts.get("n2_integral.samples", 0)
    mc_s = t("mc_charts", "n2_integral")
    totals = {
        "cli.load_s": t("load_configuration"),
        "cli.main_s": t("main"),
        "cli.write_s": t("_write_json", "_write_csv"),
        "groebner.buchberger_s": t("buchberger"),
        "groebner.standard_monomials_s": t("standard_monomials"),
        "groebner.monomials_scanned": scanned,
        "spectra.graded_slice_s": t("graded_slice"),
        "spectra.graded_slice_calls": calls.get("graded_slice", 0),
        "asymptotics.fit_s": t("fit_asymptotics"),
        "asymptotics.interpolate_s": t("newton_power_coefficients"),
        "asymptotics.chow_ladder_s": t("chow_weight_algebraic"),
        "asymptotics.fit_calls": calls.get("fit_asymptotics", 0),
        "geometry.mc_s": mc_s,
        "geometry.gram_self_s": gram_self,
        "geometry.moment_self_s": moment_self,
        "geometry.monomial_values_s": t("monomial_values"),
        "geometry.monomial_jet_s": t("monomial_jet"),
        "geometry.fs_density_s": t("fs_density_values"),
        "geometry.accum_gflop": (
            counts.get("gram_matrix.flop", 0) + counts.get("moment_matrix.flop", 0)
        ) / 1e9,
        "geometry.cholesky_s": t("equivariant_gram_schmidt"),
        "geometry.n2_s": t("n2_integral"),
        "rays.section_frame_s": t("section_frame"),
        "rays.ma_mass_s": t("ma_mass"),
        "rays.frames_built": calls.get("section_frame", 0),
        "rays.grid_points_s": t("grid_points"),
        "rays.ray_grid_s": t("build_ray_grid"),
        "rays.diagnostics_s": t("slope_report", "convexity_report", "sup_osc_report"),
    }
    out = {name: value / rounds for name, value in totals.items()}
    # ratios are the same per round as over the run
    out["groebner.kept_per_scanned"] = (
        counts.get("standard_monomials.kept", 0) / scanned if scanned else 0.0
    )
    out["geometry.mc_samples_per_s"] = samples / mc_s if mc_s > 0 else 0.0
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER}
