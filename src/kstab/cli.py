"""Command line interface: configuration loading, dispatch, report files.

Commands operate on a JSON test-configuration file and write versioned JSON
reports (exact rationals as "p/q" strings, floats always next to their
stderr) plus a grid CSV for the ray commands.  Exit codes: 0 success, 2
validation error (bad file, bad flags, bad mathematics requested), 3
numeric-diagnostic failure (an estimate failed its own acceptance gate;
the report file is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from pathlib import Path

import numpy as np

from .asymptotics import (
    AsymptoticReport,
    chow_sweep,
    chow_weight_algebraic,
    fit_asymptotics,
    operator_norm_check,
)
from .geometry import Chart, n2_integral
from .polynomials import Polynomial, parse_polynomial
from .rays import (
    SectionFrame,
    build_ray_grid,
    chow_weight_numeric,
    convexity_report,
    geometric_t_grid,
    grid_points,
    ma_mass,
    section_frame,
    slope_report,
    sup_osc_report,
)
from .spectra import TestConfiguration, graded_slice

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_AUTO_PARAMS = ("u", "v", "w")


class ConfigError(ValueError):
    """Input file or flag combination is invalid."""


# -- configuration loading -----------------------------------------------------


def _parse_generator(text: str, variables: tuple[str, ...]) -> Polynomial:
    poly = parse_polynomial(text, variables)
    if poly and poly.homogeneous_degree() is None:
        degrees = sorted({sum(e) for e in poly.terms})
        raise ConfigError(
            f"generator {text!r} is not homogeneous: it mixes degrees "
            + " and ".join(str(d) for d in degrees)
        )
    return poly


def _parse_chart(entry: dict, section: str, index: int) -> Chart:
    if not isinstance(entry, dict):
        raise ConfigError(f"{section}[{index}] must be an object")
    if "law" in entry:
        raise ConfigError(
            f"{section}[{index}]: the 'law' key is not supported; charts are "
            "always sampled from the Fubini-Study law (remove the key)"
        )
    spec = entry.get("chart_vars", 1)
    if isinstance(spec, int):
        if not 1 <= spec <= len(_AUTO_PARAMS):
            raise ConfigError(
                f"{section}[{index}]: chart_vars must be between 1 and "
                f"{len(_AUTO_PARAMS)}"
            )
        params = _AUTO_PARAMS[:spec]
    elif isinstance(spec, list) and all(isinstance(s, str) for s in spec):
        params = tuple(spec)
    else:
        raise ConfigError(
            f"{section}[{index}]: chart_vars must be a count or a name list"
        )
    components = entry.get("components")
    if not isinstance(components, list) or not components:
        raise ConfigError(f"{section}[{index}]: components must be a non-empty list")
    try:
        polys = tuple(parse_polynomial(str(c), params) for c in components)
        return Chart(
            params=params,
            components=polys,
            multiplicity=int(entry.get("multiplicity", 1)),
        )
    except ValueError as exc:
        raise ConfigError(f"{section}[{index}]: {exc}") from exc


def load_configuration(
    path: Path,
) -> tuple[TestConfiguration, list[Chart], list[Chart]]:
    """Parse a configuration file into (configuration, fiber, cycle) parts.

    fiber parametrizes the variety itself (used by the ray commands), cycle
    parametrizes the flat-limit cycle with multiplicities (used by n2 and
    chow --numeric).
    Either may be absent; commands that need them say so.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for key in ("variables", "weights", "generators"):
        if key not in data:
            raise ConfigError(f"{path}: missing required key {key!r}")
    variables = tuple(str(v) for v in data["variables"])
    weights = data["weights"]
    if not isinstance(weights, list) or not all(isinstance(w, int) for w in weights):
        raise ConfigError(f"{path}: weights must be a list of integers")
    generators = tuple(
        _parse_generator(str(g), variables) for g in data["generators"]
    )
    try:
        config = TestConfiguration(
            name=str(data.get("name", Path(path).stem)),
            variables=variables,
            weights=tuple(weights),
            generators=generators,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    fiber = [
        _parse_chart(entry, "fiber", i) for i, entry in enumerate(data.get("fiber", []))
    ]
    cycle = [
        _parse_chart(entry, "cycle", i) for i, entry in enumerate(data.get("cycle", []))
    ]
    for chart in fiber + cycle:
        if chart.ambient_count != len(variables):
            raise ConfigError(
                f"{path}: chart has {chart.ambient_count} components for "
                f"{len(variables)} variables"
            )
    return config, fiber, cycle


# -- serialization helpers -----------------------------------------------------


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        return value
    if isinstance(value, (np.bool_, np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, grid) -> None:
    lines = ["t,point,k,phi,envelope"]
    for j, t in enumerate(grid.t_grid):
        for p, label in enumerate(grid.labels):
            for i, k in enumerate(grid.k_set):
                phi = float(grid.shifted[i, j, p])
                env = float(grid.envelope[j, p])
                lines.append(f"{float(t)!r},{label},{k},{phi!r},{env!r}")
    path.write_text("\n".join(lines) + "\n")


def _mc_fields(result) -> dict:
    return {
        "stderr": result.stderr if np.ndim(result.stderr) == 0 else None,
        "n_samples": result.n_samples,
        "batch_size": result.batch_size,
        "consistency_ok": result.consistency_ok,
        "consistency_ratio": result.consistency_ratio,
    }


# -- command implementations ---------------------------------------------------


@dataclass
class RunConfig:
    """Parsed command line: one command, one configuration file, knobs."""

    command: str
    path: Path
    k_list: tuple[int, ...] | None
    kmax: int | None
    r_list: tuple[int, ...] | None
    t_grid: tuple[float, ...]
    samples: int
    seed: int
    numeric: bool
    out: Path
    tol: dict


@dataclass
class Inputs:
    """A loaded configuration plus what the commands derive from it, each once.

    fiber and cycle are the chart lists of load_configuration.  report runs
    several commands on one Inputs, so they share the asymptotic fit and the
    section frame of each (level, sample count, seed).
    """

    config: TestConfiguration
    fiber: list[Chart]
    cycle: list[Chart]
    frames: dict[tuple[int, int, int], SectionFrame] = field(default_factory=dict)

    @cached_property
    def fit(self) -> AsymptoticReport:
        return fit_asymptotics(self.config)

    def frame(self, k: int, samples: int, seed: int) -> SectionFrame:
        key = (k, samples, seed)
        if key not in self.frames:
            self.frames[key] = section_frame(self.config, self.fiber, k, samples, seed)
        return self.frames[key]


def _basis_strings(config: TestConfiguration) -> list[str]:
    return [g.to_string(config.variables, config.order) for g in config.groebner_basis]


def _cmd_flat_limit(run: RunConfig, inputs: Inputs) -> tuple[dict, int]:
    config = inputs.config
    initial = [
        g.initial_form(config.order).to_string(config.variables, config.order)
        for g in config.groebner_basis
    ]
    return (
        {
            "groebner_basis": _basis_strings(config),
            "initial_ideal": initial,
            "initial_leads": [list(e) for e in config.initial_leads],
        },
        EXIT_OK,
    )


def _cmd_spectrum(run: RunConfig, inputs: Inputs) -> tuple[dict, int]:
    ks = run.k_list or tuple(range(1, (run.kmax or 8) + 1))
    rows = []
    for k in ks:
        sl = graded_slice(inputs.config, k)
        rows.append(
            {
                "k": k,
                "dim": sl.dim,
                "total_weight": sl.total_weight,
                "b_spectrum": list(sl.b_spectrum),
                "a_spectrum": [str(a) for a in sl.a_spectrum],
                "tr_a_sq": sl.tr_a_sq,
                "lambda_min": sl.lambda_min,
                "lambda_next": sl.lambda_next,
            }
        )
    return {"slices": rows}, EXIT_OK


def _futaki_payload(report) -> dict:
    return {
        "n": report.n,
        "a_n": report.a_n,
        "degree": report.degree_volume,
        "hilbert_coeffs": list(report.hilbert_coeffs),
        "weight_coeffs": list(report.weight_coeffs),
        "stability_window": list(report.stability_window),
        "F_0": report.F_0,
        "F_1": report.F_1,
        "n2_sq": report.n2_sq,
        "Lambda": report.Lambda,
        "Gamma": report.Gamma,
        "trivial_action": report.trivial_action,
    }


def _cmd_futaki(run: RunConfig, inputs: Inputs) -> tuple[dict, int]:
    return _futaki_payload(inputs.fit), EXIT_OK


def _cmd_chow(run: RunConfig, inputs: Inputs) -> tuple[dict, int]:
    config, report = inputs.config, inputs.fit
    rs = run.r_list or tuple(range(1, 11))
    sweep = chow_sweep(config, rs, report)
    payload = {
        "F_1": report.F_1,
        "rows": [
            {
                "r": rep.r,
                "mu": rep.mu,
                "c_X_omega": rep.c_X_omega,
                "futaki_residual": rep.futaki_residual,
            }
            for rep in sweep.reports
        ],
        "fitted_C": sweep.fitted_C,
        "decay_ok": sweep.decay_ok,
        "operator_norm": operator_norm_check(config, 30, report),
    }
    code = EXIT_OK
    if run.numeric:
        if not inputs.cycle:
            raise ConfigError(
                "chow --numeric needs a 'cycle' section describing the flat limit"
            )
        payload["numeric"] = []
        for k in run.k_list or (1,):
            numeric = chow_weight_numeric(
                config, inputs.cycle, k, report.n, run.samples, run.seed
            )
            exact = chow_weight_algebraic(config, k, report).mu
            scale = max(abs(float(exact)), 1.0)
            rel = abs(numeric.value - float(exact)) / scale
            ok = rel <= run.tol["chow"] and numeric.consistency_ok
            payload["numeric"].append(
                {
                    "k": k,
                    "value": numeric.value,
                    "stderr": numeric.stderr,
                    "exact_mu": exact,
                    "rel_error": rel,
                    "consistency_ok": numeric.consistency_ok,
                    "pass": ok,
                    "seed": run.seed,
                    "samples": run.samples,
                }
            )
            if not ok:
                code = EXIT_NUMERIC
    return payload, code


def _ambient_lambda(config: TestConfiguration) -> list[float]:
    """k=1 traceless weights in ambient-variable order (the A_1 diagonal)."""
    sl = graded_slice(config, 1)
    lam = []
    for j in range(len(config.variables)):
        unit = tuple(1 if i == j else 0 for i in range(len(config.variables)))
        if unit not in sl.monomials:
            raise ConfigError(
                "a variable is cut out at degree 1; n2 needs the full ambient frame"
            )
        lam.append(float(sl.a_spectrum[sl.monomials.index(unit)]))
    return lam


def _cmd_n2(run: RunConfig, inputs: Inputs) -> tuple[dict, int]:
    if not inputs.cycle:
        raise ConfigError("n2 needs a 'cycle' section describing the flat limit")
    lam = _ambient_lambda(inputs.config)
    result = n2_integral(inputs.cycle, lam, run.samples, run.seed)
    exact = inputs.fit.n2_sq
    scale = abs(float(exact)) or 1.0
    rel = abs(result.value - float(exact)) / scale
    ok = rel <= run.tol["n2"] and result.consistency_ok
    payload = {
        "a_1_diagonal": lam,
        "exact_n2_sq": exact,
        "numeric_n2_sq": result.value,
        "rel_error": rel,
        "pass": ok,
        "seed": run.seed,
        "samples": run.samples,
        "mc": _mc_fields(result),
    }
    return payload, EXIT_OK if ok else EXIT_NUMERIC


def _ray_machinery(run: RunConfig, inputs: Inputs, k_default=(4, 8, 16)):
    """Frames, ray grid and the payload fields ray and envelope share."""
    if not inputs.fiber:
        raise ConfigError(
            f"{run.command} needs a 'fiber' section parametrizing the variety"
        )
    report = inputs.fit
    ks = run.k_list or k_default
    frames = [inputs.frame(k, run.samples, run.seed) for k in ks]
    points = grid_points(inputs.config, inputs.fiber)
    grid = build_ray_grid(
        frames, run.t_grid, points, report.n, float(report.degree_volume)
    )
    payload = {
        "k_set": list(grid.k_set),
        "t_grid": list(grid.t_grid),
        "points": list(grid.labels),
        "c_k": list(grid.c_k),
        "eps_k": list(grid.eps_k),
        "seed": run.seed,
        "samples": run.samples,
    }
    return frames, grid, payload


def _cmd_ray(run: RunConfig, inputs: Inputs) -> tuple[dict, int, object]:
    frames, grid, payload = _ray_machinery(run, inputs)
    slopes = slope_report(grid)
    convexity = convexity_report(grid)
    payload.update(
        gram_consistency_ok=all(f.gram_mc.consistency_ok for f in frames),
        slope_check=slopes,
        convexity_check=convexity,
        sup_osc=sup_osc_report(grid),
    )
    ok = slopes["ok"] and convexity["ok"] and payload["gram_consistency_ok"]
    return payload, EXIT_OK if ok else EXIT_NUMERIC, grid


def _cmd_envelope(run: RunConfig, inputs: Inputs) -> tuple[dict, int, object]:
    ks = run.k_list or (4, 8, 16)
    if len(ks) < 3:
        raise ConfigError("envelope needs at least three levels (pass --k)")
    _, grid, payload = _ray_machinery(run, inputs, ks)
    near = int(np.argmax(np.array(grid.t_grid)))
    ok = grid.strict_decrease and grid.boundary_continuity <= run.tol["boundary"]
    payload.update(
        strict_decrease=grid.strict_decrease,
        boundary_continuity=grid.boundary_continuity,
        boundary_tolerance=run.tol["boundary"],
        attaining_near_boundary=sorted({int(k) for k in grid.attaining[near]}),
    )
    payload["pass"] = ok
    return payload, EXIT_OK if ok else EXIT_NUMERIC, grid


def _cmd_mass(run: RunConfig, inputs: Inputs) -> tuple[dict, int]:
    if not inputs.fiber:
        raise ConfigError("mass needs a 'fiber' section parametrizing the variety")
    ks = run.k_list or tuple(range(2, 13))
    rows = []
    masses = []
    positive = consistent = True
    for k in ks:
        frame = inputs.frame(k, run.samples, run.seed)
        er = ma_mass(inputs.config, inputs.fiber, frame, inputs.fit, run.samples, run.seed)
        rows.append(
            {
                "k": k,
                "edot_zero": er.edot_zero,
                "edot_minus_inf": er.edot_minus_inf,
                "mass": er.mass,
                "mass_stderr": er.mass_stderr,
                "mass_times_k": er.mass_times_k,
                "consistency_ok": er.moment_mc.consistency_ok,
            }
        )
        masses.append(er)
        positive = positive and er.mass >= -5.0 * er.mass_stderr
        consistent = consistent and er.moment_mc.consistency_ok
    scaled = sorted(er.mass_times_k for er in masses)
    median = scaled[len(scaled) // 2]
    bounded = max(scaled) <= 2.0 * max(median, 1e-12) or max(scaled) <= 1e-9
    payload = {
        "rows": rows,
        "max_mass_times_k": max(scaled),
        "median_mass_times_k": median,
        "bounded_ok": bounded,
        "positivity_ok": positive,
        "consistency_ok": consistent,
        "seed": run.seed,
        "samples": run.samples,
    }
    good = positive and consistent and bounded
    return payload, EXIT_OK if good else EXIT_NUMERIC


def _cmd_report(run: RunConfig, inputs: Inputs) -> tuple[dict, int]:
    payload: dict = {}
    code = EXIT_OK
    payload["flat_limit"], _ = _cmd_flat_limit(run, inputs)
    payload["futaki"], _ = _cmd_futaki(run, inputs)
    sub = replace(run, r_list=run.r_list or tuple(range(1, 6)))
    payload["chow"], c = _cmd_chow(sub, inputs)
    code = max(code, c)
    if inputs.cycle:
        payload["n2"], c = _cmd_n2(run, inputs)
        code = max(code, c)
    if inputs.fiber:
        sub = replace(run, k_list=run.k_list or (2, 3, 4, 6))
        payload["mass"], c = _cmd_mass(sub, inputs)
        code = max(code, c)
        sub = replace(run, k_list=run.k_list or (4, 8, 16))
        payload["ray"], c, _ = _cmd_ray(sub, inputs)
        code = max(code, c)
    return payload, code


# command name -> handler(run, inputs) returning (payload, exit code[, ray grid])
HANDLERS = {
    "flat-limit": _cmd_flat_limit,
    "spectrum": _cmd_spectrum,
    "futaki": _cmd_futaki,
    "chow": _cmd_chow,
    "n2": _cmd_n2,
    "ray": _cmd_ray,
    "mass": _cmd_mass,
    "envelope": _cmd_envelope,
    "report": _cmd_report,
}
COMMANDS = tuple(HANDLERS)


# -- argument parsing and dispatch ----------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("levels must be positive integers")
    return values


def _t_grid_spec(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("t-grid must look like -0.1:-40:25")
    try:
        near, far, steps = float(parts[0]), float(parts[1]), int(parts[2])
        return geometric_t_grid(near, far, steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstab",
        description="Exact and numeric invariants of test configurations",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", type=Path, help="configuration JSON file")
    parser.add_argument("--k", type=_int_list, default=None, help="levels, comma separated")
    parser.add_argument("--kmax", type=int, default=None, help="top level for spectrum")
    parser.add_argument("--r", type=_int_list, default=None, help="Chow twists")
    parser.add_argument(
        "--t-grid",
        type=_t_grid_spec,
        default=None,
        help="near:far:steps geometric grid of negative times (default -0.1:-40:25)",
    )
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (echoed in reports)")
    parser.add_argument("--numeric", action="store_true", help="add the sampled Chow cross-check")
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--tol-n2", type=float, default=0.02)
    parser.add_argument("--tol-chow", type=float, default=0.05)
    parser.add_argument("--tol-boundary", type=float, default=0.05)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    run = RunConfig(
        command=args.command,
        path=args.config,
        k_list=args.k,
        kmax=args.kmax,
        r_list=args.r,
        t_grid=args.t_grid or geometric_t_grid(),
        samples=args.samples,
        seed=args.seed,
        numeric=args.numeric,
        out=args.out,
        tol={"n2": args.tol_n2, "chow": args.tol_chow, "boundary": args.tol_boundary},
    )
    try:
        inputs = Inputs(*load_configuration(run.path))
        config = inputs.config
        run.out.mkdir(parents=True, exist_ok=True)
        payload, code, *grid = HANDLERS[run.command](run, inputs)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    payload = {
        "schema": 1,
        "command": run.command,
        "name": config.name,
        "weights": list(config.weights),
        **payload,
    }
    stem = f"{config.name}_{run.command.replace('-', '_')}"
    json_path = run.out / f"{stem}.json"
    _write_json(json_path, payload)
    written = [str(json_path)]
    if grid:
        csv_path = run.out / f"{stem}.csv"
        _write_csv(csv_path, grid[0])
        written.append(str(csv_path))
    status = "ok" if code == EXIT_OK else "DIAGNOSTIC FAILURE"
    print(f"{config.name} {run.command}: {status}; wrote {', '.join(written)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
