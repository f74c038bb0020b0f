"""Command line interface: configuration loading, dispatch, report files.

Commands operate on a JSON test-configuration file and write versioned JSON
reports (exact rationals as "p/q" strings, floats always next to their
stderr) plus a grid CSV for the ray commands.  Each handler returns its
payload and its ledger of Checks (name, statistic, threshold, passed);
main writes the ledger into the report as "checks" and alone maps it to
the exit code.  Exit codes: 0 success, 2 validation error (bad file, bad
flags, bad mathematics requested, reports that cannot be written), 3 some
check failed (the report file is still written, and stdout names the
failed checks).

flat-limit, spectrum, futaki and chow never import NumPy; the sampling
commands (n2, ray, mass, envelope, report, chow --numeric) import the
numeric layer, kstab.geometry and kstab.rays, in their handlers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .asymptotics import (
    AsymptoticReport,
    chow_sweep,
    chow_weight_algebraic,
    fit_asymptotics,
    operator_norm_check,
)
from .groebner import initial_ideal
from .polynomials import NAME, Chart, parse_polynomial
from .spectra import TestConfiguration, graded_slice, top_level

if TYPE_CHECKING:
    from .rays import SectionFrame

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# the engine draws whole batches, and at least two for a stderr: two of
# geometry.BATCH_SIZE, written out so parsing needs no NumPy (test_cli pins it)
MIN_SAMPLES = 8192
# --t-grid times per ray; each adds a row per (point, level) to the CSV
MAX_T_STEPS = 1000
# the ledger's fixed thresholds: relative errors of n2 and chow --numeric
# against the exact values, the envelope's boundary gap, and the depth
# below 0 a second divided difference of phi(t;k) may reach in ray.convexity
N2_TOL = 0.02
CHOW_TOL = 0.05
BOUNDARY_TOL = 0.05
CONVEXITY_TOL = 1e-9
# the levels of ray and envelope without --k
RAY_LEVELS = (4, 8, 16)
_AUTO_PARAMS = ("u", "v", "w")


class ConfigError(ValueError):
    """Input file or flag combination is invalid."""


# -- configuration loading -----------------------------------------------------


def _is_int(value) -> bool:
    """A JSON integer: not a bool (an int subclass), a float or a string."""
    return type(value) is int


def _parse_chart(entry: dict, section: str, index: int) -> Chart:
    if not isinstance(entry, dict):
        raise ConfigError(f"{section}[{index}] must be an object")
    if "law" in entry:
        raise ConfigError(
            f"{section}[{index}]: the 'law' key is not supported; charts are "
            "always sampled from the Fubini-Study law (remove the key)"
        )
    spec = entry.get("chart_vars", 1)
    if _is_int(spec):
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
    multiplicity = entry.get("multiplicity", 1)
    if not _is_int(multiplicity):
        raise ConfigError(f"{section}[{index}]: multiplicity must be an integer")
    try:
        polys = tuple(parse_polynomial(str(c), params) for c in components)
        return Chart(params=params, components=polys, multiplicity=multiplicity)
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
    for key in ("variables", "weights", "generators", "fiber", "cycle"):
        if not isinstance(data.get(key, []), list):
            raise ConfigError(f"{path}: {key} must be a list")
    variables = tuple(data["variables"])
    if not all(isinstance(v, str) and NAME.fullmatch(v) for v in variables):
        raise ConfigError(f"{path}: variables must be JSON strings matching {NAME.pattern}")
    weights = data["weights"]
    if not all(_is_int(w) for w in weights):
        raise ConfigError(f"{path}: weights must be a list of integers")
    name = data.get("name", Path(path).stem)
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(
            f"{path}: name must be a JSON string naming one file, not '.' or '..' "
            "and without '/', '\\' or NUL (it prefixes the report file names)"
        )
    try:
        config = TestConfiguration.from_strings(
            name,
            variables,
            weights,
            tuple(str(g) for g in data["generators"]),
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
    # a fiber chart must lie on X and a cycle chart on X_0; multiplicities are
    # left to the sampled checks of n2 and chow --numeric
    initial = initial_ideal(config.groebner_basis, config.order)
    for section, target, charts, ideal in (
        ("fiber", "variety", fiber, config.generators),
        ("cycle", "flat limit", cycle, initial),
    ):
        for i, chart in enumerate(charts):
            for g in ideal:
                if g.compose(chart.components):
                    raise ConfigError(
                        f"{path}: {section}[{i}] does not lie on the {target}: "
                        f"{g.to_string(variables)!r} does not vanish on it"
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
    if hasattr(value, "tolist"):  # NumPy scalars and arrays
        return _jsonable(value.tolist())
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
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


# -- the ledger of checks --------------------------------------------------------


class Check(NamedTuple):
    """One verdict of a report; main exits 3 when any check has not passed."""

    name: str
    statistic: float
    threshold: float
    passed: bool


def _at_most(name: str, statistic: float, threshold: float) -> Check:
    return Check(name, statistic, threshold, statistic <= threshold)


def _consistency(name: str, result) -> Check:
    """The Monte Carlo quarter-vs-full check: its ratio must stay at most 1."""
    return _at_most(f"{name}.consistency", result.consistency_ratio, 1.0)


# -- command implementations ---------------------------------------------------


@dataclass
class Inputs:
    """A loaded configuration plus what the commands derive from it, each once.

    fiber and cycle are the chart lists of load_configuration; the sampling
    commands take them through charts().  report runs several commands on
    one Inputs, so they share the asymptotic fit and the section frame of
    each (level, sample count, seed).
    """

    config: TestConfiguration
    fiber: list[Chart]
    cycle: list[Chart]
    frames: dict[tuple[int, int, int], SectionFrame] = field(default_factory=dict)

    @cached_property
    def fit(self) -> AsymptoticReport:
        return fit_asymptotics(self.config)

    def charts(self, section: str) -> list[Chart]:
        """The fiber or cycle charts, each of positive volume in dimension n = dim X.

        A chart must have n parameters, and its jet [F; dF/du_1; ...;
        dF/du_n] must reach rank n + 1 at one of three exact points, the
        a-th parameter at (a + 2)^j / ((-1)^a (2j + 1)) for j = 1, 2, 3.  A
        chart that drops rank at all three is taken to drop it everywhere,
        where its Fubini-Study volume is zero.
        """
        charts = getattr(self, section)
        if not charts:
            what = {"fiber": "parametrizing the variety", "cycle": "describing the flat limit"}
            raise ConfigError(f"this command needs a {section!r} section {what[section]}")
        n = self.fit.n
        for i, chart in enumerate(charts):
            if chart.dim != n:
                raise ConfigError(
                    f"{section}[{i}]: its parameter count {chart.dim} is not the "
                    f"dimension n = {n} of the variety"
                )
            rank = max(
                chart.jet_rank([Fraction((a + 2) ** j, (-1) ** a * (2 * j + 1)) for a in range(n)])
                for j in (1, 2, 3)
            )
            if rank <= n:
                raise ConfigError(
                    f"{section}[{i}]: its jet [F; dF] has rank {rank}, not n + 1 = "
                    f"{n + 1}, at every probe point, so it has zero volume"
                )
        return charts

    def frame(self, k: int, samples: int, seed: int) -> SectionFrame:
        from .rays import section_frame

        key = (k, samples, seed)
        if key not in self.frames:
            self.frames[key] = section_frame(self.config, self.fiber, k, samples, seed)
        return self.frames[key]


def _poly_strings(config: TestConfiguration, polys) -> list[str]:
    return [g.to_string(config.variables, config.order) for g in polys]


def _cmd_flat_limit(run: argparse.Namespace, inputs: Inputs) -> tuple[dict, list[Check]]:
    config = inputs.config
    basis = config.groebner_basis
    return (
        {
            "groebner_basis": _poly_strings(config, basis),
            "initial_ideal": _poly_strings(config, initial_ideal(basis, config.order)),
            "initial_leads": [list(e) for e in config.initial_leads],
        },
        [],
    )


def _cmd_spectrum(run: argparse.Namespace, inputs: Inputs) -> tuple[dict, list[Check]]:
    ks = run.k or tuple(range(1, 9))
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
    return {"slices": rows}, []


def _cmd_futaki(run: argparse.Namespace, inputs: Inputs) -> tuple[dict, list[Check]]:
    report = inputs.fit
    payload = {
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
    return payload, []


def _cmd_chow(run: argparse.Namespace, inputs: Inputs) -> tuple[dict, list[Check]]:
    config, report = inputs.config, inputs.fit
    rs = run.r or tuple(range(1, 11))
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
        "operator_norm": operator_norm_check(
            config, min(30, top_level(len(config.variables))), report
        ),
    }
    checks = []
    if run.numeric:
        cycle = inputs.charts("cycle")
        from .rays import chow_weight_numeric

        payload["numeric"] = []
        for k in run.k or (1,):
            numeric = chow_weight_numeric(
                config, cycle, k, report.n, run.samples, run.seed
            )
            exact = chow_weight_algebraic(config, k, report).mu
            scale = max(abs(float(exact)), 1.0)
            rel = abs(numeric.value - float(exact)) / scale
            payload["numeric"].append(
                {
                    "k": k,
                    "value": numeric.value,
                    "stderr": numeric.stderr,
                    "exact_mu": exact,
                    "rel_error": rel,
                    "seed": run.seed,
                    "samples": run.samples,
                }
            )
            name = f"chow.numeric[k={k}]"
            checks += [
                _at_most(f"{name}.rel_error", rel, CHOW_TOL),
                _consistency(name, numeric),
            ]
    return payload, checks


def _cmd_n2(run: argparse.Namespace, inputs: Inputs) -> tuple[dict, list[Check]]:
    cycle = inputs.charts("cycle")
    from .geometry import n2_integral

    sl = graded_slice(inputs.config, 1)
    lam = [float(a) for a in sl.a_spectrum]
    result = n2_integral(cycle, sl.monomials, lam, run.samples, run.seed)
    exact = inputs.fit.n2_sq
    scale = abs(float(exact)) or 1.0
    rel = abs(result.value - float(exact)) / scale
    checks = [_at_most("n2.rel_error", rel, N2_TOL), _consistency("n2", result)]
    payload = {
        "a_1_diagonal": lam,
        "exact_n2_sq": exact,
        "numeric_n2_sq": result.value,
        "rel_error": rel,
        "pass": all(c.passed for c in checks),
        "seed": run.seed,
        "samples": run.samples,
        "mc": {
            "stderr": result.stderr,
            "n_samples": result.n_samples,
            "batch_size": result.batch_size,
            "consistency_ratio": result.consistency_ratio,
        },
    }
    return payload, checks


def _ray_machinery(run: argparse.Namespace, inputs: Inputs):
    """Frames, ray grid and the payload fields ray and envelope share."""
    fiber = inputs.charts("fiber")
    from .rays import build_ray_grid, grid_points

    report = inputs.fit
    ks = run.k or RAY_LEVELS
    frames = [inputs.frame(k, run.samples, run.seed) for k in ks]
    points = grid_points(inputs.config, fiber)
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


def _cmd_ray(run: argparse.Namespace, inputs: Inputs) -> tuple[dict, list[Check], object]:
    from .rays import convexity_report, slope_report, sup_osc_report

    frames, grid, payload = _ray_machinery(run, inputs)
    max_excess = slope_report(grid)
    min_gap = convexity_report(grid)
    gram = [_consistency(f"ray.gram[k={f.k}]", f.gram_mc) for f in frames]
    slope = _at_most("ray.slope", max_excess, 0.0)
    convexity = _at_most("ray.convexity", -min_gap, CONVEXITY_TOL)
    payload.update(
        gram_consistency_ok=all(c.passed for c in gram),
        slope_check={"max_excess": max_excess, "ok": slope.passed},
        convexity_check={"min_gap": min_gap, "ok": convexity.passed},
        sup_osc=sup_osc_report(grid),
    )
    return payload, gram + [slope, convexity], grid


def _cmd_envelope(run: argparse.Namespace, inputs: Inputs) -> tuple[dict, list[Check], object]:
    if len(run.k or RAY_LEVELS) < 3:
        raise ConfigError("envelope needs at least three levels (pass --k)")
    _, grid, payload = _ray_machinery(run, inputs)
    near = grid.t_grid.index(max(grid.t_grid))
    payload.update(
        boundary_continuity=grid.boundary_continuity,
        attaining_near_boundary=sorted({int(k) for k in grid.attaining[near]}),
    )
    checks = [
        Check("envelope.strict_decrease", -grid.least_step, 0.0, grid.strict_decrease),
        _at_most("envelope.boundary_continuity", grid.boundary_continuity, BOUNDARY_TOL),
    ]
    return payload, checks, grid


def _cmd_mass(run: argparse.Namespace, inputs: Inputs) -> tuple[dict, list[Check]]:
    fiber = inputs.charts("fiber")
    from .rays import ma_mass

    ks = run.k or tuple(range(2, 13))
    rows = []
    checks = []
    for k in ks:
        frame = inputs.frame(k, run.samples, run.seed)
        er = ma_mass(inputs.config, fiber, frame, inputs.fit, run.samples, run.seed)
        consistency = _consistency(f"mass[k={k}]", er.moment_mc)
        rows.append(
            {
                "k": k,
                "edot_zero": er.edot_zero,
                "edot_minus_inf": er.edot_minus_inf,
                "mass": er.mass,
                "mass_stderr": er.mass_stderr,
                "mass_times_k": er.mass_times_k,
                "consistency_ok": consistency.passed,
            }
        )
        checks += [
            consistency,
            _at_most(f"mass[k={k}].positivity", -er.mass, 5.0 * er.mass_stderr),
        ]
    scaled = sorted(row["mass_times_k"] for row in rows)
    median = scaled[len(scaled) // 2]
    bounded = _at_most("mass.bounded", max(scaled), max(2.0 * max(median, 1e-12), 1e-9))
    payload = {
        "rows": rows,
        "max_mass_times_k": max(scaled),
        "median_mass_times_k": median,
        "bounded_ok": bounded.passed,
        "seed": run.seed,
        "samples": run.samples,
    }
    return payload, checks + [bounded]


def _cmd_report(run: argparse.Namespace, inputs: Inputs) -> tuple[dict, list[Check]]:
    """The exact commands plus chow, n2, mass and ray; their checks concatenated."""
    payload: dict = {}
    payload["flat_limit"], _ = _cmd_flat_limit(run, inputs)
    payload["futaki"], _ = _cmd_futaki(run, inputs)
    sub = argparse.Namespace(**{**vars(run), "r": run.r or tuple(range(1, 6))})
    payload["chow"], checks = _cmd_chow(sub, inputs)
    if inputs.cycle:
        payload["n2"], c = _cmd_n2(run, inputs)
        checks += c
    if inputs.fiber:
        sub = argparse.Namespace(**{**vars(run), "k": run.k or (2, 3, 4, 6)})
        payload["mass"], c = _cmd_mass(sub, inputs)
        checks += c
        payload["ray"], c, _ = _cmd_ray(run, inputs)
        checks += c
    return payload, checks


# command name -> handler(run, inputs) returning (payload, checks[, ray grid])
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


def _int_at_least(floor: int):
    """argparse type: an integer of at least floor."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(_positive_int(part) for part in text.split(",") if part)
    if not values:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    return values


def geometric_t_grid(t_near: float = -0.1, t_far: float = -40.0, steps: int = 25) -> tuple[float, ...]:
    """Geometrically spaced negative times from t_near toward t_far."""
    if not (t_far < t_near < 0 and math.isfinite(t_far / t_near)):
        raise ValueError(f"need finite times t_far < t_near < 0, got {t_near}:{t_far}")
    if steps < 2:
        raise ValueError("need at least two grid times")
    ratio = (t_far / t_near) ** (1.0 / (steps - 1))
    return tuple(t_near * ratio**i for i in range(steps))


def _t_grid_spec(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("t-grid must look like -0.1:-40:25")
    try:
        near, far, steps = float(parts[0]), float(parts[1]), int(parts[2])
        if steps > MAX_T_STEPS:
            raise ValueError(f"steps must be at most {MAX_T_STEPS}, got {steps}")
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
    parser.add_argument("--r", type=_int_list, default=None, help="Chow twists")
    parser.add_argument(
        "--t-grid",
        type=_t_grid_spec,
        default=geometric_t_grid(),
        help="near:far:steps geometric grid of negative times (default -0.1:-40:25)",
    )
    parser.add_argument("--samples", type=_int_at_least(MIN_SAMPLES), default=100_000)
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (echoed in reports)")
    parser.add_argument("--numeric", action="store_true", help="add the sampled Chow cross-check")
    parser.add_argument("--out", type=Path, default=Path("."))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        run = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    unwritable = f"cannot write reports to {run.out}"
    try:
        inputs = Inputs(*load_configuration(run.config))
        config = inputs.config
        try:
            run.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{unwritable}: {exc}") from exc
        payload, checks, *grid = HANDLERS[run.command](run, inputs)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    payload = {
        "schema": 1,
        "command": run.command,
        "name": config.name,
        "weights": list(config.weights),
        **payload,
        "checks": [check._asdict() for check in checks],
    }
    stem = f"{config.name}_{run.command.replace('-', '_')}"
    json_path = run.out / f"{stem}.json"
    written = [str(json_path)]
    try:
        _write_json(json_path, payload)
        if grid:
            csv_path = run.out / f"{stem}.csv"
            _write_csv(csv_path, grid[0])
            written.append(str(csv_path))
    except OSError as exc:
        print(f"error: {unwritable}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    failed = [check.name for check in checks if not check.passed]
    status = f"failed {', '.join(failed)}" if failed else "ok"
    print(f"{config.name} {run.command}: {status}; wrote {', '.join(written)}")
    return EXIT_NUMERIC if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
