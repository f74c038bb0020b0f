"""Command line driver: exit codes, report files, determinism, diagnostics."""

import argparse
import dataclasses
import json
import subprocess
import sys
import time

import pytest

import kstab
from kstab import cli, geometry, rays, spectra
from kstab.cli import main

from conftest import config_path

DL = str(config_path("conic_double_line"))
TL = str(config_path("conic_two_lines"))
TRIVIAL = str(config_path("trivial_p1"))


def run(args, out):
    return main(args + ["--out", str(out)])


def load(out, stem):
    return json.loads((out / f"{stem}.json").read_text())


def failed(payload):
    return [check["name"] for check in payload["checks"] if not check["passed"]]


def check_names(payload):
    return [check["name"] for check in payload["checks"]]


# -- happy paths -------------------------------------------------------------------


def test_flat_limit_payload(tmp_path):
    assert run(["flat-limit", DL], tmp_path) == 0
    payload = load(tmp_path, "conic_double_line_flat_limit")
    assert payload["schema"] == 1
    assert payload["command"] == "flat-limit"
    assert payload["weights"] == [0, 0, 1]
    assert payload["initial_ideal"] == ["y^2"]
    assert payload["initial_leads"] == [[0, 2, 0]]


def test_twisted_cubic_reduces_its_s_pairs(tmp_path):
    # three generators, so Buchberger reduces S-pairs; the parts printed here
    # pin the flat limit and the exact invariants
    path = tmp_path / "cubic.json"
    path.write_text(
        json.dumps(
            {
                "name": "twisted_cubic",
                "variables": ["x", "y", "z", "w"],
                "weights": [0, 0, 1, 3],
                "generators": ["x*z - y^2", "y*w - z^2", "x*w - y*z"],
            }
        )
    )
    assert run(["flat-limit", str(path)], tmp_path) == 0
    assert load(tmp_path, "twisted_cubic_flat_limit")["initial_ideal"] == [
        "y^2",
        "y*z",
        "z^2",
    ]
    assert run(["futaki", str(path)], tmp_path) == 0
    payload = load(tmp_path, "twisted_cubic_futaki")
    assert payload["F_1"] == "-2/3"
    assert payload["n2_sq"] == "9/4"


def test_spectrum_payload(tmp_path):
    assert run(["spectrum", DL, "--k", "1,2,3,4"], tmp_path) == 0
    payload = load(tmp_path, "conic_double_line_spectrum")
    slices = payload["slices"]
    assert [s["k"] for s in slices] == [1, 2, 3, 4]
    assert slices[0]["b_spectrum"] == [0, 0, 1]
    assert slices[0]["a_spectrum"] == ["-1/3", "-1/3", "2/3"]
    assert slices[3]["dim"] == 9


def test_futaki_payload_exact_strings(tmp_path):
    assert run(["futaki", DL], tmp_path) == 0
    payload = load(tmp_path, "conic_double_line_futaki")
    assert payload["F_0"] == "1/2"
    assert payload["F_1"] == "-1/4"
    assert payload["n2_sq"] == "1/6"
    assert payload["Lambda"] == "-1/2"
    assert payload["trivial_action"] is False
    assert "lambda_exact" not in payload and "lambda_empirical" not in payload


def test_chow_payload(tmp_path):
    assert run(["chow", TL, "--r", "1,2,3"], tmp_path) == 0
    payload = load(tmp_path, "conic_two_lines_chow")
    assert payload["decay_ok"] is True
    assert [row["r"] for row in payload["rows"]] == [1, 2, 3]
    assert payload["rows"][0]["mu"] == "1/3"
    assert payload["operator_norm"]["pass"] is True


def test_chow_numeric_runs_every_level(tmp_path):
    code = run(["chow", DL, "--numeric", "--k", "1,2", "--samples", "8192"], tmp_path)
    payload = load(tmp_path, "conic_double_line_chow")
    rows = payload["numeric"]
    assert [row["k"] for row in rows] == [1, 2]
    assert [row["exact_mu"] for row in rows] == ["2/3", "8/5"]
    assert check_names(payload) == [
        "chow.numeric[k=1].rel_error",
        "chow.numeric[k=1].consistency",
        "chow.numeric[k=2].rel_error",
        "chow.numeric[k=2].consistency",
    ]
    # the exit code is 3 exactly when some level fails a check
    assert code == (3 if failed(payload) else 0)


@pytest.mark.parametrize(
    "name", ["conic_double_line", "conic_two_lines", "product_p1", "trivial_p1"]
)
def test_chow_numeric_passes_with_default_flags(tmp_path, name):
    assert run(["chow", str(config_path(name)), "--numeric"], tmp_path) == 0
    payload = load(tmp_path, f"{name}_chow")
    (row,) = payload["numeric"]
    assert sorted(row) == ["exact_mu", "k", "rel_error", "samples", "seed", "stderr", "value"]
    rel_error, consistency = payload["checks"]
    assert rel_error == {
        "name": "chow.numeric[k=1].rel_error",
        "statistic": row["rel_error"],
        "threshold": 0.05,
        "passed": True,
    }
    assert consistency["name"] == "chow.numeric[k=1].consistency"
    assert consistency["threshold"] == 1.0 and consistency["passed"] is True


def test_n2_cross_check(tmp_path):
    assert run(["n2", DL, "--samples", "20000", "--seed", "3"], tmp_path) == 0
    payload = load(tmp_path, "conic_double_line_n2")
    assert payload["exact_n2_sq"] == "1/6"
    assert payload["pass"] is True
    assert payload["rel_error"] <= 0.02
    assert check_names(payload) == ["n2.rel_error", "n2.consistency"]
    assert failed(payload) == []
    assert "consistency_ok" not in payload["mc"]
    assert payload["seed"] == 3
    assert payload["samples"] == 20000


def test_mass_payload(tmp_path):
    code = run(["mass", DL, "--k", "2,3", "--samples", "20000"], tmp_path)
    payload = load(tmp_path, "conic_double_line_mass")
    assert code == 0
    assert check_names(payload) == [
        "mass[k=2].consistency",
        "mass[k=2].positivity",
        "mass[k=3].consistency",
        "mass[k=3].positivity",
        "mass.bounded",
    ]
    assert failed(payload) == []
    assert payload["bounded_ok"] is True
    assert "positivity_ok" not in payload and "consistency_ok" not in payload
    assert [row["k"] for row in payload["rows"]] == [2, 3]


def test_mass_consistency_failure_is_not_a_positivity_failure(tmp_path, monkeypatch):
    real = rays.ma_masses

    def inconsistent(*args):
        return [
            dataclasses.replace(
                er, moment_mc=dataclasses.replace(er.moment_mc, consistency_ratio=2.0)
            )
            for er in real(*args)
        ]

    monkeypatch.setattr(rays, "ma_masses", inconsistent)
    code = run(["mass", DL, "--k", "2,3", "--samples", "20000"], tmp_path)
    payload = load(tmp_path, "conic_double_line_mass")
    assert code == 3
    assert failed(payload) == ["mass[k=2].consistency", "mass[k=3].consistency"]
    assert [row["consistency_ok"] for row in payload["rows"]] == [False, False]


def test_ray_writes_json_and_csv(tmp_path):
    # values starting with a dash use the --flag=value form
    code = run(
        ["ray", DL, "--k", "2,4", "--samples", "10000", "--t-grid=-0.5:-30:8"],
        tmp_path,
    )
    assert code == 0
    csv_path = tmp_path / "conic_double_line_ray.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,point,k,phi,envelope"
    # grid rows: 8 times x 8 points x 2 levels
    assert len(lines) == 1 + 8 * 8 * 2
    payload = load(tmp_path, "conic_double_line_ray")
    assert payload["k_set"] == [2, 4]
    assert payload["slope_check"]["ok"] is True
    assert payload["convexity_check"]["ok"] is True
    # phi is phi(t;k) itself; the envelope is taken over phi + c_k - eps_k t
    inputs = cli.Inputs(*cli.load_configuration(DL))
    grid = rays.build_ray_grid(
        inputs.frames_at((2, 4), 10000, 0),
        cli.geometric_t_grid(-0.5, -30.0, 8),
        rays.grid_points(inputs.config, inputs.fiber),
        inputs.fit.n,
        float(inputs.fit.degree_volume),
    )
    rows = [line.split(",") for line in lines[1:]]
    phi = [float(row[3]) for row in rows]  # rows run over t, then point, then k
    assert phi == grid.phi.transpose(1, 2, 0).ravel().tolist()
    assert [float(row[4]) for row in rows] == grid.envelope.repeat(2).tolist()
    assert (payload["c_k"], payload["eps_k"]) == (list(grid.c_k), list(grid.eps_k))


def test_ray_accepts_high_levels(tmp_path):
    # the pivot test is per-vector relative, so a badly scaled but well
    # conditioned high-level Gram matrix is not rejected as singular
    code = run(["ray", DL, "--k", "8,16,24", "--samples", "8192"], tmp_path)
    assert code != 2
    assert load(tmp_path, "conic_double_line_ray")["k_set"] == [8, 16, 24]


def test_outputs_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["ray", DL, "--k", "2,3", "--samples", "8192", "--seed", "9"]
    assert run(list(args), a) == 0
    assert run(list(args), b) == 0
    for name in ("conic_double_line_ray.json", "conic_double_line_ray.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_envelope_reports_honest_boundary_failure(tmp_path):
    # the three-level envelope keeps its boundary gap near 0.5, so the
    # command exits with the numeric-diagnostic code and writes the report
    code = run(["envelope", DL, "--samples", "20000"], tmp_path)
    assert code == 3
    payload = load(tmp_path, "conic_double_line_envelope")
    strict, boundary = payload["checks"]
    assert strict["name"] == "envelope.strict_decrease"
    # minus the least step of phi(0;k) + c_k down the ladder
    assert strict["statistic"] < strict["threshold"] == 0.0
    assert strict["passed"] is True
    assert failed(payload) == ["envelope.boundary_continuity"]
    assert boundary["statistic"] == payload["boundary_continuity"]
    assert boundary["statistic"] > boundary["threshold"] == 0.05
    assert payload["attaining_near_boundary"] == [4]


def test_report_command_trivial(tmp_path):
    code = run(["report", TRIVIAL, "--samples", "10000"], tmp_path)
    assert code == 0
    payload = load(tmp_path, "trivial_p1_report")
    assert payload["futaki"]["F_1"] == "0"
    assert payload["futaki"]["trivial_action"] is True
    assert payload["n2"]["pass"] is True
    assert failed(payload) == []


def _patched(module, name, change):
    """monkeypatch.setattr arguments wrapping module.name so change edits each result."""
    real = getattr(module, name)
    return module, name, lambda *args: change(real(*args))


def _patched_ladder(module, name, change):
    """_patched for a ladder form: change edits the result of each level."""
    real = getattr(module, name)
    return module, name, lambda *args: [change(result) for result in real(*args)]


def _inconsistent(result):
    return dataclasses.replace(result, consistency_ratio=2.0)


def _at_level(k, **changes):
    """Replace fields of the results whose level is k; leave the others alone."""
    return lambda result: dataclasses.replace(result, **changes) if result.k == k else result


def _mc_at_level(k, field):
    return lambda result: (
        dataclasses.replace(result, **{field: _inconsistent(getattr(result, field))})
        if result.k == k
        else result
    )


MASS = ["mass", DL, "--k", "2,3,4", "--samples", "20000"]
RAY = ["ray", DL, "--k", "2,4", "--samples", "10000", "--t-grid=-0.5:-30:8"]
ENVELOPE = ["envelope", DL, "--k", "2,3,4", "--samples", "10000"]
N2 = ["n2", DL, "--samples", "8192"]
CHOW = ["chow", DL, "--numeric", "--samples", "8192"]
# each case makes one check fail alone, by a zero threshold or a patched
# statistic; unpatched, each of these runs passes every check
FAULTS = {
    "n2.rel_error": (N2, [(cli, "N2_TOL", 0.0)]),
    "n2.consistency": (N2, [_patched(geometry, "n2_integral", _inconsistent)]),
    "chow.numeric[k=1].rel_error": (CHOW, [(cli, "CHOW_TOL", 0.0)]),
    "chow.numeric[k=1].consistency": (
        CHOW,
        [_patched_ladder(rays, "chow_weights_numeric", _inconsistent)],
    ),
    "mass[k=3].consistency": (MASS, [_patched_ladder(rays, "ma_masses", _mc_at_level(3, "moment_mc"))]),
    "mass[k=3].positivity": (MASS, [_patched_ladder(rays, "ma_masses", _at_level(3, mass=-1.0))]),
    "mass.bounded": (MASS, [_patched_ladder(rays, "ma_masses", _at_level(3, mass_times_k=1e3))]),
    "ray.gram[k=4].consistency": (
        RAY,
        [_patched_ladder(rays, "section_frames", _mc_at_level(4, "gram_mc"))],
    ),
    "ray.slope": (RAY, [(rays, "slope_report", lambda grid: 1.0)]),
    "ray.convexity": (RAY, [(rays, "convexity_report", lambda grid: -1.0)]),
    "envelope.boundary_continuity": (ENVELOPE, [(cli, "BOUNDARY_TOL", 0.0)]),
    "envelope.strict_decrease": (
        ENVELOPE,
        [
            (cli, "BOUNDARY_TOL", 10.0),
            _patched(
                rays,
                "build_ray_grid",
                lambda grid: dataclasses.replace(grid, least_step=-1.0, strict_decrease=False),
            ),
        ],
    ),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_each_check_fails_alone_and_is_named(tmp_path, capsys, monkeypatch, name):
    args, patches = FAULTS[name]
    for patch in patches:
        monkeypatch.setattr(*patch)
    assert run(args, tmp_path) == 3
    (report,) = tmp_path.glob("*.json")
    payload = json.loads(report.read_text())
    assert failed(payload) == [name]
    assert f": failed {name}; wrote " in capsys.readouterr().out


def test_report_checks_are_its_subcommands_checks(tmp_path):
    run_args = cli.build_parser().parse_args(
        ["report", DL, "--numeric", "--samples", "8192", "--out", str(tmp_path)]
    )
    inputs = cli.Inputs(*cli.load_configuration(run_args.config))

    def sub(**changes):
        return argparse.Namespace(**{**vars(run_args), **changes})

    _, checks = cli._cmd_report(run_args, inputs)
    assert checks == (
        cli._cmd_chow(sub(r=(1, 2, 3, 4, 5)), inputs)[1]
        + cli._cmd_n2(run_args, inputs)[1]
        + cli._cmd_mass(sub(k=(2, 3, 4, 6)), inputs)[1]
        + cli._cmd_ray(sub(k=(4, 8, 16)), inputs)[1]
    )
    assert [c.name for c in checks][:4] == [
        "chow.numeric[k=1].rel_error",
        "chow.numeric[k=1].consistency",
        "n2.rel_error",
        "n2.consistency",
    ]
    assert [c.name for c in checks][-5:] == [
        "ray.gram[k=4].consistency",
        "ray.gram[k=8].consistency",
        "ray.gram[k=16].consistency",
        "ray.slope",
        "ray.convexity",
    ]
    # main writes the same ledger into the report
    assert cli.main(["report", DL, "--numeric", "--samples", "8192", "--out", str(tmp_path)]) == 0
    assert load(tmp_path, "conic_double_line_report")["checks"] == [
        json.loads(json.dumps(c._asdict())) for c in checks
    ]


@pytest.mark.parametrize("command", ["flat-limit", "spectrum", "futaki", "chow"])
def test_exact_commands_write_an_empty_ledger(tmp_path, command):
    assert run([command, DL], tmp_path) == 0
    assert load(tmp_path, f"conic_double_line_{command.replace('-', '_')}")["checks"] == []


def test_report_builds_each_frame_and_the_fit_once(tmp_path, monkeypatch):
    levels = []
    fits = []

    def counted(real, log):
        def wrapper(*args, **kwargs):
            log.append(args)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(rays, "section_frames", counted(rays.section_frames, levels))
    monkeypatch.setattr(cli, "fit_asymptotics", counted(cli.fit_asymptotics, fits))
    run(["report", DL, "--samples", "8192"], tmp_path)
    # mass uses levels 2, 3, 4, 6 and the ray 4, 8, 16: one Gram pass builds
    # their union, level 4 once
    assert [list(args[2]) for args in levels] == [[2, 3, 4, 6, 8, 16]]
    assert len(fits) == 1
    payload = load(tmp_path, "conic_double_line_report")
    assert [row["k"] for row in payload["mass"]["rows"]] == [2, 3, 4, 6]
    assert payload["ray"]["k_set"] == [4, 8, 16]


def test_report_draws_once_per_batch_for_all_its_levels(tmp_path, monkeypatch):
    # two batches each for one Gram pass (levels 2, 3, 4, 6, 8, 16), one
    # moment pass (2, 3, 4, 6) and n2; a draw per level and pass makes 22
    draws = []
    real = geometry._draw_batch

    def counted(*args):
        draws.append(args[1:])
        return real(*args)

    monkeypatch.setattr(geometry, "_draw_batch", counted)
    run(["report", DL, "--samples", "8192"], tmp_path)
    assert len(draws) == 6


def test_mass_row_does_not_depend_on_the_other_levels(tmp_path):
    rows = {}
    for levels in ("2,3,4,6", "4"):
        run(["mass", DL, "--k", levels, "--samples", "8192"], tmp_path / levels)
        payload = load(tmp_path / levels, "conic_double_line_mass")
        rows[levels] = next(row for row in payload["rows"] if row["k"] == 4)
    assert rows["2,3,4,6"] == rows["4"]


@pytest.mark.parametrize(
    "args, flag, value",
    [
        (["mass", DL, "--k", "4,4"], "--k", 4),
        (["chow", DL, "--numeric", "--k", "2,2"], "--k", 2),
        (["ray", DL, "--k", "4,4,8"], "--k", 4),
        (["chow", DL, "--r", "1,3,1"], "--r", 1),
    ],
)
def test_repeated_levels_are_a_flag_error(tmp_path, capsys, args, flag, value):
    assert run(args + ["--samples", "8192"], tmp_path) == 2
    assert f"argument {flag}: {value} is repeated in " in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_report_builds_each_slice_once(tmp_path, monkeypatch):
    built = []
    real = spectra._next_level

    def counted(config, below):
        sl = real(config, below)
        built.append((config, sl.k))
        return sl

    spectra._levels.cache_clear()
    monkeypatch.setattr(spectra, "_next_level", counted)
    run(["report", DL, "--samples", "8192"], tmp_path)
    # the fit, the Chow sweep, the operator-norm check and the frames share
    # one cache: levels 1..30 of the one configuration, each built once
    assert len(set(built)) == len(built) == 30
    assert [k for _, k in built] == list(range(1, 31))


def test_seed_echoed(tmp_path):
    assert run(["n2", DL, "--samples", "8192", "--seed", "5"], tmp_path) == 0
    assert load(tmp_path, "conic_double_line_n2")["seed"] == 5


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "kstab.cli",
            "spectrum",
            DL,
            "--k",
            "1,2",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "spectrum" in proc.stdout


def test_import_leaves_scipy_unloaded():
    # NumPy is imported only by the functions that sample, and SciPy by none
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, kstab, kstab.cli; print('scipy' in sys.modules, 'numpy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


BUNDLED = ("conic_double_line", "conic_two_lines", "product_p1", "trivial_p1")
# runs each command on every bundled config in one interpreter, then prints
# the exit codes and which numeric libraries that interpreter has loaded
IMPORT_PROBE = """
import sys
from kstab.cli import main
command, out, *extra = sys.argv[1:]
codes = [main([command, path, "--out", out, *extra]) for path in sys.stdin.read().split()]
print(codes, "numpy" in sys.modules, "scipy" in sys.modules)
"""


def _probe_imports(command, tmp_path, *extra, names=BUNDLED):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, command, str(tmp_path), *extra],
        input="\n".join(str(config_path(name)) for name in names),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", ["flat-limit", "spectrum", "futaki", "chow"])
def test_exact_commands_leave_numpy_unloaded(command, tmp_path):
    assert _probe_imports(command, tmp_path) == "[0, 0, 0, 0] False False"


# the flags that keep each sampling command small (envelope needs three
# levels) and its exit code there: envelope fails its boundary gap, as c13 does
SMALL_RUNS = {
    "n2": ([], 0),
    "chow": (["--numeric", "--k", "1"], 0),
    "ray": (["--k", "2,3,4"], 0),
    "mass": (["--k", "2,3,4"], 0),
    "envelope": (["--k", "2,3,4"], 3),
    "report": (["--k", "2,3,4"], 0),
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_sampling_commands_load_numpy(command, tmp_path):
    # NumPy is the numeric layer's only library: no sampling command loads SciPy
    flags, code = SMALL_RUNS[command]
    extra = ["--samples", "8192", *flags]
    line = _probe_imports(command, tmp_path, *extra, names=("conic_double_line",))
    assert line == f"[{code}] True False"


def test_lazy_package_names_resolve():
    assert kstab.section_frame is rays.section_frame
    assert kstab.ma_mass is rays.ma_mass
    assert kstab.geometric_t_grid is cli.geometric_t_grid
    assert all(getattr(kstab, name) is not None for name in kstab.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        kstab.no_such_name


def test_sample_floor_is_two_batches():
    # the parser keeps its own copy so that parsing needs no NumPy
    assert cli.MIN_SAMPLES == 2 * geometry.BATCH_SIZE


# -- validation failures (exit 2) -----------------------------------------------------


def test_missing_file_is_a_config_error(tmp_path, capsys):
    assert run(["futaki", str(tmp_path / "nope.json")], tmp_path) == 2
    assert "nope.json" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["futaki", str(bad)], tmp_path) == 2
    assert "JSON" in capsys.readouterr().err


def test_sample_ceiling_is_refused_at_parse_time(tmp_path, capsys):
    # the jackknife keeps every batch mean, so --samples bounds memory;
    # futaki never samples, so only the parser can refuse the count
    ceiling = cli.MAX_SAMPLES
    assert ceiling == 100 * cli.build_parser().get_default("samples")
    assert run(["futaki", DL, "--samples", str(ceiling + 1)], tmp_path) == 2
    err = capsys.readouterr().err
    assert f"argument --samples: must be at most {ceiling}, got {ceiling + 1}" in err
    assert run(["futaki", DL, "--samples", str(ceiling)], tmp_path) == 0


def test_negative_seed_is_refused_at_parse_time(tmp_path):
    # futaki used to accept it, and n2 to load NumPy and fit before its
    # sampler refused it without naming the flag
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, "futaki", str(tmp_path), "--seed=-1"],
        input=DL,
        capture_output=True,
        text=True,
    )
    assert proc.stdout.splitlines()[-1] == "[2] False False"
    assert "argument --seed: must be at least 0, got -1" in proc.stderr


def write_config(tmp_path, **overrides):
    body = {
        "name": "probe",
        "variables": ["x", "y", "z"],
        "weights": [0, 0, 1],
        "generators": ["x*z - y^2"],
    }
    body.update(overrides)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(body))
    return str(path)


@pytest.mark.parametrize(
    "name", ["../escaped", "ABSOLUTE", "a/b", "a\\b", "a\0b", "", ".", "..", None, 7, ["x"]]
)
def test_name_must_be_one_path_component(tmp_path, capsys, name):
    # the name prefixes the report files, so it may not point outside --out
    if name == "ABSOLUTE":
        name = str(tmp_path / "escaped")
    path = write_config(tmp_path, name=name)
    assert run(["futaki", path], tmp_path / "out") == 2
    assert "name must be" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["probe.json"]


def test_missing_weights_key(tmp_path, capsys):
    body = {"name": "p", "variables": ["x", "y"], "generators": []}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(body))
    assert run(["futaki", str(path)], tmp_path) == 2
    assert "weights" in capsys.readouterr().err


def test_inhomogeneous_generator(tmp_path, capsys):
    path = write_config(tmp_path, generators=["x + y^2"])
    assert run(["futaki", path], tmp_path) == 2
    err = capsys.readouterr().err
    assert "homogeneous" in err and "mixes degrees 1 and 2" in err


def test_non_integer_weights(tmp_path, capsys):
    path = write_config(tmp_path, weights=[0, 0, 0.5])
    assert run(["futaki", path], tmp_path) == 2
    err = capsys.readouterr().err
    assert "integer" in err or "weights" in err


CHART = {"components": ["1", "0", "u"]}


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"weights": [True, False, True]}, "weights"),
        ({"weights": [0, 0, "1"]}, "weights"),
        ({"cycle": [{**CHART, "multiplicity": 2.7}]}, "multiplicity"),
        ({"cycle": [{**CHART, "multiplicity": "2"}]}, "multiplicity"),
        ({"cycle": [{**CHART, "multiplicity": True}]}, "multiplicity"),
    ],
)
def test_integer_fields_take_only_json_integers(tmp_path, capsys, overrides, key):
    # bool is an int subclass and int() truncates: neither may pass as an integer
    path = write_config(tmp_path, **overrides)
    assert run(["n2", path], tmp_path) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "probe_n2.json").exists()


@pytest.mark.parametrize(
    "names",
    [
        [True, False, True],
        [0, 1, 2],
        ["x", "y", None],
        ["x", "y z", "w"],
        ["x", "2y", "z"],
        ["x", "y", ""],
    ],
)
def test_variables_must_be_grammar_names(tmp_path, capsys, names):
    # str() would turn true into a coordinate named True
    path = write_config(tmp_path, variables=names)
    assert run(["n2", path], tmp_path) == 2
    assert "variables" in capsys.readouterr().err
    assert not (tmp_path / "probe_n2.json").exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"generators": 5}, "generators"),
        ({"variables": "xyz"}, "variables"),
        ({"weights": 1}, "weights"),
        ({"fiber": {}}, "fiber"),
        ({"cycle": 5}, "cycle"),
    ],
)
def test_list_fields_must_be_lists(tmp_path, capsys, overrides, key):
    path = write_config(tmp_path, **overrides)
    assert run(["futaki", path], tmp_path) == 2
    assert f"{key} must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["1", "0", "-5", "8191"])
def test_samples_below_two_batches(tmp_path, capsys, samples):
    assert run(["n2", DL, f"--samples={samples}"], tmp_path) == 2
    err = capsys.readouterr().err
    assert "--samples" in err and "8192" in err
    assert not (tmp_path / "conic_double_line_n2.json").exists()


def test_chart_component_arity(tmp_path, capsys):
    path = write_config(tmp_path, fiber=[{"components": ["1", "u"]}])
    assert run(["ray", path, "--k", "2,3", "--samples", "8192"], tmp_path) == 2
    assert "chart" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "command, section, chart, form",
    [
        # [1:u:u^3] is not on xz = y^2: ray used to write the ray of another curve
        (["ray", "--seed", "1"], "fiber", {"components": ["1", "u", "u^3"]}, "-y^2 + x*z"),
        # {z = 0} is not X_0 = 2{y = 0}: n2 and chow --numeric used to exit 3
        (["n2"], "cycle", {"components": ["1", "u", "0"], "multiplicity": 2}, "y^2"),
        (["chow", "--numeric"], "cycle", {"components": ["1", "u", "0"], "multiplicity": 2}, "y^2"),
    ],
)
def test_chart_off_its_variety_is_a_config_error(tmp_path, capsys, command, section, chart, form):
    good = json.loads(config_path("conic_double_line").read_text())
    path = write_config(tmp_path, **{**good, "name": "probe", section: [chart]})
    out = tmp_path / "out"
    assert run([command[0], path, *command[1:], "--samples", "8192"], out) == 2
    err = capsys.readouterr().err
    assert f"{section}[0]" in err and f"{form!r} does not vanish" in err
    assert not out.exists()


DOUBLE_LINE = json.loads(config_path("conic_double_line").read_text())
# conic_double_line with a second parameter v in each chart
TWO_PARAMS = {
    "fiber": [{"components": ["1", "u*v", "u^2*v^2"]}],
    "cycle": [{"components": ["1", "0", "u + v"], "multiplicity": 2}],
}
# the surface xw = yz with a curve on it as fiber and a line on X_0 as cycle
SURFACE = {
    "variables": ["x", "y", "z", "w"],
    "weights": [0, 0, 0, 1],
    "generators": ["x*w - y*z"],
    "fiber": [{"components": ["1", "u", "u", "u^2"]}],
    "cycle": [{"components": ["1", "0", "u", "0"]}],
}


@pytest.mark.parametrize(
    "overrides, command, section, count, n",
    [
        # n2 used to exit 3 on a NaN, ray and mass to exit 2 on a singular Gram matrix
        (TWO_PARAMS, ["n2"], "cycle", 2, 1),
        (TWO_PARAMS, ["ray"], "fiber", 2, 1),
        # n2 and chow --numeric used to exit 3, as if the estimates disagreed
        (SURFACE, ["n2"], "cycle", 1, 2),
        (SURFACE, ["chow", "--numeric"], "cycle", 1, 2),
        (SURFACE, ["report"], "cycle", 1, 2),
    ],
)
def test_chart_parameter_count_must_be_the_dimension(
    tmp_path, capsys, overrides, command, section, count, n
):
    path = write_config(tmp_path, **{**DOUBLE_LINE, "name": "probe", **overrides})
    out = tmp_path / "out"
    assert run([command[0], path, *command[1:], "--samples", "8192"], out) == 2
    err = capsys.readouterr().err
    assert f"{section}[0]: its parameter count {count} is not the dimension n = {n}" in err
    assert not list(out.glob("*.json"))


# P^2 with nothing cut out and a two-parameter chart whose image is a line:
# chow --numeric used to exit 0 on a vacuous check, n2 to exit 3, and ray
# and mass to exit 2 on an unnamed singular Gram matrix
FLAT_CHART = {"components": ["1", "u + v", "0"]}


@pytest.mark.parametrize(
    "command", [["n2"], ["chow", "--numeric"], ["ray"], ["mass"], ["envelope"], ["report"]]
)
def test_chart_of_zero_volume_is_a_config_error(tmp_path, capsys, command):
    path = write_config(
        tmp_path, weights=[0, 1, 2], generators=[], fiber=[FLAT_CHART], cycle=[FLAT_CHART]
    )
    out = tmp_path / "out"
    assert run([command[0], path, *command[1:], "--samples", "8192"], out) == 2
    section = "fiber" if command[0] in ("ray", "mass", "envelope") else "cycle"
    assert (
        f"{section}[0]: its jet [F; dF] has rank 2, not n + 1 = 3, at every probe point"
        in capsys.readouterr().err
    )
    assert not list(out.iterdir())


# x - y cuts x out in degree 1, so N_2 is sampled in the frame (y, z); n2 and
# report used to exit 2 on both
LINEAR = {
    # fiber [1:1:u], flat limit [0:1:u]
    "plane_line": ([0, 1, 2], ["0", "1", "u"]),
    # the weights tie x and y, so the line is its own flat limit
    "tied_line": ([0, 0, 1], ["1", "1", "u"]),
}


@pytest.mark.parametrize("name", sorted(LINEAR))
def test_n2_and_report_take_a_linear_generator(tmp_path, name):
    weights, cycle = LINEAR[name]
    path = write_config(
        tmp_path,
        name=name,
        weights=weights,
        generators=["x - y"],
        fiber=[{"components": ["1", "1", "u"]}],
        cycle=[{"components": cycle}],
    )
    assert run(["n2", path, "--samples", "20000"], tmp_path) == 0
    payload = load(tmp_path, f"{name}_n2")
    assert payload["exact_n2_sq"] == "1/12"
    assert payload["a_1_diagonal"] == [-0.5, 0.5]
    assert check_names(payload) == ["n2.rel_error", "n2.consistency"]
    assert failed(payload) == []
    assert run(["report", path, "--samples", "20000"], tmp_path) != 2
    checks = load(tmp_path, f"{name}_report")["checks"]
    n2 = [check for check in checks if check["name"].startswith("n2.")]
    assert [check["name"] for check in n2] == ["n2.rel_error", "n2.consistency"]
    assert all(check["passed"] for check in n2)


def test_ray_without_fiber(tmp_path, capsys):
    path = write_config(tmp_path)
    assert run(["ray", path, "--samples", "8192"], tmp_path) == 2
    assert "fiber" in capsys.readouterr().err


def test_n2_without_cycle(tmp_path, capsys):
    path = write_config(tmp_path)
    assert run(["n2", path, "--samples", "8192"], tmp_path) == 2
    assert "cycle" in capsys.readouterr().err


def test_chow_numeric_without_cycle(tmp_path, capsys):
    path = write_config(tmp_path, fiber=[{"components": ["1", "u", "u^2"]}])
    assert run(["chow", path, "--numeric", "--samples", "8192"], tmp_path) == 2
    assert "cycle" in capsys.readouterr().err


def test_t_probe_flag_is_gone(tmp_path):
    assert run(["chow", DL, "--numeric", "--t-probe", "-15"], tmp_path) == 2


CONIC = ["1", "u", "u^2"]
DOUBLE = ["1", "0", "u"]


@pytest.mark.parametrize(
    "command, section, chart, key",
    [
        # the parameters are u, v, w up to the last one the components use
        (["n2"], "cycle", {"components": DOUBLE, "multiplicity": 2, "chart_vars": 1}, "chart_vars"),
        # n2 used to exit 3, reading the misspelt multiplicity 2 as 1
        (["n2"], "cycle", {"components": DOUBLE, "multiplicty": 2}, "multiplicty"),
        # X is reduced: ray used to exit 0 with every phi(t;k) shifted by -log 2/k
        (["ray"], "fiber", {"components": CONIC, "multiplicity": 2}, "multiplicity"),
        # charts are always sampled from the Fubini-Study law
        (["ray"], "fiber", {"components": CONIC, "law": "gaussian"}, "law"),
    ],
    ids=["chart_vars", "multiplicty", "fiber_multiplicity", "law"],
)
def test_chart_takes_only_its_keys(tmp_path, capsys, command, section, chart, key):
    good = json.loads(config_path("conic_double_line").read_text())
    path = write_config(tmp_path, **{**good, "name": "probe", section: [chart]})
    out = tmp_path / "out"
    assert run([*command, path, "--samples", "8192"], out) == 2
    err = capsys.readouterr().err
    assert f"{section}[0]: a {section} chart takes only 'components'" in err
    assert f"not {key!r} (remove the key)" in err
    assert not out.exists()


def test_lead_degree_70_gets_its_exact_answer(tmp_path):
    # a plane curve of degree 70 has d_k = 70k - 2345 from k = 68 on, and weights
    # (0, 1, 2) give w(k) = 105k^2 - 7140k + 164220 there
    path = write_config(tmp_path, weights=[0, 1, 2], generators=["x^70 + y^70 + z^70"])
    assert run(["futaki", path], tmp_path) == 0
    payload = load(tmp_path, "probe_futaki")
    assert (payload["n"], payload["degree"], payload["stability_window"]) == (1, "70", [68, 72])
    assert payload["hilbert_coeffs"] == ["-2345", "70"]
    assert payload["weight_coeffs"] == ["164220", "-7140", "105"]
    assert (payload["F_0"], payload["F_1"]) == ("3/2", "-207/4")


def test_chow_on_six_variables_reads_only_levels_under_the_limit(tmp_path):
    # six variables allow levels up to 26, below the operator-norm sweep's 30
    path = write_config(
        tmp_path,
        variables=list("abcdef"),
        weights=[0, 1, 1, 2, 3, 4],
        generators=["a*f - b*e + c*d"],
    )
    assert spectra.top_level(6) == 26
    assert run(["chow", path], tmp_path) == 0
    assert load(tmp_path, "probe_chow")["operator_norm"]["pass"] is True


def test_envelope_needs_three_levels(tmp_path, capsys):
    assert run(["envelope", DL, "--k", "4,8", "--samples", "8192"], tmp_path) == 2
    assert "three" in capsys.readouterr().err


@pytest.mark.parametrize("kmax", ["0", "-2"])
def test_kmax_must_be_positive(tmp_path, capsys, kmax):
    # spectrum reads its levels, up to the top one, from --k
    assert run(["spectrum", DL, f"--k=1,{kmax}"], tmp_path) == 2
    assert "--k" in capsys.readouterr().err
    assert not (tmp_path / "conic_double_line_spectrum.json").exists()


def test_out_naming_a_file_is_a_validation_error(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "kstab.cli", "futaki", DL, "--out", str(blocker)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert f"cannot write reports to {blocker}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unwritable_report_is_a_validation_error(tmp_path, capsys):
    (tmp_path / "conic_double_line_futaki.json").mkdir()
    assert run(["futaki", DL], tmp_path) == 2
    err = capsys.readouterr().err
    assert "cannot write reports to" in err and "Traceback" not in err


def test_bad_t_grid_spec(tmp_path, capsys):
    # argparse failures are translated to the validation exit code
    assert main(["ray", DL, "--t-grid=oops", "--out", str(tmp_path)]) == 2
    assert "t-grid" in capsys.readouterr().err


def test_t_grid_steps_are_capped(tmp_path, capsys):
    assert len(cli._t_grid_spec(f"-0.1:-40:{cli.MAX_T_STEPS}")) == cli.MAX_T_STEPS
    assert run(["ray", DL, f"--t-grid=-0.1:-40:{cli.MAX_T_STEPS + 1}"], tmp_path) == 2
    err = capsys.readouterr().err
    assert "--t-grid" in err and f"steps must be at most {cli.MAX_T_STEPS}" in err
    assert not list(tmp_path.iterdir())
    # an infinite or NaN end, or a ratio far/near past the float range, would
    # write -inf times and NaN potentials
    for spec in ("-0.1:-inf:5", "-inf:-40:5", "nan:-40:5", "-0.1:nan:5", "-1e-300:-1e10:5"):
        with pytest.raises(ValueError, match="need finite times t_far < t_near < 0"):
            cli.geometric_t_grid(*map(float, spec.split(":")[:2]), 5)
        assert run(["ray", str(config_path("product_p1")), f"--t-grid={spec}"], tmp_path) == 2
        err = capsys.readouterr().err
        assert "--t-grid" in err and "need finite times" in err
    assert not list(tmp_path.iterdir())


def test_level_above_the_monomial_limit_exits_quickly(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["spectrum", DL, "--k", "1500"], tmp_path) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "level 1500 is too high" in err
    assert f"limit of {spectra.MAX_MONOMIALS}" in err


@pytest.mark.parametrize(
    "flag, command",
    [("--tol-n2", "n2"), ("--tol-chow", "chow"), ("--tol-boundary", "envelope"), ("--kmax", "spectrum")],
)
def test_removed_flags_are_rejected(tmp_path, capsys, flag, command):
    # the ledger's thresholds are constants, and spectrum takes --k
    assert run([command, DL, f"{flag}=1"], tmp_path) == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
