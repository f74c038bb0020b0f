"""The benchmark's metric and workload names match BENCHMARK.json."""

import dataclasses
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck: ok" in proc.stdout


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_names_resolve_in_kstab():
    # a deleted or renamed function would otherwise only show up as an
    # `untraced_functions` entry in a traced benchmark run
    import kstab
    import kstab.cli
    import kstab.rays

    for modname, fname in _bench_module("tracing").TRACED:
        module = importlib.import_module(f"kstab.{modname}")
        assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
    # what bench/workloads.py calls and reads
    for name in ("TestConfiguration", "chow_sweep", "fit_asymptotics", "ma_mass",
                 "section_frame", "spectrum_table"):
        assert hasattr(kstab, name), name
    assert callable(kstab.cli.load_configuration) and callable(kstab.cli.main)
    assert callable(kstab.TestConfiguration.from_strings)
    fields = {
        kstab.SectionFrame: {"exponents", "gram", "gram_mc", "matrix"},
        kstab.MCResult: {"value", "stderr", "n_samples", "batch_size"},
        kstab.rays.EnergyReport: {"moment_mc"},
    }
    for cls, names in fields.items():
        assert names <= {f.name for f in dataclasses.fields(cls)}, cls.__name__
