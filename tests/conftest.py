"""Shared fixtures: bundled configurations and reusable Monte Carlo products.

The heavy objects (section frames, ray grids) are session scoped so the
module suites and the acceptance suite pay for each Monte Carlo run once.
All seeds are fixed; every value asserted downstream is reproducible.
"""

from __future__ import annotations

import importlib.resources
import os
from pathlib import Path

import pytest
from hypothesis import settings

from kstab import TestConfiguration
from kstab import (
    build_ray_grid,
    fit_asymptotics,
    geometric_t_grid,
    grid_points,
    section_frame,
)
from kstab.cli import load_configuration

SAMPLES = 100_000
SEED = 0
RAY_LEVELS = (4, 8, 16)

# the class name matches pytest's collection pattern; it is not a test
TestConfiguration.__test__ = False

# CI runs the property tests derandomized and prints the blob that replays a
# failure; local runs keep drawing fresh examples
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def config_path(name: str) -> Path:
    return Path(str(importlib.resources.files("kstab"))) / "configs" / f"{name}.json"


def t_grid_with(*extra: float) -> tuple[float, ...]:
    """Default geometric time grid with extra points, nearest boundary first."""
    values = set(geometric_t_grid()) | set(extra)
    return tuple(sorted(values, reverse=True))


@pytest.fixture(scope="session")
def double_line():
    return load_configuration(config_path("conic_double_line"))


@pytest.fixture(scope="session")
def two_lines():
    return load_configuration(config_path("conic_two_lines"))


@pytest.fixture(scope="session")
def product_p1():
    return load_configuration(config_path("product_p1"))


@pytest.fixture(scope="session")
def trivial_p1():
    return load_configuration(config_path("trivial_p1"))


@pytest.fixture(scope="session")
def dl_report(double_line):
    return fit_asymptotics(double_line[0])


@pytest.fixture(scope="session")
def tl_report(two_lines):
    return fit_asymptotics(two_lines[0])


@pytest.fixture(scope="session")
def dl_frames(double_line):
    """Double-line section frames at the ray levels."""
    config, fiber, _ = double_line
    return {k: section_frame(config, fiber, k, SAMPLES, SEED) for k in RAY_LEVELS}


@pytest.fixture(scope="session")
def tl_frames(two_lines):
    """Two-lines section frames at the comparison levels."""
    config, fiber, _ = two_lines
    return {k: section_frame(config, fiber, k, SAMPLES, SEED) for k in (4, 8)}


@pytest.fixture(scope="session")
def dl_points(double_line):
    config, fiber, _ = double_line
    return grid_points(config, fiber)


@pytest.fixture(scope="session")
def tl_points(two_lines):
    config, fiber, _ = two_lines
    return grid_points(config, fiber)


@pytest.fixture(scope="session")
def dl_grid(dl_frames, dl_points, dl_report):
    """Ray grid for the double line with t = -20 included exactly."""
    frames = [dl_frames[k] for k in RAY_LEVELS]
    return build_ray_grid(
        frames,
        t_grid_with(-20.0),
        dl_points,
        dl_report.n,
        float(dl_report.degree_volume),
    )
