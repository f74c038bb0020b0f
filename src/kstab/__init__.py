"""Exact and numeric invariants of test configurations.

Exact layer: weighted Groebner degenerations, graded weight spectra, the
Donaldson-Futaki invariant, Chow weights, and Donaldson's N_2 norm, all in
rational arithmetic.  Numeric layer: seeded Monte Carlo Fubini-Study
geometry, Bergman geodesic rays, their upper envelopes, and energy-slope
diagnostics.  The `kstab` console script drives both from JSON
configuration files; see the bundled files under kstab/configs/.

Importing kstab loads only the exact layer.  The numeric names (those of
kstab.geometry and kstab.rays) resolve on first use, which imports NumPy
and SciPy; so do the sampling commands n2, ray, mass, envelope, report and
chow --numeric.  flat-limit, spectrum, futaki and chow never load them.
"""

import importlib

from .asymptotics import (
    AsymptoticReport,
    ChowReport,
    ChowSweep,
    chow_sweep,
    chow_weight_algebraic,
    fit_asymptotics,
    operator_norm_check,
)
from .groebner import buchberger, initial_ideal, normal_form
from .polynomials import Chart, Polynomial, TermOrder, parse_polynomial
from .spectra import GradedSlice, TestConfiguration, graded_slice, spectrum_table

# submodule -> the names it defines, imported on first access (PEP 562)
_LAZY = {
    "geometry": "GSResult MCResult energy_derivative equivariant_gram_schmidt gram_matrix"
    " moment_matrix n2_integral".split(),
    "rays": "EnergyReport PointGrid RayGrid SectionFrame build_ray_grid chow_weight_numeric"
    " convexity_report grid_points ma_mass section_frame slope_report sup_osc_report".split(),
    "cli": ["geometric_t_grid"],
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsymptoticReport",
    "Chart",
    "ChowReport",
    "ChowSweep",
    "EnergyReport",
    "GSResult",
    "GradedSlice",
    "MCResult",
    "PointGrid",
    "Polynomial",
    "RayGrid",
    "SectionFrame",
    "TermOrder",
    "TestConfiguration",
    "buchberger",
    "build_ray_grid",
    "chow_sweep",
    "chow_weight_algebraic",
    "chow_weight_numeric",
    "convexity_report",
    "energy_derivative",
    "equivariant_gram_schmidt",
    "fit_asymptotics",
    "geometric_t_grid",
    "gram_matrix",
    "graded_slice",
    "grid_points",
    "initial_ideal",
    "ma_mass",
    "moment_matrix",
    "n2_integral",
    "normal_form",
    "operator_norm_check",
    "parse_polynomial",
    "section_frame",
    "slope_report",
    "spectrum_table",
    "sup_osc_report",
]

__version__ = "0.1.0"
