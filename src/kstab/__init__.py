"""Exact and numeric invariants of test configurations.

Exact layer: weighted Groebner degenerations, graded weight spectra, the
Donaldson-Futaki invariant, Chow weights, and Donaldson's N_2 norm, all in
rational arithmetic.  Numeric layer: seeded Monte Carlo Fubini-Study
geometry, Bergman geodesic rays, their upper envelopes, and energy-slope
diagnostics.  The `kstab` console script drives both from JSON
configuration files; see the bundled files under kstab/configs/.

Importing kstab loads only the exact layer.  The numeric names (those of
kstab.geometry and kstab.rays) resolve on first use, which imports NumPy,
the package's only dependency; so do the sampling commands n2, ray, mass,
envelope, report and chow --numeric.  flat-limit, spectrum, futaki and chow
never load it.
"""

import importlib
import types

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
    "geometry": "MCResult energy_derivative equivariant_gram_schmidt gram_ladder gram_matrix"
    " moment_ladder moment_matrix n2_integral".split(),
    "rays": "EnergyReport PointGrid RayGrid SectionFrame build_ray_grid chow_weights_numeric"
    " convexity_report grid_points ma_mass ma_masses section_frame section_frames"
    " slope_report sup_osc_report".split(),
    "cli": ["geometric_t_grid"],
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the names imported above (not the submodules) and the lazy numeric names
__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if name[0] != "_" and not isinstance(value, types.ModuleType)
    ]
    + [name for names in _LAZY.values() for name in names]
)

__version__ = "0.1.0"
