"""Truncated KP-II wave system on the torus.

Spectral Galerkin dynamics, the quadratic normal form and its inversion,
random-data ensembles, and closed-form moment asymptotics, all on a
shared symmetric lattice truncation.  A name is imported from its module
on first access, so `import kpwaves` loads no submodule.
"""

from importlib import import_module

# Each public name and the module that defines it.
_EXPORTS = {name: module for module, names in {
    "lattice": "LatticeBox omega hs_norm hs_weights apply_free_flow phi1",
    "operators": "dx_product s_map f_map",
    "picard": "extract_d extract_w PicardBundle lambda_eps "
              "invert_lambda_eps NonContractionError MaxIterExceededError",
    "dynamics": "calibrate_dt evolve_coeffs NonFiniteError CalibrationError",
    "sampling": "RandomLaw SpectrumProfile normalize_profile sample_u0",
    "ensemble": "MomentReport estimate_moments ScanResult remainder_scan "
                "GrowthFit remainder_growth",
    "theory": "TheoryContext f2_diag f3 weighted_sum_pair weighted_sum_triple "
              "pair_majorant triple_majorant box_limit_f2",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
