"""Truncated KP-II wave system on the torus.

Spectral Galerkin dynamics, the quadratic normal form and its inversion,
random-data ensembles, and closed-form moment asymptotics, all on a
shared symmetric lattice truncation.
"""

from .lattice import (LatticeBox, DispersionTable, SpectralField,
                      omega, delta, hs_norm, hs_weights, apply_free_flow)
from .operators import dx_product, s_map, f_map
from .picard import (phi1, picard_b, picard_c, f_integral, extract_d,
                     extract_w, PicardBundle, lambda_eps, invert_lambda_eps,
                     NonContractionError, MaxIterExceededError)
from .dynamics import default_dt, calibrate_dt, evolve_coeffs, NonFiniteError
from .ensemble import (RandomLaw, SpectrumProfile, normalize_profile,
                       sample_u0, EnsembleConfig, MomentReport,
                       estimate_moments, ScanConfig, ScanResult,
                       remainder_scan, GrowthFit, remainder_growth)
from .theory import (TheoryContext, f2_diag, f3, weighted_sum_pair,
                     weighted_sum_triple, pair_majorant, triple_majorant,
                     box_limit_f2)

__version__ = "0.1.0"
