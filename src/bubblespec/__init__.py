"""Photon spectra from a sudden refractive-index change inside a
dielectric sphere immersed in a liquid."""

from .kernel import (
    CutoffProfile,
    KernelConvergenceError,
    KernelValue,
    d_approx,
    d_exact,
    f_exact,
    f_exact_array,
    f_factorized,
)
from .matching import (
    MatchingCoefficients,
    MediumConfig,
    coefficient_a_sq,
    coefficients_bc,
    matching_coefficients,
    normalization_xi,
)
from .oracles import IdentityReport, finite_overlap_checks, hankel_finite_integral, matching_checks
from .oracles import spectral_delta_checks, wronskian_checks
from .quadrature import QuadratureError, QuadResult, adaptive_quad
from .special_functions import (
    BesselDomainError,
    BesselPair,
    ModeOrder,
    bessel_jn_half,
    half_integer_j_array,
)
from .spectrum import (
    QuadratureSpec,
    SpectrumResult,
    delta_kernel_totals,
    dn_dx,
    infinite_volume_dn_dx,
    infinite_volume_totals,
    totals,
)

__version__ = "0.1.0"
