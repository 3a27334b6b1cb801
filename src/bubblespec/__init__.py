"""Photon spectra from a sudden refractive-index change inside a
dielectric sphere immersed in a liquid."""

from .kernel import (
    CutoffProfile,
    KernelConvergenceError,
    KernelValue,
    d_approx,
    d_exact,
    f_exact,
    f_factorized,
    refractive_in,
    refractive_out,
)
from .matching import (
    MatchingCoefficients,
    MediumConfig,
    coefficient_a_sq,
    coefficients_bc,
    matching_coefficients,
    normalization_xi,
)
from .oracles import IdentityReport, hankel_finite_integral, large_r_beta_sq, spectral_delta_checks
from .quadrature import QuadratureError, QuadResult, adaptive_quad
from .special_functions import (
    AsymptoticRegimeError,
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
    delta_replacement_check,
    dn_dx,
    infinite_volume_dn_dx,
    infinite_volume_totals,
    spectral_integrand,
    totals,
)

__version__ = "0.1.0"
