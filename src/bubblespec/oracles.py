"""Independent identities used to validate the numerical pipeline.

The closed-form finite-range Bessel overlap integral, the smeared
spectral delta identities, and the homogeneous-limit strength of the
pair-creation amplitude.  The overlap is the exact kernel's own
pseudo-Wronskian ratio, so its check tests the production ratio.  All
checks integrate with scipy's QUADPACK, not the production quadrature,
so the two routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _pw_ratios
from .matching import MediumConfig, normalization_xi
from .special_functions import BesselDomainError, ModeOrder

__all__ = [
    "IdentityReport",
    "hankel_finite_integral",
    "spectral_delta_checks",
    "large_r_beta_sq",
]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity suite."""

    name: str
    max_abs_error: float
    max_rel_error: float
    samples: int
    passed: bool


def hankel_finite_integral(order: ModeOrder, k1: float, k2: float, R: float) -> float:
    """Closed form of int_0^R r J_nu(k1 r) J_nu(k2 r) dr = R^2 W~_nu(a, b)/(a^2 - b^2), (a, b) = (k1 R, k2 R).

    The ratio is the exact kernel's ``_pw_ratios`` term: near-degenerate
    wavenumbers (|a - b| < 1e-4 min(a, b, 1)) take its diagonal limit at
    the midpoint, R^2/(2z) [z (J^2 + J_{nu-1}^2) - 2 nu J J_{nu-1}], and
    raise its KernelConvergenceError where that limit cancels at a tiny z.
    """
    if k1 <= 0.0 or k2 <= 0.0 or R <= 0.0:
        raise BesselDomainError("wavenumbers and radius must be positive")
    return R * R * _pw_ratios(k1 * R, k2 * R, max(order.l, 1))[order.l]


def _gaussian(t, sigma):
    return np.exp(-0.5 * (t / sigma) ** 2)


def spectral_delta_checks() -> IdentityReport:
    """Smeared delta-sequence identities against Gaussian test functions.

    Verifies that int f_s(t) g(t) dt -> g(0) monotonically for the
    sequence f_s(t) = sin^2(s t)/(s pi t^2), and that sin(kR)/(pi k)
    likewise reproduces g(0) at large R.  Pointwise limits of these
    oscillatory kernels are meaningless numerically; only the weak form
    is tested.
    """
    from scipy import integrate

    sigma = 1.0
    deviations = []
    for s in (5.0, 10.0, 20.0, 50.0):
        # Window fixed at 8 sigma: beyond it the Gaussian kills the
        # kernel's 1/t^2 tail, so truncation is subdominant to smearing.
        val, _ = integrate.quad(
            lambda t: math.sin(s * t) ** 2 / (s * math.pi * t * t) * _gaussian(t, sigma),
            -8.0 * sigma,
            8.0 * sigma,
            limit=4000,
            points=[0.0],
        )
        deviations.append(abs(val - _gaussian(0.0, sigma)))
    monotone = all(b <= a * 1.05 + 1e-6 for a, b in zip(deviations, deviations[1:]))

    sin_dev = []
    for big_r in (25.0, 50.0, 100.0):
        val, _ = integrate.quad(
            lambda k: math.sin(k * big_r) / (math.pi * k) * _gaussian(k, sigma),
            -60.0,
            60.0,
            limit=2000,
            points=[0.0],
        )
        sin_dev.append(abs(val - _gaussian(0.0, sigma)))
    monotone = monotone and all(b <= a * 1.05 + 1e-6 for a, b in zip(sin_dev, sin_dev[1:]))

    worst = float(max(deviations[-1], sin_dev[-1]))
    return IdentityReport(
        name="spectral-delta",
        max_abs_error=worst,
        max_rel_error=worst / _gaussian(0.0, sigma),
        samples=len(deviations) + len(sin_dev),
        passed=bool(monotone and worst < 0.01),
    )


def large_r_beta_sq(cfg: MediumConfig, omega_in: float, omega_out: float) -> float:
    """Squared strength of the homogeneous-limit pair amplitude.

    The amplitude carries gamma (1/n_in - 1/n_out) with gamma =
    n_in n_out times the mode normalizations, concentrated on the
    momentum-conservation line n_in omega_in = n_out omega_out; this
    returns the squared prefactor of that delta.
    """
    if omega_in <= 0.0 or omega_out <= 0.0:
        raise ValueError("frequencies must be positive")
    dn = cfg.n_gas_out - cfg.n_gas_in
    xi_in = normalization_xi(cfg.n_gas_in * omega_in, cfg.n_liquid)
    xi_out = normalization_xi(cfg.n_gas_out * omega_out, cfg.n_liquid)
    return dn * dn / (cfg.n_gas_in * cfg.n_gas_out) * (xi_in * xi_out) ** 2
