"""Independent identities used to validate the numerical pipeline.

The closed-form finite-range Bessel overlap integral, the smeared
spectral delta identities, and the homogeneous-limit strength of the
pair-creation amplitude.  These deliberately use a different integration
backend (scipy's QUADPACK) than the production quadrature so the two
routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .kernel import f_exact
from .matching import MediumConfig, normalization_xi
from .special_functions import BesselDomainError, ModeOrder, _reduced_det, _reduced_det_diagonal, bessel_jn_half

__all__ = [
    "IdentityReport",
    "hankel_finite_integral",
    "spectral_delta_checks",
    "large_r_beta_sq",
]

# Relative separation below which the two-wavenumber overlap switches to
# its diagonal closed form.
_DEGENERATE_EPS = 1e-8


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity suite."""

    name: str
    max_abs_error: float
    max_rel_error: float
    samples: int
    passed: bool


def hankel_finite_integral(order: ModeOrder, k1: float, k2: float, R: float) -> float:
    """Closed form of int_0^R r J_nu(k1 r) J_nu(k2 r) dr.

    Off the diagonal this is R [k1 J'(k1 R) J(k2 R) - k2 J(k1 R) J'(k2 R)]
    / (k2^2 - k1^2), i.e. the reduced determinant at (k1 R, k2 R) over
    k1^2 - k2^2; near-degenerate wavenumbers route to the diagonal limit
    R^2/2 [J'^2 + (1 - nu^2/z^2) J^2], the diagonal determinant times R^2/(2z).
    """
    if k1 <= 0.0 or k2 <= 0.0 or R <= 0.0:
        raise BesselDomainError("wavenumbers and radius must be positive")
    if abs(k1 - k2) < _DEGENERATE_EPS * max(k1, k2):
        z = 0.5 * (k1 + k2) * R
        p = bessel_jn_half(order, z)
        return 0.5 * R * R / z * _reduced_det_diagonal(order.nu, z, p.j, p.j_prev)
    a, b = k1 * R, k2 * R
    pa = bessel_jn_half(order, a)
    pb = bessel_jn_half(order, b)
    return _reduced_det(pa.j, pa.j_prev, a, pb.j, pb.j_prev, b) / (k1 * k1 - k2 * k2)


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


def kernel_concentration_ratio(x: float, delta: float, scale: float) -> float:
    """Diagonal dominance of the exact kernel at a given size scale.

    Ratio F(sx, s(x + delta))/F(sx, sx) at a fixed relative momentum
    mismatch delta: growing scale (larger sphere at fixed physical
    momenta) concentrates the kernel on the line x = y, the
    finite-volume shadow of momentum conservation.
    """
    on = f_exact(scale * x, scale * x).value
    off = f_exact(scale * x, scale * (x + delta)).value
    return off / on if on > 0.0 else math.inf
