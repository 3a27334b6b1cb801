"""Photon spectra and totals for the sudden-transition bubble.

The dimensionless spectrum dN/dx is a y-integral of the squared
Bogolubov overlap over the cutoff rectangle; totals integrate it once
more in x, keeping three sinc widths past the cutoff to capture the
finite-volume rolloff.  The homogeneous (infinite-volume) closed forms
serve as the physical cross-check: dN/dx = (1/3pi) (dn)^2/(n_in n_out) x^2
below the cutoff, N = (1/9pi) (dn)^2/(n_in n_out) x_*^3, <x>/x_* = 3/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import CutoffProfile, f_exact, f_factorized, refractive_out
from .matching import MediumConfig
from .quadrature import QuadResult, adaptive_quad

__all__ = [
    "QuadratureSpec",
    "SpectrumResult",
    "DeltaReplacementReport",
    "spectral_integrand",
    "dn_dx",
    "totals",
    "infinite_volume_dn_dx",
    "infinite_volume_totals",
    "delta_kernel_totals",
    "delta_replacement_check",
    "HBAR_C_EV_NM",
    "LIGHT_SPEED_NM_S",
]

HBAR_C_EV_NM = 197.3269804
LIGHT_SPEED_NM_S = 2.99792458e17

# Spectra and totals keep one sinc width (4pi/3) past the cutoff, which
# captures the smeared rolloff while excluding the unbounded
# sudden-approximation tails.
_ROLLOFF_WIDTH = 4.0 * math.pi / 3.0

_KERNEL_MODES = ("exact", "factorized")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and tail policy for the spectrum integrals."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    include_tails: bool = False
    tail_upper_bound: float | None = None

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.include_tails and not (self.tail_upper_bound and self.tail_upper_bound > 0):
            raise ValueError("include_tails requires a positive tail_upper_bound")


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum samples plus integrated totals."""

    x_grid: list[float]
    dn_dx: list[float]
    total_photons: float
    mean_x_over_xstar: float
    energy_ev: float
    quadrature_error: float


def _check_mode(kernel_mode: str) -> None:
    if kernel_mode not in _KERNEL_MODES:
        raise ValueError(f"kernel_mode must be one of {_KERNEL_MODES}, got {kernel_mode!r}")


def _prefactor(x, n_in, n_out, y):
    """Index mismatch weight times the squared momentum-mixing ratio."""
    dn = n_in - n_out
    ratio = (n_in * x * x + n_out * y * y) / (n_in * x + n_out * y)
    return dn * dn / (2.0 * n_in * n_out) * ratio * ratio


def _integrand_row(
    x: float,
    ys: np.ndarray,
    cfg: MediumConfig,
    cut: CutoffProfile,
    kernel_mode: str,
    step_out_index: bool,
) -> np.ndarray:
    """Vectorized-in-y integrand at fixed x.

    ``step_out_index`` selects the literal cutoff profile for the created
    photon's index.  The production spectrum keeps the bulk value through
    the rolloff strip x in (x_star, x_star + sinc width]: the strip is
    populated by modes just below the cutoff, and letting the prefactor
    jump there (e.g. from |n_in - n_out| to |n_in - 1|) produces the same
    sudden-approximation artifact as the excluded tail regions.
    """
    n_out = refractive_out(x, cfg, cut) if step_out_index else cfg.n_gas_out
    n_in = np.where(ys <= cut.y_star, cfg.n_gas_in, 1.0)
    pref = _prefactor(x, n_in, n_out, ys)
    if kernel_mode == "factorized":
        kern = f_factorized(x, ys)
    else:
        kern = np.array([f_exact(x, float(y)).value for y in ys])
    return pref * kern


def spectral_integrand(
    x: float, y: float, cfg: MediumConfig, cut: CutoffProfile, kernel_mode: str = "factorized"
) -> float:
    """Squared Bogolubov density at (x, y), polarization factor included.

    Uses the literal step profiles on both axes, so it is identically
    zero once both arguments exceed their cutoffs (no index mismatch
    remains there).
    """
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"spectral_integrand requires x, y > 0, got ({x}, {y})")
    _check_mode(kernel_mode)
    return float(_integrand_row(x, np.array([y]), cfg, cut, kernel_mode, step_out_index=True)[0])


def _y_interval(x: float, cut: CutoffProfile, quad: QuadratureSpec) -> tuple[float, list[float]]:
    """Upper y-limit and interior breakpoints for the y-integration."""
    upper = cut.y_star
    breaks = [x] if 0.0 < x < upper else []
    if quad.include_tails:
        breaks.append(cut.y_star)
        upper = max(float(quad.tail_upper_bound), cut.y_star)
        if 0.0 < x < upper and x not in breaks:
            breaks.append(x)
    return upper, breaks


def _dn_dx_quad(
    x: float, cfg: MediumConfig, cut: CutoffProfile, quad: QuadratureSpec, kernel_mode: str
) -> QuadResult:
    upper, breaks = _y_interval(x, cut, quad)
    return adaptive_quad(
        lambda ys: _integrand_row(x, ys, cfg, cut, kernel_mode, step_out_index=False),
        0.0,
        upper,
        breakpoints=breaks,
        rel_tol=quad.rel_tol,
        abs_tol=quad.abs_tol,
        max_subdivisions=quad.max_subdivisions,
    )


def dn_dx(
    x: float,
    cfg: MediumConfig,
    cut: CutoffProfile,
    quad: QuadratureSpec = QuadratureSpec(),
    kernel_mode: str = "factorized",
) -> float:
    """Spectrum dN/dx: adaptive y-integration over the cutoff strip."""
    if x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    _check_mode(kernel_mode)
    if cfg.n_gas_in == cfg.n_gas_out:
        return 0.0
    return _dn_dx_quad(x, cfg, cut, quad, kernel_mode).scalar


def totals(
    cfg: MediumConfig,
    cut: CutoffProfile,
    quad: QuadratureSpec = QuadratureSpec(),
    kernel_mode: str = "factorized",
    grid_points: int = 200,
) -> SpectrumResult:
    """Integrated photon number, mean energy ratio and physical energy.

    The x-integration runs over [0, x_star + 3 sinc widths]; the photon
    number and the energy moment share a single vector-valued pass.
    ``grid_points`` samples of dN/dx are returned for plotting (0 skips
    the grid).
    """
    _check_mode(kernel_mode)
    x_max = cut.x_star + _ROLLOFF_WIDTH
    if quad.include_tails:
        x_max = max(x_max, float(quad.tail_upper_bound))
    if cfg.n_gas_in == cfg.n_gas_out:
        grid = np.linspace(0.0, x_max, grid_points) if grid_points else np.array([])
        return SpectrumResult(
            x_grid=list(map(float, grid)),
            dn_dx=[0.0] * len(grid),
            total_photons=0.0,
            mean_x_over_xstar=0.0,
            energy_ev=0.0,
            quadrature_error=0.0,
        )

    inner_err = 0.0

    def outer(xs: np.ndarray) -> np.ndarray:
        nonlocal inner_err
        out = np.empty((2, xs.size))
        for i, x in enumerate(xs):
            r = _dn_dx_quad(float(x), cfg, cut, quad, kernel_mode)
            inner_err = max(inner_err, float(r.error[0]))
            out[0, i] = r.value[0]
            out[1, i] = x * r.value[0]
        return out

    res = adaptive_quad(
        outer,
        0.0,
        x_max,
        breakpoints=[cut.x_star],
        rel_tol=quad.rel_tol,
        abs_tol=quad.abs_tol,
        max_subdivisions=quad.max_subdivisions,
    )
    n_total, x_moment = float(res.value[0]), float(res.value[1])
    mean_x = x_moment / n_total if n_total > 0.0 else 0.0
    energy = HBAR_C_EV_NM / (cfg.radius * cfg.n_gas_out) * x_moment
    err = float(res.error[0]) + inner_err * x_max

    if grid_points:
        grid = np.linspace(0.0, x_max, grid_points)
        spectrum = [0.0 if x <= 0.0 else _dn_dx_quad(float(x), cfg, cut, quad, kernel_mode).scalar for x in grid]
    else:
        grid, spectrum = np.array([]), []
    return SpectrumResult(
        x_grid=list(map(float, grid)),
        dn_dx=spectrum,
        total_photons=n_total,
        mean_x_over_xstar=mean_x / cut.x_star,
        energy_ev=energy,
        quadrature_error=err,
    )


def infinite_volume_dn_dx(x: float, cfg: MediumConfig, cut: CutoffProfile) -> float:
    """Homogeneous-medium spectrum (1/3pi)((dn)^2/(n_in n_out)) x^2 below x_*."""
    if x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if x > cut.x_star:
        return 0.0
    dn = cfg.n_gas_in - cfg.n_gas_out
    return dn * dn / (3.0 * math.pi * cfg.n_gas_in * cfg.n_gas_out) * x * x


def infinite_volume_totals(cfg: MediumConfig, cut: CutoffProfile) -> tuple[float, float]:
    """(N, <x>/x_*) in closed form: N = (1/9pi)((dn)^2/(n n)) x_*^3, ratio 3/4."""
    dn = cfg.n_gas_in - cfg.n_gas_out
    n = dn * dn / (9.0 * math.pi * cfg.n_gas_in * cfg.n_gas_out) * cut.x_star**3
    return n, 0.75


def delta_kernel_totals(
    cfg: MediumConfig, cut: CutoffProfile, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[float, float]:
    """(N, <x>/x_*) by quadrature of the delta-replacement spectrum.

    Must reproduce infinite_volume_totals to quadrature tolerance; kept
    numeric as an end-to-end check of the integration layer.
    """

    def f(xs: np.ndarray) -> np.ndarray:
        vals = np.array([infinite_volume_dn_dx(float(x), cfg, cut) if x > 0 else 0.0 for x in xs])
        return np.vstack([vals, xs * vals])

    res = adaptive_quad(
        f,
        0.0,
        cut.x_star,
        rel_tol=quad.rel_tol,
        abs_tol=quad.abs_tol,
        max_subdivisions=quad.max_subdivisions,
    )
    n, moment = float(res.value[0]), float(res.value[1])
    return n, (moment / n / cut.x_star if n > 0 else 0.0)


@dataclass(frozen=True)
class DeltaReplacementReport:
    """Deviations of the smeared-delta replacements from their limits."""

    sinc_integral: float
    sinc_deviation: float
    moment_deviation: float
    max_deviation: float
    passed: bool


def delta_replacement_check(cfg: MediumConfig) -> DeltaReplacementReport:
    """Validate sinc^2 -> (4pi/3) delta and the diagonal asymptote 1/(2pi^2).

    Checks (a) the total sinc^2(3u/4) mass against 4pi/3 and (b) the
    second moment of the factorized kernel at large x against
    (4pi/3) x^2/(2pi^2).
    """
    target = 4.0 * math.pi / 3.0
    width = 1200.0
    res = adaptive_quad(
        lambda u: np.sinc(0.75 * u / np.pi) ** 2,
        -width,
        width,
        breakpoints=[0.0],
        rel_tol=1e-9,
        max_subdivisions=6000,
    )
    sinc_dev = abs(res.scalar - target) / target

    x0 = 80.0
    res2 = adaptive_quad(
        lambda ys: f_factorized(x0, ys) * ys * ys,
        x0 - 80.0,
        x0 + 80.0,
        breakpoints=[x0],
        rel_tol=1e-9,
        max_subdivisions=6000,
    )
    expected = target * x0 * x0 / (2.0 * math.pi * math.pi)
    moment_dev = abs(res2.scalar - expected) / expected
    worst = max(sinc_dev, moment_dev)
    return DeltaReplacementReport(
        sinc_integral=res.scalar,
        sinc_deviation=sinc_dev,
        moment_deviation=moment_dev,
        max_deviation=worst,
        passed=sinc_dev < 0.005 and moment_dev < 0.02,
    )
