"""Photon spectra and totals for the sudden-transition bubble.

The dimensionless spectrum dN/dx is a y-integral of the squared
Bogolubov overlap over the cutoff rectangle; totals integrate it once
more in x, keeping one sinc width (4pi/3) past the cutoff to capture the
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
from .quadrature import _integrate_rows, adaptive_quad

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
        # include_tails needs a bound; an unused bound must still be valid.
        bounds = {"rel_tol": self.rel_tol, "abs_tol": self.abs_tol}
        if self.include_tails or self.tail_upper_bound is not None:
            bounds["tail_upper_bound"] = self.tail_upper_bound
        for name, v in bounds.items():
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


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


def _integrand(x: np.ndarray, ys: np.ndarray, n_out: float, cfg: MediumConfig, cut: CutoffProfile, kernel_mode: str):
    """Index mismatch weight times squared momentum-mixing ratio times kernel at (x[i], ys[i]).

    ``n_out`` is the created photon's index.
    """
    n_in = np.where(ys <= cut.y_star, cfg.n_gas_in, 1.0)
    dn = n_in - n_out
    ratio = (n_in * x * x + n_out * ys * ys) / (n_in * x + n_out * ys)
    if kernel_mode == "factorized":
        kern = f_factorized(x, ys)
    else:
        kern = np.array([f_exact(float(xi), float(y)).value for xi, y in zip(x, ys)])
    return dn * dn / (2.0 * n_in * n_out) * ratio * ratio * kern


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
    return float(_integrand(np.array([float(x)]), np.array([y]), refractive_out(x, cfg, cut), cfg, cut, kernel_mode)[0])


def _dn_dx_batch(xs: np.ndarray, cfg: MediumConfig, cut: CutoffProfile, quad: QuadratureSpec, kernel_mode: str):
    """dN/dx and its error bound at every x, all y-integrals in one batched quadrature.

    Each y-integral starts from panels split at the lattice y = x + k 4pi/3
    inside (0, y_star): x itself and every zero of the kernel's
    sinc^2(3(x - y)/4) there, so that no starting panel spans more than one
    sinc^2 lobe.  With tails, x and y_star are edges of the tail strip too.

    The created photon keeps the bulk index n_gas_out through the rolloff
    strip x in (x_star, x_star + sinc width]: the strip is populated by
    modes just below the cutoff, and letting the prefactor jump there
    (e.g. from |n_in - n_out| to |n_in - 1|) produces the same
    sudden-approximation artifact as the excluded tail regions.
    """
    y_star = upper = cut.y_star
    if quad.include_tails:
        upper = max(float(quad.tail_upper_bound), y_star)
    every = np.arange(xs.size)
    # Lattice points x + k * width for k from the last one <= 0 to the first >= y_star.
    k_lo = np.floor(-xs / _ROLLOFF_WIDTH)
    counts = (np.ceil((y_star - xs) / _ROLLOFF_WIDTH) - k_lo + 1).astype(int)
    owner = every.repeat(counts)
    k = k_lo[owner] + np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    lattice = xs[owner] + k * _ROLLOFF_WIDTH
    inside = (0.0 < lattice) & (lattice < y_star)
    edges = [lattice[inside], np.zeros(xs.size), np.full(xs.size, upper)]
    owners = [owner[inside], every, every]
    if upper > y_star:
        strip = (xs > y_star) & (xs < upper)
        edges += [xs[strip], np.full(xs.size, y_star)]
        owners += [every[strip], every]
    edges, owners = np.concatenate(edges), np.concatenate(owners)
    order = np.lexsort((edges, owners))
    edges, owners = edges[order], owners[order]
    # Consecutive edges of one row bound a panel.
    same_row = owners[1:] == owners[:-1]
    rows = _integrate_rows(
        lambda ys, row: _integrand(xs[row], ys, cfg.n_gas_out, cfg, cut, kernel_mode),
        np.array([edges[:-1][same_row], edges[1:][same_row]]),
        owners[1:][same_row],
        rel_tol=quad.rel_tol,
        abs_tol=quad.abs_tol,
        max_subdivisions=quad.max_subdivisions,
    )
    return np.array([r.value[0] for r in rows]), np.array([r.error[0] for r in rows])


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
    return float(_dn_dx_batch(np.array([float(x)]), cfg, cut, quad, kernel_mode)[0][0])


def totals(
    cfg: MediumConfig,
    cut: CutoffProfile,
    quad: QuadratureSpec = QuadratureSpec(),
    kernel_mode: str = "factorized",
    grid_points: int = 200,
) -> SpectrumResult:
    """Integrated photon number, mean energy ratio and physical energy.

    The x-integration runs over [0, x_star + one sinc width]; the photon
    number and the energy moment share a single vector-valued pass.
    ``grid_points`` samples of dN/dx are returned for plotting (0 skips
    the grid).
    """
    _check_mode(kernel_mode)
    x_max = cut.x_star + _ROLLOFF_WIDTH
    if quad.include_tails:
        x_max = max(x_max, float(quad.tail_upper_bound))
    grid = np.linspace(0.0, x_max, grid_points)
    if cfg.n_gas_in == cfg.n_gas_out:
        return SpectrumResult(list(map(float, grid)), [0.0] * len(grid), 0.0, 0.0, 0.0, 0.0)

    inner_err = 0.0

    def outer(xs: np.ndarray) -> np.ndarray:
        nonlocal inner_err
        values, errors = _dn_dx_batch(xs, cfg, cut, quad, kernel_mode)
        inner_err = max(inner_err, float(errors.max()))
        return np.vstack([values, xs * values])

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
    # The grid starts at x = 0, where dN/dx vanishes.
    spectrum = [0.0, *map(float, _dn_dx_batch(grid[1:], cfg, cut, quad, kernel_mode)[0])] if grid_points else []
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
