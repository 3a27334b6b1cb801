"""Two-photon creation kernel of the sudden-transition sphere.

The exact kernel F(x, y) is an angular-momentum sum over squared
pseudo-Wronskians weighted by the wall-matching amplitudes.  Its diagonal
D(x) = F(x, x) tends to 1/(2 pi^2) for large argument, recovering the
homogeneous-medium result, and the whole kernel is well approximated by
the factorized smeared-delta form used for production spectra.

Frequency dispersion is modeled as a sharp momentum cutoff: the gas
refractive index equals its bulk value below the cutoff and 1 above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import MediumConfig, coefficient_a_sq
# bessel_jn_half is unused here but perfbench/test_perfbench.py reads it.
from .special_functions import (
    BesselDomainError,
    ModeOrder,
    _reduced_det,
    _reduced_det_diagonal,
    bessel_jn_half,
    half_integer_j_array,
    tail_term_scale,
)

__all__ = [
    "CutoffProfile",
    "KernelValue",
    "KernelConvergenceError",
    "refractive_in",
    "refractive_out",
    "f_exact",
    "d_exact",
    "d_approx",
    "f_factorized",
    "default_l_max",
]

# Hard ceiling on the angular-momentum sum; the adaptive truncation must
# certify its tail below this order or the evaluation is rejected.
_L_HARD_CAP = 200
# Relative tail budget for the adaptive truncation.
_TAIL_REL = 1e-8
# Below _DIAG_BAND * min(x, y, 1) the ratio W~/(x^2 - y^2) is evaluated
# through its analytic diagonal limit at the midpoint, which is off by
# about (0.22 + 0.75/x^2) (x - y)^2 relative; the direct form loses digits
# to cancellation instead (~1e-10 at the band edge against 40-digit sums).
# Both stay inside the 1e-8 tail budget from x ~ 0.1 up to the cap.
_DIAG_BAND = 1e-4
# The tail certifies within a few orders of where its bound applies; J
# sequences reach this far past that order before falling back to the cap.
_L_MARGIN = 8

_HALF_ASYMPTOTE = 1.0 / (2.0 * math.pi * math.pi)
_D_FIT_SCALE = 250.0
# The factorized form carries (x+y)^6/(16000 + (x+y)^6); 16000 = 2^6 * 250
# so that the diagonal x = y reproduces the fitted D((x+y)/2).
_F_FIT_SCALE = 16000.0


class KernelConvergenceError(ArithmeticError):
    """Angular-momentum sum failed to certify its tail by the hard cap."""

    def __init__(self, message: str, partial: float, l_reached: int):
        super().__init__(message)
        self.partial = partial
        self.l_reached = l_reached


@dataclass(frozen=True)
class CutoffProfile:
    """Dimensionless momentum cutoffs of the dispersive step model."""

    x_star: float
    y_star: float

    def __post_init__(self) -> None:
        if self.x_star <= 0.0 or self.y_star <= 0.0:
            raise ValueError(f"cutoffs must be positive, got {self.x_star}, {self.y_star}")

    @classmethod
    def from_config(cls, cfg: MediumConfig) -> "CutoffProfile":
        """Cutoffs (n_gas_out/n_liquid) * radius * k_observed on both axes."""
        c = cfg.cutoff_product
        return cls(x_star=c, y_star=c)

    @classmethod
    def rounded(cls, cfg: MediumConfig) -> "CutoffProfile":
        """Cutoffs (n_gas_out/n_liquid) * 15, the rounded reference value.

        The default geometry gives radius * k_observed = 5 pi = 15.708; the
        reference results quote the rounded 15, so reproduction paths use
        this constructor while from_config keeps the exact product.
        """
        c = cfg.n_gas_out / cfg.n_liquid * 15.0
        return cls(x_star=c, y_star=c)


@dataclass(frozen=True)
class KernelValue:
    """F(x, y) together with the truncation actually applied."""

    value: float
    l_used: int
    truncation_error_estimate: float


def refractive_in(y: float, cfg: MediumConfig, cut: CutoffProfile) -> float:
    """Gas index before the transition: n_gas_in below the cutoff, 1 above.

    Left-continuous: the bulk value applies at y = y_star exactly.
    """
    return cfg.n_gas_in if y <= cut.y_star else 1.0


def refractive_out(x: float, cfg: MediumConfig, cut: CutoffProfile) -> float:
    """Gas index after the transition: n_gas_out below the cutoff, 1 above."""
    return cfg.n_gas_out if x <= cut.x_star else 1.0


def default_l_max(cfg: MediumConfig) -> int:
    """Angular-momentum truncation matched to the momentum cutoff."""
    return max(1, round(cfg.cutoff_product))


def _pw_ratios(x: float, y: float, l_size: int) -> list[float]:
    """W~_nu(x, y)/(x^2 - y^2) for l = 1..l_size, stable through the diagonal.

    One J_{l+1/2} sequence per argument (or at the midpoint in the
    diagonal band) serves every order.
    """
    if abs(x - y) < _DIAG_BAND * min(x, y, 1.0):
        m = 0.5 * (x + y)
        j = half_integer_j_array(l_size, m)
        return [_reduced_det_diagonal(l + 0.5, m, j[l], j[l - 1]) / (x + y) for l in range(1, l_size + 1)]
    jx = half_integer_j_array(l_size, x)
    jy = half_integer_j_array(l_size, y)
    d = x * x - y * y
    return [_reduced_det(jx[l], jx[l - 1], x, jy[l], jy[l - 1], y) / d for l in range(1, l_size + 1)]


def _a_product(order: ModeOrder, x: float, y: float, cfg: MediumConfig, cut: CutoffProfile) -> float:
    """|A^in(y)|^2 |A^out(x)|^2; identically 1 above the respective cutoffs."""
    a_in = 1.0 if y > cut.y_star else coefficient_a_sq(order, y, cfg.n_liquid / cfg.n_gas_in)
    a_out = 1.0 if x > cut.x_star else coefficient_a_sq(order, x, cfg.n_liquid / cfg.n_gas_out)
    return a_in * a_out


def _tail_term(l: int, x: float, y: float, cfg: MediumConfig | None, cut: CutoffProfile | None) -> float:
    """Majorant of the l-th kernel term, A-factor product included when cfg is given."""
    s = tail_term_scale(ModeOrder(l), x, y)
    bound = (2 * l + 1) * s * s
    if cfg is None:
        return bound
    nu = l + 0.5
    if cut is None or y <= cut.y_star:
        bound *= max(1.0, (cfg.n_liquid / cfg.n_gas_in) ** (2.0 * nu))
    if cut is None or x <= cut.x_star:
        bound *= max(1.0, (cfg.n_liquid / cfg.n_gas_out) ** (2.0 * nu))
    return bound


def f_exact(
    x: float,
    y: float,
    cfg: MediumConfig | None = None,
    l_max: int = _L_HARD_CAP,
    *,
    with_a_factors: bool = False,
    cut: CutoffProfile | None = None,
) -> KernelValue:
    """Exact kernel F(x, y) = sum_{l>=1} (2l+1) |A^in|^2 |A^out|^2 W~^2/(x^2-y^2)^2.

    The sum stops at min(l_max, adaptive order) where the adaptive order is
    certified by the large-order tail bound falling below 1e-8 of the
    partial sum.  ``with_a_factors`` enables the wall amplitudes (requires
    cfg); the default A = 1 matches the diagonal study and the factorized
    approximation.
    """
    if x <= 0.0 or y <= 0.0:
        raise BesselDomainError(f"kernel arguments must be positive, got x={x}, y={y}")
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    if with_a_factors and cfg is None:
        raise ValueError("with_a_factors requires a MediumConfig")
    cap = min(l_max, _L_HARD_CAP)
    a_cfg = cfg if with_a_factors else None
    # The tail bound holds for nu = l + 1/2 > half_e_m.
    half_e_m = math.e * max(x, y) / 2.0
    # Sized independently of l_max so that every truncation sees the same terms.
    ratios = _pw_ratios(x, y, min(_L_HARD_CAP, int(half_e_m) + _L_MARGIN))
    terms: list[float] = []
    acc = 0.0
    l = 0
    tail_est = math.inf
    while l < cap:
        l += 1
        if l > len(ratios):
            ratios = _pw_ratios(x, y, _L_HARD_CAP)
        r = ratios[l - 1]
        t = (2 * l + 1) * r * r
        if with_a_factors:
            t *= _a_product(ModeOrder(l), x, y, cfg, cut)
        terms.append(t)
        acc += t
        # Certify the remainder once the asymptotic regime is reached.
        if l + 1.5 <= half_e_m:
            continue
        b1 = _tail_term(l + 1, x, y, a_cfg, cut)
        b2 = _tail_term(l + 2, x, y, a_cfg, cut)
        ratio = b2 / b1 if b1 > 0.0 else 0.0
        if ratio < 0.9:
            tail_est = b1 / (1.0 - ratio)
            if tail_est <= _TAIL_REL * max(acc, 1e-300):
                return KernelValue(value=math.fsum(terms), l_used=l, truncation_error_estimate=tail_est)
    value = math.fsum(terms)
    if l_max >= _L_HARD_CAP and (not math.isfinite(tail_est) or tail_est > _TAIL_REL * max(value, 1e-300)):
        raise KernelConvergenceError(
            f"kernel tail not certified by l={_L_HARD_CAP} at (x, y)=({x}, {y})", value, l
        )
    # Caller-imposed truncation: report the best tail knowledge we have.
    est = tail_est if math.isfinite(tail_est) else abs(terms[-1])
    return KernelValue(value=value, l_used=l, truncation_error_estimate=est)


def d_exact(x: float, l_max: int = _L_HARD_CAP) -> float:
    """Diagonal kernel D(x) = F(x, x) with unit wall amplitudes."""
    return f_exact(x, x, l_max=l_max).value


def d_approx(x):
    """Fitted diagonal (1/2pi^2) x^6/(250 + x^6); asymptote 1/(2 pi^2)."""
    x = np.asarray(x, dtype=float)
    x6 = x**6
    out = _HALF_ASYMPTOTE * x6 / (_D_FIT_SCALE + x6)
    return out if out.ndim else float(out)


def f_factorized(x, y):
    """Factorized kernel D((x+y)/2) * sinc^2(3(x-y)/4), array-friendly.

    The removable singularity at x = y is handled by sinc; on the diagonal
    the value reduces exactly to d_approx(x) because 16000 = 2^6 * 250.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = x + y
    s6 = s**6
    hump = _HALF_ASYMPTOTE * s6 / (_F_FIT_SCALE + s6)
    # np.sinc(t) = sin(pi t)/(pi t); we need sin(u)/u with u = 3(x-y)/4.
    sinc = np.sinc(0.75 * (x - y) / np.pi)
    out = hump * sinc * sinc
    return out if out.ndim else float(out)
