"""Two-photon creation kernel of the sudden-transition sphere.

The exact kernel F(x, y) is an angular-momentum sum over squared
pseudo-Wronskians with unit wall amplitudes (the amplitudes themselves
are in ``matching``).  Its diagonal D(x) = F(x, x) tends to 1/(2 pi^2)
for large argument, recovering the homogeneous-medium result, and the
whole kernel is well approximated by the factorized smeared-delta form
used for production spectra.

Frequency dispersion is modeled as a sharp momentum cutoff: the gas
refractive index equals its bulk value below the cutoff and 1 above.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .matching import MediumConfig
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
]

# Relative tail budget for the adaptive truncation.
_TAIL_REL = 1e-8
# Below _DIAG_BAND * min(x, y, 1) the ratio W~/(x^2 - y^2) is evaluated
# through its analytic diagonal limit at the midpoint, which is off by
# about (0.22 + 0.75/x^2) (x - y)^2 relative; the direct form loses digits
# to cancellation instead (~1e-10 at the band edge against 40-digit sums).
# Both stay inside the 1e-8 tail budget from x ~ 0.1 up.
_DIAG_BAND = 1e-4
# At small m the two parts of the diagonal l = 1 limit cancel to about
# 0.044 m^2 of their size; below this fraction (m < ~1e-3) the rounding of
# the parts alone would exceed the tail budget in the dominant term.
_DIAG_RESOLUTION = 2.0 * sys.float_info.epsilon / _TAIL_REL
# The tail certifies within a few orders of where its bound applies; the
# term table reaches this far past that order, and the sum fails if its
# tail is not certified by the end of the table.
_L_MARGIN = 8

_HALF_ASYMPTOTE = 1.0 / (2.0 * math.pi * math.pi)
_D_FIT_SCALE = 250.0
# The factorized form carries (x+y)^6/(16000 + (x+y)^6); 16000 = 2^6 * 250
# so that the diagonal x = y reproduces the fitted D((x+y)/2).
_F_FIT_SCALE = 16000.0


class KernelConvergenceError(ArithmeticError):
    """Unit-amplitude angular-momentum sum unresolved in doubles (tiny argument) or uncertified at the end of its table.

    Tiny arguments: a non-finite term, a diagonal l = 1 term lost to
    cancellation, or a kernel too small for its 1e-8 tail budget to be a
    normal double.  End of table (a guard): ``partial`` sums the whole
    table and ``l_reached`` is its size.
    """

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


def _pw_ratios(x: float, y: float, l_size: int) -> list[float]:
    """W~_nu(x, y)/(x^2 - y^2) for l = 0..l_size (l_size >= 1), stable through the diagonal.

    One J_{l+1/2} sequence per argument (or at the midpoint in the
    diagonal band) serves every order; its last entry, order -1/2, is the
    lower neighbour of l = 0.  Exactly symmetric under x <-> y.
    """
    if abs(x - y) < _DIAG_BAND * min(x, y, 1.0):
        m = 0.5 * (x + y)
        j = half_integer_j_array(l_size, m)
        if _reduced_det_diagonal(1.5, m, j[1], j[0]) <= _DIAG_RESOLUTION * m * (j[1] * j[1] + j[0] * j[0]):
            raise KernelConvergenceError(
                f"diagonal l=1 term lost to cancellation at (x, y)=({x}, {y}): tiny argument", 0.0, 1
            )
        return [_reduced_det_diagonal(l + 0.5, m, j[l], j[l - 1]) / (x + y) for l in range(l_size + 1)]
    # Off the band x^2 - y^2 underflows to 0 only where the J values are out of range too.
    d = x * x - y * y or math.nan
    jx = half_integer_j_array(l_size, x)
    jy = half_integer_j_array(l_size, y)
    return [_reduced_det(jx[l], jx[l - 1], x, jy[l], jy[l - 1], y) / d for l in range(l_size + 1)]


def _kernel_terms(x: float, y: float, size: int) -> list[float]:
    """(2l+1) (W~/(x^2 - y^2))^2 for l = 1..size."""
    return [(2 * l + 1) * r * r for l, r in enumerate(_pw_ratios(x, y, size)[1:], 1)]


def f_exact(x: float, y: float) -> KernelValue:
    """Exact kernel F(x, y) = sum_{l>=1} (2l+1) W~^2/(x^2-y^2)^2 with unit wall amplitudes.

    The sum stops where the large-order tail bound (nu > e*max(x, y)/2)
    falls below 1e-8 of the partial sum, inside one table of
    int(e*max(x, y)/2) + _L_MARGIN terms; past it KernelConvergenceError.
    Unit amplitudes match the diagonal study and the factorized
    approximation; the wall amplitudes themselves are in ``matching``.
    """
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise BesselDomainError(f"kernel arguments must be positive and finite, got x={x}, y={y}")
    # The tail bound holds for nu = l + 1/2 > half_e_m.
    half_e_m = math.e * max(x, y) / 2.0
    terms = _kernel_terms(x, y, int(half_e_m) + _L_MARGIN)
    acc = 0.0
    for l, t in enumerate(terms, 1):
        if not math.isfinite(t):
            cause = "Bessel values out of double range at a tiny argument"
            raise KernelConvergenceError(f"non-finite kernel term at l={l}, (x, y)=({x}, {y}): {cause}", acc, l)
        acc += t
        # Certify the remainder once the asymptotic regime is reached.
        if l + 1.5 <= half_e_m:
            continue
        if _TAIL_REL * acc < sys.float_info.min:
            raise KernelConvergenceError(
                f"tail budget below the double range at l={l}, (x, y)=({x}, {y}): tiny argument", acc, l
            )
        s1 = tail_term_scale(ModeOrder(l + 1), x, y)
        s2 = tail_term_scale(ModeOrder(l + 2), x, y)
        b1 = (2 * l + 3) * s1 * s1
        b2 = (2 * l + 5) * s2 * s2
        ratio = b2 / b1 if b1 > 0.0 else 0.0
        if ratio < 0.9:
            tail_est = b1 / (1.0 - ratio)
            if tail_est <= _TAIL_REL * acc:
                return KernelValue(value=math.fsum(terms[:l]), l_used=l, truncation_error_estimate=tail_est)
    raise KernelConvergenceError(f"kernel tail not certified by l={l} at (x, y)=({x}, {y})", math.fsum(terms), l)


def d_exact(x: float) -> float:
    """Diagonal kernel D(x) = F(x, x) with unit wall amplitudes."""
    return f_exact(x, x).value


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
