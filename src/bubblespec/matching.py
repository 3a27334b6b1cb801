"""Mode matching at the sphere boundary.

A static mode of the sphere-in-liquid problem is regular Bessel inside
(amplitude A) and a J/N combination outside (amplitudes B, C), joined by
continuity of the radial function and its derivative at the surface.  We
adopt the convention |B|^2 + |C|^2 = 1, which fixes |A|^2, and normalize
the modes against the liquid at spatial infinity.

Only magnitudes are represented; every observable downstream involves
|amplitude|^2, so phases are an unobservable gauge choice here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special_functions import BesselDomainError, ModeOrder, _reduced_det, bessel_jn_half

__all__ = [
    "MediumConfig",
    "MatchingCoefficients",
    "coefficient_a_sq",
    "coefficients_bc",
    "matching_coefficients",
    "normalization_xi",
]

_TWO_OVER_PI = 2.0 / math.pi


@dataclass(frozen=True)
class MediumConfig:
    """Refractive indices and geometry of the bubble/liquid system.

    ``n_gas_in`` and ``n_gas_out`` are the gas indices before and after
    the sudden transition; the liquid index is taken frequency independent.
    ``radius`` is in nm, ``k_observed`` in rad/nm (the momentum cutoff of
    the observed photons, measured in the liquid).
    """

    n_gas_in: float
    n_gas_out: float
    n_liquid: float = 1.3
    radius: float = 500.0
    k_observed: float = 2.0 * math.pi / 200.0

    def __post_init__(self) -> None:
        for name in ("n_gas_in", "n_gas_out", "n_liquid", "radius", "k_observed"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")

    @property
    def cutoff_product(self) -> float:
        """(n_gas_out / n_liquid) * radius * k_observed."""
        return self.n_gas_out / self.n_liquid * self.radius * self.k_observed


@dataclass(frozen=True)
class MatchingCoefficients:
    """|A|^2, B, C and |Xi| for a single mode order.

    ``xi_abs`` carries units 1/kappa; everything else is dimensionless.
    """

    a_sq: float
    b: float
    c: float
    xi_abs: float


def _amplitudes(order: ModeOrder, y: float, index_ratio: float) -> tuple[float, float, float]:
    """|A|^2, B and C from the two 2x2 determinants of the matching system.

    D1 pairs the inside J column with the outside N column, D2 with the
    outside J column, both at surface arguments (y inside, N*y outside).
    |A|^2 = (4/pi^2) / (D1^2 + D2^2) and (B, C) = (D1, -D2)/hypot(D1, D2).
    """
    if y <= 0.0 or index_ratio <= 0.0:
        raise BesselDomainError(
            f"matching requires y > 0 and index ratio > 0, got y={y}, ratio={index_ratio}"
        )
    ny = index_ratio * y
    inside = bessel_jn_half(order, y)
    outside = bessel_jn_half(order, ny)
    d1 = _reduced_det(inside.j, inside.j_prev, y, outside.n, outside.n_prev, ny)
    d2 = _reduced_det(inside.j, inside.j_prev, y, outside.j, outside.j_prev, ny)
    h = math.hypot(d1, d2)
    return _TWO_OVER_PI * _TWO_OVER_PI / (d1 * d1 + d2 * d2), d1 / h, -d2 / h


def coefficient_a_sq(order: ModeOrder, y: float, index_ratio: float) -> float:
    """|A_nu|^2 at surface argument y with outside/inside index ratio.

    Reduces to 1 for index_ratio = 1 because the determinants collapse to
    the Wronskian 2/pi.
    """
    return _amplitudes(order, y, index_ratio)[0]


def coefficients_bc(order: ModeOrder, y: float, index_ratio: float) -> tuple[float, float]:
    """(B, C) with B^2 + C^2 = 1, B > 0 in the homogeneous limit.

    Normalizing by hypot enforces the unit-circle convention exactly.
    """
    _, b, c = _amplitudes(order, y, index_ratio)
    return b, c


def normalization_xi(kappa: float, n_liquid: float) -> float:
    """|Xi| = 1 / (sqrt(2 n_liquid) * kappa), the liquid-side mode norm."""
    if kappa <= 0.0:
        raise BesselDomainError(f"kappa must be positive, got {kappa}")
    if n_liquid <= 0.0:
        raise BesselDomainError(f"n_liquid must be positive, got {n_liquid}")
    return 1.0 / (math.sqrt(2.0 * n_liquid) * kappa)


def matching_coefficients(
    order: ModeOrder, y: float, index_ratio: float, kappa: float, n_liquid: float
) -> MatchingCoefficients:
    """Bundle |A|^2, (B, C) and |Xi| for one mode."""
    a_sq, b, c = _amplitudes(order, y, index_ratio)
    return MatchingCoefficients(a_sq=a_sq, b=b, c=c, xi_abs=normalization_xi(kappa, n_liquid))
