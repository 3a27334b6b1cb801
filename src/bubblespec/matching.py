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
import numbers
import sys
from dataclasses import dataclass

from .special_functions import BesselDomainError, ModeOrder, _reduced_det, half_integer_j_array, half_integer_n_array

__all__ = [
    "MediumConfig",
    "MatchingCoefficients",
    "wall_amplitudes",
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
    ``radius`` is in nm and sets only the physical energy and frequency
    scales; the dimensionless cutoffs come from ``CutoffProfile.rounded``.
    """

    n_gas_in: float
    n_gas_out: float
    n_liquid: float = 1.3
    radius: float = 500.0

    def __post_init__(self) -> None:
        _require_positive_finite(self, "n_gas_in", "n_gas_out", "n_liquid", "radius")


def _require_positive_finite(obj: object, *names: str) -> None:
    """ValueError unless each named attribute of ``obj`` is a positive finite real (not bool); stores a float."""
    for name in names:
        v = getattr(obj, name)
        # A rational (an int too) compares exactly: one past the double range is refused, not overflowed.
        real = isinstance(v, numbers.Real) and not isinstance(v, bool)
        if not (real and v > 0 and (v <= sys.float_info.max if isinstance(v, numbers.Rational) else math.isfinite(v))):
            raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        object.__setattr__(obj, name, float(v))


@dataclass(frozen=True)
class MatchingCoefficients:
    """|A|^2, B, C and |Xi| for a single mode order.

    ``xi_abs`` carries units 1/kappa; everything else is dimensionless.
    """

    a_sq: float
    b: float
    c: float
    xi_abs: float


def wall_amplitudes(l_max: int, y: float, index_ratio: float) -> list[tuple[float, float, float]]:
    """(|A_l|^2, B_l, C_l) for l = 0..l_max from one Bessel table per surface argument.

    D1 pairs the inside J column with the outside N column, D2 with the
    outside J column, both at surface arguments (y inside, N*y outside).
    |A|^2 = (4/pi^2) / (D1^2 + D2^2) and (B, C) = (D1, -D2)/hypot(D1, D2).
    Orders whose Bessel values under- or overflowed get inf or NaN entries
    instead of raising, so a table may run past the orders a caller uses.
    A surface argument outside the Bessel domain raises BesselDomainError.
    """
    ny = index_ratio * y
    j_in = half_integer_j_array(l_max, y)
    j_out, n_out = half_integer_j_array(l_max, ny), half_integer_n_array(l_max, ny)
    rows = []
    for l in range(l_max + 1):
        d1 = _reduced_det(j_in[l], j_in[l - 1], y, n_out[l], n_out[l - 1], ny)
        d2 = _reduced_det(j_in[l], j_in[l - 1], y, j_out[l], j_out[l - 1], ny)
        q = d1 * d1 + d2 * d2
        h = math.hypot(d1, d2)
        rows.append((_TWO_OVER_PI * _TWO_OVER_PI / q, d1 / h, -d2 / h) if q else (math.inf, math.nan, math.nan))
    return rows


def _amplitudes(order: ModeOrder, y: float, index_ratio: float) -> tuple[float, float, float]:
    """|A|^2, B and C of one order; BesselDomainError where they are not finite."""
    row = wall_amplitudes(order.l, y, index_ratio)[order.l]
    if not all(map(math.isfinite, row)):
        raise BesselDomainError(f"wall amplitudes of order l={order.l} are not finite at y={y}, ratio={index_ratio}")
    return row


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
    return _amplitudes(order, y, index_ratio)[1:]


def normalization_xi(kappa: float, n_liquid: float) -> float:
    """|Xi| = 1 / (sqrt(2 n_liquid) * kappa), the liquid-side mode norm."""
    for name, v in (("kappa", kappa), ("n_liquid", n_liquid)):
        if not 0.0 < v < math.inf:
            raise BesselDomainError(f"{name} must be positive and finite, got {v}")
    return 1.0 / (math.sqrt(2.0 * n_liquid) * kappa)


def matching_coefficients(
    order: ModeOrder, y: float, index_ratio: float, kappa: float, n_liquid: float
) -> MatchingCoefficients:
    """Bundle |A|^2, (B, C) and |Xi| for one mode."""
    return MatchingCoefficients(*_amplitudes(order, y, index_ratio), xi_abs=normalization_xi(kappa, n_liquid))
