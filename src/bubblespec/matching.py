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

import numpy as np

from .special_functions import BesselDomainError, ModeOrder, _half_integer_columns, _reduced_det, _require_domain

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
    ``radius`` is in nm and sets only the physical energy and frequency
    scales; the dimensionless cutoffs come from ``CutoffProfile.rounded``.
    """

    n_gas_in: float
    n_gas_out: float
    n_liquid: float = 1.3
    radius: float = 500.0

    def __post_init__(self) -> None:
        _require_positive_finite(self, "n_gas_in", "n_gas_out", "n_liquid", "radius")


def _positive_finite(name: str, v: object, error: type[ValueError] = ValueError) -> float:
    """float(v), the package's one positive-finite rule: error "<name> must be ..." unless v is such a real, not bool."""
    # A rational (an int too) compares exactly: one past the double range is refused, not overflowed.
    real = isinstance(v, numbers.Real) and not isinstance(v, bool)
    if not (real and v > 0 and (v <= sys.float_info.max if isinstance(v, numbers.Rational) else math.isfinite(v))):
        raise error(f"{name} must be a positive finite number, got {v!r}")
    return float(v)


def _require_positive_finite(obj: object, *names: str) -> None:
    """ValueError unless each named attribute of ``obj`` is a positive finite real (``_positive_finite``); stores it."""
    for name in names:
        object.__setattr__(obj, name, _positive_finite(name, getattr(obj, name)))


@dataclass(frozen=True)
class MatchingCoefficients:
    """|A|^2, B, C and |Xi| for a single mode order.

    ``xi_abs`` carries units 1/kappa; everything else is dimensionless.
    """

    a_sq: float
    b: float
    c: float
    xi_abs: float


def _wall_rows(j_in, j_in_prev, y, j_out, j_out_prev, n_out, n_out_prev, ny) -> tuple[np.ndarray, ...]:
    """|A|^2, B and C arrays from J and N of orders nu and nu - 1 at the surface arguments y (inside) and ny (outside).

    D1 pairs the inside J with the outside N, D2 with the outside J.
    |A|^2 = (4/pi^2) / (D1^2 + D2^2) and (B, C) = (D1, -D2)/hypot(D1, D2),
    or (inf, nan, nan) where D1^2 + D2^2 is 0.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d1 = _reduced_det(j_in, j_in_prev, y, n_out, n_out_prev, ny)
        d2 = _reduced_det(j_in, j_in_prev, y, j_out, j_out_prev, ny)
        q = d1 * d1 + d2 * d2
        # CPython's own hypot (not libm's since Python 3.10): the amplitudes' last bits, frozen in `check --json`,
        # are its; np.hypot (libm) differs from it in the last bit on a few pairs in 1000.
        h = np.array(list(map(math.hypot, d1.tolist(), d2.tolist())))
        return _TWO_OVER_PI * _TWO_OVER_PI / q, np.where(q != 0, d1 / h, np.nan), np.where(q != 0, -d2 / h, np.nan)


def _amplitudes(order: ModeOrder, y: float, index_ratio: float) -> tuple[float, float, float]:
    """|A|^2, B and C of one order: one draw of ``_amplitudes_at``, the raw y and index ratio checked first."""
    (y,) = _require_domain(z=y)
    try:
        ratio = np.array([index_ratio], dtype=float)
    except OverflowError:  # an int past the double range
        ratio = np.array([_positive_finite("index_ratio", index_ratio, BesselDomainError)])
    rows = _amplitudes_at(np.array([order.l]), y.reshape(1), ratio)
    return tuple(r.item() for r in rows)


def _amplitudes_at(l: np.ndarray, y: np.ndarray, index_ratio: np.ndarray) -> tuple[np.ndarray, ...]:
    """|A|^2, B and C arrays at draws (l[a], y[a], index_ratio[a]), a draw's values independent of its batch.

    One J table and one N table over the inside and outside arguments
    (``_half_integer_columns``).  BesselDomainError names the first surface
    argument outside the Bessel domain, else the first draw whose amplitudes
    are not finite (inside J underflowed, outside N overflowed).
    """
    ny = index_ratio * y
    # Columns y[0], ny[0], y[1], ...: a domain error names the argument a loop over the draws would meet first.
    j, j_prev, n, n_prev, _ = _half_integer_columns(np.repeat(l, 2), np.stack([y, ny], axis=1).ravel())
    rows = _wall_rows(j[::2], j_prev[::2], y, j[1::2], j_prev[1::2], n[1::2], n_prev[1::2], ny)
    bad = ~np.isfinite(rows).all(axis=0)
    if bad.any():
        a = int(bad.argmax())
        l_a, y_a, ratio_a = int(l[a]), float(y[a]), float(index_ratio[a])
        raise BesselDomainError(f"wall amplitudes of order l={l_a} are not finite at y={y_a}, ratio={ratio_a}")
    return rows


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
    """|Xi| = 1 / (sqrt(2 n_liquid) * kappa), the liquid-side mode norm; BesselDomainError unless both are positive."""
    kappa = _positive_finite("kappa", kappa, BesselDomainError)
    n_liquid = _positive_finite("n_liquid", n_liquid, BesselDomainError)
    return 1.0 / (math.sqrt(2.0 * n_liquid) * kappa)


def matching_coefficients(
    order: ModeOrder, y: float, index_ratio: float, kappa: float, n_liquid: float
) -> MatchingCoefficients:
    """Bundle |A|^2, (B, C) and |Xi| for one mode."""
    return MatchingCoefficients(*_amplitudes(order, y, index_ratio), xi_abs=normalization_xi(kappa, n_liquid))
