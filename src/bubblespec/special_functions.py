"""Numerically stable half-integer-order Bessel machinery.

Everything here reduces to spherical Bessel functions through
J_{l+1/2}(z) = sqrt(2z/pi) * j_l(z) (and likewise for the Neumann
functions).  The regular solution j is generated by downward (Miller)
recurrence normalized against closed-form low orders, the irregular
solution y by upward recurrence from its closed forms; each direction
is the numerically stable one for its solution.  Each table ends with
order -1/2, so index l - 1 reads the order below l for l = 0 too.
Derivatives are never finite-differenced: z J'_nu(z) = z J_{nu-1}(z) - nu J_nu(z).

All functions are pure; values are freely shareable across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ModeOrder",
    "BesselPair",
    "AsymptoticRegimeError",
    "BesselDomainError",
    "bessel_jn_half",
    "half_integer_j_array",
    "half_integer_n_array",
]

# Downward recurrence start margin.  Contamination by the irregular
# solution is damped by at least a factor ~4 per step once the order
# exceeds the argument, so 40 extra steps give > 1e-24 suppression.
_MILLER_MARGIN = 40
# Downward recurrence values are rescaled by 2**-_RESCALE_EXP once they
# pass 2**_RESCALE_EXP, or sooner at arguments so small that one step could
# overflow from there.
_RESCALE_EXP = 830
_UNDERFLOW_FLOOR = 1e-300
_BOUND_SAFETY = 10.0


class BesselDomainError(ValueError):
    """Argument outside the supported domain (z <= 0 or not finite), or wall amplitudes that are not finite there."""


class AsymptoticRegimeError(ValueError):
    """tail_term_scale called below its validity region nu > e*max(x,y)/2."""


@dataclass(frozen=True)
class ModeOrder:
    """Angular momentum l with half-integer Bessel order nu = l + 1/2.

    Physical photon modes have l >= 1 (no monopole radiation); l = 0 is
    permitted for internal math use only.
    """

    l: int

    def __post_init__(self) -> None:
        if not isinstance(self.l, int) or self.l < 0:
            raise ValueError(f"angular momentum must be a non-negative integer, got {self.l!r}")

    @property
    def nu(self) -> float:
        return self.l + 0.5


@dataclass(frozen=True)
class BesselPair:
    """J and N of orders nu and nu-1 at a common argument z.

    ``saturated`` is set when J underflowed to exact zero or N overflowed
    to +-inf; values are clamped, never NaN.
    """

    j: float
    n: float
    j_prev: float
    n_prev: float
    z: float
    saturated: bool = False


def _sph_jn_seq(l_max: int, z: float) -> list[float]:
    """Spherical j_0..j_{l_max} at z > 0, then j_{-1}(z) = cos(z)/z as the last entry."""
    j0 = math.sin(z) / z
    jm1 = math.cos(z) / z
    j1 = j0 / z - jm1
    if z >= l_max:
        # Oscillatory regime throughout: upward recurrence is stable.
        out = [j0, j1]
        for l in range(1, l_max):
            out.append((2 * l + 1) / z * out[l] - out[l - 1])
        return out[: l_max + 1] + [jm1]

    out = [0.0] * (l_max + 1)
    start = l_max + _MILLER_MARGIN
    # A step multiplies by at most growth, so values at or below limit stay
    # finite through it; rescaling by at least growth brings them back
    # below limit.  Both are powers of two, so rescaling is exact.
    growth = math.frexp((2 * start + 1) / z + 1.0)[1]  # log2 of the bound, rounded up
    limit_exp = min(_RESCALE_EXP, 1023 - growth)
    limit = math.ldexp(1.0, limit_exp)
    inv = math.ldexp(1.0, -max(limit_exp, growth))
    jp = 0.0  # ~ j_{start+1}
    jc = 1e-30  # ~ j_{start}, arbitrary seed scale
    for l in range(start, 0, -1):
        if l <= l_max:
            out[l] = jc
        jm = (2 * l + 1) / z * jc - jp
        jp, jc = jc, jm
        if abs(jc) > limit:
            jp *= inv
            jc *= inv
            # out[l] was stored this iteration and carries the old scale.
            for k in range(min(l, l_max), l_max + 1):
                out[k] *= inv
    # jc now holds the unnormalized j_0; normalize against whichever
    # closed form is farther from its zero.
    out[0] = jc
    if abs(j0) >= abs(j1):
        scale = j0 / out[0] if out[0] != 0.0 else 0.0
    else:
        scale = j1 / out[1] if out[1] != 0.0 else 0.0
    return [v * scale for v in out] + [jm1]


def _sph_yn_seq(l_max: int, z: float) -> tuple[list[float], bool]:
    """Spherical y_0..y_{l_max}, then y_{-1}(z) = sin(z)/z last; flag reports overflow saturation."""
    ym1 = math.sin(z) / z
    y0 = -math.cos(z) / z
    out = [y0, y0 / z - ym1]
    for l in range(1, l_max):
        nxt = (2 * l + 1) / z * out[l] - out[l - 1]
        if math.isinf(nxt) or abs(nxt) > 1e307:
            # Once |y| saturates, the dominant term fixes the sign of all
            # following orders; clamp rather than propagate inf - inf.
            sign = math.copysign(1.0, out[l])
            out.extend(sign * math.inf for _ in range(l_max - l))
            return out + [ym1], True
        out.append(nxt)
    return out[: l_max + 1] + [ym1], False


def _half_order_scale(z: float) -> float:
    """sqrt(2z/pi), the factor taking spherical to half-integer-order Bessel functions at 0 < z < inf."""
    if not 0.0 < z < math.inf:
        raise BesselDomainError(f"argument must be positive and finite, got {z}")
    return math.sqrt(2.0 * z / math.pi)


def half_integer_j_array(l_max: int, z: float) -> list[float]:
    """J_{l+1/2}(z) for l = 0..l_max, then J_{-1/2}(z) last; unclamped, unlike bessel_jn_half's J_nu."""
    s = _half_order_scale(z)
    return [s * v for v in _sph_jn_seq(l_max, z)]


def half_integer_n_array(l_max: int, z: float) -> list[float]:
    """N_{l+1/2}(z) for l = 0..l_max, then N_{-1/2}(z) last; overflow saturates to +-inf."""
    s = _half_order_scale(z)
    return [s * v for v in _sph_yn_seq(l_max, z)[0]]


def bessel_jn_half(order: ModeOrder, z: float) -> BesselPair:
    """J_nu, N_nu, J_{nu-1}, N_{nu-1} at z for nu = l + 1/2: entries l and l - 1 of the tables, scaled alone."""
    l = order.l
    s = _half_order_scale(z)
    jseq = _sph_jn_seq(l, z)
    yseq, saturated = _sph_yn_seq(l, z)
    j = s * jseq[l]
    clamped = 0.0 < abs(j) < _UNDERFLOW_FLOOR
    return BesselPair(
        j=0.0 if clamped else j, n=s * yseq[l], j_prev=s * jseq[l - 1], n_prev=s * yseq[l - 1], z=z,
        saturated=saturated or clamped,
    )


def _reduced_det(ja: float, ja_prev: float, a: float, gb: float, gb_prev: float, b: float) -> float:
    """det[[J_nu(a), G_nu(b)], [a J'_nu(a), b G'_nu(b)]] for a cylinder function G.

    The derivative row is eliminated with z C'_nu = z C_{nu-1} - nu C_nu;
    the nu-terms cancel, leaving J(a) b G_{nu-1}(b) - G(b) a J_{nu-1}(a).
    """
    return ja * b * gb_prev - gb * a * ja_prev


def _reduced_det_diagonal(nu: float, z: float, j: float, j_prev: float) -> float:
    """lim_{b->a} _reduced_det(J at a, J at b)/(a - b) at a = z."""
    return z * (j * j + j_prev * j_prev) - 2.0 * nu * j * j_prev


def _asymptotic_pw_scale(nu: float, x: float, y: float) -> float:
    """Large-order magnitude of |W~_nu(x,y)| / |x^2 - y^2|, without safety factor."""
    if x <= 0.0 or x * y <= 0.0:  # zero also where x*y underflows
        return 0.0
    log_mag = (
        -math.log(2.0 * math.pi)
        - 0.5 * math.log(nu)
        - 1.5 * math.log(nu + 1.0)
        + nu * math.log(x * y / (nu * (nu + 1.0)))
        + (2.0 * nu + 1.0) * (1.0 - math.log(2.0))
    )
    if log_mag < -745.0:  # exp underflow
        return 0.0
    return math.exp(log_mag)


def tail_term_scale(order: ModeOrder, x: float, y: float) -> float:
    """Safety-factored upper bound on |W~_nu(x,y)/(x^2 - y^2)|.

    Valid for nu > e*max(x,y)/2; used by the kernel sums to majorize the
    angular-momentum tail without the vanishing (x^2-y^2) factor.
    """
    nu = order.nu
    if nu <= math.e * max(x, y) / 2.0:
        raise AsymptoticRegimeError(
            f"asymptotic regime not reached: nu={nu} <= e*max(x,y)/2={math.e * max(x, y) / 2.0:.3f}"
        )
    return _BOUND_SAFETY * _asymptotic_pw_scale(nu, x, y)
