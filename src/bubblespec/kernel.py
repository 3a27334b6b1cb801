"""Two-photon creation kernel of the sudden-transition sphere.

The exact kernel F(x, y) = sum_{l>=1} (2l+1) r_l^2 is an angular-momentum
sum of squared overlaps r_l = int_0^1 r J_nu(xr) J_nu(yr) dr, nu = l + 1/2,
with unit wall amplitudes (the amplitudes themselves are in ``matching``).
The addition theorem (DLMF 10.60.2) and the overlap volume of two unit
balls sum it in closed form:

    F(x, y) = [G(x - y) - G(x + y)]/(24 pi^2) - r_0^2,
    G(k) = 12/k^2 - 12 sin 2k/k^3 + 12 sin^2 k/k^4 = int_0^2 (16 - 12w + w^3) cos(kw) dw,

with r_0 = [sin(x - y)/(x - y) - sin(x + y)/(x + y)]/(pi sqrt(xy)).
``f_exact_array`` evaluates F from it where it keeps its digits and from the
overlap series where it cancels; ``f_exact`` is its value at one point.  The diagonal
D(x) = F(x, x) tends to G(0)/(24 pi^2) = 1/(2 pi^2) for large argument,
recovering the homogeneous-medium result, and the whole kernel is well approximated by the factorized smeared-delta form
used for production spectra.

Frequency dispersion is modeled as a sharp momentum cutoff (``CutoffProfile``):
the initial gas index equals its bulk value below y* and 1 above, while the
created photon keeps the final bulk index on every x the spectrum covers
(see ``spectrum._integrand``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import MediumConfig, _require_positive_finite
# bessel_jn_half is unused here but perfbench/test_perfbench.py reads it.
from .special_functions import _half_integer_j_table, _half_integer_j_upward, _require_domain, bessel_jn_half

__all__ = [
    "CutoffProfile",
    "KernelValue",
    "KernelConvergenceError",
    "f_exact",
    "f_exact_array",
    "d_exact",
    "d_approx",
    "f_factorized",
]

# f_exact_array works through its points in slices of this many: at about 256 table entries a point (the overlap
# series' J rows), 2**20 entries a slice, so its temporaries stay near a few MB however many points a call has.
_POINTS_PER_SLICE = 2**12

# f_exact_array's closed form serves min(x, y) >= 1 up to this max/min: past it G(x - y) - G(x + y)
# cancels (3.4e-12 off at max/min in [256, 1e4], 2.3e-10 at min in [1, 2] and max in [1e3, 1e5]).
_CLOSED_FORM_RATIO = 256.0
# G's even Taylor series, used below |k| = 1/2, where its 1/k^2 and 1/k^4 terms cancel.  The moments
# int_0^2 (16 - 12w + w^3) w^{2n} dw = 96 * 4^n/((2n+1)(2n+2)(2n+4)) make the coefficient of u^n, u = (2k)^2,
# (-1)^n 96/((2n)! (2n+1)(2n+2)(2n+4)); highest power first (np.polyval), the last below 1e-21 at u = 1.
_G_TAYLOR = [
    (-1) ** n * 96.0 / (math.factorial(2 * n) * (2 * n + 1) * (2 * n + 2) * (2 * n + 4)) for n in range(10, -1, -1)
]
# The overlap series elsewhere sums the orders below and the J rows up to int(e*min(x, y)/2) + _OVERLAP_ROWS:
# 20 rows leave up to 6e-14 at min ~ 30 and max = 1e5, 24 leave rounding (6e-15).
_OVERLAP_ROWS = 24
# Up to this max(x, y) the overlap series takes J at both arguments from one backward table, of e*max(x, y)/2 rows.
_BACKWARD_MAX = 4.0

_HALF_ASYMPTOTE = 1.0 / (2.0 * math.pi * math.pi)
_D_FIT_SCALE = 250.0
# f_factorized's hump in x + y: (x+y)^6/(16000 + (x+y)^6) is the fitted D((x+y)/2), as 16000 = 2^6 * 250.
_F_FIT_SCALE = 64.0 * _D_FIT_SCALE


class KernelConvergenceError(ArithmeticError):
    """Not raised by bubblespec: kept public for callers that catch it, such as perfbench/run.py."""


@dataclass(frozen=True)
class CutoffProfile:
    """Dimensionless momentum cutoffs: x* of the created photon, y* of the initial mode."""

    x_star: float
    y_star: float

    def __post_init__(self) -> None:
        _require_positive_finite(self, "x_star", "y_star")

    @classmethod
    def rounded(cls, cfg: MediumConfig) -> "CutoffProfile":
        """Cutoffs (n_gas_out/n_liquid) * 15 on both axes, the one cutoff rule.

        15 is the reference results' rounding of radius * K = 5 pi for a
        500 nm bubble observed up to K = 2 pi/200 nm^-1; ``cfg.radius``
        enters only the physical energy and frequency scales.
        """
        c = cfg.n_gas_out / cfg.n_liquid * 15.0
        return cls(x_star=c, y_star=c)


@dataclass(frozen=True)
class KernelValue:
    """F(x, y) and l_used = int(e*min(x, y)/2) + _OVERLAP_ROWS - 1, the overlap series' last order.

    Past l_used every term (2l+1) r_l^2 of F is below its rounding, in every branch: r_l carries J_nu at min(x, y),
    which falls off fast past nu = e*min(x, y)/2.
    """

    value: float
    l_used: int


def _overlaps(jx: np.ndarray, jy: np.ndarray, x, y, top) -> np.ndarray:
    """W~_{l+1/2}(x, y)/(x^2 - y^2) for l = 0..L-1 from J tables at x and y: J_{k+1/2} for k = 0..L, then J_{-1/2}.

    The ratio is the overlap int_0^1 r J_nu(xr) J_nu(yr) dr (DLMF 10.22.5), which J_nu + J_{nu+2} = (2(nu+1)/z) J_{nu+1}
    (DLMF 10.6.1) telescopes into (2/(xy)) sum_{n>=0} (nu+2n+1) J_{nu+2n+1}(x) J_{nu+2n+1}(y): no x^2 - y^2 to cancel.
    Order l sums every other row from l + 1 up, from the top down, leaving out the rows past each point's own ``top``,
    so a point sums its own table in any batch.  Exactly symmetric in x and y.
    """
    k = np.arange(jx.shape[0] - 1)[:, None]
    terms = np.where(k <= top, (k + 0.5) * (jx * jy)[:-1], 0.0)
    sums = np.empty_like(terms)
    for parity in (0, 1):
        np.cumsum(terms[::-1][parity::2], axis=0, out=sums[::-1][parity::2])
    return sums[1:] * (2.0 / (x * y))


def _j_tables(a, b, top, upward) -> tuple[np.ndarray, np.ndarray]:
    """J tables at a and at b for ``_overlaps``: at a, and at b but where ``upward``, from one backward ratio recurrence
    (``_half_integer_j_table``), at b where ``upward`` from the upward one; a column's rows do not depend on its batch.
    """
    j = _half_integer_j_table(np.concatenate([a, b[~upward]]), np.concatenate([top, top[~upward]]))
    jb = np.empty((j.shape[0], b.size))
    jb[:, ~upward] = j[:, a.size :]
    if upward.any():
        jb[:, upward] = _half_integer_j_upward(j.shape[0] - 2, b[upward])
    return j[:, : a.size], jb


def f_exact(x: float, y: float) -> KernelValue:
    """Exact kernel F(x, y) = sum_{l>=1} (2l+1) r_l^2 at one point: f_exact_array's value, bit for bit."""
    return KernelValue(value=float(f_exact_array(x, y)), l_used=int(math.e * min(x, y) / 2.0) + _OVERLAP_ROWS - 1)


def _closed_form(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """[G(x - y) - G(x + y)]/(24 pi^2) - r_0^2 at points lo = min(x, y), hi = max(x, y) (module docstring)."""
    d, s = hi - lo, hi + lo
    g, g_s = _g(np.array([np.maximum(d, 0.5), s]))  # G(d) and G(s) in one pass, G(d) by Taylor below d = 1/2
    near = d < 0.5
    if near.any():
        g[near] = np.polyval(_G_TAYLOR, 4.0 * d[near] ** 2)
    sinc_d = np.divide(np.sin(d), d, out=np.ones(d.size), where=d > 0.0)
    r0 = (sinc_d - np.sin(s) / s) / (math.pi * np.sqrt(lo * hi))
    return (g - g_s) / (24.0 * math.pi**2) - r0 * r0


def _g(k: np.ndarray) -> np.ndarray:
    """G(k) = 12/k^2 - 12 sin 2k/k^3 + 12 sin^2 k/k^4 for k >= 1/2."""
    q = 1.0 / k
    return 12.0 * q * q * (1.0 - q * (np.sin(2.0 * k) - q * np.sin(k) ** 2))


def _overlap_sum(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """F from the overlap series (``_overlaps``) at orders and J rows up to top = int(e*lo/2) + _OVERLAP_ROWS.

    J at lo, and at hi <= _BACKWARD_MAX, comes from one backward table (``_j_tables``).  J at a larger hi comes from
    the upward recurrence, stable below hi only: there lo < 1 < 4 < hi, or hi > 256 lo >= 256, so the rows past hi
    are weighted by J at lo, smaller by (lo/hi)^k.
    """
    top = (math.e * lo / 2.0).astype(int) + _OVERLAP_ROWS
    # Rows past a point's own top (the table's unused rows, an upward recurrence past its turning point) may
    # overflow; _overlaps leaves them out.  Where lo*hi underflows, 2/(lo*hi) is inf and every row 0.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = _overlaps(*_j_tables(lo, hi, top, hi > _BACKWARD_MAX), lo, hi, top)[1:]
    terms = ((2 * np.arange(1, r.shape[0] + 1)[:, None] + 1) * r) * r
    # A running sum is sequential in l at any batch size.  F goes as (lo*hi)^3, so it is 0.0 where its rows are NaN.
    return np.nan_to_num(np.cumsum(terms, axis=0)[-1])


def f_exact_array(x, y) -> np.ndarray:
    """F(x, y) at every point of the broadcast arrays x and y, vectorized, by one of two routes chosen per point.

    With lo = min(x, y) and hi = max(x, y):

    * lo >= 1 and hi <= 256 lo: the closed form of the module docstring, G by its Taylor series below |k| = 1/2;
      within 3.4e-14 of 160-digit arithmetic at hi/lo <= 16 and 1.5e-13 up to 256;
    * else: the overlap series to a fixed order set by lo (``_overlap_sum``), within 8.6e-15; where hi <= 4 (J at
      both arguments from one backward table) within 2e-15.

    F is symmetric bit for bit, and a point's value does not depend on the batch: points run in input order, in
    slices of _POINTS_PER_SLICE.  Tiny arguments give values, down to an honest 0.0 where F underflows; a point
    outside the domain (subnormal, NaN, inf, above 1e5) raises BesselDomainError, for the first such point in input
    order.
    """
    x, y = _require_domain(x=x, y=y)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
    values = np.empty(lo.size)
    for at in range(0, lo.size, _POINTS_PER_SLICE):
        part = slice(at, at + _POINTS_PER_SLICE)
        a, b, out = lo[part], hi[part], values[part]
        closed = (a >= 1.0) & (b <= _CLOSED_FORM_RATIO * a)
        for mask, route in ((closed, _closed_form), (~closed, _overlap_sum)):
            if mask.any():
                out[mask] = route(a[mask], b[mask])
    return values.reshape(shape)


def d_exact(x: float) -> float:
    """Diagonal kernel D(x) = F(x, x) with unit wall amplitudes: f_exact_array's value, bit for bit."""
    return float(f_exact_array(x, x))


def _hump(t: np.ndarray, scale: float):
    """The fitted hump (1/2pi^2) t^6/(scale + t^6) at t >= 0, and its limit 1/(2 pi^2) where t^6 overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        t6 = t**6
        hump = _HALF_ASYMPTOTE * t6
        # In place: t6 + scale is inf exactly where t6 is.
        t6 += scale
        hump /= t6
    # Past t ~ 2.4e51 t**6 overflows to inf, and inf/inf to NaN.
    if np.max(t, initial=0.0) > 1e51:
        hump = np.where(np.isinf(t6), _HALF_ASYMPTOTE, hump)
    return hump


def d_approx(x):
    """Fitted diagonal (1/2pi^2) x^6/(250 + x^6), array-friendly; asymptote 1/(2 pi^2)."""
    out = _hump(np.asarray(x, dtype=float), _D_FIT_SCALE)
    return out if np.ndim(out) else float(out)


def _factorized_hump(x: np.ndarray, y: np.ndarray):
    """The fitted D((x+y)/2); an x + y past the double range is inf, whose hump is the limit."""
    with np.errstate(over="ignore"):
        return _hump(x + y, _F_FIT_SCALE)


def _factorized_envelope(x, y) -> np.ndarray:
    """f_factorized(x, y)/sin^2(3(x-y)/4) = D((x+y)/2)/u^2, u = 3(x-y)/4: the smooth factor of the sinc^2 lobes.

    Meant for the far lobes, |x - y| >= 2 sinc^2 widths; a u^2 past the double range gives 0.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    hump = _factorized_hump(x, y)
    u = np.subtract(x, y, out=np.empty(np.shape(hump)))
    u *= 0.75
    with np.errstate(over="ignore"):
        u *= u
    hump /= u
    return hump


def f_factorized(x, y):
    """Factorized kernel D((x+y)/2) * sinc^2(3(x-y)/4), array-friendly.

    The removable singularity at x = y is handled by sinc.  On the diagonal the value equals d_approx(x) to
    rounding, as 16000 = 2^6 * 250, but not bit for bit: pow(2x, 6) and 64 pow(x, 6) may differ in the last bit.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    hump = _factorized_hump(x, y)
    # sin(u)/u at u = 3(x-y)/4 by np.sinc(u/pi)'s own steps, in place: pi * (u/pi), eps where that is 0, sin over it.
    u = np.subtract(x, y, out=np.empty(np.shape(hump)))
    u *= 0.75
    u /= np.pi
    u *= np.pi
    if not u.all():
        np.copyto(u, np.finfo(float).eps, where=u == 0.0)
    sinc = np.sin(u)
    sinc /= u
    hump *= sinc
    hump *= sinc
    return hump if np.ndim(hump) else float(hump)
