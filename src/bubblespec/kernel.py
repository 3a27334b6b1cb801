"""Two-photon creation kernel of the sudden-transition sphere.

The exact kernel F(x, y) is an angular-momentum sum over squared
pseudo-Wronskians with unit wall amplitudes (the amplitudes themselves
are in ``matching``).  Its diagonal D(x) = F(x, x) tends to 1/(2 pi^2)
for large argument, recovering the homogeneous-medium result, and the
whole kernel is well approximated by the factorized smeared-delta form
used for production spectra.

Frequency dispersion is modeled as a sharp momentum cutoff (``CutoffProfile``):
the initial gas index equals its bulk value below y* and 1 above, while the
created photon keeps the final bulk index on every x the spectrum covers
(see ``spectrum._integrand``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .matching import MediumConfig, _require_positive_finite
# bessel_jn_half is unused here but perfbench/test_perfbench.py reads it.
from .special_functions import (
    _MAX_ARGUMENT,
    BesselDomainError,
    _half_integer_j_table,
    _reduced_det,
    _reduced_det_diagonal,
    bessel_jn_half,
    half_integer_j_array,
)

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
# Safety factor of the large-order bound on |W~_nu/(x^2 - y^2)| over its magnitude.
_BOUND_SAFETY = 10.0
# The tail certifies within a few orders of where its bound applies; the
# term table reaches this far past that order, and the sum fails if its
# tail is not certified by the end of the table.
_L_MARGIN = 8
# f_exact_array evaluates at most about this many Bessel table entries
# (arguments x orders) at once, so its temporaries stay at a few hundred
# kB however many points a call has.  A larger budget is faster at large
# arguments but lifts the process's peak memory.
_TABLE_ENTRIES = 2**13

_HALF_ASYMPTOTE = 1.0 / (2.0 * math.pi * math.pi)
_D_FIT_SCALE = 250.0
# The factorized form carries (x+y)^6/(16000 + (x+y)^6); 16000 = 2^6 * 250
# so that the diagonal x = y reproduces the fitted D((x+y)/2).
_F_FIT_SCALE = 16000.0


class KernelConvergenceError(ArithmeticError):
    """Unit-amplitude angular-momentum sum unresolved in doubles (tiny argument) or uncertified at the end of its table.

    ``l_reached`` is the order f_exact stopped at; ``partial`` is the running sum through the
    order below it for a non-finite term, through it for a tail budget (1e-8 of the sum, at
    the first tail order) that is not a normal double, through the whole table at its end (a
    guard), and 0 for a diagonal l = 1 term lost to cancellation.
    """

    def __init__(self, message: str, partial: float, l_reached: int):
        super().__init__(message)
        self.partial = partial
        self.l_reached = l_reached


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
    """F(x, y) together with the truncation actually applied."""

    value: float
    l_used: int
    truncation_error_estimate: float


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
    """Exact kernel F(x, y) = sum_{l>=1} (2l+1) W~^2/(x^2-y^2)^2 with unit wall amplitudes (those are in ``matching``).

    One table of int(e*max(x, y)/2) + _L_MARGIN terms from the scalar recurrence; the value
    is their running sum through the order where _certify's large-order tail bound falls below
    1e-8 of it, KernelConvergenceError where that fails.  The 1e-8 bounds the truncation only:
    just off the diagonal below x ~ 0.1 the terms lose more to cancellation, unreported (8.6e-7
    relative at (0.003, 0.003 (1 + 1.01e-4)), 5.4e-8 at x = 0.01; ROADMAP.md item 3).
    """
    if not (sys.float_info.min <= x <= _MAX_ARGUMENT and sys.float_info.min <= y <= _MAX_ARGUMENT):
        raise BesselDomainError(f"kernel arguments must be normal doubles in (0, {_MAX_ARGUMENT:g}], got x={x}, y={y}")
    size = int(math.e * max(x, y) / 2.0) + _L_MARGIN
    terms = _kernel_terms(x, y, size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        *certified, sums = _certify(np.array(terms)[:, None], np.array([x]), np.array([y]), np.array([size]))
    value, used, tail, first = (a.item() for a in certified)
    if used:
        return KernelValue(value=value, l_used=used, truncation_error_estimate=tail)
    # The first test to fail in order of l: a non-finite term at or before `first` makes acc[first] fail no budget.
    acc = [0.0, *sums[:, 0].tolist()]
    if _TAIL_REL * acc[first] < sys.float_info.min:
        message = f"tail budget below the double range at l={first}, (x, y)=({x}, {y}): tiny argument"
        raise KernelConvergenceError(message, acc[first], first)
    l = next((l for l, t in enumerate(terms, 1) if not math.isfinite(t)), None)
    if l:
        cause = "Bessel values out of double range at a tiny argument"
        raise KernelConvergenceError(f"non-finite kernel term at l={l}, (x, y)=({x}, {y}): {cause}", acc[l - 1], l)
    raise KernelConvergenceError(f"kernel tail not certified by l={size} at (x, y)=({x}, {y})", acc[size], size)


def _tail_bound(nu: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bound on |W~_nu(x, y)/(x^2 - y^2)| for nu > e*max(x, y)/2, orders by points; 0 where it underflows."""
    # The nu-only part through libm.
    head = [-math.log(2.0 * math.pi) - 0.5 * math.log(v) - 1.5 * math.log(v + 1.0) for v in nu.tolist()]
    nu = nu[:, None]
    log_mag = np.array(head)[:, None] + nu * np.log(x * y / (nu * (nu + 1.0)))
    log_mag += (2.0 * nu + 1.0) * (1.0 - math.log(2.0))
    return _BOUND_SAFETY * np.where(log_mag < -745.0, 0.0, np.exp(log_mag))


def _certify(terms: np.ndarray, x: np.ndarray, y: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, ...]:
    """Value, certified order, tail estimate there, first tail order and running sums of terms (orders 1..L by points).

    The value is the running sum through the certified order: the terms are positive, so it is within l*eps of the
    exact sum.  The order is 0, and the value and estimate mean nothing, where the sum fails: no order up to size
    certifies, the running sum is not finite there, or the tail budget is not a normal double at the first tail order.
    """
    acc = np.cumsum(terms, axis=0)
    l = np.arange(1, terms.shape[0] + 1)[:, None]
    half_e_m = math.e * np.maximum(x, y) / 2.0
    # The bound at nu = l + 1.5 and l + 2.5 for the orders l >= lo, from below the first order any point tests.
    lo = max(1, int(np.ceil(half_e_m.min() - 1.5)) - 1)
    scale = _tail_bound(np.arange(lo + 1, l.size + 3) + 0.5, x, y)
    b1 = ((2 * l[lo - 1 :] + 3) * scale[:-1]) * scale[:-1]
    b2 = ((2 * l[lo - 1 :] + 5) * scale[1:]) * scale[1:]
    ratio = np.divide(b2, b1, out=np.zeros_like(b1), where=b1 > 0.0)
    estimate = b1 / (1.0 - ratio)
    tail = (l[lo - 1 :] <= size) & (l[lo - 1 :] + 1.5 > half_e_m)
    certified = tail & (ratio < 0.9) & (estimate <= _TAIL_REL * acc[lo - 1 :])
    done, cols = certified.argmax(axis=0), np.arange(x.size)
    value = acc[done + lo - 1, cols]
    # The first order tail admits (half_e_m - 1.5 is exact), where the budget is smallest: the terms are squares.
    first = np.maximum(np.floor(half_e_m - 1.5).astype(int) + 1, 1)
    ok = certified[done, cols] & np.isfinite(value)
    ok &= _TAIL_REL * acc[first - 1, cols] >= sys.float_info.min
    return value, np.where(ok, done + lo, 0), estimate[done, cols], first, acc


def _sorted_batch_values(x: np.ndarray, y: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f_exact's value and l_used at each off-band point, l_used 0 where it fails; table sizes descending.

    Runs f_exact's algorithm on every point at once: the same J tables and
    terms, each point's own table size, and one _certify call.
    """
    l_top = int(size[0])
    # A point's two columns side by side keep the recurrence starts (size + margin) descending.
    j = _half_integer_j_table(l_top, np.stack([x, y], axis=1).ravel(), np.repeat(size, 2))
    jx, jy = j[:, 0::2], j[:, 1::2]
    l = np.arange(1, l_top + 1)[:, None]
    # Where x^2 - y^2 underflows to 0 the terms are inf or NaN, and f_exact raises.
    r = _reduced_det(jx[1:], jx[:-1], x, jy[1:], jy[:-1], y) / (x * x - y * y)
    terms = ((2 * l + 1) * r) * r
    return _certify(terms, x, y, size)[:2]


def f_exact_array(x, y) -> np.ndarray:
    """f_exact(x, y).value at every point of the broadcast arrays x and y, bit for bit, in numpy passes.

    Off-band points run in sub-batches of at most about _TABLE_ENTRIES
    Bessel table entries, grouped by table size, so memory stays flat in
    the number of points.  Points in the diagonal band, outside the domain
    or where the batch fails go to f_exact in input order, so the first
    failing point raises f_exact's own error.  Both paths take their
    truncation and value from _certify.  For one point, f_exact is the faster path.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape, x, y = x.shape, x.ravel(), y.ravel()
    values = np.empty(x.size)
    # Overflow and invalid operations give inf or NaN, as in f_exact's Python floats; the tests catch them.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        batch = (lo >= sys.float_info.min) & (hi <= _MAX_ARGUMENT) & (hi - lo >= _DIAG_BAND * np.minimum(lo, 1.0))
        size = np.where(batch, math.e * hi / 2.0, 0.0).astype(int) + _L_MARGIN
        idx = np.flatnonzero(batch)[np.argsort(-size[batch], kind="stable")]
        at = 0
        while at < idx.size:
            sub = idx[at : at + max(1, _TABLE_ENTRIES // (2 * (size[idx[at]] + 1)))]
            values[sub], used = _sorted_batch_values(x[sub], y[sub], size[sub])
            batch[sub] = used > 0
            at += sub.size
    for i in np.flatnonzero(~batch).tolist():
        values[i] = f_exact(float(x[i]), float(y[i])).value
    return values.reshape(shape)


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
    with np.errstate(over="ignore", invalid="ignore"):
        s6 = s**6
        hump = _HALF_ASYMPTOTE * s6 / (_F_FIT_SCALE + s6)
    # Past s ~ 2.4e51 s**6 overflows; the hump has reached its limit 1/(2 pi^2) there.
    if np.max(s, initial=0.0) > 1e51:
        hump = np.where(np.isinf(s6), _HALF_ASYMPTOTE, hump)
    # np.sinc(t) = sin(pi t)/(pi t); we need sin(u)/u with u = 3(x-y)/4.
    sinc = np.sinc(0.75 * (x - y) / np.pi)
    out = hump * sinc * sinc
    return out if out.ndim else float(out)
