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
from .special_functions import _MAX_ARGUMENT, BesselDomainError, _half_integer_j_table, bessel_jn_half

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
# Safety factor of the large-order bound on |W~_nu/(x^2 - y^2)| over its magnitude.
_BOUND_SAFETY = 10.0
# The tail certifies within a few orders of where its bound applies; the
# term table reaches this far past that order, and the sum fails if its
# tail is not certified by the end of the table.
_L_MARGIN = 8
# The overlap series reads J rows up to _SERIES_ROWS past max(top order, e*max(x, y)/2 + _SERIES_ROWS).
# The rows fall off fast past e*max(x, y)/2: more rows change no bit of f_exact, and the top order of
# its table by about 1e-6 relative, a term far below the tail budget.
_SERIES_ROWS = 8
# f_exact_array evaluates at most about this many Bessel table entries
# (arguments x orders, series rows included) at once, so its temporaries
# stay under a megabyte however many points a call has.  A larger budget
# is faster at large arguments but lifts the process's peak memory.
_TABLE_ENTRIES = 2**14

_HALF_ASYMPTOTE = 1.0 / (2.0 * math.pi * math.pi)
_D_FIT_SCALE = 250.0
# The factorized form carries (x+y)^6/(16000 + (x+y)^6); 16000 = 2^6 * 250
# so that the diagonal x = y reproduces the fitted D((x+y)/2).
_F_FIT_SCALE = 16000.0


class KernelConvergenceError(ArithmeticError):
    """Unit-amplitude angular-momentum sum unresolved in doubles (tiny argument) or uncertified at the end of its table.

    ``l_reached`` is the order f_exact stopped at; ``partial`` is the running sum through the
    order below it for a non-finite term, through it for a tail budget (1e-8 of the sum, at
    the first tail order) that is not a normal double, and through the whole table at its end
    (a guard).
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


def _require_domain(x: float, y: float) -> None:
    """BesselDomainError unless x and y are normal doubles in (0, _MAX_ARGUMENT]; checked before any table is sized."""
    if not (sys.float_info.min <= x <= _MAX_ARGUMENT and sys.float_info.min <= y <= _MAX_ARGUMENT):
        raise BesselDomainError(f"kernel arguments must be normal doubles in (0, {_MAX_ARGUMENT:g}], got x={x}, y={y}")


def _half_e_m(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """int(e*max(x, y)/2) per point: the order past which _certify's tail bound applies, and the tables' size."""
    return (math.e * np.maximum(x, y) / 2.0).astype(int)


def _series_top(l_size, half_e_m):
    """Last J row the overlap series reads for orders up to l_size, half_e_m = int(e*max(x, y)/2); ints or arrays."""
    return np.maximum(l_size, half_e_m + _SERIES_ROWS) + _SERIES_ROWS


def _overlaps(jx: np.ndarray, jy: np.ndarray, x: np.ndarray, y: np.ndarray, top) -> np.ndarray:
    """W~_{l+1/2}(x, y)/(x^2 - y^2) for l = 0..rows-2 from rows k = 0..rows-1 of J_{k+1/2} at x and y (rows by points).

    The ratio is the overlap int_0^1 r J_nu(xr) J_nu(yr) dr (DLMF 10.22.5), which J_nu + J_{nu+2} = (2(nu+1)/z) J_{nu+1}
    (DLMF 10.6.1) telescopes into (2/(xy)) sum_{n>=0} (nu+2n+1) J_{nu+2n+1}(x) J_{nu+2n+1}(y): no x^2 - y^2 to cancel.
    Order l sums every other row from l + 1 up, from the top down, leaving out the rows past each point's own ``top``,
    so a point sums its own table in any batch.  Exactly symmetric in x and y.
    """
    k = np.arange(jx.shape[0])[:, None]
    terms = np.where(k <= top, (k + 0.5) * (jx * jy), 0.0)
    sums = np.empty_like(terms)
    for parity in (0, 1):
        np.cumsum(terms[::-1][parity::2], axis=0, out=sums[::-1][parity::2])
    return sums[1:] * (2.0 / (x * y))


def _ratios(x: np.ndarray, y: np.ndarray, top: np.ndarray) -> np.ndarray:
    """W~_nu(x, y)/(x^2 - y^2) by _overlaps (orders by points) from one J table at x and y through rows ``top``.

    Points come in descending order of top, each point's last J row (``_series_top``).
    """
    # A point's two columns side by side keep the recurrence starts (top + margin) descending.
    j = _half_integer_j_table(int(top[0]), np.array([x, y]).T.ravel(), np.repeat(top, 2))
    return _overlaps(j[:, 0::2], j[:, 1::2], x, y, top)


def _pw_ratios(x: float, y: float, l_size: int) -> np.ndarray:
    """W~_nu(x, y)/(x^2 - y^2) for l = 0..l_size at one point, on the diagonal too."""
    _require_domain(x, y)
    x, y = np.array([x]), np.array([y])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _ratios(x, y, _series_top(l_size, _half_e_m(x, y)))[: l_size + 1, 0]


def _kernel_sums(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Terms (2l+1) r_l^2 for l = 1..size, then _certify's results, at in-domain points sorted by descending size.

    The one exact-kernel routine of f_exact and f_exact_array: each point's table of size int(e*max(x, y)/2) +
    _L_MARGIN terms from the overlap ratios r_l (``_ratios``) and one _certify call over all of them.
    """
    half_e_m = _half_e_m(x, y)
    size = half_e_m + _L_MARGIN
    r = _ratios(x, y, _series_top(size, half_e_m))[1 : int(size[0]) + 1]
    terms = ((2 * np.arange(1, r.shape[0] + 1)[:, None] + 1) * r) * r
    return terms, *_certify(terms, x, y, size)


def f_exact(x: float, y: float) -> KernelValue:
    """Exact kernel F(x, y) = sum_{l>=1} (2l+1) W~^2/(x^2-y^2)^2 with unit wall amplitudes (those are in ``matching``).

    One table of int(e*max(x, y)/2) + _L_MARGIN terms from the overlap series (``_kernel_sums``), on and off the
    diagonal alike; the value is their running sum through the order where _certify's large-order tail bound falls
    below 1e-8 of it, KernelConvergenceError where that fails (below about x = 3e-50 on the diagonal 1e-8 of the sum
    is no longer a normal double).
    """
    _require_domain(x, y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms, *certified, sums = _kernel_sums(np.array([x]), np.array([y]))
    value, used, tail, first = (a.item() for a in certified)
    if used:
        return KernelValue(value=value, l_used=used, truncation_error_estimate=tail)
    # The first test to fail in order of l: a non-finite term at or before `first` makes acc[first] fail no budget.
    size, acc = terms.shape[0], [0.0, *sums[:, 0].tolist()]
    if _TAIL_REL * acc[first] < sys.float_info.min:
        message = f"tail budget below the double range at l={first}, (x, y)=({x}, {y}): tiny argument"
        raise KernelConvergenceError(message, acc[first], first)
    l = next((l for l, t in enumerate(terms[:, 0].tolist(), 1) if not math.isfinite(t)), None)
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


def f_exact_array(x, y) -> np.ndarray:
    """f_exact(x, y).value at every point of the broadcast arrays x and y, bit for bit: f_exact's _kernel_sums, batched.

    On and off the diagonal, points run in sub-batches of at most about _TABLE_ENTRIES Bessel table entries (series
    rows included), grouped by table size, so memory stays flat in the number of points.  Points outside the domain or
    where the batch fails go to f_exact in input order, so the first failing point raises f_exact's own error.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape, x, y = x.shape, x.ravel(), y.ravel()
    values = np.empty(x.size)
    # Overflow and invalid operations give inf or NaN, as in f_exact; the tests catch them.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        batch = (np.minimum(x, y) >= sys.float_info.min) & (np.maximum(x, y) <= _MAX_ARGUMENT)
        idx = np.flatnonzero(batch)
        half_e_m = _half_e_m(x[idx], y[idx])
        order = np.argsort(-half_e_m, kind="stable")
        idx, rows = idx[order], _series_top(half_e_m[order] + _L_MARGIN, half_e_m[order]) + 1
        at = 0
        while at < idx.size:
            sub = idx[at : at + max(1, _TABLE_ENTRIES // (2 * int(rows[at])))]
            values[sub], used = _kernel_sums(x[sub], y[sub])[1:3]
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
