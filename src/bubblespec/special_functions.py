"""Numerically stable half-integer-order Bessel machinery.

Everything here reduces to spherical Bessel functions through
J_{l+1/2}(z) = sqrt(2z/pi) * j_l(z) (and likewise for the Neumann
functions), from one seed pair, sin z/z and cos z/z (DLMF 10.49), and two
recurrences (DLMF 10.51.1).  The regular solution j is built from its ratios
r_l = j_l/j_{l-1}, which a backward recurrence started at r = 0 past
``_decay_order`` yields without overflow, multiplied up from j_0 or j_1,
whichever is farther from its zero (``_half_integer_j_table``).  One upward
recurrence f_{l+1} = (2l+1)/z f_l - f_{l-1} from (f_{-1}, f_0) serves the
irregular solution y, where it is the stable direction, and j at arguments
above its orders, where it is stable too (``_half_integer_j_upward``).  Every
table, many arguments by orders l = 0.., ends with order -1/2, so index l - 1
reads the order below l for l = 0 too.  ``half_integer_j_array`` and
``half_integer_n_array`` are one column of the J and N tables, and
``_half_integer_columns`` reads one order's J and N pairs from one table of
each, for many draws (``check``) or for one (``bessel_jn_half``).
Derivatives are never finite-differenced: z J'_nu(z) = z J_{nu-1}(z) - nu J_nu(z).

Both recurrences are sequential in l.  A table of many columns runs them a row at a time in numpy; one of at most
``_FLOAT_COLUMNS`` columns, one draw's (``bessel_jn_half``, ``half_integer_j_array``, ``coefficients_bc``,
``hankel_finite_integral``, ``f_exact`` off its closed form), runs them a column at a time on Python floats, as
numpy's fixed cost of a call on every row would be most of its time.  The float loops take the same IEEE operations
in the same order, so a column's values are bit for bit those of any wider table; the sin/cos seeds, the products,
the sqrt(2z/pi) scaling and the N saturation stay one numpy code for both.  Only +, -, * and / run on floats: the
one log, in ``_decay_order``, ends in an integer, and math.log differs from np.log in the last bit on some inputs.

All functions are pure; values are freely shareable across threads.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeOrder",
    "BesselPair",
    "BesselDomainError",
    "bessel_jn_half",
    "half_integer_j_array",
    "half_integer_n_array",
]

_DECAY_TARGET = 1e-17
_UNDERFLOW_FLOOR = 1e-300
# Largest Bessel and kernel argument, 255 times x* = 392: J tables run to about z + 6.3 sqrt(z) orders, so
# half_integer_j_array(1, 1e5) takes about 0.25 s and the overlap oracle at k R = 1e5 about 0.3 s.
_MAX_ARGUMENT = 1e5
# Up to this many columns, one draw's (bessel_jn_half 1, coefficients_bc and hankel_finite_integral 2), a table runs
# its recurrence loops on Python floats: numpy's fixed cost of about 1 us a call, paid on every row, is most of a
# one-column pass.
_FLOAT_COLUMNS = 2


class BesselDomainError(ValueError):
    """Argument below the smallest normal double or above _MAX_ARGUMENT, or wall amplitudes not finite there."""


def _checked_int(v: object, minimum: int, rule: str, maximum: float = math.inf) -> int:
    """v as an int, the package's one integer rule: ValueError "<rule>, got <v>" unless v has __index__ (not bool) in
    [minimum, maximum].
    """
    if isinstance(v, bool) or not hasattr(v, "__index__") or not minimum <= operator.index(v) <= maximum:
        raise ValueError(f"{rule}, got {v!r}")
    return operator.index(v)


def _require_int(obj: object, name: str, minimum: int, rule: str, maximum: float = math.inf) -> None:
    """ValueError unless obj.<name> keeps ``_checked_int``'s rule; stores it as an int."""
    object.__setattr__(obj, name, _checked_int(getattr(obj, name), minimum, rule, maximum))


@dataclass(frozen=True)
class ModeOrder:
    """Angular momentum l (any integer type but bool, stored as int) with half-integer Bessel order nu = l + 1/2.

    Physical photon modes have l >= 1 (no monopole radiation); l = 0 is
    permitted for internal math use only.
    """

    l: int

    def __post_init__(self) -> None:
        _require_int(self, "l", 0, "angular momentum must be a non-negative integer")

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


def _require_domain(**coordinates) -> list[np.ndarray]:
    """The coordinates, numbers or arrays that broadcast together, as float arrays once all are in the Bessel domain.

    The package's one domain gate, checked before any table is sized: normal doubles in (0, _MAX_ARGUMENT].
    Subnormals are outside, as below about 5.6e-309 1/z overflows and the closed forms turn NaN; so is a number too
    large for a double.  BesselDomainError names the first point outside, in input order, by each coordinate there.
    """
    try:
        arrays = [np.asarray(v, dtype=float) for v in coordinates.values()]
    except OverflowError:  # an int past the double range: compared exactly, as Python objects
        arrays = [np.asarray(v, dtype=object) for v in coordinates.values()]
    # Cheap on the hot path, the ends of all points at once; NaN carries through and fails both tests.
    low, high = functools.reduce(np.minimum, arrays), functools.reduce(np.maximum, arrays)
    low, high = np.minimum.reduce(low, None, initial=math.inf), np.maximum.reduce(high, None, initial=0.0)
    if low >= sys.float_info.min and high <= _MAX_ARGUMENT:
        return arrays
    points = np.broadcast_arrays(*arrays)
    # The first point outside, in input order: the first False of the per-point mask.
    i = int(np.argmin(np.logical_and.reduce([(a >= sys.float_info.min) & (a <= _MAX_ARGUMENT) for a in points])))
    got = ", ".join(f"{name}={a.item(i)}" for name, a in zip(coordinates, points))
    raise BesselDomainError(f"each argument must be a normal double in (0, {_MAX_ARGUMENT:g}], got {got}")


def half_integer_j_array(l_max: int, z: float) -> list[float]:
    """J_{l+1/2}(z) for integer l = 0..l_max, then J_{-1/2}(z) last; unclamped, unlike bessel_jn_half's J_nu."""
    l_max = ModeOrder(l_max).l
    (z,) = _require_domain(z=z)
    column = _half_integer_j_table(z.reshape(1), np.array([l_max]))[:, 0].tolist()
    return column[: l_max + 1] + column[-1:]


def _decay_order(l, z):
    """The first order N past m = max(l, ceil(z)) with prod_{k=m+1}^N z/(2k+1-z) <= _DECAY_TARGET, or one more.

    The one rule for how many J orders a table or an overlap series takes; a scalar (f_exact's one point) runs on
    math and gets an int.  For k >= z - 1/2, r_k = J_{k+1/2}/J_{k-1/2} = z/(2k+1 - z r_{k+1}) <= z/(2k+1-z) by
    downward induction (r_{k+1} <= 1): J at N is below J at m by the target, and a backward recurrence from r_{N+1} = 0
    reaches m with its start error damped by about the product squared (DLMF 3.6(vi)).  -log of the product is at
    least int_m^N log((2t+1-z)/z) dt = (h(2N+1-z) - h(2m+1-z))/2, h(u) = u (log(u/z) - 1), convex in u: three Newton
    steps reach its goal from above, from the bound on the root that log(1 + 2s/z) >= 2s/(z + 2s) gives.
    """
    xp, larger = (np, np.maximum) if isinstance(z, np.ndarray) else (math, max)
    goal = -2.0 * math.log(_DECAY_TARGET)
    log_z, u = xp.log(z), 2.0 * larger(l, xp.ceil(z)) + 1.0 - z
    h_goal, u = u * (xp.log(u) - log_z - 1.0) + goal, u + goal + xp.sqrt(goal * (goal + 2.0 * z))
    for _ in range(3):
        f = xp.log(u) - log_z
        u = u - (u * (f - 1.0) - h_goal) / f
    top = xp.ceil((u + z - 1.0) / 2.0)
    return top.astype(int) if xp is np else top


def _half_integer_j_table(z: np.ndarray, l_each: np.ndarray) -> np.ndarray:
    """J_{l+1/2}(z[a]) for l = 0..max(l_each.max(), 1), then J_{-1/2}(z[a]) last, in column a.

    The package's one J ratio recurrence.  A column's start, operations and rounding are its own, so its rows
    0..l_each[a] and its last row do not depend on its batch; the rows past l_each[a] are of no use.  Every z must
    be in the Bessel domain; the columns may come in any order.
    """
    l_max = max(int(l_each.max()), 1)
    rows = np.zeros((l_max + 2, z.size))
    (_backward_floats if z.size <= _FLOAT_COLUMNS else _backward_rows)(rows, z, _decay_order(l_each, z))
    rows[0], rows[-1] = np.sin(z) / z, np.cos(z) / z
    # Multiply up from whichever of j_0 and j_1 = j_0/z - j_{-1} is farther from its zero.
    j1 = rows[0] / z - rows[-1]
    rows[1] = np.where(np.abs(j1) > np.abs(rows[0]), j1, rows[0] * rows[1])
    np.cumprod(rows[1:-1], axis=0, out=rows[1:-1])
    rows *= np.sqrt(2.0 * z / math.pi)
    return rows


def _backward_rows(rows: np.ndarray, z: np.ndarray, start: np.ndarray) -> None:
    """Ratios r_l = j_l/j_{l-1} = z/(2l+1 - z r_{l+1}) into rows 1..l_max, from r = 0 at each column's start.

    A denominator that rounds to zero (j_{l-1} at a zero) is replaced by its rounding scale.  The columns run in
    descending order of their start, so that the first k are the ones still running, and are stored back in input
    order; rows past a column's start stay as they are, 0.
    """
    l_max = rows.shape[0] - 2
    order = np.argsort(-start)
    zs, back = z[order], np.argsort(order)
    running = (z.size - np.searchsorted(start[order][::-1], np.arange(start.max() + 1))).tolist()
    r = np.zeros(z.size)
    for l in range(len(running) - 1, 0, -1):
        k = running[l]
        d = (2 * l + 1) - zs[:k] * r[:k]
        if np.count_nonzero(d) < k:
            d[d == 0.0] = sys.float_info.epsilon * (2 * l + 1)
        np.divide(zs[:k], d, out=r[:k])
        if l <= l_max:
            rows[l] = r[back]


def _backward_floats(rows: np.ndarray, z: np.ndarray, start: np.ndarray) -> None:
    """``_backward_rows`` on Python floats, a column at a time, bit for bit."""
    l_max = rows.shape[0] - 2
    for a, (v, top) in enumerate(zip(z.tolist(), start.tolist())):
        r, ratios = 0.0, []
        for l in range(top, 0, -1):
            d = (2 * l + 1) - v * r
            r = v / (d if d != 0.0 else sys.float_info.epsilon * (2 * l + 1))
            ratios.append(r)
        rows[1 : min(top, l_max) + 1, a] = ratios[::-1][:l_max]


def _upward(l_max: int, z: np.ndarray, f_prev: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """f_l(z[a]) for l = 0..l_max, then f_{-1}(z[a]) last, in column a, from f_{l+1} = (2l+1)/z f_l - f_{l-1}.

    The package's one upward recurrence, for spherical j and y alike, from the seeds f_{-1} and f_0; unscaled.
    """
    rows = np.empty((l_max + 2, z.size))
    rows[-1], rows[0] = f_prev, f0
    # With one order, row 1 is the -1/2 row.
    if l_max:
        rows[1] = rows[0] / z - rows[-1]
    (_upward_floats if z.size <= _FLOAT_COLUMNS else _upward_rows)(rows, z)
    return rows


def _upward_rows(rows: np.ndarray, z: np.ndarray) -> None:
    """Rows 2..l_max of ``_upward`` from rows 0 and 1, all columns a row at a time."""
    for l in range(1, rows.shape[0] - 2):
        np.subtract((2 * l + 1) / z * rows[l], rows[l - 1], out=rows[l + 1])


def _upward_floats(rows: np.ndarray, z: np.ndarray) -> None:
    """``_upward_rows`` on Python floats, a column at a time, bit for bit: past a double a float turns inf, then NaN,
    as quietly as under the callers' np.errstate.
    """
    for a, v in enumerate(z.tolist()):
        f, g, column = rows[0, a].item(), rows[1, a].item(), []
        for l in range(1, rows.shape[0] - 2):
            f, g = g, (2 * l + 1) / v * g - f
            column.append(g)
        rows[2:-1, a] = column


def _half_integer_j_upward(l_max: int, z: np.ndarray) -> np.ndarray:
    """J_{l+1/2}(z[a]) for l = 0..l_max, then J_{-1/2}(z[a]) last, in column a, by upward recurrence.

    Below the turning point l ~ z the recurrence is stable and the rows keep a few ulps of J's envelope; past it
    the error grows like N_{l+1/2}(z), which only a caller weighting those rows by J at a smaller argument may take.
    """
    return _upward(l_max, z, np.cos(z) / z, np.sin(z) / z) * np.sqrt(2.0 * z / math.pi)


def half_integer_n_array(l_max: int, z: float) -> list[float]:
    """N_{l+1/2}(z) for integer l = 0..l_max, then N_{-1/2}(z) last; overflow saturates to +-inf."""
    l_max = ModeOrder(l_max).l
    (z,) = _require_domain(z=z)
    return _half_integer_n_table(l_max, z.reshape(1))[:, 0].tolist()


def _half_integer_n_table(l_max: int, z: np.ndarray) -> np.ndarray:
    """N_{l+1/2}(z[a]) for l = 0..l_max, then N_{-1/2}(z[a]) last, in column a, by upward recurrence.

    Once |N| passes 1e307 a column saturates to +-inf with the sign of its last finite order, rather than
    propagate inf - inf.  Every z must be in the Bessel domain.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _upward(l_max, z, np.sin(z) / z, -np.cos(z) / z)
        # Past 1e307 (from order 2 on) |N| only grows: a column that passes it stays past it, inf or NaN up to l_max.
        hit = np.flatnonzero(~(np.abs(rows[l_max]) <= 1e307))
        block = rows[2 : l_max + 1, hit]
        past = ~(np.abs(block) <= 1e307)
        np.copyto(block, np.copysign(np.inf, rows[l_max - np.count_nonzero(past, axis=0), hit]), where=past)
        rows[2 : l_max + 1, hit] = block
        rows *= np.sqrt(2.0 * z / math.pi)
    return rows


def _half_integer_columns(l: np.ndarray, z) -> tuple[np.ndarray, ...]:
    """J_nu, J_{nu-1}, N_nu, N_{nu-1} and bessel_jn_half's saturated flag at z[a] for nu = l[a] + 1/2.

    Entries l[a] and l[a] - 1 of half_integer_j_array(l[a], z[a]) and half_integer_n_array(l[a], z[a]), bit for bit,
    from one J table and one N table: bessel_jn_half's fields, J unclamped.  BesselDomainError names the first z
    outside the Bessel domain.
    """
    (z,) = _require_domain(z=z)
    orders, col = [l, l - 1], np.arange(z.size)
    j, j_prev = _half_integer_j_table(z, l)[orders, col]
    n, n_prev = _half_integer_n_table(int(l.max()), z)[orders, col]
    return j, j_prev, n, n_prev, (np.abs(j) < _UNDERFLOW_FLOOR) | np.isinf(n)


def bessel_jn_half(order: ModeOrder, z: float) -> BesselPair:
    """J_nu, N_nu, J_{nu-1}, N_{nu-1} at z for nu = l + 1/2: one draw of ``_half_integer_columns``, J_nu clamped."""
    columns = _half_integer_columns(np.array([order.l]), [z])
    j, j_prev, n, n_prev, saturated = (v.item() for v in columns)
    return BesselPair(
        j=0.0 if abs(j) < _UNDERFLOW_FLOOR else j, n=n, j_prev=j_prev, n_prev=n_prev, z=z, saturated=saturated
    )


def _reduced_det(ja: float, ja_prev: float, a: float, gb: float, gb_prev: float, b: float) -> float:
    """det[[J_nu(a), G_nu(b)], [a J'_nu(a), b G'_nu(b)]] for a cylinder function G.

    The derivative row is eliminated with z C'_nu = z C_{nu-1} - nu C_nu;
    the nu-terms cancel, leaving J(a) b G_{nu-1}(b) - G(b) a J_{nu-1}(a).
    """
    return ja * b * gb_prev - gb * a * ja_prev
