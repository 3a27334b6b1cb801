"""Independent identities used to validate the numerical pipeline.

The four suites of ``bubblespec check``, each an ``IdentityReport``: the Bessel cross-product Wronskian 2/pi, the
wall matching's |B|^2 + |C|^2 = 1, the closed-form finite-range Bessel overlap integral and the smeared spectral
delta identities.  The first three draw all their samples first, then run as array passes over one J table (and
one N table) each.  The per-draw calls ``bessel_jn_half``, ``coefficients_bc`` and ``hankel_finite_integral`` are
one-draw passes of the same routines, and each suite takes its worst draw again through its per-draw call and fails
unless the two agree exactly: a draw's values do not depend on its batch.  The overlap is the exact kernel's own
ratio W~/(x^2 - y^2), its series over the kernel's backward J table at both arguments (``kernel._overlap_table``),
checked against a self-verified composite Gauss-Legendre rule, independent of the production Gauss-Kronrod pair and
built once on first use (``_legendre_rule``), over ``_jv``: J_{l+1/2} for l <= 10 and z <= 100 from the power series
(DLMF 10.2.2) below z = 8 and the finite sin/cos closed form (DLMF 10.49.2) from 8 up, its P and Q by Horner in
-1/z^2, independent of the package's J recurrence.  The delta identities are closed forms.  No suite loads scipy.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .kernel import _overlap_table
from .matching import _amplitudes_at, _positive_finite, coefficients_bc
from .special_functions import (
    _UNDERFLOW_FLOOR, BesselDomainError, ModeOrder, _half_integer_columns, _reduced_det, _require_domain, bessel_jn_half,
)

__all__ = [
    "IdentityReport", "finite_overlap_checks", "hankel_finite_integral", "matching_checks", "spectral_delta_checks",
    "wronskian_checks",
]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity suite."""

    name: str
    max_rel_error: float
    samples: int
    passed: bool


def wronskian_checks(rng: random.Random) -> IdentityReport:
    """The J/N cross determinant at equal arguments against the Wronskian 2/pi, at 2000 draws from ``rng``.

    Draws take l in 0..60 and z log-uniform in [0.1, 100], skipping a saturated or overflowed N; passes below 1e-10.
    ``samples`` counts the draws tested, skips excluded.  One array pass reads every draw's J and N pairs from one J
    table and one N table (``_half_integer_columns``), bit for bit bessel_jn_half's; the worst draw is taken again
    through ``bessel_jn_half`` itself, and the suite fails unless the two agree exactly.
    """
    draws = [(rng.randint(0, 60), 10 ** rng.uniform(-1, 2)) for _ in range(2000)]
    l, z = (np.array(v) for v in zip(*draws))
    j, j_prev, n, n_prev, saturated = _half_integer_columns(l, z)
    l, j, j_prev, n, n_prev, z = (v[~saturated] for v in (l, j, j_prev, n, n_prev, z))
    rel = np.abs(_reduced_det(j, j_prev, z, n, n_prev, z) - 2 / math.pi) / (2 / math.pi)
    a = int(rel.argmax())
    p = bessel_jn_half(ModeOrder(int(l[a])), float(z[a]))
    same = (p.j, p.j_prev, p.n, p.n_prev) == tuple(v[a].item() for v in (j, j_prev, n, n_prev))
    return IdentityReport("wronskian", float(rel[a]), z.size, bool(rel[a] < 1e-10) and same)


def matching_checks(rng: random.Random) -> IdentityReport:
    """|B^2 + C^2 - 1| of the wall amplitudes at 500 draws from ``rng``; passes below 1e-12.

    Draws take l in 0..20, y in [0.05, 30] and the index ratio in [0.5, 3].
    One array pass (``matching._amplitudes_at``) gives coefficients_bc's (B, C) for every draw, bit for bit; the
    worst draw is taken again through ``coefficients_bc`` itself, and the suite fails unless the two agree exactly.
    """
    draws = [(rng.randint(0, 20), rng.uniform(0.05, 30.0), rng.uniform(0.5, 3.0)) for _ in range(500)]
    l, y, ratio = (np.array(v) for v in zip(*draws))
    _, b, c = _amplitudes_at(l, y, ratio)
    err = np.abs(b * b + c * c - 1.0)
    a = int(err.argmax())
    same = coefficients_bc(ModeOrder(int(l[a])), float(y[a]), float(ratio[a])) == (b[a].item(), c[a].item())
    return IdentityReport("matching-unit-circle", float(err[a]), 500, bool(err[a] < 1e-12) and same)


def hankel_finite_integral(order: ModeOrder, k1: float, k2: float, R: float) -> float:
    """Closed form of int_0^R r J_nu(k1 r) J_nu(k2 r) dr = R^2 W~_nu(a, b)/(a^2 - b^2), (a, b) = (k1 R, k2 R).

    One draw of ``_overlap_ratios``, equal wavenumbers included.  Each raw number must be positive and finite first:
    R < 0 would turn two negative wavenumbers positive.  An R whose square overflows raises BesselDomainError too.
    """
    k1, k2, R = (_positive_finite(name, v, BesselDomainError) for name, v in (("k1", k1), ("k2", k2), ("R", R)))
    if R * R == math.inf:
        raise BesselDomainError(f"the closed form's R^2 overflows at R={R!r}")
    _require_domain(x=k1 * R, y=k2 * R)
    return R * R * _overlap_ratios(np.array([order.l]), np.array([k1 * R]), np.array([k2 * R])).item()


def _overlap_ratios(l: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W~_nu(a, b)/(a^2 - b^2), nu = l + 1/2, at draws in the Bessel domain: ``kernel._overlap_table`` from order l + 1.

    Each draw sums its own rows, so its value does not depend on its batch.  BesselDomainError names the first draw
    whose leading row J_{nu+1}(a) J_{nu+1}(b) is below _UNDERFLOW_FLOOR, where underflow would leave 0.0 or NaN.
    """
    draw = np.arange(a.size)
    ratios, products = _overlap_table(a, b, l + 1, np.zeros(a.size, dtype=bool))
    # Past the floor check a*b is above 1e-200: 2/(a b) is finite.
    lost = np.abs(products[l + 1, draw]) < _UNDERFLOW_FLOOR
    if lost.any():
        i = int(lost.argmax())
        raise BesselDomainError(f"the overlap of order l={l[i]} underflows at a={a[i]}, b={b[i]}")
    return ratios[l, draw]


def _jv(l: int, z: np.ndarray) -> np.ndarray:
    """J_{l+1/2}(z) for 0 <= l <= 10 and 0 < z <= 100, without the package's J recurrence.

    Below z = 8 the power series (DLMF 10.2.2), 30 terms; from 8 up the
    finite sin/cos closed form of j_l (DLMF 10.49.2), times sqrt(2z/pi),
    its polynomials P and Q by Horner in v = -1/z^2 (Q = 0 at l = 0).
    Outside that domain it raises ``ValueError``: it is verified there only.
    """
    if not 0 <= l <= 10 or not np.all((z > 0.0) & (z <= 100.0)):
        raise ValueError(f"_jv is verified for 0 <= l <= 10 and 0 < z <= 100, got l={l}")
    nu = l + 0.5
    out = np.empty_like(z)
    small = z < 8.0
    zs = z[small]
    # (z/2)^nu/Gamma(nu + 1) = sqrt(2z/pi) z^l/(2l + 1)!!, times the terms k = 0..29 of
    # sum_k (-z^2/4)^k Gamma(nu + 1)/(k! Gamma(nu + k + 1)), each from the one before.
    q, term, series = -0.25 * zs * zs, 1.0, 1.0
    for k in range(1, 30):
        term = term * q / (k * (nu + k))
        series = series + term
    out[small] = np.sqrt(2.0 * zs / math.pi) * zs**l / math.prod(range(1, 2 * l + 2, 2)) * series
    zl = z[~small]
    # j_l(z) = [sin(z - l pi/2) P + cos(z - l pi/2) Q]/z with P = sum_m a_2m (-1/z^2)^m and
    # Q = sum_m a_2m+1 (-1/z^2)^m/z, where a_k = (l + k)!/(2^k k! (l - k)!) are exact in double.
    # Both by Horner in v = -1/z^2: numpy's power on a negative base falls back to scalar libm pow, about 40
    # times slower an element.  l = 0 has no odd coefficient, and polyval of none is Q = 0.
    a = [math.factorial(l + k) / (math.factorial(k) * math.factorial(l - k) * 2**k) for k in range(l + 1)]
    v = -1.0 / (zl * zl)
    p = np.polyval(a[0::2][::-1], v)
    qq = np.polyval(a[1::2][::-1], v) / zl
    # sin and cos of z - l pi/2 by l quarter turns of (sin z, cos z), exact
    s, c = np.sin(zl), np.cos(zl)
    for _ in range(l % 4):
        s, c = -c, s
    out[~small] = np.sqrt(2.0 / (math.pi * zl)) * (s * p + c * qq)
    return out


@functools.cache
def _legendre_rule() -> tuple:
    """The 24-point Gauss-Legendre rule on [-1, 1], built once, on first use.

    Not at import: loading numpy.polynomial would cost every CLI start about 3.5 ms.  Read-only, as every caller
    shares it.
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre_overlaps(draws: list, panels: list[int], rule: tuple) -> np.ndarray:
    """int_0^R r J_{l+1/2}(k1 r) J_{l+1/2}(k2 r) dr for each draw (l, k1, k2, R) on its own count of equal panels.

    The Gauss-Legendre ``rule`` takes every draw's nodes in one block of rows, and the Bessel functions come from one
    ``_jv`` call per order (DLMF 10.2.2 below z = 8, DLMF 10.49.2 from 8 up; l <= 10, z <= 100), not from the J
    recurrence under test.  Each draw's rows are weighted and summed on their own, as for that draw alone.
    """
    nodes, weights = rule
    l, k1, k2, radius = (np.array(v) for v in zip(*draws))
    count = np.array(panels)
    half = 0.5 * radius / count
    draw = np.arange(count.size).repeat(count)
    first = np.cumsum(count) - count
    r = half[draw, None] * ((2 * (np.arange(draw.size) - first[draw]) + 1)[:, None] + nodes)
    product = np.empty_like(r)
    for order in sorted(set(l.tolist())):
        rows = np.flatnonzero(l[draw] == order)
        j1, j2 = _jv(order, np.array([k1, k2])[:, draw[rows], None] * r[rows])
        product[rows] = r[rows] * j1 * j2
    return np.array([h * (product[a : a + n] @ weights).sum() for h, a, n in zip(half, first, count)])


def finite_overlap_checks(rng: random.Random) -> IdentityReport:
    """The closed form at 25 draws from ``rng`` against ``_gauss_legendre_overlaps``.

    Draws take l in 0..10, k1 and k2 in [0.5, 5] and R in [1, 20].  The 24-point rule takes one panel per 12 radians
    of the fastest phase (k1 + k2) r, where its error is far below rounding, and again twice as many: the suite passes
    if the two agree to 1e-11 and the closed form matches the finer one to 1e-8, both relative.  One array pass
    (``_overlap_ratios``) gives every draw's hankel_finite_integral value, bit for bit; the worst draw is taken again
    through ``hankel_finite_integral`` itself, and the suite fails unless the two agree exactly.
    """
    draws = [
        (rng.randint(0, 10), rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0), rng.uniform(1.0, 20.0)) for _ in range(25)
    ]
    l, k1, k2, radius = (np.array(v) for v in zip(*draws))
    closed = radius * radius * _overlap_ratios(l, k1 * radius, k2 * radius)
    panels = np.ceil((k1 + k2) * radius / 12.0).astype(int).tolist()
    coarse, ref = np.split(_gauss_legendre_overlaps(draws * 2, panels + [2 * n for n in panels], _legendre_rule()), 2)
    err, err_self = (np.abs(v - ref) / np.maximum(np.abs(ref), 1e-12) for v in (closed, coarse))
    a = int(err.argmax())
    same = hankel_finite_integral(ModeOrder(draws[a][0]), *draws[a][1:]) == closed[a].item()
    passed = bool(err[a] < 1e-8 and err_self.max() <= 1e-11) and same
    return IdentityReport("finite-overlap-closed-form", float(err[a]), 25, passed)


def _fejer_deviation(s: float) -> float:
    """1 - int sin^2(s t)/(s pi t^2) e^{-t^2/2} dt."""
    return math.erfc(math.sqrt(2.0) * s) - math.expm1(-2.0 * s * s) / (s * math.sqrt(2.0 * math.pi))


def _dirichlet_deviation(big_r: float) -> float:
    """1 - int sin(k R)/(pi k) e^{-k^2/2} dk."""
    return math.erfc(big_r / math.sqrt(2.0))


def spectral_delta_checks() -> IdentityReport:
    """Smeared delta-sequence identities against the Gaussian g(t) = e^{-t^2/2}.

    Verifies that int f_s(t) g(t) dt -> g(0) = 1 monotonically for the
    sequence f_s(t) = sin^2(s t)/(s pi t^2), and that sin(kR)/(pi k)
    likewise reproduces g(0) at large R.  Pointwise limits of these
    oscillatory kernels are meaningless numerically; only the weak form
    is tested, in closed form.  G(a) = int (1 - cos a t) g(t)/t^2 dt has
    G'(a) = int sin(a t) g(t)/t dt = pi erf(a/sqrt 2), so the sin^2 form is
    G(2s)/(2 pi s) = erf(sqrt 2 s) + expm1(-2 s^2)/(s sqrt(2 pi)); the sin
    form is G'(R)/pi = erf(R/sqrt 2).
    """
    deviations = [_fejer_deviation(s) for s in (5.0, 10.0, 20.0, 50.0)]
    sin_dev = [_dirichlet_deviation(big_r) for big_r in (25.0, 50.0, 100.0)]
    monotone = all(b <= a * 1.05 + 1e-6 for seq in (deviations, sin_dev) for a, b in zip(seq, seq[1:]))
    worst = max(deviations[-1], sin_dev[-1])
    return IdentityReport("spectral-delta", worst, len(deviations) + len(sin_dev), monotone and worst < 0.01)
