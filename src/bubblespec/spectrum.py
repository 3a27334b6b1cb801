"""Photon spectra and totals for the sudden-transition bubble.

The dimensionless spectrum dN/dx is a y-integral of the squared
Bogolubov overlap over the cutoff rectangle; totals integrate it once
more in x (with the factorized kernel along the diagonals x - y instead),
keeping one sinc width (4pi/3) past the cutoff to capture the
finite-volume rolloff.  The homogeneous (infinite-volume) closed forms
serve as the physical cross-check: dN/dx = (1/3pi) (dn)^2/(n_in n_out) x^2
below the cutoff, N = (1/9pi) (dn)^2/(n_in n_out) x_*^3, <x>/x_* = 3/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import CutoffProfile, _factorized_hump, _lobe_envelope, f_exact_array, f_factorized
from .matching import MediumConfig, _positive_finite, _require_positive_finite
from .quadrature import (
    _MAX_LOBES,
    QuadratureError,
    QuadResult,
    _cap_error,
    _integrate_rows,
    _panel_estimates,
    adaptive_quad,
)
from .special_functions import _require_domain, _require_int

__all__ = [
    "QuadratureSpec",
    "SpectrumResult",
    "dn_dx",
    "totals",
    "infinite_volume_dn_dx",
    "infinite_volume_totals",
    "delta_kernel_totals",
    "HBAR_C_EV_NM",
    "LIGHT_SPEED_NM_S",
]

HBAR_C_EV_NM = 197.3269804
LIGHT_SPEED_NM_S = 2.99792458e17

# Spectra and totals keep one sinc width (4pi/3) past the cutoff, which
# captures the smeared rolloff while excluding the unbounded
# sudden-approximation tails.
_ROLLOFF_WIDTH = 4.0 * math.pi / 3.0

_KERNEL_MODES = ("exact", "factorized")
# The totals' y-rows start from three equal panels.
_THIRDS = np.linspace(0.0, 1.0, 4)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, panel cap and tail policy for the spectrum integrals.

    A ``tail_upper_bound`` integrates the tails up to it; None leaves them out.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    tail_upper_bound: float | None = None

    def __post_init__(self) -> None:
        _require_positive_finite(self, "rel_tol", "abs_tol")
        if self.tail_upper_bound is not None:
            _require_positive_finite(self, "tail_upper_bound")
        _require_int(self, "max_subdivisions", 1, "max_subdivisions must be an int >= 1")


def _tolerances(quad: QuadratureSpec) -> dict:
    """The quadrature driver's keywords for ``quad``: its tolerances and panel cap."""
    return {"rel_tol": quad.rel_tol, "abs_tol": quad.abs_tol, "max_subdivisions": quad.max_subdivisions}


def _reach(edge: float, quad: QuadratureSpec) -> float:
    """``edge``, or the tail bound where it lies past it."""
    return edge if quad.tail_upper_bound is None else max(edge, quad.tail_upper_bound)


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum samples plus integrated totals."""

    x_grid: list[float]
    dn_dx: list[float]
    total_photons: float
    mean_x_over_xstar: float
    energy_ev: float
    quadrature_error: float


def _check_mode(kernel_mode: str) -> None:
    if kernel_mode not in _KERNEL_MODES:
        raise ValueError(f"kernel_mode must be one of {_KERNEL_MODES}, got {kernel_mode!r}")


def _integrand(x: np.ndarray, ys: np.ndarray, cfg: MediumConfig, cut: CutoffProfile, kernel):
    """Index mismatch weight times squared momentum-mixing ratio times ``kernel(x[i], ys[i])``.

    ``kernel`` is f_factorized or f_exact_array, or a factor of f_factorized:
    the far lobes' envelope (their product panels weight its sinc^2 numerator
    exactly) or the bare hump D((x+y)/2) (the totals' u-rows weight all of
    sinc^2).  The initial index is n_gas_in up to y_star and 1 above; the
    created photon keeps n_gas_out at every x (see ``_dn_dx_batch``).
    """
    n_out = cfg.n_gas_out
    # Without tails every y is at most y_star (an edge of every panel there): one index for all points.
    below = True if np.max(ys, initial=0.0) <= cut.y_star else ys <= cut.y_star
    weight = np.where(below, *((n - n_out) * (n - n_out) / (2.0 * n * n_out) for n in (cfg.n_gas_in, 1.0)))
    kern = kernel(x, ys)
    # Past x ~ 1e154 the squares overflow to inf or NaN, which the quadrature rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        # The ratio (n_in x^2 + n_out y^2)/(n_in x + n_out y) in place, sharing n_in x and n_out y.
        n_in_x = np.multiply(np.where(below, cfg.n_gas_in, 1.0), x)
        n_out_y = n_out * ys
        den = n_in_x + n_out_y
        ratio = np.add(np.multiply(n_in_x, x, out=n_in_x), np.multiply(n_out_y, ys, out=n_out_y), out=n_in_x)
        ratio /= den
        weight = np.multiply(weight, ratio, out=den)
        for factor in (ratio, kern):
            weight *= factor
        return weight


def _far_field(d0: np.ndarray, end: np.ndarray, cap: int):
    """Panels of m = 2^j <= min(cap, d) lobes tiling the lobe distances [d0, end) from x, one run per row.

    A panel at distance d (its near edge at x -+ d sinc widths) is no wider
    than d, so 1/u^2 stays analytic on a wide ellipse around it.  From
    d0 = 2^p0 + low the widths double, 2^p at 2^p + low, while the next one
    still fits; ``runs`` cap-wide panels follow from d1, then the rest
    r < cap by its bits, highest first, up to e = d1 + cap * runs + r.
    Returns the doubling marks 2^p + low (p = 1..log2(cap) in columns), the
    rest's marks e - (r mod 2^i) (i = 0..log2(cap)), each clipped so that an
    unused one bounds no panel, d1, runs and each row's panel count.
    """
    c = cap.bit_length() - 1
    p0 = np.floor(np.log2(d0))
    low = d0 - 2.0**p0
    grow = np.maximum(0.0, np.minimum(c, np.floor(np.log2(np.maximum(end - low, 1.0)))) - p0)
    d1 = 2.0 ** (p0 + grow) + low
    runs = np.maximum(0.0, np.floor((end - d1) / cap))
    rest = np.clip(end - d1 - cap * runs, 0.0, cap - 1).astype(int)[:, None]
    doubling = np.clip(2 ** np.arange(1, c + 1) + low[:, None], d0[:, None], d1[:, None])
    tail = (d1 + cap * runs)[:, None] + rest - (rest & (2 ** np.arange(c + 1) - 1))
    count = grow + runs + np.count_nonzero(rest & 2 ** np.arange(c), axis=1)
    return doubling, tail, d1, runs, count


def _lattice(centres: np.ndarray, lo: np.ndarray, hi: np.ndarray, cap: int, max_subdivisions: int, segments=1):
    """Start panels of rows over [lo[i], hi[i]] split at the sinc^2 lattice centres[i] + k 4pi/3.

    No starting panel spans a fraction of a lobe inside (lo, hi): one K15
    panel per lobe up to two lobes from the centre and for the part lobes at
    lo and hi; with ``cap`` > 1 the other lobes are grouped into product
    panels of m = 2^j <= cap whole lobes (``_far_field``).  A row's edges
    are made in order: lo, the kept lattice points clipped to [lo, hi], and
    hi; repeated edges bound no panel.  Each run of ``segments`` consecutive
    rows is one integral, whose panel counts add up; one of more panels than
    ``max_subdivisions`` is refused before its edges are built.
    Returns the panels' (low, high) bounds, integrals and lobes (0: K15).
    """
    n = centres.size
    # Lattice points centre + k * width for k from the last one <= lo to the first >= hi.
    k_lo = np.floor((lo - centres) / _ROLLOFF_WIDTH)
    k_hi = np.ceil((hi - centres) / _ROLLOFF_WIDTH)
    # The far lobes lie >= 2 lobes from the centre and one whole lobe inside lo and hi; both sides at once.
    d0 = np.concatenate([np.maximum(2.0, 1.0 - k_hi), np.maximum(2.0, 1.0 + k_lo)])
    end = np.concatenate([-k_lo - 1.0, k_hi - 1.0])
    doubling, tail, d1, runs, count = _far_field(d0, end, cap)
    # A row starts with its k_hi - k_lo lobes, each side's far lobes taken by its panels: refuse before building it.
    far = count - np.maximum(0.0, end - d0)
    panels = k_hi - k_lo + far[:n] + far[n:]
    most = np.max(panels.reshape(-1, segments).sum(axis=1), initial=0.0)
    if most > max_subdivisions:
        unevaluated = QuadResult(np.array([math.nan]), np.array([math.nan]), int(most), False)
        raise _cap_error(most + 1, max_subdivisions, unevaluated)
    # Each row's lattice indices in order, one row of columns: lo's placeholder, k_lo, k_lo + 1; the left far
    # panels' far ends from the farthest, negated (the rest's, the cap-wide run's, the doubling ones'); the near
    # lattice -2..2; the right far panels' starts (doubling, run, rest); k_hi - 1, k_hi and hi's placeholder.
    # Each run is padded to the batch's longest with its far end: those bound no panel.
    c = cap.bit_length() - 1
    left, right = runs[:n, None], runs[n:, None]
    q_left, q_right = np.arange(int(np.max(left, initial=0.0))), np.arange(int(np.max(right, initial=0.0)))
    powers = 2 ** np.arange(c)
    ks = np.concatenate(
        [
            k_lo[:, None] + [0.0, 0.0, 1.0],
            -tail[:n, :c],
            -(d1[:n, None] + cap * np.minimum(left, q_left.size - q_left)),
            -doubling[:n, c - 1 : 0 : -1],
            np.broadcast_to(np.arange(-2.0, 3.0), (n, 5)),
            doubling[n:, : c - 1],
            d1[n:, None] + cap * np.minimum(q_right, right),
            tail[n:, c:0:-1],
            k_hi[:, None] + [-1.0, 0.0, 0.0],
        ],
        axis=1,
    )
    # The lobes of the panel each column starts (0: a K15 panel), in the same order.
    run_left, run_right, k15 = np.full_like(q_left, cap), np.full_like(q_right, cap), [0] * 5
    lobes = np.concatenate(
        [k15[:3], powers, run_left, powers[:0:-1], k15[:5], powers[1:], run_right, powers[::-1], k15[2:]]
    )
    # Inner indices clip to [k_lo + 1, k_hi - 1], so that the columns stay sorted where a side has no far lobes.
    inner_lo = np.minimum(k_lo + 1.0, k_hi)[:, None]
    inner = ks[:, 2:-2]
    np.clip(inner, inner_lo, np.maximum(k_hi[:, None] - 1.0, inner_lo), out=inner)
    edges = np.clip(centres[:, None] + ks * _ROLLOFF_WIDTH, lo[:, None], hi[:, None])
    edges[:, 0], edges[:, -1] = lo, hi
    row, col = np.nonzero(edges[:, :-1] < edges[:, 1:])
    return np.array([edges[row, col], edges[row, col + 1]]), row // segments, lobes[col]


def _dn_dx_batch(xs: np.ndarray, cfg: MediumConfig, cut: CutoffProfile, quad: QuadratureSpec, kernel_mode: str):
    """dN/dx and its error bound at every x, all y-integrals in one batched quadrature.

    Each y-integral is a ``_lattice`` row centred at x (itself and every
    zero of the kernel's sinc^2(3(x - y)/4)) over [0, y_star] and, with
    tails, a second segment over the strip [y_star, upper], so that y_star
    stays an edge: product panels for the factorized kernel and one K15
    panel per lobe for the exact one, whose tail bound must lie in its
    domain.  The step down from one row's upper to the next row's 0 bounds
    no panel.  Each round's one integrand call per chunk takes
    f_factorized on the K15 nodes and the far lobes' envelope (the hump
    through ``_lobe_envelope``) on the product nodes, under one
    ``_integrand``.

    The created photon keeps the bulk index n_gas_out through the rolloff
    strip x in (x_star, x_star + sinc width]: the strip is populated by
    modes just below the cutoff, and letting the prefactor jump there
    (e.g. from |n_in - n_out| to |n_in - 1|) produces the same
    sudden-approximation artifact as the excluded tail regions.
    """
    y_star, upper, tol = cut.y_star, _reach(cut.y_star, quad), _tolerances(quad)
    factorized = kernel_mode == "factorized"
    ends = [0.0, y_star] if upper == y_star else [0.0, y_star, upper]
    if not factorized and upper > y_star:
        _require_domain(y=upper)
    segments = len(ends) - 1
    bounds, rows, lobes = _lattice(
        xs.repeat(segments),
        np.tile(ends[:-1], xs.size),
        np.tile(ends[1:], xs.size),
        _MAX_LOBES if factorized else 1,
        tol["max_subdivisions"],
        segments=segments,
    )
    kernel = f_factorized if factorized else f_exact_array

    def integrand(ys, row, split=None):
        x = xs[row]
        if split is None:
            return _integrand(x, ys, cfg, cut, kernel)
        # The product nodes, from split on, take the far lobes' envelope (their rule weights the sin^2 numerator).
        head, tail = slice(None, split), slice(split, None)
        far = lambda x, y: _lobe_envelope(_factorized_hump(x, y), x - y)
        joint = lambda x, y: np.concatenate([f_factorized(x[head], y[head]), far(x[tail], y[tail])])
        return _integrand(x, ys, cfg, cut, joint)

    value, error, _ = _integrate_rows(integrand, bounds, rows, lobes=lobes if factorized else None, **tol)
    return value.ravel(), error.ravel()  # one component, no columns for no rows


def dn_dx(
    x: float,
    cfg: MediumConfig,
    cut: CutoffProfile,
    quad: QuadratureSpec = QuadratureSpec(),
    kernel_mode: str = "factorized",
) -> float:
    """Spectrum dN/dx: adaptive y-integration over the cutoff strip."""
    x = _positive_finite("x", x)
    _check_mode(kernel_mode)
    if cfg.n_gas_in == cfg.n_gas_out:
        return 0.0
    return float(_dn_dx_batch(np.array([x]), cfg, cut, quad, kernel_mode)[0][0])


def _diagonal_totals(cfg: MediumConfig, cut: CutoffProfile, quad: QuadratureSpec, x_max: float, upper: float):
    """N, the x-moment and the y-rows' error for the factorized kernel, integrated along the diagonals.

    The kernel's only oscillation, sinc^2(3u/4), depends on u = x - y alone:
    N = int sinc^2(3u/4) H(u) du over u in [-upper, x_max], H(u) the integral
    of ``_integrand`` with the bare hump D((x+y)/2) along x = y + u, y in
    [max(0, -u), min(upper, x_max - u)], and the moment likewise with x H.
    H is smooth but for kinks where a line's ends, or y_star, pass a corner:
    u = 0, x_max - upper and, with tails, x_max - y_star and -y_star.  The
    u-integral is one lattice row centred at 0, one segment between kinks
    (``_lattice``): each kink is an edge, its lobe a K15 panel, and the far
    product panels take the envelope H/(3u/4)^2.  Each outer round's one
    integrand call integrates the y-rows of all its u-nodes, K15 and
    product alike, in one batch, each row from three equal panels, y_star
    and edges r y_star 10^k (k >= 0, r = min/max of the indices) from its
    start, where x or y is 0 and the momentum ratio turns within about r
    times the other momentum; then it weights the K15 nodes' H by
    sinc^2(3u/4) and the product nodes' by 1/(3u/4)^2.  A u-row too long
    to lay out is refused, unless the moment overflows on the last lobe's
    line first (past x ~ 1e102), which is the error then.
    """
    y_star, low, high = cut.y_star, min(cfg.n_gas_in, cfg.n_gas_out), max(cfg.n_gas_in, cfg.n_gas_out)
    tol = _tolerances(quad)
    # Up to upper, and at most the 17 decades a double resolves (r and r y_star may underflow).
    decades = math.log10(upper) + math.log10(high) - math.log10(low) - math.log10(y_star)
    grade = low / high * y_star * 10.0 ** np.arange(max(1, min(17, math.ceil(decades))))

    def along(us: np.ndarray):
        """The y-integrand of H and x H along the lines x = y + us[row]."""

        def f(ys, row):
            x = us[row] + ys
            h = _integrand(x, ys, cfg, cut, _factorized_hump)
            with np.errstate(over="ignore", invalid="ignore"):
                return np.vstack([h, x * h])

        return f

    def h_rows(us: np.ndarray) -> np.ndarray:
        """H, x H and the claimed error of H at ``us``, shape (3, n)."""
        ya, yb = np.maximum(0.0, -us), np.minimum(upper, x_max - us)
        ya, yb = ya[:, None], yb[:, None]
        ends = np.concatenate([ya + (yb - ya) * _THIRDS, ya + grade, np.full_like(ya, y_star)], axis=1)
        ends = np.sort(np.clip(ends, ya, yb), axis=1)
        row, col = np.nonzero(ends[:, :-1] < ends[:, 1:])
        value, error, _ = _integrate_rows(along(us), np.array([ends[row, col], ends[row, col + 1]]), row, **tol)
        return np.vstack([value.T, error[:, 0]])

    def weigh(us: np.ndarray, h: np.ndarray, split: int) -> np.ndarray:
        """sinc^2(3u/4) H at the K15 nodes and the envelope H/(3u/4)^2 at the product nodes, from ``split`` on."""
        k15, far = h[:, :split] * np.sinc(us[:split] * (0.75 / np.pi)) ** 2, _lobe_envelope(h[:, split:], us[split:])
        return k15 if split == us.size else np.concatenate([k15, far], axis=1)

    # A kink within rounding of a lattice point (x* = y* puts x_max - upper there) moves onto it: no sliver panel.
    kinks = np.array([0.0, x_max - upper, x_max - y_star, -y_star])
    near = _ROLLOFF_WIDTH * np.round(kinks / _ROLLOFF_WIDTH)
    kinks = np.where(np.abs(kinks - near) <= 1e-15 * (x_max + upper), near, kinks)
    kinks = np.array(sorted({-upper, x_max, *(k for k in kinks.tolist() if -upper < k < x_max)}))
    try:
        bounds, _, lobes = _lattice(
            np.zeros(kinks.size - 1), kinks[:-1], kinks[1:], _MAX_LOBES, tol["max_subdivisions"], kinks.size - 1
        )
    except QuadratureError:
        # The moment grows with x up to x_max, and overflows there only far past the row's refused length: one K15
        # panel on the last lobe's line raises that typed error instead, where it applies.
        last = np.array([[0.0], [min(upper, _ROLLOFF_WIDTH)]])
        _panel_estimates(along(np.array([x_max - _ROLLOFF_WIDTH])), last, np.zeros(1, int), np.zeros(1, int))
        raise
    return adaptive_quad(h_rows, -upper, x_max, breakpoints=bounds[0, 1:], lobes=lobes, finish=weigh, tested=2, **tol)


def _x_row_totals(cfg: MediumConfig, cut: CutoffProfile, quad: QuadratureSpec, x_max: float) -> QuadResult:
    """N, the x-moment and the rows' error for the exact kernel, as an outer x-integral of dN/dx rows.

    Its G(x + y) and r_0^2 terms oscillate along the diagonals too.  dN/dx
    approaches y* as 1/(y* - x) under a ripple one sinc width W wide: start
    edges at y* - W 1.5^k make the panel next to y* one sinc width and each
    one below it at most half as wide as its distance from y*.
    """

    def rows(xs: np.ndarray) -> np.ndarray:
        values, errors = _dn_dx_batch(xs, cfg, cut, quad, "exact")
        return np.vstack([values, xs * values, errors])

    steps = _ROLLOFF_WIDTH * 1.5 ** np.arange(max(0, math.ceil(math.log(cut.y_star / _ROLLOFF_WIDTH, 1.5))))
    breakpoints = [cut.x_star, cut.y_star, *(cut.y_star - steps).tolist()]
    return adaptive_quad(rows, 0.0, x_max, breakpoints=breakpoints, tested=2, **_tolerances(quad))


def totals(
    cfg: MediumConfig,
    cut: CutoffProfile,
    quad: QuadratureSpec = QuadratureSpec(),
    kernel_mode: str = "factorized",
    grid_points: int = 200,
) -> SpectrumResult:
    """Integrated photon number, mean energy ratio and physical energy.

    The integrals run over x in [0, x_star + one sinc width] (or the tail
    bound) and y in [0, y_star] (or the tail bound); the photon number and
    the energy moment share a single vector-valued pass.  The factorized
    kernel takes them along the diagonals (``_diagonal_totals``), the exact
    one as an outer x-integral of dN/dx rows (``_x_row_totals``).  Either
    outer rule integrates a third component, the error of each inner row,
    that its tolerance test leaves out: the claimed ``quadrature_error`` of
    N is the outer error of N plus that integral.  ``grid_points`` samples
    of dN/dx are returned for plotting (0 skips the grid).
    """
    _check_mode(kernel_mode)
    x_max, upper = _reach(cut.x_star + _ROLLOFF_WIDTH, quad), _reach(cut.y_star, quad)
    grid = np.linspace(0.0, x_max, grid_points)
    if cfg.n_gas_in == cfg.n_gas_out:
        return SpectrumResult(list(map(float, grid)), [0.0] * len(grid), 0.0, 0.0, 0.0, 0.0)

    if kernel_mode == "factorized":
        res = _diagonal_totals(cfg, cut, quad, x_max, upper)
    else:
        res = _x_row_totals(cfg, cut, quad, x_max)
    n_total, x_moment = float(res.value[0]), float(res.value[1])
    mean_x = x_moment / n_total if n_total > 0.0 else 0.0
    energy = HBAR_C_EV_NM / (cfg.radius * cfg.n_gas_out) * x_moment
    # The grid starts at x = 0, where dN/dx vanishes.
    spectrum = [0.0, *map(float, _dn_dx_batch(grid[1:], cfg, cut, quad, kernel_mode)[0])] if grid_points else []
    return SpectrumResult(
        x_grid=list(map(float, grid)),
        dn_dx=spectrum,
        total_photons=n_total,
        mean_x_over_xstar=mean_x / cut.x_star,
        energy_ev=energy,
        quadrature_error=float(res.error[0] + res.value[2]),
    )


def _homogeneous(cfg: MediumConfig, c: float, x: float, k: int) -> float:
    """(dn)^2/(c pi n_in n_out) x^k, k = 2 or 3, wherever a double holds it, and inf past the double range.

    The direct product (x x for k = 2, pow(x, 3) for k = 3) keeps its bits where it is finite and nonzero.  Where a
    step of it over- or underflows (n_in = 1e300, n_out = 1e-300), or dn is 0, the factors' binary mantissas and
    exponents are multiplied apart and joined once.
    """
    n_in, n_out = cfg.n_gas_in, cfg.n_gas_out
    dn = n_in - n_out
    try:
        scale = dn * dn / (c * math.pi * n_in * n_out)
        value = scale * x * x if k == 2 else scale * x**k
    except (OverflowError, ZeroDivisionError):  # a float's pow past the range, or a denominator underflowed to 0
        value = math.nan
    if value and math.isfinite(value):
        return value
    (m_dn, e_dn), (m_in, e_in), (m_out, e_out), (m_x, e_x) = map(math.frexp, (dn, n_in, n_out, x))
    try:
        return math.ldexp(m_dn * m_dn / (c * math.pi * m_in * m_out) * m_x**k, 2 * e_dn - e_in - e_out + k * e_x)
    except OverflowError:
        return math.inf


def infinite_volume_dn_dx(x: float, cfg: MediumConfig, cut: CutoffProfile) -> float:
    """Homogeneous-medium spectrum (1/3pi)((dn)^2/(n_in n_out)) x^2 below x_*."""
    x = _positive_finite("x", x)
    return 0.0 if x > cut.x_star else _homogeneous(cfg, 3.0, x, 2)


def infinite_volume_totals(cfg: MediumConfig, cut: CutoffProfile) -> tuple[float, float]:
    """(N, <x>/x_*) in closed form: N = (1/9pi)((dn)^2/(n n)) x_*^3, ratio 3/4; ValueError where N overflows."""
    n = _homogeneous(cfg, 9.0, cut.x_star, 3)
    if math.isinf(n):
        raise ValueError(f"N overflows a double for {cfg} at x_star={cut.x_star!r}")
    return n, 0.75


def delta_kernel_totals(
    cfg: MediumConfig, cut: CutoffProfile, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[float, float]:
    """(N, <x>/x_*) by quadrature of the delta-replacement spectrum.

    Must reproduce infinite_volume_totals to quadrature tolerance; kept
    numeric as an end-to-end check of the integration layer.
    """

    def f(xs: np.ndarray) -> np.ndarray:
        vals = np.array([infinite_volume_dn_dx(float(x), cfg, cut) if x > 0 else 0.0 for x in xs])
        return np.vstack([vals, xs * vals])

    res = adaptive_quad(f, 0.0, cut.x_star, **_tolerances(quad))
    n, moment = float(res.value[0]), float(res.value[1])
    return n, (moment / n / cut.x_star if n > 0 else 0.0)
