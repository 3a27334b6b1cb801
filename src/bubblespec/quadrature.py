"""Vectorized adaptive Gauss-Kronrod quadrature with breakpoints.

One refinement loop integrates many rows (integrals, each over its own
panels) together: each round evaluates the pending panels of every row
in a few integrand callbacks of at most ``_CHUNK_POINTS`` points each,
which keeps the Python overhead per function value small and the
integrand's temporaries within a core's L2 cache, and each callback's
values are reduced to their panels' rule sums at once.  Each panel gets
the nested 7-point Gauss / 15-point Kronrod pair (QUADPACK's qk15): the
Kronrod rule reuses the Gauss nodes, so a panel costs 15 evaluations, its
value is the K15 estimate and its error |K15 - G7|.  Each row's worst
panels are bisected until its tolerance is met.  Results are
deterministic: a row's value and error are the plain sums of its panels,
kept sorted by left end, that its tolerance test read; a batch returns
its rows' values, errors and subdivision counts as arrays.

A row may also hold product panels for integrands g(t) sin^2(pi m (1 + t)/2)
that span m = 1, 2, 4, ..., 64 whole periods of the sin^2 weight (in the
panel's local t in [-1, 1]): the round's one callback is told where their
nodes start, after the K15 nodes, and returns the smooth factor g there,
at 23 interior Fejer nodes cos(i pi/24), and fixed interpolatory weights
per m integrate the weight exactly (QUADPACK's QAWO, Filon-type rules).  The
value is that 23-point rule, the error its distance from the 11-point rule
on the nodes of even i; a product panel bisects into two of m/2 periods,
and one of a single period into two K15 halves.

Supports vector-valued integrands so that several moments of the same
integrand (e.g. a spectrum and its energy weighting) share one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "adaptive_quad"]


def _symmetric_rule(nodes: list[float], weights: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of a rule given by its centre and non-negative half."""
    return np.array([-x for x in nodes[:0:-1]] + nodes), np.array(weights[:0:-1] + weights)


# The 7-point Gauss-Legendre rule, equal bit for bit to
# scipy.special.roots_legendre(7), and its 15-point Kronrod extension
# (Piessens et al. 1983, QUADPACK qk15), written out so that importing the
# package does not load scipy.  The Kronrod rule adds a node between and
# beyond each Gauss node and takes the Gauss nodes from the same literals,
# so the G7 values are the K15 values at its odd nodes.
_G7_NODES = [0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427584]
_W7 = _symmetric_rule(
    _G7_NODES, [0.4179591836734691, 0.38183005050511876, 0.2797053914892766, 0.12948496616886992]
)[1]
_XK15, _WK15 = _symmetric_rule(
    [x for pair in zip(_G7_NODES, [0.20778495500789848, 0.5860872354676911, 0.8648644233597691, 0.9914553711208126])
     for x in pair],
    [0.20948214108472782, 0.20443294007529889, 0.19035057806478542, 0.1690047266392679,
     0.14065325971552592, 0.10479001032225019, 0.06309209262997856, 0.022935322010529224],
)

# Product panels span m = 2^j periods of their sin^2 weight, j < _LEVELS.
_LEVELS = 7
_MAX_LOBES = 2 ** (_LEVELS - 1)
# Fejer's second rule: the interior Chebyshev extrema cos(i pi/24), ascending, so
# that its nodes at even i, the 11-point rule, are the odd entries as in K15.
_XF23 = np.cos(np.arange(23, 0, -1) * (np.pi / 24))


def _sin2_weights() -> tuple[np.ndarray, ...]:
    """W[j, i] with sum_i W[j, i] g(t_i) = int_{-1}^1 p(t) sin^2(pi m (1 + t)/2) dt, m = 2^j, p interpolating g.

    For the 23 nodes and for the 11 of even i: the zeros t_i = cos(theta_i)
    of U_n, n = 23 and 11.  The discrete orthogonality of U_k there makes
    p = sum_k c_k U_k with c_k = 2/(n+1) sum_i sin(theta_i) sin((k+1) theta_i) g(t_i),
    so the weights need no linear solve (nor the BLAS one would load).  The
    moments of U_k against the weight, by U_{k+1} = 2t U_k - U_{k-1}, come
    from a composite K15 rule of two panels per period (the weight is
    entire, so this is exact to rounding), for every level in one pass.
    """
    lobes = 2 ** np.arange(_LEVELS)
    level = np.arange(_LEVELS).repeat(2 * lobes)
    # Level j's 2m panels follow the 2m - 2 of the levels below it.
    first = 2 * lobes - 2
    m = lobes[level][:, None]
    t = (np.arange(level.size)[:, None] - first[level][:, None] + 0.5 * (_XK15 + 1.0)) / m - 1.0
    weight = (_WK15 / (2 * m) * np.sin(0.5 * np.pi * m * (t + 1.0)) ** 2).ravel()
    t = t.ravel()
    moments, u_prev, u = [], np.ones_like(t), 2.0 * t
    for _ in range(_XF23.size):
        moments.append(np.add.reduceat(u_prev * weight, first * _XK15.size))
        u_prev, u = u, 2.0 * t * u - u_prev
    theta = [np.arange(n, 0, -1) * (np.pi / (n + 1)) for n in (23, 11)]
    return tuple(
        np.einsum("ik,kj->ji", np.sin(np.outer(th, np.arange(1, th.size + 1))), np.array(moments[: th.size]))
        * (2.0 / (th.size + 1) * np.sin(th))
        for th in theta
    )

_W23, _W11 = _sin2_weights()
# Most points per integrand call: keeps the integrand's temporaries (64 kB
# each) in L2 cache however many panels a round evaluates.
_CHUNK_POINTS = 2**13
# Each rule's nodes repeated for as many panels as one call takes.
_TILED = {x.size: np.tile(x, _CHUNK_POINTS // x.size) for x in (_XK15, _XF23)}
# Fraction of surviving panels refined per round.
_REFINE_FRACTION = 0.3
# f(points, rows), or f(points, rows, split) in a round with product panels.
_RowIntegrand = Callable[..., np.ndarray]


@dataclass(frozen=True)
class QuadResult:
    """Integral estimate with its error bound and subdivision count."""

    value: np.ndarray
    error: np.ndarray
    subdivisions: int
    converged: bool

    @property
    def scalar(self) -> float:
        return float(self.value[0])


class QuadratureError(ArithmeticError):
    """Tolerance not reached; carries the best estimate and its error."""

    def __init__(self, message: str, result: QuadResult):
        super().__init__(message)
        self.result = result


def _cap_error(edges: float, max_subdivisions: int, result: QuadResult) -> QuadratureError:
    """The error of a row whose starting panels alone are more than the cap."""
    return QuadratureError(
        f"quadrature starts with {edges:.6g} panel edges, more than max_subdivisions={max_subdivisions} allows", result
    )


def _panel_estimates(f, bounds, rows, lobes) -> np.ndarray:
    """Values and errors of the panels, shape (2, n_components, n_panels).

    Panels of ``lobes`` 0 take K15 and |K15 - G7|; the others are product
    panels of that many sin^2 periods and take the 23- and 11-point product
    rules on the smooth factor.  The K15 panels' nodes come first, then the
    product panels', in calls of at most ``_CHUNK_POINTS`` points of whole
    panels, each call reduced to its panels' rule sums at once; the
    estimates equal those of one call.  A call is f(points, rows) where no
    panel is a product panel, else f(points, rows, split) with the product
    nodes, where f returns the smooth factor, from ``split`` on.  A panel
    whose estimate is not finite raises QuadratureError.
    """
    n_k15 = lobes.size - int(np.count_nonzero(lobes))
    mixed = n_k15 < lobes.size
    w23 = w11 = None
    if mixed:
        order = np.argsort(lobes > 0, kind="stable")  # the K15 panels first, each kind in panel order
        bounds, rows, lobes = bounds[:, order], rows[order], lobes[order]
        # One row of the weights per product panel: its 2^level periods pick it.
        level = np.frexp(lobes[n_k15:])[1] - 1
        w23, w11 = _W23[level], _W11[level]
    lows, highs = bounds
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    est, start = None, 0
    while start < lobes.size:
        # As many whole panels as _CHUNK_POINTS holds: K15 panels, then product panels in the room they leave.
        k15 = slice(start, max(start, min(n_k15, start + _CHUNK_POINTS // _XK15.size)))
        room = _CHUNK_POINTS - (k15.stop - start) * _XK15.size
        far = slice(max(start, n_k15), min(lobes.size, max(start, n_k15) + room // _XF23.size))
        parts = [p for p in ((k15, 0, _XK15, _WK15, _W7), (far, n_k15, _XF23, w23, w11)) if p[0].stop > p[0].start]
        pts = [half[s].repeat(x.size) * _TILED[x.size][: (s.stop - s.start) * x.size] + mid[s].repeat(x.size)
               for s, _, x, *_ in parts]
        pt_rows = [rows[s].repeat(x.size) for s, _, x, *_ in parts]
        pts, pt_rows = (pts[0], pt_rows[0]) if len(parts) == 1 else (np.concatenate(pts), np.concatenate(pt_rows))
        split = (k15.stop - start) * _XK15.size
        chunk = np.atleast_2d(np.asarray(f(pts, pt_rows, split) if mixed else f(pts, pt_rows), dtype=float))
        if chunk.shape[-1] != pts.size:
            raise ValueError("integrand returned a shape not matching its input")
        est = np.empty((2, chunk.shape[0], lobes.size)) if est is None else est
        for (s, first, x, w, w_low), at in zip(parts, (0, split)):  # the first part's values start at 0
            vals = chunk[:, at : at + (s.stop - s.start) * x.size].reshape(chunk.shape[0], -1, x.size)
            if w.ndim == 2:  # per panel, numbered from the kind's first
                w, w_low = w[s.start - first : s.stop - first], w_low[s.start - first : s.stop - first]
            spec = "cpk,pk->cp" if w.ndim == 2 else "cpk,k->cp"
            np.einsum(spec, vals, w, out=est[0, :, s])
            np.einsum(spec, vals[:, :, 1::2], w_low, out=est[1, :, s])
        start = parts[-1][0].stop
    est *= half
    with np.errstate(invalid="ignore"):  # inf - inf where the estimates overflow: the check below raises
        np.abs(np.subtract(est[0], est[1], out=est[1]), out=est[1])
    bad = np.flatnonzero(~np.isfinite(est).all(axis=(0, 1)))
    if bad.size:
        i = bad[0]
        msg = f"integrand is not finite on the panel [{float(lows[i])!r}, {float(highs[i])!r}]"
        raise QuadratureError(msg, QuadResult(est[0, :, i], est[1, :, i], 1, False))
    if mixed:
        est[..., order] = est.copy()
    return est


def _worst_panels(errors: np.ndarray, sizes: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Positions of the ``k[i]`` largest ``errors`` of each run of ``sizes[i]``, ties to the earlier one.

    One sort for all runs: by run, then by descending error (stable, so
    equal errors keep their order), and the first k of each run.
    """
    run = np.arange(sizes.size).repeat(sizes)
    order = np.lexsort((-errors, run))
    rank = np.arange(errors.size) - (np.cumsum(sizes) - sizes).repeat(sizes)
    return order[rank < k.repeat(sizes)]


def _integrate_rows(
    f: _RowIntegrand,
    bounds: np.ndarray,
    panel_rows: np.ndarray,
    *,
    rel_tol: float,
    abs_tol: float,
    max_subdivisions: int,
    lobes: np.ndarray | None = None,
    tested: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate each row over its own starting panels, all rows at once.

    ``bounds`` holds the (low, high) ends of the starting panels and
    ``panel_rows`` the row of each: rows are numbered 0, 1, ..., each has at
    least one panel, and a row's panels are contiguous and sorted.
    ``f(points, rows)`` gets the row of each point and returns values of
    shape (n,) or (n_components, n).  A panel of ``lobes`` m > 0 (a power of
    two up to ``_MAX_LOBES``) is a product panel of m sin^2 periods, whose
    nodes take the smooth factor: a round with product panels calls
    ``f(points, rows, split)``, those nodes from ``split`` on
    (``_panel_estimates``).  Only the first ``tested`` components (all by
    default) enter the tolerance test and the refinement; the others are
    integrated on the same panels.  Each round evaluates the new panels of
    every unfinished row together, and bisects each row's largest-error
    panels of its worst component (``_worst_panels``); each row is
    refined exactly as ``adaptive_quad`` refines it alone, so its result
    does not depend on the other rows.  Returns the values and errors, shape
    (n_rows, n_components), each the sum over the row's panels that met its
    tolerance, and subdivision counts of the rows, all converged: the first
    row that misses its tolerance, or starts with more panels than
    ``max_subdivisions``, raises QuadratureError carrying its unconverged
    result; so does the first panel on which the integrand is not finite.
    """
    if not panel_rows.size:
        return np.empty((0, 0)), np.empty((0, 0)), np.empty(0, dtype=int)
    lobes = np.zeros(panel_rows.size, dtype=int) if lobes is None else lobes
    est = _panel_estimates(f, bounds, panel_rows, lobes)
    sums = np.empty((2, int(panel_rows[-1]) + 1, est.shape[1]))  # each row's value and error, once it finishes
    subdivisions = np.empty(sums.shape[1], dtype=int)
    while True:
        # The unfinished rows' panels stay sorted by (row, left end), so each
        # row is one run; a row's panel count is also its subdivision count.
        starts = np.flatnonzero(np.diff(panel_rows, prepend=-1))
        sizes = np.diff(starts, append=panel_rows.size)
        row_sums = np.add.reduceat(est, starts, axis=-1).swapaxes(1, 2)
        total, total_err = row_sums
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        within_cap = sizes <= max_subdivisions
        converged = np.all((total_err <= tol)[:, :tested], axis=1) & within_cap
        done = converged | (sizes >= max_subdivisions)
        finished = panel_rows[starts[done]]
        sums[:, finished], subdivisions[finished] = row_sums[:, done], sizes[done]
        failed = np.flatnonzero(done & ~converged)
        if failed.size:
            i, n = failed[0], int(sizes[failed[0]])
            res = QuadResult(total[i], total_err[i], n, False)
            if not within_cap[i]:
                raise _cap_error(n + 1, max_subdivisions, res)
            raise QuadratureError(
                f"quadrature did not converge after {n} subdivisions: "
                f"error={float(np.max(total_err[i])):.3e} vs tolerance {float(np.max(tol[i])):.3e}",
                res,
            )
        going = np.flatnonzero(~done)
        if not going.size:
            return sums[0], sums[1], subdivisions
        # Refine the panels carrying the largest share of the worst
        # component's error (at least one, at most the remaining budget).
        worst = np.argmax(total_err[going, :tested] / tol[going, :tested], axis=1)
        n_refine = np.maximum(1, (_REFINE_FRACTION * sizes[going]).astype(int))
        n_refine = np.minimum(n_refine, max_subdivisions - sizes[going])
        keep = (~done).repeat(sizes)
        pending = np.flatnonzero(keep)
        idx = pending[_worst_panels(est[1, worst.repeat(sizes[going]), pending], sizes[going], n_refine)]
        keep[idx] = False
        lo, hi = bounds[:, idx]
        mid = 0.5 * (lo + hi)
        halves = np.concatenate([[lo, mid], [mid, hi]], axis=1)
        new_rows = np.tile(panel_rows[idx], 2)
        # A product panel halves into two of half its periods, one of a single period into two K15 panels.
        new_lobes = np.tile(lobes[idx] // 2, 2)
        bounds = np.concatenate([bounds[:, keep], halves], axis=1)
        panel_rows = np.concatenate([panel_rows[keep], new_rows])
        lobes = np.concatenate([lobes[keep], new_lobes])
        est = np.concatenate([est[..., keep], _panel_estimates(f, halves, new_rows, new_lobes)], axis=-1)
        order = np.lexsort((bounds[0], panel_rows))
        bounds, panel_rows, lobes, est = bounds[:, order], panel_rows[order], lobes[order], est[..., order]


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    breakpoints: Sequence[float] = (),
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-12,
    max_subdivisions: int = 2000,
    lobes: np.ndarray | None = None,
    finish: Callable[[np.ndarray, np.ndarray, int], np.ndarray] | None = None,
    tested: int | None = None,
) -> QuadResult:
    """Integrate f over [a, b], splitting at the given interior breakpoints.

    ``f`` maps an array of points to values, either shape (n,) or
    (n_components, n) for vector-valued integrands.  Convergence requires
    every component (the first ``tested``) to satisfy
    error <= max(abs_tol, rel_tol * |value|).  ``lobes`` makes product
    panels as in ``_integrate_rows``: one entry per panel between the sorted
    distinct edges, each 0 (a K15 panel) or m = 2^j <= ``_MAX_LOBES`` sin^2
    periods; it needs ``finish``.  ``f`` keeps the one-argument form
    f(points), the one perfbench/tracer.py wraps to count its points, so it
    is not told which points are product nodes: each integrand call is one
    ``f(points)`` on the K15 and product nodes together, and
    ``finish(points, values, split)`` turns its values into the integrand
    at the K15 nodes and its smooth factor at the product nodes, from
    ``split`` on (``split`` is n in a round without product panels).
    """
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise ValueError(f"invalid integration interval [{a}, {b}]")
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    if lobes is not None:
        lobes = np.asarray(lobes)
        if finish is None:
            raise ValueError("lobes needs finish: f alone gives the integrand, not the product nodes' smooth factor")
        levels = {0, *(2**j for j in range(_LEVELS))}
        if lobes.shape != (len(edges) - 1,) or not set(lobes.tolist()) <= levels:
            raise ValueError(
                f"lobes must hold one entry per panel ({len(edges) - 1} here), each 0 or a power of two up to "
                f"{_MAX_LOBES}; got {lobes!r}"
            )
    if finish is None:
        row = lambda pts, rows, *split: f(pts)
    else:
        row = lambda pts, rows, split=None: finish(pts, f(pts), pts.size if split is None else split)
    value, error, subdivisions = _integrate_rows(
        row,
        np.array([edges[:-1], edges[1:]], dtype=float),
        np.zeros(len(edges) - 1, dtype=int),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        max_subdivisions=max_subdivisions,
        lobes=lobes,
        tested=tested,
    )
    return QuadResult(value[0], error[0], int(subdivisions[0]), True)
