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
panel's local t in [-1, 1]): their own callback returns the smooth factor g
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
# Fraction of surviving panels refined per round.
_REFINE_FRACTION = 0.3
_RowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


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


def _rule_estimates(f: _RowIntegrand, bounds, rows, nodes, weights, low_weights) -> np.ndarray:
    """One rule's values and errors on its panels, shape (2, n_components, n_panels).

    The value takes ``weights`` at ``nodes``, the error is its distance from
    ``low_weights`` at the odd nodes; weights of shape (n_panels, n_nodes)
    are per panel.  Each panel takes its nodes in calls of at most
    ``_CHUNK_POINTS`` points, each call reduced to its panels' rule sums at
    once; the estimates equal those of one call.  A panel whose estimate is
    not finite raises QuadratureError.
    """
    lows, highs = bounds
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    per_panel = weights.ndim == 2
    spec = "cpk,pk->cp" if per_panel else "cpk,k->cp"
    step = _CHUNK_POINTS // nodes.size
    tiled = np.tile(nodes, (min(step, lows.size), 1))
    est = None
    for start in range(0, lows.size, step):
        s = slice(start, start + step)
        pts = half[s].repeat(nodes.size) * tiled[: half[s].size].ravel() + mid[s].repeat(nodes.size)
        chunk = np.atleast_2d(np.asarray(f(pts, rows[s].repeat(nodes.size)), dtype=float))
        if chunk.shape[-1] != pts.size:
            raise ValueError("integrand returned a shape not matching its input")
        est = np.empty((2, chunk.shape[0], lows.size)) if est is None else est
        vals = chunk.reshape(chunk.shape[0], -1, nodes.size)
        w, w_low = (weights[s], low_weights[s]) if per_panel else (weights, low_weights)
        np.einsum(spec, vals, w, out=est[0, :, s])
        np.einsum(spec, vals[:, :, 1::2], w_low, out=est[1, :, s])
    est *= half
    with np.errstate(invalid="ignore"):  # inf - inf where the estimates overflow: the check below raises
        np.abs(np.subtract(est[0], est[1], out=est[1]), out=est[1])
    bad = np.flatnonzero(~np.isfinite(est).all(axis=(0, 1)))
    if bad.size:
        i = bad[0]
        msg = f"integrand is not finite on the panel [{float(lows[i])!r}, {float(highs[i])!r}]"
        raise QuadratureError(msg, QuadResult(est[0, :, i], est[1, :, i], 1, False))
    return est


def _panel_estimates(f: _RowIntegrand, bounds, rows, lobes, envelope) -> np.ndarray:
    """Values and errors of the panels, shape (2, n_components, n_panels).

    Panels of ``lobes`` 0 take K15 and |K15 - G7| on ``f``; the others are
    product panels of that many sin^2 periods and take the 23- and 11-point
    product rules on ``envelope``.
    """
    product = lobes > 0
    if not product.any():
        return _rule_estimates(f, bounds, rows, _XK15, _WK15, _W7)
    est = None
    rules = ((~product, f, _XK15, _WK15, _W7), (product, envelope, _XF23, _W23, _W11))
    for part, g, nodes, weights, low_weights in rules:
        idx = np.flatnonzero(part)
        if not idx.size:
            continue
        if weights.ndim == 2:  # one row per level: the panel's 2^level periods pick its weights
            level = np.frexp(lobes[idx])[1] - 1
            weights, low_weights = weights[level], low_weights[level]
        sub = _rule_estimates(g, bounds[:, idx], rows[idx], nodes, weights, low_weights)
        est = np.empty((2, sub.shape[1], rows.size)) if est is None else est
        est[..., idx] = sub
    return est


def _integrate_rows(
    f: _RowIntegrand,
    bounds: np.ndarray,
    panel_rows: np.ndarray,
    *,
    rel_tol: float,
    abs_tol: float,
    max_subdivisions: int,
    lobes: np.ndarray | None = None,
    envelope: _RowIntegrand | None = None,
    tested: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate each row over its own starting panels, all rows at once.

    ``bounds`` holds the (low, high) ends of the starting panels and
    ``panel_rows`` the row of each: rows are numbered 0, 1, ..., each has at
    least one panel, and a row's panels are contiguous and sorted.
    ``f(points, rows)`` gets the row of each point and returns values of
    shape (n,) or (n_components, n).  A panel of ``lobes`` m > 0 (a power of
    two up to ``_MAX_LOBES``) is a product panel of m sin^2 periods, for
    which ``envelope(points, rows)`` returns the smooth factor.  Only the
    first ``tested`` components (all by default) enter the tolerance test and
    the refinement; the others are integrated on the same panels.  Each round
    evaluates the new panels of every unfinished row together; each row is
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
    est = _panel_estimates(f, bounds, panel_rows, lobes, envelope)
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
        picks = zip(starts[going], sizes[going], worst, n_refine)
        idx = np.concatenate([a + est[1, c, a : a + n].argpartition(-k)[-k:] for a, n, c, k in picks])
        keep = (~done).repeat(sizes)
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
        est = np.concatenate([est[..., keep], _panel_estimates(f, halves, new_rows, new_lobes, envelope)], axis=-1)
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
    envelope: Callable[[np.ndarray], np.ndarray] | None = None,
    tested: int | None = None,
) -> QuadResult:
    """Integrate f over [a, b], splitting at the given interior breakpoints.

    ``f`` maps an array of points to values, either shape (n,) or
    (n_components, n) for vector-valued integrands.  Convergence requires
    every component (the first ``tested``) to satisfy
    error <= max(abs_tol, rel_tol * |value|).  ``lobes`` and ``envelope``
    make product panels as in ``_integrate_rows``, one entry of ``lobes``
    per panel between the sorted distinct edges.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise ValueError(f"invalid integration interval [{a}, {b}]")
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    value, error, subdivisions = _integrate_rows(
        lambda pts, rows: f(pts),
        np.array([edges[:-1], edges[1:]], dtype=float),
        np.zeros(len(edges) - 1, dtype=int),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        max_subdivisions=max_subdivisions,
        lobes=lobes,
        envelope=envelope and (lambda pts, rows: envelope(pts)),
        tested=tested,
    )
    return QuadResult(value[0], error[0], int(subdivisions[0]), True)
