"""Vectorized adaptive Gauss-Legendre quadrature with breakpoints.

One refinement loop integrates many rows (integrals, each over its own
panel edges) together: each round evaluates the pending panels of every
row in one integrand callback, which keeps the Python overhead per
function value negligible.  Error per panel is the difference of a
7-point and a 15-point Gauss-Legendre rule; the two share only the
centre node, so a panel costs 22 evaluations.  Each row's worst panels
are bisected until its tolerance is met.  Results are deterministic: each value is a
compensated sum over the row's panels ordered by their left endpoint.

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


# Gauss-Legendre rules equal bit for bit to scipy.special.roots_legendre(7)
# and (15), written out so that importing the package does not load scipy.
_X7, _W7 = _symmetric_rule(
    [0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427584],
    [0.4179591836734691, 0.38183005050511876, 0.2797053914892766, 0.12948496616886992],
)
_X15, _W15 = _symmetric_rule(
    [0.0, 0.20119409399743454, 0.3941513470775634, 0.5709721726085388,
     0.7244177313601701, 0.8482065834104272, 0.937273392400706, 0.9879925180204854],
    [0.20257824192556137, 0.19843148532711163, 0.18616100001556224, 0.16626920581699411,
     0.13957067792615432, 0.10715922046717176, 0.07036604748810715, 0.030753241996118154],
)
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


def _panel_estimates(f: _RowIntegrand, bounds: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """15-point values and |15pt - 7pt| errors, shape (2, n_components, n_panels).

    ``bounds`` holds the (low, high) ends of the panels and ``rows`` the
    row of each panel; ``f`` gets the row of each point.
    """
    lows, highs = bounds
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    # points shape: (n_panels, 22) flattened to one batched call
    pts15 = mid[:, None] + half[:, None] * _X15[None, :]
    pts7 = mid[:, None] + half[:, None] * _X7[None, :]
    pts = np.concatenate([pts15, pts7], axis=1).ravel()
    vals = np.asarray(f(pts, rows.repeat(22)), dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    if vals.shape[-1] != pts.size:
        raise ValueError("integrand returned a shape not matching its input")
    vals = vals.reshape(vals.shape[0], len(lows), 22)
    i15 = np.einsum("cpk,k->cp", vals[:, :, :15], _W15) * half
    i7 = np.einsum("cpk,k->cp", vals[:, :, 15:], _W7) * half
    return np.stack([i15, np.abs(i15 - i7)])


def _integrate_rows(
    f: _RowIntegrand,
    edges: Sequence[Sequence[float]],
    *,
    rel_tol: float,
    abs_tol: float,
    max_subdivisions: int,
    raise_on_failure: bool = True,
) -> list[QuadResult]:
    """Integrate each row over its own sorted panel edges, all rows at once.

    ``f(points, rows)`` gets the row (index into ``edges``) of each point
    and returns values of shape (n,) or (n_components, n).  Each round
    evaluates the new panels of every unfinished row in one call; each row
    is refined exactly as ``adaptive_quad`` refines it alone, so its result
    does not depend on the other rows.  With ``raise_on_failure`` the first
    row to exhaust ``max_subdivisions`` raises.
    """
    if not edges:
        return []
    results: list[QuadResult] = [None] * len(edges)
    # The unfinished rows in ascending order and their panels grouped by
    # row, each row's panels in the order a one-row integration keeps them.
    # A row's panel count is also its subdivision count.
    rows = np.arange(len(edges))
    sizes = np.array([len(e) - 1 for e in edges])
    bounds = np.array([[p for e in edges for p in e[:-1]], [p for e in edges for p in e[1:]]], dtype=float)
    est = _panel_estimates(f, bounds, rows.repeat(sizes))
    while True:
        segments = [slice(a, a + n) for a, n in zip(np.cumsum(sizes) - sizes, sizes)]
        total, total_err = np.array([est[..., s].sum(axis=-1) for s in segments]).swapaxes(0, 1)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        converged = np.all(total_err <= tol, axis=1)
        done = converged | (sizes >= max_subdivisions)
        for i in np.flatnonzero(done):
            # Order-independent: compensated sums over panels sorted by position.
            s = segments[i]
            order = np.argsort(bounds[0, s], kind="stable")
            value, error = (np.array([math.fsum(comp[s][order]) for comp in part]) for part in est)
            results[rows[i]] = res = QuadResult(value, error, int(sizes[i]), bool(converged[i]))
            if not res.converged and raise_on_failure:
                raise QuadratureError(
                    f"quadrature did not converge after {res.subdivisions} subdivisions: "
                    f"error={error.max():.3e} vs tolerance {float(np.max(tol[i])):.3e}",
                    res,
                )
        going = np.flatnonzero(~done)
        if not going.size:
            return results
        # Refine the panels carrying the largest share of the worst
        # component's error (at least one, at most the remaining budget).
        worst = np.argmax(total_err[going] / tol[going], axis=1)
        n_refine = np.maximum(1, (_REFINE_FRACTION * sizes[going]).astype(int))
        n_refine = np.minimum(n_refine, max_subdivisions - sizes[going])
        picks = zip((segments[i] for i in going), worst, n_refine)
        idx = np.concatenate([s.start + est[1, c, s].argpartition(-k)[-k:] for s, c, k in picks])
        owner = rows.repeat(sizes)
        keep = (~done).repeat(sizes)
        keep[idx] = False
        lo, hi = bounds[:, idx]
        mid = 0.5 * (lo + hi)
        halves = np.concatenate([[lo, mid], [mid, hi]], axis=1)
        new_owner = np.tile(owner[idx], 2)
        # Per row: its kept panels, then its left halves, then its right halves.
        layout = np.argsort(np.concatenate([owner[keep], new_owner]), kind="stable")
        bounds = np.concatenate([bounds[:, keep], halves], axis=1)[:, layout]
        est = np.concatenate([est[..., keep], _panel_estimates(f, halves, new_owner)], axis=-1)[..., layout]
        rows, sizes = rows[going], sizes[going] + n_refine


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    breakpoints: Sequence[float] = (),
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-12,
    max_subdivisions: int = 2000,
    raise_on_failure: bool = True,
) -> QuadResult:
    """Integrate f over [a, b], splitting at the given interior breakpoints.

    ``f`` maps an array of points to values, either shape (n,) or
    (n_components, n) for vector-valued integrands.  Convergence requires
    every component to satisfy error <= max(abs_tol, rel_tol * |value|).
    """
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise ValueError(f"invalid integration interval [{a}, {b}]")
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    return _integrate_rows(
        lambda pts, rows: f(pts),
        [edges],
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        max_subdivisions=max_subdivisions,
        raise_on_failure=raise_on_failure,
    )[0]
