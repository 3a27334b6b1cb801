"""Vectorized adaptive Gauss-Legendre quadrature with breakpoints.

The integrand is evaluated in batches across all pending panels (one
callback per refinement round), which keeps the Python overhead per
function value negligible.  Error per panel is estimated from an
embedded 7/15-point Gauss pair; the worst panels are bisected until the
global tolerance is met.  Results are deterministic: the final value is
a compensated sum over panels ordered by their left endpoint.

Supports vector-valued integrands so that several moments of the same
integrand (e.g. a spectrum and its energy weighting) share one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_legendre

__all__ = ["QuadResult", "QuadratureError", "adaptive_quad"]

_X7, _W7 = roots_legendre(7)
_X15, _W15 = roots_legendre(15)
# Fraction of surviving panels refined per round.
_REFINE_FRACTION = 0.3


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


def _panel_estimates(
    f: Callable[[np.ndarray], np.ndarray],
    lows: np.ndarray,
    highs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-panel 15-point values and |15pt - 7pt| error estimates."""
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    # points shape: (n_panels, 22) flattened to one batched call
    pts15 = mid[:, None] + half[:, None] * _X15[None, :]
    pts7 = mid[:, None] + half[:, None] * _X7[None, :]
    pts = np.concatenate([pts15, pts7], axis=1).ravel()
    vals = np.asarray(f(pts), dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    if vals.shape[-1] != pts.size:
        raise ValueError("integrand returned a shape not matching its input")
    vals = vals.reshape(vals.shape[0], len(lows), 22)
    i15 = np.einsum("cpk,k->cp", vals[:, :, :15], _W15) * half
    i7 = np.einsum("cpk,k->cp", vals[:, :, 15:], _W7) * half
    return i15, np.abs(i15 - i7)


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
    lows = np.array(edges[:-1])
    highs = np.array(edges[1:])
    vals, errs = _panel_estimates(f, lows, highs)
    n_sub = len(lows)

    while True:
        total = vals.sum(axis=1)
        total_err = errs.sum(axis=1)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        if np.all(total_err <= tol):
            converged = True
            break
        if n_sub >= max_subdivisions:
            converged = False
            break
        # Refine the panels carrying the largest share of the worst
        # component's error (at least one, at most the remaining budget).
        worst_c = int(np.argmax(total_err / tol))
        n_refine = max(1, int(_REFINE_FRACTION * lows.size))
        n_refine = min(n_refine, max_subdivisions - n_sub)
        idx = np.argpartition(errs[worst_c], -n_refine)[-n_refine:]
        keep = np.ones(lows.size, dtype=bool)
        keep[idx] = False
        mids = 0.5 * (lows[idx] + highs[idx])
        new_lows = np.concatenate([lows[idx], mids])
        new_highs = np.concatenate([mids, highs[idx]])
        sub_vals, sub_errs = _panel_estimates(f, new_lows, new_highs)
        lows = np.concatenate([lows[keep], new_lows])
        highs = np.concatenate([highs[keep], new_highs])
        vals = np.concatenate([vals[:, keep], sub_vals], axis=1)
        errs = np.concatenate([errs[:, keep], sub_errs], axis=1)
        n_sub += len(idx)

    # Deterministic, order-independent accumulation: compensated sum over
    # panels sorted by position.
    order = np.argsort(lows, kind="stable")
    value = np.array([math.fsum(vals[c, order]) for c in range(vals.shape[0])])
    error = np.array([math.fsum(errs[c, order]) for c in range(errs.shape[0])])
    result = QuadResult(value=value, error=error, subdivisions=n_sub, converged=converged)
    if not converged and raise_on_failure:
        raise QuadratureError(
            f"quadrature did not converge after {n_sub} subdivisions: "
            f"error={error.max():.3e} vs tolerance {float(np.max(tol)):.3e}",
            result,
        )
    return result
