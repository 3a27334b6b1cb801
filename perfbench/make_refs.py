"""Regenerate ``perfbench/refs.json``, the benchmark's stored correctness references.

Every reference is computed here by a route that shares no numerical code
with the ``bubblespec`` package:

* dN/dx samples and totals with the factorized kernel: scipy QUADPACK
  (``scipy.integrate.quad``) with the y-range split at the sinc zeros
  x +- 4*pi*k/3, on an integrand written out from the model formulas below.
* dN/dx samples and totals with the exact kernel: the same quadrature, with
  F(x, y) summed from ``scipy.special.spherical_jn``.
* Kernel samples F(x, y): mpmath at 40 working digits (30 are kept), with
  J_{l+1/2} from ``mpmath.besselj`` at the two highest orders and a downward
  recurrence below them.

The tolerance each output claims is stored next to it; the benchmark counts
an output as failed when it misses its reference by more than that.

Run from the repository root (about a minute on one core)::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import math
import random
import warnings
from pathlib import Path

import mpmath
import numpy as np
import scipy
from scipy import integrate, special

OUT = Path(__file__).resolve().with_name("refs.json")

N_LIQUID = 1.3
ROLLOFF = 4.0 * math.pi / 3.0  # one sinc width past the cutoff
SINC_ZERO_STEP = 4.0 * math.pi / 3.0  # zeros of sinc^2(3u/4)
HALF_ASYMPTOTE = 1.0 / (2.0 * math.pi * math.pi)
F_FIT_SCALE = 16000.0
ABS_TOL = 1e-12
KERNEL_REL_TOL = 1e-8  # f_exact's relative tail budget
# QUADPACK tolerance per y-subinterval; totals use ten times it in x.  The
# exact kernel from spherical_jn carries ~1e-13 rounding, so it gets less.
FACTORIZED_EPSREL = 1e-13
EXACT_EPSREL = 1e-10

# The five reference cases of the paper: (n_gas_in, n_gas_out).
TABLE_CASES = ((2.0e4, 1.0), (71.0, 25.0), (68.0, 34.0), (9.0, 25.0), (1.0, 12.0))

# Spectrum runs of the benchmark: name -> (n_gas_in, n_gas_out, kernel, rel_tol, grid_points).
SPECTRA = {
    "default": (2.0e4, 1.0, "factorized", 1e-6, 200),
    "68-34": (68.0, 34.0, "factorized", 1e-6, 200),
    "exact-default": (2.0e4, 1.0, "exact", 1e-4, 20),
}
# Off-grid dN/dx nodes per factorized spectrum; the benchmark seed draws from them.
NODE_POOL = 800

# Exact-kernel sweep: one point per cell of a CELLS x CELLS grid over
# [SWEEP_LO, SWEEP_HI]^2, drawn by the benchmark seed from CANDIDATES per cell.
SWEEP_LO, SWEEP_HI, CELLS, CANDIDATES = 0.5, 140.0, 12, 4
# On-diagonal points past the l <= 200 cap, and near-diagonal points inside
# the band where f_exact switches to its diagonal limit.
KERNEL_PROBES = (
    (200.0, 200.0),
    (300.0, 300.0),
    (392.0, 392.0),
    (10.0, 10.005),
    (50.0, 50.025),
    (100.0, 100.05),
)


def cutoff(n_out: float) -> float:
    """Rounded dimensionless cutoff (n_gas_out / n_liquid) * 15 on both axes."""
    return n_out / N_LIQUID * 15.0


def prefactor(x: float, y: float, n_in: float, n_out: float) -> float:
    dn = n_in - n_out
    ratio = (n_in * x * x + n_out * y * y) / (n_in * x + n_out * y)
    return dn * dn / (2.0 * n_in * n_out) * ratio * ratio


def f_factorized(x: float, y: float) -> float:
    s6 = (x + y) ** 6
    u = 0.75 * (x - y)
    sinc = math.sin(u) / u if u != 0.0 else 1.0
    return HALF_ASYMPTOTE * s6 / (F_FIT_SCALE + s6) * sinc * sinc


def _j_half(l_max: int, z: float) -> np.ndarray:
    """J_{l+1/2}(z) for l = 0..l_max from scipy's spherical Bessel functions."""
    return math.sqrt(2.0 * z / math.pi) * special.spherical_jn(np.arange(l_max + 1), z)


def f_exact_scipy(x: float, y: float, l_max: int = 60) -> float:
    """Exact kernel in double precision; l_max = 60 suffices for x, y <= 16."""
    jx, jy = _j_half(l_max, x), _j_half(l_max, y)
    l = np.arange(1, l_max + 1)
    nu = l + 0.5
    if abs(x - y) < 1e-7 * max(x, y):
        m = 0.5 * (x + y)
        jm = _j_half(l_max, m)
        ratio = (m * (jm[1:] ** 2 + jm[:-1] ** 2) - 2.0 * nu * jm[1:] * jm[:-1]) / (2.0 * m)
    else:
        ratio = (jx[1:] * y * jy[:-1] - jy[1:] * x * jx[:-1]) / (x * x - y * y)
    return math.fsum((2 * l + 1) * ratio * ratio)


def y_edges(x: float, y_star: float) -> list[float]:
    """[0, y_star] split at x and at the sinc zeros x +- 4 pi k / 3."""
    pts = {0.0, y_star}
    if 0.0 < x < y_star:
        pts.add(x)
    k = 1
    while x - k * SINC_ZERO_STEP > 0.0 or x + k * SINC_ZERO_STEP < y_star:
        for p in (x - k * SINC_ZERO_STEP, x + k * SINC_ZERO_STEP):
            if 0.0 < p < y_star:
                pts.add(p)
        k += 1
    return sorted(pts)


def dn_dx(x: float, n_in: float, n_out: float, kernel, epsrel: float) -> tuple[float, float]:
    """(dN/dx, QUADPACK error estimate) at x, y integrated over [0, y_star]."""
    y_star = cutoff(n_out)
    edges = y_edges(x, y_star)
    vals, errs = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = integrate.quad(
            lambda y: prefactor(x, y, n_in, n_out) * kernel(x, y), lo, hi, epsabs=0.0, epsrel=epsrel, limit=200
        )
        vals.append(v)
        errs.append(e)
    return math.fsum(vals), math.fsum(errs)


def totals(n_in: float, n_out: float, kernel, epsrel: float) -> dict:
    """Photon number and <x>/x_star over [0, x_star + sinc width]."""
    x_star = cutoff(n_out)
    x_max = x_star + ROLLOFF
    memo: dict[float, float] = {}

    def spec(x: float) -> float:
        if x not in memo:
            memo[x] = dn_dx(x, n_in, n_out, kernel, epsrel)[0]
        return memo[x]

    n_parts, m_parts, errs = [], [], []
    for lo, hi in ((0.0, x_star), (x_star, x_max)):
        n, en = integrate.quad(spec, lo, hi, epsabs=0.0, epsrel=10 * epsrel, limit=400)
        m, em = integrate.quad(lambda x: x * spec(x), lo, hi, epsabs=0.0, epsrel=10 * epsrel, limit=400)
        n_parts.append(n)
        m_parts.append(m)
        errs.append(max(en / abs(n), em / abs(m)))
    photons, moment = math.fsum(n_parts), math.fsum(m_parts)
    return {
        "photons": photons,
        "mean_ratio": moment / photons / x_star,
        "ref_rel_err": max(errs),
    }


def spectrum_refs(rng: random.Random) -> dict:
    out = {}
    for name, (n_in, n_out, mode, rel_tol, grid_points) in SPECTRA.items():
        kernel, epsrel = (f_factorized, FACTORIZED_EPSREL) if mode == "factorized" else (f_exact_scipy, EXACT_EPSREL)
        x_max = cutoff(n_out) + ROLLOFF
        grid = [float(x) for x in np.linspace(0.0, x_max, grid_points)]
        rows = [dn_dx(x, n_in, n_out, kernel, epsrel) if x > 0.0 else (0.0, 0.0) for x in grid]
        entry = {
            "n_gas_in": n_in,
            "n_gas_out": n_out,
            "kernel_mode": mode,
            "rel_tol": rel_tol,
            "abs_tol": ABS_TOL,
            "grid_points": grid_points,
            "x": grid,
            "dn_dx": [v for v, _ in rows],
            "grid_ref_rel_err": max((e / v for v, e in rows if v > 0.0), default=0.0),
            **totals(n_in, n_out, kernel, epsrel),
        }
        if mode == "factorized":
            nodes = sorted(rng.uniform(0.0, x_max) for _ in range(NODE_POOL))
            entry["node_x"] = nodes
            entry["node_dn_dx"] = [dn_dx(x, n_in, n_out, kernel, epsrel)[0] for x in nodes]
        out[name] = entry
        print(f"spectrum {name}: N={entry['photons']:.12e} ratio={entry['mean_ratio']:.12f}")
    return out


def _mp_j_half(l_max: int, z: mpmath.mpf) -> list:
    """J_{l-1/2}(z) for l = 0..l_max+1 (index l), by downward recurrence."""
    out = [mpmath.mpf(0)] * (l_max + 2)
    above = mpmath.besselj(l_max + 1.5, z)
    out[l_max + 1] = mpmath.besselj(l_max + 0.5, z)
    for k in range(l_max + 1, 0, -1):
        nu = k - mpmath.mpf(0.5)
        out[k - 1] = 2 * nu / z * out[k] - above
        above = out[k]
    # Closed forms of the two lowest orders guard the recurrence.
    low = mpmath.sqrt(2 / (mpmath.pi * z))
    assert abs(out[0] - low * mpmath.cos(z)) < mpmath.mpf(10) ** -32
    assert abs(out[1] - low * mpmath.sin(z)) < mpmath.mpf(10) ** -32
    return out


def f_exact_mp(x: float, y: float) -> float:
    """F(x, y) = sum_{l>=1} (2l+1) (W_nu(x, y) / (x^2 - y^2))^2 in 40-digit arithmetic."""
    with mpmath.workdps(40):
        l_max = int(max(x, y)) + 80
        X, Y = mpmath.mpf(x), mpmath.mpf(y)
        jx = _mp_j_half(l_max, X)
        jy = jx if x == y else _mp_j_half(l_max, Y)
        total = mpmath.mpf(0)
        term = mpmath.mpf(0)
        for l in range(1, l_max + 1):
            nu = l + mpmath.mpf(0.5)
            if x == y:
                # lim_{y->x} W/(x^2 - y^2) = (x (J_nu^2 + J_{nu-1}^2) - 2 nu J_nu J_{nu-1}) / (2x)
                ratio = (X * (jx[l + 1] ** 2 + jx[l] ** 2) - 2 * nu * jx[l + 1] * jx[l]) / (2 * X)
            else:
                ratio = (jx[l + 1] * Y * jy[l] - jy[l + 1] * X * jx[l]) / (X * X - Y * Y)
            term = (2 * l + 1) * ratio * ratio
            total += term
        assert term < total * mpmath.mpf(10) ** -30, (x, y)
        return float(mpmath.nstr(total, 30))


def kernel_refs(rng: random.Random) -> dict:
    width = (SWEEP_HI - SWEEP_LO) / CELLS
    cells = []
    for i in range(CELLS):
        for j in range(CELLS):
            cand = []
            for _ in range(CANDIDATES):
                x = SWEEP_LO + (i + rng.random()) * width
                y = SWEEP_LO + (j + rng.random()) * width
                cand.append([x, y, f_exact_mp(x, y)])
            cells.append(cand)
    probes = [[x, y, f_exact_mp(x, y)] for x, y in KERNEL_PROBES]
    print(f"kernel: {len(cells) * CANDIDATES} sweep candidates, {len(probes)} probes")
    return {"rel_tol": KERNEL_REL_TOL, "sweep_cells": cells, "probes": probes}


def main() -> None:
    warnings.simplefilter("error", integrate.IntegrationWarning)
    rng = random.Random(19990511)
    table = []
    for n_in, n_out in TABLE_CASES:
        row = {"n_gas_in": n_in, "n_gas_out": n_out, "rel_tol": 1e-6, **totals(n_in, n_out, f_factorized, FACTORIZED_EPSREL)}
        print(f"table {n_in:g}/{n_out:g}: N={row['photons']:.12e} ratio={row['mean_ratio']:.12f}")
        table.append(row)
    refs = {
        "generator": f"perfbench/make_refs.py (scipy {scipy.__version__}, mpmath {mpmath.__version__})",
        "table": table,
        "spectra": spectrum_refs(rng),
        "kernel": kernel_refs(rng),
    }
    OUT.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
