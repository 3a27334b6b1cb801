"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line.  Criterion 5's fitted-curve band is known
to be violated at the lowest grid point (the exact diagonal differs from
the fitted x^6/(250 + x^6) form by ~19.5% at x = 2); the test states the
requirement faithfully and is expected to stay red until the band or the
fit is revised.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy import integrate, special

from bubblespec.cli import REFERENCE_TABLE
from bubblespec.kernel import CutoffProfile, d_approx, d_exact
from bubblespec.matching import MediumConfig, coefficient_a_sq, coefficients_bc
from bubblespec.oracles import hankel_finite_integral, spectral_delta_checks
from bubblespec.spectrum import (
    QuadratureSpec,
    delta_kernel_totals,
    dn_dx,
    infinite_volume_dn_dx,
    infinite_volume_totals,
    totals,
)
from bubblespec.special_functions import ModeOrder, bessel_jn_half

def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_reference_table():
    start = time.perf_counter()
    worst_n, worst_r = 0.0, 0.0
    for n_in, n_out, n_ref, ratio_ref in REFERENCE_TABLE:
        cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
        cut = CutoffProfile.rounded(cfg)
        res = totals(cfg, cut, QuadratureSpec(), "factorized", grid_points=0)
        worst_n = max(worst_n, abs(res.total_photons / n_ref - 1.0))
        worst_r = max(worst_r, abs(res.mean_x_over_xstar - ratio_ref))
    elapsed = time.perf_counter() - start
    ok = worst_n <= 0.05 and worst_r <= 0.02 and elapsed < 60.0
    _report(
        "1 reference-table reproduction",
        ok,
        f"max |dN/N|={worst_n:.3%} (tol 5%), max |dratio|={worst_r:.4f} (tol 0.02), runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_infinite_volume_oracle():
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    cut = CutoffProfile.rounded(cfg)
    n_num, ratio_num = delta_kernel_totals(cfg, cut, QuadratureSpec(rel_tol=1e-6))
    n_ref, ratio_ref = infinite_volume_totals(cfg, cut)
    dev_n = abs(n_num / n_ref - 1.0)
    dev_r = abs(ratio_num / ratio_ref - 1.0)
    _report(
        "2 delta-kernel totals vs closed form",
        dev_n < 1e-6 and dev_r < 1e-6,
        f"N dev {dev_n:.2e}, ratio dev {dev_r:.2e} (tol 1e-6)",
    )


def test_criterion_3_wronskian_suite():
    rng = random.Random(2025)
    worst = 0.0
    two_over_pi = 2.0 / math.pi
    for _ in range(10_000):
        l = rng.randint(0, 60)
        z = rng.uniform(0.1, 100.0)
        p = bessel_jn_half(ModeOrder(l), z)
        if p.saturated or math.isinf(p.n) or math.isinf(p.n_prev):
            continue
        w = z * (p.j * p.n_prev - p.j_prev * p.n)
        worst = max(worst, abs(w - two_over_pi) / two_over_pi)
    _report("3 Wronskian identity (1e4 samples)", worst < 1e-10, f"worst rel err {worst:.2e} (tol 1e-10)")


def test_criterion_4_matching_invariants():
    rng = random.Random(77)
    worst_circle, worst_res = 0.0, 0.0
    for _ in range(1000):
        l = rng.randint(0, 20)
        y = rng.uniform(0.01, 30.0)
        ratio = rng.uniform(0.5, 3.0)
        b, c = coefficients_bc(ModeOrder(l), y, ratio)
        worst_circle = max(worst_circle, abs(b * b + c * c - 1.0))
        a = math.sqrt(coefficient_a_sq(ModeOrder(l), y, ratio))
        nu, ny = l + 0.5, ratio * y
        jy, jny, nny = special.jv(nu, y), special.jv(nu, ny), special.yv(nu, ny)
        d_in = y * special.jv(nu - 1, y) - nu * jy
        d_out = b * (ny * special.jv(nu - 1, ny) - nu * jny) + c * (ny * special.yv(nu - 1, ny) - nu * nny)
        r1 = abs(a * jy - (b * jny + c * nny)) / max(abs(a * jy), abs(b * jny), abs(c * nny), 1e-300)
        r2 = abs(a * d_in - d_out) / max(abs(a * d_in), abs(d_out), 1e-300)
        worst_res = max(worst_res, r1, r2)
    _report(
        "4 matching invariants",
        worst_circle < 1e-12 and worst_res < 1e-10,
        f"B^2+C^2 dev {worst_circle:.2e} (tol 1e-12), system residual {worst_res:.2e} (tol 1e-10)",
    )


def test_criterion_5_diagonal_asymptote_and_fit_band():
    asym = 1.0 / (2.0 * math.pi**2)
    dev40 = abs(d_exact(40.0) - asym) / asym
    band_ok = True
    worst_x, worst_dev = None, 0.0
    for x in np.arange(2.0, 14.01, 0.5):
        dev = abs(d_exact(float(x)) - d_approx(float(x))) / d_approx(float(x))
        if dev > worst_dev:
            worst_x, worst_dev = float(x), dev
        band_ok = band_ok and dev <= 0.15
    _report(
        "5 diagonal asymptote + fitted band",
        dev40 < 0.02 and band_ok,
        f"D(40) dev {dev40:.3%} (tol 2%); worst band dev {worst_dev:.1%} at x={worst_x} (tol 15%)",
    )


def test_criterion_6_factorization_validation():
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    cut = CutoffProfile.rounded(cfg)
    n_exact = totals(cfg, cut, QuadratureSpec(rel_tol=1e-4), "exact", grid_points=0).total_photons
    n_fact = totals(cfg, cut, QuadratureSpec(), "factorized", grid_points=0).total_photons
    gap = abs(n_exact / n_fact - 1.0)
    _report("6 exact vs factorized totals", gap < 0.10, f"|dN/N| = {gap:.3%} (tol 10%)")


def test_criterion_7_overlap_and_delta_suite():
    rng = random.Random(19)
    worst = 0.0
    for _ in range(100):
        l = rng.randint(0, 10)
        k1, k2 = rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)
        R = rng.uniform(1.0, 20.0)
        cf = hankel_finite_integral(ModeOrder(l), k1, k2, R)
        ref, _ = integrate.quad(
            lambda r: r * special.jv(l + 0.5, k1 * r) * special.jv(l + 0.5, k2 * r), 0.0, R, limit=400
        )
        worst = max(worst, abs(cf - ref) / max(abs(ref), 1e-12))
    rep = spectral_delta_checks()
    _report(
        "7 overlap closed form + smeared deltas",
        worst < 1e-8 and rep.passed,
        f"overlap worst rel {worst:.2e} (tol 1e-8); delta deviation {rep.max_rel_error:.3%} (tol 1%)",
    )


def test_criterion_8_null_production():
    cfg = MediumConfig(n_gas_in=13.0, n_gas_out=13.0)
    cut = CutoffProfile.rounded(cfg)
    res = totals(cfg, cut, QuadratureSpec(), grid_points=30)
    spectrum_zero = all(v == 0.0 for v in res.dn_dx) and dn_dx(5.0, cfg, cut) == 0.0
    _report(
        "8 null production at equal indices",
        spectrum_zero and res.total_photons == 0.0,
        f"N = {res.total_photons}, spectrum all zero: {spectrum_zero}",
    )


def test_criterion_9_finite_volume_smearing():
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    cut = CutoffProfile.rounded(cfg)
    # deviations measured against the height of the infinite-volume curve
    # at the cutoff (the discontinuity the finite volume smears out)
    peak = infinite_volume_dn_dx(cut.x_star, cfg, cut)
    worst = 0.0
    for x in np.arange(2.0, 8.01, 0.5):
        dev = abs(dn_dx(float(x), cfg, cut) - infinite_volume_dn_dx(float(x), cfg, cut)) / peak
        worst = max(worst, dev)
    tail_frac = dn_dx(14.5, cfg, cut) / peak
    sharp_zero = infinite_volume_dn_dx(cut.x_star * (1.0 + 1e-12), cfg, cut) == 0.0
    mid = dn_dx(12.5, cfg, cut) / peak
    smooth = tail_frac < mid < dn_dx(cut.x_star, cfg, cut) / peak
    ok = worst < 0.10 and tail_frac < 0.10 and sharp_zero and smooth
    _report(
        "9 finite-volume smearing",
        ok,
        f"bulk dev {worst:.3%} (tol 10%), rolloff fraction at 14.5 = {tail_frac:.3%} (tol 10%), "
        f"infinite-volume curve zero past cutoff: {sharp_zero}",
    )
