import math
import random

import pytest
from scipy import integrate, special

from bubblespec import oracles
from bubblespec.cli import _run_checks
from bubblespec.kernel import _DIAG_BAND, f_exact
from bubblespec.oracles import finite_overlap_checks, hankel_finite_integral, spectral_delta_checks
from bubblespec.special_functions import BesselDomainError, ModeOrder


def _quad_reference(l, k1, k2, R):
    val, _ = integrate.quad(
        lambda r: r * special.jv(l + 0.5, k1 * r) * special.jv(l + 0.5, k2 * r),
        0.0,
        R,
        limit=400,
    )
    return val


def test_closed_form_against_quadrature():
    rng = random.Random(41)
    for _ in range(100):
        l = rng.randint(0, 10)  # nu <= 21/2
        k1 = rng.uniform(0.5, 5.0)
        k2 = rng.uniform(0.5, 5.0)
        R = rng.uniform(1.0, 20.0)
        cf = hankel_finite_integral(ModeOrder(l), k1, k2, R)
        ref = _quad_reference(l, k1, k2, R)
        assert abs(cf - ref) / max(abs(ref), 1e-12) < 1e-8


def test_symmetry_under_wavenumber_exchange():
    cf = hankel_finite_integral(ModeOrder(3), 1.3, 2.7, 8.0)
    assert cf == pytest.approx(hankel_finite_integral(ModeOrder(3), 2.7, 1.3, 8.0), rel=1e-12)


def test_specific_case():
    # nu = 1/2, k = (1, 2), R = pi
    cf = hankel_finite_integral(ModeOrder(0), 1.0, 2.0, math.pi)
    assert cf == pytest.approx(_quad_reference(0, 1.0, 2.0, math.pi), rel=1e-10)


def test_degenerate_wavenumbers_route_to_diagonal():
    l, k, R = 2, 1.7, 9.0
    cf = hankel_finite_integral(ModeOrder(l), k, k * (1.0 + 1e-12), R)
    ref = _quad_reference(l, k, k, R)
    assert cf == pytest.approx(ref, rel=1e-9)
    exact_diag = hankel_finite_integral(ModeOrder(l), k, k, R)
    assert exact_diag == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize(
    "delta",
    [lambda edge: 0.0, lambda edge: 1e-12, lambda edge: 0.9 * edge, lambda edge: 1.1 * edge,
     lambda edge: 1e-3, lambda edge: 1e-2],
    ids=["0", "1e-12", "inside-band", "outside-band", "1e-3", "1e-2"],
)
def test_band_edge_against_quadpack(delta):
    # k2 = k (1 + delta) on both sides of the kernel's diagonal band
    # |k1 - k2| R < _DIAG_BAND min(k1 R, k2 R, 1), where the ratio switches to
    # its midpoint limit.  Inside the band that rule is off by about
    # nu (delta/2)^2 relative, within 1e-8 up to l = 3 (so l stops there);
    # below kR ~ 0.08 it misses 1e-8 at l = 1 as well, so kR starts at 0.5.
    R = 5.0
    for kr in (0.5, 0.8, 1.0, 1.8, 3.0, 7.0, 15.0, 30.0):
        k1 = kr / R
        k2 = k1 * (1.0 + delta(_DIAG_BAND * min(kr, 1.0) / kr))
        for l in range(4):
            ref, _ = integrate.quad(
                lambda r: r * special.jv(l + 0.5, k1 * r) * special.jv(l + 0.5, k2 * r),
                0.0, R, epsabs=0.0, epsrel=1e-13, limit=400,
            )
            assert hankel_finite_integral(ModeOrder(l), k1, k2, R) == pytest.approx(ref, rel=1e-8, abs=0.0)


def test_large_radius_no_spurious_growth():
    # off-diagonal overlap divided by R stays bounded and oscillatory
    vals = [abs(hankel_finite_integral(ModeOrder(1), 1.0, 1.5, R)) / R for R in (20, 80, 320, 1280)]
    assert max(vals) < 10.0 * min(max(vals[0], 1e-6), 1.0) + 1.0


def test_domain_errors():
    with pytest.raises(BesselDomainError):
        hankel_finite_integral(ModeOrder(1), -1.0, 2.0, 5.0)
    with pytest.raises(BesselDomainError):
        hankel_finite_integral(ModeOrder(1), 1.0, 2.0, 0.0)


@pytest.mark.parametrize(
    "k1, k2, R", [(1.0, 0.0, 5.0), (math.nan, 2.0, 5.0), (1.0, 2.0, -5.0), (-1.0, -2.0, -5.0)]
)
def test_every_sign_error_raises_the_domain_error(k1, k2, R):
    # a negative radius would turn two negative wavenumbers into positive arguments
    with pytest.raises(BesselDomainError):
        hankel_finite_integral(ModeOrder(1), k1, k2, R)


def test_spectral_delta_suite():
    rep = spectral_delta_checks()
    assert rep.passed
    assert rep.max_rel_error < 0.01
    assert rep.samples >= 7


def test_closed_form_delta_deviations_against_quadpack():
    # the suite's closed forms against QUADPACK on the windows the suite once integrated over
    for s in (5.0, 10.0, 20.0, 50.0):
        val, _ = integrate.quad(
            lambda t: math.sin(s * t) ** 2 / (s * math.pi * t * t) * math.exp(-0.5 * t * t),
            -8.0, 8.0, limit=4000, points=[0.0],
        )
        assert oracles._fejer_deviation(s) == pytest.approx(1.0 - val, rel=0.0, abs=1e-9)
    for big_r in (25.0, 50.0, 100.0):
        val, _ = integrate.quad(
            lambda k: math.sin(k * big_r) / (math.pi * k) * math.exp(-0.5 * k * k),
            -60.0, 60.0, limit=2000, points=[0.0],
        )
        assert oracles._dirichlet_deviation(big_r) == pytest.approx(1.0 - val, rel=0.0, abs=1e-9)


def test_overlap_reference_matches_quadpack_on_the_check_draws(monkeypatch):
    # record the Gauss-Legendre references of `bubblespec check`'s own seeded draws
    calls = []
    reference = oracles._gauss_legendre_overlap

    def recorded(l, k1, k2, R, panels, rule):
        calls.append((l, k1, k2, R, reference(l, k1, k2, R, panels, rule)))
        return calls[-1][-1]

    monkeypatch.setattr(oracles, "_gauss_legendre_overlap", recorded)
    assert all(r["passed"] for r in _run_checks())
    assert len(calls) == 50
    for l, k1, k2, R, gl in calls[1::2]:  # the doubled-panel rule is the reference
        assert gl == pytest.approx(_quad_reference(l, k1, k2, R), rel=1e-12, abs=0.0)


def test_overlap_suite_fails_when_its_reference_disagrees_with_itself(monkeypatch):
    # off by 1e-9/panels: far inside the closed-form bound, but the doubled-panel rule disagrees
    reference = oracles._gauss_legendre_overlap
    monkeypatch.setattr(
        oracles,
        "_gauss_legendre_overlap",
        lambda l, k1, k2, R, panels, rule: reference(l, k1, k2, R, panels, rule) * (1.0 + 1e-9 / panels),
    )
    rep = finite_overlap_checks(random.Random(20260823))
    assert rep.max_rel_error < 1e-8
    assert not rep.passed
    monkeypatch.setattr(oracles, "_gauss_legendre_overlap", reference)
    assert finite_overlap_checks(random.Random(20260823)).passed


def test_kernel_concentrates_on_diagonal_with_scale():
    # fixed relative momentum mismatch, growing sphere: the exact kernel
    # piles up on x = y, mirroring momentum conservation at infinite volume
    # F(s x, s(x + delta))/F(s x, s x) at fixed x = 5, delta = 0.4
    ratios = [f_exact(5.0 * s, 5.4 * s).value / f_exact(5.0 * s, 5.0 * s).value for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.15
