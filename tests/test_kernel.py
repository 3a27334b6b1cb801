import math
import random

import numpy as np
import pytest
from scipy.special import spherical_jn

from bubblespec.kernel import (
    CutoffProfile,
    KernelConvergenceError,
    d_approx,
    d_exact,
    default_l_max,
    f_exact,
    f_factorized,
    refractive_in,
    refractive_out,
)
from bubblespec.matching import MediumConfig
from bubblespec.special_functions import (
    AsymptoticRegimeError,
    BesselDomainError,
    ModeOrder,
    bessel_jn_half,
    tail_term_scale,
)

HALF_ASYMPTOTE = 1.0 / (2.0 * math.pi**2)

# Frozen from independent 50-digit term-by-term summation (l <= 15).
F_3_32_FROZEN = 0.038161505677472201585
D_6_FROZEN = 0.047209729573
D_2_FROZEN = 0.012342053


def test_cutoff_profiles():
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    exact = CutoffProfile.from_config(cfg)
    assert exact.x_star == pytest.approx(5.0 * math.pi / 1.3)
    assert exact.x_star == exact.y_star
    rounded = CutoffProfile.rounded(cfg)
    assert rounded.x_star == pytest.approx(15.0 / 1.3)
    with pytest.raises(ValueError):
        CutoffProfile(x_star=0.0, y_star=1.0)


def test_refractive_steps_left_continuous():
    cfg = MediumConfig(n_gas_in=9.0, n_gas_out=25.0)
    cut = CutoffProfile.rounded(cfg)
    assert refractive_in(0.5 * cut.y_star, cfg, cut) == 9.0
    assert refractive_in(cut.y_star, cfg, cut) == 9.0  # cutoff value applies at the step
    assert refractive_in(cut.y_star * (1 + 1e-12), cfg, cut) == 1.0
    assert refractive_out(0.5 * cut.x_star, cfg, cut) == 25.0
    assert refractive_out(cut.x_star, cfg, cut) == 25.0
    assert refractive_out(2.0 * cut.x_star, cfg, cut) == 1.0
    degenerate = MediumConfig(n_gas_in=1.0, n_gas_out=1.0)
    assert refractive_in(0.1, degenerate, cut) == 1.0
    assert refractive_out(99.0, degenerate, cut) == 1.0


def test_default_l_max():
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    assert default_l_max(cfg) == round(5.0 * math.pi / 1.3)


def test_f_exact_frozen_value():
    v = f_exact(3.0, 3.2, l_max=15)
    # adaptive truncation certifies the tail below 1e-8 of the sum
    assert v.value == pytest.approx(F_3_32_FROZEN, rel=1e-8)
    assert v.l_used <= 15
    assert v.truncation_error_estimate < 1e-8 * v.value


def test_f_exact_symmetry_and_positivity():
    rng = random.Random(3)
    for _ in range(50):
        x, y = rng.uniform(0.3, 15.0), rng.uniform(0.3, 15.0)
        vxy = f_exact(x, y).value
        vyx = f_exact(y, x).value
        assert vxy >= 0.0
        assert vxy == vyx


def test_f_exact_domain_and_l_max_validation():
    with pytest.raises(BesselDomainError):
        f_exact(0.0, 1.0)
    with pytest.raises(ValueError):
        f_exact(1.0, 1.0, l_max=0)
    with pytest.raises(ValueError):
        f_exact(1.0, 1.0, with_a_factors=True)


def test_f_exact_nonconvergence_signal():
    # arguments so large the tail cannot be certified below the hard cap
    with pytest.raises(KernelConvergenceError) as exc:
        f_exact(180.0, 180.0)
    assert exc.value.l_reached == 200


def _per_order_f_exact(x, y, l_max=200):
    """F(x, y) summed one order at a time, each order from its own Bessel pair.

    The tail is certified exactly as in f_exact; returns (value, l_used,
    truncation_error_estimate).  Valid away from the diagonal only.
    """
    cap = min(l_max, 200)
    terms = []
    acc = 0.0
    l = 0
    tail_est = math.inf
    while l < cap:
        l += 1
        px = bessel_jn_half(ModeOrder(l), x)
        py = bessel_jn_half(ModeOrder(l), y)
        r = (px.j * y * py.j_prev - py.j * x * px.j_prev) / (x * x - y * y)
        terms.append((2 * l + 1) * r * r)
        acc += terms[-1]
        try:
            s1 = tail_term_scale(ModeOrder(l + 1), x, y)
            s2 = tail_term_scale(ModeOrder(l + 2), x, y)
        except AsymptoticRegimeError:
            continue
        b1 = (2 * (l + 1) + 1) * s1 * s1
        b2 = (2 * (l + 2) + 1) * s2 * s2
        ratio = b2 / b1 if b1 > 0.0 else 0.0
        if ratio < 0.9:
            tail_est = b1 / (1.0 - ratio)
            if tail_est <= 1e-8 * max(acc, 1e-300):
                return math.fsum(terms), l, tail_est
    return math.fsum(terms), l, tail_est if math.isfinite(tail_est) else abs(terms[-1])


def test_f_exact_matches_per_order_summation():
    rng = random.Random(29)
    for _ in range(30):
        x, y = rng.uniform(0.3, 140.0), rng.uniform(0.3, 140.0)
        if abs(x - y) < 1e-3:
            continue
        for l_max in (200, rng.randint(1, 200)):
            got = f_exact(x, y, l_max=l_max)
            value, l_used, tail = _per_order_f_exact(x, y, l_max)
            assert got.l_used == l_used
            assert got.value == pytest.approx(value, rel=1e-12)
            assert got.truncation_error_estimate == pytest.approx(tail, rel=1e-12)


def _spherical_jn_f(x, y, l_top=260):
    """Independent term sum of F(x, y) from scipy's spherical Bessel functions."""
    l = np.arange(1, l_top)
    # J_{l+1/2}(z) = sqrt(2z/pi) j_l(z); the two sqrt factors are common.
    w = (spherical_jn(l, x) * y * spherical_jn(l - 1, y) - spherical_jn(l, y) * x * spherical_jn(l - 1, x)) * (
        2.0 / math.pi * math.sqrt(x * y)
    )
    return math.fsum((2 * l + 1) * (w / (x * x - y * y)) ** 2)


@pytest.mark.parametrize("x, y", [(5.0, 5.004), (20.0, 20.019), (63.14, 63.18), (120.0, 120.1)])
def test_f_exact_near_diagonal(x, y):
    # close enough to the diagonal for cancellation, far enough that the
    # midpoint diagonal limit would miss the tail budget
    assert f_exact(x, y).value == pytest.approx(_spherical_jn_f(x, y), rel=1e-8)


def test_diagonal_continuity():
    x = 5.0
    base = d_exact(x)
    prev = None
    for h in (1e-2, 1e-4, 1e-6):
        gap = abs(f_exact(x, x + h).value - base)
        if prev is not None:
            assert gap < prev
        prev = gap
    assert prev < 1e-8


def test_d_exact_values():
    assert d_exact(6.0) == pytest.approx(D_6_FROZEN, rel=1e-9)
    assert d_exact(2.0) == pytest.approx(D_2_FROZEN, rel=1e-7)
    assert abs(d_exact(40.0) - HALF_ASYMPTOTE) / HALF_ASYMPTOTE < 0.02
    # vanishes towards the origin
    assert d_exact(1e-2) < 1e-10


def test_d_exact_monotone_in_l():
    vals = [f_exact(6.0, 6.0, l_max=l).value for l in range(1, 25)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_d_approx():
    assert d_approx(0.0) == 0.0
    assert d_approx(1e6) == pytest.approx(HALF_ASYMPTOTE, rel=1e-10)
    # half-asymptote point x^6 = 250
    assert d_approx(250.0 ** (1.0 / 6.0)) == pytest.approx(0.5 * HALF_ASYMPTOTE, rel=1e-12)
    arr = d_approx(np.array([0.0, 2.0, 6.0]))
    assert arr.shape == (3,)


def test_factorized_diagonal_consistency():
    # 16000 = 2^6 * 250 makes the x = y slice reduce to d_approx exactly
    for x in (0.5, 2.0, 3.3, 7.7, 12.0):
        assert f_factorized(x, x) == pytest.approx(d_approx(x), rel=1e-13)


def test_factorized_first_zero_and_arrays():
    x = 5.0
    assert f_factorized(x + 4.0 * math.pi / 3.0, x) < 1e-30
    xs = np.linspace(1.0, 10.0, 7)
    out = f_factorized(xs, xs[::-1])
    assert out.shape == xs.shape
    assert np.all(out >= 0.0)


def test_factorized_transverse_profile():
    # slice orthogonal to the diagonal through (3, 3) carries the
    # sin^2(3z/2)/(3z/2)^2 shape
    for z in (0.3, 0.8, 1.5):
        got = f_factorized(3.0 + z, 3.0 - z)
        expected = d_approx(3.0) * (math.sin(1.5 * z) / (1.5 * z)) ** 2
        assert got == pytest.approx(expected, rel=1e-12)


def test_factorization_quality_regression():
    # relative L2 distance between exact and factorized kernels over
    # [1, 12]^2, measured once and locked
    xs = np.linspace(1.0, 12.0, 23)
    num = den = 0.0
    for x in xs:
        for y in xs:
            fe = f_exact(float(x), float(y)).value
            ff = f_factorized(float(x), float(y))
            num += (fe - ff) ** 2
            den += fe**2
    l2 = math.sqrt(num / den)
    assert l2 == pytest.approx(0.0883, abs=0.015)


def test_a_factors_trivial_when_indices_match_liquid():
    cfg = MediumConfig(n_gas_in=1.3, n_gas_out=1.3)
    cut = CutoffProfile(x_star=50.0, y_star=50.0)
    with_a = f_exact(3.0, 3.2, cfg, with_a_factors=True, cut=cut)
    assert with_a.value == pytest.approx(f_exact(3.0, 3.2).value, rel=1e-12)


def test_a_factors_unity_above_cutoff():
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    cut = CutoffProfile(x_star=1.0, y_star=1.0)
    with_a = f_exact(3.0, 3.2, cfg, with_a_factors=True, cut=cut)
    assert with_a.value == pytest.approx(f_exact(3.0, 3.2).value, rel=1e-12)
