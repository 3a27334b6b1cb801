import itertools
import math
import random

import numpy as np
import pytest
from scipy.special import spherical_jn

from bubblespec import kernel
from bubblespec.kernel import (
    _L_MARGIN,
    _kernel_terms,
    CutoffProfile,
    KernelConvergenceError,
    d_approx,
    d_exact,
    f_exact,
    f_factorized,
)
from bubblespec.matching import MediumConfig, coefficient_a_sq
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
    rounded = CutoffProfile.rounded(cfg)
    assert rounded.x_star == pytest.approx(15.0 / 1.3)
    assert rounded.x_star == rounded.y_star
    # the radius sets only the physical scales, not the cutoffs
    assert CutoffProfile.rounded(MediumConfig(n_gas_in=2e4, n_gas_out=1.0, radius=50.0)) == rounded
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x_star must be a positive finite number"):
            CutoffProfile(x_star=bad, y_star=1.0)
        with pytest.raises(ValueError, match="y_star must be a positive finite number"):
            CutoffProfile(x_star=1.0, y_star=bad)


def test_f_exact_frozen_value():
    v = f_exact(3.0, 3.2)
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


def test_f_exact_nonconvergence_signal(monkeypatch):
    # a table that ends at the first order the tail bound applies to, one
    # short of where it certifies (l = 245): the end-of-table guard raises
    monkeypatch.setattr(kernel, "_L_MARGIN", 0)
    with pytest.raises(KernelConvergenceError, match="not certified by l=244") as exc:
        f_exact(180.0, 180.0)
    assert exc.value.l_reached == int(math.e * 180.0 / 2.0) == 244
    assert exc.value.partial == pytest.approx(HALF_ASYMPTOTE, rel=0.01)


def _per_order_f_exact(x, y):
    """F(x, y) summed one order at a time, each order from its own Bessel pair.

    The tail is certified exactly as in f_exact; returns (value, l_used,
    truncation_error_estimate).  Valid away from the diagonal only.
    """
    terms = []
    acc = 0.0
    for l in range(1, 1000):
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
    raise AssertionError(f"tail not certified by l = 999 at ({x}, {y})")


def test_f_exact_matches_per_order_summation():
    rng = random.Random(29)
    for _ in range(30):
        x, y = rng.uniform(0.3, 140.0), rng.uniform(0.3, 140.0)
        if abs(x - y) < 1e-3:
            continue
        got = f_exact(x, y)
        value, l_used, tail = _per_order_f_exact(x, y)
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


@pytest.mark.parametrize("x, y", [(180.0, 179.0), (300.0, 299.7), (392.0, 50.0), (250.0, 10.0)])
def test_f_exact_at_large_arguments_against_a_700_order_sum(x, y):
    # tables of 252 to 540 terms; the reference sums 700 orders
    assert f_exact(x, y).value == pytest.approx(_spherical_jn_f(x, y, l_top=700), rel=1e-8)


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
    # the running sums over l never decrease and reach the certified D(6)
    sums = list(itertools.accumulate(_kernel_terms(6.0, 6.0, 24)))
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert sums[-1] == pytest.approx(d_exact(6.0), rel=1e-8)


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


@pytest.mark.parametrize("n_in, n_out", [(2e4, 1.0), (68.0, 34.0), (1.0, 12.0)])
@pytest.mark.parametrize("x, y", [(100.0, 0.1), (120.0, 0.05), (140.0, 0.3), (60.0, 0.01), (0.01, 100.0)])
def test_a_factor_kernel_never_reports_a_non_finite_sum(x, y, n_in, n_out):
    # The kernel sum carries no wall amplitudes and is finite for a small argument
    # paired with a large one. Weighting its terms with the amplitudes of a medium,
    # taken order by order from `matching`, gives a finite sum up to the first
    # order whose amplitudes leave the double range: that order raises a typed error.
    got = f_exact(x, y)
    assert math.isfinite(got.value)
    cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
    weighted = 0.0
    reached = 0
    for l, term in enumerate(_kernel_terms(x, y, got.l_used), 1):
        try:
            a_in = coefficient_a_sq(ModeOrder(l), y, cfg.n_liquid / n_in)
            a_out = coefficient_a_sq(ModeOrder(l), x, cfg.n_liquid / n_out)
        except BesselDomainError:
            break
        weighted += term * a_in * a_out
        reached = l
    assert math.isfinite(weighted)
    if (x, y, n_in) == (60.0, 0.01, 1.0):
        # the one case whose amplitudes stay finite through every order the sum needs
        assert reached == got.l_used == 81


def test_f_exact_certifies_inside_its_first_table():
    # The sum never needs orders past its table of e*max(x, y)/2 + _L_MARGIN
    # terms anywhere in the domain: far from, near and on the diagonal.
    rng = random.Random(57)
    points = [(145.0, 145.0), (392.0, 392.0)]
    while len(points) < 502:
        x, y = rng.uniform(0.01, 400.0), rng.uniform(0.01, 400.0)
        kind = len(points) % 3
        if kind == 1:
            y = x * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, -2.0))
        elif kind == 2:
            y = x * 10.0 ** rng.uniform(-4.0, -1.0)
        points.append((x, y))
    for x, y in points:
        got = f_exact(x, y)
        assert got.l_used < int(math.e * max(x, y) / 2.0) + _L_MARGIN, (x, y, got.l_used)


@pytest.mark.parametrize("x, y", [(1e-200, 2e-200), (1e-100, 1.0), (1e-200, 1e-200)])
def test_f_exact_tiny_arguments_raise_typed_error(x, y):
    # Bessel values (or x^2 - y^2) leave the double range: a typed error, never a bare crash.
    with pytest.raises(KernelConvergenceError, match="tiny argument") as exc:
        f_exact(x, y)
    assert exc.value.l_reached == 1


def test_f_exact_tiny_diagonal_fails_the_same_way_throughout():
    # below x ~ 1e-3 the diagonal l = 1 term cancels past the tail budget:
    # every point raises, none returns rounding noise or a stray zero
    outcomes = set()
    for x in np.logspace(-90.0, -30.0, 601):
        try:
            outcomes.add(math.isfinite(f_exact(float(x), float(x)).value))
        except KernelConvergenceError as exc:
            assert "tiny argument" in str(exc)
            outcomes.add("raises")
    assert outcomes in ({True}, {"raises"})
    assert d_exact(1e-3) == pytest.approx(6.0042165744256175e-22, rel=1e-8)  # 100-digit sum
