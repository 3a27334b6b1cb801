import math
import random

import numpy as np
import pytest
from scipy import special

from bubblespec.matching import (
    MediumConfig,
    _amplitudes_at,
    coefficient_a_sq,
    coefficients_bc,
    matching_coefficients,
    normalization_xi,
)
from bubblespec.special_functions import BesselDomainError, ModeOrder


def test_medium_config_defaults_and_validation():
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    assert cfg.n_liquid == 1.3
    assert cfg.radius == 500.0
    with pytest.raises(ValueError):
        MediumConfig(n_gas_in=-1.0, n_gas_out=1.0)
    with pytest.raises(ValueError):
        MediumConfig(n_gas_in=1.0, n_gas_out=1.0, radius=0.0)


def test_homogeneous_medium_is_trivial():
    rng = random.Random(5)
    for _ in range(200):
        l = rng.randint(0, 30)
        y = rng.uniform(1e-3, 50.0)
        assert coefficient_a_sq(ModeOrder(l), y, 1.0) == pytest.approx(1.0, abs=1e-10)
        b, c = coefficients_bc(ModeOrder(l), y, 1.0)
        assert b == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)


def test_unit_circle_convention():
    rng = random.Random(9)
    for _ in range(1000):
        l = rng.randint(0, 20)
        y = rng.uniform(0.01, 30.0)
        ratio = rng.uniform(0.5, 3.0)
        b, c = coefficients_bc(ModeOrder(l), y, ratio)
        assert abs(b * b + c * c - 1.0) < 1e-12


def test_matching_system_residual():
    """(A, B, C) must satisfy both continuity rows of the wall-matching
    linear system; reference Bessel values come from scipy, not from the
    package's own recurrences."""
    rng = random.Random(31)
    for _ in range(1000):
        l = rng.randint(0, 20)
        y = rng.uniform(0.05, 30.0)
        ratio = rng.uniform(0.5, 3.0)
        nu = l + 0.5
        ny = ratio * y
        a = math.sqrt(coefficient_a_sq(ModeOrder(l), y, ratio))
        b, c = coefficients_bc(ModeOrder(l), y, ratio)

        jy, jny = special.jv(nu, y), special.jv(nu, ny)
        nny = special.yv(nu, ny)
        d_in = y * special.jv(nu - 1, y) - nu * jy
        d_out_j = ny * special.jv(nu - 1, ny) - nu * jny
        d_out_n = ny * special.yv(nu - 1, ny) - nu * nny

        r1 = a * jy - (b * jny + c * nny)
        r2 = a * d_in - (b * d_out_j + c * d_out_n)
        s1 = max(abs(a * jy), abs(b * jny), abs(c * nny), 1e-300)
        s2 = max(abs(a * d_in), abs(b * d_out_j), abs(c * d_out_n), 1e-300)
        assert abs(r1) / s1 < 1e-10
        assert abs(r2) / s2 < 1e-10


@pytest.mark.parametrize("ratio", [0.5, 0.8, 1.3, 2.0])
@pytest.mark.parametrize("l", [0, 1, 2, 3, 4, 5])
def test_small_argument_power_law(l, ratio):
    nu = l + 0.5
    a = coefficient_a_sq(ModeOrder(l), 0.005, ratio)
    assert abs(a - ratio ** (2 * nu)) / ratio ** (2 * nu) < 0.05


def test_large_argument_envelope():
    # asymptotically |A|^2 oscillates between ratio and 1/ratio
    ratio = 1.3
    lo, hi = min(ratio, 1 / ratio), max(ratio, 1 / ratio)
    for y in np.linspace(50.0, 80.0, 400):
        a = coefficient_a_sq(ModeOrder(2), float(y), ratio)
        assert lo * 0.98 <= a <= hi * 1.02


def test_large_argument_window_average_is_unity():
    ys = np.linspace(60.0, 60.0 + math.pi, 2001)
    vals = [coefficient_a_sq(ModeOrder(3), float(y), 1.3) for y in ys]
    mean = np.trapezoid(vals, ys) / math.pi
    assert abs(mean - 1.0) < 0.02


def test_normalization_xi():
    assert normalization_xi(1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert normalization_xi(2.0, 1.3) == pytest.approx(1.0 / (2.0 * math.sqrt(2.6)))
    # homogeneity in kappa
    assert normalization_xi(3.0 * 1.7, 1.3) == pytest.approx(normalization_xi(1.7, 1.3) / 3.0)
    with pytest.raises(BesselDomainError):
        normalization_xi(0.0, 1.3)
    with pytest.raises(BesselDomainError):
        normalization_xi(1.0, -2.0)
    # the config fields' positive-finite rule, with the domain error's type
    for kappa, n_liquid in ((True, 1.3), (10**400, 1.3), (1.0, True), (1.0, 10**400)):
        with pytest.raises(BesselDomainError, match="must be a positive finite number"):
            normalization_xi(kappa, n_liquid)


@pytest.mark.parametrize("kappa, n_liquid", [(math.nan, 1.3), (math.inf, 1.3), (1.0, math.inf), (1.0, math.nan)])
def test_non_finite_normalization_inputs_raise(kappa, n_liquid):
    # NaN passed a <= 0 test and inf gave |Xi| = 0
    with pytest.raises(BesselDomainError):
        normalization_xi(kappa, n_liquid)
    with pytest.raises(BesselDomainError):
        matching_coefficients(ModeOrder(2), 4.0, 1.3, kappa=kappa, n_liquid=n_liquid)


def test_bundle():
    mc = matching_coefficients(ModeOrder(2), 4.0, 1.3, kappa=2.0, n_liquid=1.3)
    assert mc.a_sq == pytest.approx(coefficient_a_sq(ModeOrder(2), 4.0, 1.3), rel=1e-14)
    b, c = coefficients_bc(ModeOrder(2), 4.0, 1.3)
    assert (mc.b, mc.c) == (b, c)
    assert mc.xi_abs == pytest.approx(normalization_xi(2.0, 1.3))


def test_domain_errors():
    with pytest.raises(BesselDomainError):
        coefficient_a_sq(ModeOrder(1), -1.0, 1.3)
    with pytest.raises(BesselDomainError):
        coefficients_bc(ModeOrder(1), 2.0, 0.0)
    # the raw numbers are checked before any arithmetic: an int past the double range is no OverflowError
    for y, ratio in ((10**400, 1.3), (2.0, 10**400)):
        for call in (coefficient_a_sq, coefficients_bc):
            with pytest.raises(BesselDomainError):
                call(ModeOrder(3), y, ratio)


@pytest.mark.parametrize(
    "y, ratio",
    [(0.0, 1.3), (-1.0, 1.3), (math.nan, 1.3), (math.inf, 1.3), (5e-310, 1.3), (1e6, 1.3)]
    + [(2.0, 0.0), (2.0, -1.0), (2.0, math.nan), (2.0, math.inf), (2.0, 1e6)],
)
def test_surface_arguments_outside_the_bessel_domain_raise(y, ratio):
    # y inside and ratio * y outside must both be Bessel arguments
    with pytest.raises(BesselDomainError, match="argument must be a normal double"):
        coefficients_bc(ModeOrder(3), y, ratio)
    with pytest.raises(BesselDomainError, match="argument must be a normal double"):
        _amplitudes_at(np.array([3]), np.array([y]), np.array([ratio]))


def test_batched_amplitudes_equal_single_draw_calls():
    # A draw's amplitudes do not depend on its batch: the array pass equals the one-draw calls bit for bit.
    rng = random.Random(43)
    draws = [(rng.choice((0, 1, 7, 30)), rng.uniform(0.05, 40.0), rng.uniform(0.05, 20.0)) for _ in range(200)]
    a_sq, b, c = _amplitudes_at(*(np.array(v) for v in zip(*draws)))
    for a, (l, y, ratio) in enumerate(draws):
        assert a_sq[a] == coefficient_a_sq(ModeOrder(l), y, ratio), a
        assert (b[a], c[a]) == coefficients_bc(ModeOrder(l), y, ratio), a


@pytest.mark.parametrize("l, y, ratio", [(130, 0.1, 20.0), (140, 0.1, 30.0), (118, 0.1, 13.0), (200, 0.1, 2.0)])
def test_non_finite_amplitudes_raise_typed_error(l, y, ratio):
    # the Bessel values underflow (inside J) or overflow (outside N)
    for call in (coefficient_a_sq, coefficients_bc):
        with pytest.raises(BesselDomainError, match=f"order l={l} .* y={y}"):
            call(ModeOrder(l), y, ratio)
    with pytest.raises(BesselDomainError, match=f"order l={l}"):
        matching_coefficients(ModeOrder(l), y, ratio, kappa=1.0, n_liquid=1.3)


@pytest.mark.parametrize(
    "l, y, ratio, first",
    [([2, 130, 140], [1.0, 0.1, 0.1], [1.3, 20.0, 30.0], 1), ([1, 3, 4], [2.0, 2.0, 1.0], [1.3, 0.0, 1.3], 1)]
    + [([1, 3], [2.0, 5e-310], [1.3, 1.3], 1), ([200, 3, 4], [0.1, 2.0, 1.0], [2.0, 0.0, 1.3], 1)],
)
def test_draw_amplitudes_raise_the_scalar_error_of_the_first_failing_draw(l, y, ratio, first):
    # A non-finite row, or a surface argument outside the Bessel domain, with coefficients_bc's message.  Domain
    # errors come first: draw 0 of the last case has non-finite amplitudes, draw 1 a zero ratio.
    with pytest.raises(BesselDomainError) as scalar:
        coefficients_bc(ModeOrder(l[first]), y[first], ratio[first])
    with pytest.raises(BesselDomainError) as batched:
        _amplitudes_at(np.array(l), np.array(y), np.array(ratio))
    assert str(batched.value) == str(scalar.value)
