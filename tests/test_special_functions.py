import math
import random

import pytest

from bubblespec.kernel import _DIAG_BAND, _pw_ratios, f_exact
from bubblespec.oracles import hankel_finite_integral
from bubblespec.special_functions import (
    AsymptoticRegimeError,
    BesselDomainError,
    BesselPair,
    ModeOrder,
    bessel_jn_half,
    half_integer_j_array,
    half_integer_n_array,
    tail_term_scale,
)

TWO_OVER_PI = 2.0 / math.pi

# Reference values frozen from 50-digit arithmetic.
J_3_2_AT_2 = 0.49129377868716234501
N_3_2_AT_2 = -0.39562328135870351708
J_1_2_AT_2 = 0.51301613656182775167
N_1_2_AT_2 = 0.23478571040624846917
PW_5_2_3_4 = -0.32597887045956021663
DIAG_5_2_3 = 0.209837291458817
# Deep-underflow regime exercise for the downward recurrence.
J_59_5_SMALL = 4.1209586873385774e-155
J_58_5_SMALL = 4.191488748482732e-152
SMALL_Z = 0.11699747918379022


def test_order_validation():
    with pytest.raises(ValueError):
        ModeOrder(-1)
    with pytest.raises(ValueError):
        ModeOrder(1.5)
    assert ModeOrder(3).nu == 3.5


def test_frozen_values_l1():
    p = bessel_jn_half(ModeOrder(1), 2.0)
    assert p.j == pytest.approx(J_3_2_AT_2, rel=1e-13)
    assert p.n == pytest.approx(N_3_2_AT_2, rel=1e-13)
    assert p.j_prev == pytest.approx(J_1_2_AT_2, rel=1e-13)
    assert p.n_prev == pytest.approx(N_1_2_AT_2, rel=1e-13)


def test_l0_closed_forms():
    # nu - 1 = -1/2 resolves to the cos/sin closed forms
    z = 1.7
    p = bessel_jn_half(ModeOrder(0), z)
    s = math.sqrt(2.0 * z / math.pi)
    assert p.j == pytest.approx(s * math.sin(z) / z, rel=1e-15)
    assert p.j_prev == pytest.approx(s * math.cos(z) / z, rel=1e-15)
    assert p.n == pytest.approx(-s * math.cos(z) / z, rel=1e-15)
    assert p.n_prev == pytest.approx(s * math.sin(z) / z, rel=1e-15)


def test_domain_errors():
    with pytest.raises(BesselDomainError):
        bessel_jn_half(ModeOrder(2), 0.0)
    with pytest.raises(BesselDomainError):
        bessel_jn_half(ModeOrder(2), -1.0)
    with pytest.raises(BesselDomainError):
        _pw_ratios(-1.0, 2.0, 2)
    with pytest.raises(BesselDomainError):
        _pw_ratios(0.0, 0.0, 2)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda z: half_integer_j_array(3, z),
        lambda z: half_integer_n_array(3, z),
        lambda z: bessel_jn_half(ModeOrder(2), z),
        lambda z: _pw_ratios(z, 1.0, 2),
        lambda z: f_exact(z, 1.0),
        lambda z: f_exact(1.0, z),
        lambda z: hankel_finite_integral(ModeOrder(1), z, 1.0, 1.0),
        lambda z: hankel_finite_integral(ModeOrder(1), 1.0, 1.0, z),
    ],
    ids=["j-table", "n-table", "pair", "ratio", "f_exact-x", "f_exact-y", "overlap-k", "overlap-R"],
)
def test_non_finite_arguments_raise_the_domain_error(call, z):
    with pytest.raises(BesselDomainError):
        call(z)


def test_deep_underflow_regime():
    """Order far above argument: the rescaled downward pass must keep
    relative precision instead of flushing the stored tail to zero."""
    p = bessel_jn_half(ModeOrder(59), SMALL_Z)
    assert p.j == pytest.approx(J_59_5_SMALL, rel=1e-12)
    assert p.j_prev == pytest.approx(J_58_5_SMALL, rel=1e-12)


@pytest.mark.parametrize("z", [1e-60, 1e-63, 1e-75, 1e-100])
def test_tiny_argument_tables_stay_finite(z):
    # one downward step multiplies by ~(2l+1)/z; the rescale threshold must
    # leave room for it, or inf - inf turns every order into NaN
    vals = half_integer_j_array(6, z)
    assert not any(math.isnan(v) for v in vals)
    s = math.sqrt(2.0 * z / math.pi)
    assert vals[0] == pytest.approx(s, rel=1e-15)  # J_{1/2} = s sin(z)/z
    assert vals[1] == pytest.approx(s * z / 3.0, rel=1e-15)  # J_{3/2} ~ s z/3


def test_wronskian_identity_sweep():
    # z (J_nu N_{nu-1} - J_{nu-1} N_nu) = 2/pi
    rng = random.Random(101)
    worst = 0.0
    for _ in range(10_000):
        l = rng.randint(0, 60)
        z = 10 ** rng.uniform(-1.0, 2.0)
        p = bessel_jn_half(ModeOrder(l), z)
        if p.saturated or math.isinf(p.n) or math.isinf(p.n_prev):
            continue
        w = z * (p.j * p.n_prev - p.j_prev * p.n)
        worst = max(worst, abs(w - TWO_OVER_PI) / TWO_OVER_PI)
    assert worst < 1e-10


def test_recurrence_consistency():
    # J_{nu+1}(z) = (2 nu / z) J_nu(z) - J_{nu-1}(z) ties adjacent orders together
    rng = random.Random(7)
    for _ in range(200):
        l = rng.randint(1, 40)
        z = rng.uniform(0.5, 60.0)
        lo = bessel_jn_half(ModeOrder(l), z)
        hi = bessel_jn_half(ModeOrder(l + 1), z)
        nu = l + 0.5
        expected = 2.0 * nu / z * lo.j - lo.j_prev
        if abs(expected) > 1e-280:
            assert hi.j == pytest.approx(expected, rel=1e-9, abs=1e-290)


def test_half_integer_array_matches_pairs():
    z = 7.3
    vals = half_integer_j_array(12, z)
    for l in (0, 3, 7, 12):
        assert vals[l] == pytest.approx(bessel_jn_half(ModeOrder(l), z).j, rel=1e-13)


def test_tables_end_with_order_minus_half():
    z = 7.3
    s = math.sqrt(2.0 * z / math.pi)
    j, n = half_integer_j_array(12, z), half_integer_n_array(12, z)
    assert len(j) == len(n) == 14
    assert j[-1] == pytest.approx(s * math.cos(z) / z, rel=1e-15)
    assert n[-1] == pytest.approx(s * math.sin(z) / z, rel=1e-15)
    for l in (0, 3, 7, 12):
        p = bessel_jn_half(ModeOrder(l), z)
        assert (n[l], n[l - 1], j[l - 1]) == pytest.approx((p.n, p.n_prev, p.j_prev), rel=1e-13)


def test_pseudo_wronskian_frozen():
    # the ratio times x^2 - y^2 is the pseudo-Wronskian det[[J(x), J(y)], [x J'(x), y J'(y)]]
    assert _pw_ratios(3.0, 4.0, 2)[2] * (9.0 - 16.0) == pytest.approx(PW_5_2_3_4, rel=1e-12)


def test_pseudo_wronskian_exact_antisymmetry():
    # W~ is antisymmetric and so is x^2 - y^2: the ratio must be bit-exactly
    # symmetric, off the diagonal band and inside it
    rng = random.Random(13)
    for _ in range(100):
        x, y = rng.uniform(0.2, 40.0), rng.uniform(0.2, 40.0)
        assert _pw_ratios(x, y, 25) == _pw_ratios(y, x, 25)
        y = x * (1.0 + rng.uniform(-0.9, 0.9) * _DIAG_BAND * min(x, 1.0) / x)
        assert _pw_ratios(x, y, 25) == _pw_ratios(y, x, 25)


def test_diagonal_limit_frozen_and_finite_difference():
    # on the diagonal the ratio is lim W~/(x - y) over 2x
    assert _pw_ratios(3.0, 3.0, 2)[2] * 6.0 == pytest.approx(DIAG_5_2_3, rel=1e-12)
    rng = random.Random(17)
    for _ in range(100):
        l = rng.randint(1, 25)
        x = rng.uniform(0.5, 40.0)
        # x +- h are twice the band width apart, so the direct form is compared
        # with the limit; the O(h^2) gap stays below 1.2e-7 here (no abs floor:
        # the values reach 1e-44)
        h = _DIAG_BAND * min(x, 1.0)
        fd = _pw_ratios(x - h, x + h, l)[l]
        assert fd == pytest.approx(_pw_ratios(x, x, l)[l], rel=1e-6, abs=0.0)


def test_diagonal_limit_closed_form_magnitude():
    # |lim W~/(x-y)| must equal |2 nu J J' - x (J^2 + J'^2)| regardless of
    # determinant orientation; only the square enters downstream.
    for l, x in ((1, 2.5), (3, 7.0), (8, 20.0)):
        p = bessel_jn_half(ModeOrder(l), x)
        nu = l + 0.5
        quoted = 2.0 * nu * p.j * p.j_prev - x * (p.j**2 + p.j_prev**2)
        assert abs(_pw_ratios(x, x, l)[l]) * 2.0 * x == pytest.approx(abs(quoted), rel=1e-13)


def test_large_order_bound_dominates():
    rng = random.Random(23)
    checked = 0
    for _ in range(500):
        x, y = rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0)
        l_min = math.ceil(math.e * max(x, y) / 2.0 + 0.5)
        l = rng.randint(l_min, l_min + 20)
        assert abs(_pw_ratios(x, y, l)[l]) <= tail_term_scale(ModeOrder(l), x, y)
        checked += 1
    assert checked == 500


def test_large_order_bound_regime_guard():
    with pytest.raises(AsymptoticRegimeError):
        tail_term_scale(ModeOrder(5), 30.0, 2.0)


def test_large_order_bound_is_zero_when_the_product_underflows():
    # x*y underflows to 0: the bound is far below any double, not a log-domain crash
    assert tail_term_scale(ModeOrder(5), 1e-200, 1e-200) == 0.0


def test_saturation_flags():
    # tiny argument, huge order: J underflows (clamped to zero), N overflows
    p = bessel_jn_half(ModeOrder(150), 0.01)
    assert p.j == 0.0
    assert p.saturated
    assert math.isinf(p.n)
    assert not math.isnan(p.n)


def test_besselpair_is_plain_data():
    p = BesselPair(j=1.0, n=2.0, j_prev=3.0, n_prev=4.0, z=5.0)
    with pytest.raises(AttributeError):
        p.j = 0.0  # frozen
