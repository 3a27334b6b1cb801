"""Domain sweeps: each entry point returns a finite value or raises its typed error, never NaN or a warning.

Derandomized hypothesis properties, so that every run draws the same examples.  Warnings are errors here as
in the whole suite (pyproject.toml), and each property also turns every warning into an error itself.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblespec import kernel
from bubblespec.cli import RunConfig
from bubblespec.kernel import f_exact, f_exact_array, f_factorized
from bubblespec.matching import coefficient_a_sq, coefficients_bc
from bubblespec.oracles import hankel_finite_integral
from bubblespec.quadrature import QuadratureError
from bubblespec.special_functions import (
    BesselDomainError,
    ModeOrder,
    bessel_jn_half,
    half_integer_j_array,
    half_integer_n_array,
)
from bubblespec.spectrum import QuadratureSpec, totals

SWEEP = settings(derandomize=True, max_examples=150, deadline=None, database=None)
WIDTH = 4.0 * math.pi / 3.0
# Non-negative doubles up to the largest, subnormals and the ends included.
MOMENTA = st.floats(min_value=0.0, max_value=1.7976931348623157e308, allow_nan=False, allow_infinity=False)
# Decimal exponents: of a radius, from the subnormals to the top of the double range, and of a Bessel argument
# k R, from where the overlap's leading J product underflows (a domain error) to past the domain's 1e5.
RADII = st.floats(min_value=-315.0, max_value=308.0)
ARGUMENTS = st.floats(min_value=-160.0, max_value=5.5)
# Decimal exponents of a kernel or Bessel argument: 0.0 and the subnormals up to past the domain's 1e5.  A J table
# runs to about z + 6.3 sqrt(z) orders (half_integer_j_array(1, 1e5) takes about 0.25 s), so the Bessel sweeps stop
# at 10^4 unless the draw is past the domain, where it costs nothing; each of their four ranges gets about a quarter
# of the draws.
POINTS = st.floats(min_value=-330.0, max_value=5.5)
BESSEL_POINTS = st.one_of(
    st.floats(min_value=-330.0, max_value=-300.0),
    st.floats(min_value=-300.0, max_value=0.0),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=5.0001, max_value=308.0),
)
# Index ratios near 1, and anywhere in the double range (most then put n y outside the domain).
RATIOS = st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-330.0, max_value=310.0))
# Orders from below the ModeOrder range (a ValueError) up to past the turning point of most arguments.
ORDERS = st.integers(min_value=-2, max_value=120)


def _ten(exponent):
    """10**exponent as a double: 0.0 below the subnormals, 1.78e308 past the top."""
    return 10.0 ** min(exponent, 308.25)


def _quietly(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


@SWEEP
@given(MOMENTA, MOMENTA)
def test_f_factorized_is_finite_and_non_negative(x, y):
    value = _quietly(f_factorized, x, y)
    assert math.isfinite(value) and value >= 0.0


@SWEEP
@given(MOMENTA, st.floats(min_value=2.0 * WIDTH, max_value=1e308), st.booleans())
def test_factorized_envelope_is_finite_and_non_negative_on_the_far_lobes(x, distance, below):
    # the envelope serves panels at least two sinc widths from x, on y >= 0; past 1e16 or so x -+ distance can
    # round back to x, and x + distance can overflow: those draws are outside
    y = x - distance if below and x >= distance else x + distance
    if not math.isfinite(y) or abs(x - y) < 2.0 * WIDTH:
        return
    value = float(_quietly(kernel._factorized_envelope, x, y))
    assert math.isfinite(value) and value >= 0.0


@SWEEP
@given(st.integers(min_value=0, max_value=10), ARGUMENTS, ARGUMENTS, RADII)
def test_hankel_finite_integral_is_finite_or_a_domain_error(l, a, b, r):
    # k1 R and k2 R drawn around the Bessel domain at any radius: a subnormal k with a huge R is in it
    k1, k2, radius = _ten(a - r), _ten(b - r), _ten(r)
    try:
        value = _quietly(hankel_finite_integral, ModeOrder(l), k1, k2, radius)
    except BesselDomainError:
        return
    assert math.isfinite(value)


@settings(SWEEP, max_examples=30)
@given(st.floats(min_value=-2.0, max_value=4.0), st.floats(min_value=-2.0, max_value=4.0))
def test_totals_is_finite_or_a_typed_error_over_the_cutoff_overrides(x_exponent, y_exponent):
    # x* and y* log-uniform in [1e-2, 1e4], the outer start panels graded toward y* wherever it lies
    x_star, y_star = 10.0**x_exponent, 10.0**y_exponent
    run = RunConfig(quad=QuadratureSpec(rel_tol=1e-4), x_star_override=x_star, y_star_override=y_star)
    try:
        res = _quietly(totals, run.medium, run.cutoffs(), run.quad, run.kernel_mode, 0)
    except (QuadratureError, BesselDomainError, ValueError):
        return
    values = (res.total_photons, res.mean_x_over_xstar, res.energy_ev, res.quadrature_error)
    assert all(math.isfinite(v) for v in values) and res.total_photons > 0.0


@SWEEP
@given(st.lists(st.tuples(POINTS, POINTS), min_size=1, max_size=4))
def test_f_exact_is_finite_or_a_domain_error_and_equals_its_array_value(exponents):
    x, y = (np.array([_ten(e) for e in part]) for part in zip(*exponents))
    try:
        values = _quietly(f_exact_array, x, y)
    except BesselDomainError:
        with pytest.raises(BesselDomainError):
            for a, b in zip(x.tolist(), y.tolist()):
                _quietly(f_exact, a, b)
        return
    assert np.isfinite(values).all()
    assert [_quietly(f_exact, a, b).value for a, b in zip(x.tolist(), y.tolist())] == values.tolist()


def _order_or_error(l, call, *args):
    """call(*args), or None where l is below the ModeOrder range and the call raises its ValueError."""
    if l >= 0:
        return _quietly(call, *args)
    with pytest.raises(ValueError):
        _quietly(call, *args)
    return None


@SWEEP
@given(ORDERS, BESSEL_POINTS)
def test_half_integer_j_and_n_arrays_are_finite_n_saturating_or_a_domain_error(l, exponent):
    z = _ten(exponent)
    try:
        j = _order_or_error(l, half_integer_j_array, l, z)
        n = _order_or_error(l, half_integer_n_array, l, z)
    except BesselDomainError:
        return
    if j is None:
        return
    assert len(j) == len(n) == l + 2
    assert all(math.isfinite(v) for v in j)
    # N saturates to +-inf once it passes 1e307, as documented, and never turns NaN
    assert not any(math.isnan(v) for v in n)


@SWEEP
@given(ORDERS, BESSEL_POINTS)
def test_bessel_jn_half_is_finite_or_saturated_or_a_domain_error(l, exponent):
    z = _ten(exponent)
    try:
        pair = _order_or_error(l, lambda: bessel_jn_half(ModeOrder(l), z))
    except BesselDomainError:
        return
    if pair is None:
        return
    assert math.isfinite(pair.j) and math.isfinite(pair.j_prev)
    assert not math.isnan(pair.n) and not math.isnan(pair.n_prev)
    assert pair.saturated or (math.isfinite(pair.n) and math.isfinite(pair.n_prev))


@SWEEP
@given(ORDERS, BESSEL_POINTS, RATIOS)
def test_wall_amplitudes_are_finite_or_a_domain_error(l, exponent, ratio_exponent):
    y, ratio = _ten(exponent), _ten(ratio_exponent)
    try:
        a_sq = _order_or_error(l, lambda: coefficient_a_sq(ModeOrder(l), y, ratio))
        bc = _order_or_error(l, lambda: coefficients_bc(ModeOrder(l), y, ratio))
    except BesselDomainError:
        return
    if a_sq is None:
        return
    b, c = bc
    assert math.isfinite(a_sq) and a_sq > 0.0
    assert math.isfinite(b) and math.isfinite(c) and abs(math.hypot(b, c) - 1.0) <= 1e-15


@pytest.mark.parametrize("y_star", [1.0, 1e3])
@pytest.mark.parametrize("x_star", [1e152, 1e155, 1e160])
def test_totals_at_huge_x_star_raise_without_a_warning(x_star, y_star):
    # the start panels' K15 and G7 estimates overflow to inf there, and their difference was inf - inf: a leaked
    # "invalid value" RuntimeWarning before the typed error
    run = RunConfig(quad=QuadratureSpec(rel_tol=1e-4), x_star_override=x_star, y_star_override=y_star)
    with pytest.raises(QuadratureError, match="not finite"):
        _quietly(totals, run.medium, run.cutoffs(), run.quad, run.kernel_mode, 0)
