"""Domain sweeps: each entry point returns a finite value or raises its typed error, never NaN or a warning.

Derandomized hypothesis properties, so that every run draws the same examples.  Warnings are errors here as
in the whole suite (pyproject.toml), and each property also turns every warning into an error itself.
"""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from bubblespec import kernel
from bubblespec.cli import RunConfig
from bubblespec.kernel import f_factorized
from bubblespec.oracles import hankel_finite_integral
from bubblespec.quadrature import QuadratureError
from bubblespec.special_functions import BesselDomainError, ModeOrder
from bubblespec.spectrum import QuadratureSpec, totals

SWEEP = settings(derandomize=True, max_examples=150, deadline=None, database=None)
WIDTH = 4.0 * math.pi / 3.0
# Non-negative doubles up to the largest, subnormals and the ends included.
MOMENTA = st.floats(min_value=0.0, max_value=1.7976931348623157e308, allow_nan=False, allow_infinity=False)
# Decimal exponents: of a radius, from the subnormals to the top of the double range, and of a Bessel argument
# k R, from where the overlap's leading J product underflows (a domain error) to past the domain's 1e5.
RADII = st.floats(min_value=-315.0, max_value=308.0)
ARGUMENTS = st.floats(min_value=-160.0, max_value=5.5)


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
