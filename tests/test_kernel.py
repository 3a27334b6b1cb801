import itertools
import math
import random
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import spherical_jn

from bubblespec import kernel, oracles, special_functions
from bubblespec.kernel import (
    _OVERLAP_ROWS,
    CutoffProfile,
    d_approx,
    d_exact,
    f_exact,
    f_exact_array,
    f_factorized,
)
from bubblespec.matching import MediumConfig, coefficient_a_sq
from bubblespec.oracles import hankel_finite_integral
from bubblespec.special_functions import (
    _MAX_ARGUMENT,
    BesselDomainError,
    ModeOrder,
    half_integer_j_array,
)

HALF_ASYMPTOTE = 1.0 / (2.0 * math.pi**2)

# Frozen from independent 50-digit term-by-term summation (l <= 15).
F_3_32_FROZEN = 0.038161505677472201585
D_6_FROZEN = 0.047209729573
D_2_FROZEN = 0.012342053


def _per_order_terms(x, y):
    """Terms (2l+1) r_l^2 of F(x, y) for l = 1..int(e*max(x, y)/2) + 16, each order from its J pair at x and at y.

    J_l = J_{l+1/2} comes from half_integer_j_array lists, r_l from Lommel's quotient
    (y J_{l-1}(y) J_l(x) - x J_{l-1}(x) J_l(y))/(x^2 - y^2) off the diagonal and from its limit
    [x (J_l^2 + J_{l-1}^2) - (2l+1) J_l J_{l-1}]/(2x) on it: neither of f_exact_array's two routes.  Past
    e*max(x, y)/2 + 16 the terms are far below rounding.  Both forms cancel where the arguments are small or close
    (relative errors of about 2^-52 max(1, x^2)/|x^2 - y^2| and 2^-52/x^2), so the tests take it as a reference
    where |x - y| >= 1e-2 and |x^2 - y^2| >= 1e-2, or x = y >= 0.1.
    """
    top = int(math.e * max(x, y) / 2.0) + 16
    jx, jy = half_integer_j_array(top, x), half_integer_j_array(top, y)
    terms = []
    for l in range(1, top + 1):
        if x == y:
            r = (x * (jx[l] ** 2 + jx[l - 1] ** 2) - (2 * l + 1) * jx[l] * jx[l - 1]) / (2.0 * x)
        else:
            r = (jx[l] * y * jy[l - 1] - jy[l] * x * jx[l - 1]) / (x * x - y * y)
        terms.append((2 * l + 1) * r * r)
    return terms


def _per_order_f_exact(x, y):
    """F(x, y) as the correctly rounded sum of its per-order terms (``_per_order_terms``)."""
    return math.fsum(_per_order_terms(x, y))


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
    assert v.value == pytest.approx(F_3_32_FROZEN, rel=1e-13)


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


def test_f_exact_matches_per_order_summation():
    # against the orders summed one by one to e*max(x, y)/2 + 16 (measured 1.7e-14 at worst); the terms
    # past l_used, the overlap series' last order, are below the value's rounding
    rng = random.Random(29)
    points = [(rng.uniform(0.3, 140.0), rng.uniform(0.3, 140.0)) for _ in range(30)]
    # the longest tables too, up to 548 orders
    points += [(392.0, 300.0), (260.0, 3.0), (330.0, 329.5), (392.0, 392.0)]
    for x, y in points:
        if abs(x - y) < 1e-2 and x != y:
            continue
        got = f_exact(x, y)
        terms = _per_order_terms(x, y)
        assert got.value == pytest.approx(math.fsum(terms), rel=1e-12)
        assert got.l_used == int(math.e * min(x, y) / 2.0) + _OVERLAP_ROWS - 1
        assert math.fsum(terms[got.l_used :]) < 2.0**-53 * got.value, (x, y)


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
    # close enough to the diagonal for x^2 - y^2 to cancel in a direct quotient
    assert f_exact(x, y).value == pytest.approx(_spherical_jn_f(x, y), rel=1e-8)


def _mpmath_f(x, y, l_used):
    """sum_{l=1}^{l_used} (2l+1) W~^2/(x^2 - y^2)^2 from 40-digit Bessel values (Lommel's quotient, x != y)."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(x), mpmath.mpf(y)
        j = {z: [mpmath.besselj(l + mpmath.mpf(1) / 2, z) for l in range(l_used + 1)] for z in (a, b)}
        w = [b * j[b][l - 1] * j[a][l] - a * j[a][l - 1] * j[b][l] for l in range(1, l_used + 1)]
        return float(mpmath.fsum((2 * l + 1) * (v / (a * a - b * b)) ** 2 for l, v in enumerate(w, 1)))


def test_f_exact_next_to_the_diagonal_at_small_arguments_against_mpmath():
    # x log-uniform in [1e-3, 2], |y/x - 1| log-uniform in [1e-12, 1e-2], against the orders through
    # e*max(x, y)/2 + 8 summed at 40 digits (the rest are below 1e-30 of F): the overlap series and the
    # closed form lose nothing next to the diagonal
    rng = random.Random(83)
    for _ in range(120):
        x = 10.0 ** rng.uniform(-3.0, math.log10(2.0))
        y = x * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -2.0))
        want = _mpmath_f(x, y, int(math.e * max(x, y) / 2.0) + 8)
        assert f_exact(x, y).value == pytest.approx(want, rel=1e-12, abs=0.0), (x, y)


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
    # the running sums over l never decrease and reach D(6)
    sums = list(itertools.accumulate(_per_order_terms(6.0, 6.0)))
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert sums[-1] == pytest.approx(d_exact(6.0), rel=1e-8)


def test_d_approx():
    assert d_approx(0.0) == 0.0
    assert d_approx(1e6) == pytest.approx(HALF_ASYMPTOTE, rel=1e-10)
    # half-asymptote point x^6 = 250
    assert d_approx(250.0 ** (1.0 / 6.0)) == pytest.approx(0.5 * HALF_ASYMPTOTE, rel=1e-12)
    arr = d_approx(np.array([0.0, 2.0, 6.0]))
    assert arr.shape == (3,)
    # past x ~ 2.4e51 x^6 overflows: the asymptote, as in f_factorized, not NaN with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d_approx(1e60) == HALF_ASYMPTOTE
        assert d_approx(np.array([1e52, 2.0])).tolist() == [HALF_ASYMPTOTE, d_approx(2.0)]
    # an array call is the per-point calls, bit for bit
    xs = np.linspace(1e-200, 400.0, 1000)
    assert d_approx(xs).tolist() == [d_approx(x) for x in xs.tolist()]


def test_factorized_diagonal_consistency():
    # 16000 = 2^6 * 250 makes the x = y slice reduce to d_approx, to rounding: pow(2x, 6) != 64 pow(x, 6) in the
    # last bit at x = 7.7
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
    # Every case gets past l_used, beyond which the terms are below F's rounding.
    got = f_exact(x, y)
    assert math.isfinite(got.value)
    cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
    weighted = 0.0
    reached = 0
    for l, term in enumerate(_per_order_terms(x, y), 1):
        try:
            a_in = coefficient_a_sq(ModeOrder(l), y, cfg.n_liquid / n_in)
            a_out = coefficient_a_sq(ModeOrder(l), x, cfg.n_liquid / n_out)
        except BesselDomainError:
            break
        weighted += term * a_in * a_out
        reached = l
    assert math.isfinite(weighted)
    assert reached > got.l_used == 23


@pytest.mark.parametrize("x, y", [(1e-200, 2e-200), (1e-100, 1.0), (1e-100, 30.0), (1e-200, 1e-200), (1e-60, 1e-60)])
def test_f_exact_tiny_arguments_give_values(x, y):
    # Tiny arguments, where F or x*y leaves the normal doubles, give values from the overlap series: within
    # 1e-12 of 40-digit arithmetic, an honest 0.0 where F underflows (not NaN where x*y does).
    got = f_exact(x, y)
    assert type(got.value) is float and got.value == float(f_exact_array(x, y))
    ref = _mpmath_overlap_f(x, y)
    assert abs(got.value - ref) <= 1e-12 * ref + 5e-324


def test_f_exact_is_f_exact_array_at_one_point():
    # bit for bit, over every branch, its edges, the diagonal and next to it, and tiny arguments; l_used is
    # an int >= 1 everywhere, and only a point outside the domain raises
    rng = random.Random(89)
    points = _branch_draws(89, 300) + [(1e-60, 1e-60), (1e-100, 1.0), (1e-200, 2e-200), (1e-300, 1e-300)]
    points += [tuple(10.0 ** rng.uniform(-300.0, 5.0) for _ in range(2)) for _ in range(100)]
    x, y = np.array(points).T
    want = f_exact_array(x, y).tolist()
    for (a, b), v in zip(points, want):
        got = f_exact(a, b)
        assert type(got.value) is float and got.value == v, (a, b)
        assert type(got.l_used) is int and got.l_used >= 1
    for bad in (5e-310, math.nan, math.inf, -math.inf, -1.0, 0.0, math.nextafter(_MAX_ARGUMENT, math.inf)):
        for a, b in ((bad, 2.0), (2.0, bad), (bad, bad)):
            with pytest.raises(BesselDomainError):
                f_exact(a, b)


def test_the_benchmark_harness_finds_what_it_reads_from_the_kernel():
    # perfbench/ (run.py's exact sweep, tracer.py's l-term counts, test_perfbench.py) reads these from
    # bubblespec.kernel; a deletion here would otherwise fail only when the benchmark runs
    got = kernel.f_exact(5.0, 6.0)
    assert type(got.value) is float
    assert type(got.l_used) is int and got.l_used >= 1
    assert issubclass(kernel.KernelConvergenceError, ArithmeticError)
    assert kernel.bessel_jn_half is special_functions.bessel_jn_half


def test_d_exact_follows_its_small_argument_limit():
    # D(x) -> 3 (2 x^3/(45 pi))^2 = 12 x^6/(2025 pi^2), the l = 1 term, in d_exact and f_exact alike; its O(x^2)
    # correction -(2/7) x^2 is below rounding from 1e-8 down to where the limit stops being a normal double
    # (x ~ 1.83e-51), and the overlap series has no cancellation to lose there
    xs = np.logspace(math.log10(1.83e-51), -8.0, 200).tolist()
    assert 12.0 * xs[0] ** 6 / (2025.0 * math.pi**2) >= sys.float_info.min
    assert 12.0 * (0.99 * xs[0]) ** 6 / (2025.0 * math.pi**2) < sys.float_info.min
    for x in xs:
        limit = 12.0 * x**6 / (2025.0 * math.pi**2)
        assert d_exact(x) == f_exact(x, x).value == pytest.approx(limit, rel=1e-13, abs=0.0), x
    assert d_exact(1e-3) == pytest.approx(6.0042165744256175e-22, rel=1e-13)  # 100-digit sum
    assert d_exact(1e-3) / (12.0 * 1e-18 / (2025.0 * math.pi**2)) - 1.0 == pytest.approx(-2e-6 / 7, rel=1e-4)


def test_d_exact_below_the_double_range_is_its_small_x_limit_or_zero():
    # Below about 3e-50 D(x) is near or below the subnormal range; d_exact and f_exact (the overlap series)
    # return the small-x limit 12 x^6/(2025 pi^2) there, rounded to the subnormal grid, down to an honest
    # 0.0 where it underflows.
    zeros = 0
    for x in np.logspace(-300.0, -50.0, 251).tolist():
        limit = float(12 * mpmath.mpf(x) ** 6 / (2025 * mpmath.pi**2))
        got = d_exact(x)
        assert f_exact(x, x).value == got
        assert abs(got - limit) <= 1e-13 * limit + 5e-324, x
        zeros += got == 0.0
    assert 0 < zeros < 251


def _array_sweep(seed, n):
    """Seeded points over [0.5, 392]^2: uniform, within 1e-4 min(x, 1) of the diagonal, just past that, on it."""
    rng = random.Random(seed)
    points = [(200.0, 200.0), (300.0, 300.0), (392.0, 392.0)]
    while len(points) < n:
        x = rng.uniform(0.5, 392.0)
        kind = len(points) % 4
        if kind == 0:
            y = rng.uniform(0.5, 392.0)
        elif kind == 1:
            y = x + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 0.99e-4) * min(x, 1.0)
        elif kind == 2:
            y = x + rng.choice((-1.0, 1.0)) * 1.01e-4 * min(x, 1.0)
        else:
            y = x
        points.append((x, y))
    return np.array(points).T


def test_f_exact_array_is_f_exact_within_its_tail_budget():
    # f_exact is f_exact_array at one point, bit for bit, on, next to and far from the diagonal; where the
    # per-order reference keeps its digits (on the diagonal and far from it) both are within 1e-10 of it
    x, y = _array_sweep(11, 600)
    got = f_exact_array(x, y)
    assert [f_exact(a, b).value for a, b in zip(x.tolist(), y.tolist())] == got.tolist()
    far = (x == y) | (np.minimum(np.abs(x - y), np.abs(x * x - y * y)) >= 1e-2)
    assert np.count_nonzero(far) > 250
    want = np.array([_per_order_f_exact(a, b) for a, b in zip(x[far].tolist(), y[far].tolist())])
    assert np.all(np.abs(got[far] - want) <= 1e-10 * want)


def _reference_draws(seed, n):
    """Seeded points over each branch of f_exact_array, its edges and the diagonal, where the per-order reference
    keeps its digits (``_per_order_terms``), max(x, y) <= 2000 but at the edges.
    """
    rng = random.Random(seed)

    def log_uniform(a, b):
        return 10.0 ** rng.uniform(math.log10(a), math.log10(b))

    draws = (
        lambda: (lo := log_uniform(1.0, 390.0), lo * log_uniform(1.0, 256.0)),  # closed form
        lambda: (log_uniform(1e-3, 1.0), rng.uniform(1e-3, 4.0)),  # overlap series, one backward table
        lambda: (log_uniform(1e-3, 1.0), log_uniform(4.0, 2000.0)),  # overlap series, small min
        lambda: (lo := log_uniform(1.0, 7.0), lo * log_uniform(256.0, 2000.0 / lo)),  # overlap series, far apart
        lambda: (x := log_uniform(1.0, 390.0), x + rng.choice((-1.0, 1.0)) * log_uniform(1e-2, 1.0)),  # near x = y
        lambda: (x := log_uniform(0.1, 2000.0), x),  # on it
    )
    below, above = math.nextafter(1.0, 0.0), math.nextafter(256.0, 300.0)
    points = [(1.0, 1.0), (1.0, 4.0), (1.0, 256.0), (1.0, above), (below, below), (below, 4.0), (0.5, 4.0), (4.0, 4.0)]
    points += [(0.5, math.nextafter(4.0, 5.0)), (390.625, 1e5), (1.0, 1e5), (1e5, 1e5)]
    while len(points) < n:
        x, y = draws[len(points) % len(draws)]()
        if x == y or min(abs(x - y), abs(x * x - y * y)) >= 1e-2:
            points.append((x, y) if rng.random() < 0.5 else (y, x))
    return points


def test_f_exact_array_against_the_per_order_sum():
    # every branch and its edges (min = 1, max = 4, max = 256 min), far from the diagonal and on it: within
    # 1e-10 of the orders summed one by one (measured 1.5e-12 at worst, at |x - y| = 0.011, where the reference's
    # quotient cancels)
    x, y = np.array(_reference_draws(43, 240)).T
    got = f_exact_array(x, y)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    closed = (lo >= 1.0) & (hi <= 256.0 * lo)
    shared = ~closed & (hi <= 4.0)
    assert min(np.count_nonzero(closed), np.count_nonzero(shared), np.count_nonzero(~closed & ~shared)) > 40
    for a, b, v in zip(x.tolist(), y.tolist(), got.tolist()):
        assert v == pytest.approx(_per_order_f_exact(a, b), rel=1e-10, abs=0.0), (a, b)


def _mpmath_closed_form(x, y, dps=160):
    """[G(x - y) - G(x + y)]/(24 pi^2) - r_0^2 at dps digits: next to the diagonal G's 1/k^4 terms reach 1e60."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(x), mpmath.mpf(y)

        def g(k):
            if k == 0:
                return mpmath.mpf(12)
            return 12 / k**2 - 12 * mpmath.sin(2 * k) / k**3 + 12 * mpmath.sin(k) ** 2 / k**4

        def sinc(k):
            return mpmath.mpf(1) if k == 0 else mpmath.sin(k) / k

        r0 = (sinc(a - b) - sinc(a + b)) / (mpmath.pi * mpmath.sqrt(a * b))
        return float((g(a - b) - g(a + b)) / (24 * mpmath.pi**2) - r0 * r0)


@pytest.mark.parametrize("x, y", [(0.3, 2.1), (0.9, 7.0), (5.0, 6.0), (20.0, 3.0), (40.0, 41.5), (1.5, 120.0)])
def test_closed_form_reference_is_the_per_order_sum(x, y):
    # the identity F = [G(x - y) - G(x + y)]/(24 pi^2) - r_0^2 against the definition, orders summed at 40
    # digits to e*max(x, y)/2 + 30, far from the diagonal where Lommel's quotient keeps its digits
    assert _mpmath_closed_form(x, y) == pytest.approx(_mpmath_f(x, y, int(math.e * max(x, y) / 2.0) + 30), rel=1e-14)


def _branch_draws(seed, n):
    """Seeded points over each branch of f_exact_array, its edges, the diagonal and next to it, in random order."""
    rng = random.Random(seed)

    def log_uniform(a, b):
        return 10.0 ** rng.uniform(math.log10(a), math.log10(b))

    draws = (
        lambda: (lo := log_uniform(1.0, 390.0), min(1e5, lo * log_uniform(1.0, 256.0))),  # closed form
        lambda: (lo := log_uniform(1e-3, 1.0), rng.uniform(lo, 4.0)),  # overlap series, one backward table
        lambda: (log_uniform(1e-3, 1.0), log_uniform(4.0, 1e5)),  # overlap series, small min
        lambda: (lo := log_uniform(1.0, 390.0), lo * log_uniform(256.0, 1e5 / lo)),  # overlap series, far apart
        lambda: (x := log_uniform(1e-3, 1e5), x * (1.0 + log_uniform(1e-12, 1e-1))),  # next to the diagonal
        lambda: (x := log_uniform(1e-3, 1e5), x),  # on it
    )
    below, above = math.nextafter(1.0, 0.0), math.nextafter(256.0, 300.0)
    edges = [(1.0, 1.0), (1.0, 4.0), (1.0, 256.0), (1.0, above), (below, below), (below, 4.0), (0.5, 4.0), (4.0, 4.0)]
    edges += [(0.5, math.nextafter(4.0, 5.0)), (390.625, 1e5), (math.nextafter(390.625, 0.0), 1e5), (1e5, 1e5)]
    points = edges + [draws[i % len(draws)]() for i in range(n)]
    return [p if rng.random() < 0.5 else p[::-1] for p in points]


def test_f_exact_array_against_the_closed_form_at_160_digits():
    # every branch, its edges (min = 1, max = 4, max = 256 min), the diagonal, |x - y|/x in [1e-12, 1e-1]
    # and mixed scales up to 1e5, within 1e-12 of a 160-digit evaluation (measured: 1.5e-13 by the closed form,
    # 2e-15 by the overlap series over one backward table, 8.6e-15 by the overlap series elsewhere)
    x, y = np.array(_branch_draws(41, 600)).T
    got = f_exact_array(x, y)
    assert f_exact_array(y, x).tolist() == got.tolist()
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    closed = (lo >= 1.0) & (hi <= 256.0 * lo)
    shared = ~closed & (hi <= 4.0)
    assert min(np.count_nonzero(closed), np.count_nonzero(shared), np.count_nonzero(~closed & ~shared)) > 150
    for a, b, v in zip(x.tolist(), y.tolist(), got.tolist()):
        assert v == pytest.approx(_mpmath_closed_form(a, b), rel=1e-12, abs=0.0), (a, b)


def test_f_exact_array_values_do_not_depend_on_the_batch(monkeypatch):
    # the sweep, then every route mixed in one slice: the closed form, the overlap series over one backward
    # table (max(x, y) <= 4) and with the upward recurrence, their edges and tiny arguments
    for x, y in (_array_sweep(12, 200), np.array(_branch_draws(12, 300) + [(1e-200, 2e-200), (1e-100, 1.0)]).T):
        whole = f_exact_array(x, y)
        # one point per sub-batch, then a few points per sub-batch of mixed table sizes
        for points in (1, 8):
            monkeypatch.setattr(kernel, "_POINTS_PER_SLICE", points)
            assert f_exact_array(x, y).tolist() == whole.tolist()
        monkeypatch.undo()
        perm = np.random.default_rng(12).permutation(x.size)
        assert f_exact_array(x[perm], y[perm]).tolist() == whole[perm].tolist()
    x, y = _array_sweep(12, 200)
    whole = f_exact_array(x, y)
    assert f_exact_array(x[7], y[7]).tolist() == whole[7]
    # broadcasting keeps the shape
    grid = f_exact_array(x[:3, None], y[None, :4])
    assert grid.shape == (3, 4)
    assert grid[2, 1] == f_exact_array(float(x[2]), float(y[1]))


def test_f_exact_array_calls_f_exact_for_no_in_domain_point(monkeypatch):
    # on, next to and far from the diagonal, every point runs in a branch; a point outside the
    # domain raises f_exact's domain error without a call to f_exact either
    x, y = _array_sweep(13, 200)
    assert np.any(x == y) and np.any((x != y) & (np.abs(x - y) < 1e-4 * np.minimum(np.minimum(x, y), 1.0)))
    calls = []

    def recording(a, b):
        calls.append((a, b))
        return f_exact(a, b)

    monkeypatch.setattr(kernel, "f_exact", recording)
    f_exact_array(x, y)
    with pytest.raises(BesselDomainError, match="got x=0.0, y=1.0"):
        f_exact_array(np.append(x, 0.0), np.append(y, 1.0))
    assert calls == []


def _mpmath_overlap_f(x, y, orders=3, rows=3):
    """F(x, y) through l = orders from the overlap series over 40-digit Bessel values, each order from its first rows.

    Lommel's quotient cancels to relative O(x^2) at tiny arguments; the series has nothing to cancel.  For
    min(x, y) * max(x, y) < 1e-40 (F < 1e-300) the default orders and rows leave out less than 1e-80 of the sum.
    """
    with mpmath.workdps(40):
        a, b = mpmath.mpf(x), mpmath.mpf(y)
        r = [
            2 / (a * b) * mpmath.fsum(
                (l + 2 * n + mpmath.mpf(3) / 2) * mpmath.besselj(l + 2 * n + mpmath.mpf(3) / 2, a)
                * mpmath.besselj(l + 2 * n + mpmath.mpf(3) / 2, b)
                for n in range(rows)
            )
            for l in range(1, orders + 1)
        ]
        return float(mpmath.fsum((2 * l + 1) * v * v for l, v in enumerate(r, 1)))


def test_f_exact_array_matches_f_exact_at_tiny_and_mixed_scale_points():
    # points log-uniform in [1e-300, 400]^2: f_exact_array is f_exact, bit for bit, and where x*y < 1e-40 (most
    # points) it is the overlap series within 1e-12 of 40-digit arithmetic, an honest 0.0 where F
    # underflows; elsewhere within 1e-10 of the per-order sum, or of more orders and rows at 40 digits where
    # both arguments are small and the sum's quotient cancels
    rng = random.Random(71)
    points = [tuple(10.0 ** rng.uniform(-300.0, math.log10(400.0)) for _ in range(2)) for _ in range(400)]
    got = f_exact_array(*np.array(points).T)
    tiny = zeros = 0
    for (x, y), v in zip(points, got.tolist()):
        assert v == f_exact(x, y).value, (x, y)
        if x * y >= 1e-40:
            big = max(x, y) >= 1.0
            ref = _per_order_f_exact(x, y) if big else _mpmath_overlap_f(x, y, orders=8, rows=8)
            assert v == pytest.approx(ref, rel=1e-10 if big else 1e-12, abs=0.0), (x, y)
            continue
        ref = _mpmath_overlap_f(x, y)
        assert abs(v - ref) <= 1e-12 * ref + 5e-324, (x, y, v, ref)
        tiny += 1
        zeros += v == 0.0
    assert tiny > 300 and 0 < zeros < tiny


def test_j_tables_serve_f_exact_the_overlap_oracle_and_the_overlap_branch_only(monkeypatch):
    # The overlap oracle and f_exact_array's overlap route take their J rows from
    # special_functions._half_integer_j_table and _half_integer_j_upward, and kernel binds no other J list
    # routine; f_exact_array, and with it f_exact, builds J tables only for points of its overlap route
    # (min(x, y) < 1, or max(x, y) > 256 min(x, y)), none for the closed form.  The upward recurrence serves
    # max(x, y) > 4 only: up to 4 J at both arguments comes from one backward table.
    assert not hasattr(kernel, "half_integer_j_array")

    class Reached(Exception):
        pass

    def table(*args):
        raise Reached

    for module in (special_functions, kernel, oracles):
        if hasattr(module, "_half_integer_j_upward"):
            monkeypatch.setattr(module, "_half_integer_j_upward", table)
    assert np.all(f_exact_array(np.array([0.5, 1e-3, 0.999, 1e-200]), np.array([4.0, 1e-3, 2.0, 2e-200])) >= 0.0)
    assert hankel_finite_integral(ModeOrder(2), 1.5, 0.5, 2.0) != 0.0
    for call in (lambda: f_exact(0.5, math.nextafter(4.0, 5.0)), lambda: f_exact(2.0, 600.0)):
        with pytest.raises(Reached):
            call()
    for module in (special_functions, kernel, oracles):
        if hasattr(module, "_half_integer_j_table"):
            monkeypatch.setattr(module, "_half_integer_j_table", table)
    for call in (
        lambda: f_exact(0.5, 33.0),
        lambda: f_exact(2.0, 600.0),
        lambda: f_exact(0.5, 4.0),
        lambda: f_exact(1e-3, 1e-3),
        lambda: f_exact_array(np.array([5.0, 0.5, 140.0]), np.array([6.0, 33.0, 154.0])),
        lambda: f_exact_array(2.0, 600.0),
        lambda: hankel_finite_integral(ModeOrder(2), 1.5, 0.5, 2.0),
    ):
        with pytest.raises(Reached):
            call()
    # the closed form, up to its edges
    assert np.all(f_exact_array(np.array([5.0, 1.0, 3.0, 392.0, 1.0]), np.array([6.0, 256.0, 3.0, 391.0, 4.0])) > 0.0)
    assert min(f_exact(5.0, 6.0).value, f_exact(3.0, 3.0).value, f_exact(1.0, 1.0).value) > 0.0


def test_kernel_arguments_above_the_limit_raise_the_domain_error():
    # past the limit no table is sized: no int64 overflow, no minutes-long table
    big = math.nextafter(_MAX_ARGUMENT, math.inf)
    for x, y in ((big, 1.0), (1.0, 1e19), (1e300, 1.0), (1e300, 1e300)):
        with pytest.raises(BesselDomainError, match="in \\(0, 100000\\]"):
            f_exact(x, y)
        with pytest.raises(BesselDomainError, match="in \\(0, 100000\\]"):
            f_exact_array(np.array([2.0, x]), np.array([3.0, y]))
    # the limit itself is in the domain, batched too (the overlap branch: max(x, y) > 256 min(x, y))
    want = _per_order_f_exact(_MAX_ARGUMENT, 1.0)
    got = f_exact_array(np.array([2.0, _MAX_ARGUMENT]), np.array([3.0, 1.0]))[1]
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def _scalar_error(x, y):
    """The error f_exact raises at (x, y), or None."""
    try:
        f_exact(x, y)
    except BesselDomainError as exc:
        return exc
    return None


@pytest.mark.parametrize(
    "points",
    [
        [(5.0, 6.0), (math.nan, 2.0), (1e-200, 1e-200)],
        [(5.0, 6.0), (1e-200, 1e-200), (2.0, math.inf)],
        [(3.0, 5e-310), (1.0, -math.inf)],
        [(392.0, 392.0), (1e-100, 1.0), (1e-200, 2e-200), (5e-310, 5e-310)],
        [(1e-200, 2e-200), (1e-100, 1.0), (_MAX_ARGUMENT, math.nextafter(_MAX_ARGUMENT, math.inf))],
    ],
)
def test_f_exact_array_raises_the_scalar_error_of_the_first_failing_point(points):
    # the first point outside the domain raises f_exact's BesselDomainError; tiny points before it have values
    x, y = np.array(points).T
    want = next(e for e in map(_scalar_error, *zip(*points)) if e is not None)
    with pytest.raises(BesselDomainError) as exc:
        f_exact_array(x, y)
    assert str(exc.value) == str(want)
    first = next(i for i, p in enumerate(points) if _scalar_error(*p) is not None)
    assert np.all(f_exact_array(x[:first], y[:first]) >= 0.0)


def test_f_exact_array_raises_no_numeric_warning():
    # tiny, underflowing and mixed-scale points drive the tables to 0, inf and NaN
    points = [(1e-200, 2e-200), (1e-100, 1.0), (1e-200, 1e-200), (1e-150, 392.0), (1e-3, 1e-3), (1e-300, 300.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in points:
            assert f_exact(x, y).value == f_exact_array(x, y) >= 0.0
        assert f_exact_array(1e-3, 1e-3) == d_exact(1e-3)


def test_f_factorized_reaches_its_limit_where_the_sixth_power_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f_factorized(1e60, 1e60) == HALF_ASYMPTOTE
        y = 1e200 * (1.0 + 1e-15)
        u = 0.75 * (1e200 - y)
        assert f_factorized(1e200, y) == pytest.approx(HALF_ASYMPTOTE * (math.sin(u) / u) ** 2, abs=1e-300)
        got = f_factorized(np.array([1e60, 3.0]), np.array([1e60, 3.0]))
    assert got.tolist() == [HALF_ASYMPTOTE, f_factorized(3.0, 3.0)]
    # unchanged bits wherever s**6 is finite, up to the overflow edge
    for x, y in ((0.5, 0.7), (3.0, 9.0), (1e10, 1e10), (1.1e51, 1.1e51), (2e20, 1e20)):
        s6 = np.float64(x + y) ** 6
        u = 0.75 * (x - y)
        sinc = np.sinc(u / np.pi)
        assert f_factorized(x, y) == HALF_ASYMPTOTE * s6 / (16000.0 + s6) * sinc * sinc


def test_f_factorized_and_its_envelope_leak_no_warning_past_the_double_range():
    # x + y past the double range is inf, whose hump is the limit 1/(2 pi^2); so was f_factorized's value, with
    # a RuntimeWarning from the sum; an envelope whose u^2 overflows is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f_factorized(8.99e307, 8.99e307) == HALF_ASYMPTOTE
        assert kernel._factorized_envelope(8.99e307, 8.99e307 * 0.5) == 0.0
        assert kernel._factorized_envelope(1.7e308, 0.0) == 0.0
        got = kernel._factorized_envelope(np.array([1e60, 8.99e307]), np.array([1e30, 1e300]))
    assert got[0] == pytest.approx(HALF_ASYMPTOTE / (0.75 * (1e60 - 1e30)) ** 2, rel=1e-15) and got[1] == 0.0


def test_factorized_envelope_times_sin2_is_f_factorized():
    # the envelope is f_factorized without its sinc^2 numerator, on the far lobes the product panels take
    rng = np.random.default_rng(41)
    x = rng.uniform(0.0, 400.0, 500)
    y = x + rng.choice([-1.0, 1.0], 500) * rng.uniform(8.4, 400.0, 500)
    envelope = kernel._factorized_envelope(x, y)
    # to the rounding of the phase 3(x - y)/4, on the scale of the envelope: sin^2 <= 1
    assert np.all(np.abs(envelope * np.sin(0.75 * (x - y)) ** 2 - f_factorized(x, y)) <= 1e-13 * envelope)


def _factorized_by_np_sinc(x, y):
    """f_factorized's formula with np.sinc and out-of-place numpy steps: the reference of its in-place steps."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = x + y
    with np.errstate(over="ignore", invalid="ignore"):
        s6 = s**6
        hump = HALF_ASYMPTOTE * s6 / (16000.0 + s6)
    if np.max(s, initial=0.0) > 1e51:
        hump = np.where(np.isinf(s6), HALF_ASYMPTOTE, hump)
    sinc = np.sinc(0.75 * (x - y) / np.pi)
    out = hump * sinc * sinc
    return out if out.ndim else float(out)


def test_f_factorized_equals_the_np_sinc_formula_bit_for_bit():
    rng = np.random.default_rng(20261019)
    x = 10.0 ** rng.uniform(-3.0, 3.0, 4000)
    y = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 2000), x[2000:3000], x[3000:] + rng.normal(0.0, 1.0, 1000)])
    # s = x + y on both sides of 1e51, the overflow edge of s**6 (about 2.4e51) and past it
    big = 10.0 ** rng.uniform(50.0, 52.0, 200)
    for xs, ys in ((x, y), (big, big * (1.0 + 1e-15)), (np.append(big, 3.0), np.append(0.5 * big, 3.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = f_factorized(xs, ys), _factorized_by_np_sinc(xs, ys)
        assert got.shape == xs.shape and got.tobytes() == want.tobytes()
    assert (2.0 * big).min() < 1e51 and (2.0 * big).max() > 2.5e51
    # Python-float and 0-d inputs give Python floats, x == y included
    for a, b in ((2.0, 2.0), (0.5, 7.25), (1e60, 1e60), (1e50, 3e50), (3.0, 3.0 + 4.0 * math.pi / 3.0)):
        for args in ((a, b), (np.float64(a), b), (np.array(a), np.array(b))):
            got = f_factorized(*args)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(_factorized_by_np_sinc(a, b)).tobytes()
    # a scalar against an array broadcasts, as in the second-moment integral of tests/test_quadrature.py
    ys = np.linspace(0.0, 160.0, 1001)
    assert f_factorized(80.0, ys).tobytes() == _factorized_by_np_sinc(80.0, ys).tobytes()
