import dataclasses
import math
import random

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

import bubblespec
from bubblespec import kernel, matching, oracles, special_functions
from bubblespec.cli import _run_checks
from bubblespec.kernel import f_exact
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
    # k2 = k (1 + delta) on both sides of |k1 - k2| R = 1e-4 min(k1 R, k2 R, 1), the edge
    # of the diagonal band the ratio once took a midpoint limit in; the overlap series
    # has no band, so every order through l = 10 holds 1e-8 down to kR = 0.05.
    R = 5.0
    for kr in (0.05, 0.1, 0.2, 0.5, 0.8, 1.0, 1.8, 3.0, 7.0, 15.0, 30.0):
        k1 = kr / R
        k2 = k1 * (1.0 + delta(1e-4 * min(kr, 1.0) / kr))
        for l in range(11):
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
    "k1, k2, R",
    [(1.0, 0.0, 5.0), (math.nan, 2.0, 5.0), (1.0, 2.0, -5.0), (-1.0, -2.0, -5.0)]
    + [
        pytest.param(10**400, 1.0, 1.0, id="k1-past-the-double-range"),
        pytest.param(1.0, 1.0, 10**400, id="R-past-the-double-range"),
        pytest.param(1.0, 2.0, True, id="R-bool"),
    ],
)
def test_every_sign_error_raises_the_domain_error(k1, k2, R):
    # a negative radius would turn two negative wavenumbers into positive arguments; the raw numbers are checked
    # before any arithmetic, so an int past the double range is no OverflowError
    with pytest.raises(BesselDomainError):
        hankel_finite_integral(ModeOrder(1), k1, k2, R)


def test_a_radius_whose_square_overflows_raises_the_domain_error():
    # k1 R = k2 R = 1 is in the Bessel domain, but R^2 = inf made the closed form a quiet inf
    for k, R in ((1e-300, 1e300), (1e-310, 2.4e210), (1e-150, 1.4e154)):
        with pytest.raises(BesselDomainError, match="R\\^2 overflows"):
            hankel_finite_integral(ModeOrder(0), k, k, R)
    # just below the edge R^2 is finite, and so is the overlap
    assert math.isfinite(hankel_finite_integral(ModeOrder(0), 1e-150, 1e-150, 1.3e154))


def _mpmath_overlap(l, k1, k2, R, rows=24):
    """R^2 (2/(ab)) sum_{n<rows} (nu+2n+1) J_{nu+2n+1}(a) J_{nu+2n+1}(b), a = k1 R, b = k2 R, at 40 digits."""
    with mpmath.workdps(40):
        a, b, nu = mpmath.mpf(k1) * R, mpmath.mpf(k2) * R, l + mpmath.mpf(1) / 2
        orders = (nu + 2 * n + 1 for n in range(rows))
        terms = (m * mpmath.besselj(m, a) * mpmath.besselj(m, b) for m in orders)
        return float(mpmath.mpf(R) ** 2 * 2 / (a * b) * mpmath.fsum(terms))


def test_tiny_arguments_give_the_overlap_or_the_domain_error():
    # Where a*b or the leading J product underflows the overlap raises BesselDomainError, not a quiet NaN or 0.0;
    # elsewhere it is within 1e-12 of 40-digit arithmetic.  Draws: l in 0..10, k1 and k2 log-uniform in
    # [1e-300, 10] and in [1e-40, 10], R = 1, and the calls that once gave NaN.
    rng = random.Random(31)
    draws = [(0, 1e-200, 1e-200, 1.0), (0, 1e-160, 1e-160, 1.0), (0, 1.0, 1.0, 1e-200), (0, 1e-100, 1.0, 1.0)]
    for low in (-300, -40):
        draws += [(rng.randint(0, 10), 10 ** rng.uniform(low, 1), 10 ** rng.uniform(low, 1), 1.0) for _ in range(75)]
    raised = 0
    for l, k1, k2, R in draws:
        try:
            got = hankel_finite_integral(ModeOrder(l), k1, k2, R)
        except BesselDomainError as exc:
            assert "underflows" in str(exc)
            raised += 1
            continue
        want = _mpmath_overlap(l, k1, k2, R)
        assert abs(got - want) <= 1e-12 * abs(want), (l, k1, k2, R, got, want)
    assert hankel_finite_integral(ModeOrder(0), 1e-100, 1.0, 1.0) > 0.0
    assert 3 <= raised < len(draws) - 10


def test_an_overflow_in_the_overlap_j_table_is_not_silenced(monkeypatch):
    # Only the upward rows past a point's top and 2/(a b) may overflow quietly; an overflow in the backward J table,
    # once the only sign of a NaN table, still raises under the suite's RuntimeWarning filter
    table = kernel._half_integer_j_table
    monkeypatch.setattr(kernel, "_half_integer_j_table", lambda z, l: table(z, l) * 1e308 * 1e308)
    with pytest.raises(RuntimeWarning, match="overflow"):
        hankel_finite_integral(ModeOrder(2), 1.5, 2.5, 1.0)


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
    # record the Gauss-Legendre references of `bubblespec check`'s own seeded draws: one call for all 25 draws at
    # both panel counts
    calls = []
    reference = oracles._gauss_legendre_overlaps

    def recorded(draws, panels, rule):
        calls.append((draws, panels, reference(draws, panels, rule)))
        return calls[-1][-1]

    monkeypatch.setattr(oracles, "_gauss_legendre_overlaps", recorded)
    assert all(r["passed"] for r in _run_checks())
    assert len(calls) == 1
    draws, panels, values = calls[0]
    assert len(draws) == len(panels) == values.size == 50
    assert draws[:25] == draws[25:] and panels[25:] == [2 * n for n in panels[:25]]
    for (l, k1, k2, R), gl in zip(draws, values):
        assert gl == pytest.approx(_quad_reference(l, k1, k2, R), rel=1e-12, abs=0.0)


def test_overlap_reference_is_each_draw_alone(monkeypatch):
    # one _jv call per order over every draw's nodes gives each draw's value bit for bit as a batch of that draw alone
    rng = random.Random(7)
    draws = [
        (rng.randint(0, 10), rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0), rng.uniform(1.0, 20.0)) for _ in range(30)
    ]
    panels = [rng.randint(1, 12) for _ in draws]
    rule = np.polynomial.legendre.leggauss(24)
    orders = []
    jv = oracles._jv
    monkeypatch.setattr(oracles, "_jv", lambda l, z: orders.append(l) or jv(l, z))
    batch = oracles._gauss_legendre_overlaps(draws, panels, rule)
    assert sorted(orders) == sorted({d[0] for d in draws})
    alone = [oracles._gauss_legendre_overlaps([d], [n], rule)[0] for d, n in zip(draws, panels)]
    assert batch.tobytes() == np.array(alone).tobytes()


def test_overlap_suite_fails_when_its_reference_disagrees_with_itself(monkeypatch):
    # off by 1e-9/panels: far inside the closed-form bound, but the doubled-panel rule disagrees
    reference = oracles._gauss_legendre_overlaps
    monkeypatch.setattr(
        oracles,
        "_gauss_legendre_overlaps",
        lambda draws, panels, rule: reference(draws, panels, rule) * (1.0 + 1e-9 / np.array(panels)),
    )
    rep = finite_overlap_checks(random.Random(20260823))
    assert rep.max_rel_error < 1e-8
    assert not rep.passed
    monkeypatch.setattr(oracles, "_gauss_legendre_overlaps", reference)
    assert finite_overlap_checks(random.Random(20260823)).passed


def test_overlap_bessel_reference_against_mpmath():
    # both branches of _jv, the series below z = 8 and the closed form from 8 up, against 40-digit mpmath
    z = np.concatenate([np.logspace(-3, 2, 401), [np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0)]])
    envelope = np.minimum(1.0, np.sqrt(2.0 / (np.pi * z)))
    with mpmath.workdps(40):
        for l in range(11):
            ref = np.array([float(mpmath.besselj(l + 0.5, mpmath.mpf(float(v)))) for v in z])
            err = np.abs(oracles._jv(l, z) - ref)
            assert np.all(err <= 1e-13 * envelope), l
            small = z <= max(l, 1)
            assert np.all(err[small] <= 1e-12 * np.abs(ref[small])), l


@pytest.mark.parametrize("l, z", [(11, 1.0), (-1, 1.0), (3, 0.0), (3, -1.0), (3, 100.5), (3, math.nan)])
def test_overlap_bessel_reference_refuses_its_unverified_domain(l, z):
    with pytest.raises(ValueError):
        oracles._jv(l, np.array([1.0, z]))


def test_overlap_reference_is_independent_of_the_package_bessel_routines(monkeypatch):
    # the reference must not reach the J recurrence it checks: every binding of it raises
    rng = random.Random(5)  # one draw as the suite makes it; its nodes reach both sides of _jv's z = 8 switch
    l, k1, k2, R = rng.randint(0, 10), rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0), rng.uniform(1.0, 20.0)
    draw = ([(l, k1, k2, R)], [math.ceil((k1 + k2) * R / 12.0)], leggauss(24))
    expected = oracles._gauss_legendre_overlaps(*draw)

    def broken(*args, **kwargs):
        raise AssertionError("the overlap reference called the package's J recurrence")

    for module in (bubblespec, special_functions, kernel, matching, oracles):
        for name in ("half_integer_j_array", "_half_integer_j_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, broken)
    with pytest.raises(AssertionError):
        hankel_finite_integral(ModeOrder(l), k1, k2, R)
    assert oracles._gauss_legendre_overlaps(*draw) == expected


def test_wronskian_suite_counts_only_the_draws_it_tests(monkeypatch):
    assert oracles.wronskian_checks(random.Random(20260823)).samples == 2000
    # (79, 0.01): J under bessel_jn_half's underflow floor, N finite; (120, 0.01): N overflowed to -inf.
    for l, z, j_zero, n_inf in ((79, 0.01, True, False), (120, 0.01, True, True)):
        p = special_functions.bessel_jn_half(ModeOrder(l), z)
        assert p.saturated and (p.j == 0.0, math.isinf(p.n)) == (j_zero, n_inf)
    real = oracles._half_integer_columns

    def two_in_three_saturated(l, z):
        l, z = l.copy(), z.copy()
        l[::3], z[::3] = 79, 0.01
        l[1::3], z[1::3] = 120, 0.01
        return real(l, z)

    monkeypatch.setattr(oracles, "_half_integer_columns", two_in_three_saturated)
    rep = oracles.wronskian_checks(random.Random(20260823))
    assert rep.samples == 2000 - 667 - 667
    assert rep.passed


def _counting(monkeypatch, names):
    """Count the calls of each named function through every bubblespec module that binds it."""
    counts = dict.fromkeys(names, 0)
    modules = (bubblespec, special_functions, kernel, matching, oracles)
    for name in names:
        fn = getattr(special_functions, name, None) or getattr(matching, name)

        def counted(*args, _name=name, _fn=fn):
            counts[_name] += 1
            return _fn(*args)

        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_check_reads_its_bessel_values_from_a_fixed_number_of_tables(monkeypatch):
    # A work count, not a timing: the Wronskian suite's 2000 columns make one J-table and one N-table call, the
    # matching suite's 1000 one each, the overlap suite's 50 one J table.  Each suite takes its worst draw again
    # through its per-draw routine, a one-draw pass: one bessel_jn_half call (a J and an N table), one
    # coefficients_bc call (one of each) and one hankel_finite_integral call (a J table).
    names = ("_half_integer_j_table", "_half_integer_n_table", "bessel_jn_half", "coefficients_bc")
    expected = _run_checks()
    counts = _counting(monkeypatch, names)
    for _ in range(2):
        assert _run_checks() == expected
        assert counts == {
            "_half_integer_j_table": 2 + 2 + 2, "_half_integer_n_table": 2 + 2, "bessel_jn_half": 1,
            "coefficients_bc": 1,
        }
        counts.update(dict.fromkeys(names, 0))


def test_suite_array_passes_equal_the_scalar_calls_bit_for_bit(monkeypatch):
    # The suites' own seeded draws, recorded as they are first passed on (the overlap suite's re-check of its worst
    # draw passes one more), plus an order-0 draw and two saturating ones.
    seen = {}
    for name in ("_half_integer_columns", "_amplitudes_at", "_overlap_ratios"):

        def recorded(*args, _name=name, _real=getattr(oracles, name)):
            seen.setdefault(_name, args)
            return _real(*args)

        monkeypatch.setattr(oracles, name, recorded)
    assert all(r["passed"] for r in _run_checks())
    l, z = (np.append(v, extra) for v, extra in zip(seen["_half_integer_columns"], ([0, 79, 120], [0.3, 0.01, 0.01])))
    assert l.size == 2003 and (l == 0).sum() > 1
    columns = special_functions._half_integer_columns(l, z)
    for a in range(l.size):
        p = special_functions.bessel_jn_half(ModeOrder(int(l[a])), float(z[a]))
        j, j_prev, n, n_prev, saturated = (c[a].item() for c in columns)
        expected = (p.j, p.j_prev, p.n, p.n_prev, p.saturated)
        assert (0.0 if abs(j) < 1e-300 else j, j_prev, n, n_prev, saturated) == expected, a
        assert j == special_functions.half_integer_j_array(int(l[a]), float(z[a]))[l[a]]
    draws = seen["_amplitudes_at"]
    assert draws[0].size == 500
    a_sq, b, c = matching._amplitudes_at(*draws)
    for a, (l_a, y, ratio) in enumerate(zip(*(d.tolist() for d in draws))):
        assert (b[a], c[a]) == matching.coefficients_bc(ModeOrder(l_a), y, ratio), a
        assert a_sq[a] == matching.coefficient_a_sq(ModeOrder(l_a), y, ratio), a
    draws = seen["_overlap_ratios"]
    assert draws[0].size == 25
    ratios = oracles._overlap_ratios(*draws)
    for d, (l_d, a, b) in enumerate(zip(*(v.tolist() for v in draws))):
        # At R = 1 the wavenumbers are the arguments and R^2 = 1: hankel_finite_integral is the ratio itself.
        assert ratios[d] == hankel_finite_integral(ModeOrder(l_d), a, b, 1.0), d


@pytest.mark.parametrize(
    "suite, routine, one_ulp_up",
    [
        (oracles.wronskian_checks, "bessel_jn_half", lambda p: dataclasses.replace(p, j=math.nextafter(p.j, math.inf))),
        (oracles.matching_checks, "coefficients_bc", lambda bc: (math.nextafter(bc[0], math.inf), bc[1])),
        (finite_overlap_checks, "hankel_finite_integral", lambda v: math.nextafter(v, math.inf)),
    ],
    ids=["wronskian", "matching", "overlap"],
)
def test_each_suite_fails_when_its_worst_draw_disagrees_with_its_one_draw_routine(
    monkeypatch, suite, routine, one_ulp_up
):
    # One ulp off in the one-draw routine's first value, at the suite's one call of it for its worst draw: the
    # suite's error is unchanged, but its array pass no longer reproduces the public routine it stands for.
    real, calls = getattr(oracles, routine), []

    def one_ulp_off(*args):
        calls.append(args)
        return one_ulp_up(real(*args))

    expected = suite(random.Random(20260823))
    assert expected.passed
    monkeypatch.setattr(oracles, routine, one_ulp_off)
    rep = suite(random.Random(20260823))
    assert len(calls) == 1
    assert (rep.max_rel_error, rep.samples, rep.passed) == (expected.max_rel_error, expected.samples, False)


def test_kernel_concentrates_on_diagonal_with_scale():
    # fixed relative momentum mismatch, growing sphere: the exact kernel
    # piles up on x = y, mirroring momentum conservation at infinite volume
    # F(s x, s(x + delta))/F(s x, s x) at fixed x = 5, delta = 0.4
    ratios = [f_exact(5.0 * s, 5.4 * s).value / f_exact(5.0 * s, 5.0 * s).value for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.15
