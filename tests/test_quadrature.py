import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_legendre

from bubblespec import quadrature
from bubblespec.kernel import f_factorized
from bubblespec.quadrature import QuadratureError, _integrate_rows, adaptive_quad


def test_polynomial_exactness():
    # the K15 rule integrates degree <= 22 exactly and its embedded G7 rule
    # degree <= 13, so the first panel already converges
    r = adaptive_quad(lambda t: 7 * t**6 - t**3 + 2, 0.0, 2.0)
    assert r.scalar == pytest.approx(128.0 - 4.0 + 4.0, rel=1e-14)
    assert r.converged


def test_smooth_oscillatory_against_quadpack():
    f = lambda t: np.cos(t * t) * np.exp(-0.1 * t)
    r = adaptive_quad(f, 0.0, 20.0, rel_tol=1e-10)
    ref, _ = integrate.quad(lambda t: math.cos(t * t) * math.exp(-0.1 * t), 0.0, 20.0, limit=500)
    assert r.scalar == pytest.approx(ref, rel=1e-9)


def test_breakpoint_handles_step():
    f = lambda t: np.where(t <= 1.0, 2.0, 0.5)
    r = adaptive_quad(f, 0.0, 3.0, breakpoints=[1.0])
    assert r.scalar == pytest.approx(2.0 + 1.0, rel=1e-14)
    assert r.subdivisions == 2  # no refinement needed once split at the step


def test_vector_valued():
    g = lambda t: np.vstack([np.exp(-t), t * np.exp(-t)])
    r = adaptive_quad(g, 0.0, 30.0, rel_tol=1e-10)
    assert r.value[0] == pytest.approx(1.0, rel=1e-10)
    assert r.value[1] == pytest.approx(1.0, rel=1e-10)
    assert r.error.shape == (2,)


def test_untested_components_ride_along_on_the_tested_panels():
    # a component past ``tested`` (here a step, which alone needs many bisections) neither drives refinement nor
    # blocks convergence: the panels, and so the first component, are those of the first component alone, and the
    # step is integrated on them
    smooth = lambda t: np.exp(-t)
    pair = lambda t: np.vstack([smooth(t), np.where(t < 1.1, 1.0, 0.0)])
    alone = adaptive_quad(smooth, 0.0, 3.0, rel_tol=1e-10)
    both = adaptive_quad(pair, 0.0, 3.0, rel_tol=1e-10, tested=1)
    assert both.subdivisions == alone.subdivisions and both.value[0] == alone.value[0]
    assert both.value[1] == pytest.approx(1.1, abs=both.error[1]) and both.error[1] > 1e-10
    with pytest.raises(QuadratureError):
        adaptive_quad(pair, 0.0, 3.0, max_subdivisions=20)


def test_failure_carries_best_estimate():
    f = lambda t: np.sin(1.0 / np.maximum(t, 1e-300)) / np.maximum(t, 1e-300)
    with pytest.raises(QuadratureError) as exc:
        adaptive_quad(f, 0.0, 1.0, max_subdivisions=40)
    res = exc.value.result
    assert not res.converged
    assert res.error[0] > 0.0
    assert math.isfinite(res.value[0])


def test_deterministic():
    f = lambda t: np.cos(t**2)
    a = adaptive_quad(f, 0.0, 10.0, rel_tol=1e-9)
    b = adaptive_quad(f, 0.0, 10.0, rel_tol=1e-9)
    assert a.scalar == b.scalar
    assert a.subdivisions == b.subdivisions


def test_interval_validation():
    with pytest.raises(ValueError):
        adaptive_quad(np.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        adaptive_quad(np.sin, 0.0, math.inf)


def test_breakpoints_outside_interval_ignored():
    r = adaptive_quad(np.sin, 0.0, math.pi, breakpoints=[-1.0, 5.0])
    assert r.scalar == pytest.approx(2.0, rel=1e-12)
    assert r.subdivisions == 1


def _panels(edges):
    """Flat starting panels and the row of each, from each row's sorted edges."""
    bounds = np.array([[p for e in edges for p in e[:-1]], [p for e in edges for p in e[1:]]], dtype=float)
    return bounds, np.arange(len(edges)).repeat([len(e) - 1 for e in edges])


# Rows of one batch as (chirp rate, upper limit, breakpoints): from a row
# that converges at once to chirps that need many refinement rounds.
_ROWS = [(0.0, 2.0, ()), (4.0, 10.0, (2.0, 7.5)), (1.0, 5.0, (1.5,)), (2.0, 6.0, (3.0,))]


def _chirp(rate, t, components):
    v = np.cos(rate * t * t) * np.exp(-0.1 * t) + 1.0
    return np.vstack([v, t * v]) if components == 2 else v


@pytest.mark.parametrize("components", [1, 2])
def test_batched_rows_match_separate_calls(components):
    rates = np.array([rate for rate, _, _ in _ROWS])
    edges = [sorted({0.0, b, *breaks}) for _, b, breaks in _ROWS]
    value, error, subdivisions = _integrate_rows(
        lambda t, rows: _chirp(rates[rows], t, components),
        *_panels(edges),
        rel_tol=1e-10,
        abs_tol=1e-12,
        max_subdivisions=2000,
    )
    alone = [
        adaptive_quad(lambda t, rate=rate: _chirp(rate, t, components), 0.0, b, breakpoints=breaks, rel_tol=1e-10)
        for rate, b, breaks in _ROWS
    ]
    assert len({r.subdivisions for r in alone}) == len(_ROWS)  # the rows take different numbers of rounds
    assert value.shape == error.shape == (len(_ROWS), components) and subdivisions.shape == (len(_ROWS),)
    assert value.tobytes() == np.array([r.value for r in alone]).tobytes()
    assert error.tobytes() == np.array([r.error for r in alone]).tobytes()
    assert subdivisions.tolist() == [r.subdivisions for r in alone]
    assert all(r.converged for r in alone)


def test_rows_converged_at_once_return_the_plain_sums_of_their_start_panels():
    # polynomials within G7's degree meet the tolerance on their start panels: each row's value and error are then
    # np.add.reduceat of its panels' K15 estimates and |K15 - G7|, in panel order, bit for bit
    edges = [[0.0, 2.0], [0.0, 0.5, 1.0, 3.0], list(np.linspace(-1.0, 4.0, 13)), [0.25, 0.5]]

    def f(t, rows):
        p = (rows + 1.0) * t**6 - t**3 + 2.0
        return np.vstack([p, t * p])

    bounds, rows = _panels(edges)
    value, error, subdivisions = _integrate_rows(f, bounds, rows, rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=2000)
    assert subdivisions.tolist() == [len(e) - 1 for e in edges]
    est = quadrature._panel_estimates(f, bounds, rows, np.zeros(rows.size, dtype=int))
    want_value, want_error = np.add.reduceat(est, np.flatnonzero(np.diff(rows, prepend=-1)), axis=-1).swapaxes(1, 2)
    assert value.tobytes() == np.ascontiguousarray(want_value).tobytes()
    assert error.tobytes() == np.ascontiguousarray(want_error).tobytes()
    # each also stays within the float64 summation bound, n eps sum |terms|, of the correctly rounded sum
    for row in range(len(edges)):
        terms = est[..., rows == row]
        exact = np.array([[math.fsum(comp) for comp in part] for part in terms])
        bound = terms.shape[-1] * np.finfo(float).eps * np.abs(terms).sum(axis=-1)
        assert np.all(np.abs(np.array([value[row], error[row]]) - exact) <= bound)


@pytest.mark.parametrize("rel_tol, abs_tol", [(1e-10, 1e-12), (1e-4, 1e-3), (1e-12, 1e-300)])
def test_every_returned_row_meets_its_tolerance_with_the_value_it_returns(rel_tol, abs_tol):
    rates = np.array([rate for rate, _, _ in _ROWS])
    edges = [sorted({0.0, b, *breaks}) for _, b, breaks in _ROWS]
    value, error, _ = _integrate_rows(
        lambda t, rows: _chirp(rates[rows], t, 2),
        *_panels(edges),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        max_subdivisions=2000,
    )
    assert np.all(error <= np.maximum(abs_tol, rel_tol * np.abs(value)))


def _one_failing_row(t, rows):
    singular = np.sin(1.0 / np.maximum(t, 1e-300)) / np.maximum(t, 1e-300)
    return np.where(rows == 1, singular, np.exp(-t))


def test_failing_row_raises_with_its_own_estimate():
    edges = [[0.0, 1.0]] * 3
    with pytest.raises(QuadratureError) as exc:
        _integrate_rows(_one_failing_row, *_panels(edges), rel_tol=1e-6, abs_tol=1e-12, max_subdivisions=40)
    with pytest.raises(QuadratureError) as alone:
        adaptive_quad(lambda t: _one_failing_row(t, np.ones(t.size, dtype=int)), 0.0, 1.0, max_subdivisions=40)
    res, want = exc.value.result, alone.value.result
    assert not res.converged and not want.converged
    assert np.array_equal(res.value, want.value)
    assert np.array_equal(res.error, want.error)
    assert res.subdivisions == want.subdivisions == 40


def test_gauss_rules_equal_roots_legendre_bit_for_bit():
    # the Kronrod extension evaluates the Gauss rule at its odd nodes
    assert quadrature._XK15.size == 15
    for ours, ref in zip((quadrature._XK15[1::2], quadrature._W7), roots_legendre(7)):
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()


def test_kronrod_rule_integrates_degree_22():
    x, w = quadrature._XK15, quadrature._WK15
    assert np.all(np.diff(x) > 0.0)
    assert math.fsum(w) == pytest.approx(2.0, abs=1e-15)
    for degree in range(23):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert math.fsum(w * x**degree) == pytest.approx(exact, abs=1e-15)


def test_batch_across_chunks_matches_separate_calls():
    # 40 rows of 80 panels: 48,000 points, more than one integrand call takes
    rates = np.linspace(0.5, 3.0, 40)
    edges = [list(np.linspace(0.0, 8.0, 81)) for _ in rates]
    calls = []

    def f(t, rows):
        calls.append(t.size)
        return _chirp(rates[rows], t, 2)

    value, error, subdivisions = _integrate_rows(
        f, *_panels(edges), rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=2000
    )
    assert max(calls) <= quadrature._CHUNK_POINTS < calls[0] + calls[1]
    alone = [
        adaptive_quad(lambda t: _chirp(rate, t, 2), 0.0, 8.0, breakpoints=e[1:-1], rel_tol=1e-10)
        for rate, e in zip(rates, edges)
    ]
    assert value.tobytes() == np.array([r.value for r in alone]).tobytes()
    assert error.tobytes() == np.array([r.error for r in alone]).tobytes()
    assert subdivisions.tolist() == [r.subdivisions for r in alone]


@pytest.mark.parametrize("cap", [2000, 60], ids=["fraction", "budget"])
def test_worst_panel_pick_is_the_per_row_argpartition_set(cap):
    # on tie-free errors the one-sort pick selects, in every run, the set that one argpartition per run selects,
    # with k by the 30% rule and, under a cap of 60 panels, by the remaining budget of the runs near it
    rng = np.random.default_rng(36)
    sizes = rng.integers(1, 60, 500)
    errors = rng.random(int(sizes.sum()))
    assert np.unique(errors).size == errors.size
    k = np.minimum(np.maximum(1, (quadrature._REFINE_FRACTION * sizes).astype(int)), cap - sizes)
    assert (k < np.maximum(1, (0.3 * sizes).astype(int))).any() == (cap == 60)
    starts = np.cumsum(sizes) - sizes
    want = [a + errors[a : a + n].argpartition(-kk)[-kk:] for a, n, kk in zip(starts, sizes, k)]
    got = quadrature._worst_panels(errors, sizes, k)
    assert got.size == k.sum()
    assert np.array_equal(np.sort(got), np.sort(np.concatenate(want)))


def test_worst_panel_pick_breaks_ties_to_the_earlier_panel():
    errors = np.array([1.0, 2.0, 2.0, 2.0, 0.5, 3.0, 3.0, 3.0])
    got = quadrature._worst_panels(errors, np.array([5, 3]), np.array([2, 1]))
    assert sorted(got.tolist()) == [1, 2, 5]


def test_row_starting_above_the_cap_raises():
    edges = [[0.0, 1.0], list(np.linspace(0.0, 1.0, 12))]
    with pytest.raises(QuadratureError, match="12 panel edges") as exc:
        _integrate_rows(lambda t, rows: np.exp(-t), *_panels(edges), rel_tol=1e-6, abs_tol=1e-12, max_subdivisions=10)
    res = exc.value.result
    assert not res.converged and res.subdivisions == 11
    assert res.value[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("f", [lambda t: 1.0, lambda t: t[:-1], lambda t: np.ones((2, 3))], ids=["scalar", "short", "2x3"])
def test_integrand_of_the_wrong_shape_raises_value_error(f):
    # a scalar gave an IndexError before the shape check
    with pytest.raises(ValueError, match="integrand returned a shape not matching its input"):
        adaptive_quad(f, 0.0, 1.0)


@pytest.mark.parametrize("level", range(quadrature._LEVELS))
def test_sin2_product_weights_against_30_digit_integrals(level):
    # each level's 23- and 11-point weights integrate a smooth function against sin^2(pi m (1 + t)/2) over [-1, 1]:
    # the 23-point rule to rounding, and both sum to the weight's integral, 1
    import mpmath

    m = 2**level
    mpmath.mp.dps = 30
    weight = lambda t: mpmath.sin(mpmath.pi * m * (1 + t) / 2) ** 2
    ref = mpmath.quad(lambda t: mpmath.exp(t) / (t + 3) * weight(t), mpmath.linspace(-1, 1, 2 * m + 1))
    nodes = quadrature._XF23
    got = quadrature._W23[level] @ (np.exp(nodes) / (nodes + 3.0))
    assert abs(got - float(ref)) <= 1e-14 * abs(float(ref))
    for weights in (quadrature._W23[level], quadrature._W11[level]):
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
        # the weight is even in t, and so are the interpolatory weights on the symmetric nodes
        assert np.allclose(weights, weights[::-1], rtol=0.0, atol=1e-15)


def test_product_panel_refines_down_to_k15_halves():
    # g(y) sin^2(pi y) over [0, 64] as one product panel of 64 periods: g's pole at y = -0.05 makes the 11-point
    # rule miss near 0, so the panel halves down to single periods and then to K15 halves there
    g = lambda y: 1.0 / (y + 0.05) ** 2
    calls = []

    def integrand(y, rows, split=None):
        # the K15 nodes, before split, take the whole integrand, and the product nodes g alone
        split = y.size if split is None else split
        calls.append(split)
        return np.concatenate([g(y[:split]) * np.sin(np.pi * y[:split]) ** 2, g(y[split:])])

    value, error, subdivisions = _integrate_rows(
        integrand,
        np.array([[0.0], [64.0]]),
        np.zeros(1, dtype=int),
        rel_tol=1e-10,
        abs_tol=1e-300,
        max_subdivisions=2000,
        lobes=np.array([64]),
    )
    ref, _ = integrate.quad(lambda y: math.sin(math.pi * y) ** 2 / (y + 0.05) ** 2, 0.0, 64.0, limit=500, epsabs=0.0,
                            epsrel=1e-13, points=list(range(1, 64)))
    assert sum(calls) and subdivisions[0] > 7
    assert abs(value[0, 0] - ref) <= max(error[0, 0], 1e-13 * ref) and error[0, 0] <= 1e-10 * ref


def test_sinc2_delta_weight_and_factorized_second_moment():
    # the smeared delta: sinc^2(3u/4) over |u| <= 1200 carries the weight 4pi/3, and the factorized kernel's second
    # moment at x = 80 over |y - x| <= 80 is that weight times its diagonal asymptote, (4pi/3) x^2/(2pi^2)
    target = 4.0 * math.pi / 3.0
    sinc2 = lambda u: np.sinc(0.75 * u / np.pi) ** 2
    mass = adaptive_quad(sinc2, -1200.0, 1200.0, breakpoints=[0.0], rel_tol=1e-9, max_subdivisions=6000).scalar
    assert abs(mass - target) / target < 0.005
    x = 80.0
    moment = adaptive_quad(
        lambda ys: f_factorized(x, ys) * ys * ys, 0.0, 2.0 * x, breakpoints=[x], rel_tol=1e-9, max_subdivisions=6000
    ).scalar
    expected = target * x * x / (2.0 * math.pi * math.pi)
    assert abs(moment - expected) / expected < 0.02
