import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bubblespec.kernel
import bubblespec.quadrature
import bubblespec.spectrum
from bubblespec.cli import REFERENCE_TABLE, RunConfig
from bubblespec.kernel import CutoffProfile, f_factorized
from bubblespec.matching import MediumConfig
from bubblespec.quadrature import _CHUNK_POINTS, QuadratureError
from bubblespec.spectrum import (
    QuadratureSpec,
    delta_kernel_totals,
    dn_dx,
    infinite_volume_dn_dx,
    infinite_volume_totals,
    totals,
)


def spectral_integrand(x, y, cfg, cut):
    """The production integrand at the single point (x, y), factorized kernel."""
    return float(bubblespec.spectrum._integrand(np.array([x]), np.array([y]), cfg, cut, f_factorized)[0])


@pytest.fixture(scope="module")
def reference_case():
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    return cfg, CutoffProfile.rounded(cfg)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    QuadratureSpec(tail_upper_bound=30.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tail_upper_bound"):
            QuadratureSpec(tail_upper_bound=bad)
    for bad in (math.nan, 2.5, 0, -3):
        with pytest.raises(ValueError, match="max_subdivisions must be an int >= 1"):
            QuadratureSpec(max_subdivisions=bad)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: MediumConfig(n_gas_in=True, n_gas_out=1.0), "n_gas_in"),
        (lambda: QuadratureSpec(rel_tol=True), "rel_tol"),
        (lambda: CutoffProfile(True, 1.0), "x_star"),
        (lambda: QuadratureSpec(max_subdivisions=True), "max_subdivisions"),
        (lambda: RunConfig(grid_points=2.5), "grid_points"),
        (lambda: RunConfig(grid_points="5"), "grid_points"),
    ],
    ids=["n_gas_in=True", "rel_tol=True", "x_star=True", "max_subdivisions=True", "grid_points=2.5", "grid_points='5'"],
)
def test_config_classes_refuse_bools_and_non_integer_counts(make, name):
    with pytest.raises(ValueError, match=name):
        make()


def test_config_classes_take_numpy_numbers_and_store_python_ones():
    # a real is any numbers.Real but bool, stored as float; a count has __index__, is not bool, stored as int
    for v in (np.float32(2.0), np.int64(2)):
        medium, quad, cut = MediumConfig(n_gas_in=v, n_gas_out=v), QuadratureSpec(rel_tol=v), CutoffProfile(v, v)
        for got in (medium.n_gas_in, medium.n_gas_out, quad.rel_tol, cut.x_star, cut.y_star):
            assert type(got) is float and got == 2.0
    quad = QuadratureSpec(max_subdivisions=np.int64(50))
    assert type(quad.max_subdivisions) is int and quad.max_subdivisions == 50
    run = RunConfig(grid_points=np.int64(5))
    assert type(run.grid_points) is int and run.grid_points == 5


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: MediumConfig(n_gas_in=10**400, n_gas_out=1.0), "n_gas_in"),
        (lambda: QuadratureSpec(rel_tol=10**400), "rel_tol"),
        (lambda: CutoffProfile(10**400, 1.0), "x_star"),
    ],
    ids=["n_gas_in", "rel_tol", "x_star"],
)
def test_config_classes_refuse_an_int_past_the_double_range(make, name):
    # compared exactly, never converted: the usual ValueError, not an OverflowError
    with pytest.raises(ValueError, match=f"{name} must be a positive finite number"):
        make()


def test_run_config_refuses_grid_points_past_its_ceiling_without_allocating():
    assert RunConfig(grid_points=10_000).grid_points == 10_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="grid_points must be an integer in \\[2, 10000\\], got 1000000000000"):
            RunConfig(grid_points=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, True, pytest.param(10**400, id="10**400")])
def test_spectrum_rejects_x_that_is_not_positive_and_finite(reference_case, bad):
    # the config fields' rule: a bool is no number, and an int past the double range is refused, not overflowed
    cfg, cut = reference_case
    for f in (lambda x: dn_dx(x, cfg, cut), lambda x: infinite_volume_dn_dx(x, cfg, cut)):
        with pytest.raises(ValueError, match="x must be a positive finite number"):
            f(bad)


def test_one_point_grid_is_x_zero_alone(reference_case):
    # no dN/dx row left after x = 0: an empty batch
    cfg, cut = reference_case
    res = totals(cfg, cut, QuadratureSpec(rel_tol=1e-3), grid_points=1)
    assert (res.x_grid, res.dn_dx) == ([0.0], [0.0])


def test_grid_equals_pointwise_dn_dx(reference_case):
    cfg, cut = reference_case
    res = totals(cfg, cut, grid_points=50)
    assert res.dn_dx[1:] == [dn_dx(x, cfg, cut) for x in res.x_grid[1:]]


def test_integrand_zero_beyond_both_cutoffs(reference_case):
    cfg, cut = reference_case
    assert spectral_integrand(cut.x_star + 1.0, cut.y_star + 1.0, cfg, cut) == 0.0
    # one-sided excess keeps a mismatch and stays nonzero
    assert spectral_integrand(cut.x_star + 0.5, 0.9 * cut.y_star, cfg, cut) > 0.0


def test_integrand_null_when_indices_equal():
    cfg = MediumConfig(n_gas_in=7.0, n_gas_out=7.0)
    cut = CutoffProfile.rounded(cfg)
    for x, y in ((1.0, 1.0), (3.0, 8.0), (10.0, 2.0)):
        assert spectral_integrand(x, y, cfg, cut) == 0.0


def test_integrand_diagonal_reduction(reference_case):
    # at x = y the momentum-mixing ratio collapses to x
    cfg, cut = reference_case
    x = 4.0
    n_in, n_out = cfg.n_gas_in, cfg.n_gas_out
    expected = (n_in - n_out) ** 2 / (2 * n_in * n_out) * x * x * f_factorized(x, x)
    assert spectral_integrand(x, x, cfg, cut) == pytest.approx(expected, rel=1e-12)


def test_integrand_in_out_exchange_symmetry():
    a, b = 9.0, 25.0
    cfg_ab = MediumConfig(n_gas_in=a, n_gas_out=b)
    cfg_ba = MediumConfig(n_gas_in=b, n_gas_out=a)
    cut = CutoffProfile(x_star=40.0, y_star=40.0)
    for x, y in ((3.0, 5.0), (10.0, 2.0), (20.0, 20.5)):
        assert spectral_integrand(x, y, cfg_ab, cut) == pytest.approx(
            spectral_integrand(y, x, cfg_ba, cut), rel=1e-12
        )


def test_dn_dx_tracks_infinite_volume_in_bulk(reference_case):
    cfg, cut = reference_case
    v = dn_dx(5.0, cfg, cut)
    iv = infinite_volume_dn_dx(5.0, cfg, cut)
    assert abs(v - iv) / iv < 0.11
    assert v >= 0.0


def test_dn_dx_far_rolloff_small(reference_case):
    # smooth decay past the cutoff; the sinc tail falls off as 1/(x - y_*)^2
    cfg, cut = reference_case
    peak = dn_dx(10.1, cfg, cut)
    # (it never reaches zero: the growing momentum prefactor balances the
    # sinc decay far out, the artifact that keeps totals off the tails)
    samples = [dn_dx(cut.x_star + d, cfg, cut) for d in (2.0, 4.0 * math.pi, 8.0 * math.pi)]
    assert all(b < a for a, b in zip(samples, samples[1:]))
    assert samples[1] < 0.08 * peak


def test_dn_dx_null_production():
    cfg = MediumConfig(n_gas_in=3.0, n_gas_out=3.0)
    cut = CutoffProfile.rounded(cfg)
    assert dn_dx(5.0, cfg, cut) == 0.0


def test_dn_dx_exact_mode_close_to_factorized(reference_case):
    cfg, cut = reference_case
    quad = QuadratureSpec(rel_tol=1e-4)
    ve = dn_dx(6.0, cfg, cut, quad, kernel_mode="exact")
    vf = dn_dx(6.0, cfg, cut, quad, kernel_mode="factorized")
    assert ve == pytest.approx(vf, rel=0.15)


def test_dn_dx_exact_mode_close_to_factorized_at_the_largest_cutoff():
    # 68 -> 34 has x* = 392: exact kernel tables of up to 540 terms; the
    # finite sphere retains the homogeneous result there too
    cfg = MediumConfig(n_gas_in=68.0, n_gas_out=34.0)
    cut = CutoffProfile.rounded(cfg)
    quad = QuadratureSpec(rel_tol=1e-4)
    ve = dn_dx(200.0, cfg, cut, quad, kernel_mode="exact")
    vf = dn_dx(200.0, cfg, cut, quad, kernel_mode="factorized")
    assert ve == pytest.approx(vf, rel=0.01)


def test_totals_consistency(reference_case):
    cfg, cut = reference_case
    res = totals(cfg, cut, QuadratureSpec(), grid_points=200)
    assert res.total_photons > 0.0
    assert 0.0 < res.mean_x_over_xstar < 1.2
    assert all(v >= 0.0 for v in res.dn_dx)
    trapz = np.trapezoid(res.dn_dx, res.x_grid)
    assert trapz == pytest.approx(res.total_photons, rel=2e-4)
    assert res.energy_ev > 0.0
    # hbar c / R = 0.3947 eV at 500 nm; energy = that times the x-moment
    x_moment = res.mean_x_over_xstar * cut.x_star * res.total_photons
    assert res.energy_ev == pytest.approx(197.3269804 / 500.0 * x_moment, rel=1e-12)


def test_totals_null_production():
    cfg = MediumConfig(n_gas_in=5.0, n_gas_out=5.0)
    cut = CutoffProfile.rounded(cfg)
    res = totals(cfg, cut, QuadratureSpec(), grid_points=50)
    assert res.total_photons == 0.0
    assert res.energy_ev == 0.0
    assert set(res.dn_dx) == {0.0}


def test_totals_small_mismatch_scaling():
    # N vanishes at dn = 0 and grows with |dn| nearby
    cut = CutoffProfile.rounded(MediumConfig(n_gas_in=5.0, n_gas_out=5.0))
    quad = QuadratureSpec(rel_tol=1e-5)
    n_small = totals(MediumConfig(n_gas_in=5.05, n_gas_out=5.0), cut, quad, grid_points=0).total_photons
    n_large = totals(MediumConfig(n_gas_in=5.2, n_gas_out=5.0), cut, quad, grid_points=0).total_photons
    assert 0.0 < n_small < n_large


def test_exact_vs_factorized_total_regression(reference_case):
    cfg, cut = reference_case
    n_exact = totals(cfg, cut, QuadratureSpec(rel_tol=1e-4), "exact", grid_points=0).total_photons
    n_fact = totals(cfg, cut, QuadratureSpec(), "factorized", grid_points=0).total_photons
    gap = n_exact / n_fact - 1.0
    # measured once, locked as a regression pin
    assert gap == pytest.approx(-0.0477, abs=0.010)


def test_infinite_volume_closed_forms(reference_case):
    cfg, cut = reference_case
    assert infinite_volume_dn_dx(cut.x_star * 1.001, cfg, cut) == 0.0
    x = 5.0
    dn = cfg.n_gas_in - cfg.n_gas_out
    expected = dn * dn / (3 * math.pi * cfg.n_gas_in * cfg.n_gas_out) * x * x
    assert infinite_volume_dn_dx(x, cfg, cut) == pytest.approx(expected, rel=1e-14)
    n, ratio = infinite_volume_totals(cfg, cut)
    assert ratio == 0.75
    assert n == pytest.approx(dn * dn / (9 * math.pi * cfg.n_gas_in * cfg.n_gas_out) * cut.x_star**3)
    # table row 1 sits within a few percent of this closed form
    assert n == pytest.approx(1.09e6, rel=0.03)


def test_delta_kernel_totals_matches_closed_form(reference_case):
    cfg, cut = reference_case
    n_num, ratio_num = delta_kernel_totals(cfg, cut)
    n_ref, ratio_ref = infinite_volume_totals(cfg, cut)
    assert n_num == pytest.approx(n_ref, rel=1e-6)
    assert ratio_num == pytest.approx(ratio_ref, rel=1e-6)


def test_finite_volume_within_ten_percent_of_infinite():
    # across all five reference parameter sets
    for n_in, n_out in ((2e4, 1.0), (71.0, 25.0), (68.0, 34.0), (9.0, 25.0), (1.0, 12.0)):
        cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
        cut = CutoffProfile.rounded(cfg)
        n_fv = totals(cfg, cut, QuadratureSpec(rel_tol=1e-5), grid_points=0).total_photons
        n_iv, _ = infinite_volume_totals(cfg, cut)
        assert abs(n_fv - n_iv) / n_iv < 0.10


def test_include_tails_extends_domain(reference_case):
    cfg, cut = reference_case
    quad = QuadratureSpec(rel_tol=1e-5, tail_upper_bound=cut.y_star + 5.0)
    with_tails = dn_dx(5.0, cfg, cut, quad)
    without = dn_dx(5.0, cfg, cut, QuadratureSpec(rel_tol=1e-5))
    # the tail strip adds (never removes) photon density
    assert with_tails >= without


@pytest.mark.parametrize("n_in, n_out", [row[:2] for row in REFERENCE_TABLE])
def test_dn_dx_meets_its_tolerance_off_grid(n_in, n_out):
    # seeded x anywhere in the spectrum's range, not only on the CSV grid; on
    # 68/34 this seed draws a node where Gauss panels spanning several sinc^2
    # lobes converged falsely (9e-6 off)
    cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
    cut = CutoffProfile.rounded(cfg)
    xs = np.random.default_rng(0).uniform(0.0, cut.x_star + 4.0 * math.pi / 3.0, 40)
    tight = QuadratureSpec(rel_tol=1e-11)
    for x in xs:
        assert dn_dx(x, cfg, cut) == pytest.approx(dn_dx(x, cfg, cut, tight), rel=1e-6), x


def test_dn_dx_starting_edges_above_the_cap_raise():
    # x = 200 on 68/34 starts from 21 panels: K15 lobes up to two lobes from x and at 0 and y*, and the other
    # 88 of its 94 lobes in 15 far panels of 1 to 16 lobes
    cfg = MediumConfig(n_gas_in=68.0, n_gas_out=34.0)
    cut = CutoffProfile.rounded(cfg)
    with pytest.raises(QuadratureError, match="starts with 22 panel edges") as exc:
        dn_dx(200.0, cfg, cut, QuadratureSpec(max_subdivisions=20))
    assert exc.value.result.subdivisions == 21 and not exc.value.result.converged
    capped = dn_dx(200.0, cfg, cut, QuadratureSpec(max_subdivisions=21))
    assert capped == pytest.approx(dn_dx(200.0, cfg, cut), rel=1e-6)


@pytest.mark.parametrize("y_star", [1e6, 1e9, 1e300])
def test_dn_dx_lattice_above_the_cap_raises_before_any_panel(monkeypatch, y_star):
    # the sinc-zero lattice alone needs ~y_star/(4pi/3) panels: refuse before
    # building the row, so no panel is evaluated and no memory is spent on it
    def never(*args):
        raise AssertionError("integrand evaluated")

    monkeypatch.setattr(bubblespec.spectrum, "_integrand", never)
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    with pytest.raises(QuadratureError, match="panel edges, more than max_subdivisions=2000") as exc:
        dn_dx(1.0, cfg, CutoffProfile(11.5, y_star))
    res = exc.value.result
    assert res.subdivisions > 2000 and not res.converged
    assert math.isnan(res.scalar)


def test_table_totals_work_count(monkeypatch):
    # deterministic work guard, pinned exactly: the five reference totals of `bubblespec table` integrate along the
    # diagonals.  Each outer u-rule round is one batch of y-rows, one row per u-node: every case converges in one
    # outer round, whose batch holds its 6 K15 panels' 90 u-nodes and its product panels' 23 u-nodes each.  The
    # rows take the bare hump D((x+y)/2) at 108,240 points in 20 calls (no overflow probe: the layouts are not
    # refused), each at most _CHUNK_POINTS = 2^13 points: 5.2% of the 2,083,545 points of one K15 panel per sinc^2
    # lobe of the x-rows (509,653 with the x-rows' product panels).
    batches, humps = [], []
    rows = bubblespec.spectrum._integrate_rows

    def batch(f, bounds, panel_rows, **kwargs):
        batches[-1].append(int(panel_rows[-1]) + 1)
        return rows(f, bounds, panel_rows, **kwargs)

    hump = bubblespec.spectrum._factorized_hump

    def counted(x, y):
        humps.append(np.broadcast(x, y).size)
        return hump(x, y)

    monkeypatch.setattr(bubblespec.spectrum, "_integrate_rows", batch)
    monkeypatch.setattr(bubblespec.spectrum, "_factorized_hump", counted)
    for n_in, n_out, *_ in REFERENCE_TABLE:
        cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
        batches.append([])
        totals(cfg, CutoffProfile.rounded(cfg), QuadratureSpec(), grid_points=0)
    assert batches == [[113], [389], [504], [389], [320]]
    assert (sum(humps), len(humps)) == (108_240, 20)
    assert sum(humps) <= 0.4 * 2_083_545
    assert max(humps) <= _CHUNK_POINTS


def test_each_outer_round_of_the_totals_runs_one_y_row_batch(monkeypatch):
    # the u-row's K15 and product nodes share one integrand call a round (the round fits in _CHUNK_POINTS), and that
    # call integrates the y-rows of all its u-nodes in one batch: 68/34 at rel_tol 1e-10 takes two outer rounds
    calls, batches = [], []
    outer_rows, inner_rows = bubblespec.quadrature._integrate_rows, bubblespec.spectrum._integrate_rows

    def outer(f, bounds, rows, **kwargs):
        def counted(us, row, *split):
            calls.append((us.size, len(split), len(batches)))
            return f(us, row, *split)

        return outer_rows(counted, bounds, rows, **kwargs)

    def inner(f, bounds, rows, **kwargs):
        batches.append(int(rows[-1]) + 1)
        return inner_rows(f, bounds, rows, **kwargs)

    monkeypatch.setattr(bubblespec.quadrature, "_integrate_rows", outer)
    monkeypatch.setattr(bubblespec.spectrum, "_integrate_rows", inner)
    cfg = MediumConfig(n_gas_in=68.0, n_gas_out=34.0)
    totals(cfg, CutoffProfile.rounded(cfg), QuadratureSpec(rel_tol=1e-10), grid_points=0)
    assert [(n, told) for n, told, _ in calls] == [(504, 1), (258, 1)]
    # each call's batch is the only one it ran, one y-row per u-node
    assert [before for _, _, before in calls] == [0, 1] and batches == [504, 258]


@pytest.mark.parametrize(
    "kernel_mode, rel_tol, upper, xs",
    [("factorized", 1e-6, 1e4, [450.0, 5000.0, 9990.0]), ("exact", 1e-4, 1e3, [100.0])],
    ids=["factorized-1e4", "exact-1e3"],
)
def test_dn_dx_rows_far_into_the_tails_match_scipy(kernel_mode, rel_tol, upper, xs):
    # 68/34 with tails: each row's strip past y* lies on its sinc^2 lattice, so factorized rows far into the strip
    # converge and exact ones hold their claim (two strip panels claimed 0.030 at x = 100 and were 0.398 off), each
    # within its claimed error of scipy quad over the same y-integral split at every lattice point and at y*
    from scipy.integrate import quad

    cfg = MediumConfig(n_gas_in=68.0, n_gas_out=34.0)
    cut = CutoffProfile.rounded(cfg)
    width, n_out = 4.0 * math.pi / 3.0, cfg.n_gas_out
    quad_spec = QuadratureSpec(rel_tol=rel_tol, tail_upper_bound=upper)
    value, error = bubblespec.spectrum._dn_dx_batch(np.array(xs), cfg, cut, quad_spec, kernel_mode)

    def integrand(y, x):
        n = cfg.n_gas_in if y <= cut.y_star else 1.0
        ratio = (n * x * x + n_out * y * y) / (n * x + n_out * y)
        if kernel_mode == "exact":
            kernel = bubblespec.kernel.f_exact(x, y).value
        else:
            s6, u = (x + y) ** 6, 0.75 * (x - y)
            kernel = s6 / (16000.0 + s6) / (2.0 * math.pi**2) * ((math.sin(u) / u) ** 2 if u else 1.0)
        return (n - n_out) ** 2 / (2.0 * n * n_out) * ratio * ratio * kernel

    for x, got, claimed in zip(xs, value, error):
        lattice = (x + k * width for k in range(math.floor(-x / width), math.ceil((upper - x) / width) + 1))
        edges = sorted({0.0, cut.y_star, upper, *(p for p in lattice if 0.0 < p < upper)})
        segments = zip(edges[:-1], edges[1:])
        ref = math.fsum(quad(integrand, a, b, args=(x,), epsabs=0.0, epsrel=1e-12)[0] for a, b in segments)
        assert abs(got - ref) <= claimed <= rel_tol * ref, x


@pytest.mark.parametrize(
    "n_in, n_out, tail", [*((n_in, n_out, None) for n_in, n_out, *_ in REFERENCE_TABLE), (68.0, 34.0, 600.0)]
)
def test_dn_dx_rows_claim_at_least_their_actual_error(n_in, n_out, tail):
    # every row's claimed error (its panels' |K15 - G7| and far panels' |Q23 - Q11|) is at least its distance from
    # the same row at rel_tol 1e-12, on seeded x up to x* + 4pi/3 (or the tail bound) and in the strip past x*
    cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
    cut = CutoffProfile.rounded(cfg)
    width = 4.0 * math.pi / 3.0
    rng = np.random.default_rng(31)
    xs = np.concatenate([rng.uniform(0.0, tail or cut.x_star + width, 30), cut.x_star + width * (1.0 - rng.random(10))])
    quad = QuadratureSpec(tail_upper_bound=tail)
    value, error = bubblespec.spectrum._dn_dx_batch(xs, cfg, cut, quad, "factorized")
    tight, _ = bubblespec.spectrum._dn_dx_batch(xs, cfg, cut, dataclasses.replace(quad, rel_tol=1e-12), "factorized")
    assert np.all(np.abs(value - tight) <= error)
    assert np.all(error <= 1e-6 * np.abs(value))


# The five `bubblespec table` totals by an independent route: scipy quad over the same integrals, each at an error far
# below 1e-6.  Copied from perfbench/refs.json, "generator": "perfbench/make_refs.py (scipy 1.17.1, mpmath 1.3.0)".
SCIPY_TOTALS = {
    (20000.0, 1.0): (1087854.7694292993, 0.8122716718955616),
    (71.0, 25.0): (1005258.4144906757, 0.7488704174084572),
    (68.0, 34.0): (1061995.347049469, 0.7489671702275501),
    (9.0, 25.0): (959307.3347638487, 0.7483443572477659),
    (1.0, 12.0): (935288.0759497115, 0.7470644137672126),
}


@pytest.mark.parametrize("n_in, n_out", list(SCIPY_TOTALS))
def test_reference_totals_match_scipy_within_their_claimed_error(n_in, n_out):
    # N within 1e-6 and <x>/x* within 2e-6 of the scipy values, both relative, and the claimed quadrature_error at
    # least the actual error of N and at most rel_tol * N
    cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
    res = totals(cfg, CutoffProfile.rounded(cfg), QuadratureSpec(), grid_points=0)
    n_ref, ratio_ref = SCIPY_TOTALS[n_in, n_out]
    assert abs(res.total_photons - n_ref) <= 1e-6 * n_ref
    assert abs(res.mean_x_over_xstar - ratio_ref) <= 2e-6 * ratio_ref
    assert abs(res.total_photons - n_ref) <= res.quadrature_error <= 1e-6 * n_ref


# The five exact-kernel totals N at rel_tol 1e-12 (abs_tol 1e-30, 1e5 subdivisions); a rel_tol 1e-10 run agrees
# within 7e-16.
EXACT_TOTALS = {
    (20000.0, 1.0): 1035988.6771735254,
    (71.0, 25.0): 1003413.3807649313,
    (68.0, 34.0): 1060504.433130945,
    (9.0, 25.0): 957533.3814324844,
    (1.0, 12.0): 931993.2382144663,
}


@pytest.mark.parametrize(
    "n_in, n_out",
    [
        *list(EXACT_TOTALS)[:4],
        pytest.param(
            1.0,
            12.0,
            marks=pytest.mark.xfail(
                strict=True, reason="claims 5.41e-7 N at the default tolerance; its N is 9.76e-7 N off (ROADMAP item 1)"
            ),
        ),
    ],
)
def test_exact_reference_totals_claim_at_least_their_error(n_in, n_out):
    # The exact kernel's totals still take the outer x-integral, and claim outer error + worst row error * x_max.
    cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
    res = totals(cfg, CutoffProfile.rounded(cfg), QuadratureSpec(), kernel_mode="exact", grid_points=0)
    assert abs(res.total_photons - EXACT_TOTALS[n_in, n_out]) <= res.quadrature_error


class _StartPanels(Exception):
    """Carries the outer integral's starting panels out of ``totals`` before it evaluates any."""


@pytest.mark.parametrize(
    "cut, tail",
    [
        (CutoffProfile.rounded(MediumConfig(n_gas_in=68.0, n_gas_out=34.0)), None),
        (CutoffProfile.rounded(MediumConfig(n_gas_in=68.0, n_gas_out=34.0)), 600.0),
        (CutoffProfile(392.0, 100.0), None),
        (CutoffProfile(50.0, 1000.0), None),
        (CutoffProfile(50.0, 2.0), None),
        (CutoffProfile(1.0, 0.5), None),
        (CutoffProfile(1e300, 1e300), None),
    ],
    ids=["68-34", "68-34-tails", "y-below-x", "y-above-x-max", "y-below-w", "both-below-w", "1e300"],
)
def test_totals_start_panels_are_graded_toward_y_star(monkeypatch, cut, tail):
    # The exact kernel's outer x-integral starts from the edges 0, x*, x_max, y* and y* - W 1.5^k (k >= 0) inside
    # (0, x_max), with W = 4pi/3: the panel next to y* is one sinc width, each one wholly below y* - W at most half as
    # wide as its distance from y* (to the rounding of y*), and the count grows as log_1.5(y*/W).
    width = 4.0 * math.pi / 3.0

    def start_panels(f, bounds, rows, **kwargs):
        raise _StartPanels(bounds)

    monkeypatch.setattr(bubblespec.quadrature, "_integrate_rows", start_panels)
    cfg = MediumConfig(n_gas_in=68.0, n_gas_out=34.0)
    with pytest.raises(_StartPanels) as caught:
        totals(cfg, cut, QuadratureSpec(tail_upper_bound=tail), "exact", grid_points=0)
    lo, hi = caught.value.args[0]
    edges = np.append(lo, hi[-1])
    x_max = max(cut.x_star + width, tail or 0.0)
    assert edges[0] == 0.0 and edges[-1] == x_max and np.all(lo[1:] == hi[:-1]) and np.all(lo < hi)
    for edge in (cut.x_star, cut.y_star, cut.y_star - width):
        assert edge in edges or not 0.0 < edge < x_max
    graded = hi <= cut.y_star - width
    assert np.all((hi - lo)[graded] <= 0.5 * (cut.y_star - hi[graded]) + 1e-13 * cut.y_star)
    assert hi.size <= max(0.0, math.log(cut.y_star / width, 1.5)) + 4


@pytest.mark.parametrize(
    "cut, tail",
    [
        (CutoffProfile.rounded(MediumConfig(n_gas_in=68.0, n_gas_out=34.0)), None),
        (CutoffProfile.rounded(MediumConfig(n_gas_in=68.0, n_gas_out=34.0)), 600.0),
        (CutoffProfile(392.0, 100.0), None),
        (CutoffProfile(50.0, 1000.0), None),
        (CutoffProfile(50.0, 2.0), 60.0),
        (CutoffProfile(1.0, 0.5), None),
        (CutoffProfile(1e4, 1.0), None),
    ],
    ids=["68-34", "68-34-tails", "y-below-x", "y-above-x-max", "y-below-w-tails", "both-below-w", "x-far-above-y"],
)
def test_totals_u_row_start_panels_split_at_the_kinks_and_the_lattice(monkeypatch, cut, tail):
    # The factorized totals' u = x - y integral starts from one lattice row over [-upper, x_max] centred at 0: sorted
    # edges, every kink of H an edge (0, x_max - upper and, with tails, x_max - y* and -y*; one within rounding of a
    # lattice point is that point, no sliver panel), K15 panels of at most one lobe, and product panels on whole lobes
    # (lattice points k 4pi/3 at both ends), each no wider than its distance from 0 and two or more lobes away from it.
    width = 4.0 * math.pi / 3.0

    def start_panels(f, bounds, rows, **kwargs):
        raise _StartPanels(bounds, kwargs["lobes"])

    monkeypatch.setattr(bubblespec.quadrature, "_integrate_rows", start_panels)
    cfg = MediumConfig(n_gas_in=68.0, n_gas_out=34.0)
    with pytest.raises(_StartPanels) as caught:
        totals(cfg, cut, QuadratureSpec(tail_upper_bound=tail), grid_points=0)
    (lo, hi), lobes = caught.value.args
    x_max, upper = max(cut.x_star + width, tail or 0.0), max(cut.y_star, tail or 0.0)
    edges = np.append(lo, hi[-1])
    assert edges[0] == -upper and edges[-1] == x_max and np.all(lo[1:] == hi[:-1]) and np.all(lo < hi)
    kinks = [0.0, x_max - upper, *((x_max - cut.y_star, -cut.y_star) if tail else ())]
    assert all(np.min(np.abs(edges - k)) <= 1e-15 * (x_max + upper) for k in kinks if -upper < k < x_max)
    product = lobes > 0
    assert np.all(hi[~product] - lo[~product] <= width * (1.0 + 1e-12))
    assert np.all(hi - lo > 1e-9 * width)
    near = np.where(lo[product] > 0.0, lo[product], -hi[product]) / width
    ks = lo[product] / width
    assert np.allclose(ks, np.round(ks), rtol=0.0, atol=1e-9)
    assert np.allclose(hi[product] - lo[product], lobes[product] * width)
    assert np.all(near >= 2.0 - 1e-9) and np.all(lobes[product] <= near + 1e-9)
    assert product.any() == (x_max + upper > 6.0 * width)


def test_totals_u_row_above_the_cap_raises_before_any_panel(monkeypatch):
    # ~y*/(64 * 4pi/3) product panels: the u-row is refused before its edges are built or any quadrature runs
    def never(*args, **kwargs):
        raise AssertionError("quadrature started")

    monkeypatch.setattr(bubblespec.quadrature, "_integrate_rows", never)
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    with pytest.raises(QuadratureError, match="panel edges, more than max_subdivisions=2000") as exc:
        totals(cfg, CutoffProfile(11.5, 1e9), grid_points=0)
    assert exc.value.result.subdivisions > 2000 and math.isnan(exc.value.result.scalar)
    # 68/34 starts its u-row from 24 panels
    cfg, cut = MediumConfig(n_gas_in=68.0, n_gas_out=34.0), CutoffProfile(392.0, 392.0)
    with pytest.raises(QuadratureError, match="starts with 25 panel edges"):
        totals(cfg, cut, QuadratureSpec(max_subdivisions=23), grid_points=0)


def _scipy_photons(cfg, cut, tail=None):
    """N by scipy along the diagonals, an independent route: int sinc^2(3u/4) H(u) du with H(u) the y-integral of the
    integrand's factors other than sinc^2 along x = y + u.  The u-range is split at H's kinks and at the sinc zeros up
    to two lobes from 0; past those, sin^2 = (1 - cos(3u/2))/2 and the cosine part goes to QUADPACK's QAWO."""
    from scipy.integrate import quad

    width = 4.0 * math.pi / 3.0
    y_star, n_in, n_out = cut.y_star, cfg.n_gas_in, cfg.n_gas_out
    x_max, upper = max(cut.x_star + width, tail or 0.0), max(y_star, tail or 0.0)

    def integrand(y, u):
        x = y + u
        n = n_in if y <= y_star else 1.0
        ratio = (n * x * x + n_out * y * y) / (n * x + n_out * y)
        s6 = (x + y) ** 6
        return (n - n_out) ** 2 / (2.0 * n * n_out) * ratio * ratio * s6 / (16000.0 + s6) / (2.0 * math.pi**2)

    def h(u):
        # split at y* and at decades from the row's start, where the hump and the momentum ratio turn: a 21-point
        # start on a row thousands long can miss them
        ya, yb = max(0.0, -u), min(upper, x_max - u)
        points = sorted(p for p in {y_star, *(ya + 10.0**k for k in range(-3, 5))} if ya < p < yb)
        return quad(integrand, ya, yb, args=(u,), points=points or None, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    def envelope(u):
        return h(u) / (0.75 * u) ** 2

    splits = {-upper, 0.0, x_max - upper, x_max - y_star, -y_star, x_max, *(k * width for k in range(-2, 3))}
    edges = sorted(p for p in splits if -upper <= p <= x_max)
    photons = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-9:  # a kink within rounding of a sinc zero
            continue
        if -2.0 * width < 0.5 * (a + b) < 2.0 * width:
            sinc2 = lambda u: (math.sin(0.75 * u) / (0.75 * u)) ** 2 * h(u)
            photons += quad(sinc2, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0]
        else:
            mean = quad(envelope, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0]
            cosine = quad(envelope, a, b, weight="cos", wvar=1.5, epsabs=1e-12 * abs(mean), epsrel=1e-10, limit=200)[0]
            photons += 0.5 * (mean - cosine)
    return photons


@pytest.mark.parametrize("y_star", [1e-300, 1e-310])
def test_factorized_totals_with_tails_over_a_tiny_y_star_are_finite(y_star):
    # the y-rows' grading edges r y* 10^k span the log10(upper/(r y*)) ~ 300 decades only up to the 17 a double
    # resolves: the count neither overflows (an OverflowError) nor sizes a row of hundreds of edges
    cfg, quad = MediumConfig(n_gas_in=68.0, n_gas_out=34.0), QuadratureSpec(tail_upper_bound=1e5)
    res = totals(cfg, CutoffProfile(11.5, y_star), quad, grid_points=0)
    assert math.isfinite(res.total_photons) and 0.0 < res.quadrature_error <= 1e-6 * res.total_photons


@pytest.mark.parametrize("x_star", [1e4, 1e5])
def test_factorized_totals_far_above_y_star_match_scipy(x_star):
    # y* = 1 and x* up to 1e5: the x-row route stopped at 2000 subdivisions here (about 2400 and 24000 sinc lobes
    # along x); the u-row takes them in product panels
    cfg = MediumConfig(n_gas_in=68.0, n_gas_out=34.0)
    cut = CutoffProfile(x_star, 1.0)
    res = totals(cfg, cut, grid_points=0)
    n_ref = _scipy_photons(cfg, cut)
    assert abs(res.total_photons - n_ref) <= res.quadrature_error <= 1e-6 * n_ref


@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(
    st.sampled_from([row[:2] for row in REFERENCE_TABLE]),
    st.floats(min_value=-1.0, max_value=4.0),
    st.floats(min_value=-1.0, max_value=4.0),
    st.sampled_from([None, 1.2, 2.0]),
)
@example((68.0, 34.0), math.log10(392.0), 2.0, None)
@example((68.0, 34.0), math.log10(50.0), 3.0, None)
@example((68.0, 34.0), math.log10(50.0), math.log10(2.0), None)
@example((68.0, 34.0), math.log10(3000.0), math.log10(3000.0), None)
def test_factorized_totals_claim_at_least_their_error_over_the_cutoff_overrides(indices, x_exponent, y_exponent, tail):
    # x* and y* log-uniform in [0.1, 1e4], without tails or with tails up to 1.2 or 2 times max(x*, y*) + 4pi/3; the
    # claimed error is at least the distance from the scipy route and at most twice rel_tol * N (outer plus inner)
    cfg = MediumConfig(n_gas_in=indices[0], n_gas_out=indices[1])
    cut = CutoffProfile(10.0**x_exponent, 10.0**y_exponent)
    bound = tail and tail * (max(cut.x_star, cut.y_star) + 4.0 * math.pi / 3.0)
    res = totals(cfg, cut, QuadratureSpec(tail_upper_bound=bound), grid_points=0)
    n_ref = _scipy_photons(cfg, cut, bound)
    assert abs(res.total_photons - n_ref) <= res.quadrature_error <= 2e-6 * n_ref


def test_totals_peak_memory_stays_below_3_mb():
    # The 68/34 totals (x* = 392, up to ~95 starting panels a row): each integrand call's values are reduced to
    # their panels' rule sums at once, so no buffer holds every panel's 15 values (that peaked at 5.4 MB)
    cfg = MediumConfig(n_gas_in=68.0, n_gas_out=34.0)
    tracemalloc.start()
    try:
        totals(cfg, CutoffProfile.rounded(cfg), QuadratureSpec(), grid_points=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_exact_totals_build_j_tables_for_overlap_branch_points_only(monkeypatch):
    # A work count, not a timing: the exact kernel's closed form builds no Bessel table, so on the 2e4/1
    # exact totals (rel_tol 1e-4, 20 grid points) J columns are built for the overlap route's points alone,
    # two per point (J at min(x, y), and J at max(x, y) from the same backward table up to 4, from the upward
    # recurrence past it), and the count repeats exactly.
    kernel = bubblespec.kernel
    columns, points = [], []

    def counting(routine, z_at):
        def wrapped(*args):
            columns.append(args[z_at].size)
            return routine(*args)

        return wrapped

    def recording(x, y):
        points.append(np.broadcast_arrays(x, y))
        return kernel.f_exact_array(x, y)

    monkeypatch.setattr(kernel, "_half_integer_j_table", counting(kernel._half_integer_j_table, 0))
    monkeypatch.setattr(kernel, "_half_integer_j_upward", counting(kernel._half_integer_j_upward, 1))
    monkeypatch.setattr(bubblespec.spectrum, "f_exact_array", recording)
    cfg = MediumConfig(n_gas_in=2e4, n_gas_out=1.0)
    counts = []
    for _ in range(2):
        columns.clear()
        points.clear()
        totals(cfg, CutoffProfile.rounded(cfg), QuadratureSpec(rel_tol=1e-4), "exact", grid_points=20)
        x, y = (np.concatenate([p[i] for p in points]) for i in (0, 1))
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        overlap = ~((lo >= 1.0) & (hi <= 256.0 * lo))
        counts.append((x.size, sum(columns)))
        assert sum(columns) == 2 * np.count_nonzero(overlap)
    assert counts[0] == counts[1]
    # measured: 5340 points, 1232 of them in the overlap route (355 with max(x, y) <= 4)
    assert counts[0] == (5340, 2 * 1232)


def _integrand_per_point(x, ys, cfg, cut, kernel_mode):
    """The integrand with its index weight and momentum ratio built per point: the reference of _integrand."""
    n_in = np.where(ys <= cut.y_star, cfg.n_gas_in, 1.0)
    n_out = cfg.n_gas_out
    dn = n_in - n_out
    kernel = bubblespec.kernel.f_factorized if kernel_mode == "factorized" else bubblespec.kernel.f_exact_array
    kern = kernel(x, ys)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (n_in * x * x + n_out * ys * ys) / (n_in * x + n_out * ys)
        return dn * dn / (2.0 * n_in * n_out) * ratio * ratio * kern


@pytest.mark.parametrize("kernel_mode, points", [("factorized", 20_000), ("exact", 400)])
@pytest.mark.parametrize("n_in, n_out", [(2e4, 1.0), (68.0, 34.0), (9.0, 25.0), (1.0, 12.0)])
def test_integrand_equals_the_per_point_formula_bit_for_bit(kernel_mode, points, n_in, n_out):
    cfg = MediumConfig(n_gas_in=n_in, n_gas_out=n_out)
    cut = CutoffProfile.rounded(cfg)
    rng = np.random.default_rng(23)
    x = rng.uniform(0.0, cut.x_star + 4.0 * math.pi / 3.0, points)
    inside = rng.uniform(0.0, cut.y_star, points)
    # a chunk of the tail_upper_bound path straddles y*, and y* itself is an edge of its panels
    straddling = rng.uniform(0.5 * cut.y_star, 2.0 * cut.y_star, points)
    straddling[::50] = cut.y_star
    for ys in (inside, straddling):
        kernel = f_factorized if kernel_mode == "factorized" else bubblespec.kernel.f_exact_array
        got = bubblespec.spectrum._integrand(x, ys, cfg, cut, kernel)
        want = _integrand_per_point(x, ys, cfg, cut, kernel_mode)
        assert got.shape == ys.shape and got.tobytes() == want.tobytes()
    assert np.any(straddling > cut.y_star) and np.any(straddling <= cut.y_star)


def _far_panels(d, end):
    """(distance, lobes) of the far panels over the lobe distances [d, end) from x: greedily the widest 2^j lobes
    that is at most 64, at most the distance d and at most what is left."""
    panels = []
    while d < end:
        m = 1
        while 2 * m <= min(64, d, end - d):
            m *= 2
        panels.append((d, m))
        d += m
    return panels


def _expected_row_panels(x, y_star, upper):
    """The starting panels (low, high, lobes) of one factorized y-integral, written out point by point.

    Segment by segment, [0, y*] and with tails the strip [y*, upper]: the sorted union {its ends, kept lattice
    inside}, where the lattice x + k * width keeps every point up to two lobes from x and at the part lobes at the
    segment's ends, and the lobes past those are grouped into far panels, each of ``lobes`` whole lobes; every
    other panel is K15 (lobes 0).
    """
    width = 4.0 * math.pi / 3.0
    panels = []
    for a, b in [(0.0, y_star), (y_star, upper)][: 1 if upper == y_star else 2]:
        # the lattice x + k * width, from its last point <= a to its first >= b
        k_lo, k_hi = math.floor((a - x) / width), math.ceil((b - x) / width)
        far = [(-(d + m), m) for d, m in _far_panels(max(2, 1 - k_hi), -k_lo - 1)]
        far += _far_panels(max(2, 1 + k_lo), k_hi - 1)
        inside = {k for k0, m in far for k in range(k0 + 1, k0 + m)}
        lattice = {x + float(k) * width for k in range(k_lo, k_hi + 1) if k not in inside}
        edges = sorted({a, b, *(p for p in lattice if a < p < b)})
        lobes = {(x + float(k) * width, x + float(k + m) * width): m for k, m in far}
        panels += [(lo, hi, lobes.get((lo, hi), 0)) for lo, hi in zip(edges[:-1], edges[1:])]
    return panels


@pytest.mark.parametrize("y_star", [11.5, 392.0])
@pytest.mark.parametrize("tail_upper_bound", [None, 600.0, 1e300])
def test_dn_dx_starting_panels_are_the_sorted_lattice_and_strip_edges(monkeypatch, y_star, tail_upper_bound):
    width = 4.0 * math.pi / 3.0
    rng = np.random.default_rng(25)
    xs = np.concatenate(
        [
            10.0 ** rng.uniform(-3.0, 15.0, 60),
            rng.uniform(0.0, 2.0 * y_star, 60),
            # y* itself, x on the lattice's zero (x = j * width), y* on x's lattice, and x far past y*
            [y_star, 3.0 * width, 10.0 * width, y_star - 2.0 * width, y_star + width, 1e20, 1e154, 1e300],
            # rounding: the last lattice point <= 0 lands at 5.7e-14, and the next one lands on 0.0
            [np.nextafter(115.0 * width, np.inf), 125.0 * width],
        ]
    )
    xs = xs[xs > 0.0]
    seen = []

    def capture(f, bounds, rows, **kw):
        seen.append((bounds, rows, kw["lobes"]))
        return np.zeros((xs.size, 1)), np.zeros((xs.size, 1)), np.ones(xs.size, dtype=int)

    monkeypatch.setattr(bubblespec.spectrum, "_integrate_rows", capture)
    cfg = MediumConfig(n_gas_in=68.0, n_gas_out=34.0)
    quad = QuadratureSpec(tail_upper_bound=tail_upper_bound)
    if tail_upper_bound == 1e300:
        # the strip's ~1e299 lobes: every row is refused before its edges are built
        with pytest.raises(QuadratureError, match="panel edges, more than max_subdivisions=2000"):
            bubblespec.spectrum._dn_dx_batch(xs, cfg, CutoffProfile(y_star, y_star), quad, "factorized")
        assert not seen
        return
    bubblespec.spectrum._dn_dx_batch(xs, cfg, CutoffProfile(y_star, y_star), quad, "factorized")
    (lows, highs), rows, lobes = seen[0]
    upper = y_star if tail_upper_bound is None else max(tail_upper_bound, y_star)
    # every row is one run of contiguous panels, in row order
    assert np.array_equal(rows, np.sort(rows)) and np.array_equal(np.unique(rows), np.arange(xs.size))
    for row, x in enumerate(xs.tolist()):
        lo, hi, m = (a[rows == row].tolist() for a in (lows, highs, lobes))
        assert lo[1:] == hi[:-1], x
        assert list(zip(lo, hi, m)) == _expected_row_panels(x, y_star, upper), x
    # the draws reach every lobe count, and every far panel spans its lobes to the rounding of its ends
    assert lobes.dtype == int and set(lobes.tolist()) == ({0, 1, 2, 4, 8, 16, 32, 64} if upper > 300.0 else {0, 1, 2})
    far = lobes > 0
    rounding = 4.0 * np.finfo(float).eps * np.maximum(xs[rows[far]], upper)
    assert np.all(np.abs(highs[far] - lows[far] - lobes[far] * width) <= rounding)
