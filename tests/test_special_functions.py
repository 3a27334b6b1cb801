import math
import random
import sys

import numpy as np
import pytest

from bubblespec.kernel import f_exact
from bubblespec.oracles import hankel_finite_integral
from bubblespec.special_functions import (
    _MAX_ARGUMENT,
    BesselDomainError,
    BesselPair,
    ModeOrder,
    _half_integer_columns,
    _half_integer_j_table,
    _half_integer_j_upward,
    _half_integer_n_table,
    bessel_jn_half,
    half_integer_j_array,
    half_integer_n_array,
)

TWO_OVER_PI = 2.0 / math.pi

# Reference values frozen from 50-digit arithmetic.
J_3_2_AT_2 = 0.49129377868716234501
N_3_2_AT_2 = -0.39562328135870351708
J_1_2_AT_2 = 0.51301613656182775167
N_1_2_AT_2 = 0.23478571040624846917
PW_5_2_3_4 = -0.32597887045956021663
DIAG_5_2_3 = 0.209837291458817
# Deep-underflow regime exercise for the J ratio recurrence.
J_59_5_SMALL = 4.1209586873385774e-155
J_58_5_SMALL = 4.191488748482732e-152
SMALL_Z = 0.11699747918379022


def test_order_validation():
    with pytest.raises(ValueError):
        ModeOrder(-1)
    with pytest.raises(ValueError):
        ModeOrder(1.5)
    assert ModeOrder(3).nu == 3.5


def test_order_accepts_integer_types_and_rejects_bool():
    order = ModeOrder(np.int64(3))
    assert order == ModeOrder(3)
    assert type(order.l) is int
    for bad in (True, False, np.True_, 3.0, "3"):
        with pytest.raises(ValueError, match="non-negative integer"):
            ModeOrder(bad)


@pytest.mark.parametrize("table", [half_integer_j_array, half_integer_n_array])
@pytest.mark.parametrize("l_max, z", [(-1, 1.0), (-5, 3.0), (True, 1.0), (False, 1.0), (2.0, 1.0), ("2", 1.0)])
def test_tables_refuse_an_order_that_is_not_a_non_negative_integer(table, l_max, z):
    # ModeOrder's rule: a negative, bool or non-integer order is refused, not read as a malformed table
    with pytest.raises(ValueError, match=f"non-negative integer, got {l_max!r}"):
        table(l_max, z)


def test_tables_take_any_integer_type_for_the_order():
    assert half_integer_j_array(np.int64(3), 2.0) == half_integer_j_array(3, 2.0)
    assert half_integer_n_array(np.int32(3), 2.0) == half_integer_n_array(3, 2.0)
    assert len(half_integer_j_array(0, 2.0)) == len(half_integer_n_array(0, 2.0)) == 2


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
        hankel_finite_integral(ModeOrder(2), -1.0, 2.0, 1.0)
    with pytest.raises(BesselDomainError):
        hankel_finite_integral(ModeOrder(2), 0.0, 0.0, 1.0)


# 5e-310 is subnormal: 1/z overflows, so the closed forms would be NaN.
@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, 5e-310])
@pytest.mark.parametrize(
    "call",
    [
        lambda z: half_integer_j_array(3, z),
        lambda z: half_integer_n_array(3, z),
        lambda z: bessel_jn_half(ModeOrder(2), z),
        lambda z: hankel_finite_integral(ModeOrder(2), 1.0, z, 1.0),
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


@pytest.mark.parametrize("z", [math.nextafter(_MAX_ARGUMENT, math.inf), 1e19, 1e300])
@pytest.mark.parametrize(
    "call",
    [
        lambda z: half_integer_j_array(3, z),
        lambda z: half_integer_n_array(3, z),
        lambda z: bessel_jn_half(ModeOrder(2), z),
        lambda z: hankel_finite_integral(ModeOrder(2), 1.0, z, 1.0),
        lambda z: hankel_finite_integral(ModeOrder(2), z, z, 1.0),
        lambda z: hankel_finite_integral(ModeOrder(1), z, 1.0, 1.0),
    ],
    ids=["j-table", "n-table", "pair", "ratio", "ratio-diagonal", "overlap-k"],
)
def test_arguments_above_the_limit_raise_the_domain_error(call, z):
    # checked before any table is sized
    with pytest.raises(BesselDomainError, match="in \\(0, 100000\\]"):
        call(z)


@pytest.mark.parametrize(
    "call",
    [
        lambda z: half_integer_j_array(1, z),
        lambda z: half_integer_n_array(1, z),
        lambda z: bessel_jn_half(ModeOrder(2), z),
        lambda z: f_exact(z, 1.0),
        lambda z: f_exact(1.0, -z),
    ],
    ids=["j-table", "n-table", "pair", "f_exact-x", "f_exact-y"],
)
def test_an_int_past_the_double_range_raises_the_domain_error(call):
    # the gate compares it, never converts it: no OverflowError
    with pytest.raises(BesselDomainError, match="in \\(0, 100000\\], got [xyz]="):
        call(10**400)


def test_the_argument_limit_itself_is_in_the_domain():
    z = _MAX_ARGUMENT
    assert half_integer_j_array(2, z)[0] == pytest.approx(math.sqrt(2.0 / (math.pi * z)) * math.sin(z), rel=1e-15)


def test_j_table_takes_its_columns_in_any_order():
    cases = [
        ([300.0, 5.0, 2.0], [3, 3, 3]),  # descending order of the recurrence start
        ([2.0, 5.0, 300.0], [3, 3, 3]),  # ascending
        ([5.0, 300.0, 2.0, 0.7, 40.0], [3, 3, 3, 3, 3]),
        # the start, _decay_order(l_each, z), is past max(l_each, z): a large l_each puts a small z first
        ([300.0, 5.0], [3, 600]),
        ([300.0, 5.0, 2.0], [3, 600, 40]),
    ]
    for z, l_each in cases:
        table = _half_integer_j_table(np.array(z), np.array(l_each))
        assert table.shape == (max(l_each) + 2, len(z))
        for a, (v, l) in enumerate(zip(z, l_each)):
            assert table[: l + 1, a].tolist() + [table[-1, a]] == half_integer_j_array(l, v), (z, a)


def test_one_and_two_column_j_tables_equal_the_wide_table_bit_for_bit():
    # A draw's or a point's one or two columns: rows 0..l_each[a] of a column are those of any wider batch,
    # whatever l_each its neighbours have.
    z = np.array([1e4, 5.0, 2500.0, 300.0, 40.0, 0.7])
    l_each = np.array([13600, 5000, 3, 407, 100, 2])
    wide = _half_integer_j_table(z, l_each)
    assert wide.shape == (13602, 6)
    for width in (1, 2):
        for a in range(z.size - width + 1):
            narrow = _half_integer_j_table(z[a : a + width], l_each[a : a + width])
            assert narrow.shape == (max(l_each[a : a + width].max(), 1) + 2, width)
            for c in range(width):
                rows = int(l_each[a + c]) + 1
                assert narrow[:rows, c].tolist() == wide[:rows, a + c].tolist(), (a, c)
                assert narrow[-1, c] == wide[-1, a + c], (a, c)


@pytest.mark.parametrize("l_max", [0, 1, 2, 60, 300])
def test_n_table_columns_equal_the_n_lists_bit_for_bit(l_max):
    # A column's values do not depend on its batch: each equals the one-column table of half_integer_n_array.
    # Order -1/2 last, as in the lists; small z with large l saturates to -inf.
    z = np.array([sys.float_info.min, 1e-300, 1e-5, 0.01, 0.1, 1.0, 7.3, 50.0, 392.0, _MAX_ARGUMENT])
    table = _half_integer_n_table(l_max, z)
    assert table.shape == (l_max + 2, z.size)
    for a in range(z.size):
        assert table[:, a].tolist() == half_integer_n_array(l_max, float(z[a])), a
    if l_max >= 60:
        assert np.isinf(table[l_max, :3]).all() and np.isfinite(table[: l_max + 1, -1]).all()


def test_n_table_against_mpmath():
    # 60 seeded columns, l <= 120 and z log-uniform in [0.1, 1e3], and two columns that saturate, in one table.
    # Error within 1e-13 of max(|N_l|, |N_{l-1}|) (measured 6.3e-15).  Past 1e307 the column is +-inf, with the
    # sign of its last finite order and of N itself.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(61)
    l_each = [rng.randint(0, 120) for _ in range(60)] + [120, 120]
    z = [10 ** rng.uniform(-1.0, 3.0) for _ in range(60)] + [0.1, 0.3]
    table = _half_integer_n_table(120, np.array(z))
    saturated = 0
    for a, (l_top, v) in enumerate(zip(l_each, z)):
        with mpmath.workdps(40):
            ref = [float(mpmath.bessely(l + mpmath.mpf(1) / 2, v)) for l in range(-1, l_top + 1)]
        assert table[-1, a] == pytest.approx(ref[0], rel=1e-15)
        for l in range(l_top + 1):
            got, want = table[l, a], ref[l + 1]
            if math.isinf(got):
                last = table[:l, a][np.isfinite(table[:l, a])][-1]
                assert abs(want) > 1e307 and got == math.copysign(math.inf, want) == math.copysign(math.inf, last)
                saturated += 1
            else:
                assert abs(got - want) <= 1e-13 * max(abs(want), abs(ref[l])), (a, l, got, want)
    assert saturated


def _row_by_row_clamped_n_table(l_max, z):
    """N_{l+1/2} by upward recurrence, each new row clamped as it is made: past 1e307 a column stays +-inf."""
    rows = np.empty((l_max + 2, z.size))
    rows[-1] = np.array([math.sin(v) for v in z.tolist()]) / z
    rows[0] = -np.array([math.cos(v) for v in z.tolist()]) / z
    saturated = np.zeros(z.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if l_max:
            rows[1] = rows[0] / z - rows[-1]
        for l in range(1, l_max):
            nxt = (2 * l + 1) / z * rows[l] - rows[l - 1]
            saturated |= np.abs(nxt) > 1e307
            rows[l + 1] = np.where(saturated, np.copysign(np.inf, rows[l]), nxt)
        rows *= np.sqrt(2.0 * z / math.pi)
    return rows


def test_n_table_saturates_as_the_row_by_row_clamp_bit_for_bit():
    # 300 seeded tables, l <= 200 and z log-uniform in [1e-8, 1e3], with the smallest arguments in some: the
    # same bits, and the same +-inf from each column's first order past 1e307, as a clamp applied row by row
    rng = np.random.default_rng(25)
    for _ in range(300):
        l_max = int(rng.integers(0, 201))
        z = 10.0 ** rng.uniform(-8.0, 3.0, int(rng.integers(1, 40)))
        if rng.random() < 0.2:
            z[0] = rng.choice([sys.float_info.min, 1e-300, 1e-160])
        got, want = _half_integer_n_table(l_max, z), _row_by_row_clamped_n_table(l_max, z)
        assert got.tobytes() == want.tobytes(), (l_max, z)


def test_bessel_columns_refuse_the_first_argument_outside_the_domain():
    for bad in (0.0, math.nan, 5e-310, 2e5):
        with pytest.raises(BesselDomainError, match=f"got z={bad}$"):
            _half_integer_columns(np.array([1, 2, 3]), np.array([1.0, bad, 0.0]))


def test_deep_underflow_regime():
    """Order far above argument: the ratios multiplied up from j_0 must keep
    relative precision instead of flushing the stored tail to zero."""
    p = bessel_jn_half(ModeOrder(59), SMALL_Z)
    assert p.j == pytest.approx(J_59_5_SMALL, rel=1e-12)
    assert p.j_prev == pytest.approx(J_58_5_SMALL, rel=1e-12)


@pytest.mark.parametrize("z", [1e-60, 1e-63, 1e-75, 1e-100, 1e-307, sys.float_info.min])
def test_tiny_argument_tables_stay_finite(z):
    # an unnormalized downward recurrence grows by ~(2l+1)/z per step and
    # overflows to inf - inf = NaN at such arguments; the ratios cannot
    vals = half_integer_j_array(6, z)
    assert not any(math.isnan(v) for v in vals)
    s = math.sqrt(2.0 * z / math.pi)
    assert vals[0] == pytest.approx(s, rel=1e-15)  # J_{1/2} = s sin(z)/z
    assert vals[1] == pytest.approx(s * z / 3.0, rel=1e-15)  # J_{3/2} ~ s z/3


@pytest.mark.parametrize(
    "l_max, z",
    [
        (5, 8.182561452571242),  # 2l+1 - z r_{l+1} rounds to 0 at a zero of j_4
        (4, 13.698023153249249),
        (3, 392.0),  # small orders at large arguments
        (10, 100.0),
        (int(math.e * 140.0 / 2.0) + 8, 140.0),  # kernel table sizes
        (int(math.e * 392.0 / 2.0) + 8, 392.0),
    ],
)
def test_j_table_against_mpmath(l_max, z):
    mpmath = pytest.importorskip("mpmath")
    vals = half_integer_j_array(l_max, z)
    s = math.sqrt(2.0 * z / math.pi)
    for l in range(-1, l_max + 1):
        with mpmath.workdps(40):
            ref = float(mpmath.besselj(l + mpmath.mpf(1) / 2, z))
        # below the turning point J oscillates with envelope ~ s/z; near its
        # zeros only that scale is resolved
        scale = max(abs(ref), s / z) if l < z else abs(ref)
        assert abs(vals[l] - ref) <= 1e-14 * scale, (l, vals[l], ref)


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


def test_every_table_ends_with_the_same_order_minus_half_row():
    # J_{-1/2}(z) = sqrt(2/(pi z)) cos z is the J table's last row, the upward J's, -N_{1/2} (the N table's row 0)
    # and half_integer_j_array's last entry, bit for bit: _half_integer_columns reads order 0's J_{nu-1} there.
    # Seeded z: the domain's ends, tiny (cos z = 1), log-uniform in [0.01, 1e5], and within 2 ulps of zeros of j_0
    # (k pi) and of J_{-1/2} itself ((k + 1/2) pi) up to 1e5.  Within 1e-15 of 40 digits (measured 2.4e-16).
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(28)
    z = [sys.float_info.min, 1e-300, _MAX_ARGUMENT] + [10 ** rng.uniform(-300, -8) for _ in range(8)]
    z += [10 ** rng.uniform(-2, 5) for _ in range(16)]
    for shift in [0.0] * 12 + [0.5] * 12:
        zero = math.pi * (int(10 ** rng.uniform(0, math.log10(_MAX_ARGUMENT / math.pi) - 0.01)) + shift)
        z.append(zero + rng.randint(-2, 2) * math.ulp(zero))
    z = np.array(z)
    row = _half_integer_j_table(z, np.array([rng.randint(0, 5) for _ in z]))[-1].tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        assert _half_integer_j_upward(5, z)[-1].tolist() == row
    assert (-_half_integer_n_table(5, z)[0]).tolist() == row
    assert [half_integer_j_array(0, v)[-1] for v in z.tolist()] == row
    with mpmath.workdps(40):
        for v, got in zip(z.tolist(), row):
            want = mpmath.sqrt(2 / (mpmath.pi * v)) * mpmath.cos(v)
            assert abs(got - want) <= 1e-15 * abs(want), v


def _ratio(order, x, y):
    """The overlap ratio W~_nu(x, y)/(x^2 - y^2), the exact kernel's r_l: the overlap oracle at R = 1."""
    return hankel_finite_integral(order, x, y, 1.0)


def test_pseudo_wronskian_frozen():
    # the ratio times x^2 - y^2 is the pseudo-Wronskian det[[J(x), J(y)], [x J'(x), y J'(y)]]
    assert _ratio(ModeOrder(2), 3.0, 4.0) * (9.0 - 16.0) == pytest.approx(PW_5_2_3_4, rel=1e-12)


def test_pseudo_wronskian_exact_antisymmetry():
    # W~ is antisymmetric and so is x^2 - y^2: the ratio must be bit-exactly
    # symmetric, far from the diagonal and within 1e-4 min(x, 1) of it
    rng = random.Random(13)
    orders = [ModeOrder(l) for l in range(26)]
    for _ in range(100):
        x, y = rng.uniform(0.2, 40.0), rng.uniform(0.2, 40.0)
        assert [_ratio(o, x, y) for o in orders] == [_ratio(o, y, x) for o in orders]
        y = x * (1.0 + rng.uniform(-0.9, 0.9) * 1e-4 * min(x, 1.0) / x)
        assert [_ratio(o, x, y) for o in orders] == [_ratio(o, y, x) for o in orders]


def test_diagonal_limit_frozen_and_finite_difference():
    # on the diagonal the ratio is lim W~/(x - y) over 2x
    assert _ratio(ModeOrder(2), 3.0, 3.0) * 6.0 == pytest.approx(DIAG_5_2_3, rel=1e-12)
    rng = random.Random(17)
    for _ in range(100):
        l = rng.randint(1, 25)
        x = rng.uniform(0.5, 40.0)
        # x +- h are 2e-4 min(x, 1) apart; the O(h^2) gap to the diagonal value
        # stays below 1.2e-7 here (no abs floor: the values reach 1e-44)
        h = 1e-4 * min(x, 1.0)
        fd = _ratio(ModeOrder(l), x - h, x + h)
        assert fd == pytest.approx(_ratio(ModeOrder(l), x, x), rel=1e-6, abs=0.0)


def test_diagonal_limit_closed_form_magnitude():
    # |lim W~/(x-y)| must equal |2 nu J J' - x (J^2 + J'^2)| regardless of
    # determinant orientation; only the square enters downstream.
    for l, x in ((1, 2.5), (3, 7.0), (8, 20.0)):
        p = bessel_jn_half(ModeOrder(l), x)
        nu = l + 0.5
        quoted = 2.0 * nu * p.j * p.j_prev - x * (p.j**2 + p.j_prev**2)
        assert abs(_ratio(ModeOrder(l), x, x)) * 2.0 * x == pytest.approx(abs(quoted), rel=1e-13)


def test_saturation_flags():
    # tiny argument, huge order: J underflows (clamped to zero), N overflows
    p = bessel_jn_half(ModeOrder(150), 0.01)
    assert p.j == 0.0
    assert p.saturated
    assert math.isinf(p.n)
    assert not math.isnan(p.n)
    # N_{3/2} overflows in its closed form already, before any recurrence step
    p = bessel_jn_half(ModeOrder(1), 1e-307)
    assert p.saturated
    assert (p.j, p.n) == (0.0, -math.inf)


def test_besselpair_is_plain_data():
    p = BesselPair(j=1.0, n=2.0, j_prev=3.0, n_prev=4.0, z=5.0)
    with pytest.raises(AttributeError):
        p.j = 0.0  # frozen
