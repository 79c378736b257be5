"""Scalar comparison curves and two-argument decay surfaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from issnet.comparison import (
    _dyadic_levels,
    KLSurface,
    ScalarCurve,
    check_class,
    compose,
    curve_from_json,
    curve_max,
    curve_sum,
    curve_to_json,
    default_grid,
    expdecay,
    fit_monotone_envelope,
    identity,
    kl_from_decay_table,
    linear,
    make_strictly_increasing,
    max_surface,
    power,
    pwl,
    saturating,
    scale,
    surface_from_json,
    surface_to_json,
    zero_curve,
)


# Factories and evaluation ----------------------------------------------


def test_linear_eval():
    c = linear(2.0)
    assert c(3.0) == 6.0
    assert c(0.0) == 0.0
    assert c.claimed_class == "Kinf"


def test_linear_zero_is_not_kinf():
    assert zero_curve().claimed_class != "Kinf"
    assert zero_curve()(5.0) == 0.0


def test_power_eval():
    c = power(2.0, 0.5)
    assert c(4.0) == pytest.approx(4.0)
    assert c(0.0) == 0.0


def test_saturating_bounded():
    c = saturating(3.0)
    assert c(1.0) == pytest.approx(1.5)
    assert c(1e9) < 3.0
    assert c.claimed_class == "K"


def test_expdecay_eval():
    c = expdecay(2.0, 0.5)
    assert c(0.0) == 2.0
    assert c(2.0) == pytest.approx(2.0 * math.exp(-1.0))
    assert c.claimed_class == "L"


def test_negative_parameters_rejected():
    with pytest.raises(ValueError):
        linear(-1.0)
    with pytest.raises(ValueError):
        power(1.0, 0.0)
    with pytest.raises(ValueError):
        expdecay(1.0, -2.0)


def test_pwl_interpolation_and_extrapolation():
    c = pwl([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
    assert c(2.0) == 3.0
    assert c(1.5) == pytest.approx(2.0)
    # beyond the last breakpoint the final slope continues
    assert c(3.0) == pytest.approx(5.0)


def test_pwl_rejects_duplicate_breakpoints():
    with pytest.raises(ValueError):
        pwl([(0.0, 0.0), (1.0, 1.0), (1.0, 2.0)])


def test_pwl_floor_clamps_extrapolation_only():
    # decreasing staircase that must never be claimed below its last level
    c = pwl([(0.0, 2.0), (1.0, 1.0), (2.0, 0.25)], "L", floor=0.25)
    assert c(1.5) == pytest.approx(0.625)
    assert c(10.0) == 0.25
    assert c(2.0) == 0.25


def test_compose_linear():
    c = compose(linear(2.0), linear(3.0))
    assert c(1.5) == 9.0


def test_compose_order():
    f, g = linear(2.0), power(1.0, 2.0)
    assert compose(f, g)(3.0) == pytest.approx(18.0)   # f(g(3)) = 2*9
    assert compose(g, f)(3.0) == pytest.approx(36.0)   # g(f(3)) = 6^2


# f after g in closed form against the lazy chain that evaluates g, then f
@pytest.mark.parametrize("f, g, kind", [
    (power(2.0, 1.5), power(0.5, 0.7), "power"),
    (pwl([(0.0, 0.0), (1.0, 2.0), (3.0, 2.5), (7.0, 9.0)], "K"), linear(2.5),
     "pwl"),
    (pwl([(0.0, 0.0), (0.4, 1.0), (2.0, 1.5), (5.0, 8.0)], "K"),
     pwl([(0.0, 0.0), (0.5, 0.2), (1.5, 3.0), (4.0, 3.5)], "K"), "pwl"),
], ids=["pow-pow", "pwl-linear", "pwl-pwl"])
def test_compose_closed_forms_match_the_lazy_chain(f, g, kind):
    closed = compose(f, g)
    assert closed.kind == kind
    lazy = ScalarCurve("compose", "K", parts=(f, g))
    grid = default_grid()
    np.testing.assert_allclose(closed(grid), lazy(grid), rtol=1e-12, atol=0.0)


def test_curve_sum_exact_linear():
    s = curve_sum(linear(2.0), linear(3.0))
    assert s(4.0) == 20.0


def test_curve_max_crossing():
    m = curve_max(linear(1.0), pwl([(0.0, 2.0), (4.0, 2.0)], "mono"))
    assert m(1.0) == 2.0
    assert m(2.0) == 2.0
    assert m(3.0) == 3.0
    assert m(5.0) == 5.0


def test_a_zero_operand_keeps_the_other_class():
    # a zero power curve is zero too, whatever its kind
    for merge in (curve_max, curve_sum):
        assert merge(linear(1.0), power(0.0, 2.0)).claimed_class == "Kinf"
        assert merge(pwl([(0.0, 0.0), (1.0, 0.0)]), saturating(2.0)) \
            .claimed_class == "K"


def test_floor_propagates_through_sum_and_max():
    a = pwl([(0.0, 2.0), (1.0, 0.5)], "L", floor=0.5)
    b = pwl([(0.0, 1.0), (1.0, 0.25)], "L", floor=0.25)
    assert curve_sum(a, b)(50.0) == pytest.approx(0.75)
    assert curve_max(a, b)(50.0) == pytest.approx(0.5)


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0),
       st.floats(0.0, 50.0))
def test_sum_and_max_agree_pointwise(a, b, r):
    ca, cb = linear(a), linear(b)
    assert curve_sum(ca, cb)(r) == pytest.approx(a * r + b * r)
    assert curve_max(ca, cb)(r) == pytest.approx(max(a, b) * r)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
                min_size=2, max_size=8,
                unique_by=lambda p: round(p[0], 6)))
def test_envelope_dominates_samples(samples):
    env = fit_monotone_envelope(samples)
    for r, v in samples:
        assert env(r) >= v - 1e-9
    rs = sorted(r for r, _ in samples)
    vals = [env(r) for r in rs]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_envelope_zero_anchor():
    env = fit_monotone_envelope([(1.0, 1.0), (2.0, 2.0)], zero_anchor=True)
    assert env(0.0) == 0.0
    assert env(0.5) == pytest.approx(0.5)


def test_make_strictly_increasing_lifts_flats():
    c = pwl([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)], "K")
    k = make_strictly_increasing(c)
    assert k.claimed_class == "Kinf"
    assert k(2.0) > k(1.0)
    assert k(1.0) >= 1.0
    # the lift dominates the original everywhere
    for r in np.linspace(0.0, 3.0, 13):
        assert k(r) >= c(r) - 1e-15


def test_make_strictly_increasing_prepends_origin():
    k = make_strictly_increasing(pwl([(1.0, 0.0), (2.0, 1.0)], "mono"))
    assert k(0.0) == 0.0
    assert k.claimed_class == "Kinf"


def test_make_strictly_increasing_lifts_flats_where_the_lift_rounds_away():
    # 1e-9 is below the float spacing at 4.7e7, so the flat segment must
    # rise by at least one ulp to stay strictly increasing
    k = make_strictly_increasing(pwl([(0, 0), (1e8, 4.7e7), (1e8 + 1, 4.7e7)]))
    assert np.all(np.diff(k.vals) > 0)
    assert k.vals[2] == np.nextafter(4.7e7, np.inf)
    assert check_class(k).ok
    # here the lifted segment's slope rounds below 1e-9, so a tail point
    # is added, and its lift of 1e-9 rounds away too
    k = make_strictly_increasing(pwl([(0, 0), (1e8, 4.7e7), (1.1e8, 4.7e7)]))
    assert k.breaks.size == 4
    assert np.all(np.diff(k.vals) > 0)
    assert k.vals[3] == np.nextafter(k.vals[2], np.inf)


def test_scale_and_final_slope_of_a_lazy_chain():
    # a power after a pwl curve has no closed form, so compose keeps the chain
    f, g = power(2.0, 3.0), pwl([(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)], "Kinf")
    c = compose(f, g)
    assert c.kind == "compose"
    r = np.geomspace(1e-3, 1e3)
    assert np.array_equal(scale(c, 2.5)(r), 2.5 * c(r))
    assert c.final_slope() == f.final_slope() * g.final_slope() == 3e6


# Decay surfaces ---------------------------------------------------------


def _staircase_table(radii, sigma, depth=4, tau=1.0):
    return {r: [float(n) * tau for n in range(depth + 1)] for r in radii}


def test_kl_surface_initial_value_doubles_sigma():
    sigma = identity()
    surf = kl_from_decay_table(_staircase_table((0.5, 1.0, 2.0), sigma), sigma)
    for r in (0.5, 1.0, 2.0):
        assert surf(r, 0.0) == 2.0 * sigma(r)


def test_kl_surface_monotone_in_both_arguments():
    sigma = identity()
    surf = kl_from_decay_table(_staircase_table((0.5, 1.0, 2.0), sigma), sigma)
    ts = np.linspace(0.0, 6.0, 25)
    for r in (0.5, 1.0, 2.0):
        vals = [surf(r, t) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    for t in (0.0, 1.5, 4.0):
        assert surf(0.5, t) <= surf(1.0, t) + 1e-12 <= surf(2.0, t) + 2e-12


def test_kl_surface_holds_last_level_beyond_table():
    # after the final attainment time only the last certified level is
    # claimed; the curve must not extrapolate toward zero
    sigma = identity()
    surf = kl_from_decay_table(_staircase_table((1.0,), sigma, depth=4), sigma)
    last_level = sigma(1.0) * 2.0 ** (-3)
    assert surf(1.0, 4.0) == pytest.approx(last_level)
    assert surf(1.0, 400.0) == pytest.approx(last_level)


def test_kl_surface_blends_between_grid_radii():
    sigma = identity()
    surf = kl_from_decay_table(_staircase_table((1.0, 2.0), sigma), sigma)
    v = surf(1.5, 0.0)
    assert surf(1.0, 0.0) <= v <= surf(2.0, 0.0)


def test_kl_surface_scales_below_smallest_radius():
    sigma = identity()
    surf = kl_from_decay_table(_staircase_table((1.0, 2.0), sigma), sigma)
    assert surf(0.5, 0.0) == pytest.approx(0.5 * surf(1.0, 0.0))
    assert surf(0.0, 1.0) == 0.0


def test_max_with_dominates_both():
    sigma = identity()
    a = kl_from_decay_table(_staircase_table((1.0, 2.0), sigma, tau=1.0), sigma)
    b = kl_from_decay_table(_staircase_table((1.0, 2.0), sigma, tau=2.0), sigma)
    m = max_surface([a, b])
    for r in (1.0, 2.0):
        for t in (0.0, 0.5, 1.5, 3.0, 10.0):
            assert m(r, t) >= a(r, t) - 1e-12
            assert m(r, t) >= b(r, t) - 1e-12


def test_max_with_on_different_radii_dominates_off_the_grid():
    sigma = identity()
    a = kl_from_decay_table(_staircase_table((1.0, 2.0), sigma, tau=1.0), sigma)
    b = kl_from_decay_table(_staircase_table((0.5, 1.5, 3.0), sigma, tau=2.0),
                            sigma)
    m = max_surface([a, b])
    assert list(m.radii) == [0.5, 1.0, 1.5, 2.0, 3.0]
    for r in (0.25, 0.75, 1.25, 1.75, 2.5, 4.0):
        for t in (0.0, 0.5, 1.5, 2.25, 3.0, 7.5, 10.0):
            assert m(r, t) >= a(r, t) - 1e-12
            assert m(r, t) >= b(r, t) - 1e-12
    with pytest.raises(ValueError):
        m(1.25, -1.0)


def test_kl_surface_holds_its_last_curve_above_the_largest_radius():
    sigma = identity()
    surf = kl_from_decay_table(_staircase_table((1.0, 2.0), sigma), sigma)
    ts = np.array([0.0, 0.5, 2.0, 3.5, 100.0])
    assert np.array_equal(surf(5.0, ts), surf(2.0, ts))
    assert np.array_equal(surf(5.0, ts), surf.curves[-1](ts))


def test_max_surface_folds():
    sigma = identity()
    surfs = [kl_from_decay_table(_staircase_table((1.0,), sigma, tau=k), sigma)
             for k in (1.0, 2.0, 3.0)]
    m = max_surface(surfs)
    assert m(1.0, 2.5) == pytest.approx(max(s(1.0, 2.5) for s in surfs))


def test_decay_table_validation():
    sigma = identity()
    with pytest.raises(ValueError):
        kl_from_decay_table({1.0: [1.0, 2.0]}, sigma)  # t0 != 0
    with pytest.raises(ValueError):
        kl_from_decay_table({1.0: [0.0, 0.0]}, sigma)  # ties
    with pytest.raises(ValueError):
        kl_from_decay_table({1.0: []}, sigma)          # no times
    with pytest.raises(ValueError):
        kl_from_decay_table({0.0: [0.0]}, sigma)       # radius 0
    with pytest.raises(ValueError):
        kl_from_decay_table({1.0: [0.0]}, zero_curve())  # sigma(r) == 0


@pytest.mark.parametrize("sigma", [
    linear(1.7), power(0.9, 1.6),
    pwl([(0.0, 0.0), (0.3, 0.1), (1.0, 0.35), (4.0, 5.0)], "K")],
    ids=["linear", "power", "pwl"])
def test_dyadic_levels_equal_the_per_level_formula(sigma):
    # sigma(r) times an exact power of two: the same float however formed
    for r in (0.05, 0.7, 1.0, 3.3, 20.0):
        for depth in range(61):
            want = [float(sigma(r)) * 2.0 ** (-n) for n in range(depth + 1)]
            assert _dyadic_levels(sigma, r, depth).tolist() == want


# Class checks -----------------------------------------------------------


@pytest.mark.parametrize("curve, detail", [
    (ScalarCurve("expdec", "K", {"c": 1.0, "lam": 1.0}),
     "value at 0 is nonzero"),
    (ScalarCurve("sat", "K", {"a": -1.0}), "decreasing step on grid"),
    (pwl([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 2.0)], "K"),
     "not strictly increasing on grid"),
    (pwl([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 2.0)], "Kinf"),
     "not strictly increasing on grid"),
    (ScalarCurve("sat", "Kinf", {"a": 1.0}), "bounded tail cannot be Kinf"),
    (ScalarCurve("linear", "L", {"a": 1.0}), "increasing step on grid"),
    (pwl([(0.0, 2.0), (1.0, 1.0), (2.0, 1.0)], "L"),
     "does not approach the floor"),
    (ScalarCurve("expdec", "mono", {"c": 1.0, "lam": 1.0}),
     "decreasing step on grid"),
    (ScalarCurve("expdec", "mono", {"c": -1.0, "lam": 1.0}), "negative value"),
], ids=lambda v: v if isinstance(v, str) else v.claimed_class)
def test_check_class_names_the_failure(curve, detail):
    report = check_class(curve)
    assert not report.ok
    assert (report.claimed, report.detail) == (curve.claimed_class, detail)


# Serialization ----------------------------------------------------------


@pytest.mark.parametrize("curve", [
    linear(2.5),
    power(1.5, 0.75),
    saturating(2.0),
    expdecay(3.0, 0.25),
    pwl([(0.0, 0.0), (1.0, 2.0), (3.0, 2.5)], "K"),
    pwl([(0.0, 2.0), (1.0, 0.5)], "L", floor=0.5),
])
def test_curve_json_round_trip(curve):
    back = curve_from_json(curve_to_json(curve))
    for r in (0.0, 0.3, 1.0, 2.7, 15.0):
        assert back(r) == pytest.approx(curve(r), abs=1e-12)


def test_curve_json_preserves_floor():
    c = pwl([(0.0, 2.0), (2.0, 0.125)], "L", floor=0.125)
    obj = curve_to_json(c)
    assert obj["floor"] == 0.125
    assert curve_from_json(obj)(100.0) == 0.125


def test_surface_json_round_trip():
    sigma = identity()
    surf = kl_from_decay_table(_staircase_table((0.5, 1.0), sigma), sigma)
    back = surface_from_json(surface_to_json(surf))
    assert isinstance(back, KLSurface)
    for r in (0.25, 0.5, 0.75, 1.0):
        for t in (0.0, 1.5, 3.0, 50.0):
            assert back(r, t) == pytest.approx(surf(r, t), abs=1e-12)


def test_composition_serializes_as_sampled_pwl():
    c = compose(saturating(2.0), power(1.0, 2.0))
    back = curve_from_json(curve_to_json(c))
    for r in (0.1, 0.9, 2.0):
        assert back(r) == pytest.approx(c(r), rel=1e-3)
