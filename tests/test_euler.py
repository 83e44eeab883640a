import cmath
import dataclasses
import math

import numpy as np
import pytest

from sphere_re.dynamics import meridian_re_residual
from sphere_re import euler
from sphere_re.errors import (
    DegenerateDiscriminant,
    ExcludedAngle,
    InconsistentRatios,
    InternalError,
    SingularSeparation,
)
from sphere_re.euler import (
    EreSolution,
    _ISO_FAMILIES,
    _KINDS,
    _classify_rows,
    _isosceles_rows,
    _sign_changes,
    critical_angle_ac,
    critical_angle_ac_bisection,
    discriminant,
    ere_omega2,
    ere_scan,
    ere_shape_det,
    fg_pair,
    g_cyclic,
    iso_omega2_function,
    isosceles_ere_classify,
    reconstruct_meridian,
    repulsive_mirror,
    scalene_curve_value,
    scalene_curve_y,
    scalene_shape,
    solve_ere,
    solve_ere_many,
)
from sphere_re.geometry import MeridianShape3, wrap_angle
from sphere_re.potential import COTANGENT, NEGATED_COTANGENT, SINGULAR_SIN2, custom_potential
import oracles
from oracles import (
    classical_cc_residual,
    classical_quintic_limit,
    classify_shape_row,
    degenerate_shape_constraints,
    g_equal_mass,
    scalar_ere_scan,
)
from oracles import solve_ere as oracle_solve_ere

ONES = np.ones(3)

# rate of the pole-middle family at spread 0.5, frozen from the
# equilibrium residual: meridian_re_residual((-0.5, 0.5, 0), ., om2) = 0
OM2_POLE_MIDDLE_HALF = 13.697366470914243


def test_discriminant_degenerate_shapes():
    assert discriminant(MeridianShape3(2 * math.pi / 3, -2 * math.pi / 3), ONES).D == pytest.approx(0.0, abs=1e-12)
    assert discriminant(MeridianShape3(2 * math.pi / 3, math.pi / 3), ONES).D == pytest.approx(0.0, abs=1e-12)
    assert discriminant(MeridianShape3(math.pi / 3, 2 * math.pi / 3), ONES).D == pytest.approx(0.0, abs=1e-12)
    assert discriminant(MeridianShape3(math.pi / 3, -math.pi / 3), ONES).D == pytest.approx(0.0, abs=1e-12)


def test_discriminant_equilateral_unequal_masses():
    # A^2 = sum of squared mass gaps / 2
    d = discriminant(MeridianShape3(2 * math.pi / 3, -2 * math.pi / 3), [1.0, 2.0, 3.0])
    assert d.D == pytest.approx(((1 - 2) ** 2 + (2 - 3) ** 2 + (1 - 3) ** 2) / 2.0, rel=1e-12)
    assert d.A == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_discriminant_equal_mass_formula(rng):
    # D = 3 + 2 (cos 2a + cos 2x + cos 2(x - a)) for unit masses
    for _ in range(30):
        a = rng.uniform(0.1, math.pi - 0.1)
        x = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
        d = discriminant(MeridianShape3(a, x), ONES)
        expect = 3.0 + 2.0 * (math.cos(2 * a) + math.cos(2 * x) + math.cos(2 * (x - a)))
        assert d.D == pytest.approx(expect, abs=1e-12)


def test_degenerate_constraints_equal_masses():
    rep = degenerate_shape_constraints(ONES)
    assert rep.attainable
    # each base solution satisfies the two constraint equations
    for t12, t13 in rep.solutions:
        c1 = 1.0 + math.cos(2 * t12) + math.cos(2 * t13)
        c2 = math.sin(2 * t12) + math.sin(2 * t13)
        assert abs(c1) < 1e-12 and abs(c2) < 1e-12
    # the four degenerate equal-mass shapes satisfy D = 0
    for a, x in [
        (2 * math.pi / 3, -2 * math.pi / 3),
        (math.pi / 3, 2 * math.pi / 3),
        (math.pi / 3, -math.pi / 3),
        (2 * math.pi / 3, math.pi / 3),
    ]:
        assert discriminant(MeridianShape3(a, x), ONES).D == pytest.approx(0.0, abs=1e-12)


def test_degenerate_constraints_dominant_mass():
    assert not degenerate_shape_constraints([5.0, 1.0, 1.0]).attainable


def test_degenerate_constraints_boundary_masses():
    # m1 = m2 + m3: attainable only with the two bodies coincident
    rep = degenerate_shape_constraints([2.0, 1.0, 1.0])
    assert rep.attainable
    (t12a, t13a), (t12b, t13b) = rep.solutions
    assert t12a == pytest.approx(t13a, abs=1e-12)
    assert t12b == pytest.approx(t13b, abs=1e-12)


def test_reconstruct_meridian_isosceles_pole():
    # spread 0.5 about the middle: s = +1 puts the middle body at a pole
    th = reconstruct_meridian(MeridianShape3(1.0, 0.5), ONES, +1)
    assert th == pytest.approx([-0.5, 0.5, 0.0], abs=1e-12)
    # branch flip shifts every body by pi/2
    th2 = reconstruct_meridian(MeridianShape3(1.0, 0.5), ONES, -1)
    diff = np.array([wrap_angle(b - a) for a, b in zip(th, th2)])
    assert np.abs(diff) == pytest.approx([math.pi / 2] * 3, abs=1e-12)


def test_reconstruct_meridian_balance(rng):
    for _ in range(40):
        a = rng.uniform(0.1, math.pi - 0.1)
        x = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
        m = rng.uniform(0.2, 5.0, 3)
        shape = MeridianShape3(a, x)
        if discriminant(shape, m).A < 1e-6:
            continue
        for s in (+1, -1):
            th = reconstruct_meridian(shape, m, s)
            assert abs(np.sum(m * np.sin(2 * th))) < 1e-10 * m.sum()


def test_reconstruct_meridian_degenerate_raises():
    with pytest.raises(DegenerateDiscriminant):
        reconstruct_meridian(MeridianShape3(2 * math.pi / 3, math.pi / 3), ONES, +1)


def test_fg_pair_antisymmetry(rng):
    for _ in range(20):
        th = rng.uniform(-1.5, 1.5, 3)
        if min(abs(math.sin(th[i] - th[j])) for i, j in ((0, 1), (1, 2), (2, 0))) < 0.05:
            continue
        m = rng.uniform(0.2, 5.0, 3)
        fg = fg_pair(th, m)
        fg_swapped = fg_pair(th[[1, 0, 2]], m[[1, 0, 2]])
        # swapping bodies 1 and 2 negates the (1,2) pair quantities
        assert fg_swapped.f12 == pytest.approx(-fg.f12, rel=1e-12)
        assert fg_swapped.g12 == pytest.approx(-fg.g12, rel=1e-12)


def test_ere_shape_det_isosceles_zero():
    det, _ = ere_shape_det(MeridianShape3(1.0, 0.5), ONES)
    assert abs(det) < 1e-14


def test_ere_shape_det_off_curve_nonzero():
    det, _ = ere_shape_det(MeridianShape3(1.0, 0.4), ONES)
    assert abs(det) > 1e-3


def test_ere_shape_det_scalene_curve_zero():
    shape = scalene_shape(1.7)
    det, _ = ere_shape_det(shape, ONES)
    assert abs(det) < 1e-10


def test_ere_omega2_isosceles_matches_family_rate():
    s, om2, fixed, undet = ere_omega2(MeridianShape3(1.0, 0.5), ONES)
    assert not fixed and not undet
    assert s == +1
    assert om2 == pytest.approx(OM2_POLE_MIDDLE_HALF, rel=1e-12)
    assert om2 == pytest.approx(iso_omega2_function(0.5), rel=1e-12)


def test_solve_ere_isosceles_half():
    sol = solve_ere(MeridianShape3(1.0, 0.5), ONES)
    assert sol.family == "isosceles-pole-middle"
    assert sol.thetas == pytest.approx([-0.5, 0.5, 0.0], abs=1e-12)
    assert sol.omega2 == pytest.approx(OM2_POLE_MIDDLE_HALF, rel=1e-12)
    assert sol.max_residual < 1e-12


def test_solve_ere_degenerate_isosceles():
    sol = solve_ere(MeridianShape3(2 * math.pi / 3, math.pi / 3), ONES)
    assert sol.family == "degenerate"
    assert sol.thetas == pytest.approx([-math.pi / 3, math.pi / 3, 0.0], abs=1e-12)
    assert sol.omega2 == pytest.approx(32.0 / (3.0 * math.sqrt(3.0)), rel=1e-12)
    assert sol.max_residual < 1e-12


def test_solve_ere_equilateral_fixed_point():
    sol = solve_ere(MeridianShape3(2 * math.pi / 3, -2 * math.pi / 3), ONES)
    assert sol.fixed_point
    assert sol.omega2 == 0.0
    assert sol.max_residual < 1e-12


def test_solve_ere_equilateral_unequal_masses():
    # any masses admit the equilateral meridian RE; for (1, 2, 3) the
    # branch ratio gives omega^2 = 2 A U'(-1/2) = 16/3 with s = -1
    sol = solve_ere(MeridianShape3(2 * math.pi / 3, -2 * math.pi / 3), [1.0, 2.0, 3.0])
    assert sol.s == -1
    assert sol.omega2 == pytest.approx(16.0 / 3.0, rel=1e-12)
    assert sol.max_residual < 1e-12
    assert abs(np.sum(np.array([1.0, 2.0, 3.0]) * np.sin(2 * sol.thetas))) < 1e-10


def test_scalene_curve_endpoints():
    ac = critical_angle_ac()
    assert scalene_curve_y(ac) == pytest.approx(1.0, abs=1e-9)
    # no curve below pi/2 or above a_c
    assert scalene_curve_y(1.3) is None
    assert scalene_curve_y(ac + 1e-3) is None


def test_scalene_curve_consistency():
    # points on the curve satisfy the shape condition
    for a in (1.6, 1.7, 1.75, 1.8):
        shape = scalene_shape(a)
        assert shape is not None
        assert abs(g_equal_mass(shape.a, shape.x)) < 1e-10


def test_scalene_curve_matches_inline_formula_bit_for_bit():
    # the wedge, both radicand signs, a = pi/2 and the branch end
    on_branch = 0
    for a in [*np.linspace(0.01, math.pi - 0.01, 2001), math.pi / 2, critical_angle_ac(), 1.87, 1.86]:
        got, want = scalene_curve_y(float(a)), oracles.scalene_curve_y(float(a))
        assert (got is None and want is None) or got.hex() == want.hex()
        on_branch += got is not None
    assert on_branch > 100
    want = oracles.bisect(lambda a: scalene_curve_value(a) - 1.0, 1.7, 1.85, tol=1e-12)
    assert critical_angle_ac_bisection().hex() == want.hex()


def test_critical_angle_value_and_oracle():
    ac = critical_angle_ac()
    assert math.cos(ac) == pytest.approx(-0.2393101465977, abs=1e-10)
    assert abs(ac - critical_angle_ac_bisection()) < 1e-9
    assert 1.8124 <= ac < 1.8125


def test_isosceles_classify_families():
    third = math.pi / 3
    cand = isosceles_ere_classify(third)
    assert cand.family == "pole-middle"
    assert cand.omega2 == pytest.approx(32.0 / (3.0 * math.sqrt(3.0)), rel=1e-12)

    cand = isosceles_ere_classify(2 * math.pi / 3)
    assert cand.family == "fixed-point"
    assert cand.omega2 == 0.0

    # equator-middle branch; the rate that zeroes the residual is 2
    cand = isosceles_ere_classify(3 * math.pi / 4)
    assert cand.family == "equator-middle"
    assert cand.omega2 == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(meridian_re_residual(cand.thetas, ONES, cand.omega2))) < 1e-12

    with pytest.raises(ExcludedAngle):
        isosceles_ere_classify(math.pi / 2)


def test_isosceles_family_rates_zero_residual():
    for theta in (0.3, 0.5, 1.0, 1.3, 1.9, 2.4, 2.9):
        cand = isosceles_ere_classify(theta)
        resid = np.max(np.abs(meridian_re_residual(cand.thetas, ONES, cand.omega2)))
        assert resid < 1e-11, f"family rate fails the equations at theta={theta}"


def test_repulsive_mirror_solves_negated_potential():
    sol = solve_ere(MeridianShape3(1.0, 0.5), ONES)
    mir = repulsive_mirror(sol)
    assert mir.potential_name == "negated-cotangent"
    assert mir.max_residual < 1e-10
    # involution up to a common half-turn
    back = repulsive_mirror(mir)
    diff = np.array([wrap_angle(b - a) for a, b in zip(sol.thetas, back.thetas)])
    assert np.allclose(np.abs(diff), math.pi, atol=1e-12) or np.allclose(diff, 0.0, atol=1e-12)


@pytest.mark.parametrize("c", [0.37, 1.83])
def test_equal_mass_normal_form_scales_with_the_common_mass(c):
    # every pair force scales with the common mass, and so does omega^2
    for shape, family in ((MeridianShape3(0.8, -0.8), "pole-middle"), (MeridianShape3(2.3, -2.3), "equator-middle")):
        unit, sol = solve_ere(shape, ONES), solve_ere(shape, np.full(3, c))
        assert unit.family == sol.family == f"isosceles-{family}"
        assert sol.omega2 == pytest.approx(c * unit.omega2, rel=1e-12)
        assert sol.max_residual < 1e-12


def test_is_ere_bound_scales_with_the_masses_squared():
    # a residual is m_k times an acceleration linear in the masses
    unit, heavy = solve_ere(scalene_shape(1.7), ONES), solve_ere(scalene_shape(1.7), 1e4 * ONES)
    assert heavy.omega2 == pytest.approx(1e4 * unit.omega2, rel=1e-12)
    assert unit.is_ere and heavy.is_ere
    assert heavy.max_residual > 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="the normal-form acceptance, the polish trigger, the fixed-point test and the ratio floors are absolute",
)
def test_family_and_rate_do_not_depend_on_the_mass_scale():
    # at 1e4 the isosceles shape loses its normal form, at 1e-20 the scalene one solves as undetermined-rate
    for shape in (MeridianShape3(1.0, 0.5), scalene_shape(1.7)):
        unit = solve_ere(shape, ONES)
        for c in (1e-20, 1e4):
            sol = solve_ere(shape, c * ONES)
            assert sol.family == unit.family
            assert sol.omega2 / c == pytest.approx(unit.omega2, rel=1e-12)


def test_repulsive_mirror_fixed_point_unchanged():
    sol = solve_ere(MeridianShape3(2 * math.pi / 3, -2 * math.pi / 3), ONES)
    assert repulsive_mirror(sol) is sol


def test_g_symmetries(rng):
    # the numerator is symmetric under body relabelings
    for _ in range(40):
        a = rng.uniform(0.2, 3.0)
        x = rng.uniform(-3.0, 3.0)
        v = g_equal_mass(a, x)
        assert g_equal_mass(x, a) == pytest.approx(v, rel=1e-10, abs=1e-12)
        assert g_equal_mass(-a, x - a) == pytest.approx(v, rel=1e-10, abs=1e-12)


def test_g_cyclic_matches_equal_mass_form(rng):
    for _ in range(40):
        a = rng.uniform(0.2, 3.0)
        x = rng.uniform(-3.0, 3.0)
        assert g_cyclic(a, x, ONES) == pytest.approx(g_equal_mass(a, x), rel=1e-12, abs=1e-14)


def test_g_cyclic_matches_cyclic_loop_oracle_bit_for_bit(rng):
    a = rng.uniform(-math.pi, math.pi, 400)
    x = rng.uniform(-math.pi, math.pi, 400)
    # signed zeros, a coincident pair and an antipodal one
    a[:4] = (0.0, -0.0, math.pi, x[3])
    x[:3] = (-0.0, 0.0, 0.0)
    for m in (ONES, np.array([1.0, 2.0, 3.0]), rng.uniform(0.2, 5.0, 3)):
        assert g_cyclic(a, x, m).tobytes() == oracles.g_cyclic(a, x, m).tobytes()
        for k in range(4):
            assert np.array(g_cyclic(a[k], x[k], m)).tobytes() == np.array(oracles.g_cyclic(a[k], x[k], m)).tobytes()
        block = g_cyclic(a[:7, None], x[None, :], m)
        assert block.shape == (7, 400)
        assert block.tobytes() == np.array([oracles.g_cyclic(v, x, m) for v in a[:7]]).tobytes()


@pytest.mark.parametrize("na,nx", [(97, 131), (1, 131), (97, 2)])
def test_sign_changes_match_row_by_row_oracle(na, nx):
    # grids that the row block does not divide
    a_grid = np.linspace(0.0, math.pi, na + 2)[1:-1]
    x_grid = np.linspace(-math.pi, math.pi, nx + 2)[1:-1]
    for m in (ONES, np.array([1.0, 2.0, 3.0])):
        got = _sign_changes(a_grid, x_grid, m)
        assert got.shape == (na, nx - 1)
        assert np.array_equal(got, oracles.row_sign_changes(a_grid, x_grid, m))
        assert got.any()


def test_isosceles_lines_in_zero_set(rng):
    for _ in range(20):
        a = rng.uniform(0.2, 3.0)
        assert abs(g_equal_mass(a, 0.5 * a)) < 1e-13
        assert abs(g_equal_mass(a, 0.5 * a - math.pi)) < 1e-13
        assert abs(g_equal_mass(a, -a)) < 1e-13


def test_necessity_perturbation_off_curve(rng):
    # shapes 1e-3 off the solved curve violate the condition
    for a in (1.6, 1.7, 1.8):
        shape = scalene_shape(a)
        base = abs(g_equal_mass(shape.a, shape.x))
        assert base < 1e-10
        assert abs(g_equal_mass(shape.a, shape.x + 1e-3)) > 1e2 * max(base, 1e-12)
        assert abs(g_equal_mass(shape.a + 1e-3, shape.x)) > 1e2 * max(base, 1e-12)


def test_euclidean_limit_of_shape_condition(rng):
    # g(eps * offsets)/eps^5 approaches the flat-space quintic value at
    # second order in eps
    for _ in range(25):
        m = rng.uniform(0.2, 5.0, 3)
        x = np.sort(rng.uniform(-1.5, 1.5, 3))[::-1]
        if min(abs(x[0] - x[1]), abs(x[1] - x[2])) < 0.2:
            continue
        target = classical_quintic_limit(x, m)
        # offsets (0, a, x) with a = x2 - x1, x = x3 - x1
        a_off = x[1] - x[0]
        x_off = x[2] - x[0]
        errs = []
        for eps in (1e-2, 5e-3):
            val = float(g_cyclic(eps * a_off, eps * x_off, m)) / eps**5
            errs.append(abs(val - target))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order > 1.8, f"observed order {order}"


def test_classical_oracle_is_a_central_configuration(rng):
    # certify the flat-space determinant oracle: its root is a genuine
    # central configuration of the classical collinear problem
    from oracles import classical_collinear_det
    from sphere_re.roots import bisect

    for _ in range(5):
        m = rng.uniform(0.3, 3.0, 3)

        def det_of(rho):
            return classical_collinear_det(np.array([1.0 + rho, rho, 0.0]), m)

        grid = np.geomspace(0.05, 20.0, 200)
        vals = [det_of(g) for g in grid]
        root = None
        for i in range(len(grid) - 1):
            if (vals[i] > 0) != (vals[i + 1] > 0):
                root = bisect(det_of, grid[i], grid[i + 1], tol=1e-13)
                break
        assert root is not None
        assert classical_cc_residual(np.array([1.0 + root, root, 0.0]), m) < 1e-10


def test_classify_meridian_shape():
    kind, _ = classify_shape_row(MeridianShape3(2 * math.pi / 3, -2 * math.pi / 3))
    assert kind == "equilateral"
    kind, iso = classify_shape_row(MeridianShape3(1.0, 0.5))
    assert kind == "isosceles" and iso[0] == 2
    kind, _ = classify_shape_row(MeridianShape3(1.0, 0.4))
    assert kind == "scalene"
    # the wrapped far-side family is still isosceles about body 3
    kind, iso = classify_shape_row(MeridianShape3(1.0, 0.5 - math.pi))
    assert kind == "isosceles" and iso[0] == 2


# random spreads, the fixed point and pi/2 just inside and outside the
# 1e-12 windows, and the excluded ends
SPREADS = np.concatenate(
    [
        np.random.default_rng(9).uniform(0.0, math.pi, 20000),
        [2 * math.pi / 3 - 1e-13, 2 * math.pi / 3 + 1e-13, 2 * math.pi / 3],
        [math.pi / 2 - 1e-13, math.pi / 2 + 1e-13, math.pi / 2 - 1e-6, math.pi / 2 + 1e-6, math.pi / 2],
        [0.0, math.pi, 4.0, np.nan],
    ]
)


def test_isosceles_rows_match_the_scalar_normal_form_bit_for_bit():
    family, rate, place = _isosceles_rows(SPREADS)
    excluded = 0
    for k, theta in enumerate(SPREADS.tolist()):
        try:
            ref = oracles.isosceles_ere_classify(theta)
        except ExcludedAngle:
            excluded += 1
            assert family[k] == -1, theta
            continue
        assert _ISO_FAMILIES[family[k]] == ref.family, theta
        assert rate[k].tobytes() == np.float64(ref.omega2).tobytes(), theta
        assert place[k].tobytes() == ref.thetas.tobytes(), theta
    assert excluded == 7
    assert set(family.tolist()) == {-1, 0, 1, 2}
    for theta in SPREADS[-12:].tolist():
        try:
            ref = oracles.isosceles_ere_classify(theta)
        except ExcludedAngle:
            with pytest.raises(ExcludedAngle):
                isosceles_ere_classify(theta)
            continue
        got = isosceles_ere_classify(theta)
        assert (got.family, got.theta_middle, got.omega2) == (ref.family, ref.theta_middle, ref.omega2)
        assert got.thetas.tobytes() == ref.thetas.tobytes()


def test_classify_rows_match_the_scalar_classifier():
    rng = np.random.default_rng(4)
    t = rng.uniform(0.05, math.pi / 2 - 0.05, 300)
    third = 2 * math.pi / 3
    a = np.concatenate(
        [
            rng.uniform(1e-3, math.pi - 1e-3, 2000),
            2 * t, 2 * t, t, t, math.pi - t,  # isosceles about bodies 3, 3 (far side), 1, 2, 2 (wrapped)
            2 * t, 2 * t,  # about body 3 but off by 1e-10 (inside the tolerance) and 1e-8 (outside)
            [third, third + 1e-10, third + 1e-8],  # equilateral, inside and outside the tolerance
        ]
    )
    x = np.concatenate(
        [
            rng.uniform(-math.pi + 1e-3, math.pi - 1e-3, 2000),
            t, t - math.pi, -t, 2 * t, 2 * (math.pi - t) - 2 * math.pi,
            t + 1e-10, t + 1e-8,
            [-third, -third, -third],
        ]
    )
    kind, middle, w = _classify_rows(a, x)
    for k, (ak, xk) in enumerate(zip(a.tolist(), x.tolist())):
        ref_kind, ref_iso = oracles.classify_meridian_shape(MeridianShape3(ak, xk))
        assert _KINDS[kind[k]] == ref_kind
        assert classify_shape_row(MeridianShape3(ak, xk)) == (ref_kind, ref_iso)
        if ref_iso is not None:
            assert (middle[k], w[k].tobytes()) == (ref_iso[0], np.float64(ref_iso[1]).tobytes())
    assert np.bincount(kind).tolist()[:2] == [2, 1800] and np.bincount(middle[kind == 1]).min() >= 300


@pytest.mark.parametrize("c", [0.5, 2.0, 1.83])
@pytest.mark.parametrize("masses", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0)], ids=["equal", "unequal"])
def test_ere_scan_scales_with_a_common_mass(masses, c):
    # a common factor c scales g and every pair force: the same hits and
    # families, and omega^2 times c
    base = ere_scan(masses, na=97, nx=97)
    scaled = ere_scan(c * np.array(masses), na=97, nx=97)
    assert [h.solution.family for h in scaled] == [h.solution.family for h in base]
    assert np.allclose([(h.a, h.x) for h in scaled], [(h.a, h.x) for h in base], rtol=0.0, atol=1e-11)
    want = [c * h.solution.omega2 for h in base]
    assert np.allclose([h.solution.omega2 for h in scaled], want, rtol=1e-8, atol=0.0)


def test_ere_scan_small_grid_families_and_soundness():
    hits = ere_scan(ONES, na=120, nx=120)
    assert len(hits) > 100
    families = {h.solution.family for h in hits}
    assert "isosceles-pole-middle" in families
    assert "isosceles-equator-middle" in families
    assert "scalene" in families
    for h in hits:
        assert h.solution.max_residual < 1e-10
        assert h.min_sin_separation >= 0.03
    # scalene hits keep their largest separation beyond pi/2, which is
    # why this family has no flat-space counterpart
    for h in hits:
        if h.solution.family == "scalene":
            seps = np.abs(MeridianShape3(h.a, h.x).separations())
            assert seps.max() > math.pi / 2
            assert seps.max() < critical_angle_ac() + 1e-6


def test_ere_scan_negated_potential_same_zero_set():
    att = ere_scan(ONES, na=40, nx=40)
    rep = ere_scan(ONES, na=40, nx=40, pot=NEGATED_COTANGENT)
    assert len(att) == len(rep)
    for h1, h2 in zip(att, rep):
        assert h1.x == pytest.approx(h2.x, abs=1e-11)
        assert h2.solution.max_residual < 1e-10


def assert_same_solution(got, ref):
    """Every field of two EreSolutions agrees bit for bit."""
    for field in dataclasses.fields(ref):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("grid", [48, 97])
@pytest.mark.parametrize(
    "masses,pot",
    [(ONES, COTANGENT), ((1.0, 2.0, 3.0), COTANGENT), (ONES, NEGATED_COTANGENT), ((0.7, 1.3, 2.9), COTANGENT)],
    ids=["equal", "unequal", "negated", "unequal-b"],
)
def test_ere_scan_matches_scalar_oracle(grid, masses, pot):
    hits = ere_scan(masses, na=grid, nx=grid, pot=pot)
    ref = scalar_ere_scan(masses, grid, grid, pot)
    assert [(h.a, h.x, h.g) for h in hits] == [r[:3] for r in ref]
    for h, r in zip(hits, ref):
        assert_same_solution(h.solution, r[3])


@pytest.mark.parametrize(
    "grid,masses,pot",
    [(720, ONES, COTANGENT), (720, (1.0, 2.0, 3.0), COTANGENT), (97, (0.7, 1.3, 2.9), NEGATED_COTANGENT)],
    ids=["equal", "unequal", "negated"],
)
def test_ere_scan_equals_solve_ere_many_on_its_hits(grid, masses, pot):
    hits = ere_scan(masses, na=grid, nx=grid, pot=pot)
    assert [(h.a, h.x) for h in hits] == sorted((h.a, h.x) for h in hits)  # row-major
    sols = solve_ere_many([MeridianShape3(h.a, h.x) for h in hits], masses, pot)
    assert len(sols) == len(hits) > 0
    for h, want in zip(hits, sols):
        assert isinstance(want, EreSolution)
        for field in dataclasses.fields(want):
            a, b = getattr(h.solution, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert (a, type(a)) == (b, type(b)), field.name


def test_ere_scan_table_checks_the_shape_domain(monkeypatch):
    solve_rows = euler._solve_rows

    def moved(a, x, m, pot):  # one solution shape pushed out of 0 < a < pi
        cols, errors = solve_rows(a, x, m, pot)
        cols["shape_a"][3] *= -1.0
        return cols, errors

    monkeypatch.setattr(euler, "_solve_rows", moved)
    with pytest.raises(InternalError, match="outside 0 < a < pi"):
        ere_scan(ONES, na=48, nx=48)


# fixed point of the (1, 2, 3) cotangent meridian: F_12 = F_23 = F_31
FIXED_123 = MeridianShape3(2.54092405514223, -2.3770338564036337)

MIXED_BATCHES = {
    "equal": (
        ONES,
        [
            MeridianShape3(2 * math.pi / 3, math.pi / 3),  # A = 0: degenerate solve
            MeridianShape3(1.0, 0.5),  # isosceles normal form
            MeridianShape3(math.pi / 2, -math.pi / 2),  # excluded spread pi/2, falls through
            MeridianShape3(2 * math.pi / 3 + 3e-9, -2 * math.pi / 3),  # undetermined rate
            MeridianShape3(1.8, 1.1194599199604674),  # off the curve by 1e-6: seeded, polished
            MeridianShape3(1.0, 0.4),  # far off the curve: seeded, polish lands 0.09 away, refused
            MeridianShape3(1.0, 1.0 + 1e-9),  # singular pair
            scalene_shape(1.8),
            MeridianShape3(2e-8, 1e-8),  # isosceles normal form with a singular pair
        ],
    ),
    "unequal": (
        np.array([1.0, 2.0, 3.0]),
        [
            FIXED_123,  # fixed point
            MeridianShape3(2 * math.pi / 3, -2 * math.pi / 3),
            MeridianShape3(1.0, 0.4),
            MeridianShape3(1.0, 1.0 + 1e-9),
            MeridianShape3(2.0, 0.9),
        ],
    ),
    "unequal-degenerate": (
        np.array([1.0, 1.5, 2.0]),
        [
            MeridianShape3(0.659058035826409, 1.977174107479227),  # A = 0: degenerate solve
            MeridianShape3(2.0, 0.9),
            MeridianShape3(1.0, 1.0 + 1e-9),
        ],
    ),
    # m1 = m2 + m3: A = 0 when bodies 2 and 3 share an axis a quarter turn from body 1
    "singular-degenerate": (
        np.array([2.0, 1.0, 1.0]),
        [
            MeridianShape3(math.pi / 2, math.pi / 2),  # A = 0 with a coincident pair
            MeridianShape3(math.pi / 2, -math.pi / 2),  # A = 0 with an antipodal pair
            MeridianShape3(1.0, 0.4),
        ],
    ),
}


@pytest.mark.parametrize("batch", sorted(MIXED_BATCHES))
def test_solve_ere_many_matches_oracle_row_by_row(batch):
    masses, shapes = MIXED_BATCHES[batch]
    got = solve_ere_many(shapes, masses)
    assert len(got) == len(shapes)
    for shape, sol in zip(shapes, got):
        try:
            ref = oracle_solve_ere(shape, masses)
        except (SingularSeparation, InconsistentRatios) as exc:
            assert type(sol) is type(exc)
            with pytest.raises(type(exc)):
                solve_ere(shape, masses)
            continue
        assert_same_solution(sol, ref)
        assert_same_solution(solve_ere(shape, masses), ref)


def test_mixed_batches_reach_every_branch():
    families = {
        "equal": ["degenerate", "isosceles-pole-middle", SingularSeparation, "undetermined-rate",
                  "scalene", "scalene", SingularSeparation, "scalene", SingularSeparation],
        "unequal": ["fixed-point", "equilateral", "scalene", SingularSeparation, "scalene"],
        "unequal-degenerate": ["degenerate", "scalene", SingularSeparation],
        "singular-degenerate": [SingularSeparation, SingularSeparation, "scalene"],
    }
    for batch, expect in families.items():
        masses, shapes = MIXED_BATCHES[batch]
        got = [type(s) if isinstance(s, Exception) else s.family for s in solve_ere_many(shapes, masses)]
        assert got == expect
    # the two seeded rows: one polished onto the curve, one refused
    near, far = solve_ere_many(MIXED_BATCHES["equal"][1][4:6], ONES)
    assert near.max_residual < 1e-12 and near.shape != MIXED_BATCHES["equal"][1][4]
    assert far.max_residual > 1.0


def test_producers_never_receive_a_singular_pair(monkeypatch):
    # the singular-pair test runs once, before any producer: no producer
    # sees a shape with a pair at or numerically at 0 or pi
    received = []
    for name in ("_degenerate_rows", "_normal_form_rows", "_generic_rows"):
        def recording(rows, *args, _producer=getattr(euler, name), _name=name):
            received.append((_name, rows))
            return _producer(rows, *args)

        monkeypatch.setattr(euler, name, recording)
    for batch, (masses, shapes) in MIXED_BATCHES.items():
        received.clear()
        solve_ere_many(shapes, masses)
        assert received, batch
        for name, rows in received:
            for k in rows.tolist():
                sines = np.sin(np.array(shapes[k].separations()))
                assert (sines * sines >= SINGULAR_SIN2).all(), (batch, name, shapes[k])


def a_zero_shapes(masses):
    """Every shape (a, x) in the domain with m1 + m2 e^{2ia} + m3 e^{2ix} = 0, on each of its four branches."""
    m1, m2, m3 = masses
    alpha = math.acos(min(1.0, max(-1.0, (m3 * m3 - m1 * m1 - m2 * m2) / (2.0 * m1 * m2))))
    shapes = []
    for two_a in (alpha, 2.0 * math.pi - alpha):
        half = 0.5 * cmath.phase(-(m1 + m2 * cmath.exp(1j * two_a)) / m3)
        shapes += [MeridianShape3(0.5 * two_a, half), MeridianShape3(0.5 * two_a, wrap_angle(half + math.pi))]
    return shapes


A_ZERO_MASSES = [(1.0, 1.0, 1.0), (1.0, 1.5, 2.0), (2.0, 1.0, 1.0), (1.0, 2.0, 2.5), (3.0, 4.0, 5.0)]
QUADRATIC = custom_potential(lambda c: c + 0.25 * c * c, lambda c: 1.0 + 0.5 * c, attractive=True, name="quadratic")


def assert_same_row(got, want):
    """Two solve_ere_many results agree bit for bit: the same exception, or the same solution."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert_same_solution(got, want)
    for name in ("thetas", "residuals", "omega2"):
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes(), name


@pytest.mark.parametrize("pot", [COTANGENT, NEGATED_COTANGENT, QUADRATIC], ids=lambda pot: pot.name)
def test_a_zero_rows_match_the_row_loop_oracle_bit_for_bit(monkeypatch, pot):
    # the A = 0 rows take one Gauss-Newton call per batch; the oracle one per row
    calls, routed, families, sizes = [], [], [], []
    gauss_newton, degenerate_rows = euler.gauss_newton, euler._degenerate_rows

    def counting(residual, x0, **kw):
        calls.append(x0.shape)
        return gauss_newton(residual, x0, **kw)

    def recording(rows, *args):
        routed.append(rows.size)
        return degenerate_rows(rows, *args)

    for masses in A_ZERO_MASSES:
        shapes = a_zero_shapes(masses)
        with monkeypatch.context() as patch:
            patch.setattr(euler, "_degenerate_rows", oracles._degenerate_rows)
            want = solve_ere_many(shapes, masses, pot)
        with monkeypatch.context() as patch:
            patch.setattr(euler, "gauss_newton", counting)
            patch.setattr(euler, "_degenerate_rows", recording)
            calls.clear()
            routed.clear()
            got = solve_ere_many(shapes, masses, pot)
            # the A = 0 solve is the only one in two unknowns, (theta_1, omega^2)
            assert [c for c in calls if c[1] == 2] == [(n, 2) for n in routed]
            sizes += routed
        for shape, g, w in zip(shapes, got, want):
            assert_same_row(g, w)
            assert_same_row(solve_ere_many([shape], masses, pot)[0], w)
        families += [type(w) if isinstance(w, Exception) else w.family for w in want]
    assert len(families) == 20 and max(sizes) == 4
    assert families.count("degenerate") == 12 and families.count("degenerate-fixed-point") == 1
    assert SingularSeparation in families


# two A = 0 shapes whose pair 23 lies within rounding of the singular
# bound, found by bisecting x across it at masses (2 cos(phi), 1, 1),
# phi ~ 1e-7: the offsets (0, a, x) pass the singular test, but the sums
# theta_1 + offset of some seeds cross the bound, the first seed's on one row
EDGE_MASSES = np.array([1.9999999999999907, 1.0, 1.0])
EDGE_SHAPES = np.array([[1.5707962750801774, -1.5707962785096157], [1.5707962750801774, 1.5707963750801774]])


def test_a_zero_rows_singular_at_some_seeds_match_the_row_loop_oracle():
    a, x = EDGE_SHAPES.T
    offs = np.stack([np.zeros(2), a, x], axis=1)
    assert not np.isnan(euler._residual_rows(offs, EDGE_MASSES, 0.0, COTANGENT)).any()
    seeds = (np.linspace(-math.pi / 2, math.pi / 2, 37)[:, None, None] + offs).reshape(-1, 3)
    nan = np.isnan(euler._residual_rows(seeds, EDGE_MASSES, 0.0, COTANGENT)).any(axis=1).reshape(37, 2)
    assert nan[0].tolist() == [True, False] and nan.any(axis=0).all() and not nan.all(axis=0).any()
    puts = []
    for producer in (euler._degenerate_rows, oracles._degenerate_rows):
        producer(np.arange(2), a, x, EDGE_MASSES, COTANGENT, lambda *args: puts.append(args))
    (rows, *got), (_, *want) = puts
    assert rows.tolist() == [0, 1]
    thetas, omega2, fixed, names = got
    assert np.concatenate([thetas, omega2[:, None]], axis=1).tobytes() == np.column_stack(want[:2]).tobytes()
    assert fixed.tolist() == want[2].tolist() and names.tolist() == want[3].tolist()


def test_ere_scan_refuses_a_custom_potential_equal_to_the_cotangent():
    custom = custom_potential(COTANGENT.u, COTANGENT.du, True, name="cotangent")
    for pot in (custom, custom.negated()):
        with pytest.raises(ValueError, match="the scanner brackets the cotangent-family numerator g"):
            euler.ere_scan_table(ONES, na=8, nx=8, pot=pot)
    euler.ere_scan_table(ONES, na=8, nx=8, pot=NEGATED_COTANGENT)  # a built-in passes


def test_solve_and_scan_take_one_row_of_three_masses():
    # at the parent a (1, 3) mass array met an IndexError or an unpacking error
    calls = (lambda: solve_ere(MeridianShape3(1.0, 0.5), [[1.0, 1.0, 1.0]]),
             lambda: euler.ere_scan_table([[1.0, 1.0, 1.0]], na=8, nx=8))
    for call in calls:
        with pytest.raises(ValueError, match="exactly three masses required"):
            call()
