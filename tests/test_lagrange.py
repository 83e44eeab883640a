import math

import numpy as np
import pytest

import oracles
from sphere_re import lagrange, roots
from sphere_re.dynamics import eom_accelerations
from sphere_re.errors import InternalError, NoLreForRepulsive, ReconstructionOutOfRange, SingularSeparation
from sphere_re.geometry import Shape3
from sphere_re.lagrange import (
    equal_mass_lre_residuals,
    equal_mass_residual_grid,
    isosceles_lre_q,
    isosceles_lre_roots,
    isosceles_lre_scan,
    lre_condition_residual,
    lre_eigvec_target,
    lre_omega2,
    lre_reconstruct,
    reconstruction_omega2,
    scalene_lre_search,
    triangle_sigma_bounds,
)
from sphere_re.potential import COTANGENT, NEGATED_COTANGENT, _cot_du, _cot_u, custom_potential

ONES = np.ones(3)

# five-decimal values quoted for the base-pi/3 isosceles pair and the
# base-pi/6 family
SIGMA_PI3 = 1.33240
OMEGA2_PI3 = 3.85072
SIGMA_PI6_MID = 1.51596
SIGMA_PI6_FAR = 2.73083


def equilateral(s):
    return Shape3(s, s, s)


def test_eigvec_target_right_angles():
    psi = lre_eigvec_target(Shape3(math.pi / 2, math.pi / 2, math.pi / 2), ONES)
    assert psi == pytest.approx(np.full(3, 1.0 / math.sqrt(3.0)), abs=1e-15)


def test_eigvec_target_equilateral_any_size(rng):
    for _ in range(10):
        s = rng.uniform(0.2, 2 * math.pi / 3 - 0.05)
        psi = lre_eigvec_target(equilateral(s), ONES)
        assert psi == pytest.approx(np.full(3, 1.0 / math.sqrt(3.0)), abs=1e-14)


def test_eigvec_target_repulsive_raises():
    shape = equilateral(1.0)
    with pytest.raises(NoLreForRepulsive):
        lagrange._lre_rows(shape.as_array()[None], ONES, NEGATED_COTANGENT)
    for f in (lre_eigvec_target, lre_omega2, lre_condition_residual, lre_reconstruct, oracles.lre_condition_residual):
        with pytest.raises(NoLreForRepulsive):
            f(shape, ONES, NEGATED_COTANGENT)


def test_condition_residual_equilateral_equal_masses():
    assert np.max(np.abs(lre_condition_residual(equilateral(math.pi / 3), ONES))) < 1e-15


def test_condition_residual_equilateral_unequal_masses():
    r = lre_condition_residual(equilateral(math.pi / 3), [1.0, 1.0, 2.0])
    assert np.max(np.abs(r)) > 1e-2


def test_condition_residual_quoted_root():
    # at the five-decimal published root the residual is small but not
    # zero; the polished root drives it to the 1e-12 level
    r = lre_condition_residual(Shape3(math.pi / 3, SIGMA_PI3, SIGMA_PI3), ONES)
    assert np.max(np.abs(r)) < 1e-4
    root = isosceles_lre_roots(math.pi / 3)[1]
    r = lre_condition_residual(Shape3(math.pi / 3, root, root), ONES)
    assert np.max(np.abs(r)) < 1e-12


def test_reconstruct_right_angle_shape():
    cand = lre_reconstruct(Shape3(math.pi / 2, math.pi / 2, math.pi / 2), ONES)
    assert cand.cos_thetas == pytest.approx(np.full(3, 1.0 / math.sqrt(3.0)), abs=1e-14)
    assert np.abs(cand.phi_diffs) == pytest.approx(np.full(3, 2 * math.pi / 3), abs=1e-12)
    assert cand.omega2 == pytest.approx(3.0, rel=1e-14)
    assert math.isclose(cand.phi_diffs.sum(), -2 * math.pi, abs_tol=1e-12)


def test_reconstruct_published_pair_rate():
    root = isosceles_lre_roots(math.pi / 3)[1]
    assert root == pytest.approx(SIGMA_PI3, abs=1e-4)
    shape = Shape3(math.pi / 3, root, root)
    assert lre_omega2(shape, ONES) == pytest.approx(OMEGA2_PI3, abs=1e-4)
    cand = lre_reconstruct(shape, ONES)
    assert reconstruction_omega2(cand) == pytest.approx(cand.omega2, rel=1e-10)


def test_reconstruct_rejects_non_lre_shape():
    with pytest.raises(ReconstructionOutOfRange):
        lre_reconstruct(Shape3(1.0, 1.2, 1.4), ONES)


def test_reconstruct_rejects_lambda_above_the_total_mass():
    # an unrealizable equilateral shape is an LRE with lambda = 2 - 2 cos(3) > 3
    with pytest.raises(ReconstructionOutOfRange, match="exceeds total mass"):
        lre_reconstruct(equilateral(3.0), ONES)


def test_reconstructed_shape_roundtrip(rng):
    # arc angles recomputed from (theta, delta phi) match the input
    for s12 in (math.pi / 6, math.pi / 3, math.pi / 2):
        for root in isosceles_lre_roots(s12)[1:]:
            shape = Shape3(s12, root, root)
            cand = lre_reconstruct(shape, ONES)
            th = cand.thetas
            ph = cand.phis()
            got = []
            for i, j in ((0, 1), (1, 2), (2, 0)):
                c = math.cos(th[i]) * math.cos(th[j]) + math.sin(th[i]) * math.sin(th[j]) * math.cos(ph[i] - ph[j])
                got.append(math.acos(max(-1.0, min(1.0, c))))
            assert got == pytest.approx(list(shape.as_array()), abs=1e-10)


def test_common_force_ratio_on_solved_shapes():
    # U'(s12) cos(th3) = U'(s23) cos(th1) = U'(s31) cos(th2) != 0
    root = isosceles_lre_roots(math.pi / 3)[1]
    cand = lre_reconstruct(Shape3(math.pi / 3, root, root), ONES)
    s = cand.shape.as_array()
    ct = cand.cos_thetas
    vals = [
        COTANGENT.u_prime(math.cos(s[0])) * ct[2],
        COTANGENT.u_prime(math.cos(s[1])) * ct[0],
        COTANGENT.u_prime(math.cos(s[2])) * ct[1],
    ]
    assert max(vals) - min(vals) < 1e-10
    assert min(np.abs(vals)) > 0.1


def test_four_orientations_all_solve_equations():
    root = isosceles_lre_roots(math.pi / 3)[1]
    shape = Shape3(math.pi / 3, root, root)
    rates = []
    for north in (True, False):
        for neg in (True, False):
            cand = lre_reconstruct(shape, ONES, north=north, negative_dphi=neg)
            rates.append(cand.omega2)
            state = cand.state()
            tdd, pdd = eom_accelerations(state, ONES)
            assert np.max(np.abs(tdd)) < 1e-10
            assert np.max(np.abs(pdd)) < 1e-10
            sign = 1.0 if north else -1.0
            assert np.all(sign * cand.cos_thetas > 0)
    assert np.ptp(rates) == 0.0


def test_omega2_mirror_shape_invariance(rng):
    for s12 in (math.pi / 6, math.pi / 3):
        for root in isosceles_lre_roots(s12)[1:]:
            om = lre_omega2(Shape3(s12, root, root), ONES)
            om_mirror = lre_omega2(Shape3(math.pi - s12, math.pi - root, math.pi - root), ONES)
            assert om_mirror == pytest.approx(om, rel=1e-12)


def test_equal_mass_residuals_equilateral_and_quoted():
    assert np.max(np.abs(equal_mass_lre_residuals(equilateral(0.9)))) < 1e-14
    r = equal_mass_lre_residuals(Shape3(math.pi / 3, SIGMA_PI3, SIGMA_PI3))
    assert np.max(np.abs(r)) < 1e-4
    r = equal_mass_lre_residuals(Shape3(1.0, 1.2, 1.4))
    assert np.max(np.abs(r)) > 1e-3


def test_q_vanishes_on_equilateral_line(rng):
    for _ in range(25):
        s = rng.uniform(0.05, math.pi - 0.05)
        assert abs(isosceles_lre_q(s, s)) < 1e-14


def test_q_quoted_values():
    assert abs(isosceles_lre_q(SIGMA_PI3, math.pi / 3)) < 1e-4
    roots = isosceles_lre_roots(math.pi / 6)
    assert roots[0] == pytest.approx(math.pi / 6, abs=1e-12)
    assert roots[1] == pytest.approx(SIGMA_PI6_MID, abs=1e-4)
    assert roots[2] == pytest.approx(SIGMA_PI6_FAR, abs=1e-4)


def test_roots_pair_under_point_symmetry():
    r1 = isosceles_lre_roots(math.pi / 3)[1]
    r2 = isosceles_lre_roots(2 * math.pi / 3)
    partner = min(r2, key=lambda r: abs(r - (math.pi - r1)))
    assert partner == pytest.approx(math.pi - r1, abs=1e-10)


def test_scan_symmetry_center():
    # at base pi/2 the curve meets the equilateral line at the symmetry
    # center, and the two remaining roots pair up around pi/2
    pts = isosceles_lre_scan([math.pi / 2])
    assert any(p.equilateral and abs(p.sigma - math.pi / 2) < 1e-9 for p in pts)
    others = sorted(p.sigma for p in pts if not p.equilateral)
    assert len(others) == 2
    assert others[0] + others[1] == pytest.approx(math.pi, abs=1e-9)


def test_scan_hits_satisfy_eigen_condition():
    grid = np.linspace(0.3, math.pi - 0.3, 25)
    pts = isosceles_lre_scan(grid)
    assert len(pts) >= 25
    for p in pts:
        shape = Shape3(p.sigma12, p.sigma, p.sigma)
        assert shape.is_realizable
        assert np.max(np.abs(lre_condition_residual(shape, ONES))) < 1e-10
        assert p.omega2 > 0.0
        lo, hi = triangle_sigma_bounds(p.sigma12)
        assert lo < p.sigma < hi
    # point symmetry of the zero set
    for p in pts:
        if not p.equilateral:
            assert abs(isosceles_lre_q(math.pi - p.sigma, math.pi - p.sigma12)) < 1e-10


def test_no_fixed_point_lre(rng):
    for s12 in (math.pi / 6, math.pi / 3, 1.9):
        for root in isosceles_lre_roots(s12):
            shape = Shape3(s12, root, root)
            if shape.is_realizable:
                assert lre_omega2(shape, ONES) > 0.0


def test_scalene_search_reports_floor():
    rep = scalene_lre_search(n=60)
    assert rep.min_residual_off_loci > 1e-8
    assert rep.polished_minima_on_loci
    assert not rep.conclusive


def test_hemisphere_invariant():
    for s12 in (math.pi / 6, math.pi / 3, 2 * math.pi / 3):
        for root in isosceles_lre_roots(s12)[1:]:
            cand = lre_reconstruct(Shape3(s12, root, root), ONES)
            assert cand.cos_thetas.min() > 0.0


# base angles at the ends of the range and on the kpi/12 candidates
EDGE_SIGMA12 = [k * math.pi / 12 for k in range(1, 12)] + [math.pi / 2, 1e-3, math.pi - 1e-3]


def test_q_on_arrays_matches_scalar_q_bit_for_bit(rng):
    s = rng.uniform(0.0, math.pi, 20000)
    s12 = rng.uniform(0.0, math.pi, 20000)
    want = np.array([oracles.isosceles_lre_q(a, b) for a, b in zip(s, s12)])
    assert isosceles_lre_q(s, s12).tobytes() == want.tobytes()


def test_batched_isosceles_roots_match_scalar_oracle_bit_for_bit():
    # the lre-scan grid at 512 points, then the edge angles one at a time
    grid = np.linspace(0.02, math.pi - 0.02, 512)
    got = lagrange._isosceles_lre_roots_many(grid)
    for s12, roots in zip(grid, got):
        assert np.array(roots).tobytes() == np.array(oracles.isosceles_lre_roots(float(s12))).tobytes()
    assert sum(map(len, got)) > 1000
    for s12 in EDGE_SIGMA12:
        assert np.array(isosceles_lre_roots(s12)).tobytes() == np.array(oracles.isosceles_lre_roots(s12)).tobytes()


def test_polish_moves_a_quoted_shape_by_less_than_its_bound():
    # the published pair, quoted to five decimals, moves by 2.3e-6
    quoted = Shape3(math.pi / 3, SIGMA_PI3, SIGMA_PI3)
    moved = np.abs(lagrange.polish_lre_shape(quoted, ONES).as_array() - quoted.as_array()).max()
    assert 2e-6 < moved < 3e-6
    # 1e-4 off an equilateral root, the walk lands 0.08 to 1.37 rad away
    for s in (0.3, 0.527, 0.755, 1.664):
        with pytest.raises(ReconstructionOutOfRange, match="moved an arc by"):
            lagrange.polish_lre_shape(Shape3(s, s + 1e-4, s - 1e-4), ONES)


def test_lre_scan_bisection_starts_from_its_grid_signs(monkeypatch):
    # 39 batched evaluations of q at --sigma12-grid 512, not 41: the grid pass has signed both ends of every bracket
    evals, oracle_evals = [], []
    bisect_many = roots.bisect_many

    def from_signs(f, lo, hi, lo_positive, tol):
        want = oracles.bisect_many(lambda x, i: oracle_evals.append(x.size) or f(x, i), lo, hi, tol)
        got = bisect_many(lambda x, i: evals.append(x.size) or f(x, i), lo, hi, lo_positive, tol)
        assert got.tobytes() == want.tobytes()
        return got

    grid = np.linspace(0.02, math.pi - 0.02, 512)
    want = repr(isosceles_lre_scan(grid))
    monkeypatch.setattr(roots, "bisect_many", from_signs)
    assert repr(isosceles_lre_scan(grid)) == want
    assert len(oracle_evals) == 41 and len(evals) == 39 and evals[0] > evals[-1]


def test_equal_mass_residuals_are_the_grid_formula(rng):
    for _ in range(50):
        sig = np.sort(rng.uniform(0.1, 2.0, 3))
        want = equal_mass_residual_grid(*sig[:, None])[0]
        assert np.max(np.abs(equal_mass_lre_residuals(Shape3(*sig)))) == want


def test_scalene_polish_matches_one_start_at_a_time(monkeypatch):
    calls = []
    gauss_newton = lagrange.gauss_newton

    def recording(residual, x0, **kw):
        out = gauss_newton(residual, x0, **kw)
        calls.append((x0, out))
        return out

    monkeypatch.setattr(lagrange, "gauss_newton", recording)
    rep = scalene_lre_search(n=30)
    [(starts, polished)] = calls
    assert starts.shape == (12, 3)
    points, on_loci = oracles.scalene_polish(starts, rep.margin)
    assert polished.tobytes() == np.array(points).tobytes()
    assert rep.polished_minima_on_loci == on_loci


def test_scalene_polish_does_not_hide_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("residual failed")

    monkeypatch.setattr(lagrange, "_lre_rows", broken)
    with pytest.raises(InternalError, match="residual failed"):
        scalene_lre_search(n=30)


# the cotangent as a custom potential: its U' is called one float at a time
CUSTOM_COTANGENT = custom_potential(_cot_u, _cot_du, True, "custom-cotangent")


@pytest.mark.parametrize("pot", [COTANGENT, CUSTOM_COTANGENT], ids=["cotangent", "custom"])
@pytest.mark.parametrize("masses", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0)], ids=["111", "123"])
def test_lre_rows_match_the_scalar_oracle_bit_for_bit(rng, masses, pot):
    sig = rng.uniform(0.05, 3.0, (500, 3))
    # sides within 1e-8 of 0 or pi on every tenth row
    near = np.arange(0, 500, 10)
    sig[near, near % 3] = np.where(near % 20 == 0, 1e-8 * rng.uniform(0.0, 1.0, near.size), math.pi - 1e-9)
    psi, lam, res, om2, singular = lagrange._lre_rows(sig, masses, pot)
    assert np.flatnonzero(singular).tolist() == near.tolist()
    assert np.isfinite(res).all()
    for k, row in enumerate(sig):
        shape = Shape3(*row)
        if singular[k]:
            for f in (oracles.lre_condition_residual, lre_condition_residual, lre_eigvec_target, lre_omega2):
                with pytest.raises(SingularSeparation, match="pair at or numerically at sigma = 0 or pi"):
                    f(shape, masses, pot)
            continue
        want_psi, _, want_lam = oracles._lre_eig(shape, masses, pot)
        want_res = oracles.lre_condition_residual(shape, masses, pot)
        want_om2 = oracles.lre_omega2(shape, masses, pot)
        assert psi[k].tobytes() == want_psi.tobytes()
        assert lam[k] == want_lam
        assert res[k].tobytes() == want_res.tobytes()
        assert om2[k] == want_om2
        assert lre_eigvec_target(shape, masses, pot).tobytes() == want_psi.tobytes()
        assert lre_condition_residual(shape, masses, pot).tobytes() == want_res.tobytes()
        assert lre_omega2(shape, masses, pot) == want_om2


def test_isosceles_scan_matches_the_per_point_oracle_bit_for_bit():
    grid = np.linspace(0.02, math.pi - 0.02, 512)
    got = isosceles_lre_scan(grid)
    want = oracles.isosceles_lre_scan(grid)
    assert len(got) == len(want) > 1000
    for p, q in zip(got, want):
        assert (p.sigma12, p.sigma, p.equilateral) == (q.sigma12, q.sigma, q.equilateral)
        assert np.array([p.omega2, p.lam]).tobytes() == np.array([q.omega2, q.lam]).tobytes()


def test_reconstruct_rejects_a_nan_residual():
    # U' is NaN near collision: the residual is NaN, which `max|res| > tol` let through
    pot = custom_potential(_cot_u, lambda c: (1 - c * c) ** -1.5 if abs(c) < 0.999 else math.nan, True, "nan-near")
    with pytest.raises(ReconstructionOutOfRange, match="residual nan"):
        lre_reconstruct(Shape3(0.03, 0.03, 0.03), ONES, pot)
