import dataclasses
import math

import numpy as np
import pytest

from sphere_re.dynamics import PhaseState
from sphere_re.euler import isosceles_ere_classify, solve_ere
from sphere_re.geometry import MeridianShape3, Shape3
from sphere_re.lagrange import isosceles_lre_roots, lre_reconstruct
from sphere_re.verify import (
    ReCandidate,
    batch_meridian_drift,
    candidate_from_ere,
    candidate_from_lre,
    first_integral_drift,
    integrate,
    integrate_meridian,
    verify_re,
)

ONES = np.ones(3)


def right_angle_lre():
    return lre_reconstruct(Shape3(math.pi / 2, math.pi / 2, math.pi / 2), ONES)


def stable_lre():
    root = isosceles_lre_roots(math.pi / 3)[1]
    return lre_reconstruct(Shape3(math.pi / 3, root, root), ONES)


def test_re_trajectory_keeps_arcs():
    cand = candidate_from_lre(right_angle_lre())
    rep = verify_re(cand, T=10.0, dt=1e-3)
    assert rep.completed
    assert rep.sigma_drift < 1e-6
    assert rep.phi_rate_drift < 1e-6
    assert rep.passed


def test_perturbed_rate_fails_verification():
    cand = candidate_from_lre(right_angle_lre())
    bad = dataclasses.replace(cand, omega2=cand.omega2 * 1.01)
    rep = verify_re(bad, T=10.0, dt=1e-3)
    assert not rep.passed
    assert rep.sigma_drift > 1e-3


def test_collision_course_aborts():
    st = PhaseState(
        np.array([math.pi / 2, math.pi / 2, 0.4]),
        np.array([0.0, 0.35, 0.0]),
        np.zeros(3),
        np.array([0.3, -0.3, 0.0]),
    )
    traj = integrate(st, ONES, T=10.0, dt=1e-3)
    assert not traj.completed
    assert traj.blew_up_at is not None and 0.0 < traj.blew_up_at < 10.0


def test_meridian_fixed_point_passes():
    sol = solve_ere(MeridianShape3(2 * math.pi / 3, -2 * math.pi / 3), ONES)
    rep = verify_re(candidate_from_ere(sol), T=10.0, dt=1e-3)
    assert rep.passed
    assert rep.sigma_drift < 1e-9


def test_meridian_family_candidates_pass_reduced_verification():
    for theta in (0.5, 1.0, 2.4, 2.9):
        cand = isosceles_ere_classify(theta)
        rc = ReCandidate(cand.thetas, None, cand.omega2, True, ONES)
        rep = verify_re(rc, T=10.0, dt=1e-3)
        assert rep.passed, f"theta={theta}: drift {rep.sigma_drift}"


def test_first_integral_drift_on_re():
    cand = candidate_from_lre(stable_lre())
    st = PhaseState.rigid_rotation(cand.theta, cand.phi, cand.omega)
    traj = integrate(st, ONES, T=10.0, dt=1e-3)
    e_drift, c_drift = first_integral_drift(traj, ONES)
    assert e_drift < 1e-9
    assert np.max(c_drift) < 1e-9
    # rigid rotation has zero transverse momentum to begin with
    from sphere_re.dynamics import angular_momentum

    c0 = angular_momentum(st, ONES)
    assert abs(c0[0]) < 1e-12 and abs(c0[1]) < 1e-12


def test_energy_drift_order_on_perturbed_orbit():
    cand = stable_lre()
    st = cand.state()
    st.theta[0] += 0.01
    st.phi_dot[1] -= 0.005
    drift = {}
    for dt in (0.02, 0.01):
        traj = integrate(st, ONES, T=2.0, dt=dt)
        drift[dt], _ = first_integral_drift(traj, ONES)
    ratio = drift[0.02] / drift[0.01]
    assert 10.0 < ratio < 22.0


def test_trajectory_error_is_fourth_order():
    cand = stable_lre()
    st = cand.state()
    st.theta[0] += 0.01
    st.phi_dot[1] -= 0.005
    T = 2.0

    def final_state(dt):
        tr = integrate(st, ONES, T=T, dt=dt, sample_every=10**9)
        return np.concatenate([tr.theta[-1], tr.phi[-1], tr.theta_dot[-1], tr.phi_dot[-1]])

    ref = final_state(0.00125)
    errs = [np.max(np.abs(final_state(dt) - ref)) for dt in (0.02, 0.01)]
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_rotating_frame_equivalence():
    # undoing the rigid rotation leaves the configuration stationary
    cand = candidate_from_lre(right_angle_lre())
    st = PhaseState.rigid_rotation(cand.theta, cand.phi, cand.omega)
    traj = integrate(st, ONES, T=10.0, dt=1e-3)
    for k in range(len(traj.times)):
        t = traj.times[k]
        assert np.max(np.abs(traj.theta[k] - traj.theta[0])) < 1e-6
        dphi = traj.phi[k] - traj.phi[0] - cand.omega * t
        assert np.max(np.abs(dphi)) < 1e-6


def test_batch_meridian_matches_single():
    sols = [
        solve_ere(MeridianShape3(1.0, 0.5), ONES),
        solve_ere(MeridianShape3(1.6, 0.8), ONES),
    ]
    thetas = np.stack([s.thetas for s in sols])
    om2s = np.array([s.omega2 for s in sols])
    batch = batch_meridian_drift(thetas, om2s, ONES, T=2.0, dt=1e-3)
    for k, s in enumerate(sols):
        traj = integrate_meridian(s.thetas, np.zeros(3), ONES, s.omega2, T=2.0, dt=1e-3)
        single = np.max(np.abs(traj.theta - s.thetas[None, :]))
        assert batch[k] == pytest.approx(single, abs=1e-12)


def test_verify_ere_candidate_reduced():
    sol = solve_ere(MeridianShape3(1.0, 0.5), ONES)
    rep = verify_re(candidate_from_ere(sol), T=10.0, dt=1e-3)
    assert rep.passed
    assert rep.energy_drift < 1e-9


def test_verify_rejects_unknown_potential_name():
    # a custom attractive potential used to be verified under the
    # repulsive NEGATED_COTANGENT; an unresolvable name must raise
    sol = solve_ere(MeridianShape3(0.5, -0.5), ONES)
    cand = dataclasses.replace(candidate_from_ere(sol), potential_name="my-cot")
    with pytest.raises(ValueError, match="my-cot"):
        verify_re(cand, T=0.01, dt=1e-3)
