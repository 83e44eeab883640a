import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import oracles
from oracles import (
    loop_batch_meridian_drift,
    loop_integrate,
    loop_integrate_meridian,
    loop_verify_re,
    stepped_batch_meridian_drift,
)
from sphere_re import verify
from sphere_re.dynamics import _I, _J, PhaseState, _meridian_force
from sphere_re.euler import ere_scan, isosceles_ere_classify, repulsive_mirror, scalene_shape, solve_ere
from sphere_re.geometry import MeridianShape3, Shape3
from sphere_re.lagrange import isosceles_lre_roots, lre_reconstruct
from sphere_re.potential import COTANGENT, NEGATED_COTANGENT, custom_potential
from sphere_re.verify import (
    ReCandidate,
    batch_meridian_drift,
    candidate_from_ere,
    candidate_from_lre,
    first_integral_drift,
    integrate,
    integrate_meridian,
    verify_many,
    verify_re,
)

ONES = np.ones(3)


def right_angle_lre():
    return lre_reconstruct(Shape3(math.pi / 2, math.pi / 2, math.pi / 2), ONES)


def stable_lre():
    root = isosceles_lre_roots(math.pi / 3)[1]
    return lre_reconstruct(Shape3(math.pi / 3, root, root), ONES)


def collision_course():
    return PhaseState(
        np.array([math.pi / 2, math.pi / 2, 0.4]),
        np.array([0.0, 0.35, 0.0]),
        np.zeros(3),
        np.array([0.3, -0.3, 0.0]),
    )


def rigid_right_angle():
    cand = candidate_from_lre(right_angle_lre())
    return PhaseState.rigid_rotation(cand.theta, cand.phi, cand.omega)


def perturbed_stable_lre():
    st = stable_lre().state()
    st.theta[0] += 0.01
    st.phi_dot[1] -= 0.005
    return st


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
    traj = integrate(collision_course(), ONES, T=10.0, dt=1e-3)
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
        traj = loop_integrate_meridian(s.thetas, np.zeros(3), ONES, s.omega2, T=2.0, dt=1e-3)
        single = np.max(np.abs(traj.theta - s.thetas[None, :]))
        assert batch[k] == pytest.approx(single, abs=1e-12)


def test_verify_ere_candidate_reduced():
    sol = solve_ere(MeridianShape3(1.0, 0.5), ONES)
    rep = verify_re(candidate_from_ere(sol), T=10.0, dt=1e-3)
    assert rep.passed
    assert rep.energy_drift < 1e-9


@pytest.mark.parametrize(
    "state, T, sample_every",
    [
        (rigid_right_angle(), 0.5, 10),
        (perturbed_stable_lre(), 2.0, 7),
        (collision_course(), 10.0, 10),
    ],
    ids=["rigid", "perturbed", "collision"],
)
def test_integrate_matches_loop_oracle(state, T, sample_every):
    # the stepper performs the old full-system loop's arithmetic, so the
    # trajectory and its blow-up time are reproduced bit for bit
    new = integrate(state, ONES, T=T, dt=1e-3, sample_every=sample_every)
    old = loop_integrate(state, ONES, T=T, dt=1e-3, sample_every=sample_every)
    for field in ("times", "theta", "phi", "theta_dot", "phi_dot"):
        assert np.array_equal(getattr(new, field), getattr(old, field)), field
    assert new.blew_up_at == old.blew_up_at


def test_batch_meridian_drift_matches_loop_oracle():
    hits = ere_scan(ONES, na=48, nx=48)
    thetas = np.stack([h.solution.thetas for h in hits])
    om2s = np.array([h.solution.omega2 for h in hits])
    new = batch_meridian_drift(thetas, om2s, ONES, T=2.0, dt=1e-3)
    old = loop_batch_meridian_drift(thetas, om2s, ONES, T=2.0, dt=1e-3)
    assert np.array_equal(new, old, equal_nan=True)
    # pole-middle isosceles hits hold their mirror symmetry exactly,
    # which depends on the order of each body's pair terms
    assert any(d == 0.0 for h, d in zip(hits, new) if h.solution.family == "isosceles-pole-middle")


DT = 1e-3


def scan_96():
    hits = ere_scan(ONES, na=96, nx=96)
    return np.stack([h.solution.thetas for h in hits]), np.array([h.solution.omega2 for h in hits]), hits


def first_moves(x0, force, T):
    """Per row of x0 (3, B), the step in which `rk4` from zero rates first moved a stage position or the step's end off its start bits.

    A row that never moves within the window gets the step count, which
    is also returned.
    """
    n = verify.step_count(T, DT)
    first = np.full(x0.shape[1], n)
    steps = [0]  # steps completed

    def note(x):
        left = (np.ascontiguousarray(x).view(np.int64) != x0.view(np.int64)).any(axis=0)
        first[left & (first == n)] = steps[0]

    def recording(x, v=None):
        note(x)
        return force(x, v)

    def on_step(k, z, live):
        note(z[0])
        steps[0] = k

    verify.rk4(np.stack([x0, np.zeros_like(x0)]), recording, T, DT, on_step)
    return first, n


def assert_rest_rule(thetas, om2s, pot, T):
    """The rows `_at_rest` picks never move under `rk4`, the others do, and the drifts are the stepped batch's."""
    x0, force = np.ascontiguousarray(thetas.T), _meridian_force(ONES, om2s, pot, False)
    first, n = first_moves(x0, force, T)
    rest = verify._at_rest(force, x0, n, DT)
    assert rest.tolist() == (first == n).tolist()
    new = batch_meridian_drift(thetas, om2s, ONES, pot, T=T, dt=DT)
    assert new.tobytes() == stepped_batch_meridian_drift(thetas, om2s, ONES, pot, T=T, dt=DT).tobytes()
    return rest, first


@pytest.mark.parametrize("T", [0.001, 0.5, 2.0])
def test_rest_rows_are_exactly_the_scan_hits_rk4_never_moves(T, monkeypatch):
    thetas, om2s, _ = scan_96()
    stepped = []
    real_rk4 = verify.rk4

    def counting_rk4(z, *args):
        stepped.append(z.shape[-1])
        return real_rk4(z, *args)

    monkeypatch.setattr(verify, "rk4", counting_rk4)
    rest, _ = assert_rest_rule(thetas, om2s, COTANGENT, T)
    # a pole-middle hit holds a body at +0.0 and can rest
    plus_zero = ((thetas == 0.0) & ~np.signbit(thetas)).any(axis=1)
    assert (plus_zero & rest).any()
    # after the recording run of every row, the batch steps only the
    # moving rows, none in a window of one step
    moving = np.count_nonzero(~rest)
    assert moving > 1 if T > DT else moving == 0
    assert stepped == [len(rest)] + ([moving] if moving else [])


@pytest.mark.parametrize("T", [0.001, 0.5])
def test_rest_rule_on_non_equilibria_of_another_potential(T):
    thetas, om2s, _ = scan_96()
    assert_rest_rule(thetas[::8], om2s[::8], twice_cotangent("twice"), T)


def test_rest_rule_holds_up_to_the_last_step_and_at_signed_zeros():
    thetas, om2s, hits = scan_96()
    # rows whose rates creep until they move an angle some steps in, and
    # pole-middle hits with a body at +0.0 that rest
    first, n = assert_rest_rule(thetas, om2s, COTANGENT, 0.5)[1], verify.step_count(0.5, DT)
    late = np.flatnonzero((first >= 2) & (first < n))
    pole = np.array([h.solution.family == "isosceles-pole-middle" for h in hits])
    pole = np.flatnonzero(pole & (first == n))[:4]
    minus_zero = np.where(thetas[pole] == 0.0, -0.0, thetas[pole])
    coincident = np.array([[0.2, 0.2, -1.0]])
    th = np.concatenate([thetas[late], thetas[pole], minus_zero, coincident])
    om = np.concatenate([om2s[late], om2s[pole], om2s[pole], [0.0]])
    first = assert_rest_rule(th, om, COTANGENT, 0.5)[1]
    moves = sorted(set(first[: len(late)].tolist()))
    assert len(moves) >= 4 and len(pole) == 4
    # the first move on the last step, then one step past the window
    for s in moves[:: len(moves) // 4]:
        for T in (s + 1) * DT, s * DT:
            rest, _ = assert_rest_rule(th, om, COTANGENT, T)
            assert rest.tolist() == (first >= verify.step_count(T, DT)).tolist()
    rest = first == verify.step_count(0.5, DT)
    plus = slice(len(late), len(late) + len(pole))
    minus = slice(plus.stop, plus.stop + len(pole))
    # a -0.0 body turns +0.0 in the first stage; a coincident pair has a NaN force
    assert rest[plus].all() and not rest[minus].any() and not rest[-1]
    drift = batch_meridian_drift(th, om, ONES, T=0.5)
    assert (drift[minus] == 0.0).all() and np.isnan(drift[-1])


def test_rest_rule_under_a_constant_force():
    # one column per case: a -0.0 body whose offsets round to -0.0 from the
    # second step on, so only the first step moves it (to +0.0); a +0.0
    # body under the same force; an acceleration that moves a body of 1.0
    # some steps in, and a zero one
    x0 = np.array([[-0.0, 0.0, 1.0, 1.0], [0.5, 0.5, 1.0, 1.0], [2.0, 2.0, 1.0, 1.0]])
    a0 = np.array([[-5e-321, -5e-321, 1e-12, 0.0], [0.0] * 4, [0.0] * 4])

    def force(x, v=None):
        return a0.copy(), None

    first, n = first_moves(x0, force, 0.2)
    assert first.tolist()[:2] == [0, n] and 0 < first[2] < n and first[3] == n
    for m in 1, 2, int(first[2]), int(first[2]) + 1, n:
        assert verify._at_rest(force, x0, m, DT).tolist() == (first >= m).tolist()


def unstable_meridian(masses, theta_dot):
    sol = solve_ere(MeridianShape3(1.0, 0.3), masses)
    return sol.thetas, np.array(theta_dot), masses, sol.omega2


@pytest.mark.parametrize(
    "theta, theta_dot, masses, omega2",
    [
        unstable_meridian(ONES, [0.0, 0.0, 0.0]),
        unstable_meridian(np.array([1.0, 2.0, 3.0]), [1e-3, -2e-3, 5e-4]),
        (np.array([0.0, 0.3, -1.0]), np.array([0.0, -1.0, 0.0]), ONES, 0.0),
    ],
    ids=["unstable", "unstable-kicked", "collision"],
)
def test_integrate_meridian_matches_loop_oracle(theta, theta_dot, masses, omega2):
    # a single candidate takes U' with np.float_power, which rounds like
    # the scalar pow of the old loop, so even an unstable candidate,
    # whose drift amplifies any last-bit difference, matches bit for bit
    new = integrate_meridian(theta, theta_dot, masses, omega2, T=2.0, dt=1e-3)
    old = loop_integrate_meridian(theta, theta_dot, masses, omega2, T=2.0, dt=1e-3)
    assert np.max(np.abs(old.theta - theta)) > 0.1
    for field in ("times", "theta", "theta_dot"):
        assert np.array_equal(getattr(new, field), getattr(old, field)), field
    assert new.blew_up_at == old.blew_up_at


def twice_cotangent(name):
    """2x the cotangent potential, written for scalars only."""
    return custom_potential(
        lambda c: 2.0 * c / math.sqrt(1.0 - c * c), lambda c: 2.0 * (1.0 - c * c) ** -1.5, attractive=True, name=name
    )


def test_integrate_meridian_custom_potential_matches_loop_oracle():
    # a custom U' is called on scalars, as the old loop did, so a
    # scalar-only one works and reproduces the loop bit for bit
    sol = solve_ere(MeridianShape3(1.0, 0.5), ONES)
    new = integrate_meridian(sol.thetas, np.zeros(3), ONES, sol.omega2, twice_cotangent("twice"), T=0.5)
    old = loop_integrate_meridian(sol.thetas, np.zeros(3), ONES, sol.omega2, twice_cotangent("twice"), T=0.5)
    assert np.max(np.abs(old.theta - sol.thetas)) > 1.0
    for field in ("times", "theta", "theta_dot"):
        assert np.array_equal(getattr(new, field), getattr(old, field)), field


def test_singular_pair_blows_up_single_candidate_and_batch_row():
    coincident = np.array([0.2, 0.2, -1.0])
    traj = integrate_meridian(coincident, np.zeros(3), ONES, 0.0, T=1.0, dt=1e-3)
    assert not traj.completed and traj.blew_up_at == 0.0
    # the batch has no guard: only the coincident row goes non-finite
    sol = solve_ere(MeridianShape3(1.0, 0.5), ONES)
    drift = batch_meridian_drift(np.stack([sol.thetas, coincident]), np.array([sol.omega2, 0.0]), ONES, T=0.1)
    assert drift[0] < 1e-9 and np.isnan(drift[1])


def test_custom_potential_error_blows_up_only_a_batch_of_one():
    def du(c):
        raise ValueError("no force here")

    sol = solve_ere(MeridianShape3(1.0, 0.5), ONES)
    failing = dataclasses.replace(twice_cotangent("failing"), du=du)
    traj = integrate_meridian(sol.thetas, np.zeros(3), ONES, sol.omega2, failing, T=0.1)
    assert traj.blew_up_at == 0.0
    assert np.isnan(batch_meridian_drift(sol.thetas[None], np.array([sol.omega2]), ONES, failing, T=0.1)).all()
    # on a larger batch the error cannot be pinned on a row, so it propagates
    with pytest.raises(ValueError, match="no force here"):
        batch_meridian_drift(np.stack([sol.thetas] * 2), np.full(2, sol.omega2), ONES, failing, T=0.1)
    # a U' that fails only once the state moves: the equilibrium row rests
    # and the one at omega2 = 0 moves alone, yet the batch still raises
    th, om = np.stack([sol.thetas] * 2), np.array([sol.omega2, 0.0])
    start = set(np.cos(th.T.take(_I, axis=0) - th.T.take(_J, axis=0)).ravel().tolist())

    def du_at_start(c):
        if c not in start:
            raise ValueError("moved off the start")
        return (1.0 - c * c) ** -1.5

    late = dataclasses.replace(twice_cotangent("late"), du=du_at_start)
    assert verify._at_rest(_meridian_force(ONES, om, late, False), th.T.copy(), 100, DT).tolist() == [True, False]
    for drift in batch_meridian_drift, stepped_batch_meridian_drift:
        with pytest.raises(ValueError, match="moved off the start"):
            drift(th, om, ONES, late, T=0.1)
    assert batch_meridian_drift(th[:1], om[:1], ONES, late, T=0.1).tolist() == [0.0]
    assert np.isnan(batch_meridian_drift(th[1:], om[1:], ONES, late, T=0.1)).all()


def test_empty_batch_takes_no_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("stepped an empty batch")

    monkeypatch.setattr(verify, "rk4", no_step)
    drift = batch_meridian_drift(np.zeros((0, 3)), np.zeros(0), ONES, T=10.0, dt=DT)
    assert drift.shape == (0,) and drift.dtype == float
    with pytest.raises(ValueError, match="integration step"):
        batch_meridian_drift(np.zeros((0, 3)), np.zeros(0), ONES, T=0.0004, dt=DT)


def test_batch_meridian_drift_uses_the_potential():
    # twice the cotangent: the candidates are no longer equilibria, and
    # the batch must integrate the force of the potential it is given
    twice = twice_cotangent("twice")
    sols = [solve_ere(MeridianShape3(a, x), ONES) for a, x in ((1.0, 0.5), (1.6, 0.8), (1.0, 0.3))]
    thetas = np.stack([s.thetas for s in sols])
    om2s = np.array([s.omega2 for s in sols])
    batch = batch_meridian_drift(thetas, om2s, ONES, pot=twice, T=0.05, dt=1e-3)
    for k, s in enumerate(sols):
        traj = loop_integrate_meridian(s.thetas, np.zeros(3), ONES, s.omega2, twice, T=0.05, dt=1e-3, sample_every=1)
        single = np.max(np.abs(traj.theta - s.thetas[None, :]))
        assert single > 1e-4
        assert batch[k] == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("T", [0.0004, math.inf, math.nan])
def test_window_without_steps_is_rejected(T):
    sol = solve_ere(MeridianShape3(0.5, -0.5), ONES)
    with pytest.raises(ValueError, match="integration step"):
        verify_re(candidate_from_ere(sol), T=T, dt=1e-3)
    with pytest.raises(ValueError, match="integration step"):
        batch_meridian_drift(sol.thetas[None], np.array([sol.omega2]), ONES, T=T, dt=1e-3)


@pytest.mark.parametrize("sample_every", [0, -3, 2.5, True, "10", None], ids=["0", "-3", "2.5", "True", "str", "None"])
def test_sample_every_must_be_a_positive_int(sample_every):
    # at the parent 0 raised ZeroDivisionError after the first step, -3
    # sampled like 3 and 2.5 every 5 steps
    with pytest.raises(ValueError, match="sample_every must be a positive int"):
        integrate(rigid_right_angle(), ONES, T=0.01, dt=1e-3, sample_every=sample_every)
    sol = solve_ere(MeridianShape3(0.5, -0.5), ONES)
    with pytest.raises(ValueError, match="sample_every must be a positive int"):
        integrate_meridian(sol.thetas, np.zeros(3), ONES, sol.omega2, T=0.01, dt=1e-3, sample_every=sample_every)


def report_bits(rep):
    """Every measured field of a report, as exact bits."""
    floats = [rep.sigma_drift, rep.theta_drift, rep.phi_rate_drift, rep.energy_drift]
    return np.array(floats).tobytes(), np.asarray(rep.momentum_drift, dtype=float).tobytes(), rep.completed, rep.blew_up_at


def mixed_candidates():
    iso = solve_ere(MeridianShape3(1.0, 0.5), ONES)
    return [
        candidate_from_lre(stable_lre(), "tri"),
        candidate_from_ere(iso, "iso"),
        candidate_from_ere(repulsive_mirror(iso), "mirror"),
        candidate_from_ere(solve_ere(scalene_shape(1.7), ONES), "scalene"),
        candidate_from_lre(right_angle_lre(), "right-angle"),
        candidate_from_ere(solve_ere(MeridianShape3(1.0, 0.3), np.array([1.0, 2.0, 3.0])), "unequal"),
    ]


def test_verify_many_matches_loop_verify_re_bit_for_bit():
    # one batch per system, cotangent and negated rows together: each
    # report is the per-sample loops' report of the candidate alone
    cands = mixed_candidates()
    reports = verify_many(cands, T=0.5, dt=1e-3)
    for cand, rep in zip(cands, reports):
        assert rep.candidate is cand
        want = report_bits(loop_verify_re(cand, T=0.5, dt=1e-3))
        assert report_bits(rep) == want, cand.label
        assert report_bits(verify_re(cand, T=0.5, dt=1e-3)) == want, cand.label


def test_verify_many_splits_long_files_into_batches(monkeypatch):
    cands = mixed_candidates()
    whole = [report_bits(rep) for rep in verify_many(cands, T=0.2)]
    monkeypatch.setattr(verify, "_BATCH_ROWS", 2)
    assert [report_bits(rep) for rep in verify_many(cands, T=0.2)] == whole


def small_file(meridian, size):
    """`size` candidates of one system (up to 10), under the negated cotangent and the cotangent alternately."""
    if meridian:
        shapes = (0.4, 1.2, 1.7, 0.8, 1.65)
        shapes = [scalene_shape(a) if a > 1.5 else MeridianShape3(a, -a) for a in shapes[: (size + 1) // 2]]
        sols = [solve_ere(shape, ONES) for shape in shapes]
        sols = [s for sol in sols for s in (sol, repulsive_mirror(sol))]
        return [candidate_from_ere(sol, f"mer-{k}") for k, sol in enumerate(sols[:size])]
    cands = []
    for k, i in [(k, i) for i in (-1, 0) for k in (2, 3, 4, 5, 7, 8)][:size]:
        root = isosceles_lre_roots(k * math.pi / 12)[i]
        cand = candidate_from_lre(lre_reconstruct(Shape3(k * math.pi / 12, root, root), ONES), f"tri-{k}-{i}")
        cands.append(cand if len(cands) % 2 else dataclasses.replace(cand, potential=COTANGENT.negated()))
    return cands


@pytest.mark.parametrize("size", range(1, 11))
@pytest.mark.parametrize("meridian", [False, True], ids=["triangular", "meridian"])
def test_small_files_verify_each_row_as_alone(monkeypatch, meridian, size):
    # a file's rows run as one group per potential: below the crossover a
    # group's rows run one at a time on floats, from it on as one numpy
    # batch; either way each report is the row's alone
    crossover = verify._MERIDIAN_ROWS_ON_FLOATS if meridian else verify._ROWS_ON_FLOATS
    assert 1 < crossover <= 10
    cands = small_file(meridian, size)
    alone = [report_bits(verify_re(cand, T=0.3)) for cand in cands]
    rows, rk4_row = [], verify._rk4_row
    monkeypatch.setattr(verify, "_rk4_row", lambda z, *args: rows.append(z) or rk4_row(z, *args))
    assert [report_bits(rep) for rep in verify_many(cands, T=0.3)] == alone
    groups = Counter(cand.potential for cand in cands).values()
    assert sorted(groups) == sorted([size // 2, size - size // 2] if size > 1 else [1])
    assert len(rows) == sum(n for n in groups if n < crossover)


def test_a_file_of_both_potentials_makes_one_batch_per_potential(monkeypatch):
    # 10 full-system candidates, the negated cotangent and the cotangent alternately
    cands = small_file(False, 10)
    alone = [report_bits(verify_re(cand, T=0.3)) for cand in cands]
    calls, batch_drifts = [], verify._batch_drifts

    def counted(batch, meridian, pot, *args):
        calls.append((pot, [cand.potential for cand in batch]))
        return batch_drifts(batch, meridian, pot, *args)

    monkeypatch.setattr(verify, "_batch_drifts", counted)
    assert [report_bits(rep) for rep in verify_many(cands, T=0.3)] == alone
    assert calls == [(NEGATED_COTANGENT, [NEGATED_COTANGENT] * 5), (COTANGENT, [COTANGENT] * 5)]


def test_the_mirrors_of_one_custom_solution_family_make_one_batch(monkeypatch):
    # each mirror carries twice.negated(); one negation per potential puts all 8 in one numpy batch
    twice = twice_cotangent("twice")
    assert twice.negated() is twice.negated() and twice.negated().negated() is twice
    shapes = [MeridianShape3(a, -a) for a in (0.4, 0.8, 1.2, 2.3)] + [scalene_shape(a) for a in (1.6, 1.65, 1.7, 1.75)]
    cands = [candidate_from_ere(repulsive_mirror(solve_ere(s, ONES, twice)), f"m{k}") for k, s in enumerate(shapes)]
    alone = [report_bits(verify_re(cand, T=0.3)) for cand in cands]
    calls, batch_drifts = [], verify._batch_drifts

    def counted(batch, meridian, pot, *args):
        calls.append((pot, len(batch)))
        return batch_drifts(batch, meridian, pot, *args)

    monkeypatch.setattr(verify, "_batch_drifts", counted)
    assert [report_bits(rep) for rep in verify_many(cands, T=0.3)] == alone
    assert calls == [(twice.negated(), 8)]


def test_masses_below_the_float_range_stay_batched():
    # on floats m_k sin^2(theta_k) underflows to 0 at sin = 1e-8 and a mass
    # of 1e-310, and dividing by it raises; a numpy batch of one takes the
    # NaN, whose state then blows up
    state = PhaseState([1e-8, 1.0, 2.0], [0.0, 1.0, 2.0], np.zeros(3), np.zeros(3))
    masses = np.full(3, 1e-310)
    assert integrate(state, masses, T=0.01).blew_up_at == 0.0
    z = np.array([[state.theta, state.phi], [state.theta_dot, state.phi_dot]])[..., None]
    assert verify.rk4(z, verify._full_force(masses, COTANGENT), 0.01, 1e-3, lambda *a: None).tolist() == [0.0]


def test_first_integral_drift_matches_loop_oracle_bit_for_bit():
    sol = solve_ere(MeridianShape3(1.0, 0.3), ONES)
    twice = twice_cotangent("twice")
    for traj, pot in (
        (integrate(perturbed_stable_lre(), ONES, T=1.0), COTANGENT),
        (integrate(collision_course(), ONES, T=10.0), COTANGENT),
        (integrate_meridian(sol.thetas, np.array([1e-3, 0.0, -1e-3]), ONES, sol.omega2, T=1.0), COTANGENT),
        (integrate_meridian(sol.thetas, np.zeros(3), ONES, sol.omega2, twice, T=0.2), twice),
    ):
        e_new, c_new = first_integral_drift(traj, ONES, pot)
        e_old, c_old = oracles.first_integral_drift(traj, ONES, pot)
        assert np.float64(e_new).tobytes() == np.float64(e_old).tobytes()
        assert c_new.tobytes() == c_old.tobytes()


def test_custom_potential_named_cotangent_keeps_its_own_force():
    # the name is only a label: twice the cotangent's U' gives twice its rate
    doubled = twice_cotangent("cotangent")
    theta = np.array([0.3, -1.1, 2.0])
    assert np.array_equal(doubled.u_prime_meridian(theta), [doubled.du(c) for c in np.cos(theta)])
    shape = MeridianShape3(1.0, -1.0)
    sol = solve_ere(shape, ONES, doubled)
    assert sol.potential is doubled and sol.max_residual < 1e-12
    assert sol.omega2 == pytest.approx(2.0 * solve_ere(shape, ONES).omega2, rel=1e-12)
    cand = candidate_from_ere(sol)
    assert verify_re(cand, T=1.0).passed
    assert verify_re(dataclasses.replace(cand, potential=COTANGENT), T=1.0).sigma_drift > 1e-3


def test_mirror_of_a_custom_solution_carries_the_negated_potential():
    twice = twice_cotangent("twice")
    mir = repulsive_mirror(solve_ere(scalene_shape(1.7), ONES, twice))
    assert not mir.potential.attractive and mir.potential.du(0.3) == -twice.du(0.3)
    assert mir.max_residual < 1e-12
    assert repulsive_mirror(mir).max_residual < 1e-12
    assert COTANGENT.negated().negated() is COTANGENT


def test_mirroring_a_custom_solution_twice_gives_its_potential_back():
    sol = solve_ere(scalene_shape(1.7), ONES, twice_cotangent("twice"))
    assert repulsive_mirror(repulsive_mirror(sol)).potential is sol.potential


SCALAR_COTANGENT = custom_potential(
    lambda c: c / math.sqrt(1.0 - c * c), lambda c: (1.0 - c * c) ** -1.5, attractive=True, name="scalar-cotangent"
)


def test_scalar_custom_cotangent_solves_mirrors_and_verifies_like_the_built_in():
    shape = stable_lre().shape
    cands = {}
    for pot in (COTANGENT, SCALAR_COTANGENT):
        sol = solve_ere(scalene_shape(1.7), ONES, pot)
        cands[pot] = [
            candidate_from_ere(sol, "scalene"),
            candidate_from_ere(repulsive_mirror(sol), "mirror"),
            candidate_from_lre(lre_reconstruct(shape, ONES, pot), "tri"),
        ]
    for built, custom in zip(cands[COTANGENT], cands[SCALAR_COTANGENT]):
        assert custom.potential.attractive == built.potential.attractive
        assert custom.omega2 == pytest.approx(built.omega2, rel=1e-12)
        assert np.allclose(custom.theta, built.theta, rtol=0.0, atol=1e-12)
        got, want = verify_re(custom, T=0.5), verify_re(built, T=0.5)
        assert got.passed == want.passed
        for field in ("sigma_drift", "theta_drift", "phi_rate_drift", "energy_drift"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=0.0, abs=1e-12), field
    # built-in and custom rows in one call: each report is the candidate's alone
    mixed = [c for pair in zip(cands[COTANGENT], cands[SCALAR_COTANGENT]) for c in pair]
    for cand, rep in zip(mixed, verify_many(mixed, T=0.5)):
        assert report_bits(rep) == report_bits(verify_re(cand, T=0.5)), cand.label


@pytest.mark.parametrize("masses", [(1.0, 1.0, 0.0), (1.0, 1.0, math.nan), (1.0, -1.0, 1.0)], ids=["0", "nan", "-1"])
def test_library_rejects_invalid_masses(masses):
    # at the parent zero and NaN masses integrated to blew_up_at = 0.0 and
    # negative ones without complaint; (1, 1, 0) solved as isosceles
    state = PhaseState(np.array([1.0, 1.5, 2.0]), np.array([0.0, 1.0, 2.0]), np.zeros(3), np.zeros(3))
    calls = [
        lambda: integrate(state, masses, T=0.01),
        lambda: integrate_meridian([0.1, 1.0, 2.0], [0.0, 0.0, 0.0], masses, 1.0, T=0.01),
        lambda: solve_ere(MeridianShape3(1.0, 0.5), masses),
        lambda: lre_reconstruct(Shape3(math.pi / 2, math.pi / 2, math.pi / 2), masses),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="masses must be positive and finite"):
            call()


def near_field_du(c):
    """The cotangent's U', which cannot be evaluated at arcs below acos(0.999) = 0.0447."""
    if c > 0.999:
        raise ValueError("no force this close")
    return (1.0 - c * c) ** -1.5


NEAR_FIELD = custom_potential(lambda c: c / math.sqrt(1.0 - c * c), near_field_du, attractive=True, name="near-field")


def near_field_candidate(arc):
    """The equilateral triangular RE of side `arc`, under NEAR_FIELD."""
    cand = candidate_from_lre(lre_reconstruct(Shape3(arc, arc, arc), ONES), f"arc-{arc}")
    return dataclasses.replace(cand, potential=NEAR_FIELD)


def counted_batches(monkeypatch) -> list:
    """The candidates of each `_batch_drifts` call from now on."""
    batches, batch_drifts = [], verify._batch_drifts

    def counted(cands, *args):
        batches.append(cands)
        return batch_drifts(cands, *args)

    monkeypatch.setattr(verify, "_batch_drifts", counted)
    return batches


def test_verify_many_verifies_a_failing_potential_row_by_row(monkeypatch):
    good, bad = near_field_candidate(math.pi / 2), near_field_candidate(0.04)
    alone = [verify_re(c, T=0.01) for c in (good, bad)]
    assert alone[0].passed and alone[1].blew_up_at == 0.0
    assert [report_bits(rep) for rep in verify_many([good, bad], T=0.01)] == [report_bits(rep) for rep in alone]
    # invalid input raises at once, with no row-by-row retry
    batches = counted_batches(monkeypatch)
    with pytest.raises(ValueError, match="positive and finite"):
        verify_many([good, dataclasses.replace(bad, masses=np.array([1.0, 0.0, 1.0]))], T=0.01)
    assert len(batches) == 1
    with pytest.raises(ValueError, match="integration step"):
        verify_many([good, bad], T=0.0)
    assert len(batches) == 1


def test_verify_many_refuses_a_full_candidate_with_negative_omega2(monkeypatch):
    # ReCandidate.omega clamps omega^2 at 0, so at the parent such a row was verified at omega = 0
    good = near_field_candidate(math.pi / 2)
    bad = dataclasses.replace(good, omega2=-good.omega2)
    batches = counted_batches(monkeypatch)
    for cands in ([bad], [good, bad]):
        with pytest.raises(ValueError, match=r"candidate \d: a full-system candidate needs omega2 >= 0"):
            verify_many(cands, T=0.01)
    assert batches == []
    # on the meridian a negative omega^2 is a reduced system like any other
    meridian = dataclasses.replace(good, theta=np.array([0.3, 1.2, -2.0]), phi=None, omega2=-1.0, meridian=True)
    assert verify_many([meridian], T=0.01)[0].completed


def test_a_numpy_batch_with_a_failing_potential_is_verified_again_row_by_row(monkeypatch):
    # enough rows for a numpy batch, where U' raising cannot be pinned on a row; the odd
    # rows have arcs below 0.0447 and blow up at once
    n = verify._ROWS_ON_FLOATS + 1
    cands = [near_field_candidate(1.2 + 0.1 * k if k % 2 == 0 else 0.04 - 0.002 * k) for k in range(n)]
    alone = [verify_re(c, T=0.01) for c in cands]
    want = [(True, None) if k % 2 == 0 else (False, 0.0) for k in range(n)]
    assert [(rep.passed, rep.blew_up_at) for rep in alone] == want
    batches = counted_batches(monkeypatch)
    assert [report_bits(rep) for rep in verify_many(cands, T=0.01)] == [report_bits(rep) for rep in alone]
    assert batches == [cands] + [[c] for c in cands]
