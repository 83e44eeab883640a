"""The rows-last stepper and forces against the rows-first ones they replaced.

`verify.rk4` keeps a batch as z = (x, v) with the rows on the last axis,
and the forces of `dynamics` take that layout.  Every state they pass to
`on_step` and every blow-up time must equal, bit for bit, those of the
rows-first stepper and forces kept in `oracles`.
"""

import math

import numpy as np
import pytest

import oracles
from sphere_re import verify
from sphere_re.dynamics import _full_force, _full_row, _meridian_force, _meridian_row
from sphere_re.euler import ere_scan, repulsive_mirror, solve_ere
from sphere_re.geometry import MeridianShape3, Shape3
from sphere_re.lagrange import isosceles_lre_roots, lre_reconstruct
from sphere_re.potential import COTANGENT, custom_potential

ONES = np.ones(3)
DT = 1e-3


def rows_last(a):
    return np.moveaxis(a, 0, -1).copy()


def assert_same_run(x0, v0, new_accel, old_accel, T, row=None):
    """Both steppers from (x0, v0), compared bit for bit at every step.

    With a float kernel `row`, the one row of x0 runs through `_rk4_row`
    instead of `rk4`.  Returns the blow-up times and each step's
    (n, x, v, live), rows first.
    """
    old_steps, new_steps = [], []

    def old_step(n, x, v, live):
        old_steps.append((n, x, v, live.copy()))

    def new_step(n, z, live):
        new_steps.append((n, np.moveaxis(z[0], -1, 0), np.moveaxis(z[1], -1, 0), live.copy()))

    def row_step(n, z):
        new_step(n, np.reshape(z, (2,) + x0.shape[1:] + (1,)), np.ones(1, dtype=bool))

    old = oracles.rk4(x0, v0, old_accel, T, DT, old_step)
    if row is None:
        new = verify.rk4(np.stack([rows_last(x0), rows_last(v0)]), new_accel, T, DT, new_step)
    else:
        new = np.array([verify._rk4_row(np.concatenate([x0.ravel(), v0.ravel()]).tolist(), row, T, DT, row_step)])
    assert new.tobytes() == old.tobytes()
    assert len(new_steps) == len(old_steps)
    for (n, x, v, live), (n_old, x_old, v_old, live_old) in zip(new_steps, old_steps):
        assert n == n_old and live.tolist() == live_old.tolist()
        assert np.ascontiguousarray(x).tobytes() == x_old.tobytes(), n
        assert np.ascontiguousarray(v).tobytes() == v_old.tobytes(), n
    return new, new_steps


def meridian_pair(masses, omega2, pot, guarded, sign=1.0):
    """The new meridian force and the oracle's, for per-row or shared parameters."""
    force = _meridian_force(masses, omega2, pot, guarded, sign)
    col = np.reshape(omega2, (-1, 1)) if np.ndim(omega2) else omega2
    sign_col = np.reshape(sign, (-1, 1)) if np.ndim(sign) else sign
    return force, lambda th, td: oracles._meridian_force(th, masses, col, pot, guarded, sign_col)


def mirrored_meridian_batch():
    """Meridian RE of three mass triples and their repulsive mirrors, as `verify_many` batches them."""
    sols = [
        solve_ere(MeridianShape3(a, x), masses)
        for (a, x), masses in (((1.0, 0.5), ONES), ((1.0, 0.3), np.array([1.0, 2.0, 3.0])), ((1.6, 0.8), np.array([0.5, 1.0, 4.0])))
    ]
    sols += [repulsive_mirror(s) for s in sols]
    theta = np.array([s.thetas for s in sols])
    masses = np.array([s.masses for s in sols])
    omega2 = np.array([s.omega2 for s in sols])
    sign = np.array([s.potential._signed()[1] for s in sols])
    return theta, masses, omega2, sign


def test_mixed_meridian_batch_matches_rows_first_stepper():
    # per-row masses and a +-1.0 sign per row, as `verify_many` builds them
    # for a file of candidates and their mirrors; a small kick makes the
    # unstable rows drift
    theta, masses, omega2, sign = mirrored_meridian_batch()
    assert sorted(set(sign.tolist())) == [-1.0, 1.0]
    v0 = np.zeros_like(theta)
    v0[:, 1] = 1e-6
    new_accel, old_accel = meridian_pair(masses, omega2, COTANGENT, True, sign)
    blew_up, steps = assert_same_run(theta, v0, new_accel, old_accel, 1.0)
    assert np.isnan(blew_up).all() and len(steps) == 1000
    assert np.max(np.abs(steps[-1][1] - theta)) > 1e-6


def test_guarded_row_freezes_mid_run_without_touching_its_neighbours():
    # the last row's body 1 coasts onto body 0 (its masses are too small to
    # pull), so the singular-pair guard flags it around t = 0.25
    theta, masses, omega2, sign = mirrored_meridian_batch()
    x0 = np.vstack([theta, [0.0, 0.25, -1.0]])
    v0 = np.zeros_like(x0)
    v0[-1, 1] = -1.0
    masses = np.vstack([masses, np.full(3, 1e-200)])
    omega2, sign = np.append(omega2, 0.0), np.append(sign, 1.0)
    new_accel, old_accel = meridian_pair(masses, omega2, COTANGENT, True, sign)
    blew_up, steps = assert_same_run(x0, v0, new_accel, old_accel, 0.5)
    assert np.isnan(blew_up[:-1]).all() and 0.2 < blew_up[-1] < 0.3
    frozen = [(x[-1], v[-1]) for k, x, v, live in steps if k * DT > blew_up[-1] + DT]
    assert len(frozen) > 100 and all(np.array_equal(f, frozen[0][0]) and np.array_equal(g, frozen[0][1]) for f, g in frozen)
    # the other rows run as they run without it
    new_accel, old_accel = meridian_pair(masses[:-1], omega2[:-1], COTANGENT, True, sign[:-1])
    _, alone = assert_same_run(x0[:-1], v0[:-1], new_accel, old_accel, 0.5)
    for (_, x, v, _), (_, x_alone, v_alone, _) in zip(steps, alone):
        assert np.array_equal(x[:-1], x_alone) and np.array_equal(v[:-1], v_alone)


def full_rows():
    """Full-system rows: two rotating RE, a body at a pole, an antipodal pair, and a body coasting onto a pole."""
    rows = []
    for s12 in (math.pi / 2, math.pi / 3):
        root = isosceles_lre_roots(s12)[-1]
        cand = verify.candidate_from_lre(lre_reconstruct(Shape3(s12, root, root), ONES))
        rows.append(([cand.theta, cand.phi], [[0.0, 1e-6, 0.0], [cand.omega] * 3]))
    rows.append(([[0.0, 1.0, 2.0], [0.0, 0.5, 1.0]], [[0.0] * 3, [0.1] * 3]))
    rows.append(([[math.pi / 2, math.pi / 2, 1.0], [0.0, math.pi, 2.0]], [[0.0] * 3, [0.0] * 3]))
    rows.append(([[0.25, 1.0, 2.0], [0.0, 2.0, 4.0]], [[-1.0, 0.0, 0.0], [0.0] * 3]))
    masses = np.array([ONES, ONES, [1.0, 2.0, 3.0], ONES, np.full(3, 1e-200)])
    sign = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    x0 = np.array([r[0] for r in rows], dtype=float)
    v0 = np.array([r[1] for r in rows], dtype=float)
    return x0, v0, masses, sign


def test_full_system_rows_with_a_pole_and_an_antipodal_pair_match_rows_first_stepper():
    x0, v0, masses, sign = full_rows()
    force = _full_force(masses, COTANGENT, sign)

    def old_accel(x, v):
        return oracles._full_force(x, v, masses, COTANGENT, sign[:, None])

    blew_up, steps = assert_same_run(x0, v0, force, old_accel, 0.5)
    # the pole and the antipodal pair blow up at once, the coasting body on reaching the pole
    assert np.isnan(blew_up[:2]).all() and blew_up[2:4].tolist() == [0.0, 0.0]
    assert 0.2 < blew_up[4] < 0.3


def nonfinite_full_rows():
    """Full-system rows with a NaN angle and an infinite one."""
    rows = [
        ([[math.nan, 1.0, 2.0], [0.0, 0.5, 1.0]], [[0.0] * 3, [0.1] * 3]),
        ([[1.0, math.inf, 2.0], [0.0, 0.5, 1.0]], [[0.0] * 3, [0.1] * 3]),
        ([[1.0, 1.5, 2.0], [0.0, -math.inf, 1.0]], [[0.0] * 3, [0.1] * 3]),
    ]
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def test_full_system_row_alone_steps_as_in_a_batch():
    # a row alone runs on floats (`_rk4_row`, `_full_row`); each row, also one
    # with a NaN or an infinite angle, must match the rows-first stepper step
    # for step and blow up when it blows up in a batch
    x0, v0, masses, sign = full_rows()
    x_bad, v_bad = nonfinite_full_rows()
    x0, v0 = np.vstack([x0, x_bad]), np.vstack([v0, v_bad])
    masses = np.vstack([masses, [[1.0, 2.0, 3.0]] * 3])
    sign = np.append(sign, [1.0, -1.0, 1.0])
    blew_up = []
    for b in range(len(x0)):

        def old_accel(x, v):
            return oracles._full_force(x, v, masses[b], COTANGENT, sign[b])

        row = _full_row(masses[b].tolist(), COTANGENT, float(sign[b]))
        alone, _ = assert_same_run(x0[b : b + 1], v0[b : b + 1], None, old_accel, 0.5, row)
        rows = [b, 0]
        z = np.stack([rows_last(x0[rows]), rows_last(v0[rows])])
        in_batch = verify.rk4(z, _full_force(masses[rows], COTANGENT, sign[rows]), 0.5, DT, lambda *a: None)
        assert alone.tobytes() == in_batch[:1].tobytes(), b
        blew_up.append(alone[0])
    assert np.isnan(blew_up[:2]).all() and blew_up[2:4] + blew_up[5:] == [0.0] * 5
    assert 0.2 < blew_up[4] < 0.3


def test_meridian_row_alone_steps_as_in_a_batch():
    # the meridian twin: each row of a mixed file, a row whose pair closes
    # mid-run and rows with NaN and infinite angles, alone on floats
    # (`_rk4_row`, `_meridian_row`), against the rows-first stepper step for
    # step and against its blow-up time in a 2-row batch
    theta, masses, omega2, sign = mirrored_meridian_batch()
    x_coast, v_coast = coasting_row()
    x0 = np.vstack([theta, x_coast, [[math.nan, 1.0, 2.0], [1.0, math.inf, 2.0]]])
    v0 = np.vstack([np.zeros_like(theta), v_coast, np.zeros((2, 3))])
    v0[: len(theta), 1] = 1e-6
    masses = np.vstack([masses, np.full(3, 1e-200), ONES, ONES])
    omega2, sign = np.append(omega2, [0.0, 1.0, 1.0]), np.append(sign, [1.0, -1.0, 1.0])
    blew_up = []
    for b in range(len(x0)):
        new_accel, old_accel = meridian_pair(masses[b], omega2[b], COTANGENT, True, sign[b])
        row = _meridian_row(masses[b].tolist(), float(omega2[b]), COTANGENT, float(sign[b]))
        alone, _ = assert_same_run(x0[b : b + 1], v0[b : b + 1], new_accel, old_accel, 0.5, row)
        rows = [b, 0]
        z = np.stack([rows_last(x0[rows]), rows_last(v0[rows])])
        force = _meridian_force(masses[rows], omega2[rows], COTANGENT, True, sign[rows])
        in_batch = verify.rk4(z, force, 0.5, DT, lambda *a: None)
        assert alone.tobytes() == in_batch[:1].tobytes(), b
        blew_up.append(alone[0])
    assert np.isnan(blew_up[: len(theta)]).all() and 0.2 < blew_up[-3] < 0.3 and blew_up[-2:] == [0.0, 0.0]


def coasting_row():
    """A meridian row whose body 1 coasts from 0.25 towards body 0 at unit speed."""
    return np.array([[0.0, 0.25, -1.0]]), np.array([[0.0, -1.0, 0.0]])


def closing_potential():
    """The cotangent, but U' raises once a pair closes to within 0.05."""

    def du(c):
        if c > math.cos(0.05):
            raise ValueError("pair too close")
        return (1.0 - c * c) ** -1.5

    return custom_potential(lambda c: c / math.sqrt(1.0 - c * c), du, attractive=True, name="closing")


def test_custom_potential_error_blows_up_a_batch_of_one_and_propagates_from_a_larger_one():
    pot = closing_potential()
    x0, v0 = coasting_row()
    tiny = np.full((1, 3), 1e-200)
    new_accel, old_accel = meridian_pair(tiny, np.zeros(1), pot, True)
    blew_up, steps = assert_same_run(x0, v0, new_accel, old_accel, 0.5)
    # the error falls at the start of a step, and nothing is sampled after it
    assert 0.15 < blew_up[0] < 0.25 and steps[-1][0] * DT == blew_up[0]
    x2, v2 = np.vstack([x0, x0 + 0.5]), np.vstack([v0, np.zeros(3)])
    new_accel, old_accel = meridian_pair(np.vstack([tiny, tiny]), np.zeros(2), pot, True)
    with pytest.raises(ValueError, match="pair too close"):
        verify.rk4(np.stack([rows_last(x2), rows_last(v2)]), new_accel, 0.5, DT, lambda *a: None)
    with pytest.raises(ValueError, match="pair too close"):
        oracles.rk4(x2, v2, old_accel, 0.5, DT, lambda *a: None)


def test_scan_hits_match_rows_first_stepper_and_keep_pole_middle_drift_zero():
    # the unguarded batch of `batch_meridian_drift`: array power, no flags
    hits = ere_scan(ONES, na=96, nx=96)
    theta = np.array([h.solution.thetas for h in hits])
    omega2 = np.array([h.solution.omega2 for h in hits])
    new_accel, old_accel = meridian_pair(ONES, omega2, COTANGENT, False)
    _, steps = assert_same_run(theta, np.zeros_like(theta), new_accel, old_accel, 0.5)
    drift = verify.batch_meridian_drift(theta, omega2, ONES, T=0.5)
    want = np.max([np.max(np.abs(x - theta), axis=1) for _, x, _, _ in steps], axis=0)
    assert drift.tobytes() == want.tobytes()
    pole_middle = np.array([h.solution.family == "isosceles-pole-middle" for h in hits])
    assert pole_middle.sum() > 10 and (drift[pole_middle] == 0.0).sum() > 10


@pytest.mark.parametrize(
    "rows, n_omega2, masses",
    [(4, 1, ONES), (4, 4, ONES[:2]), (4, 4, np.ones(4)), (1, 4, ONES), (4, 4, np.ones((4, 3)))],
    ids=["omega2-broadcast", "two-masses", "four-masses", "one-row", "per-row-masses"],
)
def test_batch_meridian_drift_rejects_mismatched_shapes(rows, n_omega2, masses):
    hits = ere_scan(ONES, na=48, nx=48)[:4]
    theta = np.array([h.solution.thetas for h in hits])[:rows]
    omega2 = np.array([h.solution.omega2 for h in hits])[:n_omega2]
    with pytest.raises(ValueError, match=r"thetas must be \(B, 3\)"):
        verify.batch_meridian_drift(theta, omega2, masses, T=0.01)


def closing_full_row():
    """A full-system row whose body 1 coasts down its meridian onto body 0 at unit speed."""
    return np.array([[1.0, 1.25, 2.0], [0.0, 0.0, 1.0]]), np.array([[0.0, -1.0, 0.0], [0.0] * 3])


def assert_row_steps_as_a_batch_of_one(z, force, row, T):
    """`_rk4_row` from the one-row batch z against `rk4` on it, bit for bit at every step; returns the blow-up time."""
    in_batch, alone = [], []
    blew_up = verify.rk4(z, force, T, DT, lambda n, zn, live: in_batch.append((n, zn.tobytes())))
    t = verify._rk4_row(z.ravel().tolist(), row, T, DT, lambda n, zn: alone.append((n, np.array(zn).tobytes())))
    assert np.array([t]).tobytes() == blew_up.tobytes()
    assert alone == in_batch
    return t


OVERFLOWING = 1e308  # a rate whose RK4 combination k1 + 2 k2 + 2 k3 + k4 overflows


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("pot", [COTANGENT, closing_potential()], ids=["cotangent", "custom"])
def test_meridian_rk4_row_is_rk4_on_a_batch_of_one(pot, sign):
    # the rows of a mixed file, kicked, a pair closing mid-run
    # (a singular pair, or U' raising ValueError under the custom potential),
    # a body at a pole, NaN and infinite angles, and a rate that overflows
    theta, masses, omega2, _ = mirrored_meridian_batch()
    x_coast, v_coast = coasting_row()
    z = np.zeros((2, 3))
    cases = [(th, [0.0, 1e-6, 0.0], m, w) for th, m, w in zip(theta, masses, omega2.tolist())] + [
        (x_coast[0], v_coast[0], np.full(3, 1e-200), 0.0),
        ([0.0, 1.0, 2.5], [0.0, 0.1, 0.0], ONES, 1.0),
        ([math.nan, 1.0, 2.0], z[0], ONES, 1.0),
        ([1.0, -math.inf, 2.0], z[0], ONES, 1.0),
        ([0.5, 1.0, 2.0], [OVERFLOWING, 0.0, 0.0], ONES, 1.0),
    ]
    blew_up = []
    for th, td, m, w in cases:
        zb = np.array([th, td], dtype=float)[..., None]
        force, row = _meridian_force(m, w, pot, True, sign), _meridian_row(m.tolist(), w, pot, sign)
        blew_up.append(assert_row_steps_as_a_batch_of_one(zb, force, row, 0.3))
    # the equal-mass RE and the pole row complete
    assert np.isnan(blew_up[0]) and np.isnan(blew_up[-4])
    assert 0.15 < blew_up[len(theta)] < 0.3 and blew_up[-3:] == [0.0, 0.0, DT]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("pot", [COTANGENT, closing_potential()], ids=["cotangent", "custom"])
def test_full_rk4_row_is_rk4_on_a_batch_of_one(pot, sign):
    # the rows of `full_rows` (RE, a body at a pole, an antipodal pair, a
    # body coasting onto a pole), a pair closing mid-run, NaN and infinite
    # angles, and a rate that overflows
    x0, v0, masses, _ = full_rows()
    x_bad, v_bad = nonfinite_full_rows()
    x_close, v_close = closing_full_row()
    x_over, v_over = [[1.5, 1.0, 2.0], [0.0, 1.0, 2.0]], [[OVERFLOWING, 0.0, 0.0], [0.0] * 3]
    x0, v0 = np.vstack([x0, x_bad, [x_close, x_over]]), np.vstack([v0, v_bad, [v_close, v_over]])
    masses = np.vstack([masses, [ONES] * 3, np.full(3, 1e-200), ONES])
    blew_up = []
    for x, v, m in zip(x0, v0, masses):
        z = np.array([x, v])[..., None]
        force, row = _full_force(m, pot, sign), _full_row(m.tolist(), pot, sign)
        blew_up.append(assert_row_steps_as_a_batch_of_one(z, force, row, 0.3))
    assert np.isnan(blew_up[:2]).all() and blew_up[2:4] == [0.0, 0.0] and 0.2 < blew_up[4] < 0.3
    assert blew_up[5:8] == [0.0] * 3 and 0.15 < blew_up[8] < 0.3 and blew_up[9] == DT
