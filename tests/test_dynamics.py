import math

import numpy as np
import pytest

from sphere_re.dynamics import (
    PhaseState,
    _full_force,
    _full_row,
    _meridian_force,
    _meridian_jacobian,
    _meridian_row,
    angular_momentum,
    eom_accelerations,
    euclidean_limit_check,
    kinetic_energy,
    meridian_accelerations,
    meridian_energy,
    meridian_re_residual,
    potential_energy,
    total_energy,
)
from sphere_re.errors import CoordinateSingularity, SingularSeparation
from sphere_re.potential import COTANGENT, NEGATED_COTANGENT, custom_potential
import oracles
from oracles import fd_gradient, random_config, random_rotation, signed_potential, velocities_from_vectors
from oracles import eom_accelerations as loop_eom_accelerations
from oracles import meridian_accelerations as loop_meridian_accelerations


def random_state(rng, vel_scale=0.3) -> PhaseState:
    while True:
        th, ph = random_config(rng)
        if np.min(np.abs(np.sin(th))) < 0.05:
            continue
        # keep pairs clear of collisions/antipodes
        ok = True
        for i, j in ((0, 1), (1, 2), (2, 0)):
            c = math.cos(th[i]) * math.cos(th[j]) + math.sin(th[i]) * math.sin(th[j]) * math.cos(ph[i] - ph[j])
            if abs(c) > 0.98:
                ok = False
        if ok:
            return PhaseState(th, ph, rng.normal(0, vel_scale, 3), rng.normal(0, vel_scale, 3))


def test_angular_momentum_zero_velocities(rng):
    th, ph = random_config(rng)
    st = PhaseState(th, ph, np.zeros(3), np.zeros(3))
    assert np.allclose(angular_momentum(st, np.ones(3)), 0.0)


def test_angular_momentum_rigid_rotation_closed_form(rng):
    # c_x = -w sum m sin cos cos(phi), c_y likewise, c_z = w sum m sin^2
    for _ in range(20):
        th, ph = random_config(rng)
        m = rng.uniform(0.2, 5.0, 3)
        w = rng.normal()
        st = PhaseState(th, ph, np.zeros(3), np.full(3, w))
        c = angular_momentum(st, m)
        cx = -w * np.sum(m * np.sin(th) * np.cos(th) * np.cos(ph))
        cy = -w * np.sum(m * np.sin(th) * np.cos(th) * np.sin(ph))
        cz = w * np.sum(m * np.sin(th) ** 2)
        assert c == pytest.approx([cx, cy, cz], abs=1e-12)


def test_angular_momentum_body_at_pole():
    st = PhaseState(np.array([0.0]), np.array([0.0]), np.zeros(1), np.array([7.0]))
    assert np.allclose(angular_momentum(st, [1.0]), 0.0)


def test_angular_momentum_rotation_equivariance(rng):
    from sphere_re.geometry import BodyPosition, embed

    for _ in range(20):
        st = random_state(rng)
        m = rng.uniform(0.2, 5.0, 3)
        rot = random_rotation(rng)
        th2 = np.empty(3)
        ph2 = np.empty(3)
        td2 = np.empty(3)
        pd2 = np.empty(3)
        for k in range(3):
            pos = embed(BodyPosition(st.theta[k], st.phi[k]))
            st_k, ct_k = math.sin(st.theta[k]), math.cos(st.theta[k])
            sp, cp = math.sin(st.phi[k]), math.cos(st.phi[k])
            vel = (
                st.theta_dot[k] * np.array([ct_k * cp, ct_k * sp, -st_k])
                + st.phi_dot[k] * np.array([-st_k * sp, st_k * cp, 0.0])
            )
            pos2, vel2 = rot @ pos, rot @ vel
            th2[k] = math.acos(min(1.0, max(-1.0, pos2[2])))
            ph2[k] = math.atan2(pos2[1], pos2[0])
            td2[k], pd2[k] = velocities_from_vectors(pos2, vel2)
        c1 = angular_momentum(st, m)
        c2 = angular_momentum(PhaseState(th2, ph2, td2, pd2), m)
        assert c2 == pytest.approx(rot @ c1, abs=1e-10)


def test_euclidean_limit_deviation_and_order(rng):
    r = rng.uniform(0.3, 1.5, 3)
    phi = rng.uniform(0, 2 * math.pi, 3)
    rd = rng.normal(0, 0.3, 3)
    phid = rng.normal(0, 0.3, 3)
    m = rng.uniform(0.2, 2.0, 3)
    rep = euclidean_limit_check(r, phi, rd, phid, m, 1e-3)
    assert rep.deviation < 1e-5
    rep2 = euclidean_limit_check(r, phi, rd, phid, m, 5e-4)
    assert rep2.deviation / rep.deviation == pytest.approx(0.25, abs=0.05)


def test_euclidean_limit_zero_velocities(rng):
    r = rng.uniform(0.3, 1.5, 3)
    phi = rng.uniform(0, 2 * math.pi, 3)
    rep = euclidean_limit_check(r, phi, np.zeros(3), np.zeros(3), np.ones(3), 1e-3)
    assert rep.deviation == 0.0
    assert rep.planar_momenta == (0.0, 0.0, 0.0)


def test_potential_gradients_match_finite_differences(rng):
    # at rest the accelerations are the gradient of V over the inertia:
    # m theta_ddot = dV/dtheta and m sin^2(theta) phi_ddot = dV/dphi
    for _ in range(10):
        st = random_state(rng)
        m = rng.uniform(0.2, 5.0, 3)

        def v_of(q):
            return potential_energy(PhaseState(q[:3], q[3:], np.zeros(3), np.zeros(3)), m)

        q0 = np.concatenate([st.theta, st.phi])
        g = fd_gradient(v_of, q0)
        tdd, pdd = eom_accelerations(PhaseState(st.theta, st.phi, np.zeros(3), np.zeros(3)), m, COTANGENT)
        assert m * tdd == pytest.approx(g[:3], rel=1e-6, abs=1e-8)
        assert m * np.sin(st.theta) ** 2 * pdd == pytest.approx(g[3:], rel=1e-6, abs=1e-8)


def test_rigid_rotation_equilibrium():
    # symmetric ring at cos(theta) = 1/sqrt(3) rotating at omega^2 = 3
    th = math.acos(1.0 / math.sqrt(3.0))
    state = PhaseState.rigid_rotation(
        np.full(3, th), np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3]), math.sqrt(3.0)
    )
    tdd, pdd = eom_accelerations(state, np.ones(3))
    assert np.max(np.abs(tdd)) < 1e-13
    assert np.max(np.abs(pdd)) < 1e-13


def test_eom_antipodal_pair_raises():
    st = PhaseState(
        np.array([math.pi / 2, math.pi / 2, 1.0]), np.array([0.0, math.pi, 2.0]), np.zeros(3), np.zeros(3)
    )
    with pytest.raises(SingularSeparation):
        eom_accelerations(st, np.ones(3))


def test_eom_pole_raises_coordinate_singularity():
    st = PhaseState(np.array([0.0, 1.0, 2.0]), np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(CoordinateSingularity):
        eom_accelerations(st, np.ones(3))


def test_energy_is_kinetic_minus_potential(rng):
    st = random_state(rng)
    m = rng.uniform(0.2, 5.0, 3)
    assert total_energy(st, m) == kinetic_energy(st, m) - potential_energy(st, m)


def test_meridian_residual_isosceles_third():
    # spread pi/3 about the pole: the rate that balances it is 32/(3 sqrt 3)
    th = np.array([-math.pi / 3, math.pi / 3, 0.0])
    om2 = 32.0 / (3.0 * math.sqrt(3.0))
    assert np.max(np.abs(meridian_re_residual(th, np.ones(3), om2))) < 1e-12


def test_meridian_residual_equilateral_fixed_point():
    th = np.array([0.0, 2 * math.pi / 3, -2 * math.pi / 3])
    assert np.max(np.abs(meridian_re_residual(th, np.ones(3), 0.0))) < 1e-12


def test_meridian_residual_coincident_raises():
    with pytest.raises(SingularSeparation):
        meridian_re_residual(np.array([0.1, 0.1, 1.0]), np.ones(3), 1.0)


@pytest.mark.parametrize(
    "pot",
    [COTANGENT, NEGATED_COTANGENT, custom_potential(lambda c: c, lambda c: 1.0 + 0.5 * c, attractive=True)],
    ids=["cotangent", "negated", "custom"],
)
def test_meridian_accelerations_match_loop_oracle_bit_for_bit(pot):
    rng = np.random.default_rng(11)
    th = rng.uniform(-math.pi, math.pi, (2000, 3))
    m = rng.uniform(0.2, 3.0, 3)
    om2 = rng.uniform(-5.0, 5.0, 2000)
    want = np.array([loop_meridian_accelerations(t, m, w, pot) for t, w in zip(th, om2)])
    single = np.array([meridian_accelerations(t, m, w, pot) for t, w in zip(th, om2)])
    assert np.array_equal(single, want)
    assert np.array_equal(meridian_accelerations(th, m, om2[:, None], pot), want)
    assert np.array_equal(meridian_re_residual(th, m, om2[:, None], pot), m * want)
    rows = [_meridian_row(m.tolist(), w, pot)(t)[0] for t, w in zip(th.tolist(), om2.tolist())]
    assert np.array(rows).tobytes() == meridian_accelerations(th, m, om2[:, None], pot).tobytes()


SCALAR_TWICE_COTANGENT = custom_potential(
    lambda c: 2.0 * c / math.sqrt(1.0 - c * c), lambda c: 2.0 * (1.0 - c * c) ** -1.5, attractive=True
)


def batch_of(states):
    """x and v of the states as `_full_force` takes them, (2, 3, B) with the rows last."""
    x = np.array([[s.theta, s.phi] for s in states])
    v = np.array([[s.theta_dot, s.phi_dot] for s in states])
    return np.moveaxis(x, 0, -1).copy(), np.moveaxis(v, 0, -1).copy()


def row_of(x, v, b):
    """Row b of a batch as the float kernels take it: x and v as lists."""
    return x[..., b].ravel().tolist(), v[..., b].ravel().tolist()


def rows_first(acc):
    """(2, 3, B) accelerations as (B, 2, 3) rows, the scalar loop's layout."""
    return np.moveaxis(acc, -1, 0).copy()


@pytest.mark.parametrize(
    "pot", [COTANGENT, NEGATED_COTANGENT, SCALAR_TWICE_COTANGENT], ids=["cotangent", "negated", "custom"]
)
def test_full_force_matches_loop_oracle_bit_for_bit(pot):
    # 10^4 random states with their own masses as one batch, against the
    # scalar double loop over ordered pairs; a custom U' is written for
    # one float and must be called on scalars
    rng = np.random.default_rng(12)
    states = [random_state(rng, vel_scale=1.0) for _ in range(10**4)]
    for st in states[::7]:  # pairs at one azimuth give zero terms
        st.phi[2] = st.phi[0]
    masses = rng.uniform(0.2, 5.0, (len(states), 3))
    want = np.array([loop_eom_accelerations(st, m, pot) for st, m in zip(states, masses)])
    x, v = batch_of(states)
    acc, blown = _full_force(masses, pot)(x, v)
    assert blown is None
    assert rows_first(acc).tobytes() == want.tobytes()
    assert np.array(eom_accelerations(states[1], masses[1], pot)).tobytes() == want[1].tobytes()
    # the negated potential gives the bits of the rows-first oracle's U' times a -1.0 column
    negated, _ = _full_force(masses, pot.negated())(x, v)
    signed, _ = oracles._full_force(rows_first(x), rows_first(v), masses, pot, np.full((len(states), 1), -1.0))
    assert rows_first(negated).tobytes() == signed.tobytes()
    # the float kernel of one row, under the potential and under its negation
    for sign, ref in ((1.0, want), (-1.0, signed)):
        for b in range(1000):
            acc, flagged = _full_row(masses[b].tolist(), signed_potential(pot, sign))(*row_of(x, v, b))
            assert flagged is False and len(acc) == 6
            assert np.array(acc).tobytes() == ref[b].tobytes(), (sign, b)


def unevaluable_states():
    """A body at a pole, an antipodal pair, and NaN and infinite angles."""
    z = np.zeros(3)
    return [
        PhaseState(np.array([0.0, 1.0, 2.0]), z, z, z),
        PhaseState(np.array([math.pi / 2, math.pi / 2, 1.0]), np.array([0.0, math.pi, 2.0]), z, z),
        PhaseState(np.array([math.nan, 1.0, 2.0]), z, z, z),
        PhaseState(np.array([1.0, math.inf, 2.0]), z, z, z),
        PhaseState(np.array([1.0, 1.5, 2.0]), np.array([0.0, -math.inf, 1.0]), z, z),
    ]


def test_full_force_flags_rows_it_cannot_evaluate(rng):
    good = random_state(rng)
    bad = unevaluable_states()
    for pot in (COTANGENT, SCALAR_TWICE_COTANGENT):
        with np.errstate(divide="ignore", invalid="ignore"):
            acc, blown = _full_force(np.ones(3), pot)(*batch_of([good, *bad, good]))
        assert blown.tolist() == [False] + [True] * len(bad) + [False]
        want = np.array(loop_eom_accelerations(good, np.ones(3), pot))
        acc = rows_first(acc)
        assert acc[0].tobytes() == want.tobytes() and acc[-1].tobytes() == want.tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("pot", [COTANGENT, SCALAR_TWICE_COTANGENT], ids=["cotangent", "custom"])
def test_full_force_row_alone_is_its_row_in_a_batch(pot, sign):
    # the float kernel must flag what the batched path flags, without
    # raising (math.sin(inf) raises, and so does a division by zero), and
    # match it elsewhere, also just outside the singular-pair bound (sin^2
    # of 0.9e-7 is inside 1e-14, of 1.2e-7 not)
    pot = signed_potential(pot, sign)
    good = random_state(np.random.default_rng(3))
    z = np.zeros(3)
    near = [PhaseState(np.array([1.0, 1.0 + d, 2.0]), np.array([0.3, 0.3, 1.0]), z, z) for d in (0.9e-7, 1.2e-7)]
    cases = [(state, True) for state in unevaluable_states() + near[:1]] + [(near[1], False), (good, False)]
    for state, flagged in cases:
        x, v = batch_of([state, good])
        acc, alone = _full_row([1.0] * 3, pot)(*row_of(x, v, 0))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            acc_pair, pair = _full_force(np.ones(3), pot)(x, v)
        assert alone is flagged and (pair is not None and pair.tolist()) == (flagged and [True, False])
        if not flagged:
            assert np.array(acc).tobytes() == rows_first(acc_pair)[0].tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("pot", [COTANGENT, SCALAR_TWICE_COTANGENT], ids=["cotangent", "custom"])
def test_meridian_row_is_its_row_in_a_batch(pot, sign):
    # the guarded float kernel flags the rows the batched force flags and
    # gives its accelerations, the quarter turn of a singular pair included;
    # a body at a pole is a state like any other, and a non-finite angle
    # flags its pairs (math.sin(inf) raises where np.sin gives NaN)
    pot = signed_potential(pot, sign)
    rng = np.random.default_rng(5)
    states = [rng.uniform(-math.pi, math.pi, 3) for _ in range(20)]
    states += [np.array([1.0, 1.0 + d, -0.5]) for d in (0.9e-7, 1.2e-7, 0.0, math.pi)]
    states += [np.array([0.0, 1.0, -2.0]), np.array([math.nan, 1.0, 2.0]), np.array([1.0, math.inf, 2.0])]
    # finite angles whose separation or double overflows
    states += [np.array([1e308, 1.0, -1e308]), np.array([1e308, 1.0, 2.0])]
    m, omega2 = np.array([0.5, 1.0, 4.0]), 1.7
    for th in states:
        acc, flagged = _meridian_row(m.tolist(), omega2, pot)(th.tolist())
        with np.errstate(invalid="ignore", over="ignore"):
            acc_pair, pair = _meridian_force(m, omega2, pot, True)(np.array([th, states[0]]).T.copy())
        assert flagged is (pair is not None and bool(pair[0])) and (pair is None or not pair[1])
        # the bits of a NaN may differ
        acc, want = np.array(acc), acc_pair[:, 0]
        nan = np.isnan(want)
        assert np.isnan(acc).tolist() == nan.tolist() and acc[~nan].tobytes() == want[~nan].tobytes()
    flags = [_meridian_row(m.tolist(), omega2, pot)(th.tolist())[1] for th in states[20:]]
    assert flags == [True, False, True, True, False, True, True, True, False]


LINEAR_U_PRIME = custom_potential(lambda c: c + 0.25 * c * c, lambda c: 1.0 + 0.5 * c, attractive=True)


def meridian_edge_states(pot, m):
    """Meridian states at the edges of the force, each pair (12, 23, 31) in turn.

    Coincident and antipodal pairs, -0.0 against +0.0, the adjacent
    doubles on either side of the singular-pair bound (found by
    bisection on the guarded row kernel's flag), and NaN and +-inf angles.
    """
    base = [0.4, 1.1, 2.3]
    states = [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0, 0.0], [0.3, 0.3, 0.3], [-0.3, -0.3, -0.3]]
    for k, j in ((0, 1), (1, 2), (2, 0)):
        th = list(base)
        th[j] = th[k]
        states.append(list(th))
        th[k], th[j] = -0.0, 0.0
        states += [list(th), th[::-1]]
        th[k], th[j] = base[k], base[k] + math.pi
        states.append(list(th))
        for flip in (0.0, math.pi):  # next to coincidence and next to the antipode
            inside, outside = 0.5e-7, 2e-7
            while np.nextafter(inside, outside) < outside:
                mid = 0.5 * (inside + outside)
                th[j] = base[k] + flip + mid
                if _meridian_row(m.tolist(), 1.0, pot)(th)[1]:
                    inside = mid
                else:
                    outside = mid
            pair = [[*th[:j], base[k] + flip + gap, *th[j + 1 :]] for gap in (inside, outside)]
            assert [_meridian_row(m.tolist(), 1.0, pot)(t)[1] for t in pair] == [True, False]
            states += pair
    for k in range(3):
        for bad in (math.nan, math.inf, -math.inf):
            th = list(base)
            th[k] = bad
            states.append(th)
    return np.array(states)


@pytest.mark.parametrize("guarded", [True, False], ids=["guarded", "unguarded"])
@pytest.mark.parametrize("pot", [COTANGENT, LINEAR_U_PRIME], ids=["cotangent", "custom"])
def test_meridian_force_edge_cases_match_pair_order_oracle(pot, guarded):
    # the oracle takes the pairs in the order 01, 02, 12 and the force in
    # 12, 23, 31: pair 31's separation is the negation of pair 02's, which
    # gives each value the same bits (sin is odd, U' even) but where a pair
    # coincides exactly: both orders subtract to +0.0, so a term that is a
    # zero may change sign, and reaches an acceleration only when every term
    # of that body is a zero.  The bits of a NaN may differ too
    m = np.array([0.7, 1.9, 3.1])
    states = meridian_edge_states(pot, m)
    coincident = (states == np.roll(states, -1, axis=1)).any(axis=1)
    assert coincident.sum() == 14 and len(states) == 38
    for sign in (1.0, -1.0):
        signed = signed_potential(pot, sign)
        for omega2 in (1.7, 0.0, -1.7):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                acc, blown = _meridian_force(m, omega2, signed, guarded)(states.T.copy())
                want, want_blown = oracles._meridian_force(states, m, omega2, pot, guarded, sign)
            acc = acc.T
            assert (blown is None) == (want_blown is None) and (blown is None or blown.tolist() == want_blown.tolist())
            nan = np.isnan(want)
            assert np.isnan(acc).tolist() == nan.tolist()
            assert np.array_equal(acc, want, equal_nan=True)
            clear = ~nan & ~coincident[:, None]
            assert acc[clear].tobytes() == want[clear].tobytes(), (sign, omega2)
            if not guarded:
                continue
            # the guarded row kernel is its row of the batch, zeros' signs included
            for th, a, flag in zip(states.tolist(), acc, blown.tolist()):
                row, flagged = _meridian_row(m.tolist(), omega2, signed)(th)
                row = np.array(row)
                assert flagged is flag and np.isnan(row).tolist() == np.isnan(a).tolist(), th
                assert row[~np.isnan(a)].tobytes() == a[~np.isnan(a)].tobytes(), th



def symmetry_points():
    """Zeros, subnormals, neighbours of multiples of pi/2, and magnitudes from 1e-300 to the largest double."""
    quarter_turns = np.arange(1, 2001) * (0.5 * math.pi)
    return np.concatenate(
        [
            [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-310, 1e300, np.finfo(float).max],
            quarter_turns,
            np.nextafter(quarter_turns, 0.0),
            np.nextafter(quarter_turns, math.inf),
            np.logspace(-300, 300, 6001),
            np.random.default_rng(8).uniform(-10.0, 10.0, 4000),
        ]
    )


def test_sin_is_odd_and_cos_even_bit_for_bit():
    # `_full_row` evaluates each pair once for both of its ordered terms, and
    # matches the batch and the loop oracle only while sin(-x) = -sin(x) and
    # cos(-x) = cos(x) hold bit for bit (zeros' signs included) in math and numpy
    x = symmetry_points()
    x = np.concatenate([x, -x])
    neg = (-x).tolist()
    assert np.array([math.sin(t) for t in neg]).tobytes() == (-np.array([math.sin(t) for t in x.tolist()])).tobytes()
    assert np.array([math.cos(t) for t in neg]).tobytes() == np.array([math.cos(t) for t in x.tolist()]).tobytes()
    assert np.sin(-x).tobytes() == (-np.sin(x)).tobytes()
    assert np.cos(-x).tobytes() == np.cos(x).tobytes()


def counting_potential():
    """The cotangent as a custom potential, with the calls of its U' counted in `calls`."""
    calls = []

    def du(c):
        calls.append(c)
        return (1.0 - c * c) ** -1.5

    return custom_potential(lambda c: c / math.sqrt(1.0 - c * c), du, attractive=True), calls


def test_row_kernels_take_u_prime_once_per_pair():
    pot, calls = counting_potential()
    full = _full_row([1.0, 2.0, 3.0], pot)
    v = [0.1, -0.2, 0.3, 0.4, 0.5, -0.6]
    # a generic state, a singular pair (a quarter turn), and a body at a pole
    states = [1.0, 1.3, 2.0, 0.1, 1.7, -2.2], [1.0, 1.0, 2.0, 0.3, 0.3, 1.0], [0.0, 1.0, 2.0, 0.0, 0.0, 0.0]
    for x, want in zip(states, (3, 3, 0)):
        calls.clear()
        full(x, v)
        assert len(calls) == want, x
    meridian = _meridian_row([1.0, 2.0, 3.0], 1.3, pot)
    for th in ([0.3, 1.4, 2.5], [0.3, 0.3, 2.5], [0.3, 0.3, 0.3]):
        calls.clear()
        meridian(th)
        assert len(calls) == 3, th


def full_row_against_oracle(state, m, pot):
    """`_full_row`'s accelerations and flag on `state`, and the loop oracle's accelerations or its exception."""
    acc, flagged = _full_row(m.tolist(), pot)(*row_of(*batch_of([state]), 0))
    try:
        want = np.array(loop_eom_accelerations(state, m, pot))
    except SingularSeparation as e:
        want = e
    return acc, flagged, want


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("pot", [COTANGENT, SCALAR_TWICE_COTANGENT], ids=["cotangent", "custom"])
def test_full_row_edge_cases_match_loop_oracle_bit_for_bit(pot, sign):
    # pairs at equal azimuths (ph_k - ph_j and ph_j - ph_k both +0.0), at
    # -0.0 against +0.0, and on either side of the singular-pair bound,
    # for each of the three pairs the kernel shares between two bodies
    pot = signed_potential(pot, sign)
    m = np.array([0.7, 1.9, 3.1])
    # at rest on one meridian every azimuthal term is a zero, and only the sums from 0.0 fix its sign
    rest = np.zeros(3)
    for ph in ([0.3, 0.3, 0.3], [-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [0.0, 0.0, -0.0]):
        acc, flagged, want = full_row_against_oracle(PhaseState([0.4, 0.9, 1.3], ph, rest, rest), m, pot)
        assert not flagged and np.array(acc).tobytes() == want.tobytes()
    for k, j in ((0, 1), (0, 2), (1, 2)):
        th, ph = np.array([1.0, 1.6, 2.2]), np.array([0.3, 1.9, -2.0])
        v = (np.array([0.1, -0.2, 0.3]), np.array([0.4, 0.5, -0.6]))
        ph[j] = ph[k]
        acc, flagged, want = full_row_against_oracle(PhaseState(th, ph, *v), m, pot)
        assert not flagged and np.array(acc).tobytes() == want.tobytes()
        ph[k], ph[j] = -0.0, 0.0
        acc, flagged, want = full_row_against_oracle(PhaseState(th, ph, *v), m, pot)
        assert not flagged and np.array(acc).tobytes() == want.tobytes()
        # bisect the theta gap of the pair at one azimuth down to adjacent doubles
        inside, outside = 0.5e-7, 2e-7
        while np.nextafter(inside, outside) < outside:
            mid = 0.5 * (inside + outside)
            th[j] = th[k] + mid
            if _full_row(m.tolist(), pot)(*row_of(*batch_of([PhaseState(th, ph, *v)]), 0))[1]:
                inside = mid
            else:
                outside = mid
        th[j] = th[k] + inside
        acc, flagged, want = full_row_against_oracle(PhaseState(th, ph, *v), m, pot)
        assert flagged and isinstance(want, SingularSeparation)
        th[j] = th[k] + outside
        acc, flagged, want = full_row_against_oracle(PhaseState(th, ph, *v), m, pot)
        assert not flagged and np.array(acc).tobytes() == want.tobytes()
        # an exactly antipodal pair (1 - c^2 = 0.0) is flagged, U' taken at a quarter turn
        th[k] = th[j] = 0.5 * math.pi
        ph[j] = ph[k] + math.pi
        acc, flagged, want = full_row_against_oracle(PhaseState(th, ph, *v), m, pot)
        assert flagged and isinstance(want, SingularSeparation)

def test_meridian_energy_stationary_under_gradient():
    # the reduced accelerations are minus the gradient of the reduced energy
    rng = np.random.default_rng(7)
    for _ in range(10):
        th = rng.uniform(-1.2, 1.2, 3)
        if min(abs(math.sin(th[i] - th[j])) for i, j in ((0, 1), (1, 2), (2, 0))) < 0.1:
            continue
        m = rng.uniform(0.2, 3.0, 3)
        om2 = rng.uniform(0.0, 5.0)

        def e_of(q):
            return meridian_energy(q, np.zeros(3), m, om2)

        g = fd_gradient(e_of, th)
        resid = meridian_re_residual(th, m, om2)
        assert resid == pytest.approx(-g, rel=1e-6, abs=1e-7)


@pytest.mark.parametrize(
    "pot", [COTANGENT, NEGATED_COTANGENT, LINEAR_U_PRIME], ids=["cotangent", "negated", "custom"]
)
def test_meridian_jacobian_matches_central_differences_of_the_force(pot, rng):
    # masses and omega^2 per row, as the force takes them; pairs kept off the singular set
    th = rng.uniform(-math.pi, math.pi, (3, 800))
    th = th[:, (np.abs(np.sin(th - np.roll(th, -1, axis=0))) >= 0.1).all(axis=0)][:, :200]
    n = th.shape[1]
    m, om2 = rng.uniform(0.2, 3.0, (n, 3)), rng.uniform(-5.0, 5.0, n)
    jac, blown = _meridian_jacobian(th, m, om2, pot)
    force = _meridian_force(m, om2, pot, True)
    assert blown is None and jac.shape == (3, 3, n)
    h = 1e-6
    for col in range(3):
        step = np.zeros((3, 1))
        step[col] = h
        fd = (force(th + step)[0] - force(th - step)[0]) / (2.0 * h)
        assert (np.abs(jac[:, col] - fd).max(axis=0) <= 1e-8 * np.abs(jac).max(axis=(0, 1))).all()
    # each pair term depends on a difference of angles: a common shift moves only the rotation term
    assert np.abs(jac.sum(axis=1) - om2 * np.cos(2.0 * th)).max() <= 1e-12 * np.abs(jac).max()
