"""Independent oracles used by the test-suite.

Everything here is deliberately written from first principles (finite
differences, brute-force determinant evaluation, the flat-space
equations of motion) so that the package code is checked against
machinery it does not share.
"""

from __future__ import annotations

import math

import numpy as np


def fd_gradient(f, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def char_poly_brute(mat):
    """Monic cubic coefficients by sampling det(lambda I - M).

    Evaluates the characteristic polynomial at four integer points and
    solves the Vandermonde system, avoiding the trace/minor shortcuts
    the package uses.
    """
    mat = np.asarray(mat, dtype=float)
    lams = np.array([0.0, 1.0, 2.0, 3.0])
    vals = np.array([np.linalg.det(l * np.eye(3) - mat) for l in lams])
    # p(l) = l^3 + c2 l^2 + c1 l + c0  ->  fit (c2, c1, c0)
    A = np.vander(lams, 3)  # columns l^2, l, 1
    rhs = vals - lams**3
    coef = np.linalg.solve(A[:3], rhs[:3])
    # consistency at the fourth point guards against blunders here
    assert abs(lams[3] ** 3 + coef @ [lams[3] ** 2, lams[3], 1.0] - vals[3]) < 1e-8
    return tuple(coef)


def random_rotation(rng):
    """Haar-ish random rotation from QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_config(rng, n=3):
    """Uniform random points on the sphere as (theta, phi) arrays."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    theta = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    phi = np.arctan2(v[:, 1], v[:, 0])
    return theta, phi


def classical_collinear_det(x, masses):
    """Flat-space collinear shape condition, derived from scratch.

    For bodies at positions x on a rotating line, uniform rotation needs
    omega^2 x_k = sum_j m_j (x_k - x_j)/|x_k - x_j|^3 with the center of
    mass at the origin.  Substituting x_k = sum_j m_j (x_k - x_j) / M
    turns the three equations into equal pair quantities, and the
    compatibility condition is this determinant.
    """
    m = np.asarray(masses, dtype=float)
    F = {}
    G = {}
    for i, j in ((0, 1), (1, 2), (2, 0)):
        d = x[i] - x[j]
        F[(i, j)] = m[i] * m[j] * d / abs(d) ** 3
        G[(i, j)] = 2.0 * m[i] * m[j] * d
    return (G[(0, 1)] - G[(1, 2)]) * (F[(2, 0)] - F[(0, 1)]) - (G[(2, 0)] - G[(0, 1)]) * (F[(0, 1)] - F[(1, 2)])


def classical_quintic_limit(x, masses):
    """Flat-space limit value the spherical shape numerator approaches.

    g(eps * offsets) / eps^5 converges to classical_collinear_det times
    (r12 r23 r31)|r12 r23 r31| / (m1 m2 m3), with the spacings read from
    the same offsets.
    """
    m = np.asarray(masses, dtype=float)
    prod = (x[0] - x[1]) * (x[1] - x[2]) * (x[2] - x[0])
    return classical_collinear_det(x, m) * prod * abs(prod) / float(np.prod(m))


def classical_cc_residual(x, masses):
    """How far positions are from a flat collinear central configuration.

    Returns the spread of the per-body omega^2 = (sum_j m_j
    (x_k - x_j)/|x_k - x_j|^3) / x_k about their mean, after moving the
    center of mass to the origin; zero exactly at a central
    configuration.  Independent certification for the det oracle above.
    """
    m = np.asarray(masses, dtype=float)
    x = np.asarray(x, dtype=float) - float(np.sum(m * x) / np.sum(m))
    om2 = []
    for k in range(3):
        s = sum(m[j] * (x[k] - x[j]) / abs(x[k] - x[j]) ** 3 for j in range(3) if j != k)
        om2.append(s / x[k])
    return max(om2) - min(om2)


def velocities_from_vectors(pos, vel):
    """(theta_dot, phi_dot) from Cartesian position/velocity triples."""
    x, y, z = pos
    vx, vy, vz = vel
    st2 = x * x + y * y
    theta_dot = -vz / math.sqrt(st2)
    phi_dot = (x * vy - y * vx) / st2
    return theta_dot, phi_dot


_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def g_equal_mass(a, x):
    """Equal-mass shape-condition numerator in (a, x); zero on ERE shapes."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    sx, sa, sxa = np.sin(x), np.sin(a), np.sin(x - a)
    hx, ha, hxa = sx * np.abs(sx), sa * np.abs(sa), sxa * np.abs(sxa)
    return hx * (np.sin(2 * x) + np.sin(2 * a)) * (hxa - ha) - hxa * (np.sin(2 * a) - np.sin(2 * (x - a))) * (ha + hx)


def g_cyclic(a, x, masses=(1.0, 1.0, 1.0)):
    """General-mass cotangent shape-condition numerator.

    Cyclic sum of m_k sin(t_ij)|sin(t_ij)| (sin(t_ki)|sin(t_ki)|
    sin(2 t_ki) - sin(t_jk)|sin(t_jk)| sin(2 t_jk)) over the signed
    separations of the offsets (0, a, x).  For equal unit masses this
    equals g_equal_mass exactly.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    m = [float(v) for v in masses]
    th = (np.zeros_like(a + x), a, x)

    def h(d):
        s = np.sin(d)
        return s * np.abs(s)

    tot = 0.0
    for i, j, k in _CYCLIC:
        tij = th[i] - th[j]
        tjk = th[j] - th[k]
        tki = th[k] - th[i]
        tot = tot + m[k] * h(tij) * (h(tki) * np.sin(2 * tki) - h(tjk) * np.sin(2 * tjk))
    return tot


def row_sign_changes(a_grid, x_grid, masses):
    """Sign changes of `g_cyclic` between neighbouring x nodes, one a row at a time."""
    change = np.zeros((len(a_grid), max(len(x_grid) - 1, 0)), dtype=bool)
    for r, a in enumerate(a_grid):
        sign = np.sign(g_cyclic(a, x_grid, masses))
        change[r] = sign[:-1] * sign[1:] < 0.0
    return change


def scalar_ere_scan(masses, na, nx, pot):
    """Row-by-row ere scan: one scalar bisection and one solve per hit.

    The reference for `ere_scan`, whose batched bisection and batched
    solve must return exactly these hits, in the same order.  Each hit
    is (a, x, g, solution) with the solution from the scalar
    `solve_ere` below, and g from the cyclic-loop `g_cyclic` above.
    """
    from sphere_re.errors import DegenerateShape
    from sphere_re.euler import SCAN_SINGULAR_CUTOFF

    m = np.asarray(masses, dtype=float)
    a_grid = np.linspace(0.0, math.pi, na + 2)[1:-1]
    x_grid = np.linspace(-math.pi, math.pi, nx + 2)[1:-1]
    hits = []
    for a in a_grid:
        sign = np.sign(g_cyclic(a, x_grid, m))
        for i in range(len(x_grid) - 1):
            if sign[i] == 0.0 or sign[i] * sign[i + 1] >= 0.0:
                continue
            x0 = bisect(lambda x: float(g_cyclic(a, x, m)), x_grid[i], x_grid[i + 1], tol=1e-12)
            try:
                shape = MeridianShape3(float(a), float(x0))
            except DegenerateShape:
                continue
            if min(abs(math.sin(t)) for t in shape.separations()) < SCAN_SINGULAR_CUTOFF:
                continue
            try:
                sol = solve_ere(shape, m, pot)
            except (SingularSeparation, InconsistentRatios):
                continue
            hits.append((float(a), float(x0), float(g_cyclic(a, x0, m)), sol))
    return hits


# -- reference full-system force and first integrals --------------------
#
# The scalar full-system force (a double loop over ordered pairs), the
# per-state energies and momentum, and the per-sample loops of
# `verify_re` and `first_integral_drift`, as they were before the force
# and the verification ran on batches, kept verbatim.  The batched code
# must reproduce them bit for bit.

from sphere_re.dynamics import POLE_TOL, PhaseState  # noqa: E402
from sphere_re.errors import CoordinateSingularity, SingularSeparation  # noqa: E402
from sphere_re.potential import COTANGENT, Potential  # noqa: E402
from sphere_re.verify import (  # noqa: E402
    ReCandidate,
    Trajectory,
    VerificationReport,
    step_count,
)

_PAIRS = ((0, 1), (1, 2), (2, 0))


def pair_cosines(th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    ct, st = np.cos(th), np.sin(th)
    return np.array([ct[i] * ct[j] + st[i] * st[j] * math.cos(ph[i] - ph[j]) for i, j in _PAIRS])


def kinetic_energy(state: PhaseState, masses) -> float:
    m = np.asarray(masses, dtype=float)
    return 0.5 * float(np.sum(m * (state.theta_dot**2 + np.sin(state.theta) ** 2 * state.phi_dot**2)))


def potential_energy(state: PhaseState, masses, pot: Potential = COTANGENT) -> float:
    m = np.asarray(masses, dtype=float)
    cosines = pair_cosines(state.theta, state.phi)
    return float(sum(m[i] * m[j] * pot.u_value(c) for (i, j), c in zip(_PAIRS, cosines)))


def total_energy(state: PhaseState, masses, pot: Potential = COTANGENT) -> float:
    """Conserved energy E = K - V (note the sign; see module docstring)."""
    return kinetic_energy(state, masses) - potential_energy(state, masses, pot)


def angular_momentum(state: PhaseState, masses) -> np.ndarray:
    """Components (c_x, c_y, c_z) of the angular momentum, R = 1."""
    m = np.asarray(masses, dtype=float)
    th, ph = state.theta, state.phi
    td, pd = state.theta_dot, state.phi_dot
    st, ct = np.sin(th), np.cos(th)
    cx = float(np.sum(m * (-np.sin(ph) * td - st * ct * np.cos(ph) * pd)))
    cy = float(np.sum(m * (np.cos(ph) * td - st * ct * np.sin(ph) * pd)))
    cz = float(np.sum(m * st**2 * pd))
    return np.array([cx, cy, cz])


def potential_gradients(th, ph, masses, pot: Potential = COTANGENT) -> tuple[np.ndarray, np.ndarray]:
    """Partials of V with respect to each theta_k and phi_k."""
    th = np.asarray(th, dtype=float)
    ph = np.asarray(ph, dtype=float)
    m = np.asarray(masses, dtype=float)
    n = th.size
    dth = np.zeros(n)
    dph = np.zeros(n)
    ct, st = np.cos(th), np.sin(th)
    for k in range(n):
        for j in range(n):
            if j == k:
                continue
            dphi = ph[k] - ph[j]
            c = ct[k] * ct[j] + st[k] * st[j] * math.cos(dphi)
            up = pot.u_prime(c)
            dth[k] += m[k] * m[j] * up * (-st[k] * ct[j] + ct[k] * st[j] * math.cos(dphi))
            dph[k] += m[k] * m[j] * up * (-st[k] * st[j] * math.sin(dphi))
    return dth, dph


def eom_accelerations(state: PhaseState, masses, pot: Potential = COTANGENT) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations (theta_ddot, phi_ddot) of the full system.

    Raises CoordinateSingularity when a body is at a pole: the azimuth
    acceleration is a coordinate artifact there, and the on-meridian
    families that legitimately touch the poles are handled by the
    reduced system instead.
    """
    th, ph = state.theta, state.phi
    m = np.asarray(masses, dtype=float)
    st, ct = np.sin(th), np.cos(th)
    if np.any(np.abs(st) < POLE_TOL):
        raise CoordinateSingularity("body at a pole; use the reduced meridian system")
    dv_dth, dv_dph = potential_gradients(th, ph, masses, pot)
    th_dd = st * ct * state.phi_dot**2 + dv_dth / m
    ph_dd = dv_dph / (m * st**2) - 2.0 * (ct / st) * state.theta_dot * state.phi_dot
    return th_dd, ph_dd


def meridian_energy(th, th_dot, masses, omega2: float, pot: Potential = COTANGENT) -> float:
    """Conserved energy of the reduced co-rotating meridian system."""
    th = np.asarray(th, dtype=float)
    td = np.asarray(th_dot, dtype=float)
    m = np.asarray(masses, dtype=float)
    v = 0.0
    for i, j in _PAIRS:
        v += m[i] * m[j] * pot.u_value(math.cos(th[i] - th[j]))
    return 0.5 * float(np.sum(m * td**2)) + 0.25 * omega2 * float(np.sum(m * np.cos(2.0 * th))) - v


def first_integral_drift(traj: Trajectory, masses, pot: Potential = COTANGENT) -> tuple[float, np.ndarray]:
    """Max energy drift and per-component angular-momentum drift.

    For meridian trajectories the energy is the reduced-system one and
    the momentum slot reports zeros (the reduced system fixes the axis).
    """
    m = np.asarray(masses, dtype=float)
    if traj.meridian:
        energies = [meridian_energy(th, td, m, traj.omega2, pot) for th, td in zip(traj.theta, traj.theta_dot)]
        momenta = np.zeros((1, 3))
    else:
        states = [PhaseState(*s) for s in zip(traj.theta, traj.phi, traj.theta_dot, traj.phi_dot)]
        energies = [total_energy(s, m, pot) for s in states]
        momenta = np.array([angular_momentum(s, m) for s in states])
    e_drift = float(np.max(np.abs(np.subtract(energies, energies[0]))))
    return e_drift, np.max(np.abs(momenta - momenta[0]), axis=0)


def loop_verify_re(candidate: ReCandidate, T: float = 10.0, dt: float = 1e-3) -> VerificationReport:
    """Integrate a candidate and report how rigid the rotation stayed.

    Full candidates track arc angles, polar angles, azimuth rates,
    energy, and angular momentum; meridian candidates run the reduced
    system, where the arc drift is the drift of the pair separations
    along the meridian.  A fixed point (omega = 0) is verified the
    same way with zero rate, under the candidate's own potential.
    """
    pot = candidate.potential
    m = candidate.masses
    n_steps = step_count(T, dt)
    if candidate.meridian:
        traj = loop_integrate_meridian(candidate.theta, np.zeros_like(candidate.theta), m, candidate.omega2, pot, T, dt)
        # separations along the meridian, pairs (12, 23, 31)
        sig = traj.theta - traj.theta[:, [1, 2, 0]]
        rate_drift = 0.0
    else:
        state = PhaseState.rigid_rotation(candidate.theta, candidate.phi, candidate.omega)
        traj = loop_integrate(state, m, pot, T, dt)
        sig = np.array(
            [[math.acos(min(1.0, max(-1.0, c))) for c in pair_cosines(th, ph)] for th, ph in zip(traj.theta, traj.phi)]
        )
        rate_drift = float(np.max(np.abs(traj.phi_dot - candidate.omega)))
    sigma_drift = float(np.max(np.abs(sig - sig[0])))
    theta_drift = float(np.max(np.abs(traj.theta - traj.theta[0])))
    e_drift, c_drift = first_integral_drift(traj, m, pot)
    return VerificationReport(
        candidate, T, dt, n_steps, sigma_drift, theta_drift, rate_drift,
        e_drift, c_drift, traj.completed, traj.blew_up_at,
    )


# -- reference integrators ---------------------------------------------
#
# The three fixed-step RK4 loops the package used before `verify.rk4`
# replaced them, kept verbatim as references: `integrate` and
# `batch_meridian_drift` must reproduce them bit for bit, and the single
# meridian run to a float64 tolerance.

def loop_integrate(
    state: PhaseState,
    masses,
    pot: Potential = COTANGENT,
    T: float = 10.0,
    dt: float = 1e-3,
    sample_every: int = 10,
) -> Trajectory:
    """Fixed-step RK4 on the full spherical equations of motion.

    Integration aborts (recording the blow-up time) if a pair becomes
    singular or a body reaches a pole; both show up as exceptions from
    the acceleration evaluation.
    """
    m = np.asarray(masses, dtype=float)
    n_steps = int(round(T / dt))
    th = state.theta.copy()
    ph = state.phi.copy()
    td = state.theta_dot.copy()
    pd = state.phi_dot.copy()

    times = [0.0]
    ths, phs, tds, pds = [th.copy()], [ph.copy()], [td.copy()], [pd.copy()]

    def rhs(y):
        if not np.all(np.isfinite(y)):
            raise SingularSeparation("state left the finite range")
        s = PhaseState(y[0], y[1], y[2], y[3])
        tdd, pdd = eom_accelerations(s, m, pot)
        return np.array([y[2], y[3], tdd, pdd])

    y = np.array([th, ph, td, pd])
    blew_up = None
    for k in range(n_steps):
        # a near-singular encounter can overflow inside a stage before
        # the pair-separation guard fires; both surface as a blow-up
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * dt * k1)
                k3 = rhs(y + 0.5 * dt * k2)
                k4 = rhs(y + dt * k3)
        except (SingularSeparation, CoordinateSingularity, ValueError, OverflowError):
            blew_up = k * dt
            break
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            blew_up = (k + 1) * dt
            break
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            ths.append(y[0].copy())
            phs.append(y[1].copy())
            tds.append(y[2].copy())
            pds.append(y[3].copy())

    return Trajectory(
        np.array(times), np.array(ths), np.array(phs), np.array(tds), np.array(pds),
        meridian=False, blew_up_at=blew_up,
    )


def loop_integrate_meridian(
    theta,
    theta_dot,
    masses,
    omega2: float,
    pot: Potential = COTANGENT,
    T: float = 10.0,
    dt: float = 1e-3,
    sample_every: int = 10,
) -> Trajectory:
    """Fixed-step RK4 on the reduced co-rotating meridian system."""
    m = np.asarray(masses, dtype=float)
    th = np.asarray(theta, dtype=float).copy()
    td = np.asarray(theta_dot, dtype=float).copy()
    n_steps = int(round(T / dt))
    times = [0.0]
    ths, tds = [th.copy()], [td.copy()]
    blew_up = None
    for k in range(n_steps):
        try:
            if not (np.all(np.isfinite(th)) and np.all(np.isfinite(td))):
                raise SingularSeparation("state left the finite range")
            with np.errstate(over="ignore", invalid="ignore"):
                a1 = meridian_accelerations(th, m, omega2, pot)
                v1 = td
                a2 = meridian_accelerations(th + 0.5 * dt * v1, m, omega2, pot)
                v2 = td + 0.5 * dt * a1
                a3 = meridian_accelerations(th + 0.5 * dt * v2, m, omega2, pot)
                v3 = td + 0.5 * dt * a2
                a4 = meridian_accelerations(th + dt * v3, m, omega2, pot)
                v4 = td + dt * a3
        except (SingularSeparation, ValueError, OverflowError):
            blew_up = k * dt
            break
        th = th + (dt / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        td = td + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(td))):
            blew_up = (k + 1) * dt
            break
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            ths.append(th.copy())
            tds.append(td.copy())
    return Trajectory(
        np.array(times), np.array(ths), None, np.array(tds), None,
        meridian=True, omega2=omega2, blew_up_at=blew_up,
    )


def loop_batch_meridian_drift(
    thetas: np.ndarray,
    omega2s: np.ndarray,
    masses,
    pot: Potential = COTANGENT,
    T: float = 10.0,
    dt: float = 1e-3,
) -> np.ndarray:
    """Max polar-angle drift for a batch of reduced-system equilibria.

    Vectorizes RK4 across candidates, which is what makes verifying
    thousands of scan hits tractable.  Returns max |theta(t) - theta(0)|
    per candidate; NaN marks rows whose integration left the finite
    range (a blow-up).
    """
    m = np.asarray(masses, dtype=float)
    TH0 = np.asarray(thetas, dtype=float)
    OM2 = np.asarray(omega2s, dtype=float)[:, None]
    sign = 1.0 if pot.attractive else -1.0

    def acc(TH):
        out = 0.5 * OM2 * np.sin(2.0 * TH)
        for k in range(3):
            for j in range(3):
                if j != k:
                    d = TH[:, k] - TH[:, j]
                    s = np.sin(d)
                    out[:, k] -= sign * m[j] * s * np.abs(s) ** -3.0
        return out

    Y = TH0.copy()
    V = np.zeros_like(Y)
    drift = np.zeros(Y.shape[0])
    n_steps = int(round(T / dt))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(n_steps):
            k1v = acc(Y)
            k1y = V
            k2v = acc(Y + 0.5 * dt * k1y)
            k2y = V + 0.5 * dt * k1v
            k3v = acc(Y + 0.5 * dt * k2y)
            k3y = V + 0.5 * dt * k2v
            k4v = acc(Y + dt * k3y)
            k4y = V + dt * k3v
            Y = Y + (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            V = V + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            step_drift = np.max(np.abs(Y - TH0), axis=1)
            drift = np.where(np.isfinite(step_drift), np.maximum(drift, step_drift), np.nan)
    bad = ~np.all(np.isfinite(Y), axis=1)
    drift[bad] = np.nan
    return drift


# -- reference solver --------------------------------------------------
#
# The scalar collinear-RE solve the package ran once per scan hit before
# `euler.solve_ere_many` solved all hits as arrays, kept verbatim with
# the helpers it used: the six-term meridian force loop, the scalar
# Gauss-Newton, and the pair quantities, ratio rule and reconstruction
# of one shape.  The batch must reproduce `solve_ere` bit for bit.

from sphere_re.errors import (  # noqa: E402
    DegenerateDiscriminant,
    ExcludedAngle,
    InconsistentRatios,
    InternalError,
)
from sphere_re.euler import (  # noqa: E402
    RATIO_TOL,
    EreSolution,
    FGPair,
    MeridianDiagnostics,
)
from sphere_re.geometry import MeridianShape3, wrap_angle  # noqa: E402

# this solver's A = 0 rule: A <= DISCRIMINANT_TOL * sum(m).  The package
# now decides A = 0 on D within its rounding bound (`euler._discriminant_rows`)
DISCRIMINANT_TOL = 1e-10


def meridian_accelerations(th, masses, omega2: float, pot: Potential = COTANGENT) -> np.ndarray:
    """Polar accelerations on a meridian co-rotating at fixed omega.

    theta_ddot_k = (omega^2 / 2) sin(2 theta_k)
                   - sum_j m_j sin(theta_k - theta_j) U'(cos(theta_k - theta_j)).
    """
    th = np.asarray(th, dtype=float)
    m = np.asarray(masses, dtype=float)
    n = th.size
    acc = 0.5 * omega2 * np.sin(2.0 * th)
    for k in range(n):
        for j in range(n):
            if j != k:
                d = th[k] - th[j]
                acc[k] -= m[j] * math.sin(d) * pot.u_prime_meridian(d)
    return acc


def meridian_re_residual(th, masses, omega2: float, pot: Potential = COTANGENT) -> np.ndarray:
    """Signed equilibrium residuals of the rotating-meridian equations.

    Component k is (omega^2/2) m_k sin(2 theta_k)
    - m_k sum_j m_j sin(theta_kj) U'(cos(theta_kj)); all three vanish
    exactly at a collinear relative equilibrium.
    """
    m = np.asarray(masses, dtype=float)
    return m * meridian_accelerations(th, masses, omega2, pot)


def residual_rows_longdouble(th, masses, omega2, sign: float = 1.0) -> np.ndarray:
    """`euler._residual_rows` under sign times the cotangent, evaluated in np.longdouble.

    Row b, component k: m_k ((omega2_b / 2) sin(2 theta_bk)
    - sign sum_j m_j sin(theta_bkj) |sin(theta_bkj)|^-3), from the double
    inputs exactly as given.  Where longdouble is 80-bit x87 (eps 1.08e-19),
    its rounding lies far below a double residual's, so it measures how far
    a double solution is from satisfying the equations.
    """
    th = np.asarray(th, dtype=np.longdouble)
    m = np.asarray(masses, dtype=np.longdouble)
    acc = np.asarray(omega2, dtype=np.longdouble)[:, None] / 2 * np.sin(2 * th)
    for k in range(3):
        for j in range(3):
            if j != k:
                s = np.sin(th[:, k] - th[:, j])
                acc[:, k] -= sign * m[j] * s / np.abs(s) ** 3
    return m * acc


def gauss_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float = 1e-14,
    max_iter: int = 40,
    fd_step: float = 1e-7,
    rcond: float = 1e-8,
) -> np.ndarray:
    """Minimum-norm Gauss-Newton for a possibly underdetermined system.

    Steps are least-squares solutions of J dx = -r, so the iterate walks
    to the nearest point of the solution manifold.  The Jacobian comes
    from central differences, whose noise can turn an exact null
    direction of J into a tiny spurious singular value; `rcond` drops
    those so the step never wanders along the manifold.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x))
    best_x, best_n = x.copy(), float(np.linalg.norm(r))
    for _ in range(max_iter):
        n = x.size
        J = np.empty((r.size, n))
        for i in range(n):
            xp = x.copy()
            xp[i] += fd_step
            xm = x.copy()
            xm[i] -= fd_step
            J[:, i] = (np.asarray(residual(xp)) - np.asarray(residual(xm))) / (2.0 * fd_step)
        dx, *_ = np.linalg.lstsq(J, -r, rcond=rcond)
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
        r = np.asarray(residual(x))
        nr = float(np.linalg.norm(r))
        if nr < best_n:
            best_x, best_n = x.copy(), nr
        if np.linalg.norm(dx) < tol * (1.0 + np.linalg.norm(x)):
            break
    return best_x


def discriminant(shape: MeridianShape3, masses) -> MeridianDiagnostics:
    """Discriminant D = sum m^2 + 2 sum_{i<j} m_i m_j cos(2 theta_ij).

    D is a sum of two squares, so a value below -1e-12 * M^2 indicates a
    broken invariant rather than a legal input.
    """
    m = np.asarray(masses, dtype=float)
    t12, t23, t31 = shape.separations()
    d = float(np.sum(m**2)) + 2.0 * (
        m[0] * m[1] * math.cos(2 * t12) + m[1] * m[2] * math.cos(2 * t23) + m[2] * m[0] * math.cos(2 * t31)
    )
    scale = float(np.sum(m)) ** 2
    if d < -1e-12 * scale:
        raise InternalError(f"discriminant {d} negative beyond tolerance")
    return MeridianDiagnostics(d, math.sqrt(max(d, 0.0)))


def fg_pair(thetas, masses, pot: Potential = COTANGENT) -> FGPair:
    th = np.asarray(thetas, dtype=float)
    m = np.asarray(masses, dtype=float)
    f = []
    g = []
    for i, j, _ in _CYCLIC:
        d = th[i] - th[j]
        f.append(m[i] * m[j] * math.sin(d) * pot.u_prime_meridian(d))
        g.append(m[i] * m[j] * math.sin(2.0 * d))
    return FGPair(f[0], f[1], f[2], g[0], g[1], g[2])


def ere_shape_det(shape: MeridianShape3, masses, pot: Potential = COTANGENT) -> tuple[float, FGPair]:
    """The 2x2 determinant whose zero set is the collinear-RE shapes."""
    diag = discriminant(shape, masses)
    if diag.A <= DISCRIMINANT_TOL * float(np.sum(masses)):
        raise DegenerateDiscriminant(f"A = {diag.A}; the shape condition needs A != 0")
    fg = fg_pair(shape.theta_offsets(), masses, pot)
    det = (fg.g12 - fg.g23) * (fg.f31 - fg.f12) - (fg.g31 - fg.g12) * (fg.f12 - fg.f23)
    return det, fg


def reconstruct_meridian(shape: MeridianShape3, masses, s: int) -> np.ndarray:
    """Configuration angles from a shape and a branch sign.

    Solves sum m sin(2 theta) = 0 for theta_1 through
    (cos 2theta_1, sin 2theta_1) = s/A * sum_j m_j (cos 2theta_1j,
    sin 2theta_1j); the two branches differ by a pi/2 shift of every
    body.  theta_1 is taken in (-pi/2, pi/2] and the rest wrapped to
    (-pi, pi].
    """
    if s not in (+1, -1):
        raise ValueError("branch sign must be +1 or -1")
    m = np.asarray(masses, dtype=float)
    total = float(np.sum(m))
    diag = discriminant(shape, masses)
    if diag.A <= DISCRIMINANT_TOL * total:
        raise DegenerateDiscriminant(f"A = {diag.A} is numerically zero")
    t12, t13 = -shape.a, -shape.x
    c = (m[0] + m[1] * math.cos(2 * t12) + m[2] * math.cos(2 * t13)) * s / diag.A
    sn = (m[1] * math.sin(2 * t12) + m[2] * math.sin(2 * t13)) * s / diag.A
    theta1 = 0.5 * math.atan2(sn, c)
    th = np.array([wrap_angle(theta1 + off) for off in shape.theta_offsets()])
    balance = float(np.sum(m * np.sin(2.0 * th)))
    if abs(balance) > 1e-10 * total:
        raise InternalError(f"sum m sin(2 theta) = {balance} after reconstruction")
    return th


def ere_omega2(shape: MeridianShape3, masses, pot: Potential = COTANGENT, det_tol: float = 1e-8):
    """Branch sign and rotation rate from the compact pair equations.

    Returns (s, omega2, fixed_point, undetermined).  The three pairwise
    equations s omega^2 / (2A) (G_ij - G_jk) = F_ij - F_jk share one
    ratio; its sign fixes s, and a zero ratio means a fixed point.  When
    every matrix element vanishes the rate is undetermined.
    """
    diag = discriminant(shape, masses)
    total = float(np.sum(masses))
    if diag.A <= DISCRIMINANT_TOL * total:
        raise DegenerateDiscriminant("degenerate shape; solve through the equations of motion")
    fg = fg_pair(shape.theta_offsets(), masses, pot)
    f, g = fg.as_arrays()
    dgs = np.array([g[0] - g[1], g[1] - g[2], g[2] - g[0]])
    dfs = np.array([f[0] - f[1], f[1] - f[2], f[2] - f[0]])
    gscale = max(float(np.max(np.abs(g))), 1e-30)
    fscale = max(float(np.max(np.abs(f))), 1e-30)
    if np.all(np.abs(dgs) < det_tol * gscale) and np.all(np.abs(dfs) < det_tol * fscale):
        return None, 0.0, False, True
    ratios = [df / dg for dg, df in zip(dgs, dfs) if abs(dg) > det_tol * gscale]
    if not ratios:
        raise InconsistentRatios("G differences vanish but F differences do not")
    spread = max(ratios) - min(ratios)
    mean = sum(ratios) / len(ratios)
    if spread > RATIO_TOL * max(abs(mean), fscale / gscale):
        raise InconsistentRatios(f"pair ratios disagree: {ratios}")
    if abs(mean) < det_tol * fscale / gscale:
        return None, 0.0, True, False
    s = 1 if mean > 0.0 else -1
    return s, 2.0 * diag.A * abs(mean), False, False


# The shape classifier and the equal-mass isosceles normal form as they
# ran one shape at a time, before `solve_ere_many` took them as array
# rows, kept verbatim.  The rows must reproduce them bit for bit.

from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402


def _arc(sep: float) -> float:
    """Unsigned arc distance of a signed wrapped separation."""
    return abs(wrap_angle(sep))


def classify_meridian_shape(shape: MeridianShape3, tol: float = 1e-9) -> tuple[str, Optional[tuple[int, float]]]:
    """Classify a shape as equilateral, isosceles, or scalene.

    For an isosceles shape also return (middle body index, signed half
    spread w), where the middle body sits at signed offset -w from one
    outer body and +w from the other.
    """
    th = shape.theta_offsets()
    arcs = [_arc(th[1] - th[2]), _arc(th[2] - th[0]), _arc(th[0] - th[1])]  # arc opposite body k
    if max(arcs) - min(arcs) < tol:
        return "equilateral", None
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        wi = wrap_angle(th[i] - th[k])
        wj = wrap_angle(th[j] - th[k])
        if abs(wi + wj) < tol:
            return "isosceles", (k, wj)
    return "scalene", None


def iso_omega2_function(theta: float) -> float:
    """Equal-mass cotangent rate along the isosceles families.

    f(theta) = 2 (1/|sin 2theta|^3 + 1/(sin^2 theta sin 2theta)); the
    pole-middle family uses +f and the equator-middle family -f.
    """
    s2 = math.sin(2.0 * theta)
    if s2 == 0.0:
        raise ExcludedAngle("sin(2 theta) = 0; no finite rate here")
    return 2.0 * (1.0 / abs(s2) ** 3 + 1.0 / (math.sin(theta) ** 2 * s2))


@dataclass(frozen=True)
class IsoscelesEre:
    """An equal-mass isosceles candidate in its symmetric normal form."""

    theta: float
    family: str  # "pole-middle", "fixed-point", or "equator-middle"
    theta_middle: Optional[float]
    omega2: float
    thetas: np.ndarray  # body order (outer, outer, middle)


def isosceles_ere_classify(theta: float) -> IsoscelesEre:
    """Place the middle body and fix the rate for a unit-mass cotangent isosceles spread.

    theta is the common signed spread between the middle body and each
    outer body, in (0, pi).  Below 2 pi/3 the middle body must sit at a
    pole with rate +f(theta) (theta = pi/2 excluded: the outer pair
    becomes antipodal); at exactly 2 pi/3 the shape is the equilateral
    fixed point with arbitrary middle placement; above it the middle
    body rides the equator with rate -f(theta).
    """
    if not 0.0 < theta < math.pi:
        raise ExcludedAngle(f"theta = {theta} outside (0, pi)")
    third = 2.0 * math.pi / 3.0
    if abs(theta - math.pi / 2.0) < 1e-12:
        raise ExcludedAngle("theta = pi/2: outer bodies antipodal, pair force singular")
    if abs(theta - third) < 1e-12:
        return IsoscelesEre(theta, "fixed-point", None, 0.0, np.array([-theta, theta, 0.0]))
    if theta < third:
        return IsoscelesEre(theta, "pole-middle", 0.0, iso_omega2_function(theta), np.array([-theta, theta, 0.0]))
    om2 = -iso_omega2_function(theta)
    if om2 <= 0.0:
        raise InternalError(f"equator-middle rate f({theta}) failed to be negative")
    half = math.pi / 2.0
    # placements stay unwrapped: the meridian equations are 2 pi
    # periodic, and unwrapped symmetric angles keep the pair
    # differences exact, which matters near the collision corners
    th = np.array([half - theta, half + theta, half])
    return IsoscelesEre(theta, "equator-middle", half, om2, th)


def _solve_isosceles(shape: MeridianShape3, m: np.ndarray, diag: MeridianDiagnostics, middle: int, w: float):
    """Symmetric cotangent solution of an isosceles hit; equal masses m scale omega^2 as they scale every pair force."""
    i, j = (middle + 1) % 3, (middle + 2) % 3
    cand = isosceles_ere_classify(abs(w))
    omega2 = float(m[0]) * cand.omega2
    base = 0.0 if cand.family != "equator-middle" else math.pi / 2.0
    # unwrapped symmetric placement: pair differences are then exact
    th = np.empty(3)
    th[middle] = base
    th[i] = base - w
    th[j] = base + w
    return EreSolution(
        shape=shape,
        masses=m,
        thetas=th,
        omega2=omega2,
        s=None,
        fixed_point=cand.family == "fixed-point",
        omega_undetermined=False,
        det=None,
        diagnostics=diag,
        residuals=meridian_re_residual(th, m, omega2),
        family=f"isosceles-{cand.family}",
    )


def _solve_degenerate(shape: MeridianShape3, masses, pot: Potential) -> EreSolution:
    """Direct least-squares solve of the equations of motion when A = 0.

    The two-branch reconstruction collapses, so (theta_1, omega^2) are
    found by Gauss-Newton on the three equilibrium residuals, seeded
    from a coarse grid.  A vanishing best rate means a fixed point, in
    which case theta_1 is a gauge direction.
    """
    m = np.asarray(masses, dtype=float)
    offs = shape.theta_offsets()

    def residual(p):
        th = p[0] + offs
        return meridian_re_residual(th, m, p[1], pot)

    best = None
    for th1 in np.linspace(-math.pi / 2, math.pi / 2, 37):
        th = th1 + offs
        lhs = 0.5 * np.sin(2.0 * th)
        rhs = -meridian_accelerations(th, m, 0.0, pot)
        denom = float(lhs @ lhs)
        om2 = float(lhs @ rhs) / denom if denom > 1e-12 else 0.0
        r = meridian_re_residual(th, m, om2, pot)
        score = float(np.linalg.norm(r))
        if best is None or score < best[0]:
            best = (score, th1, om2)
    p = gauss_newton(residual, np.array([best[1], best[2]]))
    th1, om2 = float(p[0]), float(p[1])
    fixed = abs(om2) < 1e-10
    if fixed:
        om2 = 0.0
    th = np.array([wrap_angle(th1 + off) for off in offs])
    res = meridian_re_residual(th, m, om2, pot)
    return EreSolution(
        shape=shape,
        masses=m,
        thetas=th,
        omega2=om2,
        s=None,
        fixed_point=fixed,
        omega_undetermined=False,
        det=None,
        diagnostics=discriminant(shape, masses),
        residuals=res,
        family="degenerate-fixed-point" if fixed else "degenerate",
        potential=pot,
    )


def solve_ere(shape: MeridianShape3, masses, pot: Potential = COTANGENT, polish: bool = True) -> EreSolution:
    """Solve a meridian shape for its collinear relative equilibrium.

    Degenerate (A = 0) shapes go through the direct equations-of-motion
    solve; equal-mass isosceles and equilateral shapes use their
    symmetric normal forms; anything else uses the determinant
    condition, the two-branch reconstruction, and the ratio rule for
    (s, omega^2), followed by an optional Gauss-Newton polish of
    (theta, omega^2) onto the solution manifold.
    """
    m = np.asarray(masses, dtype=float)
    total = float(np.sum(m))
    diag = discriminant(shape, masses)
    equal_masses = bool(np.allclose(m, m[0], rtol=0.0, atol=1e-12 * total))

    if diag.A <= DISCRIMINANT_TOL * total:
        return _solve_degenerate(shape, m, pot)

    kind, iso = classify_meridian_shape(shape)
    if equal_masses and kind == "isosceles" and pot is COTANGENT:
        try:
            cand = _solve_isosceles(shape, m, diag, iso[0], iso[1])
            if cand.max_residual < 1e-8:
                return cand
        except ExcludedAngle:
            pass  # spread at an excluded value; the generic path will report

    det, fg = ere_shape_det(shape, m, pot)
    try:
        s, om2, fixed, undet = ere_omega2(shape, m, pot)
    except InconsistentRatios:
        # the shape is off the solution curve; a least-squares common
        # ratio still seeds the polish, which either lands on the
        # nearby curve point or leaves a residual that flags the shape
        f, g = fg.as_arrays()
        dgs = np.array([g[0] - g[1], g[1] - g[2], g[2] - g[0]])
        dfs = np.array([f[0] - f[1], f[1] - f[2], f[2] - f[0]])
        ratio = float(dgs @ dfs / (dgs @ dgs))
        if ratio == 0.0 or not polish:
            raise
        s, om2, fixed, undet = (1 if ratio > 0 else -1), 2.0 * diag.A * abs(ratio), False, False
    th = reconstruct_meridian(shape, m, s if s is not None else +1)
    if undet:
        res = meridian_re_residual(th, m, 0.0, pot)
        return EreSolution(shape, m, th, 0.0, s, False, True, det, diag, res, "undetermined-rate", pot)

    pre_res = meridian_re_residual(th, m, om2, pot)
    if polish and not fixed and float(np.max(np.abs(pre_res))) > 1e-12:

        def residual(p):
            return meridian_re_residual(p[:3], m, p[3], pot)

        p = gauss_newton(residual, np.array([th[0], th[1], th[2], om2]))
        moved = max(
            abs(wrap_angle((p[1] - p[0]) - shape.a)),
            abs(wrap_angle((p[2] - p[0]) - shape.x)),
        )
        # refuse to "solve" a shape by walking to a different one: the
        # polish may only absorb bracketing error, not change the input
        if moved < 1e-3:
            th = np.array([wrap_angle(v) for v in p[:3]])
            om2 = float(p[3])

    res = meridian_re_residual(th, m, om2, pot)
    polished_shape = MeridianShape3(wrap_angle(th[1] - th[0]), wrap_angle(th[2] - th[0])) if polish else shape
    return EreSolution(
        shape=polished_shape,
        masses=m,
        thetas=th,
        omega2=om2,
        s=s,
        fixed_point=fixed,
        omega_undetermined=False,
        det=det,
        diagnostics=diag,
        residuals=res,
        family="fixed-point" if fixed else kind,
        potential=pot,
    )


# -- reference scalar root finders and the scalar LRE side ---------------
#
# The scalar bisection and grid bracketing, the per-base-angle isosceles
# LRE roots with their per-root Newton polish, the scalene search's
# one-start-at-a-time polish and the scalene curve's inline formula, as
# they were before the triangular side ran on the batched root finders,
# kept verbatim.  The batched code must reproduce them bit for bit.

from typing import Callable, Optional, Sequence  # noqa: E402

from sphere_re.geometry import Shape3  # noqa: E402


# `lagrange.triangle_sigma_bounds` as it was before the companion root
# finder inlined its closed range, kept verbatim.

def triangle_sigma_bounds(sigma12: float) -> tuple[float, float]:
    """Realizable isosceles range: sigma12 < 2 sigma < 2 pi - sigma12."""
    return 0.5 * sigma12, math.pi - 0.5 * sigma12


def bisect(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Bisection on a bracketing interval; f(lo) and f(hi) must differ in sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# `roots.bisect_many` as it was before `roots.grid_roots` became its one
# caller in the package, kept verbatim: with `lo_positive` omitted it
# evaluates and checks the bracket ends itself.  `bisect_many` from given
# left signs, and `roots.bisect`, must reproduce it bit for bit.

def bisect_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    tol: float = 1e-12,
    max_iter: int = 200,
    lo_positive: np.ndarray | None = None,
) -> np.ndarray:
    """Bisection on many brackets at once; f(lo) and f(hi) must differ in sign.

    f(x, idx) returns, for each k, the value at x[k] of the function of
    bracket idx[k].  A bracket with a zero at an endpoint returns that
    endpoint (lo first).  Every other bracket halves until its midpoint
    is an exact zero or its width falls below `tol`, and returns that
    midpoint; after `max_iter` halvings it returns the last midpoint.
    A bracket without a sign change raises ValueError.  A caller that has
    proven every f(lo[k]) and f(hi[k]) nonzero and of opposite signs passes
    `lo_positive[k]` = f(lo[k]) > 0, and neither end is evaluated: the
    halving reads only that sign, which f keeps at every later left end.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    root = np.empty_like(lo)
    idx = np.arange(lo.size)
    if lo_positive is None:
        flo = np.asarray(f(lo, idx), dtype=float)
        fhi = np.asarray(f(hi, idx), dtype=float)
        at_lo = flo == 0.0
        at_hi = ~at_lo & (fhi == 0.0)
        root[at_lo] = lo[at_lo]
        root[at_hi] = hi[at_hi]
        live = ~(at_lo | at_hi)
        bad = np.flatnonzero(live & ((flo > 0.0) == (fhi > 0.0)))
        if bad.size:
            k = bad[0]
            raise ValueError(f"no sign change on [{lo[k]}, {hi[k]}]")
        idx, lo, hi, lo_positive = idx[live], lo[live], hi[live], flo[live] > 0.0
    else:
        lo_positive = np.asarray(lo_positive, dtype=bool)
    for _ in range(max_iter):
        if idx.size == 0:
            return root
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid, idx), dtype=float)
        done = (fm == 0.0) | (hi - lo < tol)
        up = (fm > 0.0) == lo_positive
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        if done.any():  # brackets finish at exact zeros and at the width test, not on every step
            root[idx[done]] = mid[done]
            go = ~done
            idx, lo, hi, lo_positive = idx[go], lo[go], hi[go], lo_positive[go]
    root[idx] = 0.5 * (lo + hi)
    return root


def bracket_roots(f: Callable[[np.ndarray], np.ndarray], grid: Sequence[float]) -> list[tuple[float, float]]:
    """Sign-change brackets of f on a grid; f is evaluated vectorized."""
    g = np.asarray(grid, dtype=float)
    vals = np.asarray(f(g))
    sign = np.sign(vals)
    out = []
    for i in range(len(g) - 1):
        if sign[i] == 0.0:
            out.append((g[i], g[i]))
        elif sign[i] * sign[i + 1] < 0.0:
            out.append((g[i], g[i + 1]))
    if sign[-1] == 0.0:
        out.append((g[-1], g[-1]))
    return out


def isosceles_lre_q(sigma: float, sigma12: float) -> float:
    """Equal-mass isosceles reduction q(sigma, sigma12), one float at a time."""
    ss, s12 = math.sin(sigma), math.sin(sigma12)
    return math.cos(sigma) * (2.0 * ss**6 - s12**6) - ss**3 * math.cos(sigma12) * s12**3


def isosceles_lre_roots(sigma12: float, n_grid: int = 2000, polish: bool = True) -> list[float]:
    """All realizable roots of q(., sigma12), bisected then polished.

    The equilateral root sigma = sigma12 is always present; polishing
    drives each root to the eigenvector condition at the 1e-12 level.
    """
    lo, hi = triangle_sigma_bounds(sigma12)
    lo = max(lo, 1e-6)
    hi = min(hi, math.pi - 1e-6)
    grid = np.linspace(lo, hi, n_grid)
    qv = np.vectorize(lambda s: isosceles_lre_q(s, sigma12))
    roots = []
    for a, b in bracket_roots(qv, grid):
        r = a if a == b else bisect(lambda s: isosceles_lre_q(s, sigma12), a, b, tol=1e-14)
        roots.append(r)
    # the equilateral line q(s, s) = 0 may be missed by sign scanning
    # (the zero can be tangential), so it is added explicitly
    if lo < sigma12 < hi and not any(abs(r - sigma12) < 1e-6 for r in roots):
        roots.append(sigma12)
    if polish:
        roots = [_polish_iso_root(r, sigma12) for r in roots]
    roots = sorted(roots)
    dedup = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-8:
            dedup.append(r)
    return dedup


def _polish_iso_root(sigma: float, sigma12: float) -> float:
    """Newton steps on q in sigma, guarded to stay near the start."""
    s = sigma
    for _ in range(40):
        f = isosceles_lre_q(s, sigma12)
        h = 1e-7
        d = (isosceles_lre_q(s + h, sigma12) - isosceles_lre_q(s - h, sigma12)) / (2 * h)
        if d == 0.0:
            break
        step = f / d
        if abs(step) > 0.05:
            break
        s -= step
        if abs(step) < 1e-15:
            break
    return s


def scalene_polish(starts, margin: float) -> tuple[list[np.ndarray], bool]:
    """The scalene search's polish: one Gauss-Newton call per start.

    Returns each polished point and whether every polished minimum
    collapsed onto an isosceles locus.
    """
    from sphere_re.lagrange import _scalene_margin
    from sphere_re.roots import gauss_newton

    points = []
    on_loci = True
    for start in starts:

        def residual(p):
            try:
                return lre_condition_residual(Shape3(*np.clip(p, 1e-3, math.pi - 1e-3)), np.ones(3))
            except Exception:
                return np.full(3, 1e3)

        p = gauss_newton(lambda ps, idx: np.array([residual(q) for q in ps]), np.array([start]), max_iter=60)[0]
        points.append(p)
        final = np.clip(p, 1e-3, math.pi - 1e-3)
        res = float(np.max(np.abs(residual(p))))
        if res < 1e-10 and float(_scalene_margin(final)) > margin:
            # a genuine scalene zero would be a counterexample
            on_loci = False
    return points, on_loci


def scalene_curve_y(a: float) -> Optional[float]:
    """cos(2y) on the equal-mass scalene branch, or None off the branch."""
    ca = math.cos(a)
    if abs(ca) < 1e-14:
        return None
    c2a = math.cos(2.0 * a)
    rad = c2a * c2a - 4.0 * c2a - 4.0
    if rad < 0.0:
        return None
    val = ca + (math.sin(a) ** 2 / ca) * (c2a + math.sqrt(rad))
    if abs(val) > 1.0:
        return None
    y = 0.5 * math.acos(val)
    if y >= 0.5 * a:
        return None
    return val


# -- reference rows-first stepper and forces -------------------------------
#
# `verify.rk4` and the batched forces of `dynamics` as they ran with the
# batch rows on axis 0, (B, 3) meridian and (B, 2, 3) full, before the
# rows moved to the last axis, kept verbatim with the gather they used.
# The rows-last stepper and forces must reproduce them bit for bit.

from sphere_re.potential import SINGULAR_SIN2  # noqa: E402
from sphere_re.verify import _BLOW_UP  # noqa: E402

# the six ordered pairs (k, j) of the full force, each body's partners ascending
_BODY = np.array([0, 0, 1, 1, 2, 2], dtype=np.intp)
_PARTNER = np.array([1, 2, 0, 2, 0, 1], dtype=np.intp)

# the unordered meridian pairs (0, 1), (0, 2), (1, 2)
_LOWER = np.array([0, 0, 1], dtype=np.intp)
_UPPER = np.array([1, 2, 2], dtype=np.intp)


def _pick(a, idx):
    """a[..., idx] for one of the index arrays above.

    `take` skips fancy indexing's set-up, and mode="clip" its per-element
    bounds check (the indices are in range).  Gathering three columns
    with numpy 2.4 on one x86-64 core: 0.3-0.7 us on a few rows and
    1.2 us on 256, against 1.3 and 2.0 us for indexing; indexing wins
    only on thousands of rows (6 against 14 us on 3396).
    """
    return a.take(idx, axis=-1, mode="clip")


def signed_potential(pot: Potential, sign: float) -> Potential:
    """The potential that the package takes where an oracle takes `pot` and sign = +-1.0: pot, or its negation."""
    return pot if sign == 1.0 else pot.negated()


def _full_force(x, v, masses, pot: Potential, sign=1.0):
    """Accelerations of the full system, batched on axis 0, and the rows that blew up.

    x and v are (B, 2, 3): rows of (theta, phi) and their rates.
    masses is (3,) or per row (B, 3); `sign`, a scalar or a (B, 1)
    column of +-1.0, multiplies U' (exactly), so the rows of a
    potential and of its negation share a batch.  Each body sums its
    terms over partners ascending, as the scalar loop did, so each row
    is bit-identical to it.  The mask flags the rows with a body at a
    pole, a singular pair or a non-finite angle, whose accelerations
    are meaningless; it is None when there are none.
    """
    th, ph = x[:, 0], x[:, 1]
    st, ct = np.sin(th), np.cos(th)
    stk, ctk = _pick(st, _BODY), _pick(ct, _BODY)
    stj, ctj = _pick(st, _PARTNER), _pick(ct, _PARTNER)
    dphi = _pick(ph, _BODY) - _pick(ph, _PARTNER)
    cd = np.cos(dphi)
    c = ctk * ctj + stk * stj * cd
    singular = ~(1.0 - c * c >= SINGULAR_SIN2)
    pole = np.abs(st) < POLE_TOL
    blown = None
    if singular.any() or pole.any():
        blown = singular.any(axis=1) | pole.any(axis=1)
        c = np.where(singular, 0.0, c)  # a quarter turn keeps U' defined
    w = _pick(masses, _BODY) * _pick(masses, _PARTNER) * (pot.u_prime_array(c) * sign)
    # each ordered pair's terms of dV/dtheta_k and dV/dphi_k
    terms = np.empty((len(x), 2, 6))
    terms[:, 0] = -stk * ctj + ctk * stj * cd
    terms[:, 1] = -stk * stj * np.sin(dphi)
    terms *= w[:, None]
    # the scalar loop summed into zeros; starting from 0.0 keeps signed zeros too
    dv = 0.0 + terms[..., 0::2] + terms[..., 1::2]
    td, pd = v[:, 0], v[:, 1]
    acc = np.empty_like(dv)
    acc[:, 0] = st * ct * pd**2 + dv[:, 0] / masses
    acc[:, 1] = dv[:, 1] / (masses * st**2) - 2.0 * (ct / st) * td * pd
    return acc, blown


def _meridian_force(th, masses, omega2, pot: Potential, guarded: bool, sign=1.0):
    """Polar accelerations of the reduced meridian system, batched on axis 0.

    U' is taken once per unordered pair; each body sums its terms
    (m_j sin theta_kj) U'_kj over partners j ascending, which keeps
    pole-middle isosceles hits at drift 0.0.  masses is (3,) or per row
    (B, 3); `sign` multiplies U' as in `_full_force`.

    Guarded, U' takes C pow rounding and the rows with a singular pair
    or a non-finite angle come back flagged in a mask, None when there
    are none.  Unguarded (a batch of scan hits) takes numpy's array
    power and flags nothing.
    """
    d = _pick(th, _LOWER) - _pick(th, _UPPER)
    s = np.sin(d)
    blown = None
    try:
        du = pot.u_prime_meridian(d, s, guarded)
    except SingularSeparation:  # guarded only: flag those rows, a quarter turn keeps U' defined
        singular = ~(s * s >= SINGULAR_SIN2)
        blown = singular.any(axis=1)
        du = pot.u_prime_meridian(np.where(singular, 0.5 * math.pi, d), np.where(singular, 1.0, s), guarded)
    du = du * sign
    # the lower body of a pair feels -(m_upper s) U', the upper one +(m_lower s) U'
    lower = -((_pick(masses, _UPPER) * s) * du)
    upper = (_pick(masses, _LOWER) * s) * du
    # each body's terms, partners ascending: 0 (01, 02), 1 (10, 12), 2 (20, 21)
    first, second = np.empty_like(s), np.empty_like(s)
    first[:, 0], first[:, 1:] = lower[:, 0], upper[:, :2]
    second[:, :2], second[:, 2] = lower[:, 1:], upper[:, 2]
    return 0.5 * omega2 * np.sin(2.0 * th) + first + second, blown


def rk4(x, v, accel, T: float, dt: float, on_step) -> np.ndarray:
    """Fixed-step classical RK4 for x'' = accel(x, v), batched on axis 0.

    `accel` returns the accelerations and a mask of the rows it could
    not evaluate (singular pair, pole, non-finite angle), None when
    there are none.  A row flagged in any stage blows up at the start
    of that step; a row whose state leaves the finite range blows up at
    the end of it.  Either way the row is frozen at its last good state
    from then on.  On a batch of one, an exception from `accel` (a custom
    potential that fails) blows the system up at the start of the step;
    on a larger batch it propagates, since it cannot be pinned on a row.

    `on_step(k, x, v, live)` sees the state after each step k = 1, ...,
    step_count(T, dt) and the rows still running.  The run stops once
    every row has blown up.  Returns each row's blow-up time, NaN for
    the rows that finished.
    """
    blew_up = np.full(len(x), np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(step_count(T, dt)):
            try:
                a1, f1 = accel(x, v)
                v2 = v + 0.5 * dt * a1
                a2, f2 = accel(x + 0.5 * dt * v, v2)
                v3 = v + 0.5 * dt * a2
                a3, f3 = accel(x + 0.5 * dt * v2, v3)
                v4 = v + dt * a3
                a4, f4 = accel(x + dt * v3, v4)
            except _BLOW_UP:
                if len(x) > 1:
                    raise
                blew_up[:] = k * dt
                break
            x_next = x + (dt / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
            v_next = v + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            flagged = [f for f in (f1, f2, f3, f4) if f is not None]
            if flagged:
                blew_up[np.isnan(blew_up) & np.any(flagged, axis=0)] = k * dt
            finite = (np.isfinite(x_next) & np.isfinite(v_next)).reshape(len(x), -1).all(axis=1)
            blew_up[np.isnan(blew_up) & ~finite] = (k + 1) * dt
            live = np.isnan(blew_up)
            if not live.any():
                break
            if not live.all():  # rows that blew up keep their last good state
                keep = ~live.reshape((-1,) + (1,) * (x.ndim - 1))
                x_next, v_next = np.where(keep, x, x_next), np.where(keep, v, v_next)
            x, v = x_next, v_next
            on_step(k + 1, x, v, live)
    return blew_up


# -- helpers the package no longer calls ------------------------------------
#
# The D = 0 shape constraints, the one-shape classifier over
# `euler._classify_rows`, the chord length, the rotation of a
# configuration and the coordinate helpers once in `geometry`
# (`from_vector`, `meridian_to_standard`, `rotation_matrix`,
# `positions_on_meridian`), which nothing under src/ uses, kept verbatim
# for the tests of the properties they check.

from typing import Iterable  # noqa: E402

from sphere_re.euler import _KINDS, _classify_rows  # noqa: E402
from sphere_re.geometry import BodyPosition, Config, clamped_arccos, embed  # noqa: E402


def from_vector(v: Sequence[float]) -> BodyPosition:
    """Spherical coordinates of a (nearly) unit 3-vector."""
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    n = math.sqrt(x * x + y * y + z * z)
    theta = clamped_arccos(z / n)
    phi = math.atan2(y, x)
    return BodyPosition(theta, phi)


def meridian_to_standard(theta_ext: float) -> BodyPosition:
    """Standard spherical coordinates of a point on the phi = 0 meridian.

    Extended meridian angles outside [0, pi] land on the phi = pi half.
    """
    t = wrap_angle(theta_ext)
    if t < 0.0:
        return BodyPosition(-t, math.pi)
    return BodyPosition(t, 0.0)


def rotation_matrix(axis: Sequence[float], angle: float) -> np.ndarray:
    """Rotation by `angle` about `axis` (Rodrigues formula)."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    kx = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(angle) * kx + (1.0 - math.cos(angle)) * (kx @ kx)


def positions_on_meridian(thetas_ext: Iterable[float]) -> list[BodyPosition]:
    """Standard-mode positions for extended meridian angles."""
    return [meridian_to_standard(t) for t in thetas_ext]


@dataclass(frozen=True)
class DegenerateConstraintReport:
    """Whether D = 0 is attainable for given masses, and where."""

    attainable: bool
    # base solutions (theta12, theta13); every solution is one of these
    # mod pi in each angle
    solutions: tuple[tuple[float, float], ...]


def degenerate_shape_constraints(masses) -> DegenerateConstraintReport:
    """Solve the two constraints that characterize D = 0 shapes.

    Writing the constraints as m2 e^{2 i theta12} + m3 e^{2 i theta13}
    = -m1, solutions exist exactly when the masses satisfy the triangle
    inequalities; the two base solutions come from the planar
    two-vector construction.
    """
    m1, m2, m3 = (float(v) for v in masses)
    for mk, mi, mj in ((m1, m2, m3), (m2, m3, m1), (m3, m1, m2)):
        if mk > mi + mj:
            return DegenerateConstraintReport(False, ())
    cg2 = (m1**2 + m2**2 - m3**2) / (2.0 * m1 * m2)
    cg3 = (m1**2 + m3**2 - m2**2) / (2.0 * m1 * m3)
    g2 = math.acos(min(1.0, max(-1.0, cg2)))
    g3 = math.acos(min(1.0, max(-1.0, cg3)))
    sols = (
        (wrap_angle((math.pi + g2) / 2.0), wrap_angle((math.pi - g3) / 2.0)),
        (wrap_angle((math.pi - g2) / 2.0), wrap_angle((math.pi + g3) / 2.0)),
    )
    return DegenerateConstraintReport(True, sols)


def classify_shape_row(shape: MeridianShape3) -> tuple[str, Optional[tuple[int, float]]]:
    """Classify a shape as equilateral, isosceles, or scalene.

    For an isosceles shape also return (middle body index, signed half
    spread w), where the middle body sits at signed offset -w from one
    outer body and +w from the other.  `_classify_rows` on a batch of one.
    """
    kind, middle, w = (v[0] for v in _classify_rows(np.array([shape.a]), np.array([shape.x])))
    return _KINDS[kind], ((int(middle), float(w)) if kind == 1 else None)


def chord_length(p: BodyPosition, q: BodyPosition) -> float:
    """Euclidean chord length; equals 2 sin(arc/2)."""
    return float(np.linalg.norm(embed(p) - embed(q)))


def rotate_config(config: Config, rot: np.ndarray) -> list[BodyPosition]:
    return [from_vector(rot @ embed(p)) for p in config]


# -- the triangular RE condition one shape at a time --------------------------
#
# The shape matrix, U' on the opposite sides, the target eigenvector, the
# condition residual, the closed-form rate and the per-point isosceles
# scan as they were before `lagrange._lre_rows` evaluated the condition
# on rows, kept verbatim.  The rows evaluator and its batches of one
# must reproduce them bit for bit.

from sphere_re.errors import NoLreForRepulsive  # noqa: E402
from sphere_re.lagrange import isosceles_lre_q as _package_iso_q  # noqa: E402
from sphere_re.roots import grid_roots  # noqa: E402

# `lagrange._isosceles_lre_roots_many` and `_polish_iso_roots` as they were
# before the LRE roots came from the companion matrices of the row
# polynomial: a 2000-point grid per row, `grid_roots` bisection, the
# equilateral add-back rule and a difference-quotient Newton polish, kept
# verbatim but for the package q's alias.  The companion roots must return
# every root of theirs within a stated bound.

def _isosceles_lre_roots_many(sigma12: np.ndarray) -> list[list[float]]:
    """Sorted roots of q(., s) for every base angle s, found in one array pass.

    Each row scans 2000 points of its realizable range.  Exact grid
    zeros are roots, and `grid_roots` bisects every bracket of every row
    to 1e-14 at once from the grid's signs.  The equilateral root sigma = s
    is added where the scan missed it (the zero can be tangential).  A
    guarded Newton polish then drives each root to the eigenvector
    condition at the 1e-12 level, and roots within 1e-8 merge.
    """
    lo, hi = triangle_sigma_bounds(sigma12)
    lo = np.maximum(lo, 1e-6)
    hi = np.minimum(hi, math.pi - 1e-6)
    grid = np.linspace(lo, hi, 2000, axis=1)
    sign = np.sign(_package_iso_q(grid, sigma12[:, None]))
    brow, _, bisected, zrow, zcol = grid_roots(lambda x, r: _package_iso_q(x, sigma12[r]), grid, sign, 1e-14)
    row, root = np.concatenate([zrow, brow]), np.concatenate([grid[zrow, zcol], bisected])
    near = np.zeros(sigma12.size, dtype=bool)
    near[row[np.abs(root - sigma12[row]) < 1e-6]] = True
    equilateral = np.flatnonzero((lo < sigma12) & (sigma12 < hi) & ~near)
    row = np.concatenate([row, equilateral])
    root = _polish_iso_roots(np.concatenate([root, sigma12[equilateral]]), sigma12[row])
    out: list[list[float]] = [[] for _ in range(sigma12.size)]
    for k in np.lexsort((root, row)):
        kept = out[row[k]]
        if not kept or abs(root[k] - kept[-1]) > 1e-8:
            kept.append(float(root[k]))
    return out


def _polish_iso_roots(sigma: np.ndarray, sigma12: np.ndarray) -> np.ndarray:
    """Newton steps on q in sigma, each root guarded to stay near its start.

    A root stops when the difference quotient vanishes, when a step
    would move it by more than 0.05 (that step is not taken), after a
    step below 1e-15, or after 40 steps.
    """
    s = sigma.copy()
    live = np.arange(s.size)
    h = 1e-7
    for _ in range(40):
        if live.size == 0:
            break
        x, s12 = s[live], sigma12[live]
        f = _package_iso_q(x, s12)
        d = (_package_iso_q(x + h, s12) - _package_iso_q(x - h, s12)) / (2 * h)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / d
        go = (d != 0.0) & ~(np.abs(step) > 0.05)
        s[live[go]] = x[go] - step[go]
        live = live[go & ~(np.abs(step) < 1e-15)]
    return s


# `lagrange._isosceles_lre_roots_many` as it was before it returned (row, root)
# arrays: the companion-matrix roots built into one sorted list per base
# angle, a root kept where it lies more than 1e-8 from the last kept root of
# its row.  Kept verbatim but for its name and the package q's alias.  The
# (row, root) arrays must hold these lists bit for bit.  With it,
# `lagrange.IsoscelesLrePoint`, the per-point record `isosceles_lre_scan`
# returned before it returned columns, which the oracle scan below builds.

from sphere_re.lagrange import _ISO_Q_TABLE  # noqa: E402
from sphere_re.roots import poly_roots  # noqa: E402


def companion_isosceles_lre_roots_many(sigma12: np.ndarray) -> list[list[float]]:
    """Sorted roots of q(., s) for every base angle s in [1e-6, pi - 1e-6], found in one array pass.

    Any other base angle raises ValueError: below about 6.6e-9 the
    companion matrices lose or misplace roots, and at 0, pi and NaN eigvals fails.

    `poly_roots` takes every root sigma in (0, pi) as t = tan(sigma / 2) of
    the row polynomial of `_ISO_Q_TABLE` at min(s, pi - s), whose leading
    sin^6 s vanishes as s -> pi; q(pi - sigma, pi - s) = -q(sigma, s) maps
    the roots back.  Newton steps on the closed-form q' polish them, up to
    40 and until every step is below 1e-15 (a step above 0.05, or one that
    divides by q' = 0, is not taken); each root ends on the double of least
    |q| within 2 ulps, ties to the Newton root.  The range ends count: a root is kept
    on the closed range [s/2, pi - s/2], where the bodies lie on one great
    circle (at s = 2 pi/3, the equilateral root).  Roots within 1e-8 merge.
    """
    outside = ~((1e-6 <= sigma12) & (sigma12 <= math.pi - 1e-6))
    if outside.any():
        raise ValueError(f"base angle sigma12 must lie in [1e-06, pi - 1e-06]; got {float(sigma12[outside][0])!r}")
    flip = sigma12 > 0.5 * math.pi
    a = np.where(flip, math.pi - sigma12, sigma12)
    coef = np.stack([np.ones_like(a), np.sin(a) ** 6, np.cos(a) * np.sin(a) ** 3], axis=1) @ _ISO_Q_TABLE
    row, t = poly_roots(coef, np.zeros_like(a), np.full_like(a, np.inf))
    s12, s = sigma12[row], np.where(flip[row], math.pi - 2.0 * np.arctan(t), 2.0 * np.arctan(t))
    s6, cs3 = np.sin(s12) ** 6, np.cos(s12) * np.sin(s12) ** 3
    for _ in range(40):
        sx, cx = np.sin(s), np.cos(s)
        q_prime = 12.0 * cx * cx * sx**5 - sx * (2.0 * sx**6 - s6) - 3.0 * sx * sx * cx * cs3
        step = np.divide(_package_iso_q(s, s12), q_prime, out=np.full_like(s, np.inf), where=q_prime != 0.0)
        s = np.where(np.abs(step) <= 0.05, s - step, s)
        if not np.any((1e-15 <= np.abs(step)) & (np.abs(step) <= 0.05)):
            break
    near = s + np.array([0, -1, 1, -2, 2])[:, None] * np.spacing(s)
    s = near[np.argmin(np.abs(_package_iso_q(near, s12)), axis=0), np.arange(s.size)]
    keep = (0.5 * s12 <= s) & (s <= math.pi - 0.5 * s12)
    row, root = row[keep], s[keep]
    out: list[list[float]] = [[] for _ in range(sigma12.size)]
    for k in np.lexsort((root, row)):
        kept = out[row[k]]
        if not kept or abs(root[k] - kept[-1]) > 1e-8:
            kept.append(float(root[k]))
    return out


@dataclass(frozen=True)
class IsoscelesLrePoint:
    sigma12: float
    sigma: float
    omega2: float
    lam: float
    equilateral: bool


def shape_matrix(shape: Shape3, masses) -> np.ndarray:
    """Frame-free 3x3 matrix with the same spectrum as the inertia tensor.

    Diagonal (m2+m3, m3+m1, m1+m2); entry (i, j) off the diagonal is
    -sqrt(m_i m_j) cos(sigma_ij).
    """
    m1, m2, m3 = (float(v) for v in masses)
    c12, c23, c31 = np.cos(shape.as_array())
    return np.array(
        [
            [m2 + m3, -math.sqrt(m1 * m2) * c12, -math.sqrt(m1 * m3) * c31],
            [-math.sqrt(m2 * m1) * c12, m3 + m1, -math.sqrt(m2 * m3) * c23],
            [-math.sqrt(m3 * m1) * c31, -math.sqrt(m3 * m2) * c23, m1 + m2],
        ]
    )


def _u_primes_opposite(shape: Shape3, pot: Potential) -> np.ndarray:
    """U' on the side opposite each body: (U'_23, U'_31, U'_12)."""
    s = shape.as_array()
    return np.array([pot.u_prime(math.cos(s[1])), pot.u_prime(math.cos(s[2])), pot.u_prime(math.cos(s[0]))])


def lre_eigvec_target(shape: Shape3, masses, pot: Potential = COTANGENT) -> np.ndarray:
    """The rotation-axis eigenvector a triangular RE requires of J.

    Proportional to (sqrt(m_k) / U'(opposite side)); entries are all
    positive, which is why repulsive forces admit no such solution.
    """
    if not pot.attractive:
        raise NoLreForRepulsive("triangular RE require U' > 0")
    m = np.asarray(masses, dtype=float)
    u = _u_primes_opposite(shape, pot)
    v = np.sqrt(m) / u
    return v / np.linalg.norm(v)


def _lre_eig(shape: Shape3, masses, pot: Potential) -> tuple[np.ndarray, np.ndarray, float]:
    """The target eigenvector psi, the shape matrix J and lambda = psi^T J psi."""
    psi = lre_eigvec_target(shape, masses, pot)
    J = shape_matrix(shape, masses)
    return psi, J, float(psi @ J @ psi)


def lre_condition_residual(shape: Shape3, masses, pot: Potential = COTANGENT) -> np.ndarray:
    """Residual J psi - (psi^T J psi) psi; zero exactly on LRE shapes."""
    psi, J, lam = _lre_eig(shape, masses, pot)
    return J @ psi - lam * psi


def lre_omega2(shape: Shape3, masses, pot: Potential = COTANGENT) -> float:
    """Squared rotation rate of the triangular RE with this shape.

    omega^2 = U'_12 U'_23 U'_31 * sum_k m_k / U'(opposite k)^2.  The
    exponent on the sum is 1: substituting cos(theta_k) proportional to
    1/U'(opposite) into the equilibrium ratio equations makes the
    normalization cancel, and only this form reproduces the rate that
    the reconstructed configuration actually rotates with.
    """
    if not pot.attractive:
        raise NoLreForRepulsive("triangular RE require U' > 0")
    m = np.asarray(masses, dtype=float)
    u = _u_primes_opposite(shape, pot)
    return float(np.prod(u) * np.sum(m / u**2))


def isosceles_lre_scan(sigma12_grid) -> list:
    """Root curve of q over a grid of base angles.

    Each point is realizability-filtered and carries the closed-form
    rate and eigenvalue.  The zero set is point-symmetric through
    (pi/2, pi/2): (sigma, sigma12) -> (pi - sigma, pi - sigma12).
    """
    s12 = np.asarray(sigma12_grid, dtype=float)
    s12 = s12[(0.0 < s12) & (s12 < math.pi)]
    out = []
    for a, roots in zip(s12.tolist(), _isosceles_lre_roots_many(s12)):
        for r in roots:
            shape = Shape3(a, r, r)
            if not shape.is_realizable:
                continue
            om2 = lre_omega2(shape, np.ones(3))
            _, _, lam = _lre_eig(shape, np.ones(3), COTANGENT)
            out.append(IsoscelesLrePoint(a, r, om2, lam, abs(r - a) < 1e-9))
    return out


# -- the ere-scan CSV columns one hit at a time ----------------------------
#
# `cli.cmd_ere_scan` as it was before it formatted the columns of the
# scan table: it read each `ere_scan` hit back field by field, kept
# verbatim together with `cli._fmt`.  The CLI's CSV must equal the CSV of
# these columns byte for byte.

from sphere_re import euler  # noqa: E402
from sphere_re.cli import _masses  # noqa: E402
from sphere_re.potential import potential_by_name  # noqa: E402


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_ere_scan(args) -> dict:
    masses = _masses(args.masses)
    pot = potential_by_name(args.potential)
    hits = euler.ere_scan(masses, na=args.grid, nx=args.grid, pot=pot)
    return {
        "a": [_fmt(h.a) for h in hits],
        "x": [_fmt(h.x) for h in hits],
        "g": [_fmt(h.g) for h in hits],
        "family": [h.solution.family for h in hits],
        "omega2": [_fmt(h.solution.omega2) for h in hits],
        "fixed_point": [str(h.solution.fixed_point).lower() for h in hits],
        "max_residual": [_fmt(h.solution.max_residual) for h in hits],
    }


# -- the CLI parser with every subcommand's options ------------------------
#
# `cli.build_parser` as it was before it gave options only to the
# subcommands named in the argv it parses, kept verbatim.  The CLI's help,
# usage and error text must equal this parser's byte for byte.

import argparse  # noqa: E402

from sphere_re.cli import COMMANDS, OPTIONS, OUTPUT_SCHEMA, SHAPES  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    columns = "; ".join(f"{name} -> ({', '.join(cols)})" for name, cols in OUTPUT_SCHEMA["csv"].items())
    p = argparse.ArgumentParser(
        prog="sphere-re",
        description="Relative equilibria of the three-body problem on the unit sphere.",
        epilog=f"All angles are radians; CSV/JSON values carry 17 significant digits. Columns: {columns}.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        if name in SHAPES:
            sp.add_argument("--shape", required=True, help=f"{','.join(SHAPES[name][0])} in radians")
        for option in options:
            sp.add_argument(option, **OPTIONS[option])
        sp.add_argument("--output", "-o", default="-", help="output path or - for stdout")
        sp.set_defaults(func=func)
    return p


# -- the A = 0 solve by a seed search ---------------------------------------
#
# `euler._degenerate_rows` as it was before its closed form: each row's
# theta_1 picked from a 37-point grid by a fitted rate's residual, then a
# Gauss-Newton polish of (theta_1, omega^2), all rows in one batched pass
# (it reproduced the earlier loop over rows bit for bit).  Kept verbatim but
# for the package helpers' aliases (this module has its own `_meridian_force`
# and `gauss_newton`).  About half its rows come back on the quarter-turn
# partner of the closed form's, with omega^2 < 0; the closed form must match
# it there with omega^2 negated and theta moved by pi/2.

from sphere_re.dynamics import _meridian_force as _package_meridian_force  # noqa: E402
from sphere_re.euler import _residual_rows  # noqa: E402
from sphere_re.geometry import wrap_angles  # noqa: E402
from sphere_re.roots import _row_norms  # noqa: E402
from sphere_re.roots import gauss_newton as _package_gauss_newton  # noqa: E402


def seeded_degenerate_rows(rows: np.ndarray, a, x, m: np.ndarray, pot: Potential, put) -> None:
    """Direct least-squares solve of the equations of motion for the A = 0 shapes `rows`.

    The two-branch reconstruction collapses, so one Gauss-Newton solve finds
    every row's (theta_1, omega^2) from its three equilibrium residuals,
    seeded from the best point of a coarse grid.  A vanishing best rate means
    a fixed point, in which case theta_1 is a gauge direction.  Each row is
    `put` with no branch sign or determinant, keeping the input shape.
    """
    offs = np.stack([np.zeros(rows.size), a[rows], x[rows]], axis=1)
    grid = np.linspace(-math.pi / 2, math.pi / 2, 37)
    th = (grid[:, None] + offs[:, None]).reshape(-1, 3)  # each row's 37 seeds
    acc = _package_meridian_force(m, 0.0, pot, True)(np.ascontiguousarray(th.T))[0]
    lhs, rhs = 0.5 * np.sin(2.0 * th), -np.ascontiguousarray(acc.T)
    # least-squares rates; the stacked matmuls round like a BLAS dot per seed
    denom = (lhs[:, None] @ lhs[:, :, None])[:, 0, 0]
    om2 = np.divide((lhs[:, None] @ rhs[:, :, None])[:, 0, 0], denom, out=np.zeros(denom.shape), where=denom > 1e-12)
    score = _row_norms(_residual_rows(th, m, om2, pot)).reshape(-1, 37)
    # each row's first least score; NaN (a pair singular at some seeds) loses unless the first seed's is NaN
    best = np.argmin(np.where(np.isnan(score) & ~np.isnan(score[:, :1]), np.inf, score), axis=1)
    seed = np.column_stack([grid[best], om2.reshape(-1, 37)[np.arange(rows.size), best]])
    p = _package_gauss_newton(lambda q, idx: _residual_rows(q[:, :1] + offs[idx], m, q[:, 1], pot), seed)
    fixed = np.abs(p[:, 1]) < 1e-10
    names = np.where(fixed, "degenerate-fixed-point", "degenerate").astype(object)
    put(rows, wrap_angles(p[:, :1] + offs), np.where(fixed, 0.0, p[:, 1]), fixed, names)


# -- the drift batch with every row stepped ---------------------------------
#
# `verify.batch_meridian_drift` as it was before it left the rows at rest
# unstepped: every row through `rk4` for the whole window, kept verbatim
# but for the package helpers' aliases.  The new path must reproduce it
# bit for bit.

from sphere_re.verify import rk4 as _package_rk4  # noqa: E402


def stepped_batch_meridian_drift(
    thetas: np.ndarray,
    omega2s: np.ndarray,
    masses,
    pot: Potential = COTANGENT,
    T: float = 10.0,
    dt: float = 1e-3,
) -> np.ndarray:
    """Max polar-angle drift for a batch of reduced-system equilibria.

    Runs RK4 on all candidates at once, which is what makes verifying
    thousands of scan hits tractable.  Returns max |theta(t) - theta(0)|
    per candidate; NaN marks rows whose integration left the finite
    range (a blow-up).
    """
    m = np.asarray(masses, dtype=float)
    th0 = np.asarray(thetas, dtype=float)
    om2 = np.asarray(omega2s, dtype=float)
    if th0.ndim != 2 or th0.shape[1] != 3 or om2.shape != th0.shape[:1] or m.shape != (3,):
        raise ValueError(
            f"thetas must be (B, 3), omega2s (B,) and masses 3 values; got shapes {th0.shape}, {om2.shape}, {m.shape}"
        )
    z0 = np.zeros((2,) + th0.T.shape)
    z0[0] = th0.T
    # the largest |theta - theta0| so far of each body and row, and a scratch buffer
    peak, diff = np.zeros_like(z0[0]), np.empty_like(z0[0])

    def on_step(k, z, live):
        np.abs(np.subtract(z[0], z0[0], out=diff), out=diff)
        np.maximum(peak, diff, out=peak)

    blew_up = _package_rk4(z0, _package_meridian_force(m, om2, pot, False), T, dt, on_step)
    drift = peak.max(axis=0)
    drift[~np.isnan(blew_up)] = np.nan
    return drift
