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


def arcs_of(theta, phi):
    """Pairwise central angles of three points, order (12, 23, 31)."""
    out = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        c = math.cos(theta[i]) * math.cos(theta[j]) + math.sin(theta[i]) * math.sin(theta[j]) * math.cos(
            phi[i] - phi[j]
        )
        out.append(math.acos(min(1.0, max(-1.0, c))))
    return np.array(out)


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


def scalar_ere_scan(masses, na, nx, pot):
    """Row-by-row ere scan with one scalar bisection per bracket.

    The reference for the batched bracketing and bisection of
    `ere_scan`, which must return exactly these hits as
    (a, x, g, family, omega2) tuples, in the same order.  Unlike the
    oracles above it shares `g_cyclic` and `solve_ere` with the package.
    """
    from sphere_re.errors import DegenerateShape, InconsistentRatios, SingularSeparation
    from sphere_re.euler import SCAN_SINGULAR_CUTOFF, g_cyclic, solve_ere
    from sphere_re.geometry import MeridianShape3
    from sphere_re.roots import bisect

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
            hits.append((float(a), float(x0), float(g_cyclic(a, x0, m)), sol.family, sol.omega2))
    return hits


# -- reference integrators ---------------------------------------------
#
# The three fixed-step RK4 loops the package used before `verify.rk4`
# replaced them, kept verbatim as references: `integrate` and
# `batch_meridian_drift` must reproduce them bit for bit, and the single
# meridian run to a float64 tolerance.

from sphere_re.dynamics import PhaseState, eom_accelerations, meridian_accelerations  # noqa: E402
from sphere_re.errors import CoordinateSingularity, SingularSeparation  # noqa: E402
from sphere_re.potential import COTANGENT, Potential  # noqa: E402
from sphere_re.verify import Trajectory  # noqa: E402


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
