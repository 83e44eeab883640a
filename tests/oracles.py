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
