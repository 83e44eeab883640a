"""Energies, angular momentum, and equations of motion.

Sign convention: the Lagrangian used throughout is L = K + V with
V = sum_{i<j} m_i m_j U(cos sigma_ij), so the conserved energy is
E = K - V.  Keeping V positive in L (rather than the more common
L = K - U) matches the potential convention of the rest of the package;
every energy check in the test-suite relies on E = K - V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoordinateSingularity
from .potential import COTANGENT, SINGULAR_SIN2, Potential

# sin(theta) below this is treated as "at a pole" for the phi equation.
POLE_TOL = 1e-12

_PAIRS = ((0, 1), (1, 2), (2, 0))

# the unordered meridian pairs (0, 1), (0, 2), (1, 2)
_LOWER = [0, 0, 1]
_UPPER = [1, 2, 2]


@dataclass
class PhaseState:
    """Positions and velocities of n bodies in spherical coordinates."""

    theta: np.ndarray
    phi: np.ndarray
    theta_dot: np.ndarray
    phi_dot: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        self.theta_dot = np.asarray(self.theta_dot, dtype=float)
        self.phi_dot = np.asarray(self.phi_dot, dtype=float)

    def copy(self) -> "PhaseState":
        return PhaseState(self.theta.copy(), self.phi.copy(), self.theta_dot.copy(), self.phi_dot.copy())

    @staticmethod
    def rigid_rotation(theta, phi, omega: float) -> "PhaseState":
        """State with zero polar velocity and common azimuthal rate omega."""
        theta = np.asarray(theta, dtype=float)
        return PhaseState(theta, np.asarray(phi, dtype=float), np.zeros_like(theta), np.full_like(theta, omega))


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


def _meridian_force(th, masses, omega2, pot: Potential, guarded: bool) -> np.ndarray:
    """Polar accelerations of the reduced meridian system, batched on axis 0.

    U' is taken once per unordered pair; each body sums its terms
    (m_j sin theta_kj) U'_kj over partners j ascending, which keeps
    pole-middle isosceles hits at drift 0.0.  `guarded` (one
    configuration, or a batch that must all be regular) rejects a
    singular pair and takes U' with C pow rounding.
    """
    d = th[:, _LOWER] - th[:, _UPPER]
    s = np.sin(d)
    du = pot.u_prime_meridian(d, s, guarded)
    # the lower body of a pair feels -(m_upper s) U', the upper one +(m_lower s) U'
    terms = np.concatenate([-((masses[_UPPER] * s) * du), (masses[_LOWER] * s) * du], axis=1)
    return 0.5 * omega2 * np.sin(2.0 * th) + terms[:, [0, 3, 4]] + terms[:, [1, 2, 5]]


def singular_pair_rows(th) -> np.ndarray:
    """Rows of a (B, 3) batch of meridian angles that hold a singular pair.

    These are the rows on which the guarded meridian force raises
    SingularSeparation.
    """
    s = np.sin(th[:, _LOWER] - th[:, _UPPER])
    return ~(s * s >= SINGULAR_SIN2).all(axis=1)


def meridian_accelerations(th, masses, omega2, pot: Potential = COTANGENT) -> np.ndarray:
    """Polar accelerations on a meridian co-rotating at fixed omega.

    theta_ddot_k = (omega^2 / 2) sin(2 theta_k)
                   - sum_j m_j sin(theta_k - theta_j) U'(cos(theta_k - theta_j)).

    th is one configuration (3,) or a batch (B, 3), with omega2 a
    scalar or a (B, 1) column.  A singular pair anywhere raises
    SingularSeparation.
    """
    th = np.asarray(th, dtype=float)
    m = np.asarray(masses, dtype=float)
    return _meridian_force(th.reshape(-1, 3), m, omega2, pot, True).reshape(th.shape)


def meridian_re_residual(th, masses, omega2, pot: Potential = COTANGENT) -> np.ndarray:
    """Signed equilibrium residuals of the rotating-meridian equations.

    Component k is (omega^2/2) m_k sin(2 theta_k)
    - m_k sum_j m_j sin(theta_kj) U'(cos(theta_kj)); all three vanish
    exactly at a collinear relative equilibrium.  Batched like
    `meridian_accelerations`.
    """
    m = np.asarray(masses, dtype=float)
    return m * meridian_accelerations(th, m, omega2, pot)


def meridian_energy(th, th_dot, masses, omega2: float, pot: Potential = COTANGENT) -> float:
    """Conserved energy of the reduced co-rotating meridian system."""
    th = np.asarray(th, dtype=float)
    td = np.asarray(th_dot, dtype=float)
    m = np.asarray(masses, dtype=float)
    v = 0.0
    for i, j in _PAIRS:
        v += m[i] * m[j] * pot.u_value(math.cos(th[i] - th[j]))
    return 0.5 * float(np.sum(m * td**2)) + 0.25 * omega2 * float(np.sum(m * np.cos(2.0 * th))) - v


@dataclass(frozen=True)
class EuclideanLimitReport:
    """Angular-momentum components against their flat-plane limits.

    For a planar state scaled onto a sphere of radius 1/eps via
    theta = eps * r, the combinations (c_x, c_y)/eps approach
    (-p_y, p_x) and c_z/eps^2 approaches the planar angular momentum,
    with an O(eps^2) deviation.
    """

    eps: float
    deviation: float
    planar_momenta: tuple[float, float, float]
    spherical_scaled: tuple[float, float, float]


def euclidean_limit_check(r, phi, r_dot, phi_dot, masses, eps: float) -> EuclideanLimitReport:
    """Compare spherical momentum integrals with their planar counterparts."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    rd = np.asarray(r_dot, dtype=float)
    phid = np.asarray(phi_dot, dtype=float)
    m = np.asarray(masses, dtype=float)

    px = float(np.sum(m * (rd * np.cos(phi) - r * np.sin(phi) * phid)))
    py = float(np.sum(m * (rd * np.sin(phi) + r * np.cos(phi) * phid)))
    cz_planar = float(np.sum(m * r**2 * phid))

    state = PhaseState(eps * r, phi, eps * rd, phid)
    c = angular_momentum(state, m)
    scaled = (c[0] / eps, c[1] / eps, c[2] / eps**2)
    targets = (-py, px, cz_planar)
    deviation = max(abs(s - t) for s, t in zip(scaled, targets))
    return EuclideanLimitReport(eps, deviation, targets, scaled)
