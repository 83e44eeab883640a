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

from .errors import CoordinateSingularity, SingularSeparation
from .potential import COTANGENT, SINGULAR_SIN2, Potential

# sin(theta) below this is treated as "at a pole" for the phi equation.
POLE_TOL = 1e-12

# the pairs (12, 23, 31): body _I[p] with body _J[p]
_I = np.array([0, 1, 2], dtype=np.intp)
_J = np.array([1, 2, 0], dtype=np.intp)

# The batched forces keep the rows on the last axis and each body's two
# partners, ascending, on a leading axis: row 0 of _PARTNERS is the first
# partner of bodies 0, 1, 2 and row 1 the second.  The full force gathers
# the body and the partner of each term at once, through _BODY_PARTNER.
_PARTNERS = np.array([[1, 0, 0], [2, 2, 1]], dtype=np.intp)
_BODY_PARTNER = np.array([[[0, 1, 2], [0, 1, 2]], _PARTNERS])
# the meridian pair of each body and partner, and the sign of its term:
# body _I[p] of pair p feels -(m_J s) U', body _J[p] +(m_I s) U'
_PAIR_OF = np.array([[0, 0, 2], [2, 1, 1]], dtype=np.intp)
_PAIR_SIGN = np.array([[-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])[..., None]


def _three_masses(masses, rows: bool = False) -> np.ndarray:
    """The masses as floats: three values, or with `rows` also three per row (B, 3), each positive and finite."""
    m = np.asarray(masses, dtype=float)
    if m.shape[-1:] != (3,) or m.ndim > (2 if rows else 1):
        raise ValueError("exactly three masses required")
    if not all(0.0 < v < math.inf for v in m.flat):  # NaN fails both
        raise ValueError("masses must be positive and finite")
    return m


def _pick(a, idx):
    """a[..., idx] for the pair tables _I and _J.

    The energies keep the bodies on the last axis.  `take` skips fancy
    indexing's set-up, and mode="clip" its per-element bounds check (the
    indices are in range).
    """
    return a.take(idx, axis=-1, mode="clip")


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

    @staticmethod
    def rigid_rotation(theta, phi, omega: float) -> "PhaseState":
        """State with zero polar velocity and common azimuthal rate omega."""
        theta = np.asarray(theta, dtype=float)
        return PhaseState(theta, np.asarray(phi, dtype=float), np.zeros_like(theta), np.full_like(theta, omega))


def pair_cosines(th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """cos sigma of the pairs (12, 23, 31); angles on the last axis."""
    ct, st = np.cos(th), np.sin(th)
    return _pick(ct, _I) * _pick(ct, _J) + _pick(st, _I) * _pick(st, _J) * np.cos(
        _pick(ph, _I) - _pick(ph, _J)
    )


def _pair_potential(cosines, m, pot: Potential):
    """sum over the pairs (12, 23, 31) of m_i m_j U, unguarded; pairs on the last axis."""
    v = _pick(m, _I) * _pick(m, _J) * pot.u_array(cosines)
    return v[..., 0] + v[..., 1] + v[..., 2]


# The energies and the momentum take states with any leading axes (samples,
# batch rows) and return one value per state.  A coincident or antipodal
# pair gives an infinite or NaN energy.


def kinetic_energy(state: PhaseState, masses):
    m = np.asarray(masses, dtype=float)
    return 0.5 * np.sum(m * (state.theta_dot**2 + np.sin(state.theta) ** 2 * state.phi_dot**2), axis=-1)


def potential_energy(state: PhaseState, masses, pot: Potential = COTANGENT):
    return _pair_potential(pair_cosines(state.theta, state.phi), np.asarray(masses, dtype=float), pot)


def total_energy(state: PhaseState, masses, pot: Potential = COTANGENT):
    """Conserved energy E = K - V (note the sign; see module docstring)."""
    return kinetic_energy(state, masses) - potential_energy(state, masses, pot)


def angular_momentum(state: PhaseState, masses) -> np.ndarray:
    """Components (c_x, c_y, c_z) of the angular momentum, R = 1, on the last axis."""
    m = np.asarray(masses, dtype=float)
    th, ph = state.theta, state.phi
    td, pd = state.theta_dot, state.phi_dot
    st, ct = np.sin(th), np.cos(th)
    cx = np.sum(m * (-np.sin(ph) * td - st * ct * np.cos(ph) * pd), axis=-1)
    cy = np.sum(m * (np.cos(ph) * td - st * ct * np.sin(ph) * pd), axis=-1)
    cz = np.sum(m * st**2 * pd, axis=-1)
    return np.stack([cx, cy, cz], axis=-1)


def _full_force(masses, pot: Potential):
    """The full system's accelerations as a function force(x, v) -> (acc, blown).

    x and v are (2, 3, B): (theta, phi) or their rates, of bodies 0, 1, 2,
    with the batch rows on the last axis, and so is acc.  masses is (3,)
    or per row (B, 3).  Each body sums its terms over partners ascending,
    as the scalar loop did, so each row is bit-identical to it.  The mask
    flags the rows with a body at a pole, a singular pair or a non-finite
    angle, whose accelerations are meaningless; it is None when there
    are none.  `_full_row` is the same force on one row of Python floats.
    """
    m = _three_masses(masses, rows=True).T.reshape(3, -1)
    mk, mj = m.take(_BODY_PARTNER, axis=0)
    mm = mk * mj

    def force(x, v):
        th, ph, td, pd = x[0], x[1], v[0], v[1]
        st, ct = np.sin(th), np.cos(th)
        # body k and partner j of each term: one gather per array, no broadcasting
        stk, stj = st.take(_BODY_PARTNER, axis=0)
        ctk, ctj = ct.take(_BODY_PARTNER, axis=0)
        phk, phj = ph.take(_BODY_PARTNER, axis=0)
        dphi = phk - phj
        cd = np.cos(dphi)
        ss = stk * stj
        c = ctk * ctj + ss * cd
        singular = ~(1.0 - c * c >= SINGULAR_SIN2)
        pole = np.abs(st) < POLE_TOL
        blown = None
        if np.count_nonzero(singular) or np.count_nonzero(pole):  # cheaper than .any() on a few rows
            blown = singular.any(axis=(0, 1)) | pole.any(axis=0)
            c = np.where(singular, 0.0, c)  # a quarter turn keeps U' defined
        w = mm * pot.u_prime_array(c)
        # each ordered pair's terms of dV/dtheta_k and -dV/dphi_k; the scalar
        # loop summed into zeros, and starting from 0.0 keeps signed zeros too
        g_th = (ctk * stj * cd - stk * ctj) * w
        g_ph = ss * np.sin(dphi) * w
        acc = np.empty_like(v)
        np.add(st * ct * pd**2, (0.0 + g_th[0] + g_th[1]) / m, out=acc[0])
        np.subtract((0.0 - g_ph[0] - g_ph[1]) / (m * st**2), 2.0 * (ct / st) * td * pd, out=acc[1])
        return acc, blown

    return force


def _trig(bound: float):
    """sin and cos for angles at most `bound` in size: math's, or NaN at +-inf as numpy's (math raises ValueError)."""
    if math.isfinite(bound):
        return math.sin, math.cos
    return [lambda t, f=f: f(t) if math.isfinite(t) else math.nan for f in (math.sin, math.cos)]


def _full_row(m, pot: Potential):
    """`_full_force` on one row of Python floats, as a function force(x, v) -> (acc, flagged).

    x, v and acc are lists, thetas then phis; acc is None at a pole.  Each
    value and flag is the batched path's, bit for bit, though each pair k < j
    is evaluated once for both ordered terms: ph_j - ph_k is -(ph_k - ph_j)
    exactly, cos is even and sin odd, and ss, c and w = m_k m_j commute,
    so body j's term -ss sin(ph_j - ph_k) w is +ss sin(ph_k - ph_j) w (at equal
    azimuths a zero of either sign, which a sum from 0.0 absorbs).  A square
    is a product: a float's ** raises OverflowError where numpy returns inf.
    Masses above 1e-300, so m_k sin^2(theta_k) cannot underflow off the poles.
    """
    du = pot._u_prime_float
    m0, m1, m2 = m
    w01, w02, w12 = m0 * m1, m0 * m2, m1 * m2

    def force(x, v):
        t0, t1, t2, p0, p1, p2 = x
        sin, cos = _trig(sum(map(abs, x)))  # |a - b| <= |a| + |b|, and rounding keeps the order
        s0, s1, s2 = sin(t0), sin(t1), sin(t2)
        if abs(s0) < POLE_TOL or abs(s1) < POLE_TOL or abs(s2) < POLE_TOL:
            return None, True
        c0, c1, c2 = cos(t0), cos(t1), cos(t2)
        d01, d02, d12 = p0 - p1, p0 - p2, p1 - p2
        e01, e02, e12 = cos(d01), cos(d02), cos(d12)
        ss01, ss02, ss12 = s0 * s1, s0 * s2, s1 * s2
        c01, c02, c12 = c0 * c1 + ss01 * e01, c0 * c2 + ss02 * e02, c1 * c2 + ss12 * e12
        ok01 = 1.0 - c01 * c01 >= SINGULAR_SIN2
        ok02 = 1.0 - c02 * c02 >= SINGULAR_SIN2
        ok12 = 1.0 - c12 * c12 >= SINGULAR_SIN2
        # a singular pair takes U' at a quarter turn, which keeps it defined
        u01 = w01 * du(c01 if ok01 else 0.0)
        u02 = w02 * du(c02 if ok02 else 0.0)
        u12 = w12 * du(c12 if ok12 else 0.0)
        # -dV/dphi: body k's term of the pair (k, j) is -t_kj, body j's +t_kj
        t01, t02, t12 = ss01 * sin(d01) * u01, ss02 * sin(d02) * u02, ss12 * sin(d12) * u12
        # each body's terms of dV/dtheta over its partners ascending, summed from 0.0 as the batch does
        g0 = 0.0 + (c0 * s1 * e01 - s0 * c1) * u01 + (c0 * s2 * e02 - s0 * c2) * u02
        g1 = 0.0 + (c1 * s0 * e01 - s1 * c0) * u01 + (c1 * s2 * e12 - s1 * c2) * u12
        g2 = 0.0 + (c2 * s0 * e02 - s2 * c0) * u02 + (c2 * s1 * e12 - s2 * c1) * u12
        q0, q1, q2, r0, r1, r2 = v  # the rates of theta, then of phi
        return [
            s0 * c0 * (r0 * r0) + g0 / m0,
            s1 * c1 * (r1 * r1) + g1 / m1,
            s2 * c2 * (r2 * r2) + g2 / m2,
            (0.0 - t01 - t02) / (m0 * (s0 * s0)) - 2.0 * (c0 / s0) * q0 * r0,
            (0.0 + t01 - t12) / (m1 * (s1 * s1)) - 2.0 * (c1 / s1) * q1 * r1,
            (0.0 + t02 + t12) / (m2 * (s2 * s2)) - 2.0 * (c2 / s2) * q2 * r2,
        ], not (ok01 and ok02 and ok12)

    return force


def eom_accelerations(state: PhaseState, masses, pot: Potential = COTANGENT) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations (theta_ddot, phi_ddot) of the full system.

    Raises CoordinateSingularity when a body is at a pole: the azimuth
    acceleration is a coordinate artifact there, and the on-meridian
    families that legitimately touch the poles are handled by the
    reduced system instead.  A singular pair raises SingularSeparation.
    """
    if np.any(np.abs(np.sin(state.theta)) < POLE_TOL):
        raise CoordinateSingularity("body at a pole; use the reduced meridian system")
    x = np.array([state.theta, state.phi])[..., None]
    v = np.array([state.theta_dot, state.phi_dot])[..., None]
    acc, blown = _full_force(masses, pot)(x, v)
    if blown is not None:
        raise SingularSeparation("pair at or numerically at sigma = 0 or pi")
    return acc[0, :, 0], acc[1, :, 0]


def _meridian_force(masses, omega2, pot: Potential, guarded: bool):
    """Polar accelerations of the reduced meridian system as a function force(th) -> (acc, blown).

    th and acc are (3, B), the rows on the last axis; force also takes
    and ignores the rates, as `verify.rk4` passes them.  U' is taken once
    per pair (12, 23, 31); each body sums its terms (m_j sin theta_kj) U'_kj
    over partners j ascending, which keeps pole-middle isosceles hits at
    drift 0.0.  masses is (3,) or per row (B, 3), and omega2 a scalar or
    one value per row.

    Guarded, U' takes C pow rounding and the rows with a singular pair
    or a non-finite angle come back flagged in a mask, None when there
    are none.  Unguarded (a batch of scan hits) takes numpy's array
    power and flags nothing.
    """
    m = _three_masses(masses, rows=True).T.reshape(3, -1)
    # -((m s) U') is ((-m) s) U' exactly
    coef = _PAIR_SIGN * m.take(_PARTNERS, axis=0)
    half_omega2 = 0.5 * np.asarray(omega2, dtype=float)

    def force(th, td=None):
        s, _, _, du, blown = _meridian_pairs(th, pot, guarded)
        terms = coef * s.take(_PAIR_OF, axis=0) * du.take(_PAIR_OF, axis=0)
        return half_omega2 * np.sin(2.0 * th) + terms[0] + terms[1], blown

    return force


def _meridian_pairs(th, pot: Potential, guarded: bool):
    """The pairs (12, 23, 31) of th (3, B) as (sin d, dq, sin dq, U' at dq, blown), for separations d.

    dq is d, but guarded a pair with sin^2 d < SINGULAR_SIN2 or a non-finite
    angle takes a quarter turn, which keeps U' defined, and `blown` flags its
    row (None when there are none).
    """
    d = th.take(_I, axis=0) - th.take(_J, axis=0)
    s = np.sin(d)
    blown, dq, sq = None, d, s
    if guarded:
        singular = ~(s * s >= SINGULAR_SIN2)
        if np.count_nonzero(singular):  # cheaper than .any() on a few rows
            blown = singular.any(axis=0)
            dq, sq = np.where(singular, 0.5 * math.pi, d), np.where(singular, 1.0, s)
    return s, dq, sq, pot._meridian_du(dq, sq, guarded), blown


def _meridian_jacobian(th, masses, omega2, pot: Potential):
    """The guarded `_meridian_force`'s derivative in theta, as (J, blown).

    th is (3, B) and J (3, 3, B), with J[k, l] = d acc_k / d theta_l; masses
    and omega2 are batched as in `_meridian_force`, and `blown` flags the rows
    as it does.  Body k's term of partner j is -m_j F(theta_k - theta_j), with
    F(d) = sin(d) U'_mer(d) and F' (even in d) from `Potential._meridian_slope`,
    so J[k, j] = m_j F'_kj and J[k, k] = omega^2 cos(2 theta_k) - sum_j m_j F'_kj.
    """
    mj = _three_masses(masses, rows=True).T.reshape(3, -1).take(_PARTNERS, axis=0)
    _, dq, sq, du, blown = _meridian_pairs(th, pot, True)
    off = mj * pot._meridian_slope(dq, sq, du).take(_PAIR_OF, axis=0)
    body = np.arange(3)
    J = np.empty((3,) + th.shape)
    J[body, _PARTNERS] = off
    J[body, body] = np.asarray(omega2, dtype=float) * np.cos(2.0 * th) - off[0] - off[1]
    return J, blown


def _meridian_row(m, omega2: float, pot: Potential):
    """The guarded `_meridian_force` on one row of Python floats, as a function force(th, td=None) -> (acc, flagged).

    th and acc are lists; each value and flag comes from the batched
    path's operations in its order, quarter turns included, with U'
    taken once per pair (12, 23, 31).
    """
    du, half_omega2, quarter = pot._meridian_du_float, 0.5 * omega2, (0.5 * math.pi, 1.0)
    # `_meridian_force`'s coefficient of body k and partner j is ckj
    c01, c02, c10, c12, c20, c21 = -m[1], m[2], m[0], -m[2], -m[0], m[1]

    def force(th, td=None):
        t0, t1, t2 = th
        sin = _trig(2.0 * (abs(t0) + abs(t1) + abs(t2)))[0]
        d01, d12, d20 = t0 - t1, t1 - t2, t2 - t0
        s01, s12, s20 = sin(d01), sin(d12), sin(d20)
        ok01, ok12, ok20 = s01 * s01 >= SINGULAR_SIN2, s12 * s12 >= SINGULAR_SIN2, s20 * s20 >= SINGULAR_SIN2
        # a singular pair takes U' at a quarter turn, which keeps it defined
        u01 = du(d01, s01) if ok01 else du(*quarter)
        u12 = du(d12, s12) if ok12 else du(*quarter)
        u20 = du(d20, s20) if ok20 else du(*quarter)
        return [
            half_omega2 * sin(2.0 * t0) + c01 * s01 * u01 + c02 * s20 * u20,
            half_omega2 * sin(2.0 * t1) + c10 * s01 * u01 + c12 * s12 * u12,
            half_omega2 * sin(2.0 * t2) + c20 * s20 * u20 + c21 * s12 * u12,
        ], not (ok01 and ok12 and ok20)

    return force


def meridian_accelerations(th, masses, omega2, pot: Potential = COTANGENT) -> np.ndarray:
    """Polar accelerations on a meridian co-rotating at fixed omega.

    theta_ddot_k = (omega^2 / 2) sin(2 theta_k)
                   - sum_j m_j sin(theta_k - theta_j) U'(cos(theta_k - theta_j)).

    th is one configuration (3,) or a batch (B, 3), with omega2 a
    scalar or a (B, 1) column.  A singular pair anywhere raises
    SingularSeparation.
    """
    th = np.asarray(th, dtype=float)
    force = _meridian_force(masses, np.reshape(omega2, -1), pot, True)
    acc, blown = force(np.ascontiguousarray(th.reshape(-1, 3).T))
    if blown is not None:
        raise SingularSeparation("pair at or numerically at theta_ij = 0 or pi")
    return np.ascontiguousarray(acc.T).reshape(th.shape)


def meridian_re_residual(th, masses, omega2, pot: Potential = COTANGENT) -> np.ndarray:
    """Signed equilibrium residuals of the rotating-meridian equations.

    Component k is (omega^2/2) m_k sin(2 theta_k)
    - m_k sum_j m_j sin(theta_kj) U'(cos(theta_kj)); all three vanish
    exactly at a collinear relative equilibrium.  Batched like
    `meridian_accelerations`.
    """
    m = np.asarray(masses, dtype=float)
    return m * meridian_accelerations(th, m, omega2, pot)


def meridian_energy(th, th_dot, masses, omega2, pot: Potential = COTANGENT):
    """Conserved energy of the reduced co-rotating meridian system.

    Batched like the full-system energies: angles on the last axis, and
    omega2 a scalar or one value per state.
    """
    th = np.asarray(th, dtype=float)
    td = np.asarray(th_dot, dtype=float)
    m = np.asarray(masses, dtype=float)
    v = _pair_potential(np.cos(_pick(th, _I) - _pick(th, _J)), m, pot)
    return 0.5 * np.sum(m * td**2, axis=-1) + 0.25 * omega2 * np.sum(m * np.cos(2.0 * th), axis=-1) - v


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
