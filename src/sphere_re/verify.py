"""Dynamical verification of relative-equilibrium candidates.

Candidates are integrated with fixed-step classical RK4 and judged by
how well the mutual arc angles, the energy, and the angular momentum
hold over the window.  Nothing here trusts residuals computed by the
solvers: the accelerations are re-derived from the Lagrangian each
step, so a bogus candidate fails even if its solver said otherwise.

Meridian (collinear) candidates may legitimately have bodies at the
poles, where the azimuth equation is singular; they are integrated in
the reduced co-rotating system, which tracks the polar angles only and
conserves its own energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (
    PhaseState,
    angular_momentum,
    eom_accelerations,
    meridian_accelerations,
    meridian_energy,
    total_energy,
)
from .errors import SingularSeparation, CoordinateSingularity
from .potential import COTANGENT, Potential, potential_by_name

_PAIRS = ((0, 1), (1, 2), (2, 0))

# Default pass thresholds for verify_re.
SIGMA_DRIFT_TOL = 1e-6
ENERGY_DRIFT_TOL = 1e-9
MOMENTUM_DRIFT_TOL = 1e-9


def pair_arcs(th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    ct, st = np.cos(th), np.sin(th)
    out = np.empty(3)
    for idx, (i, j) in enumerate(_PAIRS):
        c = ct[i] * ct[j] + st[i] * st[j] * math.cos(ph[i] - ph[j])
        out[idx] = math.acos(min(1.0, max(-1.0, c)))
    return out


@dataclass
class Trajectory:
    """Sampled output of an integration."""

    times: np.ndarray
    theta: np.ndarray  # (n_samples, n_bodies)
    phi: Optional[np.ndarray]
    theta_dot: np.ndarray
    phi_dot: Optional[np.ndarray]
    meridian: bool
    omega2: float = 0.0
    blew_up_at: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.blew_up_at is None


def integrate(
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


def integrate_meridian(
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


def first_integral_drift(traj: Trajectory, masses, pot: Potential = COTANGENT) -> tuple[float, np.ndarray]:
    """Max energy drift and per-component angular-momentum drift.

    For meridian trajectories the energy is the reduced-system one and
    the momentum slot reports zeros (the reduced system fixes the axis).
    """
    m = np.asarray(masses, dtype=float)
    if traj.meridian:
        e0 = meridian_energy(traj.theta[0], traj.theta_dot[0], m, traj.omega2, pot)
        drift = max(
            abs(meridian_energy(traj.theta[k], traj.theta_dot[k], m, traj.omega2, pot) - e0)
            for k in range(len(traj.times))
        )
        return drift, np.zeros(3)
    s0 = PhaseState(traj.theta[0], traj.phi[0], traj.theta_dot[0], traj.phi_dot[0])
    e0 = total_energy(s0, m, pot)
    c0 = angular_momentum(s0, m)
    e_drift = 0.0
    c_drift = np.zeros(3)
    for k in range(len(traj.times)):
        s = PhaseState(traj.theta[k], traj.phi[k], traj.theta_dot[k], traj.phi_dot[k])
        e_drift = max(e_drift, abs(total_energy(s, m, pot) - e0))
        c_drift = np.maximum(c_drift, np.abs(angular_momentum(s, m) - c0))
    return e_drift, c_drift


@dataclass(frozen=True)
class ReCandidate:
    """What the verifier needs to know about a claimed RE."""

    theta: np.ndarray
    phi: Optional[np.ndarray]  # None for reduced meridian candidates
    omega2: float
    meridian: bool
    masses: np.ndarray
    potential_name: str = "cotangent"
    label: str = ""

    @property
    def omega(self) -> float:
        return math.sqrt(max(self.omega2, 0.0))


@dataclass(frozen=True)
class VerificationReport:
    """Measured drifts of a candidate over the integration window."""

    candidate: ReCandidate
    T: float
    dt: float
    n_steps: int
    sigma_drift: float
    theta_drift: float
    phi_rate_drift: float
    energy_drift: float
    momentum_drift: np.ndarray
    completed: bool
    blew_up_at: Optional[float] = None
    sigma_tol: float = SIGMA_DRIFT_TOL
    energy_tol: float = ENERGY_DRIFT_TOL
    momentum_tol: float = MOMENTUM_DRIFT_TOL

    @property
    def passed(self) -> bool:
        return (
            self.completed
            and self.sigma_drift < self.sigma_tol
            and self.energy_drift < self.energy_tol
            and bool(np.all(self.momentum_drift < self.momentum_tol))
        )


def verify_re(
    candidate: ReCandidate,
    T: float = 10.0,
    dt: float = 1e-3,
    sigma_tol: float = SIGMA_DRIFT_TOL,
    energy_tol: float = ENERGY_DRIFT_TOL,
    momentum_tol: float = MOMENTUM_DRIFT_TOL,
) -> VerificationReport:
    """Integrate a candidate and report how rigid the rotation stayed.

    Full candidates track arc angles, polar angles, azimuth rates,
    energy, and angular momentum; meridian candidates run the reduced
    system, where the arc drift is the drift of the pair separations
    along the meridian.  A fixed point (omega = 0) is verified the
    same way with zero rate.  The candidate's potential is looked up by
    name; a name that is not a built-in potential raises ValueError.
    """
    pot = potential_by_name(candidate.potential_name)
    m = candidate.masses
    if candidate.meridian:
        traj = integrate_meridian(candidate.theta, np.zeros_like(candidate.theta), m, candidate.omega2, pot, T, dt)
        th0 = traj.theta[0]
        sig0 = np.array([th0[i] - th0[j] for i, j in _PAIRS])
        sigma_drift = 0.0
        theta_drift = 0.0
        for k in range(len(traj.times)):
            th = traj.theta[k]
            sig = np.array([th[i] - th[j] for i, j in _PAIRS])
            sigma_drift = max(sigma_drift, float(np.max(np.abs(sig - sig0))))
            theta_drift = max(theta_drift, float(np.max(np.abs(th - th0))))
        e_drift, c_drift = first_integral_drift(traj, m, pot)
        return VerificationReport(
            candidate, T, dt, int(round(T / dt)), sigma_drift, theta_drift, 0.0,
            e_drift, c_drift, traj.completed, traj.blew_up_at, sigma_tol, energy_tol, momentum_tol,
        )

    state = PhaseState.rigid_rotation(candidate.theta, candidate.phi, candidate.omega)
    traj = integrate(state, m, pot, T, dt)
    sig0 = pair_arcs(traj.theta[0], traj.phi[0])
    sigma_drift = 0.0
    theta_drift = 0.0
    rate_drift = 0.0
    for k in range(len(traj.times)):
        sigma_drift = max(sigma_drift, float(np.max(np.abs(pair_arcs(traj.theta[k], traj.phi[k]) - sig0))))
        theta_drift = max(theta_drift, float(np.max(np.abs(traj.theta[k] - traj.theta[0]))))
        rate_drift = max(rate_drift, float(np.max(np.abs(traj.phi_dot[k] - candidate.omega))))
    e_drift, c_drift = first_integral_drift(traj, m, pot)
    return VerificationReport(
        candidate, T, dt, int(round(T / dt)), sigma_drift, theta_drift, rate_drift,
        e_drift, c_drift, traj.completed, traj.blew_up_at, sigma_tol, energy_tol, momentum_tol,
    )


def candidate_from_lre(cand, label: str = "lre") -> ReCandidate:
    """Adapter from a reconstructed triangular candidate."""
    return ReCandidate(
        theta=cand.thetas,
        phi=cand.phis(),
        omega2=cand.omega2,
        meridian=False,
        masses=np.asarray(cand.masses, dtype=float),
        potential_name=cand.potential_name,
        label=label,
    )


def candidate_from_ere(sol, label: str = "ere") -> ReCandidate:
    """Adapter from a meridian solution; verified in the reduced system."""
    return ReCandidate(
        theta=np.asarray(sol.thetas, dtype=float),
        phi=None,
        omega2=sol.omega2,
        meridian=True,
        masses=np.asarray(sol.masses, dtype=float),
        potential_name=sol.potential_name,
        label=label,
    )


def batch_meridian_drift(
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
