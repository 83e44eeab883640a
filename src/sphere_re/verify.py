"""Dynamical verification of relative-equilibrium candidates.

Candidates are integrated with fixed-step classical RK4 and judged by
how well the mutual arc angles, the energy, and the angular momentum
hold over the window.  Nothing here trusts residuals computed by the
solvers: the accelerations are re-derived from the Lagrangian each
step, so a bogus candidate fails even if its solver said otherwise.

One stepper, `rk4`, runs on arrays with a leading batch axis: the
full equations of motion as a batch of one, and the reduced
co-rotating meridian system for one candidate or many.  Meridian
(collinear) candidates may legitimately have bodies at the poles,
where the azimuth equation is singular; the reduced system tracks the
polar angles only and conserves its own energy.  A single candidate
blows up on the singular-separation guard, at a pole, or when its
state goes non-finite; a batch row has no guard and becomes NaN only
when it goes non-finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# perfbench/tracing.py patches meridian_accelerations by this module's name
from .dynamics import (
    PhaseState,
    _meridian_force,
    angular_momentum,
    eom_accelerations,
    meridian_accelerations,  # noqa: F401
    meridian_energy,
    pair_cosines,
    total_energy,
)
from .errors import SingularSeparation, CoordinateSingularity
from .potential import COTANGENT, Potential, potential_by_name

# Default pass thresholds for verify_re.
SIGMA_DRIFT_TOL = 1e-6
ENERGY_DRIFT_TOL = 1e-9
MOMENTUM_DRIFT_TOL = 1e-9

# raised by an acceleration at a singular pair, a pole, or an overflow
_BLOW_UP = (SingularSeparation, CoordinateSingularity, ValueError, OverflowError)


def step_count(T: float, dt: float) -> int:
    """Number of RK4 steps in a window of length T; at least one."""
    if not (dt > 0.0 and math.isfinite(T / dt) and round(T / dt) >= 1):
        raise ValueError(f"T={T!r} and dt={dt!r} give no integration step")
    return int(round(T / dt))


def rk4(x, v, accel, T: float, dt: float, on_step) -> np.ndarray:
    """Fixed-step classical RK4 for x'' = accel(x, v), batched on axis 0.

    `on_step(k, x, v)` sees the state after each step k = 1, ...,
    step_count(T, dt).  A row whose state leaves the finite range blows
    up at the end of that step.  On a batch of one, an exception from
    `accel` (singular pair, pole, overflow) blows the system up at the
    start of the step; on a larger batch it propagates, since it cannot
    be pinned on a row.  The run stops once every row has blown up.
    Returns each row's blow-up time, NaN for the rows that finished.
    """
    blew_up = np.full(len(x), np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(step_count(T, dt)):
            try:
                a1 = accel(x, v)
                v2 = v + 0.5 * dt * a1
                a2 = accel(x + 0.5 * dt * v, v2)
                v3 = v + 0.5 * dt * a2
                a3 = accel(x + 0.5 * dt * v2, v3)
                v4 = v + dt * a3
                a4 = accel(x + dt * v3, v4)
            except _BLOW_UP:
                if len(x) > 1:
                    raise
                blew_up[:] = k * dt
                break
            x = x + (dt / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
            v = v + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            finite = (np.isfinite(x) & np.isfinite(v)).reshape(len(x), -1).all(axis=1)
            blew_up[np.isnan(blew_up) & ~finite] = (k + 1) * dt
            if not np.isnan(blew_up).any():
                break
            on_step(k + 1, x, v)
    return blew_up


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


def _sampled(x, v, accel, T: float, dt: float, sample_every: int):
    """rk4 on a batch of one: times, x and v every `sample_every` steps, blow-up time."""
    n = step_count(T, dt)
    times, xs, vs = [0.0], [x[0]], [v[0]]

    def on_step(k, x, v):
        if k % sample_every == 0 or k == n:
            times.append(k * dt)
            xs.append(x[0])
            vs.append(v[0])

    blew_up = float(rk4(x, v, accel, T, dt, on_step)[0])
    return np.array(times), np.array(xs), np.array(vs), None if math.isnan(blew_up) else blew_up


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

    def accel(x, v):
        return np.array([eom_accelerations(PhaseState(x[0, 0], x[0, 1], v[0, 0], v[0, 1]), m, pot)])

    x0 = np.array([[state.theta, state.phi]])
    v0 = np.array([[state.theta_dot, state.phi_dot]])
    times, xs, vs, blew_up = _sampled(x0, v0, accel, T, dt, sample_every)
    return Trajectory(times, xs[:, 0], xs[:, 1], vs[:, 0], vs[:, 1], meridian=False, blew_up_at=blew_up)


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
    x0 = np.array(theta, dtype=float)[None]
    v0 = np.array(theta_dot, dtype=float)[None]
    times, ths, tds, blew_up = _sampled(
        x0, v0, lambda th, td: _meridian_force(th, m, omega2, pot, True), T, dt, sample_every
    )
    return Trajectory(times, ths, None, tds, None, meridian=True, omega2=omega2, blew_up_at=blew_up)


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
    n_steps = step_count(T, dt)
    if candidate.meridian:
        traj = integrate_meridian(candidate.theta, np.zeros_like(candidate.theta), m, candidate.omega2, pot, T, dt)
        # separations along the meridian, pairs (12, 23, 31)
        sig = traj.theta - traj.theta[:, [1, 2, 0]]
        rate_drift = 0.0
    else:
        state = PhaseState.rigid_rotation(candidate.theta, candidate.phi, candidate.omega)
        traj = integrate(state, m, pot, T, dt)
        sig = np.array(
            [[math.acos(min(1.0, max(-1.0, c))) for c in pair_cosines(th, ph)] for th, ph in zip(traj.theta, traj.phi)]
        )
        rate_drift = float(np.max(np.abs(traj.phi_dot - candidate.omega)))
    sigma_drift = float(np.max(np.abs(sig - sig[0])))
    theta_drift = float(np.max(np.abs(traj.theta - traj.theta[0])))
    e_drift, c_drift = first_integral_drift(traj, m, pot)
    return VerificationReport(
        candidate, T, dt, n_steps, sigma_drift, theta_drift, rate_drift,
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

    Runs RK4 on all candidates at once, which is what makes verifying
    thousands of scan hits tractable.  Returns max |theta(t) - theta(0)|
    per candidate; NaN marks rows whose integration left the finite
    range (a blow-up).
    """
    m = np.asarray(masses, dtype=float)
    th0 = np.asarray(thetas, dtype=float)
    om2 = np.asarray(omega2s, dtype=float)[:, None]
    drift = np.zeros(len(th0))

    def on_step(k, th, td):
        nonlocal drift
        drift = np.maximum(drift, np.max(np.abs(th - th0), axis=1))

    blew_up = rk4(th0, np.zeros_like(th0), lambda th, td: _meridian_force(th, m, om2, pot, False), T, dt, on_step)
    drift[~np.isnan(blew_up)] = np.nan
    return drift
