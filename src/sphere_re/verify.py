"""Dynamical verification of relative-equilibrium candidates.

Candidates are integrated with fixed-step classical RK4 and judged by
how well the mutual arc angles, the energy, and the angular momentum
hold over the window.  Nothing here trusts residuals computed by the
solvers: the accelerations are re-derived from the Lagrangian each
step, so a bogus candidate fails even if its solver said otherwise.

Two steppers, `rk4` on numpy batches with the rows on the last axis and
`_rk4_row` on one row of Python floats (below a system's crossover),
step the full equations of motion and the reduced co-rotating meridian
system with one arithmetic.  Meridian (collinear) candidates may
legitimately have bodies at the poles, where the azimuth equation is
singular; the reduced system tracks the polar angles only and conserves
its own energy.  A row blows up on the singular-separation guard, at a
pole, or when its state goes non-finite; the batch of scan hits in
`batch_meridian_drift` has no guard and blows up only on the last.

`batch_meridian_drift` steps only the rows that move.  A row whose
stage positions RK4 would keep at their start bits for the whole window
is at rest: its drift is 0.0, which stepping it would give too.  The
test replays RK4's arithmetic on the rates alone under the constant
start acceleration.  Every position offset is then a monotone rounding
of a rate that sums one increment, so it keeps one sign and only grows;
if the first and the last step leave every position at its start bits,
so does every step between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# perfbench/tracing.py patches eom_accelerations and meridian_accelerations
# by this module's names
from .dynamics import (
    POLE_TOL,
    PhaseState,
    _full_force,
    _full_row,
    _meridian_force,
    _meridian_row,
    _three_masses,
    angular_momentum,
    eom_accelerations,  # noqa: F401
    meridian_accelerations,  # noqa: F401
    meridian_energy,
    pair_cosines,
    total_energy,
)
from .potential import COTANGENT, Potential

# Pass thresholds of a verification report.
SIGMA_DRIFT_TOL = 1e-6
ENERGY_DRIFT_TOL = 1e-9
MOMENTUM_DRIFT_TOL = 1e-9

# raised by a custom potential's U' that cannot be evaluated
_BLOW_UP = (ValueError, OverflowError)

# candidates per verify batch: a batch keeps every sample of its rows, and at
# T = 10, dt = 1e-3 raises the peak RSS by about 38 MB on 256 meridian rows
# and 95 MB on 256 full-system rows (numpy 2.4, x86-64); a batch below the
# rows where numpy starts to win steps row by row on floats: 9 on the full
# system (BENCH_20), 7 on the meridian, whose numpy step was faster in 22 of
# 24 alternating pairs at 7 rows, 18 of 24 at 6 and 3 of 24 at 5 (BENCH_25)
_BATCH_ROWS = 256
_ROWS_ON_FLOATS = 9
_MERIDIAN_ROWS_ON_FLOATS = 7


def step_count(T: float, dt: float) -> int:
    """Number of RK4 steps in a window of length T; at least one."""
    if not (dt > 0.0 and math.isfinite(T / dt) and round(T / dt) >= 1):
        raise ValueError(f"T={T!r} and dt={dt!r} give no integration step")
    return int(round(T / dt))


def rk4(z, accel, T: float, dt: float, on_step) -> np.ndarray:
    """Fixed-step classical RK4 for x'' = accel(x, v) on a batch of rows.

    z stacks the positions and their rates, z = (x, v), with the batch
    rows on the last axis: (2, 3, B) for the meridian system and
    (2, 2, 3, B) for the full one.  Stage i has k_i = (v_i, accel(x_i, v_i)),
    stage i + 1 starts from z + h k_i (h = dt/2, dt/2, dt), and the step
    is z + (dt/6)(k1 + 2 k2 + 2 k3 + k4): value for value the arithmetic
    of separate x and v updates.

    `accel` returns the accelerations and a mask of the rows it could
    not evaluate (singular pair, pole, non-finite angle), None when
    there are none.  A row flagged in any stage blows up at the start
    of that step; a row whose state leaves the finite range blows up at
    the end of it.  Either way the row is frozen at its last good state
    from then on.  On a batch of one, an exception from `accel` (a custom
    potential that fails) blows the system up at the start of the step;
    on a larger batch it propagates, since it cannot be pinned on a row.

    `on_step(n, z, live)` sees the state after each step n = 1, ...,
    step_count(T, dt) and the rows still running.  The run stops once
    every row has blown up.  Returns each row's blow-up time, NaN for
    the rows that finished.
    """
    rows = z.shape[-1]
    blew_up = np.full(rows, np.nan)
    live, frozen = np.ones(rows, dtype=bool), False
    k = np.empty((4,) + z.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(step_count(T, dt)):
            flagged = []
            stage = z
            try:
                for i, h in enumerate((0.5 * dt, 0.5 * dt, dt, None)):
                    a, f = accel(stage[0], stage[1])
                    k[i, 0], k[i, 1] = stage[1], a
                    if f is not None:
                        flagged.append(f)
                    if h is not None:
                        stage = z + h * k[i]
            except _BLOW_UP:
                if rows > 1:
                    raise
                blew_up[:] = n * dt
                break
            z_next = z + (dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
            finite = np.isfinite(z_next).all()
            if flagged:
                blew_up[np.isnan(blew_up) & np.any(flagged, axis=0)] = n * dt
            if not finite:
                finite_rows = np.isfinite(z_next).reshape(-1, rows).all(axis=0)
                blew_up[np.isnan(blew_up) & ~finite_rows] = (n + 1) * dt
            if flagged or not finite:
                live = np.isnan(blew_up)
                if not live.any():
                    break
                frozen = not live.all()
            if frozen:  # rows that blew up keep their last good state
                z_next = np.where(live, z_next, z)
            z = z_next
            on_step(n + 1, z, live)
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


def _rk4_row(z: list, accel, T: float, dt: float, on_step) -> float:
    """`rk4`, stages and arithmetic, on one row held as a list of floats, x then v; accel(x, v) -> (list, flag).

    A flag or a `_BLOW_UP` exception blows the row up at the start of the
    step, a non-finite state at its end, and the run stops there;
    `on_step(n, z)` sees the state after each step n.  Returns the
    blow-up time, NaN if the row finished.
    """
    half, c6 = len(z) // 2, dt / 6.0
    for n in range(step_count(T, dt)):
        k, stage = [], z
        try:
            for h in (0.5 * dt, 0.5 * dt, dt, None):
                a, flagged = accel(stage[:half], stage[half:])
                if flagged:
                    return n * dt
                k.append(stage[half:] + a)
                if h is not None:
                    stage = [zi + h * ki for zi, ki in zip(z, k[-1])]
        except _BLOW_UP:
            return n * dt
        z = [zi + c6 * (k0 + 2.0 * k1 + 2.0 * k2 + k3) for zi, k0, k1, k2, k3 in zip(z, *k)]
        if not math.isfinite(sum(z)) and not all(map(math.isfinite, z)):  # a finite sum needs finite terms
            return (n + 1) * dt
        on_step(n + 1, z)
    return math.nan


def _sampled(z, meridian: bool, masses, omega2, pot: Potential, T: float, dt: float, sample_every: int):
    """One system's batch z, under `_meridian_force` or `_full_force`, sampled every `sample_every` (an int) steps.

    Below `_ROWS_ON_FLOATS` rows (meridian: `_MERIDIAN_ROWS_ON_FLOATS`),
    and masses above about 1e-300, it steps row by row on floats.  Returns the sample times (S,), x and v with the
    rows ahead of the bodies, (S, B, ...) as the first integrals take
    them, and each row's blow-up time.  A row's samples after it blew up
    repeat its first one, which adds nothing to a drift.
    """
    if isinstance(sample_every, bool) or not isinstance(sample_every, int) or sample_every < 1:
        raise ValueError(f"sample_every must be a positive int; got {sample_every!r}")
    n = step_count(T, dt)
    m = _three_masses(masses, rows=True).reshape(-1, 3)
    # sample j holds step min(j * sample_every, n); each starts as the first sample
    out = np.repeat(np.moveaxis(z, -1, 0)[None], -(-n // sample_every) + 1, axis=0)
    used = 0  # the last sample taken

    def on_step(k, zk, live=None):  # zk is row b's list of floats, or the batch
        nonlocal used
        if k % sample_every == 0 or k == n:
            j = -(-k // sample_every)
            out[j, b].flat = zk if live is None else np.moveaxis(np.where(live, zk, z), -1, 0)
            used = max(used, j)

    crossover = _MERIDIAN_ROWS_ON_FLOATS if meridian else _ROWS_ON_FLOATS
    if len(m) >= crossover or not m.min() * (POLE_TOL * POLE_TOL) > 0.0:
        force = _meridian_force(m, omega2, pot, True) if meridian else _full_force(m, pot)
        b = slice(None)
        blew_up = rk4(z, force, T, dt, on_step)
    else:
        blew_up = np.empty(len(m))
        for b, (mb, w) in enumerate(zip(m.tolist(), np.broadcast_to(omega2, len(m)).tolist())):
            row = _meridian_row(mb, w, pot) if meridian else _full_row(mb, pot)
            blew_up[b] = _rk4_row(out[0, b].ravel().tolist(), row, T, dt, on_step)
    samples = out[: used + 1]
    return np.minimum(np.arange(used + 1) * sample_every, n) * dt, samples[:, :, 0], samples[:, :, 1], blew_up


def _blow_up_time(t: float) -> Optional[float]:
    return None if math.isnan(t) else float(t)


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
    singular, a body reaches a pole, or the state leaves the finite
    range.
    """
    z0 = np.array([[state.theta, state.phi], [state.theta_dot, state.phi_dot]], dtype=float)[..., None]
    times, xs, vs, blew_up = _sampled(z0, False, masses, 0.0, pot, T, dt, sample_every)
    return Trajectory(
        times, xs[:, 0, 0], xs[:, 0, 1], vs[:, 0, 0], vs[:, 0, 1], meridian=False, blew_up_at=_blow_up_time(blew_up[0])
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
    z0 = np.array([theta, theta_dot], dtype=float)[..., None]
    times, ths, tds, blew_up = _sampled(z0, True, masses, omega2, pot, T, dt, sample_every)
    return Trajectory(
        times, ths[:, 0], None, tds[:, 0], None, meridian=True, omega2=omega2, blew_up_at=_blow_up_time(blew_up[0])
    )


def _drift(q) -> np.ndarray:
    """max |q(t) - q(0)| over the samples on axis 0."""
    return np.max(np.abs(q - q[0]), axis=0)


def _integral_drifts(theta, phi, theta_dot, phi_dot, m, omega2, pot: Potential):
    """Energy drift and per-component angular-momentum drift of samples on axis 0, angles on the last axis.

    phi is None on the reduced meridian system: its energy is the reduced
    one and its momentum drifts are zeros (the reduced system fixes the
    axis).  A sample with a singular pair has an infinite or NaN energy.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if phi is None:
            return _drift(meridian_energy(theta, theta_dot, m, omega2, pot)), np.zeros(theta.shape[1:])
        state = PhaseState(theta, phi, theta_dot, phi_dot)
        return _drift(total_energy(state, m, pot)), _drift(angular_momentum(state, m))


def first_integral_drift(traj: Trajectory, masses, pot: Potential = COTANGENT) -> tuple[float, np.ndarray]:
    """Max energy drift and per-component angular-momentum drift of a trajectory (`_integral_drifts`)."""
    phi = None if traj.meridian else traj.phi
    energy, momentum = _integral_drifts(
        traj.theta, phi, traj.theta_dot, traj.phi_dot, np.asarray(masses, dtype=float), traj.omega2, pot
    )
    return float(energy), momentum


@dataclass(frozen=True)
class ReCandidate:
    """What the verifier needs to know about a claimed RE."""

    theta: np.ndarray
    phi: Optional[np.ndarray]  # None for reduced meridian candidates
    omega2: float
    meridian: bool
    masses: np.ndarray
    potential: Potential = COTANGENT
    label: str = ""

    @property
    def omega(self) -> float:
        return math.sqrt(max(self.omega2, 0.0))

    @property
    def potential_name(self) -> str:  # perfbench/workloads.py reads it
        return self.potential.name


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

    @property
    def passed(self) -> bool:
        return (
            self.completed
            and self.sigma_drift < SIGMA_DRIFT_TOL
            and self.energy_drift < ENERGY_DRIFT_TOL
            and bool(np.all(self.momentum_drift < MOMENTUM_DRIFT_TOL))
        )


# np.arccos differs from libm's acos in the last bit on about 6% of
# arguments (numpy 2.4, x86-64); the arc angles keep math.acos
_acos = np.vectorize(math.acos, otypes=[float])


def _batch_drifts(cands: list, meridian: bool, pot: Potential, T: float, dt: float) -> list[tuple]:
    """Integrate one system's candidates, all under `pot`, as one batch.

    Returns per candidate its report's sigma, theta, rate, energy and
    momentum drifts, `completed` and `blew_up_at`.
    """
    m = _three_masses([c.masses for c in cands], rows=True)  # raises here, not in the try below
    theta = np.array([c.theta for c in cands], dtype=float)
    if meridian:
        om2 = np.array([c.omega2 for c in cands], dtype=float)
        z0 = np.zeros((2, 3, len(cands)))
        z0[0] = theta.T
    else:
        om2, omega = 0.0, np.array([[c.omega] for c in cands])
        z0 = np.zeros((2, 2, 3, len(cands)))
        z0[0, 0], z0[0, 1], z0[1, 1] = theta.T, np.array([c.phi for c in cands], dtype=float).T, omega[:, 0]
    try:
        _, xs, vs, blew_up = _sampled(z0, meridian, m, om2, pot, T, dt, 10)
    except _BLOW_UP:  # rk4 pins a failing potential on a row only in a batch of one
        return [drifts for c in cands for drifts in _batch_drifts([c], meridian, pot, T, dt)]
    th, phi, td, pd = (xs, None, vs, None) if meridian else (xs[:, :, 0], xs[:, :, 1], vs[:, :, 0], vs[:, :, 1])
    energy, momentum = _integral_drifts(th, phi, td, pd, m, om2, pot)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if meridian:
            # separations along the meridian, pairs (12, 23, 31)
            sig, rate = th - th[..., [1, 2, 0]], np.zeros(len(cands))
        else:
            sig = _acos(np.clip(pair_cosines(th, phi), -1.0, 1.0))
            rate = np.max(np.abs(pd - omega), axis=(0, 2))
        sigma = np.max(_drift(sig), axis=-1)
        theta_drift = np.max(_drift(th), axis=-1)
    return [
        (float(sigma[b]), float(theta_drift[b]), float(rate[b]), float(energy[b]), momentum[b],
         bool(np.isnan(blew_up[b])), _blow_up_time(blew_up[b]))
        for b in range(len(cands))
    ]


def verify_many(candidates, T: float = 10.0, dt: float = 1e-3) -> list[VerificationReport]:
    """Integrate candidates and report how rigid each rotation stayed.

    The full candidates run as batches of the full equations of motion
    and the meridian ones as batches of the reduced system, at most
    `_BATCH_ROWS` rows each, one potential per batch, below a system's
    crossover one row at a time on floats.  Each row performs the
    arithmetic it performs alone, so its report is the one `verify_re`
    gives it, and a row that blows up is frozen without touching the
    others.  A numpy batch whose potential raises on some row (a custom
    U' that cannot be evaluated) is verified again one row at a time, so
    that row alone blows up; invalid input, such as masses, a window
    without steps or a full candidate with omega^2 < 0 (omega^2 =
    phi'^2), raises at once.
    """
    n_steps = step_count(T, dt)
    groups: dict = {}
    for k, c in enumerate(candidates):
        if not (c.meridian or c.omega2 >= 0.0):
            raise ValueError(f"candidate {k}: a full-system candidate needs omega2 >= 0; got {c.omega2!r}")
        groups.setdefault((bool(c.meridian), c.potential), []).append(k)
    reports: list = [None] * len(candidates)
    for (meridian, pot), rows in groups.items():
        for start in range(0, len(rows), _BATCH_ROWS):
            batch = rows[start : start + _BATCH_ROWS]
            for k, drifts in zip(batch, _batch_drifts([candidates[k] for k in batch], meridian, pot, T, dt)):
                reports[k] = VerificationReport(candidates[k], T, dt, n_steps, *drifts)
    return reports


def verify_re(candidate: ReCandidate, T: float = 10.0, dt: float = 1e-3) -> VerificationReport:
    """Integrate a candidate and report how rigid the rotation stayed.

    Full candidates track arc angles, polar angles, azimuth rates,
    energy, and angular momentum; meridian candidates run the reduced
    system, where the arc drift is the drift of the pair separations
    along the meridian.  A fixed point (omega = 0) is verified the
    same way with zero rate, under the candidate's own potential.  A
    batch of one of `verify_many`.
    """
    return verify_many([candidate], T, dt)[0]


def candidate_from_lre(cand, label: str = "lre") -> ReCandidate:
    """Adapter from a reconstructed triangular candidate."""
    return ReCandidate(
        theta=cand.thetas,
        phi=cand.phis(),
        omega2=cand.omega2,
        meridian=False,
        masses=np.asarray(cand.masses, dtype=float),
        potential=cand.potential,
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
        potential=sol.potential,
        label=label,
    )


def _at_rest(force, x0: np.ndarray, n: int, dt: float) -> np.ndarray:
    """Rows of x0 (3, B) whose positions `rk4` keeps bit for bit over n steps from zero rates; (B,) bool.

    Such a row sees a0 = force(x0) at every stage, so `rk4`'s arithmetic
    runs on the rates alone: v2 = v + h a0 and v4 = v + dt a0 (h = dt/2),
    stage positions x + h v, x + h v2 and x + dt v2, the step's position
    x + (dt/6)(((v + 2 v2) + 2 v2) + v4), and v + (dt/6)(((a0 + 2 a0) + 2 a0) + a0)
    for the next step.  Checking the first step and step n - 1 suffices
    (see the module docstring); the first also catches a body at -0.0,
    which a zero offset turns into +0.0.  A NaN position never rests.  A
    `_BLOW_UP` exception from `force` leaves every row moving, for `rk4`
    to pin on a batch of one or raise.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            a0 = force(x0)[0]
        except _BLOW_UP:
            return np.zeros(x0.shape[1], dtype=bool)
        h, c6 = 0.5 * dt, dt / 6.0

        def holds(x, a, v):
            v2, v4 = v + h * a, v + dt * a
            ok = np.ones(x.shape[1], dtype=bool)
            for offset in (h * v, h * v2, dt * v2, c6 * (((v + 2.0 * v2) + 2.0 * v2) + v4)):
                y = x + offset
                ok &= ((y == x) & (np.signbit(y) == np.signbit(x))).all(axis=0)
            return ok

        rest = holds(x0, a0, np.zeros_like(x0))
        rows = np.flatnonzero(rest)
        x, a = x0[:, rows], a0[:, rows]
        v, inc = np.zeros_like(x), c6 * (((a + 2.0 * a) + 2.0 * a) + a)
        for _ in range(n - 1 if rows.size else 0):
            np.add(v, inc, out=v)
        rest[rows] = holds(x, a, v)
    return rest


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

    A row `_at_rest` has drift 0.0 and is not stepped: every stage
    position stays at its start bits for the whole window, which holds
    at every step if it holds at the first and the last, since each
    position offset grows monotonically with the rates.  The other rows
    run through `rk4` as one batch, whose arithmetic is elementwise per
    row, so every drift is the one a step of the whole batch gives.
    When one row of a larger batch moves, a row at rest is stepped with
    it, so an exception from the potential still propagates.
    """
    m = np.asarray(masses, dtype=float)
    th0 = np.asarray(thetas, dtype=float)
    om2 = np.asarray(omega2s, dtype=float)
    if th0.ndim != 2 or th0.shape[1] != 3 or om2.shape != th0.shape[:1] or m.shape != (3,):
        raise ValueError(
            f"thetas must be (B, 3), omega2s (B,) and masses 3 values; got shapes {th0.shape}, {om2.shape}, {m.shape}"
        )
    n = step_count(T, dt)
    drift = np.zeros(len(th0))
    step = ~_at_rest(_meridian_force(m, om2, pot, False), np.ascontiguousarray(th0.T), n, dt)
    if len(step) > 1 and np.count_nonzero(step) == 1:  # rk4 raises a potential's error only on 2 rows or more
        step[np.argmin(step)] = True
    if not step.any():
        return drift
    z0 = np.zeros((2, 3, np.count_nonzero(step)))
    z0[0] = th0[step].T
    # the largest |theta - theta0| so far of each body and row, and a scratch buffer
    peak, diff = np.zeros_like(z0[0]), np.empty_like(z0[0])

    def on_step(k, z, live):
        np.abs(np.subtract(z[0], z0[0], out=diff), out=diff)
        np.maximum(peak, diff, out=peak)

    blew_up = rk4(z0, _meridian_force(m, om2[step], pot, False), T, dt, on_step)
    moved = peak.max(axis=0)
    moved[~np.isnan(blew_up)] = np.nan
    drift[step] = moved
    return drift
