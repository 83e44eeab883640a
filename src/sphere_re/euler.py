"""Collinear relative equilibria on a rotating meridian.

Shapes live in the signed offsets (a, x) = (theta_2 - theta_1,
theta_3 - theta_1) with theta extended to [-pi, pi] and phi = 0 on the
co-rotating meridian.  A shape generates a collinear RE exactly when a
2x2 determinant built from the pair quantities F_ij and G_ij vanishes;
reconstruction then pins the configuration and the rotation rate, with
the branch sign decided by the equations of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import _meridian_force, _three_masses, meridian_re_residual
from .errors import (
    DegenerateDiscriminant,
    ExcludedAngle,
    InconsistentRatios,
    InternalError,
    SingularSeparation,
)
from .geometry import MeridianShape3, _separation_rows, wrap_angles
from .potential import BUILT_INS, COTANGENT, Potential
from .roots import _row_norms, bisect, bisect_many, gauss_newton

# A is treated as zero below this multiple of the total mass.
DISCRIMINANT_TOL = 1e-10

# Relative disagreement allowed between the pairwise ratio estimates.
RATIO_TOL = 1e-8

# G and F differences below this fraction of the largest |G| or |F| count as zero.
DIFF_TOL = 1e-8

# Arcs, or the two spreads about a body, this close make a shape equilateral or isosceles.
SHAPE_TOL = 1e-9

# The scanner drops hits with min |sin theta_ij| below this: inside the
# collision/antipodal corners the residuals cannot be evaluated below ~ eps * omega^2.
SCAN_SINGULAR_CUTOFF = 0.03

# rows of the ere_scan grid per g_cyclic call of its sign pass.  At
# 720^2 (masses 1.1, 2.05, 2.9; 2-core Xeon, numpy 2.4.6) the pass took
# a median 0.016-0.023 s at 16 or 32 rows, 0.018-0.023 s at 8 and
# 0.025-0.034 s at 128, against 0.11-0.15 s one row at a time.  One
# call on the whole grid raised the peak RSS by 28.3 MB, against 2.1 MB
# at 32 rows and 0.6 MB one row at a time
_SCAN_BLOCK = 32

# names of the codes that `_classify_rows` and `_isosceles_rows` return
_KINDS = ("equilateral", "isosceles", "scalene")
_ISO_FAMILIES = ("pole-middle", "fixed-point", "equator-middle")


@dataclass(frozen=True)
class MeridianDiagnostics:
    """Discriminant data for a meridian shape."""

    D: float
    A: float


def _discriminant_rows(a: np.ndarray, x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D and A = sqrt(max(D, 0)) for the shapes (a[k], x[k])."""
    t12, t23, t31 = _separation_rows(a, x).T
    d = float(np.sum(m**2)) + 2.0 * (
        m[0] * m[1] * np.cos(2 * t12) + m[1] * m[2] * np.cos(2 * t23) + m[2] * m[0] * np.cos(2 * t31)
    )
    scale = float(np.sum(m)) ** 2
    broken = np.flatnonzero(d < -1e-12 * scale)
    if broken.size:
        raise InternalError(f"discriminant {d[broken[0]]} negative beyond tolerance")
    return d, np.sqrt(np.maximum(d, 0.0))


def discriminant(shape: MeridianShape3, masses) -> MeridianDiagnostics:
    """Discriminant D = sum m^2 + 2 sum_{i<j} m_i m_j cos(2 theta_ij).

    D is a sum of two squares, so a value below -1e-12 * M^2 indicates a
    broken invariant rather than a legal input.
    """
    d, a = _discriminant_rows(np.array([shape.a]), np.array([shape.x]), np.asarray(masses, dtype=float))
    return MeridianDiagnostics(float(d[0]), float(a[0]))


def _nondegenerate(shape: MeridianShape3, masses) -> MeridianDiagnostics:
    """The discriminant of a shape whose A is not numerically zero; A = 0 raises DegenerateDiscriminant."""
    diag = discriminant(shape, masses)
    if diag.A <= DISCRIMINANT_TOL * float(np.sum(masses)):
        raise DegenerateDiscriminant(f"A = {diag.A} is numerically zero; solve through the equations of motion")
    return diag


@dataclass(frozen=True)
class FGPair:
    """The pair quantities entering the meridian shape condition.

    F_ij = m_i m_j sin(theta_ij) U'(cos(theta_ij)) and
    G_ij = m_i m_j sin(2 theta_ij); both are antisymmetric in (i, j).
    """

    f12: float
    f23: float
    f31: float
    g12: float
    g23: float
    g31: float

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.f12, self.f23, self.f31]), np.array([self.g12, self.g23, self.g31])


def _fg_rows(th: np.ndarray, m: np.ndarray, pot: Potential) -> tuple[np.ndarray, np.ndarray]:
    """F_ij and G_ij, pairs (12, 23, 31), of each row of meridian angles th (B, 3)."""
    d = th - th[:, [1, 2, 0]]
    mm, s = m * m[[1, 2, 0]], np.sin(d)
    return mm * s * pot.u_prime_meridian(d, s), mm * np.sin(2.0 * d)


def fg_pair(thetas, masses, pot: Potential = COTANGENT) -> FGPair:
    f, g = _fg_rows(np.asarray(thetas, dtype=float)[None], np.asarray(masses, dtype=float), pot)
    return FGPair(*f[0], *g[0])


def _det_rows(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (g[:, 0] - g[:, 1]) * (f[:, 2] - f[:, 0]) - (g[:, 2] - g[:, 0]) * (f[:, 0] - f[:, 1])


def ere_shape_det(shape: MeridianShape3, masses, pot: Potential = COTANGENT) -> tuple[float, FGPair]:
    """The 2x2 determinant whose zero set is the collinear-RE shapes."""
    _nondegenerate(shape, masses)
    fg = fg_pair(shape.theta_offsets(), masses, pot)
    f, g = fg.as_arrays()
    return float(_det_rows(f[None], g[None])[0]), fg


def _reconstruct_rows(a: np.ndarray, x: np.ndarray, m: np.ndarray, big_a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Configuration angles (B, 3) of the shapes (a[k], x[k]) on branches s[k] = +-1."""
    t12, t13 = -a, -x
    c = (m[0] + m[1] * np.cos(2 * t12) + m[2] * np.cos(2 * t13)) * s / big_a
    sn = (m[1] * np.sin(2 * t12) + m[2] * np.sin(2 * t13)) * s / big_a
    # math.atan2, not np.arctan2: the two differ in the last bit
    theta1 = 0.5 * np.array([math.atan2(v, w) for v, w in zip(sn.tolist(), c.tolist())])
    th = wrap_angles(theta1[:, None] + np.stack([np.zeros_like(a), a, x], axis=1))
    balance = np.sum(m * np.sin(2.0 * th), axis=1)
    off = np.flatnonzero(np.abs(balance) > 1e-10 * float(np.sum(m)))
    if off.size:
        raise InternalError(f"sum m sin(2 theta) = {balance[off[0]]} after reconstruction")
    return th


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
    diag = _nondegenerate(shape, m)
    return _reconstruct_rows(np.array([shape.a]), np.array([shape.x]), m, np.array([diag.A]), np.array([s]))[0]


@dataclass(frozen=True)
class EreSolution:
    """A solved (or classified) collinear candidate."""

    shape: MeridianShape3
    masses: np.ndarray
    thetas: np.ndarray
    omega2: float
    s: Optional[int]
    fixed_point: bool
    omega_undetermined: bool
    det: Optional[float]
    diagnostics: MeridianDiagnostics
    residuals: np.ndarray
    family: str
    potential: Potential = COTANGENT

    @property
    def potential_name(self) -> str:  # perfbench/workloads.py reads it
        return self.potential.name

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    @property
    def is_ere(self) -> bool:
        return self.max_residual < ere_residual_bound(self.masses)


def ere_residual_bound(masses) -> float:
    """The max residual of an ERE, 1e-8 max(m)^2: a residual is m_k times an acceleration linear in the masses."""
    return 1e-8 * float(np.max(masses)) ** 2


def _ratio_error(ratio: np.ndarray, valid: np.ndarray) -> InconsistentRatios:
    ratios = [r for r, v in zip(ratio, valid) if v]
    if not ratios:
        return InconsistentRatios("G differences vanish but F differences do not")
    return InconsistentRatios(f"pair ratios disagree: {ratios}")


def _ratio_rows(f: np.ndarray, g: np.ndarray):
    """The ratio rule of `ere_omega2` on each row of pair quantities.

    Returns the pairwise estimates dF/dG (B, 3), which of them are
    valid, their common ratio, and the undetermined, inconsistent and
    fixed-point row masks.  The common ratio is the mean of the valid
    estimates, and on an inconsistent row, which is off the solution
    curve, the least-squares fit that still seeds the polish.
    """
    dgs = g - g[:, [1, 2, 0]]
    dfs = f - f[:, [1, 2, 0]]
    gscale = np.maximum(np.abs(g).max(axis=1), 1e-30)[:, None]
    fscale = np.maximum(np.abs(f).max(axis=1), 1e-30)[:, None]
    undetermined = (np.abs(dgs) < DIFF_TOL * gscale).all(axis=1) & (np.abs(dfs) < DIFF_TOL * fscale).all(axis=1)
    valid = np.abs(dgs) > DIFF_TOL * gscale
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dfs / dgs
        total = 0.0
        for k in range(3):
            total = total + np.where(valid[:, k], ratio[:, k], 0.0)
        mean = total / valid.sum(axis=1)
        # stacked matmul rounds like a BLAS dot per row
        lsq = (dgs[:, None] @ dfs[:, :, None])[:, 0, 0] / (dgs[:, None] @ dgs[:, :, None])[:, 0, 0]
    spread = np.where(valid, ratio, -np.inf).max(axis=1) - np.where(valid, ratio, np.inf).min(axis=1)
    scale = (fscale / gscale)[:, 0]
    inconsistent = ~undetermined & (~valid.any(axis=1) | (spread > RATIO_TOL * np.maximum(np.abs(mean), scale)))
    fixed = ~undetermined & ~inconsistent & (np.abs(mean) < DIFF_TOL * fscale[:, 0] / gscale[:, 0])
    return ratio, valid, np.where(inconsistent, lsq, mean), undetermined, inconsistent, fixed


def ere_omega2(shape: MeridianShape3, masses, pot: Potential = COTANGENT):
    """Branch sign and rotation rate from the compact pair equations.

    Returns (s, omega2, fixed_point, undetermined).  The three pairwise
    equations s omega^2 / (2A) (G_ij - G_jk) = F_ij - F_jk share one
    ratio; its sign fixes s, and a zero ratio means a fixed point.  When
    every matrix element vanishes the rate is undetermined.
    """
    diag = _nondegenerate(shape, masses)
    f, g = fg_pair(shape.theta_offsets(), masses, pot).as_arrays()
    ratio, valid, mean, undetermined, inconsistent, fixed = (v[0] for v in _ratio_rows(f[None], g[None]))
    if undetermined:
        return None, 0.0, False, True
    if inconsistent:
        raise _ratio_error(ratio, valid)
    if fixed:
        return None, 0.0, True, False
    return (1 if mean > 0.0 else -1), 2.0 * diag.A * abs(mean), False, False


def _classify_rows(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kind (an index into `_KINDS`), middle body and signed half spread w of each shape (a[k], x[k]).

    The middle body of an isosceles row sits at signed offset -w from one
    outer body and +w from the other; on other rows both mean nothing.
    """
    arcs = np.abs(_separation_rows(a, x))
    th = np.stack([np.zeros_like(a), a, x], axis=1)
    wi, wj = wrap_angles(th[:, [1, 2, 0]] - th), wrap_angles(th[:, [2, 0, 1]] - th)
    iso = np.abs(wi + wj) < SHAPE_TOL
    middle = np.argmax(iso, axis=1)
    kind = np.where(arcs.max(axis=1) - arcs.min(axis=1) < SHAPE_TOL, 0, np.where(iso.any(axis=1), 1, 2))
    return kind, middle, wj[np.arange(a.size), middle]


def iso_omega2_function(theta):
    """Equal-mass cotangent rate along the isosceles families, of a float or an array.

    f(theta) = 2 (1/|sin 2theta|^3 + 1/(sin^2 theta sin 2theta)); the
    pole-middle family uses +f and the equator-middle family -f.  The
    powers take C pow rounding (np.float_power), as the guarded force does.
    """
    s2 = np.sin(2.0 * theta)
    if np.any(s2 == 0.0):
        raise ExcludedAngle("sin(2 theta) = 0; no finite rate here")
    return 2.0 * (1.0 / np.float_power(np.abs(s2), 3) + 1.0 / (np.float_power(np.sin(theta), 2) * s2))


def _isosceles_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit-mass cotangent normal form of isosceles rows with signed half spreads w.

    Returns each row's family (an index into `_ISO_FAMILIES`, -1 where
    theta = |w| is outside (0, pi) or at pi/2, where the outer pair is
    antipodal), its rate (+f(theta) with the middle body at a pole below
    2 pi/3, 0 at the equilateral fixed point, -f(theta) on the equator
    above) and its placement (base - w, base + w, base) in body order
    (outer, outer, middle), left unwrapped to keep the pair differences exact.
    """
    theta = np.abs(w)
    third = 2.0 * math.pi / 3.0
    family = np.where(np.abs(theta - third) < 1e-12, 1, np.where(theta < third, 0, 2))
    family[~((0.0 < theta) & (theta < math.pi)) | (np.abs(theta - math.pi / 2.0) < 1e-12)] = -1
    rate = np.zeros(theta.shape)
    moving = (family == 0) | (family == 2)
    f = iso_omega2_function(theta[moving])
    rate[moving] = np.where(family[moving] == 2, -f, f)
    base = np.where(family == 2, math.pi / 2.0, 0.0)
    return family, rate, np.stack([base - w, base + w, base], axis=1)


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

    theta is the common spread between the middle body and each outer
    body; `_isosceles_rows` on a batch of one.
    """
    family, rate, place = (v[0] for v in _isosceles_rows(np.array([theta], dtype=float)))
    if family < 0:
        raise ExcludedAngle(f"theta = {theta} is outside (0, pi) or at pi/2, where the outer bodies are antipodal")
    return IsoscelesEre(theta, _ISO_FAMILIES[family], None if family == 1 else float(place[2]), float(rate), place)


def _singular_pair() -> SingularSeparation:
    return SingularSeparation("pair at or numerically at theta_ij = 0 or pi")


def _residual_rows(th: np.ndarray, m: np.ndarray, omega2, pot: Potential) -> np.ndarray:
    """meridian_re_residual of each row at its rate omega2[k]; a row with a singular pair comes back NaN."""
    acc, blown = _meridian_force(m, omega2, pot, True)(np.ascontiguousarray(th.T))
    res = m * np.ascontiguousarray(acc.T)
    if blown is not None:
        res[blown] = np.nan
    return res


def _normal_form_rows(rows: np.ndarray, middle: np.ndarray, w: np.ndarray, m: np.ndarray, pot: Potential, put) -> None:
    """The symmetric normal form of the equal-mass cotangent isosceles shapes `rows`.

    The normal form takes a row unless its spread is excluded or its
    rate misses the equations, and `put`s it with its residuals, no
    branch sign and no determinant, keeping the input shape.
    """
    family, rate, place = _isosceles_rows(w[rows])
    th = np.empty(place.shape)
    th[np.arange(rows.size)[:, None], (middle[rows, None] + (1, 2, 0)) % 3] = place
    omega2 = m[0] * rate
    res = _residual_rows(th, m, omega2, pot)
    # a placement that meets a singular pair (NaN) is taken, for the residual pass to report
    done = (family >= 0) & ~(np.abs(res).max(axis=1) >= 1e-8)
    names = np.array([f"isosceles-{f}" for f in _ISO_FAMILIES], dtype=object)[family[done]]
    put(rows[done], th[done], omega2[done], family[done] == 1, names, residuals=res[done])


def _degenerate_rows(rows: np.ndarray, a, x, m: np.ndarray, pot: Potential, put) -> None:
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
    acc = _meridian_force(m, 0.0, pot, True)(np.ascontiguousarray(th.T))[0]
    lhs, rhs = 0.5 * np.sin(2.0 * th), -np.ascontiguousarray(acc.T)
    # least-squares rates; the stacked matmuls round like a BLAS dot per seed
    denom = (lhs[:, None] @ lhs[:, :, None])[:, 0, 0]
    om2 = np.divide((lhs[:, None] @ rhs[:, :, None])[:, 0, 0], denom, out=np.zeros(denom.shape), where=denom > 1e-12)
    score = _row_norms(_residual_rows(th, m, om2, pot)).reshape(-1, 37)
    # each row's first least score; NaN (a pair singular at some seeds) loses unless the first seed's is NaN
    best = np.argmin(np.where(np.isnan(score) & ~np.isnan(score[:, :1]), np.inf, score), axis=1)
    seed = np.column_stack([grid[best], om2.reshape(-1, 37)[np.arange(rows.size), best]])
    p = gauss_newton(lambda q, idx: _residual_rows(q[:, :1] + offs[idx], m, q[:, 1], pot), seed)
    fixed = np.abs(p[:, 1]) < 1e-10
    names = np.where(fixed, "degenerate-fixed-point", "degenerate").astype(object)
    put(rows, wrap_angles(p[:, :1] + offs), np.where(fixed, 0.0, p[:, 1]), fixed, names)


def _generic_rows(rows: np.ndarray, a, x, big_a, kind, m: np.ndarray, pot: Potential, put, errors: dict) -> None:
    """The determinant-condition solve of the non-degenerate shapes `rows`.

    The ratio rule gives (s, omega^2), the two-branch reconstruction the
    configuration, and a Gauss-Newton polish moves (theta, omega^2) onto
    the solution manifold.  A row whose reconstruction or polish meets a
    singular pair, or with inconsistent ratios and no seed, goes to
    `errors` under its row; the others are `put`.
    """
    f, g = _fg_rows(np.stack([np.zeros(rows.size), a[rows], x[rows]], axis=1), m, pot)
    det = _det_rows(f, g)
    ratio, valid, common, undetermined, inconsistent, fixed = _ratio_rows(f, g)
    # the polish either lands an inconsistent row on the nearby curve
    # point or leaves a residual that flags the shape.  A fixed point or
    # an undetermined rate has no branch sign (0) and reconstructs on +1
    s = np.where(fixed | undetermined, 0.0, np.where(common > 0.0, 1.0, -1.0))
    omega2 = np.where(fixed | undetermined, 0.0, 2.0 * big_a[rows] * np.abs(common))
    unseeded = inconsistent & (common == 0.0)
    for i in np.flatnonzero(unseeded):
        errors[rows[i]] = _ratio_error(ratio[i], valid[i])
    rows, s, omega2, det, fixed, undetermined = (v[~unseeded] for v in (rows, s, omega2, det, fixed, undetermined))
    th = _reconstruct_rows(a[rows], x[rows], m, big_a[rows], np.where(s == 0.0, 1.0, s))

    pre_res = _residual_rows(th, m, omega2, pot)
    polish = np.flatnonzero(~fixed & ~undetermined & (np.abs(pre_res).max(axis=1) > 1e-12))
    seed = np.column_stack([th[polish], omega2[polish]])
    p = gauss_newton(lambda p, idx: _residual_rows(p[:, :3], m, p[:, 3], pot), seed)
    moved = np.maximum(
        np.abs(wrap_angles((p[:, 1] - p[:, 0]) - a[rows[polish]])),
        np.abs(wrap_angles((p[:, 2] - p[:, 0]) - x[rows[polish]])),
    )
    # refuse to "solve" a shape by walking to a different one: the
    # polish may only absorb bracketing error, not change the input
    take = moved < 1e-3
    th[polish[take]] = wrap_angles(p[take, :3])
    omega2[polish[take]] = p[take, 3]
    singular = np.isnan(pre_res).any(axis=1)
    singular[polish] |= np.isnan(p).any(axis=1)
    errors.update((k, _singular_pair()) for k in rows[singular].tolist())
    ok = ~singular
    rows, th, omega2, s, det, fixed, undetermined = (v[ok] for v in (rows, th, omega2, s, det, fixed, undetermined))
    names = np.array(_KINDS, dtype=object)[kind[rows]]
    names[fixed], names[undetermined] = "fixed-point", "undetermined-rate"
    put(rows, th, omega2, fixed, names, omega_undetermined=undetermined, s=s, det=det, kept=False)


def _solve_rows(a: np.ndarray, x: np.ndarray, m: np.ndarray, pot: Potential) -> tuple[dict, dict]:
    """The array part of `solve_ere_many`: the shapes (a[k], x[k]) solved as columns.

    A shape with a singular pair, found once from the residuals of its
    offsets (0, a, x) at rest, is reported first.  Degenerate (A = 0)
    shapes then take the direct equations-of-motion solve
    (`_degenerate_rows`), equal-mass cotangent isosceles shapes their
    symmetric normal form (`_normal_form_rows`) and the rest the
    determinant condition (`_generic_rows`); each solves its shapes in
    one batched pass and writes them into one table by column name
    through `put`, and a batch with no row for one of them skips it.
    Last, one residual pass evaluates the solutions put without
    residuals and reports the rows whose residual meets a singular pair.

    Returns the columns of the solved rows, in input order, and the
    SingularSeparation or InconsistentRatios of every other row by its
    index; any other error propagates.  The columns are `row` (the input
    index), the solution fields `thetas`, `omega2`, `residuals`,
    `fixed_point`, `omega_undetermined`, `s` (0 for no branch sign),
    `det`, `family`, `D` and `A`, `kept` (a row of the normal form or
    the A = 0 solve: no determinant) and the solution shape `shape_a`,
    `shape_x` (the input shape where `kept` or `omega_undetermined`).
    """
    n = a.size
    singular = np.isnan(_residual_rows(np.stack([np.zeros(n), a, x], axis=1), m, 0.0, pot)).any(axis=1)
    errors: dict = {k: _singular_pair() for k in np.flatnonzero(singular).tolist()}
    big_d, big_a = _discriminant_rows(a, x, m)
    kind, middle, w = _classify_rows(a, x)
    # the optional columns hold the values of the normal-form and A = 0 rows
    cols = {"thetas": np.empty((n, 3)), "omega2": np.empty(n), "fixed_point": np.empty(n, dtype=bool),
            "omega_undetermined": np.zeros(n, dtype=bool), "s": np.zeros(n), "det": np.zeros(n),
            "family": np.empty(n, dtype=object), "kept": np.ones(n, dtype=bool), "residuals": np.empty((n, 3))}
    solved, evaluated = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)

    def put(rows, thetas, omega2, fixed_point, family, **optional):
        solved[rows] = True
        evaluated[rows] = "residuals" in optional
        optional.update(thetas=thetas, omega2=omega2, fixed_point=fixed_point, family=family)
        for name, values in optional.items():
            cols[name][rows] = values

    total = float(np.sum(m))
    degenerate = np.flatnonzero(~singular & (big_a <= DISCRIMINANT_TOL * total))
    if degenerate.size:
        _degenerate_rows(degenerate, a, x, m, pot, put)
    iso_rows = np.flatnonzero(~singular & ~solved & (kind == 1))
    if iso_rows.size and pot is COTANGENT and np.allclose(m, m[0], rtol=0.0, atol=1e-12 * total):
        _normal_form_rows(iso_rows, middle, w, m, pot, put)
    rows = np.flatnonzero(~singular & ~solved)
    if rows.size:
        _generic_rows(rows, a, x, big_a, kind, m, pot, put, errors)

    todo = np.flatnonzero(solved & ~evaluated)
    cols["residuals"][todo] = _residual_rows(cols["thetas"][todo], m, cols["omega2"][todo], pot)
    idx = np.flatnonzero(solved)
    met = np.isnan(cols["residuals"][idx]).any(axis=1)
    errors.update((k, _singular_pair()) for k in idx[met].tolist())
    idx = idx[~met]
    cols = {name: column[idx] for name, column in cols.items()}
    rel = wrap_angles(cols["thetas"][:, 1:] - cols["thetas"][:, :1])
    keep_shape = cols["kept"] | cols["omega_undetermined"]
    cols.update(row=idx, D=big_d[idx], A=big_a[idx])
    cols.update(shape_a=np.where(keep_shape, a[idx], rel[:, 0]), shape_x=np.where(keep_shape, x[idx], rel[:, 1]))
    return cols, errors


def _solutions(cols: dict, m: np.ndarray, pot: Potential) -> list:
    """The EreSolution of each row of the `_solve_rows` columns `cols`."""
    names = (
        "shape_a", "shape_x", "omega2", "fixed_point", "omega_undetermined", "s", "det", "family", "kept", "D", "A",
    )
    fields = zip(cols["thetas"], cols["residuals"], *(cols[name].tolist() for name in names))
    return [
        EreSolution(
            shape=MeridianShape3(a, x),
            masses=m,
            thetas=th,
            omega2=omega2,
            s=None if s == 0.0 else int(s),
            fixed_point=fixed,
            omega_undetermined=undetermined,
            det=None if kept else det,
            diagnostics=MeridianDiagnostics(big_d, big_a),
            residuals=res,
            family=family,
            potential=pot,
        )
        for th, res, a, x, omega2, fixed, undetermined, s, det, family, kept, big_d, big_a in fields
    ]


def solve_ere_many(shapes, masses, pot: Potential = COTANGENT) -> list:
    """Solve many meridian shapes for their collinear relative equilibria.

    `_solve_rows` solves the shapes as array rows, and each solved row
    is assembled into its EreSolution.  Returns, per shape, its
    EreSolution or the SingularSeparation or InconsistentRatios it
    raised; any other error propagates.
    """
    m = _three_masses(masses)
    a = np.array([shape.a for shape in shapes], dtype=float)
    x = np.array([shape.x for shape in shapes], dtype=float)
    cols, out = _solve_rows(a, x, m, pot)
    out.update(zip(cols["row"].tolist(), _solutions(cols, m, pot)))
    return [out[k] for k in range(len(shapes))]


def solve_ere(shape: MeridianShape3, masses, pot: Potential = COTANGENT) -> EreSolution:
    """Solve a meridian shape for its collinear relative equilibrium.

    `solve_ere_many` on a batch of one; raises the SingularSeparation or
    InconsistentRatios that it reports.
    """
    sol = solve_ere_many([shape], masses, pot)[0]
    if isinstance(sol, Exception):
        raise sol
    return sol


def repulsive_mirror(sol: EreSolution) -> EreSolution:
    """The same shape as an RE of the sign-flipped potential.

    All bodies shift by pi/2 and the branch sign flips; a fixed point is
    returned unchanged.  The shift negates sin(2 theta) and keeps every
    separation, so this holds for any potential.  Applying the mirror
    twice recovers the original configuration modulo pi.
    """
    if sol.fixed_point:
        return sol
    pot = sol.potential.negated()
    th = wrap_angles(sol.thetas + math.pi / 2.0)
    res = meridian_re_residual(th, sol.masses, sol.omega2, pot)
    return replace(sol, thetas=th, s=None if sol.s is None else -sol.s, residuals=res, potential=pot)


def scalene_curve_y(a: float) -> Optional[float]:
    """cos(2y) on the equal-mass scalene branch, or None off the branch.

    The branch lives in the wedge |y| < a/2 and exists for
    pi/2 < a < a_c only; outside the wedge the quadratic root is
    spurious (its shape does not satisfy the determinant condition), so
    it is rejected here.  Returns the cos(2y) value (not y).
    """
    if abs(math.cos(a)) < 1e-14:
        return None
    val = scalene_curve_value(a)
    if not abs(val) <= 1.0:  # NaN where the radicand is negative
        return None
    y = 0.5 * math.acos(val)
    if y >= 0.5 * a:
        return None
    return val


def scalene_curve_value(a: float) -> float:
    """The cos(2y) formula without the [-1, 1] cut (for root bracketing)."""
    ca = math.cos(a)
    c2a = math.cos(2.0 * a)
    rad = c2a * c2a - 4.0 * c2a - 4.0
    if rad < 0.0:
        return math.nan
    return ca + (math.sin(a) ** 2 / ca) * (c2a + math.sqrt(rad))


def scalene_shape(a: float) -> Optional[MeridianShape3]:
    """The upper-branch scalene shape at spread a, if the curve exists."""
    c2y = scalene_curve_y(a)
    if c2y is None:
        return None
    y = 0.5 * math.acos(min(1.0, max(-1.0, c2y)))
    return MeridianShape3(a, y + 0.5 * a)


def critical_angle_ac() -> float:
    """Largest spread of the equal-mass scalene family (closed form)."""
    s = math.sqrt(78.0) / 9.0
    cos_ac = -1.0 + 0.5 * ((1.0 + s) ** (1.0 / 3.0) + (1.0 - s) ** (1.0 / 3.0))
    return math.acos(cos_ac)


def critical_angle_ac_bisection() -> float:
    """Independent a_c: where the scalene branch closes onto y = 0.

    The bracket stays inside (pi/2, 1.86), where the branch formula is
    real; beyond 1.87 its radicand is negative.
    """
    return bisect(lambda a: scalene_curve_value(a) - 1.0, 1.7, 1.85)


def g_cyclic(a, x, masses=(1.0, 1.0, 1.0)):
    """General-mass cotangent shape-condition numerator; a and x broadcast.

    Cyclic sum of m_k sin(t_ij)|sin(t_ij)| (sin(t_ki)|sin(t_ki)|
    sin(2 t_ki) - sin(t_jk)|sin(t_jk)| sin(2 t_jk)) over the signed
    separations t_01 = 0 - a, t_12 = a - x, t_20 = x - 0 of the offsets
    (0, a, x).  Each separation's sines are taken once and the three
    terms are summed in cycle order (012, 120, 201), from 0.0.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    m0, m1, m2 = (float(v) for v in masses)
    d01, d12, d20 = 0.0 - a, a - x, x - 0.0
    s01, s12, s20 = np.sin(d01), np.sin(d12), np.sin(d20)
    h01, h12, h20 = s01 * np.abs(s01), s12 * np.abs(s12), s20 * np.abs(s20)
    q01, q12, q20 = h01 * np.sin(2 * d01), h12 * np.sin(2 * d12), h20 * np.sin(2 * d20)
    return 0.0 + m2 * h01 * (q20 - q12) + m0 * h12 * (q01 - q20) + m1 * h20 * (q12 - q01)


@dataclass(frozen=True)
class EreScanHit:
    """One polished zero of the shape condition found by the scanner."""

    a: float
    x: float
    g: float
    solution: EreSolution

    @property
    def min_sin_separation(self) -> float:
        t12, t23, t31 = MeridianShape3(self.a, self.x).separations()
        return float(min(abs(math.sin(t)) for t in (t12, t23, t31)))


def _sign_changes(a_grid: np.ndarray, x_grid: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Where g_cyclic changes sign between neighbouring x nodes: (a_grid.size, x_grid.size - 1).

    The grid is swept in blocks of `_SCAN_BLOCK` rows, so each block
    takes sin(0 - a) once per row and sin(x - 0) once per column.
    """
    change = np.zeros((a_grid.size, max(x_grid.size - 1, 0)), dtype=bool)
    for r in range(0, a_grid.size, _SCAN_BLOCK):
        sign = np.sign(g_cyclic(a_grid[r : r + _SCAN_BLOCK, None], x_grid[None, :], m))
        change[r : r + _SCAN_BLOCK] = sign[:, :-1] * sign[:, 1:] < 0.0
    return change


def ere_scan_table(masses=(1.0, 1.0, 1.0), na: int = 720, nx: int = 720, pot: Potential = COTANGENT) -> dict:
    """Scan the (a, x) rectangle for shape-condition zeros, as a table of columns.

    Rows of fixed a are swept in x, a block of rows at a time, for sign
    changes of the smooth numerator g; all brackets are then bisected to
    1e-12 together and all polished hits are solved together by
    `_solve_rows`.  Hits closer than `SCAN_SINGULAR_CUTOFF` to a
    collision or antipodal pair are dropped (the four excluded corner
    points live there), as are hits whose solve meets a singular pair or
    inconsistent ratios.  The table holds the hits in row-major order:
    the polished zero `a`, `x`, `g` there, and the `_solve_rows` columns
    of its solution.  A hit or solution shape outside the domain of
    `MeridianShape3` is an InternalError.
    """
    if not any(pot is p for p in BUILT_INS.values()):
        raise ValueError("the scanner brackets the cotangent-family numerator g; solve custom potentials point-wise")
    m = _three_masses(masses)
    a_grid = np.linspace(0.0, math.pi, na + 2)[1:-1]
    x_grid = np.linspace(-math.pi, math.pi, nx + 2)[1:-1]
    row, col = np.nonzero(_sign_changes(a_grid, x_grid, m))
    a_b = a_grid[row]
    x0 = bisect_many(lambda x, idx: g_cyclic(a_b[idx], x, m), x_grid[col], x_grid[col + 1], tol=1e-12)
    keep = np.abs(np.sin(_separation_rows(a_b, x0))).min(axis=1) >= SCAN_SINGULAR_CUTOFF
    a_b, x0 = a_b[keep], x0[keep]
    gvals = g_cyclic(a_b, x0, m)
    table, _ = _solve_rows(a_b, x0, m, pot)
    hit = table["row"]
    table.update(a=a_b[hit], x=x0[hit], g=gvals[hit])
    # MeridianShape3's range check, on every hit and solution shape at once
    a_all, x_all = np.concatenate([table["a"], table["shape_a"]]), np.concatenate([table["x"], table["shape_x"]])
    outside = np.flatnonzero(~((0.0 < a_all) & (a_all < math.pi) & (-math.pi < x_all) & (x_all < math.pi)))
    if outside.size:
        k = outside[0]
        raise InternalError(f"scan shape a = {a_all[k]}, x = {x_all[k]} outside 0 < a < pi, -pi < x < pi")
    return table


def ere_scan(masses=(1.0, 1.0, 1.0), na: int = 720, nx: int = 720, pot: Potential = COTANGENT) -> list[EreScanHit]:
    """Scan the (a, x) rectangle for shape-condition zeros.

    `ere_scan_table` with each hit assembled as an EreScanHit, in the
    table's row-major order, so output is deterministic.  Each solution
    equals the one `solve_ere_many` gives for the hit's shape.
    """
    table = ere_scan_table(masses, na, nx, pot)
    sols = _solutions(table, np.asarray(masses, dtype=float), pot)
    return [EreScanHit(*hit) for hit in zip(table["a"].tolist(), table["x"].tolist(), table["g"].tolist(), sols)]
