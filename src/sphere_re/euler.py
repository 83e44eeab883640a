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

from .dynamics import meridian_accelerations, meridian_re_residual, singular_pair_rows
from .errors import (
    DegenerateDiscriminant,
    DegenerateShape,
    ExcludedAngle,
    InconsistentRatios,
    InternalError,
    SingularSeparation,
)
from .geometry import MeridianShape3, wrap_angle, wrap_angles
from .potential import COTANGENT, Potential, _Cotangent
from .roots import bisect, bisect_many, gauss_newton

# A is treated as zero below this multiple of the total mass.
DISCRIMINANT_TOL = 1e-10

# Relative disagreement allowed between the pairwise ratio estimates.
RATIO_TOL = 1e-8

# Hits with min |sin theta_ij| below this are dropped by the scanner:
# they sit inside the excluded collision/antipodal corners where the
# pair force blows up and equilibrium residuals cannot be evaluated
# below ~ eps * omega^2.
SCAN_SINGULAR_CUTOFF = 0.03

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@dataclass(frozen=True)
class MeridianDiagnostics:
    """Discriminant data for a meridian shape."""

    D: float
    A: float

    @property
    def degenerate(self) -> bool:
        return self.A <= 0.0


def _discriminant_rows(a: np.ndarray, x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D and A = sqrt(max(D, 0)) for the shapes (a[k], x[k])."""
    t12, t23, t31 = wrap_angles(-a), wrap_angles(a - x), wrap_angles(x)
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
    mm = m * m[[1, 2, 0]]
    return mm * np.sin(d) * pot.u_prime_meridian(d), mm * np.sin(2.0 * d)


def fg_pair(thetas, masses, pot: Potential = COTANGENT) -> FGPair:
    f, g = _fg_rows(np.asarray(thetas, dtype=float)[None], np.asarray(masses, dtype=float), pot)
    return FGPair(*f[0], *g[0])


def _det_rows(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (g[:, 0] - g[:, 1]) * (f[:, 2] - f[:, 0]) - (g[:, 2] - g[:, 0]) * (f[:, 0] - f[:, 1])


def ere_shape_det(shape: MeridianShape3, masses, pot: Potential = COTANGENT) -> tuple[float, FGPair]:
    """The 2x2 determinant whose zero set is the collinear-RE shapes."""
    diag = discriminant(shape, masses)
    if diag.A <= DISCRIMINANT_TOL * float(np.sum(masses)):
        raise DegenerateDiscriminant(f"A = {diag.A}; the shape condition needs A != 0")
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
    diag = discriminant(shape, masses)
    if diag.A <= DISCRIMINANT_TOL * float(np.sum(m)):
        raise DegenerateDiscriminant(f"A = {diag.A} is numerically zero")
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
        return self.max_residual < 1e-8


def _ratio_error(ratio: np.ndarray, valid: np.ndarray) -> InconsistentRatios:
    ratios = [r for r, v in zip(ratio, valid) if v]
    if not ratios:
        return InconsistentRatios("G differences vanish but F differences do not")
    return InconsistentRatios(f"pair ratios disagree: {ratios}")


def _ratio_rows(f: np.ndarray, g: np.ndarray, det_tol: float = 1e-8):
    """The ratio rule of `ere_omega2` on each row of pair quantities.

    Returns the pairwise estimates dF/dG (B, 3), which of them are
    valid, their mean, and the undetermined, inconsistent and fixed-point
    row masks.
    """
    dgs = g - g[:, [1, 2, 0]]
    dfs = f - f[:, [1, 2, 0]]
    gscale = np.maximum(np.abs(g).max(axis=1), 1e-30)[:, None]
    fscale = np.maximum(np.abs(f).max(axis=1), 1e-30)[:, None]
    undetermined = (np.abs(dgs) < det_tol * gscale).all(axis=1) & (np.abs(dfs) < det_tol * fscale).all(axis=1)
    valid = np.abs(dgs) > det_tol * gscale
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dfs / dgs
        total = 0.0
        for k in range(3):
            total = total + np.where(valid[:, k], ratio[:, k], 0.0)
        mean = total / valid.sum(axis=1)
    spread = np.where(valid, ratio, -np.inf).max(axis=1) - np.where(valid, ratio, np.inf).min(axis=1)
    scale = (fscale / gscale)[:, 0]
    inconsistent = ~undetermined & (~valid.any(axis=1) | (spread > RATIO_TOL * np.maximum(np.abs(mean), scale)))
    fixed = ~undetermined & ~inconsistent & (np.abs(mean) < det_tol * fscale[:, 0] / gscale[:, 0])
    return ratio, valid, mean, undetermined, inconsistent, fixed


def ere_omega2(shape: MeridianShape3, masses, pot: Potential = COTANGENT, det_tol: float = 1e-8):
    """Branch sign and rotation rate from the compact pair equations.

    Returns (s, omega2, fixed_point, undetermined).  The three pairwise
    equations s omega^2 / (2A) (G_ij - G_jk) = F_ij - F_jk share one
    ratio; its sign fixes s, and a zero ratio means a fixed point.  When
    every matrix element vanishes the rate is undetermined.
    """
    diag = discriminant(shape, masses)
    if diag.A <= DISCRIMINANT_TOL * float(np.sum(masses)):
        raise DegenerateDiscriminant("degenerate shape; solve through the equations of motion")
    f, g = fg_pair(shape.theta_offsets(), masses, pot).as_arrays()
    ratio, valid, mean, undetermined, inconsistent, fixed = (v[0] for v in _ratio_rows(f[None], g[None], det_tol))
    if undetermined:
        return None, 0.0, False, True
    if inconsistent:
        raise _ratio_error(ratio, valid)
    if fixed:
        return None, 0.0, True, False
    return (1 if mean > 0.0 else -1), 2.0 * diag.A * abs(mean), False, False


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
        return meridian_re_residual(p[:, :1] + offs, m, p[:, 1:], pot)

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
    p = gauss_newton(residual, np.array([[best[1], best[2]]]))[0]
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


def _singular_pair() -> SingularSeparation:
    return SingularSeparation("pair at or numerically at theta_ij = 0 or pi")


def _residual_rows(th: np.ndarray, m: np.ndarray, omega2: np.ndarray, pot: Potential) -> np.ndarray:
    """meridian_re_residual of each row; a row with a singular pair comes back NaN."""
    res = np.full(th.shape, np.nan)
    ok = ~singular_pair_rows(th)
    if ok.any():
        res[ok] = meridian_re_residual(th[ok], m, omega2[ok, None], pot)
    return res


def solve_ere_many(shapes, masses, pot: Potential = COTANGENT) -> list:
    """Solve many meridian shapes for their collinear relative equilibria.

    Degenerate (A = 0) shapes go through the direct equations-of-motion
    solve; equal-mass cotangent isosceles and equilateral shapes use
    their symmetric normal forms; these run shape by shape.  All other shapes
    are solved together as arrays: the determinant condition, the ratio
    rule for (s, omega^2), the two-branch reconstruction, and a
    Gauss-Newton polish of (theta, omega^2) onto the solution manifold.
    Returns, per shape, its EreSolution or the SingularSeparation or
    InconsistentRatios it raised; any other error propagates.
    """
    m = np.asarray(masses, dtype=float)
    total = float(np.sum(m))
    equal_masses = bool(np.allclose(m, m[0], rtol=0.0, atol=1e-12 * total))
    a = np.array([shape.a for shape in shapes], dtype=float)
    x = np.array([shape.x for shape in shapes], dtype=float)
    big_d, big_a = _discriminant_rows(a, x, m)
    out: list = [None] * len(shapes)
    kinds: dict[int, str] = {}
    for k, shape in enumerate(shapes):
        try:
            if big_a[k] <= DISCRIMINANT_TOL * total:
                out[k] = _solve_degenerate(shape, m, pot)
                continue
            kinds[k], iso = classify_meridian_shape(shape)
            if equal_masses and kinds[k] == "isosceles" and pot is COTANGENT:
                try:
                    cand = _solve_isosceles(shape, m, MeridianDiagnostics(float(big_d[k]), float(big_a[k])), *iso)
                    if cand.max_residual < 1e-8:
                        out[k] = cand
                except ExcludedAngle:
                    pass  # spread at an excluded value; the generic path will report
        except SingularSeparation as exc:
            out[k] = exc

    rows = np.array([k for k in kinds if out[k] is None], dtype=int)
    if rows.size == 0:
        return out
    offs = np.stack([np.zeros(rows.size), a[rows], x[rows]], axis=1)
    singular = singular_pair_rows(offs)
    for k in rows[singular]:
        out[k] = _singular_pair()
    rows, offs = rows[~singular], offs[~singular]
    f, g = _fg_rows(offs, m, pot)
    det = _det_rows(f, g)
    ratio, valid, mean, undetermined, inconsistent, fixed = _ratio_rows(f, g)
    s = np.where(mean > 0.0, 1.0, -1.0)
    omega2 = 2.0 * big_a[rows] * np.abs(mean)
    omega2[fixed | undetermined] = 0.0
    s[fixed | undetermined] = 1.0
    seeded = np.ones(rows.size, dtype=bool)
    for i in np.flatnonzero(inconsistent):
        # the shape is off the solution curve; a least-squares common
        # ratio still seeds the polish, which either lands on the
        # nearby curve point or leaves a residual that flags the shape
        dgs = g[i] - g[i, [1, 2, 0]]
        dfs = f[i] - f[i, [1, 2, 0]]
        common = float(dgs @ dfs / (dgs @ dgs))
        if common == 0.0:
            out[rows[i]] = _ratio_error(ratio[i], valid[i])
            seeded[i] = False
            continue
        s[i], omega2[i] = (1 if common > 0 else -1), 2.0 * big_a[rows[i]] * abs(common)
    rows, s, omega2, det = rows[seeded], s[seeded], omega2[seeded], det[seeded]
    fixed, undetermined = fixed[seeded], undetermined[seeded]
    th = _reconstruct_rows(a[rows], x[rows], m, big_a[rows], s)

    pre_res = _residual_rows(th, m, omega2, pot)
    polish = np.flatnonzero(~fixed & ~undetermined & (np.abs(pre_res).max(axis=1) > 1e-12))
    p = gauss_newton(
        lambda p: _residual_rows(p[:, :3], m, p[:, 3], pot), np.column_stack([th[polish], omega2[polish]])
    )
    moved = np.maximum(
        np.abs(wrap_angles((p[:, 1] - p[:, 0]) - a[rows[polish]])),
        np.abs(wrap_angles((p[:, 2] - p[:, 0]) - x[rows[polish]])),
    )
    # refuse to "solve" a shape by walking to a different one: the
    # polish may only absorb bracketing error, not change the input
    take = moved < 1e-3
    th[polish[take]] = wrap_angles(p[take, :3])
    omega2[polish[take]] = p[take, 3]
    res = _residual_rows(th, m, omega2, pot)
    # a row whose polish or final residual met a singular pair
    singular = np.isnan(pre_res).any(axis=1) | np.isnan(res).any(axis=1)
    singular[polish] |= np.isnan(p).any(axis=1)

    rel = wrap_angles(th[:, 1:] - th[:, :1])
    for i, k in enumerate(rows.tolist()):
        if singular[i]:
            out[k] = _singular_pair()
            continue
        # an undetermined rate keeps the input shape and its unpolished angles
        out[k] = EreSolution(
            shape=shapes[k] if undetermined[i] else MeridianShape3(float(rel[i, 0]), float(rel[i, 1])),
            masses=m,
            thetas=th[i],
            omega2=float(omega2[i]),
            s=None if fixed[i] or undetermined[i] else int(s[i]),
            fixed_point=bool(fixed[i]),
            omega_undetermined=bool(undetermined[i]),
            det=float(det[i]),
            diagnostics=MeridianDiagnostics(float(big_d[k]), float(big_a[k])),
            residuals=res[i],
            family="undetermined-rate" if undetermined[i] else "fixed-point" if fixed[i] else kinds[k],
            potential=pot,
        )
    return out


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
    th = np.array([wrap_angle(t + math.pi / 2.0) for t in sol.thetas])
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


def critical_angle_ac_bisection(tol: float = 1e-12) -> float:
    """Independent a_c: where the scalene branch closes onto y = 0.

    The bracket stays inside (pi/2, 1.86), where the branch formula is
    real; beyond 1.87 its radicand is negative.
    """
    return bisect(lambda a: scalene_curve_value(a) - 1.0, 1.7, 1.85, tol=tol)


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


def ere_scan(
    masses=(1.0, 1.0, 1.0),
    na: int = 720,
    nx: int = 720,
    pot: Potential = COTANGENT,
    singular_cutoff: float = SCAN_SINGULAR_CUTOFF,
) -> list[EreScanHit]:
    """Scan the (a, x) rectangle for shape-condition zeros.

    Rows of fixed a are swept in x for sign changes of the smooth
    numerator g; all brackets are then bisected to 1e-12 together and
    all polished hits are solved together by `solve_ere_many`.  Hits
    closer than `singular_cutoff` to a collision or antipodal pair are
    dropped (the four excluded corner points live there), as are hits
    whose solve meets a singular pair or inconsistent ratios.  Hits come
    in row-major order, so output is deterministic.
    """
    if not isinstance(pot, _Cotangent):
        raise ValueError("the scanner brackets the cotangent-family numerator g; solve custom potentials point-wise")
    m = np.asarray(masses, dtype=float)
    a_grid = np.linspace(0.0, math.pi, na + 2)[1:-1]
    x_grid = np.linspace(-math.pi, math.pi, nx + 2)[1:-1]
    change = np.zeros((na, max(nx - 1, 0)), dtype=bool)
    for r, a in enumerate(a_grid):
        sign = np.sign(g_cyclic(a, x_grid, m))
        change[r] = sign[:-1] * sign[1:] < 0.0
    row, col = np.nonzero(change)
    a_b = a_grid[row]
    x0 = bisect_many(lambda x, idx: g_cyclic(a_b[idx], x, m), x_grid[col], x_grid[col + 1], tol=1e-12)
    gvals = g_cyclic(a_b, x0, m)
    kept = []
    for a, x, gval in zip(a_b.tolist(), x0.tolist(), gvals.tolist()):
        try:
            shape = MeridianShape3(a, x)
        except DegenerateShape:
            continue
        if min(abs(math.sin(t)) for t in shape.separations()) >= singular_cutoff:
            kept.append((shape, gval))
    sols = solve_ere_many([shape for shape, _ in kept], m, pot)
    return [EreScanHit(shape.a, shape.x, gval, sol) for (shape, gval), sol in zip(kept, sols) if isinstance(sol, EreSolution)]
