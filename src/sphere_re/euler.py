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

from .dynamics import meridian_accelerations, meridian_re_residual
from .errors import (
    DegenerateDiscriminant,
    DegenerateShape,
    ExcludedAngle,
    InconsistentRatios,
    InternalError,
    SingularSeparation,
)
from .geometry import MeridianShape3, wrap_angle
from .potential import COTANGENT, NEGATED_COTANGENT, Potential
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
    potential_name: str = "cotangent"

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    @property
    def is_ere(self) -> bool:
        return self.max_residual < 1e-8


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


def isosceles_ere_classify(theta: float, pot: Potential = COTANGENT) -> IsoscelesEre:
    """Place the middle body and fix the rate for an isosceles spread.

    theta is the common signed spread between the middle body and each
    outer body, in (0, pi).  Below 2 pi/3 the middle body must sit at a
    pole with rate +f(theta) (theta = pi/2 excluded: the outer pair
    becomes antipodal); at exactly 2 pi/3 the shape is the equilateral
    fixed point with arbitrary middle placement; above it the middle
    body rides the equator with rate -f(theta).
    """
    if pot.name != "cotangent":
        raise ValueError("the isosceles classification is specific to the cotangent potential")
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


def _solve_isosceles(shape: MeridianShape3, masses, pot: Potential, middle: int, w: float):
    """Canonical symmetric solution for an (approximately) isosceles hit."""
    i, j = (middle + 1) % 3, (middle + 2) % 3
    spread = abs(w)
    cand = isosceles_ere_classify(spread, pot)
    base = 0.0 if cand.family != "equator-middle" else math.pi / 2.0
    # unwrapped symmetric placement: pair differences are then exact
    th = np.empty(3)
    th[middle] = base
    th[i] = base - w
    th[j] = base + w
    res = meridian_re_residual(th, masses, cand.omega2, pot)
    diag = discriminant(shape, masses)
    return EreSolution(
        shape=shape,
        masses=np.asarray(masses, dtype=float),
        thetas=th,
        omega2=cand.omega2,
        s=None,
        fixed_point=cand.family == "fixed-point",
        omega_undetermined=False,
        det=None,
        diagnostics=diag,
        residuals=res,
        family=f"isosceles-{cand.family}",
        potential_name=pot.name,
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
        potential_name=pot.name,
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
    if equal_masses and kind == "isosceles" and pot.name == "cotangent":
        try:
            cand = _solve_isosceles(shape, m, pot, iso[0], iso[1])
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
        return EreSolution(shape, m, th, 0.0, s, False, True, det, diag, res, "undetermined-rate", pot.name)

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
        potential_name=pot.name,
    )


def repulsive_mirror(sol: EreSolution) -> EreSolution:
    """The same shape as an RE of the sign-flipped potential.

    All bodies shift by pi/2 and the branch sign flips; a fixed point is
    returned unchanged.  Applying the mirror twice recovers the original
    configuration modulo pi.
    """
    if sol.fixed_point:
        return sol
    mirrored_pot = NEGATED_COTANGENT if sol.potential_name == "cotangent" else COTANGENT
    th = np.array([wrap_angle(t + math.pi / 2.0) for t in sol.thetas])
    res = meridian_re_residual(th, sol.masses, sol.omega2, mirrored_pot)
    return replace(
        sol,
        thetas=th,
        s=None if sol.s is None else -sol.s,
        residuals=res,
        potential_name=mirrored_pot.name,
    )


def scalene_curve_y(a: float) -> Optional[float]:
    """cos(2y) on the equal-mass scalene branch, or None off the branch.

    The branch lives in the wedge |y| < a/2 and exists for
    pi/2 < a < a_c only; outside the wedge the quadratic root is
    spurious (its shape does not satisfy the determinant condition), so
    it is rejected here.  Returns the cos(2y) value (not y).
    """
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
    solve: bool = True,
) -> list[EreScanHit]:
    """Scan the (a, x) rectangle for shape-condition zeros.

    Rows of fixed a are swept in x for sign changes of the smooth
    numerator g; all brackets are then bisected to 1e-12 together and
    each polished hit is solved.  Hits closer than `singular_cutoff` to
    a collision or antipodal pair are dropped (the four excluded corner
    points live there).  Hits come in row-major order, so output is
    deterministic.
    """
    if pot.name not in ("cotangent", "negated-cotangent"):
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
    hits: list[EreScanHit] = []
    for a, x, gval in zip(a_b.tolist(), x0.tolist(), gvals.tolist()):
        try:
            shape = MeridianShape3(a, x)
        except DegenerateShape:
            continue
        if min(abs(math.sin(t)) for t in shape.separations()) < singular_cutoff:
            continue
        if not solve:
            hits.append(EreScanHit(a, x, gval, None))
            continue
        try:
            sol = solve_ere(shape, m, pot)
        except (SingularSeparation, InconsistentRatios):
            continue
        hits.append(EreScanHit(a, x, gval, sol))
    return hits
