"""Non-collinear (triangular) relative equilibria.

A shape forms a triangular RE exactly when the shape matrix J has the
specific eigenvector built from the masses and the pair forces.  The
eigenvalue then fixes the polar angles, the fundamental arc relation
fixes the azimuth gaps, and the rotation rate follows in closed form.
Only attractive potentials admit these solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhaseState
from .errors import (
    InternalError,
    NoLreForRepulsive,
    ReconstructionOutOfRange,
    SingularSeparation,
)
from .geometry import Shape3, clamped_arccos, wrap_angle
from .inertia import shape_matrix
from .potential import COTANGENT, Potential
from .roots import bisect, bracket_roots, gauss_newton

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _u_primes_opposite(shape: Shape3, pot: Potential) -> np.ndarray:
    """U' on the side opposite each body: (U'_23, U'_31, U'_12)."""
    s = shape.as_array()
    return np.array([pot.u_prime(math.cos(s[1])), pot.u_prime(math.cos(s[2])), pot.u_prime(math.cos(s[0]))])


def lre_eigvec_target(shape: Shape3, masses, pot: Potential = COTANGENT) -> np.ndarray:
    """The rotation-axis eigenvector a triangular RE requires of J.

    Proportional to (sqrt(m_k) / U'(opposite side)); entries are all
    positive, which is why repulsive forces admit no such solution.
    """
    if not pot.attractive:
        raise NoLreForRepulsive("triangular RE require U' > 0")
    m = np.asarray(masses, dtype=float)
    u = _u_primes_opposite(shape, pot)
    v = np.sqrt(m) / u
    return v / np.linalg.norm(v)


def lre_condition_residual(shape: Shape3, masses, pot: Potential = COTANGENT) -> np.ndarray:
    """Residual J psi - (psi^T J psi) psi; zero exactly on LRE shapes."""
    psi = lre_eigvec_target(shape, masses, pot)
    J = shape_matrix(shape, masses)
    lam = float(psi @ J @ psi)
    return J @ psi - lam * psi


def lre_omega2(shape: Shape3, masses, pot: Potential = COTANGENT) -> float:
    """Squared rotation rate of the triangular RE with this shape.

    omega^2 = U'_12 U'_23 U'_31 * sum_k m_k / U'(opposite k)^2.  The
    exponent on the sum is 1: substituting cos(theta_k) proportional to
    1/U'(opposite) into the equilibrium ratio equations makes the
    normalization cancel, and only this form reproduces the rate that
    the reconstructed configuration actually rotates with.
    """
    if not pot.attractive:
        raise NoLreForRepulsive("triangular RE require U' > 0")
    m = np.asarray(masses, dtype=float)
    u = _u_primes_opposite(shape, pot)
    return float(np.prod(u) * np.sum(m / u**2))


@dataclass(frozen=True)
class LreCandidate:
    """A reconstructed triangular RE.

    The canonical orientation puts every body on the northern hemisphere
    (cos theta_k > 0) with the cyclic azimuth gaps all of negative sine;
    the other three copies come from flipping either choice.
    """

    shape: Shape3
    masses: np.ndarray
    psi: np.ndarray
    lam: float
    cos_thetas: np.ndarray
    phi_diffs: np.ndarray  # (phi1-phi2, phi2-phi3, phi3-phi1)
    omega2: float
    north: bool
    negative_dphi: bool
    potential_name: str = "cotangent"

    @property
    def thetas(self) -> np.ndarray:
        return np.arccos(self.cos_thetas)

    def phis(self, phi1: float = 0.0) -> np.ndarray:
        d12, d23, _ = self.phi_diffs
        return np.array([phi1, phi1 - d12, phi1 - d12 - d23])

    @property
    def omega(self) -> float:
        return math.sqrt(self.omega2)

    def state(self, phi1: float = 0.0) -> PhaseState:
        """Rigid-rotation phase state of the candidate."""
        return PhaseState.rigid_rotation(self.thetas, self.phis(phi1), self.omega)


def lre_reconstruct(
    shape: Shape3,
    masses,
    pot: Potential = COTANGENT,
    north: bool = True,
    negative_dphi: bool = True,
    residual_tol: float = 1e-8,
) -> LreCandidate:
    """Configuration, azimuth gaps, and rate from an LRE shape.

    The shape must satisfy the eigenvector condition to `residual_tol`.
    cos(theta_k) = sqrt(M - lambda) psi_k / sqrt(m_k) with
    lambda = psi^T J psi; azimuth gaps come from the arc relation with
    a common sign for all three sines.  A triangular RE never has
    omega = 0, and that is asserted rather than assumed.
    """
    m = np.asarray(masses, dtype=float)
    res = lre_condition_residual(shape, m, pot)
    if float(np.max(np.abs(res))) > residual_tol:
        raise ReconstructionOutOfRange(
            f"shape is not an LRE: eigenvector residual {np.max(np.abs(res)):.3e} exceeds {residual_tol:g}"
        )
    psi = lre_eigvec_target(shape, m, pot)
    J = shape_matrix(shape, m)
    lam = float(psi @ J @ psi)
    total = float(np.sum(m))
    if lam > total + 1e-10:
        raise ReconstructionOutOfRange(f"lambda = {lam} exceeds the total mass")
    ct = math.sqrt(max(total - lam, 0.0)) * psi / np.sqrt(m)
    if np.any(ct <= 0.0) or np.any(ct > 1.0 + 1e-12):
        raise ReconstructionOutOfRange(f"cos(theta) = {ct} not in (0, 1]")
    ct = np.minimum(ct, 1.0)
    st = np.sqrt(1.0 - ct**2)
    if np.any(st == 0.0):
        raise ReconstructionOutOfRange("a body landed on the pole; not a triangular RE")

    sig = shape.as_array()
    gaps = np.empty(3)
    for idx, (i, j, _) in enumerate(_CYCLIC):
        c = (math.cos(sig[idx]) - ct[i] * ct[j]) / (st[i] * st[j])
        if abs(c) > 1.0 + 1e-10:
            raise ReconstructionOutOfRange(f"cos(phi_{i+1}{j+1}) = {c} outside [-1, 1]")
        gap = clamped_arccos(c)
        gaps[idx] = -gap if negative_dphi else gap

    wrapped = wrap_angle(float(np.sum(gaps)))
    if abs(wrapped) > 1e-8:
        raise InternalError(f"azimuth gaps sum to {wrapped} mod 2 pi")

    om2 = lre_omega2(shape, m, pot)
    if om2 <= 0.0:
        raise InternalError("triangular RE cannot be a fixed point, yet omega^2 <= 0")
    if not north:
        ct = -ct
    return LreCandidate(shape, m, psi, lam, ct, gaps, om2, north, negative_dphi, pot.name)


def polish_lre_shape(shape: Shape3, masses, pot: Potential = COTANGENT) -> Shape3:
    """Nearest shape satisfying the eigenvector condition.

    Gauss-Newton walks the three arc angles onto the condition manifold;
    useful for shapes quoted to a few decimals.
    """
    m = np.asarray(masses, dtype=float)

    def residual(p):
        try:
            return lre_condition_residual(Shape3(*np.clip(p, 1e-6, math.pi - 1e-6)), m, pot)
        except SingularSeparation:
            return np.full(3, 1e6)

    p = gauss_newton(lambda ps: np.array([residual(q) for q in ps]), shape.as_array()[None])[0]
    return Shape3(*np.clip(p, 1e-6, math.pi - 1e-6))


def reconstruction_omega2(cand: LreCandidate, pot: Potential = COTANGENT) -> float:
    """Rate recomputed from the reconstructed angles (consistency route).

    omega^2 = U'(cos sigma_ij) sum_k m_k cos^2(theta_k) /
    (cos theta_i cos theta_j), evaluated on the first pair.
    """
    ct = cand.cos_thetas
    u12 = pot.u_prime(math.cos(cand.shape.sigma12))
    return float(u12 * np.sum(cand.masses * ct**2) / (ct[0] * ct[1]))


def equal_mass_lre_residuals(shape: Shape3) -> np.ndarray:
    """Pairwise differences of the equal-mass cotangent LRE condition.

    Each cyclic index gives r_k = (cos sigma_jk sin^3 sigma_ki +
    sin^3 sigma_jk cos sigma_ki) / sin^3 sigma_ij; the three agree (all
    equal to 2 - lambda/m) exactly on LRE shapes.  Returns the cyclic
    differences (r_1 - r_2, r_2 - r_3, r_3 - r_1).
    """
    sig = shape.as_array()
    if np.any(np.sin(sig) < 1e-12):
        raise SingularSeparation("degenerate side in the LRE condition")
    r = np.empty(3)
    for idx, (i, j, k) in enumerate(_CYCLIC):
        sjk = sig[(idx + 1) % 3]
        ski = sig[(idx + 2) % 3]
        sij = sig[idx]
        r[idx] = (math.cos(sjk) * math.sin(ski) ** 3 + math.sin(sjk) ** 3 * math.cos(ski)) / math.sin(sij) ** 3
    return np.array([r[0] - r[1], r[1] - r[2], r[2] - r[0]])


def isosceles_lre_q(sigma: float, sigma12: float) -> float:
    """Equal-mass isosceles reduction q(sigma, sigma12).

    With sigma = sigma23 = sigma31, the three-way condition collapses to
    q = cos(sigma) (2 sin^6 sigma - sin^6 sigma12)
        - sin^3 sigma cos(sigma12) sin^3 sigma12; roots are candidate
    isosceles LRE.  q(s, s) = 0 identically (the equilateral line).
    """
    ss, s12 = math.sin(sigma), math.sin(sigma12)
    return math.cos(sigma) * (2.0 * ss**6 - s12**6) - ss**3 * math.cos(sigma12) * s12**3


def triangle_sigma_bounds(sigma12: float) -> tuple[float, float]:
    """Realizable isosceles range: sigma12 < 2 sigma < 2 pi - sigma12."""
    return 0.5 * sigma12, math.pi - 0.5 * sigma12


def isosceles_lre_roots(sigma12: float, n_grid: int = 2000, polish: bool = True) -> list[float]:
    """All realizable roots of q(., sigma12), bisected then polished.

    The equilateral root sigma = sigma12 is always present; polishing
    drives each root to the eigenvector condition at the 1e-12 level.
    """
    lo, hi = triangle_sigma_bounds(sigma12)
    lo = max(lo, 1e-6)
    hi = min(hi, math.pi - 1e-6)
    grid = np.linspace(lo, hi, n_grid)
    qv = np.vectorize(lambda s: isosceles_lre_q(s, sigma12))
    roots = []
    for a, b in bracket_roots(qv, grid):
        r = a if a == b else bisect(lambda s: isosceles_lre_q(s, sigma12), a, b, tol=1e-14)
        roots.append(r)
    # the equilateral line q(s, s) = 0 may be missed by sign scanning
    # (the zero can be tangential), so it is added explicitly
    if lo < sigma12 < hi and not any(abs(r - sigma12) < 1e-6 for r in roots):
        roots.append(sigma12)
    if polish:
        roots = [_polish_iso_root(r, sigma12) for r in roots]
    roots = sorted(roots)
    dedup = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-8:
            dedup.append(r)
    return dedup


def _polish_iso_root(sigma: float, sigma12: float) -> float:
    """Newton steps on q in sigma, guarded to stay near the start."""
    s = sigma
    for _ in range(40):
        f = isosceles_lre_q(s, sigma12)
        h = 1e-7
        d = (isosceles_lre_q(s + h, sigma12) - isosceles_lre_q(s - h, sigma12)) / (2 * h)
        if d == 0.0:
            break
        step = f / d
        if abs(step) > 0.05:
            break
        s -= step
        if abs(step) < 1e-15:
            break
    return s


@dataclass(frozen=True)
class IsoscelesLrePoint:
    sigma12: float
    sigma: float
    omega2: float
    lam: float
    equilateral: bool


def isosceles_lre_scan(sigma12_grid) -> list[IsoscelesLrePoint]:
    """Root curve of q over a grid of base angles.

    Each point is realizability-filtered and carries the closed-form
    rate and eigenvalue.  The zero set is point-symmetric through
    (pi/2, pi/2): (sigma, sigma12) -> (pi - sigma, pi - sigma12).
    """
    out = []
    for s12 in np.asarray(sigma12_grid, dtype=float):
        if not 0.0 < s12 < math.pi:
            continue
        for r in isosceles_lre_roots(float(s12)):
            shape = Shape3(float(s12), r, r)
            if not shape.is_realizable:
                continue
            om2 = lre_omega2(shape, np.ones(3))
            psi = lre_eigvec_target(shape, np.ones(3))
            lam = float(psi @ shape_matrix(shape, np.ones(3)) @ psi)
            out.append(IsoscelesLrePoint(float(s12), r, om2, lam, abs(r - s12) < 1e-9))
    return out


@dataclass(frozen=True)
class ScaleneSearchReport:
    """Outcome of the numerical search for scalene equal-mass LRE.

    `min_residual_off_loci` is the smallest condition residual found at
    scalene shapes at least `margin` away from the isosceles loci.  A
    large floor is evidence against scalene solutions, not a proof; the
    `conclusive` field is always False to make that explicit.
    """

    grid_points: int
    margin: float
    min_residual_off_loci: float
    argmin: tuple[float, float, float]
    polished_minima_on_loci: bool
    conclusive: bool = False


def _scalene_margin(sig: np.ndarray) -> np.ndarray:
    d1 = np.abs(sig[..., 0] - sig[..., 1])
    d2 = np.abs(sig[..., 1] - sig[..., 2])
    d3 = np.abs(sig[..., 2] - sig[..., 0])
    return np.minimum(np.minimum(d1, d2), d3)


def equal_mass_residual_grid(s1, s2, s3) -> np.ndarray:
    """Vectorized max-abs residual of the equal-mass condition.

    Same three cyclic quantities as equal_mass_lre_residuals, evaluated
    on broadcast arrays; used by the grid sweep.
    """
    sins = [np.sin(s) for s in (s1, s2, s3)]
    coss = [np.cos(s) for s in (s1, s2, s3)]
    r = []
    for idx in range(3):
        j, k = (idx + 1) % 3, (idx + 2) % 3
        r.append((coss[j] * sins[k] ** 3 + sins[j] ** 3 * coss[k]) / sins[idx] ** 3)
    return np.maximum(np.maximum(np.abs(r[0] - r[1]), np.abs(r[1] - r[2])), np.abs(r[2] - r[0]))


def scalene_lre_search(n: int = 60, margin: float = 0.05, polish_top: int = 12) -> ScaleneSearchReport:
    """Grid-plus-polish sweep of the realizable scalene region.

    Scans sigma1 < sigma2 < sigma3 (one representative per permutation
    class), records the smallest condition residual among shapes with
    scalene margin above `margin`, and pushes the best few through
    Gauss-Newton to see where unconstrained minimization lands.  Every
    polished minimum collapsing onto an isosceles locus supports the
    conjecture that no scalene solutions exist.
    """
    grid = np.linspace(0.05, math.pi - 0.05, n)
    S2, S3 = np.meshgrid(grid, grid, indexing="ij")
    count = 0
    candidates: list[tuple[float, tuple[float, float, float]]] = []
    # one s1 slice at a time keeps memory flat for large n
    for s1 in grid:
        ordered = (s1 < S2) & (S2 < S3)
        realizable = (S3 < s1 + S2) & (s1 + S2 + S3 < 2.0 * math.pi)
        keep = ordered & realizable
        count += int(np.count_nonzero(keep))
        mask = keep & (np.minimum(np.minimum(S2 - s1, S3 - S2), np.abs(S3 - s1)) > margin)
        if not np.any(mask):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            res = equal_mass_residual_grid(s1, S2, S3)
        res = np.where(mask, res, np.inf)
        flat = np.argsort(res, axis=None)[: max(polish_top, 1)]
        for f in flat:
            i, j = np.unravel_index(f, res.shape)
            if np.isfinite(res[i, j]):
                candidates.append((float(res[i, j]), (float(s1), float(S2[i, j]), float(S3[i, j]))))
    if not candidates:
        raise ValueError("grid too coarse: no scalene points above the margin")
    candidates.sort(key=lambda t: t[0])
    best = candidates[0]

    on_loci = True
    for _, start in candidates[:polish_top]:

        def residual(p):
            try:
                return lre_condition_residual(Shape3(*np.clip(p, 1e-3, math.pi - 1e-3)), np.ones(3))
            except Exception:
                return np.full(3, 1e3)

        p = gauss_newton(lambda ps: np.array([residual(q) for q in ps]), np.array([start]), max_iter=60)[0]
        final = np.clip(p, 1e-3, math.pi - 1e-3)
        res = float(np.max(np.abs(residual(p))))
        if res < 1e-10 and float(_scalene_margin(final)) > margin:
            # a genuine scalene zero would be a counterexample
            on_loci = False
    return ScaleneSearchReport(count, margin, best[0], best[1], on_loci)


def no_fixed_point_lre_check(shape: Shape3, masses, pot: Potential = COTANGENT) -> bool:
    """Assert the solved candidate rotates; omega = 0 is impossible here."""
    return lre_omega2(shape, masses, pot) > 0.0
