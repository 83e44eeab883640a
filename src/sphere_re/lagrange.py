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
from functools import partial

import numpy as np

from .dynamics import PhaseState, _three_masses
from .errors import (
    InternalError,
    NoLreForRepulsive,
    ReconstructionOutOfRange,
    SingularSeparation,
)
from .geometry import Shape3, clamped_arccos, wrap_angle
from .inertia import AxisCandidate, cos_theta_from_eigenpair, shape_matrix
from .potential import COTANGENT, SINGULAR_SIN2, Potential
# perfbench/tracing.py patches bisect and gauss_newton by this module's names
from .roots import _row_norms, bisect, gauss_newton, poly_roots  # noqa: F401

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# An LRE shape satisfies the eigenvector condition to this.
LRE_RESIDUAL_TOL = 1e-8

# The scalene search polishes this many of its best grid points.
SCALENE_POLISH_TOP = 12


def _lre_rows(sig: np.ndarray, masses, pot: Potential):
    """The triangular RE condition on arcs (sigma12, sigma23, sigma31), one shape per row of (B, 3).

    Per row: psi, the unit vector along sqrt(m_k) / U'(side opposite k),
    all positive, which is why repulsive forces admit no such solution;
    lambda = psi^T J psi; the residual J psi - lambda psi, zero exactly
    on LRE shapes; omega^2 = U'_12 U'_23 U'_31 * sum_k m_k / U'(opposite
    k)^2; and a mask of the rows with a side at or numerically at 0 or
    pi, whose U' is taken at a quarter turn to keep every value finite.

    The exponent on the sum is 1: substituting cos(theta_k) proportional to
    1/U'(opposite) into the equilibrium ratio equations makes the
    normalization cancel, and only this form reproduces the rate that
    the reconstructed configuration actually rotates with.
    """
    if not pot.attractive:
        raise NoLreForRepulsive("triangular RE require U' > 0")
    m = _three_masses(masses)
    c = np.cos(sig)
    singular = ~(1.0 - c * c >= SINGULAR_SIN2)
    # U' on the side opposite each body: (U'_23, U'_31, U'_12)
    u = pot.u_prime_array(np.where(singular, 0.0, c)[:, [1, 2, 0]])
    v = np.sqrt(m) / u
    psi = v / _row_norms(v)[:, None]
    J = shape_matrix(sig, m)
    lam = ((psi[:, None, :] @ J) @ psi[:, :, None])[:, 0, 0]
    res = (J @ psi[:, :, None])[:, :, 0] - lam[:, None] * psi
    om2 = np.prod(u, axis=1) * np.sum(m / u**2, axis=1)
    return psi, lam, res, om2, singular.any(axis=1)


def _lre_row(shape: Shape3, masses, pot: Potential) -> tuple[np.ndarray, float, np.ndarray, float]:
    """psi, lambda, the residual and omega^2 of one shape: `_lre_rows` on a batch of one."""
    psi, lam, res, om2, singular = _lre_rows(shape.as_array()[None], masses, pot)
    if singular[0]:
        Potential._check(np.cos(shape.as_array()))  # raises the pair guard's SingularSeparation
    return psi[0], float(lam[0]), res[0], float(om2[0])


def _clipped_residual(ps: np.ndarray, idx, masses, pot: Potential, edge: float) -> np.ndarray:
    """The condition residual of rows of arcs clipped to [edge, pi - edge], idx unused; edge >= 1e-6 flags no row."""
    return _lre_rows(np.clip(ps, edge, math.pi - edge), masses, pot)[2]


def lre_eigvec_target(shape: Shape3, masses, pot: Potential = COTANGENT) -> np.ndarray:
    """The rotation-axis eigenvector a triangular RE requires of J (see `_lre_rows`)."""
    return _lre_row(shape, masses, pot)[0]


def lre_condition_residual(shape: Shape3, masses, pot: Potential = COTANGENT) -> np.ndarray:
    """Residual J psi - (psi^T J psi) psi; zero exactly on LRE shapes."""
    return _lre_row(shape, masses, pot)[2]


def lre_omega2(shape: Shape3, masses, pot: Potential = COTANGENT) -> float:
    """Squared rotation rate of the triangular RE with this shape (closed form in `_lre_rows`)."""
    return _lre_row(shape, masses, pot)[3]


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
    potential: Potential = COTANGENT

    @property
    def thetas(self) -> np.ndarray:
        return np.arccos(self.cos_thetas)

    def phis(self) -> np.ndarray:
        d12, d23, _ = self.phi_diffs
        return np.array([0.0, -d12, -d12 - d23])

    @property
    def omega(self) -> float:
        return math.sqrt(self.omega2)

    def state(self) -> PhaseState:
        """Rigid-rotation phase state of the candidate."""
        return PhaseState.rigid_rotation(self.thetas, self.phis(), self.omega)


def lre_reconstruct(
    shape: Shape3,
    masses,
    pot: Potential = COTANGENT,
    north: bool = True,
    negative_dphi: bool = True,
) -> LreCandidate:
    """Configuration, azimuth gaps, and rate from an LRE shape.

    The shape must satisfy the eigenvector condition to `LRE_RESIDUAL_TOL`.
    The polar angles come from the eigenpair (lambda = psi^T J psi, psi)
    by `cos_theta_from_eigenpair`; azimuth gaps come from the arc relation with
    a common sign for all three sines.  A triangular RE never has
    omega = 0, and that is asserted rather than assumed.
    """
    m = np.asarray(masses, dtype=float)
    psi, lam, res, om2 = _lre_row(shape, m, pot)
    if not float(np.max(np.abs(res))) <= LRE_RESIDUAL_TOL:  # a NaN residual fails too
        raise ReconstructionOutOfRange(
            f"shape is not an LRE: eigenvector residual {np.max(np.abs(res)):.3e} exceeds {LRE_RESIDUAL_TOL:g}"
        )
    ct = cos_theta_from_eigenpair(AxisCandidate(lam, psi, False), m)
    if np.any(ct <= 0.0):
        raise ReconstructionOutOfRange(f"cos(theta) = {ct} not in (0, 1]")
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

    if om2 <= 0.0:
        raise InternalError("triangular RE cannot be a fixed point, yet omega^2 <= 0")
    if not north:
        ct = -ct
    return LreCandidate(shape, m, psi, lam, ct, gaps, om2, north, negative_dphi, pot)


def polish_lre_shape(shape: Shape3, masses, pot: Potential = COTANGENT) -> Shape3:
    """Nearest shape satisfying the eigenvector condition.

    Gauss-Newton walks the three arc angles onto the condition manifold;
    useful for shapes quoted to a few decimals.  A walk that moves an arc
    by 1e-3 (the meridian polish's bound) or more raises ReconstructionOutOfRange.
    """
    residual = partial(_clipped_residual, masses=masses, pot=pot, edge=1e-6)
    p = np.clip(gauss_newton(residual, shape.as_array()[None])[0], 1e-6, math.pi - 1e-6)
    moved = float(np.max(np.abs(p - shape.as_array())))
    if not moved < 1e-3:  # a NaN walk fails too
        raise ReconstructionOutOfRange(f"polishing the shape onto the LRE condition moved an arc by {moved:.3g}")
    return Shape3(*p)


def reconstruction_omega2(cand: LreCandidate) -> float:
    """Rate recomputed from the reconstructed angles (consistency route).

    omega^2 = U'(cos sigma_ij) sum_k m_k cos^2(theta_k) /
    (cos theta_i cos theta_j), evaluated on the first pair.
    """
    ct = cand.cos_thetas
    u12 = cand.potential.u_prime(math.cos(cand.shape.sigma12))
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
    return np.concatenate(_equal_mass_differences(*sig[:, None]))


def _equal_mass_differences(s1, s2, s3) -> list:
    """(r_1 - r_2, r_2 - r_3, r_3 - r_1) of `equal_mass_lre_residuals` on broadcast arrays."""
    sins = [np.sin(s) for s in (s1, s2, s3)]
    coss = [np.cos(s) for s in (s1, s2, s3)]
    r = [(coss[j] * sins[k] ** 3 + sins[j] ** 3 * coss[k]) / sins[i] ** 3 for i, j, k in _CYCLIC]
    return [r[0] - r[1], r[1] - r[2], r[2] - r[0]]


def isosceles_lre_q(sigma, sigma12):
    """Equal-mass isosceles reduction q(sigma, sigma12), on broadcast arrays.

    With sigma = sigma23 = sigma31, the three-way condition collapses to
    q = cos(sigma) (2 sin^6 sigma - sin^6 sigma12)
        - sin^3 sigma cos(sigma12) sin^3 sigma12; roots are candidate
    isosceles LRE.  q(s, s) = 0 identically (the equilateral line).
    The powers use np.float_power, which rounds like the C pow behind
    `**` on one float; np.power on an array does not.
    """
    ss, s12 = np.sin(sigma), np.sin(sigma12)
    pw = np.float_power
    return np.cos(sigma) * (2.0 * pw(ss, 6) - pw(s12, 6)) - pw(ss, 3) * np.cos(sigma12) * pw(s12, 3)


def isosceles_lre_roots(sigma12: float) -> list[float]:
    """All realizable roots of q(., sigma12): `_isosceles_lre_roots_many` on a batch of one."""
    return _isosceles_lre_roots_many(np.array([sigma12], dtype=float))[1].tolist()


# (1 + t^2)^7 q(sigma, s) at t = tan(sigma / 2) is [1, sin^6 s, cos s sin^3 s] times the coefficients,
# t^0 ... t^14, of 128 t^6 (1 - t^2), -(1 - t^2)(1 + t^2)^6 and -8 t^3 (1 + t^2)^4
_ISO_Q_TABLE = np.array([[0, 0, 0, 0, 0, 0, 128, 0, -128, 0, 0, 0, 0, 0, 0],
                         [-1, 0, -5, 0, -9, 0, -5, 0, 5, 0, 9, 0, 5, 0, 1],
                         [0, 0, 0, -8, 0, -32, 0, -48, 0, -32, 0, -8, 0, 0, 0]], dtype=float)


def _isosceles_lre_roots_many(sigma12: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots of q(., s) for every base angle s in [1e-6, pi - 1e-6], found in one array pass.

    Returns (row, root): the index of each root's base angle and the root,
    sorted by row and then by value.  Any other base angle raises
    ValueError: below about 6.6e-9 the companion matrices lose or misplace
    roots, and at 0, pi and NaN eigvals fails.

    `poly_roots` takes every root sigma in (0, pi) as t = tan(sigma / 2) of
    the row polynomial of `_ISO_Q_TABLE` at min(s, pi - s), whose leading
    sin^6 s vanishes as s -> pi; q(pi - sigma, pi - s) = -q(sigma, s) maps
    the roots back.  Newton steps on the closed-form q' polish them, up to
    40 and until every step is below 1e-15 (a step above 0.05, or one that
    divides by q' = 0, is not taken); each root ends on the double of least
    |q| within 2 ulps, ties to the Newton root.  The range ends count: a root is kept
    on the closed range [s/2, pi - s/2], where the bodies lie on one great
    circle (at s = 2 pi/3, the equilateral root).  A root within 1e-8 of the
    previous root in its row merges into it.
    """
    outside = ~((1e-6 <= sigma12) & (sigma12 <= math.pi - 1e-6))
    if outside.any():
        raise ValueError(f"base angle sigma12 must lie in [1e-06, pi - 1e-06]; got {float(sigma12[outside][0])!r}")
    flip = sigma12 > 0.5 * math.pi
    a = np.where(flip, math.pi - sigma12, sigma12)
    coef = np.stack([np.ones_like(a), np.sin(a) ** 6, np.cos(a) * np.sin(a) ** 3], axis=1) @ _ISO_Q_TABLE
    row, t = poly_roots(coef, np.zeros_like(a), np.full_like(a, np.inf))
    s12, s = sigma12[row], np.where(flip[row], math.pi - 2.0 * np.arctan(t), 2.0 * np.arctan(t))
    s6, cs3 = np.sin(s12) ** 6, np.cos(s12) * np.sin(s12) ** 3
    for _ in range(40):
        sx, cx = np.sin(s), np.cos(s)
        q_prime = 12.0 * cx * cx * sx**5 - sx * (2.0 * sx**6 - s6) - 3.0 * sx * sx * cx * cs3
        step = np.divide(isosceles_lre_q(s, s12), q_prime, out=np.full_like(s, np.inf), where=q_prime != 0.0)
        s = np.where(np.abs(step) <= 0.05, s - step, s)
        if not np.any((1e-15 <= np.abs(step)) & (np.abs(step) <= 0.05)):
            break
    near = s + np.array([0, -1, 1, -2, 2])[:, None] * np.spacing(s)
    s = near[np.argmin(np.abs(isosceles_lre_q(near, s12)), axis=0), np.arange(s.size)]
    keep = (0.5 * s12 <= s) & (s <= math.pi - 0.5 * s12)
    order = np.lexsort((s, row))
    order = order[keep[order]]
    row, root = row[order], s[order]
    apart = (np.diff(row, prepend=-1) != 0) | (np.diff(root, prepend=-np.inf) > 1e-8)
    return row[apart], root[apart]


def isosceles_lre_scan(sigma12_grid) -> dict[str, np.ndarray]:
    """Root curve of q over a grid of base angles, as the `lre-scan` columns.

    Every root of every base angle, in grid order and then by value:
    `sigma12`, `sigma`, the closed-form `omega2` and eigenvalue `lambda`
    at unit masses, and `equilateral` (sigma within 1e-9 of sigma12).  The
    closed range keeps every side at least 5e-7 from 0 and pi, so no row
    is singular.  The zero set is point-symmetric through (pi/2, pi/2):
    (sigma, sigma12) -> (pi - sigma, pi - sigma12).
    """
    s12 = np.asarray(sigma12_grid, dtype=float).ravel()
    row, sigma = _isosceles_lre_roots_many(s12)
    base = s12[row]
    _, lam, _, om2, _ = _lre_rows(np.stack([base, sigma, sigma], axis=1), np.ones(3), COTANGENT)
    return {"sigma12": base, "sigma": sigma, "omega2": om2, "lambda": lam, "equilateral": np.abs(sigma - base) < 1e-9}


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

    The largest of the three differences of equal_mass_lre_residuals,
    evaluated on broadcast arrays; used by the grid sweep.
    """
    d = _equal_mass_differences(s1, s2, s3)
    return np.maximum(np.maximum(np.abs(d[0]), np.abs(d[1])), np.abs(d[2]))


def scalene_lre_search(n: int = 60, margin: float = 0.05) -> ScaleneSearchReport:
    """Grid-plus-polish sweep of the realizable scalene region.

    Scans sigma1 < sigma2 < sigma3 (one representative per permutation
    class), records the smallest condition residual among shapes with
    scalene margin above `margin`, and pushes the best
    `SCALENE_POLISH_TOP` through Gauss-Newton to see where unconstrained
    minimization lands.  Every polished minimum collapsing onto an
    isosceles locus supports the conjecture that no scalene solutions
    exist.  `margin` must be finite and positive: at zero or below the
    isosceles loci themselves count as scalene.
    """
    if not 0.0 < margin < math.inf:  # NaN fails both
        raise ValueError(f"margin must be finite and positive, got {margin}")
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
        flat = np.argsort(res, axis=None)[:SCALENE_POLISH_TOP]
        for f in flat:
            i, j = np.unravel_index(f, res.shape)
            if np.isfinite(res[i, j]):
                candidates.append((float(res[i, j]), (float(s1), float(S2[i, j]), float(S3[i, j]))))
    if not candidates:
        raise ValueError("grid too coarse: no scalene points above the margin")
    candidates.sort(key=lambda t: t[0])
    best = candidates[0]

    residual = partial(_clipped_residual, masses=np.ones(3), pot=COTANGENT, edge=1e-3)
    starts = np.array([start for _, start in candidates[:SCALENE_POLISH_TOP]])
    polished = gauss_newton(residual, starts, max_iter=60)
    res = np.max(np.abs(residual(polished, None)), axis=1)
    # a genuine scalene zero would be a counterexample
    on_loci = not np.any((res < 1e-10) & (_scalene_margin(np.clip(polished, 1e-3, math.pi - 1e-3)) > margin))
    return ScaleneSearchReport(count, margin, best[0], best[1], on_loci)
