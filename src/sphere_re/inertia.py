"""Inertia tensor, shape matrix, and the rotation-axis equivalences.

The inertia tensor I of a configuration depends on the coordinate
frame; the shape matrix J is the frame-free expression of the same
spectrum, built from the masses and the pairwise arc angles.  Candidate
rotation axes for a rigidly rotating solution are read off the
eigenvectors of either matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormalization, ReconstructionOutOfRange, UnrealizableShape
from .geometry import BodyPosition, Config, Shape3, clamped_arccos, config_arrays, shape_of

# Relative eigenvalue gap below which a pair is reported as degenerate.
DEGENERACY_GAP = 1e-9

# |I_xz|, |I_yz| below this multiple of the total mass count as zero.
AXIS_ZERO_TOL = 1e-10

# the shape matrix row by row, as indices into (J12, J23, J31, J11, J22, J33)
_J_ENTRIES = np.array([3, 0, 2, 0, 4, 1, 2, 1, 5])


def inertia_tensor(config: Config, masses) -> np.ndarray:
    """Second-moment tensor of point masses on the unit sphere."""
    th, ph = config_arrays(config)
    m = np.asarray(masses, dtype=float)
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    ixx = float(np.sum(m * (ct**2 + st**2 * sp**2)))
    iyy = float(np.sum(m * (ct**2 + st**2 * cp**2)))
    izz = float(np.sum(m * st**2))
    ixy = -float(np.sum(m * st**2 * sp * cp))
    ixz = -float(np.sum(m * st * ct * cp))
    iyz = -float(np.sum(m * st * ct * sp))
    return np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])


def shape_matrix(shape, masses) -> np.ndarray:
    """Frame-free 3x3 matrix with the same spectrum as the inertia tensor.

    Diagonal (m2+m3, m3+m1, m1+m2); entry (i, j) off the diagonal is
    -sqrt(m_i m_j) cos(sigma_ij).  `shape` is a Shape3 or an array of
    arcs (sigma12, sigma23, sigma31) on its last axis, one matrix per
    row on the two trailing axes.
    """
    sig = shape.as_array() if isinstance(shape, Shape3) else np.asarray(shape, dtype=float)
    m1, m2, m3 = (float(v) for v in masses)
    entries = np.empty(sig.shape[:-1] + (6,))
    entries[..., :3] = np.array([-math.sqrt(m1 * m2), -math.sqrt(m2 * m3), -math.sqrt(m3 * m1)]) * np.cos(sig)
    entries[..., 3:] = m2 + m3, m3 + m1, m1 + m2
    return entries.take(_J_ENTRIES, axis=-1).reshape(sig.shape[:-1] + (3, 3))


def char_poly_coeffs(mat: np.ndarray) -> tuple[float, float, float]:
    """Coefficients (c2, c1, c0) of det(lambda I - M) = l^3 + c2 l^2 + c1 l + c0.

    Uses the three invariants of a 3x3 matrix: trace, sum of principal
    2x2 minors, determinant.
    """
    a = np.asarray(mat, dtype=float)
    tr = float(np.trace(a))
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = float(np.linalg.det(a))
    return (-tr, float(minors), -det)


def canonical_placement(shape: Shape3) -> list[BodyPosition]:
    """One configuration realizing the shape.

    Body 3 sits at the north pole, body 1 at (sigma31, 0) and body 2 at
    (sigma23, alpha) with cos(alpha) fixed by the spherical law of
    cosines.  alpha is taken in [0, pi]; the mirror image has the same
    spectrum.  Raises UnrealizableShape when |cos(alpha)| > 1.
    """
    s12, s23, s31 = shape.sigma12, shape.sigma23, shape.sigma31
    denom = math.sin(s31) * math.sin(s23)
    cos_alpha = (math.cos(s12) - math.cos(s31) * math.cos(s23)) / denom
    if abs(cos_alpha) > 1.0 + 1e-12:
        raise UnrealizableShape(f"cos(alpha) = {cos_alpha} outside [-1, 1]")
    alpha = clamped_arccos(cos_alpha)
    return [BodyPosition(s31, 0.0), BodyPosition(s23, alpha), BodyPosition(0.0, 0.0)]


@dataclass(frozen=True)
class AxisCandidate:
    """An eigenpair of the shape matrix, a candidate rotation axis."""

    eigenvalue: float
    vector: np.ndarray
    degenerate: bool


def principal_axes(mat: np.ndarray) -> list[AxisCandidate]:
    """Eigenpairs sorted ascending, orthonormal vectors, degeneracy flagged.

    Eigenvalue pairs closer than DEGENERACY_GAP * trace are flagged; the
    returned basis of a degenerate subspace is the deterministic one
    produced by the symmetric eigensolver.
    """
    a = np.asarray(mat, dtype=float)
    vals, vecs = np.linalg.eigh(a)
    gap_tol = DEGENERACY_GAP * max(abs(float(np.trace(a))), 1.0)
    out = []
    for k in range(3):
        near = any(abs(vals[k] - vals[j]) < gap_tol for j in range(3) if j != k)
        out.append(AxisCandidate(float(vals[k]), vecs[:, k].copy(), near))
    return out


@dataclass(frozen=True)
class AxisCheck:
    """Results of the three equivalent rotation-axis tests."""

    s1: bool  # z-axis is an eigenvector of the inertia tensor
    s2: bool  # I_xz = I_yz = 0
    s3: bool  # mass-weighted cos(theta) vector is an eigenvector of J
    residual_s1: float
    residual_s2: float
    residual_s3: float

    @property
    def consistent(self) -> bool:
        return self.s1 == self.s2 == self.s3


def axis_conditions_check(config: Config, masses) -> AxisCheck:
    """Evaluate the three equivalent z-axis conditions on a configuration.

    S1 tests I e_z against (e_z^T I e_z) e_z, S2 the two off-diagonal
    entries directly, S3 the shape-matrix eigenvector condition for
    Psi = (sqrt(m_k) cos(theta_k)) / |...| with eigenvalue
    sum(m sin^2 theta).  The three verdicts must agree; each residual is
    reported so disagreement is diagnosable.
    """
    th, _ = config_arrays(config)
    m = np.asarray(masses, dtype=float)
    mass_scale = float(np.sum(m))
    tol = AXIS_ZERO_TOL * mass_scale

    I = inertia_tensor(config, masses)
    ez = np.array([0.0, 0.0, 1.0])
    r1 = I @ ez - (ez @ I @ ez) * ez
    res1 = float(np.linalg.norm(r1))

    res2 = max(abs(I[0, 2]), abs(I[1, 2]))

    w = np.sum(m * np.cos(th) ** 2)
    if w <= 1e-14 * mass_scale:
        raise DegenerateNormalization("all bodies on the equator; axis vector undefined")
    psi = np.sqrt(m) * np.cos(th) / math.sqrt(w)
    lam = float(np.sum(m * np.sin(th) ** 2))
    J = shape_matrix(shape_of(config), masses)
    res3 = float(np.linalg.norm(J @ psi - lam * psi))

    return AxisCheck(res1 < tol, res2 < tol, res3 < tol, res1, res2, res3)


def cos_theta_from_eigenpair(axis: AxisCandidate, masses) -> np.ndarray:
    """Polar-angle cosines of the configuration selected by an eigenpair.

    cos(theta_k) = sqrt(M - lambda) psi_k / sqrt(m_k); values may exceed
    1 by at most 1e-10 (clamped), anything worse is an error.
    """
    m = np.asarray(masses, dtype=float)
    total = float(np.sum(m))
    lam = axis.eigenvalue
    if lam > total + 1e-10:
        raise ReconstructionOutOfRange(f"eigenvalue {lam} exceeds total mass {total}")
    scale = math.sqrt(max(total - lam, 0.0))
    ct = scale * np.asarray(axis.vector, dtype=float) / np.sqrt(m)
    if np.any(np.abs(ct) > 1.0 + 1e-10):
        raise ReconstructionOutOfRange(f"cos(theta) = {ct} outside [-1, 1]")
    return np.clip(ct, -1.0, 1.0)
