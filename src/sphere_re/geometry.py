"""Coordinates, arc angles, and shapes on the unit sphere.

All angles are radians stored as float64 and the sphere radius is fixed
to 1.  A point is given by the polar angle theta (from the north pole)
and the azimuth phi, with embedding
(sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateShape, UnrealizableShape

TWO_PI = 2.0 * math.pi

# Tolerance for triangle-realizability checks.
REALIZABILITY_TOL = 1e-12


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Wrap each angle of an array to (-pi, pi]."""
    a = np.fmod(angles, TWO_PI)
    return np.where(a <= -math.pi, a + TWO_PI, np.where(a > math.pi, a - TWO_PI, a))


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]: `wrap_angles` on a batch of one."""
    return float(wrap_angles(angle))


def clamped_arccos(c: float) -> float:
    """arccos with the argument clamped to [-1, 1] to absorb roundoff."""
    return math.acos(min(1.0, max(-1.0, c)))


@dataclass(frozen=True)
class BodyPosition:
    """A point on the unit sphere.

    In standard mode theta lies in [0, pi].  The rotating-meridian
    convention extends theta to [-pi, pi] with phi = 0; an extended
    angle t < 0 is the standard point (-t, pi).
    """

    theta: float
    phi: float = 0.0

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)])


def embed(p: BodyPosition) -> np.ndarray:
    """Cartesian embedding of a point; always unit norm."""
    return p.unit_vector()


def cos_arc(theta_p: float, phi_p: float, theta_q: float, phi_q: float) -> float:
    """Cosine of the central angle between two points."""
    return math.cos(theta_p) * math.cos(theta_q) + math.sin(theta_p) * math.sin(theta_q) * math.cos(phi_p - phi_q)


def arc_angle(p: BodyPosition, q: BodyPosition) -> float:
    """Central angle between two points, in [0, pi]."""
    return clamped_arccos(cos_arc(p.theta, p.phi, q.theta, q.phi))


@dataclass(frozen=True)
class Shape3:
    """Rotation-invariant triangle shape: the three pairwise arc angles.

    sigma12 separates bodies 1 and 2, and cyclically.  Each angle must
    lie strictly inside (0, pi); degenerate pairs are rejected because
    every downstream use divides by sin(sigma).
    """

    sigma12: float
    sigma23: float
    sigma31: float

    def __post_init__(self):
        for s in (self.sigma12, self.sigma23, self.sigma31):
            if not 0.0 < s < math.pi:
                raise DegenerateShape(f"arc angle {s} outside (0, pi)")

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma12, self.sigma23, self.sigma31])

    def triangle_violations(self) -> list[str]:
        """Realizability violations, empty when the shape fits on the sphere.

        A spherical triangle needs every arc shorter than the sum of the
        other two, and a total perimeter below 2 pi.
        """
        s = self.as_array()
        out = []
        for k, name in enumerate(("sigma12", "sigma23", "sigma31")):
            if s[k] > s[(k + 1) % 3] + s[(k + 2) % 3] + REALIZABILITY_TOL:
                out.append(f"{name}: {s[k]:.6g} exceeds sum of the other two")
        if float(s.sum()) > TWO_PI + REALIZABILITY_TOL:
            out.append(f"perimeter {float(s.sum()):.6g} exceeds 2*pi")
        return out

    @property
    def is_realizable(self) -> bool:
        return not self.triangle_violations()

    def require_realizable(self) -> "Shape3":
        violations = self.triangle_violations()
        if violations:
            raise UnrealizableShape("; ".join(violations))
        return self


@dataclass(frozen=True)
class MeridianShape3:
    """Signed shape of three bodies on one meridian.

    a = theta_2 - theta_1 and x = theta_3 - theta_1 with 0 < a < pi and
    -pi < x < pi.  The reduced coordinate y = x - a/2 is derived.
    """

    a: float
    x: float

    def __post_init__(self):
        if not 0.0 < self.a < math.pi:
            raise DegenerateShape(f"a = {self.a} outside (0, pi)")
        if not -math.pi < self.x < math.pi:
            raise DegenerateShape(f"x = {self.x} outside (-pi, pi)")

    @property
    def y(self) -> float:
        return self.x - 0.5 * self.a

    def theta_offsets(self) -> np.ndarray:
        """Signed offsets (0, a, x) of the three bodies from body 1."""
        return np.array([0.0, self.a, self.x])

    def separations(self) -> np.ndarray:
        """Signed differences (theta12, theta23, theta31), wrapped."""
        return wrap_angles(np.array([-self.a, self.a - self.x, self.x]))


Config = Sequence[BodyPosition]


def config_arrays(config: Config) -> tuple[np.ndarray, np.ndarray]:
    th = np.array([p.theta for p in config])
    ph = np.array([p.phi for p in config])
    return th, ph


def shape_of(config: Config) -> Shape3:
    """Pairwise arc angles of a three-body configuration.

    Raises DegenerateShape when a pair is coincident or antipodal.
    """
    p1, p2, p3 = config
    return Shape3(arc_angle(p1, p2), arc_angle(p2, p3), arc_angle(p3, p1))
