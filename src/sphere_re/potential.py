"""Pairwise potentials parameterized by the cosine of the separation.

A potential is a pair of scalar functions U(c) and U'(c) of
c = cos(sigma) together with a declared force sign: U' > 0 on (0, pi)
is attractive, U' < 0 repulsive.  Working in cos(sigma) rather than
sigma keeps derivative bookkeeping out of the force expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularSeparation

# Below this value of sin^2(sigma) the pair force is treated as singular:
# (1 - c^2)^(-3/2) overflows long before c reaches +-1.
SINGULAR_SIN2 = 1e-14
# the step of the central difference of a custom potential's meridian U'
MERIDIAN_FD_STEP = 1e-6


@dataclass(frozen=True)
class Potential:
    """A pairwise potential U(cos sigma) with derivative U'(cos sigma)."""

    name: str
    u: Callable[[float], float]
    du: Callable[[float], float]
    attractive: bool

    def u_value(self, cos_sigma):
        """U at the given cos(sigma); rejects coincident/antipodal pairs."""
        self._check(cos_sigma)
        return self.u(cos_sigma)

    def u_prime(self, cos_sigma):
        """U' at the given cos(sigma); rejects coincident/antipodal pairs."""
        self._check(cos_sigma)
        return self.du(cos_sigma)

    def u_array(self, cos_sigma) -> np.ndarray:
        """U of each cosine in an array, unguarded: a coincident or antipodal pair gives inf or NaN."""
        return self._each(self.u, cos_sigma)

    def u_prime_array(self, cos_sigma) -> np.ndarray:
        """U' of each cosine in an array, unguarded; the built-ins round like `u_prime` (C pow)."""
        return self._each(self.du, cos_sigma)

    def _each(self, f, cos_sigma) -> np.ndarray:
        # a custom callable takes one float at a time
        return np.vectorize(f, otypes=[float])(cos_sigma)

    def _u_prime_float(self, c: float) -> float:
        """U' of one Python float as `u_prime_array` takes it; the caller keeps 1 - c^2 >= SINGULAR_SIN2."""
        return float(self.du(c))

    def _meridian_du_float(self, theta_diff: float, sin_diff: float) -> float:
        """`u_prime_meridian`, guarded, of one separation as Python floats; the caller keeps sin^2 >= SINGULAR_SIN2."""
        return float(self.du(math.cos(theta_diff)))

    def u_prime_meridian(self, theta_diff, sin_diff=None, guarded: bool = True):
        """U' for signed meridian separations, scalar or array; even in theta_diff.

        `sin_diff` holds the sines of the separations when the caller
        has them.  A custom potential gets `du` of each cosine, called on
        scalars; the cotangent family overrides `_meridian_du`.

        `guarded` (one configuration) rejects a singular pair; unguarded
        is for a batch of candidates.
        """
        s = np.sin(theta_diff) if sin_diff is None else sin_diff
        if guarded and not (s * s >= SINGULAR_SIN2).all():
            raise SingularSeparation("pair at or numerically at theta_ij = 0 or pi")
        return self._meridian_du(theta_diff, s, guarded)

    def _meridian_du(self, theta_diff, sin_diff, guarded: bool):
        return self._each(self.du, np.cos(theta_diff))

    def _meridian_slope(self, theta_diff, sin_diff, du):
        """d/dd of sin(d) U'_mer(d) at the separations d, given the guarded `_meridian_du` du there.

        A custom potential takes a central difference of `_meridian_du`;
        the cotangent family overrides it with its closed form.
        """
        h = MERIDIAN_FD_STEP
        dp, dm = theta_diff + h, theta_diff - h
        ddu = (self._meridian_du(dp, np.sin(dp), True) - self._meridian_du(dm, np.sin(dm), True)) / (2.0 * h)
        return np.cos(theta_diff) * du + sin_diff * ddu

    def negated(self) -> "Potential":
        """The potential -U, with the opposite force sign; its values are exact negations."""
        return _Negated(self)

    def _signed(self) -> tuple["Potential", float]:
        """A potential P and a sign of +-1.0 with sign * P = self; rows sharing P share a batch."""
        return self, 1.0

    @staticmethod
    def _check(cos_sigma) -> None:
        # the negated comparison also catches NaN separations
        if not np.all(1.0 - np.asarray(cos_sigma) ** 2 >= SINGULAR_SIN2):
            raise SingularSeparation("pair at or numerically at sigma = 0 or pi")

    def sign_consistent(self) -> bool:
        """Sampled U' keeps one sign on (0, pi) and matches `attractive`."""
        sig = np.linspace(0.05, math.pi - 0.05, 64)
        vals = np.array([self.du(c) for c in np.cos(sig)])
        if self.attractive:
            return bool(np.all(vals > 0.0))
        return bool(np.all(vals < 0.0))


class _Negated(Potential):
    """-U of the potential `of`; negating it again gives `of` back."""

    def __init__(self, of: Potential):
        super().__init__(f"negated-{of.name}", lambda c: -of.u(c), lambda c: -of.du(c), not of.attractive)
        object.__setattr__(self, "of", of)  # a plain class: as a dataclass it adds ~0.5 ms to each import

    def negated(self) -> Potential:
        return self.of


def _cot_u(c):
    return c / np.sqrt(1.0 - c * c)


def _cot_du(c):
    # C pow, as a float's ** takes it; an array's ** rounds differently
    return np.float_power(1.0 - c * c, -1.5)


@dataclass(frozen=True)
class _Cotangent(Potential):
    """`sign` times the cotangent potential, sign = +-1.0; U and U' take arrays."""

    sign: float

    def _each(self, f, cos_sigma) -> np.ndarray:
        return f(cos_sigma)

    def _u_prime_float(self, c: float) -> float:
        # a float's ** takes C pow, as np.float_power does on arrays; on a
        # base of 0 or below it would raise or turn complex, hence the guard
        return self.sign * (1.0 - c * c) ** -1.5

    def _meridian_du_float(self, theta_diff: float, sin_diff: float) -> float:
        return self.sign * abs(sin_diff) ** -3.0  # C pow, as np.float_power takes it

    def _meridian_du(self, theta_diff, sin_diff, guarded: bool):
        # 1/|sin|^3 straight from the separation: through cos, 1 - cos^2 would
        # lose half the digits at small separations.  Guarded takes C pow rounding
        # (np.float_power); numpy's array power differs in the last bit on ~5% of values
        return self.sign * (np.float_power if guarded else np.power)(np.abs(sin_diff), -3.0)

    def _meridian_slope(self, theta_diff, sin_diff, du):
        # d/dd of s |s|^-3 is cos(d) |s|^-3 - 3 cos(d) |s|^-3
        return -2.0 * np.cos(theta_diff) * du

    def negated(self) -> Potential:
        return NEGATED_COTANGENT if self is COTANGENT else COTANGENT

    def _signed(self) -> tuple[Potential, float]:
        return COTANGENT, self.sign


COTANGENT = _Cotangent("cotangent", _cot_u, _cot_du, True, 1.0)

NEGATED_COTANGENT = _Cotangent("negated-cotangent", lambda c: -_cot_u(c), lambda c: -_cot_du(c), False, -1.0)

# the built-in potentials by name, the only place a name picks a potential
BUILT_INS = {p.name: p for p in (COTANGENT, NEGATED_COTANGENT)}


def potential_by_name(name: str) -> Potential:
    try:
        return BUILT_INS[name]
    except KeyError:
        raise ValueError(f"unknown potential {name!r}; choose from {sorted(BUILT_INS)}") from None


def custom_potential(u, du, attractive: bool, name: str = "custom") -> Potential:
    """Wrap user-supplied U and U' callables of one float; the sign claim is sampled."""
    pot = Potential(name, u, du, attractive)
    if not pot.sign_consistent():
        raise ValueError("declared force sign does not match sampled U'")
    return pot
