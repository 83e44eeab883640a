import math

import numpy as np
import pytest

from sphere_re.errors import DegenerateNormalization, ReconstructionOutOfRange, UnrealizableShape
from sphere_re.geometry import BodyPosition, Shape3, shape_of
from sphere_re.inertia import (
    AxisCandidate,
    axis_conditions_check,
    canonical_placement,
    char_poly_coeffs,
    cos_theta_from_eigenpair,
    inertia_tensor,
    principal_axes,
    shape_matrix,
)
import oracles
from oracles import char_poly_brute, random_config, random_rotation, rotate_config, rotation_matrix


def random_shape(rng) -> tuple[Shape3, np.ndarray]:
    """A realizable shape (drawn from an actual configuration) + masses."""
    while True:
        th, ph = random_config(rng)
        try:
            shape = shape_of([BodyPosition(t, p) for t, p in zip(th, ph)])
        except Exception:
            continue
        if min(shape.as_array()) > 0.05 and max(shape.as_array()) < math.pi - 0.05:
            return shape, rng.uniform(0.2, 5.0, 3)


def test_inertia_single_mass_poles_and_equator():
    north = inertia_tensor([BodyPosition(0.0, 0.0)], [1.0])
    assert np.allclose(north, np.diag([1.0, 1.0, 0.0]), atol=1e-15)
    xaxis = inertia_tensor([BodyPosition(math.pi / 2, 0.0)], [1.0])
    assert np.allclose(xaxis, np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_inertia_symmetric_ring_eigenvalues():
    th = math.acos(1.0 / math.sqrt(3.0))
    config = [BodyPosition(th, 2 * math.pi * k / 3) for k in range(3)]
    vals = np.linalg.eigvalsh(inertia_tensor(config, np.ones(3)))
    assert np.allclose(vals, [2.0, 2.0, 2.0], atol=1e-12)


def test_inertia_trace_and_psd(rng):
    for _ in range(30):
        th, ph = random_config(rng)
        m = rng.uniform(0.2, 5.0, 3)
        I = inertia_tensor([BodyPosition(t, p) for t, p in zip(th, ph)], m)
        assert np.allclose(I, I.T)
        assert np.trace(I) == pytest.approx(2.0 * m.sum(), rel=1e-13)
        assert np.linalg.eigvalsh(I).min() > -1e-12


def test_shape_matrix_right_angles():
    # cos(pi/2) in floats is ~6e-17, so off-diagonals are that small, not 0
    s = Shape3(math.pi / 2, math.pi / 2, math.pi / 2)
    assert np.allclose(shape_matrix(s, np.ones(3)), 2.0 * np.eye(3), atol=1e-15)
    assert np.allclose(shape_matrix(s, [1.0, 2.0, 3.0]), np.diag([5.0, 4.0, 3.0]), atol=1e-15)


@pytest.mark.parametrize("masses", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (0.7, 1.3, 2.9)])
def test_shape_matrix_rows_match_the_scalar_oracle_bit_for_bit(rng, masses):
    sig = rng.uniform(0.05, 3.0, (2, 100, 3))
    J = shape_matrix(sig, masses)
    assert J.shape == (2, 100, 3, 3)
    for row, got in zip(sig.reshape(-1, 3), J.reshape(-1, 3, 3)):
        want = oracles.shape_matrix(Shape3(*row), masses)
        assert got.tobytes() == want.tobytes()
        assert shape_matrix(Shape3(*row), masses).tobytes() == want.tobytes()


def test_shape_matrix_equilateral():
    s = Shape3(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3)
    J = shape_matrix(s, np.ones(3))
    assert np.allclose(np.diag(J), [2.0, 2.0, 2.0])
    off = J[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5, atol=1e-15)


def test_char_poly_known_values():
    assert char_poly_coeffs(np.eye(3)) == pytest.approx((-3.0, 3.0, -1.0))
    assert char_poly_coeffs(np.diag([5.0, 4.0, 3.0])) == pytest.approx((-12.0, 47.0, -60.0))


def test_char_poly_matches_brute_force(rng):
    for _ in range(25):
        a = rng.normal(size=(3, 3))
        a = a + a.T
        assert char_poly_coeffs(a) == pytest.approx(char_poly_brute(a), abs=1e-8)


def test_canonical_placement_right_angles():
    s = Shape3(math.pi / 2, math.pi / 2, math.pi / 2)
    config = canonical_placement(s)
    assert config[2].theta == 0.0
    assert config[0].theta == pytest.approx(math.pi / 2)
    assert config[1].phi == pytest.approx(math.pi / 2)  # cos(alpha) = 0
    assert shape_of(config).as_array() == pytest.approx(s.as_array(), abs=1e-10)


def test_canonical_placement_flat_equilateral():
    # equilateral with sigma = 2 pi/3 lies on one great circle: alpha = pi
    s = Shape3(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3)
    config = canonical_placement(s)
    assert config[1].phi == pytest.approx(math.pi, abs=1e-7)
    assert shape_of(config).as_array() == pytest.approx(s.as_array(), abs=1e-7)


def test_canonical_placement_unrealizable():
    with pytest.raises(UnrealizableShape):
        canonical_placement(Shape3(0.5 + 0.7 + 0.1, 0.5, 0.7))


def test_canonical_placement_roundtrip(rng):
    for _ in range(50):
        shape, _ = random_shape(rng)
        config = canonical_placement(shape)
        assert shape_of(config).as_array() == pytest.approx(shape.as_array(), abs=1e-10)


def test_similarity_of_tensor_and_shape_matrix(rng):
    # the load-bearing fact: I (any placement) and J share their spectrum
    for _ in range(200):
        shape, m = random_shape(rng)
        config = canonical_placement(shape)
        ci = char_poly_coeffs(inertia_tensor(config, m))
        cj = char_poly_coeffs(shape_matrix(shape, m))
        scale = 1.0 + abs(cj[2])
        assert abs(ci[0] - cj[0]) < 1e-10 * scale
        assert abs(ci[1] - cj[1]) < 1e-10 * scale
        assert abs(ci[2] - cj[2]) < 1e-10 * scale


def test_mass_weighted_vector_identity(rng):
    # v = sqrt(m_k) cos(theta_k):
    # v^T J v = (sum m cos^2)(sum m sin^2) - (I_xz^2 + I_yz^2)
    for _ in range(100):
        th, ph = random_config(rng)
        m = rng.uniform(0.2, 5.0, 3)
        config = [BodyPosition(t, p) for t, p in zip(th, ph)]
        try:
            J = shape_matrix(shape_of(config), m)
        except Exception:
            continue
        I = inertia_tensor(config, m)
        v = np.sqrt(m) * np.cos(th)
        lhs = v @ J @ v
        rhs = np.sum(m * np.cos(th) ** 2) * np.sum(m * np.sin(th) ** 2) - (I[0, 2] ** 2 + I[1, 2] ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1.0 + abs(rhs)))


def test_principal_axes_ordering_and_degeneracy():
    axes = principal_axes(2.0 * np.eye(3))
    assert all(a.degenerate for a in axes)
    assert [a.eigenvalue for a in axes] == pytest.approx([2.0, 2.0, 2.0])

    axes = principal_axes(np.diag([5.0, 4.0, 3.0]))
    assert [a.eigenvalue for a in axes] == pytest.approx([3.0, 4.0, 5.0])
    assert abs(axes[0].vector @ [0, 0, 1]) == pytest.approx(1.0)
    assert abs(axes[1].vector @ [0, 1, 0]) == pytest.approx(1.0)
    assert abs(axes[2].vector @ [1, 0, 0]) == pytest.approx(1.0)
    assert not any(a.degenerate for a in axes)


def test_principal_axes_orthonormal(rng):
    for _ in range(30):
        a = rng.normal(size=(3, 3))
        a = a + a.T
        vecs = np.column_stack([ax.vector for ax in principal_axes(a)])
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)


def test_principal_axes_equilateral_spectrum():
    s = Shape3(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3)
    axes = principal_axes(shape_matrix(s, np.ones(3)))
    assert [a.eigenvalue for a in axes] == pytest.approx([1.5, 1.5, 3.0], abs=1e-12)
    top = axes[2].vector
    assert np.allclose(np.abs(top), 1.0 / math.sqrt(3.0), atol=1e-12)


def test_axis_conditions_symmetric_ring_all_true():
    th = math.acos(1.0 / math.sqrt(3.0))
    config = [BodyPosition(th, 2 * math.pi * k / 3) for k in range(3)]
    chk = axis_conditions_check(config, np.ones(3))
    assert chk.consistent
    assert chk.s1 and chk.s2 and chk.s3


def test_axis_conditions_generic_config_all_false():
    config = [BodyPosition(0.3, 0.0), BodyPosition(0.3, 0.1), BodyPosition(0.3, 0.2)]
    chk = axis_conditions_check(config, np.ones(3))
    assert chk.consistent
    assert not (chk.s1 or chk.s2 or chk.s3)


def test_axis_conditions_equatorial_degenerate():
    config = [BodyPosition(math.pi / 2, 0.0), BodyPosition(math.pi / 2, 1.0), BodyPosition(math.pi / 2, 2.0)]
    with pytest.raises(DegenerateNormalization):
        axis_conditions_check(config, np.ones(3))


def test_axis_conditions_agree_on_random_configs(rng):
    # the three verdicts stay equal, whatever they are, including on
    # rotated copies of an axis-aligned configuration
    agreeing = 0
    for _ in range(60):
        th, ph = random_config(rng)
        m = rng.uniform(0.2, 5.0, 3)
        config = [BodyPosition(t, p) for t, p in zip(th, ph)]
        try:
            chk = axis_conditions_check(config, m)
        except DegenerateNormalization:
            continue
        assert chk.consistent
        agreeing += 1
    assert agreeing > 50

    th = math.acos(1.0 / math.sqrt(3.0))
    config = [BodyPosition(th, 2 * math.pi * k / 3) for k in range(3)]
    for _ in range(20):
        rot = random_rotation(rng)
        chk = axis_conditions_check(rotate_config(config, rot), np.ones(3))
        assert chk.consistent
    # rotation about z preserves the conditions
    rot = rotation_matrix([0.0, 0.0, 1.0], 0.77)
    chk = axis_conditions_check(rotate_config(config, rot), np.ones(3))
    assert chk.s1 and chk.s2 and chk.s3


def test_cos_theta_from_eigenpair_symmetric_case():
    axis = AxisCandidate(2.0, np.ones(3) / math.sqrt(3.0), True)
    ct = cos_theta_from_eigenpair(axis, np.ones(3))
    assert ct == pytest.approx(np.full(3, 1.0 / math.sqrt(3.0)), abs=1e-15)


def test_cos_theta_from_eigenpair_equatorial_eigenvalue():
    axis = AxisCandidate(3.0, np.array([1.0, 0.0, 0.0]), False)
    assert np.allclose(cos_theta_from_eigenpair(axis, np.ones(3)), 0.0)


def test_cos_theta_from_eigenpair_out_of_range():
    axis = AxisCandidate(4.0, np.array([1.0, 0.0, 0.0]), False)
    with pytest.raises(ReconstructionOutOfRange):
        cos_theta_from_eigenpair(axis, np.ones(3))
    # eigenvalue fine, but tiny mass blows the quotient past 1
    axis = AxisCandidate(0.0, np.ones(3) / math.sqrt(3.0), False)
    with pytest.raises(ReconstructionOutOfRange):
        cos_theta_from_eigenpair(axis, np.array([0.01, 1.0, 1.0]))
