import math

import numpy as np
import pytest

from sphere_re.errors import DegenerateShape, UnrealizableShape
from sphere_re.geometry import (
    BodyPosition,
    MeridianShape3,
    Shape3,
    arc_angle,
    embed,
    shape_of,
    wrap_angle,
)
from oracles import (
    chord_length,
    from_vector,
    meridian_to_standard,
    positions_on_meridian,
    random_config,
    random_rotation,
    rotate_config,
    rotation_matrix,
)


def test_arc_angle_identical_points():
    p = BodyPosition(0.7, 0.3)
    assert arc_angle(p, p) == 0.0


def test_arc_angle_pole_to_equator():
    assert arc_angle(BodyPosition(0.0, 1.23), BodyPosition(math.pi / 2, -0.4)) == pytest.approx(math.pi / 2, abs=1e-15)


def test_arc_angle_antipodal_on_equator():
    assert arc_angle(BodyPosition(math.pi / 2, 0.0), BodyPosition(math.pi / 2, math.pi)) == pytest.approx(
        math.pi, abs=1e-15
    )


def test_arc_angle_symmetric(rng):
    for _ in range(50):
        th, ph = random_config(rng, 2)
        p, q = BodyPosition(th[0], ph[0]), BodyPosition(th[1], ph[1])
        assert arc_angle(p, q) == arc_angle(q, p)


def test_arc_angle_rotation_invariant(rng):
    for _ in range(50):
        th, ph = random_config(rng, 2)
        p, q = BodyPosition(th[0], ph[0]), BodyPosition(th[1], ph[1])
        rot = random_rotation(rng)
        p2, q2 = rotate_config([p, q], rot)
        assert arc_angle(p2, q2) == pytest.approx(arc_angle(p, q), abs=1e-12)


def test_embed_unit_norm(rng):
    assert np.allclose(embed(BodyPosition(0.0, 0.0)), [0, 0, 1])
    assert np.allclose(embed(BodyPosition(math.pi / 2, 0.0)), [1, 0, 0])
    assert np.allclose(embed(BodyPosition(math.pi / 2, math.pi / 2)), [0, 1, 0])
    for _ in range(100):
        th, ph = random_config(rng, 1)
        assert abs(np.linalg.norm(embed(BodyPosition(th[0], ph[0]))) - 1.0) < 1e-15


def test_chord_relation(rng):
    # sin(arc/2) equals half the chord length
    for _ in range(50):
        th, ph = random_config(rng, 2)
        p, q = BodyPosition(th[0], ph[0]), BodyPosition(th[1], ph[1])
        assert math.sin(arc_angle(p, q) / 2.0) == pytest.approx(chord_length(p, q) / 2.0, abs=1e-12)


def test_from_vector_roundtrip(rng):
    for _ in range(50):
        th, ph = random_config(rng, 1)
        p = BodyPosition(th[0], ph[0])
        q = from_vector(embed(p))
        assert np.allclose(embed(q), embed(p), atol=1e-14)


def test_shape_of_symmetric_latitude_ring():
    # three bodies at cos(theta) = 1/sqrt(3), equally spaced azimuths:
    # every pairwise cosine is cos^2 - sin^2/2 = 0
    th = math.acos(1.0 / math.sqrt(3.0))
    config = [BodyPosition(th, 0.0), BodyPosition(th, 2 * math.pi / 3), BodyPosition(th, 4 * math.pi / 3)]
    s = shape_of(config)
    assert s.as_array() == pytest.approx([math.pi / 2] * 3, abs=1e-12)


def test_shape_of_orthogonal_axes():
    config = [BodyPosition(math.pi / 2, 0.0), BodyPosition(math.pi / 2, math.pi / 2), BodyPosition(0.0, 0.0)]
    assert shape_of(config).as_array() == pytest.approx([math.pi / 2] * 3, abs=1e-15)


def test_shape_of_coincident_bodies_raises():
    p = BodyPosition(0.8, 0.1)
    with pytest.raises(DegenerateShape):
        shape_of([p, p, BodyPosition(1.0, 2.0)])


def test_shape3_rejects_out_of_range():
    with pytest.raises(DegenerateShape):
        Shape3(0.0, 1.0, 1.0)
    with pytest.raises(DegenerateShape):
        Shape3(math.pi, 1.0, 1.0)


def test_triangle_violations():
    bad = Shape3(2.0, 0.5, 0.5)  # 2.0 > 0.5 + 0.5
    assert bad.triangle_violations()
    assert not bad.is_realizable
    with pytest.raises(UnrealizableShape):
        bad.require_realizable()
    # perimeter above 2 pi
    fat = Shape3(2.5, 2.5, 2.5)
    assert any("perimeter" in v for v in fat.triangle_violations())
    ok = Shape3(1.0, 1.2, 0.8)
    assert ok.is_realizable


def test_meridian_shape_ranges_and_y():
    s = MeridianShape3(1.0, -0.25)
    assert s.y == pytest.approx(-0.75)
    assert np.allclose(s.theta_offsets(), [0.0, 1.0, -0.25])
    with pytest.raises(DegenerateShape):
        MeridianShape3(-0.1, 0.0)
    with pytest.raises(DegenerateShape):
        MeridianShape3(1.0, 3.5)


def test_wrap_angle():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(0.3) == 0.3


def test_meridian_to_standard_matches_embedding():
    for t in (-2.8, -1.0, -0.2, 0.0, 0.4, 1.7, 3.0):
        p = meridian_to_standard(t)
        direct = np.array([math.sin(t), 0.0, math.cos(t)])
        assert np.allclose(embed(p), direct, atol=1e-14)
    ps = positions_on_meridian([-0.5, 0.5, 2.0])
    assert [p.phi for p in ps] == [math.pi, 0.0, 0.0]


def test_rotation_matrix_is_special_orthogonal(rng):
    for _ in range(20):
        axis = rng.normal(size=3)
        ang = rng.uniform(-math.pi, math.pi)
        r = rotation_matrix(axis, ang)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-13)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-13)
