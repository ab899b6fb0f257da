"""Analytic scene primitives, sensor simulation and scene files."""

import re

import numpy as np
import pytest

from gpfield.scene import (
    HIT_TOLERANCE,
    Primitive,
    SensorModel,
    SyntheticScene,
    load_scene,
    look_at,
    orbit_trajectory,
    parse_scene,
    render_frame,
    sphere_trace,
    surface_samples,
)


def test_sphere_sdf_values():
    s = Primitive("sphere", center=[1.0, 0.0, 0.0], radius=0.5)
    d = s.sdf(np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.5, 0.0, 0.0]]))
    np.testing.assert_allclose(d, [0.5, -0.5, 0.0], atol=1e-12)


def test_box_sdf_inside_outside_corner():
    b = Primitive("box", center=[0.0, 0.0, 0.0], half_extents=[1.0, 2.0, 3.0])
    face = b.sdf(np.array([1.5, 0.0, 0.0]))
    np.testing.assert_allclose(face, [0.5])
    inside = b.sdf(np.array([0.5, 0.0, 0.0]))
    np.testing.assert_allclose(inside, [-0.5])
    corner = b.sdf(np.array([2.0, 3.0, 4.0]))
    np.testing.assert_allclose(corner, [np.sqrt(3.0)])
    deep = b.sdf(np.array([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(deep, [-1.0])


def test_plane_sdf_signed_both_sides():
    p = Primitive("plane", normal=[0.0, 0.0, 2.0], offset=1.0)
    d = p.sdf(np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(d, [2.0, -1.0], atol=1e-12)


def test_primitive_normal_is_normalized():
    p = Primitive("plane", normal=[0.0, 0.0, 10.0], offset=0.0)
    np.testing.assert_allclose(p.normal, [0.0, 0.0, 1.0])


def test_scene_min_composition_and_nearest_index():
    scene = SyntheticScene([
        Primitive("sphere", center=[2.0, 0.0, 0.0], radius=1.0),
        Primitive("sphere", center=[-2.0, 0.0, 0.0], radius=1.0),
    ])
    d = scene.sdf(np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]]))
    np.testing.assert_allclose(d, [-0.5, -0.5])
    _, idx = scene.sdf_and_prim(np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]]))
    assert idx.tolist() == [0, 1]


def test_active_window_gates_primitives():
    prim = Primitive("sphere", radius=1.0, active=(2.0, 5.0))
    scene = SyntheticScene([prim])
    q = np.array([[0.0, 0.0, 0.0]])
    assert not prim.is_active(1.99)
    assert prim.is_active(2.0)
    assert prim.is_active(4.999)
    assert not prim.is_active(5.0)
    assert scene.sdf(q, t=0.0)[0] == np.inf
    assert scene.sdf(q, t=3.0)[0] == pytest.approx(-1.0)
    assert scene.sdf(q, t=7.0)[0] == np.inf


def test_pinhole_ray_grid_shape_and_units():
    s = SensorModel(kind="pinhole", width=16, height=12, focal=20.0)
    d = s.ray_directions()
    assert d.shape == (16 * 12, 3)
    np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    assert np.all(d[:, 2] > 0.0)  # optical axis is +z
    center = d[(12 // 2) * 16 + 16 // 2 - 8]  # first row ordering sanity
    assert center[2] > 0.9


def test_lidar_ray_grid_spins_about_vertical():
    s = SensorModel(kind="lidar", azimuth_steps=8, elevation_steps=1,
                    elevation_range=(0.0, 0.0))
    d = s.ray_directions()
    assert d.shape == (8, 3)
    np.testing.assert_allclose(d[:, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(d[0], [0.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(d[2], [1.0, 0.0, 0.0], atol=1e-12)


def test_unknown_sensor_kind_rejected():
    with pytest.raises(ValueError):
        SensorModel(kind="sonar").ray_directions()


@pytest.mark.parametrize("field, value, need", [
    ("kind", "sonar", "'pinhole' or 'lidar'"),
    ("width", 0, "at least 1"), ("height", -3, "at least 1"),
    ("azimuth_steps", 0, "at least 1"), ("elevation_steps", -1, "at least 1"),
    ("focal", 0.0, "finite and positive"),
    ("focal", float("inf"), "finite and positive"),
    ("max_range", -1.0, "finite and positive"),
    ("max_range", float("nan"), "finite and positive"),
    ("noise_sigma", -0.1, "finite and not negative"),
    ("noise_sigma", float("nan"), "finite and not negative"),
    ("elevation_range", (0.0, float("inf")), "two finite values"),
    ("elevation_range", (0.1,), "two finite values")])
def test_sensor_rejects_out_of_range_fields_naming_them(field, value, need):
    with pytest.raises(ValueError) as err:
        SensorModel(**{field: value})
    assert str(err.value) == f"sensor {field} must be {need}, got {value!r}"


def test_sensor_accepts_smallest_valid_fields():
    sensor = SensorModel(width=1, height=1, focal=1e-3, noise_sigma=0.0,
                         max_range=1e-3)
    assert sensor.ray_directions().shape == (1, 3)
    lidar = SensorModel(kind="lidar", azimuth_steps=1, elevation_steps=1,
                        elevation_range=(0.0, 0.0))
    assert lidar.ray_directions().shape == (1, 3)


def test_sphere_trace_hits_at_analytic_range():
    scene = SyntheticScene([Primitive("sphere", center=[0.0, 0.0, 3.0],
                                      radius=1.0)])
    ranges, hit = sphere_trace(scene, np.zeros(3),
                               np.array([[0.0, 0.0, 1.0],
                                         [0.0, 0.0, -1.0]]),
                               t=0.0, max_range=10.0)
    assert hit[0] and not hit[1]
    assert ranges[0] == pytest.approx(2.0, abs=5 * HIT_TOLERANCE)
    assert ranges[1] == np.inf


def test_sphere_trace_respects_max_range():
    scene = SyntheticScene([Primitive("sphere", center=[0.0, 0.0, 50.0],
                                      radius=1.0)])
    ranges, hit = sphere_trace(scene, np.zeros(3),
                               np.array([[0.0, 0.0, 1.0]]), 0.0, 5.0)
    assert not hit[0]
    assert ranges[0] == np.inf


def test_look_at_builds_right_handed_frame():
    rot, eye = look_at([3.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(eye, [3.0, 0.0, 0.0])
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0)
    np.testing.assert_allclose(rot[:, 2], [-1.0, 0.0, 0.0], atol=1e-12)


def test_look_at_degenerate_up_direction():
    rot, _ = look_at([0.0, 0.0, 5.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0)
    np.testing.assert_allclose(rot[:, 2], [0.0, 0.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("eye, target, message", [
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
     "look_at eye [1.0, 2.0, 3.0] is at its target"),
    ([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0], "look_at needs a finite eye"),
    ([1.0, 0.0, 0.0], [0.0, np.inf, 0.0], "look_at needs a finite eye"),
    ([np.inf, 0.0, 0.0], [np.inf, 0.0, 0.0], "look_at needs a finite eye"),
    ([1e200, 0.0, 0.0], [0.0, 0.0, 0.0],
     "look_at eye [1e+200, 0.0, 0.0] must not exceed 1e+150 in magnitude"),
    ([0.0, 0.0, 0.0], [0.0, -1e151, 0.0],
     "look_at target [0.0, -1e+151, 0.0] must not exceed 1e+150")])
def test_look_at_refuses_a_non_finite_or_coincident_eye(eye, target, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        look_at(eye, target)


@pytest.mark.parametrize("radius", [0.0, -0.0, np.nan, np.inf])
def test_orbit_trajectory_refuses_a_zero_or_non_finite_radius(radius):
    with pytest.raises(ValueError, match="orbit radius must be finite and "
                                         "nonzero"):
        orbit_trajectory([0.0, 0.0, 0.0], radius, 3)


@pytest.mark.parametrize("kind, kwargs", [
    ("sphere", {"radius": np.nan}),
    ("sphere", {"center": [0.0, np.inf, 0.0]}),
    ("box", {"half_extents": [1.0, -np.inf, 1.0]}),
    ("plane", {"offset": np.nan}),
    ("sphere", {"prop": [0.5, np.nan]}),
    ("sphere", {"active": (np.nan, 1.0)})])
def test_primitive_refuses_a_non_finite_number(kind, kwargs):
    with pytest.raises(ValueError, match=f"{kind} numbers must be finite"):
        Primitive(kind, **kwargs)
    # an open time window is not a non-finite number
    assert Primitive("sphere", active=(-np.inf, np.inf)).is_active(0.0)


def test_primitive_refuses_a_zero_plane_normal():
    with pytest.raises(ValueError, match="plane normal must not be zero"):
        Primitive("plane", normal=[0.0, 0.0, 0.0])


@pytest.mark.parametrize("line, message", [
    ("plane 0 0 0 1", "line 2: plane normal must not be zero"),
    ("sphere 0 0 0 nan", "line 2: sphere numbers must be finite"),
    ("box 0 inf 0 1 1 1", "line 2: box numbers must be finite"),
    ("sphere 0 0 0 1 active nan 2", "line 2: sphere numbers must be finite")])
def test_parse_scene_refuses_a_non_finite_number_naming_the_line(line,
                                                                  message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_scene(f"sphere 0 0 0 1\n{line}\n")


def test_orbit_trajectory_geometry():
    center = np.array([1.0, -2.0, 0.5])
    poses = orbit_trajectory(center, radius=3.0, n_frames=12,
                             elevation=np.deg2rad(30.0))
    assert len(poses) == 12
    for rot, eye in poses:
        assert np.linalg.norm(eye - center) == pytest.approx(3.0)
        assert eye[2] - center[2] == pytest.approx(3.0 * np.sin(np.deg2rad(30.0)))
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)
        fwd = rot[:, 2]
        want = (center - eye) / np.linalg.norm(center - eye)
        np.testing.assert_allclose(fwd, want, atol=1e-12)


def test_render_frame_points_in_sensor_frame():
    scene = SyntheticScene([Primitive("sphere", center=[0.0, 0.0, 0.0],
                                      radius=1.0)])
    sensor = SensorModel(kind="pinhole", width=9, height=9, focal=30.0,
                         max_range=10.0)
    pose = look_at([4.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    frame = render_frame(scene, sensor, pose)
    assert len(frame.points) > 0
    # central ray range is eye distance minus radius
    ranges = np.linalg.norm(frame.points, axis=1)
    assert ranges.min() == pytest.approx(3.0, abs=1e-3)
    world = frame.points @ frame.rotation.T + frame.translation
    np.testing.assert_allclose(scene.sdf(world), 0.0, atol=1e-4)


def test_render_frame_noise_is_deterministic():
    scene = SyntheticScene([Primitive("sphere", radius=1.0)])
    sensor = SensorModel(kind="pinhole", width=8, height=8, focal=10.0,
                         noise_sigma=0.01, seed=3)
    pose = look_at([3.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    a = render_frame(scene, sensor, pose, t=2.0)
    b = render_frame(scene, sensor, pose, t=2.0)
    np.testing.assert_array_equal(a.points, b.points)
    c = render_frame(scene, sensor, pose, t=3.0)
    assert not np.array_equal(a.points, c.points)


def test_render_frame_attaches_primitive_properties():
    scene = SyntheticScene([
        Primitive("sphere", center=[0.0, 0.0, 0.0], radius=1.0,
                  prop=np.array([0.9, 0.1, 0.4])),
    ], prop_channels=3)
    sensor = SensorModel(kind="pinhole", width=8, height=8, focal=10.0)
    frame = render_frame(scene, sensor, look_at([3.0, 0.0, 0.0], [0.0, 0.0, 0.0]))
    assert frame.properties is not None
    assert frame.properties.shape == (len(frame.points), 3)
    want = np.tile([0.9, 0.1, 0.4], (len(frame.points), 1))
    np.testing.assert_allclose(frame.properties, want)


@pytest.mark.parametrize("prop", [[0.3], [0.3, 0.4], [0.1, 0.2, 0.3, 0.4]])
def test_scene_refuses_a_prop_of_another_width_naming_the_primitive(prop):
    with pytest.raises(ValueError, match=re.escape(
            f"primitive 1 (box) has {len(prop)} prop values where the scene "
            "takes 0 or 3")):
        SyntheticScene([Primitive("sphere", prop=[0.1, 0.2, 0.3]),
                        Primitive("box", prop=prop)], prop_channels=3)
    # a scene without property channels ignores every prop
    SyntheticScene([Primitive("box", prop=prop)])


@pytest.mark.parametrize("prop, got", [("prop 0.3", "0.3"),
                                       ("prop 0.3 0.4", "0.3 0.4"),
                                       ("prop", "")])
def test_parse_scene_refuses_a_prop_of_another_width_naming_the_line(prop,
                                                                      got):
    text = f"sphere 0 0 0 1 prop 0.1 0.2 0.3\nbox 0 0 0 1 1 1 {prop}\n"
    with pytest.raises(ValueError, match=re.escape(
            f"line 2: prop takes 3 numbers, got '{got}'")):
        parse_scene(text, prop_channels=3)
    assert len(parse_scene(text).primitives) == 2


def test_surface_samples_land_on_sphere():
    scene = SyntheticScene([Primitive("sphere", radius=1.0)])
    pts = surface_samples(scene, ((-1.2, -1.2, -1.2), (1.2, 1.2, 1.2)),
                          resolution=0.1)
    assert len(pts) > 500
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-4)


def test_surface_samples_empty_scene():
    scene = SyntheticScene([Primitive("sphere", radius=1.0, active=(5.0, 9.0))])
    pts = surface_samples(scene, ((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)),
                          resolution=0.25, t=0.0)
    assert len(pts) == 0


def test_scene_file_round_trip(tmp_path):
    text = """
    # demo scene
    sphere 0 0 0 1.5 prop 0.2 0.4 0.6
    box 1 2 3 0.5 0.5 0.5 active 0 10
    plane 0 0 1 -0.25
    """
    scene = parse_scene(text, prop_channels=3)
    assert [p.kind for p in scene.primitives] == ["sphere", "box", "plane"]
    assert scene.primitives[1].active == (0.0, 10.0)
    path = tmp_path / "scene.txt"
    path.write_text(text)
    again = load_scene(path, prop_channels=3)
    for a, b in zip(scene.primitives, again.primitives):
        assert a.kind == b.kind
        np.testing.assert_allclose(a.center, b.center)
        np.testing.assert_allclose(a.prop, b.prop)
        assert a.active == b.active
    q = np.random.default_rng(21).uniform(-3, 3, size=(50, 3))
    np.testing.assert_array_equal(scene.sdf(q, 1.0), again.sdf(q, 1.0))


def test_parse_scene_rejects_unknown_tokens():
    with pytest.raises(ValueError):
        parse_scene("cylinder 0 0 0 1")
    with pytest.raises(ValueError):
        parse_scene("sphere 0 0 0 1 stuff 3")
