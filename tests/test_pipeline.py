"""End-to-end frame integration, evaluation helpers, and file formats."""

import dataclasses
import io
import json
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpfield import local_field, meshing, pipeline, query_points
from gpfield.pipeline import (
    FrameStats,
    Pipeline,
    PipelineConfig,
    eval_chamfer,
    eval_distance_rmse,
    export_slice,
    lattice_points,
    write_stats_csv,
)
from gpfield.grid import (KEY_BIAS, LEAF_ARRAYS, LEAF_SIZE, LEAF_VOXELS,
                          VoxelState)
from gpfield.local_field import EmptyFrame, Frame
from gpfield.meshing import crossings_by_leaf
from gpfield.ply import IoFailure
from gpfield.scene import (
    Primitive,
    SensorModel,
    SyntheticScene,
    look_at,
    orbit_trajectory,
    render_frame,
)

import gp_oracle

STAGES = ("voxelize", "local_gp", "test_points", "local_infer", "fusion",
          "meshing", "global_update")
SUBSTAGES = {"test_points": ("ray_rows", "normals", "merge"),
             "local_infer": ("route", "moments"),
             "meshing": ("mesh_leaves", "crossings")}


def wall_scene(props=False):
    prim = Primitive("box", center=[2.025, 0.0, 0.0],
                     half_extents=[0.05, 1.0, 1.0],
                     prop=[0.8, 0.2, 0.4] if props else [])
    return SyntheticScene([prim], prop_channels=3 if props else 0)


def wall_frames(n=3, props=False, sensor=None):
    scene = wall_scene(props)
    sensor = sensor or SensorModel(width=32, height=24, focal=30.0,
                                   max_range=6.0)
    frames = []
    for i in range(n):
        eye = np.array([0.0, -0.3 + 0.3 * i, 0.0])
        frames.append(render_frame(scene, sensor, look_at(eye, [2.0, eye[1], 0.0])))
    return frames


def run_pipeline(n=3, config=None, props=False):
    pipe = Pipeline(config or PipelineConfig())
    for frame in wall_frames(n, props=props):
        pipe.integrate_frame(frame)
    return pipe


class StubField:
    """query_batch stand-in with an exact closed-form distance."""

    def __init__(self, fn, grad=(1.0, 0.0, 0.0)):
        self.fn = fn
        self.grad = np.asarray(grad, dtype=np.float64)

    def query_batch(self, pts):
        pts = np.atleast_2d(pts)
        d = np.asarray(self.fn(pts), dtype=np.float64)
        out = type("R", (), {})()
        out.distances = d
        out.gradients = np.tile(self.grad, (len(pts), 1))
        return out


def test_integrate_frames_populates_map():
    pipe = run_pipeline()
    assert pipe.frame_index == 3
    assert pipe.grid.n_leaves > 0
    assert pipe.field.n_nodes > 0
    mesh = pipe.export_mesh()
    assert mesh.n_triangles > 0
    # The mesh hugs the observed wall face at x = 1.975.
    assert abs(np.median(mesh.vertices[:, 0]) - 1.975) < 0.05

    res = pipe.field.query_batch([[1.675, 0.0, 0.0]])
    assert res.distances[0] == pytest.approx(0.3, abs=0.05)


def test_frame_stats_track_counts_and_stages():
    pipe = run_pipeline()
    assert len(pipe.stats) == 3
    for i, st in enumerate(pipe.stats):
        assert st.frame == i
        assert st.n_points > 0
        assert st.n_test_points > st.n_points
        assert st.n_voxels_fused > 0
        assert st.n_leaves_active > 0
        assert set(st.stage_ms) == set(STAGES)
        assert all(ms >= 0.0 for ms in st.stage_ms.values())
        assert sum(st.stage_ms.values()) <= st.total_ms + 1e-6
        # the parts of three stages, each timed inside its stage
        assert set(st.substage_ms) == {p for ps in SUBSTAGES.values()
                                       for p in ps}
        assert all(ms >= 0.0 for ms in st.substage_ms.values())
        for stage, parts in SUBSTAGES.items():
            assert (sum(st.substage_ms[p] for p in parts)
                    <= st.stage_ms[stage] + 1e-6), stage
        assert st.n_ray_steps > 0 and st.n_ray_steps_skipped >= 0
    assert pipe.stats[0].n_new_leaves > 0
    # the first frame meets an empty map, so every ray starts at its band
    assert pipe.stats[0].n_ray_steps_skipped > pipe.stats[0].n_ray_steps


def test_integrate_empty_frame_raises():
    pipe = Pipeline(PipelineConfig())
    from gpfield.local_field import Frame
    empty = Frame(points=np.zeros((0, 3)), rotation=np.eye(3),
                  translation=np.zeros(3))
    with pytest.raises(EmptyFrame):
        pipe.integrate_frame(empty)


def test_properties_reach_mesh_and_field():
    cfg = PipelineConfig(prop_kind="rgb")
    pipe = run_pipeline(config=cfg, props=True)
    mesh = pipe.export_mesh()
    assert mesh.properties.shape == (mesh.n_vertices, 3)
    np.testing.assert_allclose(np.median(mesh.properties, axis=0),
                               [0.8, 0.2, 0.4], atol=0.05)
    # On the observed face, where occupancy is full strength.
    res = pipe.field.query_batch([[1.975, 0.0, 0.0]])
    np.testing.assert_allclose(res.properties[0], [0.8, 0.2, 0.4], atol=0.1)
    assert res.prop_variances is not None


def test_library_run_prints_nothing_and_warns_nothing(tmp_path, capfd):
    """Two sphere-orbit frames under the default config, a query batch,
    a snapshot round trip and every file writer write nothing to stdout
    or stderr and raise no warning."""
    scene = SyntheticScene([Primitive("sphere", center=[0.0, 0.0, 0.0],
                                      radius=1.0)])
    sensor = SensorModel(kind="pinhole", width=24, height=18, focal=25.0,
                         max_range=8.0, noise_sigma=0.005, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pipe = Pipeline(PipelineConfig())
        for i, pose in enumerate(orbit_trajectory([0, 0, 0], 2.5, 24)[:2]):
            pipe.integrate_frame(render_frame(scene, sensor, pose, float(i)))
        box = ((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))
        assert len(pipe.field.query_batch(lattice_points(box, 0.5))) == 343
        pipe.save_snapshot(tmp_path / "m.snap")
        back = Pipeline.load_snapshot(tmp_path / "m.snap")
        back.write_mesh(tmp_path / "m.ply")
        export_slice(back.field, "z", 0.0, ((-1.5, 1.5), (-1.5, 1.5)), 0.1,
                     tmp_path / "s.csv")
        write_stats_csv(pipe.stats, tmp_path / "stats.csv")
    assert [str(w.message) for w in caught] == []
    assert capfd.readouterr() == ("", "")


def test_lattice_points_cover_box_inclusively():
    pts = lattice_points(((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 0.5)
    assert pts.shape == (27, 3)
    assert [0.0, 0.0, 0.0] in pts.tolist()
    assert [1.0, 1.0, 1.0] in pts.tolist()


def test_eval_distance_rmse_on_stub_field():
    plane = lambda p: p[:, 2] - 0.25

    exact = StubField(plane)
    rmse, n = eval_distance_rmse(exact, plane, ((0, 0, 0), (1, 1, 1)), 0.25)
    assert rmse == pytest.approx(0.0, abs=1e-12)
    assert n == 125

    biased = StubField(lambda p: np.abs(plane(p)) + 0.1)
    rmse, _ = eval_distance_rmse(biased, plane, ((0, 0, 0), (1, 1, 1)), 0.25)
    assert rmse == pytest.approx(0.1, abs=1e-12)


def test_eval_distance_rmse_band_filters_lattice():
    plane = lambda p: p[:, 2] - 0.25
    stub = StubField(plane)
    # |truth| in [0.1, 0.3]: lattice z in {0, 0.5} -> |d| in {0.25, 0.25}
    _, n = eval_distance_rmse(stub, plane, ((0, 0, 0), (1, 1, 1)), 0.5,
                              band=(0.1, 0.3))
    assert n == 18
    _, n_all = eval_distance_rmse(stub, plane, ((0, 0, 0), (1, 1, 1)), 0.5)
    assert n_all == 27
    rmse, n_zero = eval_distance_rmse(stub, plane, ((0, 0, 0), (1, 1, 1)), 0.5,
                                      band=(10.0, 11.0))
    assert (rmse, n_zero) == (0.0, 0)


def test_eval_chamfer_known_displacement():
    g = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"),
                 axis=-1).reshape(-1, 3)
    shifted = g + [0.1, 0.0, 0.0]
    chamfer, comp = eval_chamfer(g, shifted, completeness_threshold=0.2)
    assert chamfer == pytest.approx(0.1, abs=1e-12)
    assert comp == 1.0
    _, comp_tight = eval_chamfer(g, shifted, completeness_threshold=0.05)
    assert comp_tight == 0.0
    same, comp_same = eval_chamfer(g, g, completeness_threshold=1e-9)
    assert same == 0.0 and comp_same == 1.0
    inf, zero = eval_chamfer(np.zeros((0, 3)), g)
    assert np.isinf(inf) and zero == 0.0


def test_export_slice_layout(tmp_path):
    stub = StubField(lambda p: p[:, 0] + 2 * p[:, 1], grad=(1.0, 0.0, 0.0))
    path = tmp_path / "slice.csv"
    rows = export_slice(stub, "z", 0.0, ((0.0, 1.0), (0.0, 1.0)), 1.0, path)
    lines = path.read_text().strip().splitlines()
    assert rows == 4
    assert lines[0] == "x,y,distance,gradient_x,gradient_y"
    assert len(lines) == 5
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_allclose(table[:, 2], table[:, 0] + 2 * table[:, 1],
                               atol=1e-9)
    np.testing.assert_allclose(table[:, 3], 1.0)
    np.testing.assert_allclose(table[:, 4], 0.0)


def test_export_slice_error_column_and_axis_check(tmp_path):
    stub = StubField(lambda p: np.full(len(p), 0.5))
    path = tmp_path / "slice.csv"
    export_slice(stub, "x", 0.0, ((0.0, 1.0), (0.0, 1.0)), 1.0, path,
                 oracle=lambda p: np.full(len(p), 0.3))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,distance,gradient_x,gradient_y,error"
    err = [float(ln.split(",")[5]) for ln in lines[1:]]
    np.testing.assert_allclose(err, 0.2, atol=1e-9)
    with pytest.raises(ValueError):
        export_slice(stub, "w", 0.0, ((0, 1), (0, 1)), 1.0, path)


def test_snapshot_round_trip(tmp_path):
    pipe = run_pipeline()
    path = tmp_path / "map.snap"
    pipe.save_snapshot(path)
    back = Pipeline.load_snapshot(path)

    assert back.frame_index == pipe.frame_index
    assert back.grid.n_leaves == pipe.grid.n_leaves
    assert back.field.n_nodes == pipe.field.n_nodes

    a, b = pipe.export_mesh(), back.export_mesh()
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.triangles, b.triangles)

    # Off the voxel-corner lattice so each probe has a unique nearest
    # observed voxel and the attached sign cannot depend on tree order.
    probes = np.array([[1.71, 0.02, 0.01], [1.91, 0.21, -0.11],
                       [2.01, -0.38, 0.29]])
    ra = pipe.field.query_batch(probes)
    rb = back.field.query_batch(probes)
    np.testing.assert_allclose(rb.distances, ra.distances, atol=1e-9)
    np.testing.assert_array_equal(rb.free_space, ra.free_space)


def test_snapshot_preserves_properties(tmp_path):
    pipe = run_pipeline(config=PipelineConfig(prop_kind="rgb"), props=True)
    path = tmp_path / "map.snap"
    pipe.save_snapshot(path)
    back = Pipeline.load_snapshot(path)
    a, b = pipe.export_mesh(), back.export_mesh()
    np.testing.assert_array_equal(a.properties, b.properties)


def test_snapshot_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.snap"
    path.write_bytes(b"definitely not a snapshot")
    with pytest.raises(IoFailure):
        Pipeline.load_snapshot(path)


def test_snapshot_of_another_version_is_refused(tmp_path):
    pipe = Pipeline()
    pipe.grid.set((0, 0, 0), VoxelState(0.01, 1.0, observed=True))
    path = tmp_path / "v2.snap"
    pipe.save_snapshot(path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, len(Pipeline._MAGIC), 2)
    path.write_bytes(bytes(data))
    with pytest.raises(IoFailure, match=re.escape(
            f"{path}: unsupported snapshot version 2")):
        Pipeline.load_snapshot(path)


def test_config_defaults_and_derived_values():
    cfg = PipelineConfig()
    assert cfg.length_scale == pytest.approx(3 * cfg.voxel_size)
    assert cfg.d_max == pytest.approx(3 * cfg.length_scale)
    assert cfg.v_max is not None and cfg.v_max > 0
    fc = cfg.fusion_config()
    assert fc.w_max == cfg.sigma2
    assert fc.surface_band == pytest.approx(2.0 * cfg.voxel_size)
    assert fc.weight_cap == cfg.weight_cap


def test_config_warns_outside_supported_ratio():
    with pytest.warns(UserWarning):
        PipelineConfig(voxel_size=0.05, length_scale=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        PipelineConfig(voxel_size=0.05, length_scale=0.15)


def test_config_prop_kind_gates_channels():
    assert PipelineConfig(prop_kind="none").prop_channels == 0
    assert PipelineConfig(prop_kind="intensity").prop_channels == 1
    rgb = PipelineConfig(prop_kind="rgb")
    assert rgb.prop_channels == 3
    assert rgb.prop_clip == (0.0, 1.0)
    with pytest.raises(ValueError):
        PipelineConfig(prop_kind="bgr")


@pytest.mark.parametrize("prop_kind, width", [("rgb", 1), ("rgb", 4),
                                               ("intensity", 3)])
def test_frame_of_another_property_width_is_refused_before_any_write(
        prop_kind, width):
    pipe = Pipeline(PipelineConfig(prop_kind=prop_kind))
    first, frame = wall_frames(2)
    first.properties = np.full((len(first.points), pipe.config.prop_channels),
                               0.25)
    pipe.integrate_frame(first)
    state = (pipe.grid.clock, pipe.grid.n_leaves, pipe.frame_index)
    frame.properties = np.full((len(frame.points), width), 0.25)
    message = (f"frame has {width} property channels where a prop_kind "
               f"'{prop_kind}' map takes {pipe.config.prop_channels}")
    with pytest.raises(ValueError, match=re.escape(message)):
        pipe.integrate_frame(frame)
    assert (pipe.grid.clock, pipe.grid.n_leaves, pipe.frame_index) == state
    assert len(pipe.stats) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_frame_with_a_non_finite_property_is_refused_before_any_stage(value):
    """The ValueError names the first bad point and channel; nothing is
    written, and a point dropped for its position takes its properties
    with it."""
    pipe = Pipeline(PipelineConfig(prop_kind="rgb"))
    first, frame = wall_frames(2, props=True)
    pipe.integrate_frame(first)
    state = (pipe.grid.clock, pipe.grid.n_leaves, pipe.frame_index)
    frame.points[2] = np.nan
    frame.properties[2] = np.nan
    frame.properties[[5, 9], [1, 0]] = value
    message = (f"frame point 5 has property channel 1 {value}; properties "
               "must be finite")
    with pytest.raises(ValueError, match=re.escape(message)):
        pipe.integrate_frame(frame)
    assert (pipe.grid.clock, pipe.grid.n_leaves, pipe.frame_index) == state
    assert len(pipe.stats) == 1


def test_map_without_properties_ignores_a_frames_properties(tmp_path):
    """Given frames with rgb properties, NaN ones included, a prop_kind
    none map ends with the mesh, query outputs and snapshot bytes of one
    given the same frames without properties."""
    frames = wall_frames(3, props=True)
    frames[1].properties[4] = np.nan
    bare = [dataclasses.replace(f, properties=None) for f in frames]
    pts = np.random.default_rng(2).uniform([0.5, -1.0, -1.0], [2.5, 1.0, 1.0],
                                           size=(200, 3))
    out = []
    for name, run in (("props", frames), ("bare", bare)):
        pipe = Pipeline(PipelineConfig())
        for frame in run:
            pipe.integrate_frame(frame)
        res = pipe.field.query_batch(pts)
        mesh = pipe.export_mesh()
        pipe.save_snapshot(tmp_path / f"{name}.snap")
        out.append([a.tobytes() for a in (
            res.distances, res.variances, res.gradients, res.free_space,
            mesh.vertices, mesh.triangles, mesh.properties)]
            + [(tmp_path / f"{name}.snap").read_bytes()])
    assert out[0] == out[1]


def test_config_file_parsing(tmp_path):
    path = tmp_path / "map.cfg"
    path.write_text(
        "# mapping run\n"
        "voxel_size = 0.1   # meters\n"
        "\n"
        "band_width = 4\n"
        "length_scale = none\n"
        "prop_kind = rgb\n")
    raw = PipelineConfig.parse_file(path)
    assert raw == {"voxel_size": "0.1", "band_width": "4",
                   "length_scale": "none", "prop_kind": "rgb"}
    cfg = PipelineConfig.from_mapping(PipelineConfig.parse_file(path))
    assert cfg.voxel_size == 0.1
    assert cfg.band_width == 4 and isinstance(cfg.band_width, int)
    assert cfg.length_scale == pytest.approx(0.3)
    assert cfg.prop_kind == "rgb"


def test_config_rejects_unknown_keys_and_bad_lines(tmp_path):
    with pytest.raises(ValueError):
        PipelineConfig.from_mapping({"voxel_sizes": 0.1})
    bad = tmp_path / "bad.cfg"
    bad.write_text("voxel_size 0.1\n")
    with pytest.raises(ValueError):
        PipelineConfig.parse_file(bad)


@pytest.mark.parametrize("key, value", [
    ("voxel_size", float("nan")), ("voxel_size", float("inf")),
    ("normal_k", 0), ("smooth_lambda", float("nan")), ("query_nodes", 0),
    ("sign_radius", -1), ("band_width", -1), ("length_scale", float("inf")),
    ("d_max", float("nan")),
    # values of the wrong type
    ("voxel_size", None), ("voxel_size", True), ("voxel_size", [0.05]),
    ("voxel_size", "0.05"), ("sigma2", None), ("normal_k", None),
    ("normal_k", 2.5), ("normal_k", False), ("prop_kind", 3),
    ("prop_kind", None)])
def test_config_rejects_bad_values_naming_the_key(key, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{key} must be"):
            PipelineConfig(**{key: value})


@pytest.mark.parametrize("key, raw, kind", [
    ("normal_k", "2.5", "an integer"), ("voxel_size", "abc", "a number"),
    ("d_max", "", "a number")])
def test_config_from_mapping_names_the_key_of_an_unparsable_value(key, raw,
                                                                  kind):
    with pytest.raises(ValueError) as err:
        PipelineConfig.from_mapping({key: raw})
    assert str(err.value) == f"{key} must be {kind}, got {raw!r}"


def test_config_checks_types_without_converting_values():
    cfg = PipelineConfig(sigma2=1, voxel_size=np.float64(0.05))
    assert type(cfg.sigma2) is int and cfg.to_dict()["sigma2"] == 1
    assert '"sigma2": 1,' in json.dumps(cfg.to_dict())
    for key, value in (("min_leaf_points", np.int64(3)),
                       ("voxel_size", np.float32(0.05)),
                       ("sigma2", np.int64(1))):
        with pytest.raises(ValueError, match=rf"^{key} must be"):
            PipelineConfig(**{key: value})
    for mapping in ([], 3, "voxel_size=0.1", None):
        with pytest.raises(ValueError, match="^config must be a mapping"):
            PipelineConfig.from_mapping(mapping)


def test_config_float_fields_take_ints_past_int64():
    assert PipelineConfig(sigma2=2 ** 70).sigma2 == 2 ** 70
    for value in (10 ** 400, -10 ** 400):
        with pytest.raises(ValueError, match="^sigma2 must be finite"):
            PipelineConfig(sigma2=value)


_FLOAT_VALUES = st.one_of(
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6).map(np.float64),
    st.integers(-1000, 1000), st.just(np.float32(0.5)), st.just(np.int64(2)),
    st.just(True), st.none(),
    # ints past int64, within the float range and beyond it
    st.sampled_from([2 ** 63, -2 ** 70, 2 ** 70, 2 ** 1023, 2 ** 1024,
                     10 ** 400, -10 ** 400]))
_INT_VALUES = st.one_of(st.integers(-3, 2 ** 40), st.just(np.int64(2)),
                        st.just(2.0), st.just(False), st.none())


@settings(max_examples=80, deadline=None)
@given(values=st.fixed_dictionaries({}, optional={
    f.name: _INT_VALUES if f.type == "int" else _FLOAT_VALUES
    for f in dataclasses.fields(PipelineConfig) if f.type != "str"}),
    prop_kind=st.sampled_from(["none", "rgb", "intensity"]))
def test_every_accepted_config_survives_a_snapshot(values, prop_kind):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            cfg = PipelineConfig(prop_kind=prop_kind, **values)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "map.snap"
            Pipeline(cfg).save_snapshot(path)
            back = Pipeline.load_snapshot(path)
    assert back.config == cfg
    assert json.dumps(back.config.to_dict()) == json.dumps(cfg.to_dict())


def test_config_keeps_optional_defaults_and_edge_values():
    cfg = PipelineConfig(d_max=None, v_max=None, band_width=0,
                         sign_radius=0, normal_k=1, query_nodes=1)
    assert np.isfinite(cfg.d_max) and np.isfinite(cfg.v_max)


def test_config_round_trips_through_mapping():
    cfg = PipelineConfig(voxel_size=0.08, prop_kind="intensity")
    again = PipelineConfig.from_mapping(cfg.to_dict())
    assert again == cfg


def test_write_stats_csv_layout(tmp_path):
    stats = [
        FrameStats(frame=0, timestamp=0.0, n_points=10, n_voxels_fused=5,
                   n_leaves_active=2, stage_ms={"voxelize": 1.0, "fusion": 2.0},
                   total_ms=3.5),
        FrameStats(frame=1, timestamp=0.1, n_points=20, n_voxels_fused=8,
                   n_leaves_active=3, stage_ms={"voxelize": 1.5},
                   total_ms=2.0),
    ]
    buf = io.StringIO()
    write_stats_csv(stats, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "frame,stage,ms,points,voxels,leaves"
    assert lines[1] == "0,voxelize,1.000,10,5,2"
    assert lines[2] == "0,fusion,2.000,10,5,2"
    assert lines[3] == "0,total,3.500,10,5,2"
    assert lines[4] == "1,voxelize,1.500,20,8,3"
    assert lines[5] == "1,total,2.000,20,8,3"

    path = tmp_path / "stats.csv"
    write_stats_csv(stats, path)
    assert path.read_text() == buf.getvalue()


def assert_cached_meshes_own_their_memory(pipe):
    """No cached leaf mesh is a view that keeps a larger buffer alive."""
    for lm in pipe.surface.meshes.values():
        for name in ("edges", "positions", "props", "triangles"):
            assert getattr(lm, name).base is None


def test_frame_stats_count_meshing_and_keep_the_csv_layout(monkeypatch):
    calls = []
    batched = meshing.mesh_leaves

    def spy_mesh_leaves(grid, origins):
        out = batched(grid, origins)
        calls.append(("meshed", len(origins),
                      sum(len(lm.positions) for lm in out),
                      sum(len(lm.triangles) > 0 for lm in out)))
        return out

    monkeypatch.setattr(meshing, "mesh_leaves", spy_mesh_leaves)
    pipe = Pipeline(PipelineConfig())
    update = pipe.field.update
    monkeypatch.setattr(pipe.field, "update", lambda changed: (
        calls.append(("replaced", len(changed))), update(changed))[1])
    for frame in wall_frames(4):
        pipe.integrate_frame(frame)

    # one mesh_leaves call and one update per frame, counted in FrameStats
    assert [c[0] for c in calls] == ["meshed", "replaced"] * 4
    for i, st in enumerate(pipe.stats):
        _, n_meshed, n_vertices, n_surfaced = calls[2 * i]
        assert (st.n_leaves_meshed, st.n_mesh_vertices) == (n_meshed,
                                                            n_vertices)
        assert st.n_leaves_surfaced == n_surfaced
        assert st.n_nodes_replaced == calls[2 * i + 1][1]
        assert st.n_leaves_meshed > 0 and st.n_mesh_vertices > 0
        assert 0 < st.n_leaves_surfaced <= st.n_leaves_meshed
        assert st.n_nodes_replaced > 0
    assert_cached_meshes_own_their_memory(pipe)

    # the stats CSV keeps its columns and rows: the counters are not in it
    buf = io.StringIO()
    write_stats_csv(pipe.stats, buf)
    want = "frame,stage,ms,points,voxels,leaves\n" + "".join(
        f"{s.frame},{stage},{ms:.3f},{s.n_points},{s.n_voxels_fused},"
        f"{s.n_leaves_active}\n"
        for s in pipe.stats
        for stage, ms in [*s.stage_ms.items(), ("total", s.total_ms)])
    assert buf.getvalue() == want


def test_frame_stats_count_invalidated_nodes(monkeypatch):
    """n_nodes_invalidated is what GlobalField.update returned: at most
    the entries it was handed, which n_nodes_replaced still counts."""
    pipe = Pipeline(PipelineConfig())
    returned = []
    update = pipe.field.update
    monkeypatch.setattr(pipe.field, "update", lambda changed: (
        returned.append(update(changed)), returned[-1])[1])
    for frame in wall_frames(4):
        pipe.integrate_frame(frame)
    assert [st.n_nodes_invalidated for st in pipe.stats] == returned
    assert all(0 <= st.n_nodes_invalidated <= st.n_nodes_replaced
               for st in pipe.stats)
    # the first frame adds every node its update creates
    assert pipe.stats[0].n_nodes_invalidated > 0


def test_mesh_bytes_sums_cached_leaf_meshes():
    pipe = run_pipeline(2)
    meshes = pipe.surface.meshes.values()
    assert pipe.mesh_bytes == sum(
        lm.edges.nbytes + lm.positions.nbytes + lm.props.nbytes
        + lm.triangles.nbytes for lm in meshes) > 0


def test_frame_stats_count_test_points_by_source(monkeypatch):
    merged = []
    real_merge = query_points.merge

    def spy_merge(*sets):
        out = real_merge(*sets)
        merged.append(out.sources.copy())
        return out

    monkeypatch.setattr(query_points, "merge", spy_merge)
    pipe = Pipeline(PipelineConfig())
    frames = wall_frames(4)
    # the last frame sees through where the wall stood, so it carves
    frames.append(render_frame(SyntheticScene([Primitive(
        "box", center=[3.025, 0.0, 0.0], half_extents=[0.05, 1.0, 1.0])]),
        SensorModel(width=32, height=24, focal=30.0, max_range=6.0),
        look_at([0.0, 0.0, 0.0], [2.0, 0.0, 0.0])))
    for frame in frames:
        pipe.integrate_frame(frame)

    assert len(merged) == len(pipe.stats) == 5
    for sources, st in zip(merged, pipe.stats):
        want = [int((sources == s).sum()) for s in (query_points.SOURCE_RAY,
                                                    query_points.SOURCE_BAND,
                                                    query_points.SOURCE_NORMAL)]
        assert [st.n_tp_ray, st.n_tp_band, st.n_tp_normal] == want
        assert sum(want) == st.n_test_points
        assert st.n_tp_band > 0 and st.n_tp_normal > 0
    assert pipe.stats[0].n_tp_ray == 0 and pipe.stats[-1].n_tp_ray > 0


def test_snapshot_round_trip_across_meshing_chunks(tmp_path):
    scene = SyntheticScene([
        Primitive("sphere", radius=1.0, prop=[0.9, 0.4, 0.1]),
        Primitive("plane", normal=[0, 0, 1], offset=-1.0,
                  prop=[0.2, 0.5, 0.8])], prop_channels=3)
    sensor = SensorModel(width=64, height=48, focal=40.0, max_range=6.0)
    pipe = Pipeline(PipelineConfig(prop_kind="rgb"))
    for a in (0.0, 0.4):
        eye = [2.2 * np.cos(a), 2.2 * np.sin(a), 0.8]
        pipe.integrate_frame(render_frame(scene, sensor,
                                          look_at(eye, [0.0, 0.0, -0.3])))
    # loading meshes every leaf in one call: more than one chunk of them,
    # with surface in more than one chunk
    assert len(pipe.surface.meshes) > meshing._CHUNK
    path = tmp_path / "map.snap"
    pipe.save_snapshot(path)
    back = Pipeline.load_snapshot(path)

    a, b = pipe.export_mesh(), back.export_mesh()
    for name in ("vertices", "triangles", "properties"):
        np.testing.assert_array_equal(getattr(b, name), getattr(a, name))
    assert set(back.field.nodes) == set(pipe.field.nodes)
    for origin, node in pipe.field.nodes.items():
        np.testing.assert_array_equal(back.field.nodes[origin].points,
                                      node.points)
        np.testing.assert_array_equal(back.field.nodes[origin].props,
                                      node.props)
    assert_cached_meshes_own_their_memory(back)


def test_pipeline_work_tracks_surface_not_map(tmp_path):
    # Re-observing the same wall touches the same leaves; the map does
    # not grow and the global field keeps one node set.
    pipe = run_pipeline(n=2)
    leaves_before = pipe.grid.n_leaves
    nodes_before = pipe.field.n_nodes
    for frame in wall_frames(2):
        pipe.integrate_frame(frame)
    assert pipe.grid.n_leaves == leaves_before
    assert pipe.field.n_nodes == nodes_before
    assert pipe.stats[-1].n_new_leaves == 0


def test_non_finite_points_are_dropped_not_looped_on(tmp_path):
    clean = wall_frames(1, props=True)[0]
    pts = np.insert(clean.points, [5, 40], [[np.nan, 0.1, 0.2],
                                            [1.0, np.inf, 0.0]], axis=0)
    props = np.insert(clean.properties, [5, 40], [[0.5] * 3, [0.7] * 3],
                      axis=0)
    dirty = Frame(points=pts, rotation=clean.rotation,
                  translation=clean.translation, properties=props)

    def too_slow(signum, frame):
        raise TimeoutError("integrate_frame did not finish")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        snaps = []
        for i, frame in enumerate((clean, dirty)):
            pipe = Pipeline(PipelineConfig(prop_kind="rgb"))
            pipe.integrate_frame(frame)
            pipe.save_snapshot(tmp_path / f"{i}.snap")
            snaps.append((tmp_path / f"{i}.snap").read_bytes())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert snaps[0] == snaps[1]

    bad = ~np.isfinite(pts).all(axis=1)
    assert bad.sum() == 2
    only_bad = Frame(points=pts[bad], rotation=clean.rotation,
                     translation=clean.translation)
    with pytest.raises(EmptyFrame):
        Pipeline().integrate_frame(only_bad)


def test_frame_stats_count_dropped_points_and_keep_the_csv_layout():
    """NaN and inf rows are counted in FrameStats.n_points_dropped; the
    stats CSV keeps its columns."""
    clean = wall_frames(1)[0]
    bad = [[np.nan, 0.1, 0.2], [1.0, np.inf, 0.0], [-np.inf, 0.0, 0.0],
           [np.nan, np.nan, np.nan]]
    dirty = Frame(points=np.insert(clean.points, [0, 7, 7, 30], bad, axis=0),
                  rotation=clean.rotation, translation=clean.translation)
    stats = [Pipeline().integrate_frame(f) for f in (clean, dirty)]
    assert [s.n_points_dropped for s in stats] == [0, 4]
    assert stats[1].n_points == stats[0].n_points + 4
    assert stats[1].n_voxels_fused == stats[0].n_voxels_fused
    buf = io.StringIO()
    write_stats_csv(stats, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "frame,stage,ms,points,voxels,leaves"
    assert {len(line.split(",")) for line in lines} == {6}


def test_frame_stats_count_local_jitter_escalations():
    """A leaf hit everywhere (each point twice) with noise2 = 0 needs
    jitter; FrameStats counts the escalations of the frame's local
    models."""
    h = 0.05
    idx = np.arange(8)
    cube = (np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), -1)
            .reshape(-1, 3) + 0.5) * h + [0.8, 0.0, 0.0]
    frame = Frame(points=np.concatenate([cube, cube]), rotation=np.eye(3),
                  translation=np.zeros(3))
    config = PipelineConfig(noise2=0.0)
    coords, centers, props, _ = local_field.voxelize(frame, h)
    models = local_field.build_voxelized(
        coords, centers, props, config.kernel_params(),
        config.min_leaf_points).models
    want = sum(gp_oracle.train(m.train_points, config.kernel_params()).jitter
               for m in models)
    assert want > 0
    assert Pipeline(config).integrate_frame(frame).n_jitter_escalations == want
    assert Pipeline().integrate_frame(frame).n_jitter_escalations == 0


def test_snapshot_loads_leaf_on_low_edge_of_key_range(tmp_path):
    pipe = Pipeline()
    lo = -KEY_BIAS
    for x in range(4):
        pipe.grid.set((lo + x, lo, lo),
                      VoxelState(0.02 * (x - 1.5), 1.0, observed=True))
    path = tmp_path / "edge.snap"
    pipe.save_snapshot(path)
    back = Pipeline.load_snapshot(path)
    assert back.grid.n_leaves == 1
    assert back.grid.find_leaf((lo, lo, lo)) is not None


@pytest.mark.parametrize("cut", ["header", "config", "leaf count",
                                 "leaf records", "trailing bytes"])
def test_snapshot_size_is_checked(tmp_path, cut):
    pipe = Pipeline()
    pipe.grid.set((0, 0, 0), VoxelState(0.01, 1.0, observed=True))
    path = tmp_path / "one.snap"
    pipe.save_snapshot(path)
    data = path.read_bytes()
    cfg_end = 16 + struct.unpack_from("<II", data, 8)[1]
    cuts = {"header": data[:12], "config": data[:cfg_end - 5],
            "leaf count": data[:cfg_end + 8], "leaf records": data[:-100],
            "trailing bytes": data + b"\0"}
    path.write_bytes(cuts[cut])
    with pytest.raises(IoFailure, match=re.escape(str(path))):
        Pipeline.load_snapshot(path)


def test_failed_save_leaves_the_previous_snapshot(tmp_path, monkeypatch):
    pipe = run_pipeline(2)
    path = tmp_path / "map.snap"
    pipe.save_snapshot(path)
    before = path.read_bytes()
    pipe.integrate_frame(wall_frames(3)[2])

    def fail(*args):
        raise MemoryError

    monkeypatch.setattr(pipeline, "_leaf_records", fail)
    with pytest.raises(MemoryError):
        pipe.save_snapshot(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_failed_stats_csv_leaves_the_previous_file(tmp_path):
    stats = run_pipeline(2).stats
    path = tmp_path / "stats.csv"
    write_stats_csv(stats, path)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_stats_csv(stats[:1] + [None], path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def orbit_run():
    """A short sphere orbit, one query batch after each frame."""
    scene = SyntheticScene([Primitive("sphere", radius=1.0)])
    sensor = SensorModel(width=32, height=24, focal=30.0, max_range=8.0,
                         noise_sigma=0.005, seed=3)
    poses = orbit_trajectory([0, 0, 0], 2.5, 8, elevation=np.pi / 6)
    rng = np.random.default_rng(3)
    return (PipelineConfig(voxel_size=0.05, length_scale=0.1),
            [render_frame(scene, sensor, p) for p in poses],
            [rng.uniform(-1.5, 1.5, size=(300, 3)) for _ in poses])


def corridor_run():
    """A short corridor walk, a planner batch ahead after each frame."""
    scene = SyntheticScene([
        Primitive("plane", normal=[0.0, -1.0, 0.0], offset=-1.0),
        Primitive("plane", normal=[0.0, 1.0, 0.0], offset=-1.0),
        Primitive("plane", normal=[0.0, 0.0, -1.0], offset=-1.0),
        Primitive("plane", normal=[0.0, 0.0, 1.0], offset=-1.0)])
    sensor = SensorModel(width=32, height=24, focal=33.0, max_range=3.5)
    rng = np.random.default_rng(4)
    frames, batches = [], []
    for i in range(8):
        eye = np.array([0.1 * i, 0.0, 0.0])
        frames.append(render_frame(scene, sensor,
                                   look_at(eye, eye + [1.0, 0.0, 0.0])))
        batches.append(rng.uniform([eye[0] + 0.2, -0.9, -0.9],
                                   [eye[0] + 2.0, 0.9, 0.9], size=(300, 3)))
    return PipelineConfig(), frames, batches


def integrate_and_query(pipe, frames, batches):
    """Query outputs after each frame, as arrays."""
    out = []
    for frame, pts in zip(frames, batches):
        pipe.integrate_frame(frame)
        res = pipe.field.query_batch(pts)
        out.append([res.distances, res.variances, res.gradients,
                    res.properties, res.prop_variances, res.free_space])
    return out


@pytest.mark.parametrize("run", [orbit_run, corridor_run])
def test_resumed_run_matches_an_uninterrupted_one(tmp_path, run):
    """Save at frame k, load, integrate the rest: the queries after each
    later frame, the mesh and the final snapshot equal those of a run
    that never stopped. The loaded map indexes its signs in one pass, the
    uninterrupted one batch by batch."""
    config, frames, batches = run()
    k = 4
    whole = Pipeline(config)
    want = integrate_and_query(whole, frames, batches)
    part = Pipeline(config)
    integrate_and_query(part, frames[:k], batches[:k])
    part.save_snapshot(tmp_path / "part.snap")
    resumed = Pipeline.load_snapshot(tmp_path / "part.snap")
    got = integrate_and_query(resumed, frames[k:], batches[k:])
    assert len(got) == len(want) - k > 0
    for g, w in zip(got, want[k:]):
        for a, b in zip(g, w):
            if b is None:
                assert a is None
            else:
                np.testing.assert_array_equal(a, b)
    assert not want[-1][5].all()    # some points took a sign from the grid
    a, b = resumed.export_mesh(), whole.export_mesh()
    assert len(b.vertices) > 0
    for name in ("vertices", "triangles", "properties"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    resumed.save_snapshot(tmp_path / "resumed.snap")
    whole.save_snapshot(tmp_path / "whole.snap")
    assert ((tmp_path / "resumed.snap").read_bytes()
            == (tmp_path / "whole.snap").read_bytes())


def assert_nodes_are_mesh_crossings(pipe):
    """The global field trains on exactly the zero crossings of the mesh."""
    mesh = pipe.export_mesh()
    want = crossings_by_leaf(mesh.vertices, mesh.properties,
                             pipe.config.voxel_size)
    assert set(pipe.field.nodes) == set(want)
    for origin, (pos, props) in want.items():
        node = pipe.field.nodes[origin]
        np.testing.assert_allclose(node.points, pos, rtol=0, atol=1e-12)
        if props.shape[1]:
            np.testing.assert_allclose(node.props, props, rtol=0, atol=1e-12)


def test_field_nodes_follow_the_mesh_as_an_object_comes_and_goes():
    wall = Primitive("box", center=[-0.05, 0.0, 0.0],
                     half_extents=[0.05, 0.8, 0.8], prop=[0.2, 0.5, 0.9])
    ball = Primitive("sphere", center=[0.7, 0.0, 0.0], radius=0.15,
                     prop=[0.9, 0.1, 0.1], active=(0.0, 2.0))
    scene = SyntheticScene([wall, ball], prop_channels=3)
    sensor = SensorModel(width=32, height=24, focal=25.0, max_range=6.0)
    pipe = Pipeline(PipelineConfig(prop_kind="rgb"))
    seen = set()
    for i in range(10):
        eye = [1.5, 0.1 * (i % 3 - 1), 0.05 * (i % 2)]
        pipe.integrate_frame(render_frame(scene, sensor,
                                          look_at(eye, [0.0, 0.0, 0.0]),
                                          t=float(i)))
        assert_nodes_are_mesh_crossings(pipe)
        seen |= set(pipe.field.nodes)
    # carving the ball away removed nodes, not only added them
    assert seen - set(pipe.field.nodes)
    assert pipe.field.n_nodes > 0


def test_surface_in_top_leaf_of_key_range_meshes_and_trains(tmp_path):
    pipe = Pipeline()
    hi = KEY_BIAS - 1
    for x in range(4):
        for y in range(2):
            for z in range(2):
                pipe.grid.set((hi - x, hi - y, hi - z),
                              VoxelState(0.02 * (x - 1.5), 1.0,
                                         observed=True))
    path = tmp_path / "top.snap"
    pipe.save_snapshot(path)
    back = Pipeline.load_snapshot(path)
    assert back.grid.n_leaves == 1
    assert back.export_mesh().n_triangles > 0
    assert back.field.n_nodes == 1
    assert_nodes_are_mesh_crossings(back)


# leaf origins random snapshot grids allocate from: both ends of the key
# range and a few neighbours around the origin
_SNAP_ORIGINS = [(-KEY_BIAS,) * 3, (KEY_BIAS - LEAF_SIZE,) * 3,
                 (-KEY_BIAS, KEY_BIAS - LEAF_SIZE, 0), (0, 0, 0), (8, 0, 0),
                 (0, 8, 8), (-8, -8, -8)]


def random_snapshot_pipe(picks, prop_kind, seed):
    """A pipeline whose grid holds random leaves, allocated in pick order."""
    rng = np.random.default_rng(seed)
    pipe = Pipeline(PipelineConfig(prop_kind=prop_kind))
    for i in picks:
        leaf = pipe.grid.get_or_create_leaf(_SNAP_ORIGINS[i])
        leaf.value_mask[:] = rng.random(LEAF_VOXELS) < 0.7
        leaf.observed[:] = rng.random(LEAF_VOXELS) < 0.5
        leaf.distance[:] = rng.normal(0.0, 0.05, LEAF_VOXELS)
        leaf.dist_weight[:] = rng.uniform(0.0, 100.0, LEAF_VOXELS)
        leaf.prop_weight[:] = rng.uniform(0.0, 100.0, LEAF_VOXELS)
        leaf.prop[:] = rng.random(leaf.prop.shape)
    return pipe


@settings(max_examples=25, deadline=None)
@given(picks=st.lists(st.integers(0, len(_SNAP_ORIGINS) - 1), max_size=6,
                      unique=True),
       prop_kind=st.sampled_from(["none", "rgb"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(picks=[], prop_kind="rgb", seed=0)
@example(picks=[1, 0, 2], prop_kind="none", seed=1)
def test_snapshot_save_load_save_is_byte_identical(picks, prop_kind, seed):
    """Save, load, save gives the same bytes; the loaded grid holds the
    saved leaves' arrays, its leaves in file (origin) order, and a second
    load equals the first pool for pool; a truncated file raises."""
    pipe = random_snapshot_pipe(picks, prop_kind, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.snap"
        pipe.save_snapshot(path)
        first = path.read_bytes()
        back = Pipeline.load_snapshot(path)
        back.save_snapshot(path)
        assert path.read_bytes() == first
        again = Pipeline.load_snapshot(path)
        path.write_bytes(first[:-1])
        with pytest.raises(IoFailure):
            Pipeline.load_snapshot(path)

    origins = sorted(_SNAP_ORIGINS[i] for i in picks)
    assert [leaf.origin for leaf in back.grid.leaves()] == origins
    for leaf in pipe.grid.leaves():
        loaded = back.grid.find_leaf(leaf.origin)
        for name in LEAF_ARRAYS:
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(leaf, name))
    rows = back.grid.n_leaves + 1
    for name, a in back.grid.pool.items():
        np.testing.assert_array_equal(again.grid.pool[name][:rows], a[:rows])
    assert back.grid.nbytes == pipe.grid.nbytes


def test_snapshot_with_records_out_of_order_is_refused(tmp_path):
    pipe = random_snapshot_pipe([3, 4], "none", 0)
    path = tmp_path / "two.snap"
    pipe.save_snapshot(path)
    data = bytearray(path.read_bytes())
    size = (len(data) - (16 + struct.unpack_from("<II", data, 8)[1] + 16)) // 2
    first, second = data[-2 * size:-size], data[-size:]
    data[-2 * size:] = second + first
    path.write_bytes(bytes(data))
    with pytest.raises(IoFailure, match="ascending order"):
        Pipeline.load_snapshot(path)


# one short rgb sphere orbit; prints the sha256 of the mesh, of the
# snapshot bytes and of every query output
DIGEST_RUN = """
import hashlib, os, sys, tempfile
import numpy as np
from gpfield.pipeline import Pipeline, PipelineConfig
from gpfield.scene import (Primitive, SensorModel, SyntheticScene,
                           orbit_trajectory, render_frame)
scene = SyntheticScene([Primitive("sphere", radius=1.0,
                                  prop=[0.2, 0.5, 0.9])], prop_channels=3)
sensor = SensorModel(width=24, height=18, focal=25.0, max_range=8.0,
                     noise_sigma=0.005, seed=3)
pipe = Pipeline(PipelineConfig(prop_kind="rgb"))
rng = np.random.default_rng(7)
queries = hashlib.sha256()
for pose in orbit_trajectory([0, 0, 0], 2.5, 6, elevation=np.pi / 6):
    pipe.integrate_frame(render_frame(scene, sensor, pose))
    res = pipe.field.query_batch(rng.uniform(-1.5, 1.5, size=(300, 3)))
    for a in (res.distances, res.variances, res.gradients, res.properties,
              res.prop_variances, res.free_space):
        queries.update(a.tobytes())
mesh = pipe.export_mesh()
digest = hashlib.sha256()
for a in (mesh.vertices, mesh.triangles, mesh.properties):
    digest.update(a.tobytes())
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "map.snap")
    pipe.save_snapshot(path)
    with open(path, "rb") as f:
        snapshot = hashlib.sha256(f.read())
print(digest.hexdigest(), snapshot.hexdigest(), queries.hexdigest())
"""


def test_outputs_equal_across_processes_with_other_hash_seeds():
    """Two interpreters with different PYTHONHASHSEEDs give the same mesh,
    snapshot bytes and query outputs, so no output follows set or dict
    order of hashed values."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = []
    for seed in ("1", "2"):
        run = subprocess.run([sys.executable, "-c", DIGEST_RUN],
                             capture_output=True, text=True, env={
                                 **os.environ, "PYTHONPATH": path,
                                 "PYTHONHASHSEED": seed})
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]
