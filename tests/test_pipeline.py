"""End-to-end frame integration, evaluation helpers, and file formats."""

import io
import re
import signal
import struct
import warnings

import numpy as np
import pytest

from gpfield import meshing, pipeline
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
from gpfield.grid import KEY_BIAS, VoxelState
from gpfield.local_field import EmptyFrame, Frame
from gpfield.meshing import crossings_by_leaf
from gpfield.ply import IoFailure
from gpfield.scene import (
    Primitive,
    SensorModel,
    SyntheticScene,
    look_at,
    render_frame,
)

STAGES = ("voxelize", "local_gp", "test_points", "local_infer", "fusion",
          "meshing", "global_update")


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

    res = pipe.field.query([1.675, 0.0, 0.0])
    assert res.distance == pytest.approx(0.3, abs=0.05)


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
    assert pipe.stats[0].n_new_leaves > 0


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
    res = pipe.field.query([1.975, 0.0, 0.0])
    np.testing.assert_allclose(res.properties, [0.8, 0.2, 0.4], atol=0.1)
    assert res.property_variance is not None


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
    cfg = PipelineConfig.from_file(path)
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
    for lm in pipe._leaf_meshes.values():
        for name in ("edges", "positions", "props", "triangles"):
            assert getattr(lm, name).base is None


def test_frame_stats_count_meshing_and_keep_the_csv_layout(monkeypatch):
    calls = []
    batched = pipeline.mesh_leaves

    def spy_mesh_leaves(grid, origins):
        out = batched(grid, origins)
        calls.append(("meshed", len(origins),
                      sum(len(lm.positions) for lm in out)))
        return out

    monkeypatch.setattr(pipeline, "mesh_leaves", spy_mesh_leaves)
    pipe = Pipeline(PipelineConfig())
    update = pipe.field.update
    monkeypatch.setattr(pipe.field, "update", lambda changed: (
        calls.append(("replaced", len(changed))), update(changed)))
    for frame in wall_frames(4):
        pipe.integrate_frame(frame)

    # one mesh_leaves call and one update per frame, counted in FrameStats
    assert [c[0] for c in calls] == ["meshed", "replaced"] * 4
    for i, st in enumerate(pipe.stats):
        _, n_meshed, n_vertices = calls[2 * i]
        assert (st.n_leaves_meshed, st.n_mesh_vertices) == (n_meshed,
                                                            n_vertices)
        assert st.n_nodes_replaced == calls[2 * i + 1][1]
        assert st.n_leaves_meshed > 0 and st.n_mesh_vertices > 0
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
    assert len(pipe._leaf_meshes) > meshing._CHUNK
    path = tmp_path / "map.snap"
    pipe.save_snapshot(path)
    back = Pipeline.load_snapshot(path)

    a, b = pipe.export_mesh(), back.export_mesh()
    for name in ("vertices", "triangles", "properties", "vertex_leaf"):
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
