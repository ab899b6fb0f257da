"""Node management, blending, and signing in the global field."""

import numpy as np
import pytest

from gpfield import gp
from gpfield.global_field import EmptyField, GlobalField
from gpfield.grid import SparseGrid, VoxelState
from gpfield.pipeline import Pipeline, PipelineConfig
from gpfield.scene import (Primitive, SensorModel, SyntheticScene, look_at,
                           orbit_trajectory, render_frame)

PARAMS = gp.KernelParams(length_scale=0.15)
H = 0.05


def disc_points(center, n=24, radius=0.2, seed=0):
    """Points on a horizontal disc around center."""
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0, 2 * np.pi, n)
    rad = radius * np.sqrt(rng.uniform(0, 1, n))
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang), np.zeros(n)], axis=1)
    return pts + np.asarray(center, dtype=np.float64)


def node_distance(node, x, params=PARAMS):
    """Direct single-node inference, bypassing the field."""
    model = gp.train(node.points, params, node.props)
    o, _ = gp.infer_occupancy(model, np.atleast_2d(x))
    return float(gp.revert_distance(o, params)[0])


def test_query_without_nodes_raises():
    field = GlobalField(PARAMS)
    with pytest.raises(EmptyField):
        field.query_batch([[0.0, 0.0, 0.0]])


def test_update_inserts_and_replaces_nodes():
    field = GlobalField(PARAMS)
    pts = disc_points([0, 0, 0])
    field.update({(0, 0, 0): (pts, None)})
    assert field.n_nodes == 1
    node = field.nodes[(0, 0, 0)]
    np.testing.assert_allclose(node.centroid, pts.mean(axis=0))
    assert node.model is None

    moved = pts + [0.0, 0.0, 0.5]
    field.update({(0, 0, 0): (moved, None)})
    assert field.n_nodes == 1
    np.testing.assert_allclose(field.nodes[(0, 0, 0)].centroid,
                               moved.mean(axis=0))


def test_update_with_none_or_empty_removes_node():
    field = GlobalField(PARAMS)
    field.update({(0, 0, 0): (disc_points([0, 0, 0]), None),
                  (8, 0, 0): (disc_points([0.5, 0, 0]), None)})
    assert field.n_nodes == 2
    field.update({(0, 0, 0): None})
    assert field.n_nodes == 1
    field.update({(8, 0, 0): (np.zeros((0, 3)), None)})
    assert field.n_nodes == 0
    # Removing an absent key is a no-op.
    field.update({(16, 0, 0): None})
    assert field.n_nodes == 0


def test_training_is_lazy_and_runs_once():
    field = GlobalField(PARAMS)
    field.update({(0, 0, 0): (disc_points([0, 0, 0]), None)})
    node = field.nodes[(0, 0, 0)]
    assert node.model is None and node.train_count == 0

    field.query_batch([[0.0, 0.0, 0.1]])
    assert node.model is not None and node.train_count == 1
    field.query_batch([[0.1, 0.0, 0.1]])
    assert node.train_count == 1


def test_replacing_points_forces_retrain_on_next_query():
    field = GlobalField(PARAMS)
    pts = disc_points([0, 0, 0])
    field.update({(0, 0, 0): (pts, None)})
    field.query_batch([[0.0, 0.0, 0.1]])
    field.update({(0, 0, 0): (pts + [0, 0, 0.05], None)})
    node = field.nodes[(0, 0, 0)]
    assert node.model is None
    field.query_batch([[0.0, 0.0, 0.1]])
    assert node.train_count == 2


def test_train_pending_counts_untrained_nodes():
    field = GlobalField(PARAMS)
    field.update({(0, 0, 0): (disc_points([0, 0, 0]), None),
                  (8, 0, 0): (disc_points([1.0, 0, 0], seed=1), None)})
    assert field.train_pending() == 2
    assert field.train_pending() == 0
    field.update({(8, 0, 0): (disc_points([1.0, 0, 0], seed=2), None)})
    assert field.train_pending() == 1


def test_single_node_matches_direct_inference():
    field = GlobalField(PARAMS)
    field.update({(0, 0, 0): (disc_points([0, 0, 0]), None)})
    x = np.array([0.05, -0.03, 0.12])
    res = field.query_batch([x])
    assert res.distances[0] == pytest.approx(
        node_distance(field.nodes[(0, 0, 0)], x), abs=1e-12)
    assert res.free_space[0]
    assert res.properties is None and res.prop_variances is None


def test_two_node_blend_matches_closed_form():
    field = GlobalField(PARAMS)
    a = disc_points([0, 0, 0])
    b = disc_points([0.9, 0, 0], seed=1)
    field.update({(0, 0, 0): (a, None), (16, 0, 0): (b, None)})
    x = np.array([0.4, 0.02, 0.08])
    d = np.array([node_distance(field.nodes[(0, 0, 0)], x),
                  node_distance(field.nodes[(16, 0, 0)], x)])
    w = np.exp(-field.smooth_lambda * (d - d.min()))
    want = float((w * d).sum() / w.sum())
    assert field.query_batch([x]).distances[0] == pytest.approx(want, rel=1e-9)


def test_blend_stays_within_softmin_envelope():
    field = GlobalField(PARAMS)
    rng = np.random.default_rng(7)
    for i in range(5):
        field.update({(8 * i, 0, 0): (disc_points([0.45 * i, 0, 0], seed=i),
                                      None)})
    field.train_pending()
    queries = rng.uniform([-0.2, -0.2, 0.0], [2.0, 0.2, 0.3], size=(50, 3))
    res = field.query_batch(queries, q=field.n_nodes)
    bound = (field.n_nodes - 1) / (np.e * field.smooth_lambda)
    for x, blended in zip(queries, res.distances):
        d = np.array([node_distance(n, x) for n in field.nodes.values()])
        assert blended >= d.min() - 1e-12
        assert blended <= d.min() + bound + 1e-12


def test_batch_row_equals_scalar_query():
    field = GlobalField(PARAMS)
    field.update({(0, 0, 0): (disc_points([0, 0, 0]), None),
                  (16, 0, 0): (disc_points([0.9, 0, 0], seed=1), None)})
    pts = np.array([[0.1, 0.0, 0.1],
                    [0.8, -0.1, 0.05],
                    [0.45, 0.0, 0.2]])
    batch = field.query_batch(pts)
    assert len(batch) == 3
    for i in range(3):
        one = field.query_batch(pts[i:i + 1])
        assert one.distances[0] == pytest.approx(batch.distances[i], abs=1e-12)
        assert one.variances[0] == pytest.approx(batch.variances[i], abs=1e-12)
        np.testing.assert_allclose(one.gradients[0], batch.gradients[i],
                                   atol=1e-12)
        assert one.free_space[0] == batch.free_space[i]


def test_batch_is_permutation_invariant():
    field = GlobalField(PARAMS)
    field.update({(0, 0, 0): (disc_points([0, 0, 0]), None),
                  (16, 0, 0): (disc_points([0.9, 0, 0], seed=1), None)})
    rng = np.random.default_rng(11)
    pts = rng.uniform([-0.3, -0.3, 0.0], [1.2, 0.3, 0.4], size=(40, 3))
    perm = rng.permutation(40)
    straight = field.query_batch(pts)
    shuffled = field.query_batch(pts[perm])
    np.testing.assert_allclose(shuffled.distances, straight.distances[perm],
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(shuffled.gradients, straight.gradients[perm],
                               rtol=1e-10, atol=1e-12)


def test_gradient_points_away_from_surface_patch():
    field = GlobalField(PARAMS)
    field.update({(0, 0, 0): (disc_points([0, 0, 0], n=60, radius=0.3), None)})
    rng = np.random.default_rng(3)
    ok = 0
    for _ in range(20):
        x = np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                      rng.uniform(0.05, 0.25)])
        g = field.query_batch([x]).gradients[0]
        if g[2] > 0.99:
            ok += 1
    assert ok >= 18


def test_sign_comes_from_nearest_observed_voxel():
    grid = SparseGrid(voxel_size=H)
    # Fused plane: voxels above z=0 positive, below negative.
    for x in range(-4, 5):
        for y in range(-4, 5):
            for z in range(-3, 3):
                d = (z + 0.5) * H
                grid.set((x, y, z), VoxelState(distance=d, dist_weight=1.0,
                                               observed=True))
    field = GlobalField(PARAMS, grid=grid)
    field.update({(0, 0, 0): (disc_points([0, 0, 0], n=60, radius=0.3), None)})

    above = field.query_batch([[0.0, 0.0, 0.08]])
    below = field.query_batch([[0.0, 0.0, -0.08]])
    assert not above.free_space[0] and not below.free_space[0]
    assert above.distances[0] > 0
    assert below.distances[0] < 0
    # Signed gradient agrees on both sides for a plane.
    assert above.gradients[0, 2] > 0.9
    assert below.gradients[0, 2] > 0.9
    assert abs(abs(below.distances[0]) - above.distances[0]) < 0.02


def test_far_queries_are_flagged_free_space():
    grid = SparseGrid(voxel_size=H)
    grid.set((0, 0, 0), VoxelState(distance=0.01, dist_weight=1.0,
                                   observed=True))
    field = GlobalField(PARAMS, grid=grid, sign_radius=5)
    field.update({(0, 0, 0): (disc_points([0, 0, 0]), None)})
    near = field.query_batch([[0.0, 0.0, 0.1]])
    far = field.query_batch([[0.0, 0.0, 5 * H + 0.3]])
    assert not near.free_space[0]
    assert far.free_space[0]
    assert far.distances[0] > 0


def test_sign_cache_tracks_grid_version():
    grid = SparseGrid(voxel_size=H)
    grid.set((0, 0, 1), VoxelState(distance=0.05, dist_weight=1.0,
                                   observed=True))
    field = GlobalField(PARAMS, grid=grid)
    field.update({(0, 0, 0): (disc_points([0, 0, 0]), None)})
    x = [0.025, 0.025, 0.075]
    assert field.query_batch([x]).distances[0] > 0
    grid.set((0, 0, 1), VoxelState(distance=-0.05, dist_weight=1.0,
                                   observed=True))
    assert field.query_batch([x]).distances[0] < 0


def test_properties_flow_through_queries():
    pts = disc_points([0, 0, 0], n=40)
    props = np.tile([0.25, 0.75], (len(pts), 1))
    field = GlobalField(PARAMS, prop_clip=(0.0, 1.0))
    field.update({(0, 0, 0): (pts, props)})
    res = field.query_batch([pts[0] + [0, 0, 1e-3]])
    assert res.properties[0].shape == (2,)
    np.testing.assert_allclose(res.properties[0], [0.25, 0.75], atol=0.05)
    assert res.prop_variances is not None and res.prop_variances[0] >= 0


def test_properties_drop_when_any_node_lacks_them():
    pts = disc_points([0, 0, 0])
    props = np.full((len(pts), 1), 0.5)
    field = GlobalField(PARAMS)
    field.update({(0, 0, 0): (pts, props),
                  (16, 0, 0): (disc_points([0.5, 0, 0], seed=1), None)})
    res = field.query_batch([[0.25, 0.0, 0.1]], q=2)
    assert res.properties is None
    assert res.prop_variances is None


def test_query_nodes_limit_restricts_blend():
    field = GlobalField(PARAMS, query_nodes=1)
    a = disc_points([0, 0, 0])
    b = disc_points([0.9, 0, 0], seed=1)
    field.update({(0, 0, 0): (a, None), (16, 0, 0): (b, None)})
    # Slightly nearer to node a by centroid; q=1 must ignore node b.
    x = np.array([0.42, 0.0, 0.1])
    res = field.query_batch([x])
    assert res.distances[0] == pytest.approx(
        node_distance(field.nodes[(0, 0, 0)], x), abs=1e-12)


# -- kept nodes -----------------------------------------------------------------


def trained_field(props=None):
    """A one-node field whose node trained in a first query; returns the
    field, its node, the node's points and the tree that query built."""
    field = GlobalField(PARAMS)
    pts = disc_points([0, 0, 0])
    field.update({(0, 0, 0): (pts, props)})
    field.query_batch([[0.0, 0.0, 0.1]])
    return field, field.nodes[(0, 0, 0)], pts, field._tree


def test_byte_equal_replacement_keeps_model_and_tree():
    props = np.tile([0.25, 0.75], (24, 1))
    field, node, pts, tree = trained_field(props)
    model = node.model
    # equal copies, not the held arrays: the rule compares bytes
    assert field.update({(0, 0, 0): (pts.copy(), props.copy())}) == 0
    assert field.nodes[(0, 0, 0)] is node
    assert node.model is model and node.train_count == 1
    assert not field._tree_stale
    stats = field.query_batch([[0.0, 0.0, 0.1]]).stats
    assert stats.n_nodes_trained == 0
    assert field._tree is tree and node.train_count == 1


def _negative_zero(pts, props):
    neg = pts.copy()
    neg[:, 2] = -0.0        # disc_points puts every z at +0.0
    assert (neg == pts).all() and neg.tobytes() != pts.tobytes()
    return neg, props


@pytest.mark.parametrize("props, replace", [
    (None, _negative_zero),
    (None, lambda pts, props: (pts, np.full((len(pts), 1), 0.5))),
    (np.full((24, 1), 0.5), lambda pts, props: (pts, None)),
    (np.full((24, 1), 0.5), lambda pts, props: (pts, props + 0.125)),
    (None, lambda pts, props: (pts[::-1], props)),
], ids=["negative-zero", "props-added", "props-removed", "props-changed",
        "rows-reordered"])
def test_replacement_differing_in_bytes_drops_model(props, replace):
    field, node, pts, tree = trained_field(props)
    assert field.update({(0, 0, 0): replace(pts, props)}) == 1
    assert node.model is None and field._tree_stale
    stats = field.query_batch([[0.0, 0.0, 0.1]]).stats
    assert stats.n_nodes_trained == 1 and node.train_count == 2
    assert field._tree is not tree


def test_update_counts_added_removed_and_changed_nodes():
    field = GlobalField(PARAMS)
    a, b = disc_points([0, 0, 0]), disc_points([0.5, 0, 0], seed=1)
    assert field.update({(0, 0, 0): (a, None), (8, 0, 0): (b, None)}) == 2
    field.query_batch([[0.0, 0.0, 0.1]])
    # removing an absent node and repeating a present one change nothing
    assert field.update({(16, 0, 0): None, (0, 0, 0): (a, None)}) == 0
    assert not field._tree_stale
    assert field.update({(0, 0, 0): (a + 0.01, None), (8, 0, 0): None}) == 2
    assert field._tree_stale and field.n_nodes == 1


def test_nbytes_sums_node_and_model_arrays():
    props = np.full((24, 2), 0.5)
    field = GlobalField(PARAMS)
    field.update({(0, 0, 0): (disc_points([0, 0, 0]), props),
                  (8, 0, 0): (disc_points([0.5, 0, 0], seed=1), props[:, :1])})
    nodes = list(field.nodes.values())
    held = sum(n.points.nbytes + n.props.nbytes for n in nodes)
    assert field.nbytes == held
    field.train_pending()
    for n in nodes:
        m = n.model
        # a model's training points are its node's points, counted once
        assert np.shares_memory(m.train_points, n.points)
        assert m.chol_prop is not m.chol
        held += sum(a.nbytes for a in (m.chol, m.alpha_occ, m.centroid,
                                       m.chol_prop, m.alpha_prop))
    assert field.nbytes == held


class DropEveryReplacedModel(GlobalField):
    """The rule before kept nodes: every node an update names loses its
    model, and the centroid tree is rebuilt after every update."""

    def update(self, replacements: dict) -> int:
        n = super().update(replacements)
        for origin in replacements:
            node = self.nodes.get(tuple(int(v) for v in origin))
            if node is not None:
                node.model = None
        self._tree_stale = True
        return n


def sphere_orbit_frames(n=10):
    scene = SyntheticScene([Primitive("sphere", center=[0.0, 0.0, 0.0],
                                      radius=1.0, prop=[0.2, 0.5, 0.9])],
                           prop_channels=3)
    sensor = SensorModel(kind="pinhole", width=24, height=18, focal=25.0,
                         max_range=8.0, noise_sigma=0.005, seed=3)
    poses = orbit_trajectory([0, 0, 0], 2.5, 24, elevation=np.pi / 6)[:n]
    box = ((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))
    return [render_frame(scene, sensor, p) for p in poses], box


def corridor_frames(n=10):
    scene = SyntheticScene([
        Primitive("plane", normal=[0.0, -1.0, 0.0], offset=-1.0),
        Primitive("plane", normal=[0.0, 1.0, 0.0], offset=-1.0),
        Primitive("plane", normal=[0.0, 0.0, -1.0], offset=-1.0),
        Primitive("plane", normal=[0.0, 0.0, 1.0], offset=-1.0)])
    sensor = SensorModel(kind="pinhole", width=24, height=18, focal=25.0,
                         max_range=3.5)
    frames = []
    for i in range(n):
        eye = np.array([0.05 * i, 0.0, 0.0])
        frames.append(render_frame(scene, sensor,
                                   look_at(eye, eye + [1.0, 0.0, 0.0])))
    return frames, ((0.2, -0.9, -0.9), (3.5, 0.9, 0.9))


@pytest.mark.parametrize("make, prop_kind", [
    (sphere_orbit_frames, "rgb"), (corridor_frames, "none")],
    ids=["sphere_orbit", "corridor"])
def test_kept_nodes_match_dropping_every_replaced_model(monkeypatch, make,
                                                        prop_kind):
    """After every frame, the field that keeps byte-equal nodes answers a
    batch bit for bit as one that retrains every replaced node, and it
    trains strictly fewer nodes over the run."""
    frames, box = make()
    pipe = Pipeline(PipelineConfig(prop_kind=prop_kind))
    c = pipe.config
    oracle = DropEveryReplacedModel(pipe.params, pipe.grid,
                                    smooth_lambda=c.smooth_lambda,
                                    query_nodes=c.query_nodes,
                                    sign_radius=c.sign_radius,
                                    prop_clip=c.prop_clip)
    update = pipe.field.update
    monkeypatch.setattr(pipe.field, "update", lambda changed: (
        oracle.update(changed), update(changed))[1])
    rng = np.random.default_rng(5)
    trained = np.zeros(2, dtype=int)
    for frame in frames:
        pipe.integrate_frame(frame)
        pts = rng.uniform(box[0], box[1], size=(200, 3))
        got, want = pipe.field.query_batch(pts), oracle.query_batch(pts)
        for name in ("distances", "variances", "gradients", "properties",
                     "free_space"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None) == (name == "properties"
                                                  and prop_kind == "none")
            if a is not None:
                assert a.tobytes() == b.tobytes(), name
        trained += got.stats.n_nodes_trained, want.stats.n_nodes_trained
    assert 0 < trained[0] < trained[1]
    assert sum(st.n_nodes_invalidated for st in pipe.stats) < sum(
        st.n_nodes_replaced for st in pipe.stats)
