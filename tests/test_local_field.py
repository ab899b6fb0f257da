"""Per-frame voxelization and leaf-wise GP training."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from gpfield import gp
from gpfield.gp import KernelParams
from gpfield.local_field import (
    EmptyFrame,
    Frame,
    LocalField,
    build_voxelized,
    voxelize,
)
from gpfield.grid import (KEY_RANGE_ERROR, grid_to_world, group_by,
                          leaf_keys, pack_keys, world_to_grid)

import gp_oracle

IDENTITY = np.eye(3)
ZERO = np.zeros(3)


def world_frame(points, properties=None, timestamp=0.0):
    return Frame(points=points, rotation=IDENTITY, translation=ZERO,
                 properties=properties, timestamp=timestamp)


def test_frame_rejects_bad_rotation():
    with pytest.raises(ValueError):
        Frame(points=np.zeros((1, 3)), rotation=np.eye(3) * 2.0,
              translation=ZERO)
    reflect = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Frame(points=np.zeros((1, 3)), rotation=reflect, translation=ZERO)


def test_frame_points_world_applies_pose():
    rot = np.array([[0.0, -1.0, 0.0],
                    [1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0]])
    f = Frame(points=np.array([[1.0, 0.0, 0.0]]), rotation=rot,
              translation=np.array([10.0, 0.0, 0.0]))
    np.testing.assert_allclose(f.points_world(), [[10.0, 1.0, 0.0]])
    np.testing.assert_allclose(f.origin, [10.0, 0.0, 0.0])


def test_voxelize_collapses_duplicate_points():
    pts = np.tile([[0.31, 0.22, 0.13]], (100, 1))
    coords, centers, props, _ = voxelize(world_frame(pts), 0.1)
    assert coords.shape == (1, 3)
    np.testing.assert_allclose(centers, [[0.35, 0.25, 0.15]])
    assert props is None


def test_voxelize_adjacent_voxels():
    pts = np.array([[0.01, 0.0, 0.0], [0.11, 0.0, 0.0]])
    coords, centers, _, _ = voxelize(world_frame(pts), 0.1)
    assert len(coords) == 2
    assert centers[1, 0] - centers[0, 0] == pytest.approx(0.1)
    np.testing.assert_allclose(centers[:, 1:], 0.05)


def test_voxelize_count_matches_hash_set_oracle():
    rng = np.random.default_rng(22)
    pts = rng.uniform(0.0, 1.0, size=(10000, 3))
    coords, centers, _, _ = voxelize(world_frame(pts), 0.1)
    oracle = {tuple(c) for c in world_to_grid(pts, 0.1)}
    assert len(coords) == len(oracle)
    assert {tuple(int(v) for v in c) for c in coords} == oracle


def test_voxelize_averages_properties_per_voxel():
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.0, 0.4, size=(500, 3))
    props = rng.uniform(size=(500, 2))
    coords, _, mean_props, _ = voxelize(world_frame(pts, properties=props), 0.1)
    sums = {}
    counts = {}
    for p, c in zip(props, world_to_grid(pts, 0.1)):
        key = tuple(int(v) for v in c)
        sums[key] = sums.get(key, 0.0) + p
        counts[key] = counts.get(key, 0) + 1
    for c, m in zip(coords, mean_props):
        key = tuple(int(v) for v in c)
        np.testing.assert_allclose(m, sums[key] / counts[key], atol=1e-12)


def test_voxelize_counts_dropped_non_finite_points():
    pts = np.array([[0.01, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.11, 0.0, 0.0],
                    [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]])
    props = np.arange(10.0).reshape(5, 2)
    vox = voxelize(world_frame(pts, properties=props), 0.1)
    assert vox.n_dropped == 3
    np.testing.assert_array_equal(vox.props, props[[0, 2]])
    clean = voxelize(world_frame(pts[[0, 2]], properties=props[[0, 2]]), 0.1)
    assert clean.n_dropped == 0
    for got, want in zip(vox[:3], clean[:3]):
        np.testing.assert_array_equal(got, want)


def test_voxelize_refuses_a_far_point_before_the_int64_cast():
    """A finite point past the int64 range raises pack_keys's key-range
    ValueError, and no RuntimeWarning from a cast comes first."""
    pts = np.array([[0.01, 0.0, 0.0], [1e30, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(KEY_RANGE_ERROR)):
            voxelize(world_frame(pts), 0.05)


def test_voxelize_empty_frame_raises():
    with pytest.raises(EmptyFrame):
        voxelize(world_frame(np.zeros((0, 3))), 0.1)


def test_build_single_leaf_single_model():
    rng = np.random.default_rng(24)
    pts = rng.uniform(0.05, 0.35, size=(50, 3))  # inside leaf (0,0,0), h=0.05
    frame = world_frame(pts)
    field = build_voxelized(*voxelize(frame, 0.05)[:3],
                            KernelParams(length_scale=0.15))
    assert len(field.models) == 1
    _, centers, _, _ = voxelize(frame, 0.05)
    np.testing.assert_array_equal(field.models[0].train_points, centers)


def test_build_partitions_voxels_across_leaves():
    rng = np.random.default_rng(25)
    h = 0.05
    # two well separated blobs, each inside its own leaf
    blob_a = rng.uniform(0.05, 0.35, size=(40, 3))
    blob_b = blob_a + np.array([0.8, 0.0, 0.0])
    pts = np.vstack([blob_a, blob_b])
    frame = world_frame(pts)
    field = build_voxelized(*voxelize(frame, h)[:3],
                            KernelParams(length_scale=0.15))
    assert len(field.models) == 2
    coords, centers, _, _ = voxelize(frame, h)
    trained = np.vstack([m.train_points for m in field.models])
    assert len(trained) == len(centers)
    got = {tuple(np.round(p, 9)) for p in trained}
    want = {tuple(np.round(p, 9)) for p in centers}
    assert got == want


def test_build_is_deterministic():
    rng = np.random.default_rng(26)
    pts = rng.uniform(-0.5, 0.5, size=(300, 3))
    p = KernelParams(length_scale=0.15)
    a = build_voxelized(*voxelize(world_frame(pts), 0.05)[:3], p)
    b = build_voxelized(*voxelize(world_frame(pts), 0.05)[:3], p)
    assert len(a.models) == len(b.models)
    for ma, mb in zip(a.models, b.models):
        np.testing.assert_array_equal(ma.alpha_occ, mb.alpha_occ)
        np.testing.assert_array_equal(ma.train_points, mb.train_points)


def test_build_merges_small_leaves_into_nearest_big_one():
    h = 0.1
    coords = np.array([[4, 4, 4], [4, 4, 5], [4, 5, 4], [5, 4, 4],
                       [8, 4, 4]])  # last voxel alone in the next leaf
    centers = (coords + 0.5) * h
    field = build_voxelized(coords, centers, None,
                            KernelParams(length_scale=0.3),
                            min_leaf_points=4)
    assert len(field.models) == 1
    assert field.models[0].n_train == 5
    # the lone voxel of leaf (8, 0, 0) trains with, and routes to, the
    # model of leaf (0, 0, 0)
    np.testing.assert_array_equal(field.models[0].train_points, centers)
    assert gp.route(field._tree, centers, 1)[:, 0].tolist() == [0] * 5


def test_build_keeps_small_leaves_when_none_are_big():
    h = 0.1
    coords = np.array([[0, 0, 0], [1, 0, 0], [8, 0, 0], [9, 0, 0], [10, 0, 0]])
    centers = (coords + 0.5) * h
    field = build_voxelized(coords, centers, None,
                            KernelParams(length_scale=0.3),
                            min_leaf_points=4)
    assert len(field.models) == 2
    assert {m.n_train for m in field.models} == {2, 3}


def test_nearest_model_tie_breaks_to_first_origin():
    h = 1.0
    coords = np.array([[4, 0, 0], [4, 1, 0], [4, 0, 1], [4, 1, 1],
                       [11, 0, 0], [11, 1, 0], [11, 0, 1], [11, 1, 1]])
    centers = (coords + 0.5) * h
    field = build_voxelized(coords, centers, None,
                            KernelParams(length_scale=3.0),
                            min_leaf_points=4)
    assert len(field.models) == 2
    mid = 0.5 * (field.centroids[0] + field.centroids[1])
    owner = gp.route(field._tree, mid[None, :], 1)[:, 0]
    assert owner[0] == 0
    near_b = mid + np.array([0.5, 0.0, 0.0])
    assert gp.route(field._tree, near_b[None, :], 1)[0, 0] == 1


def test_query_distance_accuracy_above_plane_patch():
    h = 0.05
    length_scale = 3 * h
    span = np.arange(-8, 9) * h
    gx, gy = np.meshgrid(span, span)
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    field = build_voxelized(*voxelize(world_frame(pts), h)[:3],
                            KernelParams(length_scale=length_scale))
    # on-surface query lands within half a voxel
    d0, _, c, w = field.query_batch([[0.025, 0.025, 0.025]])
    assert d0[0] < h / 2
    assert c is None and w is None
    # off-surface error bounded by max(10% of height, half a voxel) up to 2l
    for z in (h, 2 * h, 3 * h, 4 * h, 2 * length_scale):
        d, v, _, _ = field.query_batch([[0.0, 0.0, z]])
        assert abs(d[0] - z) <= max(0.1 * z, h / 2)
        assert v[0] >= 0.0


def test_query_batch_matches_scalar_query():
    rng = np.random.default_rng(27)
    pts = rng.uniform(-0.3, 0.3, size=(120, 3))
    field = build_voxelized(*voxelize(world_frame(pts), 0.05)[:3],
                            KernelParams(length_scale=0.15))
    queries = rng.uniform(-0.5, 0.5, size=(15, 3))
    d, v, _, _ = field.query_batch(queries)
    for i in range(len(queries)):
        ds, vs, _, _ = field.query_batch(queries[i:i + 1])
        assert ds[0] == pytest.approx(d[i], rel=1e-12)
        assert vs[0] == pytest.approx(v[i], rel=1e-12, abs=1e-300)


def test_query_is_pure():
    rng = np.random.default_rng(28)
    pts = rng.uniform(-0.2, 0.2, size=(60, 3))
    field = build_voxelized(*voxelize(world_frame(pts), 0.05)[:3],
                            KernelParams(length_scale=0.15))
    queries = rng.uniform(-0.4, 0.4, size=(10, 3))
    before = [(m.train_points.copy(), m.alpha_occ.copy()) for m in field.models]
    first = field.query_batch(queries)
    second = field.query_batch(queries)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])
    for m, (pts_before, alpha_before) in zip(field.models, before):
        np.testing.assert_array_equal(m.train_points, pts_before)
        np.testing.assert_array_equal(m.alpha_occ, alpha_before)


def test_query_with_properties_and_clip():
    rng = np.random.default_rng(29)
    pts = rng.uniform(-0.2, 0.2, size=(80, 3))
    props = np.full((80, 1), 0.9)
    field = build_voxelized(*voxelize(world_frame(pts, properties=props),
                                      0.05)[:3],
                            KernelParams(length_scale=0.15),
                            prop_clip=(0.0, 0.5))
    assert field.has_properties
    d, v, c, w = field.query_batch([[0.0, 0.0, 0.0]])
    assert 0.0 <= float(c[0, 0]) <= 0.5
    assert w[0] >= 0.0


def test_query_constant_color_recovered_near_surface():
    h = 0.05
    span = np.arange(-6, 7) * h
    gx, gy = np.meshgrid(span, span)
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    props = np.tile([0.8, 0.3], (len(pts), 1))
    field = build_voxelized(*voxelize(world_frame(pts, properties=props),
                                      h)[:3],
                            KernelParams(length_scale=3 * h))
    # measured voxel centers are where fusion consumes properties
    for q in ([0.125, -0.125, 0.025], [0.225, 0.075, 0.025],
              [-0.175, -0.025, 0.025]):
        _, _, c, _ = field.query_batch([q])
        np.testing.assert_allclose(c[0], [0.8, 0.3], atol=1e-2)


def test_empty_local_field_query_raises():
    field = LocalField([], KernelParams())
    with pytest.raises(EmptyFrame):
        field.query_batch(np.zeros((1, 3)))


def test_models_train_on_exactly_the_voxelized_cells():
    pts = np.array([[0.02, 0.02, 0.02], [0.33, 0.02, 0.02]])
    field = build_voxelized(*voxelize(world_frame(pts), 0.05)[:3],
                            KernelParams(length_scale=0.15),
                            min_leaf_points=1)
    assert len(field.models) == 1
    want = grid_to_world(np.array([[0, 0, 0], [6, 0, 0]]), 0.05)
    np.testing.assert_array_equal(field.models[0].train_points, want)


def reference_hosts(coords, centers, min_leaf_points):
    """build_voxelized's small-leaf merge as it was: one cKDTree query per
    small leaf. Returns each voxel's host leaf index."""
    leaves = group_by(leaf_keys(pack_keys(coords)))
    groups = leaves.rows()
    big = [i for i, g in enumerate(groups) if len(g) >= min_leaf_points]
    merged_into = np.arange(len(groups))
    if big and len(big) < len(groups):
        tree = cKDTree(np.array([centers[groups[i]].mean(axis=0)
                                 for i in big]))
        for i, g in enumerate(groups):
            if len(g) >= min_leaf_points:
                continue
            _, nearest = tree.query(centers[g].mean(axis=0))
            merged_into[i] = big[int(nearest)]
    return merged_into[leaves.inverse]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.integers(1, 6), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_build_matches_per_leaf_merge_and_per_model_training(n, min_points,
                                                             props, seed):
    """One batched host query and one train_many call give the models the
    per-small-leaf query loop and per-model training gave, bit for bit."""
    rng = np.random.default_rng(seed)
    h = 0.05
    coords = np.unique(rng.integers(-20, 20, size=(n, 3)), axis=0)
    centers = grid_to_world(coords, h)
    p = rng.random((len(coords), 2)) if props else None
    params = KernelParams(length_scale=3 * h)
    field = build_voxelized(coords, centers, p, params, min_points)
    hosts = group_by(reference_hosts(coords, centers, min_points)).rows()
    assert len(field.models) == len(hosts)
    for model, rows in zip(field.models, hosts):
        want = gp_oracle.train(centers[rows], params,
                               None if p is None else p[rows])
        np.testing.assert_array_equal(model.train_points, centers[rows])
        for name in ("chol", "alpha_occ", "centroid", "alpha_prop"):
            got, ref = getattr(model, name), getattr(want, name)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert got.tobytes() == ref.tobytes()


def dense_cube_frame(h=0.05):
    """Every voxel of one leaf, each hit twice: with noise2 = 0 its kernel
    matrix is singular to working precision."""
    idx = np.arange(8)
    cube = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), -1)
    pts = (cube.reshape(-1, 3) + 0.5) * h + [0.8, 0.0, 0.0]
    return world_frame(np.concatenate([pts, pts]))


def test_models_count_their_jitter_escalations():
    frame = dense_cube_frame()
    params = KernelParams(length_scale=0.15, noise2=0.0)
    field = build_voxelized(*voxelize(frame, 0.05)[:3], params)
    jitter = [m.jitter for m in field.models]
    assert jitter == [gp_oracle.train(m.train_points, params).jitter
                      for m in field.models]
    assert sum(jitter) > 0
    noisy = build_voxelized(*voxelize(frame, 0.05)[:3],
                            KernelParams(length_scale=0.15))
    assert [m.jitter for m in noisy.models] == [0] * len(noisy.models)
