"""Weighted running fusion against batch-sum and analytic oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpfield import gp
from gpfield.fusion import (FusionConfig, FusionStats, _weight, fuse_frame,
                            fuse_point)
from gpfield.grid import (KEY_BIAS, LEAF_SIZE, SparseGrid, VoxelState,
                          _local_index, group_by, grid_to_world, leaf_keys,
                          local_flat_index, pack_keys, world_to_grid)
from gpfield.local_field import Frame, build_voxelized, voxelize
from gpfield.query_points import generate
from gpfield.query_points import TestPointSet as PointSet  # collection-safe alias
from grid_oracle import leaf_at
from test_query_points import assert_empty_set


def simple_cfg(**kw):
    defaults = dict(v_max=1.0, w_max=1.0, weight_cap=100.0,
                    surface_band=0.1)
    defaults.update(kw)
    return FusionConfig(**defaults)


def test_first_observation_sets_distance_and_weight():
    cfg = simple_cfg()
    s = fuse_point(None, 0.3, 0.5, cfg)
    assert s.distance == pytest.approx(0.3)
    assert s.dist_weight == pytest.approx(0.5)  # 1 - v/v_max
    assert not s.observed
    near = fuse_point(None, 0.05, 0.0, cfg)
    assert near.observed


def test_equal_weight_fusions_average():
    cfg = simple_cfg()
    s = fuse_point(None, 1.0, 0.0, cfg)
    s = fuse_point(s, 3.0, 0.0, cfg)
    assert s.distance == pytest.approx(2.0)
    assert s.dist_weight == pytest.approx(2.0)


def test_running_fusion_matches_batch_weighted_mean():
    rng = np.random.default_rng(33)
    cfg = simple_cfg()
    d = rng.normal(size=30)
    v = rng.uniform(0.0, 0.9, size=30)
    state = None
    for di, vi in zip(d, v):
        state = fuse_point(state, float(di), float(vi), cfg)
    w = 1.0 - v
    want = (w * d).sum() / w.sum()
    assert state.distance == pytest.approx(want, abs=1e-9)
    assert state.dist_weight == pytest.approx(w.sum(), abs=1e-9)


def test_fusion_is_permutation_invariant():
    rng = np.random.default_rng(34)
    cfg = simple_cfg()
    d = rng.normal(size=20)
    v = rng.uniform(0.0, 0.9, size=20)
    order = rng.permutation(20)
    a = None
    b = None
    for i in range(20):
        a = fuse_point(a, float(d[i]), float(v[i]), cfg)
        b = fuse_point(b, float(d[order[i]]), float(v[order[i]]), cfg)
    assert a.distance == pytest.approx(b.distance, abs=1e-9)
    assert a.dist_weight == pytest.approx(b.dist_weight, abs=1e-9)


def test_fused_distance_is_convex_combination():
    rng = np.random.default_rng(35)
    cfg = simple_cfg(weight_cap=5.0)
    d = rng.uniform(-2.0, 2.0, size=50)
    v = rng.uniform(0.0, 2.0, size=50)  # some beyond v_max
    state = None
    for di, vi in zip(d, v):
        state = fuse_point(state, float(di), float(vi), cfg)
    assert d.min() - 1e-12 <= state.distance <= d.max() + 1e-12


def test_weight_grows_strictly_and_caps():
    cfg = simple_cfg(weight_cap=2.5)
    state = None
    prev = 0.0
    for _ in range(10):
        state = fuse_point(state, 1.0, 0.2, cfg)
        assert state.dist_weight > prev or state.dist_weight == 2.5
        assert state.dist_weight <= 2.5
        prev = state.dist_weight
    # capped weight still lets fresh evidence move the estimate
    moved = fuse_point(state, -1.0, 0.0, cfg)
    assert moved.distance < state.distance


def test_weight_bounded_by_fusion_count():
    cfg = simple_cfg()
    state = None
    for n in range(1, 8):
        state = fuse_point(state, 0.5, 0.0, cfg)
        assert state.dist_weight <= n + 1e-12


def test_variance_clip_keeps_weight_positive():
    cfg = simple_cfg()
    s = fuse_point(None, 1.0, 50.0, cfg)  # hopeless variance
    assert s.dist_weight == pytest.approx(0.01)
    assert s.distance == pytest.approx(1.0)


def test_property_fused_only_near_surface():
    cfg = simple_cfg(surface_band=0.1)
    far = fuse_point(None, 0.5, 0.0, cfg, prop=np.array([1.0]),
                     prop_variance=0.0)
    assert far.prop_weight == 0.0
    near = fuse_point(far, 0.05, 0.0, cfg, prop=np.array([1.0]),
                      prop_variance=0.0)
    assert near.prop_weight > 0.0
    np.testing.assert_allclose(near.prop, [1.0])


def test_property_weight_never_exceeds_distance_weight():
    rng = np.random.default_rng(36)
    cfg = simple_cfg(surface_band=0.2)
    state = None
    for _ in range(40):
        state = fuse_point(state, float(rng.uniform(-0.3, 0.3)),
                           float(rng.uniform(0.0, 1.5)), cfg,
                           prop=rng.uniform(size=2),
                           prop_variance=float(rng.uniform(0.0, 1.5)))
        assert state.prop_weight <= state.dist_weight + 1e-9


def test_fuse_point_leaves_input_untouched():
    cfg = simple_cfg()
    a = fuse_point(None, 1.0, 0.0, cfg)
    before = (a.distance, a.dist_weight)
    fuse_point(a, -5.0, 0.0, cfg)
    assert (a.distance, a.dist_weight) == before


def test_fuse_frame_empty_set():
    grid = SparseGrid(voxel_size=0.05)
    tps = generate(np.zeros(3), np.zeros((0, 3)), grid)
    assert_empty_set(tps)
    stats = fuse_frame(grid, tps, np.zeros(0), np.zeros(0), simple_cfg())
    assert stats == FusionStats(0, 0, 0)
    assert grid.n_leaves == 0
    assert list(grid.active_leaves()) == []


def test_fuse_frame_single_leaf_stats_and_activation():
    h = 0.05
    grid = SparseGrid(voxel_size=h)
    coords = np.array([[0, 0, 0], [1, 1, 1], [7, 7, 7]])
    tps = PointSet(coords, grid_to_world(coords, h),
                       np.ones(3), np.ones(3, dtype=np.uint8))
    stats = fuse_frame(grid, tps, np.array([0.01, 0.02, 0.03]),
                       np.zeros(3), simple_cfg())
    assert stats.voxels_fused == 3
    assert stats.leaves_touched == 1
    assert stats.new_leaves == 1
    assert len(list(grid.active_leaves())) == 1
    again = fuse_frame(grid, tps, np.array([0.01, 0.02, 0.03]),
                       np.zeros(3), simple_cfg())
    assert again.new_leaves == 0


def test_fuse_frame_matches_scalar_fuse_point():
    rng = np.random.default_rng(37)
    h = 0.05
    cfg = simple_cfg(surface_band=0.08)
    grid = SparseGrid(voxel_size=h, prop_channels=2)
    oracle = {}
    for _ in range(5):
        coords = np.unique(rng.integers(-12, 12, size=(60, 3)), axis=0)
        tps = PointSet(coords, grid_to_world(coords, h),
                           np.ones(len(coords)),
                           np.ones(len(coords), dtype=np.uint8))
        d = rng.uniform(-0.2, 0.2, size=len(coords))
        v = rng.uniform(0.0, 1.2, size=len(coords))
        props = rng.uniform(size=(len(coords), 2))
        pv = rng.uniform(0.0, 1.2, size=len(coords))
        fuse_frame(grid, tps, d, v, cfg, props=props, prop_variances=pv)
        for i, c in enumerate(coords):
            key = tuple(int(x) for x in c)
            oracle[key] = fuse_point(oracle.get(key), float(d[i]),
                                     float(v[i]), cfg, prop=props[i],
                                     prop_variance=float(pv[i]))
    for key, want in oracle.items():
        got = grid.get(key)
        assert got is not None
        assert got.distance == pytest.approx(want.distance, abs=1e-6)
        assert got.dist_weight == pytest.approx(want.dist_weight, rel=1e-6)
        assert got.observed == want.observed
        np.testing.assert_allclose(got.prop, want.prop, atol=1e-6)
        assert got.prop_weight == pytest.approx(want.prop_weight, rel=1e-6,
                                                abs=1e-6)


def test_fuse_frame_ten_frame_wall_sequence():
    """Fused |D| settles under half a voxel on nearly all wall voxels."""
    rng = np.random.default_rng(38)
    h = 0.05
    params = gp.KernelParams(length_scale=3 * h)
    cfg = FusionConfig(v_max=params.v_max, w_max=params.sigma2,
                       surface_band=2 * h)
    grid = SparseGrid(voxel_size=h)
    origin = np.array([0.4, 0.4, 1.5])
    # leaf-aligned wall (two full 8-voxel tiles per axis) through the
    # voxel-center plane z = h/2
    span = np.arange(0.01, 0.8, 0.02)
    gx, gy = np.meshgrid(span, span)
    for _ in range(10):
        pts = np.stack([gx.ravel(), gy.ravel(),
                        rng.normal(h / 2, 0.01, gx.size)], axis=1)
        frame = Frame(points=pts - origin, rotation=np.eye(3),
                      translation=origin)
        lf = build_voxelized(*voxelize(frame, h)[:3], params)
        coords = world_to_grid(
            np.vstack([m.train_points for m in lf.models]), h)
        coords = np.unique(coords, axis=0)
        tps = generate(origin, grid_to_world(coords, h), grid, band_width=3)
        d, v, _, _ = lf.query_batch(tps.positions)
        fuse_frame(grid, tps, d * tps.signs, v, cfg)
    wall = 0
    good = 0
    for i in range(16):
        for j in range(16):
            s = grid.get((i, j, 0))
            if s is None:
                continue
            wall += 1
            good += abs(s.distance) < h / 2
    assert wall > 200
    assert good / wall >= 0.95


def reference_fuse_frame(grid, points, distances, variances, cfg, props=None,
                         prop_variances=None):
    """The per-leaf loop fuse_frame replaced, kept as its oracle."""
    n = len(points)
    stats = FusionStats(voxels_fused=n)
    if n == 0:
        return stats
    d = np.asarray(distances, dtype=np.float64)
    w = _weight(np.asarray(variances, dtype=np.float64), cfg.v_max)
    near = np.abs(d) <= cfg.surface_band
    fuse_props = props is not None and grid.prop_channels > 0
    if fuse_props:
        wc = np.minimum(_weight(np.asarray(prop_variances, dtype=np.float64),
                                cfg.w_max), w)
    leaves = group_by(leaf_keys(pack_keys(points.coords))).rows()
    before = grid.n_leaves
    flat = local_flat_index(points.coords)
    for rows in leaves:
        idx = flat[rows]
        leaf = leaf_at(grid, points.coords[rows[0]], allocate=True)
        old_d = leaf.distance[idx].astype(np.float64)
        old_w = leaf.dist_weight[idx].astype(np.float64)
        total = old_w + w[rows]
        leaf.distance[idx] = (old_w * old_d + w[rows] * d[rows]) / total
        leaf.dist_weight[idx] = np.minimum(total, cfg.weight_cap)
        leaf.observed[idx] |= near[rows]
        leaf.value_mask[idx] = True
        if fuse_props:
            sel = rows[near[rows]]
            if len(sel):
                lidx = flat[sel]
                old_p = leaf.prop[lidx].astype(np.float64)
                old_pw = leaf.prop_weight[lidx].astype(np.float64)
                wcs = wc[sel]
                pt = old_pw + wcs
                safe = np.maximum(pt, np.finfo(np.float64).tiny)
                leaf.prop[lidx] = (old_pw[:, None] * old_p
                                   + wcs[:, None] * props[sel]) / safe[:, None]
                leaf.prop_weight[lidx] = np.minimum(pt, cfg.weight_cap)
        grid.mark_active(leaf)
    stats.leaves_touched = len(leaves)
    stats.new_leaves = grid.n_leaves - before
    return stats


# leaf origins the random frames draw from: around the origin and at both
# ends of the key range
_FRAME_LEAVES = [(0, 0, 0), (8, 0, 0), (-8, 0, 8), (0, -16, 0),
                 (-KEY_BIAS,) * 3, (KEY_BIAS - LEAF_SIZE,) * 3,
                 (-KEY_BIAS, KEY_BIAS - LEAF_SIZE, 0)]
_BAND = 0.1


def random_frame(rng, leaves, n, channels):
    """n voxels of the given leaves, deduplicated, with distances on both
    sides of the surface band, variances past v_max and properties."""
    origin = np.asarray([_FRAME_LEAVES[i] for i in leaves])[
        rng.integers(0, len(leaves), n)]
    coords = np.unique(origin + rng.integers(0, LEAF_SIZE, (n, 3)), axis=0)
    m = len(coords)
    points = PointSet(coords, grid_to_world(coords, 0.05), np.ones(m),
                      np.ones(m, dtype=np.uint8))
    d = rng.uniform(-3 * _BAND, 3 * _BAND, m)
    d[: m // 4] = rng.choice([-_BAND, _BAND], m // 4)     # on the band edge
    v = rng.uniform(0.0, 1.5, m)
    props = rng.uniform(size=(m, channels)) if channels else None
    pv = rng.uniform(0.0, 1.5, m) if channels else None
    return points, d, v, props, pv


frames = st.lists(st.tuples(st.lists(st.integers(0, len(_FRAME_LEAVES) - 1),
                                     min_size=1, max_size=4),
                            st.integers(1, 300)),
                  min_size=1, max_size=5)


def assert_same_grid(got, want):
    rows = want.n_leaves + 1
    assert got.n_leaves == want.n_leaves
    for name, a in want.pool.items():
        b = got.pool[name]
        assert b.dtype == a.dtype and b.shape[1:] == a.shape[1:]
        np.testing.assert_array_equal(b[:rows], a[:rows], err_msg=name)
    assert ([leaf.origin for leaf in got.leaves()]
            == [leaf.origin for leaf in want.leaves()])
    assert ([leaf.origin for leaf in got.active_leaves()]
            == [leaf.origin for leaf in want.active_leaves()])
    assert got.clock == want.clock


@settings(max_examples=60, deadline=None)
@given(frames=frames, channels=st.sampled_from([0, 3]),
       cap=st.sampled_from([1.5, 100.0]), seed=st.integers(0, 2 ** 32 - 1))
@example(frames=[([4, 5, 6], 200), ([0, 4], 300), ([5], 50)], channels=3,
         cap=1.5, seed=0)
def test_fuse_frame_matches_per_leaf_oracle(frames, channels, cap, seed):
    """Every pool array, leaf order, active order, stamp and stat equals
    the per-leaf loop's, bit for bit, frame after frame."""
    rng = np.random.default_rng(seed)
    cfg = simple_cfg(weight_cap=cap, surface_band=_BAND)
    got = SparseGrid(voxel_size=0.05, prop_channels=channels)
    want = SparseGrid(voxel_size=0.05, prop_channels=channels)
    for leaves, n in frames:
        points, d, v, props, pv = random_frame(rng, leaves, n, channels)
        assert (fuse_frame(got, points, d, v, cfg, props, pv)
                == reference_fuse_frame(want, points, d, v, cfg, props, pv))
        assert_same_grid(got, want)
        got.clear_active()
        want.clear_active()


@settings(max_examples=40, deadline=None)
@given(frames=frames, channels=st.sampled_from([0, 3]),
       cap=st.sampled_from([1.5, 100.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_each_fused_voxel_is_fuse_point_of_its_prior_state(frames, channels,
                                                           cap, seed):
    """A fused voxel holds fuse_point of its state before the frame, its
    float64 values stored as float32."""
    rng = np.random.default_rng(seed)
    cfg = simple_cfg(weight_cap=cap, surface_band=_BAND)
    grid = SparseGrid(voxel_size=0.05, prop_channels=channels)
    for leaves, n in frames:
        points, d, v, props, pv = random_frame(rng, leaves, n, channels)
        prior = []
        for c in points.coords:
            leaf = leaf_at(grid, c)
            if leaf is None:
                prior.append(None)
                continue
            i = _local_index(c)
            prior.append(VoxelState(
                float(leaf.distance[i]), float(leaf.dist_weight[i]),
                leaf.prop[i].astype(np.float64), float(leaf.prop_weight[i]),
                bool(leaf.observed[i])))
        fuse_frame(grid, points, d, v, cfg, props, pv)
        for k, c in enumerate(points.coords):
            want = fuse_point(prior[k], float(d[k]), float(v[k]), cfg,
                              None if props is None else props[k],
                              0.0 if pv is None else float(pv[k]))
            got = grid.get(tuple(c.tolist()))
            assert got.distance == np.float32(want.distance)
            assert got.dist_weight == np.float32(want.dist_weight)
            assert got.observed == want.observed
            if channels:
                np.testing.assert_array_equal(
                    got.prop, np.asarray(want.prop).astype(np.float32))
                assert got.prop_weight == np.float32(want.prop_weight)
