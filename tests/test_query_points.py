"""Ray carving, endpoint bands, normal augmentation and dedup rules."""

import warnings

import numpy as np
import pytest

from gpfield.grid import SparseGrid, VoxelState, grid_to_world, world_to_grid
from gpfield.query_points import (
    _start,
    _traverse,
    dedup_first,
    estimate_normals,
    generate,
    merge,
    normal_augment,
)
from gpfield.query_points import TestPointSet as PointSet  # collection-safe alias


def test_traverse_axis_aligned_ray():
    h = 0.5
    origin = np.array([0.25, 0.25, 0.25])
    end = np.array([5.25, 0.25, 0.25])
    coords = _traverse(_start(origin, [end], h, extra=0.0))[0]
    want = [(k, 0, 0) for k in range(11)]
    assert [tuple(int(v) for v in c) for c in coords] == want


def test_traverse_from_a_voxel_boundary_along_an_axis_warns_nothing():
    # the origin's y and z lie on voxel boundaries and the first rays have
    # no y or z component, so the unused t_max branches compute 0/0; the
    # last ray's subnormal y component overflows h / |dirn| to inf
    origin = np.array([0.25, 0.0, -1.0])
    ends = np.array([[2.25, 0.0, -1.0], [0.25, 0.0, 1.0], [0.25, 0.0, -1.0],
                     [2.25, 1e-310, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coords, t_enter, ray = _traverse(_start(origin, ends, 0.5, 0.0))
    assert np.isfinite(t_enter).all()
    assert set(ray.tolist()) == {0, 1, 3}
    for r in (0, 3):
        np.testing.assert_array_equal(coords[ray == r][:, 1:],
                                      np.tile([0, -2], ((ray == r).sum(), 1)))


def test_traverse_steps_one_axis_at_a_time():
    rng = np.random.default_rng(30)
    for _ in range(50):
        origin = rng.uniform(-1.0, 1.0, size=3)
        end = origin + rng.uniform(-2.0, 2.0, size=3)
        coords = _traverse(_start(origin, [end], 0.1, extra=0.0))[0]
        steps = np.abs(np.diff(coords, axis=0)).sum(axis=1)
        assert np.all(steps == 1)
        seen = {tuple(int(v) for v in c) for c in coords}
        assert len(seen) == len(coords)


def test_traverse_matches_fine_sampling_oracle():
    rng = np.random.default_rng(31)
    h = 0.1
    for _ in range(200):
        origin = rng.uniform(-2.0, 2.0, size=3)
        end = origin + rng.uniform(-3.0, 3.0, size=3)
        if np.linalg.norm(end - origin) < 1e-3:
            continue
        coords = _traverse(_start(origin, [end], h, extra=0.0))[0]
        got = {tuple(int(v) for v in c) for c in coords}
        # a 1/20-voxel sampler finds every robustly pierced voxel; the
        # DDA may additionally catch corner clips the sampler stepped over
        n = int(np.linalg.norm(end - origin) / h * 20) + 2
        t = np.linspace(0.0, 1.0, n)
        samples = origin + t[:, None] * (end - origin)
        oracle = {tuple(int(v) for v in c) for c in world_to_grid(samples, h)}
        assert oracle <= got
        assert len(got) <= len(oracle) + len(oracle) // 2 + 3
        assert tuple(world_to_grid(origin, h).tolist()) in got
        assert tuple(world_to_grid(end, h).tolist()) in got


def test_generate_band_only_on_empty_grid():
    h = 0.5
    grid = SparseGrid(voxel_size=h)
    origin = np.array([0.25, 0.25, 0.25])
    coords = np.array([[20, 0, 0]])
    centers = grid_to_world(coords, h)
    out = generate(origin, coords, centers, grid, band_width=3)
    got = sorted(tuple(int(v) for v in c) for c in out.coords)
    assert got == [(k, 0, 0) for k in range(17, 24)]
    by_coord = {tuple(int(v) for v in c): int(s)
                for c, s in zip(out.coords, out.signs)}
    for k in range(17, 20):
        assert by_coord[(k, 0, 0)] == 1
    for k in range(20, 24):
        assert by_coord[(k, 0, 0)] == -1
    assert all(out.sources == 1)  # all band points
    np.testing.assert_allclose(out.positions, grid_to_world(out.coords, h))


def test_generate_emits_stale_voxel_with_positive_sign():
    h = 0.5
    grid = SparseGrid(voxel_size=h)
    # stale surface mid-ray: observed and fused near zero
    grid.set((10, 0, 0), VoxelState(distance=0.1, dist_weight=5.0,
                                    observed=True))
    # far-from-surface voxel on the ray: observed but |D| too large
    grid.set((8, 0, 0), VoxelState(distance=4.0, dist_weight=5.0,
                                   observed=True))
    # carved free space: set but never observed
    grid.set((6, 0, 0), VoxelState(distance=1.4, dist_weight=5.0,
                                   observed=False))
    origin = np.array([0.25, 0.25, 0.25])
    coords = np.array([[20, 0, 0]])
    out = generate(origin, coords, grid_to_world(coords, h), grid,
                   band_width=3)
    by_coord = {tuple(int(v) for v in c): i for i, c in enumerate(out.coords)}
    assert (10, 0, 0) in by_coord
    row = by_coord[(10, 0, 0)]
    assert out.signs[row] == 1
    assert out.sources[row] == 0  # ray-carving source
    assert (8, 0, 0) not in by_coord
    assert (6, 0, 0) not in by_coord


def test_generate_dedups_shared_endpoint():
    h = 0.5
    grid = SparseGrid(voxel_size=h)
    origin = np.array([0.25, 0.25, 0.25])
    coords = np.array([[20, 0, 0], [20, 0, 0]])
    out = generate(origin, coords, grid_to_world(coords, h), grid,
                   band_width=2)
    keys = [tuple(int(v) for v in c) for c in out.coords]
    assert len(keys) == len(set(keys))
    assert keys.count((20, 0, 0)) == 1


def test_generate_covers_every_measured_voxel():
    rng = np.random.default_rng(32)
    h = 0.05
    grid = SparseGrid(voxel_size=h)
    origin = np.array([0.0, 0.0, 1.0])
    pts = rng.uniform(-0.5, 0.5, size=(200, 3))
    coords = np.unique(world_to_grid(pts, h), axis=0)
    out = generate(origin, coords, grid_to_world(coords, h), grid,
                   band_width=3)
    emitted = {tuple(int(v) for v in c) for c in out.coords}
    for c in coords:
        assert tuple(int(v) for v in c) in emitted
    # budget: only endpoint bands on an empty grid; an oblique ray can
    # put at most 2*(band+1)*sqrt(3) traversed voxel centers in band
    assert len(out) <= len(coords) * 14


def test_generate_empty_input():
    grid = SparseGrid(voxel_size=0.1)
    out = generate(np.zeros(3), np.zeros((0, 3), dtype=np.int64),
                   np.zeros((0, 3)), grid)
    assert len(out) == 0


def test_estimate_normals_on_plane():
    h = 0.05
    span = np.arange(-10, 11) * h
    gx, gy = np.meshgrid(span, span)
    centers = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    origin = np.array([0.0, 0.0, 2.0])
    normals, valid = estimate_normals(centers, origin, k=10)
    assert valid.all()
    angles = np.arccos(np.clip(normals @ np.array([0.0, 0.0, 1.0]), -1, 1))
    assert angles.max() < 1e-3


def test_estimate_normals_on_sphere_are_radial():
    i = np.arange(2000)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / 2000
    r = np.sqrt(1.0 - z * z)
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    origin = np.array([4.0, 0.0, 0.0])
    normals, valid = estimate_normals(pts, origin, k=10)
    front = pts[:, 0] > 0.3  # hemisphere facing the sensor
    assert valid[front].all()
    cos = np.einsum("ij,ij->i", normals[front], pts[front])
    assert np.all(np.degrees(np.arccos(np.clip(cos, -1, 1))) < 5.0)


def test_estimate_normals_collinear_is_degenerate():
    t = np.linspace(0.0, 1.0, 5)
    pts = np.stack([t, 2 * t, -t], axis=1)
    normals, valid = estimate_normals(pts, np.array([0.0, 0.0, 1.0]), k=4)
    assert not valid.any()
    np.testing.assert_array_equal(normals, 0.0)


def test_estimate_normals_needs_three_points():
    normals, valid = estimate_normals(np.zeros((2, 3)), np.zeros(3))
    assert not valid.any()


def test_normal_augment_axis_aligned_offsets():
    h = 0.5
    coords = np.array([[0, 0, 0]])
    centers = grid_to_world(coords, h)
    normals = np.array([[0.0, 0.0, 1.0]])
    valid = np.array([True])
    out = normal_augment(coords, centers, normals, valid, h, reach=2)
    got = {tuple(int(v) for v in c): int(s)
           for c, s in zip(out.coords, out.signs)}
    assert got == {(0, 0, 1): 1, (0, 0, 2): 1, (0, 0, -1): -1, (0, 0, -2): -1}
    assert all(out.sources == 2)
    np.testing.assert_allclose(out.positions, grid_to_world(out.coords, h))


def test_normal_augment_zero_reach_or_no_valid():
    coords = np.array([[0, 0, 0]])
    centers = grid_to_world(coords, 0.1)
    n = np.array([[0.0, 0.0, 1.0]])
    assert len(normal_augment(coords, centers, n, np.array([True]),
                              0.1, reach=0)) == 0
    assert len(normal_augment(coords, centers, n, np.array([False]),
                              0.1, reach=3)) == 0


def test_dedup_first_keeps_input_order_winner():
    coords = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    pos = grid_to_world(coords, 0.1)
    out = dedup_first(coords, pos, np.array([1, -1, -1]),
                      np.array([0, 1, 2], dtype=np.uint8))
    assert len(out) == 2
    got = {tuple(int(v) for v in c): (int(s), int(src))
           for c, s, src in zip(out.coords, out.signs, out.sources)}
    assert got[(0, 0, 0)] == (1, 0)
    assert got[(1, 0, 0)] == (-1, 1)


def test_merge_earlier_sets_take_precedence():
    h = 0.1
    a = PointSet(np.array([[0, 0, 0]]), grid_to_world([[0, 0, 0]], h),
                 np.array([1]), np.array([1], dtype=np.uint8))
    b = PointSet(np.array([[0, 0, 0], [2, 0, 0]]),
                 grid_to_world([[0, 0, 0], [2, 0, 0]], h),
                 np.array([-1, -1]), np.array([2, 2], dtype=np.uint8))
    out = merge(a, b)
    assert len(out) == 2
    got = {tuple(int(v) for v in c): int(s)
           for c, s in zip(out.coords, out.signs)}
    assert got[(0, 0, 0)] == 1
    assert got[(2, 0, 0)] == -1


def test_grazing_wall_gains_two_sided_coverage():
    h = 0.05
    grid = SparseGrid(voxel_size=h)
    xs = np.arange(0, 20)
    ys = np.arange(0, 20)
    gx, gy = np.meshgrid(xs, ys)
    coords = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size, dtype=int)],
                      axis=1)
    centers = grid_to_world(coords, h)
    origin = np.array([-0.5, 0.5, 0.12])  # grazing incidence along the wall
    rays = generate(origin, coords, centers, grid, band_width=3)
    normals, valid = estimate_normals(centers, origin, k=10)
    aug = normal_augment(coords, centers, normals, valid, h, reach=3)
    both = merge(rays, aug)
    keys = {tuple(int(v) for v in c): int(s)
            for c, s in zip(both.coords, both.signs)}
    covered = 0
    for i, j in zip(gx.ravel(), gy.ravel()):
        above = any(keys.get((i, j, dz)) == 1 for dz in (1, 2, 3))
        below = any(keys.get((i, j, -dz)) == -1 for dz in (1, 2, 3))
        covered += above and below
    assert covered == gx.size
