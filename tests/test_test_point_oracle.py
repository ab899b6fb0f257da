"""Test-point generation and grid lookup against the code they replaced.

``query_points._traverse`` drops rays from its working arrays as they
finish, ``query_points.ray_rows`` starts each ray where the map or the
endpoint band starts and computes voxel-centre projections only near each
ray's endpoint, and ``SparseGrid.lookup`` finds leaves with a binary
search over cached sorted leaf keys. The reference functions below are
the lockstep DDA, the classify-every-voxel generator, the full-walk
``ray_rows`` and the per-leaf lookup loop as they were; every output
array must equal theirs in dtype, shape and bits.
"""

import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfield import query_points
from gpfield.grid import (KEY_BIAS, LEAF_SIZE, LEAF_VOXELS, SparseGrid,
                          VoxelState, _local_index, grid_to_world, group_by,
                          leaf_keys, local_flat_index, pack_keys)
from gpfield.query_points import (SOURCE_BAND, SOURCE_RAY, _start, _traverse,
                                  merge)
from grid_oracle import leaf_at

# -- reference: the lockstep DDA, generator and lookup as they were ----------


def reference_traverse(origin, ends, voxel_size, extra):
    o = np.asarray(origin, dtype=np.float64).reshape(3)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 3)
    n = len(ends)
    h = voxel_size
    delta = ends - o
    rng = np.linalg.norm(delta, axis=1)
    ok = rng > 1e-12
    dirn = np.zeros_like(delta)
    dirn[ok] = delta[ok] / rng[ok, None]
    stop = rng + extra

    cur = np.tile(np.floor(o / h).astype(np.int64), (n, 1))
    step = np.where(dirn > 0, 1, -1).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_delta = np.where(dirn != 0, h / np.abs(dirn), np.inf)
        lo = np.floor(o / h) * h
        t_max = np.where(dirn > 0, (lo + h - o) / dirn,
                         np.where(dirn < 0, (lo - o) / dirn, np.inf))

    alive = ok.copy()
    t_enter = np.zeros(n)
    coords_parts = [cur.copy()[alive]]
    t_parts = [t_enter[alive]]
    ray_parts = [np.flatnonzero(alive)]
    while alive.any():
        axis = np.argmin(t_max, axis=1)
        rows = np.arange(n)
        t_next = t_max[rows, axis]
        cur[rows, axis] += step[rows, axis]
        t_max[rows, axis] += t_delta[rows, axis]
        t_enter = t_next
        alive &= t_enter <= stop
        if not alive.any():
            break
        coords_parts.append(cur[alive].copy())
        t_parts.append(t_enter[alive])
        ray_parts.append(np.flatnonzero(alive))
    return (np.concatenate(coords_parts),
            np.concatenate(t_parts),
            np.concatenate(ray_parts))


def reference_lookup(grid, coords):
    coords = np.asarray(coords, dtype=np.int64)
    n = len(coords)
    found = np.zeros(n, dtype=bool)
    dist = np.zeros(n, dtype=np.float64)
    weight = np.zeros(n, dtype=np.float64)
    obs = np.zeros(n, dtype=bool)
    if n == 0:
        return found, dist, weight, obs
    groups = group_by(leaf_keys(pack_keys(coords)))
    flat = local_flat_index(coords)
    for rows in groups.rows():
        leaf = leaf_at(grid, coords[rows[0]])
        if leaf is None:
            continue
        idx = flat[rows]
        mask = leaf.value_mask[idx]
        rows = rows[mask]
        idx = idx[mask]
        found[rows] = True
        dist[rows] = leaf.distance[idx]
        weight[rows] = leaf.dist_weight[idx]
        obs[rows] = leaf.observed[idx]
    return found, dist, weight, obs


def reference_generate(origin, centers, grid, band_width=3):
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    if len(centers) == 0:
        return query_points.TestPointSet(np.zeros((0, 3)), np.zeros((0, 3)),
                                         [], [])
    h = grid.voxel_size
    band = band_width * h
    vox, t_enter, ray = reference_traverse(origin, centers, h,
                                           extra=(band_width + 2) * h)

    dirs = centers - origin
    rng = np.linalg.norm(dirs, axis=1)
    dirn = dirs / np.maximum(rng, 1e-300)[:, None]
    vox_centers = grid_to_world(vox, h)
    t_center = np.einsum("ij,ij->i", vox_centers - origin, dirn[ray])

    in_band = np.abs(t_center - rng[ray]) <= band
    before = t_center < rng[ray] - band
    emit = in_band.copy()
    if before.any():
        cand = np.flatnonzero(before)
        found, dist, _, observed = reference_lookup(grid, vox[cand])
        stale = found & observed & (np.abs(dist) <= band)
        emit[cand[stale]] = True

    keep = np.flatnonzero(emit)
    signs = np.where(t_center[keep] < rng[ray[keep]], 1, -1)
    sources = np.where(in_band[keep], SOURCE_BAND, SOURCE_RAY).astype(np.uint8)
    return merge(query_points.TestPointSet(vox[keep], vox_centers[keep],
                                           signs, sources))


def full_lockstep_ray_rows(origin, centers, grid, band_width=3):
    """ray_rows as it was: the lockstep from every ray's state at t = 0,
    each voxel classified and every carving candidate looked up."""
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    if len(centers) == 0:
        return query_points.TestPointSet(np.zeros((0, 3)), np.zeros((0, 3)),
                                         [], [])
    h = grid.voxel_size
    band = band_width * h
    vox, t_enter, ray = _traverse(_start(origin, centers, h,
                                         extra=(band_width + 2) * h))

    dirs = centers - origin
    rng = np.linalg.norm(dirs, axis=1)
    dirn = dirs / np.maximum(rng, 1e-300)[:, None]
    r = rng[ray]

    gap = t_enter - r
    near = np.flatnonzero(np.abs(gap) <= band + 2.0 * h)
    r_near = r[near]
    t_center = np.einsum("ij,ij->i",
                         grid_to_world(vox.take(near, axis=0), h) - origin,
                         dirn.take(ray.take(near), axis=0))
    in_band = np.zeros(len(vox), dtype=bool)
    in_band[near] = np.abs(t_center - r_near) <= band
    before = gap < 0.0
    before[near] = t_center < r_near - band
    behind = np.zeros(len(vox), dtype=bool)
    behind[near] = ~(t_center < r_near)

    emit = in_band.copy()
    cand = np.flatnonzero(before)
    if len(cand):
        found, dist, _, observed = grid.lookup(vox.take(cand, axis=0))
        stale = found & observed & (np.abs(dist) <= band)
        emit[cand[stale]] = True

    keep = np.flatnonzero(emit)
    signs = np.where(behind[keep], -1, 1)
    sources = np.where(in_band[keep], SOURCE_BAND, SOURCE_RAY).astype(np.uint8)
    out = vox.take(keep, axis=0)
    return query_points.TestPointSet(out, grid_to_world(out, h), signs,
                                     sources)


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


def point_set_arrays(tps):
    return tps.coords, tps.positions, tps.signs, tps.sources


# -- inputs -------------------------------------------------------------------

VOXEL_SIZES = [0.05, 0.1, 0.25, 1.0]


@st.composite
def origins(draw, h):
    """Voxel-unit origins: on voxel boundaries, at centres or anywhere,
    negative coordinates included."""
    cells = draw(st.tuples(*[st.integers(-12, 12)] * 3))
    kind = draw(st.sampled_from(["boundary", "centre", "any"]))
    if kind == "boundary":
        frac = np.zeros(3)
    elif kind == "centre":
        frac = np.full(3, 0.5)
    else:
        frac = np.array(draw(st.tuples(*[st.floats(0.0, 1.0,
                                                   exclude_max=True)] * 3)))
    return (np.asarray(cells, dtype=np.float64) + frac) * h


@st.composite
def ray_ends(draw, origin, h):
    """Ray endpoints around the origin: arbitrary, axis-aligned, on voxel
    boundaries, zero-length, and duplicates of an earlier endpoint."""
    n = draw(st.integers(1, 24))
    ends = []
    for _ in range(n):
        kind = draw(st.sampled_from(["any", "axis", "boundary", "zero", "dup"]))
        off = np.array(draw(st.tuples(*[st.floats(-30.0, 30.0)] * 3))) * h
        if kind == "axis":
            keep = draw(st.integers(0, 2))
            off = np.where(np.arange(3) == keep, off, 0.0)
        elif kind == "boundary":
            off = np.round(off / h) * h
        elif kind == "zero":
            off = np.zeros(3)
        if kind == "dup" and ends:
            ends.append(ends[draw(st.integers(0, len(ends) - 1))])
        else:
            ends.append(origin + off)
    return np.array(ends)


def fill_grid(grid, rng, leaf_range, n_leaves):
    """Allocated leaves beside unallocated ones, holding stale (observed,
    |d| within a few voxels), unobserved and far voxels and unset ones."""
    h = grid.voxel_size
    for _ in range(n_leaves):
        lc = rng.integers(-leaf_range, leaf_range + 1, size=3) * LEAF_SIZE
        leaf = leaf_at(grid, tuple(int(v) for v in lc), allocate=True)
        leaf.value_mask |= rng.random(LEAF_VOXELS) < 0.6
        leaf.observed |= rng.random(LEAF_VOXELS) < 0.6
        leaf.distance[:] = (rng.uniform(-6.0, 6.0, LEAF_VOXELS) * h
                            ).astype(np.float32)
        leaf.dist_weight[:] = rng.random(LEAF_VOXELS).astype(np.float32)


# -- traversal -----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(VOXEL_SIZES), st.integers(0, 6))
def test_traverse_matches_lockstep_reference(data, h, extra_voxels):
    origin = data.draw(origins(h))
    ends = data.draw(ray_ends(origin, h))
    got = _traverse(_start(origin, ends, h, extra=extra_voxels * h))
    assert_same_arrays(got, reference_traverse(origin, ends, h,
                                               extra_voxels * h))


def test_traverse_without_rays_or_with_only_zero_length_rays():
    origin = np.array([0.05, -0.05, 0.0])
    for ends in (np.zeros((0, 3)), np.array([origin, origin])):
        got = _traverse(_start(origin, ends, 0.1, extra=0.3))
        assert_same_arrays(got, reference_traverse(origin, ends, 0.1, 0.3))
        assert len(got[0]) == 0


# -- generation ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(VOXEL_SIZES), st.integers(0, 4),
       st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_generate_matches_classify_every_voxel_reference(data, h, band_width,
                                                         n_leaves, seed):
    """Rays through a grid that is empty or holds stale, unobserved and
    far voxels in allocated leaves next to unallocated ones."""
    grid = SparseGrid(voxel_size=h)
    fill_grid(grid, np.random.default_rng(seed), 3, n_leaves)
    origin = data.draw(origins(h))
    centers = data.draw(ray_ends(origin, h))
    got = query_points.generate(origin, centers, grid, band_width)
    want = reference_generate(origin, centers, grid, band_width)
    assert_same_arrays(point_set_arrays(got), point_set_arrays(want))


def test_generate_reference_cases_reach_every_branch():
    """The scenes above emit carving points, band points on both sides of
    the endpoint and skip stale-free voxels before the band."""
    rng = np.random.default_rng(5)
    h = 0.1
    grid = SparseGrid(voxel_size=h)
    fill_grid(grid, rng, 2, 40)
    origin = np.array([0.0, 0.0, 0.0])
    centers = rng.uniform(-1.5, 1.5, size=(200, 3))
    got = query_points.generate(origin, centers, grid, 2)
    want = reference_generate(origin, centers, grid, 2)
    assert_same_arrays(point_set_arrays(got), point_set_arrays(want))
    ray = got.sources == SOURCE_RAY
    assert ray.sum() > 50 and (got.signs[ray] == 1).all()
    band = got.sources == SOURCE_BAND
    assert (got.signs[band] == 1).any() and (got.signs[band] == -1).any()
    vox, _, _ = reference_traverse(origin, centers, h, 4 * h)
    assert len(np.unique(vox, axis=0)) > len(got) + 1000


def test_generate_matches_reference_on_rendered_frames(monkeypatch):
    """Every frame of a short sphere orbit, against the map it saw."""
    from gpfield.pipeline import Pipeline, PipelineConfig
    from gpfield.scene import (Primitive, SensorModel, SyntheticScene,
                               orbit_trajectory, render_frame)

    seen = []
    real = query_points.ray_rows

    # the pipeline builds the ray rows and deduplicates them with the
    # normal rows; generate gives those rows deduplicated
    def spy(origin, centers, grid, band_width=3, stats=None):
        want = reference_generate(origin, centers, grid, band_width)
        full = full_lockstep_ray_rows(origin, centers, grid, band_width)
        rows = real(origin, centers, grid, band_width, stats=stats)
        assert_same_arrays(point_set_arrays(rows), point_set_arrays(full))
        got = query_points.merge(rows)
        seen.append(len(got))
        assert_same_arrays(point_set_arrays(got), point_set_arrays(want))
        return rows

    monkeypatch.setattr(query_points, "ray_rows", spy)
    scene = SyntheticScene([Primitive("sphere", radius=1.0)])
    sensor = SensorModel(kind="pinhole", width=32, height=24, focal=30.0,
                         max_range=8.0, noise_sigma=0.005, seed=3)
    pipe = Pipeline(PipelineConfig(voxel_size=0.05, length_scale=0.1,
                                   d_max=0.55))
    for pose in orbit_trajectory([0, 0, 0], 2.5, 12)[:4]:
        pipe.integrate_frame(render_frame(scene, sensor, pose))
    assert len(seen) == 4 and min(seen) > 0


# -- ray rows from where the map starts ----------------------------------------


def assert_matches_full_lockstep(origin, centers, grid, band_width):
    """ray_rows equals the full walk bit for bit, or both raise the same
    ValueError; its step counts add up to the full walk's rows."""
    h = grid.voxel_size
    try:
        want = full_lockstep_ray_rows(origin, centers, grid, band_width)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            query_points.ray_rows(origin, centers, grid, band_width)
        return None
    stats = SimpleNamespace()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = query_points.ray_rows(origin, centers, grid, band_width,
                                    stats=stats)
    assert_same_arrays(point_set_arrays(got), point_set_arrays(want))
    full = _traverse(_start(origin, centers, h, (band_width + 2) * h))
    assert stats.n_ray_steps + stats.n_ray_steps_skipped == len(full[0])
    return stats


@st.composite
def leaf_lattice_rays(draw, h):
    """An origin on a leaf corner, a voxel boundary, a voxel centre or
    anywhere, and rays from it: arbitrary, axis-aligned, along leaf edges
    and through leaf corners (exact ties of crossing times between axes),
    zero-length, and repeats."""
    cells = np.array(draw(st.tuples(*[st.integers(-3, 3)] * 3))) * LEAF_SIZE
    kind = draw(st.sampled_from(["corner", "boundary", "centre", "any"]))
    if kind == "corner":
        origin = cells.astype(np.float64)
    else:
        origin = (cells + np.array(draw(st.tuples(
            *[st.integers(0, LEAF_SIZE - 1)] * 3)))).astype(np.float64)
        if kind == "centre":
            origin += 0.5
        elif kind == "any":
            origin += np.array(draw(st.tuples(
                *[st.floats(0.0, 1.0, exclude_max=True)] * 3)))
    ends = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["any", "axis", "edge", "corner", "zero",
                                     "dup"]))
        leaves = np.array(draw(st.tuples(*[st.integers(-6, 6)] * 3)))
        off = np.array(draw(st.tuples(*[st.floats(-48.0, 48.0)] * 3)))
        if kind == "axis":
            off = np.where(np.arange(3) == draw(st.integers(0, 2)), off, 0.0)
        elif kind == "edge":
            # two equal components: the ray crosses those axes together
            a, b = draw(st.permutations(range(3)))[:2]
            off[b] = off[a] = LEAF_SIZE * leaves[a]
        elif kind == "corner":
            off = LEAF_SIZE * np.abs(leaves[0]) * np.sign(leaves)
        elif kind == "zero":
            off = np.zeros(3)
        if kind == "dup" and ends:
            ends.append(ends[draw(st.integers(0, len(ends) - 1))])
        else:
            ends.append(origin + off)
    return origin * h, np.array(ends) * h


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([0.05, 0.25, 1.0]), st.integers(0, 10),
       st.integers(0, 40), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_ray_rows_matches_full_lockstep(data, h, band_width, n_leaves,
                                        sensor_leaf, seed):
    """Grids of allocated leaves around the sensor, the sensor's own leaf
    allocated or not, and bands up to ten voxels, which reach back into
    allocated leaves."""
    origin, centers = data.draw(leaf_lattice_rays(h))
    grid = SparseGrid(voxel_size=h)
    fill_grid(grid, np.random.default_rng(seed), 5, n_leaves)
    if sensor_leaf:
        leaf_at(grid, np.floor(origin / h).astype(np.int64), allocate=True)
    assert_matches_full_lockstep(origin, centers, grid, band_width)


def test_ray_rows_cases_start_rays_late_and_early():
    """The cases above skip rays into allocated leaves and to the band,
    and skip nothing with the sensor in an allocated leaf."""
    rng = np.random.default_rng(7)
    h = 0.25
    grid = SparseGrid(voxel_size=h)
    fill_grid(grid, rng, 5, 40)
    origin = np.array([0.0, 0.0, 0.0])
    centers = rng.uniform(-12.0, 12.0, size=(300, 3))
    stats = assert_matches_full_lockstep(origin, centers, grid, 3)
    assert stats.n_ray_steps_skipped > stats.n_ray_steps > 0
    empty = SparseGrid(voxel_size=h)
    stats = assert_matches_full_lockstep(origin, centers, empty, 3)
    assert stats.n_ray_steps_skipped > 4 * stats.n_ray_steps
    leaf_at(grid, (0, 0, 0), allocate=True)
    stats = assert_matches_full_lockstep(origin, centers, grid, 3)
    assert stats.n_ray_steps_skipped == 0


def test_ray_rows_outside_the_key_range_raises_as_the_full_walk():
    """A sensor outside the key range, and rays that leave it before their
    band, raise the lookup's ValueError; short rays from outside it raise
    nothing (their voxels are all band voxels) in either."""
    h = 0.5
    grid = SparseGrid(voxel_size=h)
    fill_grid(grid, np.random.default_rng(3), 2, 10)
    message = re.escape(f"voxel coordinates outside [-{KEY_BIAS}, "
                        f"{KEY_BIAS}) cannot be keyed")
    edge = (KEY_BIAS - 2) * h
    outside = np.array([KEY_BIAS * h + 3.0, 0.3, -0.2])
    for origin, centers in (
            (outside, outside + [[4.0, 1.0, 0.0], [-30.0, 2.0, 1.0]]),
            (np.array([edge, 0.2, 0.1]), np.array([[edge + 20.0, 0.7, 0.6]])),
            (np.array([-edge, 0.2, 0.1]), np.array([[-edge - 20.0, 0.2, 0.1]]))):
        for rows in (full_lockstep_ray_rows, query_points.ray_rows):
            with pytest.raises(ValueError, match=message):
                rows(origin, centers, grid, 3)
    short = outside + [[0.6, 0.0, 0.0]]
    got = assert_matches_full_lockstep(outside, short, grid, 3)
    assert got.n_ray_steps_skipped == 0
    # a skip past the edge raises by itself, whether or not a row of the
    # walk after it would reach the lookup
    rays = _start([edge, 0.2, 0.1], [[edge + 20.0, 0.7, 0.6]], h, 0.0)
    with pytest.raises(ValueError, match=message):
        query_points._skip(rays, grid, np.array([15.0]))
    assert query_points._skip(rays, grid, np.array([0.5]))[1].all()


# -- lookup --------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-3, 3), st.booleans()), max_size=10),
       st.integers(0, 300), st.integers(0, 2 ** 32 - 1))
def test_lookup_matches_per_leaf_reference(leaves, n_queries, seed):
    """Allocated, unallocated and edge-of-range leaves, duplicate rows."""
    rng = np.random.default_rng(seed)
    grid = SparseGrid(voxel_size=0.1)
    edge = KEY_BIAS - LEAF_SIZE
    for i, j, k, at_edge in leaves:
        origin = (i * LEAF_SIZE, j * LEAF_SIZE, k * LEAF_SIZE)
        if at_edge:
            origin = (edge, -KEY_BIAS, edge) if i % 2 else (-KEY_BIAS,) * 3
        leaf = leaf_at(grid, origin, allocate=True)
        leaf.value_mask |= rng.random(LEAF_VOXELS) < 0.5
        leaf.observed |= rng.random(LEAF_VOXELS) < 0.5
        leaf.distance[:] = rng.normal(size=LEAF_VOXELS).astype(np.float32)
        leaf.dist_weight[:] = rng.random(LEAF_VOXELS).astype(np.float32)
    near = rng.integers(-4 * LEAF_SIZE, 4 * LEAF_SIZE, size=(n_queries, 3))
    ends = np.array([[edge, -KEY_BIAS, edge], [-KEY_BIAS] * 3, [edge] * 3],
                    dtype=np.int64)
    queries = np.concatenate([near, ends + rng.integers(0, LEAF_SIZE, (3, 3))])
    queries = np.concatenate([queries, queries[rng.integers(
        0, len(queries), size=len(queries) // 3)]])
    assert_same_arrays(grid.lookup(queries), reference_lookup(grid, queries))
    assert_same_arrays(grid.lookup(queries[:0]),
                       reference_lookup(grid, queries[:0]))


def test_lookup_sees_leaves_created_after_an_earlier_call():
    """A sorted-key cache kept across leaf allocations would miss these."""
    grid = SparseGrid(voxel_size=0.1)
    queries = np.array([[1, 2, 3], [-9, 0, 4], [40, -17, 8], [1, 2, 3]])
    grid.set((1, 2, 3), VoxelState(distance=0.5, dist_weight=1.0,
                                   observed=True))
    assert_same_arrays(grid.lookup(queries), reference_lookup(grid, queries))
    # allocation through set() and through allocate()
    grid.set((-9, 0, 4), VoxelState(distance=-0.25, dist_weight=2.0,
                                    observed=True))
    leaf = leaf_at(grid, (40, -17, 8), allocate=True)
    n = _local_index((40, -17, 8))
    leaf.value_mask[n] = True
    leaf.distance[n] = 0.125
    got = grid.lookup(queries)
    assert_same_arrays(got, reference_lookup(grid, queries))
    assert got[0].tolist() == [True, True, True, True]
    assert got[1].tolist() == [0.5, -0.25, 0.125, 0.5]


def test_lookup_on_empty_grid_still_checks_the_key_range():
    grid = SparseGrid(voxel_size=0.1)
    assert_same_arrays(grid.lookup(np.array([[0, 0, 0]])),
                       reference_lookup(grid, np.array([[0, 0, 0]])))
    with pytest.raises(ValueError):
        grid.lookup(np.array([[0, 0, 0], [KEY_BIAS, 0, 0]]))
