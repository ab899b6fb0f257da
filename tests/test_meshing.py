"""Surface extraction and PLY round trips."""

import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfield import meshing
from gpfield.grid import (KEY_BIAS, LEAF_SIZE, LEAF_VOXELS, SparseGrid,
                          VoxelState, _local_index, grid_to_world,
                          leaf_origin_of, pack_keys, world_to_grid)
from gpfield.mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from gpfield.meshing import (
    TriangleMesh,
    crossings_by_leaf,
    group_edges,
    marching_cubes,
    mesh_leaf,
    mesh_leaves,
)
from gpfield.pipeline import Pipeline, PipelineConfig
from gpfield.ply import _PROP_TYPES, IoFailure, read_ply, write_mesh
from gpfield.scene import (Primitive, SensorModel, SyntheticScene, look_at,
                           orbit_trajectory, render_frame)

import mesh_oracle
from grid_oracle import leaf_at
import ply_oracle

H = 0.05


def fill_sdf_band(grid, sdf, band, lo, hi, props=None):
    """Store exact SDF values at every voxel center inside |sdf| <= band."""
    axes = [np.arange(lo, hi)] * 3
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = grid_to_world(coords, grid.voxel_size)
    d = sdf(centers)
    keep = np.abs(d) <= band
    for c, di, p in zip(coords[keep], d[keep], centers[keep]):
        state = VoxelState(distance=float(di), dist_weight=1.0, observed=True)
        if props is not None:
            state.prop = props(p)
            state.prop_weight = 1.0
        grid.set(c, state)
    return int(keep.sum())


def sphere_sdf(p, r=1.0):
    return np.linalg.norm(np.atleast_2d(p), axis=1) - r


def sphere_grid(h=H, r=1.0, band=3, props=None):
    grid = SparseGrid(voxel_size=h, prop_channels=1 if props else 0)
    n = int(np.ceil((r + (band + 2) * h) / h))
    fill_sdf_band(grid, lambda p: sphere_sdf(p, r), band * h, -n, n + 1,
                  props=props)
    return grid


def reference_mesh_leaf(grid, origin):
    """Cell-by-cell marching cubes, the loop form mesh_leaf must match.

    Returns (edges, positions, props, triangles) as mesh_leaf's LeafMesh
    holds them: vertices in order of first use, triangles as local
    vertex indices.
    """
    origin = tuple(int(v) for v in origin)
    h = grid.voxel_size
    dist, obs, prop = grid.gather_block(origin, (LEAF_SIZE + 1,) * 3)
    verts = {}
    tris = []
    org = np.asarray(origin, dtype=np.int64)
    for cx in range(LEAF_SIZE):
        for cy in range(LEAF_SIZE):
            for cz in range(LEAF_SIZE):
                corners = [(cx + ox, cy + oy, cz + oz)
                           for ox, oy, oz in CORNER_OFFSETS]
                if not all(obs[c] for c in corners):
                    continue
                case = sum(1 << i for i, c in enumerate(corners) if dist[c] < 0)
                keys = [None] * 12
                for e, (a, b) in enumerate(EDGE_CORNERS):
                    if (dist[corners[a]] < 0) == (dist[corners[b]] < 0):
                        continue        # corners of one sign: not crossed
                    lo = min(corners[a], corners[b])
                    hi = max(corners[a], corners[b])
                    axis = [i for i in range(3) if lo[i] != hi[i]][0]
                    key = tuple(int(o + l) for o, l in zip(org, lo)) + (axis,)
                    keys[e] = key
                    if key in verts:
                        continue
                    t = dist[lo] / (dist[lo] - dist[hi])
                    pos = (org + np.array(lo, dtype=np.float64) + 0.5) * h
                    pos[axis] += t * h
                    verts[key] = (pos, prop[lo] + t * (prop[hi] - prop[lo]))
                row = TRI_TABLE[case]
                for i in range(0, 15, 3):
                    if row[i] < 0:
                        break
                    tris.append((keys[row[i]], keys[row[i + 1]],
                                 keys[row[i + 2]]))
    index = {key: i for i, key in enumerate(verts)}
    return (np.array(list(verts), dtype=np.int64).reshape(-1, 4),
            np.array([pos for pos, _ in verts.values()]).reshape(-1, 3),
            np.array([pv for _, pv in verts.values()]).reshape(
                len(verts), grid.prop_channels),
            np.array([[index[k] for k in tri] for tri in tris],
                     dtype=np.int64).reshape(-1, 3))


def test_mesh_leaf_matches_cell_loop_reference():
    rng = np.random.default_rng(40)
    noisy = SparseGrid(voxel_size=H, prop_channels=2)
    for c in rng.integers(-12, 12, size=(3000, 3)):
        noisy.set(tuple(int(v) for v in c),
                  VoxelState(float(rng.normal(0.0, H)), 1.0,
                             rng.uniform(size=2), 1.0, bool(rng.uniform() < 0.9)))
    grids = [sphere_grid(props=lambda p: np.array([p[0]])), noisy]
    n_leaves = 0
    for grid in grids:
        for leaf in grid.leaves():
            want = reference_mesh_leaf(grid, leaf.origin)
            assert_leaf_mesh_equals(mesh_leaf(grid, leaf.origin), want)
            n_leaves += len(want[3]) > 0
    assert n_leaves > 50


def test_crossed_edges_are_the_edges_the_triangles_use():
    """The corner-sign rule gives, for every case, exactly the edges
    TRI_TABLE's triangles use, and a crossing in cases 1 to 254 only."""
    for case, row in enumerate(TRI_TABLE):
        used = {e for e in row if e >= 0}
        assert set(np.flatnonzero(meshing._CASE_EDGES[case])) == used
    assert meshing._CROSSED.tolist() == [0 < case < 255 for case in range(256)]


def assert_leaf_mesh_equals(got, want):
    """A LeafMesh equals reference_mesh_leaf's arrays in shape, dtype and
    value."""
    for name, arr in zip(("edges", "positions", "props", "triangles"), want):
        assert getattr(got, name).shape == arr.shape
        assert getattr(got, name).dtype == arr.dtype
        np.testing.assert_array_equal(getattr(got, name), arr)


# low corner, per axis, of the 2^3 leaves a random grid allocates from: at
# the origin, at the top of the key range (upper neighbours past its end)
# and at the bottom
_CLUSTER_CORNERS = (0, KEY_BIAS - 2 * LEAF_SIZE, -KEY_BIAS)
_LOCAL = np.argwhere(np.ones((LEAF_SIZE,) * 3, dtype=bool))


def random_leaf_grid(seed, channels, corner, density, observed=0.9,
                     planted=0):
    """Leaves around corner, each allocated with probability 0.7, holding
    random distances, masks and properties; values outside the value
    mask are garbage that a reader must ignore. A voxel is observed with
    probability observed; then planted cells, each on the upper face,
    edge or corner of a leaf, get all eight corners set and observed
    where their leaves are allocated."""
    rng = np.random.default_rng(seed)
    grid = SparseGrid(voxel_size=H, prop_channels=channels)
    for off in meshing.UPPER_NEIGHBOURS:
        if rng.uniform() > 0.7:
            continue
        leaf = leaf_at(grid, corner + off, allocate=True)
        leaf.distance[:] = rng.normal(0.0, H, LEAF_VOXELS)
        leaf.value_mask[:] = rng.uniform(size=LEAF_VOXELS) < density
        leaf.observed[:] = rng.uniform(size=LEAF_VOXELS) < observed
        leaf.prop[:] = rng.uniform(size=(LEAF_VOXELS, channels))
    for _ in range(planted):
        local = np.where(rng.uniform(size=3) < 0.5, LEAF_SIZE - 1,
                         rng.integers(0, LEAF_SIZE, 3))
        local[rng.integers(3)] = LEAF_SIZE - 1
        cell = corner + rng.choice(meshing.UPPER_NEIGHBOURS) + local
        for c in cell + np.asarray(CORNER_OFFSETS):
            if ((c < -KEY_BIAS) | (c >= KEY_BIAS)).any():
                continue
            leaf = leaf_at(grid, c)
            if leaf is not None:
                n = _local_index(c)
                leaf.value_mask[n] = leaf.observed[n] = True
    return grid


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       channels=st.sampled_from([0, 3]),
       corner=st.tuples(*[st.sampled_from(_CLUSTER_CORNERS)] * 3),
       density=st.floats(0.5, 1.0),
       observed=st.floats(0.05, 1.0),
       planted=st.integers(0, 16),
       picks=st.lists(st.integers(0, 63), min_size=1, max_size=150),
       chunk=st.sampled_from([meshing._CHUNK, 7]))
def test_mesh_leaves_matches_reference_and_gather_block(seed, channels, corner,
                                                        density, observed,
                                                        planted, picks, chunk):
    corner = np.asarray(corner, dtype=np.int64)
    grid = random_leaf_grid(seed, channels, corner, density, observed,
                            planted)
    # targets from a 4^3 ring of leaf origins around the allocated 2^3:
    # allocated and unallocated leaves, those inside the key range only
    ring = [tuple(int(v) for v in corner + LEAF_SIZE * (np.array(
        np.unravel_index(i, (4, 4, 4))) - 1)) for i in range(64)]
    ring = [o for o in ring if all(-KEY_BIAS <= v < KEY_BIAS for v in o)]
    targets = [ring[i % len(ring)] for i in picks]
    with mock.patch.object(meshing, "_CHUNK", chunk):
        got = mesh_leaves(grid, targets)
    blocks = mesh_oracle.gather_blocks(grid, targets)
    assert len(got) == len(targets)
    want = {}
    for i, origin in enumerate(targets):
        dist, obs, _ = grid.gather_block(origin, (LEAF_SIZE + 1,) * 3)
        assert blocks.distance[i].dtype == dist.dtype
        np.testing.assert_array_equal(blocks.distance[i], dist)
        np.testing.assert_array_equal(blocks.observed[i], obs)
        if origin not in want:
            want[origin] = reference_mesh_leaf(grid, origin)
        assert got[i].origin == origin
        assert_leaf_mesh_equals(got[i], want[origin])


def room_run():
    """Config and frames of the lidar room with rgb properties: six
    walls, a sphere and a box, five frames on a loop through it."""
    scene = SyntheticScene([
        Primitive("plane", normal=[1, 0, 0], offset=-3.0, prop=[0.8, 0.2, 0.2]),
        Primitive("plane", normal=[-1, 0, 0], offset=-3.0, prop=[0.2, 0.8, 0.2]),
        Primitive("plane", normal=[0, 1, 0], offset=-2.0, prop=[0.2, 0.2, 0.8]),
        Primitive("plane", normal=[0, -1, 0], offset=-2.0, prop=[0.8, 0.8, 0.2]),
        Primitive("plane", normal=[0, 0, 1], offset=0.0, prop=[0.5, 0.5, 0.5]),
        Primitive("plane", normal=[0, 0, -1], offset=-2.5, prop=[0.9, 0.9, 0.9]),
        Primitive("sphere", center=[1.2, 0.5, 0.6], radius=0.5,
                  prop=[0.1, 0.6, 0.9]),
        Primitive("box", center=[-1.3, -0.6, 0.4], half_extents=[0.4, 0.3, 0.4],
                  prop=[0.9, 0.4, 0.1])], prop_channels=3)
    sensor = SensorModel(kind="lidar", azimuth_steps=96, elevation_steps=20,
                         elevation_range=(-0.6, 0.6), max_range=8.0,
                         noise_sigma=0.005, seed=81)
    frames = []
    for i in range(5):
        a = 2.0 * np.pi * i / 5
        eye = np.array([1.5 * np.cos(a), 1.0 * np.sin(a), 1.2])
        ahead = eye + np.array([np.cos(a + 1.0), np.sin(a + 1.0), 0.0])
        frames.append(render_frame(scene, sensor, look_at(eye, ahead)))
    return PipelineConfig(prop_kind="rgb"), frames


def orbit_run():
    """Config and frames of the acceptance-3 sphere orbit: four frames
    on each of its two rings."""
    scene = SyntheticScene([Primitive("sphere", radius=1.0)])
    sensor = SensorModel(kind="pinhole", width=64, height=48, focal=60.0,
                         max_range=8.0, noise_sigma=0.005, seed=81)
    ring = 30
    poses = (orbit_trajectory([0, 0, 0], 2.5, ring, elevation=np.pi / 6)[:4]
             + orbit_trajectory([0, 0, 0], 2.5, ring, elevation=-np.pi / 6,
                                start_azimuth=np.pi / ring)[:4])
    return (PipelineConfig(voxel_size=0.05, length_scale=0.1, d_max=0.55),
            [render_frame(scene, sensor, p) for p in poses])


@pytest.mark.parametrize("run", [room_run, orbit_run])
def test_mesh_leaves_matches_dense_oracle_on_pipeline_targets(run, tmp_path,
                                                              monkeypatch):
    """Every remesh target of every frame and of the snapshot load gets
    the dense oracle's mesh, bit for bit."""
    config, frames = run()
    real = meshing.mesh_leaves
    calls = []

    def spy(grid, origins):
        got = real(grid, origins)
        want = mesh_oracle.mesh_leaves(grid, origins)
        assert len(got) == len(want) == len(origins)
        for g, w in zip(got, want):
            assert g.origin == w.origin
            assert_leaf_mesh_equals(g, (w.edges, w.positions, w.props,
                                        w.triangles))
        calls.append((len(origins), sum(len(w.triangles) > 0 for w in want)))
        return got

    monkeypatch.setattr(meshing, "mesh_leaves", spy)
    pipe = Pipeline(config)
    for frame in frames:
        pipe.integrate_frame(frame)
    pipe.save_snapshot(tmp_path / "map.snap")
    Pipeline.load_snapshot(tmp_path / "map.snap")
    assert len(calls) == len(frames) + 1
    # every call meshes targets with and targets without a surface
    assert all(0 < surfaced < targets for targets, surfaced in calls)


def test_mesh_leaves_rejects_origins_off_the_leaf_lattice():
    with pytest.raises(ValueError):
        mesh_leaves(sphere_grid(), [(0, 0, 4)])


def plane_leaf_grid(side):
    """side x side leaves in one layer, fully observed, each cut by a
    wavy surface."""
    grid = SparseGrid(voxel_size=H)
    grid.allocate(pack_keys([(LEAF_SIZE * i, LEAF_SIZE * j, 0)
                             for i in range(side) for j in range(side)]))
    for leaf in grid.leaves():
        c = _LOCAL + np.asarray(leaf.origin)
        leaf.distance[:] = (c[:, 2] - 3.5 - 1.5 * np.sin(0.3 * c[:, 0])
                            * np.cos(0.2 * c[:, 1])) * H
        leaf.value_mask[:] = True
        leaf.observed[:] = True
    return grid


def transient_bytes(grid, origins):
    """Peak traced memory of one mesh_leaves call above what its result
    still holds, and the result."""
    tracemalloc.start()
    try:
        meshes = mesh_leaves(grid, origins)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held, meshes


def test_mesh_leaves_scratch_does_not_grow_with_targets():
    grid = plane_leaf_grid(32)
    origins = sorted(leaf.origin for leaf in grid.leaves())
    assert len(origins) >= 1000
    mesh_leaves(grid, origins[:meshing._CHUNK])      # warm up
    one_chunk, _ = transient_bytes(grid, origins[:meshing._CHUNK])
    all_leaves, meshes = transient_bytes(grid, origins)
    assert sum(len(lm.triangles) > 0 for lm in meshes) >= 1000
    assert all_leaves <= 1.5 * one_chunk


def test_leaf_mesh_arrays_own_their_memory():
    grid = plane_leaf_grid(10)
    meshes = mesh_leaves(grid, sorted(leaf.origin for leaf in grid.leaves()))
    assert sum(len(lm.triangles) > 0 for lm in meshes) > meshing._CHUNK
    for lm in meshes:
        for name in ("edges", "positions", "props", "triangles"):
            assert getattr(lm, name).base is None


def test_empty_leaf_meshes_share_read_only_arrays():
    """Targets without a valid cell and targets with valid but uncrossed
    cells get empty meshes of their own origin over one set of arrays."""
    grid = plane_leaf_grid(2)
    flat = leaf_at(grid, (0, 0, 4 * LEAF_SIZE), allocate=True)
    flat.distance[:] = H
    flat.value_mask[:] = flat.observed[:] = True
    origins = [(0, 0, 4 * LEAF_SIZE), (0, 0, 8 * LEAF_SIZE),
               (LEAF_SIZE, LEAF_SIZE, 0), (-LEAF_SIZE, 0, 0)]
    meshes = mesh_leaves(grid, origins)
    empty = [lm for lm in meshes if len(lm.positions) == 0]
    assert [lm.origin for lm in empty] == [origins[0], origins[1], origins[3]]
    for name in ("edges", "positions", "props", "triangles"):
        arrays = [getattr(lm, name) for lm in empty]
        assert all(a is arrays[0] for a in arrays)
        assert not arrays[0].flags.writeable
    assert len(meshes[2].triangles) > 0


def test_group_edges_follows_tuple_order_over_the_whole_key_range():
    rng = np.random.default_rng(41)
    coords = rng.integers(-KEY_BIAS, KEY_BIAS, size=(400, 3))
    coords[:3] = KEY_BIAS - 1
    coords[3:6] = -KEY_BIAS
    edges = np.column_stack([np.repeat(coords, 3, axis=0),
                             rng.integers(0, 3, size=1200)])
    groups = group_edges(edges)
    want = sorted(set(map(tuple, edges.tolist())))
    assert list(map(tuple, edges[groups.first].tolist())) == want
    np.testing.assert_array_equal(edges[groups.first][groups.inverse], edges)


def test_empty_grid_gives_empty_mesh():
    mesh = marching_cubes(SparseGrid(voxel_size=H))
    assert mesh.n_vertices == 0
    assert mesh.n_triangles == 0
    assert mesh.vertices.shape == (0, 3)
    assert mesh.triangles.shape == (0, 3)


def test_uniform_sign_produces_no_triangles():
    grid = SparseGrid(voxel_size=H)
    for x in range(8):
        for y in range(8):
            for z in range(8):
                grid.set((x, y, z),
                         VoxelState(distance=H, dist_weight=1.0, observed=True))
    mesh = marching_cubes(grid)
    assert mesh.n_triangles == 0


def test_single_negative_corner_yields_midpoint_triangle():
    # Cell corners (-h, +h x 7) cross at t = 0.5 on three edges.
    grid = SparseGrid(voxel_size=H)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                d = -H if (x, y, z) == (0, 0, 0) else H
                grid.set((x, y, z),
                         VoxelState(distance=d, dist_weight=1.0, observed=True))
    mesh = marching_cubes(grid)
    assert mesh.n_triangles == 1
    assert mesh.n_vertices == 3
    want = {(H, H / 2, H / 2), (H / 2, H, H / 2), (H / 2, H / 2, H)}
    got = {tuple(np.round(v, 12)) for v in mesh.vertices}
    assert got == {tuple(np.round(w, 12)) for w in want}


def test_cells_with_unobserved_corner_are_skipped():
    # Same sign pattern, but one positive corner was never measured.
    grid = SparseGrid(voxel_size=H)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                d = -H if (x, y, z) == (0, 0, 0) else H
                grid.set((x, y, z),
                         VoxelState(distance=d, dist_weight=1.0,
                                    observed=(x, y, z) != (1, 1, 1)))
    mesh = marching_cubes(grid)
    assert mesh.n_triangles == 0


def test_sphere_vertices_sit_on_the_surface():
    mesh = marching_cubes(sphere_grid())
    assert mesh.n_triangles > 1000
    radii = np.linalg.norm(mesh.vertices, axis=1)
    # Linear interpolation of the exact SDF: error far below half a voxel.
    assert np.max(np.abs(radii - 1.0)) < 0.5 * H


def test_sphere_mesh_is_watertight():
    mesh = marching_cubes(sphere_grid())
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    counts = np.array(list(edges.values()))
    assert np.all(counts == 2)


def test_vertices_are_shared_across_triangles_and_leaves():
    mesh = marching_cubes(sphere_grid())
    # Edge-keyed construction merges coincident vertices exactly, so no
    # two rows agree even across leaf boundaries.
    rounded = {tuple(np.round(v, 9)) for v in mesh.vertices}
    assert len(rounded) == mesh.n_vertices
    # Sphere spans many leaves.
    leaves = leaf_origin_of(world_to_grid(mesh.vertices, H))
    assert len({tuple(l) for l in leaves}) > 8
    used = np.unique(mesh.triangles)
    assert used.size == mesh.n_vertices


def test_marching_cubes_is_deterministic():
    a = marching_cubes(sphere_grid())
    b = marching_cubes(sphere_grid())
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.triangles, b.triangles)


def test_explicit_leaf_list_restricts_extraction():
    grid = sphere_grid()
    full = marching_cubes(grid)
    some = sorted({tuple(l) for l in
                   leaf_origin_of(world_to_grid(full.vertices, H))})[:4]
    part = marching_cubes(grid, origins=some)
    assert 0 < part.n_triangles < full.n_triangles


def test_mesh_leaf_reports_leaf_origin():
    grid = sphere_grid()
    origin = sorted(tuple(leaf.origin) for leaf in grid.leaves())[0]
    lm = mesh_leaf(grid, origin)
    assert tuple(lm.origin) == tuple(origin)


def test_mesh_properties_interpolated_along_edges():
    # Property = x coordinate of the voxel center; the interpolated value
    # at each vertex must match the vertex's own x position.
    def props(p):
        return np.array([p[0]])

    mesh = marching_cubes(sphere_grid(props=props))
    assert mesh.properties is not None
    assert mesh.properties.shape == (mesh.n_vertices, 1)
    np.testing.assert_allclose(mesh.properties[:, 0], mesh.vertices[:, 0],
                               atol=1e-6)


def test_crossings_by_leaf_empty_mesh():
    mesh = TriangleMesh.empty()
    assert crossings_by_leaf(mesh.vertices, mesh.properties, H) == {}


def test_crossings_by_leaf_groups_by_leaf_and_voxel():
    mesh = marching_cubes(sphere_grid())
    groups = crossings_by_leaf(mesh.vertices, mesh.properties, H)
    assert groups
    total = 0
    for origin, (pos, _) in groups.items():
        origin = np.asarray(origin)
        np.testing.assert_array_equal(origin & 7, 0)
        vox = world_to_grid(pos, H)
        # Every crossing lies inside the leaf it is filed under.
        np.testing.assert_array_equal((vox >> 3) << 3,
                                      np.broadcast_to(origin, vox.shape))
        # One entry per voxel.
        assert len({tuple(v) for v in vox}) == len(pos)
        total += len(pos)
    radii = np.concatenate([np.linalg.norm(p, axis=1)
                            for p, _ in groups.values()])
    assert np.max(np.abs(radii - 1.0)) < 0.5 * H
    assert total <= mesh.n_vertices


def test_crossings_by_leaf_average_vertices_in_same_voxel():
    verts = np.array([
        [0.01, 0.01, 0.01],
        [0.03, 0.02, 0.04],   # same voxel as the first
        [0.30, 0.30, 0.30],
    ])
    tris = np.array([[0, 1, 2]])
    props = np.array([[1.0], [3.0], [5.0]])
    mesh = TriangleMesh(vertices=verts, triangles=tris, properties=props)
    groups = crossings_by_leaf(mesh.vertices, mesh.properties, H)
    pos, pr = groups[(0, 0, 0)]
    assert len(pos) == 2
    got = {tuple(np.round(p, 9)): float(v) for p, v in zip(pos, pr[:, 0])}
    key = tuple(np.round(np.array([0.02, 0.015, 0.025]), 9))
    assert got[key] == pytest.approx(2.0)
    assert got[tuple(np.round(verts[2], 9))] == pytest.approx(5.0)


def test_ply_mesh_round_trip(tmp_path):
    mesh = marching_cubes(sphere_grid())
    path = tmp_path / "sphere.ply"
    write_mesh(path, mesh.vertices, mesh.triangles)
    back = read_ply(path)
    np.testing.assert_array_equal(back["vertices"],
                                  mesh.vertices.astype(np.float32))
    np.testing.assert_array_equal(back["faces"], mesh.triangles)
    assert back["properties"] is None


def test_ply_rgb_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    verts = rng.uniform(-1, 1, size=(40, 3))
    faces = rng.integers(0, 40, size=(20, 3))
    props = rng.uniform(0, 1, size=(40, 3))
    path = tmp_path / "color.ply"
    write_mesh(path, verts, faces, properties=props, prop_kind="rgb")
    back = read_ply(path)
    assert back["properties"].shape == (40, 3)
    # Quantised through uint8.
    np.testing.assert_allclose(back["properties"], props, atol=0.5 / 255)


def test_ply_intensity_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    verts = rng.uniform(-1, 1, size=(10, 3)).astype(np.float32)
    props = rng.uniform(0, 2, size=(10, 1))
    path = tmp_path / "gray.ply"
    write_mesh(path, verts, np.zeros((0, 3), dtype=np.int64),
               properties=props, prop_kind="intensity")
    back = read_ply(path)
    np.testing.assert_array_equal(back["vertices"], verts)
    np.testing.assert_allclose(back["properties"], props, atol=1e-6)
    assert back["faces"].shape == (0, 3)


def test_ply_header_counts(tmp_path):
    mesh = marching_cubes(sphere_grid())
    path = tmp_path / "hdr.ply"
    write_mesh(path, mesh.vertices, mesh.triangles)
    header = path.read_bytes().split(b"end_header")[0].decode("ascii")
    assert f"element vertex {mesh.n_vertices}" in header
    assert f"element face {mesh.n_triangles}" in header
    assert "binary_little_endian" in header


def test_ply_empty_mesh_is_valid(tmp_path):
    path = tmp_path / "empty.ply"
    write_mesh(path, np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    back = read_ply(path)
    assert back["vertices"].shape == (0, 3)
    assert back["faces"].shape == (0, 3)


def test_write_points_round_trip(tmp_path):
    pts = np.random.default_rng(5).normal(size=(25, 3))
    path = tmp_path / "cloud.ply"
    write_mesh(path, pts, np.zeros((0, 3), dtype=np.int64))
    back = read_ply(path)
    np.testing.assert_array_equal(back["vertices"], pts.astype(np.float32))
    assert back["properties"] is None
    assert back["faces"].shape == (0, 3)


def test_failed_write_mesh_leaves_the_previous_file(tmp_path, monkeypatch):
    mesh = marching_cubes(sphere_grid())
    path = tmp_path / "mesh.ply"
    write_mesh(path, mesh.vertices, mesh.triangles)
    before = path.read_bytes()

    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "zeros", fail)
    with pytest.raises(MemoryError):
        write_mesh(path, mesh.vertices[:3], mesh.triangles[:1])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_ply_rejects_unknown_property_kind(tmp_path):
    with pytest.raises(ValueError):
        write_mesh(tmp_path / "bad.ply", np.zeros((1, 3)),
                   np.zeros((0, 3), dtype=np.int64),
                   properties=np.zeros((1, 1)), prop_kind="bgr")


def test_read_ply_rejects_non_ply(tmp_path):
    path = tmp_path / "junk.ply"
    path.write_bytes(b"OFF\n0 0 0\n")
    with pytest.raises(IoFailure):
        read_ply(path)


def test_ascii_ply_reads_as_the_binary_file_it_spells_out(tmp_path):
    rng = np.random.default_rng(6)
    verts = rng.uniform(-1, 1, size=(12, 3)).astype(np.float32)
    faces = rng.integers(0, 12, size=(5, 3))
    binary = tmp_path / "binary.ply"
    write_mesh(binary, verts, faces, properties=rng.uniform(size=(12, 3)),
               prop_kind="rgb")
    want = read_ply(binary)
    rgb = np.rint(want["properties"] * 255).astype(int)
    lines = ["ply", "format ascii 1.0", "element vertex 12",
             "property float x", "property float y", "property float z",
             "property uchar red", "property uchar green",
             "property uchar blue", "element face 5",
             "property list uchar int vertex_indices", "end_header"]
    lines += [" ".join(["%.9g" % x for x in v] + [str(c) for c in p])
              for v, p in zip(verts, rgb)]
    lines += ["3 " + " ".join(map(str, f)) for f in faces]
    ascii_path = tmp_path / "ascii.ply"
    ascii_path.write_text("\n".join(lines) + "\n")
    got = read_ply(ascii_path)
    for name in ("vertices", "faces", "properties"):
        np.testing.assert_array_equal(got[name], want[name])


ASCII_VERTICES = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                  "property float y\nproperty float z\n")
ASCII_FACE = ASCII_VERTICES + ("element face 1\n"
                               "property list uchar int vertex_indices\n")


@pytest.mark.parametrize("header, body", [
    ("ply\nformat ascii 1.0\nelement vertex\n", ""),
    ("ply\nformat ascii 1.0\nproperty float x\n", ""),
    (ASCII_VERTICES + "element face 1\n"
     "property list uchar int vertex_indices\n", "0 0 0\n1 1 1\n3 0 1\n"),
    (ASCII_VERTICES, "0 0 0\n1 1\n"),
    ("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
     "property float16 x\n", "\0\0"),
    ("ply\nformat binary_little_endiam 1.0\n", ""),
    (ASCII_VERTICES, "0 0 0\n1 abc 1\n"),
    (ASCII_VERTICES, "0 0 0\n1 \xe9 1\n"),
    (ASCII_FACE, "0 0 0\n1 1 1\n3.0 0 1 1\n"),
    (ASCII_FACE, "0 0 0\n1 1 1\n3 0 1 2\n"),
    (ASCII_FACE, "0 0 0\n1 1 1\n3 0 1 3000000000\n"),
    ("ply\nformat binary_little_endian 1.0\nelement face 1\n"
     "property list float int vertex_indices\n",
     (struct.pack("<f", 2.5) + struct.pack("<2i", 0, 0)).decode("latin-1"))],
    ids=["element_without_count", "property_before_element",
         "short_list_row", "short_vertex_rows", "unknown_binary_type",
         "unknown_format", "ascii_token_not_a_number", "non_ascii_byte",
         "list_count_not_an_integer", "face_index_at_vertex_count",
         "face_index_past_int32", "binary_list_count_not_an_integer"])
def test_malformed_ply_raises_io_failure_naming_the_file(tmp_path, header,
                                                         body):
    path = tmp_path / "bad.ply"
    path.write_bytes((header + "end_header\n" + body).encode("latin-1"))
    with pytest.raises(IoFailure, match=re.escape(str(path))):
        read_ply(path)


SCALAR_TYPES = sorted(_PROP_TYPES)
INT_TYPES = [t for t in SCALAR_TYPES
             if np.dtype(_PROP_TYPES[t]).kind in "iu"]


@st.composite
def scalar_of(draw, type_name):
    """A value that the PLY type holds exactly, or that a double rounds."""
    dt = np.dtype(_PROP_TYPES[type_name])
    if dt.kind in "iu":
        info = np.iinfo(dt)
        return draw(st.integers(int(info.min), int(info.max)))
    if dt.itemsize == 4:
        return draw(st.floats(width=32, allow_nan=False))
    return draw(st.floats(-3e38, 3e38) | st.sampled_from([np.inf, -np.inf]))


@st.composite
def valid_ply(draw):
    """The elements of a valid PLY file, each as (header lines, records
    of (type, value) pairs): x, y and z of any scalar type, no
    properties, rgb or intensity, faces of 3 or 4 indices and one
    element that is neither vertex nor face, in any place."""
    n_vertices = draw(st.integers(0, 6))
    xyz = [(c, draw(st.sampled_from(SCALAR_TYPES))) for c in "xyz"]
    intensity = [("intensity", draw(st.sampled_from(["float", "double"])))]
    rgb = [(c, "uchar") for c in ("red", "green", "blue")]
    extra = draw(st.sampled_from([[], rgb, intensity]))
    props = draw(st.permutations(xyz + extra))
    vertex = ([f"element vertex {n_vertices}"]
              + [f"property {t} {name}" for name, t in props],
              [[(t, draw(scalar_of(t))) for _, t in props]
               for _ in range(n_vertices)])
    n_faces = draw(st.integers(0, 4)) if n_vertices else 0
    count_t, index_t = (draw(st.sampled_from(INT_TYPES)) for _ in "ci")
    face = ([f"element face {n_faces}",
             f"property list {count_t} {index_t} vertex_indices"], [])
    for _ in range(n_faces):
        n = draw(st.sampled_from([3, 4]))
        face[1].append([(count_t, n)] + [
            (index_t, draw(st.integers(0, n_vertices - 1)))
            for _ in range(n)])
    if draw(st.booleans()):
        t = draw(st.sampled_from(SCALAR_TYPES))
        other = (["element edge 2", f"property {t} weight"],
                 [[(t, draw(scalar_of(t)))] for _ in range(2)])
    else:
        t = draw(st.sampled_from(INT_TYPES))
        other = (["element edge 2", f"property list uchar {t} ends"],
                 [[("uchar", 2), (t, 0), (t, 1)] for _ in range(2)])
    elements = [vertex, face]
    elements.insert(draw(st.integers(0, 2)), other)
    return elements


def write_ply_file(path, elements, binary):
    lines = ["ply", "format " + ("binary_little_endian" if binary
                                 else "ascii") + " 1.0"]
    body = b""
    for header, records in elements:
        lines += header
        for rec in records:
            if binary:
                body += b"".join(np.array(v, _PROP_TYPES[t]).tobytes()
                                 for t, v in rec)
            else:
                body += (" ".join(str(v) for _, v in rec) + "\n").encode()
    text = "\n".join(lines + ["end_header"]) + "\n"
    path.write_bytes(text.encode("ascii") + body)


@settings(max_examples=150, deadline=None)
@given(elements=valid_ply(), binary=st.booleans())
def test_read_ply_equals_the_two_walk_reader_byte_for_byte(elements, binary):
    """The one-walk reader returns what the reader with separate ascii and
    binary walks returned, array for array, dtype and bytes included."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "frame.ply"
        write_ply_file(path, elements, binary)
        got, want = read_ply(path), ply_oracle.read_ply(path)
    assert got.keys() == want.keys()
    for key in want:
        if want[key] is None:
            assert got[key] is None
            continue
        assert (got[key].dtype, got[key].shape) == (want[key].dtype,
                                                    want[key].shape)
        assert got[key].tobytes() == want[key].tobytes()
