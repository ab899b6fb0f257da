"""The append-only sign index against a brute-force nearest voxel.

``SignIndex`` keeps a main and a tail cKDTree over observed voxel
centres and, after a grid change, indexes only the voxels of leaves
stamped since its last look. ``reference_signs`` needs no tree: numpy
distances from each query row to every observed voxel centre. A row
whose nearest observed voxel within the radius is unique gets a
bit-equal sign and known from any exact tree; a row with an exact
distance tie takes the sign of one of the tied voxels, and a tail voxel
wins only when strictly nearer. The draws hold rows at the centres,
corners and face centres of observed voxels, so tied rows occur on
purpose, and rows near the middles of leaves looked up with a radius
whose box spans three leaves per axis. ``test_field_matches_default_tree_layout`` runs the real field
beside one whose index builds scipy's default trees.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from gpfield import gp
from gpfield.fusion import FusionConfig, fuse_frame
from gpfield.global_field import GlobalField, QueryStats, SignIndex
from gpfield.grid import (LEAF_SIZE, SparseGrid, VoxelState, grid_to_world,
                          leaf_origin_of)
from gpfield.pipeline import Pipeline, PipelineConfig
from gpfield.query_points import TestPointSet as PointSet  # collection-safe alias
from test_global_field import corridor_frames, sphere_orbit_frames

H = 0.05
RADIUS = 2.5 * H
# the default sign_radius, 5 voxels: a box of 11 voxel indices per axis,
# which spans three leaves per axis around a point near a leaf's middle
WIDE = 5 * H
CFG = FusionConfig(v_max=1.0, w_max=1.0, weight_cap=100.0,
                   surface_band=2 * H)


def observed_distances(grid, points):
    """(voxel signs, (n, V) distances) from each row to every observed
    voxel centre. The squares add x, y, z in order, as cKDTree adds
    them, and the radius test is the tree's: squared distance strictly
    below the squared radius."""
    coords, dists = grid.observed_voxels()
    centres = grid_to_world(coords, grid.voxel_size)
    diff = points[:, None, :] - centres[None, :, :]
    sq = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
    sq += diff[..., 2] * diff[..., 2]
    return np.where(dists < 0, -1.0, 1.0), sq


def reference_signs(grid, points, radius):
    """(sign, known) from the nearest observed voxel within radius, by
    brute force over every observed voxel centre."""
    n = len(points)
    voxel_signs, sq = observed_distances(grid, points)
    sign = np.ones(n)
    if not sq.shape[1]:
        return sign, np.zeros(n, dtype=bool)
    near = sq.argmin(axis=1)
    known = sq[np.arange(n), near] < radius * radius
    sign[known] = voxel_signs[near[known]]
    return sign, known


def assert_matches_reference(index, points, radius=RADIUS):
    """Compare one lookup with the reference; returns the tied row count."""
    sign, known = index.lookup(points, radius)
    want_sign, want_known = reference_signs(index.grid, points, radius)
    np.testing.assert_array_equal(known, want_known)
    voxel_signs, sq = observed_distances(index.grid, points)
    if sq.shape[1] < 2:
        np.testing.assert_array_equal(sign, want_sign)
        return 0
    # a tie as the trees see it: equal returned (square-rooted) distances
    d = np.sqrt(sq)
    nearest = d.min(axis=1)
    tied = known & ((d == nearest[:, None]).sum(axis=1) > 1)
    np.testing.assert_array_equal(sign[~tied], want_sign[~tied])
    for r in np.flatnonzero(tied):
        assert sign[r] in voxel_signs[d[r] == nearest[r]], r
    return int(tied.sum())


def observed_count(grid):
    return int(sum((leaf.value_mask & leaf.observed).sum()
                   for leaf in grid.leaves()))


def fuse_box(grid, rng, lo, span, n, scale):
    """Fuse n distinct random voxels of a box; |distance| ~ scale."""
    coords = lo + rng.integers(0, span, size=(n, 3))
    coords = np.unique(coords, axis=0)
    dist = rng.normal(scale=scale, size=len(coords))
    fuse_frame(grid, PointSet(coords, grid_to_world(coords, H),
                              np.ones(len(coords)), np.zeros(len(coords))),
               dist, np.full(len(coords), 0.1), CFG)


def query_points(rng, n, lo, span):
    """Voxel centres, faces, corners and anywhere in a box, in world units."""
    c = lo + rng.integers(0, span, size=(n, 3)).astype(np.float64)
    offsets = rng.choice([0.0, 0.5, 1.0], size=(n, 3))
    anywhere = rng.random(n) < 0.25
    offsets[anywhere] = rng.random((int(anywhere.sum()), 3))
    return (c + offsets) * H


def lattice_rows(rng, grid, n):
    """The centres, corners and face centres of n random observed voxels
    (none while nothing is observed), where neighbouring observed voxels
    tie."""
    coords, _ = grid.observed_voxels()
    if not len(coords):
        return np.zeros((0, 3))
    offsets = np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                        [0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5],
                        [0.0, 0.5, 0.5], [0.5, 0.5, 1.0]])
    c = coords[rng.integers(len(coords), size=n)]
    return (c + offsets[rng.integers(len(offsets), size=n)]) * H


def wide_rows(rng, grid, n):
    """n rows near the middles of leaves holding an observed voxel (none
    while nothing is observed), whose WIDE radius box spans three leaves
    per axis: the leaf and both its neighbours."""
    coords, _ = grid.observed_voxels()
    if not len(coords):
        return np.zeros((0, 3))
    origins = leaf_origin_of(coords[rng.integers(len(coords), size=n)])
    rows = (origins + rng.uniform(3.2, 4.8, size=(n, 3))) * H
    lo = np.floor((rows - WIDE) / (LEAF_SIZE * H))
    hi = np.floor((rows + WIDE) / (LEAF_SIZE * H))
    assert (hi - lo == 2).all()
    return rows


OPS = st.one_of(
    st.tuples(st.just("fuse"), st.integers(1, 120), st.sampled_from([0.02, 0.2])),
    st.tuples(st.just("set"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("query"), st.integers(1, 60), st.just(0)),
)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ops=st.lists(OPS, min_size=1, max_size=14))
def test_lookup_matches_single_tree_reference(seed, ops):
    rng = np.random.default_rng(seed)
    # a box across the origin, so leaves with negative origins take part
    lo, span = -10, 22
    grid = SparseGrid(voxel_size=H)
    index = SignIndex(grid)
    seen = 0
    may_build = True    # first batch, or an observed voxel was cleared since
    for op, a, b in ops + [("query", 40, 0)]:
        if op == "fuse":
            fuse_box(grid, rng, lo, span, a, b)
        elif op == "set":
            # re-set an observed voxel (flipping its sign, maybe clearing
            # its observed flag) or set one anywhere in the box
            coords, _ = grid.observed_voxels()
            if a and len(coords):
                c = tuple(coords[rng.integers(len(coords))].tolist())
            else:
                c = tuple((lo + rng.integers(0, span, size=3)).tolist())
            old = grid.get(c)
            may_build |= old is not None and old.observed and not b
            grid.set(c, VoxelState(distance=float(rng.normal(scale=H)),
                                   dist_weight=1.0, observed=b))
        else:
            stats = QueryStats()
            index.refresh(stats)
            now = observed_count(grid)
            if stats.n_observed_indexed != now - seen:
                # only a full build indexes voxels indexed before
                assert may_build
                assert stats.sign_rebuilt == 1
                assert stats.n_observed_indexed == now
            assert len(index.voxel_rows) == now
            assert_matches_reference(index, np.concatenate([
                query_points(rng, a, lo, span), lattice_rows(rng, grid, a)]))
            assert_matches_reference(index, np.concatenate([
                wide_rows(rng, grid, a), lattice_rows(rng, grid, a)]), WIDE)
            seen = now
            may_build = False


def test_sequence_reaches_every_branch():
    """One fixed sequence: first build, unchanged grid, new leaves, sign
    flips, tail appends, compactions, the un-observe fallback and a
    writer stamping through activate, each checked against the
    reference, lattice ties included."""
    rng = np.random.default_rng(5)
    grid = SparseGrid(voxel_size=H)
    index = SignIndex(grid)
    lo, span = -16, 32
    ties = 0

    def refresh(near=np.zeros((0, 3))):
        stats = QueryStats()
        before = len(index.voxel_rows)
        index.refresh(stats)
        nonlocal ties
        pts = np.concatenate([query_points(rng, 400, lo, span), near,
                              lattice_rows(rng, grid, 200)])
        ties += assert_matches_reference(index, pts)
        ties += assert_matches_reference(index, np.concatenate([
            wide_rows(rng, grid, 200), lattice_rows(rng, grid, 200)]), WIDE)
        return stats, before

    stats, _ = refresh()                    # empty grid
    assert stats == QueryStats(sign_rebuilt=1)
    fuse_box(grid, rng, -8, 16, 600, 0.02)
    stats, _ = refresh()                    # first build
    assert (stats.sign_rebuilt == 1
            and stats.n_observed_indexed == len(index.voxel_rows) > 0)
    stats, _ = refresh()                    # unchanged grid: no work
    assert stats == QueryStats()

    fuse_box(grid, rng, -8, 16, 40, 0.02)   # a few voxels: tail only
    stats, before = refresh()
    assert not stats.sign_rebuilt and 0 < stats.n_observed_indexed
    assert index.tail is not None and index.n_main == before

    # flip the signs of indexed voxels by refusing them with heavy weight
    coords, dists = grid.observed_voxels()
    flip = coords[:50]
    fuse_frame(grid, PointSet(flip, grid_to_world(flip, H), np.ones(50),
                              np.zeros(50)),
               -np.sign(dists[:50]) * 100.0, np.zeros(50), CFG)
    assert (np.sign(grid.lookup(flip)[1]) != np.sign(dists[:50])).all()
    stats, _ = refresh(grid_to_world(flip, H) + rng.uniform(-H, H, (50, 3)))
    assert stats == QueryStats()            # signs rewritten, nothing new

    fuse_box(grid, rng, 8, 16, 900, 0.02)   # new leaves past a quarter
    stats, _ = refresh()
    assert stats.sign_rebuilt == 1 and index.tail is None
    assert index.n_main == len(index.voxel_rows) == observed_count(grid)

    # a set that un-observes an indexed voxel falls back to a full build
    coords, _ = grid.observed_voxels()
    grid.set(tuple(coords[7].tolist()), VoxelState(0.01, 1.0, observed=False))
    n = observed_count(grid)
    stats, _ = refresh()
    assert stats == QueryStats(sign_rebuilt=1, n_observed_indexed=n)

    # a writer that goes around the write paths and stamps its leaf with
    # activate has that leaf's new voxels appended
    leaf = next(grid.leaves())
    new = int((~(leaf.observed & leaf.value_mask))[:16].sum())
    leaf.observed[:16] = True
    leaf.value_mask[:16] = True
    grid.activate([leaf.slot])
    stats, _ = refresh()
    assert new > 0 and stats == QueryStats(n_observed_indexed=new)
    assert ties > 0


def test_field_signs_follow_a_growing_corridor_with_logarithmic_builds():
    """Count test, no timing: on a corridor that grows by a slab of wall
    voxels per frame, each query batch indexes exactly the voxels
    observed since the previous batch, and the main tree is built a
    number of times logarithmic in the number of frames."""
    grid = SparseGrid(voxel_size=H)
    field = GlobalField(gp.KernelParams(length_scale=0.1), grid=grid,
                        sign_radius=5)
    field.update({(0, 0, 0): (np.array([[0.0, 0.5, 0.0], [0.05, 0.5, 0.0],
                                        [0.0, 0.5, 0.05]]), None)})
    frames = 300
    builds = []
    seen = 0
    first = None
    for f in range(frames):
        x = np.arange(2 * f, 2 * f + 8)
        y = np.array([-10, -9, 9, 10])
        z = np.arange(-4, 4)
        coords = np.stack(np.meshgrid(x, y, z, indexing="ij"), -1).reshape(-1, 3)
        dist = np.where(np.abs(coords[:, 1]) == 9, -0.01, 0.01)
        fuse_frame(grid, PointSet(coords, grid_to_world(coords, H),
                                  np.ones(len(coords)), np.zeros(len(coords))),
                   dist, np.full(len(coords), 0.1), CFG)
        ahead = np.array([[H * (2 * f + 4), y * H, 0.0]
                          for y in (-9.5, 0.0, 9.5)])
        stats = field.query_batch(ahead).stats
        now = observed_count(grid)
        assert stats.n_observed_indexed == now - seen
        seen = now
        first = first or now
        builds.append(stats.sign_rebuilt)
    # each build after the first grows the main tree by more than 1.25x
    assert sum(builds) - 1 <= math.log(seen / first) / math.log(1.25)
    assert sum(builds) < 4 * math.log(frames)
    assert builds[0] == 1 and sum(builds) > 1


class DefaultTreeIndex(SignIndex):
    """The sign index with scipy's default tree layout: every tree the
    real index builds is rebuilt over the same centres, in the same slot
    order, with cKDTree's defaults (compacted nodes, median split)."""

    def _append(self, touched, stats):
        main, tail = self.main, self.tail
        appended = super()._append(touched, stats)
        if self.main is not None and self.main is not main:
            self.main = cKDTree(self.main.data)
        if self.tail is not None and self.tail is not tail:
            self.tail = cKDTree(self.tail.data)
        return appended


@pytest.mark.parametrize("make, prop_kind, n", [
    (corridor_frames, "none", 12), (sphere_orbit_frames, "rgb", 6)],
    ids=["corridor", "sphere_orbit"])
def test_field_matches_default_tree_layout(monkeypatch, make, prop_kind, n):
    """After every frame, random query rows get byte-equal distances,
    gradients, variances and free-space flags from the real field and
    from one whose sign index builds scipy's default trees. Random rows
    tie with probability zero, so only the tree layout differs."""
    frames, box = make(n)
    pipe = Pipeline(PipelineConfig(prop_kind=prop_kind))
    c = pipe.config
    twin = GlobalField(pipe.params, pipe.grid, smooth_lambda=c.smooth_lambda,
                       query_nodes=c.query_nodes, sign_radius=c.sign_radius,
                       prop_clip=c.prop_clip)
    twin._sign_index = DefaultTreeIndex(pipe.grid)
    update = pipe.field.update
    monkeypatch.setattr(pipe.field, "update", lambda changed: (
        twin.update(changed), update(changed))[1])
    rng = np.random.default_rng(11)
    tails = 0
    for frame in frames:
        pipe.integrate_frame(frame)
        pts = rng.uniform(box[0], box[1], size=(400, 3))
        got, want = pipe.field.query_batch(pts), twin.query_batch(pts)
        for name in ("distances", "gradients", "variances", "free_space"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes()), name
        assert got.stats == want.stats
        tails += twin._sign_index.tail is not None
    assert tails > 0 and not got.free_space.all()
