"""Fusion test-point generation.

For every measured voxel a ray is traced from the sensor origin with
an integer DDA. Voxels in a band around the endpoint always become
test points; free-space voxels along the ray are emitted only when the
fused map still holds a stale surface there, which is what lets moved
objects be carved away. Surface voxels additionally spawn test points
along their estimated normals so thin observations gain support on
both sides.

No row comes from a voxel wholly before the band and outside every
allocated leaf, so a ray's lockstep walk starts where the map or its
band starts: a walk over leaves (_skip) brings each ray to the lockstep
state it has there. The lockstep's crossing times are running sums
t + t_delta, and the leaf walk makes the same sums, so that state, and
every row after it, is the full walk's own. ray_rows reports the
(ray, voxel) steps walked and those skipped, which add up to the full
walk's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .grid import (LEAF_KEY_STEP, LEAF_SIZE, SparseGrid, grid_to_world,
                   group_by, leaf_keys, pack_keys, world_to_grid)

SOURCE_RAY = 0
SOURCE_BAND = 1
SOURCE_NORMAL = 2
SOURCE_NAMES = ("ray", "band", "normal")


class TestPointSet:
    """Column-wise container of test points, one voxel per row except in
    the sets ray_rows and normal_rows build."""

    def __init__(self, coords, positions, signs, sources):
        self.coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        self.positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        self.signs = np.asarray(signs, dtype=np.int8).reshape(-1)
        self.sources = np.asarray(sources, dtype=np.uint8).reshape(-1)

    def __len__(self) -> int:
        return len(self.coords)

    @staticmethod
    def empty() -> "TestPointSet":
        return TestPointSet(np.zeros((0, 3)), np.zeros((0, 3)),
                            np.zeros(0), np.zeros(0))


def dedup_first(coords, positions, signs, sources) -> TestPointSet:
    """Keep the first entry per voxel coordinate (input order wins)."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if len(coords) == 0:
        return TestPointSet.empty()
    first = np.sort(group_by(pack_keys(coords)).first)
    return TestPointSet(coords[first], np.asarray(positions)[first],
                        np.asarray(signs)[first], np.asarray(sources)[first])


def merge(*sets: TestPointSet) -> TestPointSet:
    """Concatenate sets, deduplicating; earlier sets take precedence."""
    return dedup_first(np.concatenate([s.coords for s in sets]),
                       np.concatenate([s.positions for s in sets]),
                       np.concatenate([s.signs for s in sets]),
                       np.concatenate([s.sources for s in sets]))


class _Rays(NamedTuple):
    """Lockstep DDA state of rays from one origin, one row per ray."""

    ray: np.ndarray       # (m,) index of the ray's endpoint
    cur: np.ndarray       # (m, 3) voxel the ray is in
    t_max: np.ndarray     # (m, 3) t of the ray's next crossing on each axis
    t_delta: np.ndarray   # (m, 3) t between its crossings on each axis
    step: np.ndarray      # (m, 3) +1 or -1, the direction of those crossings
    n: np.ndarray         # (m,) crossings made: cur's L1 distance from
                          # the origin voxel, the step index of its row
    stop: np.ndarray      # (m,) last t at which the ray enters a voxel

    def take(self, rows) -> "_Rays":
        return _Rays(*(a.take(rows, axis=0) for a in self))


def _start(origin, ends: np.ndarray, voxel_size: float, extra: float) -> _Rays:
    """State at t = 0 of the rays from origin to ends, zero-length rays
    left out; each runs until entry t exceeds its range + extra."""
    o = np.asarray(origin, dtype=np.float64).reshape(3)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 3)
    h = voxel_size
    delta = ends - o
    rng = np.linalg.norm(delta, axis=1)
    live = np.flatnonzero(rng > 1e-12)
    dirn = delta[live] / rng[live, None]
    m = len(live)
    cur = np.tile(np.floor(o / h).astype(np.int64), (m, 1))
    step = np.where(dirn > 0, 1, -1).astype(np.int64)
    # a zero direction component divides to inf or nan in branches
    # np.where discards; a subnormal one overflows to inf, which is right
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_delta = np.where(dirn != 0, h / np.abs(dirn), np.inf)
        lo = np.floor(o / h) * h
        t_max = np.where(dirn > 0, (lo + h - o) / dirn,
                         np.where(dirn < 0, (lo - o) / dirn, np.inf))
    return _Rays(live, cur, t_max, t_delta, step, np.zeros(m, np.int64),
                 rng[live] + extra)


def _traverse(rays: _Rays, first=None):
    """Lockstep DDA: every ray crosses its nearest boundary per iteration.

    Returns flattened (coords, t_enter, ray) arrays: the voxel each ray
    in the mask first (all rays by default) is in, entered at t = 0, then
    every voxel entered until entry t exceeds the ray's stop, iteration
    by iteration and, within one, in the order of rays. So from the state
    at t = 0 of rays in ascending order the rows come in (step, ray)
    order. A ray is dropped from the working arrays at the iteration it
    finishes, so each iteration costs what the rays still running cost.
    """
    first = np.ones(len(rays.ray), bool) if first is None else first
    cur, t_max = rays.cur.copy(), rays.t_max.copy()
    t_delta, step, stop, live = rays.t_delta, rays.step, rays.stop, rays.ray
    m = len(live)
    row_start = np.arange(0, 3 * m, 3)
    coords_parts = [cur[first]]
    t_parts = [np.zeros(np.count_nonzero(first))]
    ray_parts = [live[first]]
    while m:
        # advance every running ray across its nearest boundary (ties go
        # to the lowest axis), through flat row*3 + axis indices
        flat = t_max.argmin(axis=1)
        flat += row_start[:m]
        t_enter = t_max.take(flat)
        cur.put(flat, cur.take(flat) + step.take(flat))
        t_max.put(flat, t_enter + t_delta.take(flat))
        going = t_enter <= stop
        if not going.all():
            keep = np.flatnonzero(going)
            cur, t_max, t_delta, step = (a.take(keep, axis=0) for a in
                                         (cur, t_max, t_delta, step))
            stop, live, t_enter = (a.take(keep) for a in (stop, live, t_enter))
            m = len(live)
            if not m:
                break
        coords_parts.append(cur.copy())
        t_parts.append(t_enter)
        ray_parts.append(live)
    return (np.concatenate(coords_parts),
            np.concatenate(t_parts),
            np.concatenate(ray_parts))


def _skip(rays: _Rays, grid: SparseGrid, t_stop: np.ndarray):
    """Advance each ray with t_stop > 0 to its lockstep state at the
    earlier of t_stop and its entry into its first allocated leaf.

    Returns (rays, skipped), skipped marking the rays advanced. An
    advanced state holds exactly the crossings made before that time: a
    walk over leaves reaches each leaf crossing through the same additions
    of t_delta the lockstep makes, LEAF_SIZE per leaf, and takes leaves in
    the lockstep's order (ties go to the lowest axis); then each axis's
    last window of at most LEAF_SIZE crossings is replayed to count them.
    Nothing is advanced when the sensor is in an allocated leaf. Raises
    ValueError, as the lookup of a skipped voxel would, if one lies
    outside the key range.
    """
    skipped = t_stop > 0
    walk = np.flatnonzero(skipped)
    if not len(walk):
        return rays, skipped
    cur0 = rays.cur[0]
    key0 = leaf_keys(pack_keys(cur0))
    if grid.leaf_slots(key0)[0]:
        return rays, np.zeros_like(skipped)
    r = rays.take(walk)
    m = len(walk)
    # per axis, the index of the ray's first crossing into another leaf
    low = cur0 & (LEAF_SIZE - 1)
    first = np.where(r.step > 0, LEAF_SIZE - 1 - low, low)
    t_next = r.t_max
    for i in range(LEAF_SIZE - 1):
        t_next = np.where(first > i, t_next + r.t_delta, t_next)

    # walk leaves. Per ray and axis: t_next, the t of the next leaf
    # crossing; t_last, that of the last one (of the first crossing before
    # any); crossed, the leaf crossings made. key is the ray's leaf. A ray
    # leaves the working arrays at the crossing that reaches t_stop or an
    # allocated leaf, and t_end, t_from and n_from keep its state there
    t_last, crossed = r.t_max, np.zeros((m, 3), dtype=np.int64)
    key = np.repeat(key0, m)
    t_delta, key_step, stop = r.t_delta, r.step * LEAF_KEY_STEP, t_stop[walk]
    at = np.arange(m)
    t_end, t_from, n_from = np.empty(m), np.empty((m, 3)), np.empty_like(crossed)
    row_start = np.arange(0, 3 * m, 3)
    while len(at):
        axis = t_next.argmin(axis=1)
        flat = axis + row_start[:len(at)]
        t = t_next.take(flat)
        key += key_step.take(flat)
        done = (t >= stop) | (grid.leaf_slots(key) > 0)
        if done.any():
            end = np.flatnonzero(done)
            t_end[at[end]] = np.minimum(t[end], stop[end])
            t_from[at[end]] = t_last[end]
            n_from[at[end]] = crossed[end]
            go = np.flatnonzero(~done)
            t_next, t_last, crossed, t_delta, key_step = (
                a.take(go, axis=0)
                for a in (t_next, t_last, crossed, t_delta, key_step))
            key, stop, at, t, axis = (a.take(go)
                                      for a in (key, stop, at, t, axis))
            flat = axis + row_start[:len(at)]
        t_last.put(flat, t)
        crossed.put(flat, crossed.take(flat) + 1)
        dt = t_delta.take(flat)
        for _ in range(LEAF_SIZE):
            t += dt
        t_next.put(flat, t)

    # replay each axis from t_from, counting its crossings before t_end;
    # the first one not before is the axis's t_max
    k = np.where(n_from > 0, first + LEAF_SIZE * (n_from - 1), 0)
    t, t_k = t_from, t_from
    for _ in range(LEAF_SIZE):
        before = t < t_end[:, None]
        k = k + before
        t = t + r.t_delta
        t_k = np.where(before, t, t_k)
    cur, t_max, n = rays.cur.copy(), rays.t_max.copy(), rays.n.copy()
    cur[walk] = cur0 + r.step * k
    t_max[walk] = t_k
    n[walk] = k.sum(axis=1)
    pack_keys(cur[walk])
    return rays._replace(cur=cur, t_max=t_max, n=n), skipped


def generate(origin, coords: np.ndarray, centers: np.ndarray,
             grid: SparseGrid, band_width: int = 3) -> TestPointSet:
    """Ray-carving and endpoint-band test points for one frame: the
    rows of ray_rows, deduplicated."""
    return merge(ray_rows(origin, coords, centers, grid, band_width))


def ray_rows(origin, coords: np.ndarray, centers: np.ndarray,
             grid: SparseGrid, band_width: int = 3,
             stats=None) -> TestPointSet:
    """Ray-carving and endpoint-band test points for one frame, a voxel
    possibly more than once (see generate).

    Args:
        origin: sensor position in world coordinates.
        coords/centers: voxelized measured cloud (see local_field.voxelize).
        grid: fused global grid; read-only here.
        band_width: half-width of the always-emitted endpoint band, in
            voxels, measured along the ray.
        stats: when given, receives n_ray_steps, the (ray, voxel) steps
            the lockstep walked, and n_ray_steps_skipped, the steps of the
            full walk from the sensor it did not.

    Every measured voxel appears in the output. Signs are +1 on the
    sensor side of the endpoint and -1 behind it. Rows come in the order
    of the full lockstep walk, step by step and, within a step, by ray.

    A voxel entered before range - (band_width + 2) * h lies wholly
    before the band (see below), and a carving candidate outside every
    allocated leaf finds no stale surface, so neither row can be emitted.
    Each ray therefore starts (_skip) at the lockstep state at the
    earlier of that t and its entry into its first allocated leaf, and
    the lockstep runs from there. That state is the full walk's own, so
    the rows from it are the full walk's rows from that step on.
    """
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    if len(centers) == 0:
        return TestPointSet.empty()
    h = grid.voxel_size
    band = band_width * h
    rays = _start(origin, centers, h, extra=(band_width + 2) * h)

    dirs = centers - origin
    rng = np.linalg.norm(dirs, axis=1)
    dirn = dirs / np.maximum(rng, 1e-300)[:, None]

    rays, skipped = _skip(rays, grid, rng[rays.ray] - (band_width + 2) * h)
    vox, t_enter, ray = _traverse(rays, ~skipped)
    if stats is not None:
        stats.n_ray_steps = len(vox)
        stats.n_ray_steps_skipped = int(rays.n[skipped].sum()
                                        + np.count_nonzero(skipped))
    r = rng[ray]

    # The ray enters a voxel at t_enter on the voxel's boundary, and no
    # point of the voxel is farther than h*sqrt(3)/2 from its centre, so
    # the centre's projection t_center lies within 0.87h of t_enter (DDA
    # rounding adds far less than the rest of the 2h margin). Only voxels
    # entered within band + 2h of the range need t_center; every other
    # voxel lies wholly before the band (sign +1, a carving candidate)
    # or wholly after it (never emitted).
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
        # carve only where the fused map still believes in a surface
        found, dist, _, observed = grid.lookup(vox.take(cand, axis=0))
        stale = found & observed & (np.abs(dist) <= band)
        emit[cand[stale]] = True

    keep = np.flatnonzero(emit)
    out = vox.take(keep, axis=0)
    # rays resumed at different steps: restore (step, ray) order, a
    # voxel's step being its L1 distance from the origin voxel
    step = np.abs(out - world_to_grid(origin, h)).sum(axis=1)
    order = np.argsort(step * len(centers) + ray.take(keep))
    keep, out = keep.take(order), out.take(order, axis=0)
    signs = np.where(behind[keep], -1, 1)
    sources = np.where(in_band[keep], SOURCE_BAND, SOURCE_RAY).astype(np.uint8)
    return TestPointSet(out, grid_to_world(out, h), signs, sources)


def estimate_normals(centers: np.ndarray, origin, k: int = 10):
    """Per-point surface normals from k-NN covariance.

    The normal is the smallest-eigenvector of the neighborhood
    covariance, oriented toward the sensor origin. Points whose two
    smallest eigenvalues are comparable (ratio > 0.9) or whose
    neighborhood is rank-deficient get valid=False.

    Returns (normals, valid) arrays.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    m = len(centers)
    normals = np.zeros((m, 3))
    valid = np.zeros(m, dtype=bool)
    if m < 3:
        return normals, valid
    kk = min(k + 1, m)
    tree = cKDTree(centers)
    _, idx = tree.query(centers, k=kk)
    nbrs = centers[idx]                      # (m, kk, 3)
    mean = nbrs.mean(axis=1, keepdims=True)
    d = nbrs - mean
    cov = np.einsum("mki,mkj->mij", d, d) / kk
    evals, evecs = np.linalg.eigh(cov)      # ascending eigenvalues
    lam0, lam1, lam2 = evals[:, 0], evals[:, 1], evals[:, 2]
    scale = np.maximum(lam2, np.finfo(np.float64).tiny)
    planar = (lam1 > 1e-9 * scale) & (lam0 <= 0.9 * lam1)
    n = evecs[:, :, 0]
    flip = np.einsum("ij,ij->i", n, origin - centers) < 0.0
    n[flip] *= -1.0
    normals[planar] = n[planar]
    valid[planar] = True
    return normals, valid


def normal_augment(coords: np.ndarray, centers: np.ndarray,
                   normals: np.ndarray, valid: np.ndarray,
                   voxel_size: float, reach: int = 3) -> TestPointSet:
    """Test points stepped along each valid normal: the rows of
    normal_rows, deduplicated."""
    return merge(normal_rows(coords, centers, normals, valid, voxel_size,
                             reach))


def normal_rows(coords: np.ndarray, centers: np.ndarray,
                normals: np.ndarray, valid: np.ndarray,
                voxel_size: float, reach: int = 3) -> TestPointSet:
    """Test points stepped along each valid normal, a voxel possibly more
    than once.

    Emits positions at offsets {-reach..-1, +1..+reach} * voxel_size
    along the normal; positive offsets (sensor side) carry sign +1.
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    rows = np.flatnonzero(valid)
    if len(rows) == 0 or reach < 1:
        return TestPointSet.empty()
    offsets = np.concatenate([np.arange(1, reach + 1),
                              -np.arange(1, reach + 1)]) * voxel_size
    pos = (centers[rows, None, :]
           + offsets[None, :, None] * normals[rows, None, :])
    signs = np.broadcast_to(np.where(offsets > 0, 1, -1), pos.shape[:2])
    pos = pos.reshape(-1, 3)
    c = world_to_grid(pos, voxel_size)
    src = np.full(len(pos), SOURCE_NORMAL, dtype=np.uint8)
    return TestPointSet(c, grid_to_world(c, voxel_size), signs, src)
