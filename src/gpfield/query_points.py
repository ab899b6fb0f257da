"""Fusion test-point generation.

For every measured voxel a ray is traced from the sensor origin with
an integer DDA. Voxels in a band around the endpoint always become
test points; free-space voxels along the ray are emitted only when the
fused map still holds a stale surface there, which is what lets moved
objects be carved away. Surface voxels additionally spawn test points
along their estimated normals so thin observations gain support on
both sides.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .grid import SparseGrid, grid_to_world, group_by, pack_keys, world_to_grid

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


def _traverse(origin, ends: np.ndarray, voxel_size: float, extra: float):
    """Lockstep DDA over many rays from one origin.

    Returns flattened (coords, t_enter, ray_index) arrays covering each
    ray from the origin voxel until entry t exceeds its range + extra,
    step by step and, within a step, in ascending ray order. A ray is
    dropped from the working arrays at the step it finishes, so each
    step costs what the rays still running cost.
    """
    o = np.asarray(origin, dtype=np.float64).reshape(3)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 3)
    h = voxel_size
    delta = ends - o
    rng = np.linalg.norm(delta, axis=1)
    live = np.flatnonzero(rng > 1e-12)
    dirn = delta[live] / rng[live, None]
    stop = rng[live] + extra

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

    row_start = np.arange(0, 3 * m, 3)
    coords_parts = [cur.copy()]
    t_parts = [np.zeros(m)]
    ray_parts = [live]
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


def generate(origin, coords: np.ndarray, centers: np.ndarray,
             grid: SparseGrid, band_width: int = 3) -> TestPointSet:
    """Ray-carving and endpoint-band test points for one frame: the
    rows of ray_rows, deduplicated."""
    return merge(ray_rows(origin, coords, centers, grid, band_width))


def ray_rows(origin, coords: np.ndarray, centers: np.ndarray,
             grid: SparseGrid, band_width: int = 3) -> TestPointSet:
    """Ray-carving and endpoint-band test points for one frame, a voxel
    possibly more than once (see generate).

    Args:
        origin: sensor position in world coordinates.
        coords/centers: voxelized measured cloud (see local_field.voxelize).
        grid: fused global grid; read-only here.
        band_width: half-width of the always-emitted endpoint band, in
            voxels, measured along the ray.

    Every measured voxel appears in the output. Signs are +1 on the
    sensor side of the endpoint and -1 behind it.
    """
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    if len(centers) == 0:
        return TestPointSet.empty()
    h = grid.voxel_size
    band = band_width * h
    vox, t_enter, ray = _traverse(origin, centers, h, extra=(band_width + 2) * h)

    dirs = centers - origin
    rng = np.linalg.norm(dirs, axis=1)
    dirn = dirs / np.maximum(rng, 1e-300)[:, None]
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
    signs = np.where(behind[keep], -1, 1)
    sources = np.where(in_band[keep], SOURCE_BAND, SOURCE_RAY).astype(np.uint8)
    out = vox.take(keep, axis=0)
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
