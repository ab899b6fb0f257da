"""Per-frame local distance field.

Each incoming point cloud is posed into the world frame, collapsed to
the centers of the voxels it touches, and partitioned by the leaves of
the sparse grid. One GP is trained per populated leaf; leaves with too
few points are folded into their nearest neighbor so every model has a
usable support. Queries route to the single model whose training
centroid is closest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.spatial import cKDTree

from . import gp
from .grid import (KEY_RANGE_ERROR, grid_to_world, group_by, in_key_range,
                   leaf_keys, pack_keys, world_to_grid)


class EmptyFrame(ValueError):
    """Frame carried no points."""


@dataclass
class Frame:
    """One posed sensor observation.

    points are in the sensor frame; rotation/translation map sensor to
    world. properties, when present, is an (N, P) array aligned with
    points.
    """

    points: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    properties: Optional[np.ndarray] = None
    timestamp: float = 0.0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        r = self.rotation
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-6):
            raise ValueError("rotation is not orthonormal")
        if not np.isclose(np.linalg.det(r), 1.0, atol=1e-6):
            raise ValueError("rotation determinant must be +1")
        if self.properties is not None:
            self.properties = np.asarray(self.properties, dtype=np.float64)
            self.properties = self.properties.reshape(len(self.points), -1)

    def points_world(self) -> np.ndarray:
        return self.points @ self.rotation.T + self.translation

    @property
    def origin(self) -> np.ndarray:
        return self.translation


class Voxels(NamedTuple):
    """A frame collapsed to voxels (see voxelize)."""

    coords: np.ndarray              # (V, 3) int64, lexicographic order
    centers: np.ndarray             # (V, 3) world-space voxel centres
    props: Optional[np.ndarray]     # (V, P) mean properties, or None
    n_dropped: int                  # points dropped for a non-finite position


def voxelize(frame: Frame, voxel_size: float) -> Voxels:
    """Collapse a frame to unique voxel centers.

    Returns the integer voxel coordinates in lexicographic order, their
    world-space centers, per-voxel mean properties (None if the frame has
    none) and the number of points dropped, with their properties, for a
    non-finite world position. Raises EmptyFrame when no point remains,
    and pack_keys's ValueError for a voxel outside the key range.
    """
    with np.errstate(invalid="ignore"):
        world = frame.points_world()
    finite = np.isfinite(world).all(axis=1)
    n_finite = int(finite.sum())
    if not n_finite:
        raise EmptyFrame("frame has no finite points")
    kept = world[finite]
    if not in_key_range(kept, voxel_size).all():
        raise ValueError(KEY_RANGE_ERROR)     # before the int64 cast
    coords = world_to_grid(kept, voxel_size)
    groups = group_by(pack_keys(coords))
    uniq = coords[groups.first]
    centers = grid_to_world(uniq, voxel_size)
    props = None
    if frame.properties is not None and frame.properties.shape[1] > 0:
        props = groups.mean(frame.properties[finite])
    return Voxels(uniq, centers, props, len(world) - n_finite)


class LocalField:
    """Per-leaf GP models over one frame's voxelized cloud."""

    def __init__(self, models: list[gp.GpLeafModel], params: gp.KernelParams,
                 prop_clip=None):
        self.models = models
        self.params = params
        self.prop_clip = prop_clip
        self.centroids = np.array([m.centroid for m in models]).reshape(-1, 3)
        self._tree = cKDTree(self.centroids) if len(models) else None

    @property
    def has_properties(self) -> bool:
        return bool(self.models) and self.models[0].alpha_prop is not None

    def query_batch(self, points: np.ndarray,
                    stage_ms: Optional[dict] = None):
        """Vectorized query: one gp.routed_moments call over every routing
        model (grouped by training-set size), then reverting, variance
        propagation and clips once over all points. stage_ms, when given,
        receives the milliseconds of the route and of the moments.
        Points are read as rows (see gp.as_rows). Raises ValueError naming
        the first row that is not finite or is too far from every model to
        route."""
        pts = gp.as_rows(points)
        if not self.models:
            raise EmptyFrame("local field has no models")
        t0 = time.perf_counter()
        gp.check_rows(pts)
        sel = gp.route(self._tree, pts, 1)
        t1 = time.perf_counter()
        has_prop = self.has_properties
        mo, at = gp.routed_moments(self.models, pts, sel, properties=has_prop)
        if stage_ms is not None:
            stage_ms.update(route=(t1 - t0) * 1e3,
                            moments=(time.perf_counter() - t1) * 1e3)
        d, v, c, w = gp.nearest_slot(mo, at, self.params, self.prop_clip)
        return d[:, 0], v, c, w


def build_voxelized(coords: np.ndarray, centers: np.ndarray,
                    props: Optional[np.ndarray], params: gp.KernelParams,
                    min_leaf_points: int = 4, prop_clip=None) -> LocalField:
    """Train one GP per populated leaf of a voxelized cloud (see voxelize),
    in one gp.train_many call.

    Leaves holding fewer than min_leaf_points voxels are merged into
    the nearest sufficiently populated leaf (by training centroid), found
    in one cKDTree query over their centroids; if no leaf is large enough
    everything trains as-is.
    """
    leaves = group_by(leaf_keys(pack_keys(coords)))
    sizes = np.diff(leaves.starts)
    big = np.flatnonzero(sizes >= min_leaf_points)
    merged_into = np.arange(len(sizes))
    if len(big) and len(big) < len(sizes):
        centroids = leaves.mean(centers)
        small = np.flatnonzero(sizes < min_leaf_points)
        _, nearest = cKDTree(centroids[big]).query(centroids[small])
        merged_into[small] = big[nearest]

    # groups, and so hosts, are in lexicographic leaf-origin order, which
    # makes model routing deterministic
    hosts = group_by(merged_into[leaves.inverse]).rows()
    models = gp.train_many([centers[rows] for rows in hosts], params,
                           None if props is None
                           else [props[rows] for rows in hosts])
    return LocalField(models, params, prop_clip)
