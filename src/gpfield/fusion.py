"""Weighted running fusion of per-frame distances into the global grid.

Each test point contributes its inferred signed distance with weight
1 - v, where v is the propagated distance variance normalized into
[0, 0.99]. The per-voxel state keeps the running weighted mean and the
accumulated weight, so fusing a sequence one point at a time matches
the batch weighted mean of the same sequence. Properties fuse the same
way inside a narrow band around the surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (LEAF_VOXELS, SparseGrid, VoxelState, group_by, leaf_keys,
                   local_flat_index, pack_keys)
from .query_points import TestPointSet


@dataclass
class FusionConfig:
    """Normalization and gating constants for fusion."""

    v_max: float                    # propagated-variance normalizer
    w_max: float                    # property-variance normalizer (kernel sigma2)
    weight_cap: float = 100.0       # ceiling on accumulated weight
    surface_band: float = 0.1      # metres; gates property fusion and observed


# normalized variances are clipped here, so every fused weight stays positive
V_CLIP = 0.99


def _weight(variance, v_max: float) -> np.ndarray:
    v = np.asarray(variance, dtype=np.float64)
    vn = np.minimum(np.divide(v, v_max, out=np.zeros_like(v),
                              where=v_max > 0), V_CLIP)
    return 1.0 - vn


def fuse_point(state: Optional[VoxelState], distance: float, variance: float,
               cfg: FusionConfig, prop: Optional[np.ndarray] = None,
               prop_variance: float = 0.0) -> VoxelState:
    """Fuse one signed distance observation into a voxel state.

    Args:
        state: prior voxel state, or None for a first observation.
        distance: signed distance inferred at the voxel center.
        variance: propagated distance variance (raw, unnormalized).
        prop: property vector, fused only when the distance lies within
            cfg.surface_band of the surface.

    Returns a new VoxelState; the input is not mutated.
    """
    if state is None:
        state = VoxelState(prop=np.zeros(0 if prop is None else len(prop)))
    w = float(_weight(variance, cfg.v_max))
    total = state.dist_weight + w
    new_d = (state.dist_weight * state.distance + w * distance) / total
    new_v = min(total, cfg.weight_cap)
    near_surface = abs(distance) <= cfg.surface_band
    new_prop = state.prop.copy()
    new_pw = state.prop_weight
    if prop is not None and len(prop) and near_surface:
        wc = min(float(_weight(prop_variance, cfg.w_max)), w)
        pw_total = state.prop_weight + wc
        if pw_total > 0:
            new_prop = (state.prop_weight * state.prop + wc * np.asarray(prop)) / pw_total
        new_pw = min(pw_total, cfg.weight_cap)
    return VoxelState(distance=new_d, dist_weight=new_v, prop=new_prop,
                      prop_weight=new_pw,
                      observed=state.observed or near_surface)


@dataclass
class FusionStats:
    voxels_fused: int = 0
    leaves_touched: int = 0
    new_leaves: int = 0


def fuse_frame(grid: SparseGrid, points: TestPointSet, distances: np.ndarray,
               variances: np.ndarray, cfg: FusionConfig,
               props: Optional[np.ndarray] = None,
               prop_variances: Optional[np.ndarray] = None) -> FusionStats:
    """Fuse one frame's test points with one gather and one scatter per
    leaf array of the grid's pool.

    distances are signed (test-point sign already applied). Missing
    leaves are allocated in ascending key order; leaves that receive
    updates are marked active on the grid in that order. Voxel
    coordinates in `points` are assumed deduplicated, which
    generate()/merge() guarantee.
    """
    n = len(points)
    stats = FusionStats(voxels_fused=n)
    if n == 0:
        return stats
    d = np.asarray(distances, dtype=np.float64)
    w = _weight(variances, cfg.v_max)
    near = np.abs(d) <= cfg.surface_band
    fuse_props = props is not None and grid.prop_channels > 0
    if fuse_props:
        wc = np.minimum(_weight(prop_variances, cfg.w_max), w)

    # keying every point first rejects out-of-range voxels before any write
    leaves = group_by(leaf_keys(pack_keys(points.coords)))
    before = grid.n_leaves
    slots = grid.allocate(leaves.keys)
    at = slots[leaves.inverse] * LEAF_VOXELS + local_flat_index(points.coords)
    # views taken after allocate, which may have grown the pool
    dist, weight, observed, mask, prop, prop_weight = map(grid.voxels, (
        "distance", "dist_weight", "observed", "value_mask", "prop",
        "prop_weight"))
    old_d = dist[at].astype(np.float64)
    old_w = weight[at].astype(np.float64)
    total = old_w + w
    dist[at] = (old_w * old_d + w * d) / total
    weight[at] = np.minimum(total, cfg.weight_cap)
    observed[at] |= near
    mask[at] = True
    if fuse_props:
        sel = np.flatnonzero(near)
        if len(sel):
            lat = at[sel]
            old_p = prop[lat].astype(np.float64)
            old_pw = prop_weight[lat].astype(np.float64)
            wcs = wc[sel]
            pt = old_pw + wcs
            safe = np.maximum(pt, np.finfo(np.float64).tiny)
            prop[lat] = (old_pw[:, None] * old_p
                         + wcs[:, None] * props[sel]) / safe[:, None]
            prop_weight[lat] = np.minimum(pt, cfg.weight_cap)
    # each leaf stamped as get_or_create_leaf and then mark_active would,
    # leaf after leaf in key order
    grid.activate(slots, touches=2)
    stats.leaves_touched = len(slots)
    stats.new_leaves = grid.n_leaves - before
    return stats
