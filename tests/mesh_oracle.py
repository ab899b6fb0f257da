"""The dense batched marching cubes that the observed-cell path replaced.

``meshing.mesh_leaves`` must equal ``mesh_leaves`` here bit for bit: every
target's 9^3 block gathered through one fancy index per field (729
computed pool indices per leaf), then the case, crossed-edge, vertex and
triangle code run over every cell of every target, _CHUNK targets at a
time.
"""

from typing import NamedTuple

import numpy as np

from gpfield.grid import KEY_BIAS, LEAF_SIZE, LEAF_VOXELS, pack_keys
from gpfield.mc_tables import CORNER_OFFSETS
from gpfield.meshing import (_BLOCK, _BLOCK_COORDS, _BLOCK_FLAT,
                             _BLOCK_NEIGHBOUR, _CASE_EDGES, _CASE_TRIS,
                             _CELL_AT, _CROSSED, _EDGE_AXIS, _EDGE_STEP,
                             _STRIDE, _TRI_TABLE, UPPER_NEIGHBOURS, LeafMesh)

_CHUNK = 32


class Blocks(NamedTuple):
    """The 9^3 voxel blocks read by the cells of a batch of leaves."""

    distance: np.ndarray    # (T, 9, 9, 9) float64, 0 where unset
    observed: np.ndarray    # (T, 9, 9, 9) bool, set and observed
    slots: np.ndarray       # (T, 8) pool slot of the leaf and each upper
                            # neighbour, 0 where unallocated or past the
                            # key range


def mesh_leaves(grid, origins):
    """One LeafMesh per origin, _CHUNK targets per dense pass."""
    origins = [tuple(int(v) for v in o) for o in origins]
    out = []
    for i in range(0, len(origins), _CHUNK):
        out += mesh_chunk(grid, origins[i:i + _CHUNK])
    return out


def gather_blocks(grid, origins) -> Blocks:
    """Every target's 9^3 block through one take per field."""
    org = np.asarray(origins, dtype=np.int64).reshape(-1, 3)
    if (org & (LEAF_SIZE - 1)).any():
        raise ValueError("leaf origins must be multiples of LEAF_SIZE")
    nb = org[:, None, :] + UPPER_NEIGHBOURS
    keyed = ((nb >= -KEY_BIAS) & (nb < KEY_BIAS)).all(axis=2)
    keys = np.full(keyed.shape, -1, dtype=np.int64)
    keys[keyed] = pack_keys(nb[keyed])
    slots = grid.leaf_slots(keys.ravel()).reshape(keys.shape)
    at = slots[:, _BLOCK_NEIGHBOUR] * LEAF_VOXELS + _BLOCK_FLAT
    mask = grid.voxels("value_mask").take(at)
    dist = np.where(mask, grid.voxels("distance").take(at), np.float32(0.0))
    shape = (len(org),) + (_BLOCK,) * 3
    return Blocks(dist.astype(np.float64).reshape(shape),
                  (grid.voxels("observed").take(at) & mask).reshape(shape),
                  slots)


def mesh_chunk(grid, origins: list) -> list:
    """Marching cubes over every cell of every target of one chunk."""
    h = grid.voxel_size
    channels = grid.prop_channels
    blocks = gather_blocks(grid, origins)
    neg = (blocks.distance < 0).view(np.uint8)
    case = np.zeros((len(origins),) + (LEAF_SIZE,) * 3, dtype=np.uint8)
    valid = np.ones(case.shape, dtype=bool)
    for ci, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        sl = (slice(None), slice(ox, ox + LEAF_SIZE),
              slice(oy, oy + LEAF_SIZE), slice(oz, oz + LEAF_SIZE))
        case |= neg[sl] << ci
        valid &= blocks.observed[sl]
    c = np.flatnonzero(valid & _CROSSED[case])
    if len(c) == 0:
        return [LeafMesh.empty(channels) for o in origins]
    cases = case.ravel()[c]
    cell_target, c = np.divmod(c, LEAF_VOXELS)
    cell_at = cell_target * _BLOCK ** 3 + _CELL_AT[c]

    cell_ix, e = np.nonzero(_CASE_EDGES[cases])
    key = (cell_at[cell_ix] + _EDGE_STEP[e]) * 3 + _EDGE_AXIS[e]
    rows = np.arange(len(key), dtype=np.int32)
    first_use = np.full(len(origins) * _BLOCK ** 3 * 3, len(key),
                        dtype=np.int32)
    np.minimum.at(first_use, key, rows)
    first = np.flatnonzero(first_use[key] == rows)
    first_use[key[first]] = np.arange(len(first))
    vertex_of = np.full((len(cases), 12), -1)
    vertex_of[cell_ix, e] = first_use[key]

    lo, axis = np.divmod(key[first], 3)
    hi = lo + _STRIDE[axis]
    dist = blocks.distance.ravel()
    d0 = dist[lo]
    t = d0 / (d0 - dist[hi])
    target, local = np.divmod(lo, _BLOCK ** 3)
    voxel = np.asarray(origins, dtype=np.int64)[target] + _BLOCK_COORDS[local]
    n = np.arange(len(first))
    pos = (voxel + 0.5) * h
    pos[n, axis] += t * h
    if channels:
        end_target, end_local = np.divmod(np.concatenate([lo, hi]),
                                          _BLOCK ** 3)
        at = (blocks.slots[end_target, _BLOCK_NEIGHBOUR[end_local]]
              * LEAF_VOXELS + _BLOCK_FLAT[end_local])
        p = grid.voxels("prop")[at].astype(np.float64)
        p0 = p[:len(n)]
        pv = p0 + t[:, None] * (p[len(n):] - p0)
    else:
        pv = np.zeros((len(n), 0))

    tri_cell, slot = np.nonzero(_CASE_TRIS[cases])
    tri_target = cell_target[tri_cell]
    tris = vertex_of[tri_cell[:, None], _TRI_TABLE[cases[tri_cell], slot]]
    bounds = np.arange(len(origins) + 1)
    vs = np.searchsorted(target, bounds).tolist()
    ts = np.searchsorted(tri_target, bounds).tolist()
    tris -= np.asarray(vs)[tri_target][:, None]
    edges = np.column_stack([voxel, axis])
    out = []
    for i, origin in enumerate(origins):
        a, b = vs[i], vs[i + 1]
        if a == b:
            out.append(LeafMesh.empty(channels))
            continue
        out.append(LeafMesh(edges[a:b].copy(), pos[a:b].copy(),
                            pv[a:b].copy(), tris[ts[i]:ts[i + 1]].copy()))
    return out
