"""Incremental marching cubes over the fused grid.

Cells connect the centers of eight adjacent voxels; a cell belongs to
the leaf containing its lexicographically smallest corner, so each
leaf meshes its own 8^3 block of cells and reads a one-voxel halo from
its neighbors. Cells with any never-observed corner are skipped, which
leaves open boundaries at the observation frontier instead of inventing
geometry. A vertex is identified by its grid edge (ix, iy, iz, axis):
any cell sharing the edge computes the same position bit for bit, so
meshes of adjacent leaves merge exactly through ``group_edges``, and the
per-leaf meshes are the only mesh state a caller needs to keep. The
zero crossings of any leaf are recomputed from them with
``crossings_by_leaf``.

A frame's touched leaves are meshed in one batched pass,
``mesh_leaves``: the 9^3 voxel blocks of a chunk of leaves are gathered
into one array, and the case lookup, the crossed edges, the vertices and
the triangles run over the cells of all of them at once (Lorensen &
Cline's tables are pure lookups, so they batch across leaves). Each leaf
gets the same mesh, bit for bit, as meshing it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .grid import (KEY_BIAS, LEAF_LOG2, LEAF_SIZE, LEAF_VOXELS, Groups,
                   SparseGrid, group_by, leaf_keys, leaf_origin_of,
                   local_flat_index, pack_keys, world_to_grid)
from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, EDGE_TABLE, TRI_TABLE

_EDGE_TABLE = np.asarray(EDGE_TABLE, dtype=np.int64)
# per case: whether the cell is crossed, and which of its 12 edges are
_CROSSED = _EDGE_TABLE != 0
_CASE_EDGES = ((_EDGE_TABLE[:, None] >> np.arange(12)) & 1).astype(bool)
# edge indices of up to five triangles per case, -1 for unused slots
_TRI_TABLE = np.asarray(TRI_TABLE, dtype=np.int64)[:, :15].reshape(-1, 5, 3)
_CASE_TRIS = _TRI_TABLE[:, :, 0] >= 0
# a leaf's cells read the 9^3 block of voxels from its origin up; flat
# block indices step by _STRIDE along the axes
_BLOCK = LEAF_SIZE + 1
_STRIDE = np.array([_BLOCK * _BLOCK, _BLOCK, 1])
_BLOCK_COORDS = np.stack(np.meshgrid(*[np.arange(_BLOCK)] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3)
# flat block index of the low corner of each of a leaf's 8^3 cells
_CELL_AT = np.argwhere(np.ones((LEAF_SIZE,) * 3, dtype=bool)) @ _STRIDE
# each of the 12 cell edges: step from the cell corner to the edge's low
# end, and its axis
_CORNERS = np.asarray(CORNER_OFFSETS, dtype=np.int64)
_EDGE_STEP = np.array([np.minimum(_CORNERS[a], _CORNERS[b])
                       for a, b in EDGE_CORNERS]) @ _STRIDE
_EDGE_AXIS = np.array([int(np.flatnonzero(_CORNERS[a] != _CORNERS[b])[0])
                       for a, b in EDGE_CORNERS])
# offsets from a leaf origin to itself and its 7 upper neighbours, and for
# each block voxel, which of those 8 leaves holds it at what flat index
UPPER_NEIGHBOURS = LEAF_SIZE * np.array(
    [(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])
_BLOCK_NEIGHBOUR = (_BLOCK_COORDS >> LEAF_LOG2) @ np.array([4, 2, 1])
_BLOCK_FLAT = local_flat_index(_BLOCK_COORDS)
# leaves meshed per vectorized pass; bounds mesh_leaves' scratch memory
_CHUNK = 32

AREA_EPS = 1e-18


@dataclass
class LeafMesh:
    """Triangles produced by one leaf's cells, vertices in first-use order.

    Row i of edges is the grid edge (ix, iy, iz, axis) vertex i lies on,
    so identical vertices emitted by neighboring leaves merge exactly.
    """

    origin: tuple[int, int, int]
    edges: np.ndarray               # (V, 4) int64
    positions: np.ndarray           # (V, 3) float64
    props: np.ndarray               # (V, P) float64
    triangles: np.ndarray           # (T, 3) int64 local vertex indices

    @staticmethod
    def empty(origin, prop_channels: int = 0) -> "LeafMesh":
        return LeafMesh(origin, np.zeros((0, 4), dtype=np.int64),
                        np.zeros((0, 3)), np.zeros((0, prop_channels)),
                        np.zeros((0, 3), dtype=np.int64))

    @property
    def verts(self) -> np.ndarray:
        """Vertex positions, the same array as positions."""
        return self.positions

    @property
    def tris(self) -> list:
        """Triangle rows as a list, empty when the leaf has no surface."""
        return self.triangles.tolist()


@dataclass
class TriangleMesh:
    vertices: np.ndarray            # (V, 3) float64
    triangles: np.ndarray           # (T, 3) int64
    properties: np.ndarray          # (V, P) float64
    vertex_leaf: np.ndarray         # (V, 3) int64 owning leaf origin

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @staticmethod
    def empty(prop_channels: int = 0) -> "TriangleMesh":
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64),
                            np.zeros((0, prop_channels)),
                            np.zeros((0, 3), dtype=np.int64))


def mesh_leaf(grid: SparseGrid, origin) -> LeafMesh:
    """Run marching cubes over the cells owned by one leaf."""
    return mesh_leaves(grid, [origin])[0]


def mesh_leaves(grid: SparseGrid, origins) -> list:
    """Run marching cubes over the cells owned by each of the leaves.

    origins are leaf origins (multiples of LEAF_SIZE). The leaves are
    meshed _CHUNK at a time, each chunk in one vectorized pass, so
    scratch memory does not grow with their number. Returns one LeafMesh
    per origin, in order; each array of it owns its memory.
    """
    origins = [tuple(int(v) for v in o) for o in origins]
    out = []
    for i in range(0, len(origins), _CHUNK):
        out += _mesh_chunk(grid, origins[i:i + _CHUNK])
    return out


class Blocks(NamedTuple):
    """The 9^3 voxel blocks read by the cells of a batch of leaves."""

    distance: np.ndarray    # (T, 9, 9, 9) float64, 0 where unset
    observed: np.ndarray    # (T, 9, 9, 9) bool, set and observed
    slots: np.ndarray       # (T, 8) index into leaves of each upper
                            # neighbour, len(leaves) where unallocated
    leaves: list            # the allocated leaves the blocks read


def gather_blocks(grid: SparseGrid, origins) -> Blocks:
    """Gather the blocks of many leaves with one fancy index.

    A leaf's block is its own 8^3 voxels plus one layer of its 7 upper
    neighbours, the same values as ``grid.gather_block(origin, (9,)*3)``
    gives; neighbours past the top of the key range are unallocated.
    Properties are not gathered: read them where needed through slots.
    """
    org = np.asarray(origins, dtype=np.int64).reshape(-1, 3)
    if (org & (LEAF_SIZE - 1)).any():
        raise ValueError("leaf origins must be multiples of LEAF_SIZE")
    nb = org[:, None, :] + UPPER_NEIGHBOURS
    keyed = ((nb >= -KEY_BIAS) & (nb < KEY_BIAS)).all(axis=2)
    groups = group_by(pack_keys(nb[keyed]))
    found = grid.leaves_at(groups.keys.tolist())
    present = np.array([leaf is not None for leaf in found], dtype=bool)
    leaves = [leaf for leaf in found if leaf is not None]
    slot_of = np.where(present, np.cumsum(present) - 1, len(leaves))
    slots = np.full(keyed.shape, len(leaves), dtype=np.int64)
    slots[keyed] = slot_of[groups.inverse]

    # the row past the allocated leaves stands for every missing one
    dist = np.zeros((len(leaves) + 1, LEAF_VOXELS), dtype=np.float32)
    obs = np.zeros((len(leaves) + 1, LEAF_VOXELS), dtype=bool)
    if leaves:
        mask = np.stack([leaf.value_mask for leaf in leaves])
        np.copyto(dist[:-1], np.stack([leaf.distance for leaf in leaves]),
                  where=mask)
        np.logical_and(np.stack([leaf.observed for leaf in leaves]), mask,
                       out=obs[:-1])
    at = slots[:, _BLOCK_NEIGHBOUR] * LEAF_VOXELS + _BLOCK_FLAT
    shape = (len(org),) + (_BLOCK,) * 3
    return Blocks(dist.ravel()[at].astype(np.float64).reshape(shape),
                  obs.ravel()[at].reshape(shape), slots, leaves)


def _block_props(blocks: Blocks, at: np.ndarray) -> np.ndarray:
    """Properties, as float64, at flat indices into blocks' (T, 9, 9, 9)
    arrays; every voxel asked for must lie in an allocated leaf."""
    target, local = np.divmod(at, _BLOCK ** 3)
    used, rank = np.unique(blocks.slots[target, _BLOCK_NEIGHBOUR[local]],
                           return_inverse=True)
    prop = np.stack([blocks.leaves[s].prop for s in used.tolist()])
    return prop[rank, _BLOCK_FLAT[local]].astype(np.float64)


def _mesh_chunk(grid: SparseGrid, origins: list) -> list:
    """mesh_leaves over one chunk: the cells of all its leaves at once."""
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
    # crossed cells, leaf by leaf and in (x, y, z) order within a leaf
    c = np.flatnonzero(valid & _CROSSED[case])
    if len(c) == 0:
        return [LeafMesh.empty(o, channels) for o in origins]
    cases = case.ravel()[c]
    cell_target, c = np.divmod(c, LEAF_VOXELS)
    cell_at = cell_target * _BLOCK ** 3 + _CELL_AT[c]

    # crossed edges, cell by cell and in edge order within a cell, keyed
    # by their low end in the chunk's blocks (so no two leaves share a
    # key) and their axis; an edge shared by several cells of a leaf is
    # one vertex, placed at its first use. first_use maps a key to the
    # first row using it, then to that vertex's index
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
        p = _block_props(blocks, np.concatenate([lo, hi]))
        p0 = p[:len(n)]
        pv = p0 + t[:, None] * (p[len(n):] - p0)
    else:
        pv = np.zeros((len(n), 0))

    tri_cell, slot = np.nonzero(_CASE_TRIS[cases])
    tri_target = cell_target[tri_cell]
    tris = vertex_of[tri_cell[:, None], _TRI_TABLE[cases[tri_cell], slot]]
    # split per leaf, vertex indices local to it; copies, so no cached
    # mesh holds on to the chunk's arrays
    bounds = np.arange(len(origins) + 1)
    vs = np.searchsorted(target, bounds).tolist()
    ts = np.searchsorted(tri_target, bounds).tolist()
    tris -= np.asarray(vs)[tri_target][:, None]
    edges = np.column_stack([voxel, axis])
    out = []
    for i, origin in enumerate(origins):
        a, b = vs[i], vs[i + 1]
        if a == b:
            out.append(LeafMesh.empty(origin, channels))
            continue
        out.append(LeafMesh(origin, edges[a:b].copy(), pos[a:b].copy(),
                            pv[a:b].copy(), tris[ts[i]:ts[i + 1]].copy()))
    return out


def group_edges(edges: np.ndarray) -> Groups:
    """Group (N, 4) vertex edge rows (ix, iy, iz, axis) by edge.

    Groups come in tuple order of the rows. The voxel part is ranked
    first, so the edge key never outgrows int64 wherever voxel keys fit.
    """
    voxels = group_by(pack_keys(edges[:, :3]))
    return group_by(voxels.inverse * 3 + edges[:, 3])


def stack_vertices(meshes: list):
    """(edges, positions, props) of every vertex of the meshes, in order."""
    return tuple(np.concatenate([getattr(lm, name) for lm in meshes])
                 for name in ("edges", "positions", "props"))


def first_appearance(groups: Groups):
    """(rows, rank): each group's first row in input order, and every
    row's index into those rows."""
    rank = np.empty(len(groups.first), dtype=np.int64)
    rank[np.argsort(groups.first)] = np.arange(len(groups.first))
    return np.sort(groups.first), rank[groups.inverse]


def combine(leaf_meshes: Iterable[LeafMesh], voxel_size: float,
            prop_channels: int = 0) -> TriangleMesh:
    """Merge per-leaf meshes into one indexed triangle mesh.

    Vertices shared across leaves collapse through their edge keys.
    Zero-area triangles are dropped. Caller controls leaf order;
    passing leaves sorted by origin gives a canonical mesh.
    """
    meshes = [lm for lm in leaf_meshes if len(lm.positions)]
    if not meshes:
        return TriangleMesh.empty(prop_channels)
    edges, v, p = stack_vertices(meshes)
    offsets = np.cumsum([0] + [len(lm.positions) for lm in meshes[:-1]])
    first, index = first_appearance(group_edges(edges))
    v = v[first]
    t = index[np.concatenate([lm.triangles + o
                              for lm, o in zip(meshes, offsets)])]
    area2 = np.linalg.norm(np.cross(v[t[:, 1]] - v[t[:, 0]],
                                    v[t[:, 2]] - v[t[:, 0]]), axis=1)
    t = t[area2 > 2.0 * AREA_EPS]
    p = p[first] if prop_channels else np.zeros((len(v), 0))
    vleaf = leaf_origin_of(world_to_grid(v, voxel_size))
    return TriangleMesh(vertices=v, triangles=t, properties=p,
                        vertex_leaf=vleaf)


def marching_cubes(grid: SparseGrid, origins: Optional[Iterable] = None) -> TriangleMesh:
    """Mesh the given leaves (default: every leaf with observed voxels)."""
    if origins is None:
        origins = [leaf.origin for leaf in grid.leaves() if leaf.observed.any()]
    origins = sorted(tuple(int(v) for v in o) for o in origins)
    return combine(mesh_leaves(grid, origins), grid.voxel_size,
                   grid.prop_channels)


def crossings_by_leaf(positions: np.ndarray, props: np.ndarray,
                      voxel_size: float) -> dict:
    """Reduce surface vertices to one mean point per voxel, filed by leaf.

    Vertices are binned by their containing voxel and averaged, position
    and property alike; each voxel mean goes to the leaf holding the
    voxel. props is (N, P), P possibly 0.

    Returns {leaf origin: (positions, properties)} with leaves, and each
    leaf's voxels, in lexicographic order.
    """
    coords = world_to_grid(positions, voxel_size)
    voxels = group_by(pack_keys(coords))
    k = len(voxels.keys)
    pos = np.zeros((k, 3))
    cnt = np.zeros(k)
    np.add.at(pos, voxels.inverse, positions)
    np.add.at(cnt, voxels.inverse, 1.0)
    pos /= cnt[:, None]
    pr = np.zeros((k, props.shape[1]))
    if props.shape[1]:
        np.add.at(pr, voxels.inverse, props)
        pr /= cnt[:, None]
    leaves = group_by(leaf_keys(voxels.keys))
    origins = leaf_origin_of(coords[voxels.first[leaves.first]]).tolist()
    return {tuple(o): (pos[rows], pr[rows])
            for o, rows in zip(origins, leaves.rows())}


def zero_crossings(mesh: TriangleMesh, voxel_size: float, cap: int = 512):
    """Group mesh vertices into per-leaf surface point lists.

    Vertices are reduced to one mean position (and mean property) per
    voxel by crossings_by_leaf, and each leaf keeps at most `cap` of
    them.

    Returns {leaf origin: (positions, properties)}.
    """
    return {o: (pos[:cap], pr[:cap]) for o, (pos, pr) in
            crossings_by_leaf(mesh.vertices, mesh.properties,
                              voxel_size).items()}
