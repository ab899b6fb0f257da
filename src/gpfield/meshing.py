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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .grid import (LEAF_SIZE, Groups, SparseGrid, group_by, leaf_keys,
                   leaf_origin_of, pack_keys, world_to_grid)
from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, EDGE_TABLE, TRI_TABLE

_EDGE_TABLE = np.asarray(EDGE_TABLE, dtype=np.int64)
# edge indices of up to five triangles per case, -1 for unused slots
_TRI_TABLE = np.asarray(TRI_TABLE, dtype=np.int64)[:, :15].reshape(-1, 5, 3)
# lower corner offset and axis of each of the 12 cell edges
_CORNERS = np.asarray(CORNER_OFFSETS, dtype=np.int64)
_EDGE_LOWER = np.array([np.minimum(_CORNERS[a], _CORNERS[b])
                        for a, b in EDGE_CORNERS])
_EDGE_AXIS = np.array([int(np.flatnonzero(_CORNERS[a] != _CORNERS[b])[0])
                       for a, b in EDGE_CORNERS])
_BLOCK = LEAF_SIZE + 1

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
    origin = tuple(int(v) for v in origin)
    h = grid.voxel_size
    dist, obs, prop = grid.gather_block(origin, (_BLOCK,) * 3)
    if not obs.any():
        return LeafMesh.empty(origin, grid.prop_channels)

    case = np.zeros((LEAF_SIZE,) * 3, dtype=np.int64)
    valid = np.ones((LEAF_SIZE,) * 3, dtype=bool)
    for ci, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        block = dist[ox:ox + LEAF_SIZE, oy:oy + LEAF_SIZE, oz:oz + LEAF_SIZE]
        case |= (block < 0).astype(np.int64) << ci
        valid &= obs[ox:ox + LEAF_SIZE, oy:oy + LEAF_SIZE, oz:oz + LEAF_SIZE]
    cells = np.argwhere(valid & (_EDGE_TABLE[case] != 0))
    if len(cells) == 0:
        return LeafMesh.empty(origin, grid.prop_channels)

    cases = case[cells[:, 0], cells[:, 1], cells[:, 2]]
    # crossed edges, cell by cell and in edge order within a cell; an edge
    # shared by several cells is one vertex, placed at its first appearance
    cell_ix, e = np.nonzero((_EDGE_TABLE[cases][:, None] >> np.arange(12)) & 1)
    lo = cells[cell_ix] + _EDGE_LOWER[e]
    axis = _EDGE_AXIS[e]
    first, vertex = first_appearance(group_by(
        ((lo[:, 0] * _BLOCK + lo[:, 1]) * _BLOCK + lo[:, 2]) * 3 + axis))
    vertex_of = np.full((len(cells), 12), -1)
    vertex_of[cell_ix, e] = vertex

    lo, axis = lo[first], axis[first]
    n = np.arange(len(first))
    hi = lo.copy()
    hi[n, axis] += 1
    lo_ix, hi_ix = tuple(lo.T), tuple(hi.T)
    d0 = dist[lo_ix]
    t = d0 / (d0 - dist[hi_ix])
    org = np.asarray(origin, dtype=np.int64)
    pos = (org + lo.astype(np.float64) + 0.5) * h
    pos[n, axis] += t * h
    p0 = prop[lo_ix]
    pv = p0 + t[:, None] * (prop[hi_ix] - p0)

    tri_cell, slot = np.nonzero(_TRI_TABLE[cases][:, :, 0] >= 0)
    tris = vertex_of[tri_cell[:, None], _TRI_TABLE[cases[tri_cell], slot]]
    return LeafMesh(origin, np.column_stack([org + lo, axis]), pos, pv, tris)


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
    return combine((mesh_leaf(grid, o) for o in origins), grid.voxel_size,
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
