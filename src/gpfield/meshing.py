"""Incremental marching cubes over the fused grid.

Cells connect the centers of eight adjacent voxels; a cell belongs to
the leaf containing its lexicographically smallest corner, so each
leaf meshes its own 8^3 block of cells and reads a one-voxel halo from
its neighbors. Cells with any never-observed corner are skipped, which
leaves open boundaries at the observation frontier instead of inventing
geometry. A vertex is identified by its grid edge (ix, iy, iz, axis):
any cell sharing the edge computes the same position bit for bit, so
meshes of adjacent leaves merge exactly through ``group_edges``, and the
per-leaf meshes are the only mesh state to keep. ``SurfaceMesh`` keeps
them: after a frame it remeshes the active leaves and their lower
neighbours, and recomputes the zero crossings of every leaf a changed
mesh puts a vertex in, with ``crossings_by_leaf``.

A frame's touched leaves are meshed in one batched pass,
``mesh_leaves``, whose cost follows the observed cells. One
``SparseGrid.coord_slots`` lookup finds the pool slots of every leaf and
its upper neighbours. A leaf's 9^3 voxel block comes from whole pool
rows: its own row, as [x][y][z], and one face, edge or corner of each
neighbour's. The valid cells, those with all eight corners observed,
are found first from the observed blocks alone, so a leaf without one
gets an empty mesh without its distances being read. The leaves with a
valid cell are packed into chunks, and per chunk the case lookup, the
crossed edges (those whose corners differ in sign), the vertices and
the triangles run over the cells of all of them at once (Lorensen &
Cline's tables are pure lookups, so they batch across leaves). Vertex
properties come from one more fancy index through the same slots. Each
leaf gets the same mesh, bit for bit, as meshing it alone.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .grid import (KEY_BIAS, LEAF_LOG2, LEAF_SIZE, LEAF_VOXELS, Groups,
                   SparseGrid, group_by, isin_sorted, leaf_keys,
                   leaf_origin_of, local_flat_index, pack_keys, world_to_grid)
from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE

# per case (bit i set when corner i is negative): which of its 12 edges
# are crossed, those whose two corners differ in sign, and whether any is
_END_NEGATIVE = (np.arange(256)[:, None, None] >> np.array(EDGE_CORNERS)) & 1
_CASE_EDGES = _END_NEGATIVE[..., 0] != _END_NEGATIVE[..., 1]
_CROSSED = _CASE_EDGES.any(axis=1)
# edge indices of up to five triangles per case, -1 for unused slots
_TRI_TABLE = np.asarray(TRI_TABLE, dtype=np.int64)[:, :15].reshape(-1, 5, 3)
_CASE_TRIS = _TRI_TABLE[:, :, 0] >= 0
# case index of a cell whose corner (ox, oy, oz) sets bit ox + 2*oy + 4*oz
_CASE_OF_CORNERS = sum(
    ((np.arange(256) >> (ox + 2 * oy + 4 * oz)) & 1) << ci
    for ci, (ox, oy, oz) in enumerate(CORNER_OFFSETS)).astype(np.uint8)
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
# the same map by whole rows: for the leaf and each upper neighbour, where
# in the 9^3 block its voxels go and which of its [x][y][z] voxels (flat
# index x*64 + y*8 + z) go there: all of its own, and the low face, edge
# or corner of a neighbour's
_BLOCK_PARTS = [(tuple(LEAF_SIZE if d else slice(LEAF_SIZE) for d in off),
                 tuple(0 if d else slice(None) for d in off))
                for off in UPPER_NEIGHBOURS // LEAF_SIZE]
# leaves meshed per vectorized pass; bounds mesh_leaves' scratch memory
_CHUNK = 32

AREA_EPS = 1e-18


@dataclass
class LeafMesh:
    """Triangles produced by one leaf's cells, vertices in first-use order.

    Row i of edges is the grid edge (ix, iy, iz, axis) vertex i lies on,
    so identical vertices emitted by neighboring leaves merge exactly.
    """

    edges: np.ndarray               # (V, 4) int64
    positions: np.ndarray           # (V, 3) float64
    props: np.ndarray               # (V, P) float64
    triangles: np.ndarray           # (T, 3) int64 local vertex indices

    @staticmethod
    @functools.cache
    def empty(prop_channels: int) -> "LeafMesh":
        """Mesh of a leaf without a surface: one per channel count, shared
        by every such leaf, its arrays read-only."""
        mesh = LeafMesh(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 3)),
                        np.zeros((0, prop_channels)),
                        np.zeros((0, 3), dtype=np.int64))
        for a in vars(mesh).values():
            a.flags.writeable = False
        return mesh

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

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @staticmethod
    def empty(prop_channels: int = 0) -> "TriangleMesh":
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64),
                            np.zeros((0, prop_channels)))


def mesh_leaf(grid: SparseGrid, origin) -> LeafMesh:
    """Run marching cubes over the cells owned by one leaf."""
    return mesh_leaves(grid, origin)[0]


def mesh_leaves(grid: SparseGrid, origins) -> list:
    """Run marching cubes over the cells owned by each of the leaves.

    origins are leaf origins (multiples of LEAF_SIZE), read as (n, 3)
    int64 rows. The targets' valid cells are found _CHUNK targets at a
    time; the targets holding one are meshed _CHUNK at a time, each chunk
    in one vectorized pass, so scratch memory does not grow with their
    number. Returns one LeafMesh per origin, in order; each array of a
    mesh with a vertex owns its memory, and every empty mesh is
    LeafMesh.empty's.
    """
    origins = np.asarray(origins, dtype=np.int64).reshape(-1, 3)
    slots = _block_slots(grid, origins)
    out = [LeafMesh.empty(grid.prop_channels)] * len(origins)
    found = _with_valid_cells(grid, slots)
    while chunk := list(islice(found, _CHUNK)):
        rows = [r for r, _ in chunk]
        meshes = _mesh_chunk(grid, origins[rows], slots[rows],
                             np.array([v for _, v in chunk]))
        for r, lm in zip(rows, meshes):
            out[r] = lm
    return out


def _with_valid_cells(grid: SparseGrid, slots: np.ndarray):
    """(target, its (8, 8, 8) valid cells) for each target, in order,
    that has a valid cell; found _CHUNK targets at a time."""
    for a in range(0, len(slots), _CHUNK):
        valid = _valid_cells(_observed_block(grid, slots[a:a + _CHUNK]))
        for i in np.flatnonzero(valid.any(axis=(1, 2, 3))).tolist():
            yield a + i, valid[i]


def _block_slots(grid: SparseGrid, origins: np.ndarray) -> np.ndarray:
    """(T, 8) pool slots of each of the (T, 3) leaf origins and its 7
    upper neighbours, in UPPER_NEIGHBOURS order; 0 where unallocated or
    past the key range."""
    if (origins & (LEAF_SIZE - 1)).any():
        raise ValueError("leaf origins must be multiples of LEAF_SIZE")
    return grid.coord_slots(origins[:, None, :] + UPPER_NEIGHBOURS)


def _block(grid: SparseGrid, name: str, slots: np.ndarray) -> np.ndarray:
    """(T, 9, 9, 9) block of pool array name per row of block slots: the
    leaf's whole row, then one face, edge or corner of each neighbour's."""
    a = grid.pool[name]
    a = a.reshape((len(a),) + (LEAF_SIZE,) * 3)
    out = np.empty((len(slots),) + (_BLOCK,) * 3, dtype=a.dtype)
    for n, (dst, src) in enumerate(_BLOCK_PARTS):
        out[(slice(None),) + dst] = a[(slots[:, n],) + src]
    return out


def _distance_block(grid: SparseGrid, slots: np.ndarray) -> np.ndarray:
    """Block distances as float64, 0 where the value mask is off."""
    mask = _block(grid, "value_mask", slots)
    return np.where(mask, _block(grid, "distance", slots),
                    np.float32(0.0)).astype(np.float64)


def _observed_block(grid: SparseGrid, slots: np.ndarray) -> np.ndarray:
    """Block voxels that are set and observed."""
    return _block(grid, "observed", slots) & _block(grid, "value_mask", slots)


def _valid_cells(observed: np.ndarray) -> np.ndarray:
    """(T, 8, 8, 8) cells whose eight corners are all observed: one
    pairwise AND of neighbouring block voxels per axis."""
    v = observed[:, 1:] & observed[:, :-1]
    v = v[:, :, 1:] & v[:, :, :-1]
    return v[:, :, :, 1:] & v[:, :, :, :-1]


def _mesh_chunk(grid: SparseGrid, origins: np.ndarray, slots: np.ndarray,
                valid: np.ndarray) -> list:
    """mesh_leaves over one chunk of targets, given their (T, 3) origins,
    block slots and valid cells: the cells of all of them at once."""
    h = grid.voxel_size
    channels = grid.prop_channels
    distance = _distance_block(grid, slots)
    # each cell's negative corners, bit ox + 2*oy + 4*oz for corner (ox,
    # oy, oz), one pairwise step per axis; then in case bit order
    neg = (distance < 0).view(np.uint8)
    neg = neg[:, :-1] | (neg[:, 1:] << 1)
    neg = neg[:, :, :-1] | (neg[:, :, 1:] << 2)
    case = _CASE_OF_CORNERS[neg[:, :, :, :-1] | (neg[:, :, :, 1:] << 4)]
    # crossed cells, leaf by leaf and in (x, y, z) order within a leaf
    c = np.flatnonzero(valid & _CROSSED[case])
    if len(c) == 0:
        return [LeafMesh.empty(channels)] * len(origins)
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
    dist = distance.ravel()
    d0 = dist[lo]
    t = d0 / (d0 - dist[hi])
    target, local = np.divmod(lo, _BLOCK ** 3)
    voxel = origins[target] + _BLOCK_COORDS[local]
    n = np.arange(len(first))
    pos = (voxel + 0.5) * h
    pos[n, axis] += t * h
    if channels:
        end_target, end_local = np.divmod(np.concatenate([lo, hi]),
                                          _BLOCK ** 3)
        at = (slots[end_target, _BLOCK_NEIGHBOUR[end_local]]
              * LEAF_VOXELS + _BLOCK_FLAT[end_local])
        p = grid.voxels("prop")[at].astype(np.float64)
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
    return [LeafMesh(edges[a:b].copy(), pos[a:b].copy(), pv[a:b].copy(),
                     tris[s:e].copy()) if a < b else LeafMesh.empty(channels)
            for a, b, s, e in zip(vs, vs[1:], ts, ts[1:])]


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


def combine(leaf_meshes: Iterable[LeafMesh],
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
    return TriangleMesh(vertices=v, triangles=t, properties=p)


def marching_cubes(grid: SparseGrid) -> TriangleMesh:
    """Mesh every leaf with an observed voxel, in ascending origin order."""
    slots = grid.sorted_slots()
    slots = slots[grid.pool["observed"][slots].any(axis=1)]
    return combine(mesh_leaves(grid, grid.pool["origin"][slots]),
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
    pos, pr = voxels.mean(positions), voxels.mean(props)
    leaves = group_by(leaf_keys(voxels.keys))
    origins = leaf_origin_of(coords[voxels.first[leaves.first]]).tolist()
    return {tuple(o): (pos[rows], pr[rows])
            for o, rows in zip(origins, leaves.rows())}


# a leaf and its 7 lower neighbours: the leaves whose cells read its voxels
_LOWER_NEIGHBOURS = -UPPER_NEIGHBOURS


def _with_lower_neighbours(origins):
    """The given leaf origins and their lower neighbours inside the key
    range: (U, 3) unique origins in ascending order, and their keys."""
    o = (np.asarray(origins, dtype=np.int64).reshape(-1, 1, 3)
         + _LOWER_NEIGHBOURS).reshape(-1, 3)
    o = o[(o >= -KEY_BIAS).all(axis=1)]
    groups = group_by(pack_keys(o))
    return o[groups.first], groups.keys


class SurfaceMesh:
    """The surface of a grid: one cached LeafMesh per leaf with a surface,
    kept current by remesh, and the zero crossings it hands on."""

    def __init__(self, grid: SparseGrid):
        self.grid = grid
        # leaf origin -> LeafMesh of its cells, for leaves with a surface;
        # the only mesh and crossing state
        self.meshes: dict = {}

    def remesh(self, stats=None) -> dict:
        """Re-mesh the grid's active leaves and the lower neighbours that
        read their voxels, and return the training replacements for the
        global field: {leaf origin: (positions, properties) or None}.

        All targets are meshed in one mesh_leaves call. Every leaf owning
        a vertex of an old or a new leaf mesh gets its zero crossings
        recomputed from the cached meshes that can put a vertex in it:
        its own and its lower neighbours'. stats, when given, receives
        the meshing counters n_leaves_meshed, n_leaves_surfaced and
        n_mesh_vertices, and in its substage_ms the milliseconds of
        mesh_leaves and of the crossings.
        """
        grid = self.grid
        origins, keys = _with_lower_neighbours(
            grid.pool["origin"][grid.active_slots()])
        targets = origins[grid.leaf_slots(keys) > 0]
        t0 = time.perf_counter()
        meshes = mesh_leaves(grid, targets)
        t1 = time.perf_counter()
        touched = []
        for origin, lm in zip(map(tuple, targets.tolist()), meshes):
            old = self.meshes.pop(origin, None)
            if len(lm.triangles):
                self.meshes[origin] = lm
            touched += [m.positions for m in (old, lm) if m is not None]
        t2 = time.perf_counter()
        changed = self._crossings(touched)
        if stats is not None:
            stats.n_leaves_meshed = len(targets)
            stats.n_leaves_surfaced = sum(len(lm.triangles) > 0
                                          for lm in meshes)
            stats.n_mesh_vertices = sum(len(lm.positions) for lm in meshes)
            stats.substage_ms.update(
                mesh_leaves=(t1 - t0) * 1e3,
                crossings=(time.perf_counter() - t2) * 1e3)
        return changed

    def _crossings(self, touched: list) -> dict:
        """{leaf origin: (positions, properties) or None} for every leaf
        owning one of the touched vertex positions, from the cached
        meshes of that leaf and its lower neighbours."""
        if not touched:
            return {}
        h = self.grid.voxel_size
        coords = leaf_origin_of(world_to_grid(np.concatenate(touched), h))
        owners = group_by(pack_keys(coords))
        changed = list(map(tuple, coords[owners.first].tolist()))
        reach = map(tuple, _with_lower_neighbours(changed)[0].tolist())
        sources = [self.meshes[o] for o in reach if o in self.meshes]
        crossings = {}
        if sources:
            edges, pos, props = stack_vertices(sources)
            own = isin_sorted(leaf_keys(pack_keys(world_to_grid(pos, h))),
                              owners.keys)
            # one vertex per edge, in edge order, as crossings_by_leaf
            # sums each voxel's vertices in input order
            first = np.flatnonzero(own)[group_edges(edges[own]).first]
            crossings = crossings_by_leaf(pos[first], props[first], h)
        return {o: crossings.get(o) for o in changed}

    def export(self) -> TriangleMesh:
        """The cached meshes combined in ascending origin order."""
        return combine([self.meshes[k] for k in sorted(self.meshes)],
                       self.grid.prop_channels)

    @property
    def nbytes(self) -> int:
        """Bytes of the cached leaf meshes' arrays, summed on each call."""
        return sum(lm.edges.nbytes + lm.positions.nbytes + lm.props.nbytes
                   + lm.triangles.nbytes for lm in self.meshes.values())
