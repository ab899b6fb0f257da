"""Sparse voxel grid: a flat map of dense 8^3 leaves.

Voxel coordinates are signed int64 triples. ``pack_keys`` packs a triple
into one biased int64 key, 21 bits per axis, whose integer order equals
the lexicographic order of the triples; ``group_by`` sorts such keys once
and splits rows into runs. Every module that deduplicates voxels or
buckets rows by leaf goes through these two, so the key layout is decided
here alone. Leaves are dense numpy blocks of 8^3 voxels held in one dict
keyed by the packed key of their origin, so finding a leaf is one hash
probe regardless of map extent. Batch reads of many leaves go through
``SparseGrid.stack_leaves``, which binary-searches a cached sorted array
of those keys and stacks the named arrays of the leaves hit, plus one
all-zero row for every unallocated leaf; ``lookup`` and marching cubes'
block gather both index into its stacks. Every write path stamps the
leaf it writes from a grid-wide clock, so a reader that remembers the
clock can find the leaves touched since by their stamps alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

LEAF_LOG2 = 3
LEAF_SIZE = 1 << LEAF_LOG2
LEAF_VOXELS = LEAF_SIZE ** 3
KEY_BITS = 21
# voxel coordinates must lie in [-KEY_BIAS, KEY_BIAS) on every axis
KEY_BIAS = 1 << (KEY_BITS - 1)
_AXIS_MASK = (1 << KEY_BITS) - 1
# KEY_BIAS is a multiple of LEAF_SIZE, so clearing the low bits of each
# packed axis field maps a voxel key to the key of its leaf origin
_LEAF_KEY_MASK = sum((_AXIS_MASK & ~(LEAF_SIZE - 1)) << (KEY_BITS * a)
                     for a in range(3))


def pack_keys(coords) -> np.ndarray:
    """Pack (N, 3) integer voxel coordinates into (N,) int64 keys.

    Raises ValueError if any coordinate lies outside [-2^20, 2^20).
    """
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if len(c) and (c.min() < -KEY_BIAS or c.max() >= KEY_BIAS):
        raise ValueError(f"voxel coordinates outside [-{KEY_BIAS}, {KEY_BIAS})"
                         " cannot be keyed")
    b = c + KEY_BIAS
    return (b[:, 0] << (2 * KEY_BITS)) | (b[:, 1] << KEY_BITS) | b[:, 2]


def leaf_keys(keys) -> np.ndarray:
    """Packed key of the leaf origin holding each packed voxel key."""
    return np.asarray(keys, dtype=np.int64) & _LEAF_KEY_MASK


def _leaf_key(coord) -> int:
    """Scalar leaf key of one coordinate, without numpy overhead."""
    key = 0
    for v in coord:
        v = int(v)
        if not -KEY_BIAS <= v < KEY_BIAS:
            raise ValueError(f"voxel coordinate {v} outside [-{KEY_BIAS}, "
                             f"{KEY_BIAS}) cannot be keyed")
        key = (key << KEY_BITS) | ((v + KEY_BIAS) & ~(LEAF_SIZE - 1))
    return key


class Groups(NamedTuple):
    """Rows grouped by equal key, groups in ascending key order."""

    keys: np.ndarray      # (U,) sorted unique keys
    first: np.ndarray     # (U,) index of each key's first row
    inverse: np.ndarray   # (N,) group index of every row
    order: np.ndarray     # (N,) rows sorted by key, input order within a key
    starts: np.ndarray    # (U + 1,) offsets of each group in `order`

    def rows(self) -> list:
        """Each group's row indices, ascending."""
        s = self.starts.tolist()
        return [self.order[a:b] for a, b in zip(s[:-1], s[1:])]


def group_by(keys) -> Groups:
    """Group rows by int64 key with one stable argsort."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    new = np.empty(len(sk), dtype=bool)
    new[:1] = True
    np.not_equal(sk[1:], sk[:-1], out=new[1:])
    starts = np.append(np.flatnonzero(new), len(sk))
    inverse = np.empty(len(sk), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return Groups(sk[new], order[new], inverse, order, starts)


def world_to_grid(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """Map world positions to integer voxel coordinates (floor)."""
    return np.floor(np.asarray(points, dtype=np.float64) / voxel_size).astype(np.int64)


def grid_to_world(coords: np.ndarray, voxel_size: float) -> np.ndarray:
    """Map integer voxel coordinates to voxel center positions."""
    return (np.asarray(coords, dtype=np.float64) + 0.5) * voxel_size


def leaf_origin_of(coords: np.ndarray) -> np.ndarray:
    """Leaf origin (multiple of 8) containing each voxel coordinate."""
    c = np.asarray(coords, dtype=np.int64)
    return (c >> LEAF_LOG2) << LEAF_LOG2


@dataclass
class VoxelState:
    """Fused per-voxel quantities.

    distance/dist_weight carry the running distance mean and its
    accumulated weight; prop/prop_weight the same for surface property
    channels. ``observed`` records whether the voxel ever received a
    near-surface measurement, as opposed to free-space carving only.
    """

    distance: float = 0.0
    dist_weight: float = 0.0
    prop: np.ndarray = field(default_factory=lambda: np.zeros(0))
    prop_weight: float = 0.0
    observed: bool = False


class LeafNode:
    """Dense 8^3 block of voxel state.

    ``stamp`` is the grid clock at the leaf's last touch through
    ``get_or_create_leaf``, ``set`` or ``mark_active``.
    """

    __slots__ = ("origin", "distance", "dist_weight", "prop", "prop_weight",
                 "observed", "value_mask", "active", "stamp")

    def __init__(self, origin: tuple[int, int, int], prop_channels: int = 0):
        self.origin = origin
        self.distance = np.zeros(LEAF_VOXELS, dtype=np.float32)
        self.dist_weight = np.zeros(LEAF_VOXELS, dtype=np.float32)
        self.prop = np.zeros((LEAF_VOXELS, prop_channels), dtype=np.float32)
        self.prop_weight = np.zeros(LEAF_VOXELS, dtype=np.float32)
        self.observed = np.zeros(LEAF_VOXELS, dtype=bool)
        self.value_mask = np.zeros(LEAF_VOXELS, dtype=bool)
        self.active = False
        self.stamp = 0

    def local_index(self, coord) -> int:
        lx = int(coord[0]) & (LEAF_SIZE - 1)
        ly = int(coord[1]) & (LEAF_SIZE - 1)
        lz = int(coord[2]) & (LEAF_SIZE - 1)
        return (lx << (2 * LEAF_LOG2)) | (ly << LEAF_LOG2) | lz

    def set_coords(self) -> np.ndarray:
        """Global coordinates of voxels with the value mask on."""
        return (flat_local_coords(np.flatnonzero(self.value_mask))
                + np.asarray(self.origin, dtype=np.int64))


def local_flat_index(coords: np.ndarray) -> np.ndarray:
    """Vectorized within-leaf flat index for integer coordinates."""
    c = np.asarray(coords, dtype=np.int64)
    m = LEAF_SIZE - 1
    return ((c[..., 0] & m) << (2 * LEAF_LOG2)) | ((c[..., 1] & m) << LEAF_LOG2) | (c[..., 2] & m)


def flat_local_coords(flat: np.ndarray) -> np.ndarray:
    """(N, 3) within-leaf coordinates of flat indices; inverts local_flat_index."""
    return np.stack([flat >> (2 * LEAF_LOG2), (flat >> LEAF_LOG2) & (LEAF_SIZE - 1),
                     flat & (LEAF_SIZE - 1)], axis=1)


class SparseGrid:
    """Flat map of 8^3 leaves; allocates a leaf on first write."""

    def __init__(self, voxel_size: float, prop_channels: int = 0):
        if voxel_size <= 0:
            raise ValueError(f"voxel_size must be positive, got {voxel_size}")
        self.voxel_size = float(voxel_size)
        self.prop_channels = int(prop_channels)
        # packed leaf-origin key -> leaf, in allocation order
        self._leaves: dict[int, LeafNode] = {}
        # allocated leaf keys in ascending order, then a key above every
        # leaf key, and their leaves; stack_leaves merges in the keys
        # allocated since its last call, which wait in _unsorted
        self._sorted = (np.array([np.iinfo(np.int64).max]),
                        np.empty(0, dtype=object))
        self._unsorted: list[int] = []
        self._active: dict[tuple[int, int, int], LeafNode] = {}
        # bumped on every mutation; lets callers cache derived structures
        self.version = 0
        # advanced by every leaf stamp; a leaf stamped after a reader read
        # the clock was written since
        self.clock = 0

    # -- node access --------------------------------------------------------

    def find_leaf(self, coord) -> Optional[LeafNode]:
        """Leaf containing the coordinate, or None if unallocated.

        Raises ValueError for a coordinate outside the key range.
        """
        return self._leaves.get(_leaf_key(coord))

    def get_or_create_leaf(self, coord) -> LeafNode:
        """Leaf containing the coordinate, allocating it if needed.

        Stamps the leaf: callers get it to write into it.
        """
        key = _leaf_key(coord)
        leaf = self._leaves.get(key)
        if leaf is None:
            origin = tuple((int(v) >> LEAF_LOG2) << LEAF_LOG2 for v in coord)
            leaf = self._leaves[key] = LeafNode(origin, self.prop_channels)
            self._unsorted.append(key)
            self.version += 1
        self._stamp(leaf)
        return leaf

    def _stamp(self, leaf: LeafNode) -> None:
        self.clock += 1
        leaf.stamp = self.clock

    # -- single voxel API ----------------------------------------------------

    def set(self, coord, state: VoxelState) -> None:
        leaf = self.get_or_create_leaf(coord)
        n = leaf.local_index(coord)
        leaf.distance[n] = state.distance
        leaf.dist_weight[n] = state.dist_weight
        if self.prop_channels:
            leaf.prop[n] = state.prop
        leaf.prop_weight[n] = state.prop_weight
        leaf.observed[n] = state.observed
        leaf.value_mask[n] = True
        self.version += 1

    def get(self, coord) -> Optional[VoxelState]:
        leaf = self.find_leaf(coord)
        if leaf is None:
            return None
        n = leaf.local_index(coord)
        if not leaf.value_mask[n]:
            return None
        return VoxelState(distance=float(leaf.distance[n]),
                          dist_weight=float(leaf.dist_weight[n]),
                          prop=leaf.prop[n].copy(),
                          prop_weight=float(leaf.prop_weight[n]),
                          observed=bool(leaf.observed[n]))

    # -- iteration -----------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    def leaves(self) -> Iterator[LeafNode]:
        """All allocated leaves, in insertion order."""
        return iter(self._leaves.values())

    def active_leaves(self) -> Iterator[LeafNode]:
        """Leaves touched since the last clear_active(), in touch order."""
        return iter(self._active.values())

    def mark_active(self, leaf: LeafNode) -> None:
        self._stamp(leaf)
        if not leaf.active:
            leaf.active = True
            self._active[leaf.origin] = leaf

    def clear_active(self) -> None:
        for leaf in self._active.values():
            leaf.active = False
        self._active.clear()

    # -- bulk access ---------------------------------------------------------

    def stack_leaves(self, keys, names):
        """Stack the named arrays of the leaves under packed leaf keys.

        Args:
            keys: (N,) packed leaf-origin keys, duplicates allowed; a key
                with no allocated leaf, such as -1, reads as unallocated.
            names: LeafNode array names, e.g. ("distance", "observed").

        Returns:
            (row, stacks): stacks holds one array per name, the named
            arrays of the distinct allocated leaves the keys hit, in key
            order, then one all-zero row; row (N,) is each key's row in
            them, the zero row where its leaf is unallocated.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if self._unsorted:
            self._merge_unsorted()
        sorted_keys, sorted_leaves = self._sorted
        n = len(sorted_leaves)
        slot = np.searchsorted(sorted_keys, keys)
        slot[sorted_keys[slot] != keys] = n
        hit = np.zeros(n + 1, dtype=bool)
        hit[slot] = True
        hit[n] = True
        leaves = sorted_leaves[np.flatnonzero(hit[:n])].tolist()
        leaves.append(LeafNode((0, 0, 0), self.prop_channels))
        stacks = [np.stack([getattr(leaf, name) for leaf in leaves])
                  for name in names]
        return (np.cumsum(hit) - 1)[slot], stacks

    def _merge_unsorted(self) -> None:
        """Merge the keys allocated since the last merge into _sorted."""
        new = np.array(sorted(self._unsorted), dtype=np.int64)
        new_leaves = np.empty(len(new), dtype=object)
        new_leaves[:] = [self._leaves[k] for k in new.tolist()]
        sorted_keys, sorted_leaves = self._sorted
        at = np.searchsorted(sorted_keys, new)
        self._sorted = (np.insert(sorted_keys, at, new),
                        np.insert(sorted_leaves, at, new_leaves))
        self._unsorted.clear()

    def lookup(self, coords: np.ndarray):
        """Vectorized voxel lookup.

        Args:
            coords: (N, 3) integer voxel coordinates, duplicates allowed.

        Returns:
            (found, distance, dist_weight, observed) arrays of length N.
            Voxels without a set value report found=False and zeros.
            Raises ValueError for a coordinate outside the key range.
        """
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        row, stacks = self.stack_leaves(
            leaf_keys(pack_keys(coords)),
            ("value_mask", "distance", "dist_weight", "observed"))
        at = row * LEAF_VOXELS + local_flat_index(coords)
        found, dist, weight, obs = (s.ravel().take(at) for s in stacks)
        return (found, np.where(found, dist.astype(np.float64), 0.0),
                np.where(found, weight.astype(np.float64), 0.0), found & obs)

    def gather_block(self, origin, shape):
        """Dense copy of an axis-aligned block of voxels.

        Args:
            origin: (3,) integer coordinate of the block's low corner.
            shape: (3,) block extent in voxels.

        Returns:
            (distance, observed, prop) arrays of the block shape; voxels
            without values are zero / unobserved.
        """
        origin = np.asarray(origin, dtype=np.int64)
        shape = tuple(int(s) for s in shape)
        dist = np.zeros(shape, dtype=np.float64)
        obs = np.zeros(shape, dtype=bool)
        prop = np.zeros(shape + (self.prop_channels,), dtype=np.float64)
        # no leaf exists outside the key range, so the scan stops at its edge
        lo_leaf = np.maximum(origin >> LEAF_LOG2, -KEY_BIAS >> LEAF_LOG2)
        hi_leaf = np.minimum((origin + np.asarray(shape) - 1) >> LEAF_LOG2,
                             (KEY_BIAS >> LEAF_LOG2) - 1)
        for li in range(int(lo_leaf[0]), int(hi_leaf[0]) + 1):
            for lj in range(int(lo_leaf[1]), int(hi_leaf[1]) + 1):
                for lk in range(int(lo_leaf[2]), int(hi_leaf[2]) + 1):
                    lorg = (li << LEAF_LOG2, lj << LEAF_LOG2, lk << LEAF_LOG2)
                    leaf = self.find_leaf(lorg)
                    if leaf is None:
                        continue
                    # overlap of this leaf with the requested block
                    lo = np.maximum(origin, np.asarray(lorg))
                    hi = np.minimum(origin + shape, np.asarray(lorg) + LEAF_SIZE)
                    bs = tuple(slice(int(a - o), int(b - o))
                               for a, b, o in zip(lo, hi, origin))
                    ll = lo - np.asarray(lorg)
                    lh = hi - np.asarray(lorg)
                    d = leaf.distance.reshape(LEAF_SIZE, LEAF_SIZE, LEAF_SIZE)
                    m = leaf.value_mask.reshape(LEAF_SIZE, LEAF_SIZE, LEAF_SIZE)
                    o_ = leaf.observed.reshape(LEAF_SIZE, LEAF_SIZE, LEAF_SIZE)
                    sl = tuple(slice(int(a), int(b)) for a, b in zip(ll, lh))
                    dist[bs] = np.where(m[sl], d[sl], 0.0)
                    obs[bs] = o_[sl] & m[sl]
                    if self.prop_channels:
                        p = leaf.prop.reshape(LEAF_SIZE, LEAF_SIZE, LEAF_SIZE, -1)
                        prop[bs] = p[sl]
        return dist, obs, prop

    def observed_voxels(self):
        """Coordinates and distances of all observed voxels.

        Leaves come in insertion order and voxels within a leaf in flat
        index order; returns ((N, 3) int64, (N,) float64).
        """
        leaves = list(self._leaves.values())
        if not leaves:
            return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
        mask = (np.stack([leaf.value_mask for leaf in leaves])
                & np.stack([leaf.observed for leaf in leaves]))
        li, flat = np.nonzero(mask)
        origins = np.array([leaf.origin for leaf in leaves], dtype=np.int64)
        dists = np.stack([leaf.distance for leaf in leaves])[li, flat]
        return flat_local_coords(flat) + origins[li], dists.astype(np.float64)
