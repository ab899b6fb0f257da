"""Sparse voxel grid: a flat map of dense 8^3 leaves held in one pool.

Voxel coordinates are signed int64 triples. ``pack_keys`` packs a triple
into one biased int64 key, 21 bits per axis, whose integer order equals
the lexicographic order of the triples; ``group_by`` sorts such keys once
and splits rows into runs. Every module that deduplicates voxels or
buckets rows by leaf goes through these two, so the key layout is decided
here alone.

A grid keeps every leaf's voxels in one pool: per leaf array (distance,
weights, properties, masks) one C-contiguous array whose row ``slot``
holds one leaf, plus an origin and a stamp column. Slots follow
allocation order; row 0 stays all-zero and reads for every unallocated
leaf. The pool grows by doubling, copying only the rows in use. It is
the only leaf state: a ``LeafNode`` handle (grid, slot, origin) reads its
row on each access, so growth re-points nothing. The leaf index is one
sorted array of the packed keys of leaf origins beside their slots,
which every allocation updates at once. Finding one leaf is one binary
search in it; ``SparseGrid.leaf_slots`` finds many with one, so
``lookup``, ``gather_block``, fusion, marching cubes and the sign index
read and write voxels of many leaves with one fancy index into the pool.
Every write path stamps the leaf it writes from a grid-wide clock, the
grid's only change record (a writer that goes around the write paths
stamps its leaves with ``activate``), so a reader that remembers the
clock can find the leaves touched since by one compare on the stamp
column.
"""

from __future__ import annotations

import math
import mmap
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
# change of a packed key per leaf step along each axis, x y z, while the
# coordinates stay in the key range
LEAF_KEY_STEP = LEAF_SIZE << (KEY_BITS * np.arange(2, -1, -1))


KEY_RANGE_ERROR = (f"voxel coordinates outside [-{KEY_BIAS}, {KEY_BIAS})"
                   " cannot be keyed")


def pack_keys(coords) -> np.ndarray:
    """Pack (N, 3) integer voxel coordinates into (N,) int64 keys.

    Raises ValueError if any coordinate lies outside [-2^20, 2^20).
    """
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if len(c) and (c.min() < -KEY_BIAS or c.max() >= KEY_BIAS):
        raise ValueError(KEY_RANGE_ERROR)
    b = c + KEY_BIAS
    return (b[:, 0] << (2 * KEY_BITS)) | (b[:, 1] << KEY_BITS) | b[:, 2]


def leaf_keys(keys) -> np.ndarray:
    """Packed key of the leaf origin holding each packed voxel key."""
    return np.asarray(keys, dtype=np.int64) & _LEAF_KEY_MASK


def unpack_keys(keys) -> np.ndarray:
    """(N, 3) int64 voxel coordinates of packed keys; inverts pack_keys."""
    k = np.asarray(keys, dtype=np.int64).reshape(-1, 1)
    return ((k >> (KEY_BITS * np.arange(2, -1, -1))) & _AXIS_MASK) - KEY_BIAS


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

    def mean(self, values: np.ndarray) -> np.ndarray:
        """Float64 mean of each group's rows of values, summed from 0.0 in
        row order by one np.bincount per column."""
        u, n = len(self.keys), len(values)
        cols = values.reshape(n, math.prod(values.shape[1:]))
        sums = np.empty((u, cols.shape[1]))
        for c in range(cols.shape[1]):
            sums[:, c] = np.bincount(self.inverse, cols[:, c], u)
        sums /= np.bincount(self.inverse, minlength=u)[:, None]
        return sums.reshape((u,) + values.shape[1:])


def group_by(keys) -> Groups:
    """Group rows by int64 key with one sort.

    When the composite (key - min) * n + row of n keys fits in int64, the
    composites are distinct and sorted by value, and their quotient and
    remainder by n are the sorted keys and the row order; otherwise rows
    go through one stable argsort. Both give the same Groups.
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    n = len(keys)
    lo = int(keys.min()) if n else 0
    if n and (int(keys.max()) - lo + 1) * n < 1 << 63:
        comp = (keys - lo) * n
        comp += np.arange(n)
        comp.sort()
        sk = comp // n
        order = comp - sk * n
        sk += lo
    else:
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(sk[1:], sk[:-1], out=new[1:])
    starts = np.append(np.flatnonzero(new), n)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return Groups(sk[new], order[new], inverse, order, starts)


def isin_sorted(keys, sorted_keys: np.ndarray) -> np.ndarray:
    """(N,) bool: whether each key occurs in sorted_keys, an ascending
    array of unique keys; np.isin's answer by one binary search."""
    keys = np.asarray(keys, dtype=np.int64)
    if not len(sorted_keys):
        return np.zeros(keys.shape, dtype=bool)
    i = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(i, len(sorted_keys) - 1)] == keys


def world_to_grid(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """Map world positions to integer voxel coordinates (floor)."""
    return np.floor(np.asarray(points, dtype=np.float64) / voxel_size).astype(np.int64)


def in_key_range(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """(N,) bool: whether each row's voxel lies in the key range on every
    axis; False for a non-finite row. It compares the floored floats, so
    a far point never reaches world_to_grid's int64 cast."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.floor(np.asarray(points, dtype=np.float64) / voxel_size)
    return ((v >= -KEY_BIAS) & (v < KEY_BIAS)).all(axis=1)


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


# the per-voxel arrays of a leaf, each one pool array of the grid
LEAF_ARRAYS = ("distance", "dist_weight", "prop_weight", "prop", "observed",
               "value_mask")


def _zeros(shape: tuple, dtype) -> np.ndarray:
    """Zeroed array on pages of its own mapping.

    Pages never written stay unresident, and all go back to the system
    when the array is freed. np.zeros gives neither once the allocator
    serves arrays of this size from its heap, where calloc clears, and
    so makes resident, every byte.
    """
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if nbytes == 0:
        return np.zeros(shape, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


def new_pool(capacity: int, prop_channels: int) -> dict:
    """Zeroed pool of capacity leaf rows: the LEAF_ARRAYS, then each
    leaf's origin, stamp and active flag."""
    voxels = (capacity, LEAF_VOXELS)
    return {"distance": _zeros(voxels, np.float32),
            "dist_weight": _zeros(voxels, np.float32),
            "prop_weight": _zeros(voxels, np.float32),
            "prop": _zeros(voxels + (prop_channels,), np.float32),
            "observed": _zeros(voxels, bool),
            "value_mask": _zeros(voxels, bool),
            "origin": _zeros((capacity, 3), np.int64),
            "stamp": _zeros((capacity,), np.int64),
            "active": _zeros((capacity,), bool)}


@dataclass(slots=True, eq=False)
class LeafNode:
    """Handle on one leaf of a grid: its pool slot and origin.

    Each LEAF_ARRAYS attribute reads the leaf's row of the grid's pool
    on every access, so a handle stays valid across pool growth and
    writes through it, augmented assignment included, land in the pool.
    ``stamp`` is the grid clock at the leaf's last touch through
    ``get_or_create_leaf``, ``set`` or ``activate``; ``active`` is set by
    ``activate`` until ``clear_active``.
    """

    grid: "SparseGrid"
    slot: int
    origin: tuple[int, int, int]

    @property
    def stamp(self) -> int:
        return int(self.grid.pool["stamp"][self.slot])

    @property
    def active(self) -> bool:
        return bool(self.grid.pool["active"][self.slot])


def _pool_row(name: str) -> property:
    """A LeafNode's row of pool array name, read and written in place."""
    def get(leaf: LeafNode) -> np.ndarray:
        return leaf.grid.pool[name][leaf.slot]

    def put(leaf: LeafNode, value) -> None:
        leaf.grid.pool[name][leaf.slot] = value

    return property(get, put)


for _name in LEAF_ARRAYS:
    setattr(LeafNode, _name, _pool_row(_name))


def _local_index(coord) -> int:
    """Scalar within-leaf flat index of one coordinate."""
    m = LEAF_SIZE - 1
    return (((int(coord[0]) & m) << (2 * LEAF_LOG2))
            | ((int(coord[1]) & m) << LEAF_LOG2) | (int(coord[2]) & m))


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

    # rows a new grid's pool holds, the zero row included
    _INITIAL_CAPACITY = 16

    def __init__(self, voxel_size: float, prop_channels: int = 0):
        if voxel_size <= 0:
            raise ValueError(f"voxel_size must be positive, got {voxel_size}")
        self.voxel_size = float(voxel_size)
        self.prop_channels = int(prop_channels)
        # the leaf arrays, origins, stamps and active flags by slot; row 0
        # stays zero. Growth replaces the arrays, so read them from here
        # after any allocation
        self.pool = new_pool(self._INITIAL_CAPACITY, self.prop_channels)
        # slot -> LeafNode, made on first request
        self._handles: dict[int, LeafNode] = {}
        # the leaf index: allocated leaf keys in ascending order, then a
        # key above every leaf key, and their slots (0 for that last key)
        self._sorted = (np.array([np.iinfo(np.int64).max]),
                        np.zeros(1, dtype=np.int64))
        # slots activated since the last clear_active, in touch order
        self._active: list[np.ndarray] = []
        # advanced by every leaf stamp; a leaf stamped after a reader read
        # the clock was written since
        self.clock = 0

    # -- node access --------------------------------------------------------

    def _handle(self, slot: int) -> LeafNode:
        leaf = self._handles.get(slot)
        if leaf is None:
            leaf = self._handles[slot] = LeafNode(
                self, slot, tuple(self.pool["origin"][slot].tolist()))
        return leaf

    def _slot(self, key: int) -> int:
        """Slot of the leaf under one packed leaf key, 0 if unallocated."""
        keys, slots = self._sorted
        at = int(keys.searchsorted(key))
        return slots.item(at) if keys.item(at) == key else 0

    def find_leaf(self, coord) -> Optional[LeafNode]:
        """Leaf containing the coordinate, or None if unallocated.

        Raises ValueError for a coordinate outside the key range.
        """
        slot = self._slot(_leaf_key(coord))
        return self._handle(slot) if slot else None

    def get_or_create_leaf(self, coord) -> LeafNode:
        """Leaf containing the coordinate, allocating it if needed.

        Stamps the leaf: callers get it to write into it.
        """
        return self._handle(self._touch(coord))

    def _touch(self, coord) -> int:
        """Stamp the leaf holding coord, allocated if needed; its slot."""
        key = _leaf_key(coord)
        slot = self._slot(key) or int(self.allocate([key])[0])
        self.clock += 1
        self.pool["stamp"][slot] = self.clock
        return slot

    def allocate(self, keys) -> np.ndarray:
        """Slot of the leaf under each packed leaf key, allocating the
        missing leaves in the order given and adding them to the leaf
        index; keys must be distinct.

        Stamps nothing: a caller that writes stamps through activate.
        """
        keys = np.asarray(keys, dtype=np.int64)
        slots = self.leaf_slots(keys)
        new = np.flatnonzero(slots == 0)
        if len(new):
            first = self.n_leaves + 1
            slots[new] = np.arange(first, first + len(new))
            self._reserve(first + len(new))
            self.pool["origin"][slots[new]] = unpack_keys(keys[new])
            new = new[np.argsort(keys[new])]
            sorted_keys, sorted_slots = self._sorted
            at = np.searchsorted(sorted_keys, keys[new])
            self._sorted = (np.insert(sorted_keys, at, keys[new]),
                            np.insert(sorted_slots, at, slots[new]))
        return slots

    def _reserve(self, rows: int) -> None:
        """Grow the pool by doubling until it holds rows rows; only the
        rows in use are copied."""
        capacity = len(self.pool["stamp"])
        if rows <= capacity:
            return
        while capacity < rows:
            capacity *= 2
        used = self.n_leaves + 1
        pool = new_pool(capacity, self.prop_channels)
        for name, a in self.pool.items():
            pool[name][:used] = a[:used]
        self.pool = pool

    def voxels(self, name: str) -> np.ndarray:
        """View of a LEAF_ARRAYS pool array with one row per voxel: voxel
        flat of the leaf in slot is row slot * LEAF_VOXELS + flat."""
        a = self.pool[name]
        return a.reshape((len(a) * LEAF_VOXELS,) + a.shape[2:])

    # -- single voxel API ----------------------------------------------------

    def set(self, coord, state: VoxelState) -> None:
        at = self._touch(coord), _local_index(coord)
        for name in ("distance", "dist_weight", "prop_weight", "observed"):
            self.pool[name][at] = getattr(state, name)
        if self.prop_channels:
            self.pool["prop"][at] = state.prop
        self.pool["value_mask"][at] = True

    def get(self, coord) -> Optional[VoxelState]:
        slot = self._slot(_leaf_key(coord))
        if not slot:
            return None
        at = slot, _local_index(coord)
        pool = self.pool
        if not pool["value_mask"][at]:
            return None
        return VoxelState(distance=float(pool["distance"][at]),
                          dist_weight=float(pool["dist_weight"][at]),
                          prop=pool["prop"][at].copy(),
                          prop_weight=float(pool["prop_weight"][at]),
                          observed=bool(pool["observed"][at]))

    # -- iteration -----------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self._sorted[0]) - 1

    @property
    def nbytes(self) -> int:
        """Pool bytes of the rows in use by leaves."""
        return self.n_leaves * sum(a[0].nbytes for a in self.pool.values())

    def leaves(self) -> Iterator[LeafNode]:
        """All allocated leaves, in slot (allocation) order."""
        return map(self._handle, range(1, self.n_leaves + 1))

    def active_slots(self) -> np.ndarray:
        """Slots of the leaves activated since the last clear_active(),
        in touch order."""
        if len(self._active) > 1:
            self._active = [np.concatenate(self._active)]
        return self._active[0] if self._active else np.zeros(0, np.int64)

    def active_leaves(self) -> Iterator[LeafNode]:
        """Leaves activated since the last clear_active(), in touch order."""
        return map(self._handle, self.active_slots().tolist())

    def mark_active(self, leaf: LeafNode) -> None:
        self.activate([leaf.slot])

    def activate(self, slots, touches: int = 1) -> None:
        """Stamp the distinct leaves in slots one after another, each
        touches times in a row, and mark them active in that order."""
        slots = np.asarray(slots, dtype=np.int64)
        self.pool["stamp"][slots] = self.clock + touches * np.arange(
            1, len(slots) + 1)
        self.clock += touches * len(slots)
        active = self.pool["active"]
        new = slots[~active[slots]]
        active[new] = True
        self._active.append(new)

    def clear_active(self) -> None:
        self.pool["active"][self.active_slots()] = False
        self._active = []

    def stamped_since(self, clock: int) -> np.ndarray:
        """Slots, ascending, of the leaves stamped after the clock read
        clock."""
        return np.flatnonzero(self.pool["stamp"][1:self.n_leaves + 1]
                              > clock) + 1

    # -- bulk access ---------------------------------------------------------

    def leaf_slots(self, keys) -> np.ndarray:
        """Pool slot of the leaf under each packed leaf key.

        Duplicates are allowed; a key with no allocated leaf, such as -1,
        gets slot 0, the zero row.
        """
        keys = np.asarray(keys, dtype=np.int64)
        sorted_keys, sorted_slots = self._sorted
        at = np.searchsorted(sorted_keys, keys)
        return np.where(sorted_keys[at] == keys, sorted_slots[at], 0)

    def coord_slots(self, coords) -> np.ndarray:
        """Pool slot of the leaf holding each voxel of (..., 3) integer
        coordinates, in their leading shape; 0 for a coordinate past the
        key range or in an unallocated leaf."""
        c = np.asarray(coords, dtype=np.int64)
        keyed = ((c >= -KEY_BIAS) & (c < KEY_BIAS)).all(axis=-1)
        keys = np.full(keyed.shape, -1, dtype=np.int64)
        keys[keyed] = leaf_keys(pack_keys(c[keyed]))
        return self.leaf_slots(keys)

    def sorted_slots(self) -> np.ndarray:
        """Slots of all leaves in ascending origin order."""
        return self._sorted[1][:-1]

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
        at = (self.leaf_slots(leaf_keys(pack_keys(coords))) * LEAF_VOXELS
              + local_flat_index(coords))
        found, dist, weight, obs = (
            self.voxels(name).take(at) for name in
            ("value_mask", "distance", "dist_weight", "observed"))
        return (found, np.where(found, dist.astype(np.float64), 0.0),
                np.where(found, weight.astype(np.float64), 0.0), found & obs)

    def gather_block(self, origin, shape):
        """Dense copy of an axis-aligned block of voxels.

        Args:
            origin: (3,) integer coordinate of the block's low corner.
            shape: (3,) block extent in voxels.

        Returns:
            (distance, observed, prop) arrays of the block shape, float64,
            bool and float64; voxels without values, and voxels past the
            key range, are zero / unobserved.
        """
        shape = tuple(int(s) for s in shape)
        c = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"),
                     axis=-1).reshape(-1, 3) + np.asarray(origin, np.int64)
        at = self.coord_slots(c) * LEAF_VOXELS + local_flat_index(c)
        mask = self.voxels("value_mask")[at]
        dist = np.where(mask, self.voxels("distance")[at], np.float32(0.0))
        obs = self.voxels("observed")[at] & mask
        prop = self.voxels("prop")[at]
        return (dist.astype(np.float64).reshape(shape), obs.reshape(shape),
                prop.astype(np.float64).reshape(shape + prop.shape[1:]))

    def observed_voxels(self):
        """Coordinates and distances of all observed voxels.

        Leaves come in insertion order and voxels within a leaf in flat
        index order; returns ((N, 3) int64, (N,) float64).
        """
        rows = slice(1, self.n_leaves + 1)
        pool = self.pool
        li, flat = np.nonzero(pool["value_mask"][rows] & pool["observed"][rows])
        slot = li + 1
        return (flat_local_coords(flat) + pool["origin"][slot],
                pool["distance"][slot, flat].astype(np.float64))
