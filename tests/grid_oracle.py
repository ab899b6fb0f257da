"""The per-leaf loop that ``SparseGrid.gather_block`` replaced, and a
scalar leaf finder over the grid's slot API.

``SparseGrid.gather_block`` must equal ``gather_block`` here bit for bit:
the block's leaves visited one ``leaf_at`` at a time, each leaf's
overlap with the block copied by slices.
"""

from itertools import islice

import numpy as np

from gpfield.grid import KEY_BIAS, LEAF_LOG2, LEAF_SIZE, leaf_keys, pack_keys


def leaf_at(grid, coord, allocate=False):
    """The grid's handle on the leaf holding one voxel coordinate, found
    by leaf_slots, or by allocate when allocate is set (which stamps
    nothing); None for an unallocated leaf. Raises ValueError for a
    coordinate outside the key range."""
    key = leaf_keys(pack_keys([coord]))
    slot = int((grid.allocate if allocate else grid.leaf_slots)(key)[0])
    return next(islice(grid.leaves(), slot - 1, None)) if slot else None


def gather_block(grid, origin, shape):
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
    prop = np.zeros(shape + (grid.prop_channels,), dtype=np.float64)
    # no leaf exists outside the key range, so the scan stops at its edge
    lo_leaf = np.maximum(origin >> LEAF_LOG2, -KEY_BIAS >> LEAF_LOG2)
    hi_leaf = np.minimum((origin + np.asarray(shape) - 1) >> LEAF_LOG2,
                         (KEY_BIAS >> LEAF_LOG2) - 1)
    for li in range(int(lo_leaf[0]), int(hi_leaf[0]) + 1):
        for lj in range(int(lo_leaf[1]), int(hi_leaf[1]) + 1):
            for lk in range(int(lo_leaf[2]), int(hi_leaf[2]) + 1):
                lorg = (li << LEAF_LOG2, lj << LEAF_LOG2, lk << LEAF_LOG2)
                leaf = leaf_at(grid, lorg)
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
                if grid.prop_channels:
                    p = leaf.prop.reshape(LEAF_SIZE, LEAF_SIZE, LEAF_SIZE, -1)
                    prop[bs] = p[sl]
    return dist, obs, prop
