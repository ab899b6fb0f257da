"""Sparse grid behaviour checked against a flat-dictionary reference model."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpfield.grid import (
    KEY_BIAS,
    LEAF_KEY_STEP,
    LEAF_SIZE,
    LEAF_ARRAYS,
    LEAF_VOXELS,
    Groups,
    SparseGrid,
    VoxelState,
    _local_index,
    group_by,
    grid_to_world,
    isin_sorted,
    leaf_keys,
    leaf_origin_of,
    local_flat_index,
    new_pool,
    pack_keys,
    world_to_grid,
)
import grid_oracle
from mesh_oracle import gather_blocks

in_range = st.integers(-KEY_BIAS, KEY_BIAS - 1)
coord = st.tuples(in_range, in_range, in_range)


def make_state(rng, prop_channels=0):
    return VoxelState(
        distance=float(rng.normal()),
        dist_weight=float(rng.uniform(0.1, 5.0)),
        prop=rng.uniform(size=prop_channels),
        prop_weight=float(rng.uniform(0.0, 5.0)),
        observed=bool(rng.integers(2)),
    )


def states_close(a, b):
    return (
        a.distance == pytest.approx(b.distance, abs=1e-6)
        and a.dist_weight == pytest.approx(b.dist_weight, abs=1e-6)
        and np.allclose(a.prop, b.prop, atol=1e-6)
        and a.prop_weight == pytest.approx(b.prop_weight, abs=1e-6)
        and a.observed == b.observed
    )


def test_world_to_grid_floor_semantics():
    assert world_to_grid(np.array([0.0, 0.0, 0.0]), 0.1).tolist() == [0, 0, 0]
    assert world_to_grid(np.array([-0.05, 0.05, 0.25]), 0.1).tolist() == [-1, 0, 2]


def test_grid_to_world_returns_voxel_center():
    center = grid_to_world(np.array([3, 3, 3]), 0.1)
    np.testing.assert_allclose(center, [0.35, 0.35, 0.35])
    assert world_to_grid(center, 0.1).tolist() == [3, 3, 3]


def test_world_grid_round_trip_random():
    rng = np.random.default_rng(0)
    h = 0.07
    coords = rng.integers(-500, 500, size=(200, 3))
    back = world_to_grid(grid_to_world(coords, h), h)
    np.testing.assert_array_equal(back, coords)


def test_world_to_grid_matches_floor_division_oracle():
    rng = np.random.default_rng(1)
    h = 0.05
    pts = rng.uniform(-20.0, 20.0, size=(500, 3))
    got = world_to_grid(pts, h)
    want = np.floor(pts / h).astype(np.int64)
    np.testing.assert_array_equal(got, want)


def test_leaf_origin_shift_matches_floor_division():
    rng = np.random.default_rng(2)
    coords = rng.integers(-10000, 10000, size=(500, 3))
    got = leaf_origin_of(coords)
    want = (coords // LEAF_SIZE) * LEAF_SIZE
    np.testing.assert_array_equal(got, want)


def test_local_flat_index_matches_leaf_method():
    rng = np.random.default_rng(3)
    coords = rng.integers(-10000, 10000, size=(200, 3))
    flat = local_flat_index(coords)
    for c, f in zip(coords, flat):
        assert _local_index(c) == f
        assert 0 <= f < LEAF_VOXELS


def test_voxel_size_must_be_positive():
    with pytest.raises(ValueError):
        SparseGrid(voxel_size=0.0)
    with pytest.raises(ValueError):
        SparseGrid(voxel_size=-0.1)


def test_get_on_empty_grid_returns_none():
    grid = SparseGrid(voxel_size=0.1)
    assert grid.get((0, 0, 0)) is None
    assert grid.get((-1000, 5, 999999)) is None


def test_set_get_round_trip():
    grid = SparseGrid(voxel_size=0.1, prop_channels=3)
    rng = np.random.default_rng(4)
    state = make_state(rng, prop_channels=3)
    grid.set((3, -7, 12), state)
    got = grid.get((3, -7, 12))
    assert got is not None
    assert states_close(got, state)


def test_get_returns_copies_not_views():
    grid = SparseGrid(voxel_size=0.1, prop_channels=2)
    grid.set((1, 1, 1), VoxelState(1.0, 1.0, np.array([0.5, 0.5]), 1.0, True))
    got = grid.get((1, 1, 1))
    got.prop[:] = 99.0
    again = grid.get((1, 1, 1))
    np.testing.assert_allclose(again.prop, [0.5, 0.5])


def test_random_set_get_matches_flat_dict_oracle():
    rng = np.random.default_rng(5)
    grid = SparseGrid(voxel_size=0.05, prop_channels=1)
    oracle = {}
    # Confined range forces frequent overwrites; wide excursions cross roots.
    for _ in range(5000):
        if rng.uniform() < 0.1:
            c = tuple(int(v) for v in rng.integers(-(1 << 14), 1 << 14, size=3))
        else:
            c = tuple(int(v) for v in rng.integers(-12, 12, size=3))
        if rng.uniform() < 0.6:
            s = make_state(rng, prop_channels=1)
            grid.set(c, s)
            oracle[c] = s
        else:
            got = grid.get(c)
            if c in oracle:
                assert got is not None and states_close(got, oracle[c])
            else:
                assert got is None
    for c, s in oracle.items():
        got = grid.get(c)
        assert got is not None and states_close(got, s)


def test_find_leaf_returns_owner_of_every_coord_up_to_key_range_edges():
    grid = SparseGrid(voxel_size=0.1)
    lo, hi = -KEY_BIAS, KEY_BIAS - LEAF_SIZE
    for origin in [(100 & ~7, -3000, 72), (lo, lo, lo), (hi, hi, hi),
                   (lo, hi, 0)]:
        leaf = grid.get_or_create_leaf(origin)
        assert leaf.origin == origin
        for off in [(0, 0, 0), (7, 7, 7), (3, 0, 5), (0, 6, 1)]:
            c = tuple(o + d for o, d in zip(origin, off))
            assert grid.find_leaf(c) is leaf
            assert grid.find_leaf(np.array(c)) is leaf
    assert grid.n_leaves == 4


def test_find_leaf_none_when_unallocated_and_rejects_out_of_range():
    grid = SparseGrid(voxel_size=0.1)
    grid.set((100, -3000, 77), VoxelState(1.0, 1.0))
    assert grid.find_leaf((0, 0, 0)) is None
    assert grid.find_leaf((100, -3000, 80)) is None
    assert grid.find_leaf((-KEY_BIAS, KEY_BIAS - 1, 0)) is None
    for bad in [(KEY_BIAS, 0, 0), (0, -KEY_BIAS - 1, 0), (0, 0, 1 << 40)]:
        with pytest.raises(ValueError):
            grid.find_leaf(bad)
        with pytest.raises(ValueError):
            grid.get_or_create_leaf(bad)
        with pytest.raises(ValueError):
            grid.lookup(np.array([[0, 0, 0], bad]))
        with pytest.raises(ValueError):
            pack_keys(np.array([bad]))
    assert grid.n_leaves == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(coord, min_size=2, max_size=40))
def test_packed_key_order_equals_tuple_order(coords):
    keys = pack_keys(np.array(coords, dtype=np.int64))
    for a, b, ka, kb in zip(coords, coords[1:], keys, keys[1:]):
        assert (a < b) == (ka < kb)
        assert (a == b) == (ka == kb)
    origins = leaf_origin_of(np.array(coords, dtype=np.int64))
    np.testing.assert_array_equal(leaf_keys(keys), pack_keys(origins))
    # scalar writes and batched reads must agree on the leaf key
    grid = SparseGrid(voxel_size=0.1)
    for i, c in enumerate(coords):
        grid.set(c, VoxelState(float(i), 1.0))
    found, dist, _, _ = grid.lookup(np.array(coords))
    assert found.all()
    last = {c: float(i) for i, c in enumerate(coords)}
    assert dist.tolist() == [last[c] for c in coords]
    # one leaf step along an axis changes a leaf key by LEAF_KEY_STEP
    origins = origins[(origins < KEY_BIAS - LEAF_SIZE).all(axis=1)]
    for axis in range(3):
        moved = origins + LEAF_SIZE * (np.arange(3) == axis)
        np.testing.assert_array_equal(pack_keys(moved) - pack_keys(origins),
                                      LEAF_KEY_STEP[axis])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=60))
def test_group_by_matches_dict_of_lists_oracle(values):
    groups = group_by(np.array(values, dtype=np.int64))
    oracle = {}
    for i, v in enumerate(values):
        oracle.setdefault(v, []).append(i)
    assert groups.keys.tolist() == sorted(oracle)
    assert groups.first.tolist() == [oracle[k][0] for k in sorted(oracle)]
    assert [r.tolist() for r in groups.rows()] == [oracle[k]
                                                    for k in sorted(oracle)]
    assert [groups.keys[g] for g in groups.inverse] == values


def stable_groups(keys) -> Groups:
    """group_by's fields by one stable argsort of the keys: the reference
    its sort by value must equal."""
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


I64 = np.iinfo(np.int64)
# keys of both group_by branches: (max - min + 1) * n fits in int64 for
# small ranges and local voxel clouds, and does not for voxel keys across
# the key range or for int64 extremes
GROUP_KEYS = st.one_of(
    st.lists(st.integers(-5, 5), max_size=80),
    st.tuples(st.tuples(st.integers(-KEY_BIAS, KEY_BIAS - 64),
                        st.integers(-KEY_BIAS, KEY_BIAS - 64),
                        st.integers(-KEY_BIAS, KEY_BIAS - 64)),
              st.lists(st.tuples(*[st.integers(0, 63)] * 3), max_size=80)
              ).map(lambda t: pack_keys(
                  np.array(t[1], dtype=np.int64).reshape(-1, 3) + t[0])),
    st.lists(coord, max_size=40).map(lambda c: pack_keys(c)),
    st.lists(st.sampled_from([I64.min, I64.min + 1, -1, 0, 1, I64.max - 1,
                              I64.max]), max_size=20),
    st.lists(st.integers(I64.min, I64.max), max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(GROUP_KEYS)
@example([])
@example([I64.max])
@example([I64.min, I64.max, I64.min])                  # argsort branch
@example([5, 0, (1 << 61) - 1, 5])                      # (range + 1) n = 2^63
@example([5, 0, (1 << 61) - 2, 5])                      # the largest that fits
def test_group_by_equals_stable_argsort_reference(keys):
    keys = np.asarray(keys, dtype=np.int64)
    got, want = group_by(keys), stable_groups(keys)
    for name in Groups._fields:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), max_size=40),
       st.lists(st.integers(-20, 20), max_size=40))
def test_isin_sorted_equals_isin(keys, members):
    """Absent, present and duplicated keys, against sorted unique members
    (none included)."""
    sorted_keys = np.unique(np.array(members, dtype=np.int64))
    keys = np.array(keys + members[:5] * 2, dtype=np.int64)
    got = isin_sorted(keys, sorted_keys)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, np.isin(keys, sorted_keys))


def test_group_mean_of_no_rows():
    groups = group_by(np.zeros(0, dtype=np.int64))
    for shape in [(0,), (0, 0), (0, 3)]:
        got = groups.mean(np.zeros(shape))
        assert got.shape == shape and got.dtype == np.float64


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.integers(-5, 5), min_size=1, max_size=60),
       width=st.sampled_from([None, 0, 1, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_group_mean_sums_each_group_in_row_order(keys, width, seed):
    """Bit for bit a sequential sum of each group's rows over its count;
    for three columns that is also numpy's mean, as the per-leaf centroid
    loop of build_voxelized computed it."""
    rng = np.random.default_rng(seed)
    shape = (len(keys),) if width is None else (len(keys), width)
    values = rng.normal(scale=10.0, size=shape)
    groups = group_by(np.array(keys, dtype=np.int64))
    got = groups.mean(values)
    want = []
    for rows in groups.rows():
        total = np.zeros(values.shape[1:])
        for r in rows:
            total = total + values[r]
        want.append(total / len(rows))
    want = np.array(want)
    assert got.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if width == 3:
        loop = np.array([values[rows].mean(axis=0) for rows in groups.rows()])
        assert got.tobytes() == loop.tobytes()


def test_coord_slots_keep_the_leading_shape_and_give_0_past_the_key_range():
    grid = SparseGrid(voxel_size=0.1)
    top, lo = KEY_BIAS - 1, -KEY_BIAS
    for c in [(top, top, top), (lo, 0, 5), (100, -3000, 77)]:
        grid.set(c, VoxelState(0.5, 1.0))
    coords = np.array([[[top, top, top], [top + 1, top, top],
                        [lo, 0, 5], [lo - 1, 0, 5]],
                       [[100, -3000, 77], [0, 0, 0],
                        [0, 0, 1 << 40], [96, -3000, 79]]])
    want = [[grid.find_leaf(coords[0, 0]).slot, 0,
             grid.find_leaf(coords[0, 2]).slot, 0],
            [grid.find_leaf(coords[1, 0]).slot, 0, 0,
             grid.find_leaf(coords[1, 3]).slot]]
    assert grid.coord_slots(coords).tolist() == want
    assert grid.coord_slots(np.zeros((0, 3), dtype=np.int64)).shape == (0,)


def test_gather_block_stops_at_key_range_edge():
    grid = SparseGrid(voxel_size=0.1)
    top = KEY_BIAS - 1
    grid.set((top, top, top), VoxelState(0.5, 1.0, observed=True))
    origin = (top - 7,) * 3
    dist, obs, _ = grid.gather_block(origin, (9, 9, 9))
    assert dist[7, 7, 7] == pytest.approx(0.5)
    assert obs.sum() == 1


def test_one_leaf_allocated_for_full_8_cube():
    grid = SparseGrid(voxel_size=0.1)
    for x in range(8):
        for y in range(8):
            for z in range(8):
                grid.set((x, y, z), VoxelState(0.1, 1.0))
    assert grid.n_leaves == 1
    grid.set((8, 0, 0), VoxelState(0.1, 1.0))
    assert grid.n_leaves == 2


def test_leaf_count_bounds():
    rng = np.random.default_rng(6)
    grid = SparseGrid(voxel_size=0.1)
    coords = {tuple(int(v) for v in c) for c in rng.integers(-40, 40, size=(800, 3))}
    for c in coords:
        grid.set(c, VoxelState(0.0, 1.0))
    assert len(coords) / LEAF_VOXELS <= grid.n_leaves <= len(coords)


def test_leaves_iteration_visits_each_masked_leaf_once():
    rng = np.random.default_rng(7)
    grid = SparseGrid(voxel_size=0.1)
    coords = {tuple(int(v) for v in c) for c in rng.integers(-64, 64, size=(300, 3))}
    for c in coords:
        grid.set(c, VoxelState(0.0, 1.0))
    origins = [leaf.origin for leaf in grid.leaves()]
    assert len(origins) == len(set(origins)) == grid.n_leaves
    want = {tuple(int(v) for v in leaf_origin_of(np.array(c))) for c in coords}
    assert set(origins) == want


def test_active_leaves_matches_marking_and_clears():
    grid = SparseGrid(voxel_size=0.1)
    assert list(grid.active_leaves()) == []
    leaves = []
    for i in range(5):
        leaf = grid.get_or_create_leaf((i * 8, 0, 0))
        leaves.append(leaf)
    for leaf in leaves[:3]:
        grid.mark_active(leaf)
        grid.mark_active(leaf)  # idempotent
    active = list(grid.active_leaves())
    assert len(active) == 3
    assert {l.origin for l in active} == {l.origin for l in leaves[:3]}
    grid.clear_active()
    assert list(grid.active_leaves()) == []
    assert not any(l.active for l in leaves)


def test_active_leaves_equals_brute_force_scan():
    rng = np.random.default_rng(8)
    grid = SparseGrid(voxel_size=0.1)
    for c in rng.integers(-32, 32, size=(200, 3)):
        grid.set(tuple(int(v) for v in c), VoxelState(0.0, 1.0))
    chosen = [leaf for leaf in grid.leaves() if rng.uniform() < 0.5]
    for leaf in chosen:
        grid.mark_active(leaf)
    brute = {leaf.origin for leaf in grid.leaves() if leaf.active}
    assert {l.origin for l in grid.active_leaves()} == brute == {l.origin for l in chosen}


def test_lookup_batch_matches_scalar_get():
    rng = np.random.default_rng(9)
    grid = SparseGrid(voxel_size=0.1)
    oracle = {}
    for c in rng.integers(-20, 20, size=(400, 3)):
        key = tuple(int(v) for v in c)
        s = VoxelState(float(rng.normal()), float(rng.uniform(0.1, 2.0)),
                       observed=bool(rng.integers(2)))
        grid.set(key, s)
        oracle[key] = s
    queries = np.vstack([
        rng.integers(-20, 20, size=(300, 3)),
        rng.integers(-2000, 2000, size=(50, 3)),
    ])
    found, dist, weight, obs = grid.lookup(queries)
    for i, q in enumerate(queries):
        key = tuple(int(v) for v in q)
        if key in oracle:
            assert found[i]
            assert dist[i] == pytest.approx(oracle[key].distance, abs=1e-6)
            assert weight[i] == pytest.approx(oracle[key].dist_weight, abs=1e-6)
            assert obs[i] == oracle[key].observed
        else:
            assert not found[i]


# leaf origins leaf_slots is tested on: both ends of the key range,
# neighbours and leaves far apart
_STACK_ORIGINS = [(-KEY_BIAS,) * 3, (KEY_BIAS - LEAF_SIZE,) * 3,
                  (0, 0, 0), (8, 0, 0), (0, 8, 0), (0, 0, 8), (-8, -8, -8),
                  (-KEY_BIAS, KEY_BIAS - LEAF_SIZE, 0), (64, -128, 1024),
                  (800, 8, -16)]


@settings(max_examples=80, deadline=None)
@given(allocated=st.lists(st.booleans(), min_size=len(_STACK_ORIGINS),
                          max_size=len(_STACK_ORIGINS)),
       picks=st.lists(st.integers(-1, len(_STACK_ORIGINS) - 1), max_size=30),
       channels=st.sampled_from([0, 2]), seed=st.integers(0, 2 ** 32 - 1))
@example(allocated=[False] * len(_STACK_ORIGINS), picks=[-1, 0, 3, 3, -1, 9],
         channels=2, seed=0)
@example(allocated=[True, False] * (len(_STACK_ORIGINS) // 2),
         picks=[2, 0, -1, 1, 0, 0, 3, 9, 8, -1], channels=0, seed=1)
def test_stack_leaves_matches_per_key_find_leaf(allocated, picks, channels,
                                                seed):
    """Empty grids, repeated, unallocated and -1 keys: leaf_slots and the
    pool rows it points at, against find_leaf."""
    rng = np.random.default_rng(seed)
    grid = SparseGrid(voxel_size=0.1, prop_channels=channels)
    for origin, alloc in zip(_STACK_ORIGINS, allocated):
        if alloc:
            leaf = grid.get_or_create_leaf(origin)
            for name in LEAF_ARRAYS:
                a = getattr(leaf, name)
                a[...] = (rng.random(a.shape) < 0.5 if a.dtype == bool
                          else rng.normal(size=a.shape))
    origins = [None if i < 0 else _STACK_ORIGINS[i] for i in picks]
    keys = np.array([-1 if o is None else int(pack_keys([o])[0])
                     for o in origins], dtype=np.int64)
    slot = grid.leaf_slots(keys)

    leaves = [None if o is None else grid.find_leaf(o) for o in origins]
    zero = new_pool(1, channels)
    assert slot.shape == keys.shape
    for i, leaf in enumerate(leaves):
        assert slot[i] == (0 if leaf is None else leaf.slot)
    hit = {leaf.slot for leaf in leaves if leaf is not None}
    assert 0 not in hit
    for name in LEAF_ARRAYS:
        pool = grid.pool[name]
        want = zero[name][0]
        assert pool.dtype == want.dtype
        assert pool.shape[1:] == want.shape
        assert len(pool) > grid.n_leaves
        np.testing.assert_array_equal(pool[0], want)
        for i, leaf in enumerate(leaves):
            np.testing.assert_array_equal(
                pool[slot[i]], want if leaf is None else getattr(leaf, name))


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(st.lists(st.integers(0, 40), max_size=12),
                        min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sorted_key_cache_equals_a_fresh_sort(batches, seed):
    """Allocations interleaved with batch reads: after every read the
    merged cache equals a fresh sort of the allocated keys, and reads
    see every leaf allocated before them."""
    rng = np.random.default_rng(seed)
    grid = SparseGrid(voxel_size=0.1)
    spread = np.array([[1, -3, 5], [-7, 2, 1], [4, 4, -9]]) * LEAF_SIZE
    for batch in batches:
        for i in batch:
            origin = (i % 7 - 3, i // 7 - 3, i % 3 - 1) @ spread
            grid.set(tuple(origin.tolist()),
                     VoxelState(float(i), 1.0, observed=True))
        probe = np.array([(i % 7 - 3, i // 7 - 3, i % 3 - 1) @ spread
                          for i in rng.integers(0, 41, 10)])
        found, dist, _, _ = grid.lookup(probe)
        assert_index_is_a_fresh_sort(grid)
        for c, f, d in zip(probe, found, dist):
            want = grid.get(tuple(c.tolist()))
            assert f == (want is not None)
            assert d == (want.distance if want is not None else 0.0)


def assert_index_is_a_fresh_sort(grid):
    """The leaf index equals a fresh sort of the allocated leaves' keys,
    each beside its leaf's slot, then the sentinel key and slot 0."""
    want = {int(pack_keys([leaf.origin])[0]): leaf.slot
            for leaf in grid.leaves()}
    keys, slots = grid._sorted
    order = sorted(want)
    assert keys.tolist() == order + [np.iinfo(np.int64).max]
    assert slots.tolist() == [want[k] for k in order] + [0]


def test_every_allocation_path_keeps_the_leaf_index_sorted(tmp_path):
    """set, get_or_create_leaf, an unsorted allocate batch holding an
    allocated key, and load_snapshot each leave the index equal to a
    fresh sort, and find_leaf and leaf_slots see every leaf."""
    from gpfield.pipeline import Pipeline, PipelineConfig

    pipe = Pipeline(PipelineConfig(voxel_size=0.1))
    grid = pipe.grid
    grid.set((40, -3, 17), VoxelState(0.25, 1.0))
    assert_index_is_a_fresh_sort(grid)
    grid.get_or_create_leaf((-90, 5, 0))
    assert_index_is_a_fresh_sort(grid)
    origins = [(800, 8, -16), (KEY_BIAS - LEAF_SIZE,) * 3, (-96, 0, 0),
               (-KEY_BIAS,) * 3, (0, 0, 0), (-88, 0, 0)]
    slots = grid.allocate(pack_keys(origins))
    assert_index_is_a_fresh_sort(grid)
    assert slots.tolist() == [3, 4, 2, 5, 6, 7]
    assert [grid.find_leaf(o).slot for o in origins] == slots.tolist()

    path = tmp_path / "map.snap"
    pipe.save_snapshot(path)
    back = Pipeline.load_snapshot(path).grid
    assert_index_is_a_fresh_sort(back)
    assert [leaf.origin for leaf in back.leaves()] == sorted(
        leaf.origin for leaf in grid.leaves())
    assert back.get((40, -3, 17)).distance == 0.25


def test_every_write_path_stamps_its_leaf_from_the_clock():
    grid = SparseGrid(voxel_size=0.1)
    a = grid.get_or_create_leaf((0, 0, 0))
    assert a.stamp == grid.clock > 0
    grid.set((9, 0, 0), VoxelState(0.0, 1.0))
    b = grid.find_leaf((9, 0, 0))
    assert b.stamp == grid.clock > a.stamp
    clock = grid.clock
    assert grid.find_leaf((0, 0, 0)) is a and grid.lookup([(0, 0, 0)])
    grid.get((9, 0, 0))
    assert grid.clock == clock              # reads stamp nothing
    grid.mark_active(a)
    assert a.stamp == grid.clock > b.stamp
    grid.mark_active(a)                     # already active: stamped again
    assert a.stamp == grid.clock == clock + 2
    grid.get_or_create_leaf((1, 1, 1))      # an existing leaf
    assert a.stamp == grid.clock == clock + 3
    grid.set((9, 1, 0), VoxelState(0.5, 1.0))
    assert b.stamp == grid.clock == clock + 4
    assert [leaf for leaf in grid.leaves() if leaf.stamp > clock + 3] == [b]


# leaf origins gather_block is tested around: both corners of the key
# range, a leaf beside each, and neighbours about the origin
_BLOCK_LEAVES = [(-KEY_BIAS,) * 3,
                 (-KEY_BIAS + LEAF_SIZE, -KEY_BIAS, -KEY_BIAS),
                 (KEY_BIAS - LEAF_SIZE,) * 3,
                 (KEY_BIAS - LEAF_SIZE, KEY_BIAS - 2 * LEAF_SIZE,
                  KEY_BIAS - LEAF_SIZE),
                 (0, 0, 0), (-8, 0, 0), (0, 8, -8), (8, 8, 8)]


@settings(max_examples=80, deadline=None)
@given(allocated=st.lists(st.booleans(), min_size=len(_BLOCK_LEAVES),
                          max_size=len(_BLOCK_LEAVES)),
       anchor=st.integers(0, len(_BLOCK_LEAVES) - 1),
       offset=st.tuples(*[st.integers(-12, 12)] * 3),
       shape=st.tuples(*[st.integers(0, 20)] * 3),
       channels=st.sampled_from([0, 2]), seed=st.integers(0, 2 ** 32 - 1))
@example(allocated=[True] * len(_BLOCK_LEAVES), anchor=2, offset=(3, 0, 4),
         shape=(9, 20, 12), channels=2, seed=0)
@example(allocated=[True, False] * (len(_BLOCK_LEAVES) // 2), anchor=0,
         offset=(-12, -5, 0), shape=(20, 9, 17), channels=0, seed=1)
def test_gather_block_matches_the_per_leaf_loop(allocated, anchor, offset,
                                                shape, channels, seed):
    """Bit for bit, dtype and shape, the loop gather_block replaced: blocks
    past either key-range edge, unallocated leaves, and values set with
    and without observed, and observed flags without a value."""
    rng = np.random.default_rng(seed)
    grid = SparseGrid(voxel_size=0.1, prop_channels=channels)
    for origin, alloc in zip(_BLOCK_LEAVES, allocated):
        if alloc:
            leaf = grid.get_or_create_leaf(origin)
            for name in LEAF_ARRAYS:
                a = getattr(leaf, name)
                a[...] = (rng.random(a.shape) < 0.5 if a.dtype == bool
                          else rng.normal(size=a.shape))
    origin = np.add(_BLOCK_LEAVES[anchor], offset)
    got = grid.gather_block(origin, shape)
    want = grid_oracle.gather_block(grid, origin, shape)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def test_gather_block_dense_window():
    grid = SparseGrid(voxel_size=0.1, prop_channels=2)
    grid.set((0, 0, 0), VoxelState(-0.3, 1.0, np.array([0.1, 0.9]), 1.0, True))
    grid.set((1, 2, 3), VoxelState(0.4, 1.0, np.array([0.2, 0.8]), 1.0, False))
    grid.set((8, 0, 0), VoxelState(0.7, 1.0, np.array([0.3, 0.7]), 1.0, True))
    dist, obs, prop = grid.gather_block((0, 0, 0), (9, 9, 9))
    assert dist.shape == (9, 9, 9)
    assert prop.shape == (9, 9, 9, 2)
    assert dist[0, 0, 0] == pytest.approx(-0.3, abs=1e-6)
    assert obs[0, 0, 0]
    assert dist[1, 2, 3] == pytest.approx(0.4, abs=1e-6)
    assert not obs[1, 2, 3]
    assert dist[8, 0, 0] == pytest.approx(0.7, abs=1e-6)
    # Unset voxels come back as zero-filled, unobserved entries.
    assert dist[5, 5, 5] == 0.0
    assert not obs[5, 5, 5]
    np.testing.assert_allclose(prop[0, 0, 0], [0.1, 0.9], atol=1e-6)


def test_gather_block_matches_scalar_get_random():
    rng = np.random.default_rng(10)
    grid = SparseGrid(voxel_size=0.1)
    for c in rng.integers(-10, 10, size=(300, 3)):
        grid.set(tuple(int(v) for v in c), VoxelState(float(rng.normal()), 1.0))
    origin = (-10, -10, -10)
    dist, obs, _ = grid.gather_block(origin, (20, 20, 20))
    for _ in range(200):
        off = rng.integers(0, 20, size=3)
        c = tuple(int(v) for v in (np.array(origin) + off))
        s = grid.get(c)
        if s is None:
            assert dist[tuple(off)] == 0.0
        else:
            assert dist[tuple(off)] == pytest.approx(s.distance, abs=1e-6)


def test_observed_voxels_lists_only_observed():
    grid = SparseGrid(voxel_size=0.1)
    grid.set((0, 0, 0), VoxelState(0.01, 1.0, observed=True))
    grid.set((0, 0, 1), VoxelState(0.25, 1.0, observed=False))
    grid.set((40, -3, 2), VoxelState(-0.02, 1.0, observed=True))
    coords, dists = grid.observed_voxels()
    got = {tuple(int(v) for v in c): float(d) for c, d in zip(coords, dists)}
    assert set(got) == {(0, 0, 0), (40, -3, 2)}
    assert got[(0, 0, 0)] == pytest.approx(0.01, abs=1e-6)
    assert got[(40, -3, 2)] == pytest.approx(-0.02, abs=1e-6)


def reference_observed_voxels(grid):
    """The per-leaf loop observed_voxels replaced, kept as its oracle."""
    coords, dists = [], []
    for leaf in grid.leaves():
        flat = np.flatnonzero(leaf.value_mask & leaf.observed)
        if len(flat) == 0:
            continue
        local = np.stack([flat >> 6, (flat >> 3) & 7, flat & 7], axis=1)
        coords.append(local + np.asarray(leaf.origin, dtype=np.int64))
        dists.append(leaf.distance[flat].astype(np.float64))
    if not coords:
        return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
    return np.concatenate(coords), np.concatenate(dists)


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-3, 3), st.integers(0, 3)),
                max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_observed_voxels_matches_per_leaf_reference(leaves, seed):
    """Same order, values and dtypes as the per-leaf loop, for an empty
    grid, leaves with nothing observed, unset voxels flagged observed,
    and leaves at both ends of the key range."""
    rng = np.random.default_rng(seed)
    grid = SparseGrid(voxel_size=0.1)
    assert_same_arrays(grid.observed_voxels(), reference_observed_voxels(grid))
    edge = KEY_BIAS - LEAF_SIZE
    for i, j, k, fill in leaves:
        origin = (i * LEAF_SIZE, j * LEAF_SIZE, k * LEAF_SIZE)
        if fill == 3:
            origin = (edge, -KEY_BIAS, edge) if i % 2 else (-KEY_BIAS,) * 3
        leaf = grid.get_or_create_leaf(origin)
        if fill == 0:
            continue     # allocated, nothing set
        leaf.value_mask |= rng.random(LEAF_VOXELS) < 0.3
        leaf.distance[:] = rng.normal(size=LEAF_VOXELS).astype(np.float32)
        # fill 1 sets values without observing them; observed alone must
        # not count
        if fill >= 2:
            leaf.observed |= rng.random(LEAF_VOXELS) < 0.5
    got = grid.observed_voxels()
    assert_same_arrays(got, reference_observed_voxels(grid))
    assert got[0].dtype == np.int64 and got[1].dtype == np.float64


def test_clock_advances_on_mutation():
    grid = SparseGrid(voxel_size=0.1)
    c0 = grid.clock
    grid.set((0, 0, 0), VoxelState(0.0, 1.0))
    c1 = grid.clock
    assert c1 > c0
    leaf = grid.find_leaf((0, 0, 0))
    assert leaf.stamp == c1
    grid.set((0, 0, 0), VoxelState(0.5, 2.0))
    assert grid.clock > c1 and leaf.stamp == grid.clock
    assert grid.stamped_since(c1).tolist() == [leaf.slot]


def test_negative_coordinates_round_trip():
    grid = SparseGrid(voxel_size=0.1)
    nasty = [(-1, -1, -1), (-8, -8, -8), (-9, -9, -9), (-4096, 0, 0),
             (-4097, 17, -255), (-(1 << 20), -(1 << 20), -(1 << 20))]
    for i, c in enumerate(nasty):
        grid.set(c, VoxelState(float(i), 1.0))
    for i, c in enumerate(nasty):
        got = grid.get(c)
        assert got is not None
        assert got.distance == pytest.approx(float(i), abs=1e-6)


def test_pool_growth_keeps_every_write_visible():
    """Leaves allocated past several doublings of the pool, written through
    handles fetched before and after each growth: lookup, the mesh
    oracle's gather_blocks, gather_block and observed_voxels see every
    write, and unallocated and -1 keys read zeros after fusion, so the
    zero row is never written."""
    from gpfield.fusion import FusionConfig, fuse_frame
    from gpfield.query_points import TestPointSet

    rng = np.random.default_rng(11)
    grid = SparseGrid(voxel_size=0.1, prop_channels=2)
    handles = []
    capacities = []
    want = {}
    for i in range(150):
        origin = (LEAF_SIZE * (i % 7), LEAF_SIZE * (i // 7), -LEAF_SIZE * (i % 3))
        handles.append(grid.get_or_create_leaf(origin))
        capacities.append(len(grid.pool["stamp"]))
        # one handle fetched now, one fetched at some earlier allocation
        # (before a growth, for most), one fetched again by lookup
        old = handles[rng.integers(len(handles))]
        for leaf in (handles[-1], old, grid.find_leaf(old.origin)):
            n = int(rng.integers(LEAF_VOXELS))
            leaf.distance[n] = rng.normal()
            leaf.value_mask[n] = leaf.observed[n] = True
            c = tuple(int(v) for v in
                      np.asarray(leaf.origin) + [n >> 6, (n >> 3) & 7, n & 7])
            want[c] = leaf.distance[n]
    assert len(set(capacities)) >= 4
    assert grid.pool["distance"].flags.c_contiguous

    coords = np.array(sorted(want))
    found, dist, _, obs = grid.lookup(coords)
    assert found.all() and obs.all()
    np.testing.assert_array_equal(dist, [want[tuple(c)] for c in coords.tolist()])
    got, gdist = grid.observed_voxels()
    assert sorted(map(tuple, got.tolist())) == sorted(want)
    assert {tuple(c): d for c, d in zip(got.tolist(), gdist)} == {
        c: float(d) for c, d in want.items()}
    origins = [leaf.origin for leaf in grid.leaves()]
    assert origins == [leaf.origin for leaf in handles]
    blocks = gather_blocks(grid, origins)
    for i, origin in enumerate(origins):
        d, o, _ = grid.gather_block(origin, (LEAF_SIZE + 1,) * 3)
        np.testing.assert_array_equal(blocks.distance[i], d)
        np.testing.assert_array_equal(blocks.observed[i], o)

    # fusion into existing and new leaves, one at the top of the key range
    top = KEY_BIAS - 1
    fused = np.array([[0, 0, 0], [1, 2, 3], [top, top, top], [-900, 5, 5]])
    fuse_frame(grid, TestPointSet(fused, grid_to_world(fused, 0.1),
                                  np.ones(4), np.ones(4, dtype=np.uint8)),
               np.full(4, 0.01), np.zeros(4),
               FusionConfig(v_max=1.0, w_max=1.0), np.ones((4, 2)),
               np.zeros(4))
    for name, a in grid.pool.items():
        assert not a[0].any(), name
    assert grid.leaf_slots(np.array([-1]))[0] == 0
    unallocated = np.array([[-800, 5, 5], [top - 8, top, top], [5, 5, 900]])
    found, dist, weight, obs = grid.lookup(unallocated)
    assert not (found.any() or dist.any() or weight.any() or obs.any())
    blocks = gather_blocks(grid, [(top - 7,) * 3, (KEY_BIAS - 64,) * 3])
    assert blocks.distance[0].sum() == np.float32(0.01)
    assert (blocks.slots[0, 1:] == 0).all()
    assert not (blocks.distance[1].any() or blocks.observed[1].any())
