"""The global and local query paths against the per-node loops they replaced.

``GlobalField.query_batch`` and ``LocalField.query_batch`` evaluate one
kernel matrix per routed model and finish the elementwise part (clips,
reverting, variance propagation, gradient normalization) once per batch.
The reference functions below are the loops they replaced, including
their own copies of the per-model GP inference calls that built the
kernel matrix once per quantity; every output must equal theirs bit for
bit. Also here: the empty batch, bad ``q``, bad rows and the per-batch
query stats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from gpfield import gp
from gpfield.global_field import GlobalField, QueryStats, SignIndex
from gpfield.grid import KEY_BIAS, SparseGrid, VoxelState, group_by
from gpfield.local_field import LocalField

import gp_oracle
from gp_oracle import kernel_matrix

# -- reference: the per-node inference calls and loops as they were ----------


def ref_infer_occupancy(model, q):
    kq = kernel_matrix(q, model.train_points, model.params)
    o = kq @ model.alpha_occ
    v = solve_triangular(model.chol, kq.T, lower=True)
    u = model.params.sigma2 - np.einsum("ij,ij->j", v, v)
    return o, np.clip(u, 0.0, model.params.sigma2)


def ref_infer_distance_gradient(model, q):
    kq = kernel_matrix(q, model.train_points, model.params)
    w = kq * model.alpha_occ[None, :]
    diff = model.train_points[None, :, :] - q[:, None, :]
    g = np.einsum("ij,ijk->ik", w, diff) / model.params.length_scale ** 2
    norm = np.linalg.norm(g, axis=1)
    out = np.zeros_like(g)
    ok = norm > model.params.grad_eps
    out[ok] = -g[ok] / norm[ok, None]
    return out


def ref_infer_property(model, q, clip_range):
    kq = kernel_matrix(q, model.train_points, model.params)
    c = kq @ model.alpha_prop
    v = solve_triangular(model.chol_prop, kq.T, lower=True)
    w = model.params.sigma2 - np.einsum("ij,ij->j", v, v)
    w = np.clip(w, 0.0, model.params.sigma2)
    if clip_range is not None:
        c = np.clip(c, clip_range[0], clip_range[1])
    return c, w


def reference_query_batch(field, points, q=None):
    """GlobalField.query_batch as a loop of per-node inference calls."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m = len(pts)
    field._ensure_tree()
    q = field.query_nodes if q is None else int(q)
    n_nodes = len(field._tree_nodes)
    k = min(q, n_nodes)
    kq = min(q + 1, n_nodes)
    dist, idx = field._tree.query(pts, k=kq)
    dist = dist.reshape(m, kq)
    idx = idx.reshape(m, kq)
    order = np.lexsort((idx, dist), axis=-1)
    rows = np.arange(m)[:, None]
    sel = idx[rows, order][:, :k]
    groups = group_by(sel.ravel())
    nodes = [field._tree_nodes[u] for u in groups.keys.tolist()]
    field._train_nodes(nodes)

    dq = np.full((m, k), np.inf)
    vq = np.zeros((m, k))
    gq = np.zeros((m, k, 3))
    has_props = all(node.props is not None for node in nodes)
    pdim = nodes[0].props.shape[1] if has_props else 0
    cq = np.zeros((m, k, pdim)) if has_props else None
    wq = np.zeros((m, k)) if has_props else None
    for node, flat in zip(nodes, groups.rows()):
        prows, slots = np.divmod(flat, k)
        xs = pts[prows]
        o, uhat = ref_infer_occupancy(node.model, xs)
        dq[prows, slots] = gp.revert_distance(o, field.params)
        vq[prows, slots] = gp.propagate_variance(uhat, o, field.params)
        gq[prows, slots] = ref_infer_distance_gradient(node.model, xs)
        if has_props:
            c, w = ref_infer_property(node.model, xs, field.prop_clip)
            cq[prows, slots] = c
            wq[prows, slots] = w

    lam = field.smooth_lambda
    dmin = dq.min(axis=1)
    weights = np.exp(-lam * (dq - dmin[:, None]))
    weights[~np.isfinite(dq)] = 0.0
    blended = (weights * np.where(np.isfinite(dq), dq, 0.0)).sum(axis=1) \
        / weights.sum(axis=1)
    win = np.argmin(dq, axis=1)
    variance = vq[rows[:, 0], win]
    gmean = gq.mean(axis=1)
    gnorm = np.linalg.norm(gmean, axis=1)
    grad = np.zeros_like(gmean)
    okg = gnorm > field.params.grad_eps
    grad[okg] = gmean[okg] / gnorm[okg, None]
    sign, known = field._signs(pts, QueryStats())
    distance = blended * np.where(known, sign, 1.0)
    grad = grad * np.where(known, sign, 1.0)[:, None]
    props = cq[rows[:, 0], win] if has_props else None
    pvar = wq[rows[:, 0], win] if has_props else None
    return distance, variance, grad, props, pvar, ~known


def ref_nearest_model(field, pts):
    """The local field's routing as it was: the nearest centroid, with an
    exact tie between the two nearest going to the smaller index."""
    k = min(2, len(field.models))
    dist, idx = field._tree.query(pts, k=k)
    if k == 1:
        return np.atleast_1d(idx).reshape(len(pts))
    dist = dist.reshape(len(pts), k)
    idx = idx.reshape(len(pts), k)
    best = idx[:, 0].copy()
    tied = dist[:, 0] == dist[:, 1]
    best[tied] = np.minimum(idx[tied, 0], idx[tied, 1])
    return best


def reference_local_query_batch(field, points):
    """LocalField.query_batch as a loop of per-model inference calls."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(pts)
    owner = ref_nearest_model(field, pts)
    d = np.zeros(n)
    v = np.zeros(n)
    has_prop = field.has_properties
    c = np.zeros((n, field.models[0].alpha_prop.shape[1])) if has_prop else None
    w = np.zeros(n) if has_prop else None
    groups = group_by(owner)
    for mi, rows in zip(groups.keys, groups.rows()):
        model = field.models[mi]
        o, u = ref_infer_occupancy(model, pts[rows])
        d[rows] = gp.revert_distance(o, field.params)
        v[rows] = gp.propagate_variance(u, o, field.params)
        if has_prop:
            c[rows], w[rows] = ref_infer_property(model, pts[rows],
                                                  field.prop_clip)
    return d, v, c, w


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


def result_arrays(res):
    return (res.distances, res.variances, res.gradients, res.properties,
            res.prop_variances, res.free_space)


# -- random fields ------------------------------------------------------------

# a noise-free property regressor drives the latent property variance at
# training points below 0, so its clip runs; sigma2 = 0.5 puts near-surface
# queries on the reverting map's singularity (occupancy ratio >= 1), so the
# v_floor branch runs; grad_eps = 0.5 zeroes the gradients of some nodes at
# moderately far queries but not of others
PARAM_SETS = [
    gp.KernelParams(length_scale=0.15, prop_noise2=0.0),
    gp.KernelParams(sigma2=0.5, length_scale=0.1, v_floor=1e-10),
    gp.KernelParams(length_scale=0.12, noise2=1e-3, prop_noise2=1e-3,
                    grad_eps=0.5),
]


def random_clusters(rng, n_nodes, pdim, dup):
    """{origin: (points, props)} with clusters on a loose lattice; with
    dup, the last node repeats the first one's points so their centroids
    tie exactly."""
    out = {}
    for i in range(n_nodes):
        center = rng.uniform(-0.6, 0.6, size=3)
        n = int(rng.integers(1, 13))
        pts = center + rng.normal(scale=0.08, size=(n, 3))
        props = None if pdim == 0 else rng.uniform(-0.2, 1.2, size=(n, pdim))
        out[(8 * i, 0, 0)] = (pts, props)
    if dup:
        out[(8 * n_nodes, 0, 0)] = out[(0, 0, 0)]
    return out


def lattice_ties(rng, n_models, pdim, n):
    """({origin: (points, props)}, (n, 3) rows) where every row ties.

    At least two models sit 0.25 apart on the x axis, in random index
    order; each trains on two random dyadic offsets and their negatives,
    so its centroid is its lattice point exactly while its points differ
    from its neighbours'. Each row lies halfway between two neighbouring
    models, on a dyadic point, so their centroid distances are equal
    bit for bit.
    """
    m = max(n_models, 2)
    x = 0.25 * rng.permutation(m)
    out = {}
    for i in range(m):
        off = rng.integers(-3, 4, size=(2, 3)) / 32
        pts = np.concatenate([off, -off]) + [x[i], 0.0, 0.0]
        props = None if pdim == 0 else rng.uniform(-0.2, 1.2, size=(4, pdim))
        out[(8 * i, 0, 0)] = (pts, props)
    rows = np.zeros((n, 3))
    rows[:, 0] = 0.25 * rng.integers(0, m - 1, n) + 0.125
    rows[:, 1:] = rng.integers(-8, 9, size=(n, 2)) / 32
    return out, rows


def random_queries(rng, clusters, n):
    """Near-surface, on-surface (training points), far and tie rows."""
    train = np.concatenate([p for p, _ in clusters.values()])
    centroids = np.array([p.mean(axis=0) for p, _ in clusters.values()])
    kinds = rng.integers(0, 5, size=n)
    out = rng.uniform(-0.8, 0.8, size=(n, 3))
    near = train[rng.integers(0, len(train), n)] + rng.normal(scale=0.03,
                                                              size=(n, 3))
    out[kinds == 1] = near[kinds == 1]
    out[kinds == 2] = train[rng.integers(0, len(train), n)][kinds == 2]
    out[kinds == 3] = rng.uniform(-6.0, 6.0, size=(n, 3))[kinds == 3]
    out[kinds == 4] = centroids[rng.integers(0, len(centroids), n)][kinds == 4]
    return out


def sign_grid(rng, clusters, h=0.05):
    grid = SparseGrid(voxel_size=h)
    train = np.concatenate([p for p, _ in clusters.values()])
    for x in train[: 20]:
        c = tuple(int(v) for v in np.floor(x / h))
        grid.set(c, VoxelState(distance=float(rng.normal(scale=0.03)),
                               dist_weight=1.0, observed=bool(rng.random() < 0.8)))
    return grid


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_nodes=st.integers(1, 6),
       pdim=st.sampled_from([0, 0, 1, 3]), q=st.integers(1, 4),
       n_rows=st.sampled_from([1, 1, 7, 80]), dup=st.booleans(),
       pset=st.integers(0, len(PARAM_SETS) - 1), with_grid=st.booleans(),
       clip=st.booleans())
def test_query_batch_matches_per_node_loop(seed, n_nodes, pdim, q, n_rows,
                                           dup, pset, with_grid, clip):
    rng = np.random.default_rng(seed)
    params = PARAM_SETS[pset]
    clusters = random_clusters(rng, n_nodes, pdim, dup)
    grid = sign_grid(rng, clusters) if with_grid else None
    field = GlobalField(params, grid=grid,
                        prop_clip=(0.0, 1.0) if clip else None)
    field.update(clusters)
    pts = random_queries(rng, clusters, n_rows)

    got = field.query_batch(pts, q=q)
    want = reference_query_batch(field, pts, q=q)
    assert_bitwise(result_arrays(got), want)


def test_oracle_inputs_reach_every_branch():
    """The random fields above do hit the branches they are meant to."""
    rng = np.random.default_rng(5)
    clusters = random_clusters(rng, 4, 3, dup=True)
    pts = random_queries(rng, clusters, 400)
    singular = GlobalField(PARAM_SETS[1])
    singular.update(clusters)
    assert (singular.query_batch(pts).variances
            == PARAM_SETS[1].v_floor).any()
    exact = GlobalField(PARAM_SETS[0])
    exact.update(clusters)
    assert (exact.query_batch(pts).prop_variances == 0.0).any()
    flat = GlobalField(PARAM_SETS[2])
    flat.update(clusters)
    res = flat.query_batch(pts)
    zero = (res.gradients == 0).all(axis=1)
    assert zero.any() and not zero.all()
    assert np.isclose(res.distances, PARAM_SETS[2].d_max).any()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_models=st.integers(1, 5),
       pdim=st.sampled_from([0, 2]), n_rows=st.sampled_from([1, 9, 60]),
       dup=st.booleans(), pset=st.integers(0, len(PARAM_SETS) - 1),
       clip=st.booleans(), ties=st.booleans())
def test_local_query_batch_matches_per_model_loop(seed, n_models, pdim, n_rows,
                                                  dup, pset, clip, ties):
    rng = np.random.default_rng(seed)
    params = PARAM_SETS[pset]
    if ties:
        clusters, pts = lattice_ties(rng, n_models, pdim, n_rows)
    else:
        clusters = random_clusters(rng, n_models, pdim, dup)
    models = [gp.train(p, params, c) for p, c in clusters.values()]
    field = LocalField(models, params, prop_clip=(0.0, 1.0) if clip else None)
    if ties:
        # the tree itself answers the higher index first for some tied
        # row, so only route's tie sort picks the lower one
        dist, idx = field._tree.query(pts, k=2)
        assert (dist[:, 0] == dist[:, 1]).all()
        assert (idx[:, 0] > idx[:, 1]).any()
    else:
        pts = random_queries(rng, clusters, n_rows)
    assert_bitwise(field.query_batch(pts),
                   reference_local_query_batch(field, pts))


# -- empty batch and bad q ----------------------------------------------------


def two_node_field(props: bool, grid=None):
    rng = np.random.default_rng(0)
    field = GlobalField(PARAM_SETS[0], grid=grid)
    field.update({
        (0, 0, 0): (rng.normal(scale=0.1, size=(10, 3)),
                    rng.random((10, 3)) if props else None),
        (16, 0, 0): (rng.normal(scale=0.1, size=(10, 3)) + [0.8, 0, 0],
                     rng.random((10, 3)) if props else None)})
    return field


@pytest.mark.parametrize("props", [False, True])
def test_empty_batch_returns_zero_length_result(props):
    field = two_node_field(props)
    res = field.query_batch(np.zeros((0, 3)))
    assert len(res) == 0
    assert res.distances.shape == (0,) and res.variances.shape == (0,)
    assert res.gradients.shape == (0, 3)
    assert res.free_space.shape == (0,) and res.free_space.dtype == bool
    if props:
        assert res.properties.shape == (0, 3)
        assert res.prop_variances.shape == (0,)
    else:
        assert res.properties is None and res.prop_variances is None
    assert res.stats == QueryStats()
    assert all(node.model is None for node in field.nodes.values())


@pytest.mark.parametrize("pdim", [0, 2])
def test_local_empty_batch_returns_zero_length_arrays(pdim):
    rng = np.random.default_rng(1)
    clusters = random_clusters(rng, 3, pdim, dup=False)
    field = LocalField([gp.train(p, PARAM_SETS[0], c)
                        for p, c in clusters.values()], PARAM_SETS[0])
    d, v, c, w = field.query_batch(np.zeros((0, 3)))
    assert d.shape == (0,) and v.shape == (0,)
    if pdim:
        assert c.shape == (0, pdim) and w.shape == (0,)
    else:
        assert c is None and w is None


@pytest.mark.parametrize("q", [0, -1])
def test_query_nodes_below_one_is_rejected(q):
    field = two_node_field(False)
    with pytest.raises(ValueError, match=r"\bq\b"):
        field.query_batch(np.zeros((2, 3)), q=q)
    with pytest.raises(ValueError, match=r"\bq\b"):
        GlobalField(PARAM_SETS[0], query_nodes=q).query_batch(np.zeros((1, 3)))


@pytest.mark.parametrize("bad", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0),
                                 (0.0, 0.0, -np.inf), (1e300, 0.0, 0.0),
                                 (0.0, -1e300, 0.0)])
@pytest.mark.parametrize("with_grid", [False, True])
def test_bad_query_rows_raise_one_value_error_naming_the_row(bad, with_grid):
    grid = SparseGrid(voxel_size=0.05) if with_grid else None
    field = two_node_field(False, grid)
    pts = np.array([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0], bad, bad])
    with pytest.raises(ValueError, match=r"^query row 2 \("):
        field.query_batch(pts)
    assert field.query_batch(pts[:2]).distances.shape == (2,)


@pytest.mark.parametrize("bad", [(np.nan, 0.0, 0.0), (1e300, 0.0, 0.0)])
@pytest.mark.parametrize("n_models", [1, 2])
def test_local_bad_query_rows_raise_one_value_error_naming_the_row(bad,
                                                                   n_models):
    rng = np.random.default_rng(0)
    clusters = random_clusters(rng, n_models, 0, dup=False)
    field = LocalField([gp.train(p, PARAM_SETS[0]) for p, _ in
                        clusters.values()], PARAM_SETS[0])
    pts = np.array([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0], bad, bad])
    with pytest.raises(ValueError, match=r"^query row 2 \("):
        field.query_batch(pts)
    assert field.query_batch(pts[:2])[0].shape == (2,)


def test_query_rows_at_the_voxel_key_range_edges():
    """Rows whose voxel lies in [-2^20, 2^20) work; one voxel past either
    edge is rejected with the range in the message."""
    h = 0.05
    field = two_node_field(False, SparseGrid(voxel_size=h))
    lo = -KEY_BIAS * h + 0.25 * h
    hi = (KEY_BIAS - 1) * h + 0.25 * h
    res = field.query_batch(np.array([[lo, 0.0, 0.0], [0.0, hi, 0.0]]))
    assert np.isfinite(res.distances).all()
    for past in ([lo - h, 0.0, 0.0], [0.0, 0.0, hi + h]):
        with pytest.raises(ValueError, match=r"query row 1 .* voxel key range"):
            field.query_batch(np.array([[0.0, 0.0, 0.0], past]))


# -- query stats ----------------------------------------------------------------


def test_query_stats_match_spies(monkeypatch, capsys):
    """n_nodes_trained counts the models gp.train_many trained;
    sign_rebuilt is 1 when the batch built the sign index's main tree, and
    a full build is an append to an empty index over every allocated leaf;
    n_observed_indexed is the number of observed voxels the batch added to
    the index."""
    trained = []
    full_builds = []
    real_train_many = gp.train_many
    real_append = SignIndex._append

    def spy_train_many(*args, **kwargs):
        trained.extend(args[0])
        return real_train_many(*args, **kwargs)

    def spy_append(self, touched, stats):
        full = self.n == 0 and len(touched) == self.grid.n_leaves
        out = real_append(self, touched, stats)
        if full:
            full_builds.append(self.n)
        return out

    monkeypatch.setattr(gp, "train_many", spy_train_many)
    monkeypatch.setattr(SignIndex, "_append", spy_append)

    grid = SparseGrid(voxel_size=0.05)
    for i in range(6):
        grid.set((i, 0, 0), VoxelState(0.01, 1.0, observed=i % 2 == 0))
    rng = np.random.default_rng(3)
    field = GlobalField(PARAM_SETS[0], grid=grid, query_nodes=1)
    field.update({(8 * i, 0, 0): (rng.normal(scale=0.05, size=(8, 3))
                                  + [0.5 * i, 0, 0], None)
                  for i in range(4)})
    near_first_two = np.array([[0.0, 0.0, 0.1], [0.5, 0.0, 0.1]])
    everywhere = np.array([[0.5 * i, 0.0, 0.1] for i in range(4)])

    def n_observed():
        return int(sum((leaf.value_mask & leaf.observed).sum()
                       for leaf in grid.leaves()))

    def query_and_count(pts, full):
        trained.clear()
        full_builds.clear()
        stats = field.query_batch(pts).stats
        assert stats.n_nodes_trained == len(trained)
        assert len(full_builds) == full
        if full:
            assert stats.sign_rebuilt == 1
            assert stats.n_observed_indexed == full_builds[0] == n_observed()
        return stats

    first = query_and_count(near_first_two, full=1)
    assert first == QueryStats(n_nodes_routed=2, n_nodes_trained=2,
                               sign_rebuilt=1, n_observed_indexed=3)
    again = query_and_count(near_first_two, full=0)
    assert again == QueryStats(n_nodes_routed=2)

    # one new voxel is more than a quarter of the three in the main tree
    grid.set((0, 1, 0), VoxelState(0.01, 1.0, observed=True))
    third = query_and_count(everywhere, full=0)
    assert third == QueryStats(n_nodes_routed=4, n_nodes_trained=2,
                               sign_rebuilt=1, n_observed_indexed=1)
    # one more is not more than a quarter of four: it goes to the tail
    grid.set((0, 2, 0), VoxelState(0.01, 1.0, observed=True))
    fourth = query_and_count(everywhere, full=0)
    assert fourth == QueryStats(n_nodes_routed=4, n_observed_indexed=1)
    # un-observing an indexed voxel falls back to a full build
    grid.set((0, 0, 0), VoxelState(0.01, 1.0, observed=False))
    fifth = query_and_count(everywhere, full=1)
    assert fifth == QueryStats(n_nodes_routed=4, sign_rebuilt=1,
                               n_observed_indexed=4)
    assert capsys.readouterr() == ("", "")


def test_query_stats_count_jitter_escalations_of_trained_nodes():
    """A node of duplicated points under noise2 = 0 needs jitter; the batch
    that trains it counts its escalations, and a batch that trains nothing
    counts none."""
    params = gp.KernelParams(length_scale=0.15, noise2=0.0)
    rng = np.random.default_rng(9)
    dup = np.repeat(rng.normal(scale=0.05, size=(4, 3)), 2, axis=0)
    apart = rng.normal(scale=0.05, size=(6, 3)) + [0.8, 0.0, 0.0]
    field = GlobalField(params, query_nodes=1)
    field.update({(0, 0, 0): (dup, None), (16, 0, 0): (apart, None)})
    want = gp_oracle.train(dup, params).jitter
    assert want > 0
    assert gp_oracle.train(apart, params).jitter == 0
    both = np.array([[0.0, 0.0, 0.1], [0.8, 0.0, 0.1]])
    stats = field.query_batch(both).stats
    assert (stats.n_nodes_trained, stats.n_jitter_escalations) == (2, want)
    assert field.query_batch(both).stats.n_jitter_escalations == 0
