"""The grouped GP path against the per-model bodies it replaced.

``gp.train_many`` trains models grouped by training-set size and
``gp.routed_moments`` infers them the same way; both must equal the
per-model oracles in ``gp_oracle`` bit for bit: mixed sizes, groups of
one, jitter, shared property factors, errors, empty batches and row
counts that cross a chunk boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfield import gp
from gpfield.gp import KernelParams

import gp_oracle

MODEL_FIELDS = ("chol", "alpha_occ", "centroid", "chol_prop", "alpha_prop")
# SOLO_PAIRS values: every model alone (cdist), the default, no model alone
# (every squared distance gathered)
SOLO = [1, gp.SOLO_PAIRS, 1 << 60]


def assert_same_bits(got, want):
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    # equal also in the sign of zeros
    assert got.tobytes() == want.tobytes()


def assert_same_model(got, want):
    for name in MODEL_FIELDS:
        assert_same_bits(getattr(got, name), getattr(want, name))
    assert got.jitter == want.jitter
    assert (got.chol_prop is got.chol) == (want.chol_prop is want.chol)
    np.testing.assert_array_equal(got.train_points, want.train_points)


def params_for(prop_noise: str) -> KernelParams:
    """noise2 = 0 with duplicated points needs jitter; "shared" gives the
    property regressor the occupancy factor, "own" a factor of its own."""
    noise2 = 0.0 if prop_noise == "zero" else 1e-4
    return KernelParams(length_scale=0.15, noise2=noise2,
                        prop_noise2=1e-2 if prop_noise == "own" else noise2)


def point_sets(rng, sizes, n_dup, channels, some_without_props=False):
    sets, props = [], []
    for j in sizes:
        pts = rng.uniform(-0.3, 0.3, size=(j, 3))
        if n_dup:
            pts = np.concatenate([pts, pts[rng.integers(0, j, size=n_dup)]])
        sets.append(pts)
        if channels and not (some_without_props and rng.random() < 0.3):
            props.append(rng.random((len(pts), channels)))
        else:
            props.append(None)
    return sets, props


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=14),
       st.integers(0, 2), st.integers(0, 3),
       st.sampled_from(["zero", "shared", "own"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_train_many_matches_per_model_train(sizes, n_dup, channels,
                                            prop_noise, mixed_props, seed):
    """Mixed sizes (so groups of one and of many), duplicated points that
    need jitter, shared and own property factors, and sets without
    properties among sets with them."""
    rng = np.random.default_rng(seed)
    params = params_for(prop_noise)
    sets, props = point_sets(rng, sizes, n_dup, channels, mixed_props)
    models = gp.train_many(sets, params, props)
    assert len(models) == len(sets)
    for pts, p, model in zip(sets, props, models):
        assert_same_model(model, gp_oracle.train(pts, params, p))
    one = gp.train(sets[0], params, props[0])
    assert_same_model(one, gp_oracle.train(sets[0], params, props[0]))


def test_train_many_jitter_case_counts_escalations():
    """A group where one member needs jitter and its neighbour does not:
    the stacked factorization fails, every member falls back to the jitter
    loop, and both keep the oracle's bits and escalation counts."""
    params = KernelParams(length_scale=0.15, noise2=0.0, prop_noise2=0.0)
    dup = np.array([[0.1, 0.0, 0.0], [0.1, 0.0, 0.0]])
    apart = np.array([[0.1, 0.0, 0.0], [-0.2, 0.1, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gp_oracle.kernel_matrix(dup, dup, params))
    props = [np.ones((2, 1)), np.zeros((2, 1))]
    models = gp.train_many([dup, apart], params, props)
    for pts, p, model in zip([dup, apart], props, models):
        assert_same_model(model, gp_oracle.train(pts, params, p))
    assert models[0].jitter > 0 and models[1].jitter == 0
    assert models[0].chol_prop is models[0].chol

    own = KernelParams(length_scale=0.15, noise2=0.0, prop_noise2=0.0 + 1e-9)
    model = gp.train_many([dup], own, [np.ones((2, 1))])[0]
    want = gp_oracle.train(dup, own, np.ones((2, 1)))
    assert_same_model(model, want)
    assert model.chol_prop is not model.chol


def test_train_many_shared_property_factor_is_the_occupancy_factor():
    rng = np.random.default_rng(4)
    params = params_for("shared")
    sets, props = point_sets(rng, [3, 3, 5], 0, 2)
    for model in gp.train_many(sets, params, props):
        assert model.chol_prop is model.chol


def test_train_many_rejects_non_finite_properties_like_the_oracle():
    params = KernelParams()
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    good = np.array([[0.5], [0.25]])
    bad = np.array([[0.5], [np.nan]])
    with pytest.raises(ValueError) as want:
        gp_oracle.train(pts, params, bad)
    with pytest.raises(ValueError) as got:
        gp.train_many([pts, pts + 1.0], params, [good, bad])
    assert str(got.value) == str(want.value)


def test_train_many_empty_batch_and_empty_set():
    assert gp.train_many([], KernelParams()) == []
    with pytest.raises(ValueError, match="empty point set"):
        gp.train_many([np.zeros((2, 3)), np.zeros((0, 3))], KernelParams())


@pytest.mark.parametrize("solo", SOLO)
def test_train_many_crosses_chunk_boundaries(monkeypatch, solo):
    """Groups larger than a chunk, and a model whose own matrix passes the
    cap, train in several chunks and row blocks with the same bits, with
    their squared distances gathered or from cdist."""
    rng = np.random.default_rng(5)
    params = params_for("own")
    sets, props = point_sets(rng, [4] * 9 + [6] * 5 + [20, 40], 0, 2)
    monkeypatch.setattr(gp, "CHUNK_ELEMENTS", 3 * 4 * 4 * 2 + 5)
    monkeypatch.setattr(gp, "SOLO_PAIRS", solo)
    for pts, p, model in zip(sets, props, gp.train_many(sets, params, props)):
        assert_same_model(model, gp_oracle.train(pts, params, p))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(20, 80), min_size=1, max_size=4),
       st.sampled_from(SOLO), st.integers(0, 2 ** 32 - 1))
def test_train_many_large_sets_match_per_model_train(sizes, solo, seed):
    """Sets past the pairwise-summation block of the centroid mean and past
    SOLO_PAIRS, in both squared-distance forms."""
    rng = np.random.default_rng(seed)
    params = params_for("own")
    sets, props = point_sets(rng, sizes + sizes[:1], 0, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp, "SOLO_PAIRS", solo)
        models = gp.train_many(sets, params, props)
    for pts, p, model in zip(sets, props, models):
        assert_same_model(model, gp_oracle.train(pts, params, p))


# -- grouped moments -----------------------------------------------------------


def routed(rng, n_models, n_rows, k):
    """(m, k) distinct model indices per row, as gp.route gives them."""
    return np.stack([rng.permutation(n_models)[:k] for _ in range(n_rows)]
                    ).reshape(n_rows, k)


def assert_same_moments(got, want):
    """Equal bits for every (row, slot), each read through its own at (the
    grouped path may order the rows of mo its own way)."""
    (mo, at), (wmo, wat) = got, want
    assert at.shape == wat.shape
    assert sorted(at.ravel().tolist()) == list(range(at.size))
    for g, w in zip(mo, wmo):
        assert (g is None) == (w is None)
        if w is not None:
            assert len(g) == len(w)
            assert_same_bits(g[at], w[wat])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 5, 9, 17, 40]), min_size=1,
                max_size=10),
       st.integers(0, 2), st.sampled_from([0, 2]),
       st.sampled_from(["zero", "shared", "own"]),
       st.sampled_from([1, 7, 80, 400]), st.integers(1, 3), st.booleans(),
       st.booleans(), st.sampled_from(SOLO), st.integers(0, 2 ** 32 - 1))
def test_routed_moments_match_per_model_loop(sizes, n_dup, channels,
                                             prop_noise, n_rows, k, gradient,
                                             small_chunks, solo, seed):
    rng = np.random.default_rng(seed)
    params = params_for(prop_noise)
    sets, props = point_sets(rng, sizes, n_dup, channels)
    models = gp.train_many(sets, params, props)
    pts = rng.uniform(-0.5, 0.5, size=(n_rows, 3))
    sel = routed(rng, len(models), n_rows, min(k, len(models)))
    properties = channels > 0
    want = gp_oracle.routed_moments(models, pts, sel, gradient, properties)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp, "SOLO_PAIRS", solo)
        if small_chunks:
            # a few rows per chunk: runs of models split between chunks,
            # and models whose rows alone pass the cap
            mp.setattr(gp, "CHUNK_ELEMENTS", 3 * 9 * 4)
        got = gp.routed_moments(models, pts, sel, gradient, properties)
    assert_same_moments(got, want)


def test_routed_moments_cross_the_default_chunk_boundary():
    """More gathered rows of one training-set size than one chunk holds
    (40 models of 3 points, each below SOLO_PAIRS), beside models that run
    alone."""
    rng = np.random.default_rng(6)
    params = params_for("own")
    sets, props = point_sets(rng, [3] * 40 + [10] * 3, 0, 2)
    models = gp.train_many(sets, params, props)
    rows = 5000
    pts = rng.uniform(-0.5, 0.5, size=(rows, 3))
    sel = routed(rng, len(models), rows, 2)
    small = np.bincount(sel.ravel(), minlength=len(models))[:40]
    assert small.sum() > gp.CHUNK_ELEMENTS // (3 * 3)
    assert (small * 3 < gp.SOLO_PAIRS).all()
    got = gp.routed_moments(models, pts, sel, True, True)
    assert_same_moments(got, gp_oracle.routed_moments(models, pts, sel,
                                                      True, True))


@pytest.mark.parametrize("channels", [0, 3])
def test_routed_moments_empty_batch(channels):
    rng = np.random.default_rng(7)
    sets, props = point_sets(rng, [3, 5], 0, channels)
    models = gp.train_many(sets, params_for("own"), props)
    pts = np.zeros((0, 3))
    sel = np.zeros((0, 2), dtype=np.int64)
    got = gp.routed_moments(models, pts, sel, True, channels > 0)
    assert_same_moments(got, gp_oracle.routed_moments(
        models, pts, sel, True, channels > 0))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.sampled_from([0, 1, 6]), st.booleans(),
       st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_moments_is_a_one_model_call(j, n_rows, variance, gradient,
                                     properties, seed):
    rng = np.random.default_rng(seed)
    params = params_for("own")
    sets, props = point_sets(rng, [j], 0, 2)
    model = gp.train(sets[0], params, props[0])
    q = rng.uniform(-0.5, 0.5, size=(n_rows, 3))
    got = gp.moments(model, q, variance, gradient, properties)
    want = gp_oracle.moments(model, q, variance, gradient, properties)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


def test_moments_errors_match_the_oracle():
    rng = np.random.default_rng(8)
    plain = gp.train(rng.uniform(size=(3, 3)), KernelParams())
    with pytest.raises(ValueError, match="no property regressor"):
        gp.moments(plain, np.zeros((2, 3)), properties=True)
    with pytest.raises(ValueError, match="no property regressor"):
        gp.routed_moments([plain], np.zeros((0, 3)),
                          np.zeros((0, 1), dtype=np.int64), properties=True)
    bad = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError) as want:
        gp_oracle.moments(plain, bad)
    with pytest.raises(ValueError) as got:
        gp.moments(plain, bad)
    assert str(got.value) == str(want.value)


def test_moments_check_nan_rows_once_per_call():
    """An infinite or huge query row has kernel value 0 and passes the
    solves as in the oracle; a NaN row fails only where the solves run;
    a model cannot be trained on non-finite points."""
    rng = np.random.default_rng(9)
    params = KernelParams()
    models = gp.train_many([rng.uniform(size=(3, 3)) for _ in range(3)],
                           params, [rng.uniform(size=(3, 2))] * 3)
    far = np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 1e300]])
    for model in models:
        got = gp.moments(model, far, gradient=True, properties=True)
        want = gp_oracle.moments(model, far, gradient=True, properties=True)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
    nan = np.array([[0.1, 0.2, 0.3]] * 5 + [[0.0, np.nan, 0.0]])
    sel = np.arange(18).reshape(6, 3) % 3
    with pytest.raises(ValueError, match="infs or NaNs"):
        gp.routed_moments(models, nan, sel)
    with pytest.raises(ValueError, match="infs or NaNs"):
        gp.moments(models[0], nan, variance=False, properties=True)
    assert np.isnan(gp.moments(models[0], nan, variance=False).occupancy[-1])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="training points must be finite"):
            gp.train_many([np.zeros((2, 3)), [[0.0, 0.0, 0.0], [bad, 0, 0]]],
                          params)


@pytest.mark.parametrize("gradient", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_routed_moments_far_finite_rows_match_the_oracle(gradient, k):
    """A finite row far enough that its squared distances overflow gets
    kernel value 0 from gathered models as from a one-model cdist call,
    bit for bit and without an overflow warning."""
    rng = np.random.default_rng(10)
    params = KernelParams()
    models = gp.train_many([rng.uniform(size=(3, 3)) for _ in range(3)],
                           params, [rng.uniform(size=(3, 2))] * 3)
    pts = np.array([[1e200, 0.0, 0.0], [0.1, 0.2, 0.3],
                    [0.0, -1e200, 1e200], [-1e300, 1e-300, 0.5]])
    sel = np.stack([np.roll(np.arange(3), r)[:k] for r in range(len(pts))])
    got = gp.routed_moments(models, pts, sel, gradient, True)
    assert_same_moments(got, gp_oracle.routed_moments(models, pts, sel,
                                                      gradient, True))
    assert got[0].occupancy[got[1][0, 0]] == 0.0
