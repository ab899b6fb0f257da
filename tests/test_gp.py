"""GP regression checked against closed forms and a dense solve oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from gpfield.gp import (
    GpLeafModel,
    KernelParams,
    _kernel_rows,
    infer_distance_gradient,
    infer_occupancy,
    infer_property,
    moments,
    propagate_variance,
    reference_distance_variance,
    revert_distance,
    train,
)

from gp_oracle import cholesky_with_jitter, kernel_matrix


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def dense_oracle(points, queries, params, targets):
    """Textbook GP posterior via a direct dense solve."""
    def gram(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return params.sigma2 * np.exp(-0.5 * d2 / params.length_scale ** 2)

    k_xx = gram(points, points) + params.noise2 * np.eye(len(points))
    k_qx = gram(queries, points)
    mean = k_qx @ np.linalg.solve(k_xx, targets)
    cov = params.sigma2 - np.einsum(
        "ij,ij->i", k_qx, np.linalg.solve(k_xx, k_qx.T).T)
    return mean, cov


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(sigma2=0.0)
    with pytest.raises(ValueError):
        KernelParams(length_scale=-0.1)
    with pytest.raises(ValueError):
        KernelParams(noise2=-1e-9)


def test_kernel_params_defaults():
    p = KernelParams(sigma2=1.0, length_scale=0.2, noise2=1e-4)
    assert p.d_max == pytest.approx(0.6)
    assert p.v_max == pytest.approx(reference_distance_variance(p))


def kernel(a, b, p):
    """The library kernel between the rows of a and b, in the gathered form
    it takes for a chunk of several models (one model calls cdist)."""
    return _kernel_rows([b, b], [len(a), 0], a, p)[0]


def test_se_kernel_analytic_values():
    p = KernelParams(sigma2=2.5, length_scale=0.15)
    x = np.array([[0.3, -0.1, 0.7]])
    assert kernel(x, x, p)[0, 0] == pytest.approx(2.5)
    y = x + np.array([0.15, 0.0, 0.0])
    assert kernel(x, y, p)[0, 0] == pytest.approx(2.5 * np.exp(-0.5))
    assert kernel(x, y, p)[0, 0] == pytest.approx(kernel(y, x, p)[0, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_kernel_of_differences_matches_cdist_bit_for_bit(n, j, seed):
    rng = np.random.default_rng(seed)
    p = KernelParams(sigma2=1.3, length_scale=0.18)
    a = rng.uniform(-0.5, 0.5, size=(n, 3))
    b = rng.uniform(-0.5, 0.5, size=(j, 3))
    assert_same_bits(kernel(a, b, p), kernel_matrix(a, b, p))


def test_kernel_matrix_symmetric_and_psd_with_jitter():
    rng = np.random.default_rng(11)
    p = KernelParams(sigma2=1.0, length_scale=0.2, noise2=1e-4)
    pts = rng.uniform(-0.5, 0.5, size=(20, 3))
    k = kernel(pts, pts, p)
    np.testing.assert_allclose(k, k.T, atol=1e-12)
    assert np.all(k <= p.sigma2 + 1e-12)
    eig = np.linalg.eigvalsh(k + p.noise2 * np.eye(20))
    assert eig.min() > 0.0


def test_train_single_point_zero_noise_alpha():
    p = KernelParams(sigma2=4.0, length_scale=0.15, noise2=0.0)
    model = train(np.array([[1.0, 2.0, 3.0]]), p)
    assert model.alpha_occ[0] == pytest.approx(1.0 / 4.0)
    assert model.n_train == 1
    np.testing.assert_allclose(model.centroid, [1.0, 2.0, 3.0])


def test_train_symmetric_pair_has_equal_alphas():
    p = KernelParams(length_scale=0.15, noise2=1e-4)
    model = train(np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]]), p)
    assert model.alpha_occ[0] == pytest.approx(model.alpha_occ[1], rel=1e-12)


def test_train_residual_and_factorization():
    rng = np.random.default_rng(12)
    p = KernelParams(length_scale=0.2, noise2=1e-4)
    pts = rng.uniform(-0.6, 0.6, size=(50, 3))
    model = train(pts, p)
    k = kernel_matrix(pts, pts, p) + p.noise2 * np.eye(50)
    residual = k @ model.alpha_occ - np.ones(50)
    assert np.abs(residual).max() < 1e-6
    assert np.abs(model.chol @ model.chol.T - k).max() < 1e-6 * p.sigma2


def test_train_rejects_empty_input():
    with pytest.raises(ValueError):
        train(np.zeros((0, 3)), KernelParams())


def test_train_duplicate_points_survives_via_jitter():
    p = KernelParams(length_scale=0.15, noise2=0.0)
    pts = np.array([[0.2, 0.2, 0.2], [0.2, 0.2, 0.2]])
    model = train(pts, p)
    o, _ = infer_occupancy(model, np.array([0.2, 0.2, 0.2]))
    assert revert_distance(o, p) < 1e-3


def reference_train(points, params, properties=None):
    """gp.train as it was, with scipy's solve_triangular for the solves."""
    x = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    k = kernel_matrix(x, x, params)
    chol, _ = cholesky_with_jitter(k, params.noise2, params.sigma2)
    alpha = solve_triangular(
        chol.T, solve_triangular(chol, np.ones(len(x)), lower=True),
        lower=False)
    cp = ap = None
    if properties is not None:
        p = np.asarray(properties, dtype=np.float64).reshape(len(x), -1)
        if params.prop_noise2 == params.noise2:
            cp = chol
        else:
            cp, _ = cholesky_with_jitter(k, params.prop_noise2, params.sigma2)
        ap = solve_triangular(cp.T, solve_triangular(cp, p, lower=True),
                              lower=False)
    return chol, alpha, cp, ap


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(["zero", "shared", "own"]),
       st.integers(0, 2 ** 32 - 1))
def test_train_matches_solve_triangular_bit_for_bit(j, n_dup, channels,
                                                    prop_noise, seed):
    """Factors and weights equal the solve_triangular path's bits, for
    one-point models, duplicated points that need jitter (noise2 = 0),
    a property factor shared with the occupancy one and one of its own."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.3, 0.3, size=(j, 3))
    if n_dup:
        pts = np.concatenate([pts, pts[rng.integers(0, j, size=n_dup)]])
    noise2 = 0.0 if prop_noise == "zero" else 1e-4
    params = KernelParams(length_scale=0.15, noise2=noise2,
                          prop_noise2=1e-2 if prop_noise == "own" else noise2)
    props = rng.random((len(pts), channels)) if channels else None
    model = train(pts, params, props)
    chol, alpha, cp, ap = reference_train(pts, params, props)
    assert_same_bits(model.chol, chol)
    assert_same_bits(model.alpha_occ, alpha)
    if props is None:
        assert model.chol_prop is None and model.alpha_prop is None
        return
    assert_same_bits(model.chol_prop, cp)
    assert_same_bits(model.alpha_prop, ap)
    assert (model.chol_prop is model.chol) == (prop_noise != "own")


def test_train_oracle_cases_reach_jitter_escalation():
    """Duplicated points with zero noise fail the plain factorization, so
    the bit-for-bit test above runs the jitter path."""
    params = KernelParams(length_scale=0.15, noise2=0.0, prop_noise2=0.0)
    pts = np.array([[0.1, 0.0, 0.0], [0.1, 0.0, 0.0]])
    k = kernel_matrix(pts, pts, params)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(k)
    model = train(pts, params, np.ones((2, 1)))
    chol, alpha, cp, ap = reference_train(pts, params, np.ones((2, 1)))
    assert_same_bits(model.chol, chol)
    assert_same_bits(model.alpha_occ, alpha)
    assert_same_bits(model.alpha_prop, ap)


def test_train_rejects_non_finite_properties_like_solve_triangular():
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    props = np.array([[0.5], [np.nan]])
    with pytest.raises(ValueError):
        reference_train(pts, KernelParams(), props)
    with pytest.raises(ValueError):
        train(pts, KernelParams(), props)


def test_infer_occupancy_at_lone_training_point():
    p = KernelParams(sigma2=1.0, length_scale=0.15, noise2=0.0)
    x = np.array([[0.3, -0.2, 0.5]])
    model = train(x, p)
    o, u = infer_occupancy(model, x[0])
    assert o == pytest.approx(1.0, abs=1e-12)
    assert u == pytest.approx(0.0, abs=1e-10)


def test_infer_occupancy_far_field_limits():
    p = KernelParams(sigma2=1.0, length_scale=0.15, noise2=1e-4)
    model = train(np.array([[0.0, 0.0, 0.0]]), p)
    o, u = infer_occupancy(model, np.array([50.0, 0.0, 0.0]))
    assert o == pytest.approx(0.0, abs=1e-15)
    assert u == pytest.approx(p.sigma2, abs=1e-12)


def test_infer_occupancy_matches_dense_solve_oracle():
    rng = np.random.default_rng(13)
    p = KernelParams(sigma2=1.3, length_scale=0.18, noise2=3e-4)
    pts = rng.uniform(-0.4, 0.4, size=(40, 3))
    model = train(pts, p)
    queries = rng.uniform(-0.6, 0.6, size=(10, 3))
    mean, var = infer_occupancy(model, queries)
    want_mean, want_var = dense_oracle(pts, queries, p, np.ones(40))
    np.testing.assert_allclose(mean, want_mean, atol=1e-8)
    np.testing.assert_allclose(var, np.clip(want_var, 0.0, p.sigma2), atol=1e-8)


def test_variance_stays_within_prior_bounds():
    rng = np.random.default_rng(15)
    p = KernelParams(sigma2=0.9, length_scale=0.15, noise2=1e-4)
    model = train(rng.uniform(-0.3, 0.3, size=(30, 3)), p)
    _, u = infer_occupancy(model, rng.uniform(-1.0, 1.0, size=(200, 3)))
    assert np.all(u >= 0.0)
    assert np.all(u <= p.sigma2 + 1e-12)


def test_revert_distance_analytic_points():
    p = KernelParams(sigma2=1.7, length_scale=0.12)
    assert revert_distance(1.7, p) == pytest.approx(0.0, abs=1e-12)
    assert revert_distance(1.7 * np.exp(-0.5), p) == pytest.approx(0.12, rel=1e-12)


def test_revert_distance_monotone_and_capped():
    p = KernelParams(sigma2=1.0, length_scale=0.15)
    o = np.linspace(1.0, 1e-15, 500)
    d = revert_distance(o, p)
    assert np.all(np.diff(d) >= -1e-15)
    assert d[-1] == pytest.approx(p.d_max)
    assert revert_distance(0.0, p) == pytest.approx(p.d_max)
    assert revert_distance(-0.3, p) == pytest.approx(p.d_max)


def test_golden_identity_single_point_zero_noise():
    """Exact distance recovery through the kernel inversion."""
    p = KernelParams(sigma2=1.0, length_scale=0.15, noise2=0.0)
    center = np.array([0.4, -0.7, 1.1])
    model = train(center[None, :], p)
    rng = np.random.default_rng(16)
    for r in np.linspace(1e-3, 2.9 * p.length_scale, 40):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        q = center + r * direction
        o, _ = infer_occupancy(model, q)
        assert abs(revert_distance(o, p) - r) < 1e-9


def test_propagate_variance_trivial_cases():
    p = KernelParams(sigma2=1.0, length_scale=0.15, noise2=1e-4, v_max=1e6)
    assert propagate_variance(0.0, 0.5, p) == pytest.approx(0.0)
    v1 = propagate_variance(0.2, 0.5, p)
    v2 = propagate_variance(0.4, 0.5, p)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_propagate_variance_matches_hand_formula():
    p = KernelParams(sigma2=2.0, length_scale=0.3, noise2=5e-4, v_max=1e6)
    o, u = 0.7, 0.15
    ratio = o / p.sigma2
    lam = p.length_scale * p.noise2 / (ratio * p.sigma2
                                       * np.sqrt(-2.0 * np.log(ratio)))
    assert propagate_variance(u, o, p) == pytest.approx(lam * lam * u, rel=1e-12)


def test_propagate_variance_singularity_and_cap():
    p = KernelParams(sigma2=1.0, length_scale=0.15, noise2=1e-4,
                     v_max=1e-8, v_floor=0.0)
    assert propagate_variance(0.3, 1.0, p) == pytest.approx(p.v_floor)
    assert propagate_variance(1.0, 1e-9, p) == pytest.approx(p.v_max)
    out = propagate_variance(np.array([0.0, 0.3]), np.array([0.5, 1.0]), p)
    assert out.shape == (2,)


def test_reference_variance_matches_numeric_propagation():
    p = KernelParams(sigma2=1.0, length_scale=0.15, noise2=1e-4, v_max=1e9)
    model = train(np.zeros((1, 3)), p)
    q = np.array([2.0 * p.length_scale, 0.0, 0.0])
    o, u = infer_occupancy(model, q)
    got = propagate_variance(u, o, p)
    want = reference_distance_variance(KernelParams(
        sigma2=1.0, length_scale=0.15, noise2=1e-4))
    assert got == pytest.approx(want, rel=1e-3)


def test_propagated_variance_grows_with_query_distance():
    p = KernelParams(sigma2=1.0, length_scale=0.15, noise2=1e-4, v_max=1e9)
    model = train(np.zeros((1, 3)), p)
    radii = np.linspace(0.2 * p.length_scale, 2.0 * p.length_scale, 30)
    values = []
    for r in radii:
        o, u = infer_occupancy(model, np.array([r, 0.0, 0.0]))
        values.append(propagate_variance(u, o, p)[0])
    assert np.all(np.diff(values) > 0.0)


def test_gradient_radial_for_single_point_model():
    p = KernelParams(length_scale=0.15, noise2=1e-4)
    model = train(np.zeros((1, 3)), p)
    g = infer_distance_gradient(model, np.array([0.5 * p.length_scale, 0.0, 0.0]))[0]
    np.testing.assert_allclose(g, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.linalg.norm(g) == pytest.approx(1.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    p = KernelParams(sigma2=1.0, length_scale=0.2, noise2=1e-4)
    pts = rng.uniform(-0.4, 0.4, size=(40, 3))
    model = train(pts, p)
    h = 1e-4
    checked = 0
    for _ in range(100):
        base = pts[rng.integers(len(pts))]
        # bias outward from the cloud so the distance field is not flat
        direction = base - model.centroid + 0.3 * rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        q = base + direction * rng.uniform(0.3, 1.5) * p.length_scale
        fd = np.zeros(3)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            d_hi = revert_distance(infer_occupancy(model, q + step)[0], p)[0]
            d_lo = revert_distance(infer_occupancy(model, q - step)[0], p)[0]
            fd[axis] = (d_hi - d_lo) / (2 * h)
        if np.linalg.norm(fd) < 1e-3:
            continue  # capped or flat region, direction undefined
        g = infer_distance_gradient(model, q)[0]
        cos = fd @ g / np.linalg.norm(fd)
        assert cos > 0.999
        checked += 1
    assert checked >= 85


def test_unit_gradient_matches_normalised_finite_differences():
    rng = np.random.default_rng(18)
    p = KernelParams(sigma2=1.0, length_scale=0.2, noise2=1e-4)
    pts = rng.uniform(-0.3, 0.3, size=(25, 3))
    model = train(pts, p)
    h = 1e-4
    checked = 0
    for _ in range(30):
        q = rng.uniform(-0.2, 0.2, size=3) + np.array([0.0, 0.0, 0.45])
        fd = np.zeros(3)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = h
            d_hi = revert_distance(infer_occupancy(model, q + step)[0], p)[0]
            d_lo = revert_distance(infer_occupancy(model, q - step)[0], p)[0]
            fd[axis] = (d_hi - d_lo) / (2 * h)
        if np.linalg.norm(fd) < 1e-3:
            continue
        np.testing.assert_allclose(infer_distance_gradient(model, q)[0],
                                   fd / np.linalg.norm(fd), rtol=1e-3,
                                   atol=1e-6)
        checked += 1
    assert checked >= 20


def test_gradient_perpendicular_to_training_plane():
    p = KernelParams(length_scale=0.15, noise2=1e-4)
    span = np.arange(-3, 4) * 0.4 * p.length_scale
    gx, gy = np.meshgrid(span, span)
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    model = train(pts, p)
    for z in (0.3 * p.length_scale, 0.8 * p.length_scale):
        g = infer_distance_gradient(model, np.array([0.0, 0.0, z]))
        angle = np.arccos(np.clip(g @ np.array([0.0, 0.0, 1.0]), -1.0, 1.0))
        assert angle < 1e-3


def test_occupancy_gradient_zero_at_symmetry_point():
    p = KernelParams(length_scale=0.15, noise2=1e-4)
    pts = np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
    model = train(pts, p)
    g = moments(model, np.zeros((1, 3)), variance=False,
                gradient=True).gradient[0]
    np.testing.assert_allclose(g, 0.0, atol=1e-12)
    unit = infer_distance_gradient(model, np.array([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(unit, 0.0)


def test_property_exact_at_training_point_zero_noise():
    p = KernelParams(length_scale=0.15, noise2=1e-4, prop_noise2=0.0)
    pts = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.2, 0.0]])
    props = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    model = train(pts, p, properties=props)
    c, w = infer_property(model, pts[1])
    np.testing.assert_allclose(c[0], props[1], atol=1e-8)
    assert w[0] == pytest.approx(0.0, abs=1e-8)


def test_property_constant_target_recovered_inside_hull():
    rng = np.random.default_rng(19)
    p = KernelParams(length_scale=0.2, noise2=1e-4, prop_noise2=1e-4)
    span = np.arange(-3, 4) * 0.5 * p.length_scale
    gx, gy, gz = np.meshgrid(span, span, span)
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    props = np.full((len(pts), 1), 0.75)
    model = train(pts, p, properties=props)
    queries = rng.uniform(-0.1, 0.1, size=(20, 3))
    c, _ = infer_property(model, queries)
    np.testing.assert_allclose(c, 0.75, atol=1e-3)


def test_property_midpoint_symmetric_and_matches_closed_form():
    p = KernelParams(length_scale=0.2, noise2=1e-4)
    pts = np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
    props = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = train(pts, p, properties=props)
    c = infer_property(model, np.array([0.0, 0.0, 0.0]))[0][0]
    # equal channels by symmetry; value is the direct regression solution
    assert c[0] == pytest.approx(c[1], rel=1e-12)
    k = kernel_matrix(np.zeros((1, 3)), pts, p)[0]
    gram = kernel_matrix(pts, pts, p) + p.prop_noise2 * np.eye(2)
    want = k @ np.linalg.solve(gram, props)
    np.testing.assert_allclose(c, want, atol=1e-9)


def test_property_clip_range_applied():
    p = KernelParams(length_scale=0.15, noise2=1e-4, prop_noise2=0.0)
    pts = np.array([[0.0, 0.0, 0.0], [0.15, 0.0, 0.0]])
    props = np.array([[1.0], [0.0]])
    model = train(pts, p, properties=props)
    c, _ = infer_property(model, pts[0], clip_range=(0.2, 0.8))
    assert 0.2 <= float(c[0, 0]) <= 0.8


def test_property_requires_trained_channels():
    model = train(np.zeros((1, 3)), KernelParams())
    with pytest.raises(ValueError):
        infer_property(model, np.array([0.0, 0.0, 0.0]))


def test_distance_invariant_under_rigid_transform():
    rng = np.random.default_rng(20)
    p = KernelParams(length_scale=0.18, noise2=1e-4)
    pts = rng.uniform(-0.3, 0.3, size=(30, 3))
    q = np.array([0.5, 0.1, -0.2])
    model = train(pts, p)
    o, u = infer_occupancy(model, q)
    rot = random_rotation(rng)
    shift = np.array([3.0, -7.0, 11.0])
    moved = train(pts @ rot.T + shift, p)
    o2, u2 = infer_occupancy(moved, rot @ q + shift)
    assert abs(revert_distance(o, p) - revert_distance(o2, p))[0] < 1e-9
    assert u2 == pytest.approx(u, abs=1e-9)
    g = infer_distance_gradient(model, q)[0]
    g2 = infer_distance_gradient(moved, rot @ q + shift)[0]
    np.testing.assert_allclose(g2, rot @ g, atol=1e-7)
