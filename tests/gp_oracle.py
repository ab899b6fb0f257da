"""The per-model GP training and inference bodies the grouped path replaced.

``gp.train_many`` and ``gp.routed_moments`` must equal these bit for bit:
one cdist kernel matrix, one Cholesky with the jitter loop and two
triangular solves per trained model, and one kernel matrix and one set of
solves per model at inference.
"""

import numpy as np
from scipy.spatial.distance import cdist

from gpfield import gp
from gpfield.grid import group_by


def kernel_matrix(a, b, params):
    d2 = cdist(a, b, "sqeuclidean")
    return params.sigma2 * np.exp(-0.5 * d2 / params.length_scale ** 2)


def cholesky_with_jitter(k, noise2, sigma2):
    """(factor, jitter escalations) of k + noise2 I."""
    n = k.shape[0]
    eye = np.eye(n)
    jitter = 0.0
    steps = 0
    while True:
        try:
            return np.linalg.cholesky(k + (noise2 + jitter) * eye), steps
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = 1e-8 * sigma2
            else:
                jitter *= 10.0
            steps += 1
            if jitter > 1e-2 * sigma2:
                raise gp.FactorizationFailure(
                    f"kernel matrix of size {n} not positive definite "
                    f"after jitter escalation to {jitter:.3g}") from None


def train(points, params, properties=None):
    x = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(x) == 0:
        raise ValueError("cannot train on an empty point set")
    k = kernel_matrix(x, x, params)
    chol, steps = cholesky_with_jitter(k, params.noise2, params.sigma2)
    alpha = gp._cho_solve(chol, np.ones(len(x)))
    model = gp.GpLeafModel(train_points=x, params=params, chol=chol,
                           alpha_occ=alpha, centroid=x.mean(axis=0),
                           jitter=steps)
    if properties is not None:
        p = np.asarray(properties, dtype=np.float64).reshape(len(x), -1)
        if params.prop_noise2 == params.noise2:
            cp = chol
        else:
            cp, s = cholesky_with_jitter(k, params.prop_noise2, params.sigma2)
            model.jitter += s
        model.chol_prop = cp
        model.alpha_prop = gp._cho_solve(cp, p)
    return model


def moments(model, q, variance=True, gradient=False, properties=False):
    if properties and model.alpha_prop is None:
        raise ValueError("model has no property regressor")
    params = model.params
    kq = kernel_matrix(q, model.train_points, params)
    o = kq @ model.alpha_occ
    u = g = c = w = None
    if variance:
        v = gp._solve_lower(model.chol, kq.T)
        u = params.sigma2 - np.einsum("ij,ij->j", v, v)
    if gradient:
        wk = kq * model.alpha_occ[None, :]
        diff = model.train_points[None, :, :] - q[:, None, :]
        g = np.einsum("ij,ijk->ik", wk, diff) / params.length_scale ** 2
    if properties:
        c = kq @ model.alpha_prop
        v = gp._solve_lower(model.chol_prop, kq.T)
        w = params.sigma2 - np.einsum("ij,ij->j", v, v)
    return gp.Moments(o, u, g, c, w)


def routed_moments(models, pts, sel, gradient=False, properties=False):
    """One moments call per routed model over its rows, concatenated."""
    m, k = sel.shape
    groups = group_by(sel.ravel())
    xs = pts[groups.order // k]
    bounds = groups.starts.tolist()
    parts = [moments(models[i], xs[a:b], gradient=gradient,
                     properties=properties)
             for i, a, b in zip(groups.keys.tolist(), bounds[:-1], bounds[1:])]
    if not parts:
        parts = [moments(models[0], xs, gradient=gradient,
                         properties=properties)]
    mo = gp.Moments(*(None if f[0] is None else np.concatenate(f)
                      for f in zip(*parts)))
    at = np.empty(m * k, dtype=np.int64)
    at[groups.order] = np.arange(m * k)
    return mo, at.reshape(m, k)
