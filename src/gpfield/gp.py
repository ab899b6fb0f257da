"""Gaussian process regression for occupancy, distance and surface properties.

A squared-exponential GP is fit to a cluster of surface points with a
constant latent occupancy target of 1. The posterior occupancy decays
with distance from the training set, so inverting the kernel profile
recovers the Euclidean distance to the cluster. Inference also yields
a propagated distance variance, an analytic distance gradient, and
regressed surface properties with their own latent variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .grid import group_by

RATIO_EPS = 1e-12
# occupancy ratio above this counts as on-surface for variance purposes
SINGULAR_RATIO = 1.0 - 1e-9


class FactorizationFailure(RuntimeError):
    """Kernel matrix remained indefinite after jitter escalation."""


@dataclass
class KernelParams:
    """Squared-exponential kernel and reverting-function parameters.

    d_max caps reverted distances (default three length scales) and
    v_max bounds the propagated distance variance. When v_max is left
    unset it defaults to the variance a single-point model yields two
    length scales from its training point, which is where inferred
    distances stop being trustworthy.
    """

    sigma2: float = 1.0
    length_scale: float = 0.15
    noise2: float = 1e-4
    prop_noise2: float = 1e-2
    d_max: Optional[float] = None
    v_max: Optional[float] = None
    v_floor: float = 0.0
    grad_eps: float = 1e-8

    def __post_init__(self):
        if self.sigma2 <= 0 or self.length_scale <= 0:
            raise ValueError("sigma2 and length_scale must be positive")
        if self.noise2 < 0 or self.prop_noise2 < 0:
            raise ValueError("noise variances must be non-negative")
        if self.d_max is None:
            self.d_max = 3.0 * self.length_scale
        if self.v_max is None:
            self.v_max = reference_distance_variance(self)


def reference_distance_variance(params: KernelParams) -> float:
    """Propagated variance of a one-point model queried at 2 length scales."""
    e4 = np.exp(4.0)
    v = (params.length_scale ** 2 * params.noise2 ** 2
         * e4 * (1.0 - 1.0 / e4) / (4.0 * params.sigma2))
    return max(float(v), np.finfo(np.float64).tiny)


def _kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    d2 = cdist(a, b, "sqeuclidean")
    return params.sigma2 * np.exp(-0.5 * d2 / params.length_scale ** 2)


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """solve_triangular(chol, b, lower=True) at a fraction of its call
    overhead.

    Makes the LAPACK trtrs call solve_triangular makes for float64
    operands (a C-ordered factor is passed transposed, as an upper
    factor solved with trans=1), so the result has the same bits, and
    raises ValueError for a non-finite right-hand side as it does.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if chol.flags.f_contiguous:
        x, info = dtrtrs(chol, b, lower=1)
    else:
        x, info = dtrtrs(chol.T, b, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    return x


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 b as two triangular solves, with the bits of
    solve_triangular(chol.T, solve_triangular(chol, b, lower=True),
    lower=False) for a C-ordered factor, whose transpose is F-ordered and
    goes to trtrs as an upper factor without a copy."""
    x, info = dtrtrs(chol.T, _solve_lower(chol, b), lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    return x


def _cholesky_with_jitter(k: np.ndarray, noise2: float, sigma2: float) -> np.ndarray:
    n = k.shape[0]
    eye = np.eye(n)
    jitter = 0.0
    while True:
        try:
            return np.linalg.cholesky(k + (noise2 + jitter) * eye)
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = 1e-8 * sigma2
            else:
                jitter *= 10.0
            if jitter > 1e-2 * sigma2:
                raise FactorizationFailure(
                    f"kernel matrix of size {n} not positive definite "
                    f"after jitter escalation to {jitter:.3g}") from None


@dataclass
class GpLeafModel:
    """Trained GP over one cluster of surface points."""

    train_points: np.ndarray        # (J, 3)
    params: KernelParams
    chol: np.ndarray                # lower Cholesky of K + noise2*I
    alpha_occ: np.ndarray           # (J,) weights for the unit occupancy target
    centroid: np.ndarray            # (3,) mean of training points
    chol_prop: Optional[np.ndarray] = None
    alpha_prop: Optional[np.ndarray] = None   # (J, P)

    @property
    def n_train(self) -> int:
        return len(self.train_points)


def train(points: np.ndarray, params: KernelParams,
          properties: Optional[np.ndarray] = None) -> GpLeafModel:
    """Fit occupancy (and optional property) regressors to a point cluster.

    Args:
        points: (J, 3) training positions, J >= 1.
        params: kernel hyperparameters.
        properties: optional (J, P) per-point property targets.

    Raises:
        FactorizationFailure: if the Gram matrix cannot be factorized
            even after escalating diagonal jitter.
    """
    x = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(x) == 0:
        raise ValueError("cannot train on an empty point set")
    k = _kernel_matrix(x, x, params)
    chol = _cholesky_with_jitter(k, params.noise2, params.sigma2)
    alpha = _cho_solve(chol, np.ones(len(x)))
    model = GpLeafModel(train_points=x, params=params, chol=chol,
                        alpha_occ=alpha, centroid=x.mean(axis=0))
    if properties is not None:
        p = np.asarray(properties, dtype=np.float64).reshape(len(x), -1)
        if params.prop_noise2 == params.noise2:
            cp = chol
        else:
            cp = _cholesky_with_jitter(k, params.prop_noise2, params.sigma2)
        model.chol_prop = cp
        model.alpha_prop = _cho_solve(cp, p)
    return model


def _as_queries(x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 1
    return x.reshape(-1, 3), scalar


class Moments(NamedTuple):
    """Raw posterior moments at n query points, before any clipping.

    Fields that were not asked for are None.
    """

    occupancy: np.ndarray                  # (n,) latent occupancy mean
    occ_variance: Optional[np.ndarray]     # (n,) latent occupancy variance
    gradient: Optional[np.ndarray]         # (n, 3) gradient of the mean
    properties: Optional[np.ndarray]       # (n, P) property mean
    prop_variance: Optional[np.ndarray]    # (n,) property latent variance


def moments(model: GpLeafModel, q: np.ndarray, variance: bool = True,
            gradient: bool = False, properties: bool = False) -> Moments:
    """Posterior moments at (n, 3) queries from one kernel matrix.

    This is the only inference path: everything here needs the model's
    training set. What follows it (latent-variance clip, reverting,
    variance propagation, gradient normalization, property clip) is
    elementwise, so callers may apply it per model or once over the
    stacked outputs of many models and get the same bits.
    """
    if properties and model.alpha_prop is None:
        raise ValueError("model has no property regressor")
    params = model.params
    kq = _kernel_matrix(q, model.train_points, params)
    o = kq @ model.alpha_occ
    u = g = c = w = None
    if variance:
        v = _solve_lower(model.chol, kq.T)
        u = params.sigma2 - np.einsum("ij,ij->j", v, v)
    if gradient:
        wk = kq * model.alpha_occ[None, :]
        diff = model.train_points[None, :, :] - q[:, None, :]
        g = np.einsum("ij,ijk->ik", wk, diff) / params.length_scale ** 2
    if properties:
        c = kq @ model.alpha_prop
        v = _solve_lower(model.chol_prop, kq.T)
        w = params.sigma2 - np.einsum("ij,ij->j", v, v)
    return Moments(o, u, g, c, w)


def check_rows(pts: np.ndarray, inside: Optional[np.ndarray] = None,
               why: str = "") -> None:
    """Raise one ValueError naming the first query row that is not finite
    or, where an inside mask is given, is False in it (for reason why)."""
    finite = np.isfinite(pts).all(axis=1)
    ok = finite if inside is None else finite & inside
    if not ok.all():
        i = int(np.argmin(ok))
        _reject_row(pts, i, why if finite[i] else "is not finite")


def _reject_row(pts: np.ndarray, i: int, why: str):
    row = ", ".join(f"{x:.9g}" for x in pts[i])
    raise ValueError(f"query row {i} ({row}) {why}")


def route(tree: cKDTree, pts: np.ndarray, k: int) -> np.ndarray:
    """(m, min(k, tree.n)) indices of each row's nearest centroids, nearest
    first.

    Exact distance ties go to the lower index: of k + 1 neighbours, the
    rows holding a tie are sorted by (distance, index); the tree returns
    the others in that order. Raises ValueError naming the first row too
    far from every centroid to route (its squared distances overflow).
    """
    n, m = tree.n, len(pts)
    kq = min(k + 1, n)
    dist, idx = tree.query(pts, k=kq)
    dist = dist.reshape(m, kq)
    idx = idx.reshape(m, kq)
    far = idx[:, -1] == n
    if far.any():
        _reject_row(pts, int(np.argmax(far)),
                    "is too far from every model to route")
    tied = (dist[:, 1:] == dist[:, :-1]).any(axis=1)
    if tied.any():
        order = np.lexsort((idx[tied], dist[tied]), axis=-1)
        idx[tied] = np.take_along_axis(idx[tied], order, axis=1)
    return idx[:, :k]


def routed_moments(models, pts: np.ndarray, sel: np.ndarray,
                   gradient: bool = False, properties: bool = False):
    """One moments call per model routed in sel (see route) over its rows,
    ascending; models[i] is the model of index i, and models[0] shapes the
    outputs of an empty batch. Returns (mo, at): the stacked Moments in
    ascending model order and the (m, k) position in mo of each (row,
    slot) of sel. A row's k models are distinct, so sorting the flat (row,
    slot) indices of sel by model gives every model one run of its rows."""
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
    mo = Moments(*(None if f[0] is None else np.concatenate(f)
                   for f in zip(*parts)))
    at = np.empty(m * k, dtype=np.int64)
    at[groups.order] = np.arange(m * k)
    return mo, at.reshape(m, k)


def clip_variance(u, params: KernelParams):
    """Clamp a latent variance into [0, sigma2]."""
    return np.clip(u, 0.0, params.sigma2)


def clip_properties(c, clip_range):
    """Clamp property means per channel; clip_range is (low, high) or None."""
    if clip_range is None:
        return c
    return np.clip(c, clip_range[0], clip_range[1])


def unit_distance_gradient(g, params: KernelParams):
    """Unit distance gradients from occupancy gradients along the last axis.

    The chain rule through the reverting function scales the occupancy
    gradient by a strictly negative factor, so the unit direction is
    the negated, normalized occupancy gradient. Where the raw gradient
    magnitude falls below params.grad_eps the result is a zero vector.
    """
    norm = np.linalg.norm(g, axis=-1)
    out = np.zeros_like(g)
    ok = norm > params.grad_eps
    out[ok] = -g[ok] / norm[ok, None]
    return out


def infer_occupancy(model: GpLeafModel, x: np.ndarray):
    """Posterior latent occupancy mean and variance at query points.

    Returns (o_hat, u_hat); scalars for a single (3,) query.
    """
    q, scalar = _as_queries(x)
    mo = moments(model, q)
    u = clip_variance(mo.occ_variance, model.params)
    if scalar:
        return float(mo.occupancy[0]), float(u[0])
    return mo.occupancy, u


def revert_distance(o_hat, params: KernelParams):
    """Invert the kernel occupancy profile into a Euclidean distance.

    The ratio o_hat/sigma2 is clamped into [RATIO_EPS, 1] before the
    logarithm and the result is capped at params.d_max, so degenerate
    occupancies map to the far-field distance instead of inf/nan.
    """
    o = np.asarray(o_hat, dtype=np.float64)
    ratio = np.clip(o / params.sigma2, RATIO_EPS, 1.0)
    d = params.length_scale * np.sqrt(-2.0 * np.log(ratio))
    d = np.minimum(d, params.d_max)
    return float(d) if np.ndim(o_hat) == 0 else d


def propagate_variance(u_hat, o_hat, params: KernelParams):
    """First-order propagation of latent variance through the reverting map.

    The scale factor is the reverting function's sensitivity to the
    occupancy, weighted by the observation noise. On-surface queries
    (occupancy ratio -> 1) sit on the map's singularity and report
    params.v_floor; results are clamped to [0, params.v_max].
    """
    u = np.asarray(u_hat, dtype=np.float64)
    o = np.asarray(o_hat, dtype=np.float64)
    ratio = np.clip(o / params.sigma2, RATIO_EPS, 1.0)
    singular = ratio >= SINGULAR_RATIO
    safe = np.where(singular, 0.5, ratio)
    lam = (params.length_scale * params.noise2
           / (safe * params.sigma2 * np.sqrt(-2.0 * np.log(safe))))
    v = lam * lam * np.maximum(u, 0.0)
    v = np.where(singular, params.v_floor, v)
    v = np.clip(v, 0.0, params.v_max)
    return float(v) if np.ndim(u_hat) == 0 and np.ndim(o_hat) == 0 else v


def occupancy_gradient(model: GpLeafModel, x: np.ndarray):
    """Analytic gradient of the posterior occupancy mean."""
    q, scalar = _as_queries(x)
    g = moments(model, q, variance=False, gradient=True).gradient
    return g[0] if scalar else g


def infer_distance_gradient(model: GpLeafModel, x: np.ndarray):
    """Unit gradient of the inferred distance at query points (see
    unit_distance_gradient)."""
    q, scalar = _as_queries(x)
    g = unit_distance_gradient(occupancy_gradient(model, q), model.params)
    return g[0] if scalar else g


def infer_property(model: GpLeafModel, x: np.ndarray, clip_range=None):
    """Posterior property mean and shared latent variance at query points.

    Args:
        clip_range: optional (low, high) bounds applied per channel.

    Returns:
        (c_hat, w_hat) with c_hat of shape (n, P); scalars collapse for
        a single (3,) query. Raises ValueError if the model was trained
        without properties.
    """
    q, scalar = _as_queries(x)
    mo = moments(model, q, variance=False, properties=True)
    c = clip_properties(mo.properties, clip_range)
    w = clip_variance(mo.prop_variance, model.params)
    if scalar:
        return c[0], float(w[0])
    return c, w
