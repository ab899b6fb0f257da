"""Gaussian process regression for occupancy, distance and surface properties.

A squared-exponential GP is fit to a cluster of surface points with a
constant latent occupancy target of 1. The posterior occupancy decays
with distance from the training set, so inverting the kernel profile
recovers the Euclidean distance to the cluster. Inference also yields
a propagated distance variance, an analytic distance gradient, and
regressed surface properties with their own latent variance.

Training and inference each have one path, run over many models at
once: train_many and routed_moments group the models by training-set
size and batch every step whose batched form keeps the bits of a
one-model call, in chunks of bounded size (CHUNK_ELEMENTS). train and
moments are one-model calls of the same code.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import groupby
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


# Elements in the largest temporary of one chunk of the grouped path: the
# (rows, J, 3) differences between each row's point and the J training
# points of its model. A chunk holds whole models, because splitting one
# model's rows changes the bits of its BLAS and LAPACK calls. A model whose
# rows alone pass the cap forms a chunk of its own, whose differences are
# still taken in row blocks under the cap; only its (rows, J) kernel matrix
# and solve, which those calls need whole, grow past it.
CHUNK_ELEMENTS = 1 << 16

# Without a gradient, a model with at least this many (row, training point)
# pairs forms a chunk of its own, whose squared distances come from one
# cdist call. Gathered over many models, a pair costs about twice what it
# costs in cdist (about 3 ns more, measured on a 2-core Xeon), while a
# cdist call costs about 4 us, so the two break even near a thousand
# pairs. A gradient needs the (rows, J, 3) differences anyway, and cdist
# would only repeat their work, so with one no model runs alone for its
# size.
SOLO_PAIRS = 1 << 10


def _kernel_rows(points: list, counts: list, q: np.ndarray,
                 params: KernelParams, alpha: Optional[np.ndarray] = None):
    """(R, J) kernel between each query row q[r] and the (J, 3) training
    points of its model, where the rows of q run through points[i] for
    counts[i] rows each, and, given (models, J) occupancy weights alpha,
    the (R, 3) gradient of the occupancy mean at each row (else None).
    Rows go in blocks whose (rows, J, 3) differences stay within
    CHUNK_ELEMENTS.

    Without a gradient, one model's rows take their squared distances
    from one cdist sqeuclidean call. Otherwise the rows gather their
    model's training points, as (rows, J, 3) differences training point
    minus query, and the squared distances are dx*dx + dy*dy + dz*dz,
    added in that order: the bits of cdist's sqeuclidean. The gradient
    contraction reads the same C-ordered differences. A finite row far
    enough to overflow the squares gets an infinite squared distance and
    a kernel value of 0, as from cdist.
    """
    n, j = len(q), len(points[0])
    solo = points[0] if len(points) == 1 and alpha is None else None
    if solo is None:
        train = np.asarray(points)
        owner = np.repeat(np.arange(len(points)), counts)
    kq = np.empty((n, j))
    g = None if alpha is None else np.empty((n, 3))
    step = max(1, CHUNK_ELEMENTS // (3 * j))
    for a in range(0, n, step):
        b = a + step
        if solo is not None:
            d2 = cdist(q[a:b], solo, "sqeuclidean")
        else:
            # differences training point minus query, taken axis by axis:
            # numpy then loops over the J training points of a row, where
            # one broadcast over (rows, J, 3) loops over the 3 coordinates
            diff = train[owner[a:b]]
            for c in range(3):
                diff[..., c] -= q[a:b, c, None]
            dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
            with np.errstate(over="ignore"):
                d2 = dx * dx
                d2 += dy * dy
                d2 += dz * dz
        d2 *= -0.5
        d2 /= params.length_scale ** 2
        k = kq[a:b]
        np.exp(d2, out=k)
        k *= params.sigma2
        if g is not None:
            g[a:b] = np.einsum("ij,ijk->ik", k * alpha[owner[a:b]], diff)
    if g is not None:
        g /= params.length_scale ** 2
    return kq, g


def _chunks(rows: list, j: int, gradient: bool = False):
    """Runs [a, b) of consecutive members, each holding whole members with
    at most CHUNK_ELEMENTS // (3 j) rows in all, or a single member;
    without a gradient, a member with SOLO_PAIRS (row, training point)
    pairs or more runs alone."""
    cap = CHUNK_ELEMENTS // (3 * j)
    a = total = 0
    for i, r in enumerate(rows):
        solo = not gradient and r * j >= SOLO_PAIRS
        if i > a and (solo or total + r > cap):
            yield a, i
            a, total = i, 0
        total += r
        if solo:
            yield a, i + 1
            a, total = i + 1, 0
    if a < len(rows):
        yield a, len(rows)


def _trtrs(chol: np.ndarray, b: np.ndarray, overwrite: bool = False):
    """chol^-1 b by the one LAPACK trtrs call solve_triangular(chol, b,
    lower=True) makes for a C-ordered float64 factor (passed transposed,
    as an upper factor solved with trans=1), so the result has its bits.
    The (J, n) result keeps each column contiguous; with overwrite, it is
    written into b."""
    x, info = dtrtrs(chol.T, b, lower=0, trans=1, overwrite_b=overwrite)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    if overwrite and x is not b:
        b[...] = x          # trtrs solved a copy: b was not F-ordered
    return x


@cache
def _blas_thread_setter():
    """OpenBLAS's openblas_set_num_threads_local, looked up through the
    LAPACK module dtrtrs comes from, so that it lands in scipy's OpenBLAS
    and not in numpy's; None for another BLAS or an OpenBLAS without it
    (before 0.3.27). It sets the BLAS thread count of the calling thread
    only and returns the previous count."""
    try:
        from scipy.linalg import _flapack
        setter = ctypes.CDLL(_flapack.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


@contextmanager
def one_blas_thread():
    """Hold scipy's OpenBLAS, the library of the dtrtrs solves, to one
    thread on the calling thread, and restore the previous count on the
    way out. A query batch's solves are small: at two threads OpenBLAS
    keeps its second thread spinning on the other core for a while after
    each one, where it slows whatever else runs there. The count changes
    no bits of a solve. Does nothing where the setter is missing."""
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(chol chol^T)^-1 b as two triangular solves, with the bits of
    solve_triangular(chol.T, solve_triangular(chol, b, lower=True),
    lower=False) for a C-ordered factor, whose transpose is F-ordered and
    goes to trtrs as an upper factor without a copy; first the ValueError
    solve_triangular raises for a non-finite right-hand side."""
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = dtrtrs(chol.T, _trtrs(chol, b), lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    return x


def _cholesky_with_jitter(k: np.ndarray, noise2: float, sigma2: float):
    """(factor, escalations): the lower Cholesky factor of k + noise2 I,
    with diagonal jitter raised from 1e-8 sigma2 by tens while it fails,
    and the number of raises it took."""
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
                raise FactorizationFailure(
                    f"kernel matrix of size {n} not positive definite "
                    f"after jitter escalation to {jitter:.3g}") from None


def _cholesky_many(k: np.ndarray, noise2: float, sigma2: float):
    """(factors, escalations) for each matrix of a (G, J, J) stack, as
    _cholesky_with_jitter gives them: one stacked call, which runs the same
    LAPACK routine per matrix, and the jitter loop member by member when
    any member fails."""
    try:
        chol = np.linalg.cholesky(k + noise2 * np.eye(k.shape[-1]))
    except np.linalg.LinAlgError:
        factors = [_cholesky_with_jitter(m, noise2, sigma2) for m in k]
        return [f for f, _ in factors], [s for _, s in factors]
    # copies, so that a model does not keep a stack of several alive
    return ([f.copy() for f in chol] if len(chol) > 1 else list(chol),
            [0] * len(k))


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
    jitter: int = 0                 # Cholesky jitter escalations of its factors

    @property
    def n_train(self) -> int:
        return len(self.train_points)


def train_many(point_sets, params: KernelParams,
               prop_sets=None) -> list[GpLeafModel]:
    """Fit one model per point set, as train does for each.

    Models are grouped by training-set size J, and each group runs in
    chunks of whole models (see _chunks): one kernel stack and one stacked
    Cholesky per chunk (see _kernel_rows and _cholesky_many), then each
    model's own triangular solves. prop_sets, when given, holds each set's
    (J, P) property targets or None.

    Raises:
        ValueError: for an empty point set, or non-finite points or
            properties.
        FactorizationFailure: if a Gram matrix cannot be factorized even
            after escalating diagonal jitter.
    """
    xs = [np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in point_sets]
    props = [None] * len(xs) if prop_sets is None else list(prop_sets)
    by_size: dict = {}
    for i, x in enumerate(xs):
        if len(x) == 0:
            raise ValueError("cannot train on an empty point set")
        by_size.setdefault(len(x), []).append(i)
    models: list = [None] * len(xs)
    for j, members in by_size.items():
        for a, b in _chunks([j] * len(members), j):
            chunk = members[a:b]
            x = np.array([xs[i] for i in chunk])
            if not np.isfinite(x).all():
                raise ValueError("training points must be finite")
            k = _kernel_rows(x, [j] * len(chunk), x.reshape(-1, 3), params)[0]
            k = k.reshape(-1, j, j)
            chol, steps = _cholesky_many(k, params.noise2, params.sigma2)
            centroid = x.mean(axis=1)
            with_props = [g for g, i in enumerate(chunk) if props[i] is not None]
            prop_chol = list(chol)
            if with_props and params.prop_noise2 != params.noise2:
                pc, ps = _cholesky_many(k[with_props], params.prop_noise2,
                                        params.sigma2)
                for g, f, s in zip(with_props, pc, ps):
                    prop_chol[g] = f
                    steps[g] += s
            for g, i in enumerate(chunk):
                model = GpLeafModel(
                    train_points=xs[i], params=params, chol=chol[g],
                    alpha_occ=_cho_solve(chol[g], np.ones(j)),
                    centroid=centroid[g], jitter=steps[g])
                if props[i] is not None:
                    p = np.asarray(props[i], dtype=np.float64).reshape(j, -1)
                    model.chol_prop = prop_chol[g]
                    model.alpha_prop = _cho_solve(prop_chol[g], p)
                models[i] = model
    return models


def train(points: np.ndarray, params: KernelParams,
          properties: Optional[np.ndarray] = None) -> GpLeafModel:
    """Fit occupancy (and optional property) regressors to (J, 3) points,
    J >= 1, with optional (J, P) property targets: a one-model train_many
    call, raising as it does."""
    return train_many([points], params, [properties])[0]


class Moments(NamedTuple):
    """Raw posterior moments at n query points, before any clipping.

    Fields that were not asked for are None.
    """

    occupancy: np.ndarray                  # (n,) latent occupancy mean
    occ_variance: Optional[np.ndarray]     # (n,) latent occupancy variance
    gradient: Optional[np.ndarray]         # (n, 3) gradient of the mean
    properties: Optional[np.ndarray]       # (n, P) property mean
    prop_variance: Optional[np.ndarray]    # (n,) property latent variance


def _grouped_moments(models, xs: np.ndarray, starts, variance: bool,
                     gradient: bool, properties: bool) -> Moments:
    """Moments of models[i] at its rows xs[starts[i]:starts[i + 1]], in row
    order, every field equal bit for bit to a one-model call per model.

    Adjacent models of one training-set size J and one parameter set form
    a group (callers put them side by side), and each group runs in chunks
    of whole models (see _chunks). Per chunk, the kernel matrix, its exp,
    the gradient contraction and the variance reductions run once (see
    _kernel_rows). Per model run the calls whose batched forms change
    bits: kq @ alpha_occ and kq @ alpha_prop (gemv and gemm) and the
    dtrtrs solves. The variance reductions read a buffer that keeps each
    row's solve output contiguous, as dtrtrs returns it; a C-ordered one
    changes the bits.
    """
    if properties and any(m.alpha_prop is None for m in models):
        raise ValueError("model has no property regressor")
    n = len(xs)
    o = np.empty(n)
    u = np.empty(n) if variance else None
    g = np.empty((n, 3)) if gradient else None
    c = np.empty((n, models[0].alpha_prop.shape[1])) if properties else None
    w = np.empty(n) if properties else None
    # the solves' ValueError for a non-finite right-hand side, checked
    # once: with finite training points a kernel value is NaN exactly
    # where its query row holds a NaN (an infinite one gives 0)
    if (variance or properties) and np.isnan(xs).any():
        raise ValueError("array must not contain infs or NaNs")
    bounds = np.asarray(starts, dtype=np.int64).tolist()
    runs = groupby(range(len(models)),
                   lambda i: (models[i].n_train, id(models[i].params)))
    for (j, _), run in runs:
        run = list(run)
        params = models[run[0]].params
        rows = [bounds[i + 1] - bounds[i] for i in run]
        for a, b in _chunks(rows, j, gradient):
            chunk = [models[i] for i in run[a:b]]
            r0, r1 = bounds[run[a]], bounds[run[b - 1] + 1]
            kq, gq = _kernel_rows(
                [m.train_points for m in chunk], rows[a:b], xs[r0:r1], params,
                np.array([m.alpha_occ for m in chunk]) if gradient else None)
            pv = np.empty(kq.shape) if properties else None
            # the solves run in place, the last one on the kernel rows
            # themselves once the mean products have read them
            for m, i in zip(chunk, run[a:b]):
                s, e = bounds[i], bounds[i + 1]
                k = kq[s - r0:e - r0]
                np.matmul(k, m.alpha_occ, out=o[s:e])
                if properties:
                    np.matmul(k, m.alpha_prop, out=c[s:e])
                    pv[s - r0:e - r0] = k
                    _trtrs(m.chol_prop, pv[s - r0:e - r0].T, overwrite=True)
                if variance:
                    _trtrs(m.chol, k.T, overwrite=True)
            if variance:
                u[r0:r1] = params.sigma2 - np.einsum("ij,ij->j", kq.T, kq.T)
            if gradient:
                g[r0:r1] = gq
            if properties:
                w[r0:r1] = params.sigma2 - np.einsum("ij,ij->j", pv.T, pv.T)
    return Moments(o, u, g, c, w)


def moments(model: GpLeafModel, q: np.ndarray, variance: bool = True,
            gradient: bool = False, properties: bool = False) -> Moments:
    """Posterior moments at query rows, read as (n, 3), from one kernel
    matrix: a one-model call of the grouped path routed_moments runs.

    Everything here needs the model's training set. What follows it
    (latent-variance clip, reverting, variance propagation, gradient
    normalization, property clip) is elementwise, so callers may apply it
    per model or once over the stacked outputs of many models and get the
    same bits.
    """
    q = np.asarray(q, dtype=np.float64).reshape(-1, 3)
    return _grouped_moments([model], q, [0, len(q)], variance, gradient,
                            properties)


def as_rows(points) -> np.ndarray:
    """Query points as a float64 array of at least two dimensions (see
    check_rows); a size-0 input of at most one dimension, such as [], is
    a (0, 3) batch."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0 and pts.ndim < 2:
        return pts.reshape(0, 3)
    return np.atleast_2d(pts)


def check_rows(pts: np.ndarray, inside: Optional[np.ndarray] = None,
               why: str = "") -> None:
    """Raise one ValueError for query points that are not an (m, 3) array,
    or naming the first row that is not finite or, where an inside mask
    is given, is False in it (for reason why)."""
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("query points must be an (m, 3) array, got shape "
                         f"{pts.shape}")
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
    """Moments of every model routed in sel (see route) over its rows, in
    one grouped call (see _grouped_moments); models[i] is the model of
    index i, and models[0] shapes the outputs of an empty batch. Returns
    (mo, at): the Moments of every (row, slot) of sel and the (m, k)
    position in mo of each. The flat (row, slot) indices of sel are sorted
    by the training-set size of their model, then by model, so models of
    one size sit side by side and every model has one run of rows (a
    row's k models are distinct)."""
    m, k = sel.shape
    flat = sel.ravel()
    routed = np.flatnonzero(np.bincount(flat))
    size = np.zeros(len(routed) and routed[-1] + 1, dtype=np.int64)
    size[routed] = [models[i].n_train for i in routed.tolist()]
    groups = group_by(size[flat] * len(size) + flat)
    keys, starts = (groups.keys % max(len(size), 1)).tolist(), groups.starts
    if not keys:
        keys, starts = [0], [0, 0]
    mo = _grouped_moments([models[i] for i in keys], pts[groups.order // k],
                          starts, True, gradient, properties)
    at = np.empty(m * k, dtype=np.int64)
    at[groups.order] = np.arange(m * k)
    return mo, at.reshape(m, k)


def nearest_slot(mo: Moments, at: np.ndarray, params: KernelParams,
                 prop_clip):
    """(distances, variance, properties, prop_variances) from routed
    moments (see routed_moments): the (m, k) reverted distance of every
    slot of at, and of each row's nearest slot, the first of equal ones,
    the propagated clipped variance and the properties clipped to
    prop_clip with their clipped variance, both None without
    properties."""
    dq = revert_distance(mo.occupancy[at], params)
    win = at[np.arange(len(at)), np.argmin(dq, axis=1)]
    v = propagate_variance(clip_variance(mo.occ_variance[win], params),
                           mo.occupancy[win], params)
    if mo.properties is None:
        return dq, v, None, None
    return (dq, v, clip_properties(mo.properties[win], prop_clip),
            clip_variance(mo.prop_variance[win], params))


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
    norm = np.linalg.norm(g, axis=-1)[..., None]
    return np.divide(np.negative(g), norm, out=np.zeros_like(g),
                     where=norm > params.grad_eps)


def infer_occupancy(model: GpLeafModel, x: np.ndarray):
    """Posterior latent occupancy mean and variance (o_hat, u_hat), each
    (n,), at query rows (see moments)."""
    mo = moments(model, x)
    return mo.occupancy, clip_variance(mo.occ_variance, model.params)


def revert_distance(o_hat, params: KernelParams):
    """Invert the kernel occupancy profile into a Euclidean distance.

    The ratio o_hat/sigma2 is clamped into [RATIO_EPS, 1] before the
    logarithm and the result is capped at params.d_max, so degenerate
    occupancies map to the far-field distance instead of inf/nan.
    """
    o = np.asarray(o_hat, dtype=np.float64)
    ratio = np.clip(o / params.sigma2, RATIO_EPS, 1.0)
    d = params.length_scale * np.sqrt(-2.0 * np.log(ratio))
    return np.minimum(d, params.d_max)


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
    return np.clip(v, 0.0, params.v_max)


def infer_distance_gradient(model: GpLeafModel, x: np.ndarray):
    """(n, 3) unit gradients of the inferred distance at query rows (see
    unit_distance_gradient)."""
    mo = moments(model, x, variance=False, gradient=True)
    return unit_distance_gradient(mo.gradient, model.params)


def infer_property(model: GpLeafModel, x: np.ndarray, clip_range=None):
    """Posterior property mean (n, P) and shared latent variance (n,) at
    query rows, the means clipped per channel to clip_range, an optional
    (low, high). Raises ValueError if the model was trained without
    properties."""
    mo = moments(model, x, variance=False, properties=True)
    return (clip_properties(mo.properties, clip_range),
            clip_variance(mo.prop_variance, model.params))
