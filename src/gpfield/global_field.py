"""Global continuous distance field over per-leaf surface GPs.

Every leaf with mesh zero crossings owns a GP node. Nodes train
lazily, on first query after their training set changed. A query
routes to the nearest node centroids, blends their inferred distances
with a sharp smooth minimum, averages their unit gradients, and
attaches a sign from the fused grid when an observed voxel lies within
the search radius. Far from all observations the field keeps
extrapolating, which is what distinguishes it from a lookup into the
carved grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from . import gp
from .grid import SparseGrid, grid_to_world, group_by


class EmptyField(RuntimeError):
    """Query against a field with no trained surface regions."""


@dataclass
class GPNode:
    origin: tuple[int, int, int]
    points: np.ndarray
    props: Optional[np.ndarray]
    centroid: np.ndarray
    model: Optional[gp.GpLeafModel] = None
    train_count: int = 0


@dataclass
class FieldQueryResult:
    """One query's outputs.

    distance is signed when a fused voxel determined the side and
    positive with free_space=True otherwise. properties and
    property_variance are None for property-less maps.
    """

    distance: float
    variance: float
    gradient: np.ndarray
    properties: Optional[np.ndarray]
    property_variance: Optional[float]
    free_space: bool


class BatchQueryResult:
    """Struct-of-arrays result for vectorized queries."""

    def __init__(self, distances, variances, gradients, properties,
                 prop_variances, free_space):
        self.distances = distances
        self.variances = variances
        self.gradients = gradients
        self.properties = properties
        self.prop_variances = prop_variances
        self.free_space = free_space

    def __len__(self):
        return len(self.distances)

    def __getitem__(self, i: int) -> FieldQueryResult:
        return FieldQueryResult(
            distance=float(self.distances[i]),
            variance=float(self.variances[i]),
            gradient=self.gradients[i],
            properties=None if self.properties is None else self.properties[i],
            property_variance=(None if self.prop_variances is None
                               else float(self.prop_variances[i])),
            free_space=bool(self.free_space[i]))


class GlobalField:
    """Container of per-leaf GP nodes plus blending at query time."""

    def __init__(self, params: gp.KernelParams, grid: Optional[SparseGrid] = None,
                 smooth_lambda: float = 100.0, query_nodes: int = 3,
                 sign_radius: int = 5, prop_clip=None):
        self.params = params
        self.grid = grid
        self.smooth_lambda = float(smooth_lambda)
        self.query_nodes = int(query_nodes)
        self.sign_radius = int(sign_radius)
        self.prop_clip = prop_clip
        self.nodes: dict[tuple[int, int, int], GPNode] = {}
        self._tree = None
        self._tree_nodes: list[GPNode] = []
        self._tree_stale = True
        self._sign_cache = None     # (grid.version, tree, signs)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def update(self, replacements: dict) -> None:
        """Replace per-leaf crossing lists.

        Maps leaf origin to (points, props) or to None/empty to remove
        the node. Training is deferred to the next query that needs the
        node.
        """
        for origin, payload in replacements.items():
            origin = tuple(int(v) for v in origin)
            pts = None if payload is None else np.asarray(payload[0], dtype=np.float64)
            if pts is None or len(pts) == 0:
                if origin in self.nodes:
                    del self.nodes[origin]
                continue
            props = payload[1]
            if props is not None:
                props = np.asarray(props, dtype=np.float64)
                if props.size == 0:
                    props = None
            node = self.nodes.get(origin)
            if node is None:
                node = GPNode(origin=origin, points=pts, props=props,
                              centroid=pts.mean(axis=0))
                self.nodes[origin] = node
            else:
                node.points = pts
                node.props = props
                node.centroid = pts.mean(axis=0)
                node.model = None
        self._tree_stale = True

    def _ensure_tree(self):
        if self._tree_stale:
            self._tree_nodes = [self.nodes[k] for k in sorted(self.nodes)]
            pts = np.array([n.centroid for n in self._tree_nodes]).reshape(-1, 3)
            self._tree = cKDTree(pts) if len(pts) else None
            self._tree_stale = False

    def _ensure_trained(self, node: GPNode):
        if node.model is None:
            node.model = gp.train(node.points, self.params, node.props)
            node.train_count += 1

    def train_pending(self) -> int:
        """Train every node still lacking a model; returns the count."""
        n = 0
        for key in sorted(self.nodes):
            node = self.nodes[key]
            if node.model is None:
                self._ensure_trained(node)
                n += 1
        return n

    def _signs(self, points: np.ndarray):
        """(sign, known) from the nearest observed fused voxel."""
        n = len(points)
        if self.grid is None:
            return np.ones(n), np.zeros(n, dtype=bool)
        cache_ok = (self._sign_cache is not None
                    and self._sign_cache[0] == self.grid.version)
        if not cache_ok:
            coords, dists = self.grid.observed_voxels()
            if len(coords) == 0:
                self._sign_cache = (self.grid.version, None, None)
            else:
                centers = grid_to_world(coords, self.grid.voxel_size)
                tree = cKDTree(centers)
                self._sign_cache = (self.grid.version, tree,
                                    np.where(dists < 0, -1.0, 1.0))
        _, tree, signs = self._sign_cache
        if tree is None:
            return np.ones(n), np.zeros(n, dtype=bool)
        radius = self.sign_radius * self.grid.voxel_size
        dist, idx = tree.query(points, k=1, distance_upper_bound=radius)
        known = np.isfinite(dist)
        sign = np.ones(n)
        sign[known] = signs[idx[known]]
        return sign, known

    def query(self, point, q: Optional[int] = None) -> FieldQueryResult:
        return self.query_batch(np.asarray(point, dtype=np.float64).reshape(1, 3),
                                q)[0]

    def query_batch(self, points: np.ndarray, q: Optional[int] = None) -> BatchQueryResult:
        """Blend the q nearest nodes at each query point.

        Per-node distances combine through a smooth minimum with weights
        exp(-lambda * distance); unit gradients average unweighted and
        renormalize. Variance and properties come from the node with the
        smallest inferred distance.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        m = len(pts)
        if not self.nodes:
            raise EmptyField("global field has no nodes")
        self._ensure_tree()
        q = self.query_nodes if q is None else int(q)
        n_nodes = len(self._tree_nodes)
        k = min(q, n_nodes)
        kq = min(q + 1, n_nodes)
        dist, idx = self._tree.query(pts, k=kq)
        dist = dist.reshape(m, kq)
        idx = idx.reshape(m, kq)
        # deterministic tie-break: equal centroid distances prefer the
        # node earlier in lexicographic origin order
        order = np.lexsort((idx, dist), axis=-1)
        rows = np.arange(m)[:, None]
        sel = idx[rows, order][:, :k]

        # each row's k nodes are distinct, so a node's flat indices in sel
        # give its rows, ascending, and the slot within each row
        groups = group_by(sel.ravel())
        nodes = [self._tree_nodes[u] for u in groups.keys.tolist()]
        for node in nodes:
            self._ensure_trained(node)

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
            o, uhat = gp.infer_occupancy(node.model, xs)
            o = np.atleast_1d(o)
            uhat = np.atleast_1d(uhat)
            dq[prows, slots] = gp.revert_distance(o, self.params)
            vq[prows, slots] = gp.propagate_variance(uhat, o, self.params)
            gq[prows, slots] = gp.infer_distance_gradient(node.model, xs)
            if has_props:
                c, w = gp.infer_property(node.model, xs, self.prop_clip)
                cq[prows, slots] = np.atleast_2d(c)
                wq[prows, slots] = w

        lam = self.smooth_lambda
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
        okg = gnorm > self.params.grad_eps
        grad[okg] = gmean[okg] / gnorm[okg, None]

        sign, known = self._signs(pts)
        distance = blended * np.where(known, sign, 1.0)
        grad = grad * np.where(known, sign, 1.0)[:, None]

        props = cq[rows[:, 0], win] if has_props else None
        pvar = wq[rows[:, 0], win] if has_props else None
        return BatchQueryResult(distances=distance, variances=variance,
                                gradients=grad, properties=props,
                                prop_variances=pvar,
                                free_space=~known)
