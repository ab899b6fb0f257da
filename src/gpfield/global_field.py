"""Global continuous distance field over per-leaf surface GPs.

Every leaf with mesh zero crossings owns a GP node. Nodes train
lazily, on first query after their training set changed; an update
that hands a node crossings byte-equal to the ones it holds keeps its
model, and the centroid tree is rebuilt only after the node set or a
node's crossings changed. A query
routes to the nearest node centroids, blends their inferred distances
with a sharp smooth minimum, averages their unit gradients, and
attaches a sign from the fused grid when an observed voxel lies within
the search radius. Far from all observations the field keeps
extrapolating, which is what distinguishes it from a lookup into the
carved grid. The signs come from a ``SignIndex``, which follows the grid
by its stamp clock, appending the voxels of the leaves stamped since its
last look.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from . import gp
from .grid import (KEY_BIAS, LEAF_VOXELS, SparseGrid, flat_local_coords,
                   grid_to_world, in_key_range)


class EmptyField(RuntimeError):
    """Query against a field with no trained surface regions."""


@dataclass
class GPNode:
    points: np.ndarray
    props: Optional[np.ndarray]
    centroid: np.ndarray
    model: Optional[gp.GpLeafModel] = None
    train_count: int = 0


@dataclass
class QueryStats:
    """What one query batch did: nodes it routed to, nodes it trained and
    the Cholesky jitter escalations their factors needed, whether it built
    the sign index's main tree and how many observed voxels it added to
    the index; and what each stage cost. ``stage_ms`` takes no part in
    comparisons, so two batches that did the same work compare equal."""

    n_nodes_routed: int = 0
    n_nodes_trained: int = 0
    n_jitter_escalations: int = 0   # of the nodes this batch trained
    sign_rebuilt: int = 0           # 1 if this batch built the main sign tree
    n_observed_indexed: int = 0     # observed voxels this batch indexed
    # milliseconds of route, train, moments, signs and blend
    stage_ms: dict = field(default_factory=dict, compare=False)


@dataclass(eq=False)
class BatchQueryResult:
    """One row per query point. A distance, and its unit gradient, is
    signed where a fused voxel within the sign radius determined the side,
    and positive with free_space True otherwise. properties (m, P) and
    prop_variances are None unless every routed node has properties."""

    distances: np.ndarray
    variances: np.ndarray
    gradients: np.ndarray
    properties: Optional[np.ndarray]
    prop_variances: Optional[np.ndarray]
    free_space: np.ndarray
    stats: QueryStats

    def __len__(self):
        return len(self.distances)


# the main tree absorbs the tail once the tail holds more than a quarter
# of the main tree's voxels, so main-tree builds stay logarithmic in the
# number of voxels indexed
_TAIL_SHARE = 4
# cKDTree build options of the two trees. Voxel centres lie on a few
# shared coordinate planes, and over them scipy's default, which shrinks
# each node to its points' bounding box, made lookups about twice as
# slow on a growing corridor and a lidar room; neither tree shrinks its
# nodes. The main tree keeps the median split. The tail tree, rebuilt
# after every grid change, takes the sliding-midpoint split, which
# builds in about half the time.
_MAIN_TREE = dict(compact_nodes=False)
_TAIL_TREE = dict(compact_nodes=False, balanced_tree=False)


class SignIndex:
    """Nearest observed voxel within a radius, kept current by appends.

    Fusion never clears a voxel's observed flag, so the observed set only
    grows. Each indexed voxel owns a slot, which holds the voxel's row in
    the grid's pool (``SparseGrid.voxels``); a lookup reads the sign from
    that row's distance, so the index keeps no copy of it. A main cKDTree
    covers the slots indexed at its last build and a tail cKDTree the
    slots appended since; ``indexed`` marks, per leaf pool slot, the
    voxels that own an index slot.

    ``refresh`` does nothing while ``grid.clock`` stands still. After a
    change it appends the newly observed voxels of the leaves stamped
    since its last look and rebuilds the tail tree. The main tree absorbs
    the tail once the tail outgrows a quarter of it (Bentley and Saxe's
    logarithmic method with two levels). Every grid write path stamps the
    leaf it writes, and a writer that goes around them stamps its leaves
    with ``SparseGrid.activate``. The first refresh, and a stamped leaf
    that lost an indexed voxel (only ``SparseGrid.set`` can clear the
    flag), clear the index and run the same append over every allocated
    leaf.

    Neither tree shrinks its nodes to their points' bounding boxes; the
    main tree splits at the median and the tail tree at the sliding
    midpoint (see ``_MAIN_TREE``). The layout decides only which voxel a
    tied row finds: a row whose nearest indexed voxel within the radius
    is unique gets a bit-equal sign and known from any exact tree, a row
    with an exact distance tie takes the sign of one of the tied voxels,
    and a tail voxel wins only when strictly nearer.
    """

    def __init__(self, grid: SparseGrid):
        self.grid = grid
        self.clock = None           # grid.clock at the last look
        self._clear()

    def _clear(self) -> None:
        self.n = self.n_main = 0    # slots in all, slots in the main tree
        self.main = self.tail = None
        self.voxel_rows = np.zeros(0, dtype=np.int64)   # pool row by slot
        # (leaf slots, 512) bool, grown with the pool
        self.indexed = np.zeros((0, LEAF_VOXELS), dtype=bool)

    def refresh(self, stats: QueryStats) -> None:
        grid = self.grid
        if self.clock == grid.clock:
            return
        clock, self.clock = self.clock, grid.clock
        if clock is None or not self._append(grid.stamped_since(clock), stats):
            # start over: the same append, over every leaf in slot order
            self._clear()
            self._append(np.arange(1, grid.n_leaves + 1), stats)
            stats.sign_rebuilt = 1

    def _append(self, touched: np.ndarray, stats: QueryStats) -> bool:
        """Index the touched leaves' new voxels; False if one lost a voxel."""
        pool = self.grid.pool
        mask = pool["value_mask"][touched] & pool["observed"][touched]
        grow = len(pool["stamp"]) - len(self.indexed)
        if grow > 0:
            self.indexed = np.pad(self.indexed, ((0, grow), (0, 0)))
        indexed = self.indexed[touched]
        if (indexed & ~mask).any():
            return False
        li, flat = np.nonzero(mask & ~indexed)
        self.indexed[touched] = mask
        k = len(li)
        stats.n_observed_indexed = k
        if not k:
            return True
        self.voxel_rows = np.concatenate([self.voxel_rows,
                                          touched[li] * LEAF_VOXELS + flat])
        self.n += k
        # the trees hold the only copy of the slot centres, in slot order
        centers = grid_to_world(pool["origin"][touched[li]]
                                + flat_local_coords(flat),
                                self.grid.voxel_size)
        if self.tail is not None:
            centers = np.concatenate([self.tail.data, centers])
        if _TAIL_SHARE * (self.n - self.n_main) > self.n_main:
            if self.main is not None:
                centers = np.concatenate([self.main.data, centers])
            self.main, self.tail = cKDTree(centers, **_MAIN_TREE), None
            self.n_main = self.n
            stats.sign_rebuilt = 1
        else:
            self.tail = cKDTree(centers, **_TAIL_TREE)
        return True

    def lookup(self, points: np.ndarray, radius: float):
        """(sign, known) from the nearest indexed voxel within radius.

        A voxel of the tail wins only when strictly nearer than the main
        tree's nearest, so an exact tie goes to the main tree.
        """
        m = len(points)
        sign = np.ones(m)
        if self.n == 0:
            return sign, np.zeros(m, dtype=bool)
        dist, idx = self.main.query(points, k=1, distance_upper_bound=radius)
        if self.tail is not None:
            tdist, tidx = self.tail.query(points, k=1,
                                          distance_upper_bound=radius)
            nearer = tdist < dist
            dist = np.where(nearer, tdist, dist)
            idx = np.where(nearer, tidx + self.n_main, idx)
        known = np.isfinite(dist)
        rows = self.voxel_rows[idx[known]]
        sign[known] = np.where(self.grid.voxels("distance")[rows] < 0, -1.0, 1.0)
        return sign, known


def _same_bytes(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    """Both None, or both arrays of one shape and identical bytes."""
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
        self._sign_index = None if grid is None else SignIndex(grid)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def nbytes(self) -> int:
        """Bytes of the nodes' points, props and model arrays, each buffer
        counted once (a model's train_points views its node's points, and
        its chol_prop may be its chol). Summed over every node on each
        call, so ask only when the number is wanted."""
        held = {}
        for node in self.nodes.values():
            arrays = [node.points, node.props]
            m = node.model
            if m is not None:
                arrays += [m.train_points, m.chol, m.alpha_occ, m.centroid,
                           m.chol_prop, m.alpha_prop]
            for a in arrays:
                if a is not None:
                    held[(a.ctypes.data, a.nbytes)] = a.nbytes
        return sum(held.values())

    def update(self, replacements: dict) -> int:
        """Replace per-leaf crossing lists; returns how many nodes it added,
        removed or gave new crossings.

        Maps leaf origin to (points, props) or to None/empty to remove
        the node. A replacement whose points and props equal the node's
        in shape and bytes (props both None or both arrays) leaves the
        node as it is, model and train_count included: a model depends
        only on its node's points, props and the kernel params, so a
        retrain would rebuild it bit for bit. Bytes, not values: -0.0 and
        0.0 differ, and a NaN equals itself. Any other replacement drops
        the node's model, and training is deferred to the next query that
        needs the node. The centroid tree is marked for rebuilding only
        when the count is nonzero.
        """
        n_changed = 0
        for origin, payload in replacements.items():
            origin = tuple(int(v) for v in origin)
            pts = None if payload is None else np.asarray(payload[0], dtype=np.float64)
            if pts is None or len(pts) == 0:
                if self.nodes.pop(origin, None) is not None:
                    n_changed += 1
                continue
            props = payload[1]
            if props is not None:
                props = np.asarray(props, dtype=np.float64)
                if props.size == 0:
                    props = None
            node = self.nodes.get(origin)
            if node is None:
                self.nodes[origin] = GPNode(points=pts, props=props,
                                            centroid=pts.mean(axis=0))
            elif _same_bytes(node.points, pts) and _same_bytes(node.props, props):
                continue
            else:
                node.points = pts
                node.props = props
                node.centroid = pts.mean(axis=0)
                node.model = None
            n_changed += 1
        if n_changed:
            self._tree_stale = True
        return n_changed

    def _ensure_tree(self):
        if self._tree_stale:
            self._tree_nodes = [self.nodes[k] for k in sorted(self.nodes)]
            pts = np.array([n.centroid for n in self._tree_nodes]).reshape(-1, 3)
            self._tree = cKDTree(pts) if len(pts) else None
            self._tree_stale = False

    def _train_nodes(self, nodes) -> tuple[int, int]:
        """Train those of nodes that lack a model, in one gp.train_many
        call; returns how many trained and their jitter escalations."""
        pending = [node for node in nodes if node.model is None]
        models = gp.train_many([node.points for node in pending], self.params,
                               [node.props for node in pending])
        for node, model in zip(pending, models):
            node.model = model
            node.train_count += 1
        return len(pending), sum(model.jitter for model in models)

    def train_pending(self) -> int:
        """Train every node still lacking a model; returns the count."""
        return self._train_nodes(self.nodes.values())[0]

    def _signs(self, points: np.ndarray, stats: QueryStats):
        """(sign, known) from the nearest observed fused voxel."""
        if self._sign_index is None:
            n = len(points)
            return np.ones(n), np.zeros(n, dtype=bool)
        self._sign_index.refresh(stats)
        return self._sign_index.lookup(
            points, self.sign_radius * self.grid.voxel_size)

    def query_batch(self, points: np.ndarray, q: Optional[int] = None) -> BatchQueryResult:
        """Blend the q nearest nodes at each query point.

        Per-node distances combine through a smooth minimum with weights
        exp(-lambda * distance); unit gradients average unweighted and
        renormalize. Variance and properties come from the node with the
        smallest inferred distance.

        The routed nodes that lack a model train in one gp.train_many
        call, and all of them infer in one gp.routed_moments call, which
        batches the models by training-set size; the elementwise rest
        (clips, reverting, variance propagation, gradient normalization)
        runs once over the whole batch.
        Raises ValueError if q < 1, or naming the first row that is not
        finite or, on a field with a grid, lies outside the voxel key range.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        m = len(pts)
        q = self.query_nodes if q is None else int(q)
        if q < 1:
            raise ValueError(f"q must be at least 1, got {q}")
        self._check_rows(pts)
        if not self.nodes:
            raise EmptyField("global field has no nodes")
        if m == 0:
            return self._empty_result()
        stats = QueryStats()
        t0 = time.perf_counter()
        self._ensure_tree()
        sel = gp.route(self._tree, pts, q)
        routed = np.flatnonzero(np.bincount(sel.ravel())).tolist()
        nodes = [self._tree_nodes[i] for i in routed]
        t1 = time.perf_counter()
        stats.n_nodes_trained, stats.n_jitter_escalations = \
            self._train_nodes(nodes)
        models = {i: node.model for i, node in zip(routed, nodes)}
        stats.n_nodes_routed = len(models)
        has_props = all(node.props is not None for node in nodes)
        t2 = time.perf_counter()
        mo, at = gp.routed_moments(models, pts, sel, gradient=True,
                                   properties=has_props)
        o, u, g, c, w = mo
        t3 = time.perf_counter()
        sign, known = self._signs(pts, stats)
        t4 = time.perf_counter()
        rows = np.arange(m)

        p = self.params
        dq = gp.revert_distance(o[at], p)
        lam = self.smooth_lambda
        dmin = dq.min(axis=1)
        weights = np.exp(-lam * (dq - dmin[:, None]))
        blended = (weights * dq).sum(axis=1) / weights.sum(axis=1)

        win = at[rows, np.argmin(dq, axis=1)]
        variance = gp.propagate_variance(gp.clip_variance(u[win], p), o[win], p)

        gmean = gp.unit_distance_gradient(g[at], p).mean(axis=1)
        grad = gp.unit_distance_gradient(-gmean, p)

        distance = blended * np.where(known, sign, 1.0)
        grad = grad * np.where(known, sign, 1.0)[:, None]

        props = pvar = None
        if has_props:
            props = gp.clip_properties(c[win], self.prop_clip)
            pvar = gp.clip_variance(w[win], p)
        t5 = time.perf_counter()
        stats.stage_ms.update(route=(t1 - t0) * 1e3, train=(t2 - t1) * 1e3,
                              moments=(t3 - t2) * 1e3, signs=(t4 - t3) * 1e3,
                              blend=(t5 - t4) * 1e3)
        return BatchQueryResult(distances=distance, variances=variance,
                                gradients=grad, properties=props,
                                prop_variances=pvar, free_space=~known,
                                stats=stats)

    def _check_rows(self, pts: np.ndarray) -> None:
        if self.grid is None:
            return gp.check_rows(pts)
        reach = KEY_BIAS * self.grid.voxel_size
        gp.check_rows(pts, in_key_range(pts, self.grid.voxel_size),
                      "lies outside the voxel key range "
                      f"[-{reach:g}, {reach:g}) m")

    def _empty_result(self) -> BatchQueryResult:
        """Zero-length result; properties exist if every node has them."""
        props = [node.props for node in self.nodes.values()]
        has_props = all(p is not None for p in props)
        pdim = props[0].shape[1] if has_props else 0
        return BatchQueryResult(
            distances=np.zeros(0), variances=np.zeros(0),
            gradients=np.zeros((0, 3)),
            properties=np.zeros((0, pdim)) if has_props else None,
            prop_variances=np.zeros(0) if has_props else None,
            free_space=np.zeros(0, dtype=bool), stats=QueryStats())
