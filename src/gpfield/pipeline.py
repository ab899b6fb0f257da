"""Frame-to-map integration pipeline and evaluation utilities.

Per frame: voxelize the posed cloud, train the local per-leaf GPs,
generate carving/band/normal test points, infer their distances from
the local field, fuse into the sparse grid, re-run marching cubes on
the touched leaves, and hand the changed zero-crossing sets to the
global field. Work per frame scales with the observed surface, not
with the size of the accumulated map.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.spatial import cKDTree

from . import gp, local_field, query_points
from .fusion import FusionConfig, fuse_frame
from .global_field import GlobalField
from .grid import (KEY_BIAS, LEAF_VOXELS, SparseGrid, group_by,
                   leaf_keys, leaf_origin_of, pack_keys, world_to_grid)
from .local_field import EmptyFrame, Frame, voxelize
from .meshing import (UPPER_NEIGHBOURS, TriangleMesh, combine,
                      crossings_by_leaf, group_edges, mesh_leaves,
                      stack_vertices)
# the one-leaf entry point stays reachable here: perfbench/tracing.py wraps
# it by this module path, although the pipeline meshes through mesh_leaves
from .meshing import mesh_leaf  # noqa: F401
from . import ply

_PROP_CHANNELS = {"none": 0, "rgb": 3, "intensity": 1}
_PROP_CLIP = {"none": None, "rgb": (0.0, 1.0), "intensity": (0.0, np.inf)}


class EmptyInput(ValueError):
    """Run requested with no frames."""


@dataclass
class PipelineConfig:
    """All tunables of the mapping pipeline.

    length_scale defaults to three voxels; a ratio outside [2, 4]
    voxels still runs but triggers a warning since the local GPs then
    either alias the quantization or blur the surface.
    """

    voxel_size: float = 0.05
    length_scale: Optional[float] = None
    sigma2: float = 1.0
    noise2: float = 1e-4
    prop_noise2: float = 1e-2
    d_max: Optional[float] = None
    v_max: Optional[float] = None
    v_floor: float = 0.0
    grad_eps: float = 1e-8
    band_width: int = 3
    normal_reach: int = 3
    normal_k: int = 10
    surface_band: float = 2.0       # voxels
    weight_cap: float = 100.0
    min_leaf_points: int = 4
    query_nodes: int = 3
    smooth_lambda: float = 100.0
    sign_radius: int = 5
    prop_kind: str = "none"

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        if self.length_scale is None:
            self.length_scale = 3.0 * self.voxel_size
        ratio = self.length_scale / self.voxel_size
        if not 2.0 <= ratio <= 4.0:
            warnings.warn(
                f"length_scale is {ratio:.2f} voxels; two to four voxels "
                "is the supported regime", stacklevel=2)
        if self.prop_kind not in _PROP_CHANNELS:
            raise ValueError(f"unknown prop_kind {self.prop_kind!r}")
        kp = self.kernel_params()
        self.d_max = kp.d_max
        self.v_max = kp.v_max

    @property
    def prop_channels(self) -> int:
        return _PROP_CHANNELS[self.prop_kind]

    @property
    def prop_clip(self):
        return _PROP_CLIP[self.prop_kind]

    def kernel_params(self) -> gp.KernelParams:
        return gp.KernelParams(sigma2=self.sigma2,
                               length_scale=self.length_scale,
                               noise2=self.noise2,
                               prop_noise2=self.prop_noise2,
                               d_max=self.d_max, v_max=self.v_max,
                               v_floor=self.v_floor, grad_eps=self.grad_eps)

    def fusion_config(self) -> FusionConfig:
        return FusionConfig(v_max=self.v_max, w_max=self.sigma2,
                            weight_cap=self.weight_cap,
                            surface_band=self.surface_band * self.voxel_size)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineConfig":
        kwargs = {}
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key, raw in mapping.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(raw, str):
                if key == "prop_kind":
                    kwargs[key] = raw
                elif raw.lower() in ("none", "null"):
                    kwargs[key] = None
                elif fields[key].type in ("int", "Optional[int]"):
                    kwargs[key] = int(raw)
                else:
                    kwargs[key] = float(raw)
            else:
                kwargs[key] = raw
        return cls(**kwargs)

    @staticmethod
    def parse_file(path) -> dict:
        """Raw key=value mapping from a config file, values as strings."""
        mapping = {}
        with open(path, "r", encoding="utf-8") as f:
            for raw in f:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line {raw!r}")
                key, val = line.split("=", 1)
                mapping[key.strip()] = val.strip()
        return mapping

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        return cls.from_mapping(cls.parse_file(path))


@dataclass
class FrameStats:
    frame: int
    timestamp: float
    n_points: int = 0
    n_test_points: int = 0
    n_voxels_fused: int = 0
    n_leaves_active: int = 0
    n_new_leaves: int = 0
    n_leaves_meshed: int = 0        # remesh targets
    n_mesh_vertices: int = 0        # vertices of their new leaf meshes
    n_nodes_replaced: int = 0       # entries handed to GlobalField.update
    stage_ms: dict = field(default_factory=dict)
    total_ms: float = 0.0


# a leaf and its 7 lower neighbours: the leaves whose cells read its voxels
_LOWER_NEIGHBOURS = -UPPER_NEIGHBOURS


def _with_lower_neighbours(origins) -> list:
    """The given leaf origins and their lower neighbours inside the key
    range, as unique tuples in ascending order."""
    o = (np.asarray(origins, dtype=np.int64).reshape(-1, 1, 3)
         + _LOWER_NEIGHBOURS).reshape(-1, 3)
    o = o[(o >= -KEY_BIAS).all(axis=1)]
    return list(map(tuple, o[group_by(pack_keys(o)).first].tolist()))


# leaf arrays a snapshot stores as float32, after the bit-packed masks
_LEAF_ARRAYS = ("distance", "dist_weight", "prop_weight", "prop")


def _leaf_record(prop_channels: int) -> np.dtype:
    """Snapshot layout of one leaf: origin, bit-packed value and observed
    masks, then the float32 arrays."""
    return np.dtype([("origin", "<i8", 3),
                     ("value_mask", "u1", LEAF_VOXELS // 8),
                     ("observed", "u1", LEAF_VOXELS // 8),
                     ("distance", "<f4", LEAF_VOXELS),
                     ("dist_weight", "<f4", LEAF_VOXELS),
                     ("prop_weight", "<f4", LEAF_VOXELS),
                     ("prop", "<f4", (LEAF_VOXELS, prop_channels))])


class Pipeline:
    """Stateful frame integrator."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        self.config = config or PipelineConfig()
        c = self.config
        self.params = c.kernel_params()
        self.grid = SparseGrid(c.voxel_size, c.prop_channels)
        self.field = GlobalField(self.params, self.grid,
                                 smooth_lambda=c.smooth_lambda,
                                 query_nodes=c.query_nodes,
                                 sign_radius=c.sign_radius,
                                 prop_clip=c.prop_clip)
        self.frame_index = 0
        self.stats: list[FrameStats] = []
        # leaf origin -> LeafMesh of its cells, for leaves with a surface;
        # the only mesh and crossing state, kept current by _remesh_active
        self._leaf_meshes: dict = {}

    # -- integration ---------------------------------------------------------

    def integrate_frame(self, frame: Frame) -> FrameStats:
        c = self.config
        stats = FrameStats(frame=self.frame_index, timestamp=frame.timestamp,
                           n_points=len(frame.points))
        t_all = time.perf_counter()

        t0 = time.perf_counter()
        coords, centers, props = voxelize(frame, c.voxel_size)
        stats.stage_ms["voxelize"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        lf = local_field.build_voxelized(coords, centers, props, c.voxel_size,
                                         self.params, c.min_leaf_points,
                                         c.prop_clip)
        stats.stage_ms["local_gp"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        origin = frame.origin
        tp_ray = query_points.generate(origin, coords, centers, self.grid,
                                       c.band_width)
        normals, valid = query_points.estimate_normals(centers, origin,
                                                       c.normal_k)
        tp_norm = query_points.normal_augment(coords, centers, normals, valid,
                                              c.voxel_size, c.normal_reach)
        tps = query_points.merge(tp_ray, tp_norm)
        stats.n_test_points = len(tps)
        stats.stage_ms["test_points"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        d, v, cc, ww = lf.query_batch(tps.positions)
        signed = d * tps.signs
        stats.stage_ms["local_infer"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        fstats = fuse_frame(self.grid, tps, signed, v, c.fusion_config(),
                            cc, ww)
        stats.n_voxels_fused = fstats.voxels_fused
        stats.n_new_leaves = fstats.new_leaves
        stats.n_leaves_active = fstats.leaves_touched
        stats.stage_ms["fusion"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        changed = self._remesh_active(stats)
        stats.n_nodes_replaced = len(changed)
        stats.stage_ms["meshing"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        self.field.update(changed)
        stats.stage_ms["global_update"] = (time.perf_counter() - t0) * 1e3

        self.grid.clear_active()
        stats.total_ms = (time.perf_counter() - t_all) * 1e3
        self.stats.append(stats)
        self.frame_index += 1
        return stats

    def _remesh_targets(self) -> list:
        active = [leaf.origin for leaf in self.grid.active_leaves()]
        return [o for o in _with_lower_neighbours(active)
                if self.grid.find_leaf(o) is not None]

    def _remesh_active(self, stats: Optional[FrameStats] = None) -> dict:
        """Re-mesh touched leaves and return the training replacements for
        the global field.

        All targets are meshed in one mesh_leaves call. Every leaf owning
        a vertex of an old or a new leaf mesh gets its zero crossings
        recomputed from the cached meshes that can put a vertex in it:
        its own and its lower neighbours'. stats, when given, receives
        the meshing counters.
        """
        h = self.config.voxel_size
        targets = self._remesh_targets()
        meshes = mesh_leaves(self.grid, targets)
        if stats is not None:
            stats.n_leaves_meshed = len(targets)
            stats.n_mesh_vertices = sum(len(lm.positions) for lm in meshes)
        touched = []
        for origin, lm in zip(targets, meshes):
            old = self._leaf_meshes.pop(origin, None)
            if len(lm.triangles):
                self._leaf_meshes[origin] = lm
            touched += [m.positions for m in (old, lm) if m is not None]
        if not touched:
            return {}
        coords = leaf_origin_of(world_to_grid(np.concatenate(touched), h))
        owners = group_by(pack_keys(coords))
        changed = list(map(tuple, coords[owners.first].tolist()))
        sources = [self._leaf_meshes[o] for o in _with_lower_neighbours(changed)
                   if o in self._leaf_meshes]
        crossings = {}
        if sources:
            edges, pos, props = stack_vertices(sources)
            own = np.isin(leaf_keys(pack_keys(world_to_grid(pos, h))),
                          owners.keys)
            # one vertex per edge, in edge order, as crossings_by_leaf
            # sums each voxel's vertices in input order
            first = np.flatnonzero(own)[group_edges(edges[own]).first]
            crossings = crossings_by_leaf(pos[first], props[first], h)
        return {o: crossings.get(o) for o in changed}

    # -- outputs ---------------------------------------------------------------

    def export_mesh(self) -> TriangleMesh:
        metas = [self._leaf_meshes[k] for k in sorted(self._leaf_meshes)]
        return combine(metas, self.config.voxel_size,
                       self.config.prop_channels)

    def write_mesh(self, path) -> TriangleMesh:
        mesh = self.export_mesh()
        ply.write_mesh(path, mesh.vertices, mesh.triangles,
                       mesh.properties if self.config.prop_channels else None,
                       self.config.prop_kind)
        return mesh

    # -- snapshots ---------------------------------------------------------------

    _MAGIC = b"GPFSNAP1"

    def save_snapshot(self, path) -> None:
        """Serialize config and grid; derived state rebuilds on load."""
        cfg = json.dumps(self.config.to_dict(), sort_keys=True).encode("utf-8")
        rec = np.zeros((), dtype=_leaf_record(self.config.prop_channels))
        with open(path, "wb") as f:
            f.write(self._MAGIC)
            f.write(struct.pack("<II", 1, len(cfg)))
            f.write(cfg)
            f.write(struct.pack("<QQ", self.grid.n_leaves, self.frame_index))
            for leaf in sorted(self.grid.leaves(), key=lambda l: l.origin):
                rec["origin"] = leaf.origin
                for name in ("value_mask", "observed"):
                    rec[name] = np.packbits(getattr(leaf, name))
                for name in _LEAF_ARRAYS:
                    rec[name] = getattr(leaf, name)
                f.write(rec.tobytes())

    @classmethod
    def load_snapshot(cls, path) -> "Pipeline":
        with open(path, "rb") as f:
            data = f.read()
        if not data.startswith(cls._MAGIC):
            raise ply.IoFailure(f"{path}: not a snapshot file")
        off = len(cls._MAGIC)

        def take(n: int, part: str) -> int:
            """Offset of the next n bytes; raises if the file ends first."""
            nonlocal off
            if off + n > len(data):
                raise ply.IoFailure(f"{path}: snapshot cut inside its {part}")
            off += n
            return off - n

        version, cfg_len = struct.unpack_from("<II", data, take(8, "header"))
        if version != 1:
            raise ply.IoFailure(f"{path}: unsupported snapshot version {version}")
        cfg = take(cfg_len, "config")
        config = PipelineConfig.from_mapping(
            json.loads(data[cfg:off].decode("utf-8")))
        n_leaves, frame_index = struct.unpack_from("<QQ", data,
                                                   take(16, "header"))
        pipe = cls(config)
        rec = _leaf_record(config.prop_channels)
        if len(data) - off != n_leaves * rec.itemsize:
            raise ply.IoFailure(
                f"{path}: snapshot holds {len(data) - off} bytes of leaf "
                f"records where {n_leaves} leaves take "
                f"{n_leaves * rec.itemsize}")
        for r in np.frombuffer(data, dtype=rec, count=n_leaves, offset=off):
            leaf = pipe.grid.get_or_create_leaf(tuple(r["origin"].tolist()))
            for name in ("value_mask", "observed"):
                getattr(leaf, name)[:] = np.unpackbits(r[name]).astype(bool)
            for name in _LEAF_ARRAYS:
                getattr(leaf, name)[:] = r[name]
        pipe.frame_index = frame_index
        # rebuild the leaf meshes and the global field from the grid
        for leaf in pipe.grid.leaves():
            if leaf.observed.any():
                pipe.grid.mark_active(leaf)
        changed = pipe._remesh_active()
        pipe.field.update(changed)
        pipe.grid.clear_active()
        return pipe


# -- evaluation -----------------------------------------------------------------


def lattice_points(bounds, resolution: float) -> np.ndarray:
    """Regular lattice covering an axis-aligned box, inclusive of both ends."""
    lo = np.asarray(bounds[0], dtype=np.float64)
    hi = np.asarray(bounds[1], dtype=np.float64)
    axes = [np.arange(l, h + resolution * 0.5, resolution)
            for l, h in zip(lo, hi)]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


def eval_distance_rmse(field: GlobalField, oracle: Callable[[np.ndarray], np.ndarray],
                       bounds, resolution: float,
                       band: tuple[float, float] = (0.0, np.inf),
                       batch: int = 8192):
    """RMSE of |field distance| against |oracle distance| on a lattice.

    Only lattice points whose oracle distance magnitude lies inside
    `band` participate. Returns (rmse, n_points).
    """
    pts = lattice_points(bounds, resolution)
    truth = np.abs(np.asarray(oracle(pts), dtype=np.float64))
    mask = (truth >= band[0]) & (truth <= band[1])
    pts = pts[mask]
    truth = truth[mask]
    if len(pts) == 0:
        return 0.0, 0
    err2 = 0.0
    for i in range(0, len(pts), batch):
        res = field.query_batch(pts[i:i + batch])
        err2 += np.sum((np.abs(res.distances) - truth[i:i + batch]) ** 2)
    return float(np.sqrt(err2 / len(pts))), int(len(pts))


def eval_chamfer(points_a: np.ndarray, points_b: np.ndarray,
                 completeness_threshold: Optional[float] = None):
    """Symmetric mean nearest-neighbor distance between two point sets.

    Returns (chamfer, completeness) where completeness is the fraction
    of points_b with a neighbor in points_a closer than the threshold
    (None -> completeness reported as 1.0 when both sets are nonempty).
    """
    a = np.asarray(points_a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(points_b, dtype=np.float64).reshape(-1, 3)
    if len(a) == 0 or len(b) == 0:
        return np.inf, 0.0
    d_ab, _ = cKDTree(b).query(a)
    d_ba, _ = cKDTree(a).query(b)
    chamfer = 0.5 * (d_ab.mean() + d_ba.mean())
    if completeness_threshold is None:
        comp = 1.0
    else:
        comp = float(np.mean(d_ba < completeness_threshold))
    return float(chamfer), comp


_SLICE_AXES = {"x": (1, 2, 0), "y": (0, 2, 1), "z": (0, 1, 2)}


def export_slice(field: GlobalField, axis: str, offset: float, bounds,
                 resolution: float, path,
                 oracle: Optional[Callable] = None) -> int:
    """Write a planar slice of the field as CSV.

    bounds is ((a0, a1), (b0, b1)) over the two in-plane axes; columns
    are the in-plane coordinates, the signed distance, the two in-plane
    gradient components, and |distance| error vs the oracle when given.
    Returns the number of data rows.
    """
    if axis not in _SLICE_AXES:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    ia, ib, ic = _SLICE_AXES[axis]
    (a0, a1), (b0, b1) = bounds
    av = np.arange(a0, a1 + resolution * 0.5, resolution)
    bv = np.arange(b0, b1 + resolution * 0.5, resolution)
    ag, bg = np.meshgrid(av, bv, indexing="ij")
    pts = np.zeros((ag.size, 3))
    pts[:, ia] = ag.ravel()
    pts[:, ib] = bg.ravel()
    pts[:, ic] = offset
    res = field.query_batch(pts)
    header = "x,y,distance,gradient_x,gradient_y"
    cols = [pts[:, ia], pts[:, ib], res.distances,
            res.gradients[:, ia], res.gradients[:, ib]]
    if oracle is not None:
        header += ",error"
        cols.append(np.abs(res.distances) - np.abs(np.asarray(oracle(pts))))
    rows = np.stack(cols, axis=1)
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join("%.9g" % v for v in row) + "\n")
    return len(rows)


_STATS_HEADER = "frame,stage,ms,points,voxels,leaves"


def write_stats_csv(stats: list[FrameStats], path_or_file) -> None:
    """Long-format per-stage timing CSV, one 'total' row per frame."""
    def emit(f):
        f.write(_STATS_HEADER + "\n")
        for s in stats:
            for stage, ms in s.stage_ms.items():
                f.write(f"{s.frame},{stage},{ms:.3f},{s.n_points},"
                        f"{s.n_voxels_fused},{s.n_leaves_active}\n")
            f.write(f"{s.frame},total,{s.total_ms:.3f},{s.n_points},"
                    f"{s.n_voxels_fused},{s.n_leaves_active}\n")

    if hasattr(path_or_file, "write"):
        emit(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as f:
            emit(f)
