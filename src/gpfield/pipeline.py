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
import math
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
from .grid import LEAF_VOXELS, SparseGrid, leaf_keys, pack_keys
from .local_field import EmptyFrame, Frame, voxelize
from .meshing import SurfaceMesh, TriangleMesh
# the one-leaf entry point stays reachable here: perfbench/tracing.py wraps
# it by this module path, although the pipeline meshes through SurfaceMesh
from .meshing import mesh_leaf  # noqa: F401
from . import ply
from .scene import lattice_points

_PROP_CHANNELS = {"none": 0, "rgb": 3, "intensity": 1}
_PROP_CLIP = {"none": None, "rgb": (0.0, 1.0), "intensity": (0.0, np.inf)}
# the values a config field of each type takes, bool excepted, and their
# name: the Python types a snapshot's JSON stores (np.float64 is a float)
_FIELD_TYPES = {"int": (int, "an integer"),
                "float": ((int, float), "a number"), "str": (str, "a string")}


def _finite(x) -> bool:
    """Whether the int or float x is a finite float: an int beyond the
    float range, which math.isfinite cannot convert, is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


class EmptyInput(ValueError):
    """Run requested with no frames."""


@dataclass
class PipelineConfig:
    """All tunables of the mapping pipeline.

    length_scale defaults to three voxels; a ratio outside [2, 4]
    voxels still runs but triggers a warning since the local GPs then
    either alias the quantization or blur the surface. A value of the
    wrong type (None only where Optional, bool nowhere; an int field
    takes an int, a float field an int or a float, so of the numpy
    scalars only np.float64 passes), a non-finite float or an int past
    the float range in a float field, normal_k or query_nodes below 1,
    or a negative band_width or sign_radius raises ValueError naming
    it; values are never converted.
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
        for f in dataclasses.fields(self):
            x = getattr(self, f.name)
            kind = f.type.removeprefix("Optional[").removesuffix("]")
            if x is None and kind != f.type:
                continue
            types, noun = _FIELD_TYPES[kind]
            if isinstance(x, bool) or not isinstance(x, types):
                raise ValueError(f"{f.name} must be {noun}, got {x!r}")
            if kind == "float" and not _finite(x):
                got = x if isinstance(x, float) else "an int past float range"
                raise ValueError(f"{f.name} must be finite, got {got}")
        for key, low in (("normal_k", 1), ("query_nodes", 1),
                         ("band_width", 0), ("sign_radius", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, "
                                 f"got {getattr(self, key)}")
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
        if not isinstance(mapping, dict):
            raise ValueError(f"config must be a mapping, got {mapping!r}")
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
                else:
                    integer = fields[key].type in ("int", "Optional[int]")
                    try:
                        kwargs[key] = int(raw) if integer else float(raw)
                    except ValueError:
                        kind = "an integer" if integer else "a number"
                        raise ValueError(f"{key} must be {kind}, got {raw!r}") \
                            from None
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
    n_leaves_surfaced: int = 0      # targets whose new mesh has a triangle
    n_mesh_vertices: int = 0        # vertices of their new leaf meshes
    n_nodes_replaced: int = 0       # entries handed to GlobalField.update
    n_nodes_invalidated: int = 0    # nodes it added, removed or re-crossed
    # test points kept after merging, by source
    n_tp_ray: int = 0               # carving a stale surface before the band
    n_tp_band: int = 0              # endpoint band
    n_tp_normal: int = 0            # stepped along estimated normals
    n_ray_steps: int = 0            # (ray, voxel) steps the DDA walked
    n_ray_steps_skipped: int = 0    # steps of the full walk it skipped
    stage_ms: dict = field(default_factory=dict)
    # parts of three stages, timed inside them and not in stage_ms:
    # test_points' ray_rows, normals and merge; local_infer's route and
    # moments; meshing's mesh_leaves and crossings
    substage_ms: dict = field(default_factory=dict)
    total_ms: float = 0.0
    n_leaves: int = 0               # leaves allocated after the frame
    grid_bytes: int = 0             # pool bytes of their rows
    n_points_dropped: int = 0       # points voxelize dropped as non-finite
    n_jitter_escalations: int = 0   # Cholesky jitter raises of local models


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


# leaf records save_snapshot formats per write, which bounds its scratch
_RECORDS_PER_WRITE = 256


def _leaf_records(grid: SparseGrid, slots: np.ndarray) -> np.ndarray:
    """Snapshot records of the leaves in slots."""
    rec = np.zeros(len(slots), dtype=_leaf_record(grid.prop_channels))
    rec["origin"] = grid.pool["origin"][slots]
    for name in ("value_mask", "observed"):
        rec[name] = np.packbits(grid.pool[name][slots], axis=1)
    for name in _LEAF_ARRAYS:
        rec[name] = grid.pool[name][slots]
    return rec


def _check_properties(frame: Frame) -> None:
    """Raise ValueError naming the first point and channel whose property
    is not finite, among the points voxelize keeps (those of finite world
    position); a dropped point's properties are dropped with it."""
    with np.errstate(invalid="ignore"):
        kept = np.isfinite(frame.points_world()).all(axis=1)
    bad = ~np.isfinite(frame.properties) & kept[:, None]
    if bad.any():
        row, channel = np.argwhere(bad)[0].tolist()
        raise ValueError(f"frame point {row} has property channel {channel} "
                         f"{float(frame.properties[row, channel])}; "
                         "properties must be finite")


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
        self.surface = SurfaceMesh(self.grid)

    # -- integration ---------------------------------------------------------

    def integrate_frame(self, frame: Frame) -> FrameStats:
        """Integrate one frame into the map and return its stats.

        On a map with properties, a frame whose property channels are
        neither none nor the map's, or that holds a NaN or infinite
        property on a point of finite position, raises ValueError before
        anything is written. A map without properties ignores a frame's,
        and trains no local property models.
        """
        c = self.config
        width = 0 if frame.properties is None else frame.properties.shape[1]
        if c.prop_channels and width:
            if width != c.prop_channels:
                raise ValueError(
                    f"frame has {width} property channels where a prop_kind "
                    f"{c.prop_kind!r} map takes {c.prop_channels}")
            _check_properties(frame)
        stats = FrameStats(frame=self.frame_index, timestamp=frame.timestamp,
                           n_points=len(frame.points))
        t_all = time.perf_counter()

        t0 = time.perf_counter()
        coords, centers, props, stats.n_points_dropped = voxelize(
            frame, c.voxel_size)
        if not c.prop_channels:
            props = None    # a map without properties ignores a frame's
        stats.stage_ms["voxelize"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        lf = local_field.build_voxelized(coords, centers, props, self.params,
                                         c.min_leaf_points, c.prop_clip)
        stats.stage_ms["local_gp"] = (time.perf_counter() - t0) * 1e3
        stats.n_jitter_escalations = sum(m.jitter for m in lf.models)

        t0 = time.perf_counter()
        origin = frame.origin
        tp_ray = query_points.ray_rows(origin, coords, centers, self.grid,
                                       c.band_width, stats=stats)
        t1 = time.perf_counter()
        normals, valid = query_points.estimate_normals(centers, origin,
                                                       c.normal_k)
        tp_norm = query_points.normal_rows(coords, centers, normals, valid,
                                           c.voxel_size, c.normal_reach)
        t2 = time.perf_counter()
        # the one deduplication of the frame's test points
        tps = query_points.merge(tp_ray, tp_norm)
        t3 = time.perf_counter()
        stats.substage_ms.update(ray_rows=(t1 - t0) * 1e3,
                                 normals=(t2 - t1) * 1e3,
                                 merge=(t3 - t2) * 1e3)
        stats.n_test_points = len(tps)
        (stats.n_tp_ray, stats.n_tp_band, stats.n_tp_normal) = np.bincount(
            tps.sources, minlength=len(query_points.SOURCE_NAMES)).tolist()
        stats.stage_ms["test_points"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        d, v, cc, ww = lf.query_batch(tps.positions, stats.substage_ms)
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
        changed = self.surface.remesh(stats)
        stats.n_nodes_replaced = len(changed)
        stats.stage_ms["meshing"] = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        stats.n_nodes_invalidated = self.field.update(changed)
        stats.stage_ms["global_update"] = (time.perf_counter() - t0) * 1e3

        self.grid.clear_active()
        stats.n_leaves = self.grid.n_leaves
        stats.grid_bytes = self.grid.nbytes
        stats.total_ms = (time.perf_counter() - t_all) * 1e3
        self.stats.append(stats)
        self.frame_index += 1
        return stats

    # -- outputs ---------------------------------------------------------------

    @property
    def mesh_bytes(self) -> int:
        return self.surface.nbytes

    def export_mesh(self) -> TriangleMesh:
        return self.surface.export()

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
        with ply.replacing(path) as f:
            f.write(self._MAGIC)
            f.write(struct.pack("<II", 1, len(cfg)))
            f.write(cfg)
            f.write(struct.pack("<QQ", self.grid.n_leaves, self.frame_index))
            # records in ascending origin order
            slots = self.grid.sorted_slots()
            for i in range(0, len(slots), _RECORDS_PER_WRITE):
                f.write(_leaf_records(self.grid,
                                      slots[i:i + _RECORDS_PER_WRITE]))

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
        try:
            config = PipelineConfig.from_mapping(
                json.loads(data[cfg:off].decode("utf-8")))
        except ValueError as exc:
            raise ply.IoFailure(f"{path}: bad snapshot config: {exc}") from None
        n_leaves, frame_index = struct.unpack_from("<QQ", data,
                                                   take(16, "header"))
        pipe = cls(config)
        rec = _leaf_record(config.prop_channels)
        if len(data) - off != n_leaves * rec.itemsize:
            raise ply.IoFailure(
                f"{path}: snapshot holds {len(data) - off} bytes of leaf "
                f"records where {n_leaves} leaves take "
                f"{n_leaves * rec.itemsize}")
        recs = np.frombuffer(data, dtype=rec, count=n_leaves, offset=off)
        keys = pack_keys(recs["origin"])
        if (leaf_keys(keys) != keys).any() or (np.diff(keys) <= 0).any():
            raise ply.IoFailure(f"{path}: leaf records are not distinct leaf "
                                "origins in ascending order")
        grid = pipe.grid
        slots = grid.allocate(keys)
        for name in ("value_mask", "observed"):
            grid.pool[name][slots] = np.unpackbits(recs[name], axis=1)
        for name in _LEAF_ARRAYS:
            grid.pool[name][slots] = recs[name]
        pipe.frame_index = frame_index
        # rebuild the leaf meshes and the global field from the grid
        grid.activate(slots[grid.pool["observed"][slots].any(axis=1)])
        changed = pipe.surface.remesh()
        pipe.field.update(changed)
        grid.clear_active()
        return pipe


# -- evaluation -----------------------------------------------------------------


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
    Returns the number of data rows. Raises ValueError for an unknown
    axis or a resolution that is not finite and positive.
    """
    if axis not in _SLICE_AXES:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    ia, ib, ic = _SLICE_AXES[axis]
    (a0, a1), (b0, b1) = bounds
    plane = lattice_points(((a0, b0), (a1, b1)), resolution)
    pts = np.zeros((len(plane), 3))
    pts[:, [ia, ib]] = plane
    pts[:, ic] = offset
    res = field.query_batch(pts)
    header = "x,y,distance,gradient_x,gradient_y"
    cols = [pts[:, ia], pts[:, ib], res.distances,
            res.gradients[:, ia], res.gradients[:, ib]]
    if oracle is not None:
        header += ",error"
        cols.append(np.abs(res.distances) - np.abs(np.asarray(oracle(pts))))
    rows = np.stack(cols, axis=1)
    with ply.replacing(path, text=True) as f:
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
        with ply.replacing(path_or_file, text=True) as f:
            emit(f)
