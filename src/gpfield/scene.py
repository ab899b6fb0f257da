"""Analytic test scenes and a noisy range sensor simulator.

Scenes are compositions of sphere, box and plane primitives with exact
signed distance functions, optionally gated to a time interval so that
objects can appear or vanish mid-sequence. A sphere-tracing sensor
renders range images from arbitrary poses; the same SDF serves as the
ground-truth oracle for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

HIT_TOLERANCE = 1e-5
MAX_TRACE_STEPS = 256


@dataclass
class Primitive:
    """One analytic shape with an optional active time window [t0, t1)."""

    kind: str                       # "sphere" | "box" | "plane"
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    radius: float = 1.0             # sphere
    half_extents: np.ndarray = field(default_factory=lambda: np.ones(3))  # box
    normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    offset: float = 0.0             # plane: dot(normal, p) = offset
    prop: np.ndarray = field(default_factory=lambda: np.zeros(0))
    active: tuple[float, float] = (-np.inf, np.inf)

    def __post_init__(self):
        """Raises ValueError for a non-finite number (an infinite active
        bound aside) or a zero normal."""
        self.center = np.asarray(self.center, dtype=np.float64)
        self.half_extents = np.asarray(self.half_extents, dtype=np.float64)
        n = np.asarray(self.normal, dtype=np.float64)
        self.prop = np.asarray(self.prop, dtype=np.float64)
        numbers = np.concatenate([self.center, self.half_extents, n,
                                  [self.radius, self.offset], self.prop])
        if not np.isfinite(numbers).all() or np.isnan(self.active).any():
            raise ValueError(f"{self.kind} numbers must be finite")
        if not n.any():
            raise ValueError(f"{self.kind} normal must not be zero")
        self.normal = n / np.linalg.norm(n)

    def is_active(self, t: float) -> bool:
        return self.active[0] <= t < self.active[1]

    def sdf(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.kind == "sphere":
            return np.linalg.norm(p - self.center, axis=1) - self.radius
        if self.kind == "box":
            q = np.abs(p - self.center) - self.half_extents
            outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
            inside = np.minimum(q.max(axis=1), 0.0)
            return outside + inside
        if self.kind == "plane":
            return p @ self.normal - self.offset
        raise ValueError(f"unknown primitive kind {self.kind!r}")


class SyntheticScene:
    """Min-composition of primitives with exact signed distances.

    With property channels, each primitive's prop holds none (its hits
    read zeros) or one value per channel; any other primitive raises
    ValueError naming it. A scene without channels ignores every prop.
    """

    def __init__(self, primitives: list[Primitive], prop_channels: int = 0):
        self.primitives = list(primitives)
        self.prop_channels = int(prop_channels)
        for i, prim in enumerate(self.primitives):
            if self.prop_channels and prim.prop.shape not in (
                    (0,), (self.prop_channels,)):
                raise ValueError(
                    f"primitive {i} ({prim.kind}) has {prim.prop.size} prop "
                    f"values where the scene takes 0 or {self.prop_channels}")

    def sdf(self, points: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Scene signed distance; +inf where no primitive is active."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d = np.full(len(p), np.inf)
        for prim in self.primitives:
            if prim.is_active(t):
                d = np.minimum(d, prim.sdf(p))
        return d if np.ndim(points) > 1 else d[0]

    def sdf_and_prim(self, points: np.ndarray, t: float = 0.0):
        """Signed distance and the index of the nearest primitive."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d = np.full(len(p), np.inf)
        idx = np.full(len(p), -1, dtype=np.int64)
        for i, prim in enumerate(self.primitives):
            if prim.is_active(t):
                di = prim.sdf(p)
                take = di < d
                d[take] = di[take]
                idx[take] = i
        return d, idx


@dataclass
class SensorModel:
    """Pinhole or spinning range sensor.

    Pinhole rays look along +z in the sensor frame with x right and y
    down; focal length is in pixels. The lidar variant emits a grid of
    azimuth/elevation rays around the sensor origin.
    """

    kind: str = "pinhole"           # "pinhole" | "lidar"
    width: int = 64
    height: int = 48
    focal: float = 60.0
    azimuth_steps: int = 64
    elevation_steps: int = 16
    elevation_range: tuple[float, float] = (-0.4, 0.4)   # radians
    max_range: float = 10.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        el = self.elevation_range
        for name, ok, need in (
                ("kind", self.kind in ("pinhole", "lidar"),
                 "'pinhole' or 'lidar'"),
                *[(n, getattr(self, n) >= 1, "at least 1") for n in
                  ("width", "height", "azimuth_steps", "elevation_steps")],
                *[(n, 0 < getattr(self, n) < np.inf, "finite and positive")
                  for n in ("focal", "max_range")],
                ("noise_sigma", 0 <= self.noise_sigma < np.inf,
                 "finite and not negative"),
                ("elevation_range", len(el) == 2 and np.isfinite(el).all(),
                 "two finite values")):
            if not ok:
                raise ValueError(f"sensor {name} must be {need}, got "
                                 f"{getattr(self, name)!r}")

    def ray_directions(self) -> np.ndarray:
        """Unit ray directions in the sensor frame, fixed ordering."""
        if self.kind == "pinhole":
            u = np.arange(self.width) - (self.width - 1) / 2.0
            v = np.arange(self.height) - (self.height - 1) / 2.0
            uu, vv = np.meshgrid(u, v, indexing="xy")
            d = np.stack([uu / self.focal, vv / self.focal,
                          np.ones_like(uu)], axis=-1).reshape(-1, 3)
        else:
            az = np.linspace(0.0, 2.0 * np.pi, self.azimuth_steps,
                             endpoint=False)
            el = np.linspace(self.elevation_range[0], self.elevation_range[1],
                             self.elevation_steps)
            aa, ee = np.meshgrid(az, el, indexing="ij")
            # spin about the vertical (-y) axis; azimuth 0 is +z forward
            d = np.stack([np.cos(ee) * np.sin(aa),
                          -np.sin(ee),
                          np.cos(ee) * np.cos(aa)], axis=-1).reshape(-1, 3)
        return d / np.linalg.norm(d, axis=1, keepdims=True)


def sphere_trace(scene: SyntheticScene, origins: np.ndarray,
                 directions: np.ndarray, t: float,
                 max_range: float) -> tuple[np.ndarray, np.ndarray]:
    """March rays through the scene SDF.

    Returns (ranges, hit_mask); misses report range = +inf.
    """
    o = np.atleast_2d(origins).astype(np.float64)
    d = np.atleast_2d(directions).astype(np.float64)
    if len(o) == 1 and len(d) > 1:
        o = np.repeat(o, len(d), axis=0)
    ranges = np.zeros(len(d))
    alive = np.ones(len(d), dtype=bool)
    hit = np.zeros(len(d), dtype=bool)
    for _ in range(MAX_TRACE_STEPS):
        if not alive.any():
            break
        p = o[alive] + ranges[alive, None] * d[alive]
        s = scene.sdf(p, t)
        idx = np.flatnonzero(alive)
        newly_hit = s < HIT_TOLERANCE
        hit[idx[newly_hit]] = True
        alive[idx[newly_hit]] = False
        ranges[idx[~newly_hit]] += s[~newly_hit]
        over = ranges[idx] > max_range
        alive[idx[over]] = False
    ranges[~hit] = np.inf
    return ranges, hit


def render_frame(scene: SyntheticScene, sensor: SensorModel,
                 pose: tuple[np.ndarray, np.ndarray], t: float = 0.0):
    """Render one noisy range frame.

    Args:
        pose: (rotation, translation) mapping sensor to world.
        t: scene time; also salts the per-frame noise stream so that
           identical (seed, pose, scene, t) render bit-identical frames.

    Returns:
        A local_field.Frame with points in the sensor frame and the hit
        primitives' property vectors attached (None when the scene has
        no property channels).
    """
    from .local_field import Frame

    rot = np.asarray(pose[0], dtype=np.float64)
    trans = np.asarray(pose[1], dtype=np.float64)
    dirs_sensor = sensor.ray_directions()
    dirs_world = dirs_sensor @ rot.T
    ranges, hit = sphere_trace(scene, trans, dirs_world, t, sensor.max_range)
    if sensor.noise_sigma > 0.0:
        rng = np.random.default_rng([sensor.seed, int(round(t * 1e6)) & 0x7FFFFFFF])
        noise = rng.standard_normal(len(dirs_sensor)) * sensor.noise_sigma
        ranges = ranges + noise
    points = dirs_sensor[hit] * ranges[hit, None]
    props = None
    if scene.prop_channels:
        world_pts = trans + dirs_world[hit] * ranges[hit, None]
        _, prim_idx = scene.sdf_and_prim(world_pts, t)
        # a row per primitive (zero without props); index -1 reads the last
        table = np.zeros((len(scene.primitives) + 1, scene.prop_channels))
        for i, prim in enumerate(scene.primitives):
            table[i, :len(prim.prop)] = prim.prop
        props = table[prim_idx]
    return Frame(points=points, rotation=rot, translation=trans,
                 properties=props, timestamp=t)


def orbit_trajectory(center, radius: float, n_frames: int,
                     elevation: float = 0.0,
                     start_azimuth: float = 0.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Circle of look-at poses around a point, z-up.

    The sensor +z axis points at the center; elevation (radians) lifts
    the circle above the center's horizontal plane. Raises ValueError
    for a radius that is not finite and nonzero.
    """
    if not (np.isfinite(radius) and radius != 0):
        raise ValueError(f"orbit radius must be finite and nonzero, "
                         f"got {radius}")
    center = np.asarray(center, dtype=np.float64)
    poses = []
    up = np.array([0.0, 0.0, 1.0])
    for i in range(n_frames):
        a = start_azimuth + 2.0 * np.pi * i / n_frames
        eye = center + radius * np.array([np.cos(elevation) * np.cos(a),
                                          np.cos(elevation) * np.sin(a),
                                          np.sin(elevation)])
        poses.append(look_at(eye, center, up))
    return poses


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Pose with sensor +z toward the target, x right, y down.

    Raises ValueError for a non-finite eye or target, or an eye at its
    target.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if not (np.isfinite(eye).all() and np.isfinite(target).all()):
        raise ValueError(f"look_at needs a finite eye and target, got eye "
                         f"{eye.tolist()} and target {target.tolist()}")
    fwd = target - eye
    norm = np.linalg.norm(fwd)
    if norm == 0:
        raise ValueError(f"look_at eye {eye.tolist()} is at its target")
    fwd = fwd / norm
    upv = np.asarray(up, dtype=np.float64)
    right = np.cross(fwd, upv)
    nr = np.linalg.norm(right)
    if nr < 1e-12:
        # looking along up; pick an arbitrary horizontal right axis
        right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
        nr = np.linalg.norm(right)
    right = right / nr
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd], axis=1)
    return rot, eye


def lattice_points(bounds, resolution: float) -> np.ndarray:
    """Regular lattice covering an axis-aligned box, inclusive of both ends.

    bounds is (lo, hi), one coordinate per axis each; rows run in C order
    over the axes. Raises ValueError for a resolution that is not finite
    and positive.
    """
    resolution = float(resolution)
    if not (np.isfinite(resolution) and resolution > 0):
        raise ValueError("resolution must be finite and positive, "
                         f"got {resolution!r}")
    axes = [np.arange(l, h + resolution * 0.5, resolution)
            for l, h in zip(np.asarray(bounds[0], dtype=np.float64),
                            np.asarray(bounds[1], dtype=np.float64))]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


def surface_samples(scene: SyntheticScene, bounds, resolution: float,
                    t: float = 0.0, tol: float = 1e-4) -> np.ndarray:
    """Near-uniform samples of the scene surface inside a box.

    Lattice points within one cell of the surface are projected along
    the numerical SDF gradient; the composed SDF has unit slope away
    from seams so a few Newton steps converge. Points that fail to
    reach |sdf| < tol (seams, inactive scenes) are dropped. Raises
    ValueError for a resolution that is not finite and positive.
    """
    lo = np.asarray(bounds[0], dtype=np.float64)
    hi = np.asarray(bounds[1], dtype=np.float64)
    pts = lattice_points((lo, hi), resolution)
    d = scene.sdf(pts, t)
    pts = pts[np.abs(d) <= resolution]
    eps = 1e-5
    basis = np.eye(3) * eps
    for _ in range(4):
        if not len(pts):
            break
        d = scene.sdf(pts, t)
        grad = np.stack([scene.sdf(pts + e, t) - scene.sdf(pts - e, t)
                         for e in basis], axis=1) / (2.0 * eps)
        norm2 = np.maximum(np.sum(grad * grad, axis=1), 1e-12)
        pts = pts - (d / norm2)[:, None] * grad
    keep = np.abs(scene.sdf(pts, t)) < tol
    keep &= np.all(pts >= lo, axis=1) & np.all(pts <= hi, axis=1)
    return pts[keep]


# -- scene description files --------------------------------------------------
#
# One primitive per line:
#   sphere CX CY CZ RADIUS [prop V...] [active T0 T1]
#   box CX CY CZ HX HY HZ [prop V...] [active T0 T1]
#   plane NX NY NZ OFFSET [prop V...] [active T0 T1]
# Blank lines and '#' comments are ignored.

def _numbers(ln: int, name: str, tokens: list, count=None) -> list:
    """tokens as floats, count of them when given; otherwise ValueError
    naming line ln."""
    try:
        if count is None or len(tokens) == count:
            return [float(t) for t in tokens]
    except ValueError:
        pass
    n = "" if count is None else f"{count} "
    raise ValueError(f"line {ln}: {name} takes {n}numbers, "
                     f"got {' '.join(tokens)!r}")


def parse_scene(text: str, prop_channels: int = 0) -> SyntheticScene:
    """Scene from description text; a malformed line, or a prop that does
    not hold one number per property channel, raises ValueError naming
    the line."""
    counts = {"sphere": 4, "box": 6, "plane": 4}
    prims = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = tok[0].lower()
        if kind not in counts:
            raise ValueError(f"line {ln}: unknown primitive {kind!r}")
        # the tokens after the kind, and after each prop or active keyword
        key = kind
        parts = {key: []}
        for t in tok[1:]:
            if t in ("prop", "active"):
                key = t
                parts[key] = []
            else:
                parts[key].append(t)
        vals = _numbers(ln, kind, parts[kind], counts[kind])
        prop = np.asarray(_numbers(ln, "prop", parts["prop"],
                                   prop_channels or None)
                          if "prop" in parts else [])
        active = (tuple(_numbers(ln, "active", parts["active"], 2))
                  if "active" in parts else (-np.inf, np.inf))
        shape = {"sphere": {"center": vals[:3], "radius": vals[3]},
                 "box": {"center": vals[:3], "half_extents": vals[3:6]},
                 "plane": {"normal": vals[:3], "offset": vals[3]}}[kind]
        try:
            prims.append(Primitive(kind, prop=prop, active=active, **shape))
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    return SyntheticScene(prims, prop_channels=prop_channels)


def load_scene(path, prop_channels: int = 0) -> SyntheticScene:
    with open(path, "r", encoding="utf-8") as f:
        return parse_scene(f.read(), prop_channels=prop_channels)
