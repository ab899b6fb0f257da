"""The benchmark's workloads: scenes, sensor paths and query batches.

Frames come from ``gpfield.scene`` and query points from a numpy
generator, both seeded from ``--seed``; the same seed gives the same
inputs. Nothing in this module is timed. Why each workload exists:

- ``sphere_orbit``: the acceptance-3 sphere. The map stays bounded and
  every frame revisits it, so fusion, remeshing and test points carry
  the load, and the query after each frame should cost the same at the
  end as at the start.
- ``corridor_plan``: the acceptance-10 corridor with a 1,000-point
  planner batch ahead of the sensor after every frame. The map grows
  with every frame, which tests the flat-cost claim on the write path
  and on the read-after-write path (lazy node training and the
  sign-index rebuild).
- ``map_query``: a lidar room with properties. A few frames build the
  map, which is saved and loaded back (the set-up time), and then bulk
  query batches run on the loaded map, so routing, GP and property
  inference and sign lookup do the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from gpfield.pipeline import PipelineConfig
from gpfield.scene import (Primitive, SensorModel, SyntheticScene, look_at,
                           orbit_trajectory, render_frame, surface_samples)

# near-surface band of the field accuracy check, as in acceptance check 4
RMSE_BAND = (0.05, 0.5)
COMPLETENESS_THRESHOLD = 0.05


@dataclass
class Workload:
    name: str
    config_kwargs: dict
    scene: SyntheticScene
    # integrated in order on every pass
    frames: list = field(default_factory=list)
    # one batch after each frame, or, with reload, the batches after the load
    batches: list = field(default_factory=list)
    # save the map after the frames and load it back before the batches
    reload: bool = False
    eval_box: tuple = ()
    rmse_resolution: float = 0.1
    reference: Optional[np.ndarray] = None   # surface samples for chamfer
    acceptance: bool = False                 # acceptance-3 mesh thresholds
    check_props: bool = False                # properties must lie in [0, 1]

    def config(self) -> PipelineConfig:
        return PipelineConfig(**self.config_kwargs)


def fibonacci_sphere(n: int, r: float = 1.0) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return r * np.stack([np.cos(theta) * np.sin(phi),
                         np.sin(theta) * np.sin(phi),
                         np.cos(phi)], axis=1)


def sphere_orbit(seed: int, smoke: bool) -> Workload:
    scene = SyntheticScene([Primitive("sphere", center=[0.0, 0.0, 0.0],
                                      radius=1.0)])
    sensor = SensorModel(kind="pinhole", width=64, height=48, focal=60.0,
                         max_range=8.0, noise_sigma=0.005, seed=seed)
    ring = 30
    poses = (orbit_trajectory([0, 0, 0], 2.5, ring, elevation=np.pi / 6)
             + orbit_trajectory([0, 0, 0], 2.5, ring, elevation=-np.pi / 6,
                                start_azimuth=np.pi / ring))
    if smoke:
        poses = poses[:4] + poses[ring:ring + 4]
    rng = np.random.default_rng(seed)
    n_pts = 200 if smoke else 1000
    box = ((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))
    return Workload(
        name="sphere_orbit",
        config_kwargs=dict(voxel_size=0.05, length_scale=0.1, d_max=0.55),
        scene=scene,
        frames=[render_frame(scene, sensor, p) for p in poses],
        batches=[rng.uniform(box[0], box[1], size=(n_pts, 3))
                 for _ in poses],
        eval_box=box, rmse_resolution=0.05,
        reference=fibonacci_sphere(20000),
        acceptance=not smoke)


def corridor_plan(seed: int, smoke: bool) -> Workload:
    scene = SyntheticScene([
        Primitive("plane", normal=[0.0, -1.0, 0.0], offset=-1.0),
        Primitive("plane", normal=[0.0, 1.0, 0.0], offset=-1.0),
        Primitive("plane", normal=[0.0, 0.0, -1.0], offset=-1.0),
        Primitive("plane", normal=[0.0, 0.0, 1.0], offset=-1.0)])
    sensor = SensorModel(kind="pinhole", width=48, height=36, focal=50.0,
                         max_range=3.5)
    n_frames = 6 if smoke else 60
    n_pts = 200 if smoke else 1000
    rng = np.random.default_rng(seed)
    frames, batches = [], []
    for i in range(n_frames):
        eye = np.array([0.05 * i, 0.0, 0.0])
        frames.append(render_frame(scene, sensor,
                                   look_at(eye, eye + [1.0, 0.0, 0.0])))
        # the planner's box: the free corridor ahead of the sensor
        batches.append(rng.uniform([eye[0] + 0.2, -0.9, -0.9],
                                   [eye[0] + 2.0, 0.9, 0.9], size=(n_pts, 3)))
    # walls and floor are in view from about 2.9 m ahead of the start
    box = ((3.0, -1.0, -1.0), (3.0 + 0.05 * n_frames, 1.0, 1.0))
    return Workload(
        name="corridor_plan", config_kwargs={}, scene=scene,
        frames=frames, batches=batches, eval_box=box,
        reference=surface_samples(scene, box, 0.05))


def map_query(seed: int, smoke: bool) -> Workload:
    scene = SyntheticScene([
        Primitive("plane", normal=[1, 0, 0], offset=-3.0, prop=[0.8, 0.2, 0.2]),
        Primitive("plane", normal=[-1, 0, 0], offset=-3.0, prop=[0.2, 0.8, 0.2]),
        Primitive("plane", normal=[0, 1, 0], offset=-2.0, prop=[0.2, 0.2, 0.8]),
        Primitive("plane", normal=[0, -1, 0], offset=-2.0, prop=[0.8, 0.8, 0.2]),
        Primitive("plane", normal=[0, 0, 1], offset=0.0, prop=[0.5, 0.5, 0.5]),
        Primitive("plane", normal=[0, 0, -1], offset=-2.5, prop=[0.9, 0.9, 0.9]),
        Primitive("sphere", center=[1.2, 0.5, 0.6], radius=0.5,
                  prop=[0.1, 0.6, 0.9]),
        Primitive("box", center=[-1.3, -0.6, 0.4], half_extents=[0.4, 0.3, 0.4],
                  prop=[0.9, 0.4, 0.1])], prop_channels=3)
    sensor = SensorModel(kind="lidar", azimuth_steps=64 if smoke else 96,
                         elevation_steps=12 if smoke else 20,
                         elevation_range=(-0.6, 0.6), max_range=8.0,
                         noise_sigma=0.005, seed=seed)
    n_frames = 2 if smoke else 5
    frames = []
    for i in range(n_frames):
        # a loop through the room at head height, looking along the path
        a = 2.0 * np.pi * i / n_frames
        eye = np.array([1.5 * np.cos(a), 1.0 * np.sin(a), 1.2])
        ahead = eye + np.array([np.cos(a + 1.0), np.sin(a + 1.0), 0.0])
        frames.append(render_frame(scene, sensor, look_at(eye, ahead)))
    rng = np.random.default_rng(seed)
    n_batches, n_pts = (3, 500) if smoke else (10, 5000)
    box = ((-3.0, -2.0, 0.0), (3.0, 2.0, 2.5))
    inner = ((-2.9, -1.9, 0.1), (2.9, 1.9, 2.4))
    return Workload(
        name="map_query", config_kwargs=dict(prop_kind="rgb"), scene=scene,
        frames=frames, reload=True,
        batches=[rng.uniform(inner[0], inner[1], size=(n_pts, 3))
                 for _ in range(n_batches)],
        eval_box=box, reference=surface_samples(scene, box, 0.05),
        check_props=True)


_MAKERS = {"sphere_orbit": sphere_orbit, "corridor_plan": corridor_plan,
             "map_query": map_query}
NAMES = tuple(_MAKERS)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    if name not in _MAKERS:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return _MAKERS[name](seed, smoke)
