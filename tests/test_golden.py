"""Golden-output check: a fixed run must reproduce recorded bytes exactly.

Eight frames of the acceptance-3 sphere orbit (with an rgb property so
the property paths run too) are integrated, one 500-point batch is
queried, and the mesh, the snapshot file and the query distances are
hashed together. The digest was recorded before the voxel-key layer was
rewritten; refactors that claim to compute the same outputs must keep
it. It depends on the floating-point results of this numpy/scipy build,
so on another platform first check that the unrefactored code gives the
same digest before reading a mismatch as a behaviour change.
"""

import hashlib

import numpy as np

from gpfield.pipeline import Pipeline, PipelineConfig
from gpfield.scene import (Primitive, SensorModel, SyntheticScene,
                           orbit_trajectory, render_frame)

GOLDEN_SHA256 = (
    "5964837c3bdeba1a88dbba2f17762c86080337c92a22a0889ebf24da2ac6aa23")


def golden_digest(tmp_path) -> str:
    scene = SyntheticScene([Primitive("sphere", radius=1.0,
                                      prop=[0.9, 0.4, 0.1])],
                           prop_channels=3)
    sensor = SensorModel(kind="pinhole", width=64, height=48, focal=60.0,
                         max_range=8.0, noise_sigma=0.005, seed=81)
    ring = 30
    poses = (orbit_trajectory([0, 0, 0], 2.5, ring, elevation=np.pi / 6)[:4]
             + orbit_trajectory([0, 0, 0], 2.5, ring, elevation=-np.pi / 6,
                                start_azimuth=np.pi / ring)[:4])
    pipe = Pipeline(PipelineConfig(voxel_size=0.05, length_scale=0.1,
                                   d_max=0.55, prop_kind="rgb"))
    for pose in poses:
        pipe.integrate_frame(render_frame(scene, sensor, pose))
    mesh = pipe.export_mesh()
    snap = tmp_path / "golden.snap"
    pipe.save_snapshot(snap)
    queries = np.random.default_rng(81).uniform(-1.5, 1.5, size=(500, 3))
    res = pipe.field.query_batch(queries)

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(mesh.triangles, dtype="<i8").tobytes())
    h.update(snap.read_bytes())
    h.update(np.ascontiguousarray(res.distances, dtype="<f8").tobytes())
    return h.hexdigest()


def test_golden_outputs_are_unchanged(tmp_path):
    assert golden_digest(tmp_path) == GOLDEN_SHA256
