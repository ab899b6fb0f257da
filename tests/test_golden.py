"""Golden-output check: a fixed run must reproduce recorded bytes exactly.

Eight frames of the acceptance-3 sphere orbit (with an rgb property so
the property paths run too) are integrated and one 500-point batch is
queried. ``GOLDEN_SHA256`` hashes the mesh, the snapshot file and the
query distances; it was recorded before the voxel-key layer was
rewritten. ``QUERY_GOLDEN_SHA256`` hashes the rest of the same batch's
outputs (variances, gradients, properties, property variances and
free-space flags); it was recorded before the global query path was
restructured. ``TEST_POINTS_SHA256`` hashes what ``query_points.generate``
gives on each of the eight frames, the frame's ray rows deduplicated
(coordinates, positions, signs and sources, in order); it was recorded before the test-point traversal,
classification and grid lookup were rewritten. Refactors that claim to compute the same outputs must keep
both. They depend on the floating-point results of this numpy/scipy
build, so on another platform first check that the unrefactored code
gives the same digests before reading a mismatch as a behaviour change.
"""

import hashlib

import numpy as np
import pytest

from gpfield import query_points
from gpfield.pipeline import Pipeline, PipelineConfig
from gpfield.scene import (Primitive, SensorModel, SyntheticScene,
                           orbit_trajectory, render_frame)

GOLDEN_SHA256 = (
    "5964837c3bdeba1a88dbba2f17762c86080337c92a22a0889ebf24da2ac6aa23")
QUERY_GOLDEN_SHA256 = (
    "7efd2f8b02838e4132afb66fe166c5a85c22d7c7ea8cb81d9c1946d2047e38a4")
TEST_POINTS_SHA256 = (
    "7ff0797e9534e0199adff4b8f92e4c4917521eccc0624bc92e6770a8d62111fe")


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """(mesh, snapshot bytes, query result, per-frame generate outputs)
    of the fixed run."""
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
    generated = []
    real_rows = query_points.ray_rows

    # the pipeline builds the ray rows; generate gives them deduplicated
    def spy(*args, **kwargs):
        rows = real_rows(*args, **kwargs)
        generated.append(query_points.merge(rows))
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(query_points, "ray_rows", spy)
        for pose in poses:
            pipe.integrate_frame(render_frame(scene, sensor, pose))
    mesh = pipe.export_mesh()
    snap = tmp_path_factory.mktemp("golden") / "golden.snap"
    pipe.save_snapshot(snap)
    queries = np.random.default_rng(81).uniform(-1.5, 1.5, size=(500, 3))
    res = pipe.field.query_batch(queries)
    return mesh, snap.read_bytes(), res, generated


def _hash(arrays) -> str:
    h = hashlib.sha256()
    for a, dtype in arrays:
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


def test_golden_outputs_are_unchanged(golden_run):
    mesh, snap, res, _ = golden_run
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(mesh.triangles, dtype="<i8").tobytes())
    h.update(snap)
    h.update(np.ascontiguousarray(res.distances, dtype="<f8").tobytes())
    assert h.hexdigest() == GOLDEN_SHA256


def test_golden_query_outputs_are_unchanged(golden_run):
    _, _, res, _ = golden_run
    assert res.properties is not None
    digest = _hash([(res.variances, "<f8"), (res.gradients, "<f8"),
                    (res.properties, "<f8"), (res.prop_variances, "<f8"),
                    (res.free_space, "?")])
    assert digest == QUERY_GOLDEN_SHA256


def test_golden_test_points_are_unchanged(golden_run):
    *_, generated = golden_run
    assert len(generated) == 8
    digest = _hash([(a, dtype) for tps in generated
                    for a, dtype in ((tps.coords, "<i8"),
                                     (tps.positions, "<f8"),
                                     (tps.signs, "i1"),
                                     (tps.sources, "u1"))])
    assert digest == TEST_POINTS_SHA256
