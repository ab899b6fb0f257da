"""Names that code outside the library looks up by attribute.

perfbench/tracing.py wraps library functions by replacing the attribute
a caller looks up, and raises KeyError if one is missing. This checks
its target list, read unmodified from the benchmark, against the
library, so a rename fails here rather than only in the benchmark's
slow smoke run. It also checks that every exported name resolves, that
perfbench/run.py's grid_bytes still reads the leaf arrays through the
grid's leaf handles, and that a traced run records its spans with their
annotations and leaves every wrapped name as it found it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import gpfield
from gpfield.grid import LEAF_ARRAYS, LEAF_SIZE, SparseGrid
from gpfield.pipeline import Pipeline, PipelineConfig
from gpfield.scene import (Primitive, SensorModel, SyntheticScene,
                           orbit_trajectory, render_frame)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up here while the module executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    targets = load("tracing")._targets()
    assert targets
    for owner, attr, span, _ in targets:
        assert attr in owner.__dict__, \
            f"{span}: {owner.__name__} no longer defines {attr}"


def test_every_exported_name_resolves():
    missing = [n for n in gpfield.__all__ if not hasattr(gpfield, n)]
    assert missing == []


def test_grid_bytes_reads_every_leaf_array_after_pool_growth():
    grid = SparseGrid(voxel_size=0.1, prop_channels=3)
    first = len(grid.pool["stamp"])
    for i in range(2 * first):
        grid.get_or_create_leaf((LEAF_SIZE * i, 0, 0))
    assert len(grid.pool["stamp"]) > first       # the pool grew
    row = sum(grid.pool[name][0].nbytes for name in LEAF_ARRAYS)
    assert load("run").grid_bytes(grid) == grid.n_leaves * row


# the spans two frames and one query batch reach, and the annotations
# each carries; the other traced names are ones the pipeline no longer
# calls
REACHED = {"local_field.voxelize": set(), "local_field.build": {"models"},
           "grid.lookup": set(), "query_points.normals": set(),
           "query_points.merge": {"test_points"}, "local_field.infer": set(),
           "fusion.fuse_frame": {"voxels_fused", "new_leaves"},
           "global_field.update": {"replaced"},
           "global_field.query_batch": set()}


def test_traced_run_records_each_reached_span_and_restores_each_name():
    tracing = load("tracing")
    targets = tracing._targets()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    scene = SyntheticScene([Primitive("sphere", radius=1.0,
                                      prop=[0.2, 0.5, 0.9])], prop_channels=3)
    sensor = SensorModel(width=24, height=18, focal=25.0, max_range=8.0)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        assert not any(owner.__dict__[attr] is f for (owner, attr, _, _), f
                       in zip(targets, originals))
        tracer.enabled = True
        pipe = Pipeline(PipelineConfig(prop_kind="rgb"))
        stats = [pipe.integrate_frame(render_frame(scene, sensor, pose))
                 for pose in orbit_trajectory([0, 0, 0], 2.5, 2)]
        pipe.field.query_batch(np.random.default_rng(0).uniform(
            -1.5, 1.5, size=(50, 3)))
    assert all(owner.__dict__[attr] is f for (owner, attr, _, _), f
               in zip(targets, originals))

    assert set(tracer.names) == set(REACHED)
    for name, attrs in zip(tracer.names, tracer.attrs):
        assert set(attrs) == REACHED[name], name
    spans = {name: [a for n, a in zip(tracer.names, tracer.attrs) if n == name]
             for name in REACHED}
    assert len(spans["global_field.query_batch"]) == 1
    assert [a["voxels_fused"] for a in spans["fusion.fuse_frame"]] == [
        s.n_voxels_fused for s in stats]
    assert [a["test_points"] for a in spans["query_points.merge"]] == [
        s.n_test_points for s in stats]
    assert sum(a["new_leaves"] for a in spans["fusion.fuse_frame"]) == \
        pipe.grid.n_leaves
    assert all(a["models"] > 0 for a in spans["local_field.build"])
