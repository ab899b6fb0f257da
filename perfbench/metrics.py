"""Metric definitions, summary statistics and per-layer aggregation.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's metric tables. The
name, unit, direction and bound of each must match ``BENCHMARK.json``
(a test checks this); the rest says where a metric is the headline
number and which end-to-end metric a layer metric should move.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass

BOTH = "sphere_orbit, corridor_plan"
ALL = "sphere_orbit, corridor_plan, map_query"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    headline_on: str   # workloads where this is the number to watch


# Every workload reports every metric (definitions in README.md). On
# map_query the frames are the lidar frames that build the map; on
# sphere_orbit and corridor_plan each query batch follows a frame. Op
# costs in unit "ref" are multiples of the run's median Reference time
# (run.py), a fixed workload timed after every op.
END_TO_END = [
    EndToEnd("frame_cost_mean", "ref", "lower", 0.25, BOTH),
    EndToEnd("frame_cost_p50", "ref", "lower", 0.25, BOTH),
    EndToEnd("frame_cost_growth", "ratio", "lower", 0.25, "corridor_plan"),
    EndToEnd("query_cost_p50", "ref", "lower", 0.25, "corridor_plan"),
    EndToEnd("query_cost_growth", "ratio", "lower", 0.25, "corridor_plan"),
    EndToEnd("query_cost_per_kpoint", "ref", "lower", 0.25, "map_query"),
    EndToEnd("setup_s", "s", "lower", 0.25, ALL),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1, ALL),
    EndToEnd("field_rmse_m", "m", "lower", 0.15, ALL),
    EndToEnd("chamfer_m", "m", "lower", 0.15, "sphere_orbit"),
    EndToEnd("completeness", "ratio", "higher", 0.15, "sphere_orbit"),
]

# Printed by name in every untraced run and kept in the detail line, but
# not in BENCHMARK.json, so no bound gates them. The host these were
# tuned on is shared: over ten seeds its speed moved op times in
# milliseconds by up to half between runs, and their spread reached
# 0.47, while the same costs in "ref" units moved about a third as much.
# The tails (the 11th-slowest of about 70 ops, clustered in a few
# seconds of a pass) spread beyond 0.25 even in quiet periods.
# failed_frac is 0 on a correct run; the result line carries it as
# failed and attempted.
UNGATED = [("frames_per_s", "1/s"), ("frame_ms_p50", "ms"),
           ("frame_ms_tail", "ms"), ("query_ms_p50", "ms"),
           ("query_ms_tail", "ms"), ("query_us_per_point", "us"),
           ("reference_ms", "ms"), ("failed_frac", "ratio")]


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str         # the end-to-end metric and workload it should move


_INTEGRATION = ("frame_cost_p50 and frame_cost_mean on sphere_orbit and "
                "corridor_plan; no change to query_cost_per_kpoint or "
                "setup_s on map_query")
_MESHING = ("frame_cost_p50 most on sphere_orbit, and setup_s on map_query; "
            "no change to query_cost_per_kpoint")
_LOCAL = ("frame_cost_p50 on sphere_orbit and corridor_plan (about a tenth "
          "of frame time, which caps the gain)")
_GLOBAL = ("query_cost_p50 and query_cost_growth on corridor_plan, and "
           "query_cost_per_kpoint on map_query; no change to "
           "frame_cost_p50 on sphere_orbit")
_MEMORY = "peak_rss_mb on every workload"

PER_LAYER = [
    PerLayer("query_points.generate_ms", "ms", "lower", _INTEGRATION),
    PerLayer("query_points.normals_ms", "ms", "lower", _INTEGRATION),
    PerLayer("query_points.test_points", "count", "lower", _INTEGRATION),
    PerLayer("grid.lookup_ms", "ms", "lower", _INTEGRATION),
    PerLayer("grid.lookup_calls", "count", "lower", _INTEGRATION),
    PerLayer("fusion.fuse_ms", "ms", "lower", _INTEGRATION),
    PerLayer("fusion.voxels_fused", "count", "lower", _INTEGRATION),
    PerLayer("fusion.new_leaves", "count", "lower", _INTEGRATION),
    PerLayer("fusion.fused_ratio", "ratio", "higher", _INTEGRATION),
    PerLayer("meshing.mesh_leaf_ms", "ms", "lower", _MESHING),
    PerLayer("meshing.leaves_meshed", "count", "lower", _MESHING),
    PerLayer("meshing.useful_ratio", "ratio", "higher", _MESHING),
    PerLayer("meshing.vertices_out", "count", "lower", _MESHING),
    PerLayer("meshing.export_ms", "ms", "lower", _MESHING),
    PerLayer("grid.gather_block_ms", "ms", "lower", _MESHING),
    PerLayer("pipeline.remesh_self_ms", "ms", "lower", _MESHING),
    PerLayer("local_field.voxelize_ms", "ms", "lower", _LOCAL),
    PerLayer("local_field.build_ms", "ms", "lower", _LOCAL),
    PerLayer("local_field.infer_ms", "ms", "lower", _LOCAL),
    PerLayer("local_field.models", "count", "lower", _LOCAL),
    PerLayer("gp.local_train_ms", "ms", "lower", _LOCAL),
    PerLayer("global_field.sign_rebuilds", "count", "lower", _GLOBAL),
    PerLayer("global_field.train_on_query", "count", "lower", _GLOBAL),
    PerLayer("global_field.query_self_ms", "ms", "lower", _GLOBAL),
    PerLayer("global_field.nodes_per_batch", "count", "lower", _GLOBAL),
    PerLayer("global_field.nodes", "count", "lower", _GLOBAL),
    PerLayer("global_field.update_ms", "ms", "lower", _GLOBAL),
    PerLayer("global_field.nodes_replaced", "count", "lower", _GLOBAL),
    PerLayer("gp.global_train_ms", "ms", "lower", _GLOBAL),
    PerLayer("gp.infer_ms", "ms", "lower", _GLOBAL),
    PerLayer("gp.infer_calls", "count", "lower", _GLOBAL),
    PerLayer("grid.observed_voxels_ms", "ms", "lower", _GLOBAL),
    PerLayer("grid.leaves", "count", "lower", _MEMORY),
    PerLayer("grid.bytes", "bytes", "lower", _MEMORY),
    PerLayer("pipeline.snapshot_bytes", "bytes", "lower", _MEMORY),
    PerLayer("pipeline.snapshot_load_ms", "ms", "lower", "setup_s on map_query"),
    PerLayer("trace_overhead", "ratio", "lower",
             "nothing; traced op time over untraced op time of one pass"),
]


# -- summary statistics ----------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest whole percentile that leaves at
    least ten samples above it, by nearest rank.

    Below 20 samples that percentile would not reach the median, and the
    median is returned with percentile 50.
    """
    v = sorted(values)
    n = len(v)
    if n < 20:
        return median(v), 50.0
    p = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100.0))
    return float(v[rank - 1]), float(p)


def growth_windows(n: int) -> tuple[range, range]:
    """(early, late) op indices of a pass of n ops.

    The late window is the last tenth; the early window has the same
    length and starts after the first tenth, which is warm-up. Windows
    hold at least two ops.
    """
    width = max(2, n // 10)
    skip = max(1, n // 10)
    return range(skip, min(n, skip + width)), range(max(0, n - width), n)


def growth(samples, n: int) -> float:
    """Median of the late window over median of the early window.

    samples are (index in pass, value) pairs pooled over passes.
    """
    early, late = growth_windows(n)
    e = median(v for i, v in samples if i in early)
    l_ = median(v for i, v in samples if i in late)
    return l_ / e if e > 0 else float("nan")


# -- per-layer aggregation of a trace ------------------------------------------------


def _op_summaries(tr):
    """Per root op span: summed ms, call counts and summed attributes of
    its descendants, keyed by span name (qualified by the ancestor where
    the same function serves two layers)."""
    self_ms = tr.self_times()
    kids = tr.children()
    ops = []
    for root, parent in enumerate(tr.parents):
        if parent >= 0 or not tr.names[root].startswith("op."):
            continue
        ms = defaultdict(float)
        calls = defaultdict(int)
        attrs = defaultdict(float)
        stack = [(c, ()) for c in kids[root]]
        while stack:
            i, anc = stack.pop()
            name = tr.names[i]
            if name in ("gp.train", "grid.observed_voxels") or name.startswith("gp.infer"):
                if "global_field.query_batch" in anc:
                    name += "@query"
                elif "local_field.build" in anc:
                    name += "@build"
            ms[name] += tr.duration(i) * 1e3
            calls[name] += 1
            if name == "global_field.query_batch":
                ms["global_field.query_batch.self"] += self_ms[i] * 1e3
            if name.startswith("gp.infer") and name.endswith("@query"):
                ms["gp.infer@query"] += tr.duration(i) * 1e3
                calls["gp.infer@query"] += 1
            for k, v in tr.attrs[i].items():
                attrs[f"{tr.names[i]}.{k}"] += float(v)
            stack.extend((c, anc + (tr.names[i],)) for c in kids[i])
        ops.append({"op": tr.names[root], "dur_ms": tr.duration(root) * 1e3,
                    "root_attrs": tr.attrs[root], "ms": ms, "calls": calls,
                    "attrs": attrs})
    return ops


def layer_metrics(tr, run_values: dict) -> dict:
    """Every PER_LAYER metric from a trace.

    Times are medians over the ops of the metric's scope, counts are
    means (so that rare events such as a sign-index rebuild show), and
    ratios are totals over totals. run_values supplies the run-scope
    metrics that are read from the program state rather than the trace.
    """
    ops = _op_summaries(tr)
    frames = [o for o in ops if o["op"] == "op.frame"]
    batches = [o for o in ops if o["op"] == "op.query"]

    def med_ms(group, key):
        return median(o["ms"][key] for o in group)

    def mean_calls(group, key):
        return mean(o["calls"][key] for o in group)

    def mean_attr(group, key):
        return mean(o["attrs"][key] for o in group)

    def ratio(num, den):
        return num / den if den else 0.0

    f = frames
    b = batches
    out = {
        "query_points.generate_ms": med_ms(f, "query_points.generate"),
        "query_points.normals_ms": med_ms(f, "query_points.normals"),
        "query_points.test_points": mean_attr(f, "query_points.merge.test_points"),
        "grid.lookup_ms": med_ms(f, "grid.lookup"),
        "grid.lookup_calls": mean_calls(f, "grid.lookup"),
        "fusion.fuse_ms": med_ms(f, "fusion.fuse_frame"),
        "fusion.voxels_fused": mean_attr(f, "fusion.fuse_frame.voxels_fused"),
        "fusion.new_leaves": mean_attr(f, "fusion.fuse_frame.new_leaves"),
        "fusion.fused_ratio": ratio(
            sum(o["attrs"]["fusion.fuse_frame.voxels_fused"] for o in f),
            sum(o["attrs"]["query_points.merge.test_points"] for o in f)),
        "meshing.mesh_leaf_ms": med_ms(f, "meshing.mesh_leaf"),
        "meshing.leaves_meshed": mean_calls(f, "meshing.mesh_leaf"),
        "meshing.useful_ratio": ratio(
            sum(o["attrs"]["meshing.mesh_leaf.useful"] for o in f),
            sum(o["calls"]["meshing.mesh_leaf"] for o in f)),
        "meshing.vertices_out": mean_attr(f, "meshing.mesh_leaf.vertices"),
        "meshing.export_ms": median(o["dur_ms"] for o in ops
                                    if o["op"] == "op.export"),
        "grid.gather_block_ms": med_ms(f, "grid.gather_block"),
        "pipeline.remesh_self_ms": median(
            o["root_attrs"].get("meshing_stage_ms", 0.0)
            - o["ms"]["meshing.mesh_leaf"] for o in f),
        "local_field.voxelize_ms": med_ms(f, "local_field.voxelize"),
        "local_field.build_ms": med_ms(f, "local_field.build"),
        "local_field.infer_ms": med_ms(f, "local_field.infer"),
        "local_field.models": mean_attr(f, "local_field.build.models"),
        "gp.local_train_ms": med_ms(f, "gp.train@build"),
        "global_field.sign_rebuilds": mean_calls(b, "grid.observed_voxels@query"),
        "global_field.train_on_query": mean_calls(b, "gp.train@query"),
        "global_field.query_self_ms": med_ms(b, "global_field.query_batch.self"),
        "global_field.nodes_per_batch": mean_calls(b, "gp.infer_occupancy@query"),
        "global_field.update_ms": med_ms(f, "global_field.update"),
        "global_field.nodes_replaced": mean_attr(f, "global_field.update.replaced"),
        "gp.global_train_ms": med_ms(b, "gp.train@query"),
        "gp.infer_ms": med_ms(b, "gp.infer@query"),
        "gp.infer_calls": mean_calls(b, "gp.infer@query"),
        "grid.observed_voxels_ms": med_ms(b, "grid.observed_voxels@query"),
        "pipeline.snapshot_load_ms": median(o["dur_ms"] for o in ops
                                            if o["op"] == "op.load"),
    }
    out.update(run_values)
    missing = {m.name for m in PER_LAYER} - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
