"""Span recording around gpfield's public functions, from outside the library.

Tracing replaces the name a caller looks up (a module attribute such as
``gpfield.pipeline.mesh_leaf`` or a class attribute such as
``SparseGrid.lookup``) with a wrapper that records a span and calls the
original. Spans live in memory as (name, start, end, parent, attrs) and
are written out once, when the run ends. Wrappers return the original
result untouched, so a traced run must produce the same outputs as an
untraced one; the harness checks that through output digests.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: list[dict] = []
        self._stack: list[int] = []
        self.enabled = False

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append({})
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def add(self, name, start, end, parent=-1, **attrs) -> int:
        """Append a finished span (used by tests and for synthetic trees)."""
        self.names.append(name)
        self.starts.append(float(start))
        self.ends.append(float(end))
        self.parents.append(int(parent))
        self.attrs.append(dict(attrs))
        return len(self.names) - 1

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover.

        Children may overlap one another; the covered part is the union
        of their intervals clipped to the parent.
        """
        kids = self.children()
        out = []
        for i in range(len(self.names)):
            lo, hi = self.starts[i], self.ends[i]
            ivs = sorted((max(lo, self.starts[c]), min(hi, self.ends[c]))
                         for c in kids[i])
            covered = 0.0
            cur_lo = cur_hi = None
            for a, b in ivs:
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((hi - lo) - covered)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self.names)):
                f.write(json.dumps({"name": self.names[i],
                                    "start": self.starts[i],
                                    "end": self.ends[i],
                                    "parent": self.parents[i],
                                    "attrs": self.attrs[i]}) + "\n")

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.idx = -1

    def __enter__(self) -> dict:
        if not self.tracer.enabled:
            return {}
        self.idx = self.tracer.open(self.name)
        return self.tracer.attrs[self.idx]

    def __exit__(self, *exc):
        if self.idx >= 0:
            self.tracer.close(self.idx)
        return False


def _wrap(tracer: Tracer, fn, name: str, annotate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if annotate is not None:
            tracer.attrs[idx].update(annotate(args, out))
        return out
    return wrapper


def _targets():
    """(owner, attribute, span name, annotate) for every traced call.

    The owner is where the caller looks the name up: pipeline.py imports
    voxelize, fuse_frame and mesh_leaf by name, and reaches
    build_voxelized, query_points and gp through their modules.
    """
    from gpfield import global_field, gp, grid, local_field, pipeline, query_points

    return [
        (pipeline, "voxelize", "local_field.voxelize", None),
        (local_field, "build_voxelized", "local_field.build",
         lambda a, out: {"models": len(out.models)}),
        (local_field.LocalField, "query_batch", "local_field.infer", None),
        (gp, "train", "gp.train", None),
        (query_points, "generate", "query_points.generate", None),
        (query_points, "estimate_normals", "query_points.normals", None),
        (query_points, "normal_augment", "query_points.normals", None),
        (query_points, "merge", "query_points.merge",
         lambda a, out: {"test_points": len(out)}),
        (grid.SparseGrid, "lookup", "grid.lookup", None),
        (grid.SparseGrid, "gather_block", "grid.gather_block", None),
        (grid.SparseGrid, "observed_voxels", "grid.observed_voxels", None),
        (pipeline, "fuse_frame", "fusion.fuse_frame",
         lambda a, out: {"voxels_fused": out.voxels_fused,
                         "new_leaves": out.new_leaves}),
        (pipeline, "mesh_leaf", "meshing.mesh_leaf",
         lambda a, out: {"useful": bool(out.tris), "vertices": len(out.verts)}),
        (global_field.GlobalField, "update", "global_field.update",
         lambda a, out: {"replaced": len(a[1])}),
        (global_field.GlobalField, "query_batch", "global_field.query_batch",
         None),
        (gp, "infer_occupancy", "gp.infer_occupancy", None),
        (gp, "infer_distance_gradient", "gp.infer_distance_gradient", None),
        (gp, "infer_property", "gp.infer_property", None),
    ]


class Instrumentation:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self) -> Tracer:
        for owner, attr, name, annotate in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, original, name, annotate))
        return self.tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
