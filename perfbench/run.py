"""gpfield benchmark harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corridor_plan --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed (untimed), then repeats the
workload's pass, each on a fresh Pipeline, until --seconds have passed;
the first pass always runs to the end so that its outputs can be
checked and digested (see run_passes for the minimum work of a run).
It prints the metrics by name with units, a
``detail:`` line (environment, digests, sample counts, tail
percentiles), and as the last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 runs one untraced pass and then traced
passes, and reports the per-layer metrics. ``--workload all`` runs
every workload in its own process and prints one table.

The loop is closed: one caller sends frames back to back with no other
thread, so frames_per_s is the highest sensor rate the pipeline
sustains and latency at any lower rate equals service time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 3
# times import gpfield and Pipeline construction in a fresh interpreter
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import gpfield
from gpfield.pipeline import Pipeline, PipelineConfig
Pipeline(PipelineConfig(**json.loads(sys.argv[1])))
print(time.perf_counter() - t0)
"""


class Reference:
    """A fixed numpy, scipy and Python workload timed after every op.

    Its inputs do not depend on the seed and it calls no gpfield code, so
    its time tracks only the speed of the host at that moment: sorting
    and grouping, a small matrix product, a cKDTree query and a dict loop,
    the kinds of work a frame or a query batch does.
    """

    def __init__(self):
        self.points = np.random.default_rng(0).uniform(-1.0, 1.0, (4096, 3))

    def __call__(self) -> float:
        from scipy.spatial import cKDTree

        p = self.points
        t0 = time.perf_counter()
        np.unique(np.floor(p * 20.0).astype(np.int64), axis=0,
                  return_inverse=True)
        np.exp(-(p[:256] @ p[:256].T))
        counts = {}
        for i in range(600):
            key = (i & 7, i >> 3)
            counts[key] = counts.get(key, 0) + 1
        cKDTree(p[:1024]).query(p[:256], k=3)
        return (time.perf_counter() - t0) * 1e3


@dataclass
class Samples:
    # (index in pass, ms, overlap); overlap is set while two passes run
    frames: list = field(default_factory=list)
    queries: list = field(default_factory=list)   # (index, ms, overlap, points)
    loads: list = field(default_factory=list)     # ms
    refs: list = field(default_factory=list)      # Reference times, ms
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)


@dataclass
class PassResult:
    op_ms: float
    digest: str
    pipe: object = None
    mesh: object = None
    snapshot_bytes: int = 0


class Runner:
    """Times every op of a workload's passes and checks their outputs."""

    def __init__(self, wl, tracer, samples: Samples):
        self.wl = wl
        self.tracer = tracer
        self.s = samples
        self.overlap = False
        self.reference = Reference()

    def frame(self, pipe, frame, index: int) -> float:
        self.s.attempted += 1
        with self.tracer.span("op.frame") as attrs:
            t0 = time.perf_counter()
            try:
                stats = pipe.integrate_frame(frame)
            except Exception:
                stats = None
                traceback.print_exc()
            ms = (time.perf_counter() - t0) * 1e3
            if stats is not None:
                attrs["meshing_stage_ms"] = stats.stage_ms["meshing"]
        if stats is None:
            self.s.fail(f"frame {index} raised")
        self.s.frames.append((index, ms, self.overlap))
        self.s.refs.append(self.reference())
        return ms

    def query(self, pipe, points, index: int, digest) -> float:
        self.s.attempted += 1
        with self.tracer.span("op.query"):
            t0 = time.perf_counter()
            try:
                res = pipe.field.query_batch(points)
            except Exception:
                res = None
                traceback.print_exc()
            ms = (time.perf_counter() - t0) * 1e3
        self.s.queries.append((index, ms, self.overlap, len(points)))
        self.s.refs.append(self.reference())
        if res is None:
            self.s.fail(f"query batch {index} raised")
            digest.update(b"raised")
            return ms
        digest.update(res.distances.tobytes())
        if not np.isfinite(res.distances).all():
            self.s.fail(f"query batch {index}: non-finite distance")
        elif self.wl.check_props and not (
                res.properties is not None
                and np.isfinite(res.properties).all()
                and res.properties.min() >= 0.0
                and res.properties.max() <= 1.0):
            self.s.fail(f"query batch {index}: property outside [0, 1]")
        return ms

    def load(self, path):
        from gpfield.pipeline import Pipeline

        self.s.attempted += 1
        with self.tracer.span("op.load"):
            t0 = time.perf_counter()
            pipe = Pipeline.load_snapshot(path)
            ms = (time.perf_counter() - t0) * 1e3
        self.s.loads.append(ms)
        return pipe, ms

    def steps(self, k: int):
        """Pass k as a generator that yields after each op step, so that
        the scheduler can interleave two passes. Returns a PassResult."""
        from gpfield.pipeline import Pipeline

        wl = self.wl
        digest = hashlib.sha256()
        snapshot = WORK / f"{wl.name}-{os.getpid()}-{k}.snap"
        op_ms = 0.0
        try:
            pipe = Pipeline(wl.config())
            for i, frame in enumerate(wl.frames):
                op_ms += self.frame(pipe, frame, i)
                if not wl.reload:
                    op_ms += self.query(pipe, wl.batches[i], i, digest)
                yield i
            if wl.reload:
                pipe.save_snapshot(snapshot)
                pipe, ms = self.load(snapshot)
                op_ms += ms
                for j, points in enumerate(wl.batches):
                    op_ms += self.query(pipe, points, j, digest)
                    yield len(wl.frames) + j
            with self.tracer.span("op.export"):
                t0 = time.perf_counter()
                mesh = pipe.export_mesh()
                op_ms += (time.perf_counter() - t0) * 1e3
            for arr in (mesh.vertices, mesh.triangles, mesh.properties):
                digest.update(arr.tobytes())
            if not wl.reload:
                pipe.save_snapshot(snapshot)
            data = snapshot.read_bytes()
            digest.update(data)
        finally:
            snapshot.unlink(missing_ok=True)
        return PassResult(op_ms, digest.hexdigest(), pipe, mesh, len(data))


def run_passes(runner: Runner, deadline: float, trace: bool) -> dict:
    """Run passes until the deadline; return {pass index: PassResult}.

    Pass 0 always completes; with tracing, pass 1 (the first traced
    pass) completes too. On the frame workloads the next pass starts two
    tenths of a pass before the current one ends, and the two alternate
    op by op, so that the late window of one pass and the early window
    of the next are timed side by side and host speed drift cancels out
    of the growth ratios.
    """
    import metrics as M

    wl = runner.wl
    early, late = M.growth_windows(len(wl.frames))
    # pass k+1's step j runs beside pass k's step offset + 1 + j
    offset = None if wl.reload else len(wl.frames) - len(late) - early.start - 1
    need = 2 if trace else 1
    live = {0: [runner.steps(0), -1]}
    done = {}

    def satisfied() -> bool:
        if len(done) < need:
            return False
        return offset is None or 1 in done or (
            1 in live and live[1][1] >= early.stop - 1)

    try:
        while live:
            runner.overlap = len(live) > 1
            for k in sorted(live):
                # with tracing, pass 0 is the untraced reference for
                # trace_overhead and the digest comparison
                runner.tracer.enabled = trace and k > 0
                try:
                    live[k][1] = next(live[k][0])
                except StopIteration as stop:
                    done[k] = stop.value
                    del live[k]
                    if k > 0:
                        done[k].pipe = done[k].mesh = None
                finally:
                    runner.tracer.enabled = False
            overdue = time.perf_counter() >= deadline
            if overdue and satisfied():
                break
            newest = max(live, default=None)
            if offset is None:
                can_start = not live
            else:
                can_start = newest is not None and live[newest][1] == offset
            if can_start and (not overdue or len(done) + len(live) < 2):
                k = len(done) + len(live)
                live[k] = [runner.steps(k), -1]
    finally:
        for gen, _ in live.values():
            gen.close()
    return done


def measure_setup(config_kwargs: dict, n: int) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE,
                               json.dumps(config_kwargs)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def quality(wl, pipe, mesh) -> dict:
    from gpfield.pipeline import eval_chamfer, eval_distance_rmse
    from workloads import COMPLETENESS_THRESHOLD, RMSE_BAND

    rmse, _ = eval_distance_rmse(pipe.field, wl.scene.sdf, wl.eval_box,
                                 wl.rmse_resolution, band=RMSE_BAND)
    chamfer, completeness = eval_chamfer(mesh.vertices, wl.reference,
                                         COMPLETENESS_THRESHOLD)
    return {"field_rmse_m": rmse, "chamfer_m": chamfer,
            "completeness": completeness}


def grid_bytes(grid) -> int:
    return sum(leaf.distance.nbytes + leaf.dist_weight.nbytes
               + leaf.prop_weight.nbytes + leaf.prop.nbytes
               + leaf.value_mask.nbytes + leaf.observed.nbytes
               for leaf in grid.leaves())


def environment(seed: int) -> dict:
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10
                                ).stdout.strip() or None
    except OSError:
        commit = None
    blas_env = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "blas_threads_env": blas_env, "seed": seed,
            "git_commit": commit, "platform": platform.platform()}


def end_to_end(wl, s: Samples, setup: list, q: dict) -> tuple[dict, dict]:
    """Gated metrics, and the ungated ones for the detail line.

    Gated op costs are in units of the median Reference time of the run
    (unit "ref"), which cancels most of the host's speed changes; the
    same costs in milliseconds are reported ungated.
    """
    import metrics as M

    frame_ms = [ms for _, ms, _ in s.frames]
    query_ms = [ms for _, ms, _, _ in s.queries]
    us_per_point = [ms * 1e3 / n for _, ms, _, n in s.queries]
    ref_ms = M.median(s.refs)
    frame_tail, frame_p = M.tail(frame_ms)
    query_tail, query_p = M.tail(query_ms)
    # growth windows of interleaved passes use only the interleaved ops
    frames = [(i, ms) for i, ms, o in s.frames if o or wl.reload]
    queries = [(i, ms) for i, ms, o, _ in s.queries if o or wl.reload]
    values = {
        "frame_cost_mean": M.mean(frame_ms) / ref_ms,
        "frame_cost_p50": M.median(frame_ms) / ref_ms,
        "frame_cost_growth": M.growth(frames, len(wl.frames)),
        "query_cost_p50": M.median(query_ms) / ref_ms,
        "query_cost_growth": M.growth(queries, len(wl.batches)),
        "query_cost_per_kpoint": M.median(us_per_point) / ref_ms,
        "setup_s": M.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **q,
    }
    ungated = {
        "frames_per_s": {"value": 1e3 / M.mean(frame_ms), "unit": "1/s"},
        "frame_ms_p50": {"value": M.median(frame_ms), "unit": "ms"},
        "frame_ms_tail": {"value": frame_tail, "unit": "ms", "percentile": frame_p},
        "query_ms_p50": {"value": M.median(query_ms), "unit": "ms"},
        "query_ms_tail": {"value": query_tail, "unit": "ms", "percentile": query_p},
        "query_us_per_point": {"value": M.median(us_per_point), "unit": "us"},
        "reference_ms": {"value": ref_ms, "unit": "ms"}}
    detail = {"ungated": ungated, "frames_timed": len(frame_ms),
              "batches_timed": len(query_ms), "setup_samples_s": setup}
    return values, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    import metrics as M
    import workloads
    from tracing import Instrumentation, Tracer

    WORK.mkdir(exist_ok=True)
    wl = workloads.build(name, seed, smoke)
    setup = [] if wl.reload else measure_setup(
        wl.config_kwargs, 1 if smoke else SETUP_SAMPLES)
    samples = Samples()
    tracer = Tracer()
    runner = Runner(wl, tracer, samples)
    with Instrumentation(tracer) if trace else nullcontext():
        passes = run_passes(runner, time.perf_counter() + seconds, trace)
    first = passes[0]
    q = quality(wl, first.pipe, first.mesh)

    digests = sorted({p.digest for p in passes.values()})
    if len(digests) != 1:
        samples.fail("complete passes produced different output digests")
    if wl.acceptance and not (q["chamfer_m"] < 0.05 and q["completeness"] > 0.95):
        samples.fail(f"acceptance-3 thresholds missed: chamfer "
                     f"{q['chamfer_m']:.4f} m, completeness {q['completeness']:.3f}")

    detail = {"workload": name, "trace": int(trace), "smoke": smoke,
              "complete_passes": len(passes), "digest": digests[0],
              "env": environment(seed), "failures": samples.failures}
    if trace:
        run_values = {"grid.leaves": float(first.pipe.grid.n_leaves),
                      "grid.bytes": float(grid_bytes(first.pipe.grid)),
                      "global_field.nodes": float(first.pipe.field.n_nodes),
                      "pipeline.snapshot_bytes": float(first.snapshot_bytes),
                      "trace_overhead": passes[1].op_ms / first.op_ms}
        values = M.layer_metrics(tracer, run_values)
        specs = {m.name: m.unit for m in M.PER_LAYER}
        trace_path = WORK / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        if wl.reload:
            setup = [ms / 1e3 for ms in samples.loads]
        values, more = end_to_end(wl, samples, setup, q)
        detail.update(more)
        specs = {m.name: m.unit for m in M.END_TO_END}
    detail.setdefault("ungated", {})["failed_frac"] = {
        "value": samples.failed / max(1, samples.attempted), "unit": "ratio"}
    line = {"correct": samples.failed == 0, "attempted": samples.attempted,
            "failed": samples.failed,
            "metrics": {k: {"value": float(values[k]), "unit": u}
                        for k, u in specs.items()}}
    return {"line": line, "detail": detail}


def print_result(result: dict) -> None:
    line = result["line"]
    for k, m in {**line["metrics"], **result["detail"]["ungated"]}.items():
        print(f"{k:32s} {m['value']:.6g} {m['unit']}")
    print("detail: " + json.dumps(result["detail"], sort_keys=True))
    print(json.dumps(line), flush=True)


def run_all(args) -> int:
    import workloads

    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        out = proc.stdout.strip().splitlines()
        detail = json.loads(next(l for l in out if l.startswith("detail: "))[8:])
        results[name] = {"line": json.loads(out[-1]), "detail": detail}
    names = list(results)
    print(f"{'metric':28s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    rows = {n: {**r["line"]["metrics"], **r["detail"]["ungated"]}
            for n, r in results.items()}
    for k, m in rows[names[0]].items():
        vals = " ".join(f"{rows[n][k]['value']:14.6g}" for n in names)
        print(f"{k:28s} {m['unit']:6s} {vals}")
    print(json.dumps({n: r["line"] for n, r in results.items()}), flush=True)
    return 0 if all(r["line"]["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sphere_orbit, corridor_plan, map_query or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny passes for the benchmark's own tests; skips the "
                         "acceptance-3 thresholds, which need the full orbit")
    args = ap.parse_args(argv)

    if not (SRC / "gpfield" / "__init__.py").is_file():
        print(f"error: no gpfield sources under {SRC}; run from the root of "
              "a gpfield checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gpfield
    if SRC not in Path(gpfield.__file__).resolve().parents:
        print(f"error: gpfield imported from {gpfield.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
