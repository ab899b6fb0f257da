"""Quick tests of the benchmark itself: spec, statistics, tracing, smoke runs.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import metrics as M  # noqa: E402
import workloads  # noqa: E402
from tracing import Instrumentation, Tracer  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("detail: "))[8:])
    return json.loads(lines[-1]), detail


# -- spec ---------------------------------------------------------------------------


def test_benchmark_json_matches_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in M.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in M.PER_LAYER]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


# -- statistics ---------------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    for n in (20, 37, 60, 84, 500):
        values = list(range(n))
        value, pct = M.tail(values)
        assert sum(v > value for v in values) >= 10
        assert sum(v > value for v in values) < 10 + n / 100 + 1
        assert 0 < pct < 100
    assert M.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert M.tail(list(range(19)))[1] == 50.0


def test_growth_windows_and_ratio():
    early, late = M.growth_windows(60)
    assert (early, late) == (range(6, 12), range(54, 60))
    early, late = M.growth_windows(6)
    assert (early, late) == (range(1, 3), range(4, 6))
    samples = [(i, 10.0 + i) for i in range(60)] * 2
    assert M.growth(samples, 60) == pytest.approx(66.5 / 18.5)


# -- tracing ------------------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    tr = Tracer()
    root = tr.add("op.frame", 0.0, 10.0)
    a = tr.add("a", 1.0, 4.0, root)
    tr.add("a.inner", 2.0, 3.0, a)
    tr.add("b", 3.0, 6.0, root)           # overlaps a
    tr.add("c", 9.0, 12.0, root)          # runs past the parent's end
    leaf = tr.add("leaf", 7.0, 8.0)       # a root with no children
    self_t = tr.self_times()
    assert self_t[root] == pytest.approx(10.0 - 5.0 - 1.0)   # covered: [1,6] and [9,10]
    assert self_t[a] == pytest.approx(2.0)
    assert self_t[leaf] == pytest.approx(1.0)
    assert tr.children()[root] == [1, 3, 4]


def test_instrumentation_restores_originals():
    from gpfield import gp, pipeline
    from gpfield.grid import SparseGrid

    before = (pipeline.mesh_leaf, gp.train, SparseGrid.lookup)
    tr = Tracer()
    with Instrumentation(tr):
        assert pipeline.mesh_leaf is not before[0]
        assert SparseGrid.__dict__["lookup"] is not before[2]
    assert (pipeline.mesh_leaf, gp.train, SparseGrid.lookup) == before


# -- runs -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_runs():
    """Per workload: two untraced runs and one traced run on one seed."""
    out = {}
    for name in workloads.NAMES:
        base = ["--workload", name, "--seed", "3", "--seconds", "0", "--smoke"]
        out[name] = [parse(run_bench(*base, "--trace", "0")),
                     parse(run_bench(*base, "--trace", "0")),
                     parse(run_bench(*base, "--trace", "1"))]
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_metric(smoke_runs, name):
    (line, detail), _, (traced, _) = smoke_runs[name]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [m.name for m in M.END_TO_END]
    for key, m in line["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, key
    ungated = sorted((k, m["unit"]) for k, m in detail["ungated"].items())
    assert ungated == sorted(M.UNGATED)
    assert list(traced["metrics"]) == [m.name for m in M.PER_LAYER]
    assert traced["correct"]
    assert traced["metrics"]["trace_overhead"]["value"] > 0
    for key in ("nproc", "python", "numpy", "scipy", "blas_threads_env", "seed"):
        assert key in detail["env"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_digest_equal_across_runs_and_with_tracing(smoke_runs, name):
    digests = {detail["digest"] for _, detail in smoke_runs[name]}
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "sphere_orbit", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
