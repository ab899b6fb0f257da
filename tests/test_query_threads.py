"""The global query batch's two threads: the sign lookup runs on a worker
beside route, train and moments, and scipy's OpenBLAS keeps to one thread
on the calling thread for the batch. Neither may change an output, an
error raised beside the lookup leaves only once the lookup has finished,
and the caller's BLAS thread count is the same after a batch as before.
"""

import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from gpfield import gp
from gpfield.global_field import GlobalField, SignIndex
from gpfield.grid import SparseGrid, VoxelState
from gpfield.pipeline import Pipeline, PipelineConfig
from gpfield.scene import (Primitive, SensorModel, SyntheticScene, look_at,
                           render_frame)


class InlineExecutor:
    """Runs each submitted call at once, on the calling thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def corridor_with_props(n=10):
    """A corridor walk whose four walls carry rgb values, and its box."""
    walls = [([0.0, -1.0, 0.0], [0.9, 0.1, 0.1]),
             ([0.0, 1.0, 0.0], [0.1, 0.9, 0.1]),
             ([0.0, 0.0, -1.0], [0.1, 0.1, 0.9]),
             ([0.0, 0.0, 1.0], [0.5, 0.5, 0.5])]
    scene = SyntheticScene([Primitive("plane", normal=nrm, offset=-1.0,
                                      prop=rgb) for nrm, rgb in walls],
                           prop_channels=3)
    sensor = SensorModel(kind="pinhole", width=24, height=18, focal=25.0,
                         max_range=3.5, noise_sigma=0.005, seed=7)
    frames = []
    for i in range(n):
        eye = np.array([0.05 * i, 0.0, 0.0])
        frames.append(render_frame(scene, sensor,
                                   look_at(eye, eye + [1.0, 0.0, 0.0]),
                                   t=0.1 * i))
    return frames, ((0.2, -0.9, -0.9), (3.5, 0.9, 0.9))


def read_blas_threads(setter) -> int:
    """The calling thread's BLAS thread count, left as it was."""
    count = setter(1)
    setter(count)
    return count


@pytest.mark.parametrize("variant", ["inline_lookup", "no_blas_setter"])
def test_batches_are_bit_equal_whatever_thread_counts_and_runs_the_lookup(
        monkeypatch, variant):
    """After every frame of a growing corridor with properties, the field
    answers a batch bit for bit as a twin over the same grid whose sign
    lookup runs inline on the calling thread, or whose batches find no
    BLAS thread setter. The field's lookups run on its worker, made on
    its first batch."""
    frames, box = corridor_with_props()
    pipe = Pipeline(PipelineConfig(prop_kind="rgb"))
    c = pipe.config
    twin = GlobalField(pipe.params, pipe.grid, smooth_lambda=c.smooth_lambda,
                       query_nodes=c.query_nodes, sign_radius=c.sign_radius,
                       prop_clip=c.prop_clip)
    if variant == "inline_lookup":
        twin._sign_worker = InlineExecutor()
    update = pipe.field.update
    monkeypatch.setattr(pipe.field, "update", lambda changed: (
        twin.update(changed), update(changed))[1])
    threads = {}
    lookup = SignIndex.lookup

    def spy(index, points, radius):
        threads.setdefault(id(index), set()).add(threading.current_thread())
        return lookup(index, points, radius)

    monkeypatch.setattr(SignIndex, "lookup", spy)
    assert pipe.field._sign_worker is None
    rng = np.random.default_rng(13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # the two threads trade the GIL often
    try:
        for frame in frames:
            pipe.integrate_frame(frame)
            pts = rng.uniform(box[0], box[1], size=(400, 3))
            got = pipe.field.query_batch(pts)
            with pytest.MonkeyPatch.context() as mp:
                if variant == "no_blas_setter":
                    mp.setattr(gp, "_blas_thread_setter", lambda: None)
                want = twin.query_batch(pts)
            for name in ("distances", "variances", "gradients", "properties",
                         "prop_variances", "free_space"):
                assert (getattr(got, name).tobytes()
                        == getattr(want, name).tobytes()), name
            assert got.stats == want.stats
    finally:
        sys.setswitchinterval(interval)
    assert got.properties is not None and not got.free_space.all()
    main = threading.main_thread()
    assert main not in threads[id(pipe.field._sign_index)]
    if variant == "inline_lookup":
        assert threads[id(twin._sign_index)] == {main}


def field_with_signs(props: bool = False) -> GlobalField:
    """Two nodes over a grid with one observed voxel."""
    grid = SparseGrid(voxel_size=0.05)
    grid.set((0, 0, 0), VoxelState(-0.01, 1.0, observed=True))
    field = GlobalField(gp.KernelParams(length_scale=0.1), grid=grid)
    rng = np.random.default_rng(2)
    field.update({
        (0, 0, 0): (rng.normal(scale=0.05, size=(8, 3)),
                    rng.random((8, 3)) if props else None),
        (8, 0, 0): (rng.normal(loc=0.4, scale=0.05, size=(6, 3)),
                    rng.random((6, 3)) if props else None)})
    return field


def failing_train(*args, **kwargs):
    raise RuntimeError("training failed")


def test_an_error_beside_the_lookup_leaves_once_the_lookup_finished(
        monkeypatch):
    """A gp.train_many that raises while the lookup still runs: the error
    reaches the caller only after the lookup has returned."""
    release, finished = threading.Event(), threading.Event()
    lookup = SignIndex.lookup

    def slow_lookup(index, points, radius):
        release.wait(timeout=10)
        time.sleep(0.05)
        out = lookup(index, points, radius)
        finished.set()
        return out

    def release_and_fail(*args, **kwargs):
        release.set()
        failing_train()

    monkeypatch.setattr(SignIndex, "lookup", slow_lookup)
    monkeypatch.setattr(gp, "train_many", release_and_fail)
    field = field_with_signs()
    with pytest.raises(RuntimeError, match="training failed"):
        field.query_batch(np.zeros((5, 3)))
    assert finished.is_set()


def test_a_batch_holds_one_blas_thread_and_restores_the_callers_count(
        monkeypatch):
    """Inside a batch scipy's OpenBLAS runs one thread on the calling
    thread; after it, returning or raising, the count is what it was."""
    setter = gp._blas_thread_setter()
    if setter is None:
        pytest.skip("scipy's BLAS has no openblas_set_num_threads_local")
    seen = []
    moments = gp.routed_moments

    def spy(*args, **kwargs):
        seen.append(read_blas_threads(setter))
        return moments(*args, **kwargs)

    monkeypatch.setattr(gp, "routed_moments", spy)
    field = field_with_signs(props=True)
    previous = setter(2)        # two threads, where the host has them
    try:
        before = read_blas_threads(setter)
        field.query_batch(np.random.default_rng(3).normal(size=(40, 3)))
        assert read_blas_threads(setter) == before
        monkeypatch.setattr(gp, "train_many", failing_train)
        with pytest.raises(RuntimeError, match="training failed"):
            field.query_batch(np.zeros((5, 3)))
        assert read_blas_threads(setter) == before
    finally:
        setter(previous)
    assert seen == [1]
