"""Block-streamed lattices: lattice_blocks, and the evaluation that reads
it, against the whole-lattice code they replaced (lattice_oracle)."""

import tracemalloc

import numpy as np
import pytest

import lattice_oracle
from gpfield import scene as scene_mod
from gpfield.pipeline import (EVAL_BATCH, Pipeline, PipelineConfig,
                              eval_distance_rmse)
from gpfield.scene import (Primitive, SensorModel, SyntheticScene,
                           lattice_blocks, lattice_points, orbit_trajectory,
                           render_frame, surface_samples)

# block sizes: the default, one that splits every query batch, and a few rows
BLOCKS = [None, 1000, 7]


def set_block(monkeypatch, rows):
    if rows is not None:
        monkeypatch.setattr(scene_mod, "LATTICE_BLOCK", rows)


class RecordingField:
    """query_batch stand-in that keeps every batch it is sent and answers
    a distance that depends on the whole batch, so a point's answer
    changes when its batch does."""

    def __init__(self):
        self.batches = []

    def query_batch(self, pts):
        self.batches.append(pts.copy())
        out = type("R", (), {})()
        out.distances = pts[:, 0] * 1e-3 + pts[:, 2].mean() + len(pts) * 1e-7
        return out


@pytest.mark.parametrize("rows", BLOCKS)
@pytest.mark.parametrize("bounds, resolution", [
    (((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 0.5),
    (((-1.3, -1.3, -1.3), (1.3, 1.3, 0.0)), 0.04),
    (((-1.0, -2.0), (1.0, 2.0)), 0.01),
    (((0.0, 0.0, 0.0), (-1.0, 1.0, 1.0)), 0.5),     # no points
])
def test_blocks_concatenate_to_lattice_points(monkeypatch, rows, bounds,
                                              resolution):
    set_block(monkeypatch, rows)
    whole = lattice_points(bounds, resolution)
    blocks = list(lattice_blocks(bounds, resolution))
    assert all(len(b) <= scene_mod.LATTICE_BLOCK for b in blocks)
    joined = np.concatenate(blocks)
    assert joined.shape == whole.shape and joined.dtype == whole.dtype
    assert joined.tobytes() == whole.tobytes()


# a 40 x 32 x 32 integer lattice; the oracle's |distance| at a point is a
# permutation of its C-order rank, so the band (0, c - 1) holds exactly c
# points, spread over the whole lattice
RANK_BOUNDS = ((0.0, 0.0, 0.0), (39.0, 31.0, 31.0))
RANK_POINTS = 40 * 32 * 32


def rank_oracle(p):
    rank = p[:, 0] * 1024 + p[:, 1] * 32 + p[:, 2]
    d = (rank * 7919) % RANK_POINTS
    return np.where(rank % 2 == 1, -d, d)


@pytest.mark.parametrize("rows", BLOCKS[:2])
@pytest.mark.parametrize("count", [0, 5000, 2 * EVAL_BATCH, 20000,
                                   RANK_POINTS])
def test_eval_distance_rmse_matches_whole_lattice(monkeypatch, rows, count):
    assert RANK_POINTS % EVAL_BATCH == 0 and 20000 % EVAL_BATCH
    set_block(monkeypatch, rows)
    band = (0.0, count - 1.0) if count else (-2.0, -1.0)
    want, got = RecordingField(), RecordingField()
    expected = lattice_oracle.eval_distance_rmse(want, rank_oracle,
                                                 RANK_BOUNDS, 1.0, band)
    result = eval_distance_rmse(got, rank_oracle, RANK_BOUNDS, 1.0, band)
    assert result[1] == count
    assert result == expected
    assert [b.tobytes() for b in got.batches] == [
        b.tobytes() for b in want.batches]


@pytest.fixture(scope="module")
def sphere_map():
    scene = SyntheticScene([Primitive("sphere", radius=1.0)])
    sensor = SensorModel(kind="pinhole", width=24, height=18, focal=25.0,
                         max_range=8.0, noise_sigma=0.005, seed=3)
    pipe = Pipeline(PipelineConfig(voxel_size=0.1))
    for i, pose in enumerate(orbit_trajectory([0, 0, 0], 2.5, 8)[:4]):
        pipe.integrate_frame(render_frame(scene, sensor, pose, float(i)))
    return scene, pipe.field


@pytest.mark.parametrize("rows", BLOCKS[:2])
def test_eval_distance_rmse_on_a_map_matches_whole_lattice(monkeypatch,
                                                           sphere_map, rows):
    set_block(monkeypatch, rows)
    scene, field = sphere_map
    box = ((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))
    expected = lattice_oracle.eval_distance_rmse(field, scene.sdf, box, 0.1,
                                                 (0.0, 0.4))
    result = eval_distance_rmse(field, scene.sdf, box, 0.1, (0.0, 0.4))
    assert result[1] > EVAL_BATCH and result[1] % EVAL_BATCH
    assert result == expected


@pytest.mark.parametrize("rows", BLOCKS[:2])
@pytest.mark.parametrize("t", [0.0, 5.0])
def test_surface_samples_match_whole_lattice(monkeypatch, rows, t):
    set_block(monkeypatch, rows)
    scene = SyntheticScene([
        Primitive("sphere", center=[0.3, 0.0, 0.2], radius=0.6,
                  active=(-1.0, 1.0)),
        Primitive("box", center=[-0.5, 0.4, 0.0],
                  half_extents=[0.3, 0.4, 0.5]),
        Primitive("plane", normal=[0.1, 0.2, 1.0], offset=-0.7)])
    box = ((-1.2, -1.1, -1.0), (1.2, 1.1, 1.0))
    expected = lattice_oracle.surface_samples(scene, box, 0.05, t)
    pts = surface_samples(scene, box, 0.05, t)
    assert len(pts) > 1000
    assert pts.shape == expected.shape and pts.tobytes() == expected.tobytes()


def test_eval_distance_rmse_memory_is_one_block_and_one_batch():
    class ZeroField:
        def query_batch(self, pts):
            out = type("R", (), {})()
            out.distances = np.zeros(len(pts))
            return out

    box = ((0.0, 0.0, 0.0), (1.05, 1.05, 1.05))       # 106^3 points
    tracemalloc.start()
    try:
        _, n = eval_distance_rmse(ZeroField(), lambda p: p[:, 2] - 0.5, box,
                                  0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 106 ** 3 >= 1_000_000
    assert peak < 8e6, f"traced peak {peak / 1e6:.1f} MB"
