"""Names that code outside the library looks up by attribute.

perfbench/tracing.py wraps library functions by replacing the attribute
a caller looks up, and raises KeyError if one is missing. This checks
its target list, read unmodified from the benchmark, against the
library, so a rename fails here rather than only in the benchmark's
slow smoke run. It also checks that every exported name resolves, and
that perfbench/run.py's grid_bytes still reads the leaf arrays through
the grid's leaf handles.
"""

import importlib.util
import sys
from pathlib import Path

import gpfield
from gpfield.grid import LEAF_ARRAYS, LEAF_SIZE, SparseGrid

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
