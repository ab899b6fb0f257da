"""Names that code outside the library looks up by attribute.

perfbench/tracing.py wraps library functions by replacing the attribute
a caller looks up, and raises KeyError if one is missing. This checks
its target list, read unmodified from the benchmark, against the
library, so a rename fails here rather than only in the benchmark's
slow smoke run. It also checks that every exported name resolves.
"""

import importlib.util
from pathlib import Path

import gpfield

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    targets = load_tracing()._targets()
    assert targets
    for owner, attr, span, _ in targets:
        assert attr in owner.__dict__, \
            f"{span}: {owner.__name__} no longer defines {attr}"


def test_every_exported_name_resolves():
    missing = [n for n in gpfield.__all__ if not hasattr(gpfield, n)]
    assert missing == []
