"""Every function the traced benchmark wraps still exists in the package.

``bench/tracing.py`` names its targets as (module, attribute) pairs; a
rename or deletion in ``fibspaces`` would only surface when a traced
benchmark run fails to install its wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

TARGETS = sorted({
    target
    for table in (tracing.SPANS, tracing.COUNTERS)
    for targets in table.values()
    for target in targets
})


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"fibspaces.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_golden_registry_is_wrapped_in_place():
    golden = importlib.import_module("fibspaces.golden")
    assert all(callable(fn) for _, _, fn in golden._REGISTRY)
