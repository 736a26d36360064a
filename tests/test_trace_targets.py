"""Every function the benchmark tracer wraps must exist in the package.

`bench/tracing.py` names its targets as strings ("layer.attribute" or
"layer.Class.method"); a refactor that renames or deletes one of them would
only show when a traced benchmark run fails.  The tracer module is run from
its source text, so nothing is written under `bench/`.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
TARGETS = runpy.run_path(str(TRACING))["TARGETS"]


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    layer, attr = target.split(".", 1)
    holder = importlib.import_module(f"ghostpic.{layer}")
    for part in attr.split("."):
        holder = getattr(holder, part)
    assert callable(holder)
