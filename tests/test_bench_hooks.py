"""The benchmark's tracer patches names in strelmon's modules; a rename in the
program must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files next to the benchmark
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    [(module, attr) for module, attr, _span in tracing.PATCHES] + list(tracing.SPATIAL_CALLS),
)
def test_hooked_name_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), (
        f"{module_name}.{attr} is gone but the benchmark patches it"
    )


@pytest.mark.parametrize("module_name, attr", tracing.SPATIAL_CALLS)
def test_spatial_calls_lead_with_model_and_distance(module_name, attr):
    """The spatial-call counter reads (model, f, ...) from the arguments."""
    params = list(inspect.signature(getattr(importlib.import_module(module_name), attr)).parameters)
    assert params[:2] == ["model", "f"]
