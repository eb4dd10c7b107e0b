"""Every name the benchmark's tracer (perfbench/tracing.py) wraps must exist
where it wraps it; a missing one would otherwise show only as a traceback
from a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from unfoldgnn import _kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("span", sorted(tracing.LAYER_FUNCTIONS))
def test_layer_function_resolves_at_every_site(span):
    owner, attr, sites = tracing.LAYER_FUNCTIONS[span]
    assert callable(getattr(owner, attr))
    for site in sites:
        assert hasattr(site, attr), f"{site.__name__} has no {attr}"


@pytest.mark.parametrize("name", tracing.KERNELS)
def test_kernel_resolves(name):
    assert callable(getattr(_kernels, name))
