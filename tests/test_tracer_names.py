"""Every name the benchmark's tracer (perfbench/tracing.py) wraps must exist
where it wraps it; a missing one would otherwise show only as a traceback
from a traced benchmark run.  The reverse holds too: an import kept only
for the tracer to patch must name a function the tracer wraps in that
module, or it is dead."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from unfoldgnn import _kernels

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PATCHED_MARK = "# noqa: F401  patched by perfbench/tracing.py"


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


def _patched_imports():
    """(module, line, name) of every name imported on a line marked as
    kept for the tracer to patch."""
    found = []
    for path in sorted((ROOT / "src" / "unfoldgnn").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and lines[node.end_lineno - 1].endswith(PATCHED_MARK):
                found += [(path.stem, node.lineno, alias.asname or alias.name)
                          for alias in node.names]
    return found


PATCHED_IMPORTS = _patched_imports()


def test_patched_imports_are_found():
    assert PATCHED_IMPORTS


@pytest.mark.parametrize("module, line, name", PATCHED_IMPORTS,
                         ids=[f"{module}.{name}" for module, _, name in PATCHED_IMPORTS])
def test_patched_import_is_wrapped_in_its_module(module, line, name):
    site = importlib.import_module(f"unfoldgnn.{module}")
    assert any(attr == name and site in sites
               for _, attr, sites in tracing.LAYER_FUNCTIONS.values()), \
        f"{module}.py:{line} imports {name} for the tracer, which does not wrap it there"
