"""Fixtures shared by the test modules."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from unfoldgnn.experiments import run_experiment

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="session")
def attention_robustness(tmp_path_factory):
    """``run_experiment("attention-robustness", seed=seed)``, run at most
    once per seed in a session: the acceptance criterion and the pinned
    accuracies read the same seed-0 study."""
    studies = {}

    def study(seed):
        if seed not in studies:
            out = tmp_path_factory.mktemp(f"attention-robustness-{seed}")
            studies[seed] = run_experiment("attention-robustness", out, seed=seed)
        return studies[seed]

    return study


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)``: the peak of the memory that tracemalloc
    traces while ``fn(*args)`` runs, in bytes, counted from zero at the
    call, so memory held before it does not count."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def fresh_python():
    """``fresh_python(code)``: run the snippet ``code`` in a new
    interpreter with the package's ``src`` first on its path, and return
    the JSON it prints on its last line of output.  A nonzero exit fails
    the test with the child's stderr.  The pytest process has imported
    every module the suite touches, so what a program loads can only be
    seen in a new one."""
    def run(code):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=300)
        if proc.returncode != 0:
            pytest.fail(f"the snippet exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    return run
