"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from unfoldgnn.experiments import run_experiment


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
