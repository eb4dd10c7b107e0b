"""Fixtures shared by the test modules."""

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
