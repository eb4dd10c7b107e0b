"""Smoke-scale runs of each scripted experiment; the full-scale claims
live in the acceptance suite."""

import numpy as np
import pytest

from unfoldgnn.experiments import EXPERIMENTS, run_experiment


def test_unknown_name_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("does-not-exist", tmp_path)


def test_closed_form_convergence(tmp_path):
    summary = run_experiment("closed-form-convergence", tmp_path, seed=0,
                             n=30, steps=300)
    assert summary["final_rel_error"] < 1e-6
    text = (tmp_path / "closed_form_convergence.csv").read_text().splitlines()
    assert text[0].startswith("# schema: closed-form-convergence")
    # error column decreases to the end
    last = float(text[-1].split(",")[1])
    first = float(text[2].split(",")[1])
    assert last < first


def test_prop_depth_sweep_contrast(tmp_path):
    summary = run_experiment("prop-depth-sweep", tmp_path, seed=0,
                             n_per_block=25, depths=(1, 4, 16, 64))
    deepest = summary[64]
    assert deepest["pure_spread_rel"] < 1e-2
    assert deepest["ugnn_rel_error"] < 1e-6
    assert deepest["ugnn_spread_rel"] > 0.05
    # the un-anchored spread column decays monotonically with depth
    spreads = [summary[k]["pure_spread_rel"] for k in (1, 4, 16, 64)]
    assert all(b <= a + 1e-12 for a, b in zip(spreads, spreads[1:]))


def test_attention_robustness_smoke(tmp_path):
    summary = run_experiment("attention-robustness", tmp_path, seed=0,
                             n_per_block=40, epochs=40)
    assert set(summary) >= {"identity", "truncated_lp", "csv"}
    lp = summary["truncated_lp"]
    assert np.isfinite(lp["gamma_clean"]) and np.isfinite(lp["gamma_spurious"])
    text = (tmp_path / "attention_robustness.csv").read_text().splitlines()
    assert len(text) == 2 + 2


# the study's test accuracies at its defaults, (identity, truncated_lp)
STUDY_ACCURACIES = {
    0: (0.8157894736842105, 0.9276315789473685),
    1: (0.9473684210526315, 0.9144736842105263),
    2: (0.9210526315789473, 0.8947368421052632),
}


@pytest.mark.parametrize("seed", sorted(STUDY_ACCURACIES))
def test_attention_robustness_accuracies_pinned(attention_robustness, seed):
    summary = attention_robustness(seed)
    got = (summary["identity"]["test_acc"], summary["truncated_lp"]["test_acc"])
    assert got == STUDY_ACCURACIES[seed]


def test_label_recovery_matrix(tmp_path):
    summary = run_experiment("label-recovery", tmp_path, seed=0,
                             n_per_block=20, gen_epochs=30, rec_epochs=30)
    accs = summary["accuracies"]
    assert set(accs) == {("ugnn", "ugnn"), ("ugnn", "ignn"),
                         ("ignn", "ugnn"), ("ignn", "ignn")}
    assert all(0.0 <= v <= 1.0 for v in accs.values())


def test_bench_time_linear_scaling(tmp_path):
    summary = run_experiment("bench-time", tmp_path, seed=0,
                             sizes=((500, 6, 4, 4), (500, 6, 4, 8), (1000, 6, 4, 4)))
    rows = summary["rows"]
    keys = sorted(rows, key=lambda k: (k[0], k[3]))
    base, double_k, double_n = rows[keys[0]], rows[keys[1]], rows[keys[2]]
    assert double_k["edge_flops"] == pytest.approx(2 * base["edge_flops"], rel=0.05)
    m_ratio = keys[2][1] / keys[0][1]
    assert double_n["edge_flops"] == pytest.approx(m_ratio * base["edge_flops"], rel=0.05)


@pytest.mark.parametrize("size, message", [
    ((0, 8, 8, 2), "n, avg_degree and d must be at least 1"),
    ((100, 0, 8, 2), "n, avg_degree and d must be at least 1"),
    ((100, 8, 0, 2), "n, avg_degree and d must be at least 1"),
    ((100, 8, 4, -1), "K at least 0"),
])
def test_bench_time_rejects_bad_sizes(size, message, tmp_path):
    # a bad size is refused before any graph is built or any CSV written
    with pytest.raises(ValueError, match=message):
        run_experiment("bench-time", tmp_path, seed=0, sizes=((100, 6, 4, 2), size))
    assert not (tmp_path / "bench_time.csv").exists()


def test_all_experiment_names_registered():
    assert set(EXPERIMENTS) == {
        "closed-form-convergence", "prop-depth-sweep", "attention-robustness",
        "label-recovery", "bench-time",
    }
