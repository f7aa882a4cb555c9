"""Acceptance suite: one test per exit criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
failure reports). The heavy trend experiments share module-scoped fixtures;
all seeds are pinned, so every number here is reproducible bit for bit.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from docrel import oracle
from docrel.cli import main as cli_main
from docrel.config import gold_splits_from, regime_from, train_config_from, values
from docrel.datagen import SyntheticConfig, assemble_regime, generate_regime_splits
from docrel.experiments import SPLITS, _run_arms, run_ablation, sweep_sampling_ratio
from docrel.losses import LossConfig, _threshold_rows
from docrel.selftest import (
    THRESHOLD_ONLY,
    _embedding_case,
    _loss_case,
    run_gradient_checks,
    run_invariant_suite,
    run_oracle_equivalence,
)
from docrel.training import TrainConfig, train

from conftest import GEN_ARGS, pinned


def seeds_and_cuts(resolved: dict[str, dict]) -> tuple[tuple[int, ...], tuple[int, int]]:
    v = values(resolved)
    return v["experiment.seeds"], (v["eval.head_cut"], v["eval.tail_cut"])


NOISE = pinned("noise.conf")
ABLATION = pinned("ablation.conf")
TRAIN_CFG = train_config_from(NOISE)


def check(label: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[{status}] {label}" + (f" ({detail})" if detail else ""))
    assert condition, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared experiment fixtures


@pytest.fixture(scope="module")
def noise_regime():
    return regime_from(gold_splits_from(NOISE), NOISE)


@pytest.fixture(scope="module")
def noise_experiment(noise_regime):
    """Ratio sweep (0.1 vs 1.0) plus an explicitly unsampled arm, shared seeds."""
    seeds, cuts = seeds_and_cuts(NOISE)
    started = time.perf_counter()
    rows = sweep_sampling_ratio(noise_regime, TRAIN_CFG, ratios=[0.1, 1.0], seeds=seeds,
                                bucket_cuts=cuts)
    unsampled_loss = replace(TRAIN_CFG.loss, use_neg_sampling=False)
    [(_, unsampled)] = _run_arms(noise_regime, TRAIN_CFG, [("unsampled", unsampled_loss)],
                                 seeds, tuple(SPLITS), cuts)
    return {
        "ratio_0_1": rows[0]["mean"],
        "ratio_1_0": rows[1]["mean"],
        "ratio_1_0_per_seed": rows[1]["per_seed"],
        "unsampled_per_seed": unsampled["per_seed"],
        "unsampled_gold_test_f1": unsampled["mean"]["gold_test"]["f1"],
        "elapsed": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def ablation_rows():
    seeds, cuts = seeds_and_cuts(ABLATION)
    regime = regime_from(gold_splits_from(ABLATION), ABLATION)
    return run_ablation(regime, train_config_from(ABLATION), seeds=seeds, bucket_cuts=cuts)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    result = run_gradient_checks(seed=0)
    elapsed = time.perf_counter() - started
    check(
        "criterion 1: gradient correctness",
        result.passed and result.checks >= 200 and elapsed < 60.0,
        f"{result.checks} checks in {elapsed:.1f}s; failures: {result.failures[:3]}",
    )


def test_criterion_2_oracle_equivalence():
    result = run_oracle_equivalence(seed=0, instances=50)
    check(
        "criterion 2: oracle equivalence",
        result.passed and result.checks >= 50,
        f"{result.checks} checks; failures: {result.failures[:3]}",
    )


def test_criterion_3_closed_form_spot_values():
    tol = 1e-6
    # p and q at gap 2, from the threshold gradient: -q on a label, p on a negative
    on_label = np.array([[True], [False]])
    _, _, grad = _threshold_rows(np.full((2, 1), 2.0), on_label, ~on_label, THRESHOLD_ONLY)
    p, q = grad[1, 0], -grad[0, 0]
    ok = abs(p - 0.8807970779778823) < tol and abs(q - (1 - 0.8807970779778823)) < tol

    pmt, _ = _loss_case([frozenset({0})], np.zeros((1, 2)), np.zeros((1, 1)), THRESHOLD_ONLY)
    ok &= abs(pmt().total - math.log(2)) < tol

    # entropy at gap 2, frozen from direct evaluation of the formula
    gap2 = oracle.entropy(2.0, 0.0)
    ok &= abs(gap2 - 0.3653338550872078) < 1e-12
    cfg = LossConfig(use_contrastive=False)
    entropy, _ = _loss_case([frozenset()], np.array([[2.0, 0.0]]), np.zeros((1, 1)), cfg)
    ok &= abs(entropy().parts["em"] - gap2) < tol

    for n in (2, 3, 6):
        emb = np.tile(np.ones(4) / 2.0, (n, 1))
        scl, _ = _embedding_case(emb, (0,), {1}, 0.3)
        ok &= abs(scl().parts["scl"] - math.log(n - 1)) < tol

    check("criterion 3: closed-form spot values", bool(ok))


def test_criterion_4_sampling_consistency():
    from docrel.selftest import _forwards_for, _tiny_instance
    from docrel.core import RelationVocabulary, label_mask
    from docrel.losses import batch_loss
    from docrel.rng import stream

    bitwise_ok = True
    for case in range(20):
        rng = stream(400, "crit4", case)
        n_rel = int(rng.integers(3, 7))
        labels, batch, logits, emb = _tiny_instance(rng, n_rel, int(rng.integers(2, 7)), 6, False)
        vocab = RelationVocabulary.from_relations([f"r{k}" for k in range(n_rel)])
        full = np.ones((len(batch.bn_indices), n_rel), dtype=bool)
        batch_on = replace(batch, sampled_mask=full)
        cfg_off = LossConfig(temperature=0.7, contrastive_weight=1.3, entropy_norm="set_size")
        cfg_on = replace(cfg_off, use_neg_sampling=True, neg_sampling_ratio=1.0)
        mask = label_mask(labels, vocab.num_relations)
        off = batch_loss(mask, batch, _forwards_for(logits, emb), vocab, cfg_off)
        on = batch_loss(mask, batch_on, _forwards_for(logits, emb), vocab, cfg_on)
        bitwise_ok &= on.total == off.total
        bitwise_ok &= all(
            np.array_equal(a, b) for a, b in zip(on.grad_logits, off.grad_logits)
        )
        bitwise_ok &= all(
            np.array_equal(a, b) for a, b in zip(on.grad_embeddings, off.grad_embeddings)
        )

    # trained metrics: full-ratio sampling reproduces the unsampled run exactly
    config = SyntheticConfig(
        num_relations=8, num_documents=16, pairs_per_document=(4, 7),
        num_entities=40, kg_pairs=60, embedding_dim=12, seed=21,
    )
    splits = generate_regime_splits(config, 5, 5)
    regime = assemble_regime(splits, 0.3, "OOG", seed=5)
    base = TrainConfig(epochs=3, hidden_dim=8, group_count=2, learning_rate=1e-2, seed=0)
    off_run = train(regime.train, regime.dev, base)
    on_run = train(
        regime.train,
        regime.dev,
        replace(base, loss=LossConfig(use_neg_sampling=True, neg_sampling_ratio=1.0)),
    )
    trained_ok = all(
        a["loss_total"] == b["loss_total"] and a["dev"] == b["dev"]
        for a, b in zip(off_run.history, on_run.history)
    ) and np.array_equal(off_run.params.flat, on_run.params.flat)
    check(
        "criterion 4: sampling consistency at ratio 1.0",
        bool(bitwise_ok and trained_ok),
        "losses/gradients bitwise equal; trained metrics identical",
    )


def test_criterion_4_at_acceptance_scale(noise_experiment):
    """The noise regime's ratio-1.0 sweep arm is the unsampled arm, seed by seed."""
    same = noise_experiment["ratio_1_0_per_seed"] == noise_experiment["unsampled_per_seed"]
    check(
        "criterion 4 at acceptance scale: ratio 1.0 reproduces the unsampled arm",
        same,
        f"per-seed summaries on {', '.join(SPLITS)}",
    )


def test_criterion_5_noise_robustness_gap(noise_experiment):
    sampled = noise_experiment["ratio_0_1"]["gold_test"]["f1"]
    unsampled = noise_experiment["unsampled_gold_test_f1"]
    gap = (sampled - unsampled) * 100
    within_budget = noise_experiment["elapsed"] < 600
    check(
        "criterion 5: noise-robustness gap >= 8 F1 points",
        gap >= 8.0 and within_budget,
        f"sampled@0.1 {sampled:.4f} vs unsampled {unsampled:.4f} "
        f"(gap {gap:.1f} points, {noise_experiment['elapsed']:.0f}s)",
    )


def test_criterion_6_sampling_ratio_directions(noise_experiment):
    r01, r10 = noise_experiment["ratio_0_1"], noise_experiment["ratio_1_0"]
    gold_dir = r01["gold_test"]["f1"] > r10["gold_test"]["f1"]
    noisy_dir = r10["orig_dev"]["f1"] > r01["orig_dev"]["f1"]
    check(
        "criterion 6: sampling-ratio sweep directions",
        gold_dir and noisy_dir,
        f"gold-test {r01['gold_test']['f1']:.4f} > {r10['gold_test']['f1']:.4f}; "
        f"noisy-dev {r10['orig_dev']['f1']:.4f} > {r01['orig_dev']['f1']:.4f}",
    )


def test_criterion_7_ablation_directions(ablation_rows):
    means = {row["variant"]: row["mean"] for row in ablation_rows}
    full = means["full"]
    tail_ok = all(
        full["tail_f1"] >= means[v]["tail_f1"] for v in ("-em", "-scl", "-both")
    )
    tail_drop = full["tail_f1"] - means["-both"]["tail_f1"]
    head_drop = full["head_f1"] - means["-both"]["head_f1"]
    check(
        "criterion 7: ablation directions",
        tail_ok and tail_drop > head_drop,
        f"tail: full {full['tail_f1']:.4f} vs -em {means['-em']['tail_f1']:.4f} "
        f"-scl {means['-scl']['tail_f1']:.4f} -both {means['-both']['tail_f1']:.4f}; "
        f"tail drop {tail_drop:.4f} > head drop {head_drop:.4f}",
    )


def test_criterion_8_invariant_suite():
    result = run_invariant_suite(seed=0)
    check(
        "criterion 8: invariant suite",
        result.passed,
        f"{result.checks} checks; failures: {result.failures[:3]}",
    )


def test_criterion_9_manifest_determinism(tmp_path):
    gold = str(tmp_path / "gold")
    regime = str(tmp_path / "regime")
    assert cli_main(["gen-data", "--out", gold] + GEN_ARGS) == 0
    assert cli_main(["build-regime", "--data", gold, "--out", regime]) == 0

    first = str(tmp_path / "first")
    again = str(tmp_path / "again")
    train_args = [
        "train", "--regime", regime, "--out", first,
        "--set", "train.epochs=3", "--set", "train.hidden_dim=8",
        "--set", "train.group_count=2", "--set", "train.learning_rate=0.01",
        "--set", "eval.head_cut=2", "--set", "eval.tail_cut=3",
    ]
    assert cli_main(train_args) == 0
    assert cli_main(
        ["train", "--from-manifest", os.path.join(first, "manifest.json"), "--out", again]
    ) == 0

    identical = all(
        open(os.path.join(first, name)).read() == open(os.path.join(again, name)).read()
        for name in ("dev_report.json", "dev_report.csv", "history.jsonl")
    )
    replay = json.load(open(os.path.join(again, "manifest.json")))
    sources = {entry["source"] for entry in replay["config"].values()}
    check(
        "criterion 9: manifest replay determinism",
        identical and sources <= {"manifest", "default"},
        "reports and history byte-identical across replay",
    )
