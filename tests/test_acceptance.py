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
from docrel.core import bucket_relations
from docrel.datagen import SyntheticConfig, assemble_regime, generate_regime_splits
from docrel.evaluation import evaluate, train_fact_set
from docrel.experiments import run_ablation, sweep_sampling_ratio
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

SEEDS = (0, 1, 2)


def check(label: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[{status}] {label}" + (f" ({detail})" if detail else ""))
    assert condition, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared experiment fixtures


@pytest.fixture(scope="module")
def noise_regime():
    config = SyntheticConfig(
        num_relations=32,
        num_documents=200,
        pairs_per_document=(12, 18),
        embedding_dim=32,
        num_entities=80,
        kg_pairs=120,
        na_fraction=0.5,
        seed=7,
    )
    splits = generate_regime_splits(config, dev_documents=40, test_documents=40)
    return assemble_regime(splits, 0.4, "OOG", seed=11, corruption="fact")


TRAIN_CFG = TrainConfig(
    epochs=15,
    learning_rate=1e-2,
    seed=0,
    loss=LossConfig(temperature=0.5, contrastive_weight=0.1, entropy_norm="set_size"),
)


@pytest.fixture(scope="module")
def noise_experiment(noise_regime):
    """Ratio sweep (0.1 vs 1.0) plus an explicitly unsampled arm, 3 seeds each."""
    started = time.perf_counter()
    rows = sweep_sampling_ratio(
        noise_regime, TRAIN_CFG, ratios=[0.1, 1.0], seeds=SEEDS, bucket_cuts=(6, 16)
    )
    facts = train_fact_set(noise_regime.train)
    buckets = bucket_relations(noise_regime.train.vocabulary, (6, 16))
    unsampled = []
    for seed in SEEDS:
        cfg = replace(TRAIN_CFG, seed=seed, loss=replace(TRAIN_CFG.loss, use_neg_sampling=False))
        result = train(noise_regime.train, noise_regime.dev, cfg)
        unsampled.append(
            evaluate(result.params, noise_regime.test, facts, buckets, use_gold=True).f1
        )
    return {
        "ratio_0_1": rows[0]["mean"],
        "ratio_1_0": rows[1]["mean"],
        "unsampled_gold_test_f1": sum(unsampled) / len(unsampled),
        "elapsed": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def ablation_rows():
    config = SyntheticConfig(
        num_relations=32,
        num_documents=100,
        pairs_per_document=(10, 14),
        embedding_dim=32,
        num_entities=100,
        kg_pairs=200,
        na_fraction=0.45,
        zipf_exponent=0.7,
        prototype_noise_sigma=0.5,
        seed=3,
    )
    splits = generate_regime_splits(config, dev_documents=30, test_documents=30)
    regime = assemble_regime(splits, 0.0, "GGG")
    cfg = replace(TRAIN_CFG, epochs=12)
    return run_ablation(regime, cfg, {"em", "scl"}, seeds=SEEDS, bucket_cuts=(6, 16))


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
        scl, _ = _embedding_case(emb, (0,), {0: frozenset({1})}, 0.3)
        ok &= abs(scl().parts["scl"] - math.log(n - 1)) < tol

    check("criterion 3: closed-form spot values", bool(ok))


def test_criterion_4_sampling_consistency():
    from docrel.selftest import _examples_for, _forwards_for, _tiny_instance
    from docrel.core import RelationVocabulary
    from docrel.losses import batch_loss
    from docrel.rng import stream

    bitwise_ok = True
    for case in range(20):
        rng = stream(400, "crit4", case)
        n_rel = int(rng.integers(3, 7))
        labels, batch, logits, emb = _tiny_instance(rng, n_rel, int(rng.integers(2, 7)), 6, False)
        vocab = RelationVocabulary.from_relations([f"r{k}" for k in range(n_rel)])
        full = {pos: tuple(range(n_rel)) for pos in batch.bn_indices}
        batch_on = replace(batch, sampled_negatives=full)
        cfg_off = LossConfig(temperature=0.7, contrastive_weight=1.3, entropy_norm="set_size")
        cfg_on = replace(cfg_off, use_neg_sampling=True, neg_sampling_ratio=1.0)
        examples = _examples_for(labels, 6)
        off = batch_loss(examples, batch, _forwards_for(logits, emb), vocab, cfg_off)
        on = batch_loss(examples, batch_on, _forwards_for(logits, emb), vocab, cfg_on)
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
    ) and all(
        np.array_equal(arr, on_run.params.tensors()[name])
        for name, arr in off_run.params.tensors().items()
    )
    check(
        "criterion 4: sampling consistency at ratio 1.0",
        bool(bitwise_ok and trained_ok),
        "losses/gradients bitwise equal; trained metrics identical",
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
    gen_args = [
        "--set", "data.num_relations=8", "--set", "data.train_docs=10",
        "--set", "data.dev_docs=4", "--set", "data.test_docs=4",
        "--set", "data.num_entities=30", "--set", "data.kg_pairs=40",
        "--set", "data.pairs_min=4", "--set", "data.pairs_max=6",
        "--set", "data.embedding_dim=12",
    ]
    assert cli_main(["gen-data", "--out", gold] + gen_args) == 0
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
