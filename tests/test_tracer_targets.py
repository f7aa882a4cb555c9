"""The benchmark's tracer wraps docrel functions by name and counts their
work from their arguments; every name it lists must still exist, and the
counts must still mean what they say, or a traced benchmark run fails at
start-up or reports wrong figures."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tracer_targets():
    return [(mod, attr) for mod, attr, _, _ in load_tracer().TARGETS]


@pytest.mark.parametrize("module_name, attr", tracer_targets())
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(f"docrel.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_batch_loss_counts_match_the_assembled_batches():
    from docrel import training
    from docrel.batching import assemble_batches, sampled_set_size
    from docrel.datagen import SyntheticConfig, assemble_regime, generate_regime_splits
    from docrel.losses import LossConfig

    world = SyntheticConfig(num_relations=6, num_documents=14, pairs_per_document=(4, 7),
                            num_entities=40, kg_pairs=60, embedding_dim=8, seed=5)
    regime = assemble_regime(generate_regime_splits(world, 3, 3), 0.3, "OOG", seed=5)
    ratio = 0.4
    config = training.TrainConfig(
        epochs=1, hidden_dim=4, group_count=2, seed=2,
        loss=LossConfig(use_neg_sampling=True, neg_sampling_ratio=ratio),
    )
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        training.train(regime.train, regime.dev, config)
    finally:
        tracer.remove()

    spans = [s for s in tracer.spans if s["name"] == "losses.batch_loss"]
    got = {key: sum(s["counts"][key] for s in spans)
           for key in ("pairs", "anchor_pairs", "sampled_labels")}
    batches = assemble_batches(regime.train, config.batch_size,
                               training._epoch_seed(config.seed, 0))
    k = sampled_set_size(ratio, regime.train.vocabulary.num_relations)
    assert len(spans) == len(batches) > 1
    assert got == {
        "pairs": len(regime.train.examples),
        "anchor_pairs": sum(len(b.bp_indices) * len(b) for b in batches),
        "sampled_labels": sum(len(b.bn_indices) * k for b in batches),
    }
    assert got["anchor_pairs"] > 0 and got["sampled_labels"] > 0
