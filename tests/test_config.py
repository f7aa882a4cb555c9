"""The config keys mirror the config dataclasses' fields and defaults."""

from dataclasses import fields

import pytest

from docrel.config import (
    REGISTRY,
    loss_config_from,
    resolve,
    synthetic_config_from,
    train_config_from,
)
from docrel.datagen import SyntheticConfig
from docrel.losses import LossConfig
from docrel.training import TrainConfig

# the key set the CLI, config files and recorded manifests rely on
KEYS = [
    "data.dev_docs", "data.embedding_dim", "data.kg_pairs", "data.multi_label_rate",
    "data.na_fraction", "data.noise_sigma", "data.num_entities", "data.num_relations",
    "data.pairs_max", "data.pairs_min", "data.seed", "data.test_docs", "data.train_docs",
    "data.zipf_exponent", "eval.head_cut", "eval.tail_cut", "eval.use_gold",
    "experiment.ratios", "experiment.seeds", "loss.contrastive_weight", "loss.entropy_norm",
    "loss.neg_sampling_ratio", "loss.resample", "loss.temperature", "loss.use_contrastive",
    "loss.use_entropy", "loss.use_neg_sampling", "regime.corruption", "regime.kind",
    "regime.noise_rate", "regime.seed", "train.batch_size", "train.beta1", "train.beta2",
    "train.epochs", "train.eps", "train.grad_clip_norm", "train.group_count",
    "train.hidden_dim", "train.learning_rate", "train.seed", "train.warmup_ratio",
    "train.weight_decay",
]

DATA_RENAMED = {
    "num_documents": ["data.train_docs"],
    "pairs_per_document": ["data.pairs_min", "data.pairs_max"],
    "prototype_noise_sigma": ["data.noise_sigma"],
}


def test_key_set_unchanged():
    assert len(KEYS) == 43
    assert sorted(REGISTRY) == KEYS


def test_defaults_build_default_configs():
    resolved = resolve()
    assert loss_config_from(resolved) == LossConfig()
    assert train_config_from(resolved) == TrainConfig()
    assert synthetic_config_from(resolved) == SyntheticConfig()


@pytest.mark.parametrize("section, cls", [("loss", LossConfig), ("train", TrainConfig)])
def test_every_field_has_a_key(section, cls):
    for f in fields(cls):
        if f.name != "loss":
            assert f"{section}.{f.name}" in REGISTRY, f.name


def test_every_synthetic_field_has_a_key():
    for f in fields(SyntheticConfig):
        if f.name in ("mentions_per_entity", "split"):
            continue
        for key in DATA_RENAMED.get(f.name, [f"data.{f.name}"]):
            assert key in REGISTRY, f.name


def test_kinds_follow_field_types():
    assert REGISTRY["train.grad_clip_norm"].kind == "opt_float"
    assert REGISTRY["loss.use_entropy"].kind == "bool"
    assert REGISTRY["loss.entropy_norm"].kind == "str"
    assert REGISTRY["data.pairs_min"].kind == REGISTRY["data.pairs_max"].kind == "int"
    assert REGISTRY["data.noise_sigma"].kind == "float"


def test_flag_values_reach_every_field():
    resolved = resolve(
        flag_values={"data.pairs_min": 3, "data.pairs_max": 5, "data.noise_sigma": 0.2,
                     "train.grad_clip_norm": 1.5, "loss.resample": "once"}
    )
    data = synthetic_config_from(resolved)
    assert data.pairs_per_document == (3, 5)
    assert data.prototype_noise_sigma == 0.2
    cfg = train_config_from(resolved)
    assert cfg.grad_clip_norm == 1.5
    assert cfg.loss.resample == "once"
