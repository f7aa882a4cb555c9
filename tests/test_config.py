"""The config keys mirror the config dataclasses' fields and defaults."""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel.config import (
    PRESETS,
    REGISTRY,
    _ENVIRONMENT_KINDS,
    Manifest,
    checked,
    environment,
    loss_config_from,
    resolve,
    synthetic_config_from,
    train_config_from,
    values,
)
from docrel.datagen import SyntheticConfig
from docrel.errors import ConfigError
from docrel.losses import LossConfig
from docrel.training import TrainConfig

from conftest import pinned

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


def test_defaults_and_presets_are_of_their_kinds():
    for key, spec in REGISTRY.items():
        assert checked(key, spec.default) == spec.default, key
    for preset in PRESETS.values():
        for key, value in preset.items():
            assert checked(key, value) == value, key


# values of each base kind; train.grad_clip_norm (opt_float) draws None too
KIND_VALUES = {
    "int": st.integers(-3, 99),
    "float": st.floats(allow_nan=False),
    "opt_float": st.none() | st.floats(allow_nan=False),
    "bool": st.booleans(),
    "str": st.text(max_size=4),
}


def value_of(key):
    kind = REGISTRY[key].kind
    if kind.endswith("_list"):
        return st.lists(KIND_VALUES[kind.removesuffix("_list")], max_size=3).map(tuple)
    return KIND_VALUES[kind]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), preset=st.sampled_from([None, *PRESETS]))
def test_each_key_takes_the_first_layer_that_holds_it(data, preset):
    """flag > manifest > file > preset > default, a None value included."""
    drawn = data.draw(st.lists(st.sampled_from(sorted(REGISTRY)), max_size=8))
    layers = {"flag": {}, "manifest": {}, "file": {}}
    for key in dict.fromkeys(["train.grad_clip_norm", "loss.temperature", *drawn]):
        for name in data.draw(st.sets(st.sampled_from(sorted(layers)))):
            layers[name][key] = data.draw(value_of(key))
    resolved = resolve(flag_values=layers["flag"], manifest_values=layers["manifest"],
                       file_values=layers["file"], preset=preset)
    for key, spec in REGISTRY.items():
        order = [*layers.items(), (f"preset:{preset}", PRESETS.get(preset, {})),
                 ("default", {key: spec.default})]
        source, layer = next((source, layer) for source, layer in order if key in layer)
        assert resolved[key] == {"value": layer[key], "source": source}, key


@pytest.mark.parametrize("layer", ["flag_values", "manifest_values", "file_values"])
@pytest.mark.parametrize("key, value", [("train.epochs", "3"), ("loss.use_entropy", "yes"),
                                        ("train.grad_clip_norm", "none")])
def test_resolve_refuses_a_value_not_of_its_kind_in_any_layer(layer, key, value):
    with pytest.raises(ConfigError, match=f"config key {key}: '{value}' is not of kind"):
        resolve(**{layer: {key: value}})


def saved_manifest(path):
    """An ``ablate`` manifest of the pinned ablation experiment, written to ``path``."""
    Manifest(
        "ablate", pinned("ablation.conf"), {"regime": "gold"}, {}, environment=environment()
    ).save(path)
    return json.loads(path.read_text())


def test_manifest_environment_round_trips(tmp_path):
    path = tmp_path / "manifest.json"
    recorded = saved_manifest(path)["environment"]
    assert recorded == environment() == Manifest.load(path).environment
    assert recorded.keys() == _ENVIRONMENT_KINDS.keys()


def test_manifest_recorded_before_blas_threads_loads(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = saved_manifest(path)
    del manifest["environment"]["blas_threads"]
    path.write_text(json.dumps(manifest))
    assert "blas_threads" not in Manifest.load(path).environment


def test_manifest_without_environment_loads(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = saved_manifest(path)
    del manifest["environment"]
    path.write_text(json.dumps(manifest))
    assert Manifest.load(path).environment is None


@pytest.mark.parametrize(
    "edit",
    [lambda e: e.update(heap_top_pad=True), lambda e: e.update(heap_top_pad=1.5),
     lambda e: e.update(python=3.11), lambda e: e.update(numpy=None),
     lambda e: e.update(glibc=2.36), lambda e: e.pop("platform"),
     lambda e: e.update(allocator="jemalloc"), lambda e: e.update(blas_threads="1"),
     lambda e: e["blas_threads"].update(GOTO_NUM_THREADS="1"),
     lambda e: e["blas_threads"].pop("MKL_NUM_THREADS"),
     lambda e: e["blas_threads"].update(OMP_NUM_THREADS=2)],
    ids=["bool-pad", "float-pad", "number-python", "null-numpy", "number-glibc",
         "no-platform", "unknown-entry", "string-blas-threads", "unknown-blas-variable",
         "missing-blas-variable", "number-blas-threads"],
)
def test_manifest_with_bad_environment_is_rejected(tmp_path, edit):
    path = tmp_path / "manifest.json"
    manifest = saved_manifest(path)
    edit(manifest["environment"])
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=f"{path}: .*environment"):
        Manifest.load(path)


@pytest.mark.parametrize(
    "key, edit",
    [
        ("train.epochz", lambda c: c.update({"train.epochz": c.pop("train.epochs")})),
        ("train.epochs", lambda c: c["train.epochs"].update(value="abc")),
        ("train.epochs", lambda c: c["train.epochs"].update(value=True)),
        ("train.epochs", lambda c: c["train.epochs"].update(value=12.0)),
        ("train.learning_rate", lambda c: c["train.learning_rate"].update(value=False)),
        ("loss.use_entropy", lambda c: c["loss.use_entropy"].update(value=1)),
        ("experiment.seeds", lambda c: c["experiment.seeds"].update(value=[0, 1.5])),
        ("experiment.seeds", lambda c: c["experiment.seeds"].update(value=0)),
        ("experiment.ratios", lambda c: c["experiment.ratios"].update(value=[0.1, "1"])),
    ],
    ids=["renamed-key", "string-int", "bool-int", "float-int", "bool-float", "int-bool",
         "float-in-int-list", "int-for-list", "string-in-float-list"],
)
def test_manifest_with_unknown_key_or_wrong_kind_is_rejected(tmp_path, key, edit):
    path = tmp_path / "manifest.json"
    manifest = saved_manifest(path)
    edit(manifest["config"])
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=f"{path}: .*{key}"):
        Manifest.load(path)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cuts=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=3),
    truncate=st.booleans(),
)
def test_corrupted_manifest_fails_closed_or_replays_every_key(tmp_path_factory, cuts, truncate):
    """A flipped or truncated manifest raises ConfigError, or replays every key it records."""
    path = tmp_path_factory.mktemp("mutate") / "manifest.json"
    saved_manifest(path)
    data = bytearray(path.read_bytes())
    for position, value in cuts:
        data[position % len(data)] = value
    if truncate:
        data = data[: cuts[0][0] % len(data)]
    path.write_bytes(bytes(data))
    try:
        recorded = Manifest.load(path).config
        resolved = resolve(manifest_values=values(recorded))
        train_config_from(resolved)
    except ConfigError:
        return
    assert all(resolved[key]["source"] == "manifest" for key in recorded)
