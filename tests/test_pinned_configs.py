"""The pinned experiments in ``configs/`` resolve and run end to end through
the CLI, and the benchmark's frozen copy of the noise world matches
``configs/noise.conf``."""

import importlib.util
import os

import pytest

from docrel.cli import main
from docrel.config import (
    gold_splits_from,
    regime_from,
    synthetic_config_from,
    train_config_from,
    values,
)

from conftest import CONFIGS, pinned

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# the commands each experiment runs after gen-data, and the files the last one writes
PIPELINES = {
    "ablation.conf": (["ablate"], ["ablation.csv", "ablation.json"]),
    "noise.conf": (
        ["build-regime", "sweep-ratio"],
        ["sweep.json", "sweep_orig_dev.csv", "sweep_gold_dev.csv", "sweep_gold_test.csv"],
    ),
}
TINY = [
    "--set", "data.train_docs=6", "--set", "data.dev_docs=3", "--set", "data.test_docs=3",
    "--set", "train.epochs=1", "--set", "experiment.seeds=0",
]


def test_every_config_has_a_pipeline():
    assert sorted(os.listdir(CONFIGS)) == sorted(PIPELINES)


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_config_resolves_and_its_tiny_pipeline_writes_outputs(name, tmp_path):
    train_config_from(pinned(name))
    synthetic_config_from(pinned(name))
    commands, outputs = PIPELINES[name]
    config = ["--config", os.path.join(CONFIGS, name)] + TINY
    bundle = str(tmp_path / "gen-data")
    assert main(["gen-data", "--out", bundle] + config) == 0
    for command in commands:
        out = str(tmp_path / command)
        source = "--data" if command == "build-regime" else "--regime"
        assert main([command, source, bundle, "--out", out] + config) == 0
        bundle = out
    for output in outputs:
        assert os.path.getsize(os.path.join(bundle, output)) > 0, output


def test_benchmark_noise_world_matches_config(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads.py imports docred_gen
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    noise = pinned("noise.conf")
    v = values(noise)
    assert workloads.NOISE_WORLD == synthetic_config_from(noise)
    assert workloads.NOISE_CORRUPTION_SEED == v["regime.seed"]
    assert workloads.NOISE_SPLIT_DOCS == (v["data.dev_docs"], v["data.test_docs"])
    assert workloads.ACCEPTANCE_TRAIN == train_config_from(noise)
    assert workloads.BUCKET_CUTS == (v["eval.head_cut"], v["eval.tail_cut"])

    # the regime kind, noise rate and corruption mode are literals in noise_regime
    for key, docs in (("data.train_docs", 12), ("data.dev_docs", 4), ("data.test_docs", 4)):
        noise[key] = {"value": docs, "source": "flag"}  # the benchmark's tiny world
    ours = regime_from(gold_splits_from(noise), noise)
    theirs = workloads.noise_regime(tiny=True)
    assert ours.name == theirs.name
    for a, b in zip((ours.train, ours.dev, ours.test), (theirs.train, theirs.dev, theirs.test)):
        assert [ex.positive_relations for ex in a.examples] == [
            ex.positive_relations for ex in b.examples]
