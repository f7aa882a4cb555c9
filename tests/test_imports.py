"""Each docrel import loads only the modules it uses.

The import graph is checked in fresh interpreters, since this test
process has loaded every docrel module long before these tests run.
"""

import importlib
import os
import subprocess
import sys

import pytest

import docrel

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# the package's public names, as ``from docrel import ...`` has always given them
PUBLIC = (
    "Batch BatchForward BatchLossOutput Bucket ConfigError ContractError Corpus "
    "DataFormatError DocrelError EvalReport HeadParams LabelSource LossConfig Mention "
    "NonFiniteLossError NumericError PairExample Regime RelationVocabulary ShapeError "
    "SyntheticConfig TrainConfig TrainResult assemble_batches assemble_regime "
    "attach_negative_samples batch_loss bucket_relations evaluate generate_regime_splits "
    "generate_synthetic_corpus head_backward head_forward init_head_params load_checkpoint "
    "load_corpus load_regime logsumexp_pool predict_labels relabel_as_na "
    "sample_negative_sets save_checkpoint save_corpus save_regime train train_fact_set"
).split()


def loaded_by(module: str) -> set[str]:
    """The docrel modules that a fresh interpreter holds after importing ``module``."""
    code = (f"import sys, {module}\n"
            "print(*(n for n in sys.modules if n.split('.')[0] == 'docrel'))")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_package_import_loads_only_the_heap_pad():
    assert loaded_by("docrel") == {"docrel", "docrel._heap"}


@pytest.mark.parametrize("module, unused", [
    ("docrel.selftest",
     "datagen training optim config cli docred experiments reports"),
    ("docrel.cli", "selftest oracle experiments docred"),
], ids=["selftest", "cli"])
def test_module_import_skips_what_it_does_not_use(module, unused):
    assert loaded_by(module) & {f"docrel.{name}" for name in unused.split()} == set()


def test_every_public_name_resolves_to_the_object_of_its_defining_module():
    assert sorted(docrel.__all__) == sorted(PUBLIC)
    for name in docrel.__all__:
        source = importlib.import_module(f"docrel.{docrel._SOURCE[name]}")
        value = getattr(docrel, name)
        assert value is getattr(source, name) and value.__module__ == source.__name__, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        docrel.no_such_name  # noqa: B018
