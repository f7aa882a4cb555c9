import base64
import os

import numpy as np
import pytest

from docrel.config import parse_config_file, resolve
from docrel.core import Corpus, LabelSource, PairExample, RelationVocabulary

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# gen-data flags for a tiny world that CLI tests train on in seconds
GEN_ARGS = [
    "--set", "data.num_relations=8",
    "--set", "data.train_docs=10",
    "--set", "data.dev_docs=4",
    "--set", "data.test_docs=4",
    "--set", "data.num_entities=30",
    "--set", "data.kg_pairs=40",
    "--set", "data.pairs_min=4",
    "--set", "data.pairs_max=6",
    "--set", "data.embedding_dim=12",
]


def pinned(name: str) -> dict[str, dict]:
    """The resolved configuration of the pinned experiment ``configs/<name>``."""
    return resolve(file_values=parse_config_file(os.path.join(CONFIGS, name)))


def make_example(doc, h, t, labels, dim=4, gold=None, seed=0):
    rng = np.random.default_rng(seed + h * 31 + t)
    return PairExample(
        doc_id=doc,
        head_id=h,
        tail_id=t,
        head_vectors=rng.normal(size=(1, dim)),
        tail_vectors=rng.normal(size=(1, dim)),
        context=rng.normal(size=dim),
        positive_relations=frozenset(labels),
        gold_positive_relations=frozenset(gold) if gold is not None else frozenset(labels),
    )


def make_corpus(label_sets, n_rel=4, dim=4, docs_of=None, source=LabelSource.GOLD):
    """A corpus with one example per label set; entity ids 2i / 2i+1."""
    vocab = RelationVocabulary.from_relations([f"r{k}" for k in range(n_rel)])
    examples = tuple(
        make_example(
            docs_of[i] if docs_of else f"doc{i}",
            2 * i,
            2 * i + 1,
            labels,
            dim=dim,
        )
        for i, labels in enumerate(label_sets)
    )
    return Corpus(vocabulary=vocab, examples=examples, label_source=source, embedding_dim=dim)


def edit_vectors(record, edit):
    """Decode a saved corpus record's ``vectors``, apply ``edit`` to its rows
    (head mentions, tail mentions, context) and encode them back."""
    n_head, n_tail = record["mentions"]
    data = base64.b64decode(record["vectors"])
    rows = np.frombuffer(data, "<f8").reshape(n_head + n_tail + 1, -1).copy()
    edit(rows)
    record["vectors"] = base64.b64encode(rows.astype("<f8").tobytes()).decode("ascii")


@pytest.fixture
def small_corpus():
    return make_corpus([{0}, {1, 2}, set(), {0, 3}, set()])
