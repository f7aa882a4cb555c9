import contextlib
import json
import os
from unittest import mock

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


@contextlib.contextmanager
def counting_pair_examples():
    """Count the ``PairExample`` objects built inside the block: yields a
    one-item list that holds the count."""
    count = [0]
    init = PairExample.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    with mock.patch.object(PairExample, "__init__", counted):
        yield count


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


class CorpusFile:
    """A saved corpus file as parts to edit: ``header``, ``records`` (the
    JSON line ``k`` is ``records[k - 2]``) and ``rows``, each record's vector
    rows (head mentions, tail mentions, context). ``save`` writes the parts
    back in the file's layout."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            text, payload = fh.read().split(b"\n\n", 1)
        self.path = path
        self.header, *self.records = (json.loads(line) for line in text.split(b"\n"))
        vectors = np.frombuffer(payload, "<f8").reshape(-1, self.header["embedding_dim"])
        ends = np.cumsum([sum(record["mentions"]) + 1 for record in self.records])
        self.rows = np.split(vectors.copy(), ends[:-1]) if self.records else []

    def line(self, lineno):
        return self.header if lineno == 1 else self.records[lineno - 2]

    def edit(self, lineno, record=None, rows=None):
        """Apply ``record`` to JSON line ``lineno`` and ``rows`` to its rows, then save."""
        if rows is not None:
            rows(self.rows[lineno - 2])
        if record is not None:
            record(self.line(lineno))
        self.save()

    def save(self):
        text = "".join(json.dumps(line) + "\n" for line in (self.header, *self.records))
        payload = np.concatenate(self.rows).astype("<f8").tobytes() if self.rows else b""
        with open(self.path, "wb") as fh:
            fh.write(text.encode() + b"\n" + payload)


# a corpus file as format version 2 wrote it: each record's vectors a base64
# string of its float64 rows
FORMAT_2_FILE = (
    '{"format": "docrel-corpus", "version": 2, "relations": ["r0"], "na_index": 1, '
    '"train_frequency": {}, "label_source": "gold", "embedding_dim": 1, "num_examples": 1}\n'
    '{"doc_id": "doc0", "head_id": 0, "tail_id": 1, "mentions": [1, 1], '
    '"vectors": "AAAAAAAA4D8AAAAAAADwvwAAAAAAAABA", "positive_relations": [0], '
    '"gold_positive_relations": null}\n'
)


@pytest.fixture
def small_corpus():
    return make_corpus([{0}, {1, 2}, set(), {0, 3}, set()])
