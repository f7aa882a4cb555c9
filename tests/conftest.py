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
        head_vectors=rng.normal(size=dim),
        tail_vectors=rng.normal(size=dim),
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
    """A saved corpus file (format 5) as parts to edit: the ``header`` dict,
    ``arrays``, one per record field (``doc_index`` ``(n,)``, ``ids``
    ``(n, 2)``, ``has_gold`` ``(n,)``, ``labels`` ``(n, 2, w)`` bit rows),
    and ``rows``, each record's three payload rows (pooled head, pooled
    tail, context). ``save`` writes the parts back in the file's layout.
    The parts are read by this class alone, not by ``load_corpus``."""

    FIELDS = (("doc_index", "<i8", ()), ("ids", "<i8", (2,)), ("has_gold", "u1", ()),
              ("labels", "u1", (2, "w")))

    def __init__(self, path):
        with open(path, "rb") as fh:
            line, data = fh.read().split(b"\n", 1)
        self.path, self.header = path, json.loads(line)
        n, width = self.header["num_examples"], -(-len(self.header["relations"]) // 8)
        self.arrays, offset = {}, 0
        for name, dtype, trailing in self.FIELDS:
            shape = (n, *(width if d == "w" else d for d in trailing))
            array = np.frombuffer(data, dtype, int(np.prod(shape)), offset).reshape(shape)
            self.arrays[name], offset = array.copy(), offset + array.nbytes
        vectors = np.frombuffer(data[offset:], "<f8").copy()
        self.rows = list(vectors.reshape(n, 3, self.header["embedding_dim"]))

    def edit(self, k=None, header=None, rows=None, **fields):
        """Apply ``header`` to the header dict, set record ``k``'s array
        ``fields`` (``ids=[4, 4]``, ``has_gold=0``, ...) and apply ``rows``
        to its rows, then save."""
        if header is not None:
            header(self.header)
        for name, value in fields.items():
            self.arrays[name][k] = value
        if rows is not None:
            rows(self.rows[k])
        self.save()

    def take(self, records):
        """Keep the records at the indices ``records``, in that order, then save."""
        self.header["num_examples"] = len(records)
        self.arrays = {name: array[records] for name, array in self.arrays.items()}
        self.rows = [self.rows[k] for k in records]
        self.save()

    def examples(self):
        """The file's pairs, decoded from the parts: a label set holds ``r``
        where bit ``r % 8`` of byte ``r // 8`` of its row is set. A record
        that no pair can hold (a doc index outside ``doc_ids``, a gold flag
        other than 0 and 1, gold bits without the flag) raises ValueError."""
        a, doc_ids = self.arrays, self.header["doc_ids"]

        def labels(row):
            return frozenset(8 * i + b for i, byte in enumerate(row.tolist()) for b in range(8)
                             if byte >> b & 1)

        pairs = []
        for k, rows in enumerate(self.rows):
            doc, flag = int(a["doc_index"][k]), int(a["has_gold"][k])
            positive, gold = map(labels, a["labels"][k])
            if not (0 <= doc < len(doc_ids) and flag in (0, 1) and (flag or not gold)):
                raise ValueError(f"record {k} holds no pair")
            pairs.append(PairExample(doc_ids[doc], int(a["ids"][k, 0]), int(a["ids"][k, 1]),
                                     *rows, positive, gold if flag else None))
        return tuple(pairs)

    def save(self):
        parts = [json.dumps(self.header).encode() + b"\n"]
        parts += [self.arrays[name].astype(dtype).tobytes() for name, dtype, _ in self.FIELDS]
        parts += [np.concatenate(self.rows).astype("<f8").tobytes() if self.rows else b""]
        with open(self.path, "wb") as fh:
            fh.write(b"".join(parts))


# a corpus file as format version 2 wrote it: each record's vectors a base64
# string of its float64 rows
FORMAT_2_FILE = (
    '{"format": "docrel-corpus", "version": 2, "relations": ["r0"], "na_index": 1, '
    '"train_frequency": {}, "label_source": "gold", "embedding_dim": 1, "num_examples": 1}\n'
    '{"doc_id": "doc0", "head_id": 0, "tail_id": 1, "mentions": [1, 1], '
    '"vectors": "AAAAAAAA4D8AAAAAAADwvwAAAAAAAABA", "positive_relations": [0], '
    '"gold_positive_relations": null}\n'
).encode()

# the same corpus as format version 3 wrote it: JSON record lines, an empty
# line, then the float64 rows
FORMAT_3_FILE = (
    b'{"format": "docrel-corpus", "version": 3, "relations": ["r0"], "na_index": 1, '
    b'"train_frequency": {}, "label_source": "gold", "embedding_dim": 1, "num_examples": 1}\n'
    b'{"doc_id": "doc0", "head_id": 0, "tail_id": 1, "mentions": [1, 1], '
    b'"positive_relations": [0], "gold_positive_relations": null}\n\n'
    + np.array([0.5, -1.0, 2.0], "<f8").tobytes()
)


# the same corpus as format version 4 wrote it (the bytes of format 4's
# save_corpus): a header with doc_ids, the record arrays (doc index, ids,
# mention counts, gold flag, bit rows), then each mention row and the context
FORMAT_4_FILE = (
    b'{"format": "docrel-corpus", "version": 4, "relations": ["r0"], "na_index": 1, '
    b'"train_frequency": {}, "label_source": "gold", "embedding_dim": 1, "num_examples": 1, '
    b'"doc_ids": ["doc0"]}\n'
    + np.array([0, 0, 1, 1, 1], "<i8").tobytes() + bytes([0, 1, 0])
    + np.array([0.5, -1.0, 2.0], "<f8").tobytes()
)


@pytest.fixture
def small_corpus():
    return make_corpus([{0}, {1, 2}, set(), {0, 3}, set()])
