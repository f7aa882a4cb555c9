"""Core domain types: relation vocabulary, entity pairs, corpora, bucketing.

An example is one ordered entity pair (head, tail) inside a document. Its
label is the set of relations that hold between the two entities; an empty
set means the NA class. The NA class doubles as a learned per-example
threshold, so the logit vector has ``|R| + 1`` entries with the threshold
logit at index ``|R|``.

For every example the relation set splits into positives (labeled) and
negatives (everything else); the two always partition the full relation
set.
"""

from __future__ import annotations

import base64
import enum
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError, DuplicatePairError, ShapeError

__all__ = [
    "Bucket",
    "LabelSource",
    "RelationVocabulary",
    "Mention",
    "PairExample",
    "Corpus",
    "build_pair_index",
    "bucket_relations",
    "label_mask",
    "save_corpus",
    "load_corpus",
]


class Bucket(str, enum.Enum):
    HEAD = "head"
    MID = "mid"
    TAIL = "tail"


class LabelSource(str, enum.Enum):
    ORIGINAL = "original"
    GOLD = "gold"
    SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class RelationVocabulary:
    """The predefined relation set plus the NA threshold class.

    Relations occupy logit indices ``0 .. len(relations)-1``; the NA class
    occupies ``na_index``, which must equal ``len(relations)`` so that the
    logit vector is dense with dimension ``|R| + 1``.
    """

    relations: tuple[str, ...]
    na_index: int
    train_frequency: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.relations)) != len(self.relations):
            raise ConfigError("relation identifiers must be unique")
        if self.na_index != len(self.relations):
            raise ConfigError(
                f"na_index must be {len(self.relations)} (one past the last "
                f"relation index), got {self.na_index}"
            )
        for name, count in self.train_frequency.items():
            if name not in self.relations:
                raise ConfigError(f"train_frequency key {name!r} is not a relation")
            if count < 0:
                raise ConfigError(f"train_frequency[{name!r}] is negative")

    @classmethod
    def from_relations(
        cls, relations: Iterable[str], train_frequency: Mapping[str, int] | None = None
    ) -> "RelationVocabulary":
        rels = tuple(relations)
        return cls(rels, len(rels), dict(train_frequency or {}))

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_logits(self) -> int:
        return len(self.relations) + 1

    def frequency_of(self, index: int) -> int:
        return int(self.train_frequency.get(self.relations[index], 0))

    def with_frequencies(self, counts: Mapping[str, int]) -> "RelationVocabulary":
        return replace(self, train_frequency=dict(counts))


@dataclass(frozen=True, eq=False)
class Mention:
    """One mention of an entity, carrying its embedding: a read-only view of
    one row of a pair's ``head_vectors`` or ``tail_vectors``."""

    entity_id: int
    embedding: np.ndarray


@dataclass(frozen=True, eq=False)
class PairExample:
    """One ordered entity pair with its features and label set.

    ``head_vectors`` and ``tail_vectors`` are ``(k, d)`` arrays, one row per
    mention of the head or the tail entity. ``positive_relations`` is the
    label set used for training; an empty set is the NA class.
    ``gold_positive_relations`` preserves the uncorrupted ground truth when
    the training labels come from a noisy source.
    """

    doc_id: str
    head_id: int
    tail_id: int
    head_vectors: np.ndarray
    tail_vectors: np.ndarray
    context: np.ndarray
    positive_relations: frozenset[int]
    gold_positive_relations: frozenset[int] | None = None

    @property
    def head_mentions(self) -> tuple[Mention, ...]:
        return tuple(Mention(self.head_id, row) for row in self.head_vectors)

    @property
    def tail_mentions(self) -> tuple[Mention, ...]:
        return tuple(Mention(self.tail_id, row) for row in self.tail_vectors)

    @property
    def is_na(self) -> bool:
        return not self.positive_relations

    def labels(self, use_gold: bool) -> frozenset[int]:
        if use_gold and self.gold_positive_relations is not None:
            return self.gold_positive_relations
        return self.positive_relations


@dataclass(frozen=True, eq=False)
class Corpus:
    vocabulary: RelationVocabulary
    examples: tuple[PairExample, ...]
    label_source: LabelSource
    embedding_dim: int

    def validate(self) -> None:
        """Check the corpus-wide invariants; raises on the first violation."""
        for i, ex in enumerate(self.examples):
            _check_example(ex, self.vocabulary.num_relations, self.embedding_dim, f"example {i}")

    def document_order(self) -> list[str]:
        """Distinct doc_ids in first-appearance order."""
        seen: dict[str, None] = {}
        for ex in self.examples:
            seen.setdefault(ex.doc_id, None)
        return list(seen)

    def examples_by_document(self) -> dict[str, list[int]]:
        groups: dict[str, list[int]] = {}
        for i, ex in enumerate(self.examples):
            groups.setdefault(ex.doc_id, []).append(i)
        return groups


def _check_example(ex: PairExample, n_rel: int, dim: int, where: str) -> None:
    """Check one example against a vocabulary of ``n_rel`` relations and ``dim``.

    Errors name the example by ``where``. Relation indices run
    ``0 .. n_rel-1``, so the NA index ``n_rel`` is never a valid label, and
    every vector must be finite.
    """
    if ex.head_id == ex.tail_id:
        raise DataFormatError(f"{where}: head_id == tail_id == {ex.head_id}")
    for side, vectors in (("head", ex.head_vectors), ("tail", ex.tail_vectors)):
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise ShapeError(f"{where}: {side} mention shape {vectors.shape}, expected (k, {dim})")
        if not len(vectors):
            raise DataFormatError(f"{where}: {side} entity with no mentions")
    if ex.context.shape != (dim,):
        raise ShapeError(f"{where}: context shape {ex.context.shape}, expected ({dim},)")
    if not np.isfinite(ex.context).all():
        raise DataFormatError(f"{where}: non-finite value in the context")
    if not (np.isfinite(ex.head_vectors).all() and np.isfinite(ex.tail_vectors).all()):
        raise DataFormatError(f"{where}: non-finite value in a mention embedding")
    for label_set in (ex.positive_relations, ex.gold_positive_relations or frozenset()):
        for r in label_set:
            if not (0 <= r < n_rel):
                raise DataFormatError(f"{where}: relation index {r} out of range")


def label_mask(index_sets, width: int) -> np.ndarray:
    """Boolean matrix with one row per set, true at the set's indices.

    Raises ContractError if an index falls outside ``0 .. width-1``.
    """
    sizes = [len(s) for s in index_sets]
    rows = np.repeat(np.arange(len(sizes)), sizes)
    cols = np.fromiter(itertools.chain.from_iterable(index_sets), np.intp, len(rows))
    if cols.size and (cols.min() < 0 or cols.max() >= width):
        raise ContractError(f"indices span {cols.min()}..{cols.max()}, outside 0..{width - 1}")
    mask = np.zeros((len(sizes), width), dtype=bool)
    mask[rows, cols] = True
    return mask


def build_pair_index(corpus: Corpus) -> dict[tuple[str, int, int], int]:
    """Map (doc_id, head_id, tail_id) to the example's position.

    Raises DuplicatePairError if the same triple appears twice.
    """
    index: dict[tuple[str, int, int], int] = {}
    for i, ex in enumerate(corpus.examples):
        key = (ex.doc_id, ex.head_id, ex.tail_id)
        if key in index:
            raise DuplicatePairError(*key)
        index[key] = i
    return index


def bucket_relations(
    vocab: RelationVocabulary, cuts: tuple[int, int] = (10, 20)
) -> dict[int, Bucket]:
    """Partition relations into head/mid/tail buckets by training frequency.

    Relations are ranked by descending train frequency, ties broken by
    ascending relation index; the top ``cuts[0]`` become HEAD, the bottom
    ``cuts[1]`` become TAIL, the remainder MID.
    """
    head_count, tail_count = cuts
    n = vocab.num_relations
    if head_count < 0 or tail_count < 0 or head_count + tail_count > n:
        raise ConfigError(
            f"bucket cuts {cuts} invalid for {n} relations "
            f"(need head + tail <= |R|)"
        )
    ranked = sorted(range(n), key=lambda k: (-vocab.frequency_of(k), k))
    buckets: dict[int, Bucket] = {}
    for rank, rel in enumerate(ranked):
        if rank < head_count:
            buckets[rel] = Bucket.HEAD
        elif rank >= n - tail_count:
            buckets[rel] = Bucket.TAIL
        else:
            buckets[rel] = Bucket.MID
    return buckets


# ---------------------------------------------------------------------------
# Serialization: one JSON record per example, preceded by one header record.
# A record holds the example's ids and label sets, its mention counts
# ``"mentions": [h, t]`` and its vectors: ``"vectors"`` is one base64 string
# of ``h + t + 1`` rows of ``embedding_dim`` little-endian float64 values, the
# head mentions, then the tail mentions, then the context. Raw bytes
# round-trip every value bitwise and cost a fraction of decimal formatting
# and parsing. A mention's entity is its pair's head or tail id, so it is
# not stored.

_FORMAT = "docrel-corpus"
_FORMAT_VERSION = 2


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": _FORMAT,
            "version": _FORMAT_VERSION,
            "relations": list(corpus.vocabulary.relations),
            "na_index": corpus.vocabulary.na_index,
            "train_frequency": dict(corpus.vocabulary.train_frequency),
            "label_source": corpus.label_source.value,
            "embedding_dim": corpus.embedding_dim,
            "num_examples": len(corpus.examples),
        }
        fh.write(json.dumps(header) + "\n")
        for ex in corpus.examples:
            vectors = np.concatenate((ex.head_vectors, ex.tail_vectors, ex.context[None]))
            record = {
                "doc_id": ex.doc_id,
                "head_id": ex.head_id,
                "tail_id": ex.tail_id,
                "mentions": [len(ex.head_vectors), len(ex.tail_vectors)],
                "vectors": base64.b64encode(
                    vectors.astype("<f8", copy=False).tobytes()
                ).decode("ascii"),
                "positive_relations": sorted(ex.positive_relations),
                "gold_positive_relations": (
                    sorted(ex.gold_positive_relations)
                    if ex.gold_positive_relations is not None
                    else None
                ),
            }
            fh.write(json.dumps(record) + "\n")


def _example_from_json(obj: dict, dim: int, where: str) -> PairExample:
    n_head, n_tail = obj["mentions"]
    if not all(type(n) is int and n > 0 for n in (n_head, n_tail)):
        raise DataFormatError(
            f"{where}: mention counts {[n_head, n_tail]} are not positive integers"
        )
    rows = n_head + n_tail + 1
    data = base64.b64decode(obj["vectors"], validate=True)
    if len(data) != 8 * rows * dim:
        raise DataFormatError(
            f"{where}: vectors hold {len(data)} bytes, expected {rows} rows of {dim} float64 values"
        )
    # one owning array per record; the mentions and the context are its rows
    vectors = np.frombuffer(data, "<f8").reshape(rows, dim).astype(np.float64)
    head_id, tail_id = obj["head_id"], obj["tail_id"]
    gold = obj.get("gold_positive_relations")
    for value in (head_id, tail_id, *obj["positive_relations"], *(gold or ())):
        if type(value) is not int:
            raise DataFormatError(f"{where}: id or label {value!r} is not an integer")
    return PairExample(
        doc_id=str(obj["doc_id"]),
        head_id=head_id,
        tail_id=tail_id,
        head_vectors=vectors[:n_head],
        tail_vectors=vectors[n_head:-1],
        context=vectors[-1],
        positive_relations=frozenset(obj["positive_relations"]),
        gold_positive_relations=frozenset(gold) if gold is not None else None,
    )


# what decoding a JSON value of the wrong shape or type raises
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def _header_from_json(line: str, path) -> tuple[dict, RelationVocabulary, LabelSource, int]:
    if not line:
        raise DataFormatError(f"{path}: empty corpus file")
    try:
        header = json.loads(line)
        if header.get("format") != _FORMAT:
            raise DataFormatError(f"{path}: not a corpus file")
        if header.get("version") != _FORMAT_VERSION:
            raise DataFormatError(
                f"{path}:1: corpus format version {header.get('version')!r}, expected "
                f"{_FORMAT_VERSION}; rebuild the bundle with gen-data and build-regime"
            )
        vocab = RelationVocabulary(
            tuple(header["relations"]),
            int(header["na_index"]),
            {k: int(v) for k, v in header.get("train_frequency", {}).items()},
        )
        return header, vocab, LabelSource(header["label_source"]), int(header["embedding_dim"])
    except (*_DECODE_ERRORS, ConfigError) as exc:
        raise DataFormatError(f"{path}:1: bad header: {exc!r}") from exc


def load_corpus(path) -> Corpus:
    """Load and validate a corpus file.

    Every record gets the checks of ``Corpus.validate`` as it is read, and
    duplicate (doc, head, tail) triples are rejected. A file that cannot be
    read, is not format version 2, or holds a malformed record raises
    DataFormatError naming ``path:line``.
    """
    examples = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header, vocab, label_source, dim = _header_from_json(fh.readline(), path)
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    where = f"{path}:{lineno}"
                    ex = _example_from_json(json.loads(line), dim, where)
                    _check_example(ex, vocab.num_relations, dim, where)
                except _DECODE_ERRORS as exc:
                    raise DataFormatError(f"{path}:{lineno}: bad record: {exc!r}") from exc
                examples.append(ex)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read corpus file: {exc}") from exc
    if header.get("num_examples", len(examples)) != len(examples):
        raise DataFormatError(
            f"{path}: header declares {header['num_examples']} examples, found {len(examples)}"
        )
    corpus = Corpus(vocab, tuple(examples), label_source, dim)
    try:
        build_pair_index(corpus)
    except DuplicatePairError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return corpus


def count_relation_frequencies(corpus: Corpus) -> dict[str, int]:
    """Count how many examples carry each relation (by current labels)."""
    counts = {name: 0 for name in corpus.vocabulary.relations}
    for ex in corpus.examples:
        for r in ex.positive_relations:
            counts[corpus.vocabulary.relations[r]] += 1
    return counts
