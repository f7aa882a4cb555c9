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

import enum
import itertools
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    "logsumexp_pool",
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
    the training labels come from a noisy source. In a loaded corpus the
    vectors of every pair are row views of one float64 array per file.
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


# bytes of each temporary when pooling a corpus or scoring a split: blocks
# whose arrays stay under the allocator's default mmap threshold (128 KiB)
# reuse freed heap memory instead of page-faulting fresh pages every pass
_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True, eq=False)
class Corpus:
    """A relation vocabulary and its pair examples. The arrays derived from
    the examples are built on first use and cached read-only; a copy made
    with ``replace(corpus, examples=...)`` derives its own."""

    vocabulary: RelationVocabulary
    examples: tuple[PairExample, ...]
    label_source: LabelSource
    embedding_dim: int

    def validate(self) -> None:
        """Check the corpus-wide invariants; raises on the first violation."""
        for i, ex in enumerate(self.examples):
            _check_example(ex, self.vocabulary.num_relations, self.embedding_dim, f"example {i}")

    @cached_property
    def head_rows(self) -> np.ndarray:
        """``(n, d)``: each pair's head mentions, log-sum-exp pooled."""
        return _frozen(_pool_sides([ex.head_vectors for ex in self.examples], self))

    @cached_property
    def tail_rows(self) -> np.ndarray:
        """``(n, d)``: each pair's tail mentions, log-sum-exp pooled."""
        return _frozen(_pool_sides([ex.tail_vectors for ex in self.examples], self))

    @cached_property
    def context_rows(self) -> np.ndarray:
        """``(n, d)``: each pair's context vector."""
        contexts = [ex.context for ex in self.examples]
        return _frozen(np.stack(contexts) if contexts else np.empty((0, self.embedding_dim)))

    @cached_property
    def label_rows(self) -> np.ndarray:
        """``(n, |R|)`` boolean: each pair's training label set."""
        sets = [ex.positive_relations for ex in self.examples]
        return _frozen(label_mask(sets, self.vocabulary.num_relations))

    @cached_property
    def gold_rows(self) -> np.ndarray:
        """``(n, |R|)`` boolean: each pair's gold label set, else its training set."""
        sets = [ex.labels(use_gold=True) for ex in self.examples]
        return _frozen(label_mask(sets, self.vocabulary.num_relations))

    @cached_property
    def na_flags(self) -> np.ndarray:
        """``(n,)`` boolean: which pairs are NA (no training label)."""
        return _frozen(~self.label_rows.any(axis=1))

    @cached_property
    def document_groups(self) -> dict[str, np.ndarray]:
        """Each doc_id, in first-appearance order, with its examples' indices."""
        groups: dict[str, list[int]] = {}
        for i, ex in enumerate(self.examples):
            groups.setdefault(ex.doc_id, []).append(i)
        return {doc: _frozen(np.array(rows, dtype=np.intp)) for doc, rows in groups.items()}

    def document_order(self) -> list[str]:
        """Distinct doc_ids in first-appearance order."""
        return list(self.document_groups)

    def examples_by_document(self) -> dict[str, list[int]]:
        return {doc: rows.tolist() for doc, rows in self.document_groups.items()}


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _segment_lse(mat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Componentwise log-sum-exp over consecutive row segments of ``mat``."""
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    shift = np.maximum.reduceat(mat, starts, axis=0)
    total = np.add.reduceat(np.exp(mat - np.repeat(shift, counts, axis=0)), starts, axis=0)
    return shift + np.log(total)


def _pool_sides(sides: list[np.ndarray], corpus: Corpus) -> np.ndarray:
    """One log-sum-exp row per ``(k, d)`` mention array, ``(n, d)``.

    Runs of sides are pooled together, as many as keep the stacked mentions
    of the largest sides under ``_BLOCK_BYTES``; a row's value does not
    depend on its run.
    """
    counts = np.fromiter(map(len, sides), np.intp, len(sides))
    if counts.size and counts.min() == 0:
        ex = corpus.examples[int(np.argmin(counts))]
        raise ContractError(f"pair {ex.doc_id}/{ex.head_id}/{ex.tail_id}: no mentions")
    dim = corpus.embedding_dim
    step = max(1, _BLOCK_BYTES // (8 * dim * counts.max(initial=1)))
    pooled = np.empty((len(sides), dim))
    for k in range(0, len(sides), step):
        mat = np.concatenate(sides[k : k + step], dtype=np.float64)
        if mat.shape[1:] != (dim,):
            raise ShapeError(f"mentions of shape {mat.shape[1:]} in a corpus of dimension {dim}")
        pooled[k : k + step] = _segment_lse(mat, counts[k : k + step])
    return pooled


def logsumexp_pool(mention_embeddings) -> np.ndarray:
    """Componentwise log-sum-exp over a nonempty stack of same-length vectors."""
    if len(mention_embeddings) == 0:
        raise ContractError("logsumexp_pool: empty mention sequence")
    try:
        mat = np.asarray(mention_embeddings, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"logsumexp_pool: ragged mention stack: {exc}") from exc
    if mat.ndim != 2:
        raise ShapeError("logsumexp_pool: mentions must share one dimension")
    return _segment_lse(mat, np.array([mat.shape[0]]))[0]


def _check_pair(head_id: int, tail_id: int, label_sets, n_rel: int, where: str) -> None:
    """The pair's two ids differ, and every label is one of ``n_rel`` relations.

    Relation indices run ``0 .. n_rel-1``, so the NA index ``n_rel`` is never
    a valid label. Errors name the pair by ``where``.
    """
    if head_id == tail_id:
        raise DataFormatError(f"{where}: head_id == tail_id == {head_id}")
    for label_set in label_sets:
        for r in label_set:
            if not (0 <= r < n_rel):
                raise DataFormatError(f"{where}: relation index {r} out of range")


def _check_example(ex: PairExample, n_rel: int, dim: int, where: str) -> None:
    """Check one example against a vocabulary of ``n_rel`` relations and ``dim``.

    Errors name the example by ``where``. Besides ``_check_pair``'s checks,
    each side is a nonempty ``(k, dim)`` array, the context a ``(dim,)``
    vector, and every vector is finite.
    """
    labels = (ex.positive_relations, ex.gold_positive_relations or frozenset())
    _check_pair(ex.head_id, ex.tail_id, labels, n_rel, where)
    for side, mentions in (("head", ex.head_vectors), ("tail", ex.tail_vectors)):
        if mentions.ndim != 2 or mentions.shape[1] != dim:
            raise ShapeError(f"{where}: {side} mention shape {mentions.shape}, expected (k, {dim})")
        if not len(mentions):
            raise DataFormatError(f"{where}: {side} entity with no mentions")
    if ex.context.shape != (dim,):
        raise ShapeError(f"{where}: context shape {ex.context.shape}, expected ({dim},)")
    if not all(np.isfinite(a).all() for a in (ex.context, ex.head_vectors, ex.tail_vectors)):
        part = "a mention embedding" if np.isfinite(ex.context).all() else "the context"
        raise DataFormatError(f"{where}: non-finite value in {part}")


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
# Serialization, format version 3. A corpus file holds text lines, then one
# raw payload, as a checkpoint does: one JSON header line, one JSON record
# line per example, an empty line, then the vectors of every example as
# little-endian float64 rows of ``embedding_dim`` values. A record holds the
# example's ids and label sets and its mention counts ``"mentions": [h, t]``;
# its ``h + t + 1`` rows (the head mentions, then the tail mentions, then the
# context) follow the rows of the records before it. Raw bytes round-trip
# every value bitwise, and the payload is written and read in one call. A
# mention's entity is its pair's head or tail id, so it is not stored.

_FORMAT = "docrel-corpus"
_FORMAT_VERSION = 3


def save_corpus(corpus: Corpus, path) -> None:
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
    lines = [json.dumps(header)]
    rows = []
    for ex in corpus.examples:
        record = {
            "doc_id": ex.doc_id,
            "head_id": ex.head_id,
            "tail_id": ex.tail_id,
            "mentions": [len(ex.head_vectors), len(ex.tail_vectors)],
            "positive_relations": sorted(ex.positive_relations),
            "gold_positive_relations": (
                sorted(ex.gold_positive_relations)
                if ex.gold_positive_relations is not None
                else None
            ),
        }
        lines.append(json.dumps(record))
        rows += (ex.head_vectors, ex.tail_vectors, ex.context[None])
    # checked before the file is opened, so a bad corpus leaves any file there as it was
    try:
        payload = np.concatenate(rows, dtype="<f8") if rows else np.empty((0, corpus.embedding_dim))
    except (ValueError, TypeError) as exc:
        raise DataFormatError(f"{path}: cannot save corpus: {exc}") from exc
    if payload.shape[1:] != (corpus.embedding_dim,):
        raise DataFormatError(
            f"{path}: cannot save corpus: vectors of shape {payload.shape[1:]} in a corpus "
            f"of dimension {corpus.embedding_dim}"
        )
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n\n").encode("utf-8"))
        fh.write(payload.tobytes())


def _record_from_json(obj: dict, n_rel: int, where: str) -> tuple:
    """A checked record: its ids, mention counts and label sets."""
    n_head, n_tail = obj["mentions"]
    if not all(type(n) is int and n > 0 for n in (n_head, n_tail)):
        raise DataFormatError(
            f"{where}: mention counts {[n_head, n_tail]} are not positive integers"
        )
    head_id, tail_id = obj["head_id"], obj["tail_id"]
    positive, gold = obj["positive_relations"], obj.get("gold_positive_relations")
    for value in (head_id, tail_id, *positive, *(gold or ())):
        if type(value) is not int:
            raise DataFormatError(f"{where}: id or label {value!r} is not an integer")
    positive = frozenset(positive)
    gold = frozenset(gold) if gold is not None else None
    _check_pair(head_id, tail_id, (positive, gold or frozenset()), n_rel, where)
    return str(obj["doc_id"]), head_id, tail_id, n_head, n_tail, positive, gold


# what decoding a JSON value of the wrong shape or type raises
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def _header_from_json(line: bytes, path) -> tuple[dict, RelationVocabulary, LabelSource, int]:
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
        dim, frequencies = header["embedding_dim"], header.get("train_frequency", {})
        counts = (header["na_index"], dim, *frequencies.values())
        if not all(type(n) is int for n in counts) or dim < 1:
            raise ValueError(f"na_index {counts[0]!r}, embedding_dim {dim!r} and train "
                             "frequencies must be integers, the dimension positive")
        vocab = RelationVocabulary(tuple(header["relations"]), header["na_index"], frequencies)
        return header, vocab, LabelSource(header["label_source"]), dim
    except (*_DECODE_ERRORS, ConfigError) as exc:
        raise DataFormatError(f"{path}:1: bad header: {exc!r}") from exc


def load_corpus(path) -> Corpus:
    """Load and validate a corpus file.

    Every record gets the checks of ``Corpus.validate``, and duplicate
    (doc, head, tail) triples are rejected. Each pair's vectors are row views
    of one float64 array that holds the whole file's payload. A file that
    cannot be read, is not format version 3, holds a malformed record or a
    payload of the wrong size raises DataFormatError naming the path, and
    ``path:line`` for a fault in one record.
    """
    records = []
    try:
        with open(path, "rb") as fh:
            header, vocab, label_source, dim = _header_from_json(fh.readline(), path)
            for lineno in itertools.count(2):
                line = fh.readline()
                if line in (b"\n", b""):
                    break
                text = line.decode("utf-8")
                try:
                    records.append(
                        _record_from_json(json.loads(text), vocab.num_relations, f"{path}:{lineno}")
                    )
                except _DECODE_ERRORS as exc:
                    raise DataFormatError(f"{path}:{lineno}: bad record: {exc!r}") from exc
            payload = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read corpus file: {exc}") from exc
    if header.get("num_examples", len(records)) != len(records):
        raise DataFormatError(
            f"{path}: header declares {header['num_examples']} examples, found {len(records)}"
        )
    sizes = (n_head + n_tail + 1 for _, _, _, n_head, n_tail, _, _ in records)
    ends = list(itertools.accumulate(sizes))  # Python integers: a huge count cannot wrap
    rows = ends[-1] if ends else 0
    if len(payload) != 8 * rows * dim:
        raise DataFormatError(
            f"{path}: vectors hold {len(payload)} bytes, expected {rows} rows of {dim} "
            "float64 values"
        )
    vectors = np.frombuffer(payload, "<f8").reshape(rows, dim).astype(np.float64)
    if not np.isfinite(vectors).all():
        _raise_non_finite(vectors, ends, path)
    examples = []
    start = 0
    for (doc_id, head_id, tail_id, n_head, n_tail, positive, gold), end in zip(records, ends):
        examples.append(
            PairExample(
                doc_id=doc_id,
                head_id=head_id,
                tail_id=tail_id,
                head_vectors=vectors[start : start + n_head],
                tail_vectors=vectors[start + n_head : end - 1],
                context=vectors[end - 1],
                positive_relations=positive,
                gold_positive_relations=gold,
            )
        )
        start = end
    corpus = Corpus(vocab, tuple(examples), label_source, dim)
    try:
        build_pair_index(corpus)
    except DuplicatePairError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return corpus


def _raise_non_finite(vectors: np.ndarray, ends: list[int], path) -> None:
    """Name the first record whose rows of ``vectors`` hold a non-finite value."""
    finite = np.isfinite(vectors).all(axis=1)
    k = int(np.searchsorted(ends, np.argmin(finite), side="right"))
    part = "the context" if not finite[ends[k] - 1] else "a mention embedding"
    raise DataFormatError(f"{path}:{k + 2}: non-finite value in {part}")


def count_relation_frequencies(corpus: Corpus) -> dict[str, int]:
    """Count how many examples carry each relation (by current labels)."""
    counts = {name: 0 for name in corpus.vocabulary.relations}
    for ex in corpus.examples:
        for r in ex.positive_relations:
            counts[corpus.vocabulary.relations[r]] += 1
    return counts
