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
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, NoReturn, Sequence

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
        names = set(self.relations)
        if len(names) != len(self.relations):
            raise ConfigError("relation identifiers must be unique")
        if self.na_index != len(self.relations):
            raise ConfigError(
                f"na_index must be {len(self.relations)} (one past the last "
                f"relation index), got {self.na_index}"
            )
        for name, count in self.train_frequency.items():
            if name not in names:
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
    """One mention of an entity, carrying its embedding: a view of one row
    of a pair's ``head_vectors`` or ``tail_vectors``, read-only when the
    pair comes from a loaded corpus."""

    entity_id: int
    embedding: np.ndarray


@dataclass(frozen=True, eq=False)
class PairExample:
    """One ordered entity pair with its features and label set.

    ``head_vectors`` and ``tail_vectors`` are ``(k, d)`` arrays, one row per
    mention of the head or the tail entity. ``positive_relations`` is the
    label set used for training; an empty set is the NA class.
    ``gold_positive_relations`` preserves the uncorrupted ground truth when
    the training labels come from a noisy source. A loaded corpus builds
    its examples on first access, the vectors of every pair read-only row
    views of one float64 array per file.
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

# the per-pair fields that ``Corpus.column`` reads
_FIELDS = ("doc_id", "head_id", "tail_id", "positive_relations", "gold_positive_relations")
# the per-pair vector fields, in a corpus file's row order
_VECTOR_FIELDS = ("head_vectors", "tail_vectors", "context")


@dataclass(frozen=True, eq=False)
class Corpus:
    """A relation vocabulary and its pair examples. The arrays derived from
    the examples are computed once, on first use, and are read-only; a copy
    made with ``replace`` derives its own. An in-memory corpus's vector
    arrays stay its caller's, so writing into one after the first use
    leaves the derived arrays as they were. A loaded corpus's examples
    object holds the file's payload (read-only), mention counts and
    columns, and every array is derived from them, so scoring or training
    on it builds no ``PairExample``; so does a copy made with ``replace``
    that keeps it."""

    vocabulary: RelationVocabulary
    examples: Sequence[PairExample]
    label_source: LabelSource
    embedding_dim: int

    def validate(self) -> None:
        """Check every example with ``_check_example``, naming the first at
        fault ``example k``, then that no (doc_id, head_id, tail_id) triple
        repeats (``build_pair_index``)."""
        for i, ex in enumerate(self.examples):
            _check_example(ex, self.vocabulary.num_relations, self.embedding_dim, f"example {i}")
        build_pair_index(self)

    def column(self, name: str) -> Sequence:
        """One field of every pair, one of ``_FIELDS``, in corpus order. A
        loaded corpus returns its examples object's column; any other reads
        its examples on each call and keeps nothing."""
        if isinstance(self.examples, _LoadedExamples):
            return self.examples.columns[name]
        return list(map(attrgetter(name), self.examples))

    @cached_property
    def _pair_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(map(_frozen, _pool_sides(self)))

    @property
    def head_rows(self) -> np.ndarray:
        """``(n, d)``: each pair's head mentions, log-sum-exp pooled."""
        return self._pair_rows[0]

    @property
    def tail_rows(self) -> np.ndarray:
        """``(n, d)``: each pair's tail mentions, log-sum-exp pooled."""
        return self._pair_rows[1]

    @property
    def context_rows(self) -> np.ndarray:
        """``(n, d)``: each pair's context vector."""
        return self._pair_rows[2]

    @cached_property
    def label_rows(self) -> np.ndarray:
        """``(n, |R|)`` boolean: each pair's training label set."""
        return _frozen(label_mask(self.column("positive_relations"), self.vocabulary.num_relations))

    @cached_property
    def gold_rows(self) -> np.ndarray:
        """``(n, |R|)`` boolean: each pair's gold label set, else its training set."""
        training, gold = self.column("positive_relations"), self.column("gold_positive_relations")
        sets = [t if g is None else g for t, g in zip(training, gold)]
        return _frozen(label_mask(sets, self.vocabulary.num_relations))

    @cached_property
    def na_flags(self) -> np.ndarray:
        """``(n,)`` boolean: which pairs are NA (no training label)."""
        return _frozen(~self.label_rows.any(axis=1))

    @cached_property
    def document_groups(self) -> dict[str, np.ndarray]:
        """Each doc_id, in first-appearance order, with its examples' indices."""
        groups: dict[str, list[int]] = {}
        for i, doc in enumerate(self.column("doc_id")):
            groups.setdefault(doc, []).append(i)
        return {doc: _frozen(np.array(rows, dtype=np.intp)) for doc, rows in groups.items()}

    def document_order(self) -> list[str]:
        """Distinct doc_ids in first-appearance order."""
        return list(self.document_groups)

    def examples_by_document(self) -> dict[str, list[int]]:
        return {doc: rows.tolist() for doc, rows in self.document_groups.items()}


class _LoadedExamples(Sequence):
    """A loaded corpus's examples and what they are built from: the file's
    payload ``vectors``, each pair's mention ``counts`` and one column per
    field of ``Corpus.column``. ``len`` is known at once; the tuple of
    ``PairExample`` is built on first access and kept, each pair's vectors
    row views of the payload. Indexing and iteration work as on that tuple,
    and a slice is a tuple."""

    __slots__ = ("vectors", "counts", "columns", "_tuple")

    def __init__(self, vectors: np.ndarray, counts: np.ndarray, columns: dict[str, Sequence]):
        self.vectors, self.counts, self.columns = vectors, counts, columns
        self._tuple = None

    def _built(self) -> tuple[PairExample, ...]:
        if self._tuple is None:
            starts, tail_starts, context_rows = (a.tolist() for a in _offsets(self.counts))
            row, columns = self.vectors.__getitem__, self.columns
            self._tuple = tuple(
                map(
                    PairExample,
                    columns["doc_id"],
                    columns["head_id"],
                    columns["tail_id"],
                    map(row, map(slice, starts, tail_starts)),
                    map(row, map(slice, tail_starts, context_rows)),
                    map(row, context_rows),
                    columns["positive_relations"],
                    columns["gold_positive_relations"],
                )
            )
        return self._tuple

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())


def _offsets(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each record's rows lie in a corpus file's payload: its first
    head row, its first tail row and its context row, where record ``k``'s
    ``counts[k].sum() + 1`` rows follow those of the records before it."""
    context_rows = np.cumsum(counts.sum(axis=1) + 1) - 1
    tail_starts = context_rows - counts[:, 1]
    return tail_starts - counts[:, 0], tail_starts, context_rows


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _segment_lse(mat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Componentwise log-sum-exp over consecutive row segments of ``mat``."""
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    shift = np.maximum.reduceat(mat, starts, axis=0)
    total = np.add.reduceat(np.exp(mat - np.repeat(shift, counts, axis=0)), starts, axis=0)
    return shift + np.log(total)


def _pool_sides(corpus: Corpus) -> np.ndarray:
    """``(3, n, d)``: each pair's head and tail mentions, log-sum-exp pooled,
    and its context.

    A pair's head mentions and its tail mentions are two segments of one
    ``_segment_lse`` call per run of pairs, a run being as many pairs as
    keep their mention rows under ``_BLOCK_BYTES`` (at least one pair); a
    row's value does not depend on its run. A loaded corpus takes each run's
    rows from its payload; any other corpus gathers them from its examples.
    """
    examples, dim = corpus.examples, corpus.embedding_dim
    if isinstance(examples, _LoadedExamples):
        vectors, counts = examples.vectors, examples.counts
        starts, _, context_rows = _offsets(counts)
        is_mention = np.ones(len(vectors), dtype=bool)
        is_mention[context_rows] = False

        def run_rows(run: slice) -> tuple:
            rows = slice(starts[run.start], context_rows[run.stop - 1] + 1)
            return vectors[rows][is_mention[rows]], vectors[context_rows[run]]
    else:
        # counted without a tuple per pair: thousands of 2-tuples freed at
        # once would stay on CPython's tuple free list, in the peak RSS
        sides = (side for ex in examples for side in (ex.head_vectors, ex.tail_vectors))
        counts = np.fromiter(map(len, sides), np.intp, 2 * len(examples)).reshape(-1, 2)
        if counts.size and counts.min() == 0:
            ex = examples[int(np.argmin(counts.min(axis=1)))]
            raise ContractError(f"pair {ex.doc_id}/{ex.head_id}/{ex.tail_id}: no mentions")

        def run_rows(run: slice) -> tuple:
            mat = np.concatenate(
                [side for ex in examples[run] for side in (ex.head_vectors, ex.tail_vectors)],
                dtype=np.float64,
            )
            if mat.shape[1:] != (dim,):
                raise ShapeError(
                    f"mentions of shape {mat.shape[1:]} in a corpus of dimension {dim}"
                )
            return mat, [ex.context for ex in examples[run]]
    sizes = counts.sum(axis=1)
    mention_ends = np.cumsum(sizes)
    budget = _BLOCK_BYTES // (8 * dim)
    pooled = np.empty((3, len(examples), dim))
    k = 0
    while k < len(examples):
        before = mention_ends[k] - sizes[k]
        stop = max(k + 1, int(np.searchsorted(mention_ends, before + budget, side="right")))
        run = slice(k, stop)
        mat, pooled[2, run] = run_rows(run)
        pooled[:2, run] = _segment_lse(mat, counts[run].ravel()).reshape(-1, 2, dim).swapaxes(0, 1)
        k = stop
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


def _check_example(ex: PairExample, n_rel: int, dim: int, where: str) -> None:
    """The one check that names a fault in an example, by ``where``: the
    doc_id is a ``str``, the label sets frozensets (the gold set may be
    None), every id and label an ``int`` (``True`` and NumPy integers are
    not), both ids within int64 and different, every label one of the
    ``n_rel`` relations (the NA index ``n_rel`` is not), the three vector
    fields are ``np.ndarray``s (exactly: a list or a subclass is not), each
    side is a nonempty ``(k, dim)`` array, the context a ``(dim,)`` vector,
    and every vector real and finite."""
    gold = ex.gold_positive_relations
    sets = (ex.positive_relations,) if gold is None else (ex.positive_relations, gold)
    if type(ex.doc_id) is not str:
        raise DataFormatError(f"{where}: doc_id {ex.doc_id!r} is not a string")
    if not all(type(s) is frozenset for s in sets):
        raise DataFormatError(f"{where}: label sets {sets!r} are not frozensets")
    for value in (ex.head_id, ex.tail_id, *itertools.chain(*sets)):
        if type(value) is not int:
            raise DataFormatError(f"{where}: id or label {value!r} is not an integer")
    for value in (ex.head_id, ex.tail_id):
        if not -(2**63) <= value < 2**63:
            raise DataFormatError(f"{where}: id {value} does not fit in int64")
    if ex.head_id == ex.tail_id:
        raise DataFormatError(f"{where}: head_id == tail_id == {ex.head_id}")
    for r in itertools.chain(*sets):
        if not 0 <= r < n_rel:
            raise DataFormatError(f"{where}: relation index {r} out of range")
    for name in _VECTOR_FIELDS:
        if type(getattr(ex, name)) is not np.ndarray:
            raise DataFormatError(f"{where}: {name} is a {type(getattr(ex, name)).__name__}, "
                                  "not a NumPy array")
    for side, mentions in (("head", ex.head_vectors), ("tail", ex.tail_vectors)):
        if mentions.ndim != 2 or mentions.shape[1] != dim:
            raise ShapeError(f"{where}: {side} mention shape {mentions.shape}, expected (k, {dim})")
        if not len(mentions):
            raise DataFormatError(f"{where}: {side} entity with no mentions")
    if ex.context.shape != (dim,):
        raise ShapeError(f"{where}: context shape {ex.context.shape}, expected ({dim},)")
    for vectors in (ex.head_vectors, ex.tail_vectors, ex.context):
        if not np.can_cast(vectors.dtype, np.float64, "same_kind"):
            raise DataFormatError(f"{where}: vectors of dtype {vectors.dtype} are not real numbers")
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
    keys = zip(corpus.column("doc_id"), corpus.column("head_id"), corpus.column("tail_id"))
    for i, key in enumerate(keys):
        if key in index:
            raise DuplicatePairError(*key)
        index[key] = i
    return index


def bucket_relations(vocab: RelationVocabulary, cuts: tuple[int, int]) -> dict[int, Bucket]:
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
# Serialization, format version 4. A corpus file holds one JSON header line
# (vocabulary, label source, dimension, example count n and ``doc_ids``, the
# distinct doc_ids in first-appearance order), the little-endian arrays of
# ``_RECORD_ARRAYS``, then the payload: each example's ``h + t + 1`` float64
# rows (head mentions, tail mentions, context) after those of the examples
# before it. Raw bytes round-trip every value bitwise; a mention's entity is
# its pair's head or tail id, so it is not stored.

_FORMAT = "docrel-corpus"
_FORMAT_VERSION = 4

# the record arrays in file order: dtype, and shape given the example count n
# and the bit-row width w = ceil(|R| / 8); label r is bit r % 8 of byte r // 8
_RECORD_ARRAYS = (
    ("<i8", lambda n, w: (n,)),  # doc index into doc_ids
    ("<i8", lambda n, w: (n, 2)),  # head and tail ids
    ("<i8", lambda n, w: (n, 2)),  # mention counts [h, t]
    ("u1", lambda n, w: (n,)),  # has-gold flag
    ("u1", lambda n, w: (n, 2, w)),  # label and gold sets as bit rows
)


def _record_fault(arrays, n_docs: int, n_rel: int) -> tuple[int, str] | None:
    """The record predicate over every record at once: the first record that
    breaks a rule and the rule's message, else None. Its doc index is one of
    ``n_docs``, its ids differ, its counts are positive, its gold flag is 0
    (with an all-zero gold row) or 1, and no label bit is at or above ``n_rel``."""
    doc, ids, counts, has_gold, bits = arrays
    beyond = bits & np.packbits(np.arange(8 * bits.shape[2]) >= n_rel, bitorder="little")
    rules = (
        ((doc < 0) | (doc >= n_docs), lambda k: f"doc index {doc[k]} outside 0..{n_docs - 1}"),
        (ids[:, 0] == ids[:, 1], lambda k: f"head_id == tail_id == {ids[k, 0]}"),
        ((counts < 1).any(axis=1),
         lambda k: f"mention counts {counts[k].tolist()} are not positive"),
        (has_gold > 1, lambda k: f"gold flag {has_gold[k]} is not 0 or 1"),
        ((has_gold == 0) & bits[:, 1].any(axis=1), lambda k: "gold labels without the gold flag"),
        (beyond.any(axis=(1, 2)), lambda k: "relation index "
         f"{min(r % (8 * bits.shape[2]) for r in _bit_set(beyond[k].tobytes()))} out of range"),
    )
    bad = np.logical_or.reduce([rule for rule, _ in rules], axis=0)
    if not bad.any():
        return None
    k = int(bad.argmax())
    return k, next(message(k) for rule, message in rules if rule[k])


def _bit_set(row: bytes) -> frozenset[int]:
    """The labels of a bit row: ``r`` for bit ``r % 8`` of byte ``r // 8``."""
    mask = int.from_bytes(row, "little")
    return frozenset(r for r in range(mask.bit_length()) if mask >> r & 1)


def save_corpus(corpus: Corpus, path) -> None:
    """Write ``corpus`` to ``path`` in format version 4. A corpus that
    ``load_corpus`` would not read back as it is, one that ``Corpus.validate``
    refuses, raises DataFormatError before the file is opened, naming the
    fault as ``validate`` does; checks over the whole corpus decide."""
    vocab, examples, dim = corpus.vocabulary, corpus.examples, corpus.embedding_dim
    n, n_rel = len(examples), vocab.num_relations
    doc_ids, heads, tails, positive, gold = map(corpus.column, _FIELDS)
    if not (  # the arrays below need these types
        set(map(type, positive)) <= {frozenset}
        and set(map(type, gold)) <= {frozenset, type(None)}
        and set(map(type, itertools.chain(heads, tails, *positive, *filter(None, gold)))) <= {int}
        and set(map(type, doc_ids)) <= {str}
        and all(set(map(type, map(attrgetter(name), examples))) <= {np.ndarray}
                for name in _VECTOR_FIELDS)
    ):
        _refuse(corpus, path, "ids, labels, doc_ids or vectors of another type")
    rows = [a for ex in examples for a in (ex.head_vectors, ex.tail_vectors, ex.context[None])]
    # each distinct label set's index; None (no gold set) is 0, with an all-zero bit row
    distinct = dict(zip(dict.fromkeys([None, *positive, *gold]), itertools.count()))
    try:
        payload = np.concatenate(rows, dtype="<f8") if rows else np.empty((0, dim))
        ids = np.array([heads, tails], dtype=np.int64).T
        bit_rows = np.packbits(label_mask([s or () for s in distinct], n_rel), axis=1,
                               bitorder="little")
    except (ValueError, TypeError, OverflowError, ContractError) as exc:
        _refuse(corpus, path, exc)
    docs = dict(zip(dict.fromkeys(doc_ids), itertools.count()))
    sets = np.fromiter(map(distinct.__getitem__, itertools.chain(positive, gold)), np.intp, 2 * n)
    arrays = (
        np.fromiter(map(docs.__getitem__, doc_ids), np.int64, n),
        ids,
        np.fromiter(map(len, rows), np.int64, 3 * n).reshape(n, 3)[:, :2],
        (sets[n:] != 0).view(np.uint8),
        bit_rows[sets.reshape(2, n).T],
    )
    if not (
        payload.shape[1:] == (dim,)
        and np.isfinite(payload).all()
        and _record_fault(arrays, len(docs), n_rel) is None
        and len(set(zip(doc_ids, heads, tails))) == n
    ):
        _refuse(corpus, path, "invalid pairs or vectors")
    header = {"format": _FORMAT, "version": _FORMAT_VERSION, "relations": list(vocab.relations),
              "na_index": vocab.na_index, "train_frequency": dict(vocab.train_frequency),
              "label_source": corpus.label_source.value, "embedding_dim": dim,
              "num_examples": n, "doc_ids": list(docs)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.writelines(np.ascontiguousarray(a, dtype) for (dtype, _), a in zip(_RECORD_ARRAYS, arrays))
        fh.write(payload)


def _refuse(corpus: Corpus, path, reason) -> NoReturn:
    """Refuse to save ``corpus``, naming its fault as ``validate`` does, else ``reason``."""
    try:
        corpus.validate()
    except (ShapeError, DataFormatError) as exc:
        raise DataFormatError(f"{path}: cannot save corpus: {exc}") from exc
    raise DataFormatError(f"{path}: cannot save corpus: {reason}")


def load_corpus(path) -> Corpus:
    """Load a corpus file, checking its header, ``_record_fault`` over its
    arrays, a payload of exactly the rows the counts give, finite values and
    no repeated (doc_id, head_id, tail_id); DataFormatError names the path,
    and ``record k`` for a fault in one record. The examples object keeps
    the payload (one float64 array), counts and columns; examples are built
    on first access, their vectors read-only row views of the payload."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read corpus file: {exc}") from exc
    start = data.find(b"\n") + 1 or len(data)
    try:
        header = json.loads(data[:start])
        if header.get("format") != _FORMAT:
            raise DataFormatError(f"{path}: not a corpus file")
        if header.get("version") != _FORMAT_VERSION:
            raise DataFormatError(
                f"{path}:1: corpus format version {header.get('version')!r}, expected "
                f"{_FORMAT_VERSION}; rebuild the bundle with gen-data and build-regime"
            )
        dim, n, doc_ids = header["embedding_dim"], header["num_examples"], header["doc_ids"]
        frequencies = header.get("train_frequency", {})
        numbers = (header["na_index"], dim, n, *frequencies.values())
        if (not all(type(number) is int for number in numbers) or dim < 1 or n < 0
                or type(doc_ids) is not list or set(map(type, doc_ids)) - {str}):
            raise ValueError(f"na_index, embedding_dim {dim!r}, num_examples {n!r} and train "
                             "frequencies must be integers, dim > 0, n >= 0, doc_ids strings")
        vocab = RelationVocabulary(tuple(header["relations"]), header["na_index"], frequencies)
        label_source = LabelSource(header["label_source"])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, ConfigError) as exc:
        raise DataFormatError(f"{path}:1: bad header: {exc!r}") from exc
    n_rel = vocab.num_relations
    arrays = []
    for dtype, shape in _RECORD_ARRAYS:
        shape = shape(n, -(-n_rel // 8))
        if len(data) - start < np.dtype(dtype).itemsize * math.prod(shape):
            raise DataFormatError(f"{path}: header declares {n} examples, more than its arrays hold")
        arrays.append(np.frombuffer(data, dtype, math.prod(shape), start).reshape(shape))
        start += arrays[-1].nbytes
    fault = _record_fault(arrays, len(doc_ids), n_rel)
    if fault is not None:
        raise DataFormatError(f"{path}: record {fault[0]}: {fault[1]}")
    doc, ids, counts, has_gold, bits = arrays
    payload = memoryview(data)[start:]
    rows = sum(counts.ravel().tolist()) + n  # Python integers: a huge count cannot wrap
    if len(payload) != 8 * rows * dim:
        raise DataFormatError(f"{path}: vectors hold {len(payload)} bytes, expected {rows} "
                              f"rows of {dim} float64 values")
    vectors = np.frombuffer(payload, "<f8").reshape(rows, dim).astype(np.float64)
    # each distinct bit row is decoded once, keyed by its bytes
    keys = bits.view(f"V{bits.shape[2]}").ravel().tolist() if bits.shape[2] else [b""] * 2 * n
    sets = {key: _bit_set(key) for key in set(keys)}
    gold = [sets[key] if flag else None for key, flag in zip(keys[1::2], has_gold.tolist())]
    columns = dict(zip(_FIELDS, (list(map(doc_ids.__getitem__, doc.tolist())), *ids.T.tolist(),
                                 list(map(sets.__getitem__, keys[::2])), gold)))
    examples = _LoadedExamples(vectors, counts.astype(np.intp), columns)
    if not np.isfinite(vectors).all():
        # the record that holds the first non-finite row
        k = int(np.searchsorted(_offsets(counts)[2], np.argmin(np.isfinite(vectors).all(axis=1))))
        _check_example(examples[k], n_rel, dim, f"{path}: record {k}")
    vectors.flags.writeable = False  # a pair's vectors cannot drift from the rows derived from them
    corpus = Corpus(vocab, examples, label_source, dim)
    if len(set(zip(columns["doc_id"], columns["head_id"], columns["tail_id"]))) != n:
        try:
            build_pair_index(corpus)
        except DuplicatePairError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    return corpus


def count_relation_frequencies(corpus: Corpus) -> dict[str, int]:
    """Count how many examples carry each relation (by current labels)."""
    relations = corpus.vocabulary.relations
    counts = dict.fromkeys(relations, 0)
    for labels in corpus.column("positive_relations"):
        for r in labels:
            counts[relations[r]] += 1
    return counts
