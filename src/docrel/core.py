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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError, ShapeError

__all__ = [
    "Bucket",
    "LabelSource",
    "RelationVocabulary",
    "Mention",
    "PairExample",
    "Corpus",
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
    """An entity with its embedding: the one entry of a pair's
    ``head_mentions`` or ``tail_mentions``, a view of its pooled row."""

    entity_id: int
    embedding: np.ndarray


@dataclass(frozen=True, eq=False)
class PairExample:
    """One ordered entity pair with its features and label set.

    ``head_vectors`` and ``tail_vectors`` are the head and tail entities'
    ``(d,)`` rows, each the log-sum-exp pool of that entity's mention
    embeddings, taken once where the pair is built (``logsumexp_pool``
    pools one stack of mentions); ``context`` is the pair's ``(d,)``
    context vector. ``positive_relations`` is the label set used for
    training; an empty set is the NA class. ``gold_positive_relations``
    preserves the uncorrupted ground truth when the training labels come
    from a noisy source. The examples of a loaded, generated or relabelled
    corpus are built from its records (``_Records``) only when they are
    read, the rows of every pair read-only views of its records' rows.
    Scoring, training and saving read a corpus's records, not its
    examples; a corpus built by hand from examples is encoded into records
    once (``_encoded``).
    """

    doc_id: str
    head_id: int
    tail_id: int
    head_vectors: np.ndarray
    tail_vectors: np.ndarray
    context: np.ndarray
    positive_relations: frozenset[int]
    gold_positive_relations: frozenset[int] | None = None

    # one Mention, a view of the pooled row: the benchmark's
    # corpus_differences (perfbench/workloads.py) reads these, and they go
    # when it compares pooled rows instead (ROADMAP item 1 (b))
    @property
    def head_mentions(self) -> tuple[Mention, ...]:
        return (Mention(self.head_id, self.head_vectors),)

    @property
    def tail_mentions(self) -> tuple[Mention, ...]:
        return (Mention(self.tail_id, self.tail_vectors),)

    @property
    def is_na(self) -> bool:
        return not self.positive_relations


# the per-pair fields beside the rows, in a ``PairExample``'s order
_FIELDS = ("doc_id", "head_id", "tail_id", "positive_relations", "gold_positive_relations")
# the per-pair row fields, in a corpus file's row order, and what a message calls them
_VECTOR_FIELDS = ("head_vectors", "tail_vectors", "context")
_ROW_NAMES = ("head row", "tail row", "context")


@dataclass(frozen=True, eq=False)
class Corpus:
    """A relation vocabulary and its pair examples. Every array that
    training, scoring and ``save_corpus`` read comes from one records
    object, ``_records`` (see ``_Records``), which holds what a corpus file
    holds. ``load_corpus``, the generator and ``relabel_as_na`` give a
    corpus its records as its examples object, built from the arrays they
    hold. A corpus built by hand from ``PairExample``s has its records
    encoded from them by ``_encoded`` on the first read of an array, each
    field read once and each array a copy, so its caller's arrays stay its
    caller's. The arrays derived from the records are computed once, on
    first use, and are read-only. A copy made with ``replace`` derives its
    own: from the same records while it keeps records as its examples
    object, with their relation count and dimension, else from its
    examples. Scoring, training on or saving a corpus with records thus
    decodes no label set, builds no ``PairExample`` and pools nothing."""

    vocabulary: RelationVocabulary
    examples: Sequence[PairExample]
    label_source: LabelSource
    embedding_dim: int

    def validate(self) -> None:
        """Check the records that ``save_corpus`` would write with the record
        predicate ``_record_fault``, and name the first example at fault
        ``example k``. Where the examples cannot be encoded as records (a
        field of another type, an id outside int64, a label outside
        ``0 .. |R|-1``, a row that is not a real ``(d,)`` vector),
        ``_check_example`` names the example. A corpus with records is
        checked from them, with no ``PairExample`` built."""
        try:
            records = self._records
            if not records.typed:  # the arrays need these types
                raise TypeError("ids, labels, doc_ids or vectors of another type")
            fault = _record_fault(records)
        except (ValueError, TypeError, OverflowError, ContractError, ShapeError) as exc:
            for k, ex in enumerate(self.examples):
                _check_example(ex, self.vocabulary.num_relations, self.embedding_dim,
                               f"example {k}")
            raise DataFormatError(str(exc)) from exc
        if fault is not None:
            raise DataFormatError(f"example {fault[0]}: {fault[1]}")

    @cached_property
    def _records(self) -> _Records:
        records, n_rel, dim = self.examples, self.vocabulary.num_relations, self.embedding_dim
        fits = isinstance(records, _Records) and (records.n_rel, records.dim) == (n_rel, dim)
        return records if fits else _encoded(records, n_rel, dim)

    @cached_property
    def head_rows(self) -> np.ndarray:
        """``(n, d)``: each pair's pooled head row."""
        return self._records.rows[:, 0]

    @cached_property
    def tail_rows(self) -> np.ndarray:
        """``(n, d)``: each pair's pooled tail row."""
        return self._records.rows[:, 1]

    @cached_property
    def context_rows(self) -> np.ndarray:
        """``(n, d)``: each pair's context vector."""
        return self._records.rows[:, 2]

    @cached_property
    def label_rows(self) -> np.ndarray:
        """``(n, |R|)`` boolean: each pair's training label set."""
        return _unpacked(self._records.bits[:, 0], self.vocabulary.num_relations)

    @cached_property
    def gold_rows(self) -> np.ndarray:
        """``(n, |R|)`` boolean: each pair's gold label set, else its training set."""
        bits, has_gold = self._records.bits, self._records.has_gold
        return _unpacked(np.where(has_gold[:, None] == 1, bits[:, 1], bits[:, 0]),
                         self.vocabulary.num_relations)

    @cached_property
    def na_flags(self) -> np.ndarray:
        """``(n,)`` boolean: which pairs are NA (no training label)."""
        return _frozen(~self.label_rows.any(axis=1))

    @cached_property
    def pair_ids(self) -> np.ndarray:
        """``(n, 2)`` int64: each pair's head and tail id."""
        return self._records.ids.view()

    @cached_property
    def document_groups(self) -> dict[str, np.ndarray]:
        """Each doc_id, in first-appearance order, with its examples' indices."""
        return _document_groups(self._records.doc_ids, self._records.doc)

    def document_order(self) -> list[str]:
        """Distinct doc_ids in first-appearance order."""
        return list(self.document_groups)


class _Records(Sequence):
    """A corpus's records, the arrays a corpus file holds, and its examples.
    ``rows``, ``(n, 3, dim)`` float64, is each pair's head, tail and context
    row; ``doc_ids`` a list of doc_ids; ``doc``, ``(n,)`` int64, each pair's
    doc_id as an index into ``doc_ids``, equal for equal doc_ids; ``ids``,
    ``(n, 2)`` int64, its head and tail id; ``has_gold``, ``(n,)`` uint8, its
    gold flag; and ``bits``, ``(n, 2, w)`` uint8, its label and gold set as
    bit rows of ``w = ceil(n_rel / 8)`` bytes. ``rows`` may be given as a
    function that returns it, called on its first read. The arrays are
    made read-only here and may be shared with other records. ``typed``
    says whether the arrays hold their examples exactly: false only where
    ``_encoded`` read a field of a type that a file does not hold.

    Indexing and iteration work as on the examples: the tuple of
    ``PairExample`` is decoded from the arrays on first access and kept,
    each distinct bit row decoded once and each pair's rows views of
    ``rows``."""

    def __init__(self, n_rel: int, dim: int, rows: np.ndarray | Callable[[], np.ndarray],
                 doc_ids: list[str], doc: np.ndarray, ids: np.ndarray, has_gold: np.ndarray,
                 bits: np.ndarray, typed: bool = True):
        self.n_rel, self.dim, self.doc_ids, self.typed = n_rel, dim, doc_ids, typed
        self._rows = rows
        self.doc, self.ids, self.has_gold, self.bits = map(_frozen, (doc, ids, has_gold, bits))

    @cached_property
    def rows(self) -> np.ndarray:
        rows = self._rows() if callable(self._rows) else self._rows
        del self._rows  # the function, and what it holds, goes once called
        return _frozen(rows)

    @cached_property
    def examples(self) -> tuple[PairExample, ...]:
        n, width = self.bits.shape[::2]
        keys = self.bits.reshape(2 * n, width).view(f"V{width}").ravel().tolist() if width else (
            [b""] * 2 * n)
        sets = {key: _bit_set(key) for key in set(keys)}  # each distinct bit row decoded once
        labels = list(map(sets.__getitem__, keys))
        gold = [s if flag else None for s, flag in zip(labels[1::2], self.has_gold.tolist())]
        return tuple(map(PairExample, map(self.doc_ids.__getitem__, self.doc.tolist()),
                         *self.ids.T.tolist(), *self.rows.swapaxes(0, 1), labels[0::2], gold))

    def __len__(self) -> int:
        return len(self.doc)

    def __getitem__(self, index):
        return self.examples[index]

    def __iter__(self):
        return iter(self.examples)


def _encoded(examples: Sequence[PairExample], n_rel: int, dim: int) -> _Records:
    """The records of examples built by hand, each field of each example
    read once; ``doc_ids`` lists the distinct doc_ids in first-appearance
    order, and each distinct label set is packed once. The rows are stacked
    in one copy on their first read, so that a corpus only grouped by
    document holds no second copy of them; ShapeError then names the first
    pair with a row that is not ``(dim,)``. A field of a type that a file
    does not hold clears ``typed``, or raises what encoding it raises."""
    doc_id, head, tail, positive, gold, *vectors = (
        tuple(map(attrgetter(name), examples)) for name in (*_FIELDS, *_VECTOR_FIELDS))
    typed = (  # in this order: labels are read once their sets are known to be frozensets
        set(map(type, positive)) <= {frozenset}
        and set(map(type, gold)) <= {frozenset, type(None)}
        and set(map(type, itertools.chain(head, tail, *positive, *filter(None, gold)))) <= {int}
        and set(map(type, doc_id)) <= {str}
        and set(map(type, itertools.chain(*vectors))) <= {np.ndarray}
    )

    def stacked() -> np.ndarray:
        rows = list(itertools.chain.from_iterable(zip(*vectors)))
        try:  # one copy, and no object per row: the rows are checked by their lengths
            flat = np.concatenate(rows, dtype=np.float64) if rows else np.empty(0)
            lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        except (ValueError, TypeError):  # rows of more than one dimension, or not numbers
            flat = lengths = None
        if flat is None or flat.ndim != 1 or (lengths != dim).any():
            for k, row in enumerate(rows):
                if np.shape(row) != (dim,):
                    ex, name = examples[k // 3], _VECTOR_FIELDS[k % 3]
                    raise ShapeError(f"pair {ex.doc_id}/{ex.head_id}/{ex.tail_id}: {name} of "
                                     f"shape {np.shape(row)}, expected ({dim},)")
            raise ShapeError(f"rows that are not ({dim},) float64 vectors")
        return flat.reshape(-1, 3, dim)

    doc_ids = list(dict.fromkeys(doc_id))
    index = dict(zip(doc_ids, itertools.count()))
    sets = positive + gold
    # each distinct label set packed once; None (no gold set) is an all-zero row
    distinct = dict(zip(dict.fromkeys([None, *sets]), itertools.count()))
    packed = np.packbits(label_mask([s or () for s in distinct], n_rel), axis=1,
                         bitorder="little")
    codes = np.fromiter(map(distinct.__getitem__, sets), np.intp, len(sets)).reshape(2, -1)
    return _Records(n_rel, dim, stacked, doc_ids,
                    np.fromiter(map(index.__getitem__, doc_id), np.int64, len(doc_id)),
                    np.array([head, tail], dtype=np.int64).T.copy(),
                    (codes[1] != 0).astype(np.uint8),  # code 0: None, no gold set
                    packed[codes.T], typed)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _unpacked(bits: np.ndarray, width: int) -> np.ndarray:
    """``(n, width)`` boolean, read-only: ``(n, w)`` bit rows unpacked with one call."""
    return _frozen(np.unpackbits(bits, axis=1, count=width, bitorder="little").view(bool))


def _document_groups(doc_ids: Sequence[str], codes: np.ndarray) -> dict[str, np.ndarray]:
    """Each doc_id with the indices of its pairs, in order of first
    appearance, where pair ``i`` is in document ``doc_ids[codes[i]]`` and
    equal doc_ids have equal codes. The groups are read-only slices of one
    stable sort of ``codes``."""
    order = _frozen(codes.argsort(kind="stable"))
    ordered = codes[order]
    new = np.ones(len(codes), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    starts = new.nonzero()[0]
    bounds = [*starts.tolist(), len(codes)]
    names = [doc_ids[code] for code in ordered[starts].tolist()]
    # a stable sort puts each group's first pair first; rank the groups by it
    ranked = order[starts].argsort(kind="stable").tolist()
    return {names[g]: order[bounds[g] : bounds[g + 1]] for g in ranked}


def _first_indices(items: list) -> np.ndarray:
    """``(len(items),)`` int64: for each item, the first index in ``items``
    that holds an equal item."""
    first = dict(zip(reversed(items), range(len(items) - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, items), np.int64, len(items))


def _segment_lse(rows: np.ndarray, sizes) -> np.ndarray:
    """``(len(sizes), d)``: componentwise log-sum-exp over consecutive
    segments of ``rows``, ``sizes[j]`` rows in segment ``j``.

    The segments of each size are pooled together from one ``(m, k, d)``
    gather. A segment's exponentials are summed as ``e0 + (e1 + ... )``,
    the tail as NumPy sums a contiguous run (in order below 8 terms,
    pairwise from 8): the order of ``np.add.reduceat``, so a pooled row
    does not depend on the segments pooled with it.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    pooled = np.empty((len(sizes), rows.shape[1]))
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
        which = np.flatnonzero(sizes == k)
        stacks = rows[starts[which, None] + np.arange(k)]
        shift = stacks.max(axis=1)
        e = np.exp(stacks - shift[:, None])
        rest = e[:, 1:].sum(axis=1) if k <= 8 else (
            np.ascontiguousarray(e[:, 1:].swapaxes(1, 2)).sum(axis=2))
        pooled[which] = shift + np.log(e[:, 0] + rest)
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
    return _segment_lse(mat, [len(mat)])[0]


def _check_example(ex: PairExample, n_rel: int, dim: int, where: str) -> None:
    """Name, by ``where``, a fault that keeps an example from being encoded
    as a record: the doc_id is a ``str``, the label sets frozensets (the
    gold set may be None), every id and label an ``int`` (``True`` and NumPy
    integers are not), both ids within int64, every label one of the
    ``n_rel`` relations (the NA index ``n_rel`` is not), and the three row
    fields ``np.ndarray``s (exactly: a list or a subclass is not), each a
    ``(dim,)`` vector of real values. The record predicate
    ``_record_fault`` holds every other rule."""
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
    for r in itertools.chain(*sets):
        if not 0 <= r < n_rel:
            raise DataFormatError(f"{where}: relation index {r} out of range")
    for name in _VECTOR_FIELDS:
        row = getattr(ex, name)
        if type(row) is not np.ndarray:
            raise DataFormatError(f"{where}: {name} is a {type(row).__name__}, not a NumPy array")
        if row.shape != (dim,):
            raise ShapeError(f"{where}: {name} of shape {row.shape}, expected ({dim},)")
        if not np.can_cast(row.dtype, np.float64, "same_kind"):
            raise DataFormatError(f"{where}: {name} of dtype {row.dtype} does not hold "
                                  "real numbers")


def label_mask(index_sets, width: int) -> np.ndarray:
    """Boolean matrix with one row per set, true at the set's indices.

    Raises ContractError if an index falls outside ``0 .. width-1``.
    """
    sizes = np.fromiter(map(len, index_sets), np.intp)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    cols = np.fromiter(itertools.chain.from_iterable(index_sets), np.intp, len(rows))
    if cols.size and (cols.min() < 0 or cols.max() >= width):
        raise ContractError(f"indices span {cols.min()}..{cols.max()}, outside 0..{width - 1}")
    mask = np.zeros((len(sizes), width), dtype=bool)
    mask[rows, cols] = True
    return mask


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
# Serialization, format version 5. A corpus file holds one JSON header line
# (vocabulary, label source, dimension, example count n and ``doc_ids``, the
# distinct doc_ids in first-appearance order), the little-endian arrays of
# ``_RECORD_ARRAYS``, then the payload: each example's three float64 rows
# (pooled head, pooled tail, context) after those of the examples before
# it. Raw bytes round-trip every value bitwise.

_FORMAT = "docrel-corpus"
_FORMAT_VERSION = 5

# the record arrays in file order: dtype, and shape given the example count n
# and the bit-row width w = ceil(|R| / 8); label r is bit r % 8 of byte r // 8
_RECORD_ARRAYS = (
    ("<i8", lambda n, w: (n,)),  # doc index into doc_ids
    ("<i8", lambda n, w: (n, 2)),  # head and tail ids
    ("u1", lambda n, w: (n,)),  # has-gold flag
    ("u1", lambda n, w: (n, 2, w)),  # label and gold sets as bit rows
)


def _record_fault(records: _Records) -> tuple[int, str] | None:
    """The record predicate, over every record at once: the first record
    that breaks a rule and the rule's message, else None. A record's doc
    index is one of ``doc_ids``, its ids differ, its gold flag is 0 (with an
    all-zero gold row) or 1, no label bit is at or above ``n_rel``, its head
    row, tail row and context are finite, and no earlier record holds its
    (doc, head_id, tail_id). Each rule's mask over the records is built only
    when a test over the whole split finds a record that breaks it."""
    doc, ids, has_gold, bits, rows = attrgetter("doc", "ids", "has_gold", "bits", "rows")(records)
    n_docs, width = len(records.doc_ids), 8 * bits.shape[2]
    same = ids[:, 0] == ids[:, 1]
    beyond = bits & np.packbits(np.arange(width) >= records.n_rel, bitorder="little")
    rules = []  # each broken rule's mask, and its message for record k
    if doc.min(initial=0) < 0 or doc.max(initial=-1) >= n_docs:
        rules.append(((doc < 0) | (doc >= n_docs), lambda k: f"doc index {doc[k]} outside "
                      f"0..{n_docs - 1}"))
    if same.any():
        rules.append((same, lambda k: f"head_id == tail_id == {ids[k, 0]}"))
    if has_gold.max(initial=0) > 1:
        rules.append((has_gold > 1, lambda k: f"gold flag {has_gold[k]} is not 0 or 1"))
    if bits[has_gold == 0, 1].any():
        rules.append(((has_gold == 0) & bits[:, 1].any(axis=1), lambda k: "gold labels without "
                      "the gold flag"))
    if beyond.any():
        rules.append((beyond.any(axis=(1, 2)), lambda k: "relation index "
                      f"{min(r % width for r in _bit_set(beyond[k].tobytes()))} out of range"))
    if not np.isfinite(rows).all():
        finite = np.isfinite(rows).all(axis=2)
        rules += [(~finite[:, side], lambda k, name=name: f"non-finite value in the {name}")
                  for side, name in enumerate(_ROW_NAMES)]
    keys = list(zip(doc.tolist(), *ids.T.tolist()))
    if len(set(keys)) != len(keys):
        rules.append((_first_indices(keys) != np.arange(len(keys)), lambda k: (
            f"duplicate entity pair: doc={records.doc_ids[doc[k]]!r} head={ids[k, 0]} "
            f"tail={ids[k, 1]}")))
    if not rules:
        return None
    k = int(np.logical_or.reduce([rule for rule, _ in rules], axis=0).argmax())
    return k, next(message(k) for rule, message in rules if rule[k])


def _bit_set(row: bytes) -> frozenset[int]:
    """The labels of a bit row: ``r`` for bit ``r % 8`` of byte ``r // 8``."""
    mask = int.from_bytes(row, "little")
    return frozenset(r for r in range(mask.bit_length()) if mask >> r & 1)


def save_corpus(corpus: Corpus, path) -> None:
    """Write ``corpus``'s records in format version 5. A corpus that
    ``Corpus.validate`` refuses, one whose records ``load_corpus`` would
    refuse or not give back as they are, raises DataFormatError before the
    file is opened, naming the path and the fault as ``validate`` does
    (``example k``)."""
    try:
        corpus.validate()
    except (ShapeError, DataFormatError) as exc:
        raise DataFormatError(f"{path}: cannot save corpus: {exc}") from exc
    vocab, records = corpus.vocabulary, corpus._records
    header = {"format": _FORMAT, "version": _FORMAT_VERSION, "relations": list(vocab.relations),
              "na_index": vocab.na_index, "train_frequency": dict(vocab.train_frequency),
              "label_source": corpus.label_source.value, "embedding_dim": corpus.embedding_dim,
              "num_examples": len(records.doc), "doc_ids": records.doc_ids}
    arrays = (records.doc, records.ids, records.has_gold, records.bits)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.writelines(np.ascontiguousarray(a, dtype) for (dtype, _), a in zip(_RECORD_ARRAYS, arrays))
        fh.write(records.rows.astype("<f8", copy=False))


def load_corpus(path) -> Corpus:
    """Load a corpus file, checking its header, a payload of exactly three
    rows per record and ``_record_fault`` over its records; DataFormatError
    names the path, and ``record k`` for a fault in one record. The
    corpus's examples object is its records (``_Records``), copies of the
    file's arrays, and decodes no label set: the corpus's pooled and
    context rows are views of the payload, and examples are built on first
    access, their rows views of it too."""
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
        if (set(map(type, numbers)) - {int} or dim < 1 or n < 0
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
    doc, ids, has_gold, bits = arrays
    payload = memoryview(data)[start:]
    if len(payload) != 8 * 3 * n * dim:
        raise DataFormatError(f"{path}: vectors hold {len(payload)} bytes, expected {3 * n} "
                              f"rows of {dim} float64 values")
    # each pair's doc as the first index in doc_ids that holds its doc_id, so
    # that equal doc_ids have equal codes (an index outside doc_ids is kept,
    # for the predicate to name); the copies let the file's bytes go
    inside = (doc >= 0) & (doc < len(doc_ids))
    doc = doc.copy()
    doc[inside] = _first_indices(doc_ids)[doc[inside]]
    rows = np.frombuffer(payload, "<f8").reshape(n, 3, dim).astype(np.float64)
    records = _Records(n_rel, dim, rows, doc_ids, doc, ids.copy(), has_gold.copy(), bits.copy())
    fault = _record_fault(records)
    if fault is not None:
        raise DataFormatError(f"{path}: record {fault[0]}: {fault[1]}")
    return Corpus(vocab, records, label_source, dim)
