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
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from operator import attrgetter, eq
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

# the per-pair fields that ``Corpus.column`` reads, in a corpus file's record order
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


def _pairs_valid(heads, tails, label_sets, n_rel: int) -> bool:
    """``_check_pair`` over a whole corpus at C speed: whether no pair's head
    id is its tail id and every label of ``label_sets`` is one of ``n_rel``
    relations. Ids are ``int``s and label sets frozensets of ``int``s."""
    labels = frozenset().union(*label_sets)
    return not any(map(eq, heads, tails)) and all(0 <= r < n_rel for r in labels)


def _check_example(ex: PairExample, n_rel: int, dim: int, where: str) -> None:
    """The one check that names a fault in an example, by ``where``: the
    doc_id is a ``str``, the label sets frozensets (the gold set may be
    None), every id and label an ``int`` (``True`` and NumPy integers are
    not), ``_check_pair`` holds for ``n_rel`` relations, the three vector
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
    _check_pair(ex.head_id, ex.tail_id, sets, n_rel, where)
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
    """Write ``corpus`` to ``path`` in format version 3.

    A corpus that ``load_corpus`` would not read back as it is, one that
    ``Corpus.validate`` refuses, raises DataFormatError before the file is
    opened, naming the path and the fault as ``validate`` names it. Checks
    over the whole corpus decide; ``validate`` runs only to name the fault.
    """
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
    examples, dim = corpus.examples, corpus.embedding_dim
    doc_ids, heads, tails, positive, gold = map(corpus.column, _FIELDS)
    label_sets = [*positive, *(labels for labels in gold if labels is not None)]
    # the record lines below need these types
    if not (
        set(map(type, label_sets)) <= {frozenset}
        and set(map(type, itertools.chain(heads, tails, *label_sets))) <= {int}
        and set(map(type, doc_ids)) <= {str}
        and all(set(map(type, map(attrgetter(name), examples))) <= {np.ndarray}
                for name in _VECTOR_FIELDS)
    ):
        _refuse(corpus, path, "ids, labels, doc_ids or vectors of another type")
    # each line is what json.dumps writes for the record: a doc_id is
    # encoded by json's own string encoder, every id and label is an int, so
    # its text is its repr, and a list of them is the list's repr
    doc_texts = {doc: encode_basestring_ascii(doc) for doc in set(doc_ids)}
    label_texts = {labels: str(sorted(labels)) for labels in set(label_sets)}
    label_texts[None] = "null"
    lines = [json.dumps(header)]
    rows = []
    for ex in examples:
        lines.append(
            f'{{"doc_id": {doc_texts[ex.doc_id]}, "head_id": {ex.head_id}, '
            f'"tail_id": {ex.tail_id}, "mentions": [{len(ex.head_vectors)}, '
            f'{len(ex.tail_vectors)}], "positive_relations": '
            f'{label_texts[ex.positive_relations]}, "gold_positive_relations": '
            f'{label_texts[ex.gold_positive_relations]}}}'
        )
        rows += (ex.head_vectors, ex.tail_vectors, ex.context[None])
    try:
        payload = np.concatenate(rows, dtype="<f8") if rows else np.empty((0, dim))
    except (ValueError, TypeError) as exc:
        _refuse(corpus, path, exc)
    if not (
        payload.shape[1:] == (dim,)
        and np.isfinite(payload).all()
        and 0 not in map(len, rows)
        and _pairs_valid(heads, tails, label_sets, corpus.vocabulary.num_relations)
        and len(set(zip(doc_ids, heads, tails))) == len(heads)
    ):
        _refuse(corpus, path, "invalid pairs or vectors")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n\n").encode("utf-8"))
        fh.write(payload)


def _refuse(corpus: Corpus, path, reason) -> NoReturn:
    """Refuse to save ``corpus``: name its fault as ``Corpus.validate`` does,
    else give ``reason``."""
    try:
        corpus.validate()
    except (ShapeError, DataFormatError) as exc:
        raise DataFormatError(f"{path}: cannot save corpus: {exc}") from exc
    raise DataFormatError(f"{path}: cannot save corpus: {reason}")


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


def _records_by_line(lines: list[bytes], n_rel: int, path) -> list:
    """The records of ``lines``, each decoded and checked on its own: the
    reference decode, which names the first faulty line."""
    records = []
    for lineno, line in enumerate(lines, 2):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: cannot read corpus file: {exc}") from exc
        try:
            records.append(_record_from_json(json.loads(text), n_rel, f"{path}:{lineno}"))
        except _DECODE_ERRORS as exc:
            raise DataFormatError(f"{path}:{lineno}: bad record: {exc!r}") from exc
    return list(zip(*records)) or [()] * 7


# one record line exactly as save_corpus writes it, newline included; a
# doc_id is any JSON string token that does not span lines. Digits are
# ASCII only: ``\d`` would match any Unicode digit, which int() converts and
# JSON refuses. The pattern is compiled on first use, through re's own
# cache: compiling it takes about 1 ms, which every import would pay
_NUMBER = r"(?:0|[1-9][0-9]*)"
_LABELS = rf"\[(?:{_NUMBER}(?:, {_NUMBER})*)?\]"
_RECORD_LINE = (
    rf'^\{{"doc_id": ("[^"\\\n]*(?:\\.[^"\\\n]*)*"), "head_id": (-?{_NUMBER}), '
    rf'"tail_id": (-?{_NUMBER}), "mentions": \[([1-9][0-9]*), ([1-9][0-9]*)\], '
    rf'"positive_relations": ({_LABELS}), "gold_positive_relations": (null|{_LABELS})\}}\n'
)


def _label_set(text: str) -> frozenset[int] | None:
    """A label list as ``_RECORD_LINE`` matches it: ``null``, ``[]`` or ``[3, 5]``."""
    if text == "null":
        return None
    return frozenset(map(int, text[1:-1].split(", "))) if len(text) > 2 else frozenset()


def _records_as_saved(section: bytes, n_lines: int, n_rel: int) -> list | None:
    """The record columns of ``section`` if each of its ``n_lines`` lines is a
    valid record in the form save_corpus writes, else None.

    One regular-expression pass splits every line into its fields, and each
    distinct doc_id and label list is decoded once. Where a line does not
    match on its own, or holds a value that ``_records_by_line`` refuses, the
    result is None, and the file is then decoded line by line.
    """
    try:
        found = re.findall(_RECORD_LINE, section.decode("utf-8"), re.MULTILINE)
        if len(found) != n_lines:
            return None
        docs, heads, tails, n_head, n_tail, positive, gold = zip(*found) if found else [()] * 7
        # JSON's own string decoder: it refuses bad escapes and control characters
        doc_ids = {token: scanstring(token, 1)[0] for token in set(docs)}
        label_sets = {text: _label_set(text) for text in {*positive, *gold}}
        heads, tails = list(map(int, heads)), list(map(int, tails))
    except ValueError:  # not UTF-8, a bad doc_id string, an int too long to convert
        return None
    if not _pairs_valid(heads, tails, filter(None, label_sets.values()), n_rel):
        return None
    return [
        list(map(doc_ids.__getitem__, docs)),
        heads,
        tails,
        list(map(int, n_head)),
        list(map(int, n_tail)),
        list(map(label_sets.__getitem__, positive)),
        list(map(label_sets.__getitem__, gold)),
    ]


def load_corpus(path) -> Corpus:
    """Load and validate a corpus file.

    Every record gets the checks of ``Corpus.validate``. The corpus's
    examples object keeps one float64 array that holds the whole file's
    payload, the mention counts and one column per field of
    ``Corpus.column``, and the corpus derives every array from them. The
    examples are built on first access, each pair's vectors read-only row
    views of that array. Record lines in the form save_corpus writes are
    decoded in one pass; a file with any other line is decoded line by
    line. A file that cannot be read, is not format version 3, holds a
    malformed record or a payload of the wrong size raises DataFormatError
    naming the path, and ``path:line`` for a fault in one record.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read corpus file: {exc}") from exc
    text_start = data.find(b"\n") + 1 or len(data)
    header, vocab, label_source, dim = _header_from_json(data[:text_start], path)
    # the records run to the first empty line, else to the end of the file
    text_end = data.find(b"\n\n", text_start - 1) + 1 or len(data)
    section = data[text_start:text_end]
    # a last line without its newline is a line too
    n_lines = section.count(b"\n") + (section[-1:] not in (b"", b"\n"))
    n_rel = vocab.num_relations
    doc_ids, heads, tails, n_head, n_tail, positive, gold = _records_as_saved(
        section, n_lines, n_rel
    ) or _records_by_line(section.split(b"\n")[:n_lines], n_rel, path)
    if header.get("num_examples", len(heads)) != len(heads):
        raise DataFormatError(
            f"{path}: header declares {header['num_examples']} examples, found {len(heads)}"
        )
    payload = memoryview(data)[text_end + 1 :]
    rows = sum(n_head) + sum(n_tail) + len(heads)  # Python integers: a huge count cannot wrap
    if len(payload) != 8 * rows * dim:
        raise DataFormatError(
            f"{path}: vectors hold {len(payload)} bytes, expected {rows} rows of {dim} "
            "float64 values"
        )
    vectors = np.frombuffer(payload, "<f8").reshape(rows, dim).astype(np.float64)
    counts = np.array((n_head, n_tail), dtype=np.intp).T
    columns = dict(zip(_FIELDS, (doc_ids, heads, tails, positive, gold)))
    examples = _LoadedExamples(vectors, counts, columns)
    if not np.isfinite(vectors).all():
        # the record that holds the first non-finite row
        k = int(np.searchsorted(_offsets(counts)[2], np.argmin(np.isfinite(vectors).all(axis=1))))
        _check_example(examples[k], n_rel, dim, f"{path}:{k + 2}")
    vectors.flags.writeable = False  # a pair's vectors cannot drift from the rows derived from them
    corpus = Corpus(vocab, examples, label_source, dim)
    if len(set(zip(doc_ids, heads, tails))) != len(heads):
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
