"""Thresholded prediction and the micro-F1 metric suite.

A relation is predicted for a pair exactly when its logit strictly exceeds
the threshold logit; an empty prediction set is an NA prediction. Metrics
are micro-averaged over predicted (pair, relation) triples. The
train-excluded variant drops predicted triples whose (head entity,
relation, tail entity) fact occurs in the training labels before
recomputing against the unchanged gold set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .core import Bucket, Corpus
from .errors import NumericError, ShapeError
from .head import HeadParams, head_forward

__all__ = [
    "EvalReport",
    "FactSet",
    "predict_labels",
    "train_fact_set",
    "evaluate",
]

# bytes of pair embeddings per forward pass when scoring a split: blocks
# whose arrays stay under the allocator's default mmap threshold (128 KiB)
# reuse freed heap memory instead of page-faulting fresh pages every pass.
# On the benchmark's bundle-eval workload, 256 KiB blocks and one block per
# split raised peak RSS by a median 0.2 and 0.4 MB (8 runs each, 2-vCPU VM)
# for at most 1% more pairs/s, so the block stays at 64 KiB
_EVAL_BLOCK_BYTES = 1 << 16


def _predicted_mask(f: np.ndarray, na_index: int) -> np.ndarray:
    """Row-wise: which relations' logits strictly exceed the threshold logit."""
    if not np.logical_and.reduce(np.isfinite(f), axis=None):
        raise NumericError("predict_labels: non-finite logits")
    return f[:, :na_index] > f[:, na_index : na_index + 1]


def predict_labels(f: np.ndarray, na_index: int) -> frozenset[int]:
    """Relations whose logit strictly exceeds the threshold logit."""
    row = _predicted_mask(np.asarray(f)[None, :], na_index)[0]
    return frozenset(np.flatnonzero(row).tolist())


class FactSet(frozenset):
    """(head entity, relation, tail entity) facts. ``seen`` looks scored
    pairs up in an index built on first use, once per fact set: the facts'
    distinct entities, sorted; their distinct (head, tail) pairs as sorted
    keys ``head * E + tail``, each entity coded by its rank among the
    ``E``; and, once per width asked for, each of those pairs' relations
    as one boolean row, set with one scatter of the facts."""

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray, Callable[[int], np.ndarray]]:
        facts = np.array(list(self), dtype=np.int64).reshape(-1, 3)
        entities = np.unique(facts[:, ::2])
        head, tail = entities.searchsorted(facts[:, ::2]).T
        pairs = head * len(entities) + tail
        keys = np.unique(pairs)
        pair_of = keys.searchsorted(pairs)
        relations = facts[:, 1]

        @cache
        def held(width: int) -> np.ndarray:
            rows = np.zeros((len(keys), width), dtype=bool)
            inside = (relations >= 0) & (relations < width)
            rows[pair_of[inside], relations[inside]] = True
            return rows

        return entities, keys, held

    def seen(self, pair_ids: np.ndarray, width: int) -> np.ndarray:
        """``(n, width)`` boolean: cell ``(i, r)`` is true when
        ``(pair_ids[i, 0], r, pair_ids[i, 1])`` is a fact. Each pair of the
        ``(n, 2)`` int64 ``pair_ids`` is coded once and takes its row of the
        index; a fact whose relation is outside ``0 .. width-1`` sets no
        cell."""
        if not self:
            return np.zeros((len(pair_ids), width), dtype=bool)
        entities, keys, held = self._index
        code = entities.searchsorted(pair_ids)
        known = (entities[np.minimum(code, len(entities) - 1)] == pair_ids).all(axis=1)
        key = code[:, 0] * len(entities) + code[:, 1]
        at = np.minimum(keys.searchsorted(key), len(keys) - 1)
        return held(width)[at] & (known & (keys[at] == key))[:, None]


def train_fact_set(corpus: Corpus) -> FactSet:
    """(head entity, relation, tail entity) facts present in the labels,
    read from the corpus's label rows and pair ids."""
    rows, relations = corpus.label_rows.nonzero()
    heads, tails = corpus.pair_ids[rows].T.tolist()
    return FactSet(zip(heads, relations.tolist(), tails))


@dataclass(eq=False)
class EvalReport:
    precision: float
    recall: float
    f1: float
    ign_f1: float
    bucket_f1: dict[Bucket, float]
    per_relation: dict[int, tuple[int, int, int]]
    predicted_triple_count: int
    excluded_prediction_count: int
    gold_triple_count: int

    def summary(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "ign_f1": self.ign_f1,
            "head_f1": self.bucket_f1.get(Bucket.HEAD, 0.0),
            "mid_f1": self.bucket_f1.get(Bucket.MID, 0.0),
            "tail_f1": self.bucket_f1.get(Bucket.TAIL, 0.0),
            "predicted_triples": self.predicted_triple_count,
            "excluded_predictions": self.excluded_prediction_count,
            "gold_triples": self.gold_triple_count,
        }


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def evaluate(
    params: HeadParams,
    corpus: Corpus,
    train_facts: frozenset = frozenset(),
    buckets: dict[int, Bucket] | None = None,
    use_gold: bool = True,
) -> EvalReport:
    """Score the model on a corpus.

    ``use_gold`` selects the gold label set when the corpus preserves one
    (the default, matching gold-split evaluation); pass False to score
    against the labels as annotated, e.g. for noisy-dev curves.
    """
    buckets = buckets or {}
    vocab = corpus.vocabulary
    if params.num_logits != vocab.num_logits:
        raise ShapeError(f"head has {params.num_logits} logits, corpus has {vocab.num_logits}")
    inputs = (corpus.head_rows, corpus.tail_rows, corpus.context_rows)
    block = max(1, _EVAL_BLOCK_BYTES // (8 * params.pair_dim))
    f = np.concatenate(
        [
            head_forward(*(rows[k : k + block] for rows in inputs), params).f
            for k in range(0, max(1, len(corpus.examples)), block)
        ]
    )
    predicted = _predicted_mask(f, vocab.na_index)
    gold = corpus.gold_rows if use_gold else corpus.label_rows

    # per relation: tp, fp = predicted - tp and fn = gold - tp
    hits = predicted & gold
    tp_rel, predicted_rel, gold_rel = (np.add.reduce(m, axis=0) for m in (hits, predicted, gold))
    cells = np.array((tp_rel, predicted_rel - tp_rel, gold_rel - tp_rel)).T
    counted = (predicted_rel | gold_rel).nonzero()[0]
    per_relation = dict(zip(counted.tolist(), map(tuple, cells[counted].tolist())))
    tp, fp, fn = np.add.reduce(cells).tolist()
    precision, recall, f1 = _prf(tp, fp, fn)
    predicted_count, gold_count = tp + fp, tp + fn

    # predictions of facts seen in training are dropped for Ign F1, against
    # the same gold set; with no such facts Ign F1 is F1
    excluded, ign_f1 = 0, f1
    if train_facts:
        facts = train_facts if isinstance(train_facts, FactSet) else FactSet(train_facts)
        seen = facts.seen(corpus.pair_ids, vocab.num_relations)
        excluded = int((predicted & seen).sum())
        ign_tp = int((hits & ~seen).sum())
        ign_f1 = _prf(ign_tp, predicted_count - excluded - ign_tp, gold_count - ign_tp)[2]

    order = (Bucket.HEAD, Bucket.MID, Bucket.TAIL)
    bucket_f1 = dict.fromkeys(order, 0.0)  # a bucket with no relation
    if buckets:
        codes = np.array(list(map(buckets.get, range(len(cells)))), dtype=object)
        members = codes == np.array(order, dtype=object)[:, None]
        bucket_cells = (members.astype(np.int64) @ cells).tolist()
        bucket_f1 = {b: _prf(*bucket_cells[k])[2] for k, b in enumerate(order)}

    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        ign_f1=ign_f1,
        bucket_f1=bucket_f1,
        per_relation=per_relation,
        predicted_triple_count=predicted_count,
        excluded_prediction_count=excluded,
        gold_triple_count=gold_count,
    )
