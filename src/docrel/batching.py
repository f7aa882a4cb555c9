"""Batch assembly and negative-label sampling.

Batches are built at document granularity: documents are shuffled with a
seeded stream and consecutive documents are grouped until the configured
count is reached, so every entity pair of a document lands in the same
batch. All index sets inside a :class:`Batch` are *batch positions*
(0-based offsets into ``example_indices``), not corpus indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Corpus
from .errors import ConfigError, ContractError
from .rng import stream

__all__ = [
    "Batch",
    "assemble_batches",
    "batch_count",
    "sample_negative_labels",
    "sampled_set_size",
    "attach_negative_samples",
]


@dataclass(frozen=True, eq=False)
class Batch:
    """One training batch over a corpus.

    ``bp_indices`` are positions with at least one positive relation (the
    contrastive anchors); ``bn_indices`` are the NA-labeled positions;
    together they partition the batch. ``sampled_negatives`` maps NA
    positions to their sampled negative-label sets (attached by
    :func:`attach_negative_samples` when sampling is enabled).
    """

    example_indices: tuple[int, ...]
    bp_indices: tuple[int, ...]
    bn_indices: tuple[int, ...]
    sampled_negatives: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.example_indices)


def assemble_batches(corpus: Corpus, batch_size: int, rng_seed: int) -> list[Batch]:
    """Seeded document shuffle, then chunks of ``batch_size`` documents."""
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2 documents, got {batch_size}")
    docs = corpus.document_order()
    if not docs:
        return []
    by_doc = corpus.examples_by_document()
    order = stream(rng_seed, "shuffle").permutation(len(docs))
    shuffled = [docs[i] for i in order]

    batches: list[Batch] = []
    for start in range(0, len(shuffled), batch_size):
        chunk = shuffled[start : start + batch_size]
        indices = tuple(i for doc in chunk for i in by_doc[doc])
        bp = tuple(
            pos for pos, i in enumerate(indices) if corpus.examples[i].positive_relations
        )
        bn = tuple(
            pos for pos, i in enumerate(indices) if not corpus.examples[i].positive_relations
        )
        batches.append(Batch(example_indices=indices, bp_indices=bp, bn_indices=bn))
    return batches


def batch_count(corpus: Corpus, batch_size: int) -> int:
    """How many batches :func:`assemble_batches` makes: one per ``batch_size`` documents."""
    return math.ceil(len(corpus.document_order()) / batch_size)


def sampled_set_size(ratio: float, num_negatives: int) -> int:
    """Round-half-up of ratio * |N|, at least 1."""
    if not (0 < ratio <= 1):
        raise ConfigError(f"sampling ratio must be in (0, 1], got {ratio}")
    return max(1, int(math.floor(ratio * num_negatives + 0.5)))


def sample_negative_labels(
    example, vocab, ratio: float, rng: np.random.Generator
) -> tuple[int, ...]:
    """Uniform without-replacement sample from an NA example's negative set.

    NA examples have every relation negative, so the sample is drawn from
    the full relation set. Returned sorted ascending for deterministic
    downstream iteration.
    """
    if example.positive_relations:
        raise ContractError("negative-label sampling applies only to NA-labeled examples")
    n_rel = vocab.num_relations
    size = sampled_set_size(ratio, n_rel)
    if size >= n_rel:
        return tuple(range(n_rel))
    chosen = rng.choice(n_rel, size=size, replace=False)
    return tuple(sorted(int(r) for r in chosen))


def attach_negative_samples(
    batch: Batch, corpus: Corpus, ratio: float, rng: np.random.Generator
) -> Batch:
    """Return a copy of the batch with fresh sampled sets for its NA members."""
    sampled = {
        pos: sample_negative_labels(
            corpus.examples[batch.example_indices[pos]], corpus.vocabulary, ratio, rng
        )
        for pos in batch.bn_indices
    }
    return replace(batch, sampled_negatives=sampled)
