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

from .core import Corpus, _frozen
from .errors import ConfigError
from .rng import stream

__all__ = [
    "Batch",
    "assemble_batches",
    "batch_count",
    "sample_negative_sets",
    "sampled_set_size",
    "attach_negative_samples",
]


@dataclass(frozen=True, eq=False)
class Batch:
    """One training batch over a corpus.

    ``bp_indices`` are positions with at least one positive relation (the
    contrastive anchors); ``bn_indices`` are the NA-labeled positions;
    together they partition the batch; ``example_indices``, read-only
    ``np.intp``, are corpus indices. ``sampled_negatives`` maps each NA
    position to its sampled negative-label set, a tuple sorted ascending
    (filled for sampled training, as by :func:`attach_negative_samples`).
    """

    example_indices: np.ndarray
    bp_indices: tuple[int, ...]
    bn_indices: tuple[int, ...]
    sampled_negatives: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.example_indices)


def assemble_batches(corpus: Corpus, batch_size: int, rng_seed: int) -> list[Batch]:
    """Seeded document shuffle, then chunks of ``batch_size`` documents."""
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2 documents, got {batch_size}")
    groups = list(corpus.document_groups.values())
    if not groups:
        return []
    order = stream(rng_seed, "shuffle").permutation(len(groups))

    batches: list[Batch] = []
    for start in range(0, len(order), batch_size):
        indices = np.concatenate([groups[d] for d in order[start : start + batch_size]])
        na = corpus.na_flags[indices]
        batches.append(
            Batch(
                example_indices=_frozen(indices),
                bp_indices=tuple(np.flatnonzero(~na).tolist()),
                bn_indices=tuple(np.flatnonzero(na).tolist()),
            )
        )
    return batches


def batch_count(corpus: Corpus, batch_size: int) -> int:
    """How many batches :func:`assemble_batches` makes: one per ``batch_size`` documents."""
    return math.ceil(len(corpus.document_groups) / batch_size)


def sampled_set_size(ratio: float, num_negatives: int) -> int:
    """Round-half-up of ratio * |N|, at least 1."""
    if not (0 < ratio <= 1):
        raise ConfigError(f"sampling ratio must be in (0, 1], got {ratio}")
    return max(1, int(math.floor(ratio * num_negatives + 0.5)))


def sample_negative_sets(
    count: int, num_relations: int, ratio: float, rng: np.random.Generator
) -> np.ndarray:
    """``count`` uniform without-replacement negative-label sets in one draw.

    Returns ``(count, k)``, k from :func:`sampled_set_size`, each row sorted
    ascending: the k smallest of ``num_relations`` uniform keys, so every
    k-subset is equally likely. When k covers every relation, each row is
    ``range(num_relations)`` and nothing is drawn from ``rng``.
    """
    k = sampled_set_size(ratio, num_relations)
    if k >= num_relations:
        return np.tile(np.arange(num_relations), (count, 1))
    keys = rng.random((count, num_relations))
    return np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)


def attach_negative_samples(
    batch: Batch, corpus: Corpus, ratio: float, rng: np.random.Generator
) -> Batch:
    """Return a copy of the batch with fresh sampled sets for its NA members:
    row i of one :func:`sample_negative_sets` draw for ``bn_indices[i]``."""
    sets = sample_negative_sets(
        len(batch.bn_indices), corpus.vocabulary.num_relations, ratio, rng
    )
    return replace(
        batch, sampled_negatives=dict(zip(batch.bn_indices, map(tuple, sets.tolist())))
    )
