"""Batch assembly and negative-label sampling.

Batches are built at document granularity: documents are shuffled with a
seeded stream and consecutive documents are grouped until the configured
count is reached, so every entity pair of a document lands in the same
batch. All index sets inside a :class:`Batch` are *batch positions*
(0-based offsets into ``example_indices``), not corpus indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

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
    together they partition the batch. They and ``example_indices`` (corpus
    indices) are read-only ``np.intp`` arrays. For sampled training, as by
    :func:`attach_negative_samples`, row ``i`` of the boolean
    ``(len(bn_indices), |R|)`` ``sampled_mask`` is the sampled negative set
    of position ``bn_indices[i]``; it is None when no sets are attached.
    """

    example_indices: np.ndarray
    bp_indices: np.ndarray
    bn_indices: np.ndarray
    sampled_mask: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.example_indices)

    @property
    def sampled_negatives(self) -> MappingProxyType:
        """Read-only: each NA position's sampled set, an ascending tuple read
        from ``sampled_mask``. No library code reads it; it goes when the
        benchmark's tracer reads the mask (ROADMAP item 1 (b))."""
        rows = () if self.sampled_mask is None else self.sampled_mask
        sets = (tuple(np.flatnonzero(row).tolist()) for row in rows)
        return MappingProxyType(dict(zip(self.bn_indices.tolist(), sets)))


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
        batches.append(Batch(*map(_frozen, (indices, (~na).nonzero()[0], na.nonzero()[0]))))
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
    return np.sort(rng.random((count, num_relations)).argpartition(k - 1, axis=1)[:, :k], axis=1)


def attach_negative_samples(
    batch: Batch, corpus: Corpus, ratio: float, rng: np.random.Generator
) -> Batch:
    """Return a copy of the batch with fresh sampled sets for its NA members:
    row i of one :func:`sample_negative_sets` draw for ``bn_indices[i]``."""
    width = corpus.vocabulary.num_relations
    return _with_sets(batch, sample_negative_sets(len(batch.bn_indices), width, ratio, rng), width)


def _with_sets(batch: Batch, sets: np.ndarray, width: int) -> Batch:
    """The batch with the ``(len(bn_indices), k)`` indices ``sets`` scattered into its mask."""
    mask = np.zeros((len(sets), width), dtype=bool)
    mask[np.arange(len(sets))[:, None], sets] = True
    return Batch(batch.example_indices, batch.bp_indices, batch.bn_indices, mask)
