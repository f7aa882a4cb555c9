"""Naive reference transcriptions of every loss term, for cross-checking.

These deliberately share no code with :mod:`docrel.losses`: plain Python
loops, direct exponentials, no stability tricks. They exist only so the
self-test suite (and the test suite) can compare the production
implementations against an independent route. Keep inputs moderate; these
overflow where the production code does not.
"""

from __future__ import annotations

import math

__all__ = [
    "probs",
    "pmt",
    "entropy",
    "em",
    "scl",
    "lt",
    "in_batch_positives",
    "l2",
    "batch_total",
]


def probs(f_r: float, f_eta: float) -> tuple[float, float]:
    er, ee = math.exp(f_r), math.exp(f_eta)
    return er / (er + ee), ee / (er + ee)


def pmt(f, positives, negatives, na_index: int) -> float:
    total = 0.0
    for r in positives:
        p_r, _ = probs(f[r], f[na_index])
        total -= math.log(p_r)
    for r in negatives:
        _, p_eta = probs(f[r], f[na_index])
        total -= math.log(p_eta)
    return total


def entropy(f_r: float, f_eta: float) -> float:
    p, q = probs(f_r, f_eta)
    h = 0.0
    if p > 0.0:
        h -= p * math.log(p)
    if q > 0.0:
        h -= q * math.log(q)
    return h


def _gamma(size: int, mode: str) -> float:
    return float(size) if mode == "set_size" else 1.0


def em(f, positives, negatives, na_index: int, mode: str) -> float:
    total = 0.0
    if positives:
        total += sum(entropy(f[r], f[na_index]) for r in positives) / _gamma(
            len(positives), mode
        )
    if negatives:
        total += sum(entropy(f[r], f[na_index]) for r in negatives) / _gamma(
            len(negatives), mode
        )
    return total


def _dot(u, v) -> float:
    return sum(a * b for a, b in zip(u, v))


def lt(anchor: int, embeddings, tau: float) -> float:
    total = 0.0
    for d in range(len(embeddings)):
        if d != anchor:
            total += math.exp(_dot(embeddings[anchor], embeddings[d]) / tau)
    return math.log(total)


def scl(anchor: int, embeddings, positive_set, tau: float) -> float:
    # lt is the log of scl's denominator, the sum over every non-anchor member
    num = 0.0
    for p in positive_set:
        num += math.exp(_dot(embeddings[anchor], embeddings[p]) / tau)
    return lt(anchor, embeddings, tau) - math.log(num / len(positive_set))


def in_batch_positives(label_sets, anchor: int) -> list[int]:
    """The other positions whose label set shares a relation with the anchor's."""
    return [
        p
        for p in range(len(label_sets))
        if p != anchor and any(r in label_sets[anchor] for r in label_sets[p])
    ]


def l2(bp_positions, label_sets, embeddings, tau: float) -> float:
    total = 0.0
    for a in bp_positions:
        positives = in_batch_positives(label_sets, a)
        if positives:
            total += scl(a, embeddings, positives, tau)
        else:
            total += lt(a, embeddings, tau)
    return total


def batch_total(
    label_sets,
    num_relations: int,
    na_index: int,
    logits,
    embeddings,
    bp_positions,
    sampled_sets,
    temperature: float,
    contrastive_weight: float,
    entropy_norm: str,
    use_entropy: bool = True,
    use_contrastive: bool = True,
    use_neg_sampling: bool = False,
) -> float:
    """Direct transcription of the combined objective over one batch."""
    total = 0.0
    for pos, labels in enumerate(label_sets):
        positives = sorted(labels)
        if use_neg_sampling and not labels:
            negatives = sorted(sampled_sets[pos])
        else:
            negatives = sorted(set(range(num_relations)) - set(labels))
        total += pmt(logits[pos], positives, negatives, na_index)
        if use_entropy:
            total += em(logits[pos], positives, negatives, na_index, entropy_norm)
    if use_contrastive:
        total += contrastive_weight * l2(bp_positions, label_sets, embeddings, temperature)
    return total
