"""Loss terms for moving-threshold multi-label classification.

For an example with logits ``f`` (relations at indices ``0..|R|-1``, the NA
threshold class at ``na``), each relation ``r`` is compared *only* against
the threshold through the two-way softmax

    p_r  = sigma(f[r] - f[na])      p_na = 1 - p_r

inducing a partial order: positives above the threshold, threshold above
negatives. On top of that:

* ``pmt_loss``  - negative log of the joint pairwise probability,
  ``sum_P log(1+e^(f_na-f_r)) + sum_N log(1+e^(f_r-f_na))``.
* ``pair_entropy`` / ``em_loss`` - entropy of each two-way distribution,
  added to sharpen it away from 0.5; optionally normalized by the
  positive/negative set sizes.
* ``scl_loss`` / ``lt_loss`` / ``l2_loss`` - supervised contrastive terms
  over L2-normalized pair embeddings; anchors with no in-batch positive
  fall back to pure dissimilarity maximization (the long-tail branch).
* ``batch_loss`` - the combined objective over a batch with analytic
  gradients w.r.t. the logits and unit embeddings. For NA-labeled
  examples, negative-label sampling penalizes only a sampled subset of
  the negative relations (false-negative robustness).

The per-example functions are value-only references, written term by term
with overflow-safe scalar forms (``sigma`` and ``log(1+e^z)`` branch at
zero; ``0*log 0`` is taken as 0). ``batch_loss`` is the one implementation
used for training and gradients: the same terms as masked reductions over
the batch's ``(n, |R|)`` logit gaps and ``n x n`` similarities, with the
same overflow-safe forms, in a fixed order, so results are reproducible bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import label_mask
from .errors import ConfigError, ContractError, NumericError, ShapeError

__all__ = [
    "LossConfig",
    "BatchLossOutput",
    "sigmoid",
    "log1p_exp",
    "pairwise_probs",
    "pmt_loss",
    "pair_entropy",
    "em_loss",
    "scl_loss",
    "lt_loss",
    "l2_loss",
    "batch_loss",
]

ENTROPY_NORMS = ("unit", "set_size")
RESAMPLE_MODES = ("once", "per_epoch", "per_step")


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters and ablation switches for the combined objective."""

    temperature: float = 1.0
    contrastive_weight: float = 1.0
    entropy_norm: str = "unit"
    neg_sampling_ratio: float = 1.0
    use_entropy: bool = True
    use_contrastive: bool = True
    use_neg_sampling: bool = False
    resample: str = "per_epoch"

    def __post_init__(self):
        if not (self.temperature > 0):
            raise ConfigError(f"loss.temperature must be > 0, got {self.temperature}")
        if self.contrastive_weight < 0:
            raise ConfigError(
                f"loss.contrastive_weight must be >= 0, got {self.contrastive_weight}"
            )
        if not (0 < self.neg_sampling_ratio <= 1):
            raise ConfigError(
                f"loss.neg_sampling_ratio must be in (0, 1], got {self.neg_sampling_ratio}"
            )
        if self.entropy_norm not in ENTROPY_NORMS:
            raise ConfigError(
                f"loss.entropy_norm must be one of {ENTROPY_NORMS}, got {self.entropy_norm!r}"
            )
        if self.resample not in RESAMPLE_MODES:
            raise ConfigError(
                f"loss.resample must be one of {RESAMPLE_MODES}, got {self.resample!r}"
            )


@dataclass(eq=False)
class BatchLossOutput:
    total: float
    parts: dict[str, float]
    grad_logits: np.ndarray  # (n, num_logits)
    grad_embeddings: np.ndarray  # (n, d_x), w.r.t. the unit embeddings


# ---------------------------------------------------------------------------
# stable scalar primitives

def sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def log1p_exp(z: float) -> float:
    """log(1 + e^z) without overflow."""
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NumericError(f"non-finite logit input: {v!r}")


def pairwise_probs(f_r: float, f_eta: float) -> tuple[float, float]:
    """Two-way softmax between one relation logit and the threshold logit."""
    _require_finite(f_r, f_eta)
    p_r = sigmoid(f_r - f_eta)
    return p_r, 1.0 - p_r


# ---------------------------------------------------------------------------
# moving-threshold loss

def _check_label_sets(positives, negatives, na_index: int) -> None:
    pos, neg = set(positives), set(negatives)
    if na_index in pos or na_index in neg:
        raise ContractError("threshold class cannot appear in a label set")
    if pos & neg:
        raise ContractError(f"label sets overlap: {sorted(pos & neg)}")


def pmt_loss(f: np.ndarray, positives, negatives, na_index: int) -> float:
    """Joint pairwise probability loss for one example."""
    _check_label_sets(positives, negatives, na_index)
    f_eta = float(f[na_index])
    loss = 0.0
    for r in sorted(positives):
        loss += log1p_exp(f_eta - float(f[r]))
    for r in sorted(negatives):
        loss += log1p_exp(float(f[r]) - f_eta)
    return loss


# ---------------------------------------------------------------------------
# entropy of the pairwise distributions

def pair_entropy(f_r: float, f_eta: float) -> float:
    """Entropy of the two-way (relation, threshold) distribution, in nats."""
    _require_finite(f_r, f_eta)
    gap = f_r - f_eta
    p = sigmoid(gap)
    q = 1.0 - p
    # -log p = log1p_exp(-gap), -log q = log1p_exp(gap); 0*log0 -> 0
    return p * log1p_exp(-gap) + q * log1p_exp(gap)


def _gammas(n_pos: int, n_neg: int, config: LossConfig) -> tuple[float, float]:
    if config.entropy_norm == "set_size":
        return float(max(1, n_pos)), float(max(1, n_neg))
    return 1.0, 1.0


def em_loss(
    f: np.ndarray, positives, negatives, na_index: int, config: LossConfig
) -> float:
    """Entropy-minimization term, normalized per the configured mode."""
    _check_label_sets(positives, negatives, na_index)
    f_eta = float(f[na_index])
    g1, g2 = _gammas(len(positives), len(negatives), config)
    pos_sum = 0.0
    for r in sorted(positives):
        pos_sum += pair_entropy(float(f[r]), f_eta)
    neg_sum = 0.0
    for r in sorted(negatives):
        neg_sum += pair_entropy(float(f[r]), f_eta)
    return pos_sum / g1 + neg_sum / g2


# ---------------------------------------------------------------------------
# supervised contrastive terms over unit pair embeddings

def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


def _similarities(anchor_index: int, embeddings: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot products of the anchor with every other batch member."""
    others = np.array(
        [i for i in range(embeddings.shape[0]) if i != anchor_index], dtype=np.intp
    )
    sims = embeddings[others] @ embeddings[anchor_index] / tau
    return others, sims


def scl_loss(
    anchor_index: int, batch_embeddings, positive_set, tau: float
) -> float:
    """Multi-label supervised contrastive loss for one anchor.

    The numerator averages over the anchor's in-batch positives; the
    denominator spans every non-anchor batch member.
    """
    emb = np.asarray(batch_embeddings, dtype=np.float64)
    pos = sorted(positive_set)
    if not pos:
        raise ContractError("scl_loss: empty positive set (long-tail branch belongs to l2_loss)")
    if anchor_index in positive_set:
        raise ContractError("scl_loss: anchor cannot be its own positive")
    if emb.shape[0] < 2:
        raise ContractError("scl_loss: batch must have at least 2 members")
    others, sims = _similarities(anchor_index, emb, tau)
    pos_mask = np.isin(others, np.asarray(pos, dtype=np.intp))
    return _logsumexp(sims) + math.log(len(pos)) - _logsumexp(sims[pos_mask])


def lt_loss(anchor_index: int, batch_embeddings, tau: float) -> float:
    """Long-tail branch: push the anchor away from every other batch member."""
    emb = np.asarray(batch_embeddings, dtype=np.float64)
    if emb.shape[0] < 2:
        raise ContractError("lt_loss: batch must have at least 2 members")
    _, sims = _similarities(anchor_index, emb, tau)
    return _logsumexp(sims)


def l2_loss(
    bp_positions, s_sets: dict[int, frozenset[int]], batch_embeddings, tau: float
) -> float:
    """Contrastive loss summed over non-NA anchors.

    Anchors with at least one in-batch positive use ``scl_loss``; anchors
    with none use ``lt_loss``. NA examples never anchor but do appear in
    denominators. Batches too small to contrast contribute zero.
    """
    emb = np.asarray(batch_embeddings, dtype=np.float64)
    if emb.shape[0] < 2:
        return 0.0
    total = 0.0
    for a in sorted(bp_positions):
        positives = s_sets.get(a, frozenset())
        if positives:
            total += scl_loss(a, emb, positives, tau)
        else:
            total += lt_loss(a, emb, tau)
    return total


# ---------------------------------------------------------------------------
# combined batch objective

def _masked_logsumexp(s: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-sum-exp over the masked entries, and their softmax.

    Every row must have at least one masked entry.
    """
    masked = np.where(mask, s, -np.inf)
    shift = np.max(masked, axis=1, keepdims=True)
    w = np.exp(masked - shift)
    total = np.sum(w, axis=1, keepdims=True)
    return (shift + np.log(total))[:, 0], w / total


def _negative_mask(labels: np.ndarray, batch, config: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """The penalized negatives N of every position and which rows were sampled.

    N is the complement of the label mask, except that with sampling
    enabled each NA position uses its sampled set.
    """
    negatives = ~labels
    sampled_rows = np.zeros(labels.shape[0], dtype=bool)
    if config.use_neg_sampling and batch.bn_indices:
        sets = []
        for pos in batch.bn_indices:
            sampled = batch.sampled_negatives.get(pos)
            if sampled is None:
                raise ContractError(
                    f"batch position {pos}: sampling enabled but no sampled set attached"
                )
            if not sampled:
                raise ContractError(f"batch position {pos}: empty sampled negative set")
            sets.append(sampled)
        rows = np.asarray(batch.bn_indices, dtype=np.intp)
        sampled_mask = label_mask(sets, labels.shape[1])
        if np.any(sampled_mask & labels[rows]):
            raise ContractError("sampled labels outside the negative set")
        negatives[rows] = sampled_mask
        sampled_rows[rows] = True
    return negatives, sampled_rows


def batch_loss(examples, batch, forward, vocab, config: LossConfig) -> BatchLossOutput:
    """Combined objective and gradients for one batch.

    ``forward`` holds one row of logits ``f`` and unit embeddings
    ``x_unit`` per batch position (a :class:`~docrel.head.BatchForward`).
    The threshold and entropy terms are reductions over the logit gaps
    ``D = f[:, :|R|] - f[:, na]`` masked by Y (each example's positive
    relations) and N (its penalized negatives, see ``_negative_mask``), with
    per-row set-size normalizers. At sampling ratio 1.0 a sampled set is
    every relation, so N equals the complement of Y and the sampled
    objective runs the unsampled arithmetic exactly. The contrastive part
    is row-masked log-sum-exp over the anchors' rows of ``U U^T / tau`` and
    is scaled by ``contrastive_weight``.
    """
    n = len(examples)
    f, unit = forward.f, forward.x_unit
    if f.shape != (n, vocab.num_logits) or unit.shape[0] != n:
        raise ShapeError(
            f"batch_loss: logits {f.shape} and embeddings {unit.shape} for {n} examples, "
            f"expected ({n}, {vocab.num_logits}) logits"
        )
    if not np.all(np.isfinite(f)):
        raise NumericError("batch_loss: non-finite logit input")
    na = vocab.na_index
    n_rel = vocab.num_relations

    labels = label_mask([ex.positive_relations for ex in examples], n_rel)
    negatives, sampled_rows = _negative_mask(labels, batch, config)
    active = labels | negatives

    # two-way softmax of each relation against the threshold, overflow-safe
    gap = f[:, :n_rel] - f[:, na : na + 1]
    decay = np.exp(-np.abs(gap))
    soft = np.log1p(decay)
    above = gap >= 0.0
    p = np.where(above, 1.0, decay) / (1.0 + decay)  # sigma(gap)
    q = np.where(above, decay, 1.0) / (1.0 + decay)  # sigma(-gap)
    nll_pos = np.maximum(-gap, 0.0) + soft  # -log p
    nll_neg = np.maximum(gap, 0.0) + soft  # -log q

    pmt_rows = np.sum(np.where(labels, nll_pos, np.where(negatives, nll_neg, 0.0)), axis=1)
    grad_gap = np.where(labels, -q, np.where(negatives, p, 0.0))
    if config.use_entropy:
        entropy = p * nll_pos + q * nll_neg
        if config.entropy_norm == "set_size":
            gamma_pos = np.maximum(1, labels.sum(axis=1))
            gamma_neg = np.maximum(1, negatives.sum(axis=1))
        else:
            gamma_pos = gamma_neg = np.ones(n)
        em_rows = (
            np.sum(np.where(labels, entropy, 0.0), axis=1) / gamma_pos
            + np.sum(np.where(negatives, entropy, 0.0), axis=1) / gamma_neg
        )
        gamma = np.where(labels, gamma_pos[:, None], gamma_neg[:, None])
        grad_gap += np.where(active, -gap * p * q / gamma, 0.0)
    else:
        em_rows = np.zeros(n)

    grad_logits = np.zeros_like(f)
    grad_logits[:, :n_rel] = grad_gap
    grad_logits[:, na] = -np.sum(grad_gap, axis=1)
    classification = float(np.sum(pmt_rows + em_rows))
    parts = {
        "pmt": float(np.sum(pmt_rows[~sampled_rows])),
        "em": float(np.sum(em_rows[~sampled_rows])),
        "scl": 0.0,
        "lt": 0.0,
        "sampled_neg": float(np.sum((pmt_rows + em_rows)[sampled_rows])),
    }

    lam = config.contrastive_weight
    grad_embeddings = np.zeros_like(unit)
    anchors = np.asarray(batch.bp_indices, dtype=np.intp)
    contrastive = 0.0
    if config.use_contrastive and lam != 0.0 and n >= 2 and anchors.size:
        tau = config.temperature
        sims = unit[anchors] @ unit.T / tau
        others = np.ones_like(sims, dtype=bool)
        others[np.arange(anchors.size), anchors] = False
        positives = label_mask([batch.s_sets.get(int(a), ()) for a in anchors], n)
        if np.any(positives & ~others):
            raise ContractError("batch_loss: an anchor cannot be its own positive")
        values, grad_sims = _masked_logsumexp(sims, others)
        has_pos = np.any(positives, axis=1)
        if has_pos.any():
            pos_lse, pos_soft = _masked_logsumexp(sims[has_pos], positives[has_pos])
            values[has_pos] += np.log(np.sum(positives[has_pos], axis=1)) - pos_lse
            grad_sims[has_pos] -= pos_soft
        parts["scl"] = float(np.sum(values[has_pos]))
        parts["lt"] = float(np.sum(values[~has_pos]))
        contrastive = parts["scl"] + parts["lt"]
        grad_embeddings[anchors] += grad_sims @ unit / tau
        grad_embeddings += grad_sims.T @ unit[anchors] / tau
        grad_embeddings *= lam

    total = classification + lam * contrastive
    return BatchLossOutput(
        total=total, parts=parts, grad_logits=grad_logits, grad_embeddings=grad_embeddings
    )
