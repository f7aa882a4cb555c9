"""The combined objective for moving-threshold multi-label classification.

For an example with logits ``f`` (relations at indices ``0..|R|-1``, the NA
threshold class at ``na``), each relation ``r`` is compared *only* against
the threshold through the two-way softmax

    p_r  = sigma(f[r] - f[na])      p_na = 1 - p_r

inducing a partial order: positives above the threshold, threshold above
negatives. ``batch_loss`` computes, over a batch, with analytic gradients
w.r.t. the logits and unit embeddings:

* the moving-threshold loss ``pmt``, the negative log of the joint pairwise
  probability, ``sum_P log(1+e^(f_na-f_r)) + sum_N log(1+e^(f_r-f_na))``;
* the entropy term ``em``, the entropy of each two-way distribution, added
  to sharpen it away from 0.5 and optionally normalized by the
  positive/negative set sizes;
* supervised contrastive terms over L2-normalized pair embeddings:
  ``scl`` for anchors with in-batch positives (the other batch members
  sharing one of the anchor's relations), and ``lt``, pure dissimilarity
  maximization, for anchors with none (the long-tail branch).

For NA-labeled examples, negative-label sampling penalizes only a sampled
subset of the negative relations (false-negative robustness).

``batch_loss`` is the one implementation of these values, used for
training, gradients and the finite-difference checks. Its arithmetic is two
row functions: ``_threshold_rows`` over the ``(n, |R|)`` logit gaps and
``_contrastive_rows`` over the anchors' rows of the ``n x n`` similarities,
with overflow-safe forms (``sigma`` and ``log(1+e^z)`` branch at zero;
``0*log 0`` is taken as 0) in a fixed order, so results are reproducible bit
for bit. :mod:`docrel.oracle` is the independent reference for the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import label_mask
from .errors import ConfigError, ContractError, NumericError, ShapeError

__all__ = ["LossConfig", "BatchLossOutput", "batch_loss"]

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
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"loss.temperature must be finite and > 0, got {self.temperature}")
        if not (math.isfinite(self.contrastive_weight) and self.contrastive_weight >= 0):
            raise ConfigError(
                f"loss.contrastive_weight must be finite and >= 0, got {self.contrastive_weight}"
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
# combined batch objective

def _masked_logsumexp(s: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-sum-exp over the masked entries, and their softmax.

    Every row must have at least one masked entry.
    """
    masked = np.where(mask, s, -np.inf)
    shift = masked.max(axis=1, keepdims=True)
    w = np.exp(masked - shift)
    total = w.sum(axis=1, keepdims=True)
    return (shift + np.log(total))[:, 0], w / total


def _negative_mask(labels: np.ndarray, batch, config: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """The penalized negatives N of every position and which rows were sampled.

    N is the complement of the label mask, except that with sampling
    enabled each NA position uses its sampled set.
    """
    negatives = ~labels
    sampled_rows = np.zeros(labels.shape[0], dtype=bool)
    if config.use_neg_sampling and batch.bn_indices:
        sets = [batch.sampled_negatives.get(pos) for pos in batch.bn_indices]
        for pos, sampled in zip(batch.bn_indices, sets):
            if not sampled:  # none attached, or an empty set
                raise ContractError(f"batch position {pos}: sampling on but no sampled negatives")
        rows = np.asarray(batch.bn_indices, dtype=np.intp)
        sampled_mask = label_mask(sets, labels.shape[1])
        if (sampled_mask & labels[rows]).any():
            raise ContractError("sampled labels outside the negative set")
        negatives[rows] = sampled_mask
        sampled_rows[rows] = True
    return negatives, sampled_rows


def _threshold_rows(
    gap: np.ndarray, labels: np.ndarray, negatives: np.ndarray, config: LossConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row threshold and entropy terms over logit gaps ``f_r - f_na``.

    ``labels`` (Y) and ``negatives`` (N) mask the gaps that enter each row.
    Returns the per-row ``pmt`` values, the per-row ``em`` values (zeros
    with the entropy term off) and the gradient of their sum w.r.t. ``gap``.
    """
    # two-way softmax of each relation against the threshold, overflow-safe
    neg_gap = np.negative(gap)
    decay = np.exp(np.minimum(gap, neg_gap))  # e^-|gap|
    soft = np.log1p(decay)
    denom = 1.0 + decay
    above = gap >= 0.0
    p = np.where(above, 1.0, decay) / denom  # sigma(gap)
    q = np.where(above, decay, 1.0) / denom  # sigma(-gap)
    nll_pos = np.maximum(neg_gap, 0.0) + soft  # -log p
    nll_neg = np.maximum(gap, 0.0) + soft  # -log q

    pmt_rows = np.where(labels, nll_pos, np.where(negatives, nll_neg, 0.0)).sum(axis=1)
    grad_gap = np.where(labels, -q, np.where(negatives, p, 0.0))
    if not config.use_entropy:
        return pmt_rows, np.zeros(gap.shape[0]), grad_gap
    entropy = p * nll_pos + q * nll_neg
    # the entropy summed over Y and over N, each over its normalizer
    sides = np.array((labels, negatives))
    sizes = sides.sum(axis=2)
    gamma = np.maximum(1, sizes) if config.entropy_norm == "set_size" else np.ones(sizes.shape)
    em_pos, em_neg = np.where(sides, entropy, 0.0).sum(axis=2) / gamma
    entry_gamma = np.where(labels, gamma[0][:, None], gamma[1][:, None])
    grad_gap += np.where(labels | negatives, neg_gap * p * q / entry_gamma, 0.0)
    return pmt_rows, em_pos + em_neg, grad_gap


def _contrastive_rows(
    sims: np.ndarray, labels: np.ndarray, anchors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-anchor contrastive values over scaled similarities ``sims``.

    Row ``i`` holds anchor ``anchors[i]``'s similarities with the batch; its
    denominator is every member but the anchor, its positives the others
    whose row of ``labels`` (Y) shares a relation with the anchor's. Anchors
    with a positive take the ``scl`` value, the others the long-tail ``lt``
    value. Returns the values, which anchors have a positive, and the
    gradient of the values' sum w.r.t. ``sims``.
    """
    others = np.ones(sims.shape, dtype=bool)
    others[np.arange(anchors.size), anchors] = False
    y = labels.astype(np.float64)
    positives = (y[anchors] @ y.T > 0.0) & others
    values, grad_sims = _masked_logsumexp(sims, others)
    has_pos = positives.any(axis=1)
    if has_pos.any():
        pos_lse, pos_soft = _masked_logsumexp(sims[has_pos], positives[has_pos])
        values[has_pos] += np.log(positives[has_pos].sum(axis=1)) - pos_lse
        grad_sims[has_pos] -= pos_soft
    return values, has_pos, grad_sims


def batch_loss(labels, batch, forward, vocab, config: LossConfig) -> BatchLossOutput:
    """Combined objective and gradients for one batch.

    ``labels`` is the batch's ``(n, |R|)`` boolean label mask Y, one row of
    positive relations per batch position (rows of a corpus's
    ``label_rows``). ``forward`` holds one row of logits ``f`` and unit
    embeddings ``x_unit`` per batch position (a
    :class:`~docrel.head.BatchForward`). The threshold and entropy terms
    are reductions over the logit gaps ``D = f[:, :|R|] - f[:, na]`` masked
    by Y and N (its penalized negatives, see ``_negative_mask``), with
    per-row set-size normalizers. At sampling ratio 1.0 a sampled set is
    every relation, so N equals the complement of Y and the sampled
    objective runs the unsampled arithmetic exactly. The contrastive part
    is row-masked log-sum-exp over the anchors' rows of ``U U^T / tau`` and
    is scaled by ``contrastive_weight``; its anchors are ``bp_indices``, and
    an anchor's positives are the other positions sharing a relation in Y.
    """
    n = len(labels)
    na = vocab.na_index
    n_rel = vocab.num_relations
    f, unit = forward.f, forward.x_unit
    if f.shape != (n, vocab.num_logits) or unit.shape[0] != n or labels.shape != (n, n_rel):
        raise ShapeError(
            f"batch_loss: logits {f.shape}, embeddings {unit.shape} and labels "
            f"{labels.shape}, expected ({n}, {vocab.num_logits}) logits and ({n}, {n_rel}) labels"
        )
    if not np.isfinite(f).all():
        raise NumericError("batch_loss: non-finite logit input")

    negatives, sampled_rows = _negative_mask(labels, batch, config)
    pmt_rows, em_rows, grad_gap = _threshold_rows(
        f[:, :n_rel] - f[:, na : na + 1], labels, negatives, config
    )
    grad_logits = np.zeros_like(f)
    grad_logits[:, :n_rel] = grad_gap
    grad_logits[:, na] = -grad_gap.sum(axis=1)
    classification = float((pmt_rows + em_rows).sum())
    parts = {
        "pmt": float(pmt_rows[~sampled_rows].sum()),
        "em": float(em_rows[~sampled_rows].sum()),
        "scl": 0.0,
        "lt": 0.0,
        "sampled_neg": float((pmt_rows + em_rows)[sampled_rows].sum()),
    }

    lam = config.contrastive_weight
    anchors = np.asarray(batch.bp_indices, dtype=np.intp)
    contrastive = 0.0
    if config.use_contrastive and lam != 0.0 and n >= 2 and anchors.size:
        tau = config.temperature
        sims = unit[anchors] @ unit.T / tau
        values, has_pos, grad_sims = _contrastive_rows(sims, labels, anchors)
        parts["scl"] = float(values[has_pos].sum())
        parts["lt"] = float(values[~has_pos].sum())
        contrastive = parts["scl"] + parts["lt"]
        grad_embeddings = grad_sims.T @ unit[anchors]  # through unit.T, then unit[anchors]
        grad_embeddings /= tau
        grad_embeddings[anchors] += grad_sims @ unit / tau
        grad_embeddings *= lam
    else:
        grad_embeddings = np.zeros_like(unit)

    total = classification + lam * contrastive
    return BatchLossOutput(
        total=total, parts=parts, grad_logits=grad_logits, grad_embeddings=grad_embeddings
    )
