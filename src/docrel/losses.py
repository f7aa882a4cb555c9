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
subset of the negative relations (false-negative robustness); a batch
carries the subsets as one boolean mask over its NA rows.

``batch_loss`` is the one implementation of these values, used for
training, gradients and the finite-difference checks. Its arithmetic is two
row functions: ``_threshold_rows`` over the ``(n, |R|)`` logit gaps and
``_contrastive_rows`` over the anchors' rows of the ``n x n`` similarities,
each a fixed sequence of whole-array NumPy calls (no per-row Python), with
overflow-safe forms (``sigma`` and ``log(1+e^z)`` branch at zero; ``0*log 0``
is taken as 0) in a fixed order, so results are reproducible bit for bit.
:mod:`docrel.oracle` is the independent reference for the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Row-wise log-sum-exp over the masked entries, and their softmax; every row needs one."""
    w = np.where(mask, s, -np.inf)
    shift = np.maximum.reduce(w, axis=1, keepdims=True)
    np.exp(np.subtract(w, shift, out=w), out=w)
    total = np.add.reduce(w, axis=1, keepdims=True)
    return (shift + np.log(total))[:, 0], np.divide(w, total, out=w)


def _negative_mask(
    labels: np.ndarray, batch, config: LossConfig
) -> tuple[np.ndarray, np.ndarray | None]:
    """The penalized negatives N of every position, and which rows were sampled (None: none).

    N is the complement of the label mask, except that with sampling
    enabled NA position ``bn_indices[i]`` uses row ``i`` of ``batch.sampled_mask``.
    """
    negatives, rows = ~labels, batch.bn_indices
    if not (config.use_neg_sampling and len(rows)):
        return negatives, None
    sampled, shape = batch.sampled_mask, (len(rows), labels.shape[1])
    if sampled is None or sampled.shape != shape:
        raise ContractError(f"sampling on but no sampled mask of shape {shape}")
    filled = np.logical_or.reduce(sampled, axis=1)
    if not np.logical_and.reduce(filled):
        pos = rows[filled.argmin()]
        raise ContractError(f"batch position {pos}: sampling on but no sampled negatives")
    if np.logical_or.reduce(sampled & labels[rows], axis=None):
        raise ContractError("sampled labels outside the negative set")
    negatives[rows] = sampled
    sampled_rows = np.zeros(len(labels), dtype=bool)
    sampled_rows[rows] = True
    return negatives, sampled_rows


def _threshold_rows(
    gap: np.ndarray, labels: np.ndarray, negatives: np.ndarray, config: LossConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row threshold and entropy terms over logit gaps ``f_r - f_na``.

    ``labels`` (Y) and ``negatives`` (N), disjoint, mask the gaps that enter
    each row. Returns the per-row ``pmt`` values, the per-row ``em`` values
    (zeros with the entropy term off) and the gradient of their sum w.r.t.
    ``gap``.
    """
    # each relation's two-way softmax against the threshold, overflow-safe: p = sigma(gap)
    # and q = sigma(-gap) are s = sigma(|gap|) = e^-soft and t = e^-hard, swapped below 0
    neg_gap = np.negative(gap)
    low = np.minimum(gap, neg_gap)  # -|gap|
    decay = np.exp(low)
    soft = np.log1p(decay)
    hard = soft - low
    denom = 1.0 + decay
    s, t = 1.0 / denom, decay / denom
    above = gap >= 0.0
    p, q = np.where(above, s, t), np.where(above, t, s)
    inside = labels | negatives
    nll = np.where(labels ^ above, hard, soft)  # -log p on a label, -log q on a negative
    pmt_rows = np.add.reduce(np.where(inside, nll, 0.0), axis=1)
    grad_gap = np.where(labels, np.negative(q), p)
    if not config.use_entropy:
        return pmt_rows, np.zeros(gap.shape[0]), np.where(inside, grad_gap, 0.0)
    # the entropy p * -log p + q * -log q over Y and over N, each over its normalizer
    sides = np.array((labels, negatives))
    em_sides = np.add.reduce(np.where(sides, s * soft + t * hard, 0.0), axis=2)
    grad_entropy = neg_gap * p * q
    if config.entropy_norm == "set_size":  # "unit" divides by 1
        gamma = np.maximum(1, np.add.reduce(sides, axis=2))
        em_sides /= gamma
        grad_entropy /= np.where(labels, gamma[0][:, None], gamma[1][:, None])
    grad_gap += grad_entropy
    return pmt_rows, em_sides[0] + em_sides[1], np.where(inside, grad_gap, 0.0)


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
    others = anchors[:, None] != np.arange(sims.shape[1])
    y = labels.astype(np.float64)
    positives = (y[anchors] @ y.T > 0.0) & others
    values, grad_sims = _masked_logsumexp(sims, others)
    has_pos = np.logical_or.reduce(positives, axis=1)
    if np.logical_or.reduce(has_pos):
        # every anchor row in one pass: a row without positives runs over its (finite)
        # denominator and is multiplied by 0; adding -0.0 or subtracting 0.0 changes no bit
        positives |= others & ~has_pos[:, None]
        pos_lse, pos_soft = _masked_logsumexp(sims, positives)
        values += (np.log(np.add.reduce(positives, axis=1)) - pos_lse) * has_pos
        grad_sims -= pos_soft * has_pos[:, None]
    return values, has_pos, grad_sims


def batch_loss(labels, batch, forward, vocab, config: LossConfig) -> BatchLossOutput:
    """Combined objective and gradients for one batch.

    ``labels`` is the batch's ``(n, |R|)`` boolean label mask Y, one row of
    positive relations per batch position (rows of a corpus's
    ``label_rows``). ``forward`` holds one row of logits ``f`` and unit
    embeddings ``x_unit`` per batch position (a
    :class:`~docrel.head.BatchForward`). The threshold and entropy terms
    are reductions over the logit gaps ``D = f[:, :|R|] - f[:, na]`` masked
    by Y and N, with per-row set-size normalizers. N, the penalized
    negatives, is the complement of Y, except that with sampling on the NA
    rows ``batch.bn_indices`` take the rows of ``batch.sampled_mask`` (see
    ``_negative_mask``); the parts split off those rows' total as
    ``sampled_neg``. At sampling ratio 1.0 a sampled set is
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
    if not np.logical_and.reduce(np.isfinite(f), axis=None):
        raise NumericError("batch_loss: non-finite logit input")

    negatives, sampled = _negative_mask(labels, batch, config)
    pmt_rows, em_rows, grad_gap = _threshold_rows(
        f[:, :n_rel] - f[:, na : na + 1], labels, negatives, config
    )
    grad_logits = np.empty(f.shape)
    grad_logits[:, :n_rel] = grad_gap
    np.negative(np.add.reduce(grad_gap, axis=1), out=grad_logits[:, na])
    row_totals = pmt_rows + em_rows
    classification = float(np.add.reduce(row_totals))
    # the unsampled rows' parts and the sampled rows' total
    kept = slice(None) if sampled is None else ~sampled
    parts = {"pmt": float(np.add.reduce(pmt_rows[kept])), "em": float(np.add.reduce(em_rows[kept])),
             "scl": 0.0, "lt": 0.0,
             "sampled_neg": 0.0 if sampled is None else float(np.add.reduce(row_totals[sampled]))}

    lam = config.contrastive_weight
    anchors = batch.bp_indices
    contrastive = 0.0
    if config.use_contrastive and lam != 0.0 and n >= 2 and len(anchors):
        tau = config.temperature
        anchor_unit = unit[anchors]
        sims = anchor_unit @ unit.T / tau
        values, has_pos, grad_sims = _contrastive_rows(sims, labels, anchors)
        parts["scl"] = float(np.add.reduce(values[has_pos]))
        parts["lt"] = float(np.add.reduce(values[~has_pos]))
        contrastive = parts["scl"] + parts["lt"]
        grad_embeddings = grad_sims.T @ anchor_unit  # through unit.T, then unit[anchors]
        grad_embeddings /= tau
        grad_embeddings[anchors] += grad_sims @ unit / tau
        grad_embeddings *= lam
    else:
        grad_embeddings = np.zeros(unit.shape)

    total = classification + lam * contrastive
    return BatchLossOutput(
        total=total, parts=parts, grad_logits=grad_logits, grad_embeddings=grad_embeddings
    )
