"""The optimization loop: seeded, deterministic, best-dev checkpointing."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .batching import (
    _with_sets,
    assemble_batches,
    attach_negative_samples,
    batch_count,
    sample_negative_sets,
)
from .core import Corpus
from .errors import ConfigError, NonFiniteLossError, NumericError
from .evaluation import evaluate
from .head import HeadParams, head_backward, head_forward, init_head_params
from .losses import LossConfig, batch_loss
from .optim import AdamW, clip_gradients, warmup_lr
from .rng import stream

__all__ = ["TrainConfig", "TrainResult", "train"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 4  # documents per batch
    learning_rate: float = 1e-3
    warmup_ratio: float = 0.06
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    grad_clip_norm: float | None = None
    seed: int = 0
    hidden_dim: int = 32
    group_count: int = 4
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"train.epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"train.learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"train.eps must be finite and > 0, got {self.eps}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(
                f"train.weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        if self.grad_clip_norm is not None and not (self.grad_clip_norm > 0):
            raise ConfigError(
                f"train.grad_clip_norm must be > 0 or none, got {self.grad_clip_norm}"
            )
        if not (0 <= self.warmup_ratio < 1):
            raise ConfigError(f"train.warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.batch_size < 2:
            raise ConfigError(f"train.batch_size must be >= 2, got {self.batch_size}")
        if self.hidden_dim < 1 or self.group_count < 1:
            raise ConfigError(
                f"train.hidden_dim and train.group_count must be >= 1, got "
                f"{self.hidden_dim} and {self.group_count}"
            )
        if self.hidden_dim % self.group_count != 0:
            raise ConfigError("train.hidden_dim must be divisible by train.group_count")


@dataclass(eq=False)
class TrainResult:
    params: HeadParams  # checkpoint from the best dev-F1 epoch
    final_params: HeadParams
    history: list[dict]
    best_epoch: int

    @property
    def best_dev_f1(self) -> float:
        return self.history[self.best_epoch]["dev"]["f1"] if self.history else 0.0


def _fixed_samples(corpus: Corpus, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One sampled negative set per NA example, reused every epoch, from one
    draw: the ``(n_na, k)`` sets in corpus order, and each NA example's row."""
    na, rng = corpus.na_flags, stream(seed, "negsample", "once")
    sets = sample_negative_sets(np.count_nonzero(na), corpus.vocabulary.num_relations, ratio, rng)
    return sets, np.cumsum(na) - 1


def train(
    train_corpus: Corpus,
    dev_corpus: Corpus,
    config: TrainConfig,
    params: HeadParams | None = None,
) -> TrainResult:
    """Optimize the head on the train split, checkpointing by dev F1.

    Dev evaluation scores each epoch against the dev corpus's own labels
    (the only labels a tuner is assumed to have). Deterministic given the
    seed: batch shuffling, negative sampling, and initialization all use
    independent streams derived from it.
    """
    loss_cfg = config.loss
    # the optimizer updates ``current`` in place; a caller's ``params`` stay untouched
    if params is None:
        current = init_head_params(
            input_dim=train_corpus.embedding_dim,
            hidden_dim=config.hidden_dim,
            group_count=config.group_count,
            num_logits=train_corpus.vocabulary.num_logits,
            rng=stream(config.seed, "init"),
        )
    else:
        current = params.copy()

    optimizer = AdamW(
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
        weight_decay=config.weight_decay,
    )

    total_steps = batch_count(train_corpus, config.batch_size) * config.epochs

    ratio = loss_cfg.neg_sampling_ratio
    if loss_cfg.use_neg_sampling and loss_cfg.resample == "once":
        once_sets, once_row = _fixed_samples(train_corpus, ratio, config.seed)

    head, tail = train_corpus.head_rows, train_corpus.tail_rows
    context, labels = train_corpus.context_rows, train_corpus.label_rows

    history: list[dict] = []
    best_epoch = -1
    best_f1 = -1.0
    best: HeadParams | None = None
    step = 0

    for epoch in range(config.epochs):
        started = time.perf_counter()
        batches = assemble_batches(
            train_corpus, config.batch_size, _epoch_seed(config.seed, epoch)
        )
        if loss_cfg.use_neg_sampling and loss_cfg.resample == "per_epoch":
            rng = stream(config.seed, "negsample", epoch)

        epoch_parts = {"pmt": 0.0, "em": 0.0, "scl": 0.0, "lt": 0.0, "sampled_neg": 0.0}
        epoch_total = 0.0

        for batch_index, batch in enumerate(batches):
            if loss_cfg.use_neg_sampling and loss_cfg.resample == "once":
                sets = once_sets[once_row[batch.example_indices[batch.bn_indices]]]
                batch = _with_sets(batch, sets, train_corpus.vocabulary.num_relations)
            elif loss_cfg.use_neg_sampling:
                if loss_cfg.resample == "per_step":
                    rng = stream(config.seed, "negsample", epoch, batch_index)
                batch = attach_negative_samples(batch, train_corpus, ratio, rng)

            rows = batch.example_indices
            try:
                forward = head_forward(head[rows], tail[rows], context[rows], current)
                out = batch_loss(labels[rows], batch, forward, train_corpus.vocabulary, loss_cfg)
            except NumericError as exc:
                raise NonFiniteLossError(epoch, batch_index, {"error": str(exc)}) from exc
            if not math.isfinite(out.total):
                raise NonFiniteLossError(epoch, batch_index, out.parts)
            epoch_total += out.total
            for key in epoch_parts:
                epoch_parts[key] += out.parts[key]

            grads = head_backward(forward, out.grad_embeddings, out.grad_logits, current)
            if config.grad_clip_norm is not None:
                clip_gradients(grads, config.grad_clip_norm)
            lr = warmup_lr(config.learning_rate, step, total_steps, config.warmup_ratio)
            optimizer.step(current.flat, grads, lr)
            step += 1

        dev_report = evaluate(current, dev_corpus, use_gold=False)
        dev = {key: getattr(dev_report, key) for key in ("precision", "recall", "f1")}
        history.append(
            {"epoch": epoch, "loss_total": epoch_total, "loss_parts": dict(epoch_parts), "dev": dev}
        )
        seconds = time.perf_counter() - started
        logger.info("epoch %d: loss=%.4f dev_f1=%.4f wall=%.3fs pairs/s=%.0f", epoch, epoch_total,
                    dev_report.f1, seconds, len(train_corpus.examples) / seconds)
        if dev_report.f1 > best_f1:
            best_f1 = dev_report.f1
            best_epoch = epoch
            best = current.copy()

    # the first epoch sets ``best`` (an F1 is >= 0, best_f1 starts at -1); the
    # optimizer is done with ``current``, so it is the final snapshot
    return TrainResult(params=best, final_params=current, history=history, best_epoch=best_epoch)


def _epoch_seed(seed: int, epoch: int) -> int:
    # distinct shuffle stream per epoch; assemble_batches tags with "shuffle"
    return (seed * 1_000_003 + epoch) & 0x7FFFFFFF
