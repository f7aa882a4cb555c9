"""Multi-seed experiment drivers: ablations and sampling-ratio sweeps.

The noise-robustness comparison is the sweep's ratio 0.1 and 1.0 rows: at
ratio 1.0 the sampled objective is bitwise the unsampled one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .core import bucket_relations
from .datagen import Regime
from .errors import ConfigError
from .evaluation import EvalReport, evaluate, train_fact_set
from .losses import LossConfig
from .training import TrainConfig, train

__all__ = [
    "ABLATION_VARIANTS",
    "run_ablation",
    "sweep_sampling_ratio",
]

# evaluation split -> (regime split, score against gold labels); orig_dev
# scores dev against its annotated, possibly noisy, labels
SPLITS = {
    "orig_dev": ("dev", False),
    "gold_dev": ("dev", True),
    "gold_test": ("test", True),
}


def _mean_summary(reports: Sequence[EvalReport]) -> dict[str, float]:
    keys = ("precision", "recall", "f1", "ign_f1", "head_f1", "mid_f1", "tail_f1")
    summaries = [r.summary() for r in reports]
    return {k: sum(s[k] for s in summaries) / len(summaries) for k in keys}


def _run_arms(
    regime: Regime,
    train_config: TrainConfig,
    arms: Sequence[tuple[str, LossConfig]],
    seeds: Sequence[int],
    splits: Sequence[str],
    bucket_cuts: tuple[int, int],
) -> list[tuple[str, dict]]:
    """Train every arm once per seed and score it on each named split.

    Returns ``(arm name, {"mean": {split: means}, "per_seed": {split:
    [summary per seed]}})`` in arm order. Raises ConfigError if ``seeds`` is
    empty.
    """
    if not seeds:
        raise ConfigError("experiment.seeds must name at least one seed")
    buckets = bucket_relations(regime.train.vocabulary, bucket_cuts)
    facts = train_fact_set(regime.train)
    out = []
    for name, loss_cfg in arms:
        reports: dict[str, list[EvalReport]] = {split: [] for split in splits}
        for seed in seeds:
            cfg = replace(train_config, seed=seed, loss=loss_cfg)
            params = train(regime.train, regime.dev, cfg).params
            for split in splits:
                corpus, use_gold = SPLITS[split]
                reports[split].append(
                    evaluate(params, getattr(regime, corpus), facts, buckets, use_gold=use_gold)
                )
        out.append((name, {
            "mean": {k: _mean_summary(v) for k, v in reports.items()},
            "per_seed": {k: [r.summary() for r in v] for k, v in reports.items()},
        }))
    return out


# the component-removal table in report order: each variant's name and the
# LossConfig changes that remove its components
ABLATION_VARIANTS = (
    ("full", {}),
    ("-em", {"use_entropy": False}),
    ("-scl", {"use_contrastive": False}),
    ("-both", {"use_entropy": False, "use_contrastive": False}),
)


def run_ablation(
    regime: Regime,
    train_config: TrainConfig,
    seeds: Sequence[int],
    bucket_cuts: tuple[int, int],
) -> list[dict]:
    """Train the full model and each variant of ``ABLATION_VARIANTS`` with
    shared seeds.

    Each variant is evaluated on ``gold_dev`` with head/mid/tail bucket F1.
    Returns one row per variant in table order with per-seed reports and
    metric means.
    """
    arms = [
        (name, replace(train_config.loss, **changes)) for name, changes in ABLATION_VARIANTS
    ]
    results = _run_arms(regime, train_config, arms, seeds, ("gold_dev",), bucket_cuts)
    return [
        {"variant": name, "seeds": list(seeds),
         "mean": result["mean"]["gold_dev"], "per_seed": result["per_seed"]["gold_dev"]}
        for name, result in results
    ]


def sweep_sampling_ratio(
    regime: Regime,
    train_config: TrainConfig,
    ratios: Sequence[float],
    seeds: Sequence[int],
    bucket_cuts: tuple[int, int],
) -> list[dict]:
    """One sampled-objective model per ratio, shared seeds; one metric curve per split."""
    if not ratios:
        raise ConfigError("experiment.ratios must name at least one ratio")
    arms = [
        (f"ratio={ratio}",
         replace(train_config.loss, use_neg_sampling=True, neg_sampling_ratio=ratio))
        for ratio in ratios
    ]
    results = _run_arms(regime, train_config, arms, seeds, tuple(SPLITS), bucket_cuts)
    return [
        {"ratio": ratio, "seeds": list(seeds), **result}
        for ratio, (_, result) in zip(ratios, results)
    ]

