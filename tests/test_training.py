import cProfile
import json
import pstats
from dataclasses import replace

import numpy as np
import pytest

from docrel import training
from docrel.batching import assemble_batches, attach_negative_samples, batch_count
from docrel.config import gold_splits_from, regime_from, train_config_from
from docrel.core import Corpus, LabelSource, PairExample, bucket_relations
from docrel.datagen import (
    SyntheticConfig,
    assemble_regime,
    generate_regime_splits,
    load_regime,
    save_regime,
)
from docrel.errors import ConfigError, NonFiniteLossError
from docrel.evaluation import evaluate, train_fact_set
from docrel.experiments import run_ablation, sweep_sampling_ratio
from docrel.head import init_head_params, save_checkpoint
from docrel.losses import LossConfig, batch_loss
from docrel.optim import AdamW, clip_gradients, warmup_lr
from docrel.rng import stream
from docrel.training import TrainConfig, train

from conftest import counting_pair_examples, pinned


def tiny_regime(seed=7, noise=0.0, kind="GGG", **overrides):
    kwargs = dict(
        num_relations=6,
        num_documents=20,
        pairs_per_document=(4, 7),
        num_entities=40,
        kg_pairs=60,
        embedding_dim=12,
        prototype_noise_sigma=0.3,
        seed=seed,
    )
    kwargs.update(overrides)
    splits = generate_regime_splits(SyntheticConfig(**kwargs), 6, 6)
    return assemble_regime(splits, noise, kind, seed=seed)


FAST = dict(epochs=2, hidden_dim=8, group_count=2, learning_rate=1e-2)


class TestWarmup:
    def test_linear_ramp_then_constant(self):
        lrs = [warmup_lr(1.0, step, 100, 0.1) for step in range(12)]
        assert lrs[:10] == pytest.approx([(i + 1) / 10 for i in range(10)])
        assert lrs[10] == lrs[11] == 1.0

    def test_zero_warmup(self):
        assert warmup_lr(0.5, 0, 100, 0.0) == 0.5


class TestAdamW:
    def test_decoupled_decay_moves_params_without_gradient(self):
        opt = AdamW(weight_decay=0.1)
        params = np.ones(3)
        opt.step(params, np.zeros(3), lr=0.1)
        assert np.allclose(params, 1.0 - 0.1 * 0.1 * 1.0)

    def test_descends_a_quadratic(self):
        opt = AdamW(weight_decay=0.0)
        params = np.array([5.0, -3.0])
        for _ in range(500):
            opt.step(params, 2 * params, lr=0.05)
        assert np.all(np.abs(params) < 1e-2)

    def test_vector_update_is_elementwise(self):
        # one update of a concatenated vector equals separate updates of its parts
        rng = stream(0, "adamw")
        whole = AdamW()
        parts = [AdamW(), AdamW()]
        params = rng.normal(size=7)
        split = [params[:3].copy(), params[3:].copy()]
        for _ in range(20):
            grads = rng.normal(size=7)
            whole.step(params, grads, lr=0.01)
            parts[0].step(split[0], grads[:3].copy(), lr=0.01)
            parts[1].step(split[1], grads[3:].copy(), lr=0.01)
        assert params.tobytes() == np.concatenate(split).tobytes()


    def test_matches_the_textbook_update_bit_for_bit(self):
        # each update written out as in the AdamW paper, decay decoupled
        # from zero parameters and lr 0.5, the first update is exposed bit for bit
        b1, b2, eps, wd, lr = 0.9, 0.999, 1e-8, 0.05, 0.5
        rng = stream(1, "adamw")
        opt = AdamW(beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        params = np.zeros(64)
        ref, m, v = params.copy(), np.zeros(64), np.zeros(64)
        for t in range(1, 21):
            grads = rng.normal(size=64)
            before = grads.copy()
            opt.step(params, grads, lr=lr)
            assert grads.tobytes() == before.tobytes()
            m = b1 * m + (1.0 - b1) * grads
            v = b2 * v + (1.0 - b2) * (grads * grads)
            m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
            ref = ref - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * ref)
            assert params.tobytes() == ref.tobytes(), f"step {t}"


class TestClipGradients:
    def test_vector_above_the_limit_is_scaled_to_it(self):
        grads = np.array([3.0, 0.0, -4.0])
        assert clip_gradients(grads, 1.0) == 5.0
        assert np.allclose(grads, [0.6, 0.0, -0.8], rtol=1e-15)
        assert np.linalg.norm(grads) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("grads", [np.array([0.3, -0.4]), np.array([3.0, 4.0]), np.zeros(4)],
                             ids=["below", "at", "zero"])
    def test_vector_within_the_limit_is_untouched(self, grads):
        before = grads.copy()
        assert clip_gradients(grads, 5.0) == float(np.linalg.norm(before))
        assert grads.tobytes() == before.tobytes()

    def test_clipped_run_differs_from_unclipped(self):
        regime = tiny_regime()
        cfg = TrainConfig(seed=5, **FAST)
        free = train(regime.train, regime.dev, cfg)
        clipped = train(regime.train, regime.dev, replace(cfg, grad_clip_norm=1e-3))
        assert not np.array_equal(free.final_params.flat, clipped.final_params.flat)
        loose = train(regime.train, regime.dev, replace(cfg, grad_clip_norm=1e12))
        assert loose.final_params.flat.tobytes() == free.final_params.flat.tobytes()


class TestStepCount:
    @pytest.mark.parametrize("docs", [0, 1, 3, 4, 5, 8, 9, 17])
    @pytest.mark.parametrize("batch_size", [2, 3, 4])
    def test_batch_count_equals_assembled_batches(self, docs, batch_size):
        # the warm-up schedule's step count is computed without assembling
        from conftest import make_corpus

        corpus = make_corpus([{0}] * (2 * docs), docs_of=[f"d{i // 2}" for i in range(2 * docs)])
        expected = len(assemble_batches(corpus, batch_size, rng_seed=0))
        assert batch_count(corpus, batch_size) == expected


class TestTrainLoop:
    def test_zero_steps_params_equal_initialization(self):
        regime = tiny_regime()
        empty = Corpus(
            vocabulary=regime.train.vocabulary,
            examples=(),
            label_source=LabelSource.GOLD,
            embedding_dim=regime.train.embedding_dim,
        )
        cfg = TrainConfig(seed=3, **FAST)
        result = train(empty, regime.dev, cfg)
        init = init_head_params(
            empty.embedding_dim, cfg.hidden_dim, cfg.group_count,
            empty.vocabulary.num_logits, stream(3, "init"),
        )
        assert np.array_equal(init.flat, result.final_params.flat)

    def test_given_params_are_left_alone(self):
        regime = tiny_regime()
        cfg = TrainConfig(seed=4, **FAST)
        p = init_head_params(
            regime.train.embedding_dim, cfg.hidden_dim, cfg.group_count,
            regime.train.vocabulary.num_logits, stream(9, "init"),
        )
        before = p.flat.tobytes()
        result = train(regime.train, regime.dev, cfg, params=p)
        assert p.flat.tobytes() == before
        assert result.final_params.flat.tobytes() != before
        for out in (result.params, result.final_params):
            assert not np.shares_memory(out.flat, p.flat)

    def test_separable_corpus_reaches_f1(self):
        # clean well-separated features; train F1 must reach 0.95 within 30 epochs
        regime = tiny_regime(
            seed=11, prototype_noise_sigma=0.15, num_relations=3, kg_pairs=40
        )
        cfg = TrainConfig(
            epochs=30, learning_rate=1e-2, seed=0,
            loss=LossConfig(temperature=0.5, contrastive_weight=0.1, entropy_norm="set_size"),
        )
        result = train(regime.train, regime.train, cfg)  # score on the train split
        assert result.best_dev_f1 >= 0.95, result.best_dev_f1

    def test_bitwise_deterministic_history(self):
        regime = tiny_regime()
        cfg = TrainConfig(seed=5, **FAST)
        a = train(regime.train, regime.dev, cfg)
        b = train(regime.train, regime.dev, cfg)
        assert json.dumps(a.history, sort_keys=True) == json.dumps(b.history, sort_keys=True)
        assert np.array_equal(a.params.flat, b.params.flat)

    def test_best_epoch_is_argmax_of_history(self):
        regime = tiny_regime(noise=0.3, kind="OOG")
        cfg = TrainConfig(epochs=4, hidden_dim=8, group_count=2, learning_rate=1e-2, seed=2)
        result = train(regime.train, regime.dev, cfg)
        dev_f1s = [rec["dev"]["f1"] for rec in result.history]
        assert result.history[result.best_epoch]["dev"]["f1"] == max(dev_f1s)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostics(self):
        regime = tiny_regime()
        bad = regime.train.examples[0]
        poisoned = PairExample(
            doc_id=bad.doc_id,
            head_id=bad.head_id,
            tail_id=bad.tail_id,
            head_vectors=np.full(12, np.inf),
            tail_vectors=bad.tail_vectors,
            context=bad.context,
            positive_relations=bad.positive_relations,
        )
        corrupt = replace(regime.train, examples=(poisoned,) + regime.train.examples[1:])
        cfg = TrainConfig(seed=1, **FAST)
        with pytest.raises(NonFiniteLossError) as err:
            train(corrupt, regime.dev, cfg)
        assert err.value.epoch == 0
        assert isinstance(err.value.parts, dict)

    def test_sampling_ratio_one_trains_identically_to_disabled(self):
        # loss totals, dev metrics, and parameters must match bitwise;
        # only the loss-part bookkeeping (pmt/em vs sampled_neg) may differ
        regime = tiny_regime(noise=0.4, kind="OOG")
        base = TrainConfig(seed=4, **FAST)
        off = train(regime.train, regime.dev, base)
        on = train(
            regime.train,
            regime.dev,
            replace(base, loss=LossConfig(use_neg_sampling=True, neg_sampling_ratio=1.0)),
        )
        for rec_off, rec_on in zip(off.history, on.history):
            assert rec_off["loss_total"] == rec_on["loss_total"]
            assert rec_off["dev"] == rec_on["dev"]
        assert off.best_epoch == on.best_epoch
        assert np.array_equal(off.params.flat, on.params.flat)

    def test_resample_modes_run(self, monkeypatch):
        # each batch's sampled sets, as batch_loss receives them, keyed by
        # corpus index: "once" reuses one draw, "per_epoch" draws each epoch
        # from the epoch's stream, "per_step" each batch from its own stream
        regime = tiny_regime(noise=0.4, kind="OOG")
        ratio = 0.3
        seen = []

        def recording(examples, batch, *rest):
            seen.append(batch)
            return batch_loss(examples, batch, *rest)

        monkeypatch.setattr(training, "batch_loss", recording)
        na = {i for i, ex in enumerate(regime.train.examples) if not ex.positive_relations}
        for mode in ("once", "per_epoch", "per_step"):
            cfg = TrainConfig(
                seed=6,
                loss=LossConfig(use_neg_sampling=True, neg_sampling_ratio=ratio, resample=mode),
                **FAST,
            )
            seen.clear()
            result = train(regime.train, regime.dev, cfg)
            assert len(result.history) == cfg.epochs
            per_epoch = batch_count(regime.train, cfg.batch_size)
            assert len(seen) == per_epoch * cfg.epochs
            epochs = [seen[e * per_epoch : (e + 1) * per_epoch] for e in range(cfg.epochs)]
            sets = [
                {
                    b.example_indices[pos]: s
                    for b in batches
                    for pos, s in b.sampled_negatives.items()
                }
                for batches in epochs
            ]
            assert set(sets[0]) == set(sets[1]) == na
            if mode == "once":
                assert sets[0] == sets[1]
                continue
            assert sets[0] != sets[1]
            for e, batches in enumerate(epochs):
                rng = stream(cfg.seed, "negsample", e)
                for b, batch in enumerate(batches):
                    if mode == "per_step":
                        rng = stream(cfg.seed, "negsample", e, b)
                    fresh = attach_negative_samples(batch, regime.train, ratio, rng)
                    assert fresh.sampled_negatives == batch.sampled_negatives

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_ratio=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(hidden_dim=10, group_count=4)


class TestExperimentDrivers:
    def test_run_ablation_shapes(self):
        regime = tiny_regime()
        cfg = TrainConfig(seed=0, **FAST)
        rows = run_ablation(regime, cfg, seeds=[0], bucket_cuts=(2, 2))
        assert [r["variant"] for r in rows] == ["full", "-em", "-scl", "-both"]
        for row in rows:
            assert set(row["mean"]) >= {"f1", "head_f1", "mid_f1", "tail_f1"}
            assert len(row["per_seed"]) == 1

    def test_sweep_full_ratio_equals_unsampled_metrics(self):
        regime = tiny_regime(noise=0.4, kind="OOG")
        cfg = TrainConfig(seed=0, **FAST)
        rows = sweep_sampling_ratio(regime, cfg, ratios=[1.0], seeds=[0], bucket_cuts=(2, 2))
        result = train(regime.train, regime.dev, cfg)
        report = evaluate(
            result.params,
            regime.test,
            train_fact_set(regime.train),
            bucket_relations(regime.train.vocabulary, (2, 2)),
            use_gold=True,
        )
        assert rows[0]["mean"]["gold_test"]["f1"] == report.f1


class TestLoadedBundle:
    """Scoring and training on a saved bundle build no ``PairExample`` and
    give what the in-memory corpora give, bit for bit."""

    def test_evaluate_and_train_build_no_pair_example(self, tmp_path):
        regime = tiny_regime(noise=0.4, kind="OOG")
        save_regime(regime, tmp_path)
        config = TrainConfig(seed=0, **FAST)
        params = init_head_params(12, 8, 2, regime.train.vocabulary.num_logits, stream(0, "t"))

        def run(bundle):
            splits = (bundle.train, bundle.dev, bundle.test)
            facts = train_fact_set(bundle.train)
            buckets = bucket_relations(bundle.train.vocabulary, (2, 3))
            reports = [evaluate(params, split, facts, buckets, use_gold=gold)
                       for split in splits for gold in (True, False)]
            reports = [(report.summary(), report.per_relation) for report in reports]
            return facts, reports, train(bundle.train, bundle.dev, config)

        with counting_pair_examples() as count:
            facts, reports, result = run(load_regime(tmp_path))
        assert count == [0]
        expected_facts, expected_reports, expected = run(regime)
        assert facts == expected_facts and len(facts) > 0
        assert reports == expected_reports
        assert result.history == expected.history
        for name in ("params", "final_params"):
            paths = [tmp_path / f"{name}-{k}.ckpt" for k in range(2)]
            save_checkpoint(getattr(result, name), paths[0])
            save_checkpoint(getattr(expected, name), paths[1])
            assert paths[0].read_bytes() == paths[1].read_bytes()


# cProfile's Python-level calls per training step of ``train`` over 3 epochs
# of the pinned noise regime's whole train split (150 steps of about 60
# pairs, sampling ratio 0.1, a dev evaluation per epoch): 163 with NumPy 2.4
# on Python 3.11, 329 when a batch carried its sampled sets as a dict of
# tuples and the loss rebuilt a mask from them on every step.
CALLS_PER_STEP = 250


def test_a_training_step_makes_few_python_calls():
    settings = pinned("noise.conf")
    regime = regime_from(gold_splits_from(settings), settings)
    loss = replace(train_config_from(settings).loss, use_neg_sampling=True,
                   neg_sampling_ratio=0.1, resample="per_epoch")
    config = replace(train_config_from(settings), epochs=3, loss=loss)
    train(regime.train, regime.dev, replace(config, epochs=1))  # first calls import and cache
    profile = cProfile.Profile()
    profile.enable()
    train(regime.train, regime.dev, config)
    profile.disable()
    steps = batch_count(regime.train, config.batch_size) * config.epochs
    calls = pstats.Stats(profile).total_calls
    assert steps == 150
    assert calls / steps <= CALLS_PER_STEP, f"{calls} calls for {steps} steps"
