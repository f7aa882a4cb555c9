import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel import oracle
from docrel.core import RelationVocabulary
from docrel.errors import ConfigError, ContractError, NumericError, ShapeError
from docrel.losses import (
    LossConfig,
    batch_loss,
    em_loss,
    l2_loss,
    lt_loss,
    pair_entropy,
    pairwise_probs,
    pmt_loss,
    scl_loss,
)
from docrel.batching import Batch
from docrel.rng import stream
from docrel.selftest import _examples_for, _forwards_for, _kernel, _tiny_instance

LN2 = math.log(2.0)


class TestPairwiseProbs:
    def test_symmetric_point(self):
        assert pairwise_probs(0.0, 0.0) == (0.5, 0.5)

    def test_frozen_sigmoid_values(self):
        p, q = pairwise_probs(2.0, 0.0)
        assert abs(p - 0.8807970779778823) < 1e-6
        assert abs(q - 0.1192029220221177) < 1e-6
        p, q = pairwise_probs(-3.0, 1.0)
        assert abs(p - 0.0179862099620916) < 1e-6
        assert abs(q - 0.9820137900379084) < 1e-6

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            pairwise_probs(float("nan"), 0.0)
        with pytest.raises(NumericError):
            pairwise_probs(0.0, float("inf"))

    @given(st.floats(-700, 700), st.floats(-700, 700))
    @settings(max_examples=200, deadline=None)
    def test_sum_to_one_exactly(self, f_r, f_eta):
        p, q = pairwise_probs(f_r, f_eta)
        assert p + q == 1.0
        assert 0.0 <= p <= 1.0

    def test_matches_oracle(self):
        rng = stream(0, "probs")
        for _ in range(50):
            f_r, f_eta = rng.normal(scale=5, size=2)
            p, q = pairwise_probs(float(f_r), float(f_eta))
            po, qo = oracle.probs(float(f_r), float(f_eta))
            assert abs(p - po) < 1e-12 and abs(q - qo) < 1e-12


class TestPmtLoss:
    def test_single_positive_at_tie(self):
        f = np.array([0.0, 0.0])
        assert abs(pmt_loss(f, [0], [], 1) - LN2) < 1e-12

    def test_frozen_two_sided_value(self):
        # one positive at logit 5, one negative at -5, threshold 0:
        # both sides contribute log(1 + e^-5)
        f = np.array([5.0, -5.0, 0.0])
        expected = 2 * math.log1p(math.exp(-5))
        assert abs(pmt_loss(f, [0], [1], 2) - expected) < 1e-9
        assert abs(expected - 0.0134306969782361) < 1e-10

    def test_empty_sets_give_zero(self):
        f = np.array([1.0, 2.0, 3.0])
        assert pmt_loss(f, [], [], 2) == 0.0

    def test_threshold_in_label_set_rejected(self):
        f = np.array([0.0, 0.0])
        with pytest.raises(ContractError):
            pmt_loss(f, [1], [], 1)
        with pytest.raises(ContractError):
            pmt_loss(f, [], [1], 1)

    def test_overlapping_sets_rejected(self):
        f = np.array([0.0, 0.0, 0.0])
        with pytest.raises(ContractError):
            pmt_loss(f, [0], [0], 2)

    def test_stable_at_extreme_logits(self):
        f = np.array([500.0, -500.0, 0.0])
        assert math.isfinite(pmt_loss(f, [1], [0], 2))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_monotonicity(self, data):
        # raising a positive's logit lowers the loss; same for lowering a negative's
        rng_vals = data.draw(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
        f = np.array(rng_vals)
        base = pmt_loss(f, [0], [1, 2], 3)
        up = f.copy()
        up[0] += 0.5
        assert pmt_loss(up, [0], [1, 2], 3) < base
        down = f.copy()
        down[1] -= 0.5
        assert pmt_loss(down, [0], [1, 2], 3) < base

    def test_matches_oracle(self):
        rng = stream(1, "pmt")
        for _ in range(30):
            f = rng.normal(scale=3, size=7)
            perm = rng.permutation(6)
            k = int(rng.integers(0, 7))
            pos, neg = sorted(perm[:k].tolist()), sorted(perm[k:].tolist())
            mine = pmt_loss(f, pos, neg, 6)
            ref = oracle.pmt(f, pos, neg, 6)
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


class TestPairEntropy:
    def test_maximum_at_tie(self):
        assert abs(pair_entropy(3.7, 3.7) - LN2) < 1e-12

    def test_frozen_gap_two_value(self):
        # -(sigma(2) ln sigma(2) + sigma(-2) ln sigma(-2)), computed directly
        expected = oracle.entropy(2.0, 0.0)
        assert abs(expected - 0.3653338550872078) < 1e-12
        assert abs(pair_entropy(2.0, 0.0) - expected) < 1e-12

    def test_underflow_safe_at_huge_gap(self):
        assert 0.0 <= pair_entropy(50.0, 0.0) < 1e-15
        assert 0.0 <= pair_entropy(0.0, 50.0) < 1e-15

    @given(st.floats(-40, 40), st.floats(-40, 40))
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_symmetry(self, f_r, f_eta):
        h = pair_entropy(f_r, f_eta)
        assert 0.0 <= h <= LN2 + 1e-15
        assert abs(h - pair_entropy(f_eta, f_r)) < 1e-12

    @given(st.floats(0.01, 30), st.floats(1.01, 3))
    @settings(max_examples=80, deadline=None)
    def test_strictly_decreasing_in_gap(self, gap, factor):
        assert pair_entropy(gap * factor, 0.0) < pair_entropy(gap, 0.0)


class TestEmLoss:
    def test_unit_mode_counts_every_term(self):
        f = np.zeros(6)
        cfg = LossConfig(entropy_norm="unit")
        assert abs(em_loss(f, [0, 1], [2, 3, 4], 5, cfg) - 5 * LN2) < 1e-12

    def test_set_size_mode_normalizes(self):
        f = np.zeros(6)
        cfg = LossConfig(entropy_norm="set_size")
        assert abs(em_loss(f, [0, 1], [2, 3, 4], 5, cfg) - 2 * LN2) < 1e-12

    def test_na_example_set_size(self):
        f = np.zeros(97)
        cfg = LossConfig(entropy_norm="set_size")
        assert abs(em_loss(f, [], list(range(96)), 96, cfg) - LN2) < 1e-12

    def test_empty_sets_no_division_error(self):
        f = np.array([1.0, 0.0])
        for mode in ("unit", "set_size"):
            assert em_loss(f, [], [], 1, LossConfig(entropy_norm=mode)) == 0.0


class TestSclLoss:
    def test_batch_of_two_sole_positive_is_zero(self):
        rng = stream(2, "scl")
        for tau in (0.1, 1.0, 5.0):
            emb = rng.normal(size=(2, 6))
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            assert abs(scl_loss(0, emb, frozenset({1}), tau)) < 1e-12

    def test_identical_embeddings_give_log_n_minus_1(self):
        base = np.ones(4) / 2.0
        for n in (2, 4, 7):
            emb = np.tile(base, (n, 1))
            for s_size in range(1, n):
                for tau in (0.05, 1.0, 2.0):
                    v = scl_loss(0, emb, frozenset(range(1, s_size + 1)), tau)
                    assert abs(v - math.log(n - 1)) < 1e-9

    def test_orthogonal_anchor_log3(self):
        emb = np.eye(4)
        v = scl_loss(0, emb, frozenset({1}), 1.0)
        assert abs(v - math.log(3)) < 1e-12

    def test_empty_positive_set_rejected(self):
        emb = np.eye(3)
        with pytest.raises(ContractError):
            scl_loss(0, emb, frozenset(), 1.0)

    def test_anchor_in_positives_rejected(self):
        emb = np.eye(3)
        with pytest.raises(ContractError):
            scl_loss(0, emb, frozenset({0, 1}), 1.0)

    def test_permutation_and_relabel_invariance(self):
        rng = stream(3, "sclperm")
        emb = rng.normal(size=(5, 8))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        value = scl_loss(2, emb, frozenset({0, 4}), 0.7)
        perm = np.array([4, 2, 0, 1, 3])
        inv = np.argsort(perm)
        value_p = scl_loss(int(inv[2]), emb[perm], frozenset({int(inv[0]), int(inv[4])}), 0.7)
        assert abs(value - value_p) < 1e-12

    def test_matches_oracle(self):
        rng = stream(4, "scl-oracle")
        for _ in range(25):
            n = int(rng.integers(2, 7))
            emb = rng.normal(size=(n, 5))
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            anchor = int(rng.integers(n))
            others = [i for i in range(n) if i != anchor]
            k = int(rng.integers(1, len(others) + 1))
            pos = frozenset(int(i) for i in rng.choice(others, size=k, replace=False))
            tau = float(rng.uniform(0.2, 2))
            mine = scl_loss(anchor, emb, pos, tau)
            ref = oracle.scl(anchor, emb, sorted(pos), tau)
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


class TestLtLoss:
    def test_batch_two_orthogonal_zero(self):
        assert abs(lt_loss(0, np.eye(2), 1.0)) < 1e-12

    def test_batch_three_orthogonal_ln2(self):
        assert abs(lt_loss(0, np.eye(3), 1.0) - LN2) < 1e-12

    def test_identical_pair_tau_half(self):
        emb = np.tile(np.ones(3) / math.sqrt(3), (2, 1))
        assert abs(lt_loss(0, emb, 0.5) - 2.0) < 1e-12

    def test_degenerate_batch_rejected(self):
        with pytest.raises(ContractError):
            lt_loss(0, np.ones((1, 3)), 1.0)


class TestL2Loss:
    def test_no_anchors_gives_zero(self):
        emb = np.eye(3)
        assert l2_loss((), {}, emb, 1.0) == 0.0

    def test_all_anchors_longtail(self):
        emb = np.eye(3)
        bp = (0, 1)
        s_sets = {0: frozenset(), 1: frozenset()}
        expected = lt_loss(0, emb, 1.0) + lt_loss(1, emb, 1.0)
        assert abs(l2_loss(bp, s_sets, emb, 1.0) - expected) < 1e-12

    def test_hand_built_batch_matches_oracle(self):
        rng = stream(5, "l2")
        emb = rng.normal(size=(4, 6))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        bp = (0, 1, 3)
        s_sets = {0: frozenset({1}), 1: frozenset({0, 3}), 3: frozenset()}
        mine = l2_loss(bp, s_sets, emb, 0.4)
        ref = oracle.l2(bp, s_sets, emb, 0.4)
        assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def sampled_loss(f, sampled, cfg, labels=frozenset()):
    """batch_loss of a one-example batch whose example is an NA position
    with the given sampled negative set (no contrastive part)."""
    f = np.asarray(f, dtype=float)
    batch = Batch(
        example_indices=(0,),
        bp_indices=(),
        bn_indices=(0,),
        sampled_negatives={0: tuple(sampled)},
    )
    vocab = RelationVocabulary.from_relations([f"r{k}" for k in range(f.shape[0] - 1)])
    cfg = replace(cfg, use_neg_sampling=True, use_contrastive=False)
    return batch_loss(
        _examples_for([frozenset(labels)], 0), batch, _forwards_for(f[None, :], np.zeros((1, 1))),
        vocab, cfg,
    ).total


class TestSampledNegativeLoss:
    def test_single_sample_at_tie(self):
        f = np.array([0.0, 0.0])
        cfg = LossConfig(entropy_norm="unit")
        v = sampled_loss(f, (0,), cfg)
        assert abs(v - 2 * LN2) < 1e-12

    def test_full_ratio_equals_pmt_plus_em(self):
        rng = stream(6, "sampled")
        f = rng.normal(scale=2, size=9)
        negatives = list(range(8))
        for mode in ("unit", "set_size"):
            cfg = LossConfig(entropy_norm=mode, use_contrastive=False)
            full = sampled_loss(f, negatives, cfg)
            split = _kernel([frozenset()], f[None, :], np.zeros((1, 1)), cfg).total
            assert full == split  # bitwise: the same masks and arithmetic
            terms = pmt_loss(f, [], negatives, 8) + em_loss(f, [], negatives, 8, cfg)
            assert abs(full - terms) <= 1e-12 * max(1.0, abs(terms))

    def test_frozen_single_negative_value(self):
        # -log P_eta at gap 3 plus the pairwise entropy at gap 3
        f = np.array([3.0, 0.0])
        cfg = LossConfig(entropy_norm="unit")
        expected_neg = math.log1p(math.exp(3))
        expected_ent = oracle.entropy(3.0, 0.0)
        assert abs(expected_neg - 3.0485873515737420) < 1e-10
        assert abs(expected_ent - 0.1908649711064420) < 1e-10
        v = sampled_loss(f, (0,), cfg)
        assert abs(v - (expected_neg + expected_ent)) < 1e-12

    def test_sample_outside_negative_set_rejected(self):
        f = np.array([0.0, 0.0, 0.0])
        cfg = LossConfig()
        with pytest.raises(ContractError):
            sampled_loss(f, (0,), cfg, labels={0})  # a positive of the example
        with pytest.raises(ContractError):
            sampled_loss(f, (2,), cfg)  # the threshold class

    def test_empty_sample_rejected(self):
        cfg = LossConfig()
        with pytest.raises(ContractError):
            sampled_loss(np.zeros(2), (), cfg)


def build_batch_inputs(seed, n_rel, n, sampling):
    rng = stream(seed, "batchcase")
    labels, batch, logits, emb = _tiny_instance(rng, n_rel, n, 6, sampling)
    vocab = RelationVocabulary.from_relations([f"r{k}" for k in range(n_rel)])
    return labels, batch, logits, emb, vocab


class TestBatchLoss:
    def test_pmt_only_ablation(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(7, 4, 4, False)
        cfg = LossConfig(contrastive_weight=0.0, use_entropy=False)
        out = batch_loss(
            _examples_for(labels, 6), batch, _forwards_for(logits, emb), vocab, cfg
        )
        expected = sum(
            pmt_loss(logits[i], sorted(labels[i]), sorted(set(range(4)) - labels[i]), 4)
            for i in range(4)
        )
        assert abs(out.total - expected) < 1e-12
        assert out.parts["em"] == 0.0
        assert out.parts["scl"] == 0.0 and out.parts["lt"] == 0.0

    def test_three_example_batch_matches_oracle(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(8, 3, 3, False)
        cfg = LossConfig(temperature=0.6, contrastive_weight=1.5, entropy_norm="set_size")
        out = batch_loss(
            _examples_for(labels, 6), batch, _forwards_for(logits, emb), vocab, cfg
        )
        ref = oracle.batch_total(
            labels, 3, vocab.na_index, logits, emb, batch.bp_indices, batch.s_sets,
            {}, 0.6, 1.5, "set_size",
        )
        assert abs(out.total - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_full_ratio_sampling_is_bitwise_identical(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(9, 5, 5, False)
        full_sets = {pos: tuple(range(5)) for pos in batch.bn_indices}
        from dataclasses import replace as d_replace

        batch_sampled = d_replace(batch, sampled_negatives=full_sets)
        cfg_off = LossConfig(temperature=0.5, contrastive_weight=0.7, entropy_norm="set_size")
        cfg_on = LossConfig(
            temperature=0.5, contrastive_weight=0.7, entropy_norm="set_size",
            use_neg_sampling=True, neg_sampling_ratio=1.0,
        )
        examples = _examples_for(labels, 6)
        out_off = batch_loss(examples, batch, _forwards_for(logits, emb), vocab, cfg_off)
        out_on = batch_loss(examples, batch_sampled, _forwards_for(logits, emb), vocab, cfg_on)
        assert out_on.total == out_off.total
        for a, b in zip(out_on.grad_logits, out_off.grad_logits):
            assert np.array_equal(a, b)
        for a, b in zip(out_on.grad_embeddings, out_off.grad_embeddings):
            assert np.array_equal(a, b)

    def test_parts_recombine_to_total(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(10, 4, 6, True)
        cfg = LossConfig(
            temperature=0.8, contrastive_weight=2.0, use_neg_sampling=True
        )
        out = batch_loss(
            _examples_for(labels, 6), batch, _forwards_for(logits, emb), vocab, cfg
        )
        recombined = (
            out.parts["pmt"]
            + out.parts["em"]
            + out.parts["sampled_neg"]
            + 2.0 * (out.parts["scl"] + out.parts["lt"])
        )
        assert abs(recombined - out.total) <= 1e-9 * max(1.0, abs(out.total))

    @pytest.mark.parametrize("sampling", [False, True])
    def test_training_sized_batch_matches_oracle(self, sampling):
        # 40 pairs over 32 relations, the shape of a training batch
        rng = stream(13, "large-batch", int(sampling))
        labels, batch, logits, emb = _tiny_instance(rng, 32, 40, 16, sampling)
        vocab = RelationVocabulary.from_relations([f"r{k}" for k in range(32)])
        cfg = LossConfig(
            temperature=0.5, contrastive_weight=0.7, entropy_norm="set_size",
            use_neg_sampling=sampling,
        )
        out = batch_loss(
            _examples_for(labels, 16), batch, _forwards_for(logits, emb), vocab, cfg
        )
        ref = oracle.batch_total(
            labels, 32, vocab.na_index, logits, emb, batch.bp_indices, batch.s_sets,
            batch.sampled_negatives, 0.5, 0.7, "set_size", use_neg_sampling=sampling,
        )
        assert abs(out.total - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_misaligned_forwards_rejected(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(11, 3, 3, False)
        with pytest.raises(ShapeError):
            batch_loss(
                _examples_for(labels, 6), batch, _forwards_for(logits[:-1], emb[:-1]), vocab,
                LossConfig(),
            )

    def test_logit_shift_leaves_classification_terms(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(12, 4, 4, False)
        cfg = LossConfig(contrastive_weight=0.0)
        examples = _examples_for(labels, 6)
        base = batch_loss(examples, batch, _forwards_for(logits, emb), vocab, cfg)
        shifted = batch_loss(
            examples, batch, _forwards_for(logits + 13.5, emb), vocab, cfg
        )
        assert abs(base.total - shifted.total) <= 1e-8 * max(1.0, abs(base.total))


class TestLossConfigValidation:
    def test_temperature_positive(self):
        with pytest.raises(ConfigError, match="loss.temperature"):
            LossConfig(temperature=0.0)

    def test_ratio_range(self):
        with pytest.raises(ConfigError, match="neg_sampling_ratio"):
            LossConfig(neg_sampling_ratio=0.0)
        with pytest.raises(ConfigError, match="neg_sampling_ratio"):
            LossConfig(neg_sampling_ratio=1.5)

    def test_mode_names(self):
        with pytest.raises(ConfigError):
            LossConfig(entropy_norm="bogus")
        with pytest.raises(ConfigError):
            LossConfig(resample="sometimes")
