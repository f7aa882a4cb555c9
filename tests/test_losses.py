import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel import oracle
from docrel.core import RelationVocabulary, label_mask
from docrel.errors import ConfigError, ContractError, NumericError, ShapeError
from docrel.losses import LossConfig, _negative_mask, _threshold_rows, batch_loss
from docrel.batching import Batch
from docrel.rng import stream
from docrel.selftest import (
    THRESHOLD_ONLY,
    _embedding_case,
    _forwards_for,
    _loss_case,
    _tiny_instance,
)

LN2 = math.log(2.0)


def one_row(f, positives=(), cfg=THRESHOLD_ONLY):
    """batch_loss of a one-example batch with logits ``f`` (threshold last),
    without the contrastive part."""
    f = np.asarray(f, dtype=float)[None, :]
    cfg = replace(cfg, use_contrastive=False)
    kernel, _ = _loss_case([frozenset(positives)], f, np.zeros((1, 1)), cfg)
    return kernel()


def pmt(f, positives):
    return one_row(f, positives).total


def entropy(f_r, f_eta):
    """The pairwise entropy, as the em part of one negative relation."""
    return one_row([f_r, f_eta], (), LossConfig()).parts["em"]


def em(f, positives, mode):
    return one_row(f, positives, LossConfig(entropy_norm=mode)).parts["em"]


def probs(f_r, f_eta):
    """p = sigma(f_r - f_eta) and q = sigma(f_eta - f_r), from the threshold
    gradient: -q on a label, p on a negative."""
    gap = np.full((2, 1), f_r - f_eta)
    on_label = np.array([[True], [False]])
    _, _, grad = _threshold_rows(gap, on_label, ~on_label, THRESHOLD_ONLY)
    return float(grad[1, 0]), float(-grad[0, 0])


def masked_rows(n_rel, mode):
    """Row values of a gap row with empty label and negative sets."""
    empty = np.zeros((1, n_rel), dtype=bool)
    return _threshold_rows(np.ones((1, n_rel)), empty, empty, LossConfig(entropy_norm=mode))


def anchor_parts(anchor, emb, positives, tau):
    """batch_loss's parts at contrastive weight 1 for one anchor, whose
    in-batch positives are ``positives`` (see ``_embedding_case``)."""
    kernel, _ = _embedding_case(np.asarray(emb, dtype=float), (anchor,), positives, tau)
    return kernel().parts


def scl(anchor, emb, positives, tau):
    return anchor_parts(anchor, emb, positives, tau)["scl"]


def lt(anchor, emb, tau):
    return anchor_parts(anchor, emb, (), tau)["lt"]


def l2(label_sets, emb, tau):
    """batch_loss's contrastive value at weight 1 over a batch with the given
    label sets, whose anchors are its labeled positions."""
    label_sets = [frozenset(s) for s in label_sets]
    n_rel = 1 + max((r for s in label_sets for r in s), default=0)
    bp = tuple(i for i, s in enumerate(label_sets) if s)
    cfg = LossConfig(temperature=tau, use_entropy=False)
    logits = np.zeros((len(label_sets), n_rel + 1))
    kernel, _ = _loss_case(label_sets, logits, np.asarray(emb, dtype=float), cfg, bp)
    parts = kernel().parts
    return parts["scl"] + parts["lt"]


class TestPairwiseProbs:
    def test_symmetric_point(self):
        assert probs(0.0, 0.0) == (0.5, 0.5)

    def test_frozen_sigmoid_values(self):
        p, q = probs(2.0, 0.0)
        assert abs(p - 0.8807970779778823) < 1e-6
        assert abs(q - 0.1192029220221177) < 1e-6
        p, q = probs(-3.0, 1.0)
        assert abs(p - 0.0179862099620916) < 1e-6
        assert abs(q - 0.9820137900379084) < 1e-6

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            pmt([float("nan"), 0.0], ())
        with pytest.raises(NumericError):
            pmt([0.0, float("inf")], ())

    @given(st.floats(-700, 700), st.floats(-700, 700))
    @settings(max_examples=200, deadline=None)
    def test_sum_to_one_within_an_ulp(self, f_r, f_eta):
        # p and q come from separate branches, so their sum may round by an ulp
        p, q = probs(f_r, f_eta)
        assert abs(p + q - 1.0) <= 2.0**-52
        assert 0.0 <= p <= 1.0

    def test_matches_oracle(self):
        rng = stream(0, "probs")
        for _ in range(50):
            f_r, f_eta = rng.normal(scale=5, size=2)
            p, q = probs(float(f_r), float(f_eta))
            po, qo = oracle.probs(float(f_r), float(f_eta))
            assert abs(p - po) < 1e-12 and abs(q - qo) < 1e-12


class TestPmtLoss:
    # the negatives are every relation outside the positives (N = not Y)

    def test_single_positive_at_tie(self):
        assert abs(pmt([0.0, 0.0], [0]) - LN2) < 1e-12

    def test_frozen_two_sided_value(self):
        # one positive at logit 5, one negative at -5, threshold 0:
        # both sides contribute log(1 + e^-5)
        f = np.array([5.0, -5.0, 0.0])
        expected = 2 * math.log1p(math.exp(-5))
        assert abs(pmt(f, [0]) - expected) < 1e-9
        assert abs(expected - 0.0134306969782361) < 1e-10

    def test_empty_sets_give_zero(self):
        pmt_rows, _, _ = masked_rows(2, "unit")
        assert pmt_rows[0] == 0.0

    def test_threshold_in_label_set_rejected(self):
        f = np.array([0.0, 0.0])
        with pytest.raises(ContractError):
            pmt(f, [1])
        with pytest.raises(ContractError):
            sampled_loss(f, (1,), LossConfig())

    def test_overlapping_sets_rejected(self):
        # N is the complement of Y except on sampled rows, whose sampled set
        # must stay outside the row's positives
        f = np.zeros(4)
        with pytest.raises(ContractError, match="outside the negative set"):
            sampled_loss(f, (1, 2), LossConfig(), labels={0, 1})

    def test_stable_at_extreme_logits(self):
        assert math.isfinite(pmt([500.0, -500.0, 0.0], [1]))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_monotonicity(self, data):
        # raising a positive's logit lowers the loss; same for lowering a negative's
        rng_vals = data.draw(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
        f = np.array(rng_vals)
        base = pmt(f, [0])
        up = f.copy()
        up[0] += 0.5
        assert pmt(up, [0]) < base
        down = f.copy()
        down[1] -= 0.5
        assert pmt(down, [0]) < base

    def test_matches_oracle(self):
        rng = stream(1, "pmt")
        for _ in range(30):
            f = rng.normal(scale=3, size=7)
            perm = rng.permutation(6)
            k = int(rng.integers(0, 7))
            pos, neg = sorted(perm[:k].tolist()), sorted(perm[k:].tolist())
            mine = pmt(f, pos)
            ref = oracle.pmt(f, pos, neg, 6)
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


class TestPairEntropy:
    def test_maximum_at_tie(self):
        assert abs(entropy(3.7, 3.7) - LN2) < 1e-12

    def test_frozen_gap_two_value(self):
        # -(sigma(2) ln sigma(2) + sigma(-2) ln sigma(-2)), computed directly
        expected = oracle.entropy(2.0, 0.0)
        assert abs(expected - 0.3653338550872078) < 1e-12
        assert abs(entropy(2.0, 0.0) - expected) < 1e-12

    def test_underflow_safe_at_huge_gap(self):
        assert 0.0 <= entropy(50.0, 0.0) < 1e-15
        assert 0.0 <= entropy(0.0, 50.0) < 1e-15

    @given(st.floats(-40, 40), st.floats(-40, 40))
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_symmetry(self, f_r, f_eta):
        h = entropy(f_r, f_eta)
        assert 0.0 <= h <= LN2 + 1e-15
        assert abs(h - entropy(f_eta, f_r)) < 1e-12

    @given(st.floats(0.01, 30), st.floats(1.01, 3))
    @settings(max_examples=80, deadline=None)
    def test_strictly_decreasing_in_gap(self, gap, factor):
        assert entropy(gap * factor, 0.0) < entropy(gap, 0.0)


class TestEmLoss:
    def test_unit_mode_counts_every_term(self):
        assert abs(em(np.zeros(6), [0, 1], "unit") - 5 * LN2) < 1e-12

    def test_set_size_mode_normalizes(self):
        assert abs(em(np.zeros(6), [0, 1], "set_size") - 2 * LN2) < 1e-12

    def test_na_example_set_size(self):
        assert abs(em(np.zeros(97), [], "set_size") - LN2) < 1e-12

    def test_empty_sets_no_division_error(self):
        for mode in ("unit", "set_size"):
            _, em_rows, _ = masked_rows(1, mode)
            assert em_rows[0] == 0.0


class TestSclLoss:
    def test_batch_of_two_sole_positive_is_zero(self):
        rng = stream(2, "scl")
        for tau in (0.1, 1.0, 5.0):
            emb = rng.normal(size=(2, 6))
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            assert abs(scl(0, emb, {1}, tau)) < 1e-12

    def test_identical_embeddings_give_log_n_minus_1(self):
        base = np.ones(4) / 2.0
        for n in (2, 4, 7):
            emb = np.tile(base, (n, 1))
            for s_size in range(1, n):
                for tau in (0.05, 1.0, 2.0):
                    v = scl(0, emb, range(1, s_size + 1), tau)
                    assert abs(v - math.log(n - 1)) < 1e-9

    def test_orthogonal_anchor_log3(self):
        assert abs(scl(0, np.eye(4), {1}, 1.0) - math.log(3)) < 1e-12

    def test_empty_positive_set_takes_long_tail_branch(self):
        parts = anchor_parts(0, np.eye(3), (), 1.0)
        assert parts["scl"] == 0.0
        assert abs(parts["lt"] - LN2) < 1e-12

    def test_permutation_and_relabel_invariance(self):
        rng = stream(3, "sclperm")
        emb = rng.normal(size=(5, 8))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        value = scl(2, emb, {0, 4}, 0.7)
        perm = np.array([4, 2, 0, 1, 3])
        inv = np.argsort(perm)
        value_p = scl(int(inv[2]), emb[perm], {int(inv[0]), int(inv[4])}, 0.7)
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
            mine = scl(anchor, emb, pos, tau)
            ref = oracle.scl(anchor, emb, sorted(pos), tau)
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


class TestLtLoss:
    def test_batch_two_orthogonal_zero(self):
        assert abs(lt(0, np.eye(2), 1.0)) < 1e-12

    def test_batch_three_orthogonal_ln2(self):
        assert abs(lt(0, np.eye(3), 1.0) - LN2) < 1e-12

    def test_identical_pair_tau_half(self):
        emb = np.tile(np.ones(3) / math.sqrt(3), (2, 1))
        assert abs(lt(0, emb, 0.5) - 2.0) < 1e-12

    def test_batch_of_one_has_no_contrastive_term(self):
        kernel, _ = _embedding_case(np.ones((1, 3)), (0,), {}, 1.0)
        out = kernel()
        assert out.parts["lt"] == 0.0 and out.parts["scl"] == 0.0
        assert not out.grad_embeddings.any()


class TestL2Loss:
    def test_no_anchors_gives_zero(self):
        assert l2([()] * 3, np.eye(3), 1.0) == 0.0

    def test_all_anchors_longtail(self):
        emb = np.eye(3)
        expected = lt(0, emb, 1.0) + lt(1, emb, 1.0)
        assert abs(l2([{0}, {1}, ()], emb, 1.0) - expected) < 1e-12

    def test_hand_built_batch_matches_oracle(self):
        rng = stream(5, "l2")
        emb = rng.normal(size=(5, 6))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        # anchors 0, 1 and 3 take the scl branch, anchor 4 the lt branch
        label_sets = [{0}, {0, 2}, set(), {2}, {4}]
        mine = l2(label_sets, emb, 0.4)
        ref = oracle.l2((0, 1, 3, 4), label_sets, emb, 0.4)
        assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def sampled_loss(f, sampled, cfg, labels=frozenset(), width=None):
    """batch_loss of a one-example batch whose example is an NA position
    with the given sampled negative set (no contrastive part), as a mask
    ``width`` wide (default |R|)."""
    f = np.asarray(f, dtype=float)
    vocab = RelationVocabulary.from_relations([f"r{k}" for k in range(f.shape[0] - 1)])
    batch = Batch(
        example_indices=np.zeros(1, np.intp),
        bp_indices=np.zeros(0, np.intp),
        bn_indices=np.zeros(1, np.intp),
        sampled_mask=label_mask([sampled], width or vocab.num_relations),
    )
    cfg = replace(cfg, use_neg_sampling=True, use_contrastive=False)
    mask = label_mask([labels], vocab.num_relations)
    return batch_loss(mask, batch, _forwards_for(f[None, :], np.zeros((1, 1))), vocab, cfg).total


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
            split = one_row(f, (), cfg).total
            assert full == split  # bitwise: the same masks and arithmetic
            terms = oracle.pmt(f, [], negatives, 8) + oracle.em(f, [], negatives, 8, mode)
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
        with pytest.raises(ContractError, match=r"no sampled mask of shape \(1, 2\)"):
            sampled_loss(f, (2,), cfg, width=3)  # the threshold class

    def test_empty_sample_rejected(self):
        cfg = LossConfig()
        with pytest.raises(ContractError, match="batch position 0: .* no sampled negatives"):
            sampled_loss(np.zeros(2), (), cfg)

    @staticmethod
    def three_positions(sampled, labels=(set(), {1}, set())):
        """``_negative_mask`` on positions 0 and 2 as NA, with sampled rows ``sampled``."""
        label_rows = label_mask(labels, 4)
        batch = Batch(example_indices=np.arange(3), bp_indices=np.array([1]),
                      bn_indices=np.array([0, 2]), sampled_mask=label_mask(sampled, 4))
        return _negative_mask(label_rows, batch, LossConfig(use_neg_sampling=True))

    def test_negative_mask_names_the_position_of_an_empty_row(self):
        with pytest.raises(ContractError, match="batch position 2: .* no sampled negatives"):
            self.three_positions([{0, 3}, set()])
        with pytest.raises(ContractError, match="batch position 0: .* no sampled negatives"):
            self.three_positions([set(), {1}])

    def test_negative_mask_refuses_a_sampled_positive(self):
        with pytest.raises(ContractError, match="sampled labels outside the negative set"):
            self.three_positions([{0}, {2, 3}], labels=(set(), {1}, {3}))

    def test_negative_mask_takes_the_sampled_rows(self):
        negatives, sampled_rows = self.three_positions([{0, 3}, {1}])
        assert negatives.tolist() == [[True, False, False, True], [True, False, True, True],
                                      [False, True, False, False]]
        assert sampled_rows.tolist() == [True, False, True]


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
            label_mask(labels, vocab.num_relations), batch, _forwards_for(logits, emb), vocab, cfg
        )
        expected = sum(
            oracle.pmt(logits[i], sorted(labels[i]), sorted(set(range(4)) - labels[i]), 4)
            for i in range(4)
        )
        assert abs(out.total - expected) < 1e-12
        assert out.parts["em"] == 0.0
        assert out.parts["scl"] == 0.0 and out.parts["lt"] == 0.0

    def test_three_example_batch_matches_oracle(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(8, 3, 3, False)
        cfg = LossConfig(temperature=0.6, contrastive_weight=1.5, entropy_norm="set_size")
        out = batch_loss(
            label_mask(labels, vocab.num_relations), batch, _forwards_for(logits, emb), vocab, cfg
        )
        ref = oracle.batch_total(
            labels, 3, vocab.na_index, logits, emb, batch.bp_indices, {}, 0.6, 1.5, "set_size",
        )
        assert abs(out.total - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_full_ratio_sampling_is_bitwise_identical(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(9, 5, 5, False)
        full_sets = np.ones((len(batch.bn_indices), 5), dtype=bool)
        batch_sampled = replace(batch, sampled_mask=full_sets)
        cfg_off = LossConfig(temperature=0.5, contrastive_weight=0.7, entropy_norm="set_size")
        cfg_on = LossConfig(
            temperature=0.5, contrastive_weight=0.7, entropy_norm="set_size",
            use_neg_sampling=True, neg_sampling_ratio=1.0,
        )
        mask = label_mask(labels, vocab.num_relations)
        out_off = batch_loss(mask, batch, _forwards_for(logits, emb), vocab, cfg_off)
        out_on = batch_loss(mask, batch_sampled, _forwards_for(logits, emb), vocab, cfg_on)
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
            label_mask(labels, vocab.num_relations), batch, _forwards_for(logits, emb), vocab, cfg
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
            label_mask(labels, vocab.num_relations), batch, _forwards_for(logits, emb), vocab, cfg
        )
        ref = oracle.batch_total(
            labels, 32, vocab.na_index, logits, emb, batch.bp_indices,
            batch.sampled_negatives, 0.5, 0.7, "set_size", use_neg_sampling=sampling,
        )
        assert abs(out.total - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_misaligned_forwards_rejected(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(11, 3, 3, False)
        with pytest.raises(ShapeError):
            batch_loss(
                label_mask(labels, vocab.num_relations), batch,
                _forwards_for(logits[:-1], emb[:-1]), vocab, LossConfig(),
            )

    def test_logit_shift_leaves_classification_terms(self):
        labels, batch, logits, emb, vocab = build_batch_inputs(12, 4, 4, False)
        cfg = LossConfig(contrastive_weight=0.0)
        mask = label_mask(labels, vocab.num_relations)
        base = batch_loss(mask, batch, _forwards_for(logits, emb), vocab, cfg)
        shifted = batch_loss(
            mask, batch, _forwards_for(logits + 13.5, emb), vocab, cfg
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
