from dataclasses import replace

import numpy as np
import pytest

from docrel import oracle
from docrel.batching import (
    assemble_batches,
    attach_negative_samples,
    sample_negative_sets,
    sampled_set_size,
)
from docrel.errors import ConfigError, ContractError
from docrel.losses import LossConfig, batch_loss
from docrel.rng import stream
from docrel.selftest import _forwards_for, _unit_rows

from conftest import make_corpus


def corpus_with_docs(label_sets, docs, n_rel=6):
    return make_corpus(label_sets, n_rel=n_rel, docs_of=docs)


class TestAssembleBatches:
    def test_eight_docs_batch_four(self):
        labels = [{0}] * 8
        docs = [f"doc{i}" for i in range(8)]
        corpus = corpus_with_docs(labels, docs)
        batches = assemble_batches(corpus, 4, rng_seed=0)
        assert len(batches) == 2

    def test_same_seed_identical_composition(self):
        labels = [{i % 3} for i in range(12)]
        docs = [f"doc{i // 2}" for i in range(12)]
        corpus = corpus_with_docs(labels, docs)
        a = assemble_batches(corpus, 3, rng_seed=42)
        b = assemble_batches(corpus, 3, rng_seed=42)
        assert [(x.example_indices.dtype, x.example_indices.tobytes()) for x in a] == [
            (x.example_indices.dtype, x.example_indices.tobytes()) for x in b]
        assert all(x.example_indices.dtype == np.intp and not x.example_indices.flags.writeable
                   for x in a)

    def test_documents_stay_whole(self):
        labels = [{0}, {1}, set(), {2}, set(), {0}]
        docs = ["a", "a", "a", "b", "b", "c"]
        corpus = corpus_with_docs(labels, docs)
        for batch in assemble_batches(corpus, 2, rng_seed=1):
            seen_docs = {corpus.examples[i].doc_id for i in batch.example_indices}
            for doc in seen_docs:
                expected = [i for i, ex in enumerate(corpus.examples) if ex.doc_id == doc]
                assert set(expected) <= set(batch.example_indices)

    def test_partition_invariant(self):
        labels = [{0}, set(), {1}, set(), {2}, {0, 1}]
        docs = ["a", "a", "b", "b", "c", "c"]
        corpus = corpus_with_docs(labels, docs)
        for batch in assemble_batches(corpus, 2, rng_seed=3):
            assert set(batch.bp_indices) | set(batch.bn_indices) == set(range(len(batch)))
            assert set(batch.bp_indices) & set(batch.bn_indices) == set()

    def test_empty_corpus(self):
        assert assemble_batches(make_corpus([]), 4, rng_seed=0) == []

    def test_batch_size_validated(self):
        with pytest.raises(ConfigError):
            assemble_batches(make_corpus([{0}]), 1, rng_seed=0)

    def test_default_batch_size_is_four_documents(self):
        from docrel.training import TrainConfig

        assert TrainConfig().batch_size == 4


def contrastive_parts(label_sets, tau=0.7):
    """batch_loss's scl and lt parts over a one-document batch from
    assemble_batches, beside the oracle's over the batch's label sets.

    Returns the batch, its embeddings, the kernel parts and the oracle parts.
    """
    corpus = corpus_with_docs(label_sets, ["a"] * len(label_sets))
    batch = assemble_batches(corpus, 4, rng_seed=0)[0]
    examples = [corpus.examples[i] for i in batch.example_indices]
    labels = [ex.positive_relations for ex in examples]
    emb = _unit_rows(stream(0, "positives", len(labels)), len(labels), 5)
    logits = np.zeros((len(labels), corpus.vocabulary.num_logits))
    cfg = LossConfig(temperature=tau, use_entropy=False)
    rows = corpus.label_rows[list(batch.example_indices)]
    out = batch_loss(rows, batch, _forwards_for(logits, emb), corpus.vocabulary, cfg)
    expected = {"scl": 0.0, "lt": 0.0}
    for a in batch.bp_indices:
        positives = oracle.in_batch_positives(labels, a)
        if positives:
            expected["scl"] += oracle.scl(a, emb, positives, tau)
        else:
            expected["lt"] += oracle.lt(a, emb, tau)
    return batch, emb, {k: out.parts[k] for k in expected}, expected


def close(a, b):
    return abs(a - b) <= 1e-10 * max(1.0, abs(b))


class TestPositiveSets:
    """In-batch positives, as batch_loss derives them from the label mask."""

    def test_shared_relation_is_mutual(self):
        batch, emb, parts, expected = contrastive_parts([{3}, {3, 1}, set()])
        idx = list(batch.example_indices)
        p0, p1 = idx.index(0), idx.index(1)
        both = oracle.scl(p0, emb, [p1], 0.7) + oracle.scl(p1, emb, [p0], 0.7)
        assert close(parts["scl"], both) and close(expected["scl"], both)
        assert parts["lt"] == 0.0

    def test_unique_relation_takes_long_tail_branch(self):
        batch, emb, parts, expected = contrastive_parts([{0}, {1}, {2}])
        assert parts["scl"] == 0.0
        assert close(parts["lt"], sum(oracle.lt(a, emb, 0.7) for a in range(3)))
        assert close(parts["lt"], expected["lt"])

    def test_na_position_is_not_an_anchor(self):
        batch, emb, parts, expected = contrastive_parts([{0}, set()])
        anchor = list(batch.example_indices).index(0)
        assert batch.bp_indices.tolist() == [anchor]
        assert parts["scl"] == 0.0
        assert close(parts["lt"], oracle.lt(anchor, emb, 0.7))

    def test_five_example_brute_force(self):
        _, _, parts, expected = contrastive_parts([{0, 2}, {1}, {2}, set(), {1, 3}])
        assert close(parts["scl"], expected["scl"]) and close(parts["lt"], expected["lt"])

    def test_symmetry_property(self):
        # in a batch of two anchors, one is the other's positive exactly when
        # the other is its own: both take the scl branch (value 0) or both lt
        rng = stream(0, "sym")
        label_sets = [
            set(int(r) for r in rng.choice(6, size=rng.integers(0, 3), replace=False))
            for _ in range(10)
        ]
        labeled = [s for s in label_sets if s]
        for i, first in enumerate(labeled):
            for second in labeled[i + 1 :]:
                _, emb, parts, expected = contrastive_parts([first, second])
                both_lt = oracle.lt(0, emb, 0.7) + oracle.lt(1, emb, 0.7)
                assert parts["scl"] == 0.0
                if first & second:
                    assert parts["lt"] == 0.0
                else:
                    assert close(parts["lt"], both_lt)
                assert close(parts["lt"], expected["lt"])


class TestNegativeSampling:
    def test_sample_size_rule(self):
        assert sampled_set_size(1.0, 96) == 96
        assert sampled_set_size(0.1, 96) == 10  # 9.6 rounds half-up to 10
        assert sampled_set_size(0.5, 3) == 2  # 1.5 rounds half-up
        assert sampled_set_size(0.001, 96) == 1  # minimum one label

    def test_full_ratio_returns_every_negative(self):
        rng = stream(0, "s")
        before = rng.bit_generator.state
        sets = sample_negative_sets(5, 96, 1.0, rng)
        assert sets.shape == (5, 96)
        assert all(row == list(range(96)) for row in sets.tolist())
        assert rng.bit_generator.state == before

    def test_ratio_point_one_gives_ten(self):
        sets = sample_negative_sets(50, 96, 0.1, stream(0, "s"))
        assert sets.shape == (50, 10)
        assert np.all(np.diff(sets, axis=1) > 0)  # strictly ascending: no repeats
        assert sets.min() >= 0 and sets.max() < 96

    @pytest.mark.parametrize("ratio", [0.1, 1.0])
    def test_zero_count(self, ratio):
        sets = sample_negative_sets(0, 96, ratio, stream(0, "s"))
        assert sets.shape == (0, sampled_set_size(ratio, 96))

    def test_uniform_inclusion_frequency(self):
        # 20,000 seeded sets at ratio 0.1: every relation's inclusion count
        # within 4 sigma of the binomial expectation 20000 * 10/96. A 3-sigma
        # bound on all 96 counts fails a uniform sampler on about 1 seed in 4;
        # at 4 sigma over 20,000 draws the smallest detectable relative bias,
        # 4 / sqrt(20000), is still below 3 / sqrt(10000).
        draws = 20_000
        sets = sample_negative_sets(draws, 96, 0.1, stream(123, "uniformity"))
        counts = np.bincount(sets.ravel(), minlength=96)
        p = 10.0 / 96.0
        mean = draws * p
        sigma = (draws * p * (1 - p)) ** 0.5
        assert np.all(np.abs(counts - mean) <= 4 * sigma), counts

    def test_uniform_pair_co_inclusion(self):
        # every pair of relations is drawn together at rate k(k-1)/(R(R-1)),
        # which a sampler with correlated picks (e.g. contiguous runs) misses
        draws, n_rel, k = 20_000, 10, 3
        sets = sample_negative_sets(draws, n_rel, 0.3, stream(7, "pairs"))
        assert sets.shape == (draws, k)
        member = np.zeros((draws, n_rel), dtype=np.int64)
        np.put_along_axis(member, sets, 1, axis=1)
        together = (member.T @ member)[np.triu_indices(n_rel, 1)]
        p = k * (k - 1) / (n_rel * (n_rel - 1))
        sigma = (draws * p * (1 - p)) ** 0.5
        assert np.all(np.abs(together - draws * p) <= 4 * sigma), together

    def test_sets_covering_a_positive_rejected_by_batch_loss(self):
        # a position listed as NA must have no positives: its sampled set
        # would overlap them, and batch_loss refuses it
        corpus = corpus_with_docs([{3}, set()], ["a", "a"], n_rel=6)
        batch = assemble_batches(corpus, 4, rng_seed=0)[0]
        wrong = replace(batch, bp_indices=np.zeros(0, np.intp), bn_indices=np.arange(2))
        wrong = attach_negative_samples(wrong, corpus, 1.0, stream(0, "s"))
        rows = corpus.label_rows[list(batch.example_indices)]
        logits = np.zeros((2, corpus.vocabulary.num_logits))
        forwards = _forwards_for(logits, np.zeros((2, 1)))
        cfg = LossConfig(use_neg_sampling=True, use_contrastive=False)
        with pytest.raises(ContractError, match="outside the negative set"):
            batch_loss(rows, wrong, forwards, corpus.vocabulary, cfg)

    def test_attach_negative_samples(self):
        corpus = corpus_with_docs([{0}, set(), set()], ["a", "a", "a"], n_rel=6)
        batch = assemble_batches(corpus, 4, rng_seed=0)[0]
        out = attach_negative_samples(batch, corpus, 0.5, stream(0, "s"))
        assert set(out.sampled_negatives) == set(out.bn_indices.tolist())
        for sampled in out.sampled_negatives.values():
            assert len(sampled) == 3  # round-half-up(0.5 * 6)
        assert batch.sampled_mask is None and batch.sampled_negatives == {}  # original untouched

    def test_attached_mask_rows_are_the_drawn_sets(self):
        """Row i of the mask is row i of one ``sample_negative_sets`` draw,
        set at its indices and nowhere else; ``sampled_negatives`` reads it."""
        labels = [set(), {0}, set(), set(), {2}, set(), set()]
        corpus = corpus_with_docs(labels, ["a"] * len(labels), n_rel=9)
        batch = assemble_batches(corpus, 4, rng_seed=0)[0]
        out = attach_negative_samples(batch, corpus, 0.4, stream(3, "s"))
        sets = sample_negative_sets(len(batch.bn_indices), 9, 0.4, stream(3, "s"))
        assert out.sampled_mask.shape == (len(batch.bn_indices), 9) == (5, 9)
        for row, drawn in zip(out.sampled_mask, sets):
            assert np.flatnonzero(row).tolist() == drawn.tolist()
        expected = dict(zip(batch.bn_indices.tolist(), map(tuple, sets.tolist())))
        assert out.sampled_negatives == expected
        for name in ("example_indices", "bp_indices", "bn_indices"):
            assert getattr(out, name) is getattr(batch, name)

    def test_index_arrays_are_read_only_intp(self):
        corpus = corpus_with_docs([{0}, set(), {1}], ["a", "a", "b"])
        for batch in assemble_batches(corpus, 2, rng_seed=1):
            for indices in (batch.example_indices, batch.bp_indices, batch.bn_indices):
                assert indices.dtype == np.intp and not indices.flags.writeable
