import cProfile
import pstats
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel import core
from docrel.core import Bucket, bucket_relations, load_corpus, save_corpus
from docrel.datagen import (SyntheticConfig, assemble_regime, generate_regime_splits, load_regime,
                            save_regime)
from docrel.errors import NumericError, ShapeError
from docrel.evaluation import FactSet, evaluate, predict_labels, train_fact_set
from docrel.head import init_head_params
from docrel.rng import stream
from docrel.training import TrainConfig, train

from conftest import counting_pair_examples, make_corpus


class TestPredictLabels:
    def test_all_tied_predicts_na(self):
        f = np.zeros(5)
        assert predict_labels(f, 4) == frozenset()

    def test_strict_inequality_rule(self):
        # relations at +1 and +0.5 beat the threshold; -1 and exact tie do not
        f = np.array([1.0, -1.0, 0.5, 0.0])
        assert predict_labels(f, 3) == frozenset({0, 2})

    @given(
        st.lists(st.integers(-50_000, 50_000), min_size=2, max_size=8),
        st.integers(-1000, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, milli_logits, deci_shift):
        # logit gaps at millis scale stay well above float rounding of the shift
        f = np.array(milli_logits) / 1000.0
        shift = deci_shift / 10.0
        na = len(milli_logits) - 1
        assert predict_labels(f, na) == predict_labels(f + shift, na)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            predict_labels(np.array([np.nan, 0.0]), 1)


def perfect_params_for(corpus):
    """A head whose bias predicts exactly nothing (used with monkeypatched logits)."""
    return init_head_params(
        corpus.embedding_dim, 4, 2, corpus.vocabulary.num_logits, stream(0, "init")
    )


class FixedLogitHead:
    """Stub forward: returns preset logits per (doc, head, tail), finding
    each pair by its context row (distinct across a ``make_corpus`` corpus)."""

    def __init__(self, table, corpus):
        self.by_context = {
            ex.context.tobytes(): table[(ex.doc_id, ex.head_id, ex.tail_id)]
            for ex in corpus.examples
        }
        self.num_logits = corpus.vocabulary.num_logits

    def __call__(self, h_head, h_tail, context, params):
        from docrel.head import BatchForward

        f = np.array(
            [self.by_context[row.tobytes()] for row in context], dtype=float
        ).reshape(len(context), self.num_logits)
        zeros = np.zeros((len(context), 2))
        return BatchForward(x=zeros, x_unit=zeros, f=f)


def eval_with_logits(corpus, table, monkeypatch, **kwargs):
    import docrel.evaluation as ev

    stub = FixedLogitHead(table, corpus)
    monkeypatch.setattr(ev, "head_forward", stub)
    params = perfect_params_for(corpus)
    return ev.evaluate(params, corpus, **kwargs)


def logits_for(corpus, predicted_sets):
    """Logit table predicting exactly the given set per example."""
    table = {}
    for ex, predicted in zip(corpus.examples, predicted_sets):
        f = np.zeros(corpus.vocabulary.num_logits)
        for r in predicted:
            f[r] = 1.0
        table[(ex.doc_id, ex.head_id, ex.tail_id)] = f
    return table


class TestEvaluate:
    def test_perfect_predictions(self, monkeypatch):
        corpus = make_corpus([{0}, {1, 2}, set()])
        table = logits_for(corpus, [ex.positive_relations for ex in corpus.examples])
        report = eval_with_logits(corpus, table, monkeypatch)
        assert report.precision == report.recall == report.f1 == 1.0

    def test_no_predictions_convention(self, monkeypatch):
        corpus = make_corpus([{0}, {1}])
        table = logits_for(corpus, [set(), set()])
        report = eval_with_logits(corpus, table, monkeypatch)
        assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0

    def test_hand_built_counts_match_enumeration(self, monkeypatch):
        gold_sets = [{0}, {1, 2}, set(), {3}, {0, 3}, set()]
        pred_sets = [{0}, {1}, {2}, set(), {0, 3, 1}, set()]
        corpus = make_corpus(gold_sets)
        report = eval_with_logits(corpus, logits_for(corpus, pred_sets), monkeypatch)
        tp = sum(len(g & p) for g, p in zip(map(set, gold_sets), pred_sets))
        fp = sum(len(p - g) for g, p in zip(map(set, gold_sets), pred_sets))
        fn = sum(len(g - p) for g, p in zip(map(set, gold_sets), pred_sets))
        assert report.predicted_triple_count == tp + fp
        precision, recall = tp / (tp + fp), tp / (tp + fn)
        assert abs(report.precision - precision) < 1e-12
        assert abs(report.recall - recall) < 1e-12
        assert abs(report.f1 - 2 * precision * recall / (precision + recall)) < 1e-12

    def test_split_scored_in_blocks_counts_every_pair_once(self, monkeypatch):
        import docrel.evaluation as ev

        gold_sets = [{0}, {1, 2}, set(), {3}, {0, 3}]
        pred_sets = [{0}, {1}, {2}, set(), {0, 3, 1}]
        corpus = make_corpus(gold_sets)
        table = logits_for(corpus, pred_sets)
        whole = eval_with_logits(corpus, table, monkeypatch)
        # two pairs per block: blocks of 2, 2 and 1
        pair_dim = perfect_params_for(corpus).pair_dim
        monkeypatch.setattr(ev, "_EVAL_BLOCK_BYTES", 2 * 8 * pair_dim)
        blocked = eval_with_logits(corpus, table, monkeypatch)
        assert blocked.summary() == whole.summary()
        assert blocked.per_relation == whole.per_relation
        assert blocked.predicted_triple_count == sum(map(len, pred_sets))

    def test_per_relation_counts_match_enumeration(self, monkeypatch):
        """Each relation with a prediction or a gold label gets its (tp, fp, fn);
        r4 is predicted and never gold, r5 neither."""
        gold_sets = [{0}, {1, 2}, set(), {3}, {0, 3}, {2}]
        pred_sets = [{0}, {1, 4}, {2}, set(), {0, 3, 1}, {4}]
        corpus = make_corpus(gold_sets, n_rel=6)
        report = eval_with_logits(corpus, logits_for(corpus, pred_sets), monkeypatch)
        expected = {}
        for r in range(6):
            tp = sum(r in g and r in p for g, p in zip(gold_sets, pred_sets))
            fp = sum(r in p and r not in g for g, p in zip(gold_sets, pred_sets))
            fn = sum(r in g and r not in p for g, p in zip(gold_sets, pred_sets))
            if tp or fp or fn:
                expected[r] = (tp, fp, fn)
        assert report.per_relation == expected and 4 in expected and 5 not in expected
        assert report.gold_triple_count == sum(map(len, gold_sets))
        # micro totals: tp 4, fp 4, fn 3
        assert (report.precision, report.recall) == (4 / 8, 4 / 7)
        assert report.bucket_f1 == {Bucket.HEAD: 0.0, Bucket.MID: 0.0, Bucket.TAIL: 0.0}

    def test_micro_f1_identity(self, monkeypatch):
        corpus = make_corpus([{0, 1}, {2}, set()])
        report = eval_with_logits(
            corpus, logits_for(corpus, [{0}, {2, 3}, {1}]), monkeypatch
        )
        tp = sum(v[0] for v in report.per_relation.values())
        fp = sum(v[1] for v in report.per_relation.values())
        fn = sum(v[2] for v in report.per_relation.values())
        if 2 * tp + fp + fn:
            assert abs(report.f1 - 2 * tp / (2 * tp + fp + fn)) < 1e-12

    def test_train_fact_exclusion(self, monkeypatch):
        corpus = make_corpus([{0}, {1}])
        ex0, ex1 = corpus.examples
        facts = frozenset({(ex0.head_id, 0, ex0.tail_id)})
        table = logits_for(corpus, [{0}, {1}])
        report = eval_with_logits(corpus, table, monkeypatch, train_facts=facts)
        assert report.excluded_prediction_count == 1
        assert report.f1 == 1.0  # plain F1 unaffected
        # surviving predictions: 1 correct of gold 2
        assert abs(report.ign_f1 - 2 * (1 / 1) * (1 / 2) / (1 / 1 + 1 / 2)) < 1e-12

    def test_ign_f1_matches_a_loop_over_predicted_triples(self, monkeypatch):
        gold_sets = [{0, 1}, {2}, {0}, set(), {3}]
        pred_sets = [{0, 1, 2}, {2, 3}, {0, 1}, {1}, set()]
        corpus = make_corpus(gold_sets)
        table = logits_for(corpus, pred_sets)
        # entity pairs (0, 1), (2, 3), (6, 7) and (8, 9) are examples 0, 1, 3
        # and 4; relation 9 is outside the vocabulary
        facts = {(0, 0, 1), (0, 2, 1), (0, 9, 1), (2, 3, 3), (6, 1, 7), (8, 1, 9)}
        excluded = ign_tp = 0
        for ex, gold, predicted in zip(corpus.examples, gold_sets, pred_sets):
            for r in predicted:
                if (ex.head_id, r, ex.tail_id) in facts:
                    excluded += 1
                else:
                    ign_tp += r in gold
        precision = ign_tp / (sum(map(len, pred_sets)) - excluded)
        recall = ign_tp / sum(map(len, gold_sets))
        for given in (frozenset(facts), FactSet(facts)):
            report = eval_with_logits(corpus, table, monkeypatch, train_facts=given)
            assert report.excluded_prediction_count == excluded == 4
            assert abs(report.ign_f1 - 2 * precision * recall / (precision + recall)) < 1e-12
        unexcluded = eval_with_logits(corpus, table, monkeypatch)
        assert unexcluded.ign_f1 == unexcluded.f1 == report.f1
        assert unexcluded.excluded_prediction_count == 0

    def test_gold_vs_annotated_labels(self, monkeypatch):
        corpus = make_corpus([set()], n_rel=4)
        ex = corpus.examples[0]
        noisy = type(ex)(
            doc_id=ex.doc_id,
            head_id=ex.head_id,
            tail_id=ex.tail_id,
            head_vectors=ex.head_vectors,
            tail_vectors=ex.tail_vectors,
            context=ex.context,
            positive_relations=frozenset(),
            gold_positive_relations=frozenset({2}),
        )
        from dataclasses import replace

        noisy_corpus = replace(corpus, examples=(noisy,))
        table = logits_for(noisy_corpus, [{2}])
        gold_report = eval_with_logits(noisy_corpus, table, monkeypatch, use_gold=True)
        noisy_report = eval_with_logits(noisy_corpus, table, monkeypatch, use_gold=False)
        assert gold_report.f1 == 1.0
        assert noisy_report.f1 == 0.0

    def test_bucket_f1_micro_within_bucket(self, monkeypatch):
        corpus = make_corpus([{0}, {1}, {0, 1}], n_rel=2)
        vocab = corpus.vocabulary.with_frequencies({"r0": 10, "r1": 1})
        from dataclasses import replace

        corpus = replace(corpus, vocabulary=vocab)
        buckets = bucket_relations(vocab, (1, 1))
        table = logits_for(corpus, [{0}, set(), {0, 1}])
        report = eval_with_logits(corpus, table, monkeypatch, buckets=buckets)
        assert buckets == {0: Bucket.HEAD, 1: Bucket.TAIL}
        # r0: tp=2 fp=0 fn=0 -> F1 1; r1: tp=1 fp=0 fn=1 -> F1 2/3
        assert report.bucket_f1[Bucket.HEAD] == 1.0
        assert abs(report.bucket_f1[Bucket.TAIL] - 2 / 3) < 1e-12

    def test_empty_corpus_zero_report(self):
        corpus = make_corpus([])
        params = init_head_params(4, 4, 2, 5, stream(0, "init"))
        report = evaluate(params, corpus)
        assert report.f1 == 0.0 and report.predicted_triple_count == 0

    @pytest.mark.parametrize("num_logits", [4, 6], ids=["fewer", "more"])
    def test_head_with_wrong_logit_count_rejected(self, num_logits):
        corpus = make_corpus([{0}, set()])  # 4 relations and the threshold: 5 logits
        params = init_head_params(4, 4, 2, num_logits, stream(0, "init"))
        with pytest.raises(ShapeError, match=f"head has {num_logits} logits, corpus has 5"):
            evaluate(params, corpus)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(facts=st.frozensets(st.tuples(st.integers(-3, 5), st.integers(-1, 9), st.integers(-3, 5)),
                           max_size=20),
       pairs=st.lists(st.tuples(st.integers(-4, 6), st.integers(-4, 6)), max_size=12),
       repeats=st.lists(st.integers(0, 11), max_size=6),
       width=st.integers(0, 7))
def test_fact_set_seen_mask_is_set_membership(facts, pairs, repeats, width):
    """For every (pair, relation) cell, also for entities and relations that
    no fact holds, fact relations at or above the width (or below 0), an
    empty fact set and pairs scored more than once."""
    pairs = pairs + [pairs[k % len(pairs)] for k in repeats if pairs]
    pair_ids = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    got = FactSet(facts).seen(pair_ids, width)
    assert got.dtype == bool and got.shape == (len(pairs), width)
    assert got.tolist() == [[(head, r, tail) in facts for r in range(width)]
                            for head, tail in pairs]


class TestTrainFactSet:
    def test_facts_are_doc_agnostic(self):
        corpus = make_corpus([{0}, {1}])
        facts = train_fact_set(corpus)
        ex0, ex1 = corpus.examples
        assert (ex0.head_id, 0, ex0.tail_id) in facts
        assert (ex1.head_id, 1, ex1.tail_id) in facts
        assert len(facts) == 2


SPLITS = ("train", "dev", "test")
ARRAYS = ("label_rows", "gold_rows", "na_flags", "pair_ids")


def noisy_regime():
    """A small OOG regime (facts hidden at rate 0.4) in which every third
    pair of each split has no gold set, so its gold row is its label row."""
    world = SyntheticConfig(num_relations=12, num_documents=16, pairs_per_document=(4, 8),
                            embedding_dim=6, num_entities=30, kg_pairs=40, seed=3)
    splits = generate_regime_splits(world, dev_documents=5, test_documents=5)
    regime = assemble_regime(splits, 0.4, "OOG", seed=1, corruption="fact")
    for split in SPLITS:
        corpus = getattr(regime, split)
        examples = tuple(replace(ex, gold_positive_relations=None) if i % 3 == 0 else ex
                         for i, ex in enumerate(corpus.examples))
        regime = replace(regime, **{split: replace(corpus, examples=examples)})
    return regime


def test_loading_and_scoring_a_bundle_decodes_no_label_set(monkeypatch, tmp_path):
    """With the label-set decoders made to raise, a saved bundle loads, is
    scored with train facts and buckets, gives its arrays and trains one
    epoch, building no ``PairExample``; each array equals the in-memory
    corpus's bit for bit, and each report and the trained head equal those
    of the in-memory regime."""
    regime = noisy_regime()
    assert None in regime.train.column("gold_positive_relations")
    assert (regime.train.gold_rows != regime.train.label_rows).any()
    save_regime(regime, tmp_path)
    params = init_head_params(6, 8, 2, regime.train.vocabulary.num_logits, stream(0, "init"))
    config = TrainConfig(epochs=1, hidden_dim=8, group_count=2, seed=0)
    buckets = bucket_relations(regime.train.vocabulary, (3, 4))
    facts = train_fact_set(regime.train)
    expected = {split: getattr(regime, split) for split in SPLITS}
    arrays = {split: [getattr(corpus, name) for name in ARRAYS]
              for split, corpus in expected.items()}
    reports = {split: evaluate(params, corpus, facts, buckets)
               for split, corpus in expected.items()}
    trained = train(regime.train, regime.dev, config)

    def refuse(*args):
        raise AssertionError("decoded a label set")

    monkeypatch.setattr(core, "_bit_set", refuse)
    monkeypatch.setattr(core, "label_mask", refuse)
    with counting_pair_examples() as count:
        loaded = load_regime(tmp_path)
        assert train_fact_set(loaded.train) == facts
        for split in SPLITS:
            corpus = getattr(loaded, split)
            for name, array in zip(ARRAYS, arrays[split]):
                got = getattr(corpus, name)
                assert (got.dtype, got.shape, got.tobytes()) == (
                    array.dtype, array.shape, array.tobytes()), (split, name)
            groups = expected[split].document_groups
            assert list(corpus.document_groups) == list(groups)
            for doc, rows in corpus.document_groups.items():
                assert (rows.dtype, rows.tobytes()) == (groups[doc].dtype, groups[doc].tobytes())
            report = evaluate(params, corpus, facts, buckets)
            assert vars(report) == vars(reports[split]), split
        again = train(loaded.train, loaded.dev, config)
    assert count == [0]
    assert again.history == trained.history
    assert again.params.flat.tobytes() == trained.params.flat.tobytes()


# cProfile's Python-level calls per pair of ``load_corpus`` plus ``evaluate``
# (train facts and buckets) on one loaded split of 366 pairs: 1.41 with
# NumPy 2.4 on Python 3.11, 2.30 when loading decoded every distinct label
# bit row and Ign F1 looked up each predicted cell. The bound leaves a
# margin of about 0.4 calls per pair, so per-pair Python cannot come back
# unseen.
CALLS_PER_PAIR = 1.8


def test_loading_and_scoring_a_split_makes_few_python_calls_per_pair(tmp_path):
    world = SyntheticConfig(num_relations=32, num_documents=30, pairs_per_document=(8, 16), seed=5)
    regime = assemble_regime(generate_regime_splits(world, 2, 2), 0.4, "OGG", seed=1,
                             corruption="fact")
    path = tmp_path / "train.jsonl"
    save_corpus(regime.train, path)
    facts = train_fact_set(regime.train)
    buckets = bucket_relations(regime.train.vocabulary, (6, 16))
    params = init_head_params(32, 32, 4, 33, stream(0, "init"))
    evaluate(params, load_corpus(path), facts, buckets)  # first calls import and cache
    profile = cProfile.Profile()
    profile.enable()
    evaluate(params, load_corpus(path), facts, buckets)
    profile.disable()
    pairs = len(regime.train.examples)
    calls = pstats.Stats(profile).total_calls
    assert pairs == 366
    assert calls / pairs <= CALLS_PER_PAIR, f"{calls} calls for {pairs} pairs"
