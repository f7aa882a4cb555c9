import cProfile
import gc
import hashlib
import pstats
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from docrel import datagen
from docrel.config import synthetic_config_from
from docrel.core import LabelSource
from docrel.datagen import (
    SyntheticConfig,
    assemble_regime,
    generate_regime_splits,
    generate_synthetic_corpus,
    load_regime,
    relabel_as_na,
    save_regime,
)
from docrel.errors import ConfigError, ContractError, DataFormatError
from docrel.rng import stream

from conftest import CorpusFile, pinned


SMALL = SyntheticConfig(
    num_relations=16,
    num_documents=40,
    pairs_per_document=(6, 10),
    num_entities=60,
    kg_pairs=120,
    embedding_dim=16,
    seed=5,
)


class TestGenerator:
    def test_zero_documents_empty_corpus(self):
        corpus = generate_synthetic_corpus(replace(SMALL, num_documents=0))
        assert len(corpus.examples) == 0
        assert corpus.head_rows.shape == (0, SMALL.embedding_dim)

    def test_determinism(self):
        a = generate_synthetic_corpus(SMALL)
        b = generate_synthetic_corpus(SMALL)
        assert len(a.examples) == len(b.examples)
        for x, y in zip(a.examples, b.examples):
            assert x.positive_relations == y.positive_relations
            assert np.array_equal(x.context, y.context)

    def test_corpus_valid(self):
        corpus = generate_synthetic_corpus(SMALL)
        corpus.validate()  # no duplicate (doc, h, t) either

    def test_gold_labels_attached(self):
        corpus = generate_synthetic_corpus(SMALL)
        for ex in corpus.examples:
            assert ex.gold_positive_relations == ex.positive_relations

    def test_top10_share_in_calibrated_band(self):
        # default config targets roughly 60% of positive labels in the top 10
        corpus = generate_synthetic_corpus(SyntheticConfig(num_documents=150, seed=1))
        counts = Counter()
        for ex in corpus.examples:
            for r in ex.positive_relations:
                counts[r] += 1
        share = sum(c for _, c in counts.most_common(10)) / sum(counts.values())
        assert 0.50 <= share <= 0.70, share

    def test_na_fraction_near_target(self):
        corpus = generate_synthetic_corpus(replace(SMALL, num_documents=200))
        na = sum(1 for ex in corpus.examples if ex.is_na)
        assert abs(na / len(corpus.examples) - SMALL.na_fraction) <= 0.05

    def test_infeasible_config_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_entities=10, kg_pairs=200)
        with pytest.raises(ConfigError):
            SyntheticConfig(num_relations=2)
        with pytest.raises(ConfigError):
            SyntheticConfig(na_fraction=1.5)
        with pytest.raises(ConfigError, match="kg_pairs"):
            SyntheticConfig(kg_pairs=0)
        with pytest.raises(ConfigError, match="mentions_per_entity"):
            SyntheticConfig(mentions_per_entity=(0, 2))

    @pytest.mark.parametrize(
        "docs, key", [((0, 4, 4), "train"), ((4, 0, 4), "dev"), ((4, 4, 0), "test")]
    )
    def test_split_without_documents_rejected(self, docs, key):
        train_docs, dev_docs, test_docs = docs
        with pytest.raises(ConfigError, match=f"data.{key}_docs must be >= 1"):
            generate_regime_splits(replace(SMALL, num_documents=train_docs), dev_docs, test_docs)

    def test_splits_share_vocabulary_and_world(self):
        train, dev, test = generate_regime_splits(SMALL, 10, 10)
        assert train.vocabulary is dev.vocabulary is test.vocabulary
        # same world: entities drawn from one shared pool
        train_pairs = {(e.head_id, e.tail_id) for e in train.examples if e.positive_relations}
        dev_pairs = {(e.head_id, e.tail_id) for e in dev.examples if e.positive_relations}
        assert train_pairs & dev_pairs, "splits should share knowledge-graph facts"

    def test_generated_regime_bits_are_pinned(self):
        """Every id, label and pooled row of a small fact-noise regime with up
        to four mentions a side: bits that change here change every bundle.
        The digest is the one the rows pooled from the stored mentions gave
        when corpora kept each mention."""
        gold = generate_regime_splits(replace(SMALL, mentions_per_entity=(1, 4)), 8, 8)
        regime = assemble_regime(gold, 0.4, "OOG", seed=1, corruption="fact")
        digest = hashlib.sha256()
        for split in (regime.train, regime.dev, regime.test):
            for ex in split.examples:
                gold_labels = ex.gold_positive_relations
                digest.update(repr((ex.doc_id, ex.head_id, ex.tail_id,
                                    sorted(ex.positive_relations),
                                    None if gold_labels is None else sorted(gold_labels))).encode())
                for a in (ex.head_vectors, ex.tail_vectors, ex.context):
                    digest.update(a.tobytes())
            for name, field in (("head_rows", "head_vectors"), ("tail_rows", "tail_vectors"),
                                ("context_rows", "context")):
                rows = [getattr(ex, field) for ex in split.examples]
                assert getattr(split, name).tobytes() == np.stack(rows).tobytes()
        assert digest.hexdigest() == (
            "cbd400628a0b6ef09194801e0efab7fccebed4cd5f29724e9067e32cf285839c")


@pytest.mark.parametrize("sides_per_run", [1, 7, 10**9])
def test_pooling_runs_do_not_change_the_rows(monkeypatch, sides_per_run):
    """Sides are pooled a run at a time; a row does not depend on its run,
    and each pair gets its own head and tail rows."""
    config = replace(SMALL, num_documents=6, mentions_per_entity=(1, 4))
    expected = generate_synthetic_corpus(config)
    monkeypatch.setattr(datagen, "_POOL_SIDES", sides_per_run)
    corpus = generate_synthetic_corpus(config)
    for name in ("head_rows", "tail_rows", "context_rows"):
        assert getattr(corpus, name).tobytes() == getattr(expected, name).tobytes()
    assert not np.array_equal(corpus.head_rows, corpus.tail_rows)


def test_regime_splits_are_the_splits_generated_alone():
    """The three splits of a regime share one world, and each is bitwise
    the split that its config generates alone."""
    config = replace(SMALL, num_documents=12, mentions_per_entity=(1, 4))
    splits = generate_regime_splits(config, 5, 6)
    for split, docs, corpus in zip(("train", "dev", "test"), (12, 5, 6), splits):
        alone = generate_synthetic_corpus(replace(config, split=split, num_documents=docs))
        assert [(ex.doc_id, ex.head_id, ex.tail_id, ex.positive_relations,
                 ex.gold_positive_relations) for ex in corpus.examples] == [
            (ex.doc_id, ex.head_id, ex.tail_id, ex.positive_relations,
             ex.gold_positive_relations) for ex in alone.examples], split
        for name in ("head_rows", "tail_rows", "context_rows"):
            assert getattr(corpus, name).tobytes() == getattr(alone, name).tobytes(), split


# cProfile's Python-level calls per generated pair of ``generate_regime_splits``
# on a world of 32 relations, 30 train documents and 2 + 2 dev and test
# documents, seed 5 (411 pairs): 17.3 with NumPy 2.4 on Python 3.11, 25.5
# when the world drew each relation with ``Generator.choice``, and 62.1
# when each side's mentions were made by a per-pair function and each split
# built its own world. The bound leaves a margin of about 4.5 calls per
# pair, so per-pair Python cannot come back unseen.
GENERATE_CALLS_PER_PAIR = 22


def test_generating_a_regime_makes_few_python_calls_per_pair():
    world = SyntheticConfig(num_relations=32, num_documents=30, pairs_per_document=(8, 16), seed=5)
    generate_regime_splits(world, 2, 2)  # first calls import and cache
    profile = cProfile.Profile()
    profile.enable()
    splits = generate_regime_splits(world, 2, 2)
    profile.disable()
    pairs = sum(len(split.examples) for split in splits)
    calls = pstats.Stats(profile).total_calls
    assert pairs == 411
    assert calls / pairs <= GENERATE_CALLS_PER_PAIR, f"{calls} calls for {pairs} pairs"


def test_a_generated_split_holds_little_beside_its_rows():
    """A fresh train split of the pinned noise world (3,012 pairs, d = 32),
    once its rows, label rows and gold rows are read, holds at most 1.2
    times the bytes of its rows: its records and the two masks, about
    1.13 times, and no object per pair. Traced with tracemalloc; building a
    ``PairExample`` per pair held 2.9 times."""
    config = synthetic_config_from(pinned("noise.conf"))
    generate_synthetic_corpus(replace(config, num_documents=2))  # first calls import and cache
    gc.collect()
    tracemalloc.start()
    try:
        corpus = generate_synthetic_corpus(config)
        for name in ("head_rows", "label_rows", "gold_rows"):
            getattr(corpus, name)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = 3 * corpus.head_rows.nbytes
    assert len(corpus.examples) == 3012
    assert held <= 1.2 * rows, f"{held} bytes held, {held / rows:.2f} times its rows"


def at_rate(corpus, rate, rng):
    """An example-mode mask: each pair drawn with probability rate (a draw on
    an NA pair changes nothing)."""
    return rng.random(len(corpus.examples)) < rate


class TestInjectFalseNegatives:
    def test_rate_zero_identity(self):
        corpus = generate_synthetic_corpus(SMALL)
        out, corrupted = relabel_as_na(corpus, at_rate(corpus, 0.0, stream(0, "n")))
        assert corrupted == 0
        for a, b in zip(corpus.examples, out.examples):
            assert a.positive_relations == b.positive_relations
        assert out.label_source == LabelSource.ORIGINAL

    def test_high_rate_binomial_bounds(self):
        corpus = generate_synthetic_corpus(replace(SMALL, num_documents=300))
        positives = sum(1 for ex in corpus.examples if ex.positive_relations)
        rate = 0.9
        out, corrupted = relabel_as_na(corpus, at_rate(corpus, rate, stream(1, "n")))
        sigma = (positives * rate * (1 - rate)) ** 0.5
        assert abs(corrupted - rate * positives) <= 4 * sigma

    def test_gold_preserved_and_na_untouched(self):
        corpus = generate_synthetic_corpus(SMALL)
        out, corrupted = relabel_as_na(corpus, at_rate(corpus, 0.5, stream(2, "n")))
        assert corrupted > 0
        for before, after in zip(corpus.examples, out.examples):
            assert after.gold_positive_relations == before.positive_relations
            if before.is_na:
                assert after.is_na

    def test_positive_count_never_increases(self):
        corpus = generate_synthetic_corpus(SMALL)
        out, _ = relabel_as_na(corpus, at_rate(corpus, 0.3, stream(3, "n")))
        for before, after in zip(corpus.examples, out.examples):
            assert after.positive_relations in (before.positive_relations, frozenset())


class TestRegimes:
    def gold(self):
        return generate_regime_splits(SMALL, 10, 10)

    def test_ogg_tags(self):
        regime = assemble_regime(self.gold(), 0.4, "OGG", seed=0)
        assert regime.train.label_source == LabelSource.ORIGINAL
        assert regime.dev.label_source == LabelSource.GOLD
        assert regime.test.label_source == LabelSource.GOLD

    def test_ooo_rate_zero_matches_gold_content(self):
        gold = self.gold()
        regime = assemble_regime(gold, 0.0, "OOO", seed=0)
        for split, original in zip((regime.train, regime.dev, regime.test), gold):
            for a, b in zip(split.examples, original.examples):
                assert a.positive_relations == b.positive_relations

    def test_oog_dev_corrupted_independently(self):
        gold = self.gold()
        regime = assemble_regime(gold, 0.5, "OOG", seed=0)
        assert regime.dev.label_source == LabelSource.ORIGINAL
        assert regime.test.label_source == LabelSource.GOLD
        train_changed = [
            i for i, (a, b) in enumerate(zip(regime.train.examples, gold[0].examples))
            if a.positive_relations != b.positive_relations
        ]
        dev_changed = [
            i for i, (a, b) in enumerate(zip(regime.dev.examples, gold[1].examples))
            if a.positive_relations != b.positive_relations
        ]
        assert train_changed and dev_changed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            assemble_regime(self.gold(), 0.4, "XYZ")

    def test_fact_corruption_is_correlated_across_splits(self):
        gold = self.gold()
        regime = assemble_regime(gold, 0.5, "OOG", seed=3, corruption="fact")
        hidden_train = {
            (e.head_id, e.tail_id)
            for e, g in zip(regime.train.examples, gold[0].examples)
            if g.positive_relations and e.is_na
        }
        # every corrupted dev example's pair is also hidden in train (when it occurs there)
        train_pairs = {
            (e.head_id, e.tail_id) for e in gold[0].examples if e.positive_relations
        }
        for e, g in zip(regime.dev.examples, gold[1].examples):
            pair = (e.head_id, e.tail_id)
            if g.positive_relations and pair in train_pairs:
                assert (pair in hidden_train) == e.is_na

    def test_bundle_round_trip(self, tmp_path):
        regime = assemble_regime(self.gold(), 0.4, "OOG", seed=1)
        save_regime(regime, tmp_path / "bundle", {"noise_rate": 0.4})
        loaded = load_regime(tmp_path / "bundle")
        assert loaded.name == "OOG"
        assert len(loaded.train.examples) == len(regime.train.examples)
        for a, b in zip(loaded.train.examples, regime.train.examples):
            assert a.positive_relations == b.positive_relations
            assert a.gold_positive_relations == b.gold_positive_relations


class TestRelabelAsNa:
    def test_true_entries_on_na_pairs_change_nothing(self):
        corpus = generate_synthetic_corpus(SMALL)
        out, corrupted = relabel_as_na(corpus, corpus.na_flags.copy())
        assert corrupted == 0 and corpus.na_flags.any()
        assert out.label_rows.tobytes() == corpus.label_rows.tobytes()
        assert out.gold_rows.tobytes() == corpus.gold_rows.tobytes()
        assert out._records.has_gold.tobytes() == corpus._records.has_gold.tobytes()

    def test_relabelled_records_share_rows_ids_and_documents(self):
        corpus = generate_synthetic_corpus(SMALL)
        out, corrupted = relabel_as_na(corpus, np.ones(len(corpus.examples), bool))
        assert corrupted == (~corpus.na_flags).sum() and not out.label_rows.any()
        for name in ("rows", "ids", "doc", "doc_ids"):
            assert getattr(out._records, name) is getattr(corpus._records, name), name

    @pytest.mark.parametrize("shape", [(), (3,), (318, 1)])
    def test_mask_of_another_shape_rejected(self, shape):
        corpus = generate_synthetic_corpus(SMALL)
        assert len(corpus.examples) != 3
        with pytest.raises(ContractError, match="relabel mask of shape"):
            relabel_as_na(corpus, np.ones(shape, bool))

    @pytest.mark.parametrize("corruption", ["example", "fact"])
    @pytest.mark.parametrize("rate", [1.0, -0.1])
    def test_rate_outside_unit_interval_rejected(self, corruption, rate):
        gold = generate_regime_splits(SMALL, 4, 4)
        with pytest.raises(ConfigError, match="noise rate"):
            assemble_regime(gold, rate, "OOG", corruption=corruption)


class TestRegimeBundleFailsClosed:
    @pytest.mark.parametrize(
        "text",
        ['{"kind": "OOG"', '{"noise_rate": 0.4}', '{"kind": "custom"}', '["OOG"]'],
        ids=["garbled", "no-kind", "custom-kind", "not-an-object"],
    )
    def test_bad_regime_json(self, tmp_path, text):
        regime = assemble_regime(generate_regime_splits(SMALL, 4, 4), 0.4, "OOG")
        save_regime(regime, tmp_path)
        (tmp_path / "regime.json").write_text(text)
        with pytest.raises(DataFormatError, match=str(tmp_path / "regime.json")):
            load_regime(tmp_path)

    def test_split_with_another_vocabulary(self, tmp_path):
        regime = assemble_regime(generate_regime_splits(SMALL, 4, 4), 0.4, "OOG")
        save_regime(regime, tmp_path)

        def rename_relations(header):  # as many relations, so the bit rows still fit
            header["relations"] = [f"other {name}" for name in header["relations"]]
            header["train_frequency"] = {}

        CorpusFile(tmp_path / "dev.jsonl").edit(header=rename_relations)
        with pytest.raises(DataFormatError, match="share one relation vocabulary"):
            load_regime(tmp_path)

    def test_train_split_without_examples(self, tmp_path):
        regime = assemble_regime(generate_regime_splits(SMALL, 4, 4), 0.4, "OOG")
        save_regime(replace(regime, train=replace(regime.train, examples=())), tmp_path)
        path = tmp_path / "train.jsonl"
        with pytest.raises(DataFormatError, match=f"{path}: no train examples"):
            load_regime(tmp_path)

    def test_missing_regime_json(self, tmp_path):
        with pytest.raises(DataFormatError, match=str(tmp_path / "regime.json")):
            load_regime(tmp_path)


class TestHideFactPairs:
    def test_only_hidden_pairs_relabeled(self):
        corpus = generate_synthetic_corpus(SMALL)
        target = next(
            (e.head_id, e.tail_id) for e in corpus.examples if e.positive_relations
        )
        out, corrupted = relabel_as_na(corpus, (corpus.pair_ids == target).all(axis=1))
        assert corrupted >= 1
        for before, after in zip(corpus.examples, out.examples):
            if (before.head_id, before.tail_id) == target and before.positive_relations:
                assert after.is_na
                assert after.gold_positive_relations == before.positive_relations
            else:
                assert after.positive_relations == before.positive_relations


def reference_relabel(corpus, predicate):
    """Relabel pair by pair, as a predicate over the positive examples in
    corpus order: each relabelled pair keeps its gold set, else its label
    set, as gold."""
    examples = []
    for ex in corpus.examples:
        if ex.positive_relations and predicate(ex):
            gold = ex.positive_relations if ex.gold_positive_relations is None else (
                ex.gold_positive_relations)
            ex = replace(ex, positive_relations=frozenset(), gold_positive_relations=gold)
        examples.append(ex)
    return replace(corpus, examples=tuple(examples), label_source=LabelSource.ORIGINAL)


def reference_regime(gold_splits, noise_rate, kind, seed, corruption):
    """``assemble_regime`` pair by pair: example mode draws ``rng.random()``
    once per positive pair of an O split, and fact mode draws once per
    distinct positive (head, tail) of all splits, taken in ``sorted``
    order."""
    pairs = sorted({(ex.head_id, ex.tail_id) for split in gold_splits for ex in split.examples
                    if ex.positive_relations})
    draws = stream(seed, "noise", "facts").random(len(pairs)) < noise_rate
    hidden = {pair for pair, hide in zip(pairs, draws) if hide}
    splits = []
    for split, letter, tag in zip(gold_splits, kind, ("train", "dev", "test")):
        rng = stream(seed, "noise", tag)
        if letter == "G":
            splits.append(replace(split, label_source=LabelSource.GOLD))
        elif corruption == "fact":
            splits.append(reference_relabel(split, lambda ex: (ex.head_id, ex.tail_id) in hidden))
        else:
            splits.append(reference_relabel(split, lambda ex: rng.random() < noise_rate))
    return splits


@pytest.mark.parametrize("corruption", ["example", "fact"])
@pytest.mark.parametrize("seed, rate, kind", [(0, 0.4, "OOG"), (3, 0.15, "OOO"), (11, 0.8, "OGG")])
def test_assembled_regime_is_the_per_pair_reference(corruption, seed, rate, kind):
    """Label rows, gold rows and gold flags of every split equal, bit for
    bit, those of the per-pair reference, on gold splits where every third
    pair has no gold set and ids are negative as well as positive."""
    gold = []
    for split in generate_regime_splits(replace(SMALL, num_documents=12), 6, 6):
        examples = tuple(
            replace(ex, head_id=-1 - ex.head_id, gold_positive_relations=None) if i % 3 == 0
            else ex for i, ex in enumerate(split.examples))
        gold.append(replace(split, examples=examples))
    regime = assemble_regime(tuple(gold), rate, kind, seed=seed, corruption=corruption)
    expected = reference_regime(gold, rate, kind, seed, corruption)
    for split, reference in zip((regime.train, regime.dev, regime.test), expected, strict=True):
        assert split.label_source == reference.label_source
        assert split.label_rows.tobytes() == reference.label_rows.tobytes()
        assert split.gold_rows.tobytes() == reference.gold_rows.tobytes()
        assert split._records.has_gold.tobytes() == reference._records.has_gold.tobytes()
        assert split.pair_ids.tobytes() == reference.pair_ids.tobytes()
    assert any((s.label_rows != g.label_rows).any() for s, g in zip(expected, gold))


def test_fact_keys_sort_as_tuples_of_int64_ids():
    """``np.unique`` over (head, tail) rows orders them as ``sorted`` orders
    the tuples: negative ids first, then by head, then by tail."""
    ids = np.array([[3, -1], [-2, 5], [3, -7], [-2, -9], [2**62, 0], [-(2**63), 1], [3, -1]],
                   np.int64)
    unique, inverse = np.unique(ids, axis=0, return_inverse=True)
    assert list(map(tuple, unique.tolist())) == sorted(set(map(tuple, ids.tolist())))
    assert unique[inverse.ravel()].tolist() == ids.tolist()
