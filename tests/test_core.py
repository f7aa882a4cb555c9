import hashlib
import json
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel import core
from docrel.batching import Batch, attach_negative_samples
from docrel.core import (
    Bucket,
    Corpus,
    LabelSource,
    PairExample,
    RelationVocabulary,
    bucket_relations,
    label_mask,
    load_corpus,
    logsumexp_pool,
    save_corpus,
)
from docrel.errors import ConfigError, DataFormatError, DocrelError, ShapeError
from docrel.evaluation import evaluate
from docrel.head import init_head_params
from docrel.losses import LossConfig, _negative_mask
from docrel.rng import stream

from conftest import (FORMAT_2_FILE, FORMAT_3_FILE, FORMAT_4_FILE, CorpusFile, counting_pair_examples,
                      make_corpus, make_example)


class TestRelationVocabulary:
    def test_logit_dimension(self):
        v = RelationVocabulary.from_relations(["a", "b", "c"])
        assert v.num_relations == 3
        assert v.na_index == 3
        assert v.num_logits == 4

    def test_duplicate_relations_rejected(self):
        with pytest.raises(ConfigError):
            RelationVocabulary.from_relations(["a", "a"])

    def test_na_index_must_follow_relations(self):
        with pytest.raises(ConfigError):
            RelationVocabulary(("a", "b"), na_index=1)

    def test_frequency_keys_validated(self):
        with pytest.raises(ConfigError):
            RelationVocabulary.from_relations(["a"], {"zzz": 3})
        with pytest.raises(ConfigError):
            RelationVocabulary.from_relations(["a"], {"a": -1})


class TestPairIndex:
    """A pair's index is its (doc_id, head_id, tail_id): ``validate`` and
    ``save_corpus`` refuse one that repeats, naming the later example."""

    def test_empty_corpus(self, tmp_path):
        corpus = make_corpus([])
        corpus.validate()
        save_corpus(corpus, tmp_path / "c.jsonl")
        assert len(load_corpus(tmp_path / "c.jsonl").examples) == 0

    def test_three_distinct_pairs(self, tmp_path):
        corpus = make_corpus([{0}, {1}, set()])
        corpus.validate()
        save_corpus(corpus, tmp_path / "c.jsonl")
        assert len(load_corpus(tmp_path / "c.jsonl").examples) == 3

    def test_round_trip(self, small_corpus, tmp_path):
        # one pair in two documents is two pairs
        examples = (*small_corpus.examples, replace(small_corpus.examples[1], doc_id="doc2"))
        corpus = replace(small_corpus, examples=examples)
        corpus.validate()
        save_corpus(corpus, tmp_path / "c.jsonl")
        loaded = load_corpus(tmp_path / "c.jsonl")
        assert [(ex.doc_id, ex.head_id, ex.tail_id) for ex in loaded.examples] == [
            (ex.doc_id, ex.head_id, ex.tail_id) for ex in examples]

    def test_duplicate_triple_rejected(self, tmp_path):
        vocab = RelationVocabulary.from_relations(["r0", "r1"])
        examples = (make_example("d", 1, 2, {0}, dim=4), make_example("e", 1, 2, {0}, dim=4),
                    make_example("d", 1, 2, {1}, dim=4))
        corpus = Corpus(vocab, examples, LabelSource.GOLD, 4)
        message = "example 2: duplicate entity pair: doc='d' head=1 tail=2"
        with pytest.raises(DataFormatError, match=f"^{message}$"):
            corpus.validate()
        with pytest.raises(DataFormatError, match=f"c.jsonl: cannot save corpus: {message}$"):
            save_corpus(corpus, tmp_path / "c.jsonl")
        assert not (tmp_path / "c.jsonl").exists()


class TestBuckets:
    def test_docred_sized_cuts(self):
        freq = {f"r{k}": 1000 - k for k in range(96)}
        v = RelationVocabulary.from_relations([f"r{k}" for k in range(96)], freq)
        buckets = bucket_relations(v, (10, 20))
        sizes = {b: sum(1 for x in buckets.values() if x == b) for b in Bucket}
        assert sizes == {Bucket.HEAD: 10, Bucket.MID: 66, Bucket.TAIL: 20}

    def test_tie_broken_by_index(self):
        v = RelationVocabulary.from_relations(["a", "b", "c"], {"a": 5, "b": 5, "c": 1})
        buckets = bucket_relations(v, (1, 1))
        assert buckets == {0: Bucket.HEAD, 1: Bucket.MID, 2: Bucket.TAIL}

    def test_cuts_exceeding_vocabulary(self):
        v = RelationVocabulary.from_relations([f"r{k}" for k in range(96)])
        with pytest.raises(ConfigError):
            bucket_relations(v, (96, 20))

    @given(
        n=st.integers(3, 40),
        head=st.integers(0, 15),
        tail=st.integers(0, 15),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_relation_bucketed_once(self, n, head, tail, data):
        if head + tail > n:
            return
        freqs = data.draw(
            st.lists(st.integers(0, 50), min_size=n, max_size=n)
        )
        v = RelationVocabulary.from_relations(
            [f"r{k}" for k in range(n)], {f"r{k}": f for k, f in enumerate(freqs)}
        )
        buckets = bucket_relations(v, (head, tail))
        assert set(buckets) == set(range(n))
        sizes = {b: sum(1 for x in buckets.values() if x == b) for b in Bucket}
        assert sizes[Bucket.HEAD] == head
        assert sizes[Bucket.TAIL] == tail
        assert sizes[Bucket.MID] == n - head - tail


class TestPartition:
    """A pair's negatives come from one route, the loss kernel's negative mask N."""

    @staticmethod
    def negative_mask(corpus, config, sample_rng=None):
        na = np.array([corpus.examples[0].is_na])
        batch = Batch(example_indices=np.zeros(1, np.intp), bp_indices=np.flatnonzero(~na),
                      bn_indices=np.flatnonzero(na))
        if sample_rng is not None:
            batch = attach_negative_samples(batch, corpus, config.neg_sampling_ratio, sample_rng)
        n_rel = corpus.vocabulary.num_relations
        labels = label_mask([corpus.examples[0].positive_relations], n_rel)
        return labels, _negative_mask(labels, batch, config)[0]

    @given(st.sets(st.integers(0, 9), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_positives_negatives_partition(self, labels):
        positives, negatives = self.negative_mask(make_corpus([labels], n_rel=10), LossConfig())
        assert np.all(positives | negatives)
        assert not np.any(positives & negatives)

    def test_na_example_has_all_relations_negative(self):
        corpus = make_corpus([set()], n_rel=7)
        assert corpus.examples[0].is_na
        _, negatives = self.negative_mask(corpus, LossConfig())
        assert negatives.tolist() == [[True] * 7]
        # a sample at ratio 1.0 is every relation too
        sampling = LossConfig(use_neg_sampling=True, neg_sampling_ratio=1.0)
        _, sampled = self.negative_mask(corpus, sampling, np.random.default_rng(0))
        assert sampled.tolist() == [[True] * 7]


# sha256 of the corpus file that test_saved_bytes_are_pinned saves, and of
# its payload, the bytes after the record arrays: the pooled head, pooled tail
# and context rows of each record, the rows that corpora pooled from format
# 4's stored mentions
PINNED_SHA256 = "5f30962cae4bdb5e7d3597e91b1a37d19c9fed3e7fc0b676a6edadcf5e87ce95"
PINNED_PAYLOAD_SHA256 = "d06aee7c3d0b797c5f4872854c2b99efa1200c4edef746dbe8133f1c7fd37661"


class TestSerialization:
    def test_round_trip(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        loaded = load_corpus(path)
        loaded.validate()
        assert loaded.label_source == small_corpus.label_source
        assert loaded.vocabulary.relations == small_corpus.vocabulary.relations
        assert len(loaded.examples) == len(small_corpus.examples)
        for a, b in zip(small_corpus.examples, loaded.examples):
            assert a.positive_relations == b.positive_relations
            assert a.gold_positive_relations == b.gold_positive_relations
            assert np.array_equal(a.context, b.context)
            for ma, mb in zip(a.head_mentions, b.head_mentions):
                assert ma.entity_id == mb.entity_id
                assert np.array_equal(ma.embedding, mb.embedding)

    def test_saving_twice_gives_identical_bytes(self, small_corpus, tmp_path):
        first, second, again = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
        save_corpus(small_corpus, first)
        save_corpus(small_corpus, second)
        save_corpus(load_corpus(first), again)
        assert first.read_bytes() == second.read_bytes() == again.read_bytes()

    def test_saved_bytes_are_pinned(self, tmp_path):
        """The corpus file format: bytes that change here change every bundle."""
        vocab = RelationVocabulary.from_relations(["P17", "P131"], {"P17": 2, "P131": 1})
        rows = np.arange(-4.0, 6.0).reshape(5, 2) / 3
        examples = (
            PairExample("d0", 0, 1, logsumexp_pool(rows[:2]), logsumexp_pool(rows[2:3]), rows[3],
                        frozenset({1, 0}), frozenset({0})),
            PairExample("d1", 1, 0, logsumexp_pool(rows[4:]), logsumexp_pool(rows[:1]),
                        np.array([-0.0, 5e-324]), frozenset(), None),
        )
        path = tmp_path / "pinned.jsonl"
        corpus = Corpus(vocab, examples, LabelSource.SYNTHETIC, 2)
        save_corpus(corpus, path)
        data = path.read_bytes()
        assert data == reference_bytes(corpus)
        assert hashlib.sha256(data).hexdigest() == PINNED_SHA256
        assert hashlib.sha256(data[-96:]).hexdigest() == PINNED_PAYLOAD_SHA256  # 6 rows of 2

    @pytest.mark.parametrize("every", [False, True],
                             ids=["one-example-5-wide", "every-example-5-wide"])
    def test_save_refuses_vectors_of_the_wrong_width(self, small_corpus, tmp_path, every):
        """Caught before the file is opened, naming the first example: a
        file already there stays as it was."""
        wide = {"head_vectors": np.ones(5), "tail_vectors": np.ones(5), "context": np.ones(5)}
        examples = tuple(replace(ex, **wide) if every or i == 0 else ex
                         for i, ex in enumerate(small_corpus.examples))
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"an earlier corpus")
        message = (r"corpus\.jsonl: cannot save corpus: example 0: head_vectors of shape "
                   r"\(5,\), expected \(4,\)$")
        with pytest.raises(DataFormatError, match=message):
            save_corpus(replace(small_corpus, examples=examples), path)
        assert path.read_bytes() == b"an earlier corpus"

    @pytest.mark.parametrize(
        "field, value, message",
        [("head_id", np.int64(6), r"id or label np\.int64\(6\) is not an integer"),
         ("positive_relations", frozenset({True}), "id or label True is not an integer"),
         ("gold_positive_relations", frozenset({np.int32(1)}),
          r"id or label np\.int32\(1\) is not an integer"),
         ("doc_id", 3, "doc_id 3 is not a string"),
         ("positive_relations", {0}, r"label sets \(\{0\},.*\) are not frozensets"),
         ("head_id", 2**63, "id 9223372036854775808 does not fit in int64"),
         ("context", np.array(["a", "b", "c", "d"]), "context of dtype <U1 does not hold real "
                                                      "numbers")],
        ids=["numpy-int-id", "true-label", "numpy-int-gold-label", "int-doc-id", "set-labels",
             "id-past-int64", "text-context"],
    )
    def test_save_refuses_what_load_would_not_give_back(self, small_corpus, tmp_path, field,
                                                        value, message):
        """Caught before the file is opened, naming the example."""
        examples = list(small_corpus.examples)
        examples[3] = replace(examples[3], **{field: value})
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"an earlier corpus")
        with pytest.raises(DataFormatError, match=f"{path}: cannot save corpus: example 3: "
                                                  f"{message}"):
            save_corpus(replace(small_corpus, examples=tuple(examples)), path)
        assert path.read_bytes() == b"an earlier corpus"

    @pytest.mark.parametrize(
        "changes, message",
        [({"head_vectors": np.zeros(0)}, "example 3: head_vectors of shape (0,), expected (4,)"),
         ({"tail_id": 6}, "example 3: head_id == tail_id == 6"),
         ({"positive_relations": frozenset({0, 4})}, "example 3: relation index 4 out of range"),
         ({"positive_relations": frozenset({-1})}, "example 3: relation index -1 out of range"),
         ({"gold_positive_relations": frozenset({9})}, "example 3: relation index 9 out of range"),
         ({"context": np.array([0.0, np.nan, 0.0, 0.0])},
          "example 3: non-finite value in the context"),
         ({"tail_vectors": np.array([0.0, np.inf, 0.0, 0.0])},
          "example 3: non-finite value in the tail row"),
         ({"doc_id": "doc1", "head_id": 2, "tail_id": 3},
          "example 3: duplicate entity pair: doc='doc1' head=2 tail=3")],
        ids=["no-head-mentions", "head-is-tail", "label-past-relations", "negative-label",
             "gold-label-past-relations", "nan-in-context", "inf-in-a-mention", "repeated-pair"],
    )
    def test_save_refuses_what_load_refuses(self, small_corpus, tmp_path, changes, message):
        """Caught before the file is opened, naming the example: a file
        already there stays as it was."""
        examples = list(small_corpus.examples)
        examples[3] = replace(examples[3], **changes)
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"an earlier corpus")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}: cannot save corpus: {message}") + "$"):
            save_corpus(replace(small_corpus, examples=tuple(examples)), path)
        assert path.read_bytes() == b"an earlier corpus"

    def test_validate_catches_bad_labels(self):
        from docrel.errors import DocrelError

        bad = make_corpus([{9}], n_rel=4)
        with pytest.raises(DocrelError):
            bad.validate()

    @pytest.mark.parametrize(
        "field, value, error",
        [("head_vectors", np.zeros(3), ShapeError),
         ("tail_vectors", np.zeros((2, 5)), ShapeError),
         ("head_vectors", np.zeros((1, 4)), ShapeError),
         ("head_vectors", np.zeros(0), ShapeError),
         ("tail_vectors", np.array([0.0, np.inf, 0.0, 0.0]), DataFormatError),
         ("context", np.array([0.0, np.nan, 0.0, 0.0]), DataFormatError)],
        ids=["1-d-side", "wrong-width", "mention-stack", "no-mentions", "inf-in-a-mention",
             "nan-in-context"],
    )
    def test_validate_catches_bad_vectors(self, small_corpus, field, value, error):
        examples = list(small_corpus.examples)
        examples[3] = replace(examples[3], **{field: value})
        with pytest.raises(error, match="example 3: "):
            replace(small_corpus, examples=tuple(examples)).validate()

    @pytest.mark.parametrize("field", ["head_vectors", "tail_vectors", "context"])
    def test_vectors_that_are_not_arrays_are_refused(self, small_corpus, tmp_path, field):
        """``validate`` names the example and the field; save refuses the
        same before the file is opened."""
        examples = list(small_corpus.examples)
        examples[3] = replace(examples[3], **{field: getattr(examples[3], field).tolist()})
        corpus = replace(small_corpus, examples=tuple(examples))
        message = f"example 3: {field} is a list, not a NumPy array$"
        with pytest.raises(DataFormatError, match=message):
            corpus.validate()
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"an earlier corpus")
        with pytest.raises(DataFormatError, match=f"cannot save corpus: {message}"):
            save_corpus(corpus, path)
        assert path.read_bytes() == b"an earlier corpus"

    def test_mention_views_are_rows_of_the_side_arrays(self, small_corpus):
        # a side is one pooled row, and its one Mention holds that row
        ex = small_corpus.examples[1]
        for views, row, entity in ((ex.head_mentions, ex.head_vectors, ex.head_id),
                                   (ex.tail_mentions, ex.tail_vectors, ex.tail_id)):
            (view,) = views
            assert view.entity_id == entity
            assert view.embedding is row


CACHED = ("head_rows", "tail_rows", "context_rows", "label_rows", "gold_rows", "na_flags",
          "pair_ids", "document_groups")


def mention_stacks(seed=0, pairs=40, dim=3):
    """Each pair's head and tail mention stacks, 1 to 4 mentions a side."""
    rng = np.random.default_rng(seed)
    return [[rng.normal(scale=5, size=(int(rng.integers(1, 5)), dim)) for _ in range(2)]
            for _ in range(pairs)]


def mention_corpus(seed=0, pairs=40, dim=3):
    """A corpus whose sides pool 1 to 4 mentions, over several documents."""
    rng = np.random.default_rng(seed + 1)
    examples = tuple(
        PairExample(f"doc{i % 7}", 2 * i, 2 * i + 1, logsumexp_pool(head), logsumexp_pool(tail),
                    rng.normal(size=dim), frozenset({i % 3} if i % 2 else ()),
                    None if i % 4 == 1 else frozenset({(i + 1) % 3}))
        for i, (head, tail) in enumerate(mention_stacks(seed, pairs, dim))
    )
    return Corpus(RelationVocabulary.from_relations(["a", "b", "c"]), examples,
                  LabelSource.ORIGINAL, dim)


class TestCorpusCache:
    """The per-corpus derived arrays that training and evaluation read."""

    # every side pooled in one kernel call, or two sides a call
    @pytest.mark.parametrize("run", [80, 2], ids=["default-runs", "two-row-runs"])
    def test_pooled_rows_are_logsumexp_pool_bitwise(self, run):
        """A side pooled at the source with the others of its corpus, as the
        generators pool, is ``logsumexp_pool`` of its stack, bit for bit; the
        corpus's rows are its examples' rows."""
        sides = [side for pair in mention_stacks() for side in pair]
        runs = [sides[k : k + run] for k in range(0, len(sides), run)]
        pooled = np.concatenate([core._segment_lse(np.concatenate(r), [len(s) for s in r])
                                 for r in runs])
        for side, row in zip(sides, pooled, strict=True):
            assert row.tobytes() == logsumexp_pool(side).tobytes()
        corpus = mention_corpus()
        assert corpus.head_rows.tobytes() == pooled[0::2].tobytes()
        assert corpus.tail_rows.tobytes() == pooled[1::2].tobytes()
        for i, ex in enumerate(corpus.examples):
            assert corpus.context_rows[i].tobytes() == ex.context.tobytes()

    def test_label_rows_and_gold_rows_are_the_label_masks(self):
        corpus = mention_corpus()
        examples = corpus.examples
        assert any(ex.gold_positive_relations is None for ex in examples)
        assert np.array_equal(corpus.label_rows,
                              label_mask([ex.positive_relations for ex in examples], 3))
        gold = [ex.positive_relations if ex.gold_positive_relations is None
                else ex.gold_positive_relations for ex in examples]
        assert np.array_equal(corpus.gold_rows, label_mask(gold, 3))
        assert corpus.na_flags.tolist() == [ex.is_na for ex in examples]

    def test_document_groups_keep_first_appearance_order(self):
        corpus = mention_corpus()
        assert corpus.document_order() == [f"doc{k}" for k in range(7)]
        groups = corpus.document_groups
        assert groups["doc2"].tolist() == [i for i in range(40) if i % 7 == 2]

    def test_replaced_copy_derives_arrays_of_its_own(self):
        corpus = mention_corpus()
        first = [getattr(corpus, name) for name in CACHED]
        part = replace(corpus, examples=corpus.examples[:5])
        for name, array in zip(CACHED, first):
            assert getattr(corpus, name) is array
            assert len(getattr(part, name)) == 5 < len(array), name
        assert part.head_rows.tobytes() == corpus.head_rows[:5].tobytes()

    def test_replaced_copy_of_a_loaded_corpus_pools_its_own_examples(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(mention_corpus(), path)
        loaded = load_corpus(path)
        part = replace(loaded, examples=loaded.examples[::-3])
        assert part.pair_ids[:, 0].tolist() == [ex.head_id for ex in loaded.examples[::-3]]
        for name in ("head_rows", "tail_rows", "context_rows"):
            assert getattr(part, name).tobytes() == getattr(loaded, name)[::-3].tobytes()

    def test_loaded_corpus_under_more_relations_encodes_its_examples(self, tmp_path):
        """Under a vocabulary of 9 relations, a loaded 3-relation corpus's
        bit rows are too narrow, so its records are encoded from its
        examples: its arrays and its saved file are the in-memory corpus's."""
        path, again, wide = tmp_path / "c.jsonl", tmp_path / "again.jsonl", tmp_path / "w.jsonl"
        corpus = mention_corpus()
        save_corpus(corpus, path)
        vocabulary = RelationVocabulary.from_relations("abcdefghi")
        in_memory = replace(corpus, vocabulary=vocabulary)
        loaded = replace(load_corpus(path), vocabulary=vocabulary)
        assert derived_arrays(loaded) == derived_arrays(in_memory)
        assert loaded.label_rows.shape == (40, 9)
        save_corpus(loaded, again)
        save_corpus(in_memory, wide)
        assert again.read_bytes() == wide.read_bytes()
        assert [ex.positive_relations for ex in load_corpus(again).examples] == [
            ex.positive_relations for ex in corpus.examples]

    @pytest.mark.parametrize(
        "changes",
        [{"vocabulary": RelationVocabulary.from_relations(["a", "b", "c"], {"b": 2})},
         {"label_source": LabelSource.GOLD}],
        ids=["vocabulary", "label-source"],
    )
    def test_replaced_labels_of_a_loaded_corpus_derive_from_its_columns(self, changes, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(mention_corpus(), path)
        loaded = load_corpus(path)
        with counting_pair_examples() as count:
            copy = replace(loaded, **changes)
            derived = [(getattr(copy, name), getattr(loaded, name)) for name in CACHED]
        assert count == [0]
        for name, (array, own) in zip(CACHED[:-1], derived):
            assert array is not own
            assert (array.dtype, array.shape, array.tobytes()) == (
                own.dtype, own.shape, own.tobytes()), name
        groups, own_groups = derived[-1]
        assert list(groups) == list(own_groups)
        for doc, rows in groups.items():
            assert (rows.dtype, rows.tobytes()) == (own_groups[doc].dtype,
                                                    own_groups[doc].tobytes())

    def test_cached_arrays_are_read_only(self):
        corpus = mention_corpus()
        for name in CACHED[:-1]:
            with pytest.raises(ValueError, match="read-only"):
                getattr(corpus, name)[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            corpus.document_groups["doc0"][0] = 5

    @pytest.mark.parametrize("field", ["head_vectors", "tail_vectors", "context"])
    def test_loaded_vectors_are_read_only(self, tmp_path, field):
        """A loaded pair's vectors cannot drift from the rows derived from them."""
        path = tmp_path / "c.jsonl"
        save_corpus(mention_corpus(), path)
        loaded = load_corpus(path)
        derived = [getattr(loaded, name).tobytes() for name in CACHED[:3]]
        with pytest.raises(ValueError, match="read-only"):
            getattr(loaded.examples[0], field)[0] += 100
        assert [getattr(loaded, name).tobytes() for name in CACHED[:3]] == derived

    def test_building_or_loading_a_corpus_derives_nothing(self, monkeypatch, tmp_path):
        path = tmp_path / "c.jsonl"
        built = mention_corpus()
        save_corpus(built, path)
        built = replace(built, examples=built.examples)

        def refuse(*args):
            raise AssertionError("pooled or derived while building a corpus")

        for name in ("_segment_lse", "_encoded", "label_mask"):
            monkeypatch.setattr(core, name, refuse)
        with counting_pair_examples() as count:
            loaded = load_corpus(path)
        assert count == [0]
        for corpus in (built, loaded, replace(loaded, examples=loaded.examples[:3])):
            assert not set(CACHED) & set(vars(corpus))

    def test_scoring_a_loaded_split_pools_nothing(self, monkeypatch, tmp_path):
        """Its pooled and context rows are read-only views of the payload."""
        path = tmp_path / "c.jsonl"
        built = mention_corpus()
        save_corpus(built, path)
        params = init_head_params(3, 4, 2, built.vocabulary.num_logits, stream(0, "init"))
        expected = evaluate(params, built).summary()

        def refuse(*args):
            raise AssertionError("pooled or stacked a loaded split")

        monkeypatch.setattr(core, "_segment_lse", refuse)
        monkeypatch.setattr(core, "_encoded", refuse)
        loaded = load_corpus(path)
        assert evaluate(params, loaded).summary() == expected
        payload = loaded.examples.rows
        assert payload.shape == (40, 3, 3) and not payload.flags.writeable
        for k, name in enumerate(("head_rows", "tail_rows", "context_rows")):
            rows = getattr(loaded, name)
            assert rows.base is payload and np.shares_memory(rows, payload[:, k])

    def test_loaded_arrays_are_no_views_of_the_file_bytes(self, tmp_path):
        """A loaded corpus keeps copies of what it reads, so the bytes read
        from its file are freed once it is loaded."""
        path = tmp_path / "c.jsonl"
        save_corpus(mention_corpus(), path)
        loaded = load_corpus(path)
        held = loaded.examples
        arrays = [held.rows, held.doc, held.ids, held.has_gold, held.bits,
                  *(getattr(loaded, name) for name in CACHED[:-1]),
                  *loaded.document_groups.values()]
        for array in arrays:
            base = array
            while isinstance(base, np.ndarray):
                base = base.base
            assert base is None, type(base)

    def test_document_groups_follow_the_records_not_the_header(self, tmp_path):
        """A loaded corpus's groups come in the order its records first name
        them, and two header entries that hold one doc_id are one document,
        also for the duplicate-pair check."""
        path = tmp_path / "c.jsonl"
        corpus = make_corpus([{0}, set(), {1}, {0, 2}, set()], docs_of=["b", "a", "b", "c", "a"])
        save_corpus(corpus, path)
        saved = CorpusFile(path)
        saved.header["doc_ids"] = ["a", "c", "b", "a"]
        saved.arrays["doc_index"][:] = [2, 0, 2, 1, 3]
        saved.save()
        loaded = load_corpus(path)
        assert [ex.doc_id for ex in loaded.examples] == [ex.doc_id for ex in corpus.examples]
        assert list(loaded.document_groups) == ["b", "a", "c"]
        for groups in (loaded.document_groups, corpus.document_groups):
            assert {doc: rows.tolist() for doc, rows in groups.items()} == {
                "b": [0, 2], "a": [1, 4], "c": [3]}
        saved.edit(4, ids=[2, 3])  # record 1's pair, under the other "a"
        with pytest.raises(DataFormatError, match=f"{path}: record 4: duplicate entity pair: "
                                                  "doc='a' head=2 tail=3$"):
            load_corpus(path)

    def test_validating_a_loaded_corpus_builds_no_example(self, monkeypatch, tmp_path):
        """``validate`` checks the records a loaded corpus read, as
        ``load_corpus`` did: it builds no ``PairExample`` and calls no
        per-example check."""
        path = tmp_path / "c.jsonl"
        save_corpus(mention_corpus(), path)
        loaded = load_corpus(path)

        def refuse(*args):
            raise AssertionError("checked an example")

        monkeypatch.setattr(core, "_check_example", refuse)
        with counting_pair_examples() as count:
            loaded.validate()
            save_corpus(loaded, tmp_path / "again.jsonl")
        assert count == [0]

    def test_saving_again_encodes_nothing(self, monkeypatch, tmp_path):
        """A loaded corpus is saved from the records it read, and an
        in-memory corpus encodes its records once: saving either again
        builds no ``PairExample``, decodes no label set, stacks no row and
        builds no label mask, and writes the same bytes."""
        first, again, twice = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
        corpus = mention_corpus()
        save_corpus(corpus, first)
        loaded = load_corpus(first)

        def refuse(*args):
            raise AssertionError("encoded or decoded a record again")

        for name in ("_bit_set", "_encoded", "label_mask"):
            monkeypatch.setattr(core, name, refuse)
        with counting_pair_examples() as count:
            save_corpus(loaded, again)
            save_corpus(corpus, twice)
        assert count == [0]
        assert again.read_bytes() == twice.read_bytes() == first.read_bytes()

    # how a drawn corpus names its documents and builds its sides
    @pytest.mark.parametrize("layout", ["mentions", "small", "interleaved-docs", "empty"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data(), n_rel=st.sampled_from([1, 7, 8, 9, 17]))
    def test_lazy_examples_equal_eager_ones(self, tmp_path_factory, data, n_rel, layout):
        """Up to 30 pairs over 1 to 17 relations, with a gold set that is
        None, empty or not; ``mentions`` pools each side from 1 to 4 rows,
        ``small`` gives each pair a document of its own, and
        ``interleaved-docs`` reuses three doc_ids in any order. A saved file
        may have its header's ``doc_ids`` edited: each named twice, out of
        record order, each record taking either entry."""
        count = 0 if layout == "empty" else data.draw(st.integers(1, 30))
        docs = st.sampled_from(["b", "a", "c"]) if layout == "interleaved-docs" else (
            st.sampled_from([f"doc{k}" for k in range(7)]))
        labels = st.frozensets(st.integers(0, n_rel - 1), max_size=4)
        rng = np.random.default_rng(count)

        def side():
            if layout != "mentions":
                return rng.normal(size=3)
            return logsumexp_pool(rng.normal(scale=5, size=(int(rng.integers(1, 5)), 3)))

        examples = tuple(
            PairExample(f"doc{i}" if layout == "small" else data.draw(docs), 2 * i, 2 * i + 1,
                        side(), side(), rng.normal(size=3), data.draw(labels),
                        data.draw(st.none() | labels))
            for i in range(count)
        )
        corpus = Corpus(RelationVocabulary.from_relations([f"r{k}" for k in range(n_rel)]),
                        examples, LabelSource.ORIGINAL, 3)
        path = tmp_path_factory.mktemp("lazy") / "c.jsonl"
        save_corpus(corpus, path)
        if count and data.draw(st.booleans()):
            saved = CorpusFile(path)
            m = len(saved.header["doc_ids"])
            saved.header["doc_ids"] = saved.header["doc_ids"][::-1] * 2
            second = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
            index = saved.arrays["doc_index"]
            index[:] = m - 1 - index + np.multiply(m, second)
            saved.save()
        check_lazy_examples(corpus, path)


def check_lazy_examples(corpus, path):
    """Load ``path``, where ``corpus`` was saved: the loaded corpus derives
    its arrays with no ``PairExample``, and they and its document groups
    equal, bit for bit, those of ``corpus``, of ``corpus`` under an equal
    vocabulary and of the loaded corpus given its examples as a tuple; the
    examples, built on first access, hold the in-memory corpus's fields and
    views of the payload."""
    with counting_pair_examples() as count:
        loaded = load_corpus(path)
        assert len(loaded.examples) == len(corpus.examples)
        expected = derived_arrays(loaded)
    assert count == [0]
    assert type(loaded.examples[:]) is tuple and type(loaded.examples[1:2]) is tuple
    eager = replace(loaded, examples=loaded.examples[:])
    vocabulary = corpus.vocabulary.with_frequencies({corpus.vocabulary.relations[0]: 3})
    for other in (corpus, eager, replace(corpus, vocabulary=vocabulary)):
        assert derived_arrays(other) == expected
    # the references: label masks of the label sets, and groups built pair by pair
    positive = [ex.positive_relations for ex in corpus.examples]
    gold = [ex.gold_positive_relations for ex in corpus.examples]
    width = corpus.vocabulary.num_relations
    assert loaded.label_rows.tobytes() == label_mask(positive, width).tobytes()
    assert loaded.gold_rows.tobytes() == label_mask(
        [p if g is None else g for p, g in zip(positive, gold)], width).tobytes()
    groups = {}
    for i, ex in enumerate(corpus.examples):
        groups.setdefault(ex.doc_id, []).append(i)
    assert [(doc, rows.tolist()) for doc, rows in loaded.document_groups.items()] == list(
        groups.items())
    assert loaded.pair_ids.tolist() == [[ex.head_id, ex.tail_id] for ex in corpus.examples]
    for x, y in zip(corpus.examples, loaded.examples, strict=True):
        assert [getattr(x, f) for f in core._FIELDS] == [getattr(y, f) for f in core._FIELDS]
        for f in ("head_vectors", "tail_vectors", "context"):
            a, b = getattr(x, f), getattr(y, f)
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), f
            # a view of the one array that holds the file's payload
            assert b.base is loaded.examples[0].context.base, f
            assert b.base.shape == (len(corpus.examples), 3, corpus.embedding_dim), f
    if corpus.examples:  # built once, then kept
        assert loaded.examples[0] is loaded.examples[0]


def cut(size):
    """An edit of a saved file: its last ``size`` bytes go."""
    return lambda saved: saved.path.write_bytes(saved.path.read_bytes()[:-size])


def header_count(count):
    """An edit of a saved file: its header's example count becomes ``count``."""
    return lambda saved: saved.edit(header=lambda h: h.update(num_examples=count))


class TestLoadFailsClosed:
    """Every malformed corpus file raises DataFormatError naming the file,
    and ``record k`` for the first record that breaks the record predicate
    or holds a non-finite vector."""

    def saved(self, tmp_path, corpus):
        path = tmp_path / "dev.jsonl"
        save_corpus(corpus, path)
        return path, CorpusFile(path)

    def test_record_without_context(self, tmp_path, small_corpus):
        # record 1's rows without its context row: the payload is one row short
        path, saved = self.saved(tmp_path, small_corpus)
        saved.rows[1] = saved.rows[1][:-1]
        saved.save()
        with pytest.raises(DataFormatError,
                           match=f"{path}: vectors hold 448 bytes, expected 15 rows of 4"):
            load_corpus(path)

    def test_out_of_range_label(self, tmp_path):
        # 6 relations: bits 6 and 7 of a one-byte row are past them
        path, saved = self.saved(tmp_path, make_corpus([{0}, {1}], n_rel=6))
        saved.edit(1, labels=[[0b10000010], [0b00000010]])
        with pytest.raises(DataFormatError,
                           match=f"{path}: record 1: relation index 7 out of range$"):
            load_corpus(path)
        saved.edit(1, labels=[[0b00000010], [0b11000010]])
        with pytest.raises(DataFormatError,
                           match=f"{path}: record 1: relation index 6 out of range$"):
            load_corpus(path)

    # a label set is a bit row and an id an int64, so an id or label that is
    # not an integer cannot reach a file: save_corpus refuses it, naming the example
    def test_non_integer_label(self, tmp_path, small_corpus):
        examples = list(small_corpus.examples)
        examples[0] = replace(examples[0], gold_positive_relations=frozenset({"r0"}))
        with pytest.raises(DataFormatError, match="cannot save corpus: example 0: id or label "
                                                  "'r0' is not an integer"):
            save_corpus(replace(small_corpus, examples=tuple(examples)), tmp_path / "dev.jsonl")

    @pytest.mark.parametrize(
        "field, value",
        [("head_id", 48.7), ("head_id", True), ("tail_id", 3.0),
         ("positive_relations", frozenset({0.0, True})),
         ("gold_positive_relations", frozenset({1.0}))],
        ids=["float-head", "bool-head", "whole-float-tail", "float-and-bool-labels",
             "float-gold-label"],
    )
    def test_non_integer_id_or_label(self, tmp_path, small_corpus, field, value):
        examples = list(small_corpus.examples)
        examples[3] = replace(examples[3], **{field: value})
        path = tmp_path / "dev.jsonl"
        with pytest.raises(DataFormatError,
                           match=f"{path}: cannot save corpus: example 3: id or label .* is not "
                                 "an integer"):
            save_corpus(replace(small_corpus, examples=tuple(examples)), path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "fields, message",
        [({"doc_index": 5}, r"doc index 5 outside 0\.\.4"),
         ({"doc_index": -1}, r"doc index -1 outside 0\.\.4"),
         ({"ids": [4, 4]}, "head_id == tail_id == 4"),
         ({"has_gold": 2}, "gold flag 2 is not 0 or 1"),
         ({"has_gold": 0}, "gold labels without the gold flag")],
        ids=["doc-index-past-doc-ids", "negative-doc-index", "head-is-tail", "gold-flag-2",
             "gold-labels-without-flag"],
    )
    def test_record_predicate(self, tmp_path, small_corpus, fields, message):
        path, saved = self.saved(tmp_path, small_corpus)
        saved.edit(3, **fields)
        with pytest.raises(DataFormatError, match=f"{path}: record 3: {message}$"):
            load_corpus(path)

    def test_nan_in_context(self, tmp_path, small_corpus):
        path, saved = self.saved(tmp_path, small_corpus)

        def edit(rows):
            rows[-1, 1] = np.nan

        saved.edit(2, rows=edit)
        with pytest.raises(DataFormatError,
                           match=f"{path}: record 2: non-finite value in the context"):
            load_corpus(path)
        # in memory: a corpus is checked from the records it encodes from its examples
        examples = [replace(ex, context=ex.context.copy()) for ex in small_corpus.examples]
        examples[2].context[0] = np.nan
        with pytest.raises(DataFormatError, match="^example 2: non-finite value in the context$"):
            replace(small_corpus, examples=tuple(examples)).validate()

    def test_overflowing_literal_in_mention_embedding(self, tmp_path, small_corpus):
        path, saved = self.saved(tmp_path, small_corpus)

        def edit(rows):
            rows[1, 0] = np.inf  # the tail row

        saved.edit(0, rows=edit)
        with pytest.raises(
            DataFormatError, match=f"{path}: record 0: non-finite value in the tail row"
        ):
            load_corpus(path)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_nan_in_record_k_names_record_k(self, tmp_path, k):
        # record 5 is faulty too, and the first one is named
        corpus = mention_corpus(pairs=6, dim=3)
        path, saved = self.saved(tmp_path, corpus)

        def edit(rows):
            rows[0, 2] = np.nan

        saved.edit(k, rows=edit)
        saved.rows[5][-1, 0] = np.inf
        saved.save()
        with pytest.raises(
            DataFormatError, match=f"{path}: record {k}: non-finite value in the head row$"
        ):
            load_corpus(path)

    def test_duplicated_pair(self, tmp_path, small_corpus):
        path, saved = self.saved(tmp_path, small_corpus)
        saved.take([0, 1, 1, 2, 3])
        with pytest.raises(DataFormatError, match=f"{path}: record 2: duplicate entity pair: "
                                                  "doc='doc1' head=2 tail=3$"):
            load_corpus(path)

    def test_truncated_file(self, tmp_path, small_corpus):
        # the file ends inside the arrays of the 5 records the header declares
        path, _ = self.saved(tmp_path, small_corpus)
        data = path.read_bytes()
        path.write_bytes(data[: data.index(b"\n") + 101])
        with pytest.raises(DataFormatError,
                           match=f"{path}: header declares 5 examples, more than its arrays hold"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "dev.jsonl"
        with pytest.raises(DataFormatError, match=f"{path}: cannot read"):
            load_corpus(path)

    def test_bytes_that_are_not_utf8(self, tmp_path, small_corpus):
        # in the header's doc_ids
        path, _ = self.saved(tmp_path, small_corpus)
        path.write_bytes(path.read_bytes().replace(b'"doc3"', b'"doc\xff\xfe"', 1))
        with pytest.raises(DataFormatError, match=f"{path}:1: bad header: UnicodeDecodeError"):
            load_corpus(path)

    def test_version_1_file_asks_for_a_rebuild(self, tmp_path, small_corpus):
        path, saved = self.saved(tmp_path, small_corpus)
        saved.edit(header=lambda h: h.update(version=1))
        with pytest.raises(DataFormatError, match=f"{path}:1: corpus format version 1.*rebuild"):
            load_corpus(path)

    def test_format_2_file_asks_for_a_rebuild(self, tmp_path):
        """And format-3 and format-4 files: JSON records in any layout, and
        stored mentions, are no longer read."""
        path = tmp_path / "dev.jsonl"
        for version, data in ((2, FORMAT_2_FILE), (3, FORMAT_3_FILE), (4, FORMAT_4_FILE)):
            path.write_bytes(data)
            with pytest.raises(DataFormatError, match=f"{path}:1: corpus format version "
                                                      f"{version}, expected 5; rebuild"):
                load_corpus(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (cut(3), ": vectors hold 477 bytes, expected 15 rows of 4"),
            (cut(1), ": vectors hold 479 bytes, expected 15 rows of 4"),
            (lambda saved: saved.path.write_bytes(saved.path.read_bytes() + bytes(8)),
             ": vectors hold 488 bytes, expected 15 rows of 4"),
            # a whole row more than the 3 per record the header's count gives
            (lambda saved: saved.path.write_bytes(saved.path.read_bytes() + bytes(32)),
             ": vectors hold 512 bytes, expected 15 rows of 4"),
            # the example count, the one count a file holds
            (header_count(2**63),
             ": header declares 9223372036854775808 examples, more than its arrays hold"),
            (header_count(0), ": vectors hold 615 bytes, expected 0 rows of 4"),
            (header_count(5.0), r":1: bad header: ValueError\('na_index, embedding_dim 4, "
                                r"num_examples 5\.0"),
        ],
        ids=["partial-float", "short-by-one-byte", "trailing-bytes", "wrong-row-count",
             "counts-past-int64", "zero-count", "float-count"],
    )
    def test_malformed_vectors(self, tmp_path, small_corpus, edit, message):
        path, saved = self.saved(tmp_path, small_corpus)
        edit(saved)
        with pytest.raises(DataFormatError, match=f"{path}{message}"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda h: h.pop("relations"), lambda h: h.update(label_source="bogus"),
         lambda h: h.update(na_index=0), lambda h: h.update(na_index=4.0),
         lambda h: h.update(embedding_dim=4.7), lambda h: h.update(embedding_dim=0),
         lambda h: h.update(train_frequency={"r0": "3"}), lambda h: h.pop("num_examples"),
         lambda h: h.update(num_examples=-1), lambda h: h.update(doc_ids="doc0"),
         lambda h: h.update(doc_ids=[0, 1, 2, 3, 4])],
        ids=["no-relations", "bad-label-source", "bad-na-index", "float-na-index", "float-dim",
             "zero-dim", "string-frequency", "no-count", "negative-count", "doc-ids-string",
             "int-doc-ids"],
    )
    def test_bad_header(self, tmp_path, small_corpus, edit):
        path, saved = self.saved(tmp_path, small_corpus)
        saved.edit(header=edit)
        with pytest.raises(DataFormatError, match=f"{path}:1: bad header"):
            load_corpus(path)


# -0.0, the smallest and largest subnormals, and the ends of the float64 range
EDGE_VALUES = [
    -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, -1.7976931348623157e308
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(2, 8), count=st.integers(1, 3))
def test_round_trip_is_bitwise(tmp_path_factory, data, dim, count):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = st.one_of(st.sampled_from(EDGE_VALUES), finite)

    def vector():
        return np.array(data.draw(st.lists(values, min_size=dim, max_size=dim)))

    examples = tuple(
        PairExample(f"doc{i}", 2 * i, 2 * i + 1, vector(), vector(), vector(),
                    frozenset({i % 3}), None if i % 2 else frozenset())
        for i in range(count)
    )
    corpus = Corpus(RelationVocabulary.from_relations(["a", "b", "c"]), examples,
                    LabelSource.GOLD, dim)
    path = tmp_path_factory.mktemp("round-trip") / "c.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    for x, y in zip(corpus.examples, loaded.examples, strict=True):
        assert (x.doc_id, x.head_id, x.tail_id) == (y.doc_id, y.head_id, y.tail_id)
        assert (x.positive_relations, x.gold_positive_relations) == (
            y.positive_relations, y.gold_positive_relations)
        for a, b in zip((*x.head_mentions, *x.tail_mentions), (*y.head_mentions, *y.tail_mentions),
                        strict=True):
            assert a.entity_id == b.entity_id
            assert a.embedding.tobytes() == b.embedding.tobytes()
        assert x.context.tobytes() == y.context.tobytes()


def reduceat_lse(mat, counts):
    """The pooling kernel that pooled stored mentions: one
    ``np.maximum.reduceat`` and one ``np.add.reduceat`` over the segments."""
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    shift = np.maximum.reduceat(mat, starts, axis=0)
    total = np.add.reduceat(np.exp(mat - np.repeat(shift, counts, axis=0)), starts, axis=0)
    return shift + np.log(total)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 5),
       sizes=st.lists(st.integers(1, 8), min_size=1, max_size=12))
def test_pooling_kernel_is_reduceat_bitwise(data, dim, sizes):
    """Segments of 1 to 8 rows, mixed in one call, with values up to +-700
    and tied maxima: the kernel's rows are the reduceat kernel's, bit for
    bit, and ``logsumexp_pool`` of each segment alone is its row."""
    values = st.one_of(st.floats(-700, 700), st.sampled_from([-700.0, -0.0, 3.5, 700.0]))
    rows = np.array(data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                       min_size=sum(sizes), max_size=sum(sizes))))
    pooled = core._segment_lse(rows, sizes)
    assert pooled.tobytes() == reduceat_lse(rows, sizes).tobytes()
    for segment, row in zip(np.split(rows, np.cumsum(sizes)[:-1]), pooled, strict=True):
        assert logsumexp_pool(segment).tobytes() == row.tobytes()


def test_pooling_kernel_sums_long_segments_as_reduceat():
    # from 9 rows a segment's tail is summed pairwise, as reduceat sums it; a
    # sequential sum differs in about one cell in seven on such rows
    rng = np.random.default_rng(0)
    sizes = [9] * 20 + [1, 16, 40, 10, 23, 2, 130]
    rows = rng.normal(size=(sum(sizes), 7))
    assert core._segment_lse(rows, sizes).tobytes() == reduceat_lse(rows, sizes).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cuts=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=3),
    truncate=st.booleans(),
)
def test_corrupted_file_loads_or_raises_docrel_error(tmp_path_factory, cuts, truncate):
    """Flipped bytes and truncation end in a load or a DocrelError, never a raw exception."""
    path = tmp_path_factory.mktemp("mutate") / "c.jsonl"
    save_corpus(make_corpus([{0}, {1, 2}, set()]), path)
    data = bytearray(path.read_bytes())
    for position, value in cuts:
        data[position % len(data)] = value
    if truncate:
        data = data[: cuts[0][0] % len(data)]
    path.write_bytes(bytes(data))
    try:
        load_corpus(path)
    except DocrelError:
        pass


def reference_bytes(corpus):
    """A format-5 corpus file written field by field from the examples, with
    ``struct`` and ``json``: the bytes save_corpus keeps."""
    vocab, examples = corpus.vocabulary, corpus.examples
    doc_ids = list(dict.fromkeys(ex.doc_id for ex in examples))
    header = {"format": "docrel-corpus", "version": 5, "relations": list(vocab.relations),
              "na_index": vocab.na_index, "train_frequency": dict(vocab.train_frequency),
              "label_source": corpus.label_source.value, "embedding_dim": corpus.embedding_dim,
              "num_examples": len(examples), "doc_ids": doc_ids}
    width = (vocab.num_relations + 7) // 8

    def bits(labels):  # label r is bit r % 8 of byte r // 8
        return bytes(sum(1 << r % 8 for r in labels if r // 8 == i) for i in range(width))

    def floats(row):
        return struct.pack(f"<{len(row)}d", *row)

    parts = [json.dumps(header).encode() + b"\n"]
    parts += [struct.pack("<q", doc_ids.index(ex.doc_id)) for ex in examples]
    parts += [struct.pack("<qq", ex.head_id, ex.tail_id) for ex in examples]
    parts += [bytes([ex.gold_positive_relations is not None]) for ex in examples]
    parts += [bits(ex.positive_relations) + bits(ex.gold_positive_relations or ())
              for ex in examples]
    parts += [floats(row) for ex in examples
              for row in (ex.head_vectors, ex.tail_vectors, ex.context)]
    return b"".join(parts)


DERIVED = ("head_rows", "tail_rows", "context_rows", "label_rows", "gold_rows")
# doc_ids that JSON must escape, or that need more than one UTF-8 byte
DOC_IDS = st.one_of(st.sampled_from(['"', "\\", 'a"b\\c', "é", "文書", "\n", "\x00", "\u2028",
                                     "\\u0041", "x}\", {"]),
                    st.text(max_size=6))


def drawn_corpus(data, dim, count, n_rel=5):
    """A valid corpus of ``count`` examples drawn by hypothesis, with
    doc_ids from ``DOC_IDS``."""
    labels = st.frozensets(st.integers(0, n_rel - 1), max_size=3)
    values = st.floats(-50, 50, allow_subnormal=True)

    def row():
        return np.array(data.draw(st.lists(values, min_size=dim, max_size=dim)))

    examples = tuple(
        PairExample(data.draw(DOC_IDS), 2 * i, 2 * i + 1, row(), row(), row(), data.draw(labels),
                    data.draw(st.none() | labels))
        for i in range(count)
    )
    return Corpus(RelationVocabulary.from_relations([f"r{k}" for k in range(n_rel)]),
                  examples, LabelSource.ORIGINAL, dim)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 4), count=st.integers(0, 7))
def test_round_trip_keeps_bytes_and_derived_rows(tmp_path_factory, data, dim, count):
    """Saved bytes are the reference encoder's, and the rows a loaded corpus
    derives from its payload are the in-memory corpus's, bit for bit."""
    corpus = drawn_corpus(data, dim, count)
    examples = corpus.examples
    path = tmp_path_factory.mktemp("round-trip") / "c.jsonl"
    save_corpus(corpus, path)
    assert path.read_bytes() == reference_bytes(corpus)
    built, loaded = replace(corpus, examples=examples), load_corpus(path)
    for name in DERIVED:
        assert getattr(loaded, name).tobytes() == getattr(built, name).tobytes(), name
    check_lazy_examples(corpus, path)


def _with_value(field, value):
    return lambda ex, other: replace(ex, **{field: value(ex)})


def _with_row(field, index, value):
    def fault(ex, other):
        rows = getattr(ex, field).copy()
        rows[index] = value
        return replace(ex, **{field: rows})
    return fault


# one fault in one example of a drawn corpus (5 relations): each is one that
# load_corpus refuses, or a type that the reference encoder writes as another
FAULTS = {
    "no-head-mentions": _with_value("head_vectors", lambda ex: ex.head_vectors[:0]),
    "head-is-tail": _with_value("tail_id", lambda ex: ex.head_id),
    "label-past-relations": _with_value("positive_relations",
                                        lambda ex: ex.positive_relations | {5}),
    "negative-gold-label": _with_value("gold_positive_relations", lambda ex: frozenset({-1})),
    "nan-in-context": _with_row("context", 0, np.nan),
    "inf-in-a-mention": _with_row("tail_vectors", -1, -np.inf),
    "repeated-pair": lambda ex, other: replace(ex, doc_id=other.doc_id, head_id=other.head_id,
                                               tail_id=other.tail_id),
    "numpy-int-id": _with_value("head_id", lambda ex: np.int64(ex.head_id)),
    "true-label": _with_value("positive_relations", lambda ex: frozenset({True})),
    "numpy-int-gold-label": _with_value("gold_positive_relations",
                                        lambda ex: frozenset({np.int32(1)})),
    "int-doc-id": _with_value("doc_id", lambda ex: 3),
    "set-labels": _with_value("positive_relations", lambda ex: set(ex.positive_relations)),
    "one-side-wider": _with_value("head_vectors", lambda ex: np.ones(ex.context.size + 1)),
    "text-vectors": _with_value("head_vectors", lambda ex: ex.head_vectors.astype(str)),
    "list-head-rows": _with_value("head_vectors", lambda ex: ex.head_vectors.tolist()),
    "list-tail-rows": _with_value("tail_vectors", lambda ex: ex.tail_vectors.tolist()),
    "list-context": _with_value("context", lambda ex: ex.context.tolist()),
    "id-past-int64": _with_value("head_id", lambda ex: 2**63),
}


def typed_fields(corpus):
    """Every field of every example, with the type of each value (of each
    label too) and the shape and bits of each vector array."""
    return [
        (value.shape, value.tobytes()) if isinstance(value, np.ndarray)
        else (type(value), sorted(map(repr, value))) if isinstance(value, (set, frozenset))
        else (type(value), value)
        for ex in corpus.examples
        for value in (ex.doc_id, ex.head_id, ex.tail_id, ex.positive_relations,
                      ex.gold_positive_relations, ex.head_vectors, ex.tail_vectors, ex.context)
    ]


def derived_arrays(corpus):
    """The dtype, shape and bits of each array a corpus derives, and its
    document groups in order."""
    arrays = [getattr(corpus, name) for name in CACHED[:-1]]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays] + [
        (doc, rows.dtype, rows.tobytes()) for doc, rows in corpus.document_groups.items()]


@pytest.mark.parametrize("fault", [None, *FAULTS])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 4), count=st.integers(1, 5))
def test_save_succeeds_exactly_when_load_gives_the_corpus_back(tmp_path_factory, data, dim,
                                                                count, fault):
    """save_corpus writes a corpus exactly when load_corpus, reading the
    reference encoder's bytes for it, gives back every field as it was."""
    corpus = drawn_corpus(data, dim, count)
    if fault is not None:
        examples = list(corpus.examples)
        k, other = data.draw(st.integers(0, count - 1)), data.draw(st.integers(0, count - 1))
        examples[k] = FAULTS[fault](examples[k], examples[other])
        corpus = replace(corpus, examples=tuple(examples))
    directory = tmp_path_factory.mktemp("verdict")
    try:
        save_corpus(corpus, directory / "saved.jsonl")
        saved = True
    except DataFormatError:
        saved = False
    try:
        (directory / "reference.jsonl").write_bytes(reference_bytes(corpus))
        given_back = typed_fields(load_corpus(directory / "reference.jsonl")) == typed_fields(
            corpus)
    except (TypeError, ValueError, struct.error, DocrelError):  # the reference encoder
        # refused, or the loader
        given_back = False
    assert saved == given_back, fault
    assert not saved or (directory / "saved.jsonl").read_bytes() == reference_bytes(corpus)


# a new value for one entry of a record array, or for one payload value
EDIT_VALUES = {
    "doc_index": st.integers(-2, 8),
    "ids": st.integers(-3, 14),
    "has_gold": st.integers(0, 3),
    "labels": st.integers(0, 255),
    "rows": st.one_of(st.sampled_from(EDGE_VALUES + [np.nan, np.inf, -np.inf]), st.floats()),
}


def shared_pairs_corpus():
    """Six pairs of three entities in two documents, each pair in both: an
    edit of one id, or of a doc index, can repeat an earlier pair."""
    rng = np.random.default_rng(2)
    examples = tuple(
        PairExample(doc, h, t, rng.normal(size=2), rng.normal(size=2), rng.normal(size=2),
                    frozenset({(h + t) % 3}), None if doc == "d1" else frozenset({h}))
        for h, t in ((0, 1), (0, 2), (1, 2)) for doc in ("d0", "d1")
    )
    return Corpus(RelationVocabulary.from_relations(["a", "b", "c"]), examples,
                  LabelSource.ORIGINAL, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), field=st.sampled_from(list(EDIT_VALUES)),
       shared=st.booleans())
def test_one_record_edit_loads_as_edited_or_names_its_record(tmp_path_factory, data, field,
                                                             shared):
    """Edit one field of one record of a saved file: its doc index, one id,
    its gold flag, one byte of a bit row or one payload value. Where
    ``CorpusFile`` decodes the edited file to a valid corpus, it loads as
    that corpus, field for field and bit for bit; else ``load_corpus``
    names that record, or, where the edit repeats another record's pair,
    the later of the two. The six pairs are each in a document of its own,
    or (``shared``) in two documents that hold the same three pairs."""
    corpus = shared_pairs_corpus() if shared else mention_corpus(pairs=6, dim=2)  # 3 relations
    path = tmp_path_factory.mktemp("edit") / "c.jsonl"
    save_corpus(corpus, path)
    saved = CorpusFile(path)
    k, value = data.draw(st.integers(0, 5)), data.draw(EDIT_VALUES[field])
    if field == "rows":
        at = data.draw(st.tuples(st.integers(0, len(saved.rows[k]) - 1), st.integers(0, 1)))
        saved.edit(k, rows=lambda rows: rows.__setitem__(at, value))
    else:
        entry = np.array(saved.arrays[field][k])  # a copy, 0-d for a flag or doc index
        entry.flat[data.draw(st.integers(0, entry.size - 1))] = value
        saved.edit(k, **{field: entry})
    try:
        expected = replace(corpus, examples=saved.examples())
        expected.validate()
    except (ValueError, DocrelError):  # no valid corpus holds the edited record
        # it, or the later record where it repeats the pair of a later one
        doc_ids = saved.header["doc_ids"]
        keys = [(doc_ids[d] if 0 <= d < len(doc_ids) else d, h, t)
                for d, (h, t) in zip(saved.arrays["doc_index"].tolist(),
                                     saved.arrays["ids"].tolist())]
        named = max(j for j, key in enumerate(keys) if key == keys[k])
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: record {named}: ")):
            load_corpus(path)
    else:
        loaded = load_corpus(path)
        assert typed_fields(loaded) == typed_fields(expected)
        assert derived_arrays(loaded) == derived_arrays(expected)
