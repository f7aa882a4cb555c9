import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel.batching import Batch, attach_negative_samples
from docrel.core import (
    Bucket,
    LabelSource,
    RelationVocabulary,
    bucket_relations,
    build_pair_index,
    label_mask,
    load_corpus,
    save_corpus,
)
from docrel.errors import ConfigError, DataFormatError, DocrelError, DuplicatePairError
from docrel.losses import LossConfig, _negative_mask

from conftest import make_corpus, make_example


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
    def test_empty_corpus(self):
        corpus = make_corpus([])
        assert build_pair_index(corpus) == {}

    def test_three_distinct_pairs(self):
        corpus = make_corpus([{0}, {1}, set()])
        index = build_pair_index(corpus)
        assert len(index) == 3

    def test_round_trip(self, small_corpus):
        index = build_pair_index(small_corpus)
        for i, ex in enumerate(small_corpus.examples):
            assert index[(ex.doc_id, ex.head_id, ex.tail_id)] == i

    def test_duplicate_triple_rejected(self):
        from docrel.core import Corpus

        vocab = RelationVocabulary.from_relations(["r0", "r1"])
        examples = (make_example("d", 1, 2, {0}, dim=4), make_example("d", 1, 2, {1}, dim=4))
        corpus = Corpus(vocab, examples, LabelSource.GOLD, 4)
        with pytest.raises(DuplicatePairError) as err:
            build_pair_index(corpus)
        assert err.value.triple == ("d", 1, 2)


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
        rows = (0,) if corpus.examples[0].is_na else ()
        batch = Batch(example_indices=(0,), bp_indices=(0,)[len(rows):], bn_indices=rows)
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

    def test_validate_catches_bad_labels(self):
        from docrel.errors import DocrelError

        bad = make_corpus([{9}], n_rel=4)
        with pytest.raises(DocrelError):
            bad.validate()


class TestLoadFailsClosed:
    """Every malformed corpus file raises DataFormatError naming the file."""

    def saved(self, tmp_path, corpus):
        path = tmp_path / "dev.jsonl"
        save_corpus(corpus, path)
        return path, path.read_text().splitlines()

    def rewrite(self, path, lines, lineno, edit):
        record = json.loads(lines[lineno - 1])
        edit(record)
        lines[lineno - 1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")

    def test_record_without_context(self, tmp_path, small_corpus):
        path, lines = self.saved(tmp_path, small_corpus)
        self.rewrite(path, lines, 3, lambda r: r.pop("context"))
        with pytest.raises(DataFormatError, match=f"{path}:3: .*context"):
            load_corpus(path)

    def test_out_of_range_label(self, tmp_path):
        path, lines = self.saved(tmp_path, make_corpus([{0}, {1}], n_rel=8))
        self.rewrite(path, lines, 3, lambda r: r.update(positive_relations=[99]))
        with pytest.raises(DataFormatError, match=f"{path}:3: relation index 99 out of range"):
            load_corpus(path)

    def test_non_integer_label(self, tmp_path, small_corpus):
        path, lines = self.saved(tmp_path, small_corpus)
        self.rewrite(path, lines, 2, lambda r: r.update(gold_positive_relations=["r0"]))
        with pytest.raises(DataFormatError, match=f"{path}:2: "):
            load_corpus(path)

    def test_nan_in_context(self, tmp_path, small_corpus):
        path, lines = self.saved(tmp_path, small_corpus)

        def edit(record):
            record["context"][1] = float("nan")  # written as the JSON literal NaN

        self.rewrite(path, lines, 4, edit)
        with pytest.raises(DataFormatError, match=f"{path}:4: non-finite value in the context"):
            load_corpus(path)
        small_corpus.examples[2].context[0] = np.nan
        with pytest.raises(DataFormatError, match="example 2: non-finite value in the context"):
            small_corpus.validate()

    def test_overflowing_literal_in_mention_embedding(self, tmp_path, small_corpus):
        path, lines = self.saved(tmp_path, small_corpus)

        def edit(record):
            record["tail_mentions"][0]["embedding"][0] = 0.125

        self.rewrite(path, lines, 2, edit)
        # JSON decoding turns 1e999 into inf
        path.write_text(path.read_text().replace("[0.125,", "[1e999,", 1))
        with pytest.raises(
            DataFormatError, match=f"{path}:2: non-finite value in a mention embedding"
        ):
            load_corpus(path)

    def test_duplicated_pair(self, tmp_path, small_corpus):
        path, lines = self.saved(tmp_path, small_corpus)
        path.write_text("\n".join(lines[:3] + lines[2:3] + lines[3:-1]) + "\n")
        with pytest.raises(DataFormatError, match=f"{path}: duplicate entity pair"):
            load_corpus(path)

    def test_truncated_file(self, tmp_path, small_corpus):
        path, lines = self.saved(tmp_path, small_corpus)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataFormatError, match=f"{path}: header declares 5 examples, found 4"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "dev.jsonl"
        with pytest.raises(DataFormatError, match=f"{path}: cannot read"):
            load_corpus(path)

    def test_bytes_that_are_not_utf8(self, tmp_path, small_corpus):
        path, lines = self.saved(tmp_path, small_corpus)
        path.write_bytes(path.read_bytes()[:-40] + b"\xff\xfe\n")
        with pytest.raises(DataFormatError, match=f"{path}: cannot read"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda h: h.pop("relations"), lambda h: h.update(label_source="bogus"),
         lambda h: h.update(na_index=0)],
        ids=["no-relations", "bad-label-source", "bad-na-index"],
    )
    def test_bad_header(self, tmp_path, small_corpus, edit):
        path, lines = self.saved(tmp_path, small_corpus)
        self.rewrite(path, lines, 1, edit)
        with pytest.raises(DataFormatError, match=f"{path}:1: bad header"):
            load_corpus(path)


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
