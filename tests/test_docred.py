import importlib.util
import json
import os
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel.docred import hashed_featurizer, load_docred_json
from docrel.errors import ConfigError, DataFormatError, DocrelError


DOC = {
    "title": "fixture",
    "sents": [
        ["Anna", "founded", "Acme", "in", "Berlin", "."],
        ["Acme", "makes", "widgets", "."],
    ],
    "vertexSet": [
        [{"name": "Anna", "sent_id": 0, "pos": [0, 1]}],
        [
            {"name": "Acme", "sent_id": 0, "pos": [2, 3]},
            {"name": "Acme", "sent_id": 1, "pos": [0, 1]},
        ],
        [{"name": "Berlin", "sent_id": 0, "pos": [4, 5]}],
    ],
    "labels": [
        {"h": 0, "t": 1, "r": "P127", "evidence": [0]},
        {"h": 1, "t": 2, "r": "P131", "evidence": [0]},
    ],
}


def write(tmp_path, docs):
    path = tmp_path / "docred.json"
    path.write_text(json.dumps(docs))
    return path


class TestLoader:
    def test_three_entities_six_ordered_pairs(self, tmp_path):
        corpus = load_docred_json(write(tmp_path, [DOC]), dim=16)
        assert len(corpus.examples) == 6
        corpus.validate()

    def test_labeled_pairs_carry_relations(self, tmp_path):
        corpus = load_docred_json(write(tmp_path, [DOC]), dim=16)
        labeled = {
            (ex.head_id, ex.tail_id): ex.positive_relations
            for ex in corpus.examples
            if ex.positive_relations
        }
        assert len(labeled) == 2
        assert corpus.vocabulary.relations == ("P127", "P131")

    def test_empty_labels_all_na(self, tmp_path):
        doc = dict(DOC)
        doc["labels"] = []
        corpus = load_docred_json(write(tmp_path, [doc]), dim=16)
        assert len(corpus.examples) == 6
        assert all(ex.is_na for ex in corpus.examples)

    def test_missing_field_names_document(self, tmp_path):
        doc = {"title": "broken", "sents": [["x"]]}
        with pytest.raises(DataFormatError, match="broken.*vertexSet"):
            load_docred_json(write(tmp_path, [doc]), dim=16)

    def test_bad_label_names_document(self, tmp_path):
        doc = dict(DOC)
        doc["labels"] = [{"h": 0, "t": "oops"}]
        with pytest.raises(DataFormatError, match="fixture"):
            load_docred_json(write(tmp_path, [doc]), dim=16)

    @pytest.mark.parametrize("sent_id", [2, -1])
    def test_sent_id_outside_document_rejected(self, tmp_path, sent_id):
        doc = json.loads(json.dumps(DOC))
        doc["vertexSet"][1][1]["sent_id"] = sent_id
        with pytest.raises(DataFormatError, match=r"fixture.*vertexSet\[1\].*sent_id"):
            load_docred_json(write(tmp_path, [doc]), dim=16)

    @pytest.mark.parametrize(
        "pos", [[2, 1], [1, 1], [0, 5], [-1, 1]], ids=["reversed", "empty", "past-end", "negative"]
    )
    def test_mention_span_outside_sentence_rejected(self, tmp_path, pos):
        doc = json.loads(json.dumps(DOC))
        doc["vertexSet"][1][1]["pos"] = pos  # sentence 1 has 4 tokens
        message = rf"docred\.json: document 'fixture': vertexSet\[1\]: pos \[.*\] is not a span"
        with pytest.raises(DataFormatError, match=message):
            load_docred_json(write(tmp_path, [doc]), dim=16)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"absent\.json: cannot read"):
            load_docred_json(tmp_path / "absent.json", dim=16)

    def test_bytes_that_are_not_utf8_rejected(self, tmp_path):
        path = write(tmp_path, [DOC])
        path.write_bytes(path.read_bytes().replace(b"Berlin", b"Berl\xffn"))
        with pytest.raises(DataFormatError, match=r"docred\.json: cannot read"):
            load_docred_json(path, dim=16)

    def test_document_not_an_object_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"docred\.json: document 1: expected an object"):
            load_docred_json(write(tmp_path, [DOC, ["not", "a", "document"]]), dim=16)

    @pytest.mark.parametrize("field", ["sents", "vertexSet", "labels"])
    def test_field_not_a_list_rejected(self, tmp_path, field):
        doc = json.loads(json.dumps(DOC))
        doc[field] = 7
        with pytest.raises(DataFormatError, match=f"fixture.*{field}.*not a list"):
            load_docred_json(write(tmp_path, [doc]), dim=16)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["sents"].__setitem__(1, "Acme makes widgets"), "sentence"),
            (lambda d: d["sents"][1].__setitem__(0, 5), "sentence"),
            (lambda d: d["vertexSet"].__setitem__(2, 5), r"vertexSet\[2\]"),
            (lambda d: d["vertexSet"].__setitem__(2, []), r"vertexSet\[2\]"),
            (lambda d: d["vertexSet"][2][0].__setitem__("pos", [0, float("inf")]),
             r"vertexSet\[2\]: bad mention"),
            (lambda d: d["labels"][0].__setitem__("h", float("inf")), "bad label record"),
        ],
        ids=["sentence-string", "token-number", "entity-number", "entity-empty",
             "pos-infinite", "label-infinite"],
    )
    def test_malformed_sentence_or_entity_rejected(self, tmp_path, edit, message):
        doc = json.loads(json.dumps(DOC))
        edit(doc)
        with pytest.raises(DataFormatError, match=f"fixture.*{message}"):
            load_docred_json(write(tmp_path, [doc]), dim=16)

    def test_repeated_title_rejected(self, tmp_path):
        # the same title and entity names yield the same (doc, head, tail) pairs
        message = r"docred\.json: duplicate entity pair: doc='fixture'"
        with pytest.raises(DataFormatError, match=message):
            load_docred_json(write(tmp_path, [DOC, DOC]), dim=16)

    def test_entity_ids_shared_across_documents(self, tmp_path):
        second = dict(DOC)
        second = json.loads(json.dumps(DOC))
        second["title"] = "fixture2"
        corpus = load_docred_json(write(tmp_path, [DOC, second]), dim=16)
        by_doc = corpus.examples_by_document()
        first_ids = {
            corpus.examples[i].head_id for i in by_doc["fixture"]
        }
        second_ids = {
            corpus.examples[i].head_id for i in by_doc["fixture2"]
        }
        assert first_ids == second_ids  # same surface names, same global ids

    def test_pairs_of_one_entity_share_its_mention_array(self, tmp_path):
        # one array per entity, not one per pair: the benchmark's DocRED
        # workload holds every mention row once
        spec = importlib.util.spec_from_file_location(
            "docred_gen",
            os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "docred_gen.py"),
        )
        docred_gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(docred_gen)
        path = tmp_path / "docred.json"
        docred_gen.write_docred_json(path, seed=0, num_docs=2)
        corpus = load_docred_json(path, dim=16)
        first = {}
        for ex in corpus.examples:
            for entity, vectors in ((ex.head_id, ex.head_vectors), (ex.tail_id, ex.tail_vectors)):
                assert first.setdefault(entity, vectors) is vectors
        assert 2 * len(first) < len(corpus.examples)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cuts=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=3),
    truncate=st.booleans(),
)
def test_corrupted_file_loads_or_raises_docrel_error(tmp_path_factory, cuts, truncate):
    """Flipped bytes and truncation end in a load or a DocrelError, never a raw exception."""
    path = write(tmp_path_factory.mktemp("mutate"), [DOC])
    data = bytearray(path.read_bytes())
    for position, value in cuts:
        data[position % len(data)] = value
    if truncate:
        data = data[: cuts[0][0] % len(data)]
    path.write_bytes(bytes(data))
    try:
        load_docred_json(path, dim=16)
    except DocrelError:
        pass


class TestHashedFeaturizer:
    def test_deterministic(self):
        a, ctx_a = hashed_featurizer(["alpha", "beta"], ["gamma"], 32)
        b, ctx_b = hashed_featurizer(["alpha", "beta"], ["gamma"], 32)
        assert np.array_equal(a, b) and np.array_equal(ctx_a, ctx_b)

    def test_empty_window_zero_context(self):
        _, ctx = hashed_featurizer(["alpha"], [], 32)
        assert np.all(ctx == 0.0)

    def test_nonzero_vectors_unit_norm(self):
        vec, _ = hashed_featurizer(["alpha", "beta"], [], 32)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_dim_floor(self):
        with pytest.raises(ConfigError):
            hashed_featurizer(["a"], [], 4)

    def test_bucket_collision_rate_near_one_over_dim(self):
        # distinct tokens collide in a bucket with probability about 1/d
        from docrel.docred import _bucket

        dim = 64
        words = [f"tok{i}" for i in range(400)]
        buckets = {w: _bucket(w, dim)[0] for w in words}
        pairs = list(combinations(words, 2))
        collisions = sum(1 for a, b in pairs if buckets[a] == buckets[b])
        rate = collisions / len(pairs)
        assert abs(rate - 1.0 / dim) < 0.5 / dim, rate
