import hashlib
import importlib.util
import json
import os
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel import docred
from docrel.core import logsumexp_pool
from docrel.docred import _bucket, hashed_featurizer, load_docred_json
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

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        path = write(tmp_path, [DOC])
        path.write_text(path.read_text().replace('"h": 0', '"h": ' + "1" * 5000, 1))
        with pytest.raises(DataFormatError, match=r"docred\.json: not valid JSON: .*digits"):
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
            # a float or a boolean is refused, not truncated to an integer
            (lambda d: d["labels"][0].__setitem__("h", 0.7),
             "bad label record: field 'h' holds 0.7, not an integer"),
            (lambda d: d["labels"][1].__setitem__("t", True),
             "bad label record: field 't' holds True, not an integer"),
            (lambda d: d["vertexSet"][1][1].__setitem__("sent_id", 1.9),
             r"vertexSet\[1\]: bad mention: field 'sent_id' holds 1.9, not an integer"),
            (lambda d: d["vertexSet"][2][0].__setitem__("pos", [4.2, 5.9]),
             r"vertexSet\[2\]: bad mention: field 'pos' holds 4.2, not an integer"),
        ],
        ids=["sentence-string", "token-number", "entity-number", "entity-empty",
             "pos-infinite", "label-infinite", "label-h-float", "label-t-bool",
             "sent-id-float", "pos-float"],
    )
    def test_malformed_sentence_or_entity_rejected(self, tmp_path, edit, message):
        doc = json.loads(json.dumps(DOC))
        edit(doc)
        message = rf"docred\.json: document 'fixture': .*{message}"
        with pytest.raises(DataFormatError, match=message):
            load_docred_json(write(tmp_path, [doc]), dim=16)

    @pytest.mark.parametrize("bad_label_first", [True, False])
    def test_first_fault_in_file_order_reported(self, tmp_path, bad_label_first):
        """Each document is checked in full before the next one's mentions."""
        bad_label = json.loads(json.dumps(DOC))
        bad_label["labels"][0]["t"] = 7
        bad_span = json.loads(json.dumps(DOC))
        bad_span["vertexSet"][1][1]["pos"] = [2, 1]
        docs = [bad_label, bad_span] if bad_label_first else [bad_span, bad_label]
        for pos, doc in enumerate(docs):
            doc["title"] = f"doc{pos}"
        first = "label entity index out of range" if bad_label_first else r"pos \[2, 1\]"
        with pytest.raises(DataFormatError, match=rf"document 'doc0': .*{first}"):
            load_docred_json(write(tmp_path, docs), dim=16)

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
        by_doc = corpus.document_groups
        first_ids = {
            corpus.examples[i].head_id for i in by_doc["fixture"]
        }
        second_ids = {
            corpus.examples[i].head_id for i in by_doc["fixture2"]
        }
        assert first_ids == second_ids  # same surface names, same global ids

    def test_document_too_large_for_the_mention_grid_rejected(self, tmp_path, monkeypatch):
        # 60 entities, one with 600 mentions: a closest-mention grid of
        # 60 * 60 * 600 * 600 cells, 9.66 GiB as int64, is refused unbuilt
        sents = [["Big", "said", "so", "."] for _ in range(600)]
        sents += [[f"E{e}", "was", "there", "."] for e in range(1, 60)]
        vertex_set = [[{"name": "Big", "sent_id": k, "pos": [0, 1]} for k in range(600)]]
        vertex_set += [[{"name": f"E{e}", "sent_id": 599 + e, "pos": [0, 1]}]
                       for e in range(1, 60)]
        doc = {"title": "crowded", "sents": sents, "vertexSet": vertex_set, "labels": []}
        path = write(tmp_path, [doc, DOC])

        def refuse(*args):
            raise AssertionError("featurized a document past the grid bound")

        monkeypatch.setattr(docred, "_document_pairs", refuse)
        monkeypatch.setattr(docred, "_closest_spans", refuse)
        message = r"docred\.json: document 'crowded': 60 entities, the largest with 600 mentions"
        with pytest.raises(DataFormatError, match=message):
            load_docred_json(path, dim=16)

    def test_pairs_of_one_entity_share_its_mention_array(self, tmp_path):
        # one pooled row per entity, not one per pair: the benchmark's DocRED
        # workload holds every entity row once
        corpus = load_docred_json(docred_gen_file(tmp_path / "docred.json", 0, 2), dim=16)
        first = {}
        for ex in corpus.examples:
            for entity, row in ((ex.head_id, ex.head_vectors), (ex.tail_id, ex.tail_vectors)):
                assert first.setdefault(entity, row) is row
        assert 2 * len(first) < len(corpus.examples)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_vector(tokens, dim):
    """The featurizer spelled out: one hash and one addition per gram."""
    vec = np.zeros(dim)
    for gram in list(tokens) + [f"{a}__{b}" for a, b in zip(tokens, tokens[1:])]:
        index, sign = _bucket(gram, dim)
        vec[index] += sign
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def reference_pairs(path):
    """What the loader does, one ordered pair at a time, on a well-formed file.

    Returns the sorted relations and, per pair in load order, its doc, head
    and tail ids, the token lists of its head and tail mentions, its context
    window and its label set.
    """
    with open(path, encoding="utf-8") as fh:
        docs = json.load(fh)
    relations = sorted({label["r"] for doc in docs for label in doc.get("labels", [])})
    entity_ids = {}
    pairs = []
    for doc in docs:
        tokens = [tok for sent in doc["sents"] for tok in sent]
        offsets = [sum(map(len, doc["sents"][:k])) for k in range(len(doc["sents"]))]
        entities = []
        for mentions in doc["vertexSet"]:
            spans = [(offsets[m["sent_id"]] + m["pos"][0], offsets[m["sent_id"]] + m["pos"][1])
                     for m in mentions]
            entities.append((entity_ids.setdefault(mentions[0]["name"], len(entity_ids)), spans))
        labels = {}
        for label in doc.get("labels", []):
            labels.setdefault((label["h"], label["t"]), set()).add(relations.index(label["r"]))
        for h, (h_id, h_spans) in enumerate(entities):
            for t, (t_id, t_spans) in enumerate(entities):
                if h_id == t_id:
                    continue
                best = None
                for h_lo, h_hi in h_spans:
                    for t_lo, t_hi in t_spans:
                        gap = max(t_lo - h_hi, h_lo - t_hi, 0)
                        if best is None or gap < best[0]:
                            best = (gap, min(h_lo, t_lo), max(h_hi, t_hi))
                pairs.append((
                    doc["title"], h_id, t_id,
                    [tokens[lo:hi] for lo, hi in h_spans],
                    [tokens[lo:hi] for lo, hi in t_spans],
                    tokens[max(0, best[1] - 5) : best[2] + 5],
                    frozenset(labels.get((h, t), ())),
                ))
    return relations, pairs


# Sentence 0 has 14 tokens and sentence 1 has 2. Ann's first two mentions
# are 3 tokens from Bob on either side, a tie either way round; Ann's third
# mention touches Cy. Windows are clipped at the start (Ann, Bob) and at
# the end (Ann, Cy).
TIES = {
    "title": "ties",
    "sents": [["Ann", "a", "b", "c", "Bob", "d", "e", "f", "Ann", "g", "h", "i", "j", "Cy"],
              ["Ann", "k"]],
    "vertexSet": [
        [{"name": "Ann", "sent_id": 0, "pos": [0, 1]}, {"name": "Ann", "sent_id": 0, "pos": [8, 9]},
         {"name": "Ann", "sent_id": 1, "pos": [0, 1]}],
        [{"name": "Bob", "sent_id": 0, "pos": [4, 5]}],
        [{"name": "Cy", "sent_id": 0, "pos": [13, 14]}],
    ],
    "labels": [{"h": 0, "t": 1, "r": "P1"}, {"h": 0, "t": 1, "r": "P3"},
               {"h": 2, "t": 0, "r": "P2"}],
}
# every window is one token, which has no bigram
SOLO = {
    "title": "solo",
    "sents": [["Solo"]],
    "vertexSet": [[{"name": "Solo", "sent_id": 0, "pos": [0, 1]}],
                  [{"name": "Alias", "sent_id": 0, "pos": [0, 1]}]],
}
# two vertexSet entries sharing a name: one entity id, and no pair
TWINS = {
    "title": "twins",
    "sents": [["Twin", "and", "Twin"]],
    "vertexSet": [[{"name": "Twin", "sent_id": 0, "pos": [0, 1]}],
                  [{"name": "Twin", "sent_id": 0, "pos": [2, 3]}]],
}


def docred_gen_file(path, seed, num_docs):
    spec = importlib.util.spec_from_file_location(
        "docred_gen",
        os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "docred_gen.py"),
    )
    docred_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docred_gen)
    docred_gen.write_docred_json(path, seed=seed, num_docs=num_docs)
    return path


class TestAgainstReference:
    """The loader's rows are bitwise those of a per-pair loop: each side the
    ``logsumexp_pool`` of its mentions' featurizer vectors."""

    @staticmethod
    def assert_matches_reference(path, dim):
        corpus = load_docred_json(path, dim=dim)
        relations, pairs = reference_pairs(path)
        assert corpus.vocabulary.relations == tuple(relations)
        assert [(ex.doc_id, ex.head_id, ex.tail_id, ex.positive_relations)
                for ex in corpus.examples] == [(p[0], p[1], p[2], p[6]) for p in pairs]
        for ex, (_, _, _, head, tail, window, _) in zip(corpus.examples, pairs):
            for side, row in ((head, ex.head_vectors), (tail, ex.tail_vectors)):
                mentions = np.stack([reference_vector(m, dim) for m in side])
                assert same_bits(mentions, np.stack([hashed_featurizer(m, [], dim)[0]
                                                     for m in side]))
                assert same_bits(row, logsumexp_pool(mentions))
            assert same_bits(ex.context, reference_vector(window, dim))
            assert same_bits(hashed_featurizer([], window, dim)[1], ex.context)
        return corpus, pairs

    @pytest.mark.parametrize("dim", [8, 16, 64])
    def test_fixtures(self, tmp_path, dim):
        second = json.loads(json.dumps(DOC))
        second["title"] = "fixture2"
        corpus, pairs = self.assert_matches_reference(
            write(tmp_path, [DOC, TIES, TWINS, SOLO, second]), dim
        )
        assert len(pairs) == 6 + 6 + 2 + 6
        windows = {(p[1], p[2]): p[5] for p in pairs if p[0] == "ties"}
        ann, bob, cy = (corpus.examples[6].head_id, corpus.examples[6].tail_id,
                        corpus.examples[7].tail_id)
        # ties go to the first head mention, then the first tail mention
        assert windows[ann, bob] == windows[bob, ann] == TIES["sents"][0][:10]
        assert windows[ann, cy] == TIES["sents"][0][8:] + TIES["sents"][1]
        assert [p[5] for p in pairs if p[0] == "solo"] == [["Solo"], ["Solo"]]

    @pytest.mark.parametrize("seed", range(10))
    def test_docred_gen(self, tmp_path, seed):
        self.assert_matches_reference(docred_gen_file(tmp_path / "gen.json", seed, 4), 64)

    def test_vectors_pinned(self, tmp_path):
        corpus = load_docred_json(docred_gen_file(tmp_path / "gen.json", 0, 2))
        digest = hashlib.sha256()
        for ex in corpus.examples:
            for row in (ex.head_vectors, ex.tail_vectors, ex.context):
                digest.update(row.tobytes())
        assert len(corpus.examples) == 200
        assert digest.hexdigest() == PINNED_GEN_SHA256


# sha256 of docred_gen seed 0 (2 documents) loaded at dim 64: every pair's
# pooled head, pooled tail and context bytes in load order, as the loader
# gave them when it kept each mention and corpora pooled them per pair
PINNED_GEN_SHA256 = "0067dae65a59b6f55fea19327ff631e91ef8e78cc9db634614febfa74149080c"


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
        dim = 64
        words = [f"tok{i}" for i in range(400)]
        buckets = {w: _bucket(w, dim)[0] for w in words}
        pairs = list(combinations(words, 2))
        collisions = sum(1 for a, b in pairs if buckets[a] == buckets[b])
        rate = collisions / len(pairs)
        assert abs(rate - 1.0 / dim) < 0.5 / dim, rate
