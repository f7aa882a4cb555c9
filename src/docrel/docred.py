"""Ingestion of DocRED-format JSON and a lightweight hashed featurizer.

The featurizer stands in for a contextual encoder: token unigrams and
bigrams are hashed into ``dim`` signed buckets (SHA-1 based, so vectors do
not depend on the process hash seed) and the result is L2-normalized. It
is deliberately crude; absolute scores on real data are not comparable to
encoder-based systems.

The loader hashes each distinct gram once per call and builds every mention
and context vector of a document from two prefix sums over its tokens, one
of signed unigram buckets and one of signed bigram buckets. Every entry is
a sum of +-1, held exactly in float64 in any order of addition, so the
vectors are bitwise those of :func:`hashed_featurizer` on the same tokens.
Each entity's mention vectors are then log-sum-exp pooled once, every
entity of the file in one call, and all pairs of an entity share its row.
"""

from __future__ import annotations

import hashlib
import json
from operator import attrgetter

import numpy as np

from .core import (Corpus, LabelSource, PairExample, RelationVocabulary, _first_indices,
                   _segment_lse)
from .errors import ConfigError, DataFormatError

__all__ = ["hashed_featurizer", "load_docred_json"]

_CONTEXT_MARGIN = 5
# the closest-mention search builds a few int64 (E, E, W, W) grids per
# document of E entities, the largest with W mentions: at most 128 MiB each
_MAX_GRID_CELLS = 1 << 24


def _bucket(token: str, dim: int) -> tuple[int, float]:
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    index = int.from_bytes(digest[:4], "little") % dim
    sign = 1.0 if digest[4] & 1 else -1.0
    return index, sign


def _check_dim(dim: int) -> None:
    if dim < 8:
        raise ConfigError(f"featurizer dim must be >= 8, got {dim}")


def _signed_prefix(grams: list[str], buckets: dict, dim: int) -> np.ndarray:
    """``(len(grams) + 1, dim)``: row ``j`` sums the signed buckets of ``grams[:j]``."""
    for gram in grams:
        if gram not in buckets:
            buckets[gram] = _bucket(gram, dim)
    prefix = np.zeros((len(grams) + 1, dim))
    if grams:
        index, sign = zip(*map(buckets.__getitem__, grams))
        prefix[np.arange(1, len(grams) + 1), index] = sign
        np.cumsum(prefix, axis=0, out=prefix)
    return prefix


def _prefix_sums(tokens: list[str], buckets: dict, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A token list's unigram and bigram prefix sums; ``buckets`` caches each gram's hash."""
    bigrams = [f"{a}__{b}" for a, b in zip(tokens, tokens[1:])]
    return _signed_prefix(tokens, buckets, dim), _signed_prefix(bigrams, buckets, dim)


def _window_rows(prefix, starts, ends) -> np.ndarray:
    """``(n, dim)``: the L2-normalized features of the windows ``tokens[start:end]``.

    A window holds the unigrams ``[start, end)`` and the bigrams that start
    in ``[start, end - 1)``; an empty window, or one whose buckets cancel,
    is a zero row.
    """
    unigrams, bigrams = prefix
    starts, ends = np.asarray(starts), np.asarray(ends)
    last_bigram = np.maximum(ends - 1, starts)
    rows = (unigrams[ends] - unigrams[starts]) + (bigrams[last_bigram] - bigrams[starts])
    # a sum of squared integers: the same bits as np.linalg.norm of each row
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    return np.divide(rows, norms, out=rows, where=norms > 0)


def hashed_featurizer(mention_tokens, window_tokens, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed-hash embeddings: one for the mention, one for its context window.

    Empty token lists map to zero vectors.
    """
    _check_dim(dim)
    token_lists = (list(mention_tokens), list(window_tokens))
    return tuple(_window_rows(_prefix_sums(t, {}, dim), [0], [len(t)])[0] for t in token_lists)


def _flat_tokens(sents) -> tuple[list[str], list[int]]:
    """Flatten sentences into one token list; return sentence start offsets."""
    tokens: list[str] = []
    offsets: list[int] = []
    for sent in sents:
        offsets.append(len(tokens))
        tokens.extend(sent)
    return tokens, offsets


def _integer(value, field: str, where: str) -> int:
    """``value`` if it is a JSON integer; a float or a boolean is refused, not truncated."""
    if type(value) is not int:
        raise DataFormatError(f"{where}: field {field!r} holds {value!r}, not an integer")
    return value


def _check_document(doc, doc_pos: int, path) -> tuple[str, list[tuple[int, int, str]]]:
    """Check one document's structure; return its title and its (h, t, r) labels."""
    if not isinstance(doc, dict):
        raise DataFormatError(
            f"{path}: document {doc_pos}: expected an object, got {type(doc).__name__}"
        )
    title = doc.get("title", f"doc{doc_pos}")
    for fld in ("sents", "vertexSet"):
        if fld not in doc:
            raise DataFormatError(f"{path}: document {title!r}: missing field {fld!r}")
    for fld in ("sents", "vertexSet", "labels"):
        if not isinstance(doc.get(fld, []), list):
            raise DataFormatError(f"{path}: document {title!r}: field {fld!r} is not a list")
    for sent in doc["sents"]:
        if not isinstance(sent, list) or not all(isinstance(tok, str) for tok in sent):
            raise DataFormatError(f"{path}: document {title!r}: a sentence is not a token list")
    for ent_pos, mention_list in enumerate(doc["vertexSet"]):
        if not isinstance(mention_list, list) or not mention_list:
            raise DataFormatError(
                f"{path}: document {title!r}: vertexSet[{ent_pos}] is not a list of mentions"
            )
    triples = []
    where = f"{path}: document {title!r}: bad label record"
    for label in doc.get("labels", []):
        try:
            h = _integer(label["h"], "h", where)
            t = _integer(label["t"], "t", where)
            triples.append((h, t, str(label["r"])))
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
    return title, triples


def _mention_span(m, sents, sent_offsets, where: str) -> tuple[str, int, int]:
    """A checked mention's name and its ``[lo, hi)`` span in the flat token list."""
    bad = f"{where}: bad mention"
    try:
        sent_id = _integer(m["sent_id"], "sent_id", bad)
        start = _integer(m["pos"][0], "pos", bad)
        end = _integer(m["pos"][1], "pos", bad)
        name = str(m["name"])
    except (KeyError, IndexError, TypeError) as exc:
        raise DataFormatError(f"{bad}: {exc}") from exc
    if not 0 <= sent_id < len(sent_offsets):
        raise DataFormatError(
            f"{where}: sent_id {sent_id} outside the document's {len(sent_offsets)} sentences"
        )
    sent_len = len(sents[sent_id])
    if not 0 <= start < end <= sent_len:
        raise DataFormatError(
            f"{where}: pos [{start}, {end}] is not a span of sentence {sent_id} ({sent_len} tokens)"
        )
    return name, sent_offsets[sent_id] + start, sent_offsets[sent_id] + end


def _closest_spans(lo: np.ndarray, hi: np.ndarray, counts: list[int]):
    """For every ordered entity pair, the span covering its closest mentions.

    ``lo``/``hi`` hold the mention spans entity by entity, ``counts[e]``
    mentions for entity ``e``. The closest mentions are those with the
    smallest gap between them, the first in (head mention, tail mention)
    order on a tie. Returns ``(E, E)`` arrays of the covering span's ends.
    """
    width = max(counts)
    valid = np.arange(width) < np.array(counts)[:, None]
    los = np.zeros(valid.shape, dtype=np.int64)
    his = np.zeros(valid.shape, dtype=np.int64)
    los[valid], his[valid] = lo, hi
    # axes: head entity, tail entity, head mention, tail mention
    h_lo, h_hi = los[:, None, :, None], his[:, None, :, None]
    t_lo, t_hi = los[None, :, None, :], his[None, :, None, :]
    gaps = np.maximum(np.maximum(t_lo - h_hi, h_lo - t_hi), 0)
    gaps[~(valid[:, None, :, None] & valid[None, :, None, :])] = np.iinfo(np.int64).max
    n = len(counts)
    # argmin returns the first minimum: the strict-< scan order
    head_m, tail_m = np.divmod(gaps.reshape(n, n, width * width).argmin(axis=2), width)
    entity = np.arange(n)
    head_rows, tail_rows = (entity[:, None], head_m), (entity[None, :], tail_m)
    return np.minimum(los[head_rows], los[tail_rows]), np.maximum(his[head_rows], his[tail_rows])


def _document_pairs(tokens, ids, spans, counts, buckets, dim):
    """One document's mention rows, entity by entity, and every ordered pair
    of its distinct entities, head-major: head and tail positions and the
    pair's context row."""
    prefix = _prefix_sums(tokens, buckets, dim)
    lo, hi = np.array(spans, dtype=np.int64).reshape(-1, 2).T
    id_array = np.array(ids)
    # distinct vertexSet entries sharing a surface name make no pair
    heads, tails = np.nonzero(id_array[:, None] != id_array[None, :])
    # context = tokens between (and just around) the closest mentions
    span_lo, span_hi = _closest_spans(lo, hi, counts)
    starts = np.maximum(span_lo[heads, tails] - _CONTEXT_MARGIN, 0)
    ends = np.minimum(span_hi[heads, tails] + _CONTEXT_MARGIN, len(tokens))
    return _window_rows(prefix, lo, hi), heads, tails, _window_rows(prefix, starts, ends)


def load_docred_json(path, dim: int = 64) -> Corpus:
    """Read a DocRED-format JSON file into a corpus of all ordered entity pairs.

    Expected per-document fields: ``title``, ``sents`` (token arrays),
    ``vertexSet`` (entities as mention lists with ``name``, ``sent_id``,
    ``pos``), and optionally ``labels`` with ``h``/``t``/``r`` keys. Pairs
    absent from the labels become NA. Entities get corpus-global ids by
    interning their names, so the same surface entity shares one id across
    documents. A malformed document, or two yielding the same (title, head,
    tail) pair, raises DataFormatError naming the path and the document; a
    mention's ``pos`` must be a non-empty span ``[start, end)`` inside its
    sentence, and ``h``, ``t``, ``sent_id`` and ``pos`` must be integers. A
    document whose closest-mention grid (entities squared times the largest
    mention count squared) exceeds ``_MAX_GRID_CELLS`` raises
    DataFormatError before the grid is allocated. A file that cannot be
    read or decoded raises DataFormatError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            documents = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read DocRED file: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4,300 digits
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(documents, list):
        raise DataFormatError(f"{path}: expected a list of documents")

    checked = [_check_document(doc, pos, path) for pos, doc in enumerate(documents)]
    relation_ids = sorted({r for _, triples in checked for _, _, r in triples})
    vocab = RelationVocabulary.from_relations(relation_ids)
    rel_index = {name: k for k, name in enumerate(relation_ids)}

    entity_ids: dict[str, int] = {}
    buckets: dict[str, tuple[int, float]] = {}  # gram -> (bucket, sign), hashed once per call
    documents_pairs = []  # title, ids, first entity row, heads, tails, contexts, labels
    mention_rows, entity_sizes = [], []
    for doc, (title, triples) in zip(documents, checked):
        tokens, sent_offsets = _flat_tokens(doc["sents"])

        ids, spans, counts = [], [], []
        for ent_pos, mention_list in enumerate(doc["vertexSet"]):
            where = f"{path}: document {title!r}: vertexSet[{ent_pos}]"
            named = [_mention_span(m, doc["sents"], sent_offsets, where) for m in mention_list]
            # a bad dim is reported where the first mention would be featurized
            _check_dim(dim)
            ids.append(entity_ids.setdefault(named[0][0], len(entity_ids)))
            spans.extend((lo, hi) for _, lo, hi in named)
            counts.append(len(named))

        pair_labels: dict[tuple[int, int], set[int]] = {}
        for h, t, r in triples:
            if not (0 <= h < len(ids)) or not (0 <= t < len(ids)):
                raise DataFormatError(
                    f"{path}: document {title!r}: label entity index out of range"
                )
            pair_labels.setdefault((h, t), set()).add(rel_index[r])

        cells = len(ids) ** 2 * max(counts, default=0) ** 2
        if cells > _MAX_GRID_CELLS:
            raise DataFormatError(
                f"{path}: document {title!r}: {len(ids)} entities, the largest with "
                f"{max(counts)} mentions, need a closest-mention grid of {cells:,} cells; "
                f"at most {_MAX_GRID_CELLS:,} are allowed"
            )
        if ids:
            rows, *pairs = _document_pairs(tokens, ids, spans, counts, buckets, dim)
            documents_pairs.append((title, ids, len(entity_sizes), *pairs, pair_labels))
            mention_rows.append(rows)
            entity_sizes += counts

    # each entity of each document pooled once; its pairs share the row
    entity_rows = []
    if entity_sizes:
        entity_rows = list(_segment_lse(np.concatenate(mention_rows), entity_sizes))
    examples = [
        PairExample(
            doc_id=str(title),
            head_id=ids[h],
            tail_id=ids[t],
            head_vectors=entity_rows[first + h],
            tail_vectors=entity_rows[first + t],
            context=context,
            positive_relations=frozenset(pair_labels.get((h, t), ())),
            gold_positive_relations=None,
        )
        for title, ids, first, heads, tails, contexts, pair_labels in documents_pairs
        for h, t, context in zip(heads.tolist(), tails.tolist(), contexts)
    ]

    keys = list(map(attrgetter("doc_id", "head_id", "tail_id"), examples))
    if len(set(keys)) != len(keys):  # name the first pair that repeats an earlier one
        doc, head, tail = keys[int((_first_indices(keys) != np.arange(len(keys))).argmax())]
        raise DataFormatError(f"{path}: duplicate entity pair: doc={doc!r} head={head} tail={tail}")
    return Corpus(
        vocabulary=vocab,
        examples=tuple(examples),
        label_source=LabelSource.ORIGINAL,
        embedding_dim=dim,
    )
