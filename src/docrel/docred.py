"""Ingestion of DocRED-format JSON and a lightweight hashed featurizer.

The featurizer stands in for a contextual encoder: token unigrams and
bigrams are hashed into ``dim`` signed buckets (SHA-1 based, so vectors do
not depend on the process hash seed) and the result is L2-normalized. It
is deliberately crude; absolute scores on real data are not comparable to
encoder-based systems.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .core import Corpus, LabelSource, PairExample, RelationVocabulary, build_pair_index
from .errors import ConfigError, DataFormatError, DuplicatePairError

__all__ = ["hashed_featurizer", "load_docred_json"]

_CONTEXT_MARGIN = 5


def _bucket(token: str, dim: int) -> tuple[int, float]:
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    index = int.from_bytes(digest[:4], "little") % dim
    sign = 1.0 if digest[4] & 1 else -1.0
    return index, sign


def _hash_tokens(tokens, dim: int) -> np.ndarray:
    vec = np.zeros(dim)
    grams = list(tokens) + [f"{a}__{b}" for a, b in zip(tokens, tokens[1:])]
    for tok in grams:
        idx, sign = _bucket(tok, dim)
        vec[idx] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def hashed_featurizer(mention_tokens, window_tokens, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed-hash embeddings: one for the mention, one for its context window.

    Empty token lists map to zero vectors.
    """
    if dim < 8:
        raise ConfigError(f"featurizer dim must be >= 8, got {dim}")
    return _hash_tokens(list(mention_tokens), dim), _hash_tokens(list(window_tokens), dim)


def _flat_tokens(sents) -> tuple[list[str], list[int]]:
    """Flatten sentences into one token list; return sentence start offsets."""
    tokens: list[str] = []
    offsets: list[int] = []
    for sent in sents:
        offsets.append(len(tokens))
        tokens.extend(sent)
    return tokens, offsets


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
    for label in doc.get("labels", []):
        try:
            triples.append((int(label["h"]), int(label["t"]), str(label["r"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"{path}: document {title!r}: bad label record: {exc}") from exc
    return title, triples


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
    sentence. A file that cannot be read or decoded raises DataFormatError
    naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            documents = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read DocRED file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(documents, list):
        raise DataFormatError(f"{path}: expected a list of documents")

    checked = [_check_document(doc, pos, path) for pos, doc in enumerate(documents)]
    relation_ids = sorted({r for _, triples in checked for _, _, r in triples})
    vocab = RelationVocabulary.from_relations(relation_ids)
    rel_index = {name: k for k, name in enumerate(relation_ids)}

    entity_ids: dict[str, int] = {}

    def intern(name: str) -> int:
        return entity_ids.setdefault(name, len(entity_ids))

    examples: list[PairExample] = []
    for doc, (title, triples) in zip(documents, checked):
        tokens, sent_offsets = _flat_tokens(doc["sents"])

        entities = []
        for ent_pos, mention_list in enumerate(doc["vertexSet"]):
            spans = []
            for m in mention_list:
                try:
                    sent_id = int(m["sent_id"])
                    start, end = int(m["pos"][0]), int(m["pos"][1])
                    name = str(m["name"])
                except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
                    raise DataFormatError(
                        f"{path}: document {title!r}: vertexSet[{ent_pos}]: bad mention: {exc}"
                    ) from exc
                if not 0 <= sent_id < len(sent_offsets):
                    raise DataFormatError(
                        f"{path}: document {title!r}: vertexSet[{ent_pos}]: sent_id {sent_id} "
                        f"outside the document's {len(sent_offsets)} sentences"
                    )
                sent_len = len(doc["sents"][sent_id])
                if not 0 <= start < end <= sent_len:
                    raise DataFormatError(
                        f"{path}: document {title!r}: vertexSet[{ent_pos}]: pos [{start}, {end}] "
                        f"is not a span of sentence {sent_id} ({sent_len} tokens)"
                    )
                lo = sent_offsets[sent_id] + start
                hi = sent_offsets[sent_id] + end
                spans.append((name, lo, hi))
            ent_id = intern(spans[0][0])
            # featurized once per entity; every pair of the entity shares the array
            mentions = np.stack(
                [hashed_featurizer(tokens[lo:hi], [], dim)[0] for _, lo, hi in spans]
            )
            entities.append((ent_id, spans, mentions))

        pair_labels: dict[tuple[int, int], set[int]] = {}
        for h, t, r in triples:
            if not (0 <= h < len(entities)) or not (0 <= t < len(entities)):
                raise DataFormatError(
                    f"{path}: document {title!r}: label entity index out of range"
                )
            pair_labels.setdefault((h, t), set()).add(rel_index[r])

        for h_pos in range(len(entities)):
            for t_pos in range(len(entities)):
                if h_pos == t_pos:
                    continue
                h_id, h_spans, h_mentions = entities[h_pos]
                t_id, t_spans, t_mentions = entities[t_pos]
                if h_id == t_id:
                    # distinct vertexSet entries sharing a surface name
                    continue

                # context = tokens between (and just around) the closest mentions
                best = None
                for _, hlo, hhi in h_spans:
                    for _, tlo, thi in t_spans:
                        gap = max(tlo - hhi, hlo - thi, 0)
                        if best is None or gap < best[0]:
                            best = (gap, min(hlo, tlo), max(hhi, thi))
                _, lo, hi = best
                window = tokens[max(0, lo - _CONTEXT_MARGIN) : hi + _CONTEXT_MARGIN]
                _, context = hashed_featurizer([], window, dim)

                labels = frozenset(pair_labels.get((h_pos, t_pos), set()))
                examples.append(
                    PairExample(
                        doc_id=str(title),
                        head_id=h_id,
                        tail_id=t_id,
                        head_vectors=h_mentions,
                        tail_vectors=t_mentions,
                        context=context,
                        positive_relations=labels,
                        gold_positive_relations=None,
                    )
                )

    corpus = Corpus(
        vocabulary=vocab,
        examples=tuple(examples),
        label_source=LabelSource.ORIGINAL,
        embedding_dim=dim,
    )
    try:
        build_pair_index(corpus)
    except DuplicatePairError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return corpus
