"""Seeded generator of DocRED-format JSON documents (Yao et al. 2019 layout).

Each document has 10-16 entities with 1-3 mentions each. A mention's span
is its entity-type token, so the hashed featurizer sees the type; the
``name`` field, which ingestion interns as the entity id, is unique within
the corpus. A relation holds for an ordered entity pair exactly when the
pair's (head type, tail type) is that relation's signature, so the labels
are a function of features the library computes. With 16 types and 8
signatures about 3% of the pairs are positive. All names are distinct
within a document, so ingestion yields exactly ``n * (n - 1)`` pairs per
document.
"""

from __future__ import annotations

import json

import numpy as np

TYPES = tuple(f"T{k}" for k in range(16))
# relation id -> (head type, tail type)
SIGNATURES = {
    "P17": ("T0", "T1"),
    "P27": ("T2", "T1"),
    "P569": ("T2", "T3"),
    "P108": ("T2", "T0"),
    "P131": ("T1", "T1"),
    "P571": ("T0", "T3"),
    "P1082": ("T1", "T4"),
    "P361": ("T5", "T0"),
}
RELATION_OF = {sig: rel for rel, sig in SIGNATURES.items()}
FILLER = tuple(f"w{k}" for k in range(200))
MENTIONS_PER_SENTENCE = 2


def generate_documents(
    seed: int, num_docs: int = 30, entities: tuple[int, int] = (10, 16)
) -> tuple[list[dict], dict]:
    """Return the documents and the counts ingestion is expected to produce."""
    rng = np.random.default_rng([seed, 0xD0C])
    docs = []
    expected = {"pairs": 0, "positive_pairs": 0}
    for d in range(num_docs):
        # Document d's shape (entity count, and the multisets of entity types
        # and of mention counts) is the same for every seed; the seed deals
        # types and mention counts to the entities, orders the mentions and
        # picks the filler. So pairs, positive pairs, mentions and batch
        # composition, which set the cost, do not vary with the seed.
        n = entities[0] + d % (entities[1] - entities[0] + 1)
        shape = np.random.default_rng([0xD0C, d])
        pool = list(zip(shape.integers(0, len(TYPES), size=n), shape.integers(1, 4, size=n)))
        dealt = [pool[int(i)] for i in rng.permutation(n)]
        types = [TYPES[int(t)] for t, _ in dealt]
        mentions = [e for e, (_, count) in enumerate(dealt) for _ in range(int(count))]
        mentions = [mentions[int(i)] for i in rng.permutation(len(mentions))]
        sents: list[list[str]] = []
        vertex: list[list[dict]] = [[] for _ in range(n)]
        for start in range(0, len(mentions), MENTIONS_PER_SENTENCE):
            sentence = _filler(rng)
            for ent in mentions[start : start + MENTIONS_PER_SENTENCE]:
                vertex[ent].append(
                    {
                        "name": f"{types[ent]}_{d}_{ent}",
                        "sent_id": len(sents),
                        "pos": [len(sentence), len(sentence) + 1],
                        "type": types[ent],
                    }
                )
                sentence += [types[ent]] + _filler(rng)
            sents.append(sentence)
        labels = [
            {"h": h, "t": t, "r": RELATION_OF[(types[h], types[t])], "evidence": []}
            for h in range(n)
            for t in range(n)
            if h != t and (types[h], types[t]) in RELATION_OF
        ]
        docs.append({"title": f"doc{d}", "sents": sents, "vertexSet": vertex, "labels": labels})
        expected["pairs"] += n * (n - 1)
        expected["positive_pairs"] += len(labels)
    return docs, expected


def _filler(rng) -> list[str]:
    return [FILLER[int(i)] for i in rng.integers(0, len(FILLER), size=int(rng.integers(2, 7)))]


def write_docred_json(path, seed: int, num_docs: int = 30) -> dict:
    """Write the documents to ``path``; return the expected ingestion counts."""
    docs, expected = generate_documents(seed, num_docs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(docs, fh)
    return expected
