"""Synthetic long-tail corpora with controllable false-negative corruption.

The generator builds a small world first: one unit prototype direction per
relation, one unit base vector per entity, and a knowledge graph of entity
pairs with Zipf-distributed relation assignments. Documents then sample
pairs from that world; a positive pair's mention and context embeddings
mix its relations' prototypes with noise, while NA pairs draw isotropic
background directions of comparable norm. Because facts live in the world
rather than in single documents, the same (head, relation, tail) fact can
recur across splits, which keeps train-fact exclusion meaningful. A
regime's three splits share one world.

A split is generated in two phases. A draw loop makes every random draw of
each document's stream in order (pair kind, pair ids, the context's
normals, then each side's mention count and normals) and keeps them raw,
with each pair's document, entity ids, knowledge-graph entry and mixture.
At the end of a document, once a run holds ``_POOL_SIDES`` sides or more,
one array pass turns the run's draws into context and mention rows, with
each element's operations in the order of the per-pair formula, and pools
each side into its row. The split is then built as records, the arrays a
corpus file holds, with no object per pair.

Corruption relabels positive pairs as NA while keeping the gold label set
on the side, which is exactly the false-negative noise the sampled
objective is meant to survive: ``relabel_as_na`` rewrites the label bits
and gold flags of the pairs of a mask. It comes in two modes: ``example``
drops each positive pair independently with the noise rate, and ``fact``
hides a sampled set of (head, tail) fact pairs wherever they occur, so the
same facts go missing in every corrupted split.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Corpus,
    LabelSource,
    RelationVocabulary,
    _Records,
    _segment_lse,
    label_mask,
    load_corpus,
    save_corpus,
)
from .errors import ConfigError, ContractError, DataFormatError
from .rng import stream

__all__ = [
    "SyntheticConfig",
    "Regime",
    "generate_synthetic_corpus",
    "generate_regime_splits",
    "relabel_as_na",
    "assemble_regime",
    "save_regime",
    "load_regime",
]

REGIME_KINDS = ("OOG", "OGG", "GGG", "OOO")
CORRUPTION_MODES = ("example", "fact")
# sides per array pass: a run of pairs' raw draws is turned into rows and
# pooled once it holds this many sides, which bounds the pass's temporaries,
# so that generating a split holds little beside the pairs it has built
_POOL_SIDES = 256


def _zipf_weights(num_relations: int, exponent: float) -> np.ndarray:
    """Relation frequencies ``k ** -exponent``, k = 1..num_relations, unnormalized."""
    with np.errstate(over="ignore"):  # SyntheticConfig rejects the inf
        return np.arange(1, num_relations + 1, dtype=np.float64) ** (-exponent)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic world and one generated split.

    ``zipf_exponent`` controls the skew of relation frequencies; the
    default is calibrated so the ten most frequent relations carry about
    60% of positive labels when ``num_relations`` is 96. Generated splits
    always carry gold labels; labels are removed only when a regime is
    assembled.
    """

    num_relations: int = 96
    num_documents: int = 100
    pairs_per_document: tuple[int, int] = (8, 16)
    zipf_exponent: float = 1.05
    multi_label_rate: float = 0.15
    embedding_dim: int = 32
    prototype_noise_sigma: float = 0.4
    na_fraction: float = 0.5
    num_entities: int = 150
    kg_pairs: int = 300
    mentions_per_entity: tuple[int, int] = (1, 3)
    seed: int = 0
    split: str = "train"

    def __post_init__(self):
        if self.num_relations < 3:
            raise ConfigError("num_relations must be >= 3")
        for name in ("multi_label_rate", "na_fraction"):
            v = getattr(self, name)
            if not (0 <= v < 1):
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        weights = _zipf_weights(self.num_relations, self.zipf_exponent)
        if not (math.isfinite(self.zipf_exponent) and np.isfinite(weights.sum())):
            raise ConfigError(f"zipf_exponent={self.zipf_exponent}: non-finite relation weights")
        if not (math.isfinite(self.prototype_noise_sigma) and self.prototype_noise_sigma >= 0):
            raise ConfigError(
                f"prototype_noise_sigma must be finite and >= 0, got {self.prototype_noise_sigma}"
            )
        if self.embedding_dim < 2:
            raise ConfigError("embedding_dim must be >= 2")
        if self.num_entities < 4:
            raise ConfigError("num_entities must be >= 4")
        max_pairs = self.num_entities * (self.num_entities - 1)
        if self.kg_pairs < 1:
            raise ConfigError(f"kg_pairs must be >= 1, got {self.kg_pairs}")
        if self.kg_pairs >= max_pairs:
            raise ConfigError(
                f"kg_pairs={self.kg_pairs} leaves no room for NA pairs "
                f"(only {max_pairs} ordered pairs exist)"
            )
        lo, hi = self.pairs_per_document
        if not (1 <= lo <= hi):
            raise ConfigError(f"pairs_per_document range {self.pairs_per_document} invalid")
        if hi > max_pairs - self.kg_pairs and self.na_fraction > 0:
            raise ConfigError("pairs_per_document too large for the NA pair pool")
        if not (1 <= self.mentions_per_entity[0] <= self.mentions_per_entity[1]):
            raise ConfigError(f"mentions_per_entity range {self.mentions_per_entity} invalid")


@dataclass(frozen=True, eq=False)
class Regime:
    """A (train, dev, test) triple tagged with its label sources."""

    train: Corpus
    dev: Corpus
    test: Corpus
    name: str

    def __post_init__(self):
        if self.name not in REGIME_KINDS:
            raise ConfigError(f"unknown regime kind {self.name!r}")
        vocab = self.train.vocabulary
        if self.dev.vocabulary.relations != vocab.relations or (
            self.test.vocabulary.relations != vocab.relations
        ):
            raise ConfigError("regime splits must share one relation vocabulary")


class _World:
    """Fixed structures shared by every split generated from one seed."""

    def __init__(self, config: SyntheticConfig):
        rng = stream(config.seed, "world")
        d = config.embedding_dim
        n_rel = config.num_relations

        self.prototypes = rng.normal(size=(n_rel, d))
        self.prototypes /= np.linalg.norm(self.prototypes, axis=1, keepdims=True)
        self.entity_base = rng.normal(size=(config.num_entities, d))
        self.entity_base /= np.linalg.norm(self.entity_base, axis=1, keepdims=True)

        weights = _zipf_weights(n_rel, config.zipf_exponent)
        # ``Generator.choice(n_rel, p=weights / weights.sum())`` looks one random() up in it
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]

        # knowledge graph: ordered entity pairs with persistent label sets
        pair_set: dict[tuple[int, int], frozenset[int]] = {}
        while len(pair_set) < config.kg_pairs:
            h, t = rng.integers(0, config.num_entities, size=2)
            if h == t or (int(h), int(t)) in pair_set:
                continue
            first = int(cdf.searchsorted(rng.random(), side="right"))
            labels = {first}
            if rng.random() < config.multi_label_rate:
                for _ in range(8):
                    second = int(cdf.searchsorted(rng.random(), side="right"))
                    if second != first:
                        labels.add(second)
                        break
            pair_set[(int(h), int(t))] = frozenset(labels)
        self.kg = list(pair_set.items())
        # each knowledge-graph pair's label set as a mask row, then an NA pair's empty row
        self.kg_labels = label_mask([*pair_set.values(), ()], n_rel)
        self._mixtures: dict[frozenset[int], np.ndarray] = {}

    def mixture(self, labels: frozenset[int]) -> np.ndarray:
        """The unit sum of the prototypes of ``labels``, computed once per label set."""
        if labels not in self._mixtures:
            m = self.prototypes[sorted(labels)].sum(axis=0)
            self._mixtures[labels] = m / np.linalg.norm(m)
        return self._mixtures[labels]


def _run_rows(world: _World, run: list[tuple], scales: tuple[float, float]) -> tuple:
    """The ``(n, d)`` head rows, tail rows and contexts of a run of ``n``
    pairs, from each pair's draws ``(head id, tail id, mixture, context,
    head mentions, tail mentions)``: raw standard normals, and the mixture
    None for an NA pair. ``scales`` are the noise scales of a positive and
    an NA pair. Each element takes the per-pair formula's operations in its
    order: a context is ``mixture + z*s`` (NA: ``z*s``) and a mention
    ``(0.6*base + 0.8*mixture) + z*s`` (NA: ``0.6*base + z*s``), pooled by
    ``_segment_lse``."""
    head_ids, tail_ids, mixtures, contexts, head_draws, tail_draws = zip(*run)
    n, sides = len(run), head_draws + tail_draws
    positive = np.array([m is not None for m in mixtures])
    no_mixture = np.zeros(world.prototypes.shape[1])
    mixture = np.array([no_mixture if m is None else m for m in mixtures])
    scale = np.where(positive, *scales)[:, None]
    context = np.array(contexts) * scale
    np.add(mixture, context, out=context, where=positive[:, None])
    sizes = np.array(list(map(len, sides)))
    pair = np.repeat(np.arange(2 * n) % n, sizes)  # each mention's pair
    mentions = 0.6 * world.entity_base[np.repeat(head_ids + tail_ids, sizes)]
    np.add(mentions, 0.8 * mixture[pair], out=mentions, where=positive[pair, None])
    mentions += np.concatenate(sides) * scale[pair]
    pooled = _segment_lse(mentions, sizes)
    return pooled[:n], pooled[n:], context


def generate_synthetic_corpus(config: SyntheticConfig) -> Corpus:
    """Generate one gold-labeled split from the world defined by the config seed."""
    return _generate_split(config, _World(config))


def _generate_split(config: SyntheticConfig, world: _World) -> Corpus:
    """Generate one gold-labeled split from ``world``, the config seed's: a
    draw loop, and ``_run_rows`` once per run of ``_POOL_SIDES`` sides."""
    d = config.embedding_dim
    kg_keys = {pair for pair, _ in world.kg}
    n_kg = len(world.kg)
    m_lo, m_hi = config.mentions_per_entity
    # noise of a positive pair's rows and of an NA pair's: d-vectors of norm about sigma, 1
    scales = (config.prototype_noise_sigma / math.sqrt(d), 1.0 / math.sqrt(d))

    pairs: list[tuple] = []  # doc index, head id, tail id, knowledge-graph index (NA: n_kg)
    run: list[tuple] = []  # the draws of the pairs not yet pooled, as ``_run_rows`` takes them
    rows: list[np.ndarray] = []  # each run's (n, 3, d) head rows, tail rows and contexts
    for doc_index in range(config.num_documents):
        rng = stream(config.seed, config.split, "doc", doc_index)
        lo, hi = config.pairs_per_document
        n_pairs = int(rng.integers(lo, hi + 1))
        seen: set[tuple[int, int]] = set()
        for _ in range(n_pairs):
            if rng.random() >= config.na_fraction:
                # positive: draw a knowledge-graph pair not yet in this doc
                for _ in range(64):
                    fact = int(rng.integers(n_kg))
                    pair, labels = world.kg[fact]
                    if pair not in seen:
                        break
                else:
                    continue
                seen.add(pair)
                h, t = pair
                mixture = world.mixture(labels)
            else:
                # NA: draw an ordered pair outside the knowledge graph
                for _ in range(64):
                    h = int(rng.integers(config.num_entities))
                    t = int(rng.integers(config.num_entities))
                    if h != t and (h, t) not in kg_keys and (h, t) not in seen:
                        break
                else:
                    continue
                seen.add((h, t))
                fact, mixture = n_kg, None
            context = rng.normal(size=d)
            head = rng.normal(size=(int(rng.integers(m_lo, m_hi + 1)), d))
            tail = rng.normal(size=(int(rng.integers(m_lo, m_hi + 1)), d))
            pairs.append((doc_index, h, t, fact))
            run.append((h, t, mixture, context, head, tail))
        if run and (2 * len(run) >= _POOL_SIDES or doc_index == config.num_documents - 1):
            rows.append(np.stack(_run_rows(world, run, scales), axis=1))
            run.clear()

    table = np.array(pairs, np.int64).reshape(-1, 4)
    docs, doc = np.unique(table[:, 0], return_inverse=True)  # doc indices rise with the pairs
    labels = world.kg_labels[table[:, 3]]  # each pair's gold set, its training set too
    bits = np.packbits(labels, axis=1, bitorder="little")
    relations = [f"R{k:03d}" for k in range(config.num_relations)]
    # each relation's count of gold labels, zeros kept, in relation order
    vocab = RelationVocabulary.from_relations(relations,
                                              dict(zip(relations, labels.sum(axis=0).tolist())))
    records = _Records(config.num_relations, d,
                       np.concatenate(rows) if rows else np.empty((0, 3, d)),
                       [f"{config.split}-{k:05d}" for k in docs.tolist()], doc,
                       table[:, 1:3].copy(), np.ones(len(table), np.uint8),
                       np.stack((bits, bits), axis=1))
    return Corpus(vocab, records, LabelSource.SYNTHETIC, d)


def generate_regime_splits(
    config: SyntheticConfig, dev_documents: int, test_documents: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Generate gold train/dev/test splits sharing one world and vocabulary.

    Relation frequencies on all three splits come from the train split.
    Each split needs at least one document.
    """
    for split, count in (
        ("train", config.num_documents), ("dev", dev_documents), ("test", test_documents)
    ):
        if count < 1:
            raise ConfigError(f"data.{split}_docs must be >= 1, got {count}")
    world = _World(config)
    train = _generate_split(replace(config, split="train"), world)
    dev = _generate_split(replace(config, split="dev", num_documents=dev_documents), world)
    test = _generate_split(replace(config, split="test", num_documents=test_documents), world)
    vocab = train.vocabulary
    dev = replace(dev, vocabulary=vocab)
    test = replace(test, vocabulary=vocab)
    return train, dev, test


def relabel_as_na(corpus: Corpus, hide: np.ndarray) -> tuple[Corpus, int]:
    """Relabel as NA every positive pair where the boolean ``(n,)`` mask
    ``hide`` is true; a true entry on an NA pair changes nothing. A
    relabelled pair keeps its gold set as its gold set, or its label set
    where it had none. Returns the corrupted corpus (tagged as
    original/noisy labels), whose records have new label bits and gold
    flags and share the input's rows, ids and documents, and the number of
    pairs relabelled.
    """
    records, hide = corpus._records, np.asarray(hide, dtype=bool)
    if hide.shape != (len(records),):
        raise ContractError(f"relabel mask of shape {hide.shape}, expected ({len(records)},)")
    hide = hide & ~corpus.na_flags
    bits, has_gold = records.bits.copy(), records.has_gold.copy()
    bits[hide, 1] = np.where(has_gold[hide, None] == 1, bits[hide, 1], bits[hide, 0])
    bits[hide, 0] = 0
    has_gold[hide] = 1
    relabelled = _Records(records.n_rel, records.dim, records.rows, records.doc_ids, records.doc,
                          records.ids, has_gold, bits)
    out = replace(corpus, examples=relabelled, label_source=LabelSource.ORIGINAL)
    return out, int(hide.sum())


def assemble_regime(
    gold_splits: tuple[Corpus, Corpus, Corpus],
    noise_rate: float,
    kind: str,
    seed: int = 0,
    corruption: str = "example",
) -> Regime:
    """Build a label-source regime from gold splits.

    Each position of the kind string says where that split's labels come
    from: O = original/noisy, G = gold. The gold train split is never used
    for O-regimes' training; the corrupted variant is.

    ``corruption`` picks the noise model for O splits: ``example`` drops
    each positive example's labels independently (independent streams per
    split, one draw per positive pair in corpus order), while ``fact``
    hides a sampled set of (head, tail) fact pairs consistently across all
    O splits, mimicking an annotation process that misses the same facts in
    train and dev: one draw per distinct positive (head, tail) pair of the
    three splits, in sorted order.
    """
    if kind not in REGIME_KINDS:
        raise ConfigError(f"unknown regime kind {kind!r}")
    if not (0 <= noise_rate < 1):
        raise ConfigError(f"noise rate must be in [0, 1), got {noise_rate}")
    if corruption not in CORRUPTION_MODES:
        raise ConfigError(
            f"unknown corruption mode {corruption!r}; expected one of {CORRUPTION_MODES}"
        )
    positive = [~split.na_flags for split in gold_splits]
    if corruption == "fact":
        keys = np.concatenate([split.pair_ids[p] for split, p in zip(gold_splits, positive)])
        # the distinct (head, tail) rows in the order ``sorted`` gives their tuples
        facts, fact_of = np.unique(keys, axis=0, return_inverse=True)
        hidden = stream(seed, "noise", "facts").random(len(facts)) < noise_rate
        drops = np.split(hidden[fact_of.ravel()], np.cumsum([p.sum() for p in positive])[:2])
    else:
        drops = [stream(seed, "noise", tag).random(p.sum()) < noise_rate
                 for tag, p in zip(("train", "dev", "test"), positive)]

    def pick(split: Corpus, letter: str, p: np.ndarray, drop: np.ndarray) -> Corpus:
        if letter == "G":
            return replace(split, label_source=LabelSource.GOLD)
        hide = p.copy()
        hide[p] = drop
        return relabel_as_na(split, hide)[0]

    return Regime(*map(pick, gold_splits, kind, positive, drops), name=kind)


def save_regime(regime: Regime, directory, manifest_extra: dict | None = None) -> None:
    os.makedirs(directory, exist_ok=True)
    save_corpus(regime.train, os.path.join(directory, "train.jsonl"))
    save_corpus(regime.dev, os.path.join(directory, "dev.jsonl"))
    save_corpus(regime.test, os.path.join(directory, "test.jsonl"))
    manifest = {"kind": regime.name}
    manifest.update(manifest_extra or {})
    with open(os.path.join(directory, "regime.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_regime(directory) -> Regime:
    manifest_path = os.path.join(directory, "regime.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            kind = json.load(fh)["kind"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"{manifest_path}: bad regime manifest: {exc!r}") from exc
    if kind not in REGIME_KINDS:
        raise DataFormatError(
            f"{manifest_path}: unknown regime kind {kind!r}; expected one of {REGIME_KINDS}"
        )
    splits = [load_corpus(os.path.join(directory, f"{s}.jsonl")) for s in ("train", "dev", "test")]
    if not splits[0].examples:
        raise DataFormatError(f"{os.path.join(directory, 'train.jsonl')}: no train examples")
    try:
        return Regime(*splits, name=kind)
    except ConfigError as exc:
        raise DataFormatError(f"{directory}: {exc}") from exc
