"""The four benchmark workloads.

Each workload has a ``setup`` (timed as ``setup_s``) and a ``warm_up``
that runs the whole workload once and checks it against independent
recomputation. Its timed work is a list of ``parts``: short calls that
together make one pass over the workload's ``items``. The runner repeats
passes and keeps each part's fastest time (see README.md for why);
``check_part`` compares every repeat of a part with its first run, since
every part repeats the same seeded computation. ``details`` turns the
fastest part times into the workload's own figures.

Everything here calls docrel's public functions only.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import replace

import numpy as np

from docrel.core import Corpus, bucket_relations
from docrel.datagen import (
    Regime,
    SyntheticConfig,
    assemble_regime,
    generate_regime_splits,
    load_regime,
    save_regime,
)
from docrel.docred import load_docred_json
from docrel.evaluation import evaluate, train_fact_set
from docrel.head import init_head_params, load_checkpoint, save_checkpoint
from docrel.losses import LossConfig
from docrel.rng import stream
from docrel.selftest import run_gradient_checks, run_invariant_suite, run_oracle_equivalence
from docrel.training import TrainConfig, train

from docred_gen import write_docred_json

# The acceptance suite's pinned noise regime (tests/test_acceptance.py):
# world seed 7, fact corruption at 0.4 with seed 11. The benchmark seed
# drives what a user varies on it: training seed and initial parameters.
NOISE_WORLD = SyntheticConfig(
    num_relations=32,
    num_documents=200,
    pairs_per_document=(12, 18),
    embedding_dim=32,
    num_entities=80,
    kg_pairs=120,
    na_fraction=0.5,
    seed=7,
)
NOISE_CORRUPTION_SEED = 11
NOISE_SPLIT_DOCS = (40, 40)  # dev, test
ACCEPTANCE_LOSS = LossConfig(temperature=0.5, contrastive_weight=0.1, entropy_norm="set_size")
ACCEPTANCE_TRAIN = TrainConfig(epochs=15, learning_rate=1e-2, seed=0, loss=ACCEPTANCE_LOSS)
BUCKET_CUTS = (6, 16)
BUNDLE_CHUNK_PAIRS = 200
DOCRED_DOCS = 30
SELFTEST_SUITE_SEEDS = 8
DOCRED_DEV_EVERY = 5  # 20% of documents


def noise_regime(tiny: bool):
    world = NOISE_WORLD
    dev_docs, test_docs = NOISE_SPLIT_DOCS
    if tiny:
        world = replace(world, num_documents=12)
        dev_docs, test_docs = 4, 4
    splits = generate_regime_splits(world, dev_documents=dev_docs, test_documents=test_docs)
    return assemble_regime(splits, 0.4, "OOG", seed=NOISE_CORRUPTION_SEED, corruption="fact")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_params(a, b) -> bool:
    return a.group_count == b.group_count and all(
        same_bits(x, b.tensors()[name]) for name, x in a.tensors().items()
    )


def corpus_differences(a: Corpus, b: Corpus) -> list[str]:
    """Bitwise comparison of two corpora; returns what differs."""
    if (a.vocabulary, a.label_source, a.embedding_dim) != (
        b.vocabulary,
        b.label_source,
        b.embedding_dim,
    ):
        return ["corpus header differs"]
    if len(a.examples) != len(b.examples):
        return [f"example count {len(a.examples)} != {len(b.examples)}"]
    for i, (x, y) in enumerate(zip(a.examples, b.examples)):
        same = (
            (x.doc_id, x.head_id, x.tail_id) == (y.doc_id, y.head_id, y.tail_id)
            and x.positive_relations == y.positive_relations
            and x.gold_positive_relations == y.gold_positive_relations
            and same_bits(x.context, y.context)
            and len(x.head_mentions) == len(y.head_mentions)
            and len(x.tail_mentions) == len(y.tail_mentions)
            and all(
                m.entity_id == n.entity_id and same_bits(m.embedding, n.embedding)
                for m, n in zip(
                    x.head_mentions + x.tail_mentions, y.head_mentions + y.tail_mentions
                )
            )
        )
        if not same:
            return [f"example {i} differs after the round trip"]
    return []


def _documents(corpus: Corpus, doc_ids) -> Corpus:
    """The corpus restricted to the given documents, in corpus order."""
    keep = set(doc_ids)
    return replace(corpus, examples=tuple(ex for ex in corpus.examples if ex.doc_id in keep))


def report_key(report) -> tuple:
    return (report.summary(), report.per_relation)


class _TrainWorkload:
    """The warm-up trains one epoch over the whole train split. A pass
    trains one epoch on each batch-sized slice of it, each ``train`` call
    starting from the same initial parameters, so each part is one
    optimizer step plus the per-call work of ``train``. The dev documents
    are dealt out round-robin over the slices (a slice may get none), so a
    pass evaluates the dev split once, as one real epoch does."""

    config: TrainConfig
    train_corpus: Corpus
    dev_corpus: Corpus

    def check_setup(self) -> list[str]:
        return []

    def warm_up(self) -> list[str]:
        result = train(self.train_corpus, self.dev_corpus, self.config)
        self.dev_f1 = result.best_dev_f1
        failures = [
            f"epoch {h['epoch']}: non-finite loss {h['loss_total']}"
            for h in result.history
            if not np.isfinite(h["loss_total"])
        ]
        fresh = evaluate(result.params, self.dev_corpus, use_gold=False).f1
        if fresh != result.best_dev_f1:
            failures.append(f"history best dev F1 {result.best_dev_f1} != fresh evaluate {fresh}")
        return failures

    def parts(self):
        docs = self.train_corpus.document_order()
        size = self.config.batch_size
        slices = [
            _documents(self.train_corpus, docs[k : k + size]) for k in range(0, len(docs), size)
        ]
        dev_docs = self.dev_corpus.document_order()
        devs = [
            _documents(self.dev_corpus, dev_docs[k :: len(slices)]) for k in range(len(slices))
        ]
        self.items = sum(len(c.examples) for c in slices)
        return [
            (f"slice{k}", lambda c=corpus, d=dev: train(c, d, self.config))
            for k, (corpus, dev) in enumerate(zip(slices, devs))
        ]

    def check_part(self, name, result, first) -> list[str]:
        if not all(np.isfinite(h["loss_total"]) for h in result.history):
            return [f"{name}: non-finite loss"]
        if first is not None and (
            result.history != first.history or not same_params(result.params, first.params)
        ):
            return [f"{name}: train is not deterministic: a repeated call gave another result"]
        return []

    def details(self, best: dict[str, float]) -> dict:
        return {"train_pairs_per_s": self.items / sum(best.values()), "dev_f1": self.dev_f1}


class TrainNoise(_TrainWorkload):
    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.tiny = tiny
        self.config = replace(
            ACCEPTANCE_TRAIN,
            epochs=1,
            seed=seed,
            loss=replace(
                ACCEPTANCE_LOSS,
                use_neg_sampling=True,
                neg_sampling_ratio=0.1,
                resample="per_epoch",
            ),
        )

    def setup(self) -> None:
        regime = noise_regime(self.tiny)
        self.train_corpus, self.dev_corpus = regime.train, regime.dev


class TrainDocred(_TrainWorkload):
    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.path = os.path.join(workdir, "docred.json")
        self.expected = write_docred_json(self.path, seed, 4 if tiny else DOCRED_DOCS)
        self.config = replace(
            ACCEPTANCE_TRAIN, epochs=1, seed=seed, batch_size=2, loss=ACCEPTANCE_LOSS
        )

    def setup(self) -> None:
        self.corpus = load_docred_json(self.path)
        # hold out every fifth document as dev; the generator gives each
        # document position the same shape on every seed, so the split does
        # too
        docs = self.corpus.document_order()
        dev = set(docs[DOCRED_DEV_EVERY - 1 :: DOCRED_DEV_EVERY] or docs[-1:])
        self.train_corpus = _documents(self.corpus, [d for d in docs if d not in dev])
        self.dev_corpus = _documents(self.corpus, [d for d in docs if d in dev])

    def check_setup(self) -> list[str]:
        got = {
            "pairs": len(self.corpus.examples),
            "positive_pairs": sum(1 for ex in self.corpus.examples if ex.positive_relations),
        }
        return [] if got == self.expected else [f"ingested {got}, expected {self.expected}"]


class BundleEval:
    """The regime is dealt, document by document, into chunks of about 200
    pairs, each a regime of its own with a share of every split. A pass
    saves each chunk with ``save_regime`` and loads it back with
    ``load_regime``, saves and loads the checkpoint, and evaluates the
    loaded checkpoint on each loaded chunk's three splits; each of these
    calls is a part. Together the chunks are the whole bundle, so a pass
    saves, loads and evaluates every pair once."""

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed, self.tiny = seed, tiny
        self.workdir = workdir
        self.ckpt_path = os.path.join(workdir, "head.ckpt")

    def setup(self) -> None:
        self.regime = noise_regime(self.tiny)
        self.params = init_head_params(
            input_dim=self.regime.train.embedding_dim,
            hidden_dim=ACCEPTANCE_TRAIN.hidden_dim,
            group_count=ACCEPTANCE_TRAIN.group_count,
            num_logits=self.regime.train.vocabulary.num_logits,
            rng=stream(self.seed, "bench", "init"),
        )
        self.items = sum(len(c.examples) for c in _splits(self.regime))

    def check_setup(self) -> list[str]:
        return []

    def _chunks(self) -> list[Regime]:
        splits = _splits(self.regime)
        count = min(
            [max(1, self.items // BUNDLE_CHUNK_PAIRS)]
            + [len(split.document_order()) for split in splits]
        )
        return [
            Regime(
                *(_documents(split, split.document_order()[k::count]) for split in splits),
                name=self.regime.name,
            )
            for k in range(count)
        ]

    def _dirs(self, chunks) -> list[str]:
        return [os.path.join(self.workdir, f"chunk{k}") for k in range(len(chunks))]

    def warm_up(self) -> list[str]:
        chunks = self._chunks()
        dirs = self._dirs(chunks)
        failures = []
        if sum(len(c.examples) for chunk in chunks for c in _splits(chunk)) != self.items:
            failures.append("the chunks do not cover the bundle")
        save_checkpoint(self.params, self.ckpt_path)
        params = load_checkpoint(self.ckpt_path)
        if not same_params(params, self.params):
            failures.append("checkpoint round trip is not bitwise")
        facts = train_fact_set(self.regime.train)
        buckets = bucket_relations(self.regime.train.vocabulary, BUCKET_CUTS)
        for k, (chunk, directory) in enumerate(zip(chunks, dirs)):
            save_regime(chunk, directory)
            loaded = load_regime(directory)
            for saved, back in zip(_splits(chunk), _splits(loaded)):
                failures += [f"chunk {k}: {d}" for d in corpus_differences(saved, back)]
            if loaded.name != chunk.name:
                failures.append(f"chunk {k}: regime kind changed in the round trip")
            from_disk = _evaluate_all(params, loaded, facts, buckets)
            in_memory = _evaluate_all(self.params, chunk, facts, buckets)
            if [report_key(r) for r in from_disk] != [report_key(r) for r in in_memory]:
                failures.append(f"chunk {k}: evaluating the loaded bundle differs from in memory")
        return failures

    def parts(self):
        facts = train_fact_set(self.regime.train)
        buckets = bucket_relations(self.regime.train.vocabulary, BUCKET_CUTS)
        loaded = {}

        def load(k, directory):
            loaded[k] = load_regime(directory)
            return loaded[k]

        def load_params():
            loaded["params"] = load_checkpoint(self.ckpt_path)
            return loaded["params"]

        parts = [
            ("save-ckpt", lambda: save_checkpoint(self.params, self.ckpt_path)),
            ("load-ckpt", load_params),
        ]
        chunks = self._chunks()
        self.dirs = self._dirs(chunks)
        for k, (chunk, directory) in enumerate(zip(chunks, self.dirs)):
            parts += [
                (f"save{k}", lambda c=chunk, d=directory: save_regime(c, d)),
                (f"load{k}", lambda k=k, d=directory: load(k, d)),
                (
                    f"eval{k}",
                    lambda k=k: _evaluate_all(loaded["params"], loaded[k], facts, buckets),
                ),
            ]
        return parts

    def check_part(self, name, output, first) -> list[str]:
        if name.startswith("eval") and first is not None:
            if [report_key(r) for r in output] != [report_key(r) for r in first]:
                return [f"{name}: evaluation is not deterministic"]
        return []

    def details(self, best: dict[str, float]) -> dict:
        size = sum(
            os.path.getsize(os.path.join(directory, name))
            for directory in self.dirs
            for name in os.listdir(directory)
        )

        def total(prefix):
            return sum(t for name, t in best.items() if name.startswith(prefix))

        return {
            "eval_pairs_per_s": self.items / total("eval"),
            "bundle_save_pairs_per_s": self.items / total("save"),
            "bundle_load_pairs_per_s": self.items / total("load"),
            "bundle_bytes_per_pair": size / self.items,
        }


def _splits(regime):
    return (regime.train, regime.dev, regime.test)


def _evaluate_all(params, regime, facts, buckets):
    return [evaluate(params, split, facts, buckets) for split in _splits(regime)]


class Selftest:
    """Set-up is a fresh import of ``docrel.selftest`` in this process:
    docrel's own module code, which ``docrel selftest`` runs before its
    first check (NumPy stays loaded; the fresh modules are discarded and
    the loaded ones put back).

    The warm-up runs all three suites, which must pass. The gradient suite
    is one call of several seconds: the fastest of the few repeats a run
    has room for moved 2x between runs on a noisy host, so it is timed
    once there and reported ungated; the oracle and invariant suites,
    which call ``batch_loss`` on tiny instances as the gradient suite
    does, are the parts. Each runs at several suite seeds drawn from the
    benchmark seed: a suite seed sets its instances' sizes, and over
    several of them the cost of a pass varies little with the seed."""

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.oracle_instances = 5 if tiny else 50
        count = 1 if tiny else SELFTEST_SUITE_SEEDS
        self.suite_seeds = [seed * SELFTEST_SUITE_SEEDS + k for k in range(count)]

    def setup(self) -> None:
        loaded = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "docrel"}
        for name in loaded:
            del sys.modules[name]
        try:
            importlib.import_module("docrel.selftest")
        finally:
            for name in [n for n in sys.modules if n.split(".")[0] == "docrel"]:
                del sys.modules[name]
            sys.modules.update(loaded)

    def check_setup(self) -> list[str]:
        return []

    def warm_up(self) -> list[str]:
        start = time.perf_counter()
        gradient = run_gradient_checks(self.seed)
        self.gradient_s = time.perf_counter() - start
        suites = [gradient] + [fn() for _, fn in self.parts()]
        self.items = sum(s.checks for s in suites[1:])
        return [f"{s.name}: {f}" for s in suites for f in s.failures]

    def parts(self):
        return [
            (f"oracle{k}", lambda s=s: run_oracle_equivalence(s, self.oracle_instances))
            for k, s in enumerate(self.suite_seeds)
        ] + [
            (f"invariant{k}", lambda s=s: run_invariant_suite(s))
            for k, s in enumerate(self.suite_seeds)
        ]

    def check_part(self, name, suite, first) -> list[str]:
        failures = [f"{suite.name}: {f}" for f in suite.failures]
        if first is not None and suite.checks != first.checks:
            failures.append(f"{suite.name}: check count changed between passes")
        return failures

    def details(self, best: dict[str, float]) -> dict:
        return {"selftest_s": self.gradient_s + sum(best.values())}


WORKLOADS = {
    "train-noise": TrainNoise,
    "train-docred": TrainDocred,
    "bundle-eval": BundleEval,
    "selftest": Selftest,
}
