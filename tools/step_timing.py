"""Time ``train`` at two revisions side by side, and check that both give the same bits.

    python tools/step_timing.py PARENT_REV [CHANGE_REV] [--rounds N]

Extracts both revisions with ``git archive`` into a temporary directory, as
``same_outputs.py`` does; CHANGE_REV defaults to the tracked files of the
working tree. Imports each tree's ``src/docrel`` in this one process under
a package name of its own (the package imports itself relatively), and
builds the benchmark's two training inputs with each side's own code: the
``train-noise`` regime (sampled training at ratio 0.1) and the
``train-docred`` corpus (``perfbench/docred_gen.py``, unsampled).

First it checks that both sides give bit-equal results: the history and
both parameter vectors of one ``train`` call on every one-batch slice of
both inputs, as a benchmark pass makes them, and of a 2-epoch run over the
whole noise train split in each sampling mode and with the auxiliary
losses off. Then, for ``--rounds`` rounds (default 20), with the side that
goes first alternating, it times one pass of ``train`` calls over each
input's slices and one 1-epoch ``train`` over the whole noise train split.
Prints per side the best and the median seconds of each, the ratio of the
medians, parent over change, and in how many rounds the change was faster.
Exits 1 if any result differs, else 0.
Uses the standard library and NumPy.

Like the benchmark (``perfbench/run.py``), it runs BLAS and OpenMP on one
thread: it sets the benchmark's six thread variables to 1 before NumPy is
imported, unless the environment already sets any of them. A BLAS that
splits docrel's small matrix products over several threads makes the
timings unlike the benchmark's.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from dataclasses import replace

from same_outputs import extract, git

# perfbench/run.py's BLAS and OpenMP thread variables; NumPy is imported later, by each side
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if not any(var in os.environ for var in THREAD_VARS):
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

# the benchmark's noise world, corruption and training settings (perfbench/workloads.py)
NOISE_WORLD = dict(num_relations=32, num_documents=200, pairs_per_document=(12, 18),
                   embedding_dim=32, num_entities=80, kg_pairs=120, na_fraction=0.5, seed=7)
LOSS = dict(temperature=0.5, contrastive_weight=0.1, entropy_norm="set_size")
SAMPLED = dict(use_neg_sampling=True, neg_sampling_ratio=0.1)
DOCRED_DOCS, DOCRED_DEV_EVERY = 30, 5
SEED = 101


def load_side(name: str, tree: str):
    """``tree``'s ``src/docrel`` imported as package ``name``."""
    source = os.path.join(tree, "src", "docrel")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(source, "__init__.py"), submodule_search_locations=[source])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("datagen", "docred", "losses", "training")}


def documents(corpus, doc_ids):
    keep = set(doc_ids)
    return replace(corpus, examples=tuple(ex for ex in corpus.examples if ex.doc_id in keep))


def slices(train_corpus, dev_corpus, batch_size: int) -> list[tuple]:
    """One-batch slices of the train split, the dev documents dealt round-robin over them."""
    docs = train_corpus.document_order()
    parts = [documents(train_corpus, docs[k:k + batch_size])
             for k in range(0, len(docs), batch_size)]
    dev_docs = dev_corpus.document_order()
    return [(part, documents(dev_corpus, dev_docs[k::len(parts)]))
            for k, part in enumerate(parts)]


def inputs(side, docred_path: str) -> dict:
    """Each named run: a list of (train corpus, dev corpus, config) calls."""
    datagen, training, losses = side["datagen"], side["training"], side["losses"]
    splits = datagen.generate_regime_splits(datagen.SyntheticConfig(**NOISE_WORLD), 40, 40)
    regime = datagen.assemble_regime(splits, 0.4, "OOG", seed=11, corruption="fact")
    base = training.TrainConfig(epochs=1, learning_rate=1e-2, seed=SEED,
                                loss=losses.LossConfig(**LOSS))
    noise = replace(base, loss=losses.LossConfig(**LOSS, **SAMPLED, resample="per_epoch"))

    corpus = side["docred"].load_docred_json(docred_path)
    docs = corpus.document_order()
    dev = set(docs[DOCRED_DEV_EVERY - 1::DOCRED_DEV_EVERY])
    docred = (documents(corpus, [d for d in docs if d not in dev]),
              documents(corpus, [d for d in docs if d in dev]))

    def modes(**loss):
        config = replace(base, epochs=2, loss=replace(base.loss, **loss))
        return [(regime.train, regime.dev, config)]

    return {
        "noise slices": [(t, d, noise) for t, d in slices(regime.train, regime.dev, 4)],
        "docred slices": [(t, d, replace(base, batch_size=2))
                          for t, d in slices(*docred, 2)],
        "noise epoch": [(regime.train, regime.dev, noise)],
        **{f"2 epochs, {mode}": modes(**SAMPLED, resample=mode)
           for mode in ("once", "per_epoch", "per_step")},
        "2 epochs, unsampled": modes(),
        "2 epochs, no auxiliary loss": modes(**SAMPLED, use_entropy=False,
                                             use_contrastive=False),
    }


def run(side, calls) -> list:
    return [side["training"].train(*call) for call in calls]


def differences(a, b) -> int:
    """How many of two lists of train results differ in history or parameter bits."""
    return sum(
        x.history != y.history or x.best_epoch != y.best_epoch
        or x.params.flat.tobytes() != y.params.flat.tobytes()
        or x.final_params.flat.tobytes() != y.final_params.flat.tobytes()
        for x, y in zip(a, b, strict=True)
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    change = args.change or git("stash", "create").decode().strip() or "HEAD"
    with tempfile.TemporaryDirectory(prefix="step-timing-") as scratch:
        sides, runs = {}, {}
        for name, rev in (("parent", args.parent), ("change", change)):
            extract(rev, os.path.join(scratch, name))
            sides[name] = load_side(f"docrel_{name}", os.path.join(scratch, name))
        gen = importlib.util.spec_from_file_location(
            "docred_gen", os.path.join(scratch, "change", "perfbench", "docred_gen.py"))
        docred_gen = importlib.util.module_from_spec(gen)
        gen.loader.exec_module(docred_gen)
        docred_path = os.path.join(scratch, "docred.json")
        docred_gen.write_docred_json(docred_path, SEED, DOCRED_DOCS)
        for name, side in sides.items():
            runs[name] = inputs(side, docred_path)

    differ = 0
    for run_name in runs["parent"]:
        results = [run(sides[name], runs[name][run_name]) for name in sides]
        bad = differences(*results)
        differ += bad
        print(f"{'same' if not bad else 'DIFF'}  {len(results[0]):3d} train results  {run_name}")

    timed = ("noise slices", "docred slices", "noise epoch")
    seconds = {(name, part): [] for name in sides for part in timed}
    for round_index in range(args.rounds):
        order = list(sides) if round_index % 2 == 0 else list(sides)[::-1]
        for part in timed:
            for name in order:
                started = time.perf_counter()
                run(sides[name], runs[name][part])
                seconds[name, part].append(time.perf_counter() - started)

    print(f"\nseconds per pass, {args.rounds} rounds; ratio = parent median / change median;"
          " wins = rounds in which the change was faster")
    print(f"{'':14}{'parent best':>12}{'median':>10}{'change best':>13}{'median':>10}"
          f"{'ratio':>8}{'wins':>7}")
    for part in timed:
        parent, change = (seconds[name, part] for name in sides)
        pm, cm = statistics.median(parent), statistics.median(change)
        wins = sum(c < p for p, c in zip(parent, change))
        print(f"{part:14}{min(parent):12.4f}{pm:10.4f}{min(change):13.4f}{cm:10.4f}"
              f"{pm / cm:8.3f}{wins:7d}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
