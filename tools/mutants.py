"""A table of source mutants and the tests that must kill them, and a runner.

    python tools/mutants.py [NAME ...]

Each entry of ``MUTANTS`` replaces one exact text of one file with another,
and names the tests expected to fail on the mutated source. For each mutant
(all of them, or those named) the runner copies ``src``, ``tests``,
``configs`` and ``pyproject.toml`` into a temporary directory, applies the
mutant there, runs the named tests with pytest, and records each named
test as killed (a case of it failed) or survived (every case passed).
The unmutated copy runs first, and every named test must pass on it. The
runner prints a mutant x test table and exits 1 if a mutant survives any
of its tests, or if the unmutated copy fails one, else 0. Uses only the
standard library and pytest.

A tier-1 test (``tests/test_mutants.py``) checks that each old text occurs
exactly once in its file, so that a refactor that moves the code cannot
leave the table silently stale.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "configs", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


CORE = "src/docrel/core.py"
T = "tests/test_core.py::"
SAVE_TYPES = T + "TestSerialization::test_save_refuses_what_load_would_not_give_back"
LOAD_RECORDS = T + "TestLoadFailsClosed::test_record_predicate"
DATAGEN = "src/docrel/datagen.py"
PINNED = "tests/test_datagen.py::TestGenerator::test_generated_regime_bits_are_pinned"
REFERENCE = "tests/test_datagen.py::test_assembled_regime_is_the_per_pair_reference"
RELABEL = "tests/test_datagen.py::TestRelabelAsNa::"
BATCHING, LOSSES, HEAD = "src/docrel/batching.py", "src/docrel/losses.py", "src/docrel/head.py"
EVALUATION = "src/docrel/evaluation.py"
SAMPLED = "tests/test_losses.py::TestSampledNegativeLoss::"
EVALUATE = "tests/test_evaluation.py::TestEvaluate::"
ORACLE_BATCH = "tests/test_losses.py::TestBatchLoss::test_training_sized_batch_matches_oracle"

MUTANTS = (
    # the record predicate, core._record_fault: each rule disabled
    Mutant("doc-index-rule-off", CORE,
           "((doc < 0) | (doc >= n_docs), lambda",
           "((doc < 0) & (doc >= n_docs), lambda",
           (LOAD_RECORDS + "[doc-index-past-doc-ids]", LOAD_RECORDS + "[negative-doc-index]")),
    Mutant("head-is-tail-rule-off", CORE,
           "same = ids[:, 0] == ids[:, 1]",
           "same = ids[:, 0] != ids[:, 0]",
           (LOAD_RECORDS + "[head-is-tail]",
            T + "TestSerialization::test_save_refuses_what_load_refuses[head-is-tail]")),
    Mutant("gold-flag-rule-off", CORE,
           "(has_gold > 1, lambda",
           "(has_gold > 255, lambda",
           (LOAD_RECORDS + "[gold-flag-2]",)),
    Mutant("gold-without-flag-rule-off", CORE,
           "((has_gold == 0) & bits[:, 1].any(axis=1), lambda",
           "((has_gold == 2) & bits[:, 1].any(axis=1), lambda",
           (LOAD_RECORDS + "[gold-labels-without-flag]",)),
    Mutant("label-beyond-relations-rule-off", CORE,
           "np.arange(width) >= records.n_rel",
           "np.arange(width) >= width",
           (T + "TestLoadFailsClosed::test_out_of_range_label",)),
    # a rule's mask is built only when a test over the whole split fails:
    # the test misses a fault at its boundary, or never fails
    Mutant("doc-index-test-off-by-one", CORE,
           "doc.max(initial=-1) >= n_docs:",
           "doc.max(initial=-1) > n_docs:",
           (LOAD_RECORDS + "[doc-index-past-doc-ids]",)),
    Mutant("gold-flag-test-never-fails", CORE,
           "if has_gold.max(initial=0) > 1:",
           "if False:",
           (LOAD_RECORDS + "[gold-flag-2]",)),
    Mutant("gold-without-flag-test-never-fails", CORE,
           "if bits[has_gold == 0, 1].any():",
           "if False:",
           (LOAD_RECORDS + "[gold-labels-without-flag]",)),
    Mutant("label-beyond-relations-test-never-fails", CORE,
           "if beyond.any():",
           "if False:",
           (T + "TestLoadFailsClosed::test_out_of_range_label",)),
    Mutant("finite-fast-path-never-fails", CORE,
           "if not np.isfinite(rows).all():",
           "if False:",
           (T + "TestLoadFailsClosed::test_nan_in_context",
            T + "TestLoadFailsClosed::test_nan_in_record_k_names_record_k",
            T + "TestSerialization::test_save_refuses_what_load_refuses[nan-in-context]")),
    Mutant("repeated-pair-fast-path-never-fails", CORE,
           "if len(set(keys)) != len(keys):",
           "if False:",
           (T + "TestLoadFailsClosed::test_duplicated_pair",
            T + "TestPairIndex::test_duplicate_triple_rejected",
            T + "TestSerialization::test_save_refuses_what_load_refuses[repeated-pair]")),
    # load codes equal doc_ids alike, for groups and the repeated-pair rule
    Mutant("doc-ids-coded-as-stored", CORE,
           "doc[inside] = _first_indices(doc_ids)[doc[inside]]",
           "doc[inside] = doc[inside]",
           (T + "TestCorpusCache::test_document_groups_follow_the_records_not_the_header",)),
    # the types the record arrays need: every field passes
    Mutant("typed-forced-true", CORE,
           "    typed = (  # in this order: labels are read",
           "    typed = True or (  # in this order: labels are read",
           (SAVE_TYPES + "[numpy-int-id]", SAVE_TYPES + "[int-doc-id]")),
    # records hold read-only arrays, shared by the corpora derived from them
    Mutant("records-left-writable", CORE,
           "        return _frozen(rows)\n",
           "        return rows\n",
           (T + "TestCorpusCache::test_scoring_a_loaded_split_pools_nothing",
            T + "TestCorpusCache::test_cached_arrays_are_read_only")),
    # core._check_example, which names an example that cannot be encoded:
    # each rule disabled
    Mutant("check-doc-id-type-off", CORE,
           "if type(ex.doc_id) is not str:",
           "if False:",
           (SAVE_TYPES + "[int-doc-id]",)),
    Mutant("check-frozenset-type-off", CORE,
           "if not all(type(s) is frozenset for s in sets):",
           "if False:",
           (SAVE_TYPES + "[set-labels]",)),
    Mutant("check-int-type-off", CORE,
           "if type(value) is not int:",
           "if False:",
           (SAVE_TYPES + "[numpy-int-id]", SAVE_TYPES + "[true-label]",
            T + "TestLoadFailsClosed::test_non_integer_id_or_label")),
    Mutant("check-int64-range-off", CORE,
           "if not -(2**63) <= value < 2**63:",
           "if False:",
           (SAVE_TYPES + "[id-past-int64]",)),
    Mutant("check-label-range-off", CORE,
           "if not 0 <= r < n_rel:",
           "if False:",
           (T + "TestSerialization::test_save_refuses_what_load_refuses[label-past-relations]",
            T + "TestSerialization::test_save_refuses_what_load_refuses[negative-label]")),
    Mutant("check-ndarray-type-off", CORE,
           "if type(row) is not np.ndarray:",
           "if False:",
           (T + "TestSerialization::test_vectors_that_are_not_arrays_are_refused",)),
    Mutant("check-shape-off", CORE,
           "if row.shape != (dim,):",
           "if False:",
           (T + "TestSerialization::test_save_refuses_vectors_of_the_wrong_width",
            T + "TestSerialization::test_validate_catches_bad_vectors")),
    Mutant("check-dtype-off", CORE,
           'if not np.can_cast(row.dtype, np.float64, "same_kind"):',
           "if False:",
           (SAVE_TYPES + "[text-context]",)),
    # datagen: a split's rows from its draws (pinned bits), and the world the
    # splits of a regime share
    Mutant("mention-sum-regrouped", DATAGEN,
           """    np.add(mentions, 0.8 * mixture[pair], out=mentions, where=positive[pair, None])
    mentions += np.concatenate(sides) * scale[pair]""",
           """    noise = np.concatenate(sides) * scale[pair]
    np.add(0.8 * mixture[pair], noise, out=noise, where=positive[pair, None])
    mentions += noise""",
           (PINNED,)),
    Mutant("na-context-positive-scale", DATAGEN,
           "context = np.array(contexts) * scale",
           "context = np.array(contexts) * scales[0]",
           (PINNED,)),
    Mutant("context-rows-shifted", DATAGEN,
           "return pooled[:n], pooled[n:], context",
           "return pooled[:n], pooled[n:], np.roll(context, 1, axis=0)",
           (PINNED,)),
    Mutant("dev-from-another-world", DATAGEN,
           'split="dev", num_documents=dev_documents), world)',
           'split="dev", num_documents=dev_documents),\n'
           '                          _World(replace(config, seed=config.seed + 1)))',
           ("tests/test_datagen.py::test_regime_splits_are_the_splits_generated_alone", PINNED)),
    # the relabel mask: which pairs a regime relabels as NA, and what they keep
    Mutant("relabel-gold-flag-left-0", DATAGEN,
           "    has_gold[hide] = 1\n",
           "    has_gold[hide] = has_gold[hide]\n",
           (REFERENCE,)),
    Mutant("relabel-na-pairs-counted", DATAGEN,
           "hide = hide & ~corpus.na_flags",
           "hide = hide | False",
           (RELABEL + "test_true_entries_on_na_pairs_change_nothing",)),
    Mutant("relabel-mask-shape-check-off", DATAGEN,
           "if hide.shape != (len(records),):",
           "if False:",
           (RELABEL + "test_mask_of_another_shape_rejected",)),
    Mutant("example-draw-over-all-pairs", DATAGEN,
           'stream(seed, "noise", tag).random(p.sum()) < noise_rate',
           'stream(seed, "noise", tag).random(len(p))[p] < noise_rate',
           (REFERENCE,)),
    Mutant("fact-keys-head-only", DATAGEN,
           "split.pair_ids[p] for split, p in",
           "split.pair_ids[p][:, :1] for split, p in",
           (REFERENCE, PINNED)),
    Mutant("generated-gold-flag-0", DATAGEN,
           "np.ones(len(table), np.uint8)",
           "np.zeros(len(table), np.uint8)",
           (PINNED,)),
    # the training step: a batch's sampled mask, the loss's checks of it,
    # the contrastive positive sets, a parameter copy, evaluation's counts
    Mutant("sampled-mask-rows-reversed", BATCHING,
           "mask[np.arange(len(sets))[:, None], sets] = True",
           "mask[np.arange(len(sets))[::-1, None], sets] = True",
           ("tests/test_batching.py::TestNegativeSampling::"
            "test_attached_mask_rows_are_the_drawn_sets",)),
    Mutant("empty-sampled-row-check-off", LOSSES,
           "if not np.logical_and.reduce(filled):",
           "if False:",
           (SAMPLED + "test_negative_mask_names_the_position_of_an_empty_row",
            SAMPLED + "test_empty_sample_rejected")),
    Mutant("empty-sampled-row-named-by-na-index", LOSSES,
           "pos = rows[filled.argmin()]",
           "pos = filled.argmin()",
           (SAMPLED + "test_negative_mask_names_the_position_of_an_empty_row",)),
    Mutant("sampled-positive-check-off", LOSSES,
           "if np.logical_or.reduce(sampled & labels[rows], axis=None):",
           "if False:",
           (SAMPLED + "test_negative_mask_refuses_a_sampled_positive",
            SAMPLED + "test_sample_outside_negative_set_rejected",
            "tests/test_batching.py::TestNegativeSampling::"
            "test_sets_covering_a_positive_rejected_by_batch_loss")),
    Mutant("positive-sets-whole-denominator", LOSSES,
           "positives |= others & ~has_pos[:, None]",
           "positives |= others",
           (ORACLE_BATCH,
            "tests/test_batching.py::TestPositiveSets::test_five_example_brute_force")),
    Mutant("scl-gain-on-long-tail-rows", LOSSES,
           "values += (np.log(np.add.reduce(positives, axis=1)) - pos_lse) * has_pos",
           "values += np.log(np.add.reduce(positives, axis=1)) - pos_lse",
           (ORACLE_BATCH,)),
    Mutant("scl-gradient-on-long-tail-rows", LOSSES,
           "grad_sims -= pos_soft * has_pos[:, None]",
           "grad_sims -= pos_soft",
           ("tests/test_acceptance.py::test_criterion_1_gradient_correctness",)),
    Mutant("copy-views-the-source", HEAD,
           "vars(new).update(vars(self), flat=flat, **self.split(flat))",
           "vars(new).update(vars(self), flat=flat)",
           ("tests/test_head.py::TestParamsAndCheckpoint::"
            "test_copy_holds_equal_arrays_of_its_own",)),
    Mutant("per-relation-fp-and-fn-swapped", EVALUATION,
           "cells = np.array((tp_rel, predicted_rel - tp_rel, gold_rel - tp_rel)).T",
           "cells = np.array((tp_rel, gold_rel - tp_rel, predicted_rel - tp_rel)).T",
           (EVALUATE + "test_per_relation_counts_match_enumeration",)),
    Mutant("per-relation-gold-only", EVALUATION,
           "counted = (predicted_rel | gold_rel).nonzero()[0]",
           "counted = gold_rel.nonzero()[0]",
           (EVALUATE + "test_per_relation_counts_match_enumeration",)),
    Mutant("micro-fp-and-fn-swapped", EVALUATION,
           "precision, recall, f1 = _prf(tp, fp, fn)",
           "precision, recall, f1 = _prf(tp, fn, fp)",
           (EVALUATE + "test_per_relation_counts_match_enumeration",)),
    Mutant("bucket-block-skipped", EVALUATION,
           "    if buckets:\n        codes",
           "    if not buckets:\n        codes",
           (EVALUATE + "test_bucket_f1_micro_within_bucket",)),
    # lazy package exports, the stream's entropy words, the init's dimension check
    Mutant("export-from-a-re-exporting-module", "src/docrel/__init__.py",
           '"save_corpus"], "core"),\n    **dict.fromkeys(["ConfigError", ',
           '"save_corpus", "ConfigError"], "core"),\n    **dict.fromkeys([',
           ("tests/test_imports.py::"
            "test_every_public_name_resolves_to_the_object_of_its_defining_module",)),
    Mutant("stream-seed-high-word-dropped", "src/docrel/rng.py",
           "words = [seed & _WORD, seed >> 32] if seed >> 32 else [seed]",
           "words = [seed & _WORD]",
           ("tests/test_rng.py::test_stream_is_seed_sequence_of_seed_and_tag_words",)),
    Mutant("init-dimension-check-off", HEAD,
           "    _check_dims(input_dim, hidden_dim, group_count, num_logits)\n    bound",
           "    bound",
           ("tests/test_head.py::TestParamsAndCheckpoint::test_zero_dimension_rejected",
            "tests/test_head.py::TestParamsAndCheckpoint::test_zero_group_count_rejected")),
)


def copy_tree(into: str) -> None:
    for name in COPIED:
        source = os.path.join(ROOT, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(into, name),
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy(source, into)


def outcomes(tree: str, tests: tuple[str, ...]) -> dict[str, bool]:
    """Run ``tests`` in ``tree``: for each, whether every case of it passed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          *tests], cwd=tree, env=env, capture_output=True, text=True)
    results = re.findall(r"^(PASSED|FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    passed = {}
    for test in tests:
        cases = [status for status, node in results
                 if node == test or node.startswith(test + "[") or node.startswith(test + "::")]
        passed[test] = bool(cases) and all(status == "PASSED" for status in cases)
    return passed


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    if argv and len(chosen) != len(set(argv)):
        print(f"unknown mutants: {sorted(set(argv) - {m.name for m in MUTANTS})}", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory(prefix="docrel-mutants-") as scratch:
        clean = os.path.join(scratch, "clean")
        copy_tree(clean)
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        for test, ok in outcomes(clean, tests).items():
            if not ok:
                print(f"fails on the unmutated source: {test}")
                failed = True
        if failed:
            return 1
        width = max(len(m.name) for m in chosen)
        for mutant in chosen:
            tree = os.path.join(scratch, mutant.name)
            copy_tree(tree)
            path = os.path.join(tree, mutant.path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in "
                      f"{mutant.path}, not once")
                failed = True
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
            for test, passed in outcomes(tree, mutant.tests).items():
                print(f"{mutant.name:<{width}}  {'SURVIVED' if passed else 'killed  '}  {test}")
                failed |= passed
            shutil.rmtree(tree)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
