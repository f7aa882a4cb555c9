"""In-memory span tracer that wraps docrel's public entry points from outside.

The library is not edited: :class:`Tracer` replaces each traced function
in every ``docrel`` module namespace that bound it, and in the benchmark's
own calling modules (the package imports names with ``from .x import f``,
so patching the defining module alone would miss the callers), and
restores the originals on :meth:`Tracer.remove`.
Each call records one span ``(id, parent, name, start, end, counts)``;
``counts`` holds the work done by that call, derived from its arguments
and result.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _batch_loss_counts(args, kwargs, result):
    examples, batch, _forwards, vocab, config = args
    n = len(examples)
    sampled = 0
    if config.use_neg_sampling:
        sampled = sum(len(s) for s in batch.sampled_negatives.values())
    return {
        "pairs": n,
        "anchor_pairs": len(batch.bp_indices) * n,
        "sampled_labels": sampled,
    }


# (module, attribute, span name, counts(args, kwargs, result) -> dict | None);
# a count ``key`` of span ``layer.x`` is reported as ``layer.key``
TARGETS = (
    ("training", "train", "training.train", None),
    ("head", "head_forward", "head.forward", lambda a, k, r: {"forward_calls": 1}),
    ("head", "head_backward", "head.backward", lambda a, k, r: {"backward_calls": 1}),
    ("head", "save_checkpoint", "head.save_checkpoint", None),
    ("head", "load_checkpoint", "head.load_checkpoint", None),
    ("losses", "batch_loss", "losses.batch_loss", _batch_loss_counts),
    ("batching", "assemble_batches", "batching.assemble",
     lambda a, k, r: {"batches": len(r)}),
    ("batching", "attach_negative_samples", "batching.sample", None),
    ("optim", "AdamW.step", "optim.step", lambda a, k, r: {"steps": 1}),
    ("evaluation", "evaluate", "evaluation.evaluate",
     lambda a, k, r: {"pairs": len(a[1].examples)}),
    ("core", "save_corpus", "core.save_corpus",
     lambda a, k, r: {"bytes_written": os.path.getsize(a[1])}),
    ("core", "load_corpus", "core.load_corpus",
     lambda a, k, r: {"bytes_read": os.path.getsize(a[0])}),
    ("datagen", "generate_regime_splits", "datagen.generate", None),
    ("datagen", "assemble_regime", "datagen.assemble_regime", None),
    ("datagen", "save_regime", "datagen.save_regime", None),
    ("datagen", "load_regime", "datagen.load_regime", None),
    ("docred", "load_docred_json", "docred.load", None),
    ("docred", "hashed_featurizer", "docred.featurizer",
     lambda a, k, r: {"featurizer_calls": 1}),
    ("selftest", "run_gradient_checks", "selftest.gradient",
     lambda a, k, r: {"checks": r.checks}),
    ("selftest", "run_oracle_equivalence", "selftest.oracle",
     lambda a, k, r: {"checks": r.checks}),
    ("selftest", "run_invariant_suite", "selftest.invariant",
     lambda a, k, r: {"checks": r.checks}),
)


# the benchmark's own modules that call docrel's traced functions
CALLERS = ("workloads",)


class Tracer:
    """Collects spans; single-threaded, parents tracked with a stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict, counts: dict | None = None) -> None:
        span["end"] = time.perf_counter()
        if counts:
            span["counts"] = counts
        popped = self._stack.pop()
        if popped != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span)
                raise
            self.end(span, counter(args, kwargs, result) if counter else None)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Replace every target in all loaded ``docrel`` and caller modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for n, m in sys.modules.items()
            if n == "docrel" or n.startswith("docrel.") or n in CALLERS
        ]
        for mod_name, attr, span_name, counter in TARGETS:
            owner = sys.modules[f"docrel.{mod_name}"]
            if "." in attr:  # a method: patch the class attribute once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self.wrap(original, span_name, counter))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, span_name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapped)

    def _set(self, holder, key: str, original, replacement) -> None:
        self._patches.append((holder, key, original))
        setattr(holder, key, replacement)

    def remove(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def root_of(self, span_id: int) -> int:
        """The root ancestor of a span."""
        while self.spans[span_id]["parent"] is not None:
            span_id = self.spans[span_id]["parent"]
        return span_id
