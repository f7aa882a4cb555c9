"""docrel benchmark: one workload per process, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload train-noise --seed 1 --seconds 25 --trace 0

Run from the repository root (or any checkout holding ``src/docrel``).
The last stdout line is the result object; the line before it holds the
per-workload details and the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS/OpenMP thread, set before NumPy is imported anywhere.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("train-noise", "train-docred", "bundle-eval", "selftest")

# per-layer metrics: name -> unit; times and counts are per traced pass
# (set-up layers: per set-up)
LAYER_METRICS = {
    "head.forward_s": "s",
    "head.forward_calls": "count",
    "head.backward_s": "s",
    "head.backward_calls": "count",
    "losses.batch_loss_s": "s",
    "losses.pairs": "count",
    "losses.anchor_pairs": "count",
    "losses.sampled_labels": "count",
    "batching.assemble_s": "s",
    "batching.sample_s": "s",
    "batching.batches": "count",
    "optim.step_s": "s",
    "optim.steps": "count",
    "training.self_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.self_s": "s",
    "evaluation.pairs": "count",
    "core.save_corpus_s": "s",
    "core.load_corpus_s": "s",
    "core.bytes_written": "B",
    "core.bytes_read": "B",
    "head.save_checkpoint_s": "s",
    "head.load_checkpoint_s": "s",
    "datagen.generate_s": "s",
    "datagen.assemble_regime_s": "s",
    "docred.load_s": "s",
    "docred.featurizer_calls": "count",
    "selftest.gradient_s": "s",
    "selftest.oracle_s": "s",
    "selftest.invariant_s": "s",
    "selftest.checks": "count",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_pct": "%",
}
# the largest share of a run that repeated set-ups may take
SETUP_SHARE = 0.25
# spans whose self time (duration minus child spans) is reported
SELF_TIMED = ("training.train", "evaluation.evaluate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def import_docrel():
    """Import the package from this checkout's source tree, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "docrel", "__init__.py")):
        raise SystemExit(f"benchmark: no docrel source tree at {SRC}")
    sys.path.insert(0, SRC)
    import docrel

    if os.path.dirname(os.path.dirname(os.path.abspath(docrel.__file__))) != SRC:
        raise SystemExit(f"benchmark: imported docrel from {docrel.__file__}, not {SRC}")
    return docrel


def environment(args, docrel) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "docrel": docrel.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


class Phase:
    """A root span around one set-up or pass when tracing, else nothing."""

    def __init__(self, tracer, name):
        self.tracer, self.name, self.span = tracer, name, None

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
            self.span = self.tracer.begin(self.name)

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.end(self.span)
            self.tracer.remove()


def run(args, tracer):
    from workloads import WORKLOADS

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        stats, setup_times, passes, best = measure(workload, args, tracer)
        complete = not stats["failed"] and passes[False] >= 1
        details = workload.details(best[False]) if complete else {}
        items = workload.items if complete else 0
        return stats, setup_times, passes, best, complete, details, items
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, tracer):
    """Set up, warm up, then repeat set-up and a pass over the workload's parts.

    Returns the counts, the set-up times, the passes run and each part's
    fastest time; the last three are keyed by whether they were traced.
    """
    stats = {"attempted": 0, "failed": 0, "errors": []}

    def attempt(fn):
        """One set-up, warm-up or part; an exception or a failed check fails it."""
        stats["attempted"] += 1
        try:
            failures = fn()
        except Exception:  # noqa: BLE001 - count it, report it, keep measuring
            failures = [traceback.format_exc(limit=3)]
        if failures:
            stats["failed"] += 1
            stats["errors"].extend(failures[:3])

    setup_times = {False: [], True: []}

    def do_setup(traced):
        start = time.perf_counter()
        with Phase(tracer if traced else None, "bench.setup"):
            workload.setup()
        setup_times[traced].append(time.perf_counter() - start)
        return workload.check_setup()

    attempt(lambda: do_setup(tracer is not None))
    if stats["failed"]:
        return stats, setup_times, {False: 0, True: 0}, {False: {}, True: {}}
    with Phase(tracer, "bench.warmup"):
        attempt(workload.warm_up)

    parts = workload.parts()
    first = {}
    best = {False: {}, True: {}}
    passes = {False: 0, True: 0}

    def run_part(name, fn, traced):
        start = time.perf_counter()
        output = fn()
        seconds = time.perf_counter() - start
        failures = workload.check_part(name, output, first.get(name))
        first.setdefault(name, output)
        best[traced][name] = min(seconds, best[traced].get(name, seconds))
        return failures

    started = time.perf_counter()
    while True:
        # with tracing, alternate untraced and traced passes so that the
        # overhead is measured under the same conditions; set-up repeats
        # before a pass while it has taken under SETUP_SHARE of the run, so
        # its fastest time is taken over the whole run without crowding
        # out the passes
        traced = tracer is not None and passes[False] > passes[True]
        setup_total = sum(setup_times[False]) + sum(setup_times[True])
        if setup_total < SETUP_SHARE * (time.perf_counter() - started):
            attempt(lambda: do_setup(traced))
        with Phase(tracer if traced else None, "bench.pass"):
            for name, fn in parts:
                attempt(lambda: run_part(name, fn, traced))
        passes[traced] += 1
        done = passes[False] >= 1 and (tracer is None or passes[True] >= 1)
        if time.perf_counter() - started >= args.seconds and (done or stats["failed"]):
            break
    return stats, setup_times, passes, best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, best) -> dict:
    """Per-layer totals per traced pass; a layer that runs only in set-up
    is reported per set-up, one that runs only in the warm-up per warm-up."""
    spans = tracer.spans
    phases = ("bench.pass", "bench.setup", "bench.warmup")  # in precedence order
    totals = {phase: {} for phase in phases}
    roots = {phase: 0 for phase in phases}

    def add(phase, name, value):
        totals[phase][name] = totals[phase].get(name, 0) + value

    for span, self_time in zip(spans, tracer.self_times()):
        if span["parent"] is None:
            roots[span["name"]] += 1
            continue
        phase = spans[tracer.root_of(span["id"])]["name"]
        name = span["name"]
        layer = name.split(".")[0]
        add(phase, f"{name}_s", span["end"] - span["start"])
        if name in SELF_TIMED:
            add(phase, f"{layer}.self_s", self_time)
        for key, count in span["counts"].items():
            add(phase, f"{layer}.{key}", count)
    values = {}
    for name in LAYER_METRICS:
        phase = next((p for p in phases if name in totals[p]), None)
        values[name] = totals[phase][name] / roots[phase] if phase else 0.0
    traced, untraced = sum(best[True].values()), sum(best[False].values())
    values["trace.op_s"] = traced
    values["trace.untraced_op_s"] = untraced
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return values


def write_trace(path, tracer, env) -> None:
    """One header line, then one JSON array per span, in start order."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        header = {"environment": env, "fields": ["id", "parent", "name", "start", "end", "self", "counts"]}
        fh.write(json.dumps(header) + "\n")
        for s, self_time in zip(tracer.spans, tracer.self_times()):
            row = [s["id"], s["parent"], s["name"], s["start"], s["end"], self_time, s["counts"]]
            fh.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    docrel = import_docrel()
    sys.path.insert(0, HERE)
    env = environment(args, docrel)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    stats, setup_times, passes, best, complete, details, items = run(args, tracer)
    for line in stats["errors"][:10]:
        print(f"benchmark check failed: {line}", file=sys.stderr)
    attempted, failed = stats["attempted"], stats["failed"]

    if tracer is not None:
        write_trace(
            os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.jsonl"), tracer, env
        )
        metrics = layer_metrics(tracer, best) if complete else {}
        units = LAYER_METRICS
    else:
        metrics = {
            "setup_s": min(setup_times[False]),
            "items_per_s": items / sum(best[False].values()),
            "peak_rss_mb": peak_rss_mb(),
        } if complete else {}
        units = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

    report = dict(
        details,
        setup_s=min(setup_times[False], default=None),
        peak_rss_mb=peak_rss_mb(),
        error_rate=failed / max(attempted, 1),
        passes=passes[False],
        traced_passes=passes[True],
        parts=len(best[False]),
        setup_samples=len(setup_times[False]),
    )
    print(json.dumps({"environment": env, "report": report}))
    result = {
        "correct": complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
