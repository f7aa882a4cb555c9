"""Command-line interface.

Subcommands: gen-data, build-regime, train, eval, ablate, sweep-ratio,
selftest. Configuration comes from ``--set section.key=value`` flags, an
optional ``--config`` file, an optional ``--preset``, and built-in
defaults, in that precedence order; every run writes a manifest recording
each resolved value and its source, and ``--from-manifest`` replays a
recorded run.

Exit codes: 0 success, 1 operational failure, 2 usage error, 3 invalid
configuration, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time

from . import __version__
from .config import (
    Manifest,
    PRESETS,
    coerce,
    environment,
    gold_splits_from,
    parse_config_file,
    regime_from,
    resolve,
    train_config_from,
    values,
)
from .core import bucket_relations
from .datagen import Regime, assemble_regime, load_regime, save_regime
from .errors import ConfigError, DocrelError, NumericError
from .evaluation import EvalReport, evaluate, train_fact_set
from .experiments import run_ablation, sweep_sampling_ratio
from .head import load_checkpoint, save_checkpoint
from .reports import write_ablation_csv, write_eval_csv, write_json, write_sweep_csvs
from .selftest import run_all
from .training import train as train_model

OUT_DIR_ENV = "DOCREL_OUT_DIR"
_SPLITS = ("train", "dev", "test")


def _default_out(command: str) -> str:
    return os.path.join(os.environ.get(OUT_DIR_ENV, "out"), command)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output directory (default: $DOCREL_OUT_DIR/<command>)")
    parser.add_argument("--config", help="key-value config file")
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), help="named hyperparameter preset"
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override one config key (repeatable), e.g. --set loss.temperature=0.2",
    )
    parser.add_argument("--from-manifest", help="replay a recorded run's configuration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docrel",
        description="moving-threshold multi-label relation classification experiments",
    )
    parser.add_argument("--version", action="version", version=f"docrel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate gold synthetic train/dev/test splits")
    _add_common(p)

    p = sub.add_parser("build-regime", help="corrupt gold splits into a label-source regime")
    _add_common(p)
    p.add_argument("--data", help="gold bundle directory (from gen-data)")

    p = sub.add_parser("train", help="train the classification head on a regime")
    _add_common(p)
    p.add_argument("--regime", help="regime bundle directory")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a regime split")
    _add_common(p)
    p.add_argument("--regime")
    p.add_argument("--checkpoint")
    p.add_argument("--split", choices=_SPLITS, help="regime split to score (default: test)")

    p = sub.add_parser("ablate", help="component-removal study over shared seeds")
    _add_common(p)
    p.add_argument("--regime")

    p = sub.add_parser("sweep-ratio", help="negative-label sampling ratio sweep")
    _add_common(p)
    p.add_argument("--regime")

    p = sub.add_parser("selftest", help="run gradient, oracle, and invariant suites")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _resolved_config(args, replayed: Manifest | None) -> dict[str, dict]:
    flag_values: dict[str, object] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key in flag_values:
            raise ConfigError(f"config key {key} is set twice by --set")
        flag_values[key] = coerce(key, raw)

    return resolve(
        flag_values=flag_values,
        file_values=parse_config_file(args.config) if args.config else None,
        preset=args.preset,
        manifest_values=values(replayed.config) if replayed else None,
    )


def _input(args, replayed: Manifest | None, name: str, default: str | None) -> str:
    """An input from its flag, else from the replayed manifest, else ``default``."""
    value = getattr(args, name) or (replayed.inputs.get(name) if replayed else None) or default
    if value is None:
        raise ConfigError(f"missing required input --{name}")
    return value


def _run(args, body, input_names: dict[str, str | None]) -> int:
    """Run one pipeline command and record it in ``<out>/manifest.json``.

    Loads the ``--from-manifest`` manifest once, resolves the config,
    takes each input in ``input_names`` (name -> default, None where the
    input is required), creates the output directory and times
    ``body(args, resolved, out_dir, inputs)``, which returns the outputs.
    If the command fails, the directories it made for the output (missing
    parents too) are removed while empty; none that existed is touched.
    """
    replayed = Manifest.load(args.from_manifest) if args.from_manifest else None
    resolved = _resolved_config(args, replayed)
    out_dir = args.out or _default_out(args.command)
    inputs = {n: _input(args, replayed, n, default) for n, default in input_names.items()}
    created, path = [], os.path.abspath(out_dir)  # what makedirs will make, deepest first
    while not os.path.isdir(path) and os.path.dirname(path) != path:
        created, path = [*created, path], os.path.dirname(path)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DocrelError(f"{out_dir}: cannot create output directory: {exc}") from exc
    try:
        started = time.time()
        outputs = body(args, resolved, out_dir, inputs)
        Manifest(
            args.command,
            resolved,
            inputs,
            outputs,
            runtime_seconds=time.time() - started,
            environment=environment(),
        ).save(os.path.join(out_dir, "manifest.json"))
    except BaseException:
        with contextlib.suppress(OSError):
            for path in created:
                os.rmdir(path)
        raise
    return 0


def _cuts(v: dict[str, object]) -> tuple[int, int]:
    return v["eval.head_cut"], v["eval.tail_cut"]


def _gen_data(args, resolved, out_dir, inputs) -> dict[str, str]:
    regime = assemble_regime(gold_splits_from(resolved), 0.0, "GGG")
    save_regime(
        regime,
        out_dir,
        manifest_extra={"noise_rate": 0.0, "generator_seed": values(resolved)["data.seed"]},
    )
    print(
        f"wrote gold bundle to {out_dir} "
        f"(train={len(regime.train.examples)} dev={len(regime.dev.examples)} "
        f"test={len(regime.test.examples)} examples)"
    )
    return {"bundle": out_dir}


def _build_regime(args, resolved, out_dir, inputs) -> dict[str, str]:
    v = values(resolved)
    gold = load_regime(inputs["data"])
    regime = regime_from((gold.train, gold.dev, gold.test), resolved)
    save_regime(
        regime,
        out_dir,
        manifest_extra={
            "noise_rate": v["regime.noise_rate"],
            "corruption": v["regime.corruption"],
            "seed": v["regime.seed"],
        },
    )
    print(f"wrote {regime.name} regime to {out_dir}")
    return {"bundle": out_dir}


def _buckets(regime: Regime, resolved) -> dict:
    """The head/mid/tail buckets of ``regime``'s relations under the resolved cuts."""
    return bucket_relations(regime.train.vocabulary, _cuts(values(resolved)))


def _evaluate(regime: Regime, params, split: str, resolved, buckets, path: str,
              **extra) -> EvalReport:
    """Score ``params`` on one regime split with ``buckets``; write
    ``<path>.json`` (``extra`` and the split's summary) and ``<path>.csv``."""
    report = evaluate(
        params,
        getattr(regime, split),
        train_fact_set(regime.train),
        buckets,
        use_gold=values(resolved)["eval.use_gold"],
    )
    write_json({**extra, split: report.summary()}, path + ".json")
    write_eval_csv([(split, report)], path + ".csv")
    return report


def _train(args, resolved, out_dir, inputs) -> dict[str, str]:
    regime = load_regime(inputs["regime"])
    config = train_config_from(resolved)
    buckets = _buckets(regime, resolved)  # bad cuts fail before training
    result = train_model(regime.train, regime.dev, config)

    checkpoint = os.path.join(out_dir, "checkpoint.ckpt")
    history = os.path.join(out_dir, "history.jsonl")
    save_checkpoint(result.params, checkpoint)
    save_checkpoint(result.final_params, os.path.join(out_dir, "final.ckpt"))
    with open(history, "w", encoding="utf-8") as fh:
        for record in result.history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    report = os.path.join(out_dir, "dev_report")
    _evaluate(regime, result.params, "dev", resolved, buckets, report,
              best_epoch=result.best_epoch)
    print(
        f"trained {config.epochs} epochs; best epoch {result.best_epoch} "
        f"dev F1 {result.best_dev_f1:.4f}; outputs in {out_dir}"
    )
    return {"checkpoint": checkpoint, "history": history, "report": report + ".json"}


def _eval(args, resolved, out_dir, inputs) -> dict[str, str]:
    split = inputs["split"]
    if split not in _SPLITS:
        raise ConfigError(
            f"{args.from_manifest}: recorded split {split!r} is not one of {_SPLITS}"
        )
    regime = load_regime(inputs["regime"])
    params = load_checkpoint(inputs["checkpoint"])
    report_path = os.path.join(out_dir, "report")
    report = _evaluate(regime, params, split, resolved, _buckets(regime, resolved), report_path)
    print(f"{split}: F1={report.f1:.4f} IgnF1={report.ign_f1:.4f} (in {out_dir})")
    return {"report": report_path + ".json"}


def _ablate(args, resolved, out_dir, inputs) -> dict[str, str]:
    v = values(resolved)
    rows = run_ablation(
        load_regime(inputs["regime"]),
        train_config_from(resolved),
        seeds=v["experiment.seeds"],
        bucket_cuts=_cuts(v),
    )
    table = os.path.join(out_dir, "ablation.csv")
    write_ablation_csv(rows, table)
    write_json(rows, os.path.join(out_dir, "ablation.json"))
    for row in rows:
        m = row["mean"]
        print(
            f"{row['variant']:>6}: F1={m['f1']:.4f} head={m['head_f1']:.4f} "
            f"mid={m['mid_f1']:.4f} tail={m['tail_f1']:.4f}"
        )
    return {"table": table}


def _sweep_ratio(args, resolved, out_dir, inputs) -> dict[str, str]:
    v = values(resolved)
    rows = sweep_sampling_ratio(
        load_regime(inputs["regime"]),
        train_config_from(resolved),
        ratios=v["experiment.ratios"],
        seeds=v["experiment.seeds"],
        bucket_cuts=_cuts(v),
    )
    summary = os.path.join(out_dir, "sweep.json")
    write_sweep_csvs(rows, out_dir)
    write_json(rows, summary)
    for row in rows:
        gt = row["mean"]["gold_test"]["f1"]
        od = row["mean"]["orig_dev"]["f1"]
        print(f"ratio {row['ratio']}: gold-test F1={gt:.4f} orig-dev F1={od:.4f}")
    return {"summary": summary}


def _selftest(seed: int) -> int:
    ok = True
    for result in run_all(seed):
        print(result.line())
        for failure in result.failures[:10]:
            print(f"    {failure}", file=sys.stderr)
        ok = ok and result.passed
    return 0 if ok else 1


# pipeline command -> (body, its inputs: name -> default, None where required)
_COMMANDS = {
    "gen-data": (_gen_data, {}),
    "build-regime": (_build_regime, {"data": None}),
    "train": (_train, {"regime": None}),
    "eval": (_eval, {"regime": None, "checkpoint": None, "split": "test"}),
    "ablate": (_ablate, {"regime": None}),
    "sweep-ratio": (_sweep_ratio, {"regime": None}),
}


@contextlib.contextmanager
def _log_to_stderr():
    """Print the library's INFO lines (one per training epoch) on stderr."""
    logger = logging.getLogger("docrel")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _log_to_stderr():
            if args.command == "selftest":
                return _selftest(args.seed)
            return _run(args, *_COMMANDS[args.command])
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 4
    except DocrelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
