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
import json
import os
import sys

from . import __version__
from .config import (
    Manifest,
    PRESETS,
    coerce,
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
from .evaluation import evaluate, train_fact_set
from .experiments import run_ablation, sweep_sampling_ratio
from .head import load_checkpoint, save_checkpoint
from .reports import write_ablation_csv, write_eval_csv, write_json, write_sweep_csvs
from .selftest import run_all
from .training import train as train_model

OUT_DIR_ENV = "DOCREL_OUT_DIR"


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
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")

    p = sub.add_parser("ablate", help="component-removal study over shared seeds")
    _add_common(p)
    p.add_argument("--regime")
    p.add_argument(
        "--toggles", default="em,scl", help="comma list of removable parts (em, scl)"
    )

    p = sub.add_parser("sweep-ratio", help="negative-label sampling ratio sweep")
    _add_common(p)
    p.add_argument("--regime")

    p = sub.add_parser("selftest", help="run gradient, oracle, and invariant suites")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _resolved_config(args) -> dict[str, dict]:
    flag_values: dict[str, object] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        flag_values[key.strip()] = coerce(key.strip(), raw)

    file_values = parse_config_file(args.config) if args.config else None
    manifest_values = None
    if args.from_manifest:
        manifest_values = values(Manifest.load(args.from_manifest).config)
    return resolve(
        flag_values=flag_values,
        file_values=file_values,
        preset=args.preset,
        manifest_values=manifest_values,
    )


def _input_path(args, name: str) -> str:
    """An input path from the flag, falling back to a replayed manifest."""
    value = getattr(args, name, None)
    if value:
        return value
    if args.from_manifest:
        recorded = Manifest.load(args.from_manifest).inputs.get(name)
        if recorded:
            return recorded
    raise ConfigError(f"missing required input --{name}")


def _finish(manifest: Manifest, out_dir: str) -> None:
    manifest.finish()
    manifest.save(os.path.join(out_dir, "manifest.json"))


def _cmd_gen_data(args) -> int:
    resolved = _resolved_config(args)
    out_dir = args.out or _default_out("gen-data")
    os.makedirs(out_dir, exist_ok=True)
    manifest = Manifest("gen-data", resolved, {}, {"bundle": out_dir}).start()

    regime = assemble_regime(gold_splits_from(resolved), 0.0, "GGG")
    save_regime(
        regime,
        out_dir,
        manifest_extra={"noise_rate": 0.0, "generator_seed": values(resolved)["data.seed"]},
    )
    _finish(manifest, out_dir)
    print(
        f"wrote gold bundle to {out_dir} "
        f"(train={len(regime.train.examples)} dev={len(regime.dev.examples)} "
        f"test={len(regime.test.examples)} examples)"
    )
    return 0


def _cmd_build_regime(args) -> int:
    resolved = _resolved_config(args)
    out_dir = args.out or _default_out("build-regime")
    os.makedirs(out_dir, exist_ok=True)
    data_dir = _input_path(args, "data")
    manifest = Manifest(
        "build-regime", resolved, {"data": data_dir}, {"bundle": out_dir}
    ).start()

    v = values(resolved)
    gold = load_regime(data_dir)
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
    _finish(manifest, out_dir)
    print(f"wrote {regime.name} regime to {out_dir}")
    return 0


def _bucket_setup(regime: Regime, resolved):
    v = values(resolved)
    cuts = (v["eval.head_cut"], v["eval.tail_cut"])
    return bucket_relations(regime.train.vocabulary, cuts), train_fact_set(regime.train)


def _cmd_train(args) -> int:
    resolved = _resolved_config(args)
    out_dir = args.out or _default_out("train")
    os.makedirs(out_dir, exist_ok=True)
    regime_dir = _input_path(args, "regime")
    manifest = Manifest(
        "train",
        resolved,
        {"regime": regime_dir},
        {
            "checkpoint": os.path.join(out_dir, "checkpoint.ckpt"),
            "history": os.path.join(out_dir, "history.jsonl"),
            "report": os.path.join(out_dir, "dev_report.json"),
        },
    ).start()

    regime = load_regime(regime_dir)
    config = train_config_from(resolved)
    result = train_model(regime.train, regime.dev, config)

    save_checkpoint(result.params, os.path.join(out_dir, "checkpoint.ckpt"))
    save_checkpoint(result.final_params, os.path.join(out_dir, "final.ckpt"))
    with open(os.path.join(out_dir, "history.jsonl"), "w", encoding="utf-8") as fh:
        for record in result.history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    buckets, facts = _bucket_setup(regime, resolved)
    report = evaluate(result.params, regime.dev, facts, buckets, use_gold=values(resolved)["eval.use_gold"])
    write_json(
        {"best_epoch": result.best_epoch, "dev": report.summary()},
        os.path.join(out_dir, "dev_report.json"),
    )
    write_eval_csv([("dev", report)], os.path.join(out_dir, "dev_report.csv"))
    _finish(manifest, out_dir)
    print(
        f"trained {config.epochs} epochs; best epoch {result.best_epoch} "
        f"dev F1 {result.best_dev_f1:.4f}; outputs in {out_dir}"
    )
    return 0


def _cmd_eval(args) -> int:
    resolved = _resolved_config(args)
    out_dir = args.out or _default_out("eval")
    os.makedirs(out_dir, exist_ok=True)
    regime_dir = _input_path(args, "regime")
    checkpoint = _input_path(args, "checkpoint")
    manifest = Manifest(
        "eval",
        resolved,
        {"regime": regime_dir, "checkpoint": checkpoint, "split": args.split},
        {"report": os.path.join(out_dir, "report.json")},
    ).start()

    regime = load_regime(regime_dir)
    params = load_checkpoint(checkpoint)
    corpus = getattr(regime, args.split)
    buckets, facts = _bucket_setup(regime, resolved)
    report = evaluate(
        params, corpus, facts, buckets, use_gold=values(resolved)["eval.use_gold"]
    )
    write_json({args.split: report.summary()}, os.path.join(out_dir, "report.json"))
    write_eval_csv([(args.split, report)], os.path.join(out_dir, "report.csv"))
    _finish(manifest, out_dir)
    print(f"{args.split}: F1={report.f1:.4f} IgnF1={report.ign_f1:.4f} (in {out_dir})")
    return 0


def _cmd_ablate(args) -> int:
    resolved = _resolved_config(args)
    out_dir = args.out or _default_out("ablate")
    os.makedirs(out_dir, exist_ok=True)
    regime_dir = _input_path(args, "regime")
    manifest = Manifest(
        "ablate",
        resolved,
        {"regime": regime_dir, "toggles": args.toggles},
        {"table": os.path.join(out_dir, "ablation.csv")},
    ).start()

    regime = load_regime(regime_dir)
    v = values(resolved)
    toggles = {t.strip() for t in args.toggles.split(",") if t.strip()}
    rows = run_ablation(
        regime,
        train_config_from(resolved),
        toggles,
        seeds=v["experiment.seeds"],
        bucket_cuts=(v["eval.head_cut"], v["eval.tail_cut"]),
    )
    write_ablation_csv(rows, os.path.join(out_dir, "ablation.csv"))
    write_json(rows, os.path.join(out_dir, "ablation.json"))
    _finish(manifest, out_dir)
    for row in rows:
        m = row["mean"]
        print(
            f"{row['variant']:>6}: F1={m['f1']:.4f} head={m['head_f1']:.4f} "
            f"mid={m['mid_f1']:.4f} tail={m['tail_f1']:.4f}"
        )
    return 0


def _cmd_sweep_ratio(args) -> int:
    resolved = _resolved_config(args)
    out_dir = args.out or _default_out("sweep-ratio")
    os.makedirs(out_dir, exist_ok=True)
    regime_dir = _input_path(args, "regime")
    manifest = Manifest(
        "sweep-ratio",
        resolved,
        {"regime": regime_dir},
        {"summary": os.path.join(out_dir, "sweep.json")},
    ).start()

    regime = load_regime(regime_dir)
    v = values(resolved)
    rows = sweep_sampling_ratio(
        regime,
        train_config_from(resolved),
        ratios=v["experiment.ratios"],
        seeds=v["experiment.seeds"],
        bucket_cuts=(v["eval.head_cut"], v["eval.tail_cut"]),
    )
    write_sweep_csvs(rows, out_dir)
    write_json(rows, os.path.join(out_dir, "sweep.json"))
    _finish(manifest, out_dir)
    for row in rows:
        gt = row["mean"]["gold_test"]["f1"]
        od = row["mean"]["orig_dev"]["f1"]
        print(f"ratio {row['ratio']}: gold-test F1={gt:.4f} orig-dev F1={od:.4f}")
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(args.seed)
    ok = True
    for result in results:
        print(result.line())
        for failure in result.failures[:10]:
            print(f"    {failure}", file=sys.stderr)
        ok = ok and result.passed
    return 0 if ok else 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "build-regime": _cmd_build_regime,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "sweep-ratio": _cmd_sweep_ratio,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
