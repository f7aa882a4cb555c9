"""Flat sectioned key-value configuration with recorded provenance.

Config files look like::

    # comment
    loss.temperature = 0.2
    train.epochs = 30

Every value is typed where it is read: a ``--set`` flag or a config-file
line by ``coerce``, a recorded manifest value by ``checked``, both from one
table of kinds. Every run resolves each registered key from, in decreasing
precedence: command-line flag, replayed manifest, config-file entry, preset
value, built-in default. The resolved value and its source are recorded in
the experiment manifest, and a manifest can be replayed to reproduce a run
exactly.
"""

from __future__ import annotations

import json
import os
import platform
import typing
from dataclasses import dataclass, fields

import numpy as np

from docrel_cli import BLAS_THREAD_VARIABLES

from . import __version__, _heap
from .errors import ConfigError
from .losses import LossConfig
from .training import TrainConfig
from .datagen import Regime, SyntheticConfig, assemble_regime, generate_regime_splits

__all__ = [
    "REGISTRY",
    "PRESETS",
    "parse_config_file",
    "resolve",
    "loss_config_from",
    "train_config_from",
    "synthetic_config_from",
    "gold_splits_from",
    "regime_from",
    "Manifest",
    "environment",
]


@dataclass(frozen=True)
class KeySpec:
    name: str
    kind: str  # int | float | bool | str | opt_float | float_list | int_list
    default: object


_KINDS = {int: "int", float: "float", bool: "bool", str: "str", float | None: "opt_float"}

# Each config dataclass fills one key section. A field's keys default to
# its own name; this map renames a field, splits a pair field into one key
# per element, or (with no names) leaves the field without a key.
_SECTIONS = (
    ("data", SyntheticConfig, {
        "num_documents": ("train_docs",),
        "pairs_per_document": ("pairs_min", "pairs_max"),
        "prototype_noise_sigma": ("noise_sigma",),
        "mentions_per_entity": (),
        "split": (),
    }),
    ("loss", LossConfig, {}),
    ("train", TrainConfig, {"loss": ()}),
)


def _field_keys(section: str, cls, renames) -> list[tuple[str, list[KeySpec]]]:
    """(field name, its key specs) for every field of ``cls`` that has keys."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        names = renames.get(f.name, (f.name,))
        if not names:
            continue
        if len(names) == 1:
            parts = [(names[0], hints[f.name], f.default)]
        else:
            parts = zip(names, typing.get_args(hints[f.name]), f.default)
        out.append(
            (f.name, [KeySpec(f"{section}.{n}", _KINDS[t], d) for n, t, d in parts])
        )
    return out


_FIELD_KEYS = {cls: _field_keys(section, cls, renames) for section, cls, renames in _SECTIONS}

# keys with no config dataclass behind them
_LITERAL_KEYS = (
    KeySpec("data.dev_docs", "int", 25),
    KeySpec("data.test_docs", "int", 25),
    KeySpec("regime.kind", "str", "OOG"),
    KeySpec("regime.noise_rate", "float", 0.4),
    KeySpec("regime.corruption", "str", "example"),
    KeySpec("regime.seed", "int", 0),
    KeySpec("eval.head_cut", "int", 10),
    KeySpec("eval.tail_cut", "int", 20),
    KeySpec("eval.use_gold", "bool", True),
    KeySpec("experiment.seeds", "int_list", (0, 1, 2)),
    KeySpec("experiment.ratios", "float_list", (0.1, 0.5, 1.0)),
)

REGISTRY: dict[str, KeySpec] = {
    spec.name: spec
    for spec in (
        *(s for keys in _FIELD_KEYS.values() for _, specs in keys for s in specs),
        *_LITERAL_KEYS,
    )
}

# named hyperparameter presets, selectable with --preset
PRESETS: dict[str, dict[str, object]] = {
    "docred-like": {
        "loss.temperature": 2.0,
        "loss.contrastive_weight": 2.0,
        "loss.entropy_norm": "unit",
    },
    "redocred-like": {
        "loss.temperature": 0.2,
        "loss.contrastive_weight": 0.1,
        "loss.entropy_norm": "set_size",
    },
}

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _bool(raw: str) -> bool:
    if raw.lower() not in _BOOLS:
        raise ValueError(f"not a boolean: {raw!r}")
    return _BOOLS[raw.lower()]


# each base kind -> (the parser of its config text, the Python types a recorded
# (JSON) value may have; a bool is never a number). A list kind is a comma list.
_KIND_RULES = {
    "int": (int, (int,)),
    "float": (float, (float, int)),
    "bool": (_bool, (bool,)),
    "str": (str, (str,)),
    "opt_float": (lambda raw: None if raw.lower() in ("none", "") else float(raw),
                  (float, int, type(None))),
}


def _kind(key: str) -> tuple[str, bool]:
    """``key``'s base kind and whether it is a list kind; ConfigError if unknown."""
    if key not in REGISTRY:
        raise ConfigError(f"unknown config key {key!r}")
    kind = REGISTRY[key].kind
    return kind.removesuffix("_list"), kind.endswith("_list")


def coerce(key: str, raw: str) -> object:
    """Config text ``raw`` as a value of ``key``'s kind, else ConfigError."""
    kind, is_list = _kind(key)
    parse = _KIND_RULES[kind][0]
    try:
        if is_list:
            return tuple(parse(part.strip()) for part in raw.split(",") if part.strip())
        return parse(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def checked(key: str, value: object) -> object:
    """A recorded ``value`` if ``key`` is known and ``value`` is of its kind,
    lists made tuples; else ConfigError."""
    kind, is_list = _kind(key)
    types = _KIND_RULES[kind][1]
    if is_list:
        ok = type(value) in (list, tuple) and all(type(v) in types for v in value)
        value = tuple(value) if ok else value
    else:
        ok = type(value) in types
    if not ok:
        raise ConfigError(f"config key {key}: {value!r} is not of kind {REGISTRY[key].kind}")
    return value


def parse_config_file(path) -> dict[str, object]:
    """Each key of a config file with its value, typed by ``coerce``. A line
    without ``=``, an unknown key, a value not of its key's kind or a key
    set twice raises ConfigError naming ``path:line``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            if "=" not in body:
                raise ConfigError("expected 'key = value'")
            key, raw = (part.strip() for part in body.split("=", 1))
            if key in values:
                raise ConfigError(f"config key {key} is set twice")
            values[key] = coerce(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def resolve(
    flag_values: dict[str, object] | None = None,
    file_values: dict[str, object] | None = None,
    preset: str | None = None,
    manifest_values: dict[str, object] | None = None,
) -> dict[str, dict]:
    """Resolve every registered key to {value, source}.

    Every value of every layer must be of its key's kind (``checked``).
    Each key then takes its value from the first layer that holds it, None
    included: flag > replayed manifest > file > preset > default. A
    manifest replay therefore reproduces the recorded run unless a flag
    explicitly overrides a key.
    """
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
    layers = [
        ("flag", flag_values or {}),
        ("manifest", manifest_values or {}),
        ("file", file_values or {}),
        (f"preset:{preset}", PRESETS[preset] if preset else {}),
        ("default", {key: spec.default for key, spec in REGISTRY.items()}),
    ]
    layers = [(source, {k: checked(k, v) for k, v in layer.items()}) for source, layer in layers]
    return {key: next({"value": layer[key], "source": source}
                      for source, layer in layers if key in layer) for key in REGISTRY}


def values(resolved: dict[str, dict]) -> dict[str, object]:
    return {k: v["value"] for k, v in resolved.items()}


def _config_from(cls, resolved: dict[str, dict], **extra):
    v = values(resolved)
    kwargs = {}
    for name, specs in _FIELD_KEYS[cls]:
        picked = tuple(v[spec.name] for spec in specs)
        kwargs[name] = picked[0] if len(picked) == 1 else picked
    return cls(**kwargs, **extra)


def loss_config_from(resolved: dict[str, dict]) -> LossConfig:
    return _config_from(LossConfig, resolved)


def train_config_from(resolved: dict[str, dict]) -> TrainConfig:
    return _config_from(TrainConfig, resolved, loss=loss_config_from(resolved))


def synthetic_config_from(resolved: dict[str, dict]) -> SyntheticConfig:
    return _config_from(SyntheticConfig, resolved)


def gold_splits_from(resolved: dict[str, dict]):
    """The gold train/dev/test splits of the resolved ``data.*`` world."""
    v = values(resolved)
    return generate_regime_splits(
        synthetic_config_from(resolved), v["data.dev_docs"], v["data.test_docs"]
    )


def regime_from(splits, resolved: dict[str, dict]) -> Regime:
    """Gold ``splits`` relabelled into the resolved ``regime.*`` regime."""
    v = values(resolved)
    return assemble_regime(
        splits,
        v["regime.noise_rate"],
        v["regime.kind"],
        seed=v["regime.seed"],
        corruption=v["regime.corruption"],
    )


def environment() -> dict[str, object]:
    """What a run ran on: the Python, NumPy, platform and glibc versions
    (glibc None on another C library), the heap pad docrel set (None where
    it left the allocator alone) and the BLAS thread-count variables that the
    ``docrel`` command sets (None where unset)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "glibc": _heap.glibc_version(),
        "heap_top_pad": _heap.top_pad,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


# each environment entry -> the types its value may have
_ENVIRONMENT_KINDS = {
    "python": (str,),
    "numpy": (str,),
    "platform": (str,),
    "glibc": (str, type(None)),
    "heap_top_pad": (int, type(None)),
    "blas_threads": (dict,),
}


@dataclass(eq=False)
class Manifest:
    command: str
    config: dict[str, dict]
    inputs: dict[str, str]
    outputs: dict[str, str]
    version: str = __version__
    runtime_seconds: float | None = None
    environment: dict[str, object] | None = None  # see ``environment()``

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(vars(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Manifest":
        """Read a manifest; a missing, garbled or incomplete one, or one that
        records an unknown key, a value of the wrong kind, an input that is
        not a string or an environment unlike ``environment()``'s, raises
        ConfigError. A manifest without an environment loads with None."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            m = cls(
                command=obj["command"],
                config=obj["config"],
                inputs=dict(obj.get("inputs", {})),
                outputs=dict(obj.get("outputs", {})),
                version=obj.get("version", "unknown"),
                runtime_seconds=obj.get("runtime_seconds"),
                environment=obj.get("environment"),
            )
            for key, entry in m.config.items():  # each entry carries a value of its key's kind
                entry["value"] = checked(key, entry["value"])
            for name, value in m.inputs.items():
                if type(value) is not str:
                    raise TypeError(f"input {name}: {value!r} is not a string")
            if m.environment is not None:
                # a manifest written before blas_threads was recorded has none
                required = _ENVIRONMENT_KINDS.keys() - {"blas_threads"}
                if not required <= m.environment.keys() <= _ENVIRONMENT_KINDS.keys():
                    raise KeyError(f"environment keys {sorted(m.environment)}")
                for name, value in m.environment.items():
                    if type(value) not in _ENVIRONMENT_KINDS[name]:
                        raise TypeError(f"environment {name}: {value!r} is of the wrong kind")
                threads = m.environment.get("blas_threads")
                if threads is not None and (
                    threads.keys() != set(BLAS_THREAD_VARIABLES)
                    or not all(type(v) in (str, type(None)) for v in threads.values())
                ):
                    raise TypeError(f"environment blas_threads: {threads!r} is not one string "
                                    f"or None for each of {BLAS_THREAD_VARIABLES}")
        except (OSError, ValueError, KeyError, TypeError, AttributeError, ConfigError) as exc:
            raise ConfigError(f"{path}: not a readable run manifest: {exc!r}") from exc
        return m
