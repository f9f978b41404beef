"""Flat JSON run configuration with dotted-section keys.

Every command validates its document against its key table; unknown keys are
rejected rather than ignored, and the resolved document (defaults filled in)
is snapshotted into the run directory so reruns are reproducible.  The
``chunk.*``, ``drift.*``, ``train.*`` and ``ppo.*`` entries are read off the
fields of ``ChunkSpec``, ``DriftConfig``, ``TrainConfig`` and ``PPOConfig``,
which hold the only copy of their defaults.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from .actor import DEFAULT_LOG_STD_INIT
from .drift import DriftConfig
from .envs import read_json_object
from .generator import ChunkSpec
from .ppo import PPOConfig
from .training import TrainConfig


def dataclass_keys(prefix: str, cls) -> dict:
    """``{"prefix.field": (kind, default)}`` for every field of a config dataclass.

    The kind is read off the annotation: ``X | None`` accepts an ``X``, and
    ``tuple[float, ...]`` a JSON list of numbers.
    """
    hints = typing.get_type_hints(cls)
    keys = {}
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if typing.get_origin(kind) is tuple:
            kind = tuple
        elif typing.get_args(kind):  # ``X | None``
            kind = typing.get_args(kind)[0]
        keys[f"{prefix}.{f.name}"] = (kind, f.default)
    return keys


def fields_of(cfg: dict, prefix: str, cls) -> dict:
    """The resolved values of ``cls``'s fields, ready for ``cls(**...)``."""
    return {f.name: cfg[f"{prefix}.{f.name}"] for f in dataclasses.fields(cls)}


CHUNK_KEYS = dataclass_keys("chunk", ChunkSpec)

MODEL_KEYS = {
    "model.latent_dim": (int, 8),
    "model.hidden_dim": (int, 64),
    "model.init_seed": (int, 0),
}

SYNTH_KEYS = {
    "synth.modes": (int, 2),
    "synth.conditions": (int, 200),
    "synth.samples_per_condition": (int, 2),
    "synth.noise": (float, 0.01),
    "synth.seed": (int, 0),
    "synth.gain": (float, 3.0),
    "synth.swing_amp": (float, 0.5),
    "synth.swing_len": (int, 8),
    "synth.warmup_max": (int, 8),
    **CHUNK_KEYS,
}

DRIFT_KEYS = dataclass_keys("drift", DriftConfig)

TRAIN_KEYS = {
    "data.path": (str, None),
    **dataclass_keys("train", TrainConfig),
    **DRIFT_KEYS,
    **MODEL_KEYS,
}

EVAL_KEYS = {
    "checkpoint.path": (str, None),
    "eval.episodes": (int, 100),
    "eval.seed": (int, 0),
    "eval.reward_mode": (str, "dense"),
    "eval.policy": (str, "checkpoint"),
    "eval.use_ema": (bool, True),
    "eval.dataset": (str, None),
    "eval.coverage_samples": (int, 64),
    "eval.coverage_conditions": (int, 32),
    **CHUNK_KEYS,
}

FINETUNE_KEYS = {
    "checkpoint.path": (str, None),
    **dataclass_keys("ppo", PPOConfig),
    "ppo.reward_mode": (str, "sparse"),
    "ppo.log_std_init": (float, DEFAULT_LOG_STD_INIT),
    "ppo.use_ema": (bool, True),
    "ppo.critic_seed": (int, 0),
}

COMMAND_KEYS = {
    "synth": SYNTH_KEYS,
    "train": TRAIN_KEYS,
    "eval": EVAL_KEYS,
    "finetune": FINETUNE_KEYS,
}

SEED_KEY = {
    "synth": "synth.seed",
    "train": "train.seed",
    "eval": "eval.seed",
    "finetune": "ppo.seed",
}


class ConfigError(ValueError):
    pass


def load_config(path, command: str) -> dict:
    """Read, validate against the command's key table, and fill defaults."""
    return resolve_config(read_json_object(path, "config"), command)


def resolve_config(raw: dict, command: str) -> dict:
    table = COMMAND_KEYS.get(command)
    if table is None:
        raise ConfigError(f"unknown command {command!r}")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys for {command!r}: {unknown}")
    resolved = {}
    for key, (kind, default) in table.items():
        if key in raw and raw[key] is not None:
            resolved[key] = _coerce(key, kind, raw[key])
        else:
            resolved[key] = default
    return resolved


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coerce(key: str, kind, value):
    if kind is float and _is_number(value):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and (value is None or isinstance(value, str)):
        return value
    if kind is tuple and isinstance(value, list) and all(map(_is_number, value)):
        return tuple(float(v) for v in value)
    raise ConfigError(f"config key {key!r} expects {kind.__name__}, got {value!r}")


def snapshot_config(resolved: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
