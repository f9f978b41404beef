"""Flat JSON run configuration with dotted-section keys.

Every command validates its document against its key table; unknown keys are
rejected rather than ignored, and the resolved document (defaults filled in)
is snapshotted into the run directory so reruns are reproducible.  Each
section is read off the keyword parameters of the code that owns its
defaults: ``chunk.*`` off ``ChunkSpec``, ``drift.*`` off ``DriftConfig``,
``train.*`` off ``TrainConfig``, ``synth.*`` off ``synth_multimodal``,
``model.*`` off ``Generator`` and ``ppo.*`` off ``PPOConfig`` and
``finetune``.  The keys only the CLI reads (``eval.*``, ``ppo.use_ema``,
``data.path`` and ``checkpoint.path``) are listed here, their one home.
Values are checked by :func:`driftkit.generator.typed`, the reader that
checkpoints and dataset metadata go through too.
"""

from __future__ import annotations

import inspect
import typing

from .drift import DriftConfig
from .envs import synth_multimodal
from .generator import ChunkSpec, Generator, SpecError, read_json_object, typed
from .ppo import PPOConfig, finetune
from .training import TrainConfig

# the kinds a JSON value can set
KINDS = (bool, int, float, str, tuple[float, ...])

# the one key named apart from its parameter: ``Generator(seed=)``
RENAMED = {"model.seed": "model.init_seed"}


def _params(prefix: str, owner):
    """``(parameter, key, kind, default)`` of every keyword parameter of
    ``owner`` (a dataclass's are its fields) that JSON can set: it has a
    default and its annotation, ``X | None`` read as ``X``, is one of
    :data:`KINDS`.  Its key is ``prefix.parameter`` unless :data:`RENAMED`."""
    for name, p in inspect.signature(owner, eval_str=True).parameters.items():
        kind = p.annotation
        if typing.get_origin(kind) is not tuple and typing.get_args(kind):  # ``X | None``
            kind = typing.get_args(kind)[0]
        if p.default is not p.empty and kind in KINDS:
            key = f"{prefix}.{name}"
            yield name, RENAMED.get(key, key), kind, p.default


def keyword_keys(prefix: str, owner) -> dict:
    """``{key: (kind, default)}`` for ``owner``'s settable parameters."""
    return {key: (kind, default) for _, key, kind, default in _params(prefix, owner)}


def fields_of(cfg: dict, prefix: str, owner) -> dict:
    """The resolved values of ``owner``'s settable parameters, ready for ``owner(**...)``."""
    return {name: cfg[key] for name, key, _, _ in _params(prefix, owner)}


CHUNK_KEYS = keyword_keys("chunk", ChunkSpec)
MODEL_KEYS = keyword_keys("model", Generator)
SYNTH_KEYS = {**keyword_keys("synth", synth_multimodal), **CHUNK_KEYS}
DRIFT_KEYS = keyword_keys("drift", DriftConfig)
TRAIN_KEYS = {"data.path": (str, None), **keyword_keys("train", TrainConfig), **DRIFT_KEYS,
              **MODEL_KEYS}

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

FINETUNE_KEYS = {"checkpoint.path": (str, None), **keyword_keys("ppo", PPOConfig),
                 **keyword_keys("ppo", finetune), "ppo.use_ema": (bool, True)}

COMMAND_KEYS = {"synth": SYNTH_KEYS, "train": TRAIN_KEYS, "eval": EVAL_KEYS,
                "finetune": FINETUNE_KEYS}
SEED_KEY = {"synth": "synth.seed", "train": "train.seed", "eval": "eval.seed",
            "finetune": "ppo.seed"}


def load_config(path, command: str) -> dict:
    """Read, validate against the command's key table, and fill defaults."""
    return resolve_config(read_json_object(path, "config"), command)


def resolve_config(raw: dict, command: str) -> dict:
    table = COMMAND_KEYS.get(command)
    if table is None:
        raise SpecError(f"unknown command {command!r}")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise SpecError(f"unknown config keys for {command!r}: {unknown}")
    resolved = {}
    for key, (kind, default) in table.items():
        if key in raw and raw[key] is not None:
            resolved[key] = typed(raw[key], kind, key, "config ")
        else:
            resolved[key] = default
    return resolved
