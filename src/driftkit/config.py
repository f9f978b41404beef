"""Flat JSON run configuration with dotted-section keys.

Every run validates its document against the keys it reads, rejecting any
other key by name, and the resolved document (defaults filled in) is
snapshotted into the run directory so reruns are reproducible (DECISIONS.md,
"A command accepts only the settings it reads").  Each section is read off
the keyword parameters of the code that owns its defaults: ``chunk.*`` off
``ChunkSpec`` (but for the planar ``action_dim``), ``drift.*`` off
``DriftConfig``, ``train.*`` off ``TrainConfig``, ``synth.*`` off
``synth_multimodal``, ``model.*`` off ``Generator`` and ``ppo.*`` off
``PPOConfig`` and ``finetune``.  The keys only the CLI reads (``eval.*``,
``ppo.use_ema``, ``data.path`` and ``checkpoint.path``) are listed here,
their one home.  Values are checked by :func:`driftkit.generator.typed`, the
reader that checkpoints and dataset metadata go through too.
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

# a parameter no run sets: ``ChunkSpec`` keeps its default, planar ``action_dim``
FIXED = {"chunk.action_dim"}


def _params(prefix: str, owner):
    """``(parameter, key, kind, default)`` of every keyword parameter of
    ``owner`` (a dataclass's are its fields) that JSON can set: it has a
    default and its annotation, ``X | None`` read as ``X``, is one of
    :data:`KINDS`.  Its key is ``prefix.parameter`` unless :data:`RENAMED`,
    and a key in :data:`FIXED` is left out."""
    for name, p in inspect.signature(owner, eval_str=True).parameters.items():
        kind = p.annotation
        if typing.get_origin(kind) is not tuple and typing.get_args(kind):  # ``X | None``
            kind = typing.get_args(kind)[0]
        key = RENAMED.get(f"{prefix}.{name}", f"{prefix}.{name}")
        if p.default is not p.empty and kind in KINDS and key not in FIXED:
            yield name, key, kind, p.default


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

# the keys every eval run reads, then the keys its ``eval.policy`` adds; the
# scripted controller's executed prefix does not depend on the horizon
EVAL_KEYS = {"eval.episodes": (int, 100), "eval.seed": (int, 0),
             "eval.reward_mode": (str, "dense"), "eval.policy": (str, "checkpoint")}
EVAL_POLICY_KEYS = {
    "checkpoint": {"checkpoint.path": (str, None), "eval.use_ema": (bool, None),
                   "eval.dataset": (str, None)},
    "scripted": {key: CHUNK_KEYS[key] for key in ("chunk.history_len", "chunk.exec_len")},
}
# read by a checkpoint eval with an ``eval.dataset``
COVERAGE_KEYS = {"eval.coverage_samples": (int, 64), "eval.coverage_conditions": (int, 32)}

FINETUNE_KEYS = {"checkpoint.path": (str, None), **keyword_keys("ppo", PPOConfig),
                 **keyword_keys("ppo", finetune), "ppo.use_ema": (bool, None)}

COMMAND_KEYS = {"synth": SYNTH_KEYS, "train": TRAIN_KEYS, "eval": EVAL_KEYS,
                "finetune": FINETUNE_KEYS}
SEED_KEY = {"synth": "synth.seed", "train": "train.seed", "eval": "eval.seed",
            "finetune": "ppo.seed"}


def load_config(path, command: str) -> dict:
    """Read, validate against the keys the run reads, and fill defaults."""
    return resolve_config(read_json_object(path, "config"), command)


def _value(raw: dict, key: str, kind, default):
    return default if raw.get(key) is None else typed(raw[key], kind, key, "config ")


def run_keys(raw: dict, command: str) -> tuple[dict, str]:
    """``{key: (kind, default)}`` of every key a ``command`` run of ``raw``
    reads, and the run's name for an error message."""
    if command != "eval":
        if command not in COMMAND_KEYS:
            raise SpecError(f"unknown command {command!r}")
        return COMMAND_KEYS[command], repr(command)
    policy = _value(raw, "eval.policy", *EVAL_KEYS["eval.policy"])
    if policy not in EVAL_POLICY_KEYS:
        raise SpecError(f"eval.policy must be 'checkpoint' or 'scripted', got {policy!r}")
    table, run = {**EVAL_KEYS, **EVAL_POLICY_KEYS[policy]}, f"'eval' with eval.policy {policy!r}"
    if policy == "scripted" or raw.get("eval.dataset"):
        return {**table, **(COVERAGE_KEYS if policy == "checkpoint" else {})}, run
    return table, run + " and no eval.dataset"


def resolve_config(raw: dict, command: str) -> dict:
    table, run = run_keys(raw, command)
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise SpecError(f"unknown config keys for {run}: {unknown}")
    return {key: _value(raw, key, kind, default) for key, (kind, default) in table.items()}
