"""Flat JSON run configuration with dotted-section keys.

Every command validates its document against an explicit key table; unknown
keys are rejected rather than ignored, and the resolved document (defaults
filled in) is snapshotted into the run directory so reruns are reproducible.
"""

from __future__ import annotations

import json

CHUNK_KEYS = {
    "chunk.horizon": (int, 16),
    "chunk.action_dim": (int, 2),
    "chunk.history_len": (int, 2),
    "chunk.exec_len": (int, 8),
}

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

DRIFT_KEYS = {
    "drift.hypothesis_count": (int, 4),
    "drift.temperatures": (list, [0.2]),
    "drift.scale_floor": (float, 1e-6),
    "drift.force_floor": (float, 1e-6),
    "drift.loss_mode": (str, "chunk"),
}

TRAIN_KEYS = {
    "data.path": (str, None),
    "train.batch_size": (int, 32),
    "train.learning_rate": (float, 1e-4),
    "train.beta1": (float, 0.95),
    "train.beta2": (float, 0.999),
    "train.weight_decay": (float, 1e-6),
    "train.grad_clip": (float, 1.0),
    "train.epochs": (int, 100),
    "train.steps": (int, None),
    "train.warmup_steps": (int, 500),
    "train.ema_decay": (float, 0.9999),
    "train.ema_power": (float, 0.75),
    "train.seed": (int, 0),
    "train.checkpoint_every": (int, 0),
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
    "ppo.clip": (float, 0.2),
    "ppo.value_weight": (float, 0.5),
    "ppo.entropy_weight": (float, 0.01),
    "ppo.anchor_weight": (float, 1.0),
    "ppo.anchor_decay": (bool, False),
    "ppo.gamma": (float, 0.99),
    "ppo.gae_lambda": (float, 0.95),
    "ppo.rollout_length": (int, 128),
    "ppo.update_epochs": (int, 4),
    "ppo.minibatch_size": (int, 32),
    "ppo.actor_lr": (float, 1e-3),
    "ppo.critic_lr": (float, 1e-3),
    "ppo.iterations": (int, 30),
    "ppo.seed": (int, 0),
    "ppo.reward_mode": (str, "sparse"),
    "ppo.log_std_init": (float, -1.8971199848858813),
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
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return resolve_config(raw, command)


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


def _coerce(key: str, kind, value):
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and (value is None or isinstance(value, str)):
        return value
    if kind is list and isinstance(value, list):
        return [float(v) for v in value]
    raise ConfigError(f"config key {key!r} expects {kind.__name__}, got {value!r}")


def snapshot_config(resolved: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
