"""The config schema: resolved defaults, key tables read off the dataclasses,
coercion and rejection."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re

import pytest

from driftkit.config import (CHUNK_KEYS, COMMAND_KEYS, DRIFT_KEYS, FINETUNE_KEYS, MODEL_KEYS,
                             SYNTH_KEYS, TRAIN_KEYS, fields_of, resolve_config)
from driftkit.drift import DriftConfig
from driftkit.envs import synth_multimodal
from driftkit.generator import ChunkSpec, Generator, SpecError
from driftkit.ppo import PPOConfig
from driftkit.training import TrainConfig

# SHA-256 of json.dumps(resolve_config({}, command), indent=2, sort_keys=True):
# the default snapshot each command writes.  A changed digest means a default,
# a key or a resolved value's JSON form moved.
DEFAULT_SNAPSHOT_SHA256 = {
    "synth": "2d8ca0d8b5c57a063ce2444aa610d030ee3276c8a12cebbaac5a5c0053d5b06f",
    "train": "c2b0ef5913ed8e634b90bb0c47cc7a17f901befbca931ad82f2a46cfeceef5db",
    "eval": "68ad6d4ed78c55efc12a9d7ea6e714303f4db08781ee97c2e897191eb94e6bf6",
    "finetune": "aa4bea4fb11afe44123736f9477aa2146fde1e33c5779bdea0a12ee4bd52ba4a",
}


def comparable(owner, *args, view):
    """``owner`` with the same signature, called on ``args`` first, returning
    ``view`` of its result so that two results compare by value."""
    @functools.wraps(owner)
    def build(**kwargs):
        return view(owner(*args, **kwargs))
    return build


SYNTH = comparable(synth_multimodal, view=lambda ds: (
    ds.observations.tobytes(), ds.chunks.tobytes(), ds.modes.tobytes(), ds.metadata))
MODEL = comparable(Generator, ChunkSpec(), 6, view=lambda gen: (
    gen.latent_dim, gen.hidden_dim, {k: v.tobytes() for k, v in gen.param_arrays().items()}))

SECTIONS = [("chunk", ChunkSpec, CHUNK_KEYS), ("drift", DriftConfig, DRIFT_KEYS),
            ("train", TrainConfig, TRAIN_KEYS), ("ppo", PPOConfig, FINETUNE_KEYS),
            ("synth", SYNTH, SYNTH_KEYS), ("model", MODEL, MODEL_KEYS)]


@pytest.mark.parametrize("command", sorted(DEFAULT_SNAPSHOT_SHA256))
def test_default_snapshot_keeps_its_bytes(command):
    text = json.dumps(resolve_config({}, command), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_SNAPSHOT_SHA256[command]


@pytest.mark.parametrize("prefix, cls, table", SECTIONS)
def test_section_defaults_build_the_dataclass_default(prefix, cls, table):
    resolved = {key: default for key, (_, default) in table.items()}
    assert cls(**fields_of(resolved, prefix, cls)) == cls()


def test_values_are_coerced_to_the_field_kind():
    cfg = resolve_config({"drift.temperatures": [1, 0.5], "train.learning_rate": 1,
                          "train.steps": 7}, "train")
    assert cfg["drift.temperatures"] == (1.0, 0.5)
    assert isinstance(cfg["train.learning_rate"], float)
    assert DriftConfig(**fields_of(cfg, "drift", DriftConfig)).temperatures == (1.0, 0.5)
    assert TrainConfig(**fields_of(cfg, "train", TrainConfig)).steps == 7
    assert resolve_config({"train.steps": None}, "train")["train.steps"] is None


@pytest.mark.parametrize("command, raw", [
    ("finetune", {"ppo.clip_eps": 0.1}),
    ("train", {"train.steps": 1.5}),
    ("train", {"drift.temperatures": 0.2}),
    ("train", {"drift.temperatures": ["x"]}),
    ("train", {"drift.temperatures": [True]}),
    ("finetune", {"ppo.anchor_decay": 1}),
    ("synth", {"chunk.horizon": "16"}),
    ("eval", {"eval.policy": 1}),
])
def test_unknown_keys_and_wrong_kinds_are_rejected(command, raw):
    with pytest.raises(SpecError):
        resolve_config(raw, command)


@pytest.mark.parametrize("command, raw, count", [
    ("synth", {}, 12), ("train", {}, 21), ("finetune", {}, 19),
    ("eval", {}, 7), ("eval", {"eval.dataset": "d.csv"}, 9),
    ("eval", {"eval.policy": "scripted"}, 6),
])
def test_a_run_resolves_the_keys_it_reads(command, raw, count):
    assert len(resolve_config(raw, command)) == count


@pytest.mark.parametrize("command, raw, message", [
    ("synth", {"chunk.action_dim": 2}, "for 'synth': ['chunk.action_dim']"),
    ("train", {"train.epochs": 7, "train.steps": 3}, "for 'train': ['train.epochs']"),
    ("eval", {"chunk.horizon": 4},
     "for 'eval' with eval.policy 'checkpoint' and no eval.dataset: ['chunk.horizon']"),
    ("eval", {"eval.coverage_samples": 8},
     "for 'eval' with eval.policy 'checkpoint' and no eval.dataset: ['eval.coverage_samples']"),
    ("eval", {"eval.dataset": "d.csv", "chunk.exec_len": 2},
     "for 'eval' with eval.policy 'checkpoint': ['chunk.exec_len']"),
    ("eval", {"eval.policy": "scripted", "checkpoint.path": "c.json", "eval.use_ema": True,
              "chunk.horizon": 4},
     "for 'eval' with eval.policy 'scripted': "
     "['checkpoint.path', 'chunk.horizon', 'eval.use_ema']"),
])
def test_a_key_the_run_does_not_read_is_rejected_by_name(command, raw, message):
    with pytest.raises(SpecError, match=re.escape(f"unknown config keys {message}")):
        resolve_config(raw, command)


FLOAT_KEYS = sorted({(command, key) for command, table in COMMAND_KEYS.items()
                     for key, (kind, _) in table.items() if kind in (float, tuple[float, ...])})


@pytest.mark.parametrize("command, key", FLOAT_KEYS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_every_float_key_rejects_a_non_finite_value(command, key, bad):
    # JSON's NaN and Infinity parse as floats, and an int past the float range
    # would overflow; every float key names itself and asks for a finite float,
    # and a float list key names the item by its index
    if COMMAND_KEYS[command][key][0] is float:
        value, name, good, read = bad, key, 0.5, 0.5
    else:
        value, name, good, read = [0.5, bad], f"{key}[1]", [0.5], (0.5,)
    with pytest.raises(SpecError, match=rf"key '{re.escape(name)}' expects a finite float"):
        resolve_config({key: value}, command)
    assert resolve_config({key: good}, command)[key] == read


@pytest.mark.parametrize("value", [[1e308, 1e308], [-1e308, 0.5, -1e308], [10**308, 10**308]])
def test_a_float_list_of_finite_items_whose_sum_overflows_is_read(value):
    # each item is read alone, so finite items whose sum overflows are accepted
    assert resolve_config({"drift.temperatures": value}, "train")["drift.temperatures"] == \
        tuple(map(float, value))
