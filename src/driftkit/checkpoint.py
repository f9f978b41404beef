"""Self-describing JSON checkpoints.

One document stores the chunk geometry, network dimensions, flat parameter
arrays, and optionally the EMA shadow, optimizer state, rng state, the
Stage-2 scale head and the critic.  Keys are sorted and floats use repr, so
identical state serializes to identical bytes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .actor import GaussianActor
from .envs import read_json_object
from .generator import ChunkSpec, Generator, SpecError
from .ppo import Critic

FORMAT_VERSION = 1


def _pack(arrays: dict[str, np.ndarray]) -> dict:
    return {name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in arrays.items()}


def _unpack(packed: dict) -> dict[str, np.ndarray]:
    return {name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in packed.items()}


def checkpoint_document(generator: Generator, ema_params=None, rng_state=None,
                        optimizer_state=None, actor: GaussianActor | None = None,
                        critic: Critic | None = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "chunk_spec": generator.spec.to_dict(),
        "obs_dim": generator.obs_dim,
        "latent_dim": generator.latent_dim,
        "hidden_dim": generator.hidden_dim,
        "params": _pack(generator.params.arrays()),
    }
    if ema_params is not None:
        doc["ema_params"] = _pack(ema_params)
    if rng_state is not None:
        doc["rng_state"] = rng_state
    if optimizer_state is not None:
        doc["optimizer"] = optimizer_state
    if actor is not None:
        doc["actor_head"] = {
            "params": _pack(actor.head.arrays()),
            "log_std_bounds": list(actor.log_std_bounds),
        }
    if critic is not None:
        doc["critic"] = {
            "input_dim": critic.input_dim,
            "hidden_dim": critic.hidden_dim,
            "params": _pack(critic.params.arrays()),
        }
    return doc


def save_checkpoint(path, generator: Generator, **kwargs) -> None:
    """Write atomically: a temp file in the same directory, then ``os.replace``.

    If serialisation fails, a previous file at ``path`` is left as it was and
    the temp file is removed.
    """
    doc = checkpoint_document(generator, **kwargs)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> dict:
    """Read a checkpoint document.  Invalid JSON, another format version, a
    missing key and a non-finite parameter raise :class:`SpecError` naming the
    file and the key."""
    doc = read_json_object(path, "checkpoint", (
        "format_version", "chunk_spec", "obs_dim", "latent_dim", "hidden_dim", "params"))
    if doc["format_version"] != FORMAT_VERSION:
        raise SpecError(f"checkpoint {path}: unsupported format version {doc['format_version']!r}")
    sections = {"params": doc["params"], "ema_params": doc.get("ema_params", {}),
                "actor_head": doc.get("actor_head", {}).get("params", {}),
                "critic": doc.get("critic", {}).get("params", {})}
    for key, packed in sections.items():
        for name, arr in _unpack(packed).items():
            if not np.isfinite(arr).all():
                raise SpecError(f"checkpoint {path}: {key} parameter {name} is not finite")
    return doc


def restore_generator(doc: dict, use_ema: bool = False) -> Generator:
    spec = ChunkSpec.from_dict(doc["chunk_spec"])
    gen = Generator(spec, obs_dim=int(doc["obs_dim"]),
                    latent_dim=int(doc["latent_dim"]),
                    hidden_dim=int(doc["hidden_dim"]))
    key = "ema_params" if use_ema and "ema_params" in doc else "params"
    gen.params.load(_unpack(doc[key]))
    return gen


def restore_actor(doc: dict, use_ema: bool = False) -> GaussianActor:
    gen = restore_generator(doc, use_ema=use_ema)
    head = doc.get("actor_head")
    if head is None:
        return GaussianActor(gen)
    actor = GaussianActor(gen, log_std_bounds=tuple(head["log_std_bounds"]))
    actor.head.load(_unpack(head["params"]))
    return actor


def restore_critic(doc: dict) -> Critic | None:
    entry = doc.get("critic")
    if entry is None:
        return None
    critic = Critic(int(entry["input_dim"]), int(entry["hidden_dim"]))
    critic.params.load(_unpack(entry["params"]))
    return critic
