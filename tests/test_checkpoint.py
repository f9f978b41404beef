"""Checkpoint documents: exact round-trips and byte-stable serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from driftkit.actor import GaussianActor
from driftkit.checkpoint import (load_checkpoint, restore_actor, restore_critic,
                                 restore_generator, save_checkpoint)
from driftkit.generator import ChunkSpec, Generator, SpecError
from driftkit.ppo import Critic

SPEC = ChunkSpec(horizon=4, action_dim=2, history_len=2, exec_len=2)


def test_generator_roundtrip_is_exact(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=12)
    rng_state = np.random.default_rng(4).bit_generator.state
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen, ema_params=gen.param_arrays(), rng_state=rng_state)
    doc = load_checkpoint(path)
    restored = restore_generator(doc)
    for name, arr in gen.param_arrays().items():
        assert np.array_equal(restored.params[name].data, arr)
    assert doc["rng_state"] == rng_state
    assert restored.spec == SPEC


def test_ema_parameters_restore_separately(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=1)
    ema = {k: v * 0.5 for k, v in gen.param_arrays().items()}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen, ema_params=ema)
    doc = load_checkpoint(path)
    live = restore_generator(doc, use_ema=False)
    shadow = restore_generator(doc, use_ema=True)
    for name in ema:
        assert np.array_equal(shadow.params[name].data, ema[name])
        assert np.array_equal(live.params[name].data, gen.params[name].data)


def test_actor_and_critic_roundtrip(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=2)
    actor = GaussianActor(gen, log_std_init=-1.0, log_std_bounds=(-4.0, 0.5))
    critic = Critic(10, hidden_dim=8, seed=3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen, actor=actor, critic=critic)
    doc = load_checkpoint(path)
    actor2 = restore_actor(doc)
    critic2 = restore_critic(doc)
    assert actor2.log_std_bounds == (-4.0, 0.5)
    for name, t in actor.head_params.items():
        assert np.array_equal(actor2.head_params[name].data, t.data)
    for name, t in critic.params.items():
        assert np.array_equal(critic2.params[name].data, t.data)


def test_identical_state_serializes_to_identical_bytes(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, gen)
    save_checkpoint(p2, gen.clone())
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_save_keeps_previous_file_and_leaves_no_temp(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=12)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen)
    previous = path.read_bytes()
    # the unserialisable entry sorts after "params", so the temp file is
    # partly written when json.dump gives up
    with pytest.raises(TypeError):
        save_checkpoint(path, gen, rng_state={"state": object()})
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_unsupported_version_rejected(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen)
    text = path.read_text().replace('"format_version":1', '"format_version":99')
    path.write_text(text)
    with pytest.raises(SpecError):
        load_checkpoint(path)


def test_critic_loader_rejects_missing_extra_and_misshaped_entries():
    critic = Critic(10, hidden_dim=8, seed=3)
    good = critic.param_arrays()
    missing = {k: v for k, v in good.items() if k != "v2_b"}
    extra = dict(good, v4_w=np.zeros((8, 1)))
    misshaped = dict(good, v3_w=np.zeros((8, 2)))
    for arrays in (missing, extra, misshaped):
        with pytest.raises(SpecError):
            Critic(10, hidden_dim=8, seed=4).load_param_arrays(arrays)
    # a rejected load leaves the previous parameters in place
    target = Critic(10, hidden_dim=8, seed=4)
    before = target.param_arrays()
    with pytest.raises(SpecError):
        target.load_param_arrays(misshaped)
    for name, arr in before.items():
        assert np.array_equal(target.params[name].data, arr)


def test_actor_head_restore_rejects_bad_entries(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=2)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen, actor=GaussianActor(gen))
    doc = load_checkpoint(path)
    head = doc["actor_head"]["params"]
    misshaped = json.loads(json.dumps(doc))
    misshaped["actor_head"]["params"]["scale_b"] = {
        "shape": [SPEC.chunk_dim + 1], "data": [0.0] * (SPEC.chunk_dim + 1)}
    missing = json.loads(json.dumps(doc))
    del missing["actor_head"]["params"]["scale_w"]
    renamed = json.loads(json.dumps(doc))
    renamed["actor_head"]["params"]["scale_weights"] = head["scale_w"]
    del renamed["actor_head"]["params"]["scale_w"]
    inverted = json.loads(json.dumps(doc))
    inverted["actor_head"]["log_std_bounds"] = [1.0, -5.0]
    for bad in (misshaped, missing, renamed, inverted):
        with pytest.raises(SpecError):
            restore_actor(bad)
