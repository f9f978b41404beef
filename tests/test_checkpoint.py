"""Checkpoint documents: exact round-trips and byte-stable serialization."""

from __future__ import annotations

import numpy as np
import pytest

from driftkit.actor import GaussianActor
from driftkit.autodiff import AutodiffError
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
    for name, t in actor.head.items():
        assert np.array_equal(actor2.head[name].data, t.data)
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


BUNDLES = {
    "generator": lambda: Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=2).params,
    "critic": lambda: Critic(10, hidden_dim=8, seed=3).params,
    "actor_head": lambda: GaussianActor(
        Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=2)).head,
}


def _misshaped(arrays):
    name = next(k for k in arrays if k.endswith("_w"))
    rows, cols = arrays[name].shape
    return dict(arrays, **{name: np.zeros((rows, cols + 1))})


def _nonfinite(arrays):
    name = list(arrays)[-1]
    bad = arrays[name].copy()
    bad.flat[0] = np.nan
    return dict(arrays, **{name: bad})


BAD_ENTRIES = {
    "missing": (lambda arrays: dict(list(arrays.items())[:-1]), SpecError),
    "unexpected": (lambda arrays: dict(arrays, extra_w=np.zeros((2, 2))), SpecError),
    "misshaped": (_misshaped, SpecError),
    "nonfinite": (_nonfinite, AutodiffError),
}


@pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_bundle_load_rejects_bad_entries_and_keeps_its_leaves(bundle, case):
    params = BUNDLES[bundle]()
    leaves = dict(params)
    before = {name: leaf.data for name, leaf in params.items()}
    good = {name: np.ones_like(arr) for name, arr in params.arrays().items()}
    corrupt, error = BAD_ENTRIES[case]
    with pytest.raises(error):
        params.load(corrupt(good))
    for name, leaf in params.items():
        assert leaf is leaves[name]
        assert leaf.data is before[name]
    # the same arrays without the bad entry load, into the same leaves
    params.load(good)
    for name, leaf in params.items():
        assert leaf is leaves[name]
        assert np.array_equal(leaf.data, good[name])


def test_actor_head_restore_rejects_bad_entries(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=2)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen, actor=GaussianActor(gen))
    doc = load_checkpoint(path)
    doc["actor_head"]["log_std_bounds"] = [1.0, -5.0]
    with pytest.raises(SpecError):
        restore_actor(doc)
