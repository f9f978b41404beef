"""Tape-free inference: bitwise agreement with the tape forwards at any batch
size and for any row, and the tape's finiteness contract."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.actor import GaussianActor, prefix_log_prob, prefix_log_prob_arrays
from driftkit.autodiff import AutodiffError, Tensor
from driftkit.generator import ChunkSpec, Generator
from driftkit.ppo import Critic

SPEC = ChunkSpec(horizon=5, action_dim=2, history_len=2, exec_len=3)
OBS_DIM = 3
LATENT_DIM = 4
N_OBS = SPEC.history_len * OBS_DIM

PROPERTY = settings(max_examples=40, deadline=None)
batches = st.integers(min_value=1, max_value=24)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scales = st.floats(min_value=0.01, max_value=20.0)


def make_actor(seed: int) -> GaussianActor:
    gen = Generator(SPEC, obs_dim=OBS_DIM, latent_dim=LATENT_DIM, hidden_dim=8, seed=seed)
    actor = GaussianActor(gen)
    rng = np.random.default_rng(seed + 1)
    actor.head.load({
        "scale_w": rng.normal(scale=0.5, size=(8, SPEC.chunk_dim)),
        "scale_b": rng.uniform(-3.0, 0.0, size=SPEC.chunk_dim),
    })
    return actor


def rows(seed: int, batch: int, scale: float):
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal((batch, N_OBS)),
            rng.standard_normal((batch, LATENT_DIM)),
            rng.standard_normal((batch, SPEC.exec_dim)))


@PROPERTY
@given(batch=batches, seed=seeds, scale=scales)
def test_generator_infer_equals_tape_forward_batched_and_per_row(batch, seed, scale):
    gen = make_actor(seed % 1000).generator
    obs, z, _ = rows(seed, batch, scale)
    chunk, feat = gen.forward(Tensor(obs), Tensor(z))
    chunk_arr, feat_arr = gen.infer(obs, z)
    assert np.array_equal(chunk_arr, chunk.data)
    assert np.array_equal(feat_arr, feat.data)
    for i in range(batch):
        one, one_feat = gen.infer(obs[i:i + 1], z[i:i + 1])
        assert np.array_equal(one[0], chunk.data[i])
        assert np.array_equal(one_feat[0], feat.data[i])


@PROPERTY
@given(batch=batches, seed=seeds, scale=scales)
def test_array_prefix_log_prob_equals_tape_log_prob(batch, seed, scale):
    actor = make_actor(seed % 1000)
    obs, z, x = rows(seed, batch, scale)
    out = actor.forward(Tensor(obs), Tensor(z))
    tape = prefix_log_prob(x, out).data
    mean, log_std = actor.infer(obs, z)
    assert np.array_equal(mean, out.mean.data)
    assert np.array_equal(log_std, out.log_std.data)
    assert np.array_equal(prefix_log_prob_arrays(x, mean, log_std, SPEC), tape)
    # collection evaluates one row at a time; the update epochs batch them
    for i in range(batch):
        m1, ls1 = actor.infer(obs[i:i + 1], z[i:i + 1])
        assert prefix_log_prob_arrays(x[i:i + 1], m1, ls1, SPEC)[0] == tape[i]


@PROPERTY
@given(batch=batches, seed=seeds, scale=scales)
def test_critic_value_equals_tape_forward(batch, seed, scale):
    critic = Critic(N_OBS, hidden_dim=8, seed=seed % 1000)
    obs, _, _ = rows(seed, batch, scale)
    tape = critic.forward(Tensor(obs)).data
    assert np.array_equal(critic.value(obs), tape)
    for i in range(batch):
        assert critic.value(obs[i:i + 1])[0] == tape[i]


def test_infer_counts_one_evaluation_per_call():
    gen = make_actor(0).generator
    obs, z, _ = rows(0, 7, 1.0)
    gen.infer(obs, z)
    assert gen.nfe_count == 1
    gen.forward(Tensor(obs), Tensor(z))
    assert gen.nfe_count == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["obs", "z"])
def test_infer_rejects_non_finite_input(bad, where):
    gen = make_actor(0).generator
    obs, z, _ = rows(0, 3, 1.0)
    (obs if where == "obs" else z)[1, 0] = bad
    with pytest.raises(AutodiffError):
        gen.infer(obs, z)


def test_infer_rejects_overflowing_pre_activation():
    gen = make_actor(0).generator
    arrays = gen.param_arrays()
    arrays["obs_w"] = np.full_like(arrays["obs_w"], 1e308)
    gen.params.load(arrays)
    obs = np.full((2, N_OBS), 10.0)
    z = np.zeros((2, LATENT_DIM))
    with pytest.raises(AutodiffError):
        gen.forward(Tensor(obs), Tensor(z))
    with pytest.raises(AutodiffError):
        gen.infer(obs, z)


def test_critic_value_rejects_non_finite_input():
    critic = Critic(N_OBS, hidden_dim=8)
    obs = np.zeros((2, N_OBS))
    obs[0, 0] = np.nan
    with pytest.raises(AutodiffError):
        critic.value(obs)
