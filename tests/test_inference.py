"""Tape-free inference: a row-invariant dense kernel, bitwise agreement with
the tape forwards at any batch size and for any row, and the tape's
finiteness contract."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.actor import GaussianActor, prefix_log_prob, prefix_log_prob_arrays
from driftkit.autodiff import AutodiffError, Tensor, row_matmul
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


# (fan_in, fan_out) of every dense layer at the benchmark geometry (history 2
# x obs 6, latent 8, hidden 64, chunk 16 x 2): generator, scale head, critic.
BENCH_LAYERS = [(12, 64), (8, 64), (128, 64), (64, 64), (64, 32), (64, 1)]


def rows_view(rng, batch: int, fan_in: int, layout: str, scale: float) -> np.ndarray:
    """A (batch, fan_in) operand: a fresh array, a view at a row offset, or a
    view of every other row of a larger array."""
    if layout == "contiguous":
        return scale * rng.standard_normal((batch, fan_in))
    if layout == "offset":
        return (scale * rng.standard_normal((batch + 3, fan_in)))[3:]
    return (scale * rng.standard_normal((2 * batch, fan_in)))[1::2]


def assert_rows_computed_alone(x: np.ndarray, w: np.ndarray) -> None:
    out = row_matmul(x, w)
    assert out.shape == (x.shape[0], w.shape[1])
    for i in range(x.shape[0]):
        assert np.array_equal(out[i], row_matmul(x[i:i + 1].copy(), w)[0])
        assert np.array_equal(out[i], row_matmul(x[i:i + 1], w)[0])


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(min_value=1, max_value=512),
       fan_in=st.sampled_from([1, 3, 5, 7] + [k for k, _ in BENCH_LAYERS]),
       fan_out=st.sampled_from([1, 3, 5, 7] + [m for _, m in BENCH_LAYERS]),
       layout=st.sampled_from(["contiguous", "offset", "strided"]),
       seed=seeds, scale=scales)
def test_kernel_rows_equal_rows_computed_alone(batch, fan_in, fan_out, layout, seed, scale):
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
    assert_rows_computed_alone(rows_view(rng, batch, fan_in, layout, scale), w)


@pytest.mark.parametrize("fan_in, fan_out", BENCH_LAYERS)
@pytest.mark.parametrize("batch", [1, 8, 32, 128, 512])
def test_kernel_is_row_invariant_at_the_benchmark_shapes(fan_in, fan_out, batch):
    rng = np.random.default_rng(fan_in * 1000 + fan_out + batch)
    w = rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
    for layout in ("contiguous", "offset", "strided"):
        assert_rows_computed_alone(rows_view(rng, batch, fan_in, layout, 1.0), w)


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
