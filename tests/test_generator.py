"""One-step generator: determinism, golden values, prefix slicing, the 1-NFE
counter, and the pushforward sanity check."""

from __future__ import annotations

import numpy as np
import pytest

from driftkit.autodiff import Tensor, no_grad
from driftkit.generator import (ChunkSpec, Generator, SpecError, executed_prefix,
                                sample_hypotheses, sample_latents)

TINY_SPEC = ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2)

# frozen output of Generator(seed=99) on a fixed (obs, z); regenerating it
# requires an identical rng stream and forward path
GOLDEN_CHUNK = [
    0.01646098830308959, 0.07246300110999757, 0.31827667045630337,
    -0.1088923761578715, 0.7430840315725078, -0.08189835580996294,
    0.46706218712913994, -0.4163654785431416,
]

GOLDEN_LATENTS = [
    [[-0.7418272330337938, -0.2053509472949358, -1.0140817540983742],
     [1.2574311685643127, 0.0007408113270486798, 0.7282076523717657]],
    [[-1.4447470714295654, -0.9659795159311171, 1.1732473649114097],
     [-0.18170958730488848, -1.9446978239880384, -0.12405284917131836]],
]


def tiny_generator(seed=99):
    return Generator(TINY_SPEC, obs_dim=3, latent_dim=4, hidden_dim=8, seed=seed)


def test_chunk_spec_boundaries():
    ChunkSpec(horizon=16, action_dim=2, history_len=2, exec_len=8)
    ChunkSpec(horizon=4, action_dim=1, history_len=4, exec_len=1)
    with pytest.raises(SpecError):
        ChunkSpec(horizon=4, action_dim=2, history_len=0, exec_len=1)
    with pytest.raises(SpecError):
        ChunkSpec(horizon=4, action_dim=2, history_len=5, exec_len=1)
    with pytest.raises(SpecError):
        ChunkSpec(horizon=4, action_dim=2, history_len=2, exec_len=4)


def test_zero_parameters_give_zero_chunk():
    gen = tiny_generator()
    gen.params.load({k: np.zeros_like(v) for k, v in gen.param_arrays().items()})
    chunk = gen.generate(np.ones((1, 3)), np.ones(4))
    np.testing.assert_array_equal(chunk, np.zeros(TINY_SPEC.chunk_dim))


def test_generate_is_deterministic():
    gen = tiny_generator()
    obs = np.linspace(-1, 1, 3).reshape(1, 3)
    z = np.array([0.5, -0.25, 1.0, 0.0])
    first = gen.generate(obs, z)
    second = gen.generate(obs, z)
    assert np.array_equal(first, second)


def test_generate_matches_golden_file():
    gen = tiny_generator()
    obs = np.linspace(-1, 1, 3).reshape(1, 3)
    z = np.array([0.5, -0.25, 1.0, 0.0])
    np.testing.assert_array_equal(gen.generate(obs, z), np.array(GOLDEN_CHUNK))


def test_single_hypothesis_reduces_to_generate():
    gen = tiny_generator()
    rng = np.random.default_rng(5)
    obs = rng.normal(size=(3, 1, 3))
    batch, latents = sample_hypotheses(gen, obs, 1, np.random.default_rng(11))
    for i in range(3):
        direct = gen.generate(obs[i], latents[i, 0])
        np.testing.assert_array_equal(batch.values.data[i, 0], direct)


def test_identical_latents_give_identical_rows():
    gen = tiny_generator()
    obs = np.zeros((1, 1, 3))
    z = np.array([0.3, -0.7, 0.2, 0.9])
    a = gen.generate(obs, z)
    b = gen.generate(obs, z)
    assert np.array_equal(a, b)


def test_latent_draws_match_committed_transcript():
    rng = np.random.default_rng(20240)
    lat = sample_latents(rng, 2, 2, 3)
    np.testing.assert_array_equal(lat, np.array(GOLDEN_LATENTS))


def test_hypotheses_detached_copy_matches_forward():
    gen = tiny_generator()
    rng = np.random.default_rng(3)
    obs = rng.normal(size=(2, 1, 3))
    batch, _ = sample_hypotheses(gen, obs, 4, rng)
    assert batch.values.requires_grad
    np.testing.assert_array_equal(batch.detached, batch.values.data)


def test_executed_prefix_full_chunk():
    spec = ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=4)
    chunk = np.arange(8.0)
    np.testing.assert_array_equal(executed_prefix(chunk, spec),
                                  chunk.reshape(4, 2))


def test_executed_prefix_worked_example():
    spec = ChunkSpec(horizon=16, action_dim=2, history_len=2, exec_len=8)
    chunk = np.arange(32.0)
    prefix = executed_prefix(chunk, spec)
    # steps 2..9 in 1-based indexing
    np.testing.assert_array_equal(prefix, chunk.reshape(16, 2)[1:9])


def test_executed_prefix_last_step_only():
    spec = ChunkSpec(horizon=4, action_dim=2, history_len=4, exec_len=1)
    chunk = np.arange(8.0)
    np.testing.assert_array_equal(executed_prefix(chunk, spec),
                                  chunk.reshape(4, 2)[3:4])


def test_exec_slice_selects_exactly_the_executed_steps():
    spec = ChunkSpec(horizon=16, action_dim=2, history_len=2, exec_len=8)
    sl = spec.exec_slice()
    assert sl.stop - sl.start == spec.exec_len * spec.action_dim
    chunk = np.arange(float(spec.chunk_dim))
    np.testing.assert_array_equal(chunk[sl].reshape(8, 2), chunk.reshape(16, 2)[1:9])


def test_one_forward_evaluation_per_generate():
    gen = tiny_generator()
    for k in range(1, 6):
        gen.generate(np.zeros((1, 3)), np.zeros(4))
        assert gen.nfe_count == k


def test_pushforward_mean_is_stable():
    gen = tiny_generator()
    obs = np.full((1, 3), 0.2)
    n = 10_000

    def batch_mean(seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, 4))
        with no_grad():
            chunk, _ = gen.forward(Tensor(np.repeat(obs, n, axis=0)), Tensor(z))
        return chunk.data.mean(axis=0), chunk.data.std(axis=0, ddof=1)

    mean_a, std_a = batch_mean(101)
    mean_b, std_b = batch_mean(202)
    se = np.sqrt(std_a**2 / n + std_b**2 / n)
    assert np.all(np.abs(mean_a - mean_b) <= 3.0 * se + 1e-12)


def test_batched_forward_rows_match_single_rows():
    # per-row forward values must not depend on what else is in the batch
    gen = tiny_generator()
    rng = np.random.default_rng(17)
    obs = rng.normal(size=(6, 3))
    z = rng.normal(size=(6, 4))
    with no_grad():
        full, _ = gen.forward(Tensor(obs), Tensor(z))
        for i in range(6):
            one, _ = gen.forward(Tensor(obs[i:i + 1]), Tensor(z[i:i + 1]))
            assert np.array_equal(full.data[i], one.data[0])
