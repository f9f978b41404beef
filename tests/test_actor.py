"""Gaussian actor: clipped scale head, prefix-restricted likelihood and
entropy, sampling statistics, deployment path."""

from __future__ import annotations

import numpy as np
import pytest

from driftkit.actor import (GaussianActor, LOG_2PI, LOG_STD_BOUNDS,
                            prefix_entropy, prefix_log_prob, sample_gaussian)
from driftkit.autodiff import Tensor, backward
from driftkit.generator import ChunkSpec, Generator

from .oracles import finite_diff, gaussian_logpdf

SPEC = ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2)

GOLDEN_LOG_STD = [
    -1.921858079077006, -1.9974660810796272, -1.7338348714796847,
    -1.8949719437133337, -2.1113885583295535, -1.9328907628578471,
    -2.022128719581272, -1.8933378569124255,
]


def tiny_actor(head_scale=0.0, seed=99):
    gen = Generator(SPEC, obs_dim=3, latent_dim=4, hidden_dim=8, seed=seed)
    actor = GaussianActor(gen)
    if head_scale:
        rng = np.random.default_rng(555)
        actor.head.load({"scale_w": rng.normal(scale=head_scale, size=(8, SPEC.chunk_dim)),
                         "scale_b": actor.head["scale_b"].data})
    return actor


def forward_arrays(actor, obs_hist, z):
    """Tape forward of ``actor`` on observation histories and latents given as arrays."""
    obs = actor.generator._flatten_obs(obs_hist)
    z = np.asarray(z, dtype=np.float64).reshape(obs.shape[0], -1)
    return actor.forward(Tensor(obs), Tensor(z))


def fixed_output(mean, log_std, spec=SPEC):
    """ActorOutput built from leaf tensors, for direct gradient checks."""
    from driftkit.actor import ActorOutput
    return ActorOutput(mean=Tensor(mean, requires_grad=True),
                       log_std=Tensor(log_std, requires_grad=True),
                       spec=spec)


def test_zero_head_gives_configured_init_scale():
    gen = Generator(SPEC, obs_dim=3, latent_dim=4, hidden_dim=8, seed=1)
    actor = GaussianActor(gen, log_std_init=0.0)
    out = forward_arrays(actor, np.zeros((1, 3)), np.zeros(4))
    np.testing.assert_array_equal(out.log_std.data, np.zeros((1, SPEC.chunk_dim)))
    np.testing.assert_array_equal(np.exp(out.log_std.data), np.ones((1, SPEC.chunk_dim)))


def test_huge_head_output_is_clipped_to_upper_bound():
    gen = Generator(SPEC, obs_dim=3, latent_dim=4, hidden_dim=8, seed=1)
    actor = GaussianActor(gen, log_std_init=1e3)
    out = forward_arrays(actor, np.ones((1, 3)), np.zeros(4))
    np.testing.assert_array_equal(out.log_std.data,
                                  np.full((1, SPEC.chunk_dim), LOG_STD_BOUNDS[1]))


def test_forward_matches_golden_file():
    actor = tiny_actor(head_scale=0.1)
    obs = np.linspace(-1, 1, 3).reshape(1, 3)
    z = np.array([0.5, -0.25, 1.0, 0.0])
    out = forward_arrays(actor, obs, z)
    np.testing.assert_array_equal(out.log_std.data[0], np.array(GOLDEN_LOG_STD))


def test_sample_with_zero_noise_returns_mean():
    class ZeroRng:
        def standard_normal(self, shape):
            return np.zeros(shape)

    actor = tiny_actor()
    out, _ = actor.evaluate(np.ones((1, 3)), np.full((1, 4), 0.3))
    x = sample_gaussian(out.mean, out.log_std, ZeroRng())
    np.testing.assert_array_equal(x, out.mean)


def test_sample_std_matches_scale_head():
    actor = tiny_actor(head_scale=0.1)
    out, _ = actor.evaluate(np.ones((1, 3)), np.zeros((1, 4)))
    mean, log_std = out.mean, out.log_std
    std = np.exp(log_std[0])
    rng = np.random.default_rng(0)
    n = 100_000
    draws = np.stack([sample_gaussian(mean, log_std, rng)[0] for _ in range(10)])
    # vectorized equivalent for the Monte Carlo sample
    eta = rng.standard_normal((n, SPEC.chunk_dim))
    samples = mean[0] + std * eta
    np.testing.assert_allclose(samples.std(axis=0, ddof=1), std, rtol=0.02)
    assert draws.shape == (10, SPEC.chunk_dim)


def test_prefix_log_prob_at_mean_unit_scale():
    k = SPEC.exec_dim
    mean = np.zeros((1, SPEC.chunk_dim))
    out = fixed_output(mean, np.zeros((1, SPEC.chunk_dim)))
    x_exec = np.zeros((1, k))
    lp = prefix_log_prob(x_exec, out)
    assert lp.data[0] == pytest.approx(-(k / 2) * LOG_2PI, rel=1e-15)


def test_prefix_log_prob_one_sigma_offset():
    k = SPEC.exec_dim
    out = fixed_output(np.zeros((1, SPEC.chunk_dim)), np.zeros((1, SPEC.chunk_dim)))
    x = np.zeros((1, k))
    base = prefix_log_prob(x, out).data[0]
    x[0, 0] = 1.0  # one coordinate at mean + sigma
    shifted = prefix_log_prob(x, out).data[0]
    assert shifted == pytest.approx(base - 0.5, rel=1e-15)


def test_prefix_log_prob_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    mean = rng.normal(size=(2, SPEC.chunk_dim))
    log_std = rng.uniform(-1.5, 0.5, size=(2, SPEC.chunk_dim))
    out = fixed_output(mean, log_std)
    x_exec = rng.normal(size=(2, SPEC.exec_dim))
    lp = prefix_log_prob(x_exec, out)
    sl = SPEC.exec_slice()
    for i in range(2):
        expected = sum(
            gaussian_logpdf(x_exec[i, j], mean[i, sl][j], np.exp(log_std[i, sl][j]))
            for j in range(SPEC.exec_dim))
        assert abs(lp.data[i] - expected) < 1e-12


def test_prefix_entropy_unit_scale():
    k = SPEC.exec_dim
    out = fixed_output(np.zeros((1, SPEC.chunk_dim)), np.zeros((1, SPEC.chunk_dim)))
    ent = prefix_entropy(out)
    assert ent.data[0] == pytest.approx(k * 0.5 * (1 + LOG_2PI), rel=1e-15)


def test_prefix_entropy_doubling_one_scale_adds_log2():
    log_std = np.zeros((1, SPEC.chunk_dim))
    base = prefix_entropy(fixed_output(np.zeros((1, SPEC.chunk_dim)), log_std)).data[0]
    log_std2 = log_std.copy()
    sl = SPEC.exec_slice()
    log_std2[0, sl.start] += np.log(2.0)
    doubled = prefix_entropy(fixed_output(np.zeros((1, SPEC.chunk_dim)), log_std2)).data[0]
    assert doubled == pytest.approx(base + np.log(2.0), rel=1e-14)


def test_prefix_entropy_matches_analytic_formula():
    rng = np.random.default_rng(3)
    log_std = rng.uniform(-2, 0.5, size=(1, SPEC.chunk_dim))
    ent = prefix_entropy(fixed_output(np.zeros((1, SPEC.chunk_dim)), log_std)).data[0]
    sl = SPEC.exec_slice()
    sigma = np.exp(log_std[0, sl])
    k = sigma.size
    analytic = 0.5 * k * (1 + np.log(2 * np.pi)) + np.sum(np.log(sigma))
    assert ent == pytest.approx(analytic, rel=1e-13)


def test_log_prob_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    mean0 = rng.normal(size=(1, SPEC.chunk_dim))
    ls0 = rng.uniform(-1.0, 0.3, size=(1, SPEC.chunk_dim))
    x_exec = rng.normal(size=(1, SPEC.exec_dim))

    out = fixed_output(mean0, ls0)
    lp = prefix_log_prob(x_exec, out).sum()
    grads = backward(lp)

    def fd_mean(arr):
        return prefix_log_prob(x_exec, fixed_output(arr, ls0)).sum().item()

    def fd_ls(arr):
        return prefix_log_prob(x_exec, fixed_output(mean0, arr)).sum().item()

    num_mean = finite_diff(fd_mean, mean0.copy())
    num_ls = finite_diff(fd_ls, ls0.copy())
    for analytic, numeric in ((grads[out.mean], num_mean), (grads[out.log_std], num_ls)):
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def test_out_of_prefix_coordinates_have_zero_gradient():
    rng = np.random.default_rng(4)
    mean0 = rng.normal(size=(1, SPEC.chunk_dim))
    ls0 = rng.uniform(-1.0, 0.3, size=(1, SPEC.chunk_dim))
    out = fixed_output(mean0, ls0)
    lp = prefix_log_prob(rng.normal(size=(1, SPEC.exec_dim)), out).sum()
    grads = backward(lp)
    sl = SPEC.exec_slice()
    outside = np.ones(SPEC.chunk_dim, dtype=bool)
    outside[sl] = False
    assert np.all(grads[out.mean][0, outside] == 0.0)
    assert np.all(grads[out.log_std][0, outside] == 0.0)
    assert np.any(grads[out.mean][0, ~outside] != 0.0)


def test_entropy_consistent_with_expected_negative_log_prob():
    rng = np.random.default_rng(8)
    mean = rng.normal(size=(1, SPEC.chunk_dim))
    log_std = rng.uniform(-1.5, 0.0, size=(1, SPEC.chunk_dim))
    n = 100_000
    sl = SPEC.exec_slice()
    eta = rng.standard_normal((n, SPEC.exec_dim))
    samples = mean[0, sl] + np.exp(log_std[0, sl]) * eta
    big = fixed_output(np.repeat(mean, n, axis=0), np.repeat(log_std, n, axis=0))
    lps = prefix_log_prob(samples, big).data
    ent = prefix_entropy(fixed_output(mean, log_std)).data[0]
    assert abs(-lps.mean() - ent) / ent < 0.01


def test_deploy_action_equals_actor_mean_and_counts_one_nfe():
    actor = tiny_actor(head_scale=0.1)
    obs = np.full((1, 3), 0.4)
    z = np.array([0.1, -0.2, 0.3, 0.4])
    out = forward_arrays(actor, obs, z)
    before = actor.generator.nfe_count
    deployed = actor.deploy_action(obs, z)
    assert actor.generator.nfe_count - before == 1
    np.testing.assert_array_equal(deployed, out.mean.data[0])
