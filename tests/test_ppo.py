"""PPO mechanics: GAE vs the brute-force double sum, exact ratio identities,
surrogate arithmetic, anchor behavior, and the full-objective gradient."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit import ppo
from driftkit.actor import GaussianActor, prefix_entropy, prefix_log_prob
from driftkit.autodiff import AutodiffError, Tensor, backward
from driftkit.envs import PointMassEnv, scripted_chunks, synth_multimodal
from driftkit.generator import ChunkSpec, Generator
from driftkit.ppo import (Critic, PPOConfig, PPOConfigError, RolloutBuffer,
                          anchor_loss, clipped_surrogate, collect_rollouts,
                          compute_gae, finetune, ppo_minibatch, ppo_update, evaluate_policy,
                          ppo_ratio, run_episodes)
from driftkit.training import AdamW, NumericalAbort, TrainConfig, train
from driftkit.drift import DriftConfig

from .oracles import (STEERING_SPEC, evaluate_policy_loop, finite_diff, gae_bruteforce,
                      scripted_eval_loop, steering_actor)

SPEC = ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2)
OBS_DIM = 6


def tiny_actor(seed=0, log_std_init=np.log(0.15)):
    gen = Generator(SPEC, obs_dim=OBS_DIM, latent_dim=4, hidden_dim=8, seed=seed)
    return GaussianActor(gen, log_std_init=log_std_init)


def make_buffer(actor, critic, n=8, seed=0):
    env = PointMassEnv(SPEC, reward_mode="dense")
    rng = np.random.default_rng(seed)
    buf = collect_rollouts(env, actor, critic, n, rng)
    return compute_gae(buf, 0.99, 0.95)


def update(buf, actor, critic, anchor, cfg, rng):
    """One :func:`ppo_update` with fresh optimizers at the config's rates and
    the config's anchor weight."""
    return ppo_update(buf, actor, critic, anchor, cfg, rng,
                      actor_opt=AdamW(actor.parameters().keys(), lr=cfg.actor_lr),
                      critic_opt=AdamW(critic.params.keys(), lr=cfg.critic_lr),
                      anchor_weight=cfg.anchor_weight)


# -- GAE --------------------------------------------------------------------


def test_gae_undiscounted_returns_to_go():
    buf = RolloutBuffer(
        obs=np.zeros((4, OBS_DIM)), latents=np.zeros((4, 4)),
        exec_actions=np.zeros((4, SPEC.exec_dim)), old_log_probs=np.zeros(4),
        rewards=np.array([1.0, 2.0, 3.0, 4.0]), values=np.zeros(4),
        dones=np.array([False, False, False, True]), bootstrap_value=0.0)
    compute_gae(buf, gamma=1.0, lam=1.0)
    np.testing.assert_array_equal(buf.advantages, [10.0, 9.0, 7.0, 4.0])
    np.testing.assert_array_equal(buf.returns, buf.advantages)


def test_gae_single_done_step():
    buf = RolloutBuffer(
        obs=np.zeros((1, OBS_DIM)), latents=np.zeros((1, 4)),
        exec_actions=np.zeros((1, SPEC.exec_dim)), old_log_probs=np.zeros(1),
        rewards=np.array([2.0]), values=np.array([0.5]),
        dones=np.array([True]), bootstrap_value=123.0)
    compute_gae(buf, gamma=0.9, lam=0.8)
    np.testing.assert_allclose(buf.advantages, [1.5], rtol=0, atol=0)


def test_gae_matches_bruteforce_double_sum():
    rng = np.random.default_rng(100)
    for _ in range(10):
        n = 10
        rewards = rng.normal(size=n)
        values = rng.normal(size=n)
        dones = rng.random(n) < 0.25
        bootstrap = float(rng.normal())
        buf = RolloutBuffer(
            obs=np.zeros((n, OBS_DIM)), latents=np.zeros((n, 4)),
            exec_actions=np.zeros((n, SPEC.exec_dim)), old_log_probs=np.zeros(n),
            rewards=rewards, values=values, dones=dones, bootstrap_value=bootstrap)
        compute_gae(buf, gamma=0.97, lam=0.9)
        expected = gae_bruteforce(rewards, values, dones, bootstrap, 0.97, 0.9)
        np.testing.assert_allclose(buf.advantages, expected, atol=1e-12, rtol=0)
        np.testing.assert_allclose(buf.returns, expected + values, atol=1e-12, rtol=0)


# -- ratios -----------------------------------------------------------------


def test_ratio_is_exactly_one_for_identical_params():
    actor = tiny_actor()
    rng = np.random.default_rng(5)
    obs = rng.normal(size=(3, OBS_DIM))
    z = rng.normal(size=(3, 4))
    x = rng.normal(size=(3, SPEC.exec_dim))
    out = actor.forward(Tensor(obs), Tensor(z))
    lp = prefix_log_prob(x, out)
    ratio = ppo_ratio(lp, lp.data.copy())
    assert np.all(ratio.data == 1.0)


def test_joint_ratio_equals_conditional_ratio():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        mu_old = rng.normal(size=(1, SPEC.chunk_dim))
        mu_new = mu_old + 1e-3 * rng.normal(size=mu_old.shape)
        ls_old = rng.uniform(-1, 0, size=(1, SPEC.chunk_dim))
        ls_new = ls_old + 1e-3 * rng.normal(size=ls_old.shape)
        x = rng.normal(size=(1, SPEC.exec_dim))
        z = rng.normal(size=4)

        from driftkit.actor import ActorOutput
        old = ActorOutput(Tensor(mu_old), Tensor(ls_old), SPEC)
        new = ActorOutput(Tensor(mu_new), Tensor(ls_new), SPEC)
        lp_old = prefix_log_prob(x, old).data[0]
        lp_new = prefix_log_prob(x, new).data[0]
        log_prior = float(-0.5 * z.size * np.log(2 * np.pi) - 0.5 * (z ** 2).sum())
        conditional = np.exp(lp_new - lp_old)
        joint = np.exp((lp_new + log_prior) - (lp_old + log_prior))
        worst = max(worst, abs(joint - conditional))
    assert worst < 1e-12


def test_ratio_log_two_doubles():
    lp_new = Tensor(np.array([np.log(2.0)]))
    ratio = ppo_ratio(lp_new, np.array([0.0]))
    assert ratio.data[0] == pytest.approx(2.0, rel=1e-15)


def test_ratio_clamps_extreme_log_gaps():
    lp_new = Tensor(np.array([1000.0]))
    ratio = ppo_ratio(lp_new, np.array([0.0]))
    assert ratio.data[0] == pytest.approx(np.exp(40.0))


# -- surrogate ---------------------------------------------------------------


def test_surrogate_positive_advantage_clips_upside():
    r = Tensor(np.array([1.5]))
    assert clipped_surrogate(r, np.array([1.0]), 0.2).item() == pytest.approx(1.2)


def test_surrogate_negative_advantage_clips_downside():
    r = Tensor(np.array([0.5]))
    assert clipped_surrogate(r, np.array([-1.0]), 0.2).item() == pytest.approx(-0.8)


def test_surrogate_identity_ratio_returns_advantage():
    r = Tensor(np.array([1.0, 1.0]))
    adv = np.array([0.7, -0.3])
    assert clipped_surrogate(r, adv, 0.2).item() == pytest.approx(adv.mean())


def test_surrogate_never_exceeds_unclipped():
    rng = np.random.default_rng(2)
    r = np.exp(rng.normal(scale=0.5, size=64))
    adv = rng.normal(size=64)
    surr = clipped_surrogate(Tensor(r), adv, 0.2).item()
    assert surr <= (r * adv).mean() + 1e-12


# -- anchor ------------------------------------------------------------------


def live_anchor_loss(actor, anchor, obs, z):
    """The anchor term as ``ppo_update`` forms it, on the actor's forward mean."""
    out = actor.forward(Tensor(obs), Tensor(z))
    return anchor_loss(out.mean, anchor, obs, z)


def test_anchor_zero_for_identical_backbones():
    actor = tiny_actor()
    anchor = actor.generator.clone()
    rng = np.random.default_rng(0)
    obs = rng.normal(size=(4, OBS_DIM))
    z = rng.normal(size=(4, 4))
    assert live_anchor_loss(actor, anchor, obs, z).item() == 0.0


def test_anchor_constant_offset_is_squared_norm():
    actor = tiny_actor()
    anchor = actor.generator.clone()
    shift = 0.3
    arrays = actor.generator.param_arrays()
    arrays["head_b"] = arrays["head_b"] + shift
    actor.generator.params.load(arrays)
    rng = np.random.default_rng(1)
    obs = rng.normal(size=(4, OBS_DIM))
    z = rng.normal(size=(4, 4))
    expected = SPEC.chunk_dim * shift ** 2
    assert live_anchor_loss(actor, anchor, obs, z).item() == pytest.approx(expected, rel=1e-12)


def test_anchor_increases_with_perturbation_size():
    rng = np.random.default_rng(3)
    obs = rng.normal(size=(6, OBS_DIM))
    z = rng.normal(size=(6, 4))
    losses = []
    for delta in (1e-3, 1e-2, 1e-1):
        actor = tiny_actor()
        anchor = actor.generator.clone()
        arrays = actor.generator.param_arrays()
        arrays["trunk2_w"] = arrays["trunk2_w"].copy()
        arrays["trunk2_w"][0, 0] += delta
        actor.generator.params.load(arrays)
        losses.append(live_anchor_loss(actor, anchor, obs, z).item())
    assert 0 < losses[0] < losses[1] < losses[2]


def test_anchor_gradient_only_reaches_live_backbone():
    actor = tiny_actor()
    anchor = actor.generator.clone()
    arrays = actor.generator.param_arrays()
    arrays["head_b"] = arrays["head_b"] + 0.1
    actor.generator.params.load(arrays)
    rng = np.random.default_rng(2)
    obs = rng.normal(size=(3, OBS_DIM))
    z = rng.normal(size=(3, 4))
    loss = live_anchor_loss(actor, anchor, obs, z)
    grads = backward(loss)
    live = set(map(id, actor.generator.params.values()))
    frozen = set(map(id, anchor.params.values()))
    touched = set(map(id, grads.keys()))
    assert touched & live
    assert not (touched & frozen)


# -- rollout collection -------------------------------------------------------


def test_zero_length_rollout_is_empty():
    actor = tiny_actor()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    env = PointMassEnv(SPEC, reward_mode="dense")
    buf = collect_rollouts(env, actor, critic, 0, np.random.default_rng(0))
    assert len(buf) == 0


def test_rollout_collection_is_deterministic():
    def run():
        actor = tiny_actor()
        critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
        env = PointMassEnv(SPEC, reward_mode="dense")
        return collect_rollouts(env, actor, critic, 12, np.random.default_rng(9))

    a, b = run(), run()
    for field in ("obs", "latents", "exec_actions", "old_log_probs", "rewards",
                  "values", "dones"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_collected_return_matches_eval_within_noise_band():
    # stochastic collection returns should straddle the deterministic returns
    ds = synth_multimodal(modes=2, conditions=48, samples_per_condition=2, seed=0,
                          spec=SPEC)
    gen = Generator(SPEC, obs_dim=OBS_DIM, latent_dim=4, hidden_dim=32, seed=0)
    train(ds, gen, DriftConfig(temperatures=(0.7,)),
          TrainConfig(steps=120, learning_rate=3e-3, warmup_steps=20, seed=1))
    actor = GaussianActor(gen, log_std_init=np.log(0.01))
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    env = PointMassEnv(SPEC, reward_mode="dense")
    rng = np.random.default_rng(77)
    returns = []
    while len(returns) < 100:
        buf = collect_rollouts(env, actor, critic, 256, rng)
        returns.extend(buf.episode_returns)
    returns = np.array(returns[:100])
    report = evaluate_policy(lambda: PointMassEnv(SPEC, reward_mode="dense"),
                             actor, 100, 500)
    se = returns.std(ddof=1) / np.sqrt(len(returns))
    assert abs(returns.mean() - report["mean_return"]) <= 3.0 * se


# -- lockstep evaluation -------------------------------------------------------


def steering_env_factory(reward_mode):
    return lambda: PointMassEnv(STEERING_SPEC, reward_mode=reward_mode)


@settings(max_examples=25, deadline=None)
@given(episodes=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       reward_mode=st.sampled_from(["dense", "sparse"]))
def test_lockstep_evaluation_equals_the_episode_loop(episodes, seed, reward_mode):
    actor = steering_actor()
    report = evaluate_policy(steering_env_factory(reward_mode), actor, episodes, seed)
    expected, _, _ = evaluate_policy_loop(steering_env_factory(reward_mode), actor,
                                          episodes, seed)
    assert report == expected


def test_evaluation_of_no_episodes_reports_nothing_and_negative_counts_are_rejected():
    report = evaluate_policy(steering_env_factory("dense"), steering_actor(), 0, 1)
    assert report == {"episodes": 0, "mean_return": None, "success_rate": None,
                      "nfe_violations": 0}
    with pytest.raises(PPOConfigError):
        evaluate_policy(steering_env_factory("dense"), steering_actor(), -1, 1)


@pytest.mark.parametrize("reward_mode", ["dense", "sparse"])
def test_lockstep_scripted_evaluation_equals_the_episode_loop(reward_mode):
    # the scripted planner plans every running episode at once; each keeps the
    # bits of the one-episode loop the CLI used to run
    report = run_episodes(STEERING_SPEC, reward_mode, 30, 4,
                          lambda obs, active: scripted_chunks(obs, STEERING_SPEC))
    assert report == scripted_eval_loop(STEERING_SPEC, reward_mode, 30, 4)


def test_steering_policy_succeeds_mid_prefix_and_times_out():
    # the property above is only as strong as the episode endings it sees
    _, _, finished = evaluate_policy_loop(steering_env_factory("sparse"), steering_actor(),
                                          24, 3)
    exec_len = STEERING_SPEC.exec_len
    assert any(env.succeeded and env.t % exec_len for env in finished)
    assert any(not env.succeeded for env in finished)


# -- the update ----------------------------------------------------------------


def test_zero_update_epochs_leaves_params_unchanged():
    actor = tiny_actor()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    anchor = actor.generator.clone()
    buf = make_buffer(actor, critic)
    before = actor.generator.param_arrays()
    cfg = PPOConfig(update_epochs=0)
    update(buf, actor, critic, anchor, cfg, np.random.default_rng(0))
    for name, arr in actor.generator.param_arrays().items():
        assert np.array_equal(arr, before[name])


def test_zero_advantages_and_weights_give_zero_gradient():
    actor = tiny_actor()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    anchor = actor.generator.clone()
    buf = make_buffer(actor, critic)
    buf.advantages = np.zeros(len(buf))
    buf.returns = buf.values.copy()
    before = actor.generator.param_arrays()
    cfg = PPOConfig(value_weight=0.0, entropy_weight=0.0, anchor_weight=0.0,
                    update_epochs=1, minibatch_size=len(buf))
    update(buf, actor, critic, anchor, cfg, np.random.default_rng(0))
    # surrogate of normalized zero advantages is constant: no actor movement
    for name, arr in actor.generator.param_arrays().items():
        np.testing.assert_allclose(arr, before[name], atol=1e-12, rtol=0)


def test_latents_are_reused_byte_identical():
    actor = tiny_actor()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    buf = make_buffer(actor, critic)
    snapshot = buf.latents.tobytes()
    anchor = actor.generator.clone()
    update(buf, actor, critic, anchor, PPOConfig(update_epochs=2), np.random.default_rng(1))
    assert buf.latents.tobytes() == snapshot


def test_epoch_zero_recomputation_gives_exact_unit_ratios():
    actor = tiny_actor()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    anchor = actor.generator.clone()
    buf = make_buffer(actor, critic, n=16)
    stats = update(buf, actor, critic, anchor, PPOConfig(update_epochs=1),
                   np.random.default_rng(2))
    assert np.all(stats.first_epoch_ratios == 1.0)


@pytest.mark.parametrize("length, minibatch", [(1, 2), (7, 3), (7, 4), (128, 48), (128, 5)])
def test_epoch_zero_ratios_are_one_when_minibatches_do_not_divide_the_rollout(length, minibatch):
    actor = tiny_actor(seed=4)
    critic = Critic(OBS_DIM, hidden_dim=8, seed=1)
    buf = make_buffer(actor, critic, n=length, seed=3)
    # Before any step, every minibatch's tape forward (the ragged last one
    # included) reproduces the log-probabilities collected one row at a time.
    order = np.random.default_rng(9).permutation(length)
    for lo in range(0, length, minibatch):
        idx = order[lo:lo + minibatch]
        out = actor.forward(Tensor(buf.obs[idx]), Tensor(buf.latents[idx]))
        np.testing.assert_array_equal(prefix_log_prob(buf.exec_actions[idx], out).data,
                                      buf.old_log_probs[idx])
    stats = update(buf, actor, critic, actor.generator.clone(),
                   PPOConfig(update_epochs=1, minibatch_size=minibatch),
                   np.random.default_rng(2))
    assert stats.first_epoch_ratios.shape == (length,)
    assert np.all(stats.first_epoch_ratios == 1.0)


@pytest.mark.parametrize("length, minibatch, epochs", [(8, 3, 2), (16, 16, 1), (7, 8, 3)])
def test_update_evaluates_the_live_backbone_once_per_minibatch(length, minibatch, epochs):
    actor = tiny_actor()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    anchor = actor.generator.clone()
    buf = make_buffer(actor, critic, n=length)
    live_before, anchor_before = actor.generator.nfe_count, anchor.nfe_count
    update(buf, actor, critic, anchor,
           PPOConfig(update_epochs=epochs, minibatch_size=minibatch),
           np.random.default_rng(1))
    # nfe_count counts rows: the epoch-0 recomputation evaluates every row
    # once, then each epoch's minibatches evaluate every row once more.  A
    # second live forward per minibatch (for the anchor) would add another
    # epochs * length.
    assert actor.generator.nfe_count - live_before == length + epochs * length
    assert anchor.nfe_count - anchor_before == epochs * length


def test_anchor_weight_sweep_shrinks_drift_from_pretrained():
    rng_probe = np.random.default_rng(11)
    probe_obs = rng_probe.normal(size=(16, OBS_DIM))
    probe_z = rng_probe.normal(size=(16, 4))
    drifts = []
    for weight in (1.0, 1e2, 1e6):
        actor = tiny_actor()
        anchor = actor.generator.clone()
        critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
        buf = make_buffer(actor, critic, n=16, seed=3)
        cfg = PPOConfig(anchor_weight=weight)
        update(buf, actor, critic, anchor, cfg, np.random.default_rng(4))
        live, _ = actor.generator.infer(probe_obs, probe_z)
        frozen, _ = anchor.infer(probe_obs, probe_z)
        drifts.append(float(np.linalg.norm(live - frozen)))
    assert drifts[0] >= drifts[1] >= drifts[2]


def test_huge_anchor_weight_pins_means_to_pretrained():
    actor = tiny_actor()
    anchor = actor.generator.clone()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    buf = make_buffer(actor, critic, n=16, seed=3)
    cfg = PPOConfig(anchor_weight=1e6, actor_lr=1e-4)
    update(buf, actor, critic, anchor, cfg, np.random.default_rng(4))
    rng = np.random.default_rng(11)
    obs = rng.normal(size=(32, OBS_DIM))
    z = rng.normal(size=(32, 4))
    live, _ = actor.generator.infer(obs, z)
    frozen, _ = anchor.infer(obs, z)
    assert np.max(np.abs(live - frozen)) < 1e-3


def test_value_loss_is_half_mse_against_returns():
    actor = tiny_actor()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    anchor = actor.generator.clone()
    buf = make_buffer(actor, critic, n=8)
    cfg = PPOConfig(update_epochs=1, minibatch_size=len(buf))
    stats = update(buf, actor, critic, anchor, cfg, np.random.default_rng(0))
    # recompute independently with the pre-update critic
    critic2 = Critic(OBS_DIM, hidden_dim=8, seed=0)
    expected = 0.5 * np.mean((critic2.value(buf.obs) - buf.returns) ** 2)
    assert stats.value_loss == pytest.approx(expected, rel=1e-12)


def test_total_objective_gradient_matches_finite_differences():
    actor = tiny_actor()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    anchor = actor.generator.clone()
    buf = make_buffer(actor, critic, n=4)
    # move away from the collection point so the ratio sits off the clip kinks
    nudge = np.random.default_rng(55)
    arrays = actor.generator.param_arrays()
    for name in arrays:
        arrays[name] = arrays[name] + 1e-3 * nudge.standard_normal(arrays[name].shape)
    actor.generator.params.load(arrays)
    cfg = PPOConfig()
    adv = (buf.advantages - buf.advantages.mean()) / (buf.advantages.std() + 1e-8)

    def objective() -> Tensor:
        out = actor.forward(Tensor(buf.obs), Tensor(buf.latents))
        lp = prefix_log_prob(buf.exec_actions, out)
        ratio = ppo_ratio(lp, buf.old_log_probs)
        surr = clipped_surrogate(ratio, adv, cfg.clip)
        values = critic.forward(Tensor(buf.obs))
        v_loss = 0.5 * (values - Tensor(buf.returns)).square().mean()
        ent = prefix_entropy(out).mean()
        anch = anchor_loss(out.mean, anchor, buf.obs, buf.latents)
        return (-1.0 * surr + cfg.value_weight * v_loss
                - cfg.entropy_weight * ent + cfg.anchor_weight * anch)

    _, actor_grads, critic_grads = ppo_minibatch(actor, critic, anchor, buf, np.arange(len(buf)),
                                                 adv, cfg, cfg.anchor_weight)
    grads = {**actor_grads, **critic_grads}
    all_params = {**actor.parameters(), **critic.params}
    for name, p in all_params.items():
        analytic = grads[name]
        original = p.data.copy()

        def fd_fn(arr):
            p.data = arr
            value = objective().item()
            p.data = original
            return value

        numeric = finite_diff(fd_fn, original.copy(), h=1e-6)
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4, name


def test_non_finite_update_aborts_with_epoch_and_minibatch():
    actor = tiny_actor()
    critic = Critic(OBS_DIM, hidden_dim=8, seed=0)
    anchor = actor.generator.clone()
    buf = make_buffer(actor, critic)
    cfg = PPOConfig(actor_lr=1e300, update_epochs=2, minibatch_size=4)
    with pytest.raises(NumericalAbort) as err:
        update(buf, actor, critic, anchor, cfg, np.random.default_rng(0))
    assert isinstance(err.value.__cause__, AutodiffError)
    assert err.value.dump["epoch"] == 0
    assert len(err.value.dump["minibatch_indices"]) == 4


# -- the fine-tuning loop -------------------------------------------------------


def recorded_updates(monkeypatch):
    """The keyword arguments of every ``ppo_update`` call ``finetune`` makes."""
    calls = []

    def recording_update(*args, **kwargs):
        calls.append(kwargs)
        return ppo_update(*args, **kwargs)

    monkeypatch.setattr(ppo, "ppo_update", recording_update)
    return calls


SHORT_RUN = dict(rollout_length=8, minibatch_size=4, update_epochs=1)


@pytest.mark.parametrize("iterations, decay, weight, expected", [
    (3, True, 1.0, [1.0, 0.5, 0.0]),
    (1, True, 0.7, [0.7]),
    (3, False, 0.7, [0.7, 0.7, 0.7]),
])
def test_anchor_decay_falls_linearly_to_zero_over_the_run(monkeypatch, iterations, decay,
                                                          weight, expected):
    calls = recorded_updates(monkeypatch)
    cfg = PPOConfig(iterations=iterations, anchor_decay=decay, anchor_weight=weight,
                    **SHORT_RUN)
    finetune(tiny_actor().generator, cfg, "dense", np.log(0.15), 0)
    assert [call["anchor_weight"] for call in calls] == expected


def test_finetune_keeps_its_optimizers_across_iterations(monkeypatch):
    calls = recorded_updates(monkeypatch)
    cfg = PPOConfig(iterations=3, **SHORT_RUN)
    actor, critic, rows = finetune(tiny_actor().generator, cfg, "dense", np.log(0.15), 0)
    assert [row["iter"] for row in rows] == [1, 2, 3]
    # one optimizer pair for the run: its step count grows by one per minibatch
    assert all(call["actor_opt"] is calls[0]["actor_opt"] for call in calls)
    assert all(call["critic_opt"] is calls[0]["critic_opt"] for call in calls)
    assert calls[0]["actor_opt"].step_count == 3 * 2
    assert set(calls[0]["actor_opt"].m) == set(actor.parameters())
    assert set(calls[0]["critic_opt"].m) == set(critic.params)


def test_ppo_config_validation():
    with pytest.raises(PPOConfigError):
        PPOConfig(clip=0.0)
    with pytest.raises(PPOConfigError):
        PPOConfig(gamma=0.0)
    with pytest.raises(PPOConfigError):
        PPOConfig(gae_lambda=1.5)
    with pytest.raises(PPOConfigError):
        PPOConfig(anchor_weight=-1.0)
    with pytest.raises(PPOConfigError):
        PPOConfig(iterations=-3)
