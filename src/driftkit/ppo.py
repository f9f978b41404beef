"""On-policy fine-tuning of the one-step backbone.

Rollouts store the latent drawn at every decision; update epochs reuse those
latents verbatim, which makes the conditional likelihood ratio identical to
the joint-policy ratio (the latent prior cancels) and lets the first epoch
recompute exactly the collection-time log-probabilities.  The total objective
is the clipped surrogate plus value regression, an entropy bonus, and a
squared-distance anchor to the frozen pretrained mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, backward, check_finite, clip, exp, minimum, no_grad, tanh
from .autodiff import matmul  # noqa: F401 -- patch point of the bench/spans.py tracer
from .actor import (GaussianActor, prefix_entropy, prefix_log_prob, prefix_log_prob_arrays,
                    sample_gaussian)
from .generator import Dense, Generator, executed_prefix
from .training import AdamW, NumericalAbort, leaf_grads

RATIO_LOG_CLAMP = 40.0

FINETUNE_METRICS_HEADER = ("iter", "mean_return", "clip_frac", "ratio_mean",
                           "value_loss", "entropy", "anchor_loss")


class PPOConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PPOConfig:
    clip_eps: float = 0.2
    value_weight: float = 0.5
    entropy_weight: float = 0.01
    anchor_weight: float = 1.0
    gamma: float = 0.99
    gae_lambda: float = 0.95
    rollout_length: int = 128
    update_epochs: int = 4
    minibatch_size: int = 32
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    iterations: int = 30
    anchor_decay: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.clip_eps < 1.0):
            raise PPOConfigError("clip_eps must lie in (0, 1)")
        if not (0.0 < self.gamma <= 1.0):
            raise PPOConfigError("gamma must lie in (0, 1]")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise PPOConfigError("gae_lambda must lie in [0, 1]")
        for name in ("value_weight", "entropy_weight", "anchor_weight"):
            if getattr(self, name) < 0:
                raise PPOConfigError(f"{name} must be >= 0")
        if self.rollout_length < 0 or self.update_epochs < 0:
            raise PPOConfigError("rollout_length and update_epochs must be >= 0")
        if self.minibatch_size < 1:
            raise PPOConfigError("minibatch_size must be positive")


class Critic:
    """Two-layer tanh MLP mapping the flattened observation history to a value."""

    def __init__(self, input_dim: int, hidden_dim: int = 64, seed: int = 0):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h = hidden_dim
        self.params = Dense.init("critic", np.random.default_rng(seed), (
            ("v1", input_dim, h), ("v2", h, h), ("v3", h, 1)))

    def forward(self, obs_flat: Tensor) -> Tensor:
        return _value_mlp(self.params, obs_flat, tanh)

    def value(self, obs_flat: np.ndarray) -> np.ndarray:
        """:meth:`forward` without the tape, on an observation array."""
        obs = check_finite(np.asarray(obs_flat, dtype=np.float64), "observation input")
        return _value_mlp(self.params, obs, np.tanh)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return self.params.arrays()


def _value_mlp(p: Dense, obs, act):
    """Per-row values of the critic MLP on either backend."""
    h = act(p.linear(obs, "v1"))
    h = act(p.linear(h, "v2"))
    return p.linear(h, "v3")[:, 0]


@dataclass
class RolloutBuffer:
    """Per-decision records; latents captured here are reused verbatim later."""

    obs: np.ndarray
    latents: np.ndarray
    exec_actions: np.ndarray
    old_log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    bootstrap_value: float
    episode_returns: list[float] = field(default_factory=list)
    episode_successes: list[bool] = field(default_factory=list)
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    def __len__(self) -> int:
        return self.obs.shape[0]


def collect_rollouts(env, actor: GaussianActor, critic: Critic, length: int,
                     rng: np.random.Generator) -> RolloutBuffer:
    """Receding-horizon collection: one policy query per H_e environment steps.

    Every query is tape-free.  The stored log-probabilities use the same
    row-invariant kernel (:func:`autodiff.row_matmul`) and formulas as the
    batched tape forward of the update epochs, so an epoch-0 recomputation
    reproduces them bitwise.
    """
    spec = actor.spec
    obs_rows, z_rows, act_rows, logp_rows = [], [], [], []
    reward_rows, value_rows, done_rows = [], [], []
    episode_returns, episode_successes = [], []
    obs_hist = env.reset(int(rng.integers(0, 2**63 - 1)))
    ep_return = 0.0
    last_obs_flat = None
    for _ in range(length):
        obs_flat = obs_hist.reshape(1, -1)
        z = rng.standard_normal((1, actor.generator.latent_dim))
        mean, log_std = actor.infer(obs_flat, z)
        chunk = sample_gaussian(mean, log_std, rng)[0]
        prefix = executed_prefix(chunk, spec)
        logp = prefix_log_prob_arrays(prefix.reshape(1, -1), mean, log_std, spec)[0]
        value = critic.value(obs_flat)[0]
        next_hist, reward, done = env.step_prefix(prefix)
        obs_rows.append(obs_flat[0])
        z_rows.append(z[0])
        act_rows.append(prefix.reshape(-1))
        logp_rows.append(float(logp))
        reward_rows.append(float(reward))
        value_rows.append(float(value))
        done_rows.append(bool(done))
        ep_return += reward
        if done:
            episode_returns.append(ep_return)
            episode_successes.append(bool(getattr(env, "succeeded", False)))
            ep_return = 0.0
            obs_hist = env.reset(int(rng.integers(0, 2**63 - 1)))
        else:
            obs_hist = next_hist
        last_obs_flat = obs_hist.reshape(1, -1)
    if length and not done_rows[-1]:
        bootstrap = float(critic.value(last_obs_flat)[0])
    else:
        bootstrap = 0.0
    d = spec.exec_dim
    c = actor.generator.latent_dim
    n_obs = spec.history_len * actor.generator.obs_dim
    return RolloutBuffer(
        obs=np.asarray(obs_rows).reshape(length, n_obs),
        latents=np.asarray(z_rows).reshape(length, c),
        exec_actions=np.asarray(act_rows).reshape(length, d),
        old_log_probs=np.asarray(logp_rows),
        rewards=np.asarray(reward_rows),
        values=np.asarray(value_rows),
        dones=np.asarray(done_rows, dtype=bool),
        bootstrap_value=bootstrap,
        episode_returns=episode_returns,
        episode_successes=episode_successes,
    )


def compute_gae(buffer: RolloutBuffer, gamma: float, lam: float) -> RolloutBuffer:
    """Exponentially weighted TD-residual advantages and returns-to-go."""
    n = len(buffer)
    adv = np.zeros(n)
    running = 0.0
    for t in reversed(range(n)):
        if buffer.dones[t]:
            next_value = 0.0
            running = 0.0
        elif t == n - 1:
            next_value = buffer.bootstrap_value
        else:
            next_value = buffer.values[t + 1]
        delta = buffer.rewards[t] + gamma * next_value - buffer.values[t]
        running = delta + gamma * lam * running
        adv[t] = running
    buffer.advantages = adv
    buffer.returns = adv + buffer.values
    return buffer


def ppo_ratio(new_log_prob: Tensor, old_log_prob: np.ndarray) -> Tensor:
    """exp(new - old) with the log-gap clamped to +-40 against overflow."""
    delta = new_log_prob - Tensor(old_log_prob)
    return exp(clip(delta, -RATIO_LOG_CLAMP, RATIO_LOG_CLAMP))


def clipped_surrogate(ratio: Tensor, advantages: np.ndarray, clip_eps: float) -> Tensor:
    """Mean of min(r*A, clip(r)*A); never exceeds the unclipped term."""
    adv = Tensor(advantages)
    return minimum(ratio * adv, clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv).mean()


def anchor_loss(mean: Tensor, anchor: Generator, obs: np.ndarray,
                latents: np.ndarray) -> Tensor:
    """Mean squared distance between the live mean chunks of (obs, latents)
    rows, as the actor's forward computed them, and the frozen anchor's."""
    frozen, _ = anchor.infer(obs, latents)
    return (mean - Tensor(frozen)).square().sum(axis=1).mean()


@dataclass
class UpdateStats:
    ratio_mean: float = 1.0
    clip_frac: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    anchor_loss: float = 0.0
    first_epoch_ratios: np.ndarray | None = None


def ppo_update(buffer: RolloutBuffer, actor: GaussianActor, critic: Critic,
                anchor: Generator, config: PPOConfig,
                rng: np.random.Generator,
                actor_opt: AdamW | None = None,
                critic_opt: AdamW | None = None,
                anchor_weight: float | None = None) -> UpdateStats:
    """One PPO iteration over the buffer: epochs of shuffled minibatches.

    Old log-probabilities stay fixed from collection and the anchor never
    moves.  Each minibatch evaluates the live backbone once: the anchor term
    reuses the mean of the actor's forward.  Advantages are normalized once
    over the whole buffer before the surrogate.
    """
    if buffer.advantages is None:
        raise PPOConfigError("buffer advantages missing; run compute_gae first")
    n = len(buffer)
    if n == 0 or config.update_epochs == 0:
        return UpdateStats()
    adv = buffer.advantages
    adv_std = float(adv.std())
    norm_adv = (adv - adv.mean()) / (adv_std + 1e-8)
    lam = config.anchor_weight if anchor_weight is None else anchor_weight

    if actor_opt is None:
        actor_opt = AdamW(actor.parameters().keys(), lr=config.actor_lr)
    if critic_opt is None:
        critic_opt = AdamW(critic.params.keys(), lr=config.critic_lr)

    stats = UpdateStats()
    # Recompute every stored log-prob before any gradient step: the ratios
    # must come back exactly 1 because the same latents and the same batched
    # forward path are used.
    with no_grad():
        out0 = actor.forward(Tensor(buffer.obs), Tensor(buffer.latents))
        logp0 = prefix_log_prob(buffer.exec_actions, out0).data
    stats.first_epoch_ratios = np.exp(
        np.clip(logp0 - buffer.old_log_probs, -RATIO_LOG_CLAMP, RATIO_LOG_CLAMP))

    ratios_acc, clip_acc, vloss_acc, ent_acc, anch_acc = [], [], [], [], []
    for epoch in range(config.update_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.minibatch_size):
            idx = order[lo:lo + config.minibatch_size]
            obs = buffer.obs[idx]
            z = buffer.latents[idx]
            out = actor.forward(Tensor(obs), Tensor(z))
            new_logp = prefix_log_prob(buffer.exec_actions[idx], out)
            ratio = ppo_ratio(new_logp, buffer.old_log_probs[idx])
            surrogate = clipped_surrogate(ratio, norm_adv[idx], config.clip_eps)
            values = critic.forward(Tensor(obs))
            value_loss = 0.5 * (values - Tensor(buffer.returns[idx])).square().mean()
            entropy = prefix_entropy(out).mean()
            anchor_term = anchor_loss(out.mean, anchor, obs, z)
            total = (-1.0 * surrogate + config.value_weight * value_loss
                     - config.entropy_weight * entropy + lam * anchor_term)
            if not np.isfinite(total.data):
                raise NumericalAbort("non-finite PPO loss", dump={
                    "epoch": epoch, "minibatch_indices": idx.tolist(),
                    "loss": float(total.data)})
            grad_map = backward(total)
            actor_params = actor.parameters()
            actor_opt.step(actor_params, leaf_grads(grad_map, actor_params))
            critic_opt.step(critic.params, leaf_grads(grad_map, critic.params))

            ratios_acc.append(float(ratio.data.mean()))
            clipped = (ratio.data < 1.0 - config.clip_eps) | (ratio.data > 1.0 + config.clip_eps)
            clip_acc.append(float(clipped.mean()))
            vloss_acc.append(float(value_loss.data))
            ent_acc.append(float(entropy.data))
            anch_acc.append(float(anchor_term.data))

    stats.ratio_mean = float(np.mean(ratios_acc))
    stats.clip_frac = float(np.mean(clip_acc))
    stats.value_loss = float(np.mean(vloss_acc))
    stats.entropy = float(np.mean(ent_acc))
    stats.anchor_loss = float(np.mean(anch_acc))
    return stats


def evaluate_policy(env_factory, actor: GaussianActor, episodes: int,
                    seed: int) -> dict:
    """Deterministic deployment evaluation: mean return and success rate."""
    returns, successes = [], []
    nfe_violations = 0
    rng = np.random.default_rng(seed)
    for ep in range(episodes):
        env = env_factory()
        obs_hist = env.reset(seed + ep)
        done = False
        total = 0.0
        while not done:
            z = rng.standard_normal(actor.generator.latent_dim)
            before = actor.generator.nfe_count
            chunk = actor.deploy_action(obs_hist, z)
            if actor.generator.nfe_count - before != 1:
                nfe_violations += 1
            prefix = executed_prefix(chunk, actor.spec)
            obs_hist, reward, done = env.step_prefix(prefix)
            total += reward
        returns.append(total)
        successes.append(bool(env.succeeded))
    return {
        "episodes": episodes,
        "mean_return": float(np.mean(returns)) if returns else None,
        "success_rate": float(np.mean(successes)) if successes else None,
        "nfe_violations": nfe_violations,
    }
