"""On-policy fine-tuning of the one-step backbone.

Rollouts store the latent drawn at every decision; update epochs reuse those
latents verbatim, which makes the conditional likelihood ratio identical to
the joint-policy ratio (the latent prior cancels) and lets the first epoch
recompute exactly the collection-time log-probabilities.  The total objective
is the clipped surrogate plus value regression, an entropy bonus, and a
squared-distance anchor to the frozen pretrained mean.

An update records no tape.  Each minibatch evaluates the actor, the critic
and the anchor once on arrays (:func:`ppo_minibatch`), :func:`ppo_objective`
returns the loss terms with dL/d(mean), dL/d(log_std) and dL/d(values), and
the networks' written-out backward passes map those to the parameter
gradients, each rule in the tape's order, so the bits are the tape's.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (AutodiffError, Tensor, check_finite, clip, exp, minimum, square,
                       tanh)
from .autodiff import backward, matmul  # noqa: F401 -- patch points of the bench/spans.py tracer
from .actor import (DEFAULT_LOG_STD_INIT, ActorOutput, GaussianActor, prefix_entropy,
                    prefix_log_prob, sample_gaussian)
from .envs import PointMassEnv, VecPointMassEnv
from .generator import ChunkSpec, Dense, Generator, executed_prefix, tanh_grad
from .training import AdamW, NumericalAbort

RATIO_LOG_CLAMP = 40.0

log = logging.getLogger(__name__)

FINETUNE_METRICS_HEADER = ("iter", "mean_return", "clip_frac", "ratio_mean",
                           "value_loss", "entropy", "anchor_loss")


class PPOConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PPOConfig:
    clip: float = 0.2
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
        if not (0.0 < self.clip < 1.0):
            raise PPOConfigError("clip must lie in (0, 1)")
        if not (0.0 < self.gamma <= 1.0):
            raise PPOConfigError("gamma must lie in (0, 1]")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise PPOConfigError("gae_lambda must lie in [0, 1]")
        for name in ("value_weight", "entropy_weight", "anchor_weight"):
            if getattr(self, name) < 0:
                raise PPOConfigError(f"{name} must be >= 0")
        if min(self.rollout_length, self.update_epochs, self.iterations) < 0:
            raise PPOConfigError("rollout_length, update_epochs and iterations must be >= 0")
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
        return _value_mlp(self.params, obs_flat)[0]

    def evaluate(self, obs_flat: np.ndarray) -> tuple[np.ndarray, tuple]:
        """:meth:`forward` without the tape, on an observation array: the values
        and the activations ``(obs, h1, h2)`` that :meth:`backward` reads."""
        obs = check_finite(np.asarray(obs_flat, dtype=np.float64), "observation input")
        return _value_mlp(self.params, obs)

    def value(self, obs_flat: np.ndarray) -> np.ndarray:
        """:meth:`forward` without the tape, on an observation array."""
        return self.evaluate(obs_flat)[0]

    @np.errstate(over="ignore", invalid="ignore")
    def backward(self, acts: tuple, d_values: np.ndarray) -> dict[str, np.ndarray]:
        """The gradient of every parameter, by name in parameter order, from
        dL/d(values) of an :meth:`evaluate` output; ``AutodiffError`` if one
        holds a NaN or an infinity."""
        obs, h1, h2 = acts
        p, grads = self.params, {}
        # the values are column 0 of the (B, 1) output layer
        g = tanh_grad(p.backward(grads, "v3", h2, d_values.reshape(-1, 1)), h2)
        g = tanh_grad(p.backward(grads, "v2", h1, g), h1)
        p.backward(grads, "v1", obs, g, to_input=False)
        return p.checked(grads)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return self.params.arrays()


def _value_mlp(p: Dense, obs):
    """Per-row values of the critic MLP on either backend, and its activations."""
    h1 = tanh(p.linear(obs, "v1"))
    h2 = tanh(p.linear(h1, "v2"))
    return p.linear(h2, "v3")[:, 0], (obs, h1, h2)


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
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    def __len__(self) -> int:
        return self.obs.shape[0]


def collect_rollouts(env, actor: GaussianActor, critic: Critic, length: int,
                     rng: np.random.Generator) -> RolloutBuffer:
    """Receding-horizon collection: one policy query per H_e environment steps.

    Every query is tape-free and writes decision ``t`` into row ``t`` of the
    buffer.  The stored log-probabilities come from the same network and
    formulas, with the same row-invariant kernel
    (:func:`autodiff.row_matmul`), as the batched tape forward of the update
    epochs, so an epoch-0 recomputation reproduces them bitwise.
    """
    spec = actor.spec
    generator = actor.generator
    buf = RolloutBuffer(obs=np.empty((length, spec.history_len * generator.obs_dim)),
                        latents=np.empty((length, generator.latent_dim)),
                        exec_actions=np.empty((length, spec.exec_dim)),
                        old_log_probs=np.empty(length), rewards=np.empty(length),
                        values=np.empty(length), dones=np.empty(length, dtype=bool),
                        bootstrap_value=0.0)
    obs_hist = env.reset(int(rng.integers(0, 2**63 - 1)))
    ep_return = 0.0
    for t in range(length):
        obs_flat = obs_hist.reshape(1, -1)
        z = rng.standard_normal((1, generator.latent_dim))
        out = actor.infer(obs_flat, z)
        prefix = executed_prefix(sample_gaussian(out.mean, out.log_std, rng)[0], spec)
        buf.obs[t], buf.latents[t], buf.exec_actions[t] = obs_flat[0], z[0], prefix.reshape(-1)
        buf.old_log_probs[t] = prefix_log_prob(buf.exec_actions[t:t + 1], out)[0]
        buf.values[t] = critic.value(obs_flat)[0]
        obs_hist, reward, done = env.step_prefix(prefix)
        buf.rewards[t], buf.dones[t] = reward, done
        ep_return += reward
        if done:
            buf.episode_returns.append(ep_return)
            ep_return = 0.0
            obs_hist = env.reset(int(rng.integers(0, 2**63 - 1)))
    if length and not buf.dones[-1]:
        buf.bootstrap_value = float(critic.value(obs_hist.reshape(1, -1))[0])
    return buf


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


def ppo_ratio(new_log_prob, old_log_prob: np.ndarray):
    """exp(new - old) with the log-gap clamped to +-40 against overflow: a
    ``Tensor`` ratio for a tape ``new_log_prob``, an array for an array."""
    return exp(clip(new_log_prob - old_log_prob, -RATIO_LOG_CLAMP, RATIO_LOG_CLAMP))


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


@np.errstate(over="ignore", invalid="ignore")
def ppo_objective(out: ActorOutput, values: np.ndarray, frozen: np.ndarray,
                  exec_actions: np.ndarray, old_log_probs: np.ndarray, advantages: np.ndarray,
                  returns: np.ndarray, config: PPOConfig, anchor_weight: float):
    """The loss of one minibatch and its gradient, written out.

    ``out`` and ``values`` are the actor's and the critic's outputs on the
    minibatch rows, ``frozen`` the anchor's mean chunks, ``exec_actions`` the
    (B, exec_dim) executed prefixes and ``advantages`` normalized.  The loss is

        -surrogate + value_weight * value_loss - entropy_weight * entropy
        + anchor_weight * anchor_loss

    Returns the ``UpdateStats`` row (ratio mean, clip fraction, value loss,
    entropy, anchor loss), then dL/d(mean), dL/d(log_std) and dL/d(values).
    Each step of the reverse pass is the tape rule's expression in the tape's
    operand order, so the gradients carry the tape's bits (see DECISIONS.md,
    "The PPO gradient is written out").  Raises ``AutodiffError`` on a
    non-finite log-probability or loss.
    """
    b = values.shape[0]
    lo, hi = 1.0 - config.clip, 1.0 + config.clip
    prefix = out.spec.exec_slice()
    logp = prefix_log_prob(exec_actions, out)
    ratio = ppo_ratio(logp, old_log_probs)
    unclipped, clipped = ratio * advantages, np.clip(ratio, lo, hi) * advantages
    surrogate = np.minimum(unclipped, clipped).mean()
    err = values - returns
    value_loss = 0.5 * square(err).mean()
    entropy = prefix_entropy(out).mean()
    diff = out.mean - frozen
    anchor_term = square(diff).sum(axis=1).mean()
    total = (-1.0 * surrogate + config.value_weight * value_loss
             - config.entropy_weight * entropy + anchor_weight * anchor_term)
    check_finite(total, "PPO loss")

    # The mean gives every row -1/B of the surrogate; minimum passes it to the
    # unclipped term, ties included, and clip only strictly inside (lo, hi).
    inside = (ratio > lo) & (ratio < hi)
    d_ratio = ((-1.0 / b) * advantages) * ((unclipped <= clipped) | inside)
    # exp's g * out, then the +-40 clamp of the log-gap, likewise strict
    d_logp = (d_ratio * ratio) * (np.abs(logp - old_log_probs) < RATIO_LOG_CLAMP)
    # logp sums (c - ls) - (0.5 * resid^2) * inv_var over the prefix: the
    # subtraction hands -g to the quadratic term and, through (c - ls), to ls
    resid, inv_var = exec_actions - out.mean[:, prefix], exp(-2.0 * out.log_std[:, prefix])
    d_quad = -d_logp[:, None]
    d_ls = d_quad + ((d_quad * (0.5 * square(resid))) * inv_var) * -2.0
    d_mu = -((2.0 * ((d_quad * inv_var) * 0.5)) * resid)
    # log_std sums the entropy's share and the log-prob's, the mean the
    # anchor's and the log-prob's: two terms add alike in either order
    d_log_std = np.zeros_like(out.log_std)
    d_log_std[:, prefix] = -config.entropy_weight / b + d_ls
    d_mean = (2.0 * (anchor_weight / b)) * diff
    d_mean[:, prefix] += d_mu
    d_values = (2.0 * ((config.value_weight * 0.5) / b)) * err
    clip_frac = ((ratio < lo) | (ratio > hi)).mean()
    return (ratio.mean(), clip_frac, value_loss, entropy, anchor_term), d_mean, d_log_std, d_values


def ppo_minibatch(actor: GaussianActor, critic: Critic, anchor: Generator,
                  buffer: RolloutBuffer, idx: np.ndarray, norm_adv: np.ndarray,
                  config: PPOConfig, anchor_weight: float):
    """The ``UpdateStats`` row and the actor's and the critic's gradients, by
    parameter name, of the buffer rows ``idx``.

    One array evaluation each of the live actor (which also gives the anchor
    term its live mean), the critic and the frozen anchor, then
    :func:`ppo_objective` and the networks' backward passes.  No gradient is
    applied, so an ``AutodiffError`` leaves every parameter as it was.
    """
    obs, z = buffer.obs[idx], buffer.latents[idx]
    out, actor_acts = actor.evaluate(obs, z)
    values, critic_acts = critic.evaluate(obs)
    frozen, _ = anchor.infer(obs, z)
    row, d_mean, d_log_std, d_values = ppo_objective(
        out, values, frozen, buffer.exec_actions[idx], buffer.old_log_probs[idx],
        norm_adv[idx], buffer.returns[idx], config, anchor_weight)
    return (row, actor.backward(actor_acts, d_mean, d_log_std),
            critic.backward(critic_acts, d_values))


def ppo_update(buffer: RolloutBuffer, actor: GaussianActor, critic: Critic,
               anchor: Generator, config: PPOConfig, rng: np.random.Generator, *,
               actor_opt: AdamW, critic_opt: AdamW, anchor_weight: float) -> UpdateStats:
    """One PPO iteration over the buffer: epochs of shuffled minibatches.

    Old log-probabilities stay fixed from collection and the anchor never
    moves.  Each minibatch evaluates the live backbone once
    (:func:`ppo_minibatch`): the anchor term reuses the mean of the actor's
    evaluation.  Advantages are normalized once over the whole buffer before
    the surrogate.  The optimizers carry their moments across calls, and
    ``anchor_weight`` scales the anchor term (the caller's schedule of
    ``config.anchor_weight``).
    """
    if buffer.advantages is None:
        raise PPOConfigError("buffer advantages missing; run compute_gae first")
    n = len(buffer)
    if n == 0 or config.update_epochs == 0:
        return UpdateStats()
    adv = buffer.advantages
    adv_std = float(adv.std())
    norm_adv = (adv - adv.mean()) / (adv_std + 1e-8)

    # Recompute every stored log-prob before any gradient step: the ratios
    # must come back exactly 1 because the same latents and the same batched
    # evaluation are used, the one that the minibatches differentiate.
    out, _ = actor.evaluate(buffer.obs, buffer.latents)
    first_epoch_ratios = ppo_ratio(prefix_log_prob(buffer.exec_actions, out),
                                   buffer.old_log_probs)

    # per minibatch: the UpdateStats fields in order, averaged at the end
    per_minibatch = []
    for epoch in range(config.update_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.minibatch_size):
            idx = order[lo:lo + config.minibatch_size]
            try:
                row, actor_grads, critic_grads = ppo_minibatch(
                    actor, critic, anchor, buffer, idx, norm_adv, config, anchor_weight)
                actor_opt.step(actor.parameters(), actor_grads)
                critic_opt.step(critic.params, critic_grads)
            except AutodiffError as exc:
                raise NumericalAbort(f"PPO epoch {epoch}: {exc}", dump={
                    "epoch": epoch, "minibatch_indices": idx.tolist()}) from exc
            per_minibatch.append(row)
    return UpdateStats(*(float(np.mean(column)) for column in zip(*per_minibatch)),
                       first_epoch_ratios=first_epoch_ratios)


def finetune(generator: Generator, config: PPOConfig, reward_mode: str = "sparse",
             log_std_init: float = DEFAULT_LOG_STD_INIT, critic_seed: int = 0):
    """Fine-tune ``generator`` in place: per iteration, collect, GAE and one
    :func:`ppo_update` against a frozen clone, with one actor, critic, env, rng
    and optimizer pair for the run.  ``config.anchor_decay`` takes the anchor
    weight linearly to 0 by the last iteration; a :class:`NumericalAbort` dump
    also names the iteration.  Returns the actor, the critic and one
    ``FINETUNE_METRICS_HEADER`` row per iteration."""
    anchor = generator.clone()
    actor = GaussianActor(generator, log_std_init=log_std_init)
    critic = Critic(generator.spec.history_len * generator.obs_dim, seed=critic_seed)
    rng = np.random.default_rng(config.seed)
    env = PointMassEnv(generator.spec, reward_mode=reward_mode)
    actor_opt = AdamW(actor.parameters().keys(), lr=config.actor_lr)
    critic_opt = AdamW(critic.params.keys(), lr=config.critic_lr)
    rows = []
    for iteration in range(1, config.iterations + 1):
        buffer = collect_rollouts(env, actor, critic, config.rollout_length, rng)
        compute_gae(buffer, config.gamma, config.gae_lambda)
        weight = config.anchor_weight
        if config.anchor_decay and config.iterations > 1:
            weight *= 1.0 - (iteration - 1) / (config.iterations - 1)
        try:
            stats = ppo_update(buffer, actor, critic, anchor, config, rng, actor_opt=actor_opt,
                               critic_opt=critic_opt, anchor_weight=weight)
        except NumericalAbort as exc:
            exc.dump["iteration"] = iteration
            raise
        mean_return = float(np.mean(buffer.episode_returns)) if buffer.episode_returns else 0.0
        rows.append({"iter": iteration, "mean_return": mean_return,
                     **{key: getattr(stats, key) for key in FINETUNE_METRICS_HEADER[2:]}})
        log.info("iter %d return %.3f clip %.3f", iteration, mean_return, stats.clip_frac)
    return actor, critic, rows


def run_episodes(spec: ChunkSpec, reward_mode: str, episodes: int, seed: int,
                 chunk_fn) -> dict:
    """Run episodes ``reset(seed + e)`` in lockstep on a :class:`VecPointMassEnv`.

    Each control step takes the (H * d_a) chunks ``chunk_fn(obs, active)`` of
    the running episodes ``active`` from their (T_o, d_o) histories ``obs``
    and makes one env step with their executed prefixes.  An episode drops
    out at the micro-step that ends it.  Returns the episode count, mean
    return and success rate.
    """
    if episodes < 0:
        raise PPOConfigError("episodes must be >= 0")
    envs = VecPointMassEnv(spec, reward_mode)
    obs = envs.reset([seed + e for e in range(episodes)])
    returns = np.zeros(episodes)
    active = np.arange(episodes)
    while active.size:
        chunks = chunk_fn(obs, active)
        obs, totals, done = envs.step_prefix(chunks[:, spec.exec_slice()], active)
        returns[active] += totals
        active, obs = active[~done], obs[~done]
    return {
        "episodes": episodes,
        "mean_return": float(np.mean(returns)) if episodes else None,
        "success_rate": float(np.mean(envs.succeeded)) if episodes else None,
    }


def evaluate_policy(env_factory, actor: GaussianActor, episodes: int,
                    seed: int) -> dict:
    """Deterministic deployment evaluation: mean return and success rate.

    ``env_factory`` builds a :class:`PointMassEnv`, whose settings the
    episodes share.  Episode ``e`` starts from ``reset(seed + e)`` and draws
    its latents from its own stream, spawned ``e``-th from ``seed``, so its
    outcome does not depend on the other episodes.  Each lockstep control step
    (:func:`run_episodes`) makes one network evaluation over the running
    episodes, whose rows equal batch-1 ``deploy_action`` calls bitwise.
    ``nfe_violations`` counts control steps whose evaluation count differs
    from the number of running episodes.
    """
    env = env_factory()
    # a negative count is left for run_episodes to reject
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(max(episodes, 0))]
    generator = actor.generator
    violations = []

    def chunk_fn(obs, active):
        z = np.stack([streams[e].standard_normal(generator.latent_dim) for e in active])
        before = generator.nfe_count
        chunks, _ = generator.infer(obs.reshape(active.size, -1), z)
        violations.append(generator.nfe_count - before != active.size)
        return chunks

    report = run_episodes(env.spec, env.reward_mode, episodes, seed, chunk_fn)
    return {**report, "nfe_violations": sum(violations)}
