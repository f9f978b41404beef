"""Independent brute-force references used only by the test suite.

The numerical references are re-derived with explicit index loops and scalar
math, on purpose sharing no code with the package: a loop drift field, central
finite differences, the closed-form scalar Gaussian density, and an O(T^2)
advantage double sum.  ``drift_field_as_built`` is the vectorised drift
pipeline as it was before its arrays put the pool axis first, with a
last-axis numpy reduction for every sum; it pins the pool-first pipeline bit
for bit.  ``sample_start_goal`` is the start-and-goal sampler as it was
before each try became one 4-value draw: two 2-value draws per try and
``np.linalg.norm``; it pins ``envs.sample_start_goal`` and the resets built on
it bit for bit, and the scalar references below reset through it.
``ScalarPointMassEnv`` is the point-mass state machine the package
once stepped one micro-step at a time, with scalar bookkeeping; it is the
reference for the one-pass ``envs.VecPointMassEnv``.  The evaluation
reference is the one-episode-at-a-time loop that the lockstep
``ppo.evaluate_policy`` replaced; it drives that scalar env and the package's
batch-1 deployment path, and ``steering_actor`` gives it a policy whose
episodes end in every possible way.  ``collect_rollouts_loop`` is the
rollout collection that ``ppo.collect_rollouts`` replaced, with a batch-1
log-probability and a batch-1 critic evaluation at every decision; it pins
the one-pass log-probabilities and values of the new collection bit for
bit.  ``synth_multimodal_loop`` is the demonstration synthesis the package
once ran one point mass and one micro-step at a time, with the scalar
swerving controller; it is the reference for the row-vectorised
``envs.plan``.  ``mode_coverage_loop`` is
the per-condition mode coverage that the one-pass ``envs.mode_coverage``
replaced.  The tape Stage-1 step (``tape_drift_train_step`` and the tape
``fixed_point_loss``, ``drift_loss`` and ``sample_hypotheses`` under it) is
the step ``training.drift_train_step`` took before its gradient was written
out: a recorded ``Generator.forward`` and a replay of the autodiff tape.  It
shares the package's drift geometry and tape on purpose, and is the bitwise
reference for the explicit step.  ``tape_ppo_minibatch`` is, likewise, the
PPO minibatch that ``ppo.ppo_update`` recorded on the tape before
``ppo.ppo_minibatch`` wrote its gradient out, and ``leaf_grads`` reads a
tape replay's gradients by parameter name for both tape steps, packed like
the explicit steps' into one vector per bundle.  ``AdamWPerName``,
``grad_clip_per_name`` and ``ema_update_per_name`` are the optimizer, the
gradient clip and the EMA as they ran before each bundle kept one flat
vector: a loop over leaves, each update rebinding the leaf to a new array.
They pin the whole-vector passes of ``driftkit.training`` bit for bit.
``profiled_calls`` is not a reference: it is cProfile's run of one call with
the cycle collector held off, the counter every call-count test reads.  Nor
is ``openblas``, a function of the OpenBLAS that numpy bundles, through which
``blas_core`` names the kernel class this process runs.
"""

from __future__ import annotations

import cProfile
import ctypes
import gc
import glob
import math
import os
import pstats

import numpy as np

from driftkit import envs
from driftkit.actor import GaussianActor, prefix_entropy, prefix_log_prob, sample_gaussian
from driftkit.autodiff import Tensor, backward, check_finite, square
from driftkit.drift import (DriftConfig, DriftFieldTensors, build_reference_pool,
                            compute_drift_field)
from driftkit.envs import MIN_START_DISTANCE, OBS_DIM
from driftkit.generator import ChunkSpec, Dense, Flat, Generator, SpecError, executed_prefix
from driftkit.ppo import Critic, RolloutBuffer, anchor_loss, clipped_surrogate, ppo_ratio
from driftkit.training import ema_decay_at


def softmax_rows(values: list[float]) -> list[float]:
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def drift_field_loops(hypotheses: np.ndarray, refs: np.ndarray, temperatures,
                      scale_floor: float, force_floor: float) -> dict:
    """Loop re-derivation of the whole drift geometry on one small instance.

    The first G references are the repulsive side and the rest the attractive
    side, G being the hypothesis count.
    """
    b, g, s = hypotheses.shape
    u = refs.shape[1]
    neg = list(range(g))
    pos = list(range(g, u))

    d = np.zeros((b, g, u))
    for i in range(b):
        for r in range(g):
            for k in range(u):
                acc = 0.0
                for c in range(s):
                    diff = hypotheses[i, r, c] - refs[i, k, c]
                    acc += diff * diff
                d[i, r, k] = math.sqrt(acc)

    num = 0.0
    for i in range(b):
        for r in range(g):
            for k in range(u):
                num += d[i, r, k]
    scale = max(num / (b * g * u), scale_floor)

    affinities = {}
    coefficients = {}
    forces = {}
    normalized = {}
    for temp in temperatures:
        logits = -(d / scale) / temp
        a = np.zeros((b, g, u))
        for i in range(b):
            sm_u = [softmax_rows([logits[i, r, k] for k in range(u)]) for r in range(g)]
            sm_r = [softmax_rows([logits[i, r, k] for r in range(g)]) for k in range(u)]
            for r in range(g):
                for k in range(u):
                    a[i, r, k] = math.sqrt(sm_u[r][k] * sm_r[k][r])
        alpha = np.zeros((b, g, u))
        for i in range(b):
            for r in range(g):
                s_minus = sum(a[i, r, k] for k in neg)
                s_plus = sum(a[i, r, k] for k in pos)
                for k in neg:
                    alpha[i, r, k] = -a[i, r, k] * s_plus
                for k in pos:
                    alpha[i, r, k] = a[i, r, k] * s_minus
        force = np.zeros((b, g, s))
        for i in range(b):
            for r in range(g):
                for k in range(u):
                    for c in range(s):
                        force[i, r, c] += alpha[i, r, k] * (
                            refs[i, k, c] - hypotheses[i, r, c]) / scale
        mean_sq = 0.0
        for i in range(b):
            for r in range(g):
                row = 0.0
                for c in range(s):
                    row += force[i, r, c] ** 2
                mean_sq += row
        mean_sq /= b * g
        affinities[temp] = a
        coefficients[temp] = alpha
        forces[temp] = force
        normalized[temp] = force / math.sqrt(mean_sq + force_floor)

    aggregate = np.zeros((b, g, s))
    for temp in temperatures:
        aggregate += normalized[temp]
    target = hypotheses / scale + aggregate
    loss = 0.0
    for i in range(b):
        for r in range(g):
            for c in range(s):
                loss += (hypotheses[i, r, c] / scale - target[i, r, c]) ** 2
    loss /= b * g * s
    return {"distances": d, "scale": scale, "affinities": affinities,
            "coefficients": coefficients, "forces": forces,
            "aggregate": aggregate, "target": target, "loss": loss}


# -- the as-built vectorised drift pipeline -----------------------------------
#
# ``drift.compute_drift_field`` and its stage functions as they were before the
# pipeline put the pool axis first, copied verbatim apart from the
# ``as_built`` prefix: every array in the (..., B, G, U) / (..., B, G, S)
# layout, each sum over G, U or a side of the pool a last-axis numpy
# reduction, and the force an ``einsum``.  The pool-first pipeline is pinned
# to it bitwise wherever the two add in the same order.




def as_built_per_index(scale, trailing: int) -> np.ndarray:
    """A per-leading-index scale, shaped to broadcast over ``trailing`` more axes."""
    scale = np.asarray(scale, dtype=np.float64)
    return scale.reshape(scale.shape + (1,) * trailing)


def as_built_pairwise_distances(detached: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Euclidean distance between every hypothesis (..., i, r) and reference (..., i, u)."""
    detached = np.asarray(detached, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    if detached.ndim < 3 or refs.ndim != detached.ndim:
        raise SpecError("pairwise_distances expects (..., B, G, S) and (..., B, U, S)")
    if detached.shape[:-2] != refs.shape[:-2] or detached.shape[-1] != refs.shape[-1]:
        raise SpecError(
            f"batch/space mismatch: {detached.shape} vs {refs.shape}")
    diff = detached[..., :, None, :] - refs[..., None, :, :]
    return np.sqrt(np.square(diff).sum(axis=-1))


def as_built_global_scale(distances: np.ndarray, scale_floor: float) -> np.ndarray:
    """Mean distance over (i, r, u) with a floor, one per leading index."""
    return np.maximum(distances.mean(axis=(-3, -2, -1)), scale_floor)


def as_built_symmetric_affinity(distances: np.ndarray, scale: float | np.ndarray,
                                temperature: float) -> np.ndarray:
    """Geometric mean of the reference-axis and hypothesis-axis softmaxes.

    Both softmaxes are taken over the same normalized logits -d/(R*scale).
    """
    logits = -(distances / as_built_per_index(scale, 3)) / temperature
    s_u = as_built_softmax_np(logits, axis=-1)
    s_r = as_built_softmax_np(logits, axis=-2)
    return np.sqrt(s_u * s_r)


def as_built_softmax_np(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def as_built_balanced_coefficients(affinity: np.ndarray) -> np.ndarray:
    """Signed coefficients with cross-side mass balancing.

    The first G = ``affinity.shape[-2]`` references are the negative side, the
    rest the positive side.  Negative-side entries get -A * S_plus,
    positive-side entries +A * S_minus, so the two sides exchange exactly
    opposite total mass per hypothesis.
    """
    g = affinity.shape[-2]
    negative, positive = affinity[..., :g], affinity[..., g:]
    s_minus = negative.sum(axis=-1, keepdims=True)
    s_plus = positive.sum(axis=-1, keepdims=True)
    return np.concatenate([-negative * s_plus, positive * s_minus], axis=-1)


def as_built_per_scale_force(alpha: np.ndarray, refs: np.ndarray, detached: np.ndarray,
                             scale: float | np.ndarray) -> np.ndarray:
    """Coefficient-weighted sum of scale-normalized displacements toward references."""
    disp = (refs[..., None, :, :] - detached[..., :, None, :]) / as_built_per_index(scale, 4)
    return np.einsum("...gu,...gud->...gd", alpha, disp)


def as_built_rms_normalize(force: np.ndarray, force_floor: float) -> np.ndarray:
    """Divide by the per-index RMS of per-(i, r) force norms, floored to avoid blowup."""
    mean_sq = np.square(force).sum(axis=-1).mean(axis=(-2, -1))
    return force / as_built_per_index(np.sqrt(mean_sq + force_floor), 3)


def as_built_aggregate_and_target(forces: list[np.ndarray], detached: np.ndarray,
                                  scale: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the normalized per-temperature forces and build the detached target."""
    aggregate = forces[0].copy()
    for f in forces[1:]:
        aggregate += f
    target = detached / as_built_per_index(scale, 3) + aggregate
    return aggregate, target


@np.errstate(over="ignore", invalid="ignore")
def drift_field_as_built(detached: np.ndarray, refs: np.ndarray,
                         config: DriftConfig) -> DriftFieldTensors:
    """Run the full geometry pipeline on (..., B, G, S) hypotheses and their
    (..., B, G + C_p, S) reference pool.

    Hypotheses too large to square give an infinite or NaN target without a
    warning; :func:`fixed_point_loss` then raises ``AutodiffError``.
    """
    d = as_built_pairwise_distances(detached, refs)
    scale = as_built_global_scale(d, config.scale_floor)
    out = DriftFieldTensors(distances=d, scale=scale)
    normalized = []
    for temp in config.temperatures:
        aff = as_built_symmetric_affinity(d, scale, temp)
        alpha = as_built_balanced_coefficients(aff)
        force = as_built_per_scale_force(alpha, refs, detached, scale)
        out.affinities[temp] = aff
        out.coefficients[temp] = alpha
        out.forces[temp] = force
        normalized.append(as_built_rms_normalize(force, config.force_floor))
    out.aggregate, out.target = as_built_aggregate_and_target(normalized, detached, scale)
    return out



def finite_diff(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar function, one parameter at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def gaussian_logpdf(x: float, mu: float, sigma: float) -> float:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return -0.5 * math.log(2.0 * math.pi) - math.log(sigma) \
        - (x - mu) ** 2 / (2.0 * sigma * sigma)


def gae_bruteforce(rewards, values, dones, bootstrap: float,
                   gamma: float, lam: float) -> np.ndarray:
    """O(T^2) double-sum advantages with episode cuts at done flags."""
    n = len(rewards)
    deltas = np.zeros(n)
    for t in range(n):
        if dones[t]:
            nxt = 0.0
        elif t == n - 1:
            nxt = bootstrap
        else:
            nxt = values[t + 1]
        deltas[t] = rewards[t] + gamma * nxt - values[t]
    adv = np.zeros(n)
    for t in range(n):
        coef = 1.0
        for k in range(t, n):
            adv[t] += coef * deltas[k]
            if dones[k]:
                break
            coef *= gamma * lam
    return adv


def sample_start_goal(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform start and goal with a minimum separation so episodes are non-trivial."""
    while True:
        pos = rng.uniform(-0.9, 0.9, size=2)
        goal = rng.uniform(-0.9, 0.9, size=2)
        if np.linalg.norm(pos - goal) >= MIN_START_DISTANCE:
            return pos, goal


class ScalarPointMassEnv:
    """One point mass stepped one micro-step at a time with scalar state.

    Same settings, reset and dynamics as ``envs.PointMassEnv``: the action is
    clipped to [-1, 1], pos += a * DT inside the arena, and the episode ends
    on success or at ``envs.EPISODE_CAP`` (read at each step, so a test can
    patch it).  A prefix stops at the micro-step that ends the episode.
    """

    def __init__(self, spec: ChunkSpec, reward_mode: str = "dense"):
        self.spec = spec
        self.reward_mode = reward_mode
        self.t = 0
        self.done = True
        self.succeeded = False

    def reset(self, seed: int) -> np.ndarray:
        self.pos, self.goal = sample_start_goal(np.random.default_rng(seed))
        self.last_action = np.zeros(2)
        self.t = 0
        self.done = False
        self.succeeded = False
        obs = np.concatenate([self.pos, self.goal, self.last_action])
        self._history = [obs.copy() for _ in range(self.spec.history_len)]
        return self.obs_history()

    def obs_history(self) -> np.ndarray:
        return np.stack(self._history[-self.spec.history_len:])

    def micro_step(self, action: np.ndarray) -> tuple[float, bool]:
        if self.done:
            raise RuntimeError("step after episode end")
        a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
        self.pos = np.clip(self.pos + a * envs.DT, -envs.ARENA_HALF_WIDTH,
                           envs.ARENA_HALF_WIDTH)
        self.last_action = a
        offset = self.pos - self.goal
        dist = np.sqrt(np.vecdot(offset, offset))
        success = dist <= envs.SUCCESS_THRESHOLD
        reward = -dist if self.reward_mode == "dense" else (1.0 if success else 0.0)
        self.t += 1
        if success:
            self.succeeded = True
        self.done = bool(success) or self.t >= envs.EPISODE_CAP
        self._history.append(np.concatenate([self.pos, self.goal, self.last_action]))
        return float(reward), self.done

    def step_prefix(self, prefix: np.ndarray) -> tuple[np.ndarray, float, bool]:
        prefix = np.asarray(prefix, dtype=np.float64).reshape(-1, 2)
        total = 0.0
        done = self.done
        for action in prefix:
            reward, done = self.micro_step(action)
            total += reward
            if done:
                break
        return self.obs_history(), total, done


def evaluate_policy_loop(env_factory, actor: GaussianActor, episodes: int,
                         seed: int) -> tuple[dict, int, list]:
    """``ppo.evaluate_policy``, one episode at a time.

    Episode ``e`` gets a fresh ``ScalarPointMassEnv`` with the settings of the
    env that ``env_factory`` builds, reset with ``seed + e``, one batch-1
    ``deploy_action`` per decision, and latents from the ``e``-th stream
    spawned from ``seed``.  Each decision's micro-step rewards are summed by
    ``step_prefix``, and the decision totals are summed into the episode
    total.  Returns the report, the number of decisions made, and every
    episode's finished env.  ``deploy_action`` runs the generator's batch-1
    workspace kernel, and ``evaluate_policy`` batched ``row_matmul`` rows, so
    equal reports also pin those two kernels to each other.
    """
    probe = env_factory()
    streams = np.random.SeedSequence(seed).spawn(episodes)
    returns, finished = [], []
    decisions = nfe_violations = 0
    for e in range(episodes):
        rng = np.random.default_rng(streams[e])
        env = ScalarPointMassEnv(probe.spec, probe.reward_mode)
        obs_hist = env.reset(seed + e)
        done = False
        total = 0.0
        while not done:
            z = rng.standard_normal(actor.generator.latent_dim)
            before = actor.generator.nfe_count
            chunk = actor.deploy_action(obs_hist, z)
            if actor.generator.nfe_count - before != 1:
                nfe_violations += 1
            decisions += 1
            obs_hist, reward, done = env.step_prefix(executed_prefix(chunk, actor.spec))
            total += reward
        returns.append(total)
        finished.append(env)
    report = {
        "episodes": episodes,
        "mean_return": float(np.mean(returns)) if returns else None,
        "success_rate": (float(np.mean([env.succeeded for env in finished]))
                         if finished else None),
        "nfe_violations": nfe_violations,
    }
    return report, decisions, finished


def scripted_chunk_loop(pos: np.ndarray, goal: np.ndarray, horizon: int) -> np.ndarray:
    """H actions of ``envs.scripted_action`` planned open loop from ``pos``,
    moving the planned position by a * DT with no wall clip."""
    actions = []
    pos = np.array(pos, dtype=np.float64)
    for _ in range(horizon):
        a = envs.scripted_action(pos, goal)
        actions.append(a)
        pos = pos + a * envs.DT
    return np.asarray(actions)


def scripted_eval_loop(spec: ChunkSpec, reward_mode: str, episodes: int,
                       seed: int) -> dict:
    """The CLI's scripted evaluation, one episode at a time.

    Episode ``e`` gets a fresh ``ScalarPointMassEnv`` reset with ``seed + e``.
    Each decision plans H actions with ``scripted_chunk_loop`` from the
    current position and executes the chunk's prefix.
    """
    returns, successes = [], []
    for e in range(episodes):
        env = ScalarPointMassEnv(spec, reward_mode)
        env.reset(seed + e)
        done = False
        total = 0.0
        while not done:
            actions = scripted_chunk_loop(env.pos, env.goal, spec.horizon)
            prefix = executed_prefix(actions.reshape(-1), spec)
            _, reward, done = env.step_prefix(prefix)
            total += reward
        returns.append(total)
        successes.append(env.succeeded)
    return {"episodes": episodes,
            "mean_return": float(np.mean(returns)) if returns else None,
            "success_rate": float(np.mean(successes)) if successes else None}


STEERING_SPEC = ChunkSpec(horizon=6, action_dim=2, history_len=2, exec_len=4)


def steering_actor(noise: float = 1.0, gain: float = 2.5,
                   spec: ChunkSpec = STEERING_SPEC) -> GaussianActor:
    """A hand-set backbone that steers toward the goal, on ``spec``.

    Every action of a chunk is about ``gain * (goal - pos + noise * z)`` for
    the newest observed position and the 2-d latent ``z``, squashed through
    three small-signal tanh layers.  At the defaults about half of the
    episodes succeed, most of them in the middle of an executed prefix, and
    the rest hit the episode cap.
    """
    eps = 0.1
    gen = Generator(spec, obs_dim=OBS_DIM, latent_dim=2, hidden_dim=4, seed=0)
    arrays = {name: np.zeros_like(value) for name, value in gen.params.arrays().items()}
    newest = (spec.history_len - 1) * OBS_DIM
    for i in range(2):
        arrays["obs_w"][newest + i, i] = -eps
        arrays["obs_w"][newest + 2 + i, i] = eps
        arrays["lat_w"][i, i] = eps
        arrays["trunk1_w"][i, i] = 1.0
        arrays["trunk1_w"][gen.hidden_dim + i, i] = noise
        arrays["trunk2_w"][i, i] = 1.0
        arrays["head_w"][i, i::2] = gain / eps
    gen.params.load(arrays)
    return GaussianActor(gen)


@np.errstate(over="ignore", invalid="ignore")
def collect_rollouts_loop(env, actor: GaussianActor, critic: Critic, length: int,
                          rng: np.random.Generator) -> RolloutBuffer:
    """``ppo.collect_rollouts`` with every query made at its decision.

    Each decision evaluates the actor, samples, computes its batch-1
    log-probability and its batch-1 critic value, then steps the env; the
    bootstrap value of a final history whose episode has not ended is one more
    batch-1 critic evaluation.
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
        out, _ = actor.evaluate(obs_flat, z)
        prefix = executed_prefix(sample_gaussian(out.mean, out.log_std, rng)[0], spec)
        buf.obs[t], buf.latents[t], buf.exec_actions[t] = obs_flat[0], z[0], prefix.reshape(-1)
        buf.old_log_probs[t] = prefix_log_prob(buf.exec_actions[t:t + 1], out)[0]
        values, _ = critic.evaluate(obs_flat)
        buf.values[t] = values[0]
        obs_hist, reward, done = env.step_prefix(prefix)
        buf.rewards[t], buf.dones[t] = reward, done
        ep_return += reward
        if done:
            buf.episode_returns.append(ep_return)
            ep_return = 0.0
            obs_hist = env.reset(int(rng.integers(0, 2**63 - 1)))
    if length and not buf.dones[-1]:
        values, _ = critic.evaluate(obs_hist.reshape(1, -1))
        buf.bootstrap_value = float(values[0])
    return buf


# -- multimodal demonstrations, one point mass and one micro-step at a time


def mode_action_scalar(pos: np.ndarray, goal: np.ndarray, step: int, sign: float,
                       gain: float, swing_amp: float, swing_len: int) -> np.ndarray:
    """The swerving goal-reaching controller for one point mass."""
    to_goal = goal - pos
    dist = float(np.linalg.norm(to_goal))
    if dist < 1e-12:
        return np.zeros(2)
    direction = to_goal / dist
    base = gain * to_goal
    speed = float(np.linalg.norm(base))
    if speed > envs.MODE_SPEED_CAP:
        base = base * (envs.MODE_SPEED_CAP / speed)
    perp = np.array([-direction[1], direction[0]])
    swing = 0.0
    if step < swing_len:
        swing = swing_amp * np.sin(np.pi * (step + 1) / (swing_len + 1))
    return np.clip(base + sign * swing * perp, -1.0, 1.0)


def rollout_mode_chunk(pos: np.ndarray, goal: np.ndarray, spec: ChunkSpec,
                       sign: float, gain: float, swing_amp: float,
                       swing_len: int) -> np.ndarray:
    """Noiseless (H, 2) expert chunk: the scalar controller stepped forward."""
    p = np.asarray(pos, dtype=np.float64).copy()
    actions = np.zeros((spec.horizon, 2))
    for h in range(spec.horizon):
        a = mode_action_scalar(p, goal, h, sign, gain, swing_amp, swing_len)
        actions[h] = a
        p = np.clip(p + a * envs.DT, -envs.ARENA_HALF_WIDTH, envs.ARENA_HALF_WIDTH)
    return actions


def synth_multimodal_loop(modes: int, conditions: int, samples_per_condition: int = 1,
                          noise: float = 0.01, seed: int = 0,
                          spec: ChunkSpec | None = None, gain: float = envs.SCRIPTED_GAIN,
                          swing_amp: float = 0.5, swing_len: int = 8,
                          warmup_max: int = 8) -> envs.ImitationDataset:
    """``envs.synth_multimodal`` one condition, one warm-up step and one
    sample at a time, interleaving the random draws with the rollouts."""
    spec = spec or ChunkSpec()
    signs = envs.mode_signs(modes)
    rng = np.random.default_rng(seed)
    obs_rows, chunk_rows, mode_rows = [], [], []
    for _ in range(conditions):
        pos, goal = sample_start_goal(rng)
        warm = int(rng.integers(0, warmup_max + 1))
        warm_sign = signs[int(rng.integers(0, modes))]
        history = [np.concatenate([pos, goal, np.zeros(2)])] * spec.history_len
        for step in range(warm):
            last = mode_action_scalar(pos, goal, step, warm_sign, gain, swing_amp, swing_len)
            pos = np.clip(pos + last * envs.DT, -envs.ARENA_HALF_WIDTH, envs.ARENA_HALF_WIDTH)
            history.append(np.concatenate([pos, goal, last]))
        obs_hist = np.stack(history[-spec.history_len:])
        for _ in range(samples_per_condition):
            k = int(rng.integers(0, modes))
            chunk = rollout_mode_chunk(pos, goal, spec, signs[k], gain, swing_amp, swing_len)
            if noise > 0:
                chunk = chunk + rng.normal(scale=noise, size=chunk.shape)
            obs_rows.append(obs_hist)
            chunk_rows.append(np.clip(chunk, -1.0, 1.0))
            mode_rows.append(k)
    metadata = {
        "modes": modes, "mode_signs": signs.tolist(), "conditions": conditions,
        "samples_per_condition": samples_per_condition, "noise": noise, "seed": seed,
        "gain": gain, "swing_amp": swing_amp, "swing_len": swing_len,
        "warmup_max": warmup_max, "obs_dim": OBS_DIM, "chunk_spec": spec.to_dict(),
    }
    return envs.ImitationDataset(np.stack(obs_rows), np.stack(chunk_rows),
                                 np.asarray(mode_rows, dtype=np.int64), spec, metadata)


def mode_centers_loop(obs_hist: np.ndarray, metadata: dict) -> np.ndarray:
    """One condition's row of ``envs.mode_centers``: one scalar rollout per
    mode sign, (K, D)."""
    spec = ChunkSpec(**metadata["chunk_spec"])
    pos, goal = obs_hist[-1, 0:2], obs_hist[-1, 2:4]
    return np.stack([rollout_mode_chunk(pos, goal, spec, sign, metadata["gain"],
                                        metadata["swing_amp"], metadata["swing_len"]).reshape(-1)
                     for sign in metadata["mode_signs"]])


def mode_coverage_loop(generator: Generator, dataset, samples: int, rng: np.random.Generator,
                       max_conditions: int | None = None) -> float:
    """``envs.mode_coverage`` one condition at a time: per distinct history, in
    first-seen order, ``samples`` latents, one ``generator.evaluate`` and the
    nearest of :func:`mode_centers_loop`'s centres for each chunk."""
    seen = set()
    fractions = []
    for obs_hist in dataset.observations:
        key = obs_hist.tobytes()
        if key in seen:
            continue
        seen.add(key)
        if max_conditions is not None and len(fractions) >= max_conditions:
            break
        centers = mode_centers_loop(obs_hist, dataset.metadata)
        obs = np.repeat(obs_hist.reshape(1, -1), samples, axis=0)
        chunks, _ = generator.evaluate(obs, rng.standard_normal((samples, generator.latent_dim)))
        diffs = chunks[:, None, :] - centers[None, :, :]
        nearest = np.argmin(np.sqrt(np.square(diffs).sum(axis=-1)), axis=1)
        fractions.append(len(np.unique(nearest)) / len(centers))
    return float(np.mean(fractions))


# -- the tape Stage-1 step and PPO minibatch ----------------------------------


def leaf_grads(grad_map: dict, params: Dense) -> Flat:
    """:func:`backward`'s gradients of a bundle's leaves, packed into one
    vector in parameter order; zeros for a leaf the loss missed."""
    return Flat.of({name: grad_map[p] if p in grad_map else np.zeros_like(p.data)
                    for name, p in params.items()})


def tape_fixed_point_loss(values: Tensor, target: np.ndarray, scale: float | np.ndarray) -> Tensor:
    """Mean squared gap between scale-normalized hypotheses and the frozen target.

    ``scale`` is a number or an array that broadcasts against the values.
    Equals the sample average of the per-sample losses; in the forward pass the
    value reduces to the mean squared drift magnitude because the target is the
    detached hypotheses plus the drift.
    """
    if values.shape != target.shape:
        raise SpecError(f"values {values.shape} vs target {target.shape}")
    return square(values / scale - Tensor(target)).mean()


def tape_drift_loss(values: Tensor, positives: np.ndarray, config: DriftConfig,
                    slice_width: int | None = None):
    """Drift-field regression loss for one minibatch of (B, G, S) hypotheses.

    ``values`` is the hypotheses' tape tensor; the geometry reads its array.
    Step-wise mode splits the flattened chunk into K time slices of
    ``slice_width`` coordinates and runs an independent pipeline on each, as
    the leading axis of one geometry pass; chunk mode is the one-slice case
    over the full width.  The loss is the mean over all (B, G, S) entries,
    which equals the mean of the per-slice losses because the slices have
    equal size.  Returns the scalar loss and the field tensors, whose arrays
    lead with the slice axis (``scale`` is (K,)).
    """
    hypotheses = values.data
    refs = build_reference_pool(hypotheses, positives)
    b, g, s = hypotheses.shape
    width = s if config.loss_mode == "chunk" else slice_width
    if width is None or width < 1:
        raise SpecError("step_wise mode requires a positive slice_width")
    if s % width != 0:
        raise SpecError(f"chunk width {s} is not a multiple of slice width {width}")

    def split(x: np.ndarray) -> np.ndarray:
        """(B, C, S) -> (K, B, C, width) in C order, so that each slice's sums add
        in the order of a separate 3-d instance and keep its bits."""
        return np.ascontiguousarray(np.moveaxis(x.reshape(b, x.shape[1], -1, width), 2, 0))

    fld = compute_drift_field(split(hypotheses), split(refs), config)
    target = np.moveaxis(fld.target, 0, 2).reshape(b, g, s)
    return tape_fixed_point_loss(values, target, np.repeat(fld.scale, width)), fld


def tape_sample_hypotheses(generator: Generator, obs_batch: np.ndarray, count: int,
                           rng: np.random.Generator) -> tuple[Tensor, np.ndarray]:
    """Generate G hypotheses per observation from independent latents.

    All B*G rows go through a single forward evaluation on the tape.  Returns
    the (B, G, S) hypothesis tensor and the (B, G, C) latents; the drift
    geometry reads the tensor's array and never touches the graph.
    """
    if count < 1:
        raise SpecError("hypothesis count must be positive")
    obs = generator._flatten_obs(obs_batch)
    b = obs.shape[0]
    latents = rng.standard_normal((b, count, generator.latent_dim))
    obs_rep = np.repeat(obs, count, axis=0)
    chunk, _ = generator.forward(Tensor(obs_rep),
                                 Tensor(latents.reshape(b * count, -1)))
    return chunk.reshape(b, count, generator.spec.chunk_dim), latents


def tape_drift_train_step(generator: Generator, obs_batch: np.ndarray,
                          expert_batch: np.ndarray, config: DriftConfig,
                          rng: np.random.Generator):
    """One minibatch step: sample hypotheses, build the pool, regress, backprop.

    Returns (loss value, per-parameter gradient arrays, field scale averaged
    over the loss slices).
    """
    values, _ = tape_sample_hypotheses(generator, obs_batch, config.hypothesis_count, rng)
    experts = np.asarray(expert_batch, dtype=np.float64)
    experts = experts.reshape(experts.shape[0], 1, -1)
    slice_width = generator.spec.action_dim if config.loss_mode == "step_wise" else None
    loss, fields = tape_drift_loss(values, experts, config, slice_width=slice_width)
    grad_map = backward(loss)
    return loss.item(), leaf_grads(grad_map, generator.params), float(np.mean(fields.scale))


def tape_ppo_minibatch(actor, critic, anchor, buffer, idx, norm_adv, config, anchor_weight):
    """``ppo.ppo_minibatch`` on the tape: the ``UpdateStats`` row and the
    actor's and the critic's gradients by parameter name, from one recorded
    objective and one ``backward`` replay."""
    obs = buffer.obs[idx]
    z = buffer.latents[idx]
    out = actor.forward(Tensor(obs), Tensor(z))
    new_logp = prefix_log_prob(buffer.exec_actions[idx], out)
    ratio = ppo_ratio(new_logp, buffer.old_log_probs[idx])
    surrogate = clipped_surrogate(ratio, norm_adv[idx], config.clip)
    values = critic.forward(Tensor(obs))
    value_loss = 0.5 * (values - Tensor(buffer.returns[idx])).square().mean()
    entropy = prefix_entropy(out).mean()
    anchor_term = anchor_loss(out.mean, anchor, obs, z)
    total = (-1.0 * surrogate + config.value_weight * value_loss
             - config.entropy_weight * entropy + anchor_weight * anchor_term)
    grad_map = backward(total)
    clipped = (ratio.data < 1.0 - config.clip) | (ratio.data > 1.0 + config.clip)
    row = (ratio.data.mean(), clipped.mean(), value_loss.data, entropy.data, anchor_term.data)
    return (row, tuple(leaf_grads(grad_map, bundle) for bundle in actor.bundles),
            leaf_grads(grad_map, critic.params))


# -- the per-leaf optimizer ----------------------------------------------------


def grad_clip_per_name(grads: dict[str, np.ndarray],
                       max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Rescale so the global norm is at most max_norm; direction preserved."""
    if max_norm <= 0:
        raise SpecError("max_norm must be positive")
    total = 0.0
    for g in grads.values():
        total += float(np.square(g).sum())
    norm = float(np.sqrt(total))
    if norm <= max_norm:
        return grads, norm
    factor = max_norm / norm
    return {k: g * factor for k, g in grads.items()}, norm


class AdamWPerName:
    """Adam moments with decoupled weight decay; decay is scaled by the step's lr.

    :meth:`step` rebinds each parameter leaf's ``data`` to the updated array,
    so every holder of a leaf sees the new values without copying them back.
    ``grads`` needs every parameter's name, as the explicit backward passes give it.
    """

    def __init__(self, param_names, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 weight_decay: float = 0.0, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {name: None for name in param_names}
        self.v: dict[str, np.ndarray] = {name: None for name in param_names}

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray],
             lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in params.items():
            g = grads[name]
            if self.m[name] is None:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            new = p.data - lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                 + self.weight_decay * p.data)
            p.data = check_finite(new, f"AdamW update of {name}")

    def state(self) -> dict:
        return {
            "step_count": self.step_count,
            "m": {k: (v.tolist() if v is not None else None) for k, v in self.m.items()},
            "v": {k: (v.tolist() if v is not None else None) for k, v in self.v.items()},
        }


def ema_update_per_name(shadow: dict[str, np.ndarray], params: dict[str, Tensor], step: int,
                        decay: float, power: float) -> dict[str, np.ndarray]:
    d = ema_decay_at(step, decay, power)
    out = {}
    for name, p in params.items():
        s = shadow[name]
        if s.shape != p.data.shape:
            raise SpecError(f"ema shape mismatch for {name}")
        out[name] = d * s + (1.0 - d) * p.data
    return out


def profiled_calls(fn) -> pstats.Stats:
    """cProfile's stats of ``fn()``; the cycle collector, which can run other
    objects' Python finalizers inside it, is held off."""
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
        gc.enable()
    return pstats.Stats(profiler)


def openblas(name: str, restype):
    """The function ``name`` of the OpenBLAS that numpy bundles, taking no
    argument and returning ``restype``; None where there is none."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            return fn
    return None


def blas_core() -> str | None:
    """The OpenBLAS kernel class this process runs (``SkylakeX``, ``Haswell``,
    ...), which ``OPENBLAS_CORETYPE`` forces; None where the library cannot say."""
    core = openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return None if core is None else core().decode()
