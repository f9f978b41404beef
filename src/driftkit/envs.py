"""Desk-scale tasks: a deterministic planar point-mass reach environment with
receding-horizon stepping, N envs in lockstep or one as a view, plus synthetic
multimodal imitation datasets whose expert chunks come from scripted
goal-reaching controllers that swerve left or right on the way in.

Observation layout per micro-step is (position, goal, last action), d_o = 6.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .generator import ChunkSpec, SpecError

OBS_DIM = 6
ACTION_DIM = 2

ARENA_HALF_WIDTH = 1.0
DT = 0.1
SUCCESS_THRESHOLD = 0.05
EPISODE_CAP = 120
MIN_START_DISTANCE = 0.4

SCRIPTED_GAIN = 3.0


class EnvError(ValueError):
    """Invalid environment settings: an unknown reward mode or non-planar actions."""


def _observe(pos: np.ndarray, goal: np.ndarray, last_action: np.ndarray) -> np.ndarray:
    return np.concatenate([pos, goal, last_action])


class VecPointMassEnv:
    """N velocity-command point masses stepped together, as (N, ...) arrays.

    Each point mass moves by pos += a * DT inside [-1, 1]^2, with actions
    clipped to [-1, 1].  Dense reward is -dist(pos, goal) per micro-step;
    sparse reward pays 1 once the success threshold is reached.  Episodes end
    on success or at the micro-step cap.  Env ``i``'s state is its observation
    history ``history[i]`` (T_o, d_o), whose newest row holds (position, goal,
    last action), its micro-step count ``t[i]`` and its flags ``done[i]`` and
    ``succeeded[i]``.  Every step is elementwise along the env axis, so a row's
    bits do not depend on the other rows.
    """

    def __init__(self, spec: ChunkSpec, reward_mode: str = "dense"):
        if reward_mode not in ("dense", "sparse"):
            raise EnvError(f"unknown reward mode {reward_mode!r}")
        if spec.action_dim != ACTION_DIM:
            raise EnvError("point-mass actions are planar (action_dim must be 2)")
        self.spec = spec
        self.reward_mode = reward_mode
        self.reset([])

    def reset(self, seeds) -> np.ndarray:
        """Start env ``i`` from ``sample_start_goal(default_rng(seeds[i]))`` at
        rest; return the (N, T_o, d_o) observation histories."""
        newest = [_observe(*sample_start_goal(np.random.default_rng(seed)), np.zeros(2))
                  for seed in seeds]
        n = len(newest)
        self.history = np.repeat(np.reshape(newest, (n, 1, OBS_DIM)),
                                 self.spec.history_len, axis=1)
        self.t = np.zeros(n, dtype=np.int64)
        self.done = np.zeros(n, dtype=bool)
        self.succeeded = np.zeros(n, dtype=bool)
        return self.history.copy()

    def step_prefix(self, prefixes: np.ndarray,
                    rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run each env at indices ``rows`` through its (H_e, 2) prefix.

        An env stops at the micro-step that ends its episode; the micro-steps
        after it are computed and thrown away.  Returns the observation
        histories, the summed rewards and the done flags of ``rows``; the
        rewards add up from 0.0 in micro-step order.  Stepping an env whose
        episode has ended raises ``RuntimeError``.
        """
        rows = np.asarray(rows)
        if self.done[rows].any():
            raise RuntimeError("step after episode end")
        n = rows.size
        actions = np.clip(np.asarray(prefixes, dtype=np.float64).reshape(n, -1, ACTION_DIM),
                          -1.0, 1.0)
        h_e = actions.shape[1]
        hist = self.history[rows]
        goal = np.repeat(hist[:, -1:, 2:4], h_e, axis=1)
        pos = np.empty_like(actions)
        now = hist[:, -1, 0:2]
        for k in range(h_e):
            now = np.clip(now + actions[:, k] * DT, -ARENA_HALF_WIDTH, ARENA_HALF_WIDTH)
            pos[:, k] = now
        offset = pos - goal
        dist = np.sqrt(np.vecdot(offset, offset))
        success = dist <= SUCCESS_THRESHOLD
        ends = success | (self.t[rows, None] + np.arange(1, h_e + 1) >= EPISODE_CAP)
        done = ends.any(axis=1)
        steps = np.where(done, ends.argmax(axis=1) + 1, h_e)
        reward = -dist if self.reward_mode == "dense" else np.where(success, 1.0, 0.0)
        sums = np.cumsum(np.concatenate([np.zeros((n, 1)), reward], axis=1), axis=1)
        # the history followed by all H_e new observations; keep T_o of them
        trail = np.concatenate([hist, np.concatenate([pos, goal, actions], axis=2)], axis=1)
        every = np.arange(n)
        self.history[rows] = trail[every[:, None], steps[:, None] + np.arange(hist.shape[1])]
        self.t[rows] += steps
        self.done[rows] = done
        self.succeeded[rows] = success[every, steps - 1]
        return self.history[rows], sums[every, steps], done


class PointMassEnv:
    """One point mass: a view of a one-row :class:`VecPointMassEnv`.

    ``reset(seed)`` is bitwise reproducible.  The state is read off the row;
    before the first reset the episode counts as ended.
    """

    def __init__(self, spec: ChunkSpec, reward_mode: str = "dense"):
        self.vec = VecPointMassEnv(spec, reward_mode)

    spec = property(lambda self: self.vec.spec)
    reward_mode = property(lambda self: self.vec.reward_mode)
    pos = property(lambda self: self.vec.history[0, -1, 0:2].copy())
    goal = property(lambda self: self.vec.history[0, -1, 2:4].copy())
    last_action = property(lambda self: self.vec.history[0, -1, 4:6].copy())
    t = property(lambda self: int(self.vec.t[0]))
    # over the zero rows before the first reset, all() is True and any() False
    done = property(lambda self: bool(self.vec.done.all()))
    succeeded = property(lambda self: bool(self.vec.succeeded.any()))

    def reset(self, seed: int) -> np.ndarray:
        return self.vec.reset([seed])[0]

    def obs_history(self) -> np.ndarray:
        return self.vec.history[0].copy()

    def step_prefix(self, prefix: np.ndarray) -> tuple[np.ndarray, float, bool]:
        """Apply all H_e micro-steps of an executed prefix, summing rewards."""
        if self.done:
            raise RuntimeError("step after episode end")
        obs, total, done = self.vec.step_prefix(np.reshape(prefix, (1, -1, ACTION_DIM)), [0])
        return obs[0], float(total[0]), bool(done[0])

    def micro_step(self, action: np.ndarray) -> tuple[float, bool]:
        """One micro-step: the prefix of one action."""
        _, reward, done = self.step_prefix(np.reshape(action, (1, ACTION_DIM)))
        return reward, done


def sample_start_goal(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform start and goal with a minimum separation so episodes are non-trivial."""
    while True:
        pos = rng.uniform(-0.9, 0.9, size=2)
        goal = rng.uniform(-0.9, 0.9, size=2)
        if np.linalg.norm(pos - goal) >= MIN_START_DISTANCE:
            return pos, goal


def scripted_action(pos: np.ndarray, goal: np.ndarray,
                    gain: float = SCRIPTED_GAIN) -> np.ndarray:
    """Straight-to-goal proportional controller, the optimal baseline."""
    return np.clip(gain * (goal - pos), -1.0, 1.0)


def scripted_chunks(obs: np.ndarray, spec: ChunkSpec) -> np.ndarray:
    """Open-loop chunks of :func:`scripted_action` for (N, T_o, d_o) histories.

    Each row plans H actions from its newest position and goal, moving the
    planned position by a * DT without the wall clip.  Returns (N, H * d_a).
    """
    pos, goal = obs[:, -1, 0:2], obs[:, -1, 2:4]
    actions = []
    for _ in range(spec.horizon):
        a = scripted_action(pos, goal)
        actions.append(a)
        pos = pos + a * DT
    return np.stack(actions, axis=1).reshape(len(obs), -1)


# -- multimodal demonstrations ------------------------------------------


@dataclass
class ImitationDataset:
    """Paired (observation history, expert chunk) records with mode labels."""

    observations: np.ndarray  # (N, T_o, d_o)
    chunks: np.ndarray        # (N, H, d_a)
    modes: np.ndarray         # (N,) int labels
    spec: ChunkSpec
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.observations.shape[0]


def mode_signs(n_modes: int) -> np.ndarray:
    """Per-mode lateral swerve factors in [-1, 1], symmetric around zero."""
    if n_modes == 1:
        return np.zeros(1)
    return np.linspace(-1.0, 1.0, n_modes)


MODE_SPEED_CAP = 0.6


def mode_action(pos: np.ndarray, goal: np.ndarray, step: int, sign: float,
                gain: float, swing_amp: float, swing_len: int) -> np.ndarray:
    """Goal-reaching action with an early lateral swerve of the given sign.

    The approach term is norm-capped below the action bounds so the swerve is
    never clipped away; the two swerve signs therefore produce distinct chunks
    from any start state.
    """
    to_goal = goal - pos
    dist = float(np.linalg.norm(to_goal))
    if dist < 1e-12:
        return np.zeros(2)
    direction = to_goal / dist
    base = gain * to_goal
    speed = float(np.linalg.norm(base))
    if speed > MODE_SPEED_CAP:
        base = base * (MODE_SPEED_CAP / speed)
    perp = np.array([-direction[1], direction[0]])
    swing = 0.0
    if step < swing_len:
        swing = swing_amp * np.sin(np.pi * (step + 1) / (swing_len + 1))
    return np.clip(base + sign * swing * perp, -1.0, 1.0)


def rollout_mode_chunk(pos: np.ndarray, goal: np.ndarray, spec: ChunkSpec,
                       sign: float, gain: float, swing_amp: float,
                       swing_len: int) -> np.ndarray:
    """Noiseless H-step expert chunk: simulate the mode controller forward."""
    p = np.asarray(pos, dtype=np.float64).copy()
    actions = np.zeros((spec.horizon, ACTION_DIM))
    for h in range(spec.horizon):
        a = mode_action(p, goal, h, sign, gain, swing_amp, swing_len)
        actions[h] = a
        p = np.clip(p + a * DT, -ARENA_HALF_WIDTH, ARENA_HALF_WIDTH)
    return actions


def synth_multimodal(modes: int, conditions: int, samples_per_condition: int = 1,
                     noise: float = 0.01, seed: int = 0,
                     spec: ChunkSpec | None = None, gain: float = SCRIPTED_GAIN,
                     swing_amp: float = 0.5, swing_len: int = 8,
                     warmup_max: int = 8) -> ImitationDataset:
    """Synthesize goal-reaching demonstrations with K swerve modes.

    Each condition is a point-mass state reached by warming up the controller
    for a random number of micro-steps, so histories carry realistic past
    actions.  Every sample for a condition draws one of the K modes uniformly
    and adds Gaussian jitter to the noiseless mode chunk.
    """
    if min(modes, conditions, samples_per_condition) < 1:
        raise SpecError("modes, conditions and samples_per_condition must be >= 1")
    spec = spec or ChunkSpec()
    if spec.action_dim != ACTION_DIM:
        raise SpecError("point-mass actions are planar (action_dim must be 2)")
    signs = mode_signs(modes)
    rng = np.random.default_rng(seed)
    obs_rows, chunk_rows, mode_rows = [], [], []
    for _ in range(conditions):
        pos, goal = sample_start_goal(rng)
        warm = int(rng.integers(0, warmup_max + 1))
        warm_sign = signs[int(rng.integers(0, modes))]
        history = [_observe(pos, goal, np.zeros(2))] * spec.history_len
        last = np.zeros(2)
        for step in range(warm):
            last = mode_action(pos, goal, step, warm_sign, gain, swing_amp, swing_len)
            pos = np.clip(pos + last * DT, -ARENA_HALF_WIDTH, ARENA_HALF_WIDTH)
            history.append(_observe(pos, goal, last))
        obs_hist = np.stack(history[-spec.history_len:])
        for _ in range(samples_per_condition):
            k = int(rng.integers(0, modes))
            chunk = rollout_mode_chunk(pos, goal, spec, signs[k], gain,
                                       swing_amp, swing_len)
            if noise > 0:
                chunk = chunk + rng.normal(scale=noise, size=chunk.shape)
            obs_rows.append(obs_hist)
            chunk_rows.append(np.clip(chunk, -1.0, 1.0))
            mode_rows.append(k)
    metadata = {
        "modes": modes,
        "mode_signs": signs.tolist(),
        "conditions": conditions,
        "samples_per_condition": samples_per_condition,
        "noise": noise,
        "seed": seed,
        "gain": gain,
        "swing_amp": swing_amp,
        "swing_len": swing_len,
        "warmup_max": warmup_max,
        "obs_dim": OBS_DIM,
        "chunk_spec": spec.to_dict(),
    }
    return ImitationDataset(
        observations=np.stack(obs_rows),
        chunks=np.stack(chunk_rows),
        modes=np.asarray(mode_rows, dtype=np.int64),
        spec=spec,
        metadata=metadata,
    )


def mode_centers_for(obs_hist: np.ndarray, metadata: dict) -> np.ndarray:
    """The K noiseless mode chunks for one condition, flattened to (K, D).

    The condition state (position, goal) is read off the newest history row;
    centers are recomputed from the stored synthesis parameters.
    """
    spec = ChunkSpec.from_dict(metadata["chunk_spec"])
    newest = np.asarray(obs_hist)[-1]
    pos, goal = newest[0:2], newest[2:4]
    centers = []
    for sign in metadata["mode_signs"]:
        chunk = rollout_mode_chunk(pos, goal, spec, sign,
                                   metadata["gain"], metadata["swing_amp"],
                                   metadata["swing_len"])
        centers.append(chunk.reshape(-1))
    return np.stack(centers)


def mode_coverage(policy_fn, dataset: ImitationDataset, samples: int,
                  rng: np.random.Generator, max_conditions: int | None = None) -> float:
    """Fraction of distinct expert modes reached by sampled policy chunks.

    For every test condition, draw ``samples`` latents, assign each generated
    chunk to the nearest mode center, and average the per-condition fraction
    of modes hit.
    """
    if "mode_signs" not in dataset.metadata:
        raise SpecError("dataset lacks mode metadata")
    if samples < 1 or (max_conditions is not None and max_conditions < 1):
        raise SpecError("coverage samples and max_conditions must be >= 1")
    n_modes = dataset.metadata["modes"]
    seen_conditions = set()
    fractions = []
    for i in range(len(dataset)):
        key = dataset.observations[i].tobytes()
        if key in seen_conditions:
            continue
        seen_conditions.add(key)
        if max_conditions is not None and len(fractions) >= max_conditions:
            break
        centers = mode_centers_for(dataset.observations[i], dataset.metadata)
        chunks = policy_fn(dataset.observations[i], samples, rng)
        diffs = chunks[:, None, :] - centers[None, :, :]
        nearest = np.argmin(np.sqrt(np.square(diffs).sum(axis=-1)), axis=1)
        fractions.append(len(np.unique(nearest)) / n_modes)
    return float(np.mean(fractions))


# -- persistence ---------------------------------------------------------


def save_dataset(dataset: ImitationDataset, csv_path, meta_path) -> None:
    """CSV of flattened records plus a JSON sidecar with synthesis metadata."""
    n = len(dataset)
    t_o, d_o = dataset.observations.shape[1:]
    d = dataset.spec.chunk_dim
    header = ([f"obs_{i}" for i in range(t_o * d_o)]
              + [f"act_{i}" for i in range(d)] + ["mode"])
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            row = [repr(float(v)) for v in dataset.observations[i].reshape(-1)]
            row += [repr(float(v)) for v in dataset.chunks[i].reshape(-1)]
            row.append(int(dataset.modes[i]))
            writer.writerow(row)
    with open(meta_path, "w") as fh:
        json.dump(dataset.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(csv_path, meta_path) -> ImitationDataset:
    with open(meta_path) as fh:
        metadata = json.load(fh)
    spec = ChunkSpec.from_dict(metadata["chunk_spec"])
    d_o = metadata["obs_dim"]
    t_o = spec.history_len
    obs_rows, chunk_rows, mode_rows = [], [], []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = t_o * d_o + spec.chunk_dim + 1
        if len(header) != expected:
            raise SpecError(f"dataset has {len(header)} columns, expected {expected}")
        for line, row in enumerate(reader, start=2):
            if len(row) != expected:
                raise SpecError(f"dataset row {line} has {len(row)} values, expected {expected}")
            vals = [float(v) for v in row[:-1]]
            obs_rows.append(np.array(vals[:t_o * d_o]).reshape(t_o, d_o))
            chunk_rows.append(np.array(vals[t_o * d_o:]).reshape(
                spec.horizon, spec.action_dim))
            mode_rows.append(int(row[-1]))
    return ImitationDataset(
        observations=np.stack(obs_rows) if obs_rows else np.zeros((0, t_o, d_o)),
        chunks=np.stack(chunk_rows) if chunk_rows else np.zeros(
            (0, spec.horizon, spec.action_dim)),
        modes=np.asarray(mode_rows, dtype=np.int64),
        spec=spec,
        metadata=metadata,
    )
