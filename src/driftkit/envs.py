"""Desk-scale tasks: a deterministic planar point-mass reach environment with
receding-horizon stepping, N envs in lockstep or one as a view, plus synthetic
multimodal imitation datasets whose expert chunks come from scripted
goal-reaching controllers that swerve left or right on the way in.  One
row-vectorised planner, :func:`plan`, moves the point masses of those
closed-loop controllers; the env step runs its open-loop prefix as one
in-place scan.

Observation layout per micro-step is (position, goal, last action), d_o = 6.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .autodiff import clip
from .generator import (ChunkSpec, Generator, SpecError, read_json_object, read_keys,
                        read_spec, write_json)

OBS_DIM = 6
ACTION_DIM = 2

ARENA_HALF_WIDTH = 1.0
DT = 0.1
SUCCESS_THRESHOLD = 0.05
EPISODE_CAP = 120
MIN_START_DISTANCE = 0.4

SCRIPTED_GAIN = 3.0


def _observe(pos: np.ndarray, goal: np.ndarray, last_action: np.ndarray) -> np.ndarray:
    return np.concatenate([pos, goal, last_action], axis=-1)


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
            raise SpecError(f"unknown reward mode {reward_mode!r}")
        if spec.action_dim != ACTION_DIM:
            raise SpecError("point-mass actions are planar (action_dim must be 2)")
        self.spec = spec
        self.reward_mode = reward_mode
        self.reset([])

    def reset(self, seeds) -> np.ndarray:
        """Start env ``i`` from ``sample_start_goal(default_rng(seeds[i]))`` at
        rest; return the (N, T_o, d_o) observation histories."""
        n = len(seeds)
        newest = np.zeros((n, 1, OBS_DIM))
        for row, seed in zip(newest[:, 0], seeds):
            row[0:2], row[2:4] = sample_start_goal(np.random.default_rng(seed))
        self.history = np.repeat(newest, self.spec.history_len, axis=1)
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
        n, t_o = rows.size, self.spec.history_len
        prefixes = np.asarray(prefixes, dtype=np.float64).reshape(n, -1, ACTION_DIM)
        h_e = prefixes.shape[1]
        # the history followed by all H_e new observations; T_o of them are kept
        trail = np.empty((n, t_o + h_e, OBS_DIM))
        trail[:, :t_o] = self.history[rows]
        new = trail[:, t_o:]
        actions = np.maximum(prefixes, -1.0, out=new[..., 4:6])
        np.minimum(actions, 1.0, out=actions)
        goal = trail[:, t_o - 1, 2:4]
        new[..., 2:4] = goal[:, None]
        # the prefix is open loop, so the positions clip(pos + a * DT) are one
        # in-place scan over the (H_e, N, 2) steps a * DT, three ufuncs a micro-step
        pos = np.multiply(actions.transpose(1, 0, 2), DT, order="C")
        prev = trail[:, t_o - 1, 0:2]
        for step in pos:
            np.add(prev, step, out=step)
            np.maximum(step, -ARENA_HALF_WIDTH, out=step)
            prev = np.minimum(step, ARENA_HALF_WIDTH, out=step)
        new[..., 0:2] = pos.transpose(1, 0, 2)
        offset = np.subtract(pos, goal, out=pos)
        dist = np.sqrt(np.vecdot(offset, offset))
        success = dist <= SUCCESS_THRESHOLD
        t = self.t[rows]
        ends = success | (t + np.arange(1, h_e + 1)[:, None] >= EPISODE_CAP)
        done = ends.any(axis=0)
        # a row that does not end runs through its last micro-step
        ends[-1] = True
        last = ends.argmax(axis=0)
        steps = last + 1
        # a leading 0.0 and the rewards in micro-step order, summed as they come
        sums = np.zeros((h_e + 1, n))
        if self.reward_mode == "dense":
            np.negative(dist, out=sums[1:])
        else:
            sums[1:] = success
        np.add.accumulate(sums, axis=0, out=sums)
        every = np.arange(n)
        history = trail[every[:, None], steps[:, None] + np.arange(t_o)]
        self.history[rows] = history
        self.t[rows] = t + steps
        self.done[rows] = done
        self.succeeded[rows] = success[last, every]
        return history, sums[steps, every], done


class PointMassEnv:
    """One point mass: a view of a one-row :class:`VecPointMassEnv`.

    ``reset(seed)`` is bitwise reproducible.  The state is read off the row;
    before the first reset the episode counts as ended.
    """

    _ROW = np.zeros(1, dtype=np.intp)  # the index of the one row, made once

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
        obs, total, done = self.vec.step_prefix(prefix, self._ROW)
        return obs[0], float(total[0]), bool(done[0])

    def micro_step(self, action: np.ndarray) -> tuple[float, bool]:
        """One micro-step: the prefix of one action."""
        _, reward, done = self.step_prefix(action)
        return reward, done


def sample_start_goal(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform start and goal with a minimum separation so episodes are non-trivial.

    A try draws start then goal in one ``uniform(size=4)``, the values of two
    ``size=2`` draws; the distance is ``np.linalg.norm``'s 1-D expression.
    """
    while True:
        start_goal = rng.uniform(-0.9, 0.9, size=4)
        pos, goal = start_goal[:2], start_goal[2:]
        offset = pos - goal
        if np.sqrt(offset.dot(offset)) >= MIN_START_DISTANCE:
            return pos, goal


def plan(pos: np.ndarray, steps: int, controller) -> tuple[np.ndarray, np.ndarray]:
    """Move N point masses ``steps`` micro-steps: ``controller(pos, k)`` gives
    the (N, 2) actions of micro-step ``k``, then pos += a * DT inside the arena.
    Returns the (N, steps, 2) actions and the positions after each of them."""
    actions = np.empty((len(pos), steps, ACTION_DIM))
    positions = np.empty_like(actions)
    for k in range(steps):
        a = actions[:, k] = controller(pos, k)
        pos = positions[:, k] = clip(pos + a * DT, -ARENA_HALF_WIDTH, ARENA_HALF_WIDTH)
    return actions, positions


def scripted_action(pos: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Straight-to-goal proportional controller, the optimal baseline."""
    return clip(SCRIPTED_GAIN * (goal - pos), -1.0, 1.0)


def scripted_chunks(obs: np.ndarray, spec: ChunkSpec) -> np.ndarray:
    """Open-loop chunks of :func:`scripted_action` for (N, T_o, d_o) histories.

    Each row plans H actions from its newest position and goal; the wall clip
    never acts, as no step passes a goal inside the arena.  Returns (N, H * d_a).
    """
    goal = obs[:, -1, 2:4]
    actions, _ = plan(obs[:, -1, 0:2], spec.horizon, lambda pos, k: scripted_action(pos, goal))
    return actions.reshape(len(obs), -1)


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
# far past the gain at which every approach runs at the speed cap; a larger
# one overflows the approach speed
MODE_GAIN_MAX = 1e6


def mode_action(pos: np.ndarray, goal: np.ndarray, step: int, signs: np.ndarray,
                gain: float, swing_amp: float, swing_len: int) -> np.ndarray:
    """Goal-reaching actions of N rows, each with an early lateral swerve of its sign.

    The approach term is norm-capped below the action bounds so the swerve is
    never clipped away; the two swerve signs therefore produce distinct chunks
    from any start state.  A row on its goal gets a zero action.
    """
    to_goal = goal - pos
    dist = np.sqrt(np.vecdot(to_goal, to_goal))[:, None]
    at_rest = dist < 1e-12
    direction = to_goal / np.where(at_rest, 1.0, dist)
    base = gain * to_goal
    # cap / max(speed, cap) is cap / speed above the cap and exactly 1 below it
    speed = np.sqrt(np.vecdot(base, base))[:, None]
    base = base * (MODE_SPEED_CAP / np.maximum(speed, MODE_SPEED_CAP))
    perp = np.stack([-direction[:, 1], direction[:, 0]], axis=1)
    swing = swing_amp * np.sin(np.pi * (step + 1) / (swing_len + 1)) if step < swing_len else 0.0
    action = clip(base + (signs * swing)[:, None] * perp, -1.0, 1.0)
    return np.where(at_rest, np.zeros(ACTION_DIM), action)


def _plan_modes(pos, goal, signs, steps, gain, swing_amp, swing_len):
    """:func:`plan` under :func:`mode_action` with per-row goals and signs."""
    return plan(pos, steps,
                lambda p, k: mode_action(p, goal, k, signs, gain, swing_amp, swing_len))


def synth_multimodal(modes: int = 2, conditions: int = 200, samples_per_condition: int = 2,
                     noise: float = 0.01, seed: int = 0,
                     spec: ChunkSpec | None = None, gain: float = SCRIPTED_GAIN,
                     swing_amp: float = 0.5, swing_len: int = 8,
                     warmup_max: int = 8) -> ImitationDataset:
    """Synthesize goal-reaching demonstrations with K swerve modes.

    Each condition is a point-mass state reached by warming up the controller
    for a random number of micro-steps, so histories carry realistic past
    actions.  Every sample for a condition draws one of the K modes uniformly
    and adds Gaussian jitter to the noiseless mode chunk.  All random draws
    come first; then one plan makes every warm-up (steps past a condition's
    warm count are never read) and another every chunk.
    """
    if min(modes, conditions, samples_per_condition) < 1:
        raise SpecError("modes, conditions and samples_per_condition must be >= 1")
    if seed < 0 or warmup_max < 0:
        raise SpecError("seed and warmup_max must be >= 0")
    if noise < 0 or swing_len < 0:
        raise SpecError("noise and swing_len must be >= 0")
    if not 0.0 < gain <= MODE_GAIN_MAX:
        raise SpecError(f"gain must lie in (0, {MODE_GAIN_MAX:g}]")
    spec = spec or ChunkSpec()
    if spec.action_dim != ACTION_DIM:
        raise SpecError("point-mass actions are planar (action_dim must be 2)")
    signs = mode_signs(modes)
    rng = np.random.default_rng(seed)
    starts, warms, warm_modes, sample_modes, jitter = [], [], [], [], []
    for _ in range(conditions):
        starts.append(sample_start_goal(rng))
        warms.append(int(rng.integers(0, warmup_max + 1)))
        warm_modes.append(int(rng.integers(0, modes)))
        for _ in range(samples_per_condition):
            sample_modes.append(int(rng.integers(0, modes)))
            if noise > 0:
                jitter.append(rng.normal(scale=noise, size=(spec.horizon, ACTION_DIM)))
    pos, goal = (np.array(v) for v in zip(*starts))
    t_o = spec.history_len
    warm_actions, warm_pos = _plan_modes(pos, goal, signs[warm_modes], warmup_max,
                                         gain, swing_amp, swing_len)
    # T_o observations at rest, then every warm-up one; keep T_o from the warm count on
    rest = np.repeat(_observe(pos, goal, np.zeros_like(pos))[:, None], t_o, axis=1)
    warm_obs = _observe(warm_pos, np.repeat(goal[:, None], warmup_max, axis=1), warm_actions)
    trail = np.concatenate([rest, warm_obs], axis=1)
    history = trail[np.arange(conditions)[:, None], np.array(warms)[:, None] + np.arange(t_o)]
    obs = np.repeat(history, samples_per_condition, axis=0)
    chunks, _ = _plan_modes(obs[:, -1, 0:2], obs[:, -1, 2:4], signs[sample_modes],
                            spec.horizon, gain, swing_amp, swing_len)
    if noise > 0:
        chunks = chunks + np.array(jitter)
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
        observations=obs,
        chunks=clip(chunks, -1.0, 1.0),
        modes=np.asarray(sample_modes, dtype=np.int64),
        spec=spec,
        metadata=metadata,
    )


def mode_centers(obs: np.ndarray, metadata: dict) -> np.ndarray:
    """The K noiseless mode chunks of N conditions, flattened to (N, K, D).

    Each condition state (position, goal) is read off the newest row of its
    (T_o, d_o) history; centers are recomputed from the stored synthesis
    parameters in one plan over N x K rows.
    """
    signs = np.asarray(metadata["mode_signs"], dtype=np.float64)
    newest = np.repeat(np.asarray(obs)[:, -1], len(signs), axis=0)
    centers, _ = _plan_modes(newest[:, 0:2], newest[:, 2:4], np.tile(signs, len(obs)),
                             metadata["chunk_spec"]["horizon"],
                             metadata["gain"], metadata["swing_amp"], metadata["swing_len"])
    return centers.reshape(len(obs), len(signs), -1)


def mode_coverage(generator: Generator, dataset: ImitationDataset, samples: int,
                  rng: np.random.Generator, max_conditions: int | None = None) -> float:
    """Fraction of distinct expert modes reached by the generator's chunks.

    The conditions are the dataset's distinct histories (by their bytes), in
    first-seen order, the first ``max_conditions`` of them if given.  One
    (conditions x samples, latent_dim) latent draw feeds one
    ``generator.evaluate``; each chunk goes to its nearest mode center, and the
    per-condition fractions of the K modes hit are averaged.  ``samples`` and
    ``max_conditions`` must be >= 1: ``cli.cmd_eval`` checks the two keys that
    set them, by name, before it loads the dataset.
    """
    first = {}
    for i, hist in enumerate(dataset.observations):
        first.setdefault(hist.tobytes(), i)
    conditions = dataset.observations[list(first.values())[:max_conditions]]
    n = len(conditions)
    z = rng.standard_normal((n * samples, generator.latent_dim))
    chunks, _ = generator.evaluate(np.repeat(conditions.reshape(n, -1), samples, axis=0), z)
    centers = mode_centers(conditions, dataset.metadata)
    diffs = chunks.reshape(n, samples, 1, -1) - centers[:, None]
    nearest = np.argmin(np.sqrt(np.square(diffs).sum(axis=-1)), axis=2)
    hit = (nearest[:, :, None] == np.arange(centers.shape[1])).any(axis=1)
    return float(np.mean(hit.sum(axis=1) / centers.shape[1]))


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
    write_json(meta_path, dataset.metadata)


def load_dataset(csv_path, meta_path) -> ImitationDataset:
    """Read :func:`save_dataset`'s files; :class:`SpecError` names a malformed
    file and its key or line.  The metadata fields that training and
    :func:`mode_coverage` read are checked here, and every cell must be finite."""
    where = f"dataset metadata {meta_path}: "
    metadata = read_json_object(meta_path, "dataset metadata")
    spec = read_spec(metadata, where)
    checked = read_keys(metadata, {"obs_dim": int, "modes": int, "mode_signs": tuple[float, ...],
                                   "gain": float, "swing_amp": float, "swing_len": int}, where)
    for key, low in (("modes", 1), ("swing_len", 0)):
        if checked[key] < low:
            raise SpecError(f"{where}key {key!r} is {checked[key]}, below {low}")
    if checked["modes"] != len(checked["mode_signs"]):
        raise SpecError(f"{where}key 'modes' is {checked['modes']}, "
                        f"but 'mode_signs' holds {len(checked['mode_signs'])} values")
    if not 0.0 < checked["gain"] <= MODE_GAIN_MAX:
        raise SpecError(f"{where}key 'gain' is {checked['gain']!r}, "
                        f"outside (0, {MODE_GAIN_MAX:g}]")
    obs_shape = (spec.history_len, metadata["obs_dim"])
    width = obs_shape[0] * obs_shape[1]
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh)) or [[]]  # line 1 is the header
    if len(rows) < 2:
        raise SpecError(f"dataset {csv_path} has no records")
    values = np.empty((len(rows) - 1, width + spec.chunk_dim))
    modes = np.empty(len(rows) - 1, dtype=np.int64)
    for line, row in enumerate(rows, start=1):
        if len(row) != values.shape[1] + 1:
            raise SpecError(f"dataset row {line} has {len(row)} values, "
                            f"expected {values.shape[1] + 1}")
        try:
            if line > 1:
                values[line - 2], modes[line - 2] = [float(v) for v in row[:-1]], int(row[-1])
        except ValueError as exc:
            raise SpecError(f"dataset {csv_path} line {line}: {exc}") from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        record, column = bad[0]
        raise SpecError(f"dataset {csv_path} line {record + 2}: "
                        f"{rows[0][column]} is {rows[record + 1][column]}, not finite")
    return ImitationDataset(
        observations=values[:, :width].reshape(-1, *obs_shape),
        chunks=values[:, width:].reshape(-1, spec.horizon, spec.action_dim),
        modes=modes, spec=spec, metadata=metadata)
