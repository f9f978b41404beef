"""Point-mass environment determinism and rewards, dataset synthesis and
round-tripping, scripted-controller success, and mode coverage scoring."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit import envs
from driftkit.envs import (DT, OBS_DIM, ImitationDataset, PointMassEnv,
                           VecPointMassEnv, load_dataset, mode_action, mode_centers,
                           mode_coverage, save_dataset, scripted_action, scripted_chunks,
                           synth_multimodal)
from driftkit.generator import ChunkSpec, Generator, SpecError, executed_prefix

from . import oracles
from .oracles import (ScalarPointMassEnv, mode_action_scalar, mode_centers_loop,
                      mode_coverage_loop, profiled_calls, scripted_chunk_loop,
                      synth_multimodal_loop)

SPEC = ChunkSpec(horizon=16, action_dim=2, history_len=2, exec_len=8)


def test_reset_is_reproducible():
    env_a = PointMassEnv(SPEC)
    env_b = PointMassEnv(SPEC)
    np.testing.assert_array_equal(env_a.reset(123), env_b.reset(123))
    assert np.array_equal(env_a.pos, env_b.pos)
    assert np.array_equal(env_a.goal, env_b.goal)


def test_zero_actions_keep_position_and_pay_negative_distance():
    env = PointMassEnv(SPEC, reward_mode="dense")
    env.reset(7)
    pos = env.pos.copy()
    dist = np.linalg.norm(pos - env.goal)
    _, reward, _ = env.step_prefix(np.zeros((SPEC.exec_len, 2)))
    np.testing.assert_array_equal(env.pos, pos)
    assert reward == pytest.approx(-SPEC.exec_len * dist, rel=1e-12)


def test_direct_action_strictly_decreases_distance():
    env = PointMassEnv(SPEC, reward_mode="dense")
    env.reset(3)
    prev = np.linalg.norm(env.pos - env.goal)
    done = False
    while not done:
        a = scripted_action(env.pos, env.goal)
        _, done = env.micro_step(a)
        dist = np.linalg.norm(env.pos - env.goal)
        assert dist < prev
        prev = dist
    assert env.succeeded


def test_scripted_controller_succeeds_on_100_seeds():
    for seed in range(100):
        env = PointMassEnv(SPEC, reward_mode="sparse")
        env.reset(seed)
        done = False
        while not done:
            actions = []
            pos = env.pos.copy()
            for _ in range(SPEC.horizon):
                a = scripted_action(pos, env.goal)
                actions.append(a)
                pos = pos + a * DT
            chunk = np.asarray(actions).reshape(-1)
            _, _, done = env.step_prefix(executed_prefix(chunk, SPEC))
        assert env.succeeded, seed


def test_trajectories_are_bitwise_deterministic():
    def run():
        env = PointMassEnv(SPEC, reward_mode="dense")
        env.reset(55)
        rng = np.random.default_rng(1)
        track = []
        done = False
        while not done:
            prefix = rng.uniform(-1, 1, size=(SPEC.exec_len, 2))
            obs, reward, done = env.step_prefix(prefix)
            track.append((obs.copy(), reward))
        return track

    for (obs_a, r_a), (obs_b, r_b) in zip(run(), run()):
        assert np.array_equal(obs_a, obs_b)
        assert r_a == r_b


def test_dense_reward_bounded_by_arena_diagonal():
    env = PointMassEnv(SPEC, reward_mode="dense")
    env.reset(9)
    rng = np.random.default_rng(2)
    diag = np.sqrt(8.0)
    done = False
    while not done:
        reward, done = env.micro_step(rng.uniform(-1, 1, 2))
        assert -diag <= reward <= 0.0


def test_step_after_done_raises(monkeypatch):
    # a programming error, not a settings error: the CLI must not report it
    # as ``config error:``
    env = PointMassEnv(SPEC)
    env.reset(0)
    monkeypatch.setattr(envs, "EPISODE_CAP", 1)
    env.micro_step(np.zeros(2))
    with pytest.raises(RuntimeError, match="step after episode end") as info:
        env.micro_step(np.zeros(2))
    assert not isinstance(info.value, SpecError)


def test_out_of_bounds_actions_are_clipped():
    env = PointMassEnv(SPEC)
    env.reset(4)
    pos = env.pos.copy()
    env.micro_step(np.array([10.0, -10.0]))
    np.testing.assert_allclose(env.pos, np.clip(pos + np.array([0.1, -0.1]), -1, 1))
    np.testing.assert_array_equal(env.last_action, [1.0, -1.0])


# -- start states ---------------------------------------------------------------

# seeds whose first try (155: first two tries) puts the goal too close to the start
REJECTING_SEEDS = (6, 8, 10, 155)


def start_goal_tries(seed: int) -> int:
    """How many 4-value tries the reference sampler makes from ``default_rng(seed)``,
    read off the state it leaves."""
    rng = np.random.default_rng(seed)
    oracles.sample_start_goal(rng)
    probe = np.random.default_rng(seed)
    for tries in range(1, 10):
        probe.uniform(size=4)
        if probe.bit_generator.state == rng.bit_generator.state:
            return tries
    raise AssertionError(f"seed {seed}: no state match within 9 tries")


def test_rejecting_seeds_are_rejected_on_their_first_tries():
    # the properties below are only as strong as the rejections they see
    assert [start_goal_tries(seed) for seed in REJECTING_SEEDS] == [2, 2, 2, 3]


SEEDS = st.one_of(st.sampled_from(REJECTING_SEEDS),
                  st.integers(min_value=0, max_value=2**63 - 1))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_start_goal_equals_the_two_draw_sampler(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    pos, goal = envs.sample_start_goal(rng)
    ref_pos, ref_goal = oracles.sample_start_goal(ref)
    assert pos.tobytes() == ref_pos.tobytes() and goal.tobytes() == ref_goal.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


# -- the vectorised env ---------------------------------------------------------

# 120 = 15 * 8, so with SPEC the cap lands on a prefix's last micro-step; with
# H_e = 7 (120 = 17 * 7 + 1) it lands on a prefix's first micro-step, and the
# last six of that prefix are thrown away.  With H_e = 2 < T_o = 4 the new
# history keeps old rows after the new ones; with H_e = 1 every prefix is one
# micro-step
PROPERTY_SPECS = (SPEC,
                  ChunkSpec(horizon=8, action_dim=2, history_len=1, exec_len=7),
                  ChunkSpec(horizon=9, action_dim=2, history_len=3, exec_len=7),
                  ChunkSpec(horizon=5, action_dim=2, history_len=4, exec_len=2),
                  ChunkSpec(horizon=4, action_dim=2, history_len=2, exec_len=1))
ENDINGS = ("mid_prefix_success", "cap_mid_prefix", "wall", "clipped_action")


def scripted_prefix(pos, goal, spec):
    """An executed prefix of the scripted controller, planned open loop."""
    actions = []
    for _ in range(spec.exec_len):
        a = scripted_action(pos, goal)
        actions.append(a)
        pos = pos + a * DT
    return np.asarray(actions)


def step_rows_against_single_envs(spec, seeds, reward_mode, action_seed) -> dict:
    """Step a VecPointMassEnv, one PointMassEnv view and one reference
    ScalarPointMassEnv per seed with the same prefixes until every episode
    ends, asserting bitwise equality after each control step.  Row ``i``
    steers to its goal (``i % 3 == 0``), takes random out-of-bounds actions
    (1) or pushes into a corner (2).  Returns counts of the cases the run went
    through."""
    vec = VecPointMassEnv(spec, reward_mode)
    views = [PointMassEnv(spec, reward_mode) for _ in seeds]
    singles = [ScalarPointMassEnv(spec, reward_mode) for _ in seeds]
    starts = np.stack([env.reset(seed) for env, seed in zip(singles, seeds)])
    np.testing.assert_array_equal(vec.reset(seeds), starts)
    np.testing.assert_array_equal([v.reset(seed) for v, seed in zip(views, seeds)], starts)
    rng = np.random.default_rng(action_seed)
    seen = dict.fromkeys(ENDINGS, 0)
    rows = np.arange(len(seeds))
    while rows.size:
        prefixes = []
        for i in rows:
            kind = i % 3
            if kind == 0:
                prefixes.append(scripted_prefix(singles[i].pos, singles[i].goal, spec))
            elif kind == 1:
                prefixes.append(rng.uniform(-3.0, 3.0, size=(spec.exec_len, 2)))
            else:
                prefixes.append(np.tile([3.0, -3.0], (spec.exec_len, 1)))
        obs, totals, done = vec.step_prefix(np.asarray(prefixes), rows)
        for j, i in enumerate(rows):
            env, view = singles[i], views[i]
            obs_i, total_i, done_i = env.step_prefix(prefixes[j])
            assert np.array_equal(obs[j], obs_i)
            assert totals[j] == total_i and done[j] == done_i
            assert np.array_equal(vec.history[i], env.obs_history())
            assert (vec.t[i], vec.done[i], vec.succeeded[i]) == (env.t, env.done,
                                                                 env.succeeded)
            obs_v, total_v, done_v = view.step_prefix(prefixes[j])
            assert np.array_equal(obs_v, obs_i)
            assert (total_v, done_v) == (total_i, done_i)
            assert type(total_v) is float and type(done_v) is bool
            for name in ("pos", "goal", "last_action"):
                assert np.array_equal(getattr(view, name), getattr(env, name)), name
            assert (view.t, view.done, view.succeeded) == (env.t, env.done, env.succeeded)
            ended_mid_prefix = bool(env.done and env.t % spec.exec_len)
            seen["mid_prefix_success"] += ended_mid_prefix and env.succeeded
            seen["cap_mid_prefix"] += ended_mid_prefix and not env.succeeded
            seen["wall"] += bool(np.any(np.abs(env.pos) == 1.0))
            seen["clipped_action"] += bool(np.any(np.abs(prefixes[j]) > 1.0))
        rows = rows[~done]
    for i in range(len(seeds)):
        with pytest.raises(RuntimeError, match="step after episode end"):
            vec.step_prefix(np.zeros((1, spec.exec_len, 2)), [i])
        with pytest.raises(RuntimeError, match="step after episode end"):
            views[i].micro_step(np.zeros(2))
    return seen


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS),
       seeds=st.lists(SEEDS, min_size=1, max_size=7),
       reward_mode=st.sampled_from(["dense", "sparse"]),
       action_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_vector_env_rows_step_as_single_envs(spec, seeds, reward_mode, action_seed):
    step_rows_against_single_envs(spec, seeds, reward_mode, action_seed)


def test_vector_env_comparison_covers_every_ending():
    # the property above is only as strong as the cases its runs go through
    seen = dict.fromkeys(ENDINGS, 0)
    for spec in PROPERTY_SPECS:
        for case, count in step_rows_against_single_envs(spec, list(range(12)), "dense",
                                                         0).items():
            seen[case] += count
    assert all(seen.values()), seen


def test_a_dense_step_on_the_goal_totals_plus_zero_as_the_scalar_loop_does():
    # on the goal every reward is -0.0, and the loop's 0.0 + -0.0 is +0.0 (why
    # the sum starts from 0.0: DECISIONS.md, "Evaluation runs episodes in
    # lockstep"); the second row is off its goal
    vec, view, single = VecPointMassEnv(SPEC), PointMassEnv(SPEC), ScalarPointMassEnv(SPEC)
    vec.reset([5, 6])
    view.reset(5)
    single.reset(5)
    for newest in (vec.history[0, -1], view.vec.history[0, -1], single._history[-1]):
        newest[0:2] = newest[2:4]
    single.pos = single.goal.copy()
    prefix = np.zeros((SPEC.exec_len, 2))
    obs, totals, done = vec.step_prefix(np.stack([prefix, prefix]), [0, 1])
    obs_v, total_v, done_v = view.step_prefix(prefix)
    obs_s, total_s, done_s = single.step_prefix(prefix)
    assert total_s == 0.0 and not np.signbit(total_s) and done_s
    assert np.array([totals[0], total_v]).tobytes() == np.array([total_s, total_s]).tobytes()
    assert obs[0].tobytes() == obs_v.tobytes() == obs_s.tobytes()
    assert done[0] and done_v and not done[1] and totals[1] < 0.0


@pytest.mark.parametrize("reward_mode", ["dense", "sparse"])
def test_a_step_makes_the_same_python_calls_at_any_row_count(reward_mode):
    # the kernel makes no Python call per row (ROADMAP item 12's counter)
    def calls(n: int) -> list[int]:
        env = VecPointMassEnv(SPEC, reward_mode)
        env.reset(list(range(n)))
        # three prefixes move a point mass at most 24 * 0.001 * sqrt(2) < 0.4 -
        # SUCCESS_THRESHOLD, so no episode ends
        prefixes = np.random.default_rng(n).uniform(-0.01, 0.01, size=(n, SPEC.exec_len, 2))
        env.step_prefix(prefixes, np.arange(n))
        return [profiled_calls(lambda: env.step_prefix(prefixes, np.arange(n))).total_calls
                for _ in range(2)]

    one, many = calls(1), calls(64)
    assert one[0] == one[1] == many[0] == many[1], (one, many)


def test_env_before_its_first_reset_counts_as_ended():
    env = PointMassEnv(SPEC)
    assert env.done is True and env.succeeded is False
    with pytest.raises(RuntimeError, match="step after episode end"):
        env.step_prefix(np.zeros((SPEC.exec_len, 2)))
    with pytest.raises(RuntimeError, match="step after episode end"):
        env.micro_step(np.zeros(2))


def test_vector_env_rejects_the_settings_the_single_env_rejects():
    with pytest.raises(SpecError):
        VecPointMassEnv(SPEC, reward_mode="bogus")
    with pytest.raises(SpecError):
        VecPointMassEnv(ChunkSpec(horizon=4, action_dim=3, history_len=1, exec_len=2))


# -- synthesis ----------------------------------------------------------------


def test_single_mode_zero_noise_chunks_identical_per_condition():
    ds = synth_multimodal(modes=1, conditions=5, samples_per_condition=4,
                          noise=0.0, seed=0, spec=SPEC)
    for i in range(5):
        block = ds.chunks[i * 4:(i + 1) * 4]
        for row in block[1:]:
            np.testing.assert_array_equal(row, block[0])


def test_two_symmetric_modes_average_to_midpoint():
    ds = synth_multimodal(modes=2, conditions=6, samples_per_condition=400,
                          noise=0.0, seed=1, spec=SPEC)
    for i, centers in enumerate(mode_centers(ds.observations[::400], ds.metadata)):
        block = ds.chunks[i * 400:(i + 1) * 400].reshape(400, -1)
        midpoint = centers.mean(axis=0)
        spread = np.linalg.norm(centers[0] - centers[1])
        se = spread / 2 / np.sqrt(400)
        assert np.linalg.norm(block.mean(axis=0) - midpoint) <= 3.0 * se * np.sqrt(2)


def test_synthesis_is_bitwise_deterministic():
    a = synth_multimodal(modes=2, conditions=8, samples_per_condition=2, seed=5)
    b = synth_multimodal(modes=2, conditions=8, samples_per_condition=2, seed=5)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.chunks, b.chunks)
    assert np.array_equal(a.modes, b.modes)


@pytest.mark.parametrize("setting", [{"seed": -1}, {"warmup_max": -1}])
def test_synthesis_rejects_a_negative_seed_or_warm_up_bound(setting):
    with pytest.raises(SpecError, match=r"seed and warmup_max must be >= 0"):
        synth_multimodal(conditions=3, **setting)


def test_zero_warm_up_starts_every_condition_at_rest():
    # warmup_max = 0 is allowed: every history is T_o copies of the start
    # state, with no past action
    ds = synth_multimodal(conditions=6, warmup_max=0, seed=1)
    obs = ds.observations
    assert np.array_equal(obs, np.repeat(obs[:, :1], obs.shape[1], axis=1))
    assert not obs[..., 4:].any()


def test_chunks_respect_action_bounds():
    ds = synth_multimodal(modes=3, conditions=20, samples_per_condition=2,
                          noise=0.3, seed=2)
    assert np.all(ds.chunks >= -1.0) and np.all(ds.chunks <= 1.0)


def test_dataset_roundtrip_is_exact(tmp_path):
    ds = synth_multimodal(modes=2, conditions=7, samples_per_condition=3, seed=9)
    csv_path = tmp_path / "dataset.csv"
    meta_path = tmp_path / "dataset_meta.json"
    save_dataset(ds, csv_path, meta_path)
    loaded = load_dataset(csv_path, meta_path)
    assert np.array_equal(loaded.observations, ds.observations)
    assert np.array_equal(loaded.chunks, ds.chunks)
    assert np.array_equal(loaded.modes, ds.modes)
    assert loaded.metadata == ds.metadata
    assert loaded.spec == ds.spec


def test_dataset_row_narrower_than_header_rejected(tmp_path):
    ds = synth_multimodal(modes=2, conditions=3, samples_per_condition=1, seed=9)
    csv_path = tmp_path / "dataset.csv"
    meta_path = tmp_path / "dataset_meta.json"
    save_dataset(ds, csv_path, meta_path)
    lines = csv_path.read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join(cells[:-3] + cells[-1:])  # the second record loses two actions
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpecError, match="dataset row 3 has"):
        load_dataset(csv_path, meta_path)


def test_mode_centers_are_separated_at_episode_start():
    ds = synth_multimodal(modes=2, conditions=10, samples_per_condition=1,
                          seed=3, warmup_max=0)
    for centers in mode_centers(ds.observations, ds.metadata):
        assert np.linalg.norm(centers[0] - centers[1]) > 0.5


# -- one planner for every expert trajectory -----------------------------------

SYNTH_SPECS = [SPEC, ChunkSpec(horizon=5, action_dim=2, history_len=4, exec_len=2)]


def assert_same_bytes(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(modes=st.integers(1, 4), noise=st.sampled_from([0.0, 0.01]),
       warmup_max=st.sampled_from([0, 3, 8]), swing_len=st.sampled_from([0, 4, 20]),
       gain=st.sampled_from([1.0, 3.0, 10.0]), spec=st.sampled_from(SYNTH_SPECS),
       conditions=st.integers(1, 6), samples=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_synthesis_and_mode_centers_equal_the_scalar_loop_bitwise(
        modes, noise, warmup_max, swing_len, gain, spec, conditions, samples, seed):
    settings_ = dict(modes=modes, conditions=conditions, samples_per_condition=samples,
                     noise=noise, seed=seed, spec=spec, gain=gain, swing_len=swing_len,
                     warmup_max=warmup_max)
    got, want = synth_multimodal(**settings_), synth_multimodal_loop(**settings_)
    for name in ("observations", "chunks", "modes"):
        assert_same_bytes(getattr(got, name), getattr(want, name))
    assert json.dumps(got.metadata, sort_keys=True) == json.dumps(want.metadata, sort_keys=True)
    assert_same_bytes(mode_centers(got.observations, got.metadata),
                      np.stack([mode_centers_loop(h, want.metadata) for h in got.observations]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 64),
       wall_frac=st.sampled_from([0.0, 0.25, 1.0]), spec=st.sampled_from(SYNTH_SPECS))
def test_scripted_chunks_equal_the_open_loop_unclipped_planner(seed, rows, wall_frac, spec):
    rng = np.random.default_rng(seed)
    newest = rng.uniform(-1.0, 1.0, size=(rows, 4))
    walls = rng.random(newest.shape) < wall_frac
    newest[walls] = rng.choice([-1.0, 1.0], size=int(walls.sum()))
    obs = rng.uniform(-1.0, 1.0, size=(rows, spec.history_len, OBS_DIM))
    obs[:, -1, 0:4] = newest
    want = np.stack([scripted_chunk_loop(row[0:2], row[2:4], spec.horizon).reshape(-1)
                     for row in newest])
    assert_same_bytes(scripted_chunks(obs, spec), want)


@pytest.mark.parametrize("gain", [3.0, 0.0])
def test_a_row_on_its_goal_gets_a_zero_action_without_warnings(gain):
    pos = np.array([[0.3, -0.2], [0.3, -0.2], [-1.0, 1.0]])
    goal = np.array([[0.3, -0.2], [0.7, 0.1], [-1.0, 1.0]])
    signs = np.array([1.0, -1.0, 0.5])
    obs_hist = np.concatenate([pos[2], goal[2], np.zeros(2)])[None]
    metadata = {"chunk_spec": SPEC.to_dict(), "mode_signs": [-1.0, 0.0, 1.0], "gain": gain,
                "swing_amp": 0.5, "swing_len": 8}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        actions = mode_action(pos, goal, 0, signs, gain, 0.5, 8)
        centers = mode_centers(obs_hist[None], metadata)[0]
    for a in (actions[0], actions[2], *centers.reshape(-1, 2)):
        assert a.tolist() == [0.0, 0.0] and not np.signbit(a).any()
    for i in range(3):
        assert_same_bytes(actions[i], mode_action_scalar(pos[i], goal[i], 0, signs[i], gain,
                                                         0.5, 8))
    assert_same_bytes(centers, mode_centers_loop(obs_hist, metadata))


# -- coverage -----------------------------------------------------------------


class FakeGenerator:
    """``Generator``'s coverage interface: ``evaluate(obs_flat, z)`` returns
    ``chunk_fn(obs_flat, z)``; ``calls`` counts the calls."""

    def __init__(self, latent_dim, chunk_fn):
        self.latent_dim = latent_dim
        self.chunk_fn = chunk_fn
        self.calls = 0

    def evaluate(self, obs_flat, z):
        self.calls += 1
        return self.chunk_fn(obs_flat, z), None


def test_coverage_single_mode_is_always_one():
    ds = synth_multimodal(modes=1, conditions=6, samples_per_condition=1, seed=0)
    noisy = FakeGenerator(ds.spec.chunk_dim, lambda obs, z: z)
    assert mode_coverage(noisy, ds, 16, np.random.default_rng(0)) == 1.0


def test_coverage_constant_policy_covers_half_of_two_modes():
    ds = synth_multimodal(modes=2, conditions=6, samples_per_condition=1, seed=0)
    offset = np.full(ds.spec.chunk_dim, 0.123)

    def near_first_mode(obs, z):
        return mode_centers(obs.reshape(len(obs), *ds.observations.shape[1:]),
                            ds.metadata)[:, 0] + offset

    assert mode_coverage(FakeGenerator(3, near_first_mode), ds, 16,
                         np.random.default_rng(0)) == 0.5


def test_coverage_requires_mode_metadata():
    ds = synth_multimodal(modes=2, conditions=2, samples_per_condition=1, seed=0)
    del ds.metadata["mode_signs"]
    with pytest.raises(Exception):
        mode_coverage(FakeGenerator(3, lambda obs, z: np.zeros((len(z), ds.spec.chunk_dim))),
                      ds, 4, np.random.default_rng(0))


def test_coverage_is_one_evaluate_and_one_plan_whatever_the_condition_count(monkeypatch):
    ds = synth_multimodal(modes=3, conditions=9, samples_per_condition=2, seed=4, spec=SPEC)
    plan, plans = envs.plan, []
    monkeypatch.setattr(envs, "plan", lambda *args: plans.append(args[1]) or plan(*args))
    noisy = FakeGenerator(SPEC.chunk_dim, lambda obs, z: z)
    mode_coverage(noisy, ds, 5, np.random.default_rng(0))
    assert noisy.calls == 1 and plans == [SPEC.horizon]


@settings(max_examples=60, deadline=None)
@given(modes=st.integers(1, 4), conditions=st.integers(1, 5), copies=st.integers(1, 3),
       twins=st.integers(0, 3), samples=st.sampled_from([1, 2, 7, 64]),
       max_conditions=st.one_of(st.none(), st.integers(1, 12)),
       warmup_max=st.sampled_from([0, 3]), spec=st.sampled_from(SYNTH_SPECS),
       seed=st.integers(0, 2**32 - 1))
def test_mode_coverage_and_centers_equal_the_per_condition_loops_bitwise(
        modes, conditions, copies, twins, samples, max_conditions, warmup_max, spec, seed):
    # every condition ``copies`` times, shuffled, then ``twins`` copies whose
    # zero cells are -0.0: the same state, a distinct condition by its bytes
    ds = synth_multimodal(modes=modes, conditions=conditions, samples_per_condition=copies,
                          seed=seed, spec=spec, warmup_max=warmup_max)
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(len(ds)), rng.integers(0, len(ds), twins)])
    obs = ds.observations[order]
    twin_rows = obs[len(ds):]
    twin_rows[twin_rows == 0.0] = -0.0
    data = ImitationDataset(obs, ds.chunks[order], ds.modes[order], ds.spec, ds.metadata)
    assert_same_bytes(mode_centers(obs, ds.metadata),
                      np.stack([mode_centers_loop(h, ds.metadata) for h in obs]))
    gen = Generator(spec, obs_dim=OBS_DIM, latent_dim=3, hidden_dim=8, seed=seed % 97)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = mode_coverage(gen, data, samples, got_rng, max_conditions)
    want = mode_coverage_loop(gen, data, samples, want_rng, max_conditions)
    assert got.hex() == want.hex()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
