"""Rollout collection against the per-decision loop it replaced.

``ppo.collect_rollouts`` steps only the trajectory at each decision and
computes the log-probabilities and the critic values of every row in one pass
after the loop.  ``tests/oracles.py::collect_rollouts_loop`` makes both
queries at batch 1 at every decision.  The property pins the two together
byte for byte: every buffer field, the bootstrap value, the episode returns,
the caller's generator state and the network-evaluation count, for rollouts
that end on a finished episode and rollouts that do not.  Then: a critic that
overflows stops a collection after its trajectory, without a warning.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.autodiff import AutodiffError
from driftkit.envs import PointMassEnv
from driftkit.generator import ChunkSpec
from driftkit.ppo import Critic, collect_rollouts

from .oracles import STEERING_SPEC, collect_rollouts_loop, steering_actor

SPECS = (STEERING_SPEC, ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2))
FIELDS = ("obs", "latents", "exec_actions", "old_log_probs", "rewards", "values", "dones")
MAX_LENGTH = 40


def run(collect, spec, reward_mode, length, seed, critic):
    """One collection with a fresh actor, env and rng: the buffer, the rng's
    state after it and the growth of the network-evaluation count."""
    actor = steering_actor(spec=spec)
    rng = np.random.default_rng(seed)
    before = actor.generator.nfe_count
    buf = collect(PointMassEnv(spec, reward_mode=reward_mode), actor, critic, length, rng)
    return buf, rng.bit_generator.state, actor.generator.nfe_count - before


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       length=st.integers(min_value=0, max_value=MAX_LENGTH),
       end_on_done=st.booleans(),
       reward_mode=st.sampled_from(["dense", "sparse"]),
       spec_index=st.sampled_from(range(len(SPECS))),
       critic_seed=st.integers(min_value=0, max_value=3))
def test_collection_equals_the_per_decision_loop(seed, length, end_on_done, reward_mode,
                                                 spec_index, critic_seed):
    spec = SPECS[spec_index]
    critic = Critic(spec.history_len * 6, hidden_dim=8, seed=critic_seed)
    ends = np.array([], dtype=np.int64)
    if end_on_done:
        # cut the rollout at a decision that ends an episode, when one comes
        probe, _, _ = run(collect_rollouts_loop, spec, reward_mode, MAX_LENGTH, seed, critic)
        ends = np.flatnonzero(probe.dones)
        if ends.size:
            length = int(ends[length % ends.size]) + 1
    buf, state, nfe = run(collect_rollouts, spec, reward_mode, length, seed, critic)
    ref, ref_state, ref_nfe = run(collect_rollouts_loop, spec, reward_mode, length, seed,
                                  critic)
    assert len(buf) == length
    for name in FIELDS:
        got, want = getattr(buf, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert np.float64(buf.bootstrap_value).tobytes() == np.float64(ref.bootstrap_value).tobytes()
    assert np.array(buf.episode_returns).tobytes() == np.array(ref.episode_returns).tobytes()
    assert state == ref_state
    assert nfe == ref_nfe == length
    if ends.size:
        assert buf.dones[-1] and buf.bootstrap_value == 0.0


def test_critic_overflow_raises_after_the_trajectory_without_a_warning():
    critic = Critic(STEERING_SPEC.history_len * 6, hidden_dim=8, seed=0)
    critic.params.data.vector[:] = 1e308
    actor = steering_actor()
    env = PointMassEnv(STEERING_SPEC, reward_mode="sparse")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AutodiffError, match="non-finite"):
            collect_rollouts(env, actor, critic, 8, np.random.default_rng(0))
    # the actor ran once per decision before the critic's one pass
    assert actor.generator.nfe_count == 8
