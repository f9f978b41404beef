"""The explicit PPO minibatch against the tape minibatch it replaced.

``ppo.ppo_minibatch`` records no tape: the actor and the critic run once on
arrays, the anchor's means are rows of one evaluation per update,
``ppo.ppo_objective`` hands back dL/d(mean), dL/d(log_std) and dL/d(values),
and the networks' backward passes map them to the parameter gradients.
``tests/oracles.py::tape_ppo_minibatch`` is the same minibatch on the
autodiff tape, evaluating the anchor on the minibatch rows.  The properties pin the two together
byte for byte: the ``UpdateStats`` row and every actor and critic gradient
of one minibatch, over the clip, clamp and log-scale regimes where the
tape's tie rules decide, and the parameters, statistics and optimizer state
of whole ``ppo_update`` runs.  Then: an update builds no ``Tensor``, and a
non-finite value stops an update in the minibatch it enters, as the tape
did, without a warning.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftkit import autodiff, ppo
from driftkit.actor import LOG_STD_BOUNDS, GaussianActor, prefix_log_prob
from driftkit.autodiff import AutodiffError, Tensor
from driftkit.envs import PointMassEnv
from driftkit.generator import ChunkSpec, Dense, Generator
from driftkit.ppo import (RATIO_LOG_CLAMP, Critic, PPOConfig, RolloutBuffer, collect_rollouts,
                          compute_gae, finetune, ppo_minibatch, ppo_update)
from driftkit.training import AdamW, NumericalAbort

from .oracles import tape_ppo_minibatch

PROPERTY = settings(max_examples=60, deadline=None)

# where a row's log-gap sits: inside the clip range, past either end of it,
# past the +-40 clamp, or exactly on the clamp (``on_clip`` rows are placed
# exactly on a clip bound by the test's choice of epsilon)
GAP_REGIMES = ("near", "above", "below", "clamped_above", "clamped_below",
               "on_clamp_above", "on_clamp_below", "on_clip")
# where a coordinate's log-scale sits: free, beyond a bound, or exactly on one
SCALE_REGIMES = ("free", "beyond_lo", "beyond_hi", "on_lo", "on_hi")


def assert_same_minibatch(step, ref, actor, critic):
    """Rows and gradients (names, order, dtype, shape and bytes) equal."""
    row, actor_grads, critic_grads = step
    ref_row, ref_actor, ref_critic = ref
    assert [np.float64(x).tobytes() for x in row] == [np.float64(x).tobytes() for x in ref_row]
    for grads, ref_grads, params in (*zip(actor_grads, ref_actor, actor.bundles),
                                     (critic_grads, ref_critic, critic.params)):
        assert grads.vector.tobytes() == ref_grads.vector.tobytes()
        assert list(grads) == list(ref_grads) == list(params)
        for name, grad in grads.items():
            ref_grad = ref_grads[name]
            assert (grad.dtype, grad.shape) == (ref_grad.dtype, ref_grad.shape), name
            assert grad.tobytes() == ref_grad.tobytes(), name


def perturbed(arrays: dict, rng, scale: float) -> dict:
    return {name: arr + scale * rng.standard_normal(arr.shape) for name, arr in arrays.items()}


def settle_gap(logp: float, old: float, target: float) -> float | None:
    """``old`` moved one ulp at a time until ``logp - old`` is exactly
    ``target``; None if the float grid skips it."""
    for _ in range(64):
        gap = logp - old
        if gap == target:
            return old
        old = np.nextafter(old, np.inf if gap > target else -np.inf)
    return None


def old_log_prob(logp: float, regime: str, clip_eps: float, rng) -> float | None:
    """An old log-prob that puts ``logp - old`` in ``regime``."""
    lo, hi = np.log(1.0 - clip_eps), np.log(1.0 + clip_eps)
    if regime == "near":
        return logp - rng.uniform(0.5 * lo, 0.5 * hi)
    if regime in ("above", "on_clip"):
        return logp - rng.uniform(hi + 1e-3, 0.69)
    if regime == "below":
        return logp - rng.uniform(-RATIO_LOG_CLAMP + 1.0, lo - 1e-3)
    if regime == "clamped_above":
        return logp - rng.uniform(RATIO_LOG_CLAMP + 0.5, 80.0)
    if regime == "clamped_below":
        return logp + rng.uniform(RATIO_LOG_CLAMP + 0.5, 80.0)
    target = RATIO_LOG_CLAMP if regime == "on_clamp_above" else -RATIO_LOG_CLAMP
    return settle_gap(logp, logp - target, target)


def pin_log_scale(actor: GaussianActor, regimes, rng) -> None:
    """Head weights that put column ``j`` of the pre-clip log-scale in ``regimes[j]``."""
    lo, hi = LOG_STD_BOUNDS
    w = 0.3 * rng.standard_normal(actor.head["scale_w"].shape)
    b = rng.uniform(lo + 1.0, hi - 1.0, size=len(regimes))
    for j, regime in enumerate(regimes):
        if regime == "beyond_lo":
            w[:, j], b[j] = 0.01 * w[:, j], lo - rng.uniform(0.5, 2.0)
        elif regime == "beyond_hi":
            w[:, j], b[j] = 0.01 * w[:, j], hi + rng.uniform(0.5, 2.0)
        elif regime in ("on_lo", "on_hi"):
            w[:, j], b[j] = 0.0, lo if regime == "on_lo" else hi
    actor.head.load({"scale_w": w, "scale_b": b})


def regime_minibatch(data, seed, rows, obs_dim, latent_dim, hidden, horizon, action_dim,
                     history, exec_len):
    """(actor, critic, anchor, buffer, norm_adv, config) with every row's log-gap,
    every coordinate's log-scale and the weights drawn from ``data``."""
    history = min(history, horizon)
    spec = ChunkSpec(horizon=horizon, action_dim=action_dim, history_len=history,
                     exec_len=min(exec_len, horizon - history + 1))
    rng = np.random.default_rng(seed)
    gen = Generator(spec, obs_dim=obs_dim, latent_dim=latent_dim, hidden_dim=hidden, seed=seed)
    anchor = gen.clone()
    gen.params.load(perturbed(gen.params.arrays(), rng, 0.1))
    actor = GaussianActor(gen)
    d = spec.chunk_dim
    pin_log_scale(actor, data.draw(st.lists(st.sampled_from(SCALE_REGIMES), min_size=d,
                                            max_size=d)), rng)
    critic = Critic(history * obs_dim, hidden_dim=hidden, seed=seed + 1)
    critic.params.load(perturbed(critic.params.arrays(), rng, 0.1))

    obs = rng.standard_normal((rows, history * obs_dim))
    z = rng.standard_normal((rows, latent_dim))
    out, _ = actor.evaluate(obs, z)
    prefix = out.mean[:, spec.exec_slice()] + rng.standard_normal((rows, spec.exec_dim)) * np.exp(
        out.log_std[:, spec.exec_slice()])
    regimes = data.draw(st.lists(st.sampled_from(GAP_REGIMES), min_size=rows, max_size=rows))
    # a twin of row 0 with the opposite advantage: the clip and the minimum
    # see both signs at the same ratio
    twin = rows > 1 and data.draw(st.booleans())
    if twin:
        obs[1], z[1], prefix[1], regimes[1] = obs[0], z[0], prefix[0], regimes[0]
    logp = prefix_log_prob(prefix, actor.evaluate(obs, z)[0])
    clip_eps = data.draw(st.floats(0.05, 0.5))
    old = [old_log_prob(lp, regime, clip_eps, rng) for lp, regime in zip(logp, regimes)]
    assume(None not in old)
    old = np.array(old)
    if twin:
        old[1] = old[0]
    if "on_clip" in regimes:
        # epsilon that puts the first such row exactly on 1 + eps; 1.0 + (r - 1.0)
        # is r for any r in (1, 2)
        row = regimes.index("on_clip")
        r = np.exp(np.clip(logp[row] - old[row], -RATIO_LOG_CLAMP, RATIO_LOG_CLAMP))
        clip_eps = float(r - 1.0)
        assume(0.0 < clip_eps < 1.0 and 1.0 + clip_eps == r)
    norm_adv = rng.standard_normal(rows) * data.draw(st.sampled_from([0.1, 1.0, 10.0]))
    norm_adv[data.draw(st.lists(st.integers(0, rows - 1), max_size=2))] = 0.0
    if twin:
        norm_adv[1] = -norm_adv[0]
    buffer = RolloutBuffer(obs=obs, latents=z, exec_actions=prefix, old_log_probs=old,
                           rewards=np.zeros(rows), values=np.zeros(rows),
                           dones=np.zeros(rows, dtype=bool), bootstrap_value=0.0,
                           returns=rng.standard_normal(rows))
    config = PPOConfig(clip=clip_eps,
                       value_weight=data.draw(st.sampled_from([0.0, 0.5, 2.0])),
                       entropy_weight=data.draw(st.sampled_from([0.0, 0.01, 0.3])),
                       anchor_weight=data.draw(st.sampled_from([0.0, 1.0, 50.0])))
    return actor, critic, anchor, buffer, norm_adv, config


@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**16), rows=st.integers(1, 10),
       obs_dim=st.integers(1, 4), latent_dim=st.integers(1, 4), hidden=st.integers(1, 9),
       horizon=st.integers(1, 5), action_dim=st.integers(1, 3), history=st.integers(1, 2),
       exec_len=st.integers(1, 5))
def test_property_minibatch_is_bitwise_the_tape_minibatch(data, seed, rows, obs_dim, latent_dim,
                                                          hidden, horizon, action_dim, history,
                                                          exec_len):
    actor, critic, anchor, buffer, norm_adv, config = regime_minibatch(
        data, seed, rows, obs_dim, latent_dim, hidden, horizon, action_dim, history, exec_len)
    # a minibatch of any size, in any order, from the rows
    idx = np.asarray(data.draw(st.permutations(range(rows))))[:data.draw(st.integers(1, rows))]
    frozen, _ = anchor.evaluate(buffer.obs, buffer.latents)
    args = (buffer, idx, norm_adv, config, config.anchor_weight)
    assert_same_minibatch(ppo_minibatch(actor, critic, frozen, *args),
                          tape_ppo_minibatch(actor, critic, anchor, *args), actor, critic)


def test_minibatch_is_bitwise_the_tape_minibatch_at_the_benchmark_shape():
    # history 2 x obs 6, latent 8, hidden 64, chunk 16 x 2, minibatch 32 of 128:
    # the benchmark's update, whose gemms take other BLAS kernels than the property's
    spec = ChunkSpec()
    gen = Generator(spec, obs_dim=6, latent_dim=8, hidden_dim=64, seed=3)
    anchor = gen.clone()
    actor, critic = GaussianActor(gen), Critic(12, seed=4)
    buffer = compute_gae(collect_rollouts(PointMassEnv(spec, reward_mode="dense"), actor, critic,
                                          128, np.random.default_rng(5)), 0.99, 0.95)
    rng = np.random.default_rng(6)
    gen.params.load(perturbed(gen.params.arrays(), rng, 0.05))
    actor.head.load(perturbed(actor.head.arrays(), rng, 0.5))
    norm_adv = (buffer.advantages - buffer.advantages.mean()) / (buffer.advantages.std() + 1e-8)
    config = PPOConfig()
    frozen, _ = anchor.evaluate(buffer.obs, buffer.latents)
    for idx in np.array_split(rng.permutation(128), 4):
        args = (buffer, idx, norm_adv, config, config.anchor_weight)
        assert_same_minibatch(ppo_minibatch(actor, critic, frozen, *args),
                              tape_ppo_minibatch(actor, critic, anchor, *args), actor, critic)


SPEC = ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2)


def update_with(minibatch_fn, *args, **kwargs):
    """``ppo_update`` with ``minibatch_fn`` as its minibatch."""
    with mock.patch.object(ppo, "ppo_minibatch", minibatch_fn):
        return ppo_update(*args, **kwargs)


def tape_minibatch_of(anchor: Generator):
    """``tape_ppo_minibatch`` in ``ppo_minibatch``'s signature: it ignores the
    anchor's means that ``ppo_update`` passes and evaluates ``anchor`` on the
    minibatch rows itself, as the tape update did."""
    def minibatch(actor, critic, _frozen, *args):
        return tape_ppo_minibatch(actor, critic, anchor, *args)
    return minibatch


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), length=st.integers(1, 20), minibatch=st.integers(1, 22),
       epochs=st.integers(1, 3), hidden=st.integers(1, 9),
       anchor_weight=st.sampled_from([0.0, 1.0]), entropy_weight=st.sampled_from([0.0, 0.01]))
def test_property_update_is_bitwise_the_tape_update(seed, length, minibatch, epochs, hidden,
                                                    anchor_weight, entropy_weight):
    config = PPOConfig(update_epochs=epochs, minibatch_size=minibatch, actor_lr=3e-2,
                       critic_lr=3e-2, entropy_weight=entropy_weight)
    runs = []
    for tape in (False, True):
        gen = Generator(SPEC, obs_dim=6, latent_dim=3, hidden_dim=hidden, seed=seed)
        anchor = gen.clone()
        minibatch_fn = tape_minibatch_of(anchor) if tape else ppo_minibatch
        actor, critic = GaussianActor(gen), Critic(6, hidden_dim=hidden, seed=seed)
        buffer = compute_gae(collect_rollouts(PointMassEnv(SPEC, reward_mode="dense"), actor,
                                              critic, length, np.random.default_rng(seed)),
                             0.99, 0.95)
        actor_opt = AdamW(actor.parameters().keys(), lr=config.actor_lr)
        critic_opt = AdamW(critic.params.keys(), lr=config.critic_lr)
        rng = np.random.default_rng(seed + 1)
        # two updates, so the second starts from moved weights and live moments
        stats = [update_with(minibatch_fn, buffer, actor, critic, anchor, config, rng,
                             actor_opt=actor_opt, critic_opt=critic_opt,
                             anchor_weight=anchor_weight) for _ in range(2)]
        # repr round-trips every float exactly, signed zeros included
        runs.append(({**actor.generator.params.arrays(), **actor.head.arrays(),
                      **critic.params.arrays()},
                     [(repr(astuple(s)[:-1]), s.first_epoch_ratios.tobytes()) for s in stats],
                     *(json.dumps(opt.state(), sort_keys=True, default=np.ndarray.tolist)
                       for opt in (actor_opt, critic_opt)), rng.bit_generator.state))
    (params, *rest), (ref_params, *ref_rest) = runs
    for name, arr in params.items():
        assert arr.tobytes() == ref_params[name].tobytes(), name
    assert rest == ref_rest


# -- no tape ---------------------------------------------------------------------


def trap_tensors(monkeypatch):
    """Make ``_node`` and ``Tensor.__init__`` raise once the returned list is non-empty."""
    armed = []
    node, init = autodiff._node, Tensor.__init__

    def trapped_node(*args, **kwargs):
        if armed:
            raise AssertionError("a tape node was recorded")
        return node(*args, **kwargs)

    def trapped_init(self, *args, **kwargs):
        if armed:
            raise AssertionError("a Tensor was built")
        init(self, *args, **kwargs)

    monkeypatch.setattr(autodiff, "_node", trapped_node)
    monkeypatch.setattr(Tensor, "__init__", trapped_init)
    return armed


def test_update_and_finetune_build_no_tensor(monkeypatch):
    armed = trap_tensors(monkeypatch)
    gen = Generator(SPEC, obs_dim=6, latent_dim=3, hidden_dim=8, seed=0)
    anchor = gen.clone()
    actor, critic = GaussianActor(gen), Critic(6, hidden_dim=8, seed=0)
    config = PPOConfig(rollout_length=16, minibatch_size=5, update_epochs=2, iterations=2)
    buffer = compute_gae(collect_rollouts(PointMassEnv(SPEC, reward_mode="dense"), actor, critic,
                                          16, np.random.default_rng(0)), 0.99, 0.95)
    armed.append(True)
    stats = ppo_update(buffer, actor, critic, anchor, config, np.random.default_rng(1),
                       actor_opt=AdamW(actor.parameters().keys(), lr=1e-3),
                       critic_opt=AdamW(critic.params.keys(), lr=1e-3), anchor_weight=1.0)
    assert np.all(stats.first_epoch_ratios == 1.0)
    # finetune builds its networks' leaves, then arms the trap at its first collection
    armed.clear()
    collect = ppo.collect_rollouts

    def armed_collect(*args, **kwargs):
        armed.append(True)
        return collect(*args, **kwargs)

    monkeypatch.setattr(ppo, "collect_rollouts", armed_collect)
    _, _, rows = finetune(Generator(SPEC, obs_dim=6, latent_dim=3, hidden_dim=8, seed=1), config,
                          "dense", np.log(0.15), 0)
    assert [row["iter"] for row in rows] == [1, 2] and armed


# -- non-finite values ------------------------------------------------------------

FINITE_POINTS = ("observation", "backbone weight", "head weight", "critic weight",
                 "log-prob", "loss", "gradient")
PARAMETERS = (*Generator(SPEC, obs_dim=6, latent_dim=3, hidden_dim=8).params, "scale_w",
              "scale_b", *Critic(6, hidden_dim=8).params)


def corrupt(point, bad, actor, critic, buffer):
    """Put ``bad`` at ``point``; where a finite value must overflow later, a
    huge finite value of its sign."""
    huge = bad if np.isnan(bad) else np.copysign(1e200, bad)

    def poison(bundle, name, where):
        bundle[name].data[where] = bad

    if point == "observation":
        buffer.obs[5, 1] = bad
    elif point == "backbone weight":
        poison(actor.generator.params, "trunk2_w", (2, 1))
    elif point == "head weight":
        poison(actor.head, "scale_b", 3)
    elif point == "critic weight":
        poison(critic.params, "v1_w", (0, 2))
    elif point == "log-prob":
        # squares past the largest float: the log-prob is the first infinity
        buffer.exec_actions[7, 0] = huge
    elif point == "loss":
        # squares past the largest float in the value loss
        buffer.returns[2] = huge


def poisoned(grads: dict, name: str, bad: float) -> None:
    if name in grads:
        grads[name].flat[0] = bad


def abort_dump(tape, point, bad, after, parameter):
    """The dump of the ``NumericalAbort`` of an update poisoned at ``point``
    after its ``after``-th minibatch (the ``gradient`` point: ``parameter``'s
    gradient array, in every later minibatch), checking that the explicit
    minibatch emits no warning.  ``tape`` runs the tape minibatch instead."""
    gen = Generator(SPEC, obs_dim=6, latent_dim=3, hidden_dim=8, seed=0)
    anchor = gen.clone()
    actor, critic = GaussianActor(gen), Critic(6, hidden_dim=8, seed=0)
    buffer = compute_gae(collect_rollouts(PointMassEnv(SPEC, reward_mode="dense"), actor, critic,
                                          12, np.random.default_rng(0)), 0.99, 0.95)
    armed = []

    class PoisoningAdamW(AdamW):
        # the critic steps last in a minibatch: poison between two minibatches
        def step(self, params, grads, lr=None):
            super().step(params, grads, lr)
            if self.step_count == after:
                armed.append(True)
                corrupt(point, bad, actor, critic, buffer)

    def tape_minibatch(*args):
        row, actor_grads, critic_grads = tape_minibatch_of(anchor)(*args)
        if armed and point == "gradient":
            for grads in (*actor_grads, critic_grads):
                poisoned(grads, parameter, bad)
        return row, actor_grads, critic_grads

    dense_backward = Dense.backward

    def backward(self, grads, layer, *args, **kwargs):
        out = dense_backward(self, grads, layer, *args, **kwargs)
        if armed and point == "gradient":
            poisoned(grads, parameter, bad)
        return out

    config = PPOConfig(update_epochs=3, minibatch_size=5)
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(Dense, "backward", backward):
        warnings.simplefilter("always")
        with pytest.raises(NumericalAbort) as err:
            update_with(tape_minibatch if tape else ppo_minibatch, buffer, actor, critic,
                        anchor, config, np.random.default_rng(1),
                        actor_opt=AdamW(actor.parameters().keys(), lr=config.actor_lr),
                        critic_opt=PoisoningAdamW(critic.params.keys(), lr=config.critic_lr),
                        anchor_weight=1.0)
    # the tape let a non-finite gradient through to AdamW, whose division warned
    assert caught == [] or tape and point == "gradient"
    assert isinstance(err.value.__cause__, AutodiffError)
    return json.dumps(err.value.dump, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(point=st.sampled_from(FINITE_POINTS), bad=st.sampled_from([np.inf, -np.inf, np.nan]),
       after=st.integers(1, 6), parameter=st.sampled_from(PARAMETERS))
def test_non_finite_value_aborts_the_minibatch_it_enters_as_the_tape_did(point, bad, after,
                                                                         parameter):
    # 12 rows in minibatches of 5, 5 and 2 over three epochs: every row comes
    # back after the poisoning
    assert (abort_dump(False, point, bad, after, parameter)
            == abort_dump(True, point, bad, after, parameter))


def test_each_backward_raises_on_an_overflowing_gradient_without_a_warning():
    # finite upstream gradients whose sums over the rows overflow
    gen = Generator(SPEC, obs_dim=6, latent_dim=3, hidden_dim=8, seed=0)
    actor, critic = GaussianActor(gen), Critic(6, hidden_dim=8, seed=0)
    rng = np.random.default_rng(0)
    obs, z = rng.standard_normal((3, 6)), rng.standard_normal((3, 3))
    out, acts = actor.evaluate(obs, z)
    values, critic_acts = critic.evaluate(obs)
    huge, zeros = np.full_like(out.mean, 1e308), np.zeros_like(out.mean)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(AutodiffError, match="gradient of generator parameter"):
            actor.backward(acts, huge, zeros)
        with pytest.raises(AutodiffError, match="gradient of actor head parameter"):
            actor.backward(acts, zeros, huge)
        with pytest.raises(AutodiffError, match="gradient of critic parameter"):
            critic.backward(critic_acts, np.full_like(values, 1e308))
    assert caught == []
