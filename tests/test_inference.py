"""Tape-free evaluation: a row-invariant dense kernel, bitwise agreement with
the tape forwards at any batch size and for any row, every activation that a
backward pass reads equal row by row to the same row evaluated alone, and the
tape's finiteness contract."""

from __future__ import annotations

import cProfile
import ctypes
import os
import pstats
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftkit
from driftkit.actor import GaussianActor, prefix_log_prob
from driftkit.autodiff import AutodiffError, Tensor, row_matmul
from driftkit.envs import PointMassEnv
from driftkit.generator import ChunkSpec, Generator, SpecError
from driftkit.ppo import Critic, evaluate_policy

from .oracles import blas_core, openblas

SPEC = ChunkSpec(horizon=5, action_dim=2, history_len=2, exec_len=3)
OBS_DIM = 3
LATENT_DIM = 4
N_OBS = SPEC.history_len * OBS_DIM

PROPERTY = settings(max_examples=40, deadline=None)
batches = st.integers(min_value=1, max_value=24)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scales = st.floats(min_value=0.01, max_value=20.0)


# (fan_in, fan_out) of every dense layer at the benchmark geometry (history 2
# x obs 6, latent 8, hidden 64, chunk 16 x 2): generator, scale head, critic.
BENCH_LAYERS = [(12, 64), (8, 64), (128, 64), (64, 64), (64, 32), (64, 1)]


def rows_view(rng, batch: int, fan_in: int, layout: str, scale: float) -> np.ndarray:
    """A (batch, fan_in) operand: a fresh array, a view at a row offset, or a
    view of every other row of a larger array."""
    if layout == "contiguous":
        return scale * rng.standard_normal((batch, fan_in))
    if layout == "offset":
        return (scale * rng.standard_normal((batch + 3, fan_in)))[3:]
    return (scale * rng.standard_normal((2 * batch, fan_in)))[1::2]


def assert_rows_computed_alone(x: np.ndarray, w: np.ndarray) -> None:
    out = row_matmul(x, w)
    assert out.shape == (x.shape[0], w.shape[1])
    for i in range(x.shape[0]):
        assert np.array_equal(out[i], row_matmul(x[i:i + 1].copy(), w)[0])
        assert np.array_equal(out[i], row_matmul(x[i:i + 1], w)[0])


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(min_value=1, max_value=512),
       fan_in=st.sampled_from([1, 3, 5, 7] + [k for k, _ in BENCH_LAYERS]),
       fan_out=st.sampled_from([1, 3, 5, 7] + [m for _, m in BENCH_LAYERS]),
       layout=st.sampled_from(["contiguous", "offset", "strided"]),
       seed=seeds, scale=scales)
def test_kernel_rows_equal_rows_computed_alone(batch, fan_in, fan_out, layout, seed, scale):
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
    assert_rows_computed_alone(rows_view(rng, batch, fan_in, layout, scale), w)


@pytest.mark.parametrize("fan_in, fan_out", BENCH_LAYERS)
@pytest.mark.parametrize("batch", [1, 8, 32, 128, 512])
def test_kernel_is_row_invariant_at_the_benchmark_shapes(fan_in, fan_out, batch):
    rng = np.random.default_rng(fan_in * 1000 + fan_out + batch)
    w = rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
    for layout in ("contiguous", "offset", "strided"):
        assert_rows_computed_alone(rows_view(rng, batch, fan_in, layout, 1.0), w)


def make_actor(seed: int) -> GaussianActor:
    gen = Generator(SPEC, obs_dim=OBS_DIM, latent_dim=LATENT_DIM, hidden_dim=8, seed=seed)
    actor = GaussianActor(gen)
    rng = np.random.default_rng(seed + 1)
    actor.head.load({
        "scale_w": rng.normal(scale=0.5, size=(8, SPEC.chunk_dim)),
        "scale_b": rng.uniform(-3.0, 0.0, size=SPEC.chunk_dim),
    })
    return actor


def assert_row_equals_alone(batched: tuple, alone: tuple, i: int) -> None:
    """Row ``i`` of every array of ``batched`` equals the one row of the same
    array in ``alone``, an evaluation of row ``i`` by itself, bitwise."""
    assert len(batched) == len(alone)
    for full, one in zip(batched, alone):
        assert one.shape == (1, *full.shape[1:])
        assert one[0].tobytes() == full[i].tobytes()


def rows(seed: int, batch: int, scale: float):
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal((batch, N_OBS)),
            rng.standard_normal((batch, LATENT_DIM)),
            rng.standard_normal((batch, SPEC.exec_dim)))


@PROPERTY
@given(batch=batches, seed=seeds, scale=scales)
def test_generator_evaluate_equals_tape_forward_batched_and_per_row(batch, seed, scale):
    gen = make_actor(seed % 1000).generator
    obs, z, _ = rows(seed, batch, scale)
    chunk, feat = gen.forward(Tensor(obs), Tensor(z))
    chunk_arr, acts = gen.evaluate(obs, z)
    assert np.array_equal(chunk_arr, chunk.data)
    assert np.array_equal(acts[2], feat.data)
    # the chunk and every activation that Generator.backward reads
    for i in range(batch):
        one, one_acts = gen.evaluate(obs[i:i + 1], z[i:i + 1])
        assert np.array_equal(one[0], chunk.data[i])
        assert_row_equals_alone((chunk_arr, *acts), (one, *one_acts), i)


@PROPERTY
@given(batch=batches, seed=seeds, scale=scales)
def test_array_prefix_log_prob_equals_tape_log_prob(batch, seed, scale):
    actor = make_actor(seed % 1000)
    obs, z, x = rows(seed, batch, scale)
    out = actor.forward(Tensor(obs), Tensor(z))
    tape = prefix_log_prob(x, out).data
    arrays, (acts, pre_log_std) = actor.evaluate(obs, z)
    assert np.array_equal(arrays.mean, out.mean.data)
    assert np.array_equal(arrays.log_std, out.log_std.data)
    logp = prefix_log_prob(x, arrays)
    assert isinstance(logp, np.ndarray)
    assert np.array_equal(logp, tape)
    # collection evaluates one row at a time; the update epochs batch them and
    # differentiate through the activations and the pre-clip log-scale
    for i in range(batch):
        one, (one_acts, one_pre) = actor.evaluate(obs[i:i + 1], z[i:i + 1])
        assert prefix_log_prob(x[i:i + 1], one)[0] == tape[i]
        assert_row_equals_alone((arrays.mean, arrays.log_std, *acts, pre_log_std),
                                (one.mean, one.log_std, *one_acts, one_pre), i)


@PROPERTY
@given(batch=batches, seed=seeds, scale=scales)
def test_critic_evaluate_equals_tape_forward(batch, seed, scale):
    critic = Critic(N_OBS, hidden_dim=8, seed=seed % 1000)
    obs, _, _ = rows(seed, batch, scale)
    tape = critic.forward(Tensor(obs)).data
    values, acts = critic.evaluate(obs)
    assert np.array_equal(values, tape)
    # the values and the activations (obs, h1, h2) that Critic.backward reads
    for i in range(batch):
        one, one_acts = critic.evaluate(obs[i:i + 1])
        assert one[0] == tape[i]
        assert_row_equals_alone((values, *acts), (one, *one_acts), i)


def test_evaluate_counts_one_evaluation_per_row():
    # both backends count the rows they evaluate, so a batched call over N
    # decisions costs N, as N batch-1 calls would
    gen = make_actor(0).generator
    obs, z, _ = rows(0, 7, 1.0)
    gen.evaluate(obs, z)
    assert gen.nfe_count == 7
    gen.forward(Tensor(obs), Tensor(z))
    assert gen.nfe_count == 14
    gen.evaluate(obs[:1], z[:1])
    assert gen.nfe_count == 15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["obs", "z"])
def test_evaluate_rejects_non_finite_input(bad, where):
    gen = make_actor(0).generator
    obs, z, _ = rows(0, 3, 1.0)
    (obs if where == "obs" else z)[1, 0] = bad
    with pytest.raises(AutodiffError):
        gen.evaluate(obs, z)


def test_evaluate_rejects_overflowing_pre_activation():
    gen = make_actor(0).generator
    arrays = gen.param_arrays()
    arrays["obs_w"] = np.full_like(arrays["obs_w"], 1e308)
    gen.params.load(arrays)
    obs = np.full((2, N_OBS), 10.0)
    z = np.zeros((2, LATENT_DIM))
    with pytest.raises(AutodiffError):
        gen.forward(Tensor(obs), Tensor(z))
    with pytest.raises(AutodiffError):
        gen.evaluate(obs, z)


def rejected_inputs():
    """(obs, z) pairs that :meth:`Generator.evaluate` rejects, and the error each raises."""
    obs, z, _ = rows(0, 2, 1.0)
    nan_z = z.copy()
    nan_z[1, 0] = np.nan
    inf_obs = obs.copy()
    inf_obs[0, 1] = np.inf
    return [(obs, nan_z, AutodiffError), (inf_obs, z, AutodiffError),
            (obs, np.zeros((2, LATENT_DIM + 3)), SpecError),
            (obs, np.zeros((3, LATENT_DIM)), SpecError),
            (obs, z[0], SpecError),
            (obs[:, :-1], z, SpecError),
            (obs.reshape(-1), z, SpecError)]


@pytest.mark.parametrize("case", range(len(rejected_inputs())))
def test_a_rejected_evaluation_does_not_count(case):
    gen = make_actor(0).generator
    obs, z, error = rejected_inputs()[case]
    with pytest.raises(error) as info:
        gen.evaluate(obs, z)
    assert gen.nfe_count == 0
    if error is SpecError:
        # the message names the expected shape
        assert (f"expected (rows, {N_OBS})" in str(info.value)
                or f"expected ({len(obs)}, {LATENT_DIM})" in str(info.value))


def test_deployment_rejects_a_latent_of_the_wrong_size_before_counting():
    actor = make_actor(0)
    obs, _, _ = rows(0, 1, 1.0)
    expected = rf"latent input has shape \(1, 7\), expected \(1, {LATENT_DIM}\)"
    with pytest.raises(SpecError, match=expected):
        actor.deploy_action(obs, np.zeros(7))
    assert actor.generator.nfe_count == 0


# every dense layer, and the paths that evaluate it
OVERFLOW_CASES = ([(layer, path) for layer in ("obs", "lat", "trunk1", "trunk2", "head")
                   for path in ("Generator.evaluate", "GaussianActor.evaluate", "deploy_action",
                                "evaluate_policy", "Generator.forward", "GaussianActor.decide")]
                  + [("scale", "GaussianActor.evaluate"), ("scale", "GaussianActor.decide")]
                  + [(layer, path) for layer in ("v1", "v2", "v3")
                     for path in ("Critic.evaluate", "Critic.forward")])


def overflowing_networks(layer: str) -> tuple[GaussianActor, Critic]:
    """An actor and a critic on the point-mass geometry whose weights are 0 and
    biases 1, so every activation is tanh(1) > 0, except ``layer``'s weight,
    which is 1e308 everywhere: its pre-activations sum positive terms past
    the float64 range."""
    spec = ChunkSpec(horizon=4, action_dim=2, history_len=2, exec_len=2)
    actor = GaussianActor(Generator(spec, obs_dim=6, latent_dim=LATENT_DIM, hidden_dim=8))
    critic = Critic(12, hidden_dim=8)
    for bundle in (actor.generator.params, actor.head, critic.params):
        arrays = {name: np.full_like(arr, 0.0 if name.endswith("_w") else 1.0)
                  for name, arr in bundle.arrays().items()}
        if f"{layer}_w" in arrays:
            arrays[f"{layer}_w"][...] = 1e308
        bundle.load(arrays)
    return actor, critic


@pytest.mark.parametrize("layer, path", OVERFLOW_CASES)
def test_every_layer_overflow_raises_without_a_warning(layer, path):
    # each evaluation opens one error-state scope that covers all its layers
    actor, critic = overflowing_networks(layer)
    gen = actor.generator
    obs, z = np.full((2, 12), 0.5), np.full((2, LATENT_DIM), 0.5)
    run = {
        "Generator.evaluate": lambda: gen.evaluate(obs, z),
        "GaussianActor.evaluate": lambda: actor.evaluate(obs, z),
        "deploy_action": lambda: actor.deploy_action(obs[0].reshape(2, 6), z[0]),
        "GaussianActor.decide": lambda: actor.decide(obs[0], z[0]),
        # the env's own observations and latents: these seeds overflow the
        # input layers at the first control step
        "evaluate_policy": lambda: evaluate_policy(
            lambda: PointMassEnv(gen.spec), actor, 20, 0),
        "Generator.forward": lambda: gen.forward(Tensor(obs), Tensor(z)),
        "Critic.evaluate": lambda: critic.evaluate(obs),
        "Critic.forward": lambda: critic.forward(Tensor(obs)),
    }[path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AutodiffError):
            run()


def test_critic_evaluate_rejects_non_finite_input():
    critic = Critic(N_OBS, hidden_dim=8)
    obs = np.zeros((2, N_OBS))
    obs[0, 0] = np.nan
    with pytest.raises(AutodiffError):
        critic.evaluate(obs)


# -- the batch-1 workspace kernel ------------------------------------------


def test_the_benchmark_shapes_are_every_dense_layer_in_the_tree():
    spec = ChunkSpec(horizon=16, action_dim=2, history_len=2, exec_len=8)
    actor = GaussianActor(Generator(spec, obs_dim=6, latent_dim=8, hidden_dim=64))
    bundles = (actor.generator.params, actor.head, Critic(12, hidden_dim=64).params)
    assert {arr.shape for bundle in bundles for name, arr in bundle.data.items()
            if name.endswith("_w")} == set(BENCH_LAYERS)


@pytest.mark.parametrize("fan_in, fan_out", BENCH_LAYERS + [
    (k, m) for k in (1, 3, 5, 7) for _, m in BENCH_LAYERS] + [
    (k, m) for k, _ in BENCH_LAYERS[:4] for m in (1, 2, 3)])
@settings(max_examples=10, deadline=None)
@given(offset=st.integers(min_value=0, max_value=9), stride=st.sampled_from([1, 2, 3]),
       seed=seeds, scale=scales)
def test_one_dimensional_product_equals_the_kernel_row(fan_in, fan_out, offset, stride,
                                                       seed, scale):
    # a batch-1 layer: the dot of a 1-D input, contiguous or strided, times the
    # weight, written into a segment of a longer buffer, has the bits of a
    # row_matmul row
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
    buffer = scale * rng.standard_normal(offset + stride * fan_in + 2)
    x = buffer[offset:offset + stride * fan_in:stride]
    out = np.full(offset + fan_out + 3, np.nan)
    x.dot(w, out=out[offset:offset + fan_out])
    assert out[offset:offset + fan_out].tobytes() == row_matmul(x[None], w)[0].tobytes()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0),
                       min_size=1, max_size=300),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]), where=st.integers(0, 299))
def test_the_dot_with_zeros_is_zero_exactly_when_every_value_is_finite(values, bad, where):
    # the batch-1 finiteness check: 0 * x is +-0 for a finite x and NaN for a
    # NaN or an infinity, and a sum of +-0 is 0 while a sum with a NaN is NaN
    pre = np.array(values)
    if bad is not None:
        pre[where % pre.size] = bad
    with np.errstate(invalid="ignore"):  # as in the decision's scope
        assert (pre.dot(np.zeros_like(pre)) != 0) == (not np.isfinite(pre).all())


def test_a_one_by_one_product_differs_only_in_a_zero_sign_that_the_bias_add_erases():
    # at fan_in = fan_out = 1, the dot multiplies two scalars, which keeps a
    # -0.0 product that the kernel row's 0 + x * w sums to +0.0; a bias other
    # than -0.0 (the init's 0.0 and every value an optimizer or EMA step makes
    # from it) gives both the same bits
    x, w = np.array([-1.5]), np.array([[0.0]])
    out = np.empty(1)
    x.dot(w, out=out)
    row = row_matmul(x[None], w)[0]
    assert out == row
    for b in (0.0, 5e-324, -2.0):
        assert (out + b).tobytes() == (row + b).tobytes()


def generate_via_evaluate(gen: Generator, obs_hist, z) -> np.ndarray:
    """The batch-1 decision as one row of :meth:`Generator.evaluate`, with its
    input handling: the reference for :meth:`Generator.generate`."""
    chunk, _ = gen.evaluate(gen._flatten_obs(obs_hist),
                            np.asarray(z, dtype=np.float64).reshape(1, -1))
    return chunk[0]


# actor geometries: a hidden width of 1 gives fan_out 1 to the obs, lat and
# trunk layers and fan_in 1 to the head and the scale head
geometries = st.fixed_dictionaries({
    "hidden_dim": st.sampled_from([1, 2, 8, 17, 64]), "obs_dim": st.integers(1, 6),
    "latent_dim": st.integers(1, 11), "history": st.integers(1, 3),
    "horizon": st.integers(3, 8)})


def random_actor(seed: int, hidden_dim, obs_dim, latent_dim, history, horizon):
    """An actor of the given geometry whose biases and scale head are random,
    so every layer's add matters, and the rng that drew them, for the inputs."""
    spec = ChunkSpec(horizon=horizon, action_dim=2, history_len=history, exec_len=1)
    actor = GaussianActor(Generator(spec, obs_dim=obs_dim, latent_dim=latent_dim,
                                    hidden_dim=hidden_dim, seed=seed % 1000))
    rng = np.random.default_rng(seed)
    actor.generator.params.load({name: arr if name.endswith("_w") else rng.normal(size=arr.shape)
                                 for name, arr in actor.generator.params.arrays().items()})
    actor.head.load({"scale_w": rng.normal(scale=0.5, size=(hidden_dim, spec.chunk_dim)),
                     "scale_b": rng.uniform(-3.0, 0.0, size=spec.chunk_dim)})
    return actor, rng


@settings(max_examples=60, deadline=None)
@given(geometry=geometries, batch=st.integers(1, 12), seed=seeds, scale=scales)
def test_a_decision_equals_its_row_of_a_batched_evaluation(geometry, batch, seed, scale):
    # deployment's generate and collection's decide, each against its row of
    # the batched evaluation that the PPO update recomputes
    actor, rng = random_actor(seed, **geometry)
    gen = actor.generator
    obs = scale * rng.standard_normal((batch, gen.spec.history_len * gen.obs_dim))
    z = rng.standard_normal((batch, gen.latent_dim))
    out, _ = actor.evaluate(obs, z)
    for i in range(batch):
        one = gen.generate(obs[i].reshape(gen.spec.history_len, gen.obs_dim), z[i])
        assert one.tobytes() == out.mean[i].tobytes()
        mean, log_std = actor.decide(obs[i], z[i])
        assert mean.shape == log_std.shape == (gen.spec.chunk_dim,)
        assert mean.tobytes() == out.mean[i].tobytes()
        assert log_std.tobytes() == out.log_std[i].tobytes()
    assert gen.nfe_count == 3 * batch


@settings(max_examples=60, deadline=None)
@given(geometry=geometries, where=st.sampled_from(["observation", "latent"]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), index=st.integers(0, 63),
       seed=seeds, scale=scales)
def test_a_non_finite_input_raises_the_input_message_and_the_next_decision_is_clean(
        geometry, where, bad, index, seed, scale):
    # one finiteness check after the run covers the inputs: a NaN or an
    # infinity anywhere in them raises the batched evaluation's input error,
    # counts nothing, and leaves nothing behind in the workspace
    actor, rng = random_actor(seed, **geometry)
    gen = actor.generator
    obs = scale * rng.standard_normal((2, gen.spec.history_len * gen.obs_dim))
    z = rng.standard_normal((2, gen.latent_dim))
    out, _ = actor.evaluate(obs[1:], z[1:])
    bad_obs, bad_z = obs[0].copy(), z[0].copy()
    poisoned = bad_obs if where == "observation" else bad_z
    poisoned[index % poisoned.size] = bad
    want = (out.mean[0].tobytes(), out.log_std[0].tobytes())
    for run in (lambda *row: (gen.generate(*row),), actor.decide):
        counted = gen.nfe_count
        with pytest.raises(AutodiffError) as err:
            run(bad_obs, bad_z)
        assert type(err.value) is AutodiffError
        assert str(err.value) == f"{where} input has non-finite values"
        assert gen.nfe_count == counted
        got = run(obs[1], z[1])
        assert tuple(arr.tobytes() for arr in got) == want[:len(got)]


@pytest.mark.parametrize("layer", ["obs", "lat"])
@pytest.mark.parametrize("path", ["generate", "decide"])
def test_a_finite_input_that_overflows_raises_affine_output(layer, path):
    # every input coordinate 1e308 against weights of 1: each pre-activation
    # of the input's layer sums past the float64 range
    actor = make_actor(8)
    gen = actor.generator
    arrays = gen.param_arrays()
    gen.params.load({**arrays, f"{layer}_w": np.ones_like(arrays[f"{layer}_w"])})
    obs, z, _ = rows(8, 2, 1.0)
    big = np.full_like(obs[0] if layer == "obs" else z[0], 1e308)
    bad_obs, bad_z = (big, z[0]) if layer == "obs" else (obs[0], big)
    counted = gen.nfe_count
    with pytest.raises(AutodiffError) as want:
        gen.evaluate(bad_obs[None], bad_z[None])
    assert str(want.value) == "affine output has non-finite values"
    assert gen.nfe_count == counted
    with pytest.raises(AutodiffError):
        gen.forward(Tensor(bad_obs[None]), Tensor(bad_z[None]))
    assert gen.nfe_count == counted
    out, _ = actor.evaluate(obs[1:], z[1:])
    run, counted = (gen.generate if path == "generate" else actor.decide), gen.nfe_count
    with pytest.raises(AutodiffError) as got:
        run(bad_obs, bad_z)
    assert str(got.value) == str(want.value)
    assert gen.nfe_count == counted
    clean = run(obs[1], z[1])
    assert (clean if path == "generate" else clean[0]).tobytes() == out.mean[0].tobytes()


def bad_decision_inputs():
    """(observation history, latent) pairs that a batch-1 decision rejects."""
    obs, z, _ = rows(0, 2, 1.0)
    nan_obs, inf_z = obs[0].copy(), z[0].copy()
    nan_obs[2] = np.nan
    inf_z[1] = -np.inf
    return [(nan_obs, z[0]), (obs[0], inf_z), (nan_obs, inf_z), (obs, z[0]), (obs, z),
            (obs[0], z[0, :-1]), (obs[0, :-1], z[0]), (obs[0, :-1], z[0, :-1]),
            (np.zeros(0), z[0]), (obs[0], np.zeros((1, LATENT_DIM + 1)))]


@pytest.mark.parametrize("case", range(len(bad_decision_inputs())))
@pytest.mark.parametrize("path", ["generate", "decide"])
def test_a_rejected_decision_raises_the_batched_message_and_does_not_count(case, path):
    actor = make_actor(0)
    gen = actor.generator
    obs, z = bad_decision_inputs()[case]
    with pytest.raises((AutodiffError, SpecError)) as want:
        generate_via_evaluate(make_actor(0).generator, obs, z)
    run = gen.generate if path == "generate" else actor.decide
    with pytest.raises(want.type) as got:
        run(obs, z)
    assert str(got.value) == str(want.value)
    assert gen.nfe_count == 0


def test_a_returned_chunk_is_a_copy_that_the_next_decision_leaves_alone():
    actor = make_actor(3)
    obs, z, _ = rows(3, 2, 1.0)
    first = actor.deploy_action(obs[0], z[0])
    kept = first.copy()
    mean, log_std = actor.decide(obs[0], z[0])
    for out in (first, mean, log_std):
        assert not np.shares_memory(out, actor.generator.workspace.pre)
    second = actor.deploy_action(obs[1], z[1])
    actor.decide(obs[1], z[1])
    assert first.tobytes() == kept.tobytes() == mean.tobytes()
    assert second.tobytes() != kept.tobytes()


def test_a_parameter_load_is_seen_by_the_next_decision():
    actor = make_actor(4)
    gen = actor.generator
    obs, z, _ = rows(4, 1, 1.0)
    before = gen.generate(obs[0], z[0])
    arrays = gen.params.arrays()
    arrays["head_b"] = arrays["head_b"] + 1.0
    arrays["trunk2_w"] = -arrays["trunk2_w"]
    gen.params.load(arrays)
    after = gen.generate(obs[0], z[0])
    assert after.tobytes() != before.tobytes()
    assert after.tobytes() == generate_via_evaluate(gen, obs[0], z[0]).tobytes()


def test_a_clone_decides_like_the_original_in_its_own_workspace():
    gen = make_actor(5).generator
    twin = gen.clone()
    obs, z, _ = rows(5, 3, 2.0)
    for i in range(3):
        assert twin.generate(obs[i], z[i]).tobytes() == gen.generate(obs[i], z[i]).tobytes()
    for buffer in ("x", "pre", "act"):
        assert not np.shares_memory(getattr(twin.workspace, buffer),
                                    getattr(gen.workspace, buffer))
    assert not np.shares_memory(twin.workspace.pre, gen.params.data.vector)


def test_a_decision_call_count_repeats():
    # a deterministic cost counter: cProfile's total calls of a warmed-up
    # batch-1 decision are the same on every call: 19 when written, 20 with
    # np.matmul and an input check, 80 before the workspace kernel.  The count
    # does not track dispatch cost: cProfile sees np.dot's Python-level
    # dispatcher, but not a ufunc call such as np.matmul or a method such as
    # ndarray.dot, so five np.dot calls would have raised it to 21
    actor = make_actor(6)
    obs, z, _ = rows(6, 1, 1.0)
    for _ in range(3):
        actor.deploy_action(obs[0], z[0])
    counts = []
    for _ in range(2):
        profiler = cProfile.Profile()
        profiler.enable()
        actor.deploy_action(obs[0], z[0])
        profiler.disable()
        counts.append(pstats.Stats(profiler).total_calls)
    assert counts[0] == counts[1]


# the properties that hold for this numpy and BLAS build, not by construction
BUILD_PROPERTIES = ["test_kernel_rows_equal_rows_computed_alone",
                    "test_kernel_is_row_invariant_at_the_benchmark_shapes",
                    "test_one_dimensional_product_equals_the_kernel_row",
                    "test_the_dot_with_zeros_is_zero_exactly_when_every_value_is_finite",
                    "test_a_decision_equals_its_row_of_a_batched_evaluation"]

# OpenBLAS reads its thread count and its core once, when numpy loads it; the
# child reports the ones it took, where the bundled library can say
RUN_REPORTING_BLAS = """
import ctypes, sys
import pytest
from tests.oracles import blas_core, openblas
threads = openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
if threads is not None:
    print("blas threads:", threads())
print("blas core:", blas_core())
sys.exit(pytest.main(sys.argv[1:]))
"""


def run_build_properties(**env) -> list[str]:
    """The lines the child prints before pytest's, after :data:`BUILD_PROPERTIES`
    passed in it with ``env`` added to its environment."""
    paths = [str(Path(driftkit.__file__).parents[1]), str(Path(__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", RUN_REPORTING_BLAS, "-q", "-p", "no:cacheprovider",
         *(f"{__file__}::{name}" for name in BUILD_PROPERTIES)],
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    return [line for line in result.stdout.splitlines() if line.startswith("blas ")]


def test_the_build_properties_hold_at_another_blas_thread_count():
    # gemm is the call OpenBLAS threads, and the kernels must not depend on it;
    # the child runs at a count this process does not: 1 if it runs more, else 2
    threads = openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    other = 1 if threads is not None and threads() > 1 else 2
    lines = run_build_properties(OPENBLAS_NUM_THREADS=str(other))
    # a library that cannot report the count to this process cannot to the child
    assert threads is None or f"blas threads: {other}" in lines, lines


def test_the_build_properties_hold_on_a_forced_non_native_core():
    # another kernel class computes the products with other instructions, and
    # the kernels must not depend on it either
    native = blas_core()
    if native is None:
        pytest.skip("the bundled OpenBLAS has no scipy_openblas_get_corename64_, "
                    "so a forced core could not be confirmed")
    forced = "Sandybridge" if native == "Haswell" else "Haswell"
    assert f"blas core: {forced}" in run_build_properties(OPENBLAS_CORETYPE=forced)
