"""The explicit Stage-1 step against the tape step it replaced.

``training.drift_train_step`` records no tape: ``drift_loss`` hands back
dL/d(hypotheses) and ``Generator.backward`` carries it through the backbone.
``tests/oracles.py::tape_drift_train_step`` is the same step on the autodiff
tape (a recorded ``Generator.forward`` and a ``backward`` replay).  The
properties pin the two together byte for byte: the loss, the scale and all
ten gradients of one step, and the parameters, EMA shadow and metrics of
whole ``train`` runs.  ``Generator.backward``'s optional feature gradient is
pinned to the tape the same way.  The last tests pin where a non-finite value
stops a step: in the step it enters, with the tape's abort dump and no
warning.
"""

from __future__ import annotations

import json
import warnings
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit import drift, training
from driftkit.autodiff import AutodiffError, Tensor, backward
from driftkit.drift import (DEFAULT_TEMPERATURES, LOSS_MODES, MULTISCALE_TEMPERATURES,
                            DriftConfig, fixed_point_loss)
from driftkit.envs import synth_multimodal
from driftkit.generator import ChunkSpec, Generator
from driftkit.training import NumericalAbort, TrainConfig, drift_train_step, train

from . import oracles
from .oracles import leaf_grads, tape_drift_train_step

PROPERTY = settings(max_examples=60, deadline=None)
temperature_sets = st.lists(st.floats(min_value=0.02, max_value=2.0), min_size=1,
                            max_size=3, unique=True)


def assert_same_step(step, ref, generator):
    """Loss, gradients (names, order, dtype, shape and bytes) and scale equal."""
    loss, grads, scale = step
    ref_loss, ref_grads, ref_scale = ref
    assert type(loss) is float and loss.hex() == ref_loss.hex()
    assert scale.hex() == ref_scale.hex()
    assert list(grads) == list(ref_grads) == list(generator.params)
    for name, grad in grads.items():
        ref_grad = ref_grads[name]
        assert (grad.dtype, grad.shape) == (ref_grad.dtype, ref_grad.shape), name
        assert grad.tobytes() == ref_grad.tobytes(), name


def perturbed_generator(spec, obs_dim, latent_dim, hidden, seed):
    """A generator whose biases, too, are away from their zero init."""
    gen = Generator(spec, obs_dim=obs_dim, latent_dim=latent_dim, hidden_dim=hidden, seed=seed)
    rng = np.random.default_rng(seed + 1)
    gen.params.load({name: arr + 0.1 * rng.standard_normal(arr.shape)
                     for name, arr in gen.params.arrays().items()})
    return gen


def step_pair(gen, obs, experts, config, seed):
    """(explicit step, tape step) on the same minibatch and latent stream; the
    two streams must end in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    step = drift_train_step(gen, obs, experts, config, rng)
    ref = tape_drift_train_step(gen, obs, experts, config, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return step, ref


@PROPERTY
@given(seed=st.integers(0, 2**16), batch=st.integers(1, 8), g=st.integers(1, 4),
       horizon=st.integers(1, 5), action_dim=st.integers(1, 3), history=st.integers(1, 2),
       obs_dim=st.integers(1, 4), latent_dim=st.integers(1, 4), hidden=st.integers(1, 9),
       mode=st.sampled_from(LOSS_MODES), temperatures=temperature_sets)
def test_property_step_is_bitwise_the_tape_step(seed, batch, g, horizon, action_dim, history,
                                                obs_dim, latent_dim, hidden, mode,
                                                temperatures):
    spec = ChunkSpec(horizon=horizon, action_dim=action_dim,
                     history_len=min(history, horizon), exec_len=1)
    gen = perturbed_generator(spec, obs_dim, latent_dim, hidden, seed)
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(batch, spec.history_len, obs_dim))
    experts = rng.uniform(-1, 1, size=(batch, spec.chunk_dim))
    config = DriftConfig(hypothesis_count=g, temperatures=tuple(temperatures), loss_mode=mode)
    step, ref = step_pair(gen, obs, experts, config, seed + 2)
    assert_same_step(step, ref, gen)


@pytest.mark.parametrize("mode, temperatures", [("chunk", DEFAULT_TEMPERATURES),
                                                ("step_wise", MULTISCALE_TEMPERATURES)])
def test_step_is_bitwise_the_tape_step_at_the_table_shape(mode, temperatures):
    # B=32, G=4, S=32, hidden 64: the benchmark's two Stage-1 configs, whose
    # gemms are large enough to take other BLAS kernels than the property's
    spec = ChunkSpec()
    gen = perturbed_generator(spec, 6, 8, 64, 3)
    rng = np.random.default_rng(4)
    obs = rng.normal(size=(32, spec.history_len, 6))
    experts = rng.uniform(-1, 1, size=(32, spec.chunk_dim))
    config = DriftConfig(temperatures=temperatures, loss_mode=mode)
    step, ref = step_pair(gen, obs, experts, config, 5)
    assert_same_step(step, ref, gen)


@PROPERTY
@given(seed=st.integers(0, 2**16), rows=st.integers(1, 8), hidden=st.integers(1, 9))
def test_property_backward_with_a_feature_gradient_is_bitwise_the_tape(seed, rows, hidden):
    # a loss that reads the observation feature too, as the PPO scale head
    # does: the feature's two contributions add as the tape added them
    spec = ChunkSpec(horizon=3, action_dim=1, history_len=1, exec_len=1)
    gen = perturbed_generator(spec, 2, 3, hidden, seed)
    rng = np.random.default_rng(seed)
    obs, z = rng.normal(size=(rows, 2)), rng.normal(size=(rows, 3))
    d_chunk, d_feat = rng.normal(size=(rows, 3)), rng.normal(size=(rows, hidden))
    chunk, feat = gen.forward(Tensor(obs), Tensor(z))
    tape = leaf_grads(backward((chunk * d_chunk).sum() + (feat * d_feat).sum()), gen.params)
    _, acts = gen.evaluate(obs, z)
    grads = gen.backward(acts, d_chunk, d_feat)
    assert list(grads) == list(tape)
    for name, grad in grads.items():
        assert grad.tobytes() == tape[name].tobytes(), name


SPEC = ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2)


def toy_dataset(seed=0):
    return synth_multimodal(modes=2, conditions=24, samples_per_condition=2, seed=seed,
                            spec=SPEC)


def train_with(step_fn, dataset, generator, drift_config, config, **kwargs):
    """``train`` with ``step_fn`` as its minibatch step."""
    with mock.patch.object(training, "drift_train_step", step_fn):
        return train(dataset, generator, drift_config, config, **kwargs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), steps=st.integers(1, 8), batch=st.integers(1, 8),
       g=st.integers(1, 4), hidden=st.integers(1, 9), mode=st.sampled_from(LOSS_MODES),
       temperatures=temperature_sets)
def test_property_train_is_bitwise_the_tape_train(seed, steps, batch, g, hidden, mode,
                                                  temperatures):
    dataset = toy_dataset(seed % 5)
    drift_config = DriftConfig(hypothesis_count=g, temperatures=tuple(temperatures),
                               loss_mode=mode)
    config = TrainConfig(steps=steps, batch_size=batch, learning_rate=3e-3, warmup_steps=3,
                         ema_decay=0.9, seed=seed)
    runs = []
    for step_fn in (drift_train_step, tape_drift_train_step):
        gen = Generator(SPEC, obs_dim=6, latent_dim=3, hidden_dim=hidden, seed=seed)
        result = train_with(step_fn, dataset, gen, drift_config, config)
        runs.append((gen.params.arrays(), result))
    (params, result), (ref_params, ref_result) = runs
    for name, arr in params.items():
        assert arr.tobytes() == ref_params[name].tobytes(), name
        assert result.ema_params[name].tobytes() == ref_result.ema_params[name].tobytes(), name
    # repr round-trips every float exactly, signed zeros included
    assert repr(result.metrics) == repr(ref_result.metrics)
    assert result.optimizer_state == ref_result.optimizer_state
    assert result.rng_state == ref_result.rng_state


# -- non-finite values ---------------------------------------------------------


def poisoned_second_target(original, bad):
    """``compute_drift_field`` whose second call returns a target holding ``bad``."""
    calls = []

    def field(*args, **kwargs):
        fld = original(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            fld.target[(0,) * fld.target.ndim] = bad
        return fld

    return field


def abort_dump(step_fn, where, bad):
    """The ``abort_dump.json`` text of a run poisoned with ``bad`` at ``where``,
    checking that it emits no warning."""
    dataset = toy_dataset()
    gen = Generator(SPEC, obs_dim=6, latent_dim=4, hidden_dim=16, seed=0)
    config = TrainConfig(steps=4, seed=0, checkpoint_every=1)

    def poison_weight(step):
        if step == 1:
            arr = gen.params["trunk2_w"].data.copy()
            arr[3, 5] = bad
            gen.params["trunk2_w"].data = arr

    if where == "observation":
        dataset.observations[40, 0, 2] = bad
    with ExitStack() as stack:
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        if where == "target":
            for owner in (drift, oracles):
                field = poisoned_second_target(drift.compute_drift_field, bad)
                stack.enter_context(mock.patch.object(owner, "compute_drift_field", field))
        with pytest.raises(NumericalAbort) as err:
            train_with(step_fn, dataset, gen, DriftConfig(), config,
                       on_checkpoint=poison_weight if where == "weight" else None)
    assert caught == []
    assert isinstance(err.value.__cause__, AutodiffError)
    if where == "observation":
        assert 40 in err.value.dump["minibatch_indices"]
    else:
        assert err.value.dump["step"] == 2
    # as cli.main writes it
    return json.dumps(err.value.dump, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("where", ["weight", "observation", "target"])
def test_non_finite_value_aborts_the_step_it_enters_as_the_tape_did(where, bad):
    assert abort_dump(drift_train_step, where, bad) == abort_dump(tape_drift_train_step,
                                                                  where, bad)


def test_overflowing_loss_gradient_raises_at_the_gradient():
    # r = 1e150 squares to a finite loss, but 2r/(N*R) with R = 1e-160 overflows
    values, target = np.full((1, 1, 2), 1e-10), np.zeros((1, 1, 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(AutodiffError, match="drift loss gradient has non-finite"):
            fixed_point_loss(values, target, 1e-160)
    assert caught == []


def test_overflowing_backbone_gradient_raises_before_the_optimizer():
    # a finite dL/d(chunk) whose product with the head weights overflows: the
    # tape let it through to AdamW, which raised on the parameter it updated
    gen = Generator(SPEC, obs_dim=6, latent_dim=4, hidden_dim=16, seed=0)
    rng = np.random.default_rng(0)
    chunk, acts = gen.evaluate(rng.normal(size=(3, 6)), rng.normal(size=(3, 4)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(AutodiffError, match="gradient of generator parameter obs_w"):
            gen.backward(acts, np.full_like(chunk, 1e308))
    assert caught == []
