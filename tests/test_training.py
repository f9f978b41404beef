"""Trainer mechanics: optimizer, clipping, EMA, warmup, determinism, and the
toy-dataset training curve."""

from __future__ import annotations

import numpy as np
import pytest

from driftkit.autodiff import AutodiffError, backward, clip, matmul
from driftkit.drift import DriftConfig
from driftkit.envs import synth_multimodal
from driftkit.generator import ChunkSpec, Dense, Flat, Generator, SpecError
from driftkit.training import (AdamW, NumericalAbort, TrainConfig,
                               ema_decay_at, ema_update, grad_clip, train, warmup_lr)

from .oracles import leaf_grads

SPEC = ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2)


def toy_dataset(seed=0, conditions=24):
    return synth_multimodal(modes=2, conditions=conditions, samples_per_condition=2,
                            seed=seed, spec=SPEC)


def tiny_generator(seed=0):
    return Generator(SPEC, obs_dim=6, latent_dim=4, hidden_dim=16, seed=seed)


def test_zero_steps_leave_params_untouched():
    ds = toy_dataset()
    gen = tiny_generator()
    before = gen.param_arrays()
    result = train(ds, gen, DriftConfig(), TrainConfig(steps=0, seed=1))
    assert result.metrics == []
    for name, arr in gen.param_arrays().items():
        assert np.array_equal(arr, before[name])


def test_zero_learning_rate_keeps_params_fixed():
    ds = toy_dataset()
    gen = tiny_generator()
    before = gen.param_arrays()
    result = train(ds, gen, DriftConfig(), TrainConfig(steps=5, learning_rate=0.0, seed=1))
    assert len(result.metrics) == 5
    for name, arr in gen.param_arrays().items():
        assert np.array_equal(arr, before[name])


def test_toy_training_loss_decreases_in_20_step_means():
    ds = synth_multimodal(modes=2, conditions=96, samples_per_condition=4, seed=0)
    gen = Generator(ds.spec, obs_dim=6, latent_dim=4, hidden_dim=64, seed=0)
    cfg = TrainConfig(steps=300, learning_rate=3e-3, warmup_steps=50, seed=42)
    result = train(ds, gen, DriftConfig(temperatures=(0.7,)), cfg)
    losses = np.array([m["loss"] for m in result.metrics])
    assert np.mean(losses[-20:]) < np.mean(losses[:20])
    # over the first 200 steps, the 20-step window average trends down as well
    assert np.mean(losses[180:200]) <= np.mean(losses[:20])


def test_step_wise_mode_trains_with_finite_losses():
    ds = toy_dataset()
    gen = tiny_generator()
    cfg = TrainConfig(steps=8, seed=2)
    result = train(ds, gen, DriftConfig(loss_mode="step_wise"), cfg)
    assert len(result.metrics) == 8
    assert all(np.isfinite(m["loss"]) for m in result.metrics)
    assert all(m["s_norm"] > 0 for m in result.metrics)


def bundle(**arrays) -> Dense:
    return Dense("toy", {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()})


def test_adamw_updates_leaves_in_place():
    # the leaves keep their identity and their memory: the step writes the
    # new values into the bundle's vector, which every leaf views
    rng = np.random.default_rng(17)
    params = bundle(x=rng.normal(size=(3, 4)), w=rng.normal(size=(4, 2)), b=[0.01, -0.02])
    x, w, b = params["x"], params["w"], params["b"]
    loss = ((matmul(x, w) + b).tanh().square().mean()
            + w.square().sum() + clip(b, -0.05, 0.05).sum())
    grads = leaf_grads(backward(loss), params)
    old_data = params.arrays()
    views = {name: p.data for name, p in params.items()}

    AdamW(params.keys(), lr=0.5).step(params, grads)
    assert params["x"] is x and params["w"] is w and params["b"] is b
    for name, p in params.items():
        assert p.data is views[name] and np.shares_memory(p.data, params.data.vector)
        assert not np.array_equal(p.data, old_data[name])


def test_adamw_nonfinite_update_raises_and_keeps_the_leaf():
    params = bundle(p=np.ones(3))
    old = params["p"].data
    with np.errstate(invalid="ignore"), pytest.raises(AutodiffError):
        AdamW(["p"], lr=0.1).step(params, Flat.of({"p": np.array([0.0, np.nan, 0.0])}))
    assert params["p"].data is old
    assert np.array_equal(old, np.ones(3))


def test_grad_clip_below_threshold_is_identity():
    grads = Flat.of({"a": np.array([0.3, 0.4])})
    before = grads["a"].copy()
    clipped, norm = grad_clip(grads, 1.0)
    assert norm == 0.5
    assert np.array_equal(clipped["a"], before)


def test_grad_clip_scales_down_preserving_direction():
    grads = Flat.of({"a": np.array([2.0, 0.0]), "b": np.array([0.0, 0.0])})
    clipped, norm = grad_clip(grads, 1.0)
    assert norm == 2.0
    np.testing.assert_allclose(clipped["a"], [1.0, 0.0], rtol=0, atol=0)


def test_grad_clip_random_global_norm_bound():
    rng = np.random.default_rng(0)
    grads = Flat.of({f"p{i}": rng.normal(size=(3, 3)) for i in range(4)})
    clipped, _ = grad_clip(grads, 1.0)
    total = np.sqrt(sum(np.square(g).sum() for g in clipped.values()))
    assert total <= 1.0 + 1e-12


def test_ema_fixed_point_when_shadow_equals_params():
    params = bundle(w=np.ones((2, 2)))
    shadow = Flat.of({"w": np.ones((2, 2))})
    out = ema_update(shadow, params, step=0, decay=0.9999, power=0.75)
    np.testing.assert_array_equal(out["w"], np.ones((2, 2)))


def test_ema_zero_decay_copies_params():
    params = bundle(w=np.full((2,), 5.0))
    shadow = Flat.of({"w": np.zeros(2)})
    out = ema_update(shadow, params, step=0, decay=1e-12, power=1.0)
    np.testing.assert_allclose(out["w"], params["w"].data, rtol=0, atol=1e-11)


def test_ema_converges_monotonically_to_constant_params():
    params = bundle(w=np.full((3,), 2.0))
    shadow = Flat.of({"w": np.zeros(3)})
    gaps = []
    for step in range(100):
        shadow = ema_update(shadow, params, step, decay=0.9999, power=0.75)
        gaps.append(np.linalg.norm(shadow["w"] - params["w"].data))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_ema_shape_mismatch_rejected():
    params = bundle(w=np.zeros((2, 2)))
    with pytest.raises(SpecError):
        ema_update(Flat.of({"w": np.zeros(3)}), params, 0, 0.9999, 0.75)


def test_ema_decay_schedule_ramps_to_cap():
    assert ema_decay_at(0, 0.9999, 0.75) == pytest.approx((1 / 10) ** 0.75)
    assert ema_decay_at(10**7, 0.9999, 0.75) == 0.9999


def test_warmup_is_exactly_linear():
    base = 1e-3
    for k in range(1, 500):
        assert warmup_lr(base, k, 500) == base * k / 500
    assert warmup_lr(base, 500, 500) == base
    assert warmup_lr(base, 900, 500) == base


def test_training_is_bitwise_deterministic():
    def run():
        ds = toy_dataset()
        gen = tiny_generator()
        result = train(ds, gen, DriftConfig(), TrainConfig(steps=12, seed=7))
        return gen.param_arrays(), result.ema_params, result.metrics

    p1, e1, m1 = run()
    p2, e2, m2 = run()
    for name in p1:
        assert np.array_equal(p1[name], p2[name])
        assert np.array_equal(e1[name], e2[name])
    assert m1 == m2


def test_loss_finite_throughout_default_config():
    ds = toy_dataset()
    gen = tiny_generator()
    result = train(ds, gen, DriftConfig(), TrainConfig(steps=40, seed=3))
    assert all(np.isfinite(m["loss"]) for m in result.metrics)
    assert all(np.isfinite(m["grad_norm"]) for m in result.metrics)


@pytest.mark.parametrize("power", [-1e308, -0.5, np.nan, np.inf])
def test_ema_power_must_be_finite_and_non_negative(power):
    with pytest.raises(SpecError, match=r"ema_power must be finite and >= 0"):
        TrainConfig(ema_power=power)


def test_ema_ramp_stays_in_range_at_the_ends_of_the_power_range():
    # power 0 holds the ramp at 1, so the decay is the configured one; a huge
    # finite power takes the ramp to 0 without an overflow
    assert ema_decay_at(3, 0.99, TrainConfig(ema_power=0.0).ema_power) == 0.99
    assert ema_decay_at(3, 0.99, TrainConfig(ema_power=1e308).ema_power) == 0.0


def test_empty_dataset_rejected():
    ds = toy_dataset()
    ds.observations = ds.observations[:0]
    ds.chunks = ds.chunks[:0]
    with pytest.raises(SpecError):
        train(ds, tiny_generator(), DriftConfig(), TrainConfig(steps=1))


def test_single_hypothesis_at_expert_has_zero_loss():
    # hypothesis == expert: every pool distance is zero, the scale floors,
    # and all displacement vectors vanish, so the drift and loss are exactly 0
    gen = tiny_generator()
    rng = np.random.default_rng(0)
    obs = np.zeros((2, 1, 6))
    with np.errstate(all="ignore"):
        from driftkit.drift import build_reference_pool, compute_drift_field, \
            fixed_point_loss
        chunk = np.tile(np.linspace(-0.5, 0.5, SPEC.chunk_dim), (2, 1, 1))
        pool = build_reference_pool(chunk, chunk.copy())
        config = DriftConfig(hypothesis_count=1)
        field = compute_drift_field(chunk, pool, config)
        assert field.scale == config.scale_floor
        loss, _ = fixed_point_loss(chunk, field.target, field.scale)
        assert loss == 0.0


def test_nonfinite_loss_aborts_with_dump():
    ds = toy_dataset()
    gen = tiny_generator()
    # poison one weight so the forward pass overflows into inf
    arrays = gen.param_arrays()
    arrays["head_w"] = arrays["head_w"] * 1e308
    gen.params.load(arrays)
    with pytest.raises(NumericalAbort) as err:
        train(ds, gen, DriftConfig(), TrainConfig(steps=3, seed=0))
    assert isinstance(err.value.__cause__, AutodiffError)
    assert err.value.dump["step"] == 1
    idx = err.value.dump["minibatch_indices"]
    assert len(idx) == 32 and len(set(idx)) == 32 and set(idx) <= set(range(len(ds)))


def test_config_validation():
    with pytest.raises(SpecError):
        TrainConfig(batch_size=0)
    with pytest.raises(SpecError):
        TrainConfig(beta1=1.0)
    with pytest.raises(SpecError):
        TrainConfig(ema_decay=0.0)
    with pytest.raises(SpecError):
        TrainConfig(grad_clip=0.0)
    with pytest.raises(SpecError):
        TrainConfig(checkpoint_every=-5)


def test_adamw_step_without_a_gradient_for_a_parameter_raises():
    # a bundle's gradient has every leaf of its layout; one that lacks a leaf
    # is a caller's mistake, not a zero gradient
    params = bundle(p=np.ones(3))
    old = params["p"].data
    with pytest.raises(KeyError, match="'p'"):
        AdamW(["p"], lr=0.1).step(params, Flat.of({}))
    assert params["p"].data is old
    assert np.array_equal(old, np.ones(3))
