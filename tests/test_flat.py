"""One flat vector per parameter bundle.

Every ``generator.Dense`` keeps its leaves' values in one contiguous vector,
each leaf's ``data`` a view of it, and a backward pass packs its gradients
into a vector of the same layout.  ``training.AdamW``, ``grad_clip`` and
``ema_update`` are whole-vector passes over them.  The properties pin those
passes byte for byte to the per-leaf loops they replaced
(``tests/oracles.py``), over several steps, single bundles and the actor's
pair of bundles.  Then: a non-finite update writes nothing, and a leaf stays
a view of its bundle through every way a bundle is built or updated.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftkit.actor import GaussianActor
from driftkit.autodiff import AutodiffError, Tensor
from driftkit.checkpoint import load_checkpoint, restore_generator, save_checkpoint
from driftkit.generator import ChunkSpec, Dense, Flat, Generator
from driftkit.ppo import Critic
from driftkit.training import AdamW, ema_update, grad_clip, warmup_lr

from .oracles import AdamWPerName, ema_update_per_name, grad_clip_per_name

SPEC = ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2)

# (fan_in, fan_out) of a bundle's layers: fan_out 1 and odd sizes included
layer_shapes = st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=3)


def random_bundle(owner: str, shapes, rng) -> Dense:
    return Dense.init(owner, rng, [(f"{owner}{i}", fan_in, fan_out)
                                   for i, (fan_in, fan_out) in enumerate(shapes)])


def state_bytes(opt) -> str:
    # repr round-trips every float exactly, signed zeros included; AdamW hands
    # over its moments as arrays, the per-name oracle as lists
    return json.dumps(opt.state(), sort_keys=True, default=np.ndarray.tolist)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), shapes=st.lists(layer_shapes, min_size=1, max_size=2),
       steps=st.integers(1, 5), max_norm=st.sampled_from([1e-3, 0.5, 1e9]),
       weight_decay=st.sampled_from([0.0, 1e-6, 0.1]), warmup=st.sampled_from([0, 3, 10]),
       grad_scale=st.sampled_from([1e-6, 1.0, 1e3]))
@example(seed=0, shapes=[[(3, 1), (1, 1)], [(5, 7)]], steps=3, max_norm=0.5, weight_decay=0.1,
         warmup=3, grad_scale=1.0)
def test_property_flat_optimizer_is_bitwise_the_per_leaf_optimizer(seed, shapes, steps, max_norm,
                                                                   weight_decay, warmup,
                                                                   grad_scale):
    # one bundle, as the generator's and the critic's optimizers step it, or
    # two, as the actor's steps the backbone and the scale head
    rng = np.random.default_rng(seed)
    bundles = tuple(random_bundle(f"b{k}", s, rng) for k, s in enumerate(shapes))
    params = bundles[0] if len(bundles) == 1 else bundles
    leaves = {name: Tensor(arr, requires_grad=True)
              for b in bundles for name, arr in b.arrays().items()}
    names = [name for b in bundles for name in b]
    opt = AdamW(names, lr=0.05, beta1=0.95, beta2=0.999, weight_decay=weight_decay)
    ref_opt = AdamWPerName(names, lr=0.05, beta1=0.95, beta2=0.999, weight_decay=weight_decay)
    shadows = [b.data.copy() for b in bundles]
    ref_shadow = {name: t.data.copy() for name, t in leaves.items()}
    assert state_bytes(opt) == state_bytes(ref_opt)
    for step in range(1, steps + 1):
        raw = {name: grad_scale * rng.standard_normal(t.shape) for name, t in leaves.items()}
        grads = [Flat.of({name: raw[name] for name in b}) for b in bundles]
        # the Stage-1 loop clips the generator's gradient; the PPO loop clips none
        grads[0], norm = grad_clip(grads[0], max_norm)
        clipped, ref_norm = grad_clip_per_name({name: raw[name] for name in bundles[0]},
                                               max_norm)
        raw.update(clipped)
        assert norm.hex() == ref_norm.hex()
        lr = warmup_lr(0.05, step, warmup)
        opt.step(params, grads[0] if len(bundles) == 1 else tuple(grads), lr=lr)
        ref_opt.step(leaves, raw, lr=lr)
        for b, shadow in zip(bundles, shadows):
            ema_update(shadow, b, step - 1, 0.9999, 0.75)
        ref_shadow = ema_update_per_name(ref_shadow, leaves, step - 1, 0.9999, 0.75)
        for b, shadow in zip(bundles, shadows):
            for name, leaf in b.items():
                assert leaf.data.tobytes() == leaves[name].data.tobytes(), name
                assert shadow[name].tobytes() == ref_shadow[name].tobytes(), name
        assert state_bytes(opt) == state_bytes(ref_opt)


def test_grad_clip_rescales_the_vector_in_place():
    grads = Flat.of({"a_w": np.full((2, 3), 2.0), "a_b": np.zeros(3)})
    vector = grads.vector
    clipped, norm = grad_clip(grads, 1.0)
    assert clipped is grads and clipped.vector is vector and norm == np.sqrt(24.0)
    assert np.shares_memory(clipped["a_w"], vector)


# -- atomic update ------------------------------------------------------------


def overflowing_pair():
    """Two bundles whose AdamW step at lr 1e308 overflows only in the second
    bundle's ``y_b``: its values are -1e308, and every gradient is 1."""
    first = Dense("first", {"x_w": np.zeros((2, 2)), "x_b": np.zeros(2)})
    second = Dense("second", {"y_w": np.zeros((2, 1)), "y_b": np.array([-1e308])})
    grads = tuple(Flat.of({name: np.ones(arr.shape) for name, arr in b.data.items()})
                  for b in (first, second))
    return (first, second), grads


def test_non_finite_update_names_the_leaf_and_writes_nothing():
    bundles, grads = overflowing_pair()
    opt = AdamW([name for b in bundles for name in b], lr=1e-3)
    # a first step that succeeds, so m, v and the step count have moved
    opt.step(bundles, grads)
    before = [b.arrays() for b in bundles]
    state = state_bytes(opt)
    opt.lr = 1e308
    with pytest.raises(AutodiffError, match="AdamW update of y_b has non-finite values"):
        opt.step(bundles, grads)
    # the first bundle's update was finite, and it is not written either
    for b, arrays in zip(bundles, before):
        for name, arr in arrays.items():
            assert b[name].data.tobytes() == arr.tobytes(), name
    assert state_bytes(opt) == state and opt.step_count == 1


def test_state_hands_over_views_of_the_moments_that_later_steps_leave_alone():
    bundles, grads = overflowing_pair()
    opt = AdamW([name for b in bundles for name in b], lr=1e-3)
    opt.step(bundles, grads)
    state = opt.state()
    # no list is built: each entry is a view of its bundle's m or v vector
    for which, moment in enumerate(("m", "v")):
        for (name, arr), vector in zip(state[moment].items(),
                                       [mv[which] for b, mv in zip(bundles, opt.moments)
                                        for _ in b]):
            assert np.shares_memory(arr, vector), (moment, name)
    first = json.dumps(state, sort_keys=True, default=np.ndarray.tolist)
    opt.step(bundles, grads)
    # the next step makes new vectors, so a state handed over earlier keeps its values
    assert json.dumps(state, sort_keys=True, default=np.ndarray.tolist) == first
    assert state_bytes(opt) != first


def test_non_finite_first_update_leaves_no_moments():
    bundles, grads = overflowing_pair()
    opt = AdamW([name for b in bundles for name in b], lr=1e308)
    with pytest.raises(AutodiffError, match="y_b"):
        opt.step(bundles, grads)
    assert opt.step_count == 0
    assert set(opt.state()["m"].values()) == set(opt.state()["v"].values()) == {None}
    assert bundles[1]["y_b"].data[0] == -1e308


def test_step_with_other_bundles_than_the_names_raises():
    bundles, grads = overflowing_pair()
    with pytest.raises(KeyError, match="stepped with"):
        AdamW(list(bundles[0]), lr=1e-3).step(bundles, grads)


# -- leaves stay views ----------------------------------------------------------


def assert_views(bundle: Dense) -> None:
    assert list(bundle) == list(bundle.data)
    for name, leaf in bundle.items():
        assert leaf.data is bundle.data[name], name
        assert np.shares_memory(leaf.data, bundle.data.vector), name
        assert leaf.data.flags.c_contiguous and leaf.requires_grad


def networks(gen: Generator, actor: GaussianActor, critic: Critic):
    return gen.params, actor.head, critic.params


def test_every_leaf_stays_a_view_of_its_bundle(tmp_path):
    gen = Generator(SPEC, obs_dim=6, latent_dim=3, hidden_dim=5, seed=1)
    actor, critic = GaussianActor(gen), Critic(6, hidden_dim=5, seed=2)
    for bundle in networks(gen, actor, critic):
        assert_views(bundle)
    assert actor.bundles == (gen.params, actor.head)
    # load copies into the views; the source arrays stay the caller's
    arrays = {name: arr + 1.0 for name, arr in gen.params.arrays().items()}
    gen.params.load(arrays)
    assert_views(gen.params)
    assert all(not np.shares_memory(arr, gen.params.data.vector) for arr in arrays.values())
    twin = gen.clone()
    assert_views(twin.params)
    assert not np.shares_memory(twin.params.data.vector, gen.params.data.vector)
    # restore_generator from a saved document
    shadow = gen.params.data.copy()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen, ema_params=shadow)
    doc = load_checkpoint(path)
    for bundle in (restore_generator(doc).params, restore_generator(doc, use_ema=True).params):
        assert_views(bundle)
    # an AdamW step of the actor's two bundles and of the critic, then an EMA step
    rng = np.random.default_rng(3)
    opt = AdamW(actor.parameters().keys(), lr=1e-2)
    opt.step(actor.bundles, tuple(Flat.of({n: rng.standard_normal(a.shape)
                                           for n, a in b.data.items()})
                                  for b in actor.bundles))
    AdamW(critic.params.keys(), lr=1e-2).step(
        critic.params, Flat.of({n: np.ones(a.shape) for n, a in critic.params.data.items()}))
    vector = shadow.vector
    assert ema_update(shadow, gen.params, 0, 0.9999, 0.75) is shadow and shadow.vector is vector
    for bundle in networks(gen, actor, critic):
        assert_views(bundle)
    assert all(np.shares_memory(arr, vector) for arr in shadow.values())


def test_rebinding_a_leaf_or_an_entry_raises():
    bundle = Dense("toy", {"a_w": np.ones((2, 2)), "a_b": np.zeros(2)})
    view = bundle["a_w"].data
    with pytest.raises(AttributeError, match="write into it"):
        bundle["a_w"].data = np.zeros((2, 2))
    with pytest.raises(TypeError, match="write into it"):
        bundle.data["a_b"] = np.ones(2)
    assert bundle["a_w"].data is view and np.array_equal(view, np.ones((2, 2)))
    bundle["a_w"].data[...] = 3.0
    assert np.array_equal(bundle.data.vector, [3.0, 3.0, 3.0, 3.0, 0.0, 0.0])


def test_backward_packs_the_gradient_in_parameter_order():
    gen = Generator(SPEC, obs_dim=6, latent_dim=3, hidden_dim=5, seed=1)
    rng = np.random.default_rng(0)
    chunk, acts = gen.evaluate(rng.standard_normal((4, 6)), rng.standard_normal((4, 3)))
    grads = gen.backward(acts, rng.standard_normal(chunk.shape))
    assert grads.layout == gen.params.data.layout
    assert np.array_equal(grads.vector, np.concatenate([g.ravel() for g in grads.values()]))
    assert all(np.shares_memory(g, grads.vector) for g in grads.values())
