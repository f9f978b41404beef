"""Primitive-by-primitive gradient checks against central finite differences,
plus the tape-recording rule, the array forms of the ops, silent overflow,
the export lists and the reproducibility contracts."""

from __future__ import annotations

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftkit
from driftkit import autodiff as ad
from driftkit.autodiff import AutodiffError, Tensor, backward

from .oracles import finite_diff


def rel_err(a, b):
    denom = np.maximum(np.abs(b), 1e-8)
    return np.max(np.abs(a - b) / denom)


def scalar_loss_grad(build, x0):
    """Gradient of sum(build(x)) via the tape."""
    x = Tensor(x0, requires_grad=True)
    loss = build(x).sum()
    grads = backward(loss)
    return grads[x]


def fd_grad(build, x0, h=1e-5):
    return finite_diff(lambda arr: float(np.sum(_forward_np(build, arr))), x0.copy(), h)


def _forward_np(build, arr):
    return build(Tensor(arr)).data


UNARY_CASES = [
    ("exp", lambda x: x.exp(), 1e-5),
    ("square", lambda x: x.square(), 1e-5),
    ("tanh", lambda x: x.tanh(), 1e-5),
    ("sum_axis", lambda x: x.sum(axis=1), 1e-5),
    ("mean_axis", lambda x: x.mean(axis=0), 1e-5),
    ("reshape", lambda x: x.reshape(12).square(), 1e-5),
    ("slice", lambda x: x[1:, :2].square(), 1e-5),
    ("clip", lambda x: ad.clip(x, -1.5, 1.5), 1e-3),
]


@pytest.mark.parametrize("name,build,tol", UNARY_CASES)
def test_unary_gradients_match_finite_differences(name, build, tol):
    rng = np.random.default_rng(hash(name) % 2**32)
    x0 = rng.uniform(-2.0, 2.0, size=(3, 4))
    if name == "clip":
        # keep away from the non-smooth points
        x0 = np.where(np.abs(np.abs(x0) - 1.5) < 0.05, 0.3, x0)
    analytic = scalar_loss_grad(build, x0)
    numeric = fd_grad(build, x0)
    assert rel_err(analytic, numeric) < tol


BINARY_CASES = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div", lambda a, b: a / (b + 4.0)),
    ("minimum", lambda a, b: ad.minimum(a, b + 0.1)),
]


@pytest.mark.parametrize("name,build", BINARY_CASES)
def test_binary_gradients_match_finite_differences(name, build):
    rng = np.random.default_rng(hash(name) % 2**32)
    a0 = rng.uniform(-2.0, 2.0, size=(3, 4))
    b0 = rng.uniform(-2.0, 2.0, size=(3, 4))
    tol = 1e-3 if name == "minimum" else 1e-5
    for which, fixed in (("a", b0), ("b", a0)):
        def wrap(x):
            if which == "a":
                return build(x, Tensor(fixed))
            return build(Tensor(fixed), x)
        assert rel_err(scalar_loss_grad(wrap, a0 if which == "a" else b0),
                       fd_grad(wrap, a0 if which == "a" else b0)) < tol


def test_leading_broadcast_gradients():
    rng = np.random.default_rng(0)
    a0 = rng.uniform(-1, 1, size=(4,))
    b0 = rng.uniform(-1, 1, size=(3, 4))

    def wrap(x):
        return x + Tensor(b0)

    analytic = scalar_loss_grad(wrap, a0)
    numeric = fd_grad(wrap, a0)
    assert rel_err(analytic, numeric) < 1e-6

    with pytest.raises(AutodiffError):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a0 = rng.uniform(-1, 1, size=(2, 3))
    b0 = rng.uniform(-1, 1, size=(3, 2))

    def wrt_a(x):
        return ad.matmul(x, Tensor(b0))

    def wrt_b(x):
        return ad.matmul(Tensor(a0), x)

    assert rel_err(scalar_loss_grad(wrt_a, a0), fd_grad(wrt_a, a0)) < 1e-6
    assert rel_err(scalar_loss_grad(wrt_b, b0), fd_grad(wrt_b, b0)) < 1e-6


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    grads = backward(x.sum())
    np.testing.assert_array_equal(grads[x], np.ones((2, 3)))


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    sizes = [(5, 8), (8,), (8, 6), (6,), (6, 1), (1,)]
    params = [rng.normal(scale=0.5, size=s) for s in sizes]
    x_in = rng.normal(size=(4, 5))

    def loss_fn(plist):
        w1, b1, w2, b2, w3, b3 = [Tensor(p, requires_grad=True) for p in plist]
        h = ad.matmul(Tensor(x_in), w1) + b1
        h = h.tanh()
        h = (ad.matmul(h, w2) + b2).tanh()
        out = ad.matmul(h, w3) + b3
        loss = out.square().mean()
        return loss, [w1, b1, w2, b2, w3, b3]

    loss, tensors = loss_fn(params)
    grads = backward(loss)
    for i, t in enumerate(tensors):
        def fd_target(arr):
            trial = [p.copy() for p in params]
            trial[i] = arr
            value, _ = loss_fn(trial)
            return value.item()
        numeric = finite_diff(fd_target, params[i].copy())
        assert rel_err(grads[t], numeric) < 1e-5


def test_same_graph_is_bitwise_reproducible():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(4, 4))
    w0 = rng.normal(size=(4, 4))

    def run():
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        h = ad.matmul(x, w).tanh()
        wide = ad.concat([h.exp(), ad.clip(h, -0.5, 0.5)], axis=1)
        loss = (wide.square().mean(axis=0) / (h.square().sum() + 1.0)).sum()
        grads = backward(loss)
        return loss.data.copy(), grads[x].copy(), grads[w].copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_clip_boundary_gradient_is_zero():
    x = Tensor([-2.0, -1.0, 0.0, 1.0, 2.0], requires_grad=True)
    grads = backward(ad.clip(x, -1.0, 1.0).sum())
    np.testing.assert_array_equal(grads[x], [0.0, 0.0, 1.0, 0.0, 0.0])


CLIP_SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308]
CLIP_BOUNDS = [(-5.0, 1.0), (-40.0, 40.0), (0.8, 1.2), (-1.0, 1.0)]
NONZERO = st.floats(allow_nan=False, allow_infinity=False).filter(bool)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from(CLIP_SPECIALS) | st.floats(), min_size=1, max_size=32),
       bounds=st.sampled_from(CLIP_BOUNDS) | st.tuples(NONZERO, NONZERO).map(sorted)
       | st.tuples(st.sampled_from([0.0, -0.0]), NONZERO).map(sorted))
def test_clip_has_np_clip_bits_unless_a_bound_is_zero(values, bounds):
    lo, hi = bounds
    x = np.array(values)
    got, want = ad.clip(x, lo, hi), np.clip(x, lo, hi)
    if lo and hi:
        assert got.tobytes() == want.tobytes()
    else:
        # the same values; only the sign of a zero may differ
        np.testing.assert_array_equal(got, want)
    # one clip with a zero bound where they do differ
    assert np.signbit(np.clip(-0.0, 0.0, 1.0)) and not np.signbit(ad.clip(-0.0, 0.0, 1.0))


def test_concat_roundtrip_gradients():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
    out = ad.concat([a, b], axis=1)
    grads = backward((out * Tensor(np.arange(10.0).reshape(2, 5))).sum())
    np.testing.assert_array_equal(grads[a], [[0.0, 1.0], [5.0, 6.0]])
    np.testing.assert_array_equal(grads[b], [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])


def test_domain_and_shape_errors():
    with pytest.raises(AutodiffError):
        Tensor([1.0]) / Tensor([0.0])
    with pytest.raises(AutodiffError):
        Tensor([1000.0]).exp()
    with pytest.raises(AutodiffError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(AutodiffError):
        Tensor([float("nan")])
    with pytest.raises(AutodiffError):
        backward(Tensor(np.zeros(3), requires_grad=True) * 2.0)


@pytest.mark.parametrize("op", [
    lambda x: x.exp(),
    lambda x: x.square(),
    lambda x: x * x,
    lambda x: x + x,
    lambda x: x / Tensor([1e-300]),
], ids=["exp", "square", "mul", "add", "div"])
def test_overflow_raises_without_a_warning(op):
    # RuntimeWarnings are errors in this suite, so a warning would fail the test
    with pytest.raises(AutodiffError, match="non-finite"):
        op(Tensor([1e308], requires_grad=True))


def test_node_is_recorded_exactly_when_a_parent_requires_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 3.0])
    on_tape = (x * c).sum()
    assert on_tape.requires_grad and on_tape._parents
    off_tape = (c * c).sum()
    assert not off_tape.requires_grad and off_tape._parents == ()
    assert backward(off_tape) == {}
    assert on_tape.item() == 9.0


# The ops a network applies on both backends, each on two same-shape operands.
BACKEND_OPS = {
    "tanh": lambda x, y: ad.tanh(x),
    "clip": lambda x, y: ad.clip(x, -0.5, 0.75),
    "exp": lambda x, y: ad.exp(x),
    "square": lambda x, y: ad.square(x),
    "concat": lambda x, y: ad.concat([x, y], axis=1),
}


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from(sorted(BACKEND_OPS)), rows=st.integers(min_value=1, max_value=6),
       cols=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.floats(min_value=0.01, max_value=20.0))
def test_ops_on_arrays_return_the_tape_values_and_record_nothing(op, rows, cols, seed, scale):
    rng = np.random.default_rng(seed)
    x, y = scale * rng.standard_normal((2, rows, cols))
    before = next(ad._SEQ)
    out = BACKEND_OPS[op](x, y)
    assert next(ad._SEQ) == before + 1  # no tensor was created in between
    assert type(out) is np.ndarray
    tape = BACKEND_OPS[op](Tensor(x, requires_grad=True), Tensor(y, requires_grad=True))
    assert tape.requires_grad
    assert np.array_equal(out, tape.data)


@pytest.mark.parametrize("op", [operator.sub, operator.mul], ids=["sub", "mul"])
@pytest.mark.parametrize("left", [
    np.linspace(-1.0, 2.0, 12).reshape(3, 4),
    np.linspace(-1.0, 2.0, 4),
    np.float64(-1.5),
], ids=["same-shape", "leading-broadcast", "numpy-scalar"])
def test_array_first_operators_record_like_the_tensor_first_form(op, left):
    right = np.linspace(0.5, -2.0, 12).reshape(3, 4)
    b = Tensor(right, requires_grad=True)
    out = op(left, b)
    assert isinstance(out, Tensor) and out.requires_grad
    b_lifted = Tensor(right, requires_grad=True)
    lifted = op(Tensor(left), b_lifted)
    assert np.array_equal(out.data, lifted.data)
    assert np.array_equal(backward(out.square().sum())[b],
                          backward(lifted.square().sum())[b_lifted])


@pytest.mark.parametrize("module", [driftkit, ad], ids=["driftkit", "autodiff"])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
