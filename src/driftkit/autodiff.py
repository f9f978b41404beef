"""Reverse-mode automatic differentiation over dense float64 arrays.

Every tensor op records a backward rule on a tape; :func:`backward` replays
the tape in reverse creation order, so the traversal visits each node exactly
once and is bitwise reproducible for a fixed graph.  Forward matrix products
go through :func:`row_matmul`, which evaluates each output row as its own
1 x k product: a row's summation order does not depend on how many rows sit
in the batch, so per-sample forward values are identical whether they are
evaluated alone or inside a minibatch.  :func:`affine` is the same kernel on
plain arrays, for forwards that need no gradient, so a tape-free evaluation
reproduces the tape's forward values bitwise.  The backward products are
plain BLAS gemm: gradients are never compared across batch compositions.

There is no switch that turns recording off.  A :class:`Tensor` is on the
tape: an op records a node exactly when one of its parents requires a
gradient.  A value that needs no gradient is computed on plain arrays
(:func:`affine` and numpy), never as a ``Tensor``.  The ops a network applies
on both backends (:func:`tanh`, :func:`clip`, :func:`exp`, :func:`square`,
:func:`concat`) take plain arrays too: given no ``Tensor``, each returns the
same numpy call's array and records nothing, so a network written once with
them runs on either backend with bitwise-equal values.

An op whose result overflows does not warn: it yields an infinity or a NaN,
and the finiteness check of every node raises :class:`AutodiffError` on it.
:func:`row_matmul` and :func:`affine` open no error-state scope of their
own: they run inside the one that the tape's :func:`matmul` and each
network's ``evaluate`` open per call, not per layer.

Broadcasting is restricted to leading-dimension expansion (a shape may be
prefixed with extra axes, nothing else); drift-field index algebra is always
reshaped explicitly at the call site.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "AutodiffError",
    "Tensor",
    "affine",
    "backward",
    "check_finite",
    "clip",
    "concat",
    "matmul",
    "minimum",
    "row_matmul",
    "topo_nodes",
]


class AutodiffError(ValueError):
    """Raised on shape mismatches, domain errors or non-finite results."""


_SEQ = itertools.count()


class Tensor:
    """Dense float64 array plus an optional gradient accumulator.

    Every backward rule captures the arrays it needs at forward time.  An
    op's result is a fresh array that nothing writes into, but a network
    parameter (``generator.Leaf``) is a view of its bundle's vector, which
    the optimizer and :meth:`generator.Dense.load` update in place: a graph
    recorded before such an update differentiates the updated values, so it
    is replayed before the parameters move.  ``grad`` is otherwise the only
    field that changes, and only by :func:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op", "_seq")

    # numpy defers to the reflected operators, so ``ndarray - Tensor`` is
    # ``Tensor.__rsub__`` rather than an object array of per-element results
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise AutodiffError("tensor initialised with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._op = "leaf"
        self._seq = next(_SEQ)

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise AutodiffError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __getitem__(self, key):
        return tslice(self, key)

    def exp(self):
        return exp(self)

    def square(self):
        return square(self)

    def tanh(self):
        return tanh(self)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def reshape(self, *shape):
        return reshape(self, shape)


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _node(data: np.ndarray, op: str, parents, backward_fn) -> Tensor:
    """Wrap a forward result, validating finiteness and recording the tape entry."""
    if not np.all(np.isfinite(data)):
        raise AutodiffError(f"op {op!r} produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    out._seq = next(_SEQ)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


# -- leading-dimension broadcasting ------------------------------------


def _expand_info(a_shape, b_shape):
    """Return (out_shape, a_lead, b_lead) or raise; only suffix-aligned expansion."""
    if a_shape == b_shape:
        return a_shape, 0, 0
    if len(a_shape) <= len(b_shape) and b_shape[len(b_shape) - len(a_shape):] == a_shape:
        return b_shape, len(b_shape) - len(a_shape), 0
    if len(b_shape) < len(a_shape) and a_shape[len(a_shape) - len(b_shape):] == b_shape:
        return a_shape, 0, len(a_shape) - len(b_shape)
    raise AutodiffError(f"shapes {a_shape} and {b_shape} do not align by leading expansion")


def _reduce_lead(g: np.ndarray, n_lead: int) -> np.ndarray:
    if n_lead == 0:
        return g
    return g.sum(axis=tuple(range(n_lead)))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _binary(a, b, op: str, fwd, da_fn, db_fn):
    a, b = _lift(a), _lift(b)
    out_shape, a_lead, b_lead = _expand_info(a.shape, b.shape)
    ad = np.broadcast_to(a.data, out_shape) if a_lead else a.data
    bd = np.broadcast_to(b.data, out_shape) if b_lead else b.data
    data = fwd(ad, bd)

    def bw(g):
        if a.requires_grad:
            _accum(a, _reduce_lead(da_fn(g, ad, bd, data), a_lead))
        if b.requires_grad:
            _accum(b, _reduce_lead(db_fn(g, ad, bd, data), b_lead))

    return _node(data, op, (a, b), bw)


# -- primitives ---------------------------------------------------------


def add(a, b):
    return _binary(a, b, "add", np.add,
                   lambda g, ad, bd, o: g,
                   lambda g, ad, bd, o: g)


def sub(a, b):
    return _binary(a, b, "sub", np.subtract,
                   lambda g, ad, bd, o: g,
                   lambda g, ad, bd, o: -g)


def mul(a, b):
    return _binary(a, b, "mul", np.multiply,
                   lambda g, ad, bd, o: g * bd,
                   lambda g, ad, bd, o: g * ad)


def div(a, b):
    return _binary(a, b, "div", np.divide,
                   lambda g, ad, bd, o: g / bd,
                   lambda g, ad, bd, o: -g * ad / (bd * bd))


@np.errstate(over="ignore", invalid="ignore")
def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise AutodiffError(f"matmul shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    data = row_matmul(ad, bd)

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ bd.T)
        if b.requires_grad:
            _accum(b, ad.T @ g)

    return _node(data, "matmul", (a, b), bw)


def row_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a (B, k) ``x``, with each row computed as its own 1 x k product.

    Every row goes through the same vector-matrix call whatever B is, so a
    row's bits do not depend on the rest of the batch (see module docstring).
    Under its caller's error-state scope, an overflow yields an infinity or a
    NaN without a warning; the caller's finiteness check raises on it.
    """
    return np.matmul(x[:, None, :], w)[:, 0]


def check_finite(data: np.ndarray, what: str) -> np.ndarray:
    """Return ``data`` unchanged, or raise if it holds a NaN or an infinity."""
    if not np.isfinite(data).all():
        raise AutodiffError(f"{what} has non-finite values")
    return data


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tape-free ``x @ w + b`` with :func:`matmul`'s forward kernel.

    The bias is added in place into the fresh product, and the result is
    checked after it; since tanh and clipping keep finite values finite,
    checking every pre-activation covers a whole tape-free MLP.  It runs
    inside its caller's error-state scope, as :func:`row_matmul` does.
    """
    out = row_matmul(x, w)
    out += b
    return check_finite(out, "affine output")


@np.errstate(over="ignore", invalid="ignore")
def exp(a):
    if not isinstance(a, Tensor):
        return np.exp(a)
    data = np.exp(a.data)
    return _node(data, "exp", (a,), lambda g: _accum(a, g * data))


@np.errstate(over="ignore", invalid="ignore")
def square(a):
    if not isinstance(a, Tensor):
        return a * a
    ad = a.data
    return _node(ad * ad, "square", (a,), lambda g: _accum(a, 2.0 * g * ad))


def tanh(a):
    if not isinstance(a, Tensor):
        return np.tanh(a)
    data = np.tanh(a.data)
    return _node(data, "tanh", (a,), lambda g: _accum(a, g * (1.0 - data * data)))


def _restore_axes(g, in_shape, axis):
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, in_shape)


def tsum(a, axis=None):
    a = _lift(a)
    data = a.data.sum(axis=axis)

    def bw(g):
        _accum(a, _restore_axes(g, a.shape, axis))

    return _node(data, "sum", (a,), bw)


def tmean(a, axis=None):
    a = _lift(a)
    data = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.data.size // data.size

    def bw(g):
        _accum(a, _restore_axes(g, a.shape, axis) / count)

    return _node(data, "mean", (a,), bw)


def clip(a, lo: float, hi: float):
    """Clamp to [lo, hi]; gradient is 1 strictly inside and 0 at or past the bounds.

    The clamp is ``np.minimum(np.maximum(a, lo), hi)``, which skips
    ``np.clip``'s Python wrapper.  With no zero bound its bits are
    ``np.clip``'s, NaN and infinities included.  At a zero bound the sign of
    a zero may differ: ``np.clip(-0.0, 0.0, 1.0)`` is -0.0, this clamp +0.0.
    """
    if not isinstance(a, Tensor):
        return np.minimum(np.maximum(a, lo), hi)
    ad = a.data
    data = np.minimum(np.maximum(ad, lo), hi)

    def bw(g):
        inside = (ad > lo) & (ad < hi)
        _accum(a, g * inside)

    return _node(data, "clip", (a,), bw)


def minimum(a, b):
    """Elementwise min; gradient follows the smaller operand (ties go to the first)."""

    def da(g, ad, bd, o):
        return g * (ad <= bd)

    def db(g, ad, bd, o):
        return g * (ad > bd)

    return _binary(a, b, "minimum", np.minimum, da, db)


def concat(parts, axis=0):
    if not any(isinstance(t, Tensor) for t in parts):
        return np.concatenate(parts, axis=axis)
    tensors = [_lift(t) for t in parts]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _node(data, "concat", tuple(tensors), bw)


def tslice(a, key):
    a = _lift(a)
    data = a.data[key]

    def bw(g):
        gp = np.zeros_like(a.data)
        gp[key] += g
        _accum(a, gp)

    return _node(data, "slice", (a,), bw)


def reshape(a, shape):
    a = _lift(a)
    data = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.shape))

    return _node(data, "reshape", (a,), bw)


# -- backward -----------------------------------------------------------


def topo_nodes(root: Tensor):
    """Nodes reachable from ``root`` through gradient-tracked edges,
    ordered by creation sequence (which is a topological order)."""
    seen = set()
    nodes = []
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._seq)
    return nodes


def backward(loss: Tensor):
    """Populate ``grad`` on every reachable tensor that requires gradients.

    Returns a map from leaf tensors (parameters and inputs) to their gradient
    arrays.  Gradients from any previous call are cleared first, so each call
    is self-contained and deterministic.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}
    nodes = topo_nodes(loss)
    for t in nodes:
        t.grad = None
    loss.grad = np.ones_like(loss.data)
    for t in reversed(nodes):
        if t._backward_fn is not None and t.grad is not None:
            t._backward_fn(t.grad)
    return {t: t.grad for t in nodes if t._backward_fn is None and t.grad is not None}
