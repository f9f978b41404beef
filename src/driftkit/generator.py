"""One-step conditional action-chunk generator.

A small tanh MLP maps (flattened observation history, latent) to a flattened
H x d_a action chunk in exactly one forward evaluation.  The observation
embedding activation doubles as the state feature consumed by the Stage-2
scale head, so it is returned alongside the chunk.

The network is written once (:func:`_backbone`) with engine ops that take
either backend, and evaluated either on the autodiff tape
(:meth:`Generator.forward`, the tests' gradient oracle) or on plain arrays
(:meth:`Generator.evaluate`, the one batched tape-free entry point).  Both run the
same numpy calls around the same row-invariant kernel
(:func:`autodiff.row_matmul`), so their values agree bitwise, and a row's
values do not depend on its batch.  :meth:`Generator.evaluate` also hands
back the activations as a plain tuple, which a values-only caller drops for
nothing, and :meth:`Generator.backward` is the backbone's reverse pass
written out, each product in the tape's order, so its gradients equal the
tape's bitwise.

A batch-1 decision (:meth:`Generator.generate`) runs the same layers
through the generator's :class:`Workspace`, with one finiteness check, over
every pre-activation after the run, and the bits of its row of a batched
:meth:`Generator.evaluate` (``tests/test_inference.py``).

The JSON helpers at the end of the module own the format of every JSON file:
configs, checkpoints and dataset metadata are read through one typed reader
(:func:`read_keys`), and indented files are written by :func:`write_json`.
"""

from __future__ import annotations

import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import Tensor, affine, check_finite, concat, matmul, tanh


class SpecError(ValueError):
    """The one error for a rejected setting, input file or argument, in every
    module: bad geometry or configuration, a malformed config, checkpoint or
    dataset, an input of the wrong shape.  The CLI prints it as ``config
    error: ...`` and exits 2; a non-finite value is ``AutodiffError`` instead."""


@dataclass(frozen=True)
class ChunkSpec:
    """Receding-horizon geometry: predict H steps, execute H_e starting at T_o."""

    horizon: int = 16
    action_dim: int = 2
    history_len: int = 2
    exec_len: int = 8

    def __post_init__(self):
        if self.horizon < 1 or self.action_dim < 1:
            raise SpecError("horizon and action_dim must be positive")
        if not (1 <= self.history_len <= self.horizon):
            raise SpecError(f"history_len must lie in [1, {self.horizon}]")
        if not (1 <= self.exec_len <= self.horizon - self.history_len + 1):
            raise SpecError(
                f"exec_len must lie in [1, {self.horizon - self.history_len + 1}]")

    @property
    def chunk_dim(self) -> int:
        return self.horizon * self.action_dim

    @property
    def exec_dim(self) -> int:
        return self.exec_len * self.action_dim

    @property
    def exec_start(self) -> int:
        """0-based first executed step (chunk index T_o in 1-based terms)."""
        return self.history_len - 1

    def exec_slice(self) -> slice:
        """Flat-coordinate slice of the executed prefix inside the chunk."""
        lo = self.exec_start * self.action_dim
        return slice(lo, lo + self.exec_dim)

    def to_dict(self) -> dict:
        return asdict(self)


def executed_prefix(chunk: np.ndarray, spec: ChunkSpec) -> np.ndarray:
    """Slice the executed sub-window [T_o, T_o + H_e - 1] out of a chunk."""
    chunk = np.asarray(chunk, dtype=np.float64)
    grid = chunk.reshape(spec.horizon, spec.action_dim)
    return grid[spec.exec_start:spec.exec_start + spec.exec_len].copy()


class Flat(dict):
    """Named arrays that are reshaped views of one contiguous float64 ``vector``.

    ``layout`` lists ``(name, shape)`` in vector order.  A whole-bundle pass
    (an optimizer step, an EMA step, a rescale) is one operation on
    ``vector``; a per-name reader sees the same bits through the views.  An
    entry is written through (``flat[name][...] = x``); rebinding it would
    detach it from the vector, so it raises.
    """

    def __init__(self, layout, vector: np.ndarray | None = None):
        self.layout = tuple(layout)
        sizes = [math.prod(shape) for _, shape in self.layout]
        self.vector = np.zeros(sum(sizes)) if vector is None else vector
        offset = 0
        for (name, shape), size in zip(self.layout, sizes):
            dict.__setitem__(self, name, self.vector[offset:offset + size].reshape(shape))
            offset += size

    @classmethod
    def of(cls, arrays: dict) -> "Flat":
        """A copy of ``arrays``, laid out in their order."""
        flat = cls((name, np.shape(arr)) for name, arr in arrays.items())
        for name, arr in arrays.items():
            flat[name][...] = arr
        return flat

    def copy(self) -> "Flat":
        return Flat(self.layout, self.vector.copy())

    def checked(self, what: str) -> "Flat":
        """``self``; ``AutodiffError`` naming the first entry that holds a NaN
        or an infinity (``"<what> <name> has non-finite values"``)."""
        if not np.isfinite(self.vector).all():
            for name, arr in self.items():
                check_finite(arr, f"{what} {name}")
        return self

    def __setitem__(self, name, value):
        raise TypeError(f"{name!r} is a view of a flat vector: write into it")


_TENSOR_DATA = Tensor.data


class Leaf(Tensor):
    """A parameter: a tape leaf whose ``data`` is a fixed view of its bundle's
    vector.  Updates write through the view (``leaf.data[...] = x``);
    assigning ``data`` raises, so a leaf cannot leave its bundle."""

    __slots__ = ()

    def _bind(self, view):
        try:
            _TENSOR_DATA.__get__(self)
        except AttributeError:  # the one binding, by Tensor.__init__
            return _TENSOR_DATA.__set__(self, view)
        raise AttributeError("a parameter leaf's data is a view of its bundle's vector; "
                             "write into it with leaf.data[...] = value")

    data = property(_TENSOR_DATA.__get__, _bind)


class Dense(dict):
    """The leaf parameters of a network's dense layers, by name.

    Layer ``name`` owns the leaves ``{name}_w`` (fan_in, fan_out) and
    ``{name}_b``.  Every value lives in one contiguous vector, ``data`` (a
    :class:`Flat`), and each leaf's ``data`` is a view of it; a gradient is a
    :class:`Flat` of the same layout (:meth:`checked`).  The bundle builds
    the leaves, copies them out (:meth:`arrays`), copies arrays into them
    (:meth:`load`), evaluates one layer on either backend (:meth:`linear`)
    and differentiates it (:meth:`backward`).
    """

    def __init__(self, owner: str, arrays: dict):
        self.owner = owner
        self.data = Flat.of(arrays)
        super().__init__((name, Leaf(view, requires_grad=True))
                         for name, view in self.data.items())
        # layer -> its weight's and bias's names and views
        self._layers = {w[:-2]: (w, w[:-2] + "_b", self.data[w], self.data[w[:-2] + "_b"])
                        for w in self if w.endswith("_w")}

    @classmethod
    def init(cls, owner: str, rng: np.random.Generator, layers) -> "Dense":
        """Layers given as ``(name, fan_in, fan_out)``.

        Each weight is drawn N(0, 1/fan_in), in layer order; biases start at 0.
        """
        arrays = {}
        for name, fan_in, fan_out in layers:
            arrays[f"{name}_w"] = rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
            arrays[f"{name}_b"] = np.zeros(fan_out)
        return cls(owner, arrays)

    def arrays(self) -> dict[str, np.ndarray]:
        """A copy of every leaf's array."""
        return {name: arr.copy() for name, arr in self.data.items()}

    def load(self, arrays: dict) -> None:
        """Copy the same-named array into every leaf.

        The names must match exactly, every shape must agree and every value
        must be finite; nothing is written unless all entries check out.
        """
        missing = sorted(set(self) - set(arrays))
        unexpected = sorted(set(arrays) - set(self))
        if missing or unexpected:
            raise SpecError(f"{self.owner} parameters: missing {missing}, "
                            f"unexpected {unexpected}")
        checked = {}
        for name, current in self.data.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != current.shape:
                raise SpecError(f"{self.owner} parameter {name}: shape {arr.shape} "
                                f"!= expected {current.shape}")
            checked[name] = check_finite(arr, f"{self.owner} parameter {name}")
        for name, arr in checked.items():
            self.data[name][...] = arr

    def linear(self, x, layer: str):
        """``x @ w + b`` of one layer: recorded on the tape for a ``Tensor`` ``x``,
        with :func:`affine` on the leaves' arrays for an array ``x``."""
        w_name, b_name, w, b = self._layers[layer]
        if isinstance(x, Tensor):
            return matmul(x, self[w_name]) + self[b_name]
        return affine(x, w, b)

    def backward(self, grads: dict, layer: str, x: np.ndarray, g: np.ndarray,
                 to_input: bool = True) -> np.ndarray | None:
        """Reverse of :meth:`linear` on arrays, from dL/d(output) ``g``.

        Puts the weight gradient ``x.T @ g`` and the bias gradient
        ``g.sum(axis=0)`` into ``grads`` and returns dL/d(x) ``g @ w.T``; a
        network input (``to_input=False``) gets none.  Each is the tape rule's
        expression with its operand order, so the bits are the tape's.
        """
        w_name, b_name, w, _ = self._layers[layer]
        grads[w_name] = x.T @ g
        grads[b_name] = g.sum(axis=0)
        return g @ w.T if to_input else None

    def checked(self, grads: dict) -> Flat:
        """``grads`` packed into one vector of the bundle's layout; ``AutodiffError``
        naming the first that holds a NaN or an infinity.

        A fresh vector made here, after the step's other arrays, keeps the
        allocator from trimming and refaulting them every step, which a
        long-lived buffer written in place did (DECISIONS.md, "One flat
        vector per bundle")."""
        flat = Flat(self.data.layout, np.concatenate([grads[name].ravel() for name in self]))
        return flat.checked(f"gradient of {self.owner} parameter")


def _backbone(p: Dense, obs, z):
    """The chunk of the generator MLP on either backend, and its activations
    ``(obs, z, feat, lat, cat, h1, h2)``: every dense layer's input and every
    tanh output, which :meth:`Generator.backward` reads (``[2]`` is the
    observation feature)."""
    feat = tanh(p.linear(obs, "obs"))
    lat = tanh(p.linear(z, "lat"))
    cat = concat([feat, lat], axis=1)
    h1 = tanh(p.linear(cat, "trunk1"))
    h2 = tanh(p.linear(h1, "trunk2"))
    return p.linear(h2, "head"), (obs, z, feat, lat, cat, h1, h2)


def tanh_grad(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """dL/d(pre-activation) of ``a = tanh(pre)``, as the tape's tanh rule."""
    return g * (1.0 - a * a)


class Workspace:
    """The buffers of one batch-1 evaluation, allocated once per generator.

    ``x`` holds the flattened observation, then the latent; ``pre`` the
    pre-activations of the obs, lat, trunk1 and trunk2 layers (H each), then
    the head's D; ``act`` their tanh outputs, ``feat`` first.  The feature and
    latent activations are adjacent, so trunk1 reads them as one vector with
    no concat.  Every layer is ``x.dot(w, out=pre_k)`` of a 1-D input into its
    ``pre`` segment, the bias added in place, then ``np.tanh`` into its ``act``
    segment, on fixed views of the parameters (:meth:`Dense.load` and the
    optimizer write in place, so the next :meth:`run` reads the new values).
    Its buffers are reused by every call, so one generator makes one batch-1
    decision at a time.
    """

    def __init__(self, gen: "Generator"):
        width, h = gen.spec.history_len * gen.obs_dim, gen.hidden_dim
        self.x = np.empty(width + gen.latent_dim)
        self.pre = np.empty(4 * h + gen.spec.chunk_dim)
        self.zero = np.zeros_like(self.pre)  # pre . zero is NaN iff pre is not finite
        self.act = np.empty(4 * h)
        self.obs, self.z = self.x[:width], self.x[width:]
        self.feat, self.chunk = self.act[:h], self.pre[4 * h:]
        layers, act = gen.params._layers, self.act
        inputs = {"obs": self.obs, "lat": self.z, "trunk1": act[:2 * h], "trunk2": act[2 * h:3 * h]}
        # (input, weight, bias, pre-activation, activation) of each tanh layer
        self.layers = [(x, *layers[name][2:], self.pre[k * h:(k + 1) * h], act[k * h:(k + 1) * h])
                       for k, (name, x) in enumerate(inputs.items())]
        self.head = (act[3 * h:], *layers["head"][2:])

    def run(self) -> np.ndarray:
        """The ``chunk`` segment of ``pre`` for the inputs in ``x``, unchecked:
        a NaN or an infinity, from the inputs or from an overflow, stays in
        ``pre`` (although tanh maps an overflow to +-1), where the caller
        checks it.  Runs in its caller's error-state scope."""
        for x, w, b, pre, act in self.layers:
            x.dot(w, out=pre)
            pre += b
            np.tanh(pre, out=act)
        x, w, b = self.head
        x.dot(w, out=self.chunk)
        self.chunk += b
        return self.chunk


class Generator:
    """The one-step backbone f(obs_hist, z) -> flattened action chunk.

    ``nfe_count`` counts network evaluations per row: a :meth:`forward` or
    :meth:`evaluate` call on B rows adds B, a :meth:`generate` call adds 1,
    and a call that raises adds nothing.  The deployment and evaluation
    loops check one evaluation per decision against it.
    """

    def __init__(self, spec: ChunkSpec, obs_dim: int, latent_dim: int = 8,
                 hidden_dim: int = 64, seed: int = 0):
        if obs_dim < 1 or latent_dim < 1 or hidden_dim < 1:
            raise SpecError("dimensions must be positive")
        if seed < 0:
            raise SpecError("generator init seed must be >= 0")
        self.spec = spec
        self.obs_dim = obs_dim
        self.latent_dim = latent_dim
        self.hidden_dim = hidden_dim
        self.nfe_count = 0
        h = hidden_dim
        self.params = Dense.init("generator", np.random.default_rng(seed), (
            ("obs", spec.history_len * obs_dim, h), ("lat", latent_dim, h),
            ("trunk1", 2 * h, h), ("trunk2", h, h), ("head", h, spec.chunk_dim)))
        self.workspace = Workspace(self)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return self.params.arrays()

    def clone(self) -> "Generator":
        twin = Generator(self.spec, self.obs_dim, self.latent_dim, self.hidden_dim)
        twin.params.load(self.params.data)
        return twin

    # -- forward --------------------------------------------------------

    def forward(self, obs_flat: Tensor, z: Tensor) -> tuple[Tensor, Tensor]:
        """One network evaluation on a batch of rows, recorded on the tape.

        Returns the (B, D) chunk batch and the (B, hidden) observation feature.
        """
        chunk, acts = _backbone(self.params, obs_flat, z)
        self.nfe_count += obs_flat.shape[0]
        return chunk, acts[2]

    @np.errstate(over="ignore", invalid="ignore")
    def evaluate(self, obs_flat: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, tuple]:
        """One network evaluation without the tape: the (B, D) chunk batch and
        the :func:`_backbone` activations that :meth:`backward` differentiates
        through (``[2]`` is the observation feature).

        Both inputs are checked first: an observation that is not
        (B, T_o * d_o) or a latent that is not (B, C) raises ``SpecError``
        naming the expected shape, and a non-finite input ``AutodiffError``.
        A non-finite pre-activation raises ``AutodiffError`` too, as the tape
        would, and without a warning: the call's one error-state scope covers
        every layer.  The rows count only once every layer has passed.
        """
        obs_flat, z = self._checked(obs_flat, z)
        out = _backbone(self.params, obs_flat, z)
        self.nfe_count += obs_flat.shape[0]
        return out

    def _checked(self, obs_flat, z) -> tuple[np.ndarray, np.ndarray]:
        """The (B, T_o * d_o) observation and (B, C) latent as float64 arrays:
        the checks of :meth:`evaluate`, and of :meth:`generate` once its
        sizes or its finiteness check fail, so every message comes from here."""
        obs_flat = np.asarray(obs_flat, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        width = self.spec.history_len * self.obs_dim
        if obs_flat.ndim != 2 or obs_flat.shape[1] != width:
            raise SpecError(f"observation input has shape {obs_flat.shape}, "
                            f"expected (rows, {width})")
        if z.shape != (obs_flat.shape[0], self.latent_dim):
            raise SpecError(f"latent input has shape {z.shape}, "
                            f"expected {(obs_flat.shape[0], self.latent_dim)}")
        check_finite(obs_flat, "observation input")
        check_finite(z, "latent input")
        return obs_flat, z

    @np.errstate(over="ignore", invalid="ignore")
    def backward(self, acts: tuple, d_chunk: np.ndarray,
                 d_feat: np.ndarray | None = None) -> Flat:
        """The gradient of every parameter, by name in parameter order, from
        dL/d(chunk) and, if the loss also reads the observation feature, dL/d(feat).

        Reverse mode written out for the five dense layers of :meth:`evaluate`
        (whose ``acts`` it takes): :meth:`Dense.backward` for each layer,
        :func:`tanh_grad` for each tanh, and a column split for the concat.
        The inputs get no gradient.  Raises ``AutodiffError`` if a gradient
        holds a NaN or an infinity.
        """
        obs, z, feat, lat, cat, h1, h2 = acts
        p, grads = self.params, {}
        g = tanh_grad(p.backward(grads, "head", h2, d_chunk), h2)
        g = tanh_grad(p.backward(grads, "trunk2", h1, g), h1)
        g = p.backward(grads, "trunk1", cat, g)
        width = feat.shape[1]
        g_feat, g_lat = g[:, :width], g[:, width:]
        if d_feat is not None:
            g_feat = d_feat + g_feat
        p.backward(grads, "lat", z, tanh_grad(g_lat, lat), to_input=False)
        p.backward(grads, "obs", obs, tanh_grad(g_feat, feat), to_input=False)
        return p.checked(grads)

    @np.errstate(over="ignore", invalid="ignore")
    def generate(self, obs_hist: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Deterministic single-pass chunk for one observation history: one
        network evaluation of one row through :attr:`workspace`, under one
        error-state scope, with the observation feature left in
        ``workspace.feat`` until the next call.

        A rejected call raises :meth:`evaluate`'s error and does not count;
        one finiteness check, of ``pre`` after the run, covers the inputs too
        (DECISIONS.md, "A batch-1 decision runs through a workspace").  The
        bits are the row's :meth:`evaluate` bits (``tests/test_inference.py``).
        """
        ws = self.workspace
        obs = np.asarray(obs_hist, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        if obs.size != ws.obs.size or z.size != ws.z.size:
            self._checked(self._flatten_obs(obs), z.reshape(1, -1))  # raises
        ws.obs[...] = obs.reshape(-1)
        ws.z[...] = z.reshape(-1)
        chunk = ws.run()
        if ws.pre.dot(ws.zero) != 0:  # 0 * NaN and 0 * +-inf are NaN, 0 * x is +-0
            self._checked(ws.obs[None], ws.z[None])  # raises on a non-finite input
            check_finite(ws.pre, "affine output")  # raises on an overflow
        self.nfe_count += 1
        return chunk.copy()

    def _flatten_obs(self, obs_hist: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs_hist, dtype=np.float64)
        expected = self.spec.history_len * self.obs_dim
        if obs.size % expected != 0:
            raise SpecError(f"observation history size {obs.size} does not "
                            f"flatten to rows of {expected}")
        return obs.reshape(-1, expected)


def sample_hypotheses(generator: Generator, obs_batch: np.ndarray, count: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Generate G hypotheses per observation from independent latents.

    All B*G rows go through a single :meth:`Generator.evaluate`.  Returns the
    (B, G, S) hypotheses, the (B, G, C) latents and the evaluation's
    activations, over which :meth:`Generator.backward` takes the gradient of
    the (B*G, S) rows.
    """
    if count < 1:
        raise SpecError("hypothesis count must be positive")
    obs = generator._flatten_obs(obs_batch)
    b = obs.shape[0]
    latents = rng.standard_normal((b, count, generator.latent_dim))
    obs_rep = np.repeat(obs, count, axis=0)
    chunk, acts = generator.evaluate(obs_rep, latents.reshape(b * count, -1))
    return chunk.reshape(b, count, generator.spec.chunk_dim), latents, acts


# -- typed JSON inputs -----------------------------------------------------

JSON_TYPES = {int: {int}, float: {int, float}, bool: {bool}, str: {str}, dict: {dict}}


def read_json_object(path, what: str) -> dict:
    """The JSON object in ``path``; :class:`SpecError` naming the ``what`` file otherwise."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise SpecError(f"{what} {path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{what} {path}: not a JSON object")
    return doc


def write_json(path, obj) -> None:
    """``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def typed(value, kind, key: str, where: str):
    """``value`` read as a ``kind`` of :data:`JSON_TYPES` (a float from any
    number, an int never from a bool), as ``tuple[X, ...]`` from a list of
    ``X`` values, or as ``np.ndarray``: a list that ``tuple[float, ...]``
    accepts, as one float64 array of the same bits.  Anything else raises
    ``SpecError("<where>key '<key>' expects <kind>, got <value>")``, and a
    list's first bad item raises that error named ``'<key>[<index>]'``.

    A float must be finite: JSON's ``NaN`` and ``Infinity`` (which Python's
    reader accepts), or an int past the float range, raise
    ``SpecError("<where>key '<key>' expects a finite float, got <value>")``; no
    key needs an infinity."""
    if kind is np.ndarray:  # a list of floats in bulk; any other goes by the tuple rule
        if type(value) is list and set(map(type, value)) <= {float}:
            array = np.array(value, dtype=np.float64)
            if np.isfinite(array).all():
                return array
        return np.array(typed(value, tuple[float, ...], key, where), dtype=np.float64)
    items = typing.get_args(kind)
    if items:
        if type(value) is list:
            return tuple(typed(item, items[0], f"{key}[{index}]", where)
                         for index, item in enumerate(value))
    elif type(value) in JSON_TYPES[kind]:
        if kind is not float:
            return value
        if abs(value) <= sys.float_info.max:  # false for NaN, too for an int past the range
            return float(value)
        raise SpecError(f"{where}key {key!r} expects a finite float, got {value!r}")
    raise SpecError(f"{where}key {key!r} expects {kind.__name__}, got {value!r}")


def read_keys(doc: dict, kinds: dict, where: str) -> dict:
    """``{key: value}`` for every dotted key of ``kinds`` (``"a.b"`` is
    ``doc["a"]["b"]``, and ``doc["a"]`` must be an object), each read by
    :func:`typed`; a missing key raises ``SpecError("<where>no key '<key>'")``."""
    values = {}
    for key, kind in kinds.items():
        outer, _, name = key.rpartition(".")
        node = read_keys(doc, {outer: dict}, where)[outer] if outer else doc
        if name not in node:
            raise SpecError(f"{where}no key {key!r}")
        values[key] = typed(node[name], kind, key, where)
    return values


def read_spec(doc: dict, where: str) -> ChunkSpec:
    """The ``chunk_spec`` object of a saved file, every field an int."""
    kinds = {f"chunk_spec.{f.name}": int for f in fields(ChunkSpec)}
    return ChunkSpec(*read_keys(doc, kinds, where).values())
