"""One-step conditional action-chunk generator.

A small tanh MLP maps (flattened observation history, latent) to a flattened
H x d_a action chunk in exactly one forward evaluation.  The observation
embedding activation doubles as the state feature consumed by the Stage-2
scale head, so it is returned alongside the chunk.

The network is written once (:func:`_backbone`) with engine ops that take
either backend, and evaluated either on the autodiff tape
(:meth:`Generator.forward`, for fine-tuning) or on plain arrays
(:meth:`Generator.evaluate` and :meth:`Generator.infer`).  Both run the same
numpy calls around the same row-invariant kernel (:func:`autodiff.row_matmul`),
so their values agree bitwise, and a row's values do not depend on its batch.
A caller that wants values only calls :meth:`Generator.infer`; a ``Tensor``
result always means a recorded graph.  Stage-1 training differentiates without
the tape: :meth:`Generator.evaluate` also hands back the activations, and
:meth:`Generator.backward` is the backbone's reverse pass written out, each
product in the tape's order, so its gradients equal the tape's bitwise.

The JSON helpers at the end of the module own the format of every JSON file:
configs, checkpoints and dataset metadata are read through one typed reader
(:func:`read_keys`), and indented files are written by :func:`write_json`.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, affine, check_finite, concat, matmul, tanh


class SpecError(ValueError):
    """Invalid chunk geometry or generator configuration, or a malformed input file."""


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


class Dense(dict):
    """The leaf parameters of a network's dense layers, by name.

    Layer ``name`` owns the leaves ``{name}_w`` (fan_in, fan_out) and
    ``{name}_b``.  The bundle builds the leaves, copies them out
    (:meth:`arrays`), loads arrays into them (:meth:`load`, which rebinds each
    leaf's ``data`` so every holder of the leaf sees it) and evaluates one
    layer on either backend (:meth:`linear`).
    """

    def __init__(self, owner: str, arrays: dict):
        super().__init__((name, Tensor(arr, requires_grad=True))
                         for name, arr in arrays.items())
        self.owner = owner
        self._layers = {name[:-2]: (name, name[:-2] + "_b")
                        for name in self if name.endswith("_w")}

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
        return {name: t.data.copy() for name, t in self.items()}

    def load(self, arrays: dict) -> None:
        """Rebind every leaf to the same-named array.

        The names must match exactly, every shape must agree and every value
        must be finite; nothing is rebound unless all entries check out.
        """
        missing = sorted(set(self) - set(arrays))
        unexpected = sorted(set(arrays) - set(self))
        if missing or unexpected:
            raise SpecError(f"{self.owner} parameters: missing {missing}, "
                            f"unexpected {unexpected}")
        checked = {}
        for name, current in self.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != current.shape:
                raise SpecError(f"{self.owner} parameter {name}: shape {arr.shape} "
                                f"!= expected {current.shape}")
            checked[name] = check_finite(arr, f"{self.owner} parameter {name}")
        for name, arr in checked.items():
            self[name].data = arr

    def linear(self, x, layer: str):
        """``x @ w + b`` of one layer: recorded on the tape for a ``Tensor`` ``x``,
        with :func:`affine` on the leaves' arrays for an array ``x``."""
        w_name, b_name = self._layers[layer]
        w, b = self[w_name], self[b_name]
        if isinstance(x, Tensor):
            return matmul(x, w) + b
        return affine(x, w.data, b.data)

    def backward(self, grads: dict, layer: str, x: np.ndarray, g: np.ndarray,
                 to_input: bool = True) -> np.ndarray | None:
        """Reverse of :meth:`linear` on arrays, from dL/d(output) ``g``.

        Puts the weight gradient ``x.T @ g`` and the bias gradient
        ``g.sum(axis=0)`` into ``grads`` and returns dL/d(x) ``g @ w.T``; a
        network input (``to_input=False``) gets none.  Each is the tape rule's
        expression with its operand order, so the bits are the tape's.
        """
        w_name, b_name = self._layers[layer]
        grads[w_name] = x.T @ g
        grads[b_name] = g.sum(axis=0)
        return g @ self[w_name].data.T if to_input else None

    def checked(self, grads: dict) -> dict[str, np.ndarray]:
        """``grads`` by name in parameter order; ``AutodiffError`` if one holds
        a NaN or an infinity."""
        return {name: check_finite(grads[name], f"gradient of {self.owner} parameter {name}")
                for name in self}


class Activations(NamedTuple):
    """Every dense layer's input and every tanh output of one backbone
    evaluation: what :meth:`Generator.backward` reads.  ``feat`` is the
    observation feature.  :func:`_backbone` hands them back as a plain tuple
    in this field order; only :meth:`Generator.evaluate` builds the record."""

    obs: np.ndarray | Tensor
    z: np.ndarray | Tensor
    feat: np.ndarray | Tensor
    lat: np.ndarray | Tensor
    cat: np.ndarray | Tensor
    h1: np.ndarray | Tensor
    h2: np.ndarray | Tensor


def _backbone(p: Dense, obs, z):
    """The chunk of the generator MLP on either backend, and its activations
    as a plain tuple in :class:`Activations` order (``[2]`` is the feature)."""
    feat = tanh(p.linear(obs, "obs"))
    lat = tanh(p.linear(z, "lat"))
    cat = concat([feat, lat], axis=1)
    h1 = tanh(p.linear(cat, "trunk1"))
    h2 = tanh(p.linear(h1, "trunk2"))
    return p.linear(h2, "head"), (obs, z, feat, lat, cat, h1, h2)


def tanh_grad(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """dL/d(pre-activation) of ``a = tanh(pre)``, as the tape's tanh rule."""
    return g * (1.0 - a * a)


class Generator:
    """The one-step backbone f(obs_hist, z) -> flattened action chunk.

    ``nfe_count`` counts network evaluations per row: a :meth:`forward`,
    :meth:`evaluate` or :meth:`infer` call on B rows adds B.  A batch-1
    deployment decision adds exactly 1, and the deployment and evaluation
    loops check one evaluation per decision against it.
    """

    def __init__(self, spec: ChunkSpec, obs_dim: int, latent_dim: int = 8,
                 hidden_dim: int = 64, seed: int = 0):
        if obs_dim < 1 or latent_dim < 1 or hidden_dim < 1:
            raise SpecError("dimensions must be positive")
        self.spec = spec
        self.obs_dim = obs_dim
        self.latent_dim = latent_dim
        self.hidden_dim = hidden_dim
        self.nfe_count = 0
        h = hidden_dim
        self.params = Dense.init("generator", np.random.default_rng(seed), (
            ("obs", spec.history_len * obs_dim, h), ("lat", latent_dim, h),
            ("trunk1", 2 * h, h), ("trunk2", h, h), ("head", h, spec.chunk_dim)))

    def param_arrays(self) -> dict[str, np.ndarray]:
        return self.params.arrays()

    def clone(self) -> "Generator":
        twin = Generator(self.spec, self.obs_dim, self.latent_dim, self.hidden_dim)
        twin.params.load(self.params.arrays())
        return twin

    # -- forward --------------------------------------------------------

    def forward(self, obs_flat: Tensor, z: Tensor) -> tuple[Tensor, Tensor]:
        """One network evaluation on a batch of rows, recorded on the tape.

        Returns the (B, D) chunk batch and the (B, hidden) observation feature.
        """
        self.nfe_count += obs_flat.shape[0]
        chunk, acts = _backbone(self.params, obs_flat, z)
        return chunk, acts[2]

    def _evaluate(self, obs_flat: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, tuple]:
        """:func:`_backbone` on checked arrays, counted."""
        obs_flat = check_finite(np.asarray(obs_flat, dtype=np.float64), "observation input")
        self.nfe_count += obs_flat.shape[0]
        z = check_finite(np.asarray(z, dtype=np.float64), "latent input")
        return _backbone(self.params, obs_flat, z)

    def evaluate(self, obs_flat: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, Activations]:
        """One network evaluation without the tape: the (B, D) chunk batch and
        the :class:`Activations` that :meth:`backward` differentiates through.

        Raises ``AutodiffError`` on a non-finite input or pre-activation, as
        the tape would.
        """
        chunk, acts = self._evaluate(obs_flat, z)
        return chunk, Activations._make(acts)

    def infer(self, obs_flat: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`forward`'s values as arrays: the chunk batch and the observation feature."""
        chunk, acts = self._evaluate(obs_flat, z)
        return chunk, acts[2]

    @np.errstate(over="ignore", invalid="ignore")
    def backward(self, acts: Activations, d_chunk: np.ndarray,
                 d_feat: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """The gradient of every parameter, by name in parameter order, from
        dL/d(chunk) and, if the loss also reads the observation feature, dL/d(feat).

        Reverse mode written out for the five dense layers of :meth:`evaluate`
        (whose ``acts`` it takes): :meth:`Dense.backward` for each layer,
        :func:`tanh_grad` for each tanh, and a column split for the concat.
        The inputs get no gradient.  Raises ``AutodiffError`` if a gradient
        holds a NaN or an infinity.
        """
        p, grads = self.params, {}
        g = tanh_grad(p.backward(grads, "head", acts.h2, d_chunk), acts.h2)
        g = tanh_grad(p.backward(grads, "trunk2", acts.h1, g), acts.h1)
        g = p.backward(grads, "trunk1", acts.cat, g)
        width = acts.feat.shape[1]
        g_feat, g_lat = g[:, :width], g[:, width:]
        if d_feat is not None:
            g_feat = d_feat + g_feat
        p.backward(grads, "lat", acts.z, tanh_grad(g_lat, acts.lat), to_input=False)
        p.backward(grads, "obs", acts.obs, tanh_grad(g_feat, acts.feat), to_input=False)
        return p.checked(grads)

    def generate(self, obs_hist: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Deterministic single-pass chunk for one observation history."""
        obs = self._flatten_obs(obs_hist)
        z = np.asarray(z, dtype=np.float64).reshape(1, self.latent_dim)
        chunk, _ = self.infer(obs, z)
        return chunk[0]

    def _flatten_obs(self, obs_hist: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs_hist, dtype=np.float64)
        expected = self.spec.history_len * self.obs_dim
        if obs.size % expected != 0:
            raise SpecError(f"observation history size {obs.size} does not "
                            f"flatten to rows of {expected}")
        return obs.reshape(-1, expected)


def sample_latents(rng: np.random.Generator, batch: int, count: int,
                   latent_dim: int) -> np.ndarray:
    """Draw (B, G, C) independent standard-normal latents."""
    return rng.standard_normal((batch, count, latent_dim))


def sample_hypotheses(generator: Generator, obs_batch: np.ndarray, count: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, Activations]:
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
    latents = sample_latents(rng, b, count, generator.latent_dim)
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


def typed(value, kind, key: str, where: str, error=SpecError):
    """``value`` read as a ``kind`` of :data:`JSON_TYPES` (a float from any
    number, an int never from a bool), or as ``tuple[X, ...]`` (``tuple[X, X]``)
    from a list of ``X`` values (of that length).  Anything else raises
    ``error("<where>key '<key>' expects <kind>, got <value>")``."""
    items = typing.get_args(kind)
    if items:
        if (type(value) is list and set(map(type, value)) <= JSON_TYPES[items[0]]
                and (items[-1] is ... or len(value) == len(items))):
            return tuple(map(items[0], value))
    elif type(value) in JSON_TYPES[kind]:
        return float(value) if kind is float else value
    raise error(f"{where}key {key!r} expects {kind.__name__}, got {value!r}")


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
