"""One-step conditional action-chunk generator.

A small tanh MLP maps (flattened observation history, latent) to a flattened
H x d_a action chunk in exactly one forward evaluation.  The observation
embedding activation doubles as the state feature consumed by the Stage-2
scale head, so it is returned alongside the chunk.

The network is written once (:func:`_backbone`) and evaluated either on the
autodiff tape (:meth:`Generator.forward`, for training) or on plain arrays
(:meth:`Generator.infer`, for every evaluation that needs no gradient).  Both
use the same row-invariant kernel (:func:`autodiff.row_matmul`), so their
values agree bitwise, and a row's values do not depend on its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, check_finite, concat, matmul, tanh
from .drift import HypothesisBatch


class SpecError(ValueError):
    """Invalid chunk geometry or generator configuration."""


@dataclass(frozen=True)
class ChunkSpec:
    """Receding-horizon geometry: predict H steps, execute H_e starting at T_o."""

    horizon: int
    action_dim: int
    history_len: int
    exec_len: int

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
        return {"horizon": self.horizon, "action_dim": self.action_dim,
                "history_len": self.history_len, "exec_len": self.exec_len}

    @classmethod
    def from_dict(cls, d: dict) -> "ChunkSpec":
        return cls(horizon=int(d["horizon"]), action_dim=int(d["action_dim"]),
                   history_len=int(d["history_len"]), exec_len=int(d["exec_len"]))


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


def _tape_concat(parts):
    return concat(parts, axis=1)


def _array_concat(parts):
    return np.concatenate(parts, axis=1)


def _backbone(p: Dense, obs, z, act, cat):
    """(chunk, observation feature) of the generator MLP on either backend."""
    feat = act(p.linear(obs, "obs"))
    lat = act(p.linear(z, "lat"))
    h1 = act(p.linear(cat([feat, lat]), "trunk1"))
    h2 = act(p.linear(h1, "trunk2"))
    return p.linear(h2, "head"), feat


class Generator:
    """The one-step backbone f(obs_hist, z) -> flattened action chunk.

    ``nfe_count`` increments once per network evaluation, whether through
    :meth:`forward` or :meth:`infer`; the deployment loop asserts exactly one
    evaluation per control decision against it.
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
        self.nfe_count += 1
        return _backbone(self.params, obs_flat, z, tanh, _tape_concat)

    def infer(self, obs_flat: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One network evaluation without the tape: :meth:`forward`'s values as arrays.

        Raises ``AutodiffError`` on a non-finite input or pre-activation, as
        the tape would.
        """
        self.nfe_count += 1
        obs_flat = check_finite(np.asarray(obs_flat, dtype=np.float64), "observation input")
        z = check_finite(np.asarray(z, dtype=np.float64), "latent input")
        return _backbone(self.params, obs_flat, z, np.tanh, _array_concat)

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
                      rng: np.random.Generator) -> tuple[HypothesisBatch, np.ndarray]:
    """Generate G hypotheses per observation from independent latents.

    All B*G rows go through a single forward evaluation; the detached copy is
    attached so the drift geometry never touches the live graph.
    """
    if count < 1:
        raise SpecError("hypothesis count must be positive")
    obs = generator._flatten_obs(obs_batch)
    b = obs.shape[0]
    latents = sample_latents(rng, b, count, generator.latent_dim)
    obs_rep = np.repeat(obs, count, axis=0)
    chunk, _ = generator.forward(Tensor(obs_rep),
                                 Tensor(latents.reshape(b * count, -1)))
    values = chunk.reshape(b, count, generator.spec.chunk_dim)
    return HypothesisBatch.from_values(values), latents
