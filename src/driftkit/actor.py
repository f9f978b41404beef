"""Exact-likelihood Gaussian actor over the one-step backbone.

The backbone supplies the latent-conditioned chunk mean; a linear head on the
state-only observation feature produces a diagonal log-scale, clipped to fixed
bounds.  Likelihood and entropy are restricted to the executed-prefix
coordinates, and deployment bypasses the noise entirely so the one-pass
property is untouched.

The scale head and the prefix log-density are each written once and evaluated
either on the tape (update epochs) or on plain arrays (rollout collection),
with bitwise-equal values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, check_finite, clip, exp, matmul, square
from .generator import ChunkSpec, Generator, SpecError, load_params

LOG_2PI = float(np.log(2.0 * np.pi))

DEFAULT_LOG_STD_BOUNDS = (-5.0, 1.0)
DEFAULT_LOG_STD_INIT = float(np.log(0.15))


@dataclass
class ActorOutput:
    """Per-row Gaussian parameters plus the executed-prefix mask."""

    mean: Tensor
    log_std: Tensor
    prefix_mask: np.ndarray

    def std(self) -> np.ndarray:
        return np.exp(self.log_std.data)


class GaussianActor:
    """Backbone mean + clipped state-conditioned log-scale head."""

    def __init__(self, generator: Generator, log_std_init: float = DEFAULT_LOG_STD_INIT,
                 log_std_bounds: tuple[float, float] = DEFAULT_LOG_STD_BOUNDS):
        lo, hi = log_std_bounds
        if not lo < hi:
            raise SpecError("log_std bounds must satisfy lo < hi")
        self.generator = generator
        self.log_std_bounds = (float(lo), float(hi))
        d = generator.spec.chunk_dim
        self.head_params: dict[str, Tensor] = {
            "scale_w": Tensor(np.zeros((generator.hidden_dim, d)), requires_grad=True),
            "scale_b": Tensor(np.full(d, float(log_std_init)), requires_grad=True),
        }

    @property
    def spec(self):
        return self.generator.spec

    def parameters(self) -> dict[str, Tensor]:
        merged = dict(self.generator.params)
        merged.update(self.head_params)
        return merged

    def load_head_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        load_params(self.head_params, arrays, "actor head")

    def _log_std(self, feat, p, linear, clamp):
        return clamp(linear(feat, p["scale_w"], p["scale_b"]), *self.log_std_bounds)

    def forward(self, obs_flat: Tensor, z: Tensor) -> ActorOutput:
        """One backbone evaluation yielding mean and clipped log-scale."""
        mean, feat = self.generator.forward(obs_flat, z)
        log_std = self._log_std(feat, self.head_params, _tape_linear, clip)
        return ActorOutput(mean=mean, log_std=log_std,
                           prefix_mask=self.spec.prefix_mask())

    def infer(self, obs_flat: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` without the tape: (mean, clipped log-scale) arrays."""
        mean, feat = self.generator.infer(obs_flat, z)
        arrays = {name: t.data for name, t in self.head_params.items()}
        return mean, self._log_std(feat, arrays, affine, np.clip)

    def forward_arrays(self, obs_hist: np.ndarray, z: np.ndarray) -> ActorOutput:
        obs = self.generator._flatten_obs(obs_hist)
        z = np.asarray(z, dtype=np.float64).reshape(obs.shape[0], -1)
        return self.forward(Tensor(obs), Tensor(z))

    def deploy_action(self, obs_hist: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Deterministic deployment path: the mean chunk, one evaluation."""
        return self.generator.generate(obs_hist, z)


def _tape_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return matmul(x, w) + b


def sample_gaussian(mean: np.ndarray, log_std: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw x = mean + exp(log_std) * eta with eta standard normal."""
    eta = rng.standard_normal(mean.shape)
    return mean + np.exp(log_std) * eta


def sample_action(output: ActorOutput, rng: np.random.Generator) -> np.ndarray:
    """Draw an action from an actor output (no gradient)."""
    return sample_gaussian(output.mean.data, output.log_std.data, rng)


def _prefix_rows(x_exec, mean_shape, spec_slice: slice) -> np.ndarray:
    """The executed-prefix actions as (B, prefix width) rows, shape-checked."""
    if len(mean_shape) != 2:
        raise SpecError("prefix_log_prob expects batched (B, D) actor output")
    width = spec_slice.stop - spec_slice.start
    x = np.asarray(x_exec, dtype=np.float64).reshape(mean_shape[0], -1)
    if x.shape[1] != width:
        raise SpecError(f"executed prefix has {x.shape[1]} coordinates, expected {width}")
    return x


def _log_density(x, mu, ls, exp_fn, square_fn):
    """Per-row diagonal-Gaussian log-density, summed over the given coordinates."""
    resid = x - mu
    inv_var = exp_fn(-2.0 * ls)
    return (-0.5 * LOG_2PI - ls - 0.5 * square_fn(resid) * inv_var).sum(axis=1)


def prefix_log_prob(x_exec: np.ndarray, output: ActorOutput) -> Tensor:
    """Log-likelihood of the executed prefix under the diagonal Gaussian.

    Sums -0.5*log(2*pi) - log(std) - (x - mean)^2 / (2*std^2) over exactly the
    prefix coordinates; coordinates outside the prefix contribute nothing to
    the value or the gradient.  Returns one scalar per batch row.
    """
    spec_slice = _mask_slice(output.prefix_mask)
    x = _prefix_rows(x_exec, output.mean.shape, spec_slice)
    mu = output.mean[:, spec_slice]
    ls = output.log_std[:, spec_slice]
    return _log_density(Tensor(x), mu, ls, exp, square)


def prefix_log_prob_arrays(x_exec: np.ndarray, mean: np.ndarray, log_std: np.ndarray,
                           spec: ChunkSpec) -> np.ndarray:
    """:func:`prefix_log_prob` on the arrays of :meth:`GaussianActor.infer`."""
    spec_slice = spec.exec_slice()
    x = _prefix_rows(x_exec, mean.shape, spec_slice)
    logp = _log_density(x, mean[:, spec_slice], log_std[:, spec_slice], np.exp, np.square)
    return check_finite(logp, "prefix log-probability")


def prefix_entropy(output: ActorOutput) -> Tensor:
    """Diagonal-Gaussian entropy over the executed-prefix coordinates."""
    spec_slice = _mask_slice(output.prefix_mask)
    ls = output.log_std[:, spec_slice]
    return (0.5 * (1.0 + LOG_2PI) + ls).sum(axis=1)


def _mask_slice(mask: np.ndarray) -> slice:
    flat = mask.reshape(-1)
    on = np.flatnonzero(flat)
    return slice(int(on[0]), int(on[-1]) + 1)
