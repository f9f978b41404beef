"""Exact-likelihood Gaussian actor over the one-step backbone.

The backbone supplies the latent-conditioned chunk mean; a linear head on the
state-only observation feature produces a diagonal log-scale, clipped to fixed
bounds.  Likelihood and entropy are restricted to the executed-prefix
coordinates, and deployment bypasses the noise entirely so the one-pass
property is untouched.

The scale head and the prefix log-density are each written once with engine
ops that take either backend: :meth:`GaussianActor.forward` yields tape
tensors, :meth:`GaussianActor.evaluate` plain arrays (the PPO update), and
:func:`prefix_log_prob` of either output has bitwise-equal values.  Rollout
collection queries one row at a time through :meth:`GaussianActor.decide`,
the backbone's batch-1 workspace kernel (:meth:`Generator.generate`), with
the same bits as the row's :meth:`GaussianActor.evaluate`.  The PPO update
differentiates without the tape: :meth:`GaussianActor.evaluate` also keeps
the backbone's activations and the pre-clip log-scale, and
:meth:`GaussianActor.backward` carries dL/d(mean) and dL/d(log_std) through
the head and the backbone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, check_finite, clip, exp, square
from .autodiff import matmul  # noqa: F401 -- patch point of the bench/spans.py tracer
from .generator import ChunkSpec, Dense, Flat, Generator, SpecError

LOG_2PI = float(np.log(2.0 * np.pi))

LOG_STD_BOUNDS = (-5.0, 1.0)
DEFAULT_LOG_STD_INIT = float(np.log(0.15))


@dataclass
class ActorOutput:
    """Per-row Gaussian parameters plus the chunk geometry that locates the prefix.

    The parameters are tape tensors from :meth:`GaussianActor.forward` and
    arrays from :meth:`GaussianActor.evaluate`.
    """

    mean: Tensor | np.ndarray
    log_std: Tensor | np.ndarray
    spec: ChunkSpec


class GaussianActor:
    """Backbone mean + clipped state-conditioned log-scale head."""

    def __init__(self, generator: Generator, log_std_init: float = DEFAULT_LOG_STD_INIT):
        self.generator = generator
        d = generator.spec.chunk_dim
        self.head = Dense("actor head", {
            "scale_w": np.zeros((generator.hidden_dim, d)),
            "scale_b": np.full(d, float(log_std_init)),
        })
        # the optimizer's two vectors, in :meth:`parameters` order
        self.bundles = (generator.params, self.head)

    @property
    def spec(self):
        return self.generator.spec

    def parameters(self) -> dict[str, Tensor]:
        return {**self.generator.params, **self.head}

    def forward(self, obs_flat: Tensor, z: Tensor) -> ActorOutput:
        """One backbone evaluation yielding mean and clipped log-scale."""
        mean, feat = self.generator.forward(obs_flat, z)
        log_std = clip(self.head.linear(feat, "scale"), *LOG_STD_BOUNDS)
        return ActorOutput(mean=mean, log_std=log_std, spec=self.spec)

    @np.errstate(over="ignore", invalid="ignore")
    def evaluate(self, obs_flat: np.ndarray,
                 z: np.ndarray) -> tuple[ActorOutput, tuple[tuple, np.ndarray]]:
        """:meth:`forward` without the tape: the same output, holding arrays,
        and what :meth:`backward` reads: the backbone's activations
        (:meth:`Generator.evaluate`) and the log-scale before its clip."""
        mean, acts = self.generator.evaluate(obs_flat, z)
        pre_log_std = self.head.linear(acts[2], "scale")
        log_std = clip(pre_log_std, *LOG_STD_BOUNDS)
        return ActorOutput(mean=mean, log_std=log_std, spec=self.spec), (acts, pre_log_std)

    @np.errstate(over="ignore", invalid="ignore")
    def backward(self, acts: tuple[tuple, np.ndarray], d_mean: np.ndarray,
                 d_log_std: np.ndarray) -> tuple[Flat, Flat]:
        """The gradient of every :meth:`parameters` leaf, one :class:`Flat` per
        bundle of ``bundles`` (the backbone's, then the head's), from
        dL/d(mean) and dL/d(log_std) of an :meth:`evaluate` output.

        The clip passes dL/d(log_std) only strictly inside its bounds, as the
        tape's clip did, and the head hands dL/d(feat) to
        :meth:`Generator.backward`.  Raises ``AutodiffError`` if a gradient
        holds a NaN or an infinity.
        """
        backbone, pre_log_std = acts
        lo, hi = LOG_STD_BOUNDS
        d_pre = d_log_std * ((pre_log_std > lo) & (pre_log_std < hi))
        head_grads = {}
        d_feat = self.head.backward(head_grads, "scale", backbone[2], d_pre)
        return (self.generator.backward(backbone, d_mean, d_feat),
                self.head.checked(head_grads))

    @np.errstate(over="ignore", invalid="ignore")
    def decide(self, obs_hist: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (D,) mean and clipped log-scale of one row through the backbone's
        batch-1 kernel (:meth:`Generator.generate`), with the scale head as one
        ``dot`` on its workspace's feature: rollout collection's query, with the
        row's :meth:`evaluate` bits and no activations kept."""
        mean = self.generator.generate(obs_hist, z)
        head = self.head.data
        pre = self.generator.workspace.feat.dot(head["scale_w"]) + head["scale_b"]
        return mean, clip(check_finite(pre, "affine output"), *LOG_STD_BOUNDS)

    def deploy_action(self, obs_hist: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Deterministic deployment path: the mean chunk, one evaluation."""
        return self.generator.generate(obs_hist, z)


def sample_gaussian(mean: np.ndarray, log_std: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw x = mean + exp(log_std) * eta with eta standard normal."""
    eta = rng.standard_normal(mean.shape)
    return mean + np.exp(log_std) * eta


def prefix_log_prob(x_exec: np.ndarray, output: ActorOutput) -> Tensor | np.ndarray:
    """Log-likelihood of the executed prefix under the diagonal Gaussian.

    Sums -0.5*log(2*pi) - log(std) - (x - mean)^2 / (2*std^2) over exactly the
    prefix coordinates; coordinates outside the prefix contribute nothing to
    the value or the gradient.  Returns one scalar per batch row: a tape
    ``Tensor`` for a :meth:`GaussianActor.forward` output, a finiteness-checked
    array for a :meth:`GaussianActor.evaluate` output.
    """
    if len(output.mean.shape) != 2:
        raise SpecError("prefix_log_prob expects batched (B, D) actor output")
    spec_slice = output.spec.exec_slice()
    width = spec_slice.stop - spec_slice.start
    x = np.asarray(x_exec, dtype=np.float64).reshape(output.mean.shape[0], -1)
    if x.shape[1] != width:
        raise SpecError(f"executed prefix has {x.shape[1]} coordinates, expected {width}")
    mu = output.mean[:, spec_slice]
    ls = output.log_std[:, spec_slice]
    resid = x - mu
    inv_var = exp(-2.0 * ls)
    logp = (-0.5 * LOG_2PI - ls - 0.5 * square(resid) * inv_var).sum(axis=1)
    return logp if isinstance(logp, Tensor) else check_finite(logp, "prefix log-probability")


def prefix_entropy(output: ActorOutput) -> Tensor:
    """Diagonal-Gaussian entropy over the executed-prefix coordinates."""
    ls = output.log_std[:, output.spec.exec_slice()]
    return (0.5 * (1.0 + LOG_2PI) + ls).sum(axis=1)
