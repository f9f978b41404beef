"""Stage-1 training loop: Adam with decoupled weight decay, linear warmup,
EMA shadow parameters, gradient clipping and CSV metrics."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .autodiff import AutodiffError, Tensor, check_finite
from .autodiff import backward  # noqa: F401 -- patch point of the bench/spans.py tracer
from .drift import DriftConfig, drift_loss
from .generator import Generator, sample_hypotheses

METRICS_HEADER = ("step", "loss", "grad_norm", "s_norm", "lr")


class TrainConfigError(ValueError):
    pass


class NumericalAbort(RuntimeError):
    """Raised when a loss or gradient goes non-finite; carries a diagnostic dump."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings; defaults follow the fixed experiment table."""

    batch_size: int = 32
    learning_rate: float = 1e-4
    beta1: float = 0.95
    beta2: float = 0.999
    weight_decay: float = 1e-6
    grad_clip: float = 1.0
    epochs: int = 100
    steps: int | None = None
    warmup_steps: int = 500
    ema_decay: float = 0.9999
    ema_power: float = 0.75
    seed: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise TrainConfigError("batch_size must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise TrainConfigError("betas must lie in (0, 1)")
        if not (0.0 < self.ema_decay < 1.0):
            raise TrainConfigError("ema_decay must lie in (0, 1)")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise TrainConfigError("learning_rate and weight_decay must be >= 0")
        if self.grad_clip <= 0:
            raise TrainConfigError("grad_clip must be positive")
        if self.epochs < 0 or self.checkpoint_every < 0:
            raise TrainConfigError("epochs and checkpoint_every must be >= 0")
        if self.steps is not None and self.steps < 0:
            raise TrainConfigError("steps must be >= 0")


def warmup_lr(base: float, step: int, warmup_steps: int) -> float:
    """Linear ramp: at 1-based step k < warmup the rate is base * k / warmup."""
    if warmup_steps <= 0 or step >= warmup_steps:
        return base
    return base * step / warmup_steps


def grad_clip(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Rescale so the global norm is at most max_norm; direction preserved."""
    if max_norm <= 0:
        raise TrainConfigError("max_norm must be positive")
    total = 0.0
    for g in grads.values():
        total += float(np.square(g).sum())
    norm = float(np.sqrt(total))
    if norm <= max_norm:
        return grads, norm
    factor = max_norm / norm
    return {k: g * factor for k, g in grads.items()}, norm


class AdamW:
    """Adam moments with decoupled weight decay; decay is scaled by the step's lr.

    :meth:`step` rebinds each parameter leaf's ``data`` to the updated array,
    so every holder of a leaf sees the new values without copying them back.
    ``grads`` needs every parameter's name, as the explicit backward passes give it.
    """

    def __init__(self, param_names, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 weight_decay: float = 0.0, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {name: None for name in param_names}
        self.v: dict[str, np.ndarray] = {name: None for name in param_names}

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray],
             lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in params.items():
            g = grads[name]
            if self.m[name] is None:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            new = p.data - lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                 + self.weight_decay * p.data)
            p.data = check_finite(new, f"AdamW update of {name}")

    def state(self) -> dict:
        return {
            "step_count": self.step_count,
            "m": {k: (v.tolist() if v is not None else None) for k, v in self.m.items()},
            "v": {k: (v.tolist() if v is not None else None) for k, v in self.v.items()},
        }


def ema_decay_at(step: int, decay: float, power: float) -> float:
    """Power-ramped decay min(decay, ((1+k)/(10+k))^power); avoids a frozen shadow."""
    return min(decay, ((1.0 + step) / (10.0 + step)) ** power)


def ema_update(shadow: dict[str, np.ndarray], params: dict[str, Tensor], step: int,
               decay: float, power: float) -> dict[str, np.ndarray]:
    d = ema_decay_at(step, decay, power)
    out = {}
    for name, p in params.items():
        s = shadow[name]
        if s.shape != p.data.shape:
            raise TrainConfigError(f"ema shape mismatch for {name}")
        out[name] = d * s + (1.0 - d) * p.data
    return out


@dataclass
class TrainResult:
    metrics: list[dict] = field(default_factory=list)
    ema_params: dict[str, np.ndarray] = field(default_factory=dict)
    rng_state: dict | None = None
    optimizer_state: dict | None = None


def drift_train_step(generator: Generator, obs_batch: np.ndarray,
                     expert_batch: np.ndarray, config: DriftConfig,
                     rng: np.random.Generator):
    """One minibatch step: sample hypotheses, build the pool, regress, backprop.

    No tape is recorded: the loss hands back dL/d(hypotheses) and
    :meth:`Generator.backward` carries it through the backbone.  Returns (loss
    value, per-parameter gradient arrays, field scale averaged over the loss
    slices).
    """
    values, _, acts = sample_hypotheses(generator, obs_batch, config.hypothesis_count, rng)
    experts = np.asarray(expert_batch, dtype=np.float64)
    experts = experts.reshape(experts.shape[0], 1, -1)
    slice_width = generator.spec.action_dim if config.loss_mode == "step_wise" else None
    loss, d_values, fields = drift_loss(values, experts, config, slice_width=slice_width)
    grads = generator.backward(acts, d_values.reshape(-1, values.shape[2]))
    return loss, grads, float(np.mean(fields.scale))


def train(dataset, generator: Generator, drift_config: DriftConfig,
          config: TrainConfig, on_checkpoint=None) -> TrainResult:
    """Run the Stage-1 loop; deterministic for a fixed seed.

    ``dataset`` must expose .observations (N, T_o, d_o) and .chunks (N, H, d_a).
    ``on_checkpoint(step)``, if given, runs after every ``checkpoint_every``-th
    update, with that step's parameters in ``generator``.  A non-finite value in
    the step (forward, backward or update) raises :class:`NumericalAbort`,
    whose dump holds the step and its minibatch indices.
    """
    obs = np.asarray(dataset.observations, dtype=np.float64)
    chunks = np.asarray(dataset.chunks, dtype=np.float64)
    n = obs.shape[0]
    if n == 0:
        raise TrainConfigError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    opt = AdamW(generator.params.keys(), lr=config.learning_rate,
                beta1=config.beta1, beta2=config.beta2,
                weight_decay=config.weight_decay)
    shadow = generator.params.arrays()
    result = TrainResult(ema_params=shadow)

    steps_per_epoch = max(1, (n + config.batch_size - 1) // config.batch_size)
    total_steps = config.steps if config.steps is not None \
        else config.epochs * steps_per_epoch

    order = np.arange(n)
    cursor = steps_per_epoch  # force a reshuffle on the first step
    for step in range(1, total_steps + 1):
        if cursor >= steps_per_epoch:
            order = rng.permutation(n)
            cursor = 0
        lo = cursor * config.batch_size
        idx = order[lo:lo + config.batch_size]
        cursor += 1

        try:
            loss, grads, scale = drift_train_step(
                generator, obs[idx], chunks[idx].reshape(len(idx), -1),
                drift_config, rng)
            grads, norm = grad_clip(grads, config.grad_clip)
            lr = warmup_lr(config.learning_rate, step, config.warmup_steps)
            opt.step(generator.params, grads, lr=lr)
        except AutodiffError as exc:
            raise NumericalAbort(f"step {step}: {exc}", dump={
                "step": step, "minibatch_indices": idx.tolist()}) from exc
        shadow = ema_update(shadow, generator.params, opt.step_count - 1,
                            config.ema_decay, config.ema_power)
        result.metrics.append({"step": step, "loss": loss, "grad_norm": norm,
                               "s_norm": scale, "lr": lr})
        if on_checkpoint and config.checkpoint_every and step % config.checkpoint_every == 0:
            on_checkpoint(step)

    result.ema_params = shadow
    result.rng_state = rng.bit_generator.state
    result.optimizer_state = opt.state()
    return result


def write_metrics_csv(path, rows, header=METRICS_HEADER) -> None:
    """Append-only CSV with repr-formatted floats so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(row[k])) if not isinstance(row[k], int)
                             else row[k] for k in header])
