"""Stage-1 training loop: Adam with decoupled weight decay, linear warmup,
EMA shadow parameters, gradient clipping and CSV metrics."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import AutodiffError
from .autodiff import backward  # noqa: F401 -- patch point of the bench/spans.py tracer
from .drift import DriftConfig, drift_loss
from .generator import Dense, Flat, Generator, SpecError, sample_hypotheses

METRICS_HEADER = ("step", "loss", "grad_norm", "s_norm", "lr")

# Adam's denominator guard: sqrt(v_hat) + ADAM_EPS
ADAM_EPS = 1e-8

# the run length, in passes over the dataset, of a run that sets no ``steps``
DEFAULT_EPOCHS = 100


class NumericalAbort(RuntimeError):
    """Raised when a loss or gradient goes non-finite; carries a diagnostic dump."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings; defaults follow the fixed experiment table.
    ``steps=None`` runs :data:`DEFAULT_EPOCHS` passes over the dataset."""

    batch_size: int = 32
    learning_rate: float = 1e-4
    beta1: float = 0.95
    beta2: float = 0.999
    weight_decay: float = 1e-6
    grad_clip: float = 1.0
    steps: int | None = None
    warmup_steps: int = 500
    ema_decay: float = 0.9999
    ema_power: float = 0.75
    seed: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise SpecError("batch_size must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise SpecError("betas must lie in (0, 1)")
        if not (0.0 < self.ema_decay < 1.0):
            raise SpecError("ema_decay must lie in (0, 1)")
        if not (0.0 <= self.ema_power < math.inf):
            raise SpecError("ema_power must be finite and >= 0")
        if self.seed < 0:
            raise SpecError("seed must be >= 0")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise SpecError("learning_rate and weight_decay must be >= 0")
        if self.grad_clip <= 0:
            raise SpecError("grad_clip must be positive")
        if self.checkpoint_every < 0:
            raise SpecError("checkpoint_every must be >= 0")
        if self.steps is not None and self.steps < 0:
            raise SpecError("steps must be >= 0")
        if self.warmup_steps < 0:
            raise SpecError("warmup_steps must be >= 0")


def warmup_lr(base: float, step: int, warmup_steps: int) -> float:
    """Linear ramp: at 1-based step k < warmup the rate is base * k / warmup."""
    if step >= warmup_steps:
        return base
    return base * step / warmup_steps


def grad_clip(grads: Flat, max_norm: float) -> tuple[Flat, float]:
    """Rescale ``grads`` in place so the global norm is at most max_norm;
    direction preserved.  The squares are summed leaf by leaf in parameter
    order, then the vector is rescaled with one multiply."""
    if max_norm <= 0:
        raise SpecError("max_norm must be positive")
    total = 0.0
    for g in grads.values():
        total += float(np.square(g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        grads.vector *= max_norm / norm
    return grads, norm


class AdamW:
    """Adam moments with decoupled weight decay; decay is scaled by the step's lr.

    :meth:`step` updates a bundle (:class:`Dense`), or a tuple of bundles,
    with whole-vector passes: per bundle, one vector each of m and v (zeros
    before the first step, a new pair after each) and two scratch vectors.
    Every expression and operand order is the per-leaf update's, so the bits
    are too.  The new values are checked before anything is written: a
    non-finite one raises ``AutodiffError`` naming its leaf and leaves the
    parameters, m, v and the step count as they were.  ``param_names`` are
    the bundles' leaf names, in order; :meth:`state` lists m and v by them.
    """

    def __init__(self, param_names, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 weight_decay: float = 0.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.step_count = 0
        self.names = list(param_names)
        # per bundle, from the first step: (m, v) and the scratch (vector, new values)
        self.moments: list[tuple[np.ndarray, np.ndarray]] | None = None
        self.scratch: list[tuple[np.ndarray, Flat]] | None = None

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, params: Dense | tuple[Dense, ...], grads: Flat | tuple[Flat, ...],
             lr: float | None = None) -> None:
        """One update of ``params`` from ``grads``, the same bundles' gradients;
        an overflow raises at the check, without a warning."""
        if isinstance(params, Dense):
            params, grads = (params,), (grads,)
        if self.moments is None:
            names = [name for p in params for name in p]
            if names != self.names:
                raise KeyError(f"AdamW over {self.names} stepped with {names}")
            self.moments = [(np.zeros(p.data.vector.size), np.zeros(p.data.vector.size))
                            for p in params]
            self.scratch = [(np.empty(p.data.vector.size), Flat(p.data.layout)) for p in params]
        lr = self.lr if lr is None else lr
        t = self.step_count + 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        moments = []
        for p, g, (m, v), (s, new) in zip(params, grads, self.moments, self.scratch):
            if g.layout != new.layout:
                raise KeyError(f"{p.owner}: gradient layout {g.layout} does not match "
                               f"the parameters' {new.layout}")
            x, g, out = p.data.vector, g.vector, new.vector
            m = np.multiply(m, b1)
            m += np.multiply(g, 1.0 - b1, out=s)
            v = np.multiply(v, b2)
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            # x - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * x)
            np.divide(m, bc1, out=s)
            np.sqrt(np.divide(v, bc2, out=out), out=out)
            out += ADAM_EPS
            s /= out
            s += np.multiply(x, self.weight_decay, out=out)
            s *= lr
            np.subtract(x, s, out=out)
            new.checked("AdamW update of")
            moments.append((m, v))
        for p, (_, new) in zip(params, self.scratch):
            p.data.vector[...] = new.vector
        self.moments = moments
        self.step_count = t

    def state(self) -> dict:
        """The step count, and m and v by leaf name: ``None`` before the first
        step, then views of the last step's moment vectors, which no later
        step writes into."""
        def by_name(which: int) -> dict:
            if not self.step_count:
                return {name: None for name in self.names}
            return {name: arr for mv, (_, new) in zip(self.moments, self.scratch)
                    for name, arr in Flat(new.layout, mv[which]).items()}

        return {"step_count": self.step_count, "m": by_name(0), "v": by_name(1)}


def ema_decay_at(step: int, decay: float, power: float) -> float:
    """Power-ramped decay min(decay, ((1+k)/(10+k))^power); avoids a frozen shadow."""
    return min(decay, ((1.0 + step) / (10.0 + step)) ** power)


def ema_update(shadow: Flat, params: Dense, step: int, decay: float, power: float) -> Flat:
    """Move the shadow of ``params`` toward them in place, ``d*s + (1-d)*p``
    with the ramped decay ``d``, as one vector pass."""
    if shadow.layout != params.data.layout:
        raise SpecError(f"ema layout {shadow.layout} does not match {params.data.layout}")
    d = ema_decay_at(step, decay, power)
    shadow.vector *= d
    shadow.vector += (1.0 - d) * params.data.vector
    return shadow


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
    value, the generator's gradient as one :class:`Flat` vector, field scale
    averaged over the loss slices).
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
    ``on_checkpoint(step, ema)``, if given, runs after every
    ``checkpoint_every``-th update, with that step's parameters in
    ``generator`` and their EMA shadow in ``ema``.  A non-finite value in
    the step (forward, backward or update) raises :class:`NumericalAbort`,
    whose dump holds the step and its minibatch indices.
    """
    obs = np.asarray(dataset.observations, dtype=np.float64)
    chunks = np.asarray(dataset.chunks, dtype=np.float64)
    n = obs.shape[0]
    if n == 0:
        raise SpecError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    opt = AdamW(generator.params.keys(), lr=config.learning_rate,
                beta1=config.beta1, beta2=config.beta2,
                weight_decay=config.weight_decay)
    shadow = generator.params.data.copy()
    result = TrainResult(ema_params=shadow)

    steps_per_epoch = max(1, (n + config.batch_size - 1) // config.batch_size)
    total_steps = config.steps if config.steps is not None \
        else DEFAULT_EPOCHS * steps_per_epoch

    for step in range(1, total_steps + 1):
        k = (step - 1) % steps_per_epoch  # the step's minibatch in its epoch
        if k == 0:
            order = rng.permutation(n)
        idx = order[k * config.batch_size:(k + 1) * config.batch_size]

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
        ema_update(shadow, generator.params, opt.step_count - 1,
                   config.ema_decay, config.ema_power)
        result.metrics.append({"step": step, "loss": loss, "grad_norm": norm,
                               "s_norm": scale, "lr": lr})
        if on_checkpoint and config.checkpoint_every and step % config.checkpoint_every == 0:
            on_checkpoint(step, shadow)

    result.rng_state = rng.bit_generator.state
    result.optimizer_state = opt.state()
    return result


def write_metrics_csv(path, rows, header=METRICS_HEADER) -> None:
    """Write ``path`` afresh: the ``header`` line, then one line per row, with
    repr-formatted floats so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(row[k])) if not isinstance(row[k], int)
                             else row[k] for k in header])
