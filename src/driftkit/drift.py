"""Drift-field construction and the fixed-point regression loss.

Each condition's reference pool is its G hypotheses (the repulsive side)
followed by its C_p >= 1 expert actions (the attractive side), so the pool has
U = G + C_p references and the side of reference u is whether u < G.

Everything is float64 numpy on plain arrays.  The geometry needs no
gradient: pairwise distances, a global mean-distance scale, symmetric
affinities per temperature, mass-balanced signed coefficients, per-scale
forces, RMS normalization and the aggregated field.  Gradients enter only
through the squared regression of the hypotheses onto the fixed target, with
the global scale treated as a constant, and :func:`fixed_point_loss` returns
that gradient with respect to the hypotheses alongside the loss.

The geometry works over any leading axes, (..., B, G, S) hypotheses against
(..., B, U, S) references, one independent instance per leading index; the
time slices of step-wise mode are such an axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import check_finite

DEFAULT_TEMPERATURES = (0.2,)
MULTISCALE_TEMPERATURES = (0.02, 0.05, 0.2)

LOSS_MODES = ("chunk", "step_wise")


class DriftConfigError(ValueError):
    """Invalid drift-field configuration or pool construction."""


@dataclass(frozen=True)
class DriftConfig:
    """Geometry and loss-mode knobs for drift-field training."""

    hypothesis_count: int = 4
    temperatures: tuple[float, ...] = DEFAULT_TEMPERATURES
    scale_floor: float = 1e-6
    force_floor: float = 1e-6
    loss_mode: str = "chunk"

    def __post_init__(self):
        if self.hypothesis_count < 1:
            raise DriftConfigError("hypothesis_count must be positive")
        if not self.temperatures:
            raise DriftConfigError("at least one temperature required")
        if any(t <= 0 for t in self.temperatures):
            raise DriftConfigError("temperatures must be positive")
        if len(set(self.temperatures)) != len(self.temperatures):
            raise DriftConfigError("temperatures must be distinct")
        if self.scale_floor <= 0 or self.force_floor <= 0:
            raise DriftConfigError("floors must be positive")
        if self.loss_mode not in LOSS_MODES:
            raise DriftConfigError(f"loss_mode must be one of {LOSS_MODES}")


def build_reference_pool(hypotheses: np.ndarray, positives: np.ndarray) -> np.ndarray:
    """Stack the (B, G, S) hypotheses and the (B, C_p, S) positives into the
    (B, G + C_p, S) reference array, hypotheses first."""
    det = np.asarray(hypotheses, dtype=np.float64)
    if det.ndim != 3:
        raise DriftConfigError(f"hypotheses must be (B, G, S), got {det.shape}")
    b, _, s = det.shape
    positives = np.asarray(positives, dtype=np.float64)
    if positives.ndim != 3 or positives.shape[0] != b or positives.shape[2] != s:
        raise DriftConfigError(f"positives must be (B, C_p, S), got {positives.shape}")
    if positives.shape[1] < 1:
        raise DriftConfigError("positive reference set must be non-empty")
    return np.concatenate([det, positives], axis=1)


@dataclass
class DriftFieldTensors:
    """All intermediates of one drift-field evaluation, for diagnostics and tests.

    Arrays keep the hypotheses' leading axes; ``scale`` has one entry per index.
    """

    distances: np.ndarray
    scale: np.ndarray
    affinities: dict[float, np.ndarray] = field(default_factory=dict)
    coefficients: dict[float, np.ndarray] = field(default_factory=dict)
    forces: dict[float, np.ndarray] = field(default_factory=dict)
    aggregate: np.ndarray | None = None
    target: np.ndarray | None = None


# -- geometry (gradient-free) -------------------------------------------


def _per_index(scale, trailing: int) -> np.ndarray:
    """A per-leading-index scale, shaped to broadcast over ``trailing`` more axes."""
    scale = np.asarray(scale, dtype=np.float64)
    return scale.reshape(scale.shape + (1,) * trailing)


def pairwise_distances(detached: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Euclidean distance between every hypothesis (..., i, r) and reference (..., i, u)."""
    detached = np.asarray(detached, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    if detached.ndim < 3 or refs.ndim != detached.ndim:
        raise DriftConfigError("pairwise_distances expects (..., B, G, S) and (..., B, U, S)")
    if detached.shape[:-2] != refs.shape[:-2] or detached.shape[-1] != refs.shape[-1]:
        raise DriftConfigError(
            f"batch/space mismatch: {detached.shape} vs {refs.shape}")
    diff = detached[..., :, None, :] - refs[..., None, :, :]
    return np.sqrt(np.square(diff).sum(axis=-1))


def global_scale(distances: np.ndarray, scale_floor: float) -> np.ndarray:
    """Mean distance over (i, r, u) with a floor, one per leading index."""
    return np.maximum(distances.mean(axis=(-3, -2, -1)), scale_floor)


def symmetric_affinity(distances: np.ndarray, scale: float | np.ndarray,
                       temperature: float) -> np.ndarray:
    """Geometric mean of the reference-axis and hypothesis-axis softmaxes.

    Both softmaxes are taken over the same normalized logits -d/(R*scale).
    """
    logits = -(distances / _per_index(scale, 3)) / temperature
    s_u = _softmax_np(logits, axis=-1)
    s_r = _softmax_np(logits, axis=-2)
    return np.sqrt(s_u * s_r)


def _softmax_np(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def balanced_coefficients(affinity: np.ndarray) -> np.ndarray:
    """Signed coefficients with cross-side mass balancing.

    The first G = ``affinity.shape[-2]`` references are the negative side, the
    rest the positive side.  Negative-side entries get -A * S_plus,
    positive-side entries +A * S_minus, so the two sides exchange exactly
    opposite total mass per hypothesis.
    """
    g = affinity.shape[-2]
    negative, positive = affinity[..., :g], affinity[..., g:]
    s_minus = negative.sum(axis=-1, keepdims=True)
    s_plus = positive.sum(axis=-1, keepdims=True)
    return np.concatenate([-negative * s_plus, positive * s_minus], axis=-1)


def per_scale_force(alpha: np.ndarray, refs: np.ndarray, detached: np.ndarray,
                    scale: float | np.ndarray) -> np.ndarray:
    """Coefficient-weighted sum of scale-normalized displacements toward references."""
    disp = (refs[..., None, :, :] - detached[..., :, None, :]) / _per_index(scale, 4)
    return np.einsum("...gu,...gud->...gd", alpha, disp)


def rms_normalize(force: np.ndarray, force_floor: float) -> np.ndarray:
    """Divide by the per-index RMS of per-(i, r) force norms, floored to avoid blowup."""
    mean_sq = np.square(force).sum(axis=-1).mean(axis=(-2, -1))
    return force / _per_index(np.sqrt(mean_sq + force_floor), 3)


def aggregate_and_target(forces: list[np.ndarray], detached: np.ndarray,
                         scale: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the normalized per-temperature forces and build the detached target."""
    aggregate = forces[0].copy()
    for f in forces[1:]:
        aggregate += f
    target = detached / _per_index(scale, 3) + aggregate
    return aggregate, target


@np.errstate(over="ignore", invalid="ignore")
def compute_drift_field(detached: np.ndarray, refs: np.ndarray,
                        config: DriftConfig) -> DriftFieldTensors:
    """Run the full geometry pipeline on (..., B, G, S) hypotheses and their
    (..., B, G + C_p, S) reference pool.

    Hypotheses too large to square give an infinite or NaN target without a
    warning; :func:`fixed_point_loss` then raises ``AutodiffError``.
    """
    d = pairwise_distances(detached, refs)
    scale = global_scale(d, config.scale_floor)
    out = DriftFieldTensors(distances=d, scale=scale)
    normalized = []
    for temp in config.temperatures:
        aff = symmetric_affinity(d, scale, temp)
        alpha = balanced_coefficients(aff)
        force = per_scale_force(alpha, refs, detached, scale)
        out.affinities[temp] = aff
        out.coefficients[temp] = alpha
        out.forces[temp] = force
        normalized.append(rms_normalize(force, config.force_floor))
    out.aggregate, out.target = aggregate_and_target(normalized, detached, scale)
    return out


# -- regression loss (gradient-carrying) ---------------------------------


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def fixed_point_loss(values: np.ndarray, target: np.ndarray,
                     scale: float | np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared gap between scale-normalized hypotheses and the frozen
    target, and its gradient with respect to ``values``.

    ``scale`` is a number or an array that broadcasts against the values.
    The loss equals the sample average of the per-sample losses; in the
    forward pass it reduces to the mean squared drift magnitude because the
    target is the detached hypotheses plus the drift.  With r = x/R - target
    over N entries, dL/dx = 2r/(R*N), evaluated in the reverse-mode order of
    ``mean(square(x/R - target))``: (2 * (1/N)) * r, then / R.  A non-finite
    target, scale, loss or gradient raises ``AutodiffError``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != target.shape:
        raise DriftConfigError(f"values {values.shape} vs target {target.shape}")
    check_finite(target, "drift target")
    check_finite(np.asarray(scale, dtype=np.float64), "drift scale")
    resid = values / scale - target
    loss = float(check_finite((resid * resid).mean(), "drift loss"))
    grad = 2.0 * (1.0 / resid.size) * resid / scale
    return loss, check_finite(grad, "drift loss gradient")


def drift_loss(values: np.ndarray, positives: np.ndarray, config: DriftConfig,
               slice_width: int | None = None):
    """Drift-field regression loss for one minibatch of (B, G, S) hypotheses.

    Step-wise mode splits the flattened chunk into K time slices of
    ``slice_width`` coordinates and runs an independent pipeline on each, as
    the leading axis of one geometry pass; chunk mode is the one-slice case
    over the full width.  The loss is the mean over all (B, G, S) entries,
    which equals the mean of the per-slice losses because the slices have
    equal size.  Returns the scalar loss, its (B, G, S) gradient with respect
    to ``values`` (:func:`fixed_point_loss`) and the field tensors, whose
    arrays lead with the slice axis (``scale`` is (K,)).
    """
    hypotheses = np.asarray(values, dtype=np.float64)
    refs = build_reference_pool(hypotheses, positives)
    b, g, s = hypotheses.shape
    width = s if config.loss_mode == "chunk" else slice_width
    if width is None or width < 1:
        raise DriftConfigError("step_wise mode requires a positive slice_width")
    if s % width != 0:
        raise DriftConfigError(f"chunk width {s} is not a multiple of slice width {width}")

    def split(x: np.ndarray) -> np.ndarray:
        """(B, C, S) -> (K, B, C, width) in C order, so that each slice's sums add
        in the order of a separate 3-d instance and keep its bits."""
        return np.ascontiguousarray(np.moveaxis(x.reshape(b, x.shape[1], -1, width), 2, 0))

    fld = compute_drift_field(split(hypotheses), split(refs), config)
    target = np.moveaxis(fld.target, 0, 2).reshape(b, g, s)
    loss, grad = fixed_point_loss(hypotheses, target, np.repeat(fld.scale, width))
    return loss, grad, fld
