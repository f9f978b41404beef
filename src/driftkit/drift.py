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

:func:`compute_drift_field` takes (..., B, G, S) hypotheses against
(..., B, U, S) references, one independent instance per leading index; the
time slices of step-wise mode are such an axis.  Inside, the pool axis leads:
the stage functions take (G, ..., B, W) hypotheses, (U, ..., B, W)
references, (U, G, ..., B, W) displacements and (U, G, ..., B) distances,
affinities and coefficients.  A softmax, mass balance or force sum over G or
U is then a few whole-slice adds, where a reduction over a last axis of 2-5
elements costs numpy a loop per outer element.  These sums add left to right
from 0.0, as numpy adds fewer than 8 elements on any axis, so a pool of
G + C_p <= 7 gets the bits of the last-axis pipeline; the width sum of a
chunk (S >= 8) stays numpy's pairwise last-axis sum, and the scale and RMS
means stay reductions over C-order (..., B, G, U) and (..., B, G) copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import check_finite
from .generator import SpecError

DEFAULT_TEMPERATURES = (0.2,)
MULTISCALE_TEMPERATURES = (0.02, 0.05, 0.2)

LOSS_MODES = ("chunk", "step_wise")


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
            raise SpecError("hypothesis_count must be positive")
        if not self.temperatures:
            raise SpecError("at least one temperature required")
        if not all(0.0 < t < math.inf for t in self.temperatures):
            raise SpecError("temperatures must be positive and finite")
        if len(set(self.temperatures)) != len(self.temperatures):
            raise SpecError("temperatures must be distinct")
        if self.scale_floor <= 0 or self.force_floor <= 0:
            raise SpecError("floors must be positive")
        if self.loss_mode not in LOSS_MODES:
            raise SpecError(f"loss_mode must be one of {LOSS_MODES}")


def build_reference_pool(hypotheses: np.ndarray, positives: np.ndarray) -> np.ndarray:
    """Stack the (B, G, S) hypotheses and the (B, C_p, S) positives into the
    (B, G + C_p, S) reference array, hypotheses first."""
    det = np.asarray(hypotheses, dtype=np.float64)
    if det.ndim != 3:
        raise SpecError(f"hypotheses must be (B, G, S), got {det.shape}")
    b, _, s = det.shape
    positives = np.asarray(positives, dtype=np.float64)
    if positives.ndim != 3 or positives.shape[0] != b or positives.shape[2] != s:
        raise SpecError(f"positives must be (B, C_p, S), got {positives.shape}")
    if positives.shape[1] < 1:
        raise SpecError("positive reference set must be non-empty")
    return np.concatenate([det, positives], axis=1)


@dataclass
class DriftFieldTensors:
    """All intermediates of one drift-field evaluation, for diagnostics and tests.

    Arrays keep the hypotheses' leading axes and are views in the public
    (..., B, G, U) and (..., B, G, W) layouts of the pool-first arrays the
    pipeline computes; ``scale`` has one entry per index.
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


def _sum_leading(a: np.ndarray) -> np.ndarray:
    """Sum over the leading axis from 0.0, left to right: the order in which
    numpy sums an axis of fewer than 8 elements, whichever axis it is."""
    acc = a[0] + 0.0
    for x in a[1:]:
        acc += x
    return acc


def _sum_width(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis in numpy's order: pairwise from 8 elements on,
    and below 8 in sequence, which whole-slice adds give without numpy's cost
    per outer element."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    return _sum_leading(a.T).T


# Cheap views between the layouts; np.moveaxis costs microseconds per call.

def _pool_first(points: np.ndarray) -> np.ndarray:
    """The (C, ..., B, W) view of a (..., B, C, W) array."""
    n = points.ndim
    return points.transpose((n - 2, *range(n - 2), n - 1))


def _pool_back(points: np.ndarray) -> np.ndarray:
    """The (..., B, C, W) view of a (C, ..., B, W) array."""
    n = points.ndim
    return points.transpose((*range(1, n - 1), 0, n - 1))


def _pairs_back(pairs: np.ndarray) -> np.ndarray:
    """The (..., B, G, U) view of a (U, G, ..., B) pair array."""
    return pairs.transpose((*range(2, pairs.ndim), 1, 0))


def displacements(detached: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """The (U, G, ..., B, W) displacements refs - hypotheses from every
    (G, ..., B, W) hypothesis to every (U, ..., B, W) reference."""
    if detached.ndim < 3 or refs.ndim != detached.ndim:
        raise SpecError("displacements expects (G, ..., B, W) and (U, ..., B, W)")
    if detached.shape[1:] != refs.shape[1:]:
        raise SpecError(f"batch/space mismatch: {detached.shape} vs {refs.shape}")
    return refs[:, None] - detached[None]


def pairwise_distances(displacement: np.ndarray) -> np.ndarray:
    """Euclidean length (U, G, ..., B) of every (U, G, ..., B, W) displacement."""
    return np.sqrt(_sum_width(np.square(displacement)))


def global_scale(distances: np.ndarray, scale_floor: float) -> np.ndarray:
    """Mean (U, G, ..., B) distance over (B, G, U) with a floor, one per
    leading index, summed in the order of a C-order (..., B, G, U) block."""
    block = np.ascontiguousarray(_pairs_back(distances))
    return np.maximum(block.mean(axis=(-3, -2, -1)), scale_floor)


def symmetric_affinity(normalized: np.ndarray, temperature: float) -> np.ndarray:
    """Geometric mean of the reference-axis and hypothesis-axis softmaxes.

    Both softmaxes are taken over the same logits -d/(R*scale), from the
    (U, G, ..., B) scale-normalized distances d/R.
    """
    logits = -normalized / temperature
    s_u = _softmax_leading(logits)
    s_r = _softmax_leading(logits.swapaxes(0, 1)).swapaxes(0, 1)
    return np.sqrt(s_u * s_r)


def _softmax_leading(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=0)
    e = np.exp(shifted)
    return e / _sum_leading(e)


def balanced_coefficients(affinity: np.ndarray) -> np.ndarray:
    """Signed (U, G, ..., B) coefficients with cross-side mass balancing.

    The first G = ``affinity.shape[1]`` references are the negative side, the
    rest the positive side.  Negative-side entries get -A * S_plus,
    positive-side entries +A * S_minus, so the two sides exchange exactly
    opposite total mass per hypothesis.
    """
    g = affinity.shape[1]
    negative, positive = affinity[:g], affinity[g:]
    s_minus = _sum_leading(negative)
    s_plus = _sum_leading(positive)
    return np.concatenate([-negative * s_plus, positive * s_minus])


def per_scale_force(alpha: np.ndarray, displacement: np.ndarray) -> np.ndarray:
    """(G, ..., B, W) force: the sum over the references of the (U, G, ..., B)
    coefficients times the scale-normalized (U, G, ..., B, W) displacements."""
    return _sum_leading(alpha[..., None] * displacement)


def rms_normalize(force: np.ndarray, force_floor: float) -> np.ndarray:
    """Divide a (G, ..., B, W) force by the per-index RMS of its per-(i, r)
    norms, floored to avoid blowup; the mean runs over a C-order (..., B, G)
    block, as in the public layout."""
    sq_norm = _sum_width(np.square(force))
    block = np.ascontiguousarray(sq_norm.transpose((*range(1, sq_norm.ndim), 0)))
    mean_sq = block.mean(axis=(-2, -1))
    return force / _per_index(np.sqrt(mean_sq + force_floor), 2)


def aggregate_and_target(forces: list[np.ndarray], detached: np.ndarray,
                         scale: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the normalized per-temperature (G, ..., B, W) forces and build the
    detached target from the (G, ..., B, W) hypotheses."""
    aggregate = forces[0].copy()
    for f in forces[1:]:
        aggregate += f
    target = detached / _per_index(scale, 2) + aggregate
    return aggregate, target


@np.errstate(over="ignore", invalid="ignore")
def compute_drift_field(detached: np.ndarray, refs: np.ndarray,
                        config: DriftConfig) -> DriftFieldTensors:
    """Run the full geometry pipeline on (..., B, G, S) hypotheses and their
    (..., B, G + C_p, S) reference pool.

    The pipeline runs pool-first; the displacements and the scale-normalized
    distances are formed once, outside the temperature loop.  Inputs that are
    the (..., B, C, S) views of C-order (C, ..., B, S) arrays, as
    :func:`drift_loss` passes them, are taken without a copy.

    Hypotheses too large to square give an infinite or NaN target without a
    warning; :func:`fixed_point_loss` then raises ``AutodiffError``.
    """
    hyp = np.ascontiguousarray(_pool_first(np.asarray(detached, dtype=np.float64)))
    pool = np.ascontiguousarray(_pool_first(np.asarray(refs, dtype=np.float64)))
    displacement = displacements(hyp, pool)
    d = pairwise_distances(displacement)
    scale = global_scale(d, config.scale_floor)
    normalized = d / _per_index(scale, 1)
    displacement /= _per_index(scale, 2)
    out = DriftFieldTensors(distances=_pairs_back(d), scale=scale)
    forces = []
    for temp in config.temperatures:
        aff = symmetric_affinity(normalized, temp)
        alpha = balanced_coefficients(aff)
        force = per_scale_force(alpha, displacement)
        out.affinities[temp] = _pairs_back(aff)
        out.coefficients[temp] = _pairs_back(alpha)
        out.forces[temp] = _pool_back(force)
        forces.append(rms_normalize(force, config.force_floor))
    aggregate, target = aggregate_and_target(forces, hyp, scale)
    out.aggregate = _pool_back(aggregate)
    out.target = _pool_back(target)
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
        raise SpecError(f"values {values.shape} vs target {target.shape}")
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
        raise SpecError("step_wise mode requires a positive slice_width")
    if s % width != 0:
        raise SpecError(f"chunk width {s} is not a multiple of slice width {width}")

    def split(x: np.ndarray) -> np.ndarray:
        """(B, C, S) -> the (K, B, C, width) view of a C-order (C, K, B, width)
        array, the pipeline's own layout, which it then takes without a copy."""
        pool_first = x.reshape(b, x.shape[1], -1, width).transpose(1, 2, 0, 3)
        return _pool_back(np.ascontiguousarray(pool_first))

    fld = compute_drift_field(split(hypotheses), split(refs), config)
    target = fld.target.transpose(1, 2, 0, 3).reshape(b, g, s)
    loss, grad = fixed_point_loss(hypotheses, target, np.repeat(fld.scale, width))
    return loss, grad, fld
