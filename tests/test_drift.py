"""Drift-field geometry against the loop oracle, the worked examples, and the
mass-balance / scale-equivariance / gradient properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftkit.autodiff import Tensor, backward
from driftkit.drift import (DriftConfig, MULTISCALE_TEMPERATURES,
                            aggregate_and_target, balanced_coefficients,
                            build_reference_pool, compute_drift_field, displacements,
                            fixed_point_loss, drift_loss, global_scale,
                            pairwise_distances, per_scale_force, rms_normalize,
                            symmetric_affinity)
from driftkit.generator import SpecError

from .oracles import (as_built_per_scale_force, drift_field_as_built, drift_field_loops,
                      finite_diff, tape_fixed_point_loss)


def random_instance(rng, b=None, g=None, u_extra=None, s=None):
    b = b or int(rng.integers(1, 4))
    g = g or int(rng.integers(1, 5))
    c_p = u_extra or int(rng.integers(1, 3))
    s = s or int(rng.integers(1, 5))
    hyp = rng.uniform(-2, 2, size=(b, g, s))
    pos = rng.uniform(-2, 2, size=(b, c_p, s))
    return hyp, build_reference_pool(hyp, pos)


# The stage functions take the pipeline's pool-first layout: a (B, C, S)
# array goes in as its (C, B, S) transpose, and a (U, G, B) pair array comes
# back to (B, G, U) by ``.T``.


def pool_first(x):
    """(B, C, S) <-> (C, B, S)."""
    return x.swapaxes(0, 1)


def distances_of(det, refs):
    """(B, G, U) distances from (B, G, S) hypotheses and (B, U, S) references."""
    return pairwise_distances(displacements(pool_first(det), pool_first(refs))).T


def bits(x) -> bytes:
    """The bytes of an array in C order: signed zeros and NaN payloads count."""
    return np.ascontiguousarray(x).tobytes()


# -- pairwise distances ---------------------------------------------------


def test_distance_three_four_five():
    det = np.array([[[0.0, 0.0]]])
    refs = np.array([[[3.0, 4.0]]])
    assert distances_of(det, refs)[0, 0, 0] == 5.0


def test_distance_zero_for_identical():
    det = np.array([[[1.5, -2.0, 0.25]]])
    assert distances_of(det, det)[0, 0, 0] == 0.0


def test_distances_match_loop_oracle():
    rng = np.random.default_rng(11)
    det = rng.normal(size=(2, 3, 4))
    refs = rng.normal(size=(2, 5, 4))
    d = distances_of(det, refs)
    expected = np.zeros((2, 3, 5))
    for i in range(2):
        for r in range(3):
            for k in range(5):
                expected[i, r, k] = np.sqrt(((det[i, r] - refs[i, k]) ** 2).sum())
    np.testing.assert_allclose(d, expected, atol=1e-12, rtol=0)


def test_distance_shape_mismatch():
    with pytest.raises(SpecError):
        displacements(pool_first(np.zeros((1, 2, 3))), pool_first(np.zeros((2, 2, 3))))


# -- global scale ---------------------------------------------------------


def test_global_scale_uniform_mean():
    d = np.array([[[1.0, 2.0, 3.0]]])  # B=1, G=1, U=3
    assert global_scale(d.T, 1e-6) == 2.0


def test_global_scale_floor_active():
    d = np.zeros((1, 2, 3))
    assert global_scale(d.T, 1e-6) == 1e-6


# -- symmetric affinity ---------------------------------------------------


def test_affinity_degenerate_single_pair_is_one():
    d = np.array([[[4.2]]])  # at scale 1
    a = symmetric_affinity(d.T, 0.2).T
    assert a[0, 0, 0] == 1.0


def test_affinity_equal_distances_gives_half():
    d = np.full((1, 2, 2), 3.0)  # at scale 1
    a = symmetric_affinity(d.T, 0.5).T
    np.testing.assert_allclose(a, 0.5, atol=1e-15, rtol=0)


def test_affinity_matches_loop_oracle():
    rng = np.random.default_rng(5)
    values, refs = random_instance(rng)
    d = distances_of(values, refs)
    scale = global_scale(d.T, 1e-6)
    for temp in (0.05, 0.2, 1.0):
        a = symmetric_affinity(d.T / scale, temp).T
        oracle = drift_field_loops(values, refs, (temp,), 1e-6, 1e-6)
        np.testing.assert_allclose(a, oracle["affinities"][temp], atol=1e-12, rtol=0)


# -- balanced coefficients ------------------------------------------------


def test_coefficients_two_element_identity():
    a_self, a_pos = 0.3, 0.8
    aff = np.array([[[a_self, a_pos]]])
    alpha = balanced_coefficients(aff.T).T
    np.testing.assert_allclose(alpha[0, 0], [-a_self * a_pos, a_pos * a_self],
                               atol=0, rtol=0)
    assert alpha.sum() == 0.0


def test_coefficients_zero_side_gives_zero():
    # G=2: both hypotheses give their two negative references zero affinity
    aff = np.array([[[0.0, 0.0, 0.7], [0.0, 0.0, 0.4]]])
    alpha = balanced_coefficients(aff.T).T
    np.testing.assert_array_equal(alpha, np.zeros_like(alpha))


def test_coefficients_empty_positive_side_rejected():
    # the coefficients' positive side is the pool's positives, which the pool
    # requires to be non-empty
    with pytest.raises(SpecError, match="positive reference set must be non-empty"):
        build_reference_pool(np.ones((2, 3, 4)), np.ones((2, 0, 4)))


def test_mass_balance_and_oracle_on_random_affinities():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g, c_p = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        aff = rng.uniform(0, 1, size=(2, g, g + c_p))
        neg, pos = np.arange(g), np.arange(g, g + c_p)
        alpha = balanced_coefficients(aff.T).T
        residual = alpha[:, :, neg].sum(axis=2) + alpha[:, :, pos].sum(axis=2)
        assert np.max(np.abs(residual)) < 1e-12


# -- forces and normalization ---------------------------------------------


def test_force_zero_when_reference_coincides():
    det = np.array([[[1.0, 2.0]]])
    refs = det.copy()
    alpha = np.array([[[0.9]]])
    disp = displacements(pool_first(det), pool_first(refs)) / 0.5
    f = pool_first(per_scale_force(alpha.T, disp))
    np.testing.assert_array_equal(f, np.zeros((1, 1, 2)))


def test_force_zero_for_zero_coefficients():
    rng = np.random.default_rng(2)
    det = rng.normal(size=(1, 2, 3))
    refs = rng.normal(size=(1, 4, 3))
    disp = displacements(pool_first(det), pool_first(refs)) / 1.0
    f = pool_first(per_scale_force(np.zeros((1, 2, 4)).T, disp))
    np.testing.assert_array_equal(f, np.zeros((1, 2, 3)))


def test_force_matches_loop_oracle():
    rng = np.random.default_rng(23)
    values, refs = random_instance(rng)
    config = DriftConfig(hypothesis_count=values.shape[1])
    field = compute_drift_field(values, refs, config)
    oracle = drift_field_loops(values, refs, config.temperatures, config.scale_floor,
                               config.force_floor)
    np.testing.assert_allclose(field.forces[0.2], oracle["forces"][0.2],
                               atol=1e-12, rtol=0)


def test_force_sum_of_negative_zeros_is_positive_zero_as_built():
    # negative coefficients on zero displacements give -0.0 terms; numpy's sum
    # and the as-built einsum start from +0.0, so their total is +0.0
    det = np.zeros((1, 2, 3))
    alpha = -np.ones((1, 2, 2))
    disp = displacements(pool_first(det), pool_first(det))
    f = pool_first(per_scale_force(alpha.T, disp))
    ref = as_built_per_scale_force(alpha, det, det, 1.0)
    assert bits(f) == bits(ref) == bits(np.zeros((1, 2, 3)))


def test_rms_normalize_zero_input_stays_zero():
    f = np.zeros((2, 3, 4))
    np.testing.assert_array_equal(pool_first(rms_normalize(pool_first(f), 1e-6)), f)


def test_rms_normalize_equal_rows_near_unit():
    c = 50.0  # row norm much larger than sqrt(floor)
    f = np.zeros((1, 2, 2))
    f[:, :, 0] = c
    eps = 1e-6
    out = pool_first(rms_normalize(pool_first(f), eps))
    norms = np.sqrt(np.square(out).sum(axis=-1))
    # first-order bound plus float rounding slack
    np.testing.assert_allclose(norms, 1.0, atol=eps / (2 * c * c) + 1e-15, rtol=0)


def test_rms_normalize_mean_square_identity():
    rng = np.random.default_rng(9)
    f = rng.normal(size=(3, 4, 5))
    eps = 1e-6
    out = pool_first(rms_normalize(pool_first(f), eps))
    m = np.square(f).sum(axis=-1).mean()
    got = np.square(out).sum(axis=-1).mean()
    np.testing.assert_allclose(got, m / (m + eps), rtol=1e-12)


# -- aggregation and target ------------------------------------------------


def test_aggregate_single_temperature_passthrough():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(1, 2, 3))
    det = rng.normal(size=(1, 2, 3))
    v, target = aggregate_and_target([pool_first(f)], pool_first(det), 2.0)
    v, target = pool_first(v), pool_first(target)
    np.testing.assert_array_equal(v, f)
    np.testing.assert_allclose(target, det / 2.0 + f, rtol=0, atol=0)


def test_zero_drift_target_is_scaled_hypotheses():
    det = np.array([[[2.0, 4.0]]])
    v, target = aggregate_and_target([np.zeros((1, 1, 2))], pool_first(det), 2.0)
    target = pool_first(target)
    np.testing.assert_array_equal(target, det / 2.0)


def test_aggregate_two_temperatures_sum():
    f1 = np.full((1, 1, 2), 1.0)
    f2 = np.full((1, 1, 2), 0.25)
    v, _ = aggregate_and_target([pool_first(f1), pool_first(f2)], np.zeros((1, 1, 2)), 1.0)
    v = pool_first(v)
    np.testing.assert_array_equal(v, f1 + f2)


# -- the regression loss ----------------------------------------------------


def test_loss_zero_when_target_equals_prediction():
    det = np.array([[[1.0, -1.0]]])
    target = det / 2.0  # V = 0 at scale 2
    loss, _ = fixed_point_loss(det, target, 2.0)
    assert loss == 0.0


def test_loss_constant_field_squares():
    det = np.ones((2, 2, 3))
    v = 0.37
    target = det / 1.0 + v
    loss, _ = fixed_point_loss(det, target, 1.0)
    assert loss == pytest.approx(v * v, rel=1e-15)


def test_forward_loss_equals_mean_squared_drift():
    rng = np.random.default_rng(31)
    for _ in range(20):
        values, refs = random_instance(rng)
        config = DriftConfig(hypothesis_count=values.shape[1],
                             temperatures=MULTISCALE_TEMPERATURES)
        field = compute_drift_field(values, refs, config)
        loss, _ = fixed_point_loss(values, field.target, field.scale)
        assert abs(loss - np.mean(np.square(field.aggregate))) < 1e-10


def test_loss_gradient_matches_finite_differences_with_fixed_target():
    rng = np.random.default_rng(13)
    values, refs = random_instance(rng, b=2, g=3, s=4)
    config = DriftConfig(hypothesis_count=3)
    field = compute_drift_field(values, refs, config)
    _, analytic = fixed_point_loss(values, field.target, field.scale)

    def fd_target(arr):
        return fixed_point_loss(arr, field.target, field.scale)[0]

    numeric = finite_diff(fd_target, values.copy())
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_loss_shape_mismatch_rejected():
    with pytest.raises(SpecError):
        fixed_point_loss(np.zeros((1, 1, 2)), np.zeros((1, 1, 3)), 1.0)


# -- full pipeline vs oracle -----------------------------------------------


def test_pipeline_matches_loop_oracle_100_instances():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        b, g, s = (int(rng.integers(1, 7)) for _ in range(3))
        c_p = int(rng.integers(1, max(2, 7 - g)))
        hyp = rng.uniform(-2, 2, size=(b, g, s))
        pos = rng.uniform(-2, 2, size=(b, c_p, s))
        refs = build_reference_pool(hyp, pos)
        config = DriftConfig(hypothesis_count=g, temperatures=MULTISCALE_TEMPERATURES)
        field = compute_drift_field(hyp, refs, config)
        loss, _ = fixed_point_loss(hyp, field.target, field.scale)
        oracle = drift_field_loops(hyp, refs, config.temperatures, config.scale_floor,
                                   config.force_floor)
        worst = max(worst, abs(field.scale - oracle["scale"]))
        worst = max(worst, np.max(np.abs(field.distances - oracle["distances"])))
        for t in config.temperatures:
            worst = max(worst, np.max(np.abs(field.affinities[t] - oracle["affinities"][t])))
            worst = max(worst, np.max(np.abs(field.coefficients[t] - oracle["coefficients"][t])))
            worst = max(worst, np.max(np.abs(field.forces[t] - oracle["forces"][t])))
        worst = max(worst, np.max(np.abs(field.aggregate - oracle["aggregate"])))
        worst = max(worst, np.max(np.abs(field.target - oracle["target"])))
        worst = max(worst, abs(loss - oracle["loss"]))
    assert worst < 1e-10


def test_mass_balance_through_pipeline():
    rng = np.random.default_rng(77)
    for _ in range(20):
        values, refs = random_instance(rng)
        g = values.shape[1]
        config = DriftConfig(hypothesis_count=g, temperatures=(0.05, 0.2))
        field = compute_drift_field(values, refs, config)
        for alpha in field.coefficients.values():
            residual = alpha[:, :, :g].sum(axis=2) + alpha[:, :, g:].sum(axis=2)
            assert np.max(np.abs(residual)) < 1e-9


def test_softmax_axis_sums_through_pipeline():
    rng = np.random.default_rng(19)
    values, refs = random_instance(rng, b=2, g=3, s=4)
    d = distances_of(values, refs)
    scale = global_scale(d.T, 1e-6)
    logits = -(d / scale) / 0.2
    shifted_u = logits - logits.max(axis=2, keepdims=True)
    p_u = np.exp(shifted_u) / np.exp(shifted_u).sum(axis=2, keepdims=True)
    shifted_r = logits - logits.max(axis=1, keepdims=True)
    p_r = np.exp(shifted_r) / np.exp(shifted_r).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(p_u.sum(axis=2), 1.0, atol=1e-12, rtol=0)
    np.testing.assert_allclose(p_r.sum(axis=1), 1.0, atol=1e-12, rtol=0)


def test_scale_equivariance_of_normalized_geometry():
    rng = np.random.default_rng(41)
    values, refs = random_instance(rng, b=2, g=3, s=4)
    config = DriftConfig(hypothesis_count=3, temperatures=(0.2,))
    base = compute_drift_field(values, refs, config)
    c = 3.7
    scaled = compute_drift_field(values * c, refs * c, config)
    assert scaled.scale == pytest.approx(c * base.scale, rel=1e-12)
    np.testing.assert_allclose(scaled.affinities[0.2], base.affinities[0.2],
                               atol=1e-9, rtol=0)
    np.testing.assert_allclose(scaled.coefficients[0.2], base.coefficients[0.2],
                               atol=1e-9, rtol=0)


def test_equilibrium_field_statistically_symmetric():
    """Hypotheses resampled from the expert distribution see a drift whose
    magnitude does not depend on which sample plays which role."""
    rng = np.random.default_rng(4242)
    g, s = 4, 6
    config = DriftConfig(hypothesis_count=g)

    def mixture(n):
        centers = np.where(rng.random((n, 1)) < 0.5, -0.6, 0.6)
        return centers + rng.normal(scale=0.15, size=(n, s))

    stats_a, stats_b = [], []
    for _ in range(200):
        a = mixture(g)[None, :, :]
        b = mixture(g)[None, :, :]
        for hyp, pos, sink in ((a, b, stats_a), (b, a, stats_b)):
            field = compute_drift_field(hyp, build_reference_pool(hyp, pos), config)
            sink.append(np.sqrt(np.square(field.aggregate).sum(axis=-1)).mean())
    mean_a, mean_b = np.mean(stats_a), np.mean(stats_b)
    se = np.sqrt(np.var(stats_a, ddof=1) / len(stats_a)
                 + np.var(stats_b, ddof=1) / len(stats_b))
    assert abs(mean_a - mean_b) < 2.0 * se


# -- properties over random geometries --------------------------------------

PROPERTY = settings(max_examples=60, deadline=None)
temperature_sets = st.lists(st.floats(min_value=0.02, max_value=2.0), min_size=1,
                            max_size=3, unique=True)


def pool_instance(seed, b, g, s):
    """Hypotheses and 1 to 3 positives per sample for one pool."""
    rng = np.random.default_rng(seed)
    c_p = int(rng.integers(1, 4))
    hyp = rng.uniform(-2, 2, size=(b, g, s))
    pos = rng.uniform(-2, 2, size=(b, c_p, s))
    return hyp, pos


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 4), g=st.integers(1, 5),
       s=st.integers(1, 5), temperatures=temperature_sets)
def test_property_mass_balance_per_hypothesis_and_temperature(seed, b, g, s, temperatures):
    hyp, pos = pool_instance(seed, b, g, s)
    config = DriftConfig(hypothesis_count=g, temperatures=tuple(temperatures))
    field = compute_drift_field(hyp, build_reference_pool(hyp, pos), config)
    for alpha in field.coefficients.values():
        negative_side = alpha[:, :, :g].sum(axis=2)
        positive_side = alpha[:, :, g:].sum(axis=2)
        np.testing.assert_allclose(negative_side, -positive_side, rtol=1e-12, atol=1e-15)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 4), g=st.integers(1, 5),
       s=st.integers(1, 5), temperatures=temperature_sets)
def test_property_hypothesis_permutation_equivariance(seed, b, g, s, temperatures):
    hyp, pos = pool_instance(seed, b, g, s)
    perm = np.random.default_rng(seed + 1).permutation(g)
    config = DriftConfig(hypothesis_count=g, temperatures=tuple(temperatures))

    def field_of(hypotheses):
        return compute_drift_field(hypotheses, build_reference_pool(hypotheses, pos), config)

    base = field_of(hyp)
    permuted = field_of(hyp[:, perm])
    np.testing.assert_allclose(permuted.aggregate, base.aggregate[:, perm], rtol=0, atol=1e-12)
    np.testing.assert_allclose(permuted.target, base.target[:, perm], rtol=0, atol=1e-12)


# -- step-wise mode ---------------------------------------------------------


def test_step_wise_loss_matches_manual_slices():
    rng = np.random.default_rng(8)
    b, g, horizon, d_a = 2, 3, 4, 2
    hyp = rng.uniform(-1, 1, size=(b, g, horizon * d_a))
    pos = rng.uniform(-1, 1, size=(b, 1, horizon * d_a))
    config = DriftConfig(hypothesis_count=g, loss_mode="step_wise")
    loss, _, fields = drift_loss(hyp, pos, config, slice_width=d_a)
    assert fields.scale.shape == (horizon,)

    chunk_cfg = DriftConfig(hypothesis_count=g, loss_mode="chunk")
    manual = 0.0
    for h in range(horizon):
        lo, hi = h * d_a, (h + 1) * d_a
        sl = hyp[:, :, lo:hi]
        fld = compute_drift_field(sl, build_reference_pool(sl, pos[:, :, lo:hi]), chunk_cfg)
        manual += fixed_point_loss(sl, fld.target, fld.scale)[0]
    assert loss == pytest.approx(manual / horizon, rel=1e-12)


def test_step_wise_requires_slice_width():
    rng = np.random.default_rng(8)
    values = rng.normal(size=(1, 2, 4))
    config = DriftConfig(hypothesis_count=2, loss_mode="step_wise")
    with pytest.raises(SpecError):
        drift_loss(values, rng.normal(size=(1, 1, 4)), config)
    with pytest.raises(SpecError):
        drift_loss(values, rng.normal(size=(1, 1, 4)), config, slice_width=3)


def test_hypotheses_must_be_3d():
    rng = np.random.default_rng(9)
    pos = rng.normal(size=(1, 1, 4))
    with pytest.raises(SpecError, match=r"hypotheses must be \(B, G, S\)"):
        build_reference_pool(rng.normal(size=(2, 4)), pos)
    with pytest.raises(SpecError, match=r"hypotheses must be \(B, G, S\)"):
        drift_loss(rng.normal(size=(1, 2, 2, 4)), pos, DriftConfig(hypothesis_count=2))


def step_wise_loss_loop(hyp, positives, config, slice_width):
    """Reference for step-wise ``drift_loss``: one 3-d pipeline and one tape loss
    per time slice, averaged over the slices.

    Returns (loss, per-slice fields, gradient with respect to the hypotheses).
    """
    values = Tensor(hyp, requires_grad=True)
    horizon = hyp.shape[2] // slice_width
    total, fields = None, []
    for h in range(horizon):
        lo, hi = h * slice_width, (h + 1) * slice_width
        sl = values[:, :, lo:hi]
        refs = build_reference_pool(sl.data, positives[:, :, lo:hi])
        fld = compute_drift_field(sl.data, refs, config)
        piece = tape_fixed_point_loss(sl, fld.target, fld.scale)
        fields.append(fld)
        total = piece if total is None else total + piece
    loss = total / horizon
    return loss, fields, backward(loss)[values]


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 4), g=st.integers(1, 5),
       horizon=st.integers(1, 5), d_a=st.integers(1, 3), temperatures=temperature_sets)
def test_property_step_wise_equals_per_slice_loop(seed, b, g, horizon, d_a, temperatures):
    hyp, pos = pool_instance(seed, b, g, horizon * d_a)
    config = DriftConfig(hypothesis_count=g, temperatures=tuple(temperatures),
                         loss_mode="step_wise")
    loss, grad, fld = drift_loss(hyp, pos, config, slice_width=d_a)
    ref_loss, ref_fields, ref_grad = step_wise_loss_loop(hyp, pos, config, d_a)

    # each slice's geometry is the loop's bit for bit; only the one mean over
    # all entries (against a sum of per-slice means over H) can move the loss
    # and the gradient in the last ulp
    assert loss == pytest.approx(ref_loss.item(), rel=1e-12, abs=0)
    assert fld.scale.shape == (horizon,)
    for h, ref in enumerate(ref_fields):
        assert fld.scale[h] == ref.scale
        np.testing.assert_array_equal(fld.target[h], ref.target)
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 4), g=st.integers(1, 5),
       s=st.integers(1, 6), temperatures=temperature_sets)
def test_property_chunk_mode_is_bitwise_the_3d_pipeline(seed, b, g, s, temperatures):
    hyp, pos = pool_instance(seed, b, g, s)
    config = DriftConfig(hypothesis_count=g, temperatures=tuple(temperatures))
    loss, grad, fld = drift_loss(hyp, pos, config)

    ref_field = compute_drift_field(hyp, build_reference_pool(hyp, pos), config)
    ref_loss, ref_grad = fixed_point_loss(hyp, ref_field.target, ref_field.scale)

    assert fld.scale.shape == (1,) and fld.scale[0] == ref_field.scale
    np.testing.assert_array_equal(fld.target[0], ref_field.target)
    assert loss == ref_loss
    np.testing.assert_array_equal(grad, ref_grad)


def test_config_validation():
    with pytest.raises(SpecError):
        DriftConfig(hypothesis_count=0)
    with pytest.raises(SpecError):
        DriftConfig(temperatures=())
    with pytest.raises(SpecError):
        DriftConfig(temperatures=(0.2, 0.2))
    with pytest.raises(SpecError):
        DriftConfig(loss_mode="other")


# -- the pool-first pipeline against the as-built one -------------------------


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), chunk=st.booleans(), k=st.integers(1, 16),
       b=st.integers(1, 33), g=st.integers(1, 6), c_p=st.integers(1, 6),
       slice_width=st.integers(1, 8), chunk_width=st.integers(1, 40), tie=st.booleans(),
       temperatures=temperature_sets)
def test_property_pool_first_pipeline_is_bitwise_the_as_built_one(
        seed, chunk, k, b, g, c_p, slice_width, chunk_width, tie, temperatures):
    # pools of G + C_p <= 7, where both pipelines add every G, U and pool-side
    # sum in sequence; a tie puts a positive on a hypothesis, so zero
    # displacements and signed zeros occur
    c_p = min(c_p, 7 - g)
    k, w = (1, chunk_width) if chunk else (k, slice_width)
    rng = np.random.default_rng(seed)
    hyp = rng.uniform(-2, 2, size=(k, b, g, w))
    pos = rng.uniform(-2, 2, size=(k, b, c_p, w))
    if tie:
        pos[:, :, 0] = hyp[:, :, -1]
    refs = np.concatenate([hyp, pos], axis=2)
    config = DriftConfig(hypothesis_count=g, temperatures=tuple(temperatures))
    new = compute_drift_field(hyp, refs, config)
    old = drift_field_as_built(hyp, refs, config)

    for name in ("distances", "scale", "aggregate", "target"):
        assert getattr(new, name).shape == getattr(old, name).shape
    assert bits(new.distances) == bits(old.distances)
    assert bits(new.scale) == bits(old.scale)
    for t in config.temperatures:
        assert bits(new.affinities[t]) == bits(old.affinities[t])
        assert bits(new.coefficients[t]) == bits(old.coefficients[t])
    pairs = [(new.forces[t], old.forces[t]) for t in config.temperatures]
    pairs += [(new.aggregate, old.aggregate), (new.target, old.target)]
    for mine, ref in pairs:
        if w > 1:
            assert bits(mine) == bits(ref)
        else:
            # at width 1 the as-built einsum summed the force over U in two
            # interleaved SIMD lanes, not in sequence (DECISIONS.md)
            np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-12)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 9), c_p=st.integers(1, 3),
       horizon=st.integers(1, 5), temperatures=temperature_sets)
def test_property_large_pools_sum_in_the_same_order_at_every_shape(
        seed, g, c_p, horizon, temperatures):
    # B = 1 and width 1 make the pool the only long axis: U reaches 12, and a
    # numpy reduction would switch to pairwise sums from 8 elements on in one
    # shape and not in the other
    rng = np.random.default_rng(seed)
    hyp = rng.uniform(-2, 2, size=(1, g, horizon))
    pos = rng.uniform(-2, 2, size=(1, c_p, horizon))
    config = DriftConfig(hypothesis_count=g, temperatures=tuple(temperatures),
                         loss_mode="step_wise")
    _, _, fld = drift_loss(hyp, pos, config, slice_width=1)
    for h in range(horizon):
        sl = hyp[:, :, h:h + 1]
        ref = compute_drift_field(sl, build_reference_pool(sl, pos[:, :, h:h + 1]), config)
        assert bits(fld.distances[h]) == bits(ref.distances)
        assert bits(fld.scale[h]) == bits(ref.scale)
        for t in config.temperatures:
            assert bits(fld.affinities[t][h]) == bits(ref.affinities[t])
            assert bits(fld.coefficients[t][h]) == bits(ref.coefficients[t])
            assert bits(fld.forces[t][h]) == bits(ref.forces[t])
        assert bits(fld.aggregate[h]) == bits(ref.aggregate)
        assert bits(fld.target[h]) == bits(ref.target)
