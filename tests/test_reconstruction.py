"""Reconstruction from features and the quality ratio."""

from dataclasses import replace

import numpy as np
import pytest

from quatpca import (
    FitParams,
    InvalidDataset,
    InvalidParameter,
    InvalidWeight,
    MANNER_PRECEDENCE,
    Manner,
    QMatrix,
    QuatPcaError,
    SampleSet,
    ShapeError,
    Transform,
    WeightingScheme,
    center,
    fit,
    project,
    reconstruct,
    reconstruct_samples,
    reconstruction_ratio,
    sweep_accuracies,
    sweep_ratios,
)
from conftest import random_qmatrix


@pytest.fixture
def raw_set(rng):
    mats = [random_qmatrix(rng, 4, 3, pure=True) for _ in range(6)]
    return SampleSet.build([(str(t % 2), F) for t, F in enumerate(mats)])


@pytest.fixture
def full_basis(raw_set):
    return fit(center(raw_set), FitParams(s=2.0, p=2.0, k1=4, k2=3, tol=1e-8))


def test_full_basis_reconstruction_is_exact(raw_set, full_basis):
    recs = reconstruct_samples(raw_set, full_basis)
    for sample, rec in zip(raw_set.samples, recs):
        assert rec.allclose(sample.image, tol=1e-8)
    assert reconstruction_ratio(raw_set, recs) == pytest.approx(1.0, abs=1e-9)


def test_reconstruction_restores_mean(raw_set, full_basis):
    assert full_basis.mean.fro_norm() > 0.0
    recs = reconstruct_samples(raw_set, full_basis)
    assert recs[0].allclose(raw_set.samples[0].image, tol=1e-8)


def test_ratio_monotone_in_truncation(raw_set, full_basis):
    ratios = []
    for k in (1, 2, 3):
        small = full_basis.truncated(k, k)
        recs = reconstruct_samples(raw_set, small)
        ratios.append(reconstruction_ratio(raw_set, recs))
    assert ratios[0] <= ratios[1] + 1e-12
    assert ratios[1] <= ratios[2] + 1e-12
    assert all(0.0 < r < 1.0 + 1e-12 for r in ratios)


def test_reconstruct_single_feature_round_trip(raw_set, full_basis):
    scheme = WeightingScheme(Manner.WEIGHTED_BOTH)
    F = raw_set.samples[0].image - full_basis.mean
    P = project(F, full_basis, scheme)
    rec = reconstruct(P, full_basis, scheme)
    assert rec.allclose(raw_set.samples[0].image, tol=1e-6)


def test_reconstruct_checks_feature_shape(full_basis, rng):
    with pytest.raises(ShapeError):
        reconstruct(random_qmatrix(rng, 2, 2), full_basis)


def test_zero_weight_cannot_be_inverted(full_basis, rng):
    broken = replace(full_basis, d_right=np.zeros_like(full_basis.d_right))
    P = random_qmatrix(rng, broken.k1, broken.k2)
    with pytest.raises(InvalidWeight):
        reconstruct(P, broken, WeightingScheme(Manner.WEIGHTED_RIGHT))


def test_ratio_validation(raw_set, full_basis):
    recs = reconstruct_samples(raw_set, full_basis)
    with pytest.raises(InvalidDataset):
        reconstruction_ratio(raw_set, recs[:-1])
    with pytest.raises(InvalidDataset):
        reconstruction_ratio([], [])
    zero = [QMatrix.zeros(4, 3)]
    with pytest.raises(InvalidDataset):
        reconstruction_ratio(zero, [QMatrix.zeros(4, 3)])


@pytest.mark.parametrize("manner", list(MANNER_PRECEDENCE))
def test_reconstruct_samples_matches_per_sample_oracle(raw_set, full_basis, manner):
    # The oracle projects with the scheme's weights and undoes them; the set
    # path weights nothing, so this checks that the weights cancel.
    scheme = WeightingScheme(manner)
    for basis in (full_basis, full_basis.truncated(2, 2)):
        recs = reconstruct_samples(raw_set, basis)
        assert len(recs) == len(raw_set)
        for sample, rec in zip(raw_set.samples, recs):
            P = project(sample.image - basis.mean, basis, scheme)
            oracle = reconstruct(P, basis, scheme)
            assert np.abs(rec.data - oracle.data).max() <= 1e-12


def test_ratio_matches_per_sample_loop(raw_set, full_basis, rng):
    recs = reconstruct_samples(raw_set, full_basis.truncated(2, 1))
    # reconstructions of graded quality
    recs = [R + random_qmatrix(rng, 4, 3) * (0.3 * t) for t, R in enumerate(recs)]
    originals = raw_set.images()
    loop = np.mean([1.0 - (F - R).fro_norm() / F.fro_norm() for F, R in zip(originals, recs)])
    assert abs(reconstruction_ratio(raw_set, recs) - loop) <= 1e-12
    assert abs(reconstruction_ratio(originals, recs) - loop) <= 1e-12


def test_ratio_rejects_mixed_shapes(raw_set, full_basis):
    recs = reconstruct_samples(raw_set, full_basis)
    recs[2] = QMatrix.zeros(3, 4)
    with pytest.raises(ShapeError):
        reconstruction_ratio(raw_set, recs)


# -- sweeps on one projection -------------------------------------------


def _per_k_ratios(samples, basis, K):
    """The sweep as it was: one projection and rebuild per truncated basis."""
    truncated = [basis.truncated(k, k) for k in range(1, K + 1)]
    return [reconstruction_ratio(samples, reconstruct_samples(samples, b)) for b in truncated]


def _weighted_per_k_ratios(samples, basis, scheme, K):
    """The sweep through the weighted path: each image projected with the
    scheme's weights and rebuilt by undoing them, per truncated basis."""
    ratios = []
    for k in range(1, K + 1):
        b = basis.truncated(k, k)
        recs = [reconstruct(project(s.image - b.mean, b, scheme), b, scheme) for s in samples.samples]
        ratios.append(reconstruction_ratio(samples, recs))
    return ratios


def _outcome(call):
    try:
        return call()
    except QuatPcaError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("transform", list(Transform))
@pytest.mark.parametrize("manner", MANNER_PRECEDENCE)
def test_sweep_ratios_match_per_k_reconstruction(raw_set, full_basis, manner, transform):
    # The scheme-free sweep equals every scheme's weighted path: the weights cancel.
    ratios = sweep_ratios(raw_set, full_basis, 3)
    np.testing.assert_allclose(ratios, _per_k_ratios(raw_set, full_basis, 3), rtol=1e-13)
    scheme = WeightingScheme(manner, transform)
    np.testing.assert_allclose(ratios, _weighted_per_k_ratios(raw_set, full_basis, scheme, 3),
                               rtol=1e-12)


# Objective values on which the weights fail from k = 1, from k = 2, or
# never: inverse-log needs values above 1, and identity cannot invert 0.
_FAILING_FROM = {1: [0.9, 3.0, 2.0], 2: [5.0, 0.0, 0.5], None: [5.0, 3.0, 2.0]}


@pytest.mark.parametrize("fails_from", list(_FAILING_FROM))
@pytest.mark.parametrize("broken", [None, "zero-norm original", "nan image"])
@pytest.mark.parametrize("transform", list(Transform))
def test_sweep_ratios_raise_what_the_per_k_loop_raises(raw_set, full_basis, fails_from, broken,
                                                        transform):
    # Reconstruction reads no weights, so objective values that a scheme
    # cannot use change nothing: the weighted path either rejects them or
    # gives the sweep's ratios.
    basis = replace(full_basis, d_right=np.array(_FAILING_FROM[fails_from]))
    if broken is None:
        scheme = WeightingScheme(Manner.WEIGHTED_RIGHT, transform)
        weighted = _outcome(lambda: _weighted_per_k_ratios(raw_set, basis, scheme, 3))
        rejects = fails_from == 2 or (fails_from == 1 and transform is Transform.INVERSE_LOG)
        if rejects:
            assert weighted[0] is InvalidWeight
        else:
            np.testing.assert_allclose(sweep_ratios(raw_set, basis, 3), weighted, rtol=1e-12)
    else:
        data = np.full((4, 4, 3), np.nan) if broken == "nan image" else np.zeros((4, 4, 3))
        images = list(raw_set.samples)
        images[2] = replace(images[2], image=QMatrix(data))
        raw_set = replace(raw_set, samples=tuple(images))
    expected = _outcome(lambda: _per_k_ratios(raw_set, basis, 3))
    got = _outcome(lambda: sweep_ratios(raw_set, basis, 3))
    if isinstance(expected, list):
        np.testing.assert_allclose(got, expected, rtol=1e-13)
    else:
        assert got == expected


def test_sweep_ratios_reject_empty_sets_and_bad_sizes(raw_set, full_basis):
    with pytest.raises(InvalidDataset, match="at least one sample"):
        sweep_ratios(raw_set.subset([]), full_basis, 2)
    with pytest.raises(InvalidParameter):
        sweep_ratios(raw_set, full_basis, 4)


@pytest.mark.parametrize("K", [0, 4])
def test_sweep_sizes_outside_the_basis_name_one_rule(raw_set, full_basis, K):
    # The ratio and accuracy sweeps share the CLI's --sweep rule, prefixed
    # "sweep size" where the CLI prefixes "--sweep:".
    message = f"sweep size must satisfy 1 <= sweep <= min(k1, k2) = 3, got {K}"
    with pytest.raises(InvalidParameter) as ratios:
        sweep_ratios(raw_set, full_basis, K)
    with pytest.raises(InvalidParameter) as accuracies:
        sweep_accuracies(raw_set, raw_set, full_basis, WeightingScheme(Manner.UNWEIGHTED), K)
    assert str(ratios.value) == str(accuracies.value) == message


@pytest.fixture
def square_set(rng):
    mats = [random_qmatrix(rng, 3, 3, pure=True) for _ in range(6)]
    return SampleSet.build([(str(t % 2), F) for t, F in enumerate(mats)])


@pytest.mark.parametrize("transform", list(Transform))
@pytest.mark.parametrize("manner", MANNER_PRECEDENCE)
def test_sweep_ratios_match_per_k_path_with_complete_bases(square_set, manner, transform):
    # At k = m = n every residual is round-off, so ||X||^2 - ||P||^2 is all
    # cancellation: the sweep must take those residuals from the rebuild.
    basis = fit(center(square_set), FitParams(s=2.0, p=2.0, k1=3, k2=3, tol=1e-8))
    ratios = sweep_ratios(square_set, basis, 3)
    np.testing.assert_allclose(ratios, _per_k_ratios(square_set, basis, 3), rtol=1e-13)
    scheme = WeightingScheme(manner, transform)
    np.testing.assert_allclose(ratios, _weighted_per_k_ratios(square_set, basis, scheme, 3),
                               rtol=1e-12)


def test_ratios_reject_a_centered_set(raw_set, full_basis):
    centered = center(raw_set)
    recs = reconstruct_samples(centered, full_basis)
    assert reconstruction_ratio(raw_set, recs) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidDataset, match="centered"):
        reconstruction_ratio(centered, recs)
    with pytest.raises(InvalidDataset, match="centered"):
        sweep_ratios(centered, full_basis, 2)


def test_sweep_ratios_rebuild_everything_for_a_non_orthonormal_basis(raw_set, full_basis):
    # Pythagoras needs orthonormal columns; a basis that lacks them (say, a
    # hand-written BQP1 file) widens the guard zone until every image is rebuilt.
    basis = replace(full_basis, U=QMatrix(full_basis.U.data * 1.01))
    np.testing.assert_allclose(sweep_ratios(raw_set, basis, 3),
                               _per_k_ratios(raw_set, basis, 3), rtol=1e-13)
