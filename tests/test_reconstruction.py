"""Reconstruction from features and the quality ratio."""

from dataclasses import replace

import numpy as np
import pytest

from quatpca import (
    FitParams,
    InvalidDataset,
    InvalidWeight,
    MANNER_PRECEDENCE,
    Manner,
    QMatrix,
    SampleSet,
    ShapeError,
    WeightingScheme,
    center,
    fit,
    project,
    reconstruct,
    reconstruct_samples,
    reconstruction_ratio,
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


def test_weights_cancel_in_reconstruction(raw_set, full_basis):
    base = reconstruct_samples(raw_set, full_basis)
    for manner in MANNER_PRECEDENCE:
        recs = reconstruct_samples(raw_set, full_basis, WeightingScheme(manner))
        for a, b in zip(base, recs):
            assert a.allclose(b, tol=1e-6)


def test_ratio_monotone_in_truncation(raw_set, full_basis):
    ratios = []
    for k in (1, 2, 3):
        small = full_basis.truncated(k, k)
        recs = reconstruct_samples(raw_set, small)
        ratios.append(reconstruction_ratio(raw_set, recs))
    assert ratios[0] <= ratios[1] + 1e-12
    assert ratios[1] <= ratios[2] + 1e-12
    assert all(0.0 < r < 1.0 + 1e-12 for r in ratios)


def test_truncated_ratio_identical_across_manners(raw_set, full_basis):
    small = full_basis.truncated(2, 2)
    values = []
    for manner in MANNER_PRECEDENCE:
        recs = reconstruct_samples(raw_set, small, WeightingScheme(manner))
        values.append(reconstruction_ratio(raw_set, recs))
    assert values == pytest.approx([values[0]] * 4, rel=1e-9)


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
    scheme = WeightingScheme(manner)
    for basis in (full_basis, full_basis.truncated(2, 2)):
        recs = reconstruct_samples(raw_set, basis, scheme)
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
