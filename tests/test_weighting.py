"""Weighting manners, transforms, and the data-driven selection."""

import math

import numpy as np
import pytest

from quatpca import (
    FitParams,
    InvalidDataset,
    InvalidParameter,
    InvalidWeight,
    MANNER_PRECEDENCE,
    Manner,
    SelectionConfig,
    ShapeError,
    Transform,
    WeightingScheme,
    best_manner,
    fit,
    project,
    project_stack,
    reconstruct_samples,
    score_weightings,
    select_weighting,
)
from quatpca.reconstruction import _rebuild
from quatpca.weighting import centered_stack
from conftest import planted_samples, random_qmatrix, separable_classes

TIGHT = FitParams(s=2.0, p=2.0, k1=2, k2=2, tol=1e-12)


@pytest.fixture
def diag_basis(diag_samples):
    return fit(diag_samples, TIGHT)


@pytest.fixture
def low_energy_basis():
    from quatpca import QMatrix, SampleSet, center

    data = np.zeros((4, 3, 2))
    data[1, 0, 0] = 0.5
    data[2, 1, 1] = 1.0 / 6.0
    F = QMatrix(data)
    ss = center(SampleSet.build([("a", F), ("b", -F)]))
    return fit(ss, TIGHT)


# -- schemes and transforms ---------------------------------------------


def test_scheme_side_flags():
    assert not WeightingScheme(Manner.UNWEIGHTED).weights_left
    assert not WeightingScheme(Manner.UNWEIGHTED).weights_right
    assert WeightingScheme(Manner.WEIGHTED_LEFT).weights_left
    assert not WeightingScheme(Manner.WEIGHTED_LEFT).weights_right
    assert not WeightingScheme(Manner.WEIGHTED_RIGHT).weights_left
    assert WeightingScheme(Manner.WEIGHTED_RIGHT).weights_right
    assert WeightingScheme(Manner.WEIGHTED_BOTH).weights_left
    assert WeightingScheme(Manner.WEIGHTED_BOTH).weights_right


def test_precedence_order():
    assert MANNER_PRECEDENCE == (Manner.UNWEIGHTED, Manner.WEIGHTED_RIGHT,
                                 Manner.WEIGHTED_LEFT, Manner.WEIGHTED_BOTH)


def test_identity_weights_are_objectives(diag_basis, diag_samples):
    F = diag_samples.images()[0]
    base = project(F, diag_basis).data
    d = np.array([18.0, 2.0])
    left = project(F, diag_basis, WeightingScheme(Manner.WEIGHTED_LEFT, Transform.IDENTITY))
    right = project(F, diag_basis, WeightingScheme(Manner.WEIGHTED_RIGHT, Transform.IDENTITY))
    assert np.allclose(left.data, base * d[:, None], rtol=1e-8, atol=1e-10)
    assert np.allclose(right.data, base * d, rtol=1e-8, atol=1e-10)


def test_inverse_log_weights(diag_basis, diag_samples):
    F = diag_samples.images()[0]
    base = project(F, diag_basis).data
    w = np.array([1.0 / math.log(18.0), 1.0 / math.log(2.0)])
    left = project(F, diag_basis, WeightingScheme(Manner.WEIGHTED_LEFT, Transform.INVERSE_LOG))
    assert np.allclose(left.data, base * w[:, None], rtol=1e-8, atol=1e-10)


def test_inverse_log_rejects_small_objectives(low_energy_basis, diag_samples):
    assert float(low_energy_basis.d_right[0]) < 1.0
    F = diag_samples.images()[0] / 6.0
    with pytest.raises(InvalidWeight):
        project(F, low_energy_basis,
                WeightingScheme(Manner.WEIGHTED_RIGHT, Transform.INVERSE_LOG))


def test_transform_must_be_a_transform(diag_basis, diag_samples):
    X = np.stack([F.data for F in diag_samples.images()])
    with pytest.raises(InvalidParameter, match="^unknown transform 'inverse-log'$"):
        project_stack(X, diag_basis, WeightingScheme(Manner.WEIGHTED_LEFT, "inverse-log"))


def test_unweighted_never_validates_transform(low_energy_basis, diag_samples):
    scheme = WeightingScheme(Manner.UNWEIGHTED, Transform.INVERSE_LOG)
    F = diag_samples.images()[0] / 6.0
    P = project(F, low_energy_basis, scheme)
    assert P.shape == (2, 2)


def test_weighted_projection_scales_unweighted_one(diag_basis, diag_samples):
    F = diag_samples.images()[0]
    base = project(F, diag_basis)
    wr = diag_basis.d_right
    right = project(F, diag_basis, WeightingScheme(Manner.WEIGHTED_RIGHT))
    assert right.allclose(base.scale_columns(wr), tol=1e-10)
    wl = diag_basis.d_left
    left = project(F, diag_basis, WeightingScheme(Manner.WEIGHTED_LEFT))
    assert np.allclose(left.data, base.data * wl[None, :, None], atol=1e-10)
    both = project(F, diag_basis, WeightingScheme(Manner.WEIGHTED_BOTH))
    assert np.allclose(both.data,
                       base.scale_columns(wr).data * wl[None, :, None],
                       atol=1e-10)


def test_project_shape_check(diag_basis, rng):
    with pytest.raises(ShapeError):
        project(random_qmatrix(rng, 2, 2), diag_basis)


# -- manner selection ---------------------------------------------------


def test_best_manner_prefers_accuracy():
    scores = {Manner.UNWEIGHTED: 0.5, Manner.WEIGHTED_RIGHT: 0.9,
              Manner.WEIGHTED_LEFT: 0.7, Manner.WEIGHTED_BOTH: 0.9}
    assert best_manner(scores) == Manner.WEIGHTED_RIGHT


def test_best_manner_tie_precedence():
    even = {m: 1.0 for m in MANNER_PRECEDENCE}
    assert best_manner(even) == Manner.UNWEIGHTED
    assert best_manner({Manner.WEIGHTED_BOTH: 0.8,
                        Manner.WEIGHTED_LEFT: 0.8}) == Manner.WEIGHTED_LEFT


@pytest.mark.parametrize("scores", [{}, {"bogus": 1.0}])
def test_best_manner_rejects_scores_without_a_known_manner(scores):
    with pytest.raises(InvalidParameter, match="^scores cover none of the known manners$"):
        best_manner(scores)


def test_best_manner_ignores_unknown_keys():
    assert best_manner({"bogus": 2.0, Manner.WEIGHTED_LEFT: 1.0}) == Manner.WEIGHTED_LEFT


def test_selection_config_validation():
    with pytest.raises(InvalidParameter):
        SelectionConfig(repeats=0).validate()
    with pytest.raises(InvalidParameter):
        SelectionConfig(train_fraction=1.0).validate()
    with pytest.raises(InvalidParameter, match="seed must be a nonnegative integer, got -1"):
        SelectionConfig(seed=-1).validate()
    SelectionConfig().validate()


def test_score_weightings_needs_two_per_class(rng):
    from quatpca import SampleSet

    ss = SampleSet.build([("solo", random_qmatrix(rng, 4, 3)),
                          ("duo", random_qmatrix(rng, 4, 3)),
                          ("duo", random_qmatrix(rng, 4, 3))])
    with pytest.raises(InvalidDataset):
        score_weightings(ss, FitParams(s=2.0, p=2.0, k1=2, k2=2))


def test_score_weightings_deterministic_and_complete(rng):
    train = separable_classes(rng, 8, 6, per_class=6)
    params = FitParams(s=2.0, p=2.0, k1=2, k2=2)
    protocol = SelectionConfig(repeats=2, seed=9)
    s1 = score_weightings(train, params, protocol)
    s2 = score_weightings(train, params, protocol)
    assert s1 == s2
    assert set(s1) == set(MANNER_PRECEDENCE)
    assert all(0.0 <= v <= 1.0 for v in s1.values())


def test_select_weighting_on_separable_data(rng):
    train = separable_classes(rng, 8, 6, per_class=6)
    params = FitParams(s=2.0, p=2.0, k1=2, k2=2)
    protocol = SelectionConfig(repeats=2, seed=9, transform=Transform.IDENTITY)
    scheme = select_weighting(train, params, protocol)
    assert isinstance(scheme, WeightingScheme)
    assert scheme.transform == Transform.IDENTITY
    scores = score_weightings(train, params, protocol)
    assert scores[scheme.manner] == max(scores.values())
    # every manner separates these classes, so the tie rule picks first
    if len(set(scores.values())) == 1:
        assert scheme.manner == Manner.UNWEIGHTED


# -- selection on one projection against four galleries ------------------


def _four_gallery_scores(train, params, protocol):
    """Selection written with one gallery per manner and a per-probe search."""
    from quatpca import build_gallery, center, split

    sums = {manner: 0.0 for manner in MANNER_PRECEDENCE}
    fractions = (protocol.train_fraction, 1.0 - protocol.train_fraction, 0.0)
    for r in range(protocol.repeats):
        inner, val, _ = split(train, fractions, seed=protocol.seed + r)
        inner_c = center(inner)
        basis = fit(inner_c, params)
        for manner in MANNER_PRECEDENCE:
            scheme = WeightingScheme(manner, protocol.transform)
            gallery = build_gallery(inner_c, basis, scheme)
            hits = 0
            for sample in val.samples:
                P = project(sample.image - basis.mean, basis, scheme)
                dists = [(g - P).fro_norm() for g in gallery.features]
                best = 0
                for idx in range(1, len(dists)):
                    if dists[idx] < dists[best]:
                        best = idx
                hits += gallery.labels[best] == sample.label
            sums[manner] += hits / len(val)
    return {manner: sums[manner] / protocol.repeats for manner in MANNER_PRECEDENCE}


@pytest.mark.parametrize("data", ["separable", "noisy"])
@pytest.mark.parametrize("transform", list(Transform))
def test_score_weightings_matches_four_gallery_oracle(rng, data, transform):
    from quatpca import SampleSet

    if data == "separable":
        train = separable_classes(rng, 8, 6, per_class=9)
    else:
        # six overlapping classes: the manners score differently
        means = [random_qmatrix(rng, 7, 5, pure=True) for _ in range(6)]
        train = SampleSet.build([(f"c{t % 6}", means[t % 6] + random_qmatrix(rng, 7, 5, pure=True) * 1.5)
                                 for t in range(54)])
    params = FitParams(s=2.0, p=2.0, k1=3, k2=2)
    protocol = SelectionConfig(repeats=3, train_fraction=0.6, seed=2, transform=transform)
    scores = score_weightings(train, params, protocol)
    assert scores == _four_gallery_scores(train, params, protocol)
    if data == "noisy":
        assert len(set(scores.values())) > 1


def test_score_weightings_inverse_log_needs_objectives_above_one(rng):
    train = separable_classes(rng, 8, 6, per_class=6, spread=0.05)
    small = type(train).build([(s.label, s.image * 0.01) for s in train.samples])
    protocol = SelectionConfig(repeats=2, seed=1, transform=Transform.INVERSE_LOG)
    with pytest.raises(InvalidWeight, match="inverse-log"):
        score_weightings(small, FitParams(s=2.0, p=2.0, k1=2, k2=2), protocol)


# -- nested features: the slice at k is the truncated projection --------


@pytest.mark.parametrize("transform", list(Transform))
@pytest.mark.parametrize("manner", MANNER_PRECEDENCE)
def test_sliced_features_equal_truncated_basis_features(rng, manner, transform):
    """The leading k x k block of the features at K is the projection at k.

    Equal up to the summation order of the BLAS products only: numpy
    multiplies by a one-column basis with gemv and dot instead of gemm,
    and OpenBLAS tiles gemm columns by their count, so some k differ from
    the truncated projection in the last bits.
    """
    samples, _ = planted_samples(rng, 7, 6, values=(6.0, 4.0, 3.0, 2.0, 1.5), pairs=3)
    basis = fit(samples, FitParams(s=2.0, p=2.0, k1=5, k2=5))
    scheme = WeightingScheme(manner, transform)
    X = centered_stack(samples, basis)
    P, plain = project_stack(X, basis, scheme), project_stack(X, basis)
    for k in range(1, 6):
        b = basis.truncated(k, k)
        truncated = project_stack(X, b, scheme)
        np.testing.assert_allclose(P[:, :, :k, :k], truncated,
                                   rtol=0, atol=1e-13 * np.abs(truncated).max())
        # Set reconstruction is unweighted: the sweep rebuilds the sliced plain features.
        rebuilt = _rebuild(plain[:, :, :k, :k], basis.U.data[..., :k], basis.V.data[..., :k], b.mean)
        expected = np.stack([R.data for R in reconstruct_samples(samples, b)])
        np.testing.assert_allclose(rebuilt, expected, rtol=0, atol=1e-13 * np.abs(expected).max())
