"""Nearest-neighbor recognition over projected features."""

import numpy as np
import pytest

from quatpca import (
    FitParams,
    Gallery,
    InvalidDataset,
    MANNER_PRECEDENCE,
    Manner,
    QMatrix,
    SampleSet,
    WeightingScheme,
    build_gallery,
    center,
    classify,
    evaluate,
    fit,
    predict,
    project,
    split,
)
from conftest import random_qmatrix, separable_classes

PARAMS = FitParams(s=2.0, p=2.0, k1=2, k2=2)


@pytest.fixture
def fitted_split(rng):
    ss = separable_classes(rng, 8, 6, per_class=8)
    train, _, test = split(ss, (0.75, 0.0, 0.25), seed=4)
    ctrain = center(train)
    basis = fit(ctrain, PARAMS)
    return ctrain, test, basis


def test_gallery_contents(fitted_split):
    ctrain, _, basis = fitted_split
    gallery = build_gallery(ctrain, basis, WeightingScheme(Manner.UNWEIGHTED))
    assert len(gallery) == len(ctrain)
    assert gallery.labels == tuple(ctrain.labels())
    assert all(P.shape == (2, 2) for P in gallery.features)


def test_gallery_rejects_empty(fitted_split, rng):
    _, _, basis = fitted_split
    empty = SampleSet.build([("a", random_qmatrix(rng, 8, 6))]).subset([])
    with pytest.raises(InvalidDataset):
        build_gallery(empty, basis, WeightingScheme(Manner.UNWEIGHTED))


def test_gallery_centers_raw_samples(rng):
    ss = separable_classes(rng, 8, 6, per_class=4)
    ctrain = center(ss)
    basis = fit(ctrain, PARAMS)
    scheme = WeightingScheme(Manner.UNWEIGHTED)
    from_centered = build_gallery(ctrain, basis, scheme)
    from_raw = build_gallery(ss, basis, scheme)
    for a, b in zip(from_centered.features, from_raw.features):
        assert a.allclose(b, tol=1e-10)


def test_classify_recovers_member(fitted_split):
    ctrain, _, basis = fitted_split
    gallery = build_gallery(ctrain, basis, WeightingScheme(Manner.UNWEIGHTED))
    probe = ctrain.samples[3]
    label, dist = classify(probe.image, gallery)
    assert label == probe.label
    assert dist == pytest.approx(0.0, abs=1e-10)


def test_classify_tie_takes_first_gallery_entry(rng):
    from quatpca import Gallery, project

    mats = [random_qmatrix(rng, 4, 3) for _ in range(4)]
    ctrain = center(SampleSet.build([(str(t), F) for t, F in enumerate(mats)]))
    basis = fit(ctrain, FitParams(s=2.0, p=2.0, k1=1, k2=1))
    scheme = WeightingScheme(Manner.UNWEIGHTED)
    probe = ctrain.samples[0].image
    P = project(probe, basis, scheme)
    gallery = Gallery(labels=("first", "second"), features=(P, P),
                      basis=basis, scheme=scheme)
    label, dist = classify(probe, gallery)
    assert label == "first"
    assert dist == pytest.approx(0.0, abs=1e-12)


def test_classify_rejects_empty_gallery(fitted_split, rng):
    ctrain, _, basis = fitted_split
    gallery = build_gallery(ctrain, basis, WeightingScheme(Manner.UNWEIGHTED))
    empty = type(gallery)(labels=(), features=(), basis=basis,
                          scheme=gallery.scheme)
    with pytest.raises(InvalidDataset):
        classify(ctrain.samples[0].image, empty)


def test_evaluate_perfect_on_disjoint_support(fitted_split):
    ctrain, test, basis = fitted_split
    for manner in MANNER_PRECEDENCE:
        gallery = build_gallery(ctrain, basis, WeightingScheme(manner))
        assert evaluate(test, gallery) == 1.0


def test_evaluate_counts_fraction(rng):
    # one mislabeled gallery entry drags accuracy below one
    ss = separable_classes(rng, 8, 6, per_class=4)
    ctrain = center(ss)
    basis = fit(ctrain, PARAMS)
    scheme = WeightingScheme(Manner.UNWEIGHTED)
    gallery = build_gallery(ctrain, basis, scheme)
    flipped = type(gallery)(
        labels=tuple("bottom" if lab == "top" else "top" for lab in gallery.labels),
        features=gallery.features, basis=basis, scheme=scheme)
    assert evaluate(ss, gallery) == 1.0
    assert evaluate(ss, flipped) == 0.0


def test_evaluate_rejects_empty_test(fitted_split, rng):
    ctrain, _, basis = fitted_split
    gallery = build_gallery(ctrain, basis, WeightingScheme(Manner.UNWEIGHTED))
    empty = SampleSet.build([("a", random_qmatrix(rng, 8, 6))]).subset([])
    with pytest.raises(InvalidDataset):
        evaluate(empty, gallery)


# -- batched search against the per-probe oracle -------------------------


def _oracle_predict(test, gallery):
    """Per-probe search with the public one-image names and a strict '<'."""
    basis, scheme = gallery.basis, gallery.scheme
    labels = []
    for sample in test.samples:
        P = project(sample.image - basis.mean, basis, scheme)
        best_idx, best_dist = 0, (gallery.features[0] - P).fro_norm()
        for idx in range(1, len(gallery)):
            dist = (gallery.features[idx] - P).fro_norm()
            if dist < best_dist:
                best_idx, best_dist = idx, dist
        labels.append(gallery.labels[best_idx])
    return labels


def _random_classes(rng):
    """Six overlapping classes of noise: many near neighbours, imperfect accuracy."""
    return SampleSet.build([(f"c{t % 6}", random_qmatrix(rng, 7, 5, pure=True))
                            for t in range(48)])


@pytest.mark.parametrize("data", ["separable", "random"])
@pytest.mark.parametrize("manner", list(MANNER_PRECEDENCE))
def test_predict_matches_per_probe_oracle(rng, data, manner):
    if data == "separable":
        ss = separable_classes(rng, 8, 6, per_class=8)
    else:
        ss = _random_classes(rng)
    train, _, test = split(ss, (0.5, 0.0, 0.5), seed=3)
    ctrain = center(train)
    basis = fit(ctrain, FitParams(s=2.0, p=2.0, k1=3, k2=3))
    gallery = build_gallery(ctrain, basis, WeightingScheme(manner))
    predicted = predict(test, gallery)
    assert predicted == _oracle_predict(test, gallery)
    hits = sum(p == s.label for p, s in zip(predicted, test.samples))
    assert evaluate(test, gallery) == hits / len(test)


def test_predict_independent_of_chunk_size(rng, monkeypatch):
    import quatpca.recognition as recognition

    ss = _random_classes(rng)
    train, _, test = split(ss, (0.5, 0.0, 0.5), seed=3)
    ctrain = center(train)
    basis = fit(ctrain, FitParams(s=2.0, p=2.0, k1=3, k2=3))
    gallery = build_gallery(ctrain, basis, WeightingScheme(Manner.WEIGHTED_RIGHT))
    oracle = _oracle_predict(test, gallery)
    entries = len(gallery) * 4 * 3 * 3
    for chunk in (1, entries, 5 * entries, 7 * entries - 1):
        monkeypatch.setattr(recognition, "_CHUNK_ENTRIES", chunk)
        assert predict(test, gallery) == oracle


def test_predict_ties_take_first_index(rng):
    ss = _random_classes(rng)
    ctrain = center(ss)
    basis = fit(ctrain, FitParams(s=2.0, p=2.0, k1=2, k2=2))
    scheme = WeightingScheme(Manner.WEIGHTED_BOTH)
    base = build_gallery(ctrain.subset(range(8)), basis, scheme)
    # every entry appears three times, so every nearest distance is an exact tie
    gallery = Gallery(labels=tuple(f"{lab}#{rep}" for rep in range(3) for lab in base.labels),
                      features=base.features * 3, basis=basis, scheme=scheme)
    predicted = predict(ss, gallery)
    assert predicted == _oracle_predict(ss, gallery)
    assert all(label.endswith("#0") for label in predicted)
    assert predict(ctrain.subset(range(8)), gallery) == [f"{lab}#0" for lab in base.labels]


def test_evaluate_names_non_finite_sample(fitted_split):
    ctrain, test, basis = fitted_split
    gallery = build_gallery(ctrain, basis, WeightingScheme(Manner.UNWEIGHTED))
    data = np.array(test.samples[2].image.data)
    data[3, 1, 0] = np.nan
    images = [(s.label, QMatrix(data) if i == 2 else s.image)
              for i, s in enumerate(test.samples)]
    broken = SampleSet.build(images)
    label = test.samples[2].label
    with pytest.raises(InvalidDataset, match=rf"sample 2 \(label '{label}'\).*non-finite"):
        evaluate(broken, gallery)
