"""Nearest-neighbor recognition over projected features."""

from dataclasses import replace

import numpy as np
import pytest

from quatpca import (
    FitParams,
    Gallery,
    InvalidDataset,
    InvalidParameter,
    MANNER_PRECEDENCE,
    Manner,
    QMatrix,
    QuatPcaError,
    SampleSet,
    Transform,
    WeightingScheme,
    build_gallery,
    center,
    evaluate,
    fit,
    predict,
    project,
    project_stack,
    split,
    sweep_accuracies,
)
from quatpca.weighting import centered_stack
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


def test_predict_rejects_empty_gallery(fitted_split, rng):
    ctrain, _, basis = fitted_split
    gallery = build_gallery(ctrain, basis, WeightingScheme(Manner.UNWEIGHTED))
    empty = type(gallery)(labels=(), features=(), basis=basis,
                          scheme=gallery.scheme)
    with pytest.raises(InvalidDataset, match="empty gallery"):
        predict(ctrain, empty)


def test_predict_rejects_empty_test(fitted_split):
    ctrain, test, basis = fitted_split
    gallery = build_gallery(ctrain, basis, WeightingScheme(Manner.UNWEIGHTED))
    with pytest.raises(InvalidDataset, match="^cannot predict on an empty sample set$"):
        predict(test.subset([]), gallery)


def test_sweep_accuracies_reject_an_empty_train_set(fitted_split):
    ctrain, test, basis = fitted_split
    with pytest.raises(InvalidDataset, match="^cannot build a gallery from an empty sample set$"):
        sweep_accuracies(ctrain.subset([]), test, basis, WeightingScheme(Manner.UNWEIGHTED), 2)


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
    import quatpca.quaternion as quaternion

    ss = _random_classes(rng)
    train, _, test = split(ss, (0.5, 0.0, 0.5), seed=3)
    ctrain = center(train)
    basis = fit(ctrain, FitParams(s=2.0, p=2.0, k1=3, k2=3))
    gallery = build_gallery(ctrain, basis, WeightingScheme(Manner.WEIGHTED_RIGHT))
    oracle = _oracle_predict(test, gallery)
    entries = len(gallery) * 4 * 3 * 3
    for chunk in (1, entries, 5 * entries, 7 * entries - 1):
        monkeypatch.setattr(quaternion, "_CHUNK_ENTRIES", chunk)
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


# -- sweeps on one projection -------------------------------------------


def _outcome(call):
    """The call's result, or the type and text of the error it raised."""
    try:
        return call()
    except QuatPcaError as exc:
        return type(exc), str(exc)


def _with_image(samples, index, data):
    """A copy of the set with one image replaced."""
    stack = np.stack([F.data for F in samples.images()])
    stack[index] = data
    return replace(samples, stack=stack, rows=None)


def _per_k_accuracies(train, test, basis, scheme, K):
    """The sweep as it was: one gallery and one evaluation per truncated basis."""
    truncated = [basis.truncated(k, k) for k in range(1, K + 1)]
    return [evaluate(test, build_gallery(train, b, scheme)) for b in truncated]


@pytest.fixture
def sweep_split(rng):
    ss = separable_classes(rng, 8, 6, per_class=8, spread=0.6)
    train, _, test = split(ss, (0.75, 0.0, 0.25), seed=4)
    return train, test, fit(center(train), FitParams(s=2.0, p=2.0, k1=3, k2=4))


@pytest.mark.parametrize("transform", list(Transform))
@pytest.mark.parametrize("manner", MANNER_PRECEDENCE)
def test_sweep_accuracies_match_per_k_evaluation(sweep_split, manner, transform):
    train, test, basis = sweep_split
    scheme = WeightingScheme(manner, transform)
    assert (sweep_accuracies(train, test, basis, scheme, 3)
            == _per_k_accuracies(train, test, basis, scheme, 3))


# Objective values on which inverse-log weights fail from k = 1, from k = 2
# (naming 1.0, the smallest of the leading two, not the overall 0.5), or never.
_FAILING_FROM = {1: [0.9, 3.0, 2.0], 2: [5.0, 1.0, 0.5], None: [5.0, 3.0, 2.0]}


@pytest.mark.parametrize("fails_from", list(_FAILING_FROM))
@pytest.mark.parametrize("broken", [None, "empty test", "nan train", "nan test"])
@pytest.mark.parametrize("manner", [Manner.WEIGHTED_LEFT, Manner.WEIGHTED_RIGHT])
def test_sweep_accuracies_raise_what_the_per_k_loop_raises(sweep_split, fails_from, broken, manner):
    train, test, basis = sweep_split
    d = np.array(_FAILING_FROM[fails_from])
    basis = replace(basis, d_left=d, d_right=np.append(d, 9.0))
    if broken == "empty test":
        test = test.subset([])
    elif broken is not None:
        part = train if broken == "nan train" else test
        data = np.array(part.samples[1].image.data)
        data[2, 0, 0] = np.nan
        part = _with_image(part, 1, data)
        train, test = (part, test) if broken == "nan train" else (train, part)
    scheme = WeightingScheme(manner, Transform.INVERSE_LOG)
    expected = _outcome(lambda: _per_k_accuracies(train, test, basis, scheme, 3))
    assert _outcome(lambda: sweep_accuracies(train, test, basis, scheme, 3)) == expected
    if fails_from == 2 and broken is None:
        assert expected[1].endswith("got 1.0")


@pytest.mark.parametrize("K", [0, 4])
def test_sweep_accuracies_reject_sizes_outside_the_basis(sweep_split, K):
    train, test, basis = sweep_split
    with pytest.raises(InvalidParameter, match="min\\(k1, k2\\) = 3"):
        sweep_accuracies(train, test, basis, WeightingScheme(Manner.UNWEIGHTED), K)


# -- the one-GEMM screen against the exhaustive search -------------------


def _exhaustive(probes, gallery):
    """Exact differences against every gallery entry; ties to the smallest index."""
    diff = gallery.reshape(1, len(gallery), -1) - probes.reshape(len(probes), 1, -1)
    d = np.sqrt(np.square(diff).sum(axis=-1))
    return np.argmin(d, axis=1), d.min(axis=1)


def _assert_search_exact(probes, gallery):
    from quatpca.recognition import _nearest

    index, dist = _nearest(probes, gallery)
    want_index, want_dist = _exhaustive(probes, gallery)
    np.testing.assert_array_equal(index, want_index)
    assert dist.tobytes() == want_dist.tobytes()
    return index


def _features(samples, basis, scheme):
    return project_stack(centered_stack(samples, basis), basis, scheme)


@pytest.mark.parametrize("data", ["separable", "random"])
@pytest.mark.parametrize("manner", [Manner.UNWEIGHTED, Manner.WEIGHTED_BOTH])
def test_screen_matches_exhaustive_search_at_every_k(sweep_split, rng, data, manner):
    train, test, basis = sweep_split
    if data == "random":
        train, _, test = split(_random_classes(rng), (0.5, 0.0, 0.5), seed=3)
        basis = fit(center(train), FitParams(s=2.0, p=2.0, k1=3, k2=3))
    scheme = WeightingScheme(manner)
    G, Q = _features(train, basis, scheme), _features(test, basis, scheme)
    for k in range(1, 4):
        _assert_search_exact(Q[:, :, :k, :k], G[:, :, :k, :k])


def test_screen_resolves_near_ties_the_expansion_gets_wrong(rng):
    # A common offset of 1e8 puts |q|^2 + |g|^2 near 4e16, whose last bit is 8,
    # while the squared distances are about 1e-6: the expansion is noise.
    offset = 1e8 * np.ones((1, 4, 1, 1))
    gallery = offset + 1e-3 * rng.standard_normal((24, 4, 1, 1))
    probes = offset + 1e-3 * rng.standard_normal((12, 4, 1, 1))
    G, Q = gallery.reshape(24, 4), probes.reshape(12, 4)
    expansion = np.argmin((Q * Q).sum(1)[:, None] + (G * G).sum(1) - 2.0 * Q @ G.T, axis=1)
    index = _assert_search_exact(probes, gallery)
    assert np.any(expansion != index)


def test_screen_keeps_smallest_index_on_duplicates_and_equidistant_probes():
    # Integer features: every distance below is exact, so the ties are real.
    points = np.array([[0, 0, 0, 0], [2, 0, 0, 0], [0, 2, 0, 0], [2, 2, 0, 0]], dtype=float)
    # Entries 0, 3, 7 hold points[1]; 1, 5, 9 points[3]; 2, 6 points[0]; 4, 8 points[2].
    gallery = np.concatenate([points[[1, 3]], points, points]).reshape(-1, 4, 1, 1)
    probes = np.array([[1, 0, 0, 0],    # midway between points[1] and points[0]
                       [1, 1, 0, 0],    # equidistant from all four points
                       [2, 2, 0, 0],    # on points[3]
                       [0, 1, 0, 0]], dtype=float).reshape(-1, 4, 1, 1)
    index = _assert_search_exact(probes, gallery)
    np.testing.assert_array_equal(index, [0, 0, 1, 2])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_screen_falls_back_to_the_full_search_on_overflow(rng):
    # Squared norms near 1e312 overflow: the screen is not finite and the
    # exhaustive search, whose other distances overflow too, decides alone.
    gallery = 1e156 * rng.standard_normal((6, 4, 2, 2))
    probes = gallery[[3, 1]] * (1.0 + 1e-9)
    index = _assert_search_exact(probes, gallery)
    np.testing.assert_array_equal(index, [3, 1])
    tiny = 1e-160 * rng.standard_normal((6, 4, 2, 2))
    _assert_search_exact(tiny[[2, 5]] * (1.0 + 1e-3), tiny)
