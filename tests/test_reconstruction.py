"""Reconstruction from features and the quality ratio."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
from quatpca import quaternion
from quatpca.quaternion import _ROOT_NORMAL, _l2_norm
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


def test_ratio_reads_both_arguments_from_any_iterable(raw_set, full_basis):
    recs = reconstruct_samples(raw_set, full_basis.truncated(2, 2))
    want = reconstruction_ratio(raw_set, recs)
    assert reconstruction_ratio(raw_set, iter(recs)) == want
    assert reconstruction_ratio(iter(raw_set.images()), (R for R in recs)) == want
    with pytest.raises(InvalidDataset, match="sample counts differ"):
        reconstruction_ratio(raw_set, (R for R in recs[1:]))


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


def _norm(x):
    """np.linalg.norm, retaken by the rescaling norm where the squares left the normal range."""
    with np.errstate(over="ignore"):
        v = np.linalg.norm(x)
    return v if _ROOT_NORMAL < v < np.inf else _l2_norm(x)


@pytest.mark.parametrize("block_rows", [None, 7], ids=["default-blocks", "seven-row-blocks"])
@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
@pytest.mark.parametrize("m, n, count", [(5, 3, 40), (17, 9, 230)])
def test_ratio_keeps_the_bits_of_the_per_image_norms(monkeypatch, block_rows, scale, m, n, count):
    # The ratio norms run in row blocks (the 172-row subset of 17 x 9 images
    # spans two default blocks); the mean must equal that of the per-image
    # np.linalg.norm loop, whose ddot may differ from a norm in its last bit.
    if block_rows:
        monkeypatch.setattr(quaternion, "_CHUNK_ENTRIES", block_rows * 4 * m * n)
    rng = np.random.default_rng(m * count)
    raw = SampleSet.build([(str(t % 3), random_qmatrix(rng, m, n, pure=True) * scale)
                           for t in range(count)])
    subset = raw.subset(rng.permutation(count)[: count * 3 // 4])
    originals = subset.images()
    recs = [QMatrix(F.data + rng.standard_normal(F.data.shape) * (0.1 * (t % 5) * scale))
            for t, F in enumerate(originals)]
    loop = np.mean([1.0 - _norm(F.data - R.data) / _norm(F.data) for F, R in zip(originals, recs)])
    assert reconstruction_ratio(subset, recs) == loop
    assert reconstruction_ratio(originals, recs) == loop


_THREAD_RATIO_SCRIPT = """
import numpy as np
from quatpca import QMatrix, reconstruction_ratio
rng = np.random.default_rng(64)
F = rng.standard_normal((40, 4, 64, 64))
F[:, 0] = 0.0
R = F + 0.9 * rng.standard_normal(F.shape)
originals, recs = [QMatrix(f) for f in F], [QMatrix(r) for r in R]
for size in (4, 2):
    for a in range(0, 40, size):
        print(repr(reconstruction_ratio(originals[a:a + size], recs[a:a + size])))
"""


# The same recipe on two-image subsets of a set of 96 x 96 images whose
# squares overflow (x 1e170) or underflow (x 1e-170), so that every norm is
# a rescaled one.
_EXTREME_THREAD_RATIO_SCRIPT = """
import numpy as np
from quatpca import QMatrix, SampleSet, reconstruction_ratio
for scale in (1e170, 1e-170):
    rng = np.random.default_rng(96)
    F = rng.standard_normal((24, 4, 96, 96)) * scale
    F[:, 0] = 0.0
    R = F + 0.9 * scale * rng.standard_normal(F.shape)
    images = SampleSet.build([(str(t), QMatrix(f)) for t, f in enumerate(F)])
    recs = [QMatrix(r) for r in R]
    for a in range(0, 24, 2):
        print(repr(reconstruction_ratio(images.subset(range(a, a + 2)), recs[a:a + 2])))
"""


def _ratio_reprs_by_thread_count(script):
    src = str(Path(quaternion.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(out.stdout.split())
    return runs


def test_ratio_bits_independent_of_blas_threads_at_64x64():
    # ||F - R|| is close to ||F||, so a one-ulp difference in either norm
    # survives the mean; a BLAS dot's sum order follows the thread count.
    runs = _ratio_reprs_by_thread_count(_THREAD_RATIO_SCRIPT)
    assert len(runs[0]) == 30
    assert runs[0] == runs[1]
    runs = _ratio_reprs_by_thread_count(_EXTREME_THREAD_RATIO_SCRIPT)
    assert len(runs[0]) == 24
    assert runs[0] == runs[1]


def test_ratio_of_images_without_pixels_has_no_relative_error():
    empty = [QMatrix.zeros(0, 3)] * 2
    with pytest.raises(InvalidDataset, match="^zero-norm original has no relative error$"):
        reconstruction_ratio(empty, empty)


@pytest.mark.parametrize("where, value, text", [
    ("original", np.nan, "sample 0 (label '0') holds a non-finite value (NaN or inf)"),
    ("reconstruction", np.inf, "reconstruction 0 holds a non-finite value (NaN or inf)"),
])
def test_ratio_rejects_non_finite_images(rng, where, value, text):
    # sweep_ratios rejects the same originals, with the same text.
    raw = SampleSet.build([(str(t), random_qmatrix(rng, 3, 3, pure=True)) for t in range(6)])
    basis = fit(center(raw), FitParams(s=2.0, p=2.0, k1=2, k2=2))
    recs = reconstruct_samples(raw, basis)
    if where == "original":
        stack = np.array(raw.stack)
        stack[0, 1, 0, 0] = value
        raw = replace(raw, stack=stack)
        with pytest.raises(InvalidDataset, match=f"^{re.escape(text)}$"):
            sweep_ratios(raw, basis, 2)
    else:
        data = np.array(recs[0].data)
        data[1, 0, 0] = value
        recs[0] = QMatrix(data)
    with pytest.raises(InvalidDataset, match=f"^{re.escape(text)}$"):
        reconstruction_ratio(raw, recs)


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
        stack = np.array(raw_set.stack)
        stack[2] = data
        raw_set = replace(raw_set, stack=stack)
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


def _scaled_set_and_basis(scale):
    """8 pure 6 x 5 images and their s = p = 2, k = 3 basis, fitted at scale 1,
    then the images and the basis mean scaled together."""
    rng = np.random.default_rng(61)
    raw = SampleSet.build([(str(t % 4), random_qmatrix(rng, 6, 5, pure=True)) for t in range(8)])
    basis = fit(center(raw), FitParams(s=2.0, p=2.0, k1=3, k2=3))
    scaled = SampleSet.build([(x.label, x.image * scale) for x in raw.samples])
    return raw, basis, scaled, replace(basis, mean=basis.mean * scale)


def test_ratios_of_images_whose_squares_underflow():
    # Entries near 1e-170 have squares below the smallest double, so the
    # norms of the originals and residuals are rescaled by their largest entry.
    raw, basis, tiny, tiny_basis = _scaled_set_and_basis(1e-170)
    want = reconstruction_ratio(raw, reconstruct_samples(raw, basis))
    got = reconstruction_ratio(tiny, reconstruct_samples(tiny, tiny_basis))
    assert got == pytest.approx(want, rel=0, abs=1e-12)
    np.testing.assert_allclose(sweep_ratios(tiny, tiny_basis, 3), sweep_ratios(raw, basis, 3),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e158, 1e160])
def test_sweep_ratios_with_one_huge_image(scale):
    # Scaling the set to the huge image pushes the others' ||X_i||^2 below
    # the smallest normal double, where the Pythagoras difference loses
    # digits; those images are rebuilt at every k.
    raw, basis, _, _ = _scaled_set_and_basis(1.0)
    images = [x.image * scale if t == 0 else x.image for t, x in enumerate(raw.samples)]
    mixed = SampleSet.build(zip(raw.labels(), images))
    np.testing.assert_allclose(sweep_ratios(mixed, basis, 3), _per_k_ratios(mixed, basis, 3),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170, 1e200])
def test_sweep_ratios_do_not_depend_on_the_scale_of_the_images(scale):
    # Squares of entries near 1e170 overflow and near 1e-170 underflow; the
    # sweep first scales the images and the mean by one power of two, and
    # a NaN from inf - inf would fail here as an "invalid value" warning.
    raw, basis, images, scaled_basis = _scaled_set_and_basis(scale)
    np.testing.assert_allclose(sweep_ratios(images, scaled_basis, 3), _per_k_ratios(raw, basis, 3),
                               rtol=0, atol=1e-12)
