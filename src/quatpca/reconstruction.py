"""Image reconstruction from projected features.

Inverts the weighted projection P = (U f(Wl))^* F (V f(Wr)) by undoing
the weights on exactly the sides the scheme weighted:

    F_rec = U f(Wl)^(-1) P f(Wr)^(-1) V^* + mean

which reduces to U U^* F V V^* + mean, the orthogonal bi-projection of
the centered image.  With complete bases (k1 = m, k2 = n) this is exact.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDataset, InvalidWeight, ShapeError
from .quaternion import QMatrix, plane_conj_transpose, plane_matmul
from .weighting import (
    Manner,
    WeightingScheme,
    _checked_stack,
    _project,
    _scaled_bases,
    _side_weights,
    _truncations,
    centered_stack,
    project_stack,
)

__all__ = ["reconstruct", "reconstruct_samples", "reconstruction_ratio", "sweep_ratios"]


def _inverse(w):
    if w is None:
        return None
    if np.any(w == 0.0):
        raise InvalidWeight("zero weight cannot be inverted for reconstruction")
    return 1.0 / w


def _rebuild_bases(basis, scheme):
    """Planes of U and V with the inverse of the scheme's weights folded in."""
    return _scaled_bases(basis, *(_inverse(w) for w in _side_weights(basis, scheme)))


def _rebuild(P, A, B, mean):
    """Images A P_i B^* + mean = A (B P_i^*)^* + mean of a (N, 4, k1, k2) stack."""
    R = plane_matmul(A, plane_conj_transpose(plane_matmul(B, plane_conj_transpose(P))))
    R += mean.data
    return R


def _norms(X):
    """Frobenius norm of every image of a (N, 4, m, n) stack."""
    return np.array([np.linalg.norm(x) for x in X])


def reconstruct(P, basis, scheme=WeightingScheme(Manner.UNWEIGHTED)):
    """Rebuild one image from its feature matrix."""
    if P.shape != (basis.k1, basis.k2):
        raise ShapeError(
            f"feature shape {P.shape} does not match basis sizes ({basis.k1}, {basis.k2})")
    return QMatrix(_rebuild(P.data[None], *_rebuild_bases(basis, scheme), basis.mean)[0])


def reconstruct_samples(samples, basis, scheme=WeightingScheme(Manner.UNWEIGHTED)):
    """Project and rebuild every sample of a raw (uncentered) set."""
    if len(samples) == 0:
        return []
    P = project_stack(centered_stack(samples, basis), basis, scheme, samples.samples)
    return [QMatrix(R) for R in _rebuild(P, *_rebuild_bases(basis, scheme), basis.mean)]


def reconstruction_ratio(originals, reconstructions):
    """Mean of 1 - ||F_i - F_i_rec||_F / ||F_i||_F over all samples.

    ``originals`` are the raw (uncentered) images; a perfect
    reconstruction scores 1.  Zero-norm originals are rejected.
    """
    if hasattr(originals, "images"):
        mats = list(originals.images())
    else:
        mats = list(originals)
    if not mats:
        raise InvalidDataset("need at least one sample to compute a ratio")
    if len(mats) != len(reconstructions):
        raise InvalidDataset(
            f"sample counts differ: {len(mats)} originals, {len(reconstructions)} reconstructions")
    shapes = {F.shape for F in mats} | {R.shape for R in reconstructions}
    if len(shapes) != 1:
        raise ShapeError(f"originals and reconstructions have mixed shapes: {sorted(shapes)}")
    nf = np.array([np.linalg.norm(F.data) for F in mats])
    if np.any(nf == 0.0):
        raise InvalidDataset("zero-norm original has no relative error")
    err = np.array([np.linalg.norm(F.data - R.data) for F, R in zip(mats, reconstructions)])
    return float(np.mean(1.0 - err / nf))


def sweep_ratios(samples, basis, scheme, K):
    """Reconstruction ratio at k1 = k2 = 1..K, one projection of the set at K.

    Each entry is ``reconstruction_ratio(samples, reconstruct_samples(
    samples, b, scheme))`` with ``b = basis.truncated(k, k)``, up to the
    BLAS summation order: the leading k x k block of the features at K
    is rebuilt with the k-column bases.  The errors are the ones those
    calls would raise for k = 1, 2, ... in turn.
    """
    prefixes = _truncations(basis, K)
    if len(samples) == 0:
        raise InvalidDataset("need at least one sample to compute a ratio")
    # Checks run in the per-k order: all of k = 1's, then each larger k's weights.
    F = np.stack([s.image.data for s in samples.samples])
    X = _checked_stack(F if samples.centered else F - basis.mean.data, basis, samples.samples)
    inverses = [_rebuild_bases(prefixes[0], scheme)]
    nf = _norms(F)
    if np.any(nf == 0.0):
        raise InvalidDataset("zero-norm original has no relative error")
    inverses += [_rebuild_bases(b, scheme) for b in prefixes[1:]]
    P = _project(X, *_scaled_bases(prefixes[-1], *_side_weights(prefixes[-1], scheme)))
    return [float(np.mean(1.0 - _norms(F - _rebuild(P[:, :, :k, :k], A, B, basis.mean)) / nf))
            for k, (A, B) in enumerate(inverses, start=1)]
