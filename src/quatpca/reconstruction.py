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
    _scaled_bases,
    _side_weights,
    centered_stack,
    project_stack,
)

__all__ = ["reconstruct", "reconstruct_samples", "reconstruction_ratio"]


def _inverse(w):
    if w is None:
        return None
    if np.any(w == 0.0):
        raise InvalidWeight("zero weight cannot be inverted for reconstruction")
    return 1.0 / w


def _rebuild(P, basis, scheme):
    """Images A P_i B^* + mean of a (N, 4, k1, k2) feature stack, as (N, 4, m, n)."""
    A, B = _scaled_bases(basis, *(_inverse(w) for w in _side_weights(basis, scheme)))
    R = plane_matmul(plane_matmul(A, P), plane_conj_transpose(B))
    R += basis.mean.data
    return R


def reconstruct(P, basis, scheme=WeightingScheme(Manner.UNWEIGHTED)):
    """Rebuild one image from its feature matrix."""
    if P.shape != (basis.k1, basis.k2):
        raise ShapeError(
            f"feature shape {P.shape} does not match basis sizes ({basis.k1}, {basis.k2})")
    return QMatrix(_rebuild(P.data[None], basis, scheme)[0])


def reconstruct_samples(samples, basis, scheme=WeightingScheme(Manner.UNWEIGHTED)):
    """Project and rebuild every sample of a raw (uncentered) set."""
    if len(samples) == 0:
        return []
    P = project_stack(centered_stack(samples, basis), basis, scheme, samples.samples)
    return [QMatrix(R) for R in _rebuild(P, basis, scheme)]


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
