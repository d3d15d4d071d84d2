"""Image reconstruction from projected features.

:func:`reconstruct` inverts one weighted projection
P = (U f(Wl))^* F (V f(Wr)) by undoing the weights on exactly the sides
the scheme weighted:

    F_rec = U f(Wl)^(-1) P f(Wr)^(-1) V^* + mean

which reduces to U U^* F V V^* + mean, the orthogonal bi-projection of
the centered image.  With complete bases (k1 = m, k2 = n) this is exact.
Because the weights cancel, the set functions :func:`reconstruct_samples`
and :func:`sweep_ratios` take no scheme: they project unweighted and
rebuild with the plain U and V.

Because that bi-projection is an orthogonal projector, the residual of
a centered image X is ||X||^2 - ||U^* X V||^2 (Pythagoras), so
:func:`sweep_ratios` reads its curve from feature norms and rebuilds an
image only where round-off could swamp that difference.  Ratios compare
raw images with their reconstructions; a centered set is rejected.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDataset, InvalidWeight, ShapeError
from .quaternion import QMatrix, plane_conj_transpose, plane_matmul
from .weighting import (
    Manner,
    WeightingScheme,
    _check_sweep,
    _checked_stack,
    _gamma,
    _project,
    _require_shape,
    _side_weights,
    centered_stack,
    project_stack,
)

__all__ = ["reconstruct", "reconstruct_samples", "reconstruction_ratio", "sweep_ratios"]


def _inverse(w):
    if np.any(w == 0.0):
        raise InvalidWeight("zero weight cannot be inverted for reconstruction")
    return 1.0 / w


def _rebuild(P, A, B, mean):
    """Images A P_i B^* + mean = A (B P_i^*)^* + mean of a (N, 4, k1, k2) stack."""
    R = plane_matmul(A, plane_conj_transpose(plane_matmul(B, plane_conj_transpose(P))))
    R += mean.data
    return R


def _require_raw(samples):
    if getattr(samples, "centered", False):
        raise InvalidDataset("reconstruction ratios compare raw images; got a centered sample set")


def _defect(W):
    """Upper bound on the spectral norm of W^* W - I for a (4, m, k) basis."""
    G = plane_matmul(plane_conj_transpose(W), W)
    G[0] -= np.eye(W.shape[-1])
    # The Frobenius norm bounds the spectral one; each Gram entry is a sum of
    # 4m products of unit-column entries, so within gamma_4m of its value.
    return float(np.linalg.norm(G)) + 2 * W.shape[-1] * _gamma(4 * W.shape[-2])


def _pythagoras_round_off(basis, K):
    """Bound on |computed - true| of ||X||^2 - ||P_k||^2, as a fraction of ||X||^2.

    For U, V with orthonormal columns the bi-projection is an orthogonal
    projector, so ||X - U P V^*||^2 = ||X||^2 - ||P||^2 with P = U^* X V.
    The computed difference strays from the true residual by the round-off
    of the two squared norms (gamma_4mn, gamma_4K^2), of P's two GEMMs
    (|dP| <= 2 sqrt(K) (gamma_4m + gamma_4n) ||X|| enters twice), of the
    subtraction (u), and by the orthonormality defects eu, ev of the bases
    (eu + ev + eu ev, on ||P||^2 <= (1 + eu)(1 + ev) ||X||^2).  Twice the
    first-order sum covers the second-order terms.
    """
    eu, ev = _defect(basis.U.data[..., :K]), _defect(basis.V.data[..., :K])
    m, n = basis.m, basis.n
    first = (_gamma(4 * m * n) + _gamma(4 * K * K) + 4 * np.sqrt(K) * (_gamma(4 * m) + _gamma(4 * n))
             + np.finfo(np.float64).eps / 2 + eu + ev + eu * ev)
    return 2 * first * (1 + eu) * (1 + ev)


# Relative accuracy rho that the identity must give err^2 before the sweep
# uses it.  With beta from _pythagoras_round_off, images whose err^2 is at
# most beta / rho ||X_i||^2 are rebuilt instead; every other ratio term is
# within sqrt(beta rho) / 2 ||X_i|| / ||F_i|| of the rebuilt one (6e-10 for
# 24 x 24 images at K = 8).
_RESOLUTION = 2.0 ** -20


def reconstruct(P, basis, scheme=WeightingScheme(Manner.UNWEIGHTED)):
    """Rebuild one image from its feature matrix."""
    if P.shape != (basis.k1, basis.k2):
        raise ShapeError(
            f"feature shape {P.shape} does not match basis sizes ({basis.k1}, {basis.k2})")
    left, right = (_inverse(w) for w in _side_weights(basis, scheme))
    return QMatrix(_rebuild(P.data[None], basis.U.data * left, basis.V.data * right,
                            basis.mean)[0])


def reconstruct_samples(samples, basis):
    """Project and rebuild every sample of a raw (uncentered) set, as U U^* X V V^* + mean.

    The images are read-only views of one rebuilt (N, 4, m, n) array.
    """
    if len(samples) == 0:
        return []
    P = project_stack(centered_stack(samples, basis), basis, samples=samples.samples)
    R = _rebuild(P, basis.U.data, basis.V.data, basis.mean)
    R.flags.writeable = False
    return [QMatrix._view(image) for image in R]


def reconstruction_ratio(originals, reconstructions):
    """Mean of 1 - ||F_i - F_i_rec||_F / ||F_i||_F over all samples.

    ``originals`` are the raw (uncentered) images; a perfect
    reconstruction scores 1.  A centered sample set and zero-norm
    originals are rejected.
    """
    if hasattr(originals, "images"):
        mats = list(originals.images())
    else:
        mats = list(originals)
    if not mats:
        raise InvalidDataset("need at least one sample to compute a ratio")
    _require_raw(originals)
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


def sweep_ratios(samples, basis, K):
    """Reconstruction ratio at k1 = k2 = 1..K, one projection of the set at K.

    Each entry is ``reconstruction_ratio(samples, reconstruct_samples(
    samples, b))`` with ``b = basis.truncated(k, k)``, up to round-off.
    The orthonormal bases make the bi-projection an orthogonal projector,
    so the residual of image i at k is read from feature norms,

        ||F_i - F_i_rec||^2 = ||X_i||^2 - ||P_i[:k, :k]||^2   (X_i = F_i - mean),

    with P the unweighted features at K.  Where round-off could swamp that
    difference (see ``_RESOLUTION``), the image's residual at that k comes
    from its rebuilt reconstruction instead.  The errors are the ones the
    per-k calls would raise, in the same order; the set must be raw.
    """
    _check_sweep(basis, K)
    if len(samples) == 0:
        raise InvalidDataset("need at least one sample to compute a ratio")
    F = np.stack([s.image.data for s in samples.samples])
    _require_shape(F.shape, basis)
    X = _checked_stack(F - basis.mean.data, basis, samples.samples)
    _require_raw(samples)
    nf = np.sqrt(np.einsum("iakl,iakl->i", F, F))
    if np.any(nf == 0.0):
        raise InvalidDataset("zero-norm original has no relative error")
    U, V = basis.U.data, basis.V.data
    P = _project(X, U[..., :K], V[..., :K])
    x2 = np.einsum("iakl,iakl->i", X, X)
    # ||P_i[:k, :k]||^2 for every k: the diagonal of the 2-D prefix sums.
    p2 = np.einsum("iakl,iakl->ikl", P, P).cumsum(1).cumsum(2).diagonal(axis1=1, axis2=2)
    err2 = np.maximum(x2[:, None] - p2, 0.0)
    err = np.sqrt(err2)
    guarded = err2 <= _pythagoras_round_off(basis, K) / _RESOLUTION * x2[:, None]
    for k in np.flatnonzero(guarded.any(axis=0)) + 1:
        i = np.flatnonzero(guarded[:, k - 1])
        R = _rebuild(P[i, :, :k, :k], U[..., :k], V[..., :k], basis.mean)
        R -= F[i]
        err[i, k - 1] = np.sqrt(np.einsum("iakl,iakl->i", R, R))
    return [float(np.mean(1.0 - e / nf)) for e in err.T]
