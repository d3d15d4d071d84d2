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

A set is rebuilt as one read-only (N, 4, m, n) stack (``_rebuilt``),
which :func:`reconstruct_samples` views image by image.  The ratio core
``_ratio`` reads that stack, and the originals through a row reader such
as ``SampleSet._read``, in the row blocks of ``_blocks``; every norm of a
ratio comes from the range-safe, BLAS-free ``_row_norms``.  The command
line scores and exports the rebuilt stack itself, with no per-image object.

Because that bi-projection is an orthogonal projector, the residual of
a centered image X is ||X||^2 - ||U^* X V||^2 (Pythagoras), so
:func:`sweep_ratios` reads its curve from feature norms and rebuilds an
image only where round-off could swamp that difference.  Ratios compare
raw images with their reconstructions; a centered set is rejected.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidDataset, InvalidWeight, ShapeError
from .quaternion import (_ROOT_NORMAL, QMatrix, _blocks, _row_norms, _squared_rows,
                         plane_conj_transpose, plane_matmul)
from .solver import _require_finite
from .weighting import (Manner, WeightingScheme, _check_sweep, _gamma, _project, _require_shape,
                        _side_weights, centered_stack)

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


def _rebuilt(samples, basis):
    """The read-only (N, 4, m, n) stack U U^* X_i V V^* + mean of a nonempty set's images X_i."""
    P = _project(centered_stack(samples, basis), basis.U.data, basis.V.data)
    R = _rebuild(P, basis.U.data, basis.V.data, basis.mean)
    R.flags.writeable = False
    return R


def reconstruct_samples(samples, basis):
    """Project and rebuild every sample of a raw (uncentered) set, as U U^* X V V^* + mean.

    The images are read-only views of one rebuilt (N, 4, m, n) array.
    """
    if len(samples) == 0:
        return []
    return [QMatrix._view(image) for image in _rebuilt(samples, basis)]


def _ratio(read, R, samples=None):
    """Mean of 1 - ||F_i - R_i||_F / ||F_i||_F over raw originals F_i and the (N, 4, m, n) stack R.

    ``read(i)`` is the originals i (a slice; of the set ``samples``, if any) as an array, read a
    block of _blocks at a time so that no temporary outgrows one.  Errors are reconstruction_ratio's.
    """
    nf, err = np.empty(len(R)), np.empty(len(R))
    # Entries are checked only where a norm is not finite: NaN, inf, or inf - inf in an original.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _blocks(len(R), R[0].size):
            block = read(rows)
            nf[rows] = _row_norms(block)
            err[rows] = _row_norms(block - R[rows])
    if not np.isfinite(nf).all():
        _require_finite(read(slice(None)), samples)
    if not np.isfinite(err).all():
        _require_finite(R, what="reconstruction")
    if np.any(nf == 0.0):
        raise InvalidDataset("zero-norm original has no relative error")
    return float(np.mean(1.0 - err / nf))


def reconstruction_ratio(originals, reconstructions):
    """Mean of 1 - ||F_i - F_i_rec||_F / ||F_i||_F over all samples.

    ``originals`` are the raw (uncentered) images, a SampleSet or QMatrix
    iterable like ``reconstructions``; a perfect reconstruction scores 1.  A
    centered set, zero-norm originals and NaN or inf entries are rejected.
    """
    samples = originals if hasattr(originals, "images") else None
    if samples is None:
        originals = list(originals)
    reconstructions = list(reconstructions)
    if not len(originals):
        raise InvalidDataset("need at least one sample to compute a ratio")
    _require_raw(originals)
    if len(originals) != len(reconstructions):
        raise InvalidDataset(f"sample counts differ: {len(originals)} originals, "
                             f"{len(reconstructions)} reconstructions")
    shapes = {F.shape for F in originals} if samples is None else {samples.shape}
    shapes |= {R.shape for R in reconstructions}
    if len(shapes) != 1:
        raise ShapeError(f"originals and reconstructions have mixed shapes: {sorted(shapes)}")
    read = np.stack([F.data for F in originals]).__getitem__ if samples is None else samples._read
    return _ratio(read, np.stack([R.data for R in reconstructions]), samples)


def sweep_ratios(samples, basis, K):
    """Reconstruction ratio at k1 = k2 = 1..K, one projection of the set at K.

    Each entry is ``reconstruction_ratio(samples, reconstruct_samples(
    samples, b))`` with ``b = basis.truncated(k, k)``, up to round-off.
    The orthonormal bases make the bi-projection an orthogonal projector,
    so the residual of image i at k is read from feature norms,

        ||F_i - F_i_rec||^2 = ||X_i||^2 - ||P_i[:k, :k]||^2   (X_i = F_i - mean),

    with P the unweighted features at K.  Where round-off could swamp that
    difference (see ``_RESOLUTION``), or at every k where ||X_i||^2 is below
    min normal / eps and squares that underflowed can move it, the residual
    comes from the rebuilt reconstruction instead.  When the squares of X
    would leave the normal range, F, X and the mean are first scaled together
    by an exact power of two, which changes no ratio.  The errors are the
    ones the per-k calls would raise, in the same order; the set must be raw.
    """
    _check_sweep(basis, K)
    if len(samples) == 0:
        raise InvalidDataset("need at least one sample to compute a ratio")
    _require_shape((len(samples), 4, *samples.shape), basis)
    X, mean = samples._gather(basis.mean), basis.mean
    peak = _require_finite(X, samples)
    _require_raw(samples)
    raw = samples._read  # a block or a guarded few images at a time
    if peak and not _ROOT_NORMAL <= peak <= math.sqrt(sys.float_info.max / X[0].size):
        e = -math.frexp(peak)[1]
        raw = lambda i: np.ldexp(samples._read(i), e)
        X, mean = np.ldexp(X, e), QMatrix(np.ldexp(mean.data, e))
    nf = np.concatenate([_row_norms(raw(rows)) for rows in _blocks(len(X), X[0].size)])
    if np.any(nf == 0.0):
        raise InvalidDataset("zero-norm original has no relative error")
    U, V = basis.U.data, basis.V.data
    P = _project(X, U[..., :K], V[..., :K])
    x2 = _squared_rows(X)
    # ||P_i[:k, :k]||^2 for every k: the diagonal of the 2-D prefix sums.
    p2 = np.einsum("iakl,iakl->ikl", P, P).cumsum(1).cumsum(2).diagonal(axis1=1, axis2=2)
    err2 = np.maximum(x2[:, None] - p2, 0.0)
    err = np.sqrt(err2)
    guarded = err2 <= _pythagoras_round_off(basis, K) / _RESOLUTION * x2[:, None]
    guarded |= (x2 < sys.float_info.min / np.finfo(np.float64).eps)[:, None]
    for k in np.flatnonzero(guarded.any(axis=0)) + 1:
        i = np.flatnonzero(guarded[:, k - 1])
        R = _rebuild(P[i, :, :k, :k], U[..., :k], V[..., :k], mean)
        R -= raw(i)
        err[i, k - 1] = _row_norms(R)
    return [float(np.mean(1.0 - e / nf)) for e in err.T]
