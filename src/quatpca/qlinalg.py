"""Gram-Schmidt orthogonalization and Hermitian eigenextraction.

Quaternion scalars multiply from the right in all projection updates so
that right-linear combinations stay right-linear.  With W the matrix of
an orthonormal basis and Wr its real structure-preserving
representation, real_repr(W^*) = Wr^T, so the projection W (W^* v) is
the real product Wr (Wr^T v) on the stacked layout of v, and the columns
of Wr span the right-unit images w, w i, w j, w k of every basis vector.
Eigenpairs of a Hermitian quaternion matrix are recovered from the
symmetric eigendecomposition of its real representation, where every
quaternion eigenvalue appears four times; the same projection keeps one
real eigenvector per group.  No product here writes the Hamilton table
out: the right-unit images of w are the real representation of w as an
n x 1 matrix, and the phase fix is ``plane_matmul`` with w on the left.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDirection, InvalidParameter, ShapeError
from .quaternion import _CONJ, QMatrix, QVector, _real_repr, plane_matmul

__all__ = [
    "mgs_orthonormalize",
    "hermitian_topk_eig",
    "DEGENERATE_TOL",
    "HERMITIAN_RTOL",
]

DEGENERATE_TOL = 1e-12
HERMITIAN_RTOL = 1e-10

# Residual mass below this marks a real eigenvector as a right-unit
# multiple of one already extracted.  Duplicates sit at round-off level,
# genuinely new directions carry O(1) mass.
_DUPLICATE_TOL = 1e-5


def mgs_orthonormalize(vnew, basis):
    """Orthonormalize ``vnew`` against an orthonormal ``basis``.

    Gram-Schmidt with the right-scalar update v <- v - W (W^* v), where
    W holds the basis as columns, run on the real layout of v as
    v <- v - Wr (Wr^T v) with Wr = real_repr(W).  The update is applied
    twice for numerical safety, then v is normalized to unit L2 norm.
    Raises DegenerateDirection when the residual norm falls below
    DEGENERATE_TOL.
    """
    basis = list(basis)
    for u in basis:
        if u.n != vnew.n:
            raise ShapeError(f"basis vector length {u.n} does not match {vnew.n}")
    Wr = QMatrix.from_columns(basis).real_repr() if basis else np.empty((4 * vnew.n, 0))
    return QVector.from_real(_orthonormalize(vnew.to_real(), Wr))


def _orthonormalize(v, Wr):
    """:func:`mgs_orthonormalize` of the real layout v against the real representation Wr."""
    for _ in range(2):
        v = v - Wr @ (Wr.T @ v)
    r = float(np.linalg.norm(v))
    if r < DEGENERATE_TOL:
        raise DegenerateDirection(
            f"residual norm {r:.3e} below {DEGENERATE_TOL:.1e}; direction already spanned")
    return v / r


def _canonical_phase(w):
    """Fix the right unit-quaternion phase of (4, n) planes deterministically.

    Right-multiplies by the conjugate sign of the first entry of
    significant modulus, which makes that entry real and nonnegative,
    then renormalizes.
    """
    mods = np.sqrt((w * w).sum(axis=0))
    t = int(np.argmax(mods > 1e-8 * mods.max()))
    q = w[:, t] * _CONJ / mods[t]
    w = plane_matmul(w[:, :, None], q[:, None, None])[:, :, 0]
    return w / np.linalg.norm(w)


def hermitian_topk_eig(G, k):
    """Top-k eigenpairs of a Hermitian quaternion matrix, descending.

    Works on the symmetric real representation: each quaternion
    eigenvalue appears there with multiplicity four, and the four real
    eigenvectors of a group are the images of one quaternion eigenvector
    under right multiplication by 1, i, j, k.  Walking the real spectrum
    downward, each candidate is projected off the right-unit images of
    the vectors already accepted, v <- v - B (B^T v) twice, exactly as
    :func:`mgs_orthonormalize` does with B = real_repr(W), and is kept
    only when it carries mass outside their span.  That yields one
    orthonormal quaternion eigenvector per group.  B grows by the four
    images of each accepted vector instead of being rebuilt.  Phases
    follow the deterministic convention of :func:`_canonical_phase`.

    Returns a list of (eigenvalue, eigenvector) pairs.
    """
    m, n = G.shape
    if m != n:
        raise ShapeError(f"expected a square matrix, got {m}x{n}")
    if not 1 <= k <= n:
        raise InvalidParameter(f"k must satisfy 1 <= k <= {n}, got {k}")
    scale = G.fro_norm()
    if (G - G.H).fro_norm() > HERMITIAN_RTOL * scale:
        raise InvalidParameter("matrix is not Hermitian within tolerance")

    R = G.real_repr()
    R = (R + R.T) / 2.0
    evals, evecs = np.linalg.eigh(R)

    # images[:, c, j] is the real layout of w_j e_c (e = 1, i, j, k), so
    # images[:, :, j] is the real representation of w_j as an n x 1 matrix
    # and images[:, :, :a] flattens to real_repr of the first a columns.
    images = np.empty((4 * n, 4, k))
    evals_kept, vectors = [], []
    for idx in range(4 * n - 1, -1, -1):
        v = evecs[:, idx].copy()
        if vectors:
            B = np.ascontiguousarray(images[:, :, :len(vectors)]).reshape(4 * n, -1)
            for _ in range(2):
                v = v - B @ (B.T @ v)
        r = float(np.linalg.norm(v))
        if r < _DUPLICATE_TOL:
            continue
        w = v.reshape(4, n) / r
        images[:, :, len(vectors)] = _real_repr(w[:, :, None])
        evals_kept.append(float(evals[idx]))
        vectors.append(w)
        if len(vectors) == k:
            break
    if len(vectors) < k:
        raise InvalidParameter(
            f"could only extract {len(vectors)} of {k} eigenvectors")
    return [(lam, QVector(_canonical_phase(w))) for lam, w in zip(evals_kept, vectors)]
