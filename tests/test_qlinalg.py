"""Orthonormalization and Hermitian eigenextraction against numpy oracles."""

import math

import numpy as np
import pytest

from quatpca import (
    DegenerateDirection,
    InvalidParameter,
    QMatrix,
    QVector,
    Quaternion,
    ShapeError,
    hermitian_topk_eig,
    mgs_orthonormalize,
    real_repr,
)
from quatpca.qlinalg import DEGENERATE_TOL
from conftest import (
    max_principal_angle,
    random_orthonormal_columns,
    random_qmatrix,
    random_qvector,
)


def quaternion_gram(M):
    """Gram matrix M^* M as a QMatrix."""
    return M.H @ M


# -- Gram-Schmidt -------------------------------------------------------


def test_mgs_normalizes_without_basis(rng):
    v = random_qvector(rng, 5)
    u = mgs_orthonormalize(v, [])
    assert u.norm() == pytest.approx(1.0)
    assert u.allclose(v / v.norm(), tol=1e-12)


def test_mgs_residual_orthogonal(rng):
    basis = list(random_orthonormal_columns(rng, 8, 3).columns())
    v = random_qvector(rng, 8)
    u = mgs_orthonormalize(v, basis)
    assert u.norm() == pytest.approx(1.0)
    for b in basis:
        assert abs(b.inner(u)) < 1e-12


def test_mgs_rejects_spanned_vector(rng):
    basis = list(random_orthonormal_columns(rng, 6, 2).columns())
    v = basis[0].rmul(Quaternion(0.1, 0.2, -0.3, 0.4)) + basis[1] * 0.5
    with pytest.raises(DegenerateDirection):
        mgs_orthonormalize(v, basis)


def test_mgs_rejects_zero_vector():
    with pytest.raises(DegenerateDirection):
        mgs_orthonormalize(QVector.zeros(4), [])


def _mgs_oracle(v, basis, degenerate_tol=DEGENERATE_TOL):
    """Per-vector Gram-Schmidt v <- v - u (u^* v), twice, then normalized."""
    for _ in range(2 if basis else 1):
        for u in basis:
            v = v - u.rmul(u.inner(v))
    r = v.norm()
    if r < degenerate_tol:
        raise DegenerateDirection(f"residual norm {r:.3e}")
    return v / r


def test_mgs_matches_per_vector_oracle(rng):
    n = 6
    W = random_orthonormal_columns(rng, n, n).columns()
    for size in range(n):
        v = random_qvector(rng, n)
        got = mgs_orthonormalize(v, W[:size])
        assert np.max(np.abs(got.data - _mgs_oracle(v, W[:size]).data)) <= 1e-12
    # nearly dependent: a residual of 1e-3 under an O(1) spanned part
    v = W[0].rmul(Quaternion(0.3, -1.0, 0.2, 0.5)) + W[2] * 0.7 + W[4] * 1e-3
    got = mgs_orthonormalize(v, W[:3])
    assert np.max(np.abs(got.data - _mgs_oracle(v, W[:3]).data)) <= 1e-12


@pytest.mark.parametrize("tol", [DEGENERATE_TOL, 1e-5])
def test_mgs_degenerate_threshold_matches_oracle(rng, tol):
    W = random_orthonormal_columns(rng, 6, 6).columns()
    spanned = W[0].rmul(Quaternion(0.3, -1.0, 0.2, 0.5)) + W[1] * 0.7
    for factor in (2.0, 0.5):
        v = spanned + W[3].rmul(Quaternion(0.0, 1.0, 0.0, 0.0)) * (factor * tol)
        raised = []
        for orthonormalize in (mgs_orthonormalize, _mgs_oracle):
            try:
                orthonormalize(v, W[:3], degenerate_tol=tol)
                raised.append(False)
            except DegenerateDirection:
                raised.append(True)
        assert raised == [factor < 1.0] * 2


def test_mgs_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        mgs_orthonormalize(random_qvector(rng, 4), [random_qvector(rng, 5)])


# -- Hermitian eigenextraction: hand cases ------------------------------


def test_eig_real_diagonal():
    G = QMatrix.eye(3).scale_columns([5.0, 3.0, 1.0])
    pairs = hermitian_topk_eig(G, 3)
    assert [lam for lam, _ in pairs] == pytest.approx([5.0, 3.0, 1.0])
    for t, (_, v) in enumerate(pairs):
        # canonical phase makes the significant entry real and positive
        assert v.entry(t).isclose(Quaternion(1.0), tol=1e-8)


def test_eig_two_by_two_quaternion_offdiagonal():
    # G = [[2, q], [conj(q), 2]] with q = i + j + k has eigenvalues
    # 2 +/- sqrt(3) and eigenvectors (1, +/- conj(q)/|q|)/sqrt(2) after
    # phase fixing.
    planes = np.zeros((4, 2, 2))
    planes[0] = np.diag([2.0, 2.0])
    for c in (1, 2, 3):
        planes[c, 0, 1] = 1.0
        planes[c, 1, 0] = -1.0
    G = QMatrix(planes)
    pairs = hermitian_topk_eig(G, 2)
    root3 = math.sqrt(3.0)
    assert pairs[0][0] == pytest.approx(2.0 + root3)
    assert pairs[1][0] == pytest.approx(2.0 - root3)
    inv = 1.0 / math.sqrt(2.0)
    top = pairs[0][1]
    assert top.entry(0).isclose(Quaternion(inv), tol=1e-10)
    assert top.entry(1).isclose(
        Quaternion(0.0, -inv / root3, -inv / root3, -inv / root3), tol=1e-10)
    bottom = pairs[1][1]
    assert bottom.entry(0).isclose(Quaternion(inv), tol=1e-10)
    assert bottom.entry(1).isclose(
        Quaternion(0.0, inv / root3, inv / root3, inv / root3), tol=1e-10)


def test_eig_degenerate_eigenvalue_spans_plane():
    G = QMatrix.eye(3).scale_columns([5.0, 5.0, 1.0])
    pairs = hermitian_topk_eig(G, 3)
    assert [lam for lam, _ in pairs] == pytest.approx([5.0, 5.0, 1.0])
    W = QMatrix.from_columns([v for _, v in pairs[:2]])
    plane = QMatrix.from_columns([QVector.unit(3, 0), QVector.unit(3, 1)])
    assert max_principal_angle(W, plane) < 1e-8
    gram = quaternion_gram(W)
    assert gram.allclose(QMatrix.eye(2), tol=1e-10)


def test_eig_repeated_eigenvalue_with_quaternion_eigenvectors(rng):
    """5 fills two real 4-groups; the walk takes one vector from each group."""
    vals = np.array([5.0, 5.0, 2.0, 1.0])
    W = random_orthonormal_columns(rng, 4, 4)
    G = W.scale_columns(vals) @ W.H
    pairs = hermitian_topk_eig(G, 4)
    assert [lam for lam, _ in pairs] == pytest.approx(vals, rel=1e-10)
    V = QMatrix.from_columns([v for _, v in pairs])
    # The sine of the largest principal angle, as the projector distance:
    # arccos of a cosine one ulp below 1 already reads 2.1e-8.
    A, B = real_repr(V.take_cols(2)), real_repr(W.take_cols(2))
    assert np.linalg.norm(A @ A.T - B @ B.T, 2) < 1e-8
    assert quaternion_gram(V).allclose(QMatrix.eye(4), tol=1e-10)
    for lam, v in pairs:
        assert ((G @ v) - v * lam).norm() <= 1e-10 * G.fro_norm()


# -- Hermitian eigenextraction: random oracles --------------------------


def test_eig_matches_planted_spectrum(rng):
    n, vals = 6, np.array([9.0, 5.0, 2.0, 1.0, 0.5, 0.1])
    W = random_orthonormal_columns(rng, n, n)
    G = W.scale_columns(vals) @ W.H
    pairs = hermitian_topk_eig(G, 4)
    for t, (lam, v) in enumerate(pairs):
        assert lam == pytest.approx(vals[t], rel=1e-10)
        # simple eigenvalues: recovered vector matches planted one up to
        # a right unit-quaternion phase
        assert abs(W.col(t).inner(v)) == pytest.approx(1.0, abs=1e-8)


def test_eig_residual_and_orthonormality(rng):
    B = random_qmatrix(rng, 7, 5)
    G = quaternion_gram(B)
    pairs = hermitian_topk_eig(G, 3)
    scale = G.fro_norm()
    for lam, v in pairs:
        res = (G @ v) - v * lam
        assert res.norm() <= 1e-10 * scale
    W = QMatrix.from_columns([v for _, v in pairs])
    assert quaternion_gram(W).allclose(QMatrix.eye(3), tol=1e-10)


def test_eig_quadruple_structure_in_real_spectrum(rng):
    """Each quaternion eigenvalue shows up four times in the real
    representation's spectrum, and the walk keeps exactly one per group."""
    B = random_qmatrix(rng, 6, 4)
    G = quaternion_gram(B)
    pairs = hermitian_topk_eig(G, 4)
    real_evals = np.sort(np.linalg.eigvalsh((lambda R: (R + R.T) / 2)(
        real_repr(G))))[::-1]
    for t, (lam, _) in enumerate(pairs):
        group = real_evals[4 * t: 4 * t + 4]
        assert np.allclose(group, lam, rtol=1e-9, atol=1e-12)


def test_eig_descending_and_deterministic(rng):
    G = quaternion_gram(random_qmatrix(rng, 5, 5))
    pairs1 = hermitian_topk_eig(G, 5)
    pairs2 = hermitian_topk_eig(G, 5)
    evals = [lam for lam, _ in pairs1]
    assert evals == sorted(evals, reverse=True)
    for (l1, v1), (l2, v2) in zip(pairs1, pairs2):
        assert l1 == l2
        assert np.array_equal(v1.data, v2.data)


# -- validation ---------------------------------------------------------


def test_eig_rejects_non_square(rng):
    with pytest.raises(ShapeError):
        hermitian_topk_eig(random_qmatrix(rng, 3, 4), 1)


def test_eig_rejects_non_hermitian(rng):
    A = random_qmatrix(rng, 4, 4)
    with pytest.raises(InvalidParameter):
        hermitian_topk_eig(A, 1)


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_eig_rejects_non_hermitian_at_any_scale(scale):
    # Squares of 1e200 overflow; an unscaled Frobenius norm read inf and let this through.
    G = np.zeros((4, 2, 2))
    G[0] = [[1.0, 5.0], [0.0, 1.0]]
    with pytest.raises(InvalidParameter, match="not Hermitian"):
        hermitian_topk_eig(QMatrix(G * scale), 1)


def test_eig_rejects_bad_k(rng):
    G = quaternion_gram(random_qmatrix(rng, 4, 3))
    with pytest.raises(InvalidParameter):
        hermitian_topk_eig(G, 0)
    with pytest.raises(InvalidParameter):
        hermitian_topk_eig(G, 4)
