"""Quaternion scalar/vector/matrix algebra and the real representation."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quatpca import (
    InvalidParameter,
    QMatrix,
    Quaternion,
    QVector,
    ShapeError,
    lp_norm,
    real_repr,
    real_scale,
    vabs,
    vsign,
)
from quatpca import quaternion
from quatpca.quaternion import (_l2_norm, _row_norms, _squared_rows, plane_conj_transpose,
                                plane_matmul)
from conftest import random_qmatrix, random_qvector

components = st.floats(min_value=-10.0, max_value=10.0,
                       allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, components, components, components, components)


# -- scalar algebra -----------------------------------------------------


# Products of the units (1, i, j, k), row times column, written out by
# hand so that they do not read the table the package uses.
_UNIT_PRODUCTS = [
    ["1", "i", "j", "k"],
    ["i", "-1", "k", "-j"],
    ["j", "-k", "-1", "i"],
    ["k", "j", "-i", "-1"],
]


def _unit(name):
    """Components of a signed unit written as '1', '-i', 'j', ..."""
    c = np.zeros(4)
    c["1ijk".index(name[-1])] = -1.0 if name.startswith("-") else 1.0
    return c


def test_unit_multiplication_table():
    units = [_unit(u) for u in "1ijk"]
    for a in range(4):
        R = real_repr(QMatrix(units[a][:, None, None]))
        for b in range(4):
            expected = _unit(_UNIT_PRODUCTS[a][b])
            q = Quaternion.from_components(units[a]) * Quaternion.from_components(units[b])
            assert np.array_equal(q.components, expected), (a, b)
            planes = plane_matmul(units[a][:, None, None], units[b][:, None, None])
            assert np.array_equal(planes[:, 0, 0], expected), (a, b)
            # Column b of real_repr(a) is the real layout of a e_b.
            assert np.array_equal(R[:, b], expected), (a, b)


def test_hand_product():
    a = Quaternion(1.0, 2.0, 3.0, 4.0)
    b = Quaternion(5.0, 6.0, 7.0, 8.0)
    assert (a * b).components == pytest.approx([-60.0, 12.0, 30.0, 24.0])
    assert (b * a).components == pytest.approx([-60.0, 20.0, 14.0, 32.0])


def test_scalar_promotion_and_arithmetic():
    a = Quaternion(1.0, -2.0, 0.5, 3.0)
    assert a * 2 == Quaternion(2.0, -4.0, 1.0, 6.0)
    assert 2 * a == a * 2
    assert a + Quaternion(1.0) == Quaternion(2.0, -2.0, 0.5, 3.0)
    assert a - a == Quaternion(0.0)
    assert -a == Quaternion(-1.0, 2.0, -0.5, -3.0)


def test_conj_and_modulus():
    a = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert a.conj() == Quaternion(1.0, -2.0, -3.0, -4.0)
    assert abs(a) == pytest.approx(math.sqrt(30.0))
    prod = a * a.conj()
    assert prod.isclose(Quaternion(30.0))


def test_sign_examples():
    assert Quaternion(0.0).sign() == Quaternion(0.0)
    assert Quaternion(0.0, -2.0, 0.0, 0.0).sign() == Quaternion(0.0, -1.0, 0.0, 0.0)
    a = Quaternion(3.0, 0.0, 4.0, 0.0)
    assert abs(a.sign()) == pytest.approx(1.0)


@given(quaternions, quaternions)
def test_conj_antihomomorphism(a, b):
    lhs = (a * b).conj()
    rhs = b.conj() * a.conj()
    assert lhs.isclose(rhs, tol=1e-9)


@given(quaternions, quaternions)
def test_modulus_multiplicative(a, b):
    assert abs(a * b) == pytest.approx(abs(a) * abs(b), abs=1e-9)


@given(quaternions)
def test_sign_reconstructs(a):
    s = a.sign()
    assert abs(s) == pytest.approx(1.0 if abs(a) > 0 else 0.0)
    assert (s * abs(a)).isclose(a, tol=1e-9)


def test_noncommutative_witness():
    a = Quaternion(0.0, 1.0, 0.0, 0.0)
    b = Quaternion(0.0, 0.0, 1.0, 0.0)
    assert a * b != b * a


# -- vectors ------------------------------------------------------------


def test_qvector_construction_and_entries():
    v = QVector.from_entries([Quaternion(1.0, 2.0, 3.0, 4.0), Quaternion(5.0)])
    assert v.n == 2
    assert v.entry(0) == Quaternion(1.0, 2.0, 3.0, 4.0)
    assert v.entry(1) == Quaternion(5.0)
    assert QVector.unit(3, 1).entry(1) == Quaternion(1.0)
    assert QVector.zeros(4).norm() == 0.0


def test_qvector_data_read_only():
    v = QVector.zeros(3)
    with pytest.raises(ValueError):
        v.data[0, 0] = 1.0


def test_qvector_rejects_bad_shape():
    with pytest.raises(ShapeError):
        QVector(np.zeros((3, 5)))


def test_real_layout_round_trip(rng):
    v = random_qvector(rng, 6)
    assert QVector.from_real(v.to_real()).allclose(v)
    assert v.to_real().shape == (24,)


def test_inner_product_conjugate_symmetry(rng):
    u = random_qvector(rng, 5)
    v = random_qvector(rng, 5)
    assert u.inner(v).isclose(v.inner(u).conj(), tol=1e-12)


def test_inner_product_right_linear(rng):
    u = random_qvector(rng, 5)
    v = random_qvector(rng, 5)
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    lhs = u.inner(v.rmul(q))
    rhs = u.inner(v) * q
    assert lhs.isclose(rhs, tol=1e-12)


def test_inner_product_is_norm_squared(rng):
    v = random_qvector(rng, 7)
    g = v.inner(v)
    assert g.w0 == pytest.approx(v.norm() ** 2)
    assert abs(g - Quaternion(g.w0)) < 1e-12


def test_vector_abs_sign_identity(rng):
    v = random_qvector(rng, 9)
    rebuilt = real_scale(vabs(v), vsign(v))
    assert rebuilt.allclose(v, tol=1e-12)
    mods = vabs(vsign(v))
    assert np.allclose(mods, 1.0)


def test_sign_keeps_zeros():
    v = QVector.from_entries([Quaternion(0.0), Quaternion(0.0, 3.0, 0.0, 0.0)])
    s = vsign(v)
    assert s.entry(0) == Quaternion(0.0)
    assert s.entry(1) == Quaternion(0.0, 1.0, 0.0, 0.0)


def test_lp_norm_values():
    v = QVector.from_entries([Quaternion(0.0, 3.0, 0.0, 0.0),
                              Quaternion(0.0, 0.0, 4.0, 0.0)])
    assert lp_norm(v, 1) == pytest.approx(7.0)
    assert lp_norm(v, 2) == pytest.approx(5.0)
    assert lp_norm(v, math.inf) == pytest.approx(4.0)
    assert lp_norm(v, 0.5) == pytest.approx((3.0 ** 0.5 + 4.0 ** 0.5) ** 2)
    assert lp_norm(v, 2) == v.norm()


@pytest.mark.parametrize("p", [0.0, -1.0])
def test_lp_norm_rejects_nonpositive_p(p):
    with pytest.raises(InvalidParameter):
        lp_norm(QVector.zeros(2), p)


@given(st.floats(min_value=0.1, max_value=8.0),
       st.floats(min_value=0.25, max_value=4.0))
def test_lp_norm_homogeneous(p, alpha):
    v = QVector.from_entries([Quaternion(1.0, -2.0, 0.0, 2.0),
                              Quaternion(0.5, 0.0, 1.0, 0.0)])
    assert lp_norm(v * alpha, p) == pytest.approx(alpha * lp_norm(v, p), rel=1e-9)


_EXTREME_SCALES = [1e-170, 1e-160, 1e160, 1e170]


@pytest.mark.parametrize("scale", _EXTREME_SCALES)
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_lp_norm_survives_under_and_overflow(scale, p):
    base = QVector(np.array([[0.0, 0.0, 0.5], [3.0, 0.0, 0.0], [4.0, 1.0, 0.0], [0.0, 2.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning
        got = lp_norm(base * scale, p)
    # (sum x^p)^(1/p) itself loses about |ln x| ulps at p = 1.5
    assert got == pytest.approx(scale * lp_norm(base, p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scale", _EXTREME_SCALES)
def test_norm_survives_under_and_overflow(scale):
    single = QVector(np.array([[0.0], [3.0], [4.0], [0.0]]) * scale)
    base = QVector(np.array([[0.0, 0.0, 0.5], [3.0, 0.0, 0.0], [4.0, 1.0, 0.0], [0.0, 2.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert single.norm() == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
        assert (base * scale).norm() == pytest.approx(scale * base.norm(), rel=1e-14, abs=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert lp_norm(single, 2) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)


def test_norms_in_normal_range_are_the_plain_formulas(rng):
    v = random_qvector(rng, 7)
    assert v.norm() == float(np.linalg.norm(v.data))
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        assert lp_norm(v, p) == float((v.abs() ** p).sum() ** (1.0 / p))
    assert QVector.zeros(3).norm() == lp_norm(QVector.zeros(3), 2) == 0.0


def test_real_scale_shape_check(rng):
    v = random_qvector(rng, 4)
    with pytest.raises(ShapeError):
        real_scale(np.ones(5), v)


# -- matrices -----------------------------------------------------------


def test_identity_acts_trivially(rng):
    v = random_qvector(rng, 4)
    assert (QMatrix.eye(4) @ v).allclose(v)


def test_columns_round_trip(rng):
    A = random_qmatrix(rng, 5, 3)
    B = QMatrix.from_columns(A.columns())
    assert B.allclose(A)
    assert A.take_cols(2).allclose(QMatrix.from_columns(A.columns()[:2]))


def test_take_cols_bounds(rng):
    A = random_qmatrix(rng, 3, 3)
    with pytest.raises(InvalidParameter):
        A.take_cols(0)
    with pytest.raises(InvalidParameter):
        A.take_cols(4)


def test_conj_transpose_involution(rng):
    A = random_qmatrix(rng, 4, 6)
    assert A.H.H.allclose(A)
    assert A.H.shape == (6, 4)


def test_product_conj_transpose(rng):
    A = random_qmatrix(rng, 3, 4)
    B = random_qmatrix(rng, 4, 5)
    assert (A @ B).H.allclose(B.H @ A.H, tol=1e-12)


def test_matmul_matches_columnwise_matvec(rng):
    A = random_qmatrix(rng, 4, 3)
    B = random_qmatrix(rng, 3, 2)
    C = A @ B
    for j in range(B.n):
        assert C.col(j).allclose(A @ B.col(j), tol=1e-12)


def test_matmul_associative(rng):
    A = random_qmatrix(rng, 2, 3)
    B = random_qmatrix(rng, 3, 4)
    C = random_qmatrix(rng, 4, 2)
    assert ((A @ B) @ C).allclose(A @ (B @ C), tol=1e-10)


def test_scale_columns_matches_diagonal_matmul(rng):
    A = random_qmatrix(rng, 4, 3)
    w = np.array([2.0, -0.5, 3.0])
    planes = np.zeros((4, 3, 3))
    planes[0] = np.diag(w)
    D = QMatrix(planes)
    assert A.scale_columns(w).allclose(A @ D, tol=1e-12)


def test_shape_errors(rng):
    A = random_qmatrix(rng, 3, 4)
    with pytest.raises(ShapeError):
        A @ random_qvector(rng, 5)
    with pytest.raises(ShapeError):
        A @ random_qmatrix(rng, 3, 2)
    with pytest.raises(TypeError):
        A @ np.zeros(4)


def test_column_checks_name_the_problem(rng):
    with pytest.raises(ShapeError, match="^need at least one column$"):
        QMatrix.from_columns([])
    with pytest.raises(ShapeError, match="^columns have mixed lengths$"):
        QMatrix.from_columns([QVector.zeros(3), QVector.zeros(2)])
    with pytest.raises(ShapeError, match=re.escape("weights shape (2,) does not match column count 3")):
        random_qmatrix(rng, 3, 3).scale_columns([1.0, 2.0])


def test_fro_norm_hand_value():
    data = np.zeros((4, 2, 2))
    data[1, 0, 0] = 3.0
    data[2, 1, 1] = 4.0
    assert QMatrix(data).fro_norm() == pytest.approx(5.0)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_fro_norm_and_norm_survive_squares_out_of_range(scale):
    # Entries 3i and 4j: the squares 9e400 overflow, 9e-340 underflow.
    data = np.zeros((4, 1, 2))
    data[1, 0, 0] = 3.0 * scale
    data[2, 0, 1] = 4.0 * scale
    assert QMatrix(data).fro_norm() == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
    assert QVector(data[:, 0, :]).norm() == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
    assert QMatrix(data).fro_norm() == QVector(data[:, 0, :]).norm()


# -- behaviour shared by vectors and matrices ---------------------------


# Per class: a shape, a different shape, a bad constructor shape and the
# texts of the two ShapeErrors.
_PLANE_CASES = {
    QVector: ((3,), (2,), (3, 3),
              "vector lengths differ: 3 vs 2",
              "vector planes must have shape (4, n), got (3, 3)"),
    QMatrix: ((3, 2), (2, 3), (4, 3),
              "matrix shapes differ: (3, 2) vs (2, 3)",
              "matrix planes must have shape (4, m, n), got (4, 3)"),
}


def _planes(cls, rng, shape):
    return cls(rng.standard_normal((4, *shape)))


@pytest.mark.parametrize("cls", [QVector, QMatrix])
def test_shared_methods_keep_the_class_and_stay_read_only(cls, rng):
    shape = _PLANE_CASES[cls][0]
    a, b = _planes(cls, rng, shape), _planes(cls, rng, shape)
    results = {
        "zeros": (cls.zeros(*shape), np.zeros((4, *shape))),
        "+": (a + b, a.data + b.data),
        "-": (a - b, a.data - b.data),
        "neg": (-a, -a.data),
        "*": (a * 2.5, a.data * 2.5),
        "rmul": (2.5 * a, a.data * 2.5),
        "/": (a / 4.0, a.data / 4.0),
    }
    for name, (got, expected) in results.items():
        assert type(got) is cls, name
        assert not got.data.flags.writeable, name
        assert got.data.dtype == np.float64, name
        assert np.array_equal(got.data, expected), name
    assert not a.data.flags.writeable
    assert a.allclose(a + cls.zeros(*shape)) and not a.allclose(b)
    norm = a.norm() if cls is QVector else a.fro_norm()
    assert norm == float(np.linalg.norm(a.data))


@pytest.mark.parametrize("cls, other", [(QVector, QMatrix), (QMatrix, QVector)])
def test_shared_methods_reject_the_other_class(cls, other, rng):
    a = _planes(cls, rng, _PLANE_CASES[cls][0])
    b = _planes(other, rng, _PLANE_CASES[other][0])
    message = f"^expected {cls.__name__}, got {other.__name__}$"
    for op in (lambda: a + b, lambda: a - b, lambda: a.allclose(b)):
        with pytest.raises(TypeError, match=message):
            op()


@pytest.mark.parametrize("cls", [QVector, QMatrix])
def test_shared_methods_shape_error_texts(cls, rng):
    shape, other_shape, bad, differ, layout = _PLANE_CASES[cls]
    a, b = _planes(cls, rng, shape), _planes(cls, rng, other_shape)
    for op in (lambda: a + b, lambda: a - b, lambda: a.allclose(b)):
        with pytest.raises(ShapeError) as info:
            op()
        assert str(info.value) == differ
    with pytest.raises(ShapeError) as info:
        cls(np.zeros(bad))
    assert str(info.value) == layout


# -- real representation ------------------------------------------------


def test_real_repr_of_unit_i():
    data = np.zeros((4, 1, 1))
    data[1, 0, 0] = 1.0
    R = QMatrix(data).real_repr()
    expected = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    assert np.array_equal(R, expected)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(R @ x, np.array([-2.0, 1.0, -4.0, 3.0]))


def test_real_repr_is_ring_homomorphism(rng):
    A = random_qmatrix(rng, 3, 4)
    B = random_qmatrix(rng, 4, 2)
    assert np.allclose(real_repr(A @ B), real_repr(A) @ real_repr(B), atol=1e-12)
    assert np.allclose(real_repr(A.H), real_repr(A).T, atol=0.0)


def test_real_repr_matvec_agreement(rng):
    A = random_qmatrix(rng, 5, 3)
    v = random_qvector(rng, 3)
    assert np.allclose((A @ v).to_real(), real_repr(A) @ v.to_real(), atol=1e-12)


def test_plane_matmul_matches_real_repr_batched(rng):
    A = rng.standard_normal((3, 4, 5, 2))
    B = rng.standard_normal((3, 4, 2, 4))
    C = plane_matmul(A, B)
    assert C.shape == (3, 4, 5, 4)
    for a, b, c in zip(A, B, C):
        lhs = real_repr(QMatrix(c))
        rhs = real_repr(QMatrix(a)) @ real_repr(QMatrix(b))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_plane_matmul_matches_real_repr_broadcast(rng):
    stack = rng.standard_normal((2, 3, 4, 5, 3))
    single = rng.standard_normal((4, 3, 6))
    left = rng.standard_normal((4, 2, 5))
    right = plane_matmul(stack, single)
    front = plane_matmul(left, stack)
    assert right.shape == (2, 3, 4, 5, 6)
    assert front.shape == (2, 3, 4, 2, 3)
    R_single = real_repr(QMatrix(single))
    R_left = real_repr(QMatrix(left))
    for idx in np.ndindex(2, 3):
        R = real_repr(QMatrix(stack[idx]))
        assert np.max(np.abs(real_repr(QMatrix(right[idx])) - R @ R_single)) <= 1e-12
        assert np.max(np.abs(real_repr(QMatrix(front[idx])) - R_left @ R)) <= 1e-12


def test_plane_conj_transpose_matches_real_repr_transpose(rng):
    stack = rng.standard_normal((3, 4, 2, 5))
    for a, h in zip(stack, plane_conj_transpose(stack)):
        assert np.array_equal(real_repr(QMatrix(h)), real_repr(QMatrix(a)).T)


def test_real_repr_rejects_other_types():
    with pytest.raises(TypeError):
        real_repr(np.zeros((4, 2, 2)))


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e170])
def test_vector_moduli_survive_squares_out_of_range(scale, rng):
    entries = [Quaternion(3.0 * scale, 4.0 * scale),
               Quaternion.from_components(rng.standard_normal(4) * scale),
               Quaternion(0.0)]
    v = QVector.from_entries(entries)
    expected = [abs(q) for q in entries]
    assert vabs(v) == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert vabs(vsign(v)) == pytest.approx([1.0, 1.0, 0.0], rel=1e-15, abs=0.0)
    assert v.sign().entry(0).isclose(entries[0].sign(), tol=1e-15)
    assert lp_norm(v, math.inf) == pytest.approx(max(expected), rel=1e-15, abs=0.0)
    assert lp_norm(v, 1) == pytest.approx(sum(expected), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e200])
def test_modulus_survives_squares_out_of_range(scale):
    a = Quaternion(0.0, 0.0, 3.0 * scale, 4.0 * scale)
    assert abs(a) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)
    assert abs(a.sign()) == pytest.approx(1.0, rel=1e-15, abs=0.0)


# -- the BLAS-free row norms --------------------------------------------


@pytest.mark.parametrize("rows", [1, 9])
def test_row_norms_in_range_are_the_root_of_the_squared_rows(rows, rng):
    X = rng.standard_normal((rows, 4, 6, 5))
    assert np.array_equal(_row_norms(X), np.sqrt(_squared_rows(X)))


@pytest.mark.parametrize("scale", [1e-170, 1e170, 1e200])
@pytest.mark.parametrize("rows", [1, 9])
def test_row_norms_out_of_range_are_the_rescaled_norm(scale, rows, rng):
    # The squares of these entries under- or overflow.  Each row is brought
    # into range by an exact power of two, so scaling rows by 2^k scales
    # their norms by 2^k bit for bit; and they agree with _l2_norm, which
    # sums the same squares in another order, to the round-off of that sum.
    X = rng.standard_normal((rows, 4, 6, 5))
    k = round(math.log2(scale))
    assert np.array_equal(_row_norms(np.ldexp(X, k)), np.ldexp(_row_norms(X), k))
    want = [_l2_norm(x) for x in X * scale]
    np.testing.assert_allclose(_row_norms(X * scale), want, rtol=X[0].size * np.finfo(float).eps,
                               atol=0.0)


@pytest.mark.parametrize("value, norm", [(0.0, 0.0), (np.nan, np.nan), (-np.inf, np.inf)],
                         ids=["zero", "nan", "inf"])
@pytest.mark.parametrize("rows", [1, 9])
def test_row_norms_of_zero_nan_and_inf_rows(value, norm, rows, rng):
    # The last row is all zero, or holds one NaN or one inf; the others keep their norms.
    X = rng.standard_normal((rows, 4, 6, 5))
    X[-1] = 0.0
    X[-1, 2, 3, 1] = value
    norms = _row_norms(X)
    np.testing.assert_equal(norms[-1], norm)
    assert np.array_equal(norms[:-1], np.sqrt(_squared_rows(X))[:-1])


# Five random quaternion matrices of each size, scaled so that their squares
# underflow (x 1e-170) or overflow (x 1e170): every norm is a rescued one.
def _extreme_matrices():
    rng = np.random.default_rng(170)
    for m in (64, 96):
        for scale in (1e-170, 1e170):
            for _ in range(5):
                yield rng.standard_normal((4, m, m)) * scale


_THREAD_NORM_SCRIPT = """
from quatpca import QMatrix, QVector
from test_quaternion import _extreme_matrices
for A in _extreme_matrices():
    print(repr(QMatrix(A).fro_norm()), repr(QVector(A.reshape(4, -1)).norm()))
"""


def test_rescued_norms_independent_of_blas_threads():
    # A BLAS dot's sum order follows the thread count; _row_norms' does not.
    src = str(Path(quaternion.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
        out = subprocess.run([sys.executable, "-c", _THREAD_NORM_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(out.stdout.split())
    assert len(runs[0]) == 2 * 20
    assert runs[0] == runs[1]


def test_rescued_norms_and_moduli_are_the_row_norms():
    for A in _extreme_matrices():
        x = A.ravel()
        got = _l2_norm(x)
        assert got == _row_norms(x[None])[0]
        # An independent reference: the exact sum of the squares of the
        # entries brought into range by one power of two.
        e = math.frexp(np.abs(x).max())[1]
        want = math.ldexp(math.sqrt(math.fsum(np.ldexp(x, -e) ** 2)), e)
        assert got == pytest.approx(want, rel=x.size * np.finfo(float).eps, abs=0.0)
        # The moduli of entries whose squares leave the normal range.
        entries = A[:, 0]
        mods = QVector(entries).abs()
        assert np.array_equal(mods, _row_norms(entries.T))
        assert [abs(Quaternion.from_components(q)) for q in entries.T] == list(mods)


def test_modulus_of_an_entry_with_inf_and_nan_is_nan():
    q = Quaternion(math.inf, 0.0, math.nan, 1.0)
    assert math.isnan(abs(q))
    mods = QVector(np.array([q.components, [0.0, 3.0, 4.0, 0.0]]).T).abs()
    assert math.isnan(mods[0]) and mods[1] == 5.0
