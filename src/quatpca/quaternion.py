"""Quaternion scalars, vectors and matrices stored as four real planes.

A quaternion is a = a0 + a1*i + a2*j + a3*k with i^2 = j^2 = k^2 = ijk = -1.
Vectors and matrices keep the four real component planes in one float64
array (structure of arrays), so all heavy arithmetic reduces to plain real
array operations.  Values are immutable after construction.  One private
base, _Planes, holds that array with the checks, arithmetic and norm
that vectors and matrices share.

The real structure-preserving representation maps an m x n quaternion
matrix F to the 4m x 4n real block matrix

    [ F0 -F1 -F2 -F3 ]
    [ F1  F0 -F3  F2 ]
    [ F2  F3  F0 -F1 ]
    [ F3 -F2  F1  F0 ]

and a length-n vector w to the stacked real vector [w0; w1; w2; w3].
Quaternion products agree with real products of these representations.
This block pattern is the Hamilton multiplication table, and it is
written once, as _PLANE and _SIGN below.  Every quaternion product in
the package goes through it: :func:`plane_matmul` expands its left
operand to the real representation and makes one real GEMM with the
stacked planes of its right operand, so callers put the small operand
(a basis) on the left.

Every block-wise pass over a stack takes its row blocks from _blocks and
each row's sum of squares or norm from _squared_rows or _row_norms (no BLAS).
Only _row_norms rescues a norm or modulus whose squares leave the normal range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, ShapeError, _check, _is_count

__all__ = [
    "Quaternion",
    "QVector",
    "QMatrix",
    "vabs",
    "vsign",
    "lp_norm",
    "real_scale",
    "real_repr",
]

# Largest temporary of a block-wise loop (the nearest-neighbour screen, the
# ratio norms, the export), in float64 entries: 512 KiB, so a block and its
# temporaries stay in cache.  Only _blocks reads it.
_CHUNK_ENTRIES = 1 << 16

# Moduli and norms from this one up have normal squares.
_ROOT_NORMAL = math.sqrt(sys.float_info.min)


def _blocks(count, entries):
    """Slices that cover ``count`` rows of ``entries`` entries each in blocks of consecutive rows.

    A block holds at most _CHUNK_ENTRIES entries, and at least one row.
    """
    step = max(1, _CHUNK_ENTRIES // max(1, entries))
    return [slice(a, a + step) for a in range(0, count, step)]


def _squared_rows(X):
    """The sum of squares of each row of X, flattened to 2-D, by einsum and not a BLAS dot.

    Its summation order, and so its bits, depend on X's shape and not on the thread count."""
    X = X.reshape(len(X), -1)
    return np.einsum("ij,ij->i", X, X)


def _row_norms(X):
    """The L2 norm of each row of X, flattened to 2-D: the root of _squared_rows, with no BLAS call.

    As in Blue's scaled norm, a row whose squares left the normal range
    (a norm outside (_ROOT_NORMAL, inf)) is first scaled by the power of two
    that brings its largest magnitude into [0.5, 1), so 2^k X has exactly
    2^k times the norms of X.  NaN and inf rows give NaN and inf."""
    X = X.reshape(len(X), -1)
    with np.errstate(over="ignore"):
        norms = np.sqrt(_squared_rows(X))
        out = np.flatnonzero(~((norms > _ROOT_NORMAL) & (norms < math.inf)))
        if out.size:  # frexp gives 0, inf and NaN an exponent of 0, so they stay as they are
            e = np.frexp(np.abs(X[out]).max(axis=1, initial=0.0))[1]
            norms[out] = np.ldexp(np.sqrt(_squared_rows(np.ldexp(X[out], -e[:, None]))), e)
    return norms


# Component signs of the conjugate: (a0, a1, a2, a3)^* = (a0, -a1, -a2, -a3).
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


# Block (o, d) of the real representation is _SIGN[o, d] times plane
# _PLANE[o, d]; equivalently, plane o of a b is sum_d _SIGN[o, d] a_{_PLANE[o, d]} b_d.
_PLANE = np.array([[0, 1, 2, 3],
                   [1, 0, 3, 2],
                   [2, 3, 0, 1],
                   [3, 2, 1, 0]])
_SIGN = np.array([[1.0, -1.0, -1.0, -1.0],
                  [1.0, 1.0, -1.0, 1.0],
                  [1.0, 1.0, 1.0, -1.0],
                  [1.0, -1.0, 1.0, 1.0]])


def _real_repr(planes):
    """Real representations of a (..., 4, m, n) plane array, as (..., 4m, 4n)."""
    *lead, _, m, n = planes.shape
    out = np.empty((*lead, 4, m, 4, n))
    # One gather of the planes into blocks (o, d), signed in place.
    np.multiply(planes[..., _PLANE, :, :], _SIGN[:, :, None, None],
                out=np.moveaxis(out, -2, -3))
    return out.reshape(*lead, 4 * m, 4 * n)


def plane_matmul(A, B):
    """Quaternion matrix product of plane arrays, broadcast like np.matmul.

    ``A`` has shape (..., 4, m, n) and ``B`` shape (..., 4, n, k); the
    leading axes broadcast against each other.  Returns (..., 4, m, k).
    This is one real GEMM, real_repr(A) [B0; B1; B2; B3], so only ``A``
    is expanded fourfold: keep the larger operand on the right.
    """
    *_, n, k = B.shape
    C = _real_repr(A) @ B.reshape(*B.shape[:-3], 4 * n, k)
    return C.reshape(*C.shape[:-2], 4, A.shape[-2], k)


def plane_conj_transpose(A):
    """Conjugate transpose of every matrix in a (..., 4, m, n) plane array, C-ordered.

    Transposing into a copy and then signing it in place beats one
    multiply into a C-ordered output, whose strided writes cost twice as much.
    """
    out = np.swapaxes(A, -1, -2).astype(np.float64, order="C")
    np.multiply(out, _CONJ[:, None, None], out=out)
    return out


@dataclass(frozen=True)
class Quaternion:
    """A single quaternion w0 + w1*i + w2*j + w3*k."""

    w0: float = 0.0
    w1: float = 0.0
    w2: float = 0.0
    w3: float = 0.0

    @classmethod
    def from_components(cls, c):
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (4,):
            raise ShapeError(f"expected 4 components, got shape {c.shape}")
        return cls(float(c[0]), float(c[1]), float(c[2]), float(c[3]))

    @property
    def components(self):
        return np.array([self.w0, self.w1, self.w2, self.w3])

    def conj(self):
        return Quaternion(self.w0, -self.w1, -self.w2, -self.w3)

    def __add__(self, other):
        other = _as_quaternion(other)
        return Quaternion(self.w0 + other.w0, self.w1 + other.w1,
                          self.w2 + other.w2, self.w3 + other.w3)

    def __sub__(self, other):
        other = _as_quaternion(other)
        return Quaternion(self.w0 - other.w0, self.w1 - other.w1,
                          self.w2 - other.w2, self.w3 - other.w3)

    def __neg__(self):
        return Quaternion(-self.w0, -self.w1, -self.w2, -self.w3)

    def __mul__(self, other):
        other = _as_quaternion(other)
        return Quaternion.from_components(
            _real_repr(self.components[:, None, None]) @ other.components)

    def __rmul__(self, other):
        return _as_quaternion(other) * self

    def __abs__(self):
        sq = self.w0 * self.w0 + self.w1 * self.w1 + self.w2 * self.w2 + self.w3 * self.w3
        if sys.float_info.min <= sq < math.inf:
            return math.sqrt(sq)
        return float(_row_norms(self.components[None])[0])

    def sign(self):
        """a / |a|, or zero when a is zero."""
        r = abs(self)
        if r == 0.0:
            return Quaternion()
        return Quaternion(self.w0 / r, self.w1 / r, self.w2 / r, self.w3 / r)

    def isclose(self, other, tol=1e-12):
        return abs(self - _as_quaternion(other)) <= tol


def _as_quaternion(x):
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Quaternion(float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as a quaternion")


def _l2_norm(x):
    """L2 norm of the entries of x; by _row_norms where the squares leave the normal range."""
    # Memory order, as np.linalg.norm sums, so in-range values match it bit for bit.
    x = x.ravel(order="K")
    with np.errstate(over="ignore"):
        total = x.dot(x)
    if sys.float_info.min <= total < math.inf:
        return float(np.sqrt(total))
    return float(_row_norms(x[None])[0])


class _Planes:
    """A read-only float64 (4, ...) plane array; the base of QVector and QMatrix.

    Subclasses set _NDIM, the constructor's ShapeError text _LAYOUT, and
    _MISMATCH, the format of the ShapeError for two operands of different
    shapes.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != self._NDIM or arr.shape[0] != 4:
            raise ShapeError(f"{self._LAYOUT}, got {arr.shape}")
        arr.flags.writeable = False
        self._data = arr

    @classmethod
    def zeros(cls, *shape):
        return cls(np.zeros((4, *shape)))

    @property
    def data(self):
        return self._data

    def __add__(self, other):
        self._check_same(other)
        return type(self)(self._data + other._data)

    def __sub__(self, other):
        self._check_same(other)
        return type(self)(self._data - other._data)

    def __neg__(self):
        return type(self)(-self._data)

    def __mul__(self, scalar):
        return type(self)(self._data * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return type(self)(self._data / float(scalar))

    def _norm(self):
        """Root of the summed squared moduli (Frobenius, or Euclidean for a vector)."""
        return _l2_norm(self._data)

    def allclose(self, other, tol=1e-12):
        self._check_same(other)
        return bool(np.max(np.abs(self._data - other._data), initial=0.0) <= tol)

    def _check_same(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other._data.shape != self._data.shape:
            raise ShapeError(self._MISMATCH.format(self, other))


class QVector(_Planes):
    """Quaternion column vector held as a read-only (4, n) plane array."""

    __slots__ = ()
    _NDIM = 2
    _LAYOUT = "vector planes must have shape (4, n)"
    _MISMATCH = "vector lengths differ: {0.n} vs {1.n}"

    # -- construction -------------------------------------------------

    @classmethod
    def unit(cls, n, t):
        """Coordinate vector e_t."""
        if not 0 <= t < n:
            raise InvalidParameter(f"unit index {t} out of range for length {n}")
        data = np.zeros((4, n))
        data[0, t] = 1.0
        return cls(data)

    @classmethod
    def from_entries(cls, entries):
        comps = np.stack([_as_quaternion(e).components for e in entries], axis=1)
        return cls(comps)

    @classmethod
    def from_real(cls, y):
        """Rebuild a quaternion vector from its stacked real layout [w0;w1;w2;w3]."""
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1 or y.size % 4 != 0:
            raise ShapeError(f"real layout length must be a multiple of 4, got shape {y.shape}")
        return cls(y.reshape(4, y.size // 4))

    # -- structure ----------------------------------------------------

    @property
    def n(self):
        return self._data.shape[1]

    def __len__(self):
        return self.n

    def entry(self, t):
        return Quaternion.from_components(self._data[:, t])

    def to_real(self):
        """Stacked real layout [w0; w1; w2; w3] of length 4n."""
        return self._data.reshape(-1).copy()

    # -- arithmetic ---------------------------------------------------

    def conj(self):
        return QVector(self._data * _CONJ[:, None])

    def rmul(self, q):
        """Right scalar multiplication: entries v_t * q."""
        q = _as_quaternion(q)
        return QVector(plane_matmul(self._data[:, :, None], q.components[:, None, None])[:, :, 0])

    def inner(self, other):
        """Quaternion inner product self^* other = sum conj(self_t) other_t."""
        self._check_same(other)
        row = plane_conj_transpose(self._data[:, :, None])
        return Quaternion.from_components(plane_matmul(row, other._data[:, :, None])[:, 0, 0])

    def abs(self):
        """Entrywise moduli as a real (n,) array; out of the normal range, by _row_norms."""
        with np.errstate(over="ignore"):
            sq = np.sum(self._data * self._data, axis=0)
        mods = np.sqrt(sq)
        out = ~((sys.float_info.min <= sq) & (sq < math.inf))
        if out.any():
            mods[out] = _row_norms(self._data[:, out].T)
        return mods

    def sign(self):
        """Entrywise unit quaternions; zero entries stay zero."""
        mods = self.abs()
        safe = np.where(mods > 0.0, mods, 1.0)
        return QVector(np.where(mods > 0.0, self._data / safe, 0.0))

    norm = _Planes._norm

    def __repr__(self):
        return f"QVector(n={self.n})"


def vabs(w):
    """Entrywise moduli of a quaternion vector."""
    return w.abs()


def vsign(w):
    """Entrywise sign of a quaternion vector; zero entries stay zero."""
    return w.sign()


def lp_norm(w, p):
    """Lp norm (sum |w_t|^p)^(1/p); p = +inf gives the max modulus.

    Requires p > 0.  For p >= 1 this is a norm; for 0 < p < 1 it is the
    same expression without the triangle inequality.
    """
    _check("p", p)
    return _moduli_lp_norm(w.abs(), p)


def _moduli_lp_norm(mods, p):
    """lp_norm of a vector given its entrywise moduli, for a legal p."""
    if p == math.inf:
        return float(mods.max(initial=0.0))
    # No errstate: the ascent calls this twice per step on unit-norm
    # iterates, which cannot overflow.  Moduli beyond about 1e308^(1/p)
    # still raise numpy's overflow warning, then take the rescaled value.
    total = np.add.reduce(mods ** p)
    if not sys.float_info.min <= total < math.inf:
        # The powers under- or overflowed; scale by the largest modulus.
        big = mods.max(initial=0.0)
        if 0.0 < big < math.inf:
            return float(big * ((mods / big) ** p).sum() ** (1.0 / p))
    return float(total ** (1.0 / p))


def real_scale(weights, v):
    """Entrywise scaling of a quaternion vector by a real vector.

    Scales every component plane of v by ``weights`` elementwise.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (v.n,):
        raise ShapeError(f"weights shape {weights.shape} does not match vector length {v.n}")
    return QVector(v.data * weights[None, :])


class QMatrix(_Planes):
    """Quaternion matrix held as a read-only (4, m, n) plane array."""

    __slots__ = ()
    _NDIM = 3
    _LAYOUT = "matrix planes must have shape (4, m, n)"
    _MISMATCH = "matrix shapes differ: {0.shape} vs {1.shape}"

    # -- construction -------------------------------------------------

    @classmethod
    def _view(cls, data):
        """Wrap a read-only float64 (4, m, n) array as is; ``QMatrix(data)`` copies."""
        matrix = cls.__new__(cls)
        matrix._data = data
        return matrix

    @classmethod
    def eye(cls, n):
        data = np.zeros((4, n, n))
        data[0] = np.eye(n)
        return cls(data)

    @classmethod
    def from_columns(cls, cols):
        cols = list(cols)
        if not cols:
            raise ShapeError("need at least one column")
        n = cols[0].n
        for c in cols:
            if c.n != n:
                raise ShapeError("columns have mixed lengths")
        return cls(np.stack([c.data for c in cols], axis=2))

    # -- structure ----------------------------------------------------

    @property
    def shape(self):
        return self._data.shape[1:]

    @property
    def m(self):
        return self._data.shape[1]

    @property
    def n(self):
        return self._data.shape[2]

    def entry(self, i, j):
        return Quaternion.from_components(self._data[:, i, j])

    def col(self, j):
        return QVector(self._data[:, :, j])

    def columns(self):
        return [self.col(j) for j in range(self.n)]

    def take_cols(self, k):
        if not (_is_count(k) and k <= self.n):
            raise InvalidParameter(f"cannot take {k} columns from an {self.m}x{self.n} matrix")
        return QMatrix(self._data[:, :, :k])

    # -- arithmetic ---------------------------------------------------

    @property
    def H(self):
        return QMatrix(plane_conj_transpose(self._data))

    def __matmul__(self, other):
        if isinstance(other, QVector):
            if other.n != self.n:
                raise ShapeError(f"matvec shapes do not match: {self.m}x{self.n} times length {other.n}")
            return QVector(plane_matmul(self._data, other.data[:, :, None])[:, :, 0])
        if not isinstance(other, QMatrix):
            raise TypeError(f"expected QMatrix, got {type(other).__name__}")
        if other.m != self.n:
            raise ShapeError(f"matmul shapes do not match: {self.m}x{self.n} times {other.m}x{other.n}")
        return QMatrix(plane_matmul(self._data, other._data))

    def scale_columns(self, weights):
        """Right multiplication by a real diagonal matrix."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.n,):
            raise ShapeError(f"weights shape {weights.shape} does not match column count {self.n}")
        return QMatrix(self._data * weights[None, None, :])

    fro_norm = _Planes._norm

    def real_repr(self):
        """The 4m x 4n real structure-preserving representation."""
        return _real_repr(self._data)

    def __repr__(self):
        return f"QMatrix(shape={self.m}x{self.n})"


def real_repr(F):
    """Real structure-preserving representation of a matrix or vector."""
    if isinstance(F, QMatrix):
        return F.real_repr()
    if isinstance(F, QVector):
        return F.to_real()
    raise TypeError(f"expected QMatrix or QVector, got {type(F).__name__}")
