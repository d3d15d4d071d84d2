"""Quaternion scalars, vectors and matrices stored as four real planes.

A quaternion is a = a0 + a1*i + a2*j + a3*k with i^2 = j^2 = k^2 = ijk = -1.
Vectors and matrices keep the four real component planes in one float64
array (structure of arrays), so all heavy arithmetic reduces to plain real
array operations.  Values are immutable after construction.

The real structure-preserving representation maps an m x n quaternion
matrix F to the 4m x 4n real block matrix

    [ F0 -F1 -F2 -F3 ]
    [ F1  F0 -F3  F2 ]
    [ F2  F3  F0 -F1 ]
    [ F3 -F2  F1  F0 ]

and a length-n vector w to the stacked real vector [w0; w1; w2; w3].
Quaternion products agree with real products of these representations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, ShapeError

__all__ = [
    "Quaternion",
    "QVector",
    "QMatrix",
    "qmul",
    "vabs",
    "vsign",
    "lp_norm",
    "real_scale",
    "real_repr",
    "hamilton_planes",
    "plane_matmul",
    "plane_conj_transpose",
]


def hamilton_planes(a, b, mul):
    """Combine two 4-tuples of real operands with the Hamilton sign pattern.

    ``mul`` multiplies one pair of real operands (scalars, arrays, or any
    bilinear contraction such as a matrix product).  Returns the four
    component planes of the quaternion product.  This is the single place
    where the multiplication table lives.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        mul(a0, b0) - mul(a1, b1) - mul(a2, b2) - mul(a3, b3),
        mul(a0, b1) + mul(a1, b0) + mul(a2, b3) - mul(a3, b2),
        mul(a0, b2) - mul(a1, b3) + mul(a2, b0) + mul(a3, b1),
        mul(a0, b3) + mul(a1, b2) - mul(a2, b1) + mul(a3, b0),
    )


def plane_matmul(A, B):
    """Quaternion matrix product of plane arrays, broadcast like np.matmul.

    ``A`` has shape (..., 4, m, n) and ``B`` shape (..., 4, n, k); the
    leading axes broadcast against each other.  Returns (..., 4, m, k).
    """
    a = tuple(A[..., c, :, :] for c in range(4))
    b = tuple(B[..., c, :, :] for c in range(4))
    return np.stack(hamilton_planes(a, b, np.matmul), axis=-3)


def plane_conj_transpose(A):
    """Conjugate transpose of every matrix in a (..., 4, m, n) plane array."""
    return np.swapaxes(A, -1, -2) * np.array([1.0, -1.0, -1.0, -1.0])[:, None, None]


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
        planes = hamilton_planes(
            (self.w0, self.w1, self.w2, self.w3),
            (other.w0, other.w1, other.w2, other.w3),
            lambda x, y: x * y,
        )
        return Quaternion(*planes)

    def __rmul__(self, other):
        return _as_quaternion(other) * self

    def __abs__(self):
        sq = self.w0 * self.w0 + self.w1 * self.w1 + self.w2 * self.w2 + self.w3 * self.w3
        if sys.float_info.min <= sq < math.inf:
            return math.sqrt(sq)
        # The squares under- or overflowed; hypot scales them away.
        return math.hypot(self.w0, self.w1, self.w2, self.w3)

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


def qmul(a, b):
    """Hamilton product of two quaternions."""
    return _as_quaternion(a) * _as_quaternion(b)


class QVector:
    """Quaternion column vector held as a read-only (4, n) plane array."""

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != 4:
            raise ShapeError(f"vector planes must have shape (4, n), got {arr.shape}")
        arr.flags.writeable = False
        self._data = arr

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros((4, n)))

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
    def data(self):
        return self._data

    @property
    def n(self):
        return self._data.shape[1]

    def __len__(self):
        return self.n

    @property
    def planes(self):
        return tuple(self._data[c] for c in range(4))

    def entry(self, t):
        return Quaternion.from_components(self._data[:, t])

    def to_real(self):
        """Stacked real layout [w0; w1; w2; w3] of length 4n."""
        return self._data.reshape(-1).copy()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_same(other)
        return QVector(self._data + other._data)

    def __sub__(self, other):
        self._check_same(other)
        return QVector(self._data - other._data)

    def __neg__(self):
        return QVector(-self._data)

    def __mul__(self, scalar):
        return QVector(self._data * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return QVector(self._data / float(scalar))

    def conj(self):
        return QVector(self._data * np.array([1.0, -1.0, -1.0, -1.0])[:, None])

    def rmul(self, q):
        """Right scalar multiplication: entries v_t * q."""
        q = _as_quaternion(q)
        planes = hamilton_planes(self.planes, (q.w0, q.w1, q.w2, q.w3),
                                 lambda x, y: x * y)
        return QVector(np.stack(planes))

    def inner(self, other):
        """Quaternion inner product self^* other = sum conj(self_t) other_t."""
        self._check_same(other)
        a = (self._data[0], -self._data[1], -self._data[2], -self._data[3])
        planes = hamilton_planes(a, other.planes, np.dot)
        return Quaternion(*(float(p) for p in planes))

    def abs(self):
        """Entrywise moduli as a real (n,) array, with the rule of ``abs(Quaternion)``."""
        with np.errstate(over="ignore"):
            sq = np.sum(self._data * self._data, axis=0)
        mods = np.sqrt(sq)
        # Where the squares under- or overflowed, hypot scales them away.
        out = ~((sys.float_info.min <= sq) & (sq < math.inf))
        if out.any():
            a0, a1, a2, a3 = self._data[:, out]
            mods[out] = np.hypot(np.hypot(a0, a1), np.hypot(a2, a3))
        return mods

    def sign(self):
        """Entrywise unit quaternions; zero entries stay zero."""
        mods = self.abs()
        safe = np.where(mods > 0.0, mods, 1.0)
        return QVector(np.where(mods > 0.0, self._data / safe, 0.0))

    def norm(self):
        """Euclidean (L2) norm."""
        x = self._data.ravel()
        with np.errstate(over="ignore"):
            total = x.dot(x)
        if not sys.float_info.min <= total < math.inf:
            # The squares under- or overflowed; scale by the largest modulus.
            big = self.abs().max(initial=0.0)
            if 0.0 < big < math.inf:
                y = x / big
                return float(big * np.sqrt(y.dot(y)))
        return float(np.sqrt(total))

    def lp_norm(self, p):
        return lp_norm(self, p)

    def allclose(self, other, tol=1e-12):
        self._check_same(other)
        return bool(np.max(np.abs(self._data - other._data), initial=0.0) <= tol)

    def _check_same(self, other):
        if not isinstance(other, QVector):
            raise TypeError(f"expected QVector, got {type(other).__name__}")
        if other.n != self.n:
            raise ShapeError(f"vector lengths differ: {self.n} vs {other.n}")

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
    return _moduli_lp_norm(w.abs(), p)


def _moduli_lp_norm(mods, p):
    """lp_norm of a vector given its entrywise moduli."""
    if p == math.inf:
        return float(mods.max(initial=0.0))
    if not p > 0:
        raise InvalidParameter(f"lp_norm requires p > 0 or p = +inf, got {p}")
    # No errstate: the ascent calls this twice per step on unit-norm
    # iterates, which cannot overflow.  Moduli beyond about 1e308^(1/p)
    # still raise numpy's overflow warning, then take the rescaled value.
    total = (mods ** p).sum()
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


class QMatrix:
    """Quaternion matrix held as a read-only (4, m, n) plane array."""

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != 4:
            raise ShapeError(f"matrix planes must have shape (4, m, n), got {arr.shape}")
        arr.flags.writeable = False
        self._data = arr

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, m, n):
        return cls(np.zeros((4, m, n)))

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
    def data(self):
        return self._data

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
        if not 0 < k <= self.n:
            raise InvalidParameter(f"cannot take {k} columns from an {self.m}x{self.n} matrix")
        return QMatrix(self._data[:, :, :k])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_same(other)
        return QMatrix(self._data + other._data)

    def __sub__(self, other):
        self._check_same(other)
        return QMatrix(self._data - other._data)

    def __neg__(self):
        return QMatrix(-self._data)

    def __mul__(self, scalar):
        return QMatrix(self._data * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return QMatrix(self._data / float(scalar))

    def conj_transpose(self):
        return QMatrix(plane_conj_transpose(self._data))

    @property
    def H(self):
        return self.conj_transpose()

    def matvec(self, w):
        if not isinstance(w, QVector):
            raise TypeError(f"expected QVector, got {type(w).__name__}")
        if w.n != self.n:
            raise ShapeError(f"matvec shapes do not match: {self.m}x{self.n} times length {w.n}")
        return QVector(plane_matmul(self._data, w.data[:, :, None])[:, :, 0])

    def matmul(self, other):
        if not isinstance(other, QMatrix):
            raise TypeError(f"expected QMatrix, got {type(other).__name__}")
        if other.m != self.n:
            raise ShapeError(f"matmul shapes do not match: {self.m}x{self.n} times {other.m}x{other.n}")
        return QMatrix(plane_matmul(self._data, other._data))

    def __matmul__(self, other):
        if isinstance(other, QVector):
            return self.matvec(other)
        return self.matmul(other)

    def scale_columns(self, weights):
        """Right multiplication by a real diagonal matrix."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.n,):
            raise ShapeError(f"weights shape {weights.shape} does not match column count {self.n}")
        return QMatrix(self._data * weights[None, None, :])

    def fro_norm(self):
        """Frobenius norm: root of the summed squared moduli."""
        return float(np.linalg.norm(self._data))

    def real_repr(self):
        """The 4m x 4n real structure-preserving representation."""
        q0, q1, q2, q3 = self._data
        return np.block([
            [q0, -q1, -q2, -q3],
            [q1, q0, -q3, q2],
            [q2, q3, q0, -q1],
            [q3, -q2, q1, q0],
        ])

    def allclose(self, other, tol=1e-12):
        self._check_same(other)
        return bool(np.max(np.abs(self._data - other._data), initial=0.0) <= tol)

    def _check_same(self, other):
        if not isinstance(other, QMatrix):
            raise TypeError(f"expected QMatrix, got {type(other).__name__}")
        if other.shape != self.shape:
            raise ShapeError(f"matrix shapes differ: {self.shape} vs {other.shape}")

    def __repr__(self):
        return f"QMatrix(shape={self.m}x{self.n})"


def real_repr(F):
    """Real structure-preserving representation of a matrix or vector."""
    if isinstance(F, QMatrix):
        return F.real_repr()
    if isinstance(F, QVector):
        return F.to_real()
    raise TypeError(f"expected QMatrix or QVector, got {type(F).__name__}")
