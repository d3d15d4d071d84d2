"""Projection-basis fitting: an exact eigensolve at s = p = 2, else Lp-sphere ascent.

At s = p = 2 the model is two-dimensional quaternion PCA: the fixed
point of the ascent with deflation is the top-k eigenbasis of each side's
Gram matrix, so :func:`fit` takes it directly from one Hermitian
eigensolve per side (``hermitian_topk_eig`` on the real representation),
with no iterations; ``tol`` and ``max_iter`` do not apply there.
:func:`covariance_baseline` runs the same eigen path on the Gram matrix
divided by the sample count.

For every other (s, p), each projection direction maximizes
f(w) = sum_i ||F_i w||_s^s over the unit Lp sphere through a
minorize-maximize iteration from the all-ones pure-real vector scaled to
unit Lp norm: linearize f at the current iterate, then apply the
closed-form maximizer of the linear form over the sphere (four regimes:
0 < p < 1, p = 1, 1 < p < inf, p = inf).  Accepted directions
are orthonormalized and the problem is deflated, T <- T (I - WW^*), so
that later directions explore the remaining subspace only.  Left
directions solve the mirrored problem max sum_i ||u^* F_i||_s^s, which
is the same computation on conjugate-transposed samples.

The samples of one side form one tall matrix T = [F_1; ...; F_l], so
f(w) = ||T w||_s^s.  Only its conjugate transpose H = T^* is ever built.
Both objectives drop the planes of H that are zero everywhere (the real
plane of colour images) by one rule, _live_planes.  The Gram matrix
G = T^* T (n x n on the right, sum_i F_i F_i^* on the left) is one real
GEMM of the stacked live planes of H with their transpose, 9 of the 16
block products for colour images.  s = 2 ascents run on G alone, kept
only as its 4n x 4n real representation R: y = G w is one real
matrix-vector product and gives both the objective <w, y> and the next
ascent vector, so the per-iteration cost no longer grows with the sample
count.  Other s keep H alone, as the (k n, L) real matrix of its k live
planes, and compute P = T w once per iterate, then take the objective
and the ascent vector T^* (|P|^(s-2) (.) P) from it.  Each of the two
products is one 2-D GEMM: the Hamilton table of ``quaternion``, as
4 x 16 real coefficients, is folded into the iterate before the first
and applied to the 4 x (k n) result of the second, so nothing is mixed
over the L columns.  Both paths deflate through the real representation
Rp of I - WW^*: G <- (I - WW^*) G (I - WW^*) is R <- Rp R Rp, while H
is never rewritten.  The projectors are nested, so the latest one covers
every earlier one, and T (I - WW^*) has the objective f(Rp w) and the
ascent vector Rp y(Rp w): two 4n x 4n real matrix-vector products per
evaluation.  A step that lowers the objective (possible for 0 < p < 1)
is rejected and ends the direction on the previous iterate.
:func:`mm_update` takes one step of this ascent for any (s, p), s = p = 2
included.

Data whose largest magnitude would overflow or underflow the sums of
powers above are rejected up front (see ``_require_scale``).  Inside that
range a power-of-two rescaling of the data changes neither the steps
nor the bases of the ascent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .errors import (DegenerateDirection, InvalidDataset, InvalidParameter, ShapeError, _check,
                     _violation)
from .qlinalg import hermitian_topk_eig, mgs_orthonormalize
from .quaternion import (_CONJ, QMatrix, QVector, _moduli_lp_norm, _real_repr, lp_norm,
                         plane_conj_transpose, plane_matmul)

__all__ = [
    "FitParams",
    "DirectionTrace",
    "FitReport",
    "BasisPair",
    "objective",
    "lp_update",
    "mm_update",
    "fit",
    "covariance_baseline",
    "deflated_residuals",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 500

# The smallest positive double: it guards the relative-change denominator
# when the objective is zero and gives a zero modulus a finite weight.
_TINY = math.ulp(0.0)
# Moduli from this one up have normal squares.
_ROOT_NORMAL = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class FitParams:
    """Hyperparameters of one fit.

    ``s`` is the deviation exponent (s >= 1, finite); ``p`` the sphere
    exponent (p > 0 or math.inf); ``k1``/``k2`` the number of left/right
    directions.  ``tol`` and ``max_iter`` steer the ascent only: an
    s = p = 2 fit is an exact eigensolve and reads neither (they are
    still validated).
    """

    s: float
    p: float
    k1: int
    k2: int
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        # A numpy float passes the rules; the fit computes with its Python
        # value, so float32 arithmetic never enters the exponents.
        for name in ("s", "p", "tol"):
            if isinstance(getattr(self, name), np.floating):
                object.__setattr__(self, name, float(getattr(self, name)))

    def violations(self, m=None, n=None):
        """Collect conflicts with the legal ranges; empty when valid."""
        problems = [_violation(name, getattr(self, name)) for name in ("s", "p", "k1", "k2")]
        if m is not None and isinstance(self.k1, Integral) and self.k1 > m:
            problems.append(f"k1 must not exceed the image row count ({self.k1} > {m})")
        if n is not None and isinstance(self.k2, Integral) and self.k2 > n:
            problems.append(f"k2 must not exceed the image column count ({self.k2} > {n})")
        problems += [_violation(name, getattr(self, name)) for name in ("tol", "max_iter")]
        return [problem for problem in problems if problem]

    def validate(self, m=None, n=None):
        problems = self.violations(m, n)
        if problems:
            raise InvalidParameter("; ".join(problems))


@dataclass
class DirectionTrace:
    """Per-direction diagnostics of the fit.

    ``iterations`` counts the MM steps taken; the histories hold the
    accepted iterates only, so a final step that lowered the objective
    is counted but not recorded.  ``stop_reason`` names the rule that
    ended the ascent, "tolerance", "iteration cap" or "rejected step", or
    is "eigensolve" for an s = p = 2 direction, which comes from the
    eigendecomposition with 0 iterations and one-entry histories.
    ``converged`` means the tolerance rule ended the ascent, or that the
    direction is an exact eigenvector.
    """

    side: str
    index: int
    objective_history: list[float]
    pnorm_history: list[float]
    iterations: int
    converged: bool
    final_objective: float
    stop_reason: str


@dataclass
class FitReport:
    right: list[DirectionTrace] = field(default_factory=list)
    left: list[DirectionTrace] = field(default_factory=list)

    def all_traces(self):
        return list(self.right) + list(self.left)


@dataclass
class BasisPair:
    """Fitted projection bases with their objective values and mean.

    U has orthonormal columns u_1..u_k1 (length m), V has orthonormal
    columns v_1..v_k2 (length n).  d_left[t] and d_right[t] hold the
    post-orthogonalization objective of direction t, which equals that
    direction's marginal contribution on the undeflated samples because
    deflation removes previously spanned components only.
    """

    U: QMatrix
    V: QMatrix
    d_left: np.ndarray
    d_right: np.ndarray
    params: FitParams
    mean: QMatrix
    report: FitReport | None = None

    def __post_init__(self):
        self.d_left = np.asarray(self.d_left, dtype=np.float64)
        self.d_right = np.asarray(self.d_right, dtype=np.float64)
        if self.d_left.shape != (self.U.n,):
            raise ShapeError(f"d_left length {self.d_left.shape} does not match U columns {self.U.n}")
        if self.d_right.shape != (self.V.n,):
            raise ShapeError(f"d_right length {self.d_right.shape} does not match V columns {self.V.n}")
        if self.mean.shape != (self.U.m, self.V.m):
            raise ShapeError(
                f"mean shape {self.mean.shape} does not match bases {self.U.m}x{self.V.m}")

    @property
    def m(self):
        return self.U.m

    @property
    def n(self):
        return self.V.m

    @property
    def k1(self):
        return self.U.n

    @property
    def k2(self):
        return self.V.n

    def truncated(self, k1, k2):
        """Restrict to the leading directions; prefixes are nested by construction."""
        if not (1 <= k1 <= self.k1 and 1 <= k2 <= self.k2):
            raise InvalidParameter(
                f"truncation ({k1}, {k2}) exceeds fitted sizes ({self.k1}, {self.k2})")
        return BasisPair(
            U=self.U.take_cols(k1),
            V=self.V.take_cols(k2),
            d_left=self.d_left[:k1].copy(),
            d_right=self.d_right[:k2].copy(),
            params=replace(self.params, k1=k1, k2=k2),
            mean=self.mean,
        )


# -- stacked-plane helpers --------------------------------------------


def _require_finite(S, samples=None):
    """Raise InvalidDataset when an image of the (l, 4, m, n) stack S holds NaN or inf.

    The error names the first offending sample, by its source or label
    when ``samples`` (the stack's Sample records) is given.  Returns the
    largest magnitude of an entry, from the same pass: a sample's largest
    magnitude is NaN or inf exactly when the sample holds one.
    """
    flat = S.reshape(len(S), -1)
    peaks = np.maximum(flat.max(axis=1, initial=0.0), -flat.min(axis=1, initial=0.0))
    bad = np.flatnonzero(~np.isfinite(peaks))
    if bad.size:
        i = int(bad[0])
        name = f" ({samples[i].source or f'label {samples[i].label!r}'})" if samples else ""
        raise InvalidDataset(f"sample {i}{name} holds a non-finite value (NaN or inf)")
    return float(peaks.max(initial=0.0))


def _require_scale(S, peak, s):
    """Raise InvalidDataset when entries of magnitude ``peak`` put a fit at exponent s out of range.

    A fit sums t-th powers of the entries of the (l, 4, m, n) stack S,
    t = max(s, 2): squared moduli, Gram entries and the objective
    sum_i |P_i|^s.  A modulus of T w is at most 2 w peak, w = max(m, n),
    over at most l w rows, so every such sum stays finite below the
    upper bound, and the t-th power of the largest entry is a normal
    double above the lower one.
    """
    l, _, m, n = S.shape
    t, width = max(s, 2.0), max(m, n)
    lo = sys.float_info.min ** (1.0 / t)
    hi = (sys.float_info.max / (l * width)) ** (1.0 / t) / (2 * width)
    if peak and not lo <= peak <= hi:
        raise InvalidDataset(
            f"the largest magnitude of a sample entry is {peak:.3g}, outside the safe range "
            f"[{lo:.3g}, {hi:.3g}] of a fit at s = {s} on {l} samples of {m} x {n}; "
            f"rescale the data")


def _sample_stack(samples):
    """(stack, peak): the samples as one (l, 4, m, n) array, and its largest magnitude.

    Accepts a SampleSet or QMatrix list.  Raises InvalidDataset, naming
    the first offending sample, when any entry is NaN or infinite.
    """
    items = getattr(samples, "samples", None)
    mats = list(samples) if items is None else [s.image for s in items]
    if not mats:
        raise InvalidDataset("need at least one sample")
    for f in mats:
        if not isinstance(f, QMatrix):
            raise TypeError(f"expected QMatrix samples, got {type(f).__name__}")
        if f.shape != mats[0].shape:
            raise ShapeError(f"samples have mixed shapes: {mats[0].shape} vs {f.shape}")
    S = np.stack([f.data for f in mats])
    return S, _require_finite(S, items)


def _wide(S, side="right"):
    """H = T^* as one C-contiguous (4, n, L) array.

    T is the tall matrix [F_1; ...; F_l] of the right side, or
    [F_1^*; ...; F_l^*] of the left side, so H is [F_1^*, ..., F_l^*] or
    [F_1, ..., F_l].
    """
    l, _, m, n = S.shape
    if side == "left":
        return np.ascontiguousarray(S.transpose(1, 2, 0, 3).reshape(4, m, l * n))
    # Plane c of F_i^* is the sign of plane c times its transpose; one
    # strided pass writes all of them into place.
    H = np.empty((4, n, l, m))
    np.multiply(S.transpose(1, 3, 0, 2), _CONJ[:, None, None, None], out=H)
    return H.reshape(4, n, l * m)


def _live_planes(H):
    """(view, indices) of the planes of H from its first to its last live one.

    A plane is live when it is not zero everywhere; at least one plane is
    kept.  Colour images have a zero real plane, so their stacks keep
    three.  A zero plane between live ones stays, which costs products
    but no accuracy.
    """
    live = [c for c in range(4) if H[c].any()] or [0]
    return H[live[0]:live[-1] + 1], list(range(live[0], live[-1] + 1))


def _gram(H):
    """Quaternion Gram matrix T^* T = H H^* as a (4, n, n) plane array.

    One real GEMM of the stacked live planes Hf = [H_c; ...] (see
    _live_planes) with its own transpose gives every block H_c H_d^T, and
    the matching columns of _HAMILTON_CONJ_B combine them; a dropped
    plane only ever contributed zero blocks.
    """
    Hk, keep = _live_planes(H)
    k, n = len(keep), H.shape[1]
    Hf = Hk.reshape(k * n, -1)
    blocks = (Hf @ Hf.T).reshape(k, n, k, n).transpose(0, 2, 1, 3).reshape(k * k, -1)
    cols = [4 * c + d for c in keep for d in keep]
    return (_HAMILTON_CONJ_B[:, cols] @ blocks).reshape(4, n, n)


def _projector(W):
    """Planes of I - W W^* for a QMatrix W with orthonormal columns (W W^* is _gram(W))."""
    P = -_gram(W.data)
    P[0] += np.eye(W.m)
    return P


# The Hamilton table as (4, 16) real coefficients, read off the real
# representations of the units e_c: plane o of a b is sum_{c,d}
# _HAMILTON[o, 4c + d] a_c b_d, and conjugating a (b) signs the c (d) axis.
_TABLE = _real_repr(np.eye(4)[:, :, None, None]).transpose(1, 0, 2)
_HAMILTON = _TABLE.reshape(4, 16)
_HAMILTON_CONJ_A = (_TABLE * _CONJ[:, None]).reshape(4, 16)
_HAMILTON_CONJ_B = (_TABLE * _CONJ).reshape(4, 16)


class _GramObjective:
    """s = 2: f(w) = <w, G w>, ascent vector G w; evaluate(w) returns both.

    Only the 4n x 4n real representation R of G is kept, so one step is
    the single real matrix-vector product R [w0; w1; w2; w3].
    """

    def __init__(self, H):
        self.R = _real_repr(_gram(H))

    def evaluate(self, w):
        wr = w.reshape(-1)
        y = self.R @ wr
        return float(wr @ y), y.reshape(w.shape)

    def deflate(self, P):
        # G <- P G P, as real GEMMs with the real representation of P.
        Rp = _real_repr(P)
        self.R = Rp @ self.R @ Rp


class _StackObjective:
    """General s: f(w) = ||T w||_s^s, ascent vector T^* (|P|^(s-2) (.) P).

    Only H = T^* is stored, as its k live planes (see _live_planes;
    colour images have a zero real plane, so k = 3), flattened to the
    (k n, L) real matrix Hf.  The Hamilton table is folded into the small
    operands, so each pass over the stack is one 2-D GEMM:

    * P = H^* w is W Hf, where W (4, k n) folds _HAMILTON_CONJ_A into w;
    * T^* Q = H Q is the table applied to B = Q Hf^T (4, k n), with the
      columns of _HAMILTON permuted once to B's (plane of Q, plane of H)
      order, on n columns only.

    The weights |P|^(s-2) and the objective come from the squared
    moduli alone.  H never changes.  Deflation keeps only Rp, the real
    representation of the latest projector I - WW^*, which covers every
    earlier one because the projectors are nested: the deflated stack
    has f(Rp w) and the ascent vector Rp y(Rp w), two 4n x 4n
    matrix-vector products.
    """

    def __init__(self, H, s):
        Hk, keep = _live_planes(H)
        k, n = len(keep), H.shape[1]
        cols = [4 * c + d for c in keep for d in range(4)]
        self.H, self.power, self.Rp = Hk, (s - 2.0) / 2.0, None
        self.Hf = Hk.reshape(k * n, -1)
        # fold[o, c, d] multiplies w_d H_c into plane o of P; table[o, k e + c]
        # takes plane c of H against plane e of Q.
        self.fold = _HAMILTON_CONJ_A[:, cols].reshape(4, k, 4)
        self.table = _HAMILTON[:, cols].reshape(4, k, 4).transpose(0, 2, 1).reshape(4, 4 * k)

    def evaluate(self, w):
        if self.Rp is not None:
            w = (self.Rp @ w.reshape(-1)).reshape(w.shape)
        P = (self.fold @ w).reshape(4, -1) @ self.Hf
        sq = np.einsum("ij,ij->j", P, P)
        # Zero guard: a zero modulus (P_i = 0) gets the finite weight of the
        # smallest positive double, so it adds 0 to f and to the product.
        fac = np.power(np.maximum(sq, _TINY), self.power)
        # einsum, not a BLAS dot, whose sum depends on the thread count
        f = float(np.einsum("i,i->", fac, sq))
        P *= fac
        y = self.table @ (P @ self.Hf.T).reshape(-1, w.shape[1])
        if self.Rp is not None:
            y = (self.Rp @ y.reshape(-1)).reshape(y.shape)
        return f, y

    def deflate(self, P):
        self.Rp = _real_repr(P)


def _objective_for(H, s):
    return _GramObjective(H) if s == 2 else _StackObjective(H, s)


# -- public operations ------------------------------------------------


def objective(samples, w, s=2.0):
    """f(w) = sum_i ||F_i w||_s^s.

    The left objective sum_i ||u^* F_i||_s^s is this one on the
    conjugate-transposed samples: ``objective([F.H for F in images], u, s)``.
    """
    return _ascent_terms(samples, w, s)[0]


def _ascent_terms(samples, w, s):
    """(f(w), ascent vector) on the samples as given, for any s."""
    _check("s", s)
    S, peak = _sample_stack(samples)
    _require_scale(S, peak, s)
    H = _wide(S)
    if w.n != H.shape[1]:
        raise ShapeError(f"vector length {w.n} does not match sample width {H.shape[1]}")
    return _StackObjective(H, s).evaluate(w.data)


def lp_update(y, p, current=None):
    """Closed-form sphere step for the linearized objective.

    Given the ascent vector y, returns the next iterate on the unit Lp
    sphere:

    * 0 < p < 1:  y <- |current|^(1-p) (.) y, then Lp-normalize;
    * p = 1:      all mass on the entry of largest |y_t| (smallest index
                  on ties), with that entry's sign;
    * 1 < p < inf: y <- |y|^(q-1) (.) sign(y) with q = p/(p-1), then
                  Lp-normalize;
    * p = inf:    entrywise sign of y.

    Raises DegenerateDirection when y (or the reweighted vector) is zero.
    """
    _check("p", p)
    if current is not None and current.n != y.n:
        raise ShapeError(f"iterate length {current.n} does not match ascent vector length {y.n}")
    return QVector(_sphere_step(y.data, p, None if current is None else current.abs())[0])


def _sphere_step(y, p, cur_mods):
    """:func:`lp_update` on (4, n) planes; returns (next iterate, its moduli).

    ``cur_mods`` are the moduli of the current iterate; only 0 < p < 1
    reads them.  Every other modulus here is derived from the one modulus
    array of y.
    """
    with np.errstate(over="ignore"):
        mods = np.sqrt(np.add.reduce(y * y))
    top = float(mods.max(initial=0.0))
    if not _ROOT_NORMAL <= top < math.inf:
        # The squares left the normal range.  The step is invariant to a
        # positive rescaling of y, so bring its largest entry into
        # [0.5, 1) by an exact power of two.
        big = float(np.abs(y).max(initial=0.0))
        if 0.0 < big < math.inf:
            y = np.ldexp(y, -math.frexp(big)[1])
            mods = np.sqrt(np.add.reduce(y * y))
            top = float(mods.max())
    if top <= 0.0:
        raise DegenerateDirection("ascent vector is zero")
    if p == math.inf:
        nonzero = mods > 0.0
        return np.where(nonzero, y / np.where(nonzero, mods, 1.0), 0.0), nonzero.astype(float)
    if p == 1:
        j = int(np.argmax(mods))
        w, w_mods = np.zeros_like(y), np.zeros_like(mods)
        w[:, j] = y[:, j] / mods[j]
        w_mods[j] = 1.0
        return w, w_mods

    # The final normalization cancels any positive rescaling of y, so
    # divide by the top modulus first to keep the power maps in range.
    if p < 1:
        if cur_mods is None:
            raise InvalidParameter("the 0 < p < 1 update needs the current iterate")
        scale = cur_mods ** (1.0 - p) / top
    else:
        q = p / (p - 1.0)
        az = mods / top
        scale = np.power(az, q - 2.0, out=np.zeros_like(az), where=az > 0.0) / top
    z_mods = mods * scale
    nz = _moduli_lp_norm(z_mods, p)
    if nz <= 0.0:
        raise DegenerateDirection("reweighted ascent vector is zero")
    return y * (scale / nz), z_mods / nz


def mm_update(w, samples, s, p):
    """One ascent step from iterate w."""
    y = QVector(_ascent_terms(samples, w, s)[1])
    return lp_update(y, p, current=w)


def _initial_iterate(n, p):
    data = np.zeros((4, n))
    data[0] = 1.0
    w = QVector(data)
    return w / lp_norm(w, p)


def _ascend(obj, w0, params, orthogonal_to, side, index):
    """Run the ascent loop from w0 on one side's objective; returns (v, f, trace)."""
    p = params.p
    w, w_mods = w0.data, w0.abs()
    f, y = obj.evaluate(w)
    f_hist = [f]
    pnorm_hist = [_moduli_lp_norm(w_mods, p)]
    reason = "iteration cap"
    for iterations in range(1, params.max_iter + 1):
        w_new, mods_new = _sphere_step(y, p, w_mods)
        f_new, y_new = obj.evaluate(w_new)
        delta = abs(f_new - f) / (abs(f) + _TINY)
        # A step that lowers the objective is never taken: the direction
        # ends on the previous iterate, by the tolerance rule when the
        # drop lies within it.
        lowered = f_new < f
        if not lowered:
            w, w_mods, f, y = w_new, mods_new, f_new, y_new
            f_hist.append(f)
            pnorm_hist.append(_moduli_lp_norm(w_mods, p))
        if delta <= params.tol:
            reason = "tolerance"
            break
        if lowered:
            reason = "rejected step"
            break
    v = mgs_orthonormalize(QVector(w), orthogonal_to)
    f_dir = obj.evaluate(v.data)[0]
    trace = DirectionTrace(
        side=side,
        index=index,
        objective_history=f_hist,
        pnorm_history=pnorm_hist,
        iterations=iterations,
        converged=reason == "tolerance",
        final_objective=f_dir,
        stop_reason=reason,
    )
    return v, f_dir, trace


def _fit_side(obj, n, count, params, side):
    vectors, values, traces = [], [], []
    w0 = _initial_iterate(n, params.p)
    for t in range(count):
        try:
            v, f, trace = _ascend(obj, w0, params, vectors, side, t)
        except DegenerateDirection as exc:
            raise DegenerateDirection(
                f"{side} direction {t}: {exc}", index=t) from exc
        vectors.append(v)
        values.append(f)
        traces.append(trace)
        if t + 1 < count:
            obj.deflate(_projector(QMatrix.from_columns(vectors)))
    return QMatrix.from_columns(vectors), np.array(values), traces


def _eigenbasis(G, k):
    """Top-k eigenvalues (descending) and orthonormal eigenvectors of Gram planes G."""
    pairs = hermitian_topk_eig(QMatrix(G), k)
    return np.array([lam for lam, _ in pairs]), QMatrix.from_columns([v for _, v in pairs])


def _eigen_side(S, count, side):
    """s = p = 2: one side's basis as the top eigenvectors of its Gram matrix.

    The eigenvalue of the unscaled G is the objective w^* G w, the value
    the ascent stores.  An eigenvalue within round-off of zero (relative
    to the largest) means the data span fewer than ``count`` directions.
    """
    d, W = _eigenbasis(_gram(_wide(S, side)), count)
    floor = 4 * W.m * np.finfo(float).eps * max(d[0], 0.0)
    for t, f in enumerate(d):
        if not f > floor:
            raise DegenerateDirection(
                f"{side} direction {t}: Gram eigenvalue {f:.3e} is not positive "
                f"beyond round-off ({floor:.1e}); the data span fewer directions",
                index=t)
    norms = np.sqrt((W.data * W.data).sum(axis=(0, 1)))
    traces = [DirectionTrace(side=side, index=t, objective_history=[float(f)],
                             pnorm_history=[float(r)], iterations=0, converged=True,
                             final_objective=float(f), stop_reason="eigensolve")
              for t, (f, r) in enumerate(zip(d, norms))]
    return W, d, traces


def fit(samples, params):
    """Fit both projection bases on a centered sample set.

    Right directions come first, then left directions on the
    conjugate-transposed samples; the two passes are independent.  At
    s = p = 2 each side is one eigensolve of its Gram matrix, and raises
    DegenerateDirection (with the direction's index) when the data span
    fewer directions than requested; other (s, p) run the ascent.
    Returns a :class:`BasisPair` carrying the training mean and a
    per-direction :class:`FitReport`.  Raises InvalidDataset when a
    sample holds a NaN or infinite entry.
    """
    if not getattr(samples, "centered", False):
        raise InvalidDataset("fit requires a centered sample set; call center() first")
    S, peak = _sample_stack(samples)
    m, n = S.shape[2:]
    params.validate(m, n)
    _require_scale(S, peak, params.s)
    if params.s == 2 and params.p == 2:
        V, d_right, right_traces = _eigen_side(S, params.k2, "right")
        U, d_left, left_traces = _eigen_side(S, params.k1, "left")
    else:
        V, d_right, right_traces = _fit_side(_objective_for(_wide(S), params.s), n,
                                             params.k2, params, "right")
        U, d_left, left_traces = _fit_side(_objective_for(_wide(S, "left"), params.s), m,
                                           params.k1, params, "left")

    report = FitReport(right=right_traces, left=left_traces)
    return BasisPair(U=U, V=V, d_left=d_left, d_right=d_right,
                     params=params, mean=samples.mean, report=report)


def covariance_baseline(samples, k):
    """Top-k right eigenbasis of G = (1/l) sum_i F_i^* F_i.

    The samples are expected to be centered already.  Returns
    (eigenvalues, W) with eigenvalues descending and W the n x k matrix
    of orthonormal eigenvectors.  The s = p = 2 fit takes the same
    eigenvectors from the unscaled G, and its objectives are l times
    these eigenvalues.
    """
    S, peak = _sample_stack(samples)
    _require_scale(S, peak, 2.0)
    return _eigenbasis(_gram(_wide(S)) / len(S), k)


def deflated_residuals(samples, basis):
    """Left- and right-deflated samples (I - UU^*) F_i and F_i (I - VV^*) = (P F_i^*)^*."""
    S, _ = _sample_stack(samples)
    right = plane_matmul(_projector(basis.V), plane_conj_transpose(S))
    return ([QMatrix(L) for L in plane_matmul(_projector(basis.U), S)],
            [QMatrix(R) for R in plane_conj_transpose(right)])
