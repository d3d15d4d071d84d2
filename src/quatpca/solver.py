"""Projection-basis fitting: an exact eigensolve at s = p = 2, else Lp-sphere ascent.

At s = p = 2 the model is two-dimensional quaternion PCA: the fixed
point of the ascent with deflation is the top-k eigenbasis of each side's
Gram matrix, so :func:`fit` takes it directly from one Hermitian
eigensolve per side (``hermitian_topk_eig`` on the real representation),
with no iterations; ``tol`` and ``max_iter`` do not apply there.
:func:`covariance_baseline` runs the same eigen path on the Gram matrix
divided by the sample count.

For every other (s, p), each projection direction maximizes
f(w) = sum_i ||F_i w||_s^s over the unit Lp sphere by an ascent from
the all-ones pure-real vector scaled to unit Lp norm: linearize f at the
current iterate, then apply the closed-form maximizer of the linear form
over the sphere (four regimes: 0 < p < 1, p = 1, 1 < p < inf, p = inf).
For p >= 1 that is a minorize-maximize (MM) iteration and never lowers
the objective; for 0 < p < 1 it is a reweighting heuristic, guarded by
the rejection rule below.  Accepted directions are orthonormalized and
the problem is deflated, T <- T (I - WW^*), so that later directions
explore the remaining subspace only.  Left directions solve the mirrored
problem max sum_i ||u^* F_i||_s^s, which is the same computation on
conjugate-transposed samples.

Quaternion scalars multiply from the right in all projection updates so
that right-linear combinations stay right-linear.  With Wr the real
structure-preserving representation of an orthonormal basis W,
real_repr(W^*) = Wr^T, so the Gram-Schmidt projection W (W^* v) is the
real product Wr (Wr^T v) on the stacked layout of v, and the columns of
Wr span the right-unit images w, w i, w j, w k of every basis vector.

The samples of one side form one tall matrix T = [F_1; ...; F_l], so
f(w) = ||T w||_s^s.  Each side is gathered once, by _wide, as the real
(k n, L) matrix Hf of the k live planes of its conjugate transpose
H = T^*: the planes zero everywhere (the real plane of colour images)
are never copied.  A fit finds the live planes once, by _live, for both
sides, and Hf starts on a 64-byte boundary (_aligned).  The Gram matrix
G = T^* T (n x n on the right, sum_i F_i F_i^* on the left) is one real
GEMM of Hf with its transpose,
9 of the 16 block products for colour images.  s = 2 ascents run on G
alone, kept only as its 4n x 4n real representation R: y = G w is one
real matrix-vector product and gives both the objective <w, y> and the
next ascent vector, so the per-iteration cost no longer grows with the
sample count.  Other s keep Hf alone and compute P = T w once per
iterate, then take the objective and the ascent vector
T^* (|P|^(s-2) (.) P) from it.  Each of the two
products is one 2-D GEMM: the Hamilton table of ``quaternion``, as
4 x 16 real coefficients, is folded into the iterate before the first
and applied to the 4 x (k n) result of the second, so nothing is mixed
over the L columns.  Neither objective is ever rewritten: direction t
runs on the deflated stack T P, P = I - WW^* for the t accepted
directions W, whose objective is f(P w) and ascent vector P y(P w).
The ascent builds the real representation of P once per direction as
I - Wr Wr^T from the same Wr = real_repr(W) that Gram-Schmidt projects
with, so each evaluation adds two 4n x 4n real matrix-vector products.
The rejection rule: a step that lowers the objective (possible for
0 < p < 1) is not taken, and the direction ends on the previous iterate.
:func:`mm_update` takes one step of this ascent for any (s, p), s = p = 2
included.

Data whose largest magnitude would overflow or underflow the sums of
powers above are rejected up front (see ``_require_scale``).  Inside that
range a power-of-two rescaling of the data changes neither the steps
nor the bases of the ascent.  A p small enough that a unit-Lp iterate
can hold an entry whose square underflows is rejected up front too (see
``FitParams.violations``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DegenerateDirection, InvalidDataset, InvalidParameter, ShapeError, _check,
                     _is_count, _violation)
from .quaternion import (_CONJ, _ROOT_NORMAL, QMatrix, QVector, _l2_norm, _moduli_lp_norm,
                         _real_repr, lp_norm, plane_conj_transpose, plane_matmul)

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
    "mgs_orthonormalize",
    "hermitian_topk_eig",
]

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 500
DEGENERATE_TOL = 1e-12
HERMITIAN_RTOL = 1e-10

# Residual mass below this marks a real eigenvector as a right-unit
# multiple of one already extracted.  Duplicates sit at round-off level,
# genuinely new directions carry O(1) mass.
_DUPLICATE_TOL = 1e-5

# The smallest positive double: it guards the relative-change denominator
# when the objective is zero and gives a zero modulus a finite weight.
_TINY = math.ulp(0.0)
# -ln of the smallest normal double.  A unit-Lp vector of length w has an
# entry of modulus at least w^(-1/p), whose square is normal while
# p >= 2 ln(w) / _LN_NORMAL.
_LN_NORMAL = -math.log(sys.float_info.min)


@dataclass(frozen=True)
class FitParams:
    """Hyperparameters of one fit.

    ``s`` is the deviation exponent (s >= 1, finite); ``p`` the sphere
    exponent (p > 0 or math.inf, and on m x n images at least
    2 ln(max(m, n)) / 708.4); ``k1``/``k2`` the number of left/right
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
        if m is not None and _is_count(self.k1) and self.k1 > m:
            problems.append(f"k1 must not exceed the image row count ({self.k1} > {m})")
        if n is not None and _is_count(self.k2) and self.k2 > n:
            problems.append(f"k2 must not exceed the image column count ({self.k2} > {n})")
        if m is not None and n is not None and not _violation("p", self.p):
            p_min = 2.0 * math.log(max(m, n)) / _LN_NORMAL
            if self.p < p_min:
                problems.append(f"p must be at least 2 ln(max(m, n)) / {_LN_NORMAL:.1f} = "
                                f"{p_min:.3g} on {m} x {n} images, got {self.p}")
        problems += [_violation(name, getattr(self, name)) for name in ("tol", "max_iter")]
        return [problem for problem in problems if problem]

    def validate(self, m=None, n=None):
        problems = self.violations(m, n)
        if problems:
            raise InvalidParameter("; ".join(problems))


@dataclass
class DirectionTrace:
    """Per-direction diagnostics of the fit.

    ``iterations`` counts the ascent steps taken; the histories hold the
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
        if not (_is_count(k1) and _is_count(k2) and k1 <= self.k1 and k2 <= self.k2):
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


def _require_finite(S, samples=None, what="sample"):
    """Raise InvalidDataset when an image of the (l, 4, m, n) stack S holds NaN or inf.

    The error names the first offending image as "<what> <index>", with its
    source or label when ``samples`` (the SampleSet S was gathered from) is
    given.  Returns the largest magnitude of an entry, from the same pass: a
    sample's largest magnitude is NaN or inf exactly when the sample holds one.
    """
    flat = S.reshape(len(S), -1)
    peaks = np.maximum(flat.max(axis=1, initial=0.0), -flat.min(axis=1, initial=0.0))
    bad = np.flatnonzero(~np.isfinite(peaks))
    if bad.size:
        i = int(bad[0])
        name = f" ({samples.row_sources[i] or f'label {samples.row_labels[i]!r}'})" if samples else ""
        raise InvalidDataset(f"{what} {i}{name} holds a non-finite value (NaN or inf)")
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

    Accepts a SampleSet (``SampleSet._gather``: a whole centred set is not
    copied) or a QMatrix list.  Raises InvalidDataset, naming the first
    offending sample, when any entry is NaN or infinite.
    """
    if hasattr(samples, "_gather"):
        S = samples._gather()
    else:
        mats = list(samples)
        for f in mats:
            if not isinstance(f, QMatrix):
                raise TypeError(f"expected QMatrix samples, got {type(f).__name__}")
            if f.shape != mats[0].shape:
                raise ShapeError(f"samples have mixed shapes: {mats[0].shape} vs {f.shape}")
        S, samples = np.stack([f.data for f in mats]) if mats else np.empty(0), None
    if not len(S):
        raise InvalidDataset("need at least one sample")
    return S, _require_finite(S, samples)


def _aligned(shape):
    """An uninitialized C-contiguous float64 array of ``shape`` that starts on a 64-byte boundary.

    numpy aligns to 16 bytes only, and the AVX-512 GEMM kernels run
    slower on an operand that starts elsewhere.  The values computed
    never depend on where an operand starts.
    """
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


def _live(S):
    """The planes of the (l, 4, m, n) stack S from its first to its last live one (not zero everywhere).

    At least one plane is kept.  A fit reads them once and hands them to
    the _wide of both sides.
    """
    live = [c for c in range(4) if S[:, c].any()] or [0]
    return list(range(live[0], live[-1] + 1))


def _wide(S, keep, side="right"):
    """(Hf, keep): H = T^* of one side as the aligned real (k n, L) matrix of its planes.

    T is the tall matrix [F_1; ...; F_l] of the right side, or
    [F_1^*; ...; F_l^*] of the left side, so H is [F_1^*, ..., F_l^*] or
    [F_1, ..., F_l].  ``keep`` lists the k planes of _live(S), and Hf
    stacks them.  Colour images have a zero real plane, which is never
    copied, so they keep three.  A zero plane between live ones stays,
    which costs products but no accuracy.
    """
    l, _, m, n = S.shape
    planes = S[:, keep[0]:keep[-1] + 1]
    if side == "left":
        H = _aligned((len(keep), m, l, n))
        H[...] = planes.transpose(1, 2, 0, 3)
        return H.reshape(-1, l * n), keep
    # Plane c of F_i^* is the sign of plane c times its transpose; one
    # strided pass writes all of them into place.
    H = _aligned((len(keep), n, l, m))
    np.multiply(planes.transpose(1, 3, 0, 2), _CONJ[keep, None, None, None], out=H)
    return H.reshape(-1, l * m), keep


def _gram(gathered):
    """Quaternion Gram matrix T^* T = H H^* of the (Hf, keep) of _wide as a (4, n, n) plane array.

    One real GEMM of the stacked live planes Hf with its own transpose
    gives every block H_c H_d^T, and the matching columns of
    _HAMILTON_CONJ_B combine them; a dropped plane only ever contributed
    zero blocks.
    """
    Hf, keep = gathered
    k = len(keep)
    n = len(Hf) // k
    blocks = (Hf @ Hf.T).reshape(k, n, k, n).transpose(0, 2, 1, 3).reshape(k * k, -1)
    cols = [4 * c + d for c in keep for d in keep]
    return (_HAMILTON_CONJ_B[:, cols] @ blocks).reshape(4, n, n)


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

    def __init__(self, gathered):
        self.R = _real_repr(_gram(gathered))

    def evaluate(self, w):
        wr = w.reshape(-1)
        y = self.R @ wr
        return float(wr @ y), y.reshape(w.shape)


class _StackObjective:
    """General s: f(w) = ||T w||_s^s, ascent vector T^* (|P|^(s-2) (.) P).

    Only H = T^* is stored, as the (k n, L) real matrix Hf of its k live
    planes from _wide (colour images have a zero real plane, so k = 3).
    The Hamilton table is folded into the small operands, so each pass
    over the stack is one 2-D GEMM:

    * P = H^* w is W Hf, where W (4, k n) folds _HAMILTON_CONJ_A into w;
    * T^* Q = H Q is the table applied to B = Q Hf^T (4, k n), with the
      columns of _HAMILTON permuted once to B's (plane of Q, plane of H)
      order, on n columns only.

    The weights |P|^(s-2) and the objective come from the squared
    moduli alone.  H never changes: the ascent takes the deflated stack
    T P as f(P w) and P y(P w), with P built from the real images of the
    accepted directions (_deflated_evaluate).

    Hf and the (4, L) product P both start on a 64-byte boundary, so
    both GEMMs read aligned operands.  P is written into one buffer
    allocated here, so ``evaluate`` is not re-entrant: one object must
    not be evaluated from two threads at once.  Its results never share
    memory with the buffer.
    """

    def __init__(self, gathered, s):
        self.Hf, keep = gathered
        k = len(keep)
        cols = [4 * c + d for c in keep for d in range(4)]
        self.power = (s - 2.0) / 2.0
        # fold[o, c, d] multiplies w_d H_c into plane o of P; table[o, k e + c]
        # takes plane c of H against plane e of Q.
        self.fold = _HAMILTON_CONJ_A[:, cols].reshape(4, k, 4)
        self.table = _HAMILTON[:, cols].reshape(4, k, 4).transpose(0, 2, 1).reshape(4, 4 * k)
        self.P = _aligned((4, self.Hf.shape[1]))

    def evaluate(self, w):
        P = np.matmul((self.fold @ w).reshape(4, -1), self.Hf, out=self.P)
        sq = np.einsum("ij,ij->j", P, P)
        # Zero guard: a zero modulus (P_i = 0) gets the finite weight of the
        # smallest positive double, so it adds 0 to f and to the product.
        fac = np.power(np.maximum(sq, _TINY), self.power)
        # einsum, not a BLAS dot, whose sum depends on the thread count
        f = float(np.einsum("i,i->", fac, sq))
        P *= fac
        return f, self.table @ (P @ self.Hf.T).reshape(-1, w.shape[1])


def _deflated_evaluate(obj, P, w):
    """(f(P w), P y(P w)): obj on the stack T P, with P real_repr(I - WW^*)."""
    f, y = obj.evaluate((P @ w.reshape(-1)).reshape(w.shape))
    return f, (P @ y.reshape(-1)).reshape(y.shape)


# -- orthonormalization and eigenpairs --------------------------------


def _project_off(v, B):
    """(v - W (W^* v), its L2 norm) on the real layout, B = real_repr(W), done twice for round-off."""
    for _ in range(2):
        v = v - B @ (B.T @ v)
    return v, _l2_norm(v)


def mgs_orthonormalize(vnew, basis):
    """Orthonormalize ``vnew`` against an orthonormal ``basis``.

    Gram-Schmidt with the right-scalar update v <- v - W (W^* v), where
    W holds the basis as columns (see _project_off), then v is
    normalized to unit L2 norm.  Raises DegenerateDirection when the
    residual norm is not above DEGENERATE_TOL times the norm of ``vnew``.
    """
    basis = list(basis)
    for u in basis:
        if u.n != vnew.n:
            raise ShapeError(f"basis vector length {u.n} does not match {vnew.n}")
    Wr = QMatrix.from_columns(basis).real_repr() if basis else np.empty((4 * vnew.n, 0))
    return QVector.from_real(_orthonormalize(vnew.to_real(), Wr))


def _orthonormalize(v, Wr):
    """:func:`mgs_orthonormalize` of the real layout v against the real representation Wr."""
    size = _l2_norm(v)
    v, r = _project_off(v, Wr)
    if not r > DEGENERATE_TOL * size:
        raise DegenerateDirection(
            f"residual norm {r:.3e} is not above {DEGENERATE_TOL:.1e} times the norm "
            f"{size:.3e} before projection; direction already spanned")
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
    downward, each candidate is projected off the right-unit images B of
    the vectors already accepted, by the projection of Gram-Schmidt
    (_project_off), and is kept only when it carries mass outside their
    span.  That yields one orthonormal quaternion eigenvector per group.
    B grows by the four images of each accepted vector instead of being
    rebuilt.  Phases follow the deterministic convention of
    :func:`_canonical_phase`.

    Returns a list of (eigenvalue, eigenvector) pairs.
    """
    m, n = G.shape
    if m != n:
        raise ShapeError(f"expected a square matrix, got {m}x{n}")
    if not (_is_count(k) and k <= n):
        raise InvalidParameter(f"k must satisfy 1 <= k <= {n}, got {k}")
    if not np.isfinite(G.data).all():
        raise InvalidParameter("matrix holds a non-finite value (NaN or inf)")
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
        B = np.ascontiguousarray(images[:, :, :len(vectors)]).reshape(4 * n, -1)
        v, r = _project_off(evecs[:, idx], B)
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
    if w.n != S.shape[3]:
        raise ShapeError(f"vector length {w.n} does not match sample width {S.shape[3]}")
    return _StackObjective(_wide(S, _live(S)), s).evaluate(w.data)


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


def _ascend(obj, Wr, w0, params, side, index):
    """Run the ascent from w0 on T P, P = I - WW^* for Wr = real_repr(W); returns (v, f, trace)."""
    P = np.eye(len(Wr)) - Wr @ Wr.T
    p = params.p
    w, w_mods = w0.data, w0.abs()
    f, y = _deflated_evaluate(obj, P, w)
    f_hist = [f]
    pnorm_hist = [_moduli_lp_norm(w_mods, p)]
    reason = "iteration cap"
    for iterations in range(1, params.max_iter + 1):
        w_new, mods_new = _sphere_step(y, p, w_mods)
        f_new, y_new = _deflated_evaluate(obj, P, w_new)
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
    v = _orthonormalize(w.reshape(-1), Wr).reshape(w.shape)
    f_dir = _deflated_evaluate(obj, P, v)[0]
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


def _fit_side(S, keep, count, params, side):
    """One side's (basis, objectives, traces) from the (l, 4, m, n) stack S, gathered by _wide.

    The eigensolve at s = p = 2, else the ascent on the Gram matrix (s = 2) or on the stack.
    """
    gathered = _wide(S, keep, side)
    if params.s == 2 and params.p == 2:
        return _eigen_side(_gram(gathered), count, side)
    obj = _GramObjective(gathered) if params.s == 2 else _StackObjective(gathered, params.s)
    n = S.shape[3 if side == "right" else 2]
    W, values, traces = np.empty((4, n, count)), np.empty(count), []
    w0 = _initial_iterate(n, params.p)
    for t in range(count):
        try:
            W[:, :, t], values[t], trace = _ascend(obj, _real_repr(W[:, :, :t]), w0, params,
                                                   side, t)
        except DegenerateDirection as exc:
            raise DegenerateDirection(
                f"{side} direction {t}: {exc}", index=t) from exc
        traces.append(trace)
    return QMatrix(W), values, traces


def _eigenbasis(G, k):
    """Top-k eigenvalues (descending) and orthonormal eigenvectors of Gram planes G."""
    pairs = hermitian_topk_eig(QMatrix(G), k)
    return np.array([lam for lam, _ in pairs]), QMatrix.from_columns([v for _, v in pairs])


def _eigen_side(G, count, side):
    """s = p = 2: one side's basis as the top eigenvectors of its Gram planes G.

    The eigenvalue of the unscaled G is the objective w^* G w, the value
    the ascent stores.  An eigenvalue within round-off of zero (relative
    to the largest) means the data span fewer than ``count`` directions.
    """
    d, W = _eigenbasis(G, count)
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
    keep = _live(S)
    V, d_right, right_traces = _fit_side(S, keep, params.k2, params, "right")
    U, d_left, left_traces = _fit_side(S, keep, params.k1, params, "left")
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
    return _eigenbasis(_gram(_wide(S, _live(S))) / len(S), k)


def deflated_residuals(samples, basis):
    """Left- and right-deflated samples F_i - U (U^* F_i) and F_i - (F_i V) V^*.

    The right ones are (F_i^* - V (V^* F_i^*))^*: a basis is the left operand of every product.
    """
    S, _ = _sample_stack(samples)
    lefts, rights = (X - plane_matmul(W.data, plane_matmul(plane_conj_transpose(W.data), X))
                     for W, X in ((basis.U, S), (basis.V, plane_conj_transpose(S))))
    return [QMatrix(L) for L in lefts], [QMatrix(R).H for R in rights]
