"""Feature weighting manners and the data-driven manner selection.

Projections may scale the basis columns by the per-direction objective
values: P = (U f(Wl))^* F (V f(Wr)), with each side weighted or not
(four manners).  The transform f is the identity or the inverse
logarithm 1/ln(d).  Because deflation makes every objective value the
marginal contribution of its direction, larger entries mark more
informative directions.

:func:`select_weighting` picks a manner empirically: repeated stratified
splits of the training data, one fit per split, and the manner with the
best average validation accuracy under nearest-neighbor classification.
Each repeat projects the inner-training and validation sets once,
unweighted, and rescales those features for every manner: the weights
are real diagonal matrices, so (U D)^* F (V E) = D (U^* F V) E.

The nearest-neighbor search, which recognition shares, runs on stacked
planes: the quaternion Frobenius distance is the Euclidean distance of
the flattened (4, k1, k2) planes.  One GEMM screens every probe against
every gallery entry with the expansion |q - g|^2 = |q|^2 + |g|^2 - 2 q.g.
That expansion cancels, so it only picks candidates: every entry within
a proven round-off bound of the row's screened minimum is re-ranked on
exact differences, sqrt(sum((g - q)^2)), and distance ties resolve to
the smallest gallery index.  Indices and distances are therefore those
of the exhaustive search on exact differences, bit for bit; a row that
overflows the screen is searched exhaustively.

:func:`project_stack` projects a whole (N, 4, m, n) stack of centered
images as A^* X B = (B^* (A^* X)^*)^*: two real GEMMs that each expand a
basis, never the stack.  :func:`project` is its one-image case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import center, split
from .errors import InvalidDataset, InvalidParameter, InvalidWeight, ShapeError, _check, _is_count
from .quaternion import QMatrix, _blocks, _squared_rows, plane_conj_transpose, plane_matmul
from .solver import _require_finite, fit

__all__ = [
    "MANNER_PRECEDENCE",
    "Manner",
    "Transform",
    "WeightingScheme",
    "SelectionConfig",
    "project_stack",
    "project",
    "score_weightings",
    "best_manner",
    "select_weighting",
]


class Manner(Enum):
    UNWEIGHTED = "unweighted"
    WEIGHTED_LEFT = "weighted-left"
    WEIGHTED_RIGHT = "weighted-right"
    WEIGHTED_BOTH = "weighted-both"


class Transform(Enum):
    IDENTITY = "identity"
    INVERSE_LOG = "inverse-log"


# Ties in the selection resolve in this order.
MANNER_PRECEDENCE = (
    Manner.UNWEIGHTED,
    Manner.WEIGHTED_RIGHT,
    Manner.WEIGHTED_LEFT,
    Manner.WEIGHTED_BOTH,
)


@dataclass(frozen=True)
class WeightingScheme:
    manner: Manner
    transform: Transform = Transform.IDENTITY

    @property
    def weights_left(self):
        return self.manner in (Manner.WEIGHTED_LEFT, Manner.WEIGHTED_BOTH)

    @property
    def weights_right(self):
        return self.manner in (Manner.WEIGHTED_RIGHT, Manner.WEIGHTED_BOTH)


def _transform_values(d, transform):
    d = np.asarray(d, dtype=np.float64)
    if transform == Transform.IDENTITY:
        return d.copy()
    if transform == Transform.INVERSE_LOG:
        if np.any(d <= 1.0 + 1e-12):
            bad = float(np.min(d))
            raise InvalidWeight(
                f"inverse-log weighting needs every objective value above 1, got {bad}")
        return 1.0 / np.log(d)
    raise InvalidParameter(f"unknown transform {transform!r}")


def _side_weights(basis, scheme, k=None):
    """Transformed (left, right) weights, ones for a side the manner leaves alone.

    Given k, only the weights of each side's leading k directions (a
    sweep's prefix).  Weights are built only for the sides the manner
    actually uses, so an unweighted projection never trips transform
    validity checks.  A weight of one leaves every product it
    enters bit for bit unchanged.
    """
    dl, dr = basis.d_left[:k], basis.d_right[:k]
    left = _transform_values(dl, scheme.transform) if scheme.weights_left else np.ones_like(dl)
    right = _transform_values(dr, scheme.transform) if scheme.weights_right else np.ones_like(dr)
    return left, right


def _weighted(basis, scheme, k=None):
    """Planes of both bases' leading k columns (all without k), weighted by the scheme."""
    left, right = _side_weights(basis, scheme, k)
    return basis.U.data[..., :k] * left, basis.V.data[..., :k] * right


def centered_stack(samples, basis):
    """Images of a sample set as one (N, 4, m, n) array, centered by the fit's mean.

    A set centred by another mean is shifted by the difference of the two.
    A whole set centred by the fit's own mean comes back as its read-only
    stack itself.  Raises ShapeError when the images do not fit the basis
    and InvalidDataset, naming the sample, when a centred image holds NaN or inf.
    """
    _require_shape((len(samples), 4, *samples.shape), basis)
    X = samples._gather(basis.mean)
    _require_finite(X, samples)
    return X


def _gamma(n):
    """gamma_n = n u / (1 - n u): the relative round-off bound of an n-term float64 sum."""
    nu = n * np.finfo(np.float64).eps / 2
    return nu / (1.0 - nu)


def _nearest(probes, gallery):
    """Index of and distance to the nearest gallery entry for every probe.

    ``probes`` (P, ...) and ``gallery`` (N, ...) are stacked feature
    planes.  Returns what an exhaustive search on exact differences,
    ``sqrt(sum((g - q)^2))`` with ties to the smallest index, returns:
    the one-GEMM screen only picks the candidates that search re-ranks.
    """
    G = gallery.reshape(len(gallery), -1)
    Q = probes.reshape(len(probes), -1)
    n, D = G.shape
    # Round-off of the screen (u = 2^-53, S = |q|^2 + |g|^2): each norm and
    # dot product is within gamma_D, so the computed s = |q|^2 + |g|^2 - 2 q.g
    # is within (2 gamma_D + 3u) S of |q - g|^2.  The exact form's sum of D
    # rounded squares is within gamma_(D+2) of |q - g|^2, and a rounded square
    # root no larger than another bounds the ratio of their sums by
    # ((1 + u) / (1 - u))^2, which covers sqrt-rounding merges.  So an entry j
    # tied with the row's exact minimum screens at most (2 gamma_D + 3u) S_j +
    # (2 gamma_D + 4 gamma_(D+2) + 11u) S_m above the screen minimum m, to
    # first order.  12 gamma_(D+2) (S_j + S_m) covers that with room for the
    # norms' own round-off and for rounding this comparison; the absolute
    # term covers gradual underflow (under 2^-1075 per product).
    tau = 12.0 * _gamma(D + 2)
    floor = (D + 2) * np.finfo(np.float64).tiny
    index, dist = np.empty(len(Q), dtype=np.intp), np.empty(len(Q))
    # Overflow makes a screen row non-finite; such rows are searched in full below.
    with np.errstate(over="ignore", invalid="ignore"):
        g2, q2 = _squared_rows(G), _squared_rows(Q)
    for block in _blocks(len(Q), n):
        r = np.arange(len(Q[block]))
        with np.errstate(over="ignore", invalid="ignore"):
            norms = q2[block, None] + g2
            screen = norms - 2.0 * (Q[block] @ G.T)
            m = np.argmin(screen, axis=1)
            margin = tau * norms
            candidate = screen <= (screen[r, m] + margin[r, m] + floor)[:, None] + margin
            candidate[r, m] = True
            i, j = np.nonzero(candidate)
            d = np.sqrt(np.square(G[j] - Q[block.start + i]).sum(-1))
        # Per row, the smallest exact distance, then the smallest index.
        order = np.lexsort((j, d, i))
        first = order[np.searchsorted(i[order], r)]
        index[block], dist[block] = j[first], d[first]
        unscreened = ~(np.isfinite(screen).all(axis=1) & np.isfinite(dist[block]))
        for p in block.start + np.flatnonzero(unscreened):
            d = np.sqrt(np.square(G - Q[p]).sum(-1))
            index[p] = np.argmin(d)
            dist[p] = d[index[p]]
    return index, dist


def _hit_count(index, gallery, probes):
    """How many of the probe set's samples share the label of the gallery sample ``index`` names."""
    return sum(gallery.row_labels[i] == label for i, label in zip(index, probes.row_labels))


def _sweep_violation(basis, K):
    """The rule K breaks as a sweep size, k1 = k2 = 1..K within the basis; None when legal."""
    top = min(basis.k1, basis.k2)
    if _is_count(K) and K <= top:
        return None
    return f"must satisfy 1 <= sweep <= min(k1, k2) = {top}, got {K}"


def _check_sweep(basis, K):
    """Raise InvalidParameter when K is not a sweep size of the basis."""
    problem = _sweep_violation(basis, K)
    if problem:
        raise InvalidParameter(f"sweep size {problem}")


def _require_shape(shape, basis):
    """Raise ShapeError unless ``shape`` is that of an (N, 4, m, n) stack that fits the basis."""
    if len(shape) != 4 or shape[1] != 4 or tuple(shape[2:]) != (basis.m, basis.n):
        raise ShapeError(f"image shape {tuple(shape[2:])} does not match basis {basis.m}x{basis.n}")


def _project(X, A, B):
    """Features A^* X_i B = (B^* (A^* X_i)^*)^* of a checked stack, given the basis planes."""
    Y = plane_conj_transpose(plane_matmul(plane_conj_transpose(A), X))
    return plane_conj_transpose(plane_matmul(plane_conj_transpose(B), Y))


def project_stack(X, basis, scheme=WeightingScheme(Manner.UNWEIGHTED)):
    """Features A^* X_i B of a (N, 4, m, n) stack of centered images, as (N, 4, k1, k2).

    A and B are the bases with the scheme's weights folded into their
    columns.  Raises ShapeError when the stack does not fit the basis and
    InvalidDataset when an image holds NaN or inf.
    """
    X = np.asarray(X, dtype=np.float64)
    _require_shape(X.shape, basis)
    _require_finite(X)
    return _project(X, *_weighted(basis, scheme))


def project(F, basis, scheme=WeightingScheme(Manner.UNWEIGHTED)):
    """Feature matrix P = A^* F B of a centered image F."""
    return QMatrix(project_stack(F.data[None], basis, scheme)[0])


@dataclass(frozen=True)
class SelectionConfig:
    """Protocol of the data-driven manner selection.

    Each repeat splits the training data into an inner training part and
    a validation part (8:1 by default), fits once, and scores all four
    manners on the same split so the comparison is paired.
    """

    repeats: int = 3
    train_fraction: float = 8.0 / 9.0
    seed: int = 0
    transform: Transform = Transform.IDENTITY

    def validate(self):
        _check("repeats", self.repeats)
        _check("seed", self.seed)
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidParameter(
                f"train_fraction must lie strictly between 0 and 1, got {self.train_fraction}")


def score_weightings(train, params, protocol=SelectionConfig()):
    """Average validation accuracy of every manner over the repeats.

    Each repeat projects its inner-training and validation parts once,
    unweighted; a manner scales both by its side weights, D (U^* F V) E,
    before the nearest-neighbor search.
    """
    protocol.validate()
    for label, idxs in train.by_class().items():
        if len(idxs) < 2:
            raise InvalidDataset(
                f"class {label!r} has {len(idxs)} sample(s); selection needs at least 2")

    sums = {manner: 0.0 for manner in MANNER_PRECEDENCE}
    fractions = (protocol.train_fraction, 1.0 - protocol.train_fraction, 0.0)
    for r in range(protocol.repeats):
        inner, val, _ = split(train, fractions, seed=protocol.seed + r)
        inner_c = center(inner)
        basis = fit(inner_c, params)
        plain = [_project(centered_stack(part, basis), basis.U.data, basis.V.data)
                 for part in (inner_c, val)]
        for manner in MANNER_PRECEDENCE:
            left, right = _side_weights(basis, WeightingScheme(manner, protocol.transform))
            gallery, probes = (P * left[:, None] * right for P in plain)
            nearest, _ = _nearest(probes, gallery)
            sums[manner] += _hit_count(nearest, inner_c, val) / len(val)
    return {manner: sums[manner] / protocol.repeats for manner in MANNER_PRECEDENCE}


def best_manner(scores):
    """Argmax over manners with the fixed tie precedence."""
    known = [manner for manner in MANNER_PRECEDENCE if manner in scores]
    if not known:
        raise InvalidParameter("scores cover none of the known manners")
    # max keeps the first of equal scores, so ties follow the precedence.
    return max(known, key=scores.get)


def select_weighting(train, params, protocol=SelectionConfig()):
    """Choose the weighting manner with the best validation accuracy.

    Ties resolve by the fixed precedence Unweighted, WeightedRight,
    WeightedLeft, WeightedBoth.  The function is deterministic in
    (train, params, protocol); the caller refits on the full set with
    the returned scheme.
    """
    scores = score_weightings(train, params, protocol)
    return WeightingScheme(best_manner(scores), protocol.transform)
