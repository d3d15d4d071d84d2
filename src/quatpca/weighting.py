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

:func:`project_stack` projects a whole (N, 4, m, n) stack of centered
images as A^* X B = (B^* (A^* X)^*)^*: two real GEMMs that each expand a
basis, never the stack.  :func:`project` is its one-image case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import center, split
from .errors import InvalidDataset, InvalidParameter, InvalidWeight, ShapeError, _check
from .quaternion import QMatrix, plane_conj_transpose, plane_matmul
from .solver import _require_finite, fit

__all__ = [
    "Manner",
    "Transform",
    "WeightingScheme",
    "SelectionConfig",
    "centered_stack",
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


def centered_stack(samples, basis):
    """Images of a sample set as one (N, 4, m, n) array, centered by the fit's mean."""
    X = np.stack([s.image.data for s in samples.samples])
    if not samples.centered:
        X -= basis.mean.data
    return X


def _gamma(n):
    """gamma_n = n u / (1 - n u): the relative round-off bound of an n-term float64 sum."""
    nu = n * np.finfo(np.float64).eps / 2
    return nu / (1.0 - nu)


def _sweep_violation(basis, K):
    """The rule K breaks as a sweep size, k1 = k2 = 1..K within the basis; None when legal."""
    top = min(basis.k1, basis.k2)
    return None if 1 <= K <= top else f"must satisfy 1 <= sweep <= min(k1, k2) = {top}, got {K}"


def _check_sweep(basis, K):
    """Raise InvalidParameter when K is not a sweep size of the basis."""
    problem = _sweep_violation(basis, K)
    if problem:
        raise InvalidParameter(f"sweep size {problem}")


def _checked_stack(X, basis, samples=None):
    """X as float64, after the shape and non-finite checks of :func:`project_stack`."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 4 or X.shape[1] != 4 or X.shape[2:] != (basis.m, basis.n):
        raise ShapeError(
            f"image shape {X.shape[2:]} does not match basis {basis.m}x{basis.n}")
    _require_finite(X, samples)
    return X


def _project(X, A, B):
    """Features A^* X_i B = (B^* (A^* X_i)^*)^* of a checked stack, given the basis planes."""
    Y = plane_conj_transpose(plane_matmul(plane_conj_transpose(A), X))
    return plane_conj_transpose(plane_matmul(plane_conj_transpose(B), Y))


def project_stack(X, basis, scheme=WeightingScheme(Manner.UNWEIGHTED), samples=None):
    """Features A^* X_i B of a (N, 4, m, n) stack of centered images, as (N, 4, k1, k2).

    A and B are the bases with the scheme's weights folded into their
    columns.  ``samples`` (the stack's Sample records, optional) lets a
    non-finite image be reported by its source or label.
    """
    X = _checked_stack(X, basis, samples)
    left, right = _side_weights(basis, scheme)
    return _project(X, basis.U.data * left, basis.V.data * right)


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
    # Imported here because recognition imports this module (for
    # project_stack).  A module-level import would need the 1-NN search
    # moved here, or score_weightings, which bench/run.py's tracer wraps
    # in this module, moved out.
    from .recognition import _nearest

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
        plain = [project_stack(centered_stack(part, basis), basis, samples=part.samples)
                 for part in (inner_c, val)]
        inner_labels = inner_c.labels()
        for manner in MANNER_PRECEDENCE:
            left, right = _side_weights(basis, WeightingScheme(manner, protocol.transform))
            gallery, probes = (P * left[:, None] * right for P in plain)
            nearest, _ = _nearest(probes, gallery)
            hits = sum(inner_labels[i] == s.label for i, s in zip(nearest, val.samples))
            sums[manner] += hits / len(val)
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
