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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidDataset, InvalidParameter, InvalidWeight, ShapeError

__all__ = [
    "Manner",
    "Transform",
    "WeightingScheme",
    "WeightMatrices",
    "SelectionConfig",
    "build_weights",
    "project",
    "joint_weight",
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


@dataclass(frozen=True)
class WeightMatrices:
    """Diagonal weighting entries for both sides."""

    left: np.ndarray
    right: np.ndarray


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


def build_weights(basis, transform=Transform.IDENTITY):
    """Transformed diagonal weights for both sides of a fitted basis."""
    return WeightMatrices(
        left=_transform_values(basis.d_left, transform),
        right=_transform_values(basis.d_right, transform),
    )


def _factors(basis, scheme):
    """Effective projection factors (A, B) with weights folded in.

    Weights are built only for the sides the manner actually uses, so an
    unweighted projection never trips transform validity checks.
    """
    A = basis.U
    B = basis.V
    if scheme.weights_left:
        A = A.scale_columns(_transform_values(basis.d_left, scheme.transform))
    if scheme.weights_right:
        B = B.scale_columns(_transform_values(basis.d_right, scheme.transform))
    return A, B


def project(F, basis, scheme=WeightingScheme(Manner.UNWEIGHTED)):
    """Feature matrix P = A^* F B of a centered image F."""
    if F.shape != (basis.m, basis.n):
        raise ShapeError(
            f"image shape {F.shape} does not match basis {basis.m}x{basis.n}")
    if not np.isfinite(F.data).all():
        raise InvalidDataset("probe image holds a non-finite value (NaN or inf)")
    A, B = _factors(basis, scheme)
    return A.H @ (F @ B)


def joint_weight(basis, i, j):
    """Diagnostic combined contribution of direction pair (i, j)."""
    if not (0 <= i < basis.k1 and 0 <= j < basis.k2):
        raise InvalidParameter(
            f"direction pair ({i}, {j}) out of range for ({basis.k1}, {basis.k2})")
    return float(basis.d_left[i] + basis.d_right[j])


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
        if not (isinstance(self.repeats, int) and self.repeats >= 1):
            raise InvalidParameter(f"repeats must be a positive integer, got {self.repeats}")
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidParameter(
                f"train_fraction must lie strictly between 0 and 1, got {self.train_fraction}")


def score_weightings(train, params, protocol=SelectionConfig()):
    """Average validation accuracy of every manner over the repeats."""
    # Imported here because dataset and recognition sit above this module.
    from .dataset import center, split
    from .recognition import build_gallery, evaluate
    from .solver import fit

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
        for manner in MANNER_PRECEDENCE:
            scheme = WeightingScheme(manner, protocol.transform)
            gallery = build_gallery(inner_c, basis, scheme)
            sums[manner] += evaluate(val, gallery, basis, scheme)
    return {manner: sums[manner] / protocol.repeats for manner in MANNER_PRECEDENCE}


def best_manner(scores):
    """Argmax over manners with the fixed tie precedence."""
    best = max(scores.values())
    for manner in MANNER_PRECEDENCE:
        if manner in scores and scores[manner] == best:
            return manner
    raise InvalidParameter("scores cover none of the known manners")


def select_weighting(train, params, protocol=SelectionConfig()):
    """Choose the weighting manner with the best validation accuracy.

    Ties resolve by the fixed precedence Unweighted, WeightedRight,
    WeightedLeft, WeightedBoth.  The function is deterministic in
    (train, params, protocol); the caller refits on the full set with
    the returned scheme.
    """
    scores = score_weightings(train, params, protocol)
    return WeightingScheme(best_manner(scores), protocol.transform)
