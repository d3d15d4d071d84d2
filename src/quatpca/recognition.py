"""Nearest-neighbor recognition in the projected feature space.

A gallery holds one feature matrix per training sample.  Probes are
centered by the training mean, projected as one stack with the same
basis and weighting scheme, and assigned the label of the closest
gallery feature under the quaternion Frobenius distance, by the search
of ``weighting._nearest``.

Deflated directions nest and the weights are per direction, so the
features at k1 = k2 = k are the leading k x k block of the features at
K, up to the summation order of the BLAS products (the last bits at
some k): :func:`sweep_accuracies` projects each set once at K and
searches the slices for every k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDataset
from .quaternion import QMatrix
from .solver import BasisPair
from .weighting import (WeightingScheme, _check_sweep, _hit_count, _nearest, _project, _side_weights,
                        _weighted, centered_stack)

__all__ = ["Gallery", "build_gallery", "predict", "evaluate", "sweep_accuracies"]

@dataclass(frozen=True)
class Gallery:
    """Projected training features with their provenance."""

    labels: tuple[str, ...]
    features: tuple[QMatrix, ...]
    basis: BasisPair
    scheme: WeightingScheme

    def __len__(self):
        return len(self.labels)


def build_gallery(train, basis, scheme):
    """Project every training sample; the set must match the fit's mean."""
    if len(train) == 0:
        raise InvalidDataset("cannot build a gallery from an empty sample set")
    P = _project(centered_stack(train, basis), *_weighted(basis, scheme))
    features = tuple(QMatrix(f) for f in P)
    return Gallery(labels=train.row_labels, features=features, basis=basis, scheme=scheme)


def predict(test, gallery):
    """Predicted label of every test sample, in sample order.

    Distance ties resolve to the smallest gallery index.
    """
    if len(test) == 0:
        raise InvalidDataset("cannot predict on an empty sample set")
    if len(gallery) == 0:
        raise InvalidDataset("cannot classify against an empty gallery")
    G = np.stack([f.data for f in gallery.features])
    basis = gallery.basis
    probes = _project(centered_stack(test, basis), *_weighted(basis, gallery.scheme))
    index, _ = _nearest(probes, G)
    return [gallery.labels[i] for i in index]


def evaluate(test, gallery):
    """Fraction of test samples whose nearest neighbor shares their label."""
    if len(test) == 0:
        raise InvalidDataset("cannot evaluate on an empty sample set")
    predicted = predict(test, gallery)
    hits = sum(p == label for p, label in zip(predicted, test.row_labels))
    return hits / len(test)


def sweep_accuracies(train, test, basis, scheme, K):
    """Accuracy at k1 = k2 = 1..K, one projection of each set at K.

    Each entry is ``evaluate(test, build_gallery(train, b, scheme))`` with
    ``b = basis.truncated(k, k)``, computed on features that agree with
    that path up to the BLAS summation order.  The errors are the ones
    those calls would raise for k = 1, 2, ... in turn: an inverse-log
    weight that first fails at k names the smallest objective of the
    leading k.
    """
    _check_sweep(basis, K)
    # Checks run in the per-k order: k = 1's, then each larger k's weights (K's in _weighted).
    if len(train) == 0:
        raise InvalidDataset("cannot build a gallery from an empty sample set")
    X = centered_stack(train, basis)
    _side_weights(basis, scheme, 1)
    if len(test) == 0:
        raise InvalidDataset("cannot evaluate on an empty sample set")
    Y = centered_stack(test, basis)
    for k in range(2, K):
        _side_weights(basis, scheme, k)
    A, B = _weighted(basis, scheme, K)
    G, Q = _project(X, A, B), _project(Y, A, B)
    accuracies = []
    for k in range(1, K + 1):
        index, _ = _nearest(Q[:, :, :k, :k], G[:, :, :k, :k])
        accuracies.append(_hit_count(index, train, test) / len(test))
    return accuracies
