"""Nearest-neighbor recognition in the projected feature space.

A gallery holds one feature matrix per training sample.  Probes are
centered by the training mean, projected as one stack with the same
basis and weighting scheme, and assigned the label of the closest
gallery feature under the quaternion Frobenius distance.

The search runs on stacked planes: the quaternion Frobenius distance is
the Euclidean distance of the flattened (4, k1, k2) planes, computed as
sqrt(sum((g - p)^2)) on exact differences for a few probes at a time.
Distance ties resolve to the smallest gallery index (``np.argmin``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDataset
from .quaternion import QMatrix
from .solver import BasisPair
from .weighting import WeightingScheme, centered_stack, project, project_stack

__all__ = ["Gallery", "build_gallery", "classify", "predict", "evaluate"]

# Largest difference array one search step builds, in float64 entries (512 KiB,
# so it stays in cache; larger chunks measured slower).
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Gallery:
    """Projected training features with their provenance."""

    labels: tuple[str, ...]
    features: tuple[QMatrix, ...]
    basis: BasisPair
    scheme: WeightingScheme

    def __len__(self):
        return len(self.labels)


def _nearest(probes, gallery):
    """Index of and distance to the nearest gallery entry for every probe.

    ``probes`` (P, ...) and ``gallery`` (N, ...) are stacked feature
    planes.  Ties resolve to the smallest gallery index.
    """
    G = gallery.reshape(len(gallery), -1)
    Q = probes.reshape(len(probes), -1)
    rows = max(1, _CHUNK_ENTRIES // G.size)
    index = np.empty(len(Q), dtype=np.intp)
    dist = np.empty(len(Q))
    for start in range(0, len(Q), rows):
        diff = G[None, :, :] - Q[start:start + rows, None, :]
        d = np.sqrt(np.square(diff, out=diff).sum(axis=-1))
        best = np.argmin(d, axis=1)
        index[start:start + rows] = best
        dist[start:start + rows] = d.min(axis=1)
    return index, dist


def _gallery_planes(gallery):
    if len(gallery) == 0:
        raise InvalidDataset("cannot classify against an empty gallery")
    return np.stack([f.data for f in gallery.features])


def build_gallery(train, basis, scheme):
    """Project every training sample; the set must match the fit's mean."""
    if len(train) == 0:
        raise InvalidDataset("cannot build a gallery from an empty sample set")
    P = project_stack(centered_stack(train, basis), basis, scheme, train.samples)
    features = tuple(QMatrix(f) for f in P)
    labels = tuple(s.label for s in train.samples)
    return Gallery(labels=labels, features=features, basis=basis, scheme=scheme)


def classify(probe, gallery, basis=None, scheme=None):
    """Label and distance of the nearest gallery feature.

    The probe must already be centered by the training mean.  Distance
    ties resolve to the smallest gallery index.
    """
    G = _gallery_planes(gallery)
    basis = gallery.basis if basis is None else basis
    scheme = gallery.scheme if scheme is None else scheme
    P = project(probe, basis, scheme)
    index, dist = _nearest(P.data[None], G)
    return gallery.labels[index[0]], float(dist[0])


def predict(test, gallery, basis=None, scheme=None):
    """Predicted label of every test sample, in sample order."""
    if len(test) == 0:
        raise InvalidDataset("cannot predict on an empty sample set")
    G = _gallery_planes(gallery)
    basis = gallery.basis if basis is None else basis
    scheme = gallery.scheme if scheme is None else scheme
    probes = project_stack(centered_stack(test, basis), basis, scheme, test.samples)
    index, _ = _nearest(probes, G)
    return [gallery.labels[i] for i in index]


def evaluate(test, gallery, basis=None, scheme=None):
    """Fraction of test samples whose nearest neighbor shares their label."""
    if len(test) == 0:
        raise InvalidDataset("cannot evaluate on an empty sample set")
    predicted = predict(test, gallery, basis, scheme)
    hits = sum(p == s.label for p, s in zip(predicted, test.samples))
    return hits / len(test)
