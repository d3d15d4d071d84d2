"""Nearest-neighbor recognition in the projected feature space.

A gallery holds one feature matrix per training sample.  Probes are
centered by the training mean, projected as one stack with the same
basis and weighting scheme, and assigned the label of the closest
gallery feature under the quaternion Frobenius distance.

The search runs on stacked planes: the quaternion Frobenius distance is
the Euclidean distance of the flattened (4, k1, k2) planes.  One GEMM
screens every probe against every gallery entry with the expansion
|q - g|^2 = |q|^2 + |g|^2 - 2 q.g.  That expansion cancels, so it only
picks candidates: every entry within a proven round-off bound of the
row's screened minimum is re-ranked on exact differences,
sqrt(sum((g - q)^2)), and distance ties resolve to the smallest gallery
index.  Indices and distances are therefore those of the exhaustive
search on exact differences, bit for bit; a row that overflows the
screen is searched exhaustively.

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
from .weighting import (
    WeightingScheme,
    _checked_stack,
    _gamma,
    _project,
    _side_weights,
    _truncations,
    centered_stack,
    project,
    project_stack,
)

__all__ = ["Gallery", "build_gallery", "classify", "predict", "evaluate", "sweep_accuracies"]

# Largest rows x N block of screened squared distances, in float64 entries
# (512 KiB, so the block and its temporaries stay in cache).
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
    rows = max(1, _CHUNK_ENTRIES // n)
    index = np.empty(len(Q), dtype=np.intp)
    dist = np.empty(len(Q))
    # Overflow makes a screen row non-finite; such rows are searched in full below.
    with np.errstate(over="ignore", invalid="ignore"):
        g2 = np.einsum("ij,ij->i", G, G)
        q2 = np.einsum("ij,ij->i", Q, Q)
    for start in range(0, len(Q), rows):
        block = slice(start, start + rows)
        r = np.arange(len(Q[block]))
        with np.errstate(over="ignore", invalid="ignore"):
            norms = q2[block, None] + g2
            screen = norms - 2.0 * (Q[block] @ G.T)
            m = np.argmin(screen, axis=1)
            margin = tau * norms
            candidate = screen <= (screen[r, m] + margin[r, m] + floor)[:, None] + margin
            candidate[r, m] = True
            i, j = np.nonzero(candidate)
            d = np.sqrt(np.square(G[j] - Q[start + i]).sum(-1))
        # Per row, the smallest exact distance, then the smallest index.
        order = np.lexsort((j, d, i))
        first = order[np.searchsorted(i[order], r)]
        index[block], dist[block] = j[first], d[first]
        unscreened = ~(np.isfinite(screen).all(axis=1) & np.isfinite(dist[block]))
        for p in start + np.flatnonzero(unscreened):
            d = np.sqrt(np.square(G - Q[p]).sum(-1))
            index[p] = np.argmin(d)
            dist[p] = d[index[p]]
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


def classify(probe, gallery):
    """Label and distance of the nearest gallery feature.

    The probe must already be centered by the training mean.  Distance
    ties resolve to the smallest gallery index.
    """
    G = _gallery_planes(gallery)
    P = project(probe, gallery.basis, gallery.scheme)
    index, dist = _nearest(P.data[None], G)
    return gallery.labels[index[0]], float(dist[0])


def predict(test, gallery):
    """Predicted label of every test sample, in sample order."""
    if len(test) == 0:
        raise InvalidDataset("cannot predict on an empty sample set")
    G = _gallery_planes(gallery)
    basis = gallery.basis
    probes = project_stack(centered_stack(test, basis), basis, gallery.scheme, test.samples)
    index, _ = _nearest(probes, G)
    return [gallery.labels[i] for i in index]


def evaluate(test, gallery):
    """Fraction of test samples whose nearest neighbor shares their label."""
    if len(test) == 0:
        raise InvalidDataset("cannot evaluate on an empty sample set")
    predicted = predict(test, gallery)
    hits = sum(p == s.label for p, s in zip(predicted, test.samples))
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
    prefixes = _truncations(basis, K)
    # Checks run in the per-k order: all of k = 1's, then each larger k's weights.
    if len(train) == 0:
        raise InvalidDataset("cannot build a gallery from an empty sample set")
    X = _checked_stack(centered_stack(train, basis), basis, train.samples)
    weights = [_side_weights(prefixes[0], scheme)]
    if len(test) == 0:
        raise InvalidDataset("cannot evaluate on an empty sample set")
    Y = _checked_stack(centered_stack(test, basis), basis, test.samples)
    weights += [_side_weights(b, scheme) for b in prefixes[1:]]
    left, right = weights[-1]
    A, B = prefixes[-1].U.data * left, prefixes[-1].V.data * right
    G, Q = _project(X, A, B), _project(Y, A, B)
    labels = train.labels()
    accuracies = []
    for k in range(1, K + 1):
        index, _ = _nearest(Q[:, :, :k, :k], G[:, :, :k, :k])
        hits = sum(labels[i] == s.label for i, s in zip(index, test.samples))
        accuracies.append(hits / len(test))
    return accuracies
