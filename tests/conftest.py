"""Shared test fixtures and independent oracles.

The oracles deliberately avoid the library's own eigensolver: subspace
comparisons go through numpy's SVD on real structure-preserving
representations, so solver results are cross-checked against a second,
unrelated code path.
"""

import sys

import numpy as np
import pytest

from quatpca import (
    DegenerateDirection,
    QMatrix,
    QVector,
    SampleSet,
    center,
    mgs_orthonormalize,
    real_repr,
)

# -- random builders ----------------------------------------------------


def random_qvector(rng, n, pure=False):
    data = rng.standard_normal((4, n))
    if pure:
        data[0] = 0.0
    return QVector(data)


def random_qmatrix(rng, m, n, pure=False):
    data = rng.standard_normal((4, m, n))
    if pure:
        data[0] = 0.0
    return QMatrix(data)


def random_orthonormal_columns(rng, n, k):
    """n x k quaternion matrix with orthonormal columns."""
    cols = []
    while len(cols) < k:
        try:
            cols.append(mgs_orthonormalize(random_qvector(rng, n), cols))
        except DegenerateDirection:  # pragma: no cover
            continue
    return QMatrix.from_columns(cols)


# -- synthetic sample sets ----------------------------------------------


def planted_samples(rng, m, n, values, pairs=4):
    """Centered set whose right Gram matrix is exactly V0 diag(values)^2 V0^*.

    Every sample F = A diag(values) V0^* with orthonormal-column A comes
    paired with -F, so the empirical mean is exactly zero and centering
    leaves the images bit-identical.  Returns (sample_set, V0).
    """
    k = len(values)
    V0 = random_orthonormal_columns(rng, n, k)
    d = np.asarray(values, dtype=float)
    labeled = []
    for i in range(pairs):
        A = random_orthonormal_columns(rng, m, k)
        F = A.scale_columns(d) @ V0.H
        labeled.append((f"c{i}", F))
        labeled.append((f"c{i}", -F))
    return center(SampleSet.build(labeled)), V0


def separable_classes(rng, m, n, per_class, spread=0.05):
    """Two classes with disjoint row support (upper half vs lower half)."""
    half = m // 2
    labeled = []
    for label, rows in (("top", slice(0, half)), ("bottom", slice(half, m))):
        base = np.zeros((4, m, n))
        base[1:, rows] = rng.random((3, rows.stop - rows.start, n)) + 0.5
        for _ in range(per_class):
            img = base.copy()
            img[1:, rows] += spread * rng.standard_normal(
                (3, rows.stop - rows.start, n))
            labeled.append((label, QMatrix(img)))
    return SampleSet.build(labeled)


# -- subspace oracles ---------------------------------------------------


def principal_angles(A, B):
    """Principal angles between realified column spans, ascending.

    Accepts quaternion matrices with orthonormal columns (their real
    representations then have orthonormal real columns) or plain real
    matrices with orthonormal columns.
    """
    Ra = A if isinstance(A, np.ndarray) else real_repr(A)
    Rb = B if isinstance(B, np.ndarray) else real_repr(B)
    cosines = np.linalg.svd(Ra.T @ Rb, compute_uv=False)
    return np.arccos(np.clip(cosines, -1.0, 1.0))


def max_principal_angle(A, B):
    return float(principal_angles(A, B).max())


def stacked_right_singular_basis(images, k):
    """Independent right-subspace oracle via numpy SVD.

    Stacks the real representations of all images vertically and returns
    (top 4k right-singular vectors as a 4n x 4k matrix, all singular
    values descending).  The span equals the realified span of the top-k
    quaternion eigenvectors of sum_i F_i^* F_i whenever the k-th and
    (k+1)-th quaternion singular values are distinct.
    """
    R = np.vstack([real_repr(F) for F in images])
    _, sv, Vh = np.linalg.svd(R, full_matrices=True)
    return Vh[: 4 * k].T, sv


# -- image files --------------------------------------------------------


def ppm_bytes(arr):
    """Canonical P6 bytes for an (h, w, 3) uint8 array."""
    arr = np.asarray(arr, dtype=np.uint8)
    h, w, _ = arr.shape
    return b"P6\n%d %d\n255\n" % (w, h) + arr.tobytes()


def write_image_tree(root, arrays_by_class):
    """Lay out a class-per-directory PPM tree under ``root`` (a Path)."""
    for label, arrays in arrays_by_class.items():
        d = root / label
        d.mkdir(parents=True, exist_ok=True)
        for t, arr in enumerate(arrays):
            (d / f"img{t:02d}.ppm").write_bytes(ppm_bytes(arr))


def random_rgb(rng, h, w):
    return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)


# -- acceptance summary -------------------------------------------------


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", {}) if mod else {}
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(results, key=lambda cid: int(cid[1:])):
        desc, ok = results[cid]
        terminalreporter.write_line(f"{cid} {desc}: {'PASS' if ok else 'FAIL'}")


# -- fixtures -----------------------------------------------------------


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def diag_samples():
    """Two +/- pairs of a pure 3x2 image with entries 3i at (0,0) and
    1j at (1,1).  The right Gram matrix over the set is diag(18, 2) and
    the left one is diag(18, 2, 0), all hand-derivable."""
    data = np.zeros((4, 3, 2))
    data[1, 0, 0] = 3.0
    data[2, 1, 1] = 1.0
    F = QMatrix(data)
    return center(SampleSet.build([("a", F), ("b", -F)]))
