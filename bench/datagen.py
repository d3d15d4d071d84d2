"""Seeded synthetic class-per-directory PPM datasets for the benchmark.

numpy only.  Every image of a dataset is

    F_i = base + U0 diag(sigma_t * alpha_it) V0^T        (per RGB plane)

with random real orthonormal U0 (m x r) and V0 (n x r), r = min(m, n),
whose columns all meet the all-ones start vector of the fit equally,
and unit pure-quaternion coefficients alpha_it = normalize(mu_ct + kappa z)
around a class centre mu_ct.  Because U0 and V0 are real and orthonormal,
both sample Gram matrices sum_i F_i^* F_i and sum_i F_i F_i^* of any
centered subset are diagonal in (V0, U0) with entries sigma_t^2 times the
centered coefficient energy.  sigma_t is scaled so that, on the training
split the CLI draws, the top k+1 of those entries fall geometrically by
``gap``: they sit a fixed few percent apart whatever the seed, which
keeps iteration counts and subspace errors steady from seed to seed.
The remaining entries are scaled down by ``tail``; at 0.01 a correct
rank-k basis carries nearly 90 percent of the centered energy, so a
reconstruction that misses it scores visibly worse.  8-bit quantisation
moves each gap by up to about 0.05 percentage points; the gaps of the
written pixels are measured by :func:`gram_gaps`.

Run ``python3 bench/datagen.py --workload fit-s2p2 --seed 1 --out DIR`` to
write one dataset and print its metadata.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

# Mean pixel value and pixel standard deviation (on the 0..1 scale) of
# the images; 0.5 / 0.1 leaves five standard deviations before clipping.
BASE = 0.5
AMPLITUDE = 0.1


def train_mask(classes, per_class, fractions, split_seed):
    """Which samples the stratified split puts in the training part.

    Mirrors ``quatpca.split``: classes in sorted label order draw one
    permutation each from one generator seeded with ``split_seed``; the
    first ``n_train`` indices of the permutation form the training part.
    """
    rng = np.random.default_rng(split_seed)
    fr_train, fr_val, fr_test = fractions
    n_val = max(1, math.floor(fr_val * per_class)) if fr_val > 0 else 0
    n_test = max(1, math.floor(fr_test * per_class)) if fr_test > 0 else 0
    n_train = per_class - n_val - n_test if fr_train > 0 else 0
    mask = np.zeros((classes, per_class), dtype=bool)
    for c in range(classes):
        mask[c, rng.permutation(per_class)[:n_train]] = True
    return mask


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _balanced_orthogonal(rng, n):
    """Random orthogonal n x n matrix whose columns all have inner product 1/sqrt(n) with the unit all-ones vector.

    The fit starts every direction from the all-ones vector, so each
    planted eigenvector gets the same share of the start whatever the
    seed: a random basis would sometimes leave one nearly unexcited.
    """
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    ones = np.full(n, 1.0 / math.sqrt(n))
    w = Q.T @ ones - ones
    H = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
    return Q @ H


def make_images(seed, spec):
    """uint8 RGB images of shape (classes, per_class, m, n, 3) for a seed."""
    rng = np.random.default_rng(seed)
    C, P, m, n = spec["classes"], spec["per_class"], spec["m"], spec["n"]
    r = min(m, n)
    U0 = _balanced_orthogonal(rng, m)[:, :r]
    V0 = _balanced_orthogonal(rng, n)[:, :r]
    mu = _unit_rows(rng.standard_normal((C, 1, r, 3)))
    alpha = _unit_rows(mu + spec["kappa"] * rng.standard_normal((C, P, r, 3)))

    # Centered coefficient energy of each component on the training split.
    train = alpha[train_mask(C, P, spec["split"], spec["split_seed"])]
    energy = np.sum((train - train.mean(axis=0)) ** 2, axis=(0, 2))
    target = (1.0 - spec["gap"]) ** np.arange(r)
    target[spec["k"] + 1:] *= spec["tail"]
    sigma = np.sqrt(target / energy)

    x = np.einsum("it,cptx,jt->cpijx", U0, alpha * sigma[:, None], V0)
    x *= AMPLITUDE / x.std()
    return np.clip(np.rint((BASE + x) * 255.0), 0, 255).astype(np.uint8)


def class_name(c):
    return f"c{c:03d}"


def write_dataset(root, images):
    """One directory per class, one binary P6 file per image; returns bytes written."""
    root = Path(root)
    C, P, m, n, _ = images.shape
    header = b"P6\n%d %d\n255\n" % (n, m)
    total = 0
    for c in range(C):
        cdir = root / class_name(c)
        cdir.mkdir(parents=True, exist_ok=True)
        for i in range(P):
            blob = header + images[c, i].tobytes()
            (cdir / f"{i:03d}.ppm").write_bytes(blob)
            total += len(blob)
    return total


def _complex_adjoint(planes):
    """Complex adjoint [[Z1, Z2], [-conj Z2, conj Z1]] of quaternion planes (..., 4, m, n)."""
    z1 = planes[..., 0, :, :] + 1j * planes[..., 1, :, :]
    z2 = planes[..., 2, :, :] + 1j * planes[..., 3, :, :]
    top = np.concatenate([z1, z2], axis=-1)
    bottom = np.concatenate([-z2.conj(), z1.conj()], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def gram_eigenvalues(images, mask, count):
    """Top ``count`` eigenvalues of the right and left Gram matrices of the masked, centered images.

    Each quaternion eigenvalue appears twice in the complex adjoint, so
    every second eigenvalue is kept.
    """
    x = images[mask].astype(np.float64) / 255.0           # (l, m, n, 3)
    x = x - x.mean(axis=0)
    planes = np.concatenate([np.zeros_like(x[..., :1]), x], axis=-1)
    A = _complex_adjoint(np.moveaxis(planes, -1, 1))       # (l, 2m, 2n)
    right = np.einsum("lai,laj->ij", A.conj(), A)
    left = np.einsum("lia,lja->ij", A, A.conj())
    out = {}
    for side, G in (("right", right), ("left", left)):
        evals = np.linalg.eigvalsh(G)[::-1][::2]
        out[side] = evals[:count]
    return out


def gram_gaps(images, spec, k):
    """Relative gaps (lam_t - lam_t+1) / lam_t among the top k+1 training-split Gram eigenvalues."""
    mask = train_mask(spec["classes"], spec["per_class"], spec["split"], spec["split_seed"])
    evals = gram_eigenvalues(images, mask, k + 1)
    return {side: [float(g) for g in (ev[:-1] - ev[1:]) / ev[:-1]] for side, ev in evals.items()}


def mean_only_ratio(images, spec):
    """The reconstruction ratio of the training split when every image is rebuilt as the training mean.

    A reconstruct stage that ignored the basis would score this; the
    gap to ``recon_ratio`` is what the basis contributes.
    """
    mask = train_mask(spec["classes"], spec["per_class"], spec["split"], spec["split_seed"])
    x = images[mask].astype(np.float64) / 255.0
    residual = np.sqrt(np.sum((x - x.mean(axis=0)) ** 2, axis=(1, 2, 3)))
    return float(np.mean(1.0 - residual / np.sqrt(np.sum(x * x, axis=(1, 2, 3)))))


def describe(images, spec, k):
    """Image count, shape, the planted-spectrum gaps and the mean-only ratio of one generated dataset."""
    C, P, m, n, _ = images.shape
    gaps = gram_gaps(images, spec, k)
    return {
        "images": int(C * P),
        "classes": int(C),
        "shape": [int(m), int(n)],
        "gap_planted": spec["gap"],
        "gaps_right": gaps["right"],
        "gaps_left": gaps["left"],
        "min_gap": min(gaps["right"] + gaps["left"]),
        "mean_only_ratio": mean_only_ratio(images, spec),
    }


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the dataset into")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    images = make_images(args.seed, spec)
    write_dataset(args.out, images)
    print(json.dumps(describe(images, spec, spec["k"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
