"""Acceptance suite: one test per criterion, one summary line per result.

Each criterion prints ``A<n> <description>: PASS|FAIL`` through the
terminal-summary hook in conftest so the verdicts survive output capture.
"""

import contextlib
import math
import struct
import time

import numpy as np
import pytest

from quatpca import (
    FitParams,
    FormatError,
    MANNER_PRECEDENCE,
    QMatrix,
    QVector,
    Quaternion,
    SampleSet,
    SelectionConfig,
    WeightingScheme,
    build_gallery,
    center,
    covariance_baseline,
    deflated_residuals,
    evaluate,
    fit,
    load_basis,
    lp_update,
    mm_update,
    real_repr,
    real_scale,
    reconstruct_samples,
    reconstruction_ratio,
    save_basis,
    select_weighting,
    split,
    vabs,
    vsign,
)
from conftest import (
    max_principal_angle,
    planted_samples,
    random_qmatrix,
    random_qvector,
    separable_classes,
    stacked_right_singular_basis,
)

RESULTS = {}


@contextlib.contextmanager
def criterion(cid, desc):
    try:
        yield
    except BaseException:
        RESULTS[cid] = (desc, False)
        raise
    RESULTS[cid] = (desc, True)


def centered_random_set(seed, count, m, n):
    rng = np.random.default_rng(seed)
    mats = [random_qmatrix(rng, m, n) for _ in range(count)]
    return center(SampleSet.build([(str(t), F) for t, F in enumerate(mats)]))


def test_a1_ascent_monotonicity():
    with criterion("A1", "ascent objective nondecreasing over the (s, p) grid"):
        ss = centered_random_set(101, count=10, m=8, n=6)
        start = time.perf_counter()
        for s in (1.0, 1.5, 2.0, 3.0):
            for p in (0.5, 1.0, 2.0, math.inf):
                params = FitParams(s=s, p=p, k1=1, k2=1, tol=1e-8, max_iter=300)
                basis = fit(ss, params)
                for trace in basis.report.all_traces():
                    hist = trace.objective_history
                    for a, b in zip(hist, hist[1:]):
                        assert b >= a - 1e-10 * abs(a), (s, p, a, b)
        assert time.perf_counter() - start < 10.0


def test_a2_quadratic_fit_matches_eigen_oracles():
    with criterion("A2", "s=p=2 subspaces match two independent oracles"):
        rng = np.random.default_rng(202)
        values = (3.0, 2.0, 1.4, 1.0)
        ss, _ = planted_samples(rng, 9, 6, values=values, pairs=3)
        _, sv = stacked_right_singular_basis(ss.images(), 4)
        groups = sv[:16].reshape(4, 4)
        assert np.allclose(groups, groups[:, :1], rtol=1e-8)
        evals = groups[:, 0] ** 2
        for t in range(3):
            assert (evals[t] - evals[t + 1]) / evals[t] >= 0.10
        for k in (1, 2, 3):
            params = FitParams(s=2.0, p=2.0, k1=1, k2=k, tol=1e-10,
                               max_iter=2000)
            basis = fit(ss, params)
            _, W = covariance_baseline(ss, k)
            oracle, _ = stacked_right_singular_basis(ss.images(), k)
            assert max_principal_angle(basis.V, W) <= 1e-4
            assert max_principal_angle(basis.V, oracle) <= 1e-4
            assert max_principal_angle(W, oracle) <= 1e-7


def test_a3_real_representation_equivalence():
    with criterion("A3", "Hamilton products equal real-representation products"):
        rng = np.random.default_rng(303)
        for _ in range(100):
            m, n, k = (int(x) for x in rng.integers(1, 6, size=3))
            A = random_qmatrix(rng, m, n)
            v = random_qvector(rng, n)
            B = random_qmatrix(rng, n, k)
            lhs = (A @ v).to_real()
            rhs = A.real_repr() @ v.to_real()
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            lhs2 = (A @ B).real_repr()
            rhs2 = A.real_repr() @ B.real_repr()
            assert np.max(np.abs(lhs2 - rhs2)) <= 1e-12


def test_a4_orthonormality_and_unit_iterates():
    with criterion("A4", "fitted bases orthonormal, iterates unit Lp norm"):
        ss = centered_random_set(404, count=8, m=7, n=5)
        for s, p in ((2.0, 2.0), (1.5, 1.0), (2.0, math.inf),
                     (1.0, 0.5), (3.0, 3.0)):
            basis = fit(ss, FitParams(s=s, p=p, k1=3, k2=3, tol=1e-6))
            eye1 = QMatrix.eye(3)
            assert (basis.U.H @ basis.U - eye1).fro_norm() <= 1e-8
            assert (basis.V.H @ basis.V - eye1).fro_norm() <= 1e-8
            for trace in basis.report.all_traces():
                drift = np.abs(np.asarray(trace.pnorm_history) - 1.0)
                assert np.max(drift) <= 1e-10


def test_a5_deflation_annihilation():
    with criterion("A5", "extracted directions are annihilated in the data"):
        ss = centered_random_set(505, count=8, m=7, n=5)
        basis = fit(ss, FitParams(s=2.0, p=2.0, k1=3, k2=3, tol=1e-8))
        lefts, rights = deflated_residuals(ss, basis)
        for F, L, R in zip(ss.images(), lefts, rights):
            scale = F.fro_norm()
            for j in range(basis.k1):
                assert (L.H @ basis.U.col(j)).norm() <= 1e-8 * scale
            for j in range(basis.k2):
                assert (R @ basis.V.col(j)).norm() <= 1e-8 * scale


def test_a6_full_basis_reconstruction():
    with criterion("A6", "complete bases reconstruct the training images"):
        rng = np.random.default_rng(606)
        mats = [random_qmatrix(rng, 16, 12, pure=True) for _ in range(12)]
        raw = SampleSet.build([(f"c{t % 3}", F) for t, F in enumerate(mats)])
        start = time.perf_counter()
        basis = fit(center(raw), FitParams(s=2.0, p=2.0, k1=16, k2=12))
        recs = reconstruct_samples(raw, basis)
        ratio = reconstruction_ratio(raw, recs)
        assert time.perf_counter() - start < 5.0
        assert ratio >= 0.999


def test_a7_separable_recognition_and_selection():
    with criterion("A7", "disjoint-support classes recognized perfectly"):
        rng = np.random.default_rng(707)
        ss = separable_classes(rng, 16, 12, per_class=10)
        assert len(ss) == 20
        train, _, test = split(ss, (0.8, 0.0, 0.2), seed=1)
        ctrain = center(train)
        params = FitParams(s=2.0, p=2.0, k1=2, k2=2)
        basis = fit(ctrain, params)
        for manner in MANNER_PRECEDENCE:
            gallery = build_gallery(ctrain, basis, WeightingScheme(manner))
            assert evaluate(test, gallery) == 1.0
        protocol = SelectionConfig(repeats=3, seed=3)
        first = select_weighting(train, params, protocol)
        second = select_weighting(train, params, protocol)
        assert first == second


def test_a8_serialization_round_trip(tmp_path):
    with criterion("A8", "basis files round-trip bit-exact, corruption rejected"):
        rng = np.random.default_rng(808)
        mats = [random_qmatrix(rng, 5, 4, pure=True) for _ in range(6)]
        ss = center(SampleSet.build([(str(t % 2), F) for t, F in enumerate(mats)]))
        basis = fit(ss, FitParams(s=2.0, p=math.inf, k1=3, k2=2))
        path = tmp_path / "basis.bqp"
        save_basis(basis, path)
        back = load_basis(path)
        assert np.array_equal(back.U.data, basis.U.data)
        assert np.array_equal(back.V.data, basis.V.data)
        assert np.array_equal(back.d_left, basis.d_left)
        assert np.array_equal(back.d_right, basis.d_right)
        assert np.array_equal(back.mean.data, basis.mean.data)
        assert back.params.p == math.inf and back.params.s == 2.0

        blob = path.read_bytes()
        bad = tmp_path / "bad.bqp"
        corruptions = [
            b"WRONG" + blob[5:],                      # magic
            blob[:4] + struct.pack("<I", 7) + blob[8:],  # version
            blob[:3],                                  # truncated header
            blob[: len(blob) - 16],                    # truncated payload
            blob + b"\x00" * 4,                        # trailing bytes
        ]
        for payload in corruptions:
            bad.write_bytes(payload)
            with pytest.raises(FormatError):
                load_basis(bad)


def test_a9_sign_abs_algebra_and_branches():
    with criterion("A9", "sign/abs identities and the p=1, p=inf steps"):
        rng = np.random.default_rng(909)
        data = rng.standard_normal((4, 10000)) * 3.0
        data[:, :100] = 0.0  # exact zeros must stay zero
        v = QVector(data)
        mods = vabs(v)
        signs = vsign(v)
        sign_mods = vabs(signs)
        assert np.all((np.abs(sign_mods - 1.0) <= 1e-12) | (sign_mods == 0.0))
        assert np.array_equal(sign_mods == 0.0, mods == 0.0)
        rebuilt = real_scale(mods, signs)
        assert np.max(np.abs(rebuilt.data - v.data)) <= 1e-12

        y1 = QVector.from_entries([Quaternion(3.0), Quaternion(-1.0)])
        w1 = lp_update(y1, 1.0)
        assert w1.entry(0) == Quaternion(1.0)
        assert w1.entry(1) == Quaternion(0.0)

        y2 = QVector.from_entries([Quaternion(0.0, 0.0, 0.0, 2.0),
                                   Quaternion(0.0)])
        w2 = lp_update(y2, math.inf)
        assert w2.entry(0) == Quaternion(0.0, 0.0, 0.0, 1.0)
        assert w2.entry(1) == Quaternion(0.0)

        # same branches reached through a full ascent step: the diagonal
        # set has Gram diag(18, 2), so y = G w points mostly along e0
        diag = np.zeros((4, 3, 2))
        diag[1, 0, 0] = 3.0
        diag[2, 1, 1] = 1.0
        F = QMatrix(diag)
        ss = center(SampleSet.build([("a", F), ("b", -F)]))
        w = QVector.from_entries([Quaternion(1.0), Quaternion(1.0)]) * (0.5 ** 0.5)
        step1 = mm_update(w, ss, s=2.0, p=1.0)
        assert step1.entry(0) == Quaternion(1.0)
        stepinf = mm_update(w, ss, s=2.0, p=math.inf)
        assert stepinf.entry(0).isclose(Quaternion(1.0))
        assert stepinf.entry(1).isclose(Quaternion(1.0))


def planted_with_outliers(seed, outliers):
    """80 pure-quaternion 16 x 16 images of right rank 3, plus noise, some replaced by outliers.

    Each image is C diag(0.9, 0.6, 0.45) V0^T with C pure and N(0, 1) and V0 a real
    16 x 3 matrix with orthonormal columns, plus pure N(0, 0.05^2) noise, so it is a
    pure quaternion matrix, as a colour image is.  ``outliers`` images (every 20th)
    are replaced by dense pure N(0, 2^2) ones.  Returns the centred set and V0.
    """
    rng = np.random.default_rng(seed)
    n, d = 16, np.array([0.9, 0.6, 0.45])
    V0 = np.zeros((4, n, 3))
    V0[0] = np.linalg.qr(rng.standard_normal((n, 3)))[0]
    images = []
    for _ in range(80):
        C = rng.standard_normal((4, n, 3))
        C[0] = 0.0
        X = (C * d) @ V0[0].T + 0.05 * rng.standard_normal((4, n, n))
        X[0] = 0.0
        images.append(X)
    for i in range(outliers):
        images[20 * i] = 2.0 * rng.standard_normal((4, n, n))
        images[20 * i][0] = 0.0
    return center(SampleSet.build([("c", QMatrix(X)) for X in images])), QMatrix(V0)


def projector_distance(V, V0):
    """Spectral norm of the difference of the orthogonal projectors onto span V and span V0."""
    A, B = real_repr(V), real_repr(V0)
    return float(np.linalg.norm(A @ A.T - B @ B.T, 2))


def test_a10_low_s_resists_gross_outliers():
    with criterion("A10", "s < 2 resists gross outliers"):
        for seed in (0, 1, 2):
            errors = {}
            for outliers in (0, 4):
                ss, V0 = planted_with_outliers(seed, outliers)
                for s in (1.0, 2.0):
                    basis = fit(ss, FitParams(s=s, p=2.0, k1=3, k2=3))
                    errors[s, outliers] = projector_distance(basis.V, V0)
            assert errors[1.0, 0] <= 0.05 and errors[2.0, 0] <= 0.05, (seed, errors)
            assert errors[1.0, 4] <= 0.5 * errors[2.0, 4], (seed, errors)
