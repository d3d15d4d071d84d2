"""Ascent solver: frozen hand values, MM monotonicity, deflation, baseline."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quatpca
from quatpca import (
    DegenerateDirection,
    FitParams,
    InvalidDataset,
    InvalidParameter,
    Manner,
    QMatrix,
    QVector,
    Quaternion,
    SampleSet,
    SelectionConfig,
    ShapeError,
    WeightingScheme,
    center,
    covariance_baseline,
    deflated_residuals,
    fit,
    hermitian_topk_eig,
    lp_norm,
    lp_update,
    mgs_orthonormalize,
    mm_update,
    objective,
    project,
    real_repr,
    reconstruct_samples,
    reconstruction_ratio,
    split,
    sweep_accuracies,
    sweep_ratios,
)
from quatpca.quaternion import plane_conj_transpose, plane_matmul
from quatpca.solver import (_deflated_evaluate, _GramObjective, _live, _StackObjective, _gram,
                            _wide)
from conftest import (
    max_principal_angle,
    planted_samples,
    random_orthonormal_columns,
    random_qmatrix,
    stacked_right_singular_basis,
)

TIGHT = FitParams(s=2.0, p=2.0, k1=2, k2=2, tol=1e-12)


def entries(*qs):
    return QVector.from_entries([q if isinstance(q, Quaternion) else Quaternion(q)
                                 for q in qs])


# -- parameter validation ----------------------------------------------


def test_fitparams_collects_all_violations():
    bad = FitParams(s=0.5, p=0.0, k1=0, k2=9, tol=-1.0, max_iter=0)
    problems = bad.violations(4, 3)
    assert len(problems) >= 6
    with pytest.raises(InvalidParameter):
        bad.validate(4, 3)


# Per rule: a numpy scalar inside the range, and a value that is no number.
_NUMPY_LEGAL = {"s": np.float32(1.5), "p": np.float32(0.5), "k1": np.int64(2),
                "k2": np.int32(2), "tol": np.float32(1e-3), "max_iter": np.uint16(7),
                "repeats": np.int64(2), "seed": np.int64(3)}


def _rule_problems(name, value):
    """What the public validator of ``name`` reports for ``value``."""
    if name in ("repeats", "seed"):
        try:
            SelectionConfig(**{name: value}).validate()
        except InvalidParameter as exc:
            return [str(exc)]
        return []
    return FitParams(**{"s": 2.0, "p": 2.0, "k1": 1, "k2": 1, name: value}).violations(3, 3)


@pytest.mark.parametrize("name", sorted(_NUMPY_LEGAL))
def test_rules_accept_numpy_scalars_and_name_non_numbers(name):
    assert _rule_problems(name, _NUMPY_LEGAL[name]) == []
    rule = {"s": "must satisfy 1 <= s < inf", "p": "must satisfy p > 0 or p = inf",
            "tol": "must satisfy 0 < tol < inf", "seed": "must be a nonnegative integer"}.get(
        name, "must be a positive integer")
    assert _rule_problems(name, "x") == [f"{name} {rule}, got x"]


def _count_entry_points():
    """Each public call that takes a count or a seed, as a function of that value."""
    rng = np.random.default_rng(57)
    raw = SampleSet.build([(label, random_qmatrix(rng, 3, 3, pure=True)) for label in "aabb"])
    c = center(raw)
    basis = fit(c, FitParams(s=2.0, p=2.0, k1=2, k2=2))
    G = QMatrix(np.eye(3)[None] * np.array([1.0, 0.0, 0.0, 0.0])[:, None, None])
    unweighted = WeightingScheme(Manner.UNWEIGHTED)
    return {
        "k1": lambda v: fit(c, FitParams(s=2.0, p=2.0, k1=v, k2=1)),
        "k2": lambda v: fit(c, FitParams(s=2.0, p=1.0, k1=1, k2=v)),
        "max_iter": lambda v: fit(c, FitParams(s=2.0, p=1.0, k1=1, k2=1, max_iter=v)),
        "covariance_baseline": lambda v: covariance_baseline(c, v),
        "hermitian_topk_eig": lambda v: hermitian_topk_eig(G, v),
        "sweep_ratios": lambda v: sweep_ratios(raw, basis, v),
        "sweep_accuracies": lambda v: sweep_accuracies(raw, raw, basis, unweighted, v),
        "truncated": lambda v: basis.truncated(v, 1),
        "take_cols": lambda v: G.take_cols(v),
        "repeats": lambda v: SelectionConfig(repeats=v).validate(),
        "seed": lambda v: split(raw, (0.5, 0.0, 0.5), seed=v),
        "selection seed": lambda v: SelectionConfig(seed=v).validate(),
    }


@pytest.mark.parametrize("value", [True, 1.5, 0])
@pytest.mark.parametrize("entry", sorted(_count_entry_points()))
def test_counts_reject_bools_and_non_integers(entry, value):
    # bool is an Integral, so only an explicit rule keeps True from
    # passing as 1; a float count used to reach numpy as a TypeError.  A
    # seed's range starts at 0, so -1 stands in for 0 there.
    if "seed" in entry and value == 0:
        value = -1
    with pytest.raises(InvalidParameter):
        _count_entry_points()[entry](value)


def test_fit_reads_numpy_scalars_like_python_numbers(diag_samples):
    params = FitParams(s=1.5, p=1.5, k1=2, k2=2, tol=1e-8, max_iter=50)
    scalars = FitParams(s=np.float64(1.5), p=np.float32(1.5), k1=np.int64(2), k2=np.int32(2),
                        tol=np.float64(1e-8), max_iter=np.uint16(50))
    assert FitParams(s=2.0, p=2.0, k1=np.int64(4), k2=1).violations(3, 2) == [
        "k1 must not exceed the image row count (4 > 3)"]
    ref, got = fit(diag_samples, params), fit(diag_samples, scalars)
    for a, b in ((ref.U, got.U), (ref.V, got.V)):
        assert np.array_equal(a.data, b.data)
    assert np.array_equal(ref.d_left, got.d_left) and np.array_equal(ref.d_right, got.d_right)


def test_fitparams_accepts_infinite_p():
    FitParams(s=2.0, p=math.inf, k1=1, k2=1).validate(3, 2)


def test_fitparams_dimension_bounds():
    with pytest.raises(InvalidParameter):
        FitParams(s=2.0, p=2.0, k1=4, k2=1).validate(3, 2)
    with pytest.raises(InvalidParameter):
        FitParams(s=2.0, p=2.0, k1=1, k2=3).validate(3, 2)


def test_fitparams_rejects_p_whose_iterates_underflow():
    # A unit-Lp vector of length 24 has an entry of at least 24^(-1/p), and
    # its square is a normal double down to p = 2 ln(24) / -ln(DBL_MIN).
    bound = 2.0 * math.log(24) / -math.log(sys.float_info.min)
    FitParams(s=2.0, p=bound, k1=1, k2=1).validate(24, 3)
    FitParams(s=2.0, p=bound, k1=1, k2=1).validate(3, 24)
    with pytest.raises(InvalidParameter, match=re.escape(
            "p must be at least 2 ln(max(m, n)) / 708.4 = 0.00897 on 3 x 24 images, got 0.0089")):
        FitParams(s=2.0, p=0.0089, k1=1, k2=1).validate(3, 24)
    assert FitParams(s=2.0, p=0.0089, k1=1, k2=1).violations() == []


# -- objective: hand values on the diagonal set -------------------------


def test_objective_hand_values(diag_samples):
    e0 = QVector.unit(2, 0)
    e1 = QVector.unit(2, 1)
    assert objective(diag_samples, e0, s=2.0) == pytest.approx(18.0)
    assert objective(diag_samples, e1, s=2.0) == pytest.approx(2.0)
    assert objective(diag_samples, e0, s=1.0) == pytest.approx(6.0)
    assert objective(diag_samples, e0, s=3.0) == pytest.approx(54.0)
    left = QVector.unit(3, 0)
    images = [F.H for F in diag_samples.images()]
    assert objective(images, left, s=2.0) == pytest.approx(18.0)


def test_objective_validation(diag_samples):
    e0 = QVector.unit(2, 0)
    with pytest.raises(InvalidParameter):
        objective(diag_samples, e0, s=0.5)
    with pytest.raises(InvalidParameter):
        objective(diag_samples, e0, s=math.inf)
    with pytest.raises(ShapeError):
        objective(diag_samples, QVector.unit(3, 0))


# -- sphere step: branch-by-branch -------------------------------------


def test_lp_update_p1_takes_largest_entry():
    w = lp_update(entries(3.0, -1.0), 1.0)
    assert w.entry(0) == Quaternion(1.0)
    assert w.entry(1) == Quaternion(0.0)


def test_lp_update_p1_keeps_sign_and_breaks_ties_low():
    w = lp_update(entries(-2.0, 2.0), 1.0)
    assert w.entry(0) == Quaternion(-1.0)
    assert w.entry(1) == Quaternion(0.0)


@pytest.mark.parametrize("scale", [1e-160, 1e200])
def test_lp_update_p1_sign_survives_squares_out_of_range(scale):
    # the squared moduli are subnormal at 1e-160 and overflow at 1e200
    y = entries(Quaternion(0.0, 3.0 * scale, 0.0, -4.0 * scale), 1e-3 * scale)
    with np.errstate(over="ignore"):
        w = lp_update(y, 1.0)
    assert w.entry(0).isclose(Quaternion(0.0, 0.6, 0.0, -0.8), tol=1e-15)
    assert w.entry(1) == Quaternion(0.0)


def test_lp_update_pinf_is_entrywise_sign():
    y = entries(Quaternion(0.0, 0.0, 0.0, 2.0), 0.0)
    w = lp_update(y, math.inf)
    assert w.entry(0) == Quaternion(0.0, 0.0, 0.0, 1.0)
    assert w.entry(1) == Quaternion(0.0)
    y2 = entries(3.0, Quaternion(0.0, -4.0, 0.0, 0.0))
    w2 = lp_update(y2, math.inf)
    assert w2.entry(0) == Quaternion(1.0)
    assert w2.entry(1) == Quaternion(0.0, -1.0, 0.0, 0.0)


def test_lp_update_p2_normalizes():
    y = entries(3.0, Quaternion(0.0, 0.0, 4.0, 0.0))
    w = lp_update(y, 2.0)
    assert w.entry(0).isclose(Quaternion(0.6))
    assert w.entry(1).isclose(Quaternion(0.0, 0.0, 0.8, 0.0))


def test_lp_update_mid_p_matches_direct_formula():
    y = entries(2.0, Quaternion(0.0, -1.0, 0.0, 0.0), 0.5)
    p = 1.5
    q = p / (p - 1.0)
    mods = y.abs()
    z = np.where(mods > 0, mods ** (q - 2.0), 0.0)
    expected = QVector(y.data * z[None, :])
    expected = expected / lp_norm(expected, p)
    assert lp_update(y, p).allclose(expected, tol=1e-12)


def test_lp_update_low_p_reweights_by_history():
    y = entries(1.0, 1.0)
    current = entries(0.9, Quaternion(0.1))
    w = lp_update(y, 0.5, current=current)
    assert lp_norm(w, 0.5) == pytest.approx(1.0)
    # the small current entry is damped by |current|^(1-p)
    assert w.abs()[0] > w.abs()[1]


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("c", [1 / 576, 3.7, 2.0 ** -40, 1e6])
def test_lp_update_low_p_ignores_the_scale_of_the_iterate(p, c):
    # A uniform reweighting (such as the moduli n^(-1/p) of the all-ones
    # start) cancels in the final normalization.
    rng = np.random.default_rng(63)
    y = QVector(rng.standard_normal((4, 9)))
    w = QVector(rng.standard_normal((4, 9)))
    want = lp_update(y, p, current=w).data
    got = lp_update(y, p, current=w * c).data
    assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()


def test_lp_update_low_p_masks_zero_entries():
    y = entries(1.0, 1.0)
    current = entries(1.0, 0.0)
    w = lp_update(y, 0.5, current=current)
    assert w.entry(1) == Quaternion(0.0)
    assert lp_norm(w, 0.5) == pytest.approx(1.0)


def test_lp_update_unit_norm_across_regimes(rng):
    y = QVector(rng.standard_normal((4, 6)))
    ref = QVector(rng.standard_normal((4, 6)))
    for p in (0.5, 1.0, 1.5, 2.0, 3.0, math.inf):
        w = lp_update(y, p, current=ref)
        assert lp_norm(w, p) == pytest.approx(1.0, abs=1e-10)


def test_lp_update_rejects_zero_and_bad_p():
    with pytest.raises(DegenerateDirection):
        lp_update(QVector.zeros(3), 2.0)
    with pytest.raises(InvalidParameter):
        lp_update(entries(1.0), 0.0)
    with pytest.raises(InvalidParameter):
        lp_update(entries(1.0), -2.0)


def test_lp_update_checks_the_current_iterate():
    with pytest.raises(ShapeError, match="^iterate length 2 does not match ascent vector length 3$"):
        lp_update(QVector.unit(3, 0), 2.0, current=QVector.unit(2, 0))
    with pytest.raises(InvalidParameter, match="^the 0 < p < 1 update needs the current iterate$"):
        lp_update(QVector.unit(3, 0), 0.5)


def test_lp_update_overflow_safe():
    # p -> 1+ makes the dual exponent q huge; without rescaling, moduli
    # above one would overflow under |y|^(q-2)
    w = lp_update(entries(30.0, 3.0), 1.001)
    assert lp_norm(w, 1.001) == pytest.approx(1.0)
    assert not np.any(np.isnan(w.data))
    assert w.abs()[0] > w.abs()[1]


# -- one ascent step ----------------------------------------------------


def test_mm_update_hand_case(diag_samples):
    w = entries(1.0, 1.0) / math.sqrt(2.0)
    nxt = mm_update(w, diag_samples, s=2.0, p=1.0)
    assert nxt.entry(0) == Quaternion(1.0)
    nxt = mm_update(w, diag_samples, s=2.0, p=math.inf)
    assert nxt.entry(0).isclose(Quaternion(1.0))
    assert nxt.entry(1).isclose(Quaternion(1.0))


def test_mm_update_never_decreases_objective(rng):
    mats = [random_qmatrix(rng, 6, 5) for _ in range(4)]
    ss = center(SampleSet.build([(str(t), F) for t, F in enumerate(mats)]))
    for s, p in ((1.0, 0.5), (1.5, 1.0), (2.0, 2.0), (3.0, math.inf)):
        start = QVector(rng.standard_normal((4, 5)))
        w = start / lp_norm(start, p)
        for _ in range(12):
            before = objective(ss, w, s=s)
            w = mm_update(w, ss, s=s, p=p)
            after = objective(ss, w, s=s)
            assert after >= before - 1e-10 * max(1.0, abs(before))
            assert lp_norm(w, p) == pytest.approx(1.0, abs=1e-10)


# -- whole fit ----------------------------------------------------------


def test_fit_frozen_diagonal(diag_samples):
    basis = fit(diag_samples, TIGHT)
    assert basis.d_right == pytest.approx([18.0, 2.0], rel=1e-8)
    assert basis.d_left == pytest.approx([18.0, 2.0], rel=1e-8)
    assert basis.V.col(0).abs()[0] == pytest.approx(1.0, abs=1e-6)
    assert basis.V.col(1).abs()[1] == pytest.approx(1.0, abs=1e-6)
    assert basis.U.col(0).abs()[0] == pytest.approx(1.0, abs=1e-6)
    assert basis.U.col(1).abs()[1] == pytest.approx(1.0, abs=1e-6)
    assert basis.mean.fro_norm() == 0.0
    assert (basis.U.H @ basis.U).allclose(QMatrix.eye(2), tol=1e-10)
    assert (basis.V.H @ basis.V).allclose(QMatrix.eye(2), tol=1e-10)


def test_fit_report_traces(diag_samples):
    basis = fit(diag_samples, TIGHT)
    traces = basis.report.all_traces()
    assert [t.side for t in traces] == ["right", "right", "left", "left"]
    assert [t.index for t in traces] == [0, 1, 0, 1]
    for trace in traces:
        assert trace.converged
        hist = trace.objective_history
        assert all(b >= a - 1e-10 * max(1.0, abs(a))
                   for a, b in zip(hist, hist[1:]))
        assert np.allclose(trace.pnorm_history, 1.0, atol=1e-10)
        assert trace.final_objective == pytest.approx(hist[-1], rel=1e-6)


def test_fit_requires_centered_set(rng):
    ss = SampleSet.build([("a", random_qmatrix(rng, 3, 2))])
    with pytest.raises(InvalidDataset):
        fit(ss, TIGHT)


def test_fit_checks_dimensions(diag_samples):
    with pytest.raises(InvalidParameter):
        fit(diag_samples, FitParams(s=2.0, p=2.0, k1=1, k2=3))




def test_fit_degenerate_direction_carries_index():
    data = np.zeros((4, 2, 2))
    data[1, 0, 0] = 3.0  # rank one: only a single right direction exists
    F = QMatrix(data)
    ss = center(SampleSet.build([("a", F), ("b", -F)]))
    with pytest.raises(DegenerateDirection) as err:
        fit(ss, FitParams(s=2.0, p=2.0, k1=1, k2=2, tol=1e-12))
    assert err.value.index == 1


def test_fit_degenerate_left_direction_carries_index():
    data = np.zeros((4, 2, 2))
    data[1, 0, 0] = 3.0  # rank one: only a single left direction exists
    F = QMatrix(data)
    ss = center(SampleSet.build([("a", F), ("b", -F)]))
    with pytest.raises(DegenerateDirection, match="left direction 1") as err:
        fit(ss, FitParams(s=2.0, p=2.0, k1=2, k2=1))
    assert err.value.index == 1


@pytest.mark.parametrize("side", ["right", "left"])
def test_eigensolve_rejects_round_off_rank(side):
    # Rank two up to round-off: the third Gram eigenvalue is noise, and
    # the fit raises instead of returning a null-space vector.
    rng = np.random.default_rng(37)
    Y = random_qmatrix(rng, 2, 5)
    mats = [random_qmatrix(rng, 5, 2) @ Y for _ in range(6)]
    if side == "left":
        mats = [F.H for F in mats]
    ss = center(SampleSet.build([(str(t), F) for t, F in enumerate(mats)]))
    k1, k2 = (1, 3) if side == "right" else (3, 1)
    with pytest.raises(DegenerateDirection, match=f"{side} direction 2") as err:
        fit(ss, FitParams(s=2.0, p=2.0, k1=k1, k2=k2))
    assert err.value.index == 2
    basis = fit(ss, FitParams(s=2.0, p=2.0, k1=min(k1, 2), k2=min(k2, 2)))
    assert basis.k1 == min(k1, 2) and basis.k2 == min(k2, 2)


# -- truncation ---------------------------------------------------------


def test_truncated_takes_prefixes(diag_samples):
    basis = fit(diag_samples, TIGHT)
    small = basis.truncated(1, 1)
    assert small.k1 == 1 and small.k2 == 1
    assert small.U.allclose(basis.U.take_cols(1))
    assert small.V.allclose(basis.V.take_cols(1))
    assert small.d_left == pytest.approx(basis.d_left[:1])
    assert small.d_right == pytest.approx(basis.d_right[:1])
    assert small.params.k1 == 1 and small.params.k2 == 1
    assert small.mean.allclose(basis.mean)


def test_truncated_bounds(diag_samples):
    basis = fit(diag_samples, TIGHT)
    with pytest.raises(InvalidParameter):
        basis.truncated(0, 1)
    with pytest.raises(InvalidParameter):
        basis.truncated(1, 3)


def test_basis_pair_checks_shapes(diag_samples):
    basis = fit(diag_samples, TIGHT)
    with pytest.raises(ShapeError, match=re.escape("d_left length (3,) does not match U columns 2")):
        replace(basis, d_left=np.ones(3))
    with pytest.raises(ShapeError, match=re.escape("mean shape (2, 3) does not match bases 3x2")):
        replace(basis, mean=QMatrix.zeros(2, 3))


# -- covariance baseline and planted spectra ----------------------------


def test_covariance_baseline_hand_values(diag_samples):
    evals, W = covariance_baseline(diag_samples, 2)
    assert evals == pytest.approx([9.0, 1.0])
    assert W.entry(0, 0).isclose(Quaternion(1.0), tol=1e-10)
    assert W.entry(1, 1).isclose(Quaternion(1.0), tol=1e-10)
    with pytest.raises(InvalidParameter):
        covariance_baseline(diag_samples, 3)


def test_covariance_baseline_checks_its_samples(rng):
    with pytest.raises(InvalidDataset, match="^need at least one sample$"):
        covariance_baseline([], 1)
    with pytest.raises(TypeError, match="^expected QMatrix samples, got ndarray$"):
        covariance_baseline([np.zeros((4, 3, 2))], 1)
    with pytest.raises(ShapeError, match=re.escape("samples have mixed shapes: (3, 2) vs (2, 2)")):
        covariance_baseline([random_qmatrix(rng, 3, 2), random_qmatrix(rng, 2, 2)], 1)


def test_fit_matches_planted_subspace(rng):
    ss, V0 = planted_samples(rng, 7, 5, values=(3.0, 2.0, 1.0), pairs=3)
    params = FitParams(s=2.0, p=2.0, k1=1, k2=3, tol=1e-10)
    basis = fit(ss, params)
    assert max_principal_angle(basis.V, V0) < 1e-5
    expected = len(ss) * np.array([9.0, 4.0, 1.0])
    assert basis.d_right == pytest.approx(expected, rel=1e-6)
    evals, W = covariance_baseline(ss, 3)
    assert evals == pytest.approx([9.0, 4.0, 1.0], rel=1e-10)
    # arccos resolves angles only down to ~1e-8, so 1e-7 is a tight bound
    assert max_principal_angle(W, V0) < 1e-7


# -- deflation ----------------------------------------------------------


def test_deflated_residuals_vanish_on_full_basis(diag_samples):
    basis = fit(diag_samples, TIGHT)
    lefts, rights = deflated_residuals(diag_samples, basis)
    for F, L, R in zip(diag_samples.images(), lefts, rights):
        scale = F.fro_norm()
        assert L.fro_norm() <= 1e-8 * scale
        assert R.fro_norm() <= 1e-8 * scale


def test_deflation_leaves_orthogonal_complement(rng):
    ss, V0 = planted_samples(rng, 6, 4, values=(5.0, 2.0), pairs=3)
    basis = fit(ss, FitParams(s=2.0, p=2.0, k1=1, k2=1, tol=1e-10))
    _, rights = deflated_residuals(ss, basis)
    v1 = basis.V.col(0)
    for R in rights:
        assert (R @ v1).norm() < 1e-8 * max(1.0, R.fro_norm())


# -- monotone ascent and stopping rules --------------------------------


def _random_centered(seed, count, m, n):
    rng = np.random.default_rng(seed)
    mats = [random_qmatrix(rng, m, n) for _ in range(count)]
    return center(SampleSet.build([(str(t), F) for t, F in enumerate(mats)]))


@pytest.mark.parametrize("seed, s", [(23, 1.0), (56, 2.0)])
def test_low_p_ascent_never_lowers_objective(seed, s):
    # Without the rejection rule the reweighted p = 0.5 step lowers the
    # objective on these sets: by 0.43 % at seed 23, and by 5.5e-6
    # (within the tolerance) at seed 56.
    ss = _random_centered(seed, count=10, m=8, n=6)
    basis = fit(ss, FitParams(s=s, p=0.5, k1=3, k2=3))
    traces = basis.report.all_traces()
    for trace in traces:
        hist = trace.objective_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))
    for trace in traces:
        hist = trace.objective_history
        assert len(hist) - 1 <= trace.iterations <= len(hist)
        assert trace.converged == (trace.stop_reason == "tolerance")
    rejected = [t for t in traces if t.stop_reason == "rejected step"]
    assert bool(rejected) == (seed == 23)


def _steep_tail_set(seed, classes=8, per_class=4, size=12, k=4, gap=0.02, tail=0.01, kappa=0.45):
    """Raw set of 8-bit images 0.5 + U0 diag(sigma_t alpha_it) V0^T, one term per RGB plane.

    U0 and V0 are real orthogonal, with every column meeting the all-ones
    start of the ascent equally; alpha_it are unit RGB coefficients around
    a class centre.  sigma puts the top k + 1 centred Gram eigenvalues
    ``gap`` apart and scales the rest by ``tail``, so a good rank-k basis
    carries most of the centred energy.
    """
    rng = np.random.default_rng(seed)

    def balanced_orthogonal():
        Q = np.linalg.qr(rng.standard_normal((size, size)))[0]
        ones = np.full(size, size ** -0.5)
        w = Q.T @ ones - ones
        return Q - 2.0 * np.outer(Q @ w, w) / (w @ w)

    def unit_rows(x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    U0, V0 = balanced_orthogonal(), balanced_orthogonal()
    mu = unit_rows(rng.standard_normal((classes, 1, size, 3)))
    alpha = unit_rows(mu + kappa * rng.standard_normal((classes, per_class, size, 3)))
    flat = alpha.reshape(-1, size, 3)
    target = (1.0 - gap) ** np.arange(size)
    target[k + 1:] *= tail
    sigma = np.sqrt(target / np.sum((flat - flat.mean(axis=0)) ** 2, axis=(0, 2)))
    x = np.einsum("it,ptx,jt->pxij", U0, flat * sigma[:, None], V0)
    x *= 0.1 / x.std()
    pixels = np.clip(np.rint((0.5 + x) * 255.0), 0, 255) / 255.0
    return SampleSet.build(
        (f"c{t // per_class}", QMatrix(np.concatenate([np.zeros((1, size, size)), P])))
        for t, P in enumerate(pixels))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_low_p_fit_reconstructs_steep_tail_data_beyond_the_mean(seed):
    # At (s, p) = (1, 0.5) this set's training reconstruction ratio beats
    # the mean-only ratio by 0.048-0.057 over seeds 0-2; the MM step
    # y (.) |w_t|^(2-p), which stops at a sparser maximiser, beats it by
    # only 0.019-0.025.
    raw = _steep_tail_set(seed)
    centred = center(raw)
    basis = fit(centred, FitParams(s=1.0, p=0.5, k1=4, k2=4))
    ratio = reconstruction_ratio(raw, reconstruct_samples(raw, basis))
    mean_only = reconstruction_ratio(raw, [centred.mean] * len(raw))
    assert ratio >= mean_only + 0.035


@pytest.mark.parametrize("s", [1.0, 2.0])
@pytest.mark.parametrize("p", [0.05, 0.02])
def test_small_p_fit_succeeds(s, p):
    # A unit-Lp iterate of length 12 can have an L2 norm as small as
    # 12^(1/2 - 1/p), below 1e-12 here.  On this set an absolute residual
    # threshold took the first direction for one already spanned.
    basis = fit(center(_steep_tail_set(2)), FitParams(s=s, p=p, k1=4, k2=4))
    for W in (basis.U, basis.V):
        assert (W.H @ W).allclose(QMatrix.eye(4), tol=1e-10)


def test_stop_reason_iteration_cap(diag_samples):
    # s = p = 2 is an eigensolve without iterations; p = 1.5 still ascends
    basis = fit(diag_samples, FitParams(s=2.0, p=1.5, k1=1, k2=1, tol=1e-12, max_iter=1))
    trace = basis.report.right[0]
    assert trace.stop_reason == "iteration cap"
    assert not trace.converged and trace.iterations == 1


# -- non-finite input ----------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_rejects_non_finite_sample(rng, bad):
    mats = [random_qmatrix(rng, 4, 3) for _ in range(4)]
    ss = center(SampleSet.build([(f"c{t}", F) for t, F in enumerate(mats)]))
    stack = np.array(ss.stack)
    stack[2, 1, 3, 0] = bad
    stack[3, 0, 0, 0] = bad
    with pytest.raises(InvalidDataset, match=r"sample 2 \(label 'c2'\)"):
        fit(replace(ss, stack=stack), TIGHT)


def test_project_rejects_non_finite_probe(diag_samples):
    basis = fit(diag_samples, TIGHT)
    data = np.zeros((4, 3, 2))
    data[2, 1, 0] = math.nan
    with pytest.raises(InvalidDataset, match="non-finite"):
        project(QMatrix(data), basis)


# -- stack kernel against a per-sample real-representation oracle -------


def _oracle_matrices(mats, side):
    """Real representations of the F_i (right) or of the F_i^* (left)."""
    return [real_repr(F) if side == "right" else real_repr(F).T for F in mats]


def _oracle_terms(mats, w, s, side):
    """f(w) and the ascent vector sum_i F_i^* (|P_i|^(s-2) (.) P_i), per sample."""
    f, y = 0.0, np.zeros(4 * w.n)
    for R in _oracle_matrices(mats, side):
        P = R @ w.to_real()
        A = np.sqrt(np.sum(P.reshape(4, -1) ** 2, axis=0))
        fac = np.array([a ** (s - 2.0) if a > 0.0 else 0.0 for a in A])
        f += float(np.sum(A ** s))
        y += R.T @ (P * np.tile(fac, 4))
    return f, y


def _samples_with_zero_lines(seed):
    rng = np.random.default_rng(seed)
    mats = [random_qmatrix(rng, 5, 4) for _ in range(6)]
    # a zero row gives F w = 0 there (right side); a zero column gives
    # u^* F = 0 there (left side); both exercise the A = 0 guard
    row = mats[1].data.copy()
    row[:, 2, :] = 0.0
    col = mats[4].data.copy()
    col[:, :, 3] = 0.0
    mats[1], mats[4] = QMatrix(row), QMatrix(col)
    return mats


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
def test_stack_kernel_matches_per_sample_oracle(side, s):
    mats = _samples_with_zero_lines(31)
    api_samples = mats if side == "right" else [F.H for F in mats]
    n = mats[0].n if side == "right" else mats[0].m
    rng = np.random.default_rng(32)
    for w in (QVector(rng.standard_normal((4, n))), QVector.unit(n, 0)):
        f_ref, y_ref = _oracle_terms(mats, w, s, side)
        assert objective(api_samples, w, s=s) == pytest.approx(f_ref, rel=1e-12)
        # at p = 2 the step is the ascent vector normalized to unit length
        step = mm_update(w, api_samples, s=s, p=2.0)
        assert np.max(np.abs(step.to_real() - y_ref / np.linalg.norm(y_ref))) <= 1e-12


def _gathered(S, side="right"):
    """(Hf, keep) of one side of the (l, 4, m, n) stack S, as fit gathers it."""
    return _wide(S, _live(S), side)


def _random_projector(width, seed):
    """Real representation of I - WW^* for a random W with two orthonormal columns."""
    W = random_orthonormal_columns(np.random.default_rng(seed), width, 2)
    return np.eye(4 * width) - real_repr(W) @ real_repr(W).T


def _deflated(mats, RP, side):
    """The samples whose stack is T P, P the planes of RP: F_i P on the right, P F_i on the left."""
    P = RP[:, :len(RP) // 4].reshape(4, len(RP) // 4, -1)
    return [QMatrix(plane_matmul(F.data, P) if side == "right" else plane_matmul(P, F.data))
            for F in mats]


def _assert_stack_matches_oracle(obj, mats, s, side, seed, RP=None):
    """obj agrees with the per-sample oracle on mats at a random and a unit w.

    Given RP, the evaluation is the one deflated by that projector.
    """
    width = mats[0].n if side == "right" else mats[0].m
    for w in (QVector(np.random.default_rng(seed).standard_normal((4, width))),
              QVector.unit(width, 0)):
        f, y = obj.evaluate(w.data) if RP is None else _deflated_evaluate(obj, RP, w.data)
        f_ref, y_ref = _oracle_terms(mats, w, s, side)
        assert f == pytest.approx(f_ref, rel=1e-12)
        assert np.max(np.abs(y.reshape(-1) - y_ref)) <= 1e-12


@pytest.mark.parametrize("side", ["right", "left"])
def test_stack_deflation_matches_per_sample_oracle(side):
    mats = _samples_with_zero_lines(33)
    RP = _random_projector(mats[0].n if side == "right" else mats[0].m, 34)
    obj = _StackObjective(_gathered(np.stack([F.data for F in mats]), side), 1.0)
    _assert_stack_matches_oracle(obj, _deflated(mats, RP, side), 1.0, side, 35, RP)


def _pure_samples(seed):
    rng = np.random.default_rng(seed)
    return [random_qmatrix(rng, 5, 4, pure=True) for _ in range(6)]


def _one_real_entry(seed):
    mats = _pure_samples(seed)
    data = mats[3].data.copy()
    data[0, 2, 1] = 0.75
    mats[3] = QMatrix(data)
    return mats


def _zero_samples(seed):
    return [QMatrix.zeros(5, 4) for _ in range(3)]


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("s", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("make, planes",
                         [(_pure_samples, 3), (_one_real_entry, 4), (_zero_samples, 1)])
def test_stack_planes_match_per_sample_oracle(side, s, make, planes):
    # A real plane zero everywhere is dropped, one nonzero entry keeps it,
    # and all-zero samples keep one plane; either way the deflated
    # objective fills the dropped planes of the iterate.
    mats = make(41)
    RP = _random_projector(mats[0].n if side == "right" else mats[0].m, 42)
    Hf, keep = _gathered(np.stack([F.data for F in mats]), side)
    assert len(keep) == planes
    obj = _StackObjective((Hf, keep), s)
    _assert_stack_matches_oracle(obj, mats, s, side, 43)
    _assert_stack_matches_oracle(obj, _deflated(mats, RP, side), s, side, 44, RP)


def _pure_with_zero_lines(seed):
    return [QMatrix(F.data * np.array([0.0, 1.0, 1.0, 1.0])[:, None, None])
            for F in _samples_with_zero_lines(seed)]


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("s", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("make", [_samples_with_zero_lines, _pure_with_zero_lines])
def test_stack_evaluation_with_zero_moduli_matches_oracle(side, s, make):
    # Zero lines make some moduli of T w exactly zero, before and after a
    # deflation, which the weight |P|^(s-2) must skip without a warning;
    # pure samples run the table folds on three planes, full ones on four.
    mats = make(46)
    width = mats[0].n if side == "right" else mats[0].m
    w = QVector(np.random.default_rng(47).standard_normal((4, width)))
    moduli = [np.sum((R @ w.to_real()).reshape(4, -1) ** 2, axis=0)
              for R in _oracle_matrices(mats, side)]
    assert any(np.any(a == 0.0) for a in moduli) and any(np.any(a > 0.0) for a in moduli)
    Hf, keep = _gathered(np.stack([F.data for F in mats]), side)
    assert len(keep) == (3 if make is _pure_with_zero_lines else 4)
    obj = _StackObjective((Hf, keep), s)
    _assert_stack_matches_oracle(obj, mats, s, side, 47)
    RP = _random_projector(width, 48)
    _assert_stack_matches_oracle(obj, _deflated(mats, RP, side), s, side, 47, RP)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("s", [1.0, 1.5, 3.0])
def test_zero_samples_have_no_ascent_direction(side, s):
    mats = _zero_samples(45)
    api_samples = mats if side == "right" else [F.H for F in mats]
    with pytest.raises(DegenerateDirection, match="ascent vector is zero"):
        mm_update(QVector.unit(api_samples[0].n, 0), api_samples, s=s, p=1.5)
    zeros = center(SampleSet.build([(str(t), F) for t, F in enumerate(api_samples)]))
    with pytest.raises(DegenerateDirection, match="ascent vector is zero"):
        fit(zeros, FitParams(s=s, p=1.5, k1=1, k2=1))


def test_gram_deflation_matches_oracle():
    mats = _samples_with_zero_lines(35)
    RP = _random_projector(mats[0].n, 36)
    P = RP[:, :mats[0].n].reshape(4, mats[0].n, -1)
    H = _gathered(np.stack([F.data for F in mats]))
    obj = _GramObjective(H)
    # The deflated ascent vectors of the unit vectors are the columns of P G P.
    deflated = np.column_stack([_deflated_evaluate(obj, RP, e.reshape(4, -1))[1].reshape(-1)
                                for e in np.eye(len(RP))])
    G = _gram(H)
    oracle = real_repr(QMatrix(plane_matmul(plane_matmul(P, G), P)))
    assert np.max(np.abs(deflated - oracle)) <= 1e-12 * max(1.0, np.abs(oracle).max())


# -- Gram path against the stack path ------------------------------------


def _stack_oracle_side(mats, count, params):
    """Reference ascent on the sample stack with the public one-step API."""
    vectors, values, iterations = [], [], []
    current = list(mats)
    n = current[0].n
    for _ in range(count):
        w = QVector.from_entries([1.0] * n)
        w = w / lp_norm(w, params.p)
        f = objective(current, w, s=params.s)
        for steps in range(1, params.max_iter + 1):
            w_new = mm_update(w, current, s=params.s, p=params.p)
            f_new = objective(current, w_new, s=params.s)
            delta = abs(f_new - f) / abs(f)
            lowered = f_new < f
            if not lowered:
                w, f = w_new, f_new
            if delta <= params.tol or lowered:
                break
        v = mgs_orthonormalize(w, vectors)
        values.append(objective(current, v, s=params.s))
        vectors.append(v)
        iterations.append(steps)
        W = QMatrix.from_columns(vectors)
        current = [F - (F @ W) @ W.H for F in current]
    return QMatrix.from_columns(vectors), np.array(values), iterations


def _gap_sets():
    rng = np.random.default_rng(4242)
    wide, _ = planted_samples(rng, 7, 6, values=(3.0, 2.0, 1.5, 1.0, 0.5), pairs=3)
    # Gram eigenvalues 2 % apart: a slow power iteration
    close, _ = planted_samples(rng, 7, 6, values=0.99 ** np.arange(5), pairs=3)
    return {"planted": wide, "small-gap": close}


@pytest.mark.parametrize("data", ["planted", "small-gap"])
@pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, math.inf])
def test_gram_fit_matches_stack_oracle(data, s, p):
    ss = _gap_sets()[data]
    params = FitParams(s=s, p=p, k1=3, k2=3)
    basis = fit(ss, params)
    mats = list(ss.images())
    V, d_right, right_iters = _stack_oracle_side(mats, 3, params)
    U, d_left, left_iters = _stack_oracle_side([F.H for F in mats], 3, params)
    assert [t.iterations for t in basis.report.right] == right_iters
    assert [t.iterations for t in basis.report.left] == left_iters
    assert basis.V.allclose(V, tol=1e-8)
    assert basis.U.allclose(U, tol=1e-8)
    assert basis.d_right == pytest.approx(d_right, rel=1e-8, abs=1e-8)
    assert basis.d_left == pytest.approx(d_left, rel=1e-8, abs=1e-8)


# -- s = p = 2: the exact eigensolve --------------------------------------


def _projector_distance(A, B):
    """Spectral norm of the difference of the realified column projectors."""
    Ra = A if isinstance(A, np.ndarray) else real_repr(A)
    Rb = B if isinstance(B, np.ndarray) else real_repr(B)
    return float(np.linalg.norm(Ra @ Ra.T - Rb @ Rb.T, 2))


@pytest.mark.parametrize("data", ["planted", "small-gap"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadratic_fit_matches_eigen_oracles(data, k):
    ss = _gap_sets()[data]
    basis = fit(ss, FitParams(s=2.0, p=2.0, k1=k, k2=k))
    images = list(ss.images())
    for W, d, mats in ((basis.V, basis.d_right, images),
                       (basis.U, basis.d_left, [F.H for F in images])):
        evals, E = covariance_baseline(mats, k)
        oracle, _ = stacked_right_singular_basis(mats, k)
        assert _projector_distance(W, E) <= 1e-10
        assert _projector_distance(W, oracle) <= 1e-10
        assert d == pytest.approx(len(ss) * evals, rel=1e-10)


def test_quadratic_fit_traces_name_the_eigensolve(diag_samples):
    basis = fit(diag_samples, FitParams(s=2.0, p=2.0, k1=2, k2=2))
    for trace, d in zip(basis.report.all_traces(),
                        np.concatenate([basis.d_right, basis.d_left])):
        assert trace.stop_reason == "eigensolve"
        assert trace.converged and trace.iterations == 0
        assert trace.objective_history == [trace.final_objective] == [d]
        assert trace.pnorm_history == pytest.approx([1.0], abs=1e-14)
    # tol and max_iter do not enter the eigensolve
    other = fit(diag_samples, FitParams(s=2.0, p=2.0, k1=2, k2=2, tol=0.5, max_iter=1))
    assert np.array_equal(other.V.data, basis.V.data)
    assert np.array_equal(other.U.data, basis.U.data)


def _gram_oracle(S, side):
    """sum_i F_i^* F_i (right) or sum_i F_i F_i^* (left) of the raw stack, by plane_matmul."""
    Fh = plane_conj_transpose(S)
    return (plane_matmul(Fh, S) if side == "right" else plane_matmul(S, Fh)).sum(axis=0)


@pytest.mark.parametrize("side", ["right", "left"])
def test_gram_matches_plane_matmul(side):
    rng = np.random.default_rng(38)
    for count, m, n in ((1, 1, 1), (5, 3, 7), (12, 9, 4)):
        S = rng.standard_normal((count, 4, m, n))
        ref = _gram_oracle(S, side)
        assert np.max(np.abs(_gram(_gathered(S, side)) - ref)) <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("mask, planes", [((0, 1, 1, 1), 3), ((0, 0, 1, 1), 2),
                                          ((1, 0, 1, 0), 3), ((0, 0, 0, 0), 1)])
def test_gram_of_zero_planes_matches_plane_matmul(side, mask, planes):
    # zero planes before the first or after the last live one are left
    # out of the block products
    rng = np.random.default_rng(39)
    S = rng.standard_normal((6, 4, 5, 3)) * np.array(mask, dtype=float)[:, None, None]
    Hf, keep = _gathered(S, side)
    assert len(keep) == planes
    ref = _gram_oracle(S, side)
    assert np.max(np.abs(_gram((Hf, keep)) - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())


# -- operand layout -------------------------------------------------------


def _at_offset(A, offset):
    """A C-contiguous copy of A whose data start ``offset`` bytes past a 64-byte boundary."""
    raw = np.empty(A.size + 8)
    start = (offset - raw.ctypes.data) % 64 // 8
    B = raw[start:start + A.size].reshape(A.shape)
    B[...] = A
    assert B.ctypes.data % 64 == offset
    return B


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("pure", [True, False])
def test_stack_operands_start_on_64_byte_boundaries(side, pure):
    rng = np.random.default_rng(81)
    for count, m, n in ((1, 1, 1), (3, 5, 7), (17, 9, 6)):
        S = np.stack([random_qmatrix(rng, m, n, pure=pure).data for _ in range(count)])
        Hf, keep = _gathered(S, side)
        assert len(keep) == (3 if pure else 4)
        assert Hf.flags.c_contiguous and Hf.ctypes.data % 64 == 0
        obj = _StackObjective((Hf, keep), 1.5)
        assert obj.P.flags.c_contiguous and obj.P.ctypes.data % 64 == 0


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("s", [1.0, 3.0])
@pytest.mark.parametrize("count", [5, 180])
def test_stack_evaluation_bytes_do_not_depend_on_alignment(side, s, count):
    # Alignment may change the speed of the two GEMMs, never their bytes:
    # 180 samples of 24 x 24 give L = 4 320 columns, above the size where
    # OpenBLAS leaves its small-matrix kernels.
    rng = np.random.default_rng(82)
    S = np.stack([random_qmatrix(rng, 24, 24, pure=True).data for _ in range(count)])
    Hf, keep = _gathered(S, side)
    w = rng.standard_normal((4, 24))
    f, y = _StackObjective((Hf, keep), s).evaluate(w)
    for offset in (0, 16, 32, 48):
        obj = _StackObjective((_at_offset(Hf, offset), keep), s)
        obj.P = _at_offset(obj.P, offset)
        f_off, y_off = obj.evaluate(w)
        assert f_off == f and y_off.tobytes() == y.tobytes()
        assert not np.shares_memory(y_off, obj.P)


# -- memory ---------------------------------------------------------------


@pytest.mark.parametrize("s, p", [(2.0, 2.0), (2.0, 1.0), (1.0, 1.5)])
def test_fit_gathers_each_side_once_without_the_zero_plane(s, p):
    # Each side's one large copy holds the three live planes of the colour
    # images, so a fit's traced peak stays below the four-plane stack;
    # copying the zero real plane, or a side twice, crosses it.
    rng = np.random.default_rng(71)
    ss = center(SampleSet.build([(str(t % 10), random_qmatrix(rng, 48, 40, pure=True))
                                 for t in range(100)]))
    tracemalloc.start()
    try:
        fit(ss, FitParams(s=s, p=p, k1=4, k2=4, max_iter=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ss.stack.nbytes


# -- data scale -----------------------------------------------------------


_SCALE_CASES = [(1.0, 0.5), (2.0, 1.0), (2.0, 2.0), (1.5, 1.5)]


def _scaled_pure_samples(scale):
    rng = np.random.default_rng(61)
    mats = [random_qmatrix(rng, 6, 5, pure=True) for _ in range(8)]
    base = center(SampleSet.build([(str(t % 4), F) for t, F in enumerate(mats)]))
    return replace(base, mean=QMatrix(base.mean.data * scale), stack=base.stack * scale)


@pytest.mark.parametrize("s, p", _SCALE_CASES)
@pytest.mark.parametrize("scale", [1e155, 1e-170])
def test_fit_rejects_data_beyond_the_safe_scale(s, p, scale):
    samples = _scaled_pure_samples(scale)
    peak = max(np.abs(x.image.data).max() for x in samples.samples)
    with pytest.raises(InvalidDataset, match=r"largest magnitude .* is %s, outside the "
                       r"safe range \[\S+, \S+\]" % re.escape(f"{peak:.3g}")):
        fit(samples, FitParams(s=s, p=p, k1=3, k2=3))
    with pytest.raises(InvalidDataset, match="safe range"):
        objective(list(samples.images()), QVector.unit(5, 0), s=s)


@pytest.mark.parametrize("s, p", _SCALE_CASES + [(2.0, 1.5)])
@pytest.mark.parametrize("exponent", [-510, -500, 500, 503])
def test_fit_is_invariant_to_power_of_two_scale(s, p, exponent):
    # Inside the safe range, up to near both of its ends, the fit runs the
    # same steps and returns the same bases; the objectives scale by
    # 2^(exponent s).  At s = 2 and 2^-510 the objective is near 1e-306,
    # where a guard of 1e-300 on the relative change would stop the
    # ascent at once.
    params = FitParams(s=s, p=p, k1=3, k2=3)
    ref = fit(_scaled_pure_samples(1.0), params)
    got = fit(_scaled_pure_samples(2.0 ** exponent), params)
    steps = [(t.iterations, t.stop_reason) for t in got.report.all_traces()]
    assert steps == [(t.iterations, t.stop_reason) for t in ref.report.all_traces()]
    assert np.max(np.abs(got.U.data - ref.U.data)) <= 1e-13
    assert np.max(np.abs(got.V.data - ref.V.data)) <= 1e-13
    factor = 2.0 ** (exponent * s)
    assert got.d_right / factor == pytest.approx(ref.d_right, rel=1e-13)
    assert got.d_left / factor == pytest.approx(ref.d_left, rel=1e-13)


def test_safe_scale_narrows_with_s():
    # at s = 3 the objective sums cubes, which overflow from 2^500 on
    params = FitParams(s=3.0, p=2.0, k1=2, k2=2)
    with pytest.raises(InvalidDataset, match="safe range"):
        fit(_scaled_pure_samples(2.0 ** 500), params)
    ref, got = fit(_scaled_pure_samples(1.0), params), fit(_scaled_pure_samples(2.0 ** 300), params)
    assert [t.iterations for t in got.report.all_traces()] == \
        [t.iterations for t in ref.report.all_traces()]
    assert got.d_right / 2.0 ** 900 == pytest.approx(ref.d_right, rel=1e-13)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, math.inf])
@pytest.mark.parametrize("exponent", [-600, 600])
def test_sphere_step_is_invariant_to_power_of_two_scale(p, exponent):
    # squares of the scaled ascent vector under- or overflow; the step
    # rescales it exactly, without a warning
    rng = np.random.default_rng(62)
    y = QVector(rng.standard_normal((4, 5)))
    ref = QVector(np.abs(rng.standard_normal((4, 5))))
    scaled = QVector(np.ldexp(y.data, exponent))
    want = lp_update(y, p, current=ref)
    assert np.array_equal(lp_update(scaled, p, current=ref).data, want.data)


# -- determinism across BLAS thread counts -------------------------------

_DIGEST_SCRIPT = """
import hashlib, sys
import numpy as np
from quatpca import FitParams, QMatrix, SampleSet, center, fit
rng = np.random.default_rng(77)
mats = [QMatrix(rng.standard_normal((4, 24, 20))) for _ in range(60)]
if sys.argv[2:] == ["pure"]:
    # colour pixels are pure quaternions: the real plane is zero
    mats = [QMatrix(F.data * np.array([0.0, 1.0, 1.0, 1.0])[:, None, None]) for F in mats]
ss = center(SampleSet.build([(str(t % 6), F) for t, F in enumerate(mats)]))
for s in (2.0, 1.0):
    b = fit(ss, FitParams(s=s, p=float(sys.argv[1]), k1=3, k2=3))
    h = hashlib.sha256()
    for arr in (b.U.data, b.V.data, b.d_left, b.d_right):
        h.update(np.ascontiguousarray(arr).tobytes())
    print(h.hexdigest())
"""


def _thread_digests(p, *samples):
    """Fit digests of _DIGEST_SCRIPT at sphere exponent p, under 1 and 2 BLAS threads.

    ``samples`` may be ("pure",) for samples with a zero real plane.
    """
    src = str(Path(quatpca.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, p, *samples], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.split())
    assert len(digests[0]) == 2
    return digests


def test_fit_bytes_independent_of_blas_threads():
    one, two = _thread_digests("1.5")
    assert one == two


def test_fit_bytes_independent_of_blas_threads_eigensolve():
    # p = 2: the s = 2 fit is the eigensolve, the s = 1 fit the MM ascent
    one, two = _thread_digests("2.0")
    assert one == two


def test_fit_bytes_independent_of_blas_threads_low_p():
    # p = 0.5 at s = 2 and s = 1: the robust sparse fits, whose s = 1
    # ascent products and deflations run as batched GEMMs.
    one, two = _thread_digests("0.5")
    assert one == two


def test_fit_bytes_independent_of_blas_threads_pure_quaternion():
    # p = 0.5 on samples with a zero real plane: the s = 1 ascent drops
    # that plane of its stack.
    one, two = _thread_digests("0.5", "pure")
    assert one == two


# The s = p = 2 eigensolve at 64 x 64, order 4n = 256, where OpenBLAS's
# eigh may split its sums by the thread count: the basis is printed as hex
# bytes, then the two sweeps as the CLI writes them.
_FACE_SIZE_SCRIPT = """
import numpy as np
from quatpca import (FitParams, Manner, QMatrix, SampleSet, WeightingScheme, center, fit,
                     split, sweep_accuracies, sweep_ratios)
rng = np.random.default_rng(64)
images = rng.uniform(0.0, 1.0, (400, 4, 64, 64))
images[:, 0] = 0.0
data = SampleSet.build([(str(t % 20), QMatrix(F)) for t, F in enumerate(images)])
train, _, test = split(data, (0.5, 0.0, 0.5), 7)
basis = fit(center(train), FitParams(s=2.0, p=2.0, k1=8, k2=8))
print(basis.U.data.tobytes().hex(), basis.V.data.tobytes().hex())
print(*(f"{r:.6f}" for r in sweep_ratios(train, basis, 8)))
scheme = WeightingScheme(Manner.UNWEIGHTED)
print(*(f"{a:.6f}" for a in sweep_accuracies(train, test, basis, scheme, 8)))
"""


def test_face_size_eigensolve_and_sweeps_agree_across_blas_threads():
    # The bases may differ in their last bits; the sweeps, at the CLI's six
    # decimals, may not.
    src = str(Path(quatpca.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _FACE_SIZE_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(out.stdout.splitlines())
    (bases, ratios, accuracies), other = runs
    assert len(ratios.split()) == len(accuracies.split()) == 8
    assert [ratios, accuracies] == other[1:]
    for one, two in zip(bases.split(), other[0].split()):
        one, two = (np.frombuffer(bytes.fromhex(h)) for h in (one, two))
        assert one.size == 4 * 64 * 8
        assert np.max(np.abs(one - two)) <= 1e-12
