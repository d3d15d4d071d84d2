"""Tests of the benchmark itself.

    python3 -m pytest bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import datagen  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "classes": 4, "per_class": 4, "m": 8, "n": 6,
    "split": (0.5, 0.0, 0.5), "split_seed": 3,
    "gap": 0.05, "tail": 0.01, "kappa": 0.8,
    "s": 2.0, "p": 2.0, "k": 2, "repeats": 1,
}


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    spec = WORKLOADS["select-gallery"]
    datagen.write_dataset(tmp_path / "a", datagen.make_images(5, spec))
    datagen.write_dataset(tmp_path / "b", datagen.make_images(5, spec))
    datagen.write_dataset(tmp_path / "c", datagen.make_images(6, spec))
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert len(a) == spec["classes"] * spec["per_class"]
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_train_mask_and_gaps_match_quatpca(tmp_path):
    import quatpca as qp

    images = datagen.make_images(2, TINY)
    datagen.write_dataset(tmp_path, images)
    train, _, _ = qp.split(qp.load_dataset(tmp_path), TINY["split"], TINY["split_seed"])
    mask = datagen.train_mask(TINY["classes"], TINY["per_class"], TINY["split"], TINY["split_seed"])
    expected = sorted(f"{datagen.class_name(c)}/{i:03d}.ppm" for c, i in zip(*np.nonzero(mask)))
    assert sorted(Path(s.source).relative_to(tmp_path).as_posix() for s in train.samples) == expected

    centered = qp.center(train)
    right, _ = qp.covariance_baseline(centered, 3)
    left, _ = qp.covariance_baseline([F.H for F in centered.images()], 3)
    gaps = datagen.gram_gaps(images, TINY, 2)
    np.testing.assert_allclose(gaps["right"], (right[:-1] - right[1:]) / right[:-1], atol=1e-9)
    np.testing.assert_allclose(gaps["left"], (left[:-1] - left[1:]) / left[:-1], atol=1e-9)
    # The planted spectrum survives 8-bit quantisation.
    np.testing.assert_allclose(gaps["right"] + gaps["left"], TINY["gap"], atol=5e-3)


def test_metric_names_and_workloads_are_well_formed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(NAME.fullmatch(name) for name in {**run.E2E_UNITS, **run.LAYER_UNITS})
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)


def test_tracer_self_time_and_missing_target():
    tracer = Tracer()
    tracer.wrap_function("quatpca.no_such_module", "gone", "x.gone")
    tracer.wrap_function("quatpca.no_such_module", "gone", "x.gone")
    assert tracer.missing == ["quatpca.no_such_module.gone"]
    tracer.open("a.outer")
    tracer.open("b.inner")
    tracer.close()
    tracer.close()
    outer, inner = tracer.spans
    outer.start, outer.end, inner.start, inner.end = 0.0, 1.0, 0.25, 0.5
    assert tracer.self_times() == [0.75, 0.25]
    (summary,) = summarize(tracer, [0])
    assert summary["calls"]["x.gone"] == 0
    assert summary["layer_self_s"] == {"a": 0.75, "b": 0.25}


@pytest.mark.parametrize("trace, options", [
    (0, {"sweep": False, "export": True}),
    (1, {"sweep": True, "export": False}),
])
def test_smoke_runs_every_stage_and_check(monkeypatch, capsys, trace, options):
    monkeypatch.setitem(WORKLOADS, "smoke", {**TINY, **options})
    assert run.main(["--workload", "smoke", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # 4 stage exits, 2 orthonormality, round trip, monotone, manner, 3 ranges,
    # plus export count or two sweep row counts; traced runs repeat the pipeline.
    per_pipeline = 12 + (2 if options["sweep"] else 1)
    assert result["attempted"] >= per_pipeline * (1 + trace)
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["solver.fit.calls"] == 2 and values["dataset.load_dataset.calls"] == 4
        assert values["weighting.projections_per_image"] == 4.0
        assert values["recognition.distances"] > 0 and values["quaternion.matmul.calls"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fit-s2p2", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
