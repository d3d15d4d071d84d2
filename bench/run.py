#!/usr/bin/env python3
"""quatpca benchmark: the four CLI stages on a seeded synthetic dataset.

    python3 bench/run.py --workload fit-s2p2 --seed 1 --seconds 30 --trace 0

Set-up generates the workload's class-per-directory PPM dataset from the
seed, writes the CLI config and imports quatpca in a fresh interpreter;
it is repeated and its median reported as ``setup_s``.  The run then
drives ``quatpca.cli.main`` in a closed loop, one client and one stage at
a time (fit -> select-weighting -> recognize -> reconstruct), repeating
the whole pipeline until ``--seconds`` would be exceeded.  A pipeline
runs the four stages once each, back to back; ``pipeline_s`` is the sum
of those four calls.  After them, a stage shorter than MIN_STAGE_S runs
again until its calls fill MIN_STAGE_S, so every stage time is a median
over several calls.  Every stage call and every output check counts as
one attempted operation.

Host speed.  On a shared host the same code runs up to ~1.7x slower,
switching within milliseconds and drifting over minutes, so that a whole
run may see no quiet second; raw medians of such runs spread by up to
35 % from run to run, and so do medians restricted to calls that fast
probes bracket.  Every timed call (and every set-up) is therefore
bracketed by a fixed speed probe and reported in reference seconds:

    t_ref = t_wall * (REF_PROBE_S / mean of the two probes) ** SPEED_EXPONENT

REF_PROBE_S is the probe's quiet-host time (the 10th to 30th percentiles
of 300 consecutive readings on a 2-vCPU Xeon host lie at 11.1-11.8 ms);
on a quiet host t_ref equals t_wall.  SPEED_EXPONENT is the elasticity
of stage time to probe time: under contention the stages slow less than
the probe, by a measured elasticity of 0.5-0.9 depending on the stage,
and 0.75 is used for all.  Every wall time and probe reading is kept in
the run record, and the wall-clock medians are printed beside the
metrics.

With ``--trace 1`` pipelines alternate between untraced and traced.  The
spans (see ``tracing``) are installed just before each traced pipeline
and removed right after it, so the untraced pipelines run the same code
as a ``--trace 0`` run.  The run reports per-layer metrics, with
``trace.overhead_s`` the median over traced pipelines of their time
minus the mean of the untraced pipelines on either side.  It is a
difference of noisy times and reads below zero when the tracing costs
less than the noise.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the environment block.  A full record
(environment, dataset gaps, every sample) and, for traced runs, the spans
go to ``.bench_work/results/``.  BLAS and OpenMP run single-threaded.
"""

import os

# Must be set before numpy loads; recorded in the environment block.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from datagen import describe, make_images, write_dataset  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STAGES = ("fit", "select", "recognize", "reconstruct")
SETUP_REPEATS = 5
MIN_STAGE_S = 0.5

# Speed probe: small quaternion-plane products, like quatpca's inner
# loops; see the module docstring for the two constants.
PROBE_ROUNDS = 400
_PROBE_PLANES = np.random.default_rng(0).standard_normal((2, 4, 24, 24))
REF_PROBE_S = 0.0115
SPEED_EXPONENT = 0.75
KNOWN_MANNERS = {"unweighted", "weighted-left", "weighted-right", "weighted-both"}
ORTHONORMAL_TOL = 1e-10
# MM ascent never lowers the objective; allow relative round-off only.
MONOTONE_RTOL = 1e-10

# Metric names and units as BENCHMARK.json declares them.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

LAYERS = ("cli", "dataset", "solver", "qlinalg", "quaternion", "weighting",
          "recognition", "reconstruction")


# -- timing -------------------------------------------------------------


def speed_probe():
    """Seconds the fixed reference loop takes right now."""
    a, b = _PROBE_PLANES
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        c = np.stack([a[0] @ b[0] - a[1] @ b[1] - a[2] @ b[2] - a[3] @ b[3],
                      a[0] @ b[1] + a[1] @ b[0] + a[2] @ b[3] - a[3] @ b[2]])
        float(np.sqrt(np.sum(c * c)))
    return time.perf_counter() - start


def reference_seconds(wall, probe_before, probe_after):
    return wall * (REF_PROBE_S / (0.5 * (probe_before + probe_after))) ** SPEED_EXPONENT


# -- set-up -------------------------------------------------------------


def write_config(path, spec, data_root):
    split = ", ".join(str(x) for x in spec["split"])
    lines = [
        f"dataset.root = {data_root}",
        f"dataset.split = [{split}]",
        f"dataset.seed = {spec['split_seed']}",
        f"model.s = {spec['s']}",
        f"model.p = {spec['p']}",
        f"model.k1 = {spec['k']}",
        f"model.k2 = {spec['k']}",
        f"selection.repeats = {spec['repeats']}",
    ]
    path.write_text("\n".join(lines) + "\n")


def set_up(spec, seed, work):
    """Generate and write the dataset, write the config, import quatpca; returns seconds and images."""
    start = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    images = make_images(seed, spec)
    nbytes = write_dataset(work / "data", images)
    write_config(work / "run.cfg", spec, work / "data")
    subprocess.run([sys.executable, "-c", "import quatpca"], env={**os.environ, "PYTHONPATH": str(SRC)},
                   cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start, images, nbytes


# -- one pipeline -------------------------------------------------------


class FitCapture:
    """Stands in for the ``fit`` that ``quatpca.cli`` calls and keeps its result.

    BQP1 files hold no FitReport, so the objective histories come from
    here.  Keeping the reference adds no timed work.
    """

    def __init__(self, fit):
        self.fit = fit
        self.basis = None

    def __call__(self, *args, **kwargs):
        self.basis = self.fit(*args, **kwargs)
        return self.basis


@contextlib.contextmanager
def capturing_fit(cli):
    """Wrap whatever ``cli.fit`` is now (the traced one in a traced pipeline)."""
    capture = FitCapture(cli.fit)
    cli.fit = capture
    try:
        yield capture
    finally:
        cli.fit = capture.fit


def stage_argv(stage, spec, work):
    cfg = str(work / "run.cfg")
    basis = str(work / "model.bqp")
    k = str(spec["k"])
    if stage == "fit":
        return ["fit", "--config", cfg, "--basis", basis, "--report", str(work / "fit.txt")]
    if stage == "select":
        return ["select-weighting", "--config", cfg, "--manifest", str(work / "manifest.json")]
    if stage == "recognize":
        argv = ["recognize", "--config", cfg, "--basis", basis, "--csv", str(work / "recognize.csv")]
        return argv + (["--sweep", k] if spec["sweep"] else [])
    argv = ["reconstruct", "--config", cfg, "--basis", basis]
    if spec["sweep"]:
        argv += ["--sweep", k, "--csv", str(work / "reconstruct.csv")]
    if spec["export"]:
        argv += ["--export", str(work / "export")]
    return argv


def run_stage(cli, argv):
    """Run one CLI command in this process; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing stage is a failed operation, not a crashed benchmark
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


class Checks:
    """Counts attempted and failed output checks and keeps the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


def _fraction_ok(x):
    return x is not None and math.isfinite(x) and 0.0 <= x <= 1.0


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_pipeline(qp, spec, work, outputs, fitted, checks):
    """Check the stages' output files and stdout; returns the quality numbers they carry."""
    k = spec["k"]
    quality = {}

    try:
        basis = qp.load_basis(work / "model.bqp")
    except qp.QuatPcaError as exc:
        checks.check("basis loads", False, str(exc))
        return quality
    quality["objective"] = float(basis.d_left.sum() + basis.d_right.sum())
    for side, W in (("U", basis.U), ("V", basis.V)):
        err = (W.H @ W - qp.QMatrix.eye(W.n)).fro_norm()
        checks.check(f"{side} orthonormal", err <= ORTHONORMAL_TOL, f"||{side}*{side} - I|| = {err:.3e}")
    if fitted is not None:
        same = all(np.array_equal(a, b) for a, b in (
            (basis.U.data, fitted.U.data), (basis.V.data, fitted.V.data),
            (basis.d_left, fitted.d_left), (basis.d_right, fitted.d_right),
            (basis.mean.data, fitted.mean.data)))
        checks.check("basis round trip", same, "loaded basis differs from the fitted one")
        worst = 0.0
        for trace in fitted.report.all_traces() if fitted.report is not None else []:
            h = np.asarray(trace.objective_history)
            drops = (h[:-1] - h[1:]) / np.maximum(np.abs(h[:-1]), 1e-300)
            worst = max(worst, float(drops.max(initial=0.0)))
        checks.check("objective monotone", worst <= MONOTONE_RTOL,
                     f"largest relative objective drop {worst:.3e}")

    try:
        manifest = json.loads((work / "manifest.json").read_text())
        manner = manifest["weighting"]["manner"]
        if checks.check("manifest manner", manner in KNOWN_MANNERS, f"unknown manner {manner!r}"):
            quality["select_acc"] = float(manifest["scores"][manner])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        checks.check("manifest readable", False, repr(exc))

    rec_out, con_out = outputs["recognize"], outputs["reconstruct"]
    if spec["sweep"]:
        for name, path, col in (("accuracy", "recognize.csv", 1), ("recon_ratio", "reconstruct.csv", 2)):
            try:
                rows = _read_csv_rows(work / path)
            except OSError as exc:
                checks.check(f"{path} readable", False, repr(exc))
                continue
            if checks.check(f"{path} rows", len(rows) == k, f"{len(rows)} rows, expected {k}"):
                quality[name] = float(rows[-1][col])
    else:
        match = re.search(r"^accuracy: (\S+) ", rec_out, re.M)
        quality["accuracy"] = float(match.group(1)) if match else None
        match = re.search(r"^ratio: (\S+) over (\d+) ", con_out, re.M)
        quality["recon_ratio"] = float(match.group(1)) if match else None
        if spec["export"] and match:
            written = len(list((work / "export").glob("*.ppm")))
            checks.check("export count", written == int(match.group(2)),
                         f"{written} images exported, expected {match.group(2)}")
    for name in ("accuracy", "recon_ratio", "select_acc"):
        checks.check(f"{name} in [0, 1]", _fraction_ok(quality.get(name)), f"{quality.get(name)}")
    return quality


# -- subspace error -----------------------------------------------------


def projector_distance(W, E):
    """Spectral norm of W W* - E E*, through the real representation."""
    D = (W @ W.H - E @ E.H).real_repr()
    return float(np.linalg.norm(D, 2))


def subspace_error(qp, spec, work, basis):
    """Largest distance of the fitted U, V to the top-k Gram eigenspaces of the training split."""
    data = qp.load_dataset(work / "data")
    train, _, _ = qp.split(data, spec["split"], spec["split_seed"])
    centered = qp.center(train)
    k = spec["k"]
    _, V_ref = qp.covariance_baseline(centered, k)
    _, U_ref = qp.covariance_baseline([F.H for F in centered.images()], k)
    return max(projector_distance(basis.V, V_ref), projector_distance(basis.U, U_ref))


# -- tracing ------------------------------------------------------------


@contextlib.contextmanager
def spans_installed(tracer, qp, dataset_bytes):
    """Wrap the public names each layer is reached through, and unwrap them on exit."""

    def after_load(t, args, result):
        t.count("dataset.bytes_read", dataset_bytes)

    def after_split(t, args, result):
        if t.inside("weighting.score_weightings"):
            t.count("selection.images", len(args[0]))

    def after_fit(t, args, result):
        traces = result.report.all_traces() if result.report is not None else []
        t.count("solver.iterations", sum(tr.iterations for tr in traces))
        t.count("solver.cap_hits", sum(1 for tr in traces if not tr.converged))
        t.maximum("solver.iter_max", max((tr.iterations for tr in traces), default=0))

    def after_project(t, args, result):
        if t.inside("weighting.score_weightings"):
            t.count("selection.projections")

    def after_evaluate(t, args, result):
        t.count("recognition.distances", len(args[0]) * len(args[1]))

    def after_classify(t, args, result):
        if not t.inside("recognition.evaluate"):
            t.count("recognition.distances", len(args[1]))

    spans = [
        ("quatpca.dataset", "load_dataset", "dataset.load_dataset", after_load),
        ("quatpca.dataset", "split", "dataset.split", after_split),
        ("quatpca.dataset", "center", "dataset.center", None),
        ("quatpca.dataset", "save_basis", "dataset.save_basis", None),
        ("quatpca.dataset", "load_basis", "dataset.load_basis", None),
        ("quatpca.dataset", "export_image", "dataset.export_image", None),
        ("quatpca.solver", "fit", "solver.fit", after_fit),
        ("quatpca.qlinalg", "mgs_orthonormalize", "qlinalg.mgs", None),
        ("quatpca.weighting", "project", "weighting.project", after_project),
        ("quatpca.weighting", "score_weightings", "weighting.score_weightings", None),
        ("quatpca.recognition", "build_gallery", "recognition.build_gallery", None),
        ("quatpca.recognition", "evaluate", "recognition.evaluate", after_evaluate),
        ("quatpca.recognition", "classify", "recognition.classify", after_classify),
        ("quatpca.reconstruction", "reconstruct", "reconstruction.reconstruct", None),
        ("quatpca.reconstruction", "reconstruct_samples", "reconstruction.reconstruct_samples", None),
        ("quatpca.reconstruction", "reconstruction_ratio", "reconstruction.ratio", None),
    ]
    for module, attr, name, after in spans:
        tracer.wrap_function(module, attr, name, after)
    tracer.wrap_method(qp.QMatrix, "__matmul__", "quaternion.matmul")
    try:
        yield
    finally:
        tracer.unwrap()


def layer_metrics(summary):
    calls, total, own = summary["calls"], summary["total_s"], summary["self_s"]
    counters = summary["counters"]
    iterations = counters.get("solver.iterations", 0)
    images = counters.get("selection.images", 0)
    m = {f"cli.{stage}.self_s": own.get(f"cli.{stage}", 0.0) for stage in STAGES}
    m.update({
        "dataset.load_dataset.calls": calls.get("dataset.load_dataset", 0),
        "dataset.load_dataset.s": total.get("dataset.load_dataset", 0.0),
        "dataset.bytes_read": counters.get("dataset.bytes_read", 0),
        "dataset.split_center.s": total.get("dataset.split", 0.0) + total.get("dataset.center", 0.0),
        "dataset.basis_io.s": total.get("dataset.save_basis", 0.0) + total.get("dataset.load_basis", 0.0),
        "dataset.export_image.s": total.get("dataset.export_image", 0.0),
        "solver.fit.calls": calls.get("solver.fit", 0),
        "solver.fit.s": total.get("solver.fit", 0.0),
        "solver.iterations": iterations,
        "solver.iter_max": counters.get("solver.iter_max", 0),
        "solver.cap_hits": counters.get("solver.cap_hits", 0),
        "solver.ms_per_iter": 1000.0 * total.get("solver.fit", 0.0) / iterations if iterations else 0.0,
        "qlinalg.mgs.calls": calls.get("qlinalg.mgs", 0),
        "qlinalg.mgs.s": total.get("qlinalg.mgs", 0.0),
        "quaternion.matmul.calls": calls.get("quaternion.matmul", 0),
        "quaternion.matmul.s": total.get("quaternion.matmul", 0.0),
        "weighting.project.calls": calls.get("weighting.project", 0),
        "weighting.project.s": total.get("weighting.project", 0.0),
        "weighting.score_weightings.self_s": own.get("weighting.score_weightings", 0.0),
        "weighting.projections_per_image":
            counters.get("selection.projections", 0) / images if images else 0.0,
        "recognition.build_gallery.s": total.get("recognition.build_gallery", 0.0),
        "recognition.evaluate.s": total.get("recognition.evaluate", 0.0),
        "recognition.classify.calls": calls.get("recognition.classify", 0),
        "recognition.classify.s": total.get("recognition.classify", 0.0),
        "recognition.distances": counters.get("recognition.distances", 0),
        "reconstruction.reconstruct.calls": calls.get("reconstruction.reconstruct", 0),
        "reconstruction.reconstruct_samples.s": total.get("reconstruction.reconstruct_samples", 0.0),
        "reconstruction.ratio.s": total.get("reconstruction.ratio", 0.0),
    })
    m.update({f"{layer}.self_s": summary["layer_self_s"].get(layer, 0.0) for layer in LAYERS})
    return m


# -- environment --------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "quatpca").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, spec):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "split_seed": spec["split_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- main ---------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="quatpca CLI-pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_quatpca():
    """Import quatpca from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import quatpca
    import quatpca.cli

    if Path(quatpca.__file__).resolve().parent != (SRC / "quatpca").resolve():
        raise ImportError(f"quatpca imported from {quatpca.__file__}, not from {SRC}")
    return quatpca, quatpca.cli


class StageTimer:
    """Runs CLI calls, each between two speed probes, and keeps wall and reference seconds."""

    def __init__(self, cli, spec, work, checks):
        self.cli, self.spec, self.work, self.checks = cli, spec, work, checks
        self.probe = None

    def start(self):
        """Take the probe before the first call of a pipeline."""
        self.probe = speed_probe()

    def call(self, stage, sample, tracer=None):
        """One checked CLI call; returns (exit code ok, stdout)."""
        if tracer is not None:
            tracer.open(f"cli.{stage}")
        seconds, code, out, err = run_stage(self.cli, stage_argv(stage, self.spec, self.work))
        if tracer is not None:
            tracer.close()
        after = speed_probe()
        sample.setdefault(f"{stage}_wall_s", []).append(seconds)
        sample.setdefault(f"{stage}_s", []).append(reference_seconds(seconds, self.probe, after))
        sample.setdefault(f"{stage}_probe_s", []).append(after)
        self.probe = after
        ok = self.checks.check(f"{stage} exit", code == 0, f"exit {code}: {err.strip()[-500:]}")
        return ok, out


def run_pipeline(timer, qp, cli, tracer, dataset_bytes, traced):
    """The four stages back to back, then repeats of the short ones; returns the sample, stdouts and basis."""
    sample = {"run_id": tracer.run_id, "traced": traced}
    outputs = {}
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(spans_installed(tracer, qp, dataset_bytes))
        capture = stack.enter_context(capturing_fit(cli))
        timer.start()
        for stage in STAGES:
            _, outputs[stage] = timer.call(stage, sample, tracer if traced else None)
        sample["pipeline_s"] = sum(sample[f"{stage}_s"][0] for stage in STAGES)
        sample["pipeline_wall_s"] = sum(sample[f"{stage}_wall_s"][0] for stage in STAGES)
        if not traced:
            for stage in STAGES:
                ok = True
                while ok and sum(sample[f"{stage}_wall_s"]) < MIN_STAGE_S:
                    ok, outputs[stage] = timer.call(stage, sample)
    return sample, outputs, capture.basis


def measure(args, spec, work, qp, cli, tracer, dataset_bytes):
    """Run pipelines until the time is up; returns samples, checks and the first pipeline's results."""
    checks = Checks()
    timer = StageTimer(cli, spec, work, checks)
    samples = []
    first = None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        tracer.run_id = len(samples)
        loop_start = time.perf_counter()
        sample, outputs, basis = run_pipeline(timer, qp, cli, tracer, dataset_bytes, traced)
        quality = check_pipeline(qp, spec, work, outputs, basis, checks)
        if first is None:
            first = (quality, basis)
        else:
            checks.check("repeat identical", quality == first[0], f"{quality} != {first[0]}")
        sample["loop_s"] = time.perf_counter() - loop_start
        samples.append(sample)
        # A traced run alternates untraced and traced pipelines and ends on an untraced one.
        enough = not args.trace or (len(samples) >= 3 and len(samples) % 2 == 1)
        median = statistics.median(s["loop_s"] for s in samples)
        if enough and time.perf_counter() + median > deadline:
            return samples, checks, first


def end_to_end_metrics(qp, spec, work, setups, samples, first):
    quality, basis = first
    metrics = {"setup_s": statistics.median(s["s"] for s in setups)}
    metrics["pipeline_s"] = statistics.median(s["pipeline_s"] for s in samples)
    for stage in STAGES:
        metrics[f"{stage}_s"] = statistics.median(t for s in samples for t in s[f"{stage}_s"])
    for name in ("accuracy", "recon_ratio", "select_acc", "objective"):
        metrics[name] = quality.get(name)
    metrics["subspace_err"] = subspace_error(qp, spec, work, basis) if basis is not None else None
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer_metrics(tracer, samples):
    """Medians over the traced pipelines, with times in reference seconds like the stage times."""
    traced = [s for s in samples if s["traced"]]
    per_run = []
    for sample, summary in zip(traced, summarize(tracer, [s["run_id"] for s in traced])):
        scale = sample["pipeline_s"] / sample["pipeline_wall_s"]
        per_run.append({name: value * scale if LAYER_UNITS[name] in ("s", "ms") else value
                        for name, value in layer_metrics(summary).items()})
    metrics = {}
    for name in per_run[0]:
        # Counts report an observed value, not the mean of two.
        median = statistics.median if LAYER_UNITS[name] in ("s", "ms", "ratio") else statistics.median_low
        metrics[name] = median(run[name] for run in per_run)
    # Each traced pipeline against the mean of the untraced ones on either side.
    overheads = [s["pipeline_s"] - 0.5 * (samples[i - 1]["pipeline_s"] + samples[i + 1]["pipeline_s"])
                 for i, s in enumerate(samples) if s["traced"]]
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "quatpca" / "__init__.py").is_file():
        print(f"error: no quatpca sources at {SRC / 'quatpca'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    work = WORK / args.workload

    setups = []
    probe = speed_probe()
    for _ in range(SETUP_REPEATS):
        wall, images, dataset_bytes = set_up(spec, args.seed, work)
        after = speed_probe()
        setups.append({"wall_s": wall, "s": reference_seconds(wall, probe, after), "probe_s": after})
        probe = after
    qp, cli = import_quatpca()

    tracer = Tracer()
    samples, checks, first = measure(args, spec, work, qp, cli, tracer, dataset_bytes)
    if args.trace:
        metrics, units = per_layer_metrics(tracer, samples), LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(qp, spec, work, setups, samples, first), E2E_UNITS

    env = environment(args, spec)
    record = {"environment": env, "dataset": describe(images, spec, spec["k"]),
              "setup_s": setups, "samples": samples, "failures": checks.failures,
              "missing_spans": tracer.missing, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    failed = len(checks.failures)
    for name, value in metrics.items():
        print(f"{name:40s} {value!s:>24} {units[name]}")
    walls = {stage: [t for s in samples for t in s[f"{stage}_wall_s"]] for stage in STAGES}
    print("wall-clock medians: " + ", ".join(
        f"{stage} {statistics.median(ts):.4g} s (n={len(ts)})" for stage, ts in walls.items()))
    print(f"samples: {len(samples)} pipelines ({sum(s['traced'] for s in samples)} traced), "
          f"{len(setups)} set-ups; checks: {checks.attempted} attempted, {failed} failed")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"environment": env}))
    result = {
        "correct": failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
