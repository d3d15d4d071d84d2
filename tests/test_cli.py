"""Command-line pipeline: config handling, commands, exit codes, artifacts."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quatpca
import quatpca.cli
from quatpca import (
    ConfigError,
    FitParams,
    InvalidParameter,
    Manner,
    QMatrix,
    SelectionConfig,
    Transform,
    WeightingScheme,
    build_gallery,
    evaluate,
    export_image,
    load_basis,
    load_dataset,
    reconstruct_samples,
    reconstruction_ratio,
    save_basis,
    split,
)
from quatpca.cli import main, parse_config
from conftest import random_rgb, write_image_tree


def class_image(rng, bright_rows):
    img = random_rgb(rng, 8, 6)
    img[bright_rows] = np.minimum(img[bright_rows] // 4 + 180, 255)
    return img


@pytest.fixture
def workspace(tmp_path, rng):
    root = tmp_path / "data"
    write_image_tree(root, {
        "ana": [class_image(rng, slice(0, 4)) for _ in range(8)],
        "ben": [class_image(rng, slice(4, 8)) for _ in range(8)],
    })
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"""# pipeline settings
dataset.root = {root}
dataset.split = [0.75, 0, 0.25]
dataset.seed = 5

model.s = 2
model.p = 2
model.k1 = 2
model.k2 = 2
""")
    return {"root": root, "cfg": cfg, "tmp": tmp_path,
            "basis": tmp_path / "fitted.bqp"}


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def fit_workspace(capsys, ws):
    rc, out, err = run(capsys, ["fit", "--config", str(ws["cfg"]),
                                "--basis", str(ws["basis"])])
    assert rc == 0, err
    return out


# -- config parsing -----------------------------------------------------


def test_parse_config_reads_every_key(tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("""
# comment line

dataset.root = ./faces
dataset.split = [0.6, 0.2, 0.2]
dataset.seed = 11
model.s = 1.5
model.p = inf
model.k1 = 3
model.k2 = 4
model.tol = 1e-6
model.max_iter = 250
weighting.manner = weighted-both
weighting.transform = inverse-log
selection.repeats = 5
""")
    parsed = parse_config(cfg)
    assert parsed.root == "./faces"
    assert parsed.split == (0.6, 0.2, 0.2)
    assert parsed.seed == 11
    assert parsed.s == 1.5
    assert parsed.p == math.inf
    assert (parsed.k1, parsed.k2) == (3, 4)
    assert parsed.tol == 1e-6
    assert parsed.max_iter == 250
    assert parsed.manner == Manner.WEIGHTED_BOTH
    assert parsed.transform == Transform.INVERSE_LOG
    assert parsed.repeats == 5


def test_trailing_comment_ends_a_value_but_an_inner_hash_stays(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dataset.root = ./a#b  # note\n")
    assert parse_config(cfg).root == "./a#b"


def test_parse_config_collects_every_problem(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("""model.p = 0
bogus.key = 1
model.k1 = -3
dataset.split = [0.5, 0.5]
just some words
model.p = 2
""")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    messages = "\n".join(err.value.messages)
    assert len(err.value.messages) == 6
    assert "model.p" in messages
    assert "unknown key 'bogus.key'" in messages
    assert "model.k1" in messages
    assert "dataset.split" in messages
    assert "expected 'key = value'" in messages
    assert "duplicate key 'model.p'" in messages


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "none.cfg")


def test_split_must_sum_to_one(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dataset.split = [0.5, 0.4, 0.2]\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


# Every key with a range rule, and an illegal value for it.
_RANGE_KEYS = [("model.s", "0.5"), ("model.p", "-1"), ("model.k1", "0"), ("model.k2", "-2"),
               ("model.tol", "0"), ("model.max_iter", "0"), ("selection.repeats", "0"),
               ("dataset.seed", "-1")]


def library_message(key, value, root):
    """What the library's own validator says of ``value`` for the field behind ``key``."""
    field = key.split(".")[1]
    with pytest.raises(InvalidParameter) as err:
        if key == "dataset.seed":
            split(load_dataset(root), (0.75, 0, 0.25), value)
        elif key == "selection.repeats":
            SelectionConfig(repeats=value).validate()
        else:
            FitParams(**{"s": 2.0, "p": 2.0, "k1": 1, "k2": 1, field: value}).validate()
    return str(err.value)


@pytest.mark.parametrize("key, raw", _RANGE_KEYS)
def test_config_range_errors_quote_the_library_rule(workspace, capsys, key, raw):
    field = key.split(".")[1]
    value = float(raw) if field in ("s", "p", "tol") else int(raw)
    message = library_message(key, value, workspace["root"])
    prefix, suffix = f"{field} ", f", got {value}"
    assert message.startswith(prefix) and message.endswith(suffix), message
    rule = message[len(prefix):-len(suffix)]
    cfg = workspace["tmp"] / "range.cfg"
    cfg.write_text(f"dataset.root = {workspace['root']}\n{key} = {raw}\n")
    assert run(capsys, ["fit", "--config", str(cfg), "--basis", str(workspace["basis"])]) == (
        2, "", f"error: {key}: {rule}, got {raw}\n")


_COMMANDS = ["fit", "select-weighting", "recognize", "reconstruct"]


def command_argv(command, cfg, ws):
    argv = [command, "--config", str(cfg)]
    if command == "select-weighting":
        return argv + ["--manifest", str(ws["tmp"] / "manifest.json")]
    return argv + ["--basis", str(ws["basis"])]


@pytest.mark.parametrize("command", _COMMANDS)
def test_negative_seed_is_a_config_error(workspace, capsys, command):
    fit_workspace(capsys, workspace)
    cfg = workspace["tmp"] / "seed.cfg"
    cfg.write_text(workspace["cfg"].read_text().replace("dataset.seed = 5", "dataset.seed = -1"))
    assert run(capsys, command_argv(command, cfg, workspace)) == (
        2, "", "error: dataset.seed: must be a nonnegative integer, got -1\n")


@pytest.mark.parametrize("command", _COMMANDS)
def test_empty_training_split_is_one_error_for_every_command(workspace, capsys, command):
    fit_workspace(capsys, workspace)
    cfg = workspace["tmp"] / "no-train.cfg"
    cfg.write_text(workspace["cfg"].read_text().replace("[0.75, 0, 0.25]", "[0, 0.5, 0.5]"))
    assert run(capsys, command_argv(command, cfg, workspace)) == (
        1, "", "error: the training split is empty\n")


# -- fit ----------------------------------------------------------------


def test_fit_writes_basis_and_reports(workspace, capsys):
    report = workspace["tmp"] / "fit.txt"
    rc, out, err = run(capsys, ["fit", "--config", str(workspace["cfg"]),
                                "--basis", str(workspace["basis"]),
                                "--report", str(report)])
    assert rc == 0
    assert "fit: s=2 p=2 k1=2 k2=2" in out
    assert "split: train=12 seed=5" in out
    assert "right[0]: objective=" in out and "left[1]: objective=" in out
    assert "converged=yes" in out
    assert report.read_text().strip() == out.strip()
    basis = load_basis(workspace["basis"])
    assert (basis.m, basis.n, basis.k1, basis.k2) == (8, 6, 2, 2)


def test_fit_reports_iteration_cap(workspace, capsys):
    cfg = workspace["tmp"] / "capped.cfg"
    # s = p = 2 is an eigensolve without iterations; p = 1.5 still ascends
    text = workspace["cfg"].read_text().replace("model.p = 2\n", "model.p = 1.5\n")
    cfg.write_text(text + "model.tol = 1e-12\nmodel.max_iter = 1\n")
    rc, out, _ = run(capsys, ["fit", "--config", str(cfg),
                              "--basis", str(workspace["basis"])])
    assert rc == 0
    assert "iterations=1 converged=NO (iteration cap)" in out


def test_fit_missing_required_keys(workspace, capsys):
    cfg = workspace["tmp"] / "minimal.cfg"
    cfg.write_text(f"dataset.root = {workspace['root']}\n")
    rc, _, err = run(capsys, ["fit", "--config", str(cfg),
                              "--basis", str(workspace["basis"])])
    assert rc == 2
    assert "model.k1: required" in err
    assert "model.k2: required" in err


def test_fit_rejects_oversized_directions(workspace, capsys):
    cfg = workspace["tmp"] / "big.cfg"
    cfg.write_text(f"""dataset.root = {workspace['root']}
model.k1 = 2
model.k2 = 99
""")
    rc, _, err = run(capsys, ["fit", "--config", str(cfg),
                              "--basis", str(workspace["basis"])])
    assert rc == 2
    assert "model:" in err and "k2" in err


# -- recognize ----------------------------------------------------------


def test_recognize_reports_accuracy_and_confusion(workspace, capsys):
    fit_workspace(capsys, workspace)
    csv_path = workspace["tmp"] / "confusion.csv"
    rc, out, err = run(capsys, ["recognize", "--config", str(workspace["cfg"]),
                                "--basis", str(workspace["basis"]),
                                "--csv", str(csv_path)])
    assert rc == 0
    assert "accuracy: 1.000000 (4/4)" in out
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "true_label,predicted_label,count"
    assert set(rows[1:]) == {"ana,ana,2", "ben,ben,2"}


def test_recognize_sweep(workspace, capsys):
    fit_workspace(capsys, workspace)
    rc, out, _ = run(capsys, ["recognize", "--config", str(workspace["cfg"]),
                              "--basis", str(workspace["basis"]), "--sweep", "2"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,accuracy"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2"]


def test_recognize_sweep_out_of_range(workspace, capsys):
    fit_workspace(capsys, workspace)
    rc, _, err = run(capsys, ["recognize", "--config", str(workspace["cfg"]),
                              "--basis", str(workspace["basis"]), "--sweep", "9"])
    assert rc == 2
    assert "--sweep" in err


def test_recognize_missing_basis(workspace, capsys):
    rc, _, err = run(capsys, ["recognize", "--config", str(workspace["cfg"]),
                              "--basis", str(workspace["tmp"] / "none.bqp")])
    assert rc == 1
    assert "error:" in err


def test_recognize_corrupt_basis(workspace, capsys):
    bad = workspace["tmp"] / "bad.bqp"
    bad.write_bytes(b"definitely not a basis")
    rc, _, err = run(capsys, ["recognize", "--config", str(workspace["cfg"]),
                              "--basis", str(bad)])
    assert rc == 1
    assert "error:" in err


def test_recognize_rejects_non_finite_basis(workspace, capsys):
    fit_workspace(capsys, workspace)
    data = bytearray(workspace["basis"].read_bytes())
    # The payload starts after the 40-byte header, with the planes of U first.
    data[40:48] = np.array([np.nan], dtype="<f8").tobytes()
    workspace["basis"].write_bytes(bytes(data))
    rc, _, err = run(capsys, ["recognize", "--config", str(workspace["cfg"]),
                              "--basis", str(workspace["basis"])])
    assert rc == 1
    assert "U holds a non-finite value" in err


def test_recognize_dimension_mismatch(workspace, capsys, tmp_path, rng):
    fit_workspace(capsys, workspace)
    other_root = tmp_path / "small"
    write_image_tree(other_root, {
        "ana": [random_rgb(rng, 4, 4) for _ in range(4)],
        "ben": [random_rgb(rng, 4, 4) for _ in range(4)],
    })
    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"dataset.root = {other_root}\ndataset.split = [0.75, 0, 0.25]\n")
    rc, _, err = run(capsys, ["recognize", "--config", str(cfg),
                              "--basis", str(workspace["basis"])])
    assert rc == 1
    assert "4x4" in err and "8x6" in err


# -- reconstruct --------------------------------------------------------


def test_reconstruct_ratio_and_export(workspace, capsys):
    fit_workspace(capsys, workspace)
    outdir = workspace["tmp"] / "recs"
    rc, out, _ = run(capsys, ["reconstruct", "--config", str(workspace["cfg"]),
                              "--basis", str(workspace["basis"]),
                              "--export", str(outdir)])
    assert rc == 0
    assert "ratio: 0." in out and "over 12 training samples" in out
    files = sorted(f.name for f in outdir.iterdir())
    assert len(files) == 12
    assert files[0] == "ana_0000.ppm"
    rebuilt = load_dataset(_as_tree(outdir))
    assert len(rebuilt) == 12


def test_reconstruct_export_keeps_each_source_suffix(workspace, capsys):
    # One class stored as PNG, the other as PPM: each reconstruction is
    # written in the format its training image was read from.
    for sample in load_dataset(workspace["root"]).samples:
        if sample.label == "ana":
            source = Path(sample.source)
            export_image(sample.image, source.with_suffix(".png"))
            source.unlink()
    fit_workspace(capsys, workspace)
    outdir = workspace["tmp"] / "recs"
    rc, _, err = run(capsys, ["reconstruct", "--config", str(workspace["cfg"]),
                              "--basis", str(workspace["basis"]), "--export", str(outdir)])
    assert (rc, err) == (0, "")
    suffixes = {}
    for f in outdir.iterdir():
        suffixes.setdefault(f.name.split("_")[0], set()).add(f.suffix)
    assert suffixes == {"ana": {".png"}, "ben": {".ppm"}}
    assert len(load_dataset(_as_tree(outdir))) == 12


def test_reconstruct_csv_without_sweep(workspace, capsys):
    fit_workspace(capsys, workspace)
    argv = ["reconstruct", "--config", str(workspace["cfg"]), "--basis", str(workspace["basis"])]
    _, plain, _ = run(capsys, argv)
    csv_path = workspace["tmp"] / "ratio.csv"
    rc, out, err = run(capsys, argv + ["--csv", str(csv_path)])
    assert (rc, err) == (0, "")
    assert out == plain + f"ratio: written to {csv_path}\n"
    ratio = plain.split("ratio: ")[1].split()[0]
    assert csv_path.read_text().splitlines() == ["k1,k2,ratio", f"2,2,{ratio}"]


def test_reconstruct_sweep_csv(workspace, capsys):
    fit_workspace(capsys, workspace)
    csv_path = workspace["tmp"] / "sweep.csv"
    rc, out, _ = run(capsys, ["reconstruct", "--config", str(workspace["cfg"]),
                              "--basis", str(workspace["basis"]),
                              "--sweep", "2", "--csv", str(csv_path)])
    assert rc == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "k1,k2,ratio"
    ratios = [float(r.split(",")[2]) for r in rows[1:]]
    assert len(ratios) == 2
    assert ratios[0] <= ratios[1] + 1e-9


# -- sweeps: errors and output as the per-k path gave them ----------------

_HINT = ("hint: switch weighting.transform to identity, or refit so every per-direction "
         "objective exceeds 1 before using inverse-log\n")


def sweep_config(ws, name, k=3, extra=""):
    """The workspace config with k1 = k2 = k and extra lines appended."""
    text = ws["cfg"].read_text().replace("model.k1 = 2", f"model.k1 = {k}")
    cfg = ws["tmp"] / name
    cfg.write_text(text.replace("model.k2 = 2", f"model.k2 = {k}") + extra)
    return cfg


def sweep_argv(command, cfg, ws, K):
    return [command, "--config", str(cfg), "--basis", str(ws["basis"]), "--sweep", str(K)]


@pytest.mark.parametrize("K", ["0", "3"])
@pytest.mark.parametrize("command", ["recognize", "reconstruct"])
def test_sweep_size_outside_the_basis(workspace, capsys, command, K):
    fit_workspace(capsys, workspace)
    assert run(capsys, sweep_argv(command, workspace["cfg"], workspace, K)) == (
        2, "", f"error: --sweep: must satisfy 1 <= sweep <= min(k1, k2) = 2, got {K}\n")


@pytest.mark.parametrize("sweep", [False, True])
def test_recognize_sweep_on_empty_test_split(workspace, capsys, sweep):
    cfg = workspace["tmp"] / "all-train.cfg"
    cfg.write_text(workspace["cfg"].read_text().replace("[0.75, 0, 0.25]", "[1, 0, 0]"))
    assert run(capsys, ["fit", "--config", str(cfg), "--basis", str(workspace["basis"])])[0] == 0
    argv = (sweep_argv("recognize", cfg, workspace, 2) if sweep else
            ["recognize", "--config", str(cfg), "--basis", str(workspace["basis"])])
    assert run(capsys, argv) == (1, "", "error: the test split is empty\n")


@pytest.mark.parametrize("command, part, index", [("recognize", 2, 1), ("reconstruct", 0, 2),
                                                   ("recognize", 0, 3)])
def test_sweep_names_non_finite_image(workspace, capsys, monkeypatch, command, part, index):
    fit_workspace(capsys, workspace)
    dataset = load_dataset(workspace["root"])
    source = split(dataset, (0.75, 0, 0.25), 5)[part].samples[index].source

    def poisoned(root):
        data = np.full((4, 8, 6), np.nan)
        return replace(dataset, samples=tuple(
            replace(s, image=QMatrix(data)) if s.source == source else s for s in dataset.samples))

    monkeypatch.setattr(quatpca.cli, "load_dataset", poisoned)
    assert run(capsys, sweep_argv(command, workspace["cfg"], workspace, 2)) == (
        1, "", f"error: sample {index} ({source}) holds a non-finite value (NaN or inf)\n")


def test_inverse_log_sweep_names_the_first_failing_prefix(workspace, capsys):
    cfg = sweep_config(workspace, "invlog.cfg", extra="weighting.manner = weighted-right\n"
                                                     "weighting.transform = inverse-log\n")
    assert run(capsys, ["fit", "--config", str(cfg), "--basis", str(workspace["basis"])])[0] == 0
    basis = load_basis(workspace["basis"])
    save_basis(replace(basis, d_right=np.array([5.0, 1.0, 0.5])), workspace["basis"])
    message = "error: inverse-log weighting needs every objective value above 1, got {}\n"
    # k = 2 fails first, so the error names min(d[:2]), not min(d) = 0.5
    assert run(capsys, sweep_argv("recognize", cfg, workspace, 3)) == (
        1, "", message.format("1.0") + _HINT)
    assert run(capsys, ["recognize", "--config", str(cfg), "--basis", str(workspace["basis"])]) == (
        1, "", message.format("0.5") + _HINT)

    # Reconstruction undoes the weights, so it neither reads nor rejects them:
    # both of its paths give what they give with weighting.manner = unweighted.
    plain = sweep_config(workspace, "plain.cfg", extra="weighting.manner = unweighted\n")
    got = {}
    for name, config in (("invlog", cfg), ("plain", plain)):
        path = workspace["tmp"] / f"{name}.csv"
        assert run(capsys, sweep_argv("reconstruct", config, workspace, 3) + ["--csv", str(path)]) == (
            0, f"sweep: written to {path}\n", "")
        rc, out, err = run(capsys, ["reconstruct", "--config", str(config),
                                    "--basis", str(workspace["basis"])])
        assert (rc, err) == (0, "")
        got[name] = path.read_bytes(), out.splitlines()[1]
    assert got["invlog"] == got["plain"]
    assert got["plain"][1].startswith("ratio: ")


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def test_sweep_csvs_match_the_per_k_path(workspace, capsys):
    cfg = sweep_config(workspace, "both.cfg", extra="weighting.manner = weighted-both\n")
    assert run(capsys, ["fit", "--config", str(cfg), "--basis", str(workspace["basis"])])[0] == 0
    paths = {command: workspace["tmp"] / f"{command}.csv" for command in ("recognize", "reconstruct")}
    for command, path in paths.items():
        assert run(capsys, sweep_argv(command, cfg, workspace, 3) + ["--csv", str(path)])[0] == 0

    train, _, test = split(load_dataset(workspace["root"]), (0.75, 0, 0.25), 5)
    basis = load_basis(workspace["basis"])
    scheme = WeightingScheme(Manner.WEIGHTED_BOTH)
    accuracy, ratio = [], []
    for k in range(1, 4):
        b = basis.truncated(k, k)
        accuracy.append((k, f"{evaluate(test, build_gallery(train, b, scheme)):.6f}"))
        ratio.append((k, k, f"{reconstruction_ratio(train, reconstruct_samples(train, b)):.6f}"))
    assert paths["recognize"].read_bytes() == _csv_text(["k", "accuracy"], accuracy).encode()
    assert paths["reconstruct"].read_bytes() == _csv_text(["k1", "k2", "ratio"], ratio).encode()


# -- select-weighting ---------------------------------------------------


def test_select_weighting_writes_manifest(workspace, capsys):
    manifest = workspace["tmp"] / "manifest.json"
    rc, out, _ = run(capsys, ["select-weighting", "--config", str(workspace["cfg"]),
                              "--manifest", str(manifest)])
    assert rc == 0
    assert "<- chosen" in out
    doc = json.loads(manifest.read_text())
    assert set(doc) == {"weighting", "scores", "repeats", "seed"}
    assert doc["weighting"]["manner"] in {m.value for m in Manner}
    assert set(doc["scores"]) == {m.value for m in Manner}
    assert doc["repeats"] == 3 and doc["seed"] == 5


def test_select_weighting_deterministic(workspace, capsys):
    m1 = workspace["tmp"] / "m1.json"
    m2 = workspace["tmp"] / "m2.json"
    rc1, _, _ = run(capsys, ["select-weighting", "--config", str(workspace["cfg"]),
                             "--manifest", str(m1)])
    rc2, _, _ = run(capsys, ["select-weighting", "--config", str(workspace["cfg"]),
                             "--manifest", str(m2)])
    assert rc1 == rc2 == 0
    assert m1.read_text() == m2.read_text()


# -- weighting failure surface ------------------------------------------


def test_inverse_log_failure_has_hint(tmp_path, capsys, rng):
    root = tmp_path / "flat"
    write_image_tree(root, {
        "ana": [rng.integers(127, 129, (8, 6, 3)).astype(np.uint8)
                for _ in range(6)],
        "ben": [rng.integers(127, 129, (8, 6, 3)).astype(np.uint8)
                for _ in range(6)],
    })
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(f"""dataset.root = {root}
dataset.split = [0.75, 0, 0.25]
model.k1 = 2
model.k2 = 2
weighting.manner = weighted-right
weighting.transform = inverse-log
""")
    basis_path = tmp_path / "flat.bqp"
    rc, _, err = run(capsys, ["fit", "--config", str(cfg), "--basis", str(basis_path)])
    assert rc == 0
    rc, _, err = run(capsys, ["recognize", "--config", str(cfg),
                              "--basis", str(basis_path)])
    assert rc == 1
    assert "inverse-log" in err
    assert "hint:" in err


# -- output paths -------------------------------------------------------


@pytest.mark.parametrize("command, flag", [
    ("fit", "--report"),
    ("select-weighting", "--manifest"),
    ("recognize", "--csv"),
    ("reconstruct", "--export"),
])
def test_unwritable_output_path_is_an_error(workspace, capsys, command, flag):
    fit_workspace(capsys, workspace)
    blocker = workspace["tmp"] / "blocker"
    blocker.write_text("a file, so nothing can be created below it")
    target = blocker / "out"
    argv = [command, "--config", str(workspace["cfg"])]
    if command != "select-weighting":
        argv += ["--basis", str(workspace["basis"])]
    rc, _, err = run(capsys, argv + [flag, str(target)])
    assert rc == 1
    assert err.startswith(f"error: {target}: cannot write")


@pytest.mark.parametrize("command, flag", [
    ("fit", "--report"),
    ("select-weighting", "--manifest"),
    ("recognize", "--csv"),
])
def test_outputs_overwrite_a_longer_file_to_the_same_bytes(workspace, capsys, command, flag):
    fit_workspace(capsys, workspace)
    argv = [command, "--config", str(workspace["cfg"])]
    if command != "select-weighting":
        argv += ["--basis", str(workspace["basis"])]
    fresh, stale = workspace["tmp"] / "fresh.out", workspace["tmp"] / "stale.out"
    assert run(capsys, argv + [flag, str(fresh)])[0] == 0
    expected = fresh.read_bytes()
    stale.write_bytes(b"\xff" * (2 * len(expected) + 100))
    assert run(capsys, argv + [flag, str(stale)])[0] == 0
    assert stale.read_bytes() == expected


def test_csv_to_a_device_is_written_and_not_truncated(workspace, capsys):
    # ftruncate fails on a character device with EINVAL.
    fit_workspace(capsys, workspace)
    rc, out, err = run(capsys, ["recognize", "--config", str(workspace["cfg"]),
                                "--basis", str(workspace["basis"]), "--csv", os.devnull])
    assert (rc, err) == (0, "")
    assert out.endswith(f"confusion: written to {os.devnull}\n")


# -- argparse surface ---------------------------------------------------


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def _as_tree(outdir):
    """Reshape a flat export directory into a one-class loader tree."""
    tree = outdir.parent / "tree"
    cls = tree / "all"
    cls.mkdir(parents=True, exist_ok=True)
    for f in outdir.iterdir():
        (cls / f.name).write_bytes(f.read_bytes())
    return tree


# -- determinism across BLAS thread counts -------------------------------

_PIPELINE_SCRIPT = """
import sys
from quatpca.cli import main
cfg, work = sys.argv[1], sys.argv[2]
basis = work + "/fitted.bqp"
for argv in (["fit", "--config", cfg, "--basis", basis],
             ["recognize", "--config", cfg, "--basis", basis, "--csv", work + "/confusion.csv"],
             ["select-weighting", "--config", cfg, "--manifest", work + "/manifest.json"]):
    assert main(argv) == 0, argv
"""


# (s, p) = (2, 2) is the eigensolve, (2, 1.5) the Gram ascent, (1, 0.5) the stack ascent.
_THREAD_GRID = [(2, 1.5), (2, 2), (1, 0.5)]


@pytest.mark.parametrize("s, p", _THREAD_GRID)
def test_recognize_and_selection_bytes_independent_of_blas_threads(tmp_path, rng, s, p):
    root = tmp_path / "data"
    write_image_tree(root, {f"c{c}": [random_rgb(rng, 12, 10) for _ in range(8)]
                            for c in range(5)})
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""dataset.root = {root}
dataset.split = [0.5, 0, 0.5]
model.s = {s}
model.p = {p}
model.k1 = 4
model.k2 = 3
weighting.manner = weighted-both
selection.repeats = 2
""")
    src = str(Path(quatpca.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _PIPELINE_SCRIPT, str(cfg), str(tmp_path)],
                             env=env, capture_output=True, text=True, check=True)
        runs.append((out.stdout, (tmp_path / "fitted.bqp").read_bytes(),
                     (tmp_path / "confusion.csv").read_bytes(),
                     (tmp_path / "manifest.json").read_bytes()))
    assert "accuracy:" in runs[0][0] and "<- chosen" in runs[0][0]
    assert runs[0] == runs[1]


_SWEEP_SCRIPT = """
import sys
from quatpca.cli import main
cfg, work = sys.argv[1], sys.argv[2]
basis = work + "/fitted.bqp"
for argv in (["fit", "--config", cfg, "--basis", basis],
             ["recognize", "--config", cfg, "--basis", basis, "--sweep", "4",
              "--csv", work + "/recognize.csv"],
             ["reconstruct", "--config", cfg, "--basis", basis, "--sweep", "4",
              "--csv", work + "/reconstruct.csv"]):
    assert main(argv) == 0, argv
"""


@pytest.mark.parametrize("s, p", _THREAD_GRID)
def test_sweep_csv_bytes_independent_of_blas_threads(tmp_path, rng, s, p):
    root = tmp_path / "data"
    write_image_tree(root, {f"c{c}": [random_rgb(rng, 12, 10) for _ in range(8)]
                            for c in range(5)})
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""dataset.root = {root}
dataset.split = [0.5, 0, 0.5]
model.s = {s}
model.p = {p}
model.k1 = 5
model.k2 = 4
weighting.manner = weighted-both
weighting.transform = inverse-log
""")
    src = str(Path(quatpca.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", _SWEEP_SCRIPT, str(cfg), str(tmp_path)],
                       env=env, capture_output=True, text=True, check=True)
        runs.append(tuple((tmp_path / name).read_bytes()
                          for name in ("fitted.bqp", "recognize.csv", "reconstruct.csv")))
    assert len(runs[0][1].splitlines()) == len(runs[0][2].splitlines()) == 5
    assert runs[0] == runs[1]
