"""Command-line pipeline: fit, select-weighting, recognize, reconstruct.

All commands read one plain-text configuration file of dotted
``key = value`` lines.  A ``#`` at the start of a line or after
whitespace starts a comment; one inside a value, as in ``./a#b``, does not:

    dataset.root = ./faces
    dataset.split = [0.8, 0.1, 0.1]
    dataset.seed = 7
    model.s = 2
    model.p = inf
    model.k1 = 4
    model.k2 = 4
    model.tol = 1e-4
    model.max_iter = 500
    weighting.manner = weighted-right
    weighting.transform = identity
    selection.repeats = 3

Unknown keys and out-of-range values are rejected with every violation
listed.  Exit codes: 0 success, 2 validation failure, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import locale
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .dataset import (_split_fractions, _suffix, _write_file, center, export_image, load_basis,
                      load_dataset, save_basis, split)
from .errors import (_RULES, ConfigError, InvalidDataset, InvalidParameter, InvalidWeight, IoError,
                     QuatPcaError, ShapeError)
from .recognition import build_gallery, predict, sweep_accuracies
from .reconstruction import reconstruct_samples, reconstruction_ratio, sweep_ratios
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL, FitParams, fit
from .weighting import (
    Manner,
    SelectionConfig,
    Transform,
    WeightingScheme,
    _sweep_violation,
    best_manner,
    score_weightings,
)

__all__ = ["main", "RunConfig", "parse_config"]


@dataclass
class RunConfig:
    root: str | None = None
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0
    s: float = 2.0
    p: float = 2.0
    k1: int | None = None
    k2: int | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    manner: Manner = Manner.UNWEIGHTED
    transform: Transform = Transform.IDENTITY
    repeats: int = 3


def _parse_int(raw):
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if math.isnan(value):
        raise ValueError("NaN is not a valid value")
    return value


def _parse_split(raw):
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ValueError(f"expected [train, val, test], got {raw!r}")
    return _split_fractions(_parse_float(x.strip()) for x in raw[1:-1].split(","))


def _parse_choice(kind, raw):
    try:
        return kind(raw.lower())
    except ValueError:
        options = ", ".join(choice.value for choice in kind)
        raise ValueError(f"must be one of {options}, got {raw!r}") from None


# Each key's RunConfig field and the reader that converts its text.  A
# field with a range rule in the table of ``errors`` is then checked against
# that rule, so the CLI and the library report the same text.
_KEY_PARSERS = {
    "dataset.root": ("root", str),
    "dataset.split": ("split", _parse_split),
    "dataset.seed": ("seed", _parse_int),
    "model.s": ("s", _parse_float),
    "model.p": ("p", _parse_float),
    "model.k1": ("k1", _parse_int),
    "model.k2": ("k2", _parse_int),
    "model.tol": ("tol", _parse_float),
    "model.max_iter": ("max_iter", _parse_int),
    "weighting.manner": ("manner", partial(_parse_choice, Manner)),
    "weighting.transform": ("transform", partial(_parse_choice, Transform)),
    "selection.repeats": ("repeats", _parse_int),
}


def parse_config(path):
    """Read and validate a configuration file, listing every violation."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read config ({exc})"]) from exc

    cfg = RunConfig()
    problems = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_PARSERS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        attr, parser = _KEY_PARSERS[key]
        try:
            value = parser(raw)
            if attr in _RULES and not _RULES[attr][0](value):
                raise ValueError(f"{_RULES[attr][1]}, got {raw}")
            setattr(cfg, attr, value)
        except (ValueError, InvalidParameter) as exc:
            problems.append(f"{key}: {exc}")
    if problems:
        raise ConfigError(problems)
    return cfg


def _setup(args, fitting):
    """The prologue every command shares; returns (cfg, model, dataset, train, test).

    The fitting commands (fit, select-weighting) also need model.k1 and
    model.k2, and their model is the FitParams, checked against the image
    size.  For the others it is the basis read from --basis, whose image
    size must match the dataset's.  Every command needs a nonempty
    training split.
    """
    cfg = parse_config(args.config)
    keys = ("dataset.root", "model.k1", "model.k2") if fitting else ("dataset.root",)
    missing = [f"{key}: required but not set" for key in keys
               if getattr(cfg, _KEY_PARSERS[key][0]) is None]
    if missing:
        raise ConfigError(missing)
    basis = None if fitting else load_basis(args.basis)
    dataset = load_dataset(cfg.root)
    train, _, test = split(dataset, cfg.split, cfg.seed)
    m, n = dataset.shape
    if not fitting and (m, n) != (basis.m, basis.n):
        raise ShapeError(
            f"dataset images are {m}x{n} but the basis was fitted on {basis.m}x{basis.n}")
    if len(train) == 0:
        raise InvalidDataset("the training split is empty")
    if not fitting:
        return cfg, basis, dataset, train, test
    params = FitParams(s=cfg.s, p=cfg.p, k1=cfg.k1, k2=cfg.k2,
                       tol=cfg.tol, max_iter=cfg.max_iter)
    problems = params.violations(m, n)
    if problems:
        raise ConfigError([f"model: {msg}" for msg in problems])
    return cfg, params, dataset, train, test


@contextlib.contextmanager
def _writing(path, what):
    """Report an OSError raised while writing ``path`` as an IoError naming it."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"{path}: cannot write {what} ({exc})") from exc


def _write_text(path, what, text):
    """Write ``text`` to ``path`` in the encoding ``open(path, "w")`` would use."""
    with _writing(path, what):
        _write_file(path, text.encode(locale.getpreferredencoding(False)))


def _emit_csv(path, what, header, rows, out):
    """Write the rows to ``path`` (and say so), or print them when no path is given."""
    sink = io.StringIO() if path else out
    writer = csv.writer(sink)
    writer.writerow(header)
    writer.writerows(rows)
    if path:
        _write_text(path, "CSV", sink.getvalue())
        print(f"{what}: written to {path}", file=out)


def _sweep_size(args, basis):
    """The --sweep K, checked against the fitted sizes.

    Runs once the basis and the whole dataset are loaded, before any projection.
    """
    problem = _sweep_violation(basis, args.sweep)
    if problem:
        raise ConfigError([f"--sweep: {problem}"])
    return args.sweep


def _fmt(x):
    return f"{x:.6g}"


def cmd_fit(args, out):
    cfg, params, dataset, train, _ = _setup(args, fitting=True)
    m, n = dataset.shape
    basis = fit(center(train), params)
    save_basis(basis, args.basis)

    lines = [
        f"dataset: root={cfg.root} samples={len(dataset)} classes={len(dataset.classes())} image={m}x{n}",
        f"split: train={len(train)} seed={cfg.seed}",
        f"fit: s={_fmt(params.s)} p={_fmt(params.p)} k1={params.k1} k2={params.k2} "
        f"tol={_fmt(params.tol)} max_iter={params.max_iter}",
    ]
    for trace in basis.report.all_traces():
        flag = "yes" if trace.converged else f"NO ({trace.stop_reason})"
        lines.append(
            f"{trace.side}[{trace.index}]: objective={trace.final_objective:.10g} "
            f"iterations={trace.iterations} converged={flag}")
    lines.append(f"basis: written to {args.basis}")
    text = "\n".join(lines)
    print(text, file=out)
    if args.report:
        _write_text(args.report, "report", text + "\n")
    return 0


def cmd_select_weighting(args, out):
    cfg, params, _, train, _ = _setup(args, fitting=True)
    protocol = SelectionConfig(repeats=cfg.repeats, seed=cfg.seed, transform=cfg.transform)
    scores = score_weightings(train, params, protocol)
    chosen = best_manner(scores)

    print(f"selection: repeats={protocol.repeats} transform={protocol.transform.value} "
          f"seed={protocol.seed}", file=out)
    for manner in scores:
        marker = "  <- chosen" if manner == chosen else ""
        print(f"{manner.value}: accuracy={scores[manner]:.6f}{marker}", file=out)

    manifest = {
        "weighting": {"manner": chosen.value, "transform": protocol.transform.value},
        "scores": {manner.value: scores[manner] for manner in scores},
        "repeats": protocol.repeats,
        "seed": protocol.seed,
    }
    _write_text(args.manifest, "manifest", json.dumps(manifest, indent=2) + "\n")
    print(f"manifest: written to {args.manifest}", file=out)
    return 0


def cmd_recognize(args, out):
    cfg, basis, _, train, test = _setup(args, fitting=False)
    scheme = WeightingScheme(cfg.manner, cfg.transform)
    sweep = None if args.sweep is None else _sweep_size(args, basis)
    if len(test) == 0:
        raise InvalidDataset("the test split is empty")

    if sweep is not None:
        accuracies = sweep_accuracies(train, test, basis, scheme, sweep)
        rows = [(k, f"{a:.6f}") for k, a in enumerate(accuracies, start=1)]
        _emit_csv(args.csv, "sweep", ["k", "accuracy"], rows, out)
        return 0

    gallery = build_gallery(train, basis, scheme)
    confusion = Counter(zip(test.labels(), predict(test, gallery)))
    hits = sum(count for (true, predicted), count in confusion.items() if true == predicted)
    accuracy = hits / len(test)
    print(f"recognize: manner={scheme.manner.value} transform={scheme.transform.value} "
          f"k1={basis.k1} k2={basis.k2}", file=out)
    print(f"accuracy: {accuracy:.6f} ({hits}/{len(test)})", file=out)
    rows = [(t, p, c) for (t, p), c in sorted(confusion.items())]
    _emit_csv(args.csv, "confusion", ["true_label", "predicted_label", "count"], rows, out)
    return 0


def cmd_reconstruct(args, out):
    cfg, basis, _, train, _ = _setup(args, fitting=False)

    if args.sweep is not None:
        ratios = sweep_ratios(train, basis, _sweep_size(args, basis))
        rows = [(k, k, f"{r:.6f}") for k, r in enumerate(ratios, start=1)]
        _emit_csv(args.csv, "sweep", ["k1", "k2", "ratio"], rows, out)
        return 0

    recs = reconstruct_samples(train, basis)
    ratio = reconstruction_ratio(train, recs)
    print(f"reconstruct: manner={cfg.manner.value} transform={cfg.transform.value} "
          f"k1={basis.k1} k2={basis.k2}", file=out)
    print(f"ratio: {ratio:.6f} over {len(train)} training samples", file=out)
    if args.csv:
        _emit_csv(args.csv, "ratio", ["k1", "k2", "ratio"],
                  [(basis.k1, basis.k2, f"{ratio:.6f}")], out)
    if args.export:
        outdir = Path(args.export)
        with _writing(outdir, "export directory"):
            outdir.mkdir(parents=True, exist_ok=True)
        for idx, (sample, rec) in enumerate(zip(train.samples, recs)):
            suffix = _suffix(os.path.basename(sample.source))
            export_image(rec, os.path.join(outdir, f"{sample.label}_{idx:04d}{suffix}"))
        print(f"export: {len(recs)} images written to {outdir}", file=out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quatpca",
        description="Bilateral two-dimensional quaternion PCA pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit projection bases on the training split")
    p_fit.add_argument("--config", required=True, help="configuration file")
    p_fit.add_argument("--basis", required=True, help="output path for the fitted basis")
    p_fit.add_argument("--report", help="optional path for the text report")
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select-weighting",
                           help="choose the weighting manner by validation accuracy")
    p_sel.add_argument("--config", required=True)
    p_sel.add_argument("--manifest", default="run_manifest.json",
                       help="where to record the chosen scheme (JSON)")
    p_sel.set_defaults(func=cmd_select_weighting)

    p_rec = sub.add_parser("recognize", help="nearest-neighbor accuracy on the test split")
    p_rec.add_argument("--config", required=True)
    p_rec.add_argument("--basis", required=True, help="fitted basis file")
    p_rec.add_argument("--csv", help="output CSV path")
    p_rec.add_argument("--sweep", type=int,
                       help="evaluate k1 = k2 = 1..SWEEP instead of one setting")
    p_rec.set_defaults(func=cmd_recognize)

    p_con = sub.add_parser("reconstruct", help="reconstruction quality on the training split")
    p_con.add_argument("--config", required=True)
    p_con.add_argument("--basis", required=True, help="fitted basis file")
    p_con.add_argument("--csv", help="output CSV path")
    p_con.add_argument("--sweep", type=int,
                       help="evaluate k1 = k2 = 1..SWEEP instead of one setting")
    p_con.add_argument("--export", help="directory for reconstructed images")
    p_con.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return 2
    except InvalidWeight as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: switch weighting.transform to identity, or refit so every "
              "per-direction objective exceeds 1 before using inverse-log",
              file=sys.stderr)
        return 1
    except QuatPcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
