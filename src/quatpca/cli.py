"""Command-line pipeline: fit, select-weighting, recognize, reconstruct.

All commands read one plain-text configuration file of dotted
``key = value`` lines (``#`` starts a comment):

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
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .dataset import center, load_basis, load_dataset, save_basis, split
from .errors import ConfigError, InvalidDataset, InvalidWeight, IoError, QuatPcaError, ShapeError
from .recognition import build_gallery, predict, sweep_accuracies
from .reconstruction import reconstruct_samples, reconstruction_ratio, sweep_ratios
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL, FitParams, fit
from .weighting import (
    Manner,
    SelectionConfig,
    Transform,
    WeightingScheme,
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


def _parse_positive_int(raw):
    value = _parse_int(raw)
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def _parse_s(raw):
    value = _parse_float(raw)
    if not (value >= 1 and math.isfinite(value)):
        raise ValueError(f"must satisfy 1 <= s < inf, got {raw}")
    return value


def _parse_p(raw):
    value = _parse_float(raw)
    if not (value == math.inf or value > 0):
        raise ValueError(f"must satisfy p > 0 or p = inf, got {raw}")
    return value


def _parse_tol(raw):
    value = _parse_float(raw)
    if not value > 0:
        raise ValueError(f"must be positive, got {raw}")
    return value


def _parse_split(raw):
    raw = raw.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ValueError(f"expected [train, val, test], got {raw!r}")
    parts = [x.strip() for x in raw[1:-1].split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three fractions, got {len(parts)}")
    fracs = tuple(_parse_float(x) for x in parts)
    if any(not math.isfinite(f) or f < 0 for f in fracs):
        raise ValueError(f"fractions must be finite and nonnegative, got {fracs}")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fracs)}")
    return fracs


def _parse_manner(raw):
    try:
        return Manner(raw.strip().lower())
    except ValueError:
        options = ", ".join(m.value for m in Manner)
        raise ValueError(f"must be one of {options}, got {raw!r}") from None


def _parse_transform(raw):
    try:
        return Transform(raw.strip().lower())
    except ValueError:
        options = ", ".join(t.value for t in Transform)
        raise ValueError(f"must be one of {options}, got {raw!r}") from None


_KEY_PARSERS = {
    "dataset.root": ("root", str),
    "dataset.split": ("split", _parse_split),
    "dataset.seed": ("seed", _parse_int),
    "model.s": ("s", _parse_s),
    "model.p": ("p", _parse_p),
    "model.k1": ("k1", _parse_positive_int),
    "model.k2": ("k2", _parse_positive_int),
    "model.tol": ("tol", _parse_tol),
    "model.max_iter": ("max_iter", _parse_positive_int),
    "weighting.manner": ("manner", _parse_manner),
    "weighting.transform": ("transform", _parse_transform),
    "selection.repeats": ("repeats", _parse_positive_int),
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
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
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
            setattr(cfg, attr, parser(raw))
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
    if problems:
        raise ConfigError(problems)
    return cfg


def _require(cfg, keys):
    missing = []
    if "dataset.root" in keys and cfg.root is None:
        missing.append("dataset.root: required but not set")
    if "model.k1" in keys and cfg.k1 is None:
        missing.append("model.k1: required but not set")
    if "model.k2" in keys and cfg.k2 is None:
        missing.append("model.k2: required but not set")
    if missing:
        raise ConfigError(missing)


def _fit_params(cfg, m, n):
    params = FitParams(s=cfg.s, p=cfg.p, k1=cfg.k1, k2=cfg.k2,
                       tol=cfg.tol, max_iter=cfg.max_iter)
    problems = params.violations(m, n)
    if problems:
        raise ConfigError([f"model: {msg}" for msg in problems])
    return params


def _load_splits(cfg):
    dataset = load_dataset(cfg.root)
    train, val, test = split(dataset, cfg.split, cfg.seed)
    return dataset, train, val, test


def _check_basis_dims(basis, dataset):
    if dataset.shape != (basis.m, basis.n):
        raise ShapeError(
            f"dataset images are {dataset.shape[0]}x{dataset.shape[1]} "
            f"but the basis was fitted on {basis.m}x{basis.n}")


@contextlib.contextmanager
def _writing(path, what):
    """Report an OSError raised while writing ``path`` as an IoError naming it."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"{path}: cannot write {what} ({exc})") from exc


def _emit_csv(path, what, header, rows, out):
    """Write the rows to ``path`` (and say so), or print them when no path is given."""
    if path:
        with _writing(path, "CSV"), open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"{what}: written to {path}", file=out)
    else:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def _sweep_size(args, basis):
    """The --sweep K, checked against the fitted sizes before any work."""
    top = min(basis.k1, basis.k2)
    if not 1 <= args.sweep <= top:
        raise ConfigError(
            [f"--sweep: must satisfy 1 <= sweep <= min(k1, k2) = {top}, got {args.sweep}"])
    return args.sweep


def _fmt(x):
    return f"{x:.6g}"


def cmd_fit(args, out):
    cfg = parse_config(args.config)
    _require(cfg, ["dataset.root", "model.k1", "model.k2"])
    dataset, train, _, _ = _load_splits(cfg)
    if len(train) == 0:
        raise InvalidDataset("the training split is empty")
    m, n = dataset.shape
    params = _fit_params(cfg, m, n)
    train_c = center(train)
    basis = fit(train_c, params)
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
        with _writing(args.report, "report"):
            Path(args.report).write_text(text + "\n")
    return 0


def cmd_select_weighting(args, out):
    cfg = parse_config(args.config)
    _require(cfg, ["dataset.root", "model.k1", "model.k2"])
    dataset, train, _, _ = _load_splits(cfg)
    m, n = dataset.shape
    params = _fit_params(cfg, m, n)
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
    with _writing(args.manifest, "manifest"), open(args.manifest, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"manifest: written to {args.manifest}", file=out)
    return 0


def cmd_recognize(args, out):
    cfg = parse_config(args.config)
    _require(cfg, ["dataset.root"])
    basis = load_basis(args.basis)
    dataset, train, _, test = _load_splits(cfg)
    _check_basis_dims(basis, dataset)
    if len(train) == 0:
        raise InvalidDataset("the training split is empty")
    scheme = WeightingScheme(cfg.manner, cfg.transform)

    if args.sweep is not None:
        accuracies = sweep_accuracies(train, test, basis, scheme, _sweep_size(args, basis))
        rows = [(k, f"{a:.6f}") for k, a in enumerate(accuracies, start=1)]
        _emit_csv(args.csv, "sweep", ["k", "accuracy"], rows, out)
        return 0

    if len(test) == 0:
        raise InvalidDataset("the test split is empty")
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
    cfg = parse_config(args.config)
    _require(cfg, ["dataset.root"])
    basis = load_basis(args.basis)
    dataset, train, _, _ = _load_splits(cfg)
    _check_basis_dims(basis, dataset)
    if len(train) == 0:
        raise InvalidDataset("the training split is empty")
    scheme = WeightingScheme(cfg.manner, cfg.transform)

    if args.sweep is not None:
        ratios = sweep_ratios(train, basis, scheme, _sweep_size(args, basis))
        rows = [(k, k, f"{r:.6f}") for k, r in enumerate(ratios, start=1)]
        _emit_csv(args.csv, "sweep", ["k1", "k2", "ratio"], rows, out)
        return 0

    recs = reconstruct_samples(train, basis, scheme)
    ratio = reconstruction_ratio(train, recs)
    print(f"reconstruct: manner={scheme.manner.value} transform={scheme.transform.value} "
          f"k1={basis.k1} k2={basis.k2}", file=out)
    print(f"ratio: {ratio:.6f} over {len(train)} training samples", file=out)
    if args.export:
        from .dataset import export_image

        outdir = Path(args.export)
        with _writing(outdir, "export directory"):
            outdir.mkdir(parents=True, exist_ok=True)
        for idx, (sample, rec) in enumerate(zip(train.samples, recs)):
            suffix = Path(sample.source).suffix.lower() if sample.source else ".ppm"
            if suffix not in (".ppm", ".png"):
                suffix = ".ppm"
            export_image(rec, outdir / f"{sample.label}_{idx:04d}{suffix}")
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
