"""Command-line entry points producing reproducible artifacts.

Each command's settings are one spec, name -> (type, default), taken from
the library where it has one: the fields of EstimatorConfig and TrainConfig,
the keyword parameters of net.pnn_study.  Each key is a flag and a JSON
config-file key; defaults, the config file and flags (which win) are merged
and type-checked in one resolver.  An artifact's config block holds only
settings, so it can be passed back through --config.  Each command writes
a JSON report (resolved config, package version, and a canonical sha256
ignoring only the creation timestamp) plus optional CSV companions through
a temp file and an atomic rename.  Input files are recorded by the sha256
of their bytes, not by their path, and so are companions: train.json names
its checkpoint's digest, estimate.json that of estimate_paths.csv, the one
copy of the per-path records.  The gradient audits behind gradcheck live
next to the code they audit (surrogate.gradcheck, net.gradcheck).

Exit codes: 0 success, 1 gradient check failure, 2 configuration problem,
3 I/O problem, 4 numerical failure, 5 non-finite training loss,
oracle/network output or ED statistics, 6 study training failure: a task
that stalled above its mse target (both study artifacts are written) or
whose every restart diverged (nothing is written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import sys
import typing
from collections.abc import Iterable, Sequence
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import net as nets
from . import polylab, sampling, surrogate
from .basis import BASIS_KINDS
from .estimator import (
    EstimatorConfig,
    FunctionOracle,
    NonFiniteOutputError,
    PathSamplingError,
    ed_estimate,
)
from .surrogate import SingularFitError

__all__ = ["main"]

OUT_DIR_ENV = "EFFDEG_OUT_DIR"

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_NONFINITE = 5
EXIT_STUDY = 6


class ConfigError(ValueError):
    """Bad config file, bad flag combination, or malformed input data."""


# ---------------------------------------------------------------------------
# artifact plumbing


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def canonical_hash(document: dict) -> str:
    """sha256 of the sorted-key JSON rendering minus the volatile created and canonical_sha256."""
    core = {k: v for k, v in document.items() if k not in ("created", "canonical_sha256")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_artifact(out_dir: str, name: str, schema: str, config: dict, result: dict) -> dict:
    doc = {
        "schema": schema,
        "version": __version__,
        "created": _now(),
        "config": config,
        "result": result,
    }
    doc["canonical_sha256"] = canonical_hash(doc)
    nets.atomic_write(
        os.path.join(out_dir, name),
        json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n",
    )
    return doc


def render_csv(header: list[str], rows: Iterable[Sequence]) -> bytes:
    """The table as CSV bytes: repr floats, 0/1 for booleans, CRLF line ends."""
    buf = io.BytesIO()
    text = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [int(v) if isinstance(v, bool) else repr(v) if isinstance(v, float) else v for v in row]
        )
    text.detach()  # flushes, and leaves buf open
    return buf.getvalue()


def write_csv(out_dir: str, name: str, header: list[str], rows: Iterable[Sequence]) -> bytes:
    """Write the table to out_dir/name; returns the bytes written."""
    table = render_csv(header, rows)
    nets.atomic_write(os.path.join(out_dir, name), table)
    return table


def emit(args, summary: dict, table: bytes) -> None:
    """Print the run's outcome to stdout: the summary as JSON, or the CSV table's bytes."""
    if args.format == "csv":
        sys.stdout.write(table.decode())
    else:
        print(json.dumps(summary, sort_keys=True))


# ---------------------------------------------------------------------------
# config resolution


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _spec(target) -> dict:
    """name -> (type, default) for the keyword parameters of a function or dataclass."""
    hints = typing.get_type_hints(target)
    return {
        name: (hints[name], param.default)
        for name, param in inspect.signature(target).parameters.items()
    }


def _scalar_type(kind):
    """int for `int | None`; the type itself for a plain type."""
    return next((a for a in typing.get_args(kind) if a is not type(None)), kind)


def _check(key: str, kind, value):
    """value as `kind`, or ConfigError naming key.

    JSON booleans, numbers and strings do not stand in for each other; an
    int field takes a float only when it is integral, and a float field
    takes no NaN or infinity.
    """
    if value is None and type(None) in typing.get_args(kind):
        return None
    if typing.get_origin(kind) is tuple:  # layer sizes: "32,32" from a flag, [32, 32] from a file
        if isinstance(value, str):
            try:
                value = [int(s) for s in value.split(",") if s.strip()]
            except ValueError:
                raise ConfigError(f"bad {key} spec {value!r}") from None
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key} must be a non-empty list of integers, got {value!r}")
        return tuple(_check(key, int, v) for v in value)
    kind = _scalar_type(kind)
    if kind is float:
        ok = isinstance(value, (int, float))
    elif kind is int:
        ok = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    else:
        ok = isinstance(value, kind)
    if not ok or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return kind(value)


def resolve_config(args, from_file: dict | None = None) -> dict:
    """Merge the command's spec defaults, config-file values and explicit
    flags (flags win), each checked against its type and choices.  A caller
    that has read the config file passes its values, so a pipe is read once."""
    if from_file is None:
        from_file = _load_config_file(args.config)
    unknown = set(from_file) - set(args.spec)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, (kind, default) in args.spec.items():
        flag = getattr(args, key)
        value = _check(key, kind, from_file.get(key, default) if flag is None else flag)
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(f"{key} must be one of {_CHOICES[key]}, got {value!r}")
        resolved[key] = value
    return resolved


def _out_dir(args) -> str:
    return args.out or os.environ.get(OUT_DIR_ENV, "effdeg-out")


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# dataset and oracle loading


def load_dataset_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Read finite feature columns x0..x{d-1}, d >= 1, plus an optional label column of
    integers >= 0; no column name may repeat."""
    # utf-8-sig drops a byte-order mark, which would otherwise hide in x0's name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path} is empty")
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise ConfigError(f"{path}: repeated columns {repeated}")
        feature_cols = [h for h in header if h.startswith("x")]
        if not feature_cols:
            raise ConfigError(f"{path}: no feature columns x0..x{{d-1}}, got {header}")
        expected = [f"x{k}" for k in range(len(feature_cols))]
        if feature_cols != expected:
            raise ConfigError(
                f"{path}: feature columns must be x0..x{{d-1}} in order, got {feature_cols}"
            )
        has_label = "label" in header
        extras = [h for h in header if h not in expected and h != "label"]
        if extras:
            raise ConfigError(f"{path}: unexpected columns {extras}")
        label_pos = header.index("label") if has_label else None
        feature_pos = [header.index(c) for c in expected]
        rows, labels = [], []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(f"{path}:{ln}: expected {len(header)} fields")
            try:
                features = [float(row[k]) for k in feature_pos]
                label = int(row[label_pos]) if has_label else 0
            except ValueError as exc:
                raise ConfigError(f"{path}:{ln}: {exc}") from exc
            if not all(map(math.isfinite, features)):
                raise ConfigError(f"{path}:{ln}: features must be finite, got {features}")
            if label < 0:
                raise ConfigError(f"{path}:{ln}: labels must be >= 0, got {label}")
            rows.append(features)
            if has_label:
                labels.append(label)
    if not rows:
        raise ConfigError(f"{path} holds no data rows")
    X = np.array(rows, dtype=float)
    y = np.array(labels, dtype=int) if has_label else None
    return X, y


def _affine_oracle(dim: int) -> FunctionOracle:
    rng = sampling.rng(2718281828, dim)
    A = rng.standard_normal((dim, dim))
    b = rng.standard_normal(dim)
    return FunctionOracle(dim, dim, lambda x: x @ A.T + b, name="affine")


def resolve_oracle(spec: str, dim: int) -> FunctionOracle:
    """Build a named oracle, a polynomial-file oracle, or a checkpoint oracle."""
    if spec == "constant":
        return FunctionOracle(dim, 1, lambda x: np.ones((x.shape[0], 1)), name="constant")
    if spec == "identity":
        return FunctionOracle(dim, dim, lambda x: x, name="identity")
    if spec == "affine":
        return _affine_oracle(dim)
    if spec == "product":
        return FunctionOracle(
            dim, 1, lambda x: np.prod(x, axis=1, keepdims=True), name="product"
        )
    kind, _, path = spec.partition(":")
    if kind in ("polyfile", "checkpoint") and path.startswith("sha256="):
        # an artifact's config names its file by content, which cannot be reopened
        raise ConfigError(
            f"oracle {spec!r} names a file by content; pass --oracle {kind}:PATH "
            "(flags win over --config)"
        )
    if kind == "polyfile":
        with open(path, encoding="utf-8") as fh:
            polys = polylab.parse_poly_bundle(fh.read(), dim=dim)

        # all rows at once, term by term; float_power is C pow, as float ** int
        # is, so each row keeps the bits of a per-row scalar evaluation
        def evaluate(x: np.ndarray) -> np.ndarray:
            out = np.zeros((x.shape[0], len(polys)))
            for col, poly in enumerate(polys):
                for exp, coef in poly.terms.items():
                    term = np.full(x.shape[0], float(coef))
                    for k, e in enumerate(exp):
                        if e:
                            term *= np.float_power(x[:, k], e)
                    out[:, col] += term
            return out

        return FunctionOracle(
            dim, len(polys), evaluate, name=f"polyfile:sha256={_sha256_file(path)}"
        )
    if kind == "checkpoint":
        network, _ = nets.load_checkpoint(path)
        if network.layer_sizes[0] != dim:
            raise ConfigError(
                f"checkpoint expects {network.layer_sizes[0]} features, dataset has {dim}"
            )
        return network.as_oracle(name=f"checkpoint:sha256={_sha256_file(path)}")
    raise ConfigError(
        f"unknown oracle {spec!r}; use constant, identity, affine, product, "
        "polyfile:PATH, or checkpoint:PATH"
    )


# ---------------------------------------------------------------------------
# commands

_ESTIMATE_SPEC = {"oracle": (str, "identity"), **_spec(EstimatorConfig)}
# records per tolist() call, so the per-path rows never exist as Python objects all at once
_CSV_SLICE = 4096


def cmd_estimate(args) -> int:
    """Write one row per fitted path to estimate_paths.csv, and estimate.json with its sha256.

    Beside per_path (about 41 bytes a path, n_paths up to 2**32) the run holds
    one _CSV_SLICE of Python rows and the CSV's bytes (about 55 a path).
    """
    cfg = resolve_config(args)
    X, labels_int = load_dataset_csv(args.data)
    oracle = resolve_oracle(cfg.pop("oracle"), X.shape[1])
    est_cfg = EstimatorConfig(**cfg)
    anchor_labels = None
    if est_cfg.anchored:
        if labels_int is None:
            raise ConfigError("anchored estimation needs a label column in the dataset")
        anchor_labels = nets.one_hot(labels_int, int(labels_int.max()) + 1)
        if anchor_labels.shape[1] != oracle.output_dim:
            raise ConfigError(
                f"oracle emits {oracle.output_dim} outputs but the dataset has "
                f"{anchor_labels.shape[1]} classes"
            )
    report = ed_estimate(oracle, X, est_cfg, labels=anchor_labels)
    out_dir = _out_dir(args)
    records = report.per_path
    slices = (records[k : k + _CSV_SLICE] for k in range(0, len(records), _CSV_SLICE))
    rows = (row for piece in slices for row in piece.tolist())
    table = write_csv(out_dir, "estimate_paths.csv", list(records.dtype.names), rows)
    result = {
        "mean_ed": report.mean_ed,
        "mean_ed_norm": report.mean_ed_norm,
        "std_ed": report.std_ed,
        "n_paths": report.n_paths,
        "n_skipped": report.n_skipped,
        "oracle": oracle.name,
        "estimate_paths_sha256": hashlib.sha256(table).hexdigest(),
    }
    config_out = {**dataclasses.asdict(est_cfg), "oracle": oracle.name}
    write_artifact(out_dir, "estimate.json", "estimate", config_out, result)
    emit(args, result, table)
    return EXIT_OK


# the train command's defaults where they differ from TrainConfig's
_TRAIN_OVERRIDES = dict(task="cross_entropy", n_steps=400, batch_size=64, step_size=0.2)
_TRAIN_SPEC = {
    "hidden": (tuple[int, ...], (32, 32)),
    **{
        key: (kind, _TRAIN_OVERRIDES.get(key, default))
        for key, (kind, default) in _spec(nets.TrainConfig).items()
    },
}


# With pca_dim set, the penalty's gradient holds each path's PCA map P,
# fitted to the live outputs y, constant: it differentiates ED(P_sg(y) y).
PCA_PENALTY_GRADIENT = "ED(P_sg(y) y): each path's PCA map held constant"


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    X, labels_int = load_dataset_csv(args.data)
    if labels_int is None:
        raise ConfigError("train needs a dataset with a label column")
    n_classes = int(labels_int.max()) + 1
    targets = nets.one_hot(labels_int, n_classes)
    hidden = cfg.pop("hidden")
    train_cfg = nets.TrainConfig(**cfg)
    network = nets.FeedForwardNet.create(
        (X.shape[1],) + hidden + (n_classes,), seed=train_cfg.seed
    )
    log = nets.train(network, X, targets, train_cfg)
    out_dir = _out_dir(args)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    full_config = {**dataclasses.asdict(train_cfg), "hidden": list(hidden)}
    nets.save_checkpoint(network, ckpt_path, config=full_config)
    ckpt_sha = _sha256_file(ckpt_path)
    acc = nets.accuracy(network, X, labels_int)
    last = log[-1]
    result = {
        "final_task_loss": last.task_loss,
        "final_penalty": last.penalty,
        "final_lambda": last.lambda_eff,
        "final_total_loss": last.total_loss,
        "train_accuracy": acc,
        "n_steps": len(log),
        "checkpoint": "model.ckpt",
        "checkpoint_sha256": ckpt_sha,
        "pca_gradient": None if train_cfg.pca_dim is None else PCA_PENALTY_GRADIENT,
    }
    write_artifact(out_dir, "train.json", "train", full_config, result)
    columns = ["step", "task_loss", "ed_term", "lambda_eff"]
    table = [[r.step, r.task_loss, r.penalty, r.lambda_eff] for r in log]
    if train_cfg.task == "cross_entropy":
        columns.append("train_accuracy")
        for row, r in zip(table, log):
            row.append(r.accuracy)
    emit(args, result, write_csv(out_dir, "train_log.csv", columns, table))
    return EXIT_OK


_VERIFY_SPEC = {
    "pairs": (int, 200),
    "sampler": (str, "gaussian"),
    "dim": (int, 3),
    "deg_a": (int, 3),
    "deg_b": (int, 2),
    "terms": (int, 8),
    "seed": (int, 0),
}

_SAMPLERS = {
    "gaussian": polylab.gaussian_pair_sampler,
    "dyadic": polylab.dyadic_uniform_pair_sampler,
    "shared-coordinate": polylab.shared_coordinate_pair_sampler,
}


def cmd_verify_degree(args) -> int:
    from_file = _load_config_file(args.config)
    cfg = resolve_config(args, from_file)
    result = {}
    if args.polys is not None:
        # the file, not the random-polynomial settings, defines the pair
        if stray := [k for k in ("dim", "deg_a", "deg_b", "terms")
                     if getattr(args, k) is not None or k in from_file]:
            raise ConfigError(f"--polys takes no random-polynomial settings, got {stray}")
        with open(args.polys, encoding="utf-8") as fh:
            bundle = polylab.parse_poly_bundle(fh.read())
        if len(bundle) != 2:
            raise ConfigError(
                f"{args.polys} must hold exactly two polynomials, found {len(bundle)}"
            )
        poly_a, poly_b = bundle
        cfg = {key: cfg[key] for key in ("pairs", "sampler", "seed")}
        result["polys_sha256"] = _sha256_file(args.polys)
    else:
        rng = sampling.rng(cfg["seed"], 77)
        poly_a, poly_b = (
            polylab.random_multipoly(cfg["dim"], degree, rng, n_terms=cfg["terms"])
            for degree in (cfg["deg_a"], cfg["deg_b"])
        )
    sampler = _SAMPLERS[cfg["sampler"]](poly_a.dim)
    record = polylab.verify_order_preservation(
        poly_a, poly_b, n_pairs=cfg["pairs"], sampler=sampler, seed=cfg["seed"]
    )
    result.update(record.summary())
    result["polynomials"] = [polylab.format_poly(poly_a), polylab.format_poly(poly_b)]
    result["per_pair_degrees"] = [
        list(record.restricted_degrees[0]),
        list(record.restricted_degrees[1]),
    ]
    write_artifact(_out_dir(args), "verify_degree.json", "verify-degree", cfg, result)
    header = ["poly", "true_degree", "mean_restricted_degree", "degree_drops", "n_pairs"]
    rows = [
        [k + 1, record.true_degrees[k], record.mean_degrees[k], record.drop_counts[k], record.n_pairs]
        for k in range(2)
    ]
    emit(args, record.summary(), render_csv(header, rows))
    return EXIT_OK


_PNN_SPEC = _spec(nets.pnn_study)


def cmd_pnn_study(args) -> int:
    """Write pnn_study.json and pnn_study.csv; exit 6 naming every stalled task on stderr."""
    cfg = resolve_config(args)
    report = nets.pnn_study(**cfg)
    out_dir = _out_dir(args)
    result = dataclasses.asdict(report)
    result.update(result.pop("evaluation"))
    write_artifact(out_dir, "pnn_study.json", "pnn-study", cfg, result)
    table_header = [f.name for f in dataclasses.fields(nets.PNNTaskResult)]
    table_rows = [list(row.values()) for row in result["rows"]]
    table = write_csv(out_dir, "pnn_study.csv", table_header, table_rows)
    emit(args, {k: v for k, v in result.items() if k != "rows"}, table)
    if report.all_converged:
        return EXIT_OK
    stalled = ", ".join(f"{r.task} (mse {r.final_mse:.3e})" for r in report.rows if not r.converged)
    print(f"error: stalled above mse target {cfg['mse_target']:.1e}: {stalled}", file=sys.stderr)
    return EXIT_STUDY


_GRADCHECK_SPEC = {
    "surrogate_checks": (int, 40),
    "composite_checks": (int, 8),
    "seed": (int, 0),
}


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
    suites = {
        "surrogate": surrogate.gradcheck(cfg["surrogate_checks"], cfg["seed"]),
        "composite": nets.gradcheck(cfg["composite_checks"], cfg["seed"]),
    }
    ok = all(suite["ok"] for suite in suites.values())
    write_artifact(_out_dir(args), "gradcheck.json", "gradcheck", dict(cfg), {**suites, "ok": ok})
    summary = {
        name: {k: v for k, v in suite.items() if k != "cells"} for name, suite in suites.items()
    }
    header = ["suite", "n_checks", "max_rel_err", "tolerance", "ok"]
    rows = [
        [name, suite["n_checks"], suite["max_rel_err"], suite["tolerance"], suite["ok"]]
        for name, suite in suites.items()
    ]
    emit(args, {**summary, "ok": ok}, render_csv(header, rows))
    return EXIT_OK if ok else EXIT_GRADCHECK


# ---------------------------------------------------------------------------
# parser


# flags that are not the field name with dashes
_FLAG_NAMES = {
    "n_paths": "--paths",
    "n_steps": "--steps",
    "n_train": "--train-points",
    "n_eval": "--eval-points",
}

_CHOICES = {
    "basis": BASIS_KINDS,
    "scheme": sampling.SCHEME_VARIANTS,
    "task": nets.TASKS,
    "sampler": tuple(_SAMPLERS),
}

_HELP = {
    "seed": "random seed",
    "oracle": "constant | identity | affine | product | polyfile:PATH | checkpoint:PATH",
    "n_paths": "number of interpolation paths",
    "resolution": "samples per path",
    "max_degree": "surrogate degree cap",
    "damping": "least-squares damping",
    "pca_dim": "project outputs to this many components",
    "anchored": "replace endpoint samples with labels",
    "post_softmax": "fit softmax outputs",
    "hidden": "comma-separated hidden layer sizes, e.g. 32,32",
    "reg_strength": "penalty strength",
    "dim": "variables for random polynomials",
    "terms": "at most this many terms per random polynomial",
    "pairs": "endpoint pairs to sample",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effdeg",
        description="Effective-degree estimation, training, and verification tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, spec: dict, about: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or effdeg-out)")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="stdout rendering: json summary or the main csv table; "
            "file artifacts are written either way",
        )
        for key, (kind, _) in spec.items():
            if kind is bool:
                how = dict(action=argparse.BooleanOptionalAction)
            elif typing.get_origin(kind) is tuple:  # parsed by the resolver
                how = {}
            else:
                how = dict(type=_scalar_type(kind), choices=_CHOICES.get(key))
            flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
            p.add_argument(flag, dest=key, help=_HELP.get(key), **how)
        p.set_defaults(func=func, spec=spec)
        return p

    p = command(
        "estimate", cmd_estimate, _ESTIMATE_SPEC,
        "estimate the effective degree of an oracle over a dataset",
    )
    p.add_argument("--data", required=True, help="dataset CSV with columns x0..x{d-1}[,label]")
    p = command(
        "train", cmd_train, _TRAIN_SPEC, "train a classifier with the effective-degree penalty"
    )
    p.add_argument("--data", required=True, help="dataset CSV with a label column")
    p = command(
        "verify-degree", cmd_verify_degree, _VERIFY_SPEC,
        "exact order-preservation experiment on two polynomials",
    )
    p.add_argument("--polys", help="file with two polynomials, one per line")
    command(
        "pnn-study", cmd_pnn_study, _PNN_SPEC, "square-activation network study over six targets"
    )
    command(
        "gradcheck", cmd_gradcheck, _GRADCHECK_SPEC,
        "compare analytic gradients against finite differences",
    )
    return parser


# (exception type, exit code), first match wins
EXIT_CODES = (
    (ValueError, EXIT_CONFIG),
    (OSError, EXIT_IO),
    (SingularFitError, EXIT_NUMERICAL),
    (PathSamplingError, EXIT_NUMERICAL),
    (NonFiniteOutputError, EXIT_NONFINITE),
    (nets.NonFiniteLossError, EXIT_NONFINITE),
    (nets.TrainingFailure, EXIT_STUDY),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
