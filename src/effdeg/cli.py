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
of their bytes, not by their path.  The gradient audits behind gradcheck
live next to the code they audit (surrogate.gradcheck, net.gradcheck).

Exit codes: 0 success, 1 gradient check failure, 2 configuration problem,
3 I/O problem, 4 numerical failure, 5 non-finite training loss or
oracle/network output, 6 study training failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import io
import json
import os
import sys
import tempfile
import typing
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


def canonical_hash(document: dict, exclude=("created", "canonical_sha256")) -> str:
    """sha256 of the sorted-key JSON rendering minus volatile fields."""
    core = {k: v for k, v in document.items() if k not in exclude}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_artifact(out_dir: str, name: str, schema: str, config: dict, result: dict) -> dict:
    doc = {
        "schema": schema,
        "version": __version__,
        "created": _now(),
        "config": config,
        "result": result,
    }
    doc["canonical_sha256"] = canonical_hash(doc)
    _atomic_write(
        os.path.join(out_dir, name),
        json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n",
    )
    return doc


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_csv(out_dir: str, name: str, header: list[str], rows: list[list]) -> None:
    _atomic_write(os.path.join(out_dir, name), render_csv(header, rows).encode())


def emit(args, summary: dict, header: list[str], rows: list[list]) -> None:
    """Render the run's outcome to stdout as the selected format."""
    if args.format == "csv":
        sys.stdout.write(render_csv(header, rows))
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


def _spec(target, *omit: str) -> dict:
    """name -> (type, default) for the keyword parameters of a function or dataclass."""
    hints = typing.get_type_hints(target)
    return {
        name: (hints[name], param.default)
        for name, param in inspect.signature(target).parameters.items()
        if name not in omit
    }


def _scalar_type(kind):
    """int for `int | None`; the type itself for a plain type."""
    return next((a for a in typing.get_args(kind) if a is not type(None)), kind)


def _check(key: str, kind, value):
    """value as `kind`, or ConfigError naming key.

    JSON booleans, numbers and strings do not stand in for each other; an
    int field takes a float only when it is integral.
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
    return kind(value)


def resolve_config(args) -> dict:
    """Merge the command's spec defaults, config-file values and explicit
    flags (flags win), each checked against its type and choices."""
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
    if getattr(args, "out", None):
        return args.out
    return os.environ.get(OUT_DIR_ENV, "effdeg-out")


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# dataset and oracle loading


def load_dataset_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Read feature columns x0..x{d-1} plus an optional integer label column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path} is empty")
        feature_cols = [h for h in header if h.startswith("x")]
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
                rows.append([float(row[k]) for k in feature_pos])
                if has_label:
                    labels.append(int(row[label_pos]))
            except ValueError as exc:
                raise ConfigError(f"{path}:{ln}: {exc}") from exc
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


def cmd_estimate(args) -> int:
    cfg = resolve_config(args)
    X, labels_int = load_dataset_csv(args.data)
    oracle = resolve_oracle(cfg.pop("oracle"), X.shape[1])
    est_cfg = EstimatorConfig(**cfg)
    try:
        est_cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    result = {
        "mean_ed": report.mean_ed,
        "mean_ed_norm": report.mean_ed_norm,
        "std_ed": report.std_ed,
        "n_paths": report.n_paths,
        "n_skipped": report.n_skipped,
        "oracle": oracle.name,
        "per_path": [
            {
                "index": p.index,
                "endpoints": list(p.endpoint_indices),
                "ed": p.ed,
                "ed_norm": p.ed_norm,
                "pca_ties": p.pca_ties,
            }
            for p in report.per_path
        ],
    }
    config_out = dict(report.config)
    config_out["oracle"] = oracle.name
    write_artifact(out_dir, "estimate.json", "estimate", config_out, result)
    path_header = ["index", "endpoint_i", "endpoint_j", "ed", "ed_norm", "pca_ties"]
    path_rows = [
        [p.index, p.endpoint_indices[0], p.endpoint_indices[1], p.ed, p.ed_norm, int(p.pca_ties)]
        for p in report.per_path
    ]
    write_csv(out_dir, "estimate_paths.csv", path_header, path_rows)
    summary = {k: v for k, v in result.items() if k != "per_path"}
    emit(args, summary, path_header, path_rows)
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


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    X, labels_int = load_dataset_csv(args.data)
    if labels_int is None:
        raise ConfigError("train needs a dataset with a label column")
    n_classes = int(labels_int.max()) + 1
    targets = nets.one_hot(labels_int, n_classes)
    hidden = cfg.pop("hidden")
    train_cfg = nets.TrainConfig(**cfg)
    try:
        train_cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    network = nets.FeedForwardNet.create(
        (X.shape[1],) + hidden + (n_classes,), seed=train_cfg.seed
    )
    log = nets.train(network, X, targets, train_cfg)
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    full_config = dict(train_cfg.fingerprint())
    full_config["hidden"] = list(hidden)
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
    }
    write_artifact(out_dir, "train.json", "train", full_config, result)
    columns = ["step", "task_loss", "ed_term", "lambda_eff"]
    table = [[r.step, r.task_loss, r.penalty, r.lambda_eff] for r in log]
    if train_cfg.task == "cross_entropy":
        columns.append("train_accuracy")
        for row, r in zip(table, log):
            row.append(r.accuracy)
    write_csv(out_dir, "train_log.csv", columns, table)
    emit(args, result, columns, table)
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
    cfg = resolve_config(args)
    result = {}
    if args.polys is not None:
        with open(args.polys, encoding="utf-8") as fh:
            bundle = polylab.parse_poly_bundle(fh.read())
        if len(bundle) != 2:
            raise ConfigError(
                f"{args.polys} must hold exactly two polynomials, found {len(bundle)}"
            )
        poly_a, poly_b = bundle
        # the file, not the random-polynomial settings, defines the pair
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
    emit(
        args,
        record.summary(),
        ["poly", "true_degree", "mean_restricted_degree", "degree_drops", "n_pairs"],
        [
            [k + 1, record.true_degrees[k], record.mean_degrees[k], record.drop_counts[k], record.n_pairs]
            for k in range(2)
        ],
    )
    return EXIT_OK


_PNN_SPEC = _spec(nets.pnn_study, "strict")


def cmd_pnn_study(args) -> int:
    report = nets.pnn_study(**resolve_config(args), strict=not args.keep_going)
    out_dir = _out_dir(args)
    rows = [
        {
            "task": r.task,
            "target_degree": r.target_degree,
            "final_mse": r.final_mse,
            "converged": r.converged,
            "restarts": r.restarts,
            **r.metrics(),
        }
        for r in report.rows
    ]
    result = {
        "rows": rows,
        "orderings": report.orderings,
        "norm_gaps": report.norm_gaps,
        "scaling_ok": report.scaling_ok,
        "all_converged": report.all_converged,
        "all_ok": report.all_ok,
        **report.evaluation,
    }
    write_artifact(out_dir, "pnn_study.json", "pnn-study", dict(report.config), result)
    table_header = [
        "task", "target_degree", "final_mse", "converged", "restarts",
        "ed_cheb", "ed_norm_cheb", "ed_legendre", "ed_pca1", "ed_pca2",
    ]
    table_rows = [
        [
            r.task, r.target_degree, r.final_mse, int(r.converged), r.restarts,
            r.ed_cheb, r.ed_norm_cheb, r.ed_legendre, r.ed_pca1, r.ed_pca2,
        ]
        for r in report.rows
    ]
    write_csv(out_dir, "pnn_study.csv", table_header, table_rows)
    summary = {k: v for k, v in result.items() if k != "rows"}
    emit(args, summary, table_header, table_rows)
    return EXIT_OK if report.all_converged else EXIT_STUDY


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
    emit(
        args,
        {**summary, "ok": ok},
        ["suite", "n_checks", "max_rel_err", "tolerance", "ok"],
        [
            [name, suite["n_checks"], suite["max_rel_err"], suite["tolerance"], int(suite["ok"])]
            for name, suite in suites.items()
        ],
    )
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
    "terms": "terms per random polynomial",
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
    p = command(
        "pnn-study", cmd_pnn_study, _PNN_SPEC, "square-activation network study over six targets"
    )
    p.add_argument(
        "--keep-going", action="store_true",
        help="report unconverged tasks instead of failing",
    )
    command(
        "gradcheck", cmd_gradcheck, _GRADCHECK_SPEC,
        "compare analytic gradients against finite differences",
    )
    return parser


# (exception type, exit code), first match wins
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (polylab.PolyParseError, EXIT_CONFIG),
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
