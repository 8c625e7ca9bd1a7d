"""Command-line entry points producing reproducible artifacts.

Every command resolves its configuration from defaults, an optional JSON
config file, and explicit flags (flags win), then writes artifacts into the
output directory: a JSON report carrying the resolved config, the package
version, and a canonical sha256 that ignores only the creation timestamp,
plus optional CSV companions.  All writes go through a temp file and an
atomic rename.

Exit codes: 0 success, 1 gradient check failure, 2 configuration problem,
3 I/O problem, 4 numerical failure, 5 non-finite training loss, 6 study
training failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import net as nets
from . import polylab, sampling
from .estimator import (
    EstimatorConfig,
    FunctionOracle,
    PathSamplingError,
    ed_estimate,
)
from .sampling import sample_abscissas
from .surrogate import (
    SingularFitError,
    central_difference,
    ed_from_coefficients,
    ed_gradient,
    fit,
)

__all__ = ["main"]

OUT_DIR_ENV = "EFFDEG_OUT_DIR"

# undocumented: set to 1 to corrupt analytic gradients, proving the check
# actually fails when the math is wrong
_BREAK_ENV = "EFFDEG_GRADCHECK_BREAK"

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


def resolve_config(args, defaults: dict) -> dict:
    """Merge defaults, config-file values, and explicit flags; flags win."""
    from_file = _load_config_file(getattr(args, "config", None))
    unknown = set(from_file) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
    return resolved


def _out_dir(args) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get(OUT_DIR_ENV, "effdeg-out")


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


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
    if spec.startswith("polyfile:"):
        path = spec.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            polys = polylab.parse_poly_bundle(fh.read(), dim=dim)

        def evaluate(x: np.ndarray) -> np.ndarray:
            out = np.empty((x.shape[0], len(polys)))
            for r, row in enumerate(x):
                pt = [float(v) for v in row]
                for c, poly in enumerate(polys):
                    total = 0.0
                    for exp, coef in poly.terms.items():
                        term = float(coef)
                        for xv, e in zip(pt, exp):
                            if e:
                                term *= xv**e
                        total += term
                    out[r, c] = total
            return out

        return FunctionOracle(dim, len(polys), evaluate, name=spec)
    if spec.startswith("checkpoint:"):
        path = spec.split(":", 1)[1]
        network, _ = nets.load_checkpoint(path)
        if network.layer_sizes[0] != dim:
            raise ConfigError(
                f"checkpoint expects {network.layer_sizes[0]} features, dataset has {dim}"
            )
        return network.as_oracle(name=spec)
    raise ConfigError(
        f"unknown oracle {spec!r}; use constant, identity, affine, product, "
        "polyfile:PATH, or checkpoint:PATH"
    )


# ---------------------------------------------------------------------------
# commands

_ESTIMATE_DEFAULTS = dict(
    oracle="identity",
    n_paths=100,
    resolution=4,
    max_degree=3,
    damping=1e-6,
    basis="chebyshev",
    scheme="randomized_cosine",
    pca_dim=None,
    anchored=False,
    post_softmax=False,
    seed=0,
)


def cmd_estimate(args) -> int:
    cfg = resolve_config(args, _ESTIMATE_DEFAULTS)
    X, labels_int = load_dataset_csv(args.data)
    oracle = resolve_oracle(cfg["oracle"], X.shape[1])
    est_cfg = EstimatorConfig(
        n_paths=_as_int(cfg["n_paths"], "n_paths"),
        resolution=_as_int(cfg["resolution"], "resolution"),
        max_degree=_as_int(cfg["max_degree"], "max_degree"),
        damping=float(cfg["damping"]),
        basis=cfg["basis"],
        scheme=cfg["scheme"],
        pca_dim=None if cfg["pca_dim"] is None else _as_int(cfg["pca_dim"], "pca_dim"),
        anchored=bool(cfg["anchored"]),
        post_softmax=bool(cfg["post_softmax"]),
        seed=_as_int(cfg["seed"], "seed"),
    )
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
    config_out["oracle"] = cfg["oracle"]
    write_artifact(out_dir, "estimate.json", "estimate", config_out, result)
    path_header = ["index", "endpoint_i", "endpoint_j", "ed", "ed_norm", "pca_ties"]
    path_rows = [
        [p.index, p.endpoint_indices[0], p.endpoint_indices[1], p.ed, p.ed_norm, int(p.pca_ties)]
        for p in report.per_path
    ]
    write_csv(out_dir, "estimate_paths.csv", path_header, path_rows)
    summary = {
        "mean_ed": report.mean_ed,
        "mean_ed_norm": report.mean_ed_norm,
        "std_ed": report.std_ed,
        "n_paths": report.n_paths,
        "n_skipped": report.n_skipped,
        "oracle": oracle.name,
    }
    emit(args, summary, path_header, path_rows)
    return EXIT_OK


_TRAIN_DEFAULTS = dict(
    task="cross_entropy",
    hidden="32,32",
    n_steps=400,
    batch_size=64,
    step_size=0.2,
    momentum=0.0,
    reg_strength=0.0,
    ramp_fraction=0.3,
    reg_paths=8,
    resolution=4,
    max_degree=3,
    damping=1e-6,
    basis="chebyshev",
    scheme="randomized_cosine",
    pca_dim=None,
    anchored=False,
    seed=0,
)


def cmd_train(args) -> int:
    cfg = resolve_config(args, _TRAIN_DEFAULTS)
    X, labels_int = load_dataset_csv(args.data)
    if labels_int is None:
        raise ConfigError("train needs a dataset with a label column")
    n_classes = int(labels_int.max()) + 1
    targets = nets.one_hot(labels_int, n_classes)
    try:
        hidden = tuple(int(h) for h in str(cfg["hidden"]).split(",") if h.strip())
    except ValueError as exc:
        raise ConfigError(f"bad hidden spec {cfg['hidden']!r}") from exc
    if not hidden:
        raise ConfigError("hidden layer spec is empty")
    train_cfg = nets.TrainConfig(
        task=cfg["task"],
        n_steps=_as_int(cfg["n_steps"], "n_steps"),
        batch_size=_as_int(cfg["batch_size"], "batch_size"),
        step_size=float(cfg["step_size"]),
        momentum=float(cfg["momentum"]),
        reg_strength=float(cfg["reg_strength"]),
        ramp_fraction=float(cfg["ramp_fraction"]),
        reg_paths=_as_int(cfg["reg_paths"], "reg_paths"),
        resolution=_as_int(cfg["resolution"], "resolution"),
        max_degree=_as_int(cfg["max_degree"], "max_degree"),
        damping=float(cfg["damping"]),
        basis=cfg["basis"],
        scheme=cfg["scheme"],
        pca_dim=None if cfg["pca_dim"] is None else _as_int(cfg["pca_dim"], "pca_dim"),
        anchored=bool(cfg["anchored"]),
        seed=_as_int(cfg["seed"], "seed"),
    )
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
    with open(ckpt_path, "rb") as fh:
        ckpt_sha = hashlib.sha256(fh.read()).hexdigest()
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


_VERIFY_DEFAULTS = dict(
    pairs=200,
    sampler="gaussian",
    dim=3,
    deg_a=3,
    deg_b=2,
    terms=8,
    seed=0,
)

_SAMPLERS = {
    "gaussian": polylab.gaussian_pair_sampler,
    "dyadic": polylab.dyadic_uniform_pair_sampler,
    "shared-coordinate": polylab.shared_coordinate_pair_sampler,
}


def cmd_verify_degree(args) -> int:
    cfg = resolve_config(args, _VERIFY_DEFAULTS)
    if args.polys is not None:
        with open(args.polys, encoding="utf-8") as fh:
            bundle = polylab.parse_poly_bundle(fh.read())
        if len(bundle) != 2:
            raise ConfigError(
                f"{args.polys} must hold exactly two polynomials, found {len(bundle)}"
            )
        poly_a, poly_b = bundle
        source = {"polys_file": args.polys}
    else:
        dim = _as_int(cfg["dim"], "dim")
        rng = sampling.rng(_as_int(cfg["seed"], "seed"), 77)
        poly_a = polylab.random_multipoly(
            dim, _as_int(cfg["deg_a"], "deg_a"), rng, n_terms=_as_int(cfg["terms"], "terms")
        )
        poly_b = polylab.random_multipoly(
            dim, _as_int(cfg["deg_b"], "deg_b"), rng, n_terms=_as_int(cfg["terms"], "terms")
        )
        source = {"random": True, "dim": dim}
    if cfg["sampler"] not in _SAMPLERS:
        raise ConfigError(f"unknown sampler {cfg['sampler']!r}")
    sampler = _SAMPLERS[cfg["sampler"]](poly_a.dim)
    record = polylab.verify_order_preservation(
        poly_a,
        poly_b,
        n_pairs=_as_int(cfg["pairs"], "pairs"),
        sampler=sampler,
        seed=_as_int(cfg["seed"], "seed"),
    )
    out_dir = _out_dir(args)
    config_out = dict(cfg)
    config_out.update(source)
    result = dict(record.summary())
    result["polynomials"] = [polylab.format_poly(poly_a), polylab.format_poly(poly_b)]
    result["per_pair_degrees"] = [
        list(record.restricted_degrees[0]),
        list(record.restricted_degrees[1]),
    ]
    write_artifact(out_dir, "verify_degree.json", "verify-degree", config_out, result)
    summary = dict(record.summary())
    emit(
        args,
        summary,
        ["poly", "true_degree", "mean_restricted_degree", "degree_drops", "n_pairs"],
        [
            [k + 1, record.true_degrees[k], record.mean_degrees[k], record.drop_counts[k], record.n_pairs]
            for k in range(2)
        ],
    )
    return EXIT_OK


_PNN_DEFAULTS = dict(
    width=16,
    n_train=512,
    n_steps=30000,
    n_eval=256,
    mse_target=1e-4,
    seed=0,
)


def cmd_pnn_study(args) -> int:
    cfg = resolve_config(args, _PNN_DEFAULTS)
    report = nets.pnn_study(
        seed=_as_int(cfg["seed"], "seed"),
        width=_as_int(cfg["width"], "width"),
        n_train=_as_int(cfg["n_train"], "n_train"),
        n_steps=_as_int(cfg["n_steps"], "n_steps"),
        n_eval=_as_int(cfg["n_eval"], "n_eval"),
        mse_target=float(cfg["mse_target"]),
        strict=not args.keep_going,
    )
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
    summary = {
        "orderings": report.orderings,
        "norm_gaps": report.norm_gaps,
        "scaling_ok": report.scaling_ok,
        "all_converged": report.all_converged,
        "all_ok": report.all_ok,
    }
    emit(args, summary, table_header, table_rows)
    return EXIT_OK if report.all_converged else EXIT_STUDY


_GRADCHECK_DEFAULTS = dict(
    surrogate_checks=40,
    composite_checks=8,
    seed=0,
)


def _rel_err(analytic: np.ndarray, reference: np.ndarray) -> float:
    denom = max(float(np.abs(reference).max()), 1e-12)
    return float(np.abs(analytic - reference).max()) / denom


def _surrogate_gradcheck(n_checks: int, seed: int, corrupt: bool) -> dict:
    rng = sampling.rng(seed, 1)
    cells = []
    attempts = 0
    while len(cells) < n_checks and attempts < n_checks * 20:
        attempts += 1
        r = int(rng.integers(4, 16))
        max_degree = int(rng.integers(3, min(r, 15)))
        damping = float(rng.choice([1e-6, 1e-3]))
        basis = str(rng.choice(["chebyshev", "legendre"]))
        abscissas = sample_abscissas("randomized_cosine", r, seed=int(rng.integers(2**32)))
        y = rng.standard_normal(r)
        coeffs = fit(abscissas, y, max_degree, damping, basis).coefficients
        if np.abs(coeffs).min() <= 1e-8:
            continue
        analytic = ed_gradient(abscissas, y, max_degree, damping, basis)
        if corrupt:
            analytic = -analytic

        def objective(vals):
            return ed_from_coefficients(
                fit(abscissas, vals, max_degree, damping, basis).coefficients
            ).ed

        reference = central_difference(objective, y, step=1e-6)
        cells.append(
            {
                "resolution": r,
                "max_degree": max_degree,
                "damping": damping,
                "basis": basis,
                "rel_err": _rel_err(analytic, reference),
            }
        )
    worst = max((c["rel_err"] for c in cells), default=0.0)
    return {
        "n_checks": len(cells),
        "max_rel_err": worst,
        "tolerance": 1e-4,
        "ok": bool(len(cells) == n_checks and worst < 1e-4),
        "cells": cells,
    }


def _composite_gradcheck(n_checks: int, seed: int, corrupt: bool) -> dict:
    cells = []
    attempt = 0
    while len(cells) < n_checks and attempt < n_checks * 20:
        rng = sampling.rng(seed, 2, attempt)
        attempt += 1
        anchored = bool(rng.integers(0, 2))
        pca_dim = int(rng.integers(1, 3)) if rng.integers(0, 2) else None
        task = "cross_entropy" if anchored and rng.integers(0, 2) else "mse"
        cfg = nets.TrainConfig(
            task=task,
            n_steps=1,
            batch_size=8,
            step_size=0.1,
            reg_strength=1.0,
            ramp_fraction=0.0,
            reg_paths=3,
            resolution=6,
            max_degree=3,
            damping=1e-6,
            scheme="randomized_cosine",
            pca_dim=pca_dim,
            anchored=anchored,
            seed=int(rng.integers(2**32)),
        )
        network = nets.FeedForwardNet.create(
            (2, 5, 3), activations=("square", "identity"), seed=int(rng.integers(2**32)), scale=0.6
        )
        X = rng.standard_normal((8, 2))
        if task == "cross_entropy":
            T = nets.one_hot(rng.integers(0, 3, size=8), 3)
        else:
            T = rng.standard_normal((8, 3))
        plans = nets.plan_paths(X, cfg, step=0)
        if len(plans) < cfg.reg_paths:
            continue
        penalty, grads, projections = nets.ed_penalty(network, X, T, plans, cfg)
        raw, cache = network.forward_cached(X)
        task_loss, d_raw = nets.task_loss_and_grad(raw, T, cfg.task)
        d_w, d_b = network.backward(cache, d_raw)
        analytic_parts = []
        for l in range(len(network.weights)):
            analytic_parts.append((d_w[l] + cfg.reg_strength * grads[0][l]).ravel())
            analytic_parts.append((d_b[l] + cfg.reg_strength * grads[1][l]).ravel())
        analytic = np.concatenate(analytic_parts)
        if corrupt:
            analytic = -analytic
        probe = network.clone()

        def objective(flat):
            probe.set_flat(flat)
            p, _, _ = nets.ed_penalty(
                probe, X, T, plans, cfg, want_grads=False, projections=projections
            )
            out, _ = probe.forward_cached(X)
            tl, _ = nets.task_loss_and_grad(out, T, cfg.task)
            return tl + cfg.reg_strength * p

        reference = central_difference(objective, network.get_flat(), step=1e-6)
        cells.append(
            {
                "task": task,
                "anchored": anchored,
                "pca_dim": pca_dim,
                "rel_err": _rel_err(analytic, reference),
            }
        )
    worst = max((c["rel_err"] for c in cells), default=0.0)
    return {
        "n_checks": len(cells),
        "max_rel_err": worst,
        "tolerance": 1e-3,
        "ok": bool(len(cells) == n_checks and worst < 1e-3),
        "cells": cells,
    }


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args, _GRADCHECK_DEFAULTS)
    corrupt = os.environ.get(_BREAK_ENV, "") == "1"
    seed = _as_int(cfg["seed"], "seed")
    surrogate_part = _surrogate_gradcheck(
        _as_int(cfg["surrogate_checks"], "surrogate_checks"), seed, corrupt
    )
    composite_part = _composite_gradcheck(
        _as_int(cfg["composite_checks"], "composite_checks"), seed, corrupt
    )
    ok = surrogate_part["ok"] and composite_part["ok"]
    result = {"surrogate": surrogate_part, "composite": composite_part, "ok": ok}
    write_artifact(_out_dir(args), "gradcheck.json", "gradcheck", dict(cfg), result)
    summary = {
        "surrogate": {k: v for k, v in surrogate_part.items() if k != "cells"},
        "composite": {k: v for k, v in composite_part.items() if k != "cells"},
        "ok": ok,
    }
    emit(
        args,
        summary,
        ["suite", "n_checks", "max_rel_err", "tolerance", "ok"],
        [
            ["surrogate", surrogate_part["n_checks"], surrogate_part["max_rel_err"],
             surrogate_part["tolerance"], int(surrogate_part["ok"])],
            ["composite", composite_part["n_checks"], composite_part["max_rel_err"],
             composite_part["tolerance"], int(composite_part["ok"])],
        ],
    )
    return EXIT_OK if ok else EXIT_GRADCHECK


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or effdeg-out)")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="stdout rendering: json summary or the main csv table; "
        "file artifacts are written either way",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effdeg",
        description="Effective-degree estimation, training, and verification tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate the effective degree of an oracle over a dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset CSV with columns x0..x{d-1}[,label]")
    p.add_argument("--oracle", help="constant | identity | affine | product | polyfile:PATH | checkpoint:PATH")
    p.add_argument("--paths", dest="n_paths", type=int, help="number of interpolation paths")
    p.add_argument("--resolution", type=int, help="samples per path")
    p.add_argument("--max-degree", dest="max_degree", type=int, help="surrogate degree cap")
    p.add_argument("--damping", type=float, help="least-squares damping")
    p.add_argument("--basis", choices=("chebyshev", "legendre"))
    p.add_argument("--scheme", choices=("chebyshev_fixed", "randomized_cosine", "uniform"))
    p.add_argument("--pca-dim", dest="pca_dim", type=int, help="project outputs to this many components")
    p.add_argument("--anchored", action=argparse.BooleanOptionalAction, help="replace endpoint samples with labels")
    p.add_argument("--post-softmax", dest="post_softmax", action=argparse.BooleanOptionalAction, help="fit softmax outputs")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("train", help="train a classifier with the effective-degree penalty")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset CSV with a label column")
    p.add_argument("--task", choices=("mse", "cross_entropy"))
    p.add_argument("--hidden", help="comma-separated hidden layer sizes, e.g. 32,32")
    p.add_argument("--steps", dest="n_steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--step-size", dest="step_size", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--reg-strength", dest="reg_strength", type=float, help="penalty strength")
    p.add_argument("--ramp-fraction", dest="ramp_fraction", type=float)
    p.add_argument("--reg-paths", dest="reg_paths", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--max-degree", dest="max_degree", type=int)
    p.add_argument("--damping", type=float)
    p.add_argument("--basis", choices=("chebyshev", "legendre"))
    p.add_argument("--scheme", choices=("chebyshev_fixed", "randomized_cosine", "uniform"))
    p.add_argument("--pca-dim", dest="pca_dim", type=int)
    p.add_argument("--anchored", action=argparse.BooleanOptionalAction)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify-degree", help="exact order-preservation experiment on two polynomials")
    _add_common(p)
    p.add_argument("--polys", help="file with two polynomials, one per line")
    p.add_argument("--dim", type=int, help="variables for random polynomials")
    p.add_argument("--deg-a", dest="deg_a", type=int)
    p.add_argument("--deg-b", dest="deg_b", type=int)
    p.add_argument("--terms", type=int, help="terms per random polynomial")
    p.add_argument("--pairs", type=int, help="endpoint pairs to sample")
    p.add_argument("--sampler", choices=tuple(_SAMPLERS))
    p.set_defaults(func=cmd_verify_degree)

    p = sub.add_parser("pnn-study", help="square-activation network study over six targets")
    _add_common(p)
    p.add_argument("--width", type=int)
    p.add_argument("--train-points", dest="n_train", type=int)
    p.add_argument("--steps", dest="n_steps", type=int)
    p.add_argument("--eval-points", dest="n_eval", type=int)
    p.add_argument("--mse-target", dest="mse_target", type=float)
    p.add_argument(
        "--keep-going", action="store_true",
        help="report unconverged tasks instead of failing",
    )
    p.set_defaults(func=cmd_pnn_study)

    p = sub.add_parser("gradcheck", help="compare analytic gradients against finite differences")
    _add_common(p)
    p.add_argument("--surrogate-checks", dest="surrogate_checks", type=int)
    p.add_argument("--composite-checks", dest="composite_checks", type=int)
    p.set_defaults(func=cmd_gradcheck)

    return parser


# (exception type, exit code), first match wins
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (polylab.PolyParseError, EXIT_CONFIG),
    (ValueError, EXIT_CONFIG),
    (OSError, EXIT_IO),
    (SingularFitError, EXIT_NUMERICAL),
    (PathSamplingError, EXIT_NUMERICAL),
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
