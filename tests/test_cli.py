"""End-to-end CLI behavior: artifacts, schemas, exit codes, reruns."""

import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from effdeg import __version__, cli, polylab, surrogate
from effdeg import net as nets
from effdeg.cli import (
    EXIT_CONFIG,
    EXIT_GRADCHECK,
    EXIT_IO,
    EXIT_NONFINITE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_STUDY,
    OUT_DIR_ENV,
    ConfigError,
    canonical_hash,
    load_dataset_csv,
    main,
)
from effdeg.estimator import EstimatorConfig, NonFiniteOutputError, PathSamplingError, ed_estimate
from effdeg.net import load_checkpoint
from effdeg.surrogate import SingularFitError

from oracles import evaluate
from test_net import checkpoint_blob, foreign_size_checkpoints, mistyped_checkpoint_headers

FIXTURES = Path(__file__).parent / "fixtures"


def write_dataset(path, X, labels=None):
    X = np.asarray(X, dtype=float)
    header = [f"x{k}" for k in range(X.shape[1])]
    if labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for i, row in enumerate(X):
        cells = [repr(float(v)) for v in row]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def cluster_dataset(path, n=32, seed=0):
    rng = np.random.default_rng(seed)
    X = np.concatenate(
        [rng.standard_normal((n // 2, 2)) + 2.0, rng.standard_normal((n // 2, 2)) - 2.0]
    )
    y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    return write_dataset(path, X, y)


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def without_created(doc):
    return {k: v for k, v in doc.items() if k != "created"}


def load_schema(name):
    ref = resources.files("effdeg.schemas").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", "x.csv", "--bogus-flag", "1"])
    assert exc.value.code == 2


def test_estimate_constant_oracle_zero_ed(tmp_path, capsys):
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(1).standard_normal((10, 3)))
    out = str(tmp_path / "out")
    code = main([
        "estimate", "--data", data, "--oracle", "constant", "--damping", "0",
        "--paths", "8", "--out", out,
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["mean_ed"] < 1e-12
    assert summary["oracle"] == "constant"
    assert os.path.exists(os.path.join(out, "estimate.json"))
    assert os.path.exists(os.path.join(out, "estimate_paths.csv"))


def test_estimate_affine_caps_ed_norm(tmp_path, capsys):
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(2).standard_normal((12, 3)))
    out = str(tmp_path / "out")
    code = main([
        "estimate", "--data", data, "--oracle", "affine", "--damping", "0",
        "--paths", "10", "--out", out,
    ])
    assert code == EXIT_OK
    capsys.readouterr()
    with open(os.path.join(out, "estimate_paths.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert float(row["ed_norm"]) <= 1.0 + 1e-8


def test_estimate_validates_against_schema(tmp_path, capsys):
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(3).standard_normal((8, 2)))
    out = str(tmp_path / "out")
    assert main(["estimate", "--data", data, "--out", out, "--paths", "6"]) == EXIT_OK
    capsys.readouterr()
    doc = read_json(out, "estimate.json")
    jsonschema.validate(doc, load_schema("estimate.schema.json"))
    assert doc["canonical_sha256"] == canonical_hash(doc)


def test_estimate_rerun_is_canonically_identical(tmp_path, capsys):
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(4).standard_normal((10, 2)))
    outs = [str(tmp_path / f"out{k}") for k in range(2)]
    for out in outs:
        assert main([
            "estimate", "--data", data, "--paths", "12", "--seed", "9", "--out", out,
        ]) == EXIT_OK
    capsys.readouterr()
    a, b = (read_json(out, "estimate.json") for out in outs)
    assert a["canonical_sha256"] == b["canonical_sha256"]
    assert without_created(a) == without_created(b)
    csv_a = Path(outs[0], "estimate_paths.csv").read_bytes()
    csv_b = Path(outs[1], "estimate_paths.csv").read_bytes()
    assert csv_a == csv_b


def test_estimate_csv_stdout_mode(tmp_path, capsys):
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(5).standard_normal((8, 2)))
    out = str(tmp_path / "out")
    assert main([
        "estimate", "--data", data, "--paths", "5", "--out", out, "--format", "csv",
    ]) == EXIT_OK
    text = capsys.readouterr().out
    # stdout carries the bytes written to the file, not a second rendering
    assert text.encode() == Path(out, "estimate_paths.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["index", "endpoint_i", "endpoint_j", "ed", "ed_norm", "pca_ties"]
    assert len(rows) == 6
    # repr-rendered floats round-trip exactly
    X, _ = load_dataset_csv(data)
    assert float(rows[1][3]) == ed_estimate(
        cli.resolve_oracle("identity", 2), X, EstimatorConfig(n_paths=5)
    ).per_path.ed[0]


def test_estimate_csv_rows_are_the_report_records(tmp_path, capsys):
    # the CSV holds every record of the library's report, once, and
    # estimate.json holds the sha256 of the CSV's bytes instead of a copy
    rng = np.random.default_rng(8)
    data = write_dataset(tmp_path / "d.csv", rng.standard_normal((9, 3)))
    out = str(tmp_path / "out")
    assert main([
        "estimate", "--data", data, "--oracle", "product", "--paths", "7",
        "--pca-dim", "1", "--out", out,
    ]) == EXIT_OK
    capsys.readouterr()
    with open(os.path.join(out, "estimate_paths.csv"), newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    X, _ = load_dataset_csv(data)
    report = ed_estimate(
        cli.resolve_oracle("product", 3), X, EstimatorConfig(n_paths=7, pca_dim=1)
    )
    assert tuple(header) == report.per_path.dtype.names
    assert len(rows) == len(report.per_path) == 7
    for row, record in zip(rows, report.per_path.tolist()):
        index, i, j, ed, ed_norm, ties = row
        assert (int(index), int(i), int(j), float(ed), float(ed_norm), bool(int(ties))) == record
    result = read_json(out, "estimate.json")["result"]
    assert "per_path" not in result
    assert result["estimate_paths_sha256"] == hashlib.sha256(
        Path(out, "estimate_paths.csv").read_bytes()
    ).hexdigest()


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB only on Linux")
def test_estimate_of_many_paths_holds_each_record_once(tmp_path):
    # 2 * 10**5 paths (identity oracle, d 8, r 4, K 3, 256 rows): the run
    # stays under 120 MB, which a JSON copy of every record exceeds
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(70).standard_normal((256, 8)))
    out = tmp_path / "out"
    child = (
        "import resource, subprocess, sys\n"
        "code = subprocess.call([sys.executable, '-m', 'effdeg', *sys.argv[1:]],"
        " stdout=subprocess.DEVNULL)\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", child, "estimate", "--data", data, "--paths", "200000",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
        check=True,
    )
    code, max_rss_kb = map(int, done.stdout.split())
    assert code == EXIT_OK, done.stderr
    assert max_rss_kb < 120 * 1024
    table = (out / "estimate_paths.csv").read_bytes()
    assert table.count(b"\r\n") == 200_001
    result = read_json(out, "estimate.json")["result"]
    assert result["estimate_paths_sha256"] == hashlib.sha256(table).hexdigest()


def test_malformed_inputs_exit_two_naming_the_file(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    blob = json.dumps({"layer_sizes": [2, 1], "activations": ["identity"]}).encode()
    ckpt.write_bytes(b"EDNETCK1" + len(blob).to_bytes(8, "little") + blob)
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(9).standard_normal((6, 2)))
    runs = [(["estimate", "--data", data, "--oracle", f"checkpoint:{ckpt}"], "model.ckpt")]
    for name, body in [("neg.csv", "0.5,1.0,-1"), ("nan.csv", "nan,1.0,0")]:
        bad = tmp_path / name
        bad.write_text(f"x0,x1,label\n1.0,2.0,1\n-1.0,0.5,0\n{body}\n", encoding="utf-8")
        runs += [
            (["train", "--data", str(bad), "--steps", "2", "--batch-size", "2"], f"{name}:4"),
            (["estimate", "--data", str(bad), "--anchored", "--oracle", "affine"], f"{name}:4"),
        ]
    for argv, named in runs:
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--hidden", "0"],
        ["train", "--hidden", "4,0"],
        ["verify-degree", "--dim", "0", "--terms", "1"],
        ["pnn-study", "--width", "0", "--steps", "5", "--train-points", "8",
         "--eval-points", "8"],
        ["gradcheck", "--surrogate-checks", "-1"],
        ["gradcheck", "--surrogate-checks", "0", "--composite-checks", "0"],
    ],
)
def test_empty_layers_polynomials_and_audits_exit_two_writing_nothing(argv, tmp_path, capsys):
    if argv[0] == "train":
        argv = argv + ["--data", cluster_dataset(tmp_path / "c.csv", n=16), "--steps", "2"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_csv_artifacts_use_crlf(tmp_path, capsys):
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(6).standard_normal((6, 2)))
    out = str(tmp_path / "out")
    assert main(["estimate", "--data", data, "--paths", "4", "--out", out]) == EXIT_OK
    capsys.readouterr()
    raw = Path(out, "estimate_paths.csv").read_bytes()
    assert b"\r\n" in raw
    assert raw.count(b"\n") == raw.count(b"\r\n")


def test_out_dir_from_environment(tmp_path, capsys, monkeypatch):
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(7).standard_normal((6, 2)))
    env_dir = str(tmp_path / "env-out")
    monkeypatch.setenv(OUT_DIR_ENV, env_dir)
    assert main(["estimate", "--data", data, "--paths", "4"]) == EXIT_OK
    capsys.readouterr()
    assert os.path.exists(os.path.join(env_dir, "estimate.json"))


def test_default_out_dir_without_env(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(8).standard_normal((6, 2)))
    assert main(["estimate", "--data", data, "--paths", "4"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "effdeg-out" / "estimate.json").exists()


def test_estimate_exit_codes(tmp_path, capsys):
    # missing dataset file
    assert main(["estimate", "--data", str(tmp_path / "absent.csv")]) == EXIT_IO

    # unknown config key
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(9).standard_normal((6, 2)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}', encoding="utf-8")
    assert main(["estimate", "--data", data, "--config", str(cfg)]) == EXIT_CONFIG

    # config file that is not valid JSON, then not an object
    cfg.write_text("{oops", encoding="utf-8")
    assert main(["estimate", "--data", data, "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert main(["estimate", "--data", data, "--config", str(cfg)]) == EXIT_CONFIG

    # anchored estimation without labels
    assert main(["estimate", "--data", data, "--anchored"]) == EXIT_CONFIG

    # invalid estimator geometry
    assert main([
        "estimate", "--data", data, "--resolution", "3", "--max-degree", "5",
    ]) == EXIT_CONFIG

    # degenerate dataset: every endpoint pair collapses
    flat = write_dataset(tmp_path / "flat.csv", np.tile([1.0, 2.0], (5, 1)))
    assert main(["estimate", "--data", flat, "--paths", "4"]) == EXIT_NUMERICAL
    capsys.readouterr()


# the documented mapping, in the order main tries it
DOCUMENTED_EXIT_CODES = [
    (ValueError, EXIT_CONFIG),
    (OSError, EXIT_IO),
    (SingularFitError, EXIT_NUMERICAL),
    (PathSamplingError, EXIT_NUMERICAL),
    (NonFiniteOutputError, EXIT_NONFINITE),
    (nets.NonFiniteLossError, EXIT_NONFINITE),
    (nets.TrainingFailure, EXIT_STUDY),
]


def test_exit_code_table_is_the_documented_mapping():
    assert list(cli.EXIT_CODES) == DOCUMENTED_EXIT_CODES


# the library's ValueError subclasses exit through the ValueError row
EXIT_CASES = [(ConfigError, EXIT_CONFIG), (polylab.PolyParseError, EXIT_CONFIG)]
EXIT_CASES += DOCUMENTED_EXIT_CODES


@pytest.mark.parametrize("kind,code", EXIT_CASES, ids=[k.__name__ for k, _ in EXIT_CASES])
def test_main_maps_each_failure_to_its_exit_code(kind, code, monkeypatch, capsys):
    def failing_command(args):
        raise kind("boom")

    monkeypatch.setattr(cli, "cmd_gradcheck", failing_command)
    assert main(["gradcheck"]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: boom")
    assert captured.out == ""


def test_nonfinite_oracle_output_exits_five_naming_the_path(tmp_path, capsys):
    # x1^400 overflows to inf at the dataset's larger coordinates
    poly = tmp_path / "steep.txt"
    poly.write_text("x1^400 + x2\n", encoding="utf-8")
    data = write_dataset(tmp_path / "d.csv", np.array([[0.5, 1.0], [9.0, 2.0], [0.25, -1.0]]))
    argv = ["estimate", "--data", data, "--oracle", f"polyfile:{poly}", "--paths", "6",
            "--out", str(tmp_path / "o")]
    with np.errstate(over="ignore"):
        assert main(argv) == EXIT_NONFINITE
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite output on path ")
    assert "endpoint rows" in err


def test_singular_undamped_fit_exits_four(tmp_path, capsys):
    # equispaced nodes at degree 29 make the undamped Gram unusable; the
    # message names the failing path, for estimate and for a step-0 penalty
    X = np.random.default_rng(10).standard_normal((3, 2))
    data = write_dataset(tmp_path / "d.csv", X, labels=[0, 1, 0])
    fit = [
        "--data", data, "--scheme", "uniform", "--resolution", "30", "--max-degree", "29",
        "--damping", "0", "--out", str(tmp_path / "o"),
    ]
    penalty = ["--reg-strength", "1", "--batch-size", "3", "--steps", "1"]
    for argv, key in (
        (["estimate", *fit, "--paths", "2"], r"\d+"),
        (["train", *fit, *penalty], r"1:\d+"),
    ):
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "COND_LIMIT" in err
        assert re.search(rf"on path {key} \(endpoint rows \d+ and \d+\)\n$", err)


def test_dataset_loader_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("x0,x2\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(Exception) as err:
        load_dataset_csv(str(bad_header))
    assert "feature columns" in str(err.value)

    extra = tmp_path / "e.csv"
    extra.write_text("x0,notes\n1.0,hi\n", encoding="utf-8")
    with pytest.raises(Exception):
        load_dataset_csv(str(extra))

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(Exception):
        load_dataset_csv(str(empty))

    headers_only = tmp_path / "ho.csv"
    headers_only.write_text("x0,x1\n", encoding="utf-8")
    with pytest.raises(Exception):
        load_dataset_csv(str(headers_only))

    ragged = tmp_path / "r.csv"
    ragged.write_text("x0,x1\n1.0\n", encoding="utf-8")
    with pytest.raises(Exception):
        load_dataset_csv(str(ragged))

    # a negative label or a non-finite feature is named by file and line
    for name, body in [
        ("neg.csv", "x0,x1,label\n1.5,2.5,1\n0.0,-1.0,-1\n"),
        ("nan.csv", "x0,x1,label\n1.5,2.5,1\n0.0,nan,0\n"),
        ("inf.csv", "x0,x1\n1.5,2.5\n-inf,1.0\n"),
    ]:
        bad = tmp_path / name
        bad.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{name}:3"):
            load_dataset_csv(str(bad))

    good = tmp_path / "g.csv"
    good.write_text("x0,x1,label\n1.5,2.5,1\n0.0,-1.0,0\n", encoding="utf-8")
    X, y = load_dataset_csv(str(good))
    assert X.shape == (2, 2) and list(y) == [1, 0]


@pytest.mark.parametrize(
    "text,reason",
    [
        ("x0,x1,label,label\n1,2,0,1\n3,5,1,0\n", "repeated columns"),
        ("label\n0\n1\n", "no feature columns"),
    ],
    ids=["repeated column", "no feature column"],
)
def test_dataset_header_errors_exit_two_naming_the_file(tmp_path, capsys, text, reason):
    data = tmp_path / "bad_header.csv"
    data.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"bad_header.csv: {reason}"):
        load_dataset_csv(str(data))
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(data), "--out", str(out)]) == EXIT_CONFIG
    assert f"bad_header.csv: {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_a_byte_order_mark_is_not_part_of_the_first_column(tmp_path, capsys):
    # spreadsheet exports often begin with U+FEFF; the estimate is that of the plain file
    plain = cluster_dataset(tmp_path / "plain.csv", n=16, seed=21)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    X, y = load_dataset_csv(str(marked))
    X_plain, y_plain = load_dataset_csv(plain)
    assert X.tobytes() == X_plain.tobytes() and list(y) == list(y_plain)
    docs = []
    for data in (plain, str(marked)):
        out = tmp_path / Path(data).stem
        assert main(["estimate", "--data", data, "--paths", "8", "--out", str(out)]) == EXIT_OK
        docs.append(read_json(out, "estimate.json"))
    capsys.readouterr()
    assert docs[0]["canonical_sha256"] == docs[1]["canonical_sha256"]


def test_train_rejects_more_penalty_paths_than_keys(tmp_path, capsys):
    # step s keys its paths s * reg_paths + p, and every index must stay below 2**32
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=19)
    out = tmp_path / "out"
    argv = ["train", "--data", data, "--reg-strength", "1", "--reg-paths", "4", "--out", str(out)]
    assert main(argv + ["--steps", str(2**30 + 1)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "n_steps * reg_paths must be <= 2**32" in err
    assert f"n_steps {2**30 + 1} and reg_paths 4" in err
    assert not out.exists()
    assert main(argv + ["--steps", "2", "--batch-size", "8"]) == EXIT_OK


@pytest.mark.parametrize("strength", ["1", "0"])
def test_zero_penalty_paths_exit_two(tmp_path, capsys, strength):
    # reg_strength 0 is the one way to switch the penalty off, so no run takes reg_paths 0
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=19)
    out = tmp_path / "out"
    argv = ["train", "--data", data, "--reg-strength", strength, "--reg-paths", "0"]
    assert main(argv + ["--steps", "2", "--batch-size", "8", "--out", str(out)]) == EXIT_CONFIG
    assert "reg_paths must lie in 1..2**32" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_float_settings_exit_two(tmp_path, capsys, value):
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=18)
    out = tmp_path / "out"
    argv = ["estimate", "--data", data, "--damping", value, "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "damping must be finite" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reg_strength": float(value)}), encoding="utf-8")
    argv = ["train", "--data", data, "--config", str(cfg), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "reg_strength must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate"],
        ["train", "--steps", "2"],
        ["verify-degree", "--pairs", "4"],
        ["pnn-study", "--steps", "5", "--width", "4", "--train-points", "8",
         "--eval-points", "8"],
        ["gradcheck", "--surrogate-checks", "1", "--composite-checks", "1"],
    ],
)
def test_negative_seed_exits_two_naming_seed(tmp_path, capsys, argv):
    if argv[0] in ("estimate", "train"):
        argv = argv + ["--data", cluster_dataset(tmp_path / "c.csv", n=16, seed=18)]
    out = tmp_path / "out"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,setting",
    [
        ("--eval-points", "1", "n_eval"),
        ("--train-points", "1", "n_train"),
        ("--mse-target", "-1", "mse_target"),
        ("--width", "0", "width"),
        ("--steps", "0", "n_steps"),
    ],
)
def test_pnn_study_argument_errors_exit_two_before_training(
    tmp_path, capsys, monkeypatch, flag, value, setting
):
    def no_training(*args):
        raise AssertionError("pnn-study trained before checking its arguments")

    monkeypatch.setattr(nets, "_train_pnn_task", no_training)
    out = tmp_path / "out"
    argv = ["pnn-study", "--steps", "5", "--width", "4", flag, value]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert setting in capsys.readouterr().err
    assert not out.exists()


def test_path_count_past_two_to_the_32_exits_two(tmp_path, capsys):
    # validate() refuses the count, so no plan of that size is ever drawn
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=18)
    out = tmp_path / "out"
    argv = ["estimate", "--data", data, "--paths", "4294967297", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "n_paths" in capsys.readouterr().err
    assert not out.exists()


def test_mistyped_checkpoint_headers_exit_two_naming_the_file(tmp_path, capsys):
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=18)
    good = tmp_path / "good.ckpt"
    nets.save_checkpoint(nets.FeedForwardNet.create((2, 3), seed=0), str(good))
    _, header = load_checkpoint(str(good))
    payload = np.arange(9.0).astype("<f8").tobytes()
    bad = tmp_path / "bad.ckpt"
    out = tmp_path / "out"
    for mistyped in mistyped_checkpoint_headers(header).values():
        bad.write_bytes(checkpoint_blob(mistyped, payload))
        argv = ["estimate", "--data", data, "--oracle", f"checkpoint:{bad}", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "bad.ckpt" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_sizes_foreign_to_its_arrays_exit_two_naming_the_file(tmp_path, capsys):
    # a network of no layers used to die in the estimate with an IndexError
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=18)
    good = tmp_path / "good.ckpt"
    nets.save_checkpoint(nets.FeedForwardNet.create((2, 3), seed=0), str(good))
    _, header = load_checkpoint(str(good))
    bad = tmp_path / "bad.ckpt"
    out = tmp_path / "out"
    for foreign, payload in foreign_size_checkpoints(header).values():
        bad.write_bytes(checkpoint_blob(foreign, payload))
        argv = ["estimate", "--data", data, "--oracle", f"checkpoint:{bad}", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad.ckpt" in err and "Traceback" not in err
    assert not out.exists()


def test_train_writes_log_and_checkpoint(tmp_path, capsys):
    data = cluster_dataset(tmp_path / "c.csv", n=32, seed=10)
    out = str(tmp_path / "out")
    code = main([
        "train", "--data", data, "--hidden", "8", "--steps", "25",
        "--batch-size", "16", "--step-size", "0.2", "--seed", "3", "--out", out,
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_steps"] == 25
    assert 0.0 <= summary["train_accuracy"] <= 1.0

    with open(os.path.join(out, "train_log.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "task_loss", "ed_term", "lambda_eff", "train_accuracy"]
    assert len(rows) == 26
    assert all(0.0 <= float(r[4]) <= 1.0 for r in rows[1:])

    net, header = load_checkpoint(os.path.join(out, "model.ckpt"))
    assert net.layer_sizes == (2, 8, 2)
    assert header["config"]["hidden"] == [8]

    doc = read_json(out, "train.json")
    jsonschema.validate(doc, load_schema("train.schema.json"))
    assert doc["result"]["pca_gradient"] is None


def test_train_artifact_states_the_pca_penalty_gradient(tmp_path, capsys):
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=13)
    out = str(tmp_path / "out")
    assert main([
        "train", "--data", data, "--hidden", "4", "--steps", "3", "--batch-size", "8",
        "--reg-strength", "0.5", "--reg-paths", "2", "--pca-dim", "1", "--out", out,
    ]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["pca_gradient"] == cli.PCA_PENALTY_GRADIENT
    doc = read_json(out, "train.json")
    jsonschema.validate(doc, load_schema("train.schema.json"))
    assert doc["result"]["pca_gradient"] == "ED(P_sg(y) y): each path's PCA map held constant"


def test_train_mse_log_has_no_accuracy_column(tmp_path, capsys):
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=11)
    out = str(tmp_path / "out")
    assert main([
        "train", "--data", data, "--task", "mse", "--hidden", "4", "--steps", "5",
        "--batch-size", "8", "--out", out,
    ]) == EXIT_OK
    capsys.readouterr()
    with open(os.path.join(out, "train_log.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "task_loss", "ed_term", "lambda_eff"]


def test_train_rerun_bit_identical_checkpoint(tmp_path, capsys):
    data = cluster_dataset(tmp_path / "c.csv", n=24, seed=12)
    outs = [str(tmp_path / f"out{k}") for k in range(2)]
    for out in outs:
        assert main([
            "train", "--data", data, "--hidden", "6", "--steps", "10",
            "--batch-size", "12", "--reg-strength", "0.05", "--reg-paths", "2",
            "--seed", "4", "--out", out,
        ]) == EXIT_OK
    capsys.readouterr()
    a = Path(outs[0], "model.ckpt").read_bytes()
    b = Path(outs[1], "model.ckpt").read_bytes()
    assert a == b
    da, db = (read_json(out, "train.json") for out in outs)
    assert da["canonical_sha256"] == db["canonical_sha256"]
    assert without_created(da) == without_created(db)


def test_train_exit_codes(tmp_path, capsys):
    unlabeled = write_dataset(tmp_path / "u.csv", np.random.default_rng(13).standard_normal((8, 2)))
    assert main(["train", "--data", unlabeled, "--steps", "2"]) == EXIT_CONFIG

    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=14)
    assert main([
        "train", "--data", data, "--hidden", "", "--steps", "2", "--batch-size", "8",
    ]) == EXIT_CONFIG
    assert main([
        "train", "--data", data, "--hidden", "4,a", "--steps", "2", "--batch-size", "8",
    ]) == EXIT_CONFIG

    with np.errstate(over="ignore", invalid="ignore"):
        code = main([
            "train", "--data", data, "--task", "mse", "--hidden", "8", "--steps", "60",
            "--batch-size", "16", "--step-size", "1e6", "--out", str(tmp_path / "o"),
        ])
    assert code == EXIT_NONFINITE
    capsys.readouterr()


@pytest.mark.parametrize("strength", ["0", "1"])
def test_train_rejects_pca_dim_wider_than_the_outputs(tmp_path, capsys, strength):
    # two classes give two outputs: pca_dim 3 fails before step 0, penalty or not
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=14)
    out = tmp_path / "out"
    assert main([
        "train", "--data", data, "--hidden", "4", "--steps", "2", "--batch-size", "8",
        "--pca-dim", "3", "--reg-strength", strength, "--out", str(out),
    ]) == EXIT_CONFIG
    assert "pca_dim exceeds min(resolution, output_dim)" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_oracle_round_trip(tmp_path, capsys):
    data = cluster_dataset(tmp_path / "c.csv", n=24, seed=15)
    out = str(tmp_path / "out")
    assert main([
        "train", "--data", data, "--hidden", "6", "--steps", "10",
        "--batch-size", "12", "--out", out,
    ]) == EXIT_OK
    capsys.readouterr()
    ckpt = os.path.join(out, "model.ckpt")

    est_out = str(tmp_path / "est")
    assert main([
        "estimate", "--data", data, "--oracle", f"checkpoint:{ckpt}",
        "--paths", "6", "--out", est_out,
    ]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert np.isfinite(summary["mean_ed"])

    # feature-count mismatch is a config error
    wide = write_dataset(tmp_path / "wide.csv", np.random.default_rng(16).standard_normal((6, 3)))
    assert main([
        "estimate", "--data", wide, "--oracle", f"checkpoint:{ckpt}",
    ]) == EXIT_CONFIG
    capsys.readouterr()


def test_polyfile_oracle(tmp_path, capsys):
    poly_path = tmp_path / "p.txt"
    poly_path.write_text("x1*x2\n", encoding="utf-8")
    data = write_dataset(tmp_path / "d.csv", np.random.default_rng(17).standard_normal((10, 2)))
    out = str(tmp_path / "out")
    assert main([
        "estimate", "--data", data, "--oracle", f"polyfile:{poly_path}",
        "--paths", "8", "--damping", "0", "--out", out,
    ]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    # a quadratic along every segment: unnormalized ED stays within the cap
    assert 0.0 < summary["mean_ed"] <= 3.0

    broken = tmp_path / "bad.txt"
    broken.write_text("x1 + @\n", encoding="utf-8")
    assert main([
        "estimate", "--data", data, "--oracle", f"polyfile:{broken}",
    ]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 1, column 6" in err

    assert main([
        "estimate", "--data", data, "--oracle", "mystery",
    ]) == EXIT_CONFIG
    capsys.readouterr()


def test_polyfile_oracle_matches_exact_evaluation(tmp_path):
    poly_path = tmp_path / "p.txt"
    poly_path.write_text(
        "3*x1^3*x2 - 1/7*x2^4 + 2\nx1^5 - x1*x2^2*x3 + 1/3\nx3^7 - 5/2*x1^2*x2^6\n",
        encoding="utf-8",
    )
    polys = polylab.parse_poly_bundle(poly_path.read_text(encoding="utf-8"), dim=3)
    oracle = cli.resolve_oracle(f"polyfile:{poly_path}", 3)
    X = np.random.default_rng(23).uniform(-2.0, 2.0, size=(50, 3))
    got = oracle.evaluate(X)
    assert got.shape == (50, 3)
    for row, values in zip(X, got):
        point = [Fraction(float(v)) for v in row]
        want = [float(evaluate(poly, point)) for poly in polys]
        assert values == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_verify_degree_fixture_pair(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main([
        "verify-degree", "--polys", str(FIXTURES / "deg5_deg2.txt"),
        "--pairs", "50", "--sampler", "dyadic", "--seed", "1", "--out", out,
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["true_degrees"] == [5, 2]
    assert summary["drop_counts"] == [0, 0]
    assert summary["mean_degrees"] == [5.0, 2.0]
    assert summary["ordered"] is True

    doc = read_json(out, "verify_degree.json")
    jsonschema.validate(doc, load_schema("verify_degree.schema.json"))
    assert len(doc["result"]["per_pair_degrees"][0]) == 50


def test_verify_degree_csv_stdout(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main([
        "verify-degree", "--polys", str(FIXTURES / "deg5_deg2.txt"),
        "--pairs", "10", "--sampler", "dyadic", "--out", out, "--format", "csv",
    ]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["poly", "true_degree", "mean_restricted_degree", "degree_drops", "n_pairs"]
    assert len(rows) == 3
    assert rows[1][1] == "5" and rows[2][1] == "2"


def test_verify_degree_hyperplane_sampler_always_drops(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main([
        "verify-degree", "--polys", str(FIXTURES / "hyperplane.txt"),
        "--pairs", "40", "--sampler", "shared-coordinate", "--seed", "2", "--out", out,
    ]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["drop_counts"] == [40, 40]


def test_verify_degree_random_mode_rerun(tmp_path, capsys):
    outs = [str(tmp_path / f"out{k}") for k in range(2)]
    for out in outs:
        assert main([
            "verify-degree", "--dim", "3", "--deg-a", "4", "--deg-b", "2",
            "--pairs", "30", "--sampler", "dyadic", "--seed", "6", "--out", out,
        ]) == EXIT_OK
    capsys.readouterr()
    a, b = (read_json(out, "verify_degree.json") for out in outs)
    assert a["canonical_sha256"] == b["canonical_sha256"]
    assert a["result"]["true_degrees"] == [4, 2]


@pytest.mark.parametrize("dim", ["1", "2"])
def test_verify_degree_in_few_variables_caps_the_terms(tmp_path, capsys, dim):
    # the default 8 terms exceed the monomials of degree <= 2 in one or two variables
    out = str(tmp_path / "out")
    assert main(["verify-degree", "--dim", dim, "--pairs", "20", "--out", out]) == EXIT_OK
    capsys.readouterr()
    polys = read_json(out, "verify_degree.json")["result"]["polynomials"]
    # degrees 3 and 2 have 4 and 3 monomials in one variable, 10 and 6 in two
    want = {"1": [4, 3], "2": [8, 6]}[dim]
    assert [len(polylab.parse_poly(text).terms) for text in polys] == want


def test_verify_degree_rejects_wrong_poly_count(tmp_path, capsys):
    one = tmp_path / "one.txt"
    one.write_text("x1 + 1\n", encoding="utf-8")
    assert main(["verify-degree", "--polys", str(one)]) == EXIT_CONFIG
    three = tmp_path / "three.txt"
    three.write_text("x1\nx2\nx1*x2\n", encoding="utf-8")
    assert main(["verify-degree", "--polys", str(three)]) == EXIT_CONFIG
    # parse errors carry bundle line numbers
    broken = tmp_path / "broken.txt"
    broken.write_text("x1\nx2 + @\n", encoding="utf-8")
    assert main(["verify-degree", "--polys", str(broken)]) == EXIT_CONFIG
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,from_file,named",
    [
        (["--dim", "7", "--deg-a", "9", "--terms", "3"], {}, "['dim', 'deg_a', 'terms']"),
        ([], {"deg_b": 2}, "['deg_b']"),  # the default value, set in the file
        (["--terms", "3"], {"dim": 7}, "['dim', 'terms']"),
    ],
    ids=["flags", "file-default", "flag-and-file"],
)
def test_verify_degree_polys_rejects_random_mode_settings(tmp_path, capsys, flags, from_file, named):
    # the file defines the pair, so a random-polynomial setting from a flag or
    # the config file exits 2 naming it, before anything is written
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"pairs": 5, **from_file}), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["verify-degree", "--polys", str(FIXTURES / "deg5_deg2.txt"), "--config", str(cfg)]
    assert main(argv + flags + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: --polys takes no random-polynomial settings, got {named}\n"
    )
    assert not out.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="reopens /dev/stdin as Linux does")
def test_verify_degree_polys_reads_a_piped_config_once(tmp_path):
    # a pipe yields its bytes to one reader only; a second read of the config finds it empty
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "effdeg", "verify-degree", "--config", "/dev/stdin",
         "--polys", str(FIXTURES / "deg5_deg2.txt"), "--out", str(out)],
        input='{"pairs": 10}', env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert read_json(out, "verify_degree.json")["config"]["pairs"] == 10


def test_gradcheck_passes_and_lists_cells(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main([
        "gradcheck", "--surrogate-checks", "5", "--composite-checks", "2",
        "--seed", "0", "--out", out,
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] is True
    assert "cells" not in summary["surrogate"]

    doc = read_json(out, "gradcheck.json")
    jsonschema.validate(doc, load_schema("gradcheck.schema.json"))
    surrogate = doc["result"]["surrogate"]
    assert surrogate["n_checks"] == 5 and len(surrogate["cells"]) == 5
    assert surrogate["kink_cells"] == 0
    assert doc["result"]["composite"]["short_batches"] == 0
    assert {"resolution", "max_degree", "damping", "basis", "rel_err"} <= set(
        surrogate["cells"][0]
    )
    composite = doc["result"]["composite"]
    assert composite["n_checks"] == 2 and len(composite["cells"]) == 2
    assert {"task", "anchored", "pca_dim", "rel_err"} <= set(composite["cells"][0])


def test_gradcheck_fails_on_negated_gradients(tmp_path, capsys, monkeypatch):
    # negate the gradients where each audit takes them: the surrogate suite
    # from solve_system, the composite suite from composite_objective (whose
    # penalty, fitted through solve_system, is negated twice; its task
    # gradient once)
    solve_system, objective = surrogate.solve_system, nets.composite_objective

    def negated_solve(*args, **kwargs):
        coeffs, grad = solve_system(*args, **kwargs)
        return coeffs, None if grad is None else -grad

    def negated_objective(*args, **kwargs):
        record, (d_w, d_b), projections = objective(*args, **kwargs)
        return record, ([-g for g in d_w], [-g for g in d_b]), projections

    monkeypatch.setattr(surrogate, "solve_system", negated_solve)
    monkeypatch.setattr(nets, "composite_objective", negated_objective)
    code = main([
        "gradcheck", "--surrogate-checks", "3", "--composite-checks", "1",
        "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_GRADCHECK
    summary = json.loads(capsys.readouterr().out)
    assert summary["surrogate"]["ok"] is False
    assert summary["composite"]["ok"] is False
    assert summary["ok"] is False


def test_gradcheck_csv_stdout(tmp_path, capsys):
    assert main([
        "gradcheck", "--surrogate-checks", "3", "--composite-checks", "1",
        "--out", str(tmp_path / "out"), "--format", "csv",
    ]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["suite", "n_checks", "max_rel_err", "tolerance", "ok"]
    assert [r[0] for r in rows[1:]] == ["surrogate", "composite"]


def test_pnn_study_smoke_and_rerun(tmp_path, capsys):
    outs = [str(tmp_path / f"out{k}") for k in range(2)]
    args = [
        "pnn-study", "--steps", "30", "--width", "4", "--train-points", "64",
        "--eval-points", "32", "--mse-target", "1e9", "--seed", "0",
    ]
    for out in outs:
        assert main(args + ["--out", out]) == EXIT_OK
    capsys.readouterr()
    a, b = (read_json(out, "pnn_study.json") for out in outs)
    assert a["canonical_sha256"] == b["canonical_sha256"]
    assert without_created(a) == without_created(b)
    jsonschema.validate(a, load_schema("pnn_study.schema.json"))
    assert len(a["result"]["rows"]) == 6
    # the 30-step cap ends every rung before the 200-step stop window can
    assert a["result"]["stop_rule"] == {"window": 200, "divisor": 30}
    assert [row["steps"] for row in a["result"]["rows"]] == [30] * 6
    with open(os.path.join(outs[0], "pnn_study.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7
    assert rows[0][rows[0].index("restarts") + 1] == "steps"


def test_pnn_study_stalled_tasks_exit_six_with_both_artifacts(tmp_path, capsys):
    # every task stalls: the report is written all the same, and one stderr
    # line names each stalled task
    out = tmp_path / "out"
    code = main([
        "pnn-study", "--steps", "5", "--width", "4", "--train-points", "16",
        "--eval-points", "8", "--mse-target", "1e-12", "--out", str(out),
    ])
    assert code == EXIT_STUDY
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "stalled" in err
    doc = read_json(out, "pnn_study.json")
    jsonschema.validate(doc, load_schema("pnn_study.schema.json"))
    assert doc["result"]["all_converged"] is False
    assert [row["converged"] for row in doc["result"]["rows"]] == [False] * 6
    assert all(f"{row['task']} (mse " in err for row in doc["result"]["rows"])
    with open(out / "pnn_study.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [row[rows[0].index("converged")] for row in rows[1:]] == ["0"] * 6


# every option string and choices list of each subcommand, as shipped
OPTION_STRINGS = {
    "estimate": [
        "--anchored", "--basis", "--config", "--damping", "--data", "--format", "--help",
        "--max-degree", "--no-anchored", "--no-post-softmax", "--oracle", "--out", "--paths",
        "--pca-dim", "--post-softmax", "--resolution", "--scheme", "--seed", "-h",
    ],
    "train": [
        "--anchored", "--basis", "--batch-size", "--config", "--damping", "--data", "--format",
        "--help", "--hidden", "--max-degree", "--momentum", "--no-anchored", "--out",
        "--pca-dim", "--ramp-fraction", "--reg-paths", "--reg-strength", "--resolution",
        "--scheme", "--seed", "--step-size", "--steps", "--task", "-h",
    ],
    "verify-degree": [
        "--config", "--deg-a", "--deg-b", "--dim", "--format", "--help", "--out", "--pairs",
        "--polys", "--sampler", "--seed", "--terms", "-h",
    ],
    "pnn-study": [
        "--config", "--eval-points", "--format", "--help", "--mse-target", "--out", "--seed",
        "--steps", "--train-points", "--width", "-h",
    ],
    "gradcheck": [
        "--composite-checks", "--config", "--format", "--help", "--out", "--seed",
        "--surrogate-checks", "-h",
    ],
}
BASES = ["chebyshev", "legendre"]
SCHEMES = ["chebyshev_fixed", "randomized_cosine", "uniform"]
CHOICES = {
    "estimate": {"format": ["json", "csv"], "basis": BASES, "scheme": SCHEMES},
    "train": {
        "format": ["json", "csv"], "task": ["mse", "cross_entropy"],
        "basis": BASES, "scheme": SCHEMES,
    },
    "verify-degree": {
        "format": ["json", "csv"], "sampler": ["gaussian", "dyadic", "shared-coordinate"],
    },
    "pnn-study": {"format": ["json", "csv"]},
    "gradcheck": {"format": ["json", "csv"]},
}


def subcommand_parsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def test_subcommands_keep_their_option_strings_and_choices():
    parsers = subcommand_parsers()
    assert sorted(parsers) == sorted(OPTION_STRINGS)
    for name, sub in parsers.items():
        assert sorted(s for a in sub._actions for s in a.option_strings) == OPTION_STRINGS[name]
        assert {a.dest: list(a.choices) for a in sub._actions if a.choices} == CHOICES[name]


def test_every_config_field_is_a_flag():
    parsers = subcommand_parsers()
    for name, config in (("estimate", EstimatorConfig), ("train", nets.TrainConfig)):
        dests = {a.dest for a in parsers[name]._actions}
        assert {f.name for f in dataclasses.fields(config)} <= dests
    # the penalty's post_softmax follows the task: no field, flag or config key
    assert "post_softmax" not in {f.name for f in dataclasses.fields(nets.TrainConfig)}
    assert "post_softmax" not in {a.dest for a in parsers["train"]._actions}
    assert nets.TrainConfig(task="cross_entropy").post_softmax
    assert not nets.TrainConfig(task="mse").post_softmax


def test_cli_defaults_are_library_defaults():
    def resolved(*argv):
        return cli.resolve_config(cli.build_parser().parse_args(list(argv)))

    assert resolved("estimate", "--data", "d.csv") == {
        **dataclasses.asdict(EstimatorConfig()), "oracle": "identity",
    }
    assert resolved("train", "--data", "d.csv") == {
        **dataclasses.asdict(nets.TrainConfig()),
        "task": "cross_entropy", "n_steps": 400, "batch_size": 64, "step_size": 0.2,
        "hidden": (32, 32),
    }
    study = inspect.signature(nets.pnn_study).parameters
    assert resolved("pnn-study") == {name: p.default for name, p in study.items()}


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("estimate", "anchored", "false"),
        ("estimate", "post_softmax", 1),
        ("estimate", "damping", True),
        ("estimate", "damping", "1e-3"),
        ("estimate", "n_paths", 2.5),
        ("estimate", "n_paths", True),
        ("estimate", "n_paths", float("inf")),
        ("estimate", "pca_dim", "2"),
        ("estimate", "basis", 1),
        ("estimate", "oracle", None),
        ("train", "hidden", [6, "a"]),
        ("train", "hidden", []),
        ("train", "task", "hinge"),
        ("verify-degree", "sampler", "sobol"),
        ("gradcheck", "seed", "0"),
    ],
)
def test_config_file_values_are_type_checked(tmp_path, capsys, command, key, value):
    data = cluster_dataset(tmp_path / "c.csv", n=16, seed=18)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command in ("estimate", "train"):
        argv += ["--data", data]
    assert main(argv) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_file_inputs_are_named_by_content(tmp_path, capsys):
    data = cluster_dataset(tmp_path / "c.csv", n=24, seed=19)
    assert main([
        "train", "--data", data, "--hidden", "4", "--steps", "5", "--batch-size", "8",
        "--out", str(tmp_path / "train"),
    ]) == EXIT_OK
    (tmp_path / "p.txt").write_text("x1*x2 + x1\n", encoding="utf-8")
    runs = {
        "checkpoint": (tmp_path / "train" / "model.ckpt", "estimate.json", lambda f: [
            "estimate", "--data", data, "--oracle", f"checkpoint:{f}", "--paths", "4",
        ]),
        "polyfile": (tmp_path / "p.txt", "estimate.json", lambda f: [
            "estimate", "--data", data, "--oracle", f"polyfile:{f}", "--paths", "4",
        ]),
        "polys": (FIXTURES / "deg5_deg2.txt", "verify_degree.json", lambda f: [
            "verify-degree", "--polys", str(f), "--pairs", "5",
        ]),
    }
    for kind, (source, artifact, argv) in runs.items():
        docs = []
        for place in ("a", "b"):
            copy = tmp_path / kind / place / source.name
            copy.parent.mkdir(parents=True)
            shutil.copy(source, copy)
            out = str(tmp_path / kind / place / "out")
            assert main(argv(copy) + ["--out", out]) == EXIT_OK
            docs.append(read_json(out, artifact))
        assert docs[0]["canonical_sha256"] == docs[1]["canonical_sha256"], kind
        assert str(tmp_path) not in json.dumps(docs[0]), kind
    capsys.readouterr()


def test_artifact_config_block_round_trips_through_config_flag(tmp_path, capsys):
    data = cluster_dataset(tmp_path / "c.csv", n=24, seed=20)
    poly = tmp_path / "pair.txt"
    poly.write_text("x1*x2 + 3*x1^2\nx2^3 - 1/2\n", encoding="utf-8")
    ckpt = tmp_path / "train" / "first" / "model.ckpt"  # written by the train run below
    # (flags, inputs given to both runs, artifact)
    runs = {
        "train": (["train", "--hidden", "6,3", "--steps", "8", "--batch-size", "12",
                   "--reg-strength", "0.3", "--reg-paths", "2", "--pca-dim", "1",
                   "--seed", "2"], ["--data", data], "train.json"),
        "estimate": (["estimate", "--oracle", "product", "--paths", "7", "--resolution", "6",
                      "--max-degree", "4", "--scheme", "uniform", "--seed", "5"],
                     ["--data", data], "estimate.json"),
        "verify-random": (["verify-degree", "--dim", "2", "--deg-a", "3", "--deg-b", "1",
                           "--terms", "3", "--pairs", "6", "--sampler", "dyadic", "--seed", "4"],
                          [], "verify_degree.json"),
        "verify-polys": (["verify-degree", "--pairs", "6", "--sampler", "shared-coordinate",
                          "--seed", "4"], ["--polys", str(FIXTURES / "deg5_deg2.txt")],
                         "verify_degree.json"),
        "pnn-study": (["pnn-study", "--width", "3", "--steps", "5", "--train-points", "16",
                       "--eval-points", "8", "--mse-target", "1e9", "--seed", "1"],
                      [], "pnn_study.json"),
        # file oracles are recorded by content, so the rerun names the file again
        "estimate-polyfile": (["estimate", "--paths", "5", "--resolution", "5", "--seed", "3"],
                              ["--data", data, "--oracle", f"polyfile:{poly}"], "estimate.json"),
        "estimate-checkpoint": (["estimate", "--paths", "5", "--anchored", "--pca-dim", "1"],
                                ["--data", data, "--oracle", f"checkpoint:{ckpt}"],
                                "estimate.json"),
    }
    for label, (argv, inputs, artifact) in runs.items():
        first = str(tmp_path / label / "first")
        assert main(argv + inputs + ["--out", first]) == EXIT_OK
        cfg = tmp_path / label / "config.json"
        cfg.write_text(json.dumps(read_json(first, artifact)["config"]), encoding="utf-8")
        again = str(tmp_path / label / "again")
        assert main([argv[0], *inputs, "--config", str(cfg), "--out", again]) == EXIT_OK
        a, b = read_json(first, artifact), read_json(again, artifact)
        assert a["canonical_sha256"] == b["canonical_sha256"], label
        jsonschema.validate(a, load_schema(artifact.replace(".json", ".schema.json")))
    ckpts = [Path(tmp_path, "train", run, "model.ckpt").read_bytes() for run in ("first", "again")]
    assert ckpts[0] == ckpts[1]
    # a polynomial file's pair is recorded by content, not by random-mode settings
    polys_doc = read_json(tmp_path / "verify-polys" / "first", "verify_degree.json")
    assert set(polys_doc["config"]) == {"pairs", "sampler", "seed"}
    assert len(polys_doc["result"]["polys_sha256"]) == 64
    study_doc = read_json(tmp_path / "pnn-study" / "first", "pnn_study.json")
    assert study_doc["result"]["eval_box"] == 2.0
    assert study_doc["result"]["eval"]["scheme"] == "chebyshev_fixed"
    # without the file flag, a content-named oracle is a config error naming that flag
    capsys.readouterr()
    for label, kind in (("estimate-polyfile", "polyfile"), ("estimate-checkpoint", "checkpoint")):
        cfg = tmp_path / label / "config.json"
        recorded = read_json(tmp_path / label / "first", "estimate.json")["config"]["oracle"]
        assert recorded.startswith(f"{kind}:sha256=")
        assert main(["estimate", "--data", data, "--config", str(cfg),
                     "--out", str(tmp_path / label / "bare")]) == EXIT_CONFIG
        assert f"pass --oracle {kind}:PATH" in capsys.readouterr().err
