"""End-to-end CLI runs on a small dataset, exit codes, determinism."""

import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edfdetect.classifier as classifier
import edfdetect.cli as cli
import edfdetect.synth as synth
from edfdetect.errors import DataError, DegenerateGcvError
from edfdetect.features import read_features_csv, write_features_csv


CONFIG_TEXT = """\
m=31
frequencies=8
phases=pi
count_defect_free=10
count_dirt=5
count_crater=3
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> extract once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "gen.cfg"
    config.write_text(CONFIG_TEXT)
    ds = root / "ds"
    feats = root / "features.csv"
    assert cli.main(["generate", "--config", str(config), "--seed", "3",
                     "--out", str(ds)]) == 0
    assert cli.main(["extract", "--data", str(ds), "--out", str(feats)]) == 0
    return root, config, ds, feats


def test_generate_writes_manifest(pipeline):
    _, _, ds, _ = pipeline
    with open(ds / "manifest.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18
    assert {r["label"] for r in rows} == {"defect_free", "crater", "dirt"}


def test_extract_is_byte_deterministic(pipeline):
    root, _, ds, feats = pipeline
    again = root / "features2.csv"
    assert cli.main(["extract", "--data", str(ds), "--out", str(again)]) == 0
    assert feats.read_bytes() == again.read_bytes()


def test_extract_colstd_baseline(pipeline):
    root, _, ds, _ = pipeline
    out = root / "colstd.csv"
    assert cli.main(["extract", "--data", str(ds), "--out", str(out),
                     "--feature", "colstd"]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 19  # header + 18


def test_classify_self_match(pipeline):
    root, _, _, feats = pipeline
    out = root / "posteriors.csv"
    assert cli.main(["classify", "--reference", str(feats),
                     "--queries", str(feats), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18
    assert all(r["predicted"] == r["true_label"] for r in rows)


def test_evaluate_report(pipeline):
    root, _, _, feats = pipeline
    report_path = root / "report.json"
    assert cli.main(["evaluate", "--features", str(feats), "--out",
                     str(report_path), "--seed", "11", "--runs", "4"]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["train_fraction"] == 0.7
    assert len(doc["seeds"]) == 4
    for name in ("mer", "fpr", "fnr", "prob_mer", "prob_fpr", "prob_fnr",
                 "avg_entropy", "mer_multiclass"):
        assert len(doc["metrics"][name]["runs"]) == 4
    assert report_path.with_suffix(".csv").exists()


def test_evaluate_deterministic(pipeline):
    root, _, _, feats = pipeline
    r1 = root / "det1.json"
    r2 = root / "det2.json"
    for path in (r1, r2):
        assert cli.main(["evaluate", "--features", str(feats), "--out",
                         str(path), "--seed", "5", "--runs", "3"]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_report_validates_against_schema(pipeline):
    import jsonschema
    from pathlib import Path
    root, _, _, feats = pipeline
    report_path = root / "schema_check.json"
    cli.main(["evaluate", "--features", str(feats), "--out", str(report_path),
              "--seed", "2", "--runs", "2"])
    schema = json.loads((Path(__file__).resolve().parents[1]
                         / "schemas" / "report.schema.json").read_text())
    jsonschema.validate(json.loads(report_path.read_text()), schema)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate"])  # missing required flags
    assert exc.value.code == 2


def test_data_error_exit_code(tmp_path, capsys):
    rc = cli.main(["extract", "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "out.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR ")
    payload = json.loads(err.split(" ", 1)[1])
    assert payload["exit_code"] == 3


def test_numeric_error_exit_code(capsys, monkeypatch):
    def boom(args):
        raise DegenerateGcvError("forced")
    # build_parser resolves the command handler at call time
    monkeypatch.setattr(cli, "cmd_extract", boom)
    rc = cli.main(["extract", "--data", "x", "--out", "y"])
    assert rc == 4
    payload = json.loads(capsys.readouterr().err.split(" ", 1)[1])
    assert payload["error"] == "DegenerateGcvError"


def test_set_overrides_config(tmp_path):
    config = tmp_path / "cfg"
    config.write_text(CONFIG_TEXT)
    ds = tmp_path / "ds"
    rc = cli.main(["generate", "--config", str(config), "--seed", "1",
                   "--out", str(ds), "--set", "count_crater=0",
                   "--set", "count_dirt=2"])
    assert rc == 0
    with open(ds / "manifest.csv") as fh:
        labels = [r["label"] for r in csv.DictReader(fh)]
    assert labels.count("crater") == 0
    assert labels.count("dirt") == 2


def test_bad_set_value_is_data_error(tmp_path):
    rc = cli.main(["generate", "--seed", "1", "--out", str(tmp_path / "ds"),
                   "--set", "count_crater=-2"])
    assert rc == 3


def test_derive_run_seeds_deterministic():
    a = cli.derive_run_seeds(42, 10)
    b = cli.derive_run_seeds(42, 10)
    assert a == b
    assert len(set(a)) == 10
    assert cli.derive_run_seeds(43, 10) != a


def test_extract_q_override_changes_features(pipeline):
    root, _, ds, feats = pipeline
    out = root / "features_q12.csv"
    assert cli.main(["extract", "--data", str(ds), "--out", str(out),
                     "--q", "12"]) == 0
    assert out.read_bytes() != feats.read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--q", "3"], "--q must be >= 4, got 3"),
    (["--q", "20", "--feature", "colstd"],
     "--q sets the EDF basis dimension; --feature colstd takes no --q"),
])
def test_extract_bad_q_is_refused_before_any_input_is_read(tmp_path, capsys, flags,
                                                           message):
    missing = str(tmp_path / "missing")   # reading it first would be a DataError
    rc = cli.main(["extract", "--data", missing, "--out", str(tmp_path / "f.csv"),
                   *flags])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["message"] == message


def test_extract_transpose_flag(pipeline):
    root, _, ds, feats = pipeline
    out = root / "features_t.csv"
    assert cli.main(["extract", "--data", str(ds), "--out", str(out),
                     "--transpose"]) == 0
    # fringes run along rows, so transposed patches smooth differently
    assert out.read_bytes() != feats.read_bytes()


def _set_usable_cpus(monkeypatch, cpus):
    """Let this process run on cpus CPUs of a host with more; None is a host
    that reports neither an affinity mask nor a CPU count."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4 * cpus)


def test_usable_cpus_is_the_affinity_mask_else_the_cpu_count(monkeypatch):
    _set_usable_cpus(monkeypatch, 3)
    assert cli.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli.usable_cpus() == 12
    _set_usable_cpus(monkeypatch, None)
    assert cli.usable_cpus() == 1


def test_extract_threads_match_serial(pipeline, monkeypatch):
    _set_usable_cpus(monkeypatch, 2)  # reach the pool on one CPU too
    root, _, ds, feats = pipeline
    out = root / "features_mt.csv"
    assert cli.main(["extract", "--data", str(ds), "--out", str(out),
                     "--threads", "2"]) == 0
    assert out.read_bytes() == feats.read_bytes()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    workers: list = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("threads, cpus, workers", [
    ("1000", 64, [18]), ("1000", 2, [2]), ("2", None, []), ("1", 64, [])])
def test_extract_starts_at_most_one_worker_per_cpu_and_patch(
        pipeline, tmp_path, monkeypatch, threads, cpus, workers):
    # no process is started: the pool is a fake, the 18-patch dataset is real
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    _set_usable_cpus(monkeypatch, cpus)
    _, _, ds, feats = pipeline
    out = tmp_path / "f.csv"
    assert cli.main(["extract", "--data", str(ds), "--out", str(out),
                     "--threads", threads]) == 0
    assert _RecordingPool.workers == workers
    assert out.read_bytes() == feats.read_bytes()


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_extract_threads_below_one_is_usage_error(tmp_path, threads):
    with pytest.raises(SystemExit) as exc:
        cli.main(["extract", "--data", str(tmp_path), "--out", str(tmp_path / "f.csv"),
                  "--threads", threads])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["extract", "classify", "evaluate"])
def test_out_naming_no_file_is_refused_before_any_input_is_read(tmp_path, capsys,
                                                                command):
    missing = str(tmp_path / "missing")   # reading it first would be another error
    inputs = {"extract": ["--data", missing],
              "classify": ["--reference", missing, "--queries", missing],
              "evaluate": ["--features", missing, "--seed", "1"]}
    rc = cli.main([command, *inputs[command], "--out", "."])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["message"] == "--out must name a file, got '.'"


@pytest.mark.parametrize("command, written", [
    ("extract", "out"), ("classify", "out"),
    ("evaluate", "out.json"), ("evaluate", "out.csv")])
def test_out_writing_into_a_directory_is_refused_before_any_input_is_read(
        tmp_path, capsys, command, written):
    missing = str(tmp_path / "missing")   # reading it first would be a DataError
    inputs = {"extract": ["--data", missing],
              "classify": ["--reference", missing, "--queries", missing],
              "evaluate": ["--features", missing, "--seed", "1"]}
    (tmp_path / written).mkdir()
    out = str(tmp_path / "out")
    rc = cli.main([command, *inputs[command], "--out", out])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["message"] == (f"--out must name a file, got {out!r}: "
                                  f"{str(tmp_path / written)!r} is a directory")


def test_evaluate_out_beside_a_directory_of_its_name(pipeline, tmp_path):
    # evaluate writes <out>.json and <out>.csv, so a directory named <out> is fine
    _, _, _, feats = pipeline
    (tmp_path / "reports").mkdir()
    assert cli.main(["evaluate", "--features", str(feats), "--seed", "1",
                     "--runs", "2", "--out", str(tmp_path / "reports")]) == 0
    assert (tmp_path / "reports.json").is_file()
    assert (tmp_path / "reports.csv").is_file()


def test_extract_and_classify_make_the_out_directory(pipeline, tmp_path):
    _, _, ds, feats = pipeline
    out = tmp_path / "a" / "b" / "f.csv"
    assert cli.main(["extract", "--data", str(ds), "--out", str(out)]) == 0
    assert out.read_bytes() == feats.read_bytes()
    posts = tmp_path / "c" / "d" / "p.csv"
    assert cli.main(["classify", "--reference", str(feats), "--queries", str(feats),
                     "--out", str(posts)]) == 0
    assert posts.is_file()


def test_evaluate_config_file_with_flag_override(pipeline, tmp_path):
    root, _, _, feats = pipeline
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("train_frac=0.6\nruns=2\nmerge=crater,dirt\nseed=9\n")
    out_cfg = tmp_path / "from_config.json"
    assert cli.main(["evaluate", "--features", str(feats), "--out",
                     str(out_cfg), "--config", str(cfg)]) == 0
    doc = json.loads(out_cfg.read_text())
    assert doc["train_fraction"] == 0.6
    assert len(doc["seeds"]) == 2

    out_override = tmp_path / "flag_wins.json"
    assert cli.main(["evaluate", "--features", str(feats), "--out",
                     str(out_override), "--config", str(cfg),
                     "--runs", "4"]) == 0
    assert len(json.loads(out_override.read_text())["seeds"]) == 4


def test_evaluate_without_seed_is_config_error(pipeline):
    root, _, _, feats = pipeline
    rc = cli.main(["evaluate", "--features", str(feats),
                   "--out", str(root / "noseed.json")])
    assert rc == 3


@pytest.mark.parametrize("column, value", [(4, "x91"), (2, "eight"),
                                           (3, ""), (5, "nan?"), (2, "inf"),
                                           (2, "0.0"), (3, "nan")])
def test_malformed_feature_field_is_data_error(pipeline, tmp_path, capsys,
                                               column, value):
    _, _, _, feats = pipeline
    lines = feats.read_text().splitlines()
    row = lines[2].split(",")
    row[column] = value
    lines[2] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["classify", "--reference", str(feats), "--queries", str(bad),
                   "--out", str(tmp_path / "post.csv")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ")
    payload = json.loads(err[0].split(" ", 1)[1])
    assert payload["exit_code"] == 3 and payload["error"] == "DataError"
    assert f"{bad}:3:" in payload["message"]


def test_zero_dimension_features_are_data_error(tmp_path, capsys):
    feats = tmp_path / "m0.csv"
    feats.write_text("patch_id,label,f,psi,m\np0,a,8.0,0.0,0\np1,b,8.0,0.0,0\n")
    capsys.readouterr()
    rc = cli.main(["classify", "--reference", str(feats), "--queries", str(feats),
                   "--out", str(tmp_path / "post.csv")])
    assert rc == 3
    assert f"{feats}:2:" in _one_error_line(capsys)["message"]
    assert not (tmp_path / "post.csv").exists()


def _one_error_line(capsys) -> dict:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ")
    return json.loads(err[0].split(" ", 1)[1])


TINY = ["--set", "m=31", "--set", "count_defect_free=2", "--set", "count_dirt=2",
        "--set", "count_crater=2"]


@pytest.mark.parametrize("setting", [
    "frequencies=nan", "frequencies=inf", "frequencies=-8", "frequencies=0",
    "phases=nan", "offset=nan", "amplitude=inf", "noise_sigma=nan",
    "center_jitter=nan", "crater_radius=nan,nan", "amplitude=1e308",
    "offset=1e308", "amplitude=0", "noise_sigma=-1", "center_jitter=-5", "frequencies=1e308",
    "frequencies=1e306", "pattern_width=100000000000000000000",
    "frequencies=1e306 pattern_width=1000", "crater_radius=1e308,1e308",
    "dirt_radius=1e-300,1e-300", "phases=1e308 dirt_strength=1e308,1e308"])
def test_bad_generation_value_is_config_error(tmp_path, capsys, setting):
    ds = tmp_path / "ds"
    sets = [arg for pair in setting.split() for arg in ("--set", pair)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["generate", "--seed", "1", "--out", str(ds), *TINY, *sets])
    assert rc == 3
    assert _one_error_line(capsys)["error"] == "ConfigError"
    assert not ds.exists()
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("source", ["--set", "--config"])
def test_patch_side_over_the_bound_is_config_error(tmp_path, capsys, source):
    config = tmp_path / "gen.cfg"
    config.write_text("m=100001\n")
    args = {"--set": ["--set", "m=100001"], "--config": ["--config", str(config)]}
    ds = tmp_path / "ds"
    rc = cli.main(["generate", "--seed", "1", "--out", str(ds), *args[source]])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["message"] == "m must be odd and in [31, 4095], got 100001"
    assert not ds.exists()
    synth.GenerationConfig(m=4095).validate()   # the bound itself is accepted


@pytest.mark.parametrize("error", [
    DataError("p000003.pgm: pixels do not map onto 0..65535"),
    OSError(28, "No space left on device"),
])
def test_generate_write_failure_exits_3_with_one_error_line(tmp_path, capsys,
                                                            monkeypatch, error):
    write_patch_pgm = synth.write_patch_pgm

    def write(patch, path, lo, hi):
        if path.name == "p000003.pgm":
            raise error
        write_patch_pgm(patch, path, lo, hi)

    monkeypatch.setattr(synth, "write_patch_pgm", write)
    ds = tmp_path / "ds"
    rc = cli.main(["generate", "--seed", "1", "--out", str(ds), *TINY])
    assert rc == 3
    assert _one_error_line(capsys) == {"exit_code": 3, "error": type(error).__name__,
                                       "message": str(error)}
    assert sorted(path.name for path in (ds / "patches").iterdir()) == [
        "p000000.pgm", "p000001.pgm", "p000002.pgm"]
    assert not (ds / "manifest.csv").exists()


def test_negative_generate_seed_is_config_error(tmp_path, capsys):
    rc = cli.main(["generate", "--seed", "-1", "--out", str(tmp_path / "ds"), *TINY])
    assert rc == 3
    assert "seed" in _one_error_line(capsys)["message"]


@pytest.mark.parametrize("flags, config", [
    (["--seed", "-1"], None),
    (["--seed", "3", "--runs", "-1"], None),
    ([], "seed=-1\n"),
    ([], "runs=-2\nseed=3\n"),
    (["--seed", "3", "--runs", "1000001"], None),
    (["--seed", "3", "--runs", "1099511627776"], None),
    (["--seed", "3", "--runs", "9223372036854775808"], None),
    ([], "runs=1099511627776\nseed=3\n"),
    ([], "runs=9223372036854775808\nseed=3\n"),
])
def test_bad_evaluate_seed_or_runs_is_config_error(pipeline, tmp_path, capsys,
                                                   flags, config):
    _, _, _, feats = pipeline
    if config is not None:
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(config)
        flags = [*flags, "--config", str(cfg)]
    capsys.readouterr()
    rc = cli.main(["evaluate", "--features", str(feats),
                   "--out", str(tmp_path / "r.json"), *flags])
    assert rc == 3
    assert _one_error_line(capsys)["error"] == "ConfigError"


def test_set_is_applied_before_validation(tmp_path):
    config = tmp_path / "cfg"
    config.write_text(CONFIG_TEXT.replace("m=31", "m=30"))
    ds = tmp_path / "ds"
    rc = cli.main(["generate", "--config", str(config), "--seed", "1",
                   "--out", str(ds), "--set", "m=31"])
    assert rc == 0
    with open(ds / "manifest.csv") as fh:
        assert {r["m"] for r in csv.DictReader(fh)} == {"31"}


@pytest.mark.parametrize("text, lineno", [
    ("m=31\njust a line\n", 2),
    ("# comment\n\nunknown_key=1\n", 3),
    ("m=31\nm=abc\n", 2),
])
def test_generate_config_error_names_file_line(tmp_path, capsys, text, lineno):
    config = tmp_path / "gen.cfg"
    config.write_text(text)
    rc = cli.main(["generate", "--config", str(config), "--seed", "1",
                   "--out", str(tmp_path / "ds")])
    assert rc == 3
    assert f"{config}:{lineno}:" in _one_error_line(capsys)["message"]


def test_set_error_names_its_position(tmp_path, capsys):
    rc = cli.main(["generate", "--seed", "1", "--out", str(tmp_path / "ds"),
                   "--set", "m=31", "--set", "bogus"])
    assert rc == 3
    assert _one_error_line(capsys)["message"].startswith("--set:2:")


def test_evaluate_config_error_names_file_line(pipeline, tmp_path, capsys):
    _, _, _, feats = pipeline
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("# comment\nruns=x\nseed=3\n")
    capsys.readouterr()
    rc = cli.main(["evaluate", "--features", str(feats),
                   "--out", str(tmp_path / "r.json"), "--config", str(cfg)])
    assert rc == 3
    assert f"{cfg}:2:" in _one_error_line(capsys)["message"]


@pytest.mark.parametrize("command, text", [
    ("generate", b"m=31\ncount_dirt=\xff2\n"),
    ("evaluate", b"seed=3\nruns=\xff2\n"),
])
def test_config_file_that_is_not_utf8_is_config_error(pipeline, tmp_path, capsys,
                                                      command, text):
    _, _, _, feats = pipeline
    cfg = tmp_path / "x.cfg"
    cfg.write_bytes(text)
    args = {"generate": ["--seed", "1"], "evaluate": ["--features", str(feats)]}
    capsys.readouterr()
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                   *args[command]])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"{cfg}:2: not UTF-8 text")


@pytest.mark.parametrize("flags, config", [
    (["--train-frac", "nan"], None), (["--train-frac", "inf"], None),
    (["--train-frac", "1e400"], None), ([], "train_frac=nan\n"),
])
def test_non_finite_train_frac_is_data_error(pipeline, tmp_path, capsys, flags,
                                             config):
    _, _, _, feats = pipeline
    if config is not None:
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(config)
        flags = [*flags, "--config", str(cfg)]
    capsys.readouterr()
    rc = cli.main(["evaluate", "--features", str(feats), "--seed", "1",
                   "--out", str(tmp_path / "r.json"), *flags])
    assert rc == 3
    assert "train_fraction must be in (0, 1)" in _one_error_line(capsys)["message"]


@pytest.mark.parametrize("out", ["", ".", "/", "..", "reports/.."])
def test_evaluate_out_without_a_file_name_is_config_error(pipeline, tmp_path,
                                                          monkeypatch, capsys, out):
    _, _, _, feats = pipeline
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    rc = cli.main(["evaluate", "--features", str(feats), "--seed", "1",
                   "--runs", "1", "--out", out])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["message"] == f"--out must name a file, got {out!r}"
    assert list(tmp_path.iterdir()) == []


def test_evaluate_keys_are_its_setting_flags():
    args = cli.build_parser().parse_args(["evaluate", "--features", "f.csv",
                                          "--out", "r.json", "--merge", " dirt, ,crater"])
    flags = set(vars(args)) - {"command", "func", "features", "out", "config"}
    assert flags == set(cli._EVALUATE_KEYS)
    assert args.merge == cli._EVALUATE_KEYS["merge"]("crater,dirt") == {"crater", "dirt"}


def test_classify_reads_shared_features_file_once(pipeline, tmp_path,
                                                  monkeypatch, capsys):
    _, _, _, feats = pipeline
    copy = tmp_path / "copy.csv"
    shutil.copyfile(feats, copy)
    separate = tmp_path / "separate.csv"
    assert cli.main(["classify", "--reference", str(feats), "--queries", str(copy),
                     "--out", str(separate), "--leave-one-out"]) == 0

    reads = []

    def counting(path):
        reads.append(path)
        return read_features_csv(path)
    monkeypatch.setattr(cli.feat, "read_features_csv", counting)
    monkeypatch.setattr(classifier, "read_features_csv", counting)
    shared = tmp_path / "shared.csv"
    assert cli.main(["classify", "--reference", str(feats), "--queries", str(feats),
                     "--out", str(shared), "--leave-one-out"]) == 0
    assert len(reads) == 1
    assert shared.read_bytes() == separate.read_bytes()

    unlabeled = tmp_path / "unlabeled.csv"
    vectors = read_features_csv(feats)
    for fv in vectors:
        fv.label = None
    write_features_csv(vectors, unlabeled)
    capsys.readouterr()
    rc = cli.main(["classify", "--reference", str(unlabeled),
                   "--queries", str(unlabeled), "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "no labeled feature vectors" in _one_error_line(capsys)["message"]


def test_extract_on_corrupt_pgm_is_data_error(pipeline, tmp_path, capsys):
    _, _, ds, _ = pipeline
    copy = tmp_path / "ds"
    shutil.copytree(ds, copy)
    pgm = sorted((copy / "patches").glob("*.pgm"))[0]
    pgm.write_text(pgm.read_text().replace("65535\n", "65535\nx ", 1))
    capsys.readouterr()
    rc = cli.main(["extract", "--data", str(copy), "--out", str(tmp_path / "f.csv")])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "DataError" and str(pgm) in payload["message"]


def test_extract_on_malformed_csv_patch_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert cli.main(["generate", "--seed", "1", "--out", str(ds), *TINY,
                     "--set", "format=csv"]) == 0
    patch = sorted((ds / "patches").glob("*.csv"))[0]
    lines = patch.read_text().splitlines()
    lines[1] = "abc," + lines[1].split(",", 1)[1]
    patch.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["extract", "--data", str(ds), "--out", str(tmp_path / "f.csv")])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "DataError" and f"{patch}:2:" in payload["message"]


@pytest.mark.parametrize("fmt, target, lineno, old, new, message", [
    ("pgm", "manifest.csv", 3, rb",", b",\xff", "{path}:3: not UTF-8 text"),
    ("pgm", "manifest.csv", 2, rb"/p0", b"/p\x000", "{path}:2: file name"),
    ("csv", "patches/p000000.csv", 2, rb",", b",\xff", "{path}:2: not UTF-8 text"),
    ("pgm", "patches/p000000.pgm", 5, rb" ", b" \xff", "{path}:5: not UTF-8 text"),
    ("pgm", "patches/p000000.pgm", 2, rb"range \S+", b"range abc",
     "{path}: malformed range comment"),
    ("pgm", "patches/p000000.pgm", 2, rb"range \S+", b"range nan", "{path}: range nan"),
    ("pgm", "manifest.csv", 2, rb",8\.0,", b",1e999,",
     "{path}:2: frequency must be in (0, inf), got inf"),
    ("pgm", "manifest.csv", 3, rb",8\.0,", b",-8,",
     "{path}:3: frequency must be in (0, inf), got -8.0"),
    ("pgm", "manifest.csv", 2, rb",3\.14\d*,", b",nan,", "{path}:2: phase must be finite"),
    ("csv", "manifest.csv", 3, rb",31,", b",33,",
     "{path}:3: {path.parent}/patches/p000001.csv holds 31x31 pixels, not m=33"),
])
def test_extract_on_undecodable_or_non_numeric_input_is_data_error(
        tmp_path, capsys, fmt, target, lineno, old, new, message):
    ds = tmp_path / "ds"
    assert cli.main(["generate", "--seed", "1", "--out", str(ds), *TINY,
                     "--set", f"format={fmt}"]) == 0
    path = ds / target
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = re.sub(old, new, lines[lineno - 1], count=1)
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    rc = cli.main(["extract", "--data", str(ds), "--out", str(tmp_path / "f.csv"),
                   "--feature", "colstd"])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "DataError"
    assert message.format(path=path) in payload["message"], payload["message"]


def test_extract_on_pixels_near_the_float_range_writes_finite_features(tmp_path):
    """A PGM range of 1e308 1.7e308 is an affine map of the pixels, so its
    features are those of the original patch; a CSV value of 1e308 only has to
    give finite ones."""
    for fmt in ("pgm", "csv"):
        ds = tmp_path / fmt
        assert cli.main(["generate", "--seed", "1", "--out", str(ds), *TINY,
                         "--set", f"format={fmt}"]) == 0
        path = ds / f"patches/p000000.{fmt}"
        data = path.read_bytes()
        for feature in ("colstd", "edf"):
            before = tmp_path / f"{fmt}-{feature}-before.csv"
            assert cli.main(["extract", "--data", str(ds), "--out", str(before),
                             "--feature", feature]) == 0
            if fmt == "pgm":
                path.write_bytes(re.sub(rb"# range \S+ \S+", b"# range 1e308 1.7e308",
                                        data))
            else:
                path.write_bytes(b"1e308" + data[data.index(b","):])
            out = tmp_path / f"{fmt}-{feature}.csv"
            try:
                rc, err = _run_quietly(["extract", "--data", str(ds), "--out", str(out),
                                        "--feature", feature])
            finally:
                path.write_bytes(data)
            assert (rc, err) == (0, [])
            first, *rest = read_features_csv(out)
            first_before, *rest_before = read_features_csv(before)
            assert [fv.tau.tolist() for fv in rest] == [
                fv.tau.tolist() for fv in rest_before]
            if fmt == "pgm":
                assert max(abs(first.tau - first_before.tau)) < 1e-9


def test_extract_on_manifest_without_f_is_data_error(pipeline, tmp_path, capsys):
    _, _, ds, _ = pipeline
    copy = tmp_path / "ds"
    shutil.copytree(ds, copy)
    manifest = copy / "manifest.csv"
    with open(manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(manifest, "w", newline="") as fh:
        writer = csv.DictWriter(fh, [k for k in rows[0] if k != "f"],
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    rc = cli.main(["extract", "--data", str(copy), "--out", str(tmp_path / "f.csv")])
    assert rc == 3
    payload = _one_error_line(capsys)
    assert payload["error"] == "DataError" and str(manifest) in payload["message"]


def test_evaluate_with_empty_validation_split_is_data_error(pipeline, tmp_path,
                                                            capsys):
    _, _, _, feats = pipeline
    capsys.readouterr()
    rc = cli.main(["evaluate", "--features", str(feats), "--seed", "1",
                   "--train-frac", "0.99", "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "no validation points" in _one_error_line(capsys)["message"]


def test_evaluate_tells_trailing_nul_labels_apart(tmp_path):
    feats = tmp_path / "nul.csv"
    rows = [f"p{i},{label},8.0,0.0,1,{float(i)!r}"
            for i, label in enumerate(["a", "a\0", "b"] * 4)]
    feats.write_text("patch_id,label,f,psi,m,tau_1\n" + "\n".join(rows) + "\n",
                     encoding="utf-8")
    out = tmp_path / "r.json"
    rc = cli.main(["evaluate", "--features", str(feats), "--seed", "3", "--runs", "2",
                   "--train-frac", "0.5", "--merge", "b", "--out", str(out)])
    if sys.version_info < (3, 11):      # its csv module refuses a NUL byte
        assert rc == 3
        return
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["classes"] == ["a", "a\0", "b"]
    assert doc["counts"]["n_total"] == 6


_FOOTPRINT = """\
import sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
import edfdetect.cli as cli
import edfdetect.synth as synth
assert scipy_modules() == [], scipy_modules()
root = sys.argv[1]
assert cli.main(["generate", "--seed", "1", "--out", root + "/ds", "--set", "m=31",
                 "--set", "count_defect_free=2", "--set", "count_dirt=2",
                 "--set", "count_crater=2"]) == 0
assert cli.main(["extract", "--data", root + "/ds", "--out", root + "/f.csv",
                 "--feature", "colstd"]) == 0
assert cli.main(["extract", "--data", root + "/ds", "--out", root + "/e.csv",
                 "--feature", "edf"]) == 0
assert cli.main(["classify", "--reference", root + "/f.csv", "--queries",
                 root + "/f.csv", "--out", root + "/post.csv", "--leave-one-out"]) == 0
assert cli.main(["evaluate", "--features", root + "/f.csv", "--seed", "1",
                 "--runs", "2", "--train-frac", "0.5", "--out", root + "/r.json"]) == 0
from edfdetect.splinefit import build_spline_model
build_spline_model(91, 20)
assert scipy_modules() == [], scipy_modules()
"""


def _run_child(script: str, *args, env: dict | None = None) -> None:
    """Run script in a fresh interpreter that imports this edfdetect, with env
    on top of this process's environment."""
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_command_imports_scipy(tmp_path):
    _run_child(_FOOTPRINT, tmp_path)


_NO_PGM_TABLE = """\
import sys
import edfdetect.cli as cli
import edfdetect.synth as synth
from edfdetect import synth
assert cli.main(["extract", "--data", sys.argv[1], "--out", sys.argv[2],
                 "--feature", "colstd"]) == 0
assert synth._decimal_table.cache_info().currsize == 0
patch = synth.load_dataset(sys.argv[1] + "/manifest.csv")[0]
synth.write_patch_pgm(patch, sys.argv[2] + ".pgm", 0.0, 1.0)
assert synth._decimal_table.cache_info().currsize == 1
"""


def test_pgm_writer_table_is_built_by_the_first_write_only(pipeline, tmp_path):
    _, _, ds, _ = pipeline
    _run_child(_NO_PGM_TABLE, ds, tmp_path / "f.csv")


_COMMAND_MODULES = """\
import sys
import edfdetect.cli as cli
assert cli.main(sys.argv[2:]) == 0
loaded = {name.split(".")[1] for name in sys.modules if name.startswith("edfdetect.")}
assert not loaded & set(sys.argv[1].split(",")), sorted(loaded)
"""


@pytest.mark.parametrize("command, absent", [
    ("generate", "classifier,metrics"),
    ("extract-edf", "classifier,metrics"),
    ("extract-colstd", "classifier,metrics"),
    ("classify", "synth,metrics"),
    ("evaluate", "synth"),
])
def test_each_command_imports_only_the_modules_it_runs(pipeline, tmp_path, command,
                                                      absent):
    _, config, ds, feats = pipeline
    argv = {
        "generate": ["generate", "--config", config, "--seed", "1",
                     "--out", tmp_path / "ds"],
        "extract-edf": ["extract", "--data", ds, "--out", tmp_path / "f.csv"],
        "extract-colstd": ["extract", "--data", ds, "--out", tmp_path / "f.csv",
                           "--feature", "colstd"],
        "classify": ["classify", "--reference", feats, "--queries", feats,
                     "--out", tmp_path / "p.csv", "--leave-one-out"],
        "evaluate": ["evaluate", "--features", feats, "--seed", "1", "--runs", "2",
                     "--out", tmp_path / "r.json"],
    }[command]
    _run_child(_COMMAND_MODULES, absent, *argv)


def test_all_lists_every_public_name_the_package_binds():
    import edfdetect

    assert set(edfdetect.__all__) <= set(dir(edfdetect))
    for name in edfdetect.__all__:
        obj = getattr(edfdetect, name)  # imported from its module on first use
        assert vars(sys.modules[obj.__module__])[name] is obj
    bound = [name for name, obj in vars(edfdetect).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
    assert sorted(edfdetect.__all__) == sorted(bound)
    namespace: dict = {}
    exec("from edfdetect import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(edfdetect.__all__)
    with pytest.raises(AttributeError):
        edfdetect.not_a_public_name


_MUTATIONS = ("truncate", "swap", "nan", "empty", "byte", "huge")


def _mutate(data: bytes, kind: str, i: int, j: int, byte: int,
            sep: bytes = b",") -> bytes:
    """One corruption of a features CSV; i, j and byte pick where and what.

    Tokens are split at sep, so the same corruptions apply to a PGM with
    sep=b" ".
    """
    if kind == "truncate":
        return data[:i % len(data)]
    if kind == "byte":
        at = i % (len(data) + 1)
        return data[:at] + bytes([byte]) + data[at:]
    lines = data.split(b"\n")
    row = i % len(lines)
    tokens = lines[row].split(sep)
    t = j % len(tokens)
    if kind == "swap":
        u = byte % len(tokens)
        tokens[t], tokens[u] = tokens[u], tokens[t]
    elif kind == "huge":   # a tau when the line has any
        tokens[5 + j % (len(tokens) - 5) if len(tokens) > 5 else t] = b"1e300"
    else:
        tokens[t] = b"nan" if kind == "nan" else b""
    lines[row] = sep.join(tokens)
    return b"\n".join(lines)


def _run_quietly(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one command, warnings counted as lines."""
    err = io.StringIO()
    with (contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    return rc, err.getvalue().splitlines() + [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(_MUTATIONS), i=st.integers(0, 10**6),
       j=st.integers(0, 10**6), byte=st.integers(0, 255))
def test_mutated_features_csv_exits_0_or_3_with_one_error_line(pipeline, kind, i,
                                                               j, byte):
    root, _, _, feats = pipeline
    bad, post, report = (root / f"mutated{ext}" for ext in (".csv", "-post.csv", ".json"))
    bad.write_bytes(_mutate(feats.read_bytes(), kind, i, j, byte))
    for argv in (["classify", "--reference", str(bad), "--queries", str(bad),
                  "--out", str(post), "--leave-one-out"],
                 ["evaluate", "--features", str(bad), "--seed", "1", "--runs", "2",
                  "--out", str(report)]):
        rc, err = _run_quietly(argv)
        assert rc in (0, 3), (argv[0], rc, err)
        if rc == 3:
            assert len(err) == 1 and err[0].startswith("ERROR "), (argv[0], err)
            assert json.loads(err[0].split(" ", 1)[1])["exit_code"] == 3
            continue
        assert err == [], (argv[0], err)
        if argv[0] == "classify":
            with open(post) as fh:
                probs = [float(v) for row in list(csv.reader(fh))[1:] for v in row[3:]]
            assert all(math.isfinite(p) for p in probs)
        else:
            json.loads(report.read_text(), parse_constant=pytest.fail)


_DATASET_MUTATIONS = ("truncate", "swap", "nan", "empty", "byte", "number")
_NON_NUMBERS = (b"abc", b"nan", b"-inf", b"1e999", b"")


def _mutate_dataset_file(data: bytes, pgm: bool, kind: str, i: int, j: int,
                         byte: int) -> bytes:
    """One corruption of a manifest or a PGM; "number" puts a non-number where a
    number is written: the PGM's range, or f, psi, origin_col or seed of a manifest
    row (the last two are provenance, which the loader does not read)."""
    sep = b" " if pgm else b","
    if kind != "number":
        return _mutate(data, kind, i, j, byte, sep)
    lines = data.split(b"\n")
    row, col = (1, 2 + j % 2) if pgm else (1 + i % (len(lines) - 2), (3, 4, 11, 12)[j % 4])
    tokens = lines[row].split(sep)
    tokens[col] = _NON_NUMBERS[byte % len(_NON_NUMBERS)]
    lines[row] = sep.join(tokens)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    ds = tmp_path_factory.mktemp("tiny") / "ds"
    assert cli.main(["generate", "--seed", "1", "--out", str(ds), *TINY]) == 0
    return ds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pgm=st.booleans(), kind=st.sampled_from(_DATASET_MUTATIONS),
       i=st.integers(0, 10**6), j=st.integers(0, 10**6), byte=st.integers(0, 255))
def test_mutated_dataset_extract_exits_0_or_3_with_one_error_line(tiny_dataset, pgm,
                                                                  kind, i, j, byte):
    target = tiny_dataset / ("patches/p000000.pgm" if pgm else "manifest.csv")
    out = tiny_dataset.parent / "f.csv"
    original = target.read_bytes()
    target.write_bytes(_mutate_dataset_file(original, pgm, kind, i, j, byte))
    try:
        rc, err = _run_quietly(["extract", "--data", str(tiny_dataset), "--out",
                                str(out), "--feature", "colstd"])
    finally:
        target.write_bytes(original)
    assert rc in (0, 3), (rc, err)
    if rc == 3:
        assert len(err) == 1 and err[0].startswith("ERROR "), err
        assert json.loads(err[0].split(" ", 1)[1])["exit_code"] == 3
    else:
        assert err == [], err
        read_features_csv(out)


_PATCH_CSV_MUTATIONS = ("truncate", "swap", "nan", "inf", "empty", "byte", "text",
                        "huge", "ragged")
_PATCH_CSV_VALUES = {"inf": b"-inf", "text": b"abc", "huge": b"1e308"}


def _mutate_patch_csv(data: bytes, kind: str, i: int, j: int, byte: int) -> bytes:
    """One corruption of a patch CSV: a features CSV corruption, or one value
    set to -inf, a non-number or 1e308, or one value added to a row."""
    if kind not in _PATCH_CSV_VALUES and kind != "ragged":
        return _mutate(data, kind, i, j, byte)
    lines = data.split(b"\n")
    row = i % (len(lines) - 1)     # the last split is the empty tail
    tokens = lines[row].split(b",")
    if kind == "ragged":
        tokens.append(tokens[j % len(tokens)])
    else:
        tokens[j % len(tokens)] = _PATCH_CSV_VALUES[kind]
    lines[row] = b",".join(tokens)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def tiny_csv_dataset(tmp_path_factory):
    ds = tmp_path_factory.mktemp("tiny-csv") / "ds"
    assert cli.main(["generate", "--seed", "1", "--out", str(ds), *TINY,
                     "--set", "format=csv"]) == 0
    return ds


@settings(max_examples=60, deadline=None, derandomize=True)
@example(kind="truncate", i=3, j=0, byte=0)     # one value: a 1x1 patch
@given(kind=st.sampled_from(_PATCH_CSV_MUTATIONS), i=st.integers(0, 10**6),
       j=st.integers(0, 10**6), byte=st.integers(0, 255))
def test_mutated_patch_csv_extract_exits_0_or_3_with_one_error_line(tiny_csv_dataset,
                                                                    kind, i, j, byte):
    target = tiny_csv_dataset / "patches/p000000.csv"
    original = target.read_bytes()
    target.write_bytes(_mutate_patch_csv(original, kind, i, j, byte))
    try:
        for feature in ("colstd", "edf"):
            out = tiny_csv_dataset.parent / f"{feature}.csv"
            rc, err = _run_quietly(["extract", "--data", str(tiny_csv_dataset),
                                    "--out", str(out), "--feature", feature])
            assert rc in (0, 3), (feature, rc, err)
            if rc == 3:
                assert len(err) == 1 and err[0].startswith("ERROR "), (feature, err)
                assert json.loads(err[0].split(" ", 1)[1])["exit_code"] == 3
            else:
                assert err == [], (feature, err)
                read_features_csv(out)
    finally:
        target.write_bytes(original)


_CONFIG_VALUES = (  # well typed for some key, 'auto', or broken
    b"0", b"2", b"3", b"31", b"0.5", b"8", b"64", b"pi", b"3pi/2", b"-1", b"1e308",
    b"1e-300", b"8,64", b"0.5,2", b"10,16", b"1e308,1e308", b"pi,0", b"crater",
    b"crater,dirt", b"dirt,defect_free", b"csv", b"auto",
    b"nan", b"inf", b"-inf", b"", b"1,2,3", b"nan,1", b"1,inf", b"x", b"3\xff")
_COMMAND_CONFIGS = {  # key table, base config, flags besides --config and --out
    "generate": (synth.GENERATION_KEYS, CONFIG_TEXT, ["--seed", "1"]),
    "evaluate": (cli._EVALUATE_KEYS, "seed=1\nruns=2\n", []),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_CONFIGS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_file_exits_0_or_3_with_one_error_line(pipeline, command, data):
    """Lines of the command's keys or an unknown one, each value well typed,
    broken or 'auto', appended to a base config that runs."""
    root, _, _, feats = pipeline
    keys, base, flags = _COMMAND_CONFIGS[command]
    lines = data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(keys) + ["bogus"]), st.sampled_from(_CONFIG_VALUES)),
        min_size=1, max_size=3))
    cfg, out = root / f"drawn-{command}.cfg", root / f"drawn-{command}"
    cfg.write_bytes(base.encode() + b"".join(
        key.encode() + b"=" + value + b"\n" for key, value in lines))
    shutil.rmtree(out, ignore_errors=True)
    if command == "evaluate":
        flags = [*flags, "--features", str(feats)]
    rc, err = _run_quietly([command, "--config", str(cfg), "--out", str(out), *flags])
    assert rc in (0, 3), (rc, err)
    if rc == 0:
        assert err == [], err
        return
    assert len(err) == 1 and err[0].startswith("ERROR "), err
    payload = json.loads(err[0].split(" ", 1)[1])
    assert payload["exit_code"] == 3
    if command == "generate" and payload["error"] == "ConfigError":
        assert not out.exists()


# A command run under the locale whose preferred encoding is argv[1].
_UNDER_LOCALE = """\
import codecs, locale, sys
import edfdetect.cli as cli
assert codecs.lookup(locale.getpreferredencoding(False)).name == sys.argv[1]
assert cli.main(sys.argv[2:]) == 0
"""
_LOCALES = {"ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
            "utf-8": {"PYTHONUTF8": "1"}}


def _relabel_csv(src, dst, column, labels):
    """Copy the CSV src to dst with labels applied to one column's values."""
    with open(src, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    for row in rows[1:]:
        row[col] = labels.get(row[col], row[col])
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("command", ["extract", "classify"])
def test_non_ascii_labels_are_written_as_utf8_under_an_ascii_locale(
        pipeline, tmp_path, command):
    _, _, ds, feats = pipeline
    labels = {"dirt": "défaut", "crater": "cratère"}
    if command == "extract":
        shutil.copytree(ds, tmp_path / "ds")
        _relabel_csv(ds / "manifest.csv", tmp_path / "ds" / "manifest.csv", "label", labels)
        argv = ["extract", "--data", tmp_path / "ds"]
    else:
        _relabel_csv(feats, tmp_path / "f.csv", "label", labels)
        argv = ["classify", "--reference", tmp_path / "f.csv",
                "--queries", tmp_path / "f.csv", "--leave-one-out"]
    for encoding, env in _LOCALES.items():
        _run_child(_UNDER_LOCALE, encoding, *argv, "--out", tmp_path / f"{encoding}.csv",
                   env=env)
    written = (tmp_path / "ascii.csv").read_bytes()
    assert written == (tmp_path / "utf-8.csv").read_bytes()
    assert ",défaut,".encode() in written


_MAIN = "import sys, edfdetect.cli as cli\nassert cli.main(sys.argv[1:]) == 0\n"

# Largest |dtau| between this host's kernels and the AVX2 ones on the
# acceptance fixture's channels of 1000 patches, by frequency (q = 20, 30, 40).
CROSS_HOST_TAU_BOUND = {8.0: 3.2e-14, 16.0: 4.8e-14, 64.0: 1.6e-13}

# numpy without its AVX-512 loops and OpenBLAS on its AVX2 kernels: what a
# host without AVX-512 runs. Bytes may differ; tau stays within the bound.
_AVX2_HOST = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
              "OPENBLAS_CORETYPE": "Haswell"}

_x86_only = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                               reason="the kernel switches are x86-64 ones")


def _assert_tau_agrees_on_an_avx2_host(ds, feats, out):
    _run_child(_MAIN, "extract", "--data", ds, "--out", out, env=_AVX2_HOST)
    native, other = read_features_csv(feats), read_features_csv(out)
    assert [fv.patch_id for fv in other] == [fv.patch_id for fv in native]
    for a, b in zip(native, other):
        assert np.abs(a.tau - b.tau).max() <= CROSS_HOST_TAU_BOUND[a.frequency], a.patch_id


@_x86_only
def test_extract_tau_agrees_across_x86_kernels(pipeline, tmp_path):
    _, _, ds, feats = pipeline
    _assert_tau_agrees_on_an_avx2_host(ds, feats, tmp_path / "f.csv")


@_x86_only
def test_extract_tau_agrees_across_x86_kernels_at_q30_and_q40(tmp_path):
    config = tmp_path / "gen.cfg"
    config.write_text(CONFIG_TEXT.replace("m=31\nfrequencies=8", "m=91\nfrequencies=16,64"))
    ds, feats = tmp_path / "ds", tmp_path / "features.csv"
    assert cli.main(["generate", "--config", str(config), "--seed", "3", "--out", str(ds)]) == 0
    assert cli.main(["extract", "--data", str(ds), "--out", str(feats)]) == 0
    assert {fv.frequency for fv in read_features_csv(feats)} == {16.0, 64.0}
    _assert_tau_agrees_on_an_avx2_host(ds, feats, tmp_path / "f.csv")
