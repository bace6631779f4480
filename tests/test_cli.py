"""End-to-end CLI runs on a small dataset, exit codes, determinism."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import edfdetect.classifier as classifier
import edfdetect.cli as cli
from edfdetect.errors import DegenerateGcvError
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


def test_extract_transpose_flag(pipeline):
    root, _, ds, feats = pipeline
    out = root / "features_t.csv"
    assert cli.main(["extract", "--data", str(ds), "--out", str(out),
                     "--transpose"]) == 0
    # fringes run along rows, so transposed patches smooth differently
    assert out.read_bytes() != feats.read_bytes()


def test_extract_threads_match_serial(pipeline):
    root, _, ds, feats = pipeline
    out = root / "features_mt.csv"
    assert cli.main(["extract", "--data", str(ds), "--out", str(out),
                     "--threads", "2"]) == 0
    assert out.read_bytes() == feats.read_bytes()


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
                                           (3, ""), (5, "nan?")])
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
    "offset=1e308", "amplitude=0", "noise_sigma=-1"])
def test_bad_generation_value_is_config_error(tmp_path, capsys, setting):
    ds = tmp_path / "ds"
    rc = cli.main(["generate", "--seed", "1", "--out", str(ds), *TINY,
                   "--set", setting])
    assert rc == 3
    assert _one_error_line(capsys)["error"] == "ConfigError"
    assert not ds.exists()


def test_negative_generate_seed_is_config_error(tmp_path, capsys):
    rc = cli.main(["generate", "--seed", "-1", "--out", str(tmp_path / "ds"), *TINY])
    assert rc == 3
    assert "seed" in _one_error_line(capsys)["message"]


@pytest.mark.parametrize("flags, config", [
    (["--seed", "-1"], None),
    (["--seed", "3", "--runs", "-1"], None),
    ([], "seed=-1\n"),
    ([], "runs=-2\nseed=3\n"),
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


_FOOTPRINT = """\
import sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
import edfdetect.cli as cli
assert scipy_modules() == [], scipy_modules()
root = sys.argv[1]
assert cli.main(["generate", "--seed", "1", "--out", root + "/ds", "--set", "m=31",
                 "--set", "count_defect_free=2", "--set", "count_dirt=2",
                 "--set", "count_crater=2"]) == 0
assert cli.main(["extract", "--data", root + "/ds", "--out", root + "/f.csv",
                 "--feature", "colstd"]) == 0
assert scipy_modules() == [], scipy_modules()
from edfdetect.splinefit import build_spline_model
build_spline_model(91, 20).factorization()
assert "scipy.linalg" in sys.modules and "scipy.interpolate" not in sys.modules
"""


def _run_child(script: str, *args) -> None:
    """Run script in a fresh interpreter that imports this edfdetect."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_import_scipy_only_where_they_use_it(tmp_path):
    _run_child(_FOOTPRINT, tmp_path)


_NO_PGM_TABLE = """\
import sys
import edfdetect.cli as cli
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
