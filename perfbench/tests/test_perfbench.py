"""Tests of the benchmark itself: metric coverage, failure counting, layout.

    python3 -m pytest perfbench/tests -q

Each test runs the benchmark on the tiny class mix, so a pass costs a few
seconds of CLI start-ups rather than a full measuring window.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(run.WORKLOADS)   # edf-f64-par too, though BENCHMARK.json omits it


def _tiny(workload: str, trace: int, seed: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--tiny"]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(BENCHMARK["command"] + _tiny(workload, trace, 9100),
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())
    for metric in declared:
        assert metric["name"] in proc.stdout.split("\n", 1)[-1]


def _corrupt_features(path: Path) -> None:
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[5] = "1.5"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_posteriors(path: Path) -> None:
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) + 0.25)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_report(path: Path) -> None:
    report = json.loads(path.read_text())
    del report["metrics"]["mer"]
    path.write_text(json.dumps(report))


@pytest.mark.parametrize("stage, output, corrupt", [
    ("extract", "features.csv", _corrupt_features),
    ("classify", "posteriors.csv", _corrupt_posteriors),
    ("evaluate", "report.json", _corrupt_report),
])
def test_corrupted_output_raises_failed_frac(monkeypatch, capsys, stage, output, corrupt):
    real = run.run_command

    def corrupting(argv, log_path):
        outcome = real(argv, log_path)
        if stage in argv:
            corrupt(log_path.parent / output)
        return outcome

    monkeypatch.setattr(run, "run_command", corrupting)
    code = run.main(_tiny("edf-f8", 0, 9200))
    out = capsys.readouterr().out
    result = _result(out)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    failed_frac = float(next(line for line in out.splitlines()
                             if line.startswith("failed_frac")).split()[1])
    assert failed_frac > 0
    assert failed_frac == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(BENCHMARK["command"] + _tiny(WORKLOADS[0], 0, 9300),
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_self_time_excludes_child_spans():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["features.extract_edf_features", 1.0, 4.0, 0],
             ["splinefit.select_lambda", 1.5, 3.5, 1],
             ["splinefit.fit_penalized", 2.0, 3.0, 2]]
    trace = {stage: [{"spans": [], "counts": {}}] for stage in run.STAGES}
    trace["extract"] = [{"spans": spans, "counts": {"synth.bytes_read": 7}}]
    m = {name: value for name, (value, _) in run.layer_metrics([trace], 12.5).items()}
    assert m["cli.extract.self_s"] == pytest.approx(7.0)
    assert m["features.extract_edf_features.self_s"] == pytest.approx(1.0)
    assert m["splinefit.s"] == pytest.approx(2.0)          # outermost splinefit span only
    assert m["splinefit.select_lambda.calls"] == 1
    # shares are of the whole extract command's wall, start-up included
    assert m["check.extract_splinefit_share"] == pytest.approx(2.0 / 12.5)
    assert m["synth.bytes_read"] == 7


@pytest.mark.parametrize("workload, splinefit, read_pgm, failures", [
    ("edf-f8", 0.7, 0.0, 0),
    ("edf-f8", 0.3, 0.0, 1),
    ("colstd-plant", 0.0, 0.7, 0),
    ("colstd-plant", 0.0, 0.3, 1),
    ("colstd-plant", 0.1, 0.7, 1),
])
def test_stress_check_needs_most_of_the_extract_wall(workload, splinefit, read_pgm, failures):
    bench = run.Bench(workload, 1, tiny=False)
    run.stress_check(bench, {"check.extract_splinefit_share": (splinefit, "fraction"),
                             "check.extract_read_pgm_share": (read_pgm, "fraction")})
    assert len(bench.tally.failures) == failures
