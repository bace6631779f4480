#!/usr/bin/env python3
"""Pipeline benchmark for the edfdetect CLI.

    python3 perfbench/run.py --workload edf-f8 --seed 1 --seconds 30 --trace 0

Drives `generate -> extract -> classify --leave-one-out -> evaluate` as CLI
subprocesses, one command at a time, repeating commands until
--seconds is used up, and checks every output. The last line of standard
output is one JSON object {correct, attempted, failed, metrics}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (see perfbench/README.md for both lists, the workloads and
which layer metric should move which end-to-end metric).

The accuracy metrics come from a dataset rendered at the acceptance-suite
seeds (42 for generation, 7 for evaluation), so they are deterministic; the
timed datasets derive both seeds from --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "report.schema.json"
WORK = ROOT / ".perfbench"

STAGES = ("generate", "extract", "classify", "evaluate")
ACCURACY_GEN_SEED = 42
ACCURACY_EVAL_SEED = 7
PATCH_SIDE = 91
SETUP_REPEATS = 5        # traced run's cli.startup_s samples
DIRECT_PASS_PATCHES = 8
DIRECT_PASS_REPEATS = 3
# Class mixes per channel (defect_free, dirt, crater). The accuracy pass
# uses the plant's 750:230:20 at a tenth and evaluate's default run count;
# the timed commands use each workload's own mix and run count (Workload).
MIX = (75, 23, 2)
TINY_MIX = (4, 2, 2)
TINY_EVAL_RUNS = 10
# "Most" of the traced extract command's wall, for the stress check.
STRESS_MIN_SHARE = 0.5
# Bounded accuracy metrics. The binary mer, fnr, prob_mer and avg_entropy
# are 0 or ~1e-19 for col.std at the accuracy seeds, so they cannot carry a
# relative bound; every binary error is also a 3-class error, so these
# three catch any loss the binary ones would show.
ACCURACY_METRICS = ("mer_multiclass", "prob_mer_multiclass", "avg_entropy_multiclass")

# Nominal probe wall (see probe()): a calibrated wall is the wall the
# command would take on a host that runs the probe in exactly this long.
PROBE_SECONDS = 0.15
# The file each command writes, compared byte for byte across re-runs.
OUTPUTS = {"generate": "data/manifest.csv", "extract": "features.csv",
           "classify": "posteriors.csv", "evaluate": "report.json"}


@dataclass(frozen=True)
class Workload:
    frequency: str
    phases: str
    feature: str
    parallel: bool
    model_q: int | None  # basis dimension built during set-up; None for col.std
    # Class mix of each of the two timing datasets, and evaluate's runs on
    # their merged features: sized so that the commands this workload
    # stresses spend longer than the ~0.55 s interpreter start on their own
    # work, and a run still gets ~5 samples of each command.
    timing_mix: tuple[int, int, int]
    eval_runs: int

    @property
    def channels(self) -> int:
        return len(self.phases.split(","))


WORKLOADS = {
    # Paper's headline path, single-threaded: splinefit does most of the work.
    # 20 patches keep extract at ~1 s of fitting, most of its wall; EDF
    # features cost too much for a reference large enough to load classify
    # (colstd-plant does).
    "edf-f8": Workload("8", "pi", "edf", False, 20, (14, 4, 2), 300),
    # Same kernel at twice the basis size, through extract's process pool.
    "edf-f64-par": Workload("64", "pi", "edf", True, 40, (14, 4, 2), 300),
    # Baseline feature: bypasses splinefit; PGM I/O and the classifier at
    # 4x the reference size dominate. 800 patches per dataset, a fifth of
    # the plant mix; classify and evaluate see 1600.
    "colstd-plant": Workload("8", "0,pi/2,pi,3pi/2", "colstd", False, None,
                             (150, 46, 4), 8),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_command(argv: list[str], log_path: Path) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, max RSS KiB).

    The RSS comes from the child's own rusage, as wait4 reports it.
    """
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


@dataclass
class Tally:
    """Operations (commands and output checks) attempted and failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
        return reason is None


@dataclass
class Sample:
    """One timed command, with the probe walls taken just before and after it."""

    stage: str
    wall: float
    probe_before: float
    probe_after: float

    @property
    def calibrated(self) -> float:
        """Wall in seconds at nominal probe speed (see PROBE_SECONDS)."""
        return self.wall * PROBE_SECONDS / ((self.probe_before + self.probe_after) / 2)


@functools.cache
def _probe_inputs() -> tuple:
    rng = np.random.default_rng(0)
    spd = rng.standard_normal((20, 20))
    return (rng.standard_normal((600, 91)), rng.standard_normal((1400, 91)),
            " ".join(str(v) for v in rng.integers(0, 65536, 120_000)),
            spd @ spd.T + 20 * np.eye(20))


def probe() -> float:
    """Host-speed probe: wall of fixed work in this process, ~0.15 s.

    Interpreter loops, text-to-float parsing, distances and small LAPACK
    solves, the kinds of work the timed commands do, but none of edfdetect,
    so no change to the program can move it. The solves are 20 x 20, like
    the spline kernel's at q = 20, and stay on one thread: a multi-threaded
    OpenBLAS call would wait on the other vCPU and measure its load, not
    this one's speed. On a shared host the speed drifts
    with other tenants; a command's wall divided by the probes around it
    drifts much less.
    """
    from scipy.spatial.distance import cdist

    queries, reference, text, spd = _probe_inputs()
    start = time.perf_counter()
    total = 0
    for k in range(1_000_000):
        total += k
    np.array(text.split(), dtype=float)
    cdist(queries, reference).min(axis=1)
    for _ in range(3000):
        np.linalg.solve(spd, queries[:20, :2])
    return time.perf_counter() - start


@dataclass
class Iteration:
    """One dataset, or merged features, taken through some of the commands;
    later re-runs add walls."""

    gen_seed: int
    eval_seed: int
    out: Path
    mix: tuple[int, int, int]
    eval_runs: int | None           # None: evaluate's default
    ids: list[str] = field(default_factory=list)   # patch ids, manifest order
    argv: dict[str, list[str]] = field(default_factory=dict)
    walls: dict[str, list[float]] = field(default_factory=dict)
    outputs: dict[str, bytes] = field(default_factory=dict)
    rss_kb: int = 0


class Bench:
    def __init__(self, name: str, seed: int, tiny: bool) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.accuracy_mix = TINY_MIX if tiny else MIX
        self.timing_mix = TINY_MIX if tiny else self.workload.timing_mix
        self.eval_runs = TINY_EVAL_RUNS if tiny else self.workload.eval_runs
        self.threads = nproc() if self.workload.parallel else 1
        self.tiny = tiny
        self.tally = Tally()
        self.work = WORK / f"{name}-seed{seed}"
        self.calibrate = False          # bracket timed commands with probes
        self.samples: list[Sample] = []
        self._last_probe: float | None = None   # probe wall after the last command
        self.startup_walls: list[float] = []

    def iteration_seeds(self, i: int) -> tuple[int, int]:
        if i == 0:
            return ACCURACY_GEN_SEED, ACCURACY_EVAL_SEED
        gen, ev = np.random.SeedSequence([self.seed, i]).generate_state(2)
        return int(gen), int(ev)

    def patches(self, mix: tuple[int, int, int]) -> int:
        return sum(mix) * self.workload.channels

    def stage_args(self, stage: str, it: Iteration) -> list[str]:
        wl, out = self.workload, it.out
        data, feats = out / "data", out / "features.csv"
        if stage == "generate":
            dfree, dirt, crater = it.mix
            return ["generate", "--seed", str(it.gen_seed), "--out", str(data),
                    "--set", f"frequencies={wl.frequency}", "--set", f"phases={wl.phases}",
                    "--set", f"count_defect_free={dfree}", "--set", f"count_dirt={dirt}",
                    "--set", f"count_crater={crater}"]
        if stage == "extract":
            return ["extract", "--data", str(data), "--out", str(feats),
                    "--feature", wl.feature, "--threads", str(self.threads)]
        if stage == "classify":
            return ["classify", "--reference", str(feats), "--queries", str(feats),
                    "--out", str(out / "posteriors.csv"), "--leave-one-out"]
        runs = [] if it.eval_runs is None else ["--runs", str(it.eval_runs)]
        return ["evaluate", "--features", str(feats), "--out", str(out / "report.json"),
                "--seed", str(it.eval_seed), *runs]

    def check_stage(self, stage: str, it: Iteration, i: int) -> None:
        out = it.out
        data = out / "data"
        ids = it.ids
        if stage == "generate":
            manifest = checks.read_manifest(data / "manifest.csv")
            it.ids = [r["patch_id"] for r in manifest]
            labels = Counter(r["label"] for r in manifest)
            want = Counter({label: count * self.workload.channels for label, count
                            in zip(("defect_free", "dirt", "crater"), it.mix)})
            self.tally.record("manifest class counts",
                              None if labels == want else f"{dict(labels)} != {dict(want)}")
            return
        if stage == "extract":
            feats = out / "features.csv"
            self.tally.record("features rows", checks.check_features(feats, ids))
            mid = int(np.random.default_rng([self.seed, i]).integers(1, len(ids) - 1))
            self.tally.record("features re-derivation", checks.check_rederived(
                feats, data, self.workload.feature, [0, mid, len(ids) - 1]))
        elif stage == "classify":
            self.tally.record("posterior rows",
                              checks.check_posteriors(out / "posteriors.csv", ids))
        else:
            self.tally.record("report schema", checks.check_report(out / "report.json", SCHEMA))

    def timed(self, stage: str, argv: list[str], log: Path) -> tuple[float, int, int]:
        """run_command; when calibrating, a probe follows every command."""
        if self.calibrate and self._last_probe is None:
            self._last_probe = probe()
        wall, code, kb = run_command(argv, log)
        if self.calibrate:
            after = probe()
            if code == 0:
                self.samples.append(Sample(stage, wall, self._last_probe, after))
            self._last_probe = after
        return wall, code, kb

    def run_stage(self, it: Iteration, stage: str) -> bool:
        wall, code, kb = self.timed(stage, it.argv[stage], it.out / f"{stage}.log")
        if not self.tally.record(f"{stage} exit code",
                                 None if code == 0 else f"exit {code}, see {it.out}"):
            return False
        it.walls.setdefault(stage, []).append(wall)
        it.rss_kb = max(it.rss_kb, kb)
        return True

    def run_stages(self, it: Iteration, stages: tuple[str, ...], traced: bool, i: int) -> bool:
        """Run and check the given commands on an iteration; False once one fails."""
        for stage in stages:
            if traced:
                prefix = [sys.executable, str(HERE / "tracing.py"),
                          str(it.out / f"{stage}.spans.json"), "--"]
            else:
                prefix = [sys.executable, "-m", "edfdetect"]
            it.argv[stage] = prefix + self.stage_args(stage, it)
            if not self.run_stage(it, stage):
                return False
            it.outputs[stage] = (it.out / OUTPUTS[stage]).read_bytes()
            self.check_stage(stage, it, i)
        return True

    def accuracy_pipeline(self) -> Iteration | None:
        """The accuracy dataset through the four commands, evaluate's default runs."""
        out = self.work / "accuracy"
        it = Iteration(*self.iteration_seeds(0), out, self.accuracy_mix, None)
        out.mkdir(parents=True)
        return it if self.run_stages(it, STAGES, False, 0) else None

    def timing_set(self, i: int, out: Path, traced: bool) -> list[Iteration] | None:
        """Timing datasets a and b through generate and extract, then classify and
        evaluate on their features merged: [a, b, merged], or None once a
        command fails. Set i uses the seeds of iterations 2i+1 and 2i+2."""
        shutil.rmtree(out, ignore_errors=True)
        parts = []
        for k, name in enumerate(("a", "b")):
            it = Iteration(*self.iteration_seeds(2 * i + 1 + k), out / name,
                           self.timing_mix, self.eval_runs)
            it.out.mkdir(parents=True)
            if not self.run_stages(it, ("generate", "extract"), traced, 2 * i + 1 + k):
                return None
            parts.append(it)
        merged = Iteration(parts[0].gen_seed, parts[0].eval_seed, out / "merged",
                           self.timing_mix, self.eval_runs)
        merged.out.mkdir(parents=True)
        merged.ids = merge_features([(p.out.name, p.out / "features.csv") for p in parts],
                                    merged.out / "features.csv")
        if not self.run_stages(merged, ("classify", "evaluate"), traced, 2 * i + 1):
            return None
        return parts + [merged]

    def rerun(self, it: Iteration, stage: str) -> bool:
        """Time one more run of a command; its output must not change."""
        if not self.run_stage(it, stage):
            return False
        same = (it.out / OUTPUTS[stage]).read_bytes() == it.outputs[stage]
        return self.tally.record(f"{stage} re-run output", None if same else "changed")

    def fresh_interpreter(self, qs: list[int]) -> bool:
        """Time a fresh interpreter importing edfdetect.cli and building models."""
        code = ("import sys, edfdetect.cli\n"
                "from edfdetect.features import build_spline_model\n"
                f"for q in sys.argv[1:]: build_spline_model({PATCH_SIDE}, int(q)).factorization()\n")
        wall, rc, _ = self.timed("setup", [sys.executable, "-c", code, *map(str, qs)],
                                 self.work / "setup.log")
        if self.tally.record("set-up exit code", None if rc == 0 else f"exit {rc}"):
            self.startup_walls.append(wall)
            return True
        return False


def merge_features(parts: list[tuple[str, Path]], dest: Path) -> list[str]:
    """Concatenate features CSVs, prefixing each patch id with its part's
    name so ids stay unique; returns the merged ids in order."""
    header, ids, lines = None, [], []
    for name, path in parts:
        first, *rows = path.read_text().splitlines()
        header = header or first
        for row in rows:
            if row:
                lines.append(f"{name}-{row}")
                ids.append(lines[-1].split(",", 1)[0])
    dest.write_text("\n".join([header] + lines) + "\n")
    return ids


def _median(values):
    return statistics.median(values) if values else None


def _percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """An untimed accuracy pass, then timed commands for --seconds.

    The accuracy pass takes the plant-mix dataset at the accuracy seeds
    through the checked pipeline. The window then starts: one set-up sample,
    a checked timing set (Bench.timing_set) whose seeds derive from --seed,
    and re-runs until --seconds is used up, each time of the command (or
    set-up) with the fewest samples that still fits; generate and extract
    alternate between datasets a and b. Every timing is the median over its
    samples of the calibrated wall.
    """
    models = [bench.workload.model_q] if bench.workload.model_q else []
    accuracy = bench.accuracy_pipeline()
    bench.calibrate = True
    start = time.perf_counter()
    ok = bench.fresh_interpreter(models)
    parts = bench.timing_set(0, bench.work / "timed", False)

    def samples(stage: str) -> list[Sample]:
        return [x for x in bench.samples if x.stage == stage]

    def cost(stage: str) -> float:
        return max((x.wall + x.probe_after for x in samples(stage)), default=0.0)

    while ok and parts is not None and not bench.tally.failures:
        left = seconds - (time.perf_counter() - start)
        fits = [st for st in ("setup",) + STAGES if cost(st) <= left]
        if not fits:
            break
        stage = min(fits, key=lambda st: len(samples(st)))
        if stage == "setup":
            ok = bench.fresh_interpreter(models)
        elif stage in ("generate", "extract"):
            ok = bench.rerun(parts[len(samples(stage)) % 2], stage)
        else:
            ok = bench.rerun(parts[2], stage)

    done = (ok and accuracy is not None and parts is not None
            and all(samples(st) for st in ("setup",) + STAGES))

    def wall(stage: str):
        return statistics.median(x.calibrated for x in samples(stage)) if done else None

    def rate(stage: str, items: float):
        return items / wall(stage) if done else None

    n = bench.patches(bench.timing_mix)
    metrics = {
        "setup_s": (wall("setup"), "s"),
        "generate_patches_per_s": (rate("generate", n), "patches/s"),
        "extract_patches_per_s": (rate("extract", n), "patches/s"),
        "classify_queries_per_s": (rate("classify", 2 * n), "queries/s"),
        "evaluate_runs_per_s": (rate("evaluate", bench.eval_runs), "runs/s"),
        # from nothing to a report: both datasets rendered and extracted
        "pipeline_s": (2 * wall("generate") + 2 * wall("extract") + wall("classify")
                       + wall("evaluate") if done else None, "s"),
        "peak_rss_mb": (max(it.rss_kb for it in [accuracy] + parts) / 1024
                        if done else None, "MB"),
    }
    report = json.loads(accuracy.outputs["evaluate"]) if done else None
    for name in ACCURACY_METRICS:
        metrics[name] = (report["metrics"][name]["mean"] if report else None, "rate")
    facts = {
        "accuracy_report_means": {k: v["mean"] for k, v in report["metrics"].items()}
        if report else None,
        "raw_median_walls_s": {st: _median([x.wall for x in samples(st)])
                               for st in ("setup",) + STAGES},
        "samples": [[x.stage, x.wall, x.probe_before, x.probe_after] for x in bench.samples],
        "iterations": [{"name": it.out.name, "gen_seed": it.gen_seed, "eval_seed": it.eval_seed,
                        "patches": len(it.ids), "eval_runs": it.eval_runs,
                        "max_rss_kib": it.rss_kb}
                       for it in [accuracy] + (parts or []) if it is not None],
    }
    return metrics, facts


def splinefit_rows_per_s(data: Path) -> float:
    """Direct pass: select_lambda on every row of a fixed patch sample."""
    from edfdetect import errors, features, splinefit, synth

    sample = []
    for entry in checks.read_manifest(data / "manifest.csv")[:DIRECT_PASS_PATCHES]:
        pixels, _, _ = synth.read_patch_pgm(data / entry["file"])
        patch = features.Patch(pixels=pixels, frequency=float(entry["f"]),
                               phase=float(entry["psi"]))
        q = min(features.q_for_frequency(patch.frequency), patch.side)
        model = splinefit.build_spline_model(patch.side, q)
        model.factorization()
        sample.append((model, features.standardize_patch(patch).pixels))
    rates = []
    for _ in range(DIRECT_PASS_REPEATS):
        rows = 0
        start = time.perf_counter()
        for model, pixels in sample:
            for row in pixels:
                try:
                    splinefit.select_lambda(model, row)
                except errors.DegenerateGcvError:
                    pass
                rows += 1
        rates.append(rows / (time.perf_counter() - start))
    return statistics.median(rates)


def layer_metrics(traces: list[dict[str, list[dict]]],
                  extract_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from the traced timing sets.

    Each trace maps a command to the span files of its runs in one set.
    Times and counts are per timing set (means over sets); percentiles pool
    the samples of all sets. extract_wall is the traced extract commands'
    wall per set, start-up included: the stress-check shares are taken of it.
    """
    n = max(len(traces), 1)
    total: Counter = Counter()      # (stage, span name) -> seconds
    calls: Counter = Counter()      # (stage, span name) -> calls
    self_s: Counter = Counter()     # (stage, span name) -> self seconds
    splinefit_top: Counter = Counter()  # stage -> seconds under outermost splinefit spans
    counts: Counter = Counter()
    samples = defaultdict(list)
    for trace in traces:
        for stage, data in ((st, d) for st, ds in trace.items() for d in ds):
            spans = data["spans"]
            child = [0.0] * len(spans)
            for _, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for k, (name, start, end, parent) in enumerate(spans):
                dur = end - start
                total[stage, name] += dur
                calls[stage, name] += 1
                self_s[stage, name] += dur - child[k]
                samples[name].append(dur)
                outer = parent < 0 or not spans[parent][0].startswith("splinefit.")
                if name.startswith("splinefit.") and outer:
                    splinefit_top[stage] += dur
            counts.update(data["counts"])

    def t(name: str, stage: str | None = None) -> tuple[float, str]:
        stages = [stage] if stage else STAGES
        return sum(total[s, name] for s in stages) / n, "s"

    def c(name: str, stage: str | None = None) -> tuple[float, str]:
        stages = [stage] if stage else STAGES
        return sum(calls[s, name] for s in stages) / n, "count"

    def counter(name: str, unit: str = "count") -> tuple[float, str]:
        return counts[name] / n, unit

    def pct(name: str, q: int, scale: float, unit: str) -> tuple[float, str]:
        return scale * _percentile(samples[name], q), unit

    def share(part: float, whole: float) -> tuple[float, str]:
        return (part / whole if whole > 0 else 0.0), "fraction"

    runs = c("metrics.evaluate_single_run")[0]
    m = {
        "synth.generate_dataset.s": t("synth.generate_dataset"),
        "synth.render.s": (t("synth.render_clean_patch")[0] + t("synth.inject_defect")[0], "s"),
        "synth.write_patch_pgm.s": t("synth.write_patch_pgm"),
        "synth.read_patch_pgm.s": t("synth.read_patch_pgm"),
        "synth.load_dataset.s": t("synth.load_dataset"),
        "synth.bytes_written": counter("synth.bytes_written", "B"),
        "synth.bytes_read": counter("synth.bytes_read", "B"),
        "features.extract_edf_features.s": t("features.extract_edf_features"),
        "features.extract_edf_features.count": c("features.extract_edf_features"),
        "features.extract_edf_features.p50_ms":
            pct("features.extract_edf_features", 50, 1e3, "ms"),
        "features.extract_edf_features.p99_ms":
            pct("features.extract_edf_features", 99, 1e3, "ms"),
        "features.extract_edf_features.self_s":
            (sum(self_s[s, "features.extract_edf_features"] for s in STAGES) / n, "s"),
        "features.standardize_patch.s": t("features.standardize_patch"),
        "features.colstd_features.s": t("features.colstd_features"),
        "features.write_features_csv.s": t("features.write_features_csv"),
        "features.read_features_csv.s": t("features.read_features_csv"),
        # looked up from features (model cache), defined in splinefit
        "features.build_spline_model.s": t("splinefit.build_spline_model"),
        "splinefit.s": (sum(splinefit_top.values()) / n, "s"),
        "splinefit.select_lambda.calls": c("splinefit.select_lambda"),
        "splinefit.select_lambda.s": t("splinefit.select_lambda"),
        "splinefit.select_lambda.p50_us": pct("splinefit.select_lambda", 50, 1e6, "us"),
        "splinefit.select_lambda.p99_us": pct("splinefit.select_lambda", 99, 1e6, "us"),
        "splinefit.degenerate_rows": counter("splinefit.select_lambda!DegenerateGcvError"),
        "splinefit.edge_bracket_rows": counter("splinefit.edge_bracket_rows"),
        "classifier.build_reference.s": t("classifier.build_reference"),
        "classifier.classify_batch.s": t("classifier.classify_batch"),
        "classifier.load_reference_csv.s": t("classifier.load_reference_csv"),
        "classifier.write_posteriors_csv.s": t("classifier.write_posteriors_csv"),
        "classifier.queries": counter("classifier.queries"),
        "classifier.distance_pairs": counter("classifier.distance_pairs"),
        "classifier.zero_distance_queries": counter("classifier.zero_distance_queries"),
        "classifier.underflow_probs": counter("classifier.underflow_probs"),
        "metrics.repeated_evaluation.s": t("metrics.repeated_evaluation"),
        "metrics.evaluate_single_run.s":
            (t("metrics.evaluate_single_run")[0] / runs if runs else 0.0, "s"),
        "metrics.evaluate_single_run.calls": (runs, "count"),
        "metrics.classify_share": share(t("classifier.classify_batch", "evaluate")[0],
                                        t("metrics.evaluate_single_run")[0]),
        "metrics.stratified_split.calls": c("metrics.stratified_split", "evaluate"),
        "metrics.merge_defect_classes.s": t("metrics.merge_defect_classes"),
        "check.extract_splinefit_share": share(splinefit_top["extract"] / n, extract_wall),
        "check.extract_read_pgm_share": share(t("synth.read_patch_pgm", "extract")[0],
                                              extract_wall),
    }
    for stage in STAGES:
        cli_self = sum(v for (s, name), v in self_s.items()
                       if s == stage and name.startswith("cli."))
        m[f"cli.{stage}.self_s"] = (cli_self / n, "s")
    return m


def stress_check(bench: Bench, m: dict[str, tuple[float, str]]) -> None:
    """Each workload stresses what it claims, in the traced extract command's
    whole wall; prints the shares."""
    fit, pgm = m["check.extract_splinefit_share"][0], m["check.extract_read_pgm_share"][0]
    print(f"stress {bench.name}: splinefit covers {fit:.3f} and read_patch_pgm "
          f"{pgm:.3f} of the extract command's wall")
    if bench.tiny:
        # --tiny datasets are start-up-bound by design; the shares are
        # checked at the workloads' own sizes only.
        return
    if bench.name == "edf-f8":
        bench.tally.record("splinefit share of extract",
                           None if fit >= STRESS_MIN_SHARE else f"{fit:.3f} < {STRESS_MIN_SHARE}")
    elif bench.name == "colstd-plant":
        bench.tally.record("splinefit share of extract",
                           None if fit == 0.0 else f"{fit:.3f} > 0")
        bench.tally.record("read_patch_pgm share of extract",
                           None if pgm >= STRESS_MIN_SHARE else f"{pgm:.3f} < {STRESS_MIN_SHARE}")


def traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced timing sets on the timed commands' inputs, alternating order."""
    for _ in range(SETUP_REPEATS):
        bench.fresh_interpreter([])
    traces, overheads, extract_walls = [], [], []
    rows_per_s = []
    in_main: Counter = Counter()        # command -> seconds inside cli.main
    traced_wall: Counter = Counter()    # command -> traced subprocess seconds

    def body(i: int) -> None:
        out = bench.work / f"set{i}"
        order = (False, True) if i % 2 == 0 else (True, False)
        runs = {mode: bench.timing_set(i, out / ("traced" if mode else "plain"), mode)
                for mode in order}
        plain, trace = runs[False], runs[True]
        if plain is None or trace is None:
            return
        differ = [f"{t.out.name}/{OUTPUTS[st]}" for p, t in zip(plain, trace) for st in t.walls
                  if (p.out / OUTPUTS[st]).read_bytes() != (t.out / OUTPUTS[st]).read_bytes()]
        bench.tally.record("traced outputs equal untraced",
                           f"{differ} differ" if differ else None)
        spans: dict[str, list] = defaultdict(list)
        for t in trace:
            for st in t.walls:
                data = json.loads((t.out / f"{st}.spans.json").read_text())
                spans[st].append(data)
                in_main[st] += sum(e - b for name, b, e, parent in data["spans"]
                                   if name == "cli.main" and parent < 0)
                traced_wall[st] += t.walls[st][0]
        traces.append(spans)
        overheads.append(sum(t.walls[st][0] - p.walls[st][0]
                             for p, t in zip(plain, trace) for st in t.walls))
        extract_walls.append(sum(t.walls["extract"][0] for t in trace[:2]))
        if i == 0:
            rows_per_s.append(splinefit_rows_per_s(plain[0].out / "data"))
        shutil.rmtree(out)

    start = time.perf_counter()
    i = 0
    while True:  # stop when the mean timing set no longer fits
        body(i)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > seconds:
            break
    layer = layer_metrics(traces, statistics.fmean(extract_walls) if extract_walls else 0.0)
    stress_check(bench, layer)
    # share of each command's wall past interpreter start and imports
    work_share = {st: in_main[st] / traced_wall[st] for st in STAGES if traced_wall[st]}
    print("work share " + json.dumps({st: round(v, 3) for st, v in work_share.items()}))
    layer["cli.startup_s"] = (_median(bench.startup_walls), "s")
    layer["trace.overhead_s"] = (_median(overheads), "s")
    layer["splinefit.rows_per_s"] = (rows_per_s[0] if rows_per_s else None, "rows/s")
    metrics = dict(sorted(layer.items()))
    return metrics, {"work_share": work_share,
                     "startup_walls_s": bench.startup_walls, "overheads_s": overheads,
                     "traced_extract_walls_s": extract_walls, "traced_sets": len(traces)}


def host_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        if Path(top[0]).resolve() == ROOT:
            commit = top[1]
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    return {
        "nproc": nproc(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"class mix {TINY_MIX} per channel for every dataset (tests)")
    args = parser.parse_args(argv)

    if not (SRC / "edfdetect" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"perfbench: no edfdetect sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed, args.tiny)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    measure = traced if args.trace else end_to_end
    metrics, facts = measure(bench, args.seconds)

    failed = len(bench.tally.failures)
    attempted = max(bench.tally.attempted, 1)
    for failure in bench.tally.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value if value is None else format(value, '.6g'):>12} {unit}")
    print(f"{'failed_frac':42s} {failed / attempted:>12.6g} fraction")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "patches": {"accuracy": bench.patches(bench.accuracy_mix),
                    "timing": bench.patches(bench.timing_mix),
                    "merged": 2 * bench.patches(bench.timing_mix)},
        "extract_threads": bench.threads, "failures": bench.tally.failures,
        "host": host_facts(), **facts,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("run " + json.dumps({k: record[k] for k in (
        "workload", "seed", "patches", "extract_threads", "host")}))
    correct = failed == 0 and all(v is not None for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    if correct:
        shutil.rmtree(bench.work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
