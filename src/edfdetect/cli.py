"""Command-line pipeline: generate, extract, classify, evaluate.

Every command is deterministic given its inputs and --seed, writes only
under --out, and exits with 0 on success, 2 on usage errors, 3 on data or
config errors, and 4 on numeric failures. Failures print one
machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

# Only what every command runs is imported here; each command imports the
# rest of the package itself, so it loads only the modules it needs.
from . import features as feat
from .errors import ConfigError, DataError, NumericError

EXIT_DATA_ERROR = 3
EXIT_NUMERIC_ERROR = 4
# Most runs evaluate takes: each run is a split and a distance pass and adds
# ~0.6 kB to the report, so a million is hours on a plant-size feature set.
# A larger count is refused before generate_state allocates 4 bytes a run.
MAX_RUNS = 10**6


def derive_run_seeds(seed: int, n_runs: int) -> list[int]:
    """Per-run split seeds derived deterministically from the base seed."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not 1 <= n_runs <= MAX_RUNS:
        raise ConfigError(f"runs must be in [1, {MAX_RUNS}], got {n_runs}")
    state = np.random.SeedSequence(seed).generate_state(n_runs)
    return [int(v) for v in state]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _config_values(path: str | None) -> dict[str, tuple[str, str]]:
    if not path:
        return {}
    return feat.parse_key_values(feat.read_utf8(path, ConfigError).splitlines(), path)


def cmd_generate(args) -> int:
    from . import synth

    # --config values, then --set values on top; validated once, after both
    values = _config_values(args.config)
    values.update(feat.parse_key_values(args.set or [], "--set"))
    cfg = synth.generation_config(values)
    manifest = synth.generate_dataset(cfg, seed=args.seed, out_dir=args.out)
    print(manifest)
    return 0


def _out_file(out: str, suffix: str = "") -> Path:
    """The file a command writes for --out (given suffix, if any), its parent
    directory made; checked before any input is read, so a path that names no
    file ("", ".", "/", "..") or an existing directory is refused early."""
    path = Path(out)
    if path.name in ("", ".."):
        raise ConfigError(f"--out must name a file, got {out!r}")
    if suffix:
        path = path.with_suffix(suffix)
    if path.is_dir():
        raise ConfigError(f"--out must name a file, got {out!r}: "
                          f"{str(path)!r} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_extract(args) -> int:
    from . import synth

    out = _out_file(args.out)
    if args.q is not None:
        if args.feature == "colstd":
            raise ConfigError("--q sets the EDF basis dimension; "
                              "--feature colstd takes no --q")
        if args.q < 4:
            raise ConfigError(f"--q must be >= 4, got {args.q}")
    manifest = Path(args.data)
    if manifest.is_dir():
        manifest = manifest / "manifest.csv"
    patches = synth.load_dataset(manifest)
    if not patches:
        raise DataError(f"{manifest}: empty dataset")
    extract = (feat.colstd_features if args.feature == "colstd"
               else functools.partial(feat.extract_edf_features, q=args.q))
    # the pool forks all its workers up front, so never more than can do work
    workers = min(args.threads, len(patches), usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            vectors = list(pool.map(extract, patches, chunksize=8))
    else:
        vectors = list(map(extract, patches))
    feat.write_features_csv(vectors, out)
    print(args.out)
    return 0


def cmd_classify(args) -> int:
    from .classifier import classify_batch, load_reference_csv, write_posteriors_csv

    out = _out_file(args.out)
    rows = feat.read_features_csv(args.reference)
    ref = load_reference_csv(args.reference, rows)
    same_file = Path(args.queries).resolve() == Path(args.reference).resolve()
    queries = rows if same_file else feat.read_features_csv(args.queries)
    posts = classify_batch(ref, queries, leave_one_out=args.leave_one_out)
    write_posteriors_csv(posts, ref.classes, out)
    print(args.out)
    return 0


# Evaluate's settings: config key and flag dest -> parser of the value text.
_EVALUATE_KEYS = {"train_frac": float, "runs": int, "seed": int,
                  "merge": lambda text: {c for c in map(str.strip, text.split(",")) if c}}


def _evaluate_params(args) -> dict:
    """Defaults, then evaluate's config file, then the flags given on top."""
    params = {"train_frac": 0.7, "runs": 10, "merge": {"crater", "dirt"}, "seed": None}
    params.update(feat.typed_values(_config_values(args.config), _EVALUATE_KEYS))
    params.update((key, getattr(args, key)) for key in _EVALUATE_KEYS
                  if getattr(args, key) is not None)
    if params["seed"] is None:
        raise ConfigError("evaluate needs a seed (--seed or config key)")
    return params


def cmd_evaluate(args) -> int:
    from . import metrics as met

    json_path, csv_path = _out_file(args.out, ".json"), _out_file(args.out, ".csv")
    vectors = [fv for fv in feat.read_features_csv(args.features) if fv.label]
    if not vectors:
        raise DataError(f"{args.features}: no labeled feature vectors")
    params = _evaluate_params(args)
    seeds = derive_run_seeds(params["seed"], params["runs"])
    report = met.repeated_evaluation(vectors, seeds=seeds,
                                     train_fraction=params["train_frac"],
                                     defect_classes=params["merge"])
    report.write_json(json_path)
    report.write_csv(csv_path)
    print(json_path)
    return 0


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edfdetect",
        description="Defect detection on fringe patches via spline-smoothness "
                    "features and a probabilistic nearest-neighbour classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="render a synthetic labeled dataset")
    gen.add_argument("--config", help="flat key=value generation config file")
    gen.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable, wins over --config)")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.set_defaults(func=cmd_generate)

    ext = sub.add_parser("extract", help="extract feature vectors from a dataset")
    ext.add_argument("--data", required=True,
                     help="dataset directory or manifest.csv path")
    ext.add_argument("--out", required=True, help="output features CSV")
    ext.add_argument("--feature", choices=("edf", "colstd"), default="edf")
    ext.add_argument("--q", type=int, default=None,
                     help="override the EDF basis dimension, >= 4 (default: by frequency)")
    ext.add_argument("--threads", type=_at_least_one, default=1,
                     help="worker processes, at most one per CPU and per patch")
    ext.set_defaults(func=cmd_extract)

    cls = sub.add_parser("classify", help="classify query features against a reference")
    cls.add_argument("--reference", required=True, help="labeled features CSV")
    cls.add_argument("--queries", required=True, help="query features CSV")
    cls.add_argument("--out", required=True, help="output posteriors CSV")
    cls.add_argument("--leave-one-out", action="store_true",
                     help="exclude reference points sharing the query's patch_id")
    cls.set_defaults(func=cmd_classify)

    ev = sub.add_parser("evaluate", help="repeated stratified split evaluation")
    ev.add_argument("--features", required=True, help="labeled features CSV")
    ev.add_argument("--out", required=True, help="output report path (.json)")
    ev.add_argument("--config", help="key=value file: train_frac, runs, merge, seed")
    ev.add_argument("--train-frac", dest="train_frac", type=_EVALUATE_KEYS["train_frac"],
                    help="training fraction (default 0.7)")
    ev.add_argument("--runs", type=_EVALUATE_KEYS["runs"],
                    help="number of stratified runs (default 10)")
    ev.add_argument("--merge", type=_EVALUATE_KEYS["merge"],
                    help="comma-separated classes merged into 'defect' "
                         "(default crater,dirt)")
    ev.add_argument("--seed", type=_EVALUATE_KEYS["seed"])
    ev.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        _emit_error(EXIT_NUMERIC_ERROR, exc)
        return EXIT_NUMERIC_ERROR
    except (DataError, OSError) as exc:
        _emit_error(EXIT_DATA_ERROR, exc)
        return EXIT_DATA_ERROR


def _emit_error(code: int, exc: Exception) -> None:
    line = json.dumps({"exit_code": code, "error": type(exc).__name__,
                       "message": str(exc)})
    print(f"ERROR {line}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
