"""Command-line pipeline: generate, extract, classify, evaluate.

Every command is deterministic given its inputs and --seed, writes only
under --out, and exits with 0 on success, 2 on usage errors, 3 on data or
config errors, and 4 on numeric failures. Failures print one
machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import features as feat
from . import metrics as met
from . import synth
from .classifier import classify_batch, load_reference_csv, write_posteriors_csv
from .errors import ConfigError, DataError, NumericError

EXIT_DATA_ERROR = 3
EXIT_NUMERIC_ERROR = 4


def derive_run_seeds(seed: int, n_runs: int) -> list[int]:
    """Per-run split seeds derived deterministically from the base seed."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_runs < 1:
        raise ConfigError(f"runs must be >= 1, got {n_runs}")
    state = np.random.SeedSequence(seed).generate_state(n_runs)
    return [int(v) for v in state]


def _config_values(path: str | None) -> dict[str, tuple[str, str]]:
    if not path:
        return {}
    return synth.parse_key_values(feat.read_utf8(path, ConfigError).splitlines(), path)


def _load_config(args) -> synth.GenerationConfig:
    """--config values, then --set values on top; validated once, after both."""
    values = _config_values(args.config)
    values.update(synth.parse_key_values(args.set or [], "--set"))
    return synth.generation_config(values)


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    manifest = synth.generate_dataset(cfg, seed=args.seed, out_dir=args.out)
    print(manifest)
    return 0


def _extract_one(job):
    patch, feature_kind, q = job
    if feature_kind == "colstd":
        return feat.colstd_features(patch)
    return feat.extract_edf_features(patch, q=q)


def cmd_extract(args) -> int:
    manifest = Path(args.data)
    if manifest.is_dir():
        manifest = manifest / "manifest.csv"
    patches = synth.load_dataset(manifest, transpose=args.transpose)
    if not patches:
        raise DataError(f"{manifest}: empty dataset")
    jobs = [(p, args.feature, args.q) for p in patches]
    if args.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            vectors = list(pool.map(_extract_one, jobs, chunksize=8))
    else:
        vectors = [_extract_one(job) for job in jobs]
    feat.write_features_csv(vectors, args.out)
    print(args.out)
    return 0


def cmd_classify(args) -> int:
    rows = feat.read_features_csv(args.reference)
    ref = load_reference_csv(args.reference, rows)
    same_file = Path(args.queries).resolve() == Path(args.reference).resolve()
    queries = rows if same_file else feat.read_features_csv(args.queries)
    posts = classify_batch(ref, queries, leave_one_out=args.leave_one_out)
    write_posteriors_csv(posts, ref.classes, args.out)
    print(args.out)
    return 0


# Evaluate's settings: config key and flag dest -> parser of the value text.
_EVALUATE_KEYS = {"train_frac": float, "runs": int, "seed": int,
                  "merge": lambda text: {c for c in map(str.strip, text.split(",")) if c}}


def _evaluate_params(args) -> dict:
    """Defaults, then evaluate's config file, then the flags given on top."""
    params = {"train_frac": 0.7, "runs": 10, "merge": {"crater", "dirt"}, "seed": None}
    params.update(synth.typed_values(_config_values(args.config), _EVALUATE_KEYS))
    params.update((key, getattr(args, key)) for key in _EVALUATE_KEYS
                  if getattr(args, key) is not None)
    if params["seed"] is None:
        raise ConfigError("evaluate needs a seed (--seed or config key)")
    return params


def cmd_evaluate(args) -> int:
    vectors = [fv for fv in feat.read_features_csv(args.features) if fv.label]
    if not vectors:
        raise DataError(f"{args.features}: no labeled feature vectors")
    params = _evaluate_params(args)
    seeds = derive_run_seeds(params["seed"], params["runs"])
    report = met.repeated_evaluation(vectors, seeds=seeds,
                                     train_fraction=params["train_frac"],
                                     defect_classes=params["merge"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    json_path = out.with_suffix(".json") if out.suffix != ".json" else out
    report.write_json(json_path)
    report.write_csv(json_path.with_suffix(".csv"))
    print(json_path)
    return 0


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
                     help="override the basis dimension (default: by frequency)")
    ext.add_argument("--transpose", action="store_true",
                     help="transpose patches on load (fringes along columns)")
    ext.add_argument("--threads", type=int, default=1)
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
