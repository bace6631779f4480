"""Traced edfdetect command: spans around every public module call.

    python3 perfbench/tracing.py SPANS.json -- <edfdetect arguments>

runs one CLI command in this interpreter, with `cli.main` called in-process
and every public edfdetect function replaced, in each module namespace it
is looked up from, by a wrapper that records a span. A span is
[name, start, end, parent index]; names are "<module>.<function>" of the
module that defines the function, so `metrics.classify_batch` and
`cli.classify_batch` both record "classifier.classify_batch". Spans and
counters stay in memory and are written to SPANS.json when the command
ends. Calls made inside process-pool workers are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("cli", "synth", "features", "splinefit", "classifier", "metrics")


class Tracer:
    """In-memory spans with parent links, plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result
        return traced

    def dump(self, path: str | Path, exit_code: int) -> None:
        Path(path).write_text(json.dumps(
            {"exit_code": exit_code, "spans": self.spans, "counts": self.counts}))


def _after_classify_batch(counts, args, posts) -> None:
    counts["classifier.queries"] += len(posts)
    counts["classifier.distance_pairs"] += len(posts) * len(args[0].vectors)
    for post in posts:
        counts["classifier.zero_distance_queries"] += bool(
            np.isneginf(post.log_distances).any())
        counts["classifier.underflow_probs"] += int(
            ((post.probabilities == 0.0) & np.isfinite(post.log_probabilities)).sum())


def _after_write_pgm(counts, args, _) -> None:
    counts["synth.bytes_written"] += os.path.getsize(args[1])


def _after_read_pgm(counts, args, _) -> None:
    counts["synth.bytes_read"] += os.path.getsize(args[0])


def _counters(lambda_grid) -> dict:
    """Counters taken at the call boundary, keyed by span name."""
    lo, hi = lambda_grid[1], lambda_grid[-2]

    def after_select_lambda(counts, args, fit) -> None:
        # within one grid step of either end of the selection grid
        if fit.lam <= lo or fit.lam >= hi:
            counts["splinefit.edge_bracket_rows"] += 1

    return {
        "splinefit.select_lambda": after_select_lambda,
        "classifier.classify_batch": _after_classify_batch,
        "synth.write_patch_pgm": _after_write_pgm,
        "synth.read_patch_pgm": _after_read_pgm,
    }


def install(tracer: Tracer, modules, lambda_grid) -> None:
    """Wrap every public edfdetect function bound in the given namespaces."""
    after = _counters(lambda_grid)
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("edfdetect.")):
                continue
            if obj not in wrappers:
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                wrappers[obj] = tracer.wrap(obj, name, after.get(name))
            setattr(module, attr, wrappers[obj])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <edfdetect arguments>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    modules = [importlib.import_module(f"edfdetect.{name}") for name in LAYERS]
    tracer = Tracer()
    install(tracer, modules, modules[LAYERS.index("splinefit")].LAMBDA_GRID)
    code = 1
    try:
        code = modules[0].main(argv[2:])
    finally:
        tracer.dump(argv[0], code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
