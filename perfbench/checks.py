"""Output checks run on every pipeline iteration of the benchmark.

Each check returns None when the output is correct and a one-line reason
when it is not. The checks parse the CLI's files with their own code, not
with edfdetect's readers, so a reader bug cannot hide a writer bug; only
the re-derivation check calls into edfdetect, to recompute features.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# The largest tau is the divisor of the row scaling, so it is exactly 1.0
# today; the tolerance admits a kernel that scales by a reciprocal instead.
TAU_MAX_TOL = 1e-12
# Posterior rows are normalized in log space and written with repr().
POSTERIOR_SUM_TOL = 1e-9
# Re-derived tau against the CLI's CSV, absolute. A batched kernel with a
# different BLAS reduction order drifts by ~1e-13 in tau; a reordered,
# dropped or wrongly attributed patch differs by far more than 1e-9.
REDERIVE_TOL = 1e-9


def read_manifest(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        return [], []
    return rows[0], rows[1:]


def check_features(path: Path, ids: list[str]) -> str | None:
    """Every row finite, tau in [0, 1], max tau = 1, patch order as manifest."""
    header, rows = _rows(path)
    if header[:5] != ["patch_id", "label", "f", "psi", "m"]:
        return f"{path.name}: bad header"
    if [row[0] for row in rows] != ids:
        return f"{path.name}: patch order differs from the manifest"
    for row in rows:
        try:
            m, tau = int(row[4]), [float(v) for v in row[5:]]
        except (ValueError, IndexError):
            return f"{path.name}: malformed row {row[0]}"
        if len(tau) != m or not tau:
            return f"{path.name}: wrong tau count in {row[0]}"
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in tau):
            return f"{path.name}: tau outside [0, 1] in {row[0]}"
        if abs(max(tau) - 1.0) > TAU_MAX_TOL:
            return f"{path.name}: max tau {max(tau)!r} != 1 in {row[0]}"
    return None


def check_posteriors(path: Path, ids: list[str]) -> str | None:
    """Every row sums to 1 within POSTERIOR_SUM_TOL, patch order as manifest."""
    header, rows = _rows(path)
    probs = [i for i, name in enumerate(header) if name.startswith("p_")]
    if header[:3] != ["patch_id", "true_label", "predicted"] or len(probs) < 2:
        return f"{path.name}: bad header"
    if [row[0] for row in rows] != ids:
        return f"{path.name}: patch order differs from the manifest"
    for row in rows:
        try:
            p = [float(row[i]) for i in probs]
        except (ValueError, IndexError):
            return f"{path.name}: malformed row {row[0]}"
        if min(p) < 0.0 or abs(math.fsum(p) - 1.0) > POSTERIOR_SUM_TOL:
            return f"{path.name}: probabilities of {row[0]} sum to {math.fsum(p)!r}"
    return None


def check_report(path: Path, schema_path: Path) -> str | None:
    """The report validates against the repository's report schema."""
    import jsonschema

    try:
        report = json.loads(path.read_text())
        schema = json.loads(schema_path.read_text())
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return f"{path.name}: {str(exc).splitlines()[0]}"
    return None


def check_rederived(features_path: Path, data_dir: Path, feature: str,
                    indices: list[int]) -> str | None:
    """Recompute a few patches in-process; they must match the CLI's CSV.

    This catches a parallel path that reorders, drops or mislabels patches,
    which the order check alone would pass if ids moved with wrong values.
    """
    from edfdetect import features, synth

    manifest = read_manifest(data_dir / "manifest.csv")
    _, rows = _rows(features_path)
    if len(rows) != len(manifest):
        return f"{features_path.name}: {len(rows)} rows for {len(manifest)} patches"
    for i in indices:
        entry = manifest[i]
        pixels, _, _ = synth.read_patch_pgm(data_dir / entry["file"])
        patch = features.Patch(pixels=pixels, frequency=float(entry["f"]),
                               phase=float(entry["psi"]), label=entry["label"],
                               patch_id=entry["patch_id"])
        if feature == "colstd":
            expected = features.colstd_features(patch).tau
        else:
            expected = features.extract_edf_features(patch).tau
        try:
            got = [float(v) for v in rows[i][5:]]
        except ValueError:
            return f"{features_path.name}: malformed row {i}"
        if rows[i][0] != entry["patch_id"] or len(got) != len(expected):
            return f"{features_path.name}: row {i} is not patch {entry['patch_id']}"
        worst = max(abs(a - b) for a, b in zip(got, expected))
        if worst > REDERIVE_TOL:
            return (f"{features_path.name}: patch {entry['patch_id']} differs "
                    f"from its re-derivation by {worst:.3e}")
    return None
