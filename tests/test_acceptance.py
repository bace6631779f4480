"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 1 and 2 run the full synthetic reproduction (1000 patches per
channel, four channels, 10 stratified runs through the CLI); expect a few
minutes total. The remaining criteria are oracle- and property-based.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.interpolate import BSpline

import edfdetect.cli as cli
from edfdetect.classifier import _min_distances, build_reference, classify_batch
from edfdetect.features import FeatureVector, Patch, extract_edf_features
from edfdetect.metrics import probability_metrics, hard_metrics, stratified_split
from edfdetect.splinefit import build_spline_model, fit_penalized

CHANNELS = (8, 16, 32, 64)

# criterion 1 thresholds (binary view) and criterion 2 (3-class MER)
MER_MAX = 0.02
PROB_MER_MAX = 0.03
FPR_MAX = 0.02
FNR_MAX = 0.05
ENTROPY_MAX = 0.05
MER3_MAX = 0.05


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def channel_reports(tmp_path_factory):
    """generate -> extract -> evaluate per channel, via the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    reports = {}
    for f in CHANNELS:
        ds = root / f"ds{f}"
        feats = root / f"features{f}.csv"
        rep = root / f"report{f}.json"
        assert cli.main(["generate", "--seed", "42", "--out", str(ds),
                         "--set", f"frequencies={f}", "--set", "phases=pi"]) == 0
        # the pool's workers give the serial run's bytes (test_cli checks that)
        assert cli.main(["extract", "--data", str(ds), "--out", str(feats),
                         "--threads", str(cli.usable_cpus())]) == 0
        assert cli.main(["evaluate", "--features", str(feats), "--out",
                         str(rep), "--seed", "7", "--runs", "10",
                         "--train-frac", "0.7", "--merge", "crater,dirt"]) == 0
        reports[f] = json.loads(rep.read_text())
    return reports


@pytest.mark.slow
def test_criterion_1_binary_synthetic_reproduction(channel_reports):
    all_ok = True
    details = []
    for f in CHANNELS:
        m = {k: v["mean"] for k, v in channel_reports[f]["metrics"].items()}
        ok = (m["mer"] <= MER_MAX and m["prob_mer"] <= PROB_MER_MAX
              and m["fpr"] <= FPR_MAX and m["fnr"] <= FNR_MAX
              and m["avg_entropy"] <= ENTROPY_MAX)
        all_ok &= ok
        details.append(f"f={f} mer={m['mer']:.4f} probMER={m['prob_mer']:.4f} "
                       f"fpr={m['fpr']:.4f} fnr={m['fnr']:.4f} "
                       f"H={m['avg_entropy']:.4f}")
    report_line("criterion 1 (binary, 4 channels)", all_ok, "; ".join(details))
    assert all_ok


@pytest.mark.slow
def test_criterion_2_three_class(channel_reports):
    all_ok = True
    details = []
    for f in CHANNELS:
        m = {k: v["mean"] for k, v in channel_reports[f]["metrics"].items()}
        ok = (m["mer_multiclass"] <= MER3_MAX and m["mer"] <= MER_MAX
              and m["fpr"] <= FPR_MAX and m["fnr"] <= FNR_MAX
              and m["prob_mer"] <= PROB_MER_MAX
              and m["avg_entropy"] <= ENTROPY_MAX)
        all_ok &= ok
        details.append(f"f={f} mer3={m['mer_multiclass']:.4f}")
    report_line("criterion 2 (3-class MER + merged binary)", all_ok,
                "; ".join(details))
    assert all_ok


def test_criterion_3_spline_oracles():
    rng = np.random.default_rng(2024)
    worst_beta = worst_trace = 0.0
    for _ in range(50):
        m = int(rng.integers(12, 61))
        q = int(rng.integers(4, min(q_cap(m), 21)))
        lam = float(10.0 ** rng.uniform(-3, 3))
        model = build_spline_model(m, q)
        z = rng.standard_normal(m)
        fit = fit_penalized(model, z, lam)
        a = model.design.T @ model.design + lam * model.penalty
        beta = np.linalg.solve(a, model.design.T @ z)
        hat = model.design @ np.linalg.solve(a, model.design.T)
        worst_beta = max(worst_beta,
                         np.linalg.norm(fit.coefficients - beta)
                         / np.linalg.norm(beta))
        worst_trace = max(worst_trace,
                          abs(fit.edf - np.trace(hat)) / np.trace(hat))

    worst_pen = 0.0
    for m, q in ((30, 12), (45, 9), (60, 16)):
        model = build_spline_model(m, q)
        t = np.linspace(1.0, float(m), 100_000)
        d2 = BSpline(model.knots, np.eye(q), 3)(t, nu=2)
        brute = np.trapezoid(d2[:, :, None] * d2[:, None, :], t, axis=0)
        worst_pen = max(worst_pen,
                        np.abs(model.penalty - brute).max() / np.abs(brute).max())

    ok = worst_beta <= 1e-8 and worst_trace <= 1e-8 and worst_pen <= 1e-6
    report_line("criterion 3 (spline oracles)", ok,
                f"beta rel {worst_beta:.2e}, trace rel {worst_trace:.2e}, "
                f"penalty rel {worst_pen:.2e}")
    assert ok


def q_cap(m):
    return max(5, min(m, 20) + 1)


def test_criterion_4_edf_limit_laws():
    rng = np.random.default_rng(77)
    ok = True
    worst_hi, worst_lo = 2.0, 0.0
    for _ in range(100):
        m = int(rng.integers(10, 80))
        # q < m keeps the GCV denominator alive along the whole ladder
        q = int(rng.integers(4, min(m - 1, 24) + 1))
        model = build_spline_model(m, q)
        z = rng.standard_normal(m)
        hi = fit_penalized(model, z, 1e12).edf
        worst_hi = max(worst_hi, hi)
        ok &= 2.0 <= hi <= 2.001
        lo = fit_penalized(model, z, 0.0).edf
        worst_lo = max(worst_lo, abs(lo - q))
        ok &= abs(lo - q) <= 1e-6
        ladder = np.geomspace(1e-9, 1e9, 20)
        edfs = [fit_penalized(model, z, lam).edf for lam in ladder]
        ok &= all(edfs[i] >= edfs[i + 1] - 1e-10 for i in range(19))
    report_line("criterion 4 (EDF limit laws)", ok,
                f"max edf(1e12)={worst_hi:.6f}, max |edf(0)-q|={worst_lo:.2e}, "
                f"monotone ladders on 100 instances")
    assert ok


def test_criterion_5_posterior_suite():
    rng = np.random.default_rng(5)

    def fv(tau, label):
        tau = np.asarray(tau, dtype=float)
        return FeatureVector(tau=tau, label=label, patch_id="",
                             frequency=8.0, phase=0.0)

    # normalization across dimensions and distance scales
    norm_ok = True
    for dim in (31, 91, 171):
        for _ in range(10):
            d = 10.0 ** rng.uniform(-6, 3, size=3)
            pts = np.zeros((3, dim))
            for j in range(3):
                pts[j, j] = d[j]
            ref = build_reference([fv(pts[0], "a"), fv(pts[1], "b"),
                                   fv(pts[2], "c")])
            p = classify_batch(ref, [fv(np.zeros(dim), None)])[0].probabilities
            norm_ok &= abs(p.sum() - 1.0) <= 1e-12 and (p >= 0).all()

    # hand case: distances (1, 2) in dimension 2 -> (0.8, 0.2)
    ref2 = build_reference([fv([1.0, 0.0], "a"), fv([0.0, 2.0], "b")])
    hand = classify_batch(ref2, [fv(np.zeros(2), None)])[0].probabilities
    hand_ok = np.allclose(hand, [0.8, 0.2], atol=1e-12)

    # uniform tie
    pts = np.eye(3) * 2.5
    ref3 = build_reference([fv(pts[0], "a"), fv(pts[1], "b"), fv(pts[2], "c")])
    tie = classify_batch(ref3, [fv(np.zeros(3), None)])[0]
    tie_ok = (np.allclose(tie.probabilities, 1 / 3, atol=1e-12)
              and abs(tie.entropy - math.log(3)) <= 1e-12)

    # brute-force distance equivalence
    points = rng.standard_normal((150, 9))
    labels = [("a", "b", "c")[i % 3] for i in range(150)]
    refb = build_reference([fv(p, lab) for p, lab in zip(points, labels)])
    brute_ok = True
    for _ in range(20):
        query = rng.standard_normal(9)
        got = _min_distances(refb, query[None, :])[0]
        for j, cls in enumerate(refb.classes):
            brute = min(np.linalg.norm(p - query)
                        for p, lab in zip(points, labels) if lab == cls)
            brute_ok &= abs(got[j] - brute) <= 1e-12

    # extreme-distance stability at dimension 91 vs extended precision
    mpmath.mp.dps = 80
    stab_ok = True
    for _ in range(10):
        d = 10.0 ** rng.uniform(-6, 3, size=2)
        pts = np.zeros((2, 91))
        pts[0, 0], pts[1, 1] = d[0], d[1]
        ref = build_reference([fv(pts[0], "a"), fv(pts[1], "b")])
        post = classify_batch(ref, [fv(np.zeros(91), None)])[0]
        dd = np.exp(post.log_distances)
        exact = [mpmath.mpf(x) ** (-91) for x in dd]
        total = exact[0] + exact[1]
        stab_ok &= bool(np.isfinite(post.probabilities).all()
                        and np.isfinite(post.log_probabilities).all())
        for j in range(2):
            log_exact = float(mpmath.log(exact[j] / total))
            got = float(post.log_probabilities[j])
            stab_ok &= abs(got - log_exact) <= 1e-10 * max(abs(log_exact), 1.0)

    ok = norm_ok and hand_ok and tie_ok and brute_ok and stab_ok
    report_line("criterion 5 (posterior suite)", ok,
                f"norm={norm_ok} hand={hand_ok} tie={tie_ok} brute={brute_ok} "
                f"stability={stab_ok}")
    assert ok


def test_criterion_6_metrics_identities():
    rng = np.random.default_rng(6)
    identity_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 80))
        truth = rng.random(n) < rng.uniform(0.2, 0.8)
        truth[0], truth[1] = True, False
        p1 = rng.random(n)
        mer, fpr, fnr = probability_metrics(list(truth), list(p1))
        n1 = int(truth.sum()); n0 = n - n1
        identity_ok &= abs(mer - (n1 * fnr + n0 * fpr) / n) <= 1e-12

    truth = list(rng.random(120) < 0.4)
    pred = list(rng.random(120) < 0.5)
    degenerate_ok = (hard_metrics(truth, pred)
                     == probability_metrics(truth, [1.0 if q else 0.0 for q in pred]))

    labels = ["defect_free"] * 13827 + ["dirt"] * 4234 + ["crater"] * 372
    train, _ = stratified_split(labels, 0.7, seed=0)
    arr = np.asarray(labels)
    counts = (int(np.sum(arr[train] == "defect_free")),
              int(np.sum(arr[train] == "dirt")),
              int(np.sum(arr[train] == "crater")))
    split_ok = counts == (9679, 2964, 260)

    ok = identity_ok and degenerate_ok and split_ok
    report_line("criterion 6 (metrics identities)", ok,
                f"probMER identity={identity_ok}, degenerate agreement="
                f"{degenerate_ok}, split counts={counts}")
    assert ok


def test_criterion_7_feature_invariance():
    rng = np.random.default_rng(7)
    affine_ok = scale_ok = perm_ok = True
    worst = 0.0
    for i in range(50):
        pixels = rng.standard_normal((31, 31))
        patch = Patch(pixels=pixels, frequency=8.0, phase=0.0, patch_id=f"p{i}")
        fv = extract_edf_features(patch)
        scale_ok &= fv.tau.max() == 1.0

        a = float(rng.uniform(0.2, 5.0))
        b = float(rng.uniform(-10.0, 10.0))
        fv2 = extract_edf_features(Patch(pixels=a * pixels + b, frequency=8.0,
                                         phase=0.0, patch_id=f"p{i}a"))
        diff = np.abs(fv.tau - fv2.tau).max()
        worst = max(worst, diff)
        affine_ok &= diff <= 1e-8

        perm = rng.permutation(31)
        fv3 = extract_edf_features(Patch(pixels=pixels[perm], frequency=8.0,
                                         phase=0.0, patch_id=f"p{i}p"))
        perm_ok &= np.array_equal(fv.tau[perm], fv3.tau)

    ok = affine_ok and scale_ok and perm_ok
    report_line("criterion 7 (feature invariance)", ok,
                f"worst affine diff {worst:.2e}, max-scaling={scale_ok}, "
                f"permutation={perm_ok}")
    assert ok


def test_criterion_8_pipeline_determinism(tmp_path):
    config = tmp_path / "gen.cfg"
    config.write_text("m=31\nfrequencies=8\nphases=pi\ncount_defect_free=12\n"
                      "count_dirt=6\ncount_crater=3\n")
    payloads = []
    for tag in ("a", "b"):
        ds = tmp_path / f"ds_{tag}"
        feats = tmp_path / f"features_{tag}.csv"
        rep = tmp_path / f"report_{tag}.json"
        assert cli.main(["generate", "--config", str(config), "--seed", "13",
                         "--out", str(ds)]) == 0
        assert cli.main(["extract", "--data", str(ds), "--out", str(feats)]) == 0
        assert cli.main(["evaluate", "--features", str(feats), "--out",
                         str(rep), "--seed", "5", "--runs", "3"]) == 0
        manifest = (ds / "manifest.csv").read_bytes()
        patch_bytes = b"".join(p.read_bytes()
                               for p in sorted((ds / "patches").iterdir()))
        payloads.append((manifest, patch_bytes, feats.read_bytes(),
                         rep.read_bytes(),
                         rep.with_suffix(".csv").read_bytes()))
    ok = payloads[0] == payloads[1]
    report_line("criterion 8 (determinism)", ok,
                "byte-identical manifests, patches, feature CSVs, reports"
                if ok else "outputs differ between identical runs")
    assert ok
