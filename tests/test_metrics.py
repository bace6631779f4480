"""Evaluation metrics, merging, stratified splits, repeated runs."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import edfdetect.metrics as metrics
from edfdetect.classifier import (PosteriorVector, _entropy_rows, _reference_labels,
                                  build_reference, classify_batch)
from edfdetect.errors import DataError
from edfdetect.features import FeatureVector, stacked_taus, write_features_csv
from edfdetect.metrics import (_class_groups, _defect_mask, _merge_rows, average_entropy,
                               hard_metrics, probability_metrics,
                               repeated_evaluation, stratified_split)

CLASSES = ("defect_free", "crater", "dirt")


def pv(probs):
    p = np.asarray(probs, dtype=float)
    pos = p[p > 0]
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    return PosteriorVector(probabilities=p, predicted=CLASSES[int(np.argmax(p))],
                           entropy=float(-(pos * np.log(pos)).sum()),
                           log_probabilities=log_p,
                           log_distances=np.zeros(len(p)))


def fv(tau, label, pid=""):
    tau = np.asarray(tau, dtype=float)
    return FeatureVector(tau=tau, label=label, patch_id=pid, frequency=8.0,
                         phase=0.0)


def merge(probs, defect_classes=frozenset({"crater", "dirt"})):
    """(p_defect, p_defect_free, predicted_defect, entropy) of one posterior row."""
    p_def, p_free, predicted, entropy = _merge_rows(
        np.asarray(probs, dtype=float)[None, :],
        _defect_mask(CLASSES, set(defect_classes)))
    return float(p_def[0]), float(p_free[0]), bool(predicted[0]), float(entropy[0])


def test_merge_example():
    p_def, p_free, predicted, _ = merge([0.6, 0.3, 0.1])
    assert abs(p_def - 0.4) <= 1e-12
    assert abs(p_free - 0.6) <= 1e-12
    assert not predicted


def test_merge_sums_to_row_total():
    rng = np.random.default_rng(9)
    probs = rng.dirichlet(np.ones(3), size=20) * rng.uniform(0.5, 1.0, (20, 1))
    p_def, p_free, _, _ = _merge_rows(probs, _defect_mask(CLASSES, {"crater", "dirt"}))
    np.testing.assert_allclose(p_def + p_free, probs.sum(axis=1), atol=1e-15)


def test_merge_with_a_mask_per_row_sums_each_side_in_column_order():
    rng = np.random.default_rng(10)
    probs = rng.dirichlet(np.ones(5), size=40) * rng.uniform(0.5, 1.0, (40, 1))
    masks = np.array([rng.permutation([True, True, False, False, False])
                      for _ in range(40)])
    p_def, p_free, predicted, entropy = _merge_rows(probs, masks)
    for i in range(40):
        one = _merge_rows(probs[i:i + 1], masks[i])
        assert (p_def[i], p_free[i]) == (probs[i][masks[i]].sum(),
                                         probs[i][~masks[i]].sum())
        assert (p_def[i], p_free[i], predicted[i], entropy[i]) == tuple(
            v[0] for v in one)


def test_merge_uniform_prefers_defect():
    p_def, _, predicted, _ = merge([1 / 3, 1 / 3, 1 / 3])
    assert abs(p_def - 2 / 3) <= 1e-12
    assert predicted
    assert merge([0.5, 0.25, 0.25])[2]


def test_merge_rejects_empty_or_full_set():
    with pytest.raises(DataError):
        merge([0.5, 0.3, 0.2], set())
    with pytest.raises(DataError):
        merge([0.5, 0.3, 0.2], set(CLASSES))
    with pytest.raises(DataError):
        merge([0.5, 0.3, 0.2], {"crater", "scratch"})


def test_merged_mer_not_worse_on_sharp_posteriors():
    # pipeline-style posteriors are near 0/1; merging crater and dirt then
    # cannot introduce new errors between them
    rng = np.random.default_rng(0)
    n_err3 = n_errb = 0
    for _ in range(300):
        true = CLASSES[rng.integers(3)]
        pred = CLASSES[rng.integers(3)] if rng.random() < 0.2 else true
        probs = np.full(3, 0.005)
        probs[CLASSES.index(pred)] = 0.99
        n_err3 += pv(probs).predicted != true
        n_errb += merge(probs)[2] != (true != "defect_free")
    assert n_errb <= n_err3


def test_probability_metrics_hand_case():
    prob_mer, prob_fpr, prob_fnr = probability_metrics(
        [True, False], [0.9, 0.2])
    assert abs(prob_mer - 0.15) <= 1e-12
    assert abs(prob_fnr - 0.1) <= 1e-12
    assert abs(prob_fpr - 0.2) <= 1e-12


def test_probability_metrics_perfect_and_uninformative():
    mer, fpr, fnr = probability_metrics([True, False, True], [1.0, 0.0, 1.0])
    assert mer == fpr == fnr == 0.0
    mer, fpr, fnr = probability_metrics([True, False], [0.5, 0.5])
    assert mer == fpr == fnr == 0.5


def test_probability_metrics_missing_class_absent():
    mer, fpr, fnr = probability_metrics([True, True], [0.8, 0.9])
    assert fpr is None and fnr is not None
    mer, fpr, fnr = probability_metrics([False, False], [0.1, 0.3])
    assert fnr is None and fpr is not None


def test_hard_metrics_examples():
    mer, fpr, fnr = hard_metrics([True, False], [True, False])
    assert mer == fpr == fnr == 0.0
    mer, fpr, fnr = hard_metrics([True, False, False], [True, True, True])
    assert fpr == 1.0 and fnr == 0.0


@pytest.mark.parametrize("rates", [hard_metrics, probability_metrics])
@pytest.mark.parametrize("truth, values", [([True, False, True], [1]),
                                           ([True], [1, 0, 1]), ([], [])])
def test_rates_need_equal_length_nonempty_inputs(rates, truth, values):
    # a one-element list must not broadcast against the other side
    with pytest.raises(DataError, match="equal length|empty input"):
        rates(truth, values)


def test_hard_metrics_match_confusion_tally():
    rng = np.random.default_rng(1)
    truth = rng.random(200) < 0.3
    pred = rng.random(200) < 0.5
    mer, fpr, fnr = hard_metrics(list(truth), list(pred))
    tp = np.sum(truth & pred); tn = np.sum(~truth & ~pred)
    fp = np.sum(~truth & pred); fn = np.sum(truth & ~pred)
    assert mer == (fp + fn) / 200
    assert fpr == fp / (fp + tn)
    assert fnr == fn / (fn + tp)


def test_average_entropy_examples():
    assert average_entropy([pv([1.0, 0.0, 0.0]), pv([0.0, 0.0, 1.0])]) == 0.0
    two_class = [PosteriorVector(probabilities=np.array([0.5, 0.5]),
                                 predicted="a", entropy=float(np.log(2)),
                                 log_probabilities=np.log([0.5, 0.5]),
                                 log_distances=np.zeros(2))] * 3
    assert abs(average_entropy(two_class) - np.log(2)) <= 1e-12
    rng = np.random.default_rng(2)
    batch = []
    for _ in range(25):
        p = rng.dirichlet(np.ones(3))
        batch.append(pv(p))
    expected = np.mean([-(q.probabilities[q.probabilities > 0]
                          * np.log(q.probabilities[q.probabilities > 0])).sum()
                        for q in batch])
    assert abs(average_entropy(batch) - expected) <= 1e-12


def test_stratified_split_counts():
    labels = ["a"] * 10 + ["b"] * 10
    train, val = stratified_split(labels, 0.7, seed=0)
    arr = np.asarray(labels)
    assert np.sum(arr[train] == "a") == 7 and np.sum(arr[train] == "b") == 7
    assert len(val) == 6


def test_stratified_split_paper_counts():
    labels = (["defect_free"] * 13827 + ["dirt"] * 4234 + ["crater"] * 372)
    train, val = stratified_split(labels, 0.7, seed=0)
    arr = np.asarray(labels)
    assert np.sum(arr[train] == "defect_free") == 9679
    assert np.sum(arr[train] == "dirt") == 2964
    assert np.sum(arr[train] == "crater") == 260
    assert len(train) + len(val) == 18433
    assert np.intersect1d(train, val).size == 0


def test_stratified_split_deterministic():
    labels = ["a"] * 50 + ["b"] * 30
    t1, v1 = stratified_split(labels, 0.7, seed=123)
    t2, v2 = stratified_split(labels, 0.7, seed=123)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(v1, v2)
    t3, _ = stratified_split(labels, 0.7, seed=124)
    assert not np.array_equal(t1, t3)


def test_stratified_split_rejects_singleton_class():
    with pytest.raises(DataError, match=r"^class 'b' has 1 member\(s\); need >= 2$"):
        stratified_split(["a", "a", "b"], 0.7, seed=0)


def separable_dataset(n_per_class=10, dim=4):
    rng = np.random.default_rng(4)
    vectors = []
    for k, label in enumerate(CLASSES):
        center = np.zeros(dim)
        center[k] = 10.0
        for i in range(n_per_class):
            vectors.append(fv(center + 0.01 * rng.standard_normal(dim), label,
                              f"{label}_{i}"))
    return vectors


def test_repeated_evaluation_structure():
    data = separable_dataset()
    report = repeated_evaluation(data, seeds=[1, 2, 3], train_fraction=0.7,
                                 defect_classes={"crater", "dirt"})
    assert set(report.metrics) >= {"mer", "fpr", "fnr", "prob_mer", "prob_fpr",
                                   "prob_fnr", "avg_entropy", "mer_multiclass"}
    assert all(len(s.runs) == 3 for s in report.metrics.values())
    assert report.n_total == 9 and report.n_defect == 6
    # perfectly separated clusters: identical zero error every run
    assert report.metrics["mer"].mean == 0.0
    assert report.metrics["mer"].se == 0.0


def test_repeated_evaluation_single_run_has_no_se():
    report = repeated_evaluation(separable_dataset(), seeds=[7],
                                 train_fraction=0.7,
                                 defect_classes={"crater", "dirt"})
    assert report.metrics["mer"].se is None
    assert report.metrics["mer"].mean is not None


def test_prob_mer_identity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(5, 60))
        truth = rng.random(n) < rng.uniform(0.2, 0.8)
        if truth.all() or (~truth).any() is False or not truth.any():
            truth[0] = True
            truth[1] = False
        p1 = rng.random(n)
        mer, fpr, fnr = probability_metrics(list(truth), list(p1))
        n1, n0 = int(truth.sum()), int((~truth).sum())
        combo = (n1 * fnr + n0 * fpr) / n
        assert abs(mer - combo) <= 1e-12


def test_hard_equals_prob_for_degenerate_posteriors():
    rng = np.random.default_rng(6)
    truth = list(rng.random(80) < 0.4)
    pred = list(rng.random(80) < 0.5)
    p1 = [1.0 if q else 0.0 for q in pred]
    hard = hard_metrics(truth, pred)
    prob = probability_metrics(truth, p1)
    assert hard == prob


def test_metrics_order_invariance():
    rng = np.random.default_rng(7)
    truth = list(rng.random(60) < 0.4)
    p1 = list(rng.random(60))
    base = probability_metrics(truth, p1)
    order = rng.permutation(60)
    shuffled = probability_metrics([truth[i] for i in order],
                                   [p1[i] for i in order])
    assert np.allclose(base, shuffled)


def test_report_serialization(tmp_path):
    report = repeated_evaluation(separable_dataset(), seeds=[1, 2],
                                 train_fraction=0.7,
                                 defect_classes={"crater", "dirt"})
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    report.write_json(json_path)
    report.write_csv(csv_path)
    doc = json.loads(json_path.read_text())
    assert doc["counts"]["n_total"] == 9
    assert len(doc["metrics"]["mer"]["runs"]) == 2
    text = csv_path.read_text()
    assert "mer,mean," in text


def overlapping_dataset():
    # noisy, overlapping classes plus exact duplicates across classes, so
    # runs see errors, hesitant posteriors and zero-distance ties
    rng = np.random.default_rng(8)
    vectors = [fv(rng.standard_normal(3) * 0.8 + k, label, f"{label}_{i}")
               for k, label in enumerate(CLASSES) for i in range(15)]
    vectors += [fv(np.full(3, 0.5), label, f"{label}_dup") for label in CLASSES]
    return vectors


def _oracle_merge(post, classes, defect_classes):
    """The 1-row merge the stacked-matrix merge replaced."""
    in_defect = np.array([c in defect_classes for c in classes])
    p_def = float(post.probabilities[in_defect].sum())
    p_free = float(post.probabilities[~in_defect].sum())
    pos = [q for q in (p_def, p_free) if q > 0.0]
    return SimpleNamespace(p_defect=p_def, predicted_defect=p_def >= p_free,
                           entropy=float(-sum(q * np.log(q) for q in pos)),
                           true_defect=post.true_label in defect_classes)


def test_single_run_binary_metrics_match_per_post_merge():
    data = overlapping_dataset()
    labels = [v.label for v in data]
    for seed in range(6):
        report = repeated_evaluation(data, [seed], 0.7, {"crater", "dirt"})
        got = {name: series.runs[0] for name, series in report.metrics.items()}
        train, val = stratified_split(labels, 0.7, seed)
        ref = build_reference([data[i] for i in train])
        posts = classify_batch(ref, [data[i] for i in val])
        merged = [_oracle_merge(p, ref.classes, {"crater", "dirt"}) for p in posts]
        truth = [m.true_defect for m in merged]
        mer, fpr, fnr = hard_metrics(truth, [m.predicted_defect for m in merged])
        prob = probability_metrics(truth, [m.p_defect for m in merged])
        assert (got["mer"], got["fpr"], got["fnr"]) == (mer, fpr, fnr)
        assert (got["prob_mer"], got["prob_fpr"], got["prob_fnr"]) == prob
        assert got["avg_entropy"] == average_entropy(merged)
        assert got["mer_multiclass"] == float(np.mean(
            [p.predicted != data[i].label for p, i in zip(posts, val)]))
        p_true = [float(p.probabilities[ref.classes.index(data[i].label)])
                  for p, i in zip(posts, val)]
        assert got["prob_mer_multiclass"] == float(np.mean([1.0 - t for t in p_true]))
        assert got["avg_entropy_multiclass"] == average_entropy(posts)


def test_report_counts_follow_split_rule():
    data = overlapping_dataset()
    labels = [v.label for v in data]
    for frac in (0.3, 0.5, 0.7, 0.9):
        report = repeated_evaluation(data, seeds=[4, 5], train_fraction=frac,
                                     defect_classes={"crater", "dirt"})
        for seed in (4, 5, 99):
            _, val = stratified_split(labels, frac, seed)
            val_labels = [labels[i] for i in val]
            assert report.n_total == len(val)
            assert report.n_defect == sum(lab != "defect_free" for lab in val_labels)


# three classes: numpy's == ignores trailing NULs, so labels are told apart
# as Python strings
NUL_LABELS = ["a", "a\0", "b"] * 4


def test_trailing_nul_labels_split_as_classes_of_their_own():
    train, val = stratified_split(NUL_LABELS, 0.5, seed=0)
    assert np.intersect1d(train, val).size == 0
    assert sorted(np.concatenate([train, val]).tolist()) == list(range(12))
    assert [NUL_LABELS[i] for i in train].count("a\0") == 2


def test_report_counts_tell_trailing_nul_labels_apart():
    data = [fv([float(i)], label, f"p{i}") for i, label in enumerate(NUL_LABELS)]
    report = repeated_evaluation(data, seeds=[1, 2], train_fraction=0.5,
                                 defect_classes={"b"})
    assert report.classes == ("a", "a\0", "b")
    assert (report.n_total, report.n_defect) == (6, 2)


def _raised(call, *args):
    """(class, text) of the DataError that call(*args) raises."""
    with pytest.raises(DataError) as err:
        call(*args)
    return type(err.value), str(err.value)


def test_repeated_evaluation_refuses_dimension_0():
    data = [fv([], label, f"p{i}") for i, label in enumerate("aaabbb")]
    got = _raised(repeated_evaluation, data, [1], 0.5, {"b"})
    assert got == _raised(stacked_taus, data)
    assert got == (DataError, "feature vectors have m=0; need m >= 1")
    assert _raised(repeated_evaluation, data, [7, 3], 0.5, {"b"}) == got


def test_repeated_evaluation_of_no_vectors_is_data_error():
    got = _raised(repeated_evaluation, [], [1], 0.5, {"b"})
    assert got == _raised(stacked_taus, [])
    assert got[0] is DataError


@pytest.mark.parametrize("at", [0, 3])
def test_a_0d_tau_is_a_data_error_naming_its_patch_at_every_entry_point(tmp_path, at):
    # a numpy scalar tau used to escape the feature-set rule as a TypeError
    # from len()
    good = [fv([float(i)], "ab"[i % 2], f"p{i}") for i in range(8)]
    data = list(good)
    data[at] = replace(good[at], tau=np.float64(at))
    path = tmp_path / "features.csv"
    ref = build_reference(good)
    want = (DataError, f"feature vector 'p{at}': tau not 1-D and finite")
    assert _raised(write_features_csv, data, path) == want
    assert not path.exists()
    assert _raised(build_reference, data) == want
    assert _raised(classify_batch, ref, data) == want
    assert _raised(repeated_evaluation, data, [1, 2], 0.5, {"b"}) == want


def test_stratified_split_rejects_empty_validation_set():
    # round(3 * 0.9) = 3 of every class go to training
    with pytest.raises(DataError, match="no validation points"):
        stratified_split(["a"] * 3 + ["b"] * 3, 0.9, seed=0)


def test_repeated_evaluation_passes_program_errors_through(monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(metrics, "_posteriors", broken)
    with pytest.raises(ZeroDivisionError):
        repeated_evaluation(separable_dataset(), seeds=[1], train_fraction=0.7,
                            defect_classes={"crater", "dirt"})


def _oracle_run(features, seed, train_fraction, defect_classes):
    """One run as first written: its own split, a reference and one classify
    pass, then the merge and the rates of the 1-run code."""
    labels = [fv.label or "" for fv in features]
    labels_arr = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train_parts, val_parts = [], []
    for c in dict.fromkeys(labels):
        idx = np.flatnonzero(labels_arr == c)
        k = int(np.floor(len(idx) * train_fraction + 0.5))
        if len(idx) < 2:
            raise DataError(f"class {c!r} has {len(idx)} member(s); need >= 2")
        perm = rng.permutation(idx)
        train_parts.append(perm[:k])
        val_parts.append(perm[k:])
    val_idx = np.sort(np.concatenate(val_parts))
    if not len(val_idx):
        raise DataError(f"train_fraction {train_fraction} leaves no validation points")
    train_idx = np.sort(np.concatenate(train_parts))
    ref = build_reference([features[i] for i in train_idx])
    posts = classify_batch(ref, [features[i] for i in val_idx])
    probabilities = np.array([p.probabilities for p in posts])

    true_labels = [labels[i] for i in val_idx]
    class_pos = {c: j for j, c in enumerate(ref.classes)}
    true_pos = np.array([class_pos.get(t, -1) for t in true_labels])
    p_true = np.where(true_pos >= 0,
                      probabilities[np.arange(len(posts)), true_pos], 0.0)
    cl = set(ref.classes)
    if not defect_classes or not defect_classes < cl:
        raise DataError(
            f"defect classes {sorted(defect_classes)} must be a nonempty proper "
            f"subset of {sorted(cl)}")
    mask = np.array([c in defect_classes for c in ref.classes])
    p_def = probabilities[:, mask].sum(axis=1)
    p_free = probabilities[:, ~mask].sum(axis=1)
    truth = np.array([t in defect_classes for t in true_labels])

    def rates(p1):
        error = np.where(truth, 1.0 - p1, p1)
        return (float(error.mean()),
                float(error[~truth].mean()) if (~truth).any() else None,
                float(error[truth].mean()) if truth.any() else None)

    mer, fpr, fnr = rates((p_def >= p_free).astype(float))
    prob_mer, prob_fpr, prob_fnr = rates(p_def)
    return {
        "mer": mer, "fpr": fpr, "fnr": fnr,
        "prob_mer": prob_mer, "prob_fpr": prob_fpr, "prob_fnr": prob_fnr,
        "avg_entropy": float(np.mean(_entropy_rows(np.column_stack([p_def, p_free])))),
        "mer_multiclass": float(np.mean(np.argmax(probabilities, axis=1) != true_pos)),
        "prob_mer_multiclass": float(np.mean(1.0 - p_true)),
        "avg_entropy_multiclass": float(np.mean([p.entropy for p in posts])),
    }


def interleaved_dataset(n_classes, per_class=5, dim=3):
    # rows cycle through the classes, so which class appears first among a
    # run's sorted training rows changes from seed to seed
    rng = np.random.default_rng(11)
    names = [f"c{j}" for j in range(n_classes)]
    return [fv(rng.standard_normal(dim) + 0.7 * (i % n_classes), names[i % n_classes],
               f"p{i}")
            for i in range(n_classes * per_class)]


def zero_train_count_dataset():
    # round(2 * 0.2) = 0: no crater ever reaches training
    rng = np.random.default_rng(12)
    counts = {"defect_free": 10, "dirt": 10, "crater": 2}
    return [fv(rng.standard_normal(3) + k, label, f"{label}_{i}")
            for k, (label, n) in enumerate(counts.items()) for i in range(n)]


def _run_classes(data, seed, train_fraction):
    train, _ = stratified_split([v.label for v in data], train_fraction, seed)
    return build_reference([data[i] for i in train]).classes


SEEDS = list(range(20, 44))


@pytest.mark.parametrize("data, train_fraction, defects", [
    (separable_dataset(), 0.7, {"crater", "dirt"}),
    (overlapping_dataset(), 0.7, {"crater", "dirt"}),
    (overlapping_dataset(), 0.5, {"dirt"}),
    (interleaved_dataset(4), 0.7, {"c2", "c3"}),
    (interleaved_dataset(10), 0.6, {"c1", "c4", "c5", "c8"}),
    (zero_train_count_dataset(), 0.2, {"dirt"}),
], ids=["separable", "overlapping", "overlapping-dirt", "4-class", "10-class",
        "zero-train-count"])
def test_every_run_equals_the_one_run_oracle(data, train_fraction, defects):
    report = repeated_evaluation(data, SEEDS, train_fraction, defects)
    for run, seed in enumerate(SEEDS):
        want = _oracle_run(data, seed, train_fraction, defects)
        assert {name: s.runs[run] for name, s in report.metrics.items()} == want


def test_interleaved_runs_differ_in_class_order():
    # the 4- and 10-class oracle cases really mix runs of different orders
    for n_classes, frac in ((4, 0.7), (10, 0.6)):
        data = interleaved_dataset(n_classes)
        assert len({_run_classes(data, s, frac) for s in SEEDS}) > 1


def test_zero_train_count_class_scores_as_a_zero_probability_column():
    data = zero_train_count_dataset()
    assert all("crater" not in _run_classes(data, s, 0.2) for s in SEEDS)
    report = repeated_evaluation(data, SEEDS, 0.2, {"dirt"})
    assert report.n_total == 18
    # the two validation craters are always wrong in the 3-class view
    assert min(report.metrics["mer_multiclass"].runs) >= 2 / 18


def _wrong_dim(data, i):
    """data with row i one feature longer than the rest."""
    data = list(data)
    data[i] = replace(data[i], tau=np.zeros(data[i].dim + 1))
    return data


def _unlabeled(data, *rows):
    return [replace(v, label=None) if i in rows else v for i, v in enumerate(data)]


def _run0_validation_row(data, train_fraction):
    _, val = stratified_split([v.label for v in data], train_fraction, SEEDS[0])
    return int(val[len(val) // 2])


# seeds of a second evaluation of a failing dataset: its error is the same
OTHER_SEEDS = [7, 3, 1]


def _evaluation_error(data, train_fraction, defects):
    """(class, text) of repeated evaluation's error on a failing dataset, the
    same for two seed lists; the one-run oracle refuses the dataset too."""
    got = _raised(repeated_evaluation, data, SEEDS, train_fraction, defects)
    assert _raised(repeated_evaluation, data, OTHER_SEEDS, train_fraction, defects) == got
    _raised(_oracle_run, data, SEEDS[0], train_fraction, defects)
    return got


@pytest.mark.parametrize("data, train_fraction, defects, rule", [
    ([fv([0.0], "a"), fv([1.0], "a"), fv([2.0], "a"), fv([3.0], "b")], 0.7, {"b"},
     lambda d, f: _class_groups(_reference_labels(d), f)),
    ([fv([float(i)], "ab"[i // 3]) for i in range(6)], 0.9, {"b"},
     lambda d, f: _class_groups(_reference_labels(d), f)),
    # round(2 * 0.2) = 0: only "a" trains, and no proper subset of it holds "b"
    ([fv([float(i)], "a") for i in range(10)] + [fv([5.0], "b"), fv([6.0], "b")],
     0.2, {"b"}, lambda d, f: _defect_mask(("a",), {"b"})),
    (zero_train_count_dataset(), 0.2, {"crater", "dirt"},
     lambda d, f: _defect_mask(("defect_free", "dirt"), {"crater", "dirt"})),
    (_wrong_dim(overlapping_dataset(), 0), 0.7, {"crater", "dirt"},
     lambda d, f: stacked_taus(d)),
    (_wrong_dim(overlapping_dataset(),
                _run0_validation_row(overlapping_dataset(), 0.7)), 0.7, {"crater", "dirt"},
     lambda d, f: stacked_taus(d)),
    (_unlabeled(overlapping_dataset(), 0, 1), 0.7, {"crater", "dirt"},
     lambda d, f: _reference_labels(d)),
], ids=["singleton-class", "no-validation", "single-training-class",
        "defect-class-never-trained", "wrong-dim-first-row", "wrong-dim-validation-row",
        "two-unlabeled-rows"])
def test_failing_runs_keep_their_error_text(data, train_fraction, defects, rule):
    # the error is the rule's own, whatever the seeds
    assert (_evaluation_error(data, train_fraction, defects)
            == _raised(rule, data, train_fraction))


@pytest.mark.parametrize("data, defects", [
    (overlapping_dataset(), {"crater", "dirt"}),
    (interleaved_dataset(4), {"c2", "c3"}),
], ids=["overlapping", "4-class"])
def test_a_wrong_dimension_row_anywhere_fails_as_run_0(data, defects):
    # stacked_taus's error, naming the position in the caller's list
    for i in range(len(data)):
        bad = _wrong_dim(data, i)
        assert _evaluation_error(bad, 0.7, defects) == _raised(stacked_taus, bad), i


def test_any_two_unlabeled_rows_fail_as_run_0():
    data = overlapping_dataset()
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            bad = _unlabeled(data, i, j)
            assert (_evaluation_error(bad, 0.7, {"crater", "dirt"})
                    == _raised(_reference_labels, bad)), (i, j)


@pytest.mark.parametrize("runs_per_block", [1, 3])
def test_report_does_not_depend_on_the_block_size(monkeypatch, runs_per_block):
    data = overlapping_dataset()
    n_val = repeated_evaluation(data, [1], 0.7, {"crater", "dirt"}).n_total
    seeds = list(range(10))

    def report_json():
        report = repeated_evaluation(data, seeds, 0.7, {"crater", "dirt"})
        return json.dumps(report.to_json_dict(), sort_keys=True)

    default = report_json()
    monkeypatch.setattr(metrics, "_BLOCK_ROWS", runs_per_block * n_val)
    assert report_json() == default


@pytest.mark.parametrize("bad", [dict(tau=np.array([0.5, np.nan, 0.5])),
                                 dict(tau=np.array([0.5, 0.5, -np.inf])),
                                 dict(frequency=np.nan), dict(phase=np.inf)],
                         ids=["nan-tau", "inf-tau", "nan-f", "inf-psi"])
def test_a_row_its_reader_would_refuse_fails_as_run_0_anywhere(bad):
    # a NaN tau used to give prob_mer [nan, nan, nan] and a report.json
    # holding the bare token NaN
    data = overlapping_dataset()
    for i in range(len(data)):
        rows = list(data)
        rows[i] = replace(rows[i], **bad)
        got = _evaluation_error(rows, 0.7, {"crater", "dirt"})
        assert got == _raised(stacked_taus, rows), i
        assert f"feature vector {rows[i].patch_id!r}: " in got[1]
