"""NN-ball posterior classifier against brute-force and high-precision oracles."""

import csv
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from edfdetect.classifier import (LabeledFeatureSet, _class_members, _logsumexp_rows,
                                  _min_distances, build_reference, classify_batch,
                                  load_reference_csv, write_posteriors_csv)
from edfdetect.errors import DataError, DimensionMismatchError, SingleClassError
from edfdetect.features import FeatureVector, write_features_csv


def fv(tau, label, pid=""):
    tau = np.asarray(tau, dtype=float)
    return FeatureVector(tau=tau, label=label, patch_id=pid, frequency=8.0,
                         phase=0.0)


def classify_one(ref, query):
    """Posterior of one unlabeled query vector."""
    return classify_batch(ref, [fv(query, None)])[0]


def class_distances(ref, query):
    """Per-class minimum distances of one query vector."""
    return _min_distances(ref, np.asarray(query, dtype=float)[None, :])[0]


def class_counts(ref):
    return dict(zip(ref.classes, ref.sizes.tolist()))


def simple_ref(dim=2):
    # class a holds the origin, class b a point at distance 3 along axis 0
    a = np.zeros(dim)
    b = np.zeros(dim)
    b[0] = 3.0
    return build_reference([fv(a, "a", "pa"), fv(b, "b", "pb")])


def test_build_reference_counts():
    ref = build_reference([fv([0, 0], "a"), fv([1, 0], "a"), fv([0, 1], "b")])
    assert ref.classes == ("a", "b")
    assert class_counts(ref) == {"a": 2, "b": 1}


def test_build_reference_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        build_reference([fv([0, 0], "a"), fv([1, 0, 0], "b")])


def test_build_reference_single_class():
    with pytest.raises(SingleClassError):
        build_reference([fv([0, 0], "a"), fv([1, 1], "a")])


def test_build_reference_counts_match_manifest():
    rng = np.random.default_rng(0)
    labels = ["defect_free"] * 400 + ["crater"] * 80 + ["dirt"] * 120
    vectors = [fv(rng.standard_normal(5), lab, f"p{i}")
               for i, lab in enumerate(labels)]
    ref = build_reference(vectors)
    assert class_counts(ref) == {"defect_free": 400, "crater": 80, "dirt": 120}


def test_build_reference_groups_rows_by_class_in_input_order():
    labels = ["b", "a", "b", "c", "a", "b"]
    ids = ["x", "y", "x", "z", "y", "w"]        # repeated patch ids
    ref = build_reference([fv([float(i), 0.0], lab, pid)
                           for i, (lab, pid) in enumerate(zip(labels, ids))])
    assert ref.classes == ("b", "a", "c")
    assert ref.sizes.tolist() == [3, 2, 1]
    assert ref.vectors[:, 0].tolist() == [0.0, 2.0, 5.0, 1.0, 4.0, 3.0]
    assert ref.patch_ids == ("x", "x", "w", "y", "y", "z")


def test_build_reference_refuses_an_empty_label():
    with pytest.raises(DataError, match="'p1' is unlabeled"):
        build_reference([fv([0.0], "a", "p0"), fv([1.0], "", "p1"), fv([2.0], "b")])


@pytest.mark.parametrize("leave_one_out", [False, True])
def test_posteriors_do_not_depend_on_row_order_within_a_class(leave_one_out):
    rng = np.random.default_rng(5)
    labels = [("a", "b", "c")[i % 3] for i in range(60)]
    pts = np.vstack([rng.standard_normal((54, 6)), np.zeros((6, 6))])  # zero ties
    vectors = [fv(p, lab, f"p{i % 17}")                                # shared ids
               for i, (p, lab) in enumerate(zip(pts, labels))]
    want = classify_batch(build_reference(vectors), vectors, leave_one_out)
    for seed in range(3):
        # each class's rows permuted among that class's own positions
        order = np.arange(60)
        for c in ("a", "b", "c"):
            at = [i for i, lab in enumerate(labels) if lab == c]
            order[at] = np.random.default_rng(seed).permutation(at)
        ref = build_reference([vectors[i] for i in order])
        for got, post in zip(classify_batch(ref, vectors, leave_one_out), want):
            for field in ("probabilities", "log_probabilities", "log_distances"):
                np.testing.assert_array_equal(getattr(got, field), getattr(post, field))
            assert (got.entropy, got.predicted) == (post.entropy, post.predicted)


def test_min_distance_to_own_point_is_zero():
    ref = simple_ref()
    d = class_distances(ref, np.array([0.0, 0.0]))
    assert d[0] == 0.0 and d[1] == 3.0


def test_min_distance_one_dimensional_example():
    ref = build_reference([fv([0.0], "a"), fv([3.0], "b")])
    np.testing.assert_allclose(class_distances(ref, np.array([1.0])), [1.0, 2.0])


def test_min_distance_matches_brute_force():
    rng = np.random.default_rng(1)
    points = rng.standard_normal((200, 7))
    labels = [("a", "b", "c")[i % 3] for i in range(200)]
    ref = build_reference([fv(p, lab, f"p{i}")
                           for i, (p, lab) in enumerate(zip(points, labels))])
    for _ in range(25):
        query = rng.standard_normal(7)
        got = class_distances(ref, query)
        for j, cls in enumerate(ref.classes):
            brute = min(np.sqrt(((p - query) ** 2).sum())
                        for p, lab in zip(points, labels) if lab == cls)
            assert abs(got[j] - brute) <= 1e-12


def _cdist_min_distances(ref, queries, exclude_ids=None):
    """The kernel the screen replaced: full cdist, masked, per-class min."""
    full = cdist(queries, ref.vectors)
    if exclude_ids is not None:
        for i, qid in enumerate(exclude_ids):
            if qid:
                full[i, [pid == qid for pid in ref.patch_ids]] = np.inf
    ends = np.cumsum(ref.sizes)
    return np.stack([full[:, e - n:e].min(axis=1) for n, e in zip(ref.sizes, ends)],
                    axis=1)


def _screen_cases():
    rng = np.random.default_rng(11)
    labels = [("a", "b", "c")[i % 3] for i in range(60)]
    ids = [f"p{i}" for i in range(60)]
    # random vectors at the benchmark's dimension (sequential sums of 91 terms)
    pts = rng.standard_normal((60, 91))
    yield "random", pts, labels, ids, np.vstack([pts[:5], rng.standard_normal((20, 91))]), None
    # exact duplicates: zero distances, tied across classes
    dup = np.repeat(rng.uniform(0.0, 1.0, (20, 12)), 3, axis=0)
    yield "duplicates", dup, labels, ids, dup[::4], None
    # near-ties 1e-6 apart at a 1e3 offset: the screen's own ranking is noise
    near = 1e3 + 1e-6 * rng.standard_normal((60, 20))
    yield "near_ties", near, labels, ids, 1e3 + 1e-6 * rng.standard_normal((30, 20)), None
    # |q|^2 past the largest double while the distances stay finite: only the
    # power-of-two scaling keeps the screen finite
    big = 1e154 * (1.0 + 0.01 * rng.standard_normal((70, 5)))
    yield "huge", big[:60], labels, ids, big[60:], None
    # leave-one-out where the query is its class's only member: that class is inf
    lone = rng.standard_normal((7, 4))
    lone_labels = ["a", "a", "a", "b", "b", "b", "c"]
    lone_ids = [f"l{i}" for i in range(7)]
    yield "lone_member", lone, lone_labels, lone_ids, lone, lone_ids
    # leave-one-out with patch ids shared by several points (one excludes all)
    shared_ids = [f"s{i % 7}" for i in range(60)]
    yield "shared_ids", pts[:, :9], labels, shared_ids, pts[:12, :9], \
        shared_ids[:10] + ["", "absent"]


@pytest.mark.parametrize("case", list(_screen_cases()), ids=lambda c: c[0])
def test_min_distances_equal_cdist_to_the_bit(case):
    _, pts, labels, ids, queries, exclude = case
    ref = build_reference([fv(p, lab, pid) for p, lab, pid in zip(pts, labels, ids)])
    got = _min_distances(ref, queries, exclude_ids=exclude)
    np.testing.assert_array_equal(got, _cdist_min_distances(ref, queries, exclude))
    if exclude is not None:
        # patch ids also enter as queries without exclusion: zero distances
        np.testing.assert_array_equal(_min_distances(ref, queries),
                                      _cdist_min_distances(ref, queries))


def test_min_distances_past_cdist_overflow_are_scaled_and_finite():
    rng = np.random.default_rng(13)
    pts = 1e200 * rng.standard_normal((30, 6))
    ref = build_reference([fv(p, ("a", "b", "c")[i % 3], f"p{i}")
                           for i, p in enumerate(pts)])
    queries = 1e200 * rng.standard_normal((8, 6))
    assert np.isinf(_cdist_min_distances(ref, queries)).all()
    scale = 2.0 ** -math.frexp(np.abs(np.vstack([pts, queries])).max())[1]
    want = _cdist_min_distances(build_reference(
        [fv(p * scale, ("a", "b", "c")[i % 3]) for i, p in enumerate(pts)]),
        queries * scale) / scale
    got = _min_distances(ref, queries)
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(got, want)


def test_min_distances_lone_member_left_out_is_inf():
    ref = build_reference([fv([0.0, 0.0], "a", "p0"), fv([1.0, 0.0], "a", "p1"),
                           fv([5.0, 0.0], "b", "p2")])
    d = _min_distances(ref, ref.vectors, exclude_ids=list(ref.patch_ids))
    np.testing.assert_array_equal(d, [[1.0, 5.0], [1.0, 4.0], [4.0, np.inf]])


_LSE_ROWS = np.array([
    [0.0, 0.0, 1.0], [3.0, 3.0, 3.0], [-2.0, 5.0, 5.0],          # ties at the max
    [np.inf, 1.0, 2.0], [np.inf, np.inf, 0.0], [np.inf, -np.inf, 1.0],
    [-np.inf, 4.0, 4.0], [-np.inf, -np.inf, -np.inf], [-np.inf, -np.inf, 7.0],
    [np.nan, 1.0, 2.0], [1e308, 1e308, -1e308], [-1e308, -1e308, -1e308],
    [0.0, -745.0, -746.0], [15000.0, -15000.0, 0.0], [1e-300, -1e-300, 0.0],
])


def test_logsumexp_rows_equal_scipy_to_the_bit():
    rng = np.random.default_rng(12)
    a = np.vstack([_LSE_ROWS, 300.0 * rng.standard_normal((200, 3)),
                   -171.0 * np.log(rng.uniform(1e-3, 2.0, (200, 3)))])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        got = _logsumexp_rows(a)
        want = logsumexp(a, axis=1, keepdims=True)
    np.testing.assert_array_equal(got, want)
    wide = rng.standard_normal((50, 17))
    np.testing.assert_array_equal(_logsumexp_rows(wide),
                                  logsumexp(wide, axis=1, keepdims=True))


def test_posterior_hand_case():
    # distances (1, 2) in dimension 2: p1 = 1 / (1 + 2^-2) = 0.8
    ref = simple_ref(dim=2)
    post = classify_one(ref, np.array([1.0, 0.0]))
    np.testing.assert_allclose(post.probabilities, [0.8, 0.2], atol=1e-12)
    assert post.predicted == "a"


def test_posterior_equal_distances_is_uniform():
    pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    ref = build_reference([fv(pts[0], "a"), fv(pts[1], "b"), fv(pts[2], "c")])
    post = classify_one(ref, np.zeros(3))
    np.testing.assert_allclose(post.probabilities, np.full(3, 1 / 3), atol=1e-12)
    assert abs(post.entropy - np.log(3)) <= 1e-12


def test_posterior_extreme_distances_match_mpmath():
    dim = 91
    near, far = 1e-3, 1e3
    a = np.zeros(dim); a[0] = near
    b = np.zeros(dim); b[0] = -far
    ref = build_reference([fv(a, "a"), fv(b, "b")])
    post = classify_one(ref, np.zeros(dim))
    d = np.exp(post.log_distances)

    mpmath.mp.dps = 80
    vals = [mpmath.mpf(x) ** (-dim) for x in d]
    total = vals[0] + vals[1]
    log_p2 = float(mpmath.log(vals[1] / total))
    assert np.isfinite(post.probabilities).all()
    assert np.isfinite(post.log_probabilities).all()
    assert abs(post.log_probabilities[1] - log_p2) <= 1e-10 * abs(log_p2)


def test_posterior_zero_distance_rule():
    ref = simple_ref()
    post = classify_one(ref, np.array([0.0, 0.0]))
    np.testing.assert_array_equal(post.probabilities, [1.0, 0.0])
    assert post.predicted == "a"
    # equidistant-at-zero: two classes sharing the query point
    ref2 = build_reference([fv([0, 0], "a"), fv([0, 0], "b"), fv([5, 5], "b")])
    post2 = classify_one(ref2, np.array([0.0, 0.0]))
    np.testing.assert_array_equal(post2.probabilities, [0.5, 0.5])


def test_classify_batch_empty():
    assert classify_batch(simple_ref(), []) == []


def test_classify_batch_self_match():
    rng = np.random.default_rng(2)
    vectors = [fv(rng.standard_normal(6), ("a", "b", "c")[i % 3], f"p{i}")
               for i in range(30)]
    ref = build_reference(vectors)
    posts = classify_batch(ref, vectors)
    assert all(p.predicted == v.label for p, v in zip(posts, vectors))


def _oracle_posterior(dist, dim):
    """The per-row posterior formula the batched pass replaced."""
    with np.errstate(divide="ignore"):
        log_d = np.log(dist)
    if (dist == 0.0).any():
        p = (dist == 0.0).astype(float)
        p /= p.sum()
        with np.errstate(divide="ignore"):
            log_p = np.log(p)
        return p, log_p, log_d
    ell = -dim * log_d
    log_p = ell - logsumexp(ell)
    p = np.exp(log_p)
    total = p.sum()
    if total > 0:
        p = p / total
    return p, log_p, log_d


def _oracle_entropy(p):
    pos = p[p > 0.0]
    return float(-(pos * np.log(pos)).sum())


def test_classify_batch_matches_per_row_oracle():
    dim = 171
    rng = np.random.default_rng(3)
    shared = rng.uniform(0.0, 1.0, dim)
    near = np.zeros(dim); near[0] = 1e-3
    far = np.zeros(dim); far[1] = 1e3
    vectors = [fv(rng.uniform(0.0, 1.0, dim), ("a", "b", "c")[i % 3], f"p{i}")
               for i in range(30)]
    vectors += [fv(shared, "a", "sa"), fv(shared, "b", "sb"),
                fv(near, "a", "near"), fv(far, "b", "far"), fv(-far, "c", "far2")]
    ref = build_reference(vectors)
    queries = [fv(rng.uniform(0.0, 1.0, dim), None, f"q{i}") for i in range(40)]
    queries += [fv(vectors[4].tau, None, "one_zero"),   # zero distance to class b
                fv(shared, None, "two_zero"),            # zero distance to a and b
                fv(np.zeros(dim), None, "underflow")]    # b and c flush to 0.0
    batch = classify_batch(ref, queries)

    for q, got in zip(queries, batch):
        p, log_p, log_d = _oracle_posterior(class_distances(ref, q.tau), dim)
        np.testing.assert_array_equal(got.probabilities, p)
        np.testing.assert_array_equal(got.log_probabilities, log_p)
        np.testing.assert_array_equal(got.log_distances, log_d)
        assert got.entropy == _oracle_entropy(p)
        assert got.predicted == ref.classes[int(np.argmax(p))]
        assert got.patch_id == q.patch_id
    by_id = {q.patch_id: got for q, got in zip(queries, batch)}
    np.testing.assert_array_equal(by_id["one_zero"].probabilities, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(by_id["two_zero"].probabilities, [0.5, 0.5, 0.0])
    flushed = by_id["underflow"]
    assert flushed.probabilities[0] == 1.0
    assert (flushed.probabilities[1:] == 0.0).all()
    assert np.isfinite(flushed.log_probabilities).all()


def test_classify_batch_carries_query_id_and_label():
    ref = simple_ref()
    (post,) = classify_batch(ref, [fv([1.0, 0.5], "b", "x")])
    assert (post.patch_id, post.true_label) == ("x", "b")
    (unlabeled,) = classify_batch(ref, [fv([1.0, 0.5], None)])
    assert (unlabeled.patch_id, unlabeled.true_label) == ("", None)
    np.testing.assert_array_equal(post.probabilities, unlabeled.probabilities)


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros(0)])
def test_classify_batch_rejects_wrong_dimension(bad):
    with pytest.raises(DimensionMismatchError):
        classify_batch(simple_ref(), [fv(bad, None)])


def test_leave_one_out_excludes_matching_id():
    vectors = [fv([0.0, 0.0], "a", "p0"), fv([1.0, 0.0], "a", "p1"),
               fv([5.0, 0.0], "b", "p2")]
    ref = build_reference(vectors)
    included = classify_batch(ref, [vectors[0]])[0]
    excluded = classify_batch(ref, [vectors[0]], leave_one_out=True)[0]
    assert np.exp(included.log_distances[0]) == 0.0
    assert abs(np.exp(excluded.log_distances[0]) - 1.0) <= 1e-12


def test_leave_one_out_matches_per_query_scan():
    rng = np.random.default_rng(8)
    vectors = [fv(rng.standard_normal(3), ("a", "b")[i % 2], f"p{i % 7}")
               for i in range(20)]
    ref = build_reference(vectors)
    queries = vectors[:5] + [fv(rng.standard_normal(3), "a", ""),
                             fv(rng.standard_normal(3), "b", "absent")]
    posts = classify_batch(ref, queries, leave_one_out=True)
    for q, post in zip(queries, posts):
        keep = [v for v in vectors if not q.patch_id or v.patch_id != q.patch_id]
        for j, cls in enumerate(ref.classes):
            brute = min(np.linalg.norm(v.tau - q.tau) for v in keep if v.label == cls)
            assert abs(np.exp(post.log_distances[j]) - brute) <= 1e-12


def test_posterior_normalization_across_dims():
    rng = np.random.default_rng(4)
    for dim in (31, 91, 171):
        for _ in range(5):
            d = 10.0 ** rng.uniform(-6, 3, size=3)
            pts = np.zeros((3, dim))
            for j in range(3):
                pts[j, j] = d[j]
            ref = build_reference([fv(pts[0], "a"), fv(pts[1], "b"), fv(pts[2], "c")])
            post = classify_one(ref, np.zeros(dim))
            assert abs(post.probabilities.sum() - 1.0) <= 1e-12
            assert np.all(post.probabilities >= 0.0)


def test_posterior_monotone_in_distance():
    dim = 9
    base = 1.5
    p_prev = 0.0
    for d1 in (1.4, 1.0, 0.6, 0.3):
        a = np.zeros(dim); a[0] = d1
        b = np.zeros(dim); b[1] = base
        ref = build_reference([fv(a, "a"), fv(b, "b")])
        p = classify_one(ref, np.zeros(dim)).probabilities[0]
        assert p >= p_prev
        p_prev = p


def test_posterior_sharpens_with_dimension():
    p_prev = 0.0
    for dim in (2, 31, 91, 171):
        a = np.zeros(dim); a[0] = 1.0
        b = np.zeros(dim); b[1] = 2.0
        ref = build_reference([fv(a, "a"), fv(b, "b")])
        p = classify_one(ref, np.zeros(dim)).probabilities[0]
        assert p >= p_prev
        p_prev = p


def test_class_permutation_equivariance():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((6, 4))
    labels = ["a", "a", "b", "b", "c", "c"]
    query = rng.standard_normal(4)
    ref = build_reference([fv(p, l) for p, l in zip(pts, labels)])
    post = classify_one(ref, query)
    order = [4, 5, 2, 3, 0, 1]  # classes now appear as c, b, a
    ref2 = build_reference([fv(pts[i], labels[i]) for i in order])
    post2 = classify_one(ref2, query)
    for cls in ("a", "b", "c"):
        i, j = ref.classes.index(cls), ref2.classes.index(cls)
        assert post.probabilities[i] == post2.probabilities[j]
    assert post.predicted == post2.predicted


def test_log_space_matches_naive_for_benign_distances():
    rng = np.random.default_rng(6)
    for dim in (2, 3, 5):
        d = rng.uniform(0.1, 10.0, size=3)
        pts = np.zeros((3, dim))
        pts[0, 0], pts[1, 1 % dim], pts[2, 2 % dim] = d[0], d[1], d[2]
        ref = build_reference([fv(pts[0], "a"), fv(pts[1], "b"), fv(pts[2], "c")])
        post = classify_one(ref, np.zeros(dim))
        dist = np.exp(post.log_distances)
        naive = dist ** (-dim) / (dist ** (-dim)).sum()
        np.testing.assert_allclose(post.probabilities, naive, atol=1e-10)


def test_reference_csv_and_posterior_csv(tmp_path):
    rng = np.random.default_rng(7)
    vectors = [fv(rng.uniform(0.1, 1.0, 4), ("defect_free", "dirt")[i % 2], f"p{i}")
               for i in range(10)]
    feats = tmp_path / "ref.csv"
    write_features_csv(vectors, feats)
    ref = load_reference_csv(feats)
    assert class_counts(ref) == {"defect_free": 5, "dirt": 5}

    posts = classify_batch(ref, vectors)
    out = tmp_path / "posteriors.csv"
    write_posteriors_csv(posts, ref.classes, out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert rows[0]["predicted"] == posts[0].predicted
    got = [float(rows[0][f"p_{c}"]) for c in ref.classes]
    np.testing.assert_array_equal(got, posts[0].probabilities)


def test_unlabeled_reference_rejected():
    with pytest.raises(DataError):
        build_reference([fv([0.0], None), fv([1.0], "b")])


def test_classify_batch_reports_bad_query_index():
    ref = simple_ref()
    queries = [fv([0.5, 0.5], None, "ok"), fv([1.0, 2.0, 3.0], None, "bad")]
    with pytest.raises(DimensionMismatchError, match=r"'bad': dim 3, not 2, at position 1$"):
        classify_batch(ref, queries)


def test_build_reference_refuses_dimension_0():
    with pytest.raises(DataError, match=r"m=0; need m >= 1"):
        build_reference([fv([], "a", "pa"), fv([], "b", "pb")])


def test_classify_batch_refuses_dimension_0():
    ref = LabeledFeatureSet(np.zeros((2, 0)), ("a", "b"), np.array([1, 1]), ("pa", "pb"))
    with pytest.raises(DataError, match=r"m=0; need m >= 1"):
        classify_batch(ref, [fv([], None, "q")])


def test_labels_that_differ_in_trailing_nuls_are_classes_of_their_own():
    labels = ["a", "a\0", "b", "a\0", "a"]
    classes, members = _class_members(labels)
    assert classes == ("a", "a\0", "b")
    assert [rows.tolist() for rows in members] == [[0, 4], [1, 3], [2]]
    ref = build_reference([fv([float(i)], label, f"p{i}") for i, label in enumerate(labels)])
    assert ref.classes == classes and ref.sizes.tolist() == [2, 2, 1]
    assert ref.patch_ids == ("p0", "p4", "p1", "p3", "p2")


# what read_features_csv refuses in a row: a tau that is not 1-D and finite,
# or an (f, psi) that is not a channel
_UNREADABLE = {
    "nan-tau": dict(tau=np.array([0.5, np.nan])),
    "inf-tau": dict(tau=np.array([np.inf, 0.5])),
    "2d-tau": dict(tau=np.zeros((2, 1))),
    "nan-f": dict(frequency=np.nan),
    "inf-f": dict(frequency=np.inf),
    "zero-f": dict(frequency=0.0),
    "nan-psi": dict(phase=np.nan),
}


@pytest.mark.parametrize("bad", _UNREADABLE.values(), ids=_UNREADABLE)
def test_build_reference_refuses_a_vector_its_reader_would(bad):
    vectors = [fv([0.0, 0.0], "a", "p0"), fv([1.0, 1.0], "b", "p1"),
               replace(fv([0.0, 1.0], "a", "p2"), **bad)]
    with pytest.raises(DataError, match="feature vector 'p2': "):
        build_reference(vectors)


@pytest.mark.parametrize("bad", _UNREADABLE.values(), ids=_UNREADABLE)
def test_classify_batch_refuses_a_query_its_reader_would(bad):
    # a NaN tau used to give probabilities [nan, nan] and a predicted class
    queries = [fv([0.5, 0.5], None, "ok"), replace(fv([0.5, 0.5], None, "q1"), **bad)]
    with pytest.raises(DataError, match="feature vector 'q1': "):
        classify_batch(simple_ref(), queries)
