"""Episode extraction, counting, split detection, k-NN, keystrokes."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsyncchan import analyzer
from fsyncchan.analyzer import (
    Episode,
    FeatureVector,
    SplitLabel,
    classification_report,
    classify_split,
    count_above,
    default_bin_edges,
    default_max_gap,
    estimate_request_rate,
    extract_episodes,
    histogram_features,
    keystroke_timings,
    knn_classify,
    knn_train,
    load_labeled_dataset,
    split_detection_metrics,
    train_test_split,
    write_classification_report,
)
from fsyncchan.core import LatencyTrace, trace_write
from synthgen import (
    ESCAPING_NAMES,
    episodes_reference,
    escaping_dataset,
    exact_sq_distances,
    knn_reference,
    random_episode_trace,
    trace_from_pairs,
    victim_trace,
    workload_latencies,
)

# ---------------------------------------------------------------------------
# episodes


def test_extract_episodes_merges_overlapping_burst():
    trace = LatencyTrace([0, 60_000, 120_000], [80_000] * 3)
    episodes = extract_episodes(trace, theta_ns=50_000, max_gap_ns=200_000)
    assert episodes == [Episode(start_ns=0, end_ns=200_000, n_samples=3)]
    assert episodes[0].est_latency_ns == 200_000


def test_extract_episodes_gap_boundary_is_inclusive():
    trace = LatencyTrace([0, 100_000], [60_000, 60_000])
    same = extract_episodes(trace, theta_ns=50_000, max_gap_ns=100_000)
    assert len(same) == 1 and same[0].n_samples == 2
    split = extract_episodes(trace, theta_ns=50_000, max_gap_ns=99_999)
    assert len(split) == 2


def test_extract_episodes_threshold_is_strict():
    trace = LatencyTrace([0, 10_000], [50_000, 50_001])
    episodes = extract_episodes(trace, theta_ns=50_000, max_gap_ns=10**6)
    assert episodes == [Episode(10_000, 10_000 + 50_001, 1)]


def test_extract_episodes_end_is_max_completion():
    # a long early fsync outlives the last sample of the episode
    trace = LatencyTrace([0, 20_000], [500_000, 60_000])
    episodes = extract_episodes(trace, 50_000, max_gap_ns=100_000)
    assert episodes[0].end_ns == 500_000


def test_extract_episodes_quiet_trace_and_empty():
    quiet = LatencyTrace([i * 10_000 for i in range(20)], [1_000] * 20)
    assert extract_episodes(quiet, theta_ns=50_000, max_gap_ns=10**6) == []
    assert extract_episodes(LatencyTrace([], []), theta_ns=50_000, max_gap_ns=10**6) == []


def test_default_max_gap():
    trace = LatencyTrace([0, 10, 30, 60, 100], [1] * 5)
    assert default_max_gap(trace) == 3 * 25
    with pytest.raises(ValueError):
        default_max_gap(LatencyTrace([0], [1]))


def test_extract_episodes_default_gap_needs_samples():
    with pytest.raises(ValueError):
        extract_episodes(LatencyTrace([0], [1]), theta_ns=0)
    with pytest.raises(ValueError):
        extract_episodes(LatencyTrace([0, 5], [1, 1]), 0, max_gap_ns=-1)


def test_extract_episodes_matches_reference_seeded():
    for i in range(100):
        rng = random.Random(5000 + i)
        samples = random_episode_trace(rng)
        theta = rng.choice((32_085, 50_000, 70_000))
        max_gap = rng.randrange(50_000, 3_000_000)
        got = extract_episodes(trace_from_pairs(samples), theta, max_gap)
        assert got == episodes_reference(samples, theta, max_gap)


@settings(max_examples=200)
@given(
    raw=st.lists(st.tuples(st.integers(0, 300_000), st.integers(1, 400_000)), max_size=50),
    theta=st.integers(0, 200_000),
    max_gap=st.integers(0, 500_000),
)
def test_extract_episodes_matches_reference_property(raw, theta, max_gap):
    t = 0
    samples = []
    for gap, lat in raw:
        t += gap
        samples.append((t, lat))
    got = extract_episodes(trace_from_pairs(samples), theta, max_gap)
    assert got == episodes_reference(samples, theta, max_gap)


def test_episodes_of_simulated_victim_ops():
    # contended spread kept narrow so no mid-op draw dips under theta
    windows = [(2_000_000 + i * 20_000_000, 2_400_000 + i * 20_000_000) for i in range(5)]
    trace = victim_trace(windows, seed=21, contended=(120_000, 10_000))
    episodes = extract_episodes(trace, theta_ns=70_000, max_gap_ns=500_000)
    assert len(episodes) == 5
    for ep, (start, end) in zip(episodes, windows):
        dur = end - start
        assert abs(ep.start_ns - start) < 50_000
        assert dur - 50_000 <= ep.est_latency_ns <= dur + 250_000


# ---------------------------------------------------------------------------
# counting and rates


def test_count_above_buckets():
    trace = LatencyTrace(
        [500_000_000, 1_000_000_000, 2_700_000_000],  # bucket 0, boundary -> 1, bucket 2
        [90_000, 90_000, 10_000],  # above, above, below
    )
    counts = count_above(trace, theta_ns=50_000, bucket_s=1.0)
    assert counts == [1, 1, 0]


def test_count_above_validation_and_empty():
    assert count_above(LatencyTrace([], []), 0, 1.0) == []
    with pytest.raises(ValueError):
        count_above(LatencyTrace([], []), 0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        count_above(LatencyTrace([-5, 5], [10, 10]), 0, 1.0)
    # buckets are whole ns: one that rounds to 0 ns is rejected, as are
    # infinite and NaN widths, with or without samples
    trace = LatencyTrace([5], [10])
    for bucket_s in (4e-10, float("inf"), 1e300, float("nan")):
        for t in (trace, LatencyTrace([], [])):
            with pytest.raises(ValueError, match="bucket"):
                count_above(t, 0, bucket_s)
    assert count_above(trace, 0, 6e-10) == [0, 0, 0, 0, 0, 1]  # rounds to 1 ns


def test_count_above_bucket_limit(monkeypatch):
    # at most MAX_BUCKETS buckets; the error names the smallest width that fits
    trace = LatencyTrace([0, 1_000], [90_000, 90_000])
    monkeypatch.setattr(analyzer, "MAX_BUCKETS", 100)
    with pytest.raises(ValueError, match=r"1,001 buckets, over the limit of 100; .* is 1.1e-08"):
        count_above(trace, 50_000, 1e-9)
    with pytest.raises(ValueError, match="101 buckets"):
        count_above(trace, 50_000, 1e-8)
    assert len(count_above(trace, 50_000, 1.1e-8)) == 91


def test_estimate_request_rate():
    assert estimate_request_rate([20, 40]) == [2.0, 4.0]
    assert estimate_request_rate([7], samples_per_request=3.5) == [2.0]
    with pytest.raises(ValueError):
        estimate_request_rate([1], samples_per_request=0)
    for factor in (math.nan, math.inf):
        with pytest.raises(ValueError, match="samples_per_request must be positive and finite"):
            estimate_request_rate([1], samples_per_request=factor)


def test_request_rate_of_simulated_victim():
    # 5 ops/s, each window wide enough for ~10 contended probe hits
    windows = [(i * 200_000_000, i * 200_000_000 + 940_000) for i in range(1, 50)]
    trace = victim_trace(windows, seed=3, contended=(90_000, 10_000))
    counts = count_above(trace, theta_ns=54_000, bucket_s=1.0)
    rates = estimate_request_rate(counts, samples_per_request=10.0)
    # interior buckets should sit near 5 requests/s
    interior = rates[1:-1]
    assert all(3.0 < r < 7.0 for r in interior)
    assert abs(sum(interior) / len(interior) - 5.0) < 1.0


# ---------------------------------------------------------------------------
# split detection


def test_classify_split_strict_threshold():
    assert classify_split(Episode(0, 1_000_000, 3)) is SplitLabel.NO_SPLIT
    assert classify_split(Episode(0, 1_000_001, 3)) is SplitLabel.SPLIT
    assert classify_split(Episode(0, 500, 1), split_threshold_ns=499) is SplitLabel.SPLIT


def test_split_detection_metrics_hand_case():
    episodes = [
        Episode(0, 2_000_000, 10),  # split, matches op 0
        Episode(20_000_000, 20_400_000, 4),  # no-split, matches op 1
        Episode(60_000_000, 62_000_000, 9),  # split, matches no op -> fp
    ]
    truth = [(0, True), (20_000_000, False), (40_000_000, True)]
    m = split_detection_metrics(episodes, truth)
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
    assert m.precision == 0.5
    assert m.recall == 0.5
    assert m.f1 == 0.5


def test_split_detection_matches_nearest_start():
    episodes = [Episode(995_000, 3_000_000, 5), Episode(1_400_000, 3_500_000, 5)]
    truth = [(1_000_000, True)]
    m = split_detection_metrics(episodes, truth, tol_ns=10_000_000)
    # op matches the closer episode; the further one is an unmatched split
    assert m.tp == 1 and m.fp == 1


def test_split_detection_out_of_tolerance():
    episodes = [Episode(50_000_000, 52_000_000, 5)]
    truth = [(0, True)]
    m = split_detection_metrics(episodes, truth, tol_ns=10_000_000)
    assert m.fn == 1 and m.fp == 1 and m.tp == 0


def test_split_detection_rejects_negative_tolerance():
    episodes = [Episode(0, 2_000_000, 10)]
    # tol 0 matches an exact start only; a negative tol matches nothing at all
    assert split_detection_metrics(episodes, [(0, True)], tol_ns=0).tp == 1
    with pytest.raises(ValueError, match="tol_ns must be nonnegative, got -1"):
        split_detection_metrics(episodes, [(0, True)], tol_ns=-1)


def test_split_metrics_degenerate_rates():
    from fsyncchan.analyzer import SplitMetrics

    z = SplitMetrics(0, 0, 0, 5)
    assert z.precision == 0.0 and z.recall == 0.0 and z.f1 == 0.0


# ---------------------------------------------------------------------------
# histograms


def test_default_bin_edges_shape():
    edges = default_bin_edges()
    assert len(edges) == 33
    assert edges[0] == pytest.approx(10_000)
    assert edges[-1] == pytest.approx(10_000_000)
    assert np.all(np.diff(edges) > 0)


def test_histogram_features_counts_and_clipping():
    fv = histogram_features([15_000, 15_500, 5_000_000])
    assert fv.total == 3
    assert fv.counts.sum() == 3
    # out-of-range values land in the end bins instead of vanishing
    clipped = histogram_features([1, 10_000, 999_999_999_999])
    assert clipped.total == 3
    assert clipped.counts[0] == 2
    assert clipped.counts[-1] == 1


def test_histogram_features_empty_and_label():
    fv = histogram_features([], label="idle")
    assert fv.total == 0
    assert fv.label == "idle"
    assert np.all(fv.normalized() == 0.0)


def test_histogram_features_custom_edges_validation():
    fv = histogram_features([5, 15], edges=np.array([0.0, 10.0, 20.0]))
    assert list(fv.counts) == [1, 1]
    with pytest.raises(ValueError):
        histogram_features([1], edges=np.array([5.0]))
    with pytest.raises(ValueError):
        histogram_features([1], edges=np.array([5.0, 5.0]))


def test_normalized_sums_to_one():
    fv = histogram_features(workload_latencies("update_small", 100, random.Random(0)))
    assert fv.normalized().sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# k-NN


def _fv(counts, label=None, edges=None):
    if edges is None:
        edges = np.arange(len(counts) + 1, dtype=float)
    return FeatureVector(counts=np.asarray(counts, dtype=np.int64), edges=edges, label=label)


def test_knn_identity_query():
    train = [_fv([5, 0, 0], "a"), _fv([0, 5, 0], "b"), _fv([0, 0, 5], "c")]
    model = knn_train(train, k=1)
    assert knn_classify(model, _fv([10, 0, 0])) == "a"
    assert knn_classify(model, _fv([0, 3, 0])) == "b"


def test_knn_majority_vote():
    train = [
        _fv([9, 1, 0], "a"),
        _fv([8, 2, 0], "a"),
        _fv([0, 1, 9], "b"),
        _fv([0, 2, 8], "b"),
        _fv([1, 0, 9], "b"),
    ]
    model = knn_train(train, k=5)
    assert knn_classify(model, _fv([0, 0, 1])) == "b"
    assert knn_classify(model, _fv([1, 0, 0])) == "b"  # 3 b's outvote 2 a's at k=5


def test_knn_vote_tie_goes_to_nearest():
    train = [_fv([10, 0], "near"), _fv([0, 10], "far"), _fv([0, 9], "far"), _fv([9, 1], "near")]
    model = knn_train(train, k=2)
    # k=2 vote is 1-1; the nearest neighbor's class must win
    assert knn_classify(model, _fv([1, 0])) == "near"
    assert knn_classify(model, _fv([0, 1])) == "far"


def test_knn_distance_tie_prefers_earlier_training_row():
    # two identical training vectors with different labels: stable ordering
    # keeps the first, and the k=1 vote follows it
    train = [_fv([3, 3], "first"), _fv([3, 3], "second"), _fv([0, 1], "other")]
    model = knn_train(train, k=1)
    assert knn_classify(model, _fv([1, 1])) == "first"


def test_knn_train_validation():
    train = [_fv([1, 0], "a"), _fv([0, 1], "b")]
    with pytest.raises(ValueError):
        knn_train(train, k=0)
    with pytest.raises(ValueError):
        knn_train(train, k=3)
    with pytest.raises(ValueError):
        knn_train([_fv([1, 0]), _fv([0, 1], "b")], k=1)
    with pytest.raises(ValueError):
        knn_train([_fv([1, 0], "a"), _fv([0, 1, 0], "b")], k=1)


def test_knn_classify_edge_mismatch():
    model = knn_train([_fv([1, 0], "a")], k=1)
    with pytest.raises(ValueError):
        knn_classify(model, _fv([1, 0, 0]))


def test_knn_scale_invariance():
    train = [_fv([5, 1, 0], "a"), _fv([0, 1, 5], "b")]
    model = knn_train(train, k=1)
    q = [2, 1, 0]
    assert knn_classify(model, _fv(q)) == knn_classify(model, _fv([v * 50 for v in q]))


def _random_knn_case(rng, n_bins=6):
    n_train = rng.randrange(3, 16)
    labels = ["a", "b", "c"]
    train = [
        _fv([rng.randrange(0, 25) for _ in range(n_bins)], rng.choice(labels))
        for _ in range(n_train)
    ]
    for fv in train:
        if fv.counts.sum() == 0:
            fv.counts[rng.randrange(n_bins)] = 1
    query = _fv([rng.randrange(0, 25) for _ in range(n_bins)])
    if query.counts.sum() == 0:
        query.counts[0] = 1
    k = rng.randrange(1, n_train + 1)
    return train, k, query


def test_knn_matches_reference_seeded():
    checked = 0
    for i in range(60):
        rng = random.Random(9_000 + i)
        train, k, query = _random_knn_case(rng)
        dists = exact_sq_distances(train, query)
        if len(set(dists)) != len(dists):
            continue  # exact tie: ordering is pinned by the dedicated test
        model = knn_train(train, k=k)
        assert knn_classify(model, query) == knn_reference(train, k, query)
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# train/test split and reports


def test_train_test_split_ratio_and_disjoint():
    features = [_fv([i + 1, 0], "a") for i in range(10)] + [
        _fv([0, i + 1], "b") for i in range(10)
    ]
    train, test = train_test_split(features, 0.3, seed=4)
    assert len(test) == 6 and len(train) == 14
    assert sum(fv.label == "a" for fv in test) == 3
    assert sum(fv.label == "b" for fv in test) == 3
    assert {id(fv) for fv in train}.isdisjoint({id(fv) for fv in test})
    again_train, again_test = train_test_split(features, 0.3, seed=4)
    assert [id(f) for f in again_train] == [id(f) for f in train]
    assert [id(f) for f in again_test] == [id(f) for f in test]


def test_train_test_split_single_sample_class_stays_in_train():
    features = [_fv([1, 0], "solo")] + [_fv([0, i + 1], "b") for i in range(4)]
    train, test = train_test_split(features, 0.25, seed=0)
    assert all(fv.label != "solo" for fv in test)
    assert any(fv.label == "solo" for fv in train)


def test_train_test_split_validation():
    with pytest.raises(ValueError):
        train_test_split([_fv([1], "a")], 0.0, 1)
    with pytest.raises(ValueError):
        train_test_split([_fv([1])], 0.5, 1)


def test_classification_report_hand_values():
    rep = classification_report(["a", "a", "b", "b"], ["a", "b", "b", "b"])
    assert rep.classes == ("a", "b")
    assert rep.support == {"a": 2, "b": 2}
    assert rep.precision["a"] == 1.0
    assert rep.precision["b"] == pytest.approx(2 / 3)
    assert rep.recall["a"] == 0.5
    assert rep.recall["b"] == 1.0
    assert rep.accuracy == 0.75
    assert rep.n_total == 4
    with pytest.raises(ValueError):
        classification_report([], [])
    with pytest.raises(ValueError):
        classification_report(["a"], ["a", "b"])


def test_write_classification_report(tmp_path):
    rep = classification_report(["a", "a", "b", "b"], ["a", "b", "b", "b"])
    out = tmp_path / "report.csv"
    write_classification_report(rep, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "class,support,precision,recall,f1,accuracy"
    assert lines[1] == "a,2,1.0000,0.5000,0.6667,"
    assert lines[2] == "b,2,0.6667,1.0000,0.8000,"
    assert lines[3] == "overall,4,,,,0.7500"


# ---------------------------------------------------------------------------
# keystrokes


def test_keystroke_timings_debounce():
    starts = [at + i * 30_000 for at in (0, 30_000_000, 200_000_000) for i in range(3)]
    trace = LatencyTrace(starts, [90_000] * len(starts))
    events, deltas = keystroke_timings(trace, theta_ns=50_000, max_gap_ns=1_000_000)
    # the 30 ms echo is inside the 50 ms dead time; the 200 ms one is real
    assert events == [0, 200_000_000]
    assert deltas == [200_000_000]


def test_keystroke_timings_empty_and_single():
    assert keystroke_timings(LatencyTrace([], []), 50_000, max_gap_ns=10**6) == ([], [])
    one = LatencyTrace([0], [90_000])
    assert keystroke_timings(one, 50_000, max_gap_ns=10**6) == ([0], [])


def test_keystroke_timings_validation():
    with pytest.raises(ValueError):
        keystroke_timings(LatencyTrace([], []), 0, min_spacing_ns=-1, max_gap_ns=1)


def test_keystroke_recovery_from_simulated_typing():
    key_times = [5_000_000 + i * 150_000_000 for i in range(8)]
    windows = [(t, t + 150_000) for t in key_times]
    trace = victim_trace(windows, seed=9, contended=(90_000, 10_000))
    events, deltas = keystroke_timings(trace, theta_ns=54_000)
    assert len(events) == len(key_times)
    for got, want in zip(events, key_times):
        assert abs(got - want) < 100_000  # within one probe period
    assert all(abs(d - 150_000_000) < 200_000 for d in deltas)


# ---------------------------------------------------------------------------
# labeled datasets


def _write_trace(path, latencies, spacing=100_000):
    trace_write(LatencyTrace([i * spacing for i in range(len(latencies))], latencies), path)


def test_load_labeled_dataset(tmp_path):
    _write_trace(tmp_path / "a.csv", [10_000, 90_000])
    _write_trace(tmp_path / "b.csv", [12_000, 11_000])
    (tmp_path / "labels.csv").write_text("filename,label\na.csv,busy\nb.csv,idle\n")
    data = load_labeled_dataset(tmp_path)
    assert [(len(t), label) for t, label in data] == [(2, "busy"), (2, "idle")]


def test_load_labeled_dataset_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_labeled_dataset(tmp_path)
    (tmp_path / "labels.csv").write_text("file,tag\n")
    with pytest.raises(ValueError, match="header"):
        load_labeled_dataset(tmp_path)
    (tmp_path / "labels.csv").write_text("filename,label\n")
    with pytest.raises(ValueError, match="no samples"):
        load_labeled_dataset(tmp_path)
    (tmp_path / "labels.csv").write_text("filename,label\nx.csv,busy,extra\n")
    with pytest.raises(ValueError, match="bad labels.csv row"):
        load_labeled_dataset(tmp_path)


@pytest.mark.parametrize("name", ESCAPING_NAMES)
def test_load_labeled_dataset_rejects_names_outside_directory(tmp_path, name):
    data = escaping_dataset(tmp_path, name)
    with pytest.raises(ValueError, match="labels.csv line 3: .* is not a file name"):
        load_labeled_dataset(data)
