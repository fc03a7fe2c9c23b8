"""Victim-activity analysis over receiver latency traces.

Everything here consumes the same probe traces the modem does, but instead of
demodulating deliberate signalling it characterizes whatever the neighbors
are doing: episodes of elevated latency (one victim operation each), request
rates per time bucket, expensive-commit detection, nearest-neighbor workload
classification over latency histograms, and keystroke timing recovery.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .core import LatencyTrace, trace_read

__all__ = [
    "Episode",
    "default_max_gap",
    "extract_episodes",
    "count_above",
    "MAX_BUCKETS",
    "estimate_request_rate",
    "SplitLabel",
    "classify_split",
    "SplitMetrics",
    "split_detection_metrics",
    "default_bin_edges",
    "FeatureVector",
    "histogram_features",
    "KnnModel",
    "knn_train",
    "knn_classify",
    "train_test_split",
    "ClassificationReport",
    "classification_report",
    "write_classification_report",
    "keystroke_timings",
    "load_labeled_dataset",
    "SPLIT_THRESHOLD_NS",
]

SPLIT_THRESHOLD_NS = 1_000_000
# count_above's largest bucket list: a CSV row each in `analyze rate`
MAX_BUCKETS = 10_000_000


@dataclass(frozen=True)
class Episode:
    """One burst of above-threshold probe samples: a victim operation."""

    start_ns: int  # timestamp of the first above-threshold sample
    end_ns: int  # completion of the last above-threshold sample
    n_samples: int

    @property
    def est_latency_ns(self) -> int:
        """Estimated duration of the victim operation behind this episode."""
        return self.end_ns - self.start_ns


def default_max_gap(trace: LatencyTrace) -> int:
    """3x the median start-to-start probe period of the trace."""
    if len(trace) < 2:
        raise ValueError("need at least 2 samples to derive a max gap")
    return 3 * round(float(np.median(np.diff(trace.timestamps_ns))))


def extract_episodes(
    trace: LatencyTrace, theta_ns: int, max_gap_ns: int | None = None
) -> list[Episode]:
    """Group above-threshold samples into episodes.

    Two consecutive above-threshold samples belong to the same episode when
    their start-to-start gap is at most max_gap_ns; a larger gap starts a new
    episode.  Episode extent runs from the first sample's start to the last
    sample's completion (start + latency).
    """
    if max_gap_ns is None:
        max_gap_ns = default_max_gap(trace)
    if max_gap_ns < 0:
        raise ValueError("max_gap_ns must be nonnegative")
    above = trace.latencies_ns > theta_ns
    ts = trace.timestamps_ns[above]
    if not len(ts):
        return []
    ends = ts + trace.latencies_ns[above]
    first = np.flatnonzero(np.concatenate(([True], np.diff(ts) > max_gap_ns)))
    counts = np.diff(first, append=len(ts))
    return [
        Episode(start, end, count)
        for start, end, count in zip(
            ts[first].tolist(),
            np.maximum.reduceat(ends, first).tolist(),
            counts.tolist(),
        )
    ]


def count_above(trace: LatencyTrace, theta_ns: int, bucket_s: float) -> list[int]:
    """Above-threshold sample counts per time bucket.

    Bucket k covers [k*bucket, (k+1)*bucket) from t=0; a sample exactly on a
    boundary belongs to the bucket it starts.  The list spans through the
    bucket of the last sample (above threshold or not), so quiet stretches
    show up as zeros.  More than MAX_BUCKETS buckets is a ValueError.
    """
    if not 0 < bucket_s * 1e9 < math.inf:
        raise ValueError("bucket_s must be positive and finite")
    bucket_ns = round(bucket_s * 1e9)
    if bucket_ns == 0:
        raise ValueError(f"bucket_s={bucket_s} rounds to a zero-width bucket")
    if len(trace) == 0:
        return []
    ts = trace.timestamps_ns
    if ts[0] < 0:
        raise ValueError("timestamps must be nonnegative: buckets start at t=0")
    n_buckets = int(ts[-1]) // bucket_ns + 1
    if n_buckets > MAX_BUCKETS:
        fits_s = (int(ts[-1]) // MAX_BUCKETS + 1) / 1e9
        raise ValueError(
            f"bucket_s={bucket_s} makes {n_buckets:,} buckets, over the limit of "
            f"{MAX_BUCKETS:,}; the smallest bucket_s that fits is {fits_s!r}"
        )
    above = ts[trace.latencies_ns > theta_ns] // bucket_ns
    return np.bincount(above, minlength=n_buckets).tolist()


def estimate_request_rate(counts: Sequence[int], samples_per_request: float = 10.0) -> list[float]:
    """Victim requests per bucket given a profiled samples-per-request factor.

    The factor is workload- and hardware-specific; 10 probe hits per request
    is the bundled profiling default and should be re-measured per target.
    """
    if not 0 < samples_per_request < math.inf:  # NaN fails too
        raise ValueError("samples_per_request must be positive and finite")
    return [c / samples_per_request for c in counts]


class SplitLabel(str, Enum):
    SPLIT = "split"
    NO_SPLIT = "no-split"


def classify_split(episode: Episode, split_threshold_ns: int = SPLIT_THRESHOLD_NS) -> SplitLabel:
    """An episode strictly longer than the threshold is an expensive commit
    (e.g. a B-tree node split); at or below is an ordinary operation."""
    return SplitLabel.SPLIT if episode.est_latency_ns > split_threshold_ns else SplitLabel.NO_SPLIT


@dataclass(frozen=True)
class SplitMetrics:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def split_detection_metrics(
    episodes: Sequence[Episode],
    truth: Sequence[tuple[int, bool]],
    *,
    split_threshold_ns: int = SPLIT_THRESHOLD_NS,
    tol_ns: int = 10_000_000,
) -> SplitMetrics:
    """Score split detection against ground-truth (start_ns, is_split) ops.

    Each truth op is matched to the unused episode with the nearest start
    within tol_ns.  Unmatched split ops count as misses; unmatched episodes
    classified as splits count as false alarms.  tol_ns must be nonnegative.
    """
    if tol_ns < 0:
        raise ValueError(f"tol_ns must be nonnegative, got {tol_ns}")
    episodes = sorted(episodes, key=lambda e: e.start_ns)
    used = [False] * len(episodes)
    starts = [e.start_ns for e in episodes]
    tp = fp = fn = tn = 0
    j = 0
    for op_start, is_split in sorted(truth):
        while j < len(episodes) and (used[j] or starts[j] < op_start - tol_ns):
            j += 1
        best = None
        for k in range(j, len(episodes)):
            if used[k]:
                continue
            if starts[k] > op_start + tol_ns:
                break
            if best is None or abs(starts[k] - op_start) < abs(starts[best] - op_start):
                best = k
        if best is None:
            if is_split:
                fn += 1
            else:
                tn += 1
            continue
        used[best] = True
        detected = classify_split(episodes[best], split_threshold_ns) is SplitLabel.SPLIT
        if is_split and detected:
            tp += 1
        elif is_split:
            fn += 1
        elif detected:
            fp += 1
        else:
            tn += 1
    for k, u in enumerate(used):
        if not u and classify_split(episodes[k], split_threshold_ns) is SplitLabel.SPLIT:
            fp += 1
    return SplitMetrics(tp=tp, fp=fp, fn=fn, tn=tn)


def default_bin_edges() -> np.ndarray:
    """32 log-spaced latency bins spanning 10 us to 10 ms (in ns)."""
    return np.logspace(np.log10(10_000), np.log10(10_000_000), 33)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Latency histogram of one workload sample."""

    counts: np.ndarray
    edges: np.ndarray
    label: str | None = None

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def normalized(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            return np.zeros(len(self.counts))
        return self.counts / total


def histogram_features(
    latencies_ns: Iterable[int],
    edges: np.ndarray | None = None,
    label: str | None = None,
) -> FeatureVector:
    """Histogram latencies into the given bin edges.

    Values outside the edge range are clamped into the end bins so the counts
    always sum to the number of inputs.
    """
    if edges is None:
        edges = default_bin_edges()
    edges = np.asarray(edges, dtype=float)
    if len(edges) < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    values = np.asarray(list(latencies_ns), dtype=float)
    if values.size:
        values = np.clip(values, edges[0], edges[-1])
    counts, _ = np.histogram(values, bins=edges)
    return FeatureVector(counts=counts.astype(np.int64), edges=edges, label=label)


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Brute-force k-nearest-neighbors over normalized latency histograms."""

    features: tuple[FeatureVector, ...]
    k: int
    _matrix: np.ndarray  # normalized training histograms, row per vector


def knn_train(features: Sequence[FeatureVector], k: int = 5) -> KnnModel:
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(features) < k:
        raise ValueError(f"need at least k={k} training vectors, got {len(features)}")
    edges = features[0].edges
    for fv in features:
        if fv.label is None:
            raise ValueError("training vectors must be labeled")
        if len(fv.edges) != len(edges) or not np.allclose(fv.edges, edges):
            raise ValueError("all training vectors must share bin edges")
    matrix = np.stack([fv.normalized() for fv in features])
    return KnnModel(features=tuple(features), k=k, _matrix=matrix)


def knn_classify(model: KnnModel, fv: FeatureVector) -> str:
    """Label by majority vote of the k nearest training vectors (Euclidean
    distance over normalized histograms); vote ties go to the class of the
    single nearest neighbor among the tied classes."""
    if len(fv.edges) != model._matrix.shape[1] + 1 or not np.allclose(
        fv.edges, model.features[0].edges
    ):
        raise ValueError("query vector does not share the model's bin edges")
    dists = np.linalg.norm(model._matrix - fv.normalized(), axis=1)
    order = np.argsort(dists, kind="stable")[: model.k]
    votes = Counter(model.features[i].label for i in order)
    top = max(votes.values())
    tied = {label for label, n in votes.items() if n == top}
    if len(tied) == 1:
        return tied.pop()
    for i in order:
        if model.features[i].label in tied:
            return model.features[i].label
    raise AssertionError("unreachable: tied classes vanished")


def train_test_split(
    features: Sequence[FeatureVector], test_frac: float, seed: int
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Per-class seeded shuffle split; every class splits at the same ratio."""
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must be in (0, 1)")
    rng = random.Random(seed)
    by_class: dict[str, list[FeatureVector]] = {}
    for fv in features:
        if fv.label is None:
            raise ValueError("split requires labeled vectors")
        by_class.setdefault(fv.label, []).append(fv)
    train: list[FeatureVector] = []
    test: list[FeatureVector] = []
    for label in sorted(by_class):
        group = by_class[label][:]
        rng.shuffle(group)
        n_test = max(1, round(len(group) * test_frac)) if len(group) > 1 else 0
        test.extend(group[:n_test])
        train.extend(group[n_test:])
    return train, test


@dataclass(frozen=True)
class ClassificationReport:
    classes: tuple[str, ...]
    support: dict
    precision: dict
    recall: dict
    f1: dict
    accuracy: float
    n_total: int


def classification_report(y_true: Sequence[str], y_pred: Sequence[str]) -> ClassificationReport:
    if len(y_true) != len(y_pred) or not y_true:
        raise ValueError("need equal-length, nonempty truth and prediction lists")
    classes = tuple(sorted(set(y_true) | set(y_pred)))
    support, precision, recall, f1 = {}, {}, {}, {}
    for cls in classes:
        tp = sum(t == cls and p == cls for t, p in zip(y_true, y_pred))
        fp = sum(t != cls and p == cls for t, p in zip(y_true, y_pred))
        fn = sum(t == cls and p != cls for t, p in zip(y_true, y_pred))
        support[cls] = tp + fn
        precision[cls] = tp / (tp + fp) if (tp + fp) else 0.0
        recall[cls] = tp / (tp + fn) if (tp + fn) else 0.0
        denom = precision[cls] + recall[cls]
        f1[cls] = 2 * precision[cls] * recall[cls] / denom if denom else 0.0
    accuracy = sum(t == p for t, p in zip(y_true, y_pred)) / len(y_true)
    return ClassificationReport(
        classes=classes,
        support=support,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        n_total=len(y_true),
    )


def write_classification_report(report: ClassificationReport, sink: Union[str, Path, IO[str]]) -> None:
    """CSV with one row per class plus an overall accuracy row."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="ascii", newline="") as fh:
            write_classification_report(report, fh)
        return
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["class", "support", "precision", "recall", "f1", "accuracy"])
    for cls in report.classes:
        writer.writerow(
            [
                cls,
                report.support[cls],
                f"{report.precision[cls]:.4f}",
                f"{report.recall[cls]:.4f}",
                f"{report.f1[cls]:.4f}",
                "",
            ]
        )
    writer.writerow(["overall", report.n_total, "", "", "", f"{report.accuracy:.4f}"])


def keystroke_timings(
    trace: LatencyTrace,
    theta_ns: int,
    min_spacing_ns: int = 50_000_000,
    max_gap_ns: int | None = None,
) -> tuple[list[int], list[int]]:
    """Recover keystroke event times and inter-keystroke deltas.

    Events are episode starts; an episode starting within min_spacing of the
    previously accepted event is treated as ringing from the same keystroke
    and dropped.  Returns (event times, successive deltas).
    """
    if min_spacing_ns < 0:
        raise ValueError("min_spacing_ns must be nonnegative")
    events: list[int] = []
    for ep in extract_episodes(trace, theta_ns, max_gap_ns):
        if not events or ep.start_ns - events[-1] >= min_spacing_ns:
            events.append(ep.start_ns)
    deltas = [events[i + 1] - events[i] for i in range(len(events) - 1)]
    return events, deltas


def load_labeled_dataset(directory: Union[str, Path]) -> list[tuple[LatencyTrace, str]]:
    """Read a labeled trace directory: labels.csv (filename,label) plus one
    trace CSV per row, all in the same directory.  A filename that is
    empty, absolute, holds a path separator, or is `.` or `..` raises
    ValueError."""
    directory = Path(directory)
    labels_path = directory / "labels.csv"
    if not labels_path.is_file():
        raise FileNotFoundError(f"missing {labels_path}")
    out: list[tuple[LatencyTrace, str]] = []
    with open(labels_path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["filename", "label"]:
            raise ValueError("labels.csv must start with header 'filename,label'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"bad labels.csv row: {row!r}")
            filename, label = row
            if filename in ("", ".", "..") or Path(filename).name != filename:
                raise ValueError(
                    f"labels.csv line {reader.line_num}: {filename!r} is not a file name"
                    " in the dataset directory"
                )
            out.append((trace_read(directory / filename), label))
    if not out:
        raise ValueError("labels.csv lists no samples")
    return out
