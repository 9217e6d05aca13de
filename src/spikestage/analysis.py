"""Offline scoring: dead-zone filtering, event matching, accuracy metrics.

Events are compared against ground-truth annotations by greedy one-to-one
matching in time order.  The resulting confusion matrix is 3x3 with rows =
truth and columns = prediction, in class order (CS, SS, F).  Unmatched
annotations count as predicted F (missed); unmatched events count as true F
(spurious).  Per-class accuracy is one-vs-rest:

    accuracy = (Tp + Tn) / (Tp + Tn + Fp + Fn)

and the overall accuracy is the unweighted mean of the three per-class
accuracies.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .nn import NUM_CLASSES, SpikeClass


@dataclass(frozen=True)
class PostprocConfig:
    # After every retained SS event, all events closer than this are
    # physiologically implausible echoes and are discarded.  Zones are
    # opened by retained SS events only; CS events never open one.
    dead_zone_ms: float = 4.0

    def __post_init__(self):
        if self.dead_zone_ms < 0:
            raise ValidationError("dead_zone_ms must be non-negative")


@dataclass
class ConfusionMatrix:
    """Counts[true, predicted] in class order (CS, SS, F)."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    )

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (NUM_CLASSES, NUM_CLASSES):
            raise ValidationError("confusion matrix must be 3x3")
        if np.any(self.counts < 0):
            raise ValidationError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def add(self, true: SpikeClass, predicted: SpikeClass) -> None:
        self.counts[true, predicted] += 1


def apply_dead_zone(events, cfg: PostprocConfig, sample_rate_hz: float):
    """Drop events inside the dead zone opened by each retained SS event.

    Zones are half-open: an event exactly dead_zone_ms after an SS event
    survives.  Discarded events (of any class) never open a zone, so the
    first event of every burst is always kept and the operation is
    idempotent.  Events must be sorted by strictly increasing timestamp.
    """
    if sample_rate_hz <= 0:
        raise ValidationError("sample_rate_hz must be positive")
    zone_ticks = cfg.dead_zone_ms * sample_rate_hz / 1000.0
    kept = []
    zone_end = -1.0  # first tick past the active zone, exclusive bound
    prev_ts = None
    for event in events:
        if prev_ts is not None and event.timestamp <= prev_ts:
            raise ValidationError("events must be sorted by strictly increasing timestamp")
        prev_ts = event.timestamp
        if event.timestamp < zone_end:
            continue
        kept.append(event)
        if event.klass is SpikeClass.SS:
            zone_end = event.timestamp + zone_ticks
    return kept


def match_events(
    events,
    annotations,
    sample_rate_hz: float,
    tolerance_ms: float = 1.0,
) -> ConfusionMatrix:
    """Greedy one-to-one matching of events against annotations.

    Walking both lists in time order, each event claims the nearest
    still-unclaimed annotation within the tolerance.  Every annotation and
    every event lands in the matrix exactly once, so

        matched + missed   == len(annotations)
        matched + spurious == len(events)
    """
    if sample_rate_hz <= 0:
        raise ValidationError("sample_rate_hz must be positive")
    if tolerance_ms < 0:
        raise ValidationError("tolerance_ms must be non-negative")
    tol_ticks = tolerance_ms * sample_rate_hz / 1000.0

    cm = ConfusionMatrix()
    ann = list(annotations)
    claimed = [False] * len(ann)
    j = 0  # frontier: annotations below it are claimed or missed
    for event in events:
        t = event.timestamp
        # Annotations now out of reach of this and all later events are misses.
        while j < len(ann) and (claimed[j] or ann[j].sample_index < t - tol_ticks):
            if not claimed[j]:
                cm.add(ann[j].label, SpikeClass.F)
            j += 1
        # Among unclaimed in-window annotations, take the nearest (ties: earliest).
        best = None
        k = j
        while k < len(ann) and ann[k].sample_index <= t + tol_ticks:
            if not claimed[k] and (
                best is None or abs(ann[k].sample_index - t) < abs(ann[best].sample_index - t)
            ):
                best = k
            k += 1
        if best is None:
            cm.add(SpikeClass.F, event.klass)  # spurious event
        else:
            claimed[best] = True
            cm.add(ann[best].label, event.klass)
    for idx in range(j, len(ann)):
        if not claimed[idx]:
            cm.add(ann[idx].label, SpikeClass.F)
    return cm


def _one_vs_rest(cm: ConfusionMatrix, klass: SpikeClass) -> tuple[int, int, int, int]:
    counts = cm.counts
    tp = int(counts[klass, klass])
    fn = int(counts[klass, :].sum()) - tp
    fp = int(counts[:, klass].sum()) - tp
    tn = cm.total - tp - fn - fp
    return tp, tn, fp, fn


def accuracy(cm: ConfusionMatrix, klass: SpikeClass) -> float:
    """One-vs-rest accuracy of a single class."""
    if cm.total == 0:
        raise ValidationError("cannot compute accuracy of an empty matrix")
    tp, tn, fp, fn = _one_vs_rest(cm, klass)
    return (tp + tn) / (tp + tn + fp + fn)


def overall_accuracy(cm: ConfusionMatrix) -> float:
    """Unweighted mean of the three per-class accuracies."""
    return sum(accuracy(cm, k) for k in SpikeClass) / NUM_CLASSES


def f1_with_flag(cm: ConfusionMatrix, klass: SpikeClass) -> tuple[float, bool]:
    """F1 score and whether it is well defined.

    With Tp = 0 and any Fp or Fn, precision or recall is 0 (or undefined)
    and the score is reported as 0.0 with defined=False.
    """
    if cm.total == 0:
        raise ValidationError("cannot compute f1 of an empty matrix")
    tp, _, fp, fn = _one_vs_rest(cm, klass)
    if tp == 0:
        if fp == 0 and fn == 0:
            return 1.0, True  # class absent and never predicted
        return 0.0, False
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall), True


def metrics_report(cm: ConfusionMatrix) -> dict:
    """JSON-ready summary of a confusion matrix."""
    per_class = {}
    for klass in SpikeClass:
        tp, tn, fp, fn = _one_vs_rest(cm, klass)
        score, defined = f1_with_flag(cm, klass)
        per_class[klass.name] = {
            "tp": tp,
            "tn": tn,
            "fp": fp,
            "fn": fn,
            "accuracy": accuracy(cm, klass),
            "precision": tp / (tp + fp) if tp + fp else 0.0,
            "recall": tp / (tp + fn) if tp + fn else 0.0,
            "f1": score,
            "f1_defined": defined,
        }
    return {
        "confusion": {
            "order": [k.name for k in SpikeClass],
            "counts": cm.counts.tolist(),
        },
        "per_class": per_class,
        "overall_accuracy": overall_accuracy(cm),
    }


def write_trace_csv(path, samples, trace, events, limit: int | None = None) -> None:
    """Dump per-tick detector internals for plotting.

    Columns: tick, raw sample, smoothed sample, smoothed energy, threshold
    (0 until convergence), and the class name of any event whose detection
    timestamp falls on the tick.
    """
    n = len(samples) if limit is None else min(limit, len(samples))
    marks = {e.timestamp: e.klass.name for e in events}
    converged = trace.converged_tick
    # plain floats: csv writes them with repr, which round-trips through float()
    y, y_neo = trace.y[:n].tolist(), trace.y_neo[:n].tolist()
    threshold = float(trace.threshold)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "raw", "smoothed", "energy", "threshold", "event"])
        for i in range(n):
            thr = threshold if converged is not None and i >= converged else 0.0
            writer.writerow([i, int(samples[i]), y[i], y_neo[i], thr, marks.get(i, "")])
