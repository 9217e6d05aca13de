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
import math
from dataclasses import dataclass, field

import numpy as np

from .config import PostprocConfig
from .errors import ValidationError
from .nn import NUM_CLASSES, SpikeClass


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
    append = kept.append
    ss = SpikeClass.SS
    zone_end = -1.0  # first tick past the active zone, exclusive bound
    prev_ts = None
    for event in events:
        ts = event.timestamp
        if prev_ts is not None and ts <= prev_ts:
            raise ValidationError("events must be sorted by strictly increasing timestamp")
        prev_ts = ts
        if ts < zone_end:
            continue
        append(event)
        if event.klass is ss:
            zone_end = ts + zone_ticks
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
    if not (tolerance_ms >= 0 and math.isfinite(tolerance_ms)):
        raise ValidationError("tolerance_ms must be non-negative and finite")
    tol_ticks = tolerance_ms * sample_rate_hz / 1000.0

    ann = list(annotations)
    ticks = [a.timestamp for a in ann]
    # counts is the 3x3 matrix flattened: true class c starts at NUM_CLASSES * c
    ann_row = [NUM_CLASSES * a.klass for a in ann]
    missed_col, spurious_row = SpikeClass.F, NUM_CLASSES * SpikeClass.F
    counts = [0] * (NUM_CLASSES * NUM_CLASSES)
    n = len(ann)
    claimed = [False] * n
    j = 0  # frontier: annotations below it are claimed or missed
    for event in events:
        t = event.timestamp
        # Annotations now out of reach of this and all later events are misses.
        lo = t - tol_ticks
        while j < n and (claimed[j] or ticks[j] < lo):
            if not claimed[j]:
                counts[ann_row[j] + missed_col] += 1
            j += 1
        # Among unclaimed in-window annotations, take the nearest (ties: earliest).
        best = -1
        best_dist = 0
        hi = t + tol_ticks
        k = j
        while k < n and ticks[k] <= hi:
            if not claimed[k]:
                dist = abs(ticks[k] - t)
                if best < 0 or dist < best_dist:
                    best, best_dist = k, dist
            k += 1
        if best < 0:
            counts[spurious_row + event.klass] += 1
        else:
            claimed[best] = True
            counts[ann_row[best] + event.klass] += 1
    for idx in range(j, n):
        if not claimed[idx]:
            counts[ann_row[idx] + missed_col] += 1
    return ConfusionMatrix(np.array(counts, dtype=np.int64).reshape(NUM_CLASSES, NUM_CLASSES))


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


def write_trace_csv(path, samples, trace, det_cfg, limit: int | None = None) -> None:
    """Dump per-tick detector internals for plotting.

    Columns: tick, raw sample, smoothed sample, smoothed energy, and
    threshold (0 until convergence).  The smoothed columns are computed
    again over the rows written, one detector block at a time: the filters
    are causal, so a prefix gives the values of the full pass.
    """
    from . import detector  # scipy: only detect --trace writes this file

    n = len(samples) if limit is None else min(limit, len(samples))
    converged = n if trace.converged_tick is None else trace.converged_tick
    threshold = float(trace.threshold)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "raw", "smoothed", "energy", "threshold"])
        for start, y, y_neo in detector.smoothed_blocks(samples[:n], det_cfg):
            stop = start + len(y)
            zeros = min(max(converged - start, 0), len(y))
            thresholds = [0.0] * zeros + [threshold] * (len(y) - zeros)
            raw = map(int, samples[start:stop].tolist())
            # plain floats: csv writes them with repr, which round-trips through float()
            writer.writerows(zip(range(start, stop), raw, y.tolist(), y_neo.tolist(), thresholds))
