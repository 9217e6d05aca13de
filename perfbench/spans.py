"""Busy CPU time and call counts at the program's layer boundaries, seen from outside.

A traced run swaps public functions of the spikestage modules for timing
wrappers, so nested calls are seen too: detector_trace calls smooth through its
module's globals, run_pipeline calls det.detector_trace, write_event_log calls
pack_words.  Totals stay in memory and are taken per repetition; nothing is
patched in an untraced run.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from spikestage import analysis, detector, nn, pipeline, signal, store, train


class Spans:
    """Per span name: calls, busy seconds and the last count recorded."""

    def __init__(self):
        self.totals: dict[str, list] = {}

    def add(self, name: str, seconds: float, count=None) -> None:
        entry = self.totals.setdefault(name, [0, 0.0, None])
        entry[0] += 1
        entry[1] += seconds
        if count is not None:
            entry[2] = count

    def take(self) -> dict[str, list]:
        out, self.totals = self.totals, {}
        return out


def seconds(totals: dict, name: str) -> float:
    return totals[name][1] if name in totals else 0.0


def calls(totals: dict, name: str) -> int:
    return totals[name][0] if name in totals else 0


# (module, attribute, span name, count taken from the result or None).  A
# function imported by name into another module is patched there as well.
TARGETS = (
    (signal, "generate_recording", "signal.generate", None),
    (signal, "read_recording", "signal.read_recording", None),
    (signal, "read_annotations", "signal.read_annotations", None),
    (detector, "smooth", "detector.smooth", None),
    (detector, "neo_stream", "detector.neo", None),
    (detector, "detector_trace", "detector.trace", None),
    (detector, "detection_candidates", "detector.candidates", len),
    (pipeline, "run_pipeline", "pipeline.run", None),
    (pipeline, "capture_detections", "pipeline.capture", None),
    (pipeline, "infer_quantized_batch", "nn.infer", None),
    (nn, "load_model", "nn.load_model", None),
    (nn, "quantize", "nn.quantize", None),
    (train, "quantize", "nn.quantize", None),
    (store, "pack_words", "store.pack", None),
    (store, "write_event_log", "store.write", None),
    (store, "unpack_words", "store.unpack", None),
    (store, "read_event_log", "store.read", None),
    (analysis, "apply_dead_zone", "analysis.dead_zone", None),
    (analysis, "match_events", "analysis.match", None),
    (analysis, "metrics_report", "analysis.report", None),
    (train, "build_dataset", "train.build_dataset", None),
    (train, "save_dataset", "train.save_dataset", None),
    (train, "load_dataset", "train.load_dataset", None),
    (train, "train_test_split", "train.balance_filter", None),
    (train, "balance_classes", "train.balance_filter", None),
    (train, "filter_outliers", "train.balance_filter", None),
    (train, "train_mlp", "train.train_mlp", None),
    (train, "loss_and_grads", "train.step", None),
    (train, "evaluate", "train.evaluate", None),
    (train, "cross_validate", "train.cross_validate", None),
)


def _timed(spans: Spans, name: str, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.process_time()
        result = fn(*args, **kwargs)
        spans.add(name, time.process_time() - t0, None if count is None else count(result))
        return result

    return wrapper


@contextmanager
def traced(spans: Spans):
    """Install the timing wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, name, count in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _timed(spans, name, original, count))
        yield spans
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
