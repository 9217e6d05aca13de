"""The on-device loop: detect, capture, classify, emit.

A four-state machine consumes one ADC sample per tick:

    INIT        threshold updating enabled; leaves for RUNNING once the
                detector's convergence flag latches
    RUNNING     threshold frozen; a detection moves to DETECTED
    DETECTED    appends the smoothed sample to the capture buffer; after
                the 40th sample, CLASSIFYING
    CLASSIFYING quantizes the buffer (divided by 4, floored, clamped to
                int8), runs the quantized classifier once, returns its
                classification, occupies classify_ticks ticks, then returns
                to RUNNING

New detections are ignored outside RUNNING, so honored detections are at
least 40 + classify_ticks ticks apart and each one captures exactly 40
samples.  Event timestamps are the detection ticks, strictly increasing.
Every classification is returned, false positives (F) included; F is never
stored, so RunStats.events_emitted counts the SS and CS events only.

The Pipeline class steps tick by tick and is the behavioural reference.
run_pipeline computes the identical result from whole-stream array passes
and is what the CLI uses; capture_detections shares its capture path
(detector pass, honored spacing, complete captures, gather) so training
data is captured exactly as deployed.  Both paths quantize captures with
the one quantize_capture_array.  The pipeline is single-threaded by
construction; instances must not be shared.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import detector as det
from .config import DetectorConfig
from .errors import FormatError, ValidationError
from .nn import (
    ACT_QMAX,
    ACT_QMIN,
    NUM_CLASSES,
    WAVEFORM_SAMPLES,
    QuantizedMlpModel,
    SpikeClass,
    check_topology,
    infer_quantized_batch,
)
from .store import EventRecord


class FsmState(Enum):
    INIT = "init"
    RUNNING = "running"
    DETECTED = "detected"
    CLASSIFYING = "classifying"


@dataclass
class RunStats:
    """Tick and event accounting for one run."""

    total_ticks: int = 0
    init_ticks: int = 0
    running_ticks: int = 0
    detected_ticks: int = 0
    classifying_ticks: int = 0
    detections: int = 0
    classify_invocations: int = 0
    class_counts: dict = field(
        default_factory=lambda: {k.name: 0 for k in SpikeClass}
    )
    events_emitted: int = 0  # SS and CS classifications, the events a log stores
    converged_tick: int | None = None
    threshold: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def quantize_capture_array(y) -> np.ndarray:
    """Smoothed samples -> stored int8 counts: divide by 4, floor, clamp.

    The divide-by-4 drops the two least significant bits of a 10-bit ADC
    value, which is a floor toward minus infinity in two's complement.
    """
    return np.clip(np.floor(np.asarray(y, dtype=np.float64) * 0.25), ACT_QMIN, ACT_QMAX).astype(
        np.int8
    )


def _check_latency(classify_ticks: int) -> None:
    if classify_ticks < 1:
        raise ValidationError("classify_ticks must be at least 1")


def _check_deployable(model, classify_ticks: int) -> None:
    """Refuse what the deployed pipeline cannot run.

    The model must be quantized and map one 40-sample capture to one logit
    per class; classify_ticks is the classifier's latency in ticks.
    """
    if not isinstance(model, QuantizedMlpModel):
        raise ValidationError("deployment needs a quantized model (run quantize first)")
    check_topology(model.topology)
    _check_latency(classify_ticks)


class Pipeline:
    """Tick-by-tick reference implementation."""

    def __init__(
        self,
        model: QuantizedMlpModel,
        det_cfg: DetectorConfig | None = None,
        *,
        classify_ticks: int = 1,
    ):
        _check_deployable(model, classify_ticks)
        self.model = model
        self.det_cfg = det_cfg or DetectorConfig()
        self.classify_ticks = classify_ticks  # ticks the classifier occupies per invocation
        self.detector = det.DetectorState()
        self.fsm = FsmState.INIT
        self.stats = RunStats()
        self._buffer: list[float] = []  # smoothed samples of the capture
        self._detection_tick = 0
        self._countdown = 0
        self._last_event_ts: int | None = None

    def request_reconvergence(self) -> None:
        """Host command: drop back to INIT and let the threshold re-settle.

        Any capture or classification in flight is abandoned.
        """
        det.request_reconvergence(self.detector)
        self._buffer = []
        self.fsm = FsmState.INIT

    def step(self, x: float) -> EventRecord | None:
        """Process one raw sample; returns the classification made on this tick."""
        tick = self.detector.ticks
        state = self.fsm
        detected = det.detector_step(
            self.detector, self.det_cfg, x, update_threshold_enabled=state is FsmState.INIT
        )
        stats = self.stats
        stats.total_ticks += 1
        event = None
        if state is FsmState.INIT:
            stats.init_ticks += 1
            if self.detector.converged:
                stats.converged_tick = tick
                stats.threshold = self.detector.threshold
                self.fsm = FsmState.RUNNING
        elif state is FsmState.RUNNING:
            stats.running_ticks += 1
            if detected:
                stats.detections += 1
                self._detection_tick = tick
                self._buffer = []
                self.fsm = FsmState.DETECTED
        elif state is FsmState.DETECTED:
            stats.detected_ticks += 1
            self._buffer.append(self.detector.y_signal)
            if len(self._buffer) == WAVEFORM_SAMPLES:
                self._countdown = self.classify_ticks
                self.fsm = FsmState.CLASSIFYING
        else:  # CLASSIFYING
            stats.classifying_ticks += 1
            if self._countdown == self.classify_ticks:
                event = self._classify()
            self._countdown -= 1
            if self._countdown == 0:
                self.fsm = FsmState.RUNNING
        return event

    def _classify(self) -> EventRecord:
        waveform = quantize_capture_array(self._buffer)
        logits = infer_quantized_batch(self.model, waveform[None, :])[0]
        klass = SpikeClass(int(np.argmax(logits)))
        stats = self.stats
        stats.classify_invocations += 1
        stats.class_counts[klass.name] += 1
        if klass is not SpikeClass.F:
            stats.events_emitted += 1
        ts = self._detection_tick
        assert self._last_event_ts is None or ts > self._last_event_ts
        self._last_event_ts = ts
        return EventRecord(ts, klass)

    def run(self, samples) -> list[EventRecord]:
        """Convenience loop over a whole array of samples."""
        events = []
        for x in np.asarray(samples, dtype=np.float64):
            event = self.step(x)
            if event is not None:
                events.append(event)
        return events


def _honored_detections(candidates: np.ndarray, busy_ticks: int) -> np.ndarray:
    """Greedy scan: keep every candidate tick not masked by a busy period.

    hop[i] is the first candidate at or past candidate i's busy end.  The
    first candidate is honored (ticks are non-negative), and so is every hop
    target, so the scan visits honored candidates only.
    """
    # a memoryview yields Python ints without a list of every candidate
    hop = memoryview(np.searchsorted(candidates, candidates + busy_ticks, side="left"))
    n = len(candidates)
    kept = []
    i = 0
    while i < n:
        kept.append(i)
        i = hop[i]
    return candidates[kept].astype(np.int64, copy=False)


def _capture_path(samples, det_cfg, classify_ticks):
    """Detector pass and the capture rule: (trace, honored ticks, complete ticks).

    A detection is honored when no earlier honored detection keeps the
    state machine busy (40 capture + classify_ticks + 1 ticks); its capture
    is complete when the samples t+1..t+40 lie inside the stream.
    """
    trace = det.detector_trace(samples, det_cfg or DetectorConfig())
    busy = WAVEFORM_SAMPLES + classify_ticks + 1
    honored = _honored_detections(det.detection_candidates(trace), busy)
    complete = honored[honored + WAVEFORM_SAMPLES <= len(samples) - 1]
    return trace, honored, complete


def _gather(trace: det.DetectorTrace, ticks: np.ndarray) -> np.ndarray:
    """int8 captures: the quantized smoothed samples t+1..t+40 of each tick."""
    return quantize_capture_array(trace.y[ticks[:, None] + np.arange(1, WAVEFORM_SAMPLES + 1)])


def capture_detections(
    samples,
    det_cfg: DetectorConfig | None = None,
    *,
    classify_ticks: int = 1,
):
    """Detection ticks and their 40-sample capture buffers, deployment-timed.

    Returns (ticks, waveforms, trace): one int8 waveform row per honored
    detection with a complete capture.  Shares run_pipeline's capture path,
    so training data matches what the classifier sees in the field.
    """
    _check_latency(classify_ticks)
    trace, _, complete = _capture_path(samples, det_cfg, classify_ticks)
    return complete, _gather(trace, complete), trace


def run_pipeline(
    samples,
    model: QuantizedMlpModel,
    det_cfg: DetectorConfig | None = None,
    *,
    classify_ticks: int = 1,
) -> tuple[list[EventRecord], RunStats]:
    """Whole-stream equivalent of stepping a Pipeline over samples.

    Produces the same classifications and the same stats as the
    tick-by-tick reference, from vectorized passes.
    """
    _check_deployable(model, classify_ticks)
    trace, honored, complete = _capture_path(samples, det_cfg, classify_ticks)
    n = len(samples)
    T = trace.converged_tick

    stats = RunStats(total_ticks=n, converged_tick=T, threshold=trace.threshold)
    stats.init_ticks = n if T is None else T + 1
    stats.detections = len(honored)
    stats.detected_ticks = int(np.clip(n - 1 - honored, 0, WAVEFORM_SAMPLES).sum())
    stats.classifying_ticks = int(
        np.clip(n - 1 - (complete + WAVEFORM_SAMPLES), 0, classify_ticks).sum()
    )
    # the classifier runs on the tick after the capture's last sample
    classified = complete[complete + WAVEFORM_SAMPLES + 1 <= n - 1]
    stats.classify_invocations = len(classified)
    stats.running_ticks = (
        n - stats.init_ticks - stats.detected_ticks - stats.classifying_ticks
    )

    labels = np.argmax(infer_quantized_batch(model, _gather(trace, classified)), axis=1)
    counts = np.bincount(labels, minlength=NUM_CLASSES).tolist()
    klasses = tuple(SpikeClass)  # in logit order
    stats.class_counts = {k.name: c for k, c in zip(klasses, counts)}
    stats.events_emitted = len(classified) - counts[SpikeClass.F]
    klass_of = map(klasses.__getitem__, labels.tolist())
    return list(map(EventRecord, classified.tolist(), klass_of)), stats


def write_events_csv(path, events) -> None:
    """Debug form of the event stream: timestamp,class per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "class"])
        for event in events:
            writer.writerow([event.timestamp, event.klass.name])


def read_events_csv(path) -> list[EventRecord]:
    events: list[EventRecord] = []
    # the reader decodes and splits lazily, so both errors surface in the loop
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["timestamp", "class"]:
                raise FormatError(f"{path}: expected header timestamp,class")
            for row in reader:
                if len(row) != 2 or row[1] not in SpikeClass.__members__:
                    raise FormatError(f"{path}: malformed row {row!r}")
                try:
                    timestamp = int(row[0])
                except ValueError as exc:
                    raise FormatError(f"{path}: bad timestamp {row[0]!r}") from exc
                events.append(EventRecord(timestamp, SpikeClass[row[1]]))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: unreadable events CSV ({exc})") from exc
    return events
