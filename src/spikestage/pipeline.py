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
(one detector pass under the busy period, which keeps the honored
detections and their complete captures) at the one-tick latency, so
training data is captured exactly as deployed.  Both paths quantize
captures with the detector's one quantize_capture_array: Pipeline.step
when it classifies, detector_trace for the windows of honored detections
only, block by block, so the array paths never hold a code per sample or
a tick per candidate.  run_pipeline classifies the captures
CLASSIFY_BATCH rows at a time.  The module holds no file format: the
event log and the events CSV live in store.  The pipeline is
single-threaded by construction; instances must not be shared.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import detector as det
from .config import DetectorConfig
from .errors import ValidationError
from .nn import (
    NUM_CLASSES,
    WAVEFORM_SAMPLES,
    QuantizedMlpModel,
    SpikeClass,
    check_topology,
    infer_quantized_batch,
)
from .store import MAX_TIMESTAMP, EventRecord

CLASSIFY_BATCH = 2048  # captures per classifier call: about 1 MB of inference temporaries


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


def _check_deployable(model, classify_ticks: int) -> None:
    """Refuse what the deployed pipeline cannot run.

    The model must be quantized and map one 40-sample capture to one logit
    per class; classify_ticks is the classifier's latency in ticks.
    """
    if not isinstance(model, QuantizedMlpModel):
        raise ValidationError("deployment needs a quantized model (run quantize first)")
    check_topology(model.topology)
    # a longer latency outlasts any stream the event log can stamp
    if not 1 <= classify_ticks <= MAX_TIMESTAMP:
        raise ValidationError(f"classify_ticks must be in [1, {MAX_TIMESTAMP}]")


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
        waveform = det.quantize_capture_array(self._buffer)
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


def _capture_path(samples, det_cfg, classify_ticks):
    """Detector pass under the capture rule: (trace, honored ticks, complete ticks).

    A detection is honored when no earlier honored detection keeps the
    state machine busy (40 capture + classify_ticks + 1 ticks); its capture
    is complete when the samples t+1..t+40 lie inside the stream, so the
    complete ticks are the first len(trace.captures) honored ones.
    """
    busy = WAVEFORM_SAMPLES + classify_ticks + 1
    trace = det.detector_trace(samples, det_cfg or DetectorConfig(), busy)
    honored = det.detection_candidates(trace)
    return trace, honored, honored[: len(trace.captures)]


def _classify(model: QuantizedMlpModel, captures: np.ndarray) -> np.ndarray:
    """Class index of each int8 capture, CLASSIFY_BATCH rows per classifier call."""
    labels = np.empty(len(captures), dtype=np.intp)
    for start in range(0, len(captures), CLASSIFY_BATCH):
        logits = infer_quantized_batch(model, captures[start : start + CLASSIFY_BATCH])
        labels[start : start + CLASSIFY_BATCH] = np.argmax(logits, axis=1)
    return labels


def capture_detections(samples, det_cfg: DetectorConfig | None = None):
    """Detection ticks and their 40-sample capture buffers, deployment-timed.

    Returns (ticks, waveforms): one int8 waveform row per honored detection
    with a complete capture, spaced as a run at the default one-tick
    classify latency.  Shares run_pipeline's capture path, so training data
    matches what the classifier sees in the field.
    """
    trace, _, complete = _capture_path(samples, det_cfg, 1)
    return complete, trace.captures


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

    labels = _classify(model, trace.captures[: len(classified)])
    counts = np.bincount(labels, minlength=NUM_CLASSES).tolist()
    klasses = tuple(SpikeClass)  # in logit order
    stats.class_counts = {k.name: c for k, c in zip(klasses, counts)}
    stats.events_emitted = len(classified) - counts[SpikeClass.F]
    klass_of = map(klasses.__getitem__, labels.tolist())
    return list(map(EventRecord, classified.tolist(), klass_of)), stats
