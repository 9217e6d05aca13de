"""Spike detection front end: smoothing, energy operator, adaptive threshold.

Per tick the detector applies a first-order IIR low-pass to the raw sample,
computes the nonlinear energy psi[n] = y[n]^2 - y[n-1] * y[n+1] on the
smoothed stream, low-passes that energy, and compares it against a running
threshold.  The energy operator needs one sample of lookahead, which is
realized as one tick of latency: the value produced at tick n is psi[n-1].
Nothing ever reads a future sample.

The threshold is a scaled exponential moving average of the smoothed energy.
Convergence is declared once the threshold's relative per-tick change stays
below an epsilon for a full window of consecutive ticks.  The average feeds
on energy values clipped at a multiple of the current mean, so that rare,
huge excursions (spikes; that is the whole point of the detector) delay
neither convergence nor stability.  All arithmetic is double precision.

The per-tick detector_step drives the state machine and is the reference;
detector_trace computes the same values for a whole recording and is what
the vectorized pipeline uses.  They are bit-identical: the smoothers and the
energy operator run as array passes over blocks of CHUNK samples, carrying
their state across block edges, and both feed the one threshold rule,
threshold_update, tick by tick until it latches.  Given the pipeline's busy
period, the trace also applies the capture rule inside its block loop: each
block's candidates are thinned at once to the honored detections, and only
their windows of smoothed samples are quantized, by quantize_capture_array,
the one capture quantizer.  A block's floats and candidates are dropped
before the next block is computed, so the trace keeps 8 bytes per honored
detection plus 40 per capture, whatever the candidate count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter

from .config import DetectorConfig
from .nn import ACT_QMAX, ACT_QMIN, WAVEFORM_SAMPLES

CHUNK = 1 << 17  # samples per block of detector_trace: a few MB of float64 temporaries


@dataclass
class DetectorState:
    """Everything the detector carries between ticks.

    Instances must not be shared across threads; detector_step mutates its
    argument and returns it.
    """

    y_signal: float = 0.0  # smoothed sample y[n-1]
    y_signal2: float = 0.0  # smoothed sample y[n-2]
    neo_raw: float = 0.0  # latest raw energy value, psi[n-1]
    y_neo: float = 0.0  # smoothed energy
    neo_mean: float = 0.0  # EMA feeding the threshold
    threshold: float = 0.0
    run_length: int = 0  # consecutive ticks with quiet threshold
    converged: bool = False
    ticks: int = 0


def threshold_update(state: DetectorState, cfg: DetectorConfig) -> float:
    """Feed the current smoothed energy into the threshold average.

    Returns the new threshold and updates the convergence bookkeeping:
    converged latches once the relative per-tick threshold change has
    stayed below convergence_epsilon for convergence_window ticks.
    """
    value = state.y_neo
    if cfg.neo_clip_ratio is not None and state.neo_mean > 0.0:
        value = min(value, cfg.neo_clip_ratio * state.neo_mean)
    prev = state.threshold
    state.neo_mean = cfg.alpha_threshold * value + (1.0 - cfg.alpha_threshold) * state.neo_mean
    state.threshold = cfg.threshold_gain * state.neo_mean
    if prev > 0.0 and abs(state.threshold - prev) / prev < cfg.convergence_epsilon:
        state.run_length += 1
    else:
        state.run_length = 0
    if state.run_length >= cfg.convergence_window:
        state.converged = True
    return state.threshold


def request_reconvergence(state: DetectorState) -> None:
    """Drop the converged flag so the threshold can re-settle.

    The energy average is kept: after a change in input statistics the
    threshold tracks to the new level and re-converges there.
    """
    state.converged = False
    state.run_length = 0


def detector_step(
    state: DetectorState, cfg: DetectorConfig, x: float, update_threshold_enabled: bool = True
) -> bool:
    """Process one raw sample; returns the detection decision for this tick.

    The decision is converged AND smoothed energy above threshold.  Callers
    that freeze the threshold (the pipeline outside its startup state) pass
    update_threshold_enabled=False.
    """
    y0 = cfg.alpha_signal * x + (1.0 - cfg.alpha_signal) * state.y_signal
    state.neo_raw = state.y_signal * state.y_signal - state.y_signal2 * y0
    state.y_neo = cfg.alpha_neo * state.neo_raw + (1.0 - cfg.alpha_neo) * state.y_neo
    if update_threshold_enabled:
        threshold_update(state, cfg)
    state.y_signal2 = state.y_signal
    state.y_signal = y0
    state.ticks += 1
    return state.converged and state.y_neo > state.threshold


def smooth(x: np.ndarray, alpha: float, zi: np.ndarray | None = None) -> np.ndarray:
    """First-order IIR low-pass y[n] = alpha * x[n] + (1 - alpha) * y[n-1].

    zi is lfilter's one-element state: None starts from zero; an array starts
    from its value and is overwritten with the final state, so consecutive
    calls over consecutive blocks give the one-call result bit for bit.
    """
    state = np.zeros(1) if zi is None else zi
    y, state[:] = lfilter(
        [alpha], [1.0, -(1.0 - alpha)], np.asarray(x, dtype=np.float64), zi=state
    )
    return y


def neo_stream(y: np.ndarray, prev=(0.0, 0.0)) -> np.ndarray:
    """Streaming-aligned energy: out[n] = psi[n-1] = y[n-1]^2 - y[n-2]*y[n].

    prev holds y[-2] and y[-1], the two samples before the block; the zero
    default is detector_step's initial state, so out matches it tick for
    tick, one tick of latency relative to the centered definition.
    """
    y = np.asarray(y, dtype=np.float64)
    out = np.empty_like(y)
    # numpy squares as x * x, so both parts are detector_step's expression;
    # the first two values reach back into prev
    head = np.concatenate((prev, y[:2]))
    out[:2] = head[1:-1] * head[1:-1] - head[:-2] * head[2:]
    rest = out[2:]
    np.multiply(y[1:-1], y[1:-1], out=rest)
    rest -= y[:-2] * y[2:]
    return out


def quantize_capture_array(y) -> np.ndarray:
    """Smoothed samples -> stored int8 counts: divide by 4, floor, clamp.

    The divide-by-4 drops the two least significant bits of a 10-bit ADC
    value, which is a floor toward minus infinity in two's complement.
    """
    q = np.multiply(y, 0.25, dtype=np.float64)
    np.floor(q, out=q)
    np.clip(q, ACT_QMIN, ACT_QMAX, out=q)
    return q.astype(np.int8)


def smoothed_blocks(samples: np.ndarray, cfg: DetectorConfig):
    """Yield (start, y, y_neo) for consecutive CHUNK-sample blocks of samples.

    y is the smoothed samples and y_neo the smoothed energy of the block.
    Both smoothers' filter state and the last two smoothed samples carry
    across block edges, so the blocks are the whole-array pass cut at start.
    A block is released before the next one is computed, so a consumer that
    drops its own references holds one block of floats at a time.
    """
    zi_signal, zi_neo = np.zeros(1), np.zeros(1)
    prev = np.zeros(2)
    for start in range(0, len(samples), CHUNK):
        y = smooth(samples[start : start + CHUNK], cfg.alpha_signal, zi_signal)
        y_neo = smooth(neo_stream(y, prev), cfg.alpha_neo, zi_neo)
        prev = np.concatenate((prev, y[-2:]))[-2:]
        yield start, y, y_neo
        del y, y_neo


@dataclass
class DetectorTrace:
    """What a detector pass over a whole recording keeps.

    Without a busy period, candidates holds every candidate tick and
    captures is empty; with one, candidates holds the honored detections
    and captures the int8 windows of those whose capture is complete.
    """

    candidates: np.ndarray  # int64 ticks after convergence with energy above threshold
    captures: np.ndarray  # int8 (k, 40): quantized samples t+1..t+40 of the first k candidates
    candidate_count: int  # ticks above threshold after convergence, before any thinning
    converged_tick: int | None  # tick whose update latched convergence
    threshold: float  # frozen threshold (0.0 when never converged)


def _calibrate(state: DetectorState, cfg: DetectorConfig, y_neo: np.ndarray) -> int:
    """Feed y_neo to threshold_update until convergence latches; returns the ticks fed."""
    # a memoryview yields Python floats, which the scalar rule runs on fastest
    for fed, value in enumerate(memoryview(y_neo), 1):
        state.y_neo = value
        threshold_update(state, cfg)
        if state.converged:
            return fed
    return len(y_neo)


def _honored_detections(candidates: np.ndarray, busy_ticks: int) -> np.ndarray:
    """Greedy scan: keep every candidate tick not masked by a busy period.

    hop[i] is the first candidate at or past candidate i's busy end.  The
    first candidate is honored (no earlier one masks it), and so is every
    hop target, so the scan visits honored candidates only.
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


class _CaptureRule:
    """The pipeline's capture rule, applied one detector block at a time.

    A candidate is honored when no earlier honored one keeps the state
    machine busy (busy_ticks ticks from its detection), and its capture is
    the window of smoothed samples t+1..t+WAVEFORM_SAMPLES, quantized as
    soon as the blocks seen hold all of it.  Between blocks it carries the
    busy-until tick, the honored ticks whose window is still open and a
    copy of the last WAVEFORM_SAMPLES smoothed samples, which a window
    begun in an earlier block reads.
    """

    def __init__(self, busy_ticks: int):
        self.busy_ticks = busy_ticks
        self.next_free = 0  # first tick no busy period masks
        self.open = np.empty(0, dtype=np.int64)  # honored ticks whose window is not complete
        self.tail = np.empty(0)  # smoothed samples just before the current block
        self.captures = [np.empty((0, WAVEFORM_SAMPLES), dtype=np.int8)]

    def feed(self, start: int, y: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Thin one block's candidates to the honored ones; capture the windows it completes."""
        unmasked = candidates[np.searchsorted(candidates, self.next_free, side="left") :]
        honored = _honored_detections(unmasked, self.busy_ticks)
        if len(honored):
            self.next_free = int(honored[-1]) + self.busy_ticks
        ticks = np.concatenate((self.open, honored))
        # windows ending on or before the block's last sample are complete
        done = int(np.searchsorted(ticks, start + len(y) - 1 - WAVEFORM_SAMPLES, side="right"))
        if done:
            self.captures.append(quantize_capture_array(self._windows(start, y, ticks[:done])))
        self.open = ticks[done:]
        self.tail = np.concatenate((self.tail, y[-WAVEFORM_SAMPLES:]))[-WAVEFORM_SAMPLES:]
        return honored

    def _windows(self, start: int, y: np.ndarray, ticks: np.ndarray) -> np.ndarray:
        """Smoothed windows t+1..t+40 of ticks, each ending inside the block y at start."""
        back = int(np.searchsorted(ticks, start - 1, side="left"))  # windows begun before start
        rows = []
        if back:
            # such a window ends within the block's first WAVEFORM_SAMPLES - 1 samples
            head = np.concatenate((self.tail, y[: WAVEFORM_SAMPLES - 1]))
            first = start - len(self.tail)
            rows.append(sliding_window_view(head, WAVEFORM_SAMPLES)[ticks[:back] + 1 - first])
        if back < len(ticks):
            rows.append(sliding_window_view(y, WAVEFORM_SAMPLES)[ticks[back:] + 1 - start])
        return np.concatenate(rows)


def detector_trace(
    samples: np.ndarray, cfg: DetectorConfig, busy_ticks: int | None = None
) -> DetectorTrace:
    """Smooth, energy-transform, and converge the threshold over a recording.

    Walks the recording in CHUNK-sample blocks; the float64 smoothed
    samples and energy exist one block at a time.  The threshold updates
    only until convergence and is frozen afterwards, matching the
    pipeline's startup behaviour.  Without busy_ticks the trace keeps every
    candidate tick.  With it, each block's candidates are thinned to the
    detections honored under a busy period of busy_ticks ticks, and the
    trace keeps those and the int8 captures of their complete windows.
    """
    state = DetectorState()
    converged_tick = None
    count = 0
    rule = None if busy_ticks is None else _CaptureRule(busy_ticks)
    found = [np.empty(0, dtype=np.int64)]
    for start, y, y_neo in smoothed_blocks(samples, cfg):
        fed = 0
        if converged_tick is None:
            fed = _calibrate(state, cfg, y_neo)
            if state.converged:
                converged_tick = start + fed - 1
        # until convergence fed is the whole block, so no tick is a candidate
        block = start + fed + np.flatnonzero(y_neo[fed:] > state.threshold)
        count += len(block)
        found.append(block if rule is None else rule.feed(start, y, block))
        del y, y_neo, block
    captures = [np.empty((0, WAVEFORM_SAMPLES), dtype=np.int8)] if rule is None else rule.captures
    return DetectorTrace(
        candidates=np.concatenate(found),
        captures=np.concatenate(captures),
        candidate_count=count,
        converged_tick=converged_tick,
        threshold=0.0 if converged_tick is None else state.threshold,
    )


def detection_candidates(trace: DetectorTrace) -> np.ndarray:
    """Ticks after convergence whose smoothed energy exceeds the threshold.

    A trace taken under a busy period holds the honored ones only.
    """
    return trace.candidates
