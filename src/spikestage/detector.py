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
threshold_update, tick by tick until it latches.  The trace keeps the int8
capture code of every smoothed sample (quantize_capture_array, the one
capture quantizer) and the candidate ticks, so its memory is one byte per
sample plus eight per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .config import DetectorConfig
from .nn import ACT_QMAX, ACT_QMIN

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
    """
    zi_signal, zi_neo = np.zeros(1), np.zeros(1)
    prev = np.zeros(2)
    for start in range(0, len(samples), CHUNK):
        y = smooth(samples[start : start + CHUNK], cfg.alpha_signal, zi_signal)
        y_neo = smooth(neo_stream(y, prev), cfg.alpha_neo, zi_neo)
        prev = np.concatenate((prev, y[-2:]))[-2:]
        yield start, y, y_neo


@dataclass
class DetectorTrace:
    """Detector pass over a whole recording, at one byte per sample."""

    codes: np.ndarray  # int8 capture code of every smoothed sample
    candidates: np.ndarray  # int64 ticks after convergence with energy above threshold
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


def detector_trace(samples: np.ndarray, cfg: DetectorConfig) -> DetectorTrace:
    """Smooth, energy-transform, and converge the threshold over a recording.

    Walks the recording in CHUNK-sample blocks and keeps only the int8
    capture codes and the candidate ticks; the float64 smoothed samples and
    energy exist one block at a time.  The threshold updates only until
    convergence and is frozen afterwards, matching the pipeline's startup
    behaviour.
    """
    codes = np.empty(len(samples), dtype=np.int8)
    state = DetectorState()
    converged_tick = None
    found = [np.empty(0, dtype=np.int64)]
    for start, y, y_neo in smoothed_blocks(samples, cfg):
        codes[start : start + len(y)] = quantize_capture_array(y)
        fed = 0
        if converged_tick is None:
            fed = _calibrate(state, cfg, y_neo)
            if not state.converged:
                continue
            converged_tick = start + fed - 1
        found.append(start + fed + np.flatnonzero(y_neo[fed:] > state.threshold))
    return DetectorTrace(
        codes=codes,
        candidates=np.concatenate(found),
        converged_tick=converged_tick,
        threshold=0.0 if converged_tick is None else state.threshold,
    )


def detection_candidates(trace: DetectorTrace) -> np.ndarray:
    """Ticks after convergence whose smoothed energy exceeds the threshold."""
    return trace.candidates
