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
energy operator run as array passes, and both feed the one threshold rule,
threshold_update, tick by tick until it latches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .config import DetectorConfig


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


def smooth(x: np.ndarray, alpha: float) -> np.ndarray:
    """First-order IIR low-pass y[n] = alpha * x[n] + (1 - alpha) * y[n-1], zero start."""
    return lfilter([alpha], [1.0, -(1.0 - alpha)], np.asarray(x, dtype=np.float64))


def neo_stream(y: np.ndarray) -> np.ndarray:
    """Streaming-aligned energy: out[n] = psi[n-1] = y[n-1]^2 - y[n-2]*y[n].

    Index 0 is 0 (zero initial state); this matches detector_step tick for
    tick, one tick of latency relative to the centered definition.
    """
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(y)
    if len(y) >= 2:
        out[1] = y[0] * y[0]
    if len(y) >= 3:
        # in place, with one temporary: the same products and difference as
        # y[1:-1] ** 2 - y[:-2] * y[2:], since numpy squares as x * x
        rest = out[2:]
        np.multiply(y[1:-1], y[1:-1], out=rest)
        rest -= y[:-2] * y[2:]
    return out


@dataclass
class DetectorTrace:
    """Vectorized detector pass over a whole recording."""

    y: np.ndarray  # smoothed samples
    y_neo: np.ndarray  # smoothed energy
    converged_tick: int | None  # tick whose update latched convergence
    threshold: float  # frozen threshold (0.0 when never converged)


def detector_trace(samples: np.ndarray, cfg: DetectorConfig) -> DetectorTrace:
    """Smooth, energy-transform, and converge the threshold over a recording.

    The threshold updates only until convergence and is frozen afterwards,
    matching the pipeline's startup behaviour.
    """
    y = smooth(samples, cfg.alpha_signal)
    y_neo = smooth(neo_stream(y), cfg.alpha_neo)
    state = DetectorState()
    # a memoryview yields Python floats, which the scalar rule runs on fastest
    for tick, value in enumerate(memoryview(y_neo)):
        state.y_neo = value
        threshold_update(state, cfg)
        if state.converged:
            return DetectorTrace(y=y, y_neo=y_neo, converged_tick=tick, threshold=state.threshold)
    return DetectorTrace(y=y, y_neo=y_neo, converged_tick=None, threshold=0.0)


def detection_candidates(trace: DetectorTrace) -> np.ndarray:
    """Ticks after convergence whose smoothed energy exceeds the threshold."""
    if trace.converged_tick is None:
        return np.empty(0, dtype=np.int64)
    mask = trace.y_neo > trace.threshold
    mask[: trace.converged_tick + 1] = False
    return np.flatnonzero(mask)
