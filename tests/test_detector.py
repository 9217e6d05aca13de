import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikestage import detector as det
from spikestage.config import DetectorConfig
from spikestage.errors import ValidationError

from oracles import naive_honored, smoothed_energy


def test_iir_hand_example():
    # alpha 0.5, zero start: y0 = 0.5*4 = 2, y1 = 0.5*0 + 0.5*2 = 1
    assert det.smooth([4.0, 0.0], 0.5).tolist() == [2.0, 1.0]
    assert det.smooth([4.0, 0.0, 8.0], 0.25).tolist() == [1.0, 0.75, 2.5625]


def test_smooth_matches_streaming_loop_bitexact():
    rng = np.random.default_rng(0)
    for alpha in (0.5, 0.125, 1.0 / 1024.0, 1.0):
        x = rng.normal(size=500)
        expected = np.empty_like(x)
        y = 0.0
        for i, v in enumerate(x):
            y = alpha * v + (1.0 - alpha) * y
            expected[i] = y
        assert np.array_equal(det.smooth(x, alpha), expected)


def test_neo_impulse():
    out = det.neo_stream([0.0, 0.0, 1.0, 0.0, 0.0])
    assert out.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]


def test_neo_hand_values():
    # out[2] is the energy of the middle sample, one tick late
    assert det.neo_stream([1.0, 2.0, 3.0]).tolist() == [0.0, 1.0, 1.0]  # 4 - 3
    assert det.neo_stream([0.0, 5.0, 0.0]).tolist() == [0.0, 0.0, 25.0]


def test_neo_sine_identity():
    # For y[n] = A*sin(omega*n + phi) the energy is the constant A^2 sin^2(omega)
    rng = np.random.default_rng(1)
    for _ in range(20):
        amp = rng.uniform(0.5, 50.0)
        omega = rng.uniform(0.05, 2.5)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        y = amp * np.sin(omega * np.arange(300) + phi)
        out = det.neo_stream(y)
        expected = amp * amp * math.sin(omega) ** 2
        assert np.max(np.abs(out[2:] - expected)) < 1e-9 * amp * amp


def test_streaming_neo_equals_batch():
    # alpha_signal = 1 makes the smoother an identity, exposing the raw
    # energy recurrence of detector_step
    cfg = DetectorConfig(alpha_signal=1.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.normal(size=200)
        state = det.DetectorState()
        streamed = np.empty_like(x)
        for i, v in enumerate(x):
            det.detector_step(state, cfg, v)
            streamed[i] = state.neo_raw
        assert np.array_equal(streamed, det.neo_stream(x))


def test_trace_matches_step_loop_bitexact(recording):
    samples, _, _ = recording
    x = samples[:60000].astype(np.float64)
    cfg = DetectorConfig()
    trace = det.detector_trace(x, cfg)

    state = det.DetectorState()
    y = np.empty_like(x)
    y_neo = np.empty_like(x)
    fired = np.zeros(len(x), dtype=bool)
    converged_tick = None
    frozen = 0.0
    for i, v in enumerate(x):
        detected = det.detector_step(state, cfg, v, update_threshold_enabled=converged_tick is None)
        y[i] = state.y_signal
        y_neo[i] = state.y_neo
        fired[i] = detected and converged_tick is not None  # the latching tick is calibration
        if converged_tick is None and state.converged:
            converged_tick = i
            frozen = state.threshold

    assert np.array_equal(y, det.smooth(x, cfg.alpha_signal))
    assert np.array_equal(y_neo, smoothed_energy(x, cfg))
    assert det.detection_candidates(trace).tolist() == np.flatnonzero(fired).tolist()
    assert trace.candidate_count == int(fired.sum())
    assert trace.captures.shape == (0, 40) and trace.captures.dtype == np.int8
    assert converged_tick == trace.converged_tick
    assert frozen == trace.threshold

    # under a busy period the trace keeps the honored ticks and their captures
    for busy in (42, 87):
        captured = det.detector_trace(x, cfg, busy)
        honored = naive_honored(np.flatnonzero(fired), busy)
        complete = [t for t in honored if t + 40 <= len(x) - 1]
        assert len(complete) > 10
        assert det.detection_candidates(captured).tolist() == honored
        assert captured.candidate_count == int(fired.sum())
        assert captured.captures.dtype == np.int8 and len(captured.captures) == len(complete)
        for t, row in zip(complete, captured.captures):
            assert np.array_equal(row, det.quantize_capture_array(y[t + 1 : t + 41]))
        assert (captured.converged_tick, captured.threshold) == (converged_tick, frozen)


def converge_oracle(y_neo, cfg):
    """Threshold EMA run until convergence latches; returns (tick, threshold).

    Written out independently of threshold_update, which detector_trace and
    detector_step share.  Returns (None, 0.0) if the stream ends first.
    """
    alpha = cfg.alpha_threshold
    beta = 1.0 - alpha
    gain = cfg.threshold_gain
    eps = cfg.convergence_epsilon
    window = cfg.convergence_window
    clip = cfg.neo_clip_ratio
    mean = 0.0
    threshold = 0.0
    run = 0
    for tick in range(len(y_neo)):
        value = y_neo[tick]
        if clip is not None and mean > 0.0:
            limit = clip * mean
            if value > limit:
                value = limit
        prev = threshold
        mean = alpha * value + beta * mean
        threshold = gain * mean
        if prev > 0.0 and abs(threshold - prev) / prev < eps:
            run += 1
        else:
            run = 0
        if run >= window:
            return tick, threshold
    return None, 0.0


@st.composite
def convergence_streams(draw):
    """Raw streams whose threshold latches as soon as it can, early, late or never.

    An impulse decays into silence and latches about 20 ticks past the
    window; noise latches about 100 ticks past it; a silent prefix keeps the
    threshold at 0 and delays the latch by its length; pulses on noise reset
    the quiet run when the energy is not clipped; all-zero and short
    streams never latch.
    """
    kind = draw(st.sampled_from(["impulse", "noise", "late", "pulses", "zeros"]))
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zeros":
        return np.zeros(n)
    if kind == "impulse":
        return np.r_[draw(st.floats(1.0, 1e4)), np.zeros(n)]
    sigma = draw(st.floats(0.1, 100.0))
    stream = rng.normal(0.0, sigma, size=n)
    if kind == "late":
        stream = np.r_[np.zeros(draw(st.integers(1, 6000))), stream, rng.normal(0.0, sigma, 300)]
    if kind == "pulses":
        for t in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=20)):
            stream[t : t + 4] = 45.0 * sigma
    return stream


@settings(max_examples=150, deadline=None)
@given(convergence_streams(), st.integers(1, 64), st.sampled_from([None, 3.0]))
def test_trace_convergence_matches_oracle(stream, window, clip):
    cfg = DetectorConfig(convergence_window=window, neo_clip_ratio=clip)
    trace = det.detector_trace(stream, cfg)
    assert converge_oracle(smoothed_energy(stream, cfg), cfg) == (
        trace.converged_tick,
        trace.threshold,
    )
    if trace.converged_tick is not None:
        # the energy stream starts at 0, so tick 2 is the first quiet one
        assert trace.converged_tick >= window + 1


def test_scale_covariance(recording):
    samples, _, _ = recording
    x = samples[:40000].astype(np.float64)
    s = 7.3
    cfg = DetectorConfig()
    y1, y2 = det.smooth(x, cfg.alpha_signal), det.smooth(s * x, cfg.alpha_signal)
    assert np.max(np.abs(y2 - s * y1)) < 1e-9 * s * np.max(np.abs(y1))
    scale = s * s
    e1, e2 = smoothed_energy(x, cfg), smoothed_energy(s * x, cfg)
    assert np.max(np.abs(e2 - scale * e1)) < 1e-9 * scale * np.max(np.abs(e1))
    t1 = det.detector_trace(x, cfg)
    t2 = det.detector_trace(s * x, cfg)
    assert t2.converged_tick == t1.converged_tick
    assert abs(t2.threshold - scale * t1.threshold) < 1e-9 * scale * t1.threshold


def test_constant_energy_threshold_fixed_point():
    # a constant energy stream k drives the threshold to gain * k
    cfg = DetectorConfig()
    state = det.DetectorState()
    k = 42.0
    state.y_neo = k
    for _ in range(60000):
        det.threshold_update(state, cfg)
    assert state.converged
    assert abs(state.threshold - cfg.threshold_gain * k) < 1e-6 * cfg.threshold_gain * k


def test_convergence_on_noise():
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 10.0, size=30000)
    trace = det.detector_trace(x, DetectorConfig())
    assert trace.converged_tick is not None
    assert 4096 <= trace.converged_tick <= 20000
    assert trace.threshold > 0.0


def test_reconvergence_tracks_scale_change():
    # doubling the input scale quadruples the energy; once both phases have
    # settled, the re-converged threshold is within 10% of 4x the old one
    cfg = DetectorConfig()
    rng = np.random.default_rng(4)
    state = det.DetectorState()
    for v in rng.normal(0.0, 10.0, size=40000):
        det.detector_step(state, cfg, v)
    assert state.converged
    t1 = state.threshold

    det.request_reconvergence(state)
    assert not state.converged
    relatched = None
    for i, v in enumerate(rng.normal(0.0, 20.0, size=40000)):
        det.detector_step(state, cfg, v)
        if relatched is None and state.converged:
            relatched = i
    assert state.converged
    ratio = state.threshold / t1
    assert 3.6 <= ratio <= 4.4
    assert relatched + 1 >= cfg.convergence_window  # took a full quiet window


def test_detection_candidates_are_post_convergence(recording):
    samples, _, _ = recording
    x = samples[:200000].astype(np.float64)
    trace = det.detector_trace(x, DetectorConfig())
    cands = det.detection_candidates(trace)
    assert len(cands) > 0
    assert cands.min() > trace.converged_tick
    assert np.all(smoothed_energy(x, DetectorConfig())[cands] > trace.threshold)


def test_no_candidates_without_convergence():
    trace = det.detector_trace(np.zeros(100), DetectorConfig())
    assert trace.converged_tick is None
    assert trace.threshold == 0.0
    assert len(det.detection_candidates(trace)) == 0


def test_config_validation():
    with pytest.raises(ValidationError):
        DetectorConfig(alpha_signal=0.0)
    with pytest.raises(ValidationError):
        DetectorConfig(alpha_neo=1.5)
    with pytest.raises(ValidationError):
        DetectorConfig(threshold_gain=0.0)
    with pytest.raises(ValidationError):
        DetectorConfig(convergence_window=0)
    with pytest.raises(ValidationError):
        DetectorConfig(neo_clip_ratio=1.0)
    for bad in (math.nan, math.inf):
        for name in ("threshold_gain", "convergence_epsilon", "neo_clip_ratio", "alpha_neo"):
            with pytest.raises(ValidationError):
                DetectorConfig(**{name: bad})
    DetectorConfig(neo_clip_ratio=None)  # disabled is allowed


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_smooth_is_bounded(xs, alpha):
    # with zero initial state the output is a convex combination of 0 and
    # the inputs, so it never exceeds the input magnitude
    y = det.smooth(np.array(xs), alpha)
    bound = max(abs(v) for v in xs) * (1.0 + 1e-12) + 1e-12
    assert np.all(np.abs(y) <= bound)
