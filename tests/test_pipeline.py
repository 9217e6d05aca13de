import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikestage import detector as det
from spikestage import nn
from spikestage import pipeline as pl
from spikestage import signal, store
from spikestage.config import DetectorConfig, RecordingConfig, SynthesisParams
from spikestage.errors import ValidationError
from spikestage.nn import SpikeClass

from oracles import naive_honored


def naive_quantize(y: float) -> int:
    return max(-128, min(127, math.floor(y / 4)))


def naive_fsm(samples, model, det_cfg=None, classify_ticks=1):
    """Independent tick loop built straight from the detector primitives."""
    det_cfg = det_cfg or DetectorConfig()
    state = det.DetectorState()
    mode = "init"
    buffer = []
    detection_tick = None
    countdown = 0
    converged_tick = None
    events = []
    for tick, x in enumerate(np.asarray(samples, dtype=np.float64)):
        fired = det.detector_step(
            state, det_cfg, float(x), update_threshold_enabled=(mode == "init")
        )
        if mode == "init":
            if state.converged:
                converged_tick = tick
                mode = "running"
        elif mode == "running":
            if fired:
                detection_tick = tick
                buffer = []
                mode = "detected"
        elif mode == "detected":
            buffer.append(naive_quantize(state.y_signal))
            if len(buffer) == nn.WAVEFORM_SAMPLES:
                countdown = classify_ticks
                mode = "classifying"
        else:
            if countdown == classify_ticks:
                logits = nn.infer_quantized_batch(
                    model, np.array(buffer, dtype=np.int8)[None, :]
                )[0]
                klass = SpikeClass(int(np.argmax(logits)))
                events.append(store.EventRecord(detection_tick, klass))
            countdown -= 1
            if countdown == 0:
                mode = "running"
    return events, converged_tick


@pytest.fixture(scope="module")
def ten_seconds(recording):
    samples, _, cfg = recording
    return samples[: int(10 * cfg.sample_rate_hz)].astype(np.float64)


def test_quantize_capture_floor_semantics():
    hand = {
        5.9: 1,
        -5.9: -2,  # floor, not truncation
        4.0: 1,
        -0.1: -1,
        0.0: 0,
        511.0: 127,
        -512.0: -128,
        600.0: 127,
        -600.0: -128,
    }
    assert det.quantize_capture_array(list(hand)).tolist() == list(hand.values())

    sweep = np.arange(-700.0, 700.0, 0.37)
    packed = det.quantize_capture_array(sweep)
    assert packed.dtype == np.int8
    assert packed.tolist() == [naive_quantize(v) for v in sweep]


def test_pipeline_rejects_wrong_input_width():
    narrow = nn.QuantizedMlpModel(
        [
            nn.QuantizedLayer(
                np.zeros((3, 39), dtype=np.int8), np.zeros(3, dtype=np.int32),
                "linear", 1.0, 1.0, 1.0,
            )
        ]
    )
    with pytest.raises(ValidationError):
        pl.Pipeline(narrow)
    with pytest.raises(ValidationError):
        pl.run_pipeline(np.zeros(100), narrow)


def test_options_validation():
    # the latency lies in [1, MAX_TIMESTAMP]: past it, a tick plus the busy
    # period wraps int64 (9223372036854775000) or does not fit it (10^20)
    for ticks in (0, store.MAX_TIMESTAMP + 1, 9223372036854775000, 10**20):
        with pytest.raises(ValidationError):
            pl.Pipeline(SMALL_MODEL, classify_ticks=ticks)
        with pytest.raises(ValidationError):
            pl.run_pipeline(np.zeros(100), SMALL_MODEL, classify_ticks=ticks)
    pl.run_pipeline(np.zeros(100), SMALL_MODEL, classify_ticks=store.MAX_TIMESTAMP)


def test_step_matches_naive_fsm(ten_seconds, trained):
    _, qmodel, _, _ = trained
    p = pl.Pipeline(qmodel)
    events = p.run(ten_seconds)
    ref_events, ref_converged = naive_fsm(ten_seconds, qmodel)
    assert events == ref_events
    assert p.stats.converged_tick == ref_converged
    assert len(events) > 100


def test_step_matches_vectorized(ten_seconds, trained):
    _, qmodel, _, _ = trained
    p = pl.Pipeline(qmodel)
    step_events = p.run(ten_seconds)
    vec_events, vec_stats = pl.run_pipeline(ten_seconds, qmodel)
    assert step_events == vec_events
    assert p.stats.to_dict() == vec_stats.to_dict()
    # repeat runs are identical
    again, again_stats = pl.run_pipeline(ten_seconds, qmodel)
    assert again == vec_events and again_stats.to_dict() == vec_stats.to_dict()


def test_event_timing_contract(ten_seconds, trained):
    _, qmodel, _, _ = trained
    for ct in (1, 30):
        events, stats = pl.run_pipeline(ten_seconds, qmodel, classify_ticks=ct)
        ts = np.array([e.timestamp for e in events])
        assert np.all(np.diff(ts) >= nn.WAVEFORM_SAMPLES + ct + 1)
        assert np.all(ts > stats.converged_tick)
        assert np.all(ts + nn.WAVEFORM_SAMPLES + 1 <= len(ten_seconds) - 1)
        assert stats.events_emitted == sum(e.klass is not SpikeClass.F for e in events)
        assert stats.classify_invocations >= len(events)
        assert stats.detections >= stats.classify_invocations
        ticks_accounted = (
            stats.init_ticks
            + stats.running_ticks
            + stats.detected_ticks
            + stats.classifying_ticks
        )
        assert ticks_accounted == stats.total_ticks == len(ten_seconds)


def test_store_false_positives(tmp_path, ten_seconds, trained):
    _, qmodel, _, _ = trained
    full, stats = pl.run_pipeline(ten_seconds, qmodel)
    assert len(full) == stats.classify_invocations
    plain = [e for e in full if e.klass is not SpikeClass.F]
    assert stats.events_emitted == len(plain)
    assert stats.class_counts["F"] == len(full) - len(plain) > 0
    # F is never stored: the log holds exactly the returned SS and CS events
    with pytest.raises(ValidationError):
        store.write_event_log(tmp_path / "all.spkevt", full, 24414.0)
    store.write_event_log(tmp_path / "kept.spkevt", plain, 24414.0)
    assert store.read_event_log(tmp_path / "kept.spkevt")[0] == plain


def test_capture_detections_matches_run(ten_seconds, trained):
    _, qmodel, _, _ = trained
    ticks, waveforms = pl.capture_detections(ten_seconds)
    trace = det.detector_trace(ten_seconds, DetectorConfig())
    n = len(ten_seconds)
    assert waveforms.shape == (len(ticks), 40) and waveforms.dtype == np.int8
    y = det.smooth(ten_seconds, DetectorConfig().alpha_signal)
    for i, t in enumerate(ticks[:25]):
        assert np.array_equal(waveforms[i], det.quantize_capture_array(y[t + 1 : t + 41]))
    classified = ticks[ticks + 41 <= n - 1]
    events, stats = pl.run_pipeline(ten_seconds, qmodel)
    assert [e.timestamp for e in events] == classified.tolist()
    assert stats.threshold == trace.threshold
    assert stats.converged_tick == trace.converged_tick
    # classes of the emitted events equal direct inference on the captures
    keep = ticks + 41 <= n - 1
    logits = nn.infer_quantized_batch(qmodel, waveforms[keep])
    assert [int(e.klass) for e in events] == logits.argmax(axis=1).tolist()


# Fixed 40-3 int8 model: the sign of the late capture sum, offset by its
# typical -9 on noise, picks CS or SS, and values near it pick F, so all
# three classes occur on pulsed noise.
LATE_SUM = np.r_[np.zeros(20), np.ones(20)]
SMALL_MODEL = nn.QuantizedMlpModel(
    [
        nn.QuantizedLayer(
            np.stack([LATE_SUM, -LATE_SUM, np.zeros(40)]).astype(np.int8),
            np.array([9, -9, 5], dtype=np.int32),
            "linear", 1.0, 1.0, 1.0,
        )
    ]
)


@st.composite
def pulsed_streams(draw):
    """Noise with 4-tick 450-count pulses anywhere, the last 45 ticks included."""
    n = draw(st.integers(200, 4000))
    stream = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, 10.0, size=n)
    starts = draw(st.lists(st.integers(0, n - 1), max_size=12))
    starts += [n - k for k in draw(st.lists(st.integers(1, 45), max_size=2))]
    for t in starts:
        stream[t : t + 4] = 450.0
    return stream


def check_capture_path(stream, det_cfg, classify_ticks):
    """run_pipeline equals Pipeline.step and naive_fsm, and at one tick the classified captures."""
    step = pl.Pipeline(SMALL_MODEL, det_cfg, classify_ticks=classify_ticks)
    step_events = step.run(stream)
    events, stats = pl.run_pipeline(stream, SMALL_MODEL, det_cfg, classify_ticks=classify_ticks)
    assert events == step_events
    assert stats.to_dict() == step.stats.to_dict()
    assert (events, stats.converged_tick) == naive_fsm(stream, SMALL_MODEL, det_cfg, classify_ticks)

    # captures are spaced as a one-tick run, which classifies each on the
    # tick after its last sample
    ticks, waveforms = pl.capture_detections(stream, det_cfg)
    one_tick, one_tick_stats = pl.run_pipeline(stream, SMALL_MODEL, det_cfg)
    keep = ticks + nn.WAVEFORM_SAMPLES + 1 <= len(stream) - 1
    klasses = nn.infer_quantized_batch(SMALL_MODEL, waveforms[keep]).argmax(axis=1)
    assert one_tick_stats.classify_invocations == int(keep.sum())
    assert one_tick == [
        store.EventRecord(int(t), SpikeClass(int(k)))
        for t, k in zip(ticks[keep], klasses)
    ]
    return events


@settings(max_examples=60, deadline=None)
@given(pulsed_streams(), st.integers(1, 45), st.integers(1, 5000))
def test_capture_path_matches_step(stream, classify_ticks, chunk):
    # block edges of the detector pass fall inside the convergence window,
    # inside captures and inside the classify latency
    det_cfg = DetectorConfig(convergence_window=256)
    busy = nn.WAVEFORM_SAMPLES + classify_ticks + 1
    # one block: streams are shorter than CHUNK
    whole = [det.detector_trace(stream, det_cfg), det.detector_trace(stream, det_cfg, busy)]
    saved, det.CHUNK = det.CHUNK, chunk
    try:
        events = check_capture_path(stream, det_cfg, classify_ticks)
        chunked = [det.detector_trace(stream, det_cfg), det.detector_trace(stream, det_cfg, busy)]
        if events:
            # cut right after the last classified capture: complete, never classified
            cut = stream[: events[-1].timestamp + nn.WAVEFORM_SAMPLES + 1]
            check_capture_path(cut, det_cfg, classify_ticks)
    finally:
        det.CHUNK = saved
    for a, b in zip(chunked, whole):
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.captures, b.captures)
        assert a.candidate_count == b.candidate_count
        assert (a.converged_tick, a.threshold) == (b.converged_tick, b.threshold)
    # and the whole pass keeps the honored ticks and their smoothed windows
    every, captured = whole
    honored = captured.candidates
    assert honored.tolist() == naive_honored(every.candidates, busy)
    assert len(captured.captures) == int((honored + nn.WAVEFORM_SAMPLES <= len(stream) - 1).sum())
    y = det.smooth(stream, det_cfg.alpha_signal)
    for t, row in zip(honored.tolist(), captured.captures):
        assert np.array_equal(row, det.quantize_capture_array(y[t + 1 : t + 41]))


def test_short_streams_match_step():
    # 0 to 45 samples, shorter than a capture window and up to room for one
    # classified capture: with a one-tick window the threshold latches at
    # tick 2, and tick 3 is the first detection
    stream = np.random.default_rng(43).normal(0.0, 10.0, size=45)
    for det_cfg in (DetectorConfig(), DetectorConfig(convergence_window=1)):
        for n in range(len(stream) + 1):
            step = pl.Pipeline(SMALL_MODEL, det_cfg)
            step_events = step.run(stream[:n])
            events, stats = pl.run_pipeline(stream[:n], SMALL_MODEL, det_cfg)
            assert events == step_events
            assert stats.to_dict() == step.stats.to_dict()
    assert len(events) == 1  # the 45-sample stream classifies its capture


def replay_peak(samples):
    """run_pipeline's stats and its tracemalloc peak, the caller's samples not counted."""
    tracemalloc.start()
    try:
        _, stats = pl.run_pipeline(samples, SMALL_MODEL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return stats, peak


def test_replay_memory_is_bytes_per_sample():
    # a normally converging 240 s sparse recording: the trace keeps only its
    # 2,417 honored ticks and their captures, so the peak is about three
    # blocks of float64 temporaries (0.56 B/sample measured; 1.99 when every
    # sample had an int8 code)
    cfg = RecordingConfig(duration_s=240.0, seed=35)
    samples, _ = signal.generate_recording(cfg, SynthesisParams(ss_rate_hz=5.0, cs_rate_hz=0.5))
    stats, peak = replay_peak(samples)
    assert stats.converged_tick < 10_000 and stats.threshold > 100.0
    assert peak <= len(samples)


def test_replay_memory_does_not_follow_candidates():
    # the 60 s draw of the same seed latches early, at threshold 0.72, and
    # nearly every sample is a candidate; the peak follows the detections
    # instead (6.7 MB measured, 34 MB when the trace held every candidate)
    cfg = RecordingConfig(duration_s=60.0, seed=35)
    samples, _ = signal.generate_recording(cfg, SynthesisParams(ss_rate_hz=5.0, cs_rate_hz=0.5))
    stats, peak = replay_peak(samples)
    assert stats.converged_tick == 4097 and stats.threshold < 1.0
    assert stats.detections == 34_721
    assert peak <= 2 * len(samples) + 300 * stats.detections


def test_batched_classification_is_exact(ten_seconds, monkeypatch):
    # the committed 40-16-7-5-4-3 model requantizes every layer, so a batch
    # that changed any row's arithmetic would show in its logits
    model = nn.load_model(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "model_q.json")
    events, stats = pl.run_pipeline(ten_seconds, model)  # one batch
    _, waveforms = pl.capture_detections(ten_seconds)
    assert pl.CLASSIFY_BATCH >= len(waveforms) > 3 * 100

    batches = []

    def recorded(model, rows):
        batches.append(nn.infer_quantized_batch(model, rows))
        return batches[-1]

    monkeypatch.setattr(pl, "CLASSIFY_BATCH", 100)
    monkeypatch.setattr(pl, "infer_quantized_batch", recorded)
    batched, batched_stats = pl.run_pipeline(ten_seconds, model)
    assert batched == events
    assert batched_stats.to_dict() == stats.to_dict()
    assert [len(b) for b in batches[:-1]] == [100] * (len(batches) - 1) and 0 < len(batches[-1]) <= 100
    logits = np.concatenate(batches)
    assert np.array_equal(logits, nn.infer_quantized_batch(model, waveforms[: len(logits)]))
    assert len(logits) == stats.classify_invocations


def test_inference_memory_is_int32_per_capture():
    # the captures of a 60 s recording at replay-dense rates, classified by
    # the committed 40-16-7-5-4-3 model: int32 accumulation peaks near 480 B
    # per capture, int64 near 704
    cfg = RecordingConfig(duration_s=60.0, seed=5)
    params = SynthesisParams(ss_rate_hz=400.0, cs_rate_hz=20.0, min_interval_ms=2.0, noise_sigma=15.0)
    _, waveforms = pl.capture_detections(signal.generate_recording(cfg, params)[0])
    model = nn.load_model(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "model_q.json")
    tracemalloc.start()
    try:
        nn.infer_quantized_batch(model, waveforms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(waveforms) > 10_000
    assert peak <= 600 * len(waveforms)


@settings(max_examples=300, deadline=None)
@given(
    # a drawn upper bound varies the density, from runs of adjacent ticks to sparse ones
    st.integers(0, 5000).flatmap(
        lambda hi: st.lists(st.integers(0, hi), unique=True, max_size=300).map(sorted)
    ),
    st.integers(1, 100),
)
def test_honored_scan_matches_loop(ticks, busy):
    candidates = np.array(ticks, dtype=np.int64)
    honored = det._honored_detections(candidates, busy)
    assert honored.dtype == np.int64
    assert honored.tolist() == naive_honored(candidates, busy)


def test_incomplete_tail_capture(trained):
    _, qmodel, _, _ = trained
    rng = np.random.default_rng(40)
    stream = rng.normal(0.0, 10.0, size=30_000)
    t_pulse = len(stream) - 30
    stream[t_pulse : t_pulse + 4] = 450.0
    step = pl.Pipeline(qmodel)
    step_events = step.run(stream)
    vec_events, stats = pl.run_pipeline(stream, qmodel)
    assert step_events == vec_events
    assert step.stats.to_dict() == stats.to_dict()
    # the tail detection is honored but never finishes its capture
    assert stats.detections == stats.classify_invocations + 1
    assert 40 * (stats.detections - 1) <= stats.detected_ticks < 40 * stats.detections


def test_short_stream_never_converges(trained):
    _, qmodel, _, _ = trained
    rng = np.random.default_rng(41)
    stream = rng.normal(0.0, 10.0, size=200)
    events, stats = pl.run_pipeline(stream, qmodel)
    assert events == []
    assert stats.converged_tick is None
    assert stats.init_ticks == stats.total_ticks == 200
    p = pl.Pipeline(qmodel)
    assert p.run(stream) == []
    assert p.fsm is pl.FsmState.INIT


def test_request_reconvergence_aborts_capture(trained):
    _, qmodel, _, _ = trained
    rng = np.random.default_rng(42)
    p = pl.Pipeline(qmodel)
    assert p.run(rng.normal(0.0, 10.0, size=30_000)) == []
    assert p.fsm is pl.FsmState.RUNNING
    first_converged = p.stats.converged_tick
    first_threshold = p.stats.threshold
    assert first_converged is not None

    # force a detection, then abort mid-capture
    pulse = np.concatenate([np.full(4, 450.0), rng.normal(0.0, 10.0, size=16)])
    for x in pulse:
        p.step(float(x))
    assert p.fsm is pl.FsmState.DETECTED
    p.request_reconvergence()
    assert p.fsm is pl.FsmState.INIT
    assert not p.detector.converged

    # nothing is emitted from the aborted capture, and the pipeline re-settles
    # on the louder floor with roughly 4x the threshold (2x amplitude, squared)
    events = p.run(rng.normal(0.0, 20.0, size=40_000))
    assert events == []
    assert p.fsm is pl.FsmState.RUNNING
    assert p.stats.converged_tick > first_converged
    ratio = p.stats.threshold / first_threshold
    assert 3.0 < ratio < 5.5
