import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikestage import detector as det
from spikestage import nn
from spikestage import pipeline as pl
from spikestage.errors import FormatError, ValidationError
from spikestage.nn import SpikeClass


def naive_quantize(y: float) -> int:
    return max(-128, min(127, math.floor(y / 4)))


def naive_fsm(samples, model, det_cfg=None, options=None):
    """Independent tick loop built straight from the detector primitives."""
    det_cfg = det_cfg or det.DetectorConfig()
    options = options or pl.PipelineOptions()
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
                countdown = options.classify_ticks
                mode = "classifying"
        else:
            if countdown == options.classify_ticks:
                logits = nn.infer_quantized_batch(
                    model, np.array(buffer, dtype=np.int8)[None, :]
                )[0]
                klass = SpikeClass(int(np.argmax(logits)))
                if klass is not SpikeClass.F or options.store_false_positives:
                    events.append(pl.PipelineEvent(detection_tick, klass))
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
    assert pl.quantize_capture_array(list(hand)).tolist() == list(hand.values())

    sweep = np.arange(-700.0, 700.0, 0.37)
    packed = pl.quantize_capture_array(sweep)
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
    with pytest.raises(ValidationError):
        pl.PipelineOptions(classify_ticks=0)


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
        options = pl.PipelineOptions(classify_ticks=ct)
        events, stats = pl.run_pipeline(ten_seconds, qmodel, options=options)
        ts = np.array([e.timestamp for e in events])
        assert np.all(np.diff(ts) >= nn.WAVEFORM_SAMPLES + ct + 1)
        assert np.all(ts > stats.converged_tick)
        assert np.all(ts + nn.WAVEFORM_SAMPLES + 1 <= len(ten_seconds) - 1)
        assert stats.events_emitted == len(events)
        assert stats.classify_invocations >= len(events)
        assert stats.detections >= stats.classify_invocations
        ticks_accounted = (
            stats.init_ticks
            + stats.running_ticks
            + stats.detected_ticks
            + stats.classifying_ticks
        )
        assert ticks_accounted == stats.total_ticks == len(ten_seconds)


def test_store_false_positives(ten_seconds, trained):
    _, qmodel, _, _ = trained
    plain, plain_stats = pl.run_pipeline(ten_seconds, qmodel)
    options = pl.PipelineOptions(store_false_positives=True)
    full, full_stats = pl.run_pipeline(ten_seconds, qmodel, options=options)
    assert len(full) == full_stats.classify_invocations == full_stats.events_emitted
    assert [e for e in full if e.klass is not SpikeClass.F] == plain
    assert full_stats.class_counts == plain_stats.class_counts
    assert full_stats.class_counts["F"] == len(full) - len(plain) > 0


def test_capture_detections_matches_run(ten_seconds, trained):
    _, qmodel, _, _ = trained
    ticks, waveforms, trace = pl.capture_detections(ten_seconds)
    n = len(ten_seconds)
    assert waveforms.shape == (len(ticks), 40) and waveforms.dtype == np.int8
    for i, t in enumerate(ticks[:25]):
        assert np.array_equal(
            waveforms[i], pl.quantize_capture_array(trace.y[t + 1 : t + 41])
        )
    classified = ticks[ticks + 41 <= n - 1]
    options = pl.PipelineOptions(store_false_positives=True)
    events, stats = pl.run_pipeline(ten_seconds, qmodel, options=options)
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


def check_capture_path(stream, det_cfg, options):
    """run_pipeline equals Pipeline.step, and equals classifying capture_detections."""
    step = pl.Pipeline(SMALL_MODEL, det_cfg, options)
    step_events = step.run(stream)
    events, stats = pl.run_pipeline(stream, SMALL_MODEL, det_cfg, options)
    assert events == step_events
    assert stats.to_dict() == step.stats.to_dict()

    # a capture is classified on the tick after its last sample
    ticks, waveforms, _ = pl.capture_detections(stream, det_cfg, options)
    keep = ticks + nn.WAVEFORM_SAMPLES + 1 <= len(stream) - 1
    klasses = nn.infer_quantized_batch(SMALL_MODEL, waveforms[keep]).argmax(axis=1)
    assert stats.classify_invocations == int(keep.sum())
    assert events == [
        pl.PipelineEvent(int(t), SpikeClass(int(k)))
        for t, k in zip(ticks[keep], klasses)
        if options.store_false_positives or k != SpikeClass.F
    ]
    return ticks


@settings(max_examples=60, deadline=None)
@given(pulsed_streams(), st.integers(1, 45), st.booleans())
def test_capture_path_matches_step(stream, classify_ticks, store_false_positives):
    det_cfg = det.DetectorConfig(convergence_window=256)
    options = pl.PipelineOptions(classify_ticks, store_false_positives)
    ticks = check_capture_path(stream, det_cfg, options)
    if len(ticks):
        # cut right after the last capture: complete, never classified
        check_capture_path(stream[: ticks[-1] + nn.WAVEFORM_SAMPLES + 1], det_cfg, options)


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


def test_events_csv_roundtrip(tmp_path):
    events = [
        pl.PipelineEvent(100, SpikeClass.SS),
        pl.PipelineEvent(250, SpikeClass.CS),
        pl.PipelineEvent(400, SpikeClass.F),
    ]
    path = tmp_path / "events.csv"
    pl.write_events_csv(path, events)
    assert pl.read_events_csv(path) == events

    path.write_text("tick,klass\n100,SS\n")
    with pytest.raises(FormatError):
        pl.read_events_csv(path)
    path.write_text("timestamp,class\n100,XX\n")
    with pytest.raises(FormatError):
        pl.read_events_csv(path)
    path.write_text("timestamp,class\n100\n")
    with pytest.raises(FormatError):
        pl.read_events_csv(path)
