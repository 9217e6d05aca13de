import contextlib
import hashlib
import math
import os
import threading

import numpy as np
import pytest

from spikestage import signal
from spikestage.config import RecordingConfig, SynthesisParams
from spikestage.errors import FormatError, ValidationError
from spikestage.nn import SpikeClass
from spikestage.store import MAX_TIMESTAMP, EventRecord


def test_recording_roundtrip(tmp_path, recording):
    samples, _, cfg = recording
    path = tmp_path / "rec.bin"
    signal.write_recording(path, samples, cfg)
    loaded, loaded_cfg = signal.read_recording(path)
    assert np.array_equal(loaded, samples)
    assert loaded.dtype == np.int16
    assert loaded_cfg.sample_rate_hz == cfg.sample_rate_hz
    assert loaded_cfg.adc_bits == cfg.adc_bits


def test_recording_rejects_bad_magic(tmp_path, recording):
    samples, _, cfg = recording
    path = tmp_path / "rec.bin"
    signal.write_recording(path, samples, cfg)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        signal.read_recording(path)


def test_recording_rejects_odd_payload(tmp_path, recording):
    samples, _, cfg = recording
    path = tmp_path / "rec.bin"
    signal.write_recording(path, samples, cfg)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        signal.read_recording(path)


def test_recording_must_be_a_regular_file(tmp_path):
    path = tmp_path / "rec.bin"
    signal.write_recording(path, np.zeros(64, dtype=np.int16), RecordingConfig())
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        with pytest.raises(FormatError, match="not a regular file"):
            signal.read_recording(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_annotations_roundtrip(tmp_path, recording):
    _, annotations, _ = recording
    path = tmp_path / "ann.csv"
    signal.write_annotations(path, annotations)
    loaded = signal.read_annotations(path)
    assert loaded == annotations


def test_annotations_reject_unsorted(tmp_path):
    path = tmp_path / "ann.csv"
    anns = [EventRecord(100, SpikeClass.SS), EventRecord(50, SpikeClass.SS)]
    with pytest.raises(ValidationError):
        signal.write_annotations(path, anns)
    path.write_text("sample_index,label\n100,SS\n50,SS\n")
    with pytest.raises(FormatError):
        signal.read_annotations(path)


def test_annotations_reject_negative_index(tmp_path):
    path = tmp_path / "ann.csv"
    with pytest.raises(ValidationError, match="must be non-negative, got -3"):
        signal.write_annotations(path, [EventRecord(-3, SpikeClass.SS)])
    for text in ("sample_index,label\n-5,SS\n", "sample_index,label\n4,SS\n-5,CS\n"):
        path.write_text(text)
        with pytest.raises(FormatError, match="sample index must be non-negative, got -5"):
            signal.read_annotations(path)


def test_annotations_reject_index_past_the_last_tick(tmp_path):
    path = tmp_path / "ann.csv"
    last = [EventRecord(MAX_TIMESTAMP, SpikeClass.CS)]
    signal.write_annotations(path, last)
    assert signal.read_annotations(path) == last
    path.unlink()
    with pytest.raises(ValidationError, match="sample index past 2147483647"):
        signal.write_annotations(path, [EventRecord(5, SpikeClass.SS), EventRecord(2**31, SpikeClass.SS)])
    assert not path.exists()
    for index in ("2147483648", "1" + "0" * 400):
        path.write_text(f"sample_index,label\n5,SS\n{index},CS\n")
        with pytest.raises(FormatError, match="sample index past 2147483647"):
            signal.read_annotations(path)


# sha256 of write_annotations on the session recording (60 s, seed 1234),
# recorded before the CSV row writer moved to store.py
ANNOTATIONS_SHA256 = "f19bec36949fd14a9d36b5ff3b0fe158a8d7e537f1e25aa8d500911ea4c8db4c"


def test_annotations_bytes_are_pinned(tmp_path, recording):
    _, annotations, _ = recording
    path = tmp_path / "ann.csv"
    signal.write_annotations(path, annotations)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ANNOTATIONS_SHA256


def test_annotations_reject_f_label(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("sample_index,label\n100,F\n")
    with pytest.raises(FormatError):
        signal.read_annotations(path)


def test_generate_deterministic():
    cfg = RecordingConfig(duration_s=2.0, seed=9)
    a1, n1 = signal.generate_recording(cfg, SynthesisParams())
    a2, n2 = signal.generate_recording(cfg, SynthesisParams())
    assert np.array_equal(a1, a2)
    assert n1 == n2
    b1, _ = signal.generate_recording(
        RecordingConfig(duration_s=2.0, seed=10), SynthesisParams()
    )
    assert not np.array_equal(a1, b1)


def test_generate_respects_adc_range(recording):
    samples, _, cfg = recording
    assert samples.dtype == np.int16
    assert samples.min() >= cfg.adc_min
    assert samples.max() <= cfg.adc_max
    assert cfg.adc_min == -512 and cfg.adc_max == 511


def test_generate_annotation_spacing(recording):
    # same-class events keep the refractory spacing in whole ticks
    samples, annotations, cfg = recording
    min_ticks = int(np.ceil(4.0 * cfg.sample_rate_hz / 1000.0))
    for klass in (SpikeClass.SS, SpikeClass.CS):
        ticks = [a.timestamp for a in annotations if a.klass is klass]
        assert all(b - a >= min_ticks for a, b in zip(ticks, ticks[1:]))


def test_generate_annotations_inside_recording(recording):
    samples, annotations, cfg = recording
    assert all(0 <= a.timestamp < len(samples) for a in annotations)
    # truncated spikes at the end are skipped, never annotated; the
    # narrowest jittered template still needs this much room
    spans = {
        SpikeClass.SS: int(0.85e-3 * 0.9 * cfg.sample_rate_hz),
        SpikeClass.CS: int(1.75e-3 * 0.9 * cfg.sample_rate_hz),
    }
    for ann in annotations[-20:]:
        assert ann.timestamp + spans[ann.klass] <= len(samples)


def test_generate_contains_saturation(recording):
    samples, _, cfg = recording
    at_rail = np.count_nonzero((samples == cfg.adc_max) | (samples == cfg.adc_min))
    assert at_rail > 0


def test_generate_class_mix(recording):
    _, annotations, _ = recording
    labels = [a.klass for a in annotations]
    assert labels.count(SpikeClass.SS) > 100
    assert labels.count(SpikeClass.CS) > 10


def test_recording_config_validation():
    with pytest.raises(ValidationError):
        RecordingConfig(sample_rate_hz=-1)
    with pytest.raises(ValidationError):
        RecordingConfig(adc_bits=0)
    with pytest.raises(ValidationError):
        RecordingConfig(duration_s=0)
    with pytest.raises(ValidationError, match="at least one sample"):
        RecordingConfig(duration_s=1e-5)  # 0.24 samples at 24.414 kHz
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            RecordingConfig(duration_s=bad)
        with pytest.raises(ValidationError):
            RecordingConfig(sample_rate_hz=bad)
