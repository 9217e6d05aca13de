"""Synthetic extracellular recordings and their on-disk formats.

A recording is a single channel of signed ADC samples.  The generator
plants two spike shapes on a noisy, drifting baseline: a short biphasic
spike (SS) of roughly 0.8 ms, and a longer complex shape (CS) whose
initial spike is followed by three decaying wavelets over roughly 1.7 ms.
Planted spikes keep min_interval_ms apart across both classes, spaced by
store.spaced_positions, the greedy scan that also honors the device's
detections outside its busy period.  Every planted spike is reported as an
annotation at its onset sample, so downstream stages can be scored against
ground truth: a list of store.EventRecord, the pipeline's own row type, of
onset tick and class.  Parameters that overflow the signal to a non-finite
value are refused, not rounded.

Recording file layout (little endian):

    offset  size  field
    0       4     magic "SPKR"
    4       1     version (currently 1)
    5       1     adc_bits
    6       2     reserved, zero
    8       8     sample_rate_hz, IEEE-754 double
    16      2*n   samples, int16

Annotations travel separately as CSV with header ``sample_index,label``:
indices in ASCII digits, labels ``SS`` or ``CS``.  write_annotations and
read_annotations check the stream by store.check_stream, the one rule of a
stored stream, and store.write_events_csv writes the rows.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import struct

import numpy as np

from .config import RecordingConfig, SynthesisParams
from .errors import FormatError, ValidationError, shown
from .nn import SpikeClass
from .store import MAX_TIMESTAMP, EventRecord, check_stream, spaced_positions, write_events_csv

RECORDING_MAGIC = b"SPKR"
RECORDING_VERSION = 1
_HEADER = struct.Struct("<4sBBHd")
_ANNOTATIONS_HEADER = ["sample_index", "label"]


# Spike templates as sums of Gaussian lobes.  Each row is (sign * relative
# amplitude, center ms, width ms); centers and widths stretch with the
# per-event width factor.  Nominal peak amplitudes are in ADC counts for a
# 10-bit converter and scale with the rails for other depths.
_SS_LOBES = ((-1.00, 0.20, 0.075), (0.55, 0.48, 0.13))
_SS_SPAN_MS = 0.85
_SS_PEAK = 220.0

_CS_LOBES = (
    (-1.00, 0.22, 0.085),
    (0.50, 0.52, 0.12),
    (-0.45, 0.85, 0.10),
    (0.35, 1.15, 0.11),
    (-0.28, 1.48, 0.12),
)
_CS_SPAN_MS = 1.75
_CS_PEAK = 230.0

AMPLITUDE_JITTER = 0.20
WIDTH_JITTER = 0.10


def _render_template(lobes, span_ms, peak, width_factor, sample_rate_hz) -> np.ndarray:
    """Evaluate one spike template on the sample grid, onset at index 0."""
    n = int(math.ceil(span_ms * width_factor * sample_rate_hz / 1000.0)) + 1
    t = np.arange(n) * (1000.0 / sample_rate_hz)
    out = np.zeros(n)
    for rel, center, width in lobes:
        out += rel * np.exp(-0.5 * ((t - center * width_factor) / (width * width_factor)) ** 2)
    return peak * out


def _poisson_times(rng, rate_hz: float, duration_s: float) -> np.ndarray:
    """Event times of a Poisson process on [0, duration), in seconds."""
    if rate_hz == 0:
        return np.empty(0)
    expected = rate_hz * duration_s
    n_draw = int(expected + 6.0 * math.sqrt(expected) + 16)
    times = np.cumsum(rng.exponential(1.0 / rate_hz, size=n_draw))
    while times[-1] < duration_s:
        times = np.concatenate([times, times[-1] + np.cumsum(rng.exponential(1.0 / rate_hz, size=n_draw))])
    return times[times < duration_s]


def generate_recording(
    cfg: RecordingConfig, params: SynthesisParams
) -> tuple[np.ndarray, list[EventRecord]]:
    """Synthesize one recording.

    Returns (samples, annotations): int16 samples clipped to the ADC rails,
    and the planted spikes sorted by onset.  The same config and params
    always produce the same bytes.
    """
    # refused before any allocation: the Poisson draws size their buffers by
    # the expected spike count, and run stamps no tick past MAX_TIMESTAMP
    n = cfg.num_samples
    fs = cfg.sample_rate_hz
    if n > MAX_TIMESTAMP + 1:
        raise ValidationError(
            f"duration_s * sample_rate_hz gives {n:.4g} samples, more than the "
            f"{MAX_TIMESTAMP + 1} that 31-bit event log timestamps reach"
        )
    if params.ss_rate_hz + params.cs_rate_hz > fs:
        raise ValidationError("ss_rate_hz + cs_rate_hz exceed one spike per sample")
    gap = params.min_interval_ms * fs / 1000.0
    if not math.isfinite(gap):
        raise ValidationError("min_interval_ms * sample_rate_hz must be finite")
    rng = np.random.default_rng(cfg.seed)
    scale = cfg.adc_max / 511.0  # templates are tuned against 10-bit rails

    ss_times = _poisson_times(rng, params.ss_rate_hz, cfg.duration_s)
    cs_times = _poisson_times(rng, params.cs_rate_hz, cfg.duration_s)
    times = np.concatenate((ss_times, cs_times))
    classes = np.repeat([SpikeClass.SS, SpikeClass.CS], [len(ss_times), len(cs_times)])
    order = np.lexsort((classes, times))  # by time, then class
    ticks = (times[order] * fs).astype(np.int64)  # floors, as every time is non-negative
    classes = classes[order]

    # Enforce the minimum inter-spike interval across both classes in tick
    # units, so annotation spacing is exact after quantization to samples.
    # Spikes are at least one tick apart, however short the interval; every
    # tick is at most n, so a gap of n + 1 keeps the first spike only, and
    # ticks + gap stays in int64.
    kept = spaced_positions(ticks, min(max(math.ceil(gap), 1), n + 1))

    signal = np.zeros(n)
    annotations: list[EventRecord] = []
    for tick, label in zip(ticks[kept].tolist(), map(SpikeClass, classes[kept].tolist())):
        amp = 1.0 + AMPLITUDE_JITTER * (2.0 * rng.random() - 1.0)
        width = 1.0 + WIDTH_JITTER * (2.0 * rng.random() - 1.0)
        if label is SpikeClass.SS:
            template = _render_template(_SS_LOBES, _SS_SPAN_MS, _SS_PEAK, width, fs)
        else:
            template = _render_template(_CS_LOBES, _CS_SPAN_MS, _CS_PEAK, width, fs)
        if tick + len(template) > n:
            continue  # would be truncated by the end of the stream
        signal[tick : tick + len(template)] += amp * scale * template
        annotations.append(EventRecord(tick, label))

    # Baseline: constant offset, slow sinusoid, bounded random walk.
    # Parameters that overflow a float here leave a non-finite sample, which
    # is refused before it is rounded.
    t = np.arange(n) / fs
    phase = rng.uniform(0.0, 2.0 * math.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        signal += params.offset
        signal += params.drift_amplitude * np.sin(2.0 * math.pi * t / params.drift_period_s + phase)
        if params.drift_amplitude > 0:
            walk = np.cumsum(rng.standard_normal(n)) * (params.drift_amplitude / math.sqrt(n))
            signal += walk
        if params.noise_sigma > 0:
            signal += rng.normal(0.0, params.noise_sigma, size=n)
    if not np.isfinite(signal).all():
        raise ValidationError("synthesis: offset, drift and noise give a non-finite signal")

    samples = np.clip(np.rint(signal), cfg.adc_min, cfg.adc_max).astype(np.int16)

    if params.saturation_prob > 0:
        starts = np.flatnonzero(rng.random(n) < params.saturation_prob)
        lengths = rng.integers(2, 11, size=len(starts))
        rails = np.where(rng.integers(0, 2, size=len(starts)) == 1, cfg.adc_max, cfg.adc_min)
        for start, length, rail in zip(starts, lengths, rails):
            samples[start : start + length] = rail

    return samples, annotations


def write_recording(path, samples: np.ndarray, cfg: RecordingConfig) -> None:
    samples = np.asarray(samples)
    if samples.dtype != np.int16:
        raise ValidationError("samples must be int16")
    if samples.size and (samples.min() < cfg.adc_min or samples.max() > cfg.adc_max):
        raise ValidationError("samples exceed the ADC range")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(RECORDING_MAGIC, RECORDING_VERSION, cfg.adc_bits, 0, cfg.sample_rate_hz))
        fh.write(samples.astype("<i2").tobytes())


def read_recording(path) -> tuple[np.ndarray, RecordingConfig]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, adc_bits, _, sample_rate_hz = _HEADER.unpack(header)
        if magic != RECORDING_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != RECORDING_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe has no length to size the array by
            raise FormatError(f"{path}: not a regular file")
        payload = info.st_size - _HEADER.size
        if payload % 2:
            raise FormatError(f"{path}: odd payload length")
        # one array, filled in place: no second copy of the payload
        samples = np.empty(payload // 2, dtype="<i2")
        if fh.readinto(samples) != payload:
            raise FormatError(f"{path}: truncated payload")
    try:
        cfg = RecordingConfig(
            sample_rate_hz=sample_rate_hz,
            adc_bits=adc_bits,
            duration_s=max(len(samples), 1) / sample_rate_hz,
            seed=0,
        )
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if samples.size and (samples.min() < cfg.adc_min or samples.max() > cfg.adc_max):
        raise FormatError(f"{path}: samples exceed the declared ADC range")
    return samples, cfg


def write_annotations(path, annotations: list[EventRecord]) -> None:
    check_stream([ann.timestamp for ann in annotations], [ann.klass for ann in annotations])
    write_events_csv(path, annotations, _ANNOTATIONS_HEADER)


_ANNOTATION_LABELS = {SpikeClass.SS.name: SpikeClass.SS, SpikeClass.CS.name: SpikeClass.CS}


def read_annotations(path) -> list[EventRecord]:
    ticks: list[int] = []
    klasses: list[SpikeClass] = []
    add_tick, add_class = ticks.append, klasses.append
    labels = _ANNOTATION_LABELS
    # the reader decodes and splits lazily, so both errors surface in the loop
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != _ANNOTATIONS_HEADER:
                raise FormatError(f"{path}: expected header sample_index,label")
            for row in reader:
                try:
                    text, name = row
                except ValueError:
                    raise FormatError(f"{path}: malformed row {shown(row)}") from None
                try:  # int() alone also reads "1_0", " +2" and non-ASCII digits
                    if not (text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit())):
                        raise ValueError("not the writer's form")
                    add_tick(int(text))
                except ValueError as exc:
                    raise FormatError(f"{path}: bad sample index {shown(text)}") from exc
                try:
                    add_class(labels[name])
                except KeyError:
                    raise FormatError(f"{path}: unknown label {shown(name)}") from None
        check_stream(ticks, klasses)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: unreadable annotations CSV ({exc})") from exc
    except ValidationError as exc:  # the rows parse, but the stream breaks the writers' rule
        raise FormatError(f"{path}: {exc}") from exc
    return list(map(EventRecord, ticks, klasses))
