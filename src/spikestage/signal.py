"""Synthetic extracellular recordings and their on-disk formats.

A recording is a single channel of signed ADC samples.  The generator
plants two spike shapes on a noisy, drifting baseline: a short biphasic
spike (SS) of roughly 0.8 ms, and a longer complex shape (CS) whose
initial spike is followed by three decaying wavelets over roughly 1.7 ms.
Every planted spike is reported as an annotation at its onset sample, so
downstream stages can be scored against ground truth.

Recording file layout (little endian):

    offset  size  field
    0       4     magic "SPKR"
    4       1     version (currently 1)
    5       1     adc_bits
    6       2     reserved, zero
    8       8     sample_rate_hz, IEEE-754 double
    16      2*n   samples, int16

Annotations travel separately as CSV with header ``sample_index,label``,
rows sorted by sample index, labels ``SS`` or ``CS``.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ValidationError
from .nn import SpikeClass

RECORDING_MAGIC = b"SPKR"
RECORDING_VERSION = 1
_HEADER = struct.Struct("<4sBBHd")


class Annotation(NamedTuple):
    sample_index: int
    label: SpikeClass  # SS or CS; F never appears in ground truth


@dataclass(frozen=True)
class RecordingConfig:
    sample_rate_hz: float = 24414.0
    adc_bits: int = 10
    duration_s: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValidationError("sample_rate_hz must be positive")
        if not 2 <= self.adc_bits <= 16:
            raise ValidationError("adc_bits must be in [2, 16]")
        if self.duration_s <= 0:
            raise ValidationError("duration_s must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

    @property
    def num_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    @property
    def adc_min(self) -> int:
        return -(2 ** (self.adc_bits - 1))

    @property
    def adc_max(self) -> int:
        return 2 ** (self.adc_bits - 1) - 1


@dataclass(frozen=True)
class SynthesisParams:
    ss_rate_hz: float = 90.0  # simple-spike Poisson rate
    cs_rate_hz: float = 1.0  # complex-spike Poisson rate
    noise_sigma: float = 10.0  # ADC counts
    drift_amplitude: float = 20.0  # ADC counts, sinusoid peak and walk span
    drift_period_s: float = 5.0
    offset: float = 0.0  # constant baseline, ADC counts
    saturation_prob: float = 1e-4  # per-sample chance a rail-pinned run starts
    min_interval_ms: float = 4.0  # enforced across both spike classes

    def __post_init__(self):
        if min(self.ss_rate_hz, self.cs_rate_hz) < 0:
            raise ValidationError("spike rates must be non-negative")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be non-negative")
        if self.drift_period_s <= 0:
            raise ValidationError("drift_period_s must be positive")
        if not 0 <= self.saturation_prob < 1:
            raise ValidationError("saturation_prob must be in [0, 1)")
        if self.min_interval_ms <= 0:
            raise ValidationError("min_interval_ms must be positive")


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
) -> tuple[np.ndarray, list[Annotation]]:
    """Synthesize one recording.

    Returns (samples, annotations): int16 samples clipped to the ADC rails,
    and the planted spikes sorted by onset.  The same config and params
    always produce the same bytes.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.num_samples
    fs = cfg.sample_rate_hz
    scale = cfg.adc_max / 511.0  # templates are tuned against 10-bit rails

    ss_times = _poisson_times(rng, params.ss_rate_hz, cfg.duration_s)
    cs_times = _poisson_times(rng, params.cs_rate_hz, cfg.duration_s)
    events = [(t, SpikeClass.SS) for t in ss_times] + [(t, SpikeClass.CS) for t in cs_times]
    events.sort()

    # Enforce the minimum inter-spike interval across both classes in tick
    # units, so annotation spacing is exact after quantization to samples.
    min_gap = int(math.ceil(params.min_interval_ms * fs / 1000.0))
    kept: list[tuple[int, SpikeClass]] = []
    last_tick = -min_gap
    for t, label in events:
        tick = int(t * fs)
        if tick - last_tick >= min_gap:
            kept.append((tick, label))
            last_tick = tick

    signal = np.zeros(n)
    annotations: list[Annotation] = []
    for tick, label in kept:
        amp = 1.0 + AMPLITUDE_JITTER * (2.0 * rng.random() - 1.0)
        width = 1.0 + WIDTH_JITTER * (2.0 * rng.random() - 1.0)
        if label is SpikeClass.SS:
            template = _render_template(_SS_LOBES, _SS_SPAN_MS, _SS_PEAK, width, fs)
        else:
            template = _render_template(_CS_LOBES, _CS_SPAN_MS, _CS_PEAK, width, fs)
        if tick + len(template) > n:
            continue  # would be truncated by the end of the stream
        signal[tick : tick + len(template)] += amp * scale * template
        annotations.append(Annotation(tick, label))

    # Baseline: constant offset, slow sinusoid, bounded random walk.
    t = np.arange(n) / fs
    phase = rng.uniform(0.0, 2.0 * math.pi)
    signal += params.offset
    signal += params.drift_amplitude * np.sin(2.0 * math.pi * t / params.drift_period_s + phase)
    if params.drift_amplitude > 0:
        walk = np.cumsum(rng.standard_normal(n)) * (params.drift_amplitude / math.sqrt(n))
        signal += walk
    if params.noise_sigma > 0:
        signal += rng.normal(0.0, params.noise_sigma, size=n)

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
        payload = fh.read()
    if len(payload) % 2:
        raise FormatError(f"{path}: odd payload length")
    samples = np.frombuffer(payload, dtype="<i2").astype(np.int16)
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


def write_annotations(path, annotations: list[Annotation]) -> None:
    prev = -1
    for ann in annotations:
        if ann.label not in (SpikeClass.SS, SpikeClass.CS):
            raise ValidationError(f"annotation label must be SS or CS, got {ann.label.name}")
        if ann.sample_index <= prev:
            raise ValidationError("annotations must be strictly increasing by sample index")
        prev = ann.sample_index
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "label"])
        for ann in annotations:
            writer.writerow([ann.sample_index, ann.label.name])


def read_annotations(path) -> list[Annotation]:
    annotations: list[Annotation] = []
    # the reader decodes and splits lazily, so both errors surface in the loop
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["sample_index", "label"]:
                raise FormatError(f"{path}: expected header sample_index,label")
            prev = -1
            for row in reader:
                if len(row) != 2:
                    raise FormatError(f"{path}: malformed row {row!r}")
                try:
                    index = int(row[0])
                except ValueError as exc:
                    raise FormatError(f"{path}: bad sample index {row[0]!r}") from exc
                if row[1] not in (SpikeClass.SS.name, SpikeClass.CS.name):
                    raise FormatError(f"{path}: unknown label {row[1]!r}")
                if index <= prev:
                    raise FormatError(f"{path}: sample indices must be strictly increasing")
                prev = index
                annotations.append(Annotation(index, SpikeClass[row[1]]))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: unreadable annotations CSV ({exc})") from exc
    return annotations
