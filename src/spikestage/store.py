"""Event storage format and the power/storage budget model.

A stored event is one little-endian 32-bit word: bit 31 carries the class
(1 = CS, 0 = SS) and bits 30..0 carry the detection timestamp in sample
ticks.  31 bits cover more than 24 hours at 24.414 kHz.  False-positive
classifications are never stored, so one bit suffices.

Event log file layout (little endian):

    offset  size  field
    0       4     magic "SPKE"
    4       1     version (currently 1)
    5       1     reserved, zero
    6       2     reserved, zero
    8       4     sample_rate_hz, u32
    12      4*n   event words, u32

Timestamps must be strictly increasing; both writer and reader enforce it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ValidationError
from .nn import SpikeClass

EVENT_MAGIC = b"SPKE"
EVENT_LOG_VERSION = 1
_HEADER = struct.Struct("<4sBBHI")

TIMESTAMP_BITS = 31
MAX_TIMESTAMP = 2**TIMESTAMP_BITS - 1
RECORD_BYTES = 4


class EventRecord(NamedTuple):
    """One classified detection; the pipeline emits it as PipelineEvent."""

    timestamp: int  # detection tick, in sample ticks since stream start
    klass: SpikeClass  # any class, but pack stores only SS and CS


def pack(event: EventRecord) -> int:
    """Encode one event as a u32 word."""
    if event.klass is SpikeClass.CS:
        bit = 1
    elif event.klass is SpikeClass.SS:
        bit = 0
    else:
        raise ValidationError("only SS and CS events can be stored")
    if not 0 <= event.timestamp <= MAX_TIMESTAMP:
        raise ValidationError(f"timestamp {event.timestamp} does not fit in 31 bits")
    return (bit << TIMESTAMP_BITS) | event.timestamp


def unpack(word: int) -> EventRecord:
    """Decode a u32 word back into an event."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise ValidationError(f"word {word} is not a u32")
    klass = SpikeClass.CS if (word >> TIMESTAMP_BITS) & 1 else SpikeClass.SS
    return EventRecord(timestamp=word & MAX_TIMESTAMP, klass=klass)


def pack_words(events: list[EventRecord]) -> np.ndarray:
    """Vector form of pack; validates every event."""
    if not events:
        return np.empty(0, dtype=np.uint32)
    ts = np.array([e.timestamp for e in events], dtype=np.int64)
    if ts.min() < 0 or ts.max() > MAX_TIMESTAMP:
        raise ValidationError("timestamp does not fit in 31 bits")
    bits = np.empty(len(events), dtype=np.int64)
    for i, e in enumerate(events):
        if e.klass is SpikeClass.CS:
            bits[i] = 1
        elif e.klass is SpikeClass.SS:
            bits[i] = 0
        else:
            raise ValidationError("only SS and CS events can be stored")
    return ((bits << TIMESTAMP_BITS) | ts).astype(np.uint32)


def unpack_words(words: np.ndarray) -> list[EventRecord]:
    """Vector form of unpack."""
    words = np.asarray(words, dtype=np.uint32)
    ts = (words & MAX_TIMESTAMP).astype(np.int64)
    bits = (words >> TIMESTAMP_BITS).astype(np.int64)
    return [
        EventRecord(int(t), SpikeClass.CS if b else SpikeClass.SS)
        for t, b in zip(ts, bits)
    ]


def write_event_log(path, events: list[EventRecord], sample_rate_hz: float) -> None:
    rate = int(round(sample_rate_hz))
    if not 0 < rate <= 0xFFFFFFFF:
        raise ValidationError("sample rate does not fit in a u32")
    ts = [e.timestamp for e in events]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("event timestamps must be strictly increasing")
    words = pack_words(events)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(EVENT_MAGIC, EVENT_LOG_VERSION, 0, 0, rate))
        fh.write(words.astype("<u4").tobytes())


def read_event_log(path) -> tuple[list[EventRecord], float]:
    """Returns (events, sample_rate_hz); validates magic, version, monotonicity."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, _, _, rate = _HEADER.unpack(header)
        if magic != EVENT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != EVENT_LOG_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if rate == 0:
            raise FormatError(f"{path}: zero sample rate")
        payload = fh.read()
    if len(payload) % RECORD_BYTES:
        raise FormatError(f"{path}: payload is not a whole number of records")
    events = unpack_words(np.frombuffer(payload, dtype="<u4"))
    ts = [e.timestamp for e in events]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise FormatError(f"{path}: event timestamps are not strictly increasing")
    return events, float(rate)


@dataclass(frozen=True)
class ResourceModel:
    """Published energy figures and deployment constants.

    Energies are per operation; the detector figure is one full
    detection cycle.  The battery voltage is an assumption (the cell
    chemistry is not part of the published figures) and is echoed in
    every report that uses it.
    """

    e_detect_nj: float = 4.46  # one detection cycle
    e_classify_nj: float = 311.0  # one classification
    e_store_nj: float = 0.28  # one stored event
    e_adc_pj: float = 0.5  # one ADC conversion
    sample_rate_hz: float = 24414.0
    spike_rate_hz: float = 100.0  # sustained event rate for sizing
    battery_capacity_mah: float = 12.0
    battery_voltage_v: float = 1.5  # assumed cell voltage
    storage_capacity_bytes: int = 32 * 2**20
    record_bytes: int = RECORD_BYTES
    # "per_sample" charges one detection cycle per ADC sample, matching the
    # always-on front end; "per_event" charges it once per detected spike.
    detector_energy_basis: str = "per_sample"

    def __post_init__(self):
        if self.detector_energy_basis not in ("per_sample", "per_event"):
            raise ValidationError(
                f"unknown detector_energy_basis {self.detector_energy_basis!r}"
            )
        for name in (
            "e_detect_nj",
            "e_classify_nj",
            "e_store_nj",
            "e_adc_pj",
            "sample_rate_hz",
            "spike_rate_hz",
            "battery_capacity_mah",
            "battery_voltage_v",
        ):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")


def storage_required(duration_s: float, spike_rate_hz: float, record_bytes: int = RECORD_BYTES) -> int:
    """Bytes needed to store every event of a run, rounded up to whole events."""
    if duration_s < 0 or spike_rate_hz < 0:
        raise ValidationError("duration and spike rate must be non-negative")
    if record_bytes <= 0:
        raise ValidationError("record_bytes must be positive")
    return int(math.ceil(duration_s * spike_rate_hz)) * record_bytes


def power_breakdown(model: ResourceModel) -> dict[str, float]:
    """Average power per subsystem, in watts."""
    adc = model.sample_rate_hz * model.e_adc_pj * 1e-12
    if model.detector_energy_basis == "per_sample":
        detect = model.sample_rate_hz * model.e_detect_nj * 1e-9
    else:
        detect = model.spike_rate_hz * model.e_detect_nj * 1e-9
    classify = model.spike_rate_hz * model.e_classify_nj * 1e-9
    store_p = model.spike_rate_hz * model.e_store_nj * 1e-9
    return {
        "adc_w": adc,
        "detector_w": detect,
        "classifier_w": classify,
        "storage_w": store_p,
        "total_w": adc + detect + classify + store_p,
    }


def average_power(model: ResourceModel) -> float:
    """Average system power in watts."""
    return power_breakdown(model)["total_w"]


def battery_life_days(model: ResourceModel) -> float:
    """How long the configured battery sustains the average power, in days."""
    power = average_power(model)
    if power <= 0:
        raise ValidationError("average power must be positive to size a battery")
    energy_j = model.battery_capacity_mah / 1000.0 * 3600.0 * model.battery_voltage_v
    return energy_j / power / 86400.0
