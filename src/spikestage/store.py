"""Tick-and-class streams: row type, spacing rule, packed event word, event log, CSV rows.

An EventRecord is a classified detection or a ground-truth spike; one
writer renders a stream of either as CSV rows under its format's header.
One greedy scan, spaced_positions, spaces ticks apart: the device honors a
detection only outside the busy period of the last one honored, and the
synthesizer plants a spike only a minimum interval after the last one
planted.

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
The word size, RECORD_BYTES, lives in budget, which sizes storage with it
and imports no numpy.
"""

from __future__ import annotations

import csv
import struct
from typing import NamedTuple

import numpy as np

from .budget import RECORD_BYTES
from .errors import FormatError, ValidationError
from .nn import SpikeClass

EVENT_MAGIC = b"SPKE"
EVENT_LOG_VERSION = 1
_HEADER = struct.Struct("<4sBBHI")

TIMESTAMP_BITS = 31
MAX_TIMESTAMP = 2**TIMESTAMP_BITS - 1


class EventRecord(NamedTuple):
    """One classified detection, or one ground-truth spike at its onset."""

    timestamp: int  # detection or onset tick, in sample ticks since stream start
    klass: SpikeClass  # any class, but the log stores and ground truth holds only SS and CS


def check_ticks(ticks) -> None:
    """Refuse any tick that is not an integer: a plain int or a numpy integer, never a bool.

    Both tick-and-class writers check their ticks here, so neither stores a
    truncated float nor writes a row its reader refuses.  One pass over the
    ticks' types.
    """
    for kind in set(map(type, ticks)):
        if kind is not int and not issubclass(kind, np.integer):
            raise ValidationError(f"tick must be an integer, got {kind.__name__}")


def spaced_positions(ticks: np.ndarray, gap: int) -> np.ndarray:
    """Positions of the ticks a greedy scan keeps, each at least gap past the last one kept.

    ticks is a non-decreasing int64 array, repeats allowed; gap is at least
    1, and ticks + gap must fit in int64.  hop[i] is the first tick at or
    past tick i + gap.  The first tick is kept (no earlier one masks it),
    and so is every hop target, so the scan visits kept ticks only.
    """
    # a memoryview yields Python ints without a list of every tick
    hop = memoryview(np.searchsorted(ticks, ticks + gap, side="left"))
    n = len(ticks)
    kept = []
    i = 0
    while i < n:
        kept.append(i)
        i = hop[i]
    return np.array(kept, dtype=np.intp)


def pack_words(events: list[EventRecord]) -> np.ndarray:
    """Encode events as u32 words; validates every event."""
    if not events:
        return np.empty(0, dtype=np.uint32)
    ticks = [e.timestamp for e in events]
    check_ticks(ticks)
    try:
        ts = np.array(ticks, dtype=np.int64)
    except OverflowError:  # past int64, so past 31 bits too
        raise ValidationError("timestamp does not fit in 31 bits") from None
    if ts.min() < 0 or ts.max() > MAX_TIMESTAMP:
        raise ValidationError("timestamp does not fit in 31 bits")
    # identity, not equality: the plain int 1 is not SpikeClass.SS
    cs, ss = SpikeClass.CS, SpikeClass.SS
    bits = np.array([1 if e.klass is cs else 0 if e.klass is ss else 2 for e in events])
    if bits.max() > 1:
        raise ValidationError("only SS and CS events can be stored")
    return ((bits << TIMESTAMP_BITS) | ts).astype(np.uint32)


_KLASS_OF_BIT = (SpikeClass.SS, SpikeClass.CS)


def unpack_words(words: np.ndarray) -> list[EventRecord]:
    """Decode u32 words back into events."""
    words = np.asarray(words, dtype=np.uint32)
    ts = (words & MAX_TIMESTAMP).tolist()
    klasses = map(_KLASS_OF_BIT.__getitem__, (words >> TIMESTAMP_BITS).tolist())
    return list(map(EventRecord, ts, klasses))


def _increasing(ts: np.ndarray) -> bool:
    return bool(np.all(ts[1:] > ts[:-1]))


def write_event_log(path, events: list[EventRecord], sample_rate_hz: float) -> None:
    rate = int(round(sample_rate_hz))
    if not 0 < rate <= 0xFFFFFFFF:
        raise ValidationError("sample rate does not fit in a u32")
    words = pack_words(events)
    if not _increasing(words & MAX_TIMESTAMP):
        raise ValidationError("event timestamps must be strictly increasing")
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
    words = np.frombuffer(payload, dtype="<u4")
    if not _increasing(words & MAX_TIMESTAMP):
        raise FormatError(f"{path}: event timestamps are not strictly increasing")
    return unpack_words(words), float(rate)


def write_events_csv(path, events, header: list[str]) -> None:
    """A tick-and-class stream as CSV: `header`, then timestamp,class name per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([event.timestamp, event.klass.name] for event in events)
