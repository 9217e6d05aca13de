import csv
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikestage import signal, store
from spikestage.errors import FormatError, ValidationError
from spikestage.nn import SpikeClass

from oracles import naive_honored


def test_pack_examples():
    events = [
        store.EventRecord(1, SpikeClass.CS),
        store.EventRecord(5, SpikeClass.SS),
        store.EventRecord(0, SpikeClass.SS),
        store.EventRecord(2**31 - 1, SpikeClass.CS),
    ]
    words = store.pack_words(events)
    assert words.dtype == np.uint32
    assert words.tolist() == [0x80000001, 5, 0, 0xFFFFFFFF]
    assert store.unpack_words(words) == events
    assert store.pack_words([]).shape == (0,)
    assert store.unpack_words(np.empty(0, dtype=np.uint32)) == []


def test_pack_rejections():
    for event in (
        store.EventRecord(1, SpikeClass.F),
        store.EventRecord(-1, SpikeClass.SS),
        store.EventRecord(2**31, SpikeClass.SS),
    ):
        with pytest.raises(ValidationError):
            store.pack_words([store.EventRecord(0, SpikeClass.SS), event])


def test_vector_forms_match_scalar():
    # per-event reference of the word layout: class bit 31, timestamp bits 0-30
    def word_of(event):
        return (int(event.klass is SpikeClass.CS) << 31) | event.timestamp

    events = [
        store.EventRecord(0, SpikeClass.SS),
        store.EventRecord(12345, SpikeClass.CS),
        store.EventRecord(2**31 - 1, SpikeClass.SS),
    ]
    words = store.pack_words(events)
    assert words.dtype == np.uint32
    assert words.tolist() == [word_of(e) for e in events]
    assert [store.unpack_words(np.array([w], dtype=np.uint32))[0] for w in words] == events
    assert store.unpack_words(words) == events
    assert store.pack_words([]).shape == (0,)
    with pytest.raises(ValidationError):
        store.pack_words([store.EventRecord(3, SpikeClass.F)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            store.EventRecord,
            st.integers(min_value=0, max_value=2**31 - 1),
            st.sampled_from([SpikeClass.SS, SpikeClass.CS]),
        ),
        max_size=20,
    )
)
def test_pack_unpack_roundtrip(events):
    assert store.unpack_words(store.pack_words(events)) == events


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=20))
def test_word_roundtrip(words):
    words = np.array(words, dtype=np.uint32)
    assert store.pack_words(store.unpack_words(words)).tobytes() == words.tobytes()


def test_event_log_roundtrip(tmp_path):
    events = [
        store.EventRecord(100, SpikeClass.SS),
        store.EventRecord(242, SpikeClass.CS),
        store.EventRecord(5000, SpikeClass.SS),
    ]
    path = tmp_path / "events.spkevt"
    store.write_event_log(path, events, 24414.0)
    loaded, rate = store.read_event_log(path)
    assert loaded == events
    assert rate == 24414.0

    raw = path.read_bytes()
    assert raw[:4] == b"SPKE"
    assert raw[4] == 1
    assert struct.unpack("<I", raw[8:12])[0] == 24414
    assert struct.unpack("<I", raw[12:16])[0] == 100
    assert struct.unpack("<I", raw[16:20])[0] == 0x80000000 | 242
    assert len(raw) == 12 + 4 * len(events)

    # writing identical events twice gives identical bytes
    other = tmp_path / "again.spkevt"
    store.write_event_log(other, events, 24414.0)
    assert other.read_bytes() == raw


def test_write_rejects_non_monotonic(tmp_path):
    path = tmp_path / "events.spkevt"
    events = [
        store.EventRecord(100, SpikeClass.SS),
        store.EventRecord(100, SpikeClass.CS),
    ]
    with pytest.raises(ValidationError):
        store.write_event_log(path, events, 24414.0)
    with pytest.raises(ValidationError):
        store.write_event_log(path, list(reversed(events)), 24414.0)
    # a duplicate inside a longer run; packing alone does not check order
    events = [store.EventRecord(t, SpikeClass.SS) for t in (3, 7, 7, 9)]
    assert store.pack_words(events).tolist() == [3, 7, 7, 9]
    with pytest.raises(ValidationError):
        store.write_event_log(path, events, 24414.0)
    with pytest.raises(ValidationError):
        store.write_event_log(path, [store.EventRecord(1, SpikeClass.SS)], 0.0)
    assert not path.exists()


@pytest.mark.parametrize(
    "events",
    [
        [store.EventRecord(5, SpikeClass.SS), store.EventRecord(9, SpikeClass.F)],
        # the plain int 1 has SpikeClass.SS's value but is not a class
        [store.EventRecord(5, SpikeClass.SS), store.EventRecord(9, 1)],
        [store.EventRecord(0, 0)],
        [store.EventRecord(5, SpikeClass.SS), store.EventRecord(2**31, SpikeClass.CS)],
        [store.EventRecord(-1, SpikeClass.CS)],
    ],
)
def test_pack_and_write_reject_unstorable_events(tmp_path, events):
    with pytest.raises(ValidationError):
        store.pack_words(events)
    path = tmp_path / "events.spkevt"
    with pytest.raises(ValidationError):
        store.write_event_log(path, events, 24414.0)
    assert not path.exists()


@pytest.mark.parametrize("tick", [7.9, 1.5, 2.0, True, np.float64(3.0), "4", None])
def test_writers_refuse_non_integer_ticks(tmp_path, tick):
    # a float was truncated into the log and written as "1.5" into the CSV,
    # which read_annotations then refused; a bool passed as 1
    events = [store.EventRecord(0, SpikeClass.SS), store.EventRecord(tick, SpikeClass.CS)]
    log, csv_path = tmp_path / "events.spkevt", tmp_path / "ann.csv"
    with pytest.raises(ValidationError, match="tick must be an integer"):
        store.write_event_log(log, events, 24414.0)
    with pytest.raises(ValidationError, match="tick must be an integer"):
        signal.write_annotations(csv_path, events)
    assert not log.exists() and not csv_path.exists()


def test_writers_take_numpy_integer_ticks(tmp_path):
    events = [
        store.EventRecord(np.int64(3), SpikeClass.SS),
        store.EventRecord(np.uint16(40), SpikeClass.CS),
        store.EventRecord(np.int32(2**31 - 1), SpikeClass.SS),
    ]
    log, csv_path = tmp_path / "events.spkevt", tmp_path / "ann.csv"
    store.write_event_log(log, events, 24414.0)
    signal.write_annotations(csv_path, events)
    assert store.read_event_log(log)[0] == signal.read_annotations(csv_path) == events
    with pytest.raises(ValidationError, match="31 bits"):  # past int64, not an OverflowError
        store.pack_words([store.EventRecord(2**64, SpikeClass.SS)])


# ticks of every kind a caller might pass, and orders that are often increasing
TICKS = st.one_of(
    st.integers(-2, 2**31 + 2),
    st.integers(0, 2**31 - 1).map(np.int64),
    st.integers(0, 2**16 - 1).map(np.uint16),
    st.integers(2**63 - 2, 2**70),
    st.floats(allow_nan=True),
    st.booleans(),
)


@st.composite
def tick_class_rows(draw):
    rows = draw(st.lists(st.tuples(TICKS, st.sampled_from(list(SpikeClass))), max_size=6))
    if draw(st.booleans()):
        rows.sort(key=lambda row: float(row[0]))
    return [store.EventRecord(t, k) for t, k in rows]


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


@settings(max_examples=60, deadline=None)
@given(tick_class_rows())
def test_what_a_writer_accepts_reads_back_unchanged(writer_dir, events):
    writers = (
        (lambda p: store.write_event_log(p, events, 24414.0), lambda p: store.read_event_log(p)[0]),
        (lambda p: signal.write_annotations(p, events), signal.read_annotations),
    )
    for write, read in writers:
        path = writer_dir / "out"
        path.unlink(missing_ok=True)
        try:
            write(path)
        except ValidationError:
            assert not path.exists()
            continue
        assert read(path) == events


def test_read_rejects_damage(tmp_path):
    path = tmp_path / "events.spkevt"
    good = struct.pack("<4sBBHI", b"SPKE", 1, 0, 0, 24414)

    path.write_bytes(good[:6])
    with pytest.raises(FormatError):
        store.read_event_log(path)

    path.write_bytes(b"NOPE" + good[4:])
    with pytest.raises(FormatError):
        store.read_event_log(path)

    path.write_bytes(struct.pack("<4sBBHI", b"SPKE", 2, 0, 0, 24414))
    with pytest.raises(FormatError):
        store.read_event_log(path)

    path.write_bytes(struct.pack("<4sBBHI", b"SPKE", 1, 0, 0, 0))
    with pytest.raises(FormatError):
        store.read_event_log(path)

    path.write_bytes(good + b"\x01\x02\x03")  # 3 stray bytes
    with pytest.raises(FormatError):
        store.read_event_log(path)

    # words 10 then 5: valid u32s, invalid ordering
    path.write_bytes(good + struct.pack("<II", 10, 5))
    with pytest.raises(FormatError):
        store.read_event_log(path)


def test_events_csv_roundtrip(tmp_path):
    events = [
        store.EventRecord(100, SpikeClass.SS),
        store.EventRecord(250, SpikeClass.CS),
        store.EventRecord(400, SpikeClass.F),
    ]
    path = tmp_path / "events.csv"
    store.write_events_csv(path, events, ["timestamp", "class"])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["timestamp", "class"], ["100", "SS"], ["250", "CS"], ["400", "F"]]


def sorted_ticks(unique: bool):
    # a drawn upper bound varies the density, from runs of adjacent ticks to sparse ones
    return st.integers(0, 5000).flatmap(
        lambda hi: st.lists(st.integers(0, hi), unique=unique, max_size=300).map(sorted)
    )


@settings(max_examples=300, deadline=None)
@given(
    # the detector's candidates never repeat; the synthesizer's spike ticks may
    st.one_of(sorted_ticks(unique=True), sorted_ticks(unique=False)),
    st.integers(1, 100),
)
def test_spacing_scan_matches_loop(ticks, gap):
    ticks = np.array(ticks, dtype=np.int64)
    kept = store.spaced_positions(ticks, gap)
    assert ticks[kept].tolist() == naive_honored(ticks, gap)
    # of repeated ticks, the first is the one kept
    assert np.array_equal(np.searchsorted(ticks, ticks[kept], side="left"), kept)

