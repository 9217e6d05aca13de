import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikestage import analysis as an
from spikestage import detector as det
from spikestage.config import DetectorConfig, PostprocConfig
from spikestage.errors import ValidationError
from spikestage.nn import SpikeClass
from spikestage.signal import Annotation
from spikestage.store import EventRecord

from oracles import naive_dead_zone, smoothed_energy

FS = 24414.0


def ev(ts, klass=SpikeClass.SS):
    return EventRecord(ts, klass)


# ---------------------------------------------------------------------------
# Confusion matrix and accuracy


def test_confusion_matrix_basics():
    cm = an.ConfusionMatrix()
    assert cm.total == 0 and cm.counts.shape == (3, 3) and cm.counts.dtype == np.int64
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[SpikeClass.SS, SpikeClass.CS] += 1  # rows are the true class
    counts[SpikeClass.F, SpikeClass.SS] += 1
    cm = an.ConfusionMatrix(counts.tolist())
    assert cm.counts.dtype == np.int64
    assert cm.counts[1, 0] == 1 and cm.counts[2, 1] == 1 and cm.total == 2
    with pytest.raises(ValidationError):
        an.ConfusionMatrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        an.ConfusionMatrix(np.full((3, 3), -1))


def test_accuracy_worked_example():
    cm = an.ConfusionMatrix(np.array([[93, 7, 0], [5, 95, 0], [0, 0, 0]]))
    assert an.accuracy(cm, SpikeClass.CS) == (93 + 95) / 200
    assert an.accuracy(cm, SpikeClass.CS) == 0.94


def test_accuracy_frozen_matrix():
    cm = an.ConfusionMatrix(
        np.array([[2550, 150, 300], [100, 4702, 50], [115, 33, 2000]])
    )
    assert cm.total == 10_000
    assert math.isclose(an.accuracy(cm, SpikeClass.CS), 0.9335, abs_tol=1e-12)
    assert math.isclose(an.accuracy(cm, SpikeClass.SS), 0.9667, abs_tol=1e-12)
    assert math.isclose(an.accuracy(cm, SpikeClass.F), 0.9502, abs_tol=1e-12)
    expected_overall = (0.9335 + 0.9667 + 0.9502) / 3
    assert math.isclose(an.overall_accuracy(cm), expected_overall, abs_tol=1e-12)


def test_accuracy_requires_data():
    with pytest.raises(ValidationError):
        an.accuracy(an.ConfusionMatrix(), SpikeClass.CS)
    with pytest.raises(ValidationError):
        an.f1_with_flag(an.ConfusionMatrix(), SpikeClass.CS)


def test_f1_cases():
    # tp=8, fn=2, fp=1 for CS
    cm = an.ConfusionMatrix(np.array([[8, 2, 0], [1, 5, 0], [0, 0, 4]]))
    score, defined = an.f1_with_flag(cm, SpikeClass.CS)
    assert defined and math.isclose(score, 16 / 19, rel_tol=1e-12)

    absent = an.ConfusionMatrix(np.array([[0, 0, 0], [0, 5, 0], [0, 0, 3]]))
    assert an.f1_with_flag(absent, SpikeClass.CS) == (1.0, True)

    missed = an.ConfusionMatrix(np.array([[0, 2, 0], [0, 5, 0], [0, 0, 3]]))
    assert an.f1_with_flag(missed, SpikeClass.CS) == (0.0, False)

    spurious = an.ConfusionMatrix(np.array([[0, 0, 0], [1, 5, 0], [0, 0, 3]]))
    assert an.f1_with_flag(spurious, SpikeClass.CS) == (0.0, False)


def test_metrics_report_shape():
    cm = an.ConfusionMatrix(np.array([[8, 2, 0], [1, 5, 0], [0, 0, 4]]))
    report = an.metrics_report(cm)
    assert report["confusion"]["order"] == ["CS", "SS", "F"]
    assert report["confusion"]["counts"] == cm.counts.tolist()
    assert math.isclose(report["overall_accuracy"], an.overall_accuracy(cm), rel_tol=1e-15)
    cs = report["per_class"]["CS"]
    assert cs["tp"] == 8 and cs["fn"] == 2 and cs["fp"] == 1 and cs["tn"] == 9
    assert math.isclose(cs["precision"], 8 / 9, rel_tol=1e-15)
    assert math.isclose(cs["recall"], 8 / 10, rel_tol=1e-15)
    assert cs["f1_defined"] is True


# ---------------------------------------------------------------------------
# Dead zone


def test_dead_zone_hand_rules():
    cfg = PostprocConfig(dead_zone_ms=4.0)
    fs = 1000.0  # zone is exactly 4 ticks

    # half-open: exactly at the boundary survives
    events = [ev(100), ev(103), ev(104)]
    assert an.apply_dead_zone(events, cfg, fs) == [ev(100), ev(104)]

    # CS events do not open zones
    events = [ev(100, SpikeClass.CS), ev(102), ev(103, SpikeClass.CS)]
    assert an.apply_dead_zone(events, cfg, fs) == [ev(100, SpikeClass.CS), ev(102)]

    # but CS events inside an SS zone are discarded
    events = [ev(100), ev(101, SpikeClass.CS)]
    assert an.apply_dead_zone(events, cfg, fs) == [ev(100)]

    # discarded events do not extend the zone
    events = [ev(100), ev(103), ev(105)]
    assert an.apply_dead_zone(events, cfg, fs) == [ev(100), ev(105)]

    # zero-width zone keeps everything
    all_kept = an.apply_dead_zone(events, PostprocConfig(dead_zone_ms=0.0), fs)
    assert all_kept == events

    with pytest.raises(ValidationError):
        an.apply_dead_zone([ev(5), ev(5)], cfg, fs)
    with pytest.raises(ValidationError):
        an.apply_dead_zone([ev(5), ev(4)], cfg, fs)
    with pytest.raises(ValidationError):
        an.apply_dead_zone(events, cfg, 0.0)
    with pytest.raises(ValidationError):
        PostprocConfig(dead_zone_ms=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            PostprocConfig(dead_zone_ms=bad)


def test_dead_zone_matches_naive_reference():
    cfg = PostprocConfig()
    zone_ticks = cfg.dead_zone_ms * FS / 1000.0
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(0, 60))
        ts = np.unique(rng.integers(0, 3000, size=n))
        events = [
            ev(int(t), SpikeClass(int(rng.integers(0, 3)))) for t in ts
        ]
        kept = an.apply_dead_zone(events, cfg, FS)
        assert kept == naive_dead_zone(events, zone_ticks)
        # idempotence
        assert an.apply_dead_zone(kept, cfg, FS) == kept


# ---------------------------------------------------------------------------
# Event matching


def test_match_events_hand_cases():
    fs, tol = 1000.0, 10.0  # 10 ticks
    ann = [Annotation(105, SpikeClass.SS)]
    cm = an.match_events([ev(100)], ann, fs, tol)
    assert cm.counts[1, 1] == 1 and cm.total == 1

    cm = an.match_events([ev(100, SpikeClass.CS)], ann, fs, tol)
    assert cm.counts[1, 0] == 1 and cm.total == 1

    # spurious event plus missed annotation
    cm = an.match_events([ev(100)], [Annotation(200, SpikeClass.CS)], fs, tol)
    assert cm.counts[2, 1] == 1  # spurious SS event
    assert cm.counts[0, 2] == 1  # missed CS annotation
    assert cm.total == 2

    # nearest wins; ties go to the earlier annotation
    ann = [Annotation(95, SpikeClass.CS), Annotation(105, SpikeClass.SS)]
    cm = an.match_events([ev(100)], ann, fs, tol)
    assert cm.counts[0, 1] == 1  # claimed the CS annotation at 95
    assert cm.counts[1, 2] == 1  # SS annotation missed

    # one-to-one: a claimed annotation is not reused
    ann = [Annotation(100, SpikeClass.SS)]
    cm = an.match_events([ev(100), ev(101)], ann, fs, tol)
    assert cm.counts[1, 1] == 1 and cm.counts[2, 1] == 1

    # tolerance is inclusive on both sides
    cm = an.match_events([ev(100)], [Annotation(90, SpikeClass.SS)], fs, tol)
    assert cm.counts[1, 1] == 1
    cm = an.match_events([ev(100)], [Annotation(110, SpikeClass.SS)], fs, tol)
    assert cm.counts[1, 1] == 1
    cm = an.match_events([ev(100)], [Annotation(89, SpikeClass.SS)], fs, tol)
    assert cm.counts[1, 1] == 0

    with pytest.raises(ValidationError):
        an.match_events([], [], 0.0)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            an.match_events([], [], fs, bad)


def test_match_events_conservation():
    rng = np.random.default_rng(23)
    for _ in range(30):
        ann_ticks = np.unique(rng.integers(0, 50_000, size=int(rng.integers(1, 80))))
        ann = [
            Annotation(int(t), SpikeClass.SS if rng.random() < 0.8 else SpikeClass.CS)
            for t in ann_ticks
        ]
        ev_ticks = np.unique(rng.integers(0, 50_000, size=int(rng.integers(1, 80))))
        events = [
            ev(int(t), SpikeClass.SS if rng.random() < 0.8 else SpikeClass.CS)
            for t in ev_ticks
        ]
        cm = an.match_events(events, ann, FS, tolerance_ms=1.0)
        matched = int(cm.counts[0:2, 0:2].sum())
        missed = int(cm.counts[0:2, 2].sum())
        spurious = int(cm.counts[2, 0:2].sum())
        assert cm.counts[2, 2] == 0
        assert matched + missed == len(ann)
        assert matched + spurious == len(events)
        assert cm.total == len(ann) + spurious


def test_match_events_empty_inputs():
    ann = [Annotation(10, SpikeClass.SS)]
    cm = an.match_events([], ann, FS)
    assert cm.counts[1, 2] == 1 and cm.total == 1
    cm = an.match_events([ev(10)], [], FS)
    assert cm.counts[2, 1] == 1 and cm.total == 1
    assert an.match_events([], [], FS).total == 0


def naive_match(events, annotations, sample_rate_hz, tolerance_ms=1.0):
    """Reference greedy matcher on Annotation/event objects, one count at a time."""
    tol_ticks = tolerance_ms * sample_rate_hz / 1000.0
    counts = np.zeros((3, 3), dtype=np.int64)  # [true, predicted]
    ann = list(annotations)
    claimed = [False] * len(ann)
    j = 0
    for event in events:
        t = event.timestamp
        while j < len(ann) and (claimed[j] or ann[j].sample_index < t - tol_ticks):
            if not claimed[j]:
                counts[ann[j].label, SpikeClass.F] += 1
            j += 1
        best = None
        k = j
        while k < len(ann) and ann[k].sample_index <= t + tol_ticks:
            if not claimed[k] and (
                best is None or abs(ann[k].sample_index - t) < abs(ann[best].sample_index - t)
            ):
                best = k
            k += 1
        if best is None:
            counts[SpikeClass.F, event.klass] += 1
        else:
            claimed[best] = True
            counts[ann[best].label, event.klass] += 1
    for idx in range(j, len(ann)):
        if not claimed[idx]:
            counts[ann[idx].label, SpikeClass.F] += 1
    return counts


def sorted_ticks(max_tick):
    return st.lists(st.integers(0, max_tick), unique=True, max_size=40).map(sorted)


@settings(max_examples=300, deadline=None)
@given(
    # ticks on a short span, so equal-distance ties and shared windows are common
    sorted_ticks(150),
    sorted_ticks(150),
    st.data(),
    # (sample rate, tolerance ms): none, the default 24.414 ticks, a fractional
    # 6.1 ticks, and exactly 3 ticks so events land on the inclusive bound
    st.sampled_from([(FS, 0.0), (FS, 1.0), (FS, 0.25), (1000.0, 3.0)]),
)
def test_match_events_matches_naive(ann_ticks, ev_ticks, data, rate_tol):
    fs, tol = rate_tol
    labels = st.sampled_from([SpikeClass.SS, SpikeClass.CS])
    ann = [Annotation(t, data.draw(labels)) for t in ann_ticks]
    events = [ev(t, data.draw(st.sampled_from(list(SpikeClass)))) for t in ev_ticks]
    cm = an.match_events(events, ann, fs, tol)
    expected = naive_match(events, ann, fs, tol)
    assert cm.counts.dtype == np.int64
    assert cm.counts.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# Trace CSV


def test_write_trace_csv(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    samples = rng.normal(0.0, 10.0, size=9000)
    cfg = DetectorConfig()
    trace = det.detector_trace(samples, cfg)
    y = det.smooth(samples, cfg.alpha_signal)
    y_neo = smoothed_energy(samples, cfg)
    monkeypatch.setattr(det, "CHUNK", 1000)  # block edges inside the rows written
    path = tmp_path / "trace.csv"
    an.write_trace_csv(path, samples, trace, cfg, limit=8000)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tick", "raw", "smoothed", "energy", "threshold"]
    assert len(rows) == 8001
    converged = trace.converged_tick
    assert converged is not None and converged < 7999  # rows on both sides of it
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i and int(row[1]) == int(samples[i])
        # every numeric cell parses as a plain float, exactly the one-pass value
        assert float(row[2]) == y[i]
        assert float(row[3]) == y_neo[i]
        # threshold reported as 0 before convergence
        assert float(row[4]) == (trace.threshold if i >= converged else 0.0)

    # without a limit every tick is written, and the limited file is its prefix
    an.write_trace_csv(tmp_path / "full.csv", samples, trace, cfg)
    full = (tmp_path / "full.csv").read_bytes()
    assert full.startswith(path.read_bytes())
    assert full.count(b"\n") == len(samples) + 1
