import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from spikestage import nn
from spikestage import train as tr
from spikestage.analysis import overall_accuracy
from spikestage.config import DseConfig, TrainConfig
from spikestage.errors import FormatError, ValidationError
from spikestage.nn import SpikeClass
from spikestage.store import EventRecord

from oracles import dataset_jsonl, make_cluster_dataset


# ---------------------------------------------------------------------------
# Dataset construction and IO


def test_build_dataset_labeling(recording, dataset):
    samples, annotations, cfg = recording
    window = 1.0 * cfg.sample_rate_hz / 1000.0
    ann_ticks = np.array([a.timestamp for a in annotations])
    ann_label = {a.timestamp: a.klass for a in annotations}
    assert len(dataset) > 100
    by_class = Counter(item.label for item in dataset)
    assert by_class[SpikeClass.SS] > by_class[SpikeClass.CS] > 0
    assert by_class[SpikeClass.F] > 0
    for item in dataset:
        nearest = int(ann_ticks[np.abs(ann_ticks - item.origin_index).argmin()])
        dist = abs(nearest - item.origin_index)
        if item.label is SpikeClass.F:
            assert dist > window
        else:
            assert dist <= window
            assert ann_label[nearest] is item.label


def nearest_label_oracle(ticks, annotations, window):
    """The per-detection labeling loop build_dataset ran before it was vectorized."""
    ann_ticks = np.array([a.timestamp for a in annotations], dtype=np.float64)
    labels = []
    for t in ticks:
        label = SpikeClass.F
        if len(ann_ticks):
            j = int(np.searchsorted(ann_ticks, t))
            best, dist = None, None
            for cand in (j - 1, j):
                if 0 <= cand < len(ann_ticks):
                    d = abs(ann_ticks[cand] - t)
                    if dist is None or d < dist:
                        best, dist = cand, d
            if best is not None and dist <= window:
                label = annotations[best].klass
        labels.append(int(label))
    return labels


@settings(max_examples=300, deadline=None)
@given(
    ann=st.lists(
        st.tuples(st.integers(0, 200), st.sampled_from(list(SpikeClass))), max_size=12
    ),
    ticks=st.lists(st.integers(-20, 220), max_size=30),
    window=st.sampled_from([0.5, 1.0, 3.0, 4.5, 10.0, 24.414]),
)
@example(ann=[(10, SpikeClass.CS), (20, SpikeClass.SS)], ticks=[15, 12, 18, 5, 25, 9], window=5.0)
@example(ann=[(10, SpikeClass.CS), (10, SpikeClass.SS)], ticks=[10, 7, 13], window=3.0)
@example(ann=[], ticks=[0, 5], window=1.0)
def test_label_detections_matches_loop(ann, ticks, window):
    # ties, no annotations, ticks before the first and after the last
    # annotation, distances of exactly the window, repeated annotation ticks
    annotations = [EventRecord(t, k) for t, k in sorted(ann, key=lambda a: a[0])]
    labels = tr.label_detections(np.array(ticks, dtype=np.int64), annotations, window)
    assert labels.tolist() == nearest_label_oracle(ticks, annotations, window)


def test_build_dataset_validation():
    with pytest.raises(ValidationError):
        tr.build_dataset(np.zeros(10), [], 0.0)
    with pytest.raises(ValidationError):
        tr.build_dataset(np.zeros(10), [], 24414.0, label_window_ms=0.0)


def test_dataset_validation():
    ds = tr.Dataset(np.zeros((2, 40)), [SpikeClass.SS, SpikeClass.F], [5, 9])
    assert ds.waveforms.dtype == np.int8 and ds.labels.dtype == ds.ticks.dtype == np.int64
    for bad in (
        (np.zeros((2, 39)), [1, 2], [5, 9]),  # short waveforms
        (np.zeros(40), [1], [5]),  # one waveform, not a column of them
        (np.zeros((3, 40)), [1, 2], [5, 9]),  # a waveform without a label
        (np.zeros((2, 40)), [1, 2], [5]),  # a label without a tick
        (np.zeros((1, 40)), 1, [5]),  # a scalar label
    ):
        with pytest.raises(ValidationError):
            tr.Dataset(*bad)


def test_dataset_rows():
    ds = make_cluster_dataset((3, 2, 1))
    rows = list(ds)
    assert [row.label for row in rows] == [SpikeClass(k) for k in (0, 0, 0, 1, 1, 2)]
    assert all(type(row.label) is SpikeClass and type(row.origin_index) is int for row in rows)
    assert [row.origin_index for row in rows] == ds.ticks.tolist()
    assert np.array_equal(np.stack([row.waveform for row in rows]), ds.waveforms)
    for index in (slice(1, 4), np.array([5, 0, 2]), ds.labels == SpikeClass.SS):
        part = ds[index]
        assert isinstance(part, tr.Dataset)
        assert part.ticks.tolist() == ds.ticks[index].tolist()
        assert np.array_equal(part.waveforms, ds.waveforms[index])
        assert part.labels.tolist() == ds.labels[index].tolist()
    assert len(ds[:0]) == 0 and len(ds) == 6


def test_dataset_roundtrip(tmp_path, dataset):
    subset = dataset[:50]
    path = tmp_path / "ds.jsonl"
    tr.save_dataset(path, subset)
    loaded = tr.load_dataset(path)
    assert len(loaded) == len(subset)
    for a, b in zip(subset, loaded):
        assert np.array_equal(a.waveform, b.waveform)
        assert a.label is b.label
        assert a.origin_index == b.origin_index


def test_load_dataset_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"tick": 5, "label": "SS", "waveform": [0] * 40})

    path.write_text("not json\n")
    with pytest.raises(FormatError):
        tr.load_dataset(path)

    path.write_text(json.dumps({"tick": 5, "label": "SS"}) + "\n")
    with pytest.raises(FormatError):
        tr.load_dataset(path)

    path.write_text(json.dumps({"tick": 5, "label": "XX", "waveform": [0] * 40}) + "\n")
    with pytest.raises(FormatError):
        tr.load_dataset(path)

    path.write_text(json.dumps({"tick": 5, "label": "SS", "waveform": [0] * 39}) + "\n")
    with pytest.raises(FormatError):
        tr.load_dataset(path)

    path.write_text(json.dumps({"tick": 5, "label": "SS", "waveform": [200] + [0] * 39}) + "\n")
    with pytest.raises(FormatError):
        tr.load_dataset(path)

    # non-integers are rejected, not truncated or promoted
    for bad in (
        {"waveform": [1.5] * 40},
        {"waveform": [1] * 39 + [1.0]},
        {"waveform": [True] * 40},
        {"waveform": [0] * 39 + [True]},
        {"waveform": [0] * 39 + [False]},
        {"waveform": ["1"] * 40},
        {"waveform": [0] * 39 + [None]},
        {"waveform": [2**63] + [0] * 39},
        {"waveform": [2**63, -1] + [0] * 38},
        {"waveform": 5},
        {"tick": 5.0},
        {"tick": 5.5},
        {"tick": "5"},
        {"tick": True},
        {"tick": None},
        {"tick": 2**63},
    ):
        path.unlink()  # a new file: overwriting one flushes it on ext4
        path.write_text(json.dumps({"tick": 5, "label": "SS", "waveform": [0] * 40, **bad}) + "\n")
        with pytest.raises(FormatError):
            tr.load_dataset(path)

    # a true elsewhere on the line does not make an integer waveform invalid
    path.write_text(json.dumps({"tick": 5, "label": "SS", "waveform": [0] * 40, "note": True}) + "\n")
    assert tr.load_dataset(path).waveforms.tolist() == [[0] * 40]

    path.write_text(good + "\n\n" + good + "\n")
    assert len(tr.load_dataset(path)) == 2


def test_dataset_arrays():
    ds = make_cluster_dataset((3, 2, 1))
    X, y = tr.dataset_arrays(ds)
    assert X.shape == (6, 40) and X.dtype == np.float64
    assert y.tolist() == [0, 0, 0, 1, 1, 2]
    with pytest.raises(ValidationError):
        tr.dataset_arrays(ds[:0])


# ---------------------------------------------------------------------------
# Balancing, filtering, splitting


def test_balance_classes():
    ds = make_cluster_dataset((10, 4, 7))
    balanced = tr.balance_classes(ds, seed=3)
    counts = Counter(item.label for item in balanced)
    assert all(counts[k] == 4 for k in SpikeClass)
    ticks = [item.origin_index for item in balanced]
    assert ticks == sorted(ticks)
    rows = np.searchsorted(ds.ticks, ticks)  # the balanced rows are rows of ds
    assert np.array_equal(balanced.waveforms, ds.waveforms[rows])
    assert np.array_equal(balanced.labels, ds.labels[rows])
    again = tr.balance_classes(ds, seed=3)
    assert [item.origin_index for item in again] == ticks
    other = tr.balance_classes(ds, seed=4)
    assert [item.origin_index for item in other] != ticks
    with pytest.raises(ValidationError):
        tr.balance_classes(ds[:10], seed=0)  # only CS present


def test_filter_outliers_removes_planted_mislabel():
    rng = np.random.default_rng(21)
    centers = [50] * 30 + [-50] * 30 + [50]  # SS, CS, and one planted F among the SS
    waveforms = [np.clip(np.round(c + rng.normal(0, 2, 40)), -128, 127) for c in centers]
    labels = [SpikeClass.SS] * 30 + [SpikeClass.CS] * 30 + [SpikeClass.F]
    ds = tr.Dataset(np.array(waveforms), labels, [*range(30), *range(100, 130), 999])
    kept = tr.filter_outliers(ds, k=10, min_foreign=9)
    assert len(kept) == 60
    assert all(item.label is not SpikeClass.F for item in kept)


def test_filter_outliers_passthrough_and_validation():
    ds = make_cluster_dataset((2, 2, 2))
    out = tr.filter_outliers(ds, k=10)
    assert out.ticks.tolist() == ds.ticks.tolist()
    with pytest.raises(ValidationError):
        tr.filter_outliers(ds, k=0)
    with pytest.raises(ValidationError):
        tr.filter_outliers(ds, k=5, min_foreign=0)
    with pytest.raises(ValidationError):
        tr.filter_outliers(ds, k=5, min_foreign=6)


def filter_outliers_loop(dataset, k, min_foreign):
    """Ticks filter_outliers keeps, from the per-row loop it ran before it took one mask."""
    if len(dataset) <= k:
        return dataset.ticks.tolist()
    X, y = tr.dataset_arrays(dataset)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    Z = (X - X.mean(axis=0)) / std
    _, neighbors = cKDTree(Z).query(Z, k=k + 1)
    kept = []
    for i, item in enumerate(dataset):
        foreign = np.count_nonzero(y[neighbors[i][neighbors[i] != i][:k]] != y[i])
        if foreign < min_foreign:
            kept.append(item.origin_index)
    return kept


@settings(max_examples=150, deadline=None)
@given(
    # few distinct waveforms, so most rows have exact duplicates and a row can
    # be missing from its own k + 1 nearest neighbours
    rows=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(list(SpikeClass))), max_size=40),
    k=st.integers(1, 10),
    data=st.data(),
)
def test_filter_outliers_matches_loop(rows, k, data):
    min_foreign = data.draw(st.integers(1, k))
    shapes = np.random.default_rng(0).integers(-128, 128, size=(4, 40))
    ds = tr.Dataset(
        shapes[[shape for shape, _ in rows]].reshape(-1, 40),
        [label for _, label in rows],
        np.arange(len(rows)),
    )
    kept = tr.filter_outliers(ds, k, min_foreign)
    assert kept.ticks.tolist() == filter_outliers_loop(ds, k, min_foreign)


def test_train_test_split():
    ds = make_cluster_dataset((25, 11, 8))
    train, test = tr.train_test_split(ds, 0.25, seed=9)
    assert len(train) + len(test) == len(ds)
    test_counts = Counter(item.label for item in test)
    assert test_counts[SpikeClass.CS] == round(25 * 0.25)
    assert test_counts[SpikeClass.SS] == round(11 * 0.25)
    assert test_counts[SpikeClass.F] == round(8 * 0.25)
    train_ticks = [item.origin_index for item in train]
    test_ticks = [item.origin_index for item in test]
    assert train_ticks == sorted(train_ticks)
    assert test_ticks == sorted(test_ticks)
    assert not set(train_ticks) & set(test_ticks)
    train2, test2 = tr.train_test_split(ds, 0.25, seed=9)
    assert [i.origin_index for i in test2] == test_ticks
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValidationError):
            tr.train_test_split(ds, bad, seed=0)


# ---------------------------------------------------------------------------
# Loss and gradients


@pytest.mark.parametrize(
    "topology,lam",
    [((5, 4, 3), 0.0), ((6, 5, 4, 3), 0.01), ((4, 3), 0.001)],
)
def test_gradients_match_finite_differences(topology, lam):
    rng = np.random.default_rng(11)
    model = tr.init_model(topology, rng)
    X = rng.normal(0.0, 1.0, size=(12, topology[0]))
    y = rng.integers(0, 3, size=12)
    _, grads = tr.loss_and_grads(model, X, y, lam)
    h = 1e-6
    for li, layer in enumerate(model.layers):
        for arr, g in ((layer.weights, grads[li][0]), (layer.biases, grads[li][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = float(arr[ix])
                arr[ix] = orig + h
                lp, _ = tr.loss_and_grads(model, X, y, lam)
                arr[ix] = orig - h
                lm, _ = tr.loss_and_grads(model, X, y, lam)
                arr[ix] = orig
                num = (lp - lm) / (2.0 * h)
                ana = float(g[ix])
                assert abs(num - ana) <= 1e-5 * max(1e-3, abs(num) + abs(ana))


def test_loss_composes_ce_plus_ortho():
    rng = np.random.default_rng(12)
    model = tr.init_model((5, 4, 3), rng)
    X = rng.normal(size=(8, 5))
    y = rng.integers(0, 3, size=8)
    base, _ = tr.loss_and_grads(model, X, y, 0.0)
    total, _ = tr.loss_and_grads(model, X, y, 0.5)
    # sum over layers of ||W^T W - I||_F^2, each term written out
    penalty = 0.0
    for layer in model.layers:
        w = layer.weights
        gram = w.T @ w
        for i in range(gram.shape[0]):
            for j in range(gram.shape[1]):
                penalty += (gram[i, j] - (i == j)) ** 2
    assert math.isclose(total - base, 0.5 * penalty, rel_tol=1e-12)


def test_zero_model_gradients_follow_class_frequencies():
    rng = np.random.default_rng(13)
    model = tr.init_model((40, 6, 3), rng)
    for layer in model.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    ds = make_cluster_dataset((9, 6, 3))
    X, y = tr.dataset_arrays(ds)
    loss, grads = tr.loss_and_grads(model, X, y, 0.0)
    assert math.isclose(loss, math.log(3.0), rel_tol=1e-12)
    counts = np.bincount(y, minlength=3)
    assert np.allclose(grads[-1][1], 1.0 / 3.0 - counts / len(y), atol=1e-12)
    assert np.all(grads[-1][0] == 0.0)  # hidden relu output is zero
    for gw, gb in grads[:-1]:
        assert np.all(gw == 0.0) and np.all(gb == 0.0)


def test_ortho_penalty_zero_for_orthonormal_columns():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 4, size=6)

    def penalty(model):  # the loss the penalty adds at lambda = 1
        return tr.loss_and_grads(model, X, y, 1.0)[0] - tr.loss_and_grads(model, X, y, 0.0)[0]

    # tall layer whose 3 columns are orthonormal in R^4
    eye = nn.MlpModel([nn.Layer(np.eye(4, 3), np.zeros(4), "linear")])
    assert penalty(eye) == 0.0
    skewed = nn.MlpModel([nn.Layer(2.0 * np.eye(4, 3), np.zeros(4), "linear")])
    # gram becomes 4I, so each diagonal entry contributes (4-1)^2
    assert math.isclose(penalty(skewed), 27.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Training loop


def test_train_improves_and_is_deterministic():
    ds = make_cluster_dataset((20, 20, 20), seed=2)
    cfg = TrainConfig(epochs=60, patience=60, val_fraction=0.1, batch_size=16, ortho_lambda=0.001)
    model1, log1 = tr.train_mlp(ds, (40, 6, 3), cfg, seed=7)
    assert log1.entries[-1]["train_loss"] < log1.entries[0]["train_loss"]
    assert [e["epoch"] for e in log1.entries] == list(range(len(log1.entries)))
    assert overall_accuracy(tr.evaluate(model1, ds)) > 0.9

    model2, log2 = tr.train_mlp(ds, (40, 6, 3), cfg, seed=7)
    assert log1.entries == log2.entries
    for a, b in zip(model1.layers, model2.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    model3, _ = tr.train_mlp(ds, (40, 6, 3), cfg, seed=8)
    assert any(
        not np.array_equal(a.weights, b.weights)
        for a, b in zip(model1.layers, model3.layers)
    )


def test_train_stops_early_on_noise():
    rng = np.random.default_rng(3)
    waveforms, labels = [], []
    for _ in range(60):  # drawn in this order, so the data stay those of the per-row loop
        waveforms.append(rng.integers(-100, 100, size=40))
        labels.append(int(rng.integers(0, 3)))
    ds = tr.Dataset(np.array(waveforms), labels, np.arange(60))
    cfg = TrainConfig(epochs=400, patience=5, val_fraction=0.2, batch_size=16, learning_rate=3e-3)
    _, log = tr.train_mlp(ds, (40, 8, 3), cfg, seed=0)
    assert log.stopped_early
    assert len(log.entries) == log.best_epoch + cfg.patience + 1
    assert min(e["val_loss"] for e in log.entries) == log.entries[log.best_epoch]["val_loss"]


def test_train_rejects_bad_topology():
    ds = make_cluster_dataset((4, 4, 4))
    with pytest.raises(ValidationError, match=r"topology \[39, 4, 3\]"):
        tr.train_mlp(ds, (39, 4, 3))
    with pytest.raises(ValidationError, match=r"topology \[40, 4, 4\]"):
        tr.train_mlp(ds, (40, 4, 4))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("val_fraction", [0.25, 0.0])
def test_train_refuses_a_diverging_loss(val_fraction):
    # a step this large overflows the weights, so the loss turns NaN; the
    # untrained initial weights must not come back as the best epoch's
    ds = make_cluster_dataset((4, 4, 4))
    cfg = TrainConfig(learning_rate=1e300, epochs=3, val_fraction=val_fraction)
    with pytest.raises(ValidationError, match="diverged"):
        tr.train_mlp(ds, (40, 4, 3), cfg)


def test_training_log_jsonl(tmp_path):
    log = tr.TrainingLog(
        entries=[{"epoch": 0, "train_loss": 1.0, "val_loss": 2.0}],
        best_epoch=0,
        stopped_early=True,
    )
    path = tmp_path / "log.jsonl"
    log.save_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["epoch"] == 0
    assert lines[-1] == {"best_epoch": 0, "stopped_early": True}


# sha256 of the bytes the per-array train step produced, which the flat-buffer
# step must reproduce; reordering any floating-point operation changes it.
# Matrix products come from numpy's BLAS, so another numpy build may need the
# digest recomputed at a commit known to be good.
GOLDEN_TRAINING_SHA256 = "899c973f59efaae20e1a3833df12f31a62b7c987f9babe8d79fb44d50738671b"

# sha256 of the JSONL file save_dataset wrote for the conftest recording's
# dataset while datasets were lists of row objects; the columnar Dataset
# must write the same bytes in the same row order.
GOLDEN_DATASET_SHA256 = "53cdee54b97267189b2ad33b17c740fc6f2c8f3c0931cf893be951e8a95a4024"


def training_digest() -> str:
    """sha256 over weights, biases and logs of eight trainings, plus one 3-fold CV.

    The trainings cover two topologies, ortho_lambda 0.01 and 0, and runs with
    and without a validation split (early stopping, best-weight restore).
    """
    ds = make_cluster_dataset((30, 24, 18), seed=8, spread=60.0)
    h = hashlib.sha256()
    for topology in ((40, 6, 3), (40, 5, 4, 3)):
        for lam in (0.01, 0.0):
            for val_fraction in (0.15, 0.0):
                cfg = TrainConfig(
                    epochs=25, patience=3, val_fraction=val_fraction, batch_size=16,
                    learning_rate=3e-2, ortho_lambda=lam,
                )
                model, log = tr.train_mlp(ds, topology, cfg, seed=5)
                for layer in model.layers:
                    h.update(layer.weights.tobytes())
                    h.update(layer.biases.tobytes())
                h.update(json.dumps([log.entries, log.best_epoch, log.stopped_early]).encode())
    cv = tr.cross_validate(ds, (40, 5, 4, 3), _quick_cfg(epochs=6), folds=3, seed=3)
    h.update(json.dumps([cv.per_class[k].fold_values for k in SpikeClass]).encode())
    h.update(b"".join(cm.counts.tobytes() for cm in cv.matrices))
    return h.hexdigest()


def test_training_bytes_are_pinned():
    assert training_digest() == GOLDEN_TRAINING_SHA256


# sha256 of tiny_class_training_digest() at the commit before train_mlp's
# validation split was rewritten onto the shared per-class shuffle.  The
# GOLDEN_TRAINING_SHA256 classes are too large for the split's clamp (at
# least one and at most n - 1 validation rows per class) to change a count.
GOLDEN_TINY_CLASS_TRAINING_SHA256 = "479e726f8cef938b3ffbc53c881bf56db919f3bd2e3f84b558b886757a219026"


def tiny_class_training_digest() -> str:
    """sha256 over weights, biases and logs of trainings on 1-, 2- and 3-row classes.

    Each class size meets each class.  At val_fraction 0.15, 0.5 and 0.9 the
    rounded validation count of a class falls below, inside and above the
    clamp, and a one-row class, which the clamp leaves alone, goes wholly to
    training or wholly to validation.
    """
    h = hashlib.sha256()
    for counts in ((1, 2, 3), (3, 1, 2), (2, 3, 1)):
        ds = make_cluster_dataset(counts, seed=sum(counts) + counts[0], spread=30.0)
        for val_fraction in (0.15, 0.5, 0.9):
            cfg = TrainConfig(
                epochs=6, patience=2, val_fraction=val_fraction, batch_size=2,
                learning_rate=3e-2, ortho_lambda=0.01,
            )
            model, log = tr.train_mlp(ds, (40, 4, 3), cfg, seed=11)
            for layer in model.layers:
                h.update(layer.weights.tobytes())
                h.update(layer.biases.tobytes())
            h.update(json.dumps([log.entries, log.best_epoch, log.stopped_early]).encode())
    return h.hexdigest()


def test_tiny_class_training_bytes_are_pinned():
    assert tiny_class_training_digest() == GOLDEN_TINY_CLASS_TRAINING_SHA256


def test_dataset_bytes_are_pinned(tmp_path, dataset):
    path = tmp_path / "ds.jsonl"
    tr.save_dataset(path, dataset)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DATASET_SHA256


# ticks of every width that int64 holds, all read in bulk: up to 18 digits,
# 19 digits and int64's ends
SHORT_TICKS = (0, 10**18 - 1, -(10**18 - 1))
LONG_TICKS = (10**18, -(2**63), 2**63 - 1)


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 60))
    short = st.sampled_from(SHORT_TICKS) | st.integers(-(10**18 - 1), 10**18 - 1)
    ticks = short | st.sampled_from(LONG_TICKS) if draw(st.booleans()) else short
    return tr.Dataset(
        draw(hnp.arrays(np.int8, (n, 40), elements=st.integers(-128, 127))),
        draw(hnp.arrays(np.int64, n, elements=st.sampled_from([int(k) for k in SpikeClass]))),
        draw(hnp.arrays(np.int64, n, elements=ticks)),
    )


def refuse_json(line):
    raise AssertionError("a file in save_dataset's form was read through json.loads")


EVERY_CODE = tr.Dataset(
    np.resize(np.arange(-128, 128), (7, 40)), [0, 1, 2, 0, 1, 2, 0], [0, *SHORT_TICKS, *LONG_TICKS]
)


@settings(max_examples=100, deadline=None)
@given(ds=datasets())
@example(ds=EVERY_CODE)
@example(ds=EVERY_CODE[:4])
def test_dataset_file_is_json_dumps_form(tmp_path_factory, ds):
    path = tmp_path_factory.getbasetemp() / "drawn.jsonl"
    path.unlink(missing_ok=True)  # a new file: overwriting one flushes it on ext4
    tr.save_dataset(path, ds)
    expected = dataset_jsonl(ds)
    assert path.read_bytes() == expected
    rows = [json.loads(line) for line in expected.splitlines()]
    with pytest.MonkeyPatch.context() as mp:  # and it must take the bulk path
        mp.setattr(tr.json, "loads", refuse_json)
        loaded = tr.load_dataset(path)
    assert loaded.ticks.tolist() == [row["tick"] for row in rows]
    assert loaded.labels.tolist() == [SpikeClass[row["label"]] for row in rows]
    assert loaded.waveforms.tolist() == [row["waveform"] for row in rows]


def test_saved_dataset_loads_without_json(tmp_path, monkeypatch, dataset):
    # a bulk path that always fell back would pass every other test
    path = tmp_path / "ds.jsonl"
    tr.save_dataset(path, dataset)
    monkeypatch.setattr(tr.json, "loads", refuse_json)
    loaded = tr.load_dataset(path)
    assert np.array_equal(loaded.waveforms, dataset.waveforms)
    assert np.array_equal(loaded.labels, dataset.labels)
    assert np.array_equal(loaded.ticks, dataset.ticks)


def test_dataset_io_memory_is_bounded(tmp_path):
    # the per-row-dict reader and writer peaked near 1,040 B per row here
    rng = np.random.default_rng(0)
    n = 20_000
    ds = tr.Dataset(
        rng.integers(-128, 128, (n, 40)), rng.integers(0, 3, n), np.cumsum(rng.integers(1, 2000, n))
    )
    path = tmp_path / "ds.jsonl"
    peaks = []
    for step in (lambda: tr.save_dataset(path, ds), lambda: tr.load_dataset(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    save_peak, load_peak = peaks
    assert save_peak <= 2_000_000  # one block of rows, whatever the row count
    assert load_peak <= path.stat().st_size + 200 * n  # the file's bytes plus the columns


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_counts_match_argmax(trained):
    model, qmodel, test_part, processed = trained
    cm = tr.evaluate(qmodel, test_part)
    assert cm.total == len(test_part)
    X = np.stack([d.waveform for d in test_part])
    pred = nn.infer_quantized_batch(qmodel, X).argmax(axis=1)
    y = np.array([int(d.label) for d in test_part])
    expected = np.zeros((3, 3), dtype=np.int64)
    for t, p in zip(y, pred):
        expected[t, p] += 1
    assert np.array_equal(cm.counts, expected)

    # quantizing with the processed training waveforms reproduces qmodel
    cm_fold = tr.evaluate(nn.quantize(model, tr.dataset_arrays(processed)[0]), test_part)
    assert np.array_equal(cm_fold.counts, cm.counts)

    float_pred = nn.infer_float_batch(model, X.astype(np.float64)).argmax(axis=1)
    expected = np.zeros((3, 3), dtype=np.int64)
    for t, p in zip(y, float_pred):
        expected[t, p] += 1
    assert np.array_equal(tr.evaluate(model, test_part).counts, expected)


# ---------------------------------------------------------------------------
# Folds, cross-validation, design-space exploration


def test_stratified_folds_partition():
    ds = make_cluster_dataset((25, 11, 7))
    folds = tr.stratified_folds(ds, 3, seed=1)
    assert sorted(np.concatenate(folds).tolist()) == list(range(len(ds)))
    for klass in SpikeClass:
        sizes = [np.count_nonzero(ds.labels[fold] == klass) for fold in folds]
        assert max(sizes) - min(sizes) <= 1
    assert all(np.all(np.diff(fold) > 0) for fold in folds)
    with pytest.raises(ValidationError):
        tr.stratified_folds(ds, 1, seed=0)
    with pytest.raises(ValidationError):
        tr.stratified_folds(make_cluster_dataset((5, 2, 9)), 3, seed=0)


def class_groups_loop(dataset):
    groups = {k: [] for k in SpikeClass}
    for i, item in enumerate(dataset):
        groups[item.label].append(i)
    return groups


def balance_loop(dataset, seed):
    groups = class_groups_loop(dataset)
    target = min(len(v) for v in groups.values())
    rng = np.random.default_rng(seed)
    keep = []
    for klass in SpikeClass:
        chosen = rng.choice(len(groups[klass]), size=target, replace=False)
        keep.extend(groups[klass][i] for i in chosen)
    return sorted(keep)


def split_loop(dataset, test_fraction, seed):
    rng = np.random.default_rng(seed)
    test_idx = set()
    for idx in class_groups_loop(dataset).values():
        if idx:  # an empty class draws nothing
            chosen = rng.permutation(len(idx))[: int(round(len(idx) * test_fraction))]
            test_idx.update(idx[i] for i in chosen)
    return sorted(test_idx)


def folds_loop(dataset, folds, seed):
    rng = np.random.default_rng(seed)
    out = [[] for _ in range(folds)]
    for idx in class_groups_loop(dataset).values():
        for pos, i in enumerate(rng.permutation(len(idx))):  # empty classes too
            out[pos % folds].append(idx[i])
    return [sorted(fold) for fold in out]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(list(SpikeClass)), max_size=60),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 0.99),
    st.integers(2, 5),
)
def test_class_row_selection_matches_loops(labels, seed, test_fraction, folds):
    """balance, split and folds draw the same rows as per-class Python loops."""
    ds = tr.Dataset(np.zeros((len(labels), 40)), labels, np.arange(len(labels)))

    def ticks(part):
        return [item.origin_index for item in part]

    if len(set(labels)) == len(SpikeClass):
        assert ticks(tr.balance_classes(ds, seed)) == balance_loop(ds, seed)
    else:
        with pytest.raises(ValidationError):
            tr.balance_classes(ds, seed)
    train, test = tr.train_test_split(ds, test_fraction, seed)
    assert ticks(test) == split_loop(ds, test_fraction, seed)
    assert ticks(train) == sorted(set(range(len(ds))) - set(ticks(test)))
    if all(n >= folds for n in Counter(labels).values()):
        folds_drawn = tr.stratified_folds(ds, folds, seed)
        assert [fold.tolist() for fold in folds_drawn] == folds_loop(ds, folds, seed)
    else:
        with pytest.raises(ValidationError):
            tr.stratified_folds(ds, folds, seed)


def test_derive_seed_is_stable_and_distinct():
    s = tr.derive_seed(1, (40, 2, 3), 0)
    assert s == tr.derive_seed(1, (40, 2, 3), 0)
    assert s == tr.derive_seed(1, [40, 2, 3], 0)
    assert 0 <= s < 2**64
    others = {
        tr.derive_seed(2, (40, 2, 3), 0),
        tr.derive_seed(1, (40, 4, 3), 0),
        tr.derive_seed(1, (40, 2, 3), 1),
    }
    assert s not in others and len(others) == 3


def test_complexity_frozen_grid_values():
    values = [tr.complexity(topology) for topology, _ in tr.TABLE3_GRID]
    assert values == [86, 86, 181, 241, 378, 426, 761, 819, 1690]


def test_complexity_validation():
    assert tr.complexity((40, 3)) == 120
    for bad in ((40,), (39, 3), (40, 4), (40, 0, 3), (40, 2.5, 3)):
        with pytest.raises(ValidationError):
            tr.complexity(bad)


def _quick_cfg(**kw):
    base = dict(epochs=3, patience=3, val_fraction=0.1, batch_size=16, ortho_lambda=0.01)
    base.update(kw)
    return TrainConfig(**base)


def test_cross_validate_deterministic_and_consistent():
    ds = make_cluster_dataset((20, 20, 20), seed=5)
    r1 = tr.cross_validate(ds, (40, 4, 3), _quick_cfg(), folds=2, seed=3)
    r2 = tr.cross_validate(ds, (40, 4, 3), _quick_cfg(), folds=2, seed=3)
    assert r1.topology == [40, 4, 3] and len(r1.matrices) == 2
    assert r1.ortho_lambda == _quick_cfg().ortho_lambda
    assert r1.complexity == 40 * 4 + 4 * 3
    for klass in SpikeClass:
        a, b = r1.per_class[klass], r2.per_class[klass]
        assert a.fold_values == b.fold_values
        vals = np.array(a.fold_values)
        assert math.isclose(a.mean, float(vals.mean()), rel_tol=1e-12)
        se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
        assert math.isclose(a.se, se, rel_tol=1e-12, abs_tol=1e-15)
        assert a.ci_low <= a.mean <= a.ci_high
    for cm_a, cm_b in zip(r1.matrices, r2.matrices):
        assert np.array_equal(cm_a.counts, cm_b.counts)
        assert cm_a.total == 30  # one fold of the 60-sample dataset


def test_run_dse_parallel_matches_serial():
    ds = make_cluster_dataset((20, 20, 20), seed=6)
    candidates = [((40, 2, 3), 0.01), ((40, 4, 3), 0.001)]
    dse_cfg = DseConfig(folds=2)
    serial = tr.run_dse(ds, candidates, _quick_cfg(), dse_cfg, seed=4, jobs=1, exhaustive=True)
    parallel = tr.run_dse(ds, candidates, _quick_cfg(), dse_cfg, seed=4, jobs=2, exhaustive=True)
    assert len(serial) == len(parallel) == 2
    for a, b in zip(serial, parallel):
        assert a.topology == b.topology
        assert a.ortho_lambda == b.ortho_lambda
        assert a.complexity == b.complexity
        for klass in SpikeClass:
            assert a.per_class[klass].fold_values == b.per_class[klass].fold_values


def in_process_pool(pools, waves=None):
    """A stand-in for ProcessPoolExecutor that maps in-process.

    Each pool appends its worker count to `pools`; each `map` call appends
    its (topology, ortho_lambda) tasks to `waves`.  Tasks are mapped as
    (fn, topologies, train configs), the way run_dse calls the pool.
    """

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, topologies, cfgs):
            if waves is not None:
                waves.append([(t, cfg.ortho_lambda) for t, cfg in zip(topologies, cfgs)])
            return map(fn, topologies, cfgs)

    return SerialPool


def test_run_dse_caps_workers_at_candidates(monkeypatch):
    pools = []
    monkeypatch.setattr(tr, "ProcessPoolExecutor", in_process_pool(pools))
    ds = make_cluster_dataset((20, 20, 20), seed=6)
    candidates = [((40, 2, 3), 0.01), ((40, 4, 3), 0.001)]
    dse_cfg = DseConfig(folds=2)
    capped = tr.run_dse(ds, candidates, _quick_cfg(), dse_cfg, seed=4, jobs=100_000, exhaustive=True)
    assert pools == [2]
    serial = tr.run_dse(ds, candidates, _quick_cfg(), dse_cfg, seed=4, jobs=1, exhaustive=True)
    assert pools == [2]  # one job runs in-process
    for a, b in zip(capped, serial, strict=True):
        assert (a.topology, a.ortho_lambda) == (b.topology, b.ortho_lambda)
        for klass in SpikeClass:
            assert a.per_class[klass].fold_values == b.per_class[klass].fold_values
    # one candidate, or none, needs no pool at all
    assert len(tr.run_dse(ds, candidates[:1], _quick_cfg(), dse_cfg, jobs=8, exhaustive=True)) == 1
    assert tr.run_dse(ds, [], _quick_cfg(), dse_cfg, jobs=8, exhaustive=True) == []
    assert pools == [2]


# every topology with at most three hidden units
_SMALL_TOPOLOGIES = [(40, *h, 3) for h in ((), (1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1))]


def _first_survivor_cut(ranked, cs_floor):
    """Length of the prefix of a rank-ordered list that ends with the first survivor's topology."""
    survivors = [r.topology for r in ranked if r.cs_ci_low > cs_floor]
    if not survivors:
        return len(ranked)
    return max(i for i, r in enumerate(ranked) if r.topology == survivors[0]) + 1


@settings(max_examples=40, deadline=None)
@given(
    candidates=st.lists(
        st.tuples(st.sampled_from(_SMALL_TOPOLOGIES), st.sampled_from([0.0, 0.001, 0.01])),
        min_size=2,
        max_size=5,
    ),
    data_seed=st.integers(0, 3),
    cs_floor=st.floats(0.0, 1.0, exclude_max=True),
)
def test_early_exit_matches_exhaustive_search(candidates, data_seed, cs_floor):
    ds = make_cluster_dataset((20, 20, 20), seed=data_seed)
    dse_cfg = DseConfig(folds=2, cs_floor=cs_floor)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "ProcessPoolExecutor", in_process_pool([]))
        full = tr.run_dse(ds, candidates, _quick_cfg(), dse_cfg, seed=4, exhaustive=True)
        early = [tr.run_dse(ds, candidates, _quick_cfg(), dse_cfg, seed=4, jobs=j) for j in (1, 2, 3)]
    # the exhaustive list holds every candidate, ranked by (complexity, depth, topology)
    assert sorted((tuple(r.topology), r.ortho_lambda) for r in full) == sorted(candidates)
    ranks = [(r.complexity, len(r.topology), r.topology) for r in full]
    assert ranks == sorted(ranks)
    assert early[0] == early[1] == early[2]
    assert early[0] == full[: _first_survivor_cut(full, cs_floor)]
    assert tr.dse_select(early[0], cs_floor) == tr.dse_select(full, cs_floor)


def test_early_exit_matches_exhaustive_search_on_table3_in_a_pool():
    ds = make_cluster_dataset((20, 20, 20), seed=6)
    full = tr.run_dse(ds, tr.TABLE3_GRID, _quick_cfg(), DseConfig(folds=2), seed=4, exhaustive=True)
    assert [(tuple(r.topology), r.ortho_lambda) for r in full] == list(tr.TABLE3_GRID)
    # a floor that the first group fails and a later one clears
    lows = sorted({r.cs_ci_low for r in full})
    cs_floor = (lows[-1] + lows[-2]) / 2
    assert full[0].cs_ci_low < cs_floor and full[1].cs_ci_low < cs_floor
    early = tr.run_dse(ds, tr.TABLE3_GRID, _quick_cfg(), DseConfig(folds=2, cs_floor=cs_floor), seed=4, jobs=2)
    assert 2 < len(early) < len(full)
    assert early == full[: _first_survivor_cut(full, cs_floor)]
    assert tr.dse_select(early, cs_floor) == tr.dse_select(full, cs_floor)


def test_run_dse_finishes_the_first_survivor_group_and_stops(monkeypatch):
    # CS CI lows by (topology, ortho_lambda); the floor is 0.9
    low, high = (40, 2, 3), (40, 4, 3)
    cs_ci_low = {
        (low, 0.0): 0.5,
        (low, 0.001): 0.95,  # the group's first survivor, at its second λ
        (low, 0.01): 0.5,
        (high, 0.01): 0.99,
    }
    started = []

    def fake_cross_validate(dataset, topology, cfg, folds, seed, confidence):
        started.append((topology, cfg.ortho_lambda))
        ci = cs_ci_low[(topology, cfg.ortho_lambda)]
        per = {k: tr.ClassStats(0.95, 0.01, ci, 0.99, [0.95]) for k in SpikeClass}
        return tr.DseResult(list(topology), cfg.ortho_lambda, tr.complexity(topology), per)

    waves = []
    monkeypatch.setattr(tr, "cross_validate", fake_cross_validate)
    monkeypatch.setattr(tr, "ProcessPoolExecutor", in_process_pool([], waves))
    # given out of rank order, and with the costlier group first
    candidates = [(high, 0.01), (low, 0.0), (low, 0.001), (low, 0.01)]
    ranked = [(low, 0.0), (low, 0.001), (low, 0.01)]
    ds = make_cluster_dataset((2, 2, 2))
    results = tr.run_dse(ds, candidates, dse_cfg=DseConfig(cs_floor=0.9), jobs=1)
    assert [(tuple(r.topology), r.ortho_lambda) for r in results] == ranked
    assert started == ranked  # no task of the later group starts
    assert tr.dse_select(results, 0.9).ortho_lambda == 0.001

    # two workers: the wave after the survivor is cut at the group's end
    started.clear()
    assert tr.run_dse(ds, candidates, dse_cfg=DseConfig(cs_floor=0.9), jobs=2) == results
    assert waves == [ranked[:2], ranked[2:]]
    assert started == ranked
    # four workers start the later group in the same wave; its result is dropped
    assert tr.run_dse(ds, candidates, dse_cfg=DseConfig(cs_floor=0.9), jobs=4) == results
    assert waves[-1] == ranked + [(high, 0.01)]
    # with the stop off, every candidate runs, in rank order
    full = tr.run_dse(ds, candidates, dse_cfg=DseConfig(cs_floor=0.9), exhaustive=True)
    assert [(tuple(r.topology), r.ortho_lambda) for r in full] == ranked + [(high, 0.01)]


def _fake_result(topology, rf, cs_mean, cs_ci_low, complexity_override=None):
    per = {k: tr.ClassStats(0.95, 0.01, 0.93, 0.97, [0.95]) for k in SpikeClass}
    per[SpikeClass.CS] = tr.ClassStats(cs_mean, 0.01, cs_ci_low, cs_mean + 0.02, [cs_mean])
    c = complexity_override if complexity_override is not None else tr.complexity(topology)
    return tr.DseResult(list(topology), rf, c, per)


def test_dse_select_floor_is_strict():
    at_floor = _fake_result((40, 2, 3), 0.01, 0.95, 0.90)
    assert tr.dse_select([at_floor], cs_floor=0.90) is None
    above = _fake_result((40, 2, 3), 0.01, 0.95, 0.9001)
    assert tr.dse_select([above], cs_floor=0.90) is above
    assert tr.dse_select([], cs_floor=0.90) is None


def test_dse_select_tie_breaking():
    # lower complexity wins outright
    small = _fake_result((40, 2, 3), 0.01, 0.92, 0.91)
    big = _fake_result((40, 16, 7, 5, 4, 3), 0.01, 0.99, 0.98)
    assert tr.dse_select([big, small]) is small
    # equal complexity: fewer layers
    shallow = _fake_result((40, 2, 3), 0.01, 0.92, 0.91, complexity_override=100)
    deep = _fake_result((40, 1, 1, 3), 0.01, 0.92, 0.91, complexity_override=100)
    assert tr.dse_select([deep, shallow]) is shallow
    # equal complexity and depth: lexicographically smaller topology
    lo = _fake_result((40, 2, 3), 0.01, 0.92, 0.91, complexity_override=100)
    hi = _fake_result((40, 3, 3), 0.01, 0.92, 0.91, complexity_override=100)
    assert tr.dse_select([hi, lo]) is lo
    # identical topology: higher CS mean
    weak = _fake_result((40, 2, 3), 0.01, 0.92, 0.91)
    strong = _fake_result((40, 2, 3), 0.01, 0.96, 0.91)
    assert tr.dse_select([weak, strong]) is strong
    # identical topology and mean: larger regularization factor
    light = _fake_result((40, 2, 3), 0.001, 0.92, 0.91)
    heavy = _fake_result((40, 2, 3), 0.01, 0.92, 0.91)
    assert tr.dse_select([light, heavy]) is heavy


def test_full_grid_enumeration():
    cfg = DseConfig(
        hidden_ranges=((1, 3), (1, 2)),
        ortho_lambdas=(0.01,),
    )
    grid = set(tr.full_grid(cfg))
    expected_topologies = {
        (40, 3),
        (40, 1, 3),
        (40, 1, 1, 3),
        (40, 2, 3),
        (40, 2, 1, 3),
        (40, 2, 2, 3),
        (40, 3, 3),
        (40, 3, 1, 3),
        (40, 3, 2, 3),
    }
    assert grid == {(t, 0.01) for t in expected_topologies}


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(val_fraction=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(ortho_lambda=-0.1)
    for bad in (math.nan, math.inf):
        for name in ("learning_rate", "beta1", "beta2", "adam_epsilon", "ortho_lambda"):
            with pytest.raises(ValidationError):
                TrainConfig(**{name: bad})
    with pytest.raises(ValidationError):
        DseConfig(folds=1)
    with pytest.raises(ValidationError):
        DseConfig(confidence=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite"):
            DseConfig(cs_floor=bad)
        with pytest.raises(ValidationError, match="finite"):
            DseConfig(ortho_lambdas=(0.01, bad))
