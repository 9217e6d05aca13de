"""Dataset construction, MLP training, cross-validation, architecture search.

The training path mirrors deployment: waveforms are captured by the same
detector and state-machine timing the device uses, labelled from ground
truth, balanced by downsampling, and cleaned with a k-nearest-neighbour
consensus filter.  Training is plain minibatch Adam on softmax cross
entropy plus a soft orthogonality penalty on every weight matrix:

    loss = cross_entropy + ortho_lambda * sum_l ||W_l^T W_l - I||_F^2

Cross-validation is stratified; test folds never pass through balancing or
outlier filtering.  The architecture search scores candidate topologies by
10-fold cross-validated per-class accuracy and picks the cheapest topology
whose CS accuracy is above a floor with 95% confidence.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import norm

from . import pipeline as pl
from .analysis import ConfusionMatrix, accuracy
from .config import DetectorConfig, DseConfig, TrainConfig
from .errors import FormatError, ValidationError
from .nn import (
    NUM_CLASSES,
    WAVEFORM_SAMPLES,
    Layer,
    MlpModel,
    QuantizedMlpModel,
    SpikeClass,
    check_topology,
    infer_float_batch,
    infer_quantized_batch,
    layer_outputs,
    quantize,
)
from .store import EventRecord


class LabeledWaveform(NamedTuple):
    """One dataset row, as iterating a Dataset yields it."""

    waveform: np.ndarray  # int8, 40 samples
    label: SpikeClass
    origin_index: int  # detection tick in the source recording


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labelled captures as three columns, one row per detection.

    Indexing with a slice, an index array or a boolean mask selects rows
    and keeps their order; iterating yields LabeledWaveform rows.
    """

    waveforms: np.ndarray  # int8 [n, 40]
    labels: np.ndarray  # int64 [n], SpikeClass values
    ticks: np.ndarray  # int64 [n], detection tick in the source recording

    def __post_init__(self):
        for name, dtype in (("waveforms", np.int8), ("labels", np.int64), ("ticks", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.labels) if self.labels.ndim == 1 else None
        if self.ticks.shape != (n,) or self.waveforms.shape != (n, WAVEFORM_SAMPLES):
            raise ValidationError(
                f"columns must be labels [n], ticks [n] and waveforms [n, {WAVEFORM_SAMPLES}]"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows) -> Dataset:
        return Dataset(self.waveforms[rows], self.labels[rows], self.ticks[rows])

    def __iter__(self):
        classes = tuple(SpikeClass)
        for waveform, label, tick in zip(self.waveforms, self.labels.tolist(), self.ticks.tolist()):
            yield LabeledWaveform(waveform, classes[label], tick)


# Training runs with inputs scaled from int8 capture codes into [-1, 1).
# The orthogonality penalty prefers unit-gain layers, which only yields
# calibrated logits when inputs are O(1); with raw codes it forces the
# activations toward the input range and the softmax saturates.  The
# scale is folded into the first layer after training, so saved models
# consume raw capture codes and the quantizer keeps input_scale = 1.
INPUT_NORM = 128.0

# The nine candidate configurations of the published comparison table,
# as (topology, ortho_lambda) pairs sorted by complexity.
TABLE3_GRID: tuple = (
    ((40, 2, 3), 0.001),
    ((40, 2, 3), 0.01),
    ((40, 4, 3, 3), 0.01),
    ((40, 5, 5, 2, 3), 0.01),
    ((40, 7, 7, 4, 3, 3), 0.01),
    ((40, 8, 8, 3, 3, 3), 0.001),
    ((40, 14, 10, 4, 3, 3), 0.01),
    ((40, 16, 7, 5, 4, 3), 0.01),
    ((40, 28, 14, 8, 6, 3), 0.01),
)


def derive_seed(base_seed: int, topology, fold: int) -> int:
    """Stable per-task seed so parallel and serial runs train identically."""
    key = f"{base_seed}|{','.join(str(n) for n in topology)}|{fold}"
    digest = hashlib.blake2b(key.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def complexity(topology) -> int:
    """Number of multiply-accumulates per inference: sum of n_i * n_{i+1}."""
    topology = check_topology(topology)
    return int(sum(a * b for a, b in zip(topology, topology[1:])))


# ---------------------------------------------------------------------------
# Dataset construction


def build_dataset(
    samples,
    annotations: list[EventRecord],
    sample_rate_hz: float,
    det_cfg: DetectorConfig | None = None,
    label_window_ms: float = 1.0,
) -> Dataset:
    """Run the capture path over a recording and label the results.

    Each honored detection yields one waveform.  A detection within
    label_window_ms of an annotation takes that annotation's class; every
    other detection is a false positive and is labelled F.
    """
    if sample_rate_hz <= 0:
        raise ValidationError("sample_rate_hz must be positive")
    if not (label_window_ms > 0 and math.isfinite(label_window_ms)):
        raise ValidationError("label_window_ms must be positive and finite")
    ticks, waveforms = pl.capture_detections(samples, det_cfg)
    labels = label_detections(ticks, annotations, label_window_ms * sample_rate_hz / 1000.0)
    return Dataset(waveforms, labels, ticks)


def label_detections(ticks, annotations: list[EventRecord], window: float) -> np.ndarray:
    """Class of each detection tick: its nearest annotation's, or F beyond `window`.

    The nearest annotation is one of the two around the tick's insertion
    point in the annotation ticks; on a tie the earlier one wins, and a
    distance of exactly `window` still counts.
    """
    ticks = np.asarray(ticks, dtype=np.int64)
    labels = np.full(len(ticks), int(SpikeClass.F), dtype=np.int64)
    if not annotations:
        return labels
    ann_ticks = np.array([a.timestamp for a in annotations], dtype=np.float64)
    ann_labels = np.array([int(a.klass) for a in annotations], dtype=np.int64)
    j = np.searchsorted(ann_ticks, ticks)
    # clamped at the ends, where both name the one neighbouring annotation
    before, after = np.maximum(j - 1, 0), np.minimum(j, len(ann_ticks) - 1)
    d_before = np.abs(ann_ticks[before] - ticks)
    d_after = np.abs(ann_ticks[after] - ticks)
    take_after = d_after < d_before
    nearest = np.where(take_after, after, before)
    near = np.minimum(d_before, d_after) <= window
    labels[near] = ann_labels[nearest[near]]
    return labels


def _text_table(texts: list[bytes]) -> np.ndarray:
    """uint8 [len(texts), longest]: text i in row i, padded with zero bytes."""
    width = max(map(len, texts))
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


# The dataset file is json.dumps' default form of each row's dict, one per
# line, built here from byte tables: row c + 128 of a code table is int8
# code c as text.  Zero bytes pad each table to one width and are dropped.
_CODE_TEXT = _text_table([b"%d, " % code for code in range(-128, 128)])
_LAST_CODE_TEXT = _text_table([b"%d]}\n" % code for code in range(-128, 128)])
_LABEL_TEXT = _text_table([klass.name.encode() for klass in SpikeClass])
_TICK_WIDTH = 20  # len(str(-2**63))
_BLOCK_ROWS = 1024  # rows rendered at a time, so the writer's peak does not grow

# The label of a line, its one field that is not a number, and its class
_LABEL_CODES = {klass.name.encode(): int(klass) for klass in SpikeClass}
_LABEL_FIELD = re.compile(rb'"label": "(' + b"|".join(_LABEL_CODES) + rb')"')
# bytes.translate table that blanks everything but the numbers of a line
_NUMBER_BYTES = bytes(c if chr(c) in "-0123456789" else ord(" ") for c in range(256))
_BLOCK_BYTES = 1 << 18  # file bytes parsed at a time, so the reader's peak stays near the file size


def _dataset_text(dataset: Dataset) -> bytes:
    """The lines save_dataset writes for a non-empty dataset."""
    n = len(dataset)

    def text(s: bytes) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(s, np.uint8), (n, len(s)))

    codes = dataset.waveforms.astype(np.intp) + 128
    ticks = dataset.ticks.astype(f"S{_TICK_WIDTH}").view(np.uint8).reshape(n, _TICK_WIDTH)
    cells = np.concatenate(
        [
            text(b'{"tick": '),
            ticks,
            text(b', "label": "'),
            _LABEL_TEXT[dataset.labels],
            text(b'", "waveform": ['),
            _CODE_TEXT[codes[:, :-1]].reshape(n, -1),
            _LAST_CODE_TEXT[codes[:, -1]],
        ],
        axis=1,
    )
    return cells[cells != 0].tobytes()


def save_dataset(path, dataset: Dataset) -> None:
    """One JSON object per line, as json.dumps writes {"tick", "label", "waveform"}."""
    with open(path, "wb") as fh:
        for start in range(0, len(dataset), _BLOCK_ROWS):
            fh.write(_dataset_text(dataset[start : start + _BLOCK_ROWS]))


def _dataset_in_bulk(data: bytes) -> Dataset:
    """The dataset that save_dataset writes as `data`, parsed a block at a time; else ValueError."""
    n = data.count(b"\n")
    # a line holds 41 numbers of a digit and a separator at least: checked before sizing by lines
    if not data.endswith(b"\n") or len(data) < n * 2 * (1 + WAVEFORM_SAMPLES):
        raise ValueError("not in save_dataset's form")
    dataset = Dataset(
        np.empty((n, WAVEFORM_SAMPLES), np.int8), np.empty(n, np.int64), np.empty(n, np.int64)
    )
    row = start = 0
    while start < len(data):
        end = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        block = data[start:end]
        labels = _LABEL_FIELD.findall(block)
        numbers = np.fromstring(block.translate(_NUMBER_BYTES), dtype=np.int64, sep=" ")
        if len(labels) != block.count(b"\n") or numbers.size != len(labels) * (1 + WAVEFORM_SAMPLES):
            raise ValueError("not in save_dataset's form")
        rows = dataset[row : row + len(labels)]  # views of the dataset's columns
        numbers = numbers.reshape(len(labels), 1 + WAVEFORM_SAMPLES)
        rows.ticks[:], rows.waveforms[:] = numbers[:, 0], numbers[:, 1:]
        rows.labels[:] = list(map(_LABEL_CODES.__getitem__, labels))
        if _dataset_text(rows) != block:  # also refuses a code or tick the parse wrapped or clamped
            raise ValueError("not in save_dataset's form")
        row, start = row + len(labels), end
    return dataset


def load_dataset(path) -> Dataset:
    """Read a dataset file: in bulk when save_dataset would write its bytes, else line by line.

    Any other file, valid or not, reads through load_dataset_lines over the
    same bytes, read once so that a pipe reads too: its result and its
    error messages are the line reader's.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # np.fromstring raises on text such as "1-2" in numpy 2, and warns in numpy 1.x
    with warnings.catch_warnings(), contextlib.suppress(ValueError, DeprecationWarning):
        warnings.simplefilter("error", DeprecationWarning)
        return _dataset_in_bulk(data)
    return load_dataset_lines(path, io.BytesIO(data))


def load_dataset_lines(path, lines) -> Dataset:
    """The dataset in `lines`, a binary file's lines, one JSON row each; `path` names it.

    Every refusal of a bad dataset file is made here.
    """
    ticks, labels, waveforms = [], [], []
    # bytes, so that a line that is not UTF-8 fails inside the per-line check
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            label = SpikeClass[doc["label"]]
            waveform = doc["waveform"]
            tick = doc["tick"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed dataset line ({exc})") from exc
        # exact types: bool is a subclass of int, and true/false are not samples
        if type(tick) is not int or not -(2**63) <= tick < 2**63:
            raise FormatError(f"{path}:{lineno}: tick must be a 64-bit integer")
        if type(waveform) is not list or len(waveform) != WAVEFORM_SAMPLES:
            raise FormatError(f"{path}:{lineno}: waveform must have {WAVEFORM_SAMPLES} samples")
        if set(map(type, waveform)) != {int}:
            raise FormatError(f"{path}:{lineno}: waveform values must be int8 integers")
        if min(waveform) < -128 or max(waveform) > 127:
            raise FormatError(f"{path}:{lineno}: waveform values outside int8 range")
        ticks.append(tick)
        labels.append(label)
        waveforms.append(waveform)
    return Dataset(np.array(waveforms, dtype=np.int8).reshape(-1, WAVEFORM_SAMPLES), labels, ticks)


def dataset_arrays(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Dataset as (X float64 [n, 40], y int64 [n])."""
    if not len(dataset):
        raise ValidationError("dataset is empty")
    return dataset.waveforms.astype(np.float64), dataset.labels


def _class_rows(dataset: Dataset) -> list[np.ndarray]:
    """Row indices of each class, in SpikeClass order, each ascending."""
    return [np.flatnonzero(dataset.labels == klass) for klass in SpikeClass]


def _shuffled_class_rows(dataset: Dataset, rng: np.random.Generator) -> list[np.ndarray]:
    """_class_rows, each class shuffled by one rng.permutation (an empty one draws nothing)."""
    return [rows[rng.permutation(len(rows))] for rows in _class_rows(dataset)]


def balance_classes(dataset: Dataset, seed: int) -> Dataset:
    """Downsample every class to the minority class count, preserving order."""
    rows = _class_rows(dataset)
    missing = [klass.name for klass, r in zip(SpikeClass, rows) if not len(r)]
    if missing:
        raise ValidationError(f"cannot balance dataset with empty classes: {missing}")
    target = min(len(r) for r in rows)
    rng = np.random.default_rng(seed)
    keep = np.concatenate([r[rng.choice(len(r), size=target, replace=False)] for r in rows])
    return dataset[np.sort(keep)]


def filter_outliers(dataset: Dataset, k: int = 10, min_foreign: int = 9) -> Dataset:
    """Drop samples whose neighbourhood overwhelmingly disagrees with them.

    Waveforms are standardized per dimension; a sample is removed when at
    least min_foreign of its k nearest neighbours (Euclidean) carry a
    different label.  Intended for training data only.
    """
    if k < 1 or not 1 <= min_foreign <= k:
        raise ValidationError("need k >= 1 and 1 <= min_foreign <= k")
    n = len(dataset)
    if n <= k:
        return dataset  # not enough neighbours to form a consensus
    X, y = dataset_arrays(dataset)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    Z = (X - X.mean(axis=0)) / std
    _, neighbors = cKDTree(Z).query(Z, k=k + 1)
    # each row's k neighbours leave out the row itself, or the farthest of
    # the k + 1 when duplicates pushed the row out of its own list
    own = neighbors == np.arange(n)[:, None]
    own[~own.any(axis=1), k] = True
    foreign = np.count_nonzero(y[neighbors[~own].reshape(n, k)] != y[:, None], axis=1)
    return dataset[foreign < min_foreign]


def train_test_split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split; both halves keep the original ordering."""
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError("test_fraction must be in (0, 1)")
    held = np.zeros(len(dataset), dtype=bool)
    for rows in _shuffled_class_rows(dataset, np.random.default_rng(seed)):
        held[rows[: int(round(len(rows) * test_fraction))]] = True
    return dataset[~held], dataset[held]


# ---------------------------------------------------------------------------
# Training


def init_model(topology, rng: np.random.Generator) -> MlpModel:
    """He-initialized MLP with the given layer sizes."""
    layers = []
    sizes = list(topology)
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        last = i == len(sizes) - 2
        std = math.sqrt(1.0 / n_in) if last else math.sqrt(2.0 / n_in)
        layers.append(
            Layer(
                weights=rng.normal(0.0, std, size=(n_out, n_in)),
                biases=np.zeros(n_out),
                activation="linear" if last else "relu",
            )
        )
    return MlpModel(layers)


@functools.cache
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)  # one array is handed to every caller
    return eye


def _gram_deviation(w: np.ndarray) -> np.ndarray:
    """W^T W - I: the orthogonality penalty and its gradient are both built on it."""
    return w.T @ w - _identity(w.shape[1])


def _penalty(grams) -> float:
    total = 0.0
    for gram in grams:
        total += float((gram * gram).sum())
    return total


def _softmax_terms(logits: np.ndarray, y: np.ndarray, rows: np.ndarray):
    """exp(logits - max), its row sums, and the mean cross entropy they give."""
    peak = logits.max(axis=1, keepdims=True)
    exps = np.exp(logits - peak)
    total = exps.sum(axis=1, keepdims=True)
    ce = float((np.log(total[:, 0]) + peak[:, 0] - logits[rows, y]).sum() / len(y))
    return exps, total, ce


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross entropy straight from logits (log-sum-exp form)."""
    return _softmax_terms(logits, y, np.arange(len(y)))[2]


def _param_views(model: MlpModel, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, biases) views of one flat buffer, shaped like the model's layers.

    The buffer holds each layer's weights (row-major) and then its biases,
    layer by layer, so one elementwise operation on it covers every parameter.
    """
    views, pos = [], 0
    for layer in model.layers:
        n_out, n_in = layer.weights.shape
        w = flat[pos : pos + n_out * n_in].reshape(n_out, n_in)
        pos += n_out * n_in
        views.append((w, flat[pos : pos + n_out]))
        pos += n_out
    return views


def loss_and_grads(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    ortho_lambda: float,
    out: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Total loss and its gradients for every (weights, biases) pair.

    The gradients are written into `out`, (weights, biases) arrays shaped
    like the model's layers; without it, into views of a new flat buffer.
    """
    if out is None:
        size = sum(layer.weights.size + layer.biases.size for layer in model.layers)
        out = _param_views(model, np.empty(size))
    x = np.asarray(X, dtype=np.float64)
    acts = [x, *layer_outputs(model, x)]

    rows = np.arange(len(y))
    probs, total, ce = _softmax_terms(acts[-1], y, rows)
    grams = [_gram_deviation(layer.weights) for layer in model.layers] if ortho_lambda else []
    loss = ce + ortho_lambda * _penalty(grams)

    probs /= total
    delta = probs
    delta[rows, y] -= 1.0
    delta /= len(y)
    for i in range(len(model.layers) - 1, -1, -1):
        w = model.layers[i].weights
        gw, gb = out[i]
        np.matmul(delta.T, acts[i], out=gw)
        delta.sum(axis=0, out=gb)
        if ortho_lambda:
            gw += ortho_lambda * 4.0 * (w @ grams[i])
        if i:
            delta = delta @ w
            # the ReLU derivative: a post-activation is > 0 exactly where its input is
            delta = np.where(acts[i] > 0.0, delta, 0.0)
    return loss, out


@dataclass
class TrainingLog:
    entries: list = field(default_factory=list)  # one dict per epoch
    best_epoch: int = 0
    stopped_early: bool = False

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.entries:
                fh.write(json.dumps(entry))
                fh.write("\n")
            fh.write(
                json.dumps({"best_epoch": self.best_epoch, "stopped_early": self.stopped_early})
            )
            fh.write("\n")


def train_mlp(
    dataset: Dataset,
    topology,
    cfg: TrainConfig | None = None,
    seed: int = 0,
) -> tuple[MlpModel, TrainingLog]:
    """Train one MLP with Adam and validation-loss early stopping.

    A val_fraction slice (stratified) is held out; training stops once the
    validation loss has not improved for `patience` epochs and the weights
    from the best validation epoch are returned.  Optimization happens in
    the INPUT_NORM-scaled domain and the scale is folded into the first
    layer before returning, so the model runs on raw int8 capture codes.
    Identical inputs and seed give identical weights.
    """
    cfg = cfg or TrainConfig()
    topology = check_topology(topology)
    rng = np.random.default_rng(seed)

    val_set = dataset[:0]
    train_set = dataset
    if cfg.val_fraction > 0 and len(dataset) >= 2:
        held = np.zeros(len(dataset), dtype=bool)
        for rows in _shuffled_class_rows(dataset, rng):
            n_val = int(round(len(rows) * cfg.val_fraction))
            if len(rows) > 1:
                n_val = max(1, min(n_val, len(rows) - 1))
            held[rows[:n_val]] = True
        # both parts are grouped by class, in class order
        by_class = np.argsort(dataset.labels, kind="stable")
        train_set = dataset[by_class[~held[by_class]]]
        val_set = dataset[by_class[held[by_class]]]
    X, y = dataset_arrays(train_set)
    X = X / INPUT_NORM
    Xv, yv = (None, None)
    if val_set:
        Xv, yv = dataset_arrays(val_set)
        Xv = Xv / INPUT_NORM

    model = init_model(topology, rng)
    # every parameter, gradient and Adam moment lives in one flat buffer;
    # the layers' weights and biases are views into `params`
    params = np.concatenate([a.ravel() for l in model.layers for a in (l.weights, l.biases)])
    for layer, (w, b) in zip(model.layers, _param_views(model, params)):
        layer.weights, layer.biases = w, b
    grad = np.zeros_like(params)
    grads = _param_views(model, grad)
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    step = 0

    log = TrainingLog()
    best_val = math.inf
    best_params = params.copy()
    bad_epochs = 0
    # a diverging run overflows before its loss turns non-finite; the check
    # below reports that as one error instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(X))
            epoch_loss = 0.0
            for start in range(0, len(X), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                loss, _ = loss_and_grads(model, X[batch], y[batch], cfg.ortho_lambda, grads)
                epoch_loss += loss * len(batch)
                step += 1
                bc1 = 1.0 - cfg.beta1**step
                bc2 = 1.0 - cfg.beta2**step
                adam_m *= cfg.beta1
                adam_m += (1.0 - cfg.beta1) * grad
                adam_v *= cfg.beta2
                adam_v += (1.0 - cfg.beta2) * grad * grad
                params -= cfg.learning_rate * (adam_m / bc1) / (np.sqrt(adam_v / bc2) + cfg.adam_epsilon)

            entry = {"epoch": epoch, "train_loss": epoch_loss / len(X)}
            if val_set:
                entry["val_loss"] = cross_entropy(infer_float_batch(model, Xv), yv)
                if entry["val_loss"] < best_val:
                    best_val = entry["val_loss"]
                    best_params = params.copy()
                    log.best_epoch = epoch
                    bad_epochs = 0
                else:
                    bad_epochs += 1
            if not np.all(np.isfinite(list(entry.values()))):
                raise ValidationError(
                    f"training diverged at epoch {epoch} (a non-finite loss); "
                    "a smaller train.learning_rate may help"
                )
            log.entries.append(entry)
            if val_set and bad_epochs >= cfg.patience:
                log.stopped_early = True
                break

    if val_set:
        params[:] = best_params
    else:
        log.best_epoch = len(log.entries) - 1
    model.layers[0].weights /= INPUT_NORM  # fold: consume raw capture codes
    return model, log


# ---------------------------------------------------------------------------
# Evaluation and cross-validation


def evaluate(model: MlpModel | QuantizedMlpModel, dataset: Dataset) -> ConfusionMatrix:
    """Confusion matrix of a model over a labelled dataset."""
    X, y = dataset_arrays(dataset)
    # X holds the int8 capture codes exactly, so both paths can read it
    infer = infer_quantized_batch if isinstance(model, QuantizedMlpModel) else infer_float_batch
    predicted = np.argmax(infer(model, X), axis=1)
    counts = np.bincount(NUM_CLASSES * y + predicted, minlength=NUM_CLASSES * NUM_CLASSES)
    return ConfusionMatrix(counts.reshape(NUM_CLASSES, NUM_CLASSES))


def stratified_folds(dataset: Dataset, folds: int, seed: int) -> list[np.ndarray]:
    """Ascending row indices of k folds, with per-class round-robin assignment."""
    if folds < 2:
        raise ValidationError("need at least 2 folds")
    class_rows = _shuffled_class_rows(dataset, np.random.default_rng(seed))
    for klass, rows in zip(SpikeClass, class_rows):
        if 0 < len(rows) < folds:
            raise ValidationError(
                f"class {klass.name} has {len(rows)} samples, fewer than {folds} folds"
            )
    fold_of = np.empty(len(dataset), dtype=np.int64)
    for rows in class_rows:
        # the pos-th row of the class's permutation goes to fold pos % folds
        fold_of[rows] = np.arange(len(rows)) % folds
    return [np.flatnonzero(fold_of == fold) for fold in range(folds)]


@dataclass
class ClassStats:
    mean: float
    se: float
    ci_low: float
    ci_high: float
    fold_values: list


@dataclass
class DseResult:
    """One cross-validated candidate: a topology trained at one ortho_lambda."""

    topology: list
    ortho_lambda: float
    complexity: int
    per_class: dict  # SpikeClass -> ClassStats
    # per-fold ConfusionMatrix; left out of ==, which cannot compare their arrays
    matrices: list = field(default_factory=list, compare=False)

    @property
    def cs_ci_low(self) -> float:
        return self.per_class[SpikeClass.CS].ci_low

    def survives(self, cs_floor: float) -> bool:
        """The selection rule: the CS CI lower bound lies strictly above the floor."""
        return self.cs_ci_low > cs_floor


def cross_validate(
    dataset: Dataset,
    topology,
    train_cfg: TrainConfig | None = None,
    folds: int = 10,
    seed: int = 0,
    confidence: float = 0.95,
) -> DseResult:
    """Stratified k-fold CV of the full train-and-quantize recipe.

    Per fold: balance and outlier-filter the training part (never the held
    out part), train, quantize with the processed training waveforms as
    calibration, and score the quantized model on the untouched fold.
    """
    train_cfg = train_cfg or TrainConfig()
    fold_idx = stratified_folds(dataset, folds, seed)
    z = float(norm.ppf(0.5 + confidence / 2.0))
    matrices = []
    for fold in range(folds):
        test_part = dataset[fold_idx[fold]]
        # fold by fold, not sorted: the order feeds the seeded batch order
        train_part = dataset[np.concatenate([fold_idx[f] for f in range(folds) if f != fold])]
        fold_seed = derive_seed(seed, topology, fold)
        processed = filter_outliers(balance_classes(train_part, fold_seed))
        model, _ = train_mlp(processed, topology, train_cfg, seed=fold_seed)
        qmodel = quantize(model, dataset_arrays(processed)[0])
        matrices.append(evaluate(qmodel, test_part))
    per_class = {}
    for klass in SpikeClass:
        arr = np.array([accuracy(cm, klass) for cm in matrices])
        mean = float(arr.mean())
        se = float(arr.std(ddof=1) / math.sqrt(folds)) if folds > 1 else 0.0
        per_class[klass] = ClassStats(
            mean=mean,
            se=se,
            ci_low=mean - z * se,
            ci_high=mean + z * se,
            fold_values=arr.tolist(),
        )
    return DseResult(
        list(topology), train_cfg.ortho_lambda, complexity(topology), per_class, matrices
    )


# ---------------------------------------------------------------------------
# Design-space exploration


def full_grid(cfg: DseConfig):
    """Yield every (topology, ortho_lambda) pair the ranges allow, hidden sizes non-increasing."""

    def hidden_layers(depth: int, prev: int, chosen: tuple):
        if depth == len(cfg.hidden_ranges):
            return
        lo, hi = cfg.hidden_ranges[depth]
        for size in range(lo, min(hi, prev) + 1):
            yield chosen + (size,)
            yield from hidden_layers(depth + 1, size, chosen + (size,))

    topologies = [(WAVEFORM_SAMPLES, NUM_CLASSES)]
    for hidden in hidden_layers(0, WAVEFORM_SAMPLES, ()):
        topologies.append((WAVEFORM_SAMPLES, *hidden, NUM_CLASSES))
    for topology in topologies:
        for rf in cfg.ortho_lambdas:
            yield topology, rf


def dse_rank(cost: int, topology) -> tuple:
    """Rank of an architecture in the search: complexity `cost`, then depth, then topology."""
    return (cost, len(topology), tuple(topology))


def run_dse(
    dataset: Dataset,
    candidates,
    train_cfg: TrainConfig | None = None,
    dse_cfg: DseConfig | None = None,
    seed: int = 0,
    jobs: int = 1,
    exhaustive: bool = False,
) -> list[DseResult]:
    """Cross-validate candidate (topology, ortho_lambda) pairs in rank order.

    One stable sort on `dse_rank` (complexity, then depth, then topology)
    ranks the candidates, so each topology's λ values stay together, in
    the order given.  They are cross-validated in that order, in waves of
    `jobs` tasks.  The search stops after the first topology that has a
    survivor (CS CI low above `dse_cfg.cs_floor`), and always finishes
    that topology's λ values.  `dse_select` ranks by the same key before
    accuracy, so no later topology could be selected and the selection
    equals that of an exhaustive search.  A search with no survivor
    evaluates every candidate; `exhaustive` turns the stop off.

    Returns the evaluated results in rank order, cut after the deciding
    topology.  Seeds derive from (seed, topology, fold) alone, so the list
    does not depend on worker count or scheduling order.
    """
    train_cfg = train_cfg or TrainConfig()
    dse_cfg = dse_cfg or DseConfig()
    ranked = sorted(candidates, key=lambda c: dse_rank(complexity(c[0]), c[0]))
    topologies = [tuple(topology) for topology, _ in ranked]
    cfgs = [replace(train_cfg, ortho_lambda=rf) for _, rf in ranked]
    # built here, from the module global, so that a replaced cross_validate is the one called
    task = functools.partial(
        cross_validate, dataset, folds=dse_cfg.folds, seed=seed, confidence=dse_cfg.confidence
    )
    jobs = max(1, min(jobs, len(topologies)))  # a fork pool starts all its workers at once
    stop = len(topologies)
    results: list[DseResult] = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        run = map if pool is None else pool.map
        while len(results) < stop:
            start = len(results)
            wave = slice(start, min(start + jobs, stop))
            results += run(task, topologies[wave], cfgs[wave])
            if not exhaustive:
                for k in range(start, len(results)):
                    if results[k].survives(dse_cfg.cs_floor):
                        # the rest of k's topology ranks right after it
                        stop = min(stop, k + topologies[k:].count(topologies[k]))
                        break
    return results[:stop]


def dse_select(results: list[DseResult], cs_floor: float = 0.90) -> DseResult | None:
    """Cheapest architecture whose CS accuracy clears the floor with confidence.

    Order: lowest complexity, then fewest layers, then lexicographically
    smallest topology, then highest CS mean, then largest ortho_lambda.
    Returns None when nothing qualifies.
    """
    survivors = [r for r in results if r.survives(cs_floor)]
    if not survivors:
        return None
    return min(
        survivors,
        key=lambda r: (
            *dse_rank(r.complexity, r.topology),
            -r.per_class[SpikeClass.CS].mean,
            -r.ortho_lambda,
        ),
    )
