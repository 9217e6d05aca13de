"""Multilayer-perceptron inference in float and int8 form.

The deployed classifier consumes one captured waveform (40 signed 8-bit
samples) and produces one of three classes.  Training happens elsewhere;
this module owns what a model is (its shape and topology rules), the
forward paths, the post-training quantization step and the model file
format.

Quantization is symmetric and per layer: one weight scale, one activation
scale.  Accumulation is 32-bit integer, requantization rounds half to even,
and the final layer returns dequantized logits instead of requantizing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import partial

import numpy as np

from .errors import FormatError, ValidationError

WAVEFORM_SAMPLES = 40
NUM_CLASSES = 3

MODEL_FILE_VERSION = 1

# Symmetric int8 ranges: weights use [-127, 127], activations [-128, 127].
WEIGHT_QMAX = 127
ACT_QMIN = -128
ACT_QMAX = 127
SCALE_FLOOR = 1e-8

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


class SpikeClass(IntEnum):
    """Output classes, in logit order."""

    CS = 0
    SS = 1
    F = 2


def check_topology(topology) -> list[int]:
    """The deployable shape: positive layer sizes from one capture to one logit per class."""
    topology = list(topology)
    if (
        len(topology) < 2
        or any(int(n) != n or n < 1 for n in topology)
        or topology[0] != WAVEFORM_SAMPLES
        or topology[-1] != NUM_CLASSES
    ):
        raise ValidationError(
            f"topology {topology} must be positive layer sizes "
            f"from {WAVEFORM_SAMPLES} inputs to {NUM_CLASSES} outputs"
        )
    return topology


@dataclass
class Layer:
    """One dense layer: weights are [out, in], activation follows the affine."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str  # "relu" or "linear"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValidationError("layer weights must be a 2-d matrix")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValidationError("bias length must match output size")
        if self.activation not in ("relu", "linear"):
            raise ValidationError(f"unknown activation {self.activation!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape


@dataclass
class QuantizedLayer:
    """Integer twin of Layer plus the scales needed to chain layers."""

    q_weights: np.ndarray  # int8, [out, in]
    q_biases: np.ndarray  # int32, at input_scale * weight_scale
    activation: str
    input_scale: float
    weight_scale: float
    output_scale: float

    def __post_init__(self):
        self.q_weights = np.asarray(self.q_weights, dtype=np.int8)
        self.q_biases = np.asarray(self.q_biases, dtype=np.int32)
        if self.q_weights.ndim != 2 or self.q_biases.shape != (self.q_weights.shape[0],):
            raise ValidationError("quantized layer shapes are inconsistent")
        if self.activation not in ("relu", "linear"):
            raise ValidationError(f"unknown activation {self.activation!r}")
        scales = (self.input_scale, self.weight_scale, self.output_scale)
        if not all(0 < s < math.inf for s in scales):  # NaN fails too
            raise ValidationError("scales must be positive and finite")

    @property
    def shape(self) -> tuple[int, int]:
        return self.q_weights.shape


@dataclass
class _Mlp:
    """The shape rule of both model kinds.

    At least one layer, each layer's input width is the previous layer's
    output width, hidden layers are ReLU and the output layer is linear.
    """

    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("model needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if b.shape[1] != a.shape[0]:
                raise ValidationError("layer dimensions do not chain")
        for layer in self.layers[:-1]:
            if layer.activation != "relu":
                raise ValidationError("hidden layers must be relu")
        if self.layers[-1].activation != "linear":
            raise ValidationError("output layer must be linear")

    @property
    def topology(self) -> list[int]:
        return [self.layers[0].shape[1]] + [layer.shape[0] for layer in self.layers]


class MlpModel(_Mlp):
    """Float MLP: a list of Layer."""


class QuantizedMlpModel(_Mlp):
    """Int8 MLP: a list of QuantizedLayer."""


def layer_outputs(model: MlpModel, x: np.ndarray):
    """Yield each layer's post-activation output for a [batch, in] matrix."""
    h = np.asarray(x, dtype=np.float64)
    for layer in model.layers:
        h = h @ layer.weights.T + layer.biases
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
        yield h


def infer_float_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Forward pass on a [batch, in] matrix; returns [batch, out] logits."""
    *_, logits = layer_outputs(model, x)
    return logits


def quantize(model: MlpModel, calibration: np.ndarray) -> QuantizedMlpModel:
    """Symmetric per-layer int8 quantization.

    calibration is a [n, in] matrix of representative inputs (int8 waveform
    values, given as the real numbers the first layer will see).  Activation
    scales come from the max |activation| observed on it; weight scales from
    max |w| / 127.  The first layer's input scale is fixed at 1: inputs are
    already int8 counts.
    """
    calibration = np.asarray(calibration, dtype=np.float64)
    if calibration.ndim != 2 or calibration.shape[0] == 0:
        raise ValidationError("calibration set must be a non-empty [n, in] matrix")
    if calibration.shape[1] != model.layers[0].weights.shape[1]:
        raise ValidationError("calibration width does not match model input")

    # max |post-activation| per layer over the calibration inputs
    act_maxima = [
        float(np.max(np.abs(h))) if h.size else 0.0 for h in layer_outputs(model, calibration)
    ]
    qlayers = []
    input_scale = 1.0
    for layer, act_max in zip(model.layers, act_maxima):
        weight_scale = max(float(np.max(np.abs(layer.weights))) / WEIGHT_QMAX, SCALE_FLOOR)
        output_scale = max(act_max / ACT_QMAX, SCALE_FLOOR)
        q_w = np.round(layer.weights / weight_scale)
        # scale = max|w|/127 puts every |w/scale| <= 127 already
        assert np.max(np.abs(q_w)) <= WEIGHT_QMAX
        bias_scale = input_scale * weight_scale
        q_b = np.round(layer.biases / bias_scale)
        acc_bound = layer.weights.shape[1] * WEIGHT_QMAX * 128 + np.max(np.abs(q_b))
        if acc_bound > INT32_MAX:
            raise ValidationError("quantized biases would overflow the 32-bit accumulator")
        qlayers.append(
            QuantizedLayer(
                q_weights=q_w.astype(np.int8),
                q_biases=q_b.astype(np.int32),
                activation=layer.activation,
                input_scale=input_scale,
                weight_scale=weight_scale,
                output_scale=output_scale,
            )
        )
        input_scale = output_scale
    return QuantizedMlpModel(qlayers)


def infer_quantized_batch(model: QuantizedMlpModel, waveforms: np.ndarray) -> np.ndarray:
    """Integer forward pass on a [batch, in] int8 matrix; returns float logits."""
    q = np.asarray(waveforms, dtype=np.int64)
    n_layers = len(model.layers)
    for i, layer in enumerate(model.layers):
        acc = q @ layer.q_weights.T.astype(np.int64) + layer.q_biases
        # 40 * 127 * 128 plus the bias bound stays well inside int32; a trip
        # outside means the quantize-time bound was violated, so fail loudly.
        if acc.size and (acc.min() < INT32_MIN or acc.max() > INT32_MAX):
            raise AssertionError("int32 accumulator overflow")
        acc_scale = layer.input_scale * layer.weight_scale
        if i == n_layers - 1:
            return acc.astype(np.float64) * acc_scale
        q = np.clip(np.round(acc * (acc_scale / layer.output_scale)), ACT_QMIN, ACT_QMAX)
        if layer.activation == "relu":
            q = np.maximum(q, 0)
        q = q.astype(np.int64)
    raise AssertionError("unreachable")


def _json_number(value, name: str) -> float:
    """A JSON number (an integer or a float; a bool or a string is not one)."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number")
    return float(value)


def _json_numbers(value, name: str, int_range: tuple[int, int] | None = None) -> np.ndarray:
    """A nested list of JSON numbers as an array, refusing what a cast would change.

    With `int_range` (lo, hi) every entry must be an integer in it and the
    array is int64; otherwise entries are integers or finite floats and the
    array is float64.  A bool or a string is never a number.
    """
    flat = np.array(value, dtype=object).ravel().tolist()
    if int_range is not None:
        lo, hi = int_range
        if not all(type(v) is int for v in flat):
            raise ValueError(f"{name} must be integers")
        if flat and (min(flat) < lo or max(flat) > hi):
            raise ValueError(f"{name} must be in [{lo}, {hi}]")
        return np.array(value, dtype=np.int64)
    if not all(type(v) in (int, float) for v in flat):
        raise ValueError(f"{name} must be numbers")
    array = np.array(value, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite")
    return array


def _json_text(value, name: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{name} must be a string")
    return value


# The model file format, one entry per kind: the model class, its layer
# class, and each stored layer field (a constructor argument of the layer
# class) with the reader that checks its JSON value.
_CODECS = {
    "float": (
        MlpModel,
        Layer,
        {"weights": _json_numbers, "biases": _json_numbers, "activation": _json_text},
    ),
    "quant": (
        QuantizedMlpModel,
        QuantizedLayer,
        {
            "q_weights": partial(_json_numbers, int_range=(-128, 127)),
            "q_biases": partial(_json_numbers, int_range=(INT32_MIN, INT32_MAX)),
            "activation": _json_text,
            "input_scale": _json_number,
            "weight_scale": _json_number,
            "output_scale": _json_number,
        },
    ),
}


def _to_json(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def save_model(path, model: MlpModel | QuantizedMlpModel) -> None:
    """Write a model as JSON. The file records kind, topology, and layers."""
    for kind, (model_cls, _, fields) in _CODECS.items():
        if isinstance(model, model_cls):
            break
    else:
        raise ValidationError(f"cannot save object of type {type(model).__name__}")
    doc = {
        "version": MODEL_FILE_VERSION,
        "kind": kind,
        "topology": model.topology,
        "layers": [{f: _to_json(getattr(layer, f)) for f in fields} for layer in model.layers],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> MlpModel | QuantizedMlpModel:
    """Read a model written by save_model, validating shape and ranges."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "kind" not in doc or "layers" not in doc:
        raise FormatError(f"{path}: not a model file")
    if doc.get("version") != MODEL_FILE_VERSION:
        raise FormatError(f"{path}: unsupported model file version {doc.get('version')!r}")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _CODECS:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    model_cls, layer_cls, fields = _CODECS[kind]
    try:
        model = model_cls(
            [
                layer_cls(**{field: read(entry[field], field) for field, read in fields.items()})
                for entry in doc["layers"]
            ]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed model file ({exc})") from exc
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if doc.get("topology") != model.topology:
        raise FormatError(f"{path}: topology field does not match layer shapes")
    return model
