"""Multilayer-perceptron inference in float and int8 form.

The deployed classifier consumes one captured waveform (40 signed 8-bit
samples) and produces one of three classes.  Training happens elsewhere;
this module owns what a model is (its shape and topology rules), the
forward paths, the post-training quantization step and the model file
format.

Quantization is symmetric and per layer: one weight scale, one activation
scale.  Accumulation is 32-bit integer and requantization rounds half to
even.  The class is the argmax of the final layer's int32 accumulators.
However a QuantizedLayer is built, it holds int8 weights, int32 biases and
a worst-case accumulator over int8 inputs that fits int32.
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
        for name, dtype in (("q_weights", np.int8), ("q_biases", np.int32)):
            values, info = np.asarray(getattr(self, name)), np.iinfo(dtype)
            # before the cast, which would wrap; NaN fails the comparison too
            if values.size and not info.min <= values.min() <= values.max() <= info.max:
                raise ValidationError(f"{name} must lie in [{info.min}, {info.max}]")
            setattr(self, name, values.astype(dtype))
        if self.q_weights.ndim != 2 or self.q_biases.shape != (self.q_weights.shape[0],):
            raise ValidationError("quantized layer shapes are inconsistent")
        # |acc| <= 128 * sum|w| + |b| on int8 inputs; widened, as np.abs(np.int8(-128)) is -128
        w, b = self.q_weights.astype(np.int64), self.q_biases.astype(np.int64)
        if np.any(128 * np.abs(w).sum(axis=1) + np.abs(b) > INT32_MAX):
            raise ValidationError("worst-case accumulator over int8 inputs exceeds int32")
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
        qlayers.append(
            QuantizedLayer(
                q_weights=np.round(layer.weights / weight_scale),
                q_biases=np.round(layer.biases / (input_scale * weight_scale)),
                activation=layer.activation,
                input_scale=input_scale,
                weight_scale=weight_scale,
                output_scale=output_scale,
            )
        )
        input_scale = output_scale
    return QuantizedMlpModel(qlayers)


def infer_quantized_batch(model: QuantizedMlpModel, waveforms: np.ndarray) -> np.ndarray:
    """Integer forward pass on a [batch, in] matrix of int8 values (any dtype).

    Returns the final layer's int32 accumulators, [batch, out]: a positive
    scale would keep their order, ties included, so their argmax is the
    class.  The layer rule keeps every int32 accumulator exact on int8 inputs.
    """
    q = np.asarray(waveforms, dtype=np.int32)
    *hidden, last = model.layers
    for layer in hidden:
        acc = q @ layer.q_weights.T.astype(np.int32) + layer.q_biases
        scale = layer.input_scale * layer.weight_scale / layer.output_scale
        q = np.clip(np.round(acc * scale), ACT_QMIN, ACT_QMAX)
        if layer.activation == "relu":
            q = np.maximum(q, 0)
        q = q.astype(np.int32)
    return q @ last.q_weights.T.astype(np.int32) + last.q_biases


def _json_number(value, name: str) -> float:
    """A JSON number (an integer or a float; a bool or a string is not one)."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number")
    return float(value)


def _json_numbers(value, name: str, integers: bool = False) -> np.ndarray:
    """A nested list of JSON numbers as an array, refusing what a cast would change.

    With `integers` every entry must be an integer and the array is int64 (the
    layer checks the range); otherwise entries are integers or finite floats
    and the array is float64.  A bool or a string is never a number.
    """
    types = (int,) if integers else (int, float)
    if not all(type(v) in types for v in np.array(value, dtype=object).ravel().tolist()):
        raise ValueError(f"{name} must be {'integers' if integers else 'numbers'}")
    array = np.array(value, dtype=np.int64 if integers else np.float64)
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
            "q_weights": partial(_json_numbers, integers=True),
            "q_biases": partial(_json_numbers, integers=True),
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
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "kind" not in doc or "layers" not in doc:
        raise FormatError(f"{path}: not a model file")
    # header numbers must be JSON integers: == alone takes true and 1.0 for 1
    version = doc.get("version")
    if type(version) is not int or version != MODEL_FILE_VERSION:
        raise FormatError(f"{path}: unsupported model file version {version!r}")
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
    # equality makes topology a list, but lets 40.0 or true through as a width
    topology = doc.get("topology")
    if topology != model.topology or any(type(n) is not int for n in topology):
        raise FormatError(f"{path}: topology field does not match layer shapes")
    return model
