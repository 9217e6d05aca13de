import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikestage import nn
from spikestage.errors import FormatError, ValidationError


def random_model(rng, topology=(6, 5, 4, 3), scale=1.0):
    layers = []
    sizes = list(topology)
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        layers.append(
            nn.Layer(
                weights=rng.normal(0.0, scale, size=(n_out, n_in)),
                biases=rng.normal(0.0, scale, size=n_out),
                activation="linear" if i == len(sizes) - 2 else "relu",
            )
        )
    return nn.MlpModel(layers)


def naive_forward(model, x):
    """Scalar-loop reference for the float forward pass."""
    h = list(map(float, x))
    for layer in model.layers:
        out = []
        for j in range(layer.weights.shape[0]):
            acc = float(layer.biases[j])
            for i, v in enumerate(h):
                acc += float(layer.weights[j, i]) * v
            if layer.activation == "relu" and acc < 0.0:
                acc = 0.0
            out.append(acc)
        h = out
    return np.array(h)


def test_infer_float_matches_naive():
    rng = np.random.default_rng(0)
    model = random_model(rng)
    X = rng.normal(size=(10, 6))
    batch = nn.infer_float_batch(model, X)
    for x, logits in zip(X, batch):
        assert np.allclose(logits, naive_forward(model, x), atol=1e-12)


def test_infer_float_batch_matches_single():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    X = rng.normal(size=(8, 6))
    batch = nn.infer_float_batch(model, X)
    for i in range(8):
        assert np.allclose(batch[i], nn.infer_float_batch(model, X[i : i + 1])[0], atol=1e-12)


def test_classify_ties_take_lowest_index():
    # the deployed class is the argmax of the int32 accumulators; one-hot
    # inputs pick the weight columns, giving [1, 1, 0], [0, 2, 2], [-1, -1, -1]
    layer = nn.QuantizedLayer(
        q_weights=np.array([[1, 0, -1], [1, 2, -1], [0, 2, -1]], dtype=np.int8),
        q_biases=np.zeros(3, dtype=np.int32),
        activation="linear",
        input_scale=1.0,
        weight_scale=1.0,
        output_scale=1.0,
    )
    logits = nn.infer_quantized_batch(nn.QuantizedMlpModel([layer]), np.eye(3, dtype=np.int8))
    assert logits.dtype == np.int32
    assert logits.tolist() == [[1, 1, 0], [0, 2, 2], [-1, -1, -1]]
    assert logits.argmax(axis=1).tolist() == [nn.SpikeClass.CS, nn.SpikeClass.SS, nn.SpikeClass.CS]


def test_model_structure_validation():
    rng = np.random.default_rng(2)
    with pytest.raises(ValidationError):
        nn.Layer(weights=rng.normal(size=(3, 4)), biases=np.zeros(2), activation="relu")
    with pytest.raises(ValidationError):
        nn.Layer(weights=rng.normal(size=(3, 4)), biases=np.zeros(3), activation="tanh")
    # hidden layers must be relu, output linear
    good = random_model(rng)
    bad_layers = [
        nn.Layer(l.weights.copy(), l.biases.copy(), "linear") for l in good.layers
    ]
    with pytest.raises(ValidationError):
        nn.MlpModel(bad_layers)
    # chaining mismatch
    with pytest.raises(ValidationError):
        nn.MlpModel(
            [
                nn.Layer(rng.normal(size=(5, 6)), np.zeros(5), "relu"),
                nn.Layer(rng.normal(size=(3, 4)), np.zeros(3), "linear"),
            ]
        )
    # the quantized kind is held to the same rule
    qlayers = nn.quantize(good, rng.normal(size=(4, 6))).layers
    for i, activation in ((0, "linear"), (-1, "relu")):
        bad = list(qlayers)
        bad[i] = dataclasses.replace(qlayers[i], activation=activation)
        with pytest.raises(ValidationError, match="must be"):
            nn.QuantizedMlpModel(bad)
    with pytest.raises(ValidationError, match="chain"):
        nn.QuantizedMlpModel(qlayers[1:] + qlayers[:1])


def test_weight_scale_definition():
    rng = np.random.default_rng(3)
    model = random_model(rng)
    calib = rng.normal(0.0, 30.0, size=(50, 6))
    qmodel = nn.quantize(model, calib)
    for layer, qlayer in zip(model.layers, qmodel.layers):
        expected = max(float(np.max(np.abs(layer.weights))) / 127.0, 1e-8)
        assert qlayer.weight_scale == expected
    assert qmodel.layers[0].input_scale == 1.0
    for a, b in zip(qmodel.layers, qmodel.layers[1:]):
        assert b.input_scale == a.output_scale


def test_dequantized_weight_error_bound():
    rng = np.random.default_rng(4)
    for _ in range(10):
        model = random_model(rng, scale=float(rng.uniform(0.1, 3.0)))
        calib = rng.normal(0.0, 20.0, size=(20, 6))
        qmodel = nn.quantize(model, calib)
        for layer, qlayer in zip(model.layers, qmodel.layers):
            err = np.abs(qlayer.q_weights * qlayer.weight_scale - layer.weights)
            assert np.all(err <= qlayer.weight_scale / 2.0 + 1e-15)


def test_quantized_agreement_on_test_split(trained):
    model, qmodel, test_part, _ = trained
    X = np.stack([item.waveform for item in test_part])
    float_pred = nn.infer_float_batch(model, X.astype(np.float64)).argmax(axis=1)
    quant_pred = nn.infer_quantized_batch(qmodel, X).argmax(axis=1)
    assert (float_pred == quant_pred).mean() >= 0.98


def test_infer_quantized_single_matches_batch(trained):
    _, qmodel, test_part, _ = trained
    X = np.stack([item.waveform for item in test_part[:20]])
    batch = nn.infer_quantized_batch(qmodel, X)
    for i in range(len(X)):
        assert np.array_equal(nn.infer_quantized_batch(qmodel, X[i : i + 1])[0], batch[i])


def test_quantize_rejects_oversized_biases():
    rng = np.random.default_rng(5)
    model = random_model(rng)
    model.layers[0].biases[:] = 1e9  # bias/(in_scale*w_scale) blows past int32
    with pytest.raises(ValidationError):
        nn.quantize(model, rng.normal(size=(10, 6)))


def test_quantize_zero_weights_uses_scale_floor():
    rng = np.random.default_rng(6)
    model = random_model(rng)
    for layer in model.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    qmodel = nn.quantize(model, rng.normal(size=(10, 6)))
    for qlayer in qmodel.layers:
        assert qlayer.weight_scale == 1e-8
        assert qlayer.output_scale == 1e-8
        assert np.all(qlayer.q_weights == 0)


def test_quantize_calibration_validation():
    rng = np.random.default_rng(7)
    model = random_model(rng)
    with pytest.raises(ValidationError):
        nn.quantize(model, np.empty((0, 6)))
    with pytest.raises(ValidationError):
        nn.quantize(model, rng.normal(size=(5, 4)))


def test_save_load_float_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    model = random_model(rng)
    path = tmp_path / "model.json"
    nn.save_model(path, model)
    loaded = nn.load_model(path)
    assert isinstance(loaded, nn.MlpModel)
    assert loaded.topology == model.topology
    for a, b in zip(model.layers, loaded.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert a.activation == b.activation
    X = rng.normal(size=(4, 6))
    assert np.array_equal(nn.infer_float_batch(model, X), nn.infer_float_batch(loaded, X))


def test_save_load_quantized_roundtrip(tmp_path, trained):
    _, qmodel, test_part, _ = trained
    path = tmp_path / "qmodel.json"
    nn.save_model(path, qmodel)
    loaded = nn.load_model(path)
    assert isinstance(loaded, nn.QuantizedMlpModel)
    for a, b in zip(qmodel.layers, loaded.layers):
        assert np.array_equal(a.q_weights, b.q_weights)
        assert np.array_equal(a.q_biases, b.q_biases)
        assert a.input_scale == b.input_scale
        assert a.weight_scale == b.weight_scale
        assert a.output_scale == b.output_scale
    X = np.stack([item.waveform for item in test_part[:50]])
    assert np.array_equal(
        nn.infer_quantized_batch(qmodel, X), nn.infer_quantized_batch(loaded, X)
    )


# sha256 of the float model file then its quantization, both from
# test_model_file_bytes_are_pinned; any change to the saved bytes shows here
MODEL_FILE_SHA256 = "0f5462a0a0ccd502d0cad6ba810bb043635a64f88a97b9ca7ce227b56b82a452"


def test_model_file_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(11)
    model = random_model(rng, topology=(40, 6, 4, 3))
    qmodel = nn.quantize(model, rng.integers(-128, 128, size=(64, 40)).astype(np.float64))
    digest = hashlib.sha256()
    path = tmp_path / "model.json"
    for m in (model, qmodel):
        nn.save_model(path, m)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == MODEL_FILE_SHA256


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all{")
    with pytest.raises(FormatError):
        nn.load_model(path)

    path.write_text(json.dumps({"version": 99, "kind": "float", "layers": []}))
    with pytest.raises(FormatError):
        nn.load_model(path)

    path.write_text(json.dumps({"version": 1, "kind": "maybe", "layers": []}))
    with pytest.raises(FormatError):
        nn.load_model(path)

    # numbers a cast would silently change: each must be refused, not truncated
    layer = {"activation": "linear", "input_scale": 1.0, "weight_scale": 0.5, "output_scale": 1.0}
    quant = dict(layer, q_weights=[[1] * 6] * 3, q_biases=[0, 0, 0])
    flt = {"activation": "linear", "weights": [[0.5] * 6] * 3, "biases": [0.0] * 3}
    for entry in (quant, flt):
        kind = "quant" if entry is quant else "float"
        path.write_text(json.dumps({"version": 1, "kind": kind, "topology": [6, 3], "layers": [entry]}))
        assert nn.load_model(path).topology == [6, 3]
    # header numbers that == would take for the expected ones
    bad_headers = ({"version": True}, {"version": 1.0}, {"topology": [6.0, 3]}, {"topology": [6, 3.0]})
    for header in bad_headers:
        doc = dict({"version": 1, "kind": "quant", "topology": [6, 3], "layers": [quant]}, **header)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="bad.json"):
            nn.load_model(path)
    for kind, entry in (
        ("quant", dict(quant, q_weights=[[1.5] * 6] * 3)),
        ("quant", dict(quant, q_weights=[[True] * 6] * 3)),
        ("quant", dict(quant, q_weights=[[128] * 6] * 3)),
        ("quant", dict(quant, q_biases=[2.7, 0, 0])),
        ("quant", dict(quant, weight_scale="0.5")),
        ("quant", dict(quant, weight_scale=float("nan"))),
        ("quant", dict(quant, input_scale=[1.0])),
        ("float", dict(flt, weights=[["2.5"] * 6] * 3)),
        ("float", dict(flt, weights=[[float("nan")] * 6] * 3)),
        ("float", dict(flt, biases=[0.0, float("-inf"), 0.0])),
        ("float", dict(flt, weights=[[0.5] * 6, [0.5] * 6, [0.5] * 5])),
    ):
        path.unlink()  # a new file: overwriting one flushes it on ext4
        path.write_text(json.dumps({"version": 1, "kind": kind, "topology": [6, 3], "layers": [entry]}))
        with pytest.raises(FormatError):
            nn.load_model(path)
    # a model built in memory is held to the same scale rule
    with pytest.raises(ValidationError):
        nn.QuantizedLayer(np.zeros((3, 6)), np.zeros(3), "linear", 1.0, float("nan"), 1.0)


def test_load_rejects_bias_overflow(tmp_path, trained):
    _, qmodel, _, _ = trained
    path = tmp_path / "qmodel.json"
    nn.save_model(path, qmodel)
    doc = json.loads(path.read_text())
    doc["layers"][0]["q_biases"][0] = 2**33  # outside int32
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        nn.load_model(path)


def test_requantize_rounds_halves_to_even():
    # hand-built net where the requantize multiplier is exactly 0.5,
    # so odd accumulators land on .5 and expose the rounding rule
    hidden = nn.QuantizedLayer(
        q_weights=np.array([[1]], dtype=np.int8),
        q_biases=np.array([0], dtype=np.int32),
        activation="relu",
        input_scale=1.0,
        weight_scale=1.0,
        output_scale=2.0,
    )
    out = nn.QuantizedLayer(
        q_weights=np.array([[1], [0], [0]], dtype=np.int8),
        q_biases=np.array([0, 0, 0], dtype=np.int32),
        activation="linear",
        input_scale=2.0,
        weight_scale=1.0,
        output_scale=1.0,
    )
    model = nn.QuantizedMlpModel([hidden, out])
    X = np.array([[1], [3], [5], [7]], dtype=np.int8)
    first = nn.infer_quantized_batch(model, X)[:, 0]
    # 0.5 -> 0, 1.5 -> 2, 2.5 -> 2 (not 3), 3.5 -> 4, read off the output accumulators
    assert first.tolist() == [0, 2, 2, 4]


def test_quantized_activation_clipping(trained):
    # inputs far outside the calibration range still stay inside int8
    _, qmodel, _, _ = trained
    x = np.full((1, 40), 127, dtype=np.int8)
    logits = nn.infer_quantized_batch(qmodel, x)
    assert logits.shape == (1, 3)
    assert np.all(np.isfinite(logits))


def integer_forward(layers, x):
    """Pure-Python reference of the int8 forward pass, on unbounded integers.

    Returns the last layer's accumulators.
    """
    h = [int(v) for v in x]
    for i, layer in enumerate(layers):
        rows = zip(layer.q_weights.tolist(), layer.q_biases.tolist())
        acc = [b + sum(w * v for w, v in zip(row, h)) for row, b in rows]
        if i == len(layers) - 1:
            return acc
        scale = layer.input_scale * layer.weight_scale / layer.output_scale
        h = [min(max(round(a * scale), -128), 127) for a in acc]
        if layer.activation == "relu":
            h = [max(v, 0) for v in h]


INT8 = st.integers(-128, 127)


@st.composite
def int8_nets(draw):
    """Layer specs (weights, bias signs, weight and output scale) and int8 inputs."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4))
    spec = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        row = st.lists(INT8, min_size=n_in, max_size=n_in)
        weights = draw(st.lists(row, min_size=n_out, max_size=n_out))
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n_out, max_size=n_out))
        spec.append((weights, signs, draw(st.floats(1e-6, 1e3)), draw(st.floats(1e-6, 1e3))))
    inputs = st.lists(INT8, min_size=sizes[0], max_size=sizes[0])
    return spec, draw(st.lists(inputs, min_size=1, max_size=6))


def build_layers(spec, past=0):
    """Layers whose biases sit `past` beyond the bound 128 * sum|w| + |b| <= 2^31 - 1."""
    layers, input_scale = [], 1.0
    for i, (weights, signs, weight_scale, output_scale) in enumerate(spec):
        bounds = [nn.INT32_MAX - 128 * sum(map(abs, row)) + past for row in weights]
        layers.append(
            nn.QuantizedLayer(
                weights,
                [s * b for s, b in zip(signs, bounds)],
                "linear" if i == len(spec) - 1 else "relu",
                input_scale,
                weight_scale,
                output_scale,
            )
        )
        input_scale = output_scale
    return layers


# every weight and input -128 under +bound biases: the first accumulators are 2^31 - 1
WORST = (
    [([[-128] * 12] * 2, [1, 1], 1.0, 1.0), ([[-128] * 2] * 3, [1, -1, 1], 1.0, 1.0)],
    [[-128] * 12],
)


@settings(max_examples=200, deadline=None)
@given(int8_nets())
@example(WORST)
def test_int32_inference_matches_integer_oracle(net):
    spec, inputs = net
    layers = build_layers(spec)
    logits = nn.infer_quantized_batch(nn.QuantizedMlpModel(layers), np.array(inputs, dtype=np.int8))
    assert logits.tolist() == [integer_forward(layers, x) for x in inputs]
    # one past the bound: beyond int32 altogether when a row's weights are all 0
    with pytest.raises(ValidationError):
        build_layers(spec, past=1)
