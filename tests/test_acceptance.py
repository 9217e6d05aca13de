"""End-to-end acceptance gate.

Each test covers one deliverable guarantee and prints a single
ACCEPTANCE <name>: PASS/FAIL line with the measured numbers, so a plain
pytest run doubles as the sign-off checklist.
"""

import math
import time

import numpy as np
import pytest

from spikestage import analysis as an
from spikestage import budget
from spikestage import detector as det
from spikestage import nn
from spikestage import pipeline as pl
from spikestage import signal
from spikestage import store
from spikestage import train as tr
from spikestage.config import (
    DetectorConfig,
    PostprocConfig,
    RecordingConfig,
    ResourceModel,
    SynthesisParams,
    TrainConfig,
)
from spikestage.nn import SpikeClass

from oracles import naive_dead_zone, smoothed_energy


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def chain600():
    """Ten-minute recording, full train + quantize + deploy chain, timed."""
    t0 = time.perf_counter()
    rec_cfg = RecordingConfig(duration_s=600.0, seed=7)
    samples, annotations = signal.generate_recording(rec_cfg, SynthesisParams())
    samples_f = samples.astype(np.float64)
    dataset = tr.build_dataset(samples_f, annotations, rec_cfg.sample_rate_hz)
    train_part, test_part = tr.train_test_split(dataset, 0.20, seed=1)
    processed = tr.filter_outliers(tr.balance_classes(train_part, seed=1))
    model, _ = tr.train_mlp(
        processed, (40, 16, 7, 5, 4, 3), TrainConfig(ortho_lambda=0.01), seed=1
    )
    qmodel = nn.quantize(model, tr.dataset_arrays(processed)[0])
    events, stats = pl.run_pipeline(samples_f, qmodel)
    kept = an.apply_dead_zone(events, PostprocConfig(), rec_cfg.sample_rate_hz)
    post_ann = [a for a in annotations if a.timestamp > stats.converged_tick]
    cm = an.match_events(kept, post_ann, rec_cfg.sample_rate_hz, tolerance_ms=1.0)
    elapsed = time.perf_counter() - t0
    return {
        "rec_cfg": rec_cfg,
        "model": model,
        "qmodel": qmodel,
        "test_part": test_part,
        "deployed_cm": cm,
        "stats": stats,
        "elapsed_s": elapsed,
    }


def test_01_complexity_grid(capsys):
    expected = [86, 86, 181, 241, 378, 426, 761, 819, 1690]
    t0 = time.perf_counter()
    values = [tr.complexity(topology) for topology, _ in tr.TABLE3_GRID]
    elapsed = time.perf_counter() - t0
    ok = values == expected and elapsed < 1.0
    _report(capsys, "complexity-grid", ok, f"values={values} elapsed={elapsed:.4f}s")


def test_02_accuracy_formula(capsys):
    transcribed = an.ConfusionMatrix(
        np.array([[2550, 150, 300], [100, 4702, 50], [115, 33, 2000]])
    )
    cs = an.accuracy(transcribed, SpikeClass.CS)
    ss = an.accuracy(transcribed, SpikeClass.SS)
    example = an.ConfusionMatrix(np.array([[93, 7, 0], [5, 95, 0], [0, 0, 0]]))
    ex = an.accuracy(example, SpikeClass.CS)
    ok = (
        abs(cs - 0.9335) <= 0.0005
        and abs(ss - 0.9667) <= 0.0005
        and math.isclose(ex, 0.94, rel_tol=1e-12)
    )
    _report(capsys, "accuracy-formula", ok, f"cs={cs:.4f} ss={ss:.4f} example={ex:.4f}")


def test_03_end_to_end(capsys, chain600):
    cm = chain600["deployed_cm"]
    overall = an.overall_accuracy(cm)
    cs = an.accuracy(cm, SpikeClass.CS)
    ss = an.accuracy(cm, SpikeClass.SS)
    elapsed = chain600["elapsed_s"]
    ok = overall >= 0.95 and cs >= 0.90 and ss >= 0.90 and elapsed <= 600.0
    _report(
        capsys,
        "end-to-end",
        ok,
        f"overall={overall:.4f} cs={cs:.4f} ss={ss:.4f} elapsed={elapsed:.1f}s",
    )


def test_04_quantization_agreement(capsys, chain600):
    model, qmodel = chain600["model"], chain600["qmodel"]
    test_part = chain600["test_part"]
    X = np.stack([item.waveform for item in test_part])
    float_pred = nn.infer_float_batch(model, X.astype(np.float64)).argmax(axis=1)
    quant_pred = nn.infer_quantized_batch(qmodel, X).argmax(axis=1)
    agreement = float((float_pred == quant_pred).mean())

    # element-wise dequantization error bound, on the deployed model and
    # on freshly drawn random models
    def max_norm_err(m, qm):
        worst = 0.0
        for layer, qlayer in zip(m.layers, qm.layers):
            err = np.max(np.abs(qlayer.q_weights * qlayer.weight_scale - layer.weights))
            worst = max(worst, err / (qlayer.weight_scale / 2.0))
        return worst

    worst = max_norm_err(model, qmodel)
    rng = np.random.default_rng(44)
    for _ in range(10):
        sizes = [int(rng.integers(3, 9)), int(rng.integers(2, 7)), 3]
        layers = [
            nn.Layer(
                rng.normal(0.0, float(rng.uniform(0.05, 3.0)), size=(b, a)),
                rng.normal(0.0, 0.5, size=b),
                "relu" if i < 1 else "linear",
            )
            for i, (a, b) in enumerate(zip(sizes, sizes[1:]))
        ]
        m = nn.MlpModel(layers)
        qm = nn.quantize(m, rng.normal(0.0, 30.0, size=(20, sizes[0])))
        worst = max(worst, max_norm_err(m, qm))

    ok = agreement >= 0.98 and worst <= 1.0 + 1e-12
    _report(
        capsys,
        "quantization-agreement",
        ok,
        f"agreement={agreement:.4f} n={len(test_part)} max_err/halfscale={worst:.4f}",
    )


def test_05_energy_operator_equivalence(capsys):
    rng = np.random.default_rng(55)
    cfg = DetectorConfig(alpha_signal=1.0)  # identity smoothing exposes raw NEO
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(0.0, 50.0, size=64)
        psi = x[1:-1] ** 2 - x[:-2] * x[2:]
        state = det.DetectorState()
        stream = []
        for v in x:
            det.detector_step(state, cfg, float(v), update_threshold_enabled=True)
            stream.append(state.neo_raw)
        # the streaming operator emits each energy value one tick late
        worst = max(worst, float(np.max(np.abs(np.array(stream[2:]) - psi))))

    s = 7.3
    noise = rng.normal(0.0, 10.0, size=30_000)
    default = DetectorConfig()
    e1, e2 = smoothed_energy(noise, default), smoothed_energy(s * noise, default)
    neo_rel = float(np.max(np.abs(e2 - s * s * e1)) / np.max(np.abs(s * s * e1)))
    t1 = det.detector_trace(noise, default)
    t2 = det.detector_trace(s * noise, default)
    thr_rel = abs(t2.threshold - s * s * t1.threshold) / (s * s * t1.threshold)
    ok = (
        worst < 1e-9
        and neo_rel < 1e-9
        and thr_rel < 1e-9
        and t1.converged_tick == t2.converged_tick
    )
    _report(
        capsys,
        "energy-operator-equivalence",
        ok,
        f"stream_vs_batch={worst:.2e} scale_neo_rel={neo_rel:.2e} scale_thr_rel={thr_rel:.2e}",
    )


def _kink_margin(model, X):
    """Smallest |pre-activation| feeding a ReLU, over all samples."""
    acts = np.asarray(X, dtype=np.float64)
    margin = math.inf
    for layer in model.layers:
        pre = acts @ layer.weights.T + layer.biases
        if layer.activation == "relu":
            margin = min(margin, float(np.min(np.abs(pre))))
            acts = np.maximum(pre, 0.0)
        else:
            acts = pre
    return margin


def test_06_gradient_check(capsys):
    rng = np.random.default_rng(66)
    h = 1e-6
    worst = 0.0
    for i in range(20):
        n_in = int(rng.integers(3, 9))
        hidden = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(0, 3)))]
        topology = (n_in, *hidden, 3)
        lam = (0.0, 0.01, 0.001)[i % 3]
        model = tr.init_model(topology, rng)
        for layer in model.layers:
            layer.biases += rng.normal(0.1, 0.3, size=layer.biases.shape)
        # the loss is only differentiable away from ReLU kinks, so redraw
        # inputs that land a pre-activation within reach of the probe step
        for _ in range(50):
            X = rng.normal(size=(6, n_in))
            if _kink_margin(model, X) > 1e-3:
                break
        else:
            raise AssertionError(f"no kink-free inputs found for {topology}")
        y = rng.integers(0, 3, size=6)
        _, grads = tr.loss_and_grads(model, X, y, lam)
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
                    rel = abs(num - float(g[ix])) / max(1e-3, abs(num) + abs(float(g[ix])))
                    worst = max(worst, rel)
    ok = worst < 1e-5
    _report(capsys, "gradient-check", ok, f"networks=20 worst_rel={worst:.2e}")


def test_07_fsm_invariants(capsys, chain600):
    qmodel = chain600["qmodel"]
    rec_cfg = RecordingConfig(duration_s=41.0, seed=99)  # just over 1e6 ticks
    samples, _ = signal.generate_recording(rec_cfg, SynthesisParams())
    stream = samples.astype(np.float64)
    n = len(stream)

    p = pl.Pipeline(qmodel)
    step_events = []
    emission_ticks = []
    completed_captures = 0
    prev = p.fsm
    for tick, x in enumerate(stream):
        event = p.step(float(x))
        if prev is pl.FsmState.DETECTED and p.fsm is pl.FsmState.CLASSIFYING:
            completed_captures += 1
        if event is not None:
            step_events.append(event)
            emission_ticks.append(tick)
        prev = p.fsm

    vec_events, vec_stats = pl.run_pipeline(stream, qmodel)
    again_events, again_stats = pl.run_pipeline(stream, qmodel)

    ts = np.array([e.timestamp for e in step_events])
    checks = {
        "sample_count": n == 1_000_974,
        "step_equals_vectorized": step_events == vec_events
        and p.stats.to_dict() == vec_stats.to_dict(),
        "replay_deterministic": vec_events == again_events
        and vec_stats.to_dict() == again_stats.to_dict(),
        "forty_ticks_per_capture": p.stats.detected_ticks - 40 * completed_captures
        in range(0, 40),
        "invocations_match_captures": completed_captures - p.stats.classify_invocations
        in (0, 1),
        "events_only_at_classification": all(
            tick == e.timestamp + 41 for tick, e in zip(emission_ticks, step_events)
        ),
        "timestamps_strictly_increasing": bool(np.all(np.diff(ts) > 0)),
        "busy_spacing": bool(np.all(np.diff(ts) >= 42)),
        "bounded_by_stream": bool(np.all(ts + 41 <= n - 1)),
        "byte_exact_replay": store.pack_words(
            [store.EventRecord(e.timestamp, e.klass) for e in vec_events if e.klass is not SpikeClass.F]
        ).tobytes()
        == store.pack_words(
            [store.EventRecord(e.timestamp, e.klass) for e in again_events if e.klass is not SpikeClass.F]
        ).tobytes(),
    }
    failed = [name for name, passed in checks.items() if not passed]
    ok = not failed
    _report(
        capsys,
        "fsm-invariants",
        ok,
        f"ticks={n} detections={p.stats.detections} events={len(step_events)}"
        + (f" failed={failed}" if failed else ""),
    )


def test_08_resource_model(capsys, cli_run):
    required = budget.storage_required(86400.0, 100.0)
    capacity = 32 * 2**20
    model = ResourceModel()
    power = budget.power_breakdown(model, RecordingConfig().sample_rate_hz)
    classifier_uw = power["classifier_w"] * 1e6
    days = budget.battery_life_days(model, power["total_w"])

    voltage_printed = cli_run("report")["assumptions"]["battery_voltage_v"] == 1.5

    ok = (
        required == 34_560_000
        and abs(required / capacity - 1.0) <= 0.05
        and round(classifier_uw, 1) == 31.1
        and math.isclose(power["classifier_w"], 3.11e-5, rel_tol=1e-12)
        and 3.0 <= days <= 6.0
        and voltage_printed
    )
    _report(
        capsys,
        "resource-model",
        ok,
        f"storage={required}B vs_capacity={required / capacity:.4f} "
        f"classifier={classifier_uw:.1f}uW battery={days:.2f}d voltage_printed={voltage_printed}",
    )


def test_09_dead_zone_rules(capsys):
    cfg = PostprocConfig()
    fs = 24414.0
    zone = cfg.dead_zone_ms * fs / 1000.0

    rng = np.random.default_rng(9)
    streams = 0
    mismatches = 0
    not_idempotent = 0
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        ts = np.unique(rng.integers(0, 20_000, size=n))
        events = [
            store.EventRecord(int(t), SpikeClass(int(rng.integers(0, 3)))) for t in ts
        ]
        kept = an.apply_dead_zone(events, cfg, fs)
        if kept != naive_dead_zone(events, zone):
            mismatches += 1
        if an.apply_dead_zone(kept, cfg, fs) != kept:
            not_idempotent += 1
        streams += 1

    # boundary rule: the zone is open at its end, so the first tick at or
    # past timestamp + zone survives and the last tick inside is dropped
    past = an.apply_dead_zone(
        [store.EventRecord(0, SpikeClass.SS), store.EventRecord(math.ceil(zone), SpikeClass.SS)],
        cfg,
        fs,
    )
    inside = an.apply_dead_zone(
        [store.EventRecord(0, SpikeClass.SS), store.EventRecord(int(zone), SpikeClass.SS)],
        cfg,
        fs,
    )
    ok = mismatches == 0 and not_idempotent == 0 and len(past) == 2 and len(inside) == 1
    _report(
        capsys,
        "dead-zone",
        ok,
        f"streams={streams} mismatches={mismatches} non_idempotent={not_idempotent}",
    )


def test_10_event_records(capsys, tmp_path):
    rng = np.random.default_rng(100)
    ts = rng.integers(0, 2**31, size=1_000_000)
    bits = rng.integers(0, 2, size=1_000_000)
    events = [
        store.EventRecord(int(t), SpikeClass.CS if b else SpikeClass.SS)
        for t, b in zip(ts, bits)
    ]
    words = store.pack_words(events)
    back = store.unpack_words(words)
    identity = store.pack_words(back).tobytes() == words.tobytes()
    spot = all(a == b for a, b in zip(events[:1000], back[:1000]))
    examples = store.pack_words(
        [store.EventRecord(1, SpikeClass.CS), store.EventRecord(5, SpikeClass.SS)]
    ).tolist() == [0x80000001, 5]

    unique_ts = np.unique(ts)[:100_000]
    log_events = [
        store.EventRecord(int(t), SpikeClass.CS if i % 7 == 0 else SpikeClass.SS)
        for i, t in enumerate(unique_ts)
    ]
    path_a, path_b = tmp_path / "a.spkevt", tmp_path / "b.spkevt"
    store.write_event_log(path_a, log_events, 24414.0)
    loaded, rate = store.read_event_log(path_a)
    store.write_event_log(path_b, loaded, rate)
    file_roundtrip = loaded == log_events and path_a.read_bytes() == path_b.read_bytes()

    ok = identity and spot and examples and file_roundtrip
    _report(
        capsys,
        "event-records",
        ok,
        f"packed={len(events)} identity={identity} file_events={len(log_events)} "
        f"file_roundtrip={file_roundtrip}",
    )
