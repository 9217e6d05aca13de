"""The benchmark in perfbench/ wraps and calls these program names.

perfbench/spans.py patches the functions in its TARGETS table, and the
benchmark's oracle steps Pipeline(model).run and reads its stats.  Its
workers also build event records, dataset arrays and search configs, and
read fields of dataset rows and of search results.  A change that renames
or removes one of them fails here rather than in a benchmark run.

The per-layer times are only as good as the call boundaries: a layer whose
function is inlined into its caller silently reads 0, so a traced replay
chain here must see every span the benchmark reports for it.
"""

import importlib.util
from pathlib import Path

import numpy as np

from spikestage import analysis, config, nn, pipeline, signal, store, train
from spikestage.nn import SpikeClass

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_targets_resolve():
    spans = load_spans()
    assert spans.TARGETS
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_config_names_are_the_config_classes():
    # the workers build sections through these module paths
    assert signal.RecordingConfig is config.RecordingConfig
    assert signal.SynthesisParams is config.SynthesisParams
    assert train.TrainConfig is config.TrainConfig
    assert train.DseConfig is config.DseConfig
    assert analysis.PostprocConfig is config.PostprocConfig


def test_pipeline_oracle_interface():
    layer = nn.QuantizedLayer(
        np.zeros((3, 40), dtype=np.int8), np.zeros(3, dtype=np.int32), "linear", 1.0, 1.0, 1.0
    )
    reference = pipeline.Pipeline(nn.QuantizedMlpModel([layer]))
    assert reference.run(np.zeros(10)) == []
    assert reference.stats.to_dict()["total_ticks"] == 10


def test_worker_names(tmp_path):
    assert store.EventRecord(7, SpikeClass.SS) == (7, SpikeClass.SS)

    built = train.Dataset(np.repeat(np.arange(3), 40).reshape(3, 40), list(SpikeClass), [10, 11, 12])
    train.save_dataset(tmp_path / "ds.jsonl", built)
    loaded = train.load_dataset(tmp_path / "ds.jsonl")
    assert len(loaded) == len(built) == 3
    for k, a, b in zip(SpikeClass, built, loaded):
        assert a.label is b.label is k and a.origin_index == b.origin_index == 10 + k
        assert np.array_equal(a.waveform, b.waveform) and np.array_equal(b.waveform, np.full(40, k))
    X, y = train.dataset_arrays(loaded)
    assert X.shape == (3, 40) and y.tolist() == [0, 1, 2]

    dse_cfg = train.DseConfig(folds=2)
    assert dse_cfg.folds == 2 and dse_cfg.cs_floor == 0.90
    stats = train.ClassStats(0.99, 0.0, 0.99, 0.99, [0.99, 0.99])
    result = train.DseResult([40, 2, 3], 0.01, 86, {k: stats for k in SpikeClass})
    selected = train.dse_select([result], dse_cfg.cs_floor)
    assert (selected.topology, selected.ortho_lambda, selected.complexity) == ([40, 2, 3], 0.01, 86)
    assert selected.per_class[SpikeClass.CS].fold_values == [0.99, 0.99]


def test_committed_model_round_trips_to_its_bytes(tmp_path):
    # the replay workloads load this file; saving what was loaded must give
    # the committed bytes, so a codec change cannot drift the deployed model
    committed = PERFBENCH / "data" / "model_q.json"
    model = nn.load_model(committed)
    assert isinstance(model, nn.QuantizedMlpModel)
    nn.save_model(tmp_path / "model_q.json", model)
    assert (tmp_path / "model_q.json").read_bytes() == committed.read_bytes()


# every span of the replay chain, as perfbench's replay layers read them
REPLAY_SPANS = (
    "signal.read_recording",
    "signal.read_annotations",
    "detector.smooth",
    "detector.neo",
    "detector.trace",
    "detector.candidates",
    "pipeline.run",
    "pipeline.capture",
    "nn.load_model",
    "nn.infer",
    "store.pack",
    "store.write",
    "store.unpack",
    "store.read",
    "analysis.dead_zone",
    "analysis.match",
    "analysis.report",
)


def test_replay_chain_spans_fire(tmp_path):
    cfg = signal.RecordingConfig(duration_s=3.0, seed=5)
    samples, annotations = signal.generate_recording(cfg, signal.SynthesisParams())
    signal.write_recording(tmp_path / "r.spkr", samples, cfg)
    signal.write_annotations(tmp_path / "a.csv", annotations)
    # zero weights and the largest bias on SS: every capture is stored as SS
    layer = nn.QuantizedLayer(
        np.zeros((3, 40), dtype=np.int8), np.array([0, 1, 0], dtype=np.int32), "linear",
        1.0, 1.0, 1.0,
    )
    nn.save_model(tmp_path / "q.json", nn.QuantizedMlpModel([layer]))

    spans = load_spans()
    with spans.traced(spans.Spans()) as recorder:
        samples, cfg = signal.read_recording(tmp_path / "r.spkr")
        model = nn.load_model(tmp_path / "q.json")
        events, _ = pipeline.run_pipeline(samples, model)
        pipeline.capture_detections(samples)
        store.write_event_log(tmp_path / "e.spkevt", events, cfg.sample_rate_hz)
        logged, rate = store.read_event_log(tmp_path / "e.spkevt")
        kept = analysis.apply_dead_zone(logged, analysis.PostprocConfig(), rate)
        cm = analysis.match_events(kept, signal.read_annotations(tmp_path / "a.csv"), rate)
        analysis.metrics_report(cm)
    totals = recorder.take()
    assert events and logged == events and cm.counts[1, 1] > 0

    calls = {name: spans.calls(totals, name) for name in REPLAY_SPANS}
    assert all(calls.values()), calls
    # nested layers are seen through their callers, once per call
    assert calls["detector.trace"] == 2  # run_pipeline and capture_detections
    assert calls["detector.smooth"] == 2 * calls["detector.trace"]
    assert calls["detector.neo"] == calls["detector.trace"]
    assert calls["detector.candidates"] == calls["detector.trace"]
    assert calls["nn.infer"] == calls["pipeline.run"] == 1
    assert calls["store.pack"] == calls["store.write"] == 1
    assert calls["store.unpack"] == calls["store.read"] == 1
