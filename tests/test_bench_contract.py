"""The benchmark in perfbench/ wraps and calls these program names.

perfbench/spans.py patches the functions in its TARGETS table, and the
benchmark's oracle steps Pipeline(model).run and reads its stats.  Its
workers also build event records, dataset arrays and search configs, and
read fields of dataset rows and of search results.  A change that renames
or removes one of them fails here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from spikestage import nn, pipeline, store, train
from spikestage.nn import SpikeClass

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_pipeline_oracle_interface():
    layer = nn.QuantizedLayer(
        np.zeros((3, 40), dtype=np.int8), np.zeros(3, dtype=np.int32), "linear", 1.0, 1.0, 1.0
    )
    reference = pipeline.Pipeline(nn.QuantizedMlpModel([layer]))
    assert reference.run(np.zeros(10)) == []
    assert reference.stats.to_dict()["total_ticks"] == 10


def test_worker_names(tmp_path):
    assert store.EventRecord(7, SpikeClass.SS) == (7, SpikeClass.SS)

    rows = [train.LabeledWaveform(np.full(40, k, dtype=np.int8), k, 10 + k) for k in SpikeClass]
    train.save_dataset(tmp_path / "ds.jsonl", rows)
    for k, row in zip(SpikeClass, train.load_dataset(tmp_path / "ds.jsonl")):
        assert row.label is k and row.origin_index == 10 + k
        assert np.array_equal(row.waveform, np.full(40, k))
    X, y = train.dataset_arrays(rows)
    assert X.shape == (3, 40) and y.tolist() == [0, 1, 2]

    dse_cfg = train.DseConfig(folds=2)
    assert dse_cfg.folds == 2 and dse_cfg.cs_floor == 0.90
    stats = train.ClassStats(0.99, 0.0, 0.99, 0.99, [0.99, 0.99])
    result = train.DseResult([40, 2, 3], 0.01, 86, {k: stats for k in SpikeClass})
    selected = train.dse_select([result], dse_cfg.cs_floor)
    assert (selected.topology, selected.ortho_lambda, selected.complexity) == ([40, 2, 3], 0.01, 86)
    assert selected.per_class[SpikeClass.CS].fold_values == [0.99, 0.99]
