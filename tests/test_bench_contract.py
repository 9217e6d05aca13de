"""The benchmark in perfbench/ wraps and calls these program names.

perfbench/spans.py patches the functions in its TARGETS table, and the
benchmark's oracle steps Pipeline(model).run and reads its stats.  A change
that renames or removes one of them fails here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from spikestage import nn, pipeline

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
