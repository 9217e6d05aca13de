"""Workload definitions and the metric tables of the spikestage benchmark.

Standard library only: the orchestrator (run.py) imports this module without
importing the program under test, so its own memory stays small and the
children it spawns start from a clean high-water mark.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# The fixed replay model: the README recipe (seed-7 ten-minute recording,
# 40-16-7-5-4-3, training seed 1, quantized on the whole dataset), built by
# make_model.py.  Its hash is checked before every use so that a change to the
# train layer cannot move replay numbers.
MODEL_FILE = "data/model_q.json"
MODEL_SHA256 = "c0e9e1622c8a1895a5b13e5ce1e8d3bcb2bf4678a10ddef42095096c74b78385"

PAPER_TOPOLOGY = (40, 16, 7, 5, 4, 3)

# run_pipeline must agree with stepping Pipeline tick by tick on a prefix that
# runs this far past the tick where the threshold converged.
ORACLE_TICKS_AFTER_CONVERGENCE = 48828  # 2 s at 24.414 kHz


@dataclass(frozen=True)
class Recording:
    """count generate_recording calls of duration_s each.

    seed None means the --seed argument; recording i of count is generated
    with seed * count + i, so every seed gives its own independent set.
    """

    duration_s: float
    synthesis: dict = field(default_factory=dict)  # SynthesisParams overrides
    seed: int | None = None
    count: int = 1

    def seeds(self, seed: int) -> list[int]:
        base = seed if self.seed is None else self.seed
        return [base * self.count + i for i in range(self.count)]


@dataclass(frozen=True)
class TrainStory:
    """Dataset -> train -> quantize -> evaluate, then a cross-validated search.

    seed None means the --seed argument seeds the split, balancing, weight
    initialisation and the search folds.
    """

    recording: Recording
    candidates: tuple  # (topology, ortho_lambda) pairs for run_dse
    folds: int
    seed: int | None = None
    topology: tuple = PAPER_TOPOLOGY


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    replay: Recording
    train: TrainStory
    primary: str  # "replay" or "train": the path the --seconds budget goes to
    held_out_seed: int  # kept out of development; recheck gain claims on it


PAPER_RECORDING = Recording(duration_s=600.0, seed=7)

# The train path at small scale.  Replay workloads run it so that every
# workload reports every end-to-end metric.  Fully fixed, so its accuracy and
# search results repeat exactly.  Two candidates, so that two search workers
# have a task each.
SMALL_STORY = TrainStory(
    recording=Recording(duration_s=120.0, seed=7),
    candidates=(((40, 2, 3), 0.01), (PAPER_TOPOLOGY, 0.01)),
    folds=2,
    seed=1,
)

# A table3 subset spanning shallow and deep nets.
DSE_SUBSET = (
    ((40, 2, 3), 0.001),
    ((40, 2, 3), 0.01),
    ((40, 8, 8, 3, 3, 3), 0.001),
    (PAPER_TOPOLOGY, 0.01),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="replay-sparse",
            why=(
                "quiet channel, 5 x 120 s at 5 SS/s and 0.5 CS/s: the detector does "
                "most of the work and the per-event layers almost none"
            ),
            replay=Recording(duration_s=120.0, synthesis={"ss_rate_hz": 5.0, "cs_rate_hz": 0.5}, count=5),
            train=SMALL_STORY,
            primary="replay",
            held_out_seed=1009,
        ),
        Workload(
            name="replay-dense",
            why=(
                "busy multi-unit channel, 5 x 60 s with about 14k detections each: the "
                "per-event paths (scan, event list, pack/unpack, dead zone, matching) dominate"
            ),
            replay=Recording(
                duration_s=60.0,
                count=5,
                synthesis={
                    "ss_rate_hz": 400.0,
                    "cs_rate_hz": 20.0,
                    "min_interval_ms": 2.0,
                    "noise_sigma": 15.0,
                },
            ),
            train=SMALL_STORY,
            primary="replay",
            held_out_seed=2003,
        ),
        Workload(
            name="train-dse",
            why=(
                "README recipe on the seed-7 paper recording: dataset, train, quantize, "
                "evaluate, then a 5-fold search over four table3 candidates"
            ),
            replay=PAPER_RECORDING,
            train=TrainStory(recording=PAPER_RECORDING, candidates=DSE_SUBSET, folds=5),
            primary="train",
            held_out_seed=3001,
        ),
    )
}

QUICK_REPLAY_S = 5.0
QUICK_STORY = TrainStory(
    recording=Recording(duration_s=20.0, seed=7),
    candidates=((PAPER_TOPOLOGY, 0.01),),
    folds=2,
    seed=1,
)


def quick(w: Workload) -> Workload:
    """A few seconds of audio and a one-candidate, two-fold search."""
    story = replace(QUICK_STORY, seed=w.train.seed)
    if w.primary == "replay":
        return replace(w, replay=replace(w.replay, duration_s=QUICK_REPLAY_S), train=story)
    return replace(w, replay=story.recording, train=story)


END_TO_END = {
    "setup_s": "s",
    "startup_s": "s",
    "replay_x_realtime": "x",
    "replay_peak_rss_b_per_sample": "B/sample",
    "replay_accuracy": "ratio",
    "train_s": "s",
    "dse_s": "s",
    "train_test_accuracy": "ratio",
    "success_rate": "ratio",
}

PER_LAYER = {
    "signal.generate_s": "s",
    "signal.read_recording_s": "s",
    "signal.read_annotations_s": "s",
    "detector.smooth_s": "s",
    "detector.neo_s": "s",
    "detector.converge_s": "s",
    "detector.trace_s": "s",
    "detector.candidates_s": "s",
    "detector.ns_per_sample": "ns",
    "detector.candidates": "count",
    "detector.converged_tick": "count",
    "pipeline.run_s": "s",
    "pipeline.self_s": "s",
    "pipeline.capture_s": "s",
    "pipeline.honored": "count",
    "pipeline.classified": "count",
    "pipeline.events_emitted": "count",
    "pipeline.honored_per_candidate": "ratio",
    "nn.load_model_s": "s",
    "nn.infer_s": "s",
    "nn.us_per_capture": "us",
    "nn.quantize_s": "s",
    "store.pack_s": "s",
    "store.write_s": "s",
    "store.unpack_s": "s",
    "store.read_s": "s",
    "store.events": "count",
    "store.bytes": "B",
    "analysis.dead_zone_s": "s",
    "analysis.match_s": "s",
    "analysis.report_s": "s",
    "analysis.removed_by_dead_zone": "count",
    "analysis.matched": "count",
    "train.build_dataset_s": "s",
    "train.save_dataset_s": "s",
    "train.load_dataset_s": "s",
    "train.balance_filter_s": "s",
    "train.train_mlp_s": "s",
    "train.steps": "count",
    "train.step_us": "us",
    "train.evaluate_s": "s",
    "train.cv_fold_s": "s",
    "train.dse_candidate_s": "s",
    "train.dse_candidates_evaluated": "count",
    "train.dse_parallel_s": "s",
    "cli.import_s": "s",
    "cli.report_s": "s",
    "trace.overhead_s": "s",
}
