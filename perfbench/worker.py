"""In-process half of one benchmark run.

Sets up the workload's inputs, times the replay chain, the train story and
fresh start-up children, checks their outputs, and prints one JSON document
as the last line of its standard output.  run.py starts it as a fresh
process and adds the peak-memory child, which needs a small parent.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --workdir DIR [--quick]

The program is imported from src/ through PYTHONPATH, which run.py sets.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from spikestage import analysis, nn, pipeline, signal, store, train

import spans as sp
import spec

HERE = Path(__file__).resolve().parent
EVENT_LOG_HEADER_BYTES = 12  # the words follow the store's fixed header

# Repetitions, (full run, quick run).  Set-up runs SETUP_REPS times; the
# workload's primary path repeats at least MIN_REPS times (keyed by the path)
# and until its repetitions have taken --seconds; the other path runs
# SIDE_REPS times (keyed the same way), and the first STARTUP_REPS of those
# also start a start-up child.
SETUP_REPS = (2, 1)
MIN_REPS = {"replay": (4, 1), "train": (2, 1)}
SIDE_REPS = {"replay": (6, 1), "train": (4, 1)}
STARTUP_REPS = (3, 1)


@dataclass(frozen=True)
class Files:
    rec: Path
    ann: Path


class Checks:
    """Output checks; each disagreement counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def op(self) -> None:
        self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def same(self, key: str, value, seen: dict) -> None:
        """value must equal the first value recorded under key in this run."""
        if key in seen:
            self.check(seen[key] == value, f"{key} differs between repetitions")
        else:
            seen[key] = value


def sha256_file(path: Path, skip: int = 0) -> str:
    with open(path, "rb") as fh:
        fh.seek(skip)
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# Setup


def input_files(w: spec.Workload, workdir: Path) -> dict[str, list[Files]]:
    """The replay recordings, then the train story's (shared when identical)."""
    files = {
        "replay": [Files(workdir / f"replay{i}.spkr", workdir / f"replay{i}.csv") for i in range(w.replay.count)]
    }
    files["train"] = (
        files["replay"]
        if w.train.recording == w.replay
        else [Files(workdir / "train.spkr", workdir / "train.csv")]
    )
    return files


def setup_once(w: spec.Workload, seed: int, files: dict[str, list[Files]]) -> None:
    for role, rec in (("replay", w.replay), ("train", w.train.recording)):
        if role == "train" and files["train"] is files["replay"]:
            continue
        for f, rec_seed in zip(files[role], rec.seeds(seed)):
            cfg = signal.RecordingConfig(duration_s=rec.duration_s, seed=rec_seed)
            samples, annotations = signal.generate_recording(cfg, signal.SynthesisParams(**rec.synthesis))
            signal.write_recording(f.rec, samples, cfg)
            signal.write_annotations(f.ann, annotations)


# ---------------------------------------------------------------------------
# Replay chain: .spkr recording -> event log -> scored metrics


@dataclass
class Replay:
    samples: int
    audio_s: float
    stats: dict
    stored: list
    logged: list
    kept: list
    annotations: int
    counts: np.ndarray
    report: dict


def replay_chain(files: Files, model_path: Path, log_path: Path) -> Replay:
    samples, cfg = signal.read_recording(files.rec)
    model = nn.load_model(model_path)
    events, stats = pipeline.run_pipeline(samples, model)
    stored = [store.EventRecord(e.timestamp, e.klass) for e in events if e.klass is not nn.SpikeClass.F]
    store.write_event_log(log_path, stored, cfg.sample_rate_hz)
    logged, rate = store.read_event_log(log_path)
    kept = analysis.apply_dead_zone(logged, analysis.PostprocConfig(), rate)
    annotations = signal.read_annotations(files.ann)
    cm = analysis.match_events(kept, annotations, rate)
    report = analysis.metrics_report(cm)
    return Replay(
        samples=len(samples),
        audio_s=len(samples) / cfg.sample_rate_hz,
        stats=stats.to_dict(),
        stored=stored,
        logged=logged,
        kept=kept,
        annotations=len(annotations),
        counts=cm.counts,
        report=report,
    )


def check_replay(r: Replay, log_path: Path, checks: Checks, seen: dict, key: str) -> dict:
    checks.check(r.logged == r.stored, "event log does not round-trip")
    matched = int(r.counts[:2, :2].sum())
    missed = int(r.counts[:2, 2].sum())
    spurious = int(r.counts[2, :].sum())
    checks.check(
        matched + missed == r.annotations and matched + spurious == len(r.kept),
        "match_events accounting does not hold",
    )
    sim = {
        "run_stats": r.stats,
        "event_words_sha256": sha256_file(log_path, skip=EVENT_LOG_HEADER_BYTES),
        "events_stored": len(r.stored),
        "events_after_dead_zone": len(r.kept),
        "annotations": r.annotations,
        "matched": matched,
        "missed": missed,
        "spurious": spurious,
        "confusion": r.counts.tolist(),
        "overall_accuracy": r.report["overall_accuracy"],
    }
    checks.same(key, sim, seen)
    return sim


def check_oracle(files: Files, model_path: Path, converged_tick, checks: Checks) -> dict:
    """run_pipeline must equal stepping Pipeline tick by tick on a prefix."""
    samples, _ = signal.read_recording(files.rec)
    model = nn.load_model(model_path)
    n = min(len(samples), (converged_tick or 0) + spec.ORACLE_TICKS_AFTER_CONVERGENCE)
    prefix = samples[:n]
    events, stats = pipeline.run_pipeline(prefix, model)
    reference = pipeline.Pipeline(model)
    ref_events = reference.run(prefix)
    checks.check(
        events == ref_events and stats.to_dict() == reference.stats.to_dict(),
        "run_pipeline disagrees with Pipeline.step",
    )
    return {"ticks": n, "events": len(ref_events)}


def replay_layers(r: Replay, tot: dict, log_path: Path) -> dict:
    s = sp.seconds
    trace_s = s(tot, "detector.trace")
    candidates = tot["detector.candidates"][2] if "detector.candidates" in tot else 0
    classified = r.stats["classify_invocations"]
    infer_s = s(tot, "nn.infer")
    honored = r.stats["detections"]
    return {
        "signal.read_recording_s": s(tot, "signal.read_recording"),
        "signal.read_annotations_s": s(tot, "signal.read_annotations"),
        "detector.smooth_s": s(tot, "detector.smooth"),
        "detector.neo_s": s(tot, "detector.neo"),
        "detector.converge_s": trace_s - s(tot, "detector.smooth") - s(tot, "detector.neo"),
        "detector.trace_s": trace_s,
        "detector.candidates_s": s(tot, "detector.candidates"),
        "detector.ns_per_sample": trace_s / r.samples * 1e9,
        "detector.candidates": candidates,
        "detector.converged_tick": -1 if r.stats["converged_tick"] is None else r.stats["converged_tick"],
        "pipeline.run_s": s(tot, "pipeline.run"),
        "pipeline.self_s": s(tot, "pipeline.run") - trace_s - s(tot, "detector.candidates") - infer_s,
        "pipeline.honored": honored,
        "pipeline.classified": classified,
        "pipeline.events_emitted": r.stats["events_emitted"],
        "pipeline.honored_per_candidate": honored / candidates if candidates else 0.0,
        "nn.load_model_s": s(tot, "nn.load_model"),
        "nn.infer_s": infer_s,
        "nn.us_per_capture": infer_s / classified * 1e6 if classified else 0.0,
        "store.pack_s": s(tot, "store.pack"),
        "store.write_s": s(tot, "store.write"),
        "store.unpack_s": s(tot, "store.unpack"),
        "store.read_s": s(tot, "store.read"),
        "store.events": len(r.stored),
        "store.bytes": log_path.stat().st_size,
        "analysis.dead_zone_s": s(tot, "analysis.dead_zone"),
        "analysis.match_s": s(tot, "analysis.match"),
        "analysis.report_s": s(tot, "analysis.report"),
        "analysis.removed_by_dead_zone": len(r.logged) - len(r.kept),
        "analysis.matched": int(r.counts[:2, :2].sum()),
    }


def capture_seconds(files: Files, spans: sp.Spans) -> float:
    """capture_detections minus its detector pass: honored scan plus gather."""
    samples, _ = signal.read_recording(files.rec)
    spans.take()
    with sp.traced(spans):
        pipeline.capture_detections(samples)
    tot = spans.take()
    return sp.seconds(tot, "pipeline.capture") - sp.seconds(tot, "detector.trace")


# ---------------------------------------------------------------------------
# Train story: dataset -> train -> quantize -> evaluate, then the search


@dataclass
class Trained:
    built: list
    dataset: list
    train_size: int
    test_size: int
    epochs: int
    qmodel: nn.QuantizedMlpModel
    cm: analysis.ConfusionMatrix

    @property
    def accuracy(self) -> float:
        return analysis.overall_accuracy(self.cm)


def train_chain(files: Files, story: spec.TrainStory, seed: int, ds_path: Path) -> Trained:
    samples, cfg = signal.read_recording(files.rec)
    annotations = signal.read_annotations(files.ann)
    built = train.build_dataset(samples, annotations, cfg.sample_rate_hz)
    del samples
    train.save_dataset(ds_path, built)
    dataset = train.load_dataset(ds_path)
    tcfg = train.TrainConfig()
    train_part, test_part = train.train_test_split(dataset, tcfg.test_fraction, seed)
    processed = train.filter_outliers(train.balance_classes(train_part, seed))
    model, log = train.train_mlp(processed, story.topology, tcfg, seed=seed)
    qmodel = nn.quantize(model, train.dataset_arrays(dataset)[0])
    cm = train.evaluate(qmodel, test_part)
    return Trained(built, dataset, len(processed), len(test_part), len(log.entries), qmodel, cm)


def check_train(t: Trained, checks: Checks, seen: dict) -> dict:
    checks.check(
        len(t.built) == len(t.dataset)
        and all(
            a.label is b.label and a.origin_index == b.origin_index and np.array_equal(a.waveform, b.waveform)
            for a, b in zip(t.built, t.dataset)
        ),
        "dataset does not round-trip through save/load",
    )
    checks.check(t.cm.total == t.test_size, "evaluate does not count every test waveform")
    digest = hashlib.sha256()
    for layer in t.qmodel.layers:
        digest.update(layer.q_weights.tobytes())
        digest.update(layer.q_biases.tobytes())
        digest.update(np.array([layer.input_scale, layer.weight_scale, layer.output_scale]).tobytes())
    sim = {
        "dataset": len(t.dataset),
        "dataset_by_class": {k.name: sum(1 for d in t.dataset if d.label is k) for k in nn.SpikeClass},
        "train_size": t.train_size,
        "test_size": t.test_size,
        "epochs_run": t.epochs,
        "quantized_model_sha256": digest.hexdigest(),
        "test_confusion": t.cm.counts.tolist(),
        "test_overall_accuracy": t.accuracy,
    }
    checks.same("train", sim, seen)
    return sim


def train_layers(tot: dict) -> dict:
    s = sp.seconds
    steps = sp.calls(tot, "train.step")
    mlp_s = s(tot, "train.train_mlp")
    return {
        "train.build_dataset_s": s(tot, "train.build_dataset"),
        "train.save_dataset_s": s(tot, "train.save_dataset"),
        "train.load_dataset_s": s(tot, "train.load_dataset"),
        "train.balance_filter_s": s(tot, "train.balance_filter"),
        "train.train_mlp_s": mlp_s,
        "train.steps": steps,
        "train.step_us": mlp_s / steps * 1e6 if steps else 0.0,
        "train.evaluate_s": s(tot, "train.evaluate"),
        "nn.quantize_s": s(tot, "nn.quantize"),
    }


def run_search(dataset: list, story: spec.TrainStory, seed: int, jobs: int) -> dict:
    dse_cfg = train.DseConfig(folds=story.folds)
    results = train.run_dse(dataset, list(story.candidates), train.TrainConfig(), dse_cfg, seed=seed, jobs=jobs)
    selected = train.dse_select(results, dse_cfg.cs_floor)
    return {
        "selected": None if selected is None else [list(selected.topology), selected.ortho_lambda],
        "results": [
            [list(r.topology), r.ortho_lambda, {k.name: v.fold_values for k, v in r.per_class.items()}]
            for r in results
        ],
    }


def search_layers(tot: dict, folds: int) -> dict:
    cv_s = sp.seconds(tot, "train.cross_validate")
    n = sp.calls(tot, "train.cross_validate")
    return {
        "train.cv_fold_s": cv_s / (n * folds) if n else 0.0,
        "train.dse_candidate_s": cv_s / n if n else 0.0,
        "train.dse_candidates_evaluated": n,
    }


# ---------------------------------------------------------------------------
# One run


def user_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def measure(fn, spans: sp.Spans | None):
    """User CPU time of fn() and its result; with spans, also the layer totals.

    User time, because the system time of the same chain is mostly page
    faults on numpy's large arrays, and their cost moved by up to 3x between
    repetitions on a shared VM (most after the search's forked workers, whose
    copy-on-write marks the parent's pages).  Every repetition starts from a
    collected heap: objects left over from an earlier repetition would make
    the collector's passes inside this one longer.
    """
    gc.collect()
    if spans is None:
        t0 = user_s()
        out = fn()
        return user_s() - t0, out, None
    with sp.traced(spans):
        t0 = user_s()
        out = fn()
        cpu = user_s() - t0
    return cpu, out, spans.take()


def median_rows(rows: list[dict]) -> dict:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]} if rows else {}


def children_user_s() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime


def startup_once() -> tuple[float, dict]:
    """User CPU time of a fresh interpreter importing the CLI and running `report`."""
    before = children_user_s()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "startup"], stdout=subprocess.PIPE, timeout=60, check=True
    )
    return children_user_s() - before, json.loads(proc.stdout.decode().strip().splitlines()[-1])


def rep_total(t) -> float:
    """User seconds of one repetition; a replay repetition lists one per recording."""
    return sum(t) if isinstance(t, list) else t


def run(w: spec.Workload, seed: int, seconds: float, trace: bool, quick: bool, workdir: Path) -> dict:
    q = 1 if quick else 0
    checks = Checks()
    seen: dict = {}
    spans = sp.Spans()
    tracer = spans if trace else None
    files = input_files(w, workdir)
    model_path = HERE / spec.MODEL_FILE
    log_path = workdir / "events.spkevt"
    ds_path = workdir / "dataset.jsonl"
    train_seed = seed if w.train.seed is None else w.train.seed

    if sha256_file(model_path) != spec.MODEL_SHA256:
        raise SystemExit(f"{model_path}: does not match its recorded sha256")

    # Set-up: produce the inputs several times; the last copy is used.
    setup_times, generate = [], []
    for _ in range(SETUP_REPS[q]):
        cpu, _, tot = measure(lambda: setup_once(w, seed, files), tracer)
        setup_times.append(cpu)
        if tot is not None:
            generate.append(sp.seconds(tot, "signal.generate"))
        checks.op()
    inputs_sha = {
        role: [{"recording": sha256_file(f.rec), "annotations": sha256_file(f.ann)} for f in fs]
        for role, fs in files.items()
    }

    times: dict[str, list] = {k: [] for k in ("replay", "train", "dse", "dse_parallel", "startup", "traced")}
    rows: dict[str, list] = {k: [] for k in ("replay", "train", "search", "startup")}
    last: dict = {}

    def replay_rep(traced: bool) -> list[float]:
        """Replays every recording once; returns the user seconds of each."""
        out = []
        last["replay"] = []
        for i, f in enumerate(files["replay"]):
            cpu, r, tot = measure(lambda: replay_chain(f, model_path, log_path), spans if traced else None)
            checks.op()
            sim = check_replay(r, log_path, checks, seen, f"replay[{i}]")
            if tot is not None:
                row = replay_layers(r, tot, log_path)
                row["pipeline.capture_s"] = capture_seconds(f, spans)
                rows["replay"].append(row)
            # Keep the figures, not the event lists, past this recording.
            last["replay"].append((r.audio_s, r.report["overall_accuracy"], sim))
            out.append(cpu)
            del r
        return out

    def train_rep(traced: bool) -> float:
        last["train"] = None
        cpu, t, tot = measure(
            lambda: train_chain(files["train"][0], w.train, train_seed, ds_path), spans if traced else None
        )
        checks.op()
        sim = check_train(t, checks, seen)
        if tot is not None:
            rows["train"].append(train_layers(tot))
        last["train"] = (t, sim)
        return cpu

    def search_rep(traced: bool) -> None:
        dataset = last["train"][0].dataset
        cpu, serial, tot = measure(lambda: run_search(dataset, w.train, train_seed, 1), spans if traced else None)
        checks.op()
        checks.same("search", serial, seen)
        last["search"] = serial
        if tot is not None:
            rows["search"].append(search_layers(tot, w.train.folds))
        else:
            times["dse"].append(cpu)

    def parallel_search() -> None:
        # Wall time here: the point of two workers is to finish sooner.
        gc.collect()
        t0 = time.perf_counter()
        parallel = run_search(last["train"][0].dataset, w.train, train_seed, 2)
        times["dse_parallel"].append(time.perf_counter() - t0)
        checks.op()
        checks.check(parallel == last["search"], "run_dse differs between jobs=1 and jobs=2")

    def startup_rep() -> None:
        cpu, out = startup_once()
        times["startup"].append(cpu)
        rows["startup"].append({"cli.import_s": out["import_s"], "cli.report_s": out["report_s"]})
        checks.check(out["ok"], "report command output is wrong")

    def side_rep(i: int) -> None:
        cpu = paths[secondary](trace)
        if not trace:
            times[secondary].append(cpu)
        if w.primary == "replay":
            search_rep(trace)
        if i < STARTUP_REPS[q]:
            startup_rep()

    # The primary path repeats (an untraced and a traced repetition each
    # time in a traced run) until its repetitions have taken --seconds.  The
    # side repetitions (the other path, the small search on replay workloads,
    # start-up children) are spread evenly between them: the host's speed
    # changes for seconds at a time, and repetitions run back to back would
    # share one such stretch.  A replay workload replays once untimed first,
    # so that one-time costs of a first call are not timed; the train chain
    # makes no call that set-up and the side repetition before its first
    # repetition have not made, and an untimed repetition of it would add
    # about 4 s to a run of about 60 s.
    paths = {"replay": replay_rep, "train": train_rep}
    secondary = "train" if w.primary == "replay" else "replay"
    if w.primary == "replay":
        replay_rep(False)
    side_reps = SIDE_REPS[w.primary][q]
    spent, reps, sides = 0.0, 0, 0
    while reps < MIN_REPS[w.primary][q] or spent < seconds:
        if sides < side_reps and spent >= sides * seconds / side_reps:
            side_rep(sides)
            sides += 1
        t0 = time.perf_counter()
        times[w.primary].append(paths[w.primary](False))
        if trace:
            times["traced"].append(paths[w.primary](True))
        spent += time.perf_counter() - t0
        reps += 1
    for i in range(sides, side_reps):
        side_rep(i)
    if w.primary == "train":
        search_rep(trace)  # once: the full search is long
    parallel_search()

    replayed = last["replay"]
    t, train_sim = last["train"]
    oracles = [
        check_oracle(f, model_path, sim["run_stats"]["converged_tick"], checks)
        for f, (_, _, sim) in zip(files["replay"], replayed)
    ]
    # The recording with the median detection count stands for the set in
    # the peak-memory child.
    by_detections = sorted(range(len(replayed)), key=lambda i: (replayed[i][2]["run_stats"]["detections"], i))
    k = by_detections[(len(replayed) - 1) // 2]

    metrics = {
        "setup_s": statistics.median(setup_times),
        "startup_s": statistics.median(times["startup"]),
        "replay_accuracy": statistics.median(accuracy for _, accuracy, _ in replayed),
        "train_test_accuracy": t.accuracy,
    }
    layers: dict = {}
    middle = []
    if trace:
        layers["signal.generate_s"] = statistics.median(generate)
        for kind in ("replay", "train", "search", "startup"):
            layers.update(median_rows(rows[kind]))
        layers["trace.overhead_s"] = statistics.median(map(rep_total, times["traced"])) - statistics.median(
            map(rep_total, times[w.primary])
        )
        layers["train.dse_parallel_s"] = statistics.median(times["dse_parallel"])
    else:
        # replay_x_realtime times the middle recordings by their median time
        # per second of audio, leaving out the quarter that replay fastest
        # and the quarter that replay slowest: a recording whose threshold
        # latches early (see README) yields several times the usual
        # detections, one whose threshold converges late spends tens of ms
        # more in the tick-by-tick convergence loop, and neither must set its
        # seed's figure.  The middle recordings' sum, not one of them, is
        # timed, because the kernel samples the user/system split of CPU time
        # at its tick, which is coarse against one short recording.
        n = len(replayed)
        per_audio_s = [statistics.median(rep[i] for rep in times["replay"]) / replayed[i][0] for i in range(n)]
        by_speed = sorted(range(n), key=lambda i: (per_audio_s[i], i))
        middle = sorted(by_speed[n // 4 : n - n // 4])
        metrics["replay_x_realtime"] = sum(replayed[i][0] for i in middle) / statistics.median(
            sum(rep[i] for i in middle) for rep in times["replay"]
        )
        metrics["train_s"] = statistics.median(times["train"])
        metrics["dse_s"] = statistics.median(times["dse"])

    return {
        "metrics": metrics,
        "layers": layers,
        "replay_timed_recordings": middle,
        # User CPU seconds per repetition (per recording for replay), except
        # dse_parallel: wall seconds.
        "times_s": dict(times, setup=setup_times),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "representative": {
            "index": k,
            "recording": str(files["replay"][k].rec),
            "annotations": str(files["replay"][k].ann),
            "event_words_sha256": replayed[k][2]["event_words_sha256"],
        },
        "simulated": {
            "inputs_sha256": inputs_sha,
            "replay": [sim for _, _, sim in replayed],
            "oracle_prefix": oracles,
            "train": train_sim,
            "search_selected": last["search"]["selected"],
        },
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    w = spec.WORKLOADS[args.workload]
    if args.quick:
        w = spec.quick(w)
    out = run(w, args.seed, args.seconds, bool(args.trace), args.quick, args.workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
