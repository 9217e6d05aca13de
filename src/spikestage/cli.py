"""Command line front end.

One subcommand per pipeline stage so each artifact (recording, dataset,
model, event log) can be produced, inspected, and fed forward on its own:

    generate       synthesize a recording plus ground-truth annotations
    detect         run the detector and report convergence and candidates
    build-dataset  capture and label waveforms from a recording
    train          fit a classifier and report held-out test metrics
    quantize       convert a float model to int8 with a calibration set
    dse            cross-validate candidate topologies and pick the winner
    run            full detection + classification pass, writes event log
    postprocess    apply the dead-zone filter to an event log
    metrics        score an event log against annotations
    report         storage and power budget for a deployment

Every subcommand takes an optional JSON config file (--config), which main
reads once, before the command runs; spikestage.config holds its format and
rules.  Exit codes: 0 success, 1 invalid arguments or config or a request
too large for memory, 2 malformed or unreadable file, 3 no feasible result.
JSON on stdout is strict: a result holding NaN or an infinity exits 1
unprinted.

At module level this file imports only the standard library, config,
errors and budget, none of which loads numpy.  Every numpy-backed module
(analysis, nn, signal, store, and detector, pipeline and train, which also
load scipy) is imported inside the commands that run it, so report, --help,
and a usage or config error start without numpy, and metrics, postprocess
and generate without scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

# numpy-backed modules are imported inside the commands that run them
from . import budget
from .config import config_help, load_config
from .errors import FormatError, InfeasibleError, SpikestageError, ValidationError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1 for
    # anything wrong with arguments or config, so route through the same
    # exception the config loader uses.
    def error(self, message):
        raise ValidationError(message)


def _at_least(least: int):
    """argparse type of an integer flag with a lower bound (a seed's is 0: numpy's rule)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, not {text!r}")
        return value

    return parse


def _emit(doc: dict, path=None) -> None:
    """Write doc as strict JSON to stdout or to `path`; NaN or infinity fails before any write."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"result holds a non-finite number ({exc})") from exc
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_topology(text: str) -> tuple:
    try:
        topology = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"topology must be comma-separated integers: {text!r}") from exc
    from . import nn

    nn.check_topology(topology)
    return topology


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args, cfg) -> int:
    from . import signal

    rec_cfg = cfg.recording
    if args.duration_s is not None:
        rec_cfg = dataclasses.replace(rec_cfg, duration_s=args.duration_s)
    if args.seed is not None:
        rec_cfg = dataclasses.replace(rec_cfg, seed=args.seed)
    samples, annotations = signal.generate_recording(rec_cfg, cfg.synthesis)
    signal.write_recording(args.out, samples, rec_cfg)
    signal.write_annotations(args.annotations, annotations)
    labels = [a.klass.name for a in annotations]
    _emit(
        {
            "samples": len(samples),
            "sample_rate_hz": rec_cfg.sample_rate_hz,
            "duration_s": rec_cfg.duration_s,
            "annotations": len(annotations),
            "ss_annotations": labels.count("SS"),
            "cs_annotations": labels.count("CS"),
        }
    )
    return 0


def cmd_detect(args, cfg) -> int:
    from . import analysis, detector, signal

    samples, rec_cfg = signal.read_recording(args.infile)
    trace = detector.detector_trace(samples, cfg.detector)
    candidates = detector.detection_candidates(trace)
    if args.trace is not None:
        analysis.write_trace_csv(args.trace, samples, trace, cfg.detector, limit=args.trace_limit)
    _emit(
        {
            "samples": len(samples),
            "converged": trace.converged_tick is not None,
            "converged_tick": trace.converged_tick,
            "threshold": trace.threshold,
            "candidates": int(len(candidates)),
            "first_candidates": [int(t) for t in candidates[:10]],
        }
    )
    return 0


def cmd_build_dataset(args, cfg) -> int:
    import numpy as np

    from . import nn, signal, train

    samples, rec_cfg = signal.read_recording(args.infile)
    annotations = signal.read_annotations(args.annotations)
    dataset = train.build_dataset(
        samples,
        annotations,
        rec_cfg.sample_rate_hz,
        cfg.detector,
        label_window_ms=args.label_window_ms,
    )
    train.save_dataset(args.out, dataset)
    counts = np.bincount(dataset.labels, minlength=len(nn.SpikeClass)).tolist()
    by_class = {k.name: n for k, n in zip(nn.SpikeClass, counts)}
    _emit({"waveforms": len(dataset), "by_class": by_class})
    return 0


def cmd_train(args, cfg) -> int:
    from . import analysis, nn, train

    tcfg = cfg.train
    if args.ortho_lambda is not None:
        tcfg = dataclasses.replace(tcfg, ortho_lambda=args.ortho_lambda)
    dataset = train.load_dataset(args.dataset)
    topology = _parse_topology(args.topology)
    train_part, test_part = train.train_test_split(dataset, tcfg.test_fraction, args.seed)
    processed = train.filter_outliers(train.balance_classes(train_part, args.seed))
    model, tlog = train.train_mlp(processed, topology, tcfg, seed=args.seed)
    nn.save_model(args.out, model)
    if args.log is not None:
        tlog.save_jsonl(args.log)
    report = {
        "topology": list(topology),
        "train_size": len(processed),
        "test_size": len(test_part),
        "epochs_run": len(tlog.entries),
        "best_epoch": tlog.best_epoch,
        "stopped_early": tlog.stopped_early,
    }
    if test_part:
        report["test"] = analysis.metrics_report(train.evaluate(model, test_part))
    _emit(report)
    return 0


def cmd_quantize(args, cfg) -> int:
    from . import nn, train

    model = nn.load_model(args.model)
    if isinstance(model, nn.QuantizedMlpModel):
        raise ValidationError(f"{args.model}: model is already quantized")
    calibration = train.load_dataset(args.calib)
    qmodel = nn.quantize(model, train.dataset_arrays(calibration)[0])
    nn.save_model(args.out, qmodel)
    _emit(
        {
            "topology": qmodel.topology,
            "layers": [
                {
                    "input_scale": layer.input_scale,
                    "weight_scale": layer.weight_scale,
                    "output_scale": layer.output_scale,
                }
                for layer in qmodel.layers
            ],
        }
    )
    return 0


def cmd_dse(args, cfg) -> int:
    from . import nn, train

    dataset = train.load_dataset(args.dataset)
    if args.grid == "table3":
        candidates = list(train.TABLE3_GRID)
    else:
        candidates = list(train.full_grid(cfg.dse))
    results = train.run_dse(
        dataset, candidates, cfg.train, cfg.dse,
        seed=args.seed, jobs=args.jobs, exhaustive=args.exhaustive,
    )
    selected = train.dse_select(results, cfg.dse.cs_floor)

    header = f"{'topology':24} {'rf':>6} {'complexity':>10} {'cs_mean':>8} {'cs_ci_low':>9} {'ss_mean':>8} {'f_mean':>8}"
    print(header)
    for r in results:
        name = "-".join(str(n) for n in r.topology)
        cs = r.per_class[nn.SpikeClass.CS]
        ss = r.per_class[nn.SpikeClass.SS]
        ff = r.per_class[nn.SpikeClass.F]
        print(
            f"{name:24} {r.ortho_lambda:>6g} {r.complexity:>10d} "
            f"{cs.mean:>8.4f} {cs.ci_low:>9.4f} {ss.mean:>8.4f} {ff.mean:>8.4f}"
        )

    if args.out is not None:
        doc = {
            "candidates": len(candidates),
            "evaluated": len(results),
            "results": [
                {
                    "topology": r.topology,
                    "ortho_lambda": r.ortho_lambda,
                    "complexity": r.complexity,
                    "per_class": {
                        k.name: dataclasses.asdict(stats) for k, stats in r.per_class.items()
                    },
                }
                for r in results
            ],
            "selected": None
            if selected is None
            else {
                "topology": selected.topology,
                "ortho_lambda": selected.ortho_lambda,
                "complexity": selected.complexity,
            },
        }
        _emit(doc, args.out)

    if selected is None:
        raise InfeasibleError(
            f"no candidate reaches CS accuracy > {cfg.dse.cs_floor} at the CI lower bound"
        )
    name = "-".join(str(n) for n in selected.topology)
    print(
        f"selected: {name} rf={selected.ortho_lambda:g} complexity={selected.complexity}"
    )
    return 0


def cmd_run(args, cfg) -> int:
    from . import nn, pipeline, signal, store

    samples, rec_cfg = signal.read_recording(args.infile)
    if len(samples) > store.MAX_TIMESTAMP + 1:
        raise ValidationError(
            f"{args.infile}: {len(samples)} samples exceed the event log's "
            f"{store.TIMESTAMP_BITS}-bit timestamps ({store.MAX_TIMESTAMP + 1} samples)"
        )
    model = nn.load_model(args.model)
    events, stats = pipeline.run_pipeline(
        samples, model, cfg.detector, classify_ticks=args.classify_ticks
    )
    if args.events_csv is not None:
        store.write_events_csv(args.events_csv, events, ["timestamp", "class"])
    stored = [e for e in events if e.klass is not nn.SpikeClass.F]
    store.write_event_log(args.out, stored, rec_cfg.sample_rate_hz)
    if args.stats is not None:
        _emit(stats.to_dict(), args.stats)
    _emit({"events_stored": len(stored), "stats": stats.to_dict()})
    return 0


def cmd_postprocess(args, cfg) -> int:
    from . import analysis, store

    events, rate = store.read_event_log(args.infile)
    kept = analysis.apply_dead_zone(events, cfg.postprocess, rate)
    store.write_event_log(args.out, kept, rate)
    _emit(
        {
            "events_in": len(events),
            "events_out": len(kept),
            "removed": len(events) - len(kept),
            "dead_zone_ms": cfg.postprocess.dead_zone_ms,
        }
    )
    return 0


def cmd_metrics(args, cfg) -> int:
    from . import analysis, signal, store

    events, rate = store.read_event_log(args.events)
    annotations = signal.read_annotations(args.annotations)
    cm = analysis.match_events(events, annotations, rate, tolerance_ms=args.tolerance_ms)
    _emit(analysis.metrics_report(cm))
    return 0


def cmd_report(args, cfg) -> int:
    model = cfg.resources
    duration_s = args.duration_s
    breakdown = budget.power_breakdown(model)
    required = budget.storage_required(duration_s, model.spike_rate_hz)
    _emit(
        {
            "power_w": breakdown,
            "battery_life_days": budget.battery_life_days(model),
            "storage": {
                "duration_s": duration_s,
                "required_bytes": required,
                "capacity_bytes": model.storage_capacity_bytes,
                "fits": required <= model.storage_capacity_bytes,
                "capacity_duration_s": budget.capacity_duration_s(model),
            },
            "assumptions": {
                "battery_voltage_v": model.battery_voltage_v,
                "note": "battery life assumes the configured cell voltage",
                "detector_energy_basis": model.detector_energy_basis,
            },
        }
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="spike-pipeline",
        description="Spike detection, classification, and storage pipeline tools.",
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", default=None, help="JSON config file")
        return p

    p = add("generate", cmd_generate, "synthesize a recording and annotations")
    p.add_argument("--out", required=True, help="output recording file")
    p.add_argument("--annotations", required=True, help="output annotations CSV")
    p.add_argument("--seed", type=_at_least(0), default=None, help="override recording.seed")
    p.add_argument("--duration-s", type=float, default=None, help="override recording.duration_s")

    p = add("detect", cmd_detect, "run the detector over a recording")
    p.add_argument("--in", dest="infile", required=True, help="input recording file")
    p.add_argument("--trace", default=None, help="write per-tick trace CSV here")
    p.add_argument("--trace-limit", type=_at_least(0), default=None, help="cap trace rows")

    p = add("build-dataset", cmd_build_dataset, "capture and label waveforms")
    p.add_argument("--in", dest="infile", required=True, help="input recording file")
    p.add_argument("--annotations", required=True, help="ground-truth annotations CSV")
    p.add_argument("--out", required=True, help="output dataset JSONL")
    p.add_argument(
        "--label-window-ms", type=float, default=1.0, help="annotation matching window"
    )

    p = add("train", cmd_train, "train a classifier on a dataset")
    p.add_argument("--dataset", required=True, help="dataset JSONL")
    p.add_argument("--topology", required=True, help="layer sizes, e.g. 40,8,8,3,3,3")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--ortho-lambda", type=float, default=None, help="override train.ortho_lambda")
    p.add_argument("--log", default=None, help="write per-epoch JSONL log here")

    p = add("quantize", cmd_quantize, "quantize a float model to int8")
    p.add_argument("--model", required=True, help="float model JSON")
    p.add_argument("--calib", required=True, help="calibration dataset JSONL")
    p.add_argument("--out", required=True, help="output quantized model JSON")

    p = add("dse", cmd_dse, "architecture search by cross-validation")
    p.add_argument("--dataset", required=True, help="dataset JSONL")
    p.add_argument("--grid", choices=("table3", "full"), default="table3")
    p.add_argument("--jobs", type=_at_least(1), default=1, help="parallel worker processes")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="evaluate every candidate instead of stopping at the cheapest topology with a survivor",
    )
    p.add_argument("--out", default=None, help="write the evaluated results JSON here")

    p = add("run", cmd_run, "detect and classify, write a binary event log")
    p.add_argument("--in", dest="infile", required=True, help="input recording file")
    p.add_argument("--model", required=True, help="quantized model JSON")
    p.add_argument("--out", required=True, help="output event log")
    p.add_argument("--stats", default=None, help="write run stats JSON here")
    p.add_argument(
        "--events-csv",
        default=None,
        help="also write every classified event (including F) as CSV",
    )
    p.add_argument("--classify-ticks", type=int, default=1, help="inference latency in ticks")

    p = add("postprocess", cmd_postprocess, "dead-zone filter an event log")
    p.add_argument("--in", dest="infile", required=True, help="input event log")
    p.add_argument("--out", required=True, help="output event log")

    p = add("metrics", cmd_metrics, "score an event log against annotations")
    p.add_argument("--events", required=True, help="event log file")
    p.add_argument("--annotations", required=True, help="ground-truth annotations CSV")
    p.add_argument("--tolerance-ms", type=float, default=1.0, help="matching window")

    p = add("report", cmd_report, "storage and power budget")
    p.add_argument(
        "--duration-s", type=float, default=3600.0, help="recording span to size storage for"
    )

    return parser


# exit code of each exception a command may raise; the most derived class wins
_EXIT_CODES = {
    ValidationError: 1,
    FormatError: 2,
    InfeasibleError: 3,
    SpikestageError: 1,
    OSError: 2,  # a missing, unreadable or unwritable file
    MemoryError: 1,  # a request too large for memory
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, load_config(args.config))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
