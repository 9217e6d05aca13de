import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import typing

import numpy as np
import pytest

from spikestage import cli, config, nn, pipeline, signal, store
from spikestage import train as tr
from spikestage.config import RecordingConfig
from spikestage.nn import SpikeClass

from oracles import make_cluster_dataset


@pytest.fixture(scope="module")
def chain(tmp_path_factory, cli_run):
    """Full generate -> train -> quantize -> run -> postprocess chain."""
    root = tmp_path_factory.mktemp("chain")
    p = {
        "rec": root / "rec.spkr",
        "ann": root / "ann.csv",
        "ds": root / "ds.jsonl",
        "model": root / "model.json",
        "tlog": root / "tlog.jsonl",
        "qmodel": root / "qmodel.json",
        "events": root / "events.spkevt",
        "stats": root / "stats.json",
        "events_csv": root / "events.csv",
        "clean": root / "clean.spkevt",
        "root": root,
    }
    out = {}
    out["generate"] = cli_run(
        "generate", "--out", p["rec"], "--annotations", p["ann"],
        "--seed", 11, "--duration-s", 120,
    )
    out["build"] = cli_run(
        "build-dataset", "--in", p["rec"], "--annotations", p["ann"], "--out", p["ds"]
    )
    # the 120 s dataset is small, so give the optimizer more epochs
    train_cfg = root / "train_cfg.json"
    train_cfg.write_text(json.dumps({"train": {"epochs": 400, "patience": 40}}))
    out["train"] = cli_run(
        "train", "--dataset", p["ds"], "--topology", "40,16,7,5,4,3",
        "--out", p["model"], "--seed", 1, "--log", p["tlog"], "--config", train_cfg,
    )
    out["quantize"] = cli_run(
        "quantize", "--model", p["model"], "--calib", p["ds"], "--out", p["qmodel"]
    )
    out["run"] = cli_run(
        "run", "--in", p["rec"], "--model", p["qmodel"], "--out", p["events"],
        "--stats", p["stats"], "--events-csv", p["events_csv"],
    )
    out["postprocess"] = cli_run(
        "postprocess", "--in", p["events"], "--out", p["clean"]
    )
    out["metrics"] = cli_run(
        "metrics", "--events", p["clean"], "--annotations", p["ann"]
    )
    return p, out


def test_generate_output(chain):
    p, out = chain
    gen = out["generate"]
    assert gen["samples"] == int(120 * 24414)
    assert gen["annotations"] == gen["ss_annotations"] + gen["cs_annotations"]
    assert gen["ss_annotations"] > gen["cs_annotations"] > 0
    assert p["rec"].exists() and p["ann"].exists()


def test_build_dataset_output(chain):
    _, out = chain
    by_class = out["build"]["by_class"]
    assert out["build"]["waveforms"] == sum(by_class.values())
    assert by_class["SS"] > by_class["CS"] > 0
    assert by_class["F"] > 0


def test_train_output(chain):
    p, out = chain
    rep = out["train"]
    assert rep["topology"] == [40, 16, 7, 5, 4, 3]
    assert rep["train_size"] > 0 and rep["test_size"] > 0
    assert rep["epochs_run"] >= rep["best_epoch"] + 1
    assert rep["test"]["overall_accuracy"] > 0.9
    model = nn.load_model(p["model"])
    assert isinstance(model, nn.MlpModel)
    log_lines = p["tlog"].read_text().splitlines()
    assert len(log_lines) == rep["epochs_run"] + 1  # entries plus summary


def test_quantize_output(chain):
    p, out = chain
    rep = out["quantize"]
    assert rep["topology"] == [40, 16, 7, 5, 4, 3]
    assert rep["layers"][0]["input_scale"] == 1.0
    for a, b in zip(rep["layers"], rep["layers"][1:]):
        assert b["input_scale"] == a["output_scale"]
    assert isinstance(nn.load_model(p["qmodel"]), nn.QuantizedMlpModel)


def test_run_output(chain):
    p, out = chain
    rep = out["run"]
    stats = rep["stats"]
    assert stats["converged_tick"] is not None
    assert rep["events_stored"] > 0
    assert json.loads(p["stats"].read_text()) == stats

    events, rate = store.read_event_log(p["events"])
    assert rate == 24414.0
    assert len(events) == rep["events_stored"]
    assert all(e.klass in (SpikeClass.SS, SpikeClass.CS) for e in events)

    with open(p["events_csv"], newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["timestamp", "class"]
    assert len(rows) == stats["classify_invocations"]
    assert sum(1 for _, klass in rows if klass == "F") > 0
    kept = [(int(t), SpikeClass[klass]) for t, klass in rows if klass != "F"]
    assert kept == [(e.timestamp, e.klass) for e in events]


def test_run_stats_do_not_depend_on_events_csv(cli_run, tmp_path, chain):
    p, _ = chain
    stats = tmp_path / "stats.json"
    run = ("run", "--in", p["rec"], "--model", p["qmodel"], "--out", tmp_path / "e.spkevt")
    cli_run(*run, "--stats", stats)
    # the chain's run wrote its stats alongside --events-csv
    assert stats.read_bytes() == p["stats"].read_bytes()


def test_run_refuses_a_model_without_three_outputs(cli_run, tmp_path, chain):
    p, _ = chain
    # every capture scores highest on a fourth output, which no class names
    layer = nn.QuantizedLayer(
        np.zeros((4, 40), dtype=np.int8), np.array([0, 0, 0, 1]), "linear", 1.0, 1.0, 1.0
    )
    model = tmp_path / "q4.json"
    nn.save_model(model, nn.QuantizedMlpModel([layer]))
    run = ("run", "--in", p["rec"], "--model", model, "--out", tmp_path / "e.spkevt")
    cli_run(*run, code=1, blame="topology")


@pytest.mark.parametrize("index, activation", [(0, "linear"), (1, "relu")])
def test_run_refuses_a_quantized_model_that_breaks_the_shape_rule(
    cli_run, model_files, index, activation
):
    # hidden layers are relu and the output layer linear, in a file as in memory
    hidden = nn.QuantizedLayer(np.ones((4, 40)), np.zeros(4), "relu", 1.0, 1.0, 1.0)
    output = nn.QuantizedLayer(np.ones((3, 4)), np.zeros(3), "linear", 1.0, 1.0, 1.0)
    model = model_files / "q2.json"
    nn.save_model(model, nn.QuantizedMlpModel([hidden, output]))
    _corrupt(model, "activation", activation, index=index)
    out = model_files / "e.spkevt"
    run = ("run", "--in", model_files / "r.spkr", "--model", model, "--out", out)
    cli_run(*run, code=2, blame="q2.json")
    assert not out.exists()


def test_run_refuses_a_latency_beyond_31_bit_timestamps(cli_run, model_files):
    # 10^20 does not fit int64; the other wraps int64 once added to a tick
    out = model_files / "e.spkevt"
    run = ("run", "--in", model_files / "r.spkr", "--model", model_files / "q.json", "--out", out)
    for ticks in (10**20, 9223372036854775000):
        cli_run(*run, "--classify-ticks", ticks, code=1, blame="classify_ticks")
        assert not out.exists()


def test_run_refuses_a_recording_beyond_31_bit_timestamps(cli_run, monkeypatch, model_files):
    # a zero-stride view: 2^31 + 1 samples that allocate nothing
    samples = np.broadcast_to(np.int16(0), (2**31 + 1,))
    monkeypatch.setattr(signal, "read_recording", lambda path: (samples, RecordingConfig()))

    def unreachable(*args, **kwargs):
        pytest.fail("run_pipeline ran on a recording the event log cannot address")

    monkeypatch.setattr(pipeline, "run_pipeline", unreachable)
    out = model_files / "e.spkevt"
    run = ("run", "--in", model_files / "r.spkr", "--model", model_files / "q.json", "--out", out)
    cli_run(*run, code=1, blame="2147483649 samples")
    assert not out.exists()


def test_postprocess_output(chain):
    _, out = chain
    rep = out["postprocess"]
    assert rep["events_in"] >= rep["events_out"]
    assert rep["removed"] == rep["events_in"] - rep["events_out"]
    assert rep["dead_zone_ms"] == 4.0


def test_metrics_output(chain):
    _, out = chain
    rep = out["metrics"]
    assert rep["confusion"]["order"] == ["CS", "SS", "F"]
    assert rep["overall_accuracy"] > 0.90
    assert rep["per_class"]["CS"]["accuracy"] > 0.85
    assert rep["per_class"]["SS"]["accuracy"] > 0.85


# byte identity across processes, each with its own hash seed
def test_generate_is_reproducible(cli_run, tmp_path):
    def generate(name, seed, hash_seed):
        rec, ann = tmp_path / f"{name}.spkr", tmp_path / f"{name}.csv"
        args = ("--out", rec, "--annotations", ann, "--seed", seed, "--duration-s", 5)
        cli_run("generate", *args, hash_seed=hash_seed)
        return rec.read_bytes(), ann.read_bytes()

    a = generate("a", 3, hash_seed=1)
    assert generate("b", 3, hash_seed=2) == a
    assert generate("c", 4, hash_seed=3)[0] != a[0]


def test_train_is_reproducible(cli_run, chain, tmp_path):
    p, _ = chain
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    train = ("train", "--dataset", p["ds"], "--topology", "40,4,3", "--seed", 3)
    cli_run(*train, "--out", a, hash_seed=1)
    cli_run(*train, "--out", b, hash_seed=2)
    assert a.read_bytes() == b.read_bytes()


def test_module_runs_in_a_fresh_interpreter(cli_run):
    # `python -m spikestage.cli` exits with main's code
    cli_run(code=1, blame="command", hash_seed=0)
    assert cli_run("report", hash_seed=0)["storage"]["fits"] is True


def test_detect_subcommand(cli_run, tmp_path):
    rec, ann = tmp_path / "r.spkr", tmp_path / "r.csv"
    cli_run("generate", "--out", rec, "--annotations", ann, "--seed", 6, "--duration-s", 5)
    trace = tmp_path / "trace.csv"
    rep = cli_run("detect", "--in", rec, "--trace", trace, "--trace-limit", 2000)
    assert rep["converged"] is True
    assert 0 < rep["converged_tick"] < rep["samples"]
    assert rep["threshold"] > 0
    assert rep["candidates"] >= len(rep["first_candidates"])
    assert len(trace.read_text().splitlines()) == 2001


# sha256 of `detect` stdout on the seed-11 5 s recording, recorded before the
# capture rule moved into the detector's block loop
DETECT_SHA256 = "934ff980dbc9a8b7f6278e77e8289ce7f8a468bb25a90f7ec4f1ea196e606277"


def test_detect_bytes_are_pinned(cli_run, tmp_path):
    rec, ann = tmp_path / "r.spkr", tmp_path / "r.csv"
    cli_run("generate", "--out", rec, "--annotations", ann, "--seed", 11, "--duration-s", 5)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["detect", "--in", str(rec)]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DETECT_SHA256


# sha256 of the recording and annotation files of 2 s seed-3 `generate` runs
# under these synthesis sections, recorded while the synthesizer still thinned
# spikes with a loop of its own; a 1e300 ms interval plants one spike
GENERATE_SHA256 = {
    "default": (
        {},
        "4e7f2aaaf29403115c41e7b72ce861766ed75f0043bcd7a328a6dd9df3f5d0d0",
        "2e0066d98b6e49c3e77aab54520072d2d1c3247aba9bf57ba1b66732fb77257c",
    ),
    "dense": (
        {"ss_rate_hz": 400, "cs_rate_hz": 20, "min_interval_ms": 2, "noise_sigma": 15},
        "51c7a7d37ea5e2581c1d4085e358966e2fc3bcbc48a28ca596e87478d79ce14f",
        "3e8f863e852c46da1063bbc535f239ce8a641e1bcbc5e685916901e640acf9ae",
    ),
    "sparse": (
        {"ss_rate_hz": 5, "cs_rate_hz": 0.5},
        "2aadff9463a05daa912408b211e36e0c150e9c302f8b4814e2df130aca9b2539",
        "f2aa91a224d16a3388159ebb4a828d05fbe20b008346791df85d206d4fd78bc6",
    ),
    "short_interval": (
        {"min_interval_ms": 0.01},
        "b2e37177da8238743eac5f68244d157e2d26cb945b34493b4865fa926be7f0e4",
        "abf822d0c826b921fe1893ce5891b45ab2e715f76fa4c5c388a2c2e68602af9f",
    ),
    "one_spike": (
        {"min_interval_ms": 1e300},
        "03f60de6b34cab84fe9f41c28e94c4f4d73683feea8d0a9922b0d9d903efeb8a",
        "279a25124ecf9a109096521784cc93b805af176d3e54fa7ae0af16af4f99a008",
    ),
}


def test_generate_bytes_are_pinned(cli_run, tmp_path):
    cfg, rec, ann = tmp_path / "c.json", tmp_path / "r.spkr", tmp_path / "r.csv"
    for name, (synthesis, rec_sha, ann_sha) in GENERATE_SHA256.items():
        cfg.write_text(json.dumps({"synthesis": synthesis}))
        rep = cli_run(
            "generate", "--out", rec, "--annotations", ann, "--seed", 3, "--duration-s", 2,
            "--config", cfg,
        )
        assert hashlib.sha256(rec.read_bytes()).hexdigest() == rec_sha, name
        assert hashlib.sha256(ann.read_bytes()).hexdigest() == ann_sha, name
    assert rep["annotations"] == 1


def test_generate_plants_spikes_a_tick_apart_at_least(cli_run, tmp_path):
    # 5e-324 ms at 100 Hz rounds to a gap of 0 ticks, where two spikes could share an onset
    cfg, rec, ann = tmp_path / "c.json", tmp_path / "r.spkr", tmp_path / "r.csv"
    doc = {"recording": {"sample_rate_hz": 100}, "synthesis": {"min_interval_ms": 5e-324}}
    cfg.write_text(json.dumps(doc))
    generate = ("generate", "--out", rec, "--annotations", ann, "--duration-s", 10)
    rep = cli_run(*generate, "--config", cfg)
    ticks = [a.timestamp for a in signal.read_annotations(ann)]  # strictly increasing, or refused
    assert len(ticks) == rep["annotations"] > 100


# a subnormal drift period overflows t / period, and huge drift and noise
# overflow their sums: each would leave NaN or infinite samples to round
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "synthesis",
    [{"drift_period_s": 1e-320}, {"drift_amplitude": 1e308, "noise_sigma": 1e308}],
    ids=["subnormal_drift_period", "huge_drift_and_noise"],
)
def test_generate_refuses_a_non_finite_signal_exit_1(cli_run, tmp_path, synthesis):
    cfg, rec, ann = tmp_path / "c.json", tmp_path / "r.spkr", tmp_path / "r.csv"
    cfg.write_text(json.dumps({"synthesis": synthesis}))
    generate = ("generate", "--out", rec, "--annotations", ann, "--duration-s", 1)
    cli_run(*generate, "--config", cfg, code=1, blame="synthesis")
    assert not rec.exists() and not ann.exists()


def test_dse_table_and_infeasible_floor(cli_run, tmp_path):
    ds_path = tmp_path / "tiny.jsonl"
    tr.save_dataset(ds_path, make_cluster_dataset())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "dse": {"folds": 2, "cs_floor": 1.0},
                "train": {"epochs": 2, "patience": 1},
            }
        )
    )
    out = cli_run(
        "dse", "--dataset", ds_path, "--grid", "table3", "--config", cfg_path,
        "--out", tmp_path / "dse.json", code=3, blame="no candidate",
    )
    lines = out.splitlines()
    assert lines[0].split() == [
        "topology", "rf", "complexity", "cs_mean", "cs_ci_low", "ss_mean", "f_mean",
    ]
    rows = lines[1:]
    assert len(rows) == 9
    assert [int(r.split()[2]) for r in rows] == [86, 86, 181, 241, 378, 426, 761, 819, 1690]
    doc = json.loads((tmp_path / "dse.json").read_text())
    assert len(doc["results"]) == 9
    assert doc["selected"] is None


def test_dse_selects_under_reachable_floor(cli_run, tmp_path):
    ds_path = tmp_path / "tiny.jsonl"
    tr.save_dataset(ds_path, make_cluster_dataset())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "dse": {"folds": 2, "cs_floor": 0.01},
                "train": {"epochs": 2, "patience": 1},
            }
        )
    )
    out = cli_run(
        "dse", "--dataset", ds_path, "--grid", "table3", "--config", cfg_path,
        "--out", tmp_path / "dse.json", "--jobs", 2,
    )
    assert "selected: " in out
    doc = json.loads((tmp_path / "dse.json").read_text())
    sel = doc["selected"]
    assert sel is not None
    assert sel["topology"][0] == 40 and sel["topology"][-1] == 3


def test_dse_early_exit_and_exhaustive_tables(cli_run, tmp_path):
    ds_path = tmp_path / "tiny.jsonl"
    tr.save_dataset(ds_path, make_cluster_dataset())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"dse": {"folds": 2, "cs_floor": 0.01}, "train": {"epochs": 2, "patience": 1}})
    )
    dse = ("dse", "--dataset", ds_path, "--grid", "table3", "--config", cfg_path)
    docs, tables = [], []
    for flags in ((), ("--exhaustive",)):
        out = tmp_path / "dse.json"
        tables.append(cli_run(*dse, *flags, "--out", out).splitlines())
        docs.append(json.loads(out.read_text()))
    early, full = docs
    assert early["candidates"] == full["candidates"] == 9
    assert full["evaluated"] == len(full["results"]) == 9
    # 40-2-3 fails this floor at both λ values and 40-4-3-3 (one λ) clears it
    cs_lows = [r["per_class"]["CS"]["ci_low"] for r in full["results"]]
    assert max(cs_lows[:2]) <= 0.01 < cs_lows[2]
    assert early["evaluated"] == len(early["results"]) == 3
    assert early["results"] == full["results"][:3]
    assert early["selected"] == full["selected"]
    # header, one row per evaluated result, the selection
    assert len(tables[0]) == 1 + 3 + 1 and len(tables[1]) == 1 + 9 + 1
    assert tables[0][:4] == tables[1][:4] and tables[0][-1] == tables[1][-1]


def test_report_subcommand(cli_run):
    rep = cli_run("report")
    assert abs(rep["power_w"]["classifier_w"] - 3.11e-5) < 1e-12
    assert rep["assumptions"]["battery_voltage_v"] == 1.5
    assert rep["assumptions"]["detector_energy_basis"] == "per_sample"
    assert rep["storage"]["required_bytes"] == 1_440_000  # one hour at 100 Hz
    assert rep["storage"]["fits"] is True
    assert rep["storage"]["capacity_duration_s"] == 32 * 2**20 / 400.0
    assert 3.0 < rep["battery_life_days"] < 6.0

    day = cli_run("report", "--duration-s", 86400)
    assert day["storage"]["required_bytes"] == 34_560_000
    assert day["storage"]["fits"] is False  # a full day overflows 32 MiB


def test_light_modules_import_without_scipy():
    # the package has no re-export layer, so these modules pull in only what they use
    def imported(modules, packages):
        code = "import sys\n" + "".join(f"import spikestage.{m}\n" for m in modules)
        code += f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    assert imported(("errors", "config", "nn", "store", "signal", "analysis"), ("scipy",)) == "[]"
    # reading a config, parsing the command line and `report`'s budget cost no numerical import
    assert imported(("config",), ("numpy", "scipy")) == "[]"
    assert imported(("cli", "budget"), ("numpy", "scipy")) == "[]"


def test_light_paths_run_without_numpy(tmp_path):
    # cli imports every numpy-backed module inside the commands that run it
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"resources": {"battery_voltage_v": 3.0, "spike_rate_hz": 50}}))
    bad.write_text(json.dumps({"resources": {"e_adc_pj": -1}}))
    runs = [
        ["report"],
        ["report", "--duration-s", "86400"],
        ["report", "--config", str(good)],
        ["--help"],
        ["nope"],
        ["report", "--config", str(bad)],
    ]
    code = f"""
import contextlib, io, json, sys
class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"{{name}} is refused")
if sys.argv[1] == "refuse":
    sys.meta_path.insert(0, RefuseNumpy())
import spikestage.cli as cli
results = []
for argv in {runs!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = cli.main(argv)
        except SystemExit as exc:  # argparse ends --help this way
            got = exc.code
    results.append([got, out.getvalue(), err.getvalue()])
print(json.dumps({{"results": results, "numpy": "numpy" in sys.modules}}))
"""

    def run(mode):
        proc = subprocess.run([sys.executable, "-c", code, mode], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    refused, free = run("refuse"), run("free")
    assert not refused["numpy"]
    assert [got for got, _, _ in refused["results"]] == [0, 0, 0, 0, 1, 1]
    assert refused["results"] == free["results"]


# sha256 of `report` stdout with the defaults, with --duration-s 86400 and with
# the per_event detector basis, recorded before the budget left store.py
REPORT_SHA256 = {
    "default": "fdc05285547fac7b041a9d42dbf7eaa03686730375cdd5236637fb27a3d3ad14",
    "day": "212aaeece4ac68e3ef7726eb153bb0319f362735638f505197ddc857e79e1eb2",
    "per_event": "35564a7ae6a3c551003246c381662f6c6a38d13ae6e307fa5585b239e5f85c6e",
}


def test_report_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"resources": {"detector_energy_basis": "per_event"}}))
    runs = {
        "default": ["report"],
        "day": ["report", "--duration-s", "86400"],
        "per_event": ["report", "--config", str(cfg)],
    }
    for name, argv in runs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REPORT_SHA256[name], name


# sha256 of `report` stdout at 30 kHz with the defaults and with --duration-s
# 86400, printed when the rate was still set as resources.sample_rate_hz
REPORT_30KHZ_SHA256 = {
    "default": "a6e967ec394745f083c4b44205306af5d61f03cd3d717e1ca7fce77ff497530e",
    "day": "c439cd11c818cd4a03640bdee37a714f85df1a278520a760be9f0cbe0a9b6aa0",
}


def test_report_budgets_at_the_recording_rate(cli_run, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"recording": {"sample_rate_hz": 30000}}))
    for name, extra in (("default", []), ("day", ["--duration-s", "86400"])):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["report", "--config", str(cfg), *extra]) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == REPORT_30KHZ_SHA256[name], name
    # the recording's rate is the only one: the budget has no second copy to set
    cfg.write_text(json.dumps({"resources": {"sample_rate_hz": 30000}}))
    cli_run("report", "--config", cfg, code=1, blame="unknown keys: ['sample_rate_hz']")
    resources = cli_run("--help").split("  resources:\n")[1].split("  postprocess:\n")[0]
    assert "e_adc_pj" in resources and "sample_rate_hz" not in resources


def test_light_commands_run_without_scipy(tmp_path):
    # cli imports detector, pipeline and train inside the commands that run them
    log = tmp_path / "e.spkevt"
    events = [store.EventRecord(2_000, SpikeClass.SS), store.EventRecord(2_010, SpikeClass.CS)]
    store.write_event_log(log, events, RecordingConfig().sample_rate_hz)
    rec, ann = tmp_path / "r.spkr", tmp_path / "r.csv"
    code = f"""
import contextlib, io, json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
import spikestage.cli as cli
seen = {{"import": scipy_loaded()}}
for argv in (
    ["generate", "--out", {str(rec)!r}, "--annotations", {str(ann)!r}, "--duration-s", "1"],
    ["postprocess", "--in", {str(log)!r}, "--out", {str(tmp_path / "kept.spkevt")!r}],
    ["metrics", "--events", {str(log)!r}, "--annotations", {str(ann)!r}],
    ["report"],
    ["detect", "--in", {str(rec)!r}],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen[argv[0]] = scipy_loaded()
print(json.dumps(seen))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "generate", "postprocess", "metrics", "report"):
        assert seen[step] == [], step
    # the check can fail: detect is the first command here that runs the detector
    assert "scipy.signal" in seen["detect"]


@pytest.mark.parametrize(
    "doc, blame",
    [
        ('{"resources": {"spike_rate_hz": 0}}', "spike_rate_hz"),
        # finite inputs whose battery life overflows to infinity
        (
            '{"resources": {"battery_voltage_v": 1e308, "battery_capacity_mah": 1e308}}',
            "non-finite",
        ),
    ],
    ids=["zero_spike_rate", "infinite_battery_life"],
)
def test_report_exits_1_on_values_it_cannot_print(cli_run, tmp_path, doc, blame):
    cfg = tmp_path / "c.json"
    cfg.write_text(doc)
    cli_run("report", "--config", cfg, code=1, blame=blame)


def test_exit_codes(cli_run, tmp_path, chain):
    p, _ = chain

    cli_run(code=1, blame="command")  # missing subcommand
    cli_run("generate", "--annotations", tmp_path / "x.csv", code=1, blame="--out")

    bad_section = tmp_path / "bad1.json"
    bad_section.write_text(json.dumps({"nope": {}}))
    cli_run("report", "--config", bad_section, code=1, blame="unknown sections")

    bad_key = tmp_path / "bad2.json"
    bad_key.write_text(json.dumps({"detector": {"bogus": 1}}))
    cli_run("report", "--config", bad_key, code=1, blame="unknown keys")

    not_json = tmp_path / "bad3.json"
    not_json.write_text("{nope")
    cli_run("report", "--config", not_json, code=1, blame="bad3.json")

    cli_run("detect", "--in", tmp_path / "missing.spkr", code=2, blame="missing.spkr")

    junk = tmp_path / "junk.spkr"
    junk.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    cli_run("detect", "--in", junk, code=2, blame="junk.spkr")
    cli_run("metrics", "--events", junk, "--annotations", p["ann"], code=2, blame="junk.spkr")

    run = ("run", "--in", p["rec"], "--model", p["model"], "--out", tmp_path / "e.spkevt")
    cli_run(*run, code=1, blame="quantized")

    train = ("train", "--dataset", p["ds"], "--out", tmp_path / "m.json")
    cli_run(*train, "--topology", "40,x,3", code=1, blame="topology")
    cli_run(*train, "--topology", "39,3", code=1, blame="topology")


def test_memory_error_exits_1(cli_run, monkeypatch, tmp_path):
    # a model too large for memory, refused here rather than allocated
    def refuse(topology, rng):
        raise MemoryError(f"Unable to allocate a {topology} model")

    monkeypatch.setattr(tr, "init_model", refuse)
    ds = tmp_path / "ds.jsonl"
    tr.save_dataset(ds, make_cluster_dataset())
    model = tmp_path / "m.json"
    cli_run(
        "train", "--dataset", ds, "--topology", "40,100000000,3", "--out", model,
        code=1, blame="Unable to allocate",
    )
    assert not model.exists()


@pytest.fixture
def model_files(tmp_path):
    """A valid recording, float model and quantized model (40-3), as files."""
    recording = np.zeros(100, dtype=np.int16)
    signal.write_recording(tmp_path / "r.spkr", recording, RecordingConfig())
    weights = np.ones((3, 40))
    nn.save_model(tmp_path / "f.json", nn.MlpModel([nn.Layer(weights, np.zeros(3), "linear")]))
    layer = nn.QuantizedLayer(
        weights.astype(np.int8), np.zeros(3, dtype=np.int32), "linear", 1.0, 1.0, 1.0
    )
    nn.save_model(tmp_path / "q.json", nn.QuantizedMlpModel([layer]))
    return tmp_path


def _corrupt(path, key, value, index=0):
    doc = json.loads(path.read_text())
    doc["layers"][index][key] = value
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("q", "input_scale", "abc"),
        ("q", "q_weights", [["abc"] * 40] * 3),
        ("f", "weights", [["abc"] * 40] * 3),
        ("q", "q_biases", [2**70, 0, 0]),
        ("q", "q_weights", [[1.5] * 40] * 3),
        ("q", "q_weights", [[True] * 40] * 3),
        ("q", "q_biases", [2.7, 0, 0]),
        ("q", "weight_scale", "0.5"),
        ("q", "weight_scale", float("nan")),
        ("q", "output_scale", float("inf")),
        ("f", "weights", [["2.5"] * 40] * 3),
        ("f", "weights", [[float("nan")] * 40] * 3),
        ("f", "biases", [0, True, 0]),
        # in int32, but 128 * sum|w| + |b| over int8 inputs is not
        ("q", "q_biases", [2**31 - 1, 0, 0]),
    ],
)
def test_malformed_model_exits_2(cli_run, model_files, kind, key, value):
    model = model_files / f"{kind}.json"
    _corrupt(model, key, value)
    out = model_files / "out"
    if kind == "q":
        run = ("run", "--in", model_files / "r.spkr", "--model", model, "--out", out)
        cli_run(*run, code=2, blame=model.name)
    quantize = ("quantize", "--model", model, "--calib", model_files / "none.jsonl", "--out", out)
    cli_run(*quantize, code=2, blame=model.name)


@pytest.mark.parametrize("header", [{"version": True}, {"version": 1.0}, {"topology": [40.0, 3]}])
def test_model_header_numbers_exit_2(cli_run, model_files, header):
    # each compares equal to the expected header, but is not a JSON integer
    model = model_files / "q.json"
    model.write_text(json.dumps(dict(json.loads(model.read_text()), **header)))
    run = ("run", "--in", model_files / "r.spkr", "--model", model, "--out", model_files / "e")
    cli_run(*run, code=2, blame="q.json")


def test_malformed_dataset_exits_2(cli_run, tmp_path):
    line = {"tick": 5, "label": "SS", "waveform": [0] * 40}
    ds = tmp_path / "ds.jsonl"
    train = ("train", "--dataset", ds, "--topology", "40,3", "--out", tmp_path / "m.json")
    for bad in (
        {"tick": "abc"},
        {"tick": 5.5},
        {"waveform": ["x"] * 40},
        {"waveform": [2**70] + [0] * 39},
        {"waveform": [1.5] * 40},
    ):
        ds.write_text(json.dumps(dict(line, **bad)) + "\n")
        cli_run(*train, code=2, blame="ds.jsonl:1")
    ds.write_bytes(json.dumps(line).encode() + b"\n\xff\xfe\n")
    cli_run(*train, code=2, blame="ds.jsonl:2")


def test_non_utf8_files_exit_cleanly(cli_run, model_files):
    root = model_files
    junk = root / "junk.json"
    junk.write_bytes(b"\xff\xfe\x00\x81")
    cli_run("report", "--config", junk, code=1, blame="junk.json")
    quantize = ("quantize", "--model", junk, "--calib", junk, "--out", root / "o.json")
    cli_run(*quantize, code=2, blame="junk.json")


def test_deeply_nested_json_exits_cleanly(cli_run, model_files):
    # json stops at Python's recursion limit with a RecursionError
    root = model_files
    deep = root / "deep.json"
    deep.write_text("[" * 100_000)
    cli_run("report", "--config", deep, code=1, blame="deep.json")
    run = ("run", "--in", root / "r.spkr", "--model", deep, "--out", root / "e.spkevt")
    cli_run(*run, code=2, blame="deep.json")
    train =("train", "--dataset", deep, "--topology", "40,3", "--out", root / "m.json")
    cli_run(*train, code=2, blame="deep.json:1")


def test_unreadable_files_exit_2(cli_run, model_files):
    root = model_files
    run = ("run", "--in", root, "--model", root / "q.json", "--out", root / "e.spkevt")
    cli_run(*run, code=2, blame="Is a directory")
    build = ("build-dataset", "--in", root / "r.spkr", "--out", root / "ds.jsonl")
    ann = root / "ann.csv"
    for body in (
        b"sample_index,label\n10,SS\n\xff\xfe,CS\n",  # not UTF-8
        b"sample_index,label\n" + b"1" * 200_000 + b",SS\n",  # beyond csv's field limit
    ):
        ann.write_bytes(body)
        cli_run(*build, "--annotations", ann, code=2, blame="ann.csv")


def test_negative_annotation_index_exits_2(cli_run, model_files):
    root = model_files
    ann = root / "ann.csv"
    ann.write_text("sample_index,label\n-5,SS\n")
    store.write_event_log(root / "e.spkevt", [store.EventRecord(100, SpikeClass.SS)], 24414.0)
    metrics = ("metrics", "--events", root / "e.spkevt", "--annotations", ann)
    build = ("build-dataset", "--in", root / "r.spkr", "--annotations", ann, "--out", root / "d")
    for argv in (metrics, build):
        cli_run(*argv, code=2, blame="ann.csv: sample index must be non-negative, got -5")


@pytest.mark.parametrize(
    "index, message",
    [
        ("1_0", "bad sample index '1_0'"),
        (" +20 ", "bad sample index ' +20 '"),
        ("\u0663\u0660", "bad sample index '\u0663\u0660'"),  # Arabic-Indic 30
        ("2147483648", "sample index past 2147483647"),
        ("1" + "0" * 400, "sample index past 2147483647"),
    ],
    ids=["underscore", "plus-and-spaces", "arabic-indic", "2**31", "401-digits"],
)
def test_annotation_index_outside_the_writers_form_exits_2(cli_run, model_files, index, message):
    # int() alone reads the first three as 10, 20 and 30; no recording holds
    # the last two ticks, and the 401-digit one overflowed a float cast
    root = model_files
    ann = root / "ann.csv"
    ann.write_text(f"sample_index,label\n5,SS\n{index},CS\n", encoding="utf-8")
    store.write_event_log(root / "e.spkevt", [store.EventRecord(100, SpikeClass.SS)], 24414.0)
    metrics = ("metrics", "--events", root / "e.spkevt", "--annotations", ann)
    build = ("build-dataset", "--in", root / "r.spkr", "--annotations", ann, "--out", root / "d")
    for argv in (metrics, build):
        cli_run(*argv, code=2, blame=f"ann.csv: {message}")


def test_negative_seeds_exit_1(cli_run, tmp_path):
    ds = tmp_path / "ds.jsonl"
    ds.write_text(json.dumps({"tick": 5, "label": "SS", "waveform": [0] * 40}) + "\n")
    generate = ("generate", "--out", tmp_path / "r.spkr", "--annotations", tmp_path / "a.csv")
    for args in (
        generate,
        ("train", "--dataset", ds, "--topology", "40,3", "--out", tmp_path / "m.json"),
        ("dse", "--dataset", ds),
    ):
        cli_run(*args, "--seed", "-1", code=1, blame="--seed")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recording": {"seed": -3}}))
    cli_run(*generate, "--config", cfg, code=1, blame="seed")
    assert not (tmp_path / "r.spkr").exists()


# count flags below their lower bound; --seed's is tested above
@pytest.mark.parametrize(
    "command, flag, value",
    [("dse", "--jobs", "0"), ("dse", "--jobs", "-3"), ("detect", "--trace-limit", "-1")],
)
def test_out_of_range_count_flags_exit_1(cli_run, tmp_path, command, flag, value):
    required = {
        "dse": ("--dataset", tmp_path / "ds.jsonl"),
        "detect": ("--in", tmp_path / "r.spkr", "--trace", tmp_path / "t.csv"),
    }[command]
    cli_run(command, *required, flag, value, code=1, blame=flag)
    assert not any(tmp_path.iterdir())


# inputs generate cannot draw from, refused before any draw or allocation: a
# duration that rounds to no sample, spike rates above one per sample (30 kHz >
# 24.414 kHz), more samples than 31-bit timestamps reach, and a gap of infinite ticks
@pytest.mark.parametrize(
    "flags, doc, blame",
    [
        (["--duration-s", "1e-5"], None, "duration_s"),
        ([], {"recording": {"duration_s": 1e-5}}, "duration_s"),
        ([], {"synthesis": {"ss_rate_hz": 1e300}}, "ss_rate_hz"),
        ([], {"synthesis": {"ss_rate_hz": 20000.0, "cs_rate_hz": 10000.0}}, "cs_rate_hz"),
        (["--duration-s", "1e6"], None, "duration_s"),
        ([], {"recording": {"sample_rate_hz": 1e300}}, "sample_rate_hz"),
        ([], {"synthesis": {"min_interval_ms": 1e308}}, "min_interval_ms"),
    ],
)
def test_generate_refuses_what_it_cannot_draw_exit_1(cli_run, tmp_path, flags, doc, blame):
    args = ["generate", "--out", tmp_path / "r.spkr", "--annotations", tmp_path / "a.csv", *flags]
    if doc is not None:
        (tmp_path / "c.json").write_text(json.dumps(doc))
        args += ["--config", tmp_path / "c.json"]
    cli_run(*args, code=1, blame=blame)
    assert not (tmp_path / "r.spkr").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_values_exit_1(cli_run, model_files, value):
    root = model_files
    generate = ("generate", "--out", root / "g.spkr", "--annotations", root / "g.csv")
    # the = form, since argparse takes a bare -inf for an option
    cli_run(*generate, f"--duration-s={value}", code=1, blame="duration_s")
    assert not (root / "g.spkr").exists()

    ds = root / "ds.jsonl"
    ds.write_text(json.dumps({"tick": 5, "label": "SS", "waveform": [0] * 40}) + "\n")
    train = ("train", "--dataset", ds, "--topology", "40,3", "--out", root / "m.json")
    args = (*train, f"--ortho-lambda={value}", "--log", root / "log.jsonl")
    cli_run(*args, code=1, blame="ortho_lambda")
    assert not (root / "m.json").exists()

    # Python's json reads NaN and Infinity, so a config file can carry them
    cfg = root / "c.json"
    literal = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[value]
    cfg.write_text('{"detector": {"threshold_gain": %s}}' % literal)
    run = ("run", "--in", root / "r.spkr", "--model", root / "q.json", "--out", root / "e.spkevt")
    cli_run(*run, "--config", cfg, code=1, blame="threshold_gain")
    assert not (root / "e.spkevt").exists()

    # float flags that reach library functions rather than a config section
    signal.write_annotations(root / "a.csv", [])
    build = ("build-dataset", "--in", root / "r.spkr", "--annotations", root / "a.csv")
    args = (*build, "--out", root / "b.jsonl", f"--label-window-ms={value}")
    cli_run(*args, code=1, blame="label_window_ms")
    assert not (root / "b.jsonl").exists()
    store.write_event_log(root / "e0.spkevt", [], 24414.0)
    metrics = ("metrics", "--events", root / "e0.spkevt", "--annotations", root / "a.csv")
    cli_run(*metrics, f"--tolerance-ms={value}", code=1, blame="tolerance_ms")
    cli_run("report", f"--duration-s={value}", code=1, blame="duration")


# every float a config file can set in these sections; NaN passes a plain
# range comparison, so the finiteness check must catch each one
SECTIONS = typing.get_type_hints(config.AppConfig)
NON_FINITE_KEYS = [
    (section, name)
    for section in ("synthesis", "postprocess", "resources")
    for name, hint in typing.get_type_hints(SECTIONS[section]).items()
    if hint is float
]


@pytest.mark.parametrize("section,key", NON_FINITE_KEYS, ids=[".".join(k) for k in NON_FINITE_KEYS])
def test_non_finite_config_values_exit_1(cli_run, tmp_path, section, key):
    store.write_event_log(tmp_path / "e.spkevt", [store.EventRecord(5, SpikeClass.SS)], 24414.0)
    out = tmp_path / "out"
    command = {
        "synthesis": ("generate", "--out", out, "--annotations", tmp_path / "a.csv"),
        "postprocess": ("postprocess", "--in", tmp_path / "e.spkevt", "--out", out),
        "resources": ("report",),
    }[section]
    cfg = tmp_path / "c.json"
    for literal in ("NaN", "Infinity", "-Infinity"):
        cfg.write_text('{"%s": {"%s": %s}}' % (section, key, literal))
        cli_run(*command, "--config", cfg, code=1, blame=key)
        assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_dse_config_exits_1(cli_run, tmp_path, literal):
    # a NaN floor would reject every candidate, but only after the whole search
    ds = tmp_path / "tiny.jsonl"
    tr.save_dataset(ds, make_cluster_dataset())
    cfg = tmp_path / "c.json"
    train = '"train": {"epochs": 2, "patience": 1}'
    dse = ("dse", "--dataset", ds, "--config", cfg, "--out", tmp_path / "dse.json")
    for key, value in (("cs_floor", literal), ("ortho_lambdas", f"[0.01, {literal}]")):
        cfg.write_text('{"dse": {"folds": 2, "%s": %s}, %s}' % (key, value, train))
        cli_run(*dse, code=1, blame=key)
        assert not (tmp_path / "dse.json").exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"detector": {"alpha_signal": "x"}},
        {"train": {"epochs": "3"}},
        {"dse": {"hidden_ranges": 5}},
        {"dse": {"ortho_lambdas": 0.01}},
        {"train": {"batch_size": 2.5}},
        {"recording": {"seed": "x"}},
        {"recording": {"seed": True}},
        {"dse": {"descending_sizes": 1}},
        {"resources": {"detector_energy_basis": None}},
        {"detector": {"alpha_signal": None}},
        {"dse": {"ortho_lambdas": ["a"]}},
        {"dse": {"hidden_ranges": [[1, "x"], [1, 2], [1, 2], [1, 2]]}},
        {"dse": {"hidden_ranges": [[1], [1, 2], [1, 2], [1, 2]]}},
        {"dse": {"hidden_ranges": [[5, 2]]}},
        {"resources": {"storage_capacity_bytes": -1}},
        {"dse": {"ortho_lambdas": []}},
        {"train": {"test_fraction": 0}},  # train_test_split needs a held-out part
        {"recording": {"duration_s": 1e308}},  # finite, but not in samples
        {"recording": {"sample_rate_hz": 1e308}},
        # integers beyond the float range, in two float fields and in the int
        # field whose duration in seconds is a float
        {"recording": {"duration_s": 10**400}},
        {"resources": {"battery_capacity_mah": 10**400}},
        {"resources": {"storage_capacity_bytes": 10**400}},
    ],
)
def test_malformed_config_value_exits_1(cli_run, tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    ((_, body),) = doc.items()
    cli_run("report", "--config", path, code=1, blame=next(iter(body)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_training_exits_1(cli_run, tmp_path):
    ds = tmp_path / "ds.jsonl"
    tr.save_dataset(ds, make_cluster_dataset())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 1e300, "epochs": 3}}))
    model, log = tmp_path / "m.json", tmp_path / "log.jsonl"
    train = ("train", "--dataset", ds, "--topology", "40,3", "--out", model, "--log", log)
    cli_run(*train, "--config", cfg, code=1, blame="diverged")
    assert not model.exists() and not log.exists()


def test_config_value_types(cli_run, tmp_path):
    path = tmp_path / "cfg.json"
    # an integer where a float is declared, and null where the field allows it
    path.write_text(json.dumps({"train": {"learning_rate": 1}, "detector": {"neo_clip_ratio": None}}))
    cli_run("report", "--config", path)
    ds = tmp_path / "ds.jsonl"
    ds.write_text(json.dumps({"tick": 5, "label": "SS", "waveform": [0] * 40}) + "\n")
    path.write_text(json.dumps({"train": {"batch_size": 2.5}}))
    train = ("train", "--dataset", ds, "--topology", "40,3", "--out", tmp_path / "m.json")
    cli_run(*train, "--config", path, code=1, blame="'train'")


def test_every_command_reads_its_config(cli_run, model_files):
    # main loads --config before any command runs, including those that use no section
    root = model_files
    cfg = root / "c.json"
    cfg.write_text(json.dumps({"nope": 1}))
    tr.save_dataset(root / "ds.jsonl", make_cluster_dataset())
    store.write_event_log(root / "e.spkevt", [store.EventRecord(100, SpikeClass.SS)], 24414.0)
    signal.write_annotations(root / "a.csv", [store.EventRecord(100, SpikeClass.SS)])
    out = root / "out.json"
    quantize = ("quantize", "--model", root / "f.json", "--calib", root / "ds.jsonl", "--out", out)
    metrics = ("metrics", "--events", root / "e.spkevt", "--annotations", root / "a.csv")
    for args in (quantize, metrics):
        cli_run(*args, "--config", cfg, code=1, blame="unknown sections")
        assert not out.exists()
    # without the config both run, so the refusals above came from the config alone
    cli_run(*quantize)
    assert out.exists()
    cli_run(*metrics)


def test_config_override(cli_run, chain, tmp_path):
    p, out = chain
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postprocess": {"dead_zone_ms": 0.0}}))
    rep = cli_run(
        "postprocess", "--in", p["events"], "--out", tmp_path / "same.spkevt",
        "--config", cfg,
    )
    assert rep["removed"] == 0
    assert rep["dead_zone_ms"] == 0.0


def test_help_text(cli_run):
    out = cli_run("--help")
    assert "config file sections" in out
    assert "build-dataset" in out
