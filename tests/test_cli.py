import json
import subprocess
import sys

import numpy as np
import pytest

from spikestage import cli, nn, pipeline, signal, store
from spikestage import train as tr
from spikestage.nn import SpikeClass


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "spikestage.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
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
    out["generate"] = run_json(
        "generate", "--out", p["rec"], "--annotations", p["ann"],
        "--seed", 11, "--duration-s", 120,
    )
    out["build"] = run_json(
        "build-dataset", "--in", p["rec"], "--annotations", p["ann"], "--out", p["ds"]
    )
    # the 120 s dataset is small, so give the optimizer more epochs
    train_cfg = root / "train_cfg.json"
    train_cfg.write_text(json.dumps({"train": {"epochs": 400, "patience": 40}}))
    out["train"] = run_json(
        "train", "--dataset", p["ds"], "--topology", "40,16,7,5,4,3",
        "--out", p["model"], "--seed", 1, "--log", p["tlog"], "--config", train_cfg,
    )
    out["quantize"] = run_json(
        "quantize", "--model", p["model"], "--calib", p["ds"], "--out", p["qmodel"]
    )
    out["run"] = run_json(
        "run", "--in", p["rec"], "--model", p["qmodel"], "--out", p["events"],
        "--stats", p["stats"], "--events-csv", p["events_csv"],
    )
    out["postprocess"] = run_json(
        "postprocess", "--in", p["events"], "--out", p["clean"]
    )
    out["metrics"] = run_json(
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

    csv_events = pipeline.read_events_csv(p["events_csv"])
    assert len(csv_events) == stats["classify_invocations"]
    assert sum(1 for e in csv_events if e.klass is SpikeClass.F) > 0
    kept = [(e.timestamp, e.klass) for e in csv_events if e.klass is not SpikeClass.F]
    assert kept == [(e.timestamp, e.klass) for e in events]


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


def test_generate_is_reproducible(tmp_path):
    a_rec, a_ann = tmp_path / "a.spkr", tmp_path / "a.csv"
    b_rec, b_ann = tmp_path / "b.spkr", tmp_path / "b.csv"
    run_json("generate", "--out", a_rec, "--annotations", a_ann, "--seed", 3, "--duration-s", 5)
    run_json("generate", "--out", b_rec, "--annotations", b_ann, "--seed", 3, "--duration-s", 5)
    assert a_rec.read_bytes() == b_rec.read_bytes()
    assert a_ann.read_bytes() == b_ann.read_bytes()
    c_rec, c_ann = tmp_path / "c.spkr", tmp_path / "c.csv"
    run_json("generate", "--out", c_rec, "--annotations", c_ann, "--seed", 4, "--duration-s", 5)
    assert a_rec.read_bytes() != c_rec.read_bytes()


def test_train_is_reproducible(chain, tmp_path):
    p, _ = chain
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_json("train", "--dataset", p["ds"], "--topology", "40,4,3", "--out", a, "--seed", 3)
    run_json("train", "--dataset", p["ds"], "--topology", "40,4,3", "--out", b, "--seed", 3)
    assert a.read_bytes() == b.read_bytes()


def test_detect_subcommand(tmp_path):
    rec, ann = tmp_path / "r.spkr", tmp_path / "r.csv"
    run_json("generate", "--out", rec, "--annotations", ann, "--seed", 6, "--duration-s", 5)
    trace = tmp_path / "trace.csv"
    rep = run_json("detect", "--in", rec, "--trace", trace, "--trace-limit", 2000)
    assert rep["converged"] is True
    assert 0 < rep["converged_tick"] < rep["samples"]
    assert rep["threshold"] > 0
    assert rep["candidates"] >= len(rep["first_candidates"])
    assert len(trace.read_text().splitlines()) == 2001


def test_dse_table_and_infeasible_floor(tmp_path):
    ds_path = tmp_path / "tiny.jsonl"
    tr.save_dataset(ds_path, _cluster_dataset())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "dse": {"folds": 2, "cs_floor": 1.0},
                "train": {"epochs": 2, "patience": 1},
            }
        )
    )
    proc = run_cli(
        "dse", "--dataset", ds_path, "--grid", "table3", "--config", cfg_path,
        "--out", tmp_path / "dse.json",
    )
    assert proc.returncode == 3
    assert "no candidate" in proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == [
        "topology", "rf", "complexity", "cs_mean", "cs_ci_low", "ss_mean", "f_mean",
    ]
    rows = lines[1:]
    assert len(rows) == 9
    assert [int(r.split()[2]) for r in rows] == [86, 86, 181, 241, 378, 426, 761, 819, 1690]
    doc = json.loads((tmp_path / "dse.json").read_text())
    assert len(doc["results"]) == 9
    assert doc["selected"] is None


def test_dse_selects_under_reachable_floor(tmp_path):
    ds_path = tmp_path / "tiny.jsonl"
    tr.save_dataset(ds_path, _cluster_dataset())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "dse": {"folds": 2, "cs_floor": 0.01},
                "train": {"epochs": 2, "patience": 1},
            }
        )
    )
    proc = run_cli(
        "dse", "--dataset", ds_path, "--grid", "table3", "--config", cfg_path,
        "--out", tmp_path / "dse.json", "--jobs", 2,
    )
    assert proc.returncode == 0, proc.stderr
    assert "selected: " in proc.stdout
    doc = json.loads((tmp_path / "dse.json").read_text())
    sel = doc["selected"]
    assert sel is not None
    assert sel["topology"][0] == 40 and sel["topology"][-1] == 3


def _cluster_dataset():
    rng = np.random.default_rng(0)
    centers = {
        SpikeClass.CS: np.linspace(-90.0, 90.0, 40),
        SpikeClass.SS: np.linspace(90.0, -90.0, 40),
        SpikeClass.F: np.zeros(40),
    }
    ds = []
    for i, klass in enumerate(SpikeClass):
        for j in range(20):
            w = np.clip(np.round(centers[klass] + rng.normal(0, 4.0, 40)), -128, 127)
            ds.append(tr.LabeledWaveform(w.astype(np.int8), klass, i * 10_000 + j * 100))
    return ds


def test_report_subcommand():
    rep = run_json("report")
    assert abs(rep["power_w"]["classifier_w"] - 3.11e-5) < 1e-12
    assert rep["assumptions"]["battery_voltage_v"] == 1.5
    assert rep["assumptions"]["detector_energy_basis"] == "per_sample"
    assert rep["storage"]["required_bytes"] == 1_440_000  # one hour at 100 Hz
    assert rep["storage"]["fits"] is True
    assert rep["storage"]["capacity_duration_s"] == 32 * 2**20 / 400.0
    assert 3.0 < rep["battery_life_days"] < 6.0

    day = run_json("report", "--duration-s", 86400)
    assert day["storage"]["required_bytes"] == 34_560_000
    assert day["storage"]["fits"] is False  # a full day overflows 32 MiB


def test_exit_codes(tmp_path, chain):
    p, _ = chain

    assert run_cli().returncode == 1  # missing subcommand
    assert run_cli("generate", "--annotations", tmp_path / "x.csv").returncode == 1

    bad_section = tmp_path / "bad1.json"
    bad_section.write_text(json.dumps({"nope": {}}))
    proc = run_cli("report", "--config", bad_section)
    assert proc.returncode == 1 and "unknown sections" in proc.stderr

    bad_key = tmp_path / "bad2.json"
    bad_key.write_text(json.dumps({"detector": {"bogus": 1}}))
    proc = run_cli("report", "--config", bad_key)
    assert proc.returncode == 1 and "unknown keys" in proc.stderr

    not_json = tmp_path / "bad3.json"
    not_json.write_text("{nope")
    assert run_cli("report", "--config", not_json).returncode == 1

    assert run_cli("detect", "--in", tmp_path / "missing.spkr").returncode == 2

    junk = tmp_path / "junk.spkr"
    junk.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    assert run_cli("detect", "--in", junk).returncode == 2
    assert (
        run_cli("metrics", "--events", junk, "--annotations", p["ann"]).returncode == 2
    )

    proc = run_cli("run", "--in", p["rec"], "--model", p["model"], "--out", tmp_path / "e.spkevt")
    assert proc.returncode == 1 and "quantized" in proc.stderr

    assert run_cli("train", "--dataset", p["ds"], "--topology", "40,x,3", "--out", tmp_path / "m.json").returncode == 1
    assert run_cli("train", "--dataset", p["ds"], "--topology", "39,3", "--out", tmp_path / "m.json").returncode == 1


@pytest.fixture
def model_files(tmp_path):
    """A valid recording, float model and quantized model (40-3), as files."""
    recording = np.zeros(100, dtype=np.int16)
    signal.write_recording(tmp_path / "r.spkr", recording, signal.RecordingConfig())
    weights = np.ones((3, 40))
    nn.save_model(tmp_path / "f.json", nn.MlpModel([nn.Layer(weights, np.zeros(3), "linear")]))
    layer = nn.QuantizedLayer(
        weights.astype(np.int8), np.zeros(3, dtype=np.int32), "linear", 1.0, 1.0, 1.0
    )
    nn.save_model(tmp_path / "q.json", nn.QuantizedMlpModel([layer]))
    return tmp_path


def _corrupt(path, key, value):
    doc = json.loads(path.read_text())
    doc["layers"][0][key] = value
    path.write_text(json.dumps(doc))


def main_exit(capsys, *args, blame=""):
    """Run the CLI in-process; an escaping exception fails the test outright.

    A failing run must print one error line that names `blame`.
    """
    code = cli.main([str(a) for a in args])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and blame in err
    return code


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("q", "input_scale", "abc"),
        ("q", "q_weights", [["abc"] * 40] * 3),
        ("f", "weights", [["abc"] * 40] * 3),
        ("q", "q_biases", [2**70, 0, 0]),
    ],
)
def test_malformed_model_exits_2(capsys, model_files, kind, key, value):
    model = model_files / f"{kind}.json"
    _corrupt(model, key, value)
    out = model_files / "out"
    if kind == "q":
        run = ("run", "--in", model_files / "r.spkr", "--model", model, "--out", out)
        assert main_exit(capsys, *run, blame=model.name) == 2
    quantize = ("quantize", "--model", model, "--calib", model_files / "none.jsonl", "--out", out)
    assert main_exit(capsys, *quantize, blame=model.name) == 2


def test_malformed_dataset_exits_2(capsys, tmp_path):
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
        assert main_exit(capsys, *train, blame="ds.jsonl:1") == 2
    ds.write_bytes(json.dumps(line).encode() + b"\n\xff\xfe\n")
    assert main_exit(capsys, *train, blame="ds.jsonl:2") == 2


def test_non_utf8_files_exit_cleanly(capsys, model_files):
    root = model_files
    junk = root / "junk.json"
    junk.write_bytes(b"\xff\xfe\x00\x81")
    assert main_exit(capsys, "report", "--config", junk, blame="junk.json") == 1
    quantize = ("quantize", "--model", junk, "--calib", junk, "--out", root / "o.json")
    assert main_exit(capsys, *quantize, blame="junk.json") == 2


def test_unreadable_files_exit_2(capsys, model_files):
    root = model_files
    run = ("run", "--in", root, "--model", root / "q.json", "--out", root / "e.spkevt")
    assert main_exit(capsys, *run, blame="Is a directory") == 2
    build = ("build-dataset", "--in", root / "r.spkr", "--out", root / "ds.jsonl")
    ann = root / "ann.csv"
    for body in (
        b"sample_index,label\n10,SS\n\xff\xfe,CS\n",  # not UTF-8
        b"sample_index,label\n" + b"1" * 200_000 + b",SS\n",  # beyond csv's field limit
    ):
        ann.write_bytes(body)
        assert main_exit(capsys, *build, "--annotations", ann, blame="ann.csv") == 2


def test_negative_seeds_exit_1(capsys, tmp_path):
    ds = tmp_path / "ds.jsonl"
    ds.write_text(json.dumps({"tick": 5, "label": "SS", "waveform": [0] * 40}) + "\n")
    generate = ("generate", "--out", tmp_path / "r.spkr", "--annotations", tmp_path / "a.csv")
    for args in (
        generate,
        ("train", "--dataset", ds, "--topology", "40,3", "--out", tmp_path / "m.json"),
        ("dse", "--dataset", ds),
    ):
        assert main_exit(capsys, *args, "--seed", "-1", blame="--seed") == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recording": {"seed": -3}}))
    assert main_exit(capsys, *generate, "--config", cfg, blame="seed") == 1
    assert not (tmp_path / "r.spkr").exists()


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
    ],
)
def test_malformed_config_value_exits_1(capsys, tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main_exit(capsys, "report", "--config", path, blame=f"'{next(iter(doc))}'") == 1


def test_config_value_types(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    # an integer where a float is declared, and null where the field allows it
    path.write_text(json.dumps({"train": {"learning_rate": 1}, "detector": {"neo_clip_ratio": None}}))
    assert main_exit(capsys, "report", "--config", path) == 0
    ds = tmp_path / "ds.jsonl"
    ds.write_text(json.dumps({"tick": 5, "label": "SS", "waveform": [0] * 40}) + "\n")
    path.write_text(json.dumps({"train": {"batch_size": 2.5}}))
    train = ("train", "--dataset", ds, "--topology", "40,3", "--out", tmp_path / "m.json")
    assert main_exit(capsys, *train, "--config", path, blame="'train'") == 1


def test_config_override(chain, tmp_path):
    p, out = chain
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"postprocess": {"dead_zone_ms": 0.0}}))
    rep = run_json(
        "postprocess", "--in", p["events"], "--out", tmp_path / "same.spkevt",
        "--config", cfg,
    )
    assert rep["removed"] == 0
    assert rep["dead_zone_ms"] == 0.0


def test_help_text():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "config file sections" in proc.stdout
    assert "build-dataset" in proc.stdout
