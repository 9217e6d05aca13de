"""Every file reader refuses a corrupt file with a SpikestageError, never another exception.

The commands that read those files turn the refusal into exit 1 or 2 and one
`error:` line.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikestage import cli, nn, signal, store
from spikestage import train as tr
from spikestage.config import RecordingConfig
from spikestage.errors import SpikestageError
from spikestage.nn import SpikeClass

READERS = {
    "recording": signal.read_recording,
    "annotations": signal.read_annotations,
    "dataset": tr.load_dataset,
    "float_model": nn.load_model,
    "quantized_model": nn.load_model,
    "event_log": store.read_event_log,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of one small valid file per format, keyed as READERS is."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(3)
    weights = rng.integers(-128, 128, (3, 40))
    events = [store.EventRecord(7, SpikeClass.SS), store.EventRecord(90, SpikeClass.CS)]
    writers = {
        "recording": lambda p: signal.write_recording(
            p, rng.integers(-512, 512, 64).astype(np.int16), RecordingConfig()
        ),
        "annotations": lambda p: signal.write_annotations(
            p, [signal.Annotation(10, SpikeClass.SS), signal.Annotation(50, SpikeClass.CS)]
        ),
        "dataset": lambda p: tr.save_dataset(
            p, tr.Dataset(weights.astype(np.int8), np.array([0, 1, 2]), np.array([5, 90, 95]))
        ),
        "float_model": lambda p: nn.save_model(
            p, nn.MlpModel([nn.Layer(weights / 256.0, np.array([0.5, -1.0, 2.0]), "linear")])
        ),
        "quantized_model": lambda p: nn.save_model(
            p,
            nn.QuantizedMlpModel(
                [nn.QuantizedLayer(weights, np.array([1, -2, 3]), "linear", 1.0, 0.5, 0.25)]
            ),
        ),
        "event_log": lambda p: store.write_event_log(p, events, 24414.0),
    }
    files = {}
    for name, write in writers.items():
        write(root / name)
        READERS[name](root / name)  # the unmutated file reads
        files[name] = (root / name).read_bytes()
    return files


MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
        st.tuples(st.just("insert"), st.integers(0, 2**16), st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("delete"), st.integers(0, 2**16), st.integers(1, 4)),
        st.tuples(st.just("truncate"), st.integers(0, 2**16), st.just(None)),
    ),
    min_size=1,
    max_size=3,
)


def mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, pos, arg in mutations:
        at = pos % (len(buf) + 1)
        if kind == "flip":
            if buf:
                buf[pos % len(buf)] ^= arg
        elif kind == "insert":
            buf[at:at] = arg
        elif kind == "delete":
            del buf[at : at + arg]
        else:
            del buf[at:]
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), mutations=MUTATIONS)
def test_mutated_files_raise_only_spikestage_errors(tmp_path_factory, valid_files, name, mutations):
    path = tmp_path_factory.getbasetemp() / f"mutated_{name}"
    path.write_bytes(mutate(valid_files[name], mutations))
    try:
        READERS[name](path)
    except SpikestageError:
        pass


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), data=st.binary(max_size=256))
def test_random_files_raise_only_spikestage_errors(tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / f"random_{name}"
    path.write_bytes(data)
    try:
        READERS[name](path)
    except SpikestageError:
        pass


# one command per file it reads, as (the format of the mutated file, argv);
# a {name} argument is the valid file of that format
CLI_READS = [
    ("quantized_model", "run --in {recording} --model {mutated} --out {out}"),
    ("recording", "run --in {mutated} --model {quantized_model} --out {out}"),
    ("dataset", "train --dataset {mutated} --topology 40,3 --out {out} --config {config}"),
    ("event_log", "metrics --events {mutated} --annotations {annotations}"),
    ("annotations", "metrics --events {event_log} --annotations {mutated}"),
    ("event_log", "postprocess --in {mutated} --out {out}"),
]


def run_cli(argv: str, paths) -> tuple[int, str]:
    """cli.main in-process on argv's {name} arguments filled from paths; (exit code, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([arg.format(**paths) for arg in argv.split()])
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory, valid_files):
    root = tmp_path_factory.mktemp("cli")
    paths = {name: root / name for name in valid_files}
    for name, data in valid_files.items():
        paths[name].write_bytes(data)
    paths["config"] = root / "config.json"
    paths["config"].write_text(json.dumps({"train": {"epochs": 2}}))
    paths.update(mutated=root / "mutated", out=root / "out")
    for name, argv in CLI_READS:  # each command runs on the unmutated file
        paths["mutated"].write_bytes(valid_files[name])
        assert run_cli(argv, paths) == (0, "")
    return paths


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CLI_READS), mutations=MUTATIONS)
def test_commands_refuse_mutated_files_with_an_error_line(cli_paths, valid_files, case, mutations):
    name, argv = case
    cli_paths["mutated"].write_bytes(mutate(valid_files[name], mutations))
    try:
        READERS[name](cli_paths["mutated"])
        refused = False
    except SpikestageError:
        refused = True
    code, err = run_cli(argv, cli_paths)
    # a mutation the reader accepts is a valid file, which the command may run
    assert code in ((1, 2) if refused else (0, 1, 2))
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
