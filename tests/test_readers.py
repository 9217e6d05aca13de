"""Every file reader refuses a corrupt file with a SpikestageError, never another exception.

The commands that read those files turn the refusal into exit 1 or 2 and one
`error:` line.

Each example writes its file anew: a path is unlinked before it is written.
On ext4 (its default auto_da_alloc), truncating a file that holds data
flushes it to disk when it closes, tens of milliseconds per write; writing
a new file costs far less.
"""

import json
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikestage import nn, signal, store
from spikestage import train as tr
from spikestage.config import RecordingConfig
from spikestage.errors import FormatError, SpikestageError
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
            p, [store.EventRecord(10, SpikeClass.SS), store.EventRecord(50, SpikeClass.CS)]
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


# Row 0 of the valid dataset with the space after its 38th code flipped to
# 0xe7, "...38, 38, 50,\xe794, -54]}": a form check that backtracks
# exponentially on the 37 numbers before the stray byte hangs on it.
STRAY_BYTE_DATASET = ("dataset", [("flip", 214, 0x20 ^ 0xE7)])


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), mutations=MUTATIONS)
@example(*STRAY_BYTE_DATASET)
def test_mutated_files_raise_only_spikestage_errors(tmp_path_factory, valid_files, name, mutations):
    path = tmp_path_factory.getbasetemp() / f"mutated_{name}"
    path.unlink(missing_ok=True)
    path.write_bytes(mutate(valid_files[name], mutations))
    try:
        READERS[name](path)
    except SpikestageError:
        pass


def test_dataset_form_check_takes_linear_time(tmp_path, valid_files):
    name, mutations = STRAY_BYTE_DATASET
    mutant = mutate(valid_files[name], mutations)
    assert b"50,\xe794, -54]}" in mutant
    path = tmp_path / "mutant.jsonl"
    for data in (mutant, valid_files[name] * 2000 + mutant):
        path.write_bytes(data)
        started = time.perf_counter()
        with pytest.raises(FormatError, match="codec can't decode byte 0xe7"):
            tr.load_dataset(path)
        assert time.perf_counter() - started < 5.0


def dataset_or_error(read, path):
    """read(path)'s columns as lists, or the message of the FormatError it raised."""
    try:
        ds = read(path)
    except FormatError as exc:
        return str(exc)
    return ds.ticks.tolist(), ds.labels.tolist(), ds.waveforms.tolist()


def read_lines(path):
    with open(path, "rb") as fh:
        return tr.load_dataset_lines(path, fh)


@settings(max_examples=300, deadline=None)
@given(mutations=MUTATIONS)
@example(STRAY_BYTE_DATASET[1])
def test_mutated_dataset_reads_as_the_line_reader_reads_it(tmp_path_factory, valid_files, mutations):
    path = tmp_path_factory.getbasetemp() / "mutated_dataset_lines"
    path.unlink(missing_ok=True)
    path.write_bytes(mutate(valid_files["dataset"], mutations))
    assert dataset_or_error(tr.load_dataset, path) == dataset_or_error(read_lines, path)


# A code that int8 wraps to -56 and a tick that int64 clamps: a bulk parse
# that did not render its rows back to the file's bytes would misread both
CRAFTED_DATASETS = {
    "code-200": lambda data: re.sub(rb"\[-?[0-9]+", b"[200", data, count=1),
    "20-digit-tick": lambda data: data.replace(b'"tick": 5,', b'"tick": 99999999999999999999,'),
    "stray-byte": lambda data: mutate(data, STRAY_BYTE_DATASET[1]),
    "no-final-newline": lambda data: data[:-1],
}


@pytest.mark.parametrize("craft", CRAFTED_DATASETS.values(), ids=CRAFTED_DATASETS)
def test_crafted_dataset_reads_as_the_line_reader_reads_it(tmp_path, valid_files, craft):
    data = craft(valid_files["dataset"])
    assert data != valid_files["dataset"]
    path = tmp_path / "crafted.jsonl"
    path.write_bytes(data)
    assert dataset_or_error(tr.load_dataset, path) == dataset_or_error(read_lines, path)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), data=st.binary(max_size=256))
def test_random_files_raise_only_spikestage_errors(tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / f"random_{name}"
    path.unlink(missing_ok=True)
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


def filled(argv: str, paths) -> list[str]:
    """argv's arguments, each {name} filled from paths."""
    return [arg.format(**paths) for arg in argv.split()]


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory, valid_files, cli_run):
    root = tmp_path_factory.mktemp("cli")
    paths = {name: root / name for name in valid_files}
    for name, data in valid_files.items():
        paths[name].write_bytes(data)
    paths["config"] = root / "config.json"
    paths["config"].write_text(json.dumps({"train": {"epochs": 2}}))
    paths.update(mutated=root / "mutated", out=root / "out")
    for name, argv in CLI_READS:  # each command runs on the unmutated file
        paths["mutated"].write_bytes(valid_files[name])
        cli_run(*filled(argv, paths))
    return paths


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CLI_READS), mutations=MUTATIONS)
def test_commands_refuse_mutated_files_with_an_error_line(
    cli_run, cli_paths, valid_files, case, mutations
):
    name, argv = case
    for written in ("mutated", "out"):  # the command may have written out
        cli_paths[written].unlink(missing_ok=True)
    cli_paths["mutated"].write_bytes(mutate(valid_files[name], mutations))
    try:
        READERS[name](cli_paths["mutated"])
        refused = False
    except SpikestageError:
        refused = True
    # a mutation the reader accepts is a valid file, which the command may run
    if refused:
        cli_run(*filled(argv, cli_paths), code=(1, 2), blame="mutated")
    else:
        cli_run(*filled(argv, cli_paths), code=(0, 1, 2))
