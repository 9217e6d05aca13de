import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spikestage import cli, nn, signal
from spikestage import train as tr
from spikestage.config import RecordingConfig, SynthesisParams, TrainConfig


@pytest.fixture(scope="session")
def recording():
    """60 s synthetic recording shared by the unit tests."""
    cfg = RecordingConfig(duration_s=60.0, seed=1234)
    samples, annotations = signal.generate_recording(cfg, SynthesisParams())
    return samples, annotations, cfg


@pytest.fixture(scope="session")
def dataset(recording):
    samples, annotations, cfg = recording
    return tr.build_dataset(samples.astype(np.float64), annotations, cfg.sample_rate_hz)


@pytest.fixture(scope="session")
def trained(dataset):
    """A trained float model, its quantized form, and the held-out split."""
    train_part, test_part = tr.train_test_split(dataset, 0.20, seed=5)
    processed = tr.filter_outliers(tr.balance_classes(train_part, seed=5))
    model, _ = tr.train_mlp(
        processed, (40, 8, 8, 3, 3, 3), TrainConfig(ortho_lambda=0.001), seed=5
    )
    qmodel = nn.quantize(model, tr.dataset_arrays(processed)[0])
    return model, qmodel, test_part, processed


def _refuse_constant(name):
    raise ValueError(f"stdout holds {name}, which strict JSON has no value for")


@pytest.fixture(scope="session")
def cli_run():
    """spike-pipeline on the given arguments, checked against its whole exit contract.

    The CLI runs in-process through cli.main, where an escaping exception
    fails the test, unless `hash_seed` is given: then it runs as
    `python -m spikestage.cli` in a fresh interpreter with that
    PYTHONHASHSEED, for what only a new process shows.

    The exit code must be `code`, or one of them when it is a tuple.  On
    exit 0 stderr is empty and stdout is one strict JSON document, returned
    parsed; `dse` prints a table and `--help` the usage, returned as text.
    On any other exit stdout is empty (but for the table `dse` prints before
    exit 3) and stderr is one `error: ` line under 1,000 characters naming
    `blame`, with no traceback; stdout is returned.
    """

    def run(*args, code=0, blame="", hash_seed=None):
        argv = [str(a) for a in args]
        if hash_seed is None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    got = cli.main(argv)
                except SystemExit as exc:  # argparse ends --help this way
                    assert "--help" in argv, f"SystemExit({exc.code}) escaped cli.main"
                    got = exc.code
            out, err = out.getvalue(), err.getvalue()
        else:
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
            proc = subprocess.run(
                [sys.executable, "-m", "spikestage.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            got, out, err = proc.returncode, proc.stdout, proc.stderr
        assert got in (code if isinstance(code, tuple) else (code,)), (argv, got, err)
        if got == 0:
            assert err == "", err
            if argv[:1] == ["dse"] or "--help" in argv:
                return out
            return json.loads(out, parse_constant=_refuse_constant)
        assert out == "" or (argv[:1] == ["dse"] and got == 3), out
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
        assert len(err) < 1_000, err[:200]  # a culprit read from a file is shown cut short
        assert blame in err and "Traceback" not in err, err
        return out

    return run
