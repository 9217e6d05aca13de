import numpy as np
import pytest

from spikestage import nn, signal
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
