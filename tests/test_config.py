import dataclasses
import math

import numpy as np
import pytest

from spikestage.config import (
    DetectorConfig,
    DseConfig,
    PostprocConfig,
    RecordingConfig,
    ResourceModel,
    SynthesisParams,
    TrainConfig,
)
from spikestage.errors import ValidationError


@pytest.mark.parametrize(
    "cls, key, value",
    [
        (TrainConfig, "batch_size", 2.5),
        (DetectorConfig, "convergence_window", True),
        (RecordingConfig, "seed", "x"),
        (DseConfig, "hidden_ranges", ((1, "x"),)),
        (DseConfig, "hidden_ranges", ((1,), (1, 2))),
        (DseConfig, "hidden_ranges", [(1, 2)]),
        (DseConfig, "ortho_lambdas", (0.01, True)),
        (TrainConfig, "test_fraction", 0),  # an int for a float, but outside (0, 1)
        (DetectorConfig, "alpha_signal", None),
        (ResourceModel, "detector_energy_basis", None),
        (SynthesisParams, "offset", False),
        (PostprocConfig, "dead_zone_ms", "4"),
        (TrainConfig, "beta2", math.nan),
        (DseConfig, "ortho_lambdas", (0.01, -math.inf)),
        # of the declared type, but outside the section's range rules
        (DseConfig, "hidden_ranges", ((0, 3),)),
        (DseConfig, "hidden_ranges", ((1, 40), (5, 2))),
        (DseConfig, "ortho_lambdas", (-0.5,)),
        (DseConfig, "ortho_lambdas", ()),  # a search over no candidate
        (ResourceModel, "storage_capacity_bytes", -1),
    ],
)
def test_constructors_refuse_wrong_types(cls, key, value):
    with pytest.raises(ValidationError, match=key):
        cls(**{key: value})
    # a flag override goes through the same check
    with pytest.raises(ValidationError, match=key):
        dataclasses.replace(cls(), **{key: value})


def test_constructors_accept_declared_types():
    assert TrainConfig(learning_rate=1).learning_rate == 1  # an int for a float
    assert DetectorConfig(neo_clip_ratio=None).neo_clip_ratio is None
    assert RecordingConfig(duration_s=np.float64(2.5)).num_samples == 61035
    assert DseConfig(hidden_ranges=(), ortho_lambdas=(0, 0.5)).hidden_ranges == ()
    assert DseConfig(hidden_ranges=((1, 1), (3, 3))).hidden_ranges == ((1, 1), (3, 3))
    assert ResourceModel(storage_capacity_bytes=0).storage_capacity_bytes == 0
