import math

import pytest

from spikestage import budget
from spikestage.config import RecordingConfig, ResourceModel
from spikestage.errors import ValidationError


def test_storage_required():
    assert budget.storage_required(86400.0, 100.0) == 34_560_000
    assert budget.storage_required(1.5, 1.0) == 8  # ceil to 2 events
    assert budget.storage_required(0.0, 100.0) == 0
    bad = [(-1.0, 100.0), (math.nan, 100.0), (math.inf, 100.0), (-math.inf, 100.0)]
    bad += [(10.0, math.nan), (math.inf, 0.0), (1e308, 100.0)]  # a NaN and an infinite product
    for duration_s, rate in bad:
        with pytest.raises(ValidationError):
            budget.storage_required(duration_s, rate)


def test_capacity_duration():
    assert budget.capacity_duration_s(ResourceModel()) == 32 * 2**20 / 400.0
    # an int beyond the float range, and a finite ratio that overflows to infinity
    for model in (
        ResourceModel(storage_capacity_bytes=10**400),
        ResourceModel(storage_capacity_bytes=10**20, spike_rate_hz=1e-300),
    ):
        with pytest.raises(ValidationError, match="storage_capacity_bytes"):
            budget.capacity_duration_s(model)


RATE = RecordingConfig().sample_rate_hz


def test_power_breakdown_reference_numbers():
    model = ResourceModel()
    p = budget.power_breakdown(model, RATE)
    assert math.isclose(p["adc_w"], 24414.0 * 0.5e-12, rel_tol=1e-12)
    assert math.isclose(p["detector_w"], 24414.0 * 4.46e-9, rel_tol=1e-12)
    assert math.isclose(p["classifier_w"], 3.11e-5, rel_tol=1e-12)
    assert round(p["classifier_w"] * 1e6, 1) == 31.1
    assert math.isclose(p["storage_w"], 2.8e-8, rel_tol=1e-12)
    assert p["total_w"] == p["adc_w"] + p["detector_w"] + p["classifier_w"] + p["storage_w"]
    assert math.isclose(p["total_w"], 1.40026647e-4, rel_tol=1e-6)
    assert budget.power_breakdown(model, RATE)["total_w"] == p["total_w"]
    # the ADC and the per-sample detector scale with the recording's rate, nothing else does
    fast = budget.power_breakdown(model, 2 * RATE)
    assert fast["adc_w"] == 2 * p["adc_w"] and fast["detector_w"] == 2 * p["detector_w"]
    assert (fast["classifier_w"], fast["storage_w"]) == (p["classifier_w"], p["storage_w"])


def test_detector_energy_basis():
    per_event = ResourceModel(detector_energy_basis="per_event")
    p = budget.power_breakdown(per_event, RATE)
    assert math.isclose(p["detector_w"], 100.0 * 4.46e-9, rel_tol=1e-12)
    assert p["detector_w"] < budget.power_breakdown(ResourceModel(), RATE)["detector_w"]
    assert budget.power_breakdown(per_event, 2 * RATE)["detector_w"] == p["detector_w"]
    with pytest.raises(ValidationError):
        ResourceModel(detector_energy_basis="per_hour")


def test_battery_life():
    model = ResourceModel()
    total_w = budget.power_breakdown(model, RATE)["total_w"]
    days = budget.battery_life_days(model, total_w)
    energy_j = 12.0 / 1000.0 * 3600.0 * 1.5
    expected = energy_j / total_w / 86400.0
    assert math.isclose(days, expected, rel_tol=1e-12)
    assert math.isclose(days, 5.356, rel_tol=1e-3)
    assert 3.0 < days < 6.0
    dead = ResourceModel(
        e_detect_nj=0.0, e_classify_nj=0.0, e_store_nj=0.0, e_adc_pj=0.0
    )
    with pytest.raises(ValidationError):
        budget.battery_life_days(dead, budget.power_breakdown(dead, RATE)["total_w"])


def test_resource_model_validation():
    with pytest.raises(ValidationError):
        ResourceModel(e_classify_nj=-1.0)
    with pytest.raises(ValidationError):
        ResourceModel(battery_voltage_v=-0.1)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            ResourceModel(e_adc_pj=value)
    # the report spreads the storage capacity over the spike rate
    with pytest.raises(ValidationError, match="spike_rate_hz"):
        ResourceModel(spike_rate_hz=0.0)
    assert budget.storage_required(3600.0, 0.0) == 0
