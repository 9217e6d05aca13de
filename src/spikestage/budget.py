"""Power and storage budget of a deployment, as `report` prints it.

Plain arithmetic on the published figures in config.ResourceModel: average
power per subsystem, battery life, and the storage a run needs or the
configured storage holds.  The ADC and an always-on detector run once per
sample, at the one sample rate a config holds, recording.sample_rate_hz,
which the caller passes in.  It imports no numerical library, so `report`
starts without numpy.  A stored event is one RECORD_BYTES word; store
holds the word's layout.
"""

from __future__ import annotations

import math

from .config import ResourceModel
from .errors import ValidationError

RECORD_BYTES = 4


def storage_required(duration_s: float, spike_rate_hz: float) -> int:
    """Bytes needed to store every event of a run, rounded up to whole events."""
    events = duration_s * spike_rate_hz
    if not (duration_s >= 0 and spike_rate_hz >= 0 and math.isfinite(events)):
        raise ValidationError("duration and spike rate must be non-negative and finite")
    return int(math.ceil(events)) * RECORD_BYTES


def capacity_duration_s(model: ResourceModel) -> float:
    """How long the configured storage holds events at the sustained spike rate, in seconds."""
    try:
        seconds = model.storage_capacity_bytes / (model.spike_rate_hz * RECORD_BYTES)
    except OverflowError:  # a capacity beyond the float range
        seconds = math.inf
    if not math.isfinite(seconds):
        raise ValidationError("storage_capacity_bytes lasts more seconds than a float holds")
    return seconds


def power_breakdown(model: ResourceModel, sample_rate_hz: float) -> dict[str, float]:
    """Average power per subsystem, in watts, for a recording sampled at sample_rate_hz."""
    adc = sample_rate_hz * model.e_adc_pj * 1e-12
    if model.detector_energy_basis == "per_sample":
        detect = sample_rate_hz * model.e_detect_nj * 1e-9
    else:
        detect = model.spike_rate_hz * model.e_detect_nj * 1e-9
    classify = model.spike_rate_hz * model.e_classify_nj * 1e-9
    store_p = model.spike_rate_hz * model.e_store_nj * 1e-9
    return {
        "adc_w": adc,
        "detector_w": detect,
        "classifier_w": classify,
        "storage_w": store_p,
        "total_w": adc + detect + classify + store_p,
    }


def battery_life_days(model: ResourceModel, total_w: float) -> float:
    """How long the configured battery sustains an average power of total_w watts, in days."""
    if total_w <= 0:
        raise ValidationError("average power must be positive to size a battery")
    energy_j = model.battery_capacity_mah / 1000.0 * 3600.0 * model.battery_voltage_v
    return energy_j / total_w / 86400.0
