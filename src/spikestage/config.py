"""Configuration sections, the rule every config value follows, and the loader.

A section is valid by the same rule however it is built, from a JSON config
file, by a flag override through ``dataclasses.replace`` or by a Python
constructor: every value has its field's declared type (``_check_fields``)
and passes the section's own range rules.  A config file holds one JSON
object per section, all optional; unknown sections or keys are rejected.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass

from .errors import ValidationError


@functools.cache
def _field_types(cls) -> dict:
    """Each field's declared type; resolving the annotations costs far more than a check."""
    return typing.get_type_hints(cls)


def _check_fields(section) -> None:
    """Refuse a value that does not have its field's declared type.

    An int is accepted for a float; a bool is never a number; None only where
    the field declares it; a float field's value, int or float, must be finite
    as a float; a tuple's entries follow the same rule.  Every section calls
    this first, so its own range rules compare plain numbers (NaN is gone by
    then).
    """
    for name, hint in _field_types(type(section)).items():
        _check_value(name, getattr(section, name), hint)


def _check_value(name: str, value, hint) -> None:
    if typing.get_origin(hint) is tuple:
        entry_hints = typing.get_args(hint)
        if isinstance(value, tuple) and entry_hints[-1] is Ellipsis:  # tuple[X, ...]: any length
            entry_hints = entry_hints[:1] * len(value)
        if not isinstance(value, tuple) or len(value) != len(entry_hints):
            raise ValidationError(f"{name} must be {hint}, not {value!r}")
        for entry, entry_hint in zip(value, entry_hints):
            _check_value(name, entry, entry_hint)
        return
    allowed = typing.get_args(hint) or (hint,)  # the members of a union such as float | None
    if float in allowed:
        allowed += (int,)
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        names = " or ".join("None" if t is type(None) else t.__name__ for t in allowed)
        raise ValidationError(f"{name} must be {names}, not {value!r}")
    if float in allowed and value is not None:
        try:
            finite = math.isfinite(value)  # converts an int to float
        except OverflowError:
            raise ValidationError(f"{name} must be finite, not an int beyond the float range") from None
        if not finite:
            raise ValidationError(f"{name} must be finite, not {value!r}")


@dataclass(frozen=True)
class RecordingConfig:
    sample_rate_hz: float = 24414.0
    adc_bits: int = 10
    duration_s: float = 60.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.sample_rate_hz <= 0:
            raise ValidationError("sample_rate_hz must be positive")
        if not 2 <= self.adc_bits <= 16:
            raise ValidationError("adc_bits must be in [2, 16]")
        if self.duration_s <= 0:
            raise ValidationError("duration_s must be positive")
        if not math.isfinite(self.duration_s * self.sample_rate_hz):
            raise ValidationError("duration_s * sample_rate_hz must be finite")
        if self.num_samples < 1:
            raise ValidationError("duration_s must span at least one sample")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

    @property
    def num_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    @property
    def adc_min(self) -> int:
        return -(2 ** (self.adc_bits - 1))

    @property
    def adc_max(self) -> int:
        return 2 ** (self.adc_bits - 1) - 1


@dataclass(frozen=True)
class SynthesisParams:
    ss_rate_hz: float = 90.0  # simple-spike Poisson rate
    cs_rate_hz: float = 1.0  # complex-spike Poisson rate
    noise_sigma: float = 10.0  # ADC counts
    drift_amplitude: float = 20.0  # ADC counts, sinusoid peak and walk span
    drift_period_s: float = 5.0
    offset: float = 0.0  # constant baseline, ADC counts
    saturation_prob: float = 1e-4  # per-sample chance a rail-pinned run starts
    min_interval_ms: float = 4.0  # enforced across both spike classes

    def __post_init__(self):
        _check_fields(self)
        if min(self.ss_rate_hz, self.cs_rate_hz) < 0:
            raise ValidationError("spike rates must be non-negative")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be non-negative")
        if self.drift_period_s <= 0:
            raise ValidationError("drift_period_s must be positive")
        if not 0 <= self.saturation_prob < 1:
            raise ValidationError("saturation_prob must be in [0, 1)")
        if self.min_interval_ms <= 0:
            raise ValidationError("min_interval_ms must be positive")


@dataclass(frozen=True)
class DetectorConfig:
    alpha_signal: float = 0.5  # IIR coefficient on the raw samples
    alpha_neo: float = 0.125  # IIR coefficient on the energy stream
    threshold_gain: float = 8.0  # threshold = gain * mean energy
    alpha_threshold: float = 1.0 / 1024.0  # EMA coefficient of the mean
    convergence_epsilon: float = 0.01  # relative threshold change per tick
    convergence_window: int = 4096  # consecutive quiet ticks required
    # Energy values feeding the mean are clipped at this multiple of the
    # current mean; spikes then perturb the EMA by at most a factor
    # (1 + alpha * (ratio - 1)) per tick and convergence stays reachable on
    # spiking inputs.  Set to None to disable clipping.
    neo_clip_ratio: float | None = 3.0

    def __post_init__(self):
        _check_fields(self)
        for name in ("alpha_signal", "alpha_neo", "alpha_threshold"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must be in (0, 1]")
        for name in ("threshold_gain", "convergence_epsilon"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.convergence_window < 1:
            raise ValidationError("convergence_window must be at least 1")
        if self.neo_clip_ratio is not None and self.neo_clip_ratio <= 1.0:
            raise ValidationError("neo_clip_ratio must exceed 1")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    patience: int = 10  # epochs without validation improvement
    val_fraction: float = 0.10  # held out of the training set for early stopping
    test_fraction: float = 0.20  # final train/test split
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    ortho_lambda: float = 0.01  # orthogonality regularization factor

    def __post_init__(self):
        _check_fields(self)
        if self.epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ValidationError("epochs, patience, and batch_size must be positive")
        if not (0.0 <= self.val_fraction < 1.0 and 0.0 < self.test_fraction < 1.0):
            raise ValidationError("need 0 <= val_fraction < 1 and 0 < test_fraction < 1")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.ortho_lambda < 0:
            raise ValidationError("ortho_lambda must be non-negative")


@dataclass(frozen=True)
class DseConfig:
    # (lo, hi) size range of each hidden layer, none wider than the one before;
    # their count is the deepest search
    hidden_ranges: tuple[tuple[int, int], ...] = ((1, 40), (1, 20), (1, 10), (1, 10))
    folds: int = 10
    cs_floor: float = 0.90  # CS accuracy CI lower bound must exceed this
    confidence: float = 0.95
    ortho_lambdas: tuple[float, ...] = (0.01, 0.001)

    def __post_init__(self):
        _check_fields(self)
        if self.folds < 2:
            raise ValidationError("folds must be at least 2")
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError("confidence must be in (0, 1)")
        if not all(1 <= lo <= hi for lo, hi in self.hidden_ranges):
            raise ValidationError("each hidden_ranges pair (lo, hi) needs 1 <= lo <= hi")
        if not self.ortho_lambdas or min(self.ortho_lambdas) < 0:
            raise ValidationError("ortho_lambdas must be one or more non-negative numbers")


@dataclass(frozen=True)
class ResourceModel:
    """Published energy figures and deployment constants.

    Energies are per operation; the detector figure is one full
    detection cycle.  The section holds no sample rate: the ADC, and the
    detector under the per_sample basis, are charged once per sample at
    recording.sample_rate_hz.  The battery voltage is an assumption (the
    cell chemistry is not part of the published figures) and is echoed in
    every report that uses it.
    """

    e_detect_nj: float = 4.46  # one detection cycle
    e_classify_nj: float = 311.0  # one classification
    e_store_nj: float = 0.28  # one stored event
    e_adc_pj: float = 0.5  # one ADC conversion
    spike_rate_hz: float = 100.0  # sustained event rate for sizing
    battery_capacity_mah: float = 12.0
    battery_voltage_v: float = 1.5  # assumed cell voltage
    storage_capacity_bytes: int = 32 * 2**20
    # "per_sample" charges one detection cycle per ADC sample, matching the
    # always-on front end; "per_event" charges it once per detected spike.
    detector_energy_basis: str = "per_sample"

    def __post_init__(self):
        _check_fields(self)
        if self.detector_energy_basis not in ("per_sample", "per_event"):
            raise ValidationError(f"unknown detector_energy_basis {self.detector_energy_basis!r}")
        for name, hint in _field_types(ResourceModel).items():
            if hint in (float, int) and getattr(self, name) < 0:  # every figure but the basis
                raise ValidationError(f"{name} must be non-negative")
        if self.spike_rate_hz == 0:  # the storage capacity is spread over this rate
            raise ValidationError("spike_rate_hz must be positive")


@dataclass(frozen=True)
class PostprocConfig:
    # After every retained SS event, all events closer than this are
    # physiologically implausible echoes and are discarded.  Zones are
    # opened by retained SS events only; CS events never open one.
    dead_zone_ms: float = 4.0

    def __post_init__(self):
        _check_fields(self)
        if self.dead_zone_ms < 0:
            raise ValidationError("dead_zone_ms must be non-negative")


@dataclass(frozen=True)
class AppConfig:
    recording: RecordingConfig
    synthesis: SynthesisParams
    detector: DetectorConfig
    train: TrainConfig
    dse: DseConfig
    resources: ResourceModel
    postprocess: PostprocConfig


# config section name -> its dataclass, in AppConfig field order
_SECTIONS = typing.get_type_hints(AppConfig)


def _tuples(value):
    """A JSON array becomes a tuple, the sequence type config fields declare."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def load_config(path=None) -> AppConfig:
    """Read a JSON config file; every section missing from it takes its defaults."""
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise ValidationError(f"{path}: config is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: config root must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ValidationError(f"config has unknown sections: {sorted(unknown)}")
    sections = {}
    for name, cls in _SECTIONS.items():
        body = doc.get(name, {})
        if not isinstance(body, dict):
            raise ValidationError(f"config section '{name}' must be a JSON object")
        unknown = set(body) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValidationError(f"config section '{name}' has unknown keys: {sorted(unknown)}")
        try:
            sections[name] = cls(**{key: _tuples(value) for key, value in body.items()})
        except ValidationError as exc:
            raise ValidationError(f"config section '{name}': {exc}") from exc
    return AppConfig(**sections)


def config_help() -> str:
    """Every section and its defaults, as the CLI's --help lists them."""
    lines = ["config file sections and defaults (JSON, all optional):"]
    for name, cls in _SECTIONS.items():
        lines.append(f"  {name}:")
        for f in dataclasses.fields(cls):
            lines.append(f"    {f.name} = {f.default!r}")
    return "\n".join(lines)
