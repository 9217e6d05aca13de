"""Spike detection, classification, and storage pipeline for neural recordings.

Stages: synthetic recording generation (signal), adaptive-threshold NEO
detection (detector), int8 MLP classification (nn, train), the deployment
state machine tying them together (pipeline), compact event storage and
resource budgeting (store), and offline scoring (analysis).
"""

from .analysis import (
    ConfusionMatrix,
    PostprocConfig,
    accuracy,
    apply_dead_zone,
    match_events,
    metrics_report,
    overall_accuracy,
)
from .detector import (
    DetectorConfig,
    DetectorState,
    detection_candidates,
    detector_step,
    detector_trace,
    request_reconvergence,
)
from .errors import FormatError, InfeasibleError, SpikestageError, ValidationError
from .nn import (
    MlpModel,
    QuantizedMlpModel,
    SpikeClass,
    load_model,
    quantize,
    save_model,
)
from .pipeline import (
    Pipeline,
    PipelineEvent,
    PipelineOptions,
    RunStats,
    capture_detections,
    run_pipeline,
)
from .signal import (
    Annotation,
    RecordingConfig,
    SynthesisParams,
    generate_recording,
    read_annotations,
    read_recording,
    write_annotations,
    write_recording,
)
from .store import (
    EventRecord,
    ResourceModel,
    battery_life_days,
    power_breakdown,
    read_event_log,
    storage_required,
    write_event_log,
)
from .train import (
    Dataset,
    DseConfig,
    TrainConfig,
    balance_classes,
    build_dataset,
    complexity,
    cross_validate,
    dse_select,
    filter_outliers,
    load_dataset,
    run_dse,
    save_dataset,
    train_mlp,
    train_test_split,
)

__version__ = "0.1.0"
