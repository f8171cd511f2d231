"""Real-time doorway people counting over external head-detection streams.

The package tracks detected heads across frames by greedy appearance-feature
association with a spatial gate, turns each track's anchor region into
entry/exit events via a three-region state machine, and ships a deterministic
scenario simulator plus bench/calibration harnesses to verify accuracy and
latency at desk scale. A frame's detections are one `Detections` block of numpy
columns, validated once as the frame is parsed or built.
"""

from .counter import (
    DEFAULT_LAYOUT,
    AccuracyReport,
    CountLedger,
    CrossingEvent,
    EventKind,
    EventLog,
    Orientation,
    Region,
    RegionLayout,
    accuracy,
    classify_region,
    event_to_json,
    tally,
    update_history,
    write_events,
)
from .engine import (
    CalibrationRow,
    ConfigError,
    Engine,
    EngineConfig,
    LatencyStats,
    RunResult,
    bench,
    calibrate,
    run,
    run_frames,
)
from .ingest import (
    DEFAULT_EMBEDDING_DIM,
    DetectionClass,
    Detections,
    EmbeddingDimensionError,
    FrameRecord,
    LightingMode,
    StreamError,
    StreamOrderError,
    StreamParseError,
    classify_lighting,
    filter_heads,
    parse_stream,
    serialize_frame,
    validate_embedding,
    write_stream,
)
from .simulator import (
    ActorIntent,
    ActorSpec,
    DistractionSpec,
    GroundTruth,
    NoiseSpec,
    ScenarioSpec,
    catalog_names,
    evaluate,
    generate,
    make_scenario,
    random_crossings,
    write_ground_truth,
)
from .tracker import (
    AssignmentResult,
    DistanceMatrices,
    StepReport,
    TrackedObject,
    Tracker,
    TrackerConfig,
    associate,
    build_matrices,
)

__version__ = "0.1.0"
