"""Frame pipeline: parse -> filter -> track -> count, plus bench and calibrate.

One Engine owns one stream's state and processes frames strictly in order, so
counting never observes a track from a different frame. Independent streams
(one per doorway) each get their own engine. Per-frame latency covers only
the engine's own compute (association plus counting), since detector
inference happens upstream.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .counter import (
    DEFAULT_LAYOUT,
    CountLedger,
    CrossingEvent,
    Orientation,
    RegionLayout,
    classify_region,
    tally,
    update_history,
)
from .ingest import FrameRecord, StreamError, filter_heads, parse_stream
from .simulator import GroundTruth, ScenarioSpec, evaluate, generate
from .tracker import Tracker, TrackerConfig

# Frames excluded from latency percentiles while caches and allocator warm up.
WARMUP_FRAMES = 50


class ConfigError(ValueError):
    """Invalid engine configuration (bad field, value, or file)."""


# The stream's number rule: a JSON true/false or string is not a number, and
# a count is an integer. Field names are unique across the config's sections.
_REAL = (int, float)
_FIELD_TYPES = {"feature_threshold": _REAL, "spatial_threshold": _REAL, "miss_limit": (int,),
                "line_ab": _REAL, "line_bc": _REAL, "min_confidence": _REAL,
                "embedding_dim": (int, type(None))}


def _typed(data, section: str = "") -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{section or 'config'} must be a JSON object")
    prefix = f"{section}." if section else ""
    for name, value in data.items():
        types = _FIELD_TYPES.get(name, (type(value),))
        if type(value) not in types:
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ConfigError(f"{prefix}{name} must be {expected}, got {value!r}")
    return data


@dataclass(frozen=True)
class EngineConfig:
    """Everything the pipeline needs; defaults work out of the box.

    embedding_dim=None locks the dimension from the first embedding seen in
    the stream; set it explicitly to enforce a fixed contract (e.g. 1024).
    """

    tracker: TrackerConfig = TrackerConfig()
    layout: RegionLayout = DEFAULT_LAYOUT
    min_confidence: float = 0.5
    embedding_dim: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigError("min_confidence must be in [0, 1]")
        if self.embedding_dim is not None and self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        values = dict(_typed(data))
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            for name, settings in (("tracker", TrackerConfig), ("layout", RegionLayout)):
                section = _typed(values.get(name, {}), name)
                if "orientation" in section:
                    section = {**section, "orientation": Orientation(section["orientation"])}
                values[name] = settings(**section)
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class LatencyStats:
    samples: int
    p50_us: float
    p95_us: float
    p99_us: float

    @property
    def max_fps(self) -> float:
        return 1e6 / self.p95_us if self.p95_us > 0 else float("inf")


@dataclass
class BenchReport:
    """Per-frame engine latency percentiles grouped by simultaneous tracks."""

    groups: dict[int, LatencyStats]
    warmup_excluded: int

    @classmethod
    def from_samples(cls, samples: Sequence[tuple[int, float]]) -> "BenchReport":
        """Build from (track_count, elapsed_us) pairs in collection order.

        The first WARMUP_FRAMES samples are dropped unless the run is too short
        to spare them.
        """
        excluded = WARMUP_FRAMES if len(samples) > WARMUP_FRAMES else 0
        by_count: dict[int, list[float]] = {}
        for count, elapsed_us in samples[excluded:]:
            by_count.setdefault(count, []).append(elapsed_us)
        groups = {}
        for count, values in sorted(by_count.items()):
            p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
            groups[count] = LatencyStats(len(values), float(p50), float(p95), float(p99))
        return cls(groups=groups, warmup_excluded=excluded)

    def to_dict(self) -> dict:
        return {
            "warmup_excluded": self.warmup_excluded,
            "groups": {
                str(count): {
                    "samples": stats.samples,
                    "p50_us": stats.p50_us,
                    "p95_us": stats.p95_us,
                    "p99_us": stats.p99_us,
                    "max_fps": stats.max_fps,
                }
                for count, stats in self.groups.items()
            },
        }


class Engine:
    """Single-stream pipeline state: tracker, ledger, lighting tallies."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.tracker = Tracker(self.config.tracker)
        self.ledger = CountLedger()
        self.lighting_counts = {"day": 0, "night": 0, "unknown": 0}
        self.frames_processed = 0

    def process_frame(self, frame: FrameRecord) -> list[CrossingEvent]:
        """Run one frame through filter -> track -> count; returns new events."""
        mode = frame.lighting
        self.lighting_counts[mode.value if mode is not None else "unknown"] += 1
        kept = filter_heads(frame, self.config.min_confidence)
        dets = frame.detections
        self.tracker.step(dets.embeddings[kept], dets.centers[kept], frame.frame_id)
        events: list[CrossingEvent] = []
        for track in self.tracker.objects:
            region = classify_region(track.center[1], self.config.layout)
            event = update_history(track, region, frame.frame_id, frame.timestamp_ms)
            if event is not None:
                tally(self.ledger, event)
                events.append(event)
        self.frames_processed += 1
        return events


@dataclass
class RunResult:
    ledger: CountLedger
    bench: BenchReport
    frames: int
    lighting_counts: dict
    track_ids_issued: int

    @property
    def events(self) -> list[CrossingEvent]:
        return self.ledger.events

    def to_dict(self) -> dict:
        return {
            "ledger": self.ledger.snapshot(),
            "frames": self.frames,
            "events": len(self.ledger.events),
            "track_ids_issued": self.track_ids_issued,
            "lighting_frames": dict(self.lighting_counts),
            "latency": self.bench.to_dict(),
        }


def _timed_frames(
    engine: Engine, frames: Iterable[FrameRecord], samples: list[tuple[int, float]]
) -> None:
    """Process frames in order; append one (live tracks, us in process_frame) sample each."""
    for frame in frames:
        t0 = time.perf_counter_ns()
        engine.process_frame(frame)
        elapsed_us = (time.perf_counter_ns() - t0) / 1000.0
        samples.append((len(engine.tracker.objects), elapsed_us))


def run(source, config: Optional[EngineConfig] = None) -> RunResult:
    """Process a detection stream end to end.

    `source` is a file object or iterable of stream lines. Config problems
    surface before any frame is touched. A stream violation stops the run: the
    StreamError names the offending line and carries, as `result`, the
    RunResult of the frames counted before it.
    """
    cfg = config or EngineConfig()
    return run_frames(parse_stream(source, cfg.embedding_dim), cfg)


def run_frames(frames: Iterable[FrameRecord], config: Optional[EngineConfig] = None) -> RunResult:
    """Like run(), for frames that are already parsed (no stream decoding)."""
    engine = Engine(config or EngineConfig())
    samples: list[tuple[int, float]] = []
    error = None
    try:
        _timed_frames(engine, frames, samples)
    except StreamError as exc:
        error = exc
    result = RunResult(
        ledger=engine.ledger,
        bench=BenchReport.from_samples(samples),
        frames=engine.frames_processed,
        lighting_counts=engine.lighting_counts,
        track_ids_issued=engine.tracker.ids_issued,
    )
    if error is not None:
        error.result = result
        raise error
    return result


def bench(
    scenarios: Sequence[ScenarioSpec],
    repetitions: int = 20,
    config: Optional[EngineConfig] = None,
) -> BenchReport:
    """Measure per-frame engine latency over pre-generated scenario frames.

    Frames are generated (and thus parsed) up front so the measurement covers
    association and counting only. Runs single-threaded; a fresh engine per
    repetition keeps state comparable across reps.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not scenarios:
        raise ValueError("bench needs at least one scenario")
    cfg = config or EngineConfig()
    frame_sets = [generate(spec, cfg.layout)[0] for spec in scenarios]
    samples: list[tuple[int, float]] = []
    for _ in range(repetitions):
        for frames in frame_sets:
            _timed_frames(Engine(cfg), frames, samples)
    return BenchReport.from_samples(samples)


@dataclass(frozen=True)
class CalibrationRow:
    feature_threshold: float
    spatial_threshold: float
    miss_limit: int
    mean_accuracy: float
    runs: int


_GRID_AXES = ("feature_threshold", "spatial_threshold", "miss_limit")


def _score(ledger: CountLedger, truth: GroundTruth) -> float:
    report = evaluate(ledger, truth)
    if report is None:  # nothing to count: full marks only for silence
        return 100.0 if ledger.ins == 0 and ledger.outs == 0 else 0.0
    return report.accuracy_percent


def calibrate(
    grid: dict,
    scenarios: Sequence[ScenarioSpec],
    seeds: Sequence[int] = (1, 2, 3),
    config: Optional[EngineConfig] = None,
) -> list[CalibrationRow]:
    """Sweep tracker thresholds over simulated scenarios; rank by accuracy.

    `grid` is a JSON object mapping any of feature_threshold /
    spatial_threshold / miss_limit to a non-empty array of candidates, each
    held to the config file's number rule; omitted axes stay at the base
    config. Each candidate is scored by mean accuracy over every (scenario,
    seed) pair; a scenario with no expected events scores 100 when the engine
    stays silent, else 0. Rows are ranked best-first with ties broken toward
    smaller miss_limit, then smaller feature_threshold, then smaller
    spatial_threshold, so the ranking is fully deterministic.
    """
    if not scenarios or not seeds:
        raise ValueError("calibrate needs at least one scenario and one seed")
    cfg = config or EngineConfig()
    if not isinstance(grid, dict):
        raise ConfigError("grid must be a JSON object")
    for name, values in grid.items():
        if name not in _GRID_AXES:
            raise ConfigError(f"unknown calibration axis: {name!r}")
        if type(values) is not list or not values:
            raise ConfigError(f"grid.{name} must be a non-empty JSON array, got {values!r}")
        for value in values:
            _typed({name: value}, "grid")
    axes = [grid.get(name, [getattr(cfg.tracker, name)]) for name in _GRID_AXES]
    points = list(itertools.product(*axes))
    try:
        trackers = [replace(cfg.tracker, **dict(zip(_GRID_AXES, point))) for point in points]
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None
    prepared = [
        generate(replace(spec, seed=seed), cfg.layout) for spec in scenarios for seed in seeds
    ]
    rows = []
    for point, tracker in zip(points, trackers):
        candidate = replace(cfg, tracker=tracker)
        scores = [_score(run_frames(frames, candidate).ledger, truth) for frames, truth in prepared]
        rows.append(CalibrationRow(*point, float(np.mean(scores)), len(scores)))
    rows.sort(
        key=lambda r: (-r.mean_accuracy, r.miss_limit, r.feature_threshold, r.spatial_threshold)
    )
    return rows
