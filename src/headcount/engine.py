"""Frame pipeline: parse -> filter -> track -> count, plus bench and calibrate.

One Engine owns one stream's state and processes frames strictly in order, so
counting never observes a track from a different frame. Independent streams
(one per doorway) each get their own engine. Per-frame latency covers only
the engine's own compute (filter, association, counting), since detector
inference happens upstream.
"""
from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .counter import (
    DEFAULT_LAYOUT,
    CountLedger,
    CrossingEvent,
    RegionLayout,
    check_numbers,
    classify_region,
    tally,
    update_history,
)
from .ingest import FrameRecord, StreamError, StreamState, check_frame, filter_heads, parse_stream
from .simulator import GroundTruth, ScenarioSpec, evaluate, generate
from .tracker import Tracker, TrackerConfig

# Frames excluded from latency percentiles while caches and allocator warm up.
WARMUP_FRAMES = 50


class ConfigError(ValueError):
    """Invalid engine configuration (bad field, value, or file)."""


def _object(data, name: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object")
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
        check_numbers(self, ("min_confidence",), () if self.embedding_dim is None else ("embedding_dim",))
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigError("min_confidence must be in [0, 1]")
        if self.embedding_dim is not None and self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        values = dict(_object(data, "config"))
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            for name, settings in (("tracker", TrackerConfig), ("layout", RegionLayout)):
                values[name] = settings(**_object(values.get(name, {}), name))
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


# Latency histogram resolution (HdrHistogram's log buckets): a sample in integer
# ns keeps its bit length and the SUB_BUCKET_BITS bits after its leading one, so
# a bucket spans at most 1/128 of its lower bound and its midpoint lies within
# 0.4% of every sample in it. Samples below 2**(SUB_BUCKET_BITS + 1) ns are exact.
SUB_BUCKET_BITS = 7


def _bucket_mid_us(key: int) -> float:
    """Midpoint, in us, of the integer ns values that share bucket `key`."""
    shift = max((key >> SUB_BUCKET_BITS) - 1, 0)
    low = (key - (shift << SUB_BUCKET_BITS)) << shift
    return (low + ((1 << shift) - 1) / 2.0) / 1000.0


class LatencyRecorder:
    """Per-frame latency histograms keyed by live track count, in memory that
    does not grow with the stream: groups x buckets.

    The first WARMUP_FRAMES samples go into a histogram set of their own
    while caches and the allocator warm up. The report reads the steady set,
    or the warm-up set if the run ended before the steady set got a sample,
    so a short run still reports every frame.
    """

    def __init__(self):
        self._added = 0
        self._warm: defaultdict[int, Counter] = defaultdict(Counter)
        self._steady: defaultdict[int, Counter] = defaultdict(Counter)

    def add(self, tracks: int, elapsed_ns: int) -> None:
        shift = elapsed_ns.bit_length() - (SUB_BUCKET_BITS + 1)
        key = elapsed_ns if shift <= 0 else (shift << SUB_BUCKET_BITS) + (elapsed_ns >> shift)
        groups = self._warm if self._added < WARMUP_FRAMES else self._steady
        self._added += 1
        groups[tracks][key] += 1

    def report(self) -> "BenchReport":
        """Nearest-rank p50/p95/p99 per track count, read from the buckets."""
        groups, excluded = (self._steady, WARMUP_FRAMES) if self._steady else (self._warm, 0)
        stats = {}
        for tracks, buckets in sorted(groups.items()):
            keys = sorted(buckets)
            seen = list(itertools.accumulate(buckets[key] for key in keys))
            ranks = [(q * seen[-1] + 99) // 100 for q in (50, 95, 99)]
            values = [_bucket_mid_us(keys[bisect_left(seen, rank)]) for rank in ranks]
            stats[tracks] = LatencyStats(seen[-1], *values)
        return BenchReport(groups=stats, warmup_excluded=excluded)


@dataclass
class BenchReport:
    """Per-frame engine latency percentiles grouped by simultaneous tracks."""

    groups: dict[int, LatencyStats]
    warmup_excluded: int

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
        self._last: StreamState = (None, None, self.config.embedding_dim)

    def process_frame(self, frame: FrameRecord) -> list[CrossingEvent]:
        """Run one frame through filter -> track -> count; returns new events.
        A frame that breaks the stream rule (`check_frame`) is refused before any state changes."""
        self._last = check_frame(frame, self._last)
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
    def events(self) -> Sequence[CrossingEvent]:
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
    engine: Engine, frames: Iterable[FrameRecord], recorder: LatencyRecorder
) -> None:
    """Process frames in order; record each one's live tracks and ns in process_frame."""
    for frame in frames:
        t0 = time.perf_counter_ns()
        engine.process_frame(frame)
        recorder.add(len(engine.tracker.objects), time.perf_counter_ns() - t0)


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
    recorder = LatencyRecorder()
    error = None
    try:
        _timed_frames(engine, frames, recorder)
    except StreamError as exc:
        error = exc
    result = RunResult(
        ledger=engine.ledger,
        bench=recorder.report(),
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

    Frames are generated up front as records, never parsed, so the measurement
    covers filtering, association and counting only. Runs single-threaded; a
    fresh engine per repetition keeps state comparable across reps.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not scenarios:
        raise ValueError("bench needs at least one scenario")
    cfg = config or EngineConfig()
    frame_sets = [generate(spec, cfg.layout)[0] for spec in scenarios]
    recorder = LatencyRecorder()
    for _ in range(repetitions):
        for frames in frame_sets:
            _timed_frames(Engine(cfg), frames, recorder)
    return recorder.report()


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
    for name, values in _object(grid, "grid").items():
        if name not in _GRID_AXES:
            raise ConfigError(f"unknown calibration axis: {name!r}")
        if type(values) is not list or not values:
            raise ConfigError(f"grid.{name} must be a non-empty JSON array, got {values!r}")
    axes = [grid.get(name, [getattr(cfg.tracker, name)]) for name in _GRID_AXES]
    points = list(itertools.product(*axes))
    try:
        trackers = [replace(cfg.tracker, **dict(zip(_GRID_AXES, point))) for point in points]
    except ValueError as exc:
        raise ConfigError(f"grid.{exc}") from None
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
