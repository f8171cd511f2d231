"""Frame pipeline: parse -> filter -> track -> count, plus bench and calibrate.

One Engine owns one stream's state and processes frames strictly in order, so
counting never observes a track from a different frame. Independent streams
(one per doorway) each get their own engine. The frame clock is the engine's:
`process_frame` times each frame it admits, from `check_frame` through counting
(not parsing or the upstream detector), into `Engine.latency` by live tracks.
`RunResult.latency` and `bench` read it out as one `{tracks: LatencyStats}` table.
"""
from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .counter import (
    DEFAULT_LAYOUT,
    CountLedger,
    CrossingEvent,
    RegionLayout,
    check_count,
    check_number,
    classify_region,
    quote,
    tally,
    update_history,
)
from .ingest import FrameRecord, StreamError, StreamState, check_frame, filter_heads, parse_stream
from .simulator import GroundTruth, ScenarioSpec, evaluate, generate
from .tracker import Tracker, TrackerConfig

class ConfigError(ValueError):
    """Invalid engine configuration (bad field, value, or file)."""


def _object(data, names, label: str) -> dict:
    """A copy of `data`, a config or grid file's JSON object, whose keys must all be in `names`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{label} must be a JSON object")
    unknown = [key for key in data if key not in names]
    if unknown:
        raise ConfigError(f"unknown {label} fields: {quote.repr(unknown)}")
    return dict(data)


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
        check_number("min_confidence", self.min_confidence, 0, 1)
        if self.embedding_dim is not None:
            check_count("embedding_dim", self.embedding_dim, 1)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        values = _object(data, [f.name for f in fields(cls)], "config")
        try:
            for name, settings in (("tracker", TrackerConfig), ("layout", RegionLayout)):
                values[name] = settings(**_object(values.get(name, {}), [f.name for f in fields(settings)], name))
            return cls(**values)
        except ValueError as exc:
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


class LatencyRecorder:
    """Per-frame latency histograms keyed by live track count, in memory that
    does not grow with the stream: groups x buckets. Every sample counts, filed
    under its bucket's lower bound: the sample with the bits below its
    resolution cleared."""

    def __init__(self):
        self._groups: defaultdict[int, Counter] = defaultdict(Counter)

    def add(self, tracks: int, elapsed_ns: int) -> None:
        shift = max(elapsed_ns.bit_length() - (SUB_BUCKET_BITS + 1), 0)
        self._groups[tracks][elapsed_ns >> shift << shift] += 1

    def report(self) -> dict[int, LatencyStats]:
        """Nearest-rank p50/p95/p99 per track count, in track-count order, each read as its bucket's midpoint."""
        stats = {}
        for tracks, buckets in sorted(self._groups.items()):
            lows = sorted(buckets)
            seen = list(itertools.accumulate(buckets[low] for low in lows))
            values = []
            for q in (50, 95, 99):
                low = lows[bisect_left(seen, (q * seen[-1] + 99) // 100)]
                shift = max(low.bit_length() - (SUB_BUCKET_BITS + 1), 0)
                values.append((low + ((1 << shift) - 1) / 2.0) / 1000.0)
            stats[tracks] = LatencyStats(seen[-1], *values)
        return stats


def latency_to_dict(latency: dict[int, LatencyStats]) -> dict:
    """The latency JSON of `report.json` and `headcount bench --report-out`."""
    groups = {str(count): {**asdict(stats), "max_fps": stats.max_fps} for count, stats in latency.items()}
    return {"groups": groups}


class Engine:
    """Single-stream pipeline state: tracker, ledger, lighting tallies (one per admitted frame), frame latency."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.tracker = Tracker(self.config.tracker)
        self.ledger = CountLedger()
        self.lighting_counts = {"day": 0, "night": 0, "unknown": 0}
        self._last: StreamState = (None, None, self.config.embedding_dim)
        self.latency = LatencyRecorder()

    def process_frame(self, frame: FrameRecord) -> list[CrossingEvent]:
        """Run one frame through filter -> track -> count; returns new events.
        A frame that breaks the stream rule (`check_frame`) is refused, untimed, before any state
        changes; any other is timed into `self.latency` under the tracks live after it."""
        t0 = time.perf_counter_ns()
        self._last = check_frame(frame, self._last)
        mode = frame.lighting
        self.lighting_counts[mode.value if mode is not None else "unknown"] += 1
        kept, dets = filter_heads(frame, self.config.min_confidence), frame.detections
        kept = kept if len(kept) < len(dets) else slice(None)  # every row kept: views, not copies
        self.tracker.step(dets.embeddings[kept], dets.centers[kept], frame.frame_id)
        events: list[CrossingEvent] = []
        for track in self.tracker.objects:
            region = classify_region(track.center[1], self.config.layout)
            event = update_history(track, region, frame.frame_id, frame.timestamp_ms)
            if event is not None:
                tally(self.ledger, event)
                events.append(event)
        self.latency.add(len(self.tracker.objects), time.perf_counter_ns() - t0)
        return events


@dataclass
class RunResult:
    ledger: CountLedger
    latency: dict[int, LatencyStats]
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
            "latency": latency_to_dict(self.latency),
        }


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
    engine = Engine(config)
    error = None
    try:
        for frame in frames:
            engine.process_frame(frame)
    except StreamError as exc:
        error = exc
    result = RunResult(
        ledger=engine.ledger,
        latency=engine.latency.report(),
        frames=sum(engine.lighting_counts.values()),  # each admitted frame is tallied once
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
) -> dict[int, LatencyStats]:
    """Measure per-frame engine latency over pre-generated scenario frames.

    Frames are generated up front as records, never parsed, so the measurement
    covers filtering, association and counting only. Runs single-threaded; a
    fresh engine per repetition keeps state comparable across reps. One pass over
    the frames comes first and its samples are dropped, so caches are warm.
    """
    check_count("repetitions", repetitions, 1)
    if not scenarios:
        raise ValueError("bench needs at least one scenario")
    cfg = config or EngineConfig()
    frame_sets = [generate(spec, cfg.layout)[0] for spec in scenarios]
    recorder = LatencyRecorder()
    for sink in [LatencyRecorder()] + [recorder] * repetitions:  # the first pass is thrown away
        for frames in frame_sets:
            engine = Engine(cfg)
            engine.latency = sink
            for frame in frames:
                engine.process_frame(frame)
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
    grid = _object(grid, _GRID_AXES, "grid")
    for name, values in grid.items():
        if type(values) is not list or not values:
            raise ConfigError(f"grid.{name} must be a non-empty JSON array, got {quote.repr(values)}")
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
