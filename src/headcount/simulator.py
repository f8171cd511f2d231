"""Synthetic detection streams with ground truth.

Actors follow piecewise-linear waypoint paths through the doorway regions;
the generator turns them into per-frame head detections (fixed-size boxes,
base embedding plus optional seeded noise) and computes ground-truth crossing
events from the noiseless paths. Distraction objects (chairs, trolleys, bags)
are emitted as static detections without embeddings. Everything is
deterministic for a fixed scenario, so streams replay byte-identically.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .counter import (
    DEFAULT_LAYOUT,
    AccuracyReport,
    CountLedger,
    EventKind,
    Orientation,
    RegionLayout,
    accuracy,
    check_count,
    check_number,
    is_count,
    is_number_row,
    quote,
    write_lines,
)
from .ingest import DEFAULT_EMBEDDING_DIM, DetectionClass, Detections, FrameRecord, check_frame

HEAD_BOX_SIZE = 0.08
HEAD_CONFIDENCE = 0.95
DEFAULT_FPS = 20.0
_DROPOUT_GAPS = range(28, 70)  # dropout_<k> misses the first k frames of these; it lasts 70 frames


class ActorIntent(Enum):
    ENTER = "enter"
    EXIT = "exit"
    LOITER = "loiter"
    OSCILLATE = "oscillate"


@dataclass(frozen=True)
class NoiseSpec:
    """Detector imperfections applied during generation (never to ground truth)."""

    miss_probability: float = 0.0
    embedding_noise_sigma: float = 0.0
    center_jitter_sigma: float = 0.0

    def __post_init__(self):
        check_number("miss_probability", self.miss_probability, 0, 1)
        if self.miss_probability == 1:  # the open bound: no detection would ever be emitted
            raise ValueError(f"miss_probability must be below 1, got {quote.repr(self.miss_probability)}")
        check_number("embedding_noise_sigma", self.embedding_noise_sigma, 0)
        check_number("center_jitter_sigma", self.center_jitter_sigma, 0)


@dataclass(frozen=True)
class ActorSpec:
    """One simulated person: waypoint path plus appearance.

    The actor is visible between its first and last waypoint frames and moves
    by linear interpolation in between. `missed_frames` forces detector
    dropouts on exact frames, independent of random misses.
    """

    actor_id: int
    path: tuple[tuple[int, float, float], ...]  # a list or tuple, stored as a tuple of tuples
    base_embedding: np.ndarray
    intent: ActorIntent = ActorIntent.ENTER
    missed_frames: frozenset[int] = frozenset()

    def __post_init__(self):
        check_count("actor_id", self.actor_id, 0)
        if not isinstance(self.path, (list, tuple)):
            raise ValueError(f"actor {self.actor_id}: path must be a list or tuple of (frame, x, y) waypoints, "
                             f"got {quote.repr(self.path)}")
        if not self.path:
            raise ValueError(f"actor {self.actor_id}: path needs at least one waypoint")
        for waypoint in self.path:
            if not (is_number_row(waypoint) and len(waypoint) == 3 and is_count(waypoint[0])):
                raise ValueError(f"actor {self.actor_id}: waypoint {quote.repr(waypoint)} must be an integer "
                                 "frame and two numbers")
            if not (0.0 <= waypoint[1] <= 1.0 and 0.0 <= waypoint[2] <= 1.0):
                raise ValueError(f"actor {self.actor_id}: waypoint {quote.repr(waypoint)} leaves the frame")
        object.__setattr__(self, "path", tuple(map(tuple, self.path)))
        frames = [wp[0] for wp in self.path]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError(f"actor {self.actor_id}: waypoint frames must strictly increase")
        if not (isinstance(self.missed_frames, frozenset) and all(map(is_count, self.missed_frames))):
            raise ValueError(f"actor {self.actor_id}: missed_frames must be a frozenset of integer frames, "
                             f"got {quote.repr(self.missed_frames)}")
        try:  # the stream's own rules, on one head row
            row = Detections.from_rows([(DetectionClass.HEAD, 1.0, (0, 0, 1, 1), self.base_embedding)]).embeddings
        except (ValueError, OverflowError) as exc:  # overflow: an integer beyond float range
            raise ValueError(f"actor {self.actor_id}: base embedding: {exc}") from None
        row.flags.writeable = False  # frozen: the stored float64 row cannot change either
        object.__setattr__(self, "base_embedding", row[0])


@dataclass(frozen=True)
class DistractionSpec:
    """A static non-head object in every frame; its class, a member or its wire name, is stored as the member."""

    class_label: DetectionClass
    x: float
    y: float
    confidence: float = 0.89

    def __post_init__(self):
        try:
            label = DetectionClass(self.class_label)
        except ValueError:  # unhashable values included
            label = None
        if label in (None, DetectionClass.HEAD):
            raise ValueError(f"distraction class must be a non-head class, got {quote.repr(self.class_label)}")
        object.__setattr__(self, "class_label", label)
        for name in ("x", "y", "confidence"):
            check_number(name, getattr(self, name), 0, 1)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    seed: int
    duration_frames: int
    actors: tuple[ActorSpec, ...] = ()  # a list or tuple, stored as a tuple
    distractions: tuple[DistractionSpec, ...] = ()
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self):
        check_count("seed", self.seed, 0)
        check_count("duration_frames", self.duration_frames, 1)
        for name, kind in (("actors", ActorSpec), ("distractions", DistractionSpec)):
            entries = getattr(self, name)
            if not (isinstance(entries, (list, tuple)) and all(isinstance(entry, kind) for entry in entries)):
                raise ValueError(f"{name} must be a list or tuple of {kind.__name__}s, got {quote.repr(entries)}")
            object.__setattr__(self, name, tuple(entries))
        if not isinstance(self.noise, NoiseSpec):
            raise ValueError(f"noise must be a NoiseSpec, got {quote.repr(self.noise)}")


@dataclass(frozen=True)
class GroundTruth:
    """Crossing events (kind, actor_id, frame_id) implied by the noiseless paths."""

    events: tuple[tuple[EventKind, int, int], ...]
    final_ins: int
    final_outs: int


def _head_box(x: float, y: float) -> tuple[float, float, float, float]:
    # Shift the box inward near frame edges so it stays normalized; the
    # center only deviates from (x, y) within half a box of the border.
    x0 = min(max(x - HEAD_BOX_SIZE / 2, 0.0), 1.0 - HEAD_BOX_SIZE)
    y0 = min(max(y - HEAD_BOX_SIZE / 2, 0.0), 1.0 - HEAD_BOX_SIZE)
    return (x0, y0, x0 + HEAD_BOX_SIZE, y0 + HEAD_BOX_SIZE)


def _track(actor: ActorSpec, duration: int) -> dict[int, tuple[float, float]]:
    """The actor's noiseless (x, y) on each frame in view, within [0, duration)."""
    frames, xs, ys = zip(*actor.path)
    span = np.arange(max(frames[0], 0), min(frames[-1] + 1, duration))
    return dict(zip(span.tolist(), zip(np.interp(span, frames, xs).tolist(),
                                       np.interp(span, frames, ys).tolist())))


def _ground_truth(spec: ScenarioSpec, tracks: list[dict], layout: RegionLayout) -> GroundTruth:
    """Anchor scan of each noiseless path, sharing no code with the counter: a
    head centre on or between the lines (B) never moves the anchor, and the
    outside -> inside (entry) or inside -> outside (exit) sides re-anchor."""
    events: list[tuple[EventKind, int, int]] = []
    top = layout.orientation is Orientation.OUTSIDE_TOP
    for actor, track in zip(spec.actors, tracks):
        anchor = None
        for frame, pos in track.items():
            _, y_min, _, y_max = _head_box(*pos)
            y = (y_min + y_max) / 2.0
            if layout.line_ab <= y <= layout.line_bc:
                continue
            outside = (y < layout.line_ab) == top
            if anchor is not None and outside != anchor:
                kind = EventKind.EXIT if outside else EventKind.ENTRY
                events.append((kind, actor.actor_id, frame))
            anchor = outside
    events.sort(key=lambda e: (e[2], e[1]))
    ins = sum(1 for e in events if e[0] is EventKind.ENTRY)
    outs = len(events) - ins
    return GroundTruth(tuple(events), ins, outs)


def generate(
    spec: ScenarioSpec, layout: RegionLayout = DEFAULT_LAYOUT
) -> tuple[list[FrameRecord], GroundTruth]:
    """Build the detection stream and its ground truth for one scenario.

    Noise draws come from a generator seeded with spec.seed, so identical
    scenarios produce byte-identical streams. Ground truth always reflects the
    noiseless paths.
    """
    rng = np.random.default_rng(spec.seed)
    noise = spec.noise
    distraction_rows = [
        (d.class_label, d.confidence, _head_box(d.x, d.y), None) for d in spec.distractions
    ]
    tracks = [_track(actor, spec.duration_frames) for actor in spec.actors]
    frames: list[FrameRecord] = []
    last = (None, None, None)  # check_frame's state: no frame yet, no dimension yet
    for frame_idx in range(spec.duration_frames):
        ts_ms = round(frame_idx * 1000.0 / DEFAULT_FPS)
        rows: list[tuple] = []
        for actor, track in zip(spec.actors, tracks):
            pos = track.get(frame_idx)
            if pos is None or frame_idx in actor.missed_frames:
                continue
            if noise.miss_probability > 0.0 and rng.random() < noise.miss_probability:
                continue
            x, y = pos
            if noise.center_jitter_sigma > 0.0:
                x = min(max(x + rng.normal(0.0, noise.center_jitter_sigma), 0.0), 1.0)
                y = min(max(y + rng.normal(0.0, noise.center_jitter_sigma), 0.0), 1.0)
            embedding = actor.base_embedding
            if noise.embedding_noise_sigma > 0.0:
                embedding = embedding + rng.normal(0.0, noise.embedding_noise_sigma, embedding.shape)
            rows.append((DetectionClass.HEAD, HEAD_CONFIDENCE, _head_box(x, y), embedding))
        frames.append(FrameRecord(frame_idx, ts_ms, Detections.from_rows(rows + distraction_rows)))
        last = check_frame(frames[-1], last)  # the stream rule, one embedding dimension included
    return frames, _ground_truth(spec, tracks, layout)


def evaluate(ledger: CountLedger, truth: GroundTruth) -> Optional[AccuracyReport]:
    """Score a ledger against ground truth; None when no events were expected.

    Observations are the true entry plus exit counts; the error is the sum of
    absolute tally differences. A zero-observation scenario has no defined
    accuracy and is reported as not applicable (None) rather than dividing by
    zero.
    """
    total = truth.final_ins + truth.final_outs
    if total == 0:
        return None
    error = abs(ledger.ins - truth.final_ins) + abs(ledger.outs - truth.final_outs)
    return accuracy(total, error)


def write_ground_truth(truth: GroundTruth, fp) -> int:
    """Write ground-truth events as line-delimited JSON sidecar records; returns line count."""
    records = (
        json.dumps({"kind": kind.value, "actor_id": actor_id, "frame_id": frame_id}, separators=(",", ":"))
        for kind, actor_id, frame_id in truth.events
    )
    return write_lines(records, fp)


def _basis(dim: int, index: int) -> np.ndarray:
    vec = np.zeros(dim)
    vec[index % dim] = 1.0
    return vec


def _crossing_path(x: float, y_from: float, y_to: float, start: int, frames: int):
    return [(start, x, y_from), (start + frames, x, y_to)]


def _clean_entry(dim: int) -> ScenarioSpec:
    actor = ActorSpec(1, _crossing_path(0.5, 0.1, 0.9, 0, 50), _basis(dim, 0), ActorIntent.ENTER)
    return ScenarioSpec("clean_entry", seed=101, duration_frames=60, actors=[actor])


def _clean_exit(dim: int) -> ScenarioSpec:
    actor = ActorSpec(1, _crossing_path(0.5, 0.9, 0.1, 0, 50), _basis(dim, 0), ActorIntent.EXIT)
    return ScenarioSpec("clean_exit", seed=102, duration_frames=60, actors=[actor])


def _oscillation(dim: int) -> ScenarioSpec:
    # Bounces inside the critical buffer for the whole scenario; a correct
    # counter reports nothing.
    path = [(10 * k, 0.5, 0.45 if k % 2 == 0 else 0.55) for k in range(20)]
    path.append((199, 0.5, 0.5))
    actor = ActorSpec(1, path, _basis(dim, 0), ActorIntent.OSCILLATE)
    return ScenarioSpec("oscillation", seed=103, duration_frames=200, actors=[actor])


def _crossing_pair(dim: int) -> ScenarioSpec:
    enter = ActorSpec(1, _crossing_path(0.3, 0.1, 0.9, 0, 59), _basis(dim, 0), ActorIntent.ENTER)
    leave = ActorSpec(2, _crossing_path(0.7, 0.9, 0.1, 0, 59), _basis(dim, 1), ActorIntent.EXIT)
    return ScenarioSpec("crossing_pair", seed=104, duration_frames=60, actors=[enter, leave])


def _distraction_field(dim: int) -> ScenarioSpec:
    actor = ActorSpec(1, _crossing_path(0.5, 0.1, 0.9, 0, 50), _basis(dim, 0), ActorIntent.ENTER)
    distractions = [
        DistractionSpec(DetectionClass.CHAIR, 0.15, 0.30, confidence=0.89),
        DistractionSpec(DetectionClass.TROLLEY, 0.85, 0.50, confidence=0.91),
        DistractionSpec(DetectionClass.BAG, 0.50, 0.15, confidence=0.87),
    ]
    return ScenarioSpec(
        "distraction_field", seed=105, duration_frames=60, actors=[actor], distractions=distractions
    )


def _multi_3(dim: int) -> ScenarioSpec:
    # Staggered entries, then everyone loiters inside: occupancy ramps
    # 0 -> 1 -> 2 -> 3 in long even phases, which also gives the bench
    # well-populated per-count latency groups.
    def entering(actor_id, x, start, idx):
        path = [(start, x, 0.1), (start + 40, x, 0.9), (239, x, 0.88)]
        return ActorSpec(actor_id, path, _basis(dim, idx), ActorIntent.ENTER)

    actors = [entering(1, 0.2, 5, 0), entering(2, 0.5, 65, 1), entering(3, 0.8, 125, 2)]
    return ScenarioSpec("multi_3", seed=106, duration_frames=240, actors=actors)


def _dropout(k: int, dim: int) -> ScenarioSpec:
    # The gap sits mid-crossing, inside the buffer region for small k.
    actor = ActorSpec(1, _crossing_path(0.5, 0.1, 0.9, 0, 60), _basis(dim, 0), ActorIntent.ENTER,
                      missed_frames=frozenset(_DROPOUT_GAPS[:k]))
    return ScenarioSpec(f"dropout_{k}", seed=110 + k, duration_frames=_DROPOUT_GAPS.stop, actors=[actor])


_CATALOG = {
    "clean_entry": _clean_entry,
    "clean_exit": _clean_exit,
    "oscillation": _oscillation,
    "crossing_pair": _crossing_pair,
    "distraction_field": _distraction_field,
    "multi_3": _multi_3,
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG) + ["dropout_<k>"]


def make_scenario(name: str, embedding_dim: int = DEFAULT_EMBEDDING_DIM) -> ScenarioSpec:
    """Build one canned scenario by name; dropout_<k> takes the gap length."""
    check_count("embedding_dim", embedding_dim, 1)
    if name.startswith("dropout_"):
        suffix, most = name[len("dropout_") :], len(_DROPOUT_GAPS)
        if suffix not in map(str, range(1, most + 1)):  # k's plain digits, so no k is parsed or allocated
            raise ValueError(f"bad dropout scenario {quote.repr(name)}; use dropout_<k> with 1 <= k <= {most}")
        return _dropout(int(suffix), embedding_dim)
    builder = _CATALOG.get(name)
    if builder is None:
        raise ValueError(f"unknown scenario {quote.repr(name)}; available: {', '.join(catalog_names())}")
    return builder(embedding_dim)


def random_crossings(
    seed: int,
    actors: int = 4,
    crossing_frames: int = 50,
    stagger: int = 45,
    noise: NoiseSpec = NoiseSpec(),
    embedding_dim: int = DEFAULT_EMBEDDING_DIM,
) -> ScenarioSpec:
    """Randomized multi-actor scenario: each actor makes one full crossing.

    Directions, lanes, start offsets, and unit embeddings are drawn from the
    seed, so the scenario (and therefore its stream) is reproducible. Useful
    for calibration sweeps and accuracy soak tests.
    """
    scenario = ScenarioSpec(f"random_crossings_{seed}", seed, 1, noise=noise)  # the seed's rule, before numpy's
    check_count("actors", actors, 0)
    check_count("crossing_frames", crossing_frames, 1)
    check_count("stagger", stagger, 0)
    check_count("embedding_dim", embedding_dim, 1)
    rng = np.random.default_rng(seed)
    specs: list[ActorSpec] = []
    last_start = 0
    for k in range(actors):
        entering = bool(rng.random() < 0.5)
        x = float(rng.uniform(0.15, 0.85))
        start = k * stagger + int(rng.integers(0, 10))
        last_start = max(last_start, start)
        y_from, y_to = (0.1, 0.9) if entering else (0.9, 0.1)
        embedding = rng.normal(size=embedding_dim)
        embedding = embedding / np.linalg.norm(embedding)
        specs.append(
            ActorSpec(
                actor_id=k + 1,
                path=_crossing_path(x, y_from, y_to, start, crossing_frames),
                base_embedding=embedding,
                intent=ActorIntent.ENTER if entering else ActorIntent.EXIT,
            )
        )
    return replace(scenario, duration_frames=last_start + crossing_frames + 10, actors=specs)
