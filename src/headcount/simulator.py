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
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .counter import (
    DEFAULT_LAYOUT,
    AccuracyReport,
    CountLedger,
    EventKind,
    Region,
    RegionLayout,
    accuracy,
    classify_region,
)
from .ingest import DEFAULT_EMBEDDING_DIM, DetectionClass, Detections, FrameRecord

HEAD_BOX_SIZE = 0.08
HEAD_CONFIDENCE = 0.95
DEFAULT_FPS = 20.0


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
        if not 0.0 <= self.miss_probability < 1.0:
            raise ValueError("miss_probability must be in [0, 1)")
        if self.embedding_noise_sigma < 0.0:
            raise ValueError("embedding_noise_sigma must be >= 0")
        if self.center_jitter_sigma < 0.0:
            raise ValueError("center_jitter_sigma must be >= 0")


@dataclass
class ActorSpec:
    """One simulated person: waypoint path plus appearance.

    The actor is visible between its first and last waypoint frames and moves
    by linear interpolation in between. `missed_frames` forces detector
    dropouts on exact frames, independent of random misses.
    """

    actor_id: int
    path: list[tuple[int, float, float]]
    base_embedding: np.ndarray
    intent: ActorIntent = ActorIntent.ENTER
    missed_frames: frozenset[int] = frozenset()

    def __post_init__(self):
        if not self.path:
            raise ValueError(f"actor {self.actor_id}: path needs at least one waypoint")
        frames = [wp[0] for wp in self.path]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError(f"actor {self.actor_id}: waypoint frames must strictly increase")
        for f, x, y in self.path:
            if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
                raise ValueError(
                    f"actor {self.actor_id}: waypoint ({x}, {y}) at frame {f} leaves the frame"
                )
        self.base_embedding = np.asarray(self.base_embedding, dtype=float)
        if self.base_embedding.ndim != 1 or not np.any(self.base_embedding):
            raise ValueError(f"actor {self.actor_id}: base embedding must be a non-zero vector")


@dataclass(frozen=True)
class DistractionSpec:
    """A static non-head object present in every frame."""

    class_label: DetectionClass
    x: float
    y: float
    confidence: float = 0.89

    def __post_init__(self):
        if self.class_label is DetectionClass.HEAD:
            raise ValueError("distractions cannot use the head class")
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError("distraction position must lie in the frame")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")


@dataclass
class ScenarioSpec:
    name: str
    seed: int
    duration_frames: int
    fps: float = DEFAULT_FPS
    actors: list[ActorSpec] = field(default_factory=list)
    distractions: list[DistractionSpec] = field(default_factory=list)
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self):
        if self.duration_frames <= 0:
            raise ValueError("duration_frames must be positive")
        if self.fps <= 0:
            raise ValueError("fps must be positive")


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
    """Anchor scan of each noiseless path, sharing no code with the counter:
    B never moves the anchor, and A -> C (entry) or C -> A (exit) re-anchors."""
    events: list[tuple[EventKind, int, int]] = []
    for actor, track in zip(spec.actors, tracks):
        anchor = None
        for frame, pos in track.items():
            _, y_min, _, y_max = _head_box(*pos)
            region = classify_region((y_min + y_max) / 2.0, layout)
            if region is Region.B or region is anchor:
                continue
            if anchor is not None:
                kind = EventKind.ENTRY if region is Region.C else EventKind.EXIT
                events.append((kind, actor.actor_id, frame))
            anchor = region
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
    for frame_idx in range(spec.duration_frames):
        ts_ms = round(frame_idx * 1000.0 / spec.fps)
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
    """Write ground-truth events as line-delimited JSON sidecar records."""
    count = 0
    for kind, actor_id, frame_id in truth.events:
        fp.write(
            json.dumps(
                {"kind": kind.value, "actor_id": actor_id, "frame_id": frame_id},
                separators=(",", ":"),
            )
            + "\n"
        )
        count += 1
    return count


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
    if k < 1:
        raise ValueError("dropout gap must be at least 1 frame")
    # The gap sits mid-crossing, inside the buffer region for small k.
    actor = ActorSpec(
        1,
        _crossing_path(0.5, 0.1, 0.9, 0, 60),
        _basis(dim, 0),
        ActorIntent.ENTER,
        missed_frames=frozenset(range(28, 28 + k)),
    )
    return ScenarioSpec(f"dropout_{k}", seed=110 + k, duration_frames=70, actors=[actor])


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
    if embedding_dim < 1:
        raise ValueError("embedding_dim must be positive")
    if name.startswith("dropout_"):
        suffix = name[len("dropout_") :]
        if not suffix.isdigit() or int(suffix) < 1:
            raise ValueError(f"bad dropout scenario '{name}'; use dropout_<k> with k >= 1")
        return _dropout(int(suffix), embedding_dim)
    builder = _CATALOG.get(name)
    if builder is None:
        raise ValueError(
            f"unknown scenario '{name}'; available: {', '.join(catalog_names())}"
        )
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
    duration = last_start + crossing_frames + 10
    return ScenarioSpec(
        f"random_crossings_{seed}", seed=seed, duration_frames=duration, actors=specs, noise=noise
    )
