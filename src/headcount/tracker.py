"""Greedy appearance-feature tracking.

Each frame, detections are matched to registered tracks in ascending order
of cosine distance between unit-norm embeddings, subject to a spatial gate:
a pair farther apart than the spatial threshold is never matched no matter
how similar it looks. The candidate pairs are sorted once and walked once,
so a frame costs O(mn log mn) for m tracks and n detections. Each track keeps
the frame id it was last seen at, so its consecutive misses are the frame ids
since then, skipped ids included, and it is evicted once they exceed the miss
limit; unmatched detections register as fresh tracks with new ids.

This trades the optimal-assignment guarantee for per-frame cost low enough to
leave essentially the whole real-time budget to the upstream detector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .counter import Region, check_count, check_number, quote


@dataclass(frozen=True)
class TrackerConfig:
    feature_threshold: float = 0.35
    spatial_threshold: float = 0.25
    miss_limit: int = 5

    def __post_init__(self):
        # Every message leads with the field's name: calibrate reports it as grid.<field>.
        for name in ("feature_threshold", "spatial_threshold"):
            check_number(name, getattr(self, name), 0)
            if getattr(self, name) == 0:  # the open bound: a zero threshold matches nothing
                raise ValueError(f"{name} must be above 0, got {quote.repr(getattr(self, name))}")
        check_count("miss_limit", self.miss_limit, 0)


@dataclass
class TrackedObject:
    """A registered identity: the unit-norm embedding row, box center and
    frame id of the detection it last adopted, at birth or on its latest
    match. Its consecutive misses at frame f are f - last_seen."""

    id: int
    unit: np.ndarray
    center: tuple[float, float]
    last_seen: int = 0
    anchor: Optional[Region] = None  # last of A or C seen; the counter moves it


@dataclass
class DistanceMatrices:
    """Per-frame cost state: rows are registered tracks, columns detections.

    Both matrices share one (m, n) shape, as `build_matrices` makes them, and are
    rebuilt every frame; `associate` refuses any other pair and leaves them unchanged.
    """

    feature: np.ndarray
    spatial: np.ndarray


@dataclass
class AssignmentResult:
    """Partition of track rows and detection columns after one association."""

    matches: list[tuple[int, int]]
    unmatched_registered: list[int]
    unmatched_detections: list[int]


def build_matrices(
    registered: Sequence[TrackedObject], units: np.ndarray, centers: np.ndarray
) -> DistanceMatrices:
    """Compute the feature and spatial distance matrices for one frame.

    `units` holds the n detections' unit-norm embedding rows, `centers` their
    (n, 2) box centers. A feature cell is the cosine distance 1 - u.v, clipped
    into [0, 2], with nothing re-normalised; a spatial cell is the center distance.
    """
    m, n = len(registered), len(centers)
    if m == 0 or n == 0:
        return DistanceMatrices(np.zeros((m, n)), np.zeros((m, n)))
    feature = 1.0 - np.array([t.unit for t in registered]) @ units.T
    np.minimum(np.maximum(feature, 0.0, out=feature), 2.0, out=feature)  # np.clip, without its Python dispatch
    track_x, track_y = np.array([t.center for t in registered], dtype=float).T
    dx, dy = track_x[:, None] - centers[:, 0], track_y[:, None] - centers[:, 1]
    return DistanceMatrices(feature, np.sqrt(dx * dx + dy * dy))


def associate(matrices: DistanceMatrices, config: TrackerConfig) -> AssignmentResult:
    """Greedy gated assignment over the distance matrices.

    The candidates are the cells strictly below the feature threshold whose
    spatial distance passes the gate (a cell is rejected when it is > the
    spatial threshold). One stable sort orders them by ascending feature
    distance, ties resolving to the lowest row, then lowest column; one walk
    over that order matches each cell whose row and column are both still
    free, and stops once min(rows, cols) pairs are matched. This is the
    matching a repeated global argmin would make, at O(mn log mn) cost. The
    matrices are left unchanged.
    """
    feature = matrices.feature
    if feature.shape != matrices.spatial.shape:
        raise ValueError(f"feature shape {feature.shape} and spatial shape {matrices.spatial.shape} differ")
    m, n = feature.shape
    limit = min(m, n)
    cells = np.flatnonzero(
        (feature < config.feature_threshold) & ~(matrices.spatial > config.spatial_threshold)
    )
    order = cells[np.argsort(feature.ravel()[cells], kind="stable")]
    matches: list[tuple[int, int]] = []
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    for cell in order.tolist():
        if len(matches) == limit:
            break
        i, j = divmod(cell, n)
        if i in used_rows or j in used_cols:
            continue
        matches.append((i, j))
        used_rows.add(i)
        used_cols.add(j)
    return AssignmentResult(
        matches=matches,
        unmatched_registered=[i for i in range(m) if i not in used_rows],
        unmatched_detections=[j for j in range(n) if j not in used_cols],
    )


@dataclass
class StepReport:
    created_ids: list[int]
    matched_ids: list[int]
    evicted_ids: list[int]


class Tracker:
    """Owns the registered-track list; call step() once per frame, in order.

    State belongs to a single frame loop and must not be shared mutably
    across threads; the pure helpers above are safe to call from anywhere.
    """

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config or TrackerConfig()
        self.objects: list[TrackedObject] = []
        self._next_id = 1

    @property
    def ids_issued(self) -> int:
        return self._next_id - 1

    def step(self, embeddings: np.ndarray, centers: np.ndarray, frame_id: int) -> StepReport:
        """Advance one frame: evict, match, register, and evict again.

        `embeddings` (n, d) and `centers` (n, 2) hold the frame's head-filtered
        detections; the embeddings are scaled to unit rows once, as one block.
        Precondition, not checked here: frame_id exceeds the previous step's
        and the rows keep one dimension d across steps (the engine refuses
        any other frame first, by `ingest.check_frame`).
        Ids may skip: tracks unseen for more than the miss limit by
        frame_id - 1 are evicted before association, so a gap in the ids ends
        them as empty frames would.
        Matched tracks adopt the detection's unit row and center outright (no
        averaging) and are last seen now. Unmatched detections become new
        tracks with no anchor, which the counter sets. Tracks unseen for more
        than the miss limit by frame_id are evicted before the step returns;
        ids are never reused.
        """
        evicted = self._evict(frame_id - 1)
        units = embeddings / np.sqrt(np.add.reduce(embeddings * embeddings, axis=1, keepdims=True))  # = linalg.norm
        matrices = build_matrices(self.objects, units, centers)
        result = associate(matrices, self.config)
        points = list(map(tuple, centers.tolist()))
        created: list[int] = []
        matched: list[int] = []
        for i, j in result.matches:
            track = self.objects[i]
            track.unit = units[j]
            track.center = points[j]
            track.last_seen = frame_id
            matched.append(track.id)
        for j in result.unmatched_detections:
            track = TrackedObject(id=self._next_id, unit=units[j], center=points[j], last_seen=frame_id)
            self._next_id += 1
            self.objects.append(track)
            created.append(track.id)
        evicted += self._evict(frame_id)
        return StepReport(created, matched, evicted)

    def _evict(self, frame_id: int) -> list[int]:
        """Drop every track unseen for more than the miss limit by `frame_id`; return their ids."""
        limit = self.config.miss_limit
        evicted = [track.id for track in self.objects if frame_id - track.last_seen > limit]
        self.objects = [track for track in self.objects if frame_id - track.last_seen <= limit]
        return evicted
