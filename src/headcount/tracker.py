"""Greedy appearance-feature tracking.

Each frame, detections are matched to registered tracks in ascending order
of cosine distance between unit-norm embeddings, subject to a spatial gate:
a pair farther apart than the spatial threshold is never matched no matter
how similar it looks. The candidate pairs are sorted once and walked once,
so a frame costs O(mn log mn) for m tracks and n detections. Tracks missing
from the frame accumulate a consecutive-miss count and are evicted once it
exceeds the miss limit; unmatched detections register as fresh tracks with
new ids.

This trades the optimal-assignment guarantee for per-frame cost low enough to
leave essentially the whole real-time budget to the upstream detector.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .counter import Region


@dataclass(frozen=True)
class TrackerConfig:
    feature_threshold: float = 0.35
    spatial_threshold: float = 0.25
    miss_limit: int = 5

    def __post_init__(self):
        if self.feature_threshold <= 0:
            raise ValueError("feature_threshold must be > 0")
        if self.spatial_threshold <= 0:
            raise ValueError("spatial_threshold must be > 0")
        if self.miss_limit < 0:
            raise ValueError("miss_limit must be >= 0")


@dataclass
class TrackedObject:
    """A registered identity: the unit-norm embedding row and box center of
    the detection it last adopted, at birth or on its latest match."""

    id: int
    unit: np.ndarray
    center: tuple[float, float]
    e_count: int = 0  # consecutive detection misses
    region_history: list[Region] = field(default_factory=list)


@dataclass
class DistanceMatrices:
    """Per-frame cost state: rows are registered tracks, columns detections.

    Both matrices are rebuilt every frame; `associate` reads them and leaves
    them unchanged.
    """

    feature: np.ndarray
    spatial: np.ndarray

    def __post_init__(self):
        if self.feature.shape != self.spatial.shape:
            raise ValueError(
                f"matrix shapes differ: {self.feature.shape} vs {self.spatial.shape}"
            )


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
    feature = 1.0 - np.stack([t.unit for t in registered]) @ units.T
    np.clip(feature, 0.0, 2.0, out=feature)
    track_centers = np.array([t.center for t in registered], dtype=float)
    delta = track_centers[:, None, :] - centers[None, :, :]
    spatial = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    return DistanceMatrices(feature, spatial)


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
    frame_id: int
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
        self._frame_id: Optional[int] = None

    @property
    def ids_issued(self) -> int:
        return self._next_id - 1

    def step(self, embeddings: np.ndarray, centers: np.ndarray, frame_id: int) -> StepReport:
        """Advance one frame: match, register, age, and evict.

        `embeddings` (n, d) and `centers` (n, 2) hold the frame's head-filtered
        detections; the embeddings are scaled to unit rows once, as one block.
        Matched tracks adopt the detection's unit row and center outright (no
        averaging) and reset their miss count. Unmatched detections become new
        tracks with an empty region history, which the counter fills. Unmatched
        tracks age by one miss, and anything whose miss count exceeds the limit
        is removed before the step returns; ids are never reused. Each frame id
        skipped since the previous step first ages every track by one miss, as
        an empty frame would.
        """
        evicted: list[int] = []
        if self.objects and frame_id > self._frame_id + 1:
            for track in self.objects:
                track.e_count += frame_id - self._frame_id - 1
            evicted = self._evict()
        self._frame_id = frame_id
        units = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
        matrices = build_matrices(self.objects, units, centers)
        result = associate(matrices, self.config)
        points = list(map(tuple, centers.tolist()))
        created: list[int] = []
        matched: list[int] = []
        for i, j in result.matches:
            track = self.objects[i]
            track.unit = units[j]
            track.center = points[j]
            track.e_count = 0
            matched.append(track.id)
        for i in result.unmatched_registered:
            self.objects[i].e_count += 1
        for j in result.unmatched_detections:
            track = TrackedObject(id=self._next_id, unit=units[j], center=points[j])
            self._next_id += 1
            self.objects.append(track)
            created.append(track.id)
        evicted += self._evict()
        return StepReport(frame_id, created, matched, evicted)

    def _evict(self) -> list[int]:
        """Drop every track whose miss count exceeds the limit; return their ids."""
        limit = self.config.miss_limit
        evicted = [track.id for track in self.objects if track.e_count > limit]
        self.objects = [track for track in self.objects if track.e_count <= limit]
        return evicted
