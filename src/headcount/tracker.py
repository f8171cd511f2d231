"""Greedy appearance-feature tracking.

Each frame, detections are matched to registered tracks by repeatedly taking
the globally smallest entry of the feature-distance matrix, subject to a
spatial gate: a pair farther apart than the spatial threshold is never
matched no matter how similar it looks. Rejected and consumed cells are
overwritten with the feature threshold so they can never be selected again,
which is what guarantees the loop terminates. Tracks missing from the frame
accumulate a consecutive-miss count and are evicted once it exceeds the miss
limit; unmatched detections register as fresh tracks with new ids.

This trades the optimal-assignment guarantee for per-frame cost low enough to
leave essentially the whole real-time budget to the upstream detector.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .counter import Region
from .ingest import BoundingBox, DetectionRecord


class FeatureMetric(Enum):
    COSINE = "cosine"
    EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class TrackerConfig:
    feature_threshold: float = 0.35
    spatial_threshold: float = 0.25
    miss_limit: int = 5
    feature_metric: FeatureMetric = FeatureMetric.COSINE

    def __post_init__(self):
        if self.feature_threshold <= 0:
            raise ValueError("feature_threshold must be > 0")
        if self.spatial_threshold <= 0:
            raise ValueError("spatial_threshold must be > 0")
        if self.miss_limit < 0:
            raise ValueError("miss_limit must be >= 0")


@dataclass
class TrackedObject:
    """A registered identity carried across frames."""

    id: int
    embedding: np.ndarray
    box: BoundingBox
    center: tuple[float, float]
    e_count: int = 0  # consecutive detection misses
    region_history: list[Region] = field(default_factory=list)
    last_seen_frame: int = -1


@dataclass
class DistanceMatrices:
    """Per-frame cost state: rows are registered tracks, columns detections.

    `feature` is consumed as scratch by `associate`; both matrices are rebuilt
    every frame.
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
    registered: Sequence[TrackedObject],
    detections: Sequence[DetectionRecord],
    config: TrackerConfig,
) -> DistanceMatrices:
    """Compute the feature and spatial distance matrices for one frame.

    Embeddings are used as `validate_embedding` left them: finite and non-zero.
    """
    m, n = len(registered), len(detections)
    if m == 0 or n == 0:
        return DistanceMatrices(np.zeros((m, n)), np.zeros((m, n)))
    track_emb = np.stack([t.embedding for t in registered])
    det_emb = np.stack([d.embedding for d in detections])
    if config.feature_metric is FeatureMetric.COSINE:
        track_norms = np.linalg.norm(track_emb, axis=1, keepdims=True)
        det_norms = np.linalg.norm(det_emb, axis=1, keepdims=True)
        feature = 1.0 - (track_emb / track_norms) @ (det_emb / det_norms).T
        np.clip(feature, 0.0, 2.0, out=feature)
    else:
        diff = track_emb[:, None, :] - det_emb[None, :, :]
        feature = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    track_centers = np.array([t.center for t in registered], dtype=float)
    det_centers = np.array([d.box.center for d in detections], dtype=float)
    delta = track_centers[:, None, :] - det_centers[None, :, :]
    spatial = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    return DistanceMatrices(feature, spatial)


def associate(matrices: DistanceMatrices, config: TrackerConfig) -> AssignmentResult:
    """Greedy gated assignment over the distance matrices.

    Repeatedly select the smallest remaining feature distance. If its row or
    column is already taken, or the pair fails the spatial gate, the cell is
    burned to the feature threshold and the loop moves on; otherwise the pair
    is matched and its cell burned likewise. The loop stops when the match
    count reaches min(rows, cols) or no cell is strictly below the feature
    threshold. Ties resolve to the lowest row, then lowest column. The feature
    matrix is consumed as scratch.
    """
    feature = matrices.feature
    spatial = matrices.spatial
    m, n = feature.shape
    limit = min(m, n)
    threshold = config.feature_threshold
    gate = config.spatial_threshold
    matches: list[tuple[int, int]] = []
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    while len(matches) < limit and feature.min() < threshold:
        i, j = divmod(int(np.argmin(feature)), n)
        if i in used_rows or j in used_cols or spatial[i, j] > gate:
            feature[i, j] = threshold
            continue
        matches.append((i, j))
        used_rows.add(i)
        used_cols.add(j)
        feature[i, j] = threshold
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

    @property
    def ids_issued(self) -> int:
        return self._next_id - 1

    def step(
        self,
        detections: Sequence[DetectionRecord],
        frame_id: int,
    ) -> StepReport:
        """Advance one frame: match, register, age, and evict.

        Detections must already be head-filtered. Matched tracks adopt the
        detection's embedding, box, and center outright (no averaging) and
        reset their miss count. Unmatched detections become new tracks with an
        empty region history, which the counter fills. Unmatched tracks age by
        one miss, and anything whose miss count exceeds the limit is removed
        before the step returns; ids are never reused.
        """
        matrices = build_matrices(self.objects, detections, self.config)
        result = associate(matrices, self.config)
        created: list[int] = []
        matched: list[int] = []
        evicted: list[int] = []
        for i, j in result.matches:
            track = self.objects[i]
            det = detections[j]
            track.embedding = det.embedding
            track.box = det.box
            track.center = det.box.center
            track.e_count = 0
            track.last_seen_frame = frame_id
            matched.append(track.id)
        for i in result.unmatched_registered:
            self.objects[i].e_count += 1
        for j in result.unmatched_detections:
            det = detections[j]
            track = TrackedObject(
                id=self._next_id,
                embedding=det.embedding,
                box=det.box,
                center=det.box.center,
                e_count=0,
                last_seen_frame=frame_id,
            )
            self._next_id += 1
            self.objects.append(track)
            created.append(track.id)
        survivors = []
        for track in self.objects:
            if track.e_count > self.config.miss_limit:
                evicted.append(track.id)
            else:
                survivors.append(track)
        self.objects = survivors
        return StepReport(frame_id, created, matched, evicted)
