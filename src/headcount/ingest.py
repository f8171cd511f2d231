"""Detection-stream data model: records, lighting classification, head filtering.

The engine consumes detections produced by an external detector, one frame
per line in a newline-delimited JSON stream:

    {"frame_id": 12, "ts_ms": 600, "lighting": "day",
     "detections": [{"class": "head", "conf": 0.97,
                     "box": [0.46, 0.06, 0.54, 0.14],
                     "emb": [0.0, 1.0, ...]}]}

`lighting` is optional; `emb` is required for head records and optional for
distraction classes (chair, trolley, bag). Box coordinates are normalized to
[0, 1] with the origin at the top-left and y growing downward, which keeps
every downstream threshold independent of camera resolution.

Every record is validated here, once, as it enters: the tracker and counter
trust what `parse_stream` yields. Embeddings default to DEFAULT_EMBEDDING_DIM
components.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Union

import numpy as np

DEFAULT_EMBEDDING_DIM = 1024


class DetectionClass(Enum):
    HEAD = "head"
    CHAIR = "chair"
    TROLLEY = "trolley"
    BAG = "bag"


class LightingMode(Enum):
    DAY = "day"
    NIGHT = "night"


class StreamError(Exception):
    """Base for detection-stream violations; carries the offending line and,
    when `headcount.run` raises it, the RunResult of the frames before it as `result`."""

    result = None

    def __init__(self, message: str, line_number: Optional[int] = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class StreamParseError(StreamError):
    """A line is not a well-formed frame record."""


class StreamOrderError(StreamError):
    """Frame ids must strictly increase and timestamps never go backward."""


class EmbeddingDimensionError(StreamError):
    """All embeddings in one stream must share a single dimension."""


def validate_embedding(values) -> np.ndarray:
    """Coerce to a 1-D float vector with finite components and a non-zero norm."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("embedding must be a non-empty 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError("embedding components must be finite")
    if not arr @ arr > 0.0:
        raise ValueError("embedding has zero norm: cosine distance is undefined for a zero vector")
    return arr


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in normalized frame coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(0.0 <= c <= 1.0 for c in coords):
            raise ValueError(f"box coordinates must lie in [0, 1], got {coords}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"box must have positive extent, got {coords}")

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


@dataclass
class DetectionRecord:
    """One detector output. Heads carry an appearance embedding."""

    class_label: DetectionClass
    confidence: float
    box: BoundingBox
    embedding: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.embedding is not None:
            self.embedding = validate_embedding(self.embedding)
        elif self.class_label is DetectionClass.HEAD:
            raise ValueError("head detections must carry an embedding")


@dataclass
class FrameRecord:
    """All detections of one captured frame, plus optional lighting metadata."""

    frame_id: int
    timestamp_ms: int
    detections: list[DetectionRecord] = field(default_factory=list)
    lighting: Optional[LightingMode] = None


def classify_lighting(
    samples: np.ndarray,
    channel_tolerance: int = 2,
    agreement_fraction: float = 0.99,
) -> LightingMode:
    """Decide day vs night from sampled pixels, an (N, 3) array of RGB values.

    IR night mode produces grayscale frames where the three channels of every
    pixel are equal. Compressed video breaks exact equality, so a sample
    counts as grayscale when its channel spread is within `channel_tolerance`,
    and the frame is night when at least `agreement_fraction` of samples
    agree. With tolerance 0 and fraction 1.0 this reduces to the exact rule.
    """
    pixels = np.asarray(samples)
    if pixels.ndim != 2 or pixels.shape[1] != 3 or len(pixels) == 0:
        raise ValueError(f"expected an (N, 3) array of RGB samples, N >= 1, got {pixels.shape}")
    if pixels.min() < 0 or pixels.max() > 255:
        raise ValueError("channel values must be in [0, 255]")
    if channel_tolerance < 0:
        raise ValueError("channel_tolerance must be >= 0")
    if not 0.0 < agreement_fraction <= 1.0:
        raise ValueError("agreement_fraction must be in (0, 1]")
    spread = pixels.max(axis=1) - pixels.min(axis=1)
    agreeing = int(np.count_nonzero(spread <= channel_tolerance))
    if agreeing / len(pixels) >= agreement_fraction:
        return LightingMode.NIGHT
    return LightingMode.DAY


def sample_pixel_grid(image, grid: tuple[int, int] = (10, 10)) -> np.ndarray:
    """Sample an H x W x 3 image on a uniform grid, row by row, as an (N, 3) array."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] < 3:
        raise ValueError(f"expected an H x W x 3 image, got shape {img.shape}")
    if grid[0] < 1 or grid[1] < 1:
        raise ValueError("grid must have at least one row and one column")
    rows = np.linspace(0, img.shape[0] - 1, grid[0]).round().astype(int)
    cols = np.linspace(0, img.shape[1] - 1, grid[1]).round().astype(int)
    return img[np.ix_(rows, cols)][..., :3].reshape(-1, 3)


def filter_heads(frame: FrameRecord, min_confidence: float = 0.5) -> list[DetectionRecord]:
    """Keep head detections at or above the confidence floor, in input order.

    Distraction classes (chair, trolley, bag) are dropped regardless of
    confidence; records are never relabeled.
    """
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError(f"min_confidence must be in [0, 1], got {min_confidence}")
    return [
        det
        for det in frame.detections
        if det.class_label is DetectionClass.HEAD and det.confidence >= min_confidence
    ]


def _require(obj: dict, key: str, line_number: int):
    if key not in obj:
        raise StreamParseError(f"missing field '{key}'", line_number)
    return obj[key]


def _detection_from_obj(obj: dict, line_number: int) -> DetectionRecord:
    if not isinstance(obj, dict):
        raise StreamParseError("detection entries must be objects", line_number)
    raw_class = _require(obj, "class", line_number)
    try:
        label = DetectionClass(raw_class)
    except ValueError:
        raise StreamParseError(f"unknown detection class {raw_class!r}", line_number) from None
    raw_box = _require(obj, "box", line_number)
    if not (isinstance(raw_box, (list, tuple)) and len(raw_box) == 4):
        raise StreamParseError("box must be [x_min, y_min, x_max, y_max]", line_number)
    raw_conf = _require(obj, "conf", line_number)
    # type(), not isinstance(): a JSON true is a bool, an int subclass, and must not read as 1
    if any(type(v) not in (int, float) for v in (raw_conf, *raw_box)):
        raise StreamParseError(
            f"conf and box values must be JSON numbers, got {raw_conf!r} and {raw_box!r}", line_number
        )
    try:
        box = BoundingBox(*(float(v) for v in raw_box))
        return DetectionRecord(
            class_label=label,
            confidence=float(raw_conf),
            box=box,
            embedding=obj.get("emb"),
        )
    except (TypeError, ValueError) as exc:
        raise StreamParseError(str(exc), line_number) from None


def _frame_from_obj(obj, line_number: int) -> FrameRecord:
    if not isinstance(obj, dict):
        raise StreamParseError("frame record must be a JSON object", line_number)
    lighting = None
    if obj.get("lighting") is not None:
        try:
            lighting = LightingMode(obj["lighting"])
        except ValueError:
            raise StreamParseError(
                f"lighting must be 'day' or 'night', got {obj['lighting']!r}", line_number
            ) from None
    raw_dets = obj.get("detections", [])
    if not isinstance(raw_dets, list):
        raise StreamParseError("detections must be an array", line_number)
    frame_id = _require(obj, "frame_id", line_number)
    ts_ms = _require(obj, "ts_ms", line_number)
    if type(frame_id) is not int or type(ts_ms) is not int:
        raise StreamParseError(
            f"frame_id and ts_ms must be JSON integers, got {frame_id!r} and {ts_ms!r}", line_number
        )
    detections = [_detection_from_obj(d, line_number) for d in raw_dets]
    return FrameRecord(frame_id=frame_id, timestamp_ms=ts_ms, detections=detections, lighting=lighting)


def parse_stream(
    source: Union[Iterable[Union[str, bytes]]],
    embedding_dim: Optional[int] = None,
) -> Iterator[FrameRecord]:
    """Yield FrameRecords from a line-delimited stream, validating as it goes.

    `source` may be a file object (text or binary) or any iterable of lines.
    The embedding dimension is locked to `embedding_dim` when given, otherwise
    to the first embedding seen; any later mismatch is a stream error. Frame
    ids must strictly increase and timestamps must never decrease.
    """
    expected_dim = embedding_dim
    last_frame_id: Optional[int] = None
    last_ts: Optional[int] = None
    for line_number, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StreamParseError(f"invalid UTF-8: {exc}", line_number) from None
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamParseError(f"invalid JSON: {exc}", line_number) from None
        frame = _frame_from_obj(obj, line_number)
        if last_frame_id is not None and frame.frame_id <= last_frame_id:
            raise StreamOrderError(
                f"frame_id {frame.frame_id} does not increase past {last_frame_id}", line_number
            )
        if last_ts is not None and frame.timestamp_ms < last_ts:
            raise StreamOrderError(
                f"timestamp {frame.timestamp_ms} goes backward past {last_ts}", line_number
            )
        for det in frame.detections:
            if det.embedding is None:
                continue
            if expected_dim is None:
                expected_dim = det.embedding.size
            elif det.embedding.size != expected_dim:
                raise EmbeddingDimensionError(
                    f"embedding length {det.embedding.size} != stream dimension {expected_dim}",
                    line_number,
                )
        last_frame_id = frame.frame_id
        last_ts = frame.timestamp_ms
        yield frame


def serialize_frame(frame: FrameRecord) -> str:
    """Render one frame as its canonical stream line (no trailing newline)."""
    obj: dict = {"frame_id": frame.frame_id, "ts_ms": frame.timestamp_ms}
    if frame.lighting is not None:
        obj["lighting"] = frame.lighting.value
    dets = []
    for det in frame.detections:
        entry: dict = {
            "class": det.class_label.value,
            "conf": float(det.confidence),
            "box": [det.box.x_min, det.box.y_min, det.box.x_max, det.box.y_max],
        }
        if det.embedding is not None:
            entry["emb"] = det.embedding.tolist()
        dets.append(entry)
    obj["detections"] = dets
    return json.dumps(obj, separators=(",", ":"))


def write_stream(frames: Iterable[FrameRecord], fp) -> int:
    """Write frames to a text file object, one line each; returns line count."""
    count = 0
    for frame in frames:
        fp.write(serialize_frame(frame) + "\n")
        count += 1
    return count
