"""Detection-stream data model: columnar frames, lighting classification, head filtering.

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

Each frame's detections become one `Detections` block of columns, validated
here, once, as it enters: the tracker and counter trust what `parse_stream`
yields. Embeddings default to DEFAULT_EMBEDDING_DIM components.
"""
from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .counter import is_number_row, is_number_type, write_lines

DEFAULT_EMBEDDING_DIM = 1024


class DetectionClass(Enum):
    HEAD = "head"
    CHAIR = "chair"
    TROLLEY = "trolley"
    BAG = "bag"


# Members and their wire names to members: a dict lookup costs far less than an Enum call.
_CLASSES = {key: label for label in DetectionClass for key in (label, label.value)}


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
    """A frame's id or timestamp breaks `check_frame` (not an int64 integer, or out of order):
    `parse_stream` names its line, and `Engine.process_frame` refuses it before any state changes."""


class EmbeddingDimensionError(StreamError):
    """All embeddings in one stream must share a single dimension (`check_frame`)."""


def validate_embedding(block: np.ndarray) -> None:
    """The embedding rule for an (n, d) block: d >= 1, all finite, no zero row."""
    if block.ndim != 2 or (len(block) > 0 and block.shape[1] == 0):
        raise ValueError("embedding must have at least one component")
    if np.count_nonzero(np.isfinite(block)) < block.size:
        raise ValueError("embedding components must be finite")
    if np.count_nonzero(np.einsum("ij,ij->i", block, block) > 0.0) < len(block):
        raise ValueError("embedding has zero norm: cosine distance is undefined for a zero vector")


def _embedding_block(rows: list) -> np.ndarray:
    """Stack embedding rows into one (n, d) float block; all rows share one length."""
    for row in rows:
        if not is_number_row(row):
            raise ValueError(f"emb must be a flat array of numbers, got {reprlib.repr(row)}")
    try:
        return np.array(rows, dtype=float)
    except ValueError:  # ragged rows
        lengths = sorted(set(map(len, rows)))
        raise EmbeddingDimensionError(f"emb lengths {lengths} differ within one frame") from None


@dataclass(frozen=True, eq=False)
class Detections:
    """One frame's detections as columns, row i of each being detection i, and
    validated once, here. `boxes` rows are (x_min, y_min, x_max, y_max); an
    `embeddings` row is zeros where `has_embedding` is false. Build with `from_rows`."""

    labels: tuple[DetectionClass, ...]
    confidences: np.ndarray
    boxes: np.ndarray
    embeddings: np.ndarray
    has_embedding: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        shapes = (self.confidences.shape, self.boxes.shape, self.has_embedding.shape)
        if shapes != ((n,), (n, 4), (n,)) or self.embeddings.ndim != 2 or len(self.embeddings) != n:
            raise ValueError(f"every column must hold one row for each of the {n} detections")
        # Scalar checks: on a frame's few rows they cost less than array operations.
        rows = zip(self.labels, self.confidences.tolist(), self.boxes.tolist(), self.has_embedding.tolist())
        for i, (label, conf, (x0, y0, x1, y1), has_emb) in enumerate(rows):
            if not 0.0 <= conf <= 1.0:
                rule = "confidence must be in [0, 1]"
            elif not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
                rule = "box must lie in [0, 1] with positive extent"
            elif label is DetectionClass.HEAD and not has_emb:
                rule = "head detections must carry an embedding"
            else:
                continue
            raise ValueError(f"detection {i}: {rule}, got conf {conf} and box {[x0, y0, x1, y1]}")
        validate_embedding(self.embeddings[self.has_embedding])

    @classmethod
    def from_rows(cls, rows: Iterable[tuple] = ()) -> "Detections":
        """Build from (class, conf, box, emb or None) rows; a class may be its wire name.
        A conf, a box's 4 values and an emb row's values must follow the number rule."""
        rows = list(rows)
        n = len(rows)
        classes, confs, boxes, embs = zip(*rows) if rows else ((), (), (), ())
        try:  # one pass over the frame's columns, not one per detection
            valid = set(map(len, boxes)) <= {4} and is_number_row((*confs, *chain.from_iterable(boxes)))
        except TypeError:  # a box without a length
            valid = False
        if not valid:
            raise ValueError(f"each conf must be a number and each box 4 numbers, got conf "
                             f"{reprlib.repr(confs)} and box {reprlib.repr(boxes)}")
        has_embedding = np.array([emb is not None for emb in embs], dtype=bool)
        embedded = [emb for emb in embs if emb is not None]
        block = _embedding_block(embedded) if embedded else np.zeros((0, 0))
        embeddings = np.zeros((n, block.shape[1]))
        embeddings[has_embedding] = block
        try:
            labels = tuple(map(_CLASSES.__getitem__, classes))
        except (KeyError, TypeError) as exc:  # TypeError: an unhashable class, e.g. a JSON array
            raise ValueError(f"unknown detection class: {exc}") from None
        return cls(labels, np.array(confs, dtype=float), np.array(boxes, dtype=float).reshape(n, 4),
                   embeddings, has_embedding)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def centers(self) -> np.ndarray:
        """Box centers, (n, 2)."""
        return (self.boxes[:, :2] + self.boxes[:, 2:]) / 2.0


@dataclass(frozen=True)
class FrameRecord:
    """One captured frame's detections and optional lighting, a LightingMode or its wire
    name stored as the mode. Frozen: `dataclasses.replace` builds a changed frame and checks it."""

    frame_id: int
    timestamp_ms: int
    detections: Detections = field(default_factory=Detections.from_rows)
    lighting: Optional[LightingMode] = None

    def __post_init__(self):
        if self.lighting is not None:
            try:
                object.__setattr__(self, "lighting", LightingMode(self.lighting))
            except ValueError:
                raise ValueError(f"lighting must be 'day' or 'night', got {self.lighting!r}") from None


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


def filter_heads(frame: FrameRecord, min_confidence: float) -> np.ndarray:
    """Indices of the head detections at or above the confidence floor, in input order.

    Distraction classes (chair, trolley, bag) are dropped regardless of
    confidence; detections are never relabeled.
    """
    if not is_number_type(type(min_confidence)) or not 0.0 <= min_confidence <= 1.0:
        raise ValueError(f"min_confidence must be a number in [0, 1], got {min_confidence!r}")
    dets = frame.detections
    rows = enumerate(zip(dets.labels, dets.confidences.tolist()))
    kept = [i for i, (label, conf) in rows if label is DetectionClass.HEAD and conf >= min_confidence]
    return np.array(kept, dtype=np.intp)


StreamState = tuple[Optional[int], Optional[int], Optional[int]]


def check_frame(frame: FrameRecord, last: StreamState, line_number: Optional[int] = None) -> StreamState:
    """The stream rule, and its only statement: ids strictly increase, `ts_ms` never
    goes back, both are integers (not bools) that the event log's int64 columns
    hold, and every embedding has the stream's dimension.

    `last` is the stream's (frame_id, ts_ms, dim): ids None before the first
    frame, dim None until `embedding_dim` seeds it or the first embedding locks
    it. Returns the state after the frame; raises StreamOrderError or
    EmbeddingDimensionError, naming the line when given one.
    """
    frame_id, ts_ms = frame.frame_id, frame.timestamp_ms
    for name, value in (("frame_id", frame_id), ("timestamp", ts_ms)):
        if not (is_number_type(type(value)) and isinstance(value, (int, np.integer))
                and -(2**63) <= value < 2**63):
            raise StreamOrderError(f"{name} {value!r} is not an integer in the int64 range", line_number)
    last_id, last_ts, dim = last
    if last_id is not None:
        if frame_id <= last_id:
            raise StreamOrderError(f"frame_id {frame_id} does not increase past {last_id}", line_number)
        if ts_ms < last_ts:
            raise StreamOrderError(f"timestamp {ts_ms} goes backward past {last_ts}", line_number)
    width = frame.detections.embeddings.shape[1]  # 0 when the frame has no embedding
    if width and dim is not None and width != dim:
        raise EmbeddingDimensionError(f"embedding length {width} != stream dimension {dim}", line_number)
    return frame_id, ts_ms, dim or width or None


def _frame_from_obj(obj, line_number: int) -> FrameRecord:
    if not isinstance(obj, dict):
        raise StreamParseError("frame record must be a JSON object", line_number)
    raw_dets = obj.get("detections", [])
    if not isinstance(raw_dets, list):
        raise StreamParseError("detections must be an array", line_number)
    try:
        frame_id, ts_ms = obj["frame_id"], obj["ts_ms"]
        rows = [(det["class"], det["conf"], det["box"], det.get("emb")) for det in raw_dets]
    except KeyError as exc:
        raise StreamParseError(f"missing field {exc}", line_number) from None
    except TypeError:  # indexing a detection that is not an object
        raise StreamParseError("detection entries must be objects", line_number) from None
    try:
        return FrameRecord(frame_id, ts_ms, Detections.from_rows(rows), obj.get("lighting"))
    except EmbeddingDimensionError as exc:
        raise EmbeddingDimensionError(str(exc), line_number) from None
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an integer beyond float range
        raise StreamParseError(str(exc), line_number) from None


def parse_stream(
    source: Union[Iterable[Union[str, bytes]]],
    embedding_dim: Optional[int] = None,
) -> Iterator[FrameRecord]:
    """Yield FrameRecords from a line-delimited stream, validating as it goes.

    `source` may be a file object (text or binary) or any iterable of lines.
    The frames must follow the stream rule of `check_frame`, its dimension
    seeded from `embedding_dim` when given.
    """
    last: StreamState = (None, None, embedding_dim)
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
        last = check_frame(frame, last, line_number)
        yield frame


def serialize_frame(frame: FrameRecord) -> str:
    """Render one frame as its canonical stream line (no trailing newline)."""
    obj: dict = {"frame_id": frame.frame_id, "ts_ms": frame.timestamp_ms}
    if frame.lighting is not None:
        obj["lighting"] = frame.lighting.value
    dets = frame.detections
    obj["detections"] = [
        {"class": label.value, "conf": conf, "box": box, **({"emb": emb.tolist()} if has_emb else {})}
        for label, conf, box, emb, has_emb in zip(
            dets.labels, dets.confidences.tolist(), dets.boxes.tolist(),
            dets.embeddings, dets.has_embedding.tolist(),
        )
    ]
    return json.dumps(obj, separators=(",", ":"))


def write_stream(frames: Iterable[FrameRecord], fp) -> int:
    """Write frames to a text file object, one line each; returns line count."""
    return write_lines(map(serialize_frame, frames), fp)
