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
import numbers
import reprlib
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
    """Frame ids must strictly increase and timestamps never go backward."""


class EmbeddingDimensionError(StreamError):
    """All embeddings in one stream must share a single dimension."""


def validate_embedding(block: np.ndarray) -> None:
    """The embedding rule for an (n, d) block: d >= 1, all finite, no zero row."""
    if block.ndim != 2 or (len(block) > 0 and block.shape[1] == 0):
        raise ValueError("embedding must have at least one component")
    if np.count_nonzero(np.isfinite(block)) < block.size:
        raise ValueError("embedding components must be finite")
    if np.count_nonzero(np.einsum("ij,ij->i", block, block) > 0.0) < len(block):
        raise ValueError("embedding has zero norm: cosine distance is undefined for a zero vector")


# The stream's number rule: a JSON true/false or string is not a number.
_NUMBERS = frozenset((int, float))


def _is_number_row(row) -> bool:
    """Whether an `emb` row is a flat array of numbers, none of them a bool. A
    bool would stack as 1 or 0 among numbers, so a list is checked by the type
    of every value, whatever the values are; an ndarray by its dtype."""
    if isinstance(row, np.ndarray):
        return row.ndim == 1 and row.dtype.kind in "iuf"
    if not isinstance(row, (list, tuple)):
        return False
    kinds = set(map(type, row))
    return kinds <= _NUMBERS or all(issubclass(kind, numbers.Real) and kind is not bool for kind in kinds)


def _embedding_block(rows: list) -> np.ndarray:
    """Stack embedding rows into one (n, d) float block; all rows share one length."""
    for row in rows:
        if not _is_number_row(row):
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
        """Build from (class, conf, box, emb or None) rows; a class may be its wire name."""
        rows = list(rows)
        n = len(rows)
        classes, confs, boxes, embs = zip(*rows) if rows else ((), (), (), ())
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


@dataclass
class FrameRecord:
    """All detections of one captured frame, plus optional lighting metadata."""

    frame_id: int
    timestamp_ms: int
    detections: Detections = field(default_factory=Detections.from_rows)
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


def filter_heads(frame: FrameRecord, min_confidence: float = 0.5) -> np.ndarray:
    """Indices of the head detections at or above the confidence floor, in input order.

    Distraction classes (chair, trolley, bag) are dropped regardless of
    confidence; detections are never relabeled.
    """
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError(f"min_confidence must be in [0, 1], got {min_confidence}")
    dets = frame.detections
    rows = enumerate(zip(dets.labels, dets.confidences.tolist()))
    kept = [i for i, (label, conf) in rows if label is DetectionClass.HEAD and conf >= min_confidence]
    return np.array(kept, dtype=np.intp)


def _require(obj: dict, key: str, line_number: int):
    if key not in obj:
        raise StreamParseError(f"missing field '{key}'", line_number)
    return obj[key]


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
    rows = []
    for det in raw_dets:
        if not isinstance(det, dict):
            raise StreamParseError("detection entries must be objects", line_number)
        raw_class, raw_conf, raw_box = (_require(det, key, line_number) for key in ("class", "conf", "box"))
        if not (isinstance(raw_box, list) and len(raw_box) == 4):
            raise StreamParseError("box must be [x_min, y_min, x_max, y_max]", line_number)
        # type(), not isinstance(): a JSON true is a bool, an int subclass, and must not read as 1
        if any(type(v) not in _NUMBERS for v in (raw_conf, *raw_box)):
            message = f"conf and box values must be JSON numbers, got {raw_conf!r} and {raw_box!r}"
            raise StreamParseError(message, line_number)
        rows.append((raw_class, raw_conf, raw_box, det.get("emb")))
    try:
        detections = Detections.from_rows(rows)
    except EmbeddingDimensionError as exc:
        raise EmbeddingDimensionError(str(exc), line_number) from None
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an integer beyond float range
        raise StreamParseError(str(exc), line_number) from None
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
        dim = frame.detections.embeddings.shape[1]
        if dim and expected_dim is None:
            expected_dim = dim
        elif dim and dim != expected_dim:
            raise EmbeddingDimensionError(
                f"embedding length {dim} != stream dimension {expected_dim}", line_number
            )
        last_frame_id = frame.frame_id
        last_ts = frame.timestamp_ms
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
    count = 0
    for frame in frames:
        fp.write(serialize_frame(frame) + "\n")
        count += 1
    return count
