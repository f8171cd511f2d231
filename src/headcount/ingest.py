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
yields; it reads a frame's JSON `emb` rows in one inferred numpy pass, exact by
`_embedding_block`'s check. Embeddings default to DEFAULT_EMBEDDING_DIM components.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .counter import check_number, is_count, is_number_row, quote, write_lines

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
    """Base for detection-stream violations: `parse_stream`, and only it, sets the offending
    `line_number`; `headcount.run` sets `result`, the RunResult of the frames before it."""

    result = None

    def __init__(self, message: str, line_number: Optional[int] = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class StreamParseError(StreamError):
    """A line is not a well-formed frame record."""


class StreamOrderError(StreamError):
    """A frame's `frame_id` or `ts_ms` breaks `check_frame` (not an int64 integer, or out of order):
    `parse_stream` names its line, and `Engine.process_frame` refuses it before any state changes."""


class EmbeddingDimensionError(StreamError):
    """All embeddings in one stream must share a single dimension (`check_frame`)."""


def validate_embedding(block: np.ndarray) -> None:
    """The embedding rule for an (n, d) block: d >= 1, and each row's squares sum to less than
    inf (all finite, no overflow) and more than 0 (not zero, not all underflowing)."""
    if block.ndim != 2 or (len(block) > 0 and block.shape[1] == 0):
        raise ValueError("embedding must have at least one component")
    squares = np.einsum("ij,ij->i", block, block)
    if np.count_nonzero(squares < np.inf) < len(block):
        raise ValueError("embedding components must be finite and their squares must sum below the float64 limit")
    if np.count_nonzero(squares > 0.0) < len(block):
        raise ValueError("embedding has zero norm: cosine distance is undefined for a zero vector")


def _embedding_block(rows: list, from_json: bool) -> np.ndarray:
    """The `emb` number rule: number-typed values (`is_number_row`), rows of one length, as an (n, d) float block.
    JSON rows whose first values hold no 0 or 1 try one inferred pass, which type-checks only rows holding a 0 or 1."""
    if from_json and type(rows[0]) is list and not (0 in rows[0][:8] or 1 in rows[0][:8]):
        try:
            block = np.array(rows)
        except ValueError:  # ragged rows, or nested past numpy's dimension limit
            block = np.empty(0)
        if block.ndim == 2 and block.dtype.kind in "if":  # of the JSON values only a bool hides here, as 0 or 1
            suspects = compress(rows, ((block == 0) | (block == 1)).any(axis=1).tolist())
            if bool not in set(map(type, chain.from_iterable(suspects))):
                return block.astype(float, copy=False)
    for row in rows:
        if not is_number_row(row):
            raise ValueError(f"emb must be a flat array of numbers, got {quote.repr(row)}")
    try:
        return np.array(rows, dtype=float)
    except ValueError:  # ragged rows
        lengths = sorted(set(map(len, rows)))
        raise EmbeddingDimensionError(f"emb lengths {quote.repr(lengths)} differ within one frame") from None


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
        rows = zip(self.labels, self.confidences.tolist(), self.boxes.tolist(), flags := self.has_embedding.tolist())
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
        validate_embedding(self.embeddings if all(flags) else self.embeddings[self.has_embedding])

    @classmethod
    def from_rows(cls, rows: Iterable[tuple] = ()) -> "Detections":
        """Build from (class, conf, box, emb or None) rows; a class may be its wire name.
        A conf, a box's 4 values and an emb row's values must follow the number rule."""
        return cls._from_rows(list(rows), from_json=False)

    @classmethod
    def _from_rows(cls, rows: list, from_json: bool) -> "Detections":  # from_json: rows that json.loads built
        n = len(rows)
        classes, confs, boxes, embs = zip(*rows) if rows else ((), (), (), ())
        try:  # one pass over the frame's columns, not one per detection
            valid = set(map(len, boxes)) <= {4} and is_number_row((*confs, *chain.from_iterable(boxes)))
        except TypeError:  # a box without a length
            valid = False
        if not valid:
            raise ValueError(f"each conf must be a number and each box 4 numbers, got conf "
                             f"{quote.repr(confs)} and box {quote.repr(boxes)}")
        has_embedding = np.array([emb is not None for emb in embs], dtype=bool)
        embedded = [emb for emb in embs if emb is not None]
        embeddings = _embedding_block(embedded, from_json) if embedded else np.zeros((0, 0))
        if len(embedded) < n:  # rows without an emb hold zeros
            block, embeddings = embeddings, np.zeros((n, embeddings.shape[1]))
            embeddings[has_embedding] = block
        try:
            labels = tuple(map(_CLASSES.__getitem__, classes))
        except KeyError as exc:
            raise ValueError(f"unknown detection class: {quote.repr(exc.args[0])}") from None
        except TypeError as exc:  # an unhashable class, e.g. a JSON array
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
                raise ValueError(f"lighting must be 'day' or 'night', got {quote.repr(self.lighting)}") from None


# The IR day/night rule: a frame is night when at least LIGHTING_AGREEMENT of the pixels on an evenly
# spaced LIGHTING_GRID x LIGHTING_GRID sample have a channel spread of at most LIGHTING_TOLERANCE of 255.
LIGHTING_GRID = 10
LIGHTING_TOLERANCE = 2
LIGHTING_AGREEMENT = 0.99


def classify_lighting(image) -> LightingMode:
    """Day or night for an H x W x 3 RGB image (channels past the third are ignored) by the IR rule:
    IR night frames are grayscale, equal channels on every pixel up to compression's small spread.
    Only the grid's pixels are read; a ValueError quotes the dtype and shape of an image refused."""
    img = np.asarray(image)
    got = f"got dtype {img.dtype} and shape {img.shape}"
    if not (img.ndim == 3 and img.shape[0] and img.shape[1] and img.shape[2] >= 3 and img.dtype.kind in "iuf"):
        raise ValueError(f"expected an H x W x 3 image of numbers, H and W >= 1, {got}")
    rows, cols = (np.linspace(0, size - 1, LIGHTING_GRID).round().astype(int) for size in img.shape[:2])
    pixels = img[np.ix_(rows, cols)][..., :3].reshape(-1, 3)
    if not np.all((pixels >= 0) & (pixels <= 255)):  # NaN fails both comparisons
        raise ValueError(f"sampled channel values must be in [0, 255], {got}")
    agreeing = np.count_nonzero(pixels.max(axis=1) - pixels.min(axis=1) <= LIGHTING_TOLERANCE)
    return LightingMode.NIGHT if agreeing / len(pixels) >= LIGHTING_AGREEMENT else LightingMode.DAY


def filter_heads(frame: FrameRecord, min_confidence: float) -> np.ndarray:
    """Indices of the head detections at or above the confidence floor, in input order.

    Distraction classes (chair, trolley, bag) are dropped regardless of
    confidence; detections are never relabeled.
    """
    check_number("min_confidence", min_confidence, 0, 1)
    dets = frame.detections
    rows = enumerate(zip(dets.labels, dets.confidences.tolist()))
    kept = [i for i, (label, conf) in rows if label is DetectionClass.HEAD and conf >= min_confidence]
    return np.array(kept, dtype=np.intp)


StreamState = tuple[Optional[int], Optional[int], Optional[int]]


def check_frame(frame: FrameRecord, last: StreamState) -> StreamState:
    """The stream rule, and its only statement: ids strictly increase, `ts_ms` never
    goes back, both are integers (not bools) that the event log's int64 columns
    hold, and every embedding has the stream's dimension.

    `last` is the stream's (frame_id, ts_ms, dim): ids None before the first
    frame, dim None until `embedding_dim` seeds it or the first embedding locks
    it. Returns the state after the frame; raises StreamOrderError or
    EmbeddingDimensionError without a line number (`parse_stream` adds the line).
    """
    frame_id, ts_ms = frame.frame_id, frame.timestamp_ms
    for name, value in (("frame_id", frame_id), ("ts_ms", ts_ms)):
        if not (is_count(value) and -(2**63) <= value < 2**63):
            raise StreamOrderError(f"{name} {quote.repr(value)} is not an integer in the int64 range")
    last_id, last_ts, dim = last
    if last_id is not None:
        if frame_id <= last_id:
            raise StreamOrderError(f"frame_id {frame_id} does not increase past {last_id}")
        if ts_ms < last_ts:
            raise StreamOrderError(f"ts_ms {ts_ms} goes backward past {last_ts}")
    width = frame.detections.embeddings.shape[1]  # 0 when the frame has no embedding
    if width and dim is not None and width != dim:
        raise EmbeddingDimensionError(f"embedding length {width} != stream dimension {dim}")
    return frame_id, ts_ms, dim or width or None


def _frame_from_obj(obj) -> FrameRecord:
    if not isinstance(obj, dict):
        raise StreamParseError("frame record must be a JSON object")
    raw_dets = obj.get("detections", [])
    if not isinstance(raw_dets, list):
        raise StreamParseError("detections must be an array")
    try:
        frame_id, ts_ms = obj["frame_id"], obj["ts_ms"]
        rows = [(det["class"], det["conf"], det["box"], det.get("emb")) for det in raw_dets]
    except KeyError as exc:
        raise StreamParseError(f"missing field {exc}") from None
    except TypeError:  # indexing a detection that is not an object
        raise StreamParseError("detection entries must be objects") from None
    try:
        return FrameRecord(frame_id, ts_ms, Detections._from_rows(rows, from_json=True), obj.get("lighting"))
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an integer beyond float range
        raise StreamParseError(str(exc)) from None


def parse_stream(
    source: Union[Iterable[Union[str, bytes]]],
    embedding_dim: Optional[int] = None,
) -> Iterator[FrameRecord]:
    """Yield FrameRecords from a line-delimited stream, validating as it goes.

    `source` may be a file object (text or binary) or any iterable of lines.
    The frames must follow the stream rule of `check_frame`, its dimension
    seeded from `embedding_dim` when given. Every StreamError names its line.
    """
    last: StreamState = (None, None, embedding_dim)
    for line_number, raw in enumerate(source, start=1):
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
            if not line:
                continue
            frame = _frame_from_obj(json.loads(line))
            last = check_frame(frame, last)
        except UnicodeDecodeError as exc:
            raise StreamParseError(f"invalid UTF-8: {exc}", line_number) from None
        except (ValueError, RecursionError) as exc:  # json.loads: also too many digits, too deep
            raise StreamParseError(f"invalid JSON: {exc}", line_number) from None
        except StreamError as exc:
            raise type(exc)(str(exc), line_number) from None
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
