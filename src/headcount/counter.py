"""Three-region doorway counting.

The frame is split by two horizontal lines into an outside region (A), a
critical buffer (B), and an inside region (C). Every track keeps one anchor,
the last of A or C it was seen in; a track anchored in A that reaches C counts
as an entry, the reverse as an exit. The buffer never moves the anchor, so it
absorbs people loitering near a single boundary, which is what makes the
scheme immune to the oscillating double counts that plague one-line systems.
"""
from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

if TYPE_CHECKING:
    from .tracker import TrackedObject

quote = reprlib.Repr()  # the one bounded quote of a value read from a stream line, a config or a grid
quote.maxlevel = 2  # reprlib's default depth of 6 leaves a 6-deep, 6-wide value whole


# The number rule, held by every constructor: a number is a real number that is
# not a bool, so a JSON true/false or string never reads as one; a count is an
# integer that is not a bool. Plain int and float skip the slower ABC check.
def is_number_type(kind: type) -> bool:
    return kind is float or kind is int or (issubclass(kind, numbers.Real) and kind is not bool)


def is_count(value) -> bool:
    return type(value) is int or (is_number_type(type(value)) and isinstance(value, numbers.Integral))


def is_number_row(row) -> bool:
    """A list or tuple whose values are all numbers, checked by their types
    whatever the values are, or a 1-D int or float ndarray."""
    if isinstance(row, np.ndarray):
        return row.ndim == 1 and row.dtype.kind in "iuf"
    return isinstance(row, (list, tuple)) and all(map(is_number_type, set(map(type, row))))


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError, led by `name`, unless a field or argument is a count of at least `least` (0 or 1)."""
    if not is_count(value) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {quote.repr(value)}")


def check_number(name: str, value, low: float = -math.inf, high: float = math.inf) -> None:
    """Raise ValueError, led by `name`, unless a field or argument is a finite number, one a
    float holds (no NaN, no inf, no larger integer), with low <= value <= high."""
    if not (is_number_type(type(value)) and low <= value <= high and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number in [{low}, {high}], got {quote.repr(value)}")


class Region(Enum):
    A = "A"  # fully outside
    B = "B"  # critical buffer between the lines
    C = "C"  # fully inside


class Orientation(Enum):
    OUTSIDE_TOP = "outside_top"
    OUTSIDE_BOTTOM = "outside_bottom"


@dataclass(frozen=True)
class RegionLayout:
    """Two horizontal lines (normalized y) partitioning the frame.

    `line_ab` and `line_bc` always satisfy 0 < line_ab < line_bc < 1; the
    orientation (or its wire name) decides which side is outside. For
    OUTSIDE_TOP, A lies above both lines and C below; OUTSIDE_BOTTOM mirrors it.
    """

    line_ab: float = 0.4
    line_bc: float = 0.6
    orientation: Orientation = Orientation.OUTSIDE_TOP

    def __post_init__(self):
        check_number("line_ab", self.line_ab, 0, 1)
        check_number("line_bc", self.line_bc, 0, 1)
        try:
            object.__setattr__(self, "orientation", Orientation(self.orientation))
        except ValueError:
            raise ValueError("orientation must be 'outside_top' or 'outside_bottom', "
                             f"got {quote.repr(self.orientation)}") from None
        if not 0.0 < self.line_ab < self.line_bc < 1.0:
            raise ValueError(
                f"region lines must satisfy 0 < line_ab < line_bc < 1, "
                f"got ({self.line_ab}, {self.line_bc})"
            )


DEFAULT_LAYOUT = RegionLayout()


def classify_region(center_y: float, layout: RegionLayout = DEFAULT_LAYOUT) -> Region:
    """Map a normalized vertical position to its region.

    A point exactly on a line belongs to B: the buffer owns ties, so a
    boundary position can never produce a count on its own.
    """
    top = layout.orientation is Orientation.OUTSIDE_TOP
    if center_y < layout.line_ab:
        return Region.A if top else Region.C
    if center_y > layout.line_bc:
        return Region.C if top else Region.A
    return Region.B


class EventKind(Enum):
    ENTRY = "entry"
    EXIT = "exit"


@dataclass(frozen=True)
class CrossingEvent:
    kind: EventKind
    track_id: int
    frame_id: int
    timestamp_ms: int


def update_history(
    track: "TrackedObject",
    region: Region,
    frame_id: int = 0,
    timestamp_ms: int = 0,
) -> Optional[CrossingEvent]:
    """Move the track's anchor to `region`; emit an event when it changes sides.

    B, or the side the track is already anchored on, changes nothing. The
    first A or C seen sets the anchor and emits nothing. Reaching C anchored
    in A emits an entry, reaching A anchored in C an exit, and either
    re-anchors on the new side, so loitering inside and leaving later yields
    exactly one exit. Tracks born in B or C never produce an entry without
    first touching A, and symmetrically for exits.
    """
    anchor = track.anchor
    # The anchor test goes first: it needs no lookup on the Region class.
    if region is anchor or region is Region.B:
        return None
    track.anchor = region
    if anchor is None:
        return None
    kind = EventKind.ENTRY if region is Region.C else EventKind.EXIT
    return CrossingEvent(kind, track.id, frame_id, timestamp_ms)


class EventLog(Sequence):
    """A read-only sequence of crossing events in tally order, equal to any
    sequence of the same events. Each event is one row of four int64 columns
    (kind, track id, frame id, ts_ms); a CrossingEvent is built only when read."""

    _kinds = tuple(EventKind)  # a kind is stored as its index here

    def __init__(self):
        self._columns = tuple(array("q") for _ in range(4))

    def append(self, event: CrossingEvent) -> None:
        """Store the event's four integers; `tally` is the one writer."""
        row = (self._kinds.index(event.kind), event.track_id, event.frame_id, event.timestamp_ms)
        for column, value in zip(self._columns, row):
            column.append(value)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        """One event for an int index, a list of events for a slice."""
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        kind, *rest = (column[index] for column in self._columns)
        return CrossingEvent(self._kinds[kind], *rest)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class CountLedger:
    """Running entry/exit tallies with the full event log."""

    ins: int = 0
    outs: int = 0
    events: EventLog = field(default_factory=EventLog)

    def occupancy(self) -> int:
        """Entries minus exits; negative when monitoring began with people inside."""
        return self.ins - self.outs

    def snapshot(self) -> dict:
        return {"ins": self.ins, "outs": self.outs, "occupancy": self.occupancy()}


def tally(ledger: CountLedger, event: CrossingEvent) -> CountLedger:
    """Fold one crossing event into the ledger; returns the ledger."""
    ledger.events.append(event)
    if event.kind is EventKind.ENTRY:
        ledger.ins += 1
    else:
        ledger.outs += 1
    return ledger


def event_to_json(event: CrossingEvent) -> str:
    return json.dumps(
        {
            "kind": event.kind.value,
            "track_id": event.track_id,
            "frame_id": event.frame_id,
            "ts_ms": event.timestamp_ms,
        },
        separators=(",", ":"),
    )


def write_lines(lines: Iterable[str], fp) -> int:
    """Write each line and a newline to a text file object; returns line count."""
    count = 0
    for line in lines:
        fp.write(line + "\n")
        count += 1
    return count


def write_events(events: Iterable[CrossingEvent], fp) -> int:
    """Write the event log as line-delimited JSON; returns line count."""
    return write_lines(map(event_to_json, events), fp)


@dataclass(frozen=True)
class AccuracyReport:
    total_observations: int
    error: int
    accuracy_percent: float


def accuracy(total_observations: int, error: int) -> AccuracyReport:
    """Counting accuracy: (total - error) / total, as a percentage.

    Reported to two decimals. Pooling several monitoring periods means
    summing both totals and errors before calling this.
    """
    check_count("total_observations", total_observations, 1)
    check_count("error", error, 0)
    pct = round((total_observations - error) / total_observations * 100.0, 2)
    return AccuracyReport(total_observations, error, pct)
