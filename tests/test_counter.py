import ast
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import headcount
from headcount.counter import (
    AccuracyReport,
    CountLedger,
    CrossingEvent,
    EventKind,
    Orientation,
    Region,
    RegionLayout,
    accuracy,
    classify_region,
    event_to_json,
    is_count,
    tally,
    update_history,
    write_events,
)

from oracles import anchor_pair_events


class History:
    """Bare track stand-in: update_history only needs id and anchor."""

    def __init__(self, anchor=None, track_id=1):
        self.id = track_id
        self.anchor = anchor


def feed(labels, track=None):
    """Push a string like 'ABC' through update_history; returns (kinds, track)."""
    track = track or History()
    events = []
    for idx, label in enumerate(labels):
        ev = update_history(track, Region(label), frame_id=idx, timestamp_ms=idx * 50)
        if ev is not None:
            events.append(ev)
    return events, track


@pytest.mark.parametrize(
    "value, counted",
    [(3, True), (-(2**70), True), (np.int64(3), True), (np.uint8(3), True), (True, False), (np.True_, False),
     (3.0, False), (np.float64(3.0), False), ("3", False), (None, False)],
)
def test_a_count_is_an_integer_that_is_not_a_bool(value, counted):
    assert is_count(value) is counted


class TestRegionLayout:
    def test_default_lines(self):
        layout = RegionLayout()
        assert (layout.line_ab, layout.line_bc) == (0.4, 0.6)

    @pytest.mark.parametrize(
        "ab,bc", [(0.6, 0.4), (0.4, 0.4), (0.0, 0.6), (0.4, 1.0), ("0.4", 0.6), (0.4, True), (float("nan"), 0.6)]
    )
    def test_rejects_bad_lines(self, ab, bc):
        with pytest.raises(ValueError):
            RegionLayout(ab, bc)

    def test_orientation_takes_its_wire_name(self):
        # A wire name must not fall through to the other orientation's branch.
        layout = RegionLayout(0.4, 0.6, "outside_top")
        assert layout == RegionLayout(0.4, 0.6, Orientation.OUTSIDE_TOP)
        assert classify_region(0.1, layout) is Region.A
        assert RegionLayout(orientation="outside_bottom").orientation is Orientation.OUTSIDE_BOTTOM
        with pytest.raises(ValueError, match="sideways"):
            RegionLayout(0.4, 0.6, "sideways")


class TestClassifyRegion:
    layout = RegionLayout(0.4, 0.6, Orientation.OUTSIDE_TOP)

    @pytest.mark.parametrize(
        "y,expected",
        [(0.1, Region.A), (0.5, Region.B), (0.4, Region.B), (0.6, Region.B), (0.61, Region.C)],
    )
    def test_outside_top(self, y, expected):
        assert classify_region(y, self.layout) is expected

    @pytest.mark.parametrize(
        "y,expected",
        [(0.9, Region.A), (0.5, Region.B), (0.6, Region.B), (0.4, Region.B), (0.39, Region.C)],
    )
    def test_outside_bottom_mirrors(self, y, expected):
        layout = RegionLayout(0.4, 0.6, Orientation.OUTSIDE_BOTTOM)
        assert classify_region(y, layout) is expected


class TestUpdateHistory:
    def test_entry_via_buffer(self):
        events, track = feed("ABC")
        assert [e.kind for e in events] == [EventKind.ENTRY]
        assert events[0].frame_id == 2
        assert track.anchor is Region.C

    def test_exit_via_buffer(self):
        events, track = feed("CBA")
        assert [e.kind for e in events] == [EventKind.EXIT]
        assert track.anchor is Region.A

    def test_direct_jump_counts_too(self):
        events, _ = feed("AC")
        assert [e.kind for e in events] == [EventKind.ENTRY]

    def test_retreat_produces_nothing(self):
        events, _ = feed("ABBA")
        assert events == []

    def test_born_in_buffer_no_anchor(self):
        events, track = feed("BC")
        assert events == []
        assert track.anchor is Region.C

    def test_dedup_consecutive(self):
        # Repeats and the buffer leave the first anchor in place.
        events, track = feed("AAABBB")
        assert events == []
        assert track.anchor is Region.A

    def test_enter_then_exit_both_count(self):
        events, _ = feed("ABCBA")
        assert [e.kind for e in events] == [EventKind.ENTRY, EventKind.EXIT]

    def test_loiter_inside_single_exit(self):
        events, _ = feed("ABCBCBCA")
        assert [e.kind for e in events] == [EventKind.ENTRY, EventKind.EXIT]

    def test_event_carries_track_and_frame(self):
        track = History(track_id=9)
        ev = update_history(track, Region.A, frame_id=3, timestamp_ms=150)
        assert ev is None
        ev = update_history(track, Region.C, frame_id=7, timestamp_ms=350)
        assert ev == CrossingEvent(EventKind.ENTRY, 9, 7, 350)

    def test_exhaustive_against_anchor_scan_short(self):
        for length in range(1, 6):
            for labels in itertools.product("ABC", repeat=length):
                events, _ = feed(labels)
                got = [(e.kind.value, e.frame_id) for e in events]
                assert got == anchor_pair_events(labels), labels

    @given(st.text(alphabet="AB", max_size=40))
    def test_oscillation_between_outside_and_buffer_never_counts(self, labels):
        events, _ = feed(labels)
        assert events == []

    @given(st.text(alphabet="BC", max_size=40))
    def test_oscillation_between_buffer_and_inside_never_counts(self, labels):
        events, _ = feed(labels)
        assert events == []

    @given(st.text(alphabet="ABC", max_size=60))
    def test_matches_anchor_scan_on_long_strings(self, labels):
        events, _ = feed(labels)
        assert [(e.kind.value, e.frame_id) for e in events] == anchor_pair_events(labels)


class TestLedger:
    def test_tally_entry(self):
        ledger = CountLedger(ins=9, outs=4)
        tally(ledger, CrossingEvent(EventKind.ENTRY, 1, 10, 500))
        assert (ledger.ins, ledger.outs) == (10, 4)

    def test_tally_exit_from_empty(self):
        ledger = tally(CountLedger(), CrossingEvent(EventKind.EXIT, 2, 0, 0))
        assert (ledger.ins, ledger.outs) == (0, 1)
        assert ledger.occupancy() == -1

    def test_fold_balanced_day(self):
        ledger = CountLedger()
        for i in range(26):
            tally(ledger, CrossingEvent(EventKind.ENTRY, i, i, i))
            tally(ledger, CrossingEvent(EventKind.EXIT, i, i, i))
        assert (ledger.ins, ledger.outs) == (26, 26)
        assert len(ledger.events) == 52

    def test_snapshot(self):
        assert CountLedger(3, 1).snapshot() == {"ins": 3, "outs": 1, "occupancy": 2}

    def test_event_log_format(self):
        events = [CrossingEvent(EventKind.ENTRY, 5, 100, 5000)]
        buf = io.StringIO()
        assert write_events(events, buf) == 1
        assert json.loads(buf.getvalue()) == {
            "kind": "entry",
            "track_id": 5,
            "frame_id": 100,
            "ts_ms": 5000,
        }
        assert event_to_json(events[0]) == buf.getvalue().strip()


class TestAccuracy:
    @pytest.mark.parametrize(
        "total,error,expected",
        [(29, 3, 89.66), (21, 1, 95.24), (50, 4, 92.00), (7, 0, 100.00)],
    )
    def test_known_values(self, total, error, expected):
        assert accuracy(total, error).accuracy_percent == expected

    def test_pooling_two_periods(self):
        day1 = accuracy(29, 3)
        day2 = accuracy(21, 1)
        pooled = accuracy(
            day1.total_observations + day2.total_observations, day1.error + day2.error
        )
        assert pooled == AccuracyReport(50, 4, 92.00)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            accuracy(0, 0)
        with pytest.raises(ValueError):
            accuracy(10, -1)

    @given(st.integers(1, 10_000), st.integers(0, 10_000))
    def test_formula(self, total, error):
        report = accuracy(total, error)
        assert report.accuracy_percent == round((total - error) / total * 100.0, 2)


def test_values_are_quoted_only_through_quote():
    # An f-string's !r quotes a value whole, however large it is; counter.quote bounds it.
    found = set()
    for path in sorted(Path(headcount.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                found.add(f"{path.name}:{node.lineno}")
    assert sorted(found) == []
