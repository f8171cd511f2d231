"""Traced run: per-layer spans and counts, recorded from outside the engine.

For the length of a traced pass, `Tracer.installed` wraps these public
functions where the frame path looks them up, and restores them afterwards:

    engine.Engine.process_frame       engine
    engine.parse_stream               ingest: one span per next() on the stream
    engine.filter_heads               ingest
    tracker.Tracker.step              tracker
    tracker.build_matrices            tracker, as Tracker.step calls it
    tracker.associate                 tracker, as Tracker.step calls it
    engine.classify_region            counter, as Engine.process_frame calls it
    engine.update_history             counter
    engine.tally                      counter

Each span is (name, start, end, parent span, frame id), kept in flat arrays
in memory and written out once the run ends. A span's self time is its
duration minus that of its child spans. Counts (bytes, detections, cells,
candidates, matches, births, evictions, events) are taken at the same
boundaries. The tracer's own work on a call's inputs, such as counting
association candidates, runs in a `trace.*` span so that it is subtracted
from the caller's self time and reported nowhere.
"""
from __future__ import annotations

import os
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

from replay import replay_file, warm_up

NAMES = (
    "ingest.parse_stream",
    "engine.process_frame",
    "ingest.filter_heads",
    "tracker.step",
    "tracker.build_matrices",
    "tracker.associate",
    "counter.classify_region",
    "counter.update_history",
    "counter.tally",
    "trace.candidates",
)
CODE = {name: code for code, name in enumerate(NAMES)}
COUNTS = (
    "bytes", "detections", "heads", "cells", "candidates", "matches",
    "tracks_live", "births", "evictions", "events",
)


class Tracer:
    """Span and count store for one traced pass."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.frame = array("q")
        self.stack: list[int] = []
        self.frame_id = -1
        self.counts = dict.fromkeys(COUNTS, 0)

    def open(self, code: int) -> int:
        idx = len(self.name)
        self.name.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.frame.append(self.frame_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def cancel(self, idx: int) -> None:
        """Drop the span `idx`, the last one opened."""
        self.stack.pop()
        for column in (self.name, self.start, self.end, self.parent, self.frame):
            del column[idx:]

    def timed(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(args, result)` then takes counts."""
        code = CODE[name]

        def wrapper(*args, **kwargs):
            idx = self.open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _parse_stream(self, original):
        code = CODE["ingest.parse_stream"]
        counts = self.counts

        def parse_stream(source, *args, **kwargs):
            def sized():
                for line in source:
                    counts["bytes"] += len(line)
                    yield line

            frames = original(sized(), *args, **kwargs)
            while True:
                idx = self.open(code)
                try:
                    frame = next(frames)
                except StopIteration:
                    self.cancel(idx)
                    return
                except BaseException:
                    self.close(idx)
                    raise
                self.close(idx)
                self.frame[idx] = frame.frame_id
                counts["detections"] += len(frame.detections)
                yield frame

        return parse_stream

    def _process_frame(self, original):
        code = CODE["engine.process_frame"]

        def process_frame(engine, frame):
            self.frame_id = frame.frame_id
            idx = self.open(code)
            try:
                return original(engine, frame)
            finally:
                self.close(idx)

        return process_frame

    def _associate(self, original):
        counting = CODE["trace.candidates"]
        counts = self.counts
        timed = self.timed("tracker.associate", original)

        def associate(matrices, config):
            # associate burns its feature matrix, so candidates are counted first
            idx = self.open(counting)
            counts["candidates"] += int(np.count_nonzero(matrices.feature < config.feature_threshold))
            self.close(idx)
            result = timed(matrices, config)
            counts["matches"] += len(result.matches)
            return result

        return associate

    def _count(self, key, measure):
        counts = self.counts

        def after(args, result):
            counts[key] += measure(args, result)

        return after

    def _stepped(self, args, report):
        self.counts["tracks_live"] += len(args[0].objects)
        self.counts["births"] += len(report.created_ids)
        self.counts["evictions"] += len(report.evicted_ids)

    @contextmanager
    def installed(self, hc):
        """Wrap the frame path's functions; restore the originals on exit."""
        engine, tracker = hc.engine, hc.tracker
        wrappers = {
            (engine.Engine, "process_frame"): self._process_frame,
            (engine, "parse_stream"): self._parse_stream,
            (engine, "filter_heads"): lambda fn: self.timed(
                "ingest.filter_heads", fn, self._count("heads", lambda a, r: len(r))
            ),
            (tracker.Tracker, "step"): lambda fn: self.timed("tracker.step", fn, self._stepped),
            (tracker, "build_matrices"): lambda fn: self.timed(
                "tracker.build_matrices", fn, self._count("cells", lambda a, r: r.feature.size)
            ),
            (tracker, "associate"): self._associate,
            (engine, "classify_region"): lambda fn: self.timed("counter.classify_region", fn),
            (engine, "update_history"): lambda fn: self.timed("counter.update_history", fn),
            (engine, "tally"): lambda fn: self.timed(
                "counter.tally", fn, self._count("events", lambda a, r: 1)
            ),
        }
        originals = {key: getattr(*key) for key in wrappers}
        try:
            for (owner, attr), wrap in wrappers.items():
                setattr(owner, attr, wrap(originals[(owner, attr)]))
            yield self
        finally:
            for (owner, attr), fn in originals.items():
                setattr(owner, attr, fn)
            self.stack.clear()

    def columns(self):
        """Spans as numpy arrays: name code, duration and self time (ns), parent, frame."""
        names = np.frombuffer(self.name, dtype=np.int8)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(names)
        )
        return names, duration, duration - children, parent, np.frombuffer(self.frame, dtype=np.int64)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("name\tstart_ns\tend_ns\tparent\tframe_id\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.frame):
                fp.write(f"{NAMES[row[0]]}\t{row[1]}\t{row[2]}\t{row[3]}\t{row[4]}\n")

    def layer_metrics(self, overhead_pct: float, meta: dict) -> dict:
        names, duration, self_ns, _, _ = self.columns()

        def total_us(name, ns=duration):
            return float(ns[names == CODE[name]].sum()) / 1e3

        frames = max(int(np.count_nonzero(names == CODE["engine.process_frame"])), 1)
        c = self.counts
        assoc = duration[names == CODE["tracker.associate"]] / 1e3
        counter_us = sum(
            total_us(n) for n in ("counter.classify_region", "counter.update_history", "counter.tally")
        )
        values = {
            "ingest.parse_stream.us_per_frame": (total_us("ingest.parse_stream") / frames, "us"),
            "ingest.parse_stream.bytes_per_frame": (c["bytes"] / frames, "B"),
            "ingest.parse_stream.detections_per_frame": (c["detections"] / frames, "count"),
            "ingest.filter_heads.us_per_frame": (total_us("ingest.filter_heads") / frames, "us"),
            "ingest.filter_heads.kept_ratio": (c["heads"] / max(c["detections"], 1), "ratio"),
            "tracker.build_matrices.us_per_frame": (total_us("tracker.build_matrices") / frames, "us"),
            "tracker.build_matrices.cells_per_frame": (c["cells"] / frames, "count"),
            "tracker.associate.us_per_frame": (total_us("tracker.associate") / frames, "us"),
            "tracker.associate.p99_us": (float(np.percentile(assoc, 99)) if assoc.size else 0.0, "us"),
            "tracker.associate.candidates_per_frame": (c["candidates"] / frames, "count"),
            "tracker.associate.match_ratio": (c["matches"] / max(c["candidates"], 1), "ratio"),
            "tracker.step.self_us_per_frame": (total_us("tracker.step", self_ns) / frames, "us"),
            "tracker.tracks_live_mean": (c["tracks_live"] / frames, "count"),
            "tracker.births_per_frame": (c["births"] / frames, "count"),
            "tracker.evictions_per_frame": (c["evictions"] / frames, "count"),
            "counter.us_per_frame": (counter_us / frames, "us"),
            "counter.events_per_frame": (c["events"] / frames, "count"),
            "engine.process_frame.self_us_per_frame": (
                total_us("engine.process_frame", self_ns) / frames, "us"
            ),
            "engine.tracing_overhead_pct": (overhead_pct, "%"),
            "simulator.generate_s": (meta["generate_s"], "s"),
            "ingest.write_stream_s": (meta["write_stream_s"], "s"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def traced_run(hc, stream_path: str, meta: dict, config, seconds: float, run_dir: str):
    """Alternate plain and traced passes for `seconds`; returns
    (passes, per-layer metrics, record fields).

    Per-layer figures come from the fastest traced pass, for the reason
    given in `run.fastest_replays`. The tracing overhead is the median over
    neighbouring (plain, traced) pairs of the traced pass's extra wall time,
    since the host's speed changes slowly next to the length of a pass.
    """
    frames = meta["frames"]
    warm_up(hc, stream_path, config)
    plain, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while not (plain and traced) or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            result = replay_file(hc, stream_path, frames, config)
            plain.append(result.wall_ns)
        else:
            tracer = Tracer()
            with tracer.installed(hc):
                result = replay_file(hc, stream_path, frames, config)
            traced.append((result.wall_ns, tracer))
        passes.append(result)
        if result.error and plain and traced:
            break  # the stream fails the same way on every pass
    overhead_pct = 100.0 * (statistics.median(t / p for p, (t, _) in zip(plain, traced)) - 1.0)
    tracer = min(traced, key=lambda t: t[0])[1]
    metrics = tracer.layer_metrics(overhead_pct, meta)
    spans_path = os.path.join(run_dir, "spans.tsv")
    tracer.write(spans_path)
    extra = {
        "plain_passes": len(plain),
        "traced_passes": len(traced),
        "spans": len(tracer.name),
        "spans_file": os.path.relpath(spans_path),
    }
    return passes, metrics, extra
