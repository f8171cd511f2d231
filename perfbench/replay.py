"""One closed-loop replay pass of a stream through `headcount.run`.

The engine is fed an iterator over the stream lines that stamps every pull.
`parse_stream` is lazy, so it pulls line k+1 only after frame k has been
parsed, filtered, tracked and counted: the gap between two stamps is the
whole per-frame cost, parsing included, as a caller of `run` sees it. A
final stamp is taken when the engine asks for a line past the last one.

An exception aborts `run`, so the frame whose line was pulled last and every
frame after it count as failed.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

# lines replayed once, untimed, before a run measures
WARMUP_LINES = 50


@dataclass
class PassResult:
    attempted: int
    completed: int
    wall_ns: int
    latencies_ns: list[int] = field(default_factory=list)
    ins: int = 0
    outs: int = 0
    events: list = field(default_factory=list)
    error: Optional[str] = None

    @property
    def failed(self) -> int:
        return self.attempted - self.completed


def replay_pass(hc, lines: Iterable[str], attempted: int, config) -> PassResult:
    """Run `lines` through `hc.run` once; `attempted` is the stream's frame count."""
    clock = time.perf_counter_ns
    stamps: list[int] = []

    def stamped():
        for line in lines:
            stamps.append(clock())
            yield line
        stamps.append(clock())

    error = None
    result = None
    t0 = clock()
    try:
        result = hc.run(stamped(), config)
    except Exception as exc:  # any failure aborts the run; it is accounted, not hidden
        error = f"{type(exc).__name__}: {exc}"
    wall_ns = clock() - t0
    latencies = [b - a for a, b in zip(stamps, stamps[1:])]
    out = PassResult(
        attempted=attempted, completed=len(latencies), wall_ns=wall_ns,
        latencies_ns=latencies, error=error,
    )
    if result is not None:
        out.ins, out.outs, out.events = result.ledger.ins, result.ledger.outs, result.events
    return out


def replay_file(hc, stream_path: str, frames: int, config) -> PassResult:
    """One pass over a stream file of `frames` frames, read as `headcount run` reads it."""
    with open(stream_path, "r", encoding="utf-8") as fp:
        return replay_pass(hc, fp, frames, config)


def warm_up(hc, stream_path: str, config) -> None:
    """Replay the stream's first lines once so that caches and lazy set-up are warm."""
    with open(stream_path, "r", encoding="utf-8") as fp:
        replay_pass(hc, itertools.islice(fp, WARMUP_LINES), WARMUP_LINES, config)


def event_log_sha256(hc, events) -> str:
    """SHA-256 of the event log exactly as `write_events` renders it."""
    buf = io.StringIO()
    hc.write_events(events, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def count_accuracy_pct(ins: int, outs: int, truth_ins: int, truth_outs: int) -> float:
    """The paper's accuracy, (truth - |d ins| - |d outs|) / truth, in percent."""
    truth = truth_ins + truth_outs
    if truth <= 0:
        raise ValueError("ground truth holds no crossings")
    return 100.0 * (truth - abs(ins - truth_ins) - abs(outs - truth_outs)) / truth


def ledger_problems(p: PassResult) -> list[str]:
    """Invariants every completed pass's output must hold."""
    problems = []
    kinds = [e.kind.value for e in p.events]
    if kinds.count("entry") != p.ins or kinds.count("exit") != p.outs:
        problems.append("ledger tallies disagree with the event log")
    frame_ids = [e.frame_id for e in p.events]
    if frame_ids != sorted(frame_ids):
        problems.append("event log is not in frame order")
    return problems
