"""Tests of the benchmark's own accounting, checks and tracer.

    python3 -m pytest perfbench -q
"""
import io
import json

import pytest

from checkout import import_headcount
from replay import PassResult, count_accuracy_pct, event_log_sha256, ledger_problems, replay_pass
from run import fastest_replays, pooled_p99_us
from tracing import CODE, NAMES, Tracer

hc = import_headcount()


def line(frame_id, emb):
    det = {"class": "head", "conf": 0.95, "box": [0.4, 0.1, 0.48, 0.18], "emb": emb}
    return json.dumps({"frame_id": frame_id, "ts_ms": 50 * frame_id, "detections": [det]}) + "\n"


def small_stream(seed=3):
    frames, truth = hc.generate(hc.random_crossings(seed, actors=3, embedding_dim=16))
    buf = io.StringIO()
    hc.write_stream(frames, buf)
    return buf.getvalue().splitlines(keepends=True), truth


def test_zero_norm_embedding_on_line_3_fails_that_frame_and_every_later_one():
    lines = [line(1, [1.0, 0.0]), line(2, [1.0, 0.0]), line(3, [0.0, 0.0]),
             line(4, [1.0, 0.0]), line(5, [1.0, 0.0])]
    result = replay_pass(hc, lines, len(lines), hc.EngineConfig())
    assert result.error is not None and "zero vector" in result.error
    assert (result.attempted, result.completed, result.failed) == (5, 2, 3)
    assert len(result.latencies_ns) == 2


def test_clean_stream_completes_every_frame_with_one_latency_each():
    lines, truth = small_stream()
    result = replay_pass(hc, lines, len(lines), hc.EngineConfig())
    assert result.error is None
    assert result.failed == 0 and result.completed == len(lines)
    assert len(result.latencies_ns) == len(lines) and min(result.latencies_ns) > 0
    assert (result.ins, result.outs) == (truth.final_ins, truth.final_outs)
    assert ledger_problems(result) == []


def test_event_log_digest_repeats_and_covers_the_write_events_bytes():
    lines, _ = small_stream()
    first = replay_pass(hc, lines, len(lines), hc.EngineConfig())
    second = replay_pass(hc, lines, len(lines), hc.EngineConfig())
    assert first.events
    assert event_log_sha256(hc, first.events) == event_log_sha256(hc, second.events)
    assert event_log_sha256(hc, first.events) != event_log_sha256(hc, first.events[:-1])


def test_count_accuracy_is_the_papers_formula():
    assert count_accuracy_pct(35, 31, 35, 31) == 100.0
    # 29 true crossings, one entry and two exits missed: the reference table's 89.66%
    assert round(count_accuracy_pct(14, 12, 15, 14), 2) == hc.accuracy(29, 3).accuracy_percent
    with pytest.raises(ValueError):
        count_accuracy_pct(1, 1, 0, 0)


def test_tracer_spans_nest_count_and_restore_the_wrapped_functions():
    lines, _ = small_stream()
    originals = (hc.engine.parse_stream, hc.engine.filter_heads, hc.engine.tally,
                 hc.tracker.associate, hc.tracker.build_matrices,
                 hc.tracker.Tracker.step, hc.engine.Engine.process_frame)
    plain = replay_pass(hc, lines, len(lines), hc.EngineConfig())
    tracer = Tracer()
    with tracer.installed(hc):
        traced = replay_pass(hc, lines, len(lines), hc.EngineConfig())
    assert (hc.engine.parse_stream, hc.engine.filter_heads, hc.engine.tally,
            hc.tracker.associate, hc.tracker.build_matrices,
            hc.tracker.Tracker.step, hc.engine.Engine.process_frame) == originals
    assert event_log_sha256(hc, traced.events) == event_log_sha256(hc, plain.events)

    names, duration, self_ns, parent, frame = tracer.columns()
    per_name = {name: int((names == code).sum()) for name, code in CODE.items()}
    frames = len(lines)
    for name in ("ingest.parse_stream", "engine.process_frame", "ingest.filter_heads",
                 "tracker.step", "tracker.build_matrices", "tracker.associate"):
        assert per_name[name] == frames, name
    assert tracer.counts["events"] == per_name["counter.tally"] == len(plain.events)
    assert (duration >= 0).all() and (self_ns >= 0).all()
    start, end = tracer.start, tracer.end
    for idx in range(len(names)):
        p = parent[idx]
        if p >= 0:
            assert start[p] <= start[idx] and end[idx] <= end[p]
            assert frame[p] == frame[idx]
    roots = {NAMES[c] for c in names[parent < 0]}
    assert roots == {"ingest.parse_stream", "engine.process_frame"}

    metrics = tracer.layer_metrics(0.0, {"generate_s": 1.0, "write_stream_s": 1.0})
    assert metrics["ingest.parse_stream.bytes_per_frame"]["value"] == pytest.approx(
        sum(len(x) for x in lines) / frames
    )
    assert metrics["tracker.births_per_frame"]["value"] * frames == pytest.approx(
        tracer.counts["births"]
    )



def test_fastest_replays_take_each_frames_fastest_replay():
    # the host is fast for the first half of pass a and the second half of pass b
    a = PassResult(attempted=4, completed=4, wall_ns=0, latencies_ns=[1, 1, 9, 9])
    b = PassResult(attempted=4, completed=4, wall_ns=0, latencies_ns=[8, 8, 2, 2])
    assert list(fastest_replays([a, b])) == [1, 1, 2, 2]
    # a failed pass limits the sample to the frames every pass completed
    c = PassResult(attempted=4, completed=1, wall_ns=0, latencies_ns=[5])
    assert list(fastest_replays([a, c])) == [1]


def test_pooled_p99_takes_every_replay():
    a = PassResult(attempted=100, completed=100, wall_ns=0, latencies_ns=[1000] * 100)
    b = PassResult(attempted=100, completed=100, wall_ns=0, latencies_ns=[1000] * 95 + [9000] * 5)
    p99_us, samples = pooled_p99_us([a, b])
    assert samples == 200
    assert p99_us == pytest.approx(9.0)
