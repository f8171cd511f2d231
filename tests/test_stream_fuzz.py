"""The stream edge as a property: whatever one line holds, `run` on the counted
lines before it plus that line either counts it or raises a StreamError that
names the line, carries the counted frames' result and stays short; and
`headcount run` on the same bytes in a file does what `run` does.

Mutations are drawn from stdlib `random` with a fixed seed, so every run of
the suite tries the same lines."""
import io
import json
import random

import pytest

from headcount.cli import main
from headcount.counter import write_events
from headcount.engine import run
from headcount.ingest import StreamError, write_stream
from headcount.simulator import generate, make_scenario

MAX_MESSAGE = 1000


def stream_lines():
    frames, _ = generate(make_scenario("multi_3", 8))
    buf = io.StringIO()
    write_stream(frames[:40], buf)
    return [line.encode() for line in buf.getvalue().splitlines()]


LINES = stream_lines()
KEYS = [b'"frame_id"', b'"ts_ms"', b'"detections"', b'"class"', b'"conf"', b'"box"', b'"emb"']
TOKENS = [
    b"1" * 5000, b"[" * 5000, b"{", b"}", b"[", b"]", b",", b":", b'"', b"null", b"true", b"-1",
    b"1.5", b"1e400", b"NaN", b"-Infinity", b"\xff", b"\\u0000", b"9223372036854775808",
    b'"dog"', b"[[[[[[0]]]]]]", b'{"class":"head"}', b"   ",
]


def mutate(line: bytes, rng: random.Random) -> bytes:
    """One token insert where a value may start, cut, truncation or swap of two wire keys."""
    kind = rng.randrange(4)
    if kind == 0:
        i = rng.choice([k + 1 for k, byte in enumerate(line) if byte in b":,[{"])
        return line[:i] + rng.choice(TOKENS) + line[i:]
    i, j = sorted(rng.randrange(len(line) + 1) for _ in range(2))
    if kind == 1:
        return line[:i] + line[j:]
    if kind == 2:
        return line[:i]
    a, b = rng.sample([key for key in KEYS if key in line], 2)
    return line.replace(a, b"\0", 1).replace(b, a, 1).replace(b"\0", b, 1)


def fault(prefix: int, line: bytes):
    """None when `run` counts the lines, or refuses the last one as it should;
    otherwise what went wrong."""
    try:
        result = run(LINES[:prefix] + [line])
    except StreamError as err:
        got = (err.line_number, err.result.frames, len(str(err)) < MAX_MESSAGE)
        return None if got == (prefix + 1, prefix, True) else f"{type(err).__name__} {got}: {str(err)[:200]}"
    except Exception as exc:  # anything else escapes the stream edge: report it with its line
        return f"{type(exc).__name__} escaped: {str(exc)[:200]}"
    return None if result.frames in (prefix, prefix + 1) else f"ran {result.frames} frames"


NESTED = 0
for _ in range(6):
    NESTED = [NESTED] * 6
FIXED = {
    "frame_id_past_the_digit_limit": b'{"frame_id": ' + b"1" * 5000 + b', "ts_ms": 50}',
    "nesting_past_the_recursion_limit": b"[" * 100_000,
    "frame_id_nested_6_deep_6_wide": json.dumps({"frame_id": NESTED, "ts_ms": 50}).encode(),
}


@pytest.mark.parametrize("case", list(FIXED))
def test_a_known_bad_line_is_refused_on_its_line(case):
    with pytest.raises(StreamError):
        run(LINES[:1] + [FIXED[case]])
    assert fault(1, FIXED[case]) is None


def test_every_mutated_line_runs_or_is_refused_on_its_line():
    rng = random.Random(20)
    faults = []
    for n in range(400):
        prefix = rng.randrange(len(LINES))
        line = mutate(LINES[prefix], rng)
        problem = fault(prefix, line)
        if problem is not None:
            faults.append((n, prefix + 1, line[:80], problem))
    assert faults == []


def cli_cases():
    """About 40 (prefix, line) mutations from their own seed, one of them carrying a 0xff byte."""
    rng = random.Random(21)
    cases = []
    for _ in range(39):
        prefix = rng.randrange(len(LINES))
        cases.append((prefix, mutate(LINES[prefix], rng)))
    prefix = rng.randrange(len(LINES))
    cut = LINES[prefix].index(b":") + 1
    cases.append((prefix, LINES[prefix][:cut] + b"\xff" + LINES[prefix][cut:]))
    return cases


def test_the_cli_writes_what_run_counts_from_a_file(tmp_path):
    for n, (prefix, line) in enumerate(cli_cases()):
        lines = LINES[:prefix] + [line]
        stream, events_out, report_out = (tmp_path / f"{n}.{name}" for name in ("jsonl", "events", "json"))
        stream.write_bytes(b"\n".join(lines) + b"\n")
        code = main(["run", "--input", str(stream), "--events-out", str(events_out), "--report-out", str(report_out)])
        try:
            result, refused = run(lines), None
        except StreamError as err:
            result, refused = err.result, err
        expected = io.StringIO()
        write_events(result.events, expected)
        report = json.loads(report_out.read_text())
        assert (code, events_out.read_text(), report["frames"]) == (
            (1 if refused else 0), expected.getvalue(), result.frames), (n, line[:80])
        if refused:
            assert report["error"].startswith(f"line {prefix + 1}:"), (n, line[:80])
