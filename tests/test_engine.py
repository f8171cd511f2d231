import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from headcount.counter import CountLedger, CrossingEvent, EventKind, Orientation, RegionLayout, write_events
from headcount.engine import (
    ConfigError,
    Engine,
    EngineConfig,
    LatencyRecorder,
    bench,
    calibrate,
    latency_to_dict,
    run,
    run_frames,
)
from headcount.ingest import (
    Detections,
    EmbeddingDimensionError,
    FrameRecord,
    LightingMode,
    StreamError,
    StreamOrderError,
    write_stream,
)
from headcount.simulator import NoiseSpec, catalog_names, generate, make_scenario, random_crossings
from headcount.tracker import TrackerConfig
from oracles import latency_percentiles

DIM = 16


def stream_for(name, dim=DIM, lighting=None):
    frames, truth = generate(make_scenario(name, dim))
    if lighting is not None:
        frames = [replace(f, lighting=lighting) for f in frames]
    buf = io.StringIO()
    write_stream(frames, buf)
    buf.seek(0)
    return buf, truth


def report_from_samples(samples):
    """The latency table of (track_count, elapsed_us) pairs in collection order."""
    recorder = LatencyRecorder()
    for count, elapsed_us in samples:
        recorder.add(count, round(elapsed_us * 1000.0))
    return recorder.report()


# Sample count per track count of `log_uniform_samples`; some groups hold fewer
# than ten samples, so their p95 and p99 are their largest sample.
LOG_UNIFORM_SIZES = {1: 1, 2: 2, 3: 7, 4: 9, 5: 300, 6: 5000}


def log_uniform_samples():
    """Seeded (track_count, elapsed_us) pairs, log-uniform from 1 us to 100 ms, shuffled."""
    rng = np.random.default_rng(14)
    samples = [
        (tracks, float(us))
        for tracks, n in LOG_UNIFORM_SIZES.items()
        for us in np.exp(rng.uniform(0.0, math.log(1e5), n))
    ]
    return [samples[k] for k in rng.permutation(len(samples))]


ROOT = Path(__file__).resolve().parent.parent


def fresh_process_stdout(code):
    """What `code` prints when a fresh interpreter runs it against the package in `src/`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def settable_fields():
    """(section, its class, field) for every settable config field; the
    section is "" for EngineConfig's own fields."""
    for f in fields(EngineConfig):
        if is_dataclass(f.default):
            yield from ((f.name, type(f.default), g) for g in fields(f.default))
        else:
            yield "", EngineConfig, f


class TestRun:
    def test_clean_entry_counts_one_in(self):
        text = stream_for("clean_entry")[0].getvalue()
        for layout in (RegionLayout(), RegionLayout(0.4, 0.6, "outside_top")):
            result = run(io.StringIO(text), EngineConfig(layout=layout))
            assert result.ledger.snapshot() == {"ins": 1, "outs": 0, "occupancy": 1}

    def test_oscillation_counts_nothing(self):
        source, _ = stream_for("oscillation")
        result = run(source)
        assert (result.ledger.ins, result.ledger.outs) == (0, 0)
        assert result.ledger.events == []

    def test_crossing_pair_two_tracks(self):
        source, _ = stream_for("crossing_pair")
        result = run(source)
        assert (result.ledger.ins, result.ledger.outs) == (1, 1)
        assert result.track_ids_issued == 2
        assert len({e.track_id for e in result.ledger.events}) == 2

    def test_deterministic_replay_byte_identical(self):
        text = stream_for("crossing_pair")[0].getvalue()
        outputs = []
        for _ in range(2):
            result = run(io.StringIO(text))
            buf = io.StringIO()
            write_events(result.ledger.events, buf)
            outputs.append((buf.getvalue(), json.dumps(result.ledger.snapshot())))
        assert outputs[0] == outputs[1]

    def test_event_frames_non_decreasing(self):
        source, _ = stream_for("crossing_pair")
        result = run(source)
        frames = [e.frame_id for e in result.ledger.events]
        assert frames == sorted(frames)

    def test_lighting_counts(self):
        source, _ = stream_for("clean_entry", lighting=LightingMode.NIGHT)
        result = run(source)
        assert result.lighting_counts["night"] == result.frames
        assert result.lighting_counts["unknown"] == 0

    def test_embedding_dim_enforced(self):
        source, _ = stream_for("clean_entry", dim=8)
        with pytest.raises(EmbeddingDimensionError):
            run(source, EngineConfig(embedding_dim=32))

    def test_report_dict_shape(self):
        source, _ = stream_for("clean_entry")
        report = run(source).to_dict()
        assert report["ledger"]["ins"] == 1
        assert report["frames"] == 60
        assert "latency" in report and "groups" in report["latency"]


def frame_counts(result):
    """A run's frames, as `RunResult.frames`, its lighting tallies and its latency samples count them."""
    return result.frames, sum(result.lighting_counts.values()), sum(s.samples for s in result.latency.values())


class TestFrameCount:
    @pytest.mark.parametrize("name", [n for n in catalog_names() if n != "dropout_<k>"] + ["dropout_3"])
    def test_each_admitted_frame_is_counted_once(self, name):
        frames, _ = generate(make_scenario(name, DIM))
        text = io.StringIO()
        write_stream(frames, text)
        for result in (run(io.StringIO(text.getvalue())), run_frames(frames)):
            assert frame_counts(result) == (len(frames),) * 3

    def test_a_refused_stream_counts_the_frames_before_it(self):
        lines = stream_for("crossing_pair")[0].getvalue().splitlines()
        with pytest.raises(StreamError) as info:
            run(lines[:2] + ["{not json"] + lines[2:])
        assert info.value.line_number == 3
        assert frame_counts(info.value.result) == (2, 2, 2)


class TestEngineConfig:
    def test_round_trip(self):
        cfg = EngineConfig.from_dict(
            {
                "tracker": {"feature_threshold": 0.4, "miss_limit": 3},
                "layout": {"line_ab": 0.3, "line_bc": 0.7, "orientation": "outside_bottom"},
                "min_confidence": 0.6,
                "embedding_dim": 64,
            }
        )
        assert cfg == EngineConfig(
            tracker=TrackerConfig(feature_threshold=0.4, miss_limit=3),
            layout=RegionLayout(0.3, 0.7, Orientation.OUTSIDE_BOTTOM),
            min_confidence=0.6,
            embedding_dim=64,
        )
        assert EngineConfig.from_dict({"min_confidence": 1}) == EngineConfig(min_confidence=1.0)

    def test_defaults_from_empty_dict(self):
        assert EngineConfig.from_dict({}) == EngineConfig()

    @pytest.mark.parametrize(
        "data",
        [
            {"tracker": {"feature_threshold": -1}},
            {"tracker": {"feature_metric": "manhattan"}},
            {"layout": {"line_ab": 0.9, "line_bc": 0.2}},
            {"min_confidence": 1.5},
            {"embedding_dim": 0},
            {"mystery": 1},
            # old default values: only the unknown-field rule can reject them
            {"lighting": {"agreement_fraction": 0.99}},
            {"tracker": {"feature_metric": "cosine"}},
            # numbers follow the stream's rule: no strings or booleans, and
            # counts are integers
            {"min_confidence": "0.7"},
            {"min_confidence": True},
            {"tracker": {"miss_limit": 2.5}},
            {"tracker": {"miss_limit": True}},
            {"tracker": {"feature_threshold": True}},
            {"embedding_dim": True},
            {"embedding_dim": 2.5},
            # the config and each section must be a JSON object
            [],
            {"tracker": [["miss_limit", 3]]},
            {"layout": [["line_ab", 0.3]]},
            # a NaN (a JSON NaN literal) fails every range check
            {"tracker": {"feature_threshold": float("nan")}},
            {"tracker": {"spatial_threshold": float("nan")}},
            {"layout": {"orientation": "sideways"}},
            {"layout": {"orientation": [1]}},  # unhashable: still a ValueError, never a TypeError
        ],
    )
    def test_invalid_configs(self, data):
        with pytest.raises(ConfigError):
            EngineConfig.from_dict(data)

    def test_sections_must_be_objects(self):
        for name in ("tracker", "layout"):
            with pytest.raises(ConfigError, match=f"^{name} must be a JSON object"):
                EngineConfig.from_dict({name: []})

    @pytest.mark.parametrize(
        "section, settings, field",
        list(settable_fields()),
        ids=[f"{s}.{f.name}".lstrip(".") for s, _, f in settable_fields()],
    )
    def test_every_field_follows_the_number_rule(self, section, settings, field):
        # Found with dataclasses.fields, so a field added later inherits the
        # rule: its constructor and the loader both refuse what is not a number.
        for value in (True, "0.5") + ((2.5,) if "int" in field.type else ()):
            with pytest.raises(ValueError, match=f"(?i){field.name}"):
                settings(**{field.name: value})
            data = {section: {field.name: value}} if section else {field.name: value}
            with pytest.raises(ConfigError, match=f"(?i){field.name}"):
                EngineConfig.from_dict(data)

    def test_readme_table_lists_every_field(self):
        # The README's configuration table must name exactly the settable
        # fields, and its defaults must load as the defaults.
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        text = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([\w.]+)` \| `([^`]*)` \|", text, flags=re.M)
        expected = {f"{s}.{f.name}".lstrip(".") for s, _, f in settable_fields()}
        assert {name for name, _ in rows} == expected
        data: dict = {}
        for name, default in rows:
            section, _, key = name.rpartition(".")
            (data.setdefault(section, {}) if section else data)[key] = json.loads(default)
        assert EngineConfig.from_dict(data) == EngineConfig()


class TestBench:
    def test_report_structure_and_order(self):
        report = bench([make_scenario("multi_3", DIM)], repetitions=2)
        assert set(report) == {0, 1, 2, 3}
        for stats in report.values():
            assert stats.p50_us <= stats.p95_us <= stats.p99_us
            assert stats.max_fps > 0
        payload = latency_to_dict(report)
        assert set(payload["groups"]) == {"0", "1", "2", "3"}
        assert list(payload) == ["groups"]
        assert list(payload["groups"]["0"]) == ["samples", "p50_us", "p95_us", "p99_us", "max_fps"]

    def test_every_timed_frame_is_a_sample(self):
        def sampled(report):
            return sum(stats.samples for stats in report.values())

        frames, _ = generate(make_scenario("multi_3", DIM))
        result = run_frames(frames)
        assert sampled(result.latency) == result.frames == len(frames)
        with pytest.raises(StreamOrderError) as info:
            run_frames(frames[:30] + [frames[10]])
        assert sampled(info.value.result.latency) == info.value.result.frames == 30
        # bench's untimed first pass is never sampled
        specs = [make_scenario("clean_entry", DIM), make_scenario("multi_3", DIM)]
        report = bench(specs, repetitions=3)
        assert sampled(report) == 3 * sum(spec.duration_frames for spec in specs)

    def test_report_equals_the_literal_oracle(self):
        samples = [(tracks, round(us * 1000.0)) for tracks, us in log_uniform_samples()]
        samples += [(7, ns) for ns in range(256)] + [(1000 + ns, ns) for ns in range(256)]
        edges = [2**k + d for k in range(41) for d in (-1, 0, 1)]
        samples += [(8, ns) for ns in edges] + [(2000 + k, ns) for k, ns in enumerate(edges)]
        samples += [(9, 1000 * k * k) for k in range(99)]  # p99's rank, 99 * 99 / 100, rounds up
        recorder = LatencyRecorder()
        for tracks, ns in samples:
            recorder.add(tracks, ns)
        report = {
            tracks: (stats.samples, stats.p50_us, stats.p95_us, stats.p99_us)
            for tracks, stats in recorder.report().items()
        }
        assert list(report.items()) == list(latency_percentiles(samples).items())

    def test_percentiles_within_one_percent_of_nearest_rank(self):
        measured = log_uniform_samples()
        report = report_from_samples(measured)
        assert set(report) == set(LOG_UNIFORM_SIZES)
        for tracks, stats in report.items():
            ns = sorted(round(us * 1000) for count, us in measured if count == tracks)
            assert stats.samples == len(ns) == LOG_UNIFORM_SIZES[tracks]
            for q, value in zip((50, 95, 99), (stats.p50_us, stats.p95_us, stats.p99_us)):
                exact_us = ns[-(-q * len(ns) // 100) - 1] / 1000.0
                assert abs(value - exact_us) <= 0.01 * exact_us, (tracks, q, value, exact_us)

    def test_every_sample_counts_and_below_256_ns_is_exact(self):
        recorder = LatencyRecorder()
        for k in range(50):
            recorder.add(k % 2, 100 + k)
        report = recorder.report()
        assert [s.samples for s in report.values()] == [25] * 2
        assert report[0].p99_us == (100 + 50 - 2) / 1000.0  # exact below 256 ns

    def test_run_memory_does_not_grow_with_the_stream(self):
        # The latency store is a histogram per occupancy, not a sample per
        # frame: a per-frame sample list grows this peak by about 0.4 MiB.
        empty = Detections.from_rows()

        def peak_bytes(n):
            tracemalloc.start()
            try:
                run_frames(FrameRecord(i, 50 * i, empty) for i in range(n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_frames(FrameRecord(i, 50 * i, empty) for i in range(100))
        assert peak_bytes(5000) - peak_bytes(1000) < 32 * 1024

    def test_event_log_retains_few_bytes_per_event(self):
        # Each event is four int64 values, 32 B plus the arrays' spare room.
        def stream(actors):
            noise = NoiseSpec(miss_probability=0.15)
            spec = random_crossings(7, actors=actors, crossing_frames=30, stagger=2, noise=noise,
                                    embedding_dim=DIM)
            buf = io.StringIO()
            write_stream(generate(spec)[0], buf)
            return buf.getvalue()

        def retained(text):
            # a full collection also empties the interpreter's free lists
            source = io.StringIO(text)
            gc.collect()
            tracemalloc.start()
            try:
                result = run(source)
                gc.collect()
                return tracemalloc.get_traced_memory()[0], len(result.events)
            finally:
                tracemalloc.stop()

        short, long = stream(20), stream(420)
        retained(short)
        (short_bytes, short_events), (long_bytes, long_events) = retained(short), retained(long)
        assert long_events - short_events >= 350
        assert (long_bytes - short_bytes) / (long_events - short_events) <= 48, (long_bytes, short_bytes)

    def test_run_and_bench_never_import_numpy_ma(self):
        # np.percentile imports numpy.ma lazily, about 2 MB of resident memory.
        code = (
            "import io, sys\n"
            "import headcount as hc\n"
            "frames, _ = hc.generate(hc.make_scenario('multi_3', 8))\n"
            "buf = io.StringIO()\n"
            "hc.write_stream(frames, buf)\n"
            "assert hc.run(io.StringIO(buf.getvalue())).latency\n"
            "assert hc.bench([hc.make_scenario('clean_entry', 8)], repetitions=1)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        assert fresh_process_stdout(code).strip() == "False"

    def test_run_loads_only_the_stdlib_numpy_and_headcount(self):
        # numpy is the one runtime dependency: other packages may be installed, but nothing loads them.
        code = (
            "import io, sys\n"
            "before = set(sys.modules)\n"
            "import headcount as hc\n"
            "frames, _ = hc.generate(hc.make_scenario('multi_3', 8))\n"
            "buf = io.StringIO()\n"
            "hc.write_stream(frames, buf)\n"
            "assert hc.run(io.StringIO(buf.getvalue())).frames\n"
            "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))\n"
        )
        loaded = fresh_process_stdout(code).split()
        # numpy's compiled extensions load Cython's shared runtime modules
        foreign = [name for name in loaded if name not in sys.stdlib_module_names
                   and name not in ("numpy", "headcount", "cython_runtime") and not name.startswith("_cython_")]
        assert "numpy" in loaded and foreign == []
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert re.findall(r"^dependencies = (.*)$", pyproject, flags=re.M) == ['["numpy>=1.24"]']

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            bench([make_scenario("multi_3", DIM)], repetitions=0)

    def test_rejects_no_scenarios(self):
        with pytest.raises(ValueError, match="scenario"):
            bench([])

    def test_runs_non_catalog_spec(self):
        spec = random_crossings(3, actors=3, embedding_dim=DIM)
        report = bench([spec], repetitions=1)
        kept = sum(stats.samples for stats in report.values())
        assert kept == spec.duration_frames


class TestCalibrate:
    def test_ranking_and_tie_breaks(self):
        grid = {"feature_threshold": [0.5, 0.3], "miss_limit": [8, 2]}
        rows = calibrate(grid, [make_scenario("clean_entry", DIM)], seeds=[1])
        assert len(rows) == 4
        # all scores equal on a clean scenario -> ordered by miss_limit then threshold
        assert [(r.miss_limit, r.feature_threshold) for r in rows] == [
            (2, 0.3),
            (2, 0.5),
            (8, 0.3),
            (8, 0.5),
        ]
        assert all(r.mean_accuracy == 100.0 for r in rows)

    def test_deterministic(self):
        grid = {"feature_threshold": [0.3, 0.4]}
        a = calibrate(grid, [make_scenario("crossing_pair", DIM)], seeds=[1, 2])
        b = calibrate(grid, [make_scenario("crossing_pair", DIM)], seeds=[1, 2])
        assert a == b

    def test_silent_scenarios_score_when_quiet(self):
        rows = calibrate({}, [make_scenario("oscillation", DIM)], seeds=[1])
        assert rows[0].mean_accuracy == 100.0

    def test_rejects_unknown_axis(self):
        with pytest.raises(ConfigError):
            calibrate({"velocity": [1]}, [make_scenario("clean_entry", DIM)])

    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigError):
            calibrate({"miss_limit": []}, [make_scenario("clean_entry", DIM)])

    @pytest.mark.parametrize(
        "grid, field",
        [
            ([], "grid"),
            ({"feature_threshold": "0.35"}, "grid.feature_threshold"),
            ({"miss_limit": [2.5, True]}, "grid.miss_limit"),
            ({"miss_limit": [2, True]}, "grid.miss_limit"),
            ({"feature_threshold": ["0.3"]}, "grid.feature_threshold"),
            ({"spatial_threshold": [0.2, -1.0]}, "spatial_threshold"),
        ],
    )
    def test_grid_follows_the_number_rule(self, grid, field):
        with pytest.raises(ConfigError, match=re.escape(field)):
            calibrate(grid, [make_scenario("clean_entry", DIM)], seeds=[1])

    @pytest.mark.parametrize(
        "names, seeds", [([], [1]), (["clean_entry"], []), (["clean_entry"], ())]
    )
    def test_rejects_no_scenarios_or_seeds(self, names, seeds):
        specs = [make_scenario(name, DIM) for name in names]
        with pytest.raises(ValueError, match="scenario and one seed") as info:
            calibrate({}, specs, seeds=seeds)
        assert not isinstance(info.value, ConfigError)


LONG = "x" * 100_000
NESTED = 0
for _ in range(6):  # 6 deep, 6 wide: reprlib's default limits (6 and 6) leave it whole
    NESTED = [NESTED] * 6
# A config file or a calibration grid quotes what it refuses in bounded form.
BOUNDED_CONFIG_QUOTES = {
    "config_value": lambda: EngineConfig.from_dict({"min_confidence": NESTED}),
    "config_field": lambda: EngineConfig.from_dict({LONG: 1}),
    "tracker_field": lambda: EngineConfig.from_dict({"tracker": {LONG: 1}}),
    "layout_field": lambda: EngineConfig.from_dict({"layout": {LONG: 1}}),
    "orientation": lambda: EngineConfig.from_dict({"layout": {"orientation": LONG}}),
    "grid_value": lambda: calibrate({"miss_limit": LONG}, [make_scenario("clean_entry", DIM)]),
    "grid_candidate": lambda: calibrate({"miss_limit": [NESTED]}, [make_scenario("clean_entry", DIM)]),
    "grid_axis": lambda: calibrate({LONG: [1]}, [make_scenario("clean_entry", DIM)]),
}


@pytest.mark.parametrize("case", list(BOUNDED_CONFIG_QUOTES))
def test_config_messages_quote_values_in_bounded_form(case):
    with pytest.raises(ConfigError) as err:
        BOUNDED_CONFIG_QUOTES[case]()
    assert len(str(err.value)) < 1000


class TestFrameGaps:
    @pytest.mark.parametrize("seed", range(4))
    def test_gap_counts_as_empty_frames(self, seed):
        # Dropping whole frames must give the same events and ids as keeping
        # those frames with no detections in them.
        noise = NoiseSpec(miss_probability=0.1, center_jitter_sigma=0.01)
        spec = random_crossings(seed, actors=6, stagger=15, noise=noise, embedding_dim=DIM)
        frames, _ = generate(spec)
        rng = np.random.default_rng(seed)
        dropped: set[int] = set()
        while len(dropped) < len(frames) // 4:
            start = int(rng.integers(1, len(frames)))
            dropped.update(range(start, start + int(rng.integers(1, 12))))
        gapped = run_frames([f for f in frames if f.frame_id not in dropped])
        filled = run_frames(
            [FrameRecord(f.frame_id, f.timestamp_ms) if f.frame_id in dropped else f for f in frames]
        )
        assert gapped.events == filled.events
        assert gapped.track_ids_issued == filled.track_ids_issued


    def test_frame_ids_that_do_not_increase_are_refused(self):
        # Replaying a stream after itself would restart its ids; a decreasing
        # id would make misses negative and keep stale tracks alive.
        frames, _ = generate(make_scenario("crossing_pair", DIM))
        last = frames[-1].frame_id
        with pytest.raises(StreamOrderError, match=f"^frame_id 0 does not increase past {last}$"):
            run_frames(frames + frames)
        with pytest.raises(StreamOrderError, match="^frame_id 3 does not increase past 3$"):
            run_frames(frames[:4] + frames[3:])

    def test_refused_frame_keeps_the_counted_frames_result(self):
        frames, _ = generate(make_scenario("crossing_pair", DIM))
        clean = run_frames(frames)
        with pytest.raises(StreamOrderError) as info:
            run_frames(frames + frames[:1])
        assert info.value.line_number is None
        result = info.value.result
        assert result.frames == len(frames) == 60
        assert result.ledger.snapshot() == clean.ledger.snapshot()
        assert result.events == clean.events
        assert result.lighting_counts == clean.lighting_counts

    def test_timestamp_that_goes_backward_is_refused_with_the_result(self):
        frames, _ = generate(make_scenario("crossing_pair", DIM))
        last_ts = frames[-1].timestamp_ms
        late = FrameRecord(frames[-1].frame_id + 1, last_ts - 1)
        refusal = f"^ts_ms {last_ts - 1} goes backward past {last_ts}$"
        with pytest.raises(StreamOrderError, match=refusal) as info:
            run_frames(frames + [late])
        assert info.value.result.frames == len(frames)
        assert info.value.result.ledger.snapshot() == run_frames(frames).ledger.snapshot()

    def test_refused_frame_leaves_no_trace(self):
        frames, _ = generate(make_scenario("crossing_pair", DIM))
        engine = Engine()
        engine.process_frame(frames[0])
        issued = engine.tracker.ids_issued
        with pytest.raises(StreamOrderError):
            engine.process_frame(frames[0])
        assert engine.lighting_counts == {"day": 0, "night": 0, "unknown": 1}
        assert engine.tracker.ids_issued == issued

    @pytest.mark.parametrize("late", [FrameRecord(2**63, 10_000), FrameRecord(-(2**63) - 1, 10_000),
                                      FrameRecord(100, 2**63), FrameRecord(100, -(2**63) - 1),
                                      FrameRecord(60.5, 10_000)])
    def test_value_beyond_int64_is_refused_with_the_result(self, late):
        # The event log stores frame ids and timestamps as int64 integers.
        frames, _ = generate(make_scenario("crossing_pair", DIM))
        clean = run_frames(frames)
        with pytest.raises(StreamOrderError, match="is not an integer in the int64 range$") as info:
            run_frames(frames + [late])
        result = info.value.result
        assert result.frames == len(frames)
        assert result.ledger == clean.ledger
        assert result.lighting_counts == clean.lighting_counts

    def test_frame_beyond_int64_leaves_no_trace(self):
        head = ("head", 0.95, (0.46, 0.06, 0.54, 0.14), [1.0, 0.0])
        engine = Engine()
        with pytest.raises(StreamOrderError):
            engine.process_frame(FrameRecord(2**63, 0, Detections.from_rows([head]), LightingMode.DAY))
        assert engine.lighting_counts == {"day": 0, "night": 0, "unknown": 0}
        assert engine.tracker.objects == [] and engine.tracker.ids_issued == 0

    @pytest.mark.parametrize("frame_id", [4, 3])
    def test_frame_id_must_increase(self, frame_id):
        def frame(fid):
            head = ("head", 0.95, (0.46, 0.46, 0.54, 0.54), [1.0, 0.0])
            return FrameRecord(fid, 50 * fid, Detections.from_rows([head]))

        engine = Engine()
        engine.process_frame(frame(2))
        engine.process_frame(frame(4))
        with pytest.raises(StreamOrderError, match=f"^frame_id {frame_id} does not increase past 4$"):
            engine.process_frame(frame(frame_id))
        assert [(t.id, t.last_seen) for t in engine.tracker.objects] == [(1, 4)]


def one_head(frame_id, ts_ms, dim):
    head = ("head", 0.95, (0.46, 0.46, 0.54, 0.54), [1.0] * dim)
    return FrameRecord(frame_id, ts_ms, Detections.from_rows([head]), LightingMode.NIGHT)


def stream_rule_cases():
    """Each break of `check_frame`: (counted prefix, config, refused frame, error class)."""
    frames, _ = generate(make_scenario("crossing_pair", DIM))
    last_id, last_ts = frames[-1].frame_id, frames[-1].timestamp_ms
    gone = last_id + TrackerConfig().miss_limit + 2  # every track is evicted before this frame
    blank = [FrameRecord(i, 50 * i) for i in range(3)]
    wrong_dim = EmbeddingDimensionError
    return {
        "repeated_id": (frames, None, one_head(last_id, last_ts + 50, DIM), StreamOrderError),
        "ts_backward": (frames, None, one_head(last_id + 1, last_ts - 1, DIM), StreamOrderError),
        "id_2**63": (frames, None, one_head(2**63, last_ts + 50, DIM), StreamOrderError),
        "id_true": (frames, None, one_head(True, last_ts + 50, DIM), StreamOrderError),
        "id_1.5": (frames, None, one_head(1.5, last_ts + 50, DIM), StreamOrderError),
        "id_str_7": (frames, None, one_head("7", last_ts + 50, DIM), StreamOrderError),
        "ts_50.5": (frames, None, one_head(last_id + 1, last_ts + 50.5, DIM), StreamOrderError),
        "dim_of_frame_0": (frames, None, one_head(last_id + 1, last_ts + 50, DIM + 1), wrong_dim),
        "dim_of_config": (blank, EngineConfig(embedding_dim=8), one_head(3, 150, DIM), wrong_dim),
        "dim_after_eviction": (frames, None, one_head(gone, last_ts + 1000, DIM + 1), wrong_dim),
    }


def run_summary(result):
    return (result.ledger.snapshot(), result.frames, result.lighting_counts, result.track_ids_issued)


class TestStreamRule:
    """`run` and `run_frames` refuse the same frames, as the same StreamError
    class, with the counted frames' result, and a refused frame leaves no trace."""

    @pytest.mark.parametrize("case", list(stream_rule_cases()))
    def test_run_names_the_line_and_keeps_the_counted_frames_result(self, case):
        prefix, config, bad, error = stream_rule_cases()[case]
        buf = io.StringIO()
        write_stream(prefix + [bad], buf)
        buf.seek(0)
        with pytest.raises(StreamError) as info:
            run(buf, config)
        assert type(info.value) is error
        assert info.value.line_number == len(prefix) + 1
        assert str(info.value).startswith(f"line {len(prefix) + 1}: ")
        assert run_summary(info.value.result) == run_summary(run_frames(prefix, config))

    @pytest.mark.parametrize("case", list(stream_rule_cases()))
    def test_run_frames_raises_the_same_class_with_the_counted_frames_result(self, case):
        prefix, config, bad, error = stream_rule_cases()[case]
        with pytest.raises(StreamError) as info:
            run_frames(prefix + [bad], config)
        assert type(info.value) is error
        assert info.value.line_number is None
        assert run_summary(info.value.result) == run_summary(run_frames(prefix, config))

    @pytest.mark.parametrize("case", list(stream_rule_cases()))
    def test_refused_frame_leaves_no_trace(self, case):
        prefix, config, bad, error = stream_rule_cases()[case]
        engine = Engine(config)
        for frame in prefix:
            engine.process_frame(frame)

        def state():
            tracks = [(t.id, t.last_seen, t.center) for t in engine.tracker.objects]
            return (engine.ledger.snapshot(), dict(engine.lighting_counts),
                    engine.tracker.ids_issued, tracks)

        before = state()
        with pytest.raises(error):
            engine.process_frame(bad)
        assert state() == before

    @pytest.mark.parametrize("frame", [FrameRecord(True, 0), FrameRecord(0, True), FrameRecord(np.True_, 0)])
    def test_bool_frame_id_or_timestamp_is_refused(self, frame):
        # The same rule refuses a JSON `true` at the parser (the table's `id_true` row).
        with pytest.raises(StreamOrderError, match="is not an integer in the int64 range$") as info:
            run_frames([frame])
        assert info.value.result.frames == 0


class TestEventLog:
    def test_reads_back_the_events_the_engine_emitted(self):
        frames, _ = generate(make_scenario("multi_3", DIM))
        engine = Engine()
        emitted = [event for frame in frames for event in engine.process_frame(frame)]
        log = engine.ledger.events
        assert len(log) == len(emitted) == 3 and log
        assert [log[i] for i in range(-3, 3)] == emitted + emitted
        with pytest.raises(IndexError):
            log[3]
        for cut in (slice(None, -1), slice(1, None), slice(None, None, -1), slice(5, 9)):
            assert log[cut] == emitted[cut] and type(log[cut]) is list
        assert list(log) == emitted and log == emitted and emitted == log and log == tuple(emitted)
        assert log != emitted[:-1] and log != emitted[::-1]
        assert all(event in log for event in emitted)
        assert CrossingEvent(EventKind.ENTRY, 9, emitted[0].frame_id, emitted[0].timestamp_ms) not in log
        assert not CountLedger().events and CountLedger().events == []

    def test_run_result_hands_back_the_log_itself(self):
        result = run_frames(generate(make_scenario("crossing_pair", DIM))[0])
        assert result.events is result.ledger.events
        assert [(e.kind, e.track_id) for e in result.events] == [(EventKind.ENTRY, 1), (EventKind.EXIT, 2)]


class TestCausality:
    def test_counts_never_precede_track_positions(self):
        # Events must carry the frame at which the terminal region was
        # reached: replaying the stream up to that frame reproduces them.
        frames, _ = generate(make_scenario("crossing_pair", DIM))
        full = run_frames(frames)
        for event in full.ledger.events:
            partial = run_frames(frames[: event.frame_id + 1])
            assert event in partial.ledger.events
            before = run_frames(frames[: event.frame_id])
            assert event not in before.ledger.events
