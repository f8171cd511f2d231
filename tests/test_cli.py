import json

import pytest

from headcount.cli import main


@pytest.fixture()
def simulated(tmp_path):
    stream = tmp_path / "stream.jsonl"
    truth = tmp_path / "truth.jsonl"
    code = main(
        [
            "simulate",
            "--scenario",
            "crossing_pair",
            "--out",
            str(stream),
            "--truth-out",
            str(truth),
            "--embedding-dim",
            "16",
        ]
    )
    assert code == 0
    return stream, truth


class TestSimulate:
    def test_writes_stream_and_truth(self, simulated):
        stream, truth = simulated
        assert len(stream.read_text().splitlines()) == 60
        truth_records = [json.loads(line) for line in truth.read_text().splitlines()]
        assert sorted(r["kind"] for r in truth_records) == ["entry", "exit"]

    def test_seed_override_changes_nothing_for_noiseless(self, tmp_path):
        # seed only feeds the noise draws; a noiseless scenario is unchanged
        paths = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.jsonl"
            assert main(
                ["simulate", "--scenario", "clean_entry", "--seed", seed, "--out", str(out), "--embedding-dim", "8"]
            ) == 0
            paths.append(out.read_text())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_non_positive_embedding_dim_is_input_error(self, tmp_path, capsys, dim):
        out = tmp_path / "s.jsonl"
        args = ["simulate", "--scenario", "clean_entry", "--out", str(out), "--embedding-dim", dim]
        assert main(args) == 1
        assert "embedding_dim" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_is_input_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "nope", "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "available" in capsys.readouterr().err


class TestRun:
    def test_processes_stream(self, simulated, tmp_path, capsys):
        stream, _ = simulated
        events_out = tmp_path / "events.jsonl"
        report_out = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--input",
                str(stream),
                "--events-out",
                str(events_out),
                "--report-out",
                str(report_out),
            ]
        )
        assert code == 0
        assert "ins=1 outs=1" in capsys.readouterr().out
        events = [json.loads(line) for line in events_out.read_text().splitlines()]
        assert sorted(e["kind"] for e in events) == ["entry", "exit"]
        report = json.loads(report_out.read_text())
        assert report["ledger"] == {"ins": 1, "outs": 1, "occupancy": 0}
        assert report["frames"] == 60
        assert report["error"] is None

    def test_bad_line_keeps_counted_frames(self, tmp_path, capsys):
        # A zero-norm emb on line 3 of 5: exit 1, and the entry counted on
        # line 2 is still written out.
        def line(frame_id, y0, emb):
            det = {"class": "head", "conf": 0.9, "box": [0.46, y0, 0.54, y0 + 0.08], "emb": emb}
            return json.dumps({"frame_id": frame_id, "ts_ms": 50 * frame_id, "detections": [det]})

        stream = tmp_path / "stream.jsonl"
        stream.write_text("\n".join(
            [line(0, 0.34, [1, 0]), line(1, 0.58, [1, 0]), line(2, 0.58, [0, 0]),
             line(3, 0.58, [1, 0]), line(4, 0.58, [1, 0])]
        ) + "\n")
        events_out, report_out = tmp_path / "events.jsonl", tmp_path / "report.json"
        code = main(["run", "--input", str(stream), "--events-out", str(events_out),
                     "--report-out", str(report_out)])
        assert code == 1
        assert "line 3" in capsys.readouterr().err
        events = [json.loads(e) for e in events_out.read_text().splitlines()]
        assert events == [{"kind": "entry", "track_id": 1, "frame_id": 1, "ts_ms": 50}]
        report = json.loads(report_out.read_text())
        assert report["ledger"] == {"ins": 1, "outs": 0, "occupancy": 1}
        assert report["frames"] == 2
        assert report["error"].startswith("line 3: ") and "zero" in report["error"]

    def test_missing_input_is_input_error(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "absent.jsonl")]) == 1

    def test_malformed_stream_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"frame_id": 0, "ts_ms": 0, "detections": []}\nnot json\n')
        assert main(["run", "--input", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_bad_config_json_is_config_error(self, simulated, tmp_path):
        stream, _ = simulated
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert main(["run", "--input", str(stream), "--config", str(cfg)]) == 2

    def test_bad_config_values_is_config_error(self, simulated, tmp_path):
        stream, _ = simulated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": {"feature_threshold": -3}}))
        assert main(["run", "--input", str(stream), "--config", str(cfg)]) == 2

    def test_config_applies(self, simulated, tmp_path, capsys):
        stream, _ = simulated
        cfg = tmp_path / "cfg.json"
        # Confidence floor above the simulated head confidence: nothing tracked.
        cfg.write_text(json.dumps({"min_confidence": 0.99}))
        assert main(["run", "--input", str(stream), "--config", str(cfg)]) == 0
        assert "ins=0 outs=0" in capsys.readouterr().out


class TestBench:
    def test_smoke(self, tmp_path, capsys):
        report_out = tmp_path / "bench.json"
        code = main(
            ["bench", "--scenarios", "crossing_pair", "--reps", "1", "--report-out", str(report_out)]
        )
        assert code == 0
        assert "p95" in capsys.readouterr().out
        assert "groups" in json.loads(report_out.read_text())


class TestCalibrate:
    def test_smoke(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"feature_threshold": [0.3, 0.5]}))
        code = main(["calibrate", "--grid", str(grid), "--scenarios", "clean_entry", "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "100.00" in out

    @pytest.mark.parametrize("top, shown", [("0", 2), ("1", 1), ("-1", None)])
    def test_top_limits_rows(self, tmp_path, capsys, top, shown):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"feature_threshold": [0.3, 0.5]}))
        args = ["calibrate", "--grid", str(grid), "--scenarios", "clean_entry", "--seeds", "1"]
        code = main(args + ["--top", top])
        captured = capsys.readouterr()
        if shown is None:
            assert code == 1
            assert captured.err.startswith("error: ") and "--top" in captured.err
        else:
            assert code == 0
            assert len(captured.out.splitlines()) == 1 + shown

    def test_bad_grid_json_is_config_error(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("[[[")
        assert main(["calibrate", "--grid", str(grid), "--scenarios", "clean_entry"]) == 2

    def test_unknown_axis_is_config_error(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"warp": [1]}))
        assert main(["calibrate", "--grid", str(grid), "--scenarios", "clean_entry"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"feature_threshold": "0.35"}',
            '{"miss_limit": [2.5, true]}',
            '{"feature_threshold": ["0.3"]}',
            None,  # no file at the grid path
        ],
    )
    def test_bad_grid_is_config_error(self, tmp_path, capsys, text):
        grid = tmp_path / "grid.json"
        if text is not None:
            grid.write_text(text)
        assert main(["calibrate", "--grid", str(grid), "--scenarios", "clean_entry"]) == 2
        assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command", ["bench", "calibrate"])
def test_no_scenarios_is_input_error(tmp_path, capsys, command):
    grid = tmp_path / "grid.json"
    grid.write_text("{}")
    extra = ["--grid", str(grid)] if command == "calibrate" else []
    assert main([command, "--scenarios", "", *extra]) == 1
    assert "at least one scenario" in capsys.readouterr().err
