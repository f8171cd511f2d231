import io

import numpy as np
import pytest

from headcount.counter import CountLedger, EventKind
from headcount.engine import run_frames
from headcount.ingest import DetectionClass, write_stream
from headcount.simulator import (
    ActorIntent,
    ActorSpec,
    DistractionSpec,
    NoiseSpec,
    ScenarioSpec,
    catalog_names,
    evaluate,
    generate,
    make_scenario,
    random_crossings,
    write_ground_truth,
)

DIM = 16


def render(frames):
    buf = io.StringIO()
    write_stream(frames, buf)
    return buf.getvalue()


class TestSpecs:
    def test_actor_path_must_stay_in_frame(self):
        with pytest.raises(ValueError):
            ActorSpec(1, [(0, 0.5, 1.2)], np.ones(4))

    def test_actor_frames_strictly_increase(self):
        with pytest.raises(ValueError):
            ActorSpec(1, [(5, 0.5, 0.5), (5, 0.5, 0.6)], np.ones(4))

    def test_actor_embedding_nonzero(self):
        with pytest.raises(ValueError):
            ActorSpec(1, [(0, 0.5, 0.5)], np.zeros(4))

    def test_distraction_rejects_head_class(self):
        with pytest.raises(ValueError):
            DistractionSpec(DetectionClass.HEAD, 0.5, 0.5)

    def test_noise_ranges(self):
        with pytest.raises(ValueError):
            NoiseSpec(miss_probability=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(embedding_noise_sigma=-0.1)

    def test_scenario_duration_positive(self):
        with pytest.raises(ValueError):
            ScenarioSpec("x", 1, 0)


class TestCatalog:
    def test_unknown_name_lists_catalog(self):
        with pytest.raises(ValueError) as err:
            make_scenario("warp_speed")
        message = str(err.value)
        assert "clean_entry" in message and "dropout_<k>" in message

    def test_dropout_parsing(self):
        assert make_scenario("dropout_4", DIM).name == "dropout_4"
        with pytest.raises(ValueError):
            make_scenario("dropout_zero", DIM)
        with pytest.raises(ValueError):
            make_scenario("dropout_0", DIM)

    def test_suite_resolves_all_names(self):
        names = ["clean_entry", "clean_exit", "oscillation", "crossing_pair", "multi_3"]
        specs = [make_scenario(name, DIM) for name in names]
        assert [s.name for s in specs] == names

    def test_catalog_names_stable(self):
        assert "oscillation" in catalog_names()


class TestGenerate:
    def test_deterministic_byte_identical(self):
        spec = make_scenario("crossing_pair", DIM)
        frames_a, truth_a = generate(spec)
        frames_b, truth_b = generate(spec)
        assert render(frames_a) == render(frames_b)
        assert truth_a == truth_b

    def test_deterministic_under_noise(self):
        noise = NoiseSpec(miss_probability=0.2, embedding_noise_sigma=0.05, center_jitter_sigma=0.01)
        spec = random_crossings(7, actors=3, noise=noise, embedding_dim=DIM)
        assert render(generate(spec)[0]) == render(generate(spec)[0])

    def test_clean_entry_truth(self):
        _, truth = generate(make_scenario("clean_entry", DIM))
        assert truth.final_ins == 1 and truth.final_outs == 0
        assert [kind for kind, _, _ in truth.events] == [EventKind.ENTRY]

    def test_oscillation_truth_empty(self):
        frames, truth = generate(make_scenario("oscillation", DIM))
        assert truth.events == ()
        assert len(frames) == 200

    def test_crossing_pair_truth(self):
        _, truth = generate(make_scenario("crossing_pair", DIM))
        kinds = sorted(kind.value for kind, _, _ in truth.events)
        assert kinds == ["entry", "exit"]
        assert (truth.final_ins, truth.final_outs) == (1, 1)

    def test_distraction_field_emits_distractions(self):
        frames, _ = generate(make_scenario("distraction_field", DIM))
        dets = frames[0].detections
        assert {DetectionClass.CHAIR, DetectionClass.TROLLEY, DetectionClass.BAG} <= set(dets.labels)
        assert dets.has_embedding.tolist() == [label is DetectionClass.HEAD for label in dets.labels]

    def test_ground_truth_ignores_noise(self):
        noisy = make_scenario("clean_entry", DIM)
        noisy.noise = NoiseSpec(miss_probability=0.3, center_jitter_sigma=0.05)
        _, truth = generate(noisy)
        assert (truth.final_ins, truth.final_outs) == (1, 0)

    def test_missed_frames_drop_detections(self):
        spec = make_scenario("dropout_3", DIM)
        frames, _ = generate(spec)
        gap = sorted(spec.actors[0].missed_frames)
        assert all(len(frames[f].detections) == 0 for f in gap)
        assert len(frames[gap[0] - 1].detections) > 0


class TestEndToEnd:
    @pytest.mark.parametrize(
        "name", ["clean_entry", "clean_exit", "crossing_pair", "multi_3", "distraction_field"]
    )
    def test_noiseless_scenarios_reproduce_truth(self, name):
        frames, truth = generate(make_scenario(name, DIM))
        result = run_frames(frames)
        report = evaluate(result.ledger, truth)
        assert report is not None and report.error == 0
        assert report.accuracy_percent == 100.00

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_dropout_within_miss_limit_single_event(self, k):
        frames, truth = generate(make_scenario(f"dropout_{k}", DIM))
        result = run_frames(frames)
        assert (truth.final_ins, truth.final_outs) == (1, 0)
        assert (result.ledger.ins, result.ledger.outs) == (1, 0)
        assert result.track_ids_issued == 1

    @pytest.mark.parametrize("k", [6, 9])
    def test_dropout_beyond_miss_limit_splits_track(self, k):
        frames, _ = generate(make_scenario(f"dropout_{k}", DIM))
        result = run_frames(frames)
        assert result.ledger.ins + result.ledger.outs <= 1
        assert result.track_ids_issued == 2


class TestEvaluate:
    def test_monitoring_day_examples(self):
        report = evaluate(CountLedger(ins=15, outs=17), _truth(15, 14))
        assert (report.total_observations, report.error, report.accuracy_percent) == (29, 3, 89.66)
        report = evaluate(CountLedger(ins=11, outs=9), _truth(11, 10))
        assert (report.total_observations, report.error, report.accuracy_percent) == (21, 1, 95.24)

    def test_perfect_match(self):
        report = evaluate(CountLedger(ins=4, outs=2), _truth(4, 2))
        assert report.error == 0 and report.accuracy_percent == 100.00

    def test_no_expected_events_not_applicable(self):
        assert evaluate(CountLedger(), _truth(0, 0)) is None


class TestRandomCrossings:
    def test_event_count_matches_actor_count(self):
        spec = random_crossings(3, actors=5, embedding_dim=DIM)
        _, truth = generate(spec)
        assert truth.final_ins + truth.final_outs == 5

    def test_intents_match_directions(self):
        spec = random_crossings(3, actors=5, embedding_dim=DIM)
        _, truth = generate(spec)
        by_actor = {actor_id: kind for kind, actor_id, _ in truth.events}
        for actor in spec.actors:
            expected = EventKind.ENTRY if actor.intent is ActorIntent.ENTER else EventKind.EXIT
            assert by_actor[actor.actor_id] is expected


def _truth(ins, outs):
    from headcount.simulator import GroundTruth

    events = tuple(
        [(EventKind.ENTRY, i + 1, i) for i in range(ins)]
        + [(EventKind.EXIT, ins + i + 1, ins + i) for i in range(outs)]
    )
    return GroundTruth(events, ins, outs)


class TestSidecar:
    def test_ground_truth_lines(self):
        _, truth = generate(make_scenario("crossing_pair", DIM))
        buf = io.StringIO()
        assert write_ground_truth(truth, buf) == 2
        lines = buf.getvalue().splitlines()
        assert all(line.startswith("{") for line in lines)
