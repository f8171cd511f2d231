import io
import re
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

from headcount import counter, engine, simulator
from headcount.counter import CountLedger, EventKind, Orientation, RegionLayout, quote
from headcount.engine import EngineConfig, bench, run, run_frames
from headcount.ingest import DetectionClass, EmbeddingDimensionError, classify_lighting, write_stream
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
from headcount.tracker import TrackerConfig

DIM = 16


def render(frames):
    buf = io.StringIO()
    write_stream(frames, buf)
    return buf.getvalue()


# The required arguments of each spec that has number fields.
SPEC_BASES = {
    ActorSpec: {"path": [(0, 0.5, 0.5)], "base_embedding": np.ones(4)},
    NoiseSpec: {},
    DistractionSpec: {"class_label": DetectionClass.CHAIR, "x": 0.5, "y": 0.5},
    ScenarioSpec: {"name": "x", "seed": 1, "duration_frames": 2},
}


def number_fields():
    """(spec class, its required arguments, field) for every int or float field."""
    for spec, base in SPEC_BASES.items():
        yield from ((spec, base, f) for f in fields(spec) if f.type in ("int", "float"))


def simulator_dataclasses():
    """Every dataclass defined in the simulator module (not the ones it imports)."""
    return [obj for obj in vars(simulator).values()
            if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == simulator.__name__]


def _actor(embedding, actor_id=7):
    return ActorSpec(actor_id, [(0, 0.5, 0.1), (20, 0.5, 0.9)], embedding)


def _mixed_dimensions():
    # Two actors in view one after the other: frames 0-20 carry 4-d rows, 21-41 8-d rows.
    late = ActorSpec(2, [(21, 0.5, 0.1), (41, 0.5, 0.9)], np.ones(8))
    return generate(ScenarioSpec("mixed", seed=1, duration_frames=42, actors=[_actor(np.ones(4)), late]))


# Inputs the stream's rules refuse, each refused when its spec is built (or, for a
# stream-wide rule, by `generate` before it returns a frame): (build, error, message).
REFUSED = {
    "emb_nan": (lambda: _actor([float("nan"), 1.0]), ValueError, "^actor 7: base embedding: .*finite"),
    "emb_inf": (lambda: _actor(np.array([np.inf, 1.0])), ValueError, "^actor 7: base embedding: .*finite"),
    "emb_overflow": (lambda: _actor([1e200, 5e199]), ValueError, "^actor 7: base embedding: .*float64 limit"),
    "emb_coerced": (lambda: _actor(["1", True]), ValueError, "^actor 7: base embedding: emb must be a flat array"),
    "emb_zero": (lambda: _actor(np.zeros(4)), ValueError, "^actor 7: base embedding: .*zero norm"),
    "emb_2d": (lambda: _actor(np.ones((2, 2))), ValueError, "^actor 7: base embedding: emb must be a flat array"),
    "emb_huge_int": (lambda: _actor([10**400]), ValueError, "^actor 7: base embedding: "),
    "class_sofa": (lambda: DistractionSpec("sofa", 0.5, 0.5), ValueError, "^distraction class .* got 'sofa'"),
    "class_3": (lambda: DistractionSpec(3, 0.5, 0.5), ValueError, "^distraction class .* got 3"),
    "class_list": (lambda: DistractionSpec([1], 0.5, 0.5), ValueError, r"^distraction class .* got \[1\]"),
    "class_head_name": (lambda: DistractionSpec("head", 0.5, 0.5), ValueError, "^distraction class .* got 'head'"),
    "class_head": (lambda: DistractionSpec(DetectionClass.HEAD, 0.5, 0.5), ValueError, "^distraction class"),
    "mixed_dimensions": (_mixed_dimensions, EmbeddingDimensionError, "^embedding length 8 != stream dimension 4$"),
    "dropout_43": (lambda: make_scenario("dropout_43", DIM), ValueError, "dropout_<k> with 1 <= k <= 42"),
    "dropout_huge": (lambda: make_scenario("dropout_" + "9" * 5000, DIM), ValueError, "1 <= k <= 42"),
    "dropout_07": (lambda: make_scenario("dropout_07", DIM), ValueError, "^bad dropout scenario 'dropout_07'"),
    "random_dim_true": (lambda: random_crossings(1, embedding_dim=True), ValueError, "^embedding_dim must"),
    "random_dim_2.5": (lambda: random_crossings(1, embedding_dim=2.5), ValueError, "^embedding_dim must"),
    "random_actors_2.5": (lambda: random_crossings(1, actors=2.5), ValueError, "^actors must"),
    "random_actors_true": (lambda: random_crossings(1, actors=True), ValueError, "^actors must"),
    "random_seed_-1": (lambda: random_crossings(-1), ValueError, "^seed must be a non-negative integer, got -1$"),
    "random_seed_2.5": (lambda: random_crossings(2.5), ValueError, "^seed must be a non-negative integer, got 2.5$"),
    "random_crossing_frames_2.5": (lambda: random_crossings(1, crossing_frames=2.5), ValueError,
                                   "^crossing_frames must be a positive integer, got 2.5$"),
    "random_crossing_frames_0": (lambda: random_crossings(1, crossing_frames=0), ValueError,
                                 "^crossing_frames must be a positive integer, got 0$"),
    "random_crossing_frames_-5": (lambda: random_crossings(1, crossing_frames=-5), ValueError,
                                  "^crossing_frames must be a positive integer, got -5$"),
    "random_stagger_true": (lambda: random_crossings(1, stagger=True), ValueError,
                            "^stagger must be a non-negative integer, got True$"),
    "random_stagger_-50": (lambda: random_crossings(1, stagger=-50), ValueError,
                           "^stagger must be a non-negative integer, got -50$"),
    "noise_jitter_inf": (lambda: NoiseSpec(center_jitter_sigma=float("inf")), ValueError,
                         r"^center_jitter_sigma must be a finite number in \[0, inf\], got inf$"),
    "noise_embedding_inf": (lambda: NoiseSpec(embedding_noise_sigma=float("inf")), ValueError,
                            r"^embedding_noise_sigma must be a finite number in \[0, inf\], got inf$"),
    "noise_miss_1": (lambda: NoiseSpec(miss_probability=1), ValueError, "^miss_probability must be below 1, got 1$"),
    "accuracy_fraction": (lambda: counter.accuracy(10.5, True), ValueError,
                          "^total_observations must be a positive integer, got 10.5$"),
    "accuracy_bool_error": (lambda: counter.accuracy(10, True), ValueError,
                            "^error must be a non-negative integer, got True$"),
    "lighting_nan": (lambda: classify_lighting(np.full((4, 4, 3), np.nan)), ValueError,
                     r"^sampled channel values must be in \[0, 255\], got dtype float64 and shape \(4, 4, 3\)$"),
    "waypoint_pair": (lambda: ActorSpec(7, [(0, 0.5)], np.ones(4)), ValueError,
                      r"^actor 7: waypoint \(0, 0.5\) must be an integer frame and two numbers$"),
    "path_append": (lambda: _actor(np.ones(4)).path.append((10, 7.0, "x")), AttributeError, "append"),
    "path_int": (lambda: ActorSpec(7, 5, np.ones(4)), ValueError,
                 r"^actor 7: path must be a list or tuple of \(frame, x, y\) waypoints, got 5$"),
    "path_iterator": (lambda: ActorSpec(7, iter([(0, 0.5, 0.5)]), np.ones(4)), ValueError,
                      r"^actor 7: path must be a list or tuple of \(frame, x, y\) waypoints, got <list_iterato"),
    "path_dict": (lambda: ActorSpec(7, {(0, 0.5, 0.5): 1}, np.ones(4)), ValueError,
                  r"^actor 7: path must be a list or tuple of \(frame, x, y\) waypoints, got \{\(0, 0.5, 0.5\): 1\}$"),
    "path_ndarray": (lambda: ActorSpec(7, np.array([[0, 0.5, 0.5]]), np.ones(4)), ValueError,
                     r"^actor 7: path must be a list or tuple of \(frame, x, y\) waypoints, got array\("),
    "missed_frames_int": (lambda: ActorSpec(7, [(0, 0.5, 0.5)], np.ones(4), missed_frames=5), ValueError,
                          "^actor 7: missed_frames must be a frozenset of integer frames, got 5$"),
    "missed_frames_fraction": (lambda: ActorSpec(7, [(0, 0.5, 0.5)], np.ones(4), missed_frames=frozenset({1.5})),
                               ValueError, r"^actor 7: missed_frames must be a frozenset of integer frames, got "
                               r"frozenset\(\{1.5\}\)$"),
    "actors_none": (lambda: ScenarioSpec("x", 1, 2, actors=[None]), ValueError,
                    r"^actors must be a list or tuple of ActorSpecs, got \[None\]$"),
    "distractions_none": (lambda: ScenarioSpec("x", 1, 2, distractions=[None]), ValueError,
                          r"^distractions must be a list or tuple of DistractionSpecs, got \[None\]$"),
    "noise_none": (lambda: ScenarioSpec("x", 1, 2, noise=None), ValueError, "^noise must be a NoiseSpec, got None$"),
    "actors_append": (lambda: make_scenario("clean_entry", 4).actors.append(_actor(np.ones(4))), AttributeError,
                      "append"),
    "bench_reps_2.5": (lambda: bench([make_scenario("clean_entry", 4)], repetitions=2.5), ValueError,
                       "^repetitions must be a positive integer, got 2.5"),
    "bench_reps_true": (lambda: bench([make_scenario("clean_entry", 4)], repetitions=True), ValueError,
                        "^repetitions must be a positive integer, got True"),
    "assign_embedding": (lambda: setattr(_actor(np.ones(4)), "base_embedding", np.zeros(4)), FrozenInstanceError,
                         "base_embedding"),
    "write_embedding": (lambda: _actor(np.ones(4)).base_embedding.__setitem__(0, np.nan), ValueError, "read-only"),
    "assign_seed": (lambda: setattr(make_scenario("clean_entry", 4), "seed", -1), FrozenInstanceError, "seed"),
    "replace_seed": (lambda: replace(make_scenario("clean_entry", 4), seed=-1), ValueError,
                     "^seed must be a non-negative integer, got -1$"),
    "replace_actor": (lambda: replace(_actor(np.ones(4)), base_embedding=[0.0]), ValueError, "^actor 7: base emb"),
}


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

    @pytest.mark.parametrize("build, error, message", REFUSED.values(), ids=REFUSED.keys())
    def test_stream_rules_refuse_at_the_spec(self, build, error, message):
        with pytest.raises(error, match=message) as err:
            build()
        assert len(str(err.value)) < 1000

    @pytest.mark.parametrize("spec", simulator_dataclasses(), ids=lambda spec: spec.__name__)
    def test_every_spec_is_frozen(self, spec):
        # Found by module, so a spec added later inherits the rule; the
        # simulator also imports the mutable CountLedger, which is not its own.
        assert spec.__dataclass_params__.frozen

    def test_specs_store_what_the_stream_reads(self):
        assert DistractionSpec("chair", 0.5, 0.5).class_label is DetectionClass.CHAIR
        base = _actor([1, 2, 3]).base_embedding
        assert base.dtype == np.float64 and base.tolist() == [1.0, 2.0, 3.0]
        assert {ActorSpec, DistractionSpec, NoiseSpec, ScenarioSpec} <= set(simulator_dataclasses())

    def test_actor_path_is_stored_as_a_tuple_of_tuples(self):
        actor = ActorSpec(7, [[0, 0.5, 0.1], (20, 0.5, 0.9)], np.ones(4))
        assert actor.path == ((0, 0.5, 0.1), (20, 0.5, 0.9))
        assert replace(actor, path=list(actor.path)).path == actor.path

    def test_noise_ranges(self):
        with pytest.raises(ValueError):
            NoiseSpec(miss_probability=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(embedding_noise_sigma=-0.1)

    def test_scenario_duration_positive(self):
        with pytest.raises(ValueError):
            ScenarioSpec("x", 1, 0)

    def test_scenario_seed_non_negative(self):
        # numpy's own refusal names neither the field nor the spec
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            ScenarioSpec("x", seed=-1, duration_frames=3)

    @pytest.mark.parametrize(
        "waypoint",
        [(0.5, True, 0.5), (0.5, 0.5, 0.5), (True, 0.5, 0.5), (0, 0.5, False), (0, "0.5", 0.5),
         (0, 0.5, None)],
    )
    def test_actor_waypoints_follow_the_number_rule(self, waypoint):
        # A fractional frame would key the actor's positions by frames the
        # integer frame loop never reaches, so the actor would never appear.
        with pytest.raises(ValueError, match="^actor 1: waypoint .* must be an integer frame"):
            ActorSpec(1, [waypoint, (9, 0.5, 0.7)], np.ones(4))

    def test_numpy_waypoint_numbers_are_accepted_and_seen(self):
        actor = ActorSpec(1, [(np.int64(0), np.float64(0.5), 0.5), (2, 0.5, 0.7)], np.ones(4))
        frames, _ = generate(ScenarioSpec("x", seed=1, duration_frames=4, actors=[actor]))
        assert [len(f.detections.labels) for f in frames] == [1, 1, 1, 0]

    @pytest.mark.parametrize(
        "spec, base, field",
        list(number_fields()),
        ids=[f"{spec.__name__}.{f.name}" for spec, _, f in number_fields()],
    )
    def test_every_field_follows_the_number_rule(self, spec, base, field):
        # Found with dataclasses.fields, so a number field added later inherits
        # the rule: a bool, a string or a NaN (and a fraction for a count) is
        # refused by the constructor, with the field's name.
        for value in (True, "0.5", float("nan")) + ((2.5,) if field.type == "int" else ()):
            with pytest.raises(ValueError, match=f"^{field.name} must"):
                spec(**{**base, field.name: value})


# A valid instance of every config and spec with number fields.
NUMBER_HOLDERS = [
    TrackerConfig(),
    EngineConfig(embedding_dim=8),
    RegionLayout(),
    NoiseSpec(),
    ActorSpec(7, [(0, 0.5, 0.5)], np.ones(4)),
    DistractionSpec(DetectionClass.CHAIR, 0.5, 0.5),
    ScenarioSpec("x", seed=1, duration_frames=2),
]
HELD_FIELDS = [(holder, f.name) for holder in NUMBER_HOLDERS for f in fields(holder)
               if type(getattr(holder, f.name)) in (int, float)]


class TestNumberRule:
    @pytest.mark.parametrize("holder, name", HELD_FIELDS,
                             ids=[f"{type(holder).__name__}.{name}" for holder, name in HELD_FIELDS])
    def test_every_number_field_is_finite_and_named(self, holder, name):
        # Found with dataclasses.fields on a valid instance, so a number field
        # added later inherits the rule: a bool, a string, a NaN and both
        # infinities are refused through `replace`, led by the field's name
        # (an actor's other fields also by the actor).
        for value in (True, "1", float("nan"), float("inf"), -float("inf")):
            lead = name if name == "actor_id" or not isinstance(holder, ActorSpec) else f"actor 7: {name}"
            message = f"^{re.escape(lead)} must be .*, got {re.escape(quote.repr(value))}$"
            with pytest.raises(ValueError, match=message) as err:
                replace(holder, **{name: value})
            assert len(str(err.value)) < 1000

    def test_sweep_covers_every_holder(self):
        assert {type(holder) for holder, _ in HELD_FIELDS} == {type(holder) for holder in NUMBER_HOLDERS}

    def test_specs_hold_tuples(self):
        actor = _actor(np.ones(4))
        spec = ScenarioSpec("x", seed=1, duration_frames=2, actors=[actor], distractions=[])
        assert spec.actors == (actor,) and spec.distractions == ()
        assert len(replace(spec, actors=[actor, actor]).actors) == 2

    def test_large_finite_thresholds_are_accepted(self):
        # A threshold past every distance gates nothing, as an infinite one used to.
        assert TrackerConfig(feature_threshold=2.0, spatial_threshold=1e308).spatial_threshold == 1e308
        with pytest.raises(ValueError, match="^feature_threshold must be a finite number"):
            TrackerConfig(feature_threshold=10**400)


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

    @pytest.mark.parametrize("dim", [True, np.True_, 2.5, "8", 0])
    def test_embedding_dim_is_a_positive_count(self, dim):
        with pytest.raises(ValueError, match="^embedding_dim must be a positive integer, got "):
            make_scenario("clean_entry", dim)
        assert make_scenario("clean_entry", np.int64(8)).actors[0].base_embedding.shape == (8,)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_scenario("x" * 100_000),  # the CLI's --scenario and --scenarios
            lambda: make_scenario("dropout_" + "x" * 100_000),
            lambda: make_scenario("clean_entry", [0] * 100_000),
            lambda: ActorSpec(1, [(0, "x" * 100_000, 0.5)], np.ones(4)),
        ],
        ids=["name", "dropout_name", "embedding_dim", "waypoint"],
    )
    def test_messages_quote_values_in_bounded_form(self, build):
        with pytest.raises(ValueError) as err:
            build()
        assert len(str(err.value)) < 1000

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
        for layout in (RegionLayout(), RegionLayout(0.4, 0.6, "outside_top")):
            _, truth = generate(make_scenario("clean_entry", DIM), layout)
            assert truth.final_ins == 1 and truth.final_outs == 0
            assert [kind for kind, _, _ in truth.events] == [EventKind.ENTRY]
        _, truth = generate(make_scenario("clean_entry", DIM), RegionLayout(orientation=Orientation.OUTSIDE_BOTTOM))
        assert [kind for kind, _, _ in truth.events] == [EventKind.EXIT]

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

    def test_ground_truth_shares_no_code_with_the_counter(self, monkeypatch):
        specs = [make_scenario(name, DIM) for name in ("clean_entry", "clean_exit", "oscillation", "multi_3")]
        specs += [random_crossings(seed, actors=5, embedding_dim=DIM) for seed in range(3)]
        layouts = [RegionLayout(), RegionLayout(0.3, 0.7, "outside_bottom")]
        expected = [generate(spec, layout)[1] for spec in specs for layout in layouts]
        assert any(truth.final_ins and truth.final_outs for truth in expected)

        def counter_called(*args, **kwargs):
            raise AssertionError("ground truth reached the counter")

        for module in (counter, engine, simulator):
            for name in ("classify_region", "update_history"):
                monkeypatch.setattr(module, name, counter_called, raising=False)
        assert [generate(spec, layout)[1] for spec in specs for layout in layouts] == expected

    def test_line_ties_belong_to_b(self):
        # An actor inside touches line_ab exactly and turns back: B owns the
        # tie, so neither the ground truth nor the counter sees an exit.
        actor = ActorSpec(1, [(0, 0.5, 0.9), (20, 0.5, 0.6), (40, 0.5, 0.9)], np.ones(DIM))
        spec = ScenarioSpec("touch", seed=1, duration_frames=41, actors=[actor])
        line = float(generate(spec)[0][20].detections.centers[0, 1])
        layout = RegionLayout(line, 0.8)
        frames, truth = generate(spec, layout)
        assert truth.events == ()
        assert run_frames(frames, EngineConfig(layout=layout)).events == []

    def test_ground_truth_ignores_noise(self):
        noise = NoiseSpec(miss_probability=0.3, center_jitter_sigma=0.05)
        noisy = replace(make_scenario("clean_entry", DIM), noise=noise)
        _, truth = generate(noisy)
        assert (truth.final_ins, truth.final_outs) == (1, 0)

    def test_missed_frames_drop_detections(self):
        spec = make_scenario("dropout_3", DIM)
        frames, _ = generate(spec)
        gap = sorted(spec.actors[0].missed_frames)
        assert all(len(frames[f].detections) == 0 for f in gap)
        assert len(frames[gap[0] - 1].detections) > 0


CANNED = [name for name in catalog_names() if name != "dropout_<k>"] + ["dropout_1", "dropout_42"]
ROUND_TRIP = {
    **{f"{name}-{dim}": lambda name=name, dim=dim: make_scenario(name, dim) for name in CANNED for dim in (8, 128)},
    **{f"random_crossings_{seed}-{dim}": lambda seed=seed, dim=dim: random_crossings(seed, 6, embedding_dim=dim)
       for seed in range(4) for dim in (8, 128)},
}


class TestEndToEnd:
    @pytest.mark.parametrize("build", ROUND_TRIP.values(), ids=ROUND_TRIP.keys())
    def test_every_written_stream_is_read_back(self, build):
        # What the simulator writes, the engine reads: no StreamError, every frame counted.
        spec = build()
        result = run(io.StringIO(render(generate(spec)[0])))
        assert result.frames == spec.duration_frames

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
