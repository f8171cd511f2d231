import io
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headcount.ingest import (
    DetectionClass,
    Detections,
    EmbeddingDimensionError,
    FrameRecord,
    LightingMode,
    StreamError,
    StreamOrderError,
    StreamParseError,
    classify_lighting,
    filter_heads,
    parse_stream,
    sample_pixel_grid,
    serialize_frame,
    validate_embedding,
    write_stream,
)
from headcount.engine import run_frames
from headcount.simulator import generate, make_scenario


def head(conf=0.95, box=(0.4, 0.4, 0.5, 0.5), emb=(1.0, 0.0)):
    return (DetectionClass.HEAD, conf, box, np.asarray(emb))


def chair(conf=0.89, box=(0.1, 0.1, 0.2, 0.2), emb=None):
    return (DetectionClass.CHAIR, conf, box, emb)


def frame_of(*rows):
    return FrameRecord(0, 0, Detections.from_rows(rows))


class TestBoundingBox:
    """The box column and its centers."""

    def test_center(self):
        centers = Detections.from_rows([chair(box=(0.2, 0.4, 0.4, 0.8))]).centers
        assert centers.tolist() == [[0.30000000000000004, 0.6000000000000001]]

    @pytest.mark.parametrize(
        "coords",
        [
            (0.5, 0.1, 0.4, 0.2), (0.1, 0.5, 0.2, 0.4), (-0.1, 0.1, 0.2, 0.2), (0.1, 0.1, 1.2, 0.2),
            # the number rule: 4 numbers, none a bool or a string
            ("0.1", 0.1, 0.2, 0.2), (0.1, 0.1, True, 0.2), (0.1, 0.1, 0.2), ((0.1, 0.1), (0.2, 0.2)),
            np.array([0.1, 0.1, 0.2, 0.2]) > 0.15, 0.1,
        ],
    )
    def test_rejects_bad_geometry(self, coords):
        with pytest.raises(ValueError):
            Detections.from_rows([head(), chair(box=coords)])


class TestDetectionRecord:
    """The per-detection rules, checked over every row of the frame at once."""

    def test_head_requires_embedding(self):
        with pytest.raises(ValueError, match="embedding"):
            Detections.from_rows([chair(), (DetectionClass.HEAD, 0.9, (0.1, 0.1, 0.2, 0.2), None)])

    def test_distraction_embedding_optional(self):
        dets = Detections.from_rows([head(emb=(3.0, 4.0)), chair(), chair(emb=(0.0, 2.0))])
        assert dets.has_embedding.tolist() == [True, False, True]
        assert dets.embeddings.tolist() == [[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]]
        assert Detections.from_rows([chair()]).embeddings.shape == (1, 0)

    def test_confidence_range(self):
        with pytest.raises(ValueError):
            Detections.from_rows([head(), head(conf=1.2)])
        with pytest.raises(ValueError):
            Detections.from_rows([chair(conf=float("nan"))])
        for conf in (True, np.bool_(True), "0.5", None):  # not numbers
            with pytest.raises(ValueError, match="conf must be a number"):
                Detections.from_rows([head(), chair(conf=conf)])

    def test_embedding_must_be_finite(self):
        with pytest.raises(ValueError):
            Detections.from_rows([head(), head(emb=(1.0, float("nan")))])
        with pytest.raises(ValueError, match="zero vector"):
            Detections.from_rows([head(), chair(emb=(0.0, 0.0))])
        with pytest.raises(ValueError):
            validate_embedding(np.zeros((1, 0)))
        with pytest.raises(ValueError):
            validate_embedding(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "emb",
        [
            ("1.5", 0.5), (True, 0.5), (0.5, False), (np.bool_(True), 0.5), np.array([True, False]),
            ((1.0,), 0.5), [[1.0, 0.0]], np.array([[1.0, 0.0]]),
        ],
    )
    def test_embedding_number_rule(self, emb):
        with pytest.raises(ValueError):
            Detections.from_rows([head(), (DetectionClass.HEAD, 0.9, (0.1, 0.1, 0.2, 0.2), emb)])

    def test_integers_are_numbers(self):
        dets = Detections.from_rows([head(emb=(2, 0)), (DetectionClass.BAG, 1, (0, 0, 1, 1), [10**30, 1])])
        assert dets.embeddings.dtype == float
        assert dets.embeddings.tolist() == [[2.0, 0.0], [1e30, 1.0]]
        assert dets.confidences.tolist() == [0.95, 1.0]

    def test_numpy_scalars_are_numbers(self):
        """Rows are accepted or refused by the types of their values, never by the values."""
        dets = Detections.from_rows(
            [head(emb=(np.float64(1.0), np.float64(0.0))), head(emb=[np.float32(0.5), np.int64(1)])]
        )
        assert dets.embeddings.tolist() == [[1.0, 0.0], [0.5, 1.0]]

    def test_embedding_lengths_differ(self):
        with pytest.raises(EmbeddingDimensionError):
            Detections.from_rows([head(emb=(1.0, 0.0)), chair(emb=(1.0, 0.0, 0.0))])

    def test_columns_must_agree(self):
        with pytest.raises(ValueError, match="one row"):
            Detections(
                labels=(DetectionClass.HEAD,),
                confidences=np.ones(2),
                boxes=np.array([[0.1, 0.1, 0.2, 0.2]]),
                embeddings=np.ones((1, 2)),
                has_embedding=np.ones(1, dtype=bool),
            )

    def test_wire_class_names_and_length(self):
        dets = Detections.from_rows(
            [("head", 0.9, (0.1, 0.1, 0.2, 0.2), (1.0,)), ("bag", 0.5, (0.3, 0.3, 0.4, 0.4), None)]
        )
        assert dets.labels == (DetectionClass.HEAD, DetectionClass.BAG)
        assert len(dets) == 2
        assert len(Detections.from_rows()) == 0
        with pytest.raises(ValueError):
            Detections.from_rows([("dog", 0.9, (0.1, 0.1, 0.2, 0.2), None)])


class TestClassifyLighting:
    def test_pure_grayscale_is_night(self):
        samples = np.full((100, 3), 77)
        assert classify_lighting(samples, 0, 0.99) is LightingMode.NIGHT

    def test_saturated_color_is_day(self):
        samples = np.tile([200, 40, 40], (100, 1))
        assert classify_lighting(samples, 2, 0.99) is LightingMode.DAY

    def test_agreement_fraction_boundary(self):
        samples = np.array([(50, 50, 50)] * 98 + [(80, 50, 60)] * 2)
        # Direct enumeration: 98 of 100 samples are within tolerance 2.
        agreeing = sum(1 for r, g, b in samples.tolist() if max(r, g, b) - min(r, g, b) <= 2)
        assert agreeing == 98
        assert classify_lighting(samples, 2, 0.99) is LightingMode.DAY
        assert classify_lighting(samples, 2, 0.95) is LightingMode.NIGHT

    def test_exact_rule_with_zero_tolerance_full_agreement(self):
        exact = [(10, 10, 10), (200, 200, 200)]
        assert classify_lighting(np.array(exact), 0, 1.0) is LightingMode.NIGHT
        assert classify_lighting(np.array(exact + [(10, 11, 10)]), 0, 1.0) is LightingMode.DAY

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            classify_lighting(np.empty((0, 3)), 2, 0.99)
        with pytest.raises(ValueError):
            classify_lighting(np.ones((4, 2)), 2, 0.99)
        with pytest.raises(ValueError):
            classify_lighting(np.array([[1, 256, 1]]), 2, 0.99)
        with pytest.raises(ValueError):
            classify_lighting(np.array([[1, -1, 1]]), 2, 0.99)
        with pytest.raises(ValueError):
            classify_lighting(np.ones((1, 3)), -1, 0.99)
        with pytest.raises(ValueError):
            classify_lighting(np.ones((1, 3)), 2, 0.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
            ),
            min_size=1,
            max_size=60,
        ),
        st.randoms(use_true_random=False),
        st.integers(0, 8),
    )
    def test_permutation_invariant(self, triples, rnd, tolerance):
        shuffled = list(triples)
        rnd.shuffle(shuffled)
        assert classify_lighting(np.array(triples), tolerance, 0.9) is classify_lighting(
            np.array(shuffled), tolerance, 0.9
        )


class TestSamplePixelGrid:
    def test_grid_size_and_values(self):
        img = np.zeros((40, 60, 3), dtype=np.uint8)
        img[:, :, 0] = 7
        samples = sample_pixel_grid(img, (10, 10))
        assert samples.shape == (100, 3)
        assert np.array_equal(samples, np.tile([7, 0, 0], (100, 1)))

    def test_rejects_non_image(self):
        with pytest.raises(ValueError):
            sample_pixel_grid(np.zeros((5, 5)), (2, 2))


class TestFilterHeads:
    def test_drops_distractions(self):
        frame = frame_of(chair(0.89), head(0.95), chair(0.99))
        kept = filter_heads(frame, 0.5)
        assert kept.tolist() == [1]
        assert frame.detections.labels[1] is DetectionClass.HEAD
        assert frame.detections.confidences[kept].tolist() == [0.95]

    def test_empty_frame(self):
        assert filter_heads(FrameRecord(0, 0), 0.5).tolist() == []

    def test_confidence_threshold(self):
        frame = frame_of(head(0.40), head(0.70), head(0.5))
        kept = filter_heads(frame, 0.5)
        assert frame.detections.confidences[kept].tolist() == [0.70, 0.5]

    @pytest.mark.parametrize("floor", [True, "0.5", float("nan"), -0.1, 1.5])
    def test_floor_follows_the_number_rule(self, floor):
        # A bool must not read as a floor of 1.0 and silently drop a 0.95 head.
        with pytest.raises(ValueError, match="^min_confidence must"):
            filter_heads(frame_of(head(0.95)), floor)

    @given(
        st.lists(st.tuples(st.sampled_from(["head", "chair", "bag"]), st.floats(0, 1)), max_size=12),
        st.floats(0, 1),
    )
    def test_output_is_subsequence_never_relabeled(self, dets, threshold):
        rows = [head(conf) if lbl == "head" else chair(conf) for lbl, conf in dets]
        frame = frame_of(*rows)
        labels = frame.detections.labels
        kept = filter_heads(frame, threshold).tolist()
        assert kept == sorted(set(kept))  # a subsequence of the frame's rows, in order
        assert kept == [i for i, (lbl, conf) in enumerate(dets) if lbl == "head" and conf >= threshold]
        assert frame.detections.labels == labels  # nothing relabeled
        assert all(labels[k] is DetectionClass.HEAD for k in kept)


def stream_lines(*objs):
    return io.StringIO("".join(json.dumps(o) + "\n" for o in objs))


def frame_obj(frame_id=0, ts=0, dets=(), lighting=None):
    obj = {"frame_id": frame_id, "ts_ms": ts, "detections": list(dets)}
    if lighting:
        obj["lighting"] = lighting
    return obj


def det_obj(cls="head", conf=0.9, box=(0.4, 0.4, 0.5, 0.5), emb=(1.0, 0.0)):
    d = {"class": cls, "conf": conf, "box": list(box)}
    if emb is not None:
        d["emb"] = list(emb)
    return d


NOT_COERCED = [
    # ids and timestamps follow check_frame, the rule the engine applies too
    ("frame_id", 1.5, StreamOrderError),
    ("frame_id", True, StreamOrderError),
    ("frame_id", "7", StreamOrderError),
    ("ts_ms", 50.0, StreamOrderError),
    ("conf", True, StreamParseError),
    ("conf", "0.9", StreamParseError),
    ("box", [0.4, 0.4, True, 0.5], StreamParseError),
    ("box", ["0.4", 0.4, 0.5, 0.5], StreamParseError),
    ("emb", ["1.5", 0.5], StreamParseError),
    ("emb", ["1.5", True, 0], StreamParseError),
    ("emb", [True, 0.5], StreamParseError),
    ("emb", [0.5, False], StreamParseError),
    ("emb", [True, False], StreamParseError),
]


class TestParseStream:
    def test_happy_path(self):
        src = stream_lines(
            frame_obj(0, 0, [det_obj()], lighting="day"),
            frame_obj(1, 50, [det_obj(), det_obj(cls="chair", emb=None)]),
        )
        frames = list(parse_stream(src))
        assert [f.frame_id for f in frames] == [0, 1]
        assert frames[0].lighting is LightingMode.DAY
        assert frames[1].lighting is None
        assert len(frames[1].detections) == 2
        assert frames[1].detections.has_embedding.tolist() == [True, False]

    def test_accepts_bytes(self):
        raw = (json.dumps(frame_obj()) + "\n").encode()
        frames = list(parse_stream(io.BytesIO(raw)))
        assert frames[0].frame_id == 0

    def test_malformed_line_carries_number(self):
        src = io.StringIO(json.dumps(frame_obj()) + "\n{oops\n")
        with pytest.raises(StreamParseError) as err:
            list(parse_stream(src))
        assert err.value.line_number == 2

    def test_non_monotonic_frame_id(self):
        src = stream_lines(frame_obj(5, 0), frame_obj(5, 10))
        with pytest.raises(StreamOrderError):
            list(parse_stream(src))

    def test_timestamp_going_backward(self):
        src = stream_lines(frame_obj(0, 100), frame_obj(1, 50))
        with pytest.raises(StreamOrderError):
            list(parse_stream(src))

    @pytest.mark.parametrize("field", ["frame_id", "ts_ms"])
    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    def test_value_beyond_int64_is_refused_naming_its_line(self, field, value):
        # The event log stores frame ids and timestamps as int64.
        beyond = {**frame_obj(1, 50), field: value}
        src = stream_lines(frame_obj(0, 0), beyond)
        name = "frame_id" if field == "frame_id" else "timestamp"
        refusal = f"^line 2: {name} {value} is not an integer in the int64 range$"
        with pytest.raises(StreamError, match=refusal) as err:
            list(parse_stream(src))
        assert err.value.line_number == 2

    def test_int64_bounds_are_accepted(self):
        src = stream_lines(frame_obj(-(2**63), -(2**63)), frame_obj(2**63 - 1, 2**63 - 1))
        assert [(f.frame_id, f.timestamp_ms) for f in parse_stream(src)] == [
            (-(2**63), -(2**63)), (2**63 - 1, 2**63 - 1)
        ]

    def test_embedding_dimension_locked_from_first(self):
        src = stream_lines(
            frame_obj(0, 0, [det_obj(emb=(1.0, 0.0))]),
            frame_obj(1, 10, [det_obj(emb=(1.0, 0.0, 0.0))]),
        )
        with pytest.raises(EmbeddingDimensionError) as err:
            list(parse_stream(src))
        assert err.value.line_number == 2

    def test_embedding_lengths_differ_within_frame(self):
        src = stream_lines(
            frame_obj(0, 0, [det_obj()]),
            frame_obj(1, 50, [det_obj(emb=(1.0, 0.0)), det_obj(emb=(1.0, 0.0, 0.0))]),
        )
        with pytest.raises(EmbeddingDimensionError) as err:
            list(parse_stream(src))
        assert err.value.line_number == 2

    def test_zero_norm_embedding_names_its_line(self):
        src = stream_lines(
            frame_obj(0, 0, [det_obj()]),
            frame_obj(1, 50, [det_obj()]),
            frame_obj(2, 100, [det_obj(emb=(0.0, 0.0))]),
        )
        with pytest.raises(StreamParseError, match="zero vector") as err:
            list(parse_stream(src))
        assert err.value.line_number == 3

    @pytest.mark.parametrize(
        "field, value, error",
        NOT_COERCED,
        # an id leaves the error out: field-value, or field-value<row> for a list
        ids=[f"{f}-{f'value{i}' if isinstance(v, list) else v}" for i, (f, v, _) in enumerate(NOT_COERCED)],
    )
    def test_numbers_are_not_coerced(self, field, value, error):
        bad = frame_obj(1, 50, [det_obj(cls="chair", emb=None), det_obj()])
        if field in ("conf", "box", "emb"):
            bad["detections"][1][field] = value
        else:
            bad[field] = value
        with pytest.raises(StreamError) as err:
            list(parse_stream(stream_lines(frame_obj(0, 0), bad)))
        assert type(err.value) is error
        assert err.value.line_number == 2

    def test_embedding_dimension_configured(self):
        src = stream_lines(frame_obj(0, 0, [det_obj(emb=(1.0, 0.0))]))
        with pytest.raises(EmbeddingDimensionError):
            list(parse_stream(src, embedding_dim=8))

    @pytest.mark.parametrize(
        "obj",
        [
            {"ts_ms": 0},  # missing frame_id
            frame_obj(dets=[det_obj(cls="dog")]),
            frame_obj(dets=[det_obj(conf=2.0)]),
            frame_obj(dets=[det_obj(box=(0.5, 0.5, 0.4, 0.6))]),
            frame_obj(dets=[det_obj(emb=None)]),  # head without embedding
            frame_obj(dets=[det_obj(), det_obj(emb=(1.0, None))]),
            frame_obj(dets=[det_obj(), det_obj(emb=(1.0, [0.0]))]),
            frame_obj(dets=[det_obj(), {**det_obj(), "emb": [[1.0, 0.0]]}]),
            frame_obj(dets=[det_obj(), {**det_obj(), "emb": 1.0}]),
            frame_obj(dets=[det_obj(), {**det_obj(), "emb": "1.0, 0.0"}]),
            frame_obj(dets=[det_obj(), {**det_obj(cls="bag"), "emb": {"0": 1.0}}]),
            frame_obj(dets=[det_obj(), det_obj(emb=(10**400, 1.0))]),  # beyond float range
            frame_obj(dets=[det_obj(conf=10**400)]),
            frame_obj(lighting="dusk"),
            {"frame_id": 0, "ts_ms": 0, "detections": {"not": "a list"}},
            frame_obj(dets=[det_obj(cls=["head"])]),  # an unhashable class
        ],
    )
    def test_invalid_records(self, obj):
        with pytest.raises(StreamParseError) as err:
            list(parse_stream(stream_lines(obj)))
        assert err.value.line_number == 1

    def test_blank_lines_skipped(self):
        src = io.StringIO("\n" + json.dumps(frame_obj()) + "\n\n")
        assert len(list(parse_stream(src))) == 1


class TestFrameRecordLighting:
    def test_wire_name_is_stored_as_the_mode_and_tallied(self):
        frame = FrameRecord(0, 0, lighting="night")
        assert frame.lighting is LightingMode.NIGHT
        assert run_frames([frame]).lighting_counts == {"day": 0, "night": 1, "unknown": 0}

    @pytest.mark.parametrize("value", ["dusk", "NIGHT", True, ["day"]])
    def test_unknown_lighting_is_a_value_error_naming_the_field(self, value):
        with pytest.raises(ValueError, match=r"^lighting must be 'day' or 'night', got "):
            FrameRecord(0, 0, lighting=value)

    def test_parser_reports_unknown_lighting_on_its_line(self):
        src = stream_lines(frame_obj(0, 0), frame_obj(1, 50, lighting="dusk"))
        refusal = "^line 2: lighting must be 'day' or 'night', got 'dusk'$"
        with pytest.raises(StreamParseError, match=refusal) as err:
            list(parse_stream(src))
        assert err.value.line_number == 2


class TestFrozenFrameRecord:
    @staticmethod
    def parsed_frames():
        buf = io.StringIO()
        write_stream(generate(make_scenario("crossing_pair", 8))[0], buf)
        return list(parse_stream(buf.getvalue().splitlines()))

    @pytest.mark.parametrize(
        "name, value", [("lighting", "day"), ("frame_id", 0), ("detections", Detections.from_rows())]
    )
    def test_a_parsed_frame_cannot_change(self, name, value):
        frames = self.parsed_frames()
        for frame in frames:
            with pytest.raises(FrozenInstanceError):
                setattr(frame, name, value)
        result, untouched = run_frames(frames), run_frames(self.parsed_frames())
        assert list(result.events) == list(untouched.events) and len(result.events) == 2
        assert (result.frames, result.lighting_counts) == (untouched.frames, untouched.lighting_counts)

    def test_replace_checks_and_stores_the_lighting(self):
        frame = replace(self.parsed_frames()[0], lighting="night")
        assert frame.lighting is LightingMode.NIGHT
        assert run_frames([frame]).lighting_counts == {"day": 0, "night": 1, "unknown": 0}
        with pytest.raises(ValueError, match=r"^lighting must be 'day' or 'night', got 'dusk'$"):
            replace(frame, lighting="dusk")


# zero-norm embeddings are invalid input, rejected by validate_embedding
embedding_strategy = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=2, max_size=2
).map(np.asarray).filter(lambda v: v @ v > 0.0)

row_strategy = st.tuples(
    st.sampled_from(list(DetectionClass)),
    st.floats(0, 1, allow_nan=False),
    st.tuples(st.floats(0, 0.49), st.floats(0, 0.49), st.floats(0.5, 1), st.floats(0.5, 1)),
    st.one_of(st.none(), embedding_strategy),
).filter(lambda row: row[3] is not None or row[0] is not DetectionClass.HEAD)

frames_strategy = st.builds(
    FrameRecord,
    frame_id=st.just(0),
    timestamp_ms=st.integers(0, 10_000),
    detections=st.lists(row_strategy, max_size=4).map(Detections.from_rows),
    lighting=st.sampled_from([None, LightingMode.DAY, LightingMode.NIGHT]),
)


class TestRoundTrip:
    @settings(max_examples=60)
    @given(frames_strategy)
    def test_serialize_parse_serialize_is_identity(self, frame):
        line = serialize_frame(frame)
        (parsed,) = list(parse_stream(io.StringIO(line + "\n")))
        assert serialize_frame(parsed) == line
        assert parsed.frame_id == frame.frame_id
        assert parsed.timestamp_ms == frame.timestamp_ms
        assert parsed.lighting == frame.lighting
        a, b = parsed.detections, frame.detections
        assert len(a) == len(b)
        assert a.labels == b.labels
        assert a.confidences.tobytes() == b.confidences.tobytes()
        assert a.boxes.tobytes() == b.boxes.tobytes()
        assert a.has_embedding.tolist() == b.has_embedding.tolist()
        assert np.array_equal(a.embeddings, b.embeddings)

    def test_write_stream_round_trip(self):
        frames = [
            FrameRecord(0, 0, Detections.from_rows([head()]), LightingMode.NIGHT),
            FrameRecord(3, 150, Detections.from_rows([chair(), head(), chair(emb=(0.5, 0.5))])),
        ]
        buf = io.StringIO()
        assert write_stream(frames, buf) == 2
        buf.seek(0)
        text = buf.getvalue()
        parsed = list(parse_stream(io.StringIO(text)))
        buf2 = io.StringIO()
        write_stream(parsed, buf2)
        assert buf2.getvalue() == text
