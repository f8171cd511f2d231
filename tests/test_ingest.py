import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headcount.ingest import (
    BoundingBox,
    DetectionClass,
    DetectionRecord,
    EmbeddingDimensionError,
    FrameRecord,
    LightingMode,
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


def head(conf=0.95, box=(0.4, 0.4, 0.5, 0.5), emb=(1.0, 0.0)):
    return DetectionRecord(DetectionClass.HEAD, conf, BoundingBox(*box), np.asarray(emb))


def chair(conf=0.89, box=(0.1, 0.1, 0.2, 0.2)):
    return DetectionRecord(DetectionClass.CHAIR, conf, BoundingBox(*box), None)


class TestBoundingBox:
    def test_center(self):
        assert BoundingBox(0.2, 0.4, 0.4, 0.8).center == (0.30000000000000004, 0.6000000000000001)

    @pytest.mark.parametrize(
        "coords",
        [(0.5, 0.1, 0.4, 0.2), (0.1, 0.5, 0.2, 0.4), (-0.1, 0.1, 0.2, 0.2), (0.1, 0.1, 1.2, 0.2)],
    )
    def test_rejects_bad_geometry(self, coords):
        with pytest.raises(ValueError):
            BoundingBox(*coords)


class TestDetectionRecord:
    def test_head_requires_embedding(self):
        with pytest.raises(ValueError):
            DetectionRecord(DetectionClass.HEAD, 0.9, BoundingBox(0.1, 0.1, 0.2, 0.2), None)

    def test_distraction_embedding_optional(self):
        assert chair().embedding is None

    def test_confidence_range(self):
        with pytest.raises(ValueError):
            head(conf=1.2)

    def test_embedding_must_be_finite(self):
        with pytest.raises(ValueError):
            head(emb=(1.0, float("nan")))
        with pytest.raises(ValueError):
            validate_embedding([])


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
        frame = FrameRecord(0, 0, [head(0.95), chair(0.89)])
        kept = filter_heads(frame, 0.5)
        assert [d.class_label for d in kept] == [DetectionClass.HEAD]
        assert kept[0].confidence == 0.95

    def test_empty_frame(self):
        assert filter_heads(FrameRecord(0, 0, []), 0.5) == []

    def test_confidence_threshold(self):
        frame = FrameRecord(0, 0, [head(0.40), head(0.70)])
        kept = filter_heads(frame, 0.5)
        assert [d.confidence for d in kept] == [0.70]

    @given(st.lists(st.sampled_from(["head", "chair", "bag"]), max_size=12), st.floats(0, 1))
    def test_output_is_subsequence_never_relabeled(self, labels, threshold):
        dets = [head() if lbl == "head" else chair() for lbl in labels]
        frame = FrameRecord(0, 0, dets)
        kept = filter_heads(frame, threshold)
        it = iter(dets)
        assert all(any(k is d for d in it) for k in kept)  # subsequence, same objects
        assert all(k.class_label is DetectionClass.HEAD for k in kept)


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
        assert frames[1].detections[1].embedding is None

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

    def test_embedding_dimension_locked_from_first(self):
        src = stream_lines(
            frame_obj(0, 0, [det_obj(emb=(1.0, 0.0))]),
            frame_obj(1, 10, [det_obj(emb=(1.0, 0.0, 0.0))]),
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
        "field, value",
        [
            ("frame_id", 1.5),
            ("frame_id", True),
            ("frame_id", "7"),
            ("ts_ms", 50.0),
            ("conf", True),
            ("conf", "0.9"),
            ("box", [0.4, 0.4, True, 0.5]),
            ("box", ["0.4", 0.4, 0.5, 0.5]),
        ],
    )
    def test_numbers_are_not_coerced(self, field, value):
        bad = frame_obj(1, 50, [det_obj()])
        if field in ("conf", "box"):
            bad["detections"][0][field] = value
        else:
            bad[field] = value
        with pytest.raises(StreamParseError) as err:
            list(parse_stream(stream_lines(frame_obj(0, 0), bad)))
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
            frame_obj(lighting="dusk"),
            {"frame_id": 0, "ts_ms": 0, "detections": {"not": "a list"}},
        ],
    )
    def test_invalid_records(self, obj):
        with pytest.raises(StreamParseError) as err:
            list(parse_stream(stream_lines(obj)))
        assert err.value.line_number == 1

    def test_blank_lines_skipped(self):
        src = io.StringIO("\n" + json.dumps(frame_obj()) + "\n\n")
        assert len(list(parse_stream(src))) == 1


frames_strategy = st.builds(
    FrameRecord,
    frame_id=st.just(0),
    timestamp_ms=st.integers(0, 10_000),
    detections=st.lists(
        st.builds(
            DetectionRecord,
            class_label=st.sampled_from(list(DetectionClass)),
            confidence=st.floats(0, 1, allow_nan=False),
            box=st.just(BoundingBox(0.4, 0.4, 0.5, 0.5)),
            # zero-norm embeddings are invalid input, rejected by validate_embedding
            embedding=st.lists(
                st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=2, max_size=2
            ).map(np.asarray).filter(lambda v: v @ v > 0.0),
        ),
        max_size=4,
    ),
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
        assert len(parsed.detections) == len(frame.detections)
        for a, b in zip(parsed.detections, frame.detections):
            assert a.class_label is b.class_label
            assert a.confidence == b.confidence
            assert a.box == b.box
            assert np.array_equal(a.embedding, b.embedding)

    def test_write_stream_round_trip(self):
        frames = [
            FrameRecord(0, 0, [head()], LightingMode.NIGHT),
            FrameRecord(3, 150, [head(), chair()]),
        ]
        buf = io.StringIO()
        assert write_stream(frames, buf) == 2
        buf.seek(0)
        text = buf.getvalue()
        parsed = list(parse_stream(io.StringIO(text)))
        buf2 = io.StringIO()
        write_stream(parsed, buf2)
        assert buf2.getvalue() == text
