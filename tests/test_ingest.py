import io
import json
import random
import re
from array import array
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
    serialize_frame,
    write_stream,
)
from headcount.engine import run, run_frames
from headcount.simulator import NoiseSpec, catalog_names, generate, make_scenario
from oracles import emb_block_by_rule, ir_lighting_mode


def head(conf=0.95, box=(0.4, 0.4, 0.5, 0.5), emb=(1.0, 0.0)):
    return (DetectionClass.HEAD, conf, box, np.asarray(emb))


def chair(conf=0.89, box=(0.1, 0.1, 0.2, 0.2), emb=None):
    return (DetectionClass.CHAIR, conf, box, emb)


def frame_columns(**changes):
    """A valid head, chair and bag frame's five `Detections` columns, with `changes` swapped in."""
    columns = dict(
        labels=(DetectionClass.HEAD, DetectionClass.CHAIR, DetectionClass.BAG),
        confidences=np.array([0.9, 0.8, 0.7]),
        boxes=np.array([[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.4, 0.4], [0.5, 0.5, 0.6, 0.6]]),
        embeddings=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
        has_embedding=np.array([True, False, True]),
    )
    return {**columns, **changes}


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
        with pytest.raises(ValueError, match="^embedding must have at least one component$"):
            Detections.from_rows([head(emb=()), chair()])
        with pytest.raises(ValueError, match="zero vector"):
            Detections.from_rows([head(), head(emb=(0.0, 0.0))])

    @pytest.mark.parametrize(
        "row, message",
        [
            ((1.0, float("nan")), "must be finite"),
            ((float("inf"), 1.0), "must be finite"),
            ((-float("inf"), 0.0), "must be finite"),
            ((1e200, 5e199), "squares must sum below the float64 limit"),  # each finite, the sum is not
            ((0.0, 0.0), "zero norm"),
            ((1e-200, 1e-200), "zero norm"),  # non-zero, but every square underflows to 0
        ],
        ids=["nan", "inf", "minus_inf", "overflow", "zero", "underflow"],
    )
    def test_embedding_rule_refuses_a_row(self, row, message):
        # One embedded row breaks the rule: the frame is refused whatever its other rows are.
        with pytest.raises(ValueError, match=message):
            Detections.from_rows([head(emb=(1.0, 0.5)), chair(), head(emb=row), chair(emb=(0.0, 2.0))])

    def test_embedding_rule_reads_the_mask_rows_only(self):
        # The messages keep their order: the row rules, then width, then finiteness, then zero norm.
        block = np.array([[0.0, 0.0], [float("nan"), 0.0], [1.0, 0.0]])
        bags = (DetectionClass.BAG,) * 3  # any row may go without an embedding
        frame = frame_columns(labels=bags, embeddings=block, has_embedding=np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="^detection 2: confidence must be in"):
            Detections(**{**frame, "confidences": np.array([0.9, 0.8, 1.5])})
        with pytest.raises(ValueError, match="must be finite"):
            Detections(**frame)
        frame["has_embedding"] = np.array([True, False, True])
        with pytest.raises(ValueError, match="zero norm"):
            Detections(**frame)
        frame["has_embedding"] = np.array([False, False, True])
        assert Detections(**frame).embeddings is block
        with pytest.raises(ValueError, match="at least one component"):
            Detections(**frame_columns(embeddings=np.zeros((3, 0))))
        assert len(Detections(**frame_columns(labels=bags, embeddings=np.zeros((3, 0)),
                                              has_embedding=np.zeros(3, dtype=bool)))) == 3

    @pytest.mark.parametrize(
        "name, value, got",
        [
            ("embeddings", np.array([[True, False], [False, True], [True, True]]), "dtype bool"),
            ("confidences", np.array([True, True, True]), "dtype bool"),
            ("embeddings", np.eye(3, 2, dtype=np.float32), "dtype float32"),
            ("boxes", np.array([[0, 0, 1, 1]] * 3), "dtype int64"),
            ("embeddings", np.array([["1.0", "0.0"]] * 3), "dtype <U3"),
            ("embeddings", np.array([[2**62, 0]] * 3), "dtype int64"),  # its squares wrap to 0
            ("has_embedding", np.array([0.5, 0.0, 1.0]), "dtype float64"),
            ("has_embedding", np.array([1, 0, 1]), "dtype int64"),  # would index rows 1, 0 and 1
            ("confidences", [0.9, 0.8, 0.7], "type list"),
            ("has_embedding", (True, False, True), "type tuple"),
            ("embeddings", np.float64(1.0), "type float64"),
        ],
        ids=["bool_block", "bool_confidences", "float32_block", "int_boxes", "string_block", "int_block",
             "float_mask", "int_mask", "list_confidences", "tuple_mask", "scalar_block"],
    )
    def test_columns_are_refused_by_dtype_and_name(self, name, value, got):
        # A head, a chair and a bag that are valid with float64 columns and a bool mask.
        Detections(**frame_columns())
        dtype = "bool" if name == "has_embedding" else "float64"
        with pytest.raises(ValueError, match=f"^{name} must be a {dtype} ndarray, got {re.escape(got)}$"):
            Detections(**frame_columns(**{name: value}))

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

    @pytest.mark.parametrize(
        "emb",
        [[np.array(0.6), 0.8], array("d", [0.6, 0.8]), range(2, 4), memoryview(np.array([0.6, 0.8]))],
        ids=["0d_array_element", "array_d", "range", "memoryview"],
    )
    def test_python_rows_keep_the_per_element_rule(self, emb):
        # numpy would read each of these as a float row; the rule refuses them by type.
        with pytest.raises(ValueError, match="emb must be a flat array of numbers"):
            Detections.from_rows([head(emb=(0.6, 0.8)), (DetectionClass.HEAD, 0.9, (0.1, 0.1, 0.2, 0.2), emb)])

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


# Images the lighting rule refuses, each with a ValueError quoting its dtype and shape.
REFUSED_IMAGES = {
    "no_channels": np.zeros((5, 5)),
    "two_channels": np.ones((4, 2, 2)),
    "zero_height": np.zeros((0, 4, 3)),
    "zero_width": np.zeros((4, 0, 3)),
    "strings": np.full((4, 4, 3), "a"),
    "bools": np.ones((4, 4, 3), dtype=bool),
    "above_255": np.full((4, 4, 3), 256),
    "below_0": np.full((4, 4, 3), -1),
    "nan": np.full((4, 4, 3), np.nan),
}


def grey_image(shape=(10, 10), level=50):
    return np.full((*shape, 3), level)


class TestClassifyLighting:
    def test_pure_grayscale_is_night(self):
        assert classify_lighting(grey_image(level=77)) is LightingMode.NIGHT

    def test_saturated_color_is_day(self):
        assert classify_lighting(np.tile([200, 40, 40], (10, 10, 1))) is LightingMode.DAY

    def test_agreement_fraction_boundary(self):
        # On a 10 x 10 image every pixel is sampled: 98 of 100 agreeing is day, 99 is night.
        img = grey_image()
        img[0, 0] = img[9, 9] = (80, 50, 60)
        agreeing = sum(1 for r, g, b in img.reshape(-1, 3).tolist() if max(r, g, b) - min(r, g, b) <= 2)
        assert agreeing == 98
        assert classify_lighting(img) is LightingMode.DAY
        img[9, 9] = (50, 50, 50)
        assert classify_lighting(img) is LightingMode.NIGHT

    def test_channel_spread_boundary(self):
        # A spread of 2 of 255 is grey, 3 is colour, on every pixel.
        assert classify_lighting(grey_image() + (0, 2, 1)) is LightingMode.NIGHT
        assert classify_lighting(grey_image() + (0, 3, 1)) is LightingMode.DAY

    def test_reads_only_the_grid_pixels(self):
        # On a 19 x 19 image the grid is every even row and column.
        img = np.tile([200, 40, 40], (19, 19, 1))
        img[::2, ::2] = (7, 7, 7)
        assert classify_lighting(img) is LightingMode.NIGHT
        img = grey_image((19, 19)).astype(float)
        img[1::2, :] = np.nan  # off the grid: never read, so never refused
        assert classify_lighting(img) is LightingMode.NIGHT
        img[::2, ::2] = (200, 40, 40)
        assert classify_lighting(img) is LightingMode.DAY

    def test_invalid_inputs(self):
        for image in REFUSED_IMAGES.values():
            with pytest.raises(ValueError, match=re.escape(f"got dtype {image.dtype} and shape {image.shape}") + "$"):
                classify_lighting(image)

    @given(
        st.lists(st.integers(0, 253), min_size=100, max_size=100),
        st.lists(st.tuples(st.integers(0, 99), *[st.integers(0, 255)] * 3), max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, levels, coloured, rnd):
        # Grey pixels with spreads 0-2, and up to 3 pixels set to any colour: night or day.
        pixels = [(g, g + i % 3, g) for i, g in enumerate(levels)]
        for index, *rgb in coloured:
            pixels[index] = tuple(rgb)
        shuffled = list(pixels)
        rnd.shuffle(shuffled)
        assert classify_lighting(np.reshape(pixels, (10, 10, 3))) is classify_lighting(
            np.reshape(shuffled, (10, 10, 3))
        )

    def test_matches_literal_retrace_on_seeded_images(self):
        # Grey images with a few channels pushed 0-5 levels off, some with a fourth
        # channel, as uint8, int64 or float64 (floats also move by up to 0.5).
        rng = np.random.default_rng(9)
        modes = []
        for _ in range(300):
            shape = (*rng.integers(1, 40, 2), rng.choice([3, 4]))
            img = rng.integers(0, 250, (*shape[:2], 1)) + np.zeros(shape, dtype=int)
            img += rng.integers(0, 6, shape) * (rng.random(shape) < rng.random() / 20)
            img = img.astype(rng.choice([np.uint8, np.int64, np.float64]))
            if img.dtype == np.float64:
                img += rng.random(shape) / 2
            modes.append(classify_lighting(img).value)
            assert modes[-1] == ir_lighting_mode(img.tolist())
        assert 50 < modes.count("day") < 250


class TestSamplePixelGrid:
    def test_rejects_non_image(self):
        # A 2-D array has rows and columns to sample but no channels: refused before any pixel is read.
        with pytest.raises(ValueError, match=r"^expected an H x W x 3 image of numbers, H and W >= 1, got"):
            classify_lighting(np.zeros((5, 5)))


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

    def test_floor_is_quoted_in_bounded_form(self):
        with pytest.raises(ValueError, match="^min_confidence must") as err:
            filter_heads(frame_of(head(0.95)), "x" * 100_000)
        assert len(str(err.value)) < 1000

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
        refusal = f"^line 2: {field} {value} is not an integer in the int64 range$"
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


def encoded(obj):
    return json.dumps(obj).encode()


# Each refusal kind, as line 2 of a stream whose line 1 is a counted frame at dimension 2:
# the line's bytes, the error class and the message after the "line 2: " prefix.
LINE_2_REFUSALS = {
    "utf8": (b"\xff", StreamParseError,
             "invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "json": (b"{oops", StreamParseError,
             "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "not_an_object": (encoded([1, 50]), StreamParseError, "frame record must be a JSON object"),
    "detections_not_an_array": (encoded({**frame_obj(1, 50), "detections": {"a": 1}}), StreamParseError,
                                "detections must be an array"),
    "missing_field": (encoded({"frame_id": 1}), StreamParseError, "missing field 'ts_ms'"),
    "detection_not_an_object": (encoded(frame_obj(1, 50, [1])), StreamParseError,
                                "detection entries must be objects"),
    "number_rule": (encoded(frame_obj(1, 50, [det_obj(conf="0.9")])), StreamParseError,
                    "each conf must be a number and each box 4 numbers, got conf ('0.9',) "
                    "and box ([0.4, 0.4, 0.5, 0.5],)"),
    "range_rule": (encoded(frame_obj(1, 50, [det_obj(conf=2.0)])), StreamParseError,
                   "detection 0: confidence must be in [0, 1], got conf 2.0 and box [0.4, 0.4, 0.5, 0.5]"),
    "unknown_class": (encoded(frame_obj(1, 50, [det_obj(cls="dog")])), StreamParseError,
                      "unknown detection class: 'dog'"),
    "lighting": (encoded(frame_obj(1, 50, lighting="dusk")), StreamParseError,
                 "lighting must be 'day' or 'night', got 'dusk'"),
    "ragged_emb": (encoded(frame_obj(1, 50, [det_obj(), det_obj(emb=(1.0, 0.0, 0.0))])),
                   EmbeddingDimensionError, "emb lengths [2, 3] differ within one frame"),
    "frame_id_rule": (encoded(frame_obj(1.5, 50)), StreamOrderError,
                      "frame_id 1.5 is not an integer in the int64 range"),
    "ts_ms_rule": (encoded(frame_obj(1, 50.5)), StreamOrderError,
                   "ts_ms 50.5 is not an integer in the int64 range"),
    "order_rule": (encoded(frame_obj(0, 50)), StreamOrderError, "frame_id 0 does not increase past 0"),
    "dimension_rule": (encoded(frame_obj(1, 50, [det_obj(emb=(1.0, 0.0, 0.0))])), EmbeddingDimensionError,
                       "embedding length 3 != stream dimension 2"),
    "embedding_overflow": (encoded(frame_obj(1, 50, [det_obj(emb=(1e200, 5e199))])), StreamParseError,
                           "embedding components must be finite and their squares must sum "
                           "below the float64 limit"),
}

COUNTED_LINE = encoded(frame_obj(0, 0, [det_obj()]))


def summary(result):
    return (result.ledger.snapshot(), result.frames, result.lighting_counts, result.track_ids_issued)


class TestLineNaming:
    """`parse_stream` is the one place that names a line, whatever on the line is refused."""

    @pytest.mark.parametrize("entry", ["parse_stream", "run"])
    @pytest.mark.parametrize("case", list(LINE_2_REFUSALS))
    def test_every_refusal_names_its_line(self, case, entry):
        line, error, message = LINE_2_REFUSALS[case]
        with pytest.raises(StreamError) as err:
            run([COUNTED_LINE, line]) if entry == "run" else list(parse_stream([COUNTED_LINE, line]))
        assert type(err.value) is error
        assert err.value.line_number == 2
        assert str(err.value) == f"line 2: {message}"
        if entry == "run":
            assert summary(err.value.result) == summary(run([COUNTED_LINE]))

    @pytest.mark.parametrize("line", [b'{"frame_id": ' + b"1" * 5000 + b', "ts_ms": 50}', b"[" * 100_000],
                             ids=["integer_past_the_digit_limit", "nesting_past_the_recursion_limit"])
    def test_json_past_a_python_limit_is_invalid_json_on_its_line(self, line):
        # json.loads raises a plain ValueError and a RecursionError here, not a JSONDecodeError.
        with pytest.raises(StreamParseError, match="^line 2: invalid JSON: ") as err:
            run([COUNTED_LINE, line])
        assert err.value.line_number == 2
        assert summary(err.value.result) == summary(run([COUNTED_LINE]))

    def test_a_fault_inside_check_frame_is_not_a_bad_line(self, monkeypatch):
        fault = TypeError("a fault in the rule, not in the stream")

        def check_frame(frame, last):
            raise fault

        monkeypatch.setattr("headcount.ingest.check_frame", check_frame)
        with pytest.raises(TypeError) as err:
            list(parse_stream([COUNTED_LINE]))
        assert err.value is fault


LONG = "x" * 100_000
NESTED = 0
for _ in range(6):  # 6 deep, 6 wide: reprlib's default limits (6 and 6) leave it whole
    NESTED = [NESTED] * 6
BOUNDED_QUOTES = {
    "frame_id_array": (frame_obj(list(range(20_000)), 50), StreamOrderError),
    "frame_id_nested": (frame_obj(NESTED, 50), StreamOrderError),
    "ts_ms_string": (frame_obj(1, LONG), StreamOrderError),
    "class": (frame_obj(1, 50, [det_obj(cls=LONG)]), StreamParseError),
    "lighting": (frame_obj(1, 50, lighting=LONG), StreamParseError),
    "conf": (frame_obj(1, 50, [det_obj(conf=LONG)]), StreamParseError),
    "emb_lengths": (frame_obj(1, 50, [det_obj(cls="bag", emb=[1.0] * k) for k in range(1, 400)]),
                    EmbeddingDimensionError),
    "frame_id_array_via_run_frames": (FrameRecord(list(range(20_000)), 50), StreamOrderError),
}


@pytest.mark.parametrize("case", list(BOUNDED_QUOTES))
def test_messages_quote_stream_values_in_bounded_form(case):
    bad, error = BOUNDED_QUOTES[case]
    parsed = not isinstance(bad, FrameRecord)
    with pytest.raises(StreamError) as err:
        list(parse_stream([COUNTED_LINE, encoded(bad)])) if parsed else run_frames([bad])
    line = 2 if parsed else None
    assert (type(err.value), err.value.line_number) == (error, line)
    assert str(err.value).startswith("line 2: ") is (line == 2)
    assert len(str(err.value)) < 1000


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


# zero-norm embeddings are invalid input, which `Detections` refuses
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


# JSON values swapped into `emb` components: bools, null, a string and an array
# (refused by the rule), exact 0s and 1s (where a bool would hide), integers past
# int64 and past float range, and the non-finite values json.loads accepts.
EMB_SWAPS = [
    "true", "false", "null", '"0.5"', "[0.5]", "0", "1", "-0.0", "0.0", "1.0",
    "9223372036854775808", "18446744073709551615", "9007199254740993", "1" * 401, "NaN", "-Infinity",
]


def emb_case_lines(seed=29, per_swap=12):
    """Seeded frame lines, each to be the second frame of a 4-d stream: emb components
    swapped for every EMB_SWAPS value, then all-int, all-bool, bool-among-int, ragged and empty rows."""
    rng = random.Random(seed)

    def line(rows, chair_rows=()):
        dets = [{"class": "head", "conf": 0.9, "box": [0.1, 0.1, 0.2, 0.2], "emb": "@"} for _ in rows]
        dets += [{"class": "chair", "conf": 0.8, "box": [0.5, 0.5, 0.6, 0.6], "emb": "@"} for _ in chair_rows]
        if rng.random() < 0.5:
            bag = {"class": "bag", "conf": 0.7, "box": [0.2, 0.2, 0.3, 0.3]}
            dets.insert(rng.randrange(len(dets) + 1), bag)
        text = json.dumps({"frame_id": 1, "ts_ms": 40, "detections": dets}, separators=(",", ":"))
        for row in (*rows, *chair_rows):
            text = text.replace('"@"', "[" + ",".join(row) + "]", 1)
        return text

    def floats(d=4):
        return [repr(rng.uniform(-2.0, 2.0)) for _ in range(d)]

    for token in EMB_SWAPS:
        for _ in range(per_swap):
            rows = [floats() for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 2)):
                rng.choice(rows)[rng.randrange(4)] = token
            yield line(rows[:-1], rows[-1:]) if rng.random() < 0.3 else line(rows)
    for _ in range(per_swap):
        for low in (0, 2):  # all-int rows with and without a 0 or 1, some past 2**53
            values = [rng.randint(low, 9), -rng.randint(max(low, 1), 9), 2**53 + rng.randint(1, 9)]
            yield line([[str(rng.choice(values)) for _ in range(4)] for _ in range(rng.randint(1, 3))])
        yield line([[rng.choice(["true", "false"]) for _ in range(4)]])  # all-bool row
        ints = [[str(rng.randint(2, 9)) for _ in range(4)] for _ in range(rng.randint(2, 3))]
        rng.choice(ints[1:])[rng.randrange(4)] = rng.choice(["true", "false"])
        yield line(ints)  # a bool among ints, past a first row without a 0 or 1
        yield line([floats(), floats(rng.choice([3, 5]))])  # ragged
        yield line([floats(), []])  # ragged, one row empty
        yield line([[] for _ in range(rng.randint(1, 3))])  # empty rows


def parse_outcome(text):
    """The second frame's embeddings as (shape, int64 bits, has_embedding), or the refusal."""
    try:
        frames = list(parse_stream(io.StringIO(text)))
    except StreamError as exc:
        return type(exc), str(exc), exc.line_number
    emb = frames[-1].detections
    assert emb.embeddings.dtype == np.float64
    return emb.embeddings.shape, emb.embeddings.view(np.int64).tolist(), emb.has_embedding.tolist()


class TestJsonEmbeddingBlock:
    """The parser reads a frame's JSON `emb` rows in one inferred numpy pass; it
    must give the per-element rule's block bit for bit, or its refusal."""

    def test_matches_the_per_element_rule(self, monkeypatch):
        first = json.dumps(frame_obj(0, 0, [det_obj(emb=(0.6, 0.8, 0.5, 0.5))]))
        rng = random.Random(7)  # blank lines before each frame move the line numbers
        texts = [
            "\n" * rng.randrange(3) + first + "\n" * rng.randint(1, 3) + case + "\n" for case in emb_case_lines()
        ]
        fast = [parse_outcome(text) for text in texts]
        monkeypatch.setattr(
            "headcount.ingest._embedding_block", lambda rows, from_json: emb_block_by_rule(rows)
        )
        kinds = set()
        for text, got in zip(texts, fast):
            assert got == parse_outcome(text), text
            kinds.add(got[1].split(": ", 1)[1][:20] if isinstance(got[0], type) else "accepted")
        # The cases reach every outcome: a block, a refused row, a ragged frame, a non-finite value.
        assert {"accepted", "emb must be a flat a", "emb lengths [3, 4] d", "embedding components"} <= kinds


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

    @pytest.mark.parametrize("noisy", [False, True], ids=["basis_rows", "noisy_rows"])
    @pytest.mark.parametrize("name", [n for n in catalog_names() if n != "dropout_<k>"] + ["dropout_3"])
    def test_parsed_columns_equal_the_generated_columns(self, name, noisy):
        # Basis rows hold exact 0s and 1s, so they take the per-element rule; noisy rows take the
        # inferred JSON pass. Either way the parsed columns are the generated ones, bit for bit.
        spec = make_scenario(name, 16)
        if noisy:
            spec = replace(spec, noise=NoiseSpec(embedding_noise_sigma=0.05, center_jitter_sigma=0.01))
        frames, _ = generate(spec)
        embedded = [frame.detections.embeddings[frame.detections.has_embedding] for frame in frames]
        assert any(np.isin(block, (0, 1)).any() for block in embedded) is not noisy
        buf = io.StringIO()
        write_stream(frames, buf)
        parsed = list(parse_stream(io.StringIO(buf.getvalue())))
        assert len(parsed) == len(frames)
        for got, want in zip(parsed, frames):
            a, b = got.detections, want.detections
            assert a.labels == b.labels
            for column in ("confidences", "boxes", "embeddings", "has_embedding"):
                x, y = getattr(a, column), getattr(b, column)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), column

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
