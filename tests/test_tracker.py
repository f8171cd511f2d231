import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headcount.ingest import DetectionClass, Detections
from headcount.tracker import (
    DistanceMatrices,
    TrackedObject,
    Tracker,
    TrackerConfig,
    associate,
    build_matrices,
)

from oracles import feature_distance, greedy_gated_assignment, miss_count_trace, spatial_distance


def detection(x=0.5, y=0.5, emb=(1.0, 0.0), conf=0.95, size=0.08):
    half = size / 2
    box = (x - half, y - half, x + half, y + half)
    return (DetectionClass.HEAD, conf, box, np.asarray(emb, dtype=float))


def center_of(det):
    return tuple(Detections.from_rows([det]).centers[0].tolist())


def step(tracker, dets, frame_id):
    frame = Detections.from_rows(dets)
    return tracker.step(frame.embeddings, frame.centers, frame_id)


def track(tid=1, x=0.5, y=0.5, emb=(1.0, 0.0)):
    emb = np.asarray(emb, dtype=float)
    return TrackedObject(id=tid, unit=emb / np.linalg.norm(emb), center=center_of(detection(x, y)))


def matrices_for(tracks, dets):
    frame = Detections.from_rows(dets)
    units = frame.embeddings / np.linalg.norm(frame.embeddings, axis=1, keepdims=True)
    return build_matrices(tracks, units, frame.centers)


class TestFeatureDistance:
    def test_identical_vectors_cosine(self):
        v = np.array([0.3, -1.2, 4.0])
        assert feature_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors_cosine(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert feature_distance(a, b) == pytest.approx(1.0)

    def test_opposite_vectors_cosine_is_two(self):
        a = np.array([1.0, 0.0])
        assert feature_distance(a, -a) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            feature_distance(np.ones(3), np.ones(4))

    def test_zero_vector_cosine(self):
        with pytest.raises(ValueError):
            feature_distance(np.zeros(3), np.ones(3))

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
    )
    def test_symmetric_and_bounded(self, a, b):
        va, vb = np.asarray(a), np.asarray(b)
        # norms can underflow to exactly 0.0 for denormal components, which
        # cosine distance treats as a zero vector and rejects
        if np.linalg.norm(va) == 0.0 or np.linalg.norm(vb) == 0.0:
            return
        d_ab = feature_distance(va, vb)
        d_ba = feature_distance(vb, va)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert 0.0 <= d_ab <= 2.0


class TestSpatialDistance:
    def test_coincident(self):
        assert spatial_distance((0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_corner_to_corner(self):
        assert spatial_distance((0.0, 0.0), (1.0, 1.0)) == pytest.approx(math.sqrt(2))

    def test_three_four_five(self):
        assert spatial_distance((0.2, 0.5), (0.5, 0.1)) == pytest.approx(0.5)


class TestBuildMatrices:
    def test_empty_side_shapes(self):
        mats = matrices_for([], [detection()])
        assert mats.feature.shape == (0, 1)
        assert mats.spatial.shape == (0, 1)
        mats = matrices_for([track()], [])
        assert mats.feature.shape == (1, 0)

    def test_identical_embedding_zero_distance(self):
        mats = matrices_for([track(emb=(1.0, 2.0))], [detection(emb=(1.0, 2.0))])
        assert mats.feature[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_pair_recomputation(self):
        rng = np.random.default_rng(7)
        tracks = [track(tid=i, x=rng.uniform(0.2, 0.8), y=rng.uniform(0.2, 0.8), emb=rng.normal(size=6)) for i in range(3)]
        dets = [detection(x=rng.uniform(0.2, 0.8), y=rng.uniform(0.2, 0.8), emb=rng.normal(size=6)) for _ in range(4)]
        mats = matrices_for(tracks, dets)
        for i, t in enumerate(tracks):
            for j, d in enumerate(dets):
                assert mats.feature[i, j] == pytest.approx(
                    feature_distance(t.unit, d[3]), abs=1e-9
                )
                assert mats.spatial[i, j] == pytest.approx(
                    spatial_distance(t.center, center_of(d)), abs=1e-12
                )

    def test_dimension_mismatch_propagates(self):
        with pytest.raises(ValueError):
            matrices_for([track(emb=(1.0, 0.0))], [detection(emb=(1.0, 0.0, 0.0))])

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 7), (7, 1), (3, 4), (17, 13), (25, 23)])
    def test_bit_equal_to_the_stacked_formulas(self, m, n):
        # The stacked unit rows and the (m, n, 2) delta with einsum, as the
        # matrices were built before the x and y columns were split.
        rng = np.random.default_rng(1000 * m + n)
        for _ in range(20):
            tracks = [track(tid=i, x=rng.uniform(0.05, 0.95), y=rng.uniform(0.05, 0.95),
                            emb=rng.normal(size=16)) for i in range(m)]
            units = rng.normal(size=(n, 16))
            units /= np.linalg.norm(units, axis=1, keepdims=True)
            centers = rng.uniform(0.0, 1.0, size=(n, 2))
            feature = np.clip(1.0 - np.stack([t.unit for t in tracks]) @ units.T, 0.0, 2.0)
            delta = np.array([t.center for t in tracks])[:, None, :] - centers[None, :, :]
            spatial = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
            built = build_matrices(tracks, units, centers)
            assert built.feature.tobytes() == feature.tobytes()
            assert built.spatial.tobytes() == spatial.tobytes()


def mats(feature, spatial=None):
    f = np.asarray(feature, dtype=float)
    s = np.zeros_like(f) if spatial is None else np.asarray(spatial, dtype=float)
    return DistanceMatrices(f, s)


def config(t=0.5, d=0.1, e=5):
    return TrackerConfig(feature_threshold=t, spatial_threshold=d, miss_limit=e)


class TestAssociate:
    def test_diagonal_preference(self):
        result = associate(mats([[0.1, 0.9], [0.8, 0.2]]), config(t=0.5, d=0.1))
        assert set(result.matches) == {(0, 0), (1, 1)}
        assert result.unmatched_registered == []
        assert result.unmatched_detections == []

    def test_spatial_gate_rejects_sole_pair(self):
        result = associate(mats([[0.1]], [[0.2]]), config(t=0.5, d=0.1))
        assert result.matches == []
        assert result.unmatched_registered == [0]
        assert result.unmatched_detections == [0]

    def test_greedy_beats_nothing_but_is_greedy(self):
        # Greedy picks 0.1 first, forcing (1,0)=0.2; total 0.3 beats the
        # 0.3+0.15 alternative here, but the point is the trace order.
        result = associate(mats([[0.3, 0.1], [0.2, 0.15]]), config(t=0.5, d=1.0))
        assert set(result.matches) == {(0, 1), (1, 0)}

    def test_refuses_matrices_of_different_shapes(self):
        # Broadcastable shapes must be refused, not matched as if they agreed.
        pair = DistanceMatrices(np.zeros((2, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"feature shape \(2, 3\) and spatial shape \(1, 3\) differ"):
            associate(pair, config())

    def test_empty_matrices(self):
        result = associate(mats(np.zeros((0, 0))), config())
        assert result.matches == []
        result = associate(mats(np.zeros((0, 2))), config())
        assert result.unmatched_detections == [0, 1]
        result = associate(mats(np.zeros((3, 0))), config())
        assert result.unmatched_registered == [0, 1, 2]

    def test_threshold_is_strict(self):
        result = associate(mats([[0.5]]), config(t=0.5, d=1.0))
        assert result.matches == []

    def test_tie_break_lowest_row_then_column(self):
        result = associate(mats([[0.1, 0.1], [0.1, 0.1]]), config(t=0.5, d=1.0))
        assert result.matches == [(0, 0), (1, 1)]

    def test_determinism_on_repeat(self):
        feature = np.array([[0.2, 0.2, 0.4], [0.2, 0.3, 0.2]])
        first = associate(mats(feature.copy()), config(t=0.5, d=1.0))
        second = associate(mats(feature.copy()), config(t=0.5, d=1.0))
        assert first.matches == second.matches

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_invariants_on_random_instances(self, m, n, seed):
        rng = np.random.default_rng(seed)
        feature = rng.uniform(0.0, 1.0, (m, n))
        spatial = rng.uniform(0.0, 0.5, (m, n))
        t = float(rng.uniform(0.15, 0.9))
        d = float(rng.uniform(0.05, 0.45))
        original = feature.copy()
        result = associate(mats(feature, spatial), config(t=t, d=d))
        assert len(result.matches) <= min(m, n)
        rows = [i for i, _ in result.matches]
        cols = [j for _, j in result.matches]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        for i, j in result.matches:
            assert original[i, j] < t
            assert spatial[i, j] <= d
        assert sorted(rows + result.unmatched_registered) == list(range(m))
        assert sorted(cols + result.unmatched_detections) == list(range(n))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1), st.sampled_from([0.25, 3.0, 1e3]))
    def test_scale_invariance(self, m, n, seed, scale):
        rng = np.random.default_rng(seed)
        feature = rng.uniform(0.0, 1.0, (m, n))
        spatial = rng.uniform(0.0, 0.5, (m, n))
        t, d = 0.6, 0.3
        base = associate(mats(feature.copy(), spatial), config(t=t, d=d))
        scaled = associate(mats(feature * scale, spatial), config(t=t * scale, d=d))
        assert base.matches == scaled.matches

    def test_matches_literal_retrace_on_seeded_instances(self):
        rng = np.random.default_rng(424242)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            feature = rng.uniform(0.0, 1.0, (m, n))
            while np.unique(feature).size != feature.size:  # keep instances tie-free
                feature = rng.uniform(0.0, 1.0, (m, n))
            spatial = rng.uniform(0.0, 0.5, (m, n))
            t = float(rng.uniform(0.15, 0.9))
            d = float(rng.uniform(0.05, 0.45))
            expected, exp_rows, exp_cols = greedy_gated_assignment(
                feature.tolist(), spatial.tolist(), t, d
            )
            got = associate(mats(feature.copy(), spatial), config(t=t, d=d))
            assert got.matches == expected
            assert got.unmatched_registered == exp_rows
            assert got.unmatched_detections == exp_cols

    def test_matches_literal_retrace_on_dense_tied_instances(self):
        # Crowd-sized, square and rectangular (births and evictions), values on
        # a 0.05 grid so ties are common, most cells below the threshold and
        # about half of them gate-rejected.
        rng = np.random.default_rng(20261018)
        sizes = [(24, 24), (24, 17), (13, 24), (8, 8), (1, 24), (24, 1)]
        sizes += [tuple(int(x) for x in rng.integers(1, 25, 2)) for _ in range(24)]
        for m, n in sizes:
            feature = np.round(rng.uniform(0.0, 1.0, (m, n)) / 0.05) * 0.05
            spatial = np.round(rng.uniform(0.0, 0.5, (m, n)) / 0.05) * 0.05
            t, d = 0.8, 0.25
            expected, exp_rows, exp_cols = greedy_gated_assignment(
                feature.tolist(), spatial.tolist(), t, d
            )
            got = associate(mats(feature, spatial), config(t=t, d=d))
            assert got.matches == expected, (m, n)
            assert got.unmatched_registered == exp_rows, (m, n)
            assert got.unmatched_detections == exp_cols, (m, n)

    @pytest.mark.parametrize(
        "feature, spatial",
        [
            # skipped cells: taken rows/columns, a gate veto, a cell at the threshold
            ([[0.1, 0.2, 0.5], [0.2, 0.1, 0.3]], [[0.0, 0.0, 0.0], [0.0, 0.9, 0.0]]),
            # a full match
            ([[0.1, 0.4], [0.3, 0.2]], [[0.0, 0.0], [0.0, 0.0]]),
        ],
    )
    def test_leaves_matrices_unchanged(self, feature, spatial):
        matrices = mats(feature, spatial)
        feature_before = matrices.feature.copy()
        spatial_before = matrices.spatial.copy()
        associate(matrices, config(t=0.5, d=0.5))
        assert matrices.feature.tobytes() == feature_before.tobytes()
        assert matrices.spatial.tobytes() == spatial_before.tobytes()


class TestTrackerStep:
    def test_cold_start_registers_all(self):
        tracker = Tracker(config())
        report = step(tracker, [detection(x=0.3), detection(x=0.7, emb=(0.0, 1.0))], 0)
        assert report.created_ids == [1, 2]
        assert report.evicted_ids == []
        assert len(tracker.objects) == 2

    def test_eviction_after_miss_limit_exceeded(self):
        tracker = Tracker(config(e=3))
        step(tracker, [detection()], 0)
        reports = [step(tracker, [], f) for f in range(1, 5)]
        assert [r.evicted_ids for r in reports[:3]] == [[], [], []]
        assert reports[3].evicted_ids == [1]
        assert tracker.objects == []

    def test_miss_limit_zero_evicts_immediately(self):
        tracker = Tracker(config(e=0))
        step(tracker, [detection()], 0)
        report = step(tracker, [], 1)
        assert report.evicted_ids == [1]

    def test_perfect_redetection_keeps_id_resets_misses(self):
        tracker = Tracker(config())
        step(tracker, [detection()], 0)
        step(tracker, [], 1)
        assert tracker.objects[0].last_seen == 0  # one miss at frame 1
        report = step(tracker, [detection()], 2)
        assert report.matched_ids == [1]
        assert report.created_ids == []
        assert tracker.objects[0].last_seen == 2  # no misses at frame 2

    def test_match_adopts_detection_state(self):
        tracker = Tracker(config(d=0.5))
        step(tracker, [detection(x=0.4, y=0.4, emb=(1.0, 0.1))], 0)
        new = detection(x=0.45, y=0.5, emb=(1.0, 0.2))
        step(tracker, [new], 1)
        obj = tracker.objects[0]
        assert obj.center == center_of(new)
        emb = np.asarray([1.0, 0.2])
        assert obj.unit.tobytes() == (emb / np.linalg.norm(emb)).tobytes()

    def test_birth_adopts_unit_row(self):
        tracker = Tracker(config())
        embs = [np.asarray([3.0, -4.0, 0.5]), np.asarray([0.1, 0.2, 7.0])]
        step(tracker, [detection(x=0.3, emb=embs[0]), detection(x=0.7, emb=embs[1])], 0)
        for obj, emb in zip(tracker.objects, embs):
            assert obj.unit.tobytes() == (emb / np.linalg.norm(emb)).tobytes()

    def test_id_permanence_and_growth(self):
        tracker = Tracker(config(e=1))
        step(tracker, [detection()], 0)
        step(tracker, [], 1)
        step(tracker, [], 2)  # evicted here
        assert tracker.objects == []
        report = step(tracker, [detection()], 3)
        assert report.created_ids == [2]

    def test_frame_gap_ages_tracks_before_association(self):
        # One person seen at frames 0, 1, 2 and 300: the gap outlasts the miss
        # limit, so frame 300 starts a new identity, as empty frames would.
        tracker = Tracker(config(e=5))
        for frame in (0, 1, 2):
            step(tracker, [detection()], frame)
        report = step(tracker, [detection()], 300)
        assert (report.evicted_ids, report.matched_ids, report.created_ids) == ([1], [], [2])
        step(tracker, [], 304)  # three skipped ids plus this empty frame
        assert 304 - tracker.objects[0].last_seen == 4

    def test_no_track_exceeds_miss_limit_after_step(self):
        rng = np.random.default_rng(11)
        tracker = Tracker(config(t=0.4, d=0.3, e=2))
        for frame in range(40):
            dets = [
                detection(
                    x=float(rng.uniform(0.1, 0.9)),
                    y=float(rng.uniform(0.1, 0.9)),
                    emb=rng.normal(size=4),
                )
                for _ in range(int(rng.integers(0, 4)))
            ]
            step(tracker, dets, frame)
            assert all(frame - t.last_seen <= 2 for t in tracker.objects)

    def test_far_detection_spawns_new_track(self):
        tracker = Tracker(config(t=0.5, d=0.1))
        step(tracker, [detection(x=0.2, y=0.2)], 0)
        report = step(tracker, [detection(x=0.8, y=0.8)], 1)  # same look, too far
        assert report.created_ids == [2]
        assert report.matched_ids == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 6),
        st.integers(-3, 3),
        st.lists(st.tuples(st.integers(1, 9), st.booleans()), max_size=40),
    )
    def test_lifetime_matches_the_miss_count_oracle(self, miss_limit, start, steps):
        # One person at one spot, seen or missed at increasing ids with gaps:
        # each step's births, matches and evictions follow a literal
        # per-track miss counter, aged by every skipped id.
        frames, frame_id = [], start
        for gap, present in steps:
            frames.append((frame_id, present))
            frame_id += gap
        tracker = Tracker(config(e=miss_limit))
        reports = [step(tracker, [detection()] if present else [], f) for f, present in frames]
        got = [(r.created_ids, r.matched_ids, r.evicted_ids) for r in reports]
        assert got == miss_count_trace(frames, miss_limit)
