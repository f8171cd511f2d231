"""Two audits against exact oracles in `oracles.py`; `src/` carries neither.

`min_cost_assignment` is the optimal gated assignment that the greedy
`associate` trades away for speed: it is checked by brute force, and then the
tracker is run with it in place of `associate` to pin what greedy costs.
`match_events` pairs each true crossing with a counted event, so a missed
entry and a spurious one no longer cancel as they do in the net tally.
"""
import itertools
import math

import numpy as np
import pytest

import headcount as hc
from headcount.counter import CrossingEvent, EventKind
from headcount.tracker import AssignmentResult, DistanceMatrices, TrackerConfig, associate

from oracles import match_events, min_cost_assignment

CATALOG = ["clean_entry", "clean_exit", "oscillation", "crossing_pair", "distraction_field", "multi_3"]
DROPOUTS = [f"dropout_{k}" for k in range(1, 7)]
DIM = 16


def brute_force_assignment(feature, spatial, t, d):
    """The cheapest (cost, matches) over every partial matching of allowed cells,
    each unmatched row and column costing t."""
    m, n = feature.shape
    best = None
    for columns in itertools.product([None, *range(n)], repeat=m):
        matches = [(i, j) for i, j in enumerate(columns) if j is not None]
        if len({j for _, j in matches}) < len(matches):
            continue
        if any(not (feature[i, j] < t and spatial[i, j] <= d) for i, j in matches):
            continue
        cost = sum(feature[i, j] for i, j in matches) + t * (m + n - 2 * len(matches))
        if best is None or cost < best[0]:
            best = (cost, matches)
    return best


def instances(seed, count):
    """Seeded (feature, spatial, t, d) instances up to 5 x 5 with no two feature values equal."""
    rng = np.random.default_rng(seed)
    while count:
        m, n = (int(k) for k in rng.integers(0, 6, 2))
        feature = rng.uniform(0.0, 1.0, (m, n))
        spatial = rng.uniform(0.0, 0.5, (m, n))
        t, d = float(rng.uniform(0.15, 0.9)), float(rng.uniform(0.05, 0.45))
        if np.unique(feature).size == feature.size:
            count -= 1
            yield feature, spatial, t, d


def optimal_associate(matrices, config):
    """`associate`'s contract, answered by the exact oracle."""
    matches, _ = min_cost_assignment(
        matrices.feature, matrices.spatial, config.feature_threshold, config.spatial_threshold
    )
    columns = {j for _, j in matches}
    return AssignmentResult(matches, [j for j in range(matrices.feature.shape[1]) if j not in columns])


@pytest.fixture(scope="module")
def soak():
    """Criterion 7's 50 noisy seeded scenarios at 1024-d, as (frames, truth, greedy's events)."""
    dim = 1024
    sigma = math.sqrt(0.5 * TrackerConfig().feature_threshold / dim)
    noise = hc.NoiseSpec(miss_probability=0.1, embedding_noise_sigma=sigma, center_jitter_sigma=0.02)
    runs = []
    for seed in range(50):
        frames, truth = hc.generate(hc.random_crossings(seed, actors=4, noise=noise, embedding_dim=dim))
        runs.append((frames, truth, list(hc.run_frames(frames).events)))
    return runs


class TestMinCostAssignment:
    def test_equals_brute_force_on_tie_free_instances(self):
        shapes = set()
        for feature, spatial, t, d in instances(10, 400):
            shapes.add(feature.shape)
            cost, matches = brute_force_assignment(feature, spatial, t, d)
            got_matches, got_cost = min_cost_assignment(feature, spatial, t, d)
            assert got_matches == matches, (feature, spatial, t, d)
            assert math.isclose(got_cost, cost, rel_tol=1e-12, abs_tol=1e-12)
        assert shapes == set(itertools.product(range(6), repeat=2))

    def test_greedy_is_optimal_where_no_candidates_conflict(self):
        # k candidate cells on distinct rows and columns; every other cell is at or
        # above t, or below t and beyond the gate
        rng = np.random.default_rng(11)
        sizes = []
        for _ in range(500):
            m, n = (int(k) for k in rng.integers(1, 6, 2))
            t, d = float(rng.uniform(0.15, 0.9)), float(rng.uniform(0.05, 0.45))
            feature, spatial = rng.uniform(t, 2.0, (m, n)), rng.uniform(0.0, 0.5, (m, n))
            decoys = rng.random((m, n)) < 0.3
            feature[decoys] = rng.uniform(0.0, t, decoys.sum())
            spatial[decoys] = d + rng.uniform(0.01, 0.5, decoys.sum())
            k = int(rng.integers(0, min(m, n) + 1))
            rows, columns = rng.permutation(m)[:k], rng.permutation(n)[:k]
            feature[rows, columns] = rng.uniform(0.0, t, k)
            spatial[rows, columns] = rng.uniform(0.0, d, k)
            got = associate(DistanceMatrices(feature, spatial), TrackerConfig(t, d)).matches
            assert sorted(got) == min_cost_assignment(feature, spatial, t, d)[0] == sorted(zip(rows, columns))
            sizes.append(k)
        assert set(sizes) == set(range(6))

    def test_a_pinned_instance_where_greedy_is_not_optimal(self):
        feature, spatial = np.array([[0.1, 0.2], [0.15, 0.9]]), np.zeros((2, 2))
        greedy = associate(DistanceMatrices(feature, spatial), TrackerConfig(feature_threshold=0.5))
        matches, cost = min_cost_assignment(feature, spatial, 0.5, 0.25)
        assert greedy.matches == [(0, 0)]  # 0.1, then a track and a detection left over: 0.1 + 2 * 0.5
        assert (matches, cost) == ([(0, 1), (1, 0)], pytest.approx(0.35))

    def test_a_cell_at_the_threshold_or_past_the_gate_is_never_chosen(self):
        feature = np.array([[0.5, 0.2, 0.3]])
        spatial = np.array([[0.0, 0.25 + 1e-9, 0.25]])
        assert min_cost_assignment(feature, spatial, 0.5, 0.25) == ([(0, 2)], pytest.approx(1.3))
        assert min_cost_assignment(feature[:, :2], spatial[:, :2], 0.5, 0.25) == ([], 1.5)

    @pytest.mark.parametrize("name", CATALOG + DROPOUTS)
    def test_catalog_event_log_equals_greedys(self, name, monkeypatch):
        frames, _ = hc.generate(hc.make_scenario(name, DIM))
        greedy = list(hc.run_frames(frames).events)
        monkeypatch.setattr(hc.tracker, "associate", optimal_associate)
        assert list(hc.run_frames(frames).events) == greedy

    def test_noisy_soak_event_logs_equal_greedys(self, soak, monkeypatch):
        monkeypatch.setattr(hc.tracker, "associate", optimal_associate)
        differ = [seed for seed, (frames, _, greedy) in enumerate(soak)
                  if list(hc.run_frames(frames).events) != greedy]
        assert differ == []


class TestMatchEvents:
    def test_nearest_unused_event_of_the_same_kind_within_the_window(self):
        def event(kind, frame_id):
            return CrossingEvent(kind, 1, frame_id, 0)

        truth = [(EventKind.ENTRY, 1, 10), (EventKind.ENTRY, 2, 10), (EventKind.EXIT, 3, 20)]
        events = [event(EventKind.ENTRY, 12), event(EventKind.EXIT, 10), event(EventKind.ENTRY, 8)]
        assert match_events(truth, events, 1) == ([], truth, events)
        # equally near: the first in the log wins; the next crossing takes the other
        assert match_events(truth, events, 2) == ([(0, 0), (1, 2)], [truth[2]], [events[1]])
        assert match_events(truth, events, 10) == ([(0, 0), (1, 2), (2, 1)], [], [])

    @pytest.mark.parametrize("name", CATALOG + DROPOUTS[:5])
    def test_catalog_matches_exactly_at_window_0(self, name):
        frames, truth = hc.generate(hc.make_scenario(name, DIM))
        events = list(hc.run_frames(frames).events)
        pairs, missed, spurious = match_events(truth.events, events, 0)
        assert (len(pairs), missed, spurious) == (len(truth.events), [], [])

    def test_dropout_past_the_miss_limit_misses_its_one_entry(self):
        name = f"dropout_{TrackerConfig().miss_limit + 1}"
        frames, truth = hc.generate(hc.make_scenario(name, DIM))
        events = list(hc.run_frames(frames).events)
        assert [kind for kind, _, _ in truth.events] == [EventKind.ENTRY]
        assert match_events(truth.events, events, 10) == ([], list(truth.events), [])

    def test_noisy_soak_missed_and_spurious_by_window(self, soak):
        assert sum(len(truth.events) for _, truth, _ in soak) == 200
        counts = {}
        for window in (0, 2, 10):
            tallies = [match_events(truth.events, events, window) for _, truth, events in soak]
            counts[window] = tuple(sum(len(t[k]) for t in tallies) for k in (1, 2))
        assert counts == {0: (139, 139), 2: (9, 9), 10: (0, 0)}
