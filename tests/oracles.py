"""Independent reference implementations used only to check the library.

These are deliberately written in the most literal style possible (pure
Python lists, full rescans, no shared helpers) so they cannot inherit a bug
from the production code paths they verify.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from headcount.counter import is_number_row, quote
from headcount.ingest import EmbeddingDimensionError


def feature_distance(a, b):
    """Cosine distance between two embeddings, one component at a time.

    The distance is 1 - cos(a, b), clamped into [0, 2]. Raises ValueError on a
    dimension mismatch and on a vector whose squared norm is 0.0 (underflow
    included).
    """
    va = [float(x) for x in a]
    vb = [float(x) for x in b]
    if len(va) != len(vb):
        raise ValueError(f"embedding dimensions differ: {len(va)} vs {len(vb)}")
    norm_a = math.sqrt(sum(x * x for x in va))
    norm_b = math.sqrt(sum(y * y for y in vb))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine distance is undefined for a zero vector")
    dist = 1.0 - sum(x * y for x, y in zip(va, vb)) / (norm_a * norm_b)
    return min(2.0, max(0.0, dist))


def emb_block_by_rule(rows):
    """The per-element `emb` rule, one row at a time: every row must pass
    `is_number_row` (a list or tuple of values typed as numbers, so a bool,
    null, string or nested array is refused whatever its value), then the rows
    become one float block by `np.array(rows, dtype=float)`. Raises the
    parser's ValueError for a refused row and EmbeddingDimensionError for
    rows of different lengths, with the parser's messages. It calls the
    library's `is_number_row` on purpose: that is the rule the parser's
    inferred pass must equal, not the code under test.
    """
    for row in rows:
        if not is_number_row(row):
            raise ValueError(f"emb must be a flat array of numbers, got {quote.repr(row)}")
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        lengths = sorted(set(len(row) for row in rows))
        raise EmbeddingDimensionError(f"emb lengths {quote.repr(lengths)} differ within one frame") from None


def spatial_distance(p, q):
    """Euclidean distance between two box centers in normalized coordinates."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def greedy_gated_assignment(feature, spatial, feature_threshold, spatial_threshold):
    """Straight-line re-trace of the greedy gated matching loop.

    Arguments are plain nested lists. Each iteration rescans the whole
    feature matrix for its minimum (first hit wins on ties, scanning rows
    then columns), stops when no cell is strictly below the threshold or the
    match count hits min(rows, cols), burns rejected/consumed cells to the
    threshold, and applies the spatial gate with > as the rejection test.
    Returns (matches, unmatched_rows, unmatched_cols).
    """
    rows = len(feature)
    cols = len(feature[0]) if rows else 0
    work = [[feature[i][j] for j in range(cols)] for i in range(rows)]
    limit = min(rows, cols)
    assigned_rows = set()
    assigned_cols = set()
    matches = []
    count = 0
    while count < limit:
        best = None
        best_i = best_j = -1
        for i in range(rows):
            for j in range(cols):
                if best is None or work[i][j] < best:
                    best = work[i][j]
                    best_i, best_j = i, j
        if best is None or not (best < feature_threshold):
            break
        i, j = best_i, best_j
        if i in assigned_rows or j in assigned_cols or spatial[i][j] > spatial_threshold:
            work[i][j] = feature_threshold
            continue
        matches.append((i, j))
        assigned_rows.add(i)
        assigned_cols.add(j)
        work[i][j] = feature_threshold
        count += 1
    unmatched_rows = [i for i in range(rows) if i not in assigned_rows]
    unmatched_cols = [j for j in range(cols) if j not in assigned_cols]
    return matches, unmatched_rows, unmatched_cols


def anchor_pair_events(regions):
    """Brute-force crossing scan over a region string.

    Walks the sequence of region labels ("A"/"B"/"C"), keeping the last
    committed anchor (A or C). Reaching C with an A anchor emits an entry and
    re-anchors at C; reaching A with a C anchor emits an exit and re-anchors
    at A. B never changes the anchor. Returns [(kind, index), ...] with kind
    in {"entry", "exit"}.
    """
    events = []
    anchor = None
    for idx, label in enumerate(regions):
        if label == "B":
            continue
        if anchor is None:
            anchor = label
        elif anchor == "A" and label == "C":
            events.append(("entry", idx))
            anchor = "C"
        elif anchor == "C" and label == "A":
            events.append(("exit", idx))
            anchor = "A"
    return events


def miss_count_trace(frames, miss_limit):
    """Literal re-trace of track ageing by a consecutive-miss counter.

    `frames` is [(frame_id, present), ...] with increasing ids, for one person
    who, when present, gives the one detection of the frame and matches any
    live track. Each frame first ages the live track by one miss per frame id
    skipped since the previous frame and evicts it once its count exceeds
    miss_limit. Then a present person resets the count to 0, or registers a
    new track with count 0 if none is live; an absent one adds one miss, and
    the track is evicted once its count exceeds miss_limit. Returns
    [(created_ids, matched_ids, evicted_ids), ...], one entry per frame.
    """
    out = []
    track_id = None
    count = 0
    next_id = 1
    previous = None
    for frame_id, present in frames:
        created, matched, evicted = [], [], []
        if track_id is not None:
            skipped = frame_id - previous - 1
            for _ in range(skipped):
                count += 1
            if count > miss_limit:
                evicted.append(track_id)
                track_id = None
        if present:
            if track_id is None:
                track_id = next_id
                next_id += 1
                count = 0
                created.append(track_id)
            else:
                count = 0
                matched.append(track_id)
        elif track_id is not None:
            count += 1
        if track_id is not None and count > miss_limit:
            evicted.append(track_id)
            track_id = None
        previous = frame_id
        out.append((created, matched, evicted))
    return out


def ir_lighting_mode(image):
    """Literal re-trace of the IR day/night rule, one sampled pixel at a time.

    `image` is nested lists, rows of pixels of at least three channel values.
    Ten row indices and ten column indices are spread evenly from the first
    to the last, each rounded to the nearest index (no spacing ever lands on
    a half). A sampled pixel agrees when its first three channels differ by
    at most 2. Returns "night" when at least 99 of the 100 sampled pixels
    agree, else "day".
    """
    height = len(image)
    width = len(image[0])
    rows = [round(k * (height - 1) / 9) for k in range(10)]
    cols = [round(k * (width - 1) / 9) for k in range(10)]
    agreeing = 0
    for r in rows:
        for c in cols:
            red, green, blue = image[r][c][0], image[r][c][1], image[r][c][2]
            if max(red, green, blue) - min(red, green, blue) <= 2:
                agreeing += 1
    return "night" if agreeing >= 99 else "day"


def latency_percentiles(samples):
    """Literal re-trace of the latency report, one sorted group at a time.

    `samples` is a list of (track_count, elapsed_ns) pairs with integer ns.
    Per track count the ns samples are sorted and, for q = 50, 95 and 99, the
    sample at nearest rank ceil(q * n / 100) (counting from 1) is taken. Its
    bucket is built one bit at a time, leading bit first: the first 8 bits
    (the leading one and the 7 after it) are kept, and each later bit is 0 in
    the bucket's lowest value and 1 in its highest. Returns
    {track_count: (n, p50_us, p95_us, p99_us)}, each the bucket's midpoint in
    us, sorted by track count.
    """
    groups = {}
    for tracks, ns in samples:
        groups.setdefault(tracks, []).append(ns)
    out = {}
    for tracks in sorted(groups):
        ordered = sorted(groups[tracks])
        n = len(ordered)
        values = []
        for q in (50, 95, 99):
            sample = ordered[math.ceil(Fraction(q * n, 100)) - 1]
            bits = []
            while sample > 0:
                bits.insert(0, sample % 2)
                sample //= 2
            low = high = 0
            for position, bit in enumerate(bits):
                low = 2 * low + (bit if position < 8 else 0)
                high = 2 * high + (bit if position < 8 else 1)
            values.append((low + high) / 2 / 1000)
        out[tracks] = (n, *values)
    return out


def min_cost_assignment(feature, spatial, feature_threshold, spatial_threshold):
    """Exact minimum-cost gated assignment, by the Hungarian method on the augmented square.

    The (m + n) square holds the m x n feature matrix top left. A cell at or
    above the feature threshold, or one whose spatial distance is above the
    spatial threshold, cannot be chosen. Row i may instead take its own column
    n + i and column j its own row m + j, each at feature_threshold: that is
    the cost of leaving a track or a detection unmatched. The bottom-right
    n x m block is free, so the spare rows and columns pair up with each other.
    Returns (matches, cost): the chosen (row, column) cells in row order, and
    the total cost of the square's assignment.
    """
    feature = np.asarray(feature, dtype=float)
    spatial = np.asarray(spatial, dtype=float)
    m, n = feature.shape
    size = m + n
    square = np.full((size, size), np.inf)
    allowed = (feature < feature_threshold) & ~(spatial > spatial_threshold)
    square[:m, :n] = np.where(allowed, feature, np.inf)
    square[np.arange(m), n + np.arange(m)] = feature_threshold
    square[m + np.arange(n), np.arange(n)] = feature_threshold
    square[m:, n:] = 0.0
    cost = square.tolist()
    # potentials u (rows) and v (columns), 1-based with a sentinel column 0;
    # owner[j] is the row that holds column j. A forbidden cell stays inf: every
    # real row and column has a finite spare, so each step's delta is finite.
    u = [0.0] * (size + 1)
    v = [0.0] * (size + 1)
    owner = [0] * (size + 1)
    way = [0] * (size + 1)
    for row in range(1, size + 1):
        owner[0] = row
        column = 0
        reach = [math.inf] * (size + 1)
        used = [False] * (size + 1)
        while owner[column] != 0:
            used[column] = True
            i = owner[column]
            delta = math.inf
            nearest = 0
            for j in range(1, size + 1):
                if not used[j]:
                    reduced = cost[i - 1][j - 1] - u[i] - v[j]
                    if reduced < reach[j]:
                        reach[j] = reduced
                        way[j] = column
                    if reach[j] < delta:
                        delta = reach[j]
                        nearest = j
            for j in range(size + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    reach[j] -= delta
            column = nearest
        while column != 0:
            previous = way[column]
            owner[column] = owner[previous]
            column = previous
    chosen = sorted((owner[j] - 1, j - 1) for j in range(1, size + 1))
    matches = [(i, j) for i, j in chosen if i < m and j < n]
    return matches, sum(cost[i][j] for i, j in chosen)


def match_events(truth, events, window):
    """Pair each true crossing with a counted event, one true crossing at a time.

    `truth` is [(kind, actor_id, frame_id), ...] in ground-truth order and
    `events` the counted CrossingEvents. Each true crossing takes the nearest
    unused event of the same kind within +-window frames; of equally near
    ones, the first in `events`. Returns (pairs, missed, spurious): the
    (truth index, event index) pairs, the true crossings left unpaired, and
    the events left unpaired.
    """
    used = [False] * len(events)
    pairs = []
    missed = []
    for t, (kind, _, frame) in enumerate(truth):
        best = None
        for e, event in enumerate(events):
            if used[e] or event.kind != kind:
                continue
            gap = abs(event.frame_id - frame)
            if gap <= window and (best is None or gap < abs(events[best].frame_id - frame)):
                best = e
        if best is None:
            missed.append(truth[t])
        else:
            used[best] = True
            pairs.append((t, best))
    spurious = [event for e, event in enumerate(events) if not used[e]]
    return pairs, missed, spurious
