"""Acceptance suite: one test per release criterion, strictest tolerances.

Each test prints a single [PASS]/[FAIL] line (run with `pytest -s` or check
the captured output) in addition to the usual pytest verdict. Criteria cover
the counting arithmetic, oracle equivalence of the association and counting
state machines, end-to-end exactness on canned scenarios, noise and dropout
tolerance, latency budgets, lighting classification, and determinism.
"""
import io
import itertools
import json
import math
import time

import numpy as np

import headcount as hc

from oracles import anchor_pair_events, greedy_gated_assignment

DIM = 1024


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number:2d}: {description}{suffix}")


def render_stream(frames):
    buf = io.StringIO()
    hc.write_stream(frames, buf)
    return buf.getvalue()


def test_criterion_01_accuracy_arithmetic():
    t0 = time.perf_counter()
    values = {
        (29, 3): 89.66,
        (21, 1): 95.24,
        (50, 4): 92.00,
    }
    results = {args: hc.accuracy(*args).accuracy_percent for args in values}
    elapsed = time.perf_counter() - t0
    ok = results == values and elapsed < 1.0
    report(1, "accuracy arithmetic reproduces reference table to 2 decimals", ok,
           f"{results}, {elapsed*1e3:.1f} ms")
    assert results == values
    assert elapsed < 1.0


def test_criterion_02_association_oracle_equivalence():
    rng = np.random.default_rng(20260809)
    t0 = time.perf_counter()
    cases = 0
    mismatches = 0
    while cases < 1000:
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        feature = rng.uniform(0.0, 1.0, (m, n))
        if np.unique(feature).size != feature.size:  # tie-free instances only
            continue
        spatial = rng.uniform(0.0, 0.5, (m, n))
        t = float(rng.uniform(0.15, 0.9))
        d = float(rng.uniform(0.05, 0.45))
        expected = greedy_gated_assignment(feature.tolist(), spatial.tolist(), t, d)
        config = hc.TrackerConfig(feature_threshold=t, spatial_threshold=d)
        got = hc.associate(hc.DistanceMatrices(feature.copy(), spatial), config)
        if (got.matches, got.unmatched_registered, got.unmatched_detections) != expected:
            mismatches += 1
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(2, "greedy association matches literal re-trace on 1000 seeded instances", ok,
           f"{mismatches} mismatches, {elapsed:.2f} s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_03_counting_oracle_equivalence():
    mismatches = 0
    total = 0
    for length in range(1, 7):
        for labels in itertools.product("ABC", repeat=length):
            track = hc.TrackedObject(id=1, unit=np.ones(2) / np.sqrt(2.0), center=(0.45, 0.45))
            got = []
            for idx, label in enumerate(labels):
                event = hc.update_history(track, hc.Region(label), frame_id=idx)
                if event is not None:
                    got.append((event.kind.value, event.frame_id))
            if got != anchor_pair_events(labels):
                mismatches += 1
            total += 1
    ok = mismatches == 0 and total == 3 + 9 + 27 + 81 + 243 + 729
    report(3, "anchor events match brute-force anchor scan on all strings <= 6", ok,
           f"{total} strings, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_04_oscillation_robustness():
    frames, truth = hc.generate(hc.make_scenario("oscillation", DIM))
    result = hc.run(io.StringIO(render_stream(frames)))
    ok = (
        len(frames) == 200
        and truth.events == ()
        and result.ledger.events == []
        and (result.ledger.ins, result.ledger.outs) == (0, 0)
    )
    report(4, "200-frame buffer oscillation produces exactly 0 events", ok,
           f"events={len(result.ledger.events)}")
    assert ok


def test_criterion_05_noiseless_end_to_end_exactness():
    names = ["clean_entry", "clean_exit", "crossing_pair", "multi_3", "distraction_field"]
    outcomes = {}
    for name in names:
        frames, truth = hc.generate(hc.make_scenario(name, DIM))
        result = hc.run(io.StringIO(render_stream(frames)))
        report_ = hc.evaluate(result.ledger, truth)
        outcomes[name] = (report_.error, report_.accuracy_percent)
    ok = all(err == 0 and pct == 100.00 for err, pct in outcomes.values())
    report(5, "noiseless scenarios reproduce ground truth exactly", ok, f"{outcomes}")
    assert all(err == 0 for err, _ in outcomes.values())
    assert all(pct == 100.00 for _, pct in outcomes.values())


def test_criterion_06_dropout_tolerance():
    miss_limit = hc.TrackerConfig().miss_limit
    counts = {}
    for k in range(1, miss_limit + 1):
        frames, _ = hc.generate(hc.make_scenario(f"dropout_{k}", DIM))
        result = hc.run(io.StringIO(render_stream(frames)))
        counts[k] = (result.ledger.ins, result.ledger.outs)
    ok = all(counts[k] == (1, 0) for k in counts)
    report(6, f"gaps up to the miss limit ({miss_limit}) still count one entry", ok, f"{counts}")
    assert ok


def test_criterion_07_noisy_accuracy_surrogate():
    base = hc.TrackerConfig()
    # Embedding noise sized so the expected same-identity cosine distance sits
    # at half the feature threshold; miss rate and jitter per the bar below.
    sigma = math.sqrt(0.5 * base.feature_threshold / DIM)
    noise = hc.NoiseSpec(
        miss_probability=0.1, embedding_noise_sigma=sigma, center_jitter_sigma=0.02
    )
    total = 0
    error = 0
    for seed in range(50):
        spec = hc.random_crossings(seed, actors=4, noise=noise, embedding_dim=DIM)
        frames, truth = hc.generate(spec)
        result = hc.run_frames(frames)
        total += truth.final_ins + truth.final_outs
        error += abs(result.ledger.ins - truth.final_ins) + abs(
            result.ledger.outs - truth.final_outs
        )
    achieved = hc.accuracy(total, error).accuracy_percent
    ok = total >= 200 and achieved >= 97.0
    report(7, "accuracy over randomized noisy crossings stays at/above 97%", ok,
           f"events={total}, error={error}, accuracy={achieved:.2f}%")
    assert total >= 200
    assert achieved >= 97.0


def test_criterion_08_latency_budget():
    groups = hc.bench([hc.make_scenario("multi_3", DIM)], repetitions=40)
    ok_groups = {0, 1, 2, 3} <= set(groups)
    p50 = {count: groups[count].p50_us for count in sorted(groups)}
    p95 = {count: groups[count].p95_us for count in sorted(groups)}
    # The tail carries scheduler noise; the budget is held at p95 while the
    # growth-with-occupancy claim is checked on the stable median.
    monotone = all(p50[c] < p50[c + 1] for c in range(3))
    budget = groups[3].p95_us < 2000.0  # < 5% of a 50 ms frame at 20 FPS
    ok = ok_groups and monotone and budget
    detail = ", ".join(f"{c}: p50 {p50[c]:.0f}/p95 {p95[c]:.0f} us" for c in sorted(p50))
    report(8, "3-track step p95 under 2 ms, latency grows with track count", ok, detail)
    assert ok_groups
    assert monotone, p50
    assert budget, p95


def test_criterion_09_lighting_classification():
    rng = np.random.default_rng(1234)
    shape = (48, 64)
    night_grids = []
    for i in range(100):
        gray = rng.integers(0, 256, shape, dtype=np.int64)
        img = np.stack([gray, gray, gray], axis=-1)
        if i >= 60 and i < 80:
            # per-pixel wiggle up to the exact tolerance boundary
            img = img + rng.integers(0, 3, img.shape)
        elif i >= 80:
            # one corrupted pixel: 99/100 samples still agree
            img[0, 0] = (0, 120, 240)
        night_grids.append(np.clip(img, 0, 255))
    day_grids = []
    for i in range(100):
        if i < 60:
            img = rng.integers(0, 256, (*shape, 3), dtype=np.int64)
        elif i < 80:
            # two corrupted sample points: 98/100 < 99% agreement
            gray = rng.integers(0, 256, shape, dtype=np.int64)
            img = np.stack([gray, gray, gray], axis=-1)
            img[0, 0] = (200, 40, 40)
            img[-1, -1] = (40, 200, 40)
        else:
            # uniform spread of exactly tolerance + 1 on every pixel
            base = rng.integers(0, 250, shape, dtype=np.int64)
            img = np.stack([base, base + 3, base], axis=-1)
        day_grids.append(np.clip(img, 0, 255))
    wrong = 0
    for img in night_grids:
        if hc.classify_lighting(img) is not hc.LightingMode.NIGHT:
            wrong += 1
    for img in day_grids:
        if hc.classify_lighting(img) is not hc.LightingMode.DAY:
            wrong += 1
    ok = wrong == 0
    report(9, "day/night rule classifies 200 generated grids perfectly", ok,
           f"{wrong} misclassified")
    assert wrong == 0


def test_criterion_10_determinism():
    noise = hc.NoiseSpec(miss_probability=0.1, embedding_noise_sigma=0.005, center_jitter_sigma=0.01)
    spec = hc.random_crossings(99, actors=3, noise=noise, embedding_dim=DIM)
    text = render_stream(hc.generate(spec)[0])
    payloads = []
    for _ in range(2):
        result = hc.run(io.StringIO(text))
        events = io.StringIO()
        hc.write_events(result.ledger.events, events)
        payloads.append(
            events.getvalue().encode() + json.dumps(result.ledger.snapshot()).encode()
        )
    ok = payloads[0] == payloads[1]
    report(10, "repeat runs produce byte-identical event logs and ledgers", ok,
           f"{len(payloads[0])} bytes compared")
    assert ok
