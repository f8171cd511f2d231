"""Workload generators for the end-to-end benchmark.

Each workload is a simulated detection stream built from the public simulator
API only (`ActorSpec`, `ScenarioSpec`, `NoiseSpec`, `random_crossings`,
`generate`, `write_stream`). The workload seed fixes every random draw, so one
seed always gives the same stream bytes and the same ground truth.

Run as a script, this module writes one workload's stream (JSON lines), its
ground truth and its generation timings into an output directory. The
benchmark runs it in a child process, so the memory that generation needs
never shows in the replay process's peak RSS:

    python3 perfbench/workloads.py --workload doorway --seed 1 --out .bench_out/x
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from checkout import import_headcount

hc = import_headcount()

WORKLOADS = ("doorway", "crowd", "churn")


def doorway(seed: int) -> "hc.ScenarioSpec":
    """One doorway at 1024-d: 22 staggered crossings over about 1,000 frames.

    Detector noise follows acceptance criterion 7: 10% misses, embedding noise
    sized to half the feature threshold, 0.02 centre jitter. Two static
    distractions (a chair and a trolley) sit in every frame.
    """
    dim = 1024
    threshold = hc.TrackerConfig().feature_threshold
    noise = hc.NoiseSpec(
        miss_probability=0.1,
        embedding_noise_sigma=math.sqrt(0.5 * threshold / dim),
        center_jitter_sigma=0.02,
    )
    spec = hc.random_crossings(seed, actors=22, noise=noise, embedding_dim=dim)
    distractions = [
        hc.DistractionSpec(hc.DetectionClass.CHAIR, 0.12, 0.30),
        hc.DistractionSpec(hc.DetectionClass.TROLLEY, 0.88, 0.55, confidence=0.91),
    ]
    return dataclasses.replace(spec, name=f"doorway_{seed}", distractions=distractions)


def crowd(seed: int) -> "hc.ScenarioSpec":
    """A dense two-way flow of look-alike people, about 24 in view at once.

    One person arrives every 5 frames (plus 0-4) and crosses in 120 frames,
    over 1,000 frames; arrivals start 120 frames before the stream, so the
    flow is at full density from the first frame. Embeddings are 128-d
    and share one common direction, so any two people are at cosine distance
    about 0.25, inside the 0.35 feature threshold: every cell of the feature
    matrix is a candidate and only the spatial gate separates identities.
    Detector noise puts a person's own detections about 0.05 apart.
    """
    dim, crossing, duration, headway = 128, 120, 1000, 5
    pairwise = 0.25
    rng = np.random.default_rng(seed)
    common = rng.normal(size=dim)
    common /= np.linalg.norm(common)
    specs = []
    for k, arrival in enumerate(range(-crossing, duration, headway)):
        own = rng.normal(size=dim)
        own -= own.dot(common) * common
        own /= np.linalg.norm(own)
        embedding = math.sqrt(1.0 - pairwise) * common + math.sqrt(pairwise) * own
        entering = bool(rng.random() < 0.5)
        x = float(rng.uniform(0.1, 0.9))
        start = arrival + int(rng.integers(0, headway))
        y_from, y_to = (0.1, 0.9) if entering else (0.9, 0.1)
        specs.append(
            hc.ActorSpec(
                actor_id=k + 1,
                path=[(start, x, y_from), (start + crossing, x, y_to)],
                base_embedding=embedding,
                intent=hc.ActorIntent.ENTER if entering else hc.ActorIntent.EXIT,
            )
        )
    noise = hc.NoiseSpec(
        miss_probability=0.05,
        embedding_noise_sigma=math.sqrt(0.05 / dim),
        center_jitter_sigma=0.005,
    )
    return hc.ScenarioSpec(
        f"crowd_{seed}", seed=seed, duration_frames=duration, actors=specs, noise=noise
    )


def churn(seed: int) -> "hc.ScenarioSpec":
    """Short visits at 128-d: a new person every 2 frames, 30-frame crossings.

    500 people with distinct random embeddings over about 1,000 frames, with
    15% misses: about 13 people are in view, and a track is born, evicted and
    counted every other frame, more often than in crowd, on matrices far
    smaller than crowd's.
    """
    noise = hc.NoiseSpec(miss_probability=0.15)
    spec = hc.random_crossings(
        seed, actors=500, crossing_frames=30, stagger=2, noise=noise, embedding_dim=128
    )
    return dataclasses.replace(spec, name=f"churn_{seed}")


SCENARIOS = {"doorway": doorway, "crowd": crowd, "churn": churn}


def config_for(workload: str) -> "hc.EngineConfig":
    """The engine configuration a workload is replayed with: defaults, with
    the embedding dimension fixed to the workload's."""
    return hc.EngineConfig(embedding_dim=1024 if workload == "doorway" else 128)


def write_workload(workload: str, seed: int, out_dir: str) -> dict:
    """Generate one workload into `out_dir`; returns its metadata.

    Writes `stream.jsonl` (the engine's only input) and `meta.json`, which
    holds the ground truth and the generation timings.
    """
    spec = SCENARIOS[workload](seed)
    t0 = time.perf_counter()
    frames, truth = hc.generate(spec)
    t1 = time.perf_counter()
    stream_path = os.path.join(out_dir, "stream.jsonl")
    with open(stream_path, "w", encoding="utf-8") as fp:
        lines = hc.write_stream(frames, fp)
        t2 = time.perf_counter()
        # flush to disk now, so that writeback does not run during the replay
        fp.flush()
        os.fsync(fp.fileno())
    meta = {
        "workload": workload,
        "seed": seed,
        "scenario": spec.name,
        "frames": lines,
        "actors": len(spec.actors),
        "stream_bytes": os.path.getsize(stream_path),
        "truth_ins": truth.final_ins,
        "truth_outs": truth.final_outs,
        "generate_s": t1 - t0,
        "write_stream_s": t2 - t1,
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fp:
        json.dump(meta, fp)
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    json.dump(write_workload(args.workload, args.seed, args.out), sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
