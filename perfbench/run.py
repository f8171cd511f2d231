"""End-to-end doorway benchmark: stream bytes to events.

    python3 perfbench/run.py --workload doorway --seed 1 --seconds 30 --trace 0

One run generates a workload's detection stream from the seed (in a child
process, with the public simulator API), then replays the stream through
`headcount.run` as fast as the engine returns: one caller, one thread, a
closed loop, the way `run` consumes a file. Whole passes over the stream
repeat until `--seconds` have passed.

With `--trace 0` the run reports what a user of the engine sees: frames per
second, per-frame latency (parse + filter + track + count) at p50 and p99,
count accuracy against the simulator's ground truth, the share of frames
completed, set-up time (the median of several fresh processes) and peak
RSS. Frames per second and p50 are taken over each frame's fastest replay
in the run (see `fastest_replays` for why); p99 is pooled over every replay
of the run, at least 1,000 samples so that ten lie beyond it (see
`pooled_p99_us`). With `--trace 1` the run alternates plain and traced
passes and reports per-layer metrics instead (see tracing.py).

Every run checks its output: each pass must complete, all passes must give
the same event log, the ledger must agree with that log, and the counts must
reach an accuracy floor. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records the
environment, the pass structure, the latency sample counts and the SHA-256
of the event log, and is also written to `.bench_out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from checkout import OUT, ROOT, SRC, CheckoutError, git_sha, import_headcount
from replay import (
    count_accuracy_pct, event_log_sha256, ledger_problems, replay_file, warm_up,
)

# set-up is timed this many times per run and reported as the median
SETUP_PROBES = 9
# the pooled p99 needs at least ten samples beyond it
MIN_LATENCY_SAMPLES = 1000
# counts below this accuracy mark the run incorrect; the engine reaches at
# least 98.4% on every seed tried (crowd identities are look-alikes, so a
# swap there is expected now and then)
ACCURACY_FLOOR_PCT = 95.0

SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import headcount as hc\n"
    "hc.Engine(hc.EngineConfig(embedding_dim=int(sys.argv[2])))\n"
    "print('ready', flush=True)\n"
)


def measure_setup_s(embedding_dim: int) -> list[float]:
    """Seconds from process start until an engine exists, once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, SRC, str(embedding_dim)],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        with proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            returncode = proc.wait(timeout=60)
        if line.strip() != b"ready" or returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {returncode}")
    return samples


def generate_workload(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's stream and metadata into `out_dir` in a child process."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed), "--out", out_dir],
        stdout=subprocess.PIPE, cwd=ROOT, check=True, timeout=120,
    )
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def check_passes(hc, passes, meta: dict) -> tuple[bool, dict]:
    """Correctness of a run's passes, plus the figures the check rests on."""
    problems = [f"pass {k}: {p.error}" for k, p in enumerate(passes) if p.error]
    digests = sorted({event_log_sha256(hc, p.events) for p in passes if not p.error})
    if len(digests) > 1:
        problems.append("passes gave different event logs")
    first = next((p for p in passes if not p.error), passes[0])
    problems += ledger_problems(first)
    accuracy = count_accuracy_pct(first.ins, first.outs, meta["truth_ins"], meta["truth_outs"])
    if accuracy < ACCURACY_FLOOR_PCT:
        problems.append(f"accuracy {accuracy:.2f}% below {ACCURACY_FLOOR_PCT}%")
    summary = {
        "ins": first.ins,
        "outs": first.outs,
        "truth_ins": meta["truth_ins"],
        "truth_outs": meta["truth_outs"],
        "count_accuracy_pct": accuracy,
        "event_log_sha256": digests[0] if len(digests) == 1 else digests,
        "problems": problems,
    }
    return not problems, summary


def measured_run(hc, stream_path: str, meta: dict, config, seconds: float):
    """Replay whole passes of the stream until `seconds` have passed and the
    passes hold at least MIN_LATENCY_SAMPLES frame latencies."""
    frames = meta["frames"]
    warm_up(hc, stream_path, config)
    passes = []
    deadline = time.perf_counter() + seconds
    while (
        sum(p.completed for p in passes) < MIN_LATENCY_SAMPLES
        or time.perf_counter() < deadline
    ):
        passes.append(replay_file(hc, stream_path, frames, config))
        if passes[-1].error:
            break  # the stream fails the same way on every pass
    return passes


def fastest_replays(passes) -> np.ndarray:
    """Each frame's fastest replay latency (ns) over a run's passes.

    Every pass replays the same stream, so a frame's replays differ only in
    how fast the host ran them. On a shared host whose speed switches, in
    spells of milliseconds to seconds, between levels up to 2x apart (CPU
    time equal to wall time throughout), a median over the whole run reports
    the mix of levels, not the program; each frame's fastest replay reports
    the program.
    """
    frames = min(len(p.latencies_ns) for p in passes)
    if frames == 0:
        return np.zeros(0)
    lat = np.array([p.latencies_ns[:frames] for p in passes], dtype=float)
    return lat.min(axis=0)


def pooled_p99_us(passes) -> tuple[float, int]:
    """p99 latency (us) over every replay of every frame, and the sample count.

    The tail is not taken over fastest replays: the p99 of ~1,000 per-frame
    minima rests on ten frames, and whether each of those ever met a fast
    spell of the host swings it by up to a third from run to run. Pooled
    over all replays it rests on ten samples per pass of 1,000 frames, and
    reports the tail a caller of `run` meets on this host.
    """
    pooled = np.concatenate([np.asarray(p.latencies_ns, dtype=float) for p in passes])
    return (float(np.percentile(pooled, 99)) / 1e3 if pooled.size else 0.0), int(pooled.size)


def end_to_end_metrics(passes, accuracy: float, setup_samples, peak_rss_mb: float):
    best = fastest_replays(passes)
    p99_us, pooled_samples = pooled_p99_us(passes)
    attempted = sum(p.attempted for p in passes)
    completed = sum(p.completed for p in passes)
    values = {
        "frames_per_s": (best.size / (best.sum() / 1e9) if best.size else 0.0, "1/s"),
        "frame_latency_p50_us": (float(np.percentile(best, 50)) / 1e3 if best.size else 0.0, "us"),
        "frame_latency_p99_us": (p99_us, "us"),
        "count_accuracy_pct": (accuracy, "%"),
        "completed_frame_pct": (100.0 * completed / attempted, "%"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {
        "fastest_replay_samples": int(best.size),
        "p99_samples": pooled_samples,
        "p99_samples_beyond": pooled_samples // 100,
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}, samples


def environment(hc, args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "headcount": hc.__version__,
        "git_sha": git_sha(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end doorway benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        hc = import_headcount()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    config = workloads.config_for(args.workload)
    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}")
    stream_path = os.path.join(run_dir, "stream.jsonl")
    os.makedirs(run_dir, exist_ok=True)
    try:
        setup_samples = measure_setup_s(config.embedding_dim)
        meta = generate_workload(args.workload, args.seed, run_dir)
        if args.trace:
            import tracing

            passes, metrics, extra = tracing.traced_run(
                hc, stream_path, meta, config, args.seconds, run_dir
            )
        else:
            passes = measured_run(hc, stream_path, meta, config, args.seconds)
        correct, summary = check_passes(hc, passes, meta)
        if not args.trace:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, samples = end_to_end_metrics(
                passes, summary["count_accuracy_pct"], setup_samples, peak_rss_mb
            )
            extra = samples
    finally:
        if os.path.exists(stream_path):
            os.remove(stream_path)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "env": environment(hc, args),
        "workload": {key: meta[key] for key in ("scenario", "frames", "actors", "stream_bytes")},
        "passes": len(passes),
        "pass_frames_per_s": [p.completed / (p.wall_ns / 1e9) for p in passes],
        "frames_per_pass": meta["frames"],
        "attempted_frames": attempted,
        "completed_frames": attempted - failed,
        "failed_frames": failed,
        "failed_frame_pct": 100.0 * failed / attempted,
        "setup_s_samples": setup_samples,
        "check": summary,
        **extra,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fp:
        json.dump({"record": record, "result": result}, fp, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
