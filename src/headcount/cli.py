"""Command-line interface: run, simulate, bench, calibrate.

Exit codes: 0 success, 1 input error (missing files, malformed streams,
unknown scenarios), 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .counter import write_events
from .engine import ConfigError, EngineConfig, bench, calibrate, run
from .ingest import DEFAULT_EMBEDDING_DIM, StreamError, write_stream
from .simulator import generate, make_scenario, write_ground_truth

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path} as JSON: {exc}") from None


def _scenarios(names: list[str], config: EngineConfig, dim: int | None = None) -> list:
    """Catalog specs at `dim`, else at the config's embedding_dim, else at the default."""
    dim = (config.embedding_dim or DEFAULT_EMBEDDING_DIM) if dim is None else dim
    return [make_scenario(name, dim) for name in names]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps(payload, indent=2) + "\n")


def _write_run(args, result, error: str | None = None) -> None:
    if args.events_out:
        with open(args.events_out, "w", encoding="utf-8") as fp:
            write_events(result.events, fp)
    if args.report_out:
        _write_json(args.report_out, {**result.to_dict(), "error": error})


def _cmd_run(args, config: EngineConfig) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fp:
            result = run(fp, config)
    except StreamError as exc:
        _write_run(args, exc.result, str(exc))
        raise
    _write_run(args, result)
    snap = result.ledger.snapshot()
    print(
        f"frames={result.frames} ins={snap['ins']} outs={snap['outs']} "
        f"occupancy={snap['occupancy']} tracks={result.track_ids_issued}"
    )
    return EXIT_OK


def _cmd_simulate(args, config: EngineConfig) -> int:
    spec = _scenarios([args.scenario], config, args.embedding_dim)[0]
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    frames, truth = generate(spec, config.layout)
    with open(args.out, "w", encoding="utf-8") as fp:
        lines = write_stream(frames, fp)
    if args.truth_out:
        with open(args.truth_out, "w", encoding="utf-8") as fp:
            write_ground_truth(truth, fp)
    print(
        f"scenario={spec.name} seed={spec.seed} frames={lines} "
        f"truth_ins={truth.final_ins} truth_outs={truth.final_outs}"
    )
    return EXIT_OK


def _cmd_bench(args, config: EngineConfig) -> int:
    names = [n for n in args.scenarios.split(",") if n]
    report = bench(_scenarios(names, config), repetitions=args.reps, config=config)
    print(f"{'tracks':>6}  {'samples':>8}  {'p50 us':>10}  {'p95 us':>10}  {'p99 us':>10}  {'max fps':>10}")
    for count, stats in sorted(report.groups.items()):
        print(
            f"{count:>6}  {stats.samples:>8}  {stats.p50_us:>10.1f}  "
            f"{stats.p95_us:>10.1f}  {stats.p99_us:>10.1f}  {stats.max_fps:>10.0f}"
        )
    if args.report_out:
        _write_json(args.report_out, report.to_dict())
    return EXIT_OK


def _cmd_calibrate(args, config: EngineConfig) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be >= 0 (0 = all rows), got {args.top}")
    names = [n for n in args.scenarios.split(",") if n]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    rows = calibrate(_read_json(args.grid, "grid"), _scenarios(names, config), seeds, config)
    shown = rows[: args.top] if args.top else rows
    print(f"{'feature_t':>10}  {'spatial_t':>10}  {'miss_limit':>10}  {'accuracy':>9}  {'runs':>5}")
    for row in shown:
        print(
            f"{row.feature_threshold:>10.3f}  {row.spatial_threshold:>10.3f}  "
            f"{row.miss_limit:>10}  {row.mean_accuracy:>9.2f}  {row.runs:>5}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headcount",
        description="Doorway people-counting engine over external head-detection streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="engine config JSON file")

    p_run = sub.add_parser("run", parents=[common], help="process a detection stream into counts")
    p_run.add_argument("--input", required=True, help="detection stream file (JSON lines)")
    p_run.add_argument("--events-out", help="write crossing events as JSON lines")
    p_run.add_argument("--report-out", help="write run summary JSON")
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", parents=[common], help="generate a synthetic detection stream")
    p_sim.add_argument("--scenario", required=True, help="catalog scenario name")
    p_sim.add_argument("--seed", type=int, help="override the scenario seed")
    p_sim.add_argument("--out", required=True, help="stream output file")
    p_sim.add_argument("--truth-out", help="ground-truth sidecar file")
    p_sim.add_argument("--embedding-dim", type=int, help="embedding dimension (default 1024)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("bench", parents=[common], help="measure per-frame engine latency")
    p_bench.add_argument("--scenarios", default="multi_3", help="comma-separated scenario names")
    p_bench.add_argument("--reps", type=int, default=20, help="repetitions per scenario")
    p_bench.add_argument("--report-out", help="write bench report JSON")
    p_bench.set_defaults(func=_cmd_bench)

    p_cal = sub.add_parser("calibrate", parents=[common], help="sweep tracker thresholds over scenarios")
    p_cal.add_argument("--grid", required=True, help="JSON file of threshold candidate lists")
    p_cal.add_argument(
        "--scenarios",
        default="clean_entry,clean_exit,crossing_pair,multi_3",
        help="comma-separated scenario names",
    )
    p_cal.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    p_cal.add_argument("--top", type=int, default=10, help="rows to display (0 = all)")
    p_cal.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = {} if args.config is None else _read_json(args.config, "config")
        return args.func(args, EngineConfig.from_dict(data))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StreamError as exc:
        print(f"stream error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
