"""Per-frame engine latency, grouped by how many people are in view.

Frames are pre-generated, never parsed, and detector inference happens
elsewhere. The clock is the engine's own: `Engine.process_frame` times each
frame from its stream check through counting, and `bench` returns the samples
as one {tracks: LatencyStats} table. The budget story: at 20 FPS a frame
lasts 50 ms, and the engine should stay a rounding error within it even with
three simultaneous tracks and 1024-component embeddings.
"""
import headcount as hc

FRAME_BUDGET_US = 50_000.0  # one frame at 20 FPS

print("benchmarking multi_3 (occupancy ramps 0 -> 3) with 1024-dim embeddings...")
latency = hc.bench([hc.make_scenario("multi_3", 1024)], repetitions=20)

print(f"\n{'tracks':>6} {'samples':>8} {'p50 us':>9} {'p95 us':>9} {'p99 us':>9} {'max fps':>9} {'budget':>8}")
for count, stats in latency.items():  # in track-count order
    share = stats.p95_us / FRAME_BUDGET_US * 100.0
    print(
        f"{count:>6} {stats.samples:>8} {stats.p50_us:>9.1f} {stats.p95_us:>9.1f} "
        f"{stats.p99_us:>9.1f} {stats.max_fps:>9.0f} {share:>7.2f}%"
    )

worst = latency[max(latency)]
print(
    f"\nworst group p95 = {worst.p95_us:.0f} us "
    f"= {worst.p95_us / FRAME_BUDGET_US * 100:.2f}% of the 20 FPS frame budget; "
    f"the rest is free for the detector."
)
