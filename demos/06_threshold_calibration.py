"""Calibrating the tracker thresholds on simulated scenarios.

The feature threshold, spatial gate, and miss limit have no universally right
values; this sweep scores candidate combinations by counting accuracy over a
scenario suite (several seeds each) and ranks them deterministically, ties
going to the smallest miss limit and then the tightest feature threshold.
"""
import math

import headcount as hc

DIM = 64

base = hc.TrackerConfig()
sigma = math.sqrt(0.5 * base.feature_threshold / DIM)
noise = hc.NoiseSpec(miss_probability=0.15, embedding_noise_sigma=sigma, center_jitter_sigma=0.02)
scenarios = [hc.random_crossings(seed, actors=3, noise=noise, embedding_dim=DIM) for seed in (5, 6)]

grid = {
    "feature_threshold": [0.2, 0.35, 0.5],
    "miss_limit": [2, 5, 8],
}
print("sweeping", {k: v for k, v in grid.items()}, "over noisy crossings...")
rows = hc.calibrate(grid, scenarios, seeds=(1, 2), config=hc.EngineConfig(embedding_dim=DIM))

print(f"\n{'feature_t':>10} {'spatial_t':>10} {'miss_limit':>10} {'accuracy':>9} {'runs':>5}")
for row in rows:
    print(
        f"{row.feature_threshold:>10.2f} {row.spatial_threshold:>10.2f} "
        f"{row.miss_limit:>10} {row.mean_accuracy:>9.2f} {row.runs:>5}"
    )

best = rows[0]
print(
    f"\nbest: feature_threshold={best.feature_threshold}, miss_limit={best.miss_limit} "
    f"at {best.mean_accuracy:.2f}% mean accuracy"
)
