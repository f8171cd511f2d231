"""Greedy gated association, traced by hand.

Rows of the distance matrices are registered tracks, columns are the new
frame's detections. The matcher repeatedly takes the globally smallest
feature distance, skipping pairs whose row/column is spoken for or whose
centers are farther apart than the spatial gate allows.
"""
import numpy as np

import headcount as hc

config = hc.TrackerConfig(feature_threshold=0.5, spatial_threshold=0.1)

# --- a clean 2x2 case: the diagonal is obviously right
feature = np.array([[0.10, 0.90], [0.80, 0.20]])
spatial = np.zeros((2, 2))
result = hc.associate(hc.DistanceMatrices(feature, spatial), config)
print("diagonal case matches:", result.matches)

# --- greed is not optimality: picking 0.1 first forces (1, 0) at 0.2
feature = np.array([[0.30, 0.10], [0.20, 0.15]])
wide = hc.TrackerConfig(feature_threshold=0.5, spatial_threshold=1.0)
result = hc.associate(hc.DistanceMatrices(feature, np.zeros((2, 2))), wide)
print("greedy order matches:  ", result.matches, "(argmin 0.10 went first)")

# --- the spatial gate vetoes lookalikes that teleport across the frame
feature = np.array([[0.10]])
spatial = np.array([[0.20]])  # farther than the 0.1 gate
result = hc.associate(hc.DistanceMatrices(feature, spatial), config)
print("gated case matches:    ", result.matches, "- appearance alone is not enough")

# --- full tracker steps: ids persist across misses up to the limit
tracker = hc.Tracker(hc.TrackerConfig(miss_limit=2))
emb = np.zeros(16)
emb[0] = 1.0
det = hc.DetectionRecord(hc.DetectionClass.HEAD, 0.95, hc.BoundingBox(0.46, 0.46, 0.54, 0.54), emb)
print("\nframe 0:", tracker.step([det], 0))
print("frame 1:", tracker.step([], 1), "<- missed once")
print("frame 2:", tracker.step([det], 2), "<- re-detected, same id")
for frame in range(3, 6):
    print(f"frame {frame}:", tracker.step([], frame))
print("tracks left after the miss limit ran out:", len(tracker.objects))
