"""Detection streams: the wire format, lighting classification, head filtering.

The engine never touches video. An upstream detector posts one JSON line per
frame; this demo builds a few frames by hand, round-trips them through the
serializer, applies the day/night rule, and filters distraction classes.
"""
import io

import numpy as np

import headcount as hc

# --- build two frames: a head plus a chair, then a lone low-confidence head.
# Each row is (class, conf, box, emb or None); a frame's rows become one
# block of columns, validated once.
HEAD, CHAIR = hc.DetectionClass.HEAD, hc.DetectionClass.CHAIR
frames = [
    hc.FrameRecord(
        0,
        0,
        hc.Detections.from_rows(
            [(HEAD, 0.97, (0.46, 0.06, 0.54, 0.14), np.ones(8)), (CHAIR, 0.89, (0.1, 0.7, 0.3, 0.9), None)]
        ),
        lighting=hc.LightingMode.DAY,
    ),
    hc.FrameRecord(1, 50, hc.Detections.from_rows([(HEAD, 0.40, (0.7, 0.4, 0.78, 0.48), np.ones(8))])),
]
print("frame 0 columns: labels", [label.value for label in frames[0].detections.labels],
      "centers", frames[0].detections.centers.tolist())

buf = io.StringIO()
hc.write_stream(frames, buf)
print("stream lines:")
for line in buf.getvalue().splitlines():
    print(" ", line[:110] + ("..." if len(line) > 110 else ""))

# --- parse it back; the parser validates ordering and embedding dimensions
buf.seek(0)
parsed = list(hc.parse_stream(buf))
print(f"\nparsed {len(parsed)} frames back; frame 0 lighting = {parsed[0].lighting}")

# --- distraction filtering: the chair never reaches the tracker
kept = hc.filter_heads(parsed[0], min_confidence=0.5)
print(f"frame 0 detections {len(parsed[0].detections)} -> heads kept at rows {kept.tolist()}")
kept = hc.filter_heads(parsed[1], min_confidence=0.5)
print(f"frame 1 head at confidence 0.40 with floor 0.5 -> kept {len(kept)}")

# --- the IR night rule: grayscale frames have equal channels per pixel
rng = np.random.default_rng(0)
gray = rng.integers(0, 256, (48, 64))
night_image = np.stack([gray, gray, gray], axis=-1)
day_image = rng.integers(0, 256, (48, 64, 3))
for name, image in [("night (IR)", night_image), ("day (color)", day_image)]:
    samples = hc.sample_pixel_grid(image, (10, 10))
    mode = hc.classify_lighting(samples, channel_tolerance=2, agreement_fraction=0.99)
    print(f"{name:12s} -> {mode}")
