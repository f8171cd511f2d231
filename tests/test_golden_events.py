"""Golden event gate: pinned event-log digests for the catalog and a noisy soak.

Each digest is the SHA-256 of the `write_events` output followed by the JSON
ledger snapshot, the bytes acceptance criterion 10 compares. A change that
must keep events byte-identical (a refactor or a speedup) has to leave every
digest here unchanged; a change that means to alter events updates the table
and says why.
"""
import hashlib
import io
import json
import math

import pytest

import headcount as hc

SCENARIOS = sorted(n for n in hc.catalog_names() if n != "dropout_<k>") + [
    f"dropout_{k}" for k in (1, 3, 5, 6, 9)
]

GOLDEN = {
    ("clean_entry", 16): "e73634fb8e27479865bb9ed39c96e307dda547c8fbc16b0898b9c4e69168f6da",
    ("clean_entry", 1024): "e73634fb8e27479865bb9ed39c96e307dda547c8fbc16b0898b9c4e69168f6da",
    ("clean_exit", 16): "763adf6817f82bdebe33a6a6165aeb50e795a6d5b0618e6996807fddb40bb694",
    ("clean_exit", 1024): "763adf6817f82bdebe33a6a6165aeb50e795a6d5b0618e6996807fddb40bb694",
    ("crossing_pair", 16): "99f446c8ccde6505759dc5e0c5faa82a6b11b85bddbc3a2af10d8d2adfb47646",
    ("crossing_pair", 1024): "99f446c8ccde6505759dc5e0c5faa82a6b11b85bddbc3a2af10d8d2adfb47646",
    ("distraction_field", 16): "e73634fb8e27479865bb9ed39c96e307dda547c8fbc16b0898b9c4e69168f6da",
    ("distraction_field", 1024): "e73634fb8e27479865bb9ed39c96e307dda547c8fbc16b0898b9c4e69168f6da",
    ("multi_3", 16): "9e97701dd2d77d0a6acf220c5467427de61cefac39f99bc61141327dca274b0c",
    ("multi_3", 1024): "9e97701dd2d77d0a6acf220c5467427de61cefac39f99bc61141327dca274b0c",
    ("oscillation", 16): "e1763e7f11016224a1ee8f6d51940efb833bf3e5a8cbd579b8cdb14da7f31cae",
    ("oscillation", 1024): "e1763e7f11016224a1ee8f6d51940efb833bf3e5a8cbd579b8cdb14da7f31cae",
    ("dropout_1", 16): "97c22d9db9daada76d87ec4eeda36c7c006ef6618f6849456a8087c92a24cbb7",
    ("dropout_1", 1024): "97c22d9db9daada76d87ec4eeda36c7c006ef6618f6849456a8087c92a24cbb7",
    ("dropout_3", 16): "97c22d9db9daada76d87ec4eeda36c7c006ef6618f6849456a8087c92a24cbb7",
    ("dropout_3", 1024): "97c22d9db9daada76d87ec4eeda36c7c006ef6618f6849456a8087c92a24cbb7",
    ("dropout_5", 16): "97c22d9db9daada76d87ec4eeda36c7c006ef6618f6849456a8087c92a24cbb7",
    ("dropout_5", 1024): "97c22d9db9daada76d87ec4eeda36c7c006ef6618f6849456a8087c92a24cbb7",
    ("dropout_6", 16): "e1763e7f11016224a1ee8f6d51940efb833bf3e5a8cbd579b8cdb14da7f31cae",
    ("dropout_6", 1024): "e1763e7f11016224a1ee8f6d51940efb833bf3e5a8cbd579b8cdb14da7f31cae",
    ("dropout_9", 16): "e1763e7f11016224a1ee8f6d51940efb833bf3e5a8cbd579b8cdb14da7f31cae",
    ("dropout_9", 1024): "e1763e7f11016224a1ee8f6d51940efb833bf3e5a8cbd579b8cdb14da7f31cae",
}

SOAK_DIGEST = "bfb28784efb5f039636796d2f5d17e8bbb8a6117c71fa66e72be8a2624aa2c6c"


def digest(result, sha=None):
    sha = sha or hashlib.sha256()
    events = io.StringIO()
    hc.write_events(result.ledger.events, events)
    sha.update(events.getvalue().encode())
    sha.update(json.dumps(result.ledger.snapshot()).encode())
    return sha


def run_rendered(frames):
    stream = io.StringIO()
    hc.write_stream(frames, stream)
    stream.seek(0)
    return hc.run(stream)


@pytest.mark.parametrize("dim", [16, 1024])
@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_events_are_pinned(name, dim):
    frames, _ = hc.generate(hc.make_scenario(name, dim))
    assert digest(run_rendered(frames)).hexdigest() == GOLDEN[(name, dim)]


def test_noisy_soak_events_are_pinned():
    # Criterion 7's noise at 1024-d, seeds 0-9, folded into one digest; run on
    # the frames as criterion 7 does (the text round trip is lossless).
    dim = 1024
    sigma = math.sqrt(0.5 * hc.TrackerConfig().feature_threshold / dim)
    noise = hc.NoiseSpec(miss_probability=0.1, embedding_noise_sigma=sigma, center_jitter_sigma=0.02)
    sha = hashlib.sha256()
    for seed in range(10):
        frames, _ = hc.generate(hc.random_crossings(seed, actors=4, noise=noise, embedding_dim=dim))
        digest(hc.run_frames(frames), sha)
    assert sha.hexdigest() == SOAK_DIGEST
