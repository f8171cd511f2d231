"""Golden gates: pinned digests of the catalog and a noisy soak.

An event digest is the SHA-256 of the `write_events` output followed by the
JSON ledger snapshot, the bytes acceptance criterion 10 compares. A stream
digest is the SHA-256 of the `write_stream` text followed by the
`write_ground_truth` text, so the simulator's output is pinned as well. A
change that must keep its output byte-identical (a refactor or a speedup) has
to leave every digest here unchanged; a change that means to alter it updates
the table and says why.
"""
import hashlib
import io
import json
import math

import numpy as np
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

DENSE_DIGEST = "4018732f32323304a80e099ae58575c842e5270f47c951509ba2c880fe61fe52"

GAPPED_DIGEST = "8434c6dcb9ee7315c94be120f22ec852e83f26e956a65d11a713169bf290b4c8"

# (events, track ids issued) per seed, under miss_limit 0, 2 and 5.
GAPPED_COUNTS = {
    0: [(14, 621), (75, 233), (76, 222)],
    1: [(18, 633), (73, 254), (86, 228)],
    2: [(21, 659), (70, 266), (95, 213)],
}

STREAM_GOLDEN = {
    ("clean_entry", 16): "242b9c66509e7f1a6f58ee0059c00e6d70102068645c528a53cd3fff11bc6fba",
    ("clean_entry", 1024): "a4e4be23bdcf0f5be9130402497c8ba031ac0c69b6aba22c7aa3f752d1acc9f6",
    ("clean_exit", 16): "0adec6141fdf797d0265709bf4725686976a239b56138a3d2973bce5cc976bc1",
    ("clean_exit", 1024): "6309e88884da2563468c2662087a49d1bd844f31c60fbd746d806470dc2e0353",
    ("crossing_pair", 16): "2f31d58088fb93e118c5c52b118c609d843f1cdc3340f34cf1064e1c9aaba7aa",
    ("crossing_pair", 1024): "e0c3f88c822f61340894cacfc37f7389f1414e3e1e9832f05bce20371e95eb0a",
    ("distraction_field", 16): "6a19cebf16552302557b167d9fea70e56be088caa03cd8de3103c4ce4a0728df",
    ("distraction_field", 1024): "54c5c68b724732c559bc21b07e5638f71b4b15bffdf09336f3e889fad4906da5",
    ("multi_3", 16): "472bc4e191998dd2fd7cd60c84b00fa495ce97268b04cff3a722d949789a6f0a",
    ("multi_3", 1024): "7b3fda0eceadb0614b345e3ef637659339e5be0edcc3401f24be9c795dd69986",
    ("oscillation", 16): "e3b945f2ce9379f7e781f916eef5ad1cd7f470613c3c88bee09975c484cf3dad",
    ("oscillation", 1024): "e58b8094bd6115ab6f020f241414031765e13c91bc180144476404ac7be4462b",
    ("dropout_1", 16): "0b32651e981ed5ca9339882b1eaecef0ae09132eedfc96d75a28a3ef03533e58",
    ("dropout_1", 1024): "f9beef99e0dc598721f3eabf368c24b90da386569d53857ece1a38061c4a14af",
    ("dropout_3", 16): "b327aeaefc71a3e92c8ef21d6964fa8649b1d5872ac66a08139704b924abef92",
    ("dropout_3", 1024): "d08af7e08b224996637a62fe3ea500ce9ecd77b8351bba2ca745601d317e27ce",
    ("dropout_5", 16): "f4d3b2bbe0687e38701b892126b7c5696c6871f287eb728be5f127ce0eba5299",
    ("dropout_5", 1024): "1b6e547a31c367d8af94e82d33114fffc0e7034d32fd93425ea0741fe2c8b356",
    ("dropout_6", 16): "423a5de0852a84e1040c75ee611404e85e86c3c59300b2313d864f174cace7e4",
    ("dropout_6", 1024): "0fcca2ca8dd07c091846f613d5535ac7a732721f058237c33fabc89ba00b5cc7",
    ("dropout_9", 16): "aad610e246c9224ec5c133a9b842157f0e5e903728135c55b8708b8427383ad1",
    ("dropout_9", 1024): "bfd692c4f8cf40fee532798f1f7d6c58b9c43c1f7713ddd75f8d63044f2aa44e",
}

STREAM_SOAK_DIGEST = "2bee31d113199d4306fe7d843bf6169a516b8f35e566da4a90df9e43e8c659b0"


def digest(result, sha=None):
    sha = sha or hashlib.sha256()
    events = io.StringIO()
    hc.write_events(result.ledger.events, events)
    sha.update(events.getvalue().encode())
    sha.update(json.dumps(result.ledger.snapshot()).encode())
    return sha


def stream_digest(frames, truth, sha=None):
    sha = sha or hashlib.sha256()
    for write, data in ((hc.write_stream, frames), (hc.write_ground_truth, truth)):
        text = io.StringIO()
        write(data, text)
        sha.update(text.getvalue().encode())
    return sha


def soak_scenarios():
    # Criterion 7's noise at 1024-d, seeds 0-9.
    dim = 1024
    sigma = math.sqrt(0.5 * hc.TrackerConfig().feature_threshold / dim)
    noise = hc.NoiseSpec(miss_probability=0.1, embedding_noise_sigma=sigma, center_jitter_sigma=0.02)
    return [hc.random_crossings(seed, actors=4, noise=noise, embedding_dim=dim) for seed in range(10)]


def dense_runs():
    # 150 short, staggered crossings per seed with 15% misses: 900 events over
    # 2,058 frames, under both orientations.
    noise = hc.NoiseSpec(miss_probability=0.15, center_jitter_sigma=0.01)
    for layout in (hc.RegionLayout(), hc.RegionLayout(0.3, 0.7, "outside_bottom")):
        for seed in range(3):
            spec = hc.random_crossings(
                seed, actors=150, crossing_frames=30, stagger=2, noise=noise, embedding_dim=16
            )
            frames, _ = hc.generate(spec, layout)
            yield hc.run_frames(frames, hc.EngineConfig(layout=layout))


def gapped_runs(seed):
    # The dense streams with a quarter of their frame ids dropped, in runs of
    # 1-11, so tracks age across skipped ids under three miss limits.
    noise = hc.NoiseSpec(miss_probability=0.15, center_jitter_sigma=0.01)
    spec = hc.random_crossings(seed, actors=150, crossing_frames=30, stagger=2, noise=noise, embedding_dim=16)
    frames, _ = hc.generate(spec)
    rng = np.random.default_rng(seed)
    dropped: set[int] = set()
    while len(dropped) < len(frames) // 4:
        start = int(rng.integers(1, len(frames)))
        dropped.update(range(start, start + int(rng.integers(1, 12))))
    kept = [f for f in frames if f.frame_id not in dropped]
    for miss_limit in (0, 2, 5):
        yield hc.run_frames(kept, hc.EngineConfig(tracker=hc.TrackerConfig(miss_limit=miss_limit)))


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


@pytest.mark.parametrize("dim", [16, 1024])
@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_streams_are_pinned(name, dim):
    frames, truth = hc.generate(hc.make_scenario(name, dim))
    assert stream_digest(frames, truth).hexdigest() == STREAM_GOLDEN[(name, dim)]


def test_noisy_soak_events_are_pinned():
    # Folded into one digest; run on the frames as criterion 7 does (the text
    # round trip is lossless).
    sha = hashlib.sha256()
    for spec in soak_scenarios():
        frames, _ = hc.generate(spec)
        digest(hc.run_frames(frames), sha)
    assert sha.hexdigest() == SOAK_DIGEST


def test_dense_churn_events_are_pinned():
    sha = hashlib.sha256()
    for result in dense_runs():
        digest(result, sha)
    assert sha.hexdigest() == DENSE_DIGEST


def test_gapped_dense_events_are_pinned():
    sha = hashlib.sha256()
    for seed, counts in GAPPED_COUNTS.items():
        results = list(gapped_runs(seed))
        assert [(len(r.events), r.track_ids_issued) for r in results] == counts
        for result in results:
            digest(result, sha)
    assert sha.hexdigest() == GAPPED_DIGEST


def test_noisy_soak_streams_are_pinned():
    sha = hashlib.sha256()
    for spec in soak_scenarios():
        stream_digest(*hc.generate(spec), sha)
    assert sha.hexdigest() == STREAM_SOAK_DIGEST
