"""Golden pins for the two semi-Markov walks: capture synthesis and SMM.

Each case hashes every generated event as ``(ue_id, float.hex(timestamp),
event)`` with SHA-256, so any change to the draw order, the RNG
consumption or a single ulp of a timestamp moves the digest.  The
unquantized (``time_resolution=0``) synthesis cases are the ones that
catch ulp drift: the default 1 s quantization would hide it.

A pin may only be re-recorded together with a deliberate change of
draw order, never to absorb an unexplained difference.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import ScenarioSpec, SMMKGenerator, SMMOneGenerator
from repro.trace import DeviceType, SyntheticTraceConfig, generate_trace


def _digest(streams) -> str:
    h = hashlib.sha256()
    for stream in streams:
        h.update(f"{stream.ue_id}\t{len(stream)}\n".encode())
        for e in stream.events:
            h.update(f"{stream.ue_id}\t{float.hex(e.timestamp)}\t{e.event}\n".encode())
    return h.hexdigest()


# The window starts at 23:00 and runs two hours, so the walk crosses
# midnight and samples the diurnal curve on both sides of it.
SYNTHESIS_PINS = {
    ("phone", "4G", 0.0): (
        "f853d7bf08ca4bf2525f041e5dbdc7f4"
        "5210e2de4806659a286a20a644719597"
    ),
    ("phone", "4G", 1.0): (
        "bb8a40efb96e0514ac95bdb17e2a9396"
        "fdbe12c545dd6257f106270d4d2d537d"
    ),
    ("phone", "5G", 0.0): (
        "f14650f8ff41837e1ad79d1acaf4b811"
        "a4aa5465e72d616ac8db155fbd40202d"
    ),
    ("phone", "5G", 1.0): (
        "218fd1957dc65c9248ea99acdbfa1f5f"
        "60e1967c6edae4e254934fe9afe877d7"
    ),
    ("connected_car", "4G", 0.0): (
        "ab12887b907057355a405a74ca9c2be6"
        "3cf50396797b42099fdcd0c9fe209b2d"
    ),
    ("connected_car", "4G", 1.0): (
        "8fdd71b30e3458286473d502736bd4f3"
        "c5f6ad9f0c65cbf4fcdce049a6725213"
    ),
    ("connected_car", "5G", 0.0): (
        "78fc0afa29e71479786c2f6cc3ea43cf"
        "a84b280c1395c4db4ab885073ade608a"
    ),
    ("connected_car", "5G", 1.0): (
        "205d39ba510d354a61ab3248ef6641f9"
        "5fe4658870ec787d87cf58a9cf869a87"
    ),
    ("tablet", "4G", 0.0): (
        "c2484b6450e3ac1d5690769ade0a4b04"
        "36d4dd5ccddbb061099be137e343d2d4"
    ),
    ("tablet", "4G", 1.0): (
        "912d8f8b92b52b61edce758083803d79"
        "f5b9d5613b34b42dfb0b5e3ec3b78f63"
    ),
    ("tablet", "5G", 0.0): (
        "973059517ac24c22fa8037ba821b8666"
        "45334ad28a4b72e2b54cc122f26b7a20"
    ),
    ("tablet", "5G", 1.0): (
        "c81926675a4976564076a57976c2afee"
        "d9911eb03ee176332a8566020d59ab0d"
    ),
}


@pytest.mark.parametrize(
    "device_type,technology,resolution",
    sorted(SYNTHESIS_PINS),
    ids=lambda v: str(v),
)
def test_generate_trace_pinned(device_type, technology, resolution):
    config = SyntheticTraceConfig(
        num_ues=30,
        device_type=device_type,
        hour=23,
        duration=7200.0,
        technology=technology,
        seed=20_260_417,
        time_resolution=resolution,
    )
    trace = generate_trace(config)
    assert trace.total_events > 0
    assert _digest(trace) == SYNTHESIS_PINS[(device_type, technology, resolution)]


SMM_PINS = {
    ("smm-1", "4G"): (
        "4464ca9948f3c9756d86c3a89478875e"
        "d7d9312a4e12304a18a78d7912a61189"
    ),
    ("smm-1", "5G"): (
        "d88525d557cd11d40321d9ced5090eb0"
        "a4594544da255e3fefd8205cbedf1fca"
    ),
    ("smm-k", "4G"): (
        "fbed8bc01684ab1dad00a54c85deb4e3"
        "29d18f278f3e26cd46e716b4f431c7b4"
    ),
    ("smm-k", "5G"): (
        "a156076651f13c09692a6c8e28b46e78"
        "5efb74a5bb197a09f86590676f80ee9e"
    ),
}


def _fitted(backend: str, technology: str):
    scenario = ScenarioSpec(
        name=f"golden-{technology}",
        device_type=DeviceType.CONNECTED_CAR if technology == "5G" else DeviceType.PHONE,
        technology=technology,
        hour=20,
        num_ues=120,
        seed=7,
    )
    capture = generate_trace(
        SyntheticTraceConfig(
            num_ues=scenario.num_ues,
            device_type=scenario.device_type,
            hour=scenario.hour,
            technology=technology,
            seed=scenario.seed,
        )
    )
    generator = SMMOneGenerator() if backend == "smm-1" else SMMKGenerator(num_clusters=4)
    return generator.fit(capture, scenario)


@pytest.mark.parametrize("backend,technology", sorted(SMM_PINS), ids=lambda v: str(v))
def test_smm_generate_pinned(backend, technology):
    generator = _fitted(backend, technology)
    out = generator.generate(150, np.random.default_rng(99), start_time=72_000.0)
    assert out.total_events > 0
    assert _digest(out) == SMM_PINS[(backend, technology)]
