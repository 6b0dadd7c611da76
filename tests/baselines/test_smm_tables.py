"""The semi-Markov walks' precomputed sampling tables are never stale.

Every way a fitted model travels (save → ``load_generator``,
``copy.deepcopy``, pickle) must reproduce streams bit-identical to the
in-memory model, and the tables must live on the objects rather than in
module-level caches that forked workers would inherit.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import sys

import numpy as np
import pytest

from repro.analysis import run_lint
from repro.api import ScenarioSpec, SMMKGenerator, SMMOneGenerator, load_generator
from repro.baselines import SemiMarkovModel
from repro.statemachine import LTE_SPEC
from repro.trace import SyntheticTraceConfig, generate_trace

#: Modules that hold the walks and their table builders.
WALK_MODULES = (
    "repro.trace.synthetic",
    "repro.trace.device",
    "repro.trace.sampling",
    "repro.baselines.smm",
    "repro.statemachine.base",
)


def _digest(dataset) -> str:
    h = hashlib.sha256()
    for stream in dataset:
        for e in stream.events:
            h.update(f"{stream.ue_id}\t{float.hex(e.timestamp)}\t{e.event}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module", params=["smm-1", "smm-k"])
def fitted(request, phone_trace):
    generator = SMMOneGenerator() if request.param == "smm-1" else SMMKGenerator(num_clusters=3)
    return generator.fit(phone_trace, ScenarioSpec(name="tables", hour=20))


def _streams(generator) -> str:
    return _digest(generator.generate(60, np.random.default_rng(5), start_time=72_000.0))


def test_save_load_reproduces_streams(fitted, tmp_path):
    path = tmp_path / "model.json"
    fitted.save(path)
    assert _streams(load_generator(path)) == _streams(fitted)


def test_deepcopy_reproduces_streams(fitted):
    assert _streams(copy.deepcopy(fitted)) == _streams(fitted)


def test_pickle_reproduces_streams(fitted):
    assert _streams(pickle.loads(pickle.dumps(fitted))) == _streams(fitted)


def test_model_rejects_unnormalized_probabilities(phone_trace):
    model = SemiMarkovModel.fit(phone_trace, LTE_SPEC)
    state = next(iter(model.transition_probs))
    skewed = {
        **model.transition_probs,
        state: {e: p * 1.001 for e, p in model.transition_probs[state].items()},
    }
    with pytest.raises(ValueError, match="sum to 1"):
        SemiMarkovModel(
            spec=LTE_SPEC,
            transition_probs=skewed,
            dwell=model.dwell,
            initial_states=model.initial_states,
        )
    with pytest.raises(ValueError, match="sum to 1"):
        SemiMarkovModel(
            spec=LTE_SPEC,
            transition_probs=model.transition_probs,
            dwell=model.dwell,
            initial_states={s: 2 * p for s, p in model.initial_states.items()},
        )


def _module_state() -> dict[tuple[str, str], int]:
    """Size of every module-level container in the walk modules."""
    state = {}
    for name in WALK_MODULES:
        for attr, value in vars(sys.modules[name]).items():
            if isinstance(value, (dict, list, set)):
                state[(name, attr)] = len(value)
    return state


def test_walks_leave_module_state_untouched():
    generate_trace(SyntheticTraceConfig(num_ues=3, technology="5G", seed=1))
    before = _module_state()
    # Build fresh tables (a trace per technology, a newly fitted model)
    # and walk them: nothing may be cached at module level.
    generate_trace(SyntheticTraceConfig(num_ues=5, device_type="tablet", seed=2))
    capture = generate_trace(SyntheticTraceConfig(num_ues=20, technology="5G", seed=3))
    scenario = ScenarioSpec(name="fresh", technology="5G", hour=10)
    SMMOneGenerator().fit(capture, scenario).generate(5, np.random.default_rng(1))
    assert _module_state() == before


def test_walk_modules_lint_clean_without_suppressions():
    paths = [sys.modules[name].__file__ for name in WALK_MODULES]
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            assert "repro-lint" not in handle.read(), path
    assert run_lint(paths).clean
