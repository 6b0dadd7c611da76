"""Table-driven draws match ``Generator.choice`` bit for bit, and the
walks' probability tables are validated with the sampler's tolerance."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

from repro.statemachine import LTE_SPEC, NR_SPEC, MachineState, StateMachine
from repro.trace import LogNormalMixture, get_profile
from repro.trace.sampling import choice_cdf, is_distribution


def _choice_accepts(probs) -> bool:
    try:
        np.random.default_rng(0).choice(len(probs), p=np.asarray(probs, dtype=np.float64))
    except ValueError:
        return False
    return True


class TestChoiceTable:
    @pytest.mark.parametrize("seed", range(20))
    def test_bisect_draws_match_generator_choice(self, seed):
        source = np.random.default_rng(seed)
        size = int(source.integers(1, 7))
        probs = source.dirichlet(np.ones(size))
        if size > 2:
            probs[source.integers(0, size)] = 0.0  # zero-mass entries are skipped
            probs /= probs.sum()
        cdf = choice_cdf(probs)
        table_rng = np.random.default_rng(seed + 1000)
        choice_rng = np.random.default_rng(seed + 1000)
        for _ in range(500):
            drawn = bisect_right(cdf, table_rng.random())
            assert drawn == choice_rng.choice(size, p=probs)
        # Both consumed the RNG identically.
        assert table_rng.random() == choice_rng.random()

    def test_cdf_ends_at_exactly_one(self):
        assert choice_cdf([0.1, 0.2, 0.3 + 0.4])[-1] == 1.0
        assert choice_cdf([1.0]) == [1.0]

    @pytest.mark.parametrize(
        "excess", [0.0, 1e-12, 1e-9, 1e-8, 2e-8, 1e-7, 2e-6, -2e-6]
    )
    def test_tolerance_agrees_with_generator_choice(self, excess):
        probs = [0.5 + excess, 0.5]
        assert is_distribution(probs) == _choice_accepts(probs)

    @pytest.mark.parametrize(
        "probs", [[], [1.5, -0.5], [float("nan"), 1.0], [float("inf")]]
    )
    def test_invalid_rejected(self, probs):
        assert not is_distribution(probs)
        if probs:
            assert not _choice_accepts(probs)


class TestConstructionTolerance:
    """Weights ``np.isclose`` to 1 but outside the sampler's tolerance used
    to construct and then fail at the first draw; they now fail at once."""

    def test_mixture_rejects_weights_the_sampler_rejects(self):
        with pytest.raises(ValueError, match="sum to 1"):
            LogNormalMixture(((0.5 + 2e-6, 0.0, 1.0), (0.5, 1.0, 1.0)))

    def test_mixture_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            LogNormalMixture(((1.5, 0.0, 1.0), (-0.5, 1.0, 1.0)))

    def test_mixture_accepts_weights_within_tolerance(self, rng):
        mixture = LogNormalMixture(((0.5 + 1e-12, 0.0, 1.0), (0.5, 1.0, 1.0)))
        assert mixture.sample(rng) > 0
        assert mixture.sample(rng, size=8).shape == (8,)

    @pytest.mark.parametrize(
        "field,message",
        [
            ("p_ho", "CONNECTED"),
            ("p_service_request", "IDLE"),
        ],
    )
    def test_profile_rejects_event_probabilities_off_by_2e6(self, field, message):
        profile = get_profile("phone")
        with pytest.raises(ValueError, match=message):
            replace(profile, **{field: getattr(profile, field) + 2e-6})

    def test_profile_rejects_start_probabilities_off_by_2e6(self):
        with pytest.raises(ValueError, match="start-state"):
            replace(get_profile("phone"), start_state_probs=(0.05 + 2e-6, 0.15, 0.80))

    def test_profile_rejects_negative_probability(self):
        profile = get_profile("phone")
        with pytest.raises(ValueError, match="non-negative"):
            replace(profile, p_ho=-0.01, p_release=profile.p_release + 0.01 + profile.p_ho)

    def test_profile_accepts_probabilities_within_tolerance(self):
        profile = get_profile("phone")
        replace(profile, p_ho=profile.p_ho + 1e-12)


class TestTransitionTable:
    @pytest.mark.parametrize("spec", [LTE_SPEC, NR_SPEC], ids=["4G", "5G"])
    def test_table_matches_state_machine_step(self, spec):
        table = spec.transition_table()
        for top in spec.top_states:
            for sub in spec.sub_states[top]:
                for event in spec.vocabulary:
                    machine = StateMachine(spec, MachineState(top, sub))
                    legal = machine.step(event)
                    landing = table.get((top, sub, event))
                    assert legal == (landing is not None), (top, sub, event)
                    if legal:
                        assert landing == (machine.state.top, machine.state.sub)
