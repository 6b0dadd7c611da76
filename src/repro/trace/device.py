"""Device-type behaviour profiles for the synthetic operator trace.

The paper's dataset (§4.1) covers three device populations — phones,
connected cars and tablets — whose control-plane behaviour differs
substantially (Table 7): connected cars produce far more handovers and
tracking-area updates; tablets attach/detach more often; phones dominate
by volume with ~47% service requests.

Each profile parameterizes a semi-Markov walk on the ground-truth 4G
state machine:

* per-state dwell-time distributions (log-normal mixtures — traditional
  single distributions do not fit control-plane traffic, per §3.3),
* per-state event-choice probabilities,
* per-UE heterogeneity scales (heavy-tailed activity diversity), and
* a diurnal activity profile (hour-of-day drift).

The numeric targets approximate the paper's Table 7 event breakdown and
Figure 5 sojourn ranges; EXPERIMENTS.md records how close the shipped
profiles land.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .diurnal import DiurnalProfile, Harmonic
from .sampling import SUM_TOLERANCE, choice_cdf, is_distribution
from .schema import DeviceType

__all__ = ["LogNormalMixture", "DeviceProfile", "DEVICE_PROFILES", "get_profile"]


@dataclass(frozen=True)
class LogNormalMixture:
    """Mixture of log-normal components ``(weight, mu, sigma)``.

    ``mu``/``sigma`` act on the underlying normal, i.e. a component's
    median is ``exp(mu)`` seconds.
    """

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        weights = [w for w, _, _ in self.components]
        if not is_distribution(weights):
            raise ValueError(
                f"mixture weights must be non-negative and sum to 1 "
                f"(within {SUM_TOLERANCE:.1e}); got {weights}"
            )
        if any(sigma <= 0 for _, _, sigma in self.components):
            raise ValueError("mixture sigmas must be positive")
        # Sampling tables, built once: the mixture is frozen.
        object.__setattr__(self, "_weights", np.array(weights))
        object.__setattr__(self, "_cdf", choice_cdf(weights))
        object.__setattr__(self, "_mus", np.array([m for _, m, _ in self.components]))
        object.__setattr__(self, "_sigmas", np.array([s for _, _, s in self.components]))

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        """Draw samples; scalar when ``size`` is None.

        Both paths consume the RNG identically: one component draw, then
        one normal draw, per sample.
        """
        if size is None:
            k = bisect_right(self._cdf, rng.random())
            return float(np.exp(rng.normal(self._mus[k], self._sigmas[k])))
        choices = rng.choice(len(self.components), size=size, p=self._weights)
        return np.exp(rng.normal(self._mus[choices], self._sigmas[choices]))

    def mean(self) -> float:
        """Analytical mixture mean: ``sum w * exp(mu + sigma^2 / 2)``."""
        return float(
            sum(w * np.exp(mu + 0.5 * sigma**2) for w, mu, sigma in self.components)
        )


@dataclass(frozen=True)
class DeviceProfile:
    """Behavioural parameters for one device type.

    Event-choice probabilities are conditional on the current top-level
    state; each dwell in a state emits exactly one event chosen from the
    state's menu, so e.g. the expected number of handovers per CONNECTED
    visit is ``p_ho / (p_release + p_detach_connected)``.
    """

    name: str
    # Dwell-time distributions (seconds) per top-level state.
    connected_dwell: LogNormalMixture
    idle_dwell: LogNormalMixture
    deregistered_dwell: LogNormalMixture
    # Event choice while CONNECTED: HO / TAU / S1_CONN_REL / DTCH.
    p_ho: float
    p_tau_connected: float
    p_release: float
    p_detach_connected: float
    # Event choice while IDLE: SRV_REQ / TAU / DTCH.
    p_service_request: float
    p_tau_idle: float
    p_detach_idle: float
    # Per-UE heterogeneity: log-normal sigma of the idle/connected dwell
    # multipliers (heavier tails -> more diverse flow lengths).
    ue_idle_sigma: float
    ue_connected_sigma: float
    # Initial top-level state probabilities (DEREGISTERED, CONNECTED, IDLE).
    start_state_probs: tuple[float, float, float] = (0.05, 0.15, 0.80)
    diurnal: DiurnalProfile = field(default_factory=DiurnalProfile.flat)

    def __post_init__(self) -> None:
        for label, probs in (
            ("CONNECTED event", [p for _, p in self.connected_event_menu()]),
            ("IDLE event", [p for _, p in self.idle_event_menu()]),
            ("start-state", list(self.start_state_probs)),
        ):
            if not is_distribution(probs):
                raise ValueError(
                    f"{self.name}: {label} probabilities must be non-negative "
                    f"and sum to 1 (within {SUM_TOLERANCE:.1e}); got {probs}"
                )

    def connected_event_menu(self) -> tuple[tuple[str, float], ...]:
        return (
            ("HO", self.p_ho),
            ("TAU", self.p_tau_connected),
            ("S1_CONN_REL", self.p_release),
            ("DTCH", self.p_detach_connected),
        )

    def idle_event_menu(self) -> tuple[tuple[str, float], ...]:
        return (
            ("SRV_REQ", self.p_service_request),
            ("TAU", self.p_tau_idle),
            ("DTCH", self.p_detach_idle),
        )


def _ln(median_seconds: float) -> float:
    """Log-normal ``mu`` for a given median in seconds."""
    return float(np.log(median_seconds))


#: Phones: many short data sessions; CONNECTED sojourns mostly 5-50 s
#: (Figure 2); evening activity peak.
_PHONE = DeviceProfile(
    name=DeviceType.PHONE,
    connected_dwell=LogNormalMixture(
        ((0.70, _ln(10.0), 0.70), (0.30, _ln(30.0), 0.60))
    ),
    idle_dwell=LogNormalMixture(((0.60, _ln(60.0), 1.00), (0.40, _ln(300.0), 0.80))),
    deregistered_dwell=LogNormalMixture(((1.0, _ln(600.0), 1.00),)),
    p_ho=0.0555,
    p_tau_connected=0.0060,
    p_release=0.9375,
    p_detach_connected=0.0010,
    p_service_request=0.9730,
    p_tau_idle=0.0250,
    p_detach_idle=0.0020,
    ue_idle_sigma=0.55,
    ue_connected_sigma=0.35,
    diurnal=DiurnalProfile((Harmonic(0.50, peak_hour=20.0),)),
)

#: Connected cars: high mobility (handovers, TAUs), commute-hour peaks,
#: longer idle periods around 200-300 s (Figure 5, middle row).
_CONNECTED_CAR = DeviceProfile(
    name=DeviceType.CONNECTED_CAR,
    connected_dwell=LogNormalMixture(
        ((0.50, _ln(20.0), 0.60), (0.50, _ln(60.0), 0.70))
    ),
    idle_dwell=LogNormalMixture(((0.35, _ln(90.0), 0.60), (0.65, _ln(260.0), 0.70))),
    deregistered_dwell=LogNormalMixture(((1.0, _ln(900.0), 0.90),)),
    p_ho=0.1550,
    p_tau_connected=0.0300,
    p_release=0.8070,
    p_detach_connected=0.0080,
    p_service_request=0.9030,
    p_tau_idle=0.0850,
    p_detach_idle=0.0120,
    ue_idle_sigma=0.35,
    ue_connected_sigma=0.25,
    diurnal=DiurnalProfile(
        (Harmonic(0.35, peak_hour=8.0, cycles_per_day=2), Harmonic(0.20, peak_hour=17.0))
    ),
)

#: Tablets: bursty, less frequent use; more attach/detach churn; longest
#: idle tails.
_TABLET = DeviceProfile(
    name=DeviceType.TABLET,
    connected_dwell=LogNormalMixture(((0.60, _ln(8.0), 0.80), (0.40, _ln(25.0), 0.70))),
    idle_dwell=LogNormalMixture(((0.50, _ln(120.0), 1.10), (0.50, _ln(500.0), 0.90))),
    deregistered_dwell=LogNormalMixture(((1.0, _ln(1200.0), 1.10),)),
    p_ho=0.0500,
    p_tau_connected=0.0120,
    p_release=0.9250,
    p_detach_connected=0.0130,
    p_service_request=0.9450,
    p_tau_idle=0.0450,
    p_detach_idle=0.0100,
    ue_idle_sigma=0.70,
    ue_connected_sigma=0.40,
    start_state_probs=(0.10, 0.10, 0.80),
    diurnal=DiurnalProfile((Harmonic(0.60, peak_hour=21.0),)),
)

DEVICE_PROFILES: dict[str, DeviceProfile] = {
    DeviceType.PHONE: _PHONE,
    DeviceType.CONNECTED_CAR: _CONNECTED_CAR,
    DeviceType.TABLET: _TABLET,
}


def get_profile(device_type: str) -> DeviceProfile:
    """Profile for ``device_type``; raises ``KeyError`` for unknown types."""
    DeviceType.validate(device_type)
    return DEVICE_PROFILES[device_type]
