"""Declarative two-level hierarchical state machines.

The paper (Figure 1) uses two-level machines: a top level with three UE
states and a bottom level of sub-states that record *how* the UE entered
the top-level state.  Legality of an event depends only on the current
top-level state; the sub-state disambiguates transition targets (e.g.
which release sub-state an ``S1_CONN_REL`` lands in) and gives the
violation reports their paper-style labels (``S1_REL_S, HO``).

Machines are pure data (:class:`MachineSpec`), so the 4G and 5G variants
in :mod:`repro.statemachine.lte` / :mod:`repro.statemachine.nr` are just
transition tables — mirroring the paper's point that this domain
knowledge is exactly the part SMM needs and CPT-GPT does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import EventVocabulary

__all__ = ["MachineSpec", "StateMachine", "MachineState"]


@dataclass(frozen=True)
class MachineState:
    """A (top-level state, sub-state) pair."""

    top: str
    sub: str

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"{self.top}/{self.sub}"


@dataclass(frozen=True)
class MachineSpec:
    """Declarative description of a two-level hierarchical machine.

    Attributes
    ----------
    name:
        Human-readable identifier ("4G" / "5G").
    vocabulary:
        The event vocabulary this machine understands.
    top_states:
        Top-level state names.
    sub_states:
        Mapping of top-level state to its sub-state names.
    transitions:
        Mapping ``(top_state, event) -> (new_top, new_sub)``.  ``new_sub``
        may be a plain name or a callable-free mapping from the *current*
        sub-state to the landing sub-state (to express Figure 1a's two
        release sub-states).
    bootstrap_events:
        Events with a deterministic destination regardless of source
        state (§5.2.1's bootstrap heuristic), mapped to that destination.
    connected_state / idle_state:
        Names of the top-level states whose sojourn times the fidelity
        metrics report (CONNECTED / IDLE in 4G 3GPP terms).
    """

    name: str
    vocabulary: EventVocabulary
    top_states: tuple[str, ...]
    sub_states: dict[str, tuple[str, ...]]
    transitions: dict[tuple[str, str], tuple[str, str | dict[str, str]]]
    bootstrap_events: dict[str, tuple[str, str]]
    connected_state: str
    idle_state: str
    initial: MachineState | None = field(default=None)

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on problems."""
        for top, subs in self.sub_states.items():
            if top not in self.top_states:
                raise ValueError(f"sub-states declared for unknown state {top!r}")
            if not subs:
                raise ValueError(f"state {top!r} has no sub-states")
        for (top, event), (new_top, new_sub) in self.transitions.items():
            if top not in self.top_states:
                raise ValueError(f"transition from unknown state {top!r}")
            if event not in self.vocabulary:
                raise ValueError(f"transition on unknown event {event!r}")
            if new_top not in self.top_states:
                raise ValueError(f"transition to unknown state {new_top!r}")
            if isinstance(new_sub, str):
                landings = (new_sub,)
            else:
                landings = tuple(new_sub.values())
            for sub in landings:
                if sub not in self.sub_states[new_top]:
                    raise ValueError(
                        f"transition lands in unknown sub-state {new_top}/{sub}"
                    )
        for event, (top, sub) in self.bootstrap_events.items():
            if event not in self.vocabulary:
                raise ValueError(f"bootstrap on unknown event {event!r}")
            if sub not in self.sub_states[top]:
                raise ValueError(f"bootstrap lands in unknown sub-state {top}/{sub}")
        for state in (self.connected_state, self.idle_state):
            if state not in self.top_states:
                raise ValueError(f"sojourn state {state!r} not a top-level state")

    def transition_table(self) -> dict[tuple[str, str, str], tuple[str, str]]:
        """Flat ``(top, sub, event) -> (new_top, new_sub)`` view of the transitions.

        A missing key is a violation, exactly as :meth:`StateMachine.step`
        judges it.  Table-driven walkers build this once and step with one
        dict lookup instead of a machine per stream.
        """
        table: dict[tuple[str, str, str], tuple[str, str]] = {}
        for (top, event), (new_top, new_sub) in self.transitions.items():
            for sub in self.sub_states[top]:
                landing = new_sub.get(sub) if isinstance(new_sub, dict) else new_sub
                if landing is not None:
                    table[(top, sub, event)] = (new_top, landing)
        return table


class StateMachine:
    """Executable instance of a :class:`MachineSpec`.

    The machine is a small pure object: :meth:`step` consumes one event
    and reports whether it was legal.  Violating events leave the state
    unchanged (the replay rule in §5.2.1 of the paper).
    """

    def __init__(self, spec: MachineSpec, state: MachineState | None = None) -> None:
        """Create a machine in ``state``.

        ``state=None`` means *undetermined*: the replay engine starts
        machines this way and determines the state via
        :meth:`try_bootstrap`.  Generators that know the UE's starting
        condition pass an explicit state (e.g. ``spec.initial``).
        """
        spec.validate()
        self.spec = spec
        self.state = state

    @property
    def started(self) -> bool:
        """Whether the machine has a determined state (post-bootstrap)."""
        return self.state is not None

    def legal_events(self) -> tuple[str, ...]:
        """Events that would be accepted in the current state."""
        if self.state is None:
            return tuple(self.spec.bootstrap_events)
        top = self.state.top
        return tuple(
            event for (state, event) in self.spec.transitions if state == top
        )

    def try_bootstrap(self, event: str) -> bool:
        """Attempt to determine the initial state from ``event``.

        Returns True when ``event`` is one of the deterministic-destination
        bootstrap events; the machine then enters the mapped state.
        """
        if self.started:
            raise RuntimeError("machine already bootstrapped")
        dest = self.spec.bootstrap_events.get(event)
        if dest is None:
            return False
        self.state = MachineState(*dest)
        return True

    def step(self, event: str) -> bool:
        """Consume one event.

        Returns
        -------
        bool
            True when the event is a legal transition.  On violation the
            state is left unchanged and False is returned.
        """
        if self.state is None:
            raise RuntimeError("machine must be bootstrapped before stepping")
        if event not in self.spec.vocabulary:
            raise KeyError(f"unknown event {event!r} for machine {self.spec.name}")
        target = self.spec.transitions.get((self.state.top, event))
        if target is None:
            return False
        new_top, new_sub = target
        if isinstance(new_sub, dict):
            sub = new_sub.get(self.state.sub)
            if sub is None:
                return False
        else:
            sub = new_sub
        self.state = MachineState(new_top, sub)
        return True
