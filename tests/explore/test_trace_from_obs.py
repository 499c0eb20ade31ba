"""The canonical trace is rendered from the obs event stream.

The kernel section comes from ``kernel.step`` events and the coordinator
section from ``coord.note`` events, so the digest must not depend on how
the run was observed — and a missing event list must be an error, never
an empty section.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.explore import ExplorationPlan, run_case
from repro.explore.targets import get_target
from repro.explore.trace import canonical_trace, observe_for_trace
from repro.net.faults import FaultDirective

PLAN = ExplorationPlan(directives=(
    FaultDirective("delay_type", source="T2", destination="T3",
                   type_name="CommitMessage", extra=3.0),), tie_seed=7)


def _section(text: str, name: str):
    lines = text.split("\n")
    start = lines.index(f"== {name} ==") + 1
    end = next((i for i in range(start, len(lines))
                if lines[i].startswith("== ")), len(lines))
    return lines[start:end]


class TestDigestIndependentOfObservation:
    def test_same_digest_with_and_without_an_ambient_capture(self):
        bare = run_case("nested_abort", PLAN).digest
        with obs.capture(obs.ObsConfig()):
            default = run_case("nested_abort", PLAN).digest
        # full() records kernel steps itself: a second hook would double
        # every kernel line and move the digest.
        with obs.capture(obs.ObsConfig.full()):
            full = run_case("nested_abort", PLAN).digest
        assert bare == default == full

    def test_sections_are_rendered_from_events(self):
        system = get_target("nested_abort").build(PLAN.make_fault_plan(),
                                                  tie_seed=PLAN.tie_seed)
        observation = observe_for_trace(system)
        system.run()
        text = canonical_trace(system)
        events = observation.events
        steps = [e for e in events if e["kind"] == "kernel.step"]
        notes = [e for e in events if e["kind"] == "coord.note"]
        assert steps and notes
        assert len(_section(text, "kernel")) == len(steps)
        coordinators = _section(text, "coordinators")
        assert sorted(coordinators) == sorted(
            f"{e['thread']}: {e['text']}" for e in notes)
        # Grouped by thread in sorted partition order, event order within.
        threads = [line.split(":", 1)[0] for line in coordinators]
        assert threads == sorted(threads)


class TestMissingEventList:
    def test_canonical_trace_refuses_a_flight_only_capture(self):
        with obs.capture(obs.ObsConfig.flight_only()):
            system = get_target("nested_abort").build(
                PLAN.make_fault_plan(), tie_seed=PLAN.tie_seed)
        observe_for_trace(system)
        system.run()
        with pytest.raises(RuntimeError, match="event list"):
            canonical_trace(system)

    def test_run_case_under_a_flight_only_capture_raises(self):
        with obs.capture(obs.ObsConfig.flight_only()):
            with pytest.raises(RuntimeError, match="event list"):
                run_case("nested_abort", PLAN)

    def test_unobserved_system_is_refused(self):
        system = get_target("nested_abort").build(PLAN.make_fault_plan())
        system.run()
        with pytest.raises(RuntimeError, match="event list"):
            canonical_trace(system)
