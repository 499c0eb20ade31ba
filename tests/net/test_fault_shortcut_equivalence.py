"""The link-indexed fault shortcut decides exactly what the full path does.

``FaultPlan.apply`` (and ``Network.send``'s inline copy of its test)
skips the fault evaluation for a message on a link no surgical directive
names, as long as the plan is an exact ``FaultPlan`` with no crash and no
drop/corrupt probability.  These tests run seeded random plans — every
directive kind, probabilities, directives added mid-run on links that
were untouched until then, crash-then-restore, and a subclass overriding
``apply`` — against :class:`ReferenceFaults`, a plain evaluator that
re-derives every decision from the directive list for every message.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest

from repro.net.faults import FaultDirective, FaultPlan, FaultStatistics
from repro.net.latency import UniformLatency
from repro.net.message import Envelope
from repro.net.network import Network
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import SeededStreams


class Ping:
    pass


class Pong:
    pass


class CommitMessage:
    pass


PAYLOADS = (Ping, Pong, CommitMessage)
TYPE_NAMES = tuple(cls.__name__ for cls in PAYLOADS)
LINK_KINDS = ("drop_nth", "corrupt_nth", "delay_link", "delay_type",
              "delay_nth")


class ReferenceFaults:
    """The full fault decision, evaluated from scratch for every message."""

    def __init__(self, seed: int, drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0) -> None:
        self.streams = SeededStreams(seed)
        self.drop_probability = drop_probability
        self.corrupt_probability = corrupt_probability
        self.directives: List[FaultDirective] = []
        self.counts: Dict[Tuple[str, str], int] = {}
        self.stats = FaultStatistics()

    def add(self, directive: FaultDirective) -> None:
        self.directives.append(directive)

    def crashed(self, node: str, now: float) -> bool:
        always, crash_at, restore_at = False, None, None
        for d in self.directives:
            if d.node != node:
                continue
            if d.kind == "crash":
                if d.at_time is None:
                    always = True
                else:
                    crash_at = d.at_time
            elif d.kind == "restore":
                if d.at_time is None:
                    always, crash_at, restore_at = False, None, None
                else:
                    restore_at = d.at_time
        if restore_at is not None and now >= restore_at:
            return False
        return always or (crash_at is not None and now >= crash_at)

    @staticmethod
    def _last_extra(directives, kind: str, match) -> float:
        """The extra of the last matching directive (later ones replace)."""
        extra = 0.0
        for d in directives:
            if d.kind == kind and match(d):
                extra = d.extra
        return extra

    def apply(self, envelope: Envelope, now: float) -> Tuple[bool, float]:
        link = (envelope.source, envelope.destination)
        n = self.counts[link] = self.counts.get(link, 0) + 1
        on_link = [d for d in self.directives
                   if (d.source, d.destination) == link]
        if self.crashed(envelope.source, now) or self.crashed(
                envelope.destination, now):
            self.stats.blocked_by_crash += 1
            return False, 0.0
        if any(d.kind == "drop_nth" and d.n == n for d in on_link):
            self.stats.dropped += 1
            return False, 0.0
        if self.drop_probability and \
                self.streams.random("drop") < self.drop_probability:
            self.stats.dropped += 1
            return False, 0.0
        if any(d.kind == "corrupt_nth" and d.n == n for d in on_link):
            envelope.corrupted = True
            self.stats.corrupted += 1
        elif self.corrupt_probability and \
                self.streams.random("corrupt") < self.corrupt_probability:
            envelope.corrupted = True
            self.stats.corrupted += 1
        type_name = type(envelope.payload).__name__
        extra = self._last_extra(on_link, "delay_link", lambda d: True)
        extra += self._last_extra(on_link, "delay_type",
                                  lambda d: d.type_name == type_name)
        extra += self._last_extra(on_link, "delay_nth", lambda d: d.n == n)
        if extra:
            self.stats.delayed += 1
        return True, extra


class CountingPlan(FaultPlan):
    """A subclass overriding ``apply``: it must always take the full path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = 0

    def apply(self, envelope: Envelope, now: float) -> Tuple[bool, float]:
        self.calls += 1
        return super().apply(envelope, now)


class ReferencePlan(FaultPlan):
    """Routes a network's fault decisions to a :class:`ReferenceFaults`."""

    def __init__(self, reference: ReferenceFaults) -> None:
        super().__init__()
        self.reference = reference

    def apply(self, envelope: Envelope, now: float) -> Tuple[bool, float]:
        return self.reference.apply(envelope, now)


# ----------------------------------------------------------------------
# Seeded scenarios
# ----------------------------------------------------------------------
def random_directive(rng: random.Random, nodes: List[str], kind: str,
                     link=None, horizon: float = 10.0) -> FaultDirective:
    if kind in ("crash", "restore"):
        at_time = None if rng.random() < 0.4 else round(
            rng.uniform(0.0, horizon), 2)
        return FaultDirective(kind, node=rng.choice(nodes), at_time=at_time)
    source, destination = link or tuple(rng.sample(nodes, 2))
    return FaultDirective(
        kind, source=source, destination=destination,
        n=rng.randint(1, 6), extra=rng.choice((0.0, 0.25, 0.5, 1.5)),
        type_name=rng.choice(TYPE_NAMES))


def scenario(seed: int):
    """A seeded plan, message script and mid-run mutations.

    Returns ``(nodes, config, initial directives, script)``; ``script``
    is a list of ``("send", src, dst, payload_cls, now)`` and
    ``("add", directive)`` steps in order.
    """
    rng = random.Random(seed)
    nodes = [f"N{i}" for i in range(rng.choice((4, 5)))]
    # About half the plans carry no global fault, so the shortcut is live.
    probabilistic = rng.random() < 0.5
    config = {
        "seed": seed,
        "drop_probability": rng.choice((0.1, 0.3)) if probabilistic else 0.0,
        "corrupt_probability": (rng.choice((0.0, 0.2)) if probabilistic
                                else 0.0),
    }
    kinds = LINK_KINDS + (("crash", "restore") if rng.random() < 0.5 else ())
    directives = [random_directive(rng, nodes, rng.choice(kinds))
                  for _ in range(rng.randint(0, 8))]
    named = {(d.source, d.destination) for d in directives if d.source}
    untouched = [(a, b) for a in nodes for b in nodes
                 if a != b and (a, b) not in named]
    late_link = rng.choice(untouched)

    script: List[tuple] = []
    now = 0.0
    crash_node = rng.choice(nodes)
    for step in range(240):
        if step == 80:
            # A directive on a link untouched until now, keyed on an
            # ordinal still ahead of it: counting must have continued.
            seen = sum(1 for s in script
                       if s[0] == "send" and (s[1], s[2]) == late_link)
            late = random_directive(rng, nodes, rng.choice(LINK_KINDS),
                                    link=late_link)
            script.append(("add", replace(late, n=seen + rng.randint(1, 4),
                                          extra=late.extra or 0.5)))
        elif step == 140:
            script.append(("add", FaultDirective("crash", node=crash_node)))
        elif step == 180:
            script.append(("add", FaultDirective("restore", node=crash_node)))
        source, destination = (late_link if rng.random() < 0.2
                               else tuple(rng.sample(nodes, 2)))
        now += rng.choice((0.0, 0.0, 0.05, 0.2))
        script.append(("send", source, destination, rng.choice(PAYLOADS),
                       now))
    return nodes, config, directives, script


def build_plan(cls, config, directives):
    plan = cls(streams=SeededStreams(config["seed"]),
               drop_probability=config["drop_probability"],
               corrupt_probability=config["corrupt_probability"])
    for directive in directives:
        plan.apply_directive(directive)
    return plan


def build_reference(config, directives) -> ReferenceFaults:
    reference = ReferenceFaults(config["seed"], config["drop_probability"],
                                config["corrupt_probability"])
    for directive in directives:
        reference.add(directive)
    return reference


SEEDS = range(48)


# ----------------------------------------------------------------------
# Per-message decisions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plan_cls", [FaultPlan, CountingPlan],
                         ids=["exact", "subclass"])
@pytest.mark.parametrize("seed", SEEDS)
def test_decisions_match_the_reference(seed, plan_cls):
    _nodes, config, directives, script = scenario(seed)
    plan = build_plan(plan_cls, config, directives)
    reference = build_reference(config, directives)
    sequence = 0
    for step in script:
        if step[0] == "add":
            plan.apply_directive(step[1])
            reference.add(step[1])
            continue
        _, source, destination, payload_cls, now = step
        sequence += 1
        payload = payload_cls()
        ours = Envelope(source, destination, payload, now)
        theirs = Envelope(source, destination, payload, now)
        got = plan.apply(ours, now) + (ours.corrupted,)
        want = reference.apply(theirs, now) + (theirs.corrupted,)
        assert got == want, (seed, sequence, step)
    assert plan.stats == reference.stats
    if plan_cls is CountingPlan:
        assert not plan._shortcut
        assert plan.calls == sequence


@pytest.mark.parametrize("seed", SEEDS)
def test_shortcut_state_tracks_global_faults(seed):
    _nodes, config, directives, script = scenario(seed)
    plan = build_plan(FaultPlan, config, directives)
    has_global = bool(config["drop_probability"]
                      or config["corrupt_probability"]
                      or any(d.kind == "crash" for d in directives))
    if not has_global:
        assert plan._shortcut
    for step in script:
        if step[0] == "add":
            plan.apply_directive(step[1])
    # The script ends with an immediate restore of its crashed node, so
    # the shortcut is back exactly when nothing else is global.
    assert plan._shortcut == (
        not config["drop_probability"] and not config["corrupt_probability"]
        and not plan._crashed_nodes and not plan._crash_times)
    assert plan._surgical_links == {
        (d.source, d.destination) for d in plan.directives
        if d.kind in LINK_KINDS}


def test_the_shortcut_is_exercised():
    # Guard against a scenario generator that never leaves the shortcut
    # live: most seeds must have an exact plan with no global fault.
    live = 0
    for seed in SEEDS:
        _nodes, config, directives, _script = scenario(seed)
        live += build_plan(FaultPlan, config, directives)._shortcut
    assert live >= len(SEEDS) // 4


# ----------------------------------------------------------------------
# Network.send end to end
# ----------------------------------------------------------------------
def drive(nodes, script, faults, latency_seed):
    kernel = Kernel()
    network = Network(kernel,
                      latency=UniformLatency(0.0, 0.4,
                                             SeededStreams(latency_seed)),
                      faults=faults)
    for name in nodes:
        network.add_node(name)
    deliveries = []
    for step in script:
        if step[0] == "add":
            if isinstance(faults, ReferencePlan):
                faults.reference.add(step[1])
            else:
                faults.apply_directive(step[1])
            continue
        _, source, destination, payload_cls, now = step
        if now > kernel.now:
            kernel.run(until=now)
        envelope = network.send(source, destination, payload_cls())
        deliveries.append((source, destination, payload_cls.__name__,
                           envelope.deliver_time, envelope.corrupted))
    kernel.run()
    received = {name: [(e.source, type(e.payload).__name__, e.deliver_time)
                       for e in network.node(name).inbox.peek_all()]
                for name in nodes}
    return deliveries, network.stats.snapshot(), received


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_network_send_matches_the_reference(seed):
    nodes, config, directives, script = scenario(seed)
    plan = build_plan(FaultPlan, config, directives)
    reference = ReferencePlan(build_reference(config, directives))
    ours = drive(nodes, script, plan, latency_seed=seed)
    theirs = drive(nodes, script, reference, latency_seed=seed)
    assert ours[0] == theirs[0]  # deliver_time (None = dropped) per envelope
    assert ours[1] == theirs[1]  # MessageStatistics snapshot
    assert ours[2] == theirs[2]  # what each node received, in order
    assert plan.stats == reference.reference.stats
