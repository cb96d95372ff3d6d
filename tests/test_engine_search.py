"""A bounded search of the session engine pair.

Every run drives schemes.exchange over one prover and one verifier engine,
and each delivery to either engine is a choice point of the search: the
message is delivered, dropped, duplicated, or replaced.  A replacement is
the restart frame, another error frame, a decision byte, a same-tag message
seen earlier in the run, the payload under another protocol tag, or a
payload one field (in memory) or one byte (on the wire) too long.  The
search replays the run from scratch for every schedule of choices over the
first DEPTH deliveries; later deliveries go through as sent.  Every run ends
before its DEPTH-th delivery, so the search covers every schedule.

Invariants, checked on every run:
- each receive returns messages or raises a PeerError;
- when nothing is in flight and the verifier has not decided, exchange
  raises instead of waiting on;
- the verifier decides at most once, and its decision equals
  replay_decision on its transcript;
- neither engine restarts more than MAX_RESTARTS times.
"""

import random

import pytest

from pairid.algebra import PeerError, transparent_suite
from pairid.schemes import (
    MAX_RESTARTS,
    RESTART,
    ProverMachine,
    SchemeId,
    VerifierMachine,
    exchange,
    keygen,
    replay_decision,
)
from pairid.tate import tate_suite
from pairid.wire import TAG_CHALLENGE, TAG_COMMITMENT, TAG_DECISION, TAG_ERROR, TAG_NAMES, TAG_RESPONSE

# Choice points per run.  Every fault here ends the session within a few
# deliveries: the longest run has three choice points.
DEPTH = 6
# A run that delivers more messages than this is reported as a runaway.
MAX_DELIVERIES = 40
PROTOCOL_TAGS = (TAG_COMMITMENT, TAG_CHALLENGE, TAG_RESPONSE)


class Violation(Exception):
    """A run broke one of the search's invariants."""


def choices(tag: int, payload, seen: list) -> list:
    """(name, messages delivered in its place) for each choice at one delivery."""
    out = [
        ("deliver", [(tag, payload)]),
        ("drop", []),
        ("duplicate", [(tag, payload)] * 2),
        ("restart", [(TAG_ERROR, RESTART)]),
        ("error", [(TAG_ERROR, b"going away")]),
        ("decision", [(TAG_DECISION, b"\x01")]),
    ]
    earlier = next((p for t, p in seen if t == tag and p != payload), None)
    if earlier is not None:
        out.append(("earlier", [(tag, earlier)]))
    if tag in PROTOCOL_TAGS:
        out += [(f"as {TAG_NAMES[other]}", [(other, payload)]) for other in PROTOCOL_TAGS if other != tag]
        out.append(("too long", [(tag, payload + payload[-1:])]))
    return out


class Run:
    """One run of exchange under a schedule: the choice taken at each point."""

    def __init__(self, scheme, kp, wire: bool, schedule: list):
        self.pk = kp.public()
        self.schedule = schedule
        self.widths: list = []  # the number of choices at each point reached
        self.path: list = []  # what each choice point did, for reports
        self.seen: list = []  # every message sent, in order
        self.deliveries = 0
        self.prover = Faulty(self, ProverMachine(scheme, kp, seed=0, wire=wire))
        self.verifier = Faulty(self, VerifierMachine(scheme, self.pk, seed=0, wire=wire))

    def outcome(self) -> str:
        try:
            transcript = exchange(self.prover, self.verifier)
        except PeerError as exc:
            return type(exc).__name__
        return "accept" if transcript.decision else "reject"

    def deliver(self, engine, tag: int, payload) -> list:
        self.deliveries += 1
        if self.deliveries > MAX_DELIVERIES:
            raise Violation(f"more than {MAX_DELIVERIES} deliveries")
        messages = [(tag, payload)]
        point = len(self.widths)
        if point < DEPTH:
            options = choices(tag, payload, self.seen)
            name, messages = options[self.schedule[point] if point < len(self.schedule) else 0]
            self.widths.append(len(options))
            self.path.append(f"{TAG_NAMES[tag]} to {engine.role}: {name}")
        self.seen.append((tag, payload))
        replies = []
        for delivered in messages:
            replies += self.receive(engine, *delivered)
        return replies

    def receive(self, engine, tag: int, payload) -> list:
        decided = engine.transcript()
        try:
            replies = engine.receive(tag, payload)
        except PeerError:
            raise
        except Exception as exc:
            raise Violation(f"{engine.role} receive raised {type(exc).__name__}: {exc}") from exc
        if not isinstance(replies, list) or not all(isinstance(m, tuple) and len(m) == 2 for m in replies):
            raise Violation(f"{engine.role} receive returned {replies!r}")
        if engine.restarts > MAX_RESTARTS:
            raise Violation(f"{engine.role} restarted {engine.restarts} times")
        transcript = engine.transcript()
        if engine.role == "verifier" and transcript is not decided:
            if decided is not None:
                raise Violation("the verifier decided twice")
            if transcript.decision != replay_decision(transcript, self.pk):
                raise Violation("the verifier's decision differs from replay_decision")
        return replies


class Faulty:
    """An engine as exchange sees it, with each delivery a choice point.

    exchange reads the verifier's transcript once per batch of messages, so
    a second read with no delivery since the first means that exchange went
    on with nothing in flight.
    """

    def __init__(self, run: Run, engine):
        self.run = run
        self.engine = engine
        self.read_at = None  # run.deliveries at the last transcript read

    def open(self) -> list:
        return self.engine.open()

    def receive(self, tag: int, payload) -> list:
        return self.run.deliver(self.engine, tag, payload)

    def transcript(self):
        transcript = self.engine.transcript()
        if transcript is None and self.read_at == self.run.deliveries:
            raise Violation("nothing in flight and no decision, and exchange waits on")
        self.read_at = self.run.deliveries
        return transcript


def search(scheme, kp, wire: bool) -> tuple[int, list, dict]:
    """(most choice points in one run, violations, outcome counts) over every schedule."""
    deepest, violations, outcomes = 0, [], {}
    schedule: list = []
    while True:
        run = Run(scheme, kp, wire, schedule)
        try:
            outcome = run.outcome()
        except Violation as exc:
            outcome = "violation"
            violations.append(f"{'; '.join(run.path)}: {exc}")
        deepest = max(deepest, len(run.widths))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        # The next schedule in order: advance the last point that has a choice left.
        taken = schedule + [0] * (len(run.widths) - len(schedule))
        point = len(taken) - 1
        while point >= 0 and taken[point] + 1 >= run.widths[point]:
            point -= 1
        if point < 0:
            return deepest, violations, outcomes
        schedule = taken[:point] + [taken[point] + 1]


SUITES = {"t1009": lambda: transparent_suite(1009), "c59": lambda: tate_suite(59)}


@pytest.mark.parametrize("wire", [False, True], ids=["memory", "wire"])
@pytest.mark.parametrize("suite_name", sorted(SUITES))
@pytest.mark.parametrize("scheme", list(SchemeId), ids=[s.value for s in SchemeId])
def test_engine_pair_keeps_its_invariants(scheme, suite_name, wire):
    kp = keygen(scheme, SUITES[suite_name](), random.Random(f"search:{scheme.value}"))
    deepest, violations, outcomes = search(scheme, kp, wire)
    assert violations == []
    assert deepest < DEPTH  # no run was cut short by the bound
    assert outcomes.get("accept", 0) >= 1  # the all-deliver schedule accepts


def test_the_search_reports_a_stall():
    kp = keygen(SchemeId.CDHID, transparent_suite(1009), random.Random(1))
    run = Run(SchemeId.CDHID, kp, False, [])
    assert run.verifier.transcript() is None
    with pytest.raises(Violation, match="nothing in flight"):
        run.verifier.transcript()  # read again with no delivery in between
