"""Per-session cost accounting for all six protocols.

Costs are measured, not asserted: a counted suite clone runs real sessions
and the counter is compared against the expected table.  Counting rules:
only exponentiations and pairings performed under an active role count, so
sampling, hashing, key generation, group multiplications, and inverses are
all free; bandwidth is tallied per transmitted protocol message (decision
and handshake frames excluded), split by payload kind.  The per-scheme
expectations below are what the protocol algebra dictates.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .algebra import GroupSuite
from .schemes import SchemeId, keygen, run_session


class NonDeterministicCosts(Exception):
    """Two honest sessions of one scheme disagreed on operation counts."""


@dataclass(frozen=True)
class CostTable:
    """Bandwidth in elements per session, plus per-role operation counts."""

    g1: int
    g2: int
    zp: int
    nbit: int
    prover_g1_exp: int
    prover_g2_exp: int
    prover_pairings: int
    verifier_g1_exp: int
    verifier_g2_exp: int
    verifier_pairings: int


EXPECTED: dict[SchemeId, CostTable] = {
    SchemeId.BLSID: CostTable(1, 0, 0, 1, 1, 0, 0, 0, 0, 2),
    SchemeId.CDHID: CostTable(2, 0, 0, 0, 1, 0, 0, 0, 0, 2),
    SchemeId.SDHID: CostTable(1, 0, 2, 0, 1, 0, 0, 2, 0, 1),
    SchemeId.OWFID: CostTable(1, 1, 2, 0, 1, 1, 1, 0, 2, 1),
    SchemeId.SCL: CostTable(2, 0, 1, 0, 2, 0, 0, 1, 0, 1),
    SchemeId.HLS: CostTable(1, 1, 1, 0, 2, 1, 0, 0, 1, 1),
}


@dataclass
class BenchResult:
    scheme: SchemeId
    measured: CostTable
    expected: CostTable
    matches: bool
    sent_bytes: dict
    redraws: int
    sessions: int

    def line(self) -> str:
        m = self.measured
        mark = "ok" if self.matches else "MISMATCH"
        return (
            f"{self.scheme.value:6s} bw[g1={m.g1} g2={m.g2} zp={m.zp} nbit={m.nbit}] "
            f"prover[exp1={m.prover_g1_exp} exp2={m.prover_g2_exp} pair={m.prover_pairings}] "
            f"verifier[exp1={m.verifier_g1_exp} exp2={m.verifier_g2_exp} pair={m.verifier_pairings}] "
            f"{mark}"
        )


def bench_costs(scheme: SchemeId, suite: GroupSuite, sessions: int = 4, seed="bench") -> BenchResult:
    """Measure one scheme over several honest sessions on a counted clone."""
    scheme = SchemeId(scheme)
    counted = GroupSuite(suite.backend, counted=True)
    kp = keygen(scheme, counted, Random(f"{seed}:keygen:{scheme.value}"))

    snapshots = []
    redraws = 0
    for i in range(sessions):
        counted.counter.reset()
        t = run_session(scheme, kp, counted, seed=f"{seed}:{i}")
        if not t.decision:
            raise RuntimeError("honest session must be accepted")
        snapshots.append(counted.counter.snapshot())
        redraws += counted.counter.redraws
    for snap in snapshots[1:]:
        if snap != snapshots[0]:
            raise NonDeterministicCosts(f"{scheme.value}: {snapshots[0]} vs {snap}")

    snap = snapshots[0]
    measured = CostTable(
        g1=snap["sent_elems"]["g1"],
        g2=snap["sent_elems"]["g2"],
        zp=snap["sent_elems"]["zp"],
        nbit=snap["sent_elems"]["nbits"],
        prover_g1_exp=snap["g1_exp"]["prover"],
        prover_g2_exp=snap["g2_exp"]["prover"],
        prover_pairings=snap["pairings"]["prover"],
        verifier_g1_exp=snap["g1_exp"]["verifier"],
        verifier_g2_exp=snap["g2_exp"]["verifier"],
        verifier_pairings=snap["pairings"]["verifier"],
    )
    expected = EXPECTED[scheme]
    return BenchResult(
        scheme=scheme,
        measured=measured,
        expected=expected,
        matches=measured == expected,
        sent_bytes=dict(snap["sent_bytes"]),
        redraws=redraws,
        sessions=sessions,
    )


def bench_all(suite: GroupSuite, sessions: int = 4, seed="bench") -> list[BenchResult]:
    return [bench_costs(scheme, suite, sessions, seed) for scheme in SchemeId]
