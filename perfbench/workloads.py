"""The two workloads: set-up, one step, and its correctness gate.

Each workload is a closed loop with one client.  Step i runs kind
order[i % len(order)], where order is a seed-derived permutation of the six
schemes (curve-session) or the six lab kinds, and takes its session seed
from the workload seed and i.  An op, the unit of every per-op metric, is
kinds_per_op consecutive steps: one session on curve-session, one mix of
the six lab steps on lab-games.  Curve parameters are pinned, never
seed-derived.

  curve-session  pinned 160/512-bit type-A curve, in-process run_session.
                 Almost all time is tate arithmetic at real size.
  lab-games      transparent p = 1009: the security-game lab, its oracles
                 and the relay, and one loopback_session over a socketpair
                 with the prover on a second thread; no tate code at all.
"""

from __future__ import annotations

import math
import tempfile
import time
from pathlib import Path
from random import Random

from pairid import bench, lab, records, schemes, session, signatures
from pairid.algebra import GroupSuite, transparent_suite
from pairid.schemes import SchemeId

import params as real_params

# Every REPLAY_EVERY-th session transcript is replayed against other keys.
# Coprime to 6 so that every scheme gets replayed.
REPLAY_EVERY = 7


class GateFailure(Exception):
    """An output of the program failed an independent check."""


def _alt_key_count(p: int) -> int:
    # A transcript replayed under an unrelated key is accepted with
    # probability about 1/p.  At p = 131 that happens by chance, so the gate
    # only fails when every one of k alternative keys accepts, with k chosen
    # so that p^-k <= 2^-40.  At real size k = 1.
    return max(1, math.ceil(40 / math.log2(p)))


def _same_key(a, b) -> bool:
    return all(getattr(a, f) == getattr(b, f) for f in vars(a) if f != "suite")


class Workload:
    name = ""
    kinds: tuple = ()
    kinds_per_op = 1
    # Counts are taken over the first prefix_ops ops of the traced phase, a
    # whole number of rounds that every traced run completes, so they repeat
    # exactly for a given seed.
    prefix_ops = 0

    def __init__(self, seed: str):
        self.seed = seed
        self.order = Random(f"{seed}:order").sample(self.kinds, len(self.kinds))

    def build_suite(self) -> GroupSuite:
        raise NotImplementedError

    def setup(self, workdir: Path) -> dict:
        """Build the suite, generate one key per scheme, round-trip each key
        through records; returns the set-up part times in ms.  The import of
        pairid.cli, the rest of set-up, is timed by the caller."""
        t0 = time.perf_counter()
        self.suite = self.build_suite()
        t1 = time.perf_counter()
        self.params = schemes.default_scheme_params(self.suite)
        generated = self._keygen()
        t2 = time.perf_counter()
        self.keys = {}
        load_s = 0.0
        for s, kp in generated.items():
            path = workdir / f"{s.value}.key"
            records.save_key(path, s, kp, self.params)
            t = time.perf_counter()
            _, self.keys[s], _ = records.load_key(path)
            load_s += time.perf_counter() - t
        t3 = time.perf_counter()
        for s, kp in generated.items():
            if not _same_key(kp, self.keys[s]):
                raise GateFailure(f"{s.value} key changed in a save/load round trip")
        return {
            "suite_build_ms": (t1 - t0) * 1e3,
            "keygen_ms": (t2 - t1) * 1e3,
            "load_key_ms": load_s * 1e3 / len(generated),
            "roundtrip_ms": (t3 - t2) * 1e3,
        }

    def bench_gate(self) -> list[str]:
        """bench.bench_all on this suite; names of rows that miss EXPECTED."""
        return [r.scheme.value for r in bench.bench_all(self.suite, sessions=2) if not r.matches]

    def _keygen(self) -> dict:
        return {s: schemes.keygen(s, self.suite, Random(f"{self.seed}:key:{s.value}")) for s in SchemeId}

    def use_counted_suite(self):
        """Switch to a counted clone of the suite with the same keys."""
        self.suite = GroupSuite(self.suite.backend, counted=True)
        self.keys = self._keygen()

    def op_seed(self, i: int) -> str:
        return f"{self.seed}:op{i}"

    def run(self, i: int, kind):
        raise NotImplementedError

    def check(self, i: int, kind, result) -> dict:
        """Raise GateFailure on a wrong output; return per-op tallies."""
        raise NotImplementedError


class SessionWorkload(Workload):
    kinds = tuple(SchemeId)
    prefix_ops = 24

    def setup(self, workdir: Path) -> dict:
        parts = super().setup(workdir)
        k = _alt_key_count(self.suite.p)
        self.alt_pks = {
            s: [schemes.keygen(s, self.suite, Random(f"{self.seed}:alt{j}:{s.value}")).public() for j in range(k)]
            for s in SchemeId
        }
        return parts

    def _valid_under_every_key(self, t: schemes.Transcript) -> bool:
        # Test-vector hashing, on transparent suites, maps a BLS-ID challenge
        # that is a multiple of p to the identity; the honest response is
        # then the identity too, which verifies under every key.  At p = 1009
        # about one BLS-ID transcript in a thousand is such.
        return SchemeId(t.scheme) == SchemeId.BLSID and signatures.hash_to_group(
            t.challenge[0], self.params.hash_spec, self.suite).is_identity

    def _check_transcript(self, i: int, t: schemes.Transcript):
        if not t.decision:
            raise GateFailure(f"step {i}: honest {t.scheme.value} session rejected")
        if i % REPLAY_EVERY == 0 and not self._valid_under_every_key(t):
            alts = self.alt_pks[schemes.SchemeId(t.scheme)]
            if all(schemes.replay_decision(t, pk) for pk in alts):
                raise GateFailure(f"step {i}: {t.scheme.value} transcript verifies under unrelated keys")


class CurveSession(SessionWorkload):
    name = "curve-session"

    def build_suite(self):
        return real_params.real_suite()

    def run(self, i, kind):
        kp = self.keys[kind]
        return schemes.run_session(kind, kp, kp.suite, seed=self.op_seed(i))

    def check(self, i, kind, t):
        self._check_transcript(i, t)
        return {"restarts": t.restarts}


class LabGames(SessionWorkload):
    name = "lab-games"
    kinds = ("omcdh", "forgery", "summary-row", "inverter", "mitm", "loopback")
    # One op is one step of each kind.  The kinds take from 0.1 to 0.7 ms,
    # so the median of single steps fell in a sparse gap between them and
    # moved by 20-25% from run to run.
    kinds_per_op = len(kinds)
    prefix_ops = 100

    def build_suite(self):
        return transparent_suite(1009)

    def run(self, i, kind):
        seed = self.op_seed(i)
        suite = self.suite
        if kind == "omcdh":
            attacker = lab.ScriptedCdhidAttacker(0.6, queries=4)
            return lab.cdhid_reduction_game(attacker, suite, q=4, trials=1, seed=seed)
        if kind == "forgery":
            attacker = lab.ScriptedBlsidAttacker(n=self.params.n, queries=8)
            config = signatures.ForgeryGameConfig(q_s=8, q_h=32, trials=1, seed=seed)
            return signatures.forgery_game("bls", lab.blsid_forger(attacker, self.params), config, suite)
        if kind == "summary-row":
            rng = Random(seed)
            challenges = [(suite.g1_from_int(k),) for k in rng.sample(range(1, suite.p), 8)]
            sim = lab.ProtocolSim(SchemeId.CDHID, self.keys[SchemeId.CDHID], self.params, q=2)
            return lab.build_summary_matrix(lab.ScriptedCdhidAttacker(0.5, queries=2), sim, [seed], challenges)
        if kind == "inverter":
            rng = Random(seed)
            P = suite.random_g1(rng, nonidentity=True)
            y = suite.random_g2(rng, nonidentity=True)
            try:
                Z = lab.owfid_inverter(lab.ScriptedOwfidAttacker(0.4), P, y, suite, mode="iterated", eps=0.4, rng=rng)
            except lab.InversionFailed:
                Z = None
            return P, y, Z
        if kind == "loopback":
            scheme = self._loopback_scheme(i)
            return session.loopback_session(scheme, self.keys[scheme], seed=seed)
        clean = lab.mitm_relay_demo(suite, SchemeId.HLS, seed=seed)
        flipped = lab.mitm_relay_demo(suite, SchemeId.HLS, seed=seed, flip=(2, 5, 0))
        return clean, flipped

    def _loopback_scheme(self, i: int) -> SchemeId:
        """The scheme of a loopback step: the six in turn, one per mix."""
        return tuple(SchemeId)[(i // len(self.kinds)) % len(SchemeId)]

    def check(self, i, kind, result) -> dict:
        if kind == "omcdh":
            if result.trials != 1 or result.queries["cdh"] != 4:
                raise GateFailure(f"step {i}: one-more game did not spend exactly 4 helper queries")
            return {"wins": result.wins, "win_attempts": 1, "queries": result.queries["cdh"]}
        if kind == "forgery":
            if result.trials != 1 or result.queries["sign"] != 8:
                raise GateFailure(f"step {i}: forgery game did not spend exactly 8 sign queries")
            return {"wins": result.wins, "win_attempts": 1, "queries": result.queries["sign"] + result.queries["hash"]}
        if kind == "summary-row":
            if result.shape != (1, 8) or any(b not in (0, 1) for b in result.bits[0]):
                raise GateFailure(f"step {i}: summary row is not 8 acceptance bits")
            return {"wins": result.ones(), "win_attempts": 8}
        if kind == "inverter":
            P, y, Z = result
            if Z is not None and self.suite.pairing(P, Z) != y:
                raise GateFailure(f"step {i}: returned preimage fails e(P, Z) = y")
            return {"inversions": 1, "inverted": int(Z is not None)}
        if kind == "loopback":
            scheme = self._loopback_scheme(i)
            prover, verifier = result
            if not (prover.decision and verifier.decision):
                raise GateFailure(f"step {i}: {scheme.value} loopback did not accept on both ends")
            tp, tv = prover.transcript, verifier.transcript
            if (tp.commitment, tp.challenge, tp.response) != (tv.commitment, tv.challenge, tv.response):
                raise GateFailure(f"step {i}: {scheme.value} endpoints disagree on the transcript")
            self._check_transcript(i, tv)
            return {"restarts": verifier.restarts}
        clean, flipped = result
        if not clean.decision or len(clean.frames) != 3:
            raise GateFailure(f"step {i}: verbatim relay was not accepted over 3 frames")
        if flipped.decision:
            raise GateFailure(f"step {i}: bit-flipped relay was accepted")
        return {}


WORKLOADS = {w.name: w for w in (CurveSession, LabGames)}


def setup_workload(name: str, seed: str, root: Path) -> tuple[Workload, dict]:
    workload = WORKLOADS[name](seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        parts = workload.setup(Path(tmp))
    return workload, parts
