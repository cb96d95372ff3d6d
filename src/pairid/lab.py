"""Executable security games: impersonation, rewinding, and reductions.

The lab treats an attacker as a deterministic function of a seed.  Every
random stream an attack run touches (attacker coins, honest prover coins,
honest verifier coins) is derived from that seed.  The honest parties are
session engines given the seed, each of which builds its stream at its first
draw, so a stream the run never draws from is never seeded.  Running the
same seed twice replays the attack exactly, and running the same seed with
a different forced challenge is a rewind: the commitment phase repeats
verbatim and only the challenge (and whatever depends on it) changes.  That
is all the machinery a forking-style extractor needs.  The seed-by-challenge
matrix rewinds without the replay: build_summary_matrix runs a seed's
verifier phase once and each challenge's prover phase on a copy of the
attacker stream as the challenge found it, which gives the replay's bits
because a prover phase leaves its verifier phase's state alone (the
AttackerPair contract).

Attackers implement two phases.  In the verifier phase they may interrogate
honest provers through a budgeted oracle; in the prover phase they get one
shot at convincing an honest verifier, whose engine (schemes.VerifierMachine)
they drive through its own start, on_commitment and on_response.  The
simulations reuse the scheme functions rather than restating them: the
simulator's key comes from schemes.owfid_keypair, the scripted owfid
attacker runs owfid_commit and owfid_respond, and every prover oracle, the
reductions' simulated provers among them, refuses a query by the scheme's
message rule, SchemeOps.check, with the honest prover's PeerError.
Scripted attackers with a chosen success rate are provided for calibrating
the statistical claims: they decide win/lose by a keyed hash over (their
per-seed nonce, the challenge), which makes the seed-by-challenge outcome
matrix a well-defined object that can be tabulated exhaustively.

The repeated games share one trial loop, signatures.run_trials, every oracle
counts its queries against one signatures.Budget, and every trial is judged
by signatures.unless_forfeit: an attacker that breaks a rule forfeits its
trial, and a reduction raises that Forfeit, never concedes.  An unknown
success rate eps is estimated once, by the pilot in probe_strategy; the
single-shot inverter never estimates it.  DEMOS names one demo per game;
run_demo sets it up and returns (passed, lines), which is all that
`pairid lab` prints and `pairid selftest` checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from math import ceil
from random import Random

from .algebra import KIND_BITS, KIND_G1, G1Element, G2Element, GroupSuite, PeerError, Scalar
from .schemes import (
    SCHEMES,
    OwfidKeyPair,
    ProverMachine,
    SchemeId,
    SchemeParams,
    Transcript,
    VerifierMachine,
    default_scheme_params,
    exchange,
    keygen,
    owfid_commit,
    owfid_keypair,
    owfid_respond,
    replay_decision,
)
from .signatures import (
    Budget,
    ExpKeyPair,
    ForgeryGameConfig,
    Forfeit,
    GameReport,
    MalformedQuery,
    forgery_game,
    hash_to_group,
    run_trials,
    unless_forfeit,
)
from .wire import TAG_CHALLENGE, frame_decode, frame_encode


class AttackFailed(Forfeit):
    """The attacker's forged response was rejected."""


class FreshnessCollision(Forfeit):
    """The verifier's random challenge landed on an already-signed message."""


class ProbeFailed(Exception):
    """The probing strategy ran out of probes before finding two accepts."""


class SameWitness(Exception):
    """Extraction returned the simulator's own key; nothing was learned."""


class MalformedTranscripts(Exception):
    """Transcript pair is unusable for extraction."""


class InversionFailed(Exception):
    """The pairing-inversion routine did not produce a preimage."""


class OrderingViolation(Forfeit):
    """An oracle was used outside its allowed phase."""


# -- honest counterparties -----------------------------------------------------


class HonestProverOracle(Budget):
    """Budgeted access to prover runs, with the caller as verifier.

    One begin()/finish() pair is one identification session and charges the
    oracle's Budget once; calls counts them.  query(challenge) is the
    two-message convenience form.
    The constructor runs the scheme's honest prover, whose sessions never go
    on the wire, so it takes no session settings; its sessions share one
    stream, Random(f"{seed}:prover"), built at the first draw.  answering()
    builds the oracle a reduction hands an attacker instead.  Either way
    finish() refuses a query before it records or answers it, by the
    scheme's message rule (SchemeOps.check) and with the honest prover's
    PeerError, which the games count as a forfeit.
    """

    def __init__(self, scheme: SchemeId, kp, limit: int, seed):
        super().__init__(limit)
        self._prover = (scheme, kp, seed)
        self._machine: ProverMachine | None = None
        self._respond = None
        self.asked: list = []
        self._pending = None

    @classmethod
    def answering(cls, scheme: SchemeId, pk, respond) -> "HonestProverOracle":
        """A two-message oracle for pk whose responses are respond(challenge).

        The callable keeps its own budget, so the oracle sets none.
        """
        oracle = cls(scheme, pk, limit=float("inf"), seed=None)
        oracle._respond = respond
        return oracle

    def begin(self) -> tuple:
        if self._pending is not None:
            raise OrderingViolation("previous session is still waiting for a challenge")
        self.charge()
        if self._respond is not None:
            self._pending = self._respond
            return ()
        scheme, kp, seed = self._prover
        # A session hands its stream on once it has built one.
        rng = self._machine._rng if self._machine is not None else None
        self._machine = machine = ProverMachine(scheme, kp, rng=rng, seed=seed)
        commitment = machine.start()
        self._pending = machine.on_challenge
        return commitment if commitment is not None else ()

    def finish(self, challenge: tuple) -> tuple:
        if self._pending is None:
            raise OrderingViolation("no session is waiting for a challenge")
        respond, self._pending = self._pending, None
        scheme, kp, _ = self._prover
        self.asked.append(SCHEMES[scheme].check(kp.suite, TAG_CHALLENGE, challenge))
        return respond(challenge)

    def query(self, challenge: tuple) -> tuple:
        self.begin()
        return self.finish(challenge)


class HonestVerifierChannel(VerifierMachine):
    """One honest verifier session, driven message by message by an attacker.

    It is the scheme's own verifier engine: the attacker calls start() (two
    messages) or on_commitment() (three messages) for the challenge, then
    on_response() for the decision, with message tuples.
    """

    def accepted_response(self) -> tuple:
        """The response this session accepted; AttackFailed if it accepted none."""
        transcript = self.transcript()
        if not (transcript and transcript.decision):
            raise AttackFailed("impersonation attempt was rejected")
        return transcript.response


class AttackerPair:
    """Base class for two-phase impersonation attackers.

    The contract that rewinding rests on: prover_phase never mutates the
    state its verifier phase returned (nor the oracle, nor the attacker
    object), so one verifier phase can serve a prover phase per challenge;
    the scripted attackers return bytes and tuples.  Both phases draw their
    coins only from the rng they are given, so a copy of that stream taken
    at the challenge rewinds them.
    """

    def verifier_phase(self, pk, prover: HonestProverOracle, rng: Random):
        """Interrogate honest provers; return state for the prover phase."""
        return b""

    def prover_phase(self, pk, state, channel: HonestVerifierChannel, rng: Random):
        """Try to convince the channel, driving its own start/on_commitment/on_response."""
        raise NotImplementedError


@dataclass
class ProtocolSim:
    """A fixed instance (scheme, keypair, params) plus the oracle budget."""

    scheme: SchemeId
    kp: object
    params: SchemeParams
    q: int = 0

    @property
    def suite(self) -> GroupSuite:
        return self.kp.suite

    @classmethod
    def new(cls, scheme: SchemeId, suite: GroupSuite, seed=0, q: int = 0):
        scheme = SchemeId(scheme)
        kp = keygen(scheme, suite, Random(f"{seed}:keygen"))
        return cls(scheme, kp, default_scheme_params(suite), q)


def _verifier_half(sim: ProtocolSim, attacker: AttackerPair, seed, rng_a: Random) -> tuple:
    """An attack run up to the challenge: (public key, the verifier phase's state)."""
    pk = sim.kp.public()
    oracle = HonestProverOracle(sim.scheme, sim.kp, sim.q, seed)
    return pk, attacker.verifier_phase(pk, oracle, rng_a)


def _prover_half(
    sim: ProtocolSim, attacker: AttackerPair, seed, rng_a: Random, opening: tuple, forced_challenge: tuple | None
):
    """An attack run from the challenge on, after the verifier half that returned opening."""
    pk, state = opening
    channel = HonestVerifierChannel(sim.scheme, pk, sim.params, forced_challenge=forced_challenge, seed=seed)
    attacker.prover_phase(pk, state, channel, rng_a)
    transcript = channel.transcript()
    if transcript is None:
        raise AttackFailed("attacker ended the session without answering")
    return transcript.decision, transcript


def run_attack(sim: ProtocolSim, attacker: AttackerPair, seed, forced_challenge: tuple | None = None):
    """One deterministic attack run; returns (decision, transcript).

    All coins are derived from the seed, so a second call with the same seed
    and a different forced challenge rewinds the attacker to the moment the
    challenge arrives.  The run is its verifier half then its prover half,
    both on the one attacker stream; build_summary_matrix runs the first
    half once per seed and the second once per challenge.
    """
    rng_a = Random(f"{seed}:attacker")
    return _prover_half(sim, attacker, seed, rng_a, _verifier_half(sim, attacker, seed, rng_a), forced_challenge)


def _accepted(attack, *args) -> Transcript | None:
    """attack(*args)'s transcript if it was accepted, else None; a forfeited run is a reject."""
    decision, transcript = unless_forfeit(attack, *args) or (False, None)
    return transcript if decision else None


def attack_success_rate(attacker: AttackerPair, sim: ProtocolSim, trials: int = 100, seed=0) -> GameReport:
    def trial(i):
        return _accepted(run_attack, sim, attacker, f"{seed}:{i}") is not None, {}

    return run_trials(f"impersonation:{sim.scheme.value}", {"p": sim.suite.p, "q": sim.q}, trials, trial)


# -- seed-by-challenge outcome matrix -------------------------------------------


@dataclass
class SummaryMatrix:
    """Acceptance bit for every (attacker seed, forced challenge) pair."""

    seeds: list
    challenges: list
    bits: list

    @property
    def shape(self) -> tuple:
        return (len(self.seeds), len(self.challenges))

    def ones(self) -> int:
        return sum(sum(row) for row in self.bits)

    def row_ones(self, i: int) -> int:
        return sum(self.bits[i])


def _stream_at(state) -> Random:
    """A Random at a getstate() state; Random() would first seed itself from urandom."""
    rng = Random.__new__(Random)
    rng.setstate(state)
    return rng


def build_summary_matrix(attacker: AttackerPair, sim: ProtocolSim, seeds, challenges) -> SummaryMatrix:
    """Acceptance of every (seed, challenge) cell, each rewound to the challenge.

    A seed's verifier half runs once; each challenge then runs the prover
    half on a copy of the attacker stream as the challenge found it.  Under
    AttackerPair's contract a cell is therefore what
    _accepted(run_attack, sim, attacker, seed, challenge) gives: a forfeit in
    the verifier phase loses the whole row, and one in a prover half its cell.
    """
    seeds, challenges = list(seeds), list(challenges)
    bits = []
    for seed in seeds:
        rng_a = Random(f"{seed}:attacker")
        opening = unless_forfeit(_verifier_half, sim, attacker, seed, rng_a)
        if opening is None:
            bits.append([0] * len(challenges))
            continue
        rewind = rng_a.getstate()
        bits.append([int(_accepted(_prover_half, sim, attacker, seed, _stream_at(rewind), opening, ch) is not None)
                     for ch in challenges])
    return SummaryMatrix(seeds, challenges, bits)


@dataclass
class HeavyRowReport:
    eps: float
    heavy_rows: list
    heavy_mass: float
    shape: tuple
    ones: int


def heavy_row_stats(matrix: SummaryMatrix, eps: float | None = None) -> HeavyRowReport:
    """Mark rows whose acceptance fraction reaches eps/2; weigh their mass.

    With eps the overall density of ones, the ones living in non-heavy rows
    total strictly less than rows * cols * eps/2, i.e. less than half of all
    ones, so the heavy rows always carry a strict majority of the mass.  An
    all-zero matrix reports mass 1.0 by convention.
    """
    rows, cols = matrix.shape
    total = matrix.ones()
    if eps is None:
        eps = total / (rows * cols) if rows and cols else 0.0
    heavy = [i for i in range(rows) if cols and matrix.row_ones(i) / cols >= eps / 2]
    heavy_ones = sum(matrix.row_ones(i) for i in heavy)
    mass = heavy_ones / total if total else 1.0
    return HeavyRowReport(eps=eps, heavy_rows=heavy, heavy_mass=mass, shape=(rows, cols), ones=total)


@dataclass
class ProbeReport:
    first: Transcript
    second: Transcript
    seed: object
    eps: float
    phase1_probes: int
    phase2_probes: int


def probe_strategy(
    attacker: AttackerPair,
    sim: ProtocolSim,
    eps: float | None = None,
    rng: Random | None = None,
) -> ProbeReport:
    """Hunt for two accepting runs of the same seed on distinct challenges.

    Phase one spends up to ceil(1/eps) fresh seeds looking for any accepting
    run; phase two rewinds that seed up to ceil(2/eps) times on independently
    drawn challenges.  A probe that draws the phase-one challenge again is
    spent, not redrawn.  Success probability is at least
    (1 - 1/e) * (1/2)(1 - 1/e) ~ 0.1998 for any attacker with true rate eps,
    by the heavy-row argument.  Without eps, a pilot of 200 sessions on a
    seed drawn from rng first estimates the attacker's acceptance rate; a
    pilot that never accepts is ProbeFailed.
    """
    rng = rng if rng is not None else Random("probe")
    if eps is None:
        eps = attack_success_rate(attacker, sim, trials=200, seed=f"pilot:{rng.getrandbits(32)}").advantage
    if eps <= 0:
        raise ProbeFailed("attacker never succeeded in the pilot; nothing to probe")
    ops = SCHEMES[sim.scheme]

    n1 = ceil(1 / eps)
    for phase1 in range(1, n1 + 1):
        seed = f"probe:{rng.getrandbits(48)}"
        t1 = _accepted(run_attack, sim, attacker, seed)
        if t1 is not None:
            break
    else:
        raise ProbeFailed(f"phase one found no accepting run in {n1} probes")

    n2 = ceil(2 / eps)
    for phase2 in range(1, n2 + 1):
        ch = ops.sample_challenge(sim.suite, rng)
        if ch == t1.challenge:
            continue  # same column: a wasted probe
        # Re-run from the seed: forking the verifier half costs more than the owfid phase's two draws.
        t2 = _accepted(run_attack, sim, attacker, seed, ch)
        if t2 is not None:
            if t2.commitment != t1.commitment:
                raise ProbeFailed("rewind did not reproduce the commitment")
            return ProbeReport(first=t1, second=t2, seed=seed, eps=eps, phase1_probes=phase1, phase2_probes=phase2)
    raise ProbeFailed(f"phase two found no second accepting run in {n2} probes")


# -- extraction and inversion ----------------------------------------------------


@dataclass
class ExtractionResult:
    Q: G1Element
    s: Scalar
    Z: G1Element


def owfid_extractor(t1: Transcript, t2: Transcript, simkey: OwfidKeyPair) -> ExtractionResult:
    """Pull a key out of two accepting transcripts sharing a commitment.

    Dividing the two response equations cancels the commitment randomness:
    Q = (T1/T2)^(1/(m1-m2)) and s = (a1-a2)/(m1-m2) satisfy the public key
    equation.  If the extracted witness is the simulator's own (which happens
    exactly when s collides with the simulator's exponent), extraction
    learned nothing and SameWitness is raised; otherwise combining the two
    witnesses yields Z with e(P, Z) = y, a pairing preimage of y.
    """
    pk = simkey.public()
    suite = pk.suite
    for t in (t1, t2):
        if SchemeId(t.scheme) != SchemeId.OWFID:
            raise MalformedTranscripts(f"extractor got a {t.scheme} transcript")
        if not replay_decision(t, pk):
            raise MalformedTranscripts("transcript does not verify under this key")
    if t1.commitment != t2.commitment:
        raise MalformedTranscripts("transcripts do not share a commitment")
    m1, m2 = t1.challenge[0], t2.challenge[0]
    if m1 == m2:
        raise MalformedTranscripts("transcripts share the challenge; nothing to divide")
    T1, a1 = t1.response
    T2, a2 = t2.response
    dm_inv = (m1 - m2).inv()
    Q = (T1 / T2) ** dm_inv
    s = (a1 - a2) * dm_inv
    if owfid_keypair(suite, pk.P, pk.y, Q, s).v != pk.v:
        raise MalformedTranscripts("extracted witness fails the key equation")
    if s == simkey.s:
        if Q != simkey.Q:
            raise RuntimeError("equal exponents must force equal witnesses")
        raise SameWitness("extraction reproduced the simulator's key")
    Z = (Q / simkey.Q) ** (simkey.s - s).inv()
    if suite.pairing(pk.P, Z) != pk.y:
        raise RuntimeError("preimage identity must hold exactly")
    return ExtractionResult(Q=Q, s=s, Z=Z)


def owfid_inverter(
    attacker: AttackerPair,
    P: G1Element,
    y: G2Element,
    suite: GroupSuite,
    mode: str = "iterated",
    eps: float | None = None,
    rng: Random | None = None,
) -> G1Element:
    """Turn an impersonation attacker into a pairing preimage of y under e(P, .).

    The simulator key is honestly distributed (fresh Q*, s*), so the attacker
    cannot tell it is talking to a reduction.  "iterated" runs the two-phase
    probing strategy, which estimates eps with its pilot when eps is None;
    "single-shot" runs the attacker exactly twice on one seed with
    independently drawn challenges, and never reads or estimates eps.
    """
    if mode not in ("iterated", "single-shot"):
        raise ValueError(f"unknown inverter mode {mode!r}")
    rng = rng if rng is not None else Random("inverter")
    params = default_scheme_params(suite)
    simkey = owfid_keypair(suite, P, y, suite.random_g1(rng), suite.random_scalar(rng))
    sim = ProtocolSim(SchemeId.OWFID, simkey, params)
    try:
        if mode == "iterated":
            report = probe_strategy(attacker, sim, eps=eps, rng=rng)
            t1, t2 = report.first, report.second
        else:
            ops = SCHEMES[SchemeId.OWFID]
            seed = f"oneshot:{rng.getrandbits(48)}"
            ch1 = ops.sample_challenge(suite, rng)
            ch2 = ops.sample_challenge(suite, rng)
            if ch1 == ch2:
                raise ProbeFailed("both draws landed on the same challenge")
            t1 = _accepted(run_attack, sim, attacker, seed, ch1)
            t2 = _accepted(run_attack, sim, attacker, seed, ch2)
            if t1 is None or t2 is None:
                raise ProbeFailed("one of the two runs was rejected")
        return owfid_extractor(t1, t2, simkey).Z
    except (ProbeFailed, SameWitness) as exc:
        raise InversionFailed(str(exc)) from exc


# -- the one-more computational game and protocol reductions ----------------------


class OmCdhContext(Budget):
    """Challenger state for the one-more-style computational game.

    The helper oracle answers exponentiation queries only until the target is
    drawn; the target is drawn exactly once.  Both misuses raise
    OrderingViolation, and a query that the suite does not hold as a G1
    element raises MalformedQuery before it is charged; each is a forfeit,
    which loses the trial.  The context is the helper oracle's Budget of q
    queries: calls counts them, the one that overspends included.
    """

    def __init__(self, suite: GroupSuite, x: Scalar, q: int, rng: Random):
        super().__init__(q)
        self.suite = suite
        self._x = x
        self.q = q
        self._rng = rng
        self.v = suite.g1 ** x
        self.target: G1Element | None = None

    def cdh(self, h: G1Element) -> G1Element:
        if self.target is not None:
            raise OrderingViolation("helper oracle closes once the target is drawn")
        if not self.suite.holds(KIND_G1, h):
            raise MalformedQuery("helper oracle takes a G1 element of its suite")
        self.charge()
        return h ** self._x

    def challenge(self) -> G1Element:
        if self.target is not None:
            raise OrderingViolation("the target is drawn exactly once")
        # Non-identity, matching the challenge domain of the protocol that
        # this game underwrites.
        self.target = self.suite.random_g1(self._rng, nonidentity=True)
        return self.target


def om_cdh_game(adversary, suite: GroupSuite, q: int = 8, trials: int = 100, seed=0) -> GameReport:
    """Run adversary(ctx, rng) -> G1 guess; win iff the guess is target^x."""

    def trial(i):
        rng_game = Random(f"{seed}:{i}:game")
        x = suite.random_scalar(rng_game, nonzero=True)
        ctx = OmCdhContext(suite, x, q, rng_game)
        answer = unless_forfeit(adversary, ctx, Random(f"{seed}:{i}:adv"))
        won = ctx.target is not None and suite.holds(KIND_G1, answer) and answer == ctx.target ** x
        return won, {"cdh": ctx.calls}

    return run_trials("one-more-cdh", {"q": q, "p": suite.p}, trials, trial, ("cdh",))


def cdhid_reduction(attacker: AttackerPair, ctx: OmCdhContext, rng: Random) -> G1Element:
    """Play the one-more game using a cdhid impersonation attacker.

    Prover queries are forwarded to the helper oracle; the game target is
    then forced as the verifier's challenge, so an accepted response is by
    the verification equation exactly target^x.
    """
    pk = ExpKeyPair(ctx.suite, None, ctx.v)

    # The honest prover's response to challenge h is h^x, exactly what the
    # helper oracle computes, so the attacker's view is perfect.
    oracle = HonestProverOracle.answering(SchemeId.CDHID, pk, lambda challenge: (ctx.cdh(challenge[0]),))
    state = attacker.verifier_phase(pk, oracle, rng)
    target = ctx.challenge()
    # The forced challenge leaves the verifier's stream undrawn.
    channel = HonestVerifierChannel(SchemeId.CDHID, pk, forced_challenge=(target,), seed="reduction")
    attacker.prover_phase(pk, state, channel, rng)
    return channel.accepted_response()[0]


def cdhid_reduction_game(
    attacker: AttackerPair, suite: GroupSuite, q: int = 8, trials: int = 100, seed=0
) -> GameReport:
    def adversary(ctx, rng):
        return cdhid_reduction(attacker, ctx, rng)

    report = om_cdh_game(adversary, suite, q=q, trials=trials, seed=seed)
    return replace(report, game="one-more-cdh:from-cdhid")


def blsid_forgery_reduction(attacker: AttackerPair, pk: ExpKeyPair, sign, params: SchemeParams, rng: Random):
    """Turn a blsid impersonation attacker into a signature forger.

    Returns (message, signature) for a message the signer never saw.  If the
    honest verifier's random challenge collides with a signed query, the run
    is unusable and FreshnessCollision is raised (checked before the
    decision, so collision statistics do not depend on the attacker's skill).
    An attacker that never takes the challenge, or whose response is not
    accepted, makes it raise AttackFailed.
    """
    # The hash-based prover's response to challenge M is a signature on M,
    # so forwarding to the signer is again a perfect simulation.
    oracle = HonestProverOracle.answering(SchemeId.BLSID, pk, lambda challenge: (sign(challenge[0]),))
    state = attacker.verifier_phase(pk, oracle, rng)
    channel = HonestVerifierChannel(SchemeId.BLSID, pk, params, Random(rng.getrandbits(64)))
    attacker.prover_phase(pk, state, channel, rng)
    if not channel.challenge:
        raise AttackFailed("attacker ended the session before taking the challenge")
    fresh = channel.challenge[0]
    if (fresh,) in oracle.asked:
        raise FreshnessCollision("verifier challenge collided with a signed message")
    return fresh, channel.accepted_response()[0]


def blsid_forger(attacker: AttackerPair, params: SchemeParams | None = None):
    """Adapt the reduction to the forgery game's adversary signature; an unusable run forfeits."""

    def adversary(ctx, rng):
        local = params if params is not None else default_scheme_params(ctx.suite)
        return blsid_forgery_reduction(attacker, ctx.pk, ctx.sign, local, rng)

    return adversary


# -- pairing inversion as a master problem ----------------------------------------


def invert_to_cdh(inverter, g: G1Element, ga: G1Element, gb: G1Element) -> G1Element:
    """Solve the two-element exponent-combination problem with one inversion.

    e(g^a, g^b) = e(g, g^(ab)), so a preimage of that value under e(g, .) is
    the answer.
    """
    suite = g.suite
    return inverter(g, suite.pairing(ga, gb))


def invert_to_ddh(
    inverter,
    y: G2Element,
    ya: G2Element,
    yb: G2Element,
    yc: G2Element,
    suite: GroupSuite,
    rng: Random | None = None,
) -> bool:
    """Decide whether the exponents of (y, y^a, y^b, y^c) satisfy c = ab.

    Four inversions against an internally drawn non-identity base pull the
    tuple back into G1, where two pairings decide it.  With an inverter that
    is only right with probability eps, all four calls land correctly with
    probability eps^4.
    """
    rng = rng if rng is not None else Random("ddh")
    g = suite.random_g1(rng, nonidentity=True)
    h1 = inverter(g, y)
    h2 = inverter(g, ya)
    h3 = inverter(g, yb)
    h4 = inverter(g, yc)
    return suite.ddh_solve(h1, h2, h3, h4)


def transparent_pairing_inverter(suite: GroupSuite):
    """Perfect preimage oracle: (P, y) -> Z with e(P, Z) = y, via free logs."""

    def invert(P: G1Element, y: G2Element) -> G1Element:
        dp = suite.discrete_log(P) % suite.p
        if dp == 0:
            raise InversionFailed("no preimage exists under the identity base")
        dy = suite.discrete_log(y) % suite.p
        return suite.g1 ** (dy * pow(dp, -1, suite.p))

    return invert


def unreliable_inverter(suite: GroupSuite, inner, eps: float, salt: bytes = b""):
    """Degrade an inverter to success rate ~eps, deterministically per input.

    Wrong answers are off by one generator step, so they are well-formed
    group elements that fail the preimage identity.
    """

    def invert(P: G1Element, y: G2Element) -> G1Element:
        answer = inner(P, y)
        if _keyed_bit(salt, suite.encode_element(P), suite.encode_element(y), eps):
            return answer
        return answer * suite.g1

    return invert


# -- relay demonstration -----------------------------------------------------------


@dataclass
class MitmReport:
    scheme: SchemeId
    frames: list
    decision: bool
    tampered: bool
    note: str


def mitm_relay_demo(suite: GroupSuite, scheme: SchemeId = SchemeId.HLS, seed=0, flip: tuple | None = None) -> MitmReport:
    """Relay every frame of one honest session through a man in the middle.

    flip, when given, is (frame_index, byte_index, bit_index): that one bit
    is inverted in transit.  An untouched relay is accepted every time: the
    verifier's view is byte-for-byte the honest prover's output, which is
    why identification alone cannot detect a wire that merely forwards.
    Sessions in this model are strictly sequential (one live exchange at a
    time), so a relay that juggles two concurrent sessions to beat a
    distance check is outside what these games model.
    """
    scheme = SchemeId(scheme)
    kp = keygen(scheme, suite, Random(f"{seed}:keygen"))
    frames: list[bytes] = []

    def relay(tag: int, payload: bytes) -> tuple[int, bytes]:
        raw = bytearray(frame_encode(tag, payload))
        if flip is not None and flip[0] == len(frames):
            _, byte_i, bit_i = flip
            raw[byte_i] ^= 1 << bit_i
        frames.append(bytes(raw))
        return frame_decode(frames[-1])

    prover = ProverMachine(scheme, kp, seed=seed, wire=True)
    verifier = VerifierMachine(scheme, kp.public(), seed=seed, wire=True)
    try:
        decision = exchange(prover, verifier, relay).decision
    except PeerError as exc:
        decision = False
        note = f"tampered frame broke the exchange: {exc}"
    else:
        if flip is None:
            note = (
                "verbatim relay accepted: the verifier saw exactly the honest "
                "prover's bytes, so a forwarding wire is undetectable here; "
                "note that sessions are strictly sequential in this model, so "
                "relays that interleave concurrent sessions are out of scope"
            )
        elif decision:
            note = "bit flip did not change the decoded messages"
        else:
            note = "bit flip produced a decodable but rejected exchange"
    return MitmReport(scheme=scheme, frames=frames, decision=decision, tampered=flip is not None, note=note)


# -- scripted attackers with a dialled-in success rate -----------------------------


def _keyed_bit(salt: bytes, token: bytes, material: bytes, eps: float) -> bool:
    digest = hashlib.sha256(salt + token + material).digest()
    return int.from_bytes(digest, "big") < int(eps * 2**256)


class ScriptedCdhidAttacker(AttackerPair):
    """Wins with probability eps per (seed, challenge), decided by a keyed hash.

    The winning branch forges via free discrete logs (transparent backend or
    desk-scale curve), so a "win" is always accepted; the losing branch uses
    a deliberately wrong exponent and is always rejected.  The per-seed nonce
    is drawn before any challenge is seen, making the seed-by-challenge
    outcome matrix a fixed object.
    """

    def __init__(self, eps: float, queries: int = 2):
        self.eps = eps
        self.queries = queries

    def verifier_phase(self, pk, prover: HonestProverOracle, rng: Random):
        suite = pk.suite
        for _ in range(self.queries):
            h = suite.random_g1(rng, nonidentity=True)
            prover.query((h,))
        return rng.getrandbits(64).to_bytes(8, "big")

    def prover_phase(self, pk, token: bytes, channel: HonestVerifierChannel, rng: Random):
        suite = pk.suite
        (h,) = channel.start()
        x = suite.discrete_log(pk.v)
        if not _keyed_bit(b"cdhid", token, suite.encode_element(h), self.eps):
            x += 1  # a losing draw answers with a wrong exponent
        channel.on_response((h**x,))


class ScriptedBlsidAttacker(AttackerPair):
    """Always-winning attacker that burns its budget on distinct queries.

    Query messages are sampled without replacement, so against a q-query
    budget and n-bit challenges the verifier's fresh challenge collides with
    a query with probability exactly q / 2^n.
    """

    def __init__(self, n: int, queries: int = 8):
        self.n = n
        self.queries = queries

    def verifier_phase(self, pk, prover, rng: Random):
        width = pk.suite.width(KIND_BITS)
        for value in rng.sample(range(2**self.n), self.queries):
            prover.query((value.to_bytes(width, "big"),))
        return b""

    def prover_phase(self, pk, state, channel: HonestVerifierChannel, rng: Random):
        suite = pk.suite
        (message,) = channel.start()
        x = suite.discrete_log(pk.v)
        h = hash_to_group(message, channel.params.hash_spec, suite)
        channel.on_response((h**x,))


class ScriptedOwfidAttacker(AttackerPair):
    """Commit-challenge-respond attacker with a dialled-in acceptance rate.

    It derives its own perfectly valid key from the public one via free
    discrete logs (picking the secret exponent uniformly), runs the honest
    prover algorithm with it, and then deliberately mangles the response on
    losing (seed, challenge) pairs.  Rewinding therefore extracts an honest
    witness whose exponent matches the simulator's with probability 1/p.
    """

    def __init__(self, eps: float):
        self.eps = eps

    def verifier_phase(self, pk, prover, rng: Random):
        suite = pk.suite
        token = rng.getrandbits(64).to_bytes(8, "big")
        s_a = rng.randrange(suite.p)
        return (token, s_a)

    def prover_phase(self, pk, state, channel: HonestVerifierChannel, rng: Random):
        suite = pk.suite
        token, s_a = state
        p = suite.p
        dl_p = suite.discrete_log(pk.P) % p
        dl_y = suite.discrete_log(pk.y) % p
        dl_v = suite.discrete_log(pk.v) % p
        # Solve the key equation e(P, Q) * y^s * v = 1 for Q at the chosen s.
        q_a = (-(dl_v + dl_y * s_a) * pow(dl_p, -1, p)) % p
        kp = OwfidKeyPair(suite, pk.P, pk.y, suite.g1**q_a, suite.scalar(s_a), pk.v)
        state, commitment = owfid_commit(kp, rng)
        (m,) = channel.on_commitment((commitment,))
        T, a = owfid_respond(kp, state, m)
        if not _keyed_bit(b"owfid", token, suite.encode_scalar(m), self.eps):
            a += 1  # off-by-one exponent: verification picks up a stray factor of y
        channel.on_response((T, a))


# -- named demos: the games that `pairid lab` and `pairid selftest` run -------------


class DemoInputError(ValueError):
    """A demo was asked for counts or an eps it cannot run with."""


def _omcdh_demo(suite, seed, eps, trials, queries, **_):
    attacker = ScriptedCdhidAttacker(eps=eps, queries=queries)
    report = cdhid_reduction_game(attacker, suite, q=queries, trials=trials, seed=seed)
    return report.wins > 0, [report.line()]


def _forgery_demo(suite, seed, trials, queries, **_):
    # The attacker's queries are distinct n-bit challenges.
    if queries > 2**suite.n:
        raise DemoInputError(f"queries must be at most 2^{suite.n} at p = {suite.p}, got {queries}")
    attacker = ScriptedBlsidAttacker(n=suite.n, queries=queries)
    config = ForgeryGameConfig(q_s=queries, q_h=4 * queries, trials=trials, seed=seed)
    report = forgery_game("bls", blsid_forger(attacker), config, suite)
    return report.wins > 0, [report.line()]


def _invert_cdh_demo(suite, seed, **_):
    rng = Random(seed)
    g = suite.g1
    a = suite.random_scalar(rng, nonzero=True)
    b = suite.random_scalar(rng, nonzero=True)
    ok = invert_to_cdh(transparent_pairing_inverter(suite), g, g**a, g**b) == g ** (a * b)
    return ok, [f"exponent-combination answer {'correct' if ok else 'wrong'}"]


def _invert_ddh_demo(suite, seed, **_):
    rng = Random(seed)
    inverter = transparent_pairing_inverter(suite)
    y = suite.random_g2(rng, nonidentity=True)
    a = suite.random_scalar(rng, nonzero=True)
    b = suite.random_scalar(rng, nonzero=True)
    real = invert_to_ddh(inverter, y, y**a, y**b, y ** (a * b), suite, rng)
    fake = invert_to_ddh(inverter, y, y**a, y**b, y ** (a * b + 1), suite, rng)
    return real and not fake, [f"matched tuple: {real}, mismatched tuple: {fake}"]


def _heavyrow_demo(suite, seed, eps, trials, **_):
    attacker = ScriptedCdhidAttacker(eps=eps, queries=0)
    sim = ProtocolSim.new(SchemeId.CDHID, suite, seed=seed, q=0)
    seeds = [f"{seed}:row{i}" for i in range(trials)]
    challenges = [(suite.g1_from_int(k),) for k in range(1, min(suite.p - 1, 8) + 1)]
    stats = heavy_row_stats(build_summary_matrix(attacker, sim, seeds, challenges))
    line = (f"matrix {stats.shape[0]}x{stats.shape[1]}: {stats.ones} ones, "
            f"{len(stats.heavy_rows)} heavy rows carrying {stats.heavy_mass:.3f} of the mass")
    return stats.heavy_mass > 0.5, [line]


def _extractor_demo(suite, seed, eps, mode, **_):
    rng = Random(seed)
    P = suite.random_g1(rng, nonidentity=True)
    y = suite.random_g2(rng, nonidentity=True)
    try:
        Z = owfid_inverter(ScriptedOwfidAttacker(eps=eps), P, y, suite, mode=mode, eps=eps, rng=rng)
    except InversionFailed as exc:
        return False, [f"inversion failed: {exc}"]
    ok = suite.pairing(P, Z) == y
    return ok, [f"extracted preimage {'verifies' if ok else 'does not verify'}"]


def _mitm_demo(suite, seed, **_):
    clean = mitm_relay_demo(suite, seed=seed)
    flipped = mitm_relay_demo(suite, seed=seed, flip=(2, 5, 0))
    lines = []
    for label, report in (("verbatim", clean), ("bit-flipped", flipped)):
        lines += [f"{label}: {'accept' if report.decision else 'reject'} over {len(report.frames)} frames",
                  f"  {report.note}"]
    return clean.decision and not flipped.decision, lines


DEMOS = {
    "omcdh": _omcdh_demo,
    "forgery": _forgery_demo,
    "invert-cdh": _invert_cdh_demo,
    "invert-ddh": _invert_ddh_demo,
    "heavyrow": _heavyrow_demo,
    "extractor": _extractor_demo,
    "mitm": _mitm_demo,
}
# The `pairid lab` flag defaults, which `pairid selftest` runs every demo at.
DEMO_DEFAULTS = {"seed": "lab", "eps": 0.4, "trials": 100, "queries": 4, "mode": "iterated"}


def run_demo(name: str, suite: GroupSuite, seed, eps: float, trials: int, queries: int, mode: str):
    """Run one named demo; return (passed, the lines that report it)."""
    if trials < 1:
        raise DemoInputError(f"trials must be at least 1, got {trials}")
    if queries < 0:
        raise DemoInputError(f"queries must be at least 0, got {queries}")
    # Also false for NaN.  Below 0.001 the extractor's ceil(1/eps) probes run long.
    if not 0.001 <= eps <= 1:
        raise DemoInputError(f"eps must be a finite number in [0.001, 1], got {eps}")
    return DEMOS[name](suite, seed=seed, eps=eps, trials=trials, queries=queries, mode=mode)
