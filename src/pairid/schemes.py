"""Six pairing-based identification protocols behind one uniform interface.

Three protocols are two-message (the verifier opens with a random challenge,
the prover answers, the verifier decides) and three are canonical
three-message commit/challenge/respond protocols.  Each scheme is described
by a SchemeOps record holding its keypair class (which declares the key's
fields), its keygen, message shapes, and the commit, respond and verify
callables.  SchemeOps.check is the one message rule: the field count, each
field's kind and suite (GroupSuite.holds), and a challenge's domain, from
which sample_challenge draws.  The prover checks a challenge, the verifier a
commitment, a forced challenge and the response, replay_decision all three
messages, and the lab's prover oracles a query, each with a PeerError, so
respond and verify never see a value outside the domain.  Key
generation works in the exponent: each keygen draws the logs of the key's
elements, nonzero where one must not be the identity, and builds every key
value as a power of g or of e(g, g), with no pairing.  The owfid prover
commits in the exponent too: its R is g^rho, so e(P, R) is
pairing_from_int(P, R, rho), which the curve backend takes as a comb power
of e(P, g) once P has stored lines, and as e(P, R) while P is cold.
ProverMachine and VerifierMachine drive any of them through the same state
machine, enforcing message order and charging group operations to the right
role.  Their base, SessionEngine, is the one sans-I/O engine that every
session driver runs on.

Scheme summary, with g the suite generator and e the pairing:

  blsid   pk v = g^x.  Challenge: random n-bit string M.  Response
          sigma = H(M)^x.  Accept iff e(g, sigma) = e(v, H(M)).
  cdhid   pk v = g^x.  Challenge: random non-identity h in G1.  Response
          sigma = h^x.  Accept iff e(g, sigma) = e(v, h).
  sdhid   pk u = g^x, v = g^y, z = e(g, g).  Challenge: scalar m.
          Response (sigma, r) with sigma = g^(1/(x + m + y r)).  Accept iff
          e(sigma, u g^m v^r) = z.
  owfid   pk P, y, v = (e(P, Q) y^s)^-1 for secret (Q, s).  Commit
          x = e(P, R) y^r.  Response T = R Q^m, a = r + m s.  Accept iff
          e(P, T) y^a v^m = x.
  scl     pk base g', v = g'^x, z = e(g', g').  Commit tau = g'^w.
          Response sigma = g'^(1/(x r + w)).  Accept iff
          e(sigma, tau v^r) = z.
  hls     pk P, z = e(P, P), v = e(P, Q) for secret Q.  Commit w = z^r
          (only w is sent).  Response sigma = P^r Q^c.  Accept iff
          e(P, sigma) = w v^c.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random, SystemRandom

from .algebra import (
    KIND_BITS,
    KIND_G1,
    KIND_G2,
    KIND_ZP,
    DegenerateSuite,
    G1Element,
    G2Element,
    GroupSuite,
    PeerError,
    Scalar,
)
from .signatures import (
    BbKeyPair,
    ExpKeyPair,
    HashSpec,
    KeyPair,
    _nonzero_scalar,
    bb_keygen,
    bb_sign,
    bb_verify,
    bls_keygen,
    bls_sign,
    bls_verify,
    default_hash_spec,
)
from .wire import (
    TAG_CHALLENGE,
    TAG_COMMITMENT,
    TAG_DECISION,
    TAG_ERROR,
    TAG_NAMES,
    TAG_RESPONSE,
    decode_payload,
    encode_payload,
)


class IdentityChallenge(PeerError):
    """Group-element challenge was the identity."""


class BadChallengeLength(PeerError):
    """Bit-string challenge does not have the configured length."""


class ZeroChallenge(PeerError):
    """Scalar challenge was zero; challenges are drawn from Z_p^*."""


class ZeroExponent(Exception):
    """The response exponent denominator vanished for this (commitment, challenge)."""


class ProtocolViolation(PeerError):
    """Message arrived out of order or with the wrong shape."""


def raise_peer_error(payload: bytes):
    """End the session on the peer's error frame, quoting its text on one line: each byte
    outside printable ASCII is escaped, so a peer cannot forge a line of its own."""
    raise ProtocolViolation("peer error: " + "".join(chr(b) if 32 <= b < 127 else f"\\x{b:02x}" for b in payload))


class SchemeId(str, Enum):
    BLSID = "blsid"
    CDHID = "cdhid"
    SDHID = "sdhid"
    OWFID = "owfid"
    SCL = "scl"
    HLS = "hls"


@dataclass(frozen=True)
class SchemeParams:
    """A session's declared settings: the suite's challenge bit length and hash."""

    n: int
    hash_spec: HashSpec


def default_scheme_params(suite: GroupSuite) -> SchemeParams:
    return SchemeParams(n=suite.n, hash_spec=default_hash_spec(suite))


# -- key material --------------------------------------------------------------


@dataclass
class OwfidKeyPair(KeyPair):
    PUBLIC = (("P", KIND_G1), ("y", KIND_G2), ("v", KIND_G2))
    SECRET = (("Q", KIND_G1), ("s", KIND_ZP))

    suite: GroupSuite
    P: G1Element
    y: G2Element
    Q: G1Element | None
    s: Scalar | None
    v: G2Element


@dataclass
class SclKeyPair(KeyPair):
    PUBLIC = (("g", KIND_G1), ("v", KIND_G1), ("z", KIND_G2))
    SECRET = (("x", KIND_ZP),)

    suite: GroupSuite
    g: G1Element
    x: Scalar | None
    v: G1Element
    z: G2Element


@dataclass
class HlsKeyPair(KeyPair):
    PUBLIC = (("P", KIND_G1), ("z", KIND_G2), ("v", KIND_G2))
    SECRET = (("Q", KIND_G1),)

    suite: GroupSuite
    P: G1Element
    Q: G1Element | None
    z: G2Element
    v: G2Element


def owfid_keypair(suite: GroupSuite, P: G1Element, y: G2Element, Q: G1Element, s: Scalar) -> OwfidKeyPair:
    """The owfid key with secret (Q, s) over (P, y): v = (e(P, Q) y^s)^-1.

    The lab's simulator key, the extractor's key check and keygen's tests use it.
    """
    return OwfidKeyPair(suite, P, y, Q, s, (suite.pairing(P, Q) * y**s).inverse())


def owfid_keygen(suite: GroupSuite, rng: Random) -> OwfidKeyPair:
    # P = g^a, y = e(g, g)^c, Q = g^b: v = (e(P, Q) y^s)^-1 = e(g, g)^-(ab + cs).
    a = _nonzero_scalar(suite, rng)
    c = _nonzero_scalar(suite, rng)
    b, s = suite.random_scalar(rng), suite.random_scalar(rng)
    return OwfidKeyPair(suite, suite.g1**a, suite.g2**c, suite.g1**b, s, suite.g2 ** -(a * b + c * s))


def scl_keygen(suite: GroupSuite, rng: Random) -> SclKeyPair:
    # g' = g^k: v = g'^x = g^(kx) and z = e(g', g') = e(g, g)^(k^2).
    k = _nonzero_scalar(suite, rng)
    x = suite.random_scalar(rng)
    return SclKeyPair(suite, suite.g1**k, x, suite.g1 ** (k * x), suite.g2 ** (k * k))


def hls_keygen(suite: GroupSuite, rng: Random) -> HlsKeyPair:
    # P = g^a, Q = g^b: z = e(P, P) = e(g, g)^(a^2) and v = e(P, Q) = e(g, g)^(ab).
    a = _nonzero_scalar(suite, rng)
    b = suite.random_scalar(rng)
    return HlsKeyPair(suite, suite.g1**a, suite.g1**b, suite.g2 ** (a * a), suite.g2 ** (a * b))


# -- per-scheme operations -----------------------------------------------------


def blsid_verify_point(pk: ExpKeyPair, h: G1Element, sig: G1Element) -> bool:
    # bls_verify's equation with the hashed challenge supplied directly.
    suite = pk.suite
    return suite.pairings_equal(suite.g1, sig, pk.v, h)


def owfid_commit(kp: OwfidKeyPair, rng: Random):
    # random_g1's draw, kept: with R = g^rho, e(P, R) = e(P, g)^rho.
    suite = kp.suite
    rho = rng.randrange(0, suite.p)
    R = suite.g1_from_int(rho)
    r = suite.random_scalar(rng)
    x = suite.pairing_from_int(kp.P, R, rho) * kp.y**r
    return (R, r), (x,)


def owfid_respond(kp: OwfidKeyPair, state, m: Scalar) -> tuple[G1Element, Scalar]:
    R, r = state
    return R * kp.Q**m, r + m * kp.s


def owfid_verify(pk: OwfidKeyPair, x: G2Element, m: Scalar, T: G1Element, a: Scalar) -> bool:
    suite = pk.suite
    return suite.pairing(pk.P, T) * pk.y**a * pk.v**m == x


def scl_commit(kp: SclKeyPair, rng: Random):
    w = kp.suite.random_scalar(rng)
    return w, (kp.g**w,)


def scl_respond(kp: SclKeyPair, w: Scalar, r: Scalar) -> G1Element:
    denom = kp.x * r + w
    if denom.value == 0:
        # No response exists for this (commitment, challenge) pair; the
        # session layer restarts with a fresh commitment.
        raise ZeroExponent("x*r + w = 0")
    return kp.g ** denom.inv()


def scl_verify(pk: SclKeyPair, tau: G1Element, r: Scalar, sigma: G1Element) -> bool:
    suite = pk.suite
    return suite.pairing(sigma, tau * pk.v**r) == pk.z


def hls_commit(kp: HlsKeyPair, rng: Random):
    r = kp.suite.random_scalar(rng)
    return r, (kp.z**r,)


def hls_respond(kp: HlsKeyPair, r: Scalar, c: Scalar) -> G1Element:
    return kp.P**r * kp.Q**c


def hls_verify(pk: HlsKeyPair, w: G2Element, c: Scalar, sigma: G1Element) -> bool:
    suite = pk.suite
    return suite.pairing(pk.P, sigma) == w * pk.v**c


# -- uniform interface ---------------------------------------------------------

# Each protocol message's SchemeOps field, in the order the messages are sent.
_FIELDS = {
    TAG_COMMITMENT: "commitment_fields",
    TAG_CHALLENGE: "challenge_fields",
    TAG_RESPONSE: "response_fields",
}


@dataclass(frozen=True)
class SchemeOps:
    """Everything a session driver needs to run one scheme."""

    scheme: SchemeId
    keypair: type  # the KeyPair subclass that declares this scheme's key
    commitment_fields: tuple
    challenge_fields: tuple
    response_fields: tuple
    keygen: callable
    commit: callable  # (kp, rng) -> (state, commitment tuple); None for 2-message
    # respond and verify take messages that check lets through; their callers check first.
    respond: callable  # (kp, state, challenge tuple, prover) -> response tuple; only sdhid's reads prover.rng
    verify: callable  # (pk, commitment tuple, challenge tuple, response tuple) -> bool

    @property
    def three_message(self) -> bool:
        return self.commit is not None

    def sample_challenge(self, suite: GroupSuite, rng: Random) -> tuple:
        """A fresh challenge of the scheme's one challenge kind."""
        (kind,) = self.challenge_fields
        if kind == KIND_BITS:
            return (rng.getrandbits(suite.n).to_bytes(suite.width(KIND_BITS), "big"),)
        if kind == KIND_G1:
            return (suite.random_g1(rng, nonidentity=True),)
        return (suite.random_scalar(rng, nonzero=True),)

    def check(self, suite: GroupSuite, tag: int, values: tuple) -> tuple:
        """values, if they are this scheme's tag message in suite.

        A message that is not a tuple of the tag's field count, or a field that
        is not a value of its kind in the suite, is a ProtocolViolation.  A
        challenge must also lie in the domain that sample_challenge draws from,
        and each kind has its own error for a value outside it.
        """
        fields = getattr(self, _FIELDS[tag])
        if not isinstance(values, tuple) or len(values) != len(fields):
            raise ProtocolViolation(f"{TAG_NAMES[tag]} has the wrong number of fields")
        if not all(map(suite.holds, fields, values)):
            raise ProtocolViolation(f"{TAG_NAMES[tag]} holds a value that is not its kind in this suite")
        if tag == TAG_CHALLENGE:
            (kind,), (value,) = fields, values
            if kind == KIND_BITS:
                if len(value) != suite.width(KIND_BITS):
                    raise BadChallengeLength(f"expected {suite.width(KIND_BITS)} bytes for {suite.n} bits")
                if int.from_bytes(value, "big") >> suite.n:
                    raise BadChallengeLength(f"value does not fit in {suite.n} bits")
            elif kind == KIND_G1 and value.is_identity:
                raise IdentityChallenge("challenge must be a non-identity element")
            elif kind == KIND_ZP and value.value == 0:
                raise ZeroChallenge("scalar challenges are drawn from Z_p^*")
        return values


SCHEMES: dict[SchemeId, SchemeOps] = {
    SchemeId.BLSID: SchemeOps(
        scheme=SchemeId.BLSID,
        keypair=ExpKeyPair,
        commitment_fields=(),
        challenge_fields=(KIND_BITS,),
        response_fields=(KIND_G1,),
        keygen=bls_keygen,
        commit=None,
        respond=lambda kp, st, ch, _: (bls_sign(kp, ch[0]),),
        verify=lambda pk, co, ch, re: bls_verify(pk, ch[0], re[0]),
    ),
    SchemeId.CDHID: SchemeOps(
        scheme=SchemeId.CDHID,
        keypair=ExpKeyPair,
        commitment_fields=(),
        challenge_fields=(KIND_G1,),
        response_fields=(KIND_G1,),
        keygen=bls_keygen,
        commit=None,
        respond=lambda kp, st, ch, _: (ch[0] ** kp.x,),
        verify=lambda pk, co, ch, re: blsid_verify_point(pk, ch[0], re[0]),
    ),
    SchemeId.SDHID: SchemeOps(
        scheme=SchemeId.SDHID,
        keypair=BbKeyPair,
        commitment_fields=(),
        challenge_fields=(KIND_ZP,),
        response_fields=(KIND_G1, KIND_ZP),
        keygen=bb_keygen,
        commit=None,
        respond=lambda kp, st, ch, prover: bb_sign(kp, ch[0], prover.rng),
        verify=lambda pk, co, ch, re: bb_verify(pk, ch[0], re[0], re[1]),
    ),
    SchemeId.OWFID: SchemeOps(
        scheme=SchemeId.OWFID,
        keypair=OwfidKeyPair,
        commitment_fields=(KIND_G2,),
        challenge_fields=(KIND_ZP,),
        response_fields=(KIND_G1, KIND_ZP),
        keygen=owfid_keygen,
        commit=owfid_commit,
        respond=lambda kp, st, ch, _: owfid_respond(kp, st, ch[0]),
        verify=lambda pk, co, ch, re: owfid_verify(pk, co[0], ch[0], re[0], re[1]),
    ),
    SchemeId.SCL: SchemeOps(
        scheme=SchemeId.SCL,
        keypair=SclKeyPair,
        commitment_fields=(KIND_G1,),
        challenge_fields=(KIND_ZP,),
        response_fields=(KIND_G1,),
        keygen=scl_keygen,
        commit=scl_commit,
        respond=lambda kp, st, ch, _: (scl_respond(kp, st, ch[0]),),
        verify=lambda pk, co, ch, re: scl_verify(pk, co[0], ch[0], re[0]),
    ),
    SchemeId.HLS: SchemeOps(
        scheme=SchemeId.HLS,
        keypair=HlsKeyPair,
        commitment_fields=(KIND_G2,),
        challenge_fields=(KIND_ZP,),
        response_fields=(KIND_G1,),
        keygen=hls_keygen,
        commit=hls_commit,
        respond=lambda kp, st, ch, _: (hls_respond(kp, st, ch[0]),),
        verify=lambda pk, co, ch, re: hls_verify(pk, co[0], ch[0], re[0]),
    ),
}


def keygen(scheme: SchemeId, suite: GroupSuite, rng: Random) -> KeyPair:
    return SCHEMES[SchemeId(scheme)].keygen(suite, rng)


# -- session machinery ---------------------------------------------------------


@dataclass
class Transcript:
    """One full exchange: message tuples plus the verifier's decision."""

    scheme: SchemeId
    commitment: tuple
    challenge: tuple
    response: tuple
    decision: bool
    rng_seed: object = None
    restarts: int = 0


RESTART = b"restart"
MAX_RESTARTS = 100


class SessionEngine:
    """One role of a whole session as a sans-I/O engine.

    ProverMachine and VerifierMachine define the round (start() and the on_*
    methods); this base runs sessions over it.  open() and receive(tag,
    payload) return the (tag, payload) messages to send next.  A prover that
    cannot answer emits an error message with payload RESTART, then a fresh
    round on the same random stream; the verifier restarts on receiving it.
    transcript() is the decided exchange.  In memory, protocol payloads are
    value tuples and only the sender counts them; on the wire (wire=True)
    they are encoded bytes and each end counts every message, before handing
    it out, so that the prover's counter reset on a restart follows every
    count of the abandoned round.  params, the settings a hello pins, is
    built from the suite when read unless given.  rng, the role's stream, is
    the one given, or else built at its first read, which only a draw makes:
    Random(f"{seed}:{role}") with a seed, and the OS's without.
    """

    role = ""
    takes: tuple = ()  # the protocol messages this role answers
    # Per-round state starts from these class defaults; a restart resets it.
    state = "init"
    commitment = challenge = response = ()
    _secret_state = None
    restarts = 0
    _transcript: Transcript | None = None

    def __init__(self, scheme: SchemeId, key, params: SchemeParams | None = None, rng: Random | None = None,
                 *, seed=None, wire: bool = False):
        self.ops = SCHEMES[scheme if isinstance(scheme, SchemeId) else SchemeId(scheme)]
        self.key = key
        self.suite: GroupSuite = key.suite
        self._params = params
        self._rng = rng
        self.seed = seed
        self.wire = wire

    @property
    def rng(self) -> Random:
        if self._rng is None:
            # Without a seed, draw from the OS: a prover's commitment randomness
            # must not repeat or be predictable across sessions of one key.
            self._rng = SystemRandom() if self.seed is None else Random(f"{self.seed}:{self.role}")
        return self._rng

    @property
    def params(self) -> SchemeParams:
        """The settings given, or else the suite's, built when read."""
        return self._params if self._params is not None else default_scheme_params(self.suite)

    def _expect(self, state: str):
        if self.state != state:
            raise ProtocolViolation(f"{self.role} is in state {self.state!r}, not {state!r}")

    def transcript(self) -> Transcript | None:
        """The decided exchange, or None before the decision."""
        return self._transcript

    def open(self) -> list:
        """The messages this role opens a round with."""
        if self.role == "prover":
            commitment = self.start()
            return [] if commitment is None else self._send(TAG_COMMITMENT, commitment)
        return [] if self.ops.three_message else self._send(TAG_CHALLENGE, self.start())

    def receive(self, tag: int, payload) -> list:
        """Take one message from the peer; return the messages it calls for."""
        if tag in self.takes:
            if self.wire:
                payload = decode_payload(getattr(self.ops, _FIELDS[tag]), payload, self.suite)
                if self.suite.counter is not None:
                    self._count(tag)
            if tag == TAG_COMMITMENT:
                return self._send(TAG_CHALLENGE, self.on_commitment(payload))
            if tag == TAG_CHALLENGE:
                try:
                    response = self.on_challenge(payload)
                except ZeroExponent:
                    return [(TAG_ERROR, RESTART)] + self._restart()
                return self._send(TAG_RESPONSE, response)
            return [(TAG_DECISION, b"\x01" if self.on_response(payload) else b"\x00")]
        if tag == TAG_ERROR:
            if payload == RESTART and self.role == "verifier":
                return self._restart()
            raise_peer_error(payload)
        if tag != TAG_DECISION or self.role != "prover":
            raise ProtocolViolation(f"a {self.role} takes no {TAG_NAMES[tag]} message")
        self._expect("done")
        if payload not in (b"\x00", b"\x01"):
            raise ProtocolViolation("decision payload must be one byte, 0 or 1")
        self._decide(payload == b"\x01")
        return []

    def _restart(self) -> list:
        self.restarts += 1
        if self.restarts > MAX_RESTARTS:
            if self.role == "prover":
                raise DegenerateSuite("session restart limit hit")
            raise ProtocolViolation("peer restarted too many times")
        if self.role == "prover" and self.suite.counter is not None:
            # Counts describe the completed run only.  The prover resets
            # them: in a loopback both ends share one counter.
            self.suite.counter.reset(keep_redraws=True)
            self.suite.counter.redraws += 1
        self.state = "init"
        self.commitment = self.challenge = self.response = ()
        self._secret_state = None
        return self.open()

    def _send(self, tag: int, value: tuple) -> list:
        if self.suite.counter is not None:
            self._count(tag)
        if self.wire:
            return [(tag, encode_payload(getattr(self.ops, _FIELDS[tag]), value, self.suite))]
        return [(tag, value)]

    def _count(self, tag: int):
        for kind in getattr(self.ops, _FIELDS[tag]):
            self.suite.counter.add_sent(kind, self.suite.width(kind))

    def _decide(self, decision: bool):
        self._transcript = Transcript(
            scheme=self.ops.scheme,
            commitment=self.commitment,
            challenge=self.challenge,
            response=self.response,
            decision=decision,
            rng_seed=self.seed,
            restarts=self.restarts,
        )


class ProverMachine(SessionEngine):
    """Prover side of one exchange, with strict message ordering."""

    role = "prover"
    takes = (TAG_CHALLENGE,)

    def start(self) -> tuple | None:
        """Produce the commitment (three-message schemes) or arm the prover."""
        self._expect("init")
        if self.ops.three_message:
            with self.suite.role("prover"):
                self._secret_state, self.commitment = self.ops.commit(self.key, self.rng)
            self.state = "committed"
            return self.commitment
        self.state = "committed"
        return None

    def on_challenge(self, challenge: tuple) -> tuple:
        self._expect("committed")
        self.challenge = self.ops.check(self.suite, TAG_CHALLENGE, challenge)
        with self.suite.role("prover"):
            self.response = self.ops.respond(self.key, self._secret_state, challenge, self)
        self.state = "done"
        return self.response


class VerifierMachine(SessionEngine):
    """Verifier side of one exchange; a forced challenge is checked with the response."""

    role = "verifier"
    takes = (TAG_COMMITMENT, TAG_RESPONSE)

    def __init__(self, scheme: SchemeId, pk, params: SchemeParams | None = None, rng: Random | None = None,
                 forced_challenge: tuple | None = None, *, seed=None, wire: bool = False):
        super().__init__(scheme, pk, params, rng, seed=seed, wire=wire)
        self.forced_challenge = forced_challenge

    def _pick_challenge(self) -> tuple:
        self.challenge = self.forced_challenge
        if self.challenge is None:
            self.challenge = self.ops.sample_challenge(self.suite, self.rng)
        self.state = "challenged"
        return self.challenge

    def start(self) -> tuple:
        """Open a two-message exchange by issuing the challenge."""
        self._expect("init")
        if self.ops.three_message:
            raise ProtocolViolation("three-message schemes wait for a commitment")
        return self._pick_challenge()

    def on_commitment(self, commitment: tuple) -> tuple:
        self._expect("init")
        if not self.ops.three_message:
            raise ProtocolViolation("two-message schemes have no commitment")
        self.commitment = self.ops.check(self.suite, TAG_COMMITMENT, commitment)
        return self._pick_challenge()

    def on_response(self, response: tuple) -> bool:
        self._expect("challenged")
        if self.forced_challenge is not None:
            self.ops.check(self.suite, TAG_CHALLENGE, self.challenge)
        self.response = self.ops.check(self.suite, TAG_RESPONSE, response)
        with self.suite.role("verifier"):
            decision = bool(self.ops.verify(self.key, self.commitment, self.challenge, response))
        self.state = "done"
        self._decide(decision)
        return decision


def exchange(prover: SessionEngine, verifier: SessionEngine, carry=None) -> Transcript:
    """Connect two engines in memory; returns the verifier's transcript.

    carry, when given, maps each message (tag, payload) in transit to the
    one delivered.  The exchange ends when the verifier decides, so its
    decision message is never carried.  If nothing is left in flight before
    the decision (a carried message left both ends waiting for the other),
    it ends with ProtocolViolation.
    """
    # One role opens the exchange; from then on each batch of messages
    # answers the one before it.
    messages, to = prover.open(), verifier
    if not messages:
        messages, to = verifier.open(), prover
    while verifier.transcript() is None:
        if not messages:
            raise ProtocolViolation("both ends wait for a message; the exchange cannot go on")
        replies = []
        for tag, payload in messages:
            if carry is not None:
                tag, payload = carry(tag, payload)
            replies += to.receive(tag, payload)
        messages, to = replies, (prover if to is verifier else verifier)
    return verifier.transcript()


def run_session(scheme: SchemeId, kp, suite: GroupSuite, seed=0) -> Transcript:
    """Run one honest in-process exchange and return its transcript.

    If the prover hits an unanswerable (commitment, challenge) pair, the
    whole exchange restarts with fresh randomness; operation counts are
    reset so the recorded costs describe the completed run only.
    """
    return exchange(ProverMachine(scheme, kp, seed=seed), VerifierMachine(scheme, kp.public(), seed=seed))


def replay_decision(t: Transcript, pk) -> bool:
    """Re-run the verification equation over a stored transcript, once check lets all three messages through."""
    ops = SCHEMES[SchemeId(t.scheme)]
    for tag, values in zip(_FIELDS, (t.commitment, t.challenge, t.response)):
        ops.check(pk.suite, tag, values)
    return bool(ops.verify(pk, t.commitment, t.challenge, t.response))
