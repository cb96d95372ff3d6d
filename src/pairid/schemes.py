"""Six pairing-based identification protocols behind one uniform interface.

Three protocols are two-message (the verifier opens with a random challenge,
the prover answers, the verifier decides) and three are canonical
three-message commit/challenge/respond protocols.  Each scheme is described
by a SchemeOps record holding its keypair class (which declares the key's
fields), its keygen, message shapes, and the four core callables;
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
    G1Element,
    G2Element,
    GroupSuite,
    Scalar,
)
from .signatures import (
    BbKeyPair,
    DegenerateSuite,
    ExpKeyPair,
    HashSpec,
    KeyPair,
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


class IdentityChallenge(Exception):
    """Group-element challenge was the identity."""


class BadChallengeLength(Exception):
    """Bit-string challenge does not have the configured length."""


class ZeroChallenge(Exception):
    """Scalar challenge was zero; challenges are drawn from Z_p^*."""


class ZeroExponent(Exception):
    """The response exponent denominator vanished for this (commitment, challenge)."""


class ProtocolViolation(Exception):
    """Message arrived out of order or with the wrong shape."""


class SchemeId(str, Enum):
    BLSID = "blsid"
    CDHID = "cdhid"
    SDHID = "sdhid"
    OWFID = "owfid"
    SCL = "scl"
    HLS = "hls"


@dataclass(frozen=True)
class SchemeParams:
    """Per-session knobs: challenge bit length and the hash for blsid."""

    n: int
    hash_spec: HashSpec


def default_scheme_params(suite: GroupSuite) -> SchemeParams:
    # n-bit challenges cover Z_p when n is the bit length of p - 1.
    return SchemeParams(n=(suite.p - 1).bit_length(), hash_spec=default_hash_spec(suite))


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


def _nonidentity_g1(suite: GroupSuite, rng: Random) -> G1Element:
    for _ in range(100):
        e = suite.random_g1(rng)
        if not e.is_identity:
            return e
    raise DegenerateSuite("could not sample a non-identity G1 element")


def _nonidentity_g2(suite: GroupSuite, rng: Random) -> G2Element:
    for _ in range(100):
        e = suite.random_g2(rng)
        if not e.is_identity:
            return e
    raise DegenerateSuite("could not sample a non-identity G2 element")


def owfid_keygen(suite: GroupSuite, rng: Random) -> OwfidKeyPair:
    P = _nonidentity_g1(suite, rng)
    y = _nonidentity_g2(suite, rng)
    Q = suite.random_g1(rng)
    s = suite.random_scalar(rng)
    v = (suite.pairing(P, Q) * y**s).inverse()
    return OwfidKeyPair(suite, P, y, Q, s, v)


def scl_keygen(suite: GroupSuite, rng: Random) -> SclKeyPair:
    g = _nonidentity_g1(suite, rng)
    x = suite.random_scalar(rng)
    return SclKeyPair(suite, g, x, g**x, suite.pairing(g, g))


def hls_keygen(suite: GroupSuite, rng: Random) -> HlsKeyPair:
    P = _nonidentity_g1(suite, rng)
    Q = suite.random_g1(rng)
    return HlsKeyPair(suite, P, Q, suite.pairing(P, P), suite.pairing(P, Q))


# -- per-scheme operations -----------------------------------------------------


def _check_bits(message: bytes, n: int):
    if len(message) != (n + 7) // 8:
        raise BadChallengeLength(f"expected {(n + 7) // 8} bytes for {n} bits")
    if int.from_bytes(message, "big") >> n:
        raise BadChallengeLength(f"value does not fit in {n} bits")


def _check_nonzero(m: Scalar):
    if m.value == 0:
        raise ZeroChallenge("scalar challenges are drawn from Z_p^*")


def blsid_respond(kp: ExpKeyPair, message: bytes, params: SchemeParams) -> G1Element:
    _check_bits(message, params.n)
    return bls_sign(kp, message, params.hash_spec)


def blsid_verify(pk: ExpKeyPair, message: bytes, sig: G1Element, params: SchemeParams) -> bool:
    _check_bits(message, params.n)
    return bls_verify(pk, message, sig, params.hash_spec)


def blsid_verify_point(pk: ExpKeyPair, h: G1Element, sig: G1Element) -> bool:
    # Same equation with the hashed challenge supplied directly.
    suite = pk.suite
    return suite.pairing(suite.g1, sig) == suite.pairing(pk.v, h)


def cdhid_respond(kp: ExpKeyPair, h: G1Element) -> G1Element:
    if h.is_identity:
        raise IdentityChallenge("challenge must be a non-identity element")
    return h ** kp.x


def cdhid_verify(pk: ExpKeyPair, h: G1Element, sig: G1Element) -> bool:
    if h.is_identity:
        raise IdentityChallenge("challenge must be a non-identity element")
    suite = pk.suite
    return suite.pairing(suite.g1, sig) == suite.pairing(pk.v, h)


def sdhid_respond(kp: BbKeyPair, m: Scalar, rng: Random, counter=None) -> tuple[G1Element, Scalar]:
    _check_nonzero(m)
    return bb_sign(kp, m, rng, counter)


def sdhid_verify(pk: BbKeyPair, m: Scalar, sig: G1Element, r: Scalar) -> bool:
    _check_nonzero(m)
    return bb_verify(pk, m, sig, r)


def owfid_commit(kp: OwfidKeyPair, rng: Random):
    suite = kp.suite
    R = suite.random_g1(rng)
    r = suite.random_scalar(rng)
    x = suite.pairing(kp.P, R) * kp.y**r
    return (R, r), x


def owfid_respond(kp: OwfidKeyPair, state, m: Scalar) -> tuple[G1Element, Scalar]:
    _check_nonzero(m)
    R, r = state
    return R * kp.Q**m, r + m * kp.s


def owfid_verify(pk: OwfidKeyPair, x: G2Element, m: Scalar, T: G1Element, a: Scalar) -> bool:
    _check_nonzero(m)
    suite = pk.suite
    return suite.pairing(pk.P, T) * pk.y**a * pk.v**m == x


def scl_commit(kp: SclKeyPair, rng: Random):
    w = kp.suite.random_scalar(rng)
    return w, kp.g**w


def scl_respond(kp: SclKeyPair, w: Scalar, r: Scalar) -> G1Element:
    _check_nonzero(r)
    denom = kp.x * r + w
    if denom.value == 0:
        # No response exists for this (commitment, challenge) pair; the
        # session layer restarts with a fresh commitment.
        raise ZeroExponent("x*r + w = 0")
    return kp.g ** denom.inv()


def scl_verify(pk: SclKeyPair, tau: G1Element, r: Scalar, sigma: G1Element) -> bool:
    _check_nonzero(r)
    suite = pk.suite
    return suite.pairing(sigma, tau * pk.v**r) == pk.z


def hls_commit(kp: HlsKeyPair, rng: Random):
    r = kp.suite.random_scalar(rng)
    return r, kp.z**r


def hls_respond(kp: HlsKeyPair, r: Scalar, c: Scalar) -> G1Element:
    _check_nonzero(c)
    return kp.P**r * kp.Q**c


def hls_verify(pk: HlsKeyPair, w: G2Element, c: Scalar, sigma: G1Element) -> bool:
    _check_nonzero(c)
    suite = pk.suite
    return suite.pairing(pk.P, sigma) == w * pk.v**c


# -- uniform interface ---------------------------------------------------------


@dataclass(frozen=True)
class SchemeOps:
    """Everything a session driver needs to run one scheme."""

    scheme: SchemeId
    keypair: type  # the KeyPair subclass that declares this scheme's key
    commitment_fields: tuple
    challenge_fields: tuple
    response_fields: tuple
    keygen: callable
    commit: callable  # (kp, params, rng) -> (state, commitment tuple); None for 2-message
    sample_challenge: callable  # (suite, params, rng) -> challenge tuple
    respond: callable  # (kp, state, challenge tuple, params, rng, counter) -> response tuple
    verify: callable  # (pk, commitment tuple, challenge tuple, response tuple, params) -> bool

    @property
    def three_message(self) -> bool:
        return self.commit is not None


def _wrap_commit(fn):
    # Flat commit helpers return (secret state, single message value).
    def commit(kp, params, rng):
        state, value = fn(kp, rng)
        return state, (value,)

    return commit


def _bits_challenge(suite, params, rng):
    width = (params.n + 7) // 8
    return (rng.getrandbits(params.n).to_bytes(width, "big"),)


def _g1_challenge(suite, params, rng):
    return (suite.random_g1(rng, nonidentity=True),)


def _scalar_challenge(suite, params, rng):
    return (suite.random_scalar(rng, nonzero=True),)


SCHEMES: dict[SchemeId, SchemeOps] = {
    SchemeId.BLSID: SchemeOps(
        scheme=SchemeId.BLSID,
        keypair=ExpKeyPair,
        commitment_fields=(),
        challenge_fields=(KIND_BITS,),
        response_fields=(KIND_G1,),
        keygen=bls_keygen,
        commit=None,
        sample_challenge=_bits_challenge,
        respond=lambda kp, st, ch, params, rng, counter: (blsid_respond(kp, ch[0], params),),
        verify=lambda pk, co, ch, re, params: blsid_verify(pk, ch[0], re[0], params),
    ),
    SchemeId.CDHID: SchemeOps(
        scheme=SchemeId.CDHID,
        keypair=ExpKeyPair,
        commitment_fields=(),
        challenge_fields=(KIND_G1,),
        response_fields=(KIND_G1,),
        keygen=bls_keygen,
        commit=None,
        sample_challenge=_g1_challenge,
        respond=lambda kp, st, ch, params, rng, counter: (cdhid_respond(kp, ch[0]),),
        verify=lambda pk, co, ch, re, params: cdhid_verify(pk, ch[0], re[0]),
    ),
    SchemeId.SDHID: SchemeOps(
        scheme=SchemeId.SDHID,
        keypair=BbKeyPair,
        commitment_fields=(),
        challenge_fields=(KIND_ZP,),
        response_fields=(KIND_G1, KIND_ZP),
        keygen=bb_keygen,
        commit=None,
        sample_challenge=_scalar_challenge,
        respond=lambda kp, st, ch, params, rng, counter: sdhid_respond(kp, ch[0], rng, counter),
        verify=lambda pk, co, ch, re, params: sdhid_verify(pk, ch[0], re[0], re[1]),
    ),
    SchemeId.OWFID: SchemeOps(
        scheme=SchemeId.OWFID,
        keypair=OwfidKeyPair,
        commitment_fields=(KIND_G2,),
        challenge_fields=(KIND_ZP,),
        response_fields=(KIND_G1, KIND_ZP),
        keygen=owfid_keygen,
        commit=_wrap_commit(owfid_commit),
        sample_challenge=_scalar_challenge,
        respond=lambda kp, st, ch, params, rng, counter: owfid_respond(kp, st, ch[0]),
        verify=lambda pk, co, ch, re, params: owfid_verify(pk, co[0], ch[0], re[0], re[1]),
    ),
    SchemeId.SCL: SchemeOps(
        scheme=SchemeId.SCL,
        keypair=SclKeyPair,
        commitment_fields=(KIND_G1,),
        challenge_fields=(KIND_ZP,),
        response_fields=(KIND_G1,),
        keygen=scl_keygen,
        commit=_wrap_commit(scl_commit),
        sample_challenge=_scalar_challenge,
        respond=lambda kp, st, ch, params, rng, counter: (scl_respond(kp, st, ch[0]),),
        verify=lambda pk, co, ch, re, params: scl_verify(pk, co[0], ch[0], re[0]),
    ),
    SchemeId.HLS: SchemeOps(
        scheme=SchemeId.HLS,
        keypair=HlsKeyPair,
        commitment_fields=(KIND_G2,),
        challenge_fields=(KIND_ZP,),
        response_fields=(KIND_G1,),
        keygen=hls_keygen,
        commit=_wrap_commit(hls_commit),
        sample_challenge=_scalar_challenge,
        respond=lambda kp, st, ch, params, rng, counter: (hls_respond(kp, st, ch[0]),),
        verify=lambda pk, co, ch, re, params: hls_verify(pk, co[0], ch[0], re[0]),
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
_FIELDS = {
    TAG_COMMITMENT: "commitment_fields",
    TAG_CHALLENGE: "challenge_fields",
    TAG_RESPONSE: "response_fields",
}


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
    count of the abandoned round.
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
        self.ops = SCHEMES[SchemeId(scheme)]
        self.key = key
        self.suite: GroupSuite = key.suite
        self.params = params if params is not None else default_scheme_params(self.suite)
        if rng is None:
            # Without a seed, draw from the OS: a prover's commitment randomness
            # must not repeat or be predictable across sessions of one key.
            rng = SystemRandom() if seed is None else Random(f"{seed}:{self.role}")
        self.rng = rng
        self.seed = seed
        self.wire = wire

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
                payload = decode_payload(getattr(self.ops, _FIELDS[tag]), payload, self.suite, self.params.n)
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
            decision = self.on_response(payload)
            self._decide(decision)
            return [(TAG_DECISION, b"\x01" if decision else b"\x00")]
        if tag == TAG_ERROR:
            if payload == RESTART and self.role == "verifier":
                return self._restart()
            raise ProtocolViolation(f"peer error: {payload.decode('ascii', 'replace')}")
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
            return [(tag, encode_payload(getattr(self.ops, _FIELDS[tag]), value, self.suite, self.params.n))]
        return [(tag, value)]

    def _count(self, tag: int):
        for kind in getattr(self.ops, _FIELDS[tag]):
            self.suite.counter.add_sent(kind, self.suite.width(kind, self.params.n))

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
                self._secret_state, self.commitment = self.ops.commit(self.key, self.params, self.rng)
            self.state = "committed"
            return self.commitment
        self.state = "committed"
        return None

    def on_challenge(self, challenge: tuple) -> tuple:
        self._expect("committed")
        if len(challenge) != len(self.ops.challenge_fields):
            raise ProtocolViolation("challenge has the wrong number of fields")
        self.challenge = challenge
        counter = self.suite.counter
        with self.suite.role("prover"):
            self.response = self.ops.respond(self.key, self._secret_state, challenge, self.params, self.rng, counter)
        self.state = "done"
        return self.response


class VerifierMachine(SessionEngine):
    """Verifier side of one exchange; can be forced onto a fixed challenge."""

    role = "verifier"
    takes = (TAG_COMMITMENT, TAG_RESPONSE)

    def __init__(self, scheme: SchemeId, pk, params: SchemeParams | None = None, rng: Random | None = None,
                 forced_challenge: tuple | None = None, *, seed=None, wire: bool = False):
        super().__init__(scheme, pk, params, rng, seed=seed, wire=wire)
        self.forced_challenge = forced_challenge

    def _pick_challenge(self) -> tuple:
        if self.forced_challenge is not None:
            ch = self.forced_challenge
        else:
            ch = self.ops.sample_challenge(self.suite, self.params, self.rng)
        if len(ch) != len(self.ops.challenge_fields):
            raise ProtocolViolation("challenge has the wrong number of fields")
        self.challenge = ch
        self.state = "challenged"
        return ch

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
        if len(commitment) != len(self.ops.commitment_fields):
            raise ProtocolViolation("commitment has the wrong number of fields")
        self.commitment = commitment
        return self._pick_challenge()

    def on_response(self, response: tuple) -> bool:
        self._expect("challenged")
        if len(response) != len(self.ops.response_fields):
            raise ProtocolViolation("response has the wrong number of fields")
        self.response = response
        with self.suite.role("verifier"):
            decision = self.ops.verify(self.key, self.commitment, self.challenge, response, self.params)
        self.state = "done"
        return bool(decision)


def exchange(prover: SessionEngine, verifier: SessionEngine, carry=None) -> Transcript:
    """Connect two engines in memory; returns the verifier's transcript.

    carry, when given, maps each message (tag, payload) in transit to the
    one delivered.  The exchange ends when the verifier decides, so its
    decision message is never carried.
    """
    # One role opens the exchange; from then on each batch of messages
    # answers the one before it.
    messages, to = prover.open(), verifier
    if not messages:
        messages, to = verifier.open(), prover
    while verifier.transcript() is None:
        replies = []
        for tag, payload in messages:
            if carry is not None:
                tag, payload = carry(tag, payload)
            replies += to.receive(tag, payload)
        messages, to = replies, (prover if to is verifier else verifier)
    return verifier.transcript()


def run_session(
    scheme: SchemeId,
    kp,
    suite: GroupSuite,
    seed=0,
    params: SchemeParams | None = None,
) -> Transcript:
    """Run one honest in-process exchange and return its transcript.

    If the prover hits an unanswerable (commitment, challenge) pair, the
    whole exchange restarts with fresh randomness; operation counts are
    reset so the recorded costs describe the completed run only.
    """
    params = params if params is not None else default_scheme_params(suite)
    prover = ProverMachine(scheme, kp, params, seed=seed)
    return exchange(prover, VerifierMachine(scheme, kp.public(), params, seed=seed))


def replay_decision(t: Transcript, pk, params: SchemeParams | None = None) -> bool:
    """Re-run the verification equation over a stored transcript."""
    ops = SCHEMES[SchemeId(t.scheme)]
    params = params if params is not None else default_scheme_params(pk.suite)
    return bool(ops.verify(pk, t.commitment, t.challenge, t.response, params))
