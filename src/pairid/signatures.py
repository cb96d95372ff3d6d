"""Short signatures from pairings, hashing to the group, and the forgery game.

Two schemes live here.  The hash-based one signs by exponentiating the
hashed message with the secret key and verifies with two pairings.  The
hash into G1 and the check e(g, sig) = e(v, H(m)) are the suite's
(pairid.algebra), and the curve backend folds the cofactor into that
check (pairid.tate); only hash_to_group takes a hash spec, which must name
the backend's one mode.  The inversion-based one signs m by exponentiating
the generator with 1/(x + m + y*r) for a fresh blinding scalar r, redrawing
r whenever the denominator collapses to zero; verification needs two
exponentiations plus one pairing against a fixed target.  Both keygens and both verify equations
are shared verbatim with the corresponding identification protocols, which
is what makes the forgery reductions in the lab mechanical.

Every game here and in the lab limits its oracles with one Budget: the sign
and hash oracles of the forgery game, the lab's honest-prover oracle and its
one-more helper oracle.  The repeated games share one trial loop, run_trials,
and one judge, unless_forfeit: an adversary that breaks a rule of its game
loses its trial instead of ending the game.  The forgery game tests its
queries and answers with GroupSuite.holds, by each scheme's shape in kinds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import ClassVar

from .algebra import (KIND_BITS, KIND_G1, KIND_G2, KIND_ZP, DegenerateSuite, G1Element, G2Element, GroupSuite,
                      PeerError, Scalar)


class ModeBackendMismatch(Exception):
    """Hash mode cannot be evaluated on this suite's backend."""


class Forfeit(Exception):
    """The adversary broke a rule of its game, and so loses the trial."""


class BudgetExceeded(Forfeit):
    """An oracle was queried more times than the game allows."""


class MalformedQuery(Forfeit):
    """An oracle was asked about a value that is not its kind in the game's suite."""


class Budget:
    """An oracle's query budget: charge() counts a call and refuses the one past the limit."""

    def __init__(self, limit: int | float):
        self.limit = limit
        self.calls = 0

    def charge(self):
        self.calls += 1
        if self.calls > self.limit:
            raise BudgetExceeded(f"oracle budget {self.limit} exceeded")


def unless_forfeit(play, *args):
    """play(*args), or None when the adversary forfeits: it raised a Forfeit, or an honest
    engine or oracle raised a PeerError at its message, even after the verifier decided."""
    try:
        return play(*args)
    except (Forfeit, PeerError):
        return None


class HashMode(str, Enum):
    # Each backend has exactly one mode, its hash_mode: the message as an
    # integer mod p on the transparent one, try-and-increment on the curve.
    TEST_VECTOR = "test-vector"
    TRY_INCREMENT = "try-increment"


@dataclass(frozen=True)
class HashSpec:
    mode: HashMode


def default_hash_spec(suite: GroupSuite) -> HashSpec:
    return HashSpec(HashMode(suite.backend.hash_mode))


def hash_to_group(message: bytes, spec: HashSpec, suite: GroupSuite) -> G1Element:
    """Map a byte string into G1.  Hashing is never charged to a role."""
    if spec.mode != suite.backend.hash_mode:
        raise ModeBackendMismatch(f"hash mode {spec.mode!r} is not this backend's, {suite.backend.hash_mode!r}")
    return suite.hash_to_g1(message)


# -- key material ------------------------------------------------------------


class KeyPair:
    """Base of every scheme's keypair, and the one declaration of its layout.

    A subclass is a dataclass whose first field is the suite.  PUBLIC and
    SECRET name its other fields as (name, kind) pairs in record storage
    order; a public-only keypair holds None in every SECRET field.
    """

    PUBLIC: ClassVar[tuple] = ()
    SECRET: ClassVar[tuple] = ()

    def __init_subclass__(cls, **kwargs):
        # public() runs several times per lab step; build its None map once.
        super().__init_subclass__(**kwargs)
        cls._no_secret = dict.fromkeys(name for name, _ in cls.SECRET)

    def public(self):
        """The same key with its secret fields cleared."""
        return type(self)(**{**vars(self), **self._no_secret})

    @property
    def has_secret(self) -> bool:
        return all(getattr(self, name) is not None for name, _ in self.SECRET)


@dataclass
class ExpKeyPair(KeyPair):
    """Secret exponent x with public key v = g^x."""

    PUBLIC = (("v", KIND_G1),)
    SECRET = (("x", KIND_ZP),)

    suite: GroupSuite
    x: Scalar | None
    v: G1Element


@dataclass
class BbKeyPair(KeyPair):
    """Two secret exponents (x, y) with public u = g^x, v = g^y, z = e(g, g)."""

    PUBLIC = (("u", KIND_G1), ("v", KIND_G1), ("z", KIND_G2))
    SECRET = (("x", KIND_ZP), ("y", KIND_ZP))

    suite: GroupSuite
    x: Scalar | None
    y: Scalar | None
    u: G1Element
    v: G1Element
    z: G2Element


def _nonzero_scalar(suite: GroupSuite, rng: Random) -> Scalar:
    for _ in range(100):
        s = suite.random_scalar(rng)
        if s.value != 0:
            return s
    raise DegenerateSuite("could not sample a nonzero scalar")


def bls_keygen(suite: GroupSuite, rng: Random) -> ExpKeyPair:
    x = _nonzero_scalar(suite, rng)
    return ExpKeyPair(suite, x, suite.g1 ** x)


def bb_keygen(suite: GroupSuite, rng: Random) -> BbKeyPair:
    x = _nonzero_scalar(suite, rng)
    y = _nonzero_scalar(suite, rng)
    return BbKeyPair(suite, x, y, suite.g1 ** x, suite.g1 ** y, suite.g2)


# -- the hash-based scheme ----------------------------------------------------


def bls_sign(kp: ExpKeyPair, message: bytes) -> G1Element:
    return kp.suite.hash_to_g1(message) ** kp.x


def bls_verify(pk: ExpKeyPair, message: bytes, sig: G1Element) -> bool:
    suite = pk.suite
    return suite.pairings_equal_hashed(suite.g1, sig, pk.v, message)


# -- the inversion-based scheme -----------------------------------------------


def bb_sign(kp: BbKeyPair, m: Scalar, rng: Random) -> tuple[G1Element, Scalar]:
    """Sign the scalar m; returns (signature, blinding scalar).

    The blinding scalar is redrawn while x + m + y*r = 0, before any group
    operation happens, so the cost profile stays deterministic; a counted
    suite counts each redraw.
    """
    suite = kp.suite
    for _ in range(100):
        r = suite.random_scalar(rng)
        denom = kp.x + m + kp.y * r
        if denom.value != 0:
            return suite.g1 ** denom.inv(), r
        if suite.counter is not None:
            suite.counter.redraws += 1
    raise DegenerateSuite("blinding redraw limit hit")


def bb_verify(pk: BbKeyPair, m: Scalar, sig: G1Element, r: Scalar) -> bool:
    suite = pk.suite
    target = pk.u * (suite.g1 ** m) * (pk.v ** r)
    return suite.pairing(sig, target) == pk.z


# -- the forgery game ----------------------------------------------------------


@dataclass(frozen=True)
class ForgeryGameConfig:
    q_s: int = 8
    q_h: int = 16
    trials: int = 100
    seed: int = 0


@dataclass
class GameReport:
    """Outcome of a repeated security game."""

    game: str
    params: dict
    trials: int
    wins: int
    advantage: float
    queries: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        qbits = " ".join(f"{k}={v}" for k, v in sorted(self.queries.items()))
        return (
            f"{self.game}: {self.wins}/{self.trials} wins "
            f"(advantage {self.advantage:.4f}) {qbits}".rstrip()
        )


def run_trials(game: str, params: dict, trials: int, trial, oracles: tuple = ()) -> GameReport:
    """Play trial(i) for i in range(trials) and report the win rate.

    trial(i) returns (won, {oracle: queries spent}).  The report names every
    oracle in oracles, so a run of zero trials still shows them at zero.
    """
    wins = 0
    queries = dict.fromkeys(oracles, 0)
    t0 = time.monotonic()
    for i in range(trials):
        won, spent = trial(i)
        wins += won
        for oracle, calls in spent.items():
            queries[oracle] += calls
    advantage = wins / trials if trials else 0.0
    return GameReport(game, params, trials, wins, advantage, queries, seconds=time.monotonic() - t0)


# Each scheme's (message, forgery) shape: a kind, or a tuple of shapes.
_SHAPES = {"bls": (KIND_BITS, KIND_G1), "bb": (KIND_ZP, (KIND_G1, KIND_ZP))}


def _shaped(suite: GroupSuite, value, shape) -> bool:
    if isinstance(shape, str):
        return suite.holds(shape, value)
    return (isinstance(value, tuple) and len(value) == len(shape)
            and all(_shaped(suite, v, s) for v, s in zip(value, shape)))


class ForgeryContext:
    """What a forger sees: the public key plus budgeted sign/hash oracles.
    A query that is not its kind in the suite raises MalformedQuery, uncharged."""

    def __init__(self, scheme: str, kp, suite: GroupSuite, cfg: ForgeryGameConfig, rng: Random):
        self.scheme = scheme
        self.suite = suite
        self.pk = kp.public()
        self._kp = kp
        self._rng = rng
        self._sign = Budget(cfg.q_s)
        self._hash = Budget(cfg.q_h)
        self.signed: list = []

    def _charge(self, budget: Budget, message, kind: str):
        if not self.suite.holds(kind, message):
            raise MalformedQuery(f"this oracle takes a {kind} message of its suite")
        budget.charge()

    def sign(self, message):
        self._charge(self._sign, message, _SHAPES[self.scheme][0])
        self.signed.append(message)
        if self.scheme == "bls":
            return bls_sign(self._kp, message)
        return bb_sign(self._kp, message, self._rng)

    def hash(self, message: bytes) -> G1Element:
        self._charge(self._hash, message, KIND_BITS)
        return self.suite.hash_to_g1(message)


def forgery_game(sig_scheme: str, adversary, config: ForgeryGameConfig, suite: GroupSuite) -> GameReport:
    """Run the existential-forgery game `trials` times and report the win rate.

    The adversary is a callable (ctx, rng) -> (message, forgery): bytes and a
    G1Element for bls, a Scalar and a (G1Element, Scalar) pair for bb, all of
    the game's suite.  A win needs a fresh message (never sent to the sign
    oracle) and a verifying signature.  A forfeit (unless_forfeit) or an
    answer of another shape loses that trial.
    """
    if sig_scheme not in ("bls", "bb"):
        raise ValueError(f"unknown signature scheme {sig_scheme!r}")

    def trial(i):
        rng_game = Random(f"{config.seed}:{i}:game")
        kp = bls_keygen(suite, rng_game) if sig_scheme == "bls" else bb_keygen(suite, rng_game)
        ctx = ForgeryContext(sig_scheme, kp, suite, config, rng_game)
        answer = unless_forfeit(adversary, ctx, Random(f"{config.seed}:{i}:adv"))
        # A forfeit or a misshapen answer forges nothing, and a message sent
        # to the sign oracle is not fresh: no credit, and no verifier runs.
        won = _shaped(suite, answer, _SHAPES[sig_scheme]) and answer[0] not in ctx.signed and (
            bls_verify(kp.public(), *answer) if sig_scheme == "bls"
            else bb_verify(kp.public(), answer[0], *answer[1]))
        return won, {"sign": ctx._sign.calls, "hash": ctx._hash.calls}

    params = {"q_s": config.q_s, "q_h": config.q_h, "p": suite.p}
    return run_trials(f"forgery:{sig_scheme}", params, config.trials, trial, ("sign", "hash"))
