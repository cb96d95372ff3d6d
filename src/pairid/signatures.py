"""Short signatures from pairings, hashing to the group, and the forgery game.

Two schemes live here.  The hash-based one signs by exponentiating the
hashed message with the secret key and verifies with two pairings.  The
inversion-based one signs m by exponentiating the generator with
1/(x + m + y*r) for a fresh blinding scalar r, redrawing r whenever the
denominator collapses to zero; verification needs two exponentiations plus
one pairing against a fixed target.  Both keygens and both verify equations
are shared verbatim with the corresponding identification protocols, which
is what makes the forgery reductions in the lab mechanical.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import ClassVar

from .algebra import KIND_G1, KIND_G2, KIND_ZP, G1Element, G2Element, GroupSuite, Scalar


class ModeBackendMismatch(Exception):
    """Hash mode cannot be evaluated on this suite's backend."""


class BudgetExceeded(Exception):
    """An oracle was queried more times than the game allows."""


class DegenerateSuite(Exception):
    """Sampling could not produce usable key material."""


class HashMode(str, Enum):
    # Decode the message as a big-endian integer and reduce mod p.  Only
    # meaningful on the transparent backend where elements are exponents.
    TEST_VECTOR = "test-vector"
    # Classic try-and-increment onto the curve: append a counter byte,
    # digest, interpret as an x-coordinate, take the even/odd root by the
    # digest's sign bit, clear the cofactor.  Curve backend only.
    TRY_INCREMENT = "try-increment"
    # Keyed digest reduced mod p, used as an exponent of the generator.
    # Backend-independent; the security games default to this.
    PSEUDORANDOM = "pseudorandom"


@dataclass(frozen=True)
class HashSpec:
    mode: HashMode
    key: bytes = b""


def default_hash_spec(suite: GroupSuite) -> HashSpec:
    if suite.backend.name == "transparent":
        return HashSpec(HashMode.TEST_VECTOR)
    return HashSpec(HashMode.TRY_INCREMENT)


def hash_to_group(message: bytes, spec: HashSpec, suite: GroupSuite) -> G1Element:
    """Map a byte string into G1.  Hashing is never charged to a role."""
    if spec.mode == HashMode.TEST_VECTOR:
        if suite.backend.name != "transparent":
            raise ModeBackendMismatch("test-vector hashing needs the transparent backend")
        return suite.g1_from_int(int.from_bytes(message, "big") % suite.p)

    if spec.mode == HashMode.PSEUDORANDOM:
        digest = hashlib.sha256(spec.key + message).digest()
        return suite.g1_from_int(int.from_bytes(digest, "big") % suite.p)

    if spec.mode == HashMode.TRY_INCREMENT:
        if suite.backend.name != "tate":
            raise ModeBackendMismatch("try-and-increment hashing needs the curve backend")
        backend = suite.backend
        q, h = backend.q, backend.params.h
        for ctr in range(256):
            digest = hashlib.sha256(spec.key + message + bytes([ctr])).digest()
            x = int.from_bytes(digest, "big") % q
            rhs = (x * x * x + x) % q
            y = pow(rhs, (q + 1) // 4, q)
            if (y * y - rhs) % q != 0:
                continue
            if digest[-1] & 1:
                y = (-y) % q
            from .tate import point_mul  # local import avoids a cycle

            pt = point_mul(h, (x, y), q)
            if pt is None:
                continue
            return G1Element(suite, pt)
        raise DegenerateSuite("try-and-increment exhausted 256 counters")

    raise ModeBackendMismatch(f"unknown hash mode {spec.mode!r}")


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


def bls_sign(kp: ExpKeyPair, message: bytes, spec: HashSpec) -> G1Element:
    h = hash_to_group(message, spec, kp.suite)
    return h ** kp.x


def bls_verify(pk: ExpKeyPair, message: bytes, sig: G1Element, spec: HashSpec) -> bool:
    suite = pk.suite
    h = hash_to_group(message, spec, suite)
    return suite.pairing(suite.g1, sig) == suite.pairing(pk.v, h)


# -- the inversion-based scheme -----------------------------------------------


def bb_sign(kp: BbKeyPair, m: Scalar, rng: Random, counter=None) -> tuple[G1Element, Scalar]:
    """Sign the scalar m; returns (signature, blinding scalar).

    The blinding scalar is redrawn while x + m + y*r = 0, before any group
    operation happens, so the cost profile stays deterministic.
    """
    suite = kp.suite
    for _ in range(100):
        r = suite.random_scalar(rng)
        denom = kp.x + m + kp.y * r
        if denom.value != 0:
            return suite.g1 ** denom.inv(), r
        if counter is not None:
            counter.redraws += 1
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


class _SignOracle:
    def __init__(self, limit: int):
        self.limit = limit
        self.calls = 0
        self.asked: list[bytes] = []

    def charge(self, item):
        self.calls += 1
        if self.calls > self.limit:
            raise BudgetExceeded(f"oracle budget {self.limit} exceeded")
        self.asked.append(item)


class ForgeryContext:
    """What a forger sees: the public key plus budgeted sign/hash oracles."""

    def __init__(self, scheme: str, kp, suite: GroupSuite, spec: HashSpec, cfg: ForgeryGameConfig, rng: Random):
        self.scheme = scheme
        self.suite = suite
        self.spec = spec
        self.pk = kp.public()
        self._kp = kp
        self._rng = rng
        self._sign = _SignOracle(cfg.q_s)
        self._hash = _SignOracle(cfg.q_h)

    def sign(self, message):
        self._sign.charge(message)
        if self.scheme == "bls":
            return bls_sign(self._kp, message, self.spec)
        return bb_sign(self._kp, message, self._rng)

    def hash(self, message: bytes) -> G1Element:
        self._hash.charge(message)
        return hash_to_group(message, self.spec, self.suite)

    @property
    def signed(self) -> list:
        return list(self._sign.asked)


def forgery_game(
    sig_scheme: str,
    adversary,
    config: ForgeryGameConfig,
    suite: GroupSuite,
    hash_spec: HashSpec | None = None,
) -> GameReport:
    """Run the existential-forgery game `trials` times and report the win rate.

    The adversary is a callable (ctx, rng) -> (message, forgery).  A win
    needs a fresh message (never sent to the sign oracle) and a verifying
    signature.  Any budget violation forfeits that trial.
    """
    if sig_scheme not in ("bls", "bb"):
        raise ValueError(f"unknown signature scheme {sig_scheme!r}")
    spec = hash_spec if hash_spec is not None else default_hash_spec(suite)
    wins = 0
    sign_calls = 0
    hash_calls = 0
    t0 = time.monotonic()
    for trial in range(config.trials):
        rng_game = Random(f"{config.seed}:{trial}:game")
        rng_adv = Random(f"{config.seed}:{trial}:adv")
        kp = bls_keygen(suite, rng_game) if sig_scheme == "bls" else bb_keygen(suite, rng_game)
        ctx = ForgeryContext(sig_scheme, kp, suite, spec, config, rng_game)
        try:
            message, forgery = adversary(ctx, rng_adv)
        except BudgetExceeded:
            sign_calls += ctx._sign.calls
            hash_calls += ctx._hash.calls
            continue
        sign_calls += ctx._sign.calls
        hash_calls += ctx._hash.calls
        if message in ctx.signed:
            continue  # not fresh: no credit
        if sig_scheme == "bls":
            ok = bls_verify(kp.public(), message, forgery, spec)
        else:
            sig, r = forgery
            ok = bb_verify(kp.public(), message, sig, r)
        if ok:
            wins += 1
    return GameReport(
        game=f"forgery:{sig_scheme}",
        params={"q_s": config.q_s, "q_h": config.q_h, "p": suite.p},
        trials=config.trials,
        wins=wins,
        advantage=wins / config.trials if config.trials else 0.0,
        queries={"sign": sign_calls, "hash": hash_calls},
        seconds=time.monotonic() - t0,
    )
