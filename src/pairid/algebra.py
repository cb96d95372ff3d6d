"""Prime-order groups, scalars, the pairing interface, and cost accounting.

A GroupSuite bundles a prime p, two groups G1 and G2 of order p with fixed
generators, a bilinear pairing G1 x G1 -> G2, and n, the bit length of
p - 1, which fixes the length of bit-string challenges.  Group elements are
thin handles over a backend payload.  The transparent backend in this module
represents every element by its discrete logarithm relative to the suite
generator, so the pairing is literally exponent multiplication mod p: every
identity can be re-checked with integer arithmetic and logs are free, which
the lab uses to script omniscient attackers.  The curve backend lives in
pairid.tate.  Both implement the whole backend interface, so GroupSuite
never asks which one it holds: p, name, hash_mode; combine, power, invert,
identity, from_int and log per element kind; pair, pair_from_int(a, b, k),
which is pair(a, b) for b = from_int(KIND_G1, k), pair_equal; hash_to_g1 (the hash
hash_mode names) and pair_equal_hashed(a, b, c, data), which decides
e(a, b) = e(c, hash_to_g1(data)), if it can without the hash; width, encode,
decode and describe.  Backend widths cover group elements;
GroupSuite.width adds scalars and n-bit strings, which depend on p alone.
power, pair, pair_from_int, pair_equal and pair_equal_hashed also take,
after their payloads and in their order, the holder of each base: a of
each, and c of the two equalities.  GroupSuite passes the element itself,
whose `tables` slot is None until a backend keeps precomputed tables for
its value there; the curve backend does, and the transparent one ignores
its holders.

Exponentiations and pairings are charged to whichever session role (prover
or verifier) is active in the running thread.  Library calls made outside a
role context are never counted, and neither is random sampling or hashing,
which keeps the measured per-protocol costs aligned with how such tables are
conventionally drawn up (only explicit exponentiations and pairings count).
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field, fields

from .primes import is_prime

ROLES = ("prover", "verifier")
# The role that counted operations in the running thread are charged to.
_ACTIVE_ROLE: ContextVar = ContextVar("role", default=None)

# Payload kinds used for bandwidth accounting and wire encoding.
KIND_G1 = "g1"
KIND_G2 = "g2"
KIND_ZP = "zp"
KIND_BITS = "nbits"


class ZeroInverse(Exception):
    """Multiplicative inverse of 0 mod p was requested."""


class PeerError(Exception):
    """What a peer, or a wire between the peers, can end a session with."""


class MalformedEncoding(PeerError):
    """Byte string is not a valid fixed-width encoding for this suite."""


class ValidationFailed(ValueError):
    """Group or curve parameters failed a check."""


class DegenerateSuite(Exception):
    """Sampling could not produce usable key material."""


def scalar_width(p: int) -> int:
    # Fixed-width big-endian.  Never below two bytes, so the tiny desk-scale
    # primes share framing logic with larger ones.
    return max(2, (p.bit_length() + 7) // 8)


class Scalar:
    """An element of Z_p for a prime p, with operator arithmetic."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _other(self, other):
        if isinstance(other, Scalar):
            if other.p != self.p:
                raise ValueError("scalars belong to different moduli")
            return other.value
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return Scalar(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return Scalar(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return Scalar(v - self.value, self.p)

    def __mul__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return Scalar(self.value * v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(-self.value, self.p)

    def inv(self) -> "Scalar":
        if self.value == 0:
            raise ZeroInverse(f"0 has no inverse mod {self.p}")
        return Scalar(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self * Scalar(v, self.p).inv()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Scalar({self.value} mod {self.p})"


@dataclass
class CostCounter:
    """Operation and bandwidth counts for one instrumented session.

    Exponentiations and pairings are kept per role; bandwidth is a session
    total (both directions).  Redraws record how often a prover had to throw
    away a random draw (denominator collisions); they are reported separately
    and excluded from determinism comparisons.  A counted suite counts one
    session at a time: its counter is shared, and a prover's restart resets it.
    """

    g1_exp: dict = field(default_factory=lambda: {r: 0 for r in ROLES})
    g2_exp: dict = field(default_factory=lambda: {r: 0 for r in ROLES})
    pairings: dict = field(default_factory=lambda: {r: 0 for r in ROLES})
    sent_elems: dict = field(default_factory=lambda: {k: 0 for k in (KIND_G1, KIND_G2, KIND_ZP, KIND_BITS)})
    sent_bytes: dict = field(default_factory=lambda: {k: 0 for k in (KIND_G1, KIND_G2, KIND_ZP, KIND_BITS)})
    redraws: int = 0

    def add_exp(self, kind: str, role: str):
        (self.g1_exp if kind == KIND_G1 else self.g2_exp)[role] += 1

    def add_pairing(self, role: str):
        self.pairings[role] += 1

    def add_sent(self, kind: str, nbytes: int):
        self.sent_elems[kind] += 1
        self.sent_bytes[kind] += nbytes

    def reset(self, keep_redraws: bool = False):
        """Set every field back to its default, redraws too unless kept."""
        fresh = CostCounter(redraws=self.redraws if keep_redraws else 0)
        for f in fields(self):
            setattr(self, f.name, getattr(fresh, f.name))

    def snapshot(self) -> dict:
        return {
            "g1_exp": dict(self.g1_exp),
            "g2_exp": dict(self.g2_exp),
            "pairings": dict(self.pairings),
            "sent_elems": dict(self.sent_elems),
            "sent_bytes": dict(self.sent_bytes),
        }


class _GroupElement:
    __slots__ = ("suite", "payload", "tables")
    kind = ""

    def __init__(self, suite: "GroupSuite", payload):
        self.suite = suite
        self.payload = payload
        self.tables = None  # what the backend keeps for payload (see the module docstring)

    def _same(self, other) -> bool:
        return type(other) is type(self) and other.suite.compatible(self.suite)

    def __mul__(self, other):
        if not self._same(other):
            return NotImplemented
        return type(self)(self.suite, self.suite.backend.combine(self.kind, self.payload, other.payload))

    def inverse(self):
        return type(self)(self.suite, self.suite.backend.invert(self.kind, self.payload))

    def __truediv__(self, other):
        if not self._same(other):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k):
        return self.suite._power(self, k)

    @property
    def is_identity(self) -> bool:
        return self.payload == self.suite.backend.identity(self.kind)

    def __eq__(self, other):
        if not isinstance(other, _GroupElement):
            return NotImplemented
        return (
            type(other) is type(self)
            and other.suite.compatible(self.suite)
            and other.payload == self.payload
        )

    def __hash__(self):
        return hash((self.kind, self.suite.p, self.payload))

    def __repr__(self):
        return f"{type(self).__name__}({self.payload!r})"


class G1Element(_GroupElement):
    kind = KIND_G1


class G2Element(_GroupElement):
    kind = KIND_G2


class TransparentBackend:
    """Element = its exponent mod p; pairing = exponent product mod p."""

    name = "transparent"
    hash_mode = "test-vector"

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValidationFailed(f"group order {p} must be a prime >= 5")
        self.p = p
        self._w = scalar_width(p)

    def combine(self, kind, a, b):
        return (a + b) % self.p

    def power(self, kind, a, k, holder=None):
        return (a * k) % self.p

    def invert(self, kind, a):
        return (-a) % self.p

    def identity(self, kind):
        return 0

    def from_int(self, kind, k):
        return k % self.p

    def log(self, kind, a):
        return a

    def pair(self, a, b, holder=None):
        return (a * b) % self.p

    def pair_from_int(self, a, b, k, holder=None):
        return (a * k) % self.p

    def pair_equal(self, a, b, c, d, holder_a=None, holder_c=None) -> bool:
        return (a * b - c * d) % self.p == 0

    def hash_to_g1(self, data: bytes):
        return int.from_bytes(data, "big") % self.p

    def pair_equal_hashed(self, a, b, c, data: bytes, holder_a=None, holder_c=None) -> bool:
        return self.pair_equal(a, b, c, self.hash_to_g1(data))

    def width(self, kind):
        return self._w

    def encode(self, kind, payload) -> bytes:
        return payload.to_bytes(self._w, "big")

    def decode(self, kind, data: bytes):
        if len(data) != self._w:
            raise MalformedEncoding(f"expected {self._w} bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        if v >= self.p:
            raise MalformedEncoding(f"value {v} is not reduced mod {self.p}")
        return v

    def describe(self) -> dict:
        return {"backend": self.name, "p": str(self.p)}


class _RoleContext:
    """GroupSuite.role's context: the running thread's role is who while it is open."""

    __slots__ = ("who",)

    def __init__(self, who: str):
        self.who = who

    def __enter__(self):
        if _ACTIVE_ROLE.get() is not None:
            raise RuntimeError("role context is not reentrant")
        _ACTIVE_ROLE.set(self.who)

    def __exit__(self, *exc):
        _ACTIVE_ROLE.set(None)


class GroupSuite:
    """A pairing-friendly pair of groups with counters and codecs.

    Each backend validates its own parameters when it is built.
    """

    def __init__(self, backend, counted: bool = False):
        p = backend.p
        self.backend = backend
        self.p = p
        # n-bit challenges cover Z_p when n is the bit length of p - 1.
        self.n = (p - 1).bit_length()
        self.counter = CostCounter() if counted else None
        # Everything that makes two backends interchangeable: compatible()
        # compares it when two suites do not share one backend object.
        self._identity = tuple(backend.describe().items())
        self.g1 = G1Element(self, backend.from_int(KIND_G1, 1))
        # The generator of G2 is e(g, g); from_int(KIND_G2, 1) returns it
        # without pairing again.
        self.g2 = G2Element(self, backend.from_int(KIND_G2, 1))

    # -- session role bookkeeping ------------------------------------------

    def role(self, who: str) -> "_RoleContext":
        """A context that charges to who the counted operations its thread makes."""
        if who not in ROLES:
            raise ValueError(f"unknown role {who!r}")
        return _RoleContext(who)

    def _charge_exp(self, kind):
        if self.counter is not None and (role := _ACTIVE_ROLE.get()) is not None:
            self.counter.add_exp(kind, role)

    def _charge_pairing(self):
        if self.counter is not None and (role := _ACTIVE_ROLE.get()) is not None:
            self.counter.add_pairing(role)

    # -- arithmetic ---------------------------------------------------------

    def compatible(self, other: "GroupSuite") -> bool:
        return other is self or other.backend is self.backend or other._identity == self._identity

    def _exponent(self, k) -> int:
        if isinstance(k, Scalar):
            if k.p != self.p:
                raise ValueError("scalar modulus does not match the suite")
            return k.value
        return int(k) % self.p

    def _power(self, elem: _GroupElement, k):
        k = self._exponent(k)
        self._charge_exp(elem.kind)
        return type(elem)(self, self.backend.power(elem.kind, elem.payload, k, elem))

    def _check_pairing_args(self, *args):
        for x in args:
            if not isinstance(x, G1Element):
                raise TypeError("pairing arguments must be G1 elements")
        for x in args:
            if not x.suite.compatible(self):
                raise ValueError("pairing arguments belong to a different suite")

    def pairing(self, a: G1Element, b: G1Element) -> G2Element:
        self._check_pairing_args(a, b)
        self._charge_pairing()
        return G2Element(self, self.backend.pair(a.payload, b.payload, a))

    def pairing_from_int(self, a: G1Element, b: G1Element, k) -> G2Element:
        """pairing(a, b) for b = g1_from_int(k), which the caller has made,
        charged as the one pairing it is; the backend may take it as
        e(a, g)^k without pairing."""
        self._check_pairing_args(a, b)
        self._charge_pairing()
        return G2Element(self, self.backend.pair_from_int(a.payload, b.payload, int(k) % self.p, a))

    def pairings_equal(self, a: G1Element, b: G1Element, c: G1Element, d: G1Element) -> bool:
        """e(a, b) == e(c, d), charged as the two pairings it stands for; the
        backend may decide it without computing either value."""
        self._check_pairing_args(a, b, c, d)
        self._charge_pairing()
        self._charge_pairing()
        return self.backend.pair_equal(a.payload, b.payload, c.payload, d.payload, a, c)

    def pairings_equal_hashed(self, a: G1Element, b: G1Element, c: G1Element, data: bytes) -> bool:
        """e(a, b) == e(c, hash_to_g1(data)), charged as two pairings, like
        pairings_equal; the backend may decide it without the hash."""
        self._check_pairing_args(a, b, c)
        self._charge_pairing()
        self._charge_pairing()
        return self.backend.pair_equal_hashed(a.payload, b.payload, c.payload, data, a, c)

    def ddh_solve(self, g: G1Element, ga: G1Element, gb: G1Element, gc: G1Element) -> bool:
        # Two pairings decide the tuple: e(g, g^c) against e(g^a, g^b).
        return self.pairings_equal(g, gc, ga, gb)

    # -- constructors and sampling (never counted) --------------------------

    def scalar(self, v: int) -> Scalar:
        return Scalar(int(v), self.p)

    def random_scalar(self, rng, nonzero: bool = False) -> Scalar:
        return Scalar(rng.randrange(1 if nonzero else 0, self.p), self.p)

    def g1_from_int(self, k: int) -> G1Element:
        return G1Element(self, self.backend.from_int(KIND_G1, int(k) % self.p))

    def g2_from_int(self, k: int) -> G2Element:
        return G2Element(self, self.backend.from_int(KIND_G2, int(k) % self.p))

    def hash_to_g1(self, data: bytes) -> G1Element:
        """data hashed into G1 by the backend's hash_mode."""
        return G1Element(self, self.backend.hash_to_g1(data))

    def g1_identity(self) -> G1Element:
        return self.g1_from_int(0)

    def g2_identity(self) -> G2Element:
        return self.g2_from_int(0)

    def random_g1(self, rng, nonidentity: bool = False) -> G1Element:
        return self.g1_from_int(rng.randrange(1 if nonidentity else 0, self.p))

    def random_g2(self, rng, nonidentity: bool = False) -> G2Element:
        return self.g2_from_int(rng.randrange(1 if nonidentity else 0, self.p))

    def discrete_log(self, elem: _GroupElement) -> int:
        return self.backend.log(elem.kind, elem.payload)

    # -- codecs --------------------------------------------------------------

    def width(self, kind: str) -> int:
        if kind == KIND_ZP:
            return scalar_width(self.p)
        if kind == KIND_BITS:
            return (self.n + 7) // 8
        return self.backend.width(kind)

    def encode_element(self, elem: _GroupElement) -> bytes:
        if not elem.suite.compatible(self):
            raise ValueError("element does not belong to this suite")
        return self.backend.encode(elem.kind, elem.payload)

    def decode_g1(self, data: bytes) -> G1Element:
        return G1Element(self, self.backend.decode(KIND_G1, data))

    def decode_g2(self, data: bytes) -> G2Element:
        return G2Element(self, self.backend.decode(KIND_G2, data))

    def encode_scalar(self, s: Scalar) -> bytes:
        if not isinstance(s, Scalar) or s.p != self.p:
            raise ValueError("scalar does not belong to this suite")
        return s.value.to_bytes(scalar_width(self.p), "big")

    def decode_scalar(self, data: bytes) -> Scalar:
        w = scalar_width(self.p)
        if len(data) != w:
            raise MalformedEncoding(f"expected {w} bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        if v >= self.p:
            raise MalformedEncoding(f"scalar {v} is not reduced mod {self.p}")
        return Scalar(v, self.p)

    def describe(self) -> dict:
        return self.backend.describe()

    def __repr__(self):
        return f"GroupSuite({self.backend.name}, p={self.p})"


def transparent_suite(p: int, counted: bool = False) -> GroupSuite:
    return GroupSuite(TransparentBackend(int(p)), counted=counted)
