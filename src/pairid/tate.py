"""Supersingular-curve backend with a reduced Tate pairing.

The curve is y^2 = x^3 + x over F_q with q prime, q = 3 (mod 4).  It is
supersingular, so it has exactly N = q + 1 points and embedding degree 2.
The distortion map phi(x, y) = (-x, i*y) sends the order-p subgroup into an
independent subgroup over F_{q^2} = F_q(i) with i^2 = -1, which turns the
Tate pairing into a symmetric pairing on G1 x G1.

Points are affine (x, y) tuples outside the inner loop.  One double-and-add
loop, _double_and_add, walks every G1 power and every Miller loop in
Jacobian coordinates (X, Y, Z) standing for (X/Z^2, Y/Z^3), so it never
inverts in F_q.  Each digit d doubles and then adds table[d], an affine
point, with the negated points at negative indices.  The loop holds the only
copy of the doubling and mixed-addition formulas, and each step's slope
numerator and denominator serve both the next point and, when asked, the
line through the step (Barreto, Kim, Lynn and Scott, "Efficient Algorithms
for Pairing-Based Cryptosystems", CRYPTO 2002): three F_q coefficients
(c0, c1, c2) whose value at the distorted second argument (xq, yq*i) is
(c0 + c1*xq) + (c2*yq)*i.  It serves point_mul's width-4 wNAF over +-pt,
+-3pt, +-5pt and +-7pt, comb powers over column indices, _stored_walk, which
keeps each step's triples, and the live Miller loop (_miller_loop), which
squares f per step and multiplies in each line's value as it is made with
three F_q products (Devegili, O hEigeartaigh, Scott and Dahab,
"Multiplication and squaring on pairing-friendly fields", 2006; Scott,
"Computing the Tate pairing", CT-RSA 2005).  _miller_stored does the same
per stored step.

Lines carry nonzero F_q factors (powers of Z and the slope denominator), and
vertical lines, whose values lie in F_q, are skipped.  The final
exponentiation to (q^2 - 1)/p = (q - 1) * (q + 1)/p erases every such
factor, since u^(q-1) = 1 for u in F_q*; it takes f^(q-1) as conj(f)/f by
Frobenius.  So a Miller value is defined only up to an F_q* factor, and a
pairing exactly.

A Miller loop walks n's signed digits in {-1, 0, 1} (its non-adjacent
form), which _loop_digits makes once per n.  A -1 digit adds (x, -y), and
the verticals a subtraction leaves lie in F_q, so it costs what a +1 costs;
at the pinned 160-bit p the walk adds 51 times, not 89.

The backend pairs subgroup points only: a finite first pairing argument
must have order p, and every pairing entry point raises NotOnCurve for one
that does not, warm or cold, whatever the other arguments are.  Inside the
package no such point arises: decode checks p * pt = O, hash_to_g1 clears
the cofactor, and from_int, power and combine keep the subgroup.  The walk
proves the order at no cost, since it ends at p * pt; a pairing with O as
second argument and no stored lines walks without lines for that.  For pt
of order p no line vanishes at phi(b), b in E(F_q) other than O: a line's
imaginary part c2*yq is nonzero unless b = (0, 0), and a line through the
multiples R and S of pt passes through (0, 0) only if R + S = (0, 0), of
order 2, which a multiple of pt is not.  F_q(i) is a field, so a Miller
value is 0 exactly when one of its lines vanished, which no entry point
reaches.

conj(f)/f has norm 1, and so does every G2 value, so the remaining power to
h = (q + 1)/p, and every G2 power without a table, runs on the trace ladder
_norm1_pow: a Lucas sequence V_n = x^n + x^-n on t = 2*Re(x), two F_q
multiplies per bit and one inversion (Scott and Barreto, "Compressed
Pairings", CRYPTO 2004).  The final exponentiation makes one inversion in
all: _easy_part inverts the norm of f and the product of its coordinates
in one batch, which gives both conj(f)/f and the inverse the ladder needs.
A G2 inverse is a conjugate, and decode's G2 subgroup check is the norm
test plus V_p = 2.
Each pairing takes its Miller value from _miller_at, 1 for an O argument.
An equality check e(a, b) = e(c, d) needs one final exponentiation:
M(c, -d) = conj(M(c, d)), so it tests V_h = 2 on M(a, b) * M(c, -d).  When
both sides have stored lines and finite second arguments, _miller_stored
zips their walks under one squaring per step (Scott, CT-RSA 2005);
otherwise the two _miller_at values are multiplied.

hash_to_g1 is try-and-increment (Boneh, Lynn and Shacham, "Short signatures
from the Weil pairing", ASIACRYPT 2001): for ctr = 0, 1, ..., 255 it takes
x = SHA-256(data || ctr) mod q, skips x if x^3 + x has Jacobi symbol -1,
makes the candidate pt = (x, y) from lift_x's y, negated when the digest is
odd, and returns h * pt for the first pt with h * pt not infinity.
pair_equal_hashed, the BLS check e(a, b) = e(c, H(data)), skips that
multiply: c has order p, so e(c, .) is bilinear, and with t = e(c, pt) it
tests V_h = 2 on easy(M(a, b)) * conj(t).  t = 1 exactly when h * pt is
infinity, where the hash moves on, and so does the check: it folds over the
candidates itself and takes the first with t != 1.  The candidate (0, 0) is
one it passes, since t^2 = e(c, O) = 1 and p is odd.  A c of O compares
e(a, b) with 1 through pair_equal.

Values that come back (the generator, key elements, e(g, g) and the G2
keys) get precomputed tables from their second use on.  Each backend call
takes the holder of each base beside its payload (GroupSuite passes the
element), and the tables live on the holder; the backend holds the
generators' tables, which every holder of g or e(g, g) shares.  A power of
such a value runs on a fixed-base comb (Lim and Lee, CRYPTO 1994) of
_COMB_ROWS = 8 rows: with d = ceil(bits(p)/8), the 255 products of the
x^(2^(i d)) over the nonempty sets of i, then d squarings and at most d
multiplies, 20 and 20 at 160 bits.  The G1 comb keeps its 255 sums in
affine form for mixed additions, built in eight levels of affine additions
with one batch inversion each; the G2 comb keeps (a, b) pairs and
multiplies in plain F_q(i), three F_q multiplies a product and two a
square, with no inversion and no use of the norm.  A pairing whose first
argument has a table runs _miller_stored over its stored lines (the
fixed-argument precomputation of Barreto et al. and of Lynn's PBC
library): the walk's triples divided by their c2 with one batch inversion,
and each step's lines multiplied out into one product, so that a step costs
one value and one multiply into f (see _stored_walk).  All of them give
exactly what the plain paths give.  Stored lines exist only for pt of order
p, since the walk that makes them proves it, so e(pt, .) is linear and
pair_from_int(pt, b, k), e(pt, b) for b = g^k, is e(pt, g)^k: a comb power
of e(pt, g), whose comb is kept on pt's holder beside its lines.  While pt
is cold, pair_from_int pairs pt with b.  A table dies with its holder, so
nothing is evicted, and a value reached through two holders (a decoded copy
of a key, say) builds its tables on each.  At 512-bit q a comb takes about
64 KB and a point's stored lines about 55 KB.

CurveParams.validate() holds every curve rule and counts no points, so it
works at real size (q of 512 bits) like all the arithmetic here; every
TateBackend runs it, and suites over equal parameters share a backend from
a bounded lru_cache.  enumerate_and_validate takes the point count q + 1
from the theorem above and searches a desk-size q for a generator, and
TateBackend.log brute-forces discrete logs; only these two stay desk-only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from types import SimpleNamespace

from .algebra import KIND_G1, DegenerateSuite, GroupSuite, MalformedEncoding, ValidationFailed, scalar_width
from .primes import _jacobi, factor, is_prime


class NotOnCurve(Exception):
    """Point fails the curve equation or the subgroup check."""


class Fq2:
    """F_q(i) with i^2 = -1, valid whenever q = 3 (mod 4)."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a: int, b: int, q: int):
        self.a = a % q
        self.b = b % q
        self.q = q

    def __mul__(self, other: "Fq2") -> "Fq2":
        q = self.q
        return Fq2(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            q,
        )

    def inv(self) -> "Fq2":
        # (a + bi)^-1 = (a - bi) / (a^2 + b^2)
        n = (self.a * self.a + self.b * self.b) % self.q
        if n == 0:
            raise ZeroDivisionError("inverse of zero in F_q^2")
        ninv = pow(n, -1, self.q)
        return Fq2(self.a * ninv, -self.b * ninv, self.q)

    def __pow__(self, e: int) -> "Fq2":
        if e < 0:
            return self.inv() ** (-e)
        # Left-to-right square-and-multiply; (u + vi)^2 = (u + v)(u - v) + 2uv*i.
        q, a, b = self.q, self.a, self.b
        u, v = 1, 0
        for bit in bin(e)[2:]:
            u, v = (u + v) * (u - v) % q, 2 * u * v % q
            if bit == "1":
                u, v = (u * a - v * b) % q, (u * b + v * a) % q
        return Fq2(u, v, q)

    def __eq__(self, other):
        if not isinstance(other, Fq2):
            return NotImplemented
        return self.q == other.q and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __repr__(self):
        return f"Fq2({self.a} + {self.b}i mod {self.q})"


# Memo bounds: Miller loop digits per p, curve parameters per (q, p), backends
# per CurveParams.
_SHARED_SLOTS = 8


# Affine points are (x, y) tuples over F_q; None is the point at infinity.
Point = tuple[int, int] | None


def on_curve(pt: Point, q: int) -> bool:
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + x)) % q == 0


# Jacobian points are (X, Y, Z) triples standing for (X/Z^2, Y/Z^3); any
# Z = 0 is the point at infinity.
_INF = (1, 1, 0)


def _double_and_add(r: tuple, digits, table, q: int, other: Point = None, steps: list | None = None):
    """From Jacobian r, each digit d doubles and then adds the affine
    table[d] unless it is None (table[0] is).  Returns the Jacobian point
    reached and f, an (fa, fb) pair standing for fa + fb*i.

    A line's triple (c0, c1, c2) is l * z3 * z^2 for a tangent and l * z3
    for a chord, where l(x, y) = y - y_r - lambda*(x - x_r) and the slope
    lambda is m / z3 or rr / z3; c2 is reduced.  Vertical lines (2r = O,
    r = -table[d]) lie in F_q and are skipped, as is the addition to r = O;
    an addition to r = table[d] takes r's tangent.  With steps, a list, each
    digit appends the list of its triples.  With other, each digit squares f
    and multiplies in each line's value at phi(other), (fa + fb*i)(la + lb*i)
    having the imaginary part (fa + fb)(la + lb) - fa*la - fb*lb; f is 0
    exactly when a line vanished, since F_q(i) is a field.
    """
    x, y, z = r
    evaluate, lines = other is not None, other is not None or steps is not None
    if evaluate:
        xq, yq = -other[0] % q, other[1] % q
    fa, fb = 1, 0
    for d in digits:
        if evaluate:
            fa, fb = (fa + fb) * (fa - fb) % q, 2 * fa * fb % q
        elif lines:
            steps.append(step := [])
        add = table[d]
        for base in (None, add) if add else (None,):
            if base is not None:
                x2, y2 = base
                if not z:
                    x, y, z = x2, y2, 1
                    continue
                zz = z * z % q
                h = (x2 * zz - x) % q
                rr = (y2 * z * zz - y) % q
                if h:
                    hh = h * h % q
                    hhh = h * hh % q
                    v = x * hh % q
                    x = (rr * rr - hhh - 2 * v) % q
                    y = (rr * (v - x) - y * hhh) % q
                    z = z * h % q
                    if not lines:
                        continue
                    c0, c1, c2 = rr * x2 - z * y2, -rr, z
                elif rr:
                    x, y, z = _INF  # r = -base
                    continue
                else:
                    base = None  # r = base: the tangent below
            if base is None:
                if not (z and y):
                    x, y, z = _INF
                    continue
                yy = y * y % q
                zz = z * z % q
                z = 2 * y * z % q
                s = 4 * x * yy % q
                m = (x * x * 3 + zz * zz) % q  # x * x and yy * yy run as squares
                if lines:
                    c0, c1, c2 = m * x - 2 * yy, -m * zz, z * zz % q
                x = (m * m - 2 * s) % q
                y = (m * (s - x) - yy * yy * 8) % q
                if not lines:
                    continue
            if not evaluate:
                step.append((c0, c1, c2))
                continue
            la, lb = (c0 + c1 * xq) % q, c2 * yq % q
            t1, t2 = fa * la, fb * lb
            fa, fb = (t1 - t2) % q, ((fa + fb) * (la + lb) - t1 - t2) % q
    return (x, y, z), (fa, fb)


def _affine(r: tuple, q: int) -> Point:
    return _batch_affine([r], q)[0]


def _batch_inverse(values: list, q: int) -> list:
    """Inverses of nonzero values mod q with one inversion (Montgomery's trick)."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % q
    inv = pow(acc, -1, q)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % q
        inv = inv * values[i] % q
    return out


def _batch_affine(points: list, q: int) -> list:
    """The affine form of each Jacobian point, with one inversion for all."""
    invs = iter(_batch_inverse([z for _, _, z in points if z], q))
    out = []
    for x, y, z in points:
        if z == 0:
            out.append(None)
            continue
        zi = next(invs)
        zi2 = zi * zi % q
        out.append((x * zi2 % q, y * zi2 * zi % q))
    return out


def _chord(a: tuple, x2: int, lam: int, q: int) -> tuple:
    # a + (x2, .) for affine points on a line of slope lam.
    x1, y1 = a
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def _add(a: Point, b: Point, q: int) -> Point:
    # Raw affine chord-and-tangent group law; callers validate inputs.
    if a is None or b is None:
        return b if a is None else a
    (x1, y1), (x2, y2) = a, b
    if (x2 - x1) % q:
        return _chord(a, x2, (y2 - y1) * pow(x2 - x1, -1, q) % q, q)
    if (y1 + y2) % q:
        return _chord(a, x2, (3 * x1 * x1 + 1) * pow(2 * y1, -1, q) % q, q)
    return None


def point_add(a: Point, b: Point, q: int) -> Point:
    if not on_curve(a, q) or not on_curve(b, q):
        raise NotOnCurve("point_add input is off the curve")
    return _add(a, b, q)


# Rows of the fixed-base combs (Lim and Lee): a comb for exponents of up to
# `bits` bits has spacing d = ceil(bits / _COMB_ROWS) and 2^_COMB_ROWS - 1
# entries, and a power takes d doublings (squarings) and at most d additions
# (products).
_COMB_ROWS = 8


def _comb_spacing(bits: int) -> int:
    return max(1, -(-bits // _COMB_ROWS))


def _comb_covers(comb: tuple | None, k: int) -> bool:
    """Whether comb, a (d, entries) table or None, serves 0 < k < 2^(rows d)."""
    return comb is not None and 0 < k and k.bit_length() <= _COMB_ROWS * comb[0]


def _comb_columns(k: int, d: int) -> list:
    """The entry index of each column of k, most significant column first.

    k is cut into _COMB_ROWS rows of d bits each; bit i of column j's index
    is bit j of row i, that is bit i d + j of k.  In k's binary string, top
    row first, a column's bits are every d-th character.  The walk doubles
    once per column and then adds that entry.
    """
    bits = format(k, f"0{_COMB_ROWS * d}b")
    return [int(bits[j::d], 2) for j in range(d)]


def _comb_table(pt: tuple, bits: int, q: int) -> tuple:
    """Fixed-base comb of pt for exponents of up to `bits` bits.

    Entry j is the sum of 2^(i d) pt over the set bits i of j, in affine
    form (None for infinity, which small-order points reach).  Entries
    2^i ... 2^(i+1) - 1 are entries 0 ... 2^i - 1 plus row i, so the table
    grows in one level per row: affine chords under one batch inversion,
    and the sums with infinity or an equal x through _add.  Returns
    (d, entries).
    """
    d = _comb_spacing(bits)
    r = (*pt, 1)
    spaced = [r]
    for _ in range(_COMB_ROWS - 1):
        r = _double_and_add(r, (0,) * d, (None,), q)[0]
        spaced.append(r)
    entries = [None]
    for base in _batch_affine(spaced, q):
        chord = [e is not None and base is not None and e[0] != base[0] for e in entries]
        invs = iter(_batch_inverse([base[0] - e[0] for e, c in zip(entries, chord) if c], q))
        level = []
        for e, c in zip(entries, chord):
            if not c:
                level.append(_add(e, base, q))
                continue
            level.append(_chord(e, base[0], (base[1] - e[1]) * next(invs) % q, q))
        entries += level
    return d, entries


def _fq2_comb_table(x: Fq2, bits: int) -> tuple:
    """Fixed-base comb of x in F_q(i) for exponents of up to `bits` bits.

    Entry j is the product of x^(2^(i d)) over the set bits i of j, as an
    (a, b) pair standing for a + bi.  Plain F_q(i) arithmetic, so it is
    exact for any x.  Returns (d, entries).
    """
    q, d = x.q, _comb_spacing(bits)
    u, v = x.a, x.b
    spaced = [(u, v)]
    for _ in range(_COMB_ROWS - 1):
        for _ in range(d):
            u, v = (u + v) * (u - v) % q, 2 * u * v % q
        spaced.append((u, v))
    entries = [(1, 0)] * (1 << _COMB_ROWS)
    for j in range(1, 1 << _COMB_ROWS):
        top = j.bit_length() - 1
        (a, b), (c, e) = entries[j ^ (1 << top)], spaced[top]
        ac, be = a * c, b * e
        entries[j] = ((ac - be) % q, ((a + b) * (c + e) - ac - be) % q)
    return d, entries


def _fq2_comb_pow(k: int, comb: tuple, q: int) -> Fq2:
    # A square is (u + v)(u - v) + 2uv*i and a product takes three
    # multiplies, so no step inverts.
    d, entries = comb
    u, v = 1, 0
    for j in _comb_columns(k, d):
        u, v = (u + v) * (u - v) % q, 2 * u * v % q
        if j:
            c, e = entries[j]
            uc, ve = u * c, v * e
            u, v = (uc - ve) % q, ((u + v) * (c + e) - uc - ve) % q
    return Fq2(u, v, q)


def _wnaf(k: int, width: int) -> list:
    """The width-w NAF of k >= 0, least significant digit first: each nonzero
    digit is odd and below 2^(w-1) in size, and the next w - 1 digits are 0."""
    digits, mask, half = [], (1 << width) - 1, 1 << (width - 1)
    while k:
        d = 0
        if k & 1:
            d = k & mask
            if d & half:
                d -= mask + 1
            k -= d
        digits.append(d)
        k >>= 1
    return digits


def lift_x(x: int, q: int) -> int | None:
    """y = (x^3 + x)^((q+1)/4), a square root of x^3 + x when q = 3 (mod 4) and
    one exists, so that (x, y) is on the curve; None when none exists."""
    rhs = (x * x * x + x) % q
    y = pow(rhs, (q + 1) // 4, q)
    return y if y * y % q == rhs else None


def point_mul(k: int, pt: Point, q: int, comb: tuple | None = None) -> Point:
    """k * pt by _double_and_add, with one conversion to affine at the end:
    over the width-4 wNAF of |k| and the affine +-pt, +-3pt, +-5pt and +-7pt
    (5pt = 2(3pt) - pt, 7pt = 2(3pt) + pt), made with one batch inversion.

    comb, internal, is pt's _comb_table; for the k it serves (see
    _comb_covers) the walk runs over k's columns and the comb's entries.
    """
    if not on_curve(pt, q):
        raise NotOnCurve("point_mul input is off the curve")
    k = int(k)
    if pt is None or k == 0:
        return None
    if _comb_covers(comb, k):
        d, entries = comb
        return _affine(_double_and_add(_INF, _comb_columns(k, d), entries, q)[0], q)
    if k < 0:
        k, pt = -k, point_neg(pt, q)
    signed = (None, pt, point_neg(pt, q))  # the table of digits -1, 0 and 1
    r3 = _double_and_add((*pt, 1), (1,), signed, q)[0]
    r5, r7 = (_double_and_add(r3, (d,), signed, q)[0] for d in (-1, 1))
    odd = [pt, *_batch_affine([r3, r5, r7], q)]
    table = [None] * 16
    for j, m in zip((1, 3, 5, 7), odd):
        table[j], table[-j] = m, point_neg(m, q)
    return _affine(_double_and_add(_INF, reversed(_wnaf(k, 4)), table, q)[0], q)


def point_neg(pt: Point, q: int) -> Point:
    if pt is None:
        return None
    x, y = pt
    return (x, (-y) % q)


def _try_increment(data: bytes, q: int):
    """Try-and-increment's on-curve candidates (x, y) in counter order, before
    the cofactor multiply; DegenerateSuite once all 256 counters are drawn."""
    for ctr in range(256):
        digest = hashlib.sha256(data + bytes([ctr])).digest()
        x = int.from_bytes(digest, "big") % q
        # The Jacobi symbol costs a fraction of lift_x's power, and -1 is
        # exactly where lift_x finds no root; otherwise y is not None.
        if _jacobi(x * x * x + x, q) == -1:
            continue
        y = lift_x(x, q)
        yield (x, (-y) % q) if digest[-1] & 1 else (x, y)
    raise DegenerateSuite("try-and-increment exhausted 256 counters")


@dataclass(frozen=True)
class CurveParams:
    q: int
    p: int
    h: int
    gen: tuple[int, int]

    @staticmethod
    def validate_field(q: int) -> None:
        """The rules on q alone, which validate() checks first."""
        if not is_prime(q):
            raise ValidationFailed(f"{q} is not prime")
        if q % 4 != 3:
            raise ValidationFailed(f"{q} != 3 (mod 4), so i^2 = -1 has a root in F_q")

    def validate(self) -> None:
        """Raise ValidationFailed unless these are "type A" parameters (Lynn,
        2007): the curve has q + 1 points, a unique order-p subgroup, and gen
        is a reduced point of order p.  Primes are checked by Baillie-PSW.
        """
        q, p, h, gen = self.q, self.p, self.h, self.gen
        self.validate_field(q)
        if p < 5 or not is_prime(p):
            raise ValidationFailed(f"subgroup order {p} must be a prime >= 5")
        if p * h != q + 1:
            raise ValidationFailed(f"p * h = {p * h} != q + 1 = {q + 1}")
        if (q + 1) % (p * p) == 0:
            raise ValidationFailed(f"{p}^2 divides the group order; subgroup is not unique")
        if gen is None or len(gen) != 2 or not (0 <= gen[0] < q and 0 <= gen[1] < q and on_curve(gen, q)):
            raise ValidationFailed("generator is not a reduced point on the curve")
        if point_mul(p, gen, q) is not None:
            raise ValidationFailed("generator does not have order p")


@dataclass(frozen=True)
class CurveValidation:
    params: CurveParams
    n_points: int
    factors: dict


def enumerate_and_validate(q: int, p: int | None = None) -> CurveValidation:
    """Pick the subgroup order and a generator of a desk-size curve.

    For q prime and q = 3 (mod 4) the curve is supersingular, so it has
    exactly q + 1 points.  p defaults to the largest prime factor of q + 1,
    the generator is h * pt for the first point pt drawn with Random(q) that
    h does not send to infinity, and the result is validated.
    """
    q = int(q)
    if q > 10_000:
        raise ValidationFailed("the desk curve search is capped at q <= 10^4")
    CurveParams.validate_field(q)

    n = q + 1
    factors = factor(n)
    p = max(factors) if p is None else int(p)
    h = n // p if p > 0 else 0  # validate() rejects p <= 0

    rng = Random(q)
    gen = None
    for _ in range(1000):
        x = rng.randrange(q)
        y = lift_x(x, q)
        if y is not None and (gen := point_mul(h, (x, y), q)) is not None:
            break
    params = CurveParams(q=q, p=p, h=h, gen=gen)
    params.validate()
    return CurveValidation(params, n_points=n, factors=factors)


@lru_cache(maxsize=_SHARED_SLOTS)
def _loop_digits(n: int) -> tuple:
    """The Miller loop's digits for n: n's NAF, most significant first,
    without the leading 1 the walk starts from."""
    return tuple(reversed(_wnaf(n, 2)))[1:]


def _miller_loop(pt: tuple, n: int, q: int, other: Point = None, steps: list | None = None) -> tuple:
    """_double_and_add from pt over n's Miller digits, with pt's lines
    evaluated at phi(other), stored, or (with neither) not made; returns f.
    The walk ends at n * pt, so it proves pt's order: NotOnCurve unless that
    is infinity."""
    r, f = _double_and_add((*pt, 1), _loop_digits(n), (None, pt, point_neg(pt, q)), q, other, steps)
    if r[2]:
        raise NotOnCurve("pairing argument is outside the order-p subgroup")
    return f


def _stored_walk(pt: Point, n: int, q: int) -> tuple:
    """pt's Miller steps for n, stored for any second argument: the triples
    of one _miller_loop, which raises NotOnCurve unless pt has order n.

    Each step is stored as the product of its lines at a distorted point
    (xq, yq*i).  Each triple is first divided by its c2, which is nonzero
    for canonical pt, so that its line reads (a + b*xq) + yq*i: it differs
    from the walk's by an F_q* factor and vanishes exactly where the walk's
    does.  A step with no line is (), one line is (a, b), and two lines are
    (c0, c1, c2, s0, s1), whose product is
    (c0 + c1*xq + c2*xq^2 - yq^2) + (s0 + s1*xq)*yq*i by
    (u1 + Y)(u2 + Y) = u1*u2 + Y^2 + (u1 + u2)*Y for Y = yq*i, Y^2 = -yq^2.
    That is exact algebra, so a product vanishes exactly where one of its
    lines does.
    """
    _miller_loop(pt, n, q, steps=(steps := []))
    invs = iter(_batch_inverse([c for step in steps for _, _, c in step], q))
    stored = []
    for step in steps:
        # zip takes from step first, so it stops without consuming an inverse.
        ab = [(a * inv % q, b * inv % q) for (a, b, _), inv in zip(step, invs)]
        if len(ab) == 2:
            (a1, b1), (a2, b2) = ab
            ab = [(a1 * a2 % q, (a1 * b2 + a2 * b1) % q, b1 * b2 % q, (a1 + a2) % q, (b1 + b2) % q)]
        stored.append(ab[0] if ab else ())
    return tuple(stored)


def _step_values(steps: tuple, pt: Point, q: int):
    """Each stored step's value at phi(pt) = (xq, yq*i), an (la, lb) pair, or
    None for a step with no line; xq^2, yq^2 and xq*yq are made once."""
    xq, yq = -pt[0] % q, pt[1] % q
    xx, yy, xy = xq * xq % q, yq * yq % q, xq * yq % q
    return (
        ((s[0] + s[1] * xq) % q, yq) if len(s) == 2
        else ((s[0] + s[1] * xq + s[2] * xx - yy) % q, (s[3] * yq + s[4] * xy) % q) if s
        else None
        for s in steps
    )


def _miller_stored(lines: tuple, other: Point, q: int, *more) -> Fq2:
    """The Miller function at phi(other) from stored steps: per step, square
    f and multiply in the step's value as _double_and_add does per line.
    more holds further (steps, point) walks over the same digits, zipped in
    under the same squarings, so the result is the product of their Miller
    functions; walks of different lengths raise ValueError."""
    walks = [_step_values(steps, pt, q) for steps, pt in [(lines, other), *more]]
    fa, fb = 1, 0
    for values in zip(*walks, strict=True):
        fa, fb = (fa + fb) * (fa - fb) % q, 2 * fa * fb % q
        for value in values:
            if value:
                la, lb = value
                t1, t2 = fa * la, fb * lb
                fa, fb = (t1 - t2) % q, ((fa + fb) * (la + lb) - t1 - t2) % q
    return Fq2(fa, fb, q)


def _miller_at(pt: Point, lines: tuple | None, other: Point, p: int, q: int) -> Fq2:
    """f_{p,pt} at phi(other) up to an F_q* factor, 1 when pt or other is O:
    on pt's stored lines, or while it has none from a live _miller_loop,
    which proves pt's order (with no lines when other is O)."""
    if pt is None or (other is None and lines is not None):
        return Fq2(1, 0, q)
    if lines is None:
        return Fq2(*_miller_loop(pt, p, q, other), q)
    return _miller_stored(lines, other, q)


def _check_on_curve(q: int, *pts: Point) -> None:
    if not all(on_curve(pt, q) for pt in pts):
        raise NotOnCurve("input point is off the curve")


def _lucas_v(t: int, e: int, q: int) -> tuple[int, int]:
    """(V_e, V_{e+1}) mod q for V_0 = 2, V_1 = t, V_{n+1} = t*V_n - V_{n-1}.

    For x of norm 1 and t = x + 1/x = 2*Re(x), V_n = x^n + x^-n = 2*Re(x^n)
    (Scott and Barreto, "Compressed Pairings", CRYPTO 2004).  A ladder over
    the bits of e >= 0 keeps (V_k, V_{k+1}) with V_2k = V_k^2 - 2 and
    V_{2k+1} = V_k*V_{k+1} - t: two F_q multiplies per bit.
    """
    v0, v1 = 2, t % q
    for bit in bin(e)[2:]:
        if bit == "1":
            v0, v1 = (v0 * v1 - t) % q, (v1 * v1 - 2) % q
        else:
            v0, v1 = (v0 * v0 - 2) % q, (v0 * v1 - t) % q
    return v0, v1


def _norm1_pow(x: Fq2, e: int, inv_2b: int | None = None) -> Fq2:
    """x^e for x = a + bi of norm a^2 + b^2 = 1, by the trace ladder.

    With x^e = c + di, V_e = 2c and V_{e+1} = 2*Re(x^e * x) = 2(ac - bd), so
    d = (a*V_e - V_{e+1}) / (2b) with one inversion; b = 0 means x = +-1.
    inv_2b, internal, is 1/(2b) when the caller already has it (e >= 0).
    """
    q, a, b = x.q, x.a, x.b
    if e < 0:
        e, b = -e, -b  # x^-1 = conj(x)
    if b == 0:
        return Fq2(a if e & 1 else 1, 0, q)
    ve, ve1 = _lucas_v(2 * a, e, q)
    return Fq2(ve * ((q + 1) // 2), (a * ve - ve1) * (inv_2b or pow(2 * b, -1, q)), q)


def _easy_part(f: Fq2) -> tuple[Fq2, int | None]:
    """(f^(q-1), 1/(2b)) for f^(q-1) = a + bi, with one inversion for both.

    f^(q-1) = conj(f)/f by Frobenius, which has norm 1.  With N = fa^2 + fb^2
    and m = fa*fb it is ((fa^2 - fb^2) - 2m*i)/N, so 1/(2b) = -N/(4m), and
    one batch inversion of N and m gives both.  m = 0 makes it +-1, with b = 0
    and None for 1/(2b).
    """
    q, fa, fb = f.q, f.a, f.b
    m = fa * fb % q
    if m == 0:
        return Fq2(1 if fb == 0 else -1, 0, q), None
    aa, bb = fa * fa, fb * fb
    n = (aa + bb) % q
    n_inv, m_inv = _batch_inverse([n, m], q)
    return Fq2((aa - bb) * n_inv, -2 * m * n_inv, q), -n * m_inv * ((q + 1) // 4) % q


def _final_exp(f: Fq2, p: int) -> Fq2:
    """f^((q^2 - 1)/p) as (f^(q-1))^h on the trace ladder, with one inversion."""
    x, inv_2b = _easy_part(f)
    return _norm1_pow(x, (f.q + 1) // p, inv_2b)


def tate_pairing(a: Point, b: Point, params: CurveParams, lines: tuple | None = None) -> Fq2:
    """Reduced Tate pairing e(a, phi(b)) for a of order p or infinity and any
    curve point b; NotOnCurve for a finite a off the subgroup, b = O
    included, where a's walk runs without lines to prove its order.

    lines, internal, is a's stored steps from _stored_walk for n = p, which
    prove its order; the result is the same.
    """
    _check_on_curve(params.q, a, b)
    return _final_exp(_miller_at(a, lines, b, params.p, params.q), params.p)


class TateBackend:
    """Curve-point payloads for G1, F_{q^2} payloads for G2.

    The values that sessions raise to powers or pair again and again (the
    generator, key elements, e(g, g)) get precomputed tables, kept on the
    holder that comes with each base (GroupSuite passes the element): a
    comb for G1 and for G2 powers, the Miller lines of the first pairing
    argument and the comb of e(a, g) that pair_from_int raises.  A holder's
    first use marks it and a later one builds the kind of table it needs,
    so a value used once builds nothing, and a value's tables go with it.
    The backend holds the generators' tables, which every holder of g or
    e(g, g) shares.  Each table gives the same results as the plain path.
    It pairs subgroup points only, as the module docstring says.
    """

    name = "tate"
    hash_mode = "try-increment"

    def __init__(self, params: CurveParams):
        params.validate()
        self.params = params
        self.p = params.p
        self.q = params.q
        self._fqw = scalar_width(params.q)
        self._gen = params.gen
        self._g2gen = tate_pairing(self._gen, self._gen, params)
        if self._g2gen == Fq2(1, 0, params.q):
            raise ValidationFailed("pairing is degenerate on the chosen generator")
        # The generators' holders are marked from the start, and every
        # holder of the same value shares their tables (see _table).
        self._gen_holder, self._g2gen_holder = SimpleNamespace(tables={}), SimpleNamespace(tables={})
        self._generator_tables = {self._gen: self._gen_holder.tables, self._g2gen: self._g2gen_holder.tables}

    def combine(self, kind, a, b):
        if kind == KIND_G1:
            return _add(a, b, self.q)
        return a * b

    def _table(self, holder, build, x, *args):
        """build(x, *args), kept on holder, x's holder, from its second use
        on; None before that, and always with no holder or for O.

        holder.tables is None until the first use, which marks it with an
        empty dict, or with the generator's tables.  A later use builds the
        kind of table it needs and stores it with one assignment; a build
        that raises stores nothing.  Threads sharing a holder may build a
        table twice, and one of the two stays.
        """
        if holder is None or x is None:
            return None
        tables = holder.tables
        if tables is None:
            shared = self._generator_tables.get(x)
            if shared is None:
                holder.tables = {}
                return None
            tables = holder.tables = shared
        table = tables.get(build)
        if table is None:
            table = tables[build] = build(x, *args)
        return table

    def _comb(self, pt):
        # point_mul's check, made here once for the comb it would use.
        _check_on_curve(self.q, pt)
        return _comb_table(pt, self.p.bit_length(), self.q)

    def _g2_comb(self, x):
        return _fq2_comb_table(x, self.p.bit_length())

    def _pair_comb(self, pt, holder):
        # e(pt, g)'s comb, made on pt's stored lines.
        return self._g2_comb(tate_pairing(pt, self._gen, self.params, self._stored(pt, holder)))

    def _g2_power(self, x: Fq2, k: int, holder) -> Fq2:
        # Only a power that multiplies is a use of x: +-1 (b = 0) and k <= 1
        # never take a table (GroupSuite's x^1 for its G2 generator
        # included), and the ladder answers them at once.
        comb = self._table(holder, self._g2_comb, x) if x.b and k > 1 else None
        if _comb_covers(comb, k):
            return _fq2_comb_pow(k, comb, self.q)
        return _norm1_pow(x, k)

    def _lines(self, pt):
        # Off the curve a walk may still end at O, so tate_pairing's check
        # comes first, once for the lines.
        _check_on_curve(self.q, pt)
        return _stored_walk(pt, self.p, self.q)

    def _stored(self, pt, holder) -> tuple | None:
        """pt's stored Miller lines, or None while its holder is cold.
        Making the lines proves pt's order, so from the second use on a pt
        off the subgroup raises NotOnCurve here and keeps no table."""
        return self._table(holder, self._lines, pt)

    # Every G2 payload has norm 1: pairing values, powers of e(g, g), decodes
    # checked for order p, and their products and inverses.  So G2 powers
    # without a table run on the trace ladder, and inverses are conjugates.

    def power(self, kind, a, k, holder=None):
        if kind == KIND_G1:
            return point_mul(k, a, self.q, self._table(holder, self._comb, a))
        return self._g2_power(a, int(k), holder)

    def invert(self, kind, a):
        if kind == KIND_G1:
            return point_neg(a, self.q)
        return Fq2(a.a, -a.b, self.q)

    def identity(self, kind):
        if kind == KIND_G1:
            return None
        return Fq2(1, 0, self.q)

    def from_int(self, kind, k):
        if kind == KIND_G1:
            return point_mul(k, self._gen, self.q, self._table(self._gen_holder, self._comb, self._gen))
        return self._g2_power(self._g2gen, int(k), self._g2gen_holder)

    def log(self, kind, a):
        # Brute force against the generator; fine at desk scale only.
        if self.p > 200_000:
            raise ValueError("discrete log table would be too large")
        acc = self.identity(kind)
        step = self._gen if kind == KIND_G1 else self._g2gen
        for k in range(self.p):
            if acc == a:
                return k
            acc = self.combine(kind, acc, step)
        raise ValueError("element is outside the working subgroup")

    def pair(self, a, b, holder=None):
        return tate_pairing(a, b, self.params, self._stored(a, holder))

    def pair_from_int(self, a, b, k, holder=None):
        """pair(a, b) for b = from_int(KIND_G1, k), 0 <= k < p.

        From the second use of a's holder on, a's stored lines prove it has
        order p, so e(a, .) is linear and the result is e(a, g)^k: a comb
        power of e(a, g), kept on the holder beside the lines.  While the
        holder is cold, or with none, it is pair(a, b).
        """
        comb = self._table(holder, self._pair_comb, a, holder)
        if comb is not None:
            return _fq2_comb_pow(k, comb, self.q)
        return tate_pairing(a, b, self.params)

    def pair_equal(self, a, b, c, d, holder_a=None, holder_c=None) -> bool:
        """pair(a, b) == pair(c, d) with one final exponentiation.

        M(c, -d) = conj(M(c, d)), so e(a, b) = e(c, d) exactly when the final
        exponentiation of M(a, b) * M(c, -d) is 1, that is when V_h = 2 on its
        easy part.  When a and c both have stored lines and b and d are
        finite, their evaluations run as one, sharing the squarings;
        otherwise the two _miller_at values are multiplied, 1 for a side
        with an O.  Either way a's and c's walks prove their order.
        """
        q, p = self.q, self.p
        lines_a, lines_c = self._stored(a, holder_a), self._stored(c, holder_c)
        _check_on_curve(q, a, b, c, d)
        neg_d = point_neg(d, q)
        if lines_a is not None and lines_c is not None and b is not None and d is not None:
            f = _miller_stored(lines_a, b, q, (lines_c, neg_d))
        else:
            f = _miller_at(a, lines_a, b, p, q) * _miller_at(c, lines_c, neg_d, p, q)
        return _lucas_v(2 * _easy_part(f)[0].a, self.params.h, q)[0] == 2

    def hash_to_g1(self, data: bytes):
        q, h = self.q, self.params.h
        for pt in _try_increment(data, q):
            if (pt := point_mul(h, pt, q)) is not None:
                return pt

    def pair_equal_hashed(self, a, b, c, data: bytes, holder_a=None, holder_c=None) -> bool:
        return self._pair_equal_folded(a, b, c, _try_increment(data, self.q), holder_a, holder_c)

    def _pair_equal_folded(self, a, b, c, candidates, holder_a=None, holder_c=None) -> bool:
        """pair(a, b) == pair(c, h * pt) for the first curve point pt among
        candidates with h * pt not infinity (_try_increment's raise when none).

        c has order p (its walk for t, stored or live, proves it), so e(c, .)
        is bilinear: e(c, h * pt) = t^h for t = e(c, pt), and t = 1 exactly
        when h * pt is infinity, where the fold moves on.  At the first
        t != 1 the answer is V_h = 2 on easy(M(a, b)) * conj(t), with no
        multiply by h and one use of c.  A c of O takes pair_equal.
        """
        if c is None:
            return self.pair_equal(a, b, c, c, holder_a)
        q, p = self.q, self.p
        lines_a, lines_c = self._stored(a, holder_a), self._stored(c, holder_c)
        _check_on_curve(q, a, b, c)
        for pt in candidates:
            t = _final_exp(_miller_at(c, lines_c, pt, p, q), p)
            if t != Fq2(1, 0, q):
                x = _easy_part(_miller_at(a, lines_a, b, p, q))[0]
                return _lucas_v(2 * (x.a * t.a + x.b * t.b) % q, self.params.h, q)[0] == 2  # 2*Re(x * conj(t))

    def width(self, kind):
        if kind == KIND_G1:
            return 1 + self._fqw
        return 2 * self._fqw

    def encode(self, kind, payload) -> bytes:
        w = self._fqw
        if kind == KIND_G1:
            if payload is None:
                return b"\x00" + bytes(w)
            x, y = payload
            flag = 0x02 if y % 2 == 0 else 0x03
            return bytes([flag]) + x.to_bytes(w, "big")
        return payload.a.to_bytes(w, "big") + payload.b.to_bytes(w, "big")

    def decode(self, kind, data: bytes):
        w = self._fqw
        if kind == KIND_G1:
            if len(data) != 1 + w:
                raise MalformedEncoding(f"expected {1 + w} bytes, got {len(data)}")
            flag, xb = data[0], data[1:]
            if flag == 0x00:
                if any(xb):
                    raise MalformedEncoding("infinity encoding must be zero-padded")
                return None
            if flag not in (0x02, 0x03):
                raise MalformedEncoding(f"unknown point flag {flag:#04x}")
            x = int.from_bytes(xb, "big")
            if x >= self.q:
                raise MalformedEncoding(f"x = {x} is not reduced mod {self.q}")
            y = lift_x(x, self.q)
            if y is None:
                raise MalformedEncoding("x-coordinate has no square root on the curve")
            if y % 2 != flag - 0x02:
                y = (-y) % self.q
            pt = (x, y)
            if point_mul(self.p, pt, self.q) is not None:
                raise MalformedEncoding("point is outside the order-p subgroup")
            return pt
        if len(data) != 2 * w:
            raise MalformedEncoding(f"expected {2 * w} bytes, got {len(data)}")
        a = int.from_bytes(data[:w], "big")
        b = int.from_bytes(data[w:], "big")
        if a >= self.q or b >= self.q:
            raise MalformedEncoding("coordinate is not reduced mod q")
        # val^p = 1 exactly when val has norm 1 (val^(q+1) = 1, and p | q + 1)
        # and val^p + val^-p = V_p(2a) = 2.
        if (a * a + b * b) % self.q != 1 or _lucas_v(2 * a, self.p, self.q)[0] != 2:
            raise MalformedEncoding("value is outside the order-p subgroup")
        return Fq2(a, b, self.q)

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "p": str(self.p),
            "q": str(self.q),
            "h": str(self.params.h),
            "gen": f"{self._gen[0]},{self._gen[1]}",
        }


@lru_cache(maxsize=_SHARED_SLOTS)
def _desk_params(q: int, p: int | None) -> CurveParams:
    return enumerate_and_validate(q, p).params


@lru_cache(maxsize=_SHARED_SLOTS)
def _shared_backend(params: CurveParams) -> TateBackend:
    """The memoised backend for params, so that suites over equal parameters
    share it and its generators' tables.  Two racing first calls may each
    build one; both are valid, and GroupSuite.compatible compares describe()."""
    return TateBackend(params)


def tate_suite(q: int = 523, p: int | None = None, counted: bool = False) -> GroupSuite:
    """The desk-scale curve over F_q found by enumerate_and_validate, memoised per (q, p)."""
    return GroupSuite(_shared_backend(_desk_params(q, p)), counted=counted)


def suite_from_curve_params(q: int, p: int, h: int, gen: tuple[int, int], counted: bool = False) -> GroupSuite:
    """Rebuild a suite from stored parameters, validated on first use."""
    return GroupSuite(_shared_backend(CurveParams(q=q, p=p, h=h, gen=gen)), counted=counted)
