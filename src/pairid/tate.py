"""Supersingular-curve backend with a reduced Tate pairing.

The curve is y^2 = x^3 + x over F_q with q prime, q = 3 (mod 4).  It is
supersingular, so it has exactly N = q + 1 points and embedding degree 2.
The distortion map phi(x, y) = (-x, i*y) sends the order-p subgroup into an
independent subgroup over F_{q^2} = F_q(i) with i^2 = -1, which turns the
Tate pairing into a symmetric pairing on G1 x G1.

Points are affine (x, y) tuples everywhere outside the inner loops.  The
Miller loop and point_mul work in Jacobian coordinates (X, Y, Z) standing
for (X/Z^2, Y/Z^3), so neither inverts in F_q: point_mul converts back to
affine once at the end, and the Miller loop never does.  Each double or add
step computes its slope numerator and denominator once and uses them both
for the next point and, when asked, for the line through the step
(Barreto, Kim, Lynn and Scott, "Efficient Algorithms for Pairing-Based
Cryptosystems", CRYPTO 2002).  A line has one form, three F_q coefficients
(c0, c1, c2) whose value at the distorted second argument (xq, yq*i) is
(c0 + c1*xq) + (c2*yq)*i.  _miller_walk walks the loop and yields each
step's lines, and _miller_stored, the one evaluator, squares f per step and
multiplies in each line's value.  It runs over a live walk (_miller), over
stored lines, and over the single line of the test hook _line.

Lines carry nonzero F_q factors (powers of Z and the slope denominator), and
vertical lines, whose values lie in F_q, are skipped.  The final
exponentiation to (q^2 - 1)/p = (q - 1) * (q + 1)/p erases every such
factor, since u^(q-1) = 1 for u in F_q*; it takes f^(q-1) as conj(f)/f by
Frobenius.  So a Miller value is defined only up to an F_q* factor, and a
pairing exactly.  A line's imaginary part c2*yq is nonzero for any
distorted point off the x-axis, so honest subgroup inputs never hit a zero.
Adversarial off-subgroup inputs can; the evaluator then raises
DegeneratePairing and the public entry point retries on deterministic
offsets of the second argument.

Points that come back (the generator, key elements) get precomputed tables,
kept per backend in a bounded TableCache from a point's second use on.  A
G1 power of such a point runs on a fixed-base comb (Lim and Lee, CRYPTO
1994): 31 affine sums of 2^(i d) P, then d = ceil(bits(p)/5) doublings and
at most d additions.  A pairing whose first argument has a table runs the
evaluator over its stored lines, the walk's triples divided by their c2
with one batch inversion so that they read (a, b, 1) (the fixed-argument
precomputation of Barreto et al. and of Lynn's PBC library).  Both give
exactly what the plain paths give.

CurveParams.validate() holds every curve rule and counts no points, so it
works at real size (q of 512 bits) like all the arithmetic here; every
TateBackend runs it, and suites over equal parameters share one backend.
Only enumerate_and_validate, which counts points to pick p and a generator,
and TateBackend.log, which brute-forces discrete logs, stay desk-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .algebra import KIND_G1, GroupSuite, MalformedEncoding, ValidationFailed
from .primes import factor, is_prime


class NotOnCurve(Exception):
    """Point fails the curve equation or the subgroup check."""


class DegeneratePairing(Exception):
    """Miller loop hit a zero line value for these inputs."""


class Fq2:
    """F_q(i) with i^2 = -1, valid whenever q = 3 (mod 4)."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a: int, b: int, q: int):
        self.a = a % q
        self.b = b % q
        self.q = q

    def __add__(self, other: "Fq2") -> "Fq2":
        return Fq2(self.a + other.a, self.b + other.b, self.q)

    def __sub__(self, other: "Fq2") -> "Fq2":
        return Fq2(self.a - other.a, self.b - other.b, self.q)

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

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if not isinstance(other, Fq2):
            return NotImplemented
        return self.q == other.q and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __repr__(self):
        return f"Fq2({self.a} + {self.b}i mod {self.q})"


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


def _double(r: tuple, q: int, line: bool = False) -> tuple:
    """(2r, tangent at r) for Jacobian r; the tangent only with line=True.

    The line is None, meaning "lies in F_q, skip", when the tangent is
    vertical or r is infinity; otherwise it is the triple (c0, c1, c2) whose
    value (c0 + c1*xq) + (c2*yq)*i at a distorted point (xq, yq*i) is
    l * z3 * z^2 there, where l(x, y) = y - y_r - lambda*(x - x_r) and the
    slope is lambda = m / z3.  c2 is reduced.
    """
    x, y, z = r
    if z == 0 or y == 0:
        return _INF, None
    yy = y * y % q
    zz = z * z % q
    s = 4 * x * yy % q
    m = (3 * x * x + zz * zz) % q
    x3 = (m * m - 2 * s) % q
    y3 = (m * (s - x3) - 8 * yy * yy) % q
    z3 = 2 * y * z % q
    if not line:
        return (x3, y3, z3), None
    return (x3, y3, z3), (m * x - 2 * yy, -m * zz, z3 * zz % q)


def _add_mixed(r: tuple, x2: int, y2: int, q: int, line: bool = False) -> tuple:
    """(r + (x2, y2), chord through them) for Jacobian r and affine (x2, y2).

    Same conventions as _double, which handles r = (x2, y2).  The chord has
    slope lambda = rr / z3 and passes through (x2, y2); its triple is scaled
    by z3.
    """
    x1, y1, z1 = r
    if z1 == 0:
        return (x2, y2, 1), None
    zz = z1 * z1 % q
    h = (x2 * zz - x1) % q
    rr = (y2 * z1 * zz - y1) % q
    if h == 0:
        if rr == 0:
            return _double(r, q, line)
        return _INF, None  # r = -(x2, y2): vertical chord
    hh = h * h % q
    hhh = h * hh % q
    v = x1 * hh % q
    x3 = (rr * rr - hhh - 2 * v) % q
    y3 = (rr * (v - x3) - y1 * hhh) % q
    z3 = z1 * h % q
    if not line:
        return (x3, y3, z3), None
    return (x3, y3, z3), (rr * x2 - z3 * y2, -rr, z3)


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


def _add(a: Point, b: Point, q: int) -> Point:
    # Raw chord-and-tangent group law; callers validate inputs.
    if a is None:
        return b
    if b is None:
        return a
    return _affine(_add_mixed((a[0], a[1], 1), b[0], b[1], q)[0], q)


def point_add(a: Point, b: Point, q: int) -> Point:
    if not on_curve(a, q) or not on_curve(b, q):
        raise NotOnCurve("point_add input is off the curve")
    return _add(a, b, q)


def _comb_table(pt: tuple, bits: int, q: int) -> tuple:
    """Fixed-base comb for exponents of up to `bits` bits (Lim and Lee).

    With d = ceil(bits / 5), entry j of the table is the sum of 2^(i d) pt
    over the set bits i of j (1 <= j < 32), in affine form (None for
    infinity, which small-order points reach).  Returns (d, entries).
    """
    d = max(1, -(-bits // 5))
    r = (*pt, 1)
    spaced = [r]
    for _ in range(4):
        for _ in range(d):
            r = _double(r, q)[0]
        spaced.append(r)
    spaced = _batch_affine(spaced, q)
    sums = [_INF] * 32
    for j in range(1, 32):
        top = j.bit_length() - 1
        rest = sums[j ^ (1 << top)]
        base = spaced[top]
        sums[j] = rest if base is None else _add_mixed(rest, base[0], base[1], q)[0]
    return d, _batch_affine(sums, q)


def _comb_mul(k: int, comb: tuple, q: int) -> Point:
    # Column j of the five d-bit rows of k picks the entry to add after the
    # j-th doubling: d doublings and at most d mixed additions.
    d, entries = comb
    mask = (1 << d) - 1
    rows = [format(k >> (i * d) & mask, f"0{d}b") for i in range(4, -1, -1)]
    r = _INF
    for column in zip(*rows):
        r = _double(r, q)[0]
        entry = entries[int("".join(column), 2)]
        if entry is not None:
            r = _add_mixed(r, entry[0], entry[1], q)[0]
    return _affine(r, q)


def lift_x(x: int, q: int) -> int | None:
    """y = (x^3 + x)^((q+1)/4), a square root of x^3 + x when q = 3 (mod 4) and
    one exists, so that (x, y) is on the curve; None when none exists."""
    rhs = (x * x * x + x) % q
    y = pow(rhs, (q + 1) // 4, q)
    return y if y * y % q == rhs else None


def point_mul(k: int, pt: Point, q: int, comb: tuple | None = None) -> Point:
    """k * pt: left-to-right double-and-add with mixed (affine-base) addition.

    comb, internal, is pt's _comb_table; it serves 0 <= k < 2^(5d).
    """
    if not on_curve(pt, q):
        raise NotOnCurve("point_mul input is off the curve")
    k = int(k)
    if pt is None or k == 0:
        return None
    if comb is not None and 0 < k and k.bit_length() <= 5 * comb[0]:
        return _comb_mul(k, comb, q)
    x, y = pt
    if k < 0:
        k, y = -k, (-y) % q
    r = (x, y, 1)
    for bit in bin(k)[3:]:
        r = _double(r, q)[0]
        if bit == "1":
            r = _add_mixed(r, x, y, q)[0]
    return _affine(r, q)


def point_neg(pt: Point, q: int) -> Point:
    if pt is None:
        return None
    x, y = pt
    return (x, (-y) % q)


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
        if gen is None or not (0 <= gen[0] < q and 0 <= gen[1] < q and on_curve(gen, q)):
            raise ValidationFailed("generator is not a reduced point on the curve")
        if point_mul(p, gen, q) is not None:
            raise ValidationFailed("generator does not have order p")


@dataclass(frozen=True)
class CurveValidation:
    params: CurveParams
    n_points: int
    factors: dict


def enumerate_and_validate(q: int, p: int | None = None, rng: Random | None = None) -> CurveValidation:
    """Count points exhaustively, pick the subgroup order, find a generator.

    Each x with x^3 + x a nonzero square gives two points, x = 0 gives one,
    and there is the point at infinity.  For a supersingular curve the total
    must land exactly on q + 1; anything else is a hard fail.
    p defaults to the largest prime factor of q + 1; the result is validated.
    """
    q = int(q)
    if q > 10_000:
        raise ValidationFailed("exhaustive validation is capped at q <= 10^4")
    CurveParams.validate_field(q)

    count = 1  # infinity
    for x in range(q):
        y = lift_x(x, q)
        if y is not None:
            count += 1 if y == 0 else 2
    n = q + 1
    if count != n:
        raise ValidationFailed(f"point count {count} != q + 1 = {n}")

    factors = factor(n)
    p = max(factors) if p is None else int(p)
    h = n // p if p > 0 else 0  # validate() rejects p <= 0

    rng = rng if rng is not None else Random(q)
    gen = None
    for _ in range(1000):
        x = rng.randrange(q)
        y = lift_x(x, q)
        if y is not None and (gen := point_mul(h, (x, y), q)) is not None:
            break
    params = CurveParams(q=q, p=p, h=h, gen=gen)
    params.validate()
    return CurveValidation(params, n_points=n, factors=factors)


def _miller_walk(pt: Point, n: int, q: int):
    """Walk the Miller loop of f_{n,pt}: yield each step's lines as triples.

    One list per step, holding the triples of its doubling and addition
    lines (see _double) without the skipped ones.
    """
    x, y = pt
    r = (x, y, 1)
    for bit in bin(n)[3:]:
        r, line = _double(r, q, line=True)
        step = [line]
        if bit == "1":
            r, line = _add_mixed(r, x, y, q, line=True)
            step.append(line)
        yield [c for c in step if c is not None]


def _miller_stored(lines, other: Point, q: int) -> Fq2:
    """The Miller function at phi(other) from the steps of _miller_walk, live
    or stored: per step, square f and multiply in each line's value."""
    xq, yq = (-other[0]) % q, other[1] % q
    fa, fb = 1, 0
    for step in lines:
        fa, fb = (fa + fb) * (fa - fb) % q, 2 * fa * fb % q
        for a, b, c in step:
            la, lb = (a + b * xq) % q, c * yq % q
            if la == 0 and lb == 0:
                raise DegeneratePairing("line through Miller-loop accumulator vanished")
            fa, fb = (fa * la - fb * lb) % q, (fa * lb + fb * la) % q
    return Fq2(fa, fb, q)


def _miller(pt: Point, other: Point, n: int, q: int) -> Fq2:
    """The Miller function f_{n,pt} at phi(other), up to an F_q* factor."""
    return _miller_stored(_miller_walk(pt, n, q), other, q)


def _miller_lines(pt: Point, n: int, q: int) -> tuple:
    """The steps of _miller_walk(pt, n, q), stored for any second argument.

    Each triple is divided by its c2, which is nonzero for canonical pt, so
    it reads (a, b, 1): it differs from the walk's by an F_q* factor and
    vanishes exactly where the walk's does.
    """
    steps = list(_miller_walk(pt, n, q))
    invs = iter(_batch_inverse([c for step in steps for _, _, c in step], q))
    # zip takes from step first, so it stops without consuming an inverse.
    return tuple(
        tuple((a * inv % q, b * inv % q, 1) for (a, b, _), inv in zip(step, invs))
        for step in steps
    )


def _line(a: Point, b: Point, xq_im: int, yq_im: int, q: int) -> Fq2:
    """The Miller step's line through a and b at phi(Q) = (xq_im, yq_im*i),
    xq_im = -x_Q mod q; 1 for a skipped vertical line."""
    line = None
    if a is not None and b is not None:
        line = _add_mixed((a[0], a[1], 1), b[0], b[1], q, line=True)[1]
    return _miller_stored([[] if line is None else [line]], (-xq_im, yq_im), q)


def _final_exp(f: Fq2, p: int) -> Fq2:
    """f^((q^2 - 1)/p) as (f^(q-1))^h, with f^(q-1) = conj(f)/f by Frobenius."""
    q = f.q
    return (Fq2(f.a, -f.b, q) * f.inv()) ** ((q + 1) // p)


def tate_pairing(a: Point, b: Point, params: CurveParams, lines: tuple | None = None) -> Fq2:
    """Reduced Tate pairing e(a, phi(b)) with deterministic retry on zeros.

    lines, internal, is a's _miller_lines for n = p; the result is the same.
    """
    q, p = params.q, params.p
    one = Fq2(1, 0, q)
    if not on_curve(a, q) or not on_curve(b, q):
        raise NotOnCurve("pairing input is off the curve")
    if a is None or b is None:
        return one

    def miller(other):
        return _miller(a, other, p, q) if lines is None else _miller_stored(lines, other, q)

    try:
        return _final_exp(miller(b), p)
    except DegeneratePairing:
        pass
    # Bilinearity rescue: e(a, b) = e(a, b + s) / e(a, s) for any offset s.
    for k in range(1, 5):
        s = point_mul(k, params.gen, q)
        bs = _add(b, s, q)
        try:
            f1 = one if bs is None else miller(bs)
            f2 = miller(s)
            return _final_exp(f1 * f2.inv(), p)
        except DegeneratePairing:
            continue
    raise DegeneratePairing("all retry offsets exhausted")


# Bounds of each backend's TableCache.  At q of 512 bits a point's comb takes
# about 7 KB and its lines about 73 KB, so a full cache holds about 1.3 MB.
_TABLE_SLOTS = 16
_SEEN_SLOTS = 64


class TableCache:
    """Precomputed tables for the points a backend sees more than once.

    Keyed by affine point.  A point's first use only takes one of
    _SEEN_SLOTS slots; its second use moves it to one of _TABLE_SLOTS slots,
    least recently used first out, where each kind of table for it is built
    on demand.  So values used once (responses, hashes, challenges) never
    cost a table, and they never push out a point that has tables.  Safe
    for threads sharing the backend: a table is built outside the lock and
    stored in one assignment, so a racing duplicate build is only wasted.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._seen: OrderedDict = OrderedDict()
        self._tables: OrderedDict = OrderedDict()  # point -> {build: table}

    def get(self, pt: tuple, build):
        """build(pt), kept for reuse from pt's second use on; None before."""
        with self._lock:
            entry = self._tables.get(pt)
            if entry is not None:
                self._tables.move_to_end(pt)
            elif pt in self._seen:
                del self._seen[pt]
                entry = self._tables[pt] = {}
                if len(self._tables) > _TABLE_SLOTS:
                    self._tables.popitem(last=False)
            else:
                self._seen[pt] = None
                if len(self._seen) > _SEEN_SLOTS:
                    self._seen.popitem(last=False)
                return None
            table = entry.get(build)
        if table is None:
            table = entry[build] = build(pt)
        return table

    def sizes(self) -> tuple[int, int]:
        """(points seen once, points with tables)."""
        with self._lock:
            return len(self._seen), len(self._tables)


class TateBackend:
    """Curve-point payloads for G1, F_{q^2} payloads for G2.

    The points that sessions raise to powers or pair again and again (the
    generator, key elements) get precomputed tables in a TableCache: a comb
    for G1 powers, and the Miller lines of the first pairing argument.  Both
    paths give the same results as the plain ones.
    """

    name = "tate"

    def __init__(self, params: CurveParams):
        params.validate()
        self.params = params
        self.p = params.p
        self.q = params.q
        self._fqw = max(2, (params.q.bit_length() + 7) // 8)
        self._gen = params.gen
        self.tables = TableCache()
        self._g2gen = tate_pairing(self._gen, self._gen, params)
        if self._g2gen == Fq2(1, 0, params.q):
            raise ValidationFailed("pairing is degenerate on the chosen generator")

    def combine(self, kind, a, b):
        if kind == KIND_G1:
            return _add(a, b, self.q)
        return a * b

    def _table(self, pt, build):
        # Only canonical curve points are cached; the callee still checks.
        q = self.q
        if pt is None or not (0 <= pt[0] < q and 0 <= pt[1] < q and on_curve(pt, q)):
            return None
        return self.tables.get(pt, build)

    def _comb(self, pt):
        return _comb_table(pt, self.p.bit_length(), self.q)

    def _lines(self, pt):
        return _miller_lines(pt, self.p, self.q)

    def power(self, kind, a, k):
        if kind == KIND_G1:
            return point_mul(k, a, self.q, self._table(a, self._comb))
        return a ** int(k)

    def invert(self, kind, a):
        if kind == KIND_G1:
            return point_neg(a, self.q)
        return a.inv()

    def identity(self, kind):
        if kind == KIND_G1:
            return None
        return Fq2(1, 0, self.q)

    def from_int(self, kind, k):
        if kind == KIND_G1:
            return point_mul(k, self._gen, self.q, self._table(self._gen, self._comb))
        return self._g2gen ** int(k)

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

    def pair(self, a, b):
        return tate_pairing(a, b, self.params, self._table(a, self._lines))

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
        val = Fq2(a, b, self.q)
        if val ** self.p != Fq2(1, 0, self.q):
            raise MalformedEncoding("value is outside the order-p subgroup")
        return val

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "p": str(self.p),
            "q": str(self.q),
            "h": str(self.params.h),
            "gen": f"{self._gen[0]},{self._gen[1]}",
        }


# Shared backends, least recently used first.
_SHARED_SLOTS = 8
_shared_backends: OrderedDict = OrderedDict()
_shared_lock = threading.Lock()


def _shared_suite(params: CurveParams, counted: bool) -> GroupSuite:
    """A suite over the one backend for params; suites sharing it share its
    precomputed tables and compare as compatible at once."""
    with _shared_lock:
        backend = _shared_backends.get(params)
        if backend is not None:
            _shared_backends.move_to_end(params)
    if backend is None:
        backend = TateBackend(params)
        with _shared_lock:
            backend = _shared_backends.setdefault(params, backend)
            if len(_shared_backends) > _SHARED_SLOTS:
                _shared_backends.popitem(last=False)
    return GroupSuite(backend, counted=counted)


@lru_cache(maxsize=_SHARED_SLOTS)
def _desk_params(q: int, p: int | None) -> CurveParams:
    return enumerate_and_validate(q, p).params


def tate_suite(q: int = 523, p: int | None = None, counted: bool = False) -> GroupSuite:
    """The desk-scale curve over F_q found by enumerate_and_validate, which
    counts points once per (q, p) while a bounded memo holds the result."""
    return _shared_suite(_desk_params(q, p), counted)


def suite_from_curve_params(q: int, p: int, h: int, gen: tuple[int, int], counted: bool = False) -> GroupSuite:
    """Rebuild a suite from stored parameters, validated on first use."""
    return _shared_suite(CurveParams(q=q, p=p, h=h, gen=gen), counted)
