"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles (extended Euclid, naive
curve enumeration, schoolbook group walks) and deliberately avoids calling
into the package, so a bug would have to be made twice to go unnoticed.
"""

from __future__ import annotations

import math
from fractions import Fraction


def egcd(a: int, b: int):
    """Returns (g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_u, u = u, old_u - quot * u
        old_v, v = v, old_v - quot * v
    return old_r, old_u, old_v


def inverse_mod(a: int, m: int) -> int:
    g, u, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} has no inverse mod {m}")
    return u % m


def jacobi_reference(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, stripping one factor of 2 per
    pass: the loop pairid.primes used before its bit-mask form."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime_naive(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def factor_naive(n: int) -> dict:
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- curve arithmetic, written independently over affine tuples -------------------


def curve_points(q: int) -> list:
    """All affine points of y^2 = x^3 + x over F_q, plus None for infinity."""
    pts = [None]
    squares: dict = {}
    for y in range(q):
        squares.setdefault(y * y % q, []).append(y)
    for x in range(q):
        rhs = (x * x * x + x) % q
        for y in squares.get(rhs, []):
            pts.append((x, y))
    return pts


def naive_add(a, b, q: int):
    if a is None:
        return b
    if b is None:
        return a
    x1, y1 = a
    x2, y2 = b
    if x1 == x2 and (y1 + y2) % q == 0:
        return None
    if a == b:
        lam = (3 * x1 * x1 + 1) * inverse_mod(2 * y1, q) % q
    else:
        lam = (y2 - y1) * inverse_mod((x2 - x1) % q, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return (x3, (lam * (x1 - x3) - y1) % q)


def naive_mul(k: int, pt, q: int):
    acc = None
    for _ in range(k):
        acc = naive_add(acc, pt, q)
    return acc


def point_order_naive(pt, q: int) -> int:
    acc = pt
    order = 1
    while acc is not None:
        acc = naive_add(acc, pt, q)
        order += 1
        if order > q + 2:
            raise RuntimeError("order walk ran past the group size")
    return order


def dlog_table(base_payload, combine, identity, order: int) -> dict:
    """Map payload -> exponent by walking base, base^2, ... base^order."""
    table = {identity: 0}
    acc = identity
    for k in range(1, order):
        acc = combine(acc, base_payload)
        table[acc] = k
    return table


def naive_double_and_add(k: int, pt, q: int):
    """k * pt by affine right-to-left double-and-add; k may be negative."""
    if pt is None:
        return None
    if k < 0:
        k, pt = -k, (pt[0], (-pt[1]) % q)
    acc, base = None, pt
    while k:
        if k & 1:
            acc = naive_add(acc, base, q)
        base = naive_add(base, base, q)
        k >>= 1
    return acc


# -- reference Tate pairing: affine Miller loop, full-exponent reduction ----------
#
# F_q^2 = F_q(i) with i^2 = -1 is written as (real, imaginary) pairs.  This is
# the textbook shape: every line slope costs an inversion in F_q, vertical
# lines are skipped (their value lies in F_q), and the Miller value is raised
# to the whole (q^2 - 1)/p.


class ReferenceDegenerate(Exception):
    """A line of the reference Miller loop vanished at the evaluation point."""


def _fq2_mul(u, v, q: int):
    return ((u[0] * v[0] - u[1] * v[1]) % q, (u[0] * v[1] + u[1] * v[0]) % q)


def _fq2_pow(u, e: int, q: int):
    out = (1, 0)
    while e:
        if e & 1:
            out = _fq2_mul(out, u, q)
        u = _fq2_mul(u, u, q)
        e >>= 1
    return out


def _fq2_inv(u, q: int):
    n_inv = inverse_mod(u[0] * u[0] + u[1] * u[1], q)
    return (u[0] * n_inv % q, -u[1] * n_inv % q)


def reference_line(a, b, xq_im: int, yq_im: int, q: int):
    """Affine line through a and b at the distorted point (xq_im, yq_im * i)."""
    if a is None or b is None:
        return (1, 0)
    x1, y1 = a
    x2, y2 = b
    if x1 == x2 and (y1 + y2) % q == 0:
        return (1, 0)
    if a == b:
        lam = (3 * x1 * x1 + 1) * inverse_mod(2 * y1, q) % q
    else:
        lam = (y2 - y1) * inverse_mod((x2 - x1) % q, q) % q
    val = ((-(y1 + lam * (xq_im - x1))) % q, yq_im % q)
    if val == (0, 0):
        raise ReferenceDegenerate("line through Miller-loop accumulator vanished")
    return val


def reference_miller(pt, other, n: int, q: int):
    xq_im = (-other[0]) % q
    yq_im = other[1] % q
    f = (1, 0)
    r = pt
    for bit in bin(n)[3:]:
        f = _fq2_mul(_fq2_mul(f, f, q), reference_line(r, r, xq_im, yq_im, q), q)
        r = naive_add(r, r, q)
        if bit == "1":
            f = _fq2_mul(f, reference_line(r, pt, xq_im, yq_im, q), q)
            r = naive_add(r, pt, q)
    return f


def reference_pairing(a, b, q: int, p: int, gen):
    """Reduced Tate pairing e(a, phi(b)) as a (real, imaginary) pair.

    A vanishing line is rescued through e(a, b) = e(a, b + s) / e(a, s) with
    s = k * gen for k = 1..4; ReferenceDegenerate when all four fail too.
    """
    if a is None or b is None:
        return (1, 0)
    exp = (q * q - 1) // p
    try:
        return _fq2_pow(reference_miller(a, b, p, q), exp, q)
    except ReferenceDegenerate:
        pass
    for k in range(1, 5):
        s = naive_double_and_add(k, gen, q)
        bs = naive_add(b, s, q)
        try:
            f1 = (1, 0) if bs is None else reference_miller(a, bs, p, q)
            f2 = reference_miller(a, s, p, q)
            return _fq2_pow(_fq2_mul(f1, _fq2_inv(f2, q), q), exp, q)
        except ReferenceDegenerate:
            continue
    raise ReferenceDegenerate("all retry offsets exhausted")


# -- statistics -------------------------------------------------------------------


def binomial_band(p_true: float, n: int, sigmas: float = 3.0) -> tuple:
    """(lo, hi) acceptance band for an empirical rate around p_true."""
    sigma = math.sqrt(p_true * (1.0 - p_true) / n)
    return (p_true - sigmas * sigma, p_true + sigmas * sigma)


# -- heavy-row reference ------------------------------------------------------------


def heavy_mass_from_row_sums(row_sums, cols: int) -> Fraction:
    """Fraction of ones living in rows whose density reaches eps/2.

    eps is the overall density.  Exact arithmetic so enumeration proofs
    carry no float noise.  All-zero matrices count as mass 1.
    """
    total = sum(row_sums)
    if total == 0:
        return Fraction(1)
    rows = len(row_sums)
    # row_sum/cols >= eps/2 = total/(2*rows*cols)  <=>  2*rows*row_sum >= total
    heavy = sum(s for s in row_sums if 2 * rows * s >= total)
    return Fraction(heavy, total)


def iter_row_sum_multisets(rows: int, cols: int):
    """Nondecreasing row-sum tuples; every boolean matrix maps onto one."""
    def rec(prefix, lo, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for s in range(lo, cols + 1):
            prefix.append(s)
            yield from rec(prefix, s, remaining - 1)
            prefix.pop()

    yield from rec([], 0, rows)
