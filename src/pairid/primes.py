"""Primality and factoring for parameter validation.

is_prime is the Baillie-PSW test: trial division by the primes below 50, a
strong Fermat test to base 2, then a strong Lucas test with Selfridge's
parameters (Baillie and Wagstaff, "Lucas Pseudoprimes", Math. Comp. 1980).
No composite is known to pass both, and none below 2^64 does.  factor is
plain trial division, meant for the desk-scale group orders (q + 1 <= 10^4 + 1)
that the desk curve search factors.
"""

from __future__ import annotations

from math import isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _strong_fermat_base2(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0.  Each round strips all t
    factors of 2 from a at once and then swaps a and n by reciprocity."""
    a %= n
    result = 1
    while a:
        t = (a & -a).bit_length() - 1
        a >>= t
        if t & 1 and (n & 7) in (3, 5):
            result = -result
        if a & n & 2:  # both odd, so both are 3 (mod 4)
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _half(v: int, n: int) -> int:
    # v / 2 mod odd n.
    return (v if v % 2 == 0 else v + n) // 2 % n


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2 that is not a square."""
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False  # d shares a factor with n
        d = -d - 2 if d > 0 else -d + 2
    p, q = 1, (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # U_k, V_k and Q^k by left-to-right doubling: U_2j = U_j V_j,
    # V_2j = V_j^2 - 2 Q^j, U_(j+1) = (P U_j + V_j)/2, V_(j+1) = (D U_j + P V_j)/2.
    u, v, qk = 1, p, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = _half(p * u + v, n), _half(d * u + p * v, n), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    n = int(n)
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    if n < 53 * 53:
        return True
    if isqrt(n) ** 2 == n:
        return False
    return _strong_fermat_base2(n) and _strong_lucas(n)


def factor(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division."""
    n = int(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
