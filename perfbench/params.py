"""Pinned real-size parameters: a "type A" supersingular curve.

y^2 = x^3 + x over F_q with q = h*p - 1 a 512-bit prime, p a 160-bit prime
and h = 0 (mod 4), so q = 3 (mod 4) and the curve has q + 1 = h*p points
(Lynn, "On the Implementation of Pairing-Based Cryptosystems", 2007).

The constants below are the output of derive(DERIVATION_SEED).  They are
pinned rather than derived at start-up so that every run, on every commit,
times the same curve; perfbench/tests/test_smoke.py re-derives them.
validate() re-checks them without sympy, since sympy is slated for removal
from the package: Miller-Rabin on fixed bases for p and q, q = 3 (mod 4),
p*h = q + 1, p^2 not dividing q + 1, and the generator's order through
pairid.tate.suite_from_curve_params.
"""

from __future__ import annotations

from random import Random

DERIVATION_SEED = "pairid perfbench type-A v1"

Q = int(
    "12754743815247551365903365207536378201741095838320536339596390385544169603786"
    "678652508398311134647025207903486521270149881763601534714163324164140990938387"
)
P = 1408604150366267513563008725244081754033323226391
H = int(
    "9054881608811845679594536373982893014369005124167353844278982683044586091547"
    "299475405238810860755912441868"
)
GEN = (
    int(
        "1224893490930503794004075466789973377976387194103161177031006933445828165313"
        "4392274262626062867364572122220681834808723957244612444984282110057601856774166"
    ),
    int(
        "4719368216839730560990156005391368034105920765539885550883455572281314241991"
        "956851955514171891276748054785903373997938302622881312521909056028975195513150"
    ),
)

# Fixed Miller-Rabin bases: the first 20 primes.  For a composite n each base
# is a witness with probability >= 3/4, so a false "prime" needs all twenty.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def derive(seed: str = DERIVATION_SEED) -> tuple[int, int, int, tuple[int, int]]:
    """Draw (q, p, h, gen) from Random(seed): first p, then h, then a point."""
    from pairid.tate import point_mul

    rng = Random(seed)
    while True:
        p = rng.getrandbits(160) | (1 << 159) | 1
        if is_probable_prime(p):
            break
    while True:
        h = 4 * (rng.getrandbits(350) | (1 << 349))
        q = h * p - 1
        if q.bit_length() == 512 and h % p and is_probable_prime(q):
            break
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + x) % q
        y = pow(rhs, (q + 1) // 4, q)
        if (y * y - rhs) % q:
            continue
        gen = point_mul(h, (x, y), q)
        if gen is not None:
            return q, p, h, gen


def validate(q: int = Q, p: int = P, h: int = H) -> None:
    """Raise ValueError unless (q, p, h) has the type-A shape."""
    if p.bit_length() != 160 or not is_probable_prime(p):
        raise ValueError("p is not a 160-bit prime")
    if q.bit_length() != 512 or not is_probable_prime(q):
        raise ValueError("q is not a 512-bit prime")
    if q % 4 != 3:
        raise ValueError("q is not 3 (mod 4)")
    if p * h != q + 1:
        raise ValueError("p*h != q + 1")
    if (q + 1) % (p * p) == 0:
        raise ValueError("p^2 divides q + 1")


def real_suite(counted: bool = False):
    """Validate the pinned set and build its suite; the generator's order is
    checked by suite_from_curve_params."""
    from pairid.tate import suite_from_curve_params

    validate()
    return suite_from_curve_params(Q, P, H, GEN, counted=counted)
