"""Layer kernels at real size, timed by direct public calls.

These do not depend on the workload: every traced run measures them on the
pinned 160/512-bit curve, untraced, and reports the median time per call.
"""

from __future__ import annotations

import statistics
import time
from random import Random

from pairid import signatures, tate, wire
from pairid.algebra import KIND_G1, KIND_ZP

import params as real_params


def _per_call(fn, reps: int, inner: int = 1) -> float:
    """Median over reps batches of the seconds per call of fn()."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def measure(suite) -> dict[str, float]:
    q = suite.backend.q
    rng = Random("perfbench kernels")
    a = suite.random_g1(rng, nonidentity=True)
    b = suite.random_g1(rng, nonidentity=True)
    z = suite.random_g2(rng, nonidentity=True).payload
    w = suite.random_g2(rng, nonidentity=True).payload
    k = rng.randrange(1, suite.p)
    s = suite.random_scalar(rng, nonzero=True)
    enc = suite.encode_element(a)
    spec = signatures.HashSpec(signatures.HashMode.TRY_INCREMENT)
    messages = iter([f"kernel message {i}".encode() for i in range(7)])
    p, h, gen = real_params.P, real_params.H, real_params.GEN
    return {
        "tate.kernel.pairing_ms": 1e3 * _per_call(lambda: tate.tate_pairing(a.payload, b.payload, suite.backend.params), 5),
        "tate.kernel.g1_mul_ms": 1e3 * _per_call(lambda: tate.point_mul(k, a.payload, q), 5),
        "tate.kernel.g1_add_us": 1e6 * _per_call(lambda: tate.point_add(a.payload, b.payload, q), 5, 200),
        "tate.kernel.g2_pow_ms": 1e3 * _per_call(lambda: z**k, 7),
        "tate.kernel.fq2_mul_us": 1e6 * _per_call(lambda: z * w, 5, 2000),
        "tate.kernel.fq2_inv_us": 1e6 * _per_call(z.inv, 5, 500),
        "signatures.kernel.hash_to_g1_ms": 1e3 * _per_call(lambda: signatures.hash_to_group(next(messages), spec, suite), 7),
        "wire.kernel.decode_g1_ms": 1e3 * _per_call(lambda: wire.decode_payload((KIND_G1,), enc, suite), 5),
        "wire.kernel.encode_payload_us": 1e6 * _per_call(lambda: wire.encode_payload((KIND_G1, KIND_ZP), (a, s), suite), 5, 500),
        "tate.suite_build_ms": 1e3 * _per_call(lambda: tate.suite_from_curve_params(q, p, h, gen), 3),
    }
