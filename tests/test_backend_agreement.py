"""The curve backend and the transparent backend run the same honest sessions.

With p equal, a seeded keygen and session draw the same exponents on both
backends, so every key and transcript field agrees once each curve element
is mapped to its discrete log.  blsid is left out: its challenge hashes to
G1, and the two backends hash differently by design.
"""

from random import Random

import pytest

from pairid.algebra import G1Element, G2Element, Scalar, transparent_suite
from pairid.schemes import SchemeId, keygen, run_session
from pairid.tate import tate_suite

SCHEMES = [SchemeId.CDHID, SchemeId.SDHID, SchemeId.OWFID, SchemeId.SCL, SchemeId.HLS]
SEEDS = 20


def _logs(suite, values) -> tuple:
    """values with group elements as their discrete logs and scalars as ints."""
    out = []
    for v in values:
        if isinstance(v, (G1Element, G2Element)):
            v = suite.discrete_log(v) % suite.p
        elif isinstance(v, Scalar):
            v = v.value
        out.append(v)
    return tuple(out)


def _run(scheme: SchemeId, suite, i: int) -> dict:
    kp = keygen(scheme, suite, Random(f"agree:{i}"))
    t = run_session(scheme, kp, suite, seed=f"agree:{i}")
    names = [name for name, _ in kp.PUBLIC + kp.SECRET]
    return {
        "key": _logs(suite, [getattr(kp, name) for name in names]),
        "commitment": _logs(suite, t.commitment),
        "challenge": _logs(suite, t.challenge),
        "response": _logs(suite, t.response),
        "decision": t.decision,
        "restarts": t.restarts,
    }


@pytest.mark.parametrize("q, p", [(523, 131), (1051, 263)])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_honest_sessions_agree(scheme, q, p):
    curve, plain = tate_suite(q), transparent_suite(p)
    assert curve.p == plain.p == p
    for i in range(SEEDS):
        assert _run(scheme, curve, i) == _run(scheme, plain, i), f"{scheme.value} seed agree:{i}"
