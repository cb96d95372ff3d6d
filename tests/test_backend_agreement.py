"""The curve backend and the transparent backend run the same honest sessions.

With p equal, a seeded keygen and session draw the same exponents on both
backends, so every key and transcript field agrees once each curve element
is mapped to its discrete log.  blsid's response is the one exception: its
challenge hashes to G1, and the two backends hash differently by design, so
each backend's response is checked against its own hash, log sigma =
x * log H(M).  On both backends every honest transcript replays to accept,
and the same transcript with its response's first G1 field multiplied by g
replays to reject; for blsid that runs the BLS fold's reject side.
"""

import dataclasses
from random import Random

import pytest

from pairid.algebra import G1Element, G2Element, Scalar, transparent_suite
from pairid.schemes import SchemeId, keygen, replay_decision, run_session
from pairid.tate import tate_suite

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


def _tampered(t, suite):
    """t with its response's first G1 field multiplied by g."""
    response = list(t.response)
    i = next(i for i, v in enumerate(response) if isinstance(v, G1Element))
    response[i] = response[i] * suite.g1
    return dataclasses.replace(t, response=tuple(response))


def _run(scheme: SchemeId, suite, i: int) -> dict:
    kp = keygen(scheme, suite, Random(f"agree:{i}"))
    t = run_session(scheme, kp, suite, seed=f"agree:{i}")
    pk = kp.public()
    assert replay_decision(t, pk) and not replay_decision(_tampered(t, suite), pk), f"{suite.backend.name} seed agree:{i}"
    names = [name for name, _ in kp.PUBLIC + kp.SECRET]
    response = t.response
    if scheme == SchemeId.BLSID:
        (sig,) = _logs(suite, response)
        assert sig == kp.x.value * suite.discrete_log(suite.hash_to_g1(t.challenge[0])) % suite.p
        response = ()
    return {
        "key": _logs(suite, [getattr(kp, name) for name in names]),
        "commitment": _logs(suite, t.commitment),
        "challenge": _logs(suite, t.challenge),
        "response": _logs(suite, response),
        "decision": t.decision,
        "restarts": t.restarts,
    }


@pytest.mark.parametrize("q, p", [(523, 131), (1051, 263)])
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_honest_sessions_agree(scheme, q, p):
    curve, plain = tate_suite(q), transparent_suite(p)
    assert curve.p == plain.p == p
    for i in range(SEEDS):
        assert _run(scheme, curve, i) == _run(scheme, plain, i), f"{scheme.value} seed agree:{i}"
