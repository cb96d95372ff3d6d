"""SeededRandom gives Random's stream, and seeds only the streams that are drawn."""

import copy
import random
from random import Random

import pytest

from pairid.lab import HonestProverOracle, ProtocolSim, ScriptedCdhidAttacker, build_summary_matrix
from pairid.schemes import SchemeId, SeededRandom, default_scheme_params, keygen, run_session

SEEDS = ["a", "x:op3:prover", 12345]


def _shuffled(r):
    items = list(range(12))
    r.shuffle(items)
    return items


# Each draw reaches the generator by its own path: _randbelow (bound
# getrandbits) at small and large bounds, getrandbits, random and getstate.
_DRAWS = (
    lambda r: r.randrange(1009),
    lambda r: r.randrange(2**256),
    lambda r: r.getrandbits(300),
    lambda r: r.sample(range(2**40), 5),
    lambda r: r.random(),
    lambda r: r.choice("abcdefghij"),
    _shuffled,
    lambda r: r.getstate(),
)


@pytest.fixture
def seedings(monkeypatch):
    """The arguments of every random.Random.seed call made while the test runs."""
    calls = []
    real = random.Random.seed

    def seed(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", seed)
    return calls


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("first", range(len(_DRAWS)))
def test_stream_is_randoms(seed, first):
    # Every kind of draw in turn is the first, which seeds the stream.
    order = (_DRAWS[first:] + _DRAWS[:first]) * 2
    lazy, eager = SeededRandom(seed), Random(seed)
    assert [draw(lazy) for draw in order] == [draw(eager) for draw in order]
    assert type(lazy) is Random


def test_undrawn_stream_is_never_seeded(seedings):
    streams = [SeededRandom(seed) for seed in SEEDS]
    assert seedings == []
    streams[0].randrange(1009)
    streams[0].random()
    assert seedings == [("a",)]


@pytest.mark.parametrize("seed", SEEDS)
def test_explicit_seed_and_setstate_take_effect(seed):
    reseeded = SeededRandom(seed)
    reseeded.seed("other")
    restored = SeededRandom(seed)
    restored.setstate(Random("state").getstate())
    for stream, expected in ((reseeded, Random("other")), (restored, Random("state"))):
        assert [draw(stream) for draw in _DRAWS] == [draw(expected) for draw in _DRAWS]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
def test_copy_carries_the_stream(clone):
    assert [draw(clone(SeededRandom("a"))) for draw in _DRAWS] == [draw(Random("a")) for draw in _DRAWS]


def test_summary_row_seeds_only_the_attacker(seedings, monkeypatch, t1009):
    # One row of lab-games' summary-row step: forced-challenge cdhid runs draw
    # only from the attacker's stream, and the row rewinds that stream at the
    # challenge, so it is seeded once and the two oracle queries run once.
    kp = keygen(SchemeId.CDHID, t1009, Random("row:keygen"))
    challenges = [(t1009.g1_from_int(k),) for k in Random("row").sample(range(1, t1009.p), 8)]
    sim = ProtocolSim(SchemeId.CDHID, kp, default_scheme_params(t1009), q=2)
    finishes = []
    finish = HonestProverOracle.finish
    monkeypatch.setattr(HonestProverOracle, "finish", lambda self, ch: finishes.append(ch) or finish(self, ch))
    seedings.clear()
    build_summary_matrix(ScriptedCdhidAttacker(0.5, queries=2), sim, ["row"], challenges)
    assert len(seedings) == 1
    assert len(finishes) == 2


@pytest.mark.parametrize("scheme, count", [
    (SchemeId.BLSID, 1), (SchemeId.CDHID, 1), (SchemeId.SDHID, 2),
    (SchemeId.OWFID, 2), (SchemeId.SCL, 2), (SchemeId.HLS, 2),
])
def test_session_seeds_the_streams_it_draws(seedings, scheme, count, t1009):
    # A two-message prover draws nothing unless its response is randomised
    # (sdhid); every verifier draws its challenge.
    kp = keygen(scheme, t1009, Random("session:keygen"))
    seedings.clear()
    run_session(scheme, kp, t1009, seed="session")
    assert len(seedings) == count
