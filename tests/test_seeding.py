"""Each stream's owner builds it at the first draw, and seeds only the streams that are drawn."""

import random
from random import Random

import pytest

from pairid.lab import (
    HonestProverOracle,
    HonestVerifierChannel,
    ProtocolSim,
    ScriptedCdhidAttacker,
    build_summary_matrix,
)
from pairid.schemes import (
    ProverMachine,
    SchemeId,
    VerifierMachine,
    default_scheme_params,
    exchange,
    keygen,
    owfid_commit,
    run_session,
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


def test_forced_challenge_channel_seeds_nothing(seedings, t1009):
    kp = keygen(SchemeId.CDHID, t1009, Random("channel:keygen"))
    h = t1009.g1_from_int(5)
    seedings.clear()
    channel = HonestVerifierChannel(SchemeId.CDHID, kp.public(), forced_challenge=(h,), seed="channel")
    assert channel.start() == (h,)
    assert channel.on_response((h**kp.x,))
    assert seedings == []


def test_prover_oracle_seeds_one_stream_for_its_sessions(seedings, t1009):
    # Each query is a session of its own engine, and every one draws its
    # commitment from the stream that the first built.
    kp = keygen(SchemeId.OWFID, t1009, Random("oracle:keygen"))
    seedings.clear()
    oracle = HonestProverOracle(SchemeId.OWFID, kp, 3, "oracle")
    commitments = []
    for m in (1, 2, 3):
        commitments.append(oracle.begin())
        oracle.finish((t1009.scalar(m),))
    assert seedings == [("oracle:prover",)]
    stream = Random("oracle:prover")
    assert commitments == [(owfid_commit(kp, stream)[1],) for _ in range(3)]


@pytest.mark.parametrize("scheme", [SchemeId.SDHID, SchemeId.HLS])
def test_engine_draws_from_the_stream_given(seedings, scheme, t1009):
    # Streams given as Random(f"{seed}:{role}") replay the seeded session,
    # and the engines seed none of their own.
    kp = keygen(scheme, t1009, Random("given:keygen"))
    streams = Random("given:prover"), Random("given:verifier")
    seedings.clear()
    prover = ProverMachine(scheme, kp, rng=streams[0], seed="unused")
    verifier = VerifierMachine(scheme, kp.public(), rng=streams[1], seed="unused")
    given = exchange(prover, verifier)
    assert seedings == []
    assert prover.rng is streams[0] and verifier.rng is streams[1]
    seeded = run_session(scheme, kp, t1009, seed="given")
    assert (given.commitment, given.challenge, given.response) == (seeded.commitment, seeded.challenge, seeded.response)
