import random
from random import Random

import pytest

from pairid.algebra import KIND_BITS, KIND_G1, KIND_G2, KIND_ZP, transparent_suite
from pairid.lab import (
    AttackerPair,
    AttackFailed,
    FreshnessCollision,
    HonestProverOracle,
    HonestVerifierChannel,
    InversionFailed,
    MalformedTranscripts,
    OmCdhContext,
    OrderingViolation,
    ProbeFailed,
    ProtocolSim,
    SameWitness,
    ScriptedBlsidAttacker,
    ScriptedCdhidAttacker,
    ScriptedOwfidAttacker,
    SummaryMatrix,
    attack_success_rate,
    blsid_forger,
    blsid_forgery_reduction,
    build_summary_matrix,
    cdhid_reduction,
    cdhid_reduction_game,
    heavy_row_stats,
    invert_to_cdh,
    invert_to_ddh,
    mitm_relay_demo,
    om_cdh_game,
    owfid_extractor,
    owfid_inverter,
    probe_strategy,
    run_attack,
    transparent_pairing_inverter,
    unreliable_inverter,
)
from pairid.schemes import (
    BadChallengeLength,
    IdentityChallenge,
    OwfidKeyPair,
    ProtocolViolation,
    SchemeId,
    Transcript,
    default_scheme_params,
    keygen,
    owfid_commit,
    owfid_respond,
    owfid_verify,
)
from pairid.signatures import BudgetExceeded, ForgeryGameConfig, bls_keygen, bls_verify, forgery_game
from pairid.tate import TateBackend
from pairid.wire import frame_decode
from pairid.schemes import SCHEMES, run_session
from pairid.wire import TAG_CHALLENGE, TAG_COMMITMENT, TAG_RESPONSE, encode_payload

from oracles import binomial_band, heavy_mass_from_row_sums


# A suite that no fixture builds: its values belong to no game's suite.
FOREIGN = transparent_suite(1013)


def owfid_sim(p: int = 101, q: int = 0, seed="sim") -> ProtocolSim:
    return ProtocolSim.new(SchemeId.OWFID, transparent_suite(p), seed=seed, q=q)


class TestHonestCounterparties:
    def test_prover_oracle_budget(self, t1009):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(1))
        oracle = HonestProverOracle(SchemeId.CDHID, kp, 2, 0)
        h = (t1009.g1_from_int(5),)
        oracle.query(h)
        oracle.query(h)
        with pytest.raises(BudgetExceeded):
            oracle.query(h)
        assert oracle.asked == [h, h]

    def test_prover_oracle_ordering(self, t1009):
        kp = keygen(SchemeId.OWFID, t1009, random.Random(1))
        oracle = HonestProverOracle(SchemeId.OWFID, kp, 5, 0)
        commitment = oracle.begin()
        assert len(commitment) == 1
        with pytest.raises(OrderingViolation):
            oracle.begin()
        response = oracle.finish((t1009.scalar(3),))
        assert len(response) == 2
        with pytest.raises(OrderingViolation):
            oracle.finish((t1009.scalar(3),))

    def test_oracle_answers_verify(self, t1009):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(1))
        oracle = HonestProverOracle(SchemeId.CDHID, kp, 3, 0)
        h = t1009.g1_from_int(7)
        (sigma,) = oracle.query((h,))
        assert sigma == h ** kp.x

    def test_verifier_channel_two_message(self, t1009):
        kp = keygen(SchemeId.CDHID, t1009, random.Random(1))
        channel = HonestVerifierChannel(SchemeId.CDHID, kp.public(), default_scheme_params(t1009), Random(2))
        (h,) = channel.start()
        assert channel.on_response((h ** kp.x,))
        t = channel.transcript()
        assert t.decision and t.commitment == ()

    def test_verifier_channel_three_message_ordering(self, t1009):
        kp = keygen(SchemeId.OWFID, t1009, random.Random(1))
        channel = HonestVerifierChannel(SchemeId.OWFID, kp.public(), default_scheme_params(t1009), Random(2))
        with pytest.raises(ProtocolViolation, match="three-message schemes wait for a commitment"):
            channel.start()


class Silent(AttackerPair):
    def prover_phase(self, pk, state, channel, rng):
        channel.start()  # takes the challenge and never answers


class StreamCoin(ScriptedCdhidAttacker):
    """Wins on a coin drawn from the attacker stream after the challenge."""

    def prover_phase(self, pk, token, channel, rng):
        (h,) = channel.start()
        x = pk.suite.discrete_log(pk.v) + (rng.random() >= self.eps)
        channel.on_response((h**x,))


class TestRunAttack:
    def test_silent_attacker_loses(self):
        sim = ProtocolSim.new(SchemeId.CDHID, transparent_suite(101), seed=1, q=2)
        with pytest.raises(AttackFailed, match="attacker ended the session without answering"):
            run_attack(sim, Silent(), seed="quiet")
        report = attack_success_rate(Silent(), sim, trials=20)
        assert (report.wins, report.trials) == (0, 20)

    def test_deterministic_replay(self):
        sim = ProtocolSim.new(SchemeId.CDHID, transparent_suite(101), seed=1, q=2)
        attacker = ScriptedCdhidAttacker(0.7)
        d1, t1 = run_attack(sim, attacker, seed="replay")
        d2, t2 = run_attack(sim, attacker, seed="replay")
        assert d1 == d2
        assert (t1.challenge, t1.response) == (t2.challenge, t2.response)

    def test_rewind_fixes_commitment(self):
        sim = owfid_sim()
        attacker = ScriptedOwfidAttacker(1.0)
        suite = sim.suite
        ch1 = (suite.scalar(17),)
        ch2 = (suite.scalar(39),)
        _, t1 = run_attack(sim, attacker, seed="rw", forced_challenge=ch1)
        _, t2 = run_attack(sim, attacker, seed="rw", forced_challenge=ch2)
        assert t1.commitment == t2.commitment
        assert t1.challenge != t2.challenge
        assert t1.response != t2.response

    def test_budget_zero_blocks_queries(self):
        sim = ProtocolSim.new(SchemeId.CDHID, transparent_suite(101), seed=1, q=0)
        with pytest.raises(BudgetExceeded):
            run_attack(sim, ScriptedCdhidAttacker(1.0, queries=2), seed=0)

    def test_success_rate_extremes(self):
        sim = ProtocolSim.new(SchemeId.CDHID, transparent_suite(101), seed=1, q=2)
        assert attack_success_rate(ScriptedCdhidAttacker(1.0), sim, trials=50).wins == 50
        assert attack_success_rate(ScriptedCdhidAttacker(0.0), sim, trials=50).wins == 0

    def test_success_rate_calibration(self):
        sim = ProtocolSim.new(SchemeId.CDHID, transparent_suite(101), seed=1, q=2)
        report = attack_success_rate(ScriptedCdhidAttacker(0.5), sim, trials=400, seed="cal")
        lo, hi = binomial_band(0.5, 400)
        assert lo <= report.advantage <= hi

    def test_owfid_attacker_calibration(self):
        sim = owfid_sim()
        report = attack_success_rate(ScriptedOwfidAttacker(0.5), sim, trials=400, seed="cal")
        lo, hi = binomial_band(0.5, 400)
        assert lo <= report.advantage <= hi

    def test_scripted_attacker_on_curve(self, c59):
        sim = ProtocolSim.new(SchemeId.CDHID, c59, seed=1, q=2)
        decision, _ = run_attack(sim, ScriptedCdhidAttacker(1.0), seed=3)
        assert decision


class TestSummaryMatrix:
    def test_matrix_is_deterministic(self):
        sim = ProtocolSim.new(SchemeId.CDHID, transparent_suite(11), seed=2, q=0)
        attacker = ScriptedCdhidAttacker(0.5, queries=0)
        suite = sim.suite
        challenges = [(suite.g1_from_int(k),) for k in range(1, 11)]
        seeds = [f"s{i}" for i in range(12)]
        m1 = build_summary_matrix(attacker, sim, seeds, challenges)
        m2 = build_summary_matrix(attacker, sim, seeds, challenges)
        assert m1.bits == m2.bits
        assert m1.shape == (12, 10)

    def test_matrix_density_tracks_eps(self):
        sim = ProtocolSim.new(SchemeId.CDHID, transparent_suite(11), seed=2, q=0)
        suite = sim.suite
        challenges = [(suite.g1_from_int(k),) for k in range(1, 11)]
        seeds = [f"d{i}" for i in range(40)]
        matrix = build_summary_matrix(ScriptedCdhidAttacker(0.5, queries=0), sim, seeds, challenges)
        lo, hi = binomial_band(0.5, 400)
        assert lo <= matrix.ones() / 400 <= hi

    @pytest.mark.parametrize("suite_name", ["t1009", "c523"])
    @pytest.mark.parametrize("scheme, attacker, q, wins", [
        *[pytest.param(SchemeId.CDHID, ScriptedCdhidAttacker(eps, queries=n), 4, True, id=f"cdhid-{n}q-eps{eps}")
          for n in (0, 2, 4) for eps in (0.3, 0.6)],
        # Its prover phase draws the commitment from the attacker stream.
        pytest.param(SchemeId.OWFID, ScriptedOwfidAttacker(0.4), 0, True, id="owfid-eps0.4"),
        # Its bits depend on where the stream stood at the challenge.
        pytest.param(SchemeId.CDHID, StreamCoin(0.5), 4, True, id="stream-coin"),
        # A budget below the attacker's queries forfeits before the challenge.
        pytest.param(SchemeId.CDHID, ScriptedCdhidAttacker(0.6, queries=4), 2, False, id="cdhid-over-budget"),
        pytest.param(SchemeId.CDHID, Silent(), 0, False, id="silent"),
    ])
    def test_rewound_matrix_equals_replay(self, request, suite_name, scheme, attacker, q, wins):
        suite = request.getfixturevalue(suite_name)
        sim = ProtocolSim.new(scheme, suite, seed="exact", q=q)
        rng = Random(f"exact:{suite_name}")
        challenges = [SCHEMES[scheme].sample_challenge(suite, rng) for _ in range(8)]
        seeds = [f"e{i}" for i in range(6)]

        def replayed(seed, ch):
            # The whole run again, verifier phase and oracle sessions included.
            try:
                decision, _ = run_attack(sim, attacker, seed, forced_challenge=ch)
            except (BudgetExceeded, AttackFailed):
                return 0
            return int(decision)

        matrix = build_summary_matrix(attacker, sim, seeds, challenges)
        assert matrix.bits == [[replayed(seed, ch) for ch in challenges] for seed in seeds]
        assert (matrix.ones() > 0) == wins

    def test_heavy_rows_match_oracle(self):
        cases = [
            [[1, 1, 0], [0, 0, 0]],
            [[1, 0, 0, 0], [1, 1, 1, 1]],
            [[0, 0], [0, 0]],
            [[1, 1], [1, 1]],
            [[1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1]],
        ]
        for bits in cases:
            matrix = SummaryMatrix(list(range(len(bits))), list(range(len(bits[0]))), bits)
            report = heavy_row_stats(matrix)
            expect = float(heavy_mass_from_row_sums([sum(r) for r in bits], len(bits[0])))
            assert report.heavy_mass == pytest.approx(expect)
            assert report.heavy_mass >= 0.5

    def test_heavy_mass_strict_majority_on_attack_matrices(self):
        sim = ProtocolSim.new(SchemeId.CDHID, transparent_suite(11), seed=2, q=0)
        suite = sim.suite
        challenges = [(suite.g1_from_int(k),) for k in range(1, 11)]
        for eps in (0.2, 0.5, 0.9):
            seeds = [f"h{eps}:{i}" for i in range(16)]
            matrix = build_summary_matrix(ScriptedCdhidAttacker(eps, queries=0), sim, seeds, challenges)
            report = heavy_row_stats(matrix)
            if matrix.ones():
                assert report.heavy_mass > 0.5
            else:
                assert report.heavy_mass == 1.0

    def test_explicit_eps_overrides_density(self):
        matrix = SummaryMatrix([0, 1], [0, 1, 2, 3], [[1, 1, 1, 1], [1, 0, 0, 0]])
        # density eps = 5/8, threshold 5/16: the light row misses it
        default = heavy_row_stats(matrix)
        assert default.eps == pytest.approx(5 / 8)
        assert default.heavy_rows == [0]
        assert default.heavy_mass == pytest.approx(4 / 5)
        # a gentler eps admits the light row too
        assert heavy_row_stats(matrix, eps=0.5).heavy_mass == 1.0
        # a harsher one keeps only the full row
        assert heavy_row_stats(matrix, eps=2.0).heavy_rows == [0]


class TestProbing:
    def test_probe_postconditions(self):
        sim = owfid_sim(q=0, seed="probe-post")
        report = probe_strategy(ScriptedOwfidAttacker(0.5), sim, eps=0.5, rng=Random("probe0"))
        t1, t2 = report.first, report.second
        assert t1.decision and t2.decision
        assert t1.commitment == t2.commitment
        assert t1.challenge != t2.challenge
        pk = sim.kp.public()
        for t in (t1, t2):
            assert owfid_verify(pk, t.commitment[0], t.challenge[0], t.response[0], t.response[1])
        assert report.phase1_probes <= 2
        assert report.phase2_probes <= 4

    def test_probe_success_rate(self):
        # ~0.69 expected; the guaranteed floor is ~0.1998
        sim = owfid_sim(q=0, seed="probe-rate")
        attacker = ScriptedOwfidAttacker(0.5)
        wins = 0
        trials = 120
        for i in range(trials):
            try:
                probe_strategy(attacker, sim, eps=0.5, rng=Random(f"pr:{i}"))
                wins += 1
            except ProbeFailed:
                pass
        assert wins / trials > 0.5

    def test_hopeless_attacker_fails_cleanly(self):
        sim = owfid_sim(q=0, seed="probe-fail")
        with pytest.raises(ProbeFailed):
            probe_strategy(ScriptedOwfidAttacker(0.0), sim, eps=0.5, rng=Random(1))

    def test_pilot_estimate_path(self):
        sim = owfid_sim(q=0, seed="probe-pilot")
        report = probe_strategy(ScriptedOwfidAttacker(0.9), sim, rng=Random("pilot-run"))
        lo, hi = binomial_band(0.9, 200)
        assert lo <= report.eps <= hi


def vector_keys(t11):
    """Key material from the worked example mod 11."""
    pk_v = t11.g2_from_int(7)
    real = OwfidKeyPair(t11, t11.g1_from_int(2), t11.g2_from_int(5), t11.g1_from_int(3), t11.scalar(4), pk_v)
    sim = OwfidKeyPair(t11, t11.g1_from_int(2), t11.g2_from_int(5), t11.g1_from_int(5), t11.scalar(1), pk_v)
    return real, sim


def vector_transcripts(t11):
    x = (t11.g2_from_int(1),)
    t1 = Transcript(SchemeId.OWFID, x, (t11.scalar(3),), (t11.g1_from_int(10), t11.scalar(3)), True)
    t2 = Transcript(SchemeId.OWFID, x, (t11.scalar(5),), (t11.g1_from_int(5), t11.scalar(0)), True)
    return t1, t2


class TestExtractor:
    def test_worked_vector(self, t11):
        real, sim = vector_keys(t11)
        t1, t2 = vector_transcripts(t11)
        result = owfid_extractor(t1, t2, sim)
        assert result.Q == t11.g1_from_int(3)
        assert result.s == 4
        assert result.Z == t11.g1_from_int(8)
        assert t11.pairing(real.P, result.Z) == real.y

    def test_same_witness_detected(self, t11):
        real, _ = vector_keys(t11)
        t1, t2 = vector_transcripts(t11)
        # simulate with the very key the transcripts were built from
        with pytest.raises(SameWitness):
            owfid_extractor(t1, t2, real)

    def test_malformed_pairs_rejected(self, t11):
        real, sim = vector_keys(t11)
        t1, t2 = vector_transcripts(t11)
        with pytest.raises(MalformedTranscripts, match="share a commitment"):
            # a valid transcript, but from an independent commitment
            state, commitment = owfid_commit(real, Random("fresh"))
            m = t11.scalar(5)
            broken = Transcript(t2.scheme, commitment, (m,), owfid_respond(real, state, m), True)
            assert broken.commitment != t1.commitment
            owfid_extractor(t1, broken, sim)
        with pytest.raises(MalformedTranscripts, match="share the challenge"):
            owfid_extractor(t1, t1, sim)
        with pytest.raises(MalformedTranscripts, match="verify"):
            tampered = Transcript(t2.scheme, t2.commitment, t2.challenge, (t2.response[0], t2.response[1] + 1), True)
            owfid_extractor(t1, tampered, sim)
        with pytest.raises(MalformedTranscripts, match="transcript"):
            owfid_extractor(Transcript(SchemeId.HLS, (), (), (), True), t2, sim)


class TestInverter:
    @pytest.mark.parametrize("mode", ["iterated", "single-shot"])
    def test_modes_produce_preimages(self, mode):
        suite = transparent_suite(101)
        rng = Random(f"inv:{mode}")
        P = suite.random_g1(rng, nonidentity=True)
        y = suite.random_g2(rng, nonidentity=True)
        attacker = ScriptedOwfidAttacker(0.9)
        found = 0
        for i in range(12):
            try:
                Z = owfid_inverter(attacker, P, y, suite, mode=mode, eps=0.9, rng=Random(f"{mode}:{i}"))
            except InversionFailed:
                continue
            found += 1
            assert suite.pairing(P, Z) == y
        assert found > 0

    def test_iterated_on_curve(self, c523, monkeypatch):
        # The extractor's G1 division T1 / T2 runs TateBackend.invert in a game.
        inverts = []
        invert = TateBackend.invert
        monkeypatch.setattr(TateBackend, "invert", lambda self, kind, a: inverts.append(kind) or invert(self, kind, a))
        rng = Random("curve-inverter")
        P = c523.random_g1(rng, nonidentity=True)
        y = c523.random_g2(rng, nonidentity=True)
        inverted = 0
        for i in range(5):
            try:
                Z = owfid_inverter(ScriptedOwfidAttacker(0.5), P, y, c523, eps=0.5, rng=Random(f"curve:{i}"))
            except InversionFailed:
                continue
            inverted += 1
            assert c523.pairing(P, Z) == y
        assert inverted > 0
        assert KIND_G1 in inverts

    def test_hopeless_attacker(self):
        suite = transparent_suite(101)
        rng = Random(3)
        P = suite.random_g1(rng, nonidentity=True)
        y = suite.random_g2(rng, nonidentity=True)
        with pytest.raises(InversionFailed):
            owfid_inverter(ScriptedOwfidAttacker(0.0), P, y, suite, mode="iterated", eps=0.5, rng=Random(4))
        with pytest.raises(InversionFailed):
            owfid_inverter(ScriptedOwfidAttacker(0.0), P, y, suite, rng=Random(4))

    def test_unknown_mode(self):
        suite = transparent_suite(101)
        with pytest.raises(ValueError):
            owfid_inverter(ScriptedOwfidAttacker(0.5), suite.g1, suite.g2, suite, mode="parallel")


class TestOneMoreGame:
    def test_context_budget_and_ordering(self, t1009):
        ctx = OmCdhContext(t1009, t1009.scalar(5), q=2, rng=Random(1))
        h = t1009.g1_from_int(3)
        assert ctx.cdh(h) == h ** 5
        ctx.cdh(h)
        with pytest.raises(BudgetExceeded):
            ctx.cdh(h)
        target = ctx.challenge()
        assert not target.is_identity
        with pytest.raises(OrderingViolation):
            ctx.challenge()
        with pytest.raises(OrderingViolation):
            ctx.cdh(h)

    def test_dlog_adversary_wins(self, t1009):
        def adversary(ctx, rng):
            x = ctx.suite.discrete_log(ctx.v)
            return ctx.challenge() ** x

        report = om_cdh_game(adversary, t1009, q=4, trials=30, seed=2)
        assert report.wins == 30
        assert report.queries["cdh"] == 0

    def test_misbehaving_adversary_loses_quietly(self, t1009):
        def adversary(ctx, rng):
            target = ctx.challenge()
            ctx.cdh(target)  # illegal: oracle closed
            return target

        report = om_cdh_game(adversary, t1009, q=4, trials=10)
        assert report.wins == 0

    def test_malformed_query_forfeits_uncharged(self, t1009):
        for query in (5, "x", FOREIGN.g1, t1009.g2):
            report = om_cdh_game(lambda ctx, rng: ctx.cdh(query), t1009, trials=2)
            assert (report.wins, report.trials, report.queries) == (0, 2, {"cdh": 0})
        # An answer of another suite loses too, even if the helper made it.
        report = om_cdh_game(lambda ctx, rng: FOREIGN.g1, t1009, trials=2)
        assert (report.wins, report.queries) == (0, {"cdh": 0})

    def test_reduction_answer_is_correct(self):
        suite = transparent_suite(101)
        ctx = OmCdhContext(suite, suite.scalar(17), q=4, rng=Random(5))
        answer = cdhid_reduction(ScriptedCdhidAttacker(1.0, queries=3), ctx, Random(6))
        assert answer == ctx.target ** 17
        assert ctx.calls == 3

    def test_reduction_game_query_accounting(self):
        suite = transparent_suite(101)
        queries = 3
        attacker = ScriptedCdhidAttacker(1.0, queries=queries)
        report = cdhid_reduction_game(attacker, suite, q=queries, trials=25, seed=7)
        assert report.wins == 25
        # ever trial uses exactly its interaction count, never more than q
        assert report.queries["cdh"] == 25 * queries

    def test_reduction_rate_tracks_attacker(self):
        suite = transparent_suite(101)
        attacker = ScriptedCdhidAttacker(0.5, queries=2)
        sim = ProtocolSim(SchemeId.CDHID, keygen(SchemeId.CDHID, suite, Random(0)), default_scheme_params(suite), 2)
        measured = attack_success_rate(attacker, sim, trials=300, seed="m").advantage
        report = cdhid_reduction_game(attacker, suite, q=2, trials=300, seed=8)
        sigma = (2 * 0.5 * 0.5 / 300) ** 0.5
        assert abs(report.advantage - measured) <= 3 * sigma


class TestForgeryReduction:
    def test_reduction_produces_fresh_forgery(self, t11):
        from pairid.signatures import bls_keygen, bls_sign

        kp = bls_keygen(t11, Random(1))
        params = default_scheme_params(t11)
        calls = []

        def sign(message):
            calls.append(message)
            return bls_sign(kp, message)

        attacker = ScriptedBlsidAttacker(n=4, queries=8)
        # seed picked so the random challenge misses the 8 queried messages
        message, sig = blsid_forgery_reduction(attacker, kp.public(), sign, params, Random(4))
        assert message not in calls
        assert len(calls) == 8
        assert bls_verify(kp.public(), message, sig)

    def test_collision_when_budget_covers_domain(self, t11):
        from pairid.signatures import bls_keygen, bls_sign

        kp = bls_keygen(t11, Random(1))
        params = default_scheme_params(t11)
        attacker = ScriptedBlsidAttacker(n=4, queries=16)  # queries the whole domain
        with pytest.raises(FreshnessCollision):
            blsid_forgery_reduction(
                attacker, kp.public(), lambda m: bls_sign(kp, m), params, Random(2)
            )

    def test_forger_in_game(self, t11):
        attacker = ScriptedBlsidAttacker(n=4, queries=8)
        report = forgery_game("bls", blsid_forger(attacker), ForgeryGameConfig(q_s=8, trials=100, seed=5), t11)
        # half the challenges collide with a query on average
        lo, hi = binomial_band(0.5, 100)
        assert lo <= report.advantage <= hi
        assert report.queries["sign"] == 100 * 8

    def test_forger_that_quits_loses(self, t11):
        class Quitter(ScriptedBlsidAttacker):
            def prover_phase(self, pk, state, channel, rng):
                return None

        report = forgery_game("bls", blsid_forger(Quitter(n=4, queries=2)), ForgeryGameConfig(trials=5), t11)
        assert report.wins == 0


class AsksOnce(AttackerPair):
    """Asks the prover oracle one challenge tuple, challenge(suite), then quits."""

    def __init__(self, challenge):
        self.challenge = challenge

    def verifier_phase(self, pk, prover, rng):
        prover.query(self.challenge(pk.suite))

    def prover_phase(self, pk, state, channel, rng):
        return None


class TestSimulatedProvers:
    """A reduction's simulated prover refuses what the honest prover refuses, before its game oracle is charged."""

    @pytest.mark.parametrize("fixture", ["t1009", "c59"])
    @pytest.mark.parametrize("challenge, error", [
        pytest.param(lambda suite: (bytes(suite.width(KIND_BITS) + 1),), BadChallengeLength, id="wrong-length"),
        pytest.param(lambda suite: ((1 << suite.n).to_bytes(suite.width(KIND_BITS), "big"),), BadChallengeLength,
                     id="over-n-bits"),
        pytest.param(lambda suite: (bytes(suite.width(KIND_BITS)),) * 2, ProtocolViolation, id="two-fields"),
        pytest.param(lambda suite: ("x",), ProtocolViolation, id="str"),
        pytest.param(lambda suite: (FOREIGN.g1,), ProtocolViolation, id="element"),
    ])
    def test_blsid_reduction(self, challenge, error, fixture, request):
        suite = request.getfixturevalue(fixture)
        kp = bls_keygen(suite, Random(1))
        signed = []
        with pytest.raises(error):
            blsid_forgery_reduction(AsksOnce(challenge), kp.public(), signed.append, default_scheme_params(suite),
                                    Random(2))
        assert signed == []
        config = ForgeryGameConfig(trials=5, seed="refuse")
        report = forgery_game("bls", blsid_forger(AsksOnce(challenge)), config, suite)
        assert (report.wins, report.queries) == (0, {"hash": 0, "sign": 0})

    @pytest.mark.parametrize("fixture", ["t1009", "c59"])
    @pytest.mark.parametrize("challenge, error", [
        pytest.param(lambda suite: (suite.g1_from_int(0),), IdentityChallenge, id="identity"),
        pytest.param(lambda suite: (suite.g1,) * 2, ProtocolViolation, id="two-fields"),
        pytest.param(lambda suite: (5,), ProtocolViolation, id="int"),
        pytest.param(lambda suite: (FOREIGN.g1,), ProtocolViolation, id="other-suite"),
        pytest.param(lambda suite: (suite.g2,), ProtocolViolation, id="g2"),
    ])
    def test_cdhid_reduction(self, challenge, error, fixture, request):
        suite = request.getfixturevalue(fixture)
        ctx = OmCdhContext(suite, suite.scalar(3), q=4, rng=Random(1))
        with pytest.raises(error):
            cdhid_reduction(AsksOnce(challenge), ctx, Random(2))
        assert ctx.calls == 0
        report = cdhid_reduction_game(AsksOnce(challenge), suite, q=4, trials=5)
        assert (report.wins, report.queries) == (0, {"cdh": 0})


class TestPairingInversionUses:
    def test_cdh_from_inverter_vector(self, t11):
        invert = transparent_pairing_inverter(t11)
        g = t11.g1
        answer = invert_to_cdh(invert, g, g ** 3, g ** 4)
        assert answer == t11.g1_from_int(1)

    def test_cdh_from_inverter_random(self, t1009, rng):
        invert = transparent_pairing_inverter(t1009)
        g = t1009.g1
        for _ in range(25):
            a, b = rng.randrange(1009), rng.randrange(1009)
            assert invert_to_cdh(invert, g, g ** a, g ** b) == g ** (a * b)

    def test_inverter_identity_base_rejected(self, t11):
        invert = transparent_pairing_inverter(t11)
        with pytest.raises(InversionFailed):
            invert(t11.g1_from_int(0), t11.g2)

    def test_ddh_from_perfect_inverter(self, t11):
        invert = transparent_pairing_inverter(t11)
        y = t11.g2
        for a in range(0, 11, 2):
            for b in range(0, 11, 3):
                for c in range(0, 11, 2):
                    got = invert_to_ddh(invert, y, y ** a, y ** b, y ** c, t11, Random(f"{a}:{b}:{c}"))
                    assert got == (c % 11 == a * b % 11)

    def test_unreliable_inverter_determinism_and_rate(self, t1009):
        perfect = transparent_pairing_inverter(t1009)
        eps = 0.5
        flaky = unreliable_inverter(t1009, perfect, eps, salt=b"t")
        rng = Random(9)
        correct = 0
        trials = 400
        for _ in range(trials):
            P = t1009.random_g1(rng, nonidentity=True)
            y = t1009.random_g2(rng, nonidentity=True)
            Z = flaky(P, y)
            assert flaky(P, y) == Z  # deterministic per input
            correct += t1009.pairing(P, Z) == y
        lo, hi = binomial_band(eps, trials)
        assert lo <= correct / trials <= hi

    def test_flaky_ddh_on_real_tuples(self, t1009):
        perfect = transparent_pairing_inverter(t1009)
        flaky = unreliable_inverter(t1009, perfect, 0.5, salt=b"d")
        rng = Random(10)
        y = t1009.g2
        hits = 0
        trials = 200
        for _ in range(trials):
            a, b = rng.randrange(1, 1009), rng.randrange(1, 1009)
            hits += invert_to_ddh(flaky, y, y ** a, y ** b, y ** (a * b), t1009, rng)
        # all four inversions correct with probability 1/16
        assert hits / trials >= 0.0625 - 3 * (0.0625 * 0.9375 / trials) ** 0.5


class TestRelay:
    def test_verbatim_relay_accepted(self, t1009):
        report = mitm_relay_demo(t1009, SchemeId.HLS, seed=1)
        assert report.decision and not report.tampered
        assert len(report.frames) == 3
        assert "verbatim" in report.note
        for raw in report.frames:
            frame_decode(raw)  # every relayed frame is well-formed

    def test_two_message_relay(self, t1009):
        report = mitm_relay_demo(t1009, SchemeId.CDHID, seed=1)
        assert report.decision
        assert len(report.frames) == 2

    def test_bit_flip_rejected(self, t1009):
        report = mitm_relay_demo(t1009, SchemeId.HLS, seed=1, flip=(2, 5, 0))
        assert report.tampered and not report.decision

    def test_header_flip_breaks_framing(self, t1009):
        report = mitm_relay_demo(t1009, SchemeId.HLS, seed=1, flip=(2, 3, 0))
        assert not report.decision
        assert "broke" in report.note or "rejected" in report.note

    def test_relay_on_curve(self, c59):
        assert mitm_relay_demo(c59, SchemeId.HLS, seed=2).decision


class TestRelayRestart:
    def test_verbatim_relay_survives_restarts(self):
        # At p = 5 about one SCL round in five has no answer; the relay must
        # restart on the same random streams as run_session and end with
        # exactly its three messages.
        suite = transparent_suite(5)
        ops = SCHEMES[SchemeId.SCL]
        restarted = []
        for seed in range(80):
            kp = keygen(SchemeId.SCL, suite, Random(f"{seed}:keygen"))
            local = run_session(SchemeId.SCL, kp, suite, seed=seed)
            if not local.restarts:
                continue
            restarted.append(seed)
            report = mitm_relay_demo(suite, SchemeId.SCL, seed=seed)
            assert report.decision, f"seed {seed}: {report.note}"
            messages = [frame_decode(raw) for raw in report.frames[-3:]]
            assert messages == [
                (TAG_COMMITMENT, encode_payload(ops.commitment_fields, local.commitment, suite)),
                (TAG_CHALLENGE, encode_payload(ops.challenge_fields, local.challenge, suite)),
                (TAG_RESPONSE, encode_payload(ops.response_fields, local.response, suite)),
            ]
        assert len(restarted) == 15


# -- attackers that break a rule of their game ---------------------------------------


class FinishFirst(AttackerPair):
    """Asks the prover oracle for a response before any session began."""

    def verifier_phase(self, pk, prover, rng):
        prover.finish((pk.suite.g1,))


class IdentityQuery(AttackerPair):
    """One honest query, then the identity as a cdhid challenge."""

    def verifier_phase(self, pk, prover, rng):
        prover.query((pk.suite.random_g1(rng, nonidentity=True),))
        prover.query((pk.suite.g1_from_int(0),))


class WrongFieldCount:
    """Mixin: answers a two-message challenge with one field too many."""

    def prover_phase(self, pk, state, channel, rng):
        challenge = channel.start()
        channel.on_response(challenge * 2)


class AnswersTwice:
    """Mixin: plays the scripted attacker's winning run, then answers again."""

    def prover_phase(self, pk, state, channel, rng):
        super().prover_phase(pk, state, channel, rng)
        channel.on_response(channel.response)  # after the verifier decided


class FillsEveryField(AttackerPair):
    """Sends a commitment and a response of the right field counts with value(kind) in every field."""

    def __init__(self, value):
        self.value = value

    def prover_phase(self, pk, state, channel, rng):
        ops = channel.ops
        if ops.three_message:
            channel.on_commitment(tuple(map(self.value, ops.commitment_fields)))
        else:
            channel.start()
        channel.on_response(tuple(map(self.value, ops.response_fields)))


class AsksEveryScalar(AttackerPair):
    """Opens one prover-oracle session per nonzero scalar and asks that scalar, then quits."""

    def verifier_phase(self, pk, prover, rng):
        for k in range(1, pk.suite.p):
            prover.begin()
            prover.finish((pk.suite.scalar(k),))

    def prover_phase(self, pk, state, channel, rng):
        return None


def misbehaving(mixin, base, *args):
    return type(mixin.__name__ + base.__name__, (mixin, base), {})(*args)


class TestForfeitRule:
    """An attacker that breaks a rule loses its trial; the game reports it and goes on."""

    # (attacker, oracle queries it spends in each trial)
    @pytest.mark.parametrize("attacker, queries", [
        pytest.param(FinishFirst(), 0, id="finish-before-begin"),
        pytest.param(IdentityQuery(), 1, id="identity-query"),
        pytest.param(misbehaving(WrongFieldCount, ScriptedCdhidAttacker, 1.0, 2), 2, id="wrong-field-count"),
        pytest.param(misbehaving(AnswersTwice, ScriptedCdhidAttacker, 1.0, 2), 2, id="second-response"),
        pytest.param(AsksOnce(lambda suite: (5,)), 0, id="wrong-type-query"),
    ])
    def test_impersonation_games(self, attacker, queries, t1009):
        sim = ProtocolSim.new(SchemeId.CDHID, t1009, seed="forfeit", q=4)
        report = attack_success_rate(attacker, sim, trials=10)
        assert (report.wins, report.queries) == (0, {})
        challenges = [(t1009.g1_from_int(k),) for k in range(1, 5)]
        matrix = build_summary_matrix(attacker, sim, [f"f{i}" for i in range(5)], challenges)
        assert matrix.shape == (5, 4) and matrix.ones() == 0
        report = cdhid_reduction_game(attacker, t1009, q=4, trials=10)
        assert (report.wins, report.queries) == (0, {"cdh": 10 * queries})
        with pytest.raises(ProbeFailed):
            probe_strategy(attacker, sim, eps=0.5, rng=Random("forfeit"))

    @pytest.mark.parametrize("attacker, queries", [
        pytest.param(FinishFirst(), 0, id="finish-before-begin"),
        pytest.param(misbehaving(WrongFieldCount, ScriptedBlsidAttacker, 4, 2), 2, id="wrong-field-count"),
        pytest.param(misbehaving(AnswersTwice, ScriptedBlsidAttacker, 4, 2), 2, id="second-response"),
        # Its queries cover the challenge domain, so every challenge collides.
        pytest.param(ScriptedBlsidAttacker(4, 16), 16, id="freshness-collision"),
        pytest.param(AsksOnce(lambda suite: (5,)), 0, id="wrong-type-query"),
    ])
    def test_forgery_game(self, attacker, queries, t11):
        config = ForgeryGameConfig(q_s=16, q_h=64, trials=10, seed="forfeit")
        report = forgery_game("bls", blsid_forger(attacker), config, t11)
        assert (report.wins, report.queries) == (0, {"hash": 0, "sign": 10 * queries})

    @pytest.mark.parametrize("fixture", ["t1009", "c59"])
    @pytest.mark.parametrize("scheme", list(SchemeId))
    @pytest.mark.parametrize("value", [
        pytest.param(lambda kind: "x", id="str"),
        pytest.param(lambda kind: {KIND_G1: FOREIGN.g1, KIND_G2: FOREIGN.g2, KIND_ZP: FOREIGN.scalar(3)}[kind],
                     id="other-suite"),
    ])
    def test_out_of_suite_impersonation(self, value, scheme, fixture, request):
        suite = request.getfixturevalue(fixture)
        attacker = FillsEveryField(value)
        sim = ProtocolSim.new(scheme, suite, seed="foreign")
        report = attack_success_rate(attacker, sim, trials=3)
        assert (report.wins, report.queries) == (0, {})
        challenges = [SCHEMES[scheme].sample_challenge(suite, Random(k)) for k in range(3)]
        matrix = build_summary_matrix(attacker, sim, ["f0", "f1"], challenges)
        assert matrix.shape == (2, 3) and matrix.ones() == 0

    def test_unanswerable_scl_query(self):
        # At p = 5 one of the scalars 1..4 meets x*r + w = 0 for most scl
        # commitments; the honest prover's restart ends the oracle session.
        suite = transparent_suite(5)
        sim = ProtocolSim.new(SchemeId.SCL, suite, q=4)
        report = attack_success_rate(AsksEveryScalar(), sim, trials=20)
        assert (report.wins, report.trials, report.queries) == (0, 20, {})
        challenges = [(suite.scalar(k),) for k in range(1, 5)]
        matrix = build_summary_matrix(AsksEveryScalar(), sim, [f"z{i}" for i in range(5)], challenges)
        assert matrix.shape == (5, 4) and matrix.ones() == 0

    def test_scl_restart_ends_one_oracle_session(self):
        suite = transparent_suite(5)
        kp = keygen(SchemeId.SCL, suite, Random("restart"))
        oracle = HonestProverOracle(SchemeId.SCL, kp, limit=40, seed="restart")
        restarts = 0
        for i in range(40):
            oracle.begin()
            try:
                oracle.finish((suite.scalar(i % 4 + 1),))
            except ProtocolViolation as exc:
                assert str(exc) == "peer error: restart"
                restarts += 1
        # Each session after a restart was begun and charged.
        assert restarts and oracle.calls == 40

    def test_single_shot_inverter(self, t101):
        rng = Random("forfeit")
        P = t101.random_g1(rng, nonidentity=True)
        y = t101.random_g2(rng, nonidentity=True)
        with pytest.raises(InversionFailed, match="rejected"):
            owfid_inverter(FinishFirst(), P, y, t101, mode="single-shot", rng=rng)
