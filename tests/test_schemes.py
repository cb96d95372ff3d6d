import hashlib
import random
import re
from dataclasses import fields, replace

import pytest

from pairid import schemes, tate
from pairid.algebra import KIND_BITS, KIND_G1, KIND_ZP, DegenerateSuite, Scalar, transparent_suite
from pairid.schemes import (
    MAX_RESTARTS,
    RESTART,
    SCHEMES,
    BadChallengeLength,
    IdentityChallenge,
    OwfidKeyPair,
    ProtocolViolation,
    ProverMachine,
    SchemeId,
    SclKeyPair,
    VerifierMachine,
    ZeroChallenge,
    ZeroExponent,
    blsid_verify_point,
    default_scheme_params,
    hls_commit,
    hls_keygen,
    hls_respond,
    hls_verify,
    keygen,
    owfid_commit,
    owfid_keygen,
    owfid_keypair,
    owfid_respond,
    owfid_verify,
    replay_decision,
    run_session,
    scl_commit,
    scl_keygen,
    scl_respond,
    scl_verify,
    HlsKeyPair,
)
from pairid.records import save_key, save_transcript
from pairid.signatures import BbKeyPair, ExpKeyPair, bb_sign, bb_verify, bls_sign, bls_verify
from pairid.tate import TateBackend, suite_from_curve_params
from pairid.wire import TAG_CHALLENGE, TAG_ERROR

from test_tate import REAL_GEN, REAL_H, REAL_P, REAL_Q

ALL_SCHEMES = list(SchemeId)


@pytest.fixture(scope="module")
def real():
    return suite_from_curve_params(REAL_Q, REAL_P, REAL_H, REAL_GEN)


class FakeRng:
    """Plays back a queue of randrange results."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


# -- worked vectors mod 11 (recomputed in integer arithmetic; see oracles) -----


class TestWorkedVectors:
    def test_cdhid(self, t11):
        kp = ExpKeyPair(t11, t11.scalar(4), t11.g1_from_int(4))
        ops = SCHEMES[SchemeId.CDHID]
        h = t11.g1_from_int(3)
        (sigma,) = ops.respond(kp, None, (h,), None)
        assert sigma == t11.g1_from_int(1)  # 3 * 4 = 12 = 1 (mod 11)
        assert ops.verify(kp.public(), (), (h,), (sigma,))
        assert not ops.verify(kp.public(), (), (h,), (sigma * t11.g1,))

    def test_blsid(self, t11):
        kp = ExpKeyPair(t11, t11.scalar(4), t11.g1_from_int(4))
        params = default_scheme_params(t11)
        assert params.n == 4
        message = (7).to_bytes(1, "big")
        sigma = bls_sign(kp, message)
        assert sigma == t11.g1_from_int(6)  # H(7) = g^7, 7 * 4 = 28 = 6
        assert bls_verify(kp.public(), message, sigma)
        assert not bls_verify(kp.public(), (8).to_bytes(1, "big"), sigma)

    def test_blsid_challenge_length(self, t11):
        kp = ExpKeyPair(t11, t11.scalar(4), t11.g1_from_int(4))
        for message, why in [(b"\x00\x07", "expected 1 bytes for 4 bits"), (b"\x10", "does not fit in 4 bits")]:
            prover = ProverMachine(SchemeId.BLSID, kp)
            prover.start()
            with pytest.raises(BadChallengeLength, match=why):
                prover.on_challenge((message,))

    def test_blsid_point_form(self, t11):
        kp = ExpKeyPair(t11, t11.scalar(4), t11.g1_from_int(4))
        for k in range(11):
            h = t11.g1_from_int(k)
            assert blsid_verify_point(kp.public(), h, h ** 4)
            if k:
                assert not blsid_verify_point(kp.public(), h, h ** 5)

    def test_sdhid_with_redraw(self):
        t11 = transparent_suite(11, counted=True)
        kp = BbKeyPair(t11, t11.scalar(2), t11.scalar(3), t11.g1_from_int(2), t11.g1_from_int(3), t11.g2)
        m = t11.scalar(4)
        # r = 9 collides: 2 + 4 + 3*9 = 33 = 0 (mod 11); the next draw lands
        sigma, r = bb_sign(kp, m, FakeRng([9, 5]))
        assert r == 5
        assert t11.counter.redraws == 1
        assert sigma == t11.g1_from_int(10)  # 1/(2 + 4 + 15) = 1/10 = 10
        assert bb_verify(kp.public(), m, sigma, r)
        assert not bb_verify(kp.public(), m, sigma, r + 1)

    def test_owfid(self, t11):
        kp = OwfidKeyPair(
            t11,
            P=t11.g1_from_int(2),
            y=t11.g2_from_int(5),
            Q=t11.g1_from_int(3),
            s=t11.scalar(4),
            v=t11.g2_from_int(7),
        )
        # key equation: v = (e(P, Q) * y^s)^-1 = g2^-(2*3 + 5*4) = g2^7
        assert (t11.pairing(kp.P, kp.Q) * kp.y ** kp.s).inverse() == kp.v
        state = (t11.g1_from_int(1), t11.scalar(2))
        x = t11.pairing(kp.P, state[0]) * kp.y ** state[1]
        assert x == t11.g2_from_int(1)
        for m, expect_T, expect_a in [(3, 10, 3), (5, 5, 0)]:
            T, a = owfid_respond(kp, state, t11.scalar(m))
            assert T == t11.g1_from_int(expect_T)
            assert a == expect_a
            assert owfid_verify(kp.public(), x, t11.scalar(m), T, a)
            assert not owfid_verify(kp.public(), x, t11.scalar(m), T, a + 1)

    def test_scl(self, t11):
        kp = SclKeyPair(t11, t11.g1, t11.scalar(4), t11.g1_from_int(4), t11.g2)
        tau = kp.g ** 2
        sigma = scl_respond(kp, t11.scalar(2), t11.scalar(3))
        assert sigma == t11.g1_from_int(4)  # 1/(4*3 + 2) = 1/3 = 4
        assert scl_verify(kp.public(), tau, t11.scalar(3), sigma)
        assert not scl_verify(kp.public(), tau, t11.scalar(3), sigma * t11.g1)
        # 4*1 + 7 = 11 = 0: this (commitment, challenge) pair has no answer
        with pytest.raises(ZeroExponent):
            scl_respond(kp, t11.scalar(7), t11.scalar(1))

    def test_hls(self, t11):
        kp = HlsKeyPair(
            t11,
            P=t11.g1_from_int(2),
            Q=t11.g1_from_int(2),
            z=t11.g2_from_int(4),
            v=t11.g2_from_int(4),
        )
        w = kp.z ** 5
        assert w == t11.g2_from_int(9)
        sigma = hls_respond(kp, t11.scalar(5), t11.scalar(2))
        assert sigma == t11.g1_from_int(3)  # 2*5 + 2*2 = 14 = 3
        assert hls_verify(kp.public(), w, t11.scalar(2), sigma)
        assert not hls_verify(kp.public(), w, t11.scalar(2), sigma * t11.g1)


def key_equation_holds(kp) -> bool:
    """kp's key equation in pairing form; owfid's is owfid_keypair."""
    suite, g = kp.suite, kp.suite.g1
    if isinstance(kp, OwfidKeyPair):
        return not (kp.P.is_identity or kp.y.is_identity) and owfid_keypair(suite, kp.P, kp.y, kp.Q, kp.s).v == kp.v
    if isinstance(kp, SclKeyPair):
        return not kp.g.is_identity and kp.v == kp.g ** kp.x and kp.z == suite.pairing(kp.g, kp.g)
    if isinstance(kp, HlsKeyPair):
        return not kp.P.is_identity and kp.z == suite.pairing(kp.P, kp.P) and kp.v == suite.pairing(kp.P, kp.Q)
    if isinstance(kp, BbKeyPair):
        return kp.u == g ** kp.x and kp.v == g ** kp.y and kp.z == suite.pairing(g, g)
    return kp.v == g ** kp.x


# sha256 over the secret key records that keygen writes for every scheme with
# seeds pin:<scheme>:0 and pin:<scheme>:1, as they were when keygen still
# paired: working in the exponent must not change a byte of them.
_KEY_RECORD_DIGESTS = {
    "t1009": "5a1610c3cc21989822cb99fd1a5a89d219900e4e105dc464feeeb35201267a2f",
    "c523": "cb397cdd9163de8002859dc38e9442c639aef9d42c30aa0856cccf7e2030f248",
    "real": "e2d593698837784f24b0e555336dfad703bc65237e23b65b91cf9b696a47da32",
}

# sha256 over the transcripts that run_session saves for every scheme, one key
# per scheme (seed pin:<scheme>:0) and sessions seeded pin:<scheme>:0 and
# pin:<scheme>:1, as they were when the owfid prover still paired e(P, R):
# committing in the exponent must not change a byte of them.  The first owfid
# commitment runs cold and the second on P's comb.
_TRANSCRIPT_DIGESTS = {
    "t1009": "fe298e7362a7dfa4df948a84c6b0c68357d304e5fc539a1a1d471f8fa555f0bd",
    "c523": "0af2b09661939a64e0c62e8c085319b0f8fb24239bcdf5187f0e59cff79347e8",
    "real": "de53ff1dc621a877418c0e87027840c7a2ff2d57256976578b0a8aa9e0bd3591",
}


class TestKeygen:
    def test_dispatch_types(self, t11, rng):
        assert isinstance(keygen(SchemeId.BLSID, t11, rng), ExpKeyPair)
        assert isinstance(keygen(SchemeId.CDHID, t11, rng), ExpKeyPair)
        assert isinstance(keygen(SchemeId.SDHID, t11, rng), BbKeyPair)
        assert isinstance(keygen("owfid", t11, rng), OwfidKeyPair)
        assert isinstance(keygen("scl", t11, rng), SclKeyPair)
        assert isinstance(keygen("hls", t11, rng), HlsKeyPair)

    def test_public_halves_drop_secrets(self, t11, rng):
        secret_names = {
            SchemeId.BLSID: ("x",),
            SchemeId.CDHID: ("x",),
            SchemeId.SDHID: ("x", "y"),
            SchemeId.OWFID: ("Q", "s"),
            SchemeId.SCL: ("x",),
            SchemeId.HLS: ("Q",),
        }
        for scheme, names in secret_names.items():
            pk = keygen(scheme, t11, rng).public()
            assert all(getattr(pk, name) is None for name in names)

    @pytest.mark.parametrize("fixture", ["t1009", "c59", "c83", "c523", "real"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_key_equations(self, scheme, fixture, request):
        suite = request.getfixturevalue(fixture)
        for i in range(1 if fixture == "real" else 8):
            assert key_equation_holds(keygen(scheme, suite, random.Random(f"equation:{i}")))

    @pytest.mark.parametrize("fixture", ["c523", "real"])
    def test_no_pairing(self, fixture, request, monkeypatch):
        suite = request.getfixturevalue(fixture)

        def refuse(*args, **kwargs):
            raise AssertionError("keygen paired")

        for name in ("pair", "pair_equal", "pair_equal_hashed"):
            monkeypatch.setattr(TateBackend, name, refuse)
        monkeypatch.setattr(tate, "tate_pairing", refuse)
        for gen in (owfid_keygen, scl_keygen, hls_keygen):
            for i in range(3):
                gen(suite, random.Random(f"no pairing:{i}"))

    def test_zero_draws_are_redrawn(self, t11):
        # The draws of the worked vectors above, each redrawn element first drawn as 0.
        o = owfid_keygen(t11, FakeRng([0, 2, 0, 5, 3, 4]))
        assert (o.P, o.y, o.Q, o.s, o.v) == (t11.g1_from_int(2), t11.g2_from_int(5), t11.g1_from_int(3), 4, t11.g2_from_int(7))
        s = scl_keygen(t11, FakeRng([0, 1, 4]))
        assert (s.g, s.x, s.v, s.z) == (t11.g1, 4, t11.g1_from_int(4), t11.g2)
        h = hls_keygen(t11, FakeRng([0, 2, 2]))
        assert (h.P, h.Q, h.z, h.v) == (t11.g1_from_int(2), t11.g1_from_int(2), t11.g2_from_int(4), t11.g2_from_int(4))

    @pytest.mark.parametrize("fixture", ["t1009", "c523", "real"])
    def test_key_records_pinned(self, fixture, request, tmp_path):
        suite = request.getfixturevalue(fixture)
        params = default_scheme_params(suite)
        digest = hashlib.sha256()
        for scheme in ALL_SCHEMES:
            for i in range(2):
                path = tmp_path / f"{scheme.value}{i}.key"
                save_key(path, scheme, keygen(scheme, suite, random.Random(f"pin:{scheme.value}:{i}")), params)
                digest.update(path.read_bytes())
        assert digest.hexdigest() == _KEY_RECORD_DIGESTS[fixture]


def out_of_domain(kind, suite) -> list:
    """(challenge value, error class, message) for each way a challenge of kind leaves its domain."""
    if kind == KIND_BITS:
        width, n = suite.width(KIND_BITS), suite.n
        return [
            (bytes(width + 1), BadChallengeLength, f"expected {width} bytes for {n} bits"),
            ((1 << n).to_bytes(width, "big"), BadChallengeLength, f"value does not fit in {n} bits"),
        ]
    if kind == KIND_G1:
        return [(suite.g1_from_int(0), IdentityChallenge, "challenge must be a non-identity element")]
    return [(suite.scalar(0), ZeroChallenge, "scalar challenges are drawn from Z_p^*")]


class TestChallengeDomain:
    """Each role refuses a challenge outside its scheme's domain, with the kind's own error."""

    @pytest.mark.parametrize("fixture", ["t1009", "c59"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_role_refuses(self, scheme, fixture, request):
        suite = request.getfixturevalue(fixture)
        ops = SCHEMES[scheme]
        kp = keygen(scheme, suite, random.Random(f"domain:{scheme.value}"))
        honest = run_session(scheme, kp, suite, seed="domain")
        (kind,) = ops.challenge_fields
        for value, error, message in out_of_domain(kind, suite):
            prover = ProverMachine(scheme, kp, seed="domain")
            prover.start()
            with pytest.raises(error, match=re.escape(message)):
                prover.on_challenge((value,))
            verifier = VerifierMachine(scheme, kp.public(), forced_challenge=(value,), seed="domain")
            if ops.three_message:
                verifier.on_commitment(honest.commitment)
            else:
                verifier.start()
            with pytest.raises(error, match=re.escape(message)):
                verifier.on_response(honest.response)
            with pytest.raises(error, match=re.escape(message)):
                replay_decision(replace(honest, challenge=(value,)), kp.public())


class TestSessions:
    @pytest.mark.parametrize("fixture", ["t1009", "c523", "real"])
    def test_transcripts_pinned(self, fixture, request, tmp_path):
        suite = request.getfixturevalue(fixture)
        params = default_scheme_params(suite)
        digest = hashlib.sha256()
        for scheme in ALL_SCHEMES:
            kp = keygen(scheme, suite, random.Random(f"pin:{scheme.value}:0"))
            for i in range(2):
                path = tmp_path / f"{scheme.value}{i}.transcript"
                save_transcript(path, run_session(scheme, kp, suite, seed=f"pin:{scheme.value}:{i}"), suite, params)
                digest.update(path.read_bytes())
        assert digest.hexdigest() == _TRANSCRIPT_DIGESTS[fixture]

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_honest_sessions_accept_transparent(self, scheme, t1009):
        kp = keygen(scheme, t1009, random.Random(7))
        for seed in range(10):
            t = run_session(scheme, kp, t1009, seed=seed)
            assert t.decision
            assert replay_decision(t, kp.public())

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_honest_sessions_accept_curve(self, scheme, c59):
        kp = keygen(scheme, c59, random.Random(7))
        for seed in range(3):
            assert run_session(scheme, kp, c59, seed=seed).decision

    def test_session_determinism(self, t1009):
        kp = keygen(SchemeId.OWFID, t1009, random.Random(3))
        a = run_session(SchemeId.OWFID, kp, t1009, seed="fixed")
        b = run_session(SchemeId.OWFID, kp, t1009, seed="fixed")
        assert (a.commitment, a.challenge, a.response) == (b.commitment, b.challenge, b.response)
        c = run_session(SchemeId.OWFID, kp, t1009, seed="other")
        assert (a.commitment, a.challenge) != (c.commitment, c.challenge)

    def test_scl_restarts_and_still_accepts(self):
        # At p = 5 roughly one session in five needs a fresh commitment.
        suite = transparent_suite(5)
        kp = scl_keygen(suite, random.Random(1))
        outcomes = [run_session(SchemeId.SCL, kp, suite, seed=seed) for seed in range(60)]
        assert all(t.decision for t in outcomes)
        assert any(t.restarts > 0 for t in outcomes)
        assert any(t.restarts == 0 for t in outcomes)

    def test_restart_keeps_costs_of_final_run_only(self):
        suite = transparent_suite(5, counted=True)
        kp = scl_keygen(suite, random.Random(1))
        baseline = None
        for seed in range(60):
            suite.counter.reset()
            t = run_session(SchemeId.SCL, kp, suite, seed=seed)
            snap = suite.counter.snapshot()
            if baseline is None:
                baseline = snap
            assert snap == baseline  # identical whether or not a restart happened
            if t.restarts:
                assert suite.counter.redraws >= 1

    def test_verifier_restart_limit(self, t1009):
        kp = keygen(SchemeId.BLSID, t1009, random.Random(2))
        verifier = VerifierMachine(SchemeId.BLSID, kp.public(), seed=0)
        verifier.open()
        for k in range(1, MAX_RESTARTS + 1):
            # Each restart is answered with a freshly drawn challenge.
            [(tag, challenge)] = verifier.receive(TAG_ERROR, RESTART)
            assert tag == TAG_CHALLENGE and challenge == verifier.challenge
            assert verifier.restarts == k and verifier.state == "challenged"
        with pytest.raises(ProtocolViolation, match="peer restarted too many times"):
            verifier.receive(TAG_ERROR, RESTART)

    def test_prover_restart_limit(self, monkeypatch, t1009):
        def unanswerable(kp, w, r):
            raise ZeroExponent("x*r + w = 0")

        monkeypatch.setattr(schemes, "scl_respond", unanswerable)
        kp = scl_keygen(t1009, random.Random(1))
        with pytest.raises(DegenerateSuite, match="session restart limit hit"):
            run_session(SchemeId.SCL, kp, t1009, seed=0)

    def test_tampered_transcript_replays_false(self, t1009):
        kp = keygen(SchemeId.HLS, t1009, random.Random(5))
        t = run_session(SchemeId.HLS, kp, t1009, seed=1)
        t.response = (t.response[0] * t1009.g1,)
        assert not replay_decision(t, kp.public())


class TestMachines:
    def test_two_message_flow(self, t11):
        kp = keygen(SchemeId.CDHID, t11, random.Random(2))
        prover = ProverMachine(SchemeId.CDHID, kp, rng=random.Random(3))
        verifier = VerifierMachine(SchemeId.CDHID, kp.public(), rng=random.Random(4))
        assert prover.start() is None
        challenge = verifier.start()
        response = prover.on_challenge(challenge)
        assert verifier.on_response(response)

    def test_three_message_flow(self, t11):
        kp = keygen(SchemeId.SCL, t11, random.Random(2))
        prover = ProverMachine(SchemeId.SCL, kp, rng=random.Random(3))
        verifier = VerifierMachine(SchemeId.SCL, kp.public(), rng=random.Random(4))
        commitment = prover.start()
        challenge = verifier.on_commitment(commitment)
        try:
            response = prover.on_challenge(challenge)
        except ZeroExponent:
            pytest.skip("unlucky draw for this fixed seed")
        assert verifier.on_response(response)

    def test_forced_challenge(self, t11):
        kp = keygen(SchemeId.SDHID, t11, random.Random(2))
        forced = (t11.scalar(6),)
        verifier = VerifierMachine(SchemeId.SDHID, kp.public(), forced_challenge=forced)
        assert verifier.start() == forced

    def test_out_of_order_messages(self, t11):
        kp = keygen(SchemeId.OWFID, t11, random.Random(2))
        prover = ProverMachine(SchemeId.OWFID, kp)
        with pytest.raises(ProtocolViolation):
            prover.on_challenge((t11.scalar(1),))
        prover.start()
        with pytest.raises(ProtocolViolation):
            prover.start()
        verifier = VerifierMachine(SchemeId.OWFID, kp.public())
        with pytest.raises(ProtocolViolation):
            verifier.start()  # three-message scheme: must wait for commitment
        with pytest.raises(ProtocolViolation):
            verifier.on_response((t11.g1, t11.scalar(1)))

    def test_two_message_has_no_commitment(self, t11):
        kp = keygen(SchemeId.CDHID, t11, random.Random(2))
        verifier = VerifierMachine(SchemeId.CDHID, kp.public())
        with pytest.raises(ProtocolViolation):
            verifier.on_commitment(())

    def test_wrong_field_counts(self, t11):
        kp = keygen(SchemeId.OWFID, t11, random.Random(2))
        prover = ProverMachine(SchemeId.OWFID, kp, rng=random.Random(0))
        prover.start()
        with pytest.raises(ProtocolViolation):
            prover.on_challenge((t11.scalar(1), t11.scalar(2)))
        verifier = VerifierMachine(SchemeId.OWFID, kp.public(), rng=random.Random(0))
        with pytest.raises(ProtocolViolation):
            verifier.on_commitment((t11.g2, t11.g2))
        # The right count, but an int, a str, or a value of another suite.
        other = transparent_suite(13)
        for scheme in ALL_SCHEMES:
            ops = SCHEMES[scheme]
            kp = keygen(scheme, t11, random.Random(2))
            for value in (5, "x", other.g1, other.g2, other.scalar(1)):
                prover = ProverMachine(scheme, kp, rng=random.Random(0))
                prover.start()
                with pytest.raises(ProtocolViolation):
                    prover.on_challenge((value,))
                verifier = VerifierMachine(scheme, kp.public(), rng=random.Random(0))
                if ops.three_message:
                    with pytest.raises(ProtocolViolation):
                        verifier.on_commitment((value,) * len(ops.commitment_fields))
                    verifier.on_commitment(prover.commitment)
                else:
                    verifier.start()
                with pytest.raises(ProtocolViolation):
                    verifier.on_response((value,) * len(ops.response_fields))

    def test_registry_shapes(self, t11, rng):
        for scheme, ops in SCHEMES.items():
            ch = ops.sample_challenge(t11, rng)
            assert len(ch) == len(ops.challenge_fields)
            assert ops.three_message == (ops.commit is not None)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_keypair_declares_its_layout(self, scheme, t11):
        # PUBLIC and SECRET name every field after the suite, with its kind.
        ops = SCHEMES[scheme]
        kp = ops.keygen(t11, random.Random(3))
        assert type(kp) is ops.keypair
        layout = ops.keypair.PUBLIC + ops.keypair.SECRET
        assert sorted(name for name, _ in layout) == sorted(f.name for f in fields(kp) if f.name != "suite")
        for name, kind in layout:
            value = getattr(kp, name)
            assert (KIND_ZP if isinstance(value, Scalar) else value.kind) == kind
        pk = kp.public()
        assert kp.has_secret and not pk.has_secret
        assert pk.suite is kp.suite
        assert all(getattr(pk, name) is getattr(kp, name) for name, _ in ops.keypair.PUBLIC)


class TestOwfidCommit:
    """owfid_commit takes e(P, R) as pairing_from_int(P, rho) for R = g^rho."""

    @pytest.mark.parametrize("fixture", ["t1009", "c59", "c523", "real"])
    def test_equals_the_pairing_form(self, fixture, request):
        suite = request.getfixturevalue(fixture)
        kp = owfid_keygen(suite, random.Random(f"commit {fixture}"))
        for i in range(3):  # the first commitment runs cold, the later ones on P's comb
            got, draws = random.Random(i), random.Random(i)
            state, (x,) = owfid_commit(kp, got)
            R, r = suite.random_g1(draws), suite.random_scalar(draws)
            assert state == (R, r) and x == suite.pairing(kp.P, R) * kp.y**r
            assert got.getstate() == draws.getstate()

    @pytest.mark.parametrize("fixture", ["c523", "real"])
    def test_warm_commit_pairs_nothing(self, fixture, request, monkeypatch):
        suite = request.getfixturevalue(fixture)
        kp = owfid_keygen(suite, random.Random(f"warm commit {fixture}"))
        for i in range(2):  # P's second use builds its lines and its comb
            owfid_commit(kp, random.Random(i))
        expect = owfid_commit(kp, random.Random("warm"))

        def refuse(*args, **kwargs):
            raise AssertionError("the commitment paired")

        for name in ("tate_pairing", "_miller_at", "_miller_stored", "_final_exp"):
            monkeypatch.setattr(tate, name, refuse)
        assert owfid_commit(kp, random.Random("warm")) == expect


class TestCosts:
    def test_owfid_costs_by_role(self):
        suite = transparent_suite(1009, counted=True)
        kp = owfid_keygen(suite, random.Random(1))
        run_session(SchemeId.OWFID, kp, suite, seed=2)
        snap = suite.counter.snapshot()
        assert snap["g1_exp"] == {"prover": 1, "verifier": 0}
        assert snap["g2_exp"] == {"prover": 1, "verifier": 2}
        assert snap["pairings"] == {"prover": 1, "verifier": 1}
        # bandwidth: one g2 commitment, one scalar challenge, g1 + scalar response
        assert snap["sent_elems"] == {"g1": 1, "g2": 1, "zp": 2, "nbits": 0}

    def test_commit_helpers_return_state_and_value(self, t11, rng):
        okp = owfid_keygen(t11, rng)
        (R, r), (x,) = owfid_commit(okp, rng)
        assert t11.pairing(okp.P, R) * okp.y ** r == x
        skp = scl_keygen(t11, rng)
        w, (tau,) = scl_commit(skp, rng)
        assert skp.g ** w == tau
        hkp = keygen(SchemeId.HLS, t11, rng)
        r2, (w2,) = hls_commit(hkp, rng)
        assert hkp.z ** r2 == w2

