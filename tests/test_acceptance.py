"""The binding acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
then asserts, so a red run still reports every criterion it reached.  Trial
counts, tolerances, and parameter sizes are fixed here on purpose; loosening
them is a contract change, not a tuning knob.
"""

import itertools
import math
import time
from fractions import Fraction
from random import Random

from pairid.algebra import transparent_suite
from pairid.bench import bench_all
from pairid.cli import main as cli_main
from pairid.lab import (
    FreshnessCollision,
    InversionFailed,
    OmCdhContext,
    ProbeFailed,
    ProtocolSim,
    SummaryMatrix,
    attack_success_rate,
    blsid_forgery_reduction,
    build_summary_matrix,
    cdhid_reduction,
    cdhid_reduction_game,
    heavy_row_stats,
    invert_to_ddh,
    owfid_inverter,
    probe_strategy,
    transparent_pairing_inverter,
    unreliable_inverter,
    AttackFailed,
    ScriptedBlsidAttacker,
    ScriptedCdhidAttacker,
    ScriptedOwfidAttacker,
)
from pairid.schemes import (
    SCHEMES,
    BbKeyPair,
    HlsKeyPair,
    OwfidKeyPair,
    SchemeId,
    SclKeyPair,
    blsid_verify_point,
    default_scheme_params,
    keygen,
    owfid_verify,
    run_session,
)
from pairid.session import loopback_session
from pairid.signatures import ExpKeyPair, bls_sign, bls_verify
from pairid.tate import tate_suite
from pairid.wire import TAG_NAMES, encode_payload, frame_decode, frame_encode


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _sigma(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1 - p), 1e-12) / trials)


# -- 1: every honest session accepts ------------------------------------------------


def test_c01_all_honest_sessions_accept(c59, c83):
    start = time.monotonic()
    total = failures = 0
    for suite, per_scheme in ((transparent_suite(1009), 1000), (c59, 500), (c83, 500)):
        for scheme in SchemeId:
            kp = keygen(scheme, suite, Random(f"c1:{scheme}:{suite.p}"))
            for i in range(per_scheme):
                t = run_session(scheme, kp, suite, seed=f"c1:{i}")
                total += 1
                failures += not t.decision
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60
    _report(1, "viability", ok,
            f"{total - failures}/{total} sessions accepted across six schemes x both backends, {elapsed:.1f}s")


# -- 2: measured costs equal the expected table -------------------------------------


def test_c02_cost_table_exact():
    # frozen expectations: bandwidth (g1, g2, zp, nbit) then prover and
    # verifier (exp1, exp2, pairings)
    rows = {
        SchemeId.BLSID: (1, 0, 0, 1, 1, 0, 0, 0, 0, 2),
        SchemeId.CDHID: (2, 0, 0, 0, 1, 0, 0, 0, 0, 2),
        SchemeId.SDHID: (1, 0, 2, 0, 1, 0, 0, 2, 0, 1),
        SchemeId.OWFID: (1, 1, 2, 0, 1, 1, 1, 0, 2, 1),
        SchemeId.SCL: (2, 0, 1, 0, 2, 0, 0, 1, 0, 1),
        SchemeId.HLS: (1, 1, 1, 0, 2, 1, 0, 0, 1, 1),
    }
    results = bench_all(transparent_suite(1009))
    mismatches = []
    for res in results:
        m = res.measured
        got = (m.g1, m.g2, m.zp, m.nbit, m.prover_g1_exp, m.prover_g2_exp, m.prover_pairings,
               m.verifier_g1_exp, m.verifier_g2_exp, m.verifier_pairings)
        if got != rows[res.scheme] or not res.matches:
            mismatches.append(f"{res.scheme.value}: {got}")
    cli_rc = cli_main(["bench", "--all"])
    ok = not mismatches and cli_rc == 0
    _report(2, "cost table", ok, "all six measured rows equal the expected table exactly"
            if ok else "; ".join(mismatches) + f" (cli rc {cli_rc})")


# -- 3: bilinearity and non-degeneracy ----------------------------------------------


def _bilinearity_failures(suite, trials: int, seed: str) -> int:
    rng = Random(seed)
    bad = 0
    g, e = suite.g1, suite.pairing
    base = e(g, g)
    for _ in range(trials):
        a, b, c = (rng.randrange(suite.p) for _ in range(3))
        x, y, z = g ** a, g ** b, g ** c
        if e(x, y) != base ** (a * b):
            bad += 1
        elif e(x * y, z) != e(x, z) * e(y, z):
            bad += 1
        elif e(x, y * z) != e(x, y) * e(x, z):
            bad += 1
    return bad


def _order_by_walk(suite) -> int:
    base = suite.pairing(suite.g1, suite.g1)
    acc = base
    order = 1
    while not acc.is_identity:
        acc = acc * base
        order += 1
        assert order <= suite.p + 1
    return order


def test_c03_pairing_identities_and_order(c523):
    big = transparent_suite(10007)
    bad = _bilinearity_failures(big, 1000, "c3:transparent") + _bilinearity_failures(c523, 1000, "c3:curve")
    orders = (_order_by_walk(big), _order_by_walk(c523))
    ok = bad == 0 and orders == (10007, 131)
    _report(3, "bilinearity", ok,
            f"2000/2000 random identities exact, e(g,g) has order {orders[0]} and {orders[1]} by brute force")


# -- 4: curve and transparent backends decide identically ---------------------------


def _twin(ct, tt, value):
    """Map a curve element to the transparent group with the same exponent."""
    if hasattr(value, "kind"):
        gen = tt.g1 if value.kind == "g1" else tt.g2
        return gen ** ct.discrete_log(value)
    return tt.scalar(value.value)


def _twin_keypair(scheme, kp, ct, tt):
    if scheme in (SchemeId.BLSID, SchemeId.CDHID):
        return ExpKeyPair(tt, _twin(ct, tt, kp.x), _twin(ct, tt, kp.v))
    if scheme == SchemeId.SDHID:
        return BbKeyPair(tt, _twin(ct, tt, kp.x), _twin(ct, tt, kp.y),
                         _twin(ct, tt, kp.u), _twin(ct, tt, kp.v), _twin(ct, tt, kp.z))
    if scheme == SchemeId.OWFID:
        return OwfidKeyPair(tt, _twin(ct, tt, kp.P), _twin(ct, tt, kp.y),
                            _twin(ct, tt, kp.Q), _twin(ct, tt, kp.s), _twin(ct, tt, kp.v))
    if scheme == SchemeId.SCL:
        return SclKeyPair(tt, _twin(ct, tt, kp.g), _twin(ct, tt, kp.x),
                          _twin(ct, tt, kp.v), _twin(ct, tt, kp.z))
    return HlsKeyPair(tt, _twin(ct, tt, kp.P), _twin(ct, tt, kp.Q),
                      _twin(ct, tt, kp.z), _twin(ct, tt, kp.v))


def _sweep_decisions(scheme, ct, tt):
    """Exhaustive (challenge, response) sweep; returns (pairs, mismatches, accepts)."""
    p = ct.p
    kp_c = keygen(scheme, ct, Random(f"c4:{scheme}:{ct.p}"))
    kp_t = _twin_keypair(scheme, kp_c, ct, tt)
    ops = SCHEMES[scheme]

    if ops.three_message:
        _, co_c = ops.commit(kp_c, Random(f"c4commit:{scheme}"))
        co_t = tuple(_twin(ct, tt, v) for v in co_c)
    else:
        co_c = co_t = ()

    if scheme == SchemeId.CDHID:
        challenges = [(ct.g1 ** k,) for k in range(1, p)]
    else:
        challenges = [(ct.scalar(k),) for k in range(1, p)]

    response_space = []
    for kind in ops.response_fields:
        if kind == "g1":
            response_space.append([ct.g1 ** k for k in range(p)])
        else:
            response_space.append([ct.scalar(k) for k in range(p)])

    pairs = mismatches = accepts = 0
    for ch_c in challenges:
        ch_t = tuple(_twin(ct, tt, v) for v in ch_c)
        for re_c in itertools.product(*response_space):
            re_t = tuple(_twin(ct, tt, v) for v in re_c)
            on_curve = ops.verify(kp_c.public(), co_c, ch_c, re_c)
            plain = ops.verify(kp_t.public(), co_t, ch_t, re_t)
            pairs += 1
            mismatches += on_curve != plain
            accepts += on_curve
    return pairs, mismatches, accepts


def _sweep_blsid_points(ct, tt):
    kp_c = keygen(SchemeId.BLSID, ct, Random(f"c4:blsid:{ct.p}"))
    kp_t = _twin_keypair(SchemeId.BLSID, kp_c, ct, tt)
    pairs = mismatches = accepts = 0
    for hk in range(ct.p):
        for sk in range(ct.p):
            h_c, s_c = ct.g1 ** hk, ct.g1 ** sk
            on_curve = blsid_verify_point(kp_c.public(), h_c, s_c)
            plain = blsid_verify_point(kp_t.public(), tt.g1 ** hk, tt.g1 ** sk)
            pairs += 1
            mismatches += on_curve != plain
            accepts += on_curve
    return pairs, mismatches, accepts


def test_c04_cross_backend_agreement(c59, c83):
    total = bad = accepted = 0
    for ct in (c59, c83):
        tt = transparent_suite(ct.p)
        for scheme in SchemeId:
            if scheme == SchemeId.BLSID:
                pairs, mism, acc = _sweep_blsid_points(ct, tt)
            else:
                pairs, mism, acc = _sweep_decisions(scheme, ct, tt)
            assert acc > 0, f"{scheme}: sweep never accepted, comparison would be vacuous"
            total += pairs
            bad += mism
            accepted += acc
    _report(4, "cross-backend agreement", bad == 0,
            f"{total} exhaustive decision pairs at p=5 and p=7, {bad} mismatches ({accepted} accepts)")


# -- 5: the pairing decides DDH -----------------------------------------------------


def test_c05_ddh_exhaustive():
    suite = transparent_suite(11)
    g = suite.g1
    wrong = 0
    for a in range(11):
        for b in range(11):
            for c in range(11):
                if suite.ddh_solve(g, g ** a, g ** b, g ** c) != (a * b % 11 == c):
                    wrong += 1
    _report(5, "ddh solver", wrong == 0, f"1331/1331 exhaustive tuples decided correctly")


# -- 6: heavy rows carry at least half the successes --------------------------------


def _mass_ok(row_sums, cols):
    """(production mass, oracle mass) for one matrix, via its row sums."""
    rows = len(row_sums)
    total = sum(row_sums)
    heavy = [i for i, rs in enumerate(row_sums) if 2 * rows * rs >= total]
    oracle = Fraction(sum(row_sums[i] for i in heavy), total) if total else Fraction(1)
    return oracle


def test_c06_heavy_row_mass():
    checked = skipped = bad = 0
    # direct enumeration wherever the full matrix space fits
    for rows in range(1, 5):
        for cols in range(1, 7):
            if rows * cols > 16:
                continue
            patterns = [(bits, bin(bits).count("1")) for bits in range(2 ** cols)]
            for combo in itertools.product(patterns, repeat=rows):
                total = sum(ones for _, ones in combo)
                if total * cols < 2 * rows * cols:  # density below 2/cols: no admissible eps
                    skipped += 1
                    continue
                bits = [[(row >> (cols - 1 - j)) & 1 for j in range(cols)] for row, _ in combo]
                stats = heavy_row_stats(SummaryMatrix(list(range(rows)), list(range(cols)), bits))
                oracle = _mass_ok([ones for _, ones in combo], cols)
                checked += 1
                if stats.heavy_mass < 0.5 or abs(stats.heavy_mass - float(oracle)) > 1e-12:
                    bad += 1
    # the three shapes too large to enumerate directly: the mass is a function
    # of the row-sum multiset alone, so enumerating multisets is still exhaustive
    for rows, cols in ((3, 6), (4, 5), (4, 6)):
        for sums in itertools.combinations_with_replacement(range(cols + 1), rows):
            total = sum(sums)
            if total < 2 * rows:
                skipped += 1
                continue
            bits = [[1] * rs + [0] * (cols - rs) for rs in sums]
            stats = heavy_row_stats(SummaryMatrix(list(range(rows)), list(range(cols)), bits))
            oracle = _mass_ok(list(sums), cols)
            checked += 1
            if stats.heavy_mass < 0.5 or abs(stats.heavy_mass - float(oracle)) > 1e-12:
                bad += 1

    # sampled verification at 64x64
    rng = Random("c6:sampled")
    sampled = 0
    for level in (0.05, 0.1, 0.3, 0.5, 0.8):
        for _ in range(40):
            bits = [[int(rng.random() < level) for _ in range(64)] for _ in range(64)]
            if sum(map(sum, bits)) < 128:
                continue
            stats = heavy_row_stats(SummaryMatrix(list(range(64)), list(range(64)), bits))
            sampled += 1
            if stats.heavy_mass < 0.5:
                bad += 1
    # plus one matrix built from real attack outcomes
    sim = ProtocolSim.new(SchemeId.CDHID, transparent_suite(1009), seed="c6", q=0)
    challenges = [(sim.suite.g1 ** k,) for k in range(1, 65)]
    matrix = build_summary_matrix(ScriptedCdhidAttacker(0.3, queries=0), sim,
                                  [f"c6:{i}" for i in range(64)], challenges)
    sampled += 1
    if heavy_row_stats(matrix).heavy_mass < 0.5:
        bad += 1
    _report(6, "heavy rows", bad == 0,
            f"{checked} exhaustive instances up to 4x6 plus {sampled} sampled 64x64 matrices, all with mass >= 1/2")


# -- 7: probing finds two accepting transcripts on one commitment -------------------


def test_c07_probing_strategy():
    start = time.monotonic()
    eps, trials = 0.5, 500
    sim = ProtocolSim.new(SchemeId.OWFID, transparent_suite(101), seed="c7", q=0)
    attacker = ScriptedOwfidAttacker(eps)
    pk = sim.kp.public()
    wins = violations = 0
    for i in range(trials):
        try:
            rep = probe_strategy(attacker, sim, eps=eps, rng=Random(f"c7:{i}"))
        except ProbeFailed:
            continue
        wins += 1
        t1, t2 = rep.first, rep.second
        good = (t1.decision and t2.decision
                and t1.commitment == t2.commitment
                and t1.challenge != t2.challenge
                and owfid_verify(pk, t1.commitment[0], t1.challenge[0], *t1.response)
                and owfid_verify(pk, t2.commitment[0], t2.challenge[0], *t2.response))
        violations += not good
    bound = 0.5 * (1 - 1 / math.e) ** 2
    floor = bound - 3 * _sigma(bound, trials)
    rate = wins / trials
    elapsed = time.monotonic() - start
    ok = violations == 0 and rate >= floor and elapsed < 120
    _report(7, "probing", ok,
            f"rate {rate:.3f} >= {floor:.4f} over {trials} runs, postconditions exact, {elapsed:.1f}s")


# -- 8: the inverter turns the attacker into preimages ------------------------------


def test_c08_inverter_success_rates():
    suite = transparent_suite(101)
    attacker = ScriptedOwfidAttacker(0.5)
    trials = 500
    rates = {}
    for mode, bound in (("iterated", 3 / 16), ("single-shot", 0.25 / 9)):
        wins = 0
        for i in range(trials):
            rng = Random(f"c8:{mode}:{i}")
            P = suite.random_g1(rng, nonidentity=True)
            y = suite.random_g2(rng, nonidentity=True)
            try:
                Z = owfid_inverter(attacker, P, y, suite, mode=mode, eps=0.5, rng=rng)
            except InversionFailed:
                continue
            assert suite.pairing(P, Z) == y
            wins += 1
        rates[mode] = (wins / trials, bound - 3 * _sigma(bound, trials))
    ok = all(rate >= floor for rate, floor in rates.values())
    _report(8, "extractor/inverter", ok,
            ", ".join(f"{m}: {r:.3f} >= {f:.4f}" for m, (r, f) in rates.items()) + f" over {trials} runs each")


# -- 9: the one-more wrapper neither loses success nor overspends queries -----------


def test_c09_one_more_cdh_wrapper():
    suite = transparent_suite(101)
    q = 2
    attacker = ScriptedCdhidAttacker(0.5, queries=q)
    trials = 500
    sim = ProtocolSim.new(SchemeId.CDHID, suite, seed="c9", q=q)
    measured = attack_success_rate(attacker, sim, trials=trials, seed="c9:measure").advantage
    report = cdhid_reduction_game(attacker, suite, q=q, trials=trials, seed="c9:reduce")
    mid = (measured + report.advantage) / 2
    gap = abs(report.advantage - measured)
    limit = 3 * math.sqrt(2) * _sigma(mid, trials)

    overspent = 0
    for i in range(100):
        rng = Random(f"c9:budget:{i}")
        ctx = OmCdhContext(suite, suite.random_scalar(rng, nonzero=True), q=q, rng=rng)
        try:
            cdhid_reduction(attacker, ctx, rng)
        except AttackFailed:
            pass
        overspent += ctx.calls > q
    ok = gap <= limit and overspent == 0 and report.queries["cdh"] <= trials * q
    _report(9, "one-more-cdh", ok,
            f"reduction {report.advantage:.3f} vs attacker {measured:.3f} (|gap| {gap:.3f} <= {limit:.3f}), "
            f"oracle never queried more than q={q} times")


# -- 10: forgery freshness collisions land at one half ------------------------------


def test_c10_forgery_collision_rate():
    suite = transparent_suite(11)
    params = default_scheme_params(suite)
    assert params.n == 4
    kp = keygen(SchemeId.BLSID, suite, Random("c10:key"))
    attacker = ScriptedBlsidAttacker(n=4, queries=8)
    trials, collisions, successes, invalid = 1000, 0, 0, 0
    for i in range(trials):
        calls = []

        def sign(message, _calls=calls):
            _calls.append(message)
            return bls_sign(kp, message)

        try:
            message, sig = blsid_forgery_reduction(attacker, kp.public(), sign, params, Random(f"c10:{i}"))
        except FreshnessCollision:
            collisions += 1
            continue
        successes += 1
        if message in calls or not bls_verify(kp.public(), message, sig):
            invalid += 1
    rate = collisions / trials
    band = 3 * _sigma(0.5, trials)
    ok = abs(rate - 0.5) <= band and invalid == 0 and successes + collisions == trials
    _report(10, "collision term", ok,
            f"collision rate {rate:.3f} within {band:.3f} of 1/2; {successes}/{successes} forgeries verified fresh")


# -- 11: inversion decides DDH ------------------------------------------------------


def test_c11_inversion_to_ddh():
    t11 = transparent_suite(11)
    perfect = transparent_pairing_inverter(t11)
    y = t11.g2
    wrong = 0
    for a in range(11):
        for b in range(11):
            for c in range(11):
                got = invert_to_ddh(perfect, y, y ** a, y ** b, y ** c, t11, Random(f"c11:{a}:{b}:{c}"))
                wrong += got != (a * b % 11 == c)

    big = transparent_suite(1009)
    eps, trials = 0.5, 1000
    flaky = unreliable_inverter(big, transparent_pairing_inverter(big), eps, salt=b"c11")
    rng = Random("c11:dh")
    hits = 0
    for _ in range(trials):
        a, b = rng.randrange(1, 1009), rng.randrange(1, 1009)
        hits += invert_to_ddh(flaky, big.g2, big.g2 ** a, big.g2 ** b, big.g2 ** (a * b), big, rng)
    floor = eps ** 4 - 3 * _sigma(eps ** 4, trials)
    ok = wrong == 0 and hits / trials >= floor
    _report(11, "inversion to ddh", ok,
            f"1331/1331 exhaustive tuples with the perfect inverter; "
            f"eps-inverter hit rate {hits / trials:.3f} >= {floor:.4f} on DH tuples")


# -- 12: random guessing is accepted at the soundness floor -------------------------


def _random_of_kind(kind, suite, params, rng):
    if kind == "g1":
        return suite.random_g1(rng)
    if kind == "g2":
        return suite.random_g2(rng)
    if kind == "zp":
        return suite.random_scalar(rng)
    return rng.getrandbits(params.n).to_bytes((params.n + 7) // 8, "big")


def _random_guess_trial(scheme, pk, suite, params, rng) -> bool:
    ops = SCHEMES[scheme]
    co = tuple(_random_of_kind(k, suite, params, rng) for k in ops.commitment_fields)
    ch = ops.sample_challenge(suite, rng)
    re = tuple(_random_of_kind(k, suite, params, rng) for k in ops.response_fields)
    return ops.verify(pk, co, ch, re)


def test_c12_soundness_floor():
    suite = transparent_suite(1009)
    params = default_scheme_params(suite)
    trials = 5000
    band = 3 * _sigma(1 / 1009, trials)
    rates = {}
    bad = []
    for scheme in SchemeId:
        pk = keygen(scheme, suite, Random(f"c12:{scheme}")).public()
        rng = Random(f"c12:trials:{scheme}")
        accepts = sum(_random_guess_trial(scheme, pk, suite, params, rng) for _ in range(trials))
        rates[scheme.value] = accepts / trials
        if abs(accepts / trials - 1 / 1009) > band:
            bad.append(scheme.value)

    # no scheme rejects random guesses outright: a cheating prover's uniform
    # response satisfies each verification equation with probability about 1/p,
    # so exhibit one accepting guess per scheme at p = 5
    small = transparent_suite(5)
    small_params = default_scheme_params(small)
    missing = []
    for scheme in SchemeId:
        pk = keygen(scheme, small, Random(f"c12small:{scheme}")).public()
        rng = Random(f"c12small:trials:{scheme}")
        if not any(_random_guess_trial(scheme, pk, small, small_params, rng) for _ in range(3000)):
            missing.append(scheme.value)
    ok = not bad and not missing
    shown = ", ".join(f"{k} {v:.4f}" for k, v in rates.items())
    _report(12, "soundness floor", ok,
            f"accept rates within {band:.4f} of 1/p: {shown}; every scheme admits an accepting random guess"
            if ok else f"out of band: {bad}; no accepting guess found: {missing}")


# -- 13: accepted transcripts identify every key equally ----------------------------


def test_c13_witness_counts_equal():
    suite = transparent_suite(13)
    kp = keygen(SchemeId.OWFID, suite, Random("c13"))
    pk = kp.public()
    P, y, v = pk.P, pk.y, pk.v

    # every private key consistent with the public one: for each s there is
    # exactly one Q with (e(P,Q) * y^s)^-1 = v
    keys = []
    for s in range(13):
        for qk in range(13):
            Q = suite.g1 ** qk
            if (suite.pairing(P, Q) * y ** s).inverse() == v:
                keys.append((Q, suite.scalar(s)))
    assert len(keys) == 13
    assert any(Q == kp.Q and s == kp.s for Q, s in keys)

    dp = suite.discrete_log(P)
    dp_inv = pow(dp, -1, 13)
    transcripts = []
    for xe in range(13):
        x = suite.g2 ** xe
        for m in range(1, 13):
            for a in range(13):
                target = x * (y ** a * v ** m).inverse()
                T = suite.g1 ** (suite.discrete_log(target) * dp_inv % 13)
                assert owfid_verify(pk, x, suite.scalar(m), T, suite.scalar(a))
                transcripts.append((x, suite.scalar(m), T, suite.scalar(a)))
    assert len(transcripts) == 13 * 12 * 13

    unequal = 0
    for x, m, T, a in transcripts:
        counts = []
        for Q, s in keys:
            # the response equations force the witness; count it if it also
            # reproduces the commitment
            R = T * (Q ** m.value).inverse()
            r = a - m * s
            counts.append(int(suite.pairing(P, R) * y ** r == x))
        if len(set(counts)) != 1 or counts[0] != 1:
            unequal += 1

    # raw cross-check on a subsample: enumerate all 169 candidate witnesses
    rng = Random("c13:sample")
    raw_bad = 0
    for x, m, T, a in rng.sample(transcripts, 10):
        for Q, s in keys:
            found = 0
            for rk in range(13):
                for rr in range(13):
                    R, r = suite.g1 ** rk, suite.scalar(rr)
                    commits = suite.pairing(P, R) * y ** r == x
                    responds = (R * Q ** m.value == T) and (r + m * s == a)
                    found += commits and responds
            raw_bad += found != 1
    ok = unequal == 0 and raw_bad == 0
    _report(13, "witness indistinguishability", ok,
            f"{len(transcripts)} accepted transcripts x 13 valid keys: every count is exactly 1 "
            f"(raw 169-candidate cross-check on 10 transcripts agrees)")


# -- 14: the wire layer is lossless -------------------------------------------------


def test_c14_wire_roundtrips():
    rng = Random("c14:fuzz")
    tags = sorted(TAG_NAMES)
    bad = 0
    for _ in range(10_000):
        tag = rng.choice(tags)
        payload = rng.randbytes(rng.randrange(0, 65))
        encoded = frame_encode(tag, payload)
        if frame_decode(encoded) != (tag, payload):
            bad += 1

    def section_bytes(t, suite):
        ops = SCHEMES[t.scheme]
        return (encode_payload(ops.commitment_fields, t.commitment, suite),
                encode_payload(ops.challenge_fields, t.challenge, suite),
                encode_payload(ops.response_fields, t.response, suite))

    mismatched = 0
    suites = [(transparent_suite(1009), list(SchemeId)), (tate_suite(59), [SchemeId.CDHID, SchemeId.HLS])]
    compared = 0
    for suite, schemes in suites:
        for scheme in schemes:
            kp = keygen(scheme, suite, Random(f"c14:{scheme}:{suite.p}"))
            local = run_session(scheme, kp, suite, seed="c14:session")
            _, wired = loopback_session(scheme, kp, seed="c14:session")
            compared += 1
            same = (wired.decision == local.decision
                    and wired.restarts == local.restarts
                    and section_bytes(wired.transcript, suite) == section_bytes(local, suite))
            mismatched += not same
    ok = bad == 0 and mismatched == 0
    _report(14, "wire layer", ok,
            f"10000/10000 fuzzed frames round-tripped exactly; {compared} loopback sessions byte-identical to local runs")
