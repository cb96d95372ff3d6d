import dataclasses
import random
import sys
import threading

import pytest

from pairid.algebra import KIND_G1, KIND_G2, MalformedEncoding
from pairid.tate import (
    _SEEN_SLOTS,
    _TABLE_SLOTS,
    CurveParams,
    DegeneratePairing,
    Fq2,
    NotOnCurve,
    TateBackend,
    ValidationFailed,
    _add_mixed,
    _double,
    _line,
    _miller,
    _miller_lines,
    _miller_stored,
    enumerate_and_validate,
    lift_x,
    on_curve,
    point_add,
    point_mul,
    point_neg,
    suite_from_curve_params,
    tate_pairing,
    tate_suite,
)

from oracles import (
    ReferenceDegenerate,
    curve_points,
    naive_add,
    naive_double_and_add,
    naive_mul,
    point_order_naive,
    reference_line,
    reference_miller,
    reference_pairing,
)

# Frozen outcomes of the exhaustive point count (oracles.curve_points).
CURVE_TABLE = {
    59: dict(n=60, p=5, h=12, factors={2: 2, 3: 1, 5: 1}),
    83: dict(n=84, p=7, h=12, factors={2: 2, 3: 1, 7: 1}),
    523: dict(n=524, p=131, h=4, factors={2: 2, 131: 1}),
}

# A "type A" set at real size: q = h*p - 1 is a 512-bit prime = 3 (mod 4),
# p a 160-bit prime, GEN a point of order p on y^2 = x^3 + x over F_q.
REAL_Q = int(
    "12754743815247551365903365207536378201741095838320536339596390385544169603786"
    "678652508398311134647025207903486521270149881763601534714163324164140990938387"
)
REAL_P = 1408604150366267513563008725244081754033323226391
REAL_H = int(
    "9054881608811845679594536373982893014369005124167353844278982683044586091547"
    "299475405238810860755912441868"
)
REAL_GEN = (
    int(
        "1224893490930503794004075466789973377976387194103161177031006933445828165313"
        "4392274262626062867364572122220681834808723957244612444984282110057601856774166"
    ),
    int(
        "4719368216839730560990156005391368034105920765539885550883455572281314241991"
        "956851955514171891276748054785903373997938302622881312521909056028975195513150"
    ),
)


def _random_curve_point(q, rng):
    """A uniformly drawn affine point of the whole curve, not cofactor-cleared."""
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + x) % q
        y = pow(rhs, (q + 1) // 4, q)
        if (y * y - rhs) % q == 0:
            return (x, y) if rng.getrandbits(1) else (x, (-y) % q)


class TestValidation:
    @pytest.mark.parametrize("q", sorted(CURVE_TABLE))
    def test_known_curves(self, q):
        expect = CURVE_TABLE[q]
        report = enumerate_and_validate(q)
        assert report.n_points == expect["n"]
        assert report.factors == expect["factors"]
        assert report.params.p == expect["p"]
        assert report.params.h == expect["h"]
        # the generator really has order p
        gen = report.params.gen
        assert point_mul(expect["p"], gen, q) is None
        assert point_order_naive(gen, q) == expect["p"]

    def test_point_count_matches_oracle(self):
        for q in (59, 83, 523):
            assert len(curve_points(q)) == q + 1

    def test_wrong_residue_class_rejected(self):
        # 13 = 1 (mod 4): i^2 = -1 already has a root, the extension collapses
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(13)

    def test_composite_rejected(self):
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(63)

    def test_tiny_subgroup_rejected(self):
        # q = 7: N = 8 = 2^3, largest prime factor is below 5
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(7)

    def test_repeated_factor_rejected(self):
        # q = 199: N = 200 = 2^3 * 5^2, so p = 5 but 25 | N
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(199)

    def test_explicit_subgroup_order_checked(self):
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(59, p=7)  # 7 does not divide 60
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(59, p=3)  # prime but below the floor
        assert enumerate_and_validate(59, p=5).params.p == 5

    def test_size_cap(self):
        with pytest.raises(ValidationFailed):
            enumerate_and_validate(10007)


class TestFq2:
    def test_i_squared_is_minus_one(self):
        q = 59
        assert Fq2(0, 1, q) * Fq2(0, 1, q) == Fq2(-1, 0, q)

    def test_inverse_exhaustive_q59(self):
        q = 59
        one = Fq2(1, 0, q)
        for a in range(q):
            for b in range(q):
                z = Fq2(a, b, q)
                if z.is_zero:
                    with pytest.raises(ZeroDivisionError):
                        z.inv()
                else:
                    assert z * z.inv() == one

    def test_pow(self):
        q = 59
        z = Fq2(3, 7, q)
        acc = Fq2(1, 0, q)
        for e in range(12):
            assert z ** e == acc
            acc = acc * z
        assert z ** -3 == (z ** 3).inv()
        # multiplicative group of F_{q^2} has order q^2 - 1
        assert z ** (q * q - 1) == Fq2(1, 0, q)


class TestPointArithmetic:
    def test_add_table_matches_oracle_q59(self):
        q = 59
        pts = curve_points(q)
        assert len(pts) == 60
        for a in pts:
            for b in pts:
                assert point_add(a, b, q) == naive_add(a, b, q)

    def test_mul_matches_oracle(self):
        q = 83
        pts = [pt for pt in curve_points(q) if pt is not None][:7]
        for pt in pts:
            for k in range(90):
                assert point_mul(k, pt, q) == naive_mul(k, pt, q)

    def test_negative_multiplier(self):
        q = 59
        gen = enumerate_and_validate(q).params.gen
        assert point_mul(-2, gen, q) == point_neg(point_mul(2, gen, q), q)

    def test_off_curve_rejected(self):
        with pytest.raises(NotOnCurve):
            point_add((1, 1), None, 59)
        with pytest.raises(NotOnCurve):
            point_mul(3, (1, 1), 59)

    def test_group_order(self):
        q = 59
        for pt in curve_points(q):
            if pt is not None:
                assert point_mul(60, pt, q) is None


class TestPairing:
    def test_bilinearity_exhaustive_q59(self, c59):
        g = c59.g1
        base = c59.pairing(g, g)
        for a in range(5):
            for b in range(5):
                assert c59.pairing(g ** a, g ** b) == base ** (a * b)

    def test_symmetry(self, c83, rng):
        for _ in range(20):
            a = c83.random_g1(rng)
            b = c83.random_g1(rng)
            assert c83.pairing(a, b) == c83.pairing(b, a)

    def test_non_degenerate_order_is_p(self, c59, c83, c523):
        for suite in (c59, c83, c523):
            base = suite.pairing(suite.g1, suite.g1)
            acc = base
            for _ in range(suite.p - 1):
                assert not acc.is_identity
                acc = acc * base
            assert acc.is_identity

    def test_identity_argument_maps_to_one(self, c59):
        inf = c59.g1_identity()
        assert c59.pairing(inf, c59.g1).is_identity
        assert c59.pairing(c59.g1, inf).is_identity

    def test_offset_rescue_identity(self):
        # The retry path relies on reduced(f(P,Q)) = reduced(f(P,Q+S)/f(P,S)).
        params = enumerate_and_validate(59).params
        q, p = params.q, params.p
        exp = (q * q - 1) // p
        pt = params.gen
        other = point_mul(3, params.gen, q)
        direct = _miller(pt, other, p, q) ** exp
        one = Fq2(1, 0, q)
        for k in range(1, 5):
            s = point_mul(k, params.gen, q)
            shifted = point_add(other, s, q)
            f1 = one if shifted is None else _miller(pt, shifted, p, q)
            f2 = _miller(pt, s, p, q)
            assert (f1 * f2.inv()) ** exp == direct

    def test_line_vanishing_raises(self):
        params = enumerate_and_validate(59).params
        q = params.q
        x1, y1 = params.gen
        lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, q) % q
        # choose the evaluation abscissa so the tangent value is exactly zero
        xq_im = (x1 - y1 * pow(lam, -1, q)) % q
        with pytest.raises(DegeneratePairing):
            _line(params.gen, params.gen, xq_im, 0, q)

    def test_two_torsion_argument_stays_in_target_group(self):
        # (0, 0) sits outside the working subgroup; whatever path the retry
        # takes, the output must still land in the order-p target group.
        params = enumerate_and_validate(59).params
        one = Fq2(1, 0, params.q)
        try:
            val = tate_pairing(params.gen, (0, 0), params)
        except DegeneratePairing:
            return
        assert val ** params.p == one

    def test_off_curve_pairing_rejected(self):
        params = enumerate_and_validate(59).params
        with pytest.raises(NotOnCurve):
            tate_pairing((1, 1), params.gen, params)


class TestLineForm:
    """The one line formula: the coefficient triples of _double and
    _add_mixed against the affine lines of oracles.py."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_triples_match_reference_lines(self, q):
        # Each triple's value (c0 + c1*xq) + (c2*yq)*i at every distorted
        # point is c2 times the reference line's, so it vanishes exactly
        # where the reference does.
        pts = [pt for pt in curve_points(q) if pt is not None]
        vanished = 0
        for a in pts:
            for b in pts:
                if a == b:
                    line = _double((a[0], a[1], 1), q, line=True)[1]
                else:
                    line = _add_mixed((a[0], a[1], 1), b[0], b[1], q, line=True)[1]
                if line is None:
                    assert a[0] == b[0] and (a[1] + b[1]) % q == 0, (a, b)
                    continue
                c0, c1, c2 = line
                assert c2 % q != 0, (a, b)
                for x, y in pts:
                    xq = -x % q
                    got = ((c0 + c1 * xq) % q, c2 * y % q)
                    try:
                        ref = reference_line(a, b, xq, y, q)
                    except ReferenceDegenerate:
                        assert got == (0, 0), (a, b, (x, y))
                        vanished += 1
                        continue
                    assert got == (c2 * ref[0] % q, c2 * ref[1] % q), (a, b, (x, y))
        assert vanished > 0


class TestPairingAgainstReference:
    """The Jacobian Miller loop and Frobenius final exponentiation against
    the affine loop with full-exponent reduction in oracles.py."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_every_pair_of_curve_points(self, q):
        # Off-subgroup and 2-torsion points included: where the reference
        # gives up, the package must raise DegeneratePairing too.
        params = enumerate_and_validate(q).params
        pts = curve_points(q)
        for a in pts:
            for b in pts:
                try:
                    expect = reference_pairing(a, b, q, params.p, params.gen)
                except ReferenceDegenerate:
                    with pytest.raises(DegeneratePairing):
                        tate_pairing(a, b, params)
                    continue
                got = tate_pairing(a, b, params)
                assert (got.a, got.b) == expect, (a, b)

    @pytest.mark.parametrize("q", [59, 83])
    def test_miller_vanishes_exactly_where_reference_does(self, q):
        # These are the inputs that take tate_pairing's retry path.
        params = enumerate_and_validate(q).params
        pts = [pt for pt in curve_points(q) if pt is not None]
        vanished = 0
        for a in pts:
            for b in pts:
                try:
                    reference_miller(a, b, params.p, q)
                except ReferenceDegenerate:
                    vanished += 1
                    with pytest.raises(DegeneratePairing):
                        _miller(a, b, params.p, q)
                else:
                    _miller(a, b, params.p, q)
        assert vanished > 0

    def test_real_size_random_pairs(self):
        params = CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN)
        rng = random.Random("real-size pairing")
        pairs = [
            (naive_double_and_add(rng.randrange(1, REAL_P), REAL_GEN, REAL_Q),
             naive_double_and_add(rng.randrange(1, REAL_P), REAL_GEN, REAL_Q))
            for _ in range(3)
        ]
        pairs.append((_random_curve_point(REAL_Q, rng), _random_curve_point(REAL_Q, rng)))
        for a, b in pairs:
            got = tate_pairing(a, b, params)
            assert (got.a, got.b) == reference_pairing(a, b, REAL_Q, REAL_P, REAL_GEN)

    def test_real_size_point_mul(self):
        rng = random.Random("real-size point_mul")
        k = rng.randrange(REAL_Q)
        for base in (REAL_GEN, _random_curve_point(REAL_Q, rng)):
            for m in (0, 1, REAL_P, REAL_H, k, -k, rng.randrange(REAL_P)):
                assert point_mul(m, base, REAL_Q) == naive_double_and_add(m, base, REAL_Q), m
        assert point_mul(REAL_P, REAL_GEN, REAL_Q) is None


class TestSuiteOverCurve:
    def test_exponent_space_matches_transparent_shape(self, c59):
        for k in range(5):
            assert c59.discrete_log(c59.g1_from_int(k)) == k
            assert c59.discrete_log(c59.g2_from_int(k)) == k

    def test_log_outside_subgroup_rejected(self, c59):
        full_order = next(
            pt for pt in curve_points(59) if pt is not None and point_order_naive(pt, 59) == 60
        )
        with pytest.raises(ValueError):
            c59.backend.log(KIND_G1, full_order)

    def test_default_parameters(self, c523):
        assert c523.p == 131
        assert c523.backend.q == 523

    def test_describe_round_trip(self, c83):
        d = c83.describe()
        x, y = d["gen"].split(",")
        rebuilt = suite_from_curve_params(int(d["q"]), int(d["p"]), int(d["h"]), (int(x), int(y)))
        assert rebuilt.g1 == rebuilt.g1_from_int(1)
        assert rebuilt.p == c83.p
        assert c83.g1.payload == rebuilt.g1.payload

    def test_equal_p_on_different_curves_incompatible(self, c83):
        # q = 83 and q = 139 both give p = 7; their points must never mix.
        other = tate_suite(139)
        assert other.p == c83.p
        with pytest.raises(TypeError):
            c83.g1 * other.g1
        with pytest.raises(ValueError):
            c83.pairing(c83.g1, other.g1)
        assert c83.g1 != other.g1
        assert c83.g1_from_int(3) != other.g1_from_int(3)

    def test_stored_params_revalidated(self):
        good = enumerate_and_validate(59).params
        with pytest.raises(ValidationFailed):
            suite_from_curve_params(59, 5, 12, (1, 1))
        full_order = next(
            pt for pt in curve_points(59) if pt is not None and point_order_naive(pt, 59) == 60
        )
        with pytest.raises(ValidationFailed):
            suite_from_curve_params(59, 5, 12, full_order)
        with pytest.raises(ValidationFailed):
            suite_from_curve_params(59, 5, 11, good.gen)


class TestCurveCodecs:
    def test_widths(self, c59, c523):
        assert c59.width(KIND_G1) == 3
        assert c59.width(KIND_G2) == 4
        assert c523.width(KIND_G1) == 3
        assert c523.width(KIND_G2) == 4

    @pytest.mark.parametrize("q", [59, 83])
    def test_g1_round_trip_whole_subgroup(self, q):
        suite = tate_suite(q)
        for k in range(suite.p):
            e = suite.g1_from_int(k)
            data = suite.encode_element(e)
            assert len(data) == suite.width(KIND_G1)
            assert suite.decode_g1(data) == e

    def test_g2_round_trip_whole_subgroup(self, c59):
        for k in range(c59.p):
            e = c59.g2_from_int(k)
            data = c59.encode_element(e)
            assert len(data) == c59.width(KIND_G2)
            assert c59.decode_g2(data) == e

    def test_g1_malformed_rejected(self, c59):
        w = c59.width(KIND_G1)
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(b"\x01" + bytes(w - 1))  # unknown flag
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(b"\x00\x00\x01")  # infinity must be zero-padded
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(b"\x02" + (59).to_bytes(w - 1, "big"))  # x not reduced
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(bytes(w - 1))  # short

    def test_g1_nonresidue_x_rejected(self, c59):
        q = 59
        on = {pt[0] for pt in curve_points(q) if pt is not None}
        bad_x = next(x for x in range(1, q) if x not in on)
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(b"\x02" + bad_x.to_bytes(2, "big"))

    def test_g1_off_subgroup_rejected(self, c59):
        q = 59
        outside = next(
            pt for pt in curve_points(q)
            if pt is not None and point_mul(5, pt, q) is not None
        )
        x, y = outside
        flag = 0x02 if y % 2 == 0 else 0x03
        with pytest.raises(MalformedEncoding):
            c59.decode_g1(bytes([flag]) + x.to_bytes(2, "big"))

    def test_g2_malformed_rejected(self, c59):
        with pytest.raises(MalformedEncoding):
            c59.decode_g2(bytes(3))  # short
        with pytest.raises(MalformedEncoding):
            c59.decode_g2((59).to_bytes(2, "big") + bytes(2))  # coord not reduced
        # (2, 0) lives in F_q* but not in the order-5 target subgroup
        with pytest.raises(MalformedEncoding):
            c59.decode_g2((2).to_bytes(2, "big") + bytes(2))

    def test_identity_encodings(self, c59):
        inf = c59.g1_identity()
        assert c59.decode_g1(c59.encode_element(inf)) == inf
        one = c59.g2_identity()
        assert c59.decode_g2(c59.encode_element(one)) == one


class TestPrecomputedTables:
    """The comb and stored-line paths of TateBackend against the plain
    point_mul and the reference pairing.  Each input is used twice first, so
    that its table exists before the compared call."""

    @pytest.mark.parametrize("q", [59, 83])
    def test_comb_matches_point_mul_on_every_point(self, q):
        # Off-subgroup, 2-torsion and other small-order bases included:
        # 2^(5i) * pt is infinity for some of them.
        backend = TateBackend(enumerate_and_validate(q).params)
        for pt in curve_points(q):
            backend.power(KIND_G1, pt, 1)
            backend.power(KIND_G1, pt, 1)
            for k in range(backend.p):
                assert backend.power(KIND_G1, pt, k) == point_mul(k, pt, q), (pt, k)

    def test_comb_uses_several_columns(self):
        # p = 131 has 8 bits, so the comb has two columns per row.
        params = enumerate_and_validate(523).params
        backend = TateBackend(params)
        rng = random.Random("comb columns")
        bases = [params.gen, (0, 0)] + [_random_curve_point(523, rng) for _ in range(6)]
        for pt in bases:
            backend.power(KIND_G1, pt, 1)
            backend.power(KIND_G1, pt, 1)
            for k in range(backend.p):
                assert backend.power(KIND_G1, pt, k) == naive_mul(k, pt, 523), (pt, k)
        for k in range(backend.p):
            assert backend.from_int(KIND_G1, k) == naive_mul(k, params.gen, 523)

    def test_comb_out_of_range_exponents(self):
        params = enumerate_and_validate(523).params
        backend = TateBackend(params)
        for _ in range(2):
            backend.power(KIND_G1, params.gen, 1)
        for k in (-1, -130, 1 << 10, 10**6 + 3):
            assert backend.power(KIND_G1, params.gen, k) == naive_mul(k % 524, params.gen, 523)

    @pytest.mark.parametrize("q", [59, 83])
    def test_stored_lines_match_reference_on_every_pair(self, q):
        params = enumerate_and_validate(q).params
        backend = TateBackend(params)
        pts = curve_points(q)
        for a in pts:
            backend.pair(a, params.gen)
            backend.pair(a, params.gen)
            for b in pts:
                try:
                    expect = reference_pairing(a, b, q, params.p, params.gen)
                except ReferenceDegenerate:
                    with pytest.raises(DegeneratePairing):
                        backend.pair(a, b)
                    continue
                got = backend.pair(a, b)
                assert (got.a, got.b) == expect, (a, b)

    @pytest.mark.parametrize("q", [59, 83])
    def test_stored_lines_vanish_exactly_where_miller_does(self, q):
        params = enumerate_and_validate(q).params
        pts = [pt for pt in curve_points(q) if pt is not None]
        vanished = 0
        for a in pts:
            lines = _miller_lines(a, params.p, q)
            for b in pts:
                try:
                    plain = _miller(a, b, params.p, q)
                except DegeneratePairing:
                    vanished += 1
                    with pytest.raises(DegeneratePairing):
                        _miller_stored(lines, b, q)
                    continue
                stored = _miller_stored(lines, b, q)
                # Equal up to an F_q* factor: the ratio has no imaginary part.
                assert (plain * stored.inv()).b == 0, (a, b)
        assert vanished > 0

    def test_off_curve_inputs_still_rejected(self):
        params = enumerate_and_validate(59).params
        backend = TateBackend(params)
        for _ in range(3):
            with pytest.raises(NotOnCurve):
                backend.pair((1, 1), params.gen)
            with pytest.raises(NotOnCurve):
                backend.pair(params.gen, (1, 1))
            with pytest.raises(NotOnCurve):
                backend.power(KIND_G1, (1, 1), 2)
        assert backend.tables.sizes() == (0, 1)  # only the generator

    def test_real_size(self):
        params = CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN)
        backend = TateBackend(params)
        rng = random.Random("real-size tables")
        key = naive_double_and_add(rng.randrange(1, REAL_P), REAL_GEN, REAL_Q)
        for base in (REAL_GEN, key):
            for k in [rng.randrange(REAL_P) for _ in range(4)] + [1, REAL_P - 1]:
                assert backend.power(KIND_G1, base, k) == naive_double_and_add(k, base, REAL_Q), k
        others = [naive_double_and_add(rng.randrange(1, REAL_P), REAL_GEN, REAL_Q),
                  _random_curve_point(REAL_Q, rng)]
        for b in others:
            for _ in range(2):
                got = backend.pair(key, b)
                assert (got.a, got.b) == reference_pairing(key, b, REAL_Q, REAL_P, REAL_GEN)
        assert backend.tables.sizes()[1] == 2

    def test_table_built_on_second_use(self):
        params = enumerate_and_validate(83).params
        backend = TateBackend(params)
        pt = point_mul(3, params.gen, 83)
        backend.pair(pt, params.gen)  # only the first argument is looked up
        assert backend.tables.sizes() == (1, 0)
        backend.power(KIND_G1, pt, 2)
        assert backend.tables.sizes() == (0, 1)

    def test_cache_stays_within_its_bounds(self):
        params = enumerate_and_validate(523).params
        backend = TateBackend(params)
        pts = [pt for pt in curve_points(523) if pt is not None][:200]
        for pt in pts:
            for _ in range(2):
                backend.power(KIND_G1, pt, 5)
                backend.pair(pt, params.gen)
                seen, tables = backend.tables.sizes()
                assert seen <= _SEEN_SLOTS and tables <= _TABLE_SLOTS
        for pt in pts:
            backend.power(KIND_G1, pt, 7)
            seen, tables = backend.tables.sizes()
            assert seen <= _SEEN_SLOTS and tables <= _TABLE_SLOTS
        assert backend.tables.sizes() == (_SEEN_SLOTS, _TABLE_SLOTS)

    def test_threads_sharing_one_backend(self):
        params = enumerate_and_validate(523).params
        backend = TateBackend(params)
        rng = random.Random("threads")
        bases = [point_mul(rng.randrange(1, 131), params.gen, 523) for _ in range(24)]
        jobs = [(a, rng.randrange(131), rng.choice(bases)) for a in bases for _ in range(8)]
        expect = [(point_mul(k, a, 523), tate_pairing(a, b, params)) for a, k, b in jobs]
        errors = []

        def work(order):
            try:
                for i in order:
                    a, k, b = jobs[i]
                    if (backend.power(KIND_G1, a, k), backend.pair(a, b)) != expect[i]:
                        errors.append(i)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(random.Random(t).sample(range(len(jobs)), len(jobs)),))
                       for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        seen, tables = backend.tables.sizes()
        assert seen <= _SEEN_SLOTS and tables <= _TABLE_SLOTS


class TestSharedBackend:
    def test_stored_params_share_one_backend(self):
        params = enumerate_and_validate(83).params
        a = suite_from_curve_params(params.q, params.p, params.h, params.gen)
        b = suite_from_curve_params(params.q, params.p, params.h, params.gen, counted=True)
        assert a.backend is b.backend
        assert a.counter is None and b.counter is not None
        other_gen = point_mul(2, params.gen, params.q)
        c = suite_from_curve_params(params.q, params.p, params.h, other_gen)
        assert c.backend is not a.backend
        assert c.g1 != a.g1

    def test_key_records_share_one_backend(self, tmp_path):
        from pairid.records import load_key, save_key
        from pairid.schemes import SchemeId, default_scheme_params, keygen

        suite = suite_from_curve_params(REAL_Q, REAL_P, REAL_H, REAL_GEN)
        params = default_scheme_params(suite)
        loaded = []
        for i, scheme in enumerate((SchemeId.CDHID, SchemeId.HLS)):
            path = tmp_path / f"{i}.key"
            save_key(path, scheme, keygen(scheme, suite, random.Random(i)), params)
            loaded.append(load_key(path)[1].suite)
        assert all(s.backend is suite.backend for s in loaded)


# Parameter sets that pass the generator-on-curve, p*gen = O and p*h = q + 1
# checks but are not type A.  q = 1 (mod 4) in the first two, so the pairing
# of the first is not bilinear and that of the second divides by zero; the
# third has q = 19 * 71 and 5^2 dividing q + 1.
HOSTILE_SETS = [
    (2957, 29, 102, (843, 2460)),
    (233, 13, 18, (215, 21)),
    (1349, 5, 270, (712, 1269)),
]


class TestCurveParamsValidate:
    @pytest.mark.parametrize("q, p, h, gen", HOSTILE_SETS)
    def test_hostile_sets_rejected(self, q, p, h, gen):
        params = CurveParams(q=q, p=p, h=h, gen=gen)
        with pytest.raises(ValidationFailed):
            params.validate()
        with pytest.raises(ValidationFailed):
            TateBackend(params)
        with pytest.raises(ValidationFailed):
            suite_from_curve_params(q, p, h, gen)

    @pytest.mark.parametrize("q, p, h, gen", HOSTILE_SETS)
    def test_hostile_key_records_rejected(self, q, p, h, gen, c59, tmp_path):
        from pairid.records import RecordError, load_key, save_key
        from pairid.schemes import SchemeId, default_scheme_params, keygen

        path = tmp_path / "key.txt"
        save_key(path, SchemeId.CDHID, keygen(SchemeId.CDHID, c59, random.Random(5)), default_scheme_params(c59))
        fields = {"q": q, "p": p, "h": h, "gen": f"{gen[0]},{gen[1]}"}
        lines = [ln for ln in path.read_text().splitlines() if ln.split(" = ")[0] not in fields]
        path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in fields.items()]) + "\n")
        with pytest.raises(RecordError, match="curve fields"):
            load_key(path)

    def test_real_size_set_accepted(self):
        CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("h", REAL_H + 1),
            ("p", REAL_P + 2),
            ("gen", (REAL_GEN[0], REAL_GEN[1] + 1)),
            ("gen", _random_curve_point(REAL_Q, random.Random("full order"))),
            ("gen", None),
        ],
        ids=["h+1", "p+2", "off-curve", "full-order", "infinity"],
    )
    def test_real_size_mutations_rejected(self, field, value):
        params = CurveParams(q=REAL_Q, p=REAL_P, h=REAL_H, gen=REAL_GEN)
        with pytest.raises(ValidationFailed):
            dataclasses.replace(params, **{field: value}).validate()

    def test_square_dividing_the_group_order_rejected(self):
        # q = 199 is a prime = 3 (mod 4), but q + 1 = 2^3 * 5^2.
        gen = next(pt for pt in curve_points(199) if pt is not None and point_order_naive(pt, 199) == 5)
        with pytest.raises(ValidationFailed, match="divides"):
            CurveParams(q=199, p=5, h=40, gen=gen).validate()

    def test_lift_matches_the_point_set(self):
        for q in (59, 83):
            xs = {pt[0] for pt in curve_points(q) if pt is not None}
            for x in range(q):
                y = lift_x(x, q)
                assert (y is not None) == (x in xs), x
                assert y is None or on_curve((x, y), q)

    def test_tate_suite_shares_one_backend(self):
        a, b = tate_suite(83), tate_suite(83, counted=True)
        assert a.backend is b.backend
        assert a.counter is None and b.counter is not None

    def test_repeated_tate_suite_counts_points_once(self, monkeypatch):
        from pairid import tate

        calls = []

        def counting(*args):
            calls.append(args)
            return enumerate_and_validate(*args)

        tate._desk_params.cache_clear()
        monkeypatch.setattr(tate, "enumerate_and_validate", counting)
        first = tate_suite(9967)
        second = tate_suite(9967)
        assert calls == [(9967, None)]
        assert second.backend is first.backend
