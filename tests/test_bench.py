import pytest

from pairid.algebra import scalar_width, transparent_suite
from pairid.bench import EXPECTED, CostTable, NonDeterministicCosts, bench_all, bench_costs
from pairid.schemes import SchemeId, keygen


class TestExpectedTable:
    def test_all_schemes_covered(self):
        assert set(EXPECTED) == set(SchemeId)

    def test_measured_matches_expected_transparent(self, t1009):
        for result in bench_all(t1009):
            assert result.matches, result.line()
            assert result.measured == EXPECTED[result.scheme]

    def test_measured_matches_expected_on_curve(self, c59):
        for scheme in SchemeId:
            result = bench_costs(scheme, c59, sessions=2, seed="curve-bench")
            assert result.matches, result.line()


class TestMeasurement:
    def test_costs_stable_across_seeds(self, t1009):
        a = bench_costs(SchemeId.OWFID, t1009, sessions=3, seed="one")
        b = bench_costs(SchemeId.OWFID, t1009, sessions=3, seed="two")
        assert a.measured == b.measured

    def test_sdhid_redraws_do_not_change_table(self):
        # small modulus makes zero denominators common enough to observe
        suite = transparent_suite(5)
        seen = []
        for seed in range(30):
            result = bench_costs(SchemeId.SDHID, suite, sessions=2, seed=f"rd{seed}")
            assert result.matches
            seen.append(result.redraws)
        assert any(r > 0 for r in seen)

    def test_schemes_draw_independent_keys(self, t1009, monkeypatch):
        import pairid.bench as bench_mod

        keys = {}

        def recording(scheme, suite, rng):
            keys[scheme] = kp = keygen(scheme, suite, rng)
            return kp

        monkeypatch.setattr(bench_mod, "keygen", recording)
        bench_all(t1009, sessions=1)
        assert keys[SchemeId.BLSID].x != keys[SchemeId.CDHID].x

    def test_scl_restarts_keep_costs_deterministic(self):
        suite = transparent_suite(5)
        for seed in range(20):
            result = bench_costs(SchemeId.SCL, suite, sessions=3, seed=f"scl{seed}")
            assert result.matches, result.line()

    def test_bandwidth_bytes_follow_widths(self, t1009):
        result = bench_costs(SchemeId.SDHID, t1009, sessions=1)
        zp_w = scalar_width(1009)
        g1_w = t1009.width("g1")
        assert result.sent_bytes["zp"] == 2 * zp_w
        assert result.sent_bytes["g1"] == g1_w

    def test_nondeterminism_is_reported(self, t1009, monkeypatch):
        import pairid.bench as bench_mod

        real = bench_mod.run_session
        state = {"n": 0}

        def jittery(scheme, kp, suite, seed=0):
            t = real(scheme, kp, suite, seed=seed)
            state["n"] += 1
            if state["n"] == 2:
                with suite.role("prover"):
                    suite.g1 ** 2  # spurious extra operation
            return t

        monkeypatch.setattr(bench_mod, "run_session", jittery)
        with pytest.raises(NonDeterministicCosts):
            bench_costs(SchemeId.CDHID, t1009, sessions=2)

    def test_original_suite_not_polluted(self, t1009):
        bench_costs(SchemeId.HLS, t1009, sessions=1)
        assert t1009.counter is None


class TestReportLine:
    def test_line_shape(self, t1009):
        line = bench_costs(SchemeId.BLSID, t1009, sessions=1).line()
        assert line.startswith("blsid")
        assert "bw[g1=1 g2=0 zp=0 nbit=1]" in line
        assert line.endswith("ok")

    def test_mismatch_is_loud(self):
        result = bench_costs(SchemeId.BLSID, transparent_suite(1009), sessions=1)
        result.matches = False
        assert result.line().endswith("MISMATCH")

    def test_table_is_flat_ints(self):
        for table in EXPECTED.values():
            assert isinstance(table, CostTable)
            assert all(isinstance(v, int) for v in vars(table).values())
