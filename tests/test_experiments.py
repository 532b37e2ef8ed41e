import math

import pytest

from corrlab import experiments as xp
from corrlab import measures as ms
from corrlab import oracles as orc
from corrlab import seqcore as sc


def test_sample_rows_are_random_sequence_draws():
    mat = xp._sample_matrix(37, 6, master_seed=11, base_stream=4)
    for i, row in enumerate(mat):
        assert row.tolist() == list(sc.random_sequence(37, sc.SeedSpec(11, 4 + i)).symbols())


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            xp.ExperimentConfig(n_grid=())
        with pytest.raises(ValueError):
            xp.ExperimentConfig(n_grid=(16,), samples=0)
        with pytest.raises(ValueError):
            xp.ExperimentConfig(n_grid=(1,))

    def test_echo_is_json_safe(self):
        import json
        cfg = xp.ExperimentConfig(n_grid=(8, 16), theta_grid=(1.5,), lambda_grid=(9.0,))
        echo = cfg.echo()
        assert json.loads(json.dumps(echo)) == echo


class TestExpectedRatio:
    def test_trend_and_rows(self):
        cfg = xp.ExperimentConfig(n_grid=(64, 128), r=2, samples=60, master_seed=7)
        rep = xp.estimate_expected_ratio(cfg)
        means = rep.values("ratio_mean")
        assert len(means) == 2
        assert all(0 < m < 1.5 for m in means)
        trend = rep.row("ratio_mean_strictly_increasing")
        assert trend.verdict in ("pass", "fail")

    def test_infeasible_cell_noted_not_dropped(self):
        cfg = xp.ExperimentConfig(n_grid=(64, 4096), r=4, samples=5, master_seed=1,
                                  work_budget=10 ** 7)
        rep = xp.estimate_expected_ratio(cfg)
        assert any("skipped" in note for note in rep.notes)
        assert {row.n for row in rep.rows if row.statistic == "ratio_mean"} == {64}

    def test_estimator_consistency_with_oracle(self):
        # at n <= 16 the exact expectation is available; the Monte Carlo mean
        # must sit within 4 standard errors
        n, r = 12, 2
        truth = float(orc.exact_expected_measure(n, r)) / ms.normalization(n, r).value
        hits = 0
        for seed in range(5):
            cfg = xp.ExperimentConfig(n_grid=(n,), r=r, samples=400, master_seed=seed)
            rep = xp.estimate_expected_ratio(cfg)
            mean = rep.row("ratio_mean").value
            err = rep.row("ratio_stderr").value
            if abs(mean - truth) <= 4 * err:
                hits += 1
        assert hits >= 4


class TestUniformUpper:
    def test_huge_epsilon_gives_full_frequency(self):
        cfg = xp.ExperimentConfig(n_grid=(64,), r_max=3, samples=50, master_seed=3,
                                  epsilon=10.0)
        rep = xp.check_uniform_upper(cfg)
        assert rep.row("uniform_event_freq").value == 1.0
        assert rep.row("uniform_event_freq").verdict == "pass"

    def test_zero_epsilon_recorded_without_verdict(self):
        cfg = xp.ExperimentConfig(n_grid=(64,), r_max=2, samples=200, master_seed=3,
                                  epsilon=0.0)
        rep = xp.check_uniform_upper(cfg)
        row = rep.row("uniform_event_freq")
        assert row.verdict == "info"
        assert 0.0 <= row.value < 1.0  # the bound with no headroom does get crossed

    def test_truncation_note_present(self):
        cfg = xp.ExperimentConfig(n_grid=(32,), r_max=3, samples=10, master_seed=0)
        rep = xp.check_uniform_upper(cfg)
        assert any("truncated" in note for note in rep.notes)


class TestTheoremABand:
    def test_small_run(self):
        cfg = xp.ExperimentConfig(n_grid=(128,), r_max=3, samples=60, master_seed=5)
        rep = xp.check_theoremA_band(cfg)
        for r in (2, 3):
            assert 0.0 <= rep.row("band_freq", r=r).value <= 1.0

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            xp.check_theoremA_band(xp.ExperimentConfig(n_grid=(8,), samples=5))


class TestConcentration:
    def test_vacuous_theta(self):
        cfg = xp.ExperimentConfig(n_grid=(64,), r=2, samples=40, master_seed=5,
                                  theta_grid=(0.0,))
        rep = xp.check_concentration(cfg)
        row = rep.row("exceedance_freq[theta=0]")
        assert row.bound == 2.0
        assert row.verdict == "pass"

    def test_impossible_theta(self):
        cfg = xp.ExperimentConfig(n_grid=(64,), r=2, samples=40, master_seed=5,
                                  theta_grid=(100.0,))
        rep = xp.check_concentration(cfg)
        assert rep.row("exceedance_freq[theta=100]").value == 0.0

    def test_needs_thetas(self):
        with pytest.raises(ValueError):
            xp.check_concentration(xp.ExperimentConfig(n_grid=(64,), samples=5))


class TestRangeTail:
    def test_lambda_hypothesis_guard(self):
        cfg = xp.ExperimentConfig(n_grid=(64,), samples=10, lambda_grid=(16.0,))
        with pytest.raises(ValueError):
            xp.check_range_tail(cfg)  # lambda = 2 sqrt(n) exactly is rejected

    def test_dyadic_recognition(self):
        lams = (3 * math.sqrt(1024),)
        cfg = xp.ExperimentConfig(n_grid=(1024,), samples=50, master_seed=2,
                                  lambda_grid=lams, dyadic_p=0)
        rep = xp.check_range_tail(cfg)
        assert any(row.statistic.startswith("dyadic_tail") for row in rep.rows)

    def test_dyadic_skip_note(self):
        # 1000 = j * 2^m admits no j in (1, 2] with m >= 1
        lams = (3 * math.sqrt(1000),)
        cfg = xp.ExperimentConfig(n_grid=(1000,), samples=50, master_seed=2,
                                  lambda_grid=lams, dyadic_p=0)
        rep = xp.check_range_tail(cfg)
        assert not any(row.statistic.startswith("dyadic_tail") for row in rep.rows)
        assert any("dyadic" in note for note in rep.notes)


class TestExtensionDifference:
    def test_rejects_decreasing_grid(self):
        cfg = xp.ExperimentConfig(n_grid=(128, 64), samples=10)
        with pytest.raises(ValueError):
            xp.check_extension_difference(cfg)

    def test_equal_lengths_edge(self):
        cfg = xp.ExperimentConfig(n_grid=(64, 64), r=2, samples=30, master_seed=4)
        rep = xp.check_extension_difference(cfg)
        row = rep.row("difference_violation_freq[64->64]")
        assert row.value == 0.0 and row.verdict == "pass"

    def test_small_chain(self):
        cfg = xp.ExperimentConfig(n_grid=(64, 80, 100), r=2, samples=60, master_seed=4)
        rep = xp.check_extension_difference(cfg)
        assert rep.passed
        for row in rep.rows:
            if row.statistic.startswith("monotone_violation"):
                assert row.value == 0.0


class TestReports:
    def _sample_report(self):
        cfg = xp.ExperimentConfig(n_grid=(64,), r=2, samples=20, master_seed=9)
        return xp.estimate_expected_ratio(cfg)

    def test_csv_round_trip(self):
        rep = self._sample_report()
        assert xp.parse_report(xp.emit_report(rep, "csv"), "csv") == rep

    def test_json_round_trip(self):
        rep = self._sample_report()
        assert xp.parse_report(xp.emit_report(rep, "json"), "json") == rep

    def test_unknown_format(self):
        rep = self._sample_report()
        with pytest.raises(ValueError):
            xp.emit_report(rep, "yaml")
        with pytest.raises(ValueError):
            xp.parse_report("", "yaml")

    def test_header_only_csv_for_empty_rows(self):
        rep = xp.ExperimentReport("empty", {"n_grid": []}, rows=[])
        text = xp.emit_report(rep, "csv")
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert data == ["n,r,samples,seed,statistic,value,bound,verdict"]

    def test_timing_excluded_by_default(self):
        rep = self._sample_report()
        assert rep.wall_time_s is not None
        assert "wall_time" not in xp.emit_report(rep, "json")
        assert "wall_time" in xp.emit_report(rep, "json", include_timing=True)

    def test_frequencies_in_unit_interval_and_verdicts_recomputable(self):
        cfg = xp.ExperimentConfig(n_grid=(64,), r=2, samples=50, master_seed=11,
                                  theta_grid=(4.0, 16.0), slack=0.02)
        rep = xp.check_concentration(cfg)
        for row in rep.rows:
            if "freq" in row.statistic:
                assert 0.0 <= row.value <= 1.0
                want = "pass" if row.value <= row.bound + cfg.slack else "fail"
                assert row.verdict == want

    def test_rerun_bytes_identical(self):
        cfg = xp.ExperimentConfig(n_grid=(64, 128), r=2, samples=40, master_seed=13)
        a = xp.emit_report(xp.estimate_expected_ratio(cfg, workers=1), "csv")
        b = xp.emit_report(xp.estimate_expected_ratio(cfg, workers=4), "csv")
        assert a == b
