import hashlib
import json
import math

import numpy as np
import pytest

from corrlab import experiments as xp
from corrlab import measures as ms
from corrlab import oracles as orc
from corrlab import seqcore as sc


def test_sample_rows_are_random_sequence_draws():
    rows = xp._random_bits(37, 11, range(4, 10))
    for i, row in enumerate(rows):
        want = sc.random_sequence(37, sc.SeedSpec(11, 4 + i)).bits
        assert int.from_bytes(row.tobytes(), "little") == want


def test_cells_read_packed_rows_without_a_pm1_matrix(monkeypatch):
    ms._word_tables()  # built once, from ±1 symbols; cached before the patches below

    def refuse(*args):
        raise AssertionError("a Monte Carlo cell unpacked or checked ±1 rows")

    monkeypatch.setattr(ms, "_as_matrix", refuse)
    monkeypatch.setattr(ms, "_symbols", refuse)
    rep = xp.estimate_expected_ratio(xp.ExperimentConfig(n_grid=(64, 2048), samples=8))
    assert len(rep.values("ratio_mean")) == 2


def test_random_bits_allocates_before_hashing_any_key(monkeypatch):
    calls = []
    monkeypatch.setattr(sc, "_philox_keys", lambda *a: calls.append(a))
    with pytest.raises(MemoryError):
        sc._random_bits(4096, 0, range(1 << 50))  # 512 PiB, refused by the allocator at once
    assert calls == []


@pytest.mark.parametrize("base_stream", [0, 9, 2 ** 33])
def test_sample_words_are_phase_zero_of_the_sample_rows(base_stream):
    """The sampler's byte rows, read as 16-bit words, are phase 0 of the sample rows."""
    for n in [*range(1, 49), 1000, 4097]:  # 1000 and 4097 have an odd byte count
        rows = xp._random_bits(n, 7, range(base_stream, base_stream + 5))
        mat = np.stack([sc.random_sequence(n, sc.SeedSpec(7, base_stream + i)).to_array()
                        for i in range(5)])
        expect = ms._pack_phases(sc._packed(mat), n, -(-n // 16))[0].view(np.uint8)
        assert rows.dtype == expect.dtype and rows.shape == (5, -(-n // 8)), n
        assert (rows == expect[:, :rows.shape[1]]).all(), n
        assert not expect[:, rows.shape[1]:].any(), n  # the pad byte of an odd width
        assert (ms._packed_ranges(rows, n) == ms.range_values_batch(mat)).all(), n


@pytest.mark.parametrize("base_stream", [0, 9])
def test_word_ranges_of_sample_words_are_naive_ranges(base_stream):
    for n in range(1, 49):
        got = ms._packed_ranges(xp._random_bits(n, 3, range(base_stream, base_stream + 5)), n)
        want = [orc.naive_range(sc.random_sequence(n, sc.SeedSpec(3, base_stream + i)))
                for i in range(5)]
        assert got.tolist() == want, n


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            xp.ExperimentConfig(n_grid=())
        with pytest.raises(ValueError):
            xp.ExperimentConfig(n_grid=(16,), samples=0)
        with pytest.raises(ValueError):
            xp.ExperimentConfig(n_grid=(1,))
        with pytest.raises(ValueError):
            xp.ExperimentConfig(n_grid=(64,), r=1)
        with pytest.raises(ValueError):
            xp.ExperimentConfig(n_grid=(64,), r_max=1)
        for bad in (math.nan, math.inf, -math.inf):
            for key in ("epsilon", "delta", "slack", "min_event_freq", "freq_tol"):
                with pytest.raises(ValueError, match=key):
                    xp.ExperimentConfig(n_grid=(64,), **{key: bad})
            for key in ("theta_grid", "lambda_grid"):
                with pytest.raises(ValueError, match=key):
                    xp.ExperimentConfig(n_grid=(64,), **{key: (20.0, bad)})
        for key in ("delta", "slack"):  # a negative threshold factor or slack
            with pytest.raises(ValueError, match=key):
                xp.ExperimentConfig(n_grid=(64,), **{key: -1.0})
        for seed in (-1, 2 ** 64):  # no SeedSpec names them
            with pytest.raises(ValueError, match="master_seed"):
                xp.ExperimentConfig(n_grid=(64,), master_seed=seed)

    def test_negative_dyadic_p_rejected_up_front(self):
        with pytest.raises(ValueError, match="dyadic_p"):
            xp.ExperimentConfig(n_grid=(64,), lambda_grid=(20.0,), dyadic_p=-1)

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
        assert trend.n == 128

    def test_trend_row_stamped_with_last_measured_n(self):
        cfg = xp.ExperimentConfig(n_grid=(16, 64, 4096), r=3, samples=5, master_seed=1,
                                  work_budget=10 ** 7)  # 4096 is skipped
        assert xp.estimate_expected_ratio(cfg).row("ratio_mean_strictly_increasing").n == 64

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

    def test_all_cells_skipped_rejected_before_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(xp, "_random_bits", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="every cell"):
            xp.check_uniform_upper(xp.ExperimentConfig(n_grid=(2,), r_max=3))
        assert calls == []


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

    def test_every_lambda_checked_before_sampling(self, monkeypatch):
        calls = []
        real = xp._random_bits
        monkeypatch.setattr(xp, "_random_bits", lambda *a: calls.append(a) or real(*a))
        cfg = xp.ExperimentConfig(n_grid=(1024, 4096), samples=10, lambda_grid=(70.0,))
        with pytest.raises(ValueError, match=r"lambda=70 rejected: .* = 128$"):
            xp.check_range_tail(cfg)  # 70 > 2 sqrt(1024) but not 2 sqrt(4096)
        assert calls == []

    def test_one_sample_draw_per_grid_point(self, monkeypatch):
        calls = []
        real = xp._random_bits
        monkeypatch.setattr(xp, "_random_bits", lambda *a: calls.append(a) or real(*a))
        ms._word_tables()  # cached before `_symbols` is patched out
        for name in ("_pack_phases", "_as_matrix", "_symbols"):  # the tail builds no ±1 matrix
            monkeypatch.setattr(ms, name, None)
        cfg = xp.ExperimentConfig(n_grid=(64, 100, 64), samples=8, master_seed=4,
                                  lambda_grid=(21.0, 30.0), dyadic_p=1)
        xp.check_range_tail(cfg)
        assert calls == [(64, 4, range(0, 8)), (100, 4, range(8, 16)), (64, 4, range(16, 24))]

    def test_rows_are_allocated_before_hashing_any_key(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sc, "_philox_keys", lambda *a: calls.append(a))
        cfg = xp.ExperimentConfig(n_grid=(4096,), samples=1 << 50, lambda_grid=(200.0,))
        with pytest.raises(MemoryError):
            xp.check_range_tail(cfg)  # 512 PiB of packed rows, refused by the allocator at once
        assert calls == []

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

    @pytest.mark.parametrize("field,value", [
        ("n", 64.0), ("r", "2"), ("samples", True), ("seed", None), ("statistic", 3),
        ("value", [1]), ("value", None), ("value", False), ("bound", "1.0"), ("verdict", None)])
    def test_json_row_of_a_wrong_type_is_rejected(self, field, value):
        payload = json.loads(xp.emit_report(self._sample_report(), "json"))
        payload["rows"][0][field] = value
        with pytest.raises(ValueError, match=f"field '{field}' has the wrong type"):
            xp.parse_report(json.dumps(payload), "json")

    def test_json_row_numbers_may_be_ints(self):
        payload = json.loads(xp.emit_report(self._sample_report(), "json"))
        payload["rows"][0].update(value=2, bound=3)
        row = xp.parse_report(json.dumps(payload), "json").rows[0]
        assert (row.value, row.bound) == (2, 3)

    @pytest.mark.parametrize("column", ["n", "seed", "statistic", "value", "bound", "verdict"])
    def test_csv_without_a_column_is_rejected(self, column):
        lines = xp.emit_report(self._sample_report(), "csv").splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        drop = lines[header].split(",").index(column)
        for i in range(header, len(lines)):
            lines[i] = ",".join(cell for j, cell in enumerate(lines[i].split(",")) if j != drop)
        with pytest.raises(ValueError, match=f"lacks the columns {column}$"):
            xp.parse_report("\n".join(lines), "csv")

    # cut before its statistic, its value, its bound and its verdict, and padded by one cell
    @pytest.mark.parametrize("cells", [4, 5, 6, 7, 9])
    def test_csv_short_row_is_rejected(self, cells):
        lines = xp.emit_report(self._sample_report(), "csv").splitlines()
        lines[-1] = ",".join((lines[-1].split(",") + ["info"])[:cells])
        with pytest.raises(ValueError):
            xp.parse_report("\n".join(lines), "csv")

    @pytest.mark.parametrize("fmt", xp.FORMATS)
    @pytest.mark.parametrize("field,value,match", [
        ("verdict", "maybe", "verdict 'maybe' is not one of"),
        ("value", math.nan, "'value' is not finite"), ("value", math.inf, "'value' is not finite"),
        ("value", -math.inf, "'value' is not finite"), ("bound", math.inf, "'bound' is not finite")])
    def test_row_of_unknown_verdict_or_nonfinite_number_is_rejected(self, fmt, field, value,
                                                                     match):
        rep = self._sample_report()
        setattr(rep.rows[-1], field, value)  # written as NaN, Infinity, nan or inf
        with pytest.raises(ValueError, match=match):
            xp.parse_report(xp.emit_report(rep, fmt), fmt)

    @pytest.mark.parametrize("field", ["bound", "verdict", "extra"])  # two dropped, one added
    def test_json_row_that_lacks_or_adds_a_field_is_rejected(self, field):
        payload = json.loads(xp.emit_report(self._sample_report(), "json"))
        row = payload["rows"][0]
        if field in row:
            del row[field]
        else:
            row[field] = 1
        with pytest.raises(ValueError, match="must hold the fields"):
            xp.parse_report(json.dumps(payload), "json")

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

    def test_report_without_rows_does_not_pass(self):
        assert xp.ExperimentReport("x", {}, []).passed is False

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

    # Each config reaches a corner of the cell rules: skips at both ends of a
    # trend grid (it must increase strictly) and in mid-grid, every order
    # skipped at one n, a repeated n (two grid points, two sample streams),
    # both band skip reasons, the r = n concentration cell, eps = 0,
    # a dyadic hit and skip, equal extension lengths, extension prefixes that
    # end inside a byte, and tall cells: 200 rows at n = 13 and 20, and 4096 rows
    # at r = 2 and 3.
    PINNED = [
        ("estimate_expected_ratio", dict(n_grid=(64,), r=2, samples=6, master_seed=3),
         "11f59d92204e475f16e7971946f85dcac6a2e9fce79978f3960542f5d68ef7e8",
         "60471fdf9e5dbb23b1e49fbd2b477bafe51fe7d03e15f470e2c397ae1c68ce86"),
        ("estimate_expected_ratio", dict(n_grid=(3, 64, 128, 4096), r=3, samples=6,
                                         master_seed=5, work_budget=10 ** 7),
         "3908131d7afa0f104d82507edf5d147a713a0b36aca7411a5141fa89799cd72a",
         "d7ccb5627c4000fc74885a68c7a2bf218ad8c82cd11200483bc3800d57dffab6"),
        ("check_uniform_upper", dict(n_grid=(2, 3, 24, 64, 64, 900), r_max=4, samples=6,
                                     master_seed=8, work_budget=10 ** 7),
         "c9f3c42febc8f072984da4674217e79082bb98b24341726b728fb2e13cfb6488",
         "e5809ec28699e6ff6050c011cd5848c8f9fdd1ab1b19201519ce7d8e602afdb7"),
        ("check_uniform_upper", dict(n_grid=(64,), r_max=2, samples=6, master_seed=3,
                                     epsilon=0.0),
         "cc926048aa31c380159c1a88f48ef58b6da31e73453951659431c0d6d06de35f",
         "e3c0a376c1e34973211b09652e31c0f636925d90a43571434b07e684ed1d32b9"),
        ("check_theoremA_band", dict(n_grid=(16, 40), r_max=5, samples=6, master_seed=2,
                                     work_budget=10 ** 6),
         "3fc1e4ad27784c8790bf3ceac77819c11df5879ba40bb82e2fbb455ea1260dd7",
         "618c8194be4f4beb624e1e12bcc7364fae505f7b4c0d19279f80fb0d8e56c524"),
        ("check_concentration", dict(n_grid=(3, 4096, 64), r=3, samples=6, master_seed=4,
                                     theta_grid=(0.0, 2.0, 40.0), work_budget=10 ** 7),
         "7ce343b2283d44e12126cff04144279c3c54511facd4fbb0981a36417a88acf1",
         "a0e4e5cfd6903089469715b01524af9f22271df071398d9a8c235036b547fdba"),
        ("check_range_tail", dict(n_grid=(1024, 1000), samples=20, master_seed=6, delta=0.0,
                                  lambda_grid=(66.0, 100.0), dyadic_p=1),
         "9290141587505444912884f8c853d6bfec47fb22a7ec5bc119c5d3f846261a44",
         "847d42d6002a5231d02c43ec9914a7d1f0aedf2ef01a7db1d0d9bc43ac72fd62"),
        ("check_range_tail", dict(n_grid=(1024, 1000), samples=20, master_seed=6, delta=0.0,
                                  lambda_grid=(66.0, 100.0)),
         "6d3808897e4468c291509c26a7d41a905dfc4a052cc9e4fb1ff0779c07d4eab6",
         "05f2d7018db6d5d8d6097709af0011e9c6e07ff9cee5000b7d333d36887adaf1"),
        ("check_extension_difference", dict(n_grid=(32, 32, 48), r=2, samples=6,
                                            master_seed=7),
         "1d954034af18a4abe1acc301279c86671a8cf145dcd4a8cc60111e4b26097b7c",
         "e827c5cf49cdcb3ea34013352e2c39422cf11ce7de5b074c0e49f9941fd7b685"),
        ("check_extension_difference", dict(n_grid=(37, 45, 61), r=2, samples=6,
                                            master_seed=9),
         "c7ca67bd0fbe93c83e80299b7825c9eef2e0228009dc26f054c8d92dcb18ff30",
         "8b67dc491d03791783c0ab830021665c4f4af95a90119adca11a5ab07bbe94fe"),
        ("check_uniform_upper", dict(n_grid=(13, 20), r_max=3, samples=200, master_seed=1),
         "e5f4e51d1c9a0c3f4c758bfe890bc29c8dcf97a76352287c58c17c94873ef98a",
         "97deded6fb003ae007a65f9b66bd470a14886ec05bc90c0afa568a75949cb608"),
        ("check_uniform_upper", dict(n_grid=(13,), r_max=3, samples=4096, master_seed=1),
         "0f62eb1ae0893b616ff52628588914f8807400146b3dc0925e0a81e74aabba6b",
         "3dc7b92b261c18c8a4ec9f1eb867f5093e5571f30cf331856847d042c95767ae"),
    ]

    @pytest.mark.parametrize("name,kwargs,csv_digest,json_digest", PINNED, ids=[
        "ratio_one_cell", "ratio_edge_skips", "uniform_repeated_n", "uniform_eps_zero",
        "band_both_skips", "concentration_r_eq_n", "tail_dyadic_hit_and_skip",
        "tail_no_dyadic", "extension_equal_lengths", "extension_prefixes_inside_a_byte",
        "uniform_tall_rows", "uniform_column_layout"])
    def test_report_bytes_pinned(self, name, kwargs, csv_digest, json_digest):
        rep = getattr(xp, name)(xp.ExperimentConfig(**kwargs))
        for fmt, digest in (("csv", csv_digest), ("json", json_digest)):
            text = xp.emit_report(rep, fmt)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (fmt, text)
            assert xp.parse_report(text, fmt) == rep

    def test_rerun_bytes_identical(self):
        cfg = xp.ExperimentConfig(n_grid=(64, 128), r=2, samples=40, master_seed=13)
        a = xp.emit_report(xp.estimate_expected_ratio(cfg, workers=1), "csv")
        b = xp.emit_report(xp.estimate_expected_ratio(cfg, workers=4), "csv")
        assert a == b
