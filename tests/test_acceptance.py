"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The four Monte Carlo experiments come from session fixtures that hold the
workers=1 and workers=8 runs (criterion 12 compares their emissions byte for
byte). Criteria 8-12, the only users of those fixtures, are marked `slow`.
"""

from itertools import product

import numpy as np
import pytest

from corrlab import bounds as bd
from corrlab import experiments as xp
from corrlab import measures as ms
from corrlab import oracles as orc
from corrlab import seqcore as sc

from conftest import ACCEPTANCE_SEED


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_oracle_equivalence():
    ok = True
    for n in range(2, 11):
        for r in (2, 3, 4):
            if r > n:
                continue
            for seq in sc.enumerate_all(n):
                if orc.naive_correlation_measure(seq, r) \
                        != ms.correlation_measure_exact(seq, r).value:
                    ok = False
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for _ in range(1000):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(max(r, 4), 15))
        seq = sc.random_sequence(n, sc.SeedSpec(int(rng.integers(0, 2 ** 63)), 0))
        if orc.naive_correlation_measure(seq, r) \
                != ms.correlation_measure_exact(seq, r).value:
            ok = False
    _verdict(1, "exact measure equals the literal-definition oracle "
                "(exhaustive n<=10, 1000 random cases n<=14)", ok)


def test_criterion_02_range_identity():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 513))
        seq = sc.random_sequence(n, sc.SeedSpec(int(rng.integers(0, 2 ** 63)), 0))
        if ms.range_of_walk(seq) != orc.naive_range(seq):
            ok = False
    _verdict(2, "one-pass walk range equals the quadratic double maximum "
                "(1000 random walks, n<=512)", ok)


def test_criterion_03_even_order_bound_exhaustive():
    ok = True
    for n in range(7, 15):
        for r in (1, 2):
            report = bd.certify_theoremC_all(n, r, workers=2)
            ok = ok and report.satisfied
    _verdict(3, "C_2 > sqrt(floor(n/3)/2) and C_4 > sqrt(floor(n/5)/2) for every "
                "sequence, n in 7..14", ok)


def test_criterion_04_max_bound_exhaustive():
    ok = True
    for n in range(9, 15):
        for report in bd.certify_theorem_max_all(n, workers=2):
            ok = ok and report.satisfied
    _verdict(4, "max{C_2,...,C_2s} > sqrt(s n)/9 for every sequence, "
                "n in 9..14, all s <= n/3", ok)


def test_criterion_05_welch_dominance():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    ok = True
    for _ in range(500):
        ell = int(rng.integers(1, 33))
        m = int(rng.integers(2, 65))
        mat = 1 - 2 * rng.integers(0, 2, size=(m, ell)).astype(np.int8)
        achieved = bd.max_offdiag_scalar(bd.VectorFamily(ell, mat))
        for k in (1, 2, 3):
            wb = bd.welch_bound(ell, m, k)
            if not wb.vacuous and achieved < wb.value - 1e-9:
                ok = False
    _verdict(5, "max off-diagonal scalar product >= the k-th bound for 500 random "
                "±1 families, k in {1,2,3}", ok)


def test_criterion_06_even_tuple_ceilings():
    ok = True
    for m in range(1, 7):
        for q in range(1, 4):
            count = orc.count_even_tuples(m, q)
            if count > bd.double_factorial_odd(q) * m ** q:
                ok = False
    for n in (3, 4, 5):
        for q in (1, 2):
            for t in range(q):
                for u2, v2 in product(range(1, n), repeat=2):
                    if u2 == v2:
                        continue
                    count = orc.count_constrained_even(
                        n, q, t, ms.ShiftTuple((u2,)), ms.ShiftTuple((v2,)))
                    if count > orc.constrained_even_bound(n, q, t):
                        ok = False
    _verdict(6, "even-tuple counts stay under (2q-1)!! m^q and the constrained "
                "counts under (8q-1)!! n^(2q-(t+1)/3)", ok)


def test_criterion_07_moment_bound():
    ok = True
    u = ms.ShiftTuple((1,))
    for n in range(8, 15):
        for v_off in ((2,), (3,)):
            v = ms.ShiftTuple(v_off)
            for p in (1, 2):
                for h in range(p):
                    if not orc.exact_moment(n, u, v, p, h).satisfied:
                        ok = False
    _verdict(7, "exact E[(S_u S_v)^(2p)] <= the pairing-count ceiling for "
                "n in 8..14, p in {1,2}, all valid h", ok)


@pytest.mark.slow
def test_criterion_08_convergence_trend(trend_reports):
    report = trend_reports[0]
    means = report.values("ratio_mean")
    increasing = report.row("ratio_mean_strictly_increasing").verdict == "pass"
    in_band = 0.6 < means[-1] < 1.1
    _verdict(8, f"normalized-measure means {['%.4f' % m for m in means]} increase "
                "strictly with n and the largest sits in (0.6, 1.1)",
             increasing and in_band and len(means) == 3)


@pytest.mark.slow
def test_criterion_09_uniform_upper(uniform_reports):
    report = uniform_reports[0]
    freq = report.row("uniform_event_freq").value
    _verdict(9, f"joint event C_r <= 1.5 * normalization for r in 2..3 at n=512 "
                f"has frequency {freq:.3f} >= 0.95", freq >= 0.95)


@pytest.mark.slow
def test_criterion_10_concentration(concentration_reports):
    report = concentration_reports[0]
    ok = all(row.verdict == "pass" for row in report.rows
             if row.statistic.startswith("exceedance_freq"))
    _verdict(10, "exceedance of |C_2 - mean| at theta/sqrt(2 r^2 n) in "
                 "{1.5, 2, 2.5} stays under 2 exp(-theta^2/(2 r^2 n)) + 0.02", ok)


@pytest.mark.slow
def test_criterion_11_range_tail(range_tail_reports):
    report = range_tail_reports[0]
    ok = all(row.verdict == "pass" for row in report.rows
             if row.statistic.startswith("tail_freq"))
    _verdict(11, "Pr[R_n > 2 lambda] at lambda in {2.1, 2.5, 3} sqrt(n) stays "
                 "under (log n) exp(-lambda^2/(2n)) + 0.01 at n=4096", ok)


@pytest.mark.slow
def test_criterion_12_determinism(trend_reports, uniform_reports,
                                  concentration_reports, range_tail_reports):
    ok = True
    for pair in (trend_reports, uniform_reports, concentration_reports,
                 range_tail_reports):
        for fmt in ("csv", "json"):
            if xp.emit_report(pair[0], fmt) != xp.emit_report(pair[1], fmt):
                ok = False
    _verdict(12, "every experiment emits byte-identical reports at 1 and at 8 "
                 "workers", ok)
