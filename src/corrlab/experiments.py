"""Monte Carlo harness for the probabilistic behaviour of correlation measures.

Each experiment draws seeded sample sequences, computes exact measures or walk
ranges with the batch kernels, and compares empirical statistics against the
corresponding theoretical bound plus a declared statistical slack. Reports are
bit-identical for a fixed master seed regardless of worker count: every sample
has its own derived stream, and all reductions are exact or fixed-order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import log_binomial
from . import measures
from .seqcore import SeedSpec, _random_bits
from .seqcore import random_sequence  # noqa: F401  (perfbench/tracing.py patches this name)

FORMATS = ("csv", "json")


@dataclass
class ExperimentConfig:
    """Plan for one experiment: sample grid, order(s), seed, and bound parameters."""

    n_grid: tuple[int, ...]
    r: int = 2
    samples: int = 200
    master_seed: int = 0
    r_max: int = 3
    epsilon: float = 0.5
    delta: float = 1.0
    theta_grid: tuple[float, ...] = ()
    lambda_grid: tuple[float, ...] = ()
    slack: float = 0.02
    min_event_freq: float = 0.95
    freq_tol: float = 0.01
    dyadic_p: int | None = None
    work_budget: int = measures.DEFAULT_WORK_BUDGET

    def __post_init__(self):
        self.n_grid = tuple(int(n) for n in self.n_grid)
        self.theta_grid = tuple(float(x) for x in self.theta_grid)
        self.lambda_grid = tuple(float(x) for x in self.lambda_grid)
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if any(n < 2 for n in self.n_grid):
            raise ValueError("all grid lengths must be >= 2")

    def echo(self) -> dict:
        out = asdict(self)
        for key, val in out.items():
            if isinstance(val, tuple):
                out[key] = list(val)
        return out


@dataclass
class StatRow:
    """One (n, r, statistic) cell of a report."""

    n: int
    r: int
    samples: int
    seed: int
    statistic: str
    value: float
    bound: float | None = None
    verdict: str = "info"


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    rows: list[StatRow]
    notes: list[str] = field(default_factory=list)
    wall_time_s: float | None = field(default=None, compare=False)

    @property
    def passed(self) -> bool:
        return not any(row.verdict == "fail" for row in self.rows)

    def row(self, statistic: str, n: int | None = None, r: int | None = None) -> StatRow:
        for row in self.rows:
            if row.statistic == statistic and (n is None or row.n == n) \
                    and (r is None or row.r == r):
                return row
        raise KeyError(f"no row {statistic!r} (n={n}, r={r})")

    def values(self, statistic: str) -> list[float]:
        return [row.value for row in self.rows if row.statistic == statistic]


# ---------------------------------------------------------------------------
# sampling


def _sample_matrix(n: int, samples: int, master_seed: int, base_stream: int) -> np.ndarray:
    """Row i is random_sequence(n, SeedSpec(master_seed, base_stream + i)) as ±1 symbols."""
    mat = np.empty((samples, n), dtype=np.int8)
    for i in range(samples):
        mat[i] = 1 - 2 * _random_bits(n, SeedSpec(master_seed, base_stream + i)).astype(np.int8)
    return mat


def _exact_feasible(n: int, r: int, budget: int) -> bool:
    return 2 <= r <= n and math.comb(n - 1, r - 1) * n <= budget


def _mean_std_err(values: np.ndarray) -> tuple[float, float, float]:
    mean = float(values.mean())
    if values.size > 1:
        std = float(values.std(ddof=1))
    else:
        std = 0.0
    return mean, std, std / math.sqrt(values.size)


# ---------------------------------------------------------------------------
# experiments


def estimate_expected_ratio(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Sample mean of C_r / sqrt(2 n log C(n, r-1)) per grid length.

    With at least two grid points, a trend verdict row records whether the
    means increase strictly with n.
    """
    t0 = time.perf_counter()
    rows: list[StatRow] = []
    notes: list[str] = []
    means: list[float] = []
    r = cfg.r
    for ci, n in enumerate(cfg.n_grid):
        if n <= r or not _exact_feasible(n, r, cfg.work_budget):
            notes.append(f"cell n={n} r={r} skipped: exact measure infeasible")
            continue
        mat = _sample_matrix(n, cfg.samples, cfg.master_seed, ci * cfg.samples)
        values = measures.exact_values_batch(mat, r, workers=workers)
        theta = measures.normalization(n, r).value
        mean, std, err = _mean_std_err(values / theta)
        means.append(mean)
        rows.append(StatRow(n, r, cfg.samples, cfg.master_seed, "ratio_mean", mean))
        rows.append(StatRow(n, r, cfg.samples, cfg.master_seed, "ratio_std", std))
        rows.append(StatRow(n, r, cfg.samples, cfg.master_seed, "ratio_stderr", err))
    if len(means) >= 2:
        increasing = all(a < b for a, b in zip(means, means[1:]))
        rows.append(StatRow(cfg.n_grid[-1], r, cfg.samples, cfg.master_seed,
                            "ratio_mean_strictly_increasing",
                            1.0 if increasing else 0.0, bound=1.0,
                            verdict="pass" if increasing else "fail"))
    return ExperimentReport("expected_ratio", cfg.echo(), rows, notes,
                            wall_time_s=time.perf_counter() - t0)


def check_uniform_upper(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Frequency of {C_r <= (1+eps) sqrt(2 n log C(n, r-1)) for all tested r}.

    Orders run from 2 to r_max; the truncation is recorded in the notes. With
    eps = 0 the frequency is reported without a verdict.
    """
    t0 = time.perf_counter()
    rows: list[StatRow] = []
    notes: list[str] = [f"orders truncated to 2..{cfg.r_max}"]
    for ci, n in enumerate(cfg.n_grid):
        event_ok = np.ones(cfg.samples, dtype=bool)
        mat = _sample_matrix(n, cfg.samples, cfg.master_seed, ci * cfg.samples)
        any_r = False
        for r in range(2, cfg.r_max + 1):
            if n <= r or not _exact_feasible(n, r, cfg.work_budget):
                notes.append(f"cell n={n} r={r} skipped: exact measure infeasible")
                continue
            any_r = True
            values = measures.exact_values_batch(mat, r, workers=workers)
            theta = measures.normalization(n, r).value
            ratios = values / theta
            event_ok &= ratios <= 1.0 + cfg.epsilon
            rows.append(StatRow(n, r, cfg.samples, cfg.master_seed, "worst_ratio",
                                float(ratios.max())))
        if not any_r:
            continue
        freq = float(event_ok.mean())
        verdict = "info" if cfg.epsilon <= 0 else (
            "pass" if freq >= cfg.min_event_freq else "fail")
        rows.append(StatRow(n, 0, cfg.samples, cfg.master_seed, "uniform_event_freq",
                            freq, bound=cfg.min_event_freq, verdict=verdict))
    return ExperimentReport("uniform_upper", cfg.echo(), rows, notes,
                            wall_time_s=time.perf_counter() - t0)


def check_theoremA_band(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Per-order frequency of the two-sided band
    (2/5) sqrt(n log C(n,r)) < C_r < sqrt((2 + loglog n/log n) n log(n C(n,r)))."""
    t0 = time.perf_counter()
    if any(n < 16 for n in cfg.n_grid):
        raise ValueError("band check needs n above e^e, i.e. n >= 16")
    rows: list[StatRow] = []
    notes: list[str] = [f"orders truncated to 2..{cfg.r_max}"]
    for ci, n in enumerate(cfg.n_grid):
        mat = _sample_matrix(n, cfg.samples, cfg.master_seed, ci * cfg.samples)
        for r in range(2, cfg.r_max + 1):
            if 4 * r > n:
                notes.append(f"cell n={n} r={r} skipped: band needs r <= n/4")
                continue
            if not _exact_feasible(n, r, cfg.work_budget):
                notes.append(f"cell n={n} r={r} skipped: exact measure infeasible")
                continue
            values = measures.exact_values_batch(mat, r, workers=workers)
            lo = 0.4 * math.sqrt(n * log_binomial(n, r))
            hi = math.sqrt((2.0 + math.log(math.log(n)) / math.log(n))
                           * n * (math.log(n) + log_binomial(n, r)))
            below = values > lo
            above = values < hi
            freq = float((below & above).mean())
            rows.append(StatRow(n, r, cfg.samples, cfg.master_seed, "lower_freq",
                                float(below.mean())))
            rows.append(StatRow(n, r, cfg.samples, cfg.master_seed, "upper_freq",
                                float(above.mean())))
            rows.append(StatRow(n, r, cfg.samples, cfg.master_seed, "band_freq", freq,
                                bound=cfg.min_event_freq,
                                verdict="pass" if freq >= cfg.min_event_freq else "fail"))
    return ExperimentReport("theoremA_band", cfg.echo(), rows, notes,
                            wall_time_s=time.perf_counter() - t0)


def check_concentration(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Exceedance of |C_r - mean| >= theta against 2 exp(-theta^2 / (2 r^2 n)).

    The sample mean substitutes for the true expectation, so verdicts carry
    the configured slack on top of the bound.
    """
    t0 = time.perf_counter()
    if not cfg.theta_grid:
        raise ValueError("concentration check needs a nonempty theta_grid")
    rows: list[StatRow] = []
    notes: list[str] = ["sample mean substitutes for the true expectation"]
    r = cfg.r
    for ci, n in enumerate(cfg.n_grid):
        if not _exact_feasible(n, r, cfg.work_budget):
            notes.append(f"cell n={n} r={r} skipped: exact measure infeasible")
            continue
        mat = _sample_matrix(n, cfg.samples, cfg.master_seed, ci * cfg.samples)
        values = measures.exact_values_batch(mat, r, workers=workers)
        mean, std, _ = _mean_std_err(values.astype(np.float64))
        rows.append(StatRow(n, r, cfg.samples, cfg.master_seed, "measure_mean", mean))
        rows.append(StatRow(n, r, cfg.samples, cfg.master_seed, "measure_std", std))
        for theta in cfg.theta_grid:
            freq = float((np.abs(values - mean) >= theta).mean())
            bound = 2.0 * math.exp(-theta * theta / (2.0 * r * r * n))
            verdict = "pass" if freq <= bound + cfg.slack else "fail"
            rows.append(StatRow(n, r, cfg.samples, cfg.master_seed,
                                f"exceedance_freq[theta={theta:g}]", freq,
                                bound=bound, verdict=verdict))
    return ExperimentReport("concentration", cfg.echo(), rows, notes,
                            wall_time_s=time.perf_counter() - t0)


def _dyadic_form_ok(n: int, p: int) -> bool:
    """n = j * 2^m with 2^p < j <= 2^{p+1} and m >= 1, for some integer j, m."""
    m = 1
    while n % (1 << m) == 0:
        j = n >> m
        if (1 << p) < j <= (1 << (p + 1)):
            return True
        m += 1
    return False


def check_range_tail(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Walk-range tails against (log n) exp(-lambda^2/(2n)) at threshold
    lambda (1+delta), and against the dyadic-form bound when configured."""
    t0 = time.perf_counter()
    if not cfg.lambda_grid:
        raise ValueError("range-tail check needs a nonempty lambda_grid")
    rows: list[StatRow] = []
    notes: list[str] = []
    for ci, n in enumerate(cfg.n_grid):
        for lam in cfg.lambda_grid:
            if lam <= 2.0 * math.sqrt(n):
                raise ValueError(
                    f"lambda={lam:g} rejected: the tail bounds need lambda > 2 sqrt(n)"
                    f" = {2.0 * math.sqrt(n):g}")
        mat = _sample_matrix(n, cfg.samples, cfg.master_seed, ci * cfg.samples)
        ranges = measures.range_values_batch(mat)
        dyadic_ok = cfg.dyadic_p is not None and _dyadic_form_ok(n, cfg.dyadic_p)
        if cfg.dyadic_p is not None and not dyadic_ok:
            notes.append(f"n={n} lacks the dyadic form j*2^m with "
                         f"2^{cfg.dyadic_p} < j <= 2^{cfg.dyadic_p + 1}; "
                         "dyadic comparison skipped")
        for lam in cfg.lambda_grid:
            freq = float((ranges > lam * (1.0 + cfg.delta)).mean())
            bound = math.log(n) * math.exp(-lam * lam / (2.0 * n))
            verdict = "pass" if freq <= bound + cfg.slack else "fail"
            rows.append(StatRow(n, 0, cfg.samples, cfg.master_seed,
                                f"tail_freq[lambda={lam:g}]", freq,
                                bound=bound, verdict=verdict))
            if dyadic_ok:
                p = cfg.dyadic_p
                factor = 1.0 + 12.0 * 2.0 ** (-p / 2.0)
                dfreq = float((ranges > lam * factor).mean())
                dbound = 2.0 ** (2 * p + 4) * math.exp(-lam * lam / (2.0 * n))
                dverdict = "pass" if dfreq <= dbound + cfg.slack else "fail"
                rows.append(StatRow(n, 0, cfg.samples, cfg.master_seed,
                                    f"dyadic_tail_freq[lambda={lam:g}]", dfreq,
                                    bound=dbound, verdict=dverdict))
    return ExperimentReport("range_tail", cfg.echo(), rows, notes,
                            wall_time_s=time.perf_counter() - t0)


def check_extension_difference(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Differences C_r(A_{n_{k+1}}) - C_r(A_{n_k}) along nested prefixes of one
    stream per sample, against sqrt(10 (n_{k+1}-n_k) log C(n_{k+1}, r-1))."""
    t0 = time.perf_counter()
    grid = cfg.n_grid
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"n_grid must be non-decreasing, got {list(grid)}")
    r = cfg.r
    for n in grid:
        if n <= r or not _exact_feasible(n, r, cfg.work_budget):
            raise ValueError(f"exact C_{r} infeasible or undefined at n={n}")
    rows: list[StatRow] = []
    notes: list[str] = []
    n_max = grid[-1]
    mat = _sample_matrix(n_max, cfg.samples, cfg.master_seed, 0)
    per_n = [measures.exact_values_batch(mat[:, :n], r, workers=workers) for n in grid]
    for k in range(len(grid) - 1):
        n_lo, n_hi = grid[k], grid[k + 1]
        diff = per_n[k + 1] - per_n[k]
        bound = math.sqrt(10.0 * (n_hi - n_lo) * log_binomial(n_hi, r - 1))
        vfreq = float((diff > bound).mean())
        mfreq = float((diff < 0).mean())
        rows.append(StatRow(n_hi, r, cfg.samples, cfg.master_seed,
                            f"difference_violation_freq[{n_lo}->{n_hi}]", vfreq,
                            bound=cfg.freq_tol,
                            verdict="pass" if vfreq <= cfg.freq_tol else "fail"))
        rows.append(StatRow(n_hi, r, cfg.samples, cfg.master_seed,
                            f"monotone_violation_freq[{n_lo}->{n_hi}]", mfreq,
                            bound=0.0, verdict="pass" if mfreq == 0.0 else "fail"))
    return ExperimentReport("extension_difference", cfg.echo(), rows, notes,
                            wall_time_s=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# serialization


def _float_text(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def emit_report(report: ExperimentReport, fmt: str, include_timing: bool = False) -> str:
    """Render a report as CSV or JSON. Timing is volatile and excluded by
    default so that identical configurations emit identical bytes."""
    if fmt == "json":
        payload = {
            "experiment": report.experiment,
            "config": report.config,
            "rows": [asdict(row) for row in report.rows],
            "notes": list(report.notes),
        }
        if include_timing and report.wall_time_s is not None:
            payload["wall_time_s"] = report.wall_time_s
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# experiment {report.experiment}\n")
        buf.write(f"# config {json.dumps(report.config)}\n")
        for note in report.notes:
            buf.write(f"# note {note}\n")
        if include_timing and report.wall_time_s is not None:
            buf.write(f"# wall_time_s {report.wall_time_s:.3f}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "r", "samples", "seed", "statistic", "value",
                         "bound", "verdict"])
        for row in report.rows:
            writer.writerow([row.n, row.r, row.samples, row.seed, row.statistic,
                             _float_text(row.value), _float_text(row.bound),
                             row.verdict])
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")


def parse_report(text: str, fmt: str) -> ExperimentReport:
    """Inverse of emit_report (timing, when present, is not restored)."""
    if fmt == "json":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a JSON report must be an object")
        payload.setdefault("notes", [])
        for key, kind in (("experiment", str), ("config", dict), ("rows", list), ("notes", list)):
            if not isinstance(payload.get(key), kind):
                raise ValueError(f"JSON report field {key!r} is missing or not a {kind.__name__}")
        try:
            rows = [StatRow(**row) for row in payload["rows"]]
        except TypeError as exc:  # a row that is not an object, or lacks or adds a field
            raise ValueError(f"invalid JSON report row: {exc}") from None
        return ExperimentReport(payload["experiment"], payload["config"], rows, payload["notes"])
    if fmt == "csv":
        experiment = ""
        config: dict = {}
        notes: list[str] = []
        data_lines: list[str] = []
        for line in text.splitlines():
            if line.startswith("# experiment "):
                experiment = line[len("# experiment "):]
            elif line.startswith("# config "):
                config = json.loads(line[len("# config "):])
            elif line.startswith("# note "):
                notes.append(line[len("# note "):])
            elif line.startswith("#"):
                continue
            elif line:
                data_lines.append(line)
        rows = []
        reader = csv.DictReader(data_lines)
        for rec in reader:
            rows.append(StatRow(
                n=int(rec["n"]), r=int(rec["r"]), samples=int(rec["samples"]),
                seed=int(rec["seed"]), statistic=rec["statistic"],
                value=float(rec["value"]),
                bound=float(rec["bound"]) if rec["bound"] else None,
                verdict=rec["verdict"]))
        return ExperimentReport(experiment, config, rows, notes)
    raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
