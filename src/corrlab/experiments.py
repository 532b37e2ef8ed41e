"""Monte Carlo harness for the probabilistic behaviour of correlation measures.

Each experiment draws seeded sample sequences, computes exact measures or walk
ranges with the batch kernels, and compares empirical statistics against the
corresponding theoretical bound plus a declared statistical slack.

The cell contract: grid point ci (the index in n_grid, so a repeated n is a new
point) is drawn once, as packed rows from streams ci * samples on that every cell
reads as they are, and only when one of its (n, r) cells runs; skipped cells are
noted in grid order; `workers` is accepted and changes no work. Every sample has
its own derived stream and all reductions are exact or fixed-order, so reports
are bit-identical for a fixed master seed at any worker count.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import measures
from .measures import log_binomial
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
        SeedSpec(self.master_seed)  # the master seed rule: in [0, 2^64)
        if any(n < 2 for n in self.n_grid):
            raise ValueError("all grid lengths must be >= 2")
        if self.r < 2 or self.r_max < 2:
            raise ValueError(f"orders must be >= 2, got r={self.r}, r_max={self.r_max}")
        if self.dyadic_p is not None and self.dyadic_p < 0:
            raise ValueError(f"dyadic_p must be >= 0, got {self.dyadic_p}")
        for key in ("epsilon", "delta", "slack", "min_event_freq", "freq_tol",
                    "theta_grid", "lambda_grid"):
            if not np.isfinite(getattr(self, key)).all():
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        for key in ("delta", "slack"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")

    def echo(self) -> dict:
        out = asdict(self)
        for key, val in out.items():
            if isinstance(val, tuple):
                out[key] = list(val)
        return out


@dataclass
class StatRow:
    """One (n, r, statistic) cell of a report. Its fields, in order and with
    their types, are the columns of both report formats."""

    n: int
    r: int
    samples: int
    seed: int
    statistic: str
    value: int | float
    bound: int | float | None = None
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
        return bool(self.rows) and not any(row.verdict == "fail" for row in self.rows)

    def row(self, statistic: str, n: int | None = None, r: int | None = None) -> StatRow:
        for row in self.rows:
            if row.statistic == statistic and (n is None or row.n == n) \
                    and (r is None or row.r == r):
                return row
        raise KeyError(f"no row {statistic!r} (n={n}, r={r})")

    def values(self, statistic: str) -> list[float]:
        return [row.value for row in self.rows if row.statistic == statistic]


# ---------------------------------------------------------------------------
# sampling, cells and rows


def _skip_reason(cfg: ExperimentConfig, n: int, r: int, top=lambda n: n - 1,
                 band: bool = False) -> str | None:
    """Why cell (n, r) does not run, or None: the band needs 4r <= n, and an
    exact C_r needs r <= top(n) and C(n-1, r-1) * n <= work_budget."""
    if band and 4 * r > n:
        return "band needs r <= n/4"
    if r > top(n) or math.comb(n - 1, r - 1) * n > cfg.work_budget:
        return "exact measure infeasible"
    return None


def _cells(cfg: ExperimentConfig, orders, notes: list[str], **rule):
    """Yield (grid index, n, r, exact C_r per sample) for each cell that runs,
    noting each skipped cell as the walk reaches it; `rule` goes to `_skip_reason`."""
    if all(_skip_reason(cfg, n, r, **rule) for n in cfg.n_grid for r in orders):
        raise ValueError("every cell of the grid is skipped, so nothing would be measured")
    for ci, n in enumerate(cfg.n_grid):
        bits = None
        for r in orders:
            reason = _skip_reason(cfg, n, r, **rule)
            if reason is not None:
                notes.append(f"cell n={n} r={r} skipped: {reason}")
                continue
            if bits is None:
                bits = _random_bits(n, cfg.master_seed,
                                    range(ci * cfg.samples, (ci + 1) * cfg.samples))
            yield ci, n, r, measures._scan_words(bits, n, r)


def _row(cfg: ExperimentConfig, n: int, r: int, statistic: str, value: float,
         bound: float | None = None, ok: bool | None = None) -> StatRow:
    """A report row; `ok` None gives verdict "info", else "pass" or "fail"."""
    verdict = "info" if ok is None else ("pass" if ok else "fail")
    return StatRow(n, r, cfg.samples, cfg.master_seed, statistic, value, bound, verdict)


def _report(name: str, cfg: ExperimentConfig, rows: list[StatRow], notes: list[str],
            t0: float) -> ExperimentReport:
    return ExperimentReport(name, cfg.echo(), rows, notes, wall_time_s=time.perf_counter() - t0)


def _mean_std_err(values: np.ndarray) -> tuple[float, float, float]:
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, std, std / math.sqrt(values.size)


# ---------------------------------------------------------------------------
# experiments


def estimate_expected_ratio(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Sample mean of C_r / sqrt(2 n log C(n, r-1)) per grid length.

    The grid must be strictly increasing. With at least two grid points, a
    trend verdict row records whether the means increase strictly with n.
    """
    t0 = time.perf_counter()
    if any(b <= a for a, b in zip(cfg.n_grid, cfg.n_grid[1:])):
        raise ValueError(f"n_grid must be strictly increasing, got {list(cfg.n_grid)}")
    rows: list[StatRow] = []
    notes: list[str] = []
    means: list[float] = []
    for _, n, r, values in _cells(cfg, (cfg.r,), notes):
        mean, std, err = _mean_std_err(values / measures.normalization(n, r).value)
        means.append(mean)
        for statistic, value in (("ratio_mean", mean), ("ratio_std", std), ("ratio_stderr", err)):
            rows.append(_row(cfg, n, r, statistic, value))
    if len(means) >= 2:
        increasing = all(a < b for a, b in zip(means, means[1:]))
        # stamped with the last measured n, which a skip can put before the last grid length
        rows.append(_row(cfg, n, cfg.r, "ratio_mean_strictly_increasing",
                         float(increasing), bound=1.0, ok=increasing))
    return _report("expected_ratio", cfg, rows, notes, t0)


def check_uniform_upper(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Frequency of {C_r <= (1+eps) sqrt(2 n log C(n, r-1)) for all tested r}.

    Orders run from 2 to r_max; the truncation is recorded in the notes. With
    eps = 0 the frequency is reported without a verdict.
    """
    t0 = time.perf_counter()
    rows: list[StatRow] = []
    notes: list[str] = [f"orders truncated to 2..{cfg.r_max}"]
    cells = _cells(cfg, range(2, cfg.r_max + 1), notes)
    for _, group in itertools.groupby(cells, key=lambda cell: cell[0]):
        event_ok = np.ones(cfg.samples, dtype=bool)
        for _, n, r, values in group:
            ratios = values / measures.normalization(n, r).value
            event_ok &= ratios <= 1.0 + cfg.epsilon
            rows.append(_row(cfg, n, r, "worst_ratio", float(ratios.max())))
        freq = float(event_ok.mean())
        ok = None if cfg.epsilon <= 0 else freq >= cfg.min_event_freq
        rows.append(_row(cfg, n, 0, "uniform_event_freq", freq, cfg.min_event_freq, ok))
    return _report("uniform_upper", cfg, rows, notes, t0)


def check_theoremA_band(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Per-order frequency of the two-sided band
    (2/5) sqrt(n log C(n,r)) < C_r < sqrt((2 + loglog n/log n) n log(n C(n,r)))."""
    t0 = time.perf_counter()
    if any(n < 16 for n in cfg.n_grid):
        raise ValueError("band check needs n above e^e, i.e. n >= 16")
    rows: list[StatRow] = []
    notes: list[str] = [f"orders truncated to 2..{cfg.r_max}"]
    for _, n, r, values in _cells(cfg, range(2, cfg.r_max + 1), notes, band=True):
        lo = 0.4 * math.sqrt(n * log_binomial(n, r))
        hi = math.sqrt((2.0 + math.log(math.log(n)) / math.log(n))
                       * n * (math.log(n) + log_binomial(n, r)))
        below = values > lo
        above = values < hi
        freq = float((below & above).mean())
        rows.append(_row(cfg, n, r, "lower_freq", float(below.mean())))
        rows.append(_row(cfg, n, r, "upper_freq", float(above.mean())))
        rows.append(_row(cfg, n, r, "band_freq", freq, cfg.min_event_freq,
                         freq >= cfg.min_event_freq))
    return _report("theoremA_band", cfg, rows, notes, t0)


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
    for _, n, r, values in _cells(cfg, (cfg.r,), notes, top=lambda n: n):
        mean, std, _ = _mean_std_err(values.astype(np.float64))
        rows.append(_row(cfg, n, r, "measure_mean", mean))
        rows.append(_row(cfg, n, r, "measure_std", std))
        for theta in cfg.theta_grid:
            freq = float((np.abs(values - mean) >= theta).mean())
            bound = 2.0 * math.exp(-theta * theta / (2.0 * r * r * n))
            rows.append(_row(cfg, n, r, f"exceedance_freq[theta={theta:g}]", freq, bound,
                             freq <= bound + cfg.slack))
    return _report("concentration", cfg, rows, notes, t0)


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
    lambda (1+delta), and against the dyadic-form bound when configured.

    A grid point's rows are sampled whole (`_random_bits`, so too many samples fail before any
    draw), then `measures._packed_ranges` reads them in blocks; no ±1 matrix is built. Its
    floor is the lowest threshold over every lambda and tail (clipped to n, since lambda
    (1+delta) may be infinite), so rows that the popcount bound keeps under it are not read
    exactly, and every `ranges > threshold` count is that of the exact ranges."""
    t0 = time.perf_counter()
    if not cfg.lambda_grid:
        raise ValueError("range-tail check needs a nonempty lambda_grid")
    for n, lam in itertools.product(cfg.n_grid, cfg.lambda_grid):
        if lam <= 2.0 * math.sqrt(n):
            raise ValueError(f"lambda={lam:g} rejected: the tail bounds need lambda"
                             f" > 2 sqrt(n) = {2.0 * math.sqrt(n):g}")
    rows: list[StatRow] = []
    notes: list[str] = []
    p = cfg.dyadic_p
    for ci, n in enumerate(cfg.n_grid):
        # (statistic, threshold factor on lambda, coefficient of exp(-lambda^2/(2n)))
        tails = [("tail_freq", 1.0 + cfg.delta, math.log(n))]
        if p is not None and _dyadic_form_ok(n, p):
            tails.append(("dyadic_tail_freq", 1.0 + 12.0 * 2.0 ** (-p / 2.0), 2.0 ** (2 * p + 4)))
        elif p is not None:
            notes.append(f"n={n} lacks the dyadic form j*2^m with "
                         f"2^{p} < j <= 2^{p + 1}; dyadic comparison skipped")
        floor = math.floor(min(min(cfg.lambda_grid) * min(f for _, f, _ in tails), n))
        streams = range(ci * cfg.samples, (ci + 1) * cfg.samples)
        ranges = measures._packed_ranges(_random_bits(n, cfg.master_seed, streams), n, floor)
        for lam in cfg.lambda_grid:
            for statistic, factor, coef in tails:
                freq = float((ranges > lam * factor).mean())
                bound = coef * math.exp(-lam * lam / (2.0 * n))
                rows.append(_row(cfg, n, 0, f"{statistic}[lambda={lam:g}]", freq, bound,
                                 freq <= bound + cfg.slack))
    return _report("range_tail", cfg, rows, notes, t0)


def check_extension_difference(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Differences C_r(A_{n_{k+1}}) - C_r(A_{n_k}) along nested prefixes of one
    stream per sample, against sqrt(10 (n_{k+1}-n_k) log C(n_{k+1}, r-1))."""
    t0 = time.perf_counter()
    grid = cfg.n_grid
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"n_grid must be non-decreasing, got {list(grid)}")
    r = cfg.r
    for n in grid:
        if _skip_reason(cfg, n, r) is not None:
            raise ValueError(f"exact C_{r} infeasible or undefined at n={n}")
    rows: list[StatRow] = []
    bits = _random_bits(grid[-1], cfg.master_seed, range(cfg.samples))
    per_n = [measures._scan_words(bits, n, r) for n in grid]  # each prefix: the first n bits
    for k, (n_lo, n_hi) in enumerate(zip(grid, grid[1:])):
        diff = per_n[k + 1] - per_n[k]
        bound = math.sqrt(10.0 * (n_hi - n_lo) * log_binomial(n_hi, r - 1))
        vfreq = float((diff > bound).mean())
        mfreq = float((diff < 0).mean())
        rows.append(_row(cfg, n_hi, r, f"difference_violation_freq[{n_lo}->{n_hi}]", vfreq,
                         cfg.freq_tol, vfreq <= cfg.freq_tol))
        rows.append(_row(cfg, n_hi, r, f"monotone_violation_freq[{n_lo}->{n_hi}]", mfreq,
                         0.0, mfreq == 0.0))
    return _report("extension_difference", cfg, rows, [], t0)


# ---------------------------------------------------------------------------
# serialization


_ROW_TYPES = typing.get_type_hints(StatRow)  # the columns; a number is an int or a float
_VERDICTS = ("info", "pass", "fail")


def emit_report(report: ExperimentReport, fmt: str, include_timing: bool = False) -> str:
    """Render a report as CSV or JSON. Timing is volatile and excluded by
    default so that identical configurations emit identical bytes. CSV refuses
    text that `str.splitlines` breaks, which its reader could not read back."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
    payload = {"experiment": report.experiment, "config": report.config,
               "rows": [asdict(row) for row in report.rows], "notes": list(report.notes)}
    if include_timing and report.wall_time_s is not None:
        payload["wall_time_s"] = report.wall_time_s
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    cells = [value for row in payload["rows"] for value in row.values() if isinstance(value, str)]
    if any("".join(t.splitlines()) != t for t in [report.experiment, *payload["notes"], *cells]):
        raise ValueError("a CSV report cannot hold a line break in its name, a note or a cell")
    buf = io.StringIO()
    buf.write(f"# experiment {report.experiment}\n# config {json.dumps(report.config)}\n")
    buf.writelines(f"# note {note}\n" for note in payload["notes"])
    if "wall_time_s" in payload:
        buf.write(f"# wall_time_s {payload['wall_time_s']:.3f}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_ROW_TYPES.keys())
    for row in payload["rows"]:  # a number in 17 digits, which read back exactly
        writer.writerow(value if kind in (int, str) else "" if value is None
                        else format(value, ".17g")
                        for value, kind in zip(row.values(), _ROW_TYPES.values()))
    return buf.getvalue()


def _csv_payload(text: str) -> dict:
    """The JSON payload of a CSV report: its `#` lines, and each cell read as
    its column's type (a number as a float, an empty one as None)."""
    payload: dict = {"experiment": "", "config": {}, "notes": []}
    data: list[str] = []
    for line in text.splitlines():
        if line.startswith("# experiment "):
            payload["experiment"] = line[len("# experiment "):]
        elif line.startswith("# config "):
            payload["config"] = json.loads(line[len("# config "):])
        elif line.startswith("# note "):
            payload["notes"].append(line[len("# note "):])
        elif line and not line.startswith("#"):
            data.append(line)
    header, *records = [*csv.reader(data)] or [[]]
    if missing := [key for key in _ROW_TYPES if key not in header]:
        raise ValueError(f"CSV report lacks the columns {', '.join(missing)}")
    kinds = [_ROW_TYPES.get(key, str) for key in header]
    payload["rows"] = [{key: cell if kind is str else int(cell) if kind is int
                        else float(cell) if cell else None
                        for key, kind, cell in zip(header, kinds, record, strict=True)}
                       for record in records]  # a row of more or fewer cells raises
    return payload


def parse_report(text: str, fmt: str) -> ExperimentReport:
    """Inverse of emit_report (timing, when present, is not restored). Every number
    in `config` must be finite, and every row must hold each field of `StatRow`, of
    its type, a number finite and a verdict one of `_VERDICTS`."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
    payload = json.loads(text) if fmt == "json" else _csv_payload(text)
    if not isinstance(payload, dict):
        raise ValueError("a JSON report must be an object")
    payload.setdefault("notes", [])
    for key, kind in (("experiment", str), ("config", dict), ("rows", list), ("notes", list)):
        if not isinstance(payload.get(key), kind):
            raise ValueError(f"report field {key!r} is missing or not a {kind.__name__}")
    json.dumps(payload["config"], allow_nan=False)  # raises ValueError on a NaN or infinity
    for row in payload["rows"]:
        if not isinstance(row, dict) or row.keys() != _ROW_TYPES.keys():
            raise ValueError(f"a report row must hold the fields {', '.join(_ROW_TYPES)},"
                             f" got {row!r}")
        for key, value in row.items():
            if isinstance(value, bool) or not isinstance(value, _ROW_TYPES[key]):
                raise ValueError(f"report row field {key!r} has the wrong type: {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"report row field {key!r} is not finite: {value!r}")
        if row["verdict"] not in _VERDICTS:
            raise ValueError(f"report row verdict {row['verdict']!r} is not one of {_VERDICTS}")
    rows = [StatRow(**row) for row in payload["rows"]]
    return ExperimentReport(payload["experiment"], payload["config"], rows, payload["notes"])
