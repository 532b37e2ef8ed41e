"""The benchmark's two workloads: seeded inputs, the CLI calls of one round,
their work counts, computed buffer sizes and output checks.

A round is the fixed list of `corrlab` CLI invocations a workload repeats.
`tuples` runs every command that enumerates shift tuples: a `trend` run (the
batch kernel on wide rows, on the worker pool), two exhaustive `bounds`
checks (the batch kernel on 2^n short rows) and two `measure` runs (the
single-sequence exact and sampled paths). `tail` runs the walk-range tail
check, which samples sequences and enumerates no tuple.

The benchmark seed only generates inputs: the sequence file of the `measure`
calls and the `--seed` flag of `trend`, `tail` and the sampled `measure`. The
exhaustive checks enumerate every sequence, so they ignore the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import corrlab
from corrlab import experiments

NAMES = ("tuples", "tail")
DEFAULT_SEED = 0

# Threads for the `trend` call, whose kernel runs on the worker pool; the
# other calls use one.
THREADS = len(os.sched_getaffinity(0))

# Shapes. Sizes are scaled down from the README command lines so a call takes
# 0.2 to 0.7 s and a run repeats each call often; each call stays in its regime.
TREND_GRID = (16, 2048)
TREND_ORDER = 2
TREND_SAMPLES = 40
TAIL_N = 4096
TAIL_SAMPLES = 5_000
MAX_N, MAX_S = 12, 4
THEOREMC_N, THEOREMC_R = 18, 1
WITNESS_N = 256
WITNESS_SEQS = 1
WITNESS_EXACT_ORDER = 3
WITNESS_SAMPLED_ORDER = 6
WITNESS_BUDGET = 10_000

# sha256 of each call's normalised stdout at DEFAULT_SEED, taken at the seed
# commit. Report bytes are part of the CLI contract, so these never change.
PINNED_DIGESTS = {
    "trend": "f87e90a59351a08dbfd1d24e8810edb34bd1c952fbc78ad6cf088c16cebcd498",
    "tail": "b75c006b83a0dd6b183d370df16a2d3e812c0e4ac96a786bf862edab6af5cb8b",
    "exhaustive.max": "815eb30fd0992abee5b529665228c18c5e255fa41ee676c113f2eeee99d7f33c",
    "exhaustive.theoremC": "93e2961164035a81b6919d8e99dc7429a3bfed37f956fa1dfc86ebc530a82e58",
    "witness.exact": "549068f98b3f9534a46aa1edd2691d3b99926b57d0b348fbc8e601fa7791ba66",
    "witness.sampled": "0264760c8dd1c4c186a0346a2f8f8d0aa3776ab6af89d90489d014483cf8f9d7",
}

# The yardstick's times on the machine the benchmark was defined on (2-core
# shared VM, Python 3.11.7, numpy 2.4.6): each call's fastest run and the
# median set-up, as medians over five runs. End-to-end times are the
# program's time relative to the yardstick, in these seconds.
YARDSTICK_S = {
    "trend": 0.445,
    "exhaustive.max": 0.440,
    "exhaustive.theoremC": 0.716,
    "witness.exact": 0.329,
    "witness.sampled": 0.228,
    "tail": 0.354,
    "setup.tuples": 0.220,
    "setup.tail": 0.160,
}

# Worst case over all sequences; independent of the seed.
PINNED_ACHIEVED = {"max": 6.0, "theoremC": 5.0}


def _same(stdout: str) -> str:
    return stdout


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its arguments, the elements it processes
    (rows x tuples x sequence length) and a check of its stdout."""

    label: str
    argv: tuple[str, ...]
    elements: int
    check: Callable[[str], str | None]  # returns why the output is wrong, or None
    normalize: Callable[[str], str] = _same  # applied to stdout before hashing

    def digest(self, stdout: str) -> str:
        return hashlib.sha256(self.normalize(stdout).encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    calls: tuple[Call, ...]
    warmup: tuple[tuple[str, ...], ...]
    buffers: dict[str, int]  # computed from array shapes, not measured

    @property
    def elements(self) -> int:
        return sum(call.elements for call in self.calls)

    @property
    def pinned(self) -> list[str] | None:
        if self.seed != DEFAULT_SEED:
            return None
        return [PINNED_DIGESTS[call.label] for call in self.calls]


# ---------------------------------------------------------------------------
# output checks


def _check_report(stdout: str) -> str | None:
    """The CSV report re-parses, and re-emits the same bytes."""
    try:
        report = experiments.parse_report(stdout, "csv")
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not re-parse: {exc!r}"
    if not report.rows:
        return "report has no rows"
    if experiments.emit_report(report, "csv") != stdout:
        return "re-parsed report does not re-emit the same bytes"
    return None


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()]


def _check_certificate(check: str) -> Callable[[str], str | None]:
    def run(stdout: str) -> str | None:
        try:
            header, *reports = _json_lines(stdout)
            if header.get("check") != check or len(reports) != 1:
                return f"expected a {check} header and one report"
            report = reports[0]
            if report["satisfied"] is not True:
                return f"{check} certificate not satisfied"
            if report["achieved_value"] != PINNED_ACHIEVED[check]:
                return (f"{check} achieved_value {report['achieved_value']} "
                        f"!= pinned {PINNED_ACHIEVED[check]}")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed certificate output: {exc!r}"
        return None
    return run


def _check_witnesses(seqs, order: int, exact: bool) -> Callable[[str], str | None]:
    def run(stdout: str) -> str | None:
        try:
            header, *rows = _json_lines(stdout)
            if header.get("order") != order or len(rows) != len(seqs):
                return f"expected an order-{order} header and {len(seqs)} results"
            for row, seq in zip(rows, seqs):
                result = corrlab.CorrelationResult(
                    row["value"], corrlab.ShiftTuple(tuple(row["witness_tuple"])),
                    tuple(row["witness_window"]), row["exact"])
                if row["exact"] is not exact or result.order != order:
                    return f"result {row['index']} has the wrong order or exactness"
                if corrlab.replay_witness(seq, result) != row["value"]:
                    return f"witness of result {row['index']} does not replay"
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed measure output: {exc!r}"
        return None
    return run


def _drop_file_field(stdout: str) -> str:
    """The `measure` header echoes the --file path, which varies by run directory."""
    first, sep, rest = stdout.partition("\n")
    try:
        header = json.loads(first)
    except ValueError:
        return stdout
    header["file"] = "SEQUENCES"
    return json.dumps(header) + sep + rest


# ---------------------------------------------------------------------------
# workloads


def _write_sequences(path: Path, count: int, n: int, rng: random.Random) -> list:
    lines = []
    for _ in range(count):
        bits = rng.getrandbits(n)
        lines.append("".join("-" if (bits >> j) & 1 else "+" for j in range(n)))
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="ascii")
    return corrlab.read_sequence_lines(text)


def _batch_elements(rows: int, n: int, r: int) -> int:
    return rows * math.comb(n - 1, r - 1) * n


def _args(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _trend(seed: int):
    grid = ",".join(map(str, TREND_GRID))
    rows, n = TREND_SAMPLES, TREND_GRID[-1]
    calls = (Call("trend", _args(f"trend --n-grid {grid} --order {TREND_ORDER}"
                                 f" --samples {TREND_SAMPLES} --threads {THREADS}"
                                 f" --seed {seed}"),
                  sum(_batch_elements(TREND_SAMPLES, m, TREND_ORDER) for m in TREND_GRID),
                  _check_report),)
    warmup = (_args(f"trend --n-grid 64 --order 2 --samples 4 --threads {THREADS}"
                    f" --seed {seed}"),)
    buffers = {"trend.largest_cell_matrix_int8": rows * n,
               "trend.product_int8_all_workers": rows * (n - 1) * THREADS,
               "trend.cumsum_int16_all_workers": 2 * rows * (n - 1) * THREADS}
    return calls, warmup, buffers


def _exhaustive():
    rows_max, rows_c = 1 << MAX_N, 1 << THEOREMC_N
    calls = (
        Call("exhaustive.max",
             _args(f"bounds --check max --n {MAX_N} --s {MAX_S} --exhaustive --threads 1"),
             sum(_batch_elements(rows_max, MAX_N, 2 * k) for k in range(1, MAX_S + 1)),
             _check_certificate("max")),
        Call("exhaustive.theoremC",
             _args(f"bounds --check theoremC --n {THEOREMC_N} --r {THEOREMC_R}"
                   " --exhaustive --threads 1"),
             _batch_elements(rows_c, THEOREMC_N, 2 * THEOREMC_R),
             _check_certificate("theoremC")))
    warmup = (_args("bounds --check max --n 8 --s 2 --exhaustive --threads 1"),
              _args("bounds --check theoremC --n 8 --r 1 --exhaustive --threads 1"))
    buffers = {"exhaustive.enumeration_counters_int64": 8 * rows_c,
               "exhaustive.sequence_matrix_int8": rows_c * THEOREMC_N,
               "exhaustive.product_int8": rows_c * (THEOREMC_N - 1),
               "exhaustive.cumsum_int16": 2 * rows_c * (THEOREMC_N - 1)}
    return calls, warmup, buffers


def _witness(seed: int, workdir: Path):
    rng = random.Random(seed)
    path = workdir / "witness_sequences.txt"
    small = workdir / "witness_warmup.txt"
    seqs = _write_sequences(path, WITNESS_SEQS, WITNESS_N, rng)
    _write_sequences(small, 1, 48, rng)
    k_exact, k_sampled = WITNESS_EXACT_ORDER - 1, WITNESS_SAMPLED_ORDER - 1
    sampled_tuples = min(WITNESS_BUDGET, math.comb(WITNESS_N - 1, k_sampled))
    calls = (
        Call("witness.exact",
             ("measure", "--file", str(path), "--order", str(WITNESS_EXACT_ORDER)),
             WITNESS_SEQS * math.comb(WITNESS_N - 1, k_exact) * WITNESS_N,
             _check_witnesses(seqs, WITNESS_EXACT_ORDER, True), _drop_file_field),
        Call("witness.sampled",
             ("measure", "--file", str(path),
              *_args(f"--order {WITNESS_SAMPLED_ORDER} --sampled"
                     f" --budget {WITNESS_BUDGET} --seed {seed}")),
             WITNESS_SEQS * sampled_tuples * WITNESS_N,
             _check_witnesses(seqs, WITNESS_SAMPLED_ORDER, False), _drop_file_field))
    warmup = (("measure", "--file", str(small), "--order", "3"),
              ("measure", "--file", str(small),
               *_args(f"--order 6 --sampled --budget 200 --seed {seed}")))
    buffers = {"witness.sequence_int8": WITNESS_N,
               "witness.product_int8": WITNESS_N,
               "witness.prefix_int32": 4 * (WITNESS_N + 1)}
    return calls, warmup, buffers


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload `name` for benchmark seed `seed`; input files go to `workdir`."""
    if name == "tail":
        calls = (Call("tail", _args(f"tail --n {TAIL_N} --samples {TAIL_SAMPLES}"
                                    f" --lambda-mults 2.1,2.5,3.0 --seed {seed}"),
                      TAIL_SAMPLES * TAIL_N, _check_report),)
        warmup = (_args(f"tail --n 256 --samples 100 --lambda-mults 2.1,2.5,3.0"
                        f" --seed {seed}"),)
        buffers = {"tail.sequence_matrix_int8": TAIL_SAMPLES * TAIL_N,
                   "tail.cumsum_block_int16": 2 * min(4096, TAIL_SAMPLES) * TAIL_N}
        return Workload(name, seed, calls, warmup, buffers)
    if name == "tuples":
        parts = (_trend(seed), _exhaustive(), _witness(seed, workdir))
        return Workload(name, seed,
                        tuple(call for calls, _, _ in parts for call in calls),
                        tuple(argv for _, warmup, _ in parts for argv in warmup),
                        {key: size for _, _, buffers in parts
                         for key, size in buffers.items()})
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def speedup_matrix(workload: Workload):
    """The matrix of the largest `trend` cell, rebuilt from the same sample
    streams the experiment uses, with its order; None without a `trend` call."""
    if not any(call.label == "trend" for call in workload.calls):
        return None
    cell = len(TREND_GRID) - 1
    n = TREND_GRID[cell]
    rows = [corrlab.random_sequence(n, corrlab.SeedSpec(workload.seed,
                                                        cell * TREND_SAMPLES + i)).to_array()
            for i in range(TREND_SAMPLES)]
    return np.stack(rows), TREND_ORDER
