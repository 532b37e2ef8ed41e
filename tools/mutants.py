"""Mutation check for the fast kernels and the report reader: every mutant must
fail one of its tests.

    python tools/mutants.py            # run every mutant (about 6 min on a loaded 2-core VM)
    python tools/mutants.py NAME ...   # run the named mutants only

A mutant is a file under src/corrlab, an old text that occurs there exactly
once, the new text that replaces it, and the ids of the tests that must catch
the change. For each mutant the source package is copied to a temporary
directory, the old text is replaced in the copy, and its tests run with
`pytest -x -q` against the copy, which goes first on PYTHONPATH. A mutant is
killed when its tests fail, survives when they pass, and is stale when its
old text no longer occurs exactly once in the current source (the code it
mutated moved or changed). The exit status is 1 unless every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "corrlab"

BLOCKED = "tests/test_properties.py::test_blocked_word_scan_equals_columns_and_naive"
BOUND = "tests/test_properties.py::test_bound_scan_equals_plain_scan_columns_and_naive"
PHASES = "tests/test_properties.py::test_phase_words_are_shifted_packed_rows"
FIRST_N_BITS = "tests/test_properties.py::test_word_scan_reads_the_first_n_bits"
LAYOUTS = "tests/test_properties.py::test_layouts_agree"
COLUMN_WALK = "tests/test_properties.py::test_blocked_column_walk_equals_one_tuple_walk"
BEST_TUPLE = "tests/test_properties.py::test_best_tuple_is_first_maximizer"
SAMPLER = "tests/test_seqcore.py::TestPackedSampler"
RANK_DRAWS = "tests/test_measures.py::TestRankDraws::test_bulk_draw_equals_randrange_loop"
RANGES = "tests/test_measures.py::TestBatchKernels::test_range_batch"
BLOCK_READS = "tests/test_measures.py::TestBatchKernels::test_block_reads_equal_the_whole_matrix_read"
RANK_BLOCKS = "tests/test_measures.py::TestColexEnumeration::test_rank_blocks_enumerate_colex_order"
FLOOR = "tests/test_measures.py::TestBatchKernels::test_floor_reads_max_of_range_and_floor"
SAMPLED_STREAM = "tests/test_properties.py::test_sampled_witness_is_first_in_stream"
REPORTS = "tests/test_experiments.py::TestReports"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("block-rows-share-first-length", "measures.py",
           "np.repeat(n - np.arange(first, last), count)",
           "np.repeat(n - np.full(last - first, first), count)", (BLOCKED,)),
    Mutant("phases-without-spare-word", "measures.py",
           "_pack_phases(rows, n, n // 16 + 1 + spare)",
           "_pack_phases(rows, n, -(-n // 16) + spare)", (BOUND,)),
    Mutant("phases-without-group-word", "measures.py",
           "spare = n // 16 + 1 >= _BOUND_WORDS", "spare = False", (BOUND,)),
    Mutant("span-reads-past-packed-row", "measures.py",
           "cols = min(width, phases.shape[2] - q)", "cols = width", (BOUND,)),
    Mutant("rank-block-drops-last-rank", "measures.py",
           "ranks[start:start + size]", "ranks[start:start + size - 1]",
           (RANK_BLOCKS,)),
    Mutant("plain-read-folds-wrong-axis", "measures.py",
           "ranges.reshape(-1, count).max(axis=0)", "ranges.reshape(count, -1).max(axis=1)",
           (BLOCKED,)),
    Mutant("u2-runs-to-last-offset", "measures.py",
           "upper[0] if upper else n", "upper[-1] if upper else n", (BLOCKED,)),
    Mutant("r2-block-crosses-word-boundary", "measures.py",
           "n + 17 - 16 * words", "n + 33 - 16 * words", (BLOCKED,)),
    # The bound covers the padded walk, of which the product's walk is a prefix, so it
    # holds whatever the bits past the product's length and the pad words are: a mutant
    # that leaves those bits set, or pads with zero words, is equivalent and left out. So
    # are mutants of the r = 2 bound blocks' size alone (dropping the doubling from 16 u_2,
    # or another cap than 4 `_BLOCK_WORDS`): only the speed changes.
    Mutant("span-reads-survivors-at-one-word-count", "measures.py",
           "np.split(read, cuts)", "[read]", (BOUND,)),
    Mutant("bound-drops-slack", "measures.py",
           "mid.min(axis=0) + 32", "mid.min(axis=0)", (BOUND,)),
    Mutant("bound-midpoint-is-group-step", "measures.py",
           "walk[1:] + walk[:-1]", "walk[1:] - walk[:-1]", (BOUND,)),
    Mutant("bound-group-of-30-bits", "measures.py",
           ".view(np.int8) - 16", ".view(np.int8) - 15", (BOUND,)),
    Mutant("bound-int16-past-1024-groups", "measures.py",
           "if groups < 1024 else", "if groups <= 1024 else",
           ("tests/test_measures.py::TestBatchKernels::test_range_bound_at_the_int16_edge",)),
    Mutant("range-pad-bits-not-set", "measures.py",
           "top.take(last | ~keep)", "top.take(last)", (RANGES,)),
    Mutant("range-last-word-offset-dropped", "measures.py",
           "end = walk[:, -1] if full else 0", "end = 0", (RANGES,)),
    Mutant("range-row-words-reversed", "measures.py",
           'block.view("<u2")', 'block.view("<u2")[:, ::-1]', (RANGES,)),
    Mutant("range-block-repeats-edge-row", "measures.py",
           "block = rows[i:i + step]", "block = rows[i - (i > 0):i - (i > 0) + step]",
           (BLOCK_READS,)),
    Mutant("tail-bound-skips-one-above-floor", "measures.py",
           "_range_bound(prod) > floor", "_range_bound(prod) > floor + 1",
           ("tests/test_measures.py::TestBatchKernels::test_floor_at_an_all_clear_row",)),
    Mutant("tail-skipped-rows-read-zero", "measures.py",
           "ranges[:] = floor", "ranges[:] = 0", (FLOOR,)),
    Mutant("tail-floor-from-highest-lambda", "experiments.py",
           "min(cfg.lambda_grid)", "max(cfg.lambda_grid)",
           ("tests/test_cli.py::test_subcommand_stdout_bytes_pinned",)),
    Mutant("empty-matrix-accepted", "measures.py", "if not mat.shape[1]:", "if False:",
           ("tests/test_measures.py::TestBatchKernels::test_rejects_entries_other_than_pm1",)),
    Mutant("phase-shift-off-by-one", "measures.py",
           "packed[p] = pairs >> p", "packed[p] = pairs >> (p + 1)", (PHASES, FIRST_N_BITS)),
    Mutant("phase-high-word-dropped", "measures.py",
           "pairs = w[:, :-1] | w[:, 1:] << 16", "pairs = w[:, :-1]", (PHASES, FIRST_N_BITS)),
    Mutant("column-scan-drops-last-step", "measures.py",
           "(n - columns[-1]).tolist()", "(n - 1 - columns[-1]).tolist()", (LAYOUTS, COLUMN_WALK)),
    Mutant("column-walk-misses-falls", "measures.py",
           "np.minimum(lo, walk, out=lo)", "np.minimum(lo, 0, out=lo)", (LAYOUTS, COLUMN_WALK)),
    Mutant("column-block-walk-not-reset", "measures.py",
           "state[:3] = 0", "state[:0] = 0", (COLUMN_WALK,)),
    Mutant("column-prefix-drops-tuple-early", "measures.py",
           "stop = lengths[start + t - 1]", "stop = lengths[start + t - 1] - (t > 1)",
           (COLUMN_WALK,)),
    # Lane 0 holds word 0's top and bottom, which include the empty prefix, so a clamp of
    # _best_tuple's max at 0 and its min at 0 (the old initial=0) is equivalent and left out.
    Mutant("best-tuple-lane-off-by-one", "measures.py",
           "flat.take(lanes + u)", "flat.take(lanes + u + 1)", (BEST_TUPLE,)),
    Mutant("keep-table-off-by-one", "measures.py",
           "lengths - lanes", "lengths - lanes - 1", (BEST_TUPLE,)),
    Mutant("sampled-tie-keeps-later-block", "measures.py",
           "if ranges[i] > best:", "if ranges[i] >= best:", (SAMPLED_STREAM,)),
    # Each block's ranges go back to their stream positions, so an unstable width order
    # (kind="quicksort") is equivalent and left out; so is another chunk size.
    Mutant("width-order-shortest-first", "measures.py",
           "(width - words).astype(np.uint16)", "words.astype(np.uint16)",
           (BEST_TUPLE, SAMPLED_STREAM)),
    Mutant("ranges-kept-in-width-order", "measures.py",
           "ranges[block] = ", "ranges[start:start + len(block)] = ", (SAMPLED_STREAM,)),
    Mutant("stream-pick-keeps-last-of-equal", "measures.py",
           "i = int(ranges.argmax())", "i = len(ranges) - 1 - int(ranges[::-1].argmax())",
           (SAMPLED_STREAM,)),
    Mutant("running-sum-skips-last-pass", "measures.py",
           "while d < len(x):", "while 2 * d < len(x):",
           ("tests/test_properties.py::test_running_sum_is_cumsum",)),
    Mutant("seed-hash-wrong-multiplier", "seqcore.py", "0x931E8875", "0x931E8876",
           (f"{SAMPLER}::test_keys_are_seed_sequence_states",)),
    Mutant("draw-reads-low-bit", "seqcore.py", "top >>= 7", "top &= 1",
           (f"{SAMPLER}::test_rows_are_numpy_generator_draws",)),
    Mutant("block-last-byte-unmasked", "seqcore.py", "&= 0xFF >> -n % 8", "&= 0xFF",
           (f"{SAMPLER}::test_rows_across_row_blocks",)),
    Mutant("sampler-counter-carried-over", "seqcore.py", 'state["state"]["key"] = key',
           'state["state"].update(key=key, counter=philox.state["state"]["counter"])',
           (f"{SAMPLER}::test_rows_are_numpy_generator_draws",)),
    Mutant("sampler-keeps-output-buffer", "seqcore.py", "philox.state = state",
           'philox.state = {**state, **{key: philox.state[key] for key in ("buffer", '
           '"buffer_pos")}}', (f"{SAMPLER}::test_rows_are_numpy_generator_draws",)),
    Mutant("distinct-ranks-not-deduplicated", "measures.py",  # a pass after repeats overdraws
           "islice(draws, budget - len(ranks))", "islice(draws, budget)",
           (RANK_DRAWS, "tests/test_measures.py::TestRankDraws::test_many_repeats_draw_more")),
    Mutant("rank-draw-one-bit-short", "measures.py", "repeat(total.bit_length())",
           "repeat(total.bit_length() - 1)", (RANK_DRAWS,)),
    Mutant("unrank-searches-left", "measures.py", 'side="right"', 'side="left"',
           ("tests/test_measures.py::TestColexEnumeration::test_vector_unrank_full_spaces",)),
    Mutant("unrank-first-offset-is-rank", "measures.py",
           "1 + rank[:, None]", "rank[:, None]",
           ("tests/test_measures.py::TestColexEnumeration::test_vector_unrank_full_spaces",)),
    Mutant("window-starts-one-early", "measures.py",
           "(min(hi, lo) + 1, ", "(min(hi, lo), ",
           ("tests/test_measures.py::TestCorrelationMeasureExact::test_witness_replay_random",)),
    Mutant("csv-row-cell-count-unchecked", "experiments.py",
           "zip(header, kinds, record, strict=True)", "zip(header, kinds, record)",
           (f"{REPORTS}::test_csv_short_row_is_rejected",)),
    Mutant("report-number-finiteness-unchecked", "experiments.py",
           "and not math.isfinite(value)", "and False",
           (f"{REPORTS}::test_row_of_unknown_verdict_or_nonfinite_number_is_rejected",)),
)


def is_stale(mutant: Mutant) -> bool:
    return (PACKAGE / mutant.file).read_text().count(mutant.old) != 1


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' or 'error' (pytest could not run the tests)."""
    if is_stale(mutant):
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "corrlab"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [tmp, *filter(None, [os.environ.get("PYTHONPATH")])])}
        where = subprocess.run([sys.executable, "-c", "import corrlab; print(corrlab.__file__)"],
                               env=env, cwd=tmp, capture_output=True, text=True, check=True)
        if not where.stdout.startswith(str(copy)):
            raise RuntimeError(f"the tests would import {where.stdout.strip()}, not the mutant")
        # the run's cwd is the temporary directory, so hypothesis keeps no example from it
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--rootdir", str(ROOT), *(str(ROOT / t) for t in mutant.tests)],
                              env=env, cwd=tmp, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # pytest's codes for "all passed" and "some failed"
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n", file=sys.stderr)
        return "error"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    outcomes = {m.name: run(m) for m in chosen}
    for name, outcome in outcomes.items():
        print(f"{outcome:8s} {name}")
    return 0 if all(o == "killed" for o in outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
