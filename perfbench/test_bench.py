"""Self-test of the benchmark: output checks reject corrupted stdout, the
yardstick is intact and answers, span arithmetic is right on a synthetic tree,
and tracing leaves no patch behind.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

cli, workloads, tracing = run._import_library()
from corrlab import experiments, seqcore  # noqa: E402


def _change_last_digit(text: str) -> str:
    match = list(re.finditer(r"\d", text))[-1]
    digit = str((int(match.group()) + 1) % 10)
    return text[:match.start()] + digit + text[match.end():]


def _checked(workload, index, stdout):
    checker = run.Checker(workload)
    checker.check(index, 0, stdout, "")
    return checker


def _index(workload, label):
    return [call.label for call in workload.calls].index(label)


@pytest.mark.parametrize("name, label", [
    ("tuples", "trend"), ("tuples", "exhaustive.max"), ("tuples", "exhaustive.theoremC"),
    ("tuples", "witness.exact"), ("tuples", "witness.sampled"), ("tail", "tail")])
def test_checker_rejects_one_changed_digit(name, label, tmp_path):
    workload = workloads.build(name, workloads.DEFAULT_SEED, tmp_path)
    index = _index(workload, label)
    call = workload.calls[index]
    rc, stdout, stderr = run._invoke(cli, call.argv)
    assert rc == 0, stderr
    assert _checked(workload, index, stdout).failed == 0
    corrupted = _change_last_digit(stdout)
    assert _checked(workload, index, corrupted).failed == 1
    assert call.digest(corrupted) != workload.pinned[index]


def test_witness_check_rejects_a_wrong_value_without_pins(tmp_path):
    workload = workloads.build("tuples", 7, tmp_path)
    assert workload.pinned is None
    index = _index(workload, "witness.sampled")
    rc, stdout, _ = run._invoke(cli, workload.calls[index].argv)
    checker = run.Checker(workload)
    checker.check(index, rc, stdout, "")
    wrong = stdout.replace('"value": ', '"value": 1', 1)
    checker.check(index, rc, wrong, "")
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "does not replay" in checker.reasons[0]


def test_nonzero_exit_fails():
    workload = workloads.build("tail", 0, Path("."))
    checker = run.Checker(workload)
    checker.check(0, 1, "", "error")
    assert checker.failed == 1


def test_measure_digest_ignores_the_file_path(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.build("tuples", 3, tmp_path / "a")
    b = workloads.build("tuples", 3, tmp_path / "b")
    index = _index(a, "witness.sampled")
    outs = [run._invoke(cli, w.calls[index].argv)[1] for w in (a, b)]
    assert outs[0] != outs[1]
    assert a.calls[index].digest(outs[0]) == b.calls[index].digest(outs[1])


def test_yardstick_holds_the_frozen_library():
    assert run._source_sha256(run.YARDSTICK) == run.YARDSTICK_SHA256


def test_relative_is_the_median_ratio_of_pairs():
    assert run.relative([1.0, 2.0, 9.0], [1.0, 1.0, 1.0]) == pytest.approx(2.0)
    # a slow phase that slows both sides of a pair leaves the ratio alone
    slow = [1.0, 1.8, 1.0, 1.6]
    assert run.relative([0.5 * k for k in slow], slow) == pytest.approx(0.5)


def test_yardstick_runs_a_call_and_stops(tmp_path):
    workload = workloads.build("tuples", 0, tmp_path)
    with run.Yardstick("tuples", 0) as yardstick:
        assert yardstick.run(_index(workload, "witness.sampled")) > 0
    assert yardstick.proc.returncode == 0


def _span(name, start, end, parent, counts=None):
    return tracing.Span(name, start, end, parent, counts)


def test_self_times_on_a_synthetic_tree():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 4.0, 0),
             _span("b", 5.0, 9.0, 0),
             _span("c", 6.0, 7.0, 2)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 4.0, 0),
             _span("b", 3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)
    assert tracing.union_length([(1, 4), (3, 6), (8, 9), (2, 3)]) == pytest.approx(6.0)


def test_round_metrics_on_a_synthetic_tree():
    spans = [_span("cli.run", 0.0, 10.0, -1),
             _span("measures.exact_values_batch", 1.0, 8.0, 0, {"elements": 700}),
             _span("seqcore.to_array", 2.0, 3.0, 1),
             _span("experiments.emit_report", 8.5, 9.0, 0)]
    row = tracing.round_metrics(spans, wall=10.5)
    assert row["trace.uncovered_s"] == pytest.approx(0.5)
    assert row["trace.self_sum_s"] == pytest.approx(10.0)
    assert row["cli.self_s"] == pytest.approx(2.5)
    assert row["measures.exact_values_batch.s"] == pytest.approx(7.0)
    assert row["measures.exact_values_batch.elements_per_s"] == pytest.approx(100.0)
    assert row["measures.share"] == pytest.approx(7.0 / 10.5)
    assert row["experiments.self_s"] == pytest.approx(0.5)
    assert row["seqcore.to_array.s"] == pytest.approx(1.0)
    assert row["bounds.self_s"] == 0.0


def test_tracer_patches_by_name_imports_and_restores_them():
    originals = (experiments.random_sequence, seqcore.BinarySequence.to_array, cli.run)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiments.random_sequence is not originals[0]
        assert experiments.random_sequence is seqcore.random_sequence
        seq = experiments.random_sequence(16, seqcore.SeedSpec(1))
        seq.to_array()
    finally:
        tracer.uninstall()
    assert (experiments.random_sequence, seqcore.BinarySequence.to_array,
            cli.run) == originals
    names = [span.name for span in tracer.take()]
    assert names == ["seqcore.random_sequence", "seqcore.to_array"]
