"""Spans around corrlab's public functions, recorded from outside the library.

`Tracer.install()` rebinds every traced name where its callers look it up:
the module attribute, plus the copies that `experiments` (`random_sequence`)
and `bounds` (`all_sequences_matrix`) import by name. `uninstall()` puts the
originals back. Spans stay in memory; the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
from collections import defaultdict
from time import perf_counter

from corrlab import bounds, cli, experiments, measures, seqcore


def _rows(args, result) -> dict:
    return {"rows": int(result.shape[0])}


def _batch_elements(args, result) -> dict:
    rows, n = len(args["seqs"]), len(args["seqs"][0])
    return {"elements": rows * math.comb(n - 1, args["r"] - 1) * n}


def _range_elements(args, result) -> dict:
    rows, n = args["mat"].shape
    return {"elements": rows * n}


def _exact_tuples(args, result) -> dict:
    return {"tuples": math.comb(args["a"].length - 1, args["r"] - 1)}


def _sampled_tuples(args, result) -> dict:
    total = math.comb(args["a"].length - 1, args["r"] - 1)
    return {"tuples": min(args["tuple_budget"], total)}


def _sequences(args, result) -> dict:
    return {"sequences": 1 << args["n"]}


# span name, objects whose attribute is rebound, attribute, work counter
TARGETS = (
    ("cli.run", (cli,), "run", None),
    ("seqcore.random_sequence", (seqcore, experiments), "random_sequence", None),
    ("seqcore.to_array", (seqcore.BinarySequence,), "to_array", None),
    ("seqcore.all_sequences_matrix", (seqcore, bounds), "all_sequences_matrix", _rows),
    ("seqcore.read_sequence_lines", (seqcore,), "read_sequence_lines", None),
    ("measures.exact_values_batch", (measures,), "exact_values_batch", _batch_elements),
    ("measures.range_values_batch", (measures,), "range_values_batch", _range_elements),
    ("measures.correlation_measure_exact", (measures,), "correlation_measure_exact",
     _exact_tuples),
    ("measures.correlation_measure_sampled", (measures,), "correlation_measure_sampled",
     _sampled_tuples),
    ("bounds.certify_theoremC_all", (bounds,), "certify_theoremC_all", _sequences),
    ("bounds.certify_theorem_max_all", (bounds,), "certify_theorem_max_all", _sequences),
    ("experiments.estimate_expected_ratio", (experiments,), "estimate_expected_ratio", None),
    ("experiments.check_range_tail", (experiments,), "check_range_tail", None),
    ("experiments.emit_report", (experiments,), "emit_report", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, end: float, parent: int, counts=None):
        self.name, self.start, self.end, self.parent = name, start, end, parent
        self.counts = counts

    def to_dict(self, sid: int) -> dict:
        return {"id": sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **(self.counts or {})}


class Tracer:
    """Records a span per call of each TARGETS name while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._stacks, "ids", None)
        if stack is None:
            stack = self._stacks.ids = []
        return stack

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result
        return traced

    def install(self) -> None:
        wrapped = {}
        for name, owners, attr, counter in TARGETS:
            for owner in owners:
                original = owner.__dict__.get(attr)
                if original is None:  # the name moved; its layer then reads zero
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, counter)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# arithmetic over a span tree


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for sid, span in enumerate(spans):
        covered = union_length((max(c.start, span.start), min(c.end, span.end))
                               for c in children[sid])
        out.append(span.end - span.start - covered)
    return out


def _has_ancestor(spans: list[Span], span: Span, prefix: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


LAYER_METRICS = {
    "seqcore.random_sequence.s": "s",
    "seqcore.random_sequence.calls": "count",
    "seqcore.to_array.s": "s",
    "seqcore.all_sequences_matrix.s": "s",
    "seqcore.all_sequences_matrix.rows": "count",
    "seqcore.read_sequence_lines.s": "s",
    "measures.exact_values_batch.s": "s",
    "measures.exact_values_batch.calls": "count",
    "measures.exact_values_batch.elements": "count",
    "measures.exact_values_batch.elements_per_s": "elements/s",
    "measures.range_values_batch.s": "s",
    "measures.range_values_batch.elements": "count",
    "measures.range_values_batch.elements_per_s": "elements/s",
    "measures.correlation_measure_exact.s": "s",
    "measures.correlation_measure_exact.tuples": "count",
    "measures.correlation_measure_exact.tuples_per_s": "tuples/s",
    "measures.correlation_measure_sampled.s": "s",
    "measures.correlation_measure_sampled.tuples": "count",
    "measures.correlation_measure_sampled.tuples_per_s": "tuples/s",
    "measures.workers_speedup": "ratio",
    "measures.share": "ratio",
    "bounds.self_s": "s",
    "bounds.sequences": "count",
    "experiments.self_s": "s",
    "experiments.emit_report.s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def round_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced round of `wall` seconds.

    Sums cover every span of a name; a layer a workload never calls reads 0.
    """
    selfs = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    module_self: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        dur[span.name] += span.end - span.start
        calls[span.name] += 1
        module_self[span.name.split(".")[0]] += own
        for key, value in (span.counts or {}).items():
            counts[f"{span.name}.{key}"] += value
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    in_measures = union_length((s.start, s.end) for s in spans
                               if s.name.startswith("measures.")
                               and not _has_ancestor(spans, s, "measures."))
    out = {
        "seqcore.random_sequence.s": dur["seqcore.random_sequence"],
        "seqcore.random_sequence.calls": calls["seqcore.random_sequence"],
        "seqcore.to_array.s": dur["seqcore.to_array"],
        "seqcore.all_sequences_matrix.s": dur["seqcore.all_sequences_matrix"],
        "seqcore.all_sequences_matrix.rows": counts["seqcore.all_sequences_matrix.rows"],
        "seqcore.read_sequence_lines.s": dur["seqcore.read_sequence_lines"],
        "measures.exact_values_batch.calls": calls["measures.exact_values_batch"],
        "measures.share": in_measures / wall,
        "bounds.self_s": module_self["bounds"],
        "bounds.sequences": (counts["bounds.certify_theoremC_all.sequences"]
                             + counts["bounds.certify_theorem_max_all.sequences"]),
        "experiments.self_s": module_self["experiments"],
        "experiments.emit_report.s": dur["experiments.emit_report"],
        "cli.self_s": module_self["cli"],
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - union_length(roots),
        "trace.self_sum_s": sum(selfs),
    }
    for fn, work in (("exact_values_batch", "elements"), ("range_values_batch", "elements"),
                     ("correlation_measure_exact", "tuples"),
                     ("correlation_measure_sampled", "tuples")):
        name = f"measures.{fn}"
        out[f"{name}.s"] = dur[name]
        out[f"{name}.{work}"] = counts[f"{name}.{work}"]
        out[f"{name}.{work}_per_s"] = _rate(counts[f"{name}.{work}"], dur[name])
    return out
