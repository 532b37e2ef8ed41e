"""Command-line surface.

Subcommands: measure, scan, trend (alias expect), bounds, oracle, tail, report.
Data goes to stdout (JSON lines or CSV, each stream starting with a header
that echoes the resolved flags); logs go to stderr. Exit codes: 0 success,
1 failed verdict, 2 usage or input error. CORRLAB_SEED provides the default
master seed.

Each `_cmd_*` handler maps parsed args to `(stdout text, ok)`. `run()` is the
only stdout writer: it writes once, after the handler returns, so an input
error (exit 2) leaves stdout empty, and it maps `ok` to exit 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import bounds, experiments, measures, oracles, seqcore
from .errors import ParseError, ResourceLimitError


def _load_sequences(path: str | None) -> list[seqcore.BinarySequence]:
    if path is None:
        raise ValueError("--file is required")
    text = Path(path).read_text(encoding="ascii")
    seqs = seqcore.read_sequence_lines(text)
    if not seqs:
        raise ParseError(f"no sequences found in {path}")
    return seqs


def _parse_list(text: str, cast=int) -> list:
    return [cast(tok) for tok in text.split(",") if tok.strip()]


def _parse_orders(text: str) -> list[int]:
    """Either a single order '3' or an inclusive span '2..5'."""
    if ".." in text:
        lo, hi = (int(tok) for tok in text.split("..", maxsplit=1))
        if hi < lo:
            raise ValueError(f"order span {text!r} is empty")
        return list(range(lo, hi + 1))
    return [int(text)]


def _json_lines(records) -> str:
    return "".join(json.dumps(record, allow_nan=False) + "\n" for record in records)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_measure(args) -> tuple[str, bool]:
    seqs = _load_sequences(args.file)
    records = [{"command": "measure", "file": args.file, "order": args.order,
                "sampled": bool(args.sampled), "budget": args.budget, "seed": args.seed}]
    for idx, seq in enumerate(seqs):
        if args.sampled:
            result = measures.correlation_measure_sampled(
                seq, args.order, args.budget,
                seqcore.SeedSpec(args.seed, idx), work_budget=args.work_budget)
        else:
            result = measures.correlation_measure_exact(
                seq, args.order, work_budget=args.work_budget)
        records.append({"index": idx, "n": seq.length, **result.to_dict()})
    return _json_lines(records), True


def _cmd_scan(args) -> tuple[str, bool]:
    orders = _parse_orders(args.orders)
    seqs = _load_sequences(args.file)
    lines = [f"# scan file={args.file} orders={args.orders}\n", "index,n,order,value\n"]
    for idx, seq in enumerate(seqs):
        for r in orders:
            result = measures.correlation_measure_exact(seq, r,
                                                        work_budget=args.work_budget)
            lines.append(f"{idx},{seq.length},{r},{result.value}\n")
    return "".join(lines), True


def _report_text(report: experiments.ExperimentReport, fmt: str) -> tuple[str, bool]:
    text = experiments.emit_report(report, fmt)
    if report.wall_time_s is not None:
        print(f"[{report.experiment}] wall time {report.wall_time_s:.2f}s",
              file=sys.stderr)
    return text, report.passed


def _cmd_trend(args) -> tuple[str, bool]:
    cfg = experiments.ExperimentConfig(
        n_grid=tuple(_parse_list(args.n_grid)),
        r=args.order, samples=args.samples, master_seed=args.seed,
        work_budget=args.work_budget)
    report = experiments.estimate_expected_ratio(cfg, workers=args.workers)
    return _report_text(report, args.format)


def _cmd_bounds(args) -> tuple[str, bool]:
    uses = () if args.check == "welch" else ("n", "exhaustive") if args.exhaustive else ("file",)
    unused = [f"--{key}" for key in ("n", "file", "exhaustive")
              if getattr(args, key) is not None and key not in uses]
    if unused:
        raise ValueError(f"{', '.join(unused)} not used by --check {args.check} (--n goes "
                         "with --exhaustive, --file without it, welch takes neither)")
    if args.exhaustive and args.n is None:
        raise ValueError(f"--check {args.check} --exhaustive needs --n")
    if args.check == "theoremC":
        header = {"command": "bounds", "check": "theoremC", "n": args.n,
                  "r": args.r, "exhaustive": bool(args.exhaustive)}
        if args.exhaustive:
            reports = [bounds.certify_theoremC_all(args.n, args.r,
                                                   workers=args.workers)]
        else:
            seqs = _load_sequences(args.file)
            reports = [bounds.certify_theoremC(s, args.r) for s in seqs]
    elif args.check == "max":
        header = {"command": "bounds", "check": "max", "n": args.n,
                  "s": args.s, "exhaustive": bool(args.exhaustive)}
        if args.exhaustive:
            reports = bounds.certify_theorem_max_all(args.n, [args.s],
                                                     workers=args.workers)
        else:
            seqs = _load_sequences(args.file)
            reports = [bounds.certify_theorem_max(s, args.s) for s in seqs]
    else:  # welch
        header = {"command": "bounds", "check": "welch", "ell": args.ell,
                  "m": args.m, "k": args.k, "families": args.families,
                  "seed": args.seed}
        reports = bounds.certify_welch_families(args.ell, args.m, args.k,
                                                args.families, args.seed)
    return (_json_lines([header, *(report.to_dict() for report in reports)]),
            all(report.satisfied for report in reports))


def _cmd_oracle(args) -> tuple[str, bool]:
    check = args.check
    ok, rows = True, []
    if check == "naive":
        seqs = _load_sequences(args.file)
        record = {"order": args.order}
        rows = [{"index": idx, "n": seq.length,
                 "value": oracles.naive_correlation_measure(seq, args.order)}
                for idx, seq in enumerate(seqs)]
    elif check == "even" and args.entries:
        entries = tuple(_parse_list(args.entries))
        degree = oracles.evenness_degree(entries)
        record = {"entries": list(entries), "evenness_degree": degree,
                  "even": degree == len(entries) // 2}
    elif check == "even":
        count = oracles.count_even_tuples(args.m, args.q)
        bound = bounds.double_factorial_odd(args.q) * args.m ** args.q
        ok = count <= bound
        record = {"m": args.m, "q": args.q, "count": count, "bound": bound,
                  "satisfied": ok}
    elif check == "constrained":
        u = measures.ShiftTuple((args.u,))
        v = measures.ShiftTuple((args.v,))
        count = oracles.count_constrained_even(args.n, args.q, args.t, u, v)
        bound = oracles.constrained_even_bound(args.n, args.q, args.t)
        ok = count <= bound
        record = {"n": args.n, "q": args.q, "t": args.t, "u": args.u, "v": args.v,
                  "count": count, "bound": bound, "satisfied": ok}
    elif check == "moment":
        u = measures.ShiftTuple(tuple(_parse_list(args.u_offsets)))
        v = measures.ShiftTuple(tuple(_parse_list(args.v_offsets)))
        mc = oracles.exact_moment(args.n, u, v, args.p, args.h)
        ok = mc.satisfied
        record = mc.to_dict()
    elif check == "tail":
        u = measures.ShiftTuple(tuple(_parse_list(args.u_offsets)))
        prob = oracles.exact_tail(args.n, u, args.lam)
        record = {"n": args.n, "u": list(u.offsets), "lam": args.lam,
                  "probability": str(prob), "probability_float": float(prob)}
    else:  # expect
        expectation = oracles.exact_expected_measure(args.n, args.order)
        record = {"n": args.n, "order": args.order, "expectation": str(expectation),
                  "expectation_float": float(expectation)}
    return _json_lines([{"command": "oracle", "check": check, **record}, *rows]), ok


def _cmd_tail(args) -> tuple[str, bool]:
    lams = tuple(c * math.sqrt(args.n) for c in _parse_list(args.lambda_mults, float))
    cfg = experiments.ExperimentConfig(
        n_grid=(args.n,), samples=args.samples, master_seed=args.seed,
        delta=args.delta, lambda_grid=lams, slack=args.slack,
        dyadic_p=args.dyadic_p)
    report = experiments.check_range_tail(cfg, workers=args.workers)
    return _report_text(report, args.format)


def _cmd_report(args) -> tuple[str, bool]:
    text = Path(args.input).read_text(encoding="utf-8")
    report = experiments.parse_report(text, "json")
    return experiments.emit_report(report, args.to), True


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, workers=True, seed=True, fmt=False, budget=False):
    if workers:
        sub.add_argument("--threads", type=int, default=1, dest="workers",
                         help="accepted for compatibility: the work runs serially "
                              "and output is identical for any count (default 1)")
    if seed:
        sub.add_argument("--seed", type=int,  # None: not given, resolved after parsing
                         help="master seed (default: CORRLAB_SEED or 0)")
    if fmt:
        sub.add_argument("--format", choices=experiments.FORMATS, default="csv",
                         help="report format (default csv)")
    if budget:
        sub.add_argument("--work-budget", type=int,
                         default=measures.DEFAULT_WORK_BUDGET,
                         help="step budget, tuples x sequence length (default 1e9)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlab",
        description="Correlation measures of ±1 sequences: exact values, "
                    "lower-bound certificates, and Monte Carlo checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("measure", help="correlation measure per input sequence")
    p.add_argument("--file", required=True, help="sequence file, one per line")
    p.add_argument("--order", type=int, required=True, help="correlation order r >= 2")
    p.add_argument("--sampled", action="store_true",
                   help="random-tuple lower bound instead of exact enumeration")
    p.add_argument("--budget", type=int, default=10_000,
                   help="tuples to sample with --sampled (default 10000)")
    _add_common(p, workers=False, budget=True)
    p.set_defaults(func=_cmd_measure)

    p = subs.add_parser("scan", help="CSV of exact C_r over a span of orders")
    p.add_argument("--file", required=True)
    p.add_argument("--orders", required=True, help="single order '3' or span '2..5'")
    _add_common(p, workers=False, seed=False, budget=True)
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("trend", aliases=["expect"],
                        help="normalized-measure means across a length grid")
    p.add_argument("--n-grid", required=True, help="comma list of lengths")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--samples", type=int, default=200)
    _add_common(p, fmt=True, budget=True)
    p.set_defaults(func=_cmd_trend)

    p = subs.add_parser("bounds", help="minimum-value and scalar-product certificates")
    p.add_argument("--check", choices=("theoremC", "max", "welch"), required=True)
    p.add_argument("--n", type=int, help="sequence length (exhaustive modes)")
    p.add_argument("--r", type=int, default=1, help="half-order for theoremC")
    p.add_argument("--s", type=int, default=1, help="max order count for max check")
    p.add_argument("--exhaustive", action="store_true", default=None,  # None: not given
                   help="scan all 2^n sequences instead of reading --file")
    p.add_argument("--file", help="sequence file for per-sequence certificates")
    p.add_argument("--ell", type=int, default=8, help="vector length (welch)")
    p.add_argument("--m", type=int, default=16, help="family size (welch)")
    p.add_argument("--k", type=int, default=1, help="exponent parameter (welch)")
    p.add_argument("--families", type=int, default=1,
                   help="random families to test (welch)")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("oracle", help="brute-force reference computations")
    p.add_argument("--check", choices=("naive", "even", "constrained", "moment",
                                       "tail", "expect"), required=True)
    p.add_argument("--file", help="sequence file (naive)")
    p.add_argument("--order", type=int, default=2, help="order r (naive, expect)")
    p.add_argument("--entries", help="comma list: tuple for evenness degree (even)")
    p.add_argument("--m", type=int, default=3, help="alphabet size (even count)")
    p.add_argument("--q", type=int, default=1, help="half tuple length (even, constrained)")
    p.add_argument("--n", type=int, default=8, help="range/length parameter")
    p.add_argument("--t", type=int, default=0, help="degree deficit (constrained)")
    p.add_argument("--u", type=int, default=1, help="first offset (constrained)")
    p.add_argument("--v", type=int, default=2, help="second offset (constrained)")
    p.add_argument("--u-offsets", default="1", help="comma offsets of u (moment, tail)")
    p.add_argument("--v-offsets", default="2", help="comma offsets of v (moment)")
    p.add_argument("--p", type=int, default=1, help="moment exponent")
    p.add_argument("--h", type=int, default=0, help="moment split parameter, 0 <= h < p")
    p.add_argument("--lam", type=float, default=0.0, help="tail threshold")
    _add_common(p, workers=False, seed=False)
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("tail", help="Monte Carlo walk-range tail check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--lambda-mults", default="2.1,2.5,3.0",
                   help="comma list c: thresholds lambda = c*sqrt(n)")
    p.add_argument("--slack", type=float, default=0.01)
    p.add_argument("--dyadic-p", type=int, default=None,
                   help="also compare against the dyadic-form bound at this p")
    _add_common(p, fmt=True)
    p.set_defaults(func=_cmd_tail)

    p = subs.add_parser("report", help="re-render a stored JSON report")
    p.add_argument("--input", required=True, help="JSON report file")
    p.add_argument("--to", choices=experiments.FORMATS, default="csv")
    _add_common(p, workers=False, seed=False)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:  # only a subcommand with --seed reads the env
            env_seed = os.environ.get("CORRLAB_SEED", "0")
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise ValueError(f"CORRLAB_SEED must be an integer, got {env_seed!r}") from None
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--threads must be >= 1, got {args.workers}")
        text, ok = args.func(args)
    except SystemExit as exc:  # argparse has printed usage or help
        return int(exc.code or 0)
    except (ParseError, ResourceLimitError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if ok else 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
