#!/usr/bin/env python3
"""corrlab benchmark.

Runs one workload (`--workload NAME`) or, without `--workload`, both, each
in a fresh process. Every invocation calls `corrlab.cli.run(argv)` in-process
with stdout and stderr captured, then checks the output. With `--trace 0` it
prints the end-to-end metrics: each call alternates with the same call run by
a child process on the yardstick, a frozen copy of the library under
yardstick/, and times are reported relative to it (see NOTES.md). With
`--trace 1` it alternates untraced and traced rounds and prints the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload tail --seed 0 --seconds 58 --trace 0
    python3 perfbench/run.py --seconds 58          # both workloads, both modes

Results, with provenance and the spans of the last traced round, are also
written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
YARDSTICK = BENCH_DIR / "yardstick"
# sha256 over yardstick/corrlab/*.py (name, NUL, bytes, in name order): the
# library as it was when the benchmark was defined. It must never change.
YARDSTICK_SHA256 = "6ec2af5e77dda5ddcac82719d6e0b67accc53e4fa69134aba79e5aef26f46114"
NAMES = ("tuples", "tail")
SETUP_PROBES = 6  # set-up pairs (program, yardstick) per run, each in a fresh process
MIN_ROUNDS = 3
END_TO_END_UNITS = {"wall_s": "s", "elements_per_s": "elements/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed warm-up)."""


def _require_sources() -> Path:
    src = ROOT / "src"
    if not (src / "corrlab" / "__init__.py").is_file():
        raise BenchError(f"corrlab sources not found under {src}")
    return src


def _source_sha256(lib_root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((lib_root / "corrlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _import_library(yardstick: bool = False):
    """Import corrlab from this checkout's src/ (or, for the yardstick, from
    yardstick/), never from an installed copy."""
    src = _require_sources()
    if yardstick:
        src = YARDSTICK
        if _source_sha256(src) != YARDSTICK_SHA256:
            raise BenchError(f"{src} differs from the frozen library it must hold")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    os.environ.pop("CORRLAB_SEED", None)  # the workload passes --seed itself
    import corrlab
    from corrlab import cli
    if Path(corrlab.__file__).resolve().parent != (src / "corrlab").resolve():
        raise BenchError(f"imported corrlab from {corrlab.__file__}, not from {src}")
    import tracing
    import workloads
    return cli, workloads, tracing


def _invoke(cli, argv) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(argv))
    except Exception:  # an escaped exception is a failed invocation, not a crash
        return None, out.getvalue(), err.getvalue() + traceback.format_exc()
    return rc, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _workdir():
    """A per-process directory for input files, removed afterwards."""
    path = OUT_DIR / f"inputs-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(name: str, seed: int, workdir: Path, yardstick: bool = False):
    """Import corrlab, generate the inputs and run one small warm-up round."""
    t0 = time.perf_counter()
    cli, workloads, tracing = _import_library(yardstick)
    workload = workloads.build(name, seed, workdir)
    for argv in workload.warmup:
        rc, _, err = _invoke(cli, argv)
        if rc != 0:
            raise BenchError(f"warm-up {' '.join(argv)} exited {rc}: {err.strip()}")
    return cli, workloads, tracing, workload, time.perf_counter() - t0


class Checker:
    """Counts invocations and failed ones. An invocation fails when it exits
    nonzero, its output fails the workload's check, or its stdout digest
    differs from the pinned one (default seed) or from this run's first."""

    def __init__(self, workload):
        self.workload = workload
        self.expected = list(workload.pinned or [None] * len(workload.calls))
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def check(self, index: int, rc, stdout: str, stderr: str) -> None:
        self.attempted += 1
        call = self.workload.calls[index]
        if rc != 0:
            reason = f"exit code {rc}: {stderr.strip()[-500:]}"
        else:
            reason = call.check(stdout)
            digest = call.digest(stdout)
            if reason is None and self.expected[index] is None:
                self.expected[index] = digest
            if reason is None and digest != self.expected[index]:
                reason = f"stdout sha256 {digest} != expected {self.expected[index]}"
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{' '.join(call.argv)}: {reason}")

    def fail(self, reason: str) -> None:
        """A failed benchmark-level check (tracing arithmetic, pool result)."""
        self.failed += 1
        self.attempted += 1
        self.reasons.append(reason)


def timed_round(cli, workload, checker, tracer=None) -> tuple[float, int]:
    """Run every call of the workload once; returns the round's seconds and
    the stdout bytes."""
    results = []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for call in workload.calls:
            results.append(_invoke(cli, call.argv))
        seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    for index, (rc, out, err) in enumerate(results):
        checker.check(index, rc, out, err)
    return seconds, sum(len(out.encode()) for _, out, _ in results)


def _keep_going(start: float, seconds: float, rounds: int, last: float) -> bool:
    return rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds


def probe_setup(name: str, seed: int, yardstick: bool = False) -> float:
    """Set-up time of a fresh process, measured in a child."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--yardstick"] if yardstick else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Yardstick:
    """The workload's calls, run one at a time on request by a child process
    on the frozen library under yardstick/. The program and the yardstick
    never run at the same time; the child's memory is not the program's."""

    def __init__(self, name: str, seed: int):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--yardstick-server",
               "--workload", name, "--seed", str(seed)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        try:
            self._reply()
        except BaseException:
            self.close()
            raise

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the yardstick process ended early")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError(f"yardstick: {reply['error']}")
        return reply

    def run(self, index: int) -> float:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        return float(self._reply()["s"])

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def yardstick_server(args) -> int:
    """Child side of Yardstick: reads a call index per line, runs and checks
    that call on the frozen library, answers with its seconds."""
    with _workdir() as workdir:
        cli, _, _, workload, _ = set_up(args.workload, args.seed, workdir, yardstick=True)
        checker = Checker(workload)
        print(json.dumps({"ready": True}), flush=True)
        for line in sys.stdin:
            index = int(line)
            t0 = time.perf_counter()
            rc, out, err = _invoke(cli, workload.calls[index].argv)
            seconds = time.perf_counter() - t0
            checker.check(index, rc, out, err)
            reply = {"error": checker.reasons[-1]} if checker.failed else {"s": seconds}
            print(json.dumps(reply), flush=True)
            if checker.failed:
                return 1
    return 0


def _timed_call(cli, workload, checker, index: int) -> float:
    t0 = time.perf_counter()
    rc, out, err = _invoke(cli, workload.calls[index].argv)
    seconds = time.perf_counter() - t0
    checker.check(index, rc, out, err)
    return seconds


def relative(program, yardstick) -> float:
    """Median over pairs of the program's time over the yardstick's time.

    The two runs of a pair are back to back, so a phase in which other
    tenants slow the machine slows both, and the ratio keeps the program's
    own speed."""
    return statistics.median(p / y for p, y in zip(program, yardstick))


def _setup_pair(name: str, seed: int, index: int) -> tuple[float, float]:
    """Set-up times of the program and of the yardstick, in alternating order."""
    if index % 2:
        frozen = probe_setup(name, seed, yardstick=True)
        return probe_setup(name, seed), frozen
    return probe_setup(name, seed), probe_setup(name, seed, yardstick=True)


def measure_end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    cli, workloads, _, workload, main_setup = set_up(name, seed, workdir)
    checker = Checker(workload)
    program: list[list[float]] = [[] for _ in workload.calls]
    frozen: list[list[float]] = [[] for _ in workload.calls]
    setups: list[tuple[float, float]] = []
    rounds, last = 0, 0.0
    with Yardstick(name, seed) as yardstick:
        start = time.perf_counter()
        while _keep_going(start, seconds, rounds, last):
            t0 = time.perf_counter()
            # Set-up probes are spread over the run so they see the same
            # phases of the machine as the calls.
            if len(setups) < SETUP_PROBES and t0 - start >= len(setups) * seconds / SETUP_PROBES:
                setups.append(_setup_pair(name, seed, len(setups)))
            for index in range(len(workload.calls)):
                if rounds % 2:  # alternate which side of a pair goes first
                    frozen[index].append(yardstick.run(index))
                    program[index].append(_timed_call(cli, workload, checker, index))
                else:
                    program[index].append(_timed_call(cli, workload, checker, index))
                    frozen[index].append(yardstick.run(index))
            rounds += 1
            last = time.perf_counter() - t0
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_pair(name, seed, len(setups)))
    # Each call's time relative to the yardstick, in seconds of the yardstick
    # on the machine the benchmark was defined on (workloads.YARDSTICK_S).
    call_s = {call.label: relative(p, f) * workloads.YARDSTICK_S[call.label]
              for call, p, f in zip(workload.calls, program, frozen)}
    work_s = sum(call_s.values())
    metrics = {
        "wall_s": work_s / len(workload.calls),
        "elements_per_s": workload.elements / work_s,
        "setup_s": relative(*zip(*setups)) * workloads.YARDSTICK_S[f"setup.{name}"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return {"workload": workload, "checker": checker, "metrics": metrics,
            "samples": {"rounds": rounds, "main_setup_s": main_setup,
                        "setup_s": [p for p, _ in setups],
                        "yardstick_setup_s": [f for _, f in setups],
                        "reference_call_s": call_s,
                        "call_s": {call.label: times
                                   for call, times in zip(workload.calls, program)},
                        "yardstick_call_s": {call.label: times
                                             for call, times in zip(workload.calls, frozen)}}}


def _workers_speedup(workloads, workload, checker) -> tuple[float, dict]:
    """Time of exact_values_batch at 1 worker over its time at nproc workers,
    on the largest trend cell; 0 on workloads that do not use the pool."""
    built = workloads.speedup_matrix(workload)
    if built is None:
        return 0.0, {}
    from corrlab import measures
    mat, r = built
    timings, values = {}, {}
    for workers in (1, workloads.THREADS):
        t0 = time.perf_counter()
        values[workers] = measures.exact_values_batch(mat, r, workers=workers)
        timings[workers] = time.perf_counter() - t0
    if not (values[1] == values[workloads.THREADS]).all():
        checker.fail("exact_values_batch differs between 1 and nproc workers")
    return timings[1] / timings[workloads.THREADS], {f"workers_{k}_s": v
                                                     for k, v in timings.items()}


def measure_layers(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    cli, workloads, tracing, workload, main_setup = set_up(name, seed, workdir)
    checker = Checker(workload)
    start = time.perf_counter()
    speedup, speedup_samples = _workers_speedup(workloads, workload, checker)
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[dict] = []
    spans: list = []
    while _keep_going(start, seconds, len(plain),
                      plain[-1] + traced[-1]["trace.wall_s"] if plain else 0.0):
        plain.append(timed_round(cli, workload, checker)[0])
        wall, stdout_bytes = timed_round(cli, workload, checker, tracer)
        spans = tracer.take()
        row = tracing.round_metrics(spans, wall)
        row["cli.stdout_bytes"] = stdout_bytes
        if abs(row["trace.self_sum_s"] - wall) > row["trace.uncovered_s"] + 1e-6:
            checker.fail(f"span self times sum to {row['trace.self_sum_s']}, "
                         f"traced wall {wall}, uncovered {row['trace.uncovered_s']}")
        traced.append(row)
    metrics = {key: statistics.median_low(row[key] for row in traced)
               for key in tracing.LAYER_METRICS if key in traced[0]}
    metrics["measures.workers_speedup"] = speedup
    metrics["trace.overhead_s"] = (statistics.median_low(r["trace.wall_s"] for r in traced)
                                   - statistics.median_low(plain))
    return {"workload": workload, "checker": checker, "metrics": metrics,
            "units": tracing.LAYER_METRICS,
            "samples": {"untraced_round_s": plain,
                        "traced_round_s": [r["trace.wall_s"] for r in traced],
                        "main_setup_s": main_setup, **speedup_samples},
            "spans": [s.to_dict(i) for i, s in enumerate(spans)]}


# ---------------------------------------------------------------------------
# provenance and output


def _command_output(cmd: list[str]) -> str | None:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict:
    import numpy
    l3 = _command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    return {
        "commit": (_command_output(["git", "rev-parse", "HEAD"])
                   if (ROOT / ".git").exists() else None),
        "source_sha256": _source_sha256(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": int(l3) if l3 and l3.isdigit() and int(l3) > 0 else None,
    }


def _buffer_note(workload, prov: dict) -> dict:
    note = {"computed_bytes": workload.buffers, "total_bytes": sum(workload.buffers.values())}
    if prov["l3_bytes"]:
        note["below_4x_l3"] = note["total_bytes"] < 4 * prov["l3_bytes"]
        note["note"] = ("working set below 4x L3, so no workload measures memory bandwidth"
                        if note["below_4x_l3"] else "working set exceeds 4x L3")
    return note


def run_one(args) -> int:
    measure = measure_layers if args.trace else measure_end_to_end
    with _workdir() as workdir:
        result = measure(args.workload, args.seed, args.seconds, workdir)
    workload, checker, metrics = result["workload"], result["checker"], result["metrics"]
    units = result.get("units", END_TO_END_UNITS)
    prov = provenance()
    buffers = _buffer_note(workload, prov)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print(f"# provenance {json.dumps(prov)}")
    print(f"# buffers {json.dumps(buffers)}")
    samples = result["samples"]
    rounds = samples.get("rounds") or len(samples["traced_round_s"])
    for key, value in metrics.items():
        print(f"{args.workload} {key} {value:.6g} {units[key]}")
    if not args.trace:
        for label, call_s in samples["call_s"].items():
            frozen = samples["yardstick_call_s"][label]
            print(f"# call {label}: fastest {min(call_s):.4f} s, median "
                  f"{statistics.median(call_s):.4f} s; yardstick fastest {min(frozen):.4f} s, "
                  f"median {statistics.median(frozen):.4f} s; relative "
                  f"{relative(call_s, frozen):.4f}")
    fail_rate = checker.failed / checker.attempted
    setups = "" if args.trace else f", {len(samples['setup_s'])} set-ups"
    print(f"{args.workload} fail_rate {fail_rate:.6g} ratio "
          f"({checker.failed} of {checker.attempted} invocations; {rounds} rounds{setups})")
    for reason in checker.reasons[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": prov, "buffers": buffers,
              "metrics": metrics, "samples": samples, "fail_rate": fail_rate,
              "failures": checker.reasons, "spans_last_round": result.get("spans", [])}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced and traced, then one summary line."""
    modes = (0, 1) if args.trace is None else (args.trace,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in modes:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
            print("\n".join(lines[:-1]))
            part = json.loads(lines[-1])
            total["correct"] = total["correct"] and part["correct"]
            total["attempted"] += part["attempted"]
            total["failed"] += part["failed"]
            for key, value in part["metrics"].items():
                total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0


def setup_probe(args) -> int:
    with _workdir() as workdir:
        seconds = set_up(args.workload, args.seed, workdir, args.yardstick)[-1]
    print(json.dumps({"setup_s": seconds}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="corrlab benchmark")
    parser.add_argument("--workload", choices=NAMES,
                        help="one workload; both in fresh processes when omitted")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=58.0,
                        help="measuring time per run (default 58)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: traced per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--yardstick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--yardstick-server", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        _require_sources()
        if args.setup_probe:
            return setup_probe(args)
        if args.yardstick_server:
            return yardstick_server(args)
        if args.workload is None:
            return run_all(args)
        if args.trace is None:
            args.trace = 0
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
