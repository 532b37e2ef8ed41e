"""Time kernel shapes on this checkout against a second corrlab, side by side in one process.

    python tools/pairs.py BASE_SRC                      # every default shape, 7 repeats
    python tools/pairs.py BASE_SRC "exh 12 [2,4,6,8]" "words 40x2048 r2" --repeats 21

BASE_SRC is a directory holding a `corrlab` package (say the `src/` of an export of
another commit). It is imported as `corrlab_base` next to this checkout's `src/corrlab`,
imported as `corrlab`. For each shape the two sides run alternately (base first on even
repeats), every pair of results must be equal, and the last line of stdout is one JSON
object whose `ratios` are this checkout's fastest call over the base's fastest call, and
whose `median_ratios` are the medians over repeats of each repeat's own ratio (its two
back-to-back calls). The spread between the two shows how far the machine's noise moves
one ratio.

Shapes:
    words ROWSxN rR     measures._scan_words on np.random.default_rng(0) packed rows
    exh N [O1,O2,...]   bounds._exhaustive_worst(N, orders)
    evb allN rR         measures.exact_values_batch(seqcore.all_sequences_matrix(N), R)
    best N rR           measures.correlation_measure_exact on one np.random.default_rng(0)
                        sequence (value and witness)
    sampled N rR B      measures.correlation_measure_sampled on that sequence, B tuples
                        drawn at SeedSpec(0) (value and witness)
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SHAPES = (
    "words 40x2048 r2", "words 200x512 r2", "words 200x512 r3", "words 500x4096 r2",
    "words 200x16384 r2", "words 4096x16 r2", "words 4096x16 r3", "evb all14 r4",
    "exh 10 [2,4,6]", "exh 12 [2,4,6,8]", "exh 14 [2,4,6,8]", "exh 15 [2,4,6]",
    "exh 16 [2,4,6,8]", "exh 18 [2]", "best 256 r3", "sampled 256 r6 10000",
)


def load(name: str, src: Path):
    """Import the `corrlab` package under `src` as the top-level module `name`."""
    init = src / "corrlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no corrlab package under {src}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sequence(lib, n: int):
    """The length-n sequence of np.random.default_rng(0) symbols."""
    return lib.seqcore.BinarySequence.from_array(1 - 2 * np.random.default_rng(0).integers(0, 2, n))


def call(lib, shape: str):
    """A no-argument call running `shape` on the package `lib`."""
    if m := re.fullmatch(r"words (\d+)x(\d+) r(\d+)", shape):
        count, n, r = map(int, m.groups())
        rows = np.random.default_rng(0).integers(0, 256, (count, -(-n // 8)), dtype=np.uint8)
        return lambda: lib.measures._scan_words(rows, n, r)
    if m := re.fullmatch(r"exh (\d+) \[([\d,]+)\]", shape):
        n, orders = int(m[1]), [int(o) for o in m[2].split(",")]
        return lambda: lib.bounds._exhaustive_worst(n, orders)
    if m := re.fullmatch(r"evb all(\d+) r(\d+)", shape):
        mat, r = lib.seqcore.all_sequences_matrix(int(m[1])), int(m[2])
        return lambda: lib.measures.exact_values_batch(mat, r)
    if m := re.fullmatch(r"best (\d+) r(\d+)", shape):
        seq, r = sequence(lib, int(m[1])), int(m[2])
        return lambda: lib.measures.correlation_measure_exact(seq, r).to_dict()
    if m := re.fullmatch(r"sampled (\d+) r(\d+) (\d+)", shape):
        seq, r, budget = sequence(lib, int(m[1])), int(m[2]), int(m[3])
        seed = lib.seqcore.SeedSpec(0)
        return lambda: lib.measures.correlation_measure_sampled(seq, r, budget, seed).to_dict()
    raise SystemExit(f"unknown shape {shape!r}")


def same(a, b) -> bool:
    return (np.array_equal(a, b) if isinstance(a, (np.ndarray, list)) else a == b)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="directory holding the base corrlab package")
    parser.add_argument("shapes", nargs="*", default=DEFAULT_SHAPES)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    head, base = load("corrlab", ROOT / "src"), load("corrlab_base", args.base.resolve())
    ratios, medians, fastest = {}, {}, {}
    for shape in args.shapes:
        sides = {"head": call(head, shape), "base": call(base, shape)}
        times = {side: [] for side in sides}
        for repeat in range(args.repeats):
            results = {}
            for side in (("base", "head") if repeat % 2 == 0 else ("head", "base")):
                start = time.perf_counter()
                results[side] = sides[side]()
                times[side].append(time.perf_counter() - start)
            if not same(results["head"], results["base"]):
                raise SystemExit(f"{shape}: values differ")
        fastest[shape] = {side: min(t) for side, t in times.items()}
        ratios[shape] = round(fastest[shape]["head"] / fastest[shape]["base"], 3)
        medians[shape] = round(statistics.median(
            head / base for head, base in zip(times["head"], times["base"])), 3)
        print(f"# {shape}: {ratios[shape]} ({fastest[shape]['head']:.4g} s over "
              f"{fastest[shape]['base']:.4g} s), median per repeat {medians[shape]}", flush=True)
    print(json.dumps({"base": str(args.base), "repeats": args.repeats, "ratios": ratios,
                      "median_ratios": medians, "fastest_s": fastest}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
