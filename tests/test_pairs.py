"""The side-by-side timing harness runs, and checks values, with no git checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pairs_times_src_against_itself():
    shapes = ["exh 6 [2,4]", "sampled 64 r3 50"]
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "pairs.py"), str(ROOT / "src"),
                           *shapes, "--repeats", "2"],
                          cwd=ROOT / "tools", capture_output=True, text=True, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["repeats"] == 2
    assert set(report["ratios"]) == set(report["median_ratios"]) == set(report["fastest_s"]) \
        == set(shapes)
    assert all(ratio > 0 for ratio in [*report["ratios"].values(),
                                       *report["median_ratios"].values()])
