"""The side-by-side timing harness runs, and checks values, with no git checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pairs_times_src_against_itself():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "pairs.py"), str(ROOT / "src"),
                           "exh 6 [2,4]", "--repeats", "2"],
                          cwd=ROOT / "tools", capture_output=True, text=True, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["repeats"] == 2
    assert set(report["ratios"]) == set(report["fastest_s"]) == {"exh 6 [2,4]"}
    assert report["ratios"]["exh 6 [2,4]"] > 0
