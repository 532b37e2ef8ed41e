import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from corrlab import cli, experiments, seqcore


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def alt_file(tmp_path):
    path = tmp_path / "alt.txt"
    path.write_text("+-+-+-+-+\n")
    return str(path)


@pytest.fixture
def two_file(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("++++++\n+-+-+-\n")
    return str(path)


class TestMeasure:
    def test_alternating_order3(self, capsys, alt_file):
        code, out, _ = run_cli(capsys, "measure", "--file", alt_file, "--order", "3")
        assert code == 0
        lines = out.strip().splitlines()
        header = json.loads(lines[0])
        assert header["order"] == 3
        record = json.loads(lines[1])
        assert record["value"] == 1 and record["exact"] is True

    def test_order_below_two_is_usage_error(self, capsys, alt_file):
        code, _, err = run_cli(capsys, "measure", "--file", alt_file, "--order", "1")
        assert code == 2
        assert "order" in err

    def test_sampled_mode(self, capsys, alt_file):
        code, out, _ = run_cli(capsys, "measure", "--file", alt_file, "--order", "3",
                               "--sampled", "--budget", "5", "--seed", "1")
        assert code == 0
        record = json.loads(out.strip().splitlines()[1])
        assert record["exact"] is False and record["value"] >= 1

    def test_sampled_mode_past_float_range(self, capsys, tmp_path):
        # C(1099, 549) tuples: ranks past 2^1024, read as Python ints
        path = tmp_path / "long.txt"
        path.write_text("+-" * 550 + "\n")
        code, out, _ = run_cli(capsys, "measure", "--file", str(path), "--order", "550",
                               "--sampled", "--budget", "10", "--seed", "0")
        assert code == 0
        record = json.loads(out.strip().splitlines()[1])
        assert record["exact"] is False and record["value"] >= 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--file", "/nonexistent", "--order", "2")
        assert code == 2 and "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("+-x-\n")
        code, _, err = run_cli(capsys, "measure", "--file", str(bad), "--order", "2")
        assert code == 2 and "position 3" in err


class TestScan:
    def test_csv_shape(self, capsys, two_file):
        code, out, _ = run_cli(capsys, "scan", "--file", two_file, "--orders", "2..3")
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "index,n,order,value"
        assert len(lines) == 5
        assert lines[1] == "0,6,2,5"


class TestBounds:
    def test_theoremC_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--check", "theoremC", "--n", "10",
                               "--r", "1", "--exhaustive")
        assert code == 0
        report = json.loads(out.strip().splitlines()[-1])
        assert report["satisfied"] is True

    def test_max_from_file(self, capsys, two_file):
        code, out, _ = run_cli(capsys, "bounds", "--check", "max", "--s", "1",
                               "--file", two_file)
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + 2 reports

    def test_welch_families(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--check", "welch", "--ell", "8",
                               "--m", "20", "--k", "2", "--families", "4", "--seed", "3")
        assert code == 0
        reports = [json.loads(ln) for ln in out.strip().splitlines()[1:]]
        assert len(reports) == 4
        assert all(rep["satisfied"] for rep in reports)

    def test_stdout_bytes_pinned(self, capsys, tmp_path):
        # README command lines plus per-sequence certificates on a fixed file;
        # any change to a bound, value, key order or float format moves a digest
        path = tmp_path / "three.txt"
        path.write_text("+-++-+---++-+-+++--+\n++--+-+-+++---+-\n"
                        "+++-++--+-+--+-++++-+---\n")
        cases = [
            (["--check", "theoremC", "--n", "14", "--r", "1", "--exhaustive"],
             "e6df7e5aef0d6889e905b201437d457c6f71af2e5db34c906cdb4b7a8602260c"),
            (["--check", "max", "--n", "12", "--s", "2", "--exhaustive"],
             "666430ac445284515880e8fe31ea9bf6733cf486edfc53131de90cb213792170"),
            (["--check", "welch", "--ell", "16", "--m", "48", "--k", "2",
              "--families", "100", "--seed", "3"],
             "e92715d9651b414189e42d99b6d67efac1027b6216266422ff7f2b3f782bf8a2"),
            (["--check", "theoremC", "--r", "1", "--file", str(path)],
             "688c22e59c4948bff83c0848735268f56932dd6678808d7a0fc7bf6b39f02545"),
            (["--check", "theoremC", "--r", "2", "--file", str(path)],
             "a1284639661c642bc9f1c78b477a1f470cd05ffe47f4a523078f07c7c4206587"),
            (["--check", "max", "--s", "2", "--file", str(path)],
             "c8d5086105f9b3b27e06037b9d5f76e991ca28a8600494a40ef81ddeb7a9de87"),
            (["--check", "theoremC", "--n", "20", "--r", "2", "--exhaustive"],
             "4984ca6ee9920382a39ad7b9d544903392aa3fb7292ecfcb97ccecabac549ba0"),
            (["--check", "max", "--n", "16", "--s", "5", "--exhaustive"],
             "2f495cd33b2ac995d82a70bf7e70bfe3ed78d3d7afe34213cfc6ac814350eca5"),
        ]
        for argv, digest in cases:
            code, out, _ = run_cli(capsys, "bounds", *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    @pytest.mark.slow
    def test_readme_exhaustive_n24_stdout_pinned(self, capsys):
        # the README's longest certificate: every orbit representative at the limit n = 24
        code, out, _ = run_cli(capsys, "bounds", "--check", "theoremC", "--n", "24",
                               "--r", "2", "--exhaustive")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b47dc53f7d35bd7617c717f8c0e09b595448aa95c9ef4527b5b0b6b62bbcf74f")


class TestOracle:
    def test_even_entries(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--check", "even",
                               "--entries", "1,3,1,4,3,4")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["evenness_degree"] == 3 and rec["even"] is True

    def test_even_count(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--check", "even", "--m", "3", "--q", "2")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["count"] == 21 and rec["satisfied"] is True

    def test_constrained(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--check", "constrained", "--n", "4",
                               "--q", "1", "--t", "0", "--u", "1", "--v", "2")
        assert code == 0
        assert json.loads(out.strip())["satisfied"] is True

    def test_moment(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--check", "moment", "--n", "8",
                               "--u-offsets", "1", "--v-offsets", "2",
                               "--p", "1", "--h", "0")
        assert code == 0
        assert json.loads(out.strip())["satisfied"] is True

    def test_tail(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--check", "tail", "--n", "12",
                               "--u-offsets", "2", "--lam", "4")
        assert code == 0
        assert json.loads(out.strip())["probability"] == "11/32"

    def test_expect(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--check", "expect", "--n", "4",
                               "--order", "2")
        assert code == 0
        assert json.loads(out.strip())["expectation"] == "9/4"

    def test_naive(self, capsys, alt_file):
        code, out, _ = run_cli(capsys, "oracle", "--check", "naive", "--file", alt_file,
                               "--order", "3")
        assert code == 0
        assert json.loads(out.strip().splitlines()[1])["value"] == 1


class TestTailCommand:
    def test_runs_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--n", "256", "--samples", "200",
                               "--lambda-mults", "2.5,3.0", "--seed", "6")
        assert code == 0
        assert "tail_freq" in out

    @pytest.mark.parametrize("n", [64, 4096])  # rows under `_BOUND_WORDS` words, and over
    def test_infinite_threshold_counts_no_row(self, capsys, n):
        # lambda (1 + delta) overflows to inf; the reader's floor is clipped to n
        code, out, _ = run_cli(capsys, "tail", "--n", str(n), "--samples", "10",
                               "--lambda-mults", "1e300", "--delta", "1e10")
        assert code == 0
        assert out.splitlines()[-1].split(",")[-3:] == ["0", "0", "pass"]

    def test_rejects_small_lambda(self, capsys):
        code, _, err = run_cli(capsys, "tail", "--n", "256", "--samples", "50",
                               "--lambda-mults", "1.0")
        assert code == 2 and "lambda" in err


class TestReportCommand:
    def test_rerender(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "trend", "--n-grid", "32,64", "--samples", "20",
                               "--seed", "5", "--format", "json")
        assert code == 0
        path = tmp_path / "rep.json"
        path.write_text(out)
        code, out2, _ = run_cli(capsys, "report", "--input", str(path), "--to", "csv")
        assert code == 0
        assert out2.startswith("# experiment expected_ratio")


class TestCliContract:
    def test_unknown_flag(self, capsys, alt_file):
        code, _, _ = run_cli(capsys, "measure", "--file", alt_file, "--order", "2",
                             "--bogus")
        assert code == 2

    def test_byte_identical_reruns(self, capsys, two_file):
        argv = ["expect", "--n-grid", "32,64", "--samples", "15", "--seed", "9"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CORRLAB_SEED", "777")
        code, out, _ = run_cli(capsys, "expect", "--n-grid", "32", "--samples", "10")
        assert code == 0
        assert '"master_seed": 777' in out

    def test_one_parser_per_process_keeps_no_state_between_runs(self, capsys, monkeypatch):
        """`cli.run` reuses one parser: a --seed given to one run is not the default of the
        next, CORRLAB_SEED is still read, and the bytes equal a fresh process's run."""
        argv = ["trend", "--n-grid", "32", "--samples", "4"]
        monkeypatch.setenv("CORRLAB_SEED", "777")
        given = run_cli(capsys, *argv, "--seed", "5")
        default = run_cli(capsys, *argv)
        assert cli._build_parser() is cli._build_parser()
        assert given[0] == default[0] == 0
        assert '"master_seed": 5' in given[1] and '"master_seed": 777' in default[1]
        fresh = subprocess.run([sys.executable, "-m", "corrlab.cli", *argv], capture_output=True,
                               env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                               text=True, check=True)
        assert fresh.stdout == default[1]

    @pytest.mark.parametrize("argv", [
        ["oracle", "--check", "expect", "--n", "4", "--order", "2"],
        ["scan", "--file", "SEQS", "--orders", "2..3"],
        ["report", "--input", "REPORT", "--to", "csv"],
        ["report", "--help"],
        ["--help"],
        ["trend", "--n-grid", "32", "--samples", "2", "--seed", "5"],
    ], ids=["oracle", "scan", "report", "report-help", "help", "trend-seed-given"])
    def test_bad_env_seed_is_read_only_for_a_seed_not_given(self, capsys, monkeypatch,
                                                             tmp_path, argv):
        """CORRLAB_SEED is resolved after parsing, so a subcommand without --seed, or with
        --seed given, runs as it does without the variable."""
        seqs, report = tmp_path / "seqs.txt", tmp_path / "report.json"
        seqs.write_text("+-++-+\n")
        report.write_text(run_cli(capsys, "trend", "--n-grid", "32", "--samples", "2",
                                  "--format", "json")[1])
        argv = [{"SEQS": str(seqs), "REPORT": str(report)}.get(arg, arg) for arg in argv]
        want = run_cli(capsys, *argv)
        monkeypatch.setenv("CORRLAB_SEED", "abc")
        code, out, _ = run_cli(capsys, *argv)
        assert code == want[0] == 0
        assert out == want[1] and out

    @pytest.mark.parametrize("env_seed,argv", [
        ("abc", ["trend", "--n-grid", "64", "--samples", "2"]),
        (None, ["bounds", "--check", "theoremC", "--exhaustive"]),
        (None, ["bounds", "--check", "max", "--exhaustive"]),
        (None, ["bounds", "--check", "theoremC"]),
        (None, ["bounds", "--check", "welch", "--m", "1"]),
        (None, ["oracle", "--check", "naive"]),
        (None, ["trend", "--n-grid", "64", "--samples", "2", "--threads", "-3"]),
        (None, ["report", "--input", "{}"]),
        (None, ["report", "--input", "[1, 2]"]),
        (None, ["report", "--input", '{"experiment": "x", "config": {}, "rows": [{"n": 1}]}']),
        (None, ["tail", "--n", "10000000", "--samples", "1000000"]),
        (None, ["scan", "--file", "+-+-+-", "--orders", "5..2"]),
        (None, ["bounds", "--check", "welch", "--families", "0"]),
        (None, ["bounds", "--check", "welch", "--families", "-1"]),
        (None, ["trend", "--n-grid", "64", "--order", "1", "--samples", "4"]),
        (None, ["trend", "--n-grid", "4096", "--order", "5", "--samples", "4"]),
        (None, ["tail", "--n", "1024", "--samples", "50", "--lambda-mults", "2.5",
                "--delta", "nan"]),
        (None, ["tail", "--n", "1024", "--samples", "50", "--lambda-mults", "nan"]),
        (None, ["oracle", "--check", "tail", "--n", "12", "--u-offsets", "2", "--lam", "nan"]),
        (None, ["tail", "--n", "1024", "--samples", "50", "--lambda-mults", "2.5",
                "--delta", "-1"]),
        (None, ["tail", "--n", "1024", "--samples", "50", "--lambda-mults", "2.5",
                "--slack", "-2"]),
        (None, ["bounds", "--file", "+-++-+---++-+-+++--+", "--check", "theoremC",
                "--n", "99", "--r", "1"]),
        (None, ["bounds", "--check", "welch", "--exhaustive", "--file", "/nonexistent.txt",
                "--n", "5"]),
        (None, ["bounds", "--check", "max", "--n", "12", "--s", "2", "--exhaustive",
                "--file", "/nonexistent.txt"]),
        (None, ["measure", "--file", "+-" * 128, "--order", "6", "--sampled",
                "--budget", "10000000"]),
        (None, ["measure", "--file", "+-" * 128, "--order", "6", "--sampled",
                "--budget", "10", "--work-budget", "2559"]),  # 10 tuples x 256 steps
        (None, ["bounds", "--check", "theoremC", "--n", "25", "--r", "1", "--exhaustive"]),
        (None, ["trend", "--n-grid", "2048,16", "--order", "2", "--samples", "4"]),
        (None, ["trend", "--n-grid", "16,16", "--order", "2", "--samples", "4"]),
        (None, ["report", "--input", '{"experiment": "x", "config": {}, "rows": [{"n": 1, "r": 2, '
                '"samples": 1, "seed": 0, "statistic": "s", "value": [1]}]}']),
        (None, ["report", "--input", '{"experiment": "x", "config": {}, "rows": [{"n": 1, "r": 2, '
                '"samples": 1, "seed": 0, "statistic": "s", "value": NaN, "bound": null, '
                '"verdict": "info"}]}']),
        (None, ["report", "--input", '{"experiment": "x", "config": {}, "rows": [{"n": 1, "r": 2, '
                '"samples": 1, "seed": 0, "statistic": "s", "value": 0.5, "bound": null, '
                '"verdict": "maybe"}]}']),
        (None, ["report", "--input", '{"experiment": "x", "config": {"a": NaN}, "rows": []}',
                "--to", "json"]),
        (None, ["report", "--input", '{"experiment": "x", "config": {"a": 1e999}, "rows": []}',
                "--to", "csv"]),
        (None, ["report", "--input", '{"experiment": "x", "config": {}, "rows": [{"n": 1, "r": 2, '
                '"samples": 1, "seed": 0, "statistic": "a\\nb", "value": 0.5, "bound": null, '
                '"verdict": "info"}]}', "--to", "csv"]),  # the CSV reader would read back "ab"
        (None, ["trend", "--n-grid", "64", "--samples", "2", "--seed", "18446744073709551616"]),
        (None, ["tail", "--n", "64", "--samples", "2", "--seed", "-1"]),
        ("-1", ["tail", "--n", "64", "--samples", "2"]),
    ])
    def test_bad_input_exits_2_with_empty_stdout(self, capsys, monkeypatch, tmp_path,
                                                 env_seed, argv):
        if env_seed is not None:
            monkeypatch.setenv("CORRLAB_SEED", env_seed)
        if "10000000" in argv:  # refused at once, also where the allocation is overcommitted
            def refuse(*_):
                raise MemoryError("Unable to allocate 9.09 TiB for an array")
            monkeypatch.setattr(seqcore, "_philox_keys", refuse)
        if argv[1] in ("--input", "--file"):  # the text after the first flag goes to a file
            path = tmp_path / "input.txt"
            path.write_text(argv[2])
            argv = [*argv[:2], str(path), *argv[3:]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("sub", ["measure", "scan", "oracle"])
    def test_failure_on_a_later_sequence_writes_nothing(self, capsys, tmp_path, sub):
        path = tmp_path / "mixed.txt"
        path.write_text("+-+-+-\n+-+\n")  # order 4 fits the first line only
        argv = {"measure": ["measure", "--order", "4"], "scan": ["scan", "--orders", "4"],
                "oracle": ["oracle", "--check", "naive", "--order", "4"]}[sub]
        code, out, err = run_cli(capsys, *argv, "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("sub", ["measure", "scan", "expect", "trend", "bounds",
                                     "oracle", "tail", "report"])
    def test_help_available(self, capsys, sub):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert "--help" in out or "usage" in out


PINNED_FILE = "+-++-+---++-+-+++--+\n++--+-+-+++---+-\n"


@pytest.mark.parametrize("argv,code,digest", [
    pytest.param(["measure", "--file", "SEQS", "--order", "3"],
                 0, "9ceef9c3791292b78d7c419572049f32fa12c4b4c152233e98c97c0ed6d0fc1a",
                 id="measure"),
    pytest.param(["measure", "--file", "SEQS", "--order", "6", "--sampled", "--budget",
                  "50", "--seed", "4"],
                 0, "016ec79206f82388415c3a893a41f5a0890487670f029e5c86e6a608a31c2290",
                 id="measure-sampled"),
    # a random 256-symbol file; order 13 has C(255, 12), about 6.6 * 2^64, tuples to draw from
    pytest.param(["measure", "--file", "SEQ256", "--order", "3"],
                 0, "34af6b6d2b490d57a29326456561f7c6655f773a34e57b20ae322eb4f5851a38",
                 id="measure-256"),
    pytest.param(["measure", "--file", "SEQ256", "--order", "6", "--sampled", "--budget",
                  "10000", "--seed", "0"],
                 0, "98eaeceb895b6a482ae2dd2a7de3894e5e66d4ed147478ece11c31a5c574c307",
                 id="measure-256-sampled"),
    pytest.param(["measure", "--file", "SEQ256", "--order", "13", "--sampled", "--budget",
                  "2000", "--seed", "0"],
                 0, "3a180f6627f40467e45b2f1c03b52b47fd516ecfafb2c17a60a18df897f5b9e7",
                 id="measure-256-ranks-past-2-64"),
    pytest.param(["scan", "--file", "SEQS", "--orders", "2..4"],
                 0, "40a1810b89ca5175937c3c91f5d44265d9861072f5291e005e06ead4eb26fb55",
                 id="scan"),
    pytest.param(["trend", "--n-grid", "32,64,128", "--order", "2", "--samples", "20",
                  "--seed", "5"],
                 0, "a327d69e473320b28c456c827402fe924d1f37de8f4c909acc989145f52d52b7",
                 id="trend-csv"),
    pytest.param(["trend", "--n-grid", "32,128", "--samples", "20", "--seed", "2"],
                 1, "6c5ff6eb93ee32872ae7faa11123a2f1e1637dfa55ba50c69a4dd96f5358ee48",
                 id="trend-failed-verdict"),
    pytest.param(["trend", "--n-grid", "256,2048", "--order", "2", "--samples", "40",
                  "--seed", "0"],  # the README's wide-row trend run
                 0, "56b71ec2d072341791ca44c4f9c072d5fa472aea5b29a9b2067bba3919dd3bc4",
                 id="trend-wide-rows"),
    pytest.param(["trend", "--n-grid", "300,1000", "--order", "2", "--samples", "40",
                  "--seed", "0"],  # long products whose lengths are not whole 32-bit groups
                 0, "8407b218b6f25850990ab4e1825642e16fede5abcefb0078434785f6ba66eac9",
                 id="trend-long-products"),
    pytest.param(["trend", "--n-grid", "16,64", "--samples", "4096", "--order", "2",
                  "--seed", "0"],  # tall cells: 4096 rows at small n
                 0, "c2697bccf7348066a2c5b220c0ea772bfe77ddac6fcd71d1ecb8ab72f21ae8fd",
                 id="trend-tall-rows"),
    pytest.param(["expect", "--n-grid", "24,48", "--order", "3", "--samples", "10",
                  "--seed", "8", "--format", "json"],
                 0, "a3451d62c9fa72712f6f8b8f22873a8ad33e91987261b9f3a50c4e60ccfdab87",
                 id="expect-json"),
    pytest.param(["tail", "--n", "1024", "--samples", "200", "--lambda-mults", "2.1,3.0",
                  "--dyadic-p", "3", "--seed", "2"],
                 0, "473d03beef76a86cb42d9b39816a8fcaee580fbbf7bff176055a71413d774db4",
                 id="tail-dyadic"),
    pytest.param(["tail", "--n", "1000", "--samples", "2000", "--delta", "0", "--lambda-mults",
                  "2.05,2.2,2.5", "--seed", "3"],  # ceil(n/8) odd: padded words; tails nonzero
                 0, "4a597f1615175b5b4ad1d23db2b2ed42e032fa85bead7e109579abc8b519280c",
                 id="tail-odd-byte-width"),
    pytest.param(["tail", "--n", "4096", "--samples", "5000", "--lambda-mults", "2.1,2.5,3.0",
                  "--seed", "0"],  # the benchmark's tail call, whose digest it checks too
                 0, "b75c006b83a0dd6b183d370df16a2d3e812c0e4ac96a786bf862edab6af5cb8b",
                 id="tail-bench"),
    pytest.param(["oracle", "--check", "naive", "--file", "SEQS", "--order", "3"],
                 0, "71ea04f0900ad8c09d2f8a7855b7bb917d1c836a7ba83503f92f0b529c2aff8f",
                 id="oracle-naive"),
    pytest.param(["oracle", "--check", "even", "--entries", "1,3,1,4,3,4"],
                 0, "0ed8a43ccaf358a077a7446ccc9c14cc26e1673a430fa421623e850dd4df1497",
                 id="oracle-even-entries"),
    pytest.param(["oracle", "--check", "even", "--m", "3", "--q", "2"],
                 0, "876c10e930906ea60af536934a41398b0324a0c7885e2e32c47aa8cc04af533e",
                 id="oracle-even-count"),
    pytest.param(["oracle", "--check", "constrained", "--n", "6", "--q", "2", "--t", "1",
                  "--u", "1", "--v", "3"],
                 0, "4004f49f7ae7fdb3e4d15c91e0a1b70d7b8f2a7dedda80d684a9cbc29c1d696c",
                 id="oracle-constrained"),
    pytest.param(["oracle", "--check", "moment", "--n", "8", "--u-offsets", "1,2",
                  "--v-offsets", "3,5", "--p", "2", "--h", "1"],
                 0, "7bb8f00e2557a2367b8321899569cbb0d021731b6401dd9052908ff591dff7ee",
                 id="oracle-moment"),
    pytest.param(["oracle", "--check", "tail", "--n", "12", "--u-offsets", "2",
                  "--lam", "4"],
                 0, "32d32523cfbaf1aaa862b915817a0204d1a3925d8b05a9bb60641c7f3a0cfbbe",
                 id="oracle-tail"),
    pytest.param(["oracle", "--check", "expect", "--n", "6", "--order", "3"],
                 0, "bcf60340413240421099b584c7e36d024a2bb9ac5c5b986911cd89088f3c8466",
                 id="oracle-expect"),
    pytest.param(["report", "--input", "REPORT", "--to", "csv"],
                 0, "b0b9066488b82a9286fc037460cea52ace1092329817c06d4261415a6f2b1afc",
                 id="report-csv"),
])
def test_subcommand_stdout_bytes_pinned(capsys, monkeypatch, tmp_path, argv, code, digest):
    # every subcommand but bounds (pinned in TestBounds): a change to a value,
    # key order, float format or header moves a digest; relative file names
    # keep the headers that echo --file free of the temporary directory
    monkeypatch.chdir(tmp_path)
    Path("seqs.txt").write_text(PINNED_FILE)
    rng = random.Random(0)
    Path("seq256.txt").write_text("".join(rng.choice("+-") for _ in range(256)) + "\n")
    cfg = experiments.ExperimentConfig(n_grid=(32, 48), r=3, samples=6, master_seed=1)
    Path("report.json").write_text(experiments.emit_report(
        experiments.estimate_expected_ratio(cfg), "json"))
    argv = [{"SEQS": "seqs.txt", "SEQ256": "seq256.txt", "REPORT": "report.json"}.get(tok, tok)
            for tok in argv]
    got_code, out, _ = run_cli(capsys, *argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
