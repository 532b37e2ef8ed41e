import hashlib
import json

import pytest

from corrlab import cli, experiments


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
        ]
        for argv, digest in cases:
            code, out, _ = run_cli(capsys, "bounds", *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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
    ])
    def test_bad_input_exits_2_with_empty_stdout(self, capsys, monkeypatch, tmp_path,
                                                 env_seed, argv):
        if env_seed is not None:
            monkeypatch.setenv("CORRLAB_SEED", env_seed)
        if argv[0] == "tail":  # stands in for a request too large to allocate
            def refuse(*_):
                raise MemoryError("Unable to allocate 9.09 TiB for an array")
            monkeypatch.setattr(experiments, "_sample_matrix", refuse)
        if argv[0] in ("report", "scan"):  # the text after the first flag goes to a file
            path = tmp_path / "input.txt"
            path.write_text(argv[2])
            argv = [*argv[:2], str(path), *argv[3:]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("sub", ["measure", "scan"])
    def test_failure_on_a_later_sequence_writes_nothing(self, capsys, tmp_path, sub):
        path = tmp_path / "mixed.txt"
        path.write_text("+-+-+-\n+-+\n")  # order 4 fits the first line only
        flag = "--order" if sub == "measure" else "--orders"
        code, out, err = run_cli(capsys, sub, "--file", str(path), flag, "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("sub", ["measure", "scan", "expect", "trend", "bounds",
                                     "oracle", "tail", "report"])
    def test_help_available(self, capsys, sub):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert "--help" in out or "usage" in out
