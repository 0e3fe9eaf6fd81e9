import json
import subprocess
import sys
from collections import Counter

import pytest

from lambdakit import enumerator
from lambdakit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_formula(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--k", "2", "--method", "formula")
        assert code == 0 and out == "90\n"

    def test_enum_split(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--k", "2",
                           "--method", "enum", "--split")
        assert code == 0 and out == "plus=1 minus=0\n"

    def test_dp_matches_formula(self, capsys):
        _, dp_out, _ = run(capsys, "count", "--n", "30", "--k", "2", "--method", "dp")
        _, f_out, _ = run(capsys, "count", "--n", "30", "--k", "2", "--method", "formula")
        assert dp_out == f_out

    def test_split_methods_agree(self, capsys):
        outputs = set()
        for method in ("enum", "dp", "formula"):
            _, out, _ = run(capsys, "count", "--n", "5", "--k", "2",
                            "--method", method, "--split")
            outputs.add(out)
        assert outputs == {"plus=816 minus=1224\n"}

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--k", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 4, "k": 2, "method": "dp", "lambda": 90}

    def test_formula_method_mismatch(self, capsys):
        code, _, err = run(capsys, "count", "--n", "4", "--k", "4", "--method", "formula")
        assert code == 3
        assert "k=2 and k=3" in err

    def test_bad_n(self, capsys):
        code, _, _ = run(capsys, "count", "--n", "0", "--k", "0")
        assert code == 2

    def test_missing_argument(self, capsys):
        code, _, _ = run(capsys, "count", "--n", "4")
        assert code == 2


class TestEnumerate:
    def test_single_matrix_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "2")
        assert code == 0
        assert out == '{"n":2,"rows":["11","11"]}\n{"count":1,"k":2,"n":2}\n'

    def test_six_records(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--k", "2")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 7
        assert json.loads(lines[-1]) == {"count": 6, "k": 2, "n": 3}
        assert json.loads(lines[0]) == {"n": 3, "rows": ["110", "101", "011"]}

    def test_permutation_records(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--k", "1")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 7
        rows = [json.loads(line)["rows"] for line in lines[:-1]]
        assert all(sum(r.count("1") for r in m) == 3 for m in rows)

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "6", "--k", "3",
                           "--max-matrices", "1000")
        assert code == 4
        assert "297200" in err

    def test_broken_pipe_is_quiet(self):
        # the stream consumer closing early must not produce a traceback
        proc = subprocess.Popen(
            [sys.executable, "-m", "lambdakit", "enumerate", "--n", "4", "--k", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.readline()
        proc.stdout.close()
        proc.wait(timeout=30)
        assert proc.returncode == 128 + 13
        assert proc.stderr.read() == b""


class TestClassify:
    def test_n3_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3")
        assert code == 0
        assert json.loads(out) == {
            "n": 3, "alpha": 1, "beta": 0, "gamma": 0, "delta": 0,
            "epsilon": 0, "zeta": 0, "eta": 0, "lambda_plus": 1,
        }

    def test_n4_census_sums(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4")
        data = json.loads(out)
        assert code == 0 and data["lambda_plus"] == 18

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--format", "csv")
        assert code == 0
        assert out == "n,alpha,beta,gamma,delta,epsilon,zeta,eta,lambda_plus\n3,1,0,0,0,0,0,0,1\n"

    def test_theorem4_report(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "5", "--theorem4")
        census_line, identity_line = out.strip().split("\n")
        assert code == 0
        assert json.loads(identity_line)["holds"] is True
        assert json.loads(census_line)["lambda_plus"] == 1224

    def test_too_small(self, capsys):
        code, _, _ = run(capsys, "classify", "--n", "2")
        assert code == 2

    def test_theorem4_sweeps_once_per_route(self, capsys, monkeypatch):
        # the census feeds both output lines; the identity's left side
        # comes from its own corner-split sweep
        calls = Counter()
        kernel = enumerator._kernel

        class CountingKernel:
            def __getattr__(self, name):
                def counted(*args):
                    calls[name, args] += 1
                    return getattr(kernel, name)(*args)
                return counted

        monkeypatch.setattr(enumerator, "_kernel", CountingKernel())
        code, _, _ = run(capsys, "classify", "--n", "5", "--theorem4")
        assert code == 0
        assert calls == {("corner_census3", (5,)): 1, ("count_split", (5, 3)): 1}


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--k", "2", "--n-max", "5")
        assert code == 0
        assert out == "n,k,lambda\n2,2,1\n3,2,6\n4,2,90\n5,2,2040\n"

    def test_factorial_column(self, capsys):
        code, out, _ = run(capsys, "table", "--k", "1", "--n-max", "4")
        assert out == "n,k,lambda\n1,1,1\n2,1,2\n3,1,6\n4,1,24\n"

    def test_json_ends_with_dp_value(self, capsys):
        code, out, _ = run(capsys, "table", "--k", "3", "--n-max", "6",
                           "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data[-1] == {"n": 6, "k": 3, "lambda": 297200}

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "table", "--k", "3", "--n-max", "2")
        assert code == 2


class TestVerify:
    def test_theorem1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--n-max", "5")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_oracle_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--n-max", "4")
        assert code == 0 and "FAIL" not in out

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "table", "--k", "2", "--n-max", "4",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "n,k,lambda\n2,2,1\n3,2,6\n4,2,90\n"

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "classify", "--n", "4", "--theorem4")
        _, second, _ = run(capsys, "classify", "--n", "4", "--theorem4")
        assert first == second
