import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from saranfk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_2f1_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "2f1", "--a", "1", "--b", "1", "--c", "2", "--z", "0.5")
        assert code == 0
        value = float(re.search(r"value: ([\d.eE+-]+)", out).group(1))
        assert value == pytest.approx(2 * math.log(2), rel=1e-10)

    def test_fk_origin(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "fk",
            "--alpha1", "0.5", "--alpha2", "0.5", "--beta1", "0.5", "--beta2", "0.5",
            "--gamma1", "1.5", "--gamma2", "1.5", "--gamma3", "1.5",
            "--x", "0", "--y", "0", "--z", "0",
        )
        assert code == 0
        assert "value: 1.0" in out

    def test_fk_outside_domain_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "fk",
            "--alpha1", "0.5", "--alpha2", "0.5", "--beta1", "0.5", "--beta2", "0.5",
            "--gamma1", "1.5", "--gamma2", "1.5", "--gamma3", "1.5",
            "--x", "0.5", "--y", "0.5", "--z", "0.3",
        )
        assert code == 2
        assert "outside D_K" in err

    def test_qgamma(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "qgamma", "--x", "2", "--q", "0.5")
        assert code == 0
        assert float(re.search(r"value: ([\d.eE+-]+)", out).group(1)) == pytest.approx(1.0)

    def test_pole_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "2f1", "--a", "1", "--b", "1", "--c", "-2", "--z", "0.5")
        assert code == 2

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(capsys, "eval", "nope", "--a", "1")
        assert code == 2

    def test_phi3_spec_not_an_object_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "phi3", "--spec-json", "[1]", "--x", "0.1", "--y", "0.1", "--z", "0.1"
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_q_moment(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "q-moment",
            "--measure", "qdirichlet", "--params", "0.8,1.3", "--ell", "0", "--q", "0.5",
        )
        assert code == 0
        assert float(re.search(r"value: ([\d.eE+-]+)", out).group(1)) == pytest.approx(1.0)

    @pytest.mark.parametrize("ell", ["1.5", "-1"])
    def test_measure_moment_bad_order_exit_2(self, capsys, ell):
        code, out, err = run_cli(
            capsys, "eval", "measure-moment",
            "--measure", "dirichlet", "--params", "0.5,0.5", "--ell", ell,
        )
        assert code == 2
        assert "value" not in out
        assert err.startswith("error: --ell")

    @pytest.mark.parametrize("ell", ["1.5", "-1"])
    def test_q_moment_bad_order_exit_2(self, capsys, ell):
        code, out, err = run_cli(
            capsys, "eval", "q-moment",
            "--measure", "qdirichlet", "--params", "0.8,1.3", "--ell", ell, "--q", "0.5",
        )
        assert code == 2
        assert "value" not in out
        assert err.startswith("error: --ell")

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exit_2(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "eval", "2f1", "--a", "0.3", "--b", "0.7", "--c", "1.9", "--z", "0.5", "--tol", tol
        )
        assert code == 2
        assert "value" not in out
        assert err.startswith("error: --tol")


class TestList:
    def test_contains_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "fk-erdelyi" in out
        assert "Theorem 1.1" in out

    def test_line_count_matches_registry(self, capsys):
        from saranfk import builtin_registry

        code, out, _ = run_cli(capsys, "list")
        assert len(out.strip().splitlines()) == len(builtin_registry())

    def test_json_parses(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "json")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert {"id", "anchor", "cost_class", "tol"} <= set(rows[0])

    def test_python_m_saranfk(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "saranfk", "list"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fk-erdelyi" in proc.stdout


class TestVerify:
    def test_single_identity_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identities", "euler-1", "--samples", "5", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert set(rec) == {
            "id", "anchor", "q", "samples", "max_rel_residual", "pass",
            "wall_time_ms", "failures",
        }
        assert rec["id"] == "euler-1"
        assert rec["q"] is None
        assert rec["pass"] is True

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_non_positive_samples_exit_2(self, capsys, samples):
        code, out, err = run_cli(capsys, "verify", "--identities", "euler-1", "--samples", samples)
        assert code == 2
        assert "PASS" not in out
        assert "sample count" in err

    def test_three_q_verdict_all_pass(self, capsys):
        # The full verdict: 13 classical records and 13 q-records at each of
        # three q, every one passing.
        code, out, _ = run_cli(
            capsys, "verify", "--identities", "all", "--q", "0.2", "--q", "0.5", "--q", "0.7",
            "--format", "json",
        )
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(recs) == 52
        assert [r["id"] for r in recs if not r["pass"]] == []
        assert code == 0

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exit_2(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "verify", "--identities", "euler-1", "--samples", "2", "--tol", tol
        )
        assert code == 2
        assert "PASS" not in out and "FAIL" not in out
        assert err.startswith("error: --tol")

    def test_unknown_identity_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identities", "bogus-id")
        assert code == 2

    def test_failure_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identities", "euler-1", "--samples", "3",
            "--tol", "1e-20", "--format", "json",
        )
        assert code == 1
        rec = json.loads(out.strip())
        assert rec["pass"] is False
        assert rec["failures"]
        assert set(rec["failures"][0]) == {"params", "residual"}

    def test_q_sweep_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identities", "gasper-discrete", "--samples", "4",
            "--q", "0.3", "--q", "0.5", "--format", "json",
        )
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["q"] for r in recs] == [0.3, 0.5]

    def test_determinism_modulo_wall_time(self, capsys):
        def strip(text):
            return [
                {k: v for k, v in json.loads(line).items() if k != "wall_time_ms"}
                for line in text.strip().splitlines()
            ]

        _, out1, _ = run_cli(capsys, "verify", "--identities", "euler-1,bateman",
                             "--samples", "4", "--format", "json")
        _, out2, _ = run_cli(capsys, "verify", "--identities", "euler-1,bateman",
                             "--samples", "4", "--format", "json")
        assert strip(out1) == strip(out2)

    def test_output_file_and_report(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, _, _ = run_cli(
            capsys, "verify", "--identities", "euler-1", "--samples", "3",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert target.exists()
        code, out, _ = run_cli(capsys, "report", str(target), "--format", "human")
        assert code == 0
        assert "PASS" in out and "euler-1" in out

    def test_report_record_missing_field_exit_2(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        target.write_text(json.dumps({"id": "x", "anchor": "y"}) + "\n")
        code, _, err = run_cli(capsys, "report", str(target))
        assert code == 2
        assert err.startswith("error: ")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identities", "euler-1", "--samples", "3", "--format", "csv"
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("id,anchor,q,samples,max_rel_residual,pass")
