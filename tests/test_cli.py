import json
import math
import os
import re
import shlex
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

    def test_qgamma_negative_real(self, capsys):
        # Gamma_q at a real negative non-integer is a real number, printed as one.
        code, out, _ = run_cli(capsys, "eval", "qgamma", "--x", "-0.5", "--q", "0.5")
        assert code == 0
        value = re.fullmatch(r"value: (\S+)\n", out).group(1)
        assert float(value) == pytest.approx(-1.8976113635438452, rel=1e-13)

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


FK_OPTS = ("--alpha1 0.5 --alpha2 0.7 --beta1 0.6 --beta2 0.9"
           " --gamma1 1.5 --gamma2 1.7 --gamma3 1.9 --x 0.2 --y 0.1 --z 0.15")

# Stored stdout of one call per eval function (two for rphis, with and
# without lower parameters, and for each measure kind).
EVAL_GOLDEN = [
    ("2f1 --a 0.3 --b 0.7 --c 1.9 --z 0.5",
     "value: 1.0699323854027163\nterms_used: 29\nconverged: True\nest_trunc_error: 7.734e-13\n"),
    ("pfq --upper 0.5,0.7,1.1 --lower 1.3,1.9 --z 0.4",
     "value: 1.0752916975678948\nterms_used: 23\nconverged: True\nest_trunc_error: 6.467e-13\n"),
    ("f2 --a 0.5 --b1 0.7 --b2 0.9 --c1 1.5 --c2 1.7 --y 0.3 --z 0.2",
     "value: 1.1615902804193645\nterms_used: 1394\nconverged: True\nest_trunc_error: 4.611e-15\n"),
    (f"fk {FK_OPTS}",
     "value: 1.1303753812175823\nterms_used: 1595\nconverged: True\nest_trunc_error: 4.790e-15\n"),
    ("fk_L --a1 0.5 --a2 0.7 --b 0.6,0.8 --cc 1.4,1.6,1.8 --zs 0.1,0.2,0.15",
     "value: 1.156435650249628\nterms_used: 1716\nconverged: True\nest_trunc_error: 4.868e-15\n"),
    (f"phik {FK_OPTS} --q 0.5",
     "value: 1.2090090571814778\nterms_used: 26\nconverged: True\nest_trunc_error: 7.412e-16\n"),
    ("rphis --upper 0.5,0.3 --lower 0.7 --z 0.4 --q 0.5",
     "value: 2.7964717990103196\nterms_used: 32\nconverged: True\nest_trunc_error: 7.689e-13\n"),
    ("rphis --upper 0.5 --lower '' --z 0.4 --q 0.3",
     "value: 1.4621424425268172\nterms_used: 31\nconverged: True\nest_trunc_error: 5.071e-13\n"),
    ("""phi3 --spec-json '{"a": [0.4], "b": [0.5], "c": [0.6], "h": [0.7], "hp": [0.8], "hpp": [0.3]}'"""
     " --x 0.1 --y 0.2 --z 0.15 --q 0.6",
     "value: 3.6331537928969215\nterms_used: 16675\nconverged: True\nest_trunc_error: 9.063e-14\n"),
    ("qgamma --x 2.5 --q 0.3", "value: 1.123947629202302\n"),
    ("qbeta --x 1.5 --y 2.5 --q 0.5", "value: 0.41767178687136935\n"),
    ("measure-moment --measure dirichlet --params 0.8,1.3 --ell 2", "value: 0.22119815668202816\n"),
    ("measure-moment --measure hypergeometric --params 0.5,0.6,1.9,0.7 --ell 1",
     "value: 0.24999999999999883\n"),
    ("q-moment --measure qdirichlet --params 0.8,1.3 --ell 2 --q 0.5", "value: 0.44796538888350435\n"),
    ("q-moment --measure qhypergeometric --params 0.3,0.4,0.6,0.5 --ell 1 --q 0.5",
     "value: 0.43342172706338894\n"),
]


def eval_argv(line):
    return ["eval", *shlex.split(line)]


class TestEvalGolden:
    @pytest.mark.parametrize("line,want", EVAL_GOLDEN, ids=[g[0].split()[0] for g in EVAL_GOLDEN])
    def test_stdout(self, capsys, line, want):
        code, out, err = run_cli(capsys, *eval_argv(line))
        assert (code, out, err) == (0, want, "")

    def test_every_function_covered(self):
        from saranfk.cli import EVAL

        assert {g[0].split()[0] for g in EVAL_GOLDEN} == set(EVAL)

    @pytest.mark.parametrize("line,option", [
        ("pfq --upper 0.5 --z 0.4", "lower"),
        ("pfq --upper 0.5 --lower '' --z 0.4", "lower"),
        ("rphis --lower 0.5 --z 0.4", "upper"),
        ("fk_L --a1 0.5 --a2 0.7 --b 0.6,0.8 --zs 0.1,0.2,0.15", "cc"),
        ("measure-moment --measure dirichlet --ell 2", "params"),
    ])
    def test_missing_list_option_exit_2(self, capsys, line, option):
        code, out, err = run_cli(capsys, *eval_argv(line))
        assert (code, out) == (2, "")
        assert err == f"error: eval: missing required option --{option}\n"

    @pytest.mark.parametrize("line", [
        "qbeta --x inf --y 1 --q 0.5",
        "2f1 --a 0.3 --b 0.7 --c 1.9 --z nan",
        f"fk {FK_OPTS.replace('--alpha1 0.5', '--alpha1 nan')}",
        "pfq --upper 0.5,inf --lower 1.5 --z 0.3",
        "qgamma --x 1e300 --q 0.5",
        "qbeta --x 1e300 --y 1e300 --q 0.5",
    ])
    def test_non_finite_input_exit_2(self, capsys, line):
        code, out, err = run_cli(capsys, *eval_argv(line))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_never_printed(self, capsys):
        # phi3 sums to NaN at a huge upper base (numpy warns on the way).
        line = """phi3 --spec-json '{"a": [1e308], "h": [1e-308]}' --x 0.1 --y 0.2 --z 0.15"""
        code, out, err = run_cli(capsys, *eval_argv(line))
        assert (code, out) == (2, "")
        assert err == "error: phi3 gave the non-finite value nan\n"


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

    def test_csv(self, capsys):
        import csv
        import io

        from saranfk import builtin_registry

        code, out, _ = run_cli(capsys, "list", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["id", "anchor", "cost_class", "tol"]
        assert rows[1:] == [[c.id, c.anchor, c.cost_class, str(c.tol)] for c in builtin_registry()]

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

    @pytest.mark.parametrize("identity", ["gasper-q-erdelyi-1", "euler-1"])
    @pytest.mark.parametrize("q", ["1.5", "0", "-0.3", "nan"])
    def test_q_outside_unit_interval_exit_2(self, capsys, identity, q):
        code, out, err = run_cli(
            capsys, "verify", "--identities", identity, "--samples", "2", "--q", "0.5", "--q", q
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: q must lie in (0,1), got ")

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


# A stored json-lines report with fixed wall times and one failing record,
# and the stdout of `report` in each format.
STORED_REPORT = (
    '{"anchor": "Eq. (1.2)", "failures": [], "id": "euler-1", "max_rel_residual": 1.2345e-14,'
    ' "pass": true, "q": null, "samples": 10, "wall_time_ms": 12.25}\n'
    '{"anchor": "Eq. (2.1)", "failures": [{"params": {"alpha": 0.5, "x": 0.1}, "residual": 0.003}],'
    ' "id": "gasper-q-erdelyi-1", "max_rel_residual": 0.003, "pass": false, "q": 0.5, "samples": 8,'
    ' "wall_time_ms": 250.0}\n'
)
REPORT_GOLDEN = {
    "json": STORED_REPORT,
    "csv": (
        "id,anchor,q,samples,max_rel_residual,pass,wall_time_ms,failures\r\n"
        "euler-1,Eq. (1.2),,10,1.234500e-14,True,12.2,0\r\n"
        "gasper-q-erdelyi-1@q=0.5,Eq. (2.1),0.5,8,3.000000e-03,False,250.0,1\r\n"
    ),
    "human": (
        "PASS  euler-1                      Eq. (1.2)                  residual 1.235e-14"
        "  (10 samples, 12 ms)\n"
        "FAIL  gasper-q-erdelyi-1@q=0.5     Eq. (2.1)                  residual 3.000e-03"
        "  (8 samples, 250 ms)\n"
    ),
}


class TestReport:
    @pytest.mark.parametrize("fmt", sorted(REPORT_GOLDEN))
    def test_stored_stdout(self, capsys, tmp_path, fmt):
        target = tmp_path / "report.jsonl"
        target.write_text(STORED_REPORT)
        code, out, err = run_cli(capsys, "report", str(target), "--format", fmt)
        assert (code, out, err) == (1, REPORT_GOLDEN[fmt], "")

    def test_missing_field_named(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        record = json.loads(STORED_REPORT.splitlines()[0])
        del record["samples"]
        target.write_text(json.dumps(record) + "\n")
        code, out, err = run_cli(capsys, "report", str(target))
        assert (code, out, err) == (2, "", "error: report record lacks the field 'samples'\n")
