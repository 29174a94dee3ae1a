"""CLI surface: rendering, exit codes, formats, byte stability."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rrcf
from rrcf import cli, core
from rrcf.core import convergent, mu
from rrcf.numeric import ConvergenceReport
from rrcf.poly import L, RationalFunction
from rrcf.verify import VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- convergent ----------------------------------------------------------------


def test_convergent_text_golden(capsys):
    code, out, _ = run_cli(capsys, "convergent", "--n", "1")
    assert code == 0
    assert out == "(1 + q*b + q*l)/(1 + q*b)\n"


def test_convergent_rejects_n_zero(capsys):
    code, _, err = run_cli(capsys, "convergent", "--n", "0")
    assert code == 2
    assert "error" in err


def test_convergent_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "convergent", "--n", "2", "--format", "json")
    assert code == 0
    back = RationalFunction.from_json(json.loads(out))
    expected = convergent(2)
    assert back.num == expected.num and back.den == expected.den


# -- series ----------------------------------------------------------------------


def test_series_mu_golden(capsys):
    code, out, _ = run_cli(capsys, "series", "--which", "mu", "--n", "2")
    assert code == 0
    assert out == "1 + q*l + q^2*l\n"


def test_series_g_endpoint_golden(capsys):
    code, out, _ = run_cli(capsys, "series", "--which", "g", "--n", "3", "--s", "3")
    assert code == 0
    assert out == "1\n"


def test_series_g_out_of_range_s(capsys):
    code, _, err = run_cli(capsys, "series", "--which", "g", "--n", "2", "--s", "5")
    assert code == 2
    assert "s must satisfy" in err


def test_series_g_requires_s(capsys):
    code, _, err = run_cli(capsys, "series", "--which", "g", "--n", "2")
    assert code == 2


def test_series_s_rejected_for_mu(capsys):
    code, _, err = run_cli(capsys, "series", "--which", "mu", "--n", "2", "--s", "1")
    assert code == 2


def test_series_asi_allows_n_zero(capsys):
    code, out, _ = run_cli(capsys, "series", "--which", "asi", "--n", "0")
    assert code == 0 and out == "1\n"


def test_series_nu_json(capsys):
    code, out, _ = run_cli(capsys, "series", "--which", "nu", "--n", "3", "--format", "json")
    data = json.loads(out)
    assert RationalFunction.from_json(data) == RationalFunction(core.nu(3))


# -- verify ------------------------------------------------------------------------


def test_verify_entry16_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "entry16", "--n-max", "6")
    assert code == 0
    assert "summary pass=6 fail=0" in out


def test_verify_unknown_suite_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_verify_invalid_range_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "theorem1", "--n-max", "0")
    assert code == 2


def test_verify_division_rejects_n_max_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "division", "--n-max", "0")
    assert code == 2
    assert out == "" and "--n-max must be >= 1" in err


def test_verify_b0_is_selectable(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "b0", "--n-max", "3", "--format", "json")
    assert code == 0
    report = VerificationReport.from_json(json.loads(out))
    assert report.suite == "b0" and report.all_passed and len(report.cases) == 3


def test_verify_under_optimize_flag():
    # -O strips assert statements; the run must not depend on them
    env = dict(os.environ, PYTHONPATH=str(Path(rrcf.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "rrcf.cli", "verify", "--suite", "theorem1", "--n-max", "4"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "summary pass=4 fail=0" in proc.stdout


def test_verify_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "asi", "--n-max", "3", "--format", "json")
    assert code == 0
    report = VerificationReport.from_json(json.loads(out))
    assert report.suite == "asi" and report.all_passed


def test_verify_all_emits_report_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n-max", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [r["suite"] for r in data] == [
        "entry16",
        "theorem1",
        "recursion",
        "telescoping",
        "b0",
        "asi",
        "division",
    ]


def test_verify_corrupted_build_exits_one(capsys, monkeypatch):
    # simulate a broken formula in the installed code; the suite must fail
    monkeypatch.setattr(core, "mu", lambda n: mu(n) + L if n == 2 else mu(n))
    code, out, _ = run_cli(capsys, "verify", "--suite", "entry16", "--n-max", "3")
    assert code == 1
    assert "n=2 FAIL" in out


def test_verify_division_seed_flag(capsys):
    code_a, out_a, _ = run_cli(capsys, "verify", "--suite", "division", "--seed", "9")
    code_b, out_b, _ = run_cli(capsys, "verify", "--suite", "division", "--seed", "9")
    assert code_a == code_b == 0
    assert out_a == out_b


# -- eval ---------------------------------------------------------------------------


def test_eval_text_contains_final_deviation(capsys):
    code, out, _ = run_cli(capsys, "eval", "--q", "0.1", "--lambda", "1", "--b", "0.5", "--n-max", "40")
    assert code == 0
    final = out.strip().splitlines()[-1]
    assert final.startswith("n=40 ")
    assert float(final.rsplit("deviation=", 1)[1]) < 1e-12


def test_eval_rejects_q_outside_unit_interval(capsys):
    code, _, err = run_cli(capsys, "eval", "--q", "1.0", "--lambda", "1", "--b", "0.5")
    assert code == 2
    assert "|q|" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--q", "--lambda", "--b"])
def test_eval_rejects_non_finite_point(capsys, flag, value):
    point = {"--q": "0.5", "--lambda": "1", "--b": "1"}
    point[flag] = value
    argv = [f"{name}={v}" for name, v in point.items()]  # "--b=-inf", not a flag
    code, out, err = run_cli(capsys, "eval", *argv, "--n-max", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


def test_eval_at_pole_is_clean_error(capsys):
    # b = -1/q is a pole of (-bq;q)_k: exit 1 with an error line, no traceback
    code, out, err = run_cli(capsys, "eval", "--q", "0.5", "--lambda", "1", "--b", "-2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "pole" in err


def test_eval_unconverged_series_is_clean_error(capsys):
    # one series term is far from the converged ratio 1.3443079305048562
    code, out, err = run_cli(capsys, "eval", "--q", "0.5", "--lambda", "1", "--b", "0.5", "--k", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "k=1" in err


def test_eval_lambda_zero_constant_column(capsys):
    code, out, _ = run_cli(capsys, "eval", "--q", "0.2", "--lambda", "0", "--b", "1")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert "convergent=1.0 " in line and line.endswith("deviation=0.0")


def test_eval_csv_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--q", "0.1", "--lambda", "1", "--b", "0.5", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "n,convergent,deviation"
    assert len(lines) == 11  # default n-max 10


def test_eval_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--q", "0.1", "--lambda", "1", "--b", "0.5", "--n-max", "5", "--format", "json"
    )
    report = ConvergenceReport.from_json(json.loads(out))
    assert report.rows[-1].n == 5


# -- shared behavior ------------------------------------------------------------------


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "entry16", "--n-max", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    report = VerificationReport.from_json(json.loads(target.read_text()))
    assert report.all_passed


@pytest.mark.parametrize(
    "argv",
    [("convergent", "--n", "2"), ("verify", "--suite", "theorem1", "--n-max", "2")],
    ids=["convergent", "verify"],
)
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_out_write_failure_is_usage_error(capsys, tmp_path, argv, target):
    # exit 1 means a failed verification, so an unwritable --out is exit 2
    out = tmp_path / "no" / "such" / "x" if target == "missing_dir" else tmp_path
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write ") and str(out) in err
    assert "Traceback" not in err


def test_text_output_byte_stable(capsys):
    runs = [
        run_cli(capsys, "convergent", "--n", "3")[1],
        run_cli(capsys, "convergent", "--n", "3")[1],
    ]
    assert runs[0] == runs[1]
    evals = [
        run_cli(capsys, "eval", "--q", "0.3", "--lambda", "-0.5", "--b", "2", "--n-max", "12")[1],
        run_cli(capsys, "eval", "--q", "0.3", "--lambda", "-0.5", "--b", "2", "--n-max", "12")[1],
    ]
    assert evals[0] == evals[1]


# sha256 of the exit code and output of every command in _golden_commands:
# it pins the printed normal forms and verify reports byte for byte
GOLDEN_DIGEST = "e5f0ce4416c9e3a60ea5712499f9fe0b961914328c54d37a1382534c78472a89"


def _golden_commands():
    for n in range(1, 13):
        yield ("convergent", "--n", str(n))
        yield ("convergent", "--n", str(n), "--format", "json")
        for s in range(n + 2):
            yield ("series", "--which", "g", "--n", str(n), "--s", str(s))
        for which in ("mu", "nu", "asi"):
            yield ("series", "--which", which, "--n", str(n))
    yield ("verify", "--suite", "all", "--n-max", "6", "--format", "json")
    yield ("verify", "--suite", "all", "--n-max", "10")


def _digest(capsys, commands) -> str:
    digest = hashlib.sha256()
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    return digest.hexdigest()


def test_outputs_match_golden_digest(capsys):
    assert _digest(capsys, _golden_commands()) == GOLDEN_DIGEST


# The same digest over the convergence table, in every format.  Every power
# of a dyadic q is exact, so the bytes do not depend on the platform's libm.
GOLDEN_EVAL_DIGEST = "675128d877c2fb4874f46298b769020e3d48ac7f9517967a46dd0275c07f9116"


def _golden_eval_commands():
    for q, lam, b in (("0.5", "1", "0.5"), ("-0.25", "-2", "1")):
        for n_max in ("12", "40"):
            for fmt in ("text", "json", "csv"):
                yield ("eval", "--q", q, "--lambda", lam, "--b", b, "--n-max", n_max, "--format", fmt)


def test_eval_outputs_match_golden_digest(capsys):
    assert _digest(capsys, _golden_eval_commands()) == GOLDEN_EVAL_DIGEST


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "convergent", "--n", "1", "--frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
