"""CLI surface: rendering, exit codes, formats, byte stability."""

import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rrcf
from oracles import rf_from_json
from rrcf import cli, core, verify
from rrcf.core import asi_u, convergent, g, g_difference, mu, nu
from rrcf.numeric import ConvergenceReport
from rrcf.poly import L, ONE, Q, RationalFunction
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
    back = rf_from_json(json.loads(out))
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
    assert rf_from_json(data) == RationalFunction(core.nu(3))


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


def test_import_loads_no_dataclasses_inspect_csv_or_fractions():
    # every rrcf process, and every benchmark worker, pays for what the import loads
    probe = "import sys; before = set(sys.modules); import rrcf.cli; print(*sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(Path(rrcf.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "rrcf.cli" in added
    assert not added & {"dataclasses", "inspect", "csv", "fractions"}


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


def test_verify_division_report_names_its_seed(capsys):
    # two seeds draw different samples, and each case of the JSON says which seed it came from
    outs = []
    for seed in (0, 3):
        code, out, _ = run_cli(capsys, "verify", "--suite", "division", "--seed", str(seed), "--format", "json")
        data = json.loads(out)
        assert code == 0 and [case["seed"] for case in data["cases"]] == [seed] * 66
        assert VerificationReport.from_json(data) == verify.check_division_step(seed=seed)
        outs.append(out)
    assert outs[0] != outs[1]


# -- verify --suite all in one process -------------------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Record every attempt to fork or open a pipe, each of which raises; the CLI makes none."""
    calls = []

    def refuse(name):
        def call(*args):
            calls.append(name)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        return call

    monkeypatch.setattr(os, "fork", refuse("fork"))
    monkeypatch.setattr(os, "pipe", refuse("pipe"))
    return calls


def _in_process_all(n_max, seed, fmt):
    # the suites called one by one, rendered as the CLI does
    reports = [check(n_max, seed) for check in verify.SUITES.values()]
    if fmt == "json":
        return json.dumps([r.to_json() for r in reports], indent=2) + "\n"
    return "\n".join(r.render_text() for r in reports) + "\n"


@pytest.mark.parametrize("n_max", [1, 2, 6, 10])
@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_on_two_processes_matches_one(capsys, forks, n_max, seed):
    # --suite all prints what the suites called one by one print, with no fork
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n-max", str(n_max),
                                 "--seed", str(seed), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == _in_process_all(n_max, seed, fmt)
    assert forks == []


def test_verify_single_suite_and_one_cpu_do_not_fork(capsys, monkeypatch, forks):
    assert run_cli(capsys, "verify", "--suite", "division")[0] == 0
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, "verify", "--suite", "all", "--n-max", "2")[0] == 0
    assert forks == []


def test_verify_all_exits_zero_when_fork_raises(capsys, forks):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n-max", "3")
    assert (code, err) == (0, "") and out.count("suite=") == len(verify.SUITES)
    assert forks == []


def _raise(message):
    def check(*args, **kwargs):
        raise ValueError(message)

    return check


@pytest.mark.parametrize(
    "broken, message",
    [
        ({"check_division_step": "boom"}, "boom"),  # the last suite
        ({"check_recursion": "boom"}, "boom"),  # a middle suite
        # two suites raise: the one that comes first in SUITES order wins
        ({"check_entry16": "entry16", "check_telescoping": "telescoping"}, "entry16"),
        ({"check_recursion": "recursion", "check_asi": "asi"}, "recursion"),
    ],
    ids=["child", "caller", "child_first", "caller_first"],
)
def test_verify_all_raises_what_one_process_raises(capsys, monkeypatch, forks, broken, message):
    for name, text in broken.items():
        monkeypatch.setattr(verify, name, _raise(text))
    with pytest.raises(ValueError, match=f"^{message}$"):
        cli.main(["verify", "--suite", "all", "--n-max", "3"])
    assert capsys.readouterr().out == "" and forks == []


_div = RationalFunction.__truediv__


def _fail_lines(out):
    suite, lines = None, []
    for line in out.splitlines():
        if line.startswith("suite="):
            suite = line[len("suite="):]
        elif line.endswith(" FAIL"):
            lines.append(f"{suite} {line[:-len(' FAIL')]}")
    return lines


@pytest.mark.parametrize(
    "owner, name, fault, expected",
    [
        (core, "mu", lambda n: mu(n) + L if n == 2 else mu(n), ["entry16 n=2", "b0 n=2"]),
        (core, "nu", lambda n: nu(n) + L if n == 2 else nu(n), ["entry16 n=2", "b0 n=2"]),
        (
            core,
            "g",
            lambda n, s: g(n, s) + 1 if (n, s) == (2, 1) else g(n, s),
            ["theorem1 n=2", "recursion n=2 s=0", "recursion n=2 s=1", "recursion n=2 s=3",
             "telescoping n=2 s=0", "telescoping n=2 s=1", "b0 n=2", "asi n=2"],
        ),
        (
            core,
            "g_difference",
            lambda n, s: g_difference(n, s) + Q if (n, s) == (2, 1) else g_difference(n, s),
            ["telescoping n=2 s=1"],
        ),
        (core, "asi_u", lambda n: asi_u(n) + L * Q if n == 2 else asi_u(n), ["asi n=2"]),
        # a wrong quotient by 1 + q: of every division the suites make, only division's sample 0 takes one
        (
            RationalFunction,
            "__truediv__",
            lambda a, b: _div(a, b) * RationalFunction(ONE + Q) if b == ONE + Q else _div(a, b),
            ["division seed=0 sample=0"],
        ),
    ],
    ids=["mu", "nu", "g", "g_difference", "asi_u", "truediv"],
)
def test_verify_all_patched_state_reaches_the_child(capsys, monkeypatch, forks, owner, name, fault, expected):
    # the suites look each formula up when they run, so --suite all sees the
    # replaced attribute, and each fault fails exactly the cases that use it
    monkeypatch.setattr(owner, name, fault)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n-max", "3")
    assert code == 1 and _fail_lines(out) == expected and forks == []


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


def test_eval_series_underflow_is_clean_error_not_a_pole(capsys):
    # (q;q)_k underflows to 0.0 at k = 352 although no factor 1 + 0.5 q^k is zero
    argv = ("eval", "--q", "0.999", "--lambda", "1", "--b", "0.5", "--k", "20000", "--n-max", "5")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "underflowed" in err and "pole" not in err


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


def test_eval_rejects_n_max_above_cap_before_building_a_table(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli.numeric, "convergence_demo", no_table)
    code, out, err = run_cli(
        capsys, "eval", "--q", "0.5", "--lambda", "1", "--b", "0.5", "--n-max", str(cli.EVAL_N_MAX_CAP + 1)
    )
    assert code == 2
    assert out == ""
    assert err == "error: --n-max must be <= 100000, got 100001\n"


# a point whose partial sums overflow to inf at k = 2
_OVERFLOW_POINT = ("--q", "0.5", "--lambda", "1e300", "--b", "0")


def test_eval_rejects_k_above_cap_before_summing_a_series(capsys, monkeypatch):
    def no_series(*args):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(cli.numeric, "convergence_demo", no_series)
    code, out, err = run_cli(capsys, "eval", *_OVERFLOW_POINT, "--k", str(cli.EVAL_K_CAP + 1))
    assert code == 2
    assert out == ""
    assert err == "error: --k must be <= 1000000, got 1000001\n"


def test_eval_runs_k_at_cap_to_the_series_error(capsys):
    code, out, err = run_cli(capsys, "eval", *_OVERFLOW_POINT, "--k", str(cli.EVAL_K_CAP))
    assert (code, out) == (1, "")
    assert err == (
        "error: the series' partial sums overflowed double precision at k=2, (q=0.5, lam=1e+300, b=0.0)\n"
    )


def test_eval_accepts_n_max_at_cap(capsys, tmp_path):
    target = tmp_path / "cap.csv"
    code, out, err = run_cli(
        capsys, "eval", "--q", "0.5", "--lambda", "1", "--b", "0.5",
        "--n-max", str(cli.EVAL_N_MAX_CAP), "--format", "csv", "--out", str(target),
    )
    assert (code, out, err) == (0, "", "")
    lines = target.read_text().splitlines()
    assert len(lines) == cli.EVAL_N_MAX_CAP + 1
    assert lines[-1].startswith(f"{cli.EVAL_N_MAX_CAP},")


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--n", ("convergent", "--n", "129")),
        ("--n", ("series", "--which", "g", "--n", "129", "--s", "0")),
        ("--n", ("series", "--which", "asi", "--n", "129")),
        ("--n-max", ("verify", "--suite", "all", "--n-max", "129")),
        ("--n-max", ("verify", "--suite", "theorem1", "--n-max", "129")),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_exact_depth_above_cap_is_usage_error_before_building(capsys, monkeypatch, flag, argv):
    def no_build(*args):
        raise AssertionError("a formula was built")

    for name in ("convergent", "mu", "nu", "g", "asi_u", "cf_convergents_iter"):
        monkeypatch.setattr(core, name, no_build)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be <= 128, got 129\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("series", "--which", "mu", "--n", "0"), "--n must be >= 1, got 0"),
        (("series", "--which", "g", "--n", "0", "--s", "0"), "--n must be >= 1, got 0"),
        (("series", "--which", "asi", "--n", "-1"), "--n must be >= 0, got -1"),
        (("verify", "--suite", "all", "--n-max", "-3"), "--n-max must be >= 1, got -3"),
        (("eval", "--q", "0.5", "--lambda", "1", "--b", "0", "--n-max", "0"), "--n-max must be >= 1, got 0"),
        (("eval", "--q", "0.5", "--lambda", "1", "--b", "0", "--k", "0"), "--k must be >= 1, got 0"),
    ],
)
def test_flag_below_its_range_names_the_flag(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_exact_depth_cap_is_inclusive(capsys):
    assert cli.EXACT_DEPTH_CAP == 128
    assert run_cli(capsys, "series", "--which", "g", "--n", "128", "--s", "128") == (0, "1\n", "")


def test_eval_help_names_the_n_max_cap(capsys):
    code, out, _ = run_cli(capsys, "eval", "--help")
    assert code == 0
    assert "1..100000" in out


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
GOLDEN_DIGEST = "6b236cdfdd54e71530130708435e82557ce951dc4413ae294f939d59048d2187"


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
