import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mcjacobi.coeffs as coeffs
from mcjacobi import acceptance, mcj, orthog
from mcjacobi.errors import ParameterError
from mcjacobi.params import ParamSet
from mcjacobi.cli import _floats, _params, build_parser, dumps_17g, format_complex, run


def test_print_poly(capsys):
    assert run(["print-poly", "--r", "1", "--d", "2", "--alpha", "1", "--nu", "0",
                "--m", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1 * m[3]"
    # nu = 0 with an integer alpha prints the exact rational body
    assert run(["print-poly", "--r", "1", "--d", "2", "--alpha", "3", "--nu", "0",
                "--m", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 + 2 * m[1] + 3 * m[2]"


def test_print_poly_rational_alpha(capsys):
    # p/q is an exact alpha, so the exact body prints; a decimal stays a float
    base = ["print-poly", "--r", "1", "--d", "2", "--nu", "0", "--m", "2"]
    assert run(base + ["--alpha", "7/2"]) == 0
    assert capsys.readouterr().out.strip() == "45/32 + 45/16 * m[1] + 117/32 * m[2]"
    assert run(base + ["--alpha", "3.5"]) == 0
    assert capsys.readouterr().out.strip() == (
        "(1.40625+0j) + (2.8125+0j) * m[1] + (3.65625+0j) * m[2]"
    )
    assert run(base + ["--alpha", "6/2"]) == 0
    assert capsys.readouterr().out.strip() == "1 + 2 * m[1] + 3 * m[2]"


@pytest.mark.parametrize("alpha", ["7/x", "1/0", "abc", "inf/2", ""])
def test_malformed_alpha_exits_2(capsys, alpha):
    with pytest.raises(SystemExit) as exc:
        run(["print-poly", "--r", "1", "--d", "2", "--alpha", alpha, "--nu", "0",
             "--m", "2"])
    assert exc.value.code == 2
    assert "alpha must be a number or p/q" in capsys.readouterr().err


def _parse_complex(text: str) -> complex:
    assert text.endswith("i")
    body = text[:-1]
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE":
            return complex(float(body[:i]), float(body[i:].replace("+", "")))
    raise AssertionError(f"bad complex format: {text}")


def test_eval_format(capsys):
    import cmath

    code = run(["eval", "--r", "1", "--d", "2", "--alpha", "1", "--nu", "0",
                "--m", "2", "--theta", "1.0"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    # sigma^2 at theta = 1 is e^{2i}
    assert abs(_parse_complex(out) - cmath.exp(2j)) < 1e-15


def test_eval_psi(capsys):
    assert run(["eval", "--r", "1", "--d", "2", "--alpha", "1.8", "--nu", "0.3",
                "--m", "0", "--family", "psi", "--t", "0.77"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("i")


def test_print_poly_laguerre(capsys):
    assert run(["print-poly", "--r", "1", "--d", "2", "--alpha", "2.7", "--nu", "0",
                "--m", "1", "--family", "laguerre"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(2.7+0j) + (-1+0j) * m[1]"


def test_verify_orth_json_byte_identical(tmp_path, capsys):
    args = ["verify-orth", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0",
            "--max-weight", "4", "--points", "48", "--tol", "1e-9",
            "--format", "json"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(f1)]) == 0
    assert run(args + ["--out", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["schema"] == "mcjacobi-orth-report-v1"
    assert doc["verdict"] == "pass"
    assert "wall_clock" not in doc


def test_verify_orth_csv(tmp_path, capsys):
    out = tmp_path / "gram.csv"
    assert run(["verify-orth", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0",
                "--max-weight", "2", "--points", "32", "--tol", "1e-8",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("partition,")
    assert len(lines) == 4


def test_verify_det(capsys):
    assert run(["verify-det", "--r", "2", "--d", "2", "--alpha", "3.5", "--nu", "0.4",
                "--max-weight", "2", "--trials", "4"]) == 0
    assert run(["verify-det", "--r", "2", "--d", "3", "--alpha", "3.5", "--nu", "0"]) == 2


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_det_without_trials_exits_2(capsys, trials):
    assert run(["verify-det", "--r", "2", "--d", "2", "--alpha", "3.5", "--nu", "0.4",
                "--max-weight", "1", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "--trials >= 1" in captured.err
    assert "pass" not in captured.out


def test_verify_det_with_every_trial_skipped_exits_2(capsys):
    # seed 14 draws its one r = 3 trial with two angles closer than 0.2
    assert run(["verify-det", "--r", "3", "--d", "2", "--alpha", "5", "--nu", "0.4",
                "--max-weight", "0", "--trials", "1", "--seed", "14"]) == 2
    captured = capsys.readouterr()
    assert "checked nothing" in captured.err
    assert "pass" not in captured.out
    # the next seed keeps its trial and checks it
    assert run(["verify-det", "--r", "3", "--d", "2", "--alpha", "5", "--nu", "0.4",
                "--max-weight", "0", "--trials", "1", "--seed", "13"]) == 0


def test_verify_genfun(capsys):
    assert run(["verify-genfun", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0.5",
                "--N", "30", "--z", "0.25", "--theta", "0.9", "--t", "0.8",
                "--tol", "1e-10"]) == 0
    # spectral bound violation is a parameter error -> exit 2
    assert run(["verify-genfun", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0",
                "--z", "0.5"]) == 2


def test_verify_ode(capsys):
    assert run(["verify-ode", "--m-max", "4"]) == 0


def test_verify_ode_with_negative_m_max_exits_2(capsys):
    # range(m_max + 1) is empty: nothing would be checked
    assert run(["verify-ode", "--m-max", "-1"]) == 2
    captured = capsys.readouterr()
    assert "degree bound m >= 0" in captured.err
    assert "pass" not in captured.out
    assert run(["verify-ode", "--m-max", "0"]) == 0


def test_conjecture_sweep_cli(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = run(["conjecture-sweep", "--r", "2", "--d", "5/2", "--alpha", "3",
                "--nu", "0,0.3", "--max-weight", "1", "--points", "24",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "mcjacobi-sweep-report-v1"
    assert len(doc["reports"]) == 2
    assert all(rep["flag"] == "evidence" for rep in doc["reports"])
    assert all(rep["diagnostics"]["converged"] for rep in doc["reports"])


def test_conjecture_sweep_checking_nothing_exits_2(tmp_path, capsys):
    # every point is outside alpha > (d/2)(r-1) and skipped: nothing is
    # checked, so nothing passes or fails, and no report is written
    out = tmp_path / "sweep.json"
    assert run(["conjecture-sweep", "--r", "2", "--alpha", "0.5", "--max-weight", "1",
                "--points", "8", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "checked nothing" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_verify_det_non_finite_residual_exits_2(capsys):
    # 15 of the 60 residuals are NaN, which max() used to drop: "pass", exit 0
    assert run(["verify-det", "--r", "2", "--d", "2", "--alpha", "1000000", "--nu", "1000",
                "--max-weight", "6", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parameter error: the determinant check at m = (0,0) ")
    assert "is not finite" in captured.err and "pass" not in captured.out


@pytest.mark.parametrize("argv, factor", [
    (["verify-det", "--r", "2", "--d", "2", "--alpha", "3", "--nu", "800", "--max-weight", "3",
      "--trials", "2"], "(1 - i t)^(-beta) of Psi"),
    (["verify-genfun", "--r", "1", "--alpha", "1e6", "--N", "5"],
     "(1 - z)^(beta - alpha) of the closed form"),
    (["verify-genfun", "--r", "2", "--d", "2", "--alpha", "1e6", "--N", "1", "--z", "0.2,0.1",
      "--theta", "0.5,1.5", "--t", "0.1,0.4"], "(1 - z)^(-alpha) of the closed form"),
    (["verify-genfun", "--r", "2", "--d", "2", "--nu", "0", "--N", "1", "--alpha", "1e6",
      "--z=-0.3,-0.2", "--theta", "0.5,1.5", "--t", "0.1,0.4"],
     "(1 - w_p z_q)^(-(beta - r + 1)) of the Cauchy kernel at 1 - sigma (--theta) and "
     "-z/(1 - z) (--z)"),
])
def test_power_past_double_range_names_its_factor(argv, factor, capsys):
    # each ended in a bare "error: complex exponentiation"
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"parameter error: the factor {factor} is past the double range; "
        f"use a smaller |nu| or alpha\n"
    )


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("points = 48\nmax_weight = 2\n")
    code = run(["--config", str(cfg), "verify-orth", "--r", "1", "--d", "2",
                "--alpha", "2", "--nu", "0", "--tol", "1e-9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "w<=2" in out  # config default applied
    # flags win over the config file
    code = run(["--config", str(cfg), "verify-orth", "--r", "1", "--d", "2",
                "--alpha", "2", "--nu", "0", "--tol", "1e-9", "--max-weight", "3"])
    assert code == 0
    assert "w<=3" in capsys.readouterr().out


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["verify-orth", "--no-such-flag"])
    assert exc.value.code == 2


def test_eval_psi_vanishing_pochhammer_exits_2(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "mcjacobi.cli", "eval", "--family", "psi", "--r", "1",
         "--d", "2", "--alpha", "-1", "--nu", "0.2", "--m", "2", "--t", "0.3"],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert proc.returncode == 2
    assert "(alpha)_k vanishes" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["eval", "--family", "psi", "--r", "1", "--alpha", "3", "--nu", "900", "--m", "1", "--t", "5"],
    ["verify-genfun", "--r", "1", "--alpha", "2", "--nu", "1000", "--N", "3", "--t", "50"],
])
def test_psi_prefactor_underflowing_to_zero_exits_2(argv, capsys):
    # |(1 - i t)^(-beta)| = e^(nu arg(1 - i t)) ~ e^(-1236) and e^(-1550): a Psi of 0, or
    # a generating-function residual of 0 with both sides 0, would mean nothing
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "(1 - i t)^(-beta) of Psi underflows to 0" in err
    assert "(--nu)" in err and "(--t)" in err


def test_psi_prefactor_underflow_is_refused_only_where_it_is_read(capsys):
    # the determinant check's psi side keeps its value, and a nearby finite eval prints
    p = ParamSet(r=1, d=2, alpha=3, nu=900)
    assert mcj.psi_eval((1,), p, [5.0]) == 0
    with pytest.raises(ParameterError, match=r"\(--nu\), \|t\| \(--t\)"):
        mcj.psi_eval((1,), p, [5.0], refuse_zero=True)
    assert run(["eval", "--family", "psi", "--r", "1", "--alpha", "3", "--nu", "0.5", "--m", "1",
                "--t", "5"]) == 0
    expected = format_complex(mcj.psi_eval((1,), p.with_(nu=0.5), [5.0]))
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize(
    "argv,message",
    [
        (["eval", "--r", "1", "--d", "2", "--alpha", "3", "--nu", "inf", "--m", "1",
          "--theta", "1.0"], "nu must be finite"),
        (["eval", "--r", "1", "--d", "2", "--alpha", "3", "--nu", "nan", "--m", "1",
          "--theta", "1.0"], "nu must be finite"),
        (["eval", "--r", "1", "--d", "2", "--alpha", "inf", "--nu", "0", "--m", "1",
          "--theta", "1.0"], "alpha must be finite"),
        (["print-poly", "--r", "1", "--d", "2", "--alpha", "3", "--nu", "nan", "--m", "1"],
         "nu must be finite"),
        (["verify-orth", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0",
          "--max-weight", "1", "--points", "16", "--tol", "nan"], "tolerances"),
        (["verify-orth", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0",
          "--max-weight", "1", "--points", "16", "--tol", "-0.5"], "tolerances"),
        (["verify-det", "--r", "2", "--d", "2", "--alpha", "3.5", "--nu", "0.4",
          "--max-weight", "1", "--trials", "2", "--tol", "nan"], "tolerances"),
        (["verify-genfun", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0.5",
          "--tol", "nan"], "tolerances"),
        (["verify-ode", "--m-max", "2", "--tol", "nan"], "tolerances"),
        (["verify-ode", "--m-max", "2", "--tol-rank1", "-1"], "tolerances"),
        (["conjecture-sweep", "--max-weight", "1", "--oracle-tol", "nan"], "tolerances"),
        (["eval", "--r", "1", "--d", "2", "--alpha", "3", "--nu", "0", "--m", "1",
          "--theta", "nan"], "must be finite"),
        (["eval", "--family", "psi", "--r", "1", "--d", "2", "--alpha", "3", "--nu", "0.2",
          "--m", "1", "--t", "inf"], "must be finite"),
        (["verify-genfun", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0.5",
          "--z", "nan"], "must be finite"),
        (["eval", "--r", "2", "--d", "1/0", "--alpha", "3", "--nu", "0", "--m", "1",
          "--theta", "1.0,2.0"], "d must be a number or p/q"),
        (["conjecture-sweep", "--d", "1/0,2", "--max-weight", "1"],
         "d must be a number or p/q"),
        (["eval", "--r", "2", "--d", "1e400", "--alpha", "3", "--nu", "0", "--m", "1",
          "--theta", "1.0,2.0"], "d must be finite"),
        (["conjecture-sweep", "--d", "1e400,2", "--max-weight", "1", "--points", "8"],
         "d must be finite"),
        (["conjecture-sweep", "--d", ",", "--max-weight", "1"],
         "need at least one multiplicity"),
        (["conjecture-sweep", "--alpha", ",", "--max-weight", "1"], "need at least one value"),
        (["conjecture-sweep", "--nu", ",", "--max-weight", "1"], "need at least one value"),
        (["verify-ode", "--m-max", "2", "--alpha-grid", ","], "need at least one value"),
        (["verify-ode", "--m-max", "2", "--nu-grid", ""], "need at least one value"),
        (["verify-ode", "--m-max", "3", "--alpha-grid", "0"], "(c)_k vanishes at c = 0"),
        (["--config", "no-such-dir/missing.cfg", "selftest", "--quick"], "missing.cfg"),
        (["--config"], "--config needs a file path"),
    ],
)
def test_non_finite_input_exits_2(child_env, argv, message):
    proc = subprocess.run(
        [sys.executable, "-m", "mcjacobi.cli"] + argv,
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "nan" not in proc.stdout


def test_verify_orth_json_independent_of_blas_threads(child_env):
    argv = [sys.executable, "-m", "mcjacobi.cli", "verify-orth", "--r", "3", "--d", "1",
            "--alpha", "3", "--nu", "0.3", "--max-weight", "2", "--points", "16",
            "--tol", "1", "--format", "json"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(child_env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split(b"\n", 1)[1])  # drop the timed summary line
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["schema"] == "mcjacobi-orth-report-v1"


def test_selftest_quick(capsys):
    assert run(["selftest", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10


def test_selftest_detects_injected_sign_error(capsys, monkeypatch):
    real = coeffs.gen_binom

    def flipped(m, k, params):
        return -real(m, k, params)

    monkeypatch.setattr(coeffs, "gen_binom", flipped)
    assert run(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "FAILED suites:" in out
    assert "exact combinatorial layer" in out


def test_dumps_17g_and_complex_format():
    assert dumps_17g({"a": 1.0, "b": [True, None, "x"]}) == '{"a":1,"b":[true,null,"x"]}'
    assert dumps_17g(0.1) == "0.10000000000000001"
    assert format_complex(1.5 - 0.25j) == "1.5-0.25i"
    assert format_complex(complex(0, 2)) == "0+2i"


# commands that README or CI show being refused for their size
OVER_BUDGET = [
    ["verify-ode", "--m-max", "100000"],
    ["verify-genfun", "--N", "100000"],
    ["verify-orth", "--r", "2", "--d", "2", "--alpha", "3", "--nu", "0", "--max-weight", "1",
     "--points", "100000"],
    ["verify-orth", "--r", "2", "--max-weight", "100000"],
    ["conjecture-sweep", "--max-weight", "100000"],
    ["print-poly", "--r", "1", "--d", "2", "--alpha", "3", "--nu", "0", "--m", "340"],
    ["eval", "--r", "2", "--d", "2", "--alpha", "3", "--nu", "0.3", "--m", "200,180",
     "--theta", "0.5,1.5"],
    ["verify-det", "--r", "2", "--d", "2", "--alpha", "3", "--nu", "0", "--max-weight", "100000"],
    ["print-poly", "--r", "20", "--d", "2", "--alpha", "30", "--nu", "0", "--m", "8"],
    ["print-poly", "--r", "3000", "--m", "0", "--d", "2", "--alpha", "30", "--nu", "0"],
    ["print-poly", "--r", "3000", "--m", "1", "--d", "2", "--alpha", "30", "--nu", "0"],
    ["print-poly", "--r", "1000000", "--m", "0", "--d", "2", "--alpha", "30", "--nu", "0"],
    ["verify-genfun", "--r", "12", "--d", "2", "--alpha", "14", "--nu", "0", "--N", "12",
     "--z", ",".join(["0.1"] * 12), "--theta", "0.1,0.3,0.5,0.7,0.9,1.1,1.3,1.5,1.7,1.9,2.1,2.3",
     "--t", "0.1,0.3,0.5,0.7,0.9,1.1,1.3,1.5,1.7,1.9,2.1,2.3"],
    ["print-poly", "--r", "2", "--d", "7/3", "--alpha", "3", "--nu", "0", "--m", "50,40"],
    ["verify-det", "--r", "2", "--d", "2", "--alpha", "3", "--nu", "0", "--max-weight", "1",
     "--trials", "100000000"],
]
# commands that README or CI show being refused because a float factor would
# pass the double range; the second has distinct z_j = j/1000, theta_j = t_j = j/100
_R300 = [",".join(f"{j / scale:g}" for j in range(300)) for scale in (1000, 100)]
PAST_FLOAT_RANGE = [
    ["verify-orth", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0.3", "--max-weight", "250"],
    ["verify-genfun", "--r", "300", "--d", "2", "--alpha", "302", "--nu", "0", "--N", "2",
     "--z", _R300[0], "--theta", _R300[1], "--t", _R300[1]],
]


def _documented_commands():
    """argv of every command with a work budget in README and CI."""
    root = Path(__file__).resolve().parents[1]
    text = "\n".join(
        (root / name).read_text() for name in ("README.md", ".github/workflows/tests.yml")
    ).replace("\\\n", " ")
    pattern = re.compile(
        r"mcjacobi(?:\.cli)? (verify-ode|verify-genfun|verify-orth|conjecture-sweep|print-poly|eval"
        r"|verify-det)\b([^;|&>\n]*)"
    )
    return [[cmd] + shlex.split(rest) for cmd, rest in pattern.findall(text)]


class _Reached(Exception):
    """A command got past its work-budget checks to its first family build."""


def _reached(*args, **kwargs):
    raise _Reached


def _check_budget(argv):
    """Run the work-budget checks of one command without doing its work."""
    args = build_parser().parse_args(argv)
    if args.command in ("print-poly", "eval", "verify-det"):
        # these check their budget in the command itself, then build
        with pytest.MonkeyPatch.context() as mp:
            for name in ("mcj_build", "laguerre_build", "psi_eval"):
                mp.setattr(mcj, name, _reached)
            with pytest.raises(_Reached):
                args.fn(args)
    elif args.command == "verify-ode":
        mcj._check_operator_grid(_floats(args.alpha_grid), _floats(args.nu_grid), args.m_max)
    elif args.command == "verify-genfun":
        z = [complex(x) for x in _floats(args.z)]
        mcj._check_genfun_domain(_params(args), z, args.N)
    elif args.command == "verify-orth":
        params = _params(args)
        orthog._check_budget(args.points, params)
        orthog._check_work(params, args.max_weight, args.points)
    else:
        orthog._sweep_grid(args.d, _floats(args.alpha), _floats(args.nu), args.r,
                           args.max_weight, args.points)


def test_documented_commands_within_work_budget():
    commands = _documented_commands()
    assert ["verify-ode", "--m-max", "30"] in commands
    assert {argv[0] for argv in commands} == {
        "verify-ode", "verify-genfun", "verify-orth", "conjecture-sweep", "print-poly", "eval",
        "verify-det",
    }
    assert all(argv in commands for argv in OVER_BUDGET + PAST_FLOAT_RANGE)
    for argv in commands:
        try:
            _check_budget(argv)
        except ValueError as exc:  # some are refused on purpose, most not for size
            assert ("budget" in str(exc)) == (argv in OVER_BUDGET), (argv, exc)
            assert ("double range" in str(exc)) == (argv in PAST_FLOAT_RANGE), (argv, exc)
        else:
            assert argv not in OVER_BUDGET + PAST_FLOAT_RANGE, argv


# commands that CI shows being refused past their budget checks, with a
# message: a vanishing determinant prefactor, a series fallback over the
# truncation budget, named by the flag of the coincident values, and distinct points whose Vandermonde product is 0 in
# doubles, named by their flag: z_j = 0.001 (1 + j/100), then t_j = 2e-12 j
_R20 = [",".join(f"{(100 + j) / 1e5:g}" for j in range(20)),
        ",".join(f"{j / 10:g}" for j in range(20))]
_R20_T = [",".join(f"{0.01 + 0.015 * j:g}" for j in range(20)),
          ",".join(f"{0.3 * j:g}" for j in range(20)),
          ",".join(f"{2e-12 * j:g}" for j in range(20))]
REFUSED_LATE = [
    (["verify-det", "--r", "2", "--d", "2", "--alpha", "0", "--nu", "0", "--max-weight", "0"],
     "divides by ((alpha - r)/2 + i nu + 1)_1, which is 0"),
    (["verify-genfun", "--r", "3", "--d", "2", "--alpha", "1", "--nu", "0", "--N", "1",
      "--z", "0.1,0.05,0.02", "--theta", "0.3,1,2", "--t", "0.1,0.2,0.4"],
     "divides by (beta - r + 1)_1, which is 0"),
    (["verify-genfun", "--r", "4", "--d", "2", "--alpha", "4", "--nu", "0", "--N", "2",
      "--z", "0.1,0.05,0.02,0.01", "--theta", "0.2,0.2,0.2,0.2", "--t", "0.1,0.3,0.5,0.7"],
     "N = 30 sums over more than 400 partitions at r = 4"),
    (["verify-genfun", "--r", "20", "--d", "2", "--alpha", "22", "--nu", "0", "--N", "1",
      "--z", _R20[0], "--theta", _R20[1], "--t", _R20[1]],
     "the Vandermonde product of -z/(1 - z) (--z) is past the double range"),
    (["verify-genfun", "--r", "20", "--d", "2", "--alpha", "22", "--nu", "0", "--N", "1",
      "--z", _R20_T[0], "--theta", _R20_T[1], "--t", _R20_T[2]],
     "the Vandermonde product of t (--t) is past the double range"),
    (["verify-genfun", "--r", "3", "--d", "2", "--alpha", "4", "--nu", "0", "--N", "2",
      "--z", "0.1,0.2,0.3", "--theta", "0.3,0.3,1", "--t", "0,1,2"],
     "coincident 1 - sigma (--theta) entries need it, so use distinct ones"),
]


@pytest.mark.parametrize("argv, message", REFUSED_LATE)
def test_refused_past_budget_checks_exits_2(argv, message, capsys):
    assert argv in _documented_commands()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: ") and message in err, err


def test_selftest_within_work_budget(monkeypatch):
    # criteria 6 and 7 are the battery's generating-function and operator
    # checks; each check must run, under the budget
    checked = []
    for name in ("_check_operator_grid", "_check_genfun_domain"):
        real = getattr(mcj, name)

        def spy(*args, real=real, name=name):
            checked.append(name)
            return real(*args)

        monkeypatch.setattr(mcj, name, spy)
    assert acceptance.criterion_6().passed
    assert acceptance.criterion_7().passed
    assert {"_check_operator_grid", "_check_genfun_domain"} <= set(checked)


def test_verify_genfun_nan_residual_fails(capsys, monkeypatch):
    # a float sum that overflows gives a NaN residual; max() would drop it
    # and report a pass
    monkeypatch.setattr(mcj, "genfun_residual_psi", lambda *args: float("nan"))
    assert run(["verify-genfun", "--N", "5"]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


@pytest.mark.parametrize("N,symbol", [("170", "(alpha)_m"), ("171", "(n/r)_m")])
def test_verify_genfun_refuses_float_overflow(N, symbol, capsys, monkeypatch):
    # at r = 1, alpha = 2: (alpha)_N = (N + 1)! and (n/r)_N = N! pass the
    # double range at N = 170 and 171; refused before any sum is built
    monkeypatch.setattr(mcj, "mcj_build", None)
    assert run(["verify-genfun", "--N", N]) == 2
    err = capsys.readouterr().err
    assert f"N = {N}" in err and symbol in err and "double range" in err


def test_verify_genfun_refuses_delta_factorial_before_any_sum(capsys, monkeypatch):
    # delta! of the d = 2 closed forms leaves the double range at r = 28; the
    # truncation at r = 300, N = 2 sums for seconds, so it is refused first
    monkeypatch.setattr(mcj, "mcj_build", None)
    start = time.perf_counter()
    assert run(PAST_FLOAT_RANGE[1]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "needs delta! at r = 300 as a float, past the double range" in err


@pytest.mark.parametrize(
    "argv,symbol",
    [
        # at r = 1, d = 2: (n/r)_m = m! and (alpha)_m = (m + 1)! at alpha = 2
        (PAST_FLOAT_RANGE[0], "(n/r)_m at m = 250"),
        (["verify-orth", "--r", "1", "--alpha", "2", "--max-weight", "170"], "(alpha)_m at m = 170"),
        (["conjecture-sweep", "--r", "1", "--d", "2", "--alpha", "2", "--nu", "0.3",
          "--max-weight", "171", "--points", "8"], "(n/r)_m at m = 171"),
    ],
)
def test_certificate_past_float_range_refused_before_any_build(argv, symbol, capsys, monkeypatch):
    # refused by the work check, before any polynomial is built
    monkeypatch.setattr(orthog, "mcj_build", None)
    assert run(argv) == 2
    err = capsys.readouterr().err
    weight = argv[argv.index("--max-weight") + 1]
    assert f"max weight {weight} at r = 1" in err and symbol in err and "double range" in err


def test_certificate_within_float_range_passes_the_work_check():
    # the largest max weight whose factors stay finite at r = 1, d = 2, alpha = 2
    p = ParamSet(r=1, d=2, alpha=2, nu=0.3)
    orthog._check_work(p, 169, 64)
    with pytest.raises(ParameterError, match="max weight 170"):
        orthog._check_work(p, 170, 64)


def test_verify_genfun_within_float_range():
    # the largest N whose factors stay finite at the defaults
    args = build_parser().parse_args(["verify-genfun", "--N", "169"])
    mcj._check_genfun_domain(_params(args), [0.2], 169)
    for N in (170, 171):
        with pytest.raises(ParameterError, match=f"N = {N}"):
            mcj._check_genfun_domain(_params(args), [0.2], N)
    # Laguerre sums have no (beta)_m: a huge nu overflows only that symbol
    p = _params(build_parser().parse_args(["verify-genfun", "--nu", "1e6"]))
    with pytest.raises(ParameterError, match="beta"):
        mcj._check_genfun_domain(p, [0.2], 60)
    mcj._check_genfun_domain(p, [0.2], 60, False)


@pytest.mark.parametrize(
    "argv,message",
    [
        # a bad alpha late in the grid
        (["--r", "2", "--max-weight", "3", "--points", "96", "--alpha", "3,2e6"], "alpha"),
        # a d late in the grid whose nested rule is past the node budget
        (["--r", "3", "--d", "2,1", "--alpha", "5", "--points", "48", "--max-weight", "1"],
         "budget"),
    ],
)
def test_conjecture_sweep_checks_whole_grid_first(argv, message, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a certificate ran before the grid was checked")

    monkeypatch.setattr(orthog, "verify_orthogonality", refuse)
    assert run(["conjecture-sweep"] + argv) == 2
    assert message in capsys.readouterr().err


def test_light_commands_never_import_scipy(child_env):
    # scipy.special is imported on first use, and these commands never use it
    script = """
import sys
from mcjacobi.cli import run
for argv in (
    ["print-poly", "--r", "2", "--alpha", "3", "--nu", "0.5", "--m", "2,1"],
    ["eval", "--r", "2", "--alpha", "3", "--nu", "0.5", "--m", "2,1", "--theta", "0.9,2.7"],
    ["eval", "--family", "psi", "--m", "3"],
    ["verify-det", "--r", "2", "--max-weight", "2", "--trials", "3"],
    ["verify-genfun"],
    ["verify-ode", "--m-max", "3"],
):
    if run(argv) != 0:
        sys.exit(f"{argv} failed")
sys.exit("scipy imported" if "scipy" in sys.modules else 0)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
