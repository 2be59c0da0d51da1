import json
import subprocess
import sys

import pytest

import mcjacobi.coeffs as coeffs
from mcjacobi.cli import dumps_17g, format_complex, run


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
