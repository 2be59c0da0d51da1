"""Property tests: bad input exits 2 with a message and no traceback.

Each case runs ``cli.run`` in-process, so an exception it does not turn into
exit code 2 fails the test with that exception.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mcjacobi import coeffs, mcj  # noqa: E402
from mcjacobi.cli import run  # noqa: E402
from mcjacobi.params import PARAM_LIMIT  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

# one valid invocation per command that takes --r/--d/--alpha/--nu, at r = 2
COMMANDS = {
    "print-poly": ["--m", "2,1"],
    "eval": ["--m", "2,1", "--theta", "0.9,2.7"],
    "verify-orth": ["--max-weight", "1", "--points", "8"],
    "verify-det": ["--max-weight", "1", "--trials", "2"],
    "verify-genfun": ["--N", "3", "--z", "0.1,0.05", "--theta", "0.7,2.6", "--t", "0.3,-0.2"],
}
VALID = {"--d": "2", "--alpha": "3", "--nu": "0.2"}


def _exit_code(argv: list) -> tuple:
    """(exit code, stderr) of one in-process invocation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse refuses the argument itself
            code = exc.code
    return code, err.getvalue()


def _assert_refused(argv: list) -> None:
    code, err = _exit_code(argv)
    assert code == 2, (argv, code, err)
    assert err.strip(), argv
    assert "Traceback" not in err


huge = st.floats(min_value=PARAM_LIMIT, max_value=1.7e308, exclude_min=True)
bad_number = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400"]),
    huge.map(repr),
    huge.map(lambda x: repr(-x)),
    st.integers(min_value=PARAM_LIMIT + 1, max_value=10**400).map(str),
    st.integers(min_value=PARAM_LIMIT + 1, max_value=10**400).map(lambda n: f"{3 * n}/3"),
)


@PROPERTY_SETTINGS
@given(
    st.sampled_from(sorted(COMMANDS)),
    st.sampled_from(sorted(VALID)),
    bad_number,
)
def test_bad_parameter_exits_2(command, flag, text):
    params = dict(VALID, **{flag: text})
    argv = [command, "--r", "2"] + [f"{k}={v}" for k, v in params.items()] + COMMANDS[command]
    _assert_refused(argv)


@PROPERTY_SETTINGS
@given(st.sampled_from(["--d", "--alpha", "--nu"]), bad_number)
def test_bad_sweep_parameter_exits_2(flag, text):
    _assert_refused(["conjecture-sweep", "--max-weight", "1", "--points", "8", f"{flag}={text}"])


malformed_m = st.one_of(
    st.sampled_from(["x", "2,x", "1.5", "2,1.0", "1e3", ",", "2,,1"]),
    st.integers(max_value=-1).map(str),
    st.tuples(st.integers(0, 5), st.integers(max_value=-1)).map(lambda t: f"{t[0]},{t[1]}"),
    st.tuples(st.integers(0, 5), st.integers(1, 5)).map(lambda t: f"{t[0]},{t[0] + t[1]}"),
    # longer than r = 2
    st.lists(st.integers(1, 4), min_size=3, max_size=5).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
    ),
)


@PROPERTY_SETTINGS
@given(st.sampled_from(["print-poly", "eval"]), malformed_m)
def test_malformed_partition_exits_2(command, m):
    extra = ["--theta", "0.9,2.7"] if command == "eval" else []
    _assert_refused([command, "--r", "2", "--d", "2", "--alpha", "3", f"--m={m}"] + extra)


@PROPERTY_SETTINGS
@given(st.integers(min_value=100, max_value=10**30))
def test_verify_ode_over_budget_exits_2(m_max):
    code, err = _exit_code(["verify-ode", "--m-max", str(m_max)])
    assert code == 2 and "budget" in err and "Traceback" not in err


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=mcj._GENFUN_BUDGET, max_value=10**30))
def test_verify_genfun_over_budget_exits_2(r, N):
    # every length-1 partition of weight <= N alone is N + 1 > budget partitions
    z = ",".join(["0.1"] * r)
    angles = ",".join(str(0.5 + j) for j in range(r))
    code, err = _exit_code(
        ["verify-genfun", "--r", str(r), "--N", str(N), "--z", z, "--theta", angles, "--t", angles]
    )
    assert code == 2 and "budget" in err and "Traceback" not in err


@PROPERTY_SETTINGS
@given(
    st.sampled_from(["verify-orth", "conjecture-sweep"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=400, max_value=10**30),
)
def test_huge_max_weight_exits_2(command, r, max_weight):
    # past 400 partitions of weight <= max_weight at any r: the partition budget
    argv = [command, "--r", str(r), "--max-weight", str(max_weight), "--points", "8"]
    if command == "verify-orth":
        argv += [f"{k}={v}" for k, v in VALID.items()]
    code, err = _exit_code(argv)
    assert code == 2 and "budget" in err and "Traceback" not in err, (argv, code, err)


@PROPERTY_SETTINGS
@given(st.sampled_from(["print-poly", "eval"]), st.integers(min_value=1, max_value=3), st.data())
def test_deep_binomial_rows_exit_2(command, r, data):
    # the one-box recursion is |m| levels deep: past the row weight bound, refused unbuilt
    top = data.draw(st.integers(min_value=coeffs._ROW_WEIGHT + 1, max_value=10**6))
    rest = data.draw(st.lists(st.integers(0, 5), min_size=r - 1, max_size=r - 1))
    m = ",".join(map(str, [top] + sorted(rest, reverse=True)))
    extra = ["--theta", ",".join(str(0.5 + j) for j in range(r))] if command == "eval" else []
    code, err = _exit_code([command, "--r", str(r), "--m", m] + extra)
    assert code == 2 and "weight" in err and "Traceback" not in err, (m, code, err)


@PROPERTY_SETTINGS
@given(
    st.sampled_from(["print-poly", "eval", "verify-det", "verify-genfun"]),
    st.integers(min_value=12, max_value=2000),
)
def test_high_rank_exits_2(command, r):
    # the orbit budget counts r! permutations for each monomial, past it at r >= 12
    argv = [command, "--r", str(r), "--d", "2", "--alpha", str(r + 2), "--nu", "0"]
    z, angles = ",".join(["0.01"] * r), ",".join(str(0.1 * j) for j in range(r))
    argv += {
        "print-poly": ["--m", "1"],
        "eval": ["--m", "1", "--theta", angles],
        "verify-det": ["--max-weight", "1", "--trials", "1"],
        "verify-genfun": ["--N", "1", "--z", z, "--theta", angles, "--t", angles],
    }[command]
    code, err = _exit_code(argv)
    assert code == 2 and "budget" in err and "Traceback" not in err, (command, r, code, err)


@PROPERTY_SETTINGS
@given(
    st.sampled_from(["print-poly", "eval"]),
    st.integers(min_value=45, max_value=100),
    st.data(),
)
def test_exact_build_over_budget_exits_2(command, top, data):
    # m = (top, second) contains over 1,000 partitions of the over 1,600 of weight <= |m|
    second = data.draw(st.integers(min_value=35, max_value=min(top, 200 - top)))
    code, err = _exit_code(
        [command, "--r", "2", "--d", "7/3", "--alpha", "3", "--m", f"{top},{second}"]
    )
    assert code == 2 and "budget" in err and "Traceback" not in err, (top, second, code, err)


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=10**5, max_value=10**30),
)
def test_verify_det_trials_over_budget_exits_2(r, max_weight, trials):
    # every trial evaluates each member at least 4 times, over 64 units each
    code, err = _exit_code(
        ["verify-det", "--r", str(r), "--d", "2", "--alpha", "5", "--max-weight", str(max_weight),
         "--trials", str(trials)]
    )
    assert code == 2 and "budget" in err and "Traceback" not in err, (r, trials, code, err)
