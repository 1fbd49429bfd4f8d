"""The CLI exit-code contract over generated malformed input: every spec
string, plot-data sweep and matrix document ends in exit 0, 2 (bad input)
or 3 (domain error), never in a traceback.  Windows stay at 16 or below so
that no example runs long."""

import contextlib
import io
import json
import re
import sys
import time
import traceback
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fibspaces.cli import main
from fibspaces.errors import ParseError
from fibspaces.exactreal import EXPONENT_TERM_LIMIT, MIN_PRECISION, PRECISION_LIMIT, Exponent
from fibspaces.sequences import INV_FIB_POW_LIMIT, MATRIX_INDEX_LIMIT, parse_generator_spec

ALLOWED = {0, 2, 3}
GUARD = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# CPython refuses int <-> str conversions past 4,300 digits by default.
DIGIT_LIMIT = 4300
BIG_TEXT = "9" * 5000
BIG = 10**5000 - 1


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the interpreter's int <-> str digit limit for the duration."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


TOKENS = st.one_of(
    st.integers(-3, 16).map(str),
    st.sampled_from([
        "", " ", "x", "0", "1/2", "-1/3", "1/0", "1.5", "2e0", "abc", "nan",
        "inf", "/", ".", ":", ",", "\x00", "t", "u", "power-law", "alternating",
        BIG_TEXT,
    ]),
)
KINDS = st.sampled_from([
    "unit", "inv-fib-pow", "values", "witness", "zero", "e", "linear",
    "geometric", "file", "", "bogus",
])


@st.composite
def specs(draw):
    kind = draw(KINDS)
    sep = draw(st.sampled_from([":", "", "::", " : "]))
    return kind + sep + ",".join(draw(st.lists(TOKENS, max_size=4)))


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "raised"
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, _, err = run(argv)
    assert code in ALLOWED and "Traceback" not in err, (argv, code, err)


@GUARD
@given(
    command=st.sampled_from(["transform", "inverse", "norm", "dual"]),
    spec=specs(),
    lam=st.one_of(specs(), st.just("linear:1,1")),
    p=st.one_of(TOKENS, st.just("2")),
    n=st.integers(-1, 16),
    kind=st.sampled_from(["alpha", "beta"]),
)
def test_sequence_and_lambda_specs(command, spec, lam, p, n, kind):
    if command == "transform":
        argv = ["transform", f"--x={spec}", "-N", str(n), f"--p={p}"]
    elif command == "inverse":
        argv = ["transform", "--inverse", f"--y={spec}", "-N", str(n)]
    elif command == "norm":
        argv = ["norm", f"--x={spec}", f"--p={p}", "-N", str(n)]
    else:
        argv = ["dual", f"--a={spec}", "--space", "lp:2", "--kind", kind,
                "--window", str(n)]
    check(argv + [f"--lambda={lam}"])


@GUARD
@given(
    sweep=st.lists(TOKENS, max_size=4).map(",".join),
    spec=st.one_of(specs(), st.just("witness:t")),
    p=st.one_of(TOKENS, st.just("2")),
)
def test_plot_data_sweeps(sweep, spec, p):
    check(["plot-data", "--quantity", "norm", f"--x={spec}", f"--p={p}", f"--sweep={sweep}"])


JSON_VALUES = st.one_of(
    st.integers(-3, 16),
    st.sampled_from(["1", "1/2", "-2/3", "x", "", "1/0", None, True, 1.5, 2.0, [], {}]),
    st.just(BIG),
)
JSON_ROWS = st.one_of(JSON_VALUES, st.lists(JSON_VALUES, max_size=4))
INDICES = st.sampled_from(["0", "1", "3", "16", "-1", "-16", "x", "1.5", " 2", ""])
DOCUMENTS = st.one_of(
    JSON_ROWS,
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["dense", "rows", "band", "other", 3, None])},
        optional={
            "entries": st.one_of(JSON_VALUES, st.lists(JSON_ROWS, max_size=4)),
            "rows": st.one_of(JSON_VALUES, st.dictionaries(INDICES, JSON_ROWS, max_size=3)),
            "bands": st.one_of(JSON_VALUES, st.dictionaries(INDICES, JSON_ROWS, max_size=3)),
            "size": st.one_of(st.integers(-2, 16), st.sampled_from(["4", "abc", 2.5, None, []])),
            "tail": st.sampled_from(["zero", "one", None]),
        },
    ),
)


@GUARD
@given(doc=DOCUMENTS, command=st.sampled_from(["opnorm", "class", "mnc"]))
def test_matrix_documents(tmp_path, doc, command):
    path = tmp_path / "matrix.json"
    with unlimited_int_digits():  # the document may hold BIG
        path.write_text(json.dumps(doc))
    extra = {
        "opnorm": ["--p", "2", "--Y", "l1", "--window", "16"],
        "class": ["--X", "lp:2", "--Y", "c0", "--window", "16"],
        "mnc": ["--p", "2", "--Y", "c0", "--rmax", "8"],
    }[command]
    check([command, "--A", str(path)] + extra)


def test_unit_index_past_the_limit_is_a_parse_error():
    """unit:<k> is bounded as a matrix JSON row index is, so a short spec
    cannot ask for a dual candidate read to depth k + 3."""
    assert parse_generator_spec(f"unit:{MATRIX_INDEX_LIMIT}").support == MATRIX_INDEX_LIMIT + 1
    for k in (MATRIX_INDEX_LIMIT + 1, 10**30):
        for argv in (
            ["dual", f"--a=unit:{k}", "--space", "linf", "--kind", "beta", "--window", "8"],
            ["transform", f"--x=unit:{k}", "-N", "4"],
        ):
            code, _, err = run(argv)
            assert code == 2 and "Traceback" not in err, (argv, code, err)


def test_inv_fib_pow_past_the_limit_is_a_parse_error():
    """inv-fib-pow:<m> is bounded, so a short spec cannot ask for entries of
    millions of bits."""
    assert parse_generator_spec(f"inv-fib-pow:{INV_FIB_POW_LIMIT}").prefix(2).values[1] == (
        Fraction(1, 2**INV_FIB_POW_LIMIT))
    for m in (INV_FIB_POW_LIMIT + 1, 10**30):
        for argv in (
            ["dual", f"--a=inv-fib-pow:{m}", "--space", "linf", "--kind", "beta",
             "--window", "8"],
            ["transform", f"--x=inv-fib-pow:{m}", "-N", "4"],
        ):
            code, _, err = run(argv)
            assert code == 2 and "Traceback" not in err, (argv, code, err)


def run_fast(argv) -> tuple[int, str, str]:
    """``run``, asserting that the command returns within two seconds."""
    start = time.perf_counter()
    result = run(argv)
    assert time.perf_counter() - start < 2, argv
    return result


@pytest.mark.parametrize("argv, flag", [
    (["dual", "--a", "e", "--window"], "--window"),
    (["class", "--A", "E", "--window"], "--window"),
    (["opnorm", "--A", "E", "--window"], "--window"),
    (["transform", "--x", "e", "-N"], "-N"),
    (["basis", "--k", "1", "-N"], "-N"),
    (["verify-paper", "--only", "inverse-identity", "-N"], "-N"),
    (["mnc", "--A", "E", "--rmax"], "--rmax"),
    (["plot-data", "--quantity", "mnc", "--rmax"], "--rmax"),
])
def test_window_size_past_the_limit_is_a_fast_parse_error(argv, flag):
    """-N, --window and --rmax are bounded as a unit index is, so a short
    input cannot ask for a prefix of 10**9 entries."""
    for size in (MATRIX_INDEX_LIMIT + 1, 10**9):
        assert run_fast(argv + [str(size)]) == (
            2, "", f"input error: {flag} must be at most {MATRIX_INDEX_LIMIT}, got {size}\n")
    # The limit itself is accepted: a finite candidate is read to its support.
    code, _, err = run_fast(["dual", "--a", "unit:0", "--window", str(MATRIX_INDEX_LIMIT)])
    assert (code, err) == (0, "")


def test_exponent_terms_up_to_the_limit_parse():
    top = EXPONENT_TERM_LIMIT
    assert Exponent.parse(f"{top}/{top - 1}").value == Fraction(top, top - 1)
    assert Exponent.parse(f" {2 * top}/2 ").value == top
    for text in (f"{top + 1}", f"{top + 1}/{top}", "1e40"):
        with pytest.raises(ParseError, match="numerator or denominator"):
            Exponent.parse(text)


@pytest.mark.parametrize("argv", [
    ["norm", "--x", "e", "-N", "8", "--p", "1e40"],
    ["norm", "--x", "e", "-N", "8", "--p", "100001"],
    ["norm", "--x", "e", "-N", "32", "--p", "1000/999"],
    ["transform", "--x", "witness:power-law", "-N", "8", "--p", "1e40"],
    ["opnorm", "--A", "E", "--p", "1e40"],
    ["mnc", "--A", "E", "--p", "1e40"],
    ["plot-data", "--quantity", "norm", "--p", "1e40"],
    ["class", "--A", "E", "--X", "lp:1e40", "--Y", "linf"],
    ["dual", "--a", "e", "--space", "lp:1e40"],
    ["verify-paper", "--only", "parallelogram", "--p", "1e40"],
])
def test_exponent_past_the_limit_is_a_fast_parse_error(argv):
    """An exponent a/b is worked with as x ** a and b-th roots, so a short
    spec could ask for numbers of about 1e40 bits."""
    code, out, err = run_fast(argv)
    assert (code, out) == (2, ""), (argv, code, err)
    assert err.startswith("input error: exponent ") and "Traceback" not in err, err


def test_verify_paper_refuses_an_infinite_exponent():
    code, out, err = run_fast(["verify-paper", "--only", "parallelogram", "--p", "inf"])
    assert (code, out, err) == (2, "", "input error: infinite exponent has no rational value\n")


@pytest.mark.parametrize("precision", [MIN_PRECISION - 1, PRECISION_LIMIT + 1, 10**7])
@pytest.mark.parametrize("argv", [
    ["transform", "--x", "e", "-N", "3"],
    ["norm", "--x", "witness:power-law", "--p", "3/2", "-N", "8"],
    ["opnorm", "--A", "E"],
    ["mnc", "--A", "E"],
    ["plot-data", "--quantity", "norm"],
])
def test_precision_out_of_range_is_a_fast_parse_error(argv, precision):
    """Every command that takes --precision checks it, whether or not its
    inputs would reach a certified power."""
    code, out, err = run_fast(argv + ["--precision", str(precision)])
    assert (code, out) == (2, ""), (argv, code, err)
    assert err == (f"input error: precision must be between {MIN_PRECISION} and "
                   f"{PRECISION_LIMIT} bits, got {precision}\n")


@pytest.mark.parametrize("precision", [MIN_PRECISION, PRECISION_LIMIT])
def test_precision_at_the_limits_is_accepted(precision):
    argv = ["norm", "--x", "witness:power-law", "--p", "3/2", "-N", "8", "--mode", "float"]
    code, out, err = run_fast(argv + ["--precision", str(precision)])
    assert code == 0 and not err, err
    assert json.loads(out)["result"]["value"] == json.loads(run(argv)[1])["result"]["value"]


@pytest.mark.parametrize("argv", [
    ["transform", "--x", "e", "--lambda", "geometric:2,1", "-N", "300"],
    ["dual", "--a", "inv-fib-pow:1000", "--space", "linf", "--kind", "beta",
     "--window", "16"],
])
def test_exact_values_past_the_digit_limit_print_in_full(argv):
    """Exact values with more digits than the interpreter converts at once
    print in full, as they do with the limit lifted."""
    code, out, err = run(argv)
    assert code == 0 and not err, (code, err)
    longest = max(map(len, re.findall(r"\d+", out)), default=0)
    assert longest > DIGIT_LIMIT, "no value past the digit limit"
    with unlimited_int_digits():
        assert run(argv) == (0, out, "")


@st.composite
def broken_lambda_files(draw):
    """65 to 100 lambda values, strictly increasing and positive up to the
    first repeat or decrease at index ``bad`` > 64."""
    size = draw(st.integers(66, 100))
    bad = draw(st.integers(65, size - 1))
    steps = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)
    values = [draw(steps)]
    for _ in range(1, bad):
        values.append(values[-1] + draw(steps))
    values.append(values[-1] - draw(st.sampled_from([0, Fraction(1, 3), 1, values[-1] + 1])))
    rest = st.fractions(min_value=-10, max_value=1000, max_denominator=8)
    values += draw(st.lists(rest, min_size=size - bad - 1, max_size=size - bad - 1))
    return bad, values


@settings(GUARD, max_examples=20)
@given(case=broken_lambda_files(), inverse=st.booleans(), data=st.data())
def test_lambda_file_broken_past_index_64_is_a_domain_error(tmp_path, case, inverse, data):
    """A file lambda is checked on every value, not only on a prefix, and
    whatever the window: -N may stop short of the bad index."""
    bad, values = case
    path = tmp_path / "lambda.txt"
    path.write_text("\n".join(map(str, values)) + "\n")
    argv = ["transform", "--inverse", "--y=e"] if inverse else ["transform", "--x=e"]
    n = data.draw(st.one_of(st.integers(1, bad - 1), st.just(len(values))))
    code, _, err = run(argv + ["-N", str(n), f"--lambda=file:{path}"])
    assert code == 3 and "Traceback" not in err, (code, err)
    assert err.startswith(f"domain error: lambda_{bad} = "), err


@settings(GUARD, max_examples=20)
@given(
    r=st.fractions(min_value=Fraction(1, 2), max_value=4, max_denominator=4),
    c=st.fractions(min_value=-1, max_value=9, max_denominator=9),
    n=st.integers(1, 300),
    spec=st.sampled_from(["e", "unit:7", "values:1,-1/2,3"]),
)
def test_forward_transform_on_geometric_lambda(r, c, n, spec):
    """Geometric lambda up to N = 300, where the exact values run past the
    interpreter's digit limit."""
    check(["transform", f"--x={spec}", "-N", str(n), f"--lambda=geometric:{r},{c}"])


@pytest.mark.parametrize("window", [8, 80])
@pytest.mark.parametrize("kind", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("space", ["l1", "lp:3", "linf"])
def test_lambda_file_broken_past_a_dual_support_is_a_domain_error(tmp_path, kind, space, window):
    """lambda_70 = lambda_69 lies past the candidate's support 2: the command
    exits 3 whether or not the window reaches index 70, because a file
    lambda is checked whole when it is read."""
    path = tmp_path / "lambda.txt"
    path.write_text("\n".join(map(str, [*range(1, 71), 70])) + "\n")
    code, out, err = run(["dual", "--a", "values:1,2", "--space", space, "--kind", kind,
                          "--window", str(window), f"--lambda=file:{path}"])
    assert (code, out) == (3, ""), (code, err)
    assert err.startswith("domain error: lambda_70 = 70 does not exceed lambda_69 = 70"), err


@pytest.mark.parametrize("argv, message", [
    (["dual", "--a", "e", "--space", "lp", "--kind", "beta"],
     "space 'lp' needs an exponent"),
    (["dual", "--a", "e", "--space", "lp:0", "--kind", "beta"],
     "exponent must satisfy p >= 1, got 0"),
    (["class", "--A", "E", "--X", "l1", "--Y", "lp"], "space 'lp' needs an exponent"),
    (["class", "--A", "E", "--X", "l1:2", "--Y", "linf"], "bad space spec 'l1:2'"),
])
def test_bad_space_spec_is_an_input_error(argv, message):
    """A space spec without its exponent, with an exponent below 1, or with
    an exponent on a kind that takes none exits 2 with one line."""
    assert run(argv) == (2, "", f"input error: {message}\n")
