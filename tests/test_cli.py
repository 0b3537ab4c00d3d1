import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toricpolar
from toricpolar import curves
from toricpolar.cli import main
from toricpolar.errors import PreconditionError
from toricpolar.field import PrimeField
from toricpolar.parse import MAX_NESTING, parse_polynomial

CUSP = "4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_multidegrees_quadro_quadric_json():
    code, out = run_cli(["multidegrees", "--poly", "x1^2+x0*x1+x0*x2",
                         "--vars", "x0,x1,x2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report == {
        "map": "toric", "n": 2, "degree": 1, "multidegrees": [1, 2, 1],
        "prime": 2147483647, "seed": 0, "trials": 2,
    }


def test_multidegrees_nondominant():
    code, out = run_cli(["multidegrees", "--poly", "x0^2-x1*x2",
                         "--vars", "x0,x1,x2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["multidegrees"] == [1, 2, 0]
    assert report["degree"] == 0


def test_multidegrees_gradient_flag():
    code, out = run_cli(["multidegrees", "--poly", "x0^2+x1^2+x2^2",
                         "--vars", "x0,x1,x2", "--gradient", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["map"] == "gradient"
    assert report["multidegrees"] == [1, 1, 1]


def test_multidegrees_reads_file(tmp_path):
    path = tmp_path / "cubic.txt"
    path.write_text(CUSP + "\n")
    code, out = run_cli(["multidegrees", "--file", str(path),
                         "--vars", "x0,x1,x2", "--json"])
    assert code == 0
    assert json.loads(out)["multidegrees"] == [1, 3, 2]


def test_output_byte_identical_for_fixed_inputs():
    argv = ["multidegrees", "--poly", CUSP, "--vars", "x0,x1,x2",
            "--seed", "9", "--trials", "3", "--json"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_custom_prime_and_seed_echoed():
    code, out = run_cli(["multidegrees", "--poly", "x0+x1+x2",
                         "--vars", "x0,x1,x2", "--prime", "999999937",
                         "--seed", "5", "--trials", "1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert (report["prime"], report["seed"], report["trials"]) == (999999937, 5, 1)
    assert report["multidegrees"] == [1, 1, 1]


def test_csm_cuspidal_cubic():
    code, out = run_cli(["csm", "--poly", CUSP, "--vars", "x0,x1,x2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["csm"] == [1, -3, 2]
    assert report["euler_complement"] == 2
    assert report["euler_divisor_complement"] == -2


def test_csm_cremona_cubic_in_p3():
    code, out = run_cli(["csm", "--poly",
                         "x1*x2*x3 + x0*x2*x3 + x0*x1*x3 + x0*x1*x2",
                         "--vars", "x0,x1,x2,x3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["csm"] == [1, -3, 3, -1]
    assert report["euler_complement"] == -1


def test_curve_report_cuspidal_cubic():
    code, out = run_cli(["curve-report", "--poly", CUSP,
                         "--vars", "x0,x1,x2", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "k": 3, "milnor_sum": 2, "incidence": 2, "tangency": 3,
        "degree": 2, "engine_degree": 2,
    }


def test_parse_error_exit_code():
    code, _ = run_cli(["multidegrees", "--poly", "x0 + ", "--vars", "x0,x1"])
    assert code == 2


def test_unknown_variable_exit_code():
    code, _ = run_cli(["multidegrees", "--poly", "x0 + y", "--vars", "x0,x1"])
    assert code == 2


def test_precondition_exit_code():
    # divisible by a coordinate: caller must strip it first
    code, _ = run_cli(["multidegrees", "--poly", "x0*x1", "--vars", "x0,x1,x2"])
    assert code == 3


@pytest.mark.parametrize("prime", ["318665857834031151167461",
                                   "3317044064679887385961981"])
def test_pseudoprime_modulus_exit_code(prime):
    """psi_12 is composite; psi_13 is at the bound of the primality test."""
    code, out = run_cli(["multidegrees", "--poly", "x0+x1+x2",
                         "--vars", "x0,x1,x2", "--prime", prime, "--json"])
    assert (code, out) == (3, "")


def test_readme_library_example():
    from toricpolar import (PrimeField, RandomizationConfig,
                            csm_standard_complement, multidegrees,
                            parse_polynomial, plane_degree_formula,
                            toric_polar_map)

    F = PrimeField()
    f = parse_polynomial("x1^2 + x0*x1 + x0*x2", ("x0", "x1", "x2"), F)
    md = multidegrees(toric_polar_map(f), RandomizationConfig(seed=1))
    assert md.values == (1, 2, 1)
    assert csm_standard_complement(md).coefficients == (1, -2, 1)
    assert plane_degree_formula(f).degree_formula == 1


def test_specialization_exit_code(monkeypatch):
    import toricpolar.cli as cli
    from toricpolar.errors import SpecializationError

    def explode(*args, **kwargs):
        raise SpecializationError("trials disagree", (1, 2))

    monkeypatch.setattr(cli, "multidegrees", explode)
    code, _ = run_cli(["multidegrees", "--poly", "x0+x1", "--vars", "x0,x1"])
    assert code == 4


def test_broken_invariant_exit_code(monkeypatch, capsys):
    """A bare `ToricPolarError`, as the Hilbert-driven pair loop raises
    when its invariants break, is exit 1 with one stderr line."""
    import toricpolar.cli as cli
    from toricpolar.errors import ToricPolarError

    def explode(*args, **kwargs):
        raise ToricPolarError("3 standard monomials of degree 4, below the "
                              "complete-intersection bound 4")

    monkeypatch.setattr(cli, "multidegrees", explode)
    code, out = run_cli(["multidegrees", "--poly", "x0+x1", "--vars", "x0,x1"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "internal error: 3 standard monomials of degree 4, below the "
        "complete-intersection bound 4\n")


def test_non_log_concave_multidegrees_exit_code(capsys):
    """At p = 7 one trial slices d_2 = 1 for Cremona n = 3, whose
    multidegrees are (1, 3, 3, 1); (1, 3, 1, 1) is not log-concave, so it
    is reported, not printed."""
    code, out = run_cli(["multidegrees", "--poly",
                         "x0*x1*x2 + x0*x1*x3 + x0*x2*x3 + x1*x2*x3",
                         "--vars", "x0,x1,x2,x3", "--prime", "7",
                         "--trials", "1", "--json"])
    assert (code, out) == (4, "")
    assert "not log-concave at j = 2" in capsys.readouterr().err


def test_dominant_map_with_zero_top_multidegree_exit_code(capsys):
    """At p = 5 both trials slice d_2 = 0 for the nodal cubic.  Its toric
    polar map has Jacobian determinant 36*x0^4*x1*x2, nonzero mod 5, so
    the map is dominant and the zero is reported, not printed."""
    code, out = run_cli(["multidegrees", "--poly", "x1^2*x2 - x0^3 - x0^2*x2",
                         "--vars", "x0,x1,x2", "--prime", "5", "--json"])
    assert (code, out) == (4, "")
    assert "computed d_2 = 0" in capsys.readouterr().err


@pytest.mark.parametrize("prime", ["5", "11"])
def test_nondominant_map_keeps_its_zero(prime):
    # the toric polar map of x0^2 - x1*x2 has two equal coordinates, so its
    # Jacobian is singular everywhere and d_2 = 0 stands
    code, out = run_cli(["multidegrees", "--poly", "x0^2 - x1*x2",
                         "--vars", "x0,x1,x2", "--prime", prime, "--json"])
    assert code == 0
    assert json.loads(out)["multidegrees"] == [1, 2, 0]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_uint64_exit_code(seed, capsys):
    # a seed is used modulo 2^64, so one outside [0, 2^64) would silently
    # stand for another
    code, out = run_cli(["verify", "--prime", "11", "--seed", seed, "--json"])
    assert (code, out) == (3, "")
    assert "not in [0, 2^64)" in capsys.readouterr().err


def test_verify_default_corpus():
    code, out = run_cli(["verify", "--seed", "42", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_detects_injected_failure(tmp_path):
    manifest = tmp_path / "corpus.txt"
    manifest.write_text(
        "broken | x0,x1,x2 | x0^2 - x1*x2 | 1,2,9\n")
    code, out = run_cli(["verify", "--seed", "1", "--corpus", str(manifest),
                         "--json"])
    assert code == 1
    report = json.loads(out)
    failing = [c for c in report["checks"] if not c["passed"]]
    assert any("broken" in (c["witness"] or "") for c in failing)


@pytest.mark.parametrize("second, code, message", [
    ("b", 1, None),
    ("a", 3, "precondition violated: corpus line 2: name 'a' repeats line 1\n"),
], ids=["distinct-names", "repeated-name"])
def test_verify_corpus_with_a_repeated_name(tmp_path, capsys, second, code,
                                            message):
    """The conic's expectation 1,3,2 is wrong.  Under distinct names the
    harness catches it; a repeated name is rejected before the harness
    runs, where the nodal cubic would have replaced the conic."""
    manifest = tmp_path / "corpus.txt"
    manifest.write_text(
        "a | x0,x1,x2 | x0*x1 + x2^2 | 1,3,2\n"
        f"{second} | x0,x1,x2 | x1^2*x2 - x0^3 - x0^2*x2 + x1*x0*x2 | 1,3,2\n")
    assert main(["verify", "--corpus", str(manifest)]) == code
    out, err = capsys.readouterr()
    if message is None:
        assert "a: engine (1, 2, 0) != expected (1, 3, 2)" in out
    else:
        assert (out, err) == ("", message)


def test_verify_text_output_lists_checks():
    code, out = run_cli(["verify", "--seed", "42"])
    assert code == 0
    assert "PASS corpus-multidegrees" in out
    assert "checks passed" in out


CREMONA_4 = ("x0*x1*x2*x3 + x0*x1*x2*x4 + x0*x1*x3*x4 + x0*x2*x3*x4 "
             "+ x1*x2*x3*x4")


# Exact stdout captured from earlier versions of the engine; any change of
# pair selection or of the engine's structure must reproduce it byte for
# byte.
GOLDEN = {
    "readme-quadric": (
        ["multidegrees", "--poly", "x1^2+x0*x1+x0*x2", "--vars", "x0,x1,x2"],
        '{"map": "toric", "n": 2, "degree": 1, "multidegrees": [1, 2, 1], '
        '"prime": 2147483647, "seed": 0, "trials": 2}\n'),
    "cuspidal-cubic": (
        ["multidegrees", "--poly", CUSP, "--vars", "x0,x1,x2", "--seed", "9",
         "--trials", "3"],
        '{"map": "toric", "n": 2, "degree": 2, "multidegrees": [1, 3, 2], '
        '"prime": 2147483647, "seed": 9, "trials": 3}\n'),
    "cremona-4": (
        ["multidegrees", "--poly", CREMONA_4, "--vars", "x0,x1,x2,x3,x4"],
        '{"map": "toric", "n": 4, "degree": 1, "multidegrees": [1, 4, 6, 4, 1], '
        '"prime": 2147483647, "seed": 0, "trials": 2}\n'),
    "verify-seed-0": (
        ["verify", "--seed", "0"],
        '{"seed": 0, "prime": 2147483647, "trials": 2, "passed": true, "checks": '
        '[{"name": "corpus-multidegrees", "passed": true, "witness": null}, '
        '{"name": "reduced-powers", "passed": true, "witness": null}, '
        '{"name": "plane-degree-formula", "passed": true, "witness": null}, '
        '{"name": "general-position", "passed": true, "witness": null}, '
        '{"name": "reducible-curves", "passed": true, "witness": null}, '
        '{"name": "pyramid-families", "passed": true, "witness": null}, '
        '{"name": "monomial-invariance", "passed": true, "witness": null}, '
        '{"name": "hyperplane-arrangements", "passed": true, "witness": null}, '
        '{"name": "cremona-dolgachev-multidegrees", "passed": true, '
        '"witness": null}]}\n'),
}


@pytest.mark.parametrize("argv, stdout", GOLDEN.values(), ids=GOLDEN.keys())
def test_multidegrees_json_golden(argv, stdout):
    assert run_cli([*argv, "--json"]) == (0, stdout)


# At p = 11 the slices of several harness maps disagree between trials, and
# every check that asks for such a map fails with its error as the witness.
# General position passes: its d_1, where two sliced trials disagreed, is
# certified by the base locus and not sliced.
VERIFY_PRIME_11 = (
    '{"seed": 0, "prime": 11, "trials": 2, "passed": false, "checks":'
    ' [{"name": "corpus-multidegrees", "passed": false, "witness":'
    ' "SpecializationError: trials disagree: (1, 3, 2) in trial 0,'
    ' (1, 3, 1) in trial 1, at (j, trial, sub-seed) (2, 0,'
    ' 6083125775764789064), (2, 1, 10553184040934533401); rerun with'
    ' a fresh seed or prime [seeds: 6083125775764789064,'
    ' 10553184040934533401]"}, {"name": "reduced-powers", "passed":'
    ' false, "witness": "SpecializationError: trials disagree: (1, 3,'
    ' 2) in trial 0, (1, 3, 1) in trial 1, at (j, trial, sub-seed)'
    ' (2, 0, 6083125775764789064), (2, 1, 10553184040934533401);'
    ' rerun with a fresh seed or prime [seeds: 6083125775764789064,'
    ' 10553184040934533401]"}, {"name": "plane-degree-formula",'
    ' "passed": false, "witness": "SpecializationError: trials'
    ' disagree: (1, 3, 2) in trial 0, (1, 3, 1) in trial 1, at (j,'
    ' trial, sub-seed) (2, 0, 6083125775764789064), (2, 1,'
    ' 10553184040934533401); rerun with a fresh seed or prime [seeds:'
    ' 6083125775764789064, 10553184040934533401]"}, {"name":'
    ' "general-position", "passed": true, "witness": null}, {"name":'
    ' "reducible-curves", "passed":'
    ' false, "witness": "SpecializationError: trials disagree: (1, 5,'
    ' 6) in trial 0, (1, 5, 7) in trial 1, at (j, trial, sub-seed)'
    ' (2, 0, 6083125775764789064), (2, 1, 10553184040934533401);'
    ' rerun with a fresh seed or prime [seeds: 6083125775764789064,'
    ' 10553184040934533401]"}, {"name": "pyramid-families", "passed":'
    ' false, "witness": "SpecializationError: computed d_2 = 0,'
    ' but the Jacobian of the coordinates has full rank at a random'
    ' point, so the map is dominant; rerun with a fresh seed or prime'
    ' [seeds: 6083125775764789064, 10553184040934533401]"},'
    ' {"name": "monomial-invariance", "passed": false, "witness":'
    ' "SpecializationError: trials disagree: (1, 3, 2) in trial 0,'
    ' (1, 3, 1) in trial 1, at (j, trial, sub-seed) (2, 0,'
    ' 6083125775764789064), (2, 1, 10553184040934533401); rerun with'
    ' a fresh seed or prime [seeds: 6083125775764789064,'
    ' 10553184040934533401]"}, {"name": "hyperplane-arrangements",'
    ' "passed": true, "witness": null}, {"name":'
    ' "cremona-dolgachev-multidegrees", "passed": false, "witness":'
    ' "SpecializationError: computed d_2 = 0,'
    ' but the Jacobian of the coordinates has full rank at a random'
    ' point, so the map is dominant; rerun with a fresh seed or prime'
    ' [seeds: 6083125775764789064, 10553184040934533401]"}]}\n')


def test_failing_verify_golden():
    assert run_cli(["verify", "--prime", "11", "--json"]) == (1, VERIFY_PRIME_11)


def test_golden_under_python_O_with_basis_checks():
    """`python -O` strips asserts, so the kernel's overflow checks must be
    plain branches; TORICPOLAR_DEBUG=1 re-checks every basis through the
    packed reducers.  Neither may change the output."""
    argv, stdout = GOLDEN["cremona-4"]
    src = Path(toricpolar.__file__).resolve().parent.parent
    env = dict(os.environ, TORICPOLAR_DEBUG="1", PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "toricpolar", *argv, "--json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")


def nested(depth):
    return "(" * depth + "x0+x1+x2" + ")" * depth


def test_deep_nesting_is_a_parse_error(capsys):
    code = main(["multidegrees", "--poly", nested(3000), "--vars", "x0,x1,x2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error: parentheses nested deeper than")
    assert f"(at position {MAX_NESTING})" in err
    assert "Traceback" not in err


def test_nesting_at_the_limit_parses():
    code, out = run_cli(["multidegrees", "--poly", nested(MAX_NESTING),
                         "--vars", "x0,x1,x2", "--json"])
    assert code == 0
    assert json.loads(out)["multidegrees"] == [1, 1, 1]


def test_duplicate_variable_names_exit_code(capsys):
    code = main(["multidegrees", "--poly", "x0+x1", "--vars", "x0,x0"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "precondition violated: duplicate variable names\n"


@pytest.mark.parametrize("command, message", [
    ("multidegrees", "input is divisible by a; strip coordinate factors "
     "first"),
    ("csm", "input is divisible by a; strip coordinate factors first"),
    ("curve-report", "curve contains the coordinate line a = 0"),
])
def test_coordinate_errors_name_the_given_variable(capsys, command, message):
    code = main([command, "--vars", "a,b,c", "--poly", "a*b^2+a*c^2"])
    assert code == 3
    assert capsys.readouterr().err == f"precondition violated: {message}\n"


def test_coordinate_line_error_names_the_given_variable(capsys):
    """`curves._line_counts` has its own message for a curve that contains
    a coordinate line; it carries the variable in the same way."""
    f = parse_polynomial("u*v^2+u*w^2", ["u", "v", "w"], PrimeField())
    with pytest.raises(PreconditionError) as caught:
        curves._line_counts(f)
    assert str(caught.value) == "curve contains the coordinate line x0 = 0"
    assert caught.value.named(["u", "v", "w"]) == (
        "curve contains the coordinate line u = 0")


@pytest.mark.parametrize("names, poly", [
    ("1x,x1,x2", "x1+x2"),
    ("x0,x 1,x2", "x0+x2"),
], ids=["leading-digit", "inner-space"])
def test_invalid_variable_names_exit_code(capsys, names, poly):
    code = main(["multidegrees", "--poly", poly, "--vars", names])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("precondition violated: variable name ")
    assert "is not an identifier" in err
    assert err.count("\n") == 1


NOT_UTF8 = b"\xff\xfe x0 + x1\n"


@pytest.mark.parametrize("command, content, message", [
    ("verify", b"two | columns\n", "corpus line 1: expected 3 or 4 columns"),
    ("verify", b"# header\nc | x0,x1,x2 | x0+x1+x2 | 1,two,1\n",
     "corpus line 2: expected multidegrees must be comma-separated integers"),
    ("verify", NOT_UTF8, "not UTF-8 text"),
    ("multidegrees", NOT_UTF8, "not UTF-8 text"),
], ids=["corpus-columns", "corpus-expected", "corpus-not-utf8", "file-not-utf8"])
def test_unreadable_input_files_exit_code(tmp_path, capsys, command, content,
                                          message):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    option = "--corpus" if command == "verify" else "--file"
    argv = [command, option, str(path)]
    if command == "multidegrees":
        argv += ["--vars", "x0,x1"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert message in err
    assert err.count("\n") == 1


FUZZ_NAMES = ["x0", "x1", "x2"]


@st.composite
def polynomial_texts(draw):
    """Text of a polynomial of degree at most 3 in the first `n` of x0..x2,
    usually homogeneous with a pure power of each variable (so that no
    coordinate divides it), or arbitrary characters of the grammar."""
    n = draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 0:
        return n, draw(st.text(alphabet="x012+-*^() 37", max_size=20))
    degree = draw(st.integers(0, 3))
    homogeneous = draw(st.integers(0, 3)) > 0
    coefficient = st.integers(-3, 40).map(str)
    terms = [f"{draw(coefficient)}*{name}^{degree}"
             for name in FUZZ_NAMES[:n] if draw(st.integers(0, 3))]
    for _ in range(draw(st.integers(0, 3))):
        d = degree if homogeneous else draw(st.integers(0, degree))
        factors = [draw(coefficient)]
        factors += [FUZZ_NAMES[draw(st.integers(0, n - 1))] for _ in range(d)]
        terms.append("*".join(factors))
    return n, " + ".join(terms) or "0"


ARGV_FRAGMENTS = st.sampled_from([
    ["--json"], ["--gradient"], ["--seed", "3"], ["--seed", "-7"],
    ["--prime", "5"], ["--prime", "7"], ["--prime", "32003"],
    ["--prime", "91"], ["--prime", "2"], ["--vars", "1x,x1"], ["--vars", ""],
    ["--poly"], ["--seed"], ["--bogus"], ["x0"],
])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["multidegrees", "csm", "curve-report"]),
       polynomial_texts(), st.lists(ARGV_FRAGMENTS, max_size=2))
def test_cli_fuzz_exits_with_a_documented_code(command, poly, fragments):
    """Any argv and polynomial text ends in an exit code 0..4 with at most
    an error line or a usage message on stderr, never a traceback."""
    n, text = poly
    argv = [command, "--poly", text, "--vars", ",".join(FUZZ_NAMES[:n]),
            "--trials", "1"]
    for fragment in fragments:
        argv += fragment
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            code = exc.code
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
