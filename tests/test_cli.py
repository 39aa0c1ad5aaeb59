"""End-to-end command tests: problem files, documents, exit codes, goldens."""

import ast
import errno
import hashlib
import importlib
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
import typing

import pytest
from hypothesis import given, settings, strategies as st

import germforge.cli
import germforge.stdbasis
import germforge.tangent
from germforge import (
    CriticalReport,
    DdkClass,
    Ideal,
    JetContext,
    MorseComponent,
    PrimitiveIdeal,
    QuotientDim,
    Ring,
    SplittingReport,
    Unfolding,
    jet_context,
    parse_poly,
    validate_unfolding,
)
from germforge.cli import ProblemFile, main, parse_problem_file
from germforge.errors import ASSUMPTION_CODES, INTERNAL_CODE, PRECONDITION_CODES
from germforge.polyring import format_poly

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
CORPUS = os.path.join(ROOT, "perfbench", "corpus")

CANON = "ring x y ;\nideal I = x^2, y ;\npoly f = x^3 + y^2 ;\n"
CLASSIFY = "ring x y1 y2 ;\nideal J = y1, y2 ;\npoly f = x*y1^2 + y2^2 ;\n"
VERSAL = CANON + (
    "unfolding F params s1 s2 s3 = x^3 + y^2 + s1*x^2 + s2*y + s3*x*y ;\n")
PARTIAL = CANON + "unfolding F params s1 s2 = x^3 + y^2 + s1*x^2 + s2*y ;\n"
# the unimodal germs X9 and P8 in a power of the maximal ideal: their members
# keep a defect point that is no Morse point, so split reads sigma from the
# member's own quotient
X9 = "ring x y ;\nideal I = x^4, x^3*y, x^2*y^2, x*y^3, y^4 ;\npoly f = x^4 + y^4 ;\n"
P8 = ("ring x y z ;\nideal I = x^3, x^2*y, x^2*z, x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3 ;\n"
      "poly f = x^3 + y^3 + z^3 ;\n")
END_OF_EXPRESSION = "expected a term at the end of the expression"


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def problem(tmp_path, text=CANON, name="problem.gf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


class TestGoldenDocuments:
    def test_codim(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["codim", problem(tmp_path)])
        assert code == 0
        assert out == golden("codim_cusp_rel.txt")

    def test_split(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["split", problem(tmp_path), "--seeds", "11,13"])
        assert code == 0
        assert out == golden("split_cusp_rel.txt")

    def test_split_x9(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["split", problem(tmp_path, X9), "--seeds", "11,13"])
        assert code == 0
        assert out == golden("split_x9.txt")

    def test_split_p8(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["split", problem(tmp_path, P8), "--seeds", "11,13"])
        assert code == 0
        assert out == golden("split_p8.txt")

    def test_theta(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["theta", problem(tmp_path)])
        assert code == 0
        assert out == golden("theta_cusp_rel.txt")

    def test_morse(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["morse", problem(tmp_path), "--assume-reduced"])
        assert code == 0
        assert out == golden("morse_cusp_rel.txt")

    def test_classify(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["classify", problem(tmp_path, CLASSIFY)])
        assert code == 0
        assert out == golden("classify_d1k1.txt")

    def test_documents_are_byte_stable(self, capsys, tmp_path):
        path = problem(tmp_path)
        _, first, _ = run(capsys, ["split", path])
        _, second, _ = run(capsys, ["split", path])
        assert first == second

    def test_timing_goes_to_stderr(self, capsys, tmp_path):
        _, out, err = run(capsys, ["determinacy", problem(tmp_path)])
        assert "elapsed_ms=" in err
        assert "elapsed_ms=" not in out


class TestInputChannels:
    def test_stdin_dash(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(CANON.encode())))
        code, out, _ = run(capsys, ["codim", "-"])
        assert code == 0
        assert "c_ext: 3" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["codim", "/nonexistent/nope.gf"])
        assert code == 2
        assert "BAD_REQUEST" in err

    def test_order_flag_is_echoed(self, capsys, tmp_path):
        _, out, _ = run(capsys,
                        ["codim", problem(tmp_path), "--order", "dp"])
        assert "order: dp" in out


class TestSeedPlumbing:
    def test_environment_sets_no_seed(self, capsys, tmp_path, monkeypatch):
        # seeds come from --seeds or the default (11, 13), nothing else
        monkeypatch.setenv("GERMFORGE_SEED", "17")
        code, out, _ = run(capsys, ["split", problem(tmp_path)])
        assert code == 0
        assert out == golden("split_cusp_rel.txt")

    @pytest.mark.parametrize("flag", [["--seeds="], ["--seeds", ""], ["--seeds", "11,,13"],
                                      ["--seeds", "1,x"]])
    def test_empty_seed_list_is_refused(self, capsys, tmp_path, flag):
        # an empty value is a bad list, not an unset option; the option
        # table reads the list, so the flag is named before any work
        code, out, err = run(capsys, ["split", problem(tmp_path)] + flag)
        assert code == 2
        assert out == ""
        assert err.startswith("error: BAD_REQUEST: --seeds wants comma-separated integers")

    @pytest.mark.parametrize("argv", [["split", "--seeds", "5,5"],
                                      ["morse", "--method", "oracle", "--seeds", "7,7"]])
    def test_repeated_seed_is_refused(self, capsys, tmp_path, argv):
        # a repeated seed draws the same member twice: one sample, not two
        code, out, err = run(capsys, argv[:1] + [problem(tmp_path)] + argv[1:])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (
            f"error: PRECONDITION_VIOLATED: seeds must be distinct, got {argv[-1]}")


class TestVersality:
    def test_full_unfolding_is_versal(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["versal-check", problem(tmp_path, VERSAL)])
        assert code == 0
        assert "versal: true" in out

    def test_dropping_a_direction_fails(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["versal-check", problem(tmp_path, PARTIAL)])
        assert code == 0
        assert "versal: false" in out

    def test_slice_leaving_the_ideal_is_refused(self, capsys, tmp_path):
        # the coefficient x of s is not in (x^2, y)
        text = CANON + "unfolding F params s = x^3 + y^2 + s*x ;\n"
        code, out, err = run(capsys, ["versal-check", problem(tmp_path, text)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (
            "error: F_NOT_UNFOLDING: F - f is not a combination of the ideal generators")

    def test_build_lists_three_params(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["versal-build", problem(tmp_path)])
        assert code == 0
        assert "- s3" in out and "- s4" not in out

    def test_build_names_parameters_past_w(self, capsys, tmp_path):
        # s1, t1, u1, v1 and w1 are all ring variables, so the parameters
        # are ss1 and ss2, and the family built is versal
        text = ("ring x s1 t1 u1 v1 w1 ;\nideal I = 1 ;\n"
                "poly f = x^3 + s1^2 + t1^2 + u1^2 + v1^2 + w1^2 ;\n")
        code, out, err = run(capsys, ["versal-build", problem(tmp_path, text)])
        assert code == 0 and "Traceback" not in err
        assert "  params:\n    - ss1\n    - ss2\n" in out
        F = out.split("  F: ", 1)[1].split("\n", 1)[0]
        built = text + f"unfolding F params ss1 ss2 = {F} ;\n"
        code, out, _ = run(capsys, ["versal-check", problem(tmp_path, built, "built.gf")])
        assert code == 0
        assert "versal: true" in out


class TestExitCodes:
    def test_nonmember_germ(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x^2, y ;\npoly f = x ;\n"
        code, out, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert "F_NOT_IN_IDEAL" in err
        assert out == ""

    @pytest.mark.parametrize("argv, lines", [
        (["split"], ["  sigma:", "    - 1 -> 1", "  corrected: 1", "  morse: 1"]),
        (["morse", "--method", "oracle"], ["  morse_oracle: 1"]),
    ])
    def test_germ_in_the_ideal_only_at_the_origin(self, capsys, tmp_path, argv, lines):
        # x^2 + y^2 is in (x - x^2, y) under ds but not under dp; so are the
        # deformed members, which the oracle takes as they are
        text = "ring x y ;\nideal I = x - x^2, y ;\npoly f = x^2 + y^2 ;\n"
        code, out, _ = run(capsys, argv + [problem(tmp_path, text)])
        assert code == 0
        out_lines = out.splitlines()
        start = out_lines.index("results:") + 1
        assert out_lines[start:start + len(lines)] == lines

    @pytest.mark.parametrize("argv", [["split"], ["morse", "--method", "oracle"]],
                             ids=["split", "oracle"])
    def test_member_tangent_ideal_outside_the_polynomial_ideal(self, capsys, tmp_path, argv):
        # f is in I at the origin only, and here, unlike above, a member's
        # tangent ideal leaves the polynomial ideal: the refusal names the
        # seed and the cause, not a deformed member the file never wrote
        text = "ring x y z ;\nideal I = x*y - x^2*y, z ;\npoly f = x^2*y + x*y^2 + z^2 ;\n"
        assert run(capsys, ["codim", problem(tmp_path, text)])[0] == 0
        code, out, err = run(capsys, argv + [problem(tmp_path, text)])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            "error: PRECONDITION_VIOLATED: seed 11: the deformed member's tangent ideal "
            "leaves the polynomial ideal, since f lies in I at the origin only")

    def test_every_declared_code_is_named_in_the_package(self):
        # a code that no module outside errors.py names is one no run can
        # end in; PARSE_ERROR is named through ParseError, the internal code
        # through INTERNAL_CODE
        stand_ins = {"ParseError": "PARSE_ERROR", "INTERNAL_CODE": INTERNAL_CODE}
        named = set()
        package = os.path.join(ROOT, "src", "germforge")
        for filename in os.listdir(package):
            if filename.endswith(".py") and filename != "errors.py":
                with open(os.path.join(package, filename), encoding="utf-8") as fh:
                    for node in ast.walk(ast.parse(fh.read())):
                        if isinstance(node, ast.Constant) and isinstance(node.value, str):
                            named.add(node.value)
                        elif isinstance(node, ast.Name) and node.id in stand_ins:
                            named.add(stand_ins[node.id])
        declared = PRECONDITION_CODES | ASSUMPTION_CODES | {INTERNAL_CODE}
        assert sorted(declared - named) == []

    def test_missing_unfolding_is_named(self, capsys, tmp_path):
        code, out, err = run(capsys, ["versal-check", problem(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (
            "error: BAD_REQUEST: cannot choose an unfolding: need one named 'F' or a "
            "unique declaration (have: none)")

    def test_unavailable_radical_names_the_flag(self, capsys, tmp_path):
        code, out, err = run(capsys, ["morse", problem(tmp_path), "--method", "jet"])
        assert code == 3
        assert out == ""
        assert err.splitlines()[0] == (
            "error: RADICAL_UNAVAILABLE: the critical-jet ideal is positive-dimensional "
            "and not certified reduced; pass assume_reduced (--assume-reduced on the "
            "command line) to proceed with it as-is")

    def test_parse_error_carries_position(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x^2, % ;\n"
        code, _, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert "PARSE_ERROR" in err and "line 2" in err

    @pytest.mark.parametrize("number", ["1/0", "0/0", "3/00"])
    def test_zero_denominator_is_a_parse_error(self, capsys, tmp_path, number):
        text = f"ring x y ;\nideal I = x^2, y ;\npoly f = {number}*x^3 + y^2 ;\n"
        code, out, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == ("error: PARSE_ERROR: in poly f: zero denominator "
                                       "at column 2 at line 3, column 1")

    def test_expansion_past_the_limit_is_a_parse_error(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x^2, y ;\npoly f = (x+y+1)^200 ;\n"
        code, out, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == ("error: PARSE_ERROR: in poly f: expansion may have "
                                       "more than 1000 terms at column 10 at line 3, column 1")

    def test_coefficients_past_the_limit_are_a_parse_error(self, capsys, tmp_path):
        # 2.3 s of expansion under the term bound, refused before the first power
        text = "ring x ;\nideal I = x^2 ;\npoly f = (3x+2)^499 (5x-7)^500 ;\n"
        code, out, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == ("error: PARSE_ERROR: in poly f: expansion may have "
                                       "more than 100000 coefficient bits at column 9 "
                                       "at line 3, column 1")

    @pytest.mark.parametrize("f, column", [("{}*x^3 + y^2", 2), ("x^{} + y^2", 4)],
                             ids=["coefficient", "exponent"])
    def test_number_past_the_digit_limit_is_a_parse_error(self, tmp_path, f, column):
        # in a process, as the CLI runs: the interpreter's own limit on
        # int(), where it has one, would end in a traceback and exit status 1
        text = f"ring x y ;\nideal I = x^2, y ;\npoly f = {f.format('9' * 5000)} ;\n"
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "germforge.cli", "codim", problem(tmp_path, text)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[0] == (
            "error: PARSE_ERROR: in poly f: number with more than 4300 digits "
            f"at column {column} at line 3, column 1")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, f, limit, longest", [
        ("tangent", f"{'7' * 4300}*x^3 + y^2", None, 4301),
        ("codim", f"{'3' * 1000}*x^3 + y^2", "640", 1000),
    ], ids=["result-past-4300-digits", "interpreter-limit-640"])
    def test_numbers_under_the_digit_limit_answer(self, tmp_path, command, f, limit, longest):
        # in a process, as the CLI runs: MAX_DIGITS is the only limit, so a
        # result past the interpreter's limit prints, and a lowered
        # interpreter limit refuses no input that MAX_DIGITS admits
        text = f"ring x y ;\nideal I = x^2, y ;\npoly f = {f} ;\n"
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run(
            [sys.executable, "-m", "germforge.cli", command, problem(tmp_path, text)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert max(len(m) for m in re.findall(r"\d+", proc.stdout)) == longest

    def test_main_restores_the_interpreter_limit(self, capsys, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        assert run(capsys, ["codim", problem(tmp_path)])[0] == 0
        assert limit() == before

    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        f = "(" * 3000 + "x^3 + y^2" + ")" * 3000
        text = f"ring x y ;\nideal I = x^2, y ;\npoly f = {f} ;\n"
        code, out, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == ("error: PARSE_ERROR: in poly f: expression nested "
                                       "too deeply at line 3, column 1")

    @pytest.mark.parametrize("text, message", [
        ("ring 1x y ;\n", "ring variable '1x' is not an identifier at line 1, column 1"),
        ("\n  ring x-y ;\n", "ring variable 'x-y' is not an identifier at line 2, column 3"),
        (CANON + "unfolding F params 2s = x^3 + y^2 ;\n",
         "parameter '2s' is not an identifier at line 4, column 1"),
        # an expression that ends where a term is due names the end, not ''
        ("ring x y ;\nideal I = ;\n",
         f"in ideal I: {END_OF_EXPRESSION} at column 2 at line 2, column 1"),
        ("ring x y ;\nideal I = x,,y ;\n",
         f"in ideal I: {END_OF_EXPRESSION} at column 1 at line 2, column 1"),
        ("ring x y ;\nideal I = x^2, y ;\npoly f = x + ;\n",
         f"in poly f: {END_OF_EXPRESSION} at column 6 at line 3, column 1"),
    ])
    def test_names_must_be_identifiers(self, capsys, tmp_path, text, message):
        code, out, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == f"error: PARSE_ERROR: {message}"

    def test_identifier_with_digits_and_underscore(self, capsys, tmp_path):
        text = "ring x_1 y2 ;\nideal I = x_1^2, y2 ;\npoly f = x_1^3 + y2^2 ;\n"
        code, out, _ = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 0
        assert "  ring: x_1 y2\n" in out and "  c_ext: 3\n" in out

    def test_unknown_statement(self, capsys, tmp_path):
        code, _, err = run(capsys,
                           ["codim", problem(tmp_path, "ring x ;\nblob z ;\n")])
        assert code == 2
        assert "unknown statement" in err

    def test_unknown_option_key(self, capsys, tmp_path):
        # a problem file declares data only: option is no statement
        text = CANON + "option flavor mild ;\n"
        code, _, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert err.splitlines()[0] == (
            "error: PARSE_ERROR: unknown statement 'option' at line 4, column 1")

    def test_duplicate_name(self, capsys, tmp_path):
        text = CANON + "poly f = y ;\n"
        code, _, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert "already defined" in err

    def test_ambiguous_poly_choice(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x^2, y ;\npoly g = y^2 ;\npoly h = x^2 ;\n"
        code, _, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert "BAD_REQUEST" in err

    def test_truncated_split_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["split", problem(tmp_path), "--degree-bound", "1"])
        assert code == 3
        assert "GENERICITY_SUSPECT" in err

    @pytest.mark.parametrize("argv", [
        ["split", "--seeds", "11,13"],
        ["morse", "--method", "oracle"],
        ["morse", "--method", "jet", "--assume-reduced"],
        ["conserve", "--assume-reduced"],
    ])
    def test_negative_degree_bound_exits_2(self, capsys, tmp_path, argv):
        # below 0 no cobasis element passes the bound, so f would never be
        # deformed and the command would answer for the undeformed germ
        code, out, err = run(capsys, argv + [problem(tmp_path), "--degree-bound", "-1"])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == ("error: PRECONDITION_VIOLATED: "
                                       "--degree-bound must be >= 0")

    @pytest.mark.parametrize("argv", [
        ["split"],
        ["morse", "--method", "oracle"],
        ["conserve", "--assume-reduced"],
    ])
    def test_degree_bound_below_every_cobasis_degree_exits_2(self, capsys, tmp_path, argv):
        # the cobasis x^2*y, x^3*y has degrees 3 and 4, so a bound of 1
        # keeps neither and every seed would draw f itself
        text = "ring x y ;\nideal I = x^2*y ;\npoly f = x^4*y + x^2*y^2 ;\n"
        code, out, err = run(capsys, argv + [problem(tmp_path, text), "--degree-bound", "1"])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (
            "error: PRECONDITION_VIOLATED: degree bound 1 keeps no cobasis element, "
            "the least of which has degree 3")

    def test_failed_postcheck_exits_4(self, capsys, tmp_path, monkeypatch):
        def fail(Iprime, result):
            raise AssertionError("primitive ideal misses a square generator")

        monkeypatch.setattr(germforge.tangent, "_postcheck_adapted", fail)
        text = "ring x y ;\nideal I = x, y ;\n"
        code, out, err = run(
            capsys, ["primitive", problem(tmp_path, text), "--trunc", "3"])
        assert code == 4
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == ("error: INTERNAL_CHECK_FAILED: "
                            "primitive ideal misses a square generator")
        assert lines[1].startswith("elapsed_ms=")
        assert "Traceback" not in err

    def test_primitive_requires_trunc(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["primitive", problem(tmp_path)])
        assert code == 2

    def test_hilbert_rejects_negative_trunc(self, capsys, tmp_path):
        code, out, err = run(capsys, ["hilbert", problem(tmp_path), "--trunc", "-1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: PRECONDITION_VIOLATED")
        code, out, _ = run(capsys, ["hilbert", problem(tmp_path), "--trunc", "0"])
        assert code == 0
        assert "upto: 0" in out

    def test_degree_past_the_engine_limit_exits_2(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x^40000 + y ;\npoly f = y ;\n"
        code, out, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: PRECONDITION_VIOLATED: degree 40000 ")
        assert "2^15 = 32768" in err

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--trunc", "100000"],
        ["hilbert", "--trunc", "32768"],
        ["primitive", "--trunc", "100000"],
        ["theta", "--theta-mode", "via-subideal", "--trunc", "100000"],
    ], ids=" ".join)
    def test_truncation_past_the_engine_limit_exits_2(self, argv):
        # the slice's labels would number in the billions: refused before any is listed
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "germforge.cli", *argv, os.path.join(CORPUS, "cusp.gf")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: PRECONDITION_VIOLATED: degree {argv[-1]} ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, what", [
        ("hilbert", "truncation degree 32767 would list 536887296 labels"),
        ("primitive", "truncation degree 32767 would list 1610661888 labels"),
        ("jet-dump", "jet order 32767 needs 1073774594 variables"),
    ])
    def test_truncation_past_the_size_limit_exits_2(self, command, what):
        # below the degree limit, but the slice or the jet ring is sized from
        # its closed form and refused before any label or variable is listed
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "germforge.cli", command, "--trunc", "32767",
             os.path.join(CORPUS, "cusp.gf")],
            env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: PRECONDITION_VIOLATED: {what}, more than ")
        assert "Traceback" not in proc.stderr

    def test_theta_via_subideal_requires_trunc(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["theta", problem(tmp_path), "--theta-mode", "via-subideal"])
        assert code == 2
        assert "PRECONDITION_VIOLATED" in err

    def test_file_that_is_not_utf8_is_a_bad_request(self, capsys, tmp_path):
        path = tmp_path / "utf16.gf"
        path.write_bytes(b"\xff\xfe" + CANON.encode("utf-16-le"))
        code, out, err = run(capsys, ["codim", str(path)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (f"error: BAD_REQUEST: cannot read {path}: "
                                       "not UTF-8 text")

    @pytest.mark.parametrize("encoding", [None, "utf-8:strict"], ids=["default", "strict"])
    def test_stdin_reads_as_a_file_does(self, tmp_path, encoding):
        # in a process, as the CLI runs: stdin is decoded as a file is, so a
        # byte that is not UTF-8 is BAD_REQUEST, not a traceback, and CRLF
        # lines give the file's document, digest included
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        env.pop("PYTHONIOENCODING", None)
        if encoding is not None:
            env["PYTHONIOENCODING"] = encoding
        path = tmp_path / "problem.gf"

        def codim(source, data):
            return subprocess.run([sys.executable, "-m", "germforge.cli", "codim", source],
                                  input=data, env=env, capture_output=True, timeout=60)

        bad = b"ring x ;\nideal I = x^2 ;\npoly f = x^3 ; # \xff\n"
        proc = codim("-", bad)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.splitlines()[0] == b"error: BAD_REQUEST: cannot read -: not UTF-8 text"
        assert b"Traceback" not in proc.stderr
        crlf = CANON.replace("\n", "\r\n").encode()
        path.write_bytes(crlf)
        by_stdin, by_file = codim("-", crlf), codim(str(path), b"")
        assert by_stdin.returncode == by_file.returncode == 0
        assert by_stdin.stdout == by_file.stdout
        assert b"c_ext: 3" in by_stdin.stdout


class TestCommandSurface:
    def test_primitive_of_maximal_ideal(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x, y ;\n"
        code, out, _ = run(
            capsys, ["primitive", problem(tmp_path, text), "--trunc", "6"])
        assert code == 0
        assert "- y^2" in out and "- x*y" in out and "- x^2" in out
        assert "TRUNCATED" in out

    def test_hilbert_defaults_to_five(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["hilbert", problem(tmp_path)])
        assert code == 0
        assert "upto: 5" in out

    def test_conserve_reads_trials_option(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["conserve", problem(tmp_path), "--assume-reduced", "--trials", "2"])
        assert code == 0
        assert out.endswith(
            "settings:\n  trials: 2\nresults:\n  conserved: true\n  trials: 2\n"
            "warnings:\n  - ASSUMED_REDUCED\n  - GLOBAL_COUNT\n  - GENERICITY_SAMPLED\n")

    @pytest.mark.parametrize("trials, message", [
        ("0", "trials must be between 1 and 8, got 0"),
        ("9", "trials must be between 1 and 8, got 9"),
        # not a count at all: refused by the option table before any work
        ("x", "--trials wants an integer, not 'x' (see germforge -h)"),
    ], ids=["0", "9", "x"])
    def test_conserve_rejects_trial_counts_without_own_seeds(
            self, capsys, tmp_path, trials, message):
        code, out, err = run(
            capsys,
            ["conserve", problem(tmp_path), "--assume-reduced", "--trials", trials])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == f"error: BAD_REQUEST: {message}"

    @pytest.mark.parametrize("text, det", [
        ("ring x y z ;\nideal I = x^2, y ;\n"
         "poly f = x^5 + y^2 + x^2*z^2 + y*z^4 ;\n", 5),
        ("ring x y ;\nideal I = 1 ;\npoly f = x + x^3 + y^2 ;\n", 0),
    ], ids=["fin2", "smooth-at-origin"])
    def test_determinacy_is_read_at_the_origin_in_both_orders(
            self, capsys, tmp_path, text, det):
        # under dp the tangent ideal has support away from the origin, where
        # no power of m shrinks I into it; determinacy is the local answer
        path = problem(tmp_path, text)
        for order in ("ds", "dp"):
            code, out, _ = run(capsys, ["codim", path, "--order", order])
            assert code == 0
            assert f"  determinacy: {det}\n" in out

    def test_locus_of_running_example(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["locus", problem(tmp_path)])
        assert code == 0
        assert "- y" in out and "- x^2" in out

    def test_empty_locus_prints_none(self, capsys, tmp_path):
        # the zero germ has the zero tangent ideal, whose colon by the unit
        # ideal has no generators: an empty list prints as none
        text = "ring x y ;\nideal I = 1 ;\npoly f = 0 ;\n"
        code, out, _ = run(capsys, ["locus", problem(tmp_path, text)])
        assert code == 0
        assert out.endswith("results:\n  generators: none\nwarnings: none\n")

    def test_split_at_zero_codimension_prints_no_sigma(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = 1 ;\npoly f = x ;\n"
        code, out, _ = run(capsys, ["split", problem(tmp_path, text)])
        assert code == 0
        assert "results:\n  sigma: none\n  corrected: 0\n  morse: 0\n  stable: true\n" in out

    def test_theta_via_subideal_differs_from_direct(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x, y ;\n"
        path = problem(tmp_path, text)
        _, direct, _ = run(capsys, ["theta", path, "--trunc", "6"])
        _, via, _ = run(
            capsys,
            ["theta", path, "--theta-mode", "via-subideal", "--trunc", "6"])
        assert direct != via
        assert "theta-mode: via-subideal" in via

    # sha256 of each document's stdout, (command, germ) -> digest
    @pytest.mark.parametrize("flags, digests", [
        ([], {
            ("theta", "cusp"): "80d411893f6297f5345f8a069cad2192716ed0b43c0de2d24ec0afa81cf87ca4",
            ("tangent", "cusp"): "d9d870736657e41f702d952ead28f44e87b84d7e5a19055db2fee0f631868bd6",
            ("theta", "d3"): "e7877dac13cb91e6a3f3d7494d3540826c2e7a4b8a294099d906bb9fe16e9e8d",
            ("tangent", "d3"): "0f5788659afbc814697df4f17879bc439568ec06f8dbed3f8b0948d3cbcb9436",
        }),
        (["--trunc", "4"], {
            ("theta", "cusp"): "a89ae1bb4436e8c1cd6edfb9e4474a1332c4f8219d72f01133abf448f204dbdc",
            ("tangent", "cusp"): "316d5b1ce888aa5fbad45083ac248de5db95c980f958997c8c22d43e97fe32ce",
            ("theta", "d3"): "cf4e07d027d4a3d35fc87758e15886eaf6db237631f13c5381b6bb846b33b02b",
            ("tangent", "d3"): "7978b87bef8e9cdbe8031424491d9c84d06eae9ea9e095e0be1082a4be806341",
        }),
        (["--theta-mode", "via-subideal", "--trunc", "4"], {
            ("theta", "cusp"): "731e73f37fba369512a8e37abf34d94d25fe7b861c30c5550f5827a151a119c1",
            ("tangent", "cusp"): "d6bfc9d031a8e298e3ff3654ca49dc4e45cecfef1ecdb18c29ecbe372a43d46c",
            ("theta", "d3"): "6d3d9cdfdc5e6500364010bf534e1c63d13838b0020dc6880ce374174993dba7",
            ("tangent", "d3"): "e474da07af4b9539c875c7718226ca628eff68ffe76f344f47196835aa34b663",
        }),
        (["--theta-mode", "via-subideal"], None),
    ], ids=["direct", "direct-trunc", "via-subideal-trunc", "via-subideal-no-trunc"])
    def test_theta_modes_are_pinned(self, capsys, flags, digests):
        # the context is the primitive ideal when --trunc is given; theta is
        # taken of the declared ideal under via-subideal, which needs --trunc
        for command in ("theta", "tangent"):
            for germ in ("cusp", "d3"):
                argv = [command, os.path.join(CORPUS, f"{germ}.gf"), *flags]
                code, out, err = run(capsys, argv)
                if digests is None:
                    assert (code, out) == (2, "")
                    assert err.splitlines()[0] == ("error: PRECONDITION_VIOLATED: "
                                                   "--theta-mode via-subideal needs --trunc")
                else:
                    assert code == 0
                    assert hashlib.sha256(out.encode()).hexdigest() == digests[command, germ], out


class TestJetDump:
    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["jet-dump", problem(tmp_path), "--trunc", "1"])
        assert code == 0
        dumped = parse_problem_file(out)
        base = parse_problem_file(CANON)
        ctx = jet_context(base.ideals["I"], 1)
        assert list(dumped.ring.names) == list(ctx.ring.names)
        assert [format_poly(g) for g in dumped.ideals["J1"].gens] == [
            format_poly(q) for q in ctx.Q]
        assert [format_poly(g) for g in dumped.ideals["J2"].gens] == [
            format_poly(g) for g in ctx.g_z]

    def test_dump_is_plain_dsl(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["jet-dump", problem(tmp_path)])
        assert out.startswith("#")
        assert "ring z1 z2 " in out and "ideal J1 = " in out


class TestJetRingNames:
    @pytest.mark.parametrize("name", ["z1", "a1_0_0"])
    @pytest.mark.parametrize("argv", [
        ["jet-dump"],
        ["morse", "--method", "jet", "--assume-reduced"],
        ["conserve", "--assume-reduced"],
    ], ids=["jet-dump", "morse", "conserve"])
    def test_base_variable_named_like_a_jet_variable(self, capsys, tmp_path, argv, name):
        # the jet ring's names z<i> and a<j>_<alpha> are its own: the cusp
        # with x renamed to one of them gives the cusp's answer
        code, want, _ = run(capsys, argv + [problem(tmp_path)])
        assert code == 0
        text = CANON.replace("x", name)
        code, out, err = run(capsys, argv + [problem(tmp_path, text, "renamed.gf")])
        assert code == 0 and "Traceback" not in err
        # jet-dump echoes no inputs: its whole document is the answer
        if argv[0] != "jet-dump":
            out, want = out.partition("results:")[2], want.partition("results:")[2]
        assert out == want != ""


class TestArgv:
    def test_options_before_or_after_the_file(self, capsys, tmp_path):
        path = problem(tmp_path)
        outs = set()
        for argv in (["hilbert", path, "--order", "dp", "--trunc", "3"],
                     ["hilbert", "--order", "dp", "--trunc", "3", path],
                     ["hilbert", "--trunc=3", path, "--order=dp"]):
            code, out, _ = run(capsys, argv)
            assert code == 0, argv
            outs.add(out)
        assert len(outs) == 1
        assert "order: dp" in out and "upto: 3" in out

    @pytest.mark.parametrize("trunc", [["--trunc", "-1"], ["--trunc=-1"]])
    def test_negative_trunc_reaches_the_handler(self, capsys, tmp_path, trunc):
        code, out, err = run(capsys, ["hilbert", *trunc, problem(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: PRECONDITION_VIOLATED: truncation degree")

    @pytest.mark.parametrize("argv", [
        [],
        ["volume", "FILE"],
        ["codim", "FILE", "--bogus"],
        ["codim", "FILE", "-x"],
        ["codim", "FILE", "--trunc", "3"],
        ["hilbert", "FILE", "--trunc", "x"],
        ["hilbert", "FILE", "--trunc"],
        ["codim", "FILE", "--order", "xx"],
        ["morse", "FILE", "--assume-reduced=yes"],
        ["codim"],
        ["codim", "FILE", "FILE"],
    ], ids=["empty", "unknown-command", "unknown-option", "short-option",
            "foreign-option", "non-integer", "missing-value", "bad-choice",
            "flag-with-value", "missing-file", "two-files"])
    def test_bad_argv_is_a_bad_request(self, capsys, tmp_path, argv):
        path = problem(tmp_path)
        code, out, err = run(capsys, [path if a == "FILE" else a for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: BAD_REQUEST: ")
        assert err.splitlines()[1].startswith("elapsed_ms=")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_commands_and_options(self, capsys, flag):
        code, out, err = run(capsys, [flag])
        assert code == 0 and err == ""
        for command in ("codim", "morse", "jet-dump"):
            assert f"\n  {command}" in out
        assert "--degree-bound N" in out and "--order {ds,dp}" in out
        code, out, _ = run(capsys, ["morse", flag])
        assert code == 0
        for option in ("--order {ds,dp}", "--method {jet,oracle,both}",
                       "--assume-reduced", "--seeds", "--degree-bound N"):
            assert option in out
        assert "codim" not in out

    def test_help_shows_every_default(self, capsys):
        # each option that is not a flag and has a default shows it
        expected = {command: {"--order": "ds"} for command in germforge.cli.COMMANDS}
        for command in ("theta", "tangent"):
            expected[command]["--theta-mode"] = "direct"
        expected["morse"]["--method"] = "both"
        expected["conserve"]["--trials"] = "3"
        expected["hilbert"]["--trunc"] = "5"
        expected["jet-dump"]["--trunc"] = "1"
        for command, defaults in expected.items():
            code, out, _ = run(capsys, [command, "-h"])
            assert code == 0
            shown = {}
            for line in out.splitlines():
                default = re.search(r"\(default (\S+)\)$", line)
                if line.startswith("  --") and default:
                    shown[line.split()[0]] = default.group(1)
            assert shown == defaults, command

    @pytest.mark.parametrize("command, trunc", [("hilbert", "5"), ("jet-dump", "1")])
    def test_trunc_default_is_the_documented_one(self, capsys, command, trunc):
        path = os.path.join(CORPUS, "d3.gf")
        code, implicit, _ = run(capsys, [command, path])
        assert code == 0
        code, explicit, _ = run(capsys, [command, path, "--trunc", trunc])
        assert code == 0
        assert implicit == explicit

    def test_codim_of_infinite_germ_runs_no_saturation(self, capsys, monkeypatch):
        # a coordinate axis in the support decides d3b's infinite lengths
        def refuse(I, J):
            raise AssertionError("saturation ran")

        monkeypatch.setattr(germforge.stdbasis, "saturation", refuse)
        code, out, _ = run(capsys, ["codim", os.path.join(CORPUS, "d3b.gf")])
        assert code == 0
        with open(os.path.join(ROOT, "perfbench", "expected", "codim_d3b.txt"),
                  encoding="utf-8") as fh:
            assert out == fh.read()


# ---------------------------------------------------------------------------
# start-up: records are NamedTuples or slotted classes, the digest is hashed
# in Python, argv is read without argparse and coefficients are polyring.Q,
# so a CLI process loads none of dataclasses, OpenSSL, argparse, gettext,
# fractions or decimal

# prints the modules that importing the CLI and running one command added,
# so modules that site preloads do not count
STARTUP_PROBE = """
import sys
before = set(sys.modules)
import germforge.cli
code = germforge.cli.main(["codim", sys.argv[1]])
print(code, ",".join(sorted(set(sys.modules) - before)))
"""


def _digest(text):
    return ProblemFile(text, None, "ds", {}, {}, {}).digest()


def _hashlib_digest(text):
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _annotated_functions():
    """Every annotated function and method that a germforge module or one of
    its classes binds, by qualified name: properties, cached properties and
    lru_cache wrappers are unwrapped."""
    found = {}
    for info in pkgutil.iter_modules(germforge.__path__):
        module = importlib.import_module(f"germforge.{info.name}")
        pending = [obj for obj in vars(module).values()
                   if getattr(obj, "__module__", None) == module.__name__]
        while pending:
            obj = pending.pop()
            if isinstance(obj, type):
                pending.extend(vars(obj).values())
                continue
            for fn in (obj, getattr(obj, "__func__", None), getattr(obj, "__wrapped__", None),
                       getattr(obj, "func", None), getattr(obj, "fget", None)):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and fn.__annotations__):
                    found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


def _unresolved(hint):
    """A forward reference or a bare string left inside a resolved hint."""
    if isinstance(hint, (str, typing.ForwardRef)):
        return True
    return any(_unresolved(arg) for arg in getattr(hint, "__args__", ()))


class TestStartUp:
    def test_cli_loads_neither_dataclasses_nor_openssl(self):
        # -S: no site hook may load a module ahead of the package and hide it
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", STARTUP_PROBE, os.path.join(CORPUS, "cusp.gf")],
            env=env, capture_output=True, text=True, timeout=60)
        code, added = proc.stdout.splitlines()[-1].split(" ")
        added = set(added.split(","))
        assert code == "0"
        assert "germforge.oracle" in added
        assert added.isdisjoint({"dataclasses", "_hashlib", "argparse", "gettext", "typing",
                                 "re", "enum", "contextlib", "warnings", "fractions",
                                 "decimal"})

    def test_every_annotation_resolves(self):
        functions = _annotated_functions()
        # 250 when this floor was last set; it sits a tenth below, so that
        # deletions fit under it while a walk that misses every class (127
        # methods) or one of the largest modules (stdbasis 72, polyring 62,
        # cli 40 functions) still fails
        assert len(functions) > 225
        unresolved = []
        for name, fn in functions.items():
            try:
                hints = typing.get_type_hints(fn)
            except Exception as e:  # noqa: BLE001  (every failure is reported by name)
                unresolved.append(f"{name}: {e!r}")
                continue
            unresolved.extend(f"{name}: {k}" for k, v in hints.items() if _unresolved(v))
        assert unresolved == []

    @pytest.mark.parametrize("name", sorted(os.listdir(CORPUS)))
    def test_corpus_digest_matches_hashlib(self, name):
        with open(os.path.join(CORPUS, name), "r", encoding="utf-8") as fh:
            text = fh.read()
        assert parse_problem_file(text).digest() == _hashlib_digest(text)

    def test_digest_across_padding_edges(self):
        # one and two blocks, and the 55/56/64-byte edges of the padding
        for size in range(0, 200):
            for text in ("a" * size, "\u00e9" * (size // 2)):
                assert _digest(text) == _hashlib_digest(text)

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=40), st.integers(0, 130))
    def test_digest_matches_hashlib(self, text, pad):
        text = "x" * pad + text
        assert _digest(text) == _hashlib_digest(text)


RECORDS = [QuotientDim, PrimitiveIdeal, DdkClass, JetContext,
           MorseComponent, CriticalReport, SplittingReport, ProblemFile]


class TestRecords:
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_fields_are_read_only(self, cls):
        record = cls(*[None] * len(cls._fields))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_repr_names_the_fields(self):
        assert repr(QuotientDim(3)) == "QuotientDim(value=3, witness=())"
        assert repr(DdkClass(1, 2, "IS_Ddk")) == "DdkClass(d=1, k=2, verdict='IS_Ddk')"

    def test_unfolding_checks_its_rings_and_parameters(self):
        base = Ring(["x", "y"])
        f = parse_poly("x^3 + y^2", base)
        ext = base.extend(["s"])
        F = parse_poly("x^3 + y^2 + s*x", ext)
        U = Unfolding(f, F)
        assert (U.f, U.F, U.params) == (f, F, ("s",))
        with pytest.raises(ValueError, match="start with the base"):
            Unfolding(f, parse_poly("x^3 + y^2 + s*x", Ring(["y", "x", "s"])))

    def test_unfolding_parameters_follow_the_ring(self):
        # the parameters are the trailing ring variables in ring order, and
        # validate_unfolding returns the derivative along params[i] i-th; over
        # the unit ideal its one coordinate is the derivative itself
        base = Ring(["x", "y"])
        f = parse_poly("x^3 + y^2", base)
        unit = Ideal(base, [parse_poly("1", base)])
        U = Unfolding(f, parse_poly("x^3 + y^2 + s*x + t*y", base.extend(["s", "t"])))
        assert U.params == ("s", "t")
        assert [format_poly(c) for c, in validate_unfolding(U, unit)] == ["x", "y"]
        U = Unfolding(f, parse_poly("x^3 + y^2 + s*x + t*y", base.extend(["t", "s"])))
        assert U.params == ("t", "s")
        assert [format_poly(c) for c, in validate_unfolding(U, unit)] == ["y", "x"]


# ---------------------------------------------------------------------------
# process exit: `python -m germforge.cli` and the `germforge` script run
# main(), flush both streams and end with os._exit, skipping the interpreter's
# teardown; the process must answer exactly as main() does in-process


def _without_timing(err):
    return "".join(line for line in err.splitlines(keepends=True)
                   if not line.startswith("elapsed_ms="))


def _cli_process(argv, buffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "germforge.cli", *argv], env=env,
                          stdout=stdout, stderr=stderr, text=True,
                          timeout=120)


def _long_problem(tmp_path):
    """cusp's ideal with an f of 1500 terms, so theta echoes a document
    larger than stdout's 8 KiB buffer."""
    terms = " + ".join(f"{k % 7 + 1}*x^{k // 50 + 2}*y^{k % 50 + 1}"
                       for k in range(1500))
    return problem(tmp_path, f"ring x y ;\nideal I = x^2, y ;\npoly f = {terms} ;\n")


BUFFERING = pytest.mark.parametrize("buffered", [True, False],
                                    ids=["buffered", "unbuffered"])


class TestProcessExit:
    @BUFFERING
    @pytest.mark.parametrize("argv, status", [
        pytest.param(["codim", "cusp"], 0, id="codim-cusp"),
        pytest.param(["determinacy", "d3b"], 2, id="not-finite-codim"),
        pytest.param(["morse", "--method", "jet", "cusp"], 3, id="radical-unavailable"),
        pytest.param(["theta", None], 0, id="past-the-buffer"),
    ])
    def test_process_answers_as_main_does(self, capsys, tmp_path, argv, status, buffered):
        name = argv[-1]
        path = _long_problem(tmp_path) if name is None else os.path.join(CORPUS, f"{name}.gf")
        argv = argv[:-1] + [path]
        code, out, err = run(capsys, argv)
        proc = _cli_process(argv, buffered)
        assert code == proc.returncode == status
        assert proc.stdout == out
        assert _without_timing(proc.stderr) == _without_timing(err)
        if name is None:
            assert len(out.encode()) > 8192

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @BUFFERING
    def test_unwritable_stdout_is_a_bad_request(self, buffered):
        # buffered or not, the write and flush inside main() fail
        with open("/dev/full", "w") as full:
            proc = _cli_process(["codim", os.path.join(CORPUS, "cusp.gf")],
                                buffered, stdout=full)
        assert proc.returncode == 2
        assert _without_timing(proc.stderr) == (
            f"error: BAD_REQUEST: cannot write output: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @BUFFERING
    @pytest.mark.parametrize("argv, status", [
        pytest.param(["codim"], 0, id="answer"),
        pytest.param(["codim", "--order", "xx"], 2, id="bad-request"),
    ])
    def test_unwritable_stderr_leaves_the_exit_status(self, capsys, argv, status, buffered):
        argv = argv + [os.path.join(CORPUS, "cusp.gf")]
        code, out, _ = run(capsys, argv)
        with open("/dev/full", "w") as full:
            proc = _cli_process(argv, buffered, stderr=full)
        assert code == proc.returncode == status
        assert proc.stdout == out

    def test_script_target_is_the_main_block_entry(self):
        with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
            scripts = fh.read().split("[project.scripts]")[1].split("\n[")[0]
        target = re.search(r'^germforge\s*=\s*"germforge\.cli:(\w+)"', scripts, re.M)
        with open(germforge.cli.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        main_block = [node for node in tree.body if isinstance(node, ast.If)
                      and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert len(main_block) == 1
        (stmt,) = main_block[0].body
        assert ast.unparse(stmt) == f"{target.group(1)}()"
        assert callable(getattr(germforge.cli, target.group(1)))

    def test_an_exception_from_main_propagates(self, monkeypatch):
        exits = []

        def fail():
            raise RuntimeError("engine bug")

        monkeypatch.setattr(germforge.cli, "main", fail)
        monkeypatch.setattr(os, "_exit", exits.append)
        with pytest.raises(RuntimeError, match="engine bug"):
            germforge.cli.run()
        assert exits == []
