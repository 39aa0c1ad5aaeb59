"""End-to-end command tests: problem files, documents, exit codes, goldens."""

import io
import os

import pytest

import germforge.tangent
from germforge import jet_context
from germforge.cli import main, parse_problem_file
from germforge.polyring import format_poly

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CANON = "ring x y ;\nideal I = x^2, y ;\npoly f = x^3 + y^2 ;\n"
CLASSIFY = "ring x y1 y2 ;\nideal J = y1, y2 ;\npoly f = x*y1^2 + y2^2 ;\n"
VERSAL = CANON + (
    "unfolding F params s1 s2 s3 = x^3 + y^2 + s1*x^2 + s2*y + s3*x*y ;\n")
PARTIAL = CANON + "unfolding F params s1 s2 = x^3 + y^2 + s1*x^2 + s2*y ;\n"


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
        monkeypatch.setattr("sys.stdin", io.StringIO(CANON))
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
    def test_env_seed_expands_to_pair(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GERMFORGE_SEED", "17")
        code, out, _ = run(capsys, ["split", problem(tmp_path)])
        assert code == 0
        assert "seeds: 17,19" in out

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GERMFORGE_SEED", "17")
        _, out, _ = run(
            capsys, ["split", problem(tmp_path), "--seeds", "11,13"])
        assert "seeds: 11,13" in out

    def test_bad_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GERMFORGE_SEED", "pi")
        code, _, err = run(capsys, ["split", problem(tmp_path)])
        assert code == 2
        assert "GERMFORGE_SEED" in err


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

    def test_build_lists_three_params(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["versal-build", problem(tmp_path)])
        assert code == 0
        assert "- s3" in out and "- s4" not in out


class TestExitCodes:
    def test_nonmember_germ(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x^2, y ;\npoly f = x ;\n"
        code, out, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert "F_NOT_IN_IDEAL" in err
        assert out == ""

    def test_parse_error_carries_position(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x^2, % ;\n"
        code, _, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert "PARSE_ERROR" in err and "line 2" in err

    def test_unknown_statement(self, capsys, tmp_path):
        code, _, err = run(capsys,
                           ["codim", problem(tmp_path, "ring x ;\nblob z ;\n")])
        assert code == 2
        assert "unknown statement" in err

    def test_unknown_option_key(self, capsys, tmp_path):
        text = CANON + "option flavor mild ;\n"
        code, _, err = run(capsys, ["codim", problem(tmp_path, text)])
        assert code == 2
        assert "unknown option" in err

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

    def test_theta_via_subideal_requires_trunc(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["theta", problem(tmp_path), "--theta-mode", "via-subideal"])
        assert code == 2
        assert "PRECONDITION_VIOLATED" in err


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
        text = CANON + "option trials 2 ;\n"
        code, out, _ = run(
            capsys,
            ["conserve", problem(tmp_path, text), "--assume-reduced"])
        assert code == 0
        assert "conserved: true" in out and "trials: 2" in out

    @pytest.mark.parametrize("trials", ["0", "9"])
    def test_conserve_rejects_trial_counts_without_own_seeds(
            self, capsys, tmp_path, trials):
        text = CANON + f"option trials {trials} ;\n"
        code, out, err = run(
            capsys,
            ["conserve", problem(tmp_path, text), "--assume-reduced"])
        assert code == 2
        assert out == ""
        assert "BAD_REQUEST" in err

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

    def test_theta_via_subideal_differs_from_direct(self, capsys, tmp_path):
        text = "ring x y ;\nideal I = x, y ;\n"
        path = problem(tmp_path, text)
        _, direct, _ = run(capsys, ["theta", path, "--trunc", "6"])
        _, via, _ = run(
            capsys,
            ["theta", path, "--theta-mode", "via-subideal", "--trunc", "6"])
        assert direct != via
        assert "theta-mode: via-subideal" in via


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
