"""Every function in src/germforge is entered by some CLI command, or is
allowed by name with the test that needs it; and every benchmark case is
judged as the benchmark judges it.

The sweep runs, in this process under ``sys.setprofile``, every benchmark
case of ``perfbench/run.py`` over ``perfbench/corpus``, a few commands that
no benchmark case runs, and the failing and edge inputs of the CLI tests. A
function is keyed by its file and first line, read from the source's syntax
tree (its first decorator's line when it has one, as in ``co_firstlineno``),
so nested functions and methods count and no ``co_qualname`` is needed.

A function that no command enters and that no entry of ALLOWED names is
dead code: delete it with its tests. An entry names the test that uses the
function as an independent check of a command's answer, or the test that
reaches its branch. Names bound in ``perfbench/tracer.py``'s ``LAYERS``
table are allowed as long as the table binds them, and those of them that
no command enters, whose layers read 0, are exactly the ones STALE lists.

The same sweep judges every benchmark case: each one's stdout, stderr and
exit status go to ``perfbench/run.py``'s own ``judge``, as the output of a
process would (exit status, error code, goldens, independent values; a
known failure only in its recorded way), and its stdout is compared byte for
byte with ``perfbench/expected/<slug>.txt`` wherever that document exists.
Each file there is the document of one benchmark case, and each golden that
the benchmark compares exists, so a new pin is checked with no new test, on
every interpreter the suite runs on.

The sweep also records each command's standard bases, membership tests
and lifts, to guard against duplicate work: no command of the sweep builds
a basis of the same generators twice, and none both tests a polynomial for
membership in an ideal, by a normal form against the ideal's own basis, and
lifts it through the ideal's lifter, since the lift decides the same
membership; REPEATED names the one known exception.
"""

import ast
import contextlib
import errno
import importlib
import importlib.util
import inspect
import io
import os
import re
import sys
import traceback
from types import SimpleNamespace

import pytest

import germforge
import germforge.stdbasis as stdbasis
from germforge.cli import main, parse_problem_file, the_poly

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(os.path.abspath(germforge.__file__))
PERFBENCH = os.path.join(ROOT, "perfbench")
CORPUS = os.path.join(PERFBENCH, "corpus")
TESTS = os.path.join(ROOT, "tests")

CANON = "ring x y ;\nideal I = x^2, y ;\npoly f = x^3 + y^2 ;\n"

# commands that no benchmark case runs: the Morse routes one at a time and
# the via-subideal and truncated theta modes; (argv, corpus problem)
EXTRA = [
    (["morse", "--method", "jet", "--assume-reduced"], "cusp"),
    (["morse", "--method", "oracle", "--seeds", "11,13"], "cusp"),
    (["morse", "--method", "oracle", "--degree-bound", "3"], "cusp"),
    (["theta", "--theta-mode", "via-subideal", "--trunc", "4"], "cusp"),
    (["tangent", "--theta-mode", "via-subideal", "--trunc", "4"], "cusp"),
    (["theta", "--trunc", "4"], "cusp"),
    (["tangent", "--trunc", "4"], "d3"),
]

# failing and edge inputs, most of them those of tests/test_cli.py;
# (argv, problem text), the file going after the command, or None for none
INPUTS = [
    (["codim"], "ring x y ;\nideal I = x^2, y ;\npoly f = x ;\n"),
    (["split"], "ring x y ;\nideal I = x - x^2, y ;\npoly f = x^2 + y^2 ;\n"),
    (["morse", "--method", "oracle"],
     "ring x y ;\nideal I = x - x^2, y ;\npoly f = x^2 + y^2 ;\n"),
    # the jet route on that germ: its problem decides membership at the
    # origin, and the lift fails with LIFTING_FAILED
    (["morse", "--method", "jet", "--assume-reduced"],
     "ring x y ;\nideal I = x - x^2, y ;\npoly f = x^2 + y^2 ;\n"),
    (["conserve", "--assume-reduced"],
     "ring x y ;\nideal I = x - x^2, y ;\npoly f = x^2 + y^2 ;\n"),
    # tau_e(f) has generators that lie in I at the origin only: L lifts
    # each of them times a unit of its colon
    (["codim"], "ring x y ;\nideal I = x - x^2*y, y - x*y^2 ;\npoly f = x^2 + y^2 ;\n"),
    (["determinacy"],
     "ring x y ;\nideal I = x - x^2*y, y - x*y^2 ;\npoly f = x^2 + y^2 ;\n"),
    # the unimodal germs X9 and P8: their members keep a defect point that
    # is no Morse point, so split reads sigma past the Morse shortcut
    (["split", "--seeds", "11"],
     "ring x y ;\nideal I = x^4, x^3*y, x^2*y^2, x*y^3, y^4 ;\npoly f = x^4 + y^4 ;\n"),
    (["split", "--seeds", "11"],
     "ring x y z ;\nideal I = x^3, x^2*y, x^2*z, x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3 ;\n"
     "poly f = x^3 + y^3 + z^3 ;\n"),
    (["codim"], "ring x y ;\nideal I = x^2, % ;\n"),
    (["codim"], "ring x y ;\nideal I = x^2, y ;\npoly f = 1/0*x^3 + y^2 ;\n"),
    (["codim"], "ring x y ;\nideal I = x^2, y ;\npoly f = (x+y+1)^200 ;\n"),
    (["codim"], "ring x ;\nideal I = x^2 ;\npoly f = (3x+2)^499 (5x-7)^500 ;\n"),
    (["codim"], "ring x y ;\nideal I = x^2, y ;\npoly f = "
     + "(" * 3000 + "x^3 + y^2" + ")" * 3000 + " ;\n"),
    (["codim"], "ring x y ;\nideal I = x^2, y ;\npoly f = (x^3 + y^2 ;\n"),
    (["codim"], "ring x y ;\nideal I = x^2, y ;\npoly f = x^3 + y^2) ;\n"),
    (["codim"], f"ring x y ;\nideal I = x^2, y ;\npoly f = {'9' * 5000}*x^3 ;\n"),
    (["codim"], f"ring x y ;\nideal I = x^2, y ;\npoly f = x^{'9' * 5000} ;\n"),
    (["codim"], "ring 1x y ;\n"),
    (["codim"], CANON + "unfolding F params 2s = x^3 + y^2 ;\n"),
    (["codim"], "ring x ;\nblob z ;\n"),
    (["codim"], CANON + "option flavor mild ;\n"),
    (["codim"], CANON + "poly f = y ;\n"),
    (["codim"], "ring x y ;\nideal I = x^2, y ;\npoly g = y^2 ;\npoly h = x^2 ;\n"),
    (["codim", "--bogus"], CANON),
    (["codim"], "ring x y ;\nideal I = x^40000 + y ;\npoly f = y ;\n"),
    (["codim", "--order", "dp"], "ring x y ;\nideal I = 1 ;\npoly f = x + x^3 + y^2 ;\n"),
    # a line through the origin that no coordinate axis certifies infinite
    (["codim"], "ring x y ;\nideal I = x - y ;\npoly f = (x - y)^2 ;\n"),
    (["classify"], "ring x y1 y2 ;\nideal J = y1, y2 ;\npoly f = y1^2 + x ;\n"),
    (["split", "--degree-bound", "1"], CANON),
    # a bound below every cobasis degree: every seed would draw f itself
    (["split", "--degree-bound", "1"],
     "ring x y ;\nideal I = x^2*y ;\npoly f = x^4*y + x^2*y^2 ;\n"),
    (["split", "--degree-bound", "-1"], CANON),
    (["morse", "--method", "jet"], CANON),
    (["morse", "--seeds", "a,b"], CANON),
    (["primitive"], CANON),
    (["primitive", "--trunc", "3"], "ring x y ;\nideal I = x, y ;\n"),
    (["hilbert"], CANON),
    (["hilbert", "--trunc", "-1"], CANON),
    (["hilbert", "--trunc", "100000"], CANON),
    (["primitive", "--trunc", "100000"], CANON),
    (["theta", "--theta-mode", "via-subideal", "--trunc", "100000"], CANON),
    (["hilbert", "--trunc", "32767"], CANON),
    (["primitive", "--trunc", "32767"], CANON),
    (["jet-dump", "--trunc", "32767"], CANON),
    (["theta", "--theta-mode", "via-subideal"], CANON),
    (["conserve", "--assume-reduced", "--trials", "9"], CANON),
    (["conserve", "--assume-reduced", "--trials", "x"], CANON),
    (["versal-check"], CANON + "unfolding F params s1 s2 = x^3 + y^2 + s1*x^2 + s2*y ;\n"),
    # a slice that leaves I: F_NOT_UNFOLDING, exit status 2
    (["versal-check"], CANON + "unfolding F params s = x^3 + y^2 + s*x ;\n"),
    # parameter names past s..w, and base names that are jet ring names
    (["versal-build"], "ring x s1 t1 u1 v1 w1 ;\nideal I = 1 ;\n"
     "poly f = x^3 + s1^2 + t1^2 + u1^2 + v1^2 + w1^2 ;\n"),
    (["jet-dump"], "ring z1 y ;\nideal I = z1^2, y ;\npoly f = z1^3 + y^2 ;\n"),
    (["-h"], None),
    (["morse", "-h"], None),
    ([], None),
]

EQUALS = ("an independent check: test_acceptance.py::test_c01_running_example_exact_values "
          "compares theta and tau_e(f) with the modules computed by hand")
HASHED = ("__eq__ is defined, so without it the type is unhashable; "
          "{} holds it in a set or as a key")
RATIONAL = "Q is registered as a numbers.Rational: {} holds it to Fraction"
REPR = ("what the REPL and a failing assertion show: "
        "test_polyring.py::TestRepr::test_values_show_their_text pins it")

# dotted name -> why it stays although no command of the sweep enters it
ALLOWED = {
    "cli.run": ("the process entry point around main(), ending in os._exit: "
                "test_cli.py::TestProcessExit::test_process_answers_as_main_does "
                "runs it in a child process"),
    "polyring.Order.__hash__": HASHED.format(
        "test_stdbasis.py::TestOrderViews::test_views_answer_in_their_own_order"),
    "polyring.Order.__init__": "runs when polyring is imported, for LOCAL_DS and GLOBAL_DP",
    "polyring.Order.__repr__": REPR,
    "polyring.Poly.__repr__": REPR,
    "polyring.Poly.__rmul__": ("a number times a polynomial: "
                               "test_polyring.py::TestArithmetic::test_scalar_coercion"),
    "polyring.Q.__ge__": RATIONAL.format(
        "test_polyring.py::TestRational::test_comparisons_agree_with_fraction"),
    "polyring.Q.__gt__": RATIONAL.format(
        "test_polyring.py::TestRational::test_comparisons_agree_with_fraction"),
    "polyring.Q.__int__": RATIONAL.format(
        "test_polyring.py::TestRational::test_unary_and_conversions_agree_with_fraction"),
    "polyring.Q.__le__": RATIONAL.format(
        "test_polyring.py::TestRational::test_comparisons_agree_with_fraction"),
    "polyring.Q.__pow__": RATIONAL.format(
        "test_polyring.py::TestRational::test_power_agrees_with_fraction"),
    "polyring.Q.__repr__": REPR,
    "polyring.Q.__rsub__": RATIONAL.format(
        "test_polyring.py::TestRational::test_arithmetic_agrees_with_fraction"),
    "polyring.Q.__rtruediv__": RATIONAL.format(
        "test_polyring.py::TestRational::test_arithmetic_agrees_with_fraction"),
    "polyring.Q.__sub__": RATIONAL.format(
        "test_polyring.py::TestRational::test_arithmetic_agrees_with_fraction"),
    "polyring.Ring.__hash__": HASHED.format(
        "test_stdbasis.py::TestHilbertSamuel::test_one_slice_matches_a_slice_per_degree"),
    "polyring.Ring.__repr__": REPR,
    "stdbasis.Ideal.__repr__": REPR,
    "stdbasis.Ideal.equals": EQUALS,
    "stdbasis.Submodule._basis": ("perfbench/tracer.py's qdim probe reads it: "
                                  "test_tracer_names.py::test_qdim_probe_reads_the_cached_basis"),
    "stdbasis.Submodule.contains_module": EQUALS,
    "stdbasis.Submodule.equals": EQUALS,
    "tangent.lie_bracket": ("an independent check of theta, closed under the bracket: "
                            "test_acceptance.py::test_c11_property_suites"),
}


# the commands that may still test the germ f for membership in I and lift
# it: GermProblem(f, I) tests f against I's basis, and the jet route's
# jetmorse.lift_germ then lifts f through I's lifter for its coordinates.
# This stays by design: a problem decides f's membership when it is built,
# also for locus, which reads no L and builds no lifter, and the lifter
# costs far more than I's own basis: with Python 3.11 on a 2-core machine,
# building it and lifting the germ took 12 / 125 / 4856 ms against 1.6 /
# 3.2 / 10 ms for the basis and the membership test, on the th3 / th4 / th5
# problems of ROADMAP.md's Baseline
REPEATED = ("morse", "conserve")

# the tracer's layers whose names no command of the sweep enters, so that
# each reads 0 in every benchmark pass until ROADMAP item 1 replaces the
# tracer; a rename that leaves one more layer at 0 fails here
STALE = {
    "invariants.extended_codim",
    "invariants.plain_codim",
    "linalg.RowBasis.add",
    "linalg.RowBasis.contains",
    "stdbasis.module_syzygies",
}


def _load_perfbench(name):
    """perfbench/<name>.py; run.py imports its neighbour tracer.py by name."""
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            f"germforge_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses looks its module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


def _traced_code():
    """Dotted name -> (file, first line) of the code that each name of the
    tracer's LAYERS table binds, an alias resolved to the function it names."""
    found = {}
    for modname, targets in _load_perfbench("tracer").LAYERS.values():
        module = importlib.import_module(modname)
        for target in (targets if isinstance(targets, tuple) else (targets,)):
            owner, _, attr = target.rpartition(".")
            code = inspect.unwrap(vars(getattr(module, owner) if owner else module)[attr]).__code__
            found[f"{modname[len('germforge.'):]}.{target}"] = (
                os.path.abspath(code.co_filename), code.co_firstlineno)
    return found


def _defined_functions():
    """(file, first line) -> dotted name of every def in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE, filename)
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read(), path), path, filename[:-3])
    return found


def _other_argvs(tmp_path):
    """The sweep's commands after the benchmark cases."""
    argvs = [argv + [os.path.join(CORPUS, f"{name}.gf")] for argv, name in EXTRA]
    for i, (argv, text) in enumerate(INPUTS):
        if text is None:
            argvs.append(argv)
            continue
        path = tmp_path / f"input{i}.gf"
        path.write_text(text)
        argvs.append(argv[:1] + [str(path)] + argv[1:])
    not_utf8 = tmp_path / "not-utf8.gf"
    not_utf8.write_bytes(b"\xff\xfe" + CANON.encode("utf-16-le"))
    return argvs + [["codim", str(not_utf8)], ["codim", str(tmp_path / "missing.gf")]]


class _Full(io.StringIO):
    """A stdout that cannot be written, as /dev/full."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture(scope="module")
def bench():
    return _load_perfbench("run")


@pytest.fixture(scope="module")
def sweep(bench, tmp_path_factory):
    """(file, first line) of every function the sweep entered, the commands
    that raised instead of returning an exit status, (case, run) for each
    benchmark case, and (argv, run) for every command of the sweep, the
    benchmark cases first. A run holds what a process of the command would
    give: out, err, code and timed_out, as perfbench/run.py's judge reads
    them, then the command's bases, a key per std_basis_vectors call, and
    the polynomials that it both tested for membership in an ideal, by a
    normal form against the ideal's own basis (Submodule.contains), and
    lifted through the ideal's lifter (Ideal.lift)."""
    cases = [case for cases in bench.WORKLOADS.values() for case in cases]
    argvs = [case.argv(bench.SEED_PAIRS[0]) for case in cases]
    argvs += _other_argvs(tmp_path_factory.mktemp("sweep"))
    runs = [(argv, io.StringIO()) for argv in argvs]
    runs.append((["codim", os.path.join(CORPUS, "cusp.gf")], _Full()))
    codes = set()
    add = codes.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    # a cache filled by earlier tests would answer without entering its
    # function
    for name, module in list(sys.modules.items()):
        if name.startswith("germforge."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    # the profile is set anew for each command: the interpreter unsets it
    # when it raises, as on the recursion limit of the deep-nesting input
    raised, results = [], []
    # raw calls only: hashing a polynomial here would enter the package
    bases, tested, lifted = [], [], []
    real_basis = stdbasis.std_basis_vectors
    real_contains, real_lift = stdbasis.Submodule.contains, stdbasis.Ideal.lift

    def basis(vectors, rank):
        bases.append((rank, tuple(map(tuple, vectors))))
        return real_basis(vectors, rank)

    def contains(self, v):
        if self.rank == 1:
            tested.append((tuple(g for g, in self.gens), v[0]))
        return real_contains(self, v)

    def lift(self, p):
        lifted.append((self.gens, p))
        return real_lift(self, p)

    stdbasis.std_basis_vectors = basis
    stdbasis.Submodule.contains, stdbasis.Ideal.lift = contains, lift
    try:
        for argv, stdout in runs:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                sys.setprofile(profile)
                try:
                    code = main(argv)
                except Exception as e:  # what it entered until then still counts
                    raised.append(f"{' '.join(argv)[:120]}: {e!r:.200}")
                    # as the process would end: a traceback and exit status 1
                    code = 1
                    stderr.write(traceback.format_exc())
                # what the guards compute below is not the command's
                sys.setprofile(None)
            results.append(SimpleNamespace(
                out=stdout.getvalue(), err=stderr.getvalue(), code=code, timed_out=False,
                bases=[_basis_key(rank, gens) for rank, gens in bases],
                tested_and_lifted=sorted(str(p) for _, p in set(tested) & set(lifted))))
            bases.clear()
            tested.clear()
            lifted.clear()
    finally:
        sys.setprofile(None)
        stdbasis.std_basis_vectors = real_basis
        stdbasis.Submodule.contains, stdbasis.Ideal.lift = real_contains, real_lift
    entered = {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in codes}
    return (entered, raised, list(zip(cases, results)),
            [(argv, run) for (argv, _), run in zip(runs, results)])


def _basis_key(rank, gens):
    """A std_basis_vectors call keyed by its rank and its generators' terms."""
    return rank, tuple(tuple(frozenset(p.terms.items()) for p in v) for v in gens)


def test_every_command_of_the_sweep_ends_in_an_exit_status(sweep):
    assert sweep[1] == []


def test_every_function_is_entered_or_allowed(sweep):
    entered = sweep[0]
    allowed = set(ALLOWED) | set(_traced_code())
    missed = sorted(name for key, name in _defined_functions().items()
                    if key not in entered and name not in allowed)
    assert not missed, "entered by no command and allowed by no entry:\n" + "\n".join(missed)


def test_allowed_functions_exist_and_are_not_entered(sweep):
    # an entry for a function that is gone, or that a command now enters,
    # is dropped from ALLOWED
    entered = sweep[0]
    defined = {name: key for key, name in _defined_functions().items()}
    assert sorted(set(ALLOWED) - set(defined)) == []
    assert sorted(name for name in ALLOWED if defined[name] in entered) == []


def test_stale_tracer_layers_are_the_known_ones(sweep):
    # a layer that a command now enters is dropped from STALE
    entered = sweep[0]
    assert sorted(name for name, key in _traced_code().items()
                  if key not in entered) == sorted(STALE)


def test_every_reason_names_a_test_that_exists():
    for name, reason in ALLOWED.items():
        if name == "polyring.Order.__init__":
            continue
        found = re.search(r"(test_\w+\.py)::(?:\w+::)?(test_\w+)", reason)
        assert found, name
        with open(os.path.join(TESTS, found[1]), encoding="utf-8") as fh:
            assert f"def {found[2]}(" in fh.read(), name


def test_every_pinned_document_belongs_to_a_case(bench):
    cases = {case.slug: case.id for cases in bench.WORKLOADS.values() for case in cases}
    orphans = sorted(path.name for path in bench.EXPECTED.glob("*.txt")
                     if path.stem not in cases)
    assert orphans == []
    assert sorted(set(bench.GOLDENS) - set(cases.values())) == []
    assert sorted(name for name in bench.GOLDENS.values()
                  if not (bench.GOLDEN / name).is_file()) == []


def test_every_case_is_judged_and_every_pinned_document_compared(bench, sweep):
    runs = sweep[2]
    compared, bad = 0, []
    for case, run in runs:
        cause = bench.judge(case, run)
        if bench.CaseRun(case, run, cause).unexpected:
            bad.append(f"{case.id}: {cause}")
        pinned = bench.EXPECTED / f"{case.slug}.txt"
        if pinned.exists():
            compared += 1
            if run.out.encode() != pinned.read_bytes():
                bad.append(f"{case.id}: stdout differs from expected/{pinned.name}")
    print(f"judged {len(runs)} cases, compared {compared} pinned documents whole")
    assert bad == []
    cases = sum(len(cases) for cases in bench.WORKLOADS.values())
    assert (len(runs), compared) == (cases, len(list(bench.EXPECTED.glob("*.txt"))))


def _shown(argv):
    """The command line with each path cut to its file name."""
    return " ".join(os.path.basename(a) if os.sep in a else a for a in argv)


def test_no_case_builds_a_basis_twice(sweep):
    repeats = [f"{_shown(argv)}: {len(run.bases) - len(set(run.bases))}"
               for argv, run in sweep[3] if len(set(run.bases)) < len(run.bases)]
    assert repeats == []


def test_no_case_tests_and_lifts_one_polynomial(sweep):
    # a lift's remainder is 0 exactly when the normal form is, so a
    # membership test of a polynomial that is also lifted repeats the lift;
    # only the germ of the jet route's commands may be left, as REPEATED
    # says, and some command still shows it, or REPEATED would be stale
    bad, germs = [], 0
    for argv, run in sweep[3]:
        allowed = set()
        if run.tested_and_lifted and argv[0] in REPEATED:
            with open(next(a for a in argv if a.endswith(".gf")), encoding="utf-8") as fh:
                allowed = {str(the_poly(parse_problem_file(fh.read())))}
        if not set(run.tested_and_lifted) <= allowed:
            bad.append(f"{_shown(argv)}: {run.tested_and_lifted}")
        germs += bool(run.tested_and_lifted)
    assert bad == []
    assert germs
