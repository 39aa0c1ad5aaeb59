"""Whole-library gate: exact values on the worked examples plus the
cross-cutting property suites, each criterion as one test."""

import os
import time

from hypothesis import given, settings, strategies as st

from germforge import (
    GLOBAL_DP,
    LOCAL_DS,
    DdkClass,
    GermProblem,
    Ideal,
    Poly,
    Ring,
    Submodule,
    Unfolding,
    XorShift64,
    build_versal_unfolding,
    classify_Ddk,
    conservation_check,
    determinacy_bound,
    extended_codim,
    hilbert_samuel_values,
    jet_morse_number,
    lie_bracket,
    parse_poly,
    power_ideal,
    primitive_ideal,
    splitting,
    tangent_ideal,
    theta_preserving,
    versality_check,
)
from germforge.cli import parse_problem_file
from germforge.polyring import format_poly, monomials_of_degree

from helpers import evalp  # noqa: F401  (kept importable for debugging)

R2 = Ring(("x", "y"))
EJEM = Ideal(R2, [parse_poly("x^2", R2), parse_poly("y", R2)], LOCAL_DS)
CUSP = parse_poly("y^2 + x^3", R2)
CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "corpus")


def P(s, ring=R2):
    return parse_poly(s, ring)


def test_c01_running_example_exact_values():
    t0 = time.monotonic()
    theta = theta_preserving(EJEM)
    x, y = R2.var(0), R2.var(1)
    zero = R2.zero()
    expected = Submodule(R2, 2, [(x, zero), (y, zero), (zero, x * x),
                                 (zero, y)], theta.order)
    assert theta.equals(expected)

    tau = tangent_ideal(CUSP, theta)
    assert tau.equals(Ideal(R2, [P("x^3"), P("x^2 y"), P("y^2")], LOCAL_DS))

    assert extended_codim(CUSP, EJEM).value == 3
    unit = Ideal(R2, [R2.one()], LOCAL_DS)
    assert extended_codim(CUSP, unit).value == 2
    assert time.monotonic() - t0 < 1.0


def test_c02_deforming_strictly_drops_the_codimension():
    rep = splitting(GermProblem(CUSP, EJEM))
    assert rep.seeds == (11, 13)
    assert rep.stable
    assert rep.corrected == 2 < extended_codim(CUSP, EJEM).value
    assert rep.morse == 2
    assert rep.sigma == {1: 2}


def test_c03_fields_preserving_power_ideals():
    for n in (2, 3):
        ring = Ring(tuple(f"x{i + 1}" for i in range(n)))
        zero = ring.zero()
        want = Submodule(ring, n, [tuple(ring.var(i) if j == b else zero for j in range(n))
                                   for b in range(n) for i in range(n)], LOCAL_DS)
        for k in (1, 2, 3):
            theta = theta_preserving(power_ideal(ring, k))
            assert theta.equals(want), (n, k)


def test_c04_smooth_locus_normal_forms_have_codimension_zero():
    for k in (1, 2):
        names = tuple(f"x{i + 1}" for i in range(k)) + tuple(
            f"y{i + 1}" for i in range(k))
        ring = Ring(names)
        f = sum((ring.var(i) * ring.var(k + i) for i in range(k)), ring.zero())
        I = Ideal(ring, [ring.var(k + i) for i in range(k)], LOCAL_DS)
        assert extended_codim(f, I).value == 0, k

    R3Y = Ring(("x", "y1", "y2"))
    J = Ideal(R3Y, [parse_poly("y1", R3Y), parse_poly("y2", R3Y)], LOCAL_DS)
    assert classify_Ddk(parse_poly("y1^2 + y2^2", R3Y), J) == DdkClass(1, 0, "IS_Ddk")
    assert classify_Ddk(parse_poly("x y1^2 + y2^2", R3Y), J) == DdkClass(1, 1, "IS_Ddk")


def test_c05_primitive_ideals_of_smooth_ideals():
    mm = Ideal(R2, [P("x"), P("y")], LOCAL_DS)
    prim = primitive_ideal(mm, 6)
    assert {format_poly(g) for g in prim.ideal.gens} == {"x^2", "x*y", "y^2"}
    assert prim.ideal.equals(
        Ideal(R2, [P("x^2"), P("x y"), P("y^2")], LOCAL_DS))

    lx = Ideal(R2, [P("x")], LOCAL_DS)
    prim_x = primitive_ideal(lx, 6)
    assert {format_poly(g) for g in prim_x.ideal.gens} == {"x^2"}


def test_c06_low_determinacy_and_stability_under_deep_perturbation():
    bound = determinacy_bound(CUSP, EJEM)
    assert bound == 2 <= extended_codim(CUSP, EJEM).value
    deep = monomials_of_degree(2, 6)
    for trial in range(10):
        rng = XorShift64(101 + trial)
        bump = R2.zero()
        for j, mono in enumerate(deep):
            g = EJEM.gens[j % len(EJEM.gens)]
            bump = bump + Poly(R2, {mono: rng.rational()}) * g
        assert not bump.is_zero() and bump.truncate(5).is_zero()
        assert extended_codim(CUSP + bump, EJEM).value == 3, trial


def test_c07_constructed_unfolding_is_versal_and_minimal():
    U = build_versal_unfolding(CUSP, EJEM)
    assert len(U.params) == 3
    assert versality_check(U, EJEM)

    c = extended_codim(CUSP, EJEM)
    basis = [R2.monomial(m) * EJEM.gens[pos] for pos, m in c.witness]
    n = R2.n
    for drop in range(len(basis)):
        kept = [h for i, h in enumerate(basis) if i != drop]
        params = [f"s{i + 1}" for i in range(len(kept))]
        ext = R2.extend(params)
        base = [ext.var(i) for i in range(n)]
        F = CUSP.substitute(base, ext)
        for i, h in enumerate(kept):
            F = F + ext.var(n + i) * h.substitute(base, ext)
        assert not versality_check(Unfolding(CUSP, F), EJEM), drop


def test_c08_counts_are_conserved_and_methods_agree():
    assert conservation_check(CUSP, EJEM, trials=3, assume_reduced=True)
    cusp = GermProblem(CUSP, EJEM)
    assert jet_morse_number(cusp, assume_reduced=True)[2] == splitting(cusp).morse == 2

    unit2 = Ideal(R2, [R2.one()], LOCAL_DS)
    q = GermProblem(P("x^2 + y^2"), unit2)
    assert jet_morse_number(q)[2] == splitting(q).morse == 1
    R1 = Ring(("x",))
    unit1 = Ideal(R1, [R1.one()], LOCAL_DS)
    f1 = GermProblem(parse_poly("x^3", R1), unit1)
    assert jet_morse_number(f1)[2] == splitting(f1).morse == 2


def test_c09_shear_change_of_coordinates_changes_nothing():
    x, y = R2.var(0), R2.var(1)
    images = [x, y + x * x]
    f2 = CUSP.substitute(images)
    I2 = Ideal(R2, [g.substitute(images) for g in EJEM.gens], LOCAL_DS)
    assert I2.equals(EJEM)
    assert extended_codim(f2, I2).value == extended_codim(CUSP, EJEM).value
    before = splitting(GermProblem(CUSP, EJEM))
    after = splitting(GermProblem(f2, I2))
    assert after.morse == before.morse
    assert after.corrected == before.corrected
    assert after.sigma == before.sigma


def _det(M):
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def _linear_changes(n):
    """Invertible n x n integer matrices with entries in -2..2."""
    entries = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return st.lists(entries, min_size=n, max_size=n).filter(lambda M: _det(M) != 0)


def _moved(p, M):
    """p after the linear change x_i -> sum_j M[i][j] x_j."""
    ring = p.ring
    return p.substitute([ring.sum(c * ring.var(j) for j, c in enumerate(row))
                         for row in M])


def _invariants(f, I):
    P = GermProblem(f, I)
    return P.c_ext.value, P.c_plain.value, P.determinacy


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(2, 4), min_size=n, max_size=n), _linear_changes(n))))
def test_c09_brieskorn_pham_after_a_linear_change(case):
    # Milnor-Orlik: mu = prod(a_i - 1); c_plain = mu + n since tau(f) = m J(f);
    # m^k lies in J(f) = (x_i^(a_i - 1)) exactly when k > sum(a_i - 2)
    exponents, M = case
    n = len(exponents)
    ring = Ring([f"x{i}" for i in range(n)])
    f = ring.sum(ring.var(i) ** a for i, a in enumerate(exponents))
    mu = 1
    for a in exponents:
        mu *= a - 1
    unit = Ideal(ring, [ring.one()], LOCAL_DS)
    assert _invariants(_moved(f, M), unit) == (mu, mu + n, sum(exponents) - 2 * n + 1)


# x -> x + 2y - z, y -> x + y + 3z, z -> y + z - x (determinant -12)
PHI = [[1, 2, -1], [1, 1, 3], [-1, 1, 1]]
RXYZ = Ring(("x", "y", "z"))


def test_c09_brieskorn_pham_567_after_phi():
    # Milnor-Orlik as above: mu = 4*5*6, c_plain = mu + 3, determinacy
    # 5 + 6 + 7 - 5; a rung too large for the sampled exponents
    f = P("x^5 + y^6 + z^7", RXYZ)
    unit = Ideal(RXYZ, [RXYZ.one()], LOCAL_DS)
    assert _invariants(_moved(f, PHI), unit) == (120, 123, 13)


def test_c09_th3_after_phi_answers_as_unmoved():
    # four generators of degree 3 in a proper ideal: the change of
    # coordinates moves the problem, not its invariants
    gens = ["(x+y+z)^3", "(x-y)^3", "(y-2*z)^3", "x*y*z"]
    I = Ideal(RXYZ, [P(g, RXYZ) for g in gens], LOCAL_DS)
    f = P("(x+y+z)^3*(x-y) + (x-y)^3*z + (y-2*z)^3*x", RXYZ)
    moved = Ideal(RXYZ, [_moved(g, PHI) for g in I.gens], LOCAL_DS)
    assert _invariants(f, I) == _invariants(_moved(f, PHI), moved) == (31, 31, 4)


CORPUS_INVARIANTS = {"cusp": (3, 3, 2), "shear": (3, 3, 2), "a4rel": (5, 5, 3),
                     "d4rel": (4, 4, 2), "e6": (7, 7, 3), "d3": (9, 9, 3)}


def _corpus_problem(name):
    with open(os.path.join(CORPUS, f"{name}.gf"), encoding="utf-8") as fh:
        pf = parse_problem_file(fh.read())
    return pf.polys["f"], pf.ideals["I"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CORPUS_INVARIANTS)).flatmap(lambda name: st.tuples(
    st.just(name), _linear_changes(_corpus_problem(name)[0].ring.n))))
def test_c09_corpus_problems_after_a_linear_change(case):
    name, M = case
    f, I = _corpus_problem(name)
    moved = Ideal(I.ring, [_moved(g, M) for g in I.gens], LOCAL_DS)
    assert _invariants(f, I) == CORPUS_INVARIANTS[name]
    assert _invariants(_moved(f, M), moved) == CORPUS_INVARIANTS[name]


def test_c10_codimension_of_the_fattened_square_is_bounded():
    t0 = time.monotonic()
    R3 = Ring(("x1", "x2", "x3"))
    g = parse_poly("x1^2 + x2^3", R3)
    gg = g * g
    I = Ideal(R3, [gg], LOCAL_DS)
    f = (R3.one() + R3.var(2) * R3.var(2)) * gg
    c = extended_codim(f, I)
    assert c.is_finite and c.value <= 2
    assert time.monotonic() - t0 < 60.0


def test_c11_property_suites():
    # bracket closure: preserving fields form a Lie algebra
    for I in (EJEM, Ideal(R2, [P("x^2 - y^3")], LOCAL_DS),
              Ideal(R2, [P("x y"), P("y^2")], LOCAL_DS)):
        theta = theta_preserving(I)
        for X in theta.gens:
            for Y in theta.gens:
                assert theta.contains(lie_bracket(X, Y))

    # normal-form membership agrees with a plain linear-algebra oracle on
    # 200 seeded random instances (100 polynomial-ring, 100 local m-primary)
    from test_stdbasis import TestNormalFormVsOracle
    nf = TestNormalFormVsOracle()
    nf.test_global_100_instances()
    nf.test_local_100_instances_m_primary()

    # Hilbert-Samuel values never decrease with the power
    for I in (EJEM, Ideal(R2, [P("x^3"), P("x y")], LOCAL_DS),
              power_ideal(R2, 2)):
        vals = [hilbert_samuel_values(I, m)[m] for m in range(6)]
        assert vals == sorted(vals)
