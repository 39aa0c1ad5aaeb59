import os
import sys
import pytest
from fractions import Fraction
from math import comb, prod

from hypothesis import example, given, settings, strategies as st

from germforge import stdbasis, tangent
from germforge.cli import main, parse_problem_file
from germforge.errors import GermforgeError
from germforge.polyring import GLOBAL_DP, LOCAL_DS, Poly, Ring, parse_poly
from germforge.stdbasis import Ideal, QuotientDim, power_ideal
from germforge.invariants import (
    DdkClass,
    GermProblem,
    Unfolding,
    build_versal_unfolding,
    classify_Ddk,
    determinacy_bound,
    extended_codim,
    plain_codim,
    positive_codim_locus,
    validate_unfolding,
    versality_check,
)
from germforge.oracle import splitting

from helpers import to_sympy

R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])
CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "corpus")


def P(s, ring=R2):
    return parse_poly(s, ring)


def ideal(ring, order, *gens):
    return Ideal(ring, [parse_poly(g, ring) for g in gens], order)


EJEM = ideal(R2, LOCAL_DS, "x^2", "y")
CUSP = P("y^2 + x^3")


def derivatives(U, I):
    """dF/ds_i at s = 0 for each parameter in order, rebuilt from the
    coordinates over I's generators that validate_unfolding returns."""
    return [I.ring.sum(c * g for c, g in zip(coords, I.gens))
            for coords in validate_unfolding(U, I)]


class TestCodimensions:
    def test_regression_extended(self):
        c = extended_codim(CUSP, EJEM)
        assert c.value == 3
        assert {str(R2.monomial(m) * EJEM.gens[pos]) for pos, m in c.witness} \
            == {"x^2", "y", "x*y"}

    def test_regression_plain(self):
        assert plain_codim(CUSP, EJEM).value == 3

    @pytest.mark.parametrize("order", [LOCAL_DS, GLOBAL_DP], ids=["ds", "dp"])
    @pytest.mark.parametrize("ring, gens, f", [
        pytest.param(R2, ("x^2", "y"), "x^3 + y^2", id="cusp"),
        pytest.param(R2, ("x", "y"), "x^3 + y^4", id="e6"),
        pytest.param(R2, ("x^3", "y^2"), "x^6 + y^4 + x^3 y^2", id="fin4"),
        pytest.param(R2, ("x^2", "y + x^2"), "x^3 + y^2 + 2 x^2 y + x^4", id="shear"),
        pytest.param(R3, ("x y", "z"), "x^3 y + x y^3 + z^2 + x y z", id="d3"),
        pytest.param(R3, ("x y", "z"), "x^2 y^2 + z^2", id="inf2"),
    ])
    def test_plain_codim_of_a_vanishing_theta_is_the_full_route(self, ring, gens, f, order):
        # every field of theta vanishes at the origin, so c_plain is c_ext;
        # the intersection with m * Theta must give the same quotient
        problem = GermProblem(P(f, ring), ideal(ring, order, *gens))
        assert not any(a.constant_term() for X in problem.theta.gens for a in X)
        tau = tangent.tangent_ideal(problem.f, tangent.theta_vanishing(problem.theta))
        full = stdbasis.subideal_preimage(problem.I, tau).quotient_dimension()
        assert problem.c_plain.value == full.value

    @pytest.mark.parametrize("order", [LOCAL_DS, GLOBAL_DP], ids=["ds", "dp"])
    @pytest.mark.parametrize("gens, f, c_ext, c_plain", [
        # I = (1): the Milnor number mu, and dim O/(m J_f) = mu + n
        pytest.param(("1",), "x^3 + y^2", 2, 4, id="unit-cusp"),
        pytest.param(("y",), "x^3 y + y^2", 2, 3, id="y"),
    ])
    def test_plain_codim_of_a_theta_with_a_unit_field(self, gens, f, c_ext, c_plain, order):
        # d/dx lies in theta, so theta_0 is smaller than theta
        problem = GermProblem(P(f), ideal(R2, order, *gens))
        assert (problem.c_ext.value, problem.c_plain.value) == (c_ext, c_plain)

    @pytest.mark.parametrize("order", [LOCAL_DS, GLOBAL_DP], ids=["ds", "dp"])
    def test_plain_codim_tests_no_membership_of_its_own(self, reduce_calls, order):
        # tau(f) lies in tau_e(f), which L checked against I: c_plain reduces
        # its four vanishing fields against theta's basis and L's three
        # generators against tau's, and nothing against I's
        problem = GermProblem(P("x^3 + y^2"), ideal(R2, order, "1"))
        assert problem.c_ext.value == 2
        reduce_calls[0] = 0
        assert problem.c_plain.value == 4
        assert reduce_calls == [7]

    def test_repeated_tangent_generator_is_tested_once(self, capsys, reduce_calls):
        # tau_e(f) of inf2 lists 2*x^2*y^2 twice, and L's precondition tests
        # each distinct generator against I once: 14 normal forms, not 15
        problem = GermProblem(P("x^2 y^2 + z^2", R3), ideal(R3, LOCAL_DS, "x y", "z"))
        assert [str(g) for g in problem.tau.gens].count("2*x^2*y^2") == 2
        reduce_calls[0] = 0
        assert main(["codim", os.path.join(CORPUS, "inf2.gf")]) == 0
        assert reduce_calls == [14]

    @pytest.mark.parametrize("order", [LOCAL_DS, GLOBAL_DP], ids=["ds", "dp"])
    def test_c_ext_bases_of_the_cusp(self, basis_calls, order):
        # I's basis for the membership of f; theta's elimination, whose
        # postcheck reads I's basis in each block; L's elimination and tau's
        # basis for its postcheck. Under dp the staircase of L reads the basis
        # that L's elimination computed, and under ds the truncated model decides
        problem = GermProblem(P("x^3 + y^2"), ideal(R2, order, "x^2", "y"))
        assert problem.c_ext.value == 3
        assert basis_calls == [1, 4, 3, 1]

    def test_milnor_number_via_unit_ideal(self):
        unit = ideal(R2, LOCAL_DS, "1")
        assert extended_codim(CUSP, unit).value == 2

    def test_not_member_rejected(self):
        with pytest.raises(GermforgeError) as ei:
            extended_codim(P("x"), EJEM)
        assert ei.value.code == "F_NOT_IN_IDEAL"

    def test_zero_function_infinite(self):
        assert not extended_codim(R2.zero(), EJEM).is_finite
        assert not plain_codim(R2.zero(), EJEM).is_finite

    def test_degenerate_member_infinite(self):
        # tau_e(x^2) = (x^2, xy) misses y and all its powers
        assert not extended_codim(P("x^2"), EJEM).is_finite

    def test_zero_codim_case(self):
        Iy = ideal(R2, LOCAL_DS, "y")
        assert extended_codim(P("x y"), Iy).value == 0

    def test_finiteness_agreement_sampled(self):
        germs = [CUSP, P("y^2 + x^4"), P("x^2 + y^2"), P("x^2"), R2.zero()]
        for f in germs:
            I = ideal(R2, LOCAL_DS, "x^2", "y") if EJEM.contains(f) else None
            if I is None:
                continue
            ce, cp = extended_codim(f, I), plain_codim(f, I)
            assert ce.is_finite == cp.is_finite
            if ce.is_finite:
                assert ce.value <= cp.value

    def test_perturbation_in_high_order_part_preserves_codim(self):
        det = determinacy_bound(CUSP, EJEM)
        # x^3 = x * x^2 lies in I and has degree det + 1
        g = CUSP + P("x^3")
        assert extended_codim(g, EJEM).value == 3
        assert determinacy_bound(g, EJEM) == det

    def test_tau_extended_regression(self):
        tau = GermProblem(CUSP, EJEM).tau
        expect = ideal(R2, LOCAL_DS, "x^3", "x^2 y", "y^2")
        assert tau.equals(expect)

    def test_dense_rational_perturbation(self):
        # a dense random combination over all degree-6 monomials once sent
        # the local engine into runaway coefficient growth; keep it fast
        import random
        from germforge.polyring import monomials_of_degree
        rng = random.Random(2214)
        bump = R2.zero()
        for j, mono in enumerate(monomials_of_degree(2, 6)):
            c = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            bump = bump + Poly(R2, {mono: c}) * EJEM.gens[j % 2]
        assert bump.truncate(5).is_zero()
        assert extended_codim(CUSP + bump, EJEM).value == 3


class TestClosedForms:
    """c_ext against closed forms of the Milnor number, with I = (1)."""

    @staticmethod
    def c_ext(text, ring):
        return GermProblem(parse_poly(text, ring), ideal(ring, LOCAL_DS, "1")).c_ext.value

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.lists(st.integers(2, 6), min_size=2, max_size=3))
    def test_brieskorn_pham(self, exponents):
        # Milnor 1968: mu(sum x_i^a_i) = prod (a_i - 1)
        ring = Ring(["x", "y", "z"][:len(exponents)])
        text = " + ".join(f"{v}^{a}" for v, a in zip(ring.names, exponents))
        assert self.c_ext(text, ring) == prod(a - 1 for a in exponents)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 6))
    @example(3, 3)  # E7, mu = 7
    @example(4, 2)  # D5 with x and y swapped, mu = 5
    def test_weighted_homogeneous_x_a_plus_x_y_b(self, a, b):
        # Milnor-Orlik 1970: weights 1/a and (a - 1)/(ab) give mu = ab - a + 1
        assert self.c_ext(f"x^{a} + x*y^{b}", R2) == a * b - a + 1

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4))
    def test_chain_type(self, a, b, c):
        # Milnor-Orlik 1970: mu = prod (1/w_i - 1), the weights solved back
        # from z^c, y^b z and x^a y all of weight 1
        w_z = Fraction(1, c)
        w_y = (1 - w_z) / b
        w_x = (1 - w_y) / a
        mu = prod(1 / w - 1 for w in (w_x, w_y, w_z))
        assert self.c_ext(f"x^{a}*y + y^{b}*z + z^{c}", R3) == mu

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4))
    def test_loop_type(self, a, b, c):
        # Milnor-Orlik 1970: mu(x^a y + y^b z + z^c x) = abc
        assert self.c_ext(f"x^{a}*y + y^{b}*z + z^{c}*x", R3) == a * b * c


class TestDeterminacy:
    def test_regression_bound(self):
        assert determinacy_bound(CUSP, EJEM) == 2

    def test_zero_codim_gives_zero(self):
        Iy = ideal(R2, LOCAL_DS, "y")
        assert determinacy_bound(P("x y"), Iy) == 0

    def test_infinite_codim_rejected(self):
        with pytest.raises(GermforgeError) as ei:
            determinacy_bound(P("x^2"), EJEM)
        assert ei.value.code == "NOT_FINITE_CODIM"

    def test_bound_le_codim(self):
        for s in ("y^2 + x^3", "y^2 + x^4", "y^2 + x^5"):
            f = P(s)
            c = extended_codim(f, EJEM)
            assert determinacy_bound(f, EJEM) <= c.value

    @pytest.mark.parametrize("names, gens, text, order, det", [
        pytest.param("x y", ("x^2", "y"), "y^2 + x^3", LOCAL_DS, 2, id="cusp"),
        # 1 + the largest witness degree is 3, so the cap climb runs
        pytest.param("x y", ("x^2", "y"), "x^7 + y^2 + x^3*y", LOCAL_DS, 4, id="j10"),
        pytest.param("x y z", ("x*y", "z"), "x^5*y + x*y^5 + z^2", LOCAL_DS, 7, id="fin3"),
        # global order: the climb starts at 4, the inclusion is still local
        pytest.param("x y", ("x^3", "y^2"), "x^6 + y^4 + x^3*y^2", GLOBAL_DP, 5, id="fin4"),
        # above the largest cap, 14, of the local quotient
        pytest.param("x y", ("1",), "x^12 + y^7", LOCAL_DS, 16, id="milnor127"),
    ])
    def test_bound_certifies_membership(self, names, gens, text, order, det):
        ring = Ring(names.split())
        I = Ideal(ring, [parse_poly(g, ring) for g in gens], order)
        problem = GermProblem(parse_poly(text, ring), I)
        assert problem.determinacy == det
        # local membership in tau, read from its own quotient rather than
        # from the model of I/tau
        tau = problem.tau.with_order(LOCAL_DS)

        def inside(m):
            return [tau.contains(h * g) for g in I.gens for h in power_ideal(ring, m).gens]

        assert all(inside(det))
        assert not all(inside(det - 1))

    @pytest.mark.parametrize("name", ["milnor85", "milnor127", "brieskorn543", "e8un"])
    def test_certified_degree_is_the_first_full_hilbert_samuel_step(self, name):
        # with I = (1), L is tau itself: the model's degree is the least m
        # with m^m inside tau, that is, with every degree-m monomial a lead,
        # which the Hilbert-Samuel function of tau counts in its step at m
        with open(os.path.join(CORPUS, f"{name}.gf"), encoding="utf-8") as fh:
            pf = parse_problem_file(fh.read())
        problem = GermProblem(pf.polys["f"], pf.ideals["I"])
        n, degree = problem.I.ring.n, problem.model.degree
        values = stdbasis.hilbert_samuel_values(problem.tau, degree)
        steps = [b - a for a, b in zip([0] + values, values)]
        assert [m for m, step in enumerate(steps) if step == comb(n + m - 1, m)][:1] == [degree]


class TestPositiveCodimLocus:
    def test_regression_origin_only(self):
        loc = positive_codim_locus(CUSP, EJEM)
        # the locus ideal cuts out only the origin
        assert loc.with_order(LOCAL_DS).quotient_dimension().is_finite
        assert not loc.is_unit()

    def test_everywhere_trivial_gives_unit(self):
        Iy = ideal(R2, LOCAL_DS, "y^2")
        assert positive_codim_locus(P("y^2"), Iy).is_unit()

    def test_zero_function_gives_zero_ideal(self):
        assert positive_codim_locus(R2.zero(), EJEM).gens == ()


class TestVersality:
    def test_manual_versal_unfolding(self):
        ext = R2.extend(["s1", "s2", "s3"])
        F = parse_poly("y^2 + x^3 + s1 x^2 + s2 y + s3 x y", ext)
        U = Unfolding(CUSP, F)
        assert versality_check(U, EJEM)

    def test_single_parameter_not_versal(self):
        ext = R2.extend(["s1"])
        F = parse_poly("y^2 + x^3 + s1 x^2", ext)
        U = Unfolding(CUSP, F)
        assert not versality_check(U, EJEM)

    def test_dropping_any_parameter_breaks_versality(self):
        U = build_versal_unfolding(CUSP, EJEM)
        ext = U.F.ring
        for drop in range(len(U.params)):
            keep = [i for i in range(len(U.params)) if i != drop]
            sub = R2.extend([U.params[i] for i in keep])
            images = [sub.var(nm) if nm in sub.index else sub.zero()
                      for nm in ext.names]
            F2 = U.F.substitute(images, sub)
            U2 = Unfolding(CUSP, F2)
            assert not versality_check(U2, EJEM)

    def test_trivial_unfolding_versal_when_codim_zero(self):
        Iy = ideal(R2, LOCAL_DS, "y")
        U = Unfolding(P("x y"), P("x y"))
        assert versality_check(U, Iy)

    def test_slice_leaving_ideal_rejected(self):
        ext = R2.extend(["s1"])
        F = parse_poly("y^2 + x^3 + s1 x", ext)
        U = Unfolding(CUSP, F)
        with pytest.raises(GermforgeError) as ei:
            versality_check(U, EJEM)
        assert ei.value.code == "F_NOT_UNFOLDING"

    def test_specialization_mismatch_rejected(self):
        ext = R2.extend(["s1"])
        F = parse_poly("y^2 + x^3 + x^2", ext)
        with pytest.raises(GermforgeError) as ei:
            Unfolding(CUSP, F)
        assert ei.value.code == "F_NOT_UNFOLDING"

    def test_extra_parameters_still_versal(self):
        ext = R2.extend(["s1", "s2", "s3", "s4"])
        F = parse_poly("y^2 + x^3 + s1 x^2 + s2 y + s3 x y + s4 y^2", ext)
        U = Unfolding(CUSP, F)
        assert versality_check(U, EJEM)

    def test_parameter_with_zero_derivative_at_the_origin(self):
        ext = R2.extend(["s1", "s2", "s3", "s4"])
        F = parse_poly("y^2 + x^3 + s1 x^2 + s2 y + s3 x y + s4^2 x^2", ext)
        U = Unfolding(CUSP, F)
        assert versality_check(U, EJEM)

    # a coefficient of F at a parameter monomial: (s1, s2 exponents, one
    # multiplier of each generator of I, a stray part that may leave I)
    TERMS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            st.integers(-3, 3), max_size=3)
    COEFFICIENT = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
                            st.lists(TERMS, min_size=2, max_size=2), TERMS)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from([("x^2", "y"), ("x*y", "y^3"), ("x^2 - y^3", "x*y^2")]),
           st.lists(COEFFICIENT, min_size=1, max_size=3))
    @example(("x^2", "y"), [((1, 0), [{(1, 0): 1}, {}], {})])
    @example(("x^2", "y"), [((1, 0), [{}, {}], {(1, 0): 1}), ((0, 1), [{}, {(0, 0): 2}], {})])
    def test_coefficientwise_check_against_the_extended_ring(self, gens, coefficients):
        # validate_unfolding asks each parameter coefficient of F for
        # membership in I; the reference asks F - f for membership in the
        # ideal that I generates in the extended ring
        I = ideal(R2, LOCAL_DS, *gens)
        ext = R2.extend(["s1", "s2"])
        base = [ext.var(0), ext.var(1)]
        F = CUSP.substitute(base, ext)
        for (a, b), multipliers, stray in coefficients:
            h = R2.sum([Poly(R2, t) * g for t, g in zip(multipliers, I.gens)] + [Poly(R2, stray)])
            F = F + ext.monomial((0, 0, a, b)) * h.substitute(base, ext)
        U = Unfolding(CUSP, F)
        I_ext = Ideal(ext, [g.substitute(base, ext) for g in I.gens], GLOBAL_DP)
        try:
            validate_unfolding(U, I)
            verdict = True
        except GermforgeError as e:
            assert e.code == "F_NOT_UNFOLDING"
            verdict = False
        assert verdict == I_ext.contains(F - CUSP.substitute(base, ext))

    def test_one_lift_per_parameter_coefficient(self, basis_calls, reduce_calls):
        # two parameter coefficients, x^2 at s1 and x y at s1^2 s2: one lift
        # each through I's lifter, the only basis built (rank 1 + 2); s2 has
        # no linear term, so its derivative has zero coordinates
        ext = R2.extend(["s1", "s2"])
        U = Unfolding(CUSP, parse_poly("y^2 + x^3 + s1 x^2 + s1^2 s2 x y", ext))
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        coords = validate_unfolding(U, I)
        assert [tuple(map(str, c)) for c in coords] == [("1", "0"), ("0", "0")]
        assert (basis_calls, reduce_calls) == ([3], [2])
        validate_unfolding(U, I)
        assert (basis_calls, reduce_calls) == ([3], [4])

    @pytest.mark.parametrize("command, name, calls", [
        ("versal-build", "cusp", 16),
        ("versal-build", "d3", 30),
        ("versal-build", "d4rel", 22),
        ("versal-build", "fin2", 32),
        ("versal-build", "milnor85", 34),
        ("versal-build", "j10", 21),
        ("versal-build", "e6", 20),
        ("versal-check", "cuspF", 16),
    ])
    def test_commands_decide_each_coefficient_once(self, capsys, reduce_calls,
                                                   command, name, calls):
        # is_versal reads the coordinates that validation lifted: with a
        # normal form against I's basis and a second lift of each linear
        # coefficient, these were 19, 39, 26, 42, 62, 27, 27 and 19
        assert main([command, os.path.join(CORPUS, f"{name}.gf")]) == 0
        assert reduce_calls == [calls]


class TestBuildVersal:
    def test_regression_construction(self):
        U = build_versal_unfolding(CUSP, EJEM)
        assert len(U.params) == 3
        derivs = {str(g) for g in derivatives(U, EJEM)}
        assert derivs == {"x^2", "y", "x*y"}
        assert versality_check(U, EJEM)

    def test_model_grows_past_the_witness_degrees(self):
        # j10: m^M O^k lies in L only for M above 1 + the largest witness
        # degree, so the versality model has to be deepened
        U = build_versal_unfolding(P("x^7 + y^2 + x^3 y"), EJEM)
        assert len(U.params) == 6
        assert versality_check(U, EJEM)

    def test_milnor127_beyond_the_caps(self):
        # mu = 66 and m^16 is the first power inside the Jacobian ideal
        unit = ideal(R2, LOCAL_DS, "1")
        f = P("x^12 + y^7")
        U = build_versal_unfolding(f, unit)
        assert len(U.params) == 66
        derivs = derivatives(U, unit)
        assert {str(derivs[i]) for i in (0, 65)} == {"1", "x^10*y^5"}
        assert versality_check(U, unit)
        ext = R2.extend(U.params[:-1])
        F = U.F.substitute([ext.var(nm) if nm in ext.index else ext.zero()
                            for nm in U.F.ring.names], ext)
        assert not versality_check(Unfolding(f, F), unit)

    @pytest.mark.parametrize("names, gens, f, params", [
        ("x y z", ["x y", "z"], "x^4 y + x y^4 + x y z + z^2", {"dp": 16, "ds": 13}),
        ("x y z", ["x^2", "y"], "x^5 + y z^4 + x^2 z^2 + y^2", {"dp": 24, "ds": 10}),
        ("x y", ["x^2", "y"], "x^7 + x^3 y + y^2", {"dp": 7, "ds": 6}),
    ])
    def test_global_cobasis_builds_a_versal_unfolding(self, names, gens, f, params):
        # under dp the cobasis is global, longer than the local quotient the
        # versality model counts; the longer family is still versal, while
        # the ds one is miniversal: dropping any parameter loses versality
        ring = Ring(names.split())
        f = parse_poly(f, ring)
        ideals = [Ideal(ring, [parse_poly(g, ring) for g in gens], order)
                  for order in (GLOBAL_DP, LOCAL_DS)]
        built = {I.order.kind: build_versal_unfolding(f, I) for I in ideals}
        assert {kind: len(U.params) for kind, U in built.items()} == params
        assert all(versality_check(U, I) for U in built.values() for I in ideals)
        U = built["ds"]
        for k in range(len(U.params)):
            keep = U.params[:k] + U.params[k + 1:]
            ext = ring.extend(keep)
            F = U.F.substitute([ext.var(nm) if nm in ext.index else ext.zero()
                                for nm in U.F.ring.names], ext)
            dropped = Unfolding(f, F)
            assert not any(versality_check(dropped, I) for I in ideals), U.params[k]

    def test_unit_ideal_cubic(self):
        R1 = Ring(["x"])
        I1 = Ideal(R1, [parse_poly("1", R1)], LOCAL_DS)
        f = parse_poly("x^3", R1)
        U = build_versal_unfolding(f, I1)
        assert len(U.params) == 2
        derivs = {str(g) for g in derivatives(U, I1)}
        assert derivs == {"1", "x"}

    def test_unit_ideal_cubic_quadratic_guess_fails(self):
        # the span {x, x^2} misses the class of 1 modulo (x^2)
        R1 = Ring(["x"])
        I1 = Ideal(R1, [parse_poly("1", R1)], LOCAL_DS)
        f = parse_poly("x^3", R1)
        ext = R1.extend(["s1", "s2"])
        F = parse_poly("x^3 + s1 x + s2 x^2", ext)
        U = Unfolding(f, F)
        assert not versality_check(U, I1)
        Fok = parse_poly("x^3 + s1 + s2 x", ext)
        assert versality_check(Unfolding(f, Fok), I1)

    def test_zero_codim_builds_trivial_family(self):
        Iy = ideal(R2, LOCAL_DS, "y")
        U = build_versal_unfolding(P("x y"), Iy)
        assert U.params == ()
        assert U.F == P("x y").substitute([U.F.ring.var(0), U.F.ring.var(1)], U.F.ring)

    def test_infinite_codim_rejected(self):
        with pytest.raises(GermforgeError) as ei:
            build_versal_unfolding(P("x^2"), EJEM)
        assert ei.value.code == "NOT_FINITE_CODIM"


R3Y = Ring(["x", "y1", "y2"])
J3Y = Ideal(R3Y, [parse_poly("y1", R3Y), parse_poly("y2", R3Y)], LOCAL_DS)


class TestDdk:
    def test_nondegenerate_quadratic(self):
        out = classify_Ddk(parse_poly("y1^2 + y2^2", R3Y), J3Y)
        assert out == DdkClass(1, 0, "IS_Ddk")

    def test_one_unit_one_linear(self):
        out = classify_Ddk(parse_poly("x y1^2 + y2^2", R3Y), J3Y)
        assert out == DdkClass(1, 1, "IS_Ddk")

    def test_off_diagonal_form_splits(self):
        Rb = Ring(["y1", "y2"])
        Jb = Ideal(Rb, [parse_poly("y1", Rb), parse_poly("y2", Rb)], LOCAL_DS)
        out = classify_Ddk(parse_poly("y1 y2", Rb), Jb)
        assert out == DdkClass(0, 0, "IS_Ddk")

    def test_generic_two_residuals(self):
        R5 = Ring(["x1", "x2", "x3", "y1", "y2"])
        J5 = Ideal(R5, [parse_poly("y1", R5), parse_poly("y2", R5)], LOCAL_DS)
        f = parse_poly("x1 y1^2 + x2 y1 y2 + x3 y2^2", R5)
        assert classify_Ddk(f, J5) == DdkClass(3, 2, "IS_Ddk")

    def test_dependent_residual_forms(self):
        R5 = Ring(["x1", "x2", "x3", "y1", "y2"])
        J5 = Ideal(R5, [parse_poly("y1", R5), parse_poly("y2", R5)], LOCAL_DS)
        f = parse_poly("x1 y1^2 + x1 y1 y2 + x1 y2^2", R5)
        assert classify_Ddk(f, J5) == DdkClass(3, 2, "NOT_Ddk")

    def test_quadratic_with_degenerate_direction(self):
        f = parse_poly("y1^2 + x^2 y2^2", R3Y)
        assert classify_Ddk(f, J3Y) == DdkClass(1, 1, "NOT_Ddk")

    def test_not_applicable_when_forms_cannot_fit(self):
        f = parse_poly("x y1^2 + x y2^2", R3Y)
        assert classify_Ddk(f, J3Y) == DdkClass(1, 2, "NOT_APPLICABLE")
        R1 = Ring(["y1"])
        J1 = Ideal(R1, [parse_poly("y1", R1)], LOCAL_DS)
        assert classify_Ddk(parse_poly("y1^3", R1), J1) == DdkClass(0, 1, "NOT_APPLICABLE")

    def test_off_diagonal_unit_then_split(self):
        R5 = Ring(["x1", "x2", "x3", "y1", "y2"])
        J5 = Ideal(R5, [parse_poly("y1", R5), parse_poly("y2", R5)], LOCAL_DS)
        f = parse_poly("y1 y2 + x1 y1^2", R5)
        assert classify_Ddk(f, J5) == DdkClass(3, 0, "IS_Ddk")

    @pytest.mark.parametrize("text, verdict", [
        # residual (1 - x1) - 1/(1 + x1) is 0 modulo m^2 only because the
        # pivot inverse keeps its linear part: 1/(1 + x1) = 1 - x1
        ("(1 + x1) y1^2 + 2 y1 y2 + (1 - x1) y2^2", "NOT_Ddk"),
        # residual (1 + x2) - 1/(1 + x1) is x1 + x2 modulo m^2
        ("(1 + x1) y1^2 + 2 y1 y2 + (1 + x2) y2^2", "IS_Ddk"),
    ])
    def test_pivot_inverse_linear_part(self, text, verdict):
        R4 = Ring(["x1", "x2", "y1", "y2"])
        J4 = Ideal(R4, [parse_poly("y1", R4), parse_poly("y2", R4)], LOCAL_DS)
        assert classify_Ddk(parse_poly(text, R4), J4) == DdkClass(2, 1, verdict)

    # seeded random germs with d, m <= 3, the y's generating J; each verdict
    # was computed by the classification that split every monomial of f into
    # y_i y_j and a residual by hand
    @pytest.mark.parametrize("names, f, verdict", [
        ("x1 x2 y1 y2", "3*x2*y1^2*y2 + 3*x2*y2^2 - 3*y1*y2^2 - y2^3 + y1^2", (2, 1, "IS_Ddk")),
        ("x1 x2 y1", "-3*x1*x2*y1^2 - 3*x2*y1^2 - y1^3 + 2*y1^2", (2, 0, "IS_Ddk")),
        ("x1 x2 y1 y2", "2*x1*y1^2*y2 - x2*y1^2*y2 - 2*x2*y1^2 + y1^2 + y1*y2 - 3*y2^2",
         (2, 0, "IS_Ddk")),
        ("x1 x2 x3 y1 y2", "-3*x3*y2^2 + y1^2", (3, 1, "IS_Ddk")),
        ("x1 x2 y1", "x2*y1^3 + 3*x1*y1^2 - 3*x2*y1^2 + y1^2", (2, 0, "IS_Ddk")),
        ("x1 x2 x3 y1", "x1*x3*y1^2 - 3*x3*y1^2", (3, 1, "IS_Ddk")),
        ("x1 x2 x3 y1 y2 y3", "y2*y3^2 - 3*y1^2", (3, 2, "NOT_Ddk")),
        ("x1 y1 y2 y3", "y1*y2*y3 - 3*y2*y3^2 - 3*y1*y2", (1, 1, "NOT_Ddk")),
        ("x1 x2 x3 y1 y2 y3", "2*x1*y1*y2 + 3*y2^2*y3 - 2*y2*y3^2 + 2*y1^2 + y3^2",
         (3, 1, "NOT_Ddk")),
        ("x1 x2 x3 y1 y2", "-2*x2*y1*y2^2 - x1*y1*y2", (3, 2, "NOT_Ddk")),
        ("x1 x2 y1 y2", "x1*y1*y2 - y1^2", (2, 1, "NOT_Ddk")),
        ("x1 x2 x3 y1 y2 y3", "3*y1^2*y3^2 + y1^2", (3, 2, "NOT_Ddk")),
        ("x1 y1 y2", "y1^3*y2 + 2*y1*y2^3 - y1^2*y2", (1, 2, "NOT_APPLICABLE")),
        ("x1 x2 x3 y1 y2 y3", "-3*x1*x2*y1*y3 - y3^3", (3, 3, "NOT_APPLICABLE")),
        ("x1 x2 y1 y2 y3", "x1*y1*y2 + 2*y2^2", (2, 2, "NOT_APPLICABLE")),
        ("x1 x2 y1 y2 y3", "x2^2*y2^2 - x2*y1^2 - 3*y1^2*y2", (2, 3, "NOT_APPLICABLE")),
        ("x1 y1 y2 y3", "x1*y1*y2^2 - 2*x1*y1*y3^2 + x1*y1 + y1*y3 - y3^2", "x1*y1"),
        ("x1 x2 x3 y1 y2 y3", "x1*x3*y1*y3 - 2*y1^2 - y1*y2 - 3*y1*y3 + x2", "x2"),
        ("y1 y2 y3", "y1*y2^2*y3 + 3*y2^3*y3 + y1^2*y3^2 - y1^3 + 2*y1*y2 + y2", "y2"),
        ("x1 y1", "-3*x1^2*y1^2 + y1^3 + 2*y1^2 + x1", "x1"),
    ])
    def test_pinned_verdicts(self, names, f, verdict):
        ring = Ring(names.split())
        J = Ideal(ring, [ring.var(i) for i, nm in enumerate(ring.names) if nm[0] == "y"],
                  LOCAL_DS)
        if isinstance(verdict, tuple):
            assert classify_Ddk(parse_poly(f, ring), J) == DdkClass(*verdict)
            return
        with pytest.raises(GermforgeError) as ei:
            classify_Ddk(parse_poly(f, ring), J)
        assert str(ei.value) == (f"F_NOT_IN_JSQUARED: term {verdict} has degree < 2 "
                                 "in the ideal variables")

    def test_non_adapted_rejected(self):
        with pytest.raises(GermforgeError) as ei:
            classify_Ddk(parse_poly("y1^2", R3Y),
                         Ideal(R3Y, [parse_poly("y1 + x", R3Y)], LOCAL_DS))
        assert ei.value.code == "NON_ADAPTED_COORDINATES"
        with pytest.raises(GermforgeError) as ei:
            classify_Ddk(parse_poly("y1^2", R3Y),
                         Ideal(R3Y, [parse_poly("y1", R3Y), parse_poly("y1", R3Y)], LOCAL_DS))
        assert ei.value.code == "NON_ADAPTED_COORDINATES"

    def test_scaled_generators_are_adapted(self):
        # c * y_i with c != 0 generates the ideal y_i does
        f = parse_poly("x y1^2 + y2^2", R3Y)
        for gens in (("2*y1", "y2"), ("-1/3*y1", "5*y2")):
            J = Ideal(R3Y, [parse_poly(g, R3Y) for g in gens], LOCAL_DS)
            assert classify_Ddk(f, J) == DdkClass(1, 1, "IS_Ddk")

    def test_low_order_term_rejected(self):
        with pytest.raises(GermforgeError) as ei:
            classify_Ddk(parse_poly("y1^2 + x", R3Y), J3Y)
        assert ei.value.code == "F_NOT_IN_JSQUARED"

    def test_coordinate_scaling_invariance(self):
        # rescaling a residual variable changes nothing structural
        f = parse_poly("x y1^2 + y2^2", R3Y)
        g = parse_poly("4 x y1^2 + 9 y2^2", R3Y)
        assert classify_Ddk(f, J3Y) == classify_Ddk(g, J3Y)


SMALL = st.sampled_from([0, 0, 0, 1, -1, 2])


@st.composite
def gram_forms(draw):
    """(d, m, f): f in J^2 for J = (y_1..y_m) over d transverse variables x.
    The constant Gram matrix is a sum of squares of small linear forms in y,
    plus maybe one y_i y_j, whose diagonal is zero; each y_i y_j gets a
    small linear coefficient, and some terms of higher order are added."""
    d, m = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    ring = Ring([f"x{i + 1}" for i in range(d)] + [f"y{i + 1}" for i in range(m)])
    x, y = [ring.var(i) for i in range(d)], [ring.var(d + i) for i in range(m)]
    pick = st.integers(0, m - 1)
    parts = []
    for _ in range(draw(st.integers(0, m))):
        v = ring.sum([y[i] * draw(SMALL) for i in range(m)])
        parts.append(v * v * draw(st.sampled_from([1, -1, 3])))
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(pick, min_size=2, max_size=2, unique=True))
        parts.append(y[i] * y[j])
    for i in range(m):
        for j in range(i, m):
            parts.append(ring.sum([x[l] * draw(SMALL) for l in range(d)]) * y[i] * y[j])
    if d and draw(st.booleans()):
        parts.append(x[draw(st.integers(0, d - 1))] ** 2 * y[draw(pick)] * y[draw(pick)])
    if draw(st.booleans()):
        parts.append(y[draw(pick)] * y[draw(pick)] * y[draw(pick)])
    return d, m, ring.sum(parts)


def _example(names, text):
    ring = Ring(names.split())
    d = sum(1 for nm in ring.names if nm[0] == "x")
    return d, ring.n - d, parse_poly(text, ring)


class TestDdkOracle:
    """classify_Ddk against sympy: k is the nullity of the constant Gram
    matrix H0 from sympy's nullspace, and the verdict the rank of the entries
    of K^T H1 K, H1 the linear part of the Gram matrix and K that kernel."""

    @staticmethod
    def verdict(d, m, f):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols(f.ring.names)
        xs, ys = symbols[:d], symbols[d:]
        expr = to_sympy(f, symbols)
        H = sympy.Matrix(m, m, lambda i, j: sympy.diff(expr, ys[i], ys[j])
                         .subs({s: 0 for s in ys}) / 2)
        origin = {s: 0 for s in xs}
        kernel = H.subs(origin).nullspace()
        k = len(kernel)
        if k == 0:
            return DdkClass(d, 0, "IS_Ddk")
        needed = k * (k + 1) // 2
        if needed > d:
            return DdkClass(d, k, "NOT_APPLICABLE")
        K = sympy.Matrix.hstack(*kernel)
        slopes = [K.T * H.diff(s).subs(origin) * K for s in xs]
        rank = sympy.Matrix([[S[a, b] for S in slopes]
                             for a in range(k) for b in range(a, k)]).rank()
        return DdkClass(d, k, "IS_Ddk" if rank == needed else "NOT_Ddk")

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(gram_forms())
    # zero diagonals: y1 y2 is a unit block, one residual square
    @example(_example("x1 y1 y2 y3", "y1*y2 + x1*y3^2"))
    @example(_example("x1 x2 y1 y2", "y1*y2 + x1*y1^2 + x2*y2^2"))
    # k = 2 with three independent entries
    @example(_example("x1 x2 x3 y1 y2 y3", "y3^2 + x1*y1^2 + x2*y1*y2 + x3*y2^2"))
    @example(_example("x1 x2 x3 y1 y2 y3 y4",
                      "y3*y4 + x1*y1^2 + x2*y1*y2 + (x3 + x1)*y2^2 + y2*y3^2"))
    def test_verdict_matches_sympy(self, form):
        d, m, f = form
        J = Ideal(f.ring, [f.ring.var(d + i) for i in range(m)], LOCAL_DS)
        assert classify_Ddk(f, J) == self.verdict(d, m, f)


class TestReport:
    # the codim document reads one GermProblem: c_ext, c_plain, the
    # determinacy when c_ext is finite, and the cobasis
    @staticmethod
    def results(tmp_path, capsys, f):
        path = tmp_path / "problem.gf"
        path.write_text(f"ring x y ;\nideal I = x^2, y ;\npoly f = {f} ;\n")
        assert main(["codim", str(path)]) == 0
        out = capsys.readouterr().out
        return out[out.index("results:"):out.index("warnings:")].splitlines()[1:]

    def test_bundle_matches_parts(self, tmp_path, capsys):
        problem = GermProblem(CUSP, EJEM)
        assert (problem.c_ext.value, problem.c_plain.value, problem.determinacy) == (3, 3, 2)
        assert {str(b) for b in problem.cobasis} == {"x^2", "y", "x*y"}
        assert self.results(tmp_path, capsys, "x^3 + y^2") == [
            "  c_ext: 3", "  c_plain: 3", "  determinacy: 2", "  basis:"] + [
            f"    - {b}" for b in problem.cobasis]

    def test_infinite_case_has_no_determinacy(self, tmp_path, capsys):
        problem = GermProblem(P("x^2"), EJEM)
        assert not problem.c_ext.is_finite and not problem.c_plain.is_finite
        with pytest.raises(GermforgeError) as e:
            problem.determinacy
        assert e.value.code == "NOT_FINITE_CODIM"
        assert self.results(tmp_path, capsys, "x^2") == [
            f"  c_ext: {problem.c_ext}", f"  c_plain: {problem.c_plain}"]

    def test_plain_codim_checks_finiteness_against_c_ext(self):
        # (y) is preserved by d/dx, which takes x*y^2 to y^2, a generator
        # that no field vanishing at the origin gives: the two tangent
        # ideals differ, so c_plain runs its own preimage; a finite c_ext
        # against its infinite value is an internal error
        problem = GermProblem(P("x*y^2"), ideal(R2, LOCAL_DS, "y"))
        assert not problem.c_ext.is_finite
        problem.c_ext = QuotientDim(1)
        with pytest.raises(AssertionError, match="finiteness of the two codimensions"):
            problem.c_plain


def _rebind(monkeypatch, real, counted):
    """Replace the function real by counted in every germforge namespace
    that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "germforge" or name.startswith("germforge."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)


class TestGermProblem:
    @pytest.fixture
    def theta_orders(self, monkeypatch):
        """Order kinds of the ideals theta_preserving is computed for."""
        real = tangent.theta_preserving
        kinds = []

        def counted(I):
            kinds.append(I.order.kind)
            return real(I)

        _rebind(monkeypatch, real, counted)
        return kinds

    def test_report_computes_theta_once(self, theta_orders):
        problem = GermProblem(CUSP, EJEM)
        assert (problem.c_ext.value, problem.c_plain.value, problem.determinacy) == (3, 3, 2)
        assert len(problem.cobasis) == 3
        assert theta_orders == ["ds"]

    def test_splitting_computes_theta_once(self, theta_orders):
        # each deformed member is a problem whose theta is the dp view of
        # this problem's theta
        assert splitting(GermProblem(CUSP, EJEM)).morse == 2
        assert theta_orders == ["ds"]

    def test_morse_both_methods_share_one_problem(self, theta_orders, tmp_path, capsys):
        path = tmp_path / "cusp.gf"
        path.write_text("ring x y ;\nideal I = x^2, y ;\npoly f = x^3 + y^2 ;\n")
        assert main(["morse", str(path), "--method", "both", "--assume-reduced"]) == 0
        out = capsys.readouterr().out
        assert "morse_jet: 2" in out and "morse_oracle: 2" in out
        assert theta_orders == ["ds"]

    @pytest.mark.parametrize("ring, gens, f", [
        pytest.param(R2, ("x^2", "y"), "x^3 + y^2", id="cusp"),
        pytest.param(R2, ("x^2", "y + x^2"), "x^3 + y^2 + 2 x^2 y + x^4", id="shear"),
        pytest.param(R2, ("x^2", "y"), "x^5 + y^2", id="a4rel"),
        pytest.param(R3, ("x y", "z"), "x^2 y + x y^2 + z^2", id="d4rel"),
    ])
    @pytest.mark.parametrize("point", [(1, -1, 2), (Fraction(-1, 2), 3, Fraction(2, 3))],
                             ids=["integral", "rational"])
    def test_moved_problem_against_a_fresh_one(self, ring, gens, f, point):
        # the germ centred at the point, its module L moved back by
        # Submodule.at, against a problem that computes its own theta, tau
        # and L on the translated f and I
        point = point[:ring.n]
        away = [-c for c in point]
        base = GermProblem(P(f, ring), ideal(ring, LOCAL_DS, *gens))
        to_away = [ring.var(i) + c for i, c in enumerate(away)]
        to_point = [ring.var(i) + c for i, c in enumerate(point)]
        centred = GermProblem(base.f.substitute(to_away),
                              Ideal(ring, [g.substitute(to_away) for g in base.I.gens], LOCAL_DS))
        fresh = GermProblem(centred.f.substitute(to_point),
                            Ideal(ring, [g.substitute(to_point) for g in centred.I.gens],
                                  LOCAL_DS))
        assert centred.L.at(point).quotient_dimension() == fresh.c_ext == base.c_ext
        assert base.c_ext.value > 0

    @pytest.fixture
    def model_calls(self, monkeypatch):
        """The caps of every truncated_model call."""
        real = stdbasis.truncated_model
        calls = []

        def counted(gens, ring, rank, caps):
            calls.append(caps)
            return real(gens, ring, rank, caps)

        _rebind(monkeypatch, real, counted)
        return calls

    @pytest.mark.parametrize("text, determinacy, calls", [
        pytest.param("ring x y z ;\nideal I = x*y, z ;\npoly f = x^5*y + x*y^5 + z^2 ;\n",
                     7, 2, id="fin3"),
        pytest.param("ring x y ;\nideal I = 1 ;\npoly f = x^12 + y^7 ;\n", 16, 4,
                     id="milnor127"),
    ])
    def test_codim_builds_no_model_of_its_own(self, model_calls, text, determinacy, calls,
                                              tmp_path, capsys):
        # c_ext tries cap 4 and then climbs. c_plain does the same, unless
        # every field of theta vanishes at the origin (fin3), when it is
        # c_ext. determinacy reads the model that certified c_ext, so it adds
        # no call
        path = tmp_path / "problem.gf"
        path.write_text(text)
        assert main(["codim", str(path)]) == 0
        assert f"determinacy: {determinacy}\n" in capsys.readouterr().out
        assert len(model_calls) == calls

    @pytest.mark.parametrize("ring, gens, f, degree", [
        pytest.param(R2, ("x^2", "y"), "x^3 + y^2", 2, id="cusp"),
        pytest.param(R3, ("x y", "z"), "x^3 y + x y^3 + z^2 + x y z", 3, id="d3"),
        pytest.param(R3, ("x^2", "y"), "x^5 + y^2 + x^2 z^2 + y z^4", 5, id="fin2"),
        pytest.param(R2, ("x^2", "y"), "x^7 + y^2 + x^3 y", 4, id="j10"),
    ])
    def test_model_is_the_local_model_of_L_in_both_orders(self, ring, gens, f, degree):
        ds, dp = (GermProblem(P(f, ring), ideal(ring, order, *gens))
                  for order in (LOCAL_DS, GLOBAL_DP))
        assert ds.model is ds.L._model
        assert ds.model.degree == degree
        assert (dp.model.degree, dp.model.labels, dp.model.basis.rows) == \
            (ds.model.degree, ds.model.labels, ds.model.basis.rows)
