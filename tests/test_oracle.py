import itertools
import math
import os
import signal
import sys
from fractions import Fraction

import pytest

from germforge.cli import parse_problem_file
from germforge.errors import GermforgeError
from germforge.polyring import GLOBAL_DP, LOCAL_DS, Ring, parse_poly
from germforge.stdbasis import Ideal, Submodule, minimal_polynomial, saturation, squarefree_part
from germforge.invariants import GermProblem, extended_codim
from germforge.jetmorse import jet_morse_number
from germforge.tangent import primitive_ideal
import germforge.oracle as oracle
import germforge.tangent as tangent
from germforge.invariants import classify_Ddk
from germforge.oracle import (
    TRIAL_SEEDS,
    XorShift64,
    conservation_check,
    corrected_extended_codim,
    critical_points_outside,
    hessian_det,
    point_lengths,
    random_deformation,
    splitting,
)

from helpers import evalp, to_sympy

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "corpus")
R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])
R1 = Ring(["x"])


def P(s, ring=R2):
    return parse_poly(s, ring)


def ideal(ring, order, *gens):
    return Ideal(ring, [parse_poly(g, ring) for g in gens], order)


EJEM = ideal(R2, LOCAL_DS, "x^2", "y")
CUSP = P("y^2 + x^3")
UNIT2 = ideal(R2, LOCAL_DS, "1")
UNIT1 = Ideal(R1, [parse_poly("1", R1)], LOCAL_DS)


def cusp_problem():
    return GermProblem(CUSP, EJEM)


class TestRng:
    def test_stream_regression(self):
        rng = XorShift64(11)
        first = [rng.rational() for _ in range(4)]
        rng2 = XorShift64(11)
        assert [rng2.rational() for _ in range(4)] == first

    def test_bounded_rationals(self):
        rng = XorShift64(7)
        for _ in range(200):
            q = rng.rational()
            assert 1 <= abs(q.numerator) <= 13
            assert 1 <= q.denominator <= 13

    def test_zero_seed_does_not_stall(self):
        rng = XorShift64(0x9E3779B97F4A7C15)  # xor collapses to zero state
        assert rng.next_u64() != 0


class TestRandomDeformation:
    def test_deterministic_and_seed_sensitive(self):
        a = random_deformation(cusp_problem(), seed=11)
        b = random_deformation(cusp_problem(), seed=11)
        c = random_deformation(cusp_problem(), seed=13)
        assert a.terms == b.terms
        assert a.terms != c.terms

    def test_difference_stays_in_ideal(self):
        for seed in (11, 13, 17):
            g = random_deformation(cusp_problem(), seed=seed)
            assert EJEM.with_order(GLOBAL_DP).normal_form(g - CUSP).is_zero()

    def test_spans_the_whole_cobasis(self):
        g = random_deformation(cusp_problem(), seed=11)
        diff = g - CUSP
        assert set(diff.terms) == {(2, 0), (0, 1), (1, 1)}

    def test_degree_bound_truncates(self):
        g = random_deformation(cusp_problem(), degree_bound=1, seed=11)
        assert set((g - CUSP).terms) == {(0, 1)}

    def test_bound_below_every_cobasis_degree_refused(self):
        # the cobasis x^2*y, x^3*y has degrees 3 and 4: a bound of 2 keeps
        # neither, so the member drawn would be f itself
        problem = GermProblem(P("x^4*y + x^2*y^2"), ideal(R2, LOCAL_DS, "x^2*y"))
        with pytest.raises(GermforgeError) as e:
            random_deformation(problem, degree_bound=2, seed=11)
        assert str(e.value) == ("PRECONDITION_VIOLATED: degree bound 2 keeps no cobasis "
                                "element, the least of which has degree 3")
        assert random_deformation(problem, degree_bound=3, seed=11) != problem.f

    def test_zero_codimension_returns_f(self):
        f = P("x*y")
        I = ideal(R2, LOCAL_DS, "y")
        assert random_deformation(GermProblem(f, I), seed=11).terms == f.terms

    def test_infinite_codimension_rejected(self):
        with pytest.raises(GermforgeError) as e:
            random_deformation(GermProblem(P("x^2"), EJEM), seed=11)
        assert e.value.code == "NOT_FINITE_CODIM"


class TestCriticalPoints:
    def test_hand_picked_member(self):
        # g = y^2 + sy + x^3 + tx^2 at s=1/7, t=1/11: gradient vanishes at
        # x in {0, -2t/3}, y = -s/2, both nondegenerate
        g = CUSP + P("y") * Fraction(1, 7) + P("x^2") * Fraction(1, 11)
        rep = critical_points_outside(g, EJEM)
        assert rep.count == 2
        assert rep.all_morse

    def test_hand_picked_points_annihilate_saturation(self):
        s, t = Fraction(1, 7), Fraction(1, 11)
        g = CUSP + P("y") * s + P("x^2") * t
        pts = [(Fraction(0), -s / 2), (-2 * t / 3, -s / 2)]
        for gen in critical_points_outside(g, EJEM).sat_ideal.gens:
            for pt in pts:
                assert evalp(gen, pt) == 0

    def test_undeformed_cusp_has_no_outside_critical_points(self):
        rep = critical_points_outside(CUSP, EJEM)
        assert rep.count == 0
        assert rep.sat_ideal.is_unit()

    def test_unit_ideal_short_circuit_counts_everything(self):
        assert critical_points_outside(P("x^2 + y^2"), UNIT2).count == 1

    def test_positive_dimensional_critical_locus(self):
        with pytest.raises(GermforgeError) as e:
            critical_points_outside(P("x^2"), ideal(R2, LOCAL_DS, "x^2", "y"))
        assert e.value.code == "POSITIVE_DIMENSIONAL_CRITICAL_LOCUS"

    def test_degenerate_point_fails_morse_certificate(self):
        # x^3 has a non-Morse critical point at the origin, off V(x-1)
        rep = critical_points_outside(P("x^3", R1), Ideal(R1, [P("x - 1", R1)], LOCAL_DS))
        assert rep.count == 2
        assert not rep.all_morse

    def test_hessian_det_regression(self):
        h = hessian_det(P("x^2*y + y^3"))
        assert h.terms == P("12*y^2 - 4*x^2").terms


class TestCorrectedCodim:
    def test_matches_local_value_at_origin_only_germ(self):
        assert corrected_extended_codim(cusp_problem().member(CUSP), 11) == 3

    def test_generic_member_drops_to_two(self):
        problem = cusp_problem()
        g = random_deformation(problem, seed=11)
        assert corrected_extended_codim(problem.member(g), 11) == 2

    def test_member_in_the_ideal_only_at_the_origin(self):
        # x^2 + y^2 lies in (x - x^2, y) at the origin only, and so does each
        # deformed member: neither is refused for missing the global ideal
        I = ideal(R2, LOCAL_DS, "x - x^2", "y")
        f = P("x^2 + y^2")
        assert not I.with_order(GLOBAL_DP).contains(f)
        problem = GermProblem(f, I)
        assert corrected_extended_codim(problem.member(f), 11) == 2
        g = random_deformation(problem, seed=11)
        assert corrected_extended_codim(problem.member(g), 11) == 1

    def test_positive_dimensional_defect_rejected(self):
        f = P("y^2")
        with pytest.raises(GermforgeError) as e:
            corrected_extended_codim(GermProblem(f, ideal(R2, LOCAL_DS, "y")).member(f), 11)
        assert e.value.code == "GENERICITY_SUSPECT"


class TestPointLengths:
    # how many points of each length a finite quotient has, read from the
    # characteristic polynomial of one linear form: every point is counted,
    # rational or not, and none is located
    @pytest.mark.parametrize("gens, sigma", [
        (("x^2 - 1", "y - 2*x"), {1: 2}),
        (("x^2 - 2*x + 1", "y"), {2: 1}),
        (("x^3 - x^2", "y"), {2: 1, 1: 1}),
        (("x^2 - 2", "y"), {1: 2}),
        # x(x^2 - 2) = 0 has one rational and two irrational roots
        (("x^3 - 2*x", "y"), {1: 3}),
        # every x is rational, but no y is
        (("x^2 - 1", "y^2 - 2"), {1: 4}),
        (("x^4 - 4*x^2 + 4", "y"), {2: 2}),
        # x + y is 0 at both points, x + 2 y separates them
        (("x^2 - 1", "x + y"), {1: 2}),
        (("2*x - 1", "3*y + 2"), {1: 1}),
        (("1",), {}),
        (("x^2 - %d" % (2 ** 31 - 1) ** 2, "y"), {1: 2}),
    ], ids=["two-simple", "fat", "fat-and-simple", "irrational", "mixed", "irrational-y",
            "irrational-fat", "unseparated-first-form", "denominators", "unit", "large"])
    def test_lengths_of_a_zero_dimensional_ideal(self, gens, sigma):
        J = ideal(R2, GLOBAL_DP, *gens)
        assert point_lengths(Submodule(R2, 1, [(g,) for g in J.gens], GLOBAL_DP), J) == sigma

    def test_positive_dimensional_refused(self):
        J = ideal(R2, GLOBAL_DP, "x")
        with pytest.raises(GermforgeError) as e:
            point_lengths(Submodule(R2, 1, [(g,) for g in J.gens], GLOBAL_DP), J)
        assert e.value.code == "NOT_ZERO_DIMENSIONAL"

    @pytest.mark.parametrize("ring, gens, f, bound, seed", [
        pytest.param(R2, ("x", "y"), "x^3 + y^2", None, 11, id="cusp"),
        pytest.param(R2, ("x - x^2", "y"), "x^3 - x^4 + y^2", 1, 11, id="fat-point"),
        pytest.param(R2, ("x^2 - x^3", "y"), "x^4 - 2 x^5 + x^6 + y^2", 1, 13,
                     id="three-points"),
        pytest.param(R3, ("x - x^2", "y", "z"), "x^3 - x^4 + y^2 + z^2", 1, 39,
                     id="fat-point3"),
    ])
    def test_charpoly_and_lengths_against_sympy(self, ring, gens, f, bound, seed):
        # the characteristic polynomial of x_1 + ... + x_n on a member's
        # quotient and its squarefree factorisation, both from sympy; the
        # form separates these members' points, so the factors' degrees
        # by multiplicity are the point lengths
        sympy = pytest.importorskip("sympy")
        problem = GermProblem(P(f, ring), ideal(ring, LOCAL_DS, *gens))
        member = problem.member(random_deformation(problem, bound, seed))
        matrices = oracle._multiplication_matrices(member.L)
        size = range(len(matrices[0]))
        A = [[sum(M[r][j] for M in matrices) for j in size] for r in size]
        t, T = sympy.Symbol("t"), Ring(["t"])
        chi = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in row]
                            for row in A]).charpoly(t).as_expr()
        assert sympy.expand(chi - to_sympy(oracle._charpoly(A, T), [t])) == 0
        sigma = {}
        for factor, k in sympy.sqf_list(chi, t)[1]:
            sigma[k] = sigma.get(k, 0) + sympy.degree(factor, t)
        assert point_lengths(member.L, member.locus()) == sigma
        assert sum(k * cnt for k, cnt in sigma.items()) == member.c_ext.value


class TestLocalCodim:
    # the codimension at a point, read at the origin once the germ and the
    # ideal are translated there; the lengths that split reads from a
    # member's quotient are checked against it
    @staticmethod
    def codim_at(g, I, point):
        shift = [g.ring.var(i) + c for i, c in enumerate(point)]
        moved = Ideal(g.ring, [h.substitute(shift) for h in I.gens], LOCAL_DS)
        return GermProblem(g.substitute(shift), moved, check=False).c_ext.value

    def test_translation_to_origin_is_identity(self):
        assert self.codim_at(CUSP, EJEM, (Fraction(0), Fraction(0))) == 3

    def test_morse_point_off_the_zero_set(self):
        # x^2+y^2 relative to the unit ideal at its critical point
        assert self.codim_at(P("x^2 + y^2"), UNIT2, (Fraction(0), Fraction(0))) == 1

    def test_smooth_point_has_zero_codimension(self):
        assert self.codim_at(P("x^2 + y^2"), UNIT2, (Fraction(1), Fraction(1))) == 0

    @pytest.mark.parametrize("ring, gens, f, bound, points", [
        pytest.param(R2, ("x", "y"), "x^3 + y^2", None,
                     {39: ["-1/5 1/2", "5/3 1/2"]}, id="cusp"),
        pytest.param(R2, ("x - x^2", "y"), "x^2 + y^2", None,
                     {11: ["2/9 -1/2"], 13: ["4/15 -11/20"], 39: ["1/4 11/10"]},
                     id="origin-only"),
        pytest.param(R2, ("x - x^2", "y"), "x^3 - x^4 + y^2", 1,
                     {11: ["0 2/5", "3/4 2/5"], 13: ["0 4/7", "3/4 4/7"],
                      39: ["0 1/2", "3/4 1/2"]}, id="fat-point"),
        pytest.param(R2, ("x^2 - x^3", "y"), "x^4 - 2 x^5 + x^6 + y^2", 1,
                     {11: ["0 2/5", "2/3 2/5", "1 2/5"], 13: ["0 4/7", "2/3 4/7", "1 4/7"],
                      39: ["0 1/2", "2/3 1/2", "1 1/2"]}, id="three-points"),
        pytest.param(R3, ("x", "y", "z"), "x^3 + y^2 + z^2", None,
                     {39: ["-1/5 1/2 3/8", "5/3 1/2 3/8"]}, id="cusp3"),
        pytest.param(R3, ("x - x^2", "y", "z"), "x^3 - x^4 + y^2 + z^2", 1,
                     {11: ["0 2/5 -1/2", "3/4 2/5 -1/2"], 13: ["0 4/7 -11/20", "3/4 4/7 -11/20"],
                      39: ["0 1/2 11/10", "3/4 1/2 11/10"]}, id="fat-point3"),
    ])
    def test_moved_member_module_against_a_fresh_problem(self, ring, gens, f, bound, points):
        # the members at the seeds whose defect points are all rational,
        # those points written out: the problem of the member and the ideal
        # translated to each point computes its own theta, tau and L, and
        # the lengths read there at the origin are the member's sigma
        problem = GermProblem(P(f, ring), ideal(ring, LOCAL_DS, *gens))
        for seed, located in points.items():
            member = problem.member(random_deformation(problem, bound, seed))
            lengths = [self.codim_at(member.f, problem.I, [Fraction(c) for c in pt.split()])
                       for pt in located]
            assert 0 not in lengths
            assert sum(lengths) == member.c_ext.value
            assert point_lengths(member.L, member.locus()) == {
                k: lengths.count(k) for k in lengths}


class TestEmpiricalSplitting:
    def test_regression_germ_report(self):
        rep = splitting(GermProblem(CUSP, EJEM))
        assert rep.sigma == {1: 2}
        assert rep.corrected == 2
        assert rep.morse == 2
        assert rep.stable
        assert rep.seeds == (11, 13)
        assert rep.warnings == ("GLOBAL_COUNT", "GENERICITY_SAMPLED")

    def test_corrected_strictly_below_codimension(self):
        rep = splitting(GermProblem(CUSP, EJEM))
        assert rep.corrected < extended_codim(CUSP, EJEM).value

    def test_classical_one_variable_morsification(self):
        rep = splitting(GermProblem(P("x^3", R1), UNIT1))
        assert rep.sigma == {1: 2}
        assert rep.corrected == 2
        assert rep.morse == 2

    def test_zero_codimension_all_zero_report(self):
        rep = splitting(GermProblem(P("x*y"), ideal(R2, LOCAL_DS, "y")))
        assert rep.sigma == {}
        assert rep.corrected == 0
        assert rep.morse == 0
        assert rep.stable

    def test_sigma_weighted_by_k_bounded_by_codimension(self):
        for f, I in ((CUSP, EJEM), (P("x^3", R1), UNIT1), (P("x^4", R1), UNIT1)):
            c = extended_codim(f, I).value
            rep = splitting(GermProblem(f, I))
            assert sum(k * cnt for k, cnt in rep.sigma.items()) <= c
            assert rep.corrected <= c

    def test_truncated_family_is_flagged(self):
        with pytest.raises(GermforgeError) as e:
            splitting(GermProblem(CUSP, EJEM), degree_bound=1)
        assert e.value.code == "GENERICITY_SUSPECT"

    def test_one_deformation_per_seed_without_a_bound(self, monkeypatch):
        # with no degree bound the whole cobasis is in, so the drift probe
        # would redraw the same member: it runs only under a bound
        import germforge.oracle as oracle
        calls = []

        def counted(P, degree_bound, seed):
            calls.append((degree_bound, seed))
            return random_deformation(P, degree_bound, seed)

        monkeypatch.setattr(oracle, "random_deformation", counted)
        assert splitting(GermProblem(CUSP, EJEM)).sigma == {1: 2}
        assert calls == [(None, 11), (None, 13)]

    def test_located_points_tally_to_the_defect_mass(self, monkeypatch):
        # no corpus case has a defect mass above the Morse count, so the
        # critical count is lowered to force sigma to be read from the
        # member's quotient; at seeds 11 and 13 the defect points of the
        # cusp in the maximal ideal are irrational. The member shares the
        # problem's theta, so no dp theta is computed.
        real_critical, real_lengths, real_theta = (
            oracle.critical_points_outside, oracle.point_lengths, tangent.theta_preserving)
        read, theta_orders = [], []

        def lengths(L, support):
            # each point's x is a root of a quadratic with no rational root
            x_part = squarefree_part(minimal_polynomial(support, 0), 0)
            assert x_part.total_degree() == 2
            c, b = (x_part.terms.get((k, 0), 0) for k in (0, 1))
            disc = b * b - 4 * c
            assert disc < 0 or not all(math.isqrt(v) ** 2 == v
                                       for v in (disc.numerator, disc.denominator))
            read.append(real_lengths(L, support))
            return read[-1]

        def theta(I):
            theta_orders.append(I.order.kind)
            return real_theta(I)

        monkeypatch.setattr(oracle, "critical_points_outside",
                            lambda g, I: real_critical(g, I)._replace(count=0))
        monkeypatch.setattr(oracle, "point_lengths", lengths)
        for name, module in list(sys.modules.items()):
            if name.startswith("germforge"):
                for attr, value in list(vars(module).items()):
                    if value is real_theta:
                        monkeypatch.setattr(module, attr, theta)
        rep = splitting(GermProblem(CUSP, ideal(R2, LOCAL_DS, "x", "y")), seeds=(11, 13))
        assert read == [{1: 2}, {1: 2}]
        assert (rep.sigma, rep.corrected, rep.morse) == ({1: 2}, 2, 0)
        assert sum(k * cnt for k, cnt in rep.sigma.items()) == rep.corrected
        assert rep.warnings == ("GLOBAL_COUNT", "GENERICITY_SAMPLED")
        assert theta_orders == ["ds"]

    def test_germ_in_the_ideal_only_at_the_origin(self):
        # the members f + sum h_i g_i miss the global ideal as f does, and
        # split on as members of the local one
        I = ideal(R2, LOCAL_DS, "x - x^2", "y")
        rep = splitting(GermProblem(P("x^2 + y^2"), I))
        assert (rep.sigma, rep.corrected, rep.morse) == ({1: 1}, 1, 1)
        assert splitting(GermProblem(P("x^2 + y^2"), I)).morse == 1

    def test_explicit_seeds_recorded(self):
        rep = splitting(GermProblem(CUSP, EJEM), seeds=(17, 19))
        assert rep.seeds == (17, 19)
        assert rep.sigma == {1: 2}

    def test_repeated_seed_refused(self):
        # a repeated seed draws the same member again: one sample, not two
        with pytest.raises(GermforgeError) as e:
            splitting(GermProblem(CUSP, EJEM), seeds=(11, 13, 11))
        assert str(e.value) == "PRECONDITION_VIOLATED: seeds must be distinct, got 11,13,11"

    def test_infinite_codimension_rejected(self):
        with pytest.raises(GermforgeError) as e:
            splitting(GermProblem(P("x^2"), EJEM))
        assert e.value.code == "NOT_FINITE_CODIM"


class TestMorseNumberAgreement:
    def test_oracle_value_on_regression_germ(self):
        assert splitting(GermProblem(CUSP, EJEM)).morse == 2

    def test_methods_agree_on_regression_germs(self):
        for f, I, assume_reduced, expect in [(CUSP, EJEM, True, 2),
                                             (P("x^2 + y^2"), UNIT2, False, 1),
                                             (P("x^3", R1), UNIT1, False, 2)]:
            problem = GermProblem(f, I)
            assert splitting(problem).morse == jet_morse_number(
                problem, assume_reduced)[2] == expect


class TestConservation:
    def test_regression_germ_three_trials(self):
        assert conservation_check(CUSP, EJEM, trials=3, assume_reduced=True)

    def test_trial_totals_match_reference_value(self):
        from germforge.jetmorse import (intersection_multiplicity, jet_context,
                                        jet_pullback, lift_germ, morse_component)
        ctx = jet_context(EJEM, 1)
        M = morse_component(ctx, assume_reduced=True).ideal
        reference = intersection_multiplicity(ctx, M, lift_germ(CUSP, EJEM))
        assert reference == 2
        g = random_deformation(cusp_problem(), seed=11)
        pulled = jet_pullback(ctx, M, lift_germ(g, EJEM)).with_order(GLOBAL_DP)
        total = saturation(pulled, EJEM.with_order(GLOBAL_DP)).quotient_dimension()
        assert total.value == reference

    @pytest.mark.parametrize("name", ["cusp", "shear", "a4rel", "e6", "d4rel", "j10"])
    def test_member_count_is_the_critical_count_off_the_zero_set(self, name):
        # an independent check of the count conserve compares: the pullback
        # of J1 along a member's lifting is the member's Jacobian ideal, and
        # J1 <= M <= J1 : J2, so once saturated by I the pullback of M is
        # the saturated Jacobian ideal, whose length is the number of
        # critical points off the zero set (j10's members count 6 each)
        from germforge.jetmorse import jet_context, jet_pullback, lift_germ, morse_component
        with open(os.path.join(CORPUS, f"{name}.gf"), encoding="utf-8") as fh:
            pf = parse_problem_file(fh.read())
        problem = GermProblem(pf.polys["f"], pf.ideals["I"])
        ctx = jet_context(problem.I, 1)
        M = morse_component(ctx, assume_reduced=True).ideal
        I_dp = problem.I.with_order(GLOBAL_DP)
        for seed in TRIAL_SEEDS[:3]:
            g = random_deformation(problem, None, seed)
            pulled = jet_pullback(ctx, M, lift_germ(g, problem.I)).with_order(GLOBAL_DP)
            total = saturation(pulled, I_dp).quotient_dimension()
            assert total.value == critical_points_outside(g, I_dp).count, seed

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_d3_conserves_within_budget(self):
        # every trial's pulled ideal is coprime to I, so saturation returns
        # at once; the iterated colon on these inputs runs for minutes
        R3 = Ring(["x", "y", "z"])
        f = parse_poly("x^3*y + x*y^3 + z^2 + x*y*z", R3)

        def over_budget(signum, frame):
            raise TimeoutError("conserve d3 exceeded its 60 s budget")

        previous = signal.signal(signal.SIGALRM, over_budget)
        signal.alarm(60)
        try:
            assert conservation_check(f, ideal(R3, LOCAL_DS, "x*y", "z"), trials=3,
                                      assume_reduced=True) is True
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_zero_codimension_trivially_conserves(self):
        assert conservation_check(P("x*y"), ideal(R2, LOCAL_DS, "y"), trials=2)

    def test_one_variable_family(self):
        assert conservation_check(P("x^3", R1), UNIT1, trials=2)

    def test_upper_bound_for_power_family(self):
        # f = (1 + x3^2) g^2 over I = (g^2): the quasihomogeneous Euler field
        # of g already generates, so the codimension collapses under its
        # upper bound (k-1) mu(g) = 2
        R3 = Ring(["x1", "x2", "x3"])
        g = parse_poly("x1^2 + x2^3", R3)
        f = (R3.one() + parse_poly("x3^2", R3)) * g * g
        I = Ideal(R3, [g * g], LOCAL_DS)
        c = extended_codim(f, I)
        assert c.is_finite and c.value <= 2
        assert c.value == 0


class TestSaturationVsRabinowitsch:
    """dim k[x]/(I : J^infinity) against sympy: with J = (h_1, ..., h_s), the
    points of V(I) off V(J) are the union of the sets {h_i != 0}, and the
    multiplicity on {prod_S h != 0} is dim k[x,t]/(I + (1 - t prod_S h)), so
    inclusion-exclusion over the nonempty subsets S of J's generators gives
    the count. sympy computes the bases; the staircase is counted here."""

    @staticmethod
    def _staircase(leads, nvars):
        """Monomials no lead divides, or None when there are infinitely many."""
        pure = [None] * nvars
        for m in leads:
            support = [i for i, e in enumerate(m) if e]
            if len(support) == 1:
                i = support[0]
                pure[i] = m[i] if pure[i] is None else min(pure[i], m[i])
        if None in pure:
            return None
        return sum(1 for e in itertools.product(*(range(a) for a in pure))
                   if not any(all(x >= y for x, y in zip(e, m)) for m in leads))

    def _rabinowitsch_count(self, I, J):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols(list(I.ring.names) + ["t_"])
        base = [to_sympy(g, symbols) for g in I.gens]
        hs = [to_sympy(h, symbols) for h in J.gens]
        total = 0
        for k in range(1, len(hs) + 1):
            for S in itertools.combinations(hs, k):
                G = sympy.groebner(base + [1 - symbols[-1] * sympy.Mul(*S)], *symbols,
                                   order="grevlex", domain="QQ")
                leads = [sympy.Poly(g, *symbols).monoms(order="grevlex")[0] for g in G.exprs]
                dim = self._staircase(leads, len(symbols))
                if dim is None:
                    return None
                total += (-1) ** (k + 1) * dim
        return total

    def _agree(self, I, J):
        qd = saturation(I, J).quotient_dimension()
        theirs = self._rabinowitsch_count(I, J)
        assert (qd.value if qd.is_finite else None) == theirs, (I, J)
        return theirs

    @pytest.mark.parametrize("names, gens, f, expect", [
        ("x y", ("x^2", "y"), "x^3 + y^2", 2),
        ("x y z", ("x*y", "z"), "x^2*y + x*y^2 + z^2", 4),
    ], ids=["cusp", "d4rel"])
    def test_conserve_trials(self, names, gens, f, expect):
        from germforge.jetmorse import jet_context, jet_pullback, lift_germ, morse_component
        ring = Ring(names.split())
        I = ideal(ring, LOCAL_DS, *gens)
        problem = GermProblem(parse_poly(f, ring), I)
        ctx = jet_context(I, 1)
        M = morse_component(ctx, assume_reduced=True).ideal
        I_dp = I.with_order(GLOBAL_DP)
        for seed in TRIAL_SEEDS[:3]:
            lifting = lift_germ(random_deformation(problem, None, seed), I)
            pulled = jet_pullback(ctx, M, lifting).with_order(GLOBAL_DP)
            assert self._agree(pulled, I_dp) == expect

    def test_split_jacobian(self):
        R3 = Ring(["x", "y", "z"])
        I = ideal(R3, LOCAL_DS, "x*y", "z")
        g = random_deformation(GermProblem(parse_poly("x^2*y + x*y^2 + z^2", R3), I), seed=11)
        jac = Ideal(R3, [g.derive(i) for i in range(3)], GLOBAL_DP)
        assert self._agree(jac, I.with_order(GLOBAL_DP)) == 4

    @pytest.mark.parametrize("ring, I, J, expect", [
        (R2, ("x^2*y",), ("y",), None),
        (R2, ("x^2*y", "y^2 - y"), ("y",), 2),
        (R1, ("x^2 - x",), ("x",), 1),
        (R2, ("x^3*y^2 - x^2*y^2", "y^3 - y^2", "x^4 - x^3"), ("x", "y"), 5),
    ], ids=["x2y-by-y", "x2y-off-line", "x(x-1)-by-x", "three-points-by-origin"])
    def test_zero_sets_meet(self, ring, I, J, expect):
        # V(I) meets V(J), so I + J is a proper ideal and the colon loop runs
        I, J = ideal(ring, GLOBAL_DP, *I), ideal(ring, GLOBAL_DP, *J)
        assert not I.sum(J).is_unit()
        assert self._agree(I, J) == expect


class TestSemicontinuity:
    def test_random_members_never_exceed_base_codimension(self):
        c = extended_codim(CUSP, EJEM).value
        problem, seen = cusp_problem(), []
        for seed in (3, 5, 7, 11, 13):
            g = random_deformation(problem, seed=seed)
            seen.append(corrected_extended_codim(problem.member(g), seed))
        assert all(v <= c for v in seen)
        assert seen == [2, 2, 2, 2, 2]


class TestCrossValidation:
    def test_zero_codimension_iff_tangent_ideal_is_whole(self):
        cases = [
            (P("x*y"), ideal(R2, LOCAL_DS, "y"), True),
            (CUSP, EJEM, False),
            (P("y^2"), ideal(R2, LOCAL_DS, "y^2"), True),
        ]
        for f, I, expect_equal in cases:
            tau = GermProblem(f, I).tau
            fwd = all(tau.normal_form(g).is_zero() for g in I.gens)
            bwd = all(I.normal_form(g).is_zero() for g in tau.gens)
            assert (fwd and bwd) == expect_equal
            c = extended_codim(f, I)
            assert (c.is_finite and c.value == 0) == expect_equal

    def test_normal_crossing_verdict_matches_primitive_codimension(self):
        # classified germs have vanishing codimension relative to the
        # primitive ideal of their distinguished subideal, and only them
        Rxy1 = Ring(["x", "y1"])
        J1 = Ideal(Rxy1, [parse_poly("y1", Rxy1)], LOCAL_DS)
        Ry = Ring(["y1", "y2"])
        Jy = Ideal(Ry, [parse_poly("y1", Ry), parse_poly("y2", Ry)], LOCAL_DS)
        R5 = Ring(["x1", "x2", "x3", "y1", "y2"])
        J5 = Ideal(R5, [parse_poly("y1", R5), parse_poly("y2", R5)], LOCAL_DS)
        cases = [
            (parse_poly("x*y1^2", Rxy1), J1),
            (parse_poly("y1*y2", Ry), Jy),
            (parse_poly("x1*y1^2 + x2*y1*y2 + x3*y2^2", R5), J5),
        ]
        for f, J in cases:
            assert classify_Ddk(f, J).verdict == "IS_Ddk"
            c = extended_codim(f, primitive_ideal(J, 2).ideal)
            assert c.is_finite and c.value == 0

    def test_failed_verdict_has_nonzero_primitive_codimension(self):
        R5 = Ring(["x1", "x2", "x3", "y1", "y2"])
        J5 = Ideal(R5, [parse_poly("y1", R5), parse_poly("y2", R5)], LOCAL_DS)
        f = parse_poly("x1*y1^2 + x1*y1*y2 + x1*y2^2", R5)
        assert classify_Ddk(f, J5).verdict == "NOT_Ddk"
        c = extended_codim(f, primitive_ideal(J5, 2).ideal)
        assert not (c.is_finite and c.value == 0)
