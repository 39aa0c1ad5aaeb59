import random
from fractions import Fraction

import pytest

from germforge.cli import main
from germforge.errors import GermforgeError
from germforge.polyring import GLOBAL_DP, LOCAL_DS, Ring, parse_poly
from germforge.stdbasis import Ideal, ideal_quotient, saturation
from germforge.invariants import GermProblem, extended_codim
from germforge.jetmorse import (
    JetContext,
    LiftedGerm,
    _check_q_identity,
    intersection_multiplicity,
    jet_context,
    jet_morse_number,
    jet_pullback,
    lift_germ,
    morse_component,
)

from helpers import evalp, kernel_combos

R2 = Ring(["x", "y"])
R1 = Ring(["x"])


def P(s, ring=R2):
    return parse_poly(s, ring)


def ideal(ring, order, *gens):
    return Ideal(ring, [parse_poly(g, ring) for g in gens], order)


EJEM = ideal(R2, LOCAL_DS, "x^2", "y")
CUSP = P("y^2 + x^3")
UNIT1 = Ideal(R1, [parse_poly("1", R1)], LOCAL_DS)


class TestJetContext:
    def test_regression_ring_and_generators(self):
        ctx = jet_context(EJEM, 1)
        assert ctx.ring.names == ("z1", "z2", "a1_0_0", "a1_1_0", "a1_0_1",
                                  "a2_0_0", "a2_1_0", "a2_0_1")
        jr = ctx.ring
        assert ctx.Q[0] == parse_poly("2 z1 a1_0_0 + z1^2 a1_1_0 + z2 a2_1_0", jr)
        assert ctx.Q[1] == parse_poly("z1^2 a1_0_1 + a2_0_0 + z2 a2_0_1", jr)
        assert [str(g) for g in ctx.g_z] == ["z1^2", "z2"]

    def test_variable_count_formula(self):
        assert jet_context(EJEM, 1).ring.n == 2 + 2 * 3
        assert jet_context(EJEM, 2).ring.n == 2 + 2 * 6

    def test_jet_variable_index_is_a_bijection(self):
        # d3 at order 3: 3 + 2 * comb(6, 3) = 43 variables; every a^j_alpha
        # has one ring index, onto n .. ring.n - 1, under its own name
        R3 = Ring(["x", "y", "z"])
        I = Ideal(R3, [parse_poly("x*y", R3), parse_poly("z", R3)], LOCAL_DS)
        ctx = jet_context(I, 3)
        index = ctx.slot
        assert set(index) == {(j, alpha) for j in range(len(I.gens)) for alpha in ctx.alphas}
        assert ctx.ring.n == 43 and len(index) == 40
        assert sorted(index.values()) == list(range(ctx.n, ctx.ring.n))
        for (j, alpha), i in index.items():
            assert ctx.ring.names[i] == f"a{j + 1}_" + "_".join(str(e) for e in alpha)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("i, extra", [(0, "1"), (1, "z1"), (0, "top"), (1, "a1_0_1 z2")])
    def test_corrupted_critical_jet_generator_fails_the_check(self, k, i, extra):
        # the check builds the defining sum from |alpha| <= 1 only; a Q_i
        # changed by a constant, a base variable, a jet variable of the top
        # order k or a product of jet variables still disagrees with it
        ctx = jet_context(EJEM, k)
        _check_q_identity(ctx)
        if extra == "top":
            extra = ctx.ring.names[ctx.slot[0, (k, 0)]]
        Q = list(ctx.Q)
        Q[i] = Q[i] + parse_poly(extra, ctx.ring)
        with pytest.raises(AssertionError,
                           match="^critical-jet generators disagree with the defining sum$"):
            _check_q_identity(ctx._replace(Q=tuple(Q)))

    def test_unit_generator_smooth_case(self):
        ctx = jet_context(UNIT1, 1)
        assert ctx.ring.names == ("z1", "a1_0", "a1_1")
        assert [str(q) for q in ctx.Q] == ["a1_1"]

    def test_bad_jet_order(self):
        with pytest.raises(GermforgeError) as ei:
            jet_context(EJEM, 0)
        assert ei.value.code == "PRECONDITION_VIOLATED"

    def test_jet_ring_past_the_limit(self):
        # order 15 needs 2 + 2 * comb(17, 2) = 274 variables, past the 250
        # that the closed form allows
        with pytest.raises(GermforgeError) as ei:
            jet_context(EJEM, 15)
        assert str(ei.value) == ("PRECONDITION_VIOLATED: jet order 15 needs 274 variables, "
                                 "more than the limit of 250")

    def test_zero_ideal_rejected(self):
        with pytest.raises(GermforgeError) as ei:
            jet_context(Ideal(R2, [], LOCAL_DS), 1)
        assert ei.value.code == "ZERO_IDEAL"


class TestMorseComponent:
    def test_smooth_case_is_singular_jet_locus(self):
        ctx = jet_context(UNIT1, 1)
        mc = morse_component(ctx)
        assert [str(g) for g in mc.ideal.gens] == ["a1_1"]
        assert mc.certificate == "linear-forms"
        assert mc.ideal.equals(saturation(ctx.J1(), ctx.J2()))

    def test_radical_unavailable_without_flag(self):
        ctx = jet_context(EJEM, 1)
        with pytest.raises(GermforgeError) as ei:
            morse_component(ctx)
        assert ei.value.code == "RADICAL_UNAVAILABLE"

    def test_radical_unavailable_builds_no_basis(self, basis_calls):
        # every term of each Q_i holds one jet variable, so V(J1) contains
        # a = 0 and J1's global quotient is infinite: no zero-dimensional
        # radical can certify it, and none is tried
        with pytest.raises(GermforgeError) as ei:
            morse_component(jet_context(EJEM, 1))
        assert ei.value.code == "RADICAL_UNAVAILABLE"
        assert basis_calls == []

    def test_assumed_reduced_regression(self):
        ctx = jet_context(EJEM, 1)
        mc = morse_component(ctx, assume_reduced=True)
        assert mc.certificate == "assumed-reduced"
        assert mc.ideal.equals(saturation(ctx.J1(), ctx.J2()))

    def test_colon_stability(self):
        for ctx in (jet_context(UNIT1, 1), jet_context(EJEM, 1)):
            flag = ctx.base is EJEM
            M = morse_component(ctx, assume_reduced=flag).ideal
            again = ideal_quotient(M, ctx.J2())
            assert again.equals(M)

    def test_component_vanishes_on_critical_jets_off_base_locus(self):
        # pointwise form of "Z off V(I) = C_1 off V(I)": at rational points
        # with z outside V(I), solutions of Q = 0 satisfy every M' generator
        ctx = jet_context(EJEM, 1)
        M = morse_component(ctx, assume_reduced=True).ideal
        rng = random.Random(20240915)
        n, total = ctx.n, ctx.ring.n
        a_count = total - n
        hits = 0
        while hits < 20:
            z = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            if all(evalp(g, z) == 0 for g in ctx.base.gens):
                continue
            # Q is linear in the jet coordinates: solve the 2 x 6 system
            cols = []
            for t in range(a_count):
                point = z + [Fraction(0)] * a_count
                point[n + t] = Fraction(1)
                cols.append({i: evalp(q, point) for i, q in enumerate(ctx.Q)})
            combos = kernel_combos(cols, list(range(a_count)), keyf=lambda k: k)
            if not combos:
                continue
            weights = [Fraction(rng.randint(-5, 5)) for _ in combos]
            a_vals = [Fraction(0)] * a_count
            for w, combo in zip(weights, combos):
                for t, c in combo.items():
                    a_vals[t] += w * c
            point = z + a_vals
            assert all(evalp(q, point) == 0 for q in ctx.Q)
            assert all(evalp(g, point) == 0 for g in M.gens)
            hits += 1

    def test_random_points_agree_on_both_vanishing_loci(self):
        ctx = jet_context(EJEM, 1)
        M = morse_component(ctx, assume_reduced=True).ideal
        rng = random.Random(7)
        for _ in range(20):
            point = [Fraction(rng.randint(-7, 7), rng.randint(1, 7))
                     for _ in range(ctx.ring.n)]
            if all(evalp(g, point[:ctx.n]) == 0 for g in ctx.base.gens):
                continue
            on_c1 = all(evalp(q, point) == 0 for q in ctx.Q)
            on_m = all(evalp(g, point) == 0 for g in M.gens)
            if on_c1:
                assert on_m


class TestPullback:
    def test_spec_lifting_example(self):
        ctx = jet_context(EJEM, 1)
        lift = LiftedGerm(P("x^2"), EJEM.gens, (R2.one(), R2.zero()))
        pb = jet_pullback(ctx, ctx.J1(), lift)
        assert pb.equals(ideal(R2, LOCAL_DS, "2x"))

    def test_unit_ideal_pulls_back_to_unit(self):
        ctx = jet_context(EJEM, 1)
        V = Ideal(ctx.ring, [ctx.ring.one()], GLOBAL_DP)
        assert jet_pullback(ctx, V, lift_germ(CUSP, EJEM)).is_unit()

    def test_taylor_coefficients(self):
        lift = LiftedGerm(CUSP, EJEM.gens, (P("x + y"), P("y - x^2")))
        assert lift.taylor_coefficient(1, (2, 0)) == P("-1")
        assert lift.taylor_coefficient(0, (0, 1)) == P("1")
        assert lift.taylor_coefficient(0, (0, 0)) == P("x + y")

    def test_bad_lifting_rejected(self):
        with pytest.raises(AssertionError):
            LiftedGerm(CUSP, EJEM.gens, (P("x"), P("x")))

    def test_not_member_rejected(self):
        # membership is the germ's GermProblem's fact; lift_germ, given a
        # non-member, only finds no lift
        with pytest.raises(GermforgeError) as ei:
            GermProblem(P("x"), EJEM)
        assert ei.value.code == "F_NOT_IN_IDEAL"
        with pytest.raises(GermforgeError) as ei:
            lift_germ(P("x"), EJEM)
        assert ei.value.code == "LIFTING_FAILED"

    def test_local_member_without_polynomial_lifting(self):
        # x = (x - x^2)/(1 - x) locally, but no polynomial combination works
        I = ideal(R2, LOCAL_DS, "x - x^2")
        assert I.contains(P("x"))
        with pytest.raises(GermforgeError) as ei:
            lift_germ(P("x"), I)
        assert ei.value.code == "LIFTING_FAILED"

    def test_lift_is_the_only_normal_form(self, reduce_calls):
        # a lift proves membership, so the cusp costs one reduction against
        # the lifter's basis and no test against I's own
        lifting = lift_germ(CUSP, ideal(R2, LOCAL_DS, "x^2", "y"))
        assert lifting.coeffs == (P("x"), P("y"))
        assert reduce_calls == [1]


class TestLifting:
    def recombines(self, I, p):
        coords = I.lift(p)
        assert coords is not None and len(coords) == len(I.gens)
        assert sum((c * g for c, g in zip(coords, I.gens)), p.ring.zero()) == p

    def test_local_order_ideal_lifts_polynomially(self):
        I = ideal(R2, LOCAL_DS, "x^2 + y^3", "y^2")
        self.recombines(I, P("(x + 1)(x^2 + y^3) + (x y - 2)y^2"))
        assert I.lift(P("x y")) is None

    def test_generators_with_syzygies(self):
        R3 = Ring(["x", "y", "z"])
        I = ideal(R3, GLOBAL_DP, "x y", "x z", "y z")
        self.recombines(I, parse_poly("x y z + x^2 y - 3 y z^2 + x z", R3))
        for g in I.gens:
            self.recombines(I, g)

    def test_non_member_has_no_lift(self):
        R3 = Ring(["x", "y", "z"])
        I = ideal(R3, GLOBAL_DP, "x y", "x z", "y z")
        assert I.lift(parse_poly("x + y z", R3)) is None
        assert ideal(R2, GLOBAL_DP, "x - x^2").lift(P("x")) is None


class TestLiftedMorseValues:
    # CM multiplicity of the pulled-back Morse component of the order-1 jet
    # space; the pulled-back Jacobian part is the same for every lifting, so
    # these values hold whichever coefficients the lifting picks
    CASES = {
        "cusp": ("x y", ["x^2", "y"], "x^3 + y^2", 2),
        "shear": ("x y", ["x^2", "y + x^2"], "x^3 + y^2 + 2 x^2 y + x^4", 2),
        "a4rel": ("x y", ["x^2", "y"], "x^5 + y^2", 4),
        "e6": ("x y", ["x", "y"], "x^3 + y^4", 6),
        "d4rel": ("x y z", ["x y", "z"], "x^2 y + x y^2 + z^2", 4),
        "d3": ("x y z", ["x y", "z"], "x^3 y + x y^3 + z^2 + x y z", 9),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pulled_back_multiplicity(self, name):
        names, gens, f, expect = self.CASES[name]
        ring = Ring(names.split())
        I = ideal(ring, LOCAL_DS, *gens)
        f = parse_poly(f, ring)
        lifting = lift_germ(f, I)
        assert sum((c * g for c, g in zip(lifting.coeffs, I.gens)), ring.zero()) == f
        ctx = jet_context(I, 1)
        M = morse_component(ctx, True).ideal
        assert intersection_multiplicity(ctx, M, lifting) == expect


class TestIntersectionMultiplicity:
    def test_morse_point_multiplicity_one(self):
        ctx = jet_context(UNIT1, 1)
        M = morse_component(ctx).ideal
        f = parse_poly("x^2", R1)
        assert intersection_multiplicity(ctx, M, lift_germ(f, UNIT1)) == 1

    def test_cusp_of_one_variable(self):
        ctx = jet_context(UNIT1, 1)
        M = morse_component(ctx).ideal
        f = parse_poly("x^3", R1)
        assert intersection_multiplicity(ctx, M, lift_germ(f, UNIT1)) == 2

    def test_lifting_independence(self):
        ctx = jet_context(EJEM, 1)
        M = morse_component(ctx, assume_reduced=True).ideal
        liftA = LiftedGerm(CUSP, EJEM.gens, (P("x"), P("y")))
        liftB = LiftedGerm(CUSP, EJEM.gens, (P("x + y"), P("y - x^2")))
        vals = {intersection_multiplicity(ctx, M, lf)
                for lf in (liftA, liftB, lift_germ(CUSP, EJEM))}
        assert vals == {2}

    def test_not_isolated(self):
        ctx = jet_context(EJEM, 1)
        M = morse_component(ctx, assume_reduced=True).ideal
        lift0 = LiftedGerm(P("x^2"), EJEM.gens, (R2.one(), R2.zero()))
        with pytest.raises(GermforgeError) as ei:
            intersection_multiplicity(ctx, M, lift0)
        assert ei.value.code == "NOT_ISOLATED"


class TestMorseNumber:
    def test_cusp_jet_value(self):
        assert jet_morse_number(GermProblem(CUSP, EJEM), assume_reduced=True)[2] == 2

    def test_already_morse(self):
        I = ideal(R2, LOCAL_DS, "1")
        assert jet_morse_number(GermProblem(P("x^2 + y^2"), I))[2] == 1

    def test_one_variable_cusp(self):
        assert jet_morse_number(GermProblem(parse_poly("x^3", R1), UNIT1))[2] == 2

    def test_infinite_codimension_rejected(self, tmp_path, capsys):
        # morse refuses the germ before the jet route runs
        path = tmp_path / "infinite.gf"
        path.write_text("ring x y ;\nideal I = x^2, y ;\npoly f = x^2 ;\n")
        assert main(["morse", "--method", "jet", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: NOT_FINITE_CODIM: ")

    @pytest.mark.parametrize("command", ["morse", "conserve"])
    @pytest.mark.parametrize("text, flags, code", [
        ("ring x y ;\nideal I = x^2, y ;\npoly f = x ;\n", ["--assume-reduced"],
         "F_NOT_IN_IDEAL"),
        ("ring x y ;\nideal I = x^2, y ;\npoly f = x^2 ;\n", ["--assume-reduced"],
         "NOT_FINITE_CODIM"),
        ("ring x y ;\nideal I = x - x^2, y ;\npoly f = x^2 + y^2 ;\n", [],
         "RADICAL_UNAVAILABLE"),
        ("ring x y ;\nideal I = x - x^2, y ;\npoly f = x^2 + y^2 ;\n", ["--assume-reduced"],
         "LIFTING_FAILED"),
    ], ids=["non-member", "infinite", "not-reduced", "origin-only"])
    def test_errors_keep_their_order(self, tmp_path, capsys, command, text, flags, code):
        # membership, then finiteness, then the radical, then the lift;
        # x^2 + y^2 lies in (x - x^2, y) at the origin only, where its
        # problem decides it, and has no polynomial lift
        path = tmp_path / "germ.gf"
        path.write_text(text)
        argv = [command, str(path)] + flags + (["--method", "jet"] if command == "morse" else [])
        assert main(argv) == GermforgeError(code, "").exit_code
        assert capsys.readouterr().err.startswith(f"error: {code}: ")

    def test_coordinate_invariance(self):
        # (x, y) -> (x, y + x^2) preserves the ideal
        g = CUSP.substitute([P("x"), P("y + x^2")], R2)
        assert extended_codim(g, EJEM).value == extended_codim(CUSP, EJEM).value == 3
        assert jet_morse_number(GermProblem(g, EJEM), assume_reduced=True)[2] == 2


class TestConservation:
    def test_hand_deformation_at_small_rational_times(self):
        ctx = jet_context(EJEM, 1)
        M = morse_component(ctx, assume_reduced=True).ideal
        reference = intersection_multiplicity(ctx, M, lift_germ(CUSP, EJEM))
        I_glob = EJEM.with_order(GLOBAL_DP)
        for tv in (Fraction(1, 7), Fraction(1, 11)):
            F = CUSP + P("y") * tv + P("x^2") * tv
            pb = jet_pullback(ctx, M, lift_germ(F, EJEM))
            off = saturation(pb.with_order(GLOBAL_DP), I_glob)
            assert off.quotient_dimension().value == reference
            # the deformed member has exactly two critical points, both
            # rational: (0, -t/2) and (-2t/3, -t/2), each a simple zero
            for cx in (Fraction(0), Fraction(-2, 3) * tv):
                shift = [R2.var(0) + cx, R2.var(1) - tv / 2]
                moved = [g.substitute(shift) for g in pb.gens]
                local = Ideal(R2, moved, LOCAL_DS).quotient_dimension()
                assert local.value == 1
