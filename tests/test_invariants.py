import sys
import pytest
from fractions import Fraction

from germforge import tangent
from germforge.cli import main
from germforge.errors import GermforgeError
from germforge.polyring import GLOBAL_DP, LOCAL_DS, Poly, Ring, parse_poly
from germforge.stdbasis import Ideal, power_ideal
from germforge.invariants import (
    DdkClass,
    GermProblem,
    Unfolding,
    build_versal_unfolding,
    classify_Ddk,
    determinacy_bound,
    extended_codim,
    invariant_report,
    make_unfolding,
    plain_codim,
    positive_codim_locus,
    versality_check,
)
from germforge.oracle import empirical_splitting

R2 = Ring(["x", "y"])


def P(s, ring=R2):
    return parse_poly(s, ring)


def ideal(ring, order, *gens):
    return Ideal(ring, [parse_poly(g, ring) for g in gens], order)


EJEM = ideal(R2, LOCAL_DS, "x^2", "y")
CUSP = P("y^2 + x^3")


class TestCodimensions:
    def test_regression_extended(self):
        c = extended_codim(CUSP, EJEM)
        assert c.value == 3
        assert {str(EJEM.gens[pos].term_mul(m, Fraction(1))) for pos, m in c.witness} \
            == {"x^2", "y", "x*y"}

    def test_regression_plain(self):
        assert plain_codim(CUSP, EJEM).value == 3

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
        # Mora membership in the localized tau, apart from the model
        tau = problem.tau.with_order(LOCAL_DS)

        def inside(m):
            return [tau.contains(h * g) for g in I.gens for h in power_ideal(ring, m).gens]

        assert all(inside(det))
        assert not all(inside(det - 1))


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
        U = make_unfolding(CUSP, ["s1", "s2", "s3"], F)
        assert versality_check(U, EJEM)

    def test_single_parameter_not_versal(self):
        ext = R2.extend(["s1"])
        F = parse_poly("y^2 + x^3 + s1 x^2", ext)
        U = make_unfolding(CUSP, ["s1"], F)
        assert not versality_check(U, EJEM)

    def test_dropping_any_parameter_breaks_versality(self):
        U = build_versal_unfolding(CUSP, EJEM)
        ext = U.ring
        n = R2.n
        for drop in range(len(U.params)):
            keep = [i for i in range(len(U.params)) if i != drop]
            sub = R2.extend([U.params[i] for i in keep])
            images = [sub.var(nm) if nm in sub.index else sub.zero()
                      for nm in ext.names]
            F2 = U.F.substitute(images, sub)
            U2 = Unfolding(sub, F2, tuple(U.params[i] for i in keep), R2, CUSP)
            assert not versality_check(U2, EJEM)

    def test_trivial_unfolding_versal_when_codim_zero(self):
        Iy = ideal(R2, LOCAL_DS, "y")
        U = make_unfolding(P("x y"), [], P("x y"))
        assert versality_check(U, Iy)

    def test_slice_leaving_ideal_rejected(self):
        ext = R2.extend(["s1"])
        F = parse_poly("y^2 + x^3 + s1 x", ext)
        U = make_unfolding(CUSP, ["s1"], F)
        with pytest.raises(GermforgeError) as ei:
            versality_check(U, EJEM)
        assert ei.value.code == "F_NOT_UNFOLDING"

    def test_specialization_mismatch_rejected(self):
        ext = R2.extend(["s1"])
        F = parse_poly("y^2 + x^3 + x^2", ext)
        with pytest.raises(GermforgeError) as ei:
            make_unfolding(CUSP, ["s1"], F)
        assert ei.value.code == "F_NOT_UNFOLDING"

    def test_extra_parameters_still_versal(self):
        ext = R2.extend(["s1", "s2", "s3", "s4"])
        F = parse_poly("y^2 + x^3 + s1 x^2 + s2 y + s3 x y + s4 y^2", ext)
        U = make_unfolding(CUSP, ["s1", "s2", "s3", "s4"], F)
        assert versality_check(U, EJEM)

    def test_parameter_with_zero_derivative_at_the_origin(self):
        ext = R2.extend(["s1", "s2", "s3", "s4"])
        F = parse_poly("y^2 + x^3 + s1 x^2 + s2 y + s3 x y + s4^2 x^2", ext)
        U = make_unfolding(CUSP, ["s1", "s2", "s3", "s4"], F)
        assert versality_check(U, EJEM)


class TestBuildVersal:
    def test_regression_construction(self):
        U = build_versal_unfolding(CUSP, EJEM)
        assert len(U.params) == 3
        derivs = {str(U.derivative_at_zero(i)) for i in range(3)}
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
        assert {str(U.derivative_at_zero(i)) for i in (0, 65)} == {"1", "x^10*y^5"}
        assert versality_check(U, unit)
        ext = R2.extend(U.params[:-1])
        F = U.F.substitute([ext.var(nm) if nm in ext.index else ext.zero()
                            for nm in U.ring.names], ext)
        assert not versality_check(Unfolding(ext, F, U.params[:-1], R2, f), unit)

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
                                for nm in U.ring.names], ext)
            dropped = Unfolding(ext, F, keep, ring, f)
            assert not any(versality_check(dropped, I) for I in ideals), U.params[k]

    def test_unit_ideal_cubic(self):
        R1 = Ring(["x"])
        I1 = Ideal(R1, [parse_poly("1", R1)], LOCAL_DS)
        f = parse_poly("x^3", R1)
        U = build_versal_unfolding(f, I1)
        assert len(U.params) == 2
        derivs = {str(U.derivative_at_zero(i)) for i in range(2)}
        assert derivs == {"1", "x"}

    def test_unit_ideal_cubic_quadratic_guess_fails(self):
        # the span {x, x^2} misses the class of 1 modulo (x^2)
        R1 = Ring(["x"])
        I1 = Ideal(R1, [parse_poly("1", R1)], LOCAL_DS)
        f = parse_poly("x^3", R1)
        ext = R1.extend(["s1", "s2"])
        F = parse_poly("x^3 + s1 x + s2 x^2", ext)
        U = make_unfolding(f, ["s1", "s2"], F)
        assert not versality_check(U, I1)
        Fok = parse_poly("x^3 + s1 + s2 x", ext)
        assert versality_check(make_unfolding(f, ["s1", "s2"], Fok), I1)

    def test_zero_codim_builds_trivial_family(self):
        Iy = ideal(R2, LOCAL_DS, "y")
        U = build_versal_unfolding(P("x y"), Iy)
        assert U.params == ()
        assert U.F == P("x y").rename(U.ring, [0, 1])

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

    def test_non_adapted_rejected(self):
        with pytest.raises(GermforgeError) as ei:
            classify_Ddk(parse_poly("y1^2", R3Y),
                         Ideal(R3Y, [parse_poly("2y1", R3Y)], LOCAL_DS))
        assert ei.value.code == "NON_ADAPTED_COORDINATES"
        with pytest.raises(GermforgeError) as ei:
            classify_Ddk(parse_poly("y1^2", R3Y),
                         Ideal(R3Y, [parse_poly("y1", R3Y), parse_poly("y1", R3Y)], LOCAL_DS))
        assert ei.value.code == "NON_ADAPTED_COORDINATES"

    def test_low_order_term_rejected(self):
        with pytest.raises(GermforgeError) as ei:
            classify_Ddk(parse_poly("y1^2 + x", R3Y), J3Y)
        assert ei.value.code == "F_NOT_IN_JSQUARED"

    def test_coordinate_scaling_invariance(self):
        # rescaling a residual variable changes nothing structural
        f = parse_poly("x y1^2 + y2^2", R3Y)
        g = parse_poly("4 x y1^2 + 9 y2^2", R3Y)
        assert classify_Ddk(f, J3Y) == classify_Ddk(g, J3Y)


class TestReport:
    def test_bundle_matches_parts(self):
        rep = invariant_report(CUSP, EJEM)
        assert rep.c_ext.value == 3
        assert rep.c_plain.value == 3
        assert rep.determinacy == 2
        assert {str(b) for b in rep.basis} == {"x^2", "y", "x*y"}

    def test_infinite_case_has_no_determinacy(self):
        rep = invariant_report(P("x^2"), EJEM)
        assert rep.determinacy is None
        assert not rep.c_ext.is_finite


class TestGermProblem:
    @pytest.fixture
    def theta_orders(self, monkeypatch):
        """Order kinds of the ideals theta_preserving is computed for, counted
        in every germforge namespace that binds the function."""
        real = tangent.theta_preserving
        kinds = []

        def counted(I):
            kinds.append(I.order.kind)
            return real(I)

        for name, module in list(sys.modules.items()):
            if name == "germforge" or name.startswith("germforge."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
        return kinds

    def test_report_computes_theta_once(self, theta_orders):
        rep = invariant_report(CUSP, EJEM)
        assert (rep.c_ext.value, rep.c_plain.value, rep.determinacy) == (3, 3, 2)
        assert theta_orders == ["ds"]

    def test_splitting_computes_theta_once_per_order(self, theta_orders):
        assert empirical_splitting(CUSP, EJEM).morse == 2
        assert sorted(theta_orders) == ["dp", "ds"]

    def test_morse_both_methods_share_one_problem(self, theta_orders, tmp_path, capsys):
        path = tmp_path / "cusp.gf"
        path.write_text("ring x y ;\nideal I = x^2, y ;\npoly f = x^3 + y^2 ;\n")
        assert main(["morse", str(path), "--method", "both", "--assume-reduced"]) == 0
        out = capsys.readouterr().out
        assert "morse_jet: 2" in out and "morse_oracle: 2" in out
        assert sorted(theta_orders) == ["dp", "ds"]
