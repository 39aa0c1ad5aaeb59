import os
import random
from fractions import Fraction

import pytest

import germforge.tangent as tangent
from germforge.cli import parse_problem_file
from germforge.errors import GermforgeError
from germforge.invariants import GermProblem
from germforge.polyring import GLOBAL_DP, LOCAL_DS, Poly, Q, Ring, parse_poly
from germforge.stdbasis import Ideal, Submodule, preimage_module
from germforge.tangent import (
    field_apply,
    lie_bracket,
    primitive_ideal,
    tangent_ideal,
    theta_preserving,
    theta_vanishing,
)

from helpers import d, echelon, gauss_member, kernel_combos, monos_upto, reduce_against

R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])
CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "corpus")
CORPUS_NAMES = sorted(name[:-3] for name in os.listdir(CORPUS) if name.endswith(".gf"))


def P(s, ring=R2):
    return parse_poly(s, ring)


def ideal(ring, order, *gens):
    return Ideal(ring, [parse_poly(g, ring) for g in gens], order)


def vectors(ring, *rows):
    return [tuple(parse_poly(s, ring) for s in row) for row in rows]


def m_theta(ring, order, rank):
    """m * O^rank: all fields whose coefficients vanish at the origin."""
    zero = ring.zero()
    return Submodule(ring, rank, [tuple(ring.var(i) if j == b else zero for j in range(rank))
                                  for b in range(rank) for i in range(ring.n)], order)


def corpus_problem(name, order):
    """The one ideal and the one polynomial of a corpus problem file."""
    with open(os.path.join(CORPUS, f"{name}.gf"), encoding="utf-8") as fh:
        pf = parse_problem_file(fh.read(), order)
    (I,), (f,) = pf.ideals.values(), pf.polys.values()
    return I, f


EJEM = ideal(R2, LOCAL_DS, "x^2", "y")


class TestThetaPreserving:
    def test_regression_module(self):
        theta = theta_preserving(EJEM)
        expected = Submodule(R2, 2, vectors(R2, ("x", "0"), ("y", "0"),
                                            ("0", "x^2"), ("0", "y")), LOCAL_DS)
        assert theta.equals(expected)

    def test_unit_ideal_gives_full_module(self):
        theta = theta_preserving(ideal(R2, LOCAL_DS, "1"))
        expected = Submodule(R2, 2, vectors(R2, ("1", "0"), ("0", "1")), LOCAL_DS)
        assert theta.equals(expected)

    def test_maximal_ideal_powers_give_m_theta(self):
        from germforge.stdbasis import power_ideal

        for k in (1, 2):
            I = power_ideal(R2, k)
            theta = theta_preserving(I)
            assert theta.equals(m_theta(R2, LOCAL_DS, 2))

    def test_zero_ideal_error(self):
        with pytest.raises(GermforgeError) as ei:
            theta_preserving(Ideal(R2, [], LOCAL_DS))
        assert ei.value.code == "ZERO_IDEAL"

    def test_lie_closure(self):
        for I in (EJEM, ideal(R2, LOCAL_DS, "x^2 - y^3"), ideal(R2, LOCAL_DS, "x y", "y^2")):
            theta = theta_preserving(I)
            for X in theta.gens:
                for Y in theta.gens:
                    assert theta.contains(lie_bracket(X, Y))

    def test_ideal_times_theta_inside(self):
        for I in (EJEM, ideal(R2, LOCAL_DS, "x^3", "x y")):
            theta = theta_preserving(I)
            zero = R2.zero()
            one = R2.one()
            for g in I.gens:
                for i in range(2):
                    X = [zero, zero]
                    X[i] = g * one
                    assert theta.contains(tuple(X))


class TestThetaOracle:
    """Degree-bounded comparison against a fresh linear-algebra kernel.

    Random ideals include pure powers x^a, y^b, which makes m^8 a subset of
    the polynomial ideal; membership of a degree-<=7 polynomial in I is then
    exactly the span test at degree 7, so both directions are exact.
    """

    DEG = 4

    def test_twenty_random_ideals(self):
        rng = random.Random(424242)
        for trial in range(20):
            gens = self._random_ideal(rng)
            I = Ideal(R2, gens, GLOBAL_DP)
            theta = theta_preserving(I)
            labels, kernel = self._oracle_kernel(gens)
            # oracle fields are genuine members of the computed module
            for combo in kernel:
                X = self._field_of(combo)
                assert theta.contains(X), f"trial {trial}: oracle field missing"
            # low-degree computed generators lie in the oracle span
            kernel_rows = [dict(c) for c in kernel]
            for G in theta.gens:
                if max(g.total_degree() for g in G) > self.DEG:
                    continue
                vec = {}
                for i, comp in enumerate(G):
                    for m, c in comp.terms.items():
                        vec[(i, m)] = c
                hit = gauss_member(vec, kernel_rows,
                                   keyf=lambda k: (k[0], sum(k[1]), k[1]))
                assert hit, f"trial {trial}: generator outside oracle"

    def _random_ideal(self, rng):
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        gens = [P(f"x^{a}"), P(f"y^{b}")]
        # one binomial
        m1 = (rng.randint(0, 2), rng.randint(0, 2))
        m2 = (rng.randint(0, 2), rng.randint(0, 2))
        if m1 != m2:
            gens.append(R2.monomial(m1) + R2.monomial(m2, Fraction(rng.randint(1, 3))))
        return gens

    def _oracle_kernel(self, gens):
        slice_rows = []
        for g in gens:
            for delta in monos_upto(2, 7):
                shifted = {tuple(a + b for a, b in zip(m, delta)): c
                           for m, c in g.terms.items()}
                shifted = {m: c for m, c in shifted.items() if sum(m) <= 7}
                if shifted:
                    slice_rows.append(shifted)
        ech = echelon(slice_rows)
        labels = [(i, m) for i in range(2) for m in monos_upto(2, self.DEG)]
        vecs = []
        for i, alpha in labels:
            vec = {}
            for j, g in enumerate(gens):
                dg = g.derive(i)
                prod = {tuple(a + b for a, b in zip(m, alpha)): c
                        for m, c in dg.terms.items()}
                res = reduce_against(prod, ech)
                for m, c in res.items():
                    vec[(j, m)] = c
            vecs.append(vec)
        kernel = kernel_combos(vecs, labels,
                               keyf=lambda k: (k[0], sum(k[1]), k[1]))
        return labels, kernel

    @staticmethod
    def _field_of(combo):
        comps = [{}, {}]
        for (i, m), c in combo.items():
            comps[i][m] = comps[i].get(m, Fraction(0)) + c
        return tuple(Poly(R2, comp) for comp in comps)


class TestThetaVanishing:
    def test_unit_ideal(self):
        tv = theta_vanishing(theta_preserving(ideal(R2, LOCAL_DS, "1")))
        assert tv.equals(m_theta(R2, LOCAL_DS, 2))

    def test_regression_same_as_preserving(self):
        tp = theta_preserving(EJEM)
        tv = theta_vanishing(tp)
        assert tv.equals(tp)

    def test_contained_in_preserving(self):
        for I in (EJEM, ideal(R2, LOCAL_DS, "x^2 - y^3")):
            tp = theta_preserving(I)
            tv = theta_vanishing(tp)
            for X in tv.gens:
                assert tp.contains(X)

    @pytest.mark.parametrize("order", ["ds", "dp"])
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_matches_the_intersection_with_m_theta(self, name, order):
        # an independent check: theta meet m * Theta as the sums c_j X_j over
        # the preimage of m * Theta under theta's generators, one elimination
        theta = theta_preserving(corpus_problem(name, order)[0])
        ring, rank, fields = theta.ring, theta.rank, theta.gens
        pre = preimage_module(fields, m_theta(ring, GLOBAL_DP, rank), theta.order)
        image = Submodule(ring, rank, [tuple(ring.sum(ci * X[e] for ci, X in zip(c, fields))
                                             for e in range(rank)) for c in pre.gens],
                          theta.order)
        assert theta_vanishing(theta).equals(image)

    @pytest.mark.parametrize("name, ds, dp", [
        ("brieskorn543", 27, 27), ("e8un", 10, 10), ("milnor85", 30, 30),
        ("milnor127", 68, 68), ("fat", 0, 0), ("fin2", 11, 25),
        ("classify", None, None), ("inf3", None, None),
    ])
    def test_pinned_c_plain_on_the_corpus(self, name, ds, dp):
        # the corpus problems whose theta has a constant term, so c_plain
        # reads the vanishing fields rather than c_ext
        for order, value in (("ds", ds), ("dp", dp)):
            I, f = corpus_problem(name, order)
            problem = GermProblem(f, I)
            assert any(a.constant_term() for X in problem.theta.gens for a in X)
            assert problem.c_plain.value == value, order

    def test_postcheck(self, monkeypatch):
        # a combination that does not vanish at the origin: e_1 of Theta
        theta = theta_preserving(ideal(R2, LOCAL_DS, "1"))
        assert theta_vanishing(theta).equals(m_theta(R2, LOCAL_DS, 2))
        monkeypatch.setattr(tangent, "nullspace", lambda rows: [{0: Q(1)}])
        with pytest.raises(AssertionError, match="^vanishing-field postcheck failed$"):
            theta_vanishing(theta)

    @pytest.mark.parametrize("order", [LOCAL_DS, GLOBAL_DP])
    @pytest.mark.parametrize("ring, gens, f, qdim, c_plain", [
        pytest.param(R2, ("x^2", "y"), "x^3 + y^2", 3, 3, id="cusp"),
        pytest.param(R3, ("x y", "z"), "x^3 y + x y^3 + z^2 + x y z", None, 9, id="d3"),
    ])
    def test_pinned_quotient_dimension_and_c_plain(self, ring, gens, f, qdim, c_plain,
                                                   order):
        I = ideal(ring, order, *gens)
        tv = theta_vanishing(theta_preserving(I))
        assert tv.quotient_dimension().value == qdim
        assert GermProblem(P(f, ring), I).c_plain.value == c_plain


class TestTangentIdeal:
    def test_regression_tau(self):
        tau = tangent_ideal(P("y^2 + x^3"), theta_preserving(EJEM))
        assert tau.equals(ideal(R2, LOCAL_DS, "x^3", "x^2 y", "y^2"))

    def test_jacobian_for_unit_ideal(self):
        tau = tangent_ideal(P("y^2 + x^3"), theta_preserving(ideal(R2, LOCAL_DS, "1")))
        assert tau.equals(ideal(R2, LOCAL_DS, "x^2", "y"))

    def test_zero_function(self):
        tau = tangent_ideal(R2.zero(), theta_preserving(EJEM))
        assert tau.is_zero()

    def test_tau_inside_I_for_members(self):
        theta = theta_preserving(EJEM)
        for f in (P("y^2 + x^3"), P("x^2"), P("x^2 y - y^2")):
            tau = tangent_ideal(f, theta)
            assert EJEM.contains_ideal(tau)


class TestFieldApply:
    def test_apply(self):
        X = (P("x"), P("y"))  # Euler field
        assert field_apply(X, P("x^2 y")) == P("3x^2 y")

    def test_bracket_antisymmetry(self):
        X = (P("x^2"), P("y"))
        Y = (P("y"), P("x"))
        B1 = lie_bracket(X, Y)
        B2 = lie_bracket(Y, X)
        assert all((a + b).is_zero() for a, b in zip(B1, B2))


class TestPrimitiveIdeal:
    def test_square_of_maximal(self):
        res = primitive_ideal(ideal(R2, LOCAL_DS, "x", "y"), 4)
        assert res.ideal.equals(ideal(R2, LOCAL_DS, "x^2", "x y", "y^2"))
        assert res.truncation == 4

    def test_unit(self):
        res = primitive_ideal(ideal(R2, LOCAL_DS, "1"), 3)
        assert res.ideal.is_unit()

    def test_single_variable(self):
        res = primitive_ideal(ideal(R2, LOCAL_DS, "x"), 5)
        assert res.ideal.equals(ideal(R2, LOCAL_DS, "x^2"))

    def test_monomial_members_by_hand(self):
        # x^a y^b with all partials in (x) forces a >= 2
        res = primitive_ideal(ideal(R2, LOCAL_DS, "x"), 5)
        assert res.ideal.contains(P("x^2"))
        assert res.ideal.contains(P("x^2 y"))
        assert not res.ideal.contains(P("x y"))
        assert not res.ideal.contains(P("y^2"))
        assert not res.ideal.contains(P("x"))

    def test_truncation_precondition(self):
        with pytest.raises(GermforgeError):
            primitive_ideal(ideal(R2, LOCAL_DS, "x"), 0)

    def test_scaled_variables_are_postchecked(self):
        # (2x, -1/3 y) is (x, y): the answer is m^2, and the postcheck that
        # compares it with the squares reads the scaled generators too
        Ip = ideal(R2, LOCAL_DS, "2*x", "-1/3*y")
        res = primitive_ideal(Ip, 4)
        assert res.ideal.equals(ideal(R2, LOCAL_DS, "x^2", "x y", "y^2"))
        wrong = tangent.PrimitiveIdeal(ideal(R2, LOCAL_DS, "x^2", "x y"), 4)
        with pytest.raises(AssertionError, match="misses a square"):
            tangent._postcheck_adapted(Ip, wrong)

    def test_pinned_generators_of_the_d3_subideal(self):
        res = primitive_ideal(ideal(R3, LOCAL_DS, "x*y", "z"), 4)
        assert [str(g) for g in res.gens] == ["z^2", "x*y*z", "x^2*y^2"]

    def test_pinned_generators_with_fractional_coefficients(self):
        res = primitive_ideal(ideal(R3, LOCAL_DS, "x^2 - 2*y*z", "y + 1/3*z^2"), 4)
        assert [str(g) for g in res.gens] == [
            "y^3", "z^4 + 6*y*z^2 + 9*y^2", "y*z^3 + 3/2*y^2*z",
            "x*y*z^2 + 3/2*x*y^2", "x^2*z^2 + 3*x^2*y - 3*y^2*z", "x*y^2*z",
            "x^2*y*z", "x^3*z", "x^4"]

    @pytest.mark.parametrize("order", [LOCAL_DS, GLOBAL_DP], ids=["ds", "dp"])
    @pytest.mark.parametrize("gens", [("x*y", "z"), ("x^2 - 2*y*z", "y + 1/3*z^2")],
                             ids=["d3", "fractional"])
    def test_one_span_basis_per_kept_generator(self, basis_calls, order, gens):
        # the span of the kept generators is rebuilt only when one is kept;
        # under 'ds' a candidate outside it also costs one colon, of rank 2
        res = primitive_ideal(ideal(R3, order, *gens), 4)
        assert basis_calls.count(1) <= len(res.gens)

    def test_members_satisfy_defining_conditions(self):
        Ip = ideal(R2, LOCAL_DS, "x", "y^2")
        res = primitive_ideal(Ip, 5)
        for f in res.gens:
            assert Ip.contains(f)
            for i in range(2):
                assert Ip.contains(f.derive(i))
