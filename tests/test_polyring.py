from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germforge.errors import GermforgeError, ParseError
from germforge.polyring import (
    GLOBAL_DP,
    LOCAL_DS,
    Poly,
    Ring,
    format_poly,
    monomials_of_degree,
    monomials_up_to_degree,
    parse_poly,
)

R2 = Ring(["x", "y"])


def P(s, ring=R2):
    return parse_poly(s, ring)


# -- hypothesis strategy: small polynomials over x, y

fractions_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)
monos_st = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys_st = st.dictionaries(monos_st, fractions_st, max_size=5).map(
    lambda d: Poly(R2, {m: Fraction(c) for m, c in d.items()})
)


class TestParsing:
    def test_basic(self):
        p = P("y^2 + x^3")
        assert p.terms == {(0, 2): Fraction(1), (3, 0): Fraction(1)}

    def test_rational_coefficients(self):
        p = P("1/2x y - 3/4")
        assert p.terms == {(1, 1): Fraction(1, 2), (0, 0): Fraction(-3, 4)}

    def test_implicit_products_and_parens(self):
        assert P("(x+y)(x-y)") == P("x^2 - y^2")
        assert P("2x(x+1)") == P("2x^2 + 2x")

    def test_unary_signs_and_powers(self):
        assert P("-x^2 + +y") == P("y - x^2")
        assert P("(x+y)^2") == P("x^2 + 2x y + y^2")

    def test_zero(self):
        assert P("0").is_zero()
        assert P("x - x").is_zero()

    def test_unknown_variable(self):
        with pytest.raises(GermforgeError) as ei:
            P("x + z")
        assert ei.value.code == "UNKNOWN_VARIABLE"

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as ei:
            P("x + ^2")
        assert "column" in str(ei.value)

    def test_format_round_trip_examples(self):
        for s in ["0", "1", "-x", "y^2 + x^3", "1/2x^2 y - 7", "x^2 - 2x y + y^2"]:
            p = P(s)
            assert parse_poly(format_poly(p), R2) == p

    @settings(max_examples=60, deadline=None)
    @given(polys_st)
    def test_format_round_trip_random(self, p):
        assert parse_poly(format_poly(p), R2) == p


class TestArithmetic:
    @settings(max_examples=40, deadline=None)
    @given(polys_st, polys_st, polys_st)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(polys_st)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()
        assert a + (-a) == R2.zero()

    def test_pow(self):
        x = R2.var("x")
        assert x ** 0 == R2.one()
        assert (x + 1) ** 3 == P("x^3 + 3x^2 + 3x + 1")

    def test_scalar_coercion(self):
        x = R2.var("x")
        assert 2 * x + 1 == P("2x + 1")
        assert x - Fraction(1, 2) == P("x - 1/2")

    @settings(max_examples=40, deadline=None)
    @given(polys_st, polys_st)
    def test_product_rule(self, a, b):
        for v in range(2):
            lhs = (a * b).derive(v)
            rhs = a.derive(v) * b + a * b.derive(v)
            assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(polys_st, st.integers(0, 5), st.integers(0, 5))
    def test_truncate_composition(self, a, N, M):
        assert a.truncate(N).truncate(M) == a.truncate(min(N, M))


class TestOrders:
    def test_global_leading(self):
        p = P("x + x^2")
        m, c = p.leading(GLOBAL_DP)
        assert m == (2, 0) and c == 1

    def test_local_leading(self):
        p = P("x + x^2")
        m, c = p.leading(LOCAL_DS)
        assert m == (1, 0) and c == 1

    def test_degrevlex_tie_break(self):
        # same degree: x^2 > xy > y^2 under dp
        assert GLOBAL_DP.key((2, 0)) > GLOBAL_DP.key((1, 1))
        assert GLOBAL_DP.key((1, 1)) > GLOBAL_DP.key((0, 2))
        # ds reverses the degree comparison but not the tie-break
        assert LOCAL_DS.key((1, 0)) > LOCAL_DS.key((2, 0))
        assert LOCAL_DS.key((2, 0)) > LOCAL_DS.key((1, 1))

    @settings(max_examples=50, deadline=None)
    @given(polys_st, polys_st)
    def test_leading_is_multiplicative(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        for order in (GLOBAL_DP, LOCAL_DS):
            ma, _ = a.leading(order)
            mb, _ = b.leading(order)
            mab, _ = (a * b).leading(order)
            assert mab == tuple(i + j for i, j in zip(ma, mb))

    def test_constant_term(self):
        assert P("1 + x").constant_term() != 0
        assert P("x").constant_term() == 0


class TestSubstitution:
    def test_substitute(self):
        p = P("y^2 + x^3")
        q = p.substitute([R2.var("x"), R2.var("y") + R2.var("x") ** 2])
        assert q == P("y^2 + 2x^2y + x^4 + x^3")

    def test_translate_matches_evaluate(self):
        p = P("x^2y - y + 3")
        pt = [Fraction(1, 2), Fraction(-2)]
        shifted = p.translate(pt)
        assert shifted.evaluate([0, 0]) == p.evaluate(pt)
        assert shifted.constant_term() == p.evaluate(pt)

    def test_rename_into_bigger_ring(self):
        R3 = Ring(["x", "y", "s"])
        p = P("x^2 - y")
        q = p.rename(R3, [0, 1])
        assert q.terms == {(2, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1)}


class TestMonomialEnumeration:
    def test_counts(self):
        from math import comb

        for n in (1, 2, 3):
            for d in range(5):
                assert len(monomials_of_degree(n, d)) == comb(n + d - 1, n - 1)
                assert len(monomials_up_to_degree(n, d)) == comb(n + d, n)

    def test_degrees(self):
        for m in monomials_of_degree(3, 4):
            assert sum(m) == 4
