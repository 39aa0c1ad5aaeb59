import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germforge.errors import GermforgeError, ParseError
from germforge.stdbasis import Ideal
from germforge.polyring import (
    GLOBAL_DP,
    LOCAL_DS,
    MAX_DIGITS,
    MAX_PARSED_BITS,
    MAX_PARSED_TERMS,
    Poly,
    Q,
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

    @pytest.mark.parametrize("text, column", [
        ("(x+y+1)^200", 9),
        ("(x+y+1)^44", 9),
        ("(x+1)^1000", 7),
        ("(x+y+1)^40*(x+y+1)^40", 11),
        ("(x+y+1)^30 (x+y+1)^14", 12),
    ])
    def test_expansion_past_the_limit(self, text, column):
        # sized from its closed form before it is expanded
        with pytest.raises(ParseError) as ei:
            P(text)
        assert str(ei.value) == ("PARSE_ERROR: expansion may have more than "
                                 f"{MAX_PARSED_TERMS} terms at column {column}")

    def test_expansion_at_the_limit(self):
        # C(45, 2) = 990 terms; a power of one term has one term at any exponent
        assert len(P("(x+y+1)^43").terms) == 990
        assert len(P("(x+y+1)^21 (x+y+1)^22").terms) == 990
        assert P("(2x y^3)^40000").terms == {(40000, 120000): Fraction(2 ** 40000)}

    @pytest.mark.parametrize("text, column", [
        ("(3x+2)^499 (5x-7)^500", 8),
        ("(x+1)^316", 7),
        ("(x+1)^150 (x+1)^171", 11),
        (f"({'9' * MAX_DIGITS} x + 1)^3", MAX_DIGITS + 10),
        ("(1/2x + 1/3)^200", 14),
    ], ids=["two-powers", "power", "product", "large-coefficient", "denominators"])
    def test_coefficients_past_the_limit(self, text, column):
        # under the term bound, refused from the estimated bits of its
        # coefficients before the power or product is formed
        start = time.process_time()
        with pytest.raises(ParseError) as ei:
            P(text, Ring(["x"]))
        assert str(ei.value) == ("PARSE_ERROR: expansion may have more than "
                                 f"{MAX_PARSED_BITS} coefficient bits at column {column}")
        assert time.process_time() - start < 0.5  # expanding took seconds

    def test_coefficients_at_the_limit(self):
        # 316 terms of at most 315 bits: (x + 1)^315 has at most 316 * 315
        # coefficient bits; one coefficient of 40001 bits or 4300 digits
        R1 = Ring(["x"])
        assert len(P("(x+1)^315", R1).terms) == 316
        assert P("(x+1)^150 (x+1)^165", R1) == P("(x+1)^315", R1)
        big = int("9" * MAX_DIGITS)
        assert P(f"({'9' * MAX_DIGITS} x + 1)^2", R1).terms == {
            (2,): Fraction(big * big), (1,): Fraction(2 * big), (0,): Fraction(1)}
        assert len(P("(3x+2)^180 (5x-7)^10", R1).terms) == 191

    @pytest.mark.parametrize("template, column", [
        ("{} x^3 + y", 1),
        ("x^3 + 1/{} y", 7),
        ("y + x^{}", 7),
    ], ids=["coefficient", "denominator", "exponent"])
    def test_number_past_the_digit_limit(self, template, column):
        # refused before int() reads it, whose own limit, where the
        # interpreter has one, would raise ValueError
        with pytest.raises(ParseError) as ei:
            P(template.format("9" * (MAX_DIGITS + 1)))
        assert str(ei.value) == (f"PARSE_ERROR: number with more than {MAX_DIGITS} "
                                 f"digits at column {column}")

    def test_number_at_the_digit_limit(self):
        big = int("7" * MAX_DIGITS)
        assert P(f"{'7' * MAX_DIGITS} x - 1/{'7' * MAX_DIGITS}").terms == {
            (1, 0): Fraction(big), (0, 0): Fraction(-1, big)}

    def test_format_round_trip_examples(self):
        for s in ["0", "1", "-x", "y^2 + x^3", "1/2x^2 y - 7", "x^2 - 2x y + y^2"]:
            p = P(s)
            assert parse_poly(format_poly(p), R2) == p

    @settings(max_examples=60, deadline=None)
    @given(polys_st)
    def test_format_round_trip_random(self, p):
        assert parse_poly(format_poly(p), R2) == p


class TestRepr:
    def test_values_show_their_text(self):
        assert repr(Q(-3, 4)) == "Q(-3, 4)"
        assert repr(R2) == "Ring(x, y)"
        assert repr(LOCAL_DS) == "Order('ds')"
        assert repr(P("y^2 + x^3")) == "Poly(x^3 + y^2)"
        assert repr(Ideal(R2, [P("x^2"), P("y")], GLOBAL_DP)) == "Ideal(x^2, y; dp)"


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


def _stores_no_zero(p):
    return all(c != 0 for c in p.terms.values())


def _built(a, b, mono, c):
    """Polynomials built from a, b, a monomial and a Fraction c by every
    operation that makes a Poly."""
    t = Ring(["t"]).var(0)
    x, y = R2.var(0), R2.var(1)
    swapped = a.substitute([y, x])
    return [
        a + b, a - b, a - a, a + (-a), a * b, a * (b - b), a * 0, a * c,
        a.derive(0), a.derive(1), a.substitute([t, t]), (a - swapped).substitute([t, t]),
        a.substitute([b, b]), a.substitute([b, -b]), R2.monomial(mono, Fraction(c)) * a,
        R2.monomial(mono, Fraction(0)) * a, R2.sum([a, b, -a, -b]), R2.sum([a, b]),
        R2.const(0), R2.const(c), R2.monomial(mono, 0), R2.monomial(mono, c),
        a + c, R2.const(c) - a, a ** 2, a.truncate(2), a.substitute([x + c, y + 1]),
    ]


R3 = Ring(["x", "y", "z"])


def _plain_sum(*operands):
    """Independent reference: the sum of dict[Mono, Fraction] maps, keys in
    the order first seen, zero coefficients dropped."""
    out = {}
    for terms in operands:
        for m, c in terms.items():
            out[m] = out.get(m, Fraction(0)) + Fraction(c)
    return {m: c for m, c in out.items() if c}


@st.composite
def _sum_cases(draw):
    """(ring, p, q, c): coefficient maps in 2 or 3 variables, q often
    cancelling some or all of p, and an int, Fraction or Q constant c,
    often cancelling p's constant term."""
    ring = draw(st.sampled_from([R2, R3]))
    monos = st.tuples(*[st.integers(0, 2)] * ring.n)
    p = draw(st.dictionaries(monos, fractions_st, max_size=5))
    q = draw(st.dictionaries(monos, fractions_st, max_size=5))
    if p:
        for m in draw(st.sets(st.sampled_from(sorted(p)))):
            q[m] = -p[m]
    one = (0,) * ring.n
    value = draw(st.one_of(fractions_st, st.just(-p.get(one, Fraction(0)))))
    kind = draw(st.sampled_from(["int", "Fraction", "Q"]))
    if kind == "int" and value.denominator == 1:
        c = int(value)
    else:
        c = Q(value) if kind == "Q" else value
    return ring, p, q, c


class TestRunningSum:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(polys_st, max_size=6))
    def test_sum_is_the_left_fold(self, ps):
        folded = R2.zero()
        for p in ps:
            folded = folded + p
        assert R2.sum(ps) == folded
        assert R2.sum(iter(ps)) == folded

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(polys_st, max_size=4), polys_st)
    def test_sum_with_cancellations(self, ps, q):
        total = R2.sum(ps + [q] + [-p for p in reversed(ps)])
        assert total == q
        assert total.terms == q.terms

    def test_empty_sum(self):
        assert R2.sum([]) == R2.zero()
        assert R2.sum([]).terms == {}

    def test_sum_rejects_another_ring(self):
        with pytest.raises(ValueError):
            R2.sum([R2.one(), Ring(["z"]).one()])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(polys_st, polys_st, monos_st, fractions_st)
    def test_no_zero_coefficient_is_stored(self, a, b, mono, c):
        for p in _built(a, b, mono, c):
            assert _stores_no_zero(p)

    def test_monomial_checks_length_first(self):
        with pytest.raises(ValueError):
            R2.monomial((1,), 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_sum_cases())
    def test_binary_sums_match_a_plain_map(self, case):
        # values and key order: the left operand's keys first, then the new
        # keys of the right one, zeros dropped
        ring, p, q, c = case
        a, b = Poly(ring, p), Poly(ring, q)
        const = {(0,) * ring.n: Fraction(c)} if c else {}
        for got, want in [
            (a + b, _plain_sum(a.terms, b.terms)),
            (a - b, _plain_sum(a.terms, {m: -v for m, v in b.terms.items()})),
            (ring.const(c) - a, _plain_sum(const, {m: -v for m, v in a.terms.items()})),
            (a + c, _plain_sum(a.terms, const)),
        ]:
            assert got.ring is ring
            assert list(got.terms.items()) == list(want.items())
            assert all(type(v) is Q for v in got.terms.values())


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


@st.composite
def _coefficient_maps(draw, ring):
    """A coefficient map in ring's variables, exponents at most 3."""
    monos = st.tuples(*[st.integers(0, 3)] * ring.n)
    return draw(st.dictionaries(monos, fractions_st, max_size=5))


@st.composite
def _variable_maps(draw):
    """(source, target, where, p): variable i of the 1 to 3 variable ring
    source goes to variable where[i] of target, which has as many or up to
    two more variables; where may send two variables to one."""
    source = Ring(["x", "y", "z"][:draw(st.integers(1, 3))])
    target = Ring([f"t{j}" for j in range(source.n + draw(st.integers(0, 2)))])
    where = draw(st.lists(st.integers(0, target.n - 1), min_size=source.n,
                          max_size=source.n))
    return source, target, where, draw(_coefficient_maps(source))


@st.composite
def _points(draw):
    """(ring, p, point): a point of Fractions in a ring of 1 to 3 variables."""
    ring = Ring(["x", "y", "z"][:draw(st.integers(1, 3))])
    point = draw(st.lists(fractions_st, min_size=ring.n, max_size=ring.n))
    return ring, draw(_coefficient_maps(ring)), point


class TestSubstitution:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_variable_maps())
    def test_variable_images_re_index_exponents(self, case):
        source, target, where, p = case
        want = {}
        for m, c in p.items():
            exp = [0] * target.n
            for i, e in enumerate(m):
                exp[where[i]] += e
            want[tuple(exp)] = want.get(tuple(exp), Fraction(0)) + c
        got = Poly(source, p).substitute([target.var(j) for j in where], target)
        assert got.ring is target
        assert got.terms == {m: c for m, c in want.items() if c}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_points())
    def test_constant_images_evaluate(self, case):
        ring, p, point = case
        value = Fraction(0)
        for m, c in p.items():
            for v, e in zip(point, m):
                c *= Fraction(v) ** e
            value += c
        got = Poly(ring, p).substitute([ring.const(v) for v in point])
        assert got.terms == ({(0,) * ring.n: value} if value else {})
        assert got.is_zero() == (value == 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_points())
    def test_shift_there_and_back(self, case):
        ring, p, point = case
        there = [ring.var(i) + v for i, v in enumerate(point)]
        back = [ring.var(i) - v for i, v in enumerate(point)]
        a = Poly(ring, p)
        assert a.substitute(there).substitute(back).terms == a.terms

    def test_substitute(self):
        p = P("y^2 + x^3")
        q = p.substitute([R2.var("x"), R2.var("y") + R2.var("x") ** 2])
        assert q == P("y^2 + 2x^2y + x^4 + x^3")

    def test_translate_matches_evaluate(self):
        p = P("x^2y - y + 3")
        pt = [Fraction(1, 2), Fraction(-2)]
        shifted = p.substitute([R2.var(i) + v for i, v in enumerate(pt)])
        value = p.substitute([R2.const(v) for v in pt])
        assert shifted.substitute([R2.const(0), R2.const(0)]) == value
        assert shifted.constant_term() == value

    def test_rename_into_bigger_ring(self):
        R3 = Ring(["x", "y", "s"])
        p = P("x^2 - y")
        q = p.substitute([R3.var(0), R3.var(1)], R3)
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


# -- Q against fractions.Fraction

rationals_st = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4),
)


class TestRational:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rationals_st, rationals_st)
    def test_arithmetic_agrees_with_fraction(self, x, y):
        a, b = Fraction(x), Fraction(y)
        ops = [operator.add, operator.sub, operator.mul]
        if b:
            ops.append(operator.truediv)
        for op in ops:
            want = op(a, b)
            for left, right in ((Q(a), Q(b)), (Q(a), b), (a, Q(b)), (Q(a), y), (x, Q(b))):
                got = op(left, right)
                assert type(got) is Q
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rationals_st, st.integers(-5, 5))
    def test_power_agrees_with_fraction(self, x, e):
        if x == 0 and e < 0:
            with pytest.raises(ZeroDivisionError):
                Q(x) ** e
            return
        got, want = Q(x) ** e, Fraction(x) ** e
        assert type(got) is Q and got == want and str(got) == str(want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rationals_st, rationals_st)
    def test_comparisons_agree_with_fraction(self, x, y):
        a, b = Fraction(x), Fraction(y)
        for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
                   operator.ge):
            want = op(a, b)
            for left, right in ((Q(a), Q(b)), (Q(a), b), (a, Q(b)), (Q(a), y), (x, Q(b))):
                assert op(left, right) is want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rationals_st)
    def test_unary_and_conversions_agree_with_fraction(self, x):
        a, q = Fraction(x), Q(x)
        assert type(-q) is Q and -q == -a
        assert bool(q) is bool(a)
        assert hash(q) == hash(a)
        assert str(q) == str(a)
        assert int(q) == int(a)
        assert Fraction(q) == a and type(Fraction(q)) is Fraction
        assert Q(str(q)) == q and Q(a) == q and Q(q) is q

    def test_hash_when_the_denominator_is_a_multiple_of_the_modulus(self):
        import sys

        big = Fraction(1, sys.hash_info.modulus)
        assert hash(Q(big)) == hash(big)
        assert hash(-Q(big)) == hash(-big)

    def test_construction(self):
        assert (Q(6, -8).numerator, Q(6, -8).denominator) == (-3, 4)
        assert Q("3/4") == Fraction(3, 4) and Q("-6/8") == Q(-3, 4)
        assert Q() == 0 and Q(True) == 1
        for bad in ("", "1/", "x", "1.5"):
            with pytest.raises(ValueError):
                Q(bad)
        assert Q("7" * MAX_DIGITS) == int("7" * MAX_DIGITS)
        for bad in ("9" * (MAX_DIGITS + 1), "1/" + "9" * (MAX_DIGITS + 1)):
            with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
                Q(bad)
        for bad in (None, 0.5):
            with pytest.raises(TypeError):
                Q(bad)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Q(1, 0)
        with pytest.raises(ZeroDivisionError):
            Q(1) / 0
        with pytest.raises(ZeroDivisionError):
            1 / Q(0)

    def test_mixed_values_sort(self):
        values = [Q(1, 2), Fraction(1, 3), 0, Q(-5, 4), 1]
        assert sorted(values) == sorted(Fraction(v) for v in values)

    def test_not_rational_operands(self):
        assert Q(1) != "1"
        with pytest.raises(TypeError):
            Q(1) + 1.0
        with pytest.raises(TypeError):
            Q(1) < "1"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.dictionaries(monos_st, fractions_st, max_size=5))
    def test_poly_from_fractions_equals_poly_from_q(self, d):
        assert Poly(R2, d) == Poly(R2, {m: Q(c) for m, c in d.items()})

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(polys_st, polys_st, monos_st, fractions_st)
    def test_every_coefficient_is_a_q(self, a, b, mono, c):
        for p in [a, b] + _built(a, b, mono, c):
            assert all(type(v) is Q for v in p.terms.values())
        assert type(a.substitute([R2.const(c), R2.one()]).constant_term()) is Q
