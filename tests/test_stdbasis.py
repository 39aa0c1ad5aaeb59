import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from germforge.errors import GermforgeError
from germforge.polyring import (
    GLOBAL_DP,
    LOCAL_DS,
    Poly,
    Ring,
    mono_divides,
    mono_mul,
    parse_poly,
)
from germforge.stdbasis import (
    DEGREE_LIMIT,
    INFINITE,
    Ideal,
    Submodule,
    TermPacking,
    artin_rees_check,
    hilbert_samuel,
    ideal_intersection,
    ideal_quotient,
    minimal_polynomial,
    module_intersection,
    module_syzygies,
    power_ideal,
    preimage_module,
    relative_quotient_dimension,
    saturation,
    vec_is_zero,
    zero_dim_radical,
)
import germforge.stdbasis as stdbasis

from helpers import (
    d,
    gauss_rank,
    member_global,
    member_upto,
    monos_upto,
    multiples_upto,
    quotient_dim_upto,
    to_sympy,
)

R2 = Ring(["x", "y"])
R1 = Ring(["x"])


def P(s, ring=R2):
    return parse_poly(s, ring)


def ideal(ring, order, *gens):
    return Ideal(ring, [parse_poly(g, ring) for g in gens], order)


def lead_monos(polys, order):
    return sorted(p.leading(order)[0] for p in polys)


R3 = Ring(["x", "y", "z"])


def vec(ring, *polys):
    return tuple(parse_poly(p, ring) for p in polys)


# (ring, generators, their LOCAL_DS standard basis, [(non-member vector, its
# weak normal form)]). Each reduction appends the vector it reduces to the
# reducers at least once (Mora's ecart rule), and the bases of the first,
# second, third and last inputs take such appends too. Every weak normal
# form is integral with content 1: the reducer rescales after each step.
LOCAL_NORMAL_FORMS = [
    (R2, [("x - y^2 + 1/2 x^2",), ("y^3 - 2 x y",)],
     [("1/2*x^3*y - x*y^3 + y^3",), ("1/2*x^2 - y^2 + x",)], [
         (("x",), ("y^2",)),
         (("x y + 1/3 y^2",), ("-3*x^2*y + 6*y^3 + 2*y^2",)),
     ]),
    (R3, [("x - y z + 2/3 x^2",), ("y^2 - z^3",), ("z^2 - 1/2 x y^2",)],
     [("-1/2*x*y^2 + z^2",), ("-z^3 + y^2",), ("2/3*x^2 - y*z + x",)], [
         (("z + 1/2 x",), ("-2*x^2 + 3*y*z + 6*z",)),
     ]),
    (R2, [("2x - 3y^2 + x^3",), ("x y + 1/2 y^3",)],
     [("-1/4*x^3*y + y^3",), ("1/2*x^3 - 3/2*y^2 + x",)], [
         (("x + 1/2 y",), ("-x^3 + 3*y^2 + y",)),
     ]),
    (R2, [("x + 1/2 x^2", "y^2"), ("y", "x - 2/3 y^3"), ("x y", "0")],
     [("0", "y^3"), ("0", "-2/3*x*y^3 - y^3 + x^2"), ("y", "-2/3*y^3 + x"),
      ("1/2*x^2 + x", "y^2")], [
         (("y^2", "1"), ("0", "2*y^4 - 3*x*y + 3")),
         (("x", "0"), ("0", "-y^2")),
     ]),
    (R2, [("2x - 3y^2", "x y"), ("y + x^2", "1/2 x"), ("0", "y^3 - x^3")],
     [("0", "-x^4*y - 5/2*x^2*y^2 + y^3"), ("0", "-x^3*y - 5/2*x*y^2 + x^2"),
      ("x^2 + y", "1/2*x"), ("-3/2*y^2 + x", "1/2*x*y")], [
         (("y", "0"), ("0", "x^2*y - x")),
         (("x", "y"), ("0", "6*x*y^2 - 5*x*y + 4*y")),
     ]),
    # each of these reductions steps with a vector that joined the reducers
    # with a negative leading coefficient; the step's scale stays positive,
    # so the weak normal form keeps its sign
    (R2, [("x^3",), ("3/2*x^3*y - 1/3*x*y^3 - 2/3*x^2",)],
     [("x*y^6",), ("-9/4*x^3*y + 1/2*x*y^3 + x^2",)], [
         (("3*x^2*y - 2/3*x^2",), ("-81*x^3*y^2 + 729*x^2*y^3 + 4*x*y^3",)),
     ]),
    (R2, [("x^2*y^2 - 2*y^3 + x^2",), ("-3/2*x*y^3 - x^2*y",)],
     [("3/8*x^3*y^3 - 1/2*x^2*y^4 + 27/32*x*y^5 + y^5",),
      ("-2/3*x^2*y^3 + x*y^3 + 4/3*y^4",), ("x^2*y^2 - 2*y^3 + x^2",)], [
         (("3/2*x^2*y - 2*x^2",), ("25*x^2*y^2 - 32*y^3",)),
     ]),
    (R2, [("-3*x^3 + 2/3*x*y + 3*x",), ("x^3*y - 3*x^2*y^2 + 2/3*x*y^3",)],
     [("-x^3 + 2/9*x*y + x",)], [
         (("2*y^2 - 3*x",), ("-27*x^3 + 4*y^3 + 18*y^2",)),
     ]),
]


class TestStdBasis:
    def test_already_interreduced_local(self):
        basis = Ideal(R2, [P("x^2"), P("y")], LOCAL_DS).basis()
        assert lead_monos(basis, LOCAL_DS) == [(0, 1), (2, 0)]
        assert len(basis) == 2

    def test_unit_factor_local(self):
        # locally (x - x^2) = (x): 1 - x is a unit
        basis = Ideal(R2, [P("x - x^2")], LOCAL_DS).basis()
        assert lead_monos(basis, LOCAL_DS) == [(1, 0)]

    def test_duplicate_collapse(self):
        basis = Ideal(R2, [P("x"), P("x")], LOCAL_DS).basis()
        assert len(basis) == 1
        assert basis[0] == P("x")

    def test_global_cusp_jacobian(self):
        basis = Ideal(R2, [P("3x^2"), P("2y")], GLOBAL_DP).basis()
        assert [str(b) for b in basis] == ["y", "x^2"] or lead_monos(basis, GLOBAL_DP) == [(0, 1), (2, 0)]

    @pytest.mark.parametrize("ring, gens, basis, cases", LOCAL_NORMAL_FORMS)
    def test_local_bases_pinned(self, ring, gens, basis, cases):
        M = Submodule(ring, len(gens[0]), [vec(ring, *g) for g in gens], LOCAL_DS)
        assert M.basis() == [vec(ring, *b) for b in basis]

    def test_input_generators_reduce_to_zero(self):
        gens = [P("x^2 - y^3"), P("x y + x^3"), P("y^2 - x")]
        for order in (GLOBAL_DP, LOCAL_DS):
            I = Ideal(R2, gens, order)
            for g in gens:
                assert I.normal_form(g).is_zero()


@st.composite
def packed_terms(draw):
    """A packing for 1 to 11 variables, rank 1 to 3 and either order, with
    two terms whose product stays below the degree limit."""
    n = draw(st.integers(1, 11))
    rank = draw(st.integers(1, 3))
    order = draw(st.sampled_from([GLOBAL_DP, LOCAL_DS]))
    # small exponents make ties and divisors likely; 11 * 1489 < 2^14
    exps = st.one_of(st.integers(0, 2), st.integers(0, 1489))
    a, b = (tuple(draw(st.lists(exps, min_size=n, max_size=n))) for _ in range(2))
    p, q = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
    return TermPacking(n, order), order, (p, a), (q, b)


class TestTermPacking:
    """The int order, the masked-subtract divisibility test and the shift by
    addition against the tuple operations they replace."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(packed_terms())
    def test_int_order_is_position_over_term(self, case):
        pk, order, (p, a), (q, b) = case
        ka, kb = pk.pack(p, a), pk.pack(q, b)
        # a smaller int is a greater term; position 0 is greatest
        assert (ka < kb) == ((-p, order.key(a)) > (-q, order.key(b)))
        assert (ka == kb) == ((p, a) == (q, b))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(packed_terms())
    def test_masked_subtract_is_divisibility(self, case):
        pk, _, (p, a), (q, b) = case
        divides = not (pk.pack(q, b) - (pk.pack(p, a) - pk.bias)) & pk.mask
        assert divides == (p == q and mono_divides(a, b))
        prod = mono_mul(a, b)
        assert not (pk.pack(q, prod) - (pk.pack(q, a) - pk.bias)) & pk.mask

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(packed_terms())
    def test_adding_keys_multiplies(self, case):
        pk, _, (p, a), (q, b) = case
        one = pk.pack(0, (0,) * pk.n)
        assert pk.pack(p, a) + pk.pack(0, b) - one == pk.pack(p, mono_mul(a, b))
        # the reducer's shift: t - l moves every term of l's vector by t/l
        t, lead = pk.pack(q, mono_mul(a, b)), pk.pack(q, a)
        assert pk.pack(p, a) + (t - lead) == pk.pack(p, mono_mul(a, b))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(packed_terms())
    def test_unpack_inverts_pack(self, case):
        pk, _, (p, a), (q, b) = case
        for pos, m in ((p, a), (q, b), (q, mono_mul(a, b))):
            key = pk.pack(pos, m)
            assert pk.unpack(key) == (pos, m)
            assert pk.degree(key) == sum(m)

    @pytest.mark.parametrize("order", [GLOBAL_DP, LOCAL_DS])
    def test_degree_just_below_the_limit(self, order):
        pk = TermPacking(3, order)
        m = (DEGREE_LIMIT - 1, 0, 0)
        assert pk.unpack(pk.pack(2, m)) == (2, m)
        assert pk.pack(0, m) < pk.pack(1, (0, 0, 0))


class TestDegreeGuard:
    """A degree of 2^15 or more would carry into the neighbouring field, so
    every place that forms one raises PRECONDITION_VIOLATED instead."""

    @staticmethod
    def _raises_limit(call, degree):
        with pytest.raises(GermforgeError) as info:
            call()
        assert info.value.code == "PRECONDITION_VIOLATED"
        assert info.value.exit_code == 2
        assert f"degree {degree} " in info.value.message
        assert "2^15 = 32768" in info.value.message

    @pytest.mark.parametrize("order", [GLOBAL_DP, LOCAL_DS])
    def test_input_degree(self, order):
        I = ideal(R2, order, "x^40000 + y")
        self._raises_limit(I.basis, 40000)
        J = ideal(R2, order, "x + y")
        self._raises_limit(lambda: J.normal_form(P("x^32768")), 32768)

    @pytest.mark.parametrize("order", [GLOBAL_DP, LOCAL_DS])
    def test_s_pair_lcm(self, order):
        # each generator has degree 20001; their lcm x^20000 y^20000 does not fit
        I = ideal(R2, order, "x^20000 y", "x y^20000")
        self._raises_limit(I.basis, 40000)

    def test_mora_step(self):
        # the lead x has ecart 19999: x^20000 times the tail y^20000 / x
        I = ideal(R2, LOCAL_DS, "x - y^20000")
        assert I.basis() == [P("x - y^20000")]
        self._raises_limit(lambda: I.normal_form(P("x^20000")), 39999)

    def test_global_step_into_another_position(self):
        # position 1 of the reducer has a higher degree than its lead
        M = Submodule(R2, 2, [vec(R2, "x", "y^20000")], GLOBAL_DP)
        self._raises_limit(lambda: M.normal_form(vec(R2, "x^20000", "0")), 39999)


class TestNormalForm:
    def test_member(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        assert I.normal_form(P("y^2 + x^3")).is_zero()

    def test_non_member(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        assert I.normal_form(P("x")) == P("x")

    def test_zero(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        assert I.normal_form(R2.zero()).is_zero()

    def test_global_canonical(self):
        # canonical: NF(p + q*g) == NF(p) for any multiple of a generator
        I = ideal(R2, GLOBAL_DP, "x^2 - y", "y^2")
        p = P("x^3 + x y + 1")
        for q in [P("x"), P("y - 3"), P("x y^2 + 2")]:
            for g in I.gens:
                assert I.normal_form(p + q * g) == I.normal_form(p)

    @pytest.mark.parametrize("ring, gens, basis, cases", LOCAL_NORMAL_FORMS)
    def test_local_weak_normal_forms_pinned(self, ring, gens, basis, cases):
        M = Submodule(ring, len(gens[0]), [vec(ring, *g) for g in gens], LOCAL_DS)
        for v, expected in cases:
            nf = M.normal_form(vec(ring, *v))
            assert nf == vec(ring, *expected), v
            coeffs = [c for p in nf for c in p.terms.values()]
            assert all(c.denominator == 1 for c in coeffs), v
            assert gcd(*(c.numerator for c in coeffs)) == 1, v

    def test_local_weak_nf_unit_example(self):
        # y/(1+x) is in the local ideal (y): weak NF handles the unit
        I = ideal(R2, LOCAL_DS, "y + x y")
        assert I.normal_form(P("y")).is_zero()


class TestNormalFormVsOracle:
    def test_global_100_instances(self):
        # membership claims are certified: a zero normal form must come with
        # a lift whose validity is checked by plain arithmetic; a nonzero
        # normal form must be confirmed non-member by the linear span of
        # generator multiples (any span hit is a genuine member)
        rng = random.Random(20260815)
        for trial in range(100):
            gens = [self._rand_poly(rng) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()] or [P("x")]
            I = Ideal(R2, gens, GLOBAL_DP)
            known_member = rng.random() < 0.5
            if known_member:
                p = sum((self._rand_poly(rng, 2) * g for g in gens), R2.zero())
            else:
                p = self._rand_poly(rng)
            nf_zero = I.normal_form(p).is_zero()
            if known_member:
                assert nf_zero, f"trial {trial}: member not recognized"
            if nf_zero:
                coords = I.lift(p)
                assert coords is not None, f"trial {trial}: no certificate"
                recombined = sum((c * g for c, g in zip(coords, I.gens)), R2.zero())
                assert recombined == p, f"trial {trial}: bad certificate"
            else:
                mem = member_global(d(p), [d(g) for g in gens], 2, margin=4)
                assert not mem, f"trial {trial}: span refutes nonzero NF"

    def test_local_100_instances_m_primary(self):
        # padding with pure powers makes m^{2k} a subset of I, so the
        # truncated oracle at N >= 2k is an exact local membership test
        rng = random.Random(917)
        for trial in range(100):
            k = rng.randint(2, 4)
            gens = [P(f"x^{k}"), P(f"y^{k}")] + [self._rand_poly(rng)
                                                 for _ in range(rng.randint(0, 2))]
            gens = [g for g in gens if not g.is_zero()]
            I = Ideal(R2, gens, LOCAL_DS)
            p = self._rand_poly(rng)
            N = 2 * k + 3
            mem = member_upto(d(p), [d(g) for g in gens], 2, N)
            assert I.normal_form(p).is_zero() == mem, f"trial {trial}"

    @staticmethod
    def _rand_poly(rng, maxdeg=5):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            a = rng.randint(0, maxdeg)
            b = rng.randint(0, maxdeg - a)
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if c:
                terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
        return Poly(R2, {m: c for m, c in terms.items() if c})


# (ring, generators, [(vector, its global normal form)]); the expected
# normal forms were computed by the reducer before it reduced in place
MODULE_NORMAL_FORMS = [
    (R2, [("x^2", "y"), ("y^2", "x")], [
        # a term cancels to zero and comes back later in the reduction
        (("x^3 + y^3", "x y"), ("0", "-x*y")),
        (("x^2 + y^2", "x + y"), ("0", "0")),
        (("x y", "1"), ("x*y", "1")),
        (("x^2 y^2 + x", "y^3"), ("x", "0")),
    ]),
    (R2, [("x - y", "x^2"), ("y^2", "0"), ("0", "x^3 - y")], [
        (("x^2", "0"), ("0", "-x^2*y - y")),
        (("x y + y^2", "y^3"), ("0", "-x^2*y")),
        (("x^3 - x y^2", "x^4 + y"), ("0", "-y^2 + y")),
        (("x", "y"), ("y", "-x^2 + y")),
    ]),
    (R2, [("x y - 1", "y"), ("x^2", "x + y^2")], [
        (("x^2 y", "0"), ("0", "-y^3 - x*y")),
        (("x^3 y^2 + 1", "x y"), ("0", "-x^2*y^2 - y^4 - y^3 + y")),
        (("y", "x^2 y"), ("0", "-y^5 + x^2*y + y^2")),
    ]),
    (R3, [("x", "y", "z"), ("y^2", "0", "x z"), ("0", "z^2 - x", "y")], [
        # a term cancels to zero and comes back later in the reduction
        (("x^2 + y^2", "x y", "x z + z"), ("0", "0", "-x*z + z")),
        (("y^3", "y z", "y^2 z"), ("0", "y*z", "-x*y*z + y^2*z")),
        (("x y z", "z^3", "x^2"), ("0", "-y^2*z + x*z", "-y*z^2 + x^2 - y*z")),
    ]),
    (R3, [("x y", "0", "z"), ("0", "x z - y", "x"), ("z^2", "y^2", "0")], [
        (("x^2 y^2 + z^3", "x^2 z", "y z"), ("0", "-y^2*z + x*y", "-x*y*z - x^2 + y*z")),
        (("x y + z^2", "x z + y^2", "x + z"), ("0", "y", "0")),
        (("z^4", "x y^2 z", "x z^2"), ("0", "-y^2*z^2 + y^3", "-x*y^2 + x*z^2")),
    ]),
]


class TestModuleNormalForm:
    @pytest.mark.parametrize("ring, gens, cases", MODULE_NORMAL_FORMS)
    def test_pinned_values(self, ring, gens, cases):
        M = Submodule(ring, len(gens[0]), [vec(ring, *g) for g in gens], GLOBAL_DP)
        for v, expected in cases:
            assert M.normal_form(vec(ring, *v)) == vec(ring, *expected), v

    @pytest.mark.parametrize("ring, gens, cases", MODULE_NORMAL_FORMS)
    def test_remainder_is_fully_reduced(self, ring, gens, cases):
        M = Submodule(ring, len(gens[0]), [vec(ring, *g) for g in gens], GLOBAL_DP)
        leads = M.lead_terms()
        for v, _ in cases:
            v = vec(ring, *v)
            nf = M.normal_form(v)
            for pos, p in enumerate(nf):
                for m in p.terms:
                    assert not any(lp == pos and all(a <= b for a, b in zip(lm, m))
                                   for lp, lm in leads), (v, pos, m)
            assert M.contains(tuple(a - b for a, b in zip(v, nf)))


class TestGroebnerVsSympy:
    """Reduced dp bases and normal forms against sympy's grevlex, an engine
    independent of this one; both orders rank x > y > z."""

    @staticmethod
    def _rand_poly(rng, ring, den=3):
        """Two to four terms of degree 1 to 3, so the ideals lie in the
        maximal ideal at the origin and are never the unit ideal; the
        coefficients' denominators are at most den."""
        terms = {}
        for _ in range(rng.randint(2, 4)):
            m = [0] * ring.n
            for _ in range(rng.randint(1, 3)):
                m[rng.randrange(ring.n)] += 1
            c = Fraction(rng.randint(-5, 5), rng.randint(1, den))
            terms[tuple(m)] = terms.get(tuple(m), Fraction(0)) + c
        return Poly(ring, terms)

    @staticmethod
    def _from_sympy(expr, symbols, ring):
        import sympy

        if expr == 0:
            return ring.zero()
        q = sympy.Poly(expr, *symbols, domain="QQ")
        return Poly(ring, {m: Fraction(int(c.p), int(c.q)) for m, c in q.terms()})

    def _check_against_sympy(self, rng, ring, gens, den, trial):
        import sympy

        symbols = sympy.symbols(ring.names)
        I = Ideal(ring, gens, GLOBAL_DP)
        G = sympy.groebner([to_sympy(g, symbols) for g in gens], *symbols,
                           order="grevlex", domain="QQ")
        theirs = [self._from_sympy(g, symbols, ring) for g in G.exprs]
        theirs = [g * (1 / g.leading(GLOBAL_DP)[1]) for g in theirs]
        ours = I.basis()
        assert {str(g) for g in ours} == {str(g) for g in theirs}, (trial, gens)
        for _ in range(3):
            p = (self._rand_poly(rng, ring, den) * self._rand_poly(rng, ring, den)
                 + self._rand_poly(rng, ring, den))
            _, r = sympy.reduced(to_sympy(p, symbols), list(G.exprs), *symbols,
                                 order="grevlex", domain="QQ")
            assert I.normal_form(p) == self._from_sympy(r, symbols, ring), (trial, p)

    def test_bases_and_normal_forms(self):
        pytest.importorskip("sympy")
        rng = random.Random(20261018)
        for trial in range(24):
            ring = R2 if trial % 2 else R3
            gens = [self._rand_poly(rng, ring) for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if gens:
                self._check_against_sympy(rng, ring, gens, 3, trial)

    def test_wide_rings_large_denominators(self):
        # four to six variables and denominators up to 97: the primitive
        # basis elements have leading coefficients other than 1, so the
        # reducer's scaling and content steps run on most reductions
        pytest.importorskip("sympy")
        rng = random.Random(20261019)
        names = ["x", "y", "z", "u", "v", "w"]
        for trial in range(18):
            ring = Ring(names[:4 + trial % 3])
            gens = [self._rand_poly(rng, ring, 97) for _ in range(rng.randint(3, 4))]
            gens = [g for g in gens if not g.is_zero()]
            if gens:
                self._check_against_sympy(rng, ring, gens, 97, trial)

    def test_lift_and_normal_form_exact_with_large_denominators(self):
        # non-monic generators whose denominators are large primes: the lift
        # must recombine to p exactly, and the normal form of a non-member
        # must be sympy's remainder, not a multiple of it
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols(R3.names)
        gens = [P("(65537/10007) x^2 y - (7/1000003) z^2 + (22/97) x", R3),
                P("(104729/3) y^2 - (5/7919) x z + 11", R3),
                P("(13/2147483647) x z^2 - (8/65521) y + 1/104723", R3)]
        I = Ideal(R3, gens, GLOBAL_DP)
        G = sympy.groebner([to_sympy(g, symbols) for g in gens], *symbols,
                           order="grevlex", domain="QQ")
        rng = random.Random(5)
        for trial in range(6):
            cofactors = [self._rand_poly(rng, R3, 97) for _ in gens]
            p = sum((h * g for h, g in zip(cofactors, gens)), R3.zero())
            c = I.lift(p)
            assert c is not None, trial
            assert sum((cj * g for cj, g in zip(c, gens)), R3.zero()) == p, trial
            q = p + self._rand_poly(rng, R3, 97)
            _, r = sympy.reduced(to_sympy(q, symbols), list(G.exprs), *symbols,
                                 order="grevlex", domain="QQ")
            expected = self._from_sympy(r, symbols, R3)
            assert I.normal_form(q) == expected, trial
            assert (I.lift(q) is None) == (not expected.is_zero()), trial


class TestIdealQuotient:
    def test_monomial_colon(self):
        q = ideal_quotient(ideal(R2, LOCAL_DS, "x^2"), ideal(R2, LOCAL_DS, "x"))
        assert q.equals(ideal(R2, LOCAL_DS, "x"))

    def test_colon_by_unit_ideal(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        assert ideal_quotient(I, ideal(R2, LOCAL_DS, "1")).equals(I)

    def test_tau_colon_I(self):
        # every member h of the colon must satisfy h*g in tau, and every
        # monomial with that property must lie in the colon
        tau = ideal(R2, LOCAL_DS, "x^3", "x^2 y", "y^2")
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        q = ideal_quotient(tau, I)
        tau_dicts = [d(g) for g in tau.gens]
        for m in monos_upto(2, 5):
            h = R2.monomial(m)
            oracle_in = all(member_upto(d(h * g), tau_dicts, 2, 8) for g in I.gens)
            assert q.contains(h) == oracle_in, f"monomial {m}"

    def test_quotient_contains_ideal(self):
        rng = random.Random(5)
        for _ in range(10):
            I = self._rand_monomial_ideal(rng)
            J = self._rand_monomial_ideal(rng)
            q = ideal_quotient(I, J)
            assert q.contains_ideal(I)

    def test_iterated_quotient_is_product_quotient(self):
        rng = random.Random(6)
        for _ in range(10):
            I = self._rand_monomial_ideal(rng)
            J = self._rand_monomial_ideal(rng)
            K = self._rand_monomial_ideal(rng)
            JK = Ideal(R2, [a * b for a in J.gens for b in K.gens], I.order)
            lhs = ideal_quotient(ideal_quotient(I, J), K)
            rhs = ideal_quotient(I, JK)
            assert lhs.equals(rhs)

    @staticmethod
    def _rand_monomial_ideal(rng):
        gens = [R2.monomial((rng.randint(0, 3), rng.randint(0, 3)))
                for _ in range(rng.randint(1, 3))]
        return Ideal(R2, gens, GLOBAL_DP)


class TestIntersectionAndSaturation:
    def test_monomial_intersection_oracle(self):
        # for monomial ideals the intersection is the lcm ideal
        rng = random.Random(7)
        from germforge.polyring import mono_lcm

        for _ in range(10):
            mi = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
            mj = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
            I = Ideal(R2, [R2.monomial(m) for m in mi], GLOBAL_DP)
            J = Ideal(R2, [R2.monomial(m) for m in mj], GLOBAL_DP)
            expected = Ideal(R2, [R2.monomial(mono_lcm(a, b)) for a in mi for b in mj],
                             GLOBAL_DP)
            assert ideal_intersection(I, J).equals(expected)

    def test_saturation_examples(self):
        assert saturation(ideal(R2, GLOBAL_DP, "x^2 y"), ideal(R2, GLOBAL_DP, "y")).equals(
            ideal(R2, GLOBAL_DP, "x^2"))
        assert saturation(ideal(R2, GLOBAL_DP, "x"), ideal(R2, GLOBAL_DP, "x")).equals(
            ideal(R2, GLOBAL_DP, "1"))

    @pytest.mark.parametrize("order, I, J", [
        (GLOBAL_DP, ("x - 1", "y^2"), ("x", "y")),
        # x - 1 is a unit of the local ring only; the global sum is (x - 1, y)
        (LOCAL_DS, ("x^2 - x", "y"), ("x - 1",)),
    ])
    def test_saturation_is_I_when_I_plus_J_is_unit(self, order, I, J):
        I, J = ideal(R2, order, *I), ideal(R2, order, *J)
        assert I.sum(J).is_unit()
        assert saturation(I, J) is I
        assert ideal_quotient(I, J).equals(I)

    def test_saturation_stabilizes_quickly(self):
        rng = random.Random(8)
        for _ in range(8):
            I = TestIdealQuotient._rand_monomial_ideal(rng)
            J = TestIdealQuotient._rand_monomial_ideal(rng)
            maxdeg = max(g.total_degree() for g in I.gens)
            current, steps = I, 0
            while True:
                nxt = ideal_quotient(current, J)
                steps += 1
                if current.contains_ideal(nxt):
                    break
                current = nxt
            assert current.equals(saturation(I, J))
            assert steps <= 1 + maxdeg


class TestQuotientDimension:
    def test_monomial_staircase(self):
        qd = ideal(R2, LOCAL_DS, "x^2", "y").quotient_dimension()
        assert qd.value == 2
        assert [m for _, m in qd.witness] == [(0, 0), (1, 0)]

    def test_infinite(self):
        assert ideal(R2, LOCAL_DS, "x").quotient_dimension() is INFINITE

    def test_tau_dimension_with_rank_oracle(self):
        gens = ["x^3", "x^2 y", "y^2"]
        qd = ideal(R2, LOCAL_DS, *gens).quotient_dimension()
        assert qd.value == 5
        assert {m for _, m in qd.witness} == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)}
        # independent count: m^4 lies inside, so the degree-4 slice decides
        oracle = quotient_dim_upto([d(P(g)) for g in gens], 2, 4)
        assert oracle == 5

    def test_unit_ideal(self):
        assert ideal(R2, LOCAL_DS, "1 + x").quotient_dimension().value == 0
        assert ideal(R2, GLOBAL_DP, "1").quotient_dimension().value == 0

    def test_zero_ideal(self):
        assert Ideal(R2, [], LOCAL_DS).quotient_dimension() is INFINITE

    def test_truncated_shortcut_matches_full_basis(self):
        # the local fast path must reproduce the standard-basis answer,
        # witness order included; forcing basis() first disables the shortcut
        rng = random.Random(4451)
        rand = TestNormalFormVsOracle._rand_poly
        for trial in range(20):
            k = rng.randint(2, 3)
            gens = [P(f"x^{k}"), P(f"y^{k}")]
            for _ in range(rng.randint(0, 2)):
                extra = rand(rng, 4)
                if not extra.is_zero():
                    gens.append(extra)
            vecs = [(g,) for g in gens]
            fast = Submodule(R2, 1, vecs, LOCAL_DS)
            slow = Submodule(R2, 1, vecs, LOCAL_DS)
            slow.basis()
            assert fast.quotient_dimension() == slow.quotient_dimension(), trial

    def test_truncated_shortcut_matches_on_rank_two(self):
        # value and witness must match the full basis; the unpadded inputs
        # mix finite and infinite quotients, and the one-variable ones have a
        # degree without free monomials under position-over-term order yet
        # are infinite, so only a degree-first count may certify
        rng = random.Random(90125)
        rand = TestNormalFormVsOracle._rand_poly
        zero = R2.zero()
        pads = [(P("x^2"), zero), (P("y^2"), zero), (zero, P("x^2")),
                (zero, P("y^3"))]
        inputs = [(R2, pads + [(rand(rng, 3), rand(rng, 3)) for _ in range(2)])
                  for _ in range(10)]
        unpadded = [
            [("x", "y"), ("y", "x")],
            [("x", "y"), ("y", "x"), ("x^2", "0")],
            [("x^2", "y"), ("y^2", "x")],
            [("x^2", "y"), ("y^2", "x"), ("x y", "0")],
            [("1 + x", "y"), ("x", "y^2")],
            [("1 + x", "y"), ("x", "y^2"), ("0", "x^3")],
            [("x^3", "1")],
            [("x^2", "x"), ("y^2", "y")],
            [("x^3", "1 + y"), ("y^3", "x")],
            [("x y", "x^2 + y^2"), ("x^3", "y"), ("y^4", "x")],
            [("2x - 3y^2", "x y"), ("y + x^2", "1/2 x"), ("0", "y^3 - x^3")],
            [("x^2 - y", "x"), ("x y", "y^2"), ("y^2", "x^3")],
        ]
        inputs += [(R2, [(P(a), P(b)) for a, b in vecs]) for vecs in unpadded]
        one_variable = [[(P("x^3", R1), P("1", R1))],
                        [(P("x^3", R1), P("1 + x", R1))],
                        [(P("x^2", R1), P("x", R1))]]
        inputs += [(R1, vecs) for vecs in one_variable]
        for trial, (ring, vecs) in enumerate(inputs):
            vecs = [v for v in vecs if any(not p.is_zero() for p in v)]
            fast = Submodule(ring, 2, vecs, LOCAL_DS)
            slow = Submodule(ring, 2, vecs, LOCAL_DS)
            slow.basis()
            assert fast.quotient_dimension() == slow.quotient_dimension(), trial
        for vecs in one_variable:
            assert Submodule(R1, 2, vecs, LOCAL_DS).quotient_dimension() is INFINITE

    def test_truncated_shortcut_infinite_falls_back(self):
        sub = Submodule(R2, 1, [(P("x y"),), (P("x^2"),)], LOCAL_DS)
        assert sub.quotient_dimension() is INFINITE


class TestRelativeQuotientDimension:
    def test_regression_value(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        J = ideal(R2, LOCAL_DS, "x^3", "x^2 y", "y^2")
        assert relative_quotient_dimension(I, J).value == 3

    def test_self_quotient(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        assert relative_quotient_dimension(I, I).value == 0

    def test_one_variable(self):
        I = Ideal(R1, [parse_poly("x", R1)], LOCAL_DS)
        J = Ideal(R1, [parse_poly("x^3", R1)], LOCAL_DS)
        assert relative_quotient_dimension(I, J).value == 2

    def test_precondition(self):
        I = ideal(R2, LOCAL_DS, "x^2")
        J = ideal(R2, LOCAL_DS, "y")
        with pytest.raises(GermforgeError) as ei:
            relative_quotient_dimension(I, J)
        assert ei.value.code == "PRECONDITION_VIOLATED"

    def test_difference_formula(self):
        # dim I/J = dim O/J - dim O/I when both quotients are finite
        pairs = [
            (["x^2", "y"], ["x^3", "x^2 y", "y^2"]),
            (["x", "y"], ["x^2", "x y", "y^3"]),
            (["x^2", "x y", "y^2"], ["x^3", "x^2 y", "x y^2", "y^3"]),
        ]
        for gi, gj in pairs:
            I = ideal(R2, LOCAL_DS, *gi)
            J = ideal(R2, LOCAL_DS, *gj)
            rel = relative_quotient_dimension(I, J)
            assert rel.value == (J.quotient_dimension().value
                                 - I.quotient_dimension().value)

    def test_witness_spans_quotient(self):
        # witness entries (j, m) stand for m * gens[j]; their count is the
        # dimension and each witness element is outside J
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        J = ideal(R2, LOCAL_DS, "x^3", "x^2 y", "y^2")
        rel = relative_quotient_dimension(I, J)
        assert len(rel.witness) == rel.value
        for pos, m in rel.witness:
            elem = I.gens[pos].term_mul(m, Fraction(1))
            assert not J.contains(elem)


class TestSyzygies:
    def test_koszul_pair(self):
        syz = module_syzygies([(P("x"),), (P("y"),)], R2, 1)
        expected = Submodule(R2, 2, [(P("y"), P("-x"))], GLOBAL_DP)
        assert syz.equals(expected)

    def test_single_vector_over_domain(self):
        syz = module_syzygies([(P("x^2"), P("y"))], R2, 2)
        assert not syz.gens

    def test_evaluation_postcheck(self):
        vecs = [(P("x^2"),), (P("y"),), (P("x^2 y"),)]
        syz = module_syzygies(vecs, R2, 1)
        assert syz.gens
        for s in syz.gens:
            total = sum((c * v[0] for c, v in zip(s, vecs)), R2.zero())
            assert total.is_zero()
        assert syz.contains((P("y"), R2.zero(), P("-1")))


def theta_blocks(ring, gens):
    """The derivative and generator-multiple blocks of theta_preserving."""
    r, zero = len(gens), ring.zero()
    derivatives = [tuple(g.derive(i) for g in gens) for i in range(ring.n)]
    multiples = [tuple(g if l == j else zero for l in range(r))
                 for j in range(r) for g in gens]
    return derivatives, multiples, r


class TestPreimageByElimination:
    """The elimination against the route it replaced: the whole syzygy
    kernel of targets + sub_gens, projected onto the first k entries,
    deduplicated and stripped of zero heads. Both are the reduced global
    basis of the preimage, so the generators agree in value and order."""

    @staticmethod
    def _projected_kernel(targets, sub_gens, ring, rank):
        k = len(targets)
        out = []
        for s in module_syzygies(list(targets) + list(sub_gens), ring, rank).gens:
            head = s[:k]
            if not vec_is_zero(head) and head not in out:
                out.append(head)
        return out

    def _assert_same(self, targets, sub_gens, ring, rank):
        ours = preimage_module(targets, sub_gens, ring, rank)
        assert ours
        assert ours == self._projected_kernel(targets, sub_gens, ring, rank)

    @pytest.mark.parametrize("ring, gens", [
        pytest.param(R2, ("x^2", "y"), id="cusp"),
        pytest.param(R3, ("x y", "z"), id="d4rel"),
    ])
    def test_theta_blocks(self, ring, gens):
        derivatives, multiples, r = theta_blocks(ring, [P(g, ring) for g in gens])
        self._assert_same(derivatives, multiples, ring, r)

    def test_random_ideals(self):
        # theta blocks of two random generators, and every third input the
        # subideal preimage of I times random multipliers under I's generators
        rng = random.Random(1)
        rand = TestGroebnerVsSympy._rand_poly
        for trial in range(12):
            ring = R2 if trial % 2 == 0 else R3
            gens = [g for g in (rand(rng, ring) for _ in range(2)) if not g.is_zero()]
            if trial % 3 == 2:
                targets = [(g,) for g in gens]
                sub = [(g * rand(rng, ring),) for g in gens]
                self._assert_same(targets, sub, ring, 1)
            else:
                self._assert_same(*theta_blocks(ring, gens)[:2], ring, len(gens))


class TestModuleIntersection:
    """Intersections of monomial submodules are the componentwise lcms, and
    the reduced basis of a monomial module is its minimal monomials."""

    @pytest.mark.parametrize("order", [GLOBAL_DP, LOCAL_DS])
    @pytest.mark.parametrize("ring, U, V, expected", [
        pytest.param(R2, [("x", "0"), ("0", "y")], [("y", "0"), ("0", "x")],
                     [("x y", "0"), ("0", "x y")], id="rank2"),
        pytest.param(R3, [("x^2", "0", "0"), ("y^2", "0", "0"), ("0", "y", "0"),
                          ("0", "0", "x z")],
                     [("x y", "0", "0"), ("0", "y^2", "0"), ("0", "0", "z^2")],
                     [("x^2 y", "0", "0"), ("x y^2", "0", "0"), ("0", "y^2", "0"),
                      ("0", "0", "x z^2")], id="rank3"),
    ])
    def test_monomial_lcms(self, ring, U, V, expected, order):
        def module(rows):
            return Submodule(ring, len(rows[0]), [vec(ring, *row) for row in rows], order)

        inter = module_intersection(module(U), module(V))
        assert inter.order == order
        assert set(inter.gens) == {vec(ring, *row) for row in expected}
        assert len(inter.gens) == len(expected)


class TestEliminationPostchecks:
    """A basis whose zero-head element has a perturbed tail must trip the
    postcheck that replaced the syzygy check."""

    @staticmethod
    def _perturb_tail(monkeypatch, rank, head):
        """Add 1 to the last entry of the first basis element of the given
        rank whose first head entries vanish."""
        original = stdbasis.std_basis_vectors

        def perturbed(vectors, order, r):
            basis = original(vectors, order, r)
            if r == rank:
                for i, b in enumerate(basis):
                    if vec_is_zero(b[:head]):
                        basis[i] = b[:-1] + (b[-1] + b[-1].ring.one(),)
                        break
            return basis

        monkeypatch.setattr(stdbasis, "std_basis_vectors", perturbed)

    def test_preimage_postcheck(self, monkeypatch):
        # rank 1 + 2 rows; adding 1 to a tail adds y, which is outside (xy)
        targets, sub = [(P("x"),), (P("y"),)], [(P("x y"),)]
        assert preimage_module(targets, sub, R2, 1)
        self._perturb_tail(monkeypatch, 3, 1)
        with pytest.raises(AssertionError, match="^preimage postcheck failed$"):
            preimage_module(targets, sub, R2, 1)

    def test_intersection_postcheck(self, monkeypatch):
        # rank 2 + 2 rows; (xy, 1) or (1, xy) lies in neither module
        U = Submodule(R2, 2, [vec(R2, "x", "0"), vec(R2, "0", "y")], GLOBAL_DP)
        V = Submodule(R2, 2, [vec(R2, "y", "0"), vec(R2, "0", "x")], GLOBAL_DP)
        assert module_intersection(U, V).gens
        self._perturb_tail(monkeypatch, 4, 2)
        with pytest.raises(AssertionError, match="^intersection postcheck failed$"):
            module_intersection(U, V)


class TestHilbertSamuel:
    def test_mu_zero(self):
        assert hilbert_samuel(ideal(R2, LOCAL_DS, "x^2", "y"), 0) == 0

    def test_mu_one(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        assert hilbert_samuel(I, 1) == 1
        # independent: row-reduce {x^2, y} slices against m^2 up to degree 2
        rows = multiples_upto([d(P("x^2")), d(P("y"))], 2, 1)
        assert gauss_rank(rows) == 1

    def test_unit_ideal(self):
        from math import comb

        I = ideal(R2, LOCAL_DS, "1")
        for m in range(4):
            assert hilbert_samuel(I, m) == comb(2 + m, 2)

    @pytest.mark.parametrize("names, gens", [
        pytest.param("x y z", ("x*y", "z"), id="d3"),
        pytest.param("x y", ("x^2*y",), id="not-m-primary"),
        pytest.param("x y", (), id="zero"),
        pytest.param("x y", ("1",), id="unit"),
    ])
    def test_against_truncated_shift_oracle(self, names, gens):
        ring = Ring(names.split())
        I = Ideal(ring, [parse_poly(g, ring) for g in gens], LOCAL_DS)
        for m in range(9):
            rows = multiples_upto([d(g) for g in I.gens], ring.n, m)
            assert hilbert_samuel(I, m) == gauss_rank(rows)

    def test_monotone(self):
        for gens in (["x^2", "y"], ["x^3", "x^2 y", "y^2"], ["x^2 - y^3"]):
            I = ideal(R2, LOCAL_DS, *gens)
            vals = [hilbert_samuel(I, m) for m in range(6)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestRadical:
    def test_monomial(self):
        I = ideal(R2, GLOBAL_DP, "x^2", "y")
        assert zero_dim_radical(I).equals(ideal(R2, GLOBAL_DP, "x", "y"))

    def test_already_radical(self):
        I = ideal(R2, GLOBAL_DP, "x", "y")
        assert zero_dim_radical(I).equals(I)

    def test_squarefree_parts(self):
        I = ideal(R2, GLOBAL_DP, "x^2 - x", "y^2")
        assert zero_dim_radical(I).equals(ideal(R2, GLOBAL_DP, "x^2 - x", "y"))

    def test_local_order_unsupported(self):
        with pytest.raises(GermforgeError) as ei:
            zero_dim_radical(ideal(R2, LOCAL_DS, "x^2", "y"))
        assert ei.value.code == "LOCAL_ORDER_UNSUPPORTED"

    def test_not_zero_dimensional(self):
        with pytest.raises(GermforgeError) as ei:
            zero_dim_radical(ideal(R2, GLOBAL_DP, "x"))
        assert ei.value.code == "NOT_ZERO_DIMENSIONAL"

    def test_radical_is_idempotent_and_contains(self):
        I = ideal(R2, GLOBAL_DP, "x^3 - x^2", "y^3")
        rad = zero_dim_radical(I)
        assert rad.contains_ideal(I)
        assert zero_dim_radical(rad).equals(rad)

    @pytest.mark.parametrize("p, q", [
        ("(x-1)^3 (x+2)^2 x", "(y^2+1)^2 (y-3)"),
        ("x^4", "(y - 1/2)^2 (y + 3)^3"),
        ("(x^2 - 2)^3", "y^5 - y^3"),
        ("(x^2 + x + 1)^2 (3x - 1)", "y^2"),
    ])
    def test_squarefree_parts_against_sympy(self, p, q):
        # the radical of (p(x), q(y)) is (sqf p, sqf q), whose reduced dp
        # basis is the two monic squarefree parts
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols(R2.names)
        theirs = {sympy.Poly(sympy.sqf_part(to_sympy(P(text), symbols)), *symbols,
                             domain="QQ").monic().as_expr() for text in (p, q)}
        rad = zero_dim_radical(ideal(R2, GLOBAL_DP, p, q))
        assert {to_sympy(g, symbols) for g in rad.basis()} == theirs

    def test_unit_ideal(self):
        for gens in (["1"], ["x^2 - 1", "x - 3", "y^2"]):
            assert [str(g) for g in zero_dim_radical(ideal(R2, GLOBAL_DP, *gens)).basis()] == ["1"]


class TestMinimalPolynomial:
    @pytest.mark.parametrize("gens, var, coeffs", [
        (("2*x^2 + 3*x - 1", "y - x"), 0, [Fraction(-1, 2), Fraction(3, 2), 1]),
        (("x^3 - y", "y^2 - 3*x*y + 1/2"), 0, [Fraction(1, 2), 0, 0, 0, -3, 0, 1]),
        (("x*y - 1", "x^2 + y^2 - 5/2"), 1, [1, 0, Fraction(-5, 2), 0, 1]),
    ])
    def test_pinned_coefficients(self, gens, var, coeffs):
        assert minimal_polynomial(ideal(R2, GLOBAL_DP, *gens), var) == coeffs


class TestArtinRees:
    def test_failing_inclusion(self):
        assert artin_rees_check(ideal(R2, LOCAL_DS, "x^2", "y"), 0, 1) is False

    def test_unit_ideal(self):
        assert artin_rees_check(ideal(R2, LOCAL_DS, "1"), 3, 2) is True

    def test_holding_inclusion(self):
        assert artin_rees_check(ideal(R2, LOCAL_DS, "x^2", "y"), 2, 3) is True


class TestPowerIdeal:
    def test_generators(self):
        mk = power_ideal(R2, 2)
        assert {str(g) for g in mk.gens} == {"x^2", "x*y", "y^2"}

    def test_zeroth_power(self):
        assert power_ideal(R2, 0).is_unit()
