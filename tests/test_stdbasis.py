import random
from fractions import Fraction
from itertools import product
from math import prod

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
    hilbert_samuel_values,
    ideal_quotient,
    minimal_polynomial,
    module_syzygies,
    power_ideal,
    preimage_module,
    saturation,
    squarefree_part,
    subideal_preimage,
    vec_is_zero,
    vec_zero,
    zero_dim_radical,
)
import germforge.stdbasis as stdbasis
from germforge.tangent import theta_preserving

from helpers import (
    d,
    dict_shift,
    dict_trunc,
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


def intersection(U, V):
    """U intersect V, in U's order: the sums c_i u_i over the preimage of V
    under U's generators u_i."""
    ring = U.ring
    pre = preimage_module(U.gens, V, U.order)
    return Submodule(ring, U.rank, [tuple(ring.sum(ci * u[e] for ci, u in zip(c, U.gens))
                                          for e in range(U.rank)) for c in pre.gens], U.order)


def labels(text):
    """Witness labels from 'pos:e1,e2,...' words, the e_i the exponents."""
    return tuple((int(pos), tuple(int(e) for e in mono.split(",")))
                 for pos, mono in (word.split(":") for word in text.split()))


# (ring, generators, non-members, the local length and its witness). The
# non-members are the vectors whose Mora weak normal forms were pinned while
# a local engine existed, and the lengths and witnesses are that engine's
# answers. The sixth and eighth quotients are infinite, so the colon decides
# their memberships; the truncated model decides the others.
LOCAL_ANSWERS = [
    (R2, [("x - y^2 + 1/2 x^2",), ("y^3 - 2 x y",)], [("x",), ("x y + 1/3 y^2",)],
     (3, labels("0:0,0 0:0,1 0:0,2"))),
    (R3, [("x - y z + 2/3 x^2",), ("y^2 - z^3",), ("z^2 - 1/2 x y^2",)], [("z + 1/2 x",)],
     (4, labels("0:0,0,0 0:0,0,1 0:0,1,0 0:0,1,1"))),
    (R2, [("2x - 3y^2 + x^3",), ("x y + 1/2 y^3",)], [("x + 1/2 y",)],
     (3, labels("0:0,0 0:0,1 0:0,2"))),
    (R2, [("x + 1/2 x^2", "y^2"), ("y", "x - 2/3 y^3"), ("x y", "0")],
     [("y^2", "1"), ("x", "0")],
     (7, labels("0:0,0 1:0,0 1:0,1 1:1,0 1:0,2 1:1,1 1:1,2"))),
    (R2, [("2x - 3y^2", "x y"), ("y + x^2", "1/2 x"), ("0", "y^3 - x^3")],
     [("y", "0"), ("x", "y")],
     (7, labels("0:0,0 1:0,0 1:0,1 1:1,0 1:0,2 1:1,1 1:1,2"))),
    (R2, [("x^3",), ("3/2*x^3*y - 1/3*x*y^3 - 2/3*x^2",)], [("3*x^2*y - 2/3*x^2",)],
     (None, ())),
    (R2, [("x^2*y^2 - 2*y^3 + x^2",), ("-3/2*x*y^3 - x^2*y",)], [("3/2*x^2*y - 2*x^2",)],
     (8, labels("0:0,0 0:0,1 0:1,0 0:0,2 0:1,1 0:0,3 0:1,2 0:0,4"))),
    (R2, [("-3*x^3 + 2/3*x*y + 3*x",), ("x^3*y - 3*x^2*y^2 + 2/3*x*y^3",)],
     [("2*y^2 - 3*x",)], (None, ())),
]

# The (value, witness) answers of the full local standard basis, recorded
# from the local engine before its deletion, for the inputs of
# test_truncated_shortcut_matches_full_basis and _on_rank_two in order.
FULL_BASIS_ANSWERS = [
    (9, labels("0:0,0 0:0,1 0:1,0 0:0,2 0:1,1 0:2,0 0:1,2 0:2,1 0:2,2")),
    (3, labels("0:0,0 0:0,1 0:1,0")),
    (4, labels("0:0,0 0:0,1 0:1,0 0:1,1")),
    (1, labels("0:0,0")),
    (4, labels("0:0,0 0:0,1 0:1,0 0:1,1")),
    (0, ()),
    (3, labels("0:0,0 0:0,1 0:1,0")),
    (4, labels("0:0,0 0:0,1 0:1,0 0:1,1")),
    (4, labels("0:0,0 0:0,1 0:1,0 0:1,1")),
    (0, ()),
    (4, labels("0:0,0 0:0,1 0:1,0 0:1,1")),
    (4, labels("0:0,0 0:0,1 0:1,0 0:1,1")),
    (9, labels("0:0,0 0:0,1 0:1,0 0:0,2 0:1,1 0:2,0 0:1,2 0:2,1 0:2,2")),
    (3, labels("0:0,0 0:0,1 0:0,2")),
    (2, labels("0:0,0 0:1,0")),
    (9, labels("0:0,0 0:0,1 0:1,0 0:0,2 0:1,1 0:2,0 0:1,2 0:2,1 0:2,2")),
    (3, labels("0:0,0 0:1,0 0:2,0")),
    (3, labels("0:0,0 0:1,0 0:2,0")),
    (9, labels("0:0,0 0:0,1 0:1,0 0:0,2 0:1,1 0:2,0 0:1,2 0:2,1 0:2,2")),
    (9, labels("0:0,0 0:0,1 0:1,0 0:0,2 0:1,1 0:2,0 0:1,2 0:2,1 0:2,2")),
]

RANK_TWO_ANSWERS = [
    (3, labels("1:0,0 1:0,1 1:0,2")),
    (6, labels("1:0,0 1:0,1 1:1,0 1:0,2 1:1,1 1:1,2")),
    (6, labels("0:0,0 1:0,0 1:0,1 1:1,0 1:0,2 1:1,1")),
    (2, labels("1:0,0 1:1,0")),
    (5, labels("1:0,0 1:0,1 1:1,0 1:0,2 1:1,1")),
    (6, labels("1:0,0 1:0,1 1:1,0 1:0,2 1:1,1 1:1,2")),
    (7, labels("0:0,0 0:0,1 0:1,0 0:1,1 1:0,0 1:0,1 1:0,2")),
    (6, labels("0:0,0 0:1,0 1:0,0 1:0,1 1:1,0 1:0,2")),
    (5, labels("0:0,0 0:0,1 0:1,0 1:0,0 1:1,0")),
    (8, labels("0:0,0 0:0,1 0:1,0 0:1,1 1:0,0 1:0,1 1:1,0 1:0,2")),
    (None, ()),
    (5, labels("0:0,0 1:0,0 1:0,1 1:1,0 1:0,2")),
    (None, ()),
    (7, labels("0:0,0 0:0,1 0:1,0 1:0,0 1:0,1 1:1,0 1:1,1")),
    (None, ()),
    (6, labels("1:0,0 1:0,1 1:1,0 1:0,2 1:2,0 1:0,3")),
    (None, ()),
    (None, ()),
    (None, ()),
    (10, labels("0:0,0 0:0,1 0:1,0 0:0,2 0:2,0 0:0,3 1:0,0 1:0,1 1:1,0 1:1,1")),
    (7, labels("0:0,0 1:0,0 1:0,1 1:1,0 1:0,2 1:1,1 1:1,2")),
    (10, labels("0:0,0 0:1,0 0:2,0 1:0,0 1:0,1 1:1,0 1:0,2 1:2,0 1:3,0 1:4,0")),
    (None, ()),
    (None, ()),
    (None, ()),
]


class TestStdBasis:
    def test_already_interreduced_local(self):
        basis = Ideal(R2, [P("x^2"), P("y")], LOCAL_DS).basis()
        assert lead_monos(basis, LOCAL_DS) == [(0, 1), (2, 0)]
        assert len(basis) == 2

    def test_unit_factor_local(self):
        # locally (x - x^2) = (x): 1 - x is a unit; both orders share the
        # global basis, and only the local ideal holds x
        local = Ideal(R2, [P("x - x^2")], LOCAL_DS)
        glob = local.with_order(GLOBAL_DP)
        assert local.basis() == glob.basis() == [P("x^2 - x")]
        assert local.contains(P("x"))
        assert not glob.contains(P("x"))

    def test_duplicate_collapse(self):
        basis = Ideal(R2, [P("x"), P("x")], LOCAL_DS).basis()
        assert len(basis) == 1
        assert basis[0] == P("x")

    def test_global_cusp_jacobian(self):
        basis = Ideal(R2, [P("3x^2"), P("2y")], GLOBAL_DP).basis()
        assert [str(b) for b in basis] == ["y", "x^2"] or lead_monos(basis, GLOBAL_DP) == [(0, 1), (2, 0)]

    def test_input_generators_reduce_to_zero(self):
        gens = [P("x^2 - y^3"), P("x y + x^3"), P("y^2 - x")]
        for order in (GLOBAL_DP, LOCAL_DS):
            I = Ideal(R2, gens, order)
            for g in gens:
                assert I.normal_form(g).is_zero()


@st.composite
def packed_terms(draw):
    """A packing for 1 to 11 variables and rank 1 to 3, with two terms whose
    product stays below the degree limit."""
    n = draw(st.integers(1, 11))
    rank = draw(st.integers(1, 3))
    # small exponents make ties and divisors likely; 11 * 1489 < 2^14
    exps = st.one_of(st.integers(0, 2), st.integers(0, 1489))
    a, b = (tuple(draw(st.lists(exps, min_size=n, max_size=n))) for _ in range(2))
    p, q = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
    return TermPacking(n), (p, a), (q, b)


class TestTermPacking:
    """The int order, the masked-subtract divisibility test and the shift by
    addition against the tuple operations they replace."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(packed_terms())
    def test_int_order_is_position_over_term(self, case):
        pk, (p, a), (q, b) = case
        ka, kb = pk.pack(p, a), pk.pack(q, b)
        # a smaller int is a greater term; position 0 is greatest
        assert (ka < kb) == ((-p, GLOBAL_DP.key(a)) > (-q, GLOBAL_DP.key(b)))
        assert (ka == kb) == ((p, a) == (q, b))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(packed_terms())
    def test_masked_subtract_is_divisibility(self, case):
        pk, (p, a), (q, b) = case
        divides = not (pk.pack(q, b) - (pk.pack(p, a) - pk.bias)) & pk.mask
        assert divides == (p == q and mono_divides(a, b))
        prod = mono_mul(a, b)
        assert not (pk.pack(q, prod) - (pk.pack(q, a) - pk.bias)) & pk.mask

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(packed_terms())
    def test_adding_keys_multiplies(self, case):
        pk, (p, a), (q, b) = case
        one = pk.pack(0, (0,) * pk.n)
        assert pk.pack(p, a) + pk.pack(0, b) - one == pk.pack(p, mono_mul(a, b))
        # the reducer's shift: t - l moves every term of l's vector by t/l
        t, lead = pk.pack(q, mono_mul(a, b)), pk.pack(q, a)
        assert pk.pack(p, a) + (t - lead) == pk.pack(p, mono_mul(a, b))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(packed_terms())
    def test_unpack_inverts_pack(self, case):
        pk, (p, a), (q, b) = case
        for pos, m in ((p, a), (q, b), (q, mono_mul(a, b))):
            key = pk.pack(pos, m)
            assert pk.unpack(key) == (pos, m)
            assert pk.degree(key) == sum(m)

    @pytest.mark.parametrize("order", [GLOBAL_DP, LOCAL_DS])
    def test_degree_just_below_the_limit(self, order):
        pk = TermPacking(3)
        m = (DEGREE_LIMIT - 1, 0, 0)
        assert pk.unpack(pk.pack(2, m)) == (2, m)
        assert pk.pack(0, m) < pk.pack(1, (0, 0, 0))
        # both orders pack through the one reducer, and the guard stays quiet
        I = ideal(R2, order, f"x^{DEGREE_LIMIT - 1}", "y")
        assert I.basis() == [P("y"), P(f"x^{DEGREE_LIMIT - 1}")]
        nf = I.normal_form(P(f"x^{DEGREE_LIMIT - 2} + y"))
        assert nf == P(f"x^{DEGREE_LIMIT - 2}")


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

    def test_local_weak_nf_unit_example(self):
        # y/(1+x) is in the local ideal (y + x y), whose quotient is infinite,
        # so the colon decides: (y + x y) : y = (1 + x) is a unit at 0
        I = ideal(R2, LOCAL_DS, "y + x y")
        assert not I.normal_form(P("y")).is_zero()
        assert I.contains(P("y"))


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
            assert I.contains(p) == mem, f"trial {trial}"

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
        """Check I's basis and three normal forms against sympy; when sympy
        finds I zero-dimensional, check its quotient dimension and witness
        too and return that dimension, else return None."""
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
        if not G.is_zero_dimensional:
            return None
        # the standard monomials of sympy's leads: each lies below the pure
        # power of every variable among them
        leads = [q.monoms(order="grevlex")[0] for q in G.polys]
        box = [min(m[i] for m in leads if m[i] == sum(m)) for i in range(ring.n)]
        standard = sorted(((0, m) for m in product(*map(range, box))
                           if not any(all(a >= b for a, b in zip(m, lm)) for lm in leads)),
                          key=lambda t: GLOBAL_DP.key(t[1]))
        qd = I.quotient_dimension()
        assert (qd.value, qd.witness) == (len(standard), tuple(standard)), (trial, gens)
        return qd.value

    def test_bases_and_normal_forms(self):
        pytest.importorskip("sympy")
        rng = random.Random(20261018)
        finite = 0
        for trial in range(24):
            ring = R2 if trial % 2 else R3
            gens = [self._rand_poly(rng, ring) for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if gens:
                finite += self._check_against_sympy(rng, ring, gens, 3, trial) is not None
        # the quotient oracle ran on the draws that sympy finds finite
        assert finite == 10

    def test_wide_rings_large_denominators(self):
        # four to six variables and denominators up to 97: the primitive
        # basis elements have leading coefficients other than 1, so the
        # reducer's scaling and content steps run on most reductions. None
        # of the 18 random draws is zero-dimensional, so four more pair
        # each of four or five variables x_i with x_i^2 plus a random
        # linear form: 2^n common zeros, so the quotient oracle runs on
        # them; a further random generator would leave only the origin
        pytest.importorskip("sympy")
        rng = random.Random(20261019)
        names = ["x", "y", "z", "u", "v", "w"]
        dims = []
        for trial in range(22):
            if trial < 18:
                ring = Ring(names[:4 + trial % 3])
                gens = [self._rand_poly(rng, ring, 97) for _ in range(rng.randint(3, 4))]
                gens = [g for g in gens if not g.is_zero()]
            else:
                ring = Ring(names[:4 + trial % 2])
                gens = [ring.var(i) ** 2 + Poly(ring, {
                    tuple(int(k == j) for k in range(ring.n)):
                        Fraction(rng.randint(-5, 5), rng.randint(1, 97))
                    for j in range(ring.n)}) for i in range(ring.n)]
            if gens:
                dims.append(self._check_against_sympy(rng, ring, gens, 97, trial))
        assert dims == [None] * 18 + [16, 32, 16, 32]

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
        # for monomial ideals the intersection, read off a preimage, is the
        # lcm ideal
        rng = random.Random(7)
        from germforge.polyring import mono_lcm

        for _ in range(10):
            mi = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
            mj = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
            U = Submodule(R2, 1, [(R2.monomial(m),) for m in mi], GLOBAL_DP)
            V = Submodule(R2, 1, [(R2.monomial(m),) for m in mj], GLOBAL_DP)
            expected = Submodule(R2, 1, [(R2.monomial(mono_lcm(a, b)),)
                                         for a in mi for b in mj], GLOBAL_DP)
            assert intersection(U, V).equals(expected)

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
        # the truncated model must reproduce the answer of a full local
        # standard basis, witness order included
        rng = random.Random(4451)
        rand = TestNormalFormVsOracle._rand_poly
        for trial in range(20):
            k = rng.randint(2, 3)
            gens = [P(f"x^{k}"), P(f"y^{k}")]
            for _ in range(rng.randint(0, 2)):
                extra = rand(rng, 4)
                if not extra.is_zero():
                    gens.append(extra)
            qd = Submodule(R2, 1, [(g,) for g in gens], LOCAL_DS).quotient_dimension()
            assert (qd.value, qd.witness) == FULL_BASIS_ANSWERS[trial], trial

    def test_truncated_shortcut_matches_on_rank_two(self):
        # value and witness must match the full local basis; the unpadded inputs
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
            qd = Submodule(ring, 2, vecs, LOCAL_DS).quotient_dimension()
            assert (qd.value, qd.witness) == RANK_TWO_ANSWERS[trial], trial
        for vecs in one_variable:
            assert Submodule(R1, 2, vecs, LOCAL_DS).quotient_dimension() is INFINITE

    def test_truncated_shortcut_infinite_falls_back(self):
        sub = Submodule(R2, 1, [(P("x y"),), (P("x^2"),)], LOCAL_DS)
        assert sub.quotient_dimension() is INFINITE


class TestLocalAnswers:
    """Memberships and lengths at the origin, read from the global basis,
    the truncated model and one colon."""

    @staticmethod
    def _module(ring, gens, order=LOCAL_DS):
        return Submodule(ring, len(gens[0]), [vec(ring, *g) for g in gens], order)

    @pytest.mark.parametrize("ring, gens, non_members, answer", LOCAL_ANSWERS)
    def test_memberships_pinned(self, ring, gens, non_members, answer):
        M = self._module(ring, gens)
        assert all(M.contains(g) for g in M.gens)
        for v in non_members:
            assert not M.contains(vec(ring, *v)), v

    @pytest.mark.parametrize("ring, gens, non_members, answer", LOCAL_ANSWERS)
    def test_quotient_dimension_pinned(self, ring, gens, non_members, answer):
        qd = self._module(ring, gens).quotient_dimension()
        assert (qd.value, qd.witness) == answer

    def test_globally_infinite_locally_finite(self):
        # the line y = 1 makes the global quotient infinite; at the origin
        # 1 - y is a unit and the ideal is (x^5, y^5)
        gens = [P("x^5 - x^5 y"), P("y^5 - y^6")]
        local, glob = Ideal(R2, gens, LOCAL_DS), Ideal(R2, gens, GLOBAL_DP)
        assert glob.quotient_dimension() is INFINITE
        qd = local.quotient_dimension()
        assert qd.value == 25
        assert set(qd.witness) == {(0, (a, b)) for a in range(5) for b in range(5)}
        assert local.contains(P("x^5")) and not glob.contains(P("x^5"))
        assert not local.contains(P("x^4"))
        zero = R2.zero()
        square = Submodule(R2, 2, [(g, zero) for g in gens] + [(zero, g) for g in gens],
                           LOCAL_DS)
        assert square.quotient_dimension().value == 50

    def test_input_that_stalled_mora(self):
        # the local engine ran past 100 s on this module, its coefficients
        # growing to about 90,000 bits
        gens = [vec(R2, "-4/3x^3 + 7/2x", "-4/3x^4 - 4/3x"),
                vec(R2, "1/2x^2 + x + 5/2y", "-2/3x - 5/2y"),
                vec(R2, "-x^2 - 5/3", "-4x y^2")]
        M = Submodule(R2, 2, gens, LOCAL_DS)
        qd = M.quotient_dimension()
        assert (qd.value, qd.witness) == (1, labels("1:0,0"))
        assert self._slice_count(gens, 0) == self._slice_count(gens, 1) == 1
        assert M.contains(vec(R2, "1", "0")) and not M.contains(vec(R2, "0", "1"))

    def test_colon(self):
        M = self._module(R2, [("x", "0"), ("0", "y")], GLOBAL_DP)
        # (h, h) lies in (x) + (y) exactly when h lies in (x) and in (y)
        assert M.colon([vec(R2, "1", "1")]).equals(ideal(R2, GLOBAL_DP, "x y"))
        assert M.colon([vec(R2, "1", "0"), vec(R2, "0", "1")]).equals(
            ideal(R2, GLOBAL_DP, "x y"))
        assert M.colon([vec(R2, "x", "0"), vec(R2, "0", "x y")]).is_unit()
        assert M.colon([vec(R2, "1", "0")]).order == GLOBAL_DP

    def test_climb_that_fails_below_the_global_length_raises(self, monkeypatch):
        # (x^7, y^7) needs degree 13 and has global length 49, so cap 4 fails
        # and the climb ends at cap 49; a model that never certifies there
        # breaks the bound
        real = stdbasis.truncated_model

        def only_cap_four(gens, ring, rank, caps):
            return real(gens, ring, rank, caps) if caps == (4,) else None

        monkeypatch.setattr(stdbasis, "truncated_model", only_cap_four)
        with pytest.raises(AssertionError, match="^the local length exceeds the global one$"):
            ideal(R2, LOCAL_DS, "x^7", "y^7").quotient_dimension()

    def test_rank_two_sweep(self):
        # fixed-seed rank-2 modules in x, y with one to three generators of
        # degree at most 4; each length is checked against an independent
        # slice count: a finite answer l with certified degree d needs
        # dim O^2/(M + m^d O^2) = dim O^2/(M + m^(d+1) O^2) = l, which puts
        # m^d O^2 inside M by Nakayama, and an infinite one needs the count
        # to grow from degree 5 to 6
        for trial, gens in _sweep_modules():
            M = Submodule(R2, 2, gens, LOCAL_DS)
            qd = M.quotient_dimension()
            assert all(M.contains(g) for g in gens), trial
            if qd.is_finite:
                top = M._model.degree
                assert self._slice_count(gens, top - 1) == qd.value, trial
                assert self._slice_count(gens, top) == qd.value, trial
            else:
                assert self._slice_count(gens, 5) < self._slice_count(gens, 6), trial

    @staticmethod
    def _rand_vector(rng):
        return tuple(TestNormalFormVsOracle._rand_poly(rng, 4) if rng.random() < 0.8
                     else R2.zero() for _ in range(2))

    @staticmethod
    def _slice_count(gens, N):
        """dim O^2/(M + m^(N+1) O^2) by the test-side elimination, a
        position-tagged monomial (pos, a, b) standing for x^a y^b e_pos."""
        if N < 0:
            return 0
        rows = []
        for g in gens:
            for delta in monos_upto(2, N):
                row = {(pos,) + m: c for pos, p in enumerate(g)
                       for m, c in dict_trunc(dict_shift(d(p), delta), N).items()}
                if row:
                    rows.append(row)
        return 2 * len(monos_upto(2, N)) - gauss_rank(rows)


def _dp_lead(v):
    """The lead (position, monomial) of a nonzero vector, position over
    term with position 0 greatest, 'dp' (degree, then reverse lexicographic)
    inside a position; read here, independently of the engine."""
    pos = next(i for i, p in enumerate(v) if not p.is_zero())
    return pos, max(v[pos].terms, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))


def _elimination_rows(targets, sub_gens, ring):
    """The rows (t_i, e_i) and (s_j, 0) of preimage_module."""
    k, zero = len(targets), ring.zero()
    return ([tuple(t) + tuple(ring.one() if j == i else zero for j in range(k))
             for i, t in enumerate(targets)]
            + [tuple(s) + (zero,) * k for s in sub_gens])


def _module_inputs():
    """(name, ring, generators, preimage targets or None): the modules of
    MODULE_NORMAL_FORMS with two of their vectors as targets, and seeded
    random rank-2 modules with one random target every third trial."""
    out = []
    for n, (ring, gens, cases) in enumerate(MODULE_NORMAL_FORMS):
        targets = [vec(ring, *v) for v, _ in cases[:2]]
        out.append((f"pinned-{n}", ring, [vec(ring, *g) for g in gens], targets))
    rng = random.Random(24)
    for trial in range(12):
        gens = [v for v in (TestLocalAnswers._rand_vector(rng) for _ in range(rng.randint(1, 3)))
                if not vec_is_zero(v)] or [vec(R2, "x", "y")]
        targets = [TestLocalAnswers._rand_vector(rng)] if trial % 3 == 0 else None
        out.append((f"random-{trial}", R2, gens, targets))
    return out


def _reduced_basis_inputs():
    """(ring, rank, generators): the modules of _module_inputs, and the
    elimination rows of each with targets."""
    out = []
    for name, ring, gens, targets in _module_inputs():
        out.append(pytest.param(ring, len(gens[0]), gens, id=name))
        if targets:
            rows = _elimination_rows(targets, gens, ring)
            out.append(pytest.param(ring, len(rows[0]), rows, id=name.replace("-", "-rows-")))
    return out


def _sweep_modules():
    """(trial, generators) of the fixed-seed rank-2 sweep: one to three
    generators in x, y of degree at most 4, the trials with none skipped."""
    rng = random.Random(2203)
    for trial in range(220):
        gens = [v for v in (TestLocalAnswers._rand_vector(rng) for _ in range(rng.randint(1, 3)))
                if not vec_is_zero(v)]
        if gens:
            yield trial, gens


class TestReducedModuleBases:
    """A module basis is the unique reduced position-over-term basis: leads
    that divide no other lead, no term divisible by another element's lead
    in its position, monic elements that reduce every generator to 0, and
    one answer whatever generators of the same module it starts from."""

    @pytest.mark.parametrize("ring, rank, gens", _reduced_basis_inputs())
    def test_reduced_and_canonical(self, ring, rank, gens):
        M = Submodule(ring, rank, gens, GLOBAL_DP)
        B = M.basis()
        vectors = list(B)
        assert len(B) == len(vectors) > 0
        leads = [_dp_lead(b) for b in vectors]
        assert M.lead_terms() == leads
        for i, b in enumerate(vectors):
            pos, m = leads[i]
            assert b[pos].terms[m] == 1, (i, b)
            for j, (lpos, lm) in enumerate(leads):
                if j == i:
                    continue
                assert not (lpos == pos and mono_divides(lm, m)), (i, j)
                assert not any(mono_divides(lm, t) for t in b[lpos].terms), (i, j)
        assert all(vec_is_zero(stdbasis.reduce_vector(g, B)) for g in gens)
        rng = random.Random(len(gens))
        shuffled = gens[::-1] + [gens[0]]
        rng.shuffle(shuffled)
        scaled = [tuple(p * Fraction(-3, 7) for p in g) for g in gens] + gens[:1]
        for variant in (shuffled, scaled):
            assert list(Submodule(ring, rank, variant, GLOBAL_DP).basis()) == vectors


@st.composite
def small_ideals(draw):
    """1 to 3 generators in 2 or 3 variables, each of 1 to 3 terms with
    exponents up to 2 and small nonzero integer coefficients."""
    ring = draw(st.sampled_from([R2, R3]))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.n),
                     st.sampled_from([-3, -2, -1, 1, 2, 3]))
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=3))
    return Ideal(ring, [Poly(ring, {m: Fraction(c) for m, c in g}) for g in gens], LOCAL_DS)


class TestAxisCertificate:
    """A coordinate axis in the support proves an infinite local length;
    the saturation Ann(O^r/M) : m^infinity is the reference."""

    def test_sweep_agrees_with_the_saturation(self):
        # the inputs of TestLocalAnswers.test_rank_two_sweep
        certified = 0
        for trial, gens in _sweep_modules():
            M = Submodule(R2, 2, gens, LOCAL_DS)
            if M._holds_an_axis():
                certified += 1
                assert not M._finite_at_origin(), trial
        assert certified > 100

    @settings(max_examples=100, deadline=None)
    @given(small_ideals())
    def test_random_ideals_agree_with_the_saturation(self, I):
        M = I._module()
        assert not (M._holds_an_axis() and M._finite_at_origin())

    def test_trial_183_runs_no_saturation(self, monkeypatch):
        # the rank-two sweep input whose saturation took seconds
        def refuse(I, J):
            raise AssertionError("saturation ran")

        monkeypatch.setattr(stdbasis, "saturation", refuse)
        gens = [vec(R2, "-1/4x^4 + 9/4x^2 - 3x", "-x y^3 - x - 2"),
                vec(R2, "-2x^3 - x", "3x y^3 - x^2 - 5y^2"),
                vec(R2, "0", "2x^4 + 5/3x^3 - 3x^2 y")]
        assert Submodule(R2, 2, gens, LOCAL_DS).quotient_dimension() is INFINITE

    @staticmethod
    def _count_saturations(monkeypatch):
        calls = []
        real = stdbasis.saturation

        def counted(I, J):
            calls.append(I)
            return real(I, J)

        monkeypatch.setattr(stdbasis, "saturation", counted)
        return calls

    def test_diagonal_line_needs_the_saturation(self, monkeypatch):
        # x = y meets each axis only at the origin
        calls = self._count_saturations(monkeypatch)
        I = ideal(R2, LOCAL_DS, "x - y")
        assert not I._module()._holds_an_axis()
        assert I.quotient_dimension() is INFINITE
        assert len(calls) == 1

    @pytest.mark.parametrize("gens, length", [
        (("x y - x", "y^2 - y"), 1),
        (("x y - x", "y^7 - y^6"), 6),
    ])
    def test_line_away_from_the_origin_needs_the_saturation(self, monkeypatch, gens, length):
        # the line y = 1 misses the origin, where y - 1 is a unit
        I = ideal(R2, LOCAL_DS, *gens)
        assert I.with_order(GLOBAL_DP).quotient_dimension() is INFINITE
        assert not I._module()._holds_an_axis()
        assert I._module()._finite_at_origin()
        calls = self._count_saturations(monkeypatch)
        assert I.quotient_dimension().value == length
        # cap 4 certifies (x, y) before the global basis is asked; (x, y^6)
        # needs degree 6, so its length comes through the saturation
        assert len(calls) == (length > 4)


class TestOrderViews:
    """with_order gives a view on the same generators: the views share one
    cached global basis, and each answers in its own order."""

    @pytest.mark.parametrize("first", range(3))
    def test_module_views_build_one_basis(self, basis_calls, first):
        M = Submodule(R2, 2, [vec(R2, "x^2", "y"), vec(R2, "0", "x y - y^3")], LOCAL_DS)
        dp = M.with_order(GLOBAL_DP)
        again = dp.with_order(LOCAL_DS)
        v = vec(R2, "x^3", "x y")
        uses = [M.basis, lambda: dp.contains(v), lambda: again.normal_form(v)]
        assert M._basis is None
        uses[first]()
        assert len(basis_calls) == 1
        assert M._basis is dp._basis is again._basis
        assert M.basis() is dp.basis() is again.basis()
        assert dp.contains(v) and vec_is_zero(again.normal_form(v))
        assert len(basis_calls) == 1
        assert (dp.order, again.order) == (GLOBAL_DP, LOCAL_DS)

    @pytest.mark.parametrize("first", [LOCAL_DS, GLOBAL_DP], ids=["ds", "dp"])
    def test_ideal_views_build_one_basis(self, basis_calls, first):
        local = ideal(R2, LOCAL_DS, "x^2 - y^3", "x y")
        views = {LOCAL_DS: local, GLOBAL_DP: local.with_order(GLOBAL_DP)}
        views[first].basis()
        for view in views.values():
            assert view.normal_form(P("x^3")).is_zero()
            assert view.with_order(GLOBAL_DP).normal_form(P("y^4")).is_zero()
        assert len(basis_calls) == 1

    @pytest.mark.parametrize("first", [LOCAL_DS, GLOBAL_DP], ids=["ds", "dp"])
    def test_views_answer_in_their_own_order(self, first):
        # globally infinite (the line y = 1), locally (x^5, y^5); see
        # TestLocalAnswers.test_globally_infinite_locally_finite
        local = ideal(R2, LOCAL_DS, "x^5 - x^5 y", "y^5 - y^6")
        views = {LOCAL_DS: local, GLOBAL_DP: local.with_order(GLOBAL_DP)}
        views[first].quotient_dimension()
        assert views[LOCAL_DS].quotient_dimension().value == 25
        assert views[GLOBAL_DP].quotient_dimension() is INFINITE
        assert views[GLOBAL_DP].with_order(LOCAL_DS).quotient_dimension().value == 25
        assert views[LOCAL_DS].contains(P("x^5"))
        assert not views[GLOBAL_DP].contains(P("x^5"))


class TestOneColon:
    """Under 'ds' a membership is a global normal form of 0 or else a unit
    among the generators of M : v; a preimage postchecks against the basis
    its module S has cached."""

    @pytest.fixture
    def model_calls(self, monkeypatch):
        """The caps of every truncated_model call."""
        real = stdbasis.truncated_model
        calls = []

        def counted(gens, ring, rank, caps):
            calls.append(caps)
            return real(gens, ring, rank, caps)

        monkeypatch.setattr(stdbasis, "truncated_model", counted)
        return calls

    # (x^5 - x^5 y, y^5 - y^6) is (x^5, y^5) at the origin, but not globally
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("p, member", [
        ("x^5", True), ("x^6 y - 2 y^5", True), ("x^4", False), ("x^4 y^4", False),
    ])
    def test_local_membership_is_one_colon(self, model_calls, rank, p, member):
        gens = [P("x^5 - x^5 y"), P("y^5 - y^6")]
        zero = R2.zero()
        M = Submodule(R2, rank, [(g,) + (zero,) * (rank - 1) for g in gens], LOCAL_DS)
        v = (P(p),) + (zero,) * (rank - 1)
        assert M.contains(v) is member
        assert not M.with_order(GLOBAL_DP).contains(v)
        assert M._qdim is None and model_calls == []

    def test_preimage_reuses_the_cached_basis(self, basis_calls):
        S = Submodule(R2, 2, [vec(R2, "x^2", "y"), vec(R2, "0", "x y")], LOCAL_DS)
        S.basis()
        del basis_calls[:]
        out = preimage_module([vec(R2, "x", "0"), vec(R2, "0", "x")], S)
        assert out.gens and basis_calls == [4]


class TestRelativeQuotientDimension:
    def test_regression_value(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        J = ideal(R2, LOCAL_DS, "x^3", "x^2 y", "y^2")
        assert subideal_preimage(I, J).quotient_dimension().value == 3

    def test_self_quotient(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        assert subideal_preimage(I, I).quotient_dimension().value == 0

    def test_one_variable(self):
        I = Ideal(R1, [parse_poly("x", R1)], LOCAL_DS)
        J = Ideal(R1, [parse_poly("x^3", R1)], LOCAL_DS)
        assert subideal_preimage(I, J).quotient_dimension().value == 2

    def test_precondition(self):
        I = ideal(R2, LOCAL_DS, "x^2")
        J = ideal(R2, LOCAL_DS, "y")
        with pytest.raises(GermforgeError) as ei:
            subideal_preimage(I, J)
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
            rel = subideal_preimage(I, J).quotient_dimension()
            assert rel.value == (J.quotient_dimension().value
                                 - I.quotient_dimension().value)

    def test_witness_spans_quotient(self):
        # witness entries (j, m) stand for m * gens[j]; their count is the
        # dimension and each witness element is outside J
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        J = ideal(R2, LOCAL_DS, "x^3", "x^2 y", "y^2")
        rel = subideal_preimage(I, J).quotient_dimension()
        assert len(rel.witness) == rel.value
        for pos, m in rel.witness:
            elem = R2.monomial(m) * I.gens[pos]
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
        ours = preimage_module(targets, Submodule(ring, rank, sub_gens, GLOBAL_DP)).gens
        assert ours
        assert list(ours) == self._projected_kernel(targets, sub_gens, ring, rank)

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
    """Intersections of monomial submodules, read off a preimage, are the
    componentwise lcms, and the reduced basis of a monomial module is its
    minimal monomials."""

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

        inter = intersection(module(U), module(V))
        assert inter.order == order
        assert set(inter.basis()) == {vec(ring, *row) for row in expected}
        assert len(inter.basis()) == len(expected)


class TestEliminationPostchecks:
    """A head-free tail of an elimination that is perturbed must trip the
    postcheck that replaced the syzygy check."""

    @staticmethod
    def _perturb_tail(monkeypatch, rank, head):
        """Add 1 to the last entry of the first head-free element of each
        elimination in O^rank with head O^head: its lead lies at position
        head or past it, so it is one of the preimage's generators."""
        original = stdbasis.std_basis_vectors

        def perturbed(vectors, r):
            basis = original(vectors, r)
            if r == rank:
                pk = basis.pk
                i = next(i for i, lead in enumerate(basis.leads)
                         if lead >= head << pk.pos_shift)
                tail = dict(basis.tails[i])
                key = pk.pack(rank - 1, (0,) * pk.n)
                tail[key] = tail.get(key, 0) + basis.lcs[i]
                basis.tails[i] = sorted(tail.items())
            return basis

        monkeypatch.setattr(stdbasis, "std_basis_vectors", perturbed)

    def test_preimage_postcheck(self, monkeypatch):
        # rank 1 + 2 rows; adding 1 to a tail adds y, which is outside (xy)
        targets, sub = [(P("x"),), (P("y"),)], Submodule(R2, 1, [(P("x y"),)], GLOBAL_DP)
        assert preimage_module(targets, sub).gens
        self._perturb_tail(monkeypatch, 3, 1)
        with pytest.raises(AssertionError, match="^preimage postcheck failed$"):
            preimage_module(targets, sub)

    def test_preimage_postcheck_reads_every_block(self, monkeypatch):
        # rank 2 + 1 rows, (xy) in two blocks: the preimage is (x), and adding
        # 1 to its tail keeps block 0 in (xy) but adds y to block 1
        targets, sub = [(P("x y"), P("y"))], Submodule(R2, 1, [(P("x y"),)], GLOBAL_DP)
        assert [str(c[0]) for c in preimage_module(targets, sub, copies=2).gens] == ["x"]
        self._perturb_tail(monkeypatch, 3, 2)
        with pytest.raises(AssertionError, match="^preimage postcheck failed$"):
            preimage_module(targets, sub, copies=2)

    def test_theta_postcheck(self, monkeypatch):
        # rank 2 + 2 rows, (x^2, y) in two blocks: adding 1 to the second
        # entry of a field adds d/dy, which sends y to 1 more, outside I
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        assert theta_preserving(I).gens
        self._perturb_tail(monkeypatch, 4, 2)
        with pytest.raises(AssertionError, match="^preimage postcheck failed$"):
            theta_preserving(ideal(R2, LOCAL_DS, "x^2", "y"))

    def test_ideal_quotient_postcheck(self, monkeypatch):
        # rank 1 + 1 rows: (x y) : (x) is (y), and y + 1 times x leaves (x y)
        I, J = ideal(R2, GLOBAL_DP, "x y"), ideal(R2, GLOBAL_DP, "x")
        assert [str(g) for g in ideal_quotient(I, J).gens] == ["y"]
        self._perturb_tail(monkeypatch, 2, 1)
        with pytest.raises(AssertionError, match="^preimage postcheck failed$"):
            ideal_quotient(ideal(R2, GLOBAL_DP, "x y"), ideal(R2, GLOBAL_DP, "x"))


class TestEliminationHandover:
    """A preimage caches the basis its elimination computed: the head-free
    elements, each key moved down the head. It is term for term the reduced
    basis that a fresh run on its generators builds, and it is the zero
    module's empty basis when nothing is left."""

    @staticmethod
    def _assert_handed_over(M):
        cached = M._basis
        assert cached is not None and cached.rank == M.rank
        fresh = stdbasis.std_basis_vectors(M.gens, M.rank)
        assert cached.leads == fresh.leads
        assert cached.lcs == fresh.lcs
        assert cached.tails == fresh.tails
        assert cached.ecarts == fresh.ecarts

    @staticmethod
    def _vanishing(ring, rank):
        """m * O^rank."""
        zero = ring.zero()
        return Submodule(ring, rank, [tuple(ring.var(i) if j == b else zero for j in range(rank))
                                      for b in range(rank) for i in range(ring.n)], GLOBAL_DP)

    @pytest.mark.parametrize("name, ring, gens, targets",
                             [pytest.param(*args, id=args[0]) for args in _module_inputs()
                              if args[3]])
    def test_elimination_rows(self, name, ring, gens, targets):
        # the preimage whose rows _reduced_basis_inputs lists, the syzygies
        # of those rows, and the preimages of m * O^rank and of the module of
        # the targets under S's generators
        rank = len(gens[0])
        S = Submodule(ring, rank, gens, GLOBAL_DP)
        rows = _elimination_rows(targets, gens, ring)
        for M in (preimage_module(targets, S),
                  module_syzygies(rows, ring, len(rows[0])),
                  preimage_module(S.gens, self._vanishing(ring, rank)),
                  preimage_module(S.gens, Submodule(ring, rank, targets, GLOBAL_DP))):
            self._assert_handed_over(M)

    def test_rank_two_sweep(self):
        e1 = vec(R2, "1", "0")
        mtheta = self._vanishing(R2, 2)
        count = 0
        for _, gens in _sweep_modules():
            M = Submodule(R2, 2, gens, LOCAL_DS)
            for out in (module_syzygies(gens, R2, 2), preimage_module(gens, mtheta, LOCAL_DS),
                        M.colon([e1])._module()):
                self._assert_handed_over(out)
            count += 1
        assert count > 200

    @pytest.mark.parametrize("S", [
        Submodule(R2, 2, (), GLOBAL_DP),
        Submodule(R2, 2, [vec(R2, "x", "y")], GLOBAL_DP),
    ], ids=["zero", "nonzero"])
    def test_preimage_of_no_targets(self, S):
        M = preimage_module([], S, LOCAL_DS)
        assert (M.gens, M.rank, M.order) == ((), 0, LOCAL_DS)
        assert len(M._basis) == 0 and M.basis() is M._basis

    def test_preimage_of_targets_inside_s(self):
        # every c has sum c_i t_i in S, so the preimage is all of O^2: its
        # basis is the unit vectors, least lead first
        S = Submodule(R2, 1, [(P("x"),), (P("y"),)], GLOBAL_DP)
        M = preimage_module([(P("x^2"),), (P("x y"),)], S)
        assert M.gens == (vec(R2, "0", "1"), vec(R2, "1", "0"))
        self._assert_handed_over(M)
        assert M.quotient_dimension().value == 0


class TestLeadTermsAreMinimal:
    """staircase_dimension counts the monomials below the leads it is given
    and does not minimalize them: lead_terms() are the leads of a reduced
    basis, elimination outputs included, so no lead divides another in its
    position."""

    @staticmethod
    def _assert_minimal(M):
        leads = M.lead_terms()
        for i, (pos, m) in enumerate(leads):
            for j, (lpos, lm) in enumerate(leads):
                assert i == j or lpos != pos or not mono_divides(lm, m), (leads, i, j)

    def test_rank_two_sweep(self):
        e1 = vec(R2, "1", "0")
        mtheta = TestEliminationHandover._vanishing(R2, 2)
        for _, gens in _sweep_modules():
            M = Submodule(R2, 2, gens, LOCAL_DS)
            for out in (M, preimage_module(gens, mtheta, LOCAL_DS), preimage_module([e1], M)):
                self._assert_minimal(out)

    @pytest.mark.parametrize("name, ring, gens, targets",
                             [pytest.param(*args, id=args[0]) for args in _module_inputs()
                              if args[3]])
    def test_elimination_outputs(self, name, ring, gens, targets):
        rank = len(gens[0])
        S = Submodule(ring, rank, gens, GLOBAL_DP)
        for M in (preimage_module(targets, S),
                  preimage_module(S.gens, TestEliminationHandover._vanishing(ring, rank)),
                  preimage_module(S.gens, Submodule(ring, rank, targets, GLOBAL_DP))):
            self._assert_minimal(M)


class TestEliminationsRunNoSecondBasis:
    """A module that an elimination returned answers from the basis it came
    with: colon results and saturation rounds run Buchberger only for the
    eliminations themselves."""

    def test_colon_result_has_its_basis(self, basis_calls):
        M = Submodule(R2, 2, [vec(R2, "x", "0"), vec(R2, "0", "y")], GLOBAL_DP)
        I = M.colon([vec(R2, "1", "1")])
        # the elimination of rank 2 + 1, then M's basis for the postcheck
        assert basis_calls == [3, 2]
        assert [str(g) for g in I.basis()] == ["x*y"]
        assert I.contains(P("x^2 y")) and not I.contains(P("x"))
        assert I.with_order(GLOBAL_DP).quotient_dimension() is INFINITE
        assert basis_calls == [3, 2]

    def test_saturation_rounds_reuse_each_colon(self, basis_calls):
        I = ideal(R2, GLOBAL_DP, "x^2 y", "x y^3")
        I.basis()
        del basis_calls[:]
        S = saturation(I, ideal(R2, GLOBAL_DP, "x"))
        # the unit test on I + J, then one elimination per round; each
        # round's postchecks read the bases that the eliminations computed
        assert basis_calls == [1, 2, 2, 2]
        assert [str(g) for g in S.basis()] == ["y"]
        assert basis_calls == [1, 2, 2, 2]

    def test_two_target_colon_reads_the_cached_basis(self, basis_calls):
        M = Submodule(R2, 1, [vec(R2, "x^2"), vec(R2, "y")], GLOBAL_DP)
        M.basis()
        del basis_calls[:]
        I = M.colon([vec(R2, "x"), vec(R2, "x + y")])
        # the elimination of rank 2 + 1 only: the postcheck reduces each
        # block against M's cached basis
        assert basis_calls == [3]
        assert [str(g) for g in I.basis()] == ["y", "x"]
        assert basis_calls == [3]

    def test_theta_reads_the_ideal_basis(self, basis_calls):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        theta = theta_preserving(I)
        # the elimination of rank 2 + 2, then I's basis, which serves the
        # preimage postcheck in both blocks
        assert basis_calls == [4, 1]
        assert [tuple(map(str, X)) for X in theta.basis()] == [
            ("0", "y"), ("0", "x^2"), ("y", "0"), ("x", "0")]
        assert basis_calls == [4, 1]


class TestOneNormalFormPerMembership:
    """Each membership that theta and a colon decide is one global normal
    form: the preimage postcheck's reduction of its distinct block."""

    def test_theta_reduces_each_block_once(self, reduce_calls):
        theta = theta_preserving(ideal(R2, LOCAL_DS, "x^2", "y"))
        # y d/dy, x^2 d/dy, y d/dx and x d/dx send (x^2, y) to (0, y),
        # (0, x^2), (2xy, 0) and (2x^2, 0): five distinct blocks, the zero
        # one once, each reduced once against I's basis
        assert [tuple(map(str, X)) for X in theta.gens] == [
            ("0", "y"), ("0", "x^2"), ("y", "0"), ("x", "0")]
        assert reduce_calls == [5]

    @pytest.mark.parametrize("order", [GLOBAL_DP, LOCAL_DS], ids=["dp", "ds"])
    def test_colon_reduces_each_product_once(self, reduce_calls, order):
        out = ideal_quotient(ideal(R2, order, "x^2 y", "x y^3"), ideal(R2, order, "x"))
        # two generators h, each h * x reduced once against I's basis
        assert [str(g) for g in out.gens] == ["x*y", "y^3"]
        assert reduce_calls == [2]


def stacked_modules():
    """Generators of a submodule S of rank 1 or 2 in x, y, each entry of 0
    to 2 terms with exponents up to 2, and a block count k from 1 to 3."""
    rank = st.integers(1, 2)
    term = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                     st.sampled_from([-2, -1, 1, 2]))
    entry = st.lists(term, max_size=2).map(lambda ts: Poly(R2, {m: Fraction(c) for m, c in ts}))
    gens = rank.flatmap(lambda r: st.lists(st.tuples(*[entry] * r).filter(
        lambda v: not vec_is_zero(v)), min_size=1, max_size=3))
    return st.tuples(gens, st.integers(1, 3))


class TestBlockBasis:
    """Under position over term the reduced basis of S^k, S in k blocks, is
    S's reduced basis in each block, least lead first: the last block's
    elements, then each earlier block's."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stacked_modules())
    def test_stacked_basis_is_the_basis_in_each_block(self, case):
        gens, k = case
        rank = len(gens[0])
        zero = vec_zero(R2, rank)
        stacked = [zero * b + g + zero * (k - 1 - b) for b in range(k) for g in gens]
        ref = stdbasis.std_basis_vectors(stacked, rank * k)
        own = stdbasis.std_basis_vectors(gens, rank)
        expected = []
        for b in reversed(range(k)):
            shift = b * rank << own.pk.pos_shift
            expected += [(lead + shift, lc, [(key + shift, c) for key, c in tail])
                         for lead, lc, tail in zip(own.leads, own.lcs, own.tails)]
        assert list(zip(ref.leads, ref.lcs, ref.tails)) == expected


class TestHilbertSamuel:
    def test_slice_size_limit(self, monkeypatch):
        # comb(447, 2) = 99681 labels may be listed, comb(448, 2) = 100128
        # may not, and the refusal comes before any label is listed
        assert stdbasis._refuse_large_slice(2, 1, 445) is None

        def refuse(*args):
            raise AssertionError("labels listed")

        monkeypatch.setattr(stdbasis, "slice_columns", refuse)
        with pytest.raises(GermforgeError) as ei:
            hilbert_samuel_values(ideal(R2, LOCAL_DS, "x^2", "y"), 446)
        assert str(ei.value) == ("PRECONDITION_VIOLATED: truncation degree 446 would list "
                                 "100128 labels, more than the limit of 100000")

    def test_mu_zero(self):
        assert hilbert_samuel_values(ideal(R2, LOCAL_DS, "x^2", "y"), 0)[0] == 0

    def test_mu_one(self):
        I = ideal(R2, LOCAL_DS, "x^2", "y")
        assert hilbert_samuel_values(I, 1)[1] == 1
        # independent: row-reduce {x^2, y} slices against m^2 up to degree 2
        rows = multiples_upto([d(P("x^2")), d(P("y"))], 2, 1)
        assert gauss_rank(rows) == 1

    def test_unit_ideal(self):
        from math import comb

        I = ideal(R2, LOCAL_DS, "1")
        for m in range(4):
            assert hilbert_samuel_values(I, m)[m] == comb(2 + m, 2)

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
            assert hilbert_samuel_values(I, m)[m] == gauss_rank(rows)

    @settings(max_examples=100, deadline=None)
    @given(small_ideals(), st.integers(0, 6))
    def test_one_slice_matches_a_slice_per_degree(self, I, N):
        # generators mixing degrees, so a pivot's lower terms matter
        values = hilbert_samuel_values(I, N)
        assert values == [gauss_rank(multiples_upto([d(g) for g in I.gens], I.ring.n, m))
                          for m in range(N + 1)]

    def test_monotone(self):
        for gens in (["x^2", "y"], ["x^3", "x^2 y", "y^2"], ["x^2 - y^3"]):
            I = ideal(R2, LOCAL_DS, *gens)
            # one truncation per m, so the values compare separate computations
            vals = [hilbert_samuel_values(I, m)[m] for m in range(6)]
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


@st.composite
def repeated_factors(draw):
    """A product of linear and quadratic factors in x or y, each raised to
    a power from 1 to 3, and the variable's index."""
    var = draw(st.sampled_from([0, 1]))
    x = R2.var(var)
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    linear = st.builds(lambda a, b: x * a + b, st.integers(1, 3), small)
    quadratic = st.builds(lambda b, c: x ** 2 + x * b + c, small, small)
    factors = draw(st.lists(st.tuples(linear | quadratic, st.integers(1, 3)),
                            min_size=1, max_size=4))
    return prod((q ** e for q, e in factors), start=R2.one()), var


class TestSquarefreePart:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(repeated_factors())
    def test_against_sympy(self, drawn):
        sympy = pytest.importorskip("sympy")
        p, var = drawn
        symbols = sympy.symbols(R2.names)
        theirs = sympy.Poly(sympy.sqf_part(to_sympy(p, symbols)), symbols[var], domain="QQ")
        ours = squarefree_part(p, var)
        assert sympy.expand(to_sympy(ours, symbols) - theirs.monic().as_expr()) == 0

    def test_constants(self):
        for text in ("0", "5", "-1/2"):
            assert squarefree_part(P(text), 0) == R2.one()


class TestMinimalPolynomial:
    @pytest.mark.parametrize("gens, var, coeffs", [
        (("2*x^2 + 3*x - 1", "y - x"), 0, [Fraction(-1, 2), Fraction(3, 2), 1]),
        (("x^3 - y", "y^2 - 3*x*y + 1/2"), 0, [Fraction(1, 2), 0, 0, 0, -3, 0, 1]),
        (("x*y - 1", "x^2 + y^2 - 5/2"), 1, [1, 0, Fraction(-5, 2), 0, 1]),
    ])
    def test_pinned_coefficients(self, gens, var, coeffs):
        x = R2.var(var)
        expected = R2.sum(x ** t * Fraction(c) for t, c in enumerate(coeffs))
        assert minimal_polynomial(ideal(R2, GLOBAL_DP, *gens), var) == expected


class TestPowerIdeal:
    def test_generators(self):
        mk = power_ideal(R2, 2)
        assert {str(g) for g in mk.gens} == {"x^2", "x*y", "y^2"}

    def test_zeroth_power(self):
        assert power_ideal(R2, 0).is_unit()


class TestAdaptedVariables:
    @pytest.mark.parametrize("gens, found", [
        (("y", "x"), [1, 0]),
        (("2*y", "-1/3*x"), [1, 0]),
        (("x", "x"), [0, 0]),
        (("x + y",), None),
        (("x^2",), None),
        (("x", "1"), None),
        ((), []),
    ])
    def test_each_generator_is_a_scaled_variable(self, gens, found):
        assert ideal(R2, LOCAL_DS, *gens).variables() == found
