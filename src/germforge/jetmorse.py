"""Jet spaces for ideals, the Morse-component ideal, and multiplicities.

The order-k jet space of the presentation (g_1..g_r) is an affine space with
coordinates z_1..z_n and a^j_alpha for |alpha| <= k: the point (z, a) stands
for the germ sum_j h_j g_j at z whose coefficient h_j has Taylor coefficients
a^j_alpha there. Critical 1-jets are cut out by the Q_i below; the Morse
component is the part of that locus not sitting over the zero set of the
ideal, and the multiplicity of a jet extension against it is the local length
of the pulled-back component.

The jet Morse number is computed in one place, jet_morse_number(P), which
morse --method jet reads and whose context and component conservation pulls
each deformed member's lifting back along; oracle imports this module for it.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial, prod

from .errors import GermforgeError
from .invariants import GermProblem
from .linalg import RowBasis, integral
from .polyring import GLOBAL_DP, LOCAL_DS, Mono, Poly, Q, Ring, monomials_up_to_degree
from .stdbasis import Ideal, ideal_quotient


# ---------------------------------------------------------------------------
# jet context


class JetContext(namedtuple("JetContext", "base k ring alphas slot Q g_z")):
    """Order-k jet space of the ideal presentation, with the critical-jet
    ideal J1 = (Q_1..Q_n) and the base-locus ideal J2 = (g_j(z)). slot maps
    (j, alpha) to the ring index of a^j_alpha, in ring order."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.base.ring.n

    def J1(self) -> Ideal:
        return Ideal(self.ring, list(self.Q), GLOBAL_DP)

    def J2(self) -> Ideal:
        return Ideal(self.ring, list(self.g_z), GLOBAL_DP)


# The order-k jet ring has n + r * comb(n + k, n) variables; past this many
# it is refused before any is named. The largest jet ring that a test, script
# or corpus case builds is jet-dump --trunc 2 on d3, 23 variables.
JET_RING_LIMIT = 250


def jet_context(I: Ideal, k: int) -> JetContext:
    if k < 1:
        raise GermforgeError("PRECONDITION_VIOLATED", "jet order must be at least 1")
    if not I.gens:
        raise GermforgeError("ZERO_IDEAL", "the zero ideal has no jet space")
    n, r = I.ring.n, len(I.gens)
    size = n + r * comb(n + k, n)
    if size > JET_RING_LIMIT:
        raise GermforgeError("PRECONDITION_VIOLATED", f"jet order {k} needs {size} "
                             f"variables, more than the limit of {JET_RING_LIMIT}")
    alphas = monomials_up_to_degree(n, k)
    slot = {(j, alpha): n + j * len(alphas) + t
            for j in range(r) for t, alpha in enumerate(alphas)}
    ring = Ring([f"z{i + 1}" for i in range(n)]
                + [f"a{j + 1}_" + "_".join(str(e) for e in alpha) for j, alpha in slot])
    if ring.n != size:
        raise AssertionError("jet ring has the wrong number of variables")

    betas = [(0,) * n] + [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    z = [ring.var(i) for i in range(n)]
    g_z = [g.substitute(z, ring) for g in I.gens]
    dg_z = [[I.gens[j].derive(i).substitute(z, ring) for i in range(n)] for j in range(r)]

    Q = tuple(ring.sum(ring.var(slot[j, betas[0]]) * dg_z[j][i]
                       + ring.var(slot[j, betas[i + 1]]) * g_z[j] for j in range(r))
              for i in range(n))

    ctx = JetContext(I, k, ring, alphas, slot, Q, tuple(g_z))
    _check_q_identity(ctx)
    return ctx


def _check_q_identity(ctx: JetContext) -> None:
    """The Q_i must equal d/dx_i at x = z of the universal member
    sum_j (sum_alpha a^j_alpha (x-z)^alpha) g_j(x). It is built from the
    |alpha| <= 1 only: for |alpha| >= 2 both terms of d/dx_i [(x-z)^alpha
    g_j] keep a factor (x-z)^beta with |beta| >= 1 and vanish at x = z, so
    each Q_i is compared with what the full sum gives, and the check detects
    exactly what it would. P's base block is named x1..xn, never a jet
    name z<i> or a<j>_<alpha>, whatever the base ring calls its variables."""
    n = ctx.n
    P = Ring([f"x{i + 1}" for i in range(n)] + list(ctx.ring.names))
    x = [P.var(i) for i in range(n)]
    jet = [P.var(n + i) for i in range(ctx.ring.n)]
    shift = [x[t] - jet[t] for t in range(n)]
    gens = [g.substitute(x, P) for g in ctx.base.gens]
    G = P.sum(prod((s ** e for s, e in zip(shift, alpha) if e),
                   start=P.var(n + index)) * gens[j]
              for (j, alpha), index in ctx.slot.items() if sum(alpha) <= 1)
    # evaluate the x-derivative on the diagonal x = z
    diag = jet[:n] + jet
    for i in range(n):
        got = G.derive(i).substitute(diag, P)
        want = ctx.Q[i].substitute(jet, P)
        if got != want:
            raise AssertionError("critical-jet generators disagree with the defining sum")


# ---------------------------------------------------------------------------
# Morse component


class MorseComponent(namedtuple("MorseComponent", "ideal certificate")):
    """J_M' = (radical-or-assumed J1 : J2), with the certificate
    linear-forms (independent linear generators, a prime) or assumed-reduced."""

    __slots__ = ()


def _independent_linear_gens(I: Ideal) -> bool:
    if not I.gens or any(sum(m) != 1 for g in I.gens for m in g.terms):
        return False
    rows = [integral({m.index(1): c for m, c in g.terms.items()}) for g in I.gens]
    return RowBasis().extend(rows) == len(rows)


def _radical_certificate(J1: Ideal, assume_reduced: bool) -> str:
    if _independent_linear_gens(J1):
        return "linear-forms"
    if assume_reduced:
        return "assumed-reduced"
    raise GermforgeError(
        "RADICAL_UNAVAILABLE",
        "the critical-jet ideal is positive-dimensional and not certified "
        "reduced; pass assume_reduced (--assume-reduced on the command line) "
        "to proceed with it as-is")


def morse_component(ctx: JetContext, assume_reduced: bool = False) -> MorseComponent:
    J1 = ctx.J1()
    certificate = _radical_certificate(J1, assume_reduced)
    return MorseComponent(ideal_quotient(J1, ctx.J2()), certificate)


# ---------------------------------------------------------------------------
# liftings and pullback


class LiftedGerm:
    """Coefficients of one expression f = sum_j coeffs[j] * gens[j]."""

    __slots__ = ("f", "gens", "coeffs")

    def __init__(self, f: Poly, gens: tuple[Poly, ...], coeffs: tuple[Poly, ...]):
        self.f, self.gens, self.coeffs = f, gens, coeffs
        if f.ring.sum(c * g for c, g in zip(coeffs, gens)) != f:
            raise AssertionError("lifting does not recombine to the germ")

    def taylor_coefficient(self, j: int, alpha: Mono) -> Poly:
        """partial^alpha coeffs[j] / alpha!"""
        p = self.coeffs[j]
        denom = 1
        for i, e in enumerate(alpha):
            for _ in range(e):
                p = p.derive(i)
            denom *= factorial(e)
        return p * Q(1, denom)


def lift_germ(f: Poly, I: Ideal) -> LiftedGerm:
    """f's coordinates over I's generators, for f known to lie in I; under
    'ds' maybe at the origin only, with no polynomial lift: LIFTING_FAILED."""
    coords = I.lift(f)
    if coords is None:
        raise GermforgeError("LIFTING_FAILED", "no polynomial combination of the "
                             "ideal generators reproduces the germ")
    return LiftedGerm(f, I.gens, coords)


def _pullback_images(ctx: JetContext, lifting: LiftedGerm) -> list[Poly]:
    """Substitution jet ring -> base ring along the jet extension."""
    base_ring = lifting.f.ring
    return ([base_ring.var(i) for i in range(ctx.n)]
            + [lifting.taylor_coefficient(j, alpha) for j, alpha in ctx.slot])


def jet_pullback(ctx: JetContext, V: Ideal, lifting: LiftedGerm) -> Ideal:
    """Ideal in the base ring generated by V's generators evaluated along
    the jet extension of the lifting, in the order of ctx's base ideal."""
    base = ctx.base
    images = _pullback_images(ctx, lifting)
    return Ideal(base.ring, [g.substitute(images, base.ring) for g in V.gens], base.order)


# ---------------------------------------------------------------------------
# intersection multiplicity


def intersection_multiplicity(ctx: JetContext, V: Ideal, lifting: LiftedGerm) -> int:
    """Multiplicity at the origin of the jet extension of the lifting
    against V: the local length of the pullback of V. For a Cohen-Macaulay
    V meeting the graph, a regular sequence, in an isolated point, Serre's
    higher Tor terms vanish and the length is the multiplicity.
    NOT_ISOLATED when the length is infinite."""
    pulled = jet_pullback(ctx, V, lifting).with_order(LOCAL_DS)
    qd = pulled.quotient_dimension()
    if not qd.is_finite:
        raise GermforgeError("NOT_ISOLATED",
                             "the pullback of the subvariety is not isolated at the origin")
    return qd.value


# ---------------------------------------------------------------------------
# Morse number


def jet_morse_number(P: GermProblem,
                     assume_reduced: bool = False) -> tuple[JetContext, Ideal, int]:
    """The order-1 jet context of P's ideal, its Morse component, and the
    jet Morse number of P's germ: the multiplicity of its lifting's jet
    extension against that component, certified before the germ is lifted."""
    ctx = jet_context(P.I, 1)
    M = morse_component(ctx, assume_reduced).ideal
    return ctx, M, intersection_multiplicity(ctx, M, lift_germ(P.f, P.I))
