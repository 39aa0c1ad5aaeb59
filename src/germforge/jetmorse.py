"""Jet spaces for ideals, the Morse-component ideal, and multiplicities.

The order-k jet space of the presentation (g_1..g_r) is an affine space with
coordinates z_1..z_n and a^j_alpha for |alpha| <= k: the point (z, a) stands
for the germ sum_j h_j g_j at z whose coefficient h_j has Taylor coefficients
a^j_alpha there. Critical 1-jets are cut out by the Q_i below; the Morse
component is the part of that locus not sitting over the zero set of the
ideal, and multiplicities of jet extensions against it are computed either as
local quotient dimensions (CM shortcut) or as a Koszul Euler number of the
graph sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import List, Optional, Sequence, Tuple

from .errors import GermforgeError
from .invariants import GermProblem
from .linalg import RowBasis, integral
from .polyring import GLOBAL_DP, LOCAL_DS, Mono, Poly, Ring, monomials_up_to_degree
from .stdbasis import Ideal, ideal_quotient, saturation, zero_dim_radical
from .koszul import KoszulInstance, koszul_euler


# ---------------------------------------------------------------------------
# jet context


@dataclass(frozen=True)
class JetContext:
    """Order-k jet space of the ideal presentation, with the critical-jet
    ideal J1 = (Q_1..Q_n) and the base-locus ideal J2 = (g_j(z))."""

    base: Ideal
    k: int
    ring: Ring
    alphas: Tuple[Mono, ...]
    Q: Tuple[Poly, ...]
    g_z: Tuple[Poly, ...]

    @property
    def n(self) -> int:
        return self.base.ring.n

    @property
    def r(self) -> int:
        return len(self.base.gens)

    def jet_var(self, j: int, alpha: Mono) -> int:
        """Ring index of a^j_alpha (j counted from 0)."""
        return self.n + j * len(self.alphas) + self.alphas.index(alpha)

    def J1(self) -> Ideal:
        return Ideal(self.ring, list(self.Q), GLOBAL_DP)

    def J2(self) -> Ideal:
        return Ideal(self.ring, list(self.g_z), GLOBAL_DP)


def jet_context(I: Ideal, k: int) -> JetContext:
    if k < 1:
        raise GermforgeError("PRECONDITION_VIOLATED", "jet order must be at least 1")
    if not I.gens:
        raise GermforgeError("ZERO_IDEAL", "the zero ideal has no jet space")
    base_ring = I.ring
    n = base_ring.n
    r = len(I.gens)
    alphas = tuple(monomials_up_to_degree(n, k))
    names = [f"z{i + 1}" for i in range(n)]
    for j in range(r):
        for alpha in alphas:
            names.append(f"a{j + 1}_" + "_".join(str(e) for e in alpha))
    ring = Ring(names)
    assert ring.n == n + r * comb(n + k, n)

    zero = tuple(0 for _ in range(n))
    betas = [zero] + [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    g_z = [g.rename(ring, list(range(n))) for g in I.gens]
    dg_z = [[I.gens[j].derive(i).rename(ring, list(range(n))) for i in range(n)]
            for j in range(r)]

    def a(j: int, alpha: Mono) -> Poly:
        return ring.var(n + j * len(alphas) + alphas.index(alpha))

    Q: List[Poly] = []
    for i in range(n):
        q = ring.zero()
        for j in range(r):
            q = q + a(j, betas[0]) * dg_z[j][i] + a(j, betas[i + 1]) * g_z[j]
        Q.append(q)

    ctx = JetContext(I, k, ring, alphas, tuple(Q), tuple(g_z))
    _check_q_identity(ctx)
    return ctx


def _check_q_identity(ctx: JetContext) -> None:
    """The Q_i must equal d/dx_i at x = z of the universal member
    sum_j (sum_alpha a^j_alpha (x-z)^alpha) g_j(x)."""
    base_ring = ctx.base.ring
    n, r = ctx.n, ctx.r
    names = list(base_ring.names) + list(ctx.ring.names)
    P = Ring(names)
    x = [P.var(i) for i in range(n)]
    z = [P.var(n + i) for i in range(n)]
    G = P.zero()
    for j in range(r):
        coeff = P.zero()
        for alpha in ctx.alphas:
            term = P.var(n + ctx.jet_var(j, alpha))
            for t, e in enumerate(alpha):
                for _ in range(e):
                    term = term * (x[t] - z[t])
            coeff = coeff + term
        G = G + coeff * ctx.base.gens[j].rename(P, list(range(n)))
    # evaluate the x-derivative on the diagonal x = z
    diag = [z[i] for i in range(n)] + [P.var(n + i) for i in range(P.n - n)]
    for i in range(n):
        got = G.derive(i).substitute(diag, P)
        want = ctx.Q[i].rename(P, list(range(n, P.n)))
        if got != want:
            raise AssertionError("critical-jet generators disagree with the defining sum")


# ---------------------------------------------------------------------------
# Morse component


@dataclass(frozen=True)
class MorseComponent:
    """J_M' = (radical-or-assumed J1 : J2), with the saturation variant kept
    alongside; `divergent` flags a difference between the two."""

    ideal: Ideal
    saturated: Ideal
    certificate: str  # squarefree-monomials | linear-forms | zero-dim-radical | assumed-reduced
    divergent: bool


def _squarefree_monomial_gens(I: Ideal) -> bool:
    for g in I.gens:
        terms = list(g.terms.items())
        if len(terms) != 1 or any(e > 1 for e in terms[0][0]):
            return False
    return bool(I.gens)


def _independent_linear_gens(I: Ideal) -> bool:
    if not I.gens or any(sum(m) != 1 for g in I.gens for m in g.terms):
        return False
    rows = [integral({m.index(1): c for m, c in g.terms.items()}) for g in I.gens]
    return RowBasis().extend(rows) == len(rows)


def _certified_radical(J1: Ideal, assume_reduced: bool) -> Tuple[Ideal, str]:
    if _squarefree_monomial_gens(J1):
        return J1, "squarefree-monomials"
    if _independent_linear_gens(J1):
        return J1, "linear-forms"
    if J1.quotient_dimension().is_finite:
        return zero_dim_radical(J1), "zero-dim-radical"
    if assume_reduced:
        return J1, "assumed-reduced"
    raise GermforgeError(
        "RADICAL_UNAVAILABLE",
        "the critical-jet ideal is positive-dimensional and not certified "
        "reduced; pass assume_reduced to proceed with it as-is")


def morse_component(ctx: JetContext, assume_reduced: bool = False) -> MorseComponent:
    J1, J2 = ctx.J1(), ctx.J2()
    rad, cert = _certified_radical(J1, assume_reduced)
    colon = ideal_quotient(rad, J2)
    sat = saturation(J1, J2)
    return MorseComponent(colon, sat, cert, not colon.equals(sat))


# ---------------------------------------------------------------------------
# liftings and pullback


@dataclass(frozen=True)
class LiftedGerm:
    """Coefficients of one expression f = sum_j coeffs[j] * gens[j]."""

    f: Poly
    gens: Tuple[Poly, ...]
    coeffs: Tuple[Poly, ...]

    def __post_init__(self):
        acc = self.f.ring.zero()
        for c, g in zip(self.coeffs, self.gens):
            acc = acc + c * g
        if acc != self.f:
            raise AssertionError("lifting does not recombine to the germ")

    def taylor_coefficient(self, j: int, alpha: Mono) -> Poly:
        """partial^alpha coeffs[j] / alpha!"""
        p = self.coeffs[j]
        denom = 1
        for i, e in enumerate(alpha):
            for _ in range(e):
                p = p.derive(i)
            denom *= factorial(e)
        return p * Fraction(1, denom)


def lift_germ(f: Poly, I: Ideal) -> LiftedGerm:
    if not I.contains(f):
        raise GermforgeError("F_NOT_IN_IDEAL", f"{f} is not a member of the ideal")
    coords = I.lift(f)
    if coords is None:
        raise GermforgeError(
            "LIFTING_FAILED",
            "the germ is in the localized ideal but no polynomial "
            "combination of the generators reproduces it")
    return LiftedGerm(f, I.gens, coords)


def _pullback_images(ctx: JetContext, lifting: LiftedGerm) -> List[Poly]:
    """Substitution jet ring -> base ring along the jet extension."""
    base_ring = lifting.f.ring
    images = [base_ring.var(i) for i in range(ctx.n)]
    for j in range(ctx.r):
        for alpha in ctx.alphas:
            images.append(lifting.taylor_coefficient(j, alpha))
    return images


def jet_pullback(f: Poly, I: Ideal, ctx: JetContext, V: Ideal,
                 lifting: Optional[LiftedGerm] = None) -> Ideal:
    """Ideal in the base ring generated by V's generators evaluated along
    the jet extension of a lifting of f."""
    if lifting is None:
        lifting = lift_germ(f, I)
    images = _pullback_images(ctx, lifting)
    gens = [g.substitute(images, I.ring) for g in V.gens]
    return Ideal(I.ring, gens, I.order)


# ---------------------------------------------------------------------------
# intersection multiplicity


def _graph_sequence(ctx: JetContext, lifting: LiftedGerm,
                    V: Ideal) -> Tuple[Ring, List[Poly], List[Poly]]:
    """Product ring (base block + jet block), V's relations and the graph
    sequence, both translated so the graph point sits at the origin."""
    base_ring = ctx.base.ring
    nb = base_ring.n
    names = list(base_ring.names) + list(ctx.ring.names)
    if len(set(names)) != len(names):
        raise ValueError("base and jet variable names overlap")
    P = Ring(names)

    jet_images: List[Poly] = [P.var(nb + i) for i in range(ctx.n)]
    seq: List[Poly] = [P.var(nb + i) - P.var(i) for i in range(ctx.n)]
    idx = ctx.n
    for j in range(ctx.r):
        for alpha in ctx.alphas:
            T = lifting.taylor_coefficient(j, alpha).rename(P, list(range(nb)))
            T0 = T.constant_term()
            a_var = P.var(nb + idx)
            jet_images.append(a_var + P.const(T0))
            seq.append(a_var - T + P.const(T0))
            idx += 1
    rel = [g.substitute(jet_images, P) for g in V.gens]
    return P, rel, seq


def _solvable_variable(s: Poly, prefer_from: int) -> Optional[int]:
    """Index of a variable occurring exactly once in s, linearly, with a
    constant coefficient; jet-block variables (index >= prefer_from) first."""
    candidates = []
    for m, c in s.terms.items():
        if sum(m) == 1:
            v = m.index(1)
            if all(mm[v] == 0 for mm in s.terms if mm != m):
                candidates.append(v)
    if not candidates:
        return None
    high = [v for v in candidates if v >= prefer_from]
    return max(high) if high else max(candidates)


def _eliminate(ring: Ring, rel: List[Poly], seq: List[Poly],
               keep: int) -> Tuple[Ring, List[Poly], List[Poly]]:
    """Substitute away graph elements certified to be nonzerodivisors on the
    current quotient; each drop passes to the quotient by that element."""
    while ring.n > 1:
        pick = None
        for t, s in enumerate(seq):
            v = _solvable_variable(s, keep)
            if v is None:
                continue
            R = Ideal(ring, rel, LOCAL_DS)
            if rel and not ideal_quotient(R, Ideal(ring, [s], LOCAL_DS)).equals(R):
                continue
            pick = (t, v)
            break
        if pick is None:
            break
        t, v = pick
        s = seq.pop(t)
        c = s.terms[tuple(1 if i == v else 0 for i in range(ring.n))]
        expr = ring.var(v) - s * (1 / c)  # v = expr, and expr avoids v
        sub = Ring([nm for i, nm in enumerate(ring.names) if i != v])
        images = [sub.var(nm) if nm != ring.names[v] else sub.zero()
                  for nm in ring.names]
        images[v] = expr.substitute(images, sub)
        rel = [p.substitute(images, sub) for p in rel]
        seq = [p.substitute(images, sub) for p in seq]
        ring = sub
    return ring, rel, seq


def intersection_multiplicity(f: Poly, I: Ideal, ctx: JetContext, V: Ideal,
                              method: str = "CM",
                              lifting: Optional[LiftedGerm] = None,
                              preprocess: bool = True) -> int:
    """Multiplicity at the origin of the jet extension of f against V."""
    if method not in ("CM", "KOSZUL"):
        raise ValueError("method must be CM or KOSZUL")
    if lifting is None:
        lifting = lift_germ(f, I)
    pulled = jet_pullback(f, I, ctx, V, lifting).with_order(LOCAL_DS)
    qd = pulled.quotient_dimension()
    if not qd.is_finite:
        raise GermforgeError("NOT_ISOLATED",
                             "the pullback of the subvariety is not isolated at the origin")
    if method == "CM":
        return qd.value
    P, rel, seq = _graph_sequence(ctx, lifting, V)
    if preprocess:
        P, rel, seq = _eliminate(P, rel, seq, I.ring.n)
    inst = KoszulInstance(P, tuple(rel), tuple(seq), LOCAL_DS)
    return koszul_euler(inst)


# ---------------------------------------------------------------------------
# Morse number


def morse_number(f: Poly, I: Ideal, method: str = "ORACLE",
                 assume_reduced: bool = False,
                 seeds: Optional[Sequence[int]] = None,
                 degree_bound: Optional[int] = None) -> int:
    if method not in ("JET", "ORACLE"):
        raise ValueError("method must be JET or ORACLE")
    return _morse_number(GermProblem(f, I), method, assume_reduced, seeds, degree_bound)


def _morse_number(P: GermProblem, method: str, assume_reduced: bool = False,
                  seeds: Optional[Sequence[int]] = None,
                  degree_bound: Optional[int] = None) -> int:
    P.finite_codim("the Morse number needs finite extended codimension")
    if method == "JET":
        ctx = jet_context(P.I, 1)
        mc = morse_component(ctx, assume_reduced)
        return intersection_multiplicity(P.f, P.I, ctx, mc.ideal, "CM")
    from .oracle import _splitting

    return _splitting(P, seeds, degree_bound).morse
