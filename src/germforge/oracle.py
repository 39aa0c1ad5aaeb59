"""Exact deformation harness: seeded generic members, critical-point counts
off the zero set, empirical splitting functions, and conservation checks.

Counts are global: a deformed polynomial's critical points are tallied over
all of affine space (dimension of the saturated Jacobian quotient), not in a
small ball, so every report carries the caveats of SAMPLED. The count off
the zero set of I is dim k[x]/(K : I^infinity), where K is the Jacobian
ideal of the deformed member (critical points) or the pulled-back jet ideal
(conservation). When no point of V(K) lies on V(I), K + I is the unit
ideal and saturation hands K back after one standard basis of K + I; only
when V(K) meets V(I) does the iterated colon run. Genericity is
sampled (cross-seed stability plus a degree-drift probe), never certified;
disagreement raises instead of guessing. A member g = random_deformation(P)
is the GermProblem P.member(g) under dp, which shares P's theta: its c_ext
is the defect mass (corrected_extended_codim), spread over the points of
its locus(). When some of that mass is not on the Morse points, the
number of points of each length is read from the member's finite quotient
O^k/L = I/tau_e(g) (point_lengths): the squarefree parts of the
characteristic polynomial of one linear form that separates the points,
rational or not, none of them located.
The oracle's Morse number is splitting(P).morse; the jet route's is
jetmorse.jet_morse_number(P), which conservation_check reads its reference
from.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import count

from .errors import GermforgeError
from .invariants import GermProblem
from .jetmorse import jet_morse_number, jet_pullback, lift_germ
from .polyring import GLOBAL_DP, Poly, Q, Ring
from .stdbasis import Ideal, Submodule, saturation, squarefree_part, vec_zero, zero_dim_radical

DEFAULT_SEEDS: tuple[int, ...] = (11, 13)
TRIAL_SEEDS: tuple[int, ...] = (11, 13, 17, 19, 23, 29, 31, 37)
SAMPLED: tuple[str, ...] = ("GLOBAL_COUNT", "GENERICITY_SAMPLED")

_MASK = (1 << 64) - 1


class XorShift64:
    """Deterministic 64-bit xorshift; identical streams on every platform."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        s = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        self.state = s if s else 0x2545F4914F6CDD1D

    def next_u64(self) -> int:
        x = self.state
        x ^= (x << 13) & _MASK
        x ^= x >> 7
        x ^= (x << 17) & _MASK
        self.state = x
        return x

    def rational(self) -> Q:
        num = 1 + self.next_u64() % 13
        den = 1 + self.next_u64() % 13
        sign = -1 if self.next_u64() & 1 else 1
        return Q(sign * num, den)


# ---------------------------------------------------------------------------
# deformations


def random_deformation(P: GermProblem, degree_bound: int | None = None,
                       seed: int = 11) -> Poly:
    """P's germ plus a seeded rational combination of P's cobasis, keeping
    the elements of total degree at most degree_bound; it stays in I
    wherever the germ does. The default bound keeps the whole cobasis, so a
    finite versal family is sampled; lower bounds truncate it, which the
    splitting harness detects as drift, and one that keeps nothing of a
    nonempty cobasis would draw the germ itself, so it is refused."""
    P.finite_codim("deformations are drawn along a finite basis over the tangent ideal")
    kept = [h for h in P.cobasis if degree_bound is None or h.total_degree() <= degree_bound]
    if P.cobasis and not kept:
        least = min(h.total_degree() for h in P.cobasis)
        raise GermforgeError("PRECONDITION_VIOLATED", f"degree bound {degree_bound} keeps "
                             f"no cobasis element, the least of which has degree {least}")
    rng = XorShift64(seed)
    return P.f.ring.sum([P.f] + [h * rng.rational() for h in kept])


# ---------------------------------------------------------------------------
# critical points off the zero set


class CriticalReport(namedtuple("CriticalReport", "sat_ideal count all_morse")):
    __slots__ = ()


def _det(M: list[list[Poly]], ring: Ring) -> Poly:
    if len(M) == 1:
        return M[0][0]
    return ring.sum(M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]], ring) * (-1) ** j
                    for j in range(len(M)) if not M[0][j].is_zero())


def hessian_det(g: Poly) -> Poly:
    n = g.ring.n
    return _det([[g.derive(i).derive(j) for j in range(n)] for i in range(n)],
                g.ring)


def critical_points_outside(g: Poly, I: Ideal) -> CriticalReport:
    """Saturate the Jacobian ideal of g by I and count the quotient; the
    Morse certificate adjoins the Hessian determinant and asks for the unit
    ideal. A unit I means no zero set to avoid, so saturation hands back the
    Jacobian ideal (K : (1)^inf = K) and every critical point counts."""
    ring = g.ring
    jac = Ideal(ring, [g.derive(i) for i in range(ring.n)], GLOBAL_DP)
    sat = saturation(jac, I)
    qd = sat.quotient_dimension()
    if not qd.is_finite:
        raise GermforgeError("POSITIVE_DIMENSIONAL_CRITICAL_LOCUS",
                             "the critical locus off the zero set is not finite")
    with_hess = Ideal(ring, list(sat.gens) + [hessian_det(g)], GLOBAL_DP)
    return CriticalReport(sat, qd.value, with_hess.is_unit())


_DEFECT_LOCUS = "the deformed member has a positive-dimensional defect locus"
_ORIGIN_ONLY = ("the deformed member's tangent ideal leaves the polynomial ideal, "
                "since f lies in I at the origin only")


def corrected_extended_codim(member: GermProblem, seed: int) -> int:
    """The defect mass of the member P.member(g) drawn at seed: dim I/tau_e(g)
    in the global order. theta preserves the polynomial ideal and g - f lies
    in it, so the member's L refuses tau(g) only for an f outside that ideal."""
    try:
        return member.finite_codim(_DEFECT_LOCUS, "GENERICITY_SUSPECT")
    except GermforgeError as error:
        if error.code != "PRECONDITION_VIOLATED":
            raise
        raise GermforgeError(error.code, f"seed {seed}: {_ORIGIN_ONLY}") from None


# ---------------------------------------------------------------------------
# the lengths of the defect points


def _charpoly(A: list[list[Q]], t: Ring) -> Poly:
    """det(t - A) in t's one variable, by Faddeev-LeVerrier: from M_0 = 0 and
    c_n = 1, M_k = A M_(k-1) + c_(n-k+1) and c_(n-k) = -tr(A M_k) / k."""
    n = len(A)
    coeffs, M = [Q(1)], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(a * M[l][j] for l, a in enumerate(row) if a) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i, row in enumerate(A)]
        coeffs.append(-Q(sum(a * M[l][i] for i, row in enumerate(A) for l, a in enumerate(row)
                             if a)) / k)
    return t.sum(t.var(0) ** (n - k) * c for k, c in enumerate(coeffs))


def _multiplication_matrices(L: Submodule) -> list[list[list[Q]]]:
    """The matrix of each x_i on the finite quotient O^r/L under 'dp', in the
    basis of its staircase witness: column j holds the normal form of x_i
    times the j-th label."""
    ring, labels = L.ring, L.quotient_dimension().witness
    where, zero = {lab: j for j, lab in enumerate(labels)}, vec_zero(ring, L.rank)
    matrices = []
    for i in range(ring.n):
        M = [[Q(0)] * len(labels) for _ in labels]
        for j, (pos, m) in enumerate(labels):
            shifted = ring.monomial(m[:i] + (m[i] + 1,) + m[i + 1:])
            for row, p in enumerate(L.normal_form(zero[:pos] + (shifted,) + zero[pos + 1:])):
                for mono, c in p.terms.items():
                    M[where[row, mono]][j] = c
        matrices.append(M)
    return matrices


def point_lengths(L: Submodule, support: Ideal) -> dict[int, int]:
    """How many points of each length k the finite quotient O^r/L under 'dp'
    has, over the algebraic closure, for the zero set V(support) of its
    annihilator; no point is located. By Stickelberger's theorem (Cox-Little-
    O'Shea, Using Algebraic Geometry, ch. 4 section 2) the characteristic
    polynomial of a linear form l on the quotient is the product over the
    points p of (t - l(p))^len_p. The form l_c = sum_i c^i x_i, for c = 1,
    2, ..., separates the points exactly when that polynomial's squarefree
    part has one root per point, as many as dim Q[x]/rad(support); a pair of
    points meets l_c(p) = l_c(q) for at most n - 1 values of c, so some c
    does. Then the squarefree part of chi_(k-1) has degree the number of
    points of length at least k, chi_0 the characteristic polynomial and
    chi_k the quotient of chi_(k-1) by its squarefree part."""
    points = zero_dim_radical(support).quotient_dimension().value
    matrices, t = _multiplication_matrices(L), Ring(["t"])
    size = range(len(matrices[0]))
    for c in count(1):
        chi = _charpoly([[sum(c ** i * X[r][j] for i, X in enumerate(matrices)) for j in size]
                         for r in size], t)
        part = squarefree_part(chi, 0)
        if part.total_degree() == points:
            break
    at_least = []
    while part.total_degree() > 0:
        at_least.append(part.total_degree())
        [chi] = Ideal(t, [part], GLOBAL_DP).lift(chi)
        part = squarefree_part(chi, 0)
    return {k: a - b for k, (a, b) in enumerate(zip(at_least, at_least[1:] + [0]), 1) if a > b}


# the benchmark's tracer binds the point lengths by this name
locate_rational_points = point_lengths


# ---------------------------------------------------------------------------
# splitting report


class SplittingReport(namedtuple("SplittingReport",
                                   "sigma corrected morse seeds stable warnings")):
    __slots__ = ()


def _one_split(P: GermProblem, seed: int, degree_bound: int | None):
    c_value = P.c_ext.value
    g = random_deformation(P, degree_bound, seed)
    member = P.member(g)
    corrected = corrected_extended_codim(member, seed)
    if corrected > c_value:
        raise GermforgeError("GENERICITY_SUSPECT",
                             f"seed {seed}: defect mass {corrected} exceeds the "
                             f"codimension {c_value} of the undeformed germ")
    crit = critical_points_outside(g, member.I)
    if not crit.all_morse:
        raise GermforgeError("GENERICITY_SUSPECT",
                             f"seed {seed}: critical points off the zero set "
                             "are degenerate")
    # drift probe: one degree of extra room must not change the count; with
    # no bound the whole cobasis is in already, so there is nothing to probe
    if degree_bound is not None:
        g2 = random_deformation(P, degree_bound + 1, seed)
        if g2 != g and critical_points_outside(g2, member.I).count != crit.count:
            raise GermforgeError("GENERICITY_SUSPECT",
                                 f"seed {seed}: critical count drifts with the degree bound")
    if corrected < crit.count:
        raise AssertionError("the defect mass must cover the Morse points")
    if corrected == crit.count:
        # every defect point is one of the nondegenerate critical points,
        # each of local codimension one; the quotient need not be read
        return ({1: crit.count} if crit.count else {}), corrected, crit.count
    sigma = point_lengths(member.L, member.locus())
    if sum(k * cnt for k, cnt in sigma.items()) != corrected:
        raise AssertionError("the lengths of the defect points must tally")
    return sigma, corrected, crit.count


def splitting(P: GermProblem, seeds: Sequence[int] | None = None,
              degree_bound: int | None = None) -> SplittingReport:
    """The splitting report of P's germ; its members share P's theta. Each
    seed draws one sample, so a repeated seed is refused."""
    used = tuple(seeds) if seeds else DEFAULT_SEEDS
    if len(set(used)) < len(used):
        raise GermforgeError("PRECONDITION_VIOLATED",
                             f"seeds must be distinct, got {','.join(map(str, used))}")
    c_value = P.finite_codim("splitting needs finite extended codimension")
    if c_value == 0:
        return SplittingReport({}, 0, 0, used, True, SAMPLED)
    outcomes = [_one_split(P, s, degree_bound) for s in used]
    first = outcomes[0]
    if any(o != first for o in outcomes[1:]):
        raise GermforgeError("GENERICITY_SUSPECT",
                             "seeds disagree on the splitting outcome")
    sigma, corrected, morse = first
    for k, cnt in sigma.items():
        if k * cnt > c_value:
            raise AssertionError("a splitting class exceeds the codimension")
    return SplittingReport(sigma, corrected, morse, used, True, SAMPLED)


# ---------------------------------------------------------------------------
# conservation of number


def conservation_check(f: Poly, I: Ideal, trials: int = 3,
                       assume_reduced: bool = False,
                       degree_bound: int | None = None) -> bool:
    """The multiplicity of f against the nondegenerate-point component at the
    origin must reappear as the total multiplicity, off the zero set, of
    every sampled member of the family, each lifted through the problem's I
    with one shared lifter. Each trial takes its own seed from TRIAL_SEEDS,
    so trials runs from 1 to len(TRIAL_SEEDS)."""
    if not 1 <= trials <= len(TRIAL_SEEDS):
        raise GermforgeError("BAD_REQUEST",
                             f"trials must be between 1 and {len(TRIAL_SEEDS)}, got {trials}")
    P = GermProblem(f, I)
    if P.finite_codim("conservation needs finite extended codimension") == 0:
        # the family is constant, so every trial repeats the reference
        return True
    ctx, M, reference = jet_morse_number(P, assume_reduced)
    for t in range(trials):
        g = random_deformation(P, degree_bound, TRIAL_SEEDS[t])
        pulled = jet_pullback(ctx, M, lift_germ(g, P.I)).with_order(GLOBAL_DP)
        total = saturation(pulled, I).quotient_dimension()
        if not total.is_finite or total.value != reference:
            return False
    return True
