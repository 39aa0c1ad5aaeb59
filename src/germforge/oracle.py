"""Exact deformation harness: seeded generic members, critical-point counts
off the zero set, empirical splitting functions, and conservation checks.

Counts are global: a deformed polynomial's critical points are tallied over
all of affine space (dimension of the saturated Jacobian quotient), not in a
small ball, so every report carries the GLOBAL_COUNT marker. The count off
the zero set of I is dim k[x]/(K : I^infinity), where K is the Jacobian
ideal of the deformed member (critical points) or the pulled-back jet ideal
(conservation). When no point of V(K) lies on V(I), K + I is the unit
ideal and saturation hands K back after one standard basis of K + I; only
when V(K) meets V(I) does the iterated colon run. Genericity is
sampled (cross-seed stability plus a degree-drift probe), never certified;
disagreement raises instead of guessing. A deformed member g is the
GermProblem P.member(g) under dp, which shares P's theta: its c_ext is the
defect mass and its locus() holds the points to locate. Rational points are
located by the p-adically lifted roots of the squarefree parts of the
per-variable minimal polynomials, all rational exactly when each squarefree
part has as many rational roots as its degree. Each is measured once, on
the member's module moved there, member.L.at(point): O^k/L is I/tau_e(g),
so its local length is the point's codimension, finite as L's global length
is; when some point is not rational only the aggregate is reported.
The oracle's Morse number is splitting(P).morse; the jet route's is
jetmorse.jet_morse_number(P), which conservation_check reads its reference
from.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import count

from .errors import GermforgeError
from .invariants import GermProblem
from .jetmorse import jet_morse_number, jet_pullback, lift_germ
from .polyring import GLOBAL_DP, Poly, Q, Ring
from .stdbasis import Ideal, minimal_polynomial, saturation, squarefree_part

DEFAULT_SEEDS: tuple[int, ...] = (11, 13)
TRIAL_SEEDS: tuple[int, ...] = (11, 13, 17, 19, 23, 29, 31, 37)

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


def random_deformation(f: Poly, I: Ideal, degree_bound: int | None = None,
                       seed: int = 11) -> Poly:
    """f plus a seeded rational combination of the cobasis of the tangent
    ideal inside I (monomial multiples of I's generators), keeping the
    elements of total degree at most degree_bound; the result stays in I
    whenever f lies in I. The default bound admits the whole cobasis, so a
    finite versal family is sampled; lower bounds truncate it, which the
    splitting harness detects as drift."""
    return _deform(GermProblem(f, I), degree_bound, seed)


def _deform(P: GermProblem, degree_bound: int | None, seed: int) -> Poly:
    P.finite_codim("deformations are drawn along a finite basis over the tangent ideal")
    rng = XorShift64(seed)
    return P.f.ring.sum([P.f] + [h * rng.rational() for h in P.cobasis
                                 if degree_bound is None or h.total_degree() <= degree_bound])


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


def corrected_extended_codim(g: Poly, I: Ideal) -> int:
    """Dimension of I over the tangent ideal of g in the global order; by
    finite support this is the sum of the local values over every point.
    g, a deformed member, is not checked against the global ideal."""
    return GermProblem(g, I.with_order(GLOBAL_DP), check=False).finite_codim(
        _DEFECT_LOCUS, "GENERICITY_SUSPECT")


# ---------------------------------------------------------------------------
# rational point location


def _rational_roots(p: Poly) -> list[Q]:
    """The rational roots, ascending, of a squarefree polynomial p in one
    variable. Scaled to integers a_0..a_d, they are y / a_d for the integer
    roots y of the monic h(y) = a_d^(d-1) sum a_i (y / a_d)^i. Each y is a
    root of h modulo the first prime where every root of h is simple, from
    which Newton's step lifts it uniquely past twice Cauchy's bound on |y|;
    each lift is checked exactly. The cost grows with the bit length of the
    coefficients, not with their size."""
    d = p.total_degree()
    coeffs = {sum(m): c for m, c in p.terms.items()}
    scale = math.lcm(*(c.denominator for c in coeffs.values()))
    ints = [int(coeffs.get(i, 0) * scale) for i in range(d + 1)]
    lead = ints[-1]
    h = [c * lead ** (d - 1 - i) for i, c in enumerate(ints[:-1])] + [1]

    def value(y: int, mod: int) -> tuple[int, int]:
        """h(y) and h'(y) modulo mod, by Horner's rule."""
        v = dv = 0
        for c in reversed(h):
            v, dv = (v * y + c) % mod, (dv * y + v) % mod
        return v, dv

    for prime in (q for q in count(2) if all(q % t for t in range(2, q))):
        roots = [y for y in range(prime) if value(y, prime)[0] == 0]
        if all(value(y, prime)[1] for y in roots):
            break
    mod, bound = prime, 2 * (1 + max(abs(c) for c in h))
    while mod <= bound:
        mod *= mod
        roots = [(y - v * pow(dv, -1, mod)) % mod for y in roots for v, dv in [value(y, mod)]]
    candidates = (y - mod if 2 * y > mod else y for y in roots)
    return sorted(Q(y, lead) for y in candidates if sum(c * y ** i for i, c in enumerate(h)) == 0)


def locate_rational_points(L: Ideal) -> list[tuple[Q, ...]] | None:
    """Every point of the zero set, when all of them are rational; None when
    some point is not rational or the zero set is not finite. The values of
    x_i at the points are the roots of its minimal polynomial on the
    quotient (Cox-Little-O'Shea, Using Algebraic Geometry, ch. 2 section 4),
    so all points are rational exactly when every squarefree part has as
    many rational roots as its degree."""
    ring, L_dp = L.ring, L.with_order(GLOBAL_DP)
    if not L_dp.quotient_dimension().is_finite:
        return None
    candidates: list[tuple[Q, ...]] = [()]
    for i in range(ring.n):
        part = squarefree_part(minimal_polynomial(L_dp, i), i)
        roots = _rational_roots(part)
        if len(roots) < part.total_degree():
            return None
        candidates = [c + (r,) for c in candidates for r in roots]
    return [c for c in candidates for at in [[ring.const(v) for v in c]]
            if all(g.substitute(at).is_zero() for g in L_dp.gens)]


# ---------------------------------------------------------------------------
# splitting report


class SplittingReport(namedtuple("SplittingReport",
                                   "sigma corrected morse seeds stable warnings")):
    __slots__ = ()


def _one_split(P: GermProblem, seed: int, degree_bound: int | None):
    c_value = P.c_ext.value
    g = _deform(P, degree_bound, seed)
    member = P.member(g)
    try:
        corrected = member.finite_codim(_DEFECT_LOCUS, "GENERICITY_SUSPECT")
    except GermforgeError as error:
        # theta preserves the polynomial ideal and g - f lies in it, so the
        # member's L refuses tau(g) only for an f outside that ideal
        if error.code != "PRECONDITION_VIOLATED":
            raise
        raise GermforgeError(error.code, f"seed {seed}: {_ORIGIN_ONLY}") from None
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
        g2 = _deform(P, degree_bound + 1, seed)
        if g2 != g and critical_points_outside(g2, member.I).count != crit.count:
            raise GermforgeError("GENERICITY_SUSPECT",
                                 f"seed {seed}: critical count drifts with the degree bound")
    if corrected < crit.count:
        raise AssertionError("the defect mass must cover the Morse points")
    if corrected == crit.count:
        # every defect point is one of the nondegenerate critical points,
        # each of local codimension one; no location needed
        return ({1: crit.count} if crit.count else {}), corrected, crit.count
    points = locate_rational_points(member.locus())
    if points is None:
        return None, corrected, crit.count
    ks = [k for k in (member.L.at(pt).quotient_dimension().value for pt in points) if k > 0]
    if sum(ks) != corrected:
        raise AssertionError("located local codimensions must tally")
    return {k: ks.count(k) for k in ks}, corrected, crit.count


def splitting(P: GermProblem, seeds: Sequence[int] | None = None,
              degree_bound: int | None = None) -> SplittingReport:
    """The splitting report of P's germ; its members share P's theta. Each
    seed draws one sample, so a repeated seed is refused."""
    used = tuple(seeds) if seeds else DEFAULT_SEEDS
    if len(set(used)) < len(used):
        raise GermforgeError("PRECONDITION_VIOLATED",
                             f"seeds must be distinct, got {','.join(map(str, used))}")
    c_value = P.finite_codim("splitting needs finite extended codimension")
    warnings = ["GLOBAL_COUNT", "GENERICITY_SAMPLED"]
    if c_value == 0:
        return SplittingReport({}, 0, 0, used, True, tuple(warnings))
    outcomes = [_one_split(P, s, degree_bound) for s in used]
    first = outcomes[0]
    if any(o != first for o in outcomes[1:]):
        raise GermforgeError("GENERICITY_SUSPECT",
                             "seeds disagree on the splitting outcome")
    sigma, corrected, morse = first
    for k, cnt in (sigma or {}).items():
        if k * cnt > c_value:
            raise AssertionError("a splitting class exceeds the codimension")
    if sigma is None:
        warnings.append("NONRATIONAL_POINTS")
    return SplittingReport(sigma, corrected, morse, used, True, tuple(warnings))


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
        g = _deform(P, degree_bound, TRIAL_SEEDS[t])
        pulled = jet_pullback(ctx, M, lift_germ(g, P.I)).with_order(GLOBAL_DP)
        total = saturation(pulled, I).quotient_dimension()
        if not total.is_finite or total.value != reference:
            return False
    return True
