"""Singularity invariants of a germ relative to an ideal.

Every invariant of a germ f in an ideal I comes from the same tangent data,
and GermProblem(f, I) is the one place that computes it, each piece once, on
first use:

- theta: the fields preserving I (tangent.theta_preserving);
- tau: the tangent ideal tau_e(f), swept out of f by theta;
- L: the coefficient vectors c with sum c_i g_i in tau, so that I/tau is
  O^k/L; c_ext is the dimension of that quotient and cobasis its witness,
  read as the elements I.gens[pos] * m;
- c_plain: the same dimension over the fields of theta vanishing at the
  origin, derived from the same theta;
- model: the truncated model of O^k/L at the origin
  (stdbasis.truncated_model); determinacy is its certified degree;
- locus() builds on tau, and is_versal(U) on the model.

The module functions extended_codim, plain_codim, determinacy_bound,
positive_codim_locus, versality_check, build_versal_unfolding and
invariant_report are entry points that build one problem each; code that
needs several invariants of one pair builds the problem once and reads them
all from it.

The model is the elimination that certifies the local quotient: its degree
d is the least with m^d O^k inside L. Since e_j -> g_j maps m^d O^k onto
m^d I and L is the preimage of tau, d is also the least m with m^m I inside
tau. Its caps climb from one above the largest witness degree to c, since a
quotient of length c is killed by m^c. Below d it is the integer echelon
form (linalg.RowBasis) of the shifts of L's generators, a faithful copy of
O^k/L. The model is local whatever the order of I: its dimension is c under
'ds' and at most c, the global length, under 'dp'; a missing model, or one
that breaks this, is an internal error, raised before any conclusion is
drawn. U is versal exactly when its parameter derivatives add the model's
dimension to its rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import GermforgeError
from .linalg import RowBasis, integral
from .polyring import GLOBAL_DP, LOCAL_DS, Mono, Poly, Ring, mono_deg
from .stdbasis import (
    Ideal,
    QuotientDim,
    Submodule,
    TruncatedModel,
    ideal_quotient,
    subideal_preimage,
    truncated_model,
)
from .tangent import VectorFieldModule, tangent_ideal, theta_preserving, theta_vanishing


class GermProblem:
    """A germ f in an ideal I, with the tangent data of the pair computed on
    first use and kept for the life of the problem."""

    def __init__(self, f: Poly, I: Ideal) -> None:
        if not I.contains(f):
            raise GermforgeError("F_NOT_IN_IDEAL", f"{f} is not a member of the ideal")
        self.f = f
        self.I = I

    @cached_property
    def theta(self) -> VectorFieldModule:
        return theta_preserving(self.I)

    @cached_property
    def tau(self) -> Ideal:
        return tangent_ideal(self.f, self.theta)

    @cached_property
    def L(self) -> Submodule:
        return subideal_preimage(self.I, self.tau)

    @cached_property
    def c_ext(self) -> QuotientDim:
        """dim I/tau_e(f) where tau_e comes from all ideal-preserving fields."""
        return self.L.quotient_dimension()

    @cached_property
    def c_plain(self) -> QuotientDim:
        """dim I/tau(f) where tau uses only fields vanishing at the origin."""
        tau = tangent_ideal(self.f, theta_vanishing(self.theta))
        return subideal_preimage(self.I, tau).quotient_dimension()

    def finite_codim(self, why: str) -> int:
        """The extended codimension, or NOT_FINITE_CODIM with the reason the
        caller needs it finite."""
        if not self.c_ext.is_finite:
            raise GermforgeError("NOT_FINITE_CODIM", why)
        return self.c_ext.value

    @cached_property
    def cobasis(self) -> Tuple[Poly, ...]:
        """Elements of I whose classes form a basis of I/tau_e(f)."""
        return tuple(self.I.gens[pos].term_mul(m, Fraction(1))
                     for pos, m in self.c_ext.witness)

    @cached_property
    def model(self) -> Optional[TruncatedModel]:
        """The truncated model of O^k/L in the local ring whatever the order
        of I, or None when no cap certifies; needs 0 < c_ext < infinity."""
        c = self.c_ext
        top = max(mono_deg(m) for _, m in c.witness)
        return truncated_model(self.L.gens, self.I.ring, self.L.rank, LOCAL_DS,
                               range(1 + top, c.value + 1))

    @cached_property
    def determinacy(self) -> int:
        """Minimal m with m^m * I inside tau_e(f) at the origin; 0 means I
        itself is inside. Determinacy belongs to the germ, so it is the
        certified degree of the local model whatever the order of I."""
        c = self.finite_codim("determinacy needs finite codimension")
        if c == 0:
            return 0
        if self.model is None:
            raise AssertionError("determinacy exceeded the codimension bound")
        return self.model.degree

    def locus(self) -> Ideal:
        """(tau_e(f) : I) in the global ring; its zero set is where f has
        positive extended codimension as a function."""
        return ideal_quotient(self.tau.with_order(GLOBAL_DP), self.I.with_order(GLOBAL_DP))

    def is_versal(self, U: Unfolding) -> bool:
        """True iff tau_e(f) plus the span of the parameter derivatives of U
        at the origin of the parameter space fills I."""
        if U.f != self.f:
            raise ValueError("the unfolding is over another germ")
        validate_unfolding(U, self.I)
        c = self.c_ext
        if not c.is_finite:
            return False
        if c.value == 0:
            return True
        model = self.model
        dim = None if model is None else len(model.labels) - model.basis.rank
        if dim is None or dim > c.value or (self.I.order.is_local and dim != c.value):
            raise AssertionError("truncated quotient model disagrees with the codimension")
        col = {lab: i for i, lab in enumerate(model.labels)}
        rows = []
        for i in range(len(U.params)):
            coords = self.I.lift(U.derivative_at_zero(i))
            if coords is None:
                raise AssertionError("parameter derivative escaped the ideal")
            rows.append(integral({col[pos, m]: a for pos, p in enumerate(coords)
                                  for m, a in p.terms.items() if (pos, m) in col}))
        # reduced modulo the model, which is kept unchanged for later calls
        residuals = (integral(model.basis.reduce(row)) for row in rows)
        return RowBasis().extend(residuals) == dim


def extended_codim(f: Poly, I: Ideal) -> QuotientDim:
    """dim I/tau_e(f) where tau_e comes from all ideal-preserving fields."""
    return GermProblem(f, I).c_ext


def plain_codim(f: Poly, I: Ideal) -> QuotientDim:
    """dim I/tau(f) where tau uses only fields vanishing at the origin."""
    return GermProblem(f, I).c_plain


def determinacy_bound(f: Poly, I: Ideal) -> int:
    """Minimal m with m^m * I inside tau_e(f); 0 means I itself is inside."""
    return GermProblem(f, I).determinacy


def positive_codim_locus(f: Poly, I: Ideal) -> Ideal:
    """(tau_e(f) : I) in the global ring; its zero set is where f has
    positive extended codimension as a function."""
    return GermProblem(f, I).locus()


# ---------------------------------------------------------------------------
# unfoldings and versality


@dataclass(frozen=True)
class Unfolding:
    """Polynomial family F over base germ f; the parameters are the trailing
    variables of ring and setting them to zero recovers f."""

    ring: Ring
    F: Poly
    params: Tuple[str, ...]
    base_ring: Ring
    f: Poly

    def __post_init__(self):
        if self.ring.names[:self.base_ring.n] != self.base_ring.names:
            raise ValueError("extended ring must start with the base variables")
        if set(self.params) != set(self.ring.names[self.base_ring.n:]):
            raise ValueError("parameters must be exactly the trailing variables")
        if self.specialized() != self.f:
            raise GermforgeError("F_NOT_UNFOLDING", "setting parameters to zero does not recover f")

    def specialized(self) -> Poly:
        images = [self.base_ring.var(i) for i in range(self.base_ring.n)]
        images += [self.base_ring.zero()] * len(self.params)
        return self.F.substitute(images, self.base_ring)

    def derivative_at_zero(self, which: int) -> Poly:
        """dF/ds_which with all parameters set to zero, in the base ring."""
        dF = self.F.derive(self.base_ring.n + which)
        images = [self.base_ring.var(i) for i in range(self.base_ring.n)]
        images += [self.base_ring.zero()] * len(self.params)
        return dF.substitute(images, self.base_ring)


def make_unfolding(f: Poly, params: Sequence[str], F: Poly) -> Unfolding:
    """Package a total polynomial F (in base variables plus params) over f."""
    return Unfolding(F.ring, F, tuple(params), f.ring, f)


def validate_unfolding(U: Unfolding, I: Ideal) -> None:
    """F - f must lie in the ideal I generates in the extended polynomial
    ring; this is the computable form of 'every slice stays inside I'."""
    ext = U.ring
    n = U.base_ring.n
    lifted = [g.rename(ext, list(range(n))) for g in I.gens]
    I_ext = Ideal(ext, lifted, GLOBAL_DP)
    f_ext = U.f.rename(ext, list(range(n)))
    if not I_ext.contains(U.F - f_ext):
        raise GermforgeError("F_NOT_UNFOLDING",
                             "F - f is not a combination of the ideal generators")


def versality_check(U: Unfolding, I: Ideal) -> bool:
    """True iff tau_e(f) plus the span of the parameter derivatives at the
    origin of the parameter space fills I."""
    return GermProblem(U.f, I).is_versal(U)


def build_versal_unfolding(f: Poly, I: Ideal) -> Unfolding:
    """F = f + sum s_i h_i with the h_i a basis of I/tau_e(f)."""
    P = GermProblem(f, I)
    P.finite_codim("versal unfoldings need finite codimension")
    ring = I.ring
    params = _fresh_names(ring, len(P.cobasis))
    ext = ring.extend(params)
    n = ring.n
    F = f.rename(ext, list(range(n)))
    for i, h in enumerate(P.cobasis):
        F = F + ext.var(n + i) * h.rename(ext, list(range(n)))
    U = Unfolding(ext, F, tuple(params), ring, f)
    if not P.is_versal(U):
        raise AssertionError("constructed unfolding failed its own versality check")
    return U


def _fresh_names(ring: Ring, count: int) -> List[str]:
    for prefix in ("s", "t", "u", "v", "w"):
        names = [f"{prefix}{i + 1}" for i in range(count)]
        if not any(nm in ring.index for nm in names):
            return names
    raise ValueError("could not find fresh parameter names")


# ---------------------------------------------------------------------------
# D(d, k) classification


@dataclass(frozen=True)
class DdkClass:
    d: int
    k: int
    verdict: str  # IS_Ddk | NOT_Ddk | NOT_APPLICABLE


def classify_Ddk(f: Poly, J: Ideal) -> DdkClass:
    """Decide whether f, written as a quadratic form in the J-variables, is
    nondegenerate after splitting off unit pivots, with independent linear
    forms on the residual block. Each Gram entry is a Poly taken modulo
    J + m^2: its constant term plus its linear terms in the transverse
    variables."""
    ring = f.ring
    y_vars: List[int] = []
    for g in J.gens:
        terms = list(g.terms.items())
        ok = len(terms) == 1 and sum(terms[0][0]) == 1 and terms[0][1] == 1
        if not ok:
            raise GermforgeError("NON_ADAPTED_COORDINATES",
                                 "the ideal generators must be distinct variables")
        y_vars.append(terms[0][0].index(1))
    if len(set(y_vars)) != len(y_vars):
        raise GermforgeError("NON_ADAPTED_COORDINATES", "repeated variable among generators")
    x_vars = [i for i in range(ring.n) if i not in set(y_vars)]
    d = len(x_vars)
    m = len(y_vars)

    # symmetric Gram matrix: f = sum H[i][j] y_i y_j with H symmetric
    upper: Dict[Tuple[int, int], Dict[Mono, Fraction]] = {}
    for mono, coeff in f.terms.items():
        ys = [t for t, yv in enumerate(y_vars) if mono[yv] > 0]
        ydeg = sum(mono[yv] for yv in y_vars)
        if ydeg < 2:
            raise GermforgeError("F_NOT_IN_JSQUARED",
                                 f"term {ring.monomial(mono)} has degree < 2 in the ideal variables")
        i = ys[0]
        rest = list(mono)
        rest[y_vars[i]] -= 1
        j = i if rest[y_vars[i]] > 0 else [t for t in ys if rest[y_vars[t]] > 0][0]
        rest[y_vars[j]] -= 1
        key, res_mono = (i, j), tuple(rest)
        upper.setdefault(key, {})
        upper[key][res_mono] = upper[key].get(res_mono, Fraction(0)) + coeff

    xset = set(x_vars)
    H: List[List[Poly]] = [[ring.zero()] * m for _ in range(m)]
    for (i, j), terms in upper.items():
        p = Poly(ring, {mono: c for mono, c in terms.items()
                        if sum(mono) == 0 or sum(mono) == 1 and mono.index(1) in xset})
        H[i][j] = H[j][i] = p if i == j else p * Fraction(1, 2)

    active = list(range(m))
    while True:
        pivot = next((i for i in active if H[i][i].constant_term() != 0), None)
        if pivot is None:
            off = next(((i, j) for i in active for j in active
                        if i < j and H[i][j].constant_term() != 0), None)
            if off is None:
                break
            i, j = off
            # add row j to row i and column j to column i (char 0: creates a unit)
            for l in active:
                H[i][l] = H[i][l] + H[j][l]
            for l in active:
                H[l][i] = H[l][i] + H[l][j]
            continue
        i = pivot
        # (c + l)^-1 = 1/c - l/c^2 = (2c - (c + l))/c^2 modulo m^2
        c = H[i][i].constant_term()
        inv = (2 * c - H[i][i]) * (1 / (c * c))
        others = [j for j in active if j != i]
        col = {j: H[j][i] for j in others}
        for j in others:
            fac = (col[j] * inv).truncate(1)
            for l in others:
                H[j][l] = H[j][l] - (fac * H[i][l]).truncate(1)
        active.remove(i)

    k = len(active)
    if k == 0:
        return DdkClass(d, 0, "IS_Ddk")
    needed = k * (k + 1) // 2
    if needed > d:
        return DdkClass(d, k, "NOT_APPLICABLE")
    entries = [H[active[a]][active[b]] for a in range(k) for b in range(a, k)]
    if any(entry.constant_term() != 0 for entry in entries):
        raise AssertionError("unsplit block contains a unit entry")
    rank = RowBasis().extend(integral({mono.index(1): c for mono, c in entry.terms.items()})
                             for entry in entries)
    verdict = "IS_Ddk" if rank == needed else "NOT_Ddk"
    return DdkClass(d, k, verdict)


# ---------------------------------------------------------------------------
# report bundle


@dataclass(frozen=True)
class InvariantReport:
    c_ext: QuotientDim
    c_plain: QuotientDim
    determinacy: Optional[int]
    basis: Tuple[Poly, ...]


def invariant_report(f: Poly, I: Ideal) -> InvariantReport:
    P = GermProblem(f, I)
    if P.c_ext.is_finite != P.c_plain.is_finite:
        raise AssertionError("finiteness of the two codimensions must agree")
    det = P.determinacy if P.c_ext.is_finite else None
    return InvariantReport(P.c_ext, P.c_plain, det, P.cobasis)
