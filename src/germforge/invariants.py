"""Singularity invariants of a germ relative to an ideal.

Every invariant of a germ f in an ideal I comes from the same tangent data,
and GermProblem(f, I) is the one place that computes it, each piece once, on
first use:

- theta: the fields preserving I (tangent.theta_preserving);
- tau: the tangent ideal tau_e(f), swept out of f by theta;
- L: the coefficient vectors c with sum c_i g_i in tau, so that I/tau is
  O^k/L; c_ext is the dimension of that quotient and cobasis its witness,
  read as the elements I.gens[pos] * m. L is the syzygies of I's
  generators plus one lift of each generator of tau, both read from I's
  one lifter (stdbasis.subideal_preimage);
- c_plain: the same dimension over the fields of theta vanishing at the
  origin, derived from the same theta, its module read from the same
  lifter; when every generator of theta vanishes there, or the two tangent
  ideals share generators, it is c_ext;
- model: L's local model, the truncated model of O^k/L at the origin that
  certified the local length (Submodule.local_model); determinacy is its
  certified degree;
- locus() builds on tau, and is_versal(U) on the model.

member(g) is the problem of a deformed member g = f + sum h_i g_i under the
global order; theta depends on I alone, so a family's members share one.
Its finite quotient O^k/L is I/tau, so the lengths of its defect points are
read from that quotient (oracle.point_lengths) and no moved problem is built.

The module functions extended_codim, plain_codim, determinacy_bound,
positive_codim_locus, versality_check and build_versal_unfolding are entry
points that build one problem each; code that needs several invariants of
one pair builds the problem once and reads them all from it.

The model is the elimination that certified the local quotient O^k/L, kept
on L's local view; the problem climbs no caps of its own. Its degree d is
the least with m^d O^k inside L, the same at every cap that certifies, so
the model depends only on L's generators and d. Since e_j -> g_j maps
m^d O^k onto m^d I and L is the preimage of tau, d is also the least m with
m^m I inside tau. Below d it is the integer echelon form (linalg.RowBasis)
of the shifts of L's generators, a faithful copy of O^k/L. The model is
local whatever the order of I: its dimension is c under 'ds' and at most c,
the global length, under 'dp'; a missing model, or one that breaks this, is
an internal error, raised before any conclusion is drawn. U is versal
exactly when its parameter derivatives add the model's dimension to its
rank.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain, count

from .errors import GermforgeError
from .linalg import RowBasis, integral, nullspace
from .polyring import GLOBAL_DP, Poly, Q, Ring
from .stdbasis import (
    Ideal,
    QuotientDim,
    Submodule,
    TruncatedModel,
    ideal_quotient,
    subideal_preimage,
    vec_zero,
)
from .tangent import tangent_ideal, theta_preserving, theta_vanishing


class GermProblem:
    """A germ f in an ideal I, with the tangent data of the pair computed on
    first use and kept for the life of the problem."""

    def __init__(self, f: Poly, I: Ideal, check: bool = True) -> None:
        if check and not I.contains(f):
            raise GermforgeError("F_NOT_IN_IDEAL", f"{f} is not a member of the ideal")
        self.f = f
        self.I = I

    @cached_property
    def theta(self) -> Submodule:
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
        """dim I/tau(f) where tau uses only fields vanishing at the origin.
        A theta whose generators have no constant term lies in m * Theta, so
        its vanishing part is theta itself and tau(f) is tau_e(f), as it is
        when their generator sets agree. The two codimensions differ by at
        most n, so they are finite together. Its module L_plain is read
        from the lifter of I that L reads."""
        if not any(a.constant_term() for X in self.theta.gens for a in X):
            return self.c_ext
        tau = tangent_ideal(self.f, theta_vanishing(self.theta))
        if set(tau.gens) == set(self.tau.gens):
            return self.c_ext
        c = subideal_preimage(self.I, tau).quotient_dimension()
        if c.is_finite != self.c_ext.is_finite:
            raise AssertionError("finiteness of the two codimensions must agree")
        return c

    def finite_codim(self, why: str, code: str = "NOT_FINITE_CODIM") -> int:
        """The extended codimension, or the error code (NOT_FINITE_CODIM by
        default) with the reason the caller needs it finite."""
        if not self.c_ext.is_finite:
            raise GermforgeError(code, why)
        return self.c_ext.value

    def member(self, g: Poly) -> GermProblem:
        """The problem of g = f + sum h_i g_i under the global order, sharing
        this problem's theta. g lies in I wherever f does, under 'ds' maybe
        at the origin only, so it is not checked against the global ideal."""
        other = GermProblem(g, self.I.with_order(GLOBAL_DP), check=False)
        other.theta = self.theta.with_order(GLOBAL_DP)
        return other

    @cached_property
    def cobasis(self) -> tuple[Poly, ...]:
        """Elements of I whose classes form a basis of I/tau_e(f)."""
        ring = self.I.ring
        return tuple(ring.monomial(m) * self.I.gens[pos] for pos, m in self.c_ext.witness)

    @cached_property
    def model(self) -> TruncatedModel | None:
        """The truncated model of O^k/L in the local ring whatever the order
        of I, or None when that quotient is infinite."""
        return self.L.local_model()

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
        at the origin of the parameter space fills I; each derivative is the
        coordinate vector that validate_unfolding lifted, read in the model."""
        if U.f != self.f:
            raise ValueError("the unfolding is over another germ")
        derivatives = validate_unfolding(U, self.I)
        c = self.c_ext
        if not c.is_finite:
            return False
        if c.value == 0:
            return True
        model = self.model
        dim = None if model is None else len(model.labels) - model.basis.rank
        if dim is None or dim > c.value or (self.I.order.is_local and dim != c.value):
            raise AssertionError("truncated quotient model disagrees with the codimension")
        # reduced modulo the model, which is kept unchanged for later calls
        residuals = (integral(model.basis.reduce(model.row(coords))) for coords in derivatives)
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


class Unfolding:
    """Polynomial family F over base germ f: F's ring starts with f's
    variables, its trailing variables are the parameters, and setting them
    to zero recovers f. dF/ds_i at s = 0 is F's coefficient at s_i."""

    __slots__ = ("f", "F")

    def __init__(self, f: Poly, F: Poly):
        self.f, self.F = f, F
        if F.ring.names[:f.ring.n] != f.ring.names:
            raise ValueError("extended ring must start with the base variables")
        if self.specialized() != f:
            raise GermforgeError("F_NOT_UNFOLDING", "setting parameters to zero does not recover f")

    @property
    def params(self) -> tuple[str, ...]:
        return self.F.ring.names[self.f.ring.n:]

    def specialized(self) -> Poly:
        """F with all parameters set to zero, in the base ring."""
        b = self.f.ring
        return self.F.substitute([b.var(i) for i in range(b.n)] + [b.zero()] * len(self.params), b)


def validate_unfolding(U: Unfolding, I: Ideal) -> list[tuple[Poly, ...]]:
    """F - f must lie in I k[x, s], the ideal I generates in the extended
    polynomial ring; this is the computable form of 'every slice stays
    inside I'. Write F = sum_a F_a s^a over the parameter monomials s^a,
    with F_a in k[x]. Since k[x, s] is free over k[x] on the s^a, I k[x, s]
    is free over I on them: it is the direct sum of the I s^a. So F - f
    lies in it exactly when F_0 - f and every other F_a lie in I. F_0 is f
    (Unfolding checks it), and each other F_a is one lift through I's
    global lifter (Ideal.lift); no ideal of the extended ring is built.
    Returns, for each parameter s_i in order, the coordinates over I's
    generators of dF/ds_i at s = 0: those of F_a for a = e_i, or zeros."""
    base, split = U.f.ring, {}
    for m, c in U.F.terms.items():
        if any(m[base.n:]):
            split.setdefault(m[base.n:], {})[m[:base.n]] = c
    lifts = {a: I.lift(Poly(base, terms)) for a, terms in split.items()}
    if None in lifts.values():
        raise GermforgeError("F_NOT_UNFOLDING",
                             "F - f is not a combination of the ideal generators")
    r, zero = len(U.params), vec_zero(base, len(I.gens))
    return [lifts.get(tuple(int(i == j) for j in range(r)), zero) for i in range(r)]


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
    base = [ext.var(i) for i in range(n)]
    F = ext.sum([f.substitute(base, ext)]
                + [ext.var(n + i) * h.substitute(base, ext)
                   for i, h in enumerate(P.cobasis)])
    U = Unfolding(f, F)
    if not P.is_versal(U):
        raise AssertionError("constructed unfolding failed its own versality check")
    return U


def _fresh_names(ring: Ring, size: int) -> list[str]:
    """s1..s<size>, else the first of t, u, v, w, ss, sss, ... whose names
    are not ring variables; the ring is finite, so one always is."""
    for prefix in chain("stuvw", ("s" * k for k in count(2))):
        names = [f"{prefix}{i + 1}" for i in range(size)]
        if not any(nm in ring.index for nm in names):
            return names


# ---------------------------------------------------------------------------
# D(d, k) classification


class DdkClass(namedtuple("DdkClass", "d k verdict")):
    """The D(d,k) verdict: IS_Ddk, NOT_Ddk or NOT_APPLICABLE."""

    __slots__ = ()


def classify_Ddk(f: Poly, J: Ideal) -> DdkClass:
    """Decide whether f, a quadratic form in the J-variables y with
    coefficients in the d transverse variables, is a D(d,k) germ. The Gram
    entry H_ij is 1/2 d^2 f/dy_i dy_j at y = 0 modulo m^2: a constant H0_ij
    plus a linear form H1_ij in the transverse variables. By the splitting
    lemma (Greuel-Lossen-Shustin, Introduction to Singularities and
    Deformations, I.2) the unit part of H0 splits off, leaving k squares,
    k the nullity of H0, whose Gram block modulo m^2 is K^T H1 K for a basis
    K of ker H0, up to a constant change of basis that keeps the span of its
    entries. The verdict reads those k(k+1)/2 entries: IS_Ddk when they are
    independent linear forms (always when k = 0), NOT_Ddk when dependent,
    and NOT_APPLICABLE when there are more of them than the d variables."""
    ring = f.ring
    y_vars = J.variables()
    if y_vars is None:
        raise GermforgeError("NON_ADAPTED_COORDINATES",
                             "the ideal generators must be distinct variables")
    if len(set(y_vars)) != len(y_vars):
        raise GermforgeError("NON_ADAPTED_COORDINATES", "repeated variable among generators")
    d = ring.n - len(y_vars)

    for mono in f.terms:
        if sum(mono[yv] for yv in y_vars) < 2:
            raise GermforgeError("F_NOT_IN_JSQUARED",
                                 f"term {ring.monomial(mono)} has degree < 2 in the ideal variables")

    at_zero = [ring.zero() if i in y_vars else ring.var(i) for i in range(ring.n)]
    H = [[f.derive(yi).derive(yj).truncate(1).substitute(at_zero, ring) * Q(1, 2)
          for yj in y_vars] for yi in y_vars]
    kernel = nullspace([{j: h.constant_term() for j, h in enumerate(row) if h.constant_term()}
                        for row in H])
    k = len(kernel)
    if k == 0:
        return DdkClass(d, 0, "IS_Ddk")
    needed = k * (k + 1) // 2
    if needed > d:
        return DdkClass(d, k, "NOT_APPLICABLE")
    entries = [ring.sum(H[i][j] * (ai * bj) for i, ai in a.items() for j, bj in b.items())
               for s, a in enumerate(kernel) for b in kernel[s:]]
    if any(entry.constant_term() for entry in entries):
        raise AssertionError("the constant Gram matrix does not vanish on its kernel")
    rank = RowBasis().extend(integral({mono.index(1): c for mono, c in entry.terms.items()})
                             for entry in entries)
    verdict = "IS_Ddk" if rank == needed else "NOT_Ddk"
    return DdkClass(d, k, verdict)
