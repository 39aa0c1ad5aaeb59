"""Vector fields preserving an ideal, tangent ideals, primitive ideals.

A vector field X = sum a_i d/dx_i is stored as the coefficient vector
(a_1, ..., a_n), and a module of fields is a stdbasis.Submodule of rank n in
the order of its ideal. The preserving module {X : X(I) in I} is one preimage:
X(g_j) in I for all j means sum a_i (dg_1/dx_i, ..., dg_r/dx_i) lies in the
module of the generator multiples g_l e_j. stdbasis.preimage_module reads it
off one global elimination of the rows (derivative column i, e_i) and
(g_l e_j, 0), with no coordinates for the multiples, and checks each field
by its global normal form against the multiples; no truncation is involved. The fields vanishing at the
origin are its intersection with m * Theta, one more elimination, checked
the same way.

The primitive ideal (functions f with (f) + J_f inside I') is genuinely a
condition on derivatives, not an O-linear one, so it is computed degree by
degree and reported together with its truncation bound.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import GermforgeError
from .linalg import RowBasis, identity_kernel
from .polyring import GLOBAL_DP, Poly, Ring, monomials_up_to_degree
from .stdbasis import (
    Ideal,
    Submodule,
    Vector,
    _refuse_large_slice,
    module_intersection,
    preimage_module,
    slice_columns,
    slice_rows,
)


def field_apply(X: Sequence[Poly], f: Poly) -> Poly:
    """X(f) = sum a_i df/dx_i."""
    return f.ring.sum(a * f.derive(i) for i, a in enumerate(X) if not a.is_zero())


def lie_bracket(X: Sequence[Poly], Y: Sequence[Poly]) -> Vector:
    """[X, Y]_i = X(Y_i) - Y(X_i), again a vector field."""
    return tuple(field_apply(X, Y[i]) - field_apply(Y, X[i]) for i in range(len(X)))


def theta_preserving(I: Ideal) -> Submodule:
    """The module of vector fields X with X(I) contained in I, in I's order."""
    if I.is_zero():
        raise GermforgeError("ZERO_IDEAL", "theta of the zero ideal is all of Theta")
    ring = I.ring
    n = ring.n
    r = len(I.gens)
    zero = ring.zero()
    derivatives = [tuple(g.derive(i) for g in I.gens) for i in range(n)]
    multiples = Submodule(ring, r, [tuple(g if l == j else zero for l in range(r))
                                    for j in range(r) for g in I.gens], GLOBAL_DP)
    module = preimage_module(derivatives, multiples, I.order)
    for X in module.gens:
        for g in I.gens:
            if not I.contains(field_apply(X, g)):
                raise AssertionError("preserving-field postcheck failed")
    return module


def m_theta(ring: Ring, order, rank: int) -> Submodule:
    """m * O^rank: all fields with coefficients vanishing at the origin."""
    zero = ring.zero()
    gens: list[Vector] = []
    for j in range(rank):
        for i in range(ring.n):
            v = [zero] * rank
            v[j] = ring.var(i)
            gens.append(tuple(v))
    return Submodule(ring, rank, gens, order)


def theta_vanishing(theta: Submodule) -> Submodule:
    """m intersect the fields theta, as an exact module intersection, in
    theta's order."""
    mtheta = m_theta(theta.ring, theta.order, theta.rank)
    inter = module_intersection(theta, mtheta)
    for X in inter.gens:
        if not theta.contains(X) or not mtheta.contains(X):
            raise AssertionError("vanishing-field postcheck failed")
    return inter


def tangent_ideal(f: Poly, theta: Submodule) -> Ideal:
    """The ideal {X(f)} over the generators of theta, in theta's order."""
    return Ideal(f.ring, [field_apply(X, f) for X in theta.gens], theta.order)


# ---------------------------------------------------------------------------
# primitive ideal, truncated


class PrimitiveIdeal(namedtuple("PrimitiveIdeal", "ideal truncation")):
    """Generators of {f : f and all df/dx_i lie in I'} valid up to the stated
    truncation degree; higher-degree members may be missing."""

    __slots__ = ()

    @property
    def gens(self) -> tuple[Poly, ...]:
        return self.ideal.gens


def primitive_ideal(Iprime: Ideal, N: int) -> PrimitiveIdeal:
    """Solve the linear conditions f in I' + m^{N+1} and df/dx_i in I' + m^N
    over coefficients of monomials of degree 1..N, in one elimination whose
    kernel is read through identity columns as in linalg.nullspace. Its rows
    are the slices of I' in block 0 (values) and block i + 1 (df/dx_i), and
    per monomial alpha, x^alpha with its derivatives and identity column.
    Block b holds the shifts of the g * e_b, truncated above degree N for
    block 0 and above N - 1 for the derivative blocks."""
    if N < 1:
        raise GermforgeError("PRECONDITION_VIOLATED", "truncation degree must be >= 1")
    ring = Iprime.ring
    order = Iprime.order
    if Iprime.is_unit():
        return PrimitiveIdeal(Ideal(ring, [ring.one()], order), N)
    n = ring.n
    _refuse_large_slice(n, n + 1, N)
    labels = slice_columns(n, n + 1, N, lambda lab: (-lab[0], GLOBAL_DP.key(lab[1])))
    col = {lab: i for i, lab in enumerate(labels)}
    alphas = sorted((m for m in monomials_up_to_degree(n, N) if sum(m) >= 1), key=GLOBAL_DP.key)
    top, last = len(labels), len(labels) + len(alphas) - 1
    zero = ring.zero()
    rows = []
    for b in range(n + 1):
        block = [tuple(g if j == b else zero for j in range(n + 1)) for g in Iprime.gens]
        rows += slice_rows(block, N if b == 0 else N - 1, labels)
    for t, alpha in enumerate(alphas):
        row = {col[0, alpha]: 1, last - t: 1}
        for i in range(n):
            if alpha[i]:
                row[col[i + 1, alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]] = alpha[i]
        rows.append(row)
    basis = RowBasis()
    basis.extend(rows)
    kernel = identity_kernel(basis, top, last)
    polys = [Poly(ring, {alphas[t]: c for t, c in combo.items()}) for combo in kernel]
    polys.sort(key=lambda p: GLOBAL_DP.key(p.leading(GLOBAL_DP)[0]))
    span = Ideal(ring, [], order)
    for p in polys:
        if span.gens and span.contains(p):
            continue
        span = Ideal(ring, span.gens + (p,), order)
    result = PrimitiveIdeal(span, N)
    _postcheck_adapted(Iprime, result)
    return result


def _postcheck_adapted(Iprime: Ideal, result: PrimitiveIdeal) -> None:
    """When I' = (y_1..y_k) for distinct variables, the answer must match
    (y_1..y_k)^2 up to the truncation degree."""
    ring = Iprime.ring
    var_idx = []
    for g in Iprime.gens:
        terms = list(g.terms.items())
        if len(terms) != 1:
            return
        m, c = terms[0]
        if sum(m) != 1 or c != 1:
            return
        var_idx.append(m.index(1))
    if len(set(var_idx)) != len(var_idx):
        return
    N = result.truncation
    squares = [ring.var(i) * ring.var(j) for i in var_idx for j in var_idx if i <= j]
    labels = slice_columns(ring.n, 1, N, lambda lab: GLOBAL_DP.key(lab[1]))

    def rank(gens: Sequence[Poly]) -> int:
        return RowBasis().extend(slice_rows([(g,) for g in gens], N, labels))

    both = rank(list(result.gens) + squares)
    if rank(result.gens) != both:
        raise AssertionError("primitive ideal misses a square generator")
    if rank(squares) != both:
        raise AssertionError("primitive ideal exceeds the square ideal")
