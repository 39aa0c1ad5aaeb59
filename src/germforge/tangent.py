"""Vector fields preserving an ideal, tangent ideals, primitive ideals.

A vector field X = sum a_i d/dx_i is stored as the coefficient vector
(a_1, ..., a_n). The preserving module {X : X(I) in I} is the projection of
one syzygy kernel: X(g_j) in I for all j means the derivative columns
combined with the generator multiples g_l e_j admit a syzygy whose first n
entries are the a_i. Projection of the kernel generators therefore generates
the module exactly; no truncation is involved.

The primitive ideal (functions f with (f) + J_f inside I') is genuinely a
condition on derivatives, not an O-linear one, so it is computed degree by
degree and reported together with its truncation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import GermforgeError
from .linalg import RowBasis, identity_kernel
from .polyring import GLOBAL_DP, Poly, Ring, monomials_up_to_degree
from .stdbasis import (
    Ideal,
    MTerm,
    Submodule,
    Vector,
    _columns,
    _integer_terms,
    _shift_rows,
    module_intersection,
    module_syzygies,
    vec_is_zero,
)


def field_apply(X: Sequence[Poly], f: Poly) -> Poly:
    """X(f) = sum a_i df/dx_i."""
    ring = f.ring
    out = ring.zero()
    for i, a in enumerate(X):
        if not a.is_zero():
            out = out + a * f.derive(i)
    return out


def lie_bracket(X: Sequence[Poly], Y: Sequence[Poly]) -> Vector:
    """[X, Y]_i = X(Y_i) - Y(X_i), again a vector field."""
    return tuple(field_apply(X, Y[i]) - field_apply(Y, X[i]) for i in range(len(X)))


class VectorFieldModule:
    """Finitely generated module of vector fields, tagged by how it was cut
    out: 'preserving' is {X : X(I) in I}, 'vanishing' is m intersect that."""

    __slots__ = ("module", "mode", "ideal")

    def __init__(self, module: Submodule, mode: str, ideal: Ideal) -> None:
        if mode not in ("preserving", "vanishing"):
            raise ValueError("mode must be 'preserving' or 'vanishing'")
        self.module = module
        self.mode = mode
        self.ideal = ideal

    @property
    def gens(self) -> Tuple[Vector, ...]:
        return self.module.gens

    @property
    def ring(self) -> Ring:
        return self.module.ring

    def contains(self, X: Vector) -> bool:
        return self.module.contains(X)

    def __repr__(self) -> str:
        return f"VectorFieldModule({self.mode}, {len(self.gens)} generators)"


def theta_preserving(I: Ideal) -> VectorFieldModule:
    """The module of vector fields X with X(I) contained in I."""
    if I.is_zero():
        raise GermforgeError("ZERO_IDEAL", "theta of the zero ideal is all of Theta")
    ring = I.ring
    n = ring.n
    r = len(I.gens)
    columns: List[Vector] = []
    for i in range(n):
        columns.append(tuple(g.derive(i) for g in I.gens))
    zero = ring.zero()
    for j in range(r):
        for g in I.gens:
            v = [zero] * r
            v[j] = g
            columns.append(tuple(v))
    syz = module_syzygies(columns, ring, r)
    gens: List[Vector] = []
    seen = set()
    for s in syz.gens:
        head = s[:n]
        if vec_is_zero(head):
            continue
        key = tuple(frozenset(p.terms.items()) for p in head)
        if key not in seen:
            seen.add(key)
            gens.append(head)
    module = Submodule(ring, n, gens, I.order)
    for X in module.gens:
        for g in I.gens:
            if not I.contains(field_apply(X, g)):
                raise AssertionError("preserving-field postcheck failed")
    return VectorFieldModule(module, "preserving", I)


def m_theta(ring: Ring, order, rank: int) -> Submodule:
    """m * O^rank: all fields with coefficients vanishing at the origin."""
    zero = ring.zero()
    gens: List[Vector] = []
    for j in range(rank):
        for i in range(ring.n):
            v = [zero] * rank
            v[j] = ring.var(i)
            gens.append(tuple(v))
    return Submodule(ring, rank, gens, order)


def theta_vanishing(theta: VectorFieldModule) -> VectorFieldModule:
    """m intersect the preserving fields theta, as an exact module
    intersection."""
    I = theta.ideal
    ring = I.ring
    mtheta = m_theta(ring, I.order, ring.n)
    inter = module_intersection(theta.module, mtheta)
    for X in inter.gens:
        if not theta.module.contains(X) or not mtheta.contains(X):
            raise AssertionError("vanishing-field postcheck failed")
    return VectorFieldModule(inter, "vanishing", I)


def tangent_ideal(f: Poly, theta: VectorFieldModule) -> Ideal:
    """The ideal {X(f)} over the generators of theta."""
    ring = f.ring
    gens = [field_apply(X, f) for X in theta.gens]
    return Ideal(ring, gens, theta.ideal.order)


# ---------------------------------------------------------------------------
# primitive ideal, truncated


@dataclass(frozen=True)
class PrimitiveIdeal:
    """Generators of {f : f and all df/dx_i lie in I'} valid up to the stated
    truncation degree; higher-degree members may be missing."""

    ideal: Ideal
    truncation: int

    @property
    def gens(self) -> Tuple[Poly, ...]:
        return self.ideal.gens


def _slice_rows(gens: Sequence[Poly], pos: int, n: int, N: int, labels: List[MTerm]):
    """Shifts of the generators, truncated above degree N, as integer rows
    over the labels (pos, monomial): they span the degree-<=N slice of the
    polynomial ideal + m^{N+1}."""
    scaled = [_integer_terms((g,)) for g in gens]
    return _shift_rows([(base, [(pos, m, dm, c) for _, m, dm, c in terms])
                        for base, terms in scaled], n, N, labels)


def primitive_ideal(Iprime: Ideal, N: int) -> PrimitiveIdeal:
    """Solve the linear conditions f in I' + m^{N+1} and df/dx_i in I' + m^N
    over coefficients of monomials of degree 1..N, in one elimination whose
    kernel is read through identity columns as in linalg.nullspace. Its rows
    are the slices of I' in block 0 (values) and block i + 1 (df/dx_i), and
    per monomial alpha, x^alpha with its derivatives and identity column."""
    if N < 1:
        raise GermforgeError("PRECONDITION_VIOLATED", "truncation degree must be >= 1")
    ring = Iprime.ring
    order = Iprime.order
    if Iprime.is_unit():
        return PrimitiveIdeal(Ideal(ring, [ring.one()], order), N)
    n = ring.n
    labels = _columns(n, n + 1, N, lambda lab: (-lab[0], GLOBAL_DP.key(lab[1])))
    col = {lab: i for i, lab in enumerate(labels)}
    alphas = sorted((m for m in monomials_up_to_degree(n, N) if sum(m) >= 1), key=GLOBAL_DP.key)
    top, last = len(labels), len(labels) + len(alphas) - 1
    rows = list(_slice_rows(Iprime.gens, 0, n, N, labels))
    for i in range(n):
        rows += _slice_rows(Iprime.gens, i + 1, n, N - 1, labels)
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
    kept: List[Poly] = []
    for p in polys:
        if kept and Ideal(ring, kept, order).contains(p):
            continue
        kept.append(p)
    result = PrimitiveIdeal(Ideal(ring, kept, order), N)
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
    labels = _columns(ring.n, 1, N, lambda lab: GLOBAL_DP.key(lab[1]))

    def rank(gens: Sequence[Poly]) -> int:
        return RowBasis().extend(_slice_rows(gens, 0, ring.n, N, labels))

    both = rank(list(result.gens) + squares)
    if rank(result.gens) != both:
        raise AssertionError("primitive ideal misses a square generator")
    if rank(squares) != both:
        raise AssertionError("primitive ideal exceeds the square ideal")
