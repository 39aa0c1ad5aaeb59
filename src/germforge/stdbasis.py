"""Standard and Groebner bases for ideals and submodules of free modules.

One engine serves both ring flavors: plain Buchberger with the sugar strategy
for the global order 'dp', Mora's tangent-cone algorithm with ecart-minimal
reducer selection (weak normal forms) for the local order 'ds'. Module terms
are ordered position-over-term with position 0 greatest, which makes the
embedded-identity trick an elimination order: syzygies drop out of a single
global basis computation.

Syzygies, preimages, colons and intersections are always computed under the
global order; the resulting polynomial generators generate the same module
over the localized ring, so local quotient dimensions can be read off a local
staircase of globally computed generators. Under a global order the normal
form is the canonical fully reduced one; under a local order it is Mora's
weak normal form (zero exactly on members of the localized ideal/module).

Global reduction runs in place: the vector being reduced is one mutable map
from (position, monomial) to coefficient, a heap hands out its leading term,
each step subtracts a multiple of a basis element term by term, and terms no
basis lead divides go straight to the remainder (the single-accumulator idea
of Yan's geobuckets, J. Symb. Comp. 25, 1998). The reducer is always the
first basis element whose lead divides the leading term; callers that keep
the basis leads pass them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import GermforgeError
from .linalg import RowBasis, nullspace
from .polyring import (
    GLOBAL_DP,
    LOCAL_DS,
    Mono,
    Order,
    Poly,
    Ring,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    monomials_up_to_degree,
)

Vector = Tuple[Poly, ...]
MTerm = Tuple[int, Mono]  # (position, monomial); position 0 is greatest


# ---------------------------------------------------------------------------
# vector helpers


def vec_zero(ring: Ring, rank: int) -> Vector:
    z = ring.zero()
    return (z,) * rank

def vec_is_zero(v: Vector) -> bool:
    return all(p.is_zero() for p in v)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(a: Vector, c: Fraction) -> Vector:
    return tuple(x * c for x in a)


def vec_term_mul(a: Vector, mono: Mono, coeff: Fraction) -> Vector:
    return tuple(x.term_mul(mono, coeff) for x in a)


def vec_poly_mul(a: Vector, p: Poly) -> Vector:
    return tuple(x * p for x in a)


def vec_max_degree(v: Vector) -> int:
    return max((p.total_degree() for p in v), default=-1)


def vec_leading(v: Vector, order: Order) -> Tuple[int, Mono, Fraction]:
    """(position, monomial, coefficient) of the leading term, POT."""
    for pos, p in enumerate(v):
        if not p.is_zero():
            m, c = p.leading(order)
            return pos, m, c
    raise ValueError("zero vector has no leading term")


def vec_ecart(v: Vector, order: Order) -> int:
    pos, m, _ = vec_leading(v, order)
    return vec_max_degree(v) - mono_deg(m)


def _monic(v: Vector, order: Order) -> Vector:
    _, _, c = vec_leading(v, order)
    return vec_scale(v, 1 / c)


def _primitive(v: Vector) -> Vector:
    """Scale to integer coefficients with content 1. Monic scaling compounds
    denominators across chained local reductions until every arithmetic step
    runs gcd on huge integers; content scaling keeps coefficients small."""
    num_gcd = 0
    den_lcm = 1
    for p in v:
        for c in p.terms.values():
            num_gcd = gcd(num_gcd, c.numerator)
            den_lcm = den_lcm // gcd(den_lcm, c.denominator) * c.denominator
    if num_gcd == 0:
        return v
    scale = Fraction(den_lcm, num_gcd)
    if scale == 1:
        return v
    return vec_scale(v, scale)


# ---------------------------------------------------------------------------
# reduction


def _find_reducer(pos: int, m: Mono, leads: List[Tuple[int, Mono, Fraction]]) -> int:
    for i, (bp, bm, _) in enumerate(leads):
        if bp == pos and mono_divides(bm, m):
            return i
    return -1


def reduce_vector_global(v: Vector, basis: List[Vector], order: Order,
                         leads: Optional[List[Tuple[int, Mono, Fraction]]] = None) -> Vector:
    """Canonical fully reduced normal form under the global order.

    leads holds the leading terms of basis (computed here when not given).
    The vector is reduced in place as one map from (position, monomial) to
    coefficient, with a heap of keys (position, -degree, reversed monomial)
    whose least key is the leading term: position over term, then dp. The
    leading term is cancelled by the first basis element whose lead divides
    it, subtracted term by term; a term no lead divides goes straight to the
    output, so the output lists each position's terms leading term first.
    Each term in the map has one heap entry. A term that cancels stays in
    the map at zero until its entry comes up and is skipped, so a term that
    comes back later needs no second entry.
    """
    if leads is None:
        leads = [vec_leading(b, order) for b in basis]
    if not v:
        return v
    work: Dict[MTerm, Fraction] = {}
    heap = []
    for pos, p in enumerate(v):
        for m, c in p.terms.items():
            work[pos, m] = c
            heap.append((pos, -mono_deg(m), m[::-1], m))
    heapify(heap)
    out: List[Dict[Mono, Fraction]] = [{} for _ in v]
    while heap:
        pos, _, _, m = heappop(heap)
        c = work.pop((pos, m))
        if not c:
            continue
        i = _find_reducer(pos, m, leads)
        if i < 0:
            out[pos][m] = c
            continue
        _, bm, bc = leads[i]
        u = mono_div(m, bm)
        f = c / bc
        for bpos, bp in enumerate(basis[i]):
            for bm2, bc2 in bp.terms.items():
                if bpos == pos and bm2 == bm:
                    continue  # the leading term, cancelled exactly
                m2 = mono_mul(bm2, u)
                key = (bpos, m2)
                old = work.get(key)
                if old is None:
                    work[key] = -f * bc2
                    heappush(heap, (bpos, -mono_deg(m2), m2[::-1], m2))
                else:
                    work[key] = old - f * bc2
    ring = v[0].ring
    return tuple(Poly(ring, d) for d in out)


def reduce_vector_mora(v: Vector, basis: List[Vector], order: Order,
                       leads: Optional[List[Tuple[int, Mono, Fraction]]] = None) -> Vector:
    """Mora weak normal form: zero iff v lies in the localized module."""
    reducers = list(basis)
    ecarts = [vec_ecart(b, order) for b in basis]
    leads = [vec_leading(b, order) for b in basis] if leads is None else list(leads)
    h = v
    while not vec_is_zero(h):
        pos, m, c = vec_leading(h, order)
        best = -1
        best_key = None
        for i, (bp, bm, _) in enumerate(leads):
            if bp == pos and mono_divides(bm, m):
                key = (ecarts[i], i)
                if best_key is None or key < best_key:
                    best, best_key = i, key
        if best < 0:
            return h
        e_h = vec_max_degree(h) - mono_deg(m)
        if ecarts[best] > e_h:
            reducers.append(h)
            ecarts.append(e_h)
            leads.append((pos, m, c))
        bp, bm, bc = leads[best]
        work_basis = reducers[best]
        h = _primitive(vec_sub(h, vec_term_mul(work_basis, mono_div(m, bm), c / bc)))
    return h


def reduce_vector(v: Vector, basis: List[Vector], order: Order,
                  leads: Optional[List[Tuple[int, Mono, Fraction]]] = None) -> Vector:
    if order.is_local:
        return reduce_vector_mora(v, basis, order, leads)
    return reduce_vector_global(v, basis, order, leads)


# ---------------------------------------------------------------------------
# basis completion


def _spair_parts(gi: Vector, gj: Vector, order: Order):
    pi, mi, ci = vec_leading(gi, order)
    pj, mj, cj = vec_leading(gj, order)
    L = mono_lcm(mi, mj)
    return L, mono_div(L, mi), mono_div(L, mj), ci, cj


def std_basis_vectors(vectors: Sequence[Vector], order: Order, rank: int) -> List[Vector]:
    """Interreduced standard basis of the submodule generated by vectors."""
    if order.is_local:
        norm = _primitive
    else:
        def norm(v):
            return _monic(v, order)
    G: List[Vector] = [norm(v) for v in vectors if not vec_is_zero(v)]
    if not G:
        return []
    leads = [vec_leading(g, order) for g in G]
    sugars = [vec_max_degree(g) for g in G]

    def pair_entry(i: int, j: int):
        (pi, mi, _), (pj, mj, _) = leads[i], leads[j]
        if pi != pj:
            return None
        L = mono_lcm(mi, mj)
        # product criterion, valid for rank-1 global bases
        if rank == 1 and not order.is_local and mono_mul(mi, mj) == L:
            return None
        sugar = max(sugars[i] + mono_deg(mono_div(L, mi)),
                    sugars[j] + mono_deg(mono_div(L, mj)))
        return (sugar, order.key(L), j, i), L

    pending: Dict[Tuple[int, int], Tuple[tuple, Mono]] = {}
    done: Set[Tuple[int, int]] = set()
    for j in range(len(G)):
        for i in range(j):
            e = pair_entry(i, j)
            if e is not None:
                pending[(i, j)] = e
            else:
                done.add((i, j))

    while pending:
        (i, j), (key, L) = min(pending.items(), key=lambda kv: kv[1][0])
        del pending[(i, j)]
        done.add((i, j))
        # chain criterion: k divides the lcm and both side pairs are settled
        skip = False
        pi = leads[i][0]
        for k in range(len(G)):
            if k in (i, j):
                continue
            kp, km, _ = leads[k]
            if kp == pi and mono_divides(km, L):
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a in done and b in done and a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        _, ui, uj, ci, cj = _spair_parts(G[i], G[j], order)
        s = vec_sub(vec_term_mul(G[i], ui, cj), vec_term_mul(G[j], uj, ci))
        h = reduce_vector(s, G, order, leads)
        if vec_is_zero(h):
            continue
        h = norm(h)
        G.append(h)
        leads.append(vec_leading(h, order))
        sugars.append(vec_max_degree(h))
        t = len(G) - 1
        for i2 in range(t):
            e = pair_entry(i2, t)
            if e is not None:
                pending[(i2, t)] = e
            else:
                done.add((i2, t))
    return _interreduce(G, leads, order)


def _interreduce(G: List[Vector], leads: List[Tuple[int, Mono, Fraction]],
                 order: Order) -> List[Vector]:
    keep: List[int] = []
    for i, (pi, mi, _) in enumerate(leads):
        redundant = False
        for j, (pj, mj, _) in enumerate(leads):
            if i == j or pj != pi:
                continue
            if mono_divides(mj, mi) and (mj != mi or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    keep.sort(key=lambda i: _mterm_key(leads[i], order))
    kept = [G[i] for i in keep]
    if order.is_local:
        return [_monic(g, order) for g in kept]
    # global: tail-reduce to the canonical reduced basis; no kept lead
    # divides another, so every lead survives and the order stays sorted
    kept_leads = [leads[i] for i in keep]
    out: List[Vector] = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        if others:
            g = reduce_vector_global(g, others, order, kept_leads[:i] + kept_leads[i + 1:])
        out.append(_monic(g, order))
    return out


def _mterm_key(lead: Tuple[int, Mono, Fraction], order: Order):
    pos, m, _ = lead
    return (-pos,) + tuple(_flatten_key(order.key(m)))


def _flatten_key(k) -> list:
    out = []
    for part in k:
        if isinstance(part, tuple):
            out.extend(part)
        else:
            out.append(part)
    return out


# ---------------------------------------------------------------------------
# quotient dimensions


@dataclass(frozen=True)
class QuotientDim:
    """Dimension of a quotient; value None means infinite."""

    value: Optional[int]
    witness: Tuple[MTerm, ...] = ()

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def monomials(self) -> Tuple[Mono, ...]:
        return tuple(m for _, m in self.witness)

    def __str__(self) -> str:
        return "INFINITE" if self.value is None else str(self.value)


INFINITE = QuotientDim(None, ())


def _integer_terms(v: Vector) -> Tuple[int, List[Tuple[int, Mono, int, int]]]:
    """Order at the origin and (position, monomial, degree, coefficient)
    terms of v scaled by the lcm of its denominators."""
    den = 1
    for p in v:
        for c in p.terms.values():
            den = lcm(den, c.denominator)
    terms = [(pos, m, mono_deg(m), c.numerator * (den // c.denominator))
             for pos, p in enumerate(v) for m, c in p.terms.items()]
    return min((t[2] for t in terms), default=0), terms


def _columns(n: int, rank: int, N: int, key) -> List[MTerm]:
    """Labels (position, monomial) of degree <= N, greatest under key first;
    a label's column is its index, so a smaller column is a greater label."""
    labels = [(pos, m) for pos in range(rank) for m in monomials_up_to_degree(n, N)]
    labels.sort(key=key, reverse=True)
    return labels


def _shift_rows(gens, n: int, N: int, labels: List[MTerm]):
    """Each monomial shift of each generator, truncated above degree N, as a
    sparse integer row over the columns of labels."""
    col = {lab: i for i, lab in enumerate(labels)}
    for base, terms in gens:
        for delta in monomials_up_to_degree(n, N - base):
            dd = mono_deg(delta)
            yield {col[pos, mono_mul(m, delta)]: c
                   for pos, m, dm, c in terms if dm + dd <= N}


def _truncated_quotient_local(gens: Sequence[Vector], ring: Ring, rank: int,
                              order: Order, caps: Tuple[int, ...] = (4, 9, 14)) -> Optional[QuotientDim]:
    """Exact local quotient dimension of O^rank/M by degree-truncated
    elimination, M the module the generators span.

    Certificate: the shifts of the generators span the image of M in
    O^rank/m^{N+1}O^rank. Eliminated with the lowest degree as the greatest
    column, the pivots of each degree d <= N count the degree-d initial forms
    of M, its tangent cone (Greuel-Pfister 5.5, 7.1). If degree d has no free
    column, m^d O^rank lies in M + m^{d+1} O^rank, so Nakayama puts m^d O^rank
    inside M, and the free columns of degree < d count the quotient.

    Witness: once m^d O^rank lies in M, every lead of M of degree < d is the
    lead of an element of degree < d, so eliminating the shifts below degree
    d with position-over-term columns leaves exactly the free monomials of
    M's local standard basis: the same cobasis a full basis would give.

    Returns None when no cap yields a certificate (infinite quotient or
    staircase deeper than the caps); callers then fall back to a full
    standard basis.
    """
    n = ring.n
    if rank == 0:
        return QuotientDim(0, ())
    if not gens:
        return None
    scaled = [_integer_terms(v) for v in gens]

    def degree_first(lab: MTerm):
        return (order.key(lab[1]), -lab[0])

    def position_first(lab: MTerm):
        return (-lab[0], order.key(lab[1]))

    for N in caps:
        labels = _columns(n, rank, N, degree_first)
        basis = RowBasis()
        basis.extend(_shift_rows(scaled, n, N, labels))
        free_by_deg = [0] * (N + 1)
        for i, (_, m) in enumerate(labels):
            if i not in basis.rows:
                free_by_deg[mono_deg(m)] += 1
        if 0 not in free_by_deg:
            continue
        d = free_by_deg.index(0)
        count = sum(free_by_deg[:d])
        labels = _columns(n, rank, d - 1, position_first)
        basis = RowBasis()
        basis.extend(_shift_rows(scaled, n, d - 1, labels))
        witness = [lab for i, lab in enumerate(labels) if i not in basis.rows]
        if len(witness) != count:
            raise AssertionError("truncated witness disagrees with the certified count")
        witness.sort(key=lambda t: (t[0], GLOBAL_DP.key(t[1])))
        return QuotientDim(count, tuple(witness))
    return None


def staircase_dimension(lead_terms: Sequence[MTerm], rank: int, n: int) -> QuotientDim:
    """Count monomials outside the leading module, per position."""
    by_pos: List[List[Mono]] = [[] for _ in range(rank)]
    for pos, m in lead_terms:
        by_pos[pos].append(m)
    witness: List[MTerm] = []
    zero = (0,) * n
    for pos in range(rank):
        monos = by_pos[pos]
        # minimalize
        monos = [m for i, m in enumerate(monos)
                 if not any(j != i and mono_divides(m2, m) and (m2 != m or j < i)
                            for j, m2 in enumerate(monos))]
        if any(m == zero for m in monos):
            continue
        # finite iff every variable has a pure power among the leads
        for i in range(n):
            if not any(m[i] > 0 and all(e == 0 for k, e in enumerate(m) if k != i)
                       for m in monos):
                return INFINITE
        seen = {zero}
        queue = [zero]
        while queue:
            m = queue.pop()
            if any(mono_divides(lm, m) for lm in monos):
                continue
            witness.append((pos, m))
            for i in range(n):
                child = m[:i] + (m[i] + 1,) + m[i + 1:]
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    witness.sort(key=lambda t: (t[0], GLOBAL_DP.key(t[1])))
    return QuotientDim(len(witness), tuple(witness))


# ---------------------------------------------------------------------------
# submodules and ideals


class Submodule:
    """Finitely generated submodule of the rank-r free module, with a cached
    standard basis under its order."""

    __slots__ = ("ring", "rank", "gens", "order", "_basis", "_leads", "_qdim")

    def __init__(self, ring: Ring, rank: int, gens: Sequence[Vector], order: Order) -> None:
        self.ring = ring
        self.rank = rank
        cleaned = []
        for v in gens:
            if len(v) != rank:
                raise ValueError("generator has wrong length")
            if any(p.ring != ring for p in v):
                raise ValueError("generator from a different ring")
            if not vec_is_zero(v):
                cleaned.append(tuple(v))
        self.gens: Tuple[Vector, ...] = tuple(cleaned)
        self.order = order
        self._basis: Optional[List[Vector]] = None
        self._leads = None
        self._qdim: Optional[QuotientDim] = None

    def basis(self) -> List[Vector]:
        if self._basis is None:
            self._basis = std_basis_vectors(self.gens, self.order, self.rank)
            self._leads = [vec_leading(b, self.order) for b in self._basis]
        return self._basis

    def lead_terms(self) -> List[MTerm]:
        self.basis()
        return [(p, m) for (p, m, _) in self._leads]

    def normal_form(self, v: Vector) -> Vector:
        return reduce_vector(v, self.basis(), self.order, self._leads)

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.normal_form(v))

    def contains_module(self, other: "Submodule") -> bool:
        return all(self.contains(v) for v in other.gens)

    def equals(self, other: "Submodule") -> bool:
        return self.contains_module(other) and other.contains_module(self)

    def quotient_dimension(self) -> QuotientDim:
        """dim of O^rank / this module under its order."""
        if self._qdim is None:
            fast = None
            if self.order.is_local and self._basis is None:
                fast = _truncated_quotient_local(self.gens, self.ring,
                                                 self.rank, self.order)
            if fast is None:
                fast = staircase_dimension(self.lead_terms(), self.rank,
                                           self.ring.n)
            self._qdim = fast
        return self._qdim

    def with_order(self, order: Order) -> "Submodule":
        return self if order == self.order else Submodule(self.ring, self.rank, self.gens, order)


class Ideal:
    """Ideal with generators and a cached standard basis under its order."""

    __slots__ = ("ring", "gens", "order", "_mod", "_tracked")

    def __init__(self, ring: Ring, gens: Sequence[Poly], order: Order = LOCAL_DS) -> None:
        self.ring = ring
        self.gens: Tuple[Poly, ...] = tuple(g for g in gens if not g.is_zero())
        if any(g.ring != ring for g in self.gens):
            raise ValueError("generator from a different ring")
        self.order = order
        self._mod: Optional[Submodule] = None
        self._tracked = None

    def _module(self) -> Submodule:
        if self._mod is None:
            self._mod = Submodule(self.ring, 1, [(g,) for g in self.gens], self.order)
        return self._mod

    def basis(self) -> List[Poly]:
        return [v[0] for v in self._module().basis()]

    def lead_monomials(self) -> List[Mono]:
        return [m for _, m in self._module().lead_terms()]

    def normal_form(self, p: Poly) -> Poly:
        return self._module().normal_form((p,))[0]

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "Ideal") -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and self.contains(self.ring.one())

    def quotient_dimension(self) -> QuotientDim:
        """dim of O/I (local ring for 'ds', polynomial ring for 'dp')."""
        return self._module().quotient_dimension()

    def with_order(self, order: Order) -> "Ideal":
        return self if order == self.order else Ideal(self.ring, self.gens, order)

    def sum(self, other: "Ideal") -> "Ideal":
        return Ideal(self.ring, self.gens + other.gens, self.order)

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inner}; {self.order.kind})"

    # -- transformation-tracked global basis, for exact polynomial lifting

    def tracked_basis(self) -> List[Tuple[Poly, Tuple[Poly, ...]]]:
        """Global Groebner basis with coordinates over the original generators."""
        if self._tracked is None:
            self._tracked = _tracked_groebner(self.ring, list(self.gens))
        return self._tracked

    def lift(self, p: Poly) -> Optional[Tuple[Poly, ...]]:
        """Coordinates c with p = sum c_j * gens[j], or None if p is not a
        member of the polynomial (global) ideal."""
        nf, coords = _tracked_divide(p, self.tracked_basis(), self.ring, len(self.gens))
        return None if not nf.is_zero() else coords


# ---------------------------------------------------------------------------
# tracked global Groebner basis (rank 1) for exact lifting


def _tracked_divide(p: Poly, tracked: List[Tuple[Poly, Tuple[Poly, ...]]], ring: Ring,
                    ngens: int) -> Tuple[Poly, Tuple[Poly, ...]]:
    order = GLOBAL_DP
    coords = [ring.zero() for _ in range(ngens)]
    leads = [b.leading(order) for b, _ in tracked]
    work = p
    result = ring.zero()
    while not work.is_zero():
        m, c = work.leading(order)
        hit = -1
        for i, (bm, bc) in enumerate(leads):
            if mono_divides(bm, m):
                hit = i
                break
        if hit < 0:
            t = ring.monomial(m, c)
            result = result + t
            work = work - t
            continue
        bm, bc = leads[hit]
        fac_mono, fac_coeff = mono_div(m, bm), c / bc
        b, bcoords = tracked[hit]
        work = work - b.term_mul(fac_mono, fac_coeff)
        for j in range(ngens):
            coords[j] = coords[j] + bcoords[j].term_mul(fac_mono, fac_coeff)
    return result, tuple(coords)


def _tracked_groebner(ring: Ring, gens: List[Poly]) -> List[Tuple[Poly, Tuple[Poly, ...]]]:
    order = GLOBAL_DP
    tracked: List[Tuple[Poly, Tuple[Poly, ...]]] = []
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        _, c = g.leading(order)
        unit = [ring.zero() for _ in range(len(gens))]
        unit[j] = ring.const(1 / c)
        tracked.append((g * (1 / c), tuple(unit)))

    def add_pairs(t: int, pending: list) -> None:
        for i in range(t):
            mi, _ = tracked[i][0].leading(order)
            mj, _ = tracked[t][0].leading(order)
            L = mono_lcm(mi, mj)
            if mono_mul(mi, mj) == L:
                continue
            sugar = mono_deg(L)
            pending.append((sugar, order.key(L), t, i))

    pending: List[tuple] = []
    for t in range(len(tracked)):
        add_pairs(t, pending)
    while pending:
        pending.sort()
        _, _, j, i = pending.pop(0)
        bi, ci = tracked[i]
        bj, cj = tracked[j]
        mi, _ = bi.leading(order)
        mj, _ = bj.leading(order)
        L = mono_lcm(mi, mj)
        ui, uj = mono_div(L, mi), mono_div(L, mj)
        s = bi.term_mul(ui, Fraction(1)) - bj.term_mul(uj, Fraction(1))
        scoords = tuple(ci[t].term_mul(ui, Fraction(1)) - cj[t].term_mul(uj, Fraction(1))
                        for t in range(len(ci)))
        nf, qcoords = _tracked_divide(s, tracked, ring, len(gens))
        if nf.is_zero():
            continue
        m, c = nf.leading(order)
        inv = 1 / c
        final = tuple((scoords[t] - qcoords[t]) * inv for t in range(len(gens)))
        tracked.append((nf * inv, final))
        add_pairs(len(tracked) - 1, pending)
    return tracked


# ---------------------------------------------------------------------------
# syzygies, preimages, colon, intersection, saturation


def module_syzygies(vectors: Sequence[Vector], ring: Ring, rank: int) -> Submodule:
    """Kernel of the map O^k -> O^rank sending unit vector i to vectors[i]."""
    k = len(vectors)
    if k == 0:
        return Submodule(ring, 0, [], GLOBAL_DP)
    zero = ring.zero()
    one = ring.one()
    embedded: List[Vector] = []
    for i, v in enumerate(vectors):
        if len(v) != rank:
            raise ValueError("vector of wrong rank")
        tail = [zero] * k
        tail[i] = one
        embedded.append(tuple(v) + tuple(tail))
    basis = std_basis_vectors(embedded, GLOBAL_DP, rank + k)
    syz: List[Vector] = []
    for b in basis:
        if all(p.is_zero() for p in b[:rank]):
            syz.append(b[rank:])
    for s in syz:
        acc = vec_zero(ring, rank)
        for c, v in zip(s, vectors):
            acc = vec_add(acc, vec_poly_mul(v, c))
        if not vec_is_zero(acc):
            raise AssertionError("syzygy postcheck failed")
    return Submodule(ring, k, syz, GLOBAL_DP)


def preimage_module(targets: Sequence[Vector], sub_gens: Sequence[Vector], ring: Ring,
                    rank: int) -> List[Vector]:
    """Generators of {c in O^k : sum c_i * targets[i] lies in <sub_gens>}."""
    k = len(targets)
    if k == 0:
        return []
    combined = list(targets) + list(sub_gens)
    syz = module_syzygies(combined, ring, rank)
    out: List[Vector] = []
    seen = set()
    for s in syz.gens:
        head = s[:k]
        if vec_is_zero(head):
            continue
        key = tuple(frozenset(p.terms.items()) for p in head)
        if key not in seen:
            seen.add(key)
            out.append(head)
    return out


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {h : h*J is contained in I}, exact for I's ring flavor."""
    ring = I.ring
    if not J.gens:
        return Ideal(ring, [ring.one()], I.order)
    if not I.gens:
        return Ideal(ring, [], I.order)
    s = len(J.gens)
    target: Vector = tuple(J.gens)
    sub: List[Vector] = []
    zero = ring.zero()
    for g in I.gens:
        for j in range(s):
            v = [zero] * s
            v[j] = g
            sub.append(tuple(v))
    heads = preimage_module([target], sub, ring, s)
    gens = [h[0] for h in heads]
    out = Ideal(ring, gens, I.order)
    # membership postcheck on generators
    for h in out.gens:
        for f in J.gens:
            if not I.contains(h * f):
                raise AssertionError("ideal quotient postcheck failed")
    return out


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    ring = I.ring
    vectors = [(g,) for g in I.gens] + [(h,) for h in J.gens]
    syz = module_syzygies(vectors, ring, 1)
    r = len(I.gens)
    gens = []
    for s in syz.gens:
        acc = ring.zero()
        for c, g in zip(s[:r], I.gens):
            acc = acc + c * g
        if not acc.is_zero():
            gens.append(acc)
    return Ideal(ring, gens, I.order)


def module_intersection(U: Submodule, V: Submodule) -> Submodule:
    if U.ring != V.ring or U.rank != V.rank:
        raise ValueError("modules from different ambients")
    vectors = list(U.gens) + list(V.gens)
    syz = module_syzygies(vectors, U.ring, U.rank)
    r = len(U.gens)
    gens: List[Vector] = []
    for s in syz.gens:
        acc = vec_zero(U.ring, U.rank)
        for c, u in zip(s[:r], U.gens):
            acc = vec_add(acc, vec_poly_mul(u, c))
        if not vec_is_zero(acc):
            gens.append(acc)
    return Submodule(U.ring, U.rank, gens, U.order)


def saturation(I: Ideal, J: Ideal) -> Ideal:
    """(I : J^infinity): iterated quotient until stable."""
    current = I
    while True:
        nxt = ideal_quotient(current, J)
        if current.contains_ideal(nxt):
            return current
        current = nxt


# ---------------------------------------------------------------------------
# dimensions of quotients and subquotients


def std_basis(gens: Sequence[Poly], order: Order) -> List[Poly]:
    """Interreduced standard basis of the ideal generated by gens."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    vecs = std_basis_vectors([(g,) for g in gens], order, 1)
    return [v[0] for v in vecs]


def subideal_preimage(I: Ideal, J: Ideal) -> Submodule:
    """The module L = {c in O^k : sum c_i g_i in J} for J contained in I;
    O^k/L is then isomorphic to I/J with unit vector i mapping to gens[i]."""
    for h in J.gens:
        if not I.contains(h):
            raise GermforgeError("PRECONDITION_VIOLATED",
                                 f"not a subideal: {h} is outside the ambient ideal")
    k = len(I.gens)
    targets = [(g,) for g in I.gens]
    sub = [(h,) for h in J.gens]
    L = preimage_module(targets, sub, I.ring, 1) if k else []
    return Submodule(I.ring, k, L, I.order)


def relative_quotient_dimension(I: Ideal, J: Ideal) -> QuotientDim:
    """dim I/J for J contained in I, via the module quotient O^k/L; the
    witness tags (generator index, monomial), so witness entry (j, m) stands
    for the class of m * gens[j]."""
    return subideal_preimage(I, J).quotient_dimension()


def power_ideal(ring: Ring, k: int, order: Order = LOCAL_DS) -> Ideal:
    """The k-th power of the maximal ideal at the origin."""
    if k <= 0:
        return Ideal(ring, [ring.one()], order)
    gens = [ring.monomial(m) for m in monomials_of_degree(ring.n, k)]
    return Ideal(ring, gens, order)


def hilbert_samuel(I: Ideal, m: int) -> int:
    """dim I/(I intersect m^{m+1}) at the origin (local)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    ring = I.ring
    n = ring.n
    full = comb(n + m, n)  # dim O/m^{m+1}
    if not I.gens:
        return 0
    mk = power_ideal(ring, m + 1)
    joined = Ideal(ring, tuple(I.gens) + mk.gens, LOCAL_DS)
    qd = joined.quotient_dimension()
    if not qd.is_finite:
        raise AssertionError("O/(I + m^{m+1}) must be finite dimensional")
    return full - qd.value


# ---------------------------------------------------------------------------
# zero-dimensional radical (Seidenberg)


def _univ_normalize(c: List[Fraction]) -> List[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _univ_derive(c: List[Fraction]) -> List[Fraction]:
    return _univ_normalize([c[i] * i for i in range(1, len(c))])


def _univ_divmod(a: List[Fraction], b: List[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _univ_normalize(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i in range(len(b)):
            a[shift + i] -= factor * b[i]
        _univ_normalize(a)
    return _univ_normalize(q), _univ_normalize(a)


def _univ_gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = list(a), list(b)
    while b:
        _, r = _univ_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def minimal_polynomial(I: Ideal, var: int) -> List[Fraction]:
    """Monic coefficients, low to high, of the minimal polynomial of x_var on
    the finite quotient by I under a global order. The normal forms of the
    powers up to the quotient's dimension must be dependent; the first kernel
    combination ends at the least dependent power with coefficient 1."""
    ring = I.ring
    x = ring.var(var)
    power = ring.one()
    col: Dict[Mono, int] = {}
    powers: List[Dict[int, Fraction]] = []
    for _ in range(I.quotient_dimension().value + 1):
        powers.append({col.setdefault(m, len(col)): c
                       for m, c in I.normal_form(power).terms.items()})
        power = power * x
    kernel = nullspace(powers)
    if not kernel:
        raise AssertionError("no univariate dependence on a finite quotient")
    combo = kernel[0]
    return [combo.get(t, Fraction(0)) for t in range(max(combo) + 1)]


def zero_dim_radical(I: Ideal) -> Ideal:
    """Radical of a zero-dimensional ideal under a global order (Seidenberg):
    adjoin the squarefree part of each variable's minimal polynomial."""
    if I.order.is_local:
        raise GermforgeError("LOCAL_ORDER_UNSUPPORTED",
                             "radical computation needs a global order")
    if not I.quotient_dimension().is_finite:
        raise GermforgeError("NOT_ZERO_DIMENSIONAL",
                             "radical is implemented for zero-dimensional ideals only")
    ring = I.ring
    extra: List[Poly] = []
    for i in range(ring.n):
        sf = _squarefree_part(minimal_polynomial(I, i))
        p = ring.zero()
        for t, c in enumerate(sf):
            if c:
                p = p + ring.var(i) ** t * c
        extra.append(p)
    out = Ideal(ring, tuple(I.gens) + tuple(extra), I.order)
    return Ideal(ring, tuple(out.basis()), I.order)


def _squarefree_part(c: List[Fraction]) -> List[Fraction]:
    c = _univ_normalize(list(c))
    d = _univ_derive(list(c))
    if not d:
        return c
    g = _univ_gcd(c, d)
    q, r = _univ_divmod(c, g)
    if r:
        raise AssertionError("gcd must divide")
    if q:
        lead = q[-1]
        q = [x / lead for x in q]
    return q


# ---------------------------------------------------------------------------
# bounded Artin-Rees style inclusion check


def artin_rees_check(I: Ideal, lam: int, m_max: int) -> bool:
    """True iff I intersect m^{m+lam} is contained in m^m * I for every
    m <= m_max (at the origin). The verification is exact: generators of the
    intersection are membership-tested."""
    if lam < 0 or m_max < 1:
        raise ValueError("need lam >= 0 and m_max >= 1")
    ring = I.ring
    for m in range(1, m_max + 1):
        inter = ideal_intersection(I.with_order(LOCAL_DS), power_ideal(ring, m + lam))
        target_gens = [g.term_mul(mono, Fraction(1))
                       for g in I.gens
                       for mono in monomials_of_degree(ring.n, m)]
        target = Ideal(ring, target_gens, LOCAL_DS)
        for h in inter.gens:
            if not target.contains(h):
                return False
    return True
