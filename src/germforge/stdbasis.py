"""Standard and Groebner bases for ideals and submodules of free modules.

One engine serves both ring flavors: plain Buchberger with the sugar strategy
for the global order 'dp', Mora's tangent-cone algorithm for the local order
'ds'. Module terms are ordered position-over-term with position 0 greatest,
an elimination order: the basis elements whose first entries vanish form a
basis of the module's part with those entries zero.

Preimages, syzygies, colons and intersections are each one such elimination
under the global order. The preimage {c : sum c_i t_i in <s_j>} is read off
the basis of the rows (t_i, e_i) and (s_j, 0), without coordinates for the
s_j; the intersection of U and V off that of the rows (u_i, u_i) and (v_j, 0).
Postchecks test each result by global membership: every sum c_i t_i in
<s_j>, every generator of the intersection in U and in V. The polynomial
generators generate the same module over the localized ring, so local
quotient dimensions can be read off a local staircase of globally computed
generators. Lifting a member of an ideal to coordinates over its generators
reads the same rows: the global normal form of (p, 0, ..., 0) against the
(g_j, e_j) carries the coordinates in its tail, so there is one Buchberger.
The zero-dimensional radical runs on the same engine: the squarefree part of
each univariate minimal polynomial p is the generator of the colon
(p) : (p'), so no separate univariate arithmetic exists.

One reducer serves both orders, in place, on packed terms with integer
coefficients. Inside the engine a module term (position, monomial) is one
int (Bachmann-Schoenemann, ISSAC 1998): a 16-bit field per exponent, each
with a guard bit, the total degree above them (inverted under 'dp') and the
position on top, so that a smaller int is a greater term in the
position-over-term order. A monomial shift is one add and a divisibility
test one masked subtract. Input is packed when std_basis_vectors is entered
and the basis is unpacked, monic, when it returns; a degree of 2^15 or more
raises PRECONDITION_VIOLATED. Basis elements are stored primitive, with a
positive leading coefficient. The vector being reduced is one mutable map
from packed term to integer, a heap hands out its leading term, and each
step scales the map by lc/gcd(c, lc) and subtracts a multiple of the reducer
term by term (the single-accumulator idea of Yan's geobuckets, J. Symb.
Comp. 25, 1998). Under 'dp' the reducer is the first basis element whose
lead divides the leading term, terms no lead divides go to the remainder,
and the remainder over the tracked scale is the canonical fully reduced
normal form, exact over the rationals; a step that scales divides the map,
the remainder and the scale by their common content. Under 'ds' it is
Mora's weak normal form (Greuel-Pfister, ch. 1), zero exactly on members of
the localized module: the reducer is the divisor of least ecart, the first
on ties; a vector whose ecart is below the reducer's joins the reducers
before the step; the first leading term no lead divides ends the reduction;
and after each step the map is divided by its content, so a weak normal form
that took a step is integral with content 1. The pending S-pairs wait on a
heap ordered by sugar (Giovini et al., ISSAC 1991), the lcm's order and the
pair's indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

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
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    monomials_up_to_degree,
)

Vector = Tuple[Poly, ...]
MTerm = Tuple[int, Mono]  # (position, monomial); position 0 is greatest
Terms = List[Tuple[int, int]]  # (packed term, integer coefficient)


# ---------------------------------------------------------------------------
# vector helpers


def vec_zero(ring: Ring, rank: int) -> Vector:
    z = ring.zero()
    return (z,) * rank

def vec_is_zero(v: Vector) -> bool:
    return all(p.is_zero() for p in v)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_poly_mul(a: Vector, p: Poly) -> Vector:
    return tuple(x * p for x in a)


# ---------------------------------------------------------------------------
# packed terms

_FIELD = 16
_FULL = (1 << _FIELD) - 1
DEGREE_LIMIT = 1 << (_FIELD - 1)  # every degree in the engine stays below 2^15


def _degree_error(d: int) -> GermforgeError:
    return GermforgeError("PRECONDITION_VIOLATED",
                          f"degree {d} reaches the standard-basis limit: "
                          f"degrees must stay below 2^15 = {DEGREE_LIMIT}")


class TermPacking:
    """Module terms (position, monomial) in n variables packed into ints for
    one order: a smaller int is a greater term, position-over-term with
    position 0 greatest.

    From the low bits up: one 16-bit field per exponent, the last variable's
    highest; the total degree d, stored as 0xFFFF - d under 'dp'; the
    position. The top bit of each exponent field is a guard, clear while
    degrees stay below DEGREE_LIMIT. For a lead l dividing t in the same
    position, t - l is the shift by t/l: added to any term, it gives that
    term times t/l. bias puts 2^15 into the degree field of t + bias - l,
    so that field never borrows from the position; l then divides t, in the
    same position, exactly when (t + bias - l) & mask is 0, mask holding the
    guards and every bit from the position field up.
    """

    __slots__ = ("n", "local", "deg_shift", "pos_shift", "bias", "mask")

    def __init__(self, n: int, order: Order) -> None:
        self.n = n
        self.local = order.is_local
        self.deg_shift = _FIELD * n
        self.pos_shift = _FIELD * (n + 1)
        self.bias = DEGREE_LIMIT << self.deg_shift
        guards = sum(DEGREE_LIMIT << (_FIELD * i) for i in range(n))
        self.mask = guards | -(1 << self.pos_shift)

    def pack(self, pos: int, m: Mono) -> int:
        d = sum(m)
        if d >= DEGREE_LIMIT:
            raise _degree_error(d)
        key = pos << self.pos_shift | (d if self.local else _FULL - d) << self.deg_shift
        for i, e in enumerate(m):
            key |= e << (_FIELD * i)
        return key

    def unpack(self, key: int) -> MTerm:
        return (key >> self.pos_shift,
                tuple(key >> (_FIELD * i) & _FULL for i in range(self.n)))

    def degree(self, key: int) -> int:
        d = key >> self.deg_shift & _FULL
        return d if self.local else _FULL - d


def _pack_vector(pk: TermPacking, v: Vector) -> Tuple[Dict[int, int], int]:
    """v as a map from packed term to integer, and the lcm of v's
    denominators, by which the map is scaled."""
    den = lcm(*(c.denominator for p in v for c in p.terms.values()))
    return {pk.pack(pos, m): c.numerator * (den // c.denominator)
            for pos, p in enumerate(v) for m, c in p.terms.items()}, den


def _unpack_vector(pk: TermPacking, ring: Ring, rank: int, terms: Terms,
                   scale: int) -> Vector:
    """The vector of terms divided by scale."""
    out: List[Dict[Mono, Fraction]] = [{} for _ in range(rank)]
    for key, c in terms:
        pos, m = pk.unpack(key)
        out[pos][m] = Fraction(c, scale)
    return tuple(Poly(ring, d) for d in out)


def _primitive(terms: Terms) -> Terms:
    """terms divided by their content, signed so that the first is positive."""
    g = gcd(*(c for _, c in terms))
    if terms[0][1] < 0:
        g = -g
    return terms if g == 1 else [(key, c // g) for key, c in terms]


class _Reducers:
    """Packed vectors that reduce, element i as its lead leads[i], lead
    coefficient lcs[i], other terms tails[i] in pop order, and ecarts[i],
    its top degree minus its lead's degree."""

    __slots__ = ("pk", "leads", "lcs", "tails", "ecarts")

    def __init__(self, pk: TermPacking) -> None:
        self.pk = pk
        self.leads: List[int] = []
        self.lcs: List[int] = []
        self.tails: List[Terms] = []
        self.ecarts: List[int] = []

    def add(self, terms: Terms) -> None:
        """Append the vector of these nonzero terms, given in pop order."""
        degree, (lead, c) = self.pk.degree, terms[0]
        self.leads.append(lead)
        self.lcs.append(c)
        self.tails.append(terms[1:])
        self.ecarts.append(max(degree(key) for key, _ in terms) - degree(lead))

    def terms(self, i: int) -> Terms:
        return [(self.leads[i], self.lcs[i])] + self.tails[i]

    def subset(self, idx: Sequence[int]) -> "_Reducers":
        out = _Reducers(self.pk)
        out.leads, out.lcs, out.tails, out.ecarts = (
            [xs[i] for i in idx] for xs in (self.leads, self.lcs, self.tails, self.ecarts))
        return out


# ---------------------------------------------------------------------------
# reduction


def _reduce(red: _Reducers, work: Dict[int, int], scale: int) -> Tuple[Terms, int]:
    """Reduce the map work, from packed term to integer, in place against
    red; return the result's nonzero terms in pop order and its scale.

    Under 'dp' the terms divided by the scale are exactly the normal form of
    work divided by the scale given. Under 'ds' they are Mora's weak normal
    form: work itself divided by the given scale when no step ran, else a
    content-1 multiple with scale 1. A scale of 0 is left untracked. Each
    term has one heap entry: a term that cancels stays in the map at zero
    until its entry comes up and is skipped.
    """
    pk = red.pk
    local, mask, bias, dsh = pk.local, pk.mask, pk.bias, pk.deg_shift
    if local:
        red = red.subset(range(len(red.leads)))  # the joining vectors stay here
        top = max((pk.degree(key) for key, c in work.items() if c), default=-1)
    leads, lcs, tails, ecarts = red.leads, red.lcs, red.tails, red.ecarts
    heap = list(work)
    heapify(heap)
    rkeys: List[int] = []
    rcoeffs: List[int] = []  # the remainder under 'dp', at the current scale
    while heap:
        k = heappop(heap)
        c = work.pop(k)
        if not c:
            continue
        kb = k + bias
        if local:
            dk = k >> dsh & _FULL
            i = -1
            for j, lead in enumerate(leads):
                if not (kb - lead) & mask and (i < 0 or ecarts[j] < ecarts[i]):
                    i = j
            if i < 0 or ecarts[i] > top - dk:
                terms = [(k, c)] + sorted((key, x) for key, x in work.items() if x)
                if i < 0:
                    return terms, scale
                red.add(terms)
        else:
            for i, lead in enumerate(leads):
                if not (kb - lead) & mask:
                    break
            else:
                rkeys.append(k)
                rcoeffs.append(c)
                continue
            dk = _FULL - (k >> dsh & _FULL)
        if dk + ecarts[i] >= DEGREE_LIMIT:
            raise _degree_error(dk + ecarts[i])
        shift, lc = k - leads[i], lcs[i]
        g = gcd(c, lc)
        a, b = lc // g, c // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for key in work:
                work[key] *= a
            rcoeffs = [x * a for x in rcoeffs]
            scale *= a
        get = work.get
        for key, x in tails[i]:
            key += shift
            old = get(key)
            if old is None:
                work[key] = -b * x
                heappush(heap, key)
            else:
                work[key] = old - b * x
        if local:
            g, top = 0, -1
            for key, x in work.items():
                if x:
                    g = gcd(g, x)
                    top = max(top, key >> dsh & _FULL)
            if g > 1:
                for key in work:
                    work[key] //= g
            scale = 1
        elif a != 1:
            g = scale
            for x in work.values():
                g = gcd(g, x)
                if g == 1:
                    break
            else:
                g = gcd(g, *rcoeffs)
            if g > 1:
                for key in work:
                    work[key] //= g
                rcoeffs = [x // g for x in rcoeffs]
                scale //= g
    return list(zip(rkeys, rcoeffs)), scale


class StdBasis(list):
    """A standard basis: the list of its monic vectors, with the packed
    reducers they were unpacked from (None when the list is empty)."""

    __slots__ = ("reducers",)

    def __init__(self, vectors: Iterable[Vector], reducers: Optional[_Reducers]) -> None:
        super().__init__(vectors)
        self.reducers = reducers


def reduce_vector(v: Vector, basis: StdBasis) -> Vector:
    """Normal form of v against a standard basis: fully reduced and exact
    under 'dp', Mora's weak normal form under 'ds' (the module docstring
    says how each picks its reducer and when it stops)."""
    red = basis.reducers
    if red is None or vec_is_zero(v):
        return v
    work, den = _pack_vector(red.pk, v)
    terms, scale = _reduce(red, work, den)
    return _unpack_vector(red.pk, v[0].ring, len(v), terms, scale)


# the benchmark's tracer binds the reducer by this name
reduce_vector_global = reduce_vector


# ---------------------------------------------------------------------------
# basis completion


def std_basis_vectors(vectors: Sequence[Vector], order: Order, rank: int) -> StdBasis:
    """Interreduced standard basis of the submodule generated by vectors."""
    vectors = [v for v in vectors if not vec_is_zero(v)]
    if not vectors:
        return StdBasis([], None)
    ring = vectors[0][0].ring
    pk = TermPacking(ring.n, order)
    red = _Reducers(pk)
    for v in vectors:
        red.add(_primitive(sorted(_pack_vector(pk, v)[0].items())))
    _complete(red, rank)
    red = _interreduce(red)
    return StdBasis((_unpack_vector(pk, ring, rank, red.terms(i), lc)
                     for i, lc in enumerate(red.lcs)), red)


def _complete(red: _Reducers, rank: int) -> None:
    """Add the reduced S-vectors to red until every pair reduces to zero:
    Buchberger's algorithm under 'dp', Mora's tangent-cone algorithm under
    'ds', the pairs taken least sugar first."""
    pk = red.pk
    leads, lcs, tails, ecarts = red.leads, red.lcs, red.tails, red.ecarts
    mask, bias, pos_shift = pk.mask, pk.bias, pk.pos_shift
    # product criterion, valid for rank-1 global bases
    coprime_skip = rank == 1 and not pk.local
    unpacked = [pk.unpack(key) for key in leads]
    # a pair of basis indices is pending while on the heap, else settled
    pending: Set[Tuple[int, int]] = set()
    pairs: List[Tuple[int, int, int, int, int]] = []  # (sugar, lcm order, j, i, lcm)

    def add_pairs(j: int) -> None:
        pj, mj = unpacked[j]
        for i in range(j):
            pi, mi = unpacked[i]
            if pi != pj:
                continue
            L = mono_lcm(mi, mj)
            if coprime_skip and mono_mul(mi, mj) == L:
                continue
            # the S-vector's top degree; no term of it may reach the limit
            sugar = mono_deg(L) + max(ecarts[i], ecarts[j])
            if sugar >= DEGREE_LIMIT:
                raise _degree_error(sugar)
            key = pk.pack(pj, L)
            heappush(pairs, (sugar, (pj << pos_shift) - key, j, i, key))
            pending.add((i, j))

    for j in range(len(leads)):
        add_pairs(j)
    while pairs:
        _, _, j, i, L = heappop(pairs)
        pending.remove((i, j))
        # chain criterion: k divides the lcm and both side pairs are settled
        Lb = L + bias
        if any(k != i and k != j and not (Lb - lead) & mask
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, lead in enumerate(leads)):
            continue
        g = gcd(lcs[i], lcs[j])
        ai, aj = lcs[j] // g, lcs[i] // g
        si, sj = L - leads[i], L - leads[j]
        work = {key + si: ai * c for key, c in tails[i]}
        for key, c in tails[j]:
            key += sj
            work[key] = work.get(key, 0) - aj * c
        terms, _ = _reduce(red, work, 0)
        if terms:
            red.add(_primitive(terms))
            unpacked.append(pk.unpack(terms[0][0]))
            add_pairs(len(leads) - 1)


def _interreduce(red: _Reducers) -> _Reducers:
    """The elements whose lead no other lead divides (the first of equal
    leads), least lead first; under 'dp' each is tail-reduced against the
    others, which gives the canonical reduced basis: no kept lead divides
    another, so every lead survives and the order stays sorted."""
    leads, mask, bias = red.leads, red.pk.mask, red.pk.bias
    keep = [i for i, li in enumerate(leads)
            if not any(j != i and not (li + bias - lj) & mask and (lj != li or j < i)
                       for j, lj in enumerate(leads))]
    keep.sort(key=leads.__getitem__, reverse=True)
    kept = red.subset(keep)
    if red.pk.local:
        return kept
    out = _Reducers(red.pk)
    for i in range(len(keep)):
        others = kept.subset([j for j in range(len(keep)) if j != i])
        out.add(_primitive(_reduce(others, dict(kept.terms(i)), 0)[0]))
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

    def __str__(self) -> str:
        return "INFINITE" if self.value is None else str(self.value)


INFINITE = QuotientDim(None, ())


def slice_columns(n: int, rank: int, N: int, key) -> List[MTerm]:
    """Labels (position, monomial) of degree <= N, greatest under key first;
    a label's column is its index, so a smaller column is a greater label."""
    labels = [(pos, m) for pos in range(rank) for m in monomials_up_to_degree(n, N)]
    labels.sort(key=key, reverse=True)
    return labels


def slice_rows(vectors: Sequence[Vector], N: int, labels: List[MTerm]):
    """Each monomial shift of each vector, truncated above degree N, as a
    sparse integer row over the columns of labels: the vector is scaled by
    the lcm of its denominators. The rows span the image of the module the
    vectors generate in O^rank/m^{N+1}O^rank."""
    col = {lab: i for i, lab in enumerate(labels)}
    for v in vectors:
        n = v[0].ring.n
        den = lcm(*(c.denominator for p in v for c in p.terms.values()))
        terms = [(pos, m, mono_deg(m), c.numerator * (den // c.denominator))
                 for pos, p in enumerate(v) for m, c in p.terms.items()]
        base = min((dm for _, _, dm, _ in terms), default=0)
        for delta in monomials_up_to_degree(n, N - base):
            dd = mono_deg(delta)
            yield {col[pos, mono_mul(m, delta)]: c
                   for pos, m, dm, c in terms if dm + dd <= N}


class TruncatedModel(NamedTuple):
    """O^rank/M below its certified degree d: the echelon form of M's shifts
    truncated above degree d - 1, over position-over-term labels."""

    basis: RowBasis
    labels: List[MTerm]
    degree: int


def truncated_model(gens: Sequence[Vector], ring: Ring, rank: int, order: Order,
                    caps: Sequence[int]) -> Optional[TruncatedModel]:
    """Exact model of the local quotient O^rank/M by degree-truncated
    elimination, M the module the generators span, or None when no cap in
    caps yields a certificate (an infinite quotient, or m^d O^rank inside M
    only for d above every cap).

    Certificate: the shifts of the generators span the image of M in
    O^rank/m^{N+1}O^rank. Eliminated with the lowest degree as the greatest
    column, the pivots of each degree d <= N count the degree-d initial forms
    of M, its tangent cone (Greuel-Pfister 5.5, 7.1). If degree d has no free
    column, m^d O^rank lies in M + m^{d+1} O^rank, so Nakayama puts m^d O^rank
    inside M, and the free columns of degree < d count the quotient. The
    least such d is the certified degree: the least d with m^d O^rank in M,
    the same at every cap N >= d.

    Witness: once m^d O^rank lies in M, every lead of M of degree < d is the
    lead of an element of degree < d, so eliminating the shifts below degree
    d with position-over-term columns (order breaking ties inside a
    position) leaves exactly the free monomials of M's local standard basis:
    the same cobasis a full basis would give.
    """
    n = ring.n
    for N in caps:
        labels = slice_columns(n, rank, N, lambda lab: (order.key(lab[1]), -lab[0]))
        basis = RowBasis()
        basis.extend(slice_rows(gens, N, labels))
        free_by_deg = [0] * (N + 1)
        for i, (_, m) in enumerate(labels):
            if i not in basis.rows:
                free_by_deg[mono_deg(m)] += 1
        if 0 not in free_by_deg:
            continue
        d = free_by_deg.index(0)
        labels = slice_columns(n, rank, d - 1, lambda lab: (-lab[0], order.key(lab[1])))
        basis = RowBasis()
        basis.extend(slice_rows(gens, d - 1, labels))
        if len(labels) - basis.rank != sum(free_by_deg[:d]):
            raise AssertionError("truncated witness disagrees with the certified count")
        return TruncatedModel(basis, labels, d)
    return None


def _truncated_quotient_local(gens: Sequence[Vector], ring: Ring, rank: int,
                              order: Order) -> Optional[QuotientDim]:
    """Exact local quotient dimension of O^rank/M from the truncated model at
    caps 4, 9 and 14, its free labels the witness; None when no cap
    certifies, and callers then fall back to a full standard basis."""
    model = truncated_model(gens, ring, rank, order, (4, 9, 14))
    if model is None:
        return None
    witness = [lab for i, lab in enumerate(model.labels) if i not in model.basis.rows]
    witness.sort(key=lambda t: (t[0], GLOBAL_DP.key(t[1])))
    return QuotientDim(len(witness), tuple(witness))


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

    __slots__ = ("ring", "rank", "gens", "order", "_basis", "_qdim")

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
        self._basis: Optional[StdBasis] = None
        self._qdim: Optional[QuotientDim] = None

    def basis(self) -> StdBasis:
        if self._basis is None:
            self._basis = std_basis_vectors(self.gens, self.order, self.rank)
        return self._basis

    def lead_terms(self) -> List[MTerm]:
        red = self.basis().reducers
        if red is None:
            return []
        return [red.pk.unpack(key) for key in red.leads]

    def normal_form(self, v: Vector) -> Vector:
        return reduce_vector(v, self.basis())

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

    __slots__ = ("ring", "gens", "order", "_mod", "_lifter")

    def __init__(self, ring: Ring, gens: Sequence[Poly], order: Order = LOCAL_DS) -> None:
        self.ring = ring
        self.gens: Tuple[Poly, ...] = tuple(g for g in gens if not g.is_zero())
        if any(g.ring != ring for g in self.gens):
            raise ValueError("generator from a different ring")
        self.order = order
        self._mod: Optional[Submodule] = None
        self._lifter: Optional[Submodule] = None

    def _module(self) -> Submodule:
        if self._mod is None:
            self._mod = Submodule(self.ring, 1, [(g,) for g in self.gens], self.order)
        return self._mod

    def basis(self) -> List[Poly]:
        return [v[0] for v in self._module().basis()]

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

    def lift(self, p: Poly) -> Optional[Tuple[Poly, ...]]:
        """Coordinates c with p = sum c_j * gens[j], or None if p is not a
        member of the polynomial (global) ideal.

        Read through the embedded identity: under the global order, the
        module spanned by the (g_j, e_j) in O^(1+k) reduces (p, 0, ..., 0) to
        (r, -c) with p - r = sum c_j g_j, and r = 0 exactly when p lies in
        the ideal, since position 0 is greatest."""
        k = len(self.gens)
        if self._lifter is None:
            embedded = _with_identity([(g,) for g in self.gens], self.ring)
            self._lifter = Submodule(self.ring, 1 + k, embedded, GLOBAL_DP)
        r, *c = self._lifter.normal_form((p,) + vec_zero(self.ring, k))
        return None if not r.is_zero() else tuple(-x for x in c)


# ---------------------------------------------------------------------------
# syzygies, preimages, colon, intersection, saturation


def _with_identity(vectors: Sequence[Vector], ring: Ring) -> List[Vector]:
    """Each vectors[i] followed by the i-th unit vector of O^k, k = len(vectors)."""
    zero, one = ring.zero(), ring.one()
    return [tuple(v) + tuple(one if j == i else zero for j in range(len(vectors)))
            for i, v in enumerate(vectors)]


def module_syzygies(vectors: Sequence[Vector], ring: Ring, rank: int) -> Submodule:
    """Kernel of the map O^k -> O^rank sending unit vector i to vectors[i]:
    the preimage of the zero module."""
    return Submodule(ring, len(vectors), preimage_module(vectors, [], ring, rank), GLOBAL_DP)


def preimage_module(targets: Sequence[Vector], sub_gens: Sequence[Vector], ring: Ring,
                    rank: int) -> List[Vector]:
    """Reduced global basis of {c in O^k : sum c_i * targets[i] in <sub_gens>}.

    The rows (t_i, e_i) and (s_j, 0) in O^(rank+k) span the pairs
    (sum c_i t_i + sum d_j s_j, c), so (0, c) is a member exactly when c lies
    in the preimage. Position-over-term with position 0 greatest eliminates
    the first rank entries: the tails of the basis elements whose head
    vanishes form a basis of the preimage, and no cofactor d is computed.
    Postcheck: each sum c_i t_i is a global member of <sub_gens>."""
    k = len(targets)
    if k == 0:
        return []
    if any(len(v) != rank for v in targets):
        raise ValueError("vector of wrong rank")
    sub = Submodule(ring, rank, sub_gens, GLOBAL_DP)
    rows = _with_identity(targets, ring) + [s + vec_zero(ring, k) for s in sub.gens]
    basis = std_basis_vectors(rows, GLOBAL_DP, rank + k)
    out = [b[rank:] for b in basis if vec_is_zero(b[:rank])]
    for c in out:
        acc = vec_zero(ring, rank)
        for ci, t in zip(c, targets):
            acc = vec_add(acc, vec_poly_mul(t, ci))
        if not sub.contains(acc):
            raise AssertionError("preimage postcheck failed")
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
    gens = [c[0] for c in preimage_module([target], sub, ring, s)]
    out = Ideal(ring, gens, I.order)
    # membership postcheck on generators
    for h in out.gens:
        for f in J.gens:
            if not I.contains(h * f):
                raise AssertionError("ideal quotient postcheck failed")
    return out


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I intersect J, as the rank-1 module intersection."""
    inter = module_intersection(I._module(), J._module())
    return Ideal(I.ring, [v[0] for v in inter.gens], I.order)


def module_intersection(U: Submodule, V: Submodule) -> Submodule:
    """U intersect V, in U's order.

    The rows (u_i, u_i) and (v_j, 0) in O^(2 rank) span the pairs
    (sum c_i u_i + sum d_j v_j, sum c_i u_i), so (0, w) is a member exactly
    when w lies in U and in V; as in preimage_module, the tails of the global
    basis elements whose head vanishes generate U intersect V.
    Postcheck: each returned w is a global member of U and of V."""
    if U.ring != V.ring or U.rank != V.rank:
        raise ValueError("modules from different ambients")
    ring, r = U.ring, U.rank
    rows = [u + u for u in U.gens] + [v + vec_zero(ring, r) for v in V.gens]
    basis = std_basis_vectors(rows, GLOBAL_DP, 2 * r)
    gens = [b[r:] for b in basis if vec_is_zero(b[:r])]
    Ug, Vg = U.with_order(GLOBAL_DP), V.with_order(GLOBAL_DP)
    if not all(Ug.contains(w) and Vg.contains(w) for w in gens):
        raise AssertionError("intersection postcheck failed")
    return Submodule(ring, r, gens, U.order)


def saturation(I: Ideal, J: Ideal) -> Ideal:
    """(I : J^infinity), exact for I's ring flavor.

    When I + J is the unit ideal, I is already saturated: from 1 = a + b with
    a in I and b in J, every h with h*J^k in I is h = h*(a + b)^k, a member
    of I. That holds in the polynomial and the local ring alike, and takes
    one standard basis of I + J in I's order; I itself is returned. Only when
    the zero sets of I and J meet (or, in the local ring, both pass through
    the origin) does the quotient (I : J) run, iterated until it is stable.
    """
    if I.sum(J).is_unit():
        return I
    current = I
    while True:
        nxt = ideal_quotient(current, J)
        if current.contains_ideal(nxt):
            return current
        current = nxt


# ---------------------------------------------------------------------------
# dimensions of quotients and subquotients


def subideal_preimage(I: Ideal, J: Ideal) -> Submodule:
    """The module L = {c in O^k : sum c_i g_i in J} for J contained in I;
    O^k/L is then isomorphic to I/J with unit vector i mapping to gens[i]."""
    for h in J.gens:
        if not I.contains(h):
            raise GermforgeError("PRECONDITION_VIOLATED",
                                 f"not a subideal: {h} is outside the ambient ideal")
    L = preimage_module([(g,) for g in I.gens], [(h,) for h in J.gens], I.ring, 1)
    return Submodule(I.ring, len(I.gens), L, I.order)


def relative_quotient_dimension(I: Ideal, J: Ideal) -> QuotientDim:
    """dim I/J for J contained in I, via the module quotient O^k/L; the
    witness tags (generator index, monomial), so witness entry (j, m) stands
    for the class of m * gens[j]."""
    return subideal_preimage(I, J).quotient_dimension()


def power_ideal(ring: Ring, k: int) -> Ideal:
    """The k-th power of the maximal ideal at the origin, in the local ring."""
    if k <= 0:
        return Ideal(ring, [ring.one()], LOCAL_DS)
    gens = [ring.monomial(m) for m in monomials_of_degree(ring.n, k)]
    return Ideal(ring, gens, LOCAL_DS)


def hilbert_samuel(I: Ideal, m: int) -> int:
    """dim I/(I intersect m^{m+1}) at the origin (local): the dimension of
    the image of I in O/m^{m+1}, which the shifts of I's generators
    truncated above degree m span, so it is the rank of that one slice."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    labels = slice_columns(I.ring.n, 1, m, lambda lab: GLOBAL_DP.key(lab[1]))
    return RowBasis().extend(slice_rows([(g,) for g in I.gens], m, labels))


# ---------------------------------------------------------------------------
# zero-dimensional radical (Seidenberg)


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
    adjoin the squarefree part of each variable's minimal polynomial p.

    That part is p / gcd(p, p'), which generates the colon (p) : (p'); it is
    read as the one element of the colon's reduced basis, monic under dp."""
    if I.order.is_local:
        raise GermforgeError("LOCAL_ORDER_UNSUPPORTED",
                             "radical computation needs a global order")
    if not I.quotient_dimension().is_finite:
        raise GermforgeError("NOT_ZERO_DIMENSIONAL",
                             "radical is implemented for zero-dimensional ideals only")
    ring = I.ring
    extra: List[Poly] = []
    for i in range(ring.n):
        x = ring.var(i)
        p = sum((x ** t * c for t, c in enumerate(minimal_polynomial(I, i))), ring.zero())
        colon = ideal_quotient(Ideal(ring, [p], GLOBAL_DP), Ideal(ring, [p.derive(i)], GLOBAL_DP))
        extra.extend(colon.basis())
    out = Ideal(ring, tuple(I.gens) + tuple(extra), I.order)
    return Ideal(ring, tuple(out.basis()), I.order)


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
