"""Groebner bases for ideals and submodules of free modules, and the answers
at the origin read from them.

One standard-basis algorithm, Buchberger with the sugar strategy for the
global order 'dp', serves both ring flavors. Module terms are ordered
position-over-term with position 0 greatest, an elimination order: the basis
elements whose first entries vanish form a basis of the module's part with
those entries zero.

Every elimination is a preimage {c : sum c_i t_i in S}, read off the basis
of the rows (t_i, e_i) and (s_j, 0), s_j the generators of S: the syzygies
are the preimage of the zero module, the colon M : (w_1..w_k) that of the
w stacked under M in k blocks. The result module caches the basis its
elimination computed, and the postcheck reduces each distinct block of
the sums c_i t_i to 0 against the cached global basis of S, once.
Lifting a member of an ideal to coordinates over its generators reads the
same rows: the global normal form of (p, 0, ..., 0) against the (g_j, e_j)
carries the coordinates in its tail. The squarefree part of a univariate
p is the generator of the colon (p) : (p'); the zero-dimensional radical
reads it from squarefree_part, and the oracle reads the lengths of the
defect points from the squarefree parts of one characteristic polynomial.

The local order 'ds' only says that a question is asked in the local ring at
the origin. The polynomial generators generate the same module there, so one
global basis serves both orders. The local length comes from it and the
truncated model (Submodule.quotient_dimension says how), a local membership
from it and one colon (Submodule.contains). When neither the model nor the
global length decides, a coordinate axis in the support of O^r/M proves the
local length infinite, one univariate basis per variable; the saturation
Ann(O^r/M) : m^infinity decides the rest. with_order gives a view on the
same generators that shares the cached global basis, whichever view builds
it first; each view keeps its own quotient dimension and truncated model.

The reducer works in place, on packed terms with integer coefficients.
Inside the engine a module term (position, monomial) is one int
(Bachmann-Schoenemann, ISSAC 1998; see TermPacking). A monomial shift is one
add and a divisibility test one masked subtract. Input is packed when
std_basis_vectors is entered, and the basis stays packed: its monic
vectors are unpacked when read. A degree of 2^15 or more raises
PRECONDITION_VIOLATED. Basis elements are stored primitive, with a
positive leading coefficient. The vector being reduced is one mutable map
from packed term to integer, a heap hands out its leading term, and each
step scales the map by lc/gcd(c, lc) and subtracts a multiple of the
reducer term by term (the single-accumulator idea of Yan's geobuckets,
J. Symb. Comp. 25, 1998).
The reducer is the first basis element whose lead divides the leading term,
terms no lead divides go to the remainder, and the remainder over the
tracked scale is the canonical fully reduced normal form, exact over the
rationals; a step that scales divides the map, the remainder and the scale
by their common content. The pending S-pairs wait on a heap ordered by
sugar (Giovini et al., ISSAC 1991), the lcm's order and the pair's indices.
Interreduction runs least lead first, each element against the already
reduced smaller ones; the reduced basis is unique (Greuel-Pfister 2.3), so
the order is free.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from heapq import heapify, heappop, heappush
from itertools import accumulate, count
from math import comb, gcd, lcm

from .errors import GermforgeError
from .linalg import RowBasis, integral, nullspace
from .polyring import (
    GLOBAL_DP,
    LOCAL_DS,
    Mono,
    Order,
    Poly,
    Q,
    Ring,
    mono_deg,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    monomials_up_to_degree,
)

Vector = tuple[Poly, ...]
MTerm = tuple[int, Mono]  # (position, monomial); position 0 is greatest
Terms = list[tuple[int, int]]  # (packed term, integer coefficient)


# ---------------------------------------------------------------------------
# vector helpers


def vec_zero(ring: Ring, rank: int) -> Vector:
    z = ring.zero()
    return (z,) * rank

def vec_is_zero(v: Vector) -> bool:
    return all(p.is_zero() for p in v)


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
    """Module terms (position, monomial) in n variables packed into ints: a
    smaller int is a greater term, position-over-term under 'dp' with
    position 0 greatest.

    From the low bits up: one 16-bit field per exponent, the last variable's
    highest; the total degree d, stored as 0xFFFF - d; the position. The top
    bit of each exponent field is a guard, clear while degrees stay below
    DEGREE_LIMIT. For a lead l dividing t in the same position, t - l is the
    shift by t/l: added to any term, it gives that term times t/l. bias puts
    2^15 into the degree field of t + bias - l, so that field never borrows
    from the position; l then divides t, in the same position, exactly when
    (t + bias - l) & mask is 0, mask holding the guards and every bit from
    the position field up.
    """

    __slots__ = ("n", "deg_shift", "pos_shift", "bias", "mask")

    def __init__(self, n: int) -> None:
        self.n = n
        self.deg_shift = _FIELD * n
        self.pos_shift = _FIELD * (n + 1)
        self.bias = DEGREE_LIMIT << self.deg_shift
        guards = sum(DEGREE_LIMIT << (_FIELD * i) for i in range(n))
        self.mask = guards | -(1 << self.pos_shift)

    def pack(self, pos: int, m: Mono) -> int:
        d = sum(m)
        if d >= DEGREE_LIMIT:
            raise _degree_error(d)
        key = pos << self.pos_shift | (_FULL - d) << self.deg_shift
        for i, e in enumerate(m):
            key |= e << (_FIELD * i)
        return key

    def unpack(self, key: int) -> MTerm:
        return (key >> self.pos_shift,
                tuple(key >> (_FIELD * i) & _FULL for i in range(self.n)))

    def degree(self, key: int) -> int:
        return _FULL - (key >> self.deg_shift & _FULL)


def _pack_vector(pk: TermPacking, v: Vector) -> tuple[dict[int, int], int]:
    """v as a map from packed term to integer, and the lcm of v's
    denominators, by which the map is scaled."""
    den = lcm(*(c.denominator for p in v for c in p.terms.values()))
    return {pk.pack(pos, m): c.numerator * (den // c.denominator)
            for pos, p in enumerate(v) for m, c in p.terms.items()}, den


def _unpack_vector(pk: TermPacking, ring: Ring, rank: int, terms: Terms,
                   scale: int) -> Vector:
    """The vector of terms divided by scale."""
    out: list[dict[Mono, Q]] = [{} for _ in range(rank)]
    for key, c in terms:
        pos, m = pk.unpack(key)
        out[pos][m] = Q(c, scale)
    return tuple(Poly(ring, d) for d in out)


def _primitive(terms: Terms) -> Terms:
    """terms divided by their content, signed so that the first is positive."""
    g = gcd(*(c for _, c in terms))
    if terms[0][1] < 0:
        g = -g
    return terms if g == 1 else [(key, c // g) for key, c in terms]


class StdBasis:
    """A reduced standard basis in O^rank over ring, held packed: element i
    has lead leads[i], lead coefficient lcs[i], other terms tails[i] in pop
    order, and ecarts[i], its top degree minus its lead's degree. Its monic
    vectors are unpacked only when read, by vector(i) or by iterating. With
    no vector to name the ring, ring and pk are None and the basis is empty."""

    __slots__ = ("ring", "rank", "pk", "leads", "lcs", "tails", "ecarts")

    def __init__(self, ring: Ring | None, rank: int) -> None:
        self.ring, self.rank = ring, rank
        self.pk = None if ring is None else TermPacking(ring.n)
        self.leads: list[int] = []
        self.lcs: list[int] = []
        self.tails: list[Terms] = []
        self.ecarts: list[int] = []

    def add(self, terms: Terms) -> None:
        """Append the vector of these nonzero terms, given in pop order."""
        degree, (lead, c) = self.pk.degree, terms[0]
        self.leads.append(lead)
        self.lcs.append(c)
        self.tails.append(terms[1:])
        self.ecarts.append(max(degree(key) for key, _ in terms) - degree(lead))

    def terms(self, i: int) -> Terms:
        return [(self.leads[i], self.lcs[i])] + self.tails[i]

    def vector(self, i: int) -> Vector:
        """Element i as a monic vector."""
        return _unpack_vector(self.pk, self.ring, self.rank, self.terms(i), self.lcs[i])

    def __len__(self) -> int:
        return len(self.leads)

    def __iter__(self) -> Iterator[Vector]:
        return map(self.vector, range(len(self.leads)))


# ---------------------------------------------------------------------------
# reduction


def _reduce(red: StdBasis, work: dict[int, int], scale: int) -> tuple[Terms, int]:
    """Reduce the map work, from packed term to integer, in place against
    red; return the result's nonzero terms in pop order and its scale.

    The terms divided by the scale are exactly the normal form of work
    divided by the scale given; a scale of 0 is left untracked. Each term
    has one heap entry: a term that cancels stays in the map at zero until
    its entry comes up and is skipped.
    """
    mask, bias, dsh = red.pk.mask, red.pk.bias, red.pk.deg_shift
    leads, lcs, tails, ecarts = red.leads, red.lcs, red.tails, red.ecarts
    heap = list(work)
    heapify(heap)
    rkeys: list[int] = []
    rcoeffs: list[int] = []  # the remainder, at the current scale
    while heap:
        k = heappop(heap)
        c = work.pop(k)
        if not c:
            continue
        kb = k + bias
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
        if a != 1:
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


def reduce_vector(v: Vector, basis: StdBasis) -> Vector:
    """Normal form of v against a reduced global basis: fully reduced, exact
    over the rationals, zero exactly on the members of the polynomial
    module."""
    if not basis.leads or vec_is_zero(v):
        return v
    work, den = _pack_vector(basis.pk, v)
    terms, scale = _reduce(basis, work, den)
    return _unpack_vector(basis.pk, basis.ring, basis.rank, terms, scale)


# the benchmark's tracer binds the reducer by this name
reduce_vector_global = reduce_vector


# ---------------------------------------------------------------------------
# basis completion


def std_basis_vectors(vectors: Sequence[Vector], rank: int) -> StdBasis:
    """Reduced 'dp' Groebner basis, position over term, of the submodule of
    the polynomial module generated by vectors."""
    vectors = [v for v in vectors if not vec_is_zero(v)]
    if not vectors:
        return StdBasis(None, rank)
    red = StdBasis(vectors[0][0].ring, rank)
    for v in vectors:
        red.add(_primitive(sorted(_pack_vector(red.pk, v)[0].items())))
    _complete(red)
    return _interreduce(red)


def _complete(red: StdBasis) -> None:
    """Add the reduced S-vectors to red until every pair reduces to zero:
    Buchberger's algorithm, the pairs taken least sugar first."""
    pk = red.pk
    leads, lcs, tails, ecarts = red.leads, red.lcs, red.tails, red.ecarts
    mask, bias, pos_shift = pk.mask, pk.bias, pk.pos_shift
    # product criterion, valid for rank-1 bases
    coprime_skip = red.rank == 1
    unpacked = [pk.unpack(key) for key in leads]
    # a pair of basis indices is pending while on the heap, else settled
    pending: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int, int, int, int]] = []  # (sugar, lcm order, j, i, lcm)

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


def _interreduce(red: StdBasis) -> StdBasis:
    """The canonical reduced basis: the elements whose lead no other lead
    divides (the first of equal leads), least lead first, each reduced
    against the already reduced smaller ones; a greater lead divides no term
    of the element or of what its reduction adds. No kept lead divides
    another, so every lead survives and the order stays sorted."""
    leads, mask, bias = red.leads, red.pk.mask, red.pk.bias
    keep = [i for i, li in enumerate(leads)
            if not any(j != i and not (li + bias - lj) & mask and (lj != li or j < i)
                       for j, lj in enumerate(leads))]
    keep.sort(key=leads.__getitem__, reverse=True)
    out = StdBasis(red.ring, red.rank)
    for i in keep:
        out.add(_primitive(_reduce(out, dict(red.terms(i)), 0)[0]))
    return out

# ---------------------------------------------------------------------------
# quotient dimensions


class QuotientDim(namedtuple("QuotientDim", "value witness", defaults=((),))):
    """Dimension of a quotient; value None means infinite."""

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        return "INFINITE" if self.value is None else str(self.value)


INFINITE = QuotientDim(None, ())


# A user's truncation N lists rank * comb(n + N, n) labels; past this many it
# is refused before any is listed. The largest slice that a test, script or
# corpus case lists is hilbert --trunc 10 on d3b, 286 labels.
SLICE_LIMIT = 100_000


def _refuse_large_slice(n: int, rank: int, N: int) -> None:
    """PRECONDITION_VIOLATED for a truncation at or past the degree limit,
    then for one whose slice has more than SLICE_LIMIT labels."""
    if N >= DEGREE_LIMIT:
        raise _degree_error(N)
    size = rank * comb(n + N, n)
    if size > SLICE_LIMIT:
        raise GermforgeError("PRECONDITION_VIOLATED", f"truncation degree {N} would list "
                             f"{size} labels, more than the limit of {SLICE_LIMIT}")


def slice_columns(n: int, rank: int, N: int, key) -> list[MTerm]:
    """Labels (position, monomial) of degree <= N, greatest under key first;
    a label's column is its index, so a smaller column is a greater label."""
    if N >= DEGREE_LIMIT:
        raise _degree_error(N)
    labels = [(pos, m) for pos in range(rank) for m in monomials_up_to_degree(n, N)]
    labels.sort(key=key, reverse=True)
    return labels


def slice_rows(vectors: Sequence[Vector], N: int, labels: list[MTerm]):
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


def slice_pivots(gens: Sequence[Vector], n: int, rank: int, N: int) -> list[int]:
    """The pivots of each degree 0..N when the shifts of gens, truncated
    above degree N, are eliminated with the lowest degree first ('ds', then
    the least position): the degree-d count is the dimension of the degree-d
    initial forms of the image of the module they generate in
    O^rank/m^{N+1}O^rank."""
    labels = slice_columns(n, rank, N, lambda lab: (LOCAL_DS.key(lab[1]), -lab[0]))
    basis = RowBasis()
    basis.extend(slice_rows(gens, N, labels))
    pivots = [0] * (N + 1)
    for p in basis.rows:
        pivots[mono_deg(labels[p][1])] += 1
    return pivots


class TruncatedModel(namedtuple("TruncatedModel", "basis labels degree")):
    """O^rank/M below its certified degree d: the echelon form of M's shifts
    truncated above degree d - 1, over position-over-term labels."""

    __slots__ = ()

    def row(self, v: Vector) -> dict[int, int]:
        """v's terms of degree < d as an integer row over the labels' columns:
        with m^d O^rank inside M, v is in M exactly when the row is in the span."""
        col = {lab: i for i, lab in enumerate(self.labels)}
        return integral({col[pos, m]: c for pos, p in enumerate(v)
                         for m, c in p.terms.items() if mono_deg(m) < self.degree})


def truncated_model(gens: Sequence[Vector], ring: Ring, rank: int,
                    caps: Iterable[int]) -> TruncatedModel | None:
    """Exact model of the local quotient O^rank/M by degree-truncated
    elimination, M the module the generators span, or None when no cap in
    caps yields a certificate (an infinite quotient, or m^d O^rank inside M
    only for d above every cap).

    Certificate: the shifts of the generators span the image of M in
    O^rank/m^{N+1}O^rank. Eliminated with the lowest degree first, the
    pivots of each degree d <= N (slice_pivots) count the degree-d initial
    forms of M, its tangent cone (Greuel-Pfister 5.5, 7.1). If degree d has
    no free column, m^d O^rank lies in M + m^{d+1} O^rank, so Nakayama puts
    m^d O^rank inside M, and the free columns of degree < d count the
    quotient. The least such d is the certified degree: the least d with
    m^d O^rank in M, the same at every cap N >= d.

    Witness: once m^d O^rank lies in M, every lead of M of degree < d is the
    lead of an element of degree < d, so eliminating the shifts below degree
    d with position-over-term columns ('ds' breaking ties inside a position)
    leaves exactly the free monomials of M's local standard basis.
    """
    n, key = ring.n, LOCAL_DS.key
    for N in caps:
        free_by_deg = [rank * comb(n + d - 1, d) - p
                       for d, p in enumerate(slice_pivots(gens, n, rank, N))]
        if 0 not in free_by_deg:
            continue
        d = free_by_deg.index(0)
        labels = slice_columns(n, rank, d - 1, lambda lab: (-lab[0], key(lab[1])))
        basis = RowBasis()
        basis.extend(slice_rows(gens, d - 1, labels))
        if len(labels) - basis.rank != sum(free_by_deg[:d]):
            raise AssertionError("truncated witness disagrees with the certified count")
        return TruncatedModel(basis, labels, d)
    return None


def staircase_dimension(lead_terms: Sequence[MTerm], rank: int, n: int) -> QuotientDim:
    """Count monomials outside the leading module, per position. The leads
    are those of a reduced basis, so no lead divides another."""
    by_pos: list[list[Mono]] = [[] for _ in range(rank)]
    for pos, m in lead_terms:
        by_pos[pos].append(m)
    witness: list[MTerm] = []
    zero = (0,) * n
    for pos in range(rank):
        monos = by_pos[pos]
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
    """Finitely generated submodule M of the rank-r free module, with its
    global basis cached; questions are asked in the polynomial ring under
    'dp', in the local ring at the origin under 'ds'."""

    __slots__ = ("ring", "rank", "gens", "order", "_shared", "_qdim", "_model")

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
        self.gens: tuple[Vector, ...] = tuple(cleaned)
        self.order = order
        self._shared: list[StdBasis | None] = [None]  # one cell for every view
        self._qdim: QuotientDim | None = None
        self._model: TruncatedModel | None = None

    @property
    def _basis(self) -> StdBasis | None:
        """The cached global basis, None until some view builds it."""
        return self._shared[0]

    def basis(self) -> StdBasis:
        """The reduced 'dp' basis of the polynomial module, under either order."""
        if self._shared[0] is None:
            self._shared[0] = std_basis_vectors(self.gens, self.rank)
        return self._shared[0]

    def lead_terms(self) -> list[MTerm]:
        """The leads of the global basis, under either order."""
        basis = self.basis()
        return [basis.pk.unpack(key) for key in basis.leads]

    def normal_form(self, v: Vector) -> Vector:
        """The global normal form of v, under either order."""
        return reduce_vector(v, self.basis())

    def contains(self, v: Vector) -> bool:
        """Membership in this module's ring. A global normal form of 0 proves
        it. Else, at the origin, v is a member exactly when a generator of
        the colon M : v is a unit there (Greuel-Pfister, ch. 1): the colon
        commutes with localization, and an ideal is the whole local ring
        exactly when some generator has a nonzero constant term."""
        if vec_is_zero(self.normal_form(v)):
            return True
        return self.order.is_local and any(h.constant_term() for h in self.colon([v]).gens)

    def contains_module(self, other: Submodule) -> bool:
        return all(self.contains(v) for v in other.gens)

    def equals(self, other: Submodule) -> bool:
        return self.contains_module(other) and other.contains_module(self)

    def colon(self, ws: Sequence[Vector]) -> Ideal:
        """{h : h*w in M for every w in ws}, in this module's order: the
        preimage of the ws stacked under M in len(ws) blocks, checked
        against M's own cached basis. That preimage, with the basis its
        elimination computed, is the ideal's module."""
        target = tuple(p for w in ws for p in w)
        P = preimage_module([target], self, self.order, len(ws))
        out = Ideal(self.ring, [c[0] for c in P.gens], self.order)
        out._mod = P
        return out

    def quotient_dimension(self) -> QuotientDim:
        """dim of O^rank / this module: the global staircase under 'dp', the
        truncated model's free labels under 'ds'."""
        if self._qdim is None:
            self._qdim = (self._local_dimension() if self.order.is_local else
                          staircase_dimension(self.lead_terms(), self.rank, self.ring.n))
        return self._qdim

    def _local_dimension(self) -> QuotientDim:
        """The length at the origin: the truncated model at cap 4, or the
        global basis decides. The certified degree is at most the local
        length, which a finite global length b bounds, so the caps climb to
        b. An infinite global quotient is infinite at the origin when the
        support of O^r/M holds a coordinate axis (_holds_an_axis), and else
        exactly when Ann(O^r/M) : m^infinity lies inside m; a finite one is
        then certified by the climb."""
        model = truncated_model(self.gens, self.ring, self.rank, (4,))
        if model is None:
            b = staircase_dimension(self.lead_terms(), self.rank, self.ring.n).value
            if b is not None:
                caps: Iterable[int] = [*range(9, b, 5), b]
            elif self._holds_an_axis() or not self._finite_at_origin():
                return INFINITE
            else:
                caps = count(9, 5)
            model = truncated_model(self.gens, self.ring, self.rank, caps)
            if model is None:
                raise AssertionError("the local length exceeds the global one")
        self._model = model
        witness = [lab for i, lab in enumerate(model.labels) if i not in model.basis.rows]
        witness.sort(key=lambda t: (t[0], GLOBAL_DP.key(t[1])))
        return QuotientDim(len(witness), tuple(witness))

    def _holds_an_axis(self) -> bool:
        """Whether the support of O^r/M holds a coordinate axis, a proof
        that the length at the origin is infinite.

        Setting every variable but x_j to 0 maps M onto the submodule of
        k[x_j]^r spanned by the generators' terms that are pure powers of
        x_j. When its global length is infinite its rank is below r, so
        O^r/M tensored with the residue field at P = (x_i : i != j) is not
        0, Nakayama puts P in the support, and the support, being closed,
        holds the x_j-axis through the origin. A support of positive
        dimension there means infinite length (Eisenbud, Commutative
        Algebra, 2.4)."""
        for j, name in enumerate(self.ring.names):
            axis = Ring([name])
            gens = [tuple(Poly(axis, {(m[j],): c for m, c in p.terms.items()
                                      if mono_deg(m) == m[j]}) for p in v)
                    for v in self.gens]
            if not Submodule(axis, self.rank, gens, GLOBAL_DP).quotient_dimension().is_finite:
                return True
        return False

    def _finite_at_origin(self) -> bool:
        """Whether Ann(O^r/M) : m^infinity holds a unit at the origin."""
        units = _with_identity([()] * self.rank, self.ring)
        S = saturation(self.colon(units).with_order(GLOBAL_DP), power_ideal(self.ring, 1))
        return any(h.constant_term() for h in S.gens)

    def local_model(self) -> TruncatedModel | None:
        """The truncated model that the local view of this module certified,
        or None when the quotient at the origin is infinite."""
        local = self.with_order(LOCAL_DS)
        local.quotient_dimension()
        return local._model

    def with_order(self, order: Order) -> Submodule:
        """A view under order on the same generators and cached basis."""
        if order == self.order:
            return self
        view = Submodule(self.ring, self.rank, (), order)
        view.gens, view._shared = self.gens, self._shared
        return view


class Ideal:
    """Ideal with generators, in the polynomial ring under 'dp' and in the
    local ring at the origin under 'ds', with its reduced global basis cached."""

    __slots__ = ("ring", "gens", "order", "_mod", "_lifter")

    def __init__(self, ring: Ring, gens: Sequence[Poly], order: Order = LOCAL_DS) -> None:
        self.ring = ring
        self.gens: tuple[Poly, ...] = tuple(g for g in gens if not g.is_zero())
        if any(g.ring != ring for g in self.gens):
            raise ValueError("generator from a different ring")
        self.order = order
        self._mod: Submodule | None = None
        self._lifter: Submodule | None = None

    def _module(self) -> Submodule:
        if self._mod is None:
            self._mod = Submodule(self.ring, 1, [(g,) for g in self.gens], self.order)
        return self._mod

    def basis(self) -> list[Poly]:
        """The reduced 'dp' basis of the polynomial ideal, under either order."""
        return [v[0] for v in self._module().basis()]

    def normal_form(self, p: Poly) -> Poly:
        """The global normal form of p, under either order."""
        return self._module().normal_form((p,))[0]

    def contains(self, p: Poly) -> bool:
        return self._module().contains((p,))

    def contains_ideal(self, other: Ideal) -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: Ideal) -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    def is_zero(self) -> bool:
        return not self.gens

    def variables(self) -> list[int] | None:
        """The variable y_i of each generator when every generator is c * y_i
        for a constant c != 0, which generates the ideal y_i does; else None."""
        found = []
        for g in self.gens:
            if len(g.terms) != 1:
                return None
            [m] = g.terms
            if sum(m) != 1:
                return None
            found.append(m.index(1))
        return found

    def is_unit(self) -> bool:
        """Under 'ds' a generator is a unit at 0; under 'dp' the basis holds 1."""
        if self.order.is_local:
            return any(g.constant_term() for g in self.gens)
        return bool(self.gens) and self.contains(self.ring.one())

    def quotient_dimension(self) -> QuotientDim:
        """dim of O/I (local ring for 'ds', polynomial ring for 'dp')."""
        return self._module().quotient_dimension()

    def with_order(self, order: Order) -> Ideal:
        """A view on the same generators, sharing the cached global basis."""
        if order == self.order:
            return self
        view = Ideal(self.ring, self.gens, order)
        view._mod = self._module().with_order(order)
        return view

    def sum(self, other: Ideal) -> Ideal:
        return Ideal(self.ring, self.gens + other.gens, self.order)

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inner}; {self.order.kind})"

    def lift(self, p: Poly) -> tuple[Poly, ...] | None:
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
# syzygies, preimages, colon, saturation


def _with_identity(vectors: Sequence[Vector], ring: Ring) -> list[Vector]:
    """Each vectors[i] followed by the i-th unit vector of O^k, k = len(vectors)."""
    zero, one = ring.zero(), ring.one()
    return [tuple(v) + tuple(one if j == i else zero for j in range(len(vectors)))
            for i, v in enumerate(vectors)]


def module_syzygies(vectors: Sequence[Vector], ring: Ring, rank: int) -> Submodule:
    """Kernel of the map O^k -> O^rank sending unit vector i to vectors[i]:
    the preimage of the zero module."""
    return preimage_module(vectors, Submodule(ring, rank, (), GLOBAL_DP))


def preimage_module(targets: Sequence[Vector], S: Submodule,
                    order: Order = GLOBAL_DP, copies: int = 1) -> Submodule:
    """{c in O^k : sum c_i * targets[i] in S^copies}, S repeated in copies
    blocks of its rank, in order, its global basis cached.

    The rows (t_i, e_i) and (s_j in each block, 0) in O^(head+k), s_j the
    generators of S, span the pairs (sum c_i t_i + sum d_j s_j, c), so (0, c)
    is a member exactly when c lies in the preimage, and no cofactor d is
    computed. Position over term eliminates the head: the basis elements
    with a lead past it, each key moved down head positions, are the
    preimage's reduced basis: cached, and unpacked as its generators.
    Postcheck: each distinct block of the sums c_i t_i reduces to 0 against
    S's cached basis, in every block the reduced basis of S^copies, as no
    S-pair and no lead crosses blocks under position over term."""
    k, ring, rank = len(targets), S.ring, S.rank
    head, pad = rank * copies, vec_zero(ring, rank * copies + k)
    if any(len(v) != head for v in targets):
        raise ValueError("vector of wrong rank")
    blocks = [(b * rank, b * rank + rank) for b in range(copies)]
    rows = [pad[:i] + s + pad[j:] for i, j in blocks for s in S.gens] if k else []
    elimination = std_basis_vectors(_with_identity(targets, ring) + rows, head + k)
    basis = StdBasis(ring, k)
    shift = head << basis.pk.pos_shift
    for i, lead in enumerate(elimination.leads):
        if lead >= shift:
            basis.add([(key - shift, c) for key, c in elimination.terms(i)])
    out = Submodule(ring, k, list(basis), order)
    out._shared[0] = basis
    sums = [tuple(ring.sum(ci * t[e] for ci, t in zip(c, targets)) for e in range(head))
            for c in out.gens]
    if not all(vec_is_zero(S.normal_form(v)) for v in {s[i:j] for s in sums for i, j in blocks}):
        raise AssertionError("preimage postcheck failed")
    return out


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {h : h*J is contained in I}, exact for I's ring flavor: the
    colon by J's generators, whose postcheck tests each h * f_j against I."""
    return I._module().colon([(f,) for f in J.gens])


def saturation(I: Ideal, J: Ideal) -> Ideal:
    """(I : J^infinity), exact for I's ring flavor.

    When I + J is the unit ideal, I is already saturated: from 1 = a + b with
    a in I and b in J, every h with h*J^k in I is h = h*(a + b)^k, a member
    of I. That holds in the polynomial and the local ring alike, and takes
    one global basis of I + J under 'dp' and none under 'ds'; I itself is
    returned. Only when the zero sets of I and J meet (or, in the local ring,
    both pass through the origin) does the quotient (I : J) run, iterated
    until it is stable.
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
    O^k/L is then isomorphic to I/J with unit vector i mapping to gens[i],
    so dim I/J is L's quotient dimension, whose witness entry (j, m) stands
    for the class of m * gens[j]. Each distinct generator of J is tested
    once against I."""
    for h in dict.fromkeys(J.gens):
        if not I.contains(h):
            raise GermforgeError("PRECONDITION_VIOLATED",
                                 f"not a subideal: {h} is outside the ambient ideal")
    return preimage_module([(g,) for g in I.gens], J._module(), I.order)


def power_ideal(ring: Ring, k: int) -> Ideal:
    """The k-th power of the maximal ideal at the origin, in the local ring."""
    if k <= 0:
        return Ideal(ring, [ring.one()], LOCAL_DS)
    gens = [ring.monomial(m) for m in monomials_of_degree(ring.n, k)]
    return Ideal(ring, gens, LOCAL_DS)


def hilbert_samuel_values(I: Ideal, N: int) -> list[int]:
    """dim I/(I intersect m^{m+1}) at the origin, the dimension of the image
    of I in O/m^{m+1}, for m = 0..N, from one truncated slice.

    The shifts of I's generators truncated above degree N span the image V
    of I in O/m^{N+1}. Eliminated with the lowest degree first, as in
    slice_pivots, each pivot row of V starts at its pivot, so the rows with
    a pivot above degree m span V's part inside m^{m+1}, and the image in
    O/m^{m+1} has one dimension per pivot of degree at most m."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    _refuse_large_slice(I.ring.n, 1, N)
    return list(accumulate(slice_pivots([(g,) for g in I.gens], I.ring.n, 1, N)))


# ---------------------------------------------------------------------------
# zero-dimensional radical (Seidenberg)


def minimal_polynomial(I: Ideal, var: int) -> Poly:
    """The monic minimal polynomial of x_var on the finite quotient by I
    under a global order. The normal forms of the powers up to the
    quotient's dimension must be dependent; the first kernel combination
    ends at the least dependent power with coefficient 1."""
    ring = I.ring
    x = ring.var(var)
    power = ring.one()
    col: dict[Mono, int] = {}
    powers: list[dict[int, Q]] = []
    for _ in range(I.quotient_dimension().value + 1):
        powers.append({col.setdefault(m, len(col)): c
                       for m, c in I.normal_form(power).terms.items()})
        power = power * x
    kernel = nullspace(powers)
    if not kernel:
        raise AssertionError("no univariate dependence on a finite quotient")
    return ring.sum(x ** t * c for t, c in kernel[0].items())


def squarefree_part(p: Poly, var: int) -> Poly:
    """The squarefree part p / gcd(p, p') of a polynomial p in x_var alone,
    monic, and 1 for a constant: the one element of the reduced dp basis of
    the colon (p) : (p')."""
    ring = p.ring
    colon = ideal_quotient(Ideal(ring, [p], GLOBAL_DP), Ideal(ring, [p.derive(var)], GLOBAL_DP))
    [part] = colon.basis()
    return part


def zero_dim_radical(I: Ideal) -> Ideal:
    """Radical of a zero-dimensional ideal under a global order (Seidenberg):
    adjoin the squarefree part of each variable's minimal polynomial."""
    if I.order.is_local:
        raise GermforgeError("LOCAL_ORDER_UNSUPPORTED",
                             "radical computation needs a global order")
    if not I.quotient_dimension().is_finite:
        raise GermforgeError("NOT_ZERO_DIMENSIONAL",
                             "radical is implemented for zero-dimensional ideals only")
    extra = tuple(squarefree_part(minimal_polynomial(I, i), i) for i in range(I.ring.n))
    return Ideal(I.ring, Ideal(I.ring, I.gens + extra, I.order).basis(), I.order)
