"""Koszul complexes over quotient rings, with finite-length homology dims.

The complex K_p = Lambda^p(A^m) for A = O/relations is presented by explicit
differential matrices over O; kernels and images over A are obtained by
adjoining the relation multiples to the submodule of every preimage. H_p is
the subquotient ker(d_p)/im(d_{p+1}), presented as O^t/L for L the preimage
of the image module under the kernel presentation, and its dimension is a
staircase count.
"""

from __future__ import annotations

from itertools import combinations

from .errors import GermforgeError
from .polyring import LOCAL_DS, Poly, Ring
from .stdbasis import (
    Submodule,
    Vector,
    preimage_module,
    vec_is_zero,
)


class KoszulInstance:
    """Sequence s_1..s_m over the quotient of the local ring by relations."""

    __slots__ = ("ring", "relations", "sequence")

    def __init__(self, ring: Ring, relations: tuple[Poly, ...], sequence: tuple[Poly, ...]):
        self.ring = ring
        self.relations = tuple(p for p in relations if not p.is_zero())
        self.sequence = tuple(sequence)
        for p in self.relations + self.sequence:
            if p.ring is not self.ring:
                raise ValueError("all elements must live in the instance ring")
        _verify_complex(self)

    @property
    def length(self) -> int:
        return len(self.sequence)


def _basis_index(m: int, p: int) -> dict[tuple[int, ...], int]:
    return {S: i for i, S in enumerate(combinations(range(m), p))}


def _differential(inst: KoszulInstance, p: int) -> list[Vector]:
    """Columns of d_p: K_p -> K_{p-1}, one vector in O^rank(K_{p-1}) per
    basis element e_S of K_p; d(e_S) = sum_t (-1)^t s_{i_t} e_{S minus i_t}."""
    m = inst.length
    ring = inst.ring
    lower = _basis_index(m, p - 1)
    cols: list[Vector] = []
    for S in combinations(range(m), p):
        col = [ring.zero()] * len(lower)
        for t, i in enumerate(S):
            T = tuple(j for j in S if j != i)
            coeff = inst.sequence[i] if t % 2 == 0 else -inst.sequence[i]
            col[lower[T]] = col[lower[T]] + coeff
        cols.append(tuple(col))
    return cols


def _verify_complex(inst: KoszulInstance) -> None:
    # d_{p-1} o d_p = 0 over O itself, checked on every basis generator
    m = inst.length
    ring = inst.ring
    for p in range(2, m + 1):
        upper = _differential(inst, p)
        lower = _differential(inst, p - 1)
        rank_out = len(_basis_index(m, p - 2))
        for col in upper:
            acc = [ring.sum(c * low[e] for c, low in zip(col, lower)) for e in range(rank_out)]
            if not vec_is_zero(acc):
                raise AssertionError("differentials do not compose to zero")


def _relation_block(inst: KoszulInstance, rank: int) -> list[Vector]:
    ring = inst.ring
    out: list[Vector] = []
    for r in inst.relations:
        for b in range(rank):
            v = [ring.zero()] * rank
            v[b] = r
            out.append(tuple(v))
    return out


def _kernel_gens(inst: KoszulInstance, p: int) -> list[Vector]:
    """Generators in O^rank(K_p) of ker(d_p) over the quotient ring."""
    m = inst.length
    ring = inst.ring
    if p == 0:
        return [(ring.one(),)]
    cols = _differential(inst, p)
    rank_low = len(_basis_index(m, p - 1))
    relations = Submodule(ring, rank_low, _relation_block(inst, rank_low), LOCAL_DS)
    return list(preimage_module(cols, relations).gens)


def _image_gens(inst: KoszulInstance, p: int) -> list[Vector]:
    """Generators in O^rank(K_p) of im(d_{p+1}) plus the relation multiples."""
    m = inst.length
    rank_p = len(_basis_index(m, p))
    gens = _relation_block(inst, rank_p)
    if p + 1 <= m:
        gens = _differential(inst, p + 1) + gens
    return gens


def homology_dimension(inst: KoszulInstance, p: int) -> int:
    """dim of H_p = ker(d_p)/im(d_{p+1}) over the quotient ring."""
    m = inst.length
    if p < 0 or p > m:
        return 0
    ker = _kernel_gens(inst, p)
    rank_p = len(_basis_index(m, p))
    im = Submodule(inst.ring, rank_p, _image_gens(inst, p), LOCAL_DS)
    qd = preimage_module(ker, im, LOCAL_DS).quotient_dimension()
    if not qd.is_finite:
        raise GermforgeError("INFINITE_LENGTH",
                             f"homology module H_{p} has infinite length")
    return qd.value


def koszul_homology_dims(inst: KoszulInstance, p_max: int) -> list[int]:
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    return [homology_dimension(inst, p) for p in range(p_max + 1)]


def koszul_euler(inst: KoszulInstance) -> int:
    """Alternating sum including H_0: sum_{i>=0} (-1)^i dim H_i."""
    dims = koszul_homology_dims(inst, inst.length)
    return sum(d if i % 2 == 0 else -d for i, d in enumerate(dims))
