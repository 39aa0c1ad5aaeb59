"""Differential tests of the integer row-echelon engine (germforge.linalg):
rank, residuals and kernels against the Fraction oracle in helpers.py and,
where it can be imported, against sympy."""

import random
from fractions import Fraction
from math import gcd

import pytest

from germforge.linalg import RowBasis, integral, nullspace

from helpers import echelon, gauss_member, kernel_combos

BIG = 10 ** 40 + 7


def by_col(k):
    return k


def random_matrix(seed):
    """Sparse rational rows over int columns, with zero rows, duplicate and
    scaled rows, sums of earlier rows and some very large coefficients."""
    rnd = random.Random(seed)
    width = rnd.randint(1, 9)
    cols = sorted(rnd.sample(range(3 * width), width))
    rows = []
    for _ in range(rnd.randint(1, 10)):
        kind = rnd.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2 and rows:
            rows.append(dict(rnd.choice(rows)))
        elif kind < 0.35 and len(rows) >= 2:
            a, b = rnd.sample(rows, 2)
            s = Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
            mixed = {k: a.get(k, 0) + s * b.get(k, 0) for k in set(a) | set(b)}
            rows.append({k: c for k, c in mixed.items() if c})
        else:
            row = {}
            for k in cols:
                if rnd.random() < 0.4:
                    num = rnd.choice([rnd.randint(-9, 9), rnd.randint(-BIG, BIG)])
                    den = rnd.choice([1, 1, rnd.randint(1, 12), BIG])
                    if num:
                        row[k] = Fraction(num, den)
            rows.append(row)
    return rows


MATRICES = [random_matrix(seed) for seed in range(30)]


def loaded(rows):
    basis = RowBasis()
    basis.extend(integral(r) for r in rows)
    return basis


def probes(rows, seed):
    """Vectors to reduce: random ones, and combinations of the rows."""
    rnd = random.Random(1000 + seed)
    cols = sorted({k for r in rows for k in r} | {rnd.randint(0, 30)})
    out = [{k: rnd.randint(-BIG, BIG) for k in rnd.sample(cols, rnd.randint(1, len(cols)))}
           for _ in range(3)]
    for _ in range(2):
        combo = {}
        for r in rows:
            s = rnd.randint(-3, 3)
            for k, c in r.items():
                combo[k] = combo.get(k, 0) + s * c
        out.append({k: c for k, c in combo.items() if c})
    return [integral(v) for v in out]


def test_matrices_have_the_intended_shapes():
    assert any({} in rows for rows in MATRICES)
    assert any(len({tuple(sorted(r.items())) for r in rows if r})
               < len([r for r in rows if r]) for rows in MATRICES)
    assert any(abs(c.numerator) > 10 ** 30 or c.denominator > 10 ** 30
               for rows in MATRICES for r in rows for c in r.values())
    assert any(nullspace(rows) for rows in MATRICES)


@pytest.mark.parametrize("seed", range(30))
def test_rank_matches_the_oracle(seed):
    rows = MATRICES[seed]
    assert loaded(rows).rank == len(echelon(rows, keyf=by_col))


@pytest.mark.parametrize("seed", range(30))
def test_stored_rows_are_reduced_echelon_and_primitive(seed):
    basis = loaded(MATRICES[seed])
    for p, row in basis.rows.items():
        assert p == min(row) and row[p] > 0
        assert not any(q in row for q in basis.rows if q != p)
        assert all(isinstance(c, int) for c in row.values())
        assert gcd(*row.values()) == 1


@pytest.mark.parametrize("seed", range(30))
def test_reduce_clears_pivots_and_differs_by_a_span_element(seed):
    rows = MATRICES[seed]
    basis = loaded(rows)
    for v in probes(rows, seed):
        before = dict(v)
        r = basis.reduce(v)
        assert v == before
        assert not set(r) & set(basis.rows)
        diff = {k: v.get(k, 0) - r.get(k, 0) for k in set(v) | set(r)}
        assert gauss_member(diff, rows, keyf=by_col)
        assert basis.contains(v) == (not r) == gauss_member(v, rows, keyf=by_col)


@pytest.mark.parametrize("seed", range(30))
def test_nullspace_matches_the_oracle(seed):
    rows = MATRICES[seed]
    kernel = nullspace(rows)
    assert kernel == kernel_combos(rows, list(range(len(rows))), keyf=by_col)
    for combo in kernel:
        total = {}
        for t, c in combo.items():
            for k, v in rows[t].items():
                total[k] = total.get(k, 0) + c * v
        assert not any(total.values())


@pytest.mark.parametrize("seed", range(30))
def test_rank_and_nullspace_match_sympy(seed):
    sympy = pytest.importorskip("sympy")

    def dense(vecs, width):
        return sympy.Matrix([[sympy.Rational(Fraction(v.get(k, 0)).numerator,
                                             Fraction(v.get(k, 0)).denominator)
                              for k in range(width)] for v in vecs])

    rows = MATRICES[seed]
    M = dense(rows, 1 + max((k for r in rows for k in r), default=0))
    assert loaded(rows).rank == M.rank()
    ours = nullspace(rows)
    theirs = M.T.nullspace()
    assert len(ours) == len(theirs)
    if ours:
        K = dense(ours, len(rows))
        assert K.rank() == len(ours)
        assert sympy.Matrix.vstack(K, *[v.T for v in theirs]).rank() == len(ours)


def test_kernel_is_read_in_input_order_with_unit_coefficient():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}, {0: Fraction(1, 3)}, {}]
    assert nullspace(rows) == [{1: 1, 0: -2}, {3: 1, 0: Fraction(-1, 3), 2: Fraction(2, 3)},
                               {4: 1}]


def test_one_row_steps():
    basis = RowBasis()
    assert basis.add({2: 4, 5: 6})
    assert basis.rows == {2: {2: 2, 5: 3}}
    assert not basis.add({2: -2, 5: -3})
    assert not basis.add({})
    assert basis.add({5: 7, 0: 1})
    assert basis.rank == 2
    assert basis.rows == {2: {2: 2, 5: 3}, 0: {0: 1, 5: 7}}
    assert basis.reduce({2: 1}) == {5: Fraction(-3, 2)}
    assert basis.contains({0: 1, 2: 2, 5: 10})
    assert not basis.contains({1: 1})
