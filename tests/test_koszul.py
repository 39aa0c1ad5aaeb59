import pytest

from germforge.errors import GermforgeError
from germforge.polyring import Ring, parse_poly
from germforge.koszul import (
    KoszulInstance,
    homology_dimension,
    koszul_euler,
    koszul_homology_dims,
)

R2 = Ring(["x", "y"])
R1 = Ring(["x"])


def P(s, ring=R2):
    return parse_poly(s, ring)


def inst(ring, relations, sequence):
    rel = tuple(parse_poly(s, ring) for s in relations)
    seq = tuple(parse_poly(s, ring) for s in sequence)
    return KoszulInstance(ring, rel, seq)


class TestExamples:
    def test_regular_sequence(self):
        k = inst(R2, (), ("x", "y"))
        assert koszul_homology_dims(k, 2) == [1, 0, 0]
        assert koszul_euler(k) == 1
        assert koszul_euler(k) - koszul_homology_dims(k, 2)[0] == 0

    def test_single_element_over_dual_numbers(self):
        # ann(x) = (x) in O/(x^2), one dimension in each spot
        k = inst(R1, ("x^2",), ("x",))
        assert koszul_homology_dims(k, 1) == [1, 1]
        assert koszul_euler(k) == 0

    def test_empty_sequence_is_quotient_ring(self):
        k = inst(R2, ("x^2", "y"), ())
        assert koszul_homology_dims(k, 0) == [2]
        assert koszul_euler(k) == 2

    def test_empty_sequence_infinite_quotient(self):
        k = inst(R2, ("x",), ())
        with pytest.raises(GermforgeError) as ei:
            koszul_euler(k)
        assert ei.value.code == "INFINITE_LENGTH"

    def test_square_relations_full_complex(self):
        # A = O/(x^2, y^2): H_2 = ann(x) meet ann(y) = <xy>, Euler 0
        k = inst(R2, ("x^2", "y^2"), ("x", "y"))
        assert koszul_homology_dims(k, 2) == [1, 2, 1]
        assert koszul_euler(k) == 0

    def test_annihilator_with_fat_point(self):
        # A = O/(x^2, xy, y^2): both x and y kill the socle
        k = inst(R2, ("x^2", "x y", "y^2"), ("x",))
        assert koszul_homology_dims(k, 1) == [2, 2]
        assert koszul_euler(k) == 0


class TestInvariants:
    def test_construction_checks_complex_property(self):
        # three elements, mixed signs: d compose to zero is verified on build
        inst(R2, (), ("x + y", "x y", "y^2 - x"))

    def test_wrong_ring_rejected(self):
        with pytest.raises(ValueError):
            KoszulInstance(R2, (), (parse_poly("x", R1),))

    def test_permutation_invariance(self):
        seqs = [("x", "y"), ("y", "x")]
        dims = [koszul_homology_dims(inst(R2, ("x^3",), s), 2) for s in seqs]
        assert dims[0] == dims[1]
        seqs3 = [("x", "y", "x + y"), ("y", "x + y", "x"), ("x + y", "x", "y")]
        dims3 = [koszul_homology_dims(inst(R2, ("x^2", "y^2"), s), 3) for s in seqs3]
        assert dims3[0] == dims3[1] == dims3[2]

    def test_out_of_range_degrees_vanish(self):
        k = inst(R2, (), ("x", "y"))
        assert homology_dimension(k, 5) == 0
        assert homology_dimension(k, -1) == 0

    def test_regular_detection_via_euler(self):
        # H_i = 0 for i >= 1 exactly when euler equals the H_0 shortcut
        regular = inst(R2, (), ("3x^2", "2y"))
        dims = koszul_homology_dims(regular, 2)
        assert dims[1:] == [0, 0]
        assert koszul_euler(regular) == dims[0] == 2

        irregular = inst(R2, ("x^2", "y^2"), ("x", "y"))
        dims = koszul_homology_dims(irregular, 2)
        assert any(d > 0 for d in dims[1:])
        assert koszul_euler(irregular) != dims[0]

    def test_quasi_isomorphism_drop_nonzerodivisor(self):
        # x is a nonzerodivisor on O; dropping it and passing to O/(x)
        # leaves every homology dimension unchanged
        full = inst(R2, (), ("x", "y"))
        reduced = inst(R2, ("x",), ("y",))
        assert koszul_homology_dims(full, 2)[:2] == koszul_homology_dims(reduced, 1)
        assert koszul_euler(full) == koszul_euler(reduced)

    def test_infinite_length_reports_index(self):
        k = inst(R2, (), ("x",))
        with pytest.raises(GermforgeError) as ei:
            koszul_homology_dims(k, 1)
        assert "H_0" in str(ei.value)
