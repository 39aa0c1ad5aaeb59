"""Whole-library gate: exact values on the worked examples plus the
cross-cutting property suites, each criterion as one test."""

import time
from fractions import Fraction

from germforge import (
    GLOBAL_DP,
    LOCAL_DS,
    DdkClass,
    Ideal,
    KoszulInstance,
    Poly,
    Ring,
    Submodule,
    XorShift64,
    build_versal_unfolding,
    classify_Ddk,
    conservation_check,
    determinacy_bound,
    empirical_splitting,
    extended_codim,
    hilbert_samuel,
    koszul_homology_dims,
    lie_bracket,
    m_theta,
    make_unfolding,
    morse_number,
    parse_poly,
    power_ideal,
    primitive_ideal,
    tangent_ideal,
    theta_preserving,
    versality_check,
)
from germforge.polyring import format_poly, monomials_of_degree
from germforge.stdbasis import vec_is_zero, vec_poly_mul

from helpers import evalp  # noqa: F401  (kept importable for debugging)

R2 = Ring(("x", "y"))
EJEM = Ideal(R2, [parse_poly("x^2", R2), parse_poly("y", R2)], LOCAL_DS)
CUSP = parse_poly("y^2 + x^3", R2)


def P(s, ring=R2):
    return parse_poly(s, ring)


def test_c01_running_example_exact_values():
    t0 = time.monotonic()
    theta = theta_preserving(EJEM)
    x, y = R2.var(0), R2.var(1)
    zero = R2.zero()
    expected = Submodule(R2, 2, [(x, zero), (y, zero), (zero, x * x),
                                 (zero, y)], theta.module.order)
    assert theta.module.equals(expected)

    tau = tangent_ideal(CUSP, theta)
    assert tau.equals(Ideal(R2, [P("x^3"), P("x^2 y"), P("y^2")], LOCAL_DS))

    assert extended_codim(CUSP, EJEM).value == 3
    unit = Ideal(R2, [R2.one()], LOCAL_DS)
    assert extended_codim(CUSP, unit).value == 2
    assert time.monotonic() - t0 < 1.0


def test_c02_deforming_strictly_drops_the_codimension():
    rep = empirical_splitting(CUSP, EJEM)
    assert rep.seeds == (11, 13)
    assert rep.stable
    assert rep.corrected == 2 < extended_codim(CUSP, EJEM).value
    assert rep.morse == 2
    assert rep.sigma == {1: 2}


def test_c03_fields_preserving_power_ideals():
    for n in (2, 3):
        ring = Ring(tuple(f"x{i + 1}" for i in range(n)))
        want = m_theta(ring, LOCAL_DS, n)
        for k in (1, 2, 3):
            theta = theta_preserving(power_ideal(ring, k))
            assert theta.module.equals(want), (n, k)


def test_c04_smooth_locus_normal_forms_have_codimension_zero():
    for k in (1, 2):
        names = tuple(f"x{i + 1}" for i in range(k)) + tuple(
            f"y{i + 1}" for i in range(k))
        ring = Ring(names)
        f = sum((ring.var(i) * ring.var(k + i) for i in range(k)), ring.zero())
        I = Ideal(ring, [ring.var(k + i) for i in range(k)], LOCAL_DS)
        assert extended_codim(f, I).value == 0, k

    R3Y = Ring(("x", "y1", "y2"))
    J = Ideal(R3Y, [parse_poly("y1", R3Y), parse_poly("y2", R3Y)], LOCAL_DS)
    assert classify_Ddk(parse_poly("y1^2 + y2^2", R3Y), J) == DdkClass(1, 0, "IS_Ddk")
    assert classify_Ddk(parse_poly("x y1^2 + y2^2", R3Y), J) == DdkClass(1, 1, "IS_Ddk")


def test_c05_primitive_ideals_of_smooth_ideals():
    mm = Ideal(R2, [P("x"), P("y")], LOCAL_DS)
    prim = primitive_ideal(mm, 6)
    assert {format_poly(g) for g in prim.ideal.gens} == {"x^2", "x*y", "y^2"}
    assert prim.ideal.equals(
        Ideal(R2, [P("x^2"), P("x y"), P("y^2")], LOCAL_DS))

    lx = Ideal(R2, [P("x")], LOCAL_DS)
    prim_x = primitive_ideal(lx, 6)
    assert {format_poly(g) for g in prim_x.ideal.gens} == {"x^2"}


def test_c06_low_determinacy_and_stability_under_deep_perturbation():
    bound = determinacy_bound(CUSP, EJEM)
    assert bound == 2 <= extended_codim(CUSP, EJEM).value
    deep = monomials_of_degree(2, 6)
    for trial in range(10):
        rng = XorShift64(101 + trial)
        bump = R2.zero()
        for j, mono in enumerate(deep):
            g = EJEM.gens[j % len(EJEM.gens)]
            bump = bump + Poly(R2, {mono: rng.rational()}) * g
        assert not bump.is_zero() and bump.truncate(5).is_zero()
        assert extended_codim(CUSP + bump, EJEM).value == 3, trial


def test_c07_constructed_unfolding_is_versal_and_minimal():
    U = build_versal_unfolding(CUSP, EJEM)
    assert len(U.params) == 3
    assert versality_check(U, EJEM)

    c = extended_codim(CUSP, EJEM)
    basis = [EJEM.gens[pos].term_mul(m, Fraction(1)) for pos, m in c.witness]
    n = R2.n
    for drop in range(len(basis)):
        kept = [h for i, h in enumerate(basis) if i != drop]
        params = [f"s{i + 1}" for i in range(len(kept))]
        ext = R2.extend(params)
        F = CUSP.rename(ext, list(range(n)))
        for i, h in enumerate(kept):
            F = F + ext.var(n + i) * h.rename(ext, list(range(n)))
        assert not versality_check(make_unfolding(CUSP, params, F), EJEM), drop


def test_c08_counts_are_conserved_and_methods_agree():
    assert conservation_check(CUSP, EJEM, trials=3, assume_reduced=True)
    common = morse_number(CUSP, EJEM, "JET", assume_reduced=True)
    assert common == morse_number(CUSP, EJEM, "ORACLE") == 2

    unit2 = Ideal(R2, [R2.one()], LOCAL_DS)
    q = P("x^2 + y^2")
    assert morse_number(q, unit2, "JET") == morse_number(q, unit2, "ORACLE") == 1
    R1 = Ring(("x",))
    unit1 = Ideal(R1, [R1.one()], LOCAL_DS)
    f1 = parse_poly("x^3", R1)
    assert morse_number(f1, unit1, "JET") == morse_number(f1, unit1, "ORACLE") == 2


def test_c09_shear_change_of_coordinates_changes_nothing():
    x, y = R2.var(0), R2.var(1)
    images = [x, y + x * x]
    f2 = CUSP.substitute(images)
    I2 = Ideal(R2, [g.substitute(images) for g in EJEM.gens], LOCAL_DS)
    assert I2.equals(EJEM)
    assert extended_codim(f2, I2).value == extended_codim(CUSP, EJEM).value
    before = empirical_splitting(CUSP, EJEM)
    after = empirical_splitting(f2, I2)
    assert after.morse == before.morse
    assert after.corrected == before.corrected
    assert after.sigma == before.sigma


def test_c10_codimension_of_the_fattened_square_is_bounded():
    t0 = time.monotonic()
    R3 = Ring(("x1", "x2", "x3"))
    g = parse_poly("x1^2 + x2^3", R3)
    gg = g * g
    I = Ideal(R3, [gg], LOCAL_DS)
    f = (R3.one() + R3.var(2) * R3.var(2)) * gg
    c = extended_codim(f, I)
    assert c.is_finite and c.value <= 2
    assert time.monotonic() - t0 < 60.0


def test_c11_property_suites():
    # bracket closure: preserving fields form a Lie algebra
    for I in (EJEM, Ideal(R2, [P("x^2 - y^3")], LOCAL_DS),
              Ideal(R2, [P("x y"), P("y^2")], LOCAL_DS)):
        theta = theta_preserving(I)
        for X in theta.gens:
            for Y in theta.gens:
                assert theta.contains(lie_bracket(X, Y))

    # normal-form membership agrees with a plain linear-algebra oracle on
    # 200 seeded random instances (100 polynomial-ring, 100 local m-primary)
    from test_stdbasis import TestNormalFormVsOracle
    nf = TestNormalFormVsOracle()
    nf.test_global_100_instances()
    nf.test_local_100_instances_m_primary()

    # Koszul: squared differential vanishes on every basis element, and a
    # regular sequence has homology only in degree zero
    inst = KoszulInstance(R2, (), (P("x"), P("y")))
    from germforge.koszul import _differential
    for p in range(2, inst.length + 1):
        lower = _differential(inst, p - 1)
        for col in _differential(inst, p):
            acc = [R2.zero()] * len(lower[0])
            for i, entry in enumerate(col):
                hit = vec_poly_mul(lower[i], entry)
                acc = [a + b for a, b in zip(acc, hit)]
            assert vec_is_zero(tuple(acc))
    assert koszul_homology_dims(inst, 2) == [1, 0, 0]
    R3 = Ring(("x", "y", "z"))
    reg3 = KoszulInstance(
        R3, (), tuple(parse_poly(s, R3) for s in ("x", "y", "z^2")))
    assert koszul_homology_dims(reg3, 3) == [2, 0, 0, 0]

    # Hilbert-Samuel values never decrease with the power
    for I in (EJEM, Ideal(R2, [P("x^3"), P("x y")], LOCAL_DS),
              power_ideal(R2, 2)):
        vals = [hilbert_samuel(I, m) for m in range(6)]
        assert vals == sorted(vals)
