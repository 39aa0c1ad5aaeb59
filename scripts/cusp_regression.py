"""End-to-end walkthrough of the running example f = y^2 + x^3 over
I = (x^2, y): tangent data, codimensions, determinacy, versal unfolding,
splitting behaviour, Morse numbers by both methods.

Usage: python scripts/cusp_regression.py [--seeds 11,13]
"""

import argparse
import sys

from germforge import (
    LOCAL_DS,
    GermProblem,
    Ideal,
    Ring,
    build_versal_unfolding,
    jet_morse_number,
    parse_poly,
    splitting,
    tangent_ideal,
    theta_preserving,
)
from germforge.polyring import format_poly


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="11,13")
    args = ap.parse_args(argv)
    seeds = tuple(int(s) for s in args.seeds.split(","))

    R = Ring(("x", "y"))
    I = Ideal(R, [parse_poly("x^2", R), parse_poly("y", R)], LOCAL_DS)
    f = parse_poly("y^2 + x^3", R)
    print(f"f = {format_poly(f)}")
    print("I = (" + ", ".join(format_poly(g) for g in I.gens) + ")")

    theta = theta_preserving(I)
    print("\npreserving fields:")
    for vec in theta.gens:
        print("  (" + ", ".join(format_poly(c) for c in vec) + ")")

    tau = tangent_ideal(f, theta)
    print("tangent ideal: (" + ", ".join(format_poly(g) for g in tau.gens) + ")")

    problem = GermProblem(f, I)
    print(f"\nextended codimension: {problem.c_ext}")
    print(f"plain codimension:    {problem.c_plain}")
    print(f"determinacy bound:    {problem.determinacy}")
    print("cobasis: " + ", ".join(format_poly(b) for b in problem.cobasis))

    U = build_versal_unfolding(f, I)
    print(f"\nversal unfolding ({len(U.params)} params): F = {format_poly(U.F)}")

    split = splitting(problem, seeds)
    print(f"\nsplitting over seeds {split.seeds}:")
    print(f"  corrected codimension: {split.corrected}")
    print(f"  Morse count:           {split.morse}")
    sig = ", ".join(f"{k} -> {v}" for k, v in sorted(split.sigma.items()))
    print(f"  sigma: {{{sig}}}")
    print(f"  stable: {split.stable}  warnings: {', '.join(split.warnings)}")

    jet = jet_morse_number(problem, assume_reduced=True)[2]
    oracle = split.morse
    print(f"\nMorse number, jet method:    {jet}")
    print(f"Morse number, oracle method: {oracle}")
    print("methods agree" if jet == oracle else "METHODS DISAGREE")
    return 0 if jet == oracle else 1


if __name__ == "__main__":
    sys.exit(main())
