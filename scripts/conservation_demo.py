"""Show the conservation property on three germs: the multiplicity of the
Morse component at the origin equals the total count it splits into under
random deformations, trial by trial.

Usage: python scripts/conservation_demo.py [--trials 3]
"""

import argparse
import sys

from germforge import (
    GLOBAL_DP,
    LOCAL_DS,
    Ideal,
    Ring,
    conservation_check,
    intersection_multiplicity,
    jet_context,
    jet_pullback,
    lift_germ,
    morse_component,
    parse_poly,
    random_deformation,
    saturation,
)
from germforge.oracle import TRIAL_SEEDS
from germforge.polyring import format_poly

R2 = Ring(("x", "y"))
R1 = Ring(("x",))

CASES = [
    ("cusp relative to (x^2, y)",
     parse_poly("y^2 + x^3", R2),
     Ideal(R2, [parse_poly("x^2", R2), parse_poly("y", R2)], LOCAL_DS),
     True),
    ("A1 (unit ideal)",
     parse_poly("x^2 + y^2", R2),
     Ideal(R2, [R2.one()], LOCAL_DS),
     False),
    ("A2 (unit ideal, one variable)",
     parse_poly("x^3", R1),
     Ideal(R1, [R1.one()], LOCAL_DS),
     False),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=3)
    args = ap.parse_args(argv)

    failures = 0
    for label, f, I, reduced in CASES:
        print(f"{label}: f = {format_poly(f)}")
        ctx = jet_context(I, 1)
        M = morse_component(ctx, assume_reduced=reduced).ideal
        reference = intersection_multiplicity(ctx, M, lift_germ(f, I))
        print(f"  multiplicity at the origin: {reference}")
        I_dp = I.with_order(GLOBAL_DP)
        for t in range(args.trials):
            seed = TRIAL_SEEDS[t % len(TRIAL_SEEDS)]
            g = random_deformation(f, I, seed=seed)
            pulled = jet_pullback(ctx, M, lift_germ(g, I)).with_order(GLOBAL_DP)
            total = saturation(pulled, I_dp).quotient_dimension()
            mark = "ok" if total.value == reference else "MISMATCH"
            print(f"  trial seed {seed:>2}: split total = {total}  [{mark}]")
        agreed = conservation_check(f, I, trials=args.trials,
                                    assume_reduced=reduced)
        print(f"  conservation_check: {agreed}\n")
        failures += 0 if agreed else 1
    return failures


if __name__ == "__main__":
    sys.exit(main())
