#!/usr/bin/env python3
"""Print the Rayleigh-quotient curve of the dyadic extremizing sequence.

For u_j = d^{(p-Q-alpha)/p - 1/j} psi_j(d) the quotient decreases toward
the sharp Hardy constant ((Q+alpha-p)/p)^p like 1 + O(1/j); this script
tabulates the Monte Carlo quotient, its standard error, and the exact
1-D polar-reduction value per j.

Example:
    python scripts/sharpness_curve.py --group heisenberg:1 --k 1 --p 2 --jmax 12
"""

import argparse

from hplap.algebra import OperatorParams, resolve_group
from hplap.verify import SuiteConfig, hardy_ratio, sharp_hardy_constant, sharpness_test_function


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="heisenberg:1")
    ap.add_argument("--k", type=float, default=1.0)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument("--jmax", type=int, default=12)
    ap.add_argument("--samples", type=int, default=SuiteConfig.corpus_samples)
    ap.add_argument("--seed", type=int, default=SuiteConfig.seed)
    args = ap.parse_args()

    alg = resolve_group(args.group)
    params = OperatorParams.of(alg, k=args.k, p=args.p, alpha=args.alpha)
    sharp = sharp_hardy_constant(params)
    print(f"group={args.group} k={args.k} p={args.p} alpha={args.alpha}  sharp constant={sharp:.8g}")
    print(f"{'j':>3} {'ratio(MC)':>12} {'stderr':>10} {'ratio(1-D)':>12} {'excess/sharp':>13}")
    for j in range(1, args.jmax + 1):
        phi = sharpness_test_function(params, j)
        [res] = hardy_ratio(alg, [(params, phi)], args.samples, args.seed, spawn_key=(90, j))
        r1d = res.lhs_1d / res.rhs_1d
        print(f"{j:>3} {res.ratio:>12.6f} {res.stderr:>10.2g} {r1d:>12.6f} {r1d / sharp - 1.0:>13.4%}")


if __name__ == "__main__":
    main()
