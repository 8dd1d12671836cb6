#!/usr/bin/env python3
"""Print the Rayleigh-quotient curve of the dyadic extremizing sequence.

For u_j = d^{(p-Q-alpha)/p - 1/j} psi_j(d) the quotient decreases toward
the sharp Hardy constant ((Q+alpha-p)/p)^p like 1 + O(1/j); this script
tabulates, per j, the quotient of the 1-D polar reduction, its quadrature
error term, the numerator int d^alpha |grad_X u_j|^p (which grows
linearly in j) and the excess over the sharp constant.  u_j is radial, so
nothing is sampled and the table has no seed.

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
    args = ap.parse_args()

    alg = resolve_group(args.group)
    params = OperatorParams.of(alg, k=args.k, p=args.p, alpha=args.alpha)
    sharp = sharp_hardy_constant(params)
    print(f"group={args.group} k={args.k} p={args.p} alpha={args.alpha}  sharp constant={sharp:.8g}")
    print(f"{'j':>3} {'ratio':>12} {'stderr':>10} {'numerator':>12} {'excess/sharp':>13}")
    for j in range(1, args.jmax + 1):
        phi = sharpness_test_function(params, j)
        # a radial case draws nothing: the budget and seed are not used
        [res] = hardy_ratio(alg, [(params, phi)], SuiteConfig.corpus_samples, SuiteConfig.seed)
        print(f"{j:>3} {res.ratio:>12.6f} {res.stderr:>10.2g} {res.lhs_1d:>12.6g} {res.ratio / sharp - 1.0:>13.4%}")


if __name__ == "__main__":
    main()
