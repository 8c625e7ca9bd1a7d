#!/usr/bin/env python3
"""Exact-arithmetic check that path restriction preserves polynomial degree.

Restricting a multivariate polynomial to the segment between two random
rational points almost surely keeps its total degree, so the degree ranking
of two polynomials survives the restriction.  A shared-coordinate endpoint
sampler builds the measure-zero failure case on purpose.
"""

import argparse

from effdeg import sampling
from effdeg.polylab import (
    dyadic_uniform_pair_sampler,
    format_poly,
    parse_poly,
    random_multipoly,
    shared_coordinate_pair_sampler,
    verify_order_preservation,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=3, help="number of variables")
    ap.add_argument("--deg-high", type=int, default=5)
    ap.add_argument("--deg-low", type=int, default=2)
    ap.add_argument("--pairs", type=int, default=500, help="endpoint pairs per experiment")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = sampling.rng(args.seed)
    high = random_multipoly(args.dim, args.deg_high, rng, n_terms=6)
    low = random_multipoly(args.dim, args.deg_low, rng, n_terms=4)
    print("P1 =", format_poly(high))
    print("P2 =", format_poly(low))
    print()

    record = verify_order_preservation(
        high, low, args.pairs, dyadic_uniform_pair_sampler(args.dim), seed=args.seed
    )
    print(f"random dyadic endpoints, {args.pairs} pairs:")
    for key, value in record.summary().items():
        print(f"  {key}: {value}")
    print()

    # x1^2 has leading part x1^2; endpoints sharing their first coordinate
    # give a direction with first coordinate zero, killing the leading term
    forced = parse_poly("x1^2 + x2", dim=2)
    print("forced drops for", format_poly(forced), "on shared-first-coordinate pairs:")
    record = verify_order_preservation(
        forced,
        parse_poly("x2", dim=2),
        args.pairs,
        shared_coordinate_pair_sampler(2),
        seed=args.seed,
    )
    drops = record.drop_counts[0]
    print(f"  {drops}/{args.pairs} restrictions lost degree "
          f"(mean restricted degree {record.mean_degrees[0]:.2f} vs true {record.true_degrees[0]})")


if __name__ == "__main__":
    main()
