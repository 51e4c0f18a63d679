"""Payments: VCG from the duals, per-bidder reserves, and a truthfulness probe.

Run: python demos/demo_pricing.py
"""
import numpy as np

from adtypes import (
    AdRef,
    Instance,
    TypeSpec,
    price_with_reserves,
    solve_adtypes,
    vcg_prices_fast,
    vcg_prices_naive,
)
from adtypes import pricing


def main():
    inst = Instance(2, [TypeSpec("bidders", [10.0, 6.0], [1.0, 0.5])])
    print("One type, values (10, 6), discounts (1, 1/2)\n")

    sol = solve_adtypes(inst)
    fast = vcg_prices_fast(inst, sol)
    naive = vcg_prices_naive(inst)
    print(f"VCG slot prices via shortest path: {fast}")
    print(f"VCG slot prices via re-solving   : {naive}")
    print("  (the winner of slot 0 displaces 6 from a full slot to a half"
          " slot: 6 - 3 = 3)\n")

    out = price_with_reserves(inst, {AdRef(0, 0): 4.0})
    print(f"Reserve 4 on the top bidder -> payments "
          f"{{(type,rank): pay}} = "
          f"{ {(a.ad_type, a.rank): p for a, p in out.payments.items()} }")
    print("  (reserve changepoint at 4 for a half slot, rival changepoint"
          " at 6 for the rest: 2 + 3 = 5)\n")

    print("Truthfulness probe: the top bidder tries 40 other bids")
    rng = np.random.default_rng(1)
    mech = pricing.vcg_mechanism()
    report = pricing.test_ic_deviation(inst, mech, AdRef(0, 0),
                                       rng.uniform(0, 25, 40))
    print(f"  truthful utility {report.truthful_utility}, "
          f"profitable deviations found: {len(report.profitable)}")


if __name__ == "__main__":
    main()
