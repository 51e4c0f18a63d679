"""Walk through the allocation problem on a small feed-style example.

Two ad types compete for two slots.  Video conversions decay more slowly
down the feed than link clicks, so the naive 'best ad first' order loses
welfare; the solver finds the swap.

Run: python demos/demo_allocation.py
"""
from adtypes import (
    Instance,
    TypeSpec,
    certify,
    solve_adtypes,
    solve_bruteforce,
    solve_generic_hungarian,
    solve_greedy,
    welfare,
)


def main():
    video = TypeSpec("video", values=[12.0], discounts=[1 / 2, 1 / 3])
    link = TypeSpec("link", values=[10.0], discounts=[1 / 2, 1 / 4])
    inst = Instance(2, [video, link])

    print("Instance: 2 slots")
    for spec in inst.types:
        print(f"  {spec.name:>5}: values {spec.values}, discounts {spec.discounts}")

    print("\nSpecialized solver, phase by phase:")
    sol = solve_adtypes(inst)
    for line in sol.stats.trace_lines():
        print("  " + line)
    names = {t: spec.name for t, spec in enumerate(inst.types)}
    for slot, ad in sol.matching.pairs:
        print(f"  slot {slot} <- {names[ad.ad_type]} "
              f"(value {inst.value_of(ad)})")
    print(f"  welfare = {sol.welfare}")

    report = certify(inst, sol)
    print(f"\nDual certificate: passed={report.passed} "
          f"(worst violation {report.worst_violation:g})")
    print(f"  utilities u = {sol.duals.u}")
    print(f"  prices    p = {sol.duals.p}")

    print("\nCross-checks:")
    print(f"  generic Hungarian : {solve_generic_hungarian(inst).welfare}")
    print(f"  exhaustive        : {welfare(inst, solve_bruteforce(inst))}")
    greedy = solve_greedy(inst)
    print(f"  greedy            : {welfare(inst, greedy)}  "
          "(takes the video ad first and pays for it)")


if __name__ == "__main__":
    main()
