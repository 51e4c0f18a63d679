"""Independent reference solvers: a generic Hungarian oracle with duals, an
exhaustive enumerator, and the greedy 2-approximation.  These deliberately
share no phase machinery with the specialized solver so they can cross-check
it.
"""
from __future__ import annotations

from .core import (
    AdRef,
    GuardError,
    Instance,
    Matching,
    ValidationError,
    has_gap_rules,
    welfare,
)
from .hungarian import DualSolution, OptimalSolution


def solve_generic_hungarian(inst: Instance) -> OptimalSolution:
    """Textbook Hungarian on the flattened bipartite graph, no type shortcuts.

    One phase per slot, rooted worst slot first (lowest discount first);
    whenever a slot joins the alternating tree, every ad's pending slack is
    rescanned (dual shifts are implicit: each ad keys the accumulated shift
    at which its best tree edge goes tight).  Returns an optimal matching
    with certifying duals and no stats record.
    """
    if has_gap_rules(inst):
        raise ValidationError("instance has gap rules: use the gap dynamic program")
    n, k = inst.num_slots, inst.num_types
    num_ads = k * n
    values = [[v * d for d in spec.discounts]
              for spec in inst.types for v in spec.values]
    u = [0.0] * num_ads
    p = [max(max(row) for row in values)] * n
    ad_of_slot = [-1] * n
    slot_of_ad = [-1] * num_ads
    inf = float("inf")

    for root in range(n - 1, -1, -1):
        in_tree = [False] * num_ads
        parent = [-1] * num_ads
        p_root = p[root]
        key = [u[a] + p_root - values[a][root] for a in range(num_ads)]
        src = [root] * num_ads
        ad_entry: dict[int, float] = {}
        slot_entry: dict[int, float] = {root: 0.0}
        shift = 0.0
        while True:
            best, a = inf, -1
            for i in range(num_ads):
                if not in_tree[i] and key[i] < best:
                    best, a = key[i], i
            shift = best
            parent[a] = src[a]
            s = slot_of_ad[a]
            if s < 0:
                break
            in_tree[a] = True
            ad_entry[a] = shift
            slot_entry[s] = shift
            pot = p[s] + shift
            for i in range(num_ads):
                if not in_tree[i]:
                    cand = u[i] + pot - values[i][s]
                    if cand < key[i]:
                        key[i] = cand
                        src[i] = s
        for i, entered in ad_entry.items():
            u[i] += shift - entered
        for s, entered in slot_entry.items():
            p[s] -= shift - entered
        while True:
            s = parent[a]
            prev = ad_of_slot[s]
            ad_of_slot[s] = a
            slot_of_ad[a] = s
            if s == root:
                break
            a = prev

    matching = Matching({s: AdRef(a // n, a % n)
                         for s, a in enumerate(ad_of_slot) if a >= 0})
    u_grid = tuple(tuple(u[t * n:(t + 1) * n]) for t in range(k))
    duals = DualSolution(u_grid, tuple(p))
    return OptimalSolution(matching, duals, welfare(inst, matching))


def solve_bruteforce(inst: Instance) -> Matching:
    """Exhaustive ground truth for gap-free instances.

    Walks every slot-by-slot assignment profile (each slot takes some type's
    next unused ad, or stays empty), memoized on (slot, per-type used
    counts).  Within a type the ads are used in rank order: swapping two
    same-type ads never helps, so nothing is lost.  Guarded to n <= 8,
    k <= 4.  Ties prefer lower type index, then assigning over skipping.
    """
    if has_gap_rules(inst):
        raise ValidationError("instance has gap rules: use the gap dynamic program")
    n, k = inst.num_slots, inst.num_types
    if n > 8 or k > 4:
        raise GuardError(f"brute force refuses n={n}, k={k} (guard: n<=8, k<=4)")
    vals = [spec.values for spec in inst.types]
    disc = [spec.discounts for spec in inst.types]
    caps = inst.real_counts
    memo: dict[tuple[int, tuple[int, ...]], tuple[float, int]] = {}

    def best(slot: int, counts: tuple[int, ...]) -> float:
        if slot == n:
            return 0.0
        key = (slot, counts)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        best_v, choice = None, -1
        for t in range(k):
            c = counts[t]
            if c < caps[t]:
                nxt = counts[:t] + (c + 1,) + counts[t + 1:]
                v = vals[t][c] * disc[t][slot] + best(slot + 1, nxt)
                if best_v is None or v > best_v:
                    best_v, choice = v, t
        v = best(slot + 1, counts)
        if best_v is None or v > best_v:
            best_v, choice = v, -1
        memo[key] = (best_v, choice)
        return best_v

    best(0, (0,) * k)
    assignment: dict[int, AdRef] = {}
    counts = (0,) * k
    for slot in range(n):
        _, choice = memo[(slot, counts)]
        if choice >= 0:
            assignment[slot] = AdRef(choice, counts[choice])
            counts = counts[:choice] + (counts[choice] + 1,) + counts[choice + 1:]
    return Matching(assignment)


def solve_greedy(inst: Instance) -> Matching:
    """Repeatedly take the highest-value compatible edge, ties to the lower
    type.  With sorted values and discounts this fills slots in descending
    discount order using one frontier per type, O(kn) inspections; every
    type holds ``n`` ads after padding, so each frontier lasts all n slots.
    """
    if has_gap_rules(inst):
        raise ValidationError("instance has gap rules: greedy handles none")
    vals = [spec.values for spec in inst.types]
    disc = [spec.discounts for spec in inst.types]
    next_rank = [0] * inst.num_types
    assignment: dict[int, AdRef] = {}
    for slot in range(inst.num_slots):
        t = min(range(inst.num_types),
                key=lambda t: (-vals[t][next_rank[t]] * disc[t][slot], t))
        assignment[slot] = AdRef(t, next_rank[t])
        next_rank[t] += 1
    return Matching(assignment)
