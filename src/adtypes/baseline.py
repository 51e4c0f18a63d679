"""Independent reference solvers: a generic Hungarian oracle with duals, an
exhaustive enumerator, and the greedy 2-approximation with its bid-sweep
allocation curve.  These deliberately share no phase machinery with the
specialized solver so they can cross-check it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AdRef,
    GuardError,
    Instance,
    Matching,
    ValidationError,
    has_gap_rules,
    welfare,
    with_bid,
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
        raise ValidationError("instance has gap rules: use the gap brute force")
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


# ---------------------------------------------------------------------------
# Allocation curve of the greedy mechanism under a swept bid.

@dataclass(frozen=True)
class AllocationCurve:
    """Piecewise-constant quantity (the received discount) as a function of
    the probed ad's own bid: ``points[i] = (threshold, quantity)`` means the
    quantity holds for bids above the threshold, up to the next one.
    Quantity is 0 below the first threshold."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ts = [t for t, _ in self.points]
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("thresholds must be strictly increasing")

    def quantity_at(self, bid: float) -> float:
        q = 0.0
        for t, qt in self.points:
            if bid > t:
                q = qt
            else:
                break
        return q

    def is_monotone(self) -> bool:
        qs = [q for _, q in self.points]
        return all(qs[i] <= qs[i + 1] for i in range(len(qs) - 1)) and \
            all(q >= 0 for q in qs)


#: The most probes one bid sweep may make; a longer one is refused.
MAX_SWEEP_PROBES = 4096


def _rival_edges(inst: Instance, ad: AdRef):
    """Every other ad's edge values, repeats included, as a generator."""
    return (v * d for t, spec in enumerate(inst.types)
            for r, v in enumerate(spec.values)
            if (t, r) != (ad.ad_type, ad.rank) for d in spec.discounts)


def candidate_bids(inst: Instance, ad: AdRef) -> list[float]:
    """Bids where the greedy comparator order can flip for the probed ad:
    every rival edge value divided by each positive probed discount, plus 0
    and the ad's own value, sorted."""
    own_discounts = [d for d in inst.types[ad.ad_type].discounts if d > 0]
    return sorted({0.0, inst.value_of(ad)}
                  | {e / d for e in set(_rival_edges(inst, ad))
                     for d in own_discounts})


def sweep_bids(inst: Instance, ad: AdRef, lo: float, hi: float) -> list[float]:
    """The cuts of a bid sweep over the window ``lo`` to ``hi``: both ends
    and every :func:`candidate_bids` entry strictly between them, sorted.
    A window of more than :data:`MAX_SWEEP_PROBES` cuts is refused, first
    from the candidates the largest own discount alone puts inside it,
    O(kn^2) of them and a lower bound on the probes, before the full
    candidate set, O(kn^3) floats, is built."""
    d = inst.types[ad.ad_type].discounts[0]
    if d > 0:
        least = len({lo, hi} | {e / d for e in _rival_edges(inst, ad)
                                if lo < e / d < hi})
        if least > MAX_SWEEP_PROBES:
            raise GuardError(f"bid sweep of a type-{ad.ad_type} ad needs at "
                             f"least {least} probes (guard: at most "
                             f"{MAX_SWEEP_PROBES})")
    cuts = sorted({lo, hi} | {c for c in candidate_bids(inst, ad)
                              if lo < c < hi})
    if len(cuts) > MAX_SWEEP_PROBES:
        raise GuardError(f"bid sweep of a type-{ad.ad_type} ad needs "
                         f"{len(cuts)} probes (guard: at most "
                         f"{MAX_SWEEP_PROBES})")
    return cuts


def received_discount(inst: Instance, out, ad: AdRef) -> float:
    """The discount ``ad`` gets in ``out`` (matching or solution), or 0."""
    m = out.matching if isinstance(out, OptimalSolution) else out
    slot = m.slot_of(ad)
    return 0.0 if slot is None else inst.types[ad.ad_type].discounts[slot]


def bid_sweep(inst: Instance, ad: AdRef, allocator, cuts: list[float],
              top: float) -> list[tuple[float, float]]:
    """``(bid, quantity)`` of the probed ad under ``allocator`` at the
    midpoint of each pair of consecutive ``cuts`` (from :func:`sweep_bids`),
    then at ``top``."""
    sweep = []
    for bid in [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] + [top]:
        probe, ref, _ = with_bid(inst, ad, bid)
        sweep.append((bid, received_discount(probe, allocator(probe), ref)))
    return sweep


def greedy_allocation_curve(inst: Instance, ad: AdRef) -> AllocationCurve:
    """Greedy's curve for the probed ad: :func:`bid_sweep` over every
    candidate bid (greedy is constant between consecutive candidates, so
    the midpoints determine the curve exactly), then one past the last.
    The largest candidate is the value or the largest rival edge over the
    least positive own discount: division rounds monotonically."""
    if has_gap_rules(inst):
        raise ValidationError("allocation curves are defined without gap rules")
    top = inst.value_of(ad)
    own = [d for d in inst.types[ad.ad_type].discounts if d > 0]
    if own:
        top = max(top, max(_rival_edges(inst, ad), default=0.0) / min(own))
    cands = sweep_bids(inst, ad, 0.0, top)
    sweep = bid_sweep(inst, ad, solve_greedy, cands, cands[-1] + 1.0)
    points: list[tuple[float, float]] = []
    prev_q = 0.0
    for threshold, (_, q) in zip(cands, sweep):
        if q != prev_q:
            points.append((threshold, q))
            prev_q = q
    return AllocationCurve(tuple(points))
