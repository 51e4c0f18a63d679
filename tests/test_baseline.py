import time
import tracemalloc

import numpy as np
import pytest

from adtypes import baseline
from adtypes.baseline import (
    MAX_SWEEP_PROBES,
    AllocationCurve,
    candidate_bids,
    greedy_allocation_curve,
    received_discount,
    solve_bruteforce,
    solve_generic_hungarian,
    solve_greedy,
    sweep_bids,
)
from adtypes.bench import GenConfig, gen_exact_random, gen_greedy_tight, gen_random
from adtypes.core import (
    AdRef,
    GuardError,
    Instance,
    Matching,
    TypeSpec,
    edge_value,
    welfare,
    with_bid,
)
from adtypes.hungarian import certify, solve_adtypes


def test_generic_example1(example1):
    sol = solve_generic_hungarian(example1)
    assert sol.welfare == 9.0
    assert certify(example1, sol).passed


def test_generic_one_by_one():
    inst = Instance(1, [TypeSpec("t", [7.0], [1.0])])
    assert solve_generic_hungarian(inst).welfare == 7.0


def test_generic_agrees_with_specialized():
    for seed in range(250):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 21))
        k = int(rng.integers(1, 6))
        dist = ("uniform-int", "uniform-real", "pareto")[seed % 3]
        fam = ("geometric", "linear", "step")[seed % 3]
        inst = gen_random(GenConfig(n, k, seed, dist, fam))
        a = solve_adtypes(inst).welfare
        g = solve_generic_hungarian(inst).welfare
        assert abs(a - g) <= 1e-9 * max(1.0, abs(a)), f"seed {seed}"


def test_bruteforce_example1(example1):
    assert welfare(example1, solve_bruteforce(example1)) == 9.0


def test_bruteforce_trivial_and_guard():
    lone = Instance(1, [TypeSpec("t", [0.0], [1.0])])
    assert welfare(lone, solve_bruteforce(lone)) == 0.0
    big = Instance(9, [TypeSpec("t", [1.0] * 9, [1.0] * 9)])
    with pytest.raises(GuardError):
        solve_bruteforce(big)


def test_greedy_tight_instance():
    inst = gen_greedy_tight(0.25)
    greedy_w = welfare(inst, solve_greedy(inst))
    optimal = solve_adtypes(inst).welfare
    assert greedy_w == 1.0
    assert optimal == 1.75


def test_greedy_single_type_is_optimal():
    for seed in range(40):
        inst = gen_exact_random(seed, max_n=8, max_k=1)
        assert welfare(inst, solve_greedy(inst)) == solve_adtypes(inst).welfare


def test_greedy_two_approximation():
    for seed in range(200):
        inst = gen_exact_random(seed)
        g = welfare(inst, solve_greedy(inst))
        opt = welfare(inst, solve_bruteforce(inst))
        assert g >= opt / 2, f"seed {seed}: greedy {g} < half of {opt}"


def test_greedy_ties_go_to_the_lower_type():
    # 4 x 1 == 8 x 1/2: slot 0's two edges are equal whichever type is
    # listed first, and the first listed takes it
    a = TypeSpec("a", [4.0], [1.0, 1.0])
    b = TypeSpec("b", [8.0], [0.5, 0.5])
    for types in ([a, b], [b, a]):
        assert solve_greedy(Instance(2, types)).as_dict() == {
            0: AdRef(0, 0), 1: AdRef(1, 0)}


def _edge_greedy(inst):
    """Greedy over every edge: take the largest edge between a free slot
    and an unused ad, ties to the lower slot, type, then rank."""
    n, k = inst.num_slots, inst.num_types
    edges = sorted((-edge_value(inst, AdRef(t, r), s), s, t, r)
                   for s in range(n) for t in range(k) for r in range(n))
    assignment, used = {}, set()
    for _, s, t, r in edges:
        if s not in assignment and (t, r) not in used:
            assignment[s] = AdRef(t, r)
            used.add((t, r))
    return Matching(assignment)


def test_greedy_fills_every_slot_of_padded_instances(tie_heavy):
    # fewer real ads than slots, zero values and zero discounts: the padding
    # ads keep every type's frontier alive to the last slot
    short = Instance(3, [TypeSpec("a", [2.0], [1.0, 0.0, 0.0]),
                         TypeSpec("b", [1.0], [0.5, 0.5, 0.5])])
    assert solve_greedy(short).as_dict() == {
        0: AdRef(0, 0), 1: AdRef(1, 0), 2: AdRef(0, 1)}
    for inst in ([tie_heavy(seed) for seed in range(200)]
                 + [gen_exact_random(seed) for seed in range(100)]):
        m = solve_greedy(inst)
        assert len(m) == inst.num_slots
        assert m == _edge_greedy(inst)


def test_allocation_curve_sole_bidder():
    inst = Instance(1, [TypeSpec("t", [5.0], [1.0])])
    curve = greedy_allocation_curve(inst, AdRef(0, 0))
    assert curve.points == ((0.0, 1.0),)
    assert curve.quantity_at(0.0) == 0.0
    assert curve.quantity_at(3.0) == 1.0


def test_allocation_curve_tight_instance_probe():
    inst = gen_greedy_tight(0.25)
    probe = AdRef(1, 0)  # the flat type's real bidder
    curve = greedy_allocation_curve(inst, probe)
    assert curve.is_monotone()
    # it always wins a full-discount slot once its bid is positive
    assert curve.quantity_at(0.5) == 1.0
    assert curve.quantity_at(2.0) == 1.0


def test_allocation_curve_monotone_on_random_probes(monkeypatch):
    # the curve sweeps exactly the candidate bids: its window's top is the
    # largest candidate
    windows, bid_sweep = [], baseline.bid_sweep

    def recorded(inst, ad, allocator, cuts, top):
        windows.append(cuts)
        return bid_sweep(inst, ad, allocator, cuts, top)

    monkeypatch.setattr(baseline, "bid_sweep", recorded)
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 300:
        inst = gen_exact_random(int(rng.integers(0, 1 << 31)),
                                max_n=4, max_k=2)
        for t in range(inst.num_types):
            for r in range(inst.real_counts[t]):
                curve = greedy_allocation_curve(inst, AdRef(t, r))
                assert curve.is_monotone(), (inst, t, r)
                assert windows.pop() == candidate_bids(inst, AdRef(t, r))
                checked += 1


def test_allocation_curve_over_the_guard_refused():
    # 5584 candidate bids: refused, not swept over a subsample
    inst = gen_random(GenConfig(12, 4, 3, "uniform-real", "geometric"))
    with pytest.raises(GuardError, match="5584 probes"):
        greedy_allocation_curve(inst, AdRef(3, 0))


def test_allocation_curve_refuses_a_long_sweep_before_building_it():
    # a low-value probe among three rival types at n=90: 1.33M candidate
    # bids, of which the largest own discount alone puts over 4096 inside
    # the curve's window, so the refusal builds none of the O(kn^3) set
    n = 90
    disc = [1 - j / (n + 1) for j in range(n)]
    rivals = [TypeSpec(f"r{t}", [100 - 50 * i / n - t for i in range(n)], disc)
              for t in range(3)]
    inst = Instance(n, rivals + [TypeSpec("p", [1e-3], disc)])
    start = time.perf_counter()
    with pytest.raises(GuardError, match="at least"):
        greedy_allocation_curve(inst, AdRef(3, 0))
    assert time.perf_counter() - start < 0.1
    tracemalloc.start()
    try:
        with pytest.raises(GuardError):
            greedy_allocation_curve(inst, AdRef(3, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


@pytest.mark.parametrize("inside", [MAX_SWEEP_PROBES - 2, MAX_SWEEP_PROBES - 1])
def test_window_check_refuses_exactly_what_the_sweep_guard_does(inside):
    # the probed type has one positive discount, so that discount's
    # candidates are all of them: the check before the candidate set is
    # built meets the guard exactly, returning 4096 cuts and refusing 4097
    rival = TypeSpec("r", [float(100 - i) for i in range(70)],
                     [1 / (1 + j / 997) for j in range(70)])
    edges = sorted({v * d for v in rival.values for d in rival.discounts})
    value = (edges[inside - 1] + edges[inside]) / 2
    inst = Instance(70, [TypeSpec("p", [value], [1.0] + [0.0] * 69), rival])
    ad = AdRef(0, 0)
    cuts = [0.0] + [c for c in candidate_bids(inst, ad) if 0 < c < value] \
        + [value]
    assert len(cuts) == inside + 2
    if len(cuts) > MAX_SWEEP_PROBES:
        with pytest.raises(GuardError, match=f"at least {len(cuts)} probes"):
            sweep_bids(inst, ad, 0.0, value)
    else:
        assert sweep_bids(inst, ad, 0.0, value) == cuts


def test_candidate_bids_include_own_value_and_zero():
    inst = gen_greedy_tight(0.5)
    bids = candidate_bids(inst, AdRef(0, 0))
    assert 0.0 in bids
    assert 1.0 in bids
    assert bids == sorted(bids)


def test_curve_constructor_rejects_unsorted_thresholds():
    with pytest.raises(ValueError):
        AllocationCurve(((1.0, 0.5), (1.0, 0.75)))


def test_greedy_quantity_matches_curve():
    inst = gen_greedy_tight(0.25)
    probe = AdRef(0, 0)
    curve = greedy_allocation_curve(inst, probe)
    for bid in (0.1, 0.4, 0.9, 1.3, 2.4):
        probe_inst, ref, _ = with_bid(inst, probe, bid)
        assert curve.quantity_at(bid) == received_discount(
            probe_inst, solve_greedy(probe_inst), ref)
