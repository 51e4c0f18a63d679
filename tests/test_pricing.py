import ast
import inspect
import tracemalloc

import numpy as np
import pytest

from adtypes import pricing
from adtypes.baseline import solve_generic_hungarian, solve_greedy
from adtypes.bench import (
    GenConfig,
    gen_exact_random,
    gen_random,
    gen_scaling_instance,
)
from adtypes.core import (
    AdRef,
    Instance,
    Matching,
    TypeSpec,
    ValidationError,
    real_pairs,
    tol_for,
    with_bid,
)
from adtypes.hungarian import DualSolution, OptimalSolution, solve_adtypes
from adtypes.pricing import (
    NonMonotoneAllocationError,
    PricedOutcome,
    ReserveVector,
    filter_by_reserves,
    myerson_changepoint_prices,
    price_with_reserves,
    reserve_mechanism,
    vcg_mechanism,
    vcg_outcome,
    vcg_prices_fast,
    vcg_prices_naive,
)


def test_vcg_two_bidders(two_bidders):
    sol = solve_adtypes(two_bidders)
    assert vcg_prices_fast(two_bidders, sol) == (3.0, 0.0)
    assert vcg_prices_naive(two_bidders) == (3.0, 0.0)


def test_vcg_single_bidder_pays_nothing():
    inst = Instance(1, [TypeSpec("t", [10.0], [1.0])])
    sol = solve_adtypes(inst)
    assert vcg_prices_fast(inst, sol) == (0.0,)


def test_vcg_example1(example1):
    sol = solve_adtypes(example1)
    # slot 0 (the link ad) pays 2: without the link, the video ad moves up
    assert vcg_prices_fast(example1, sol) == (2.0, 0.0)
    assert vcg_prices_naive(example1) == (2.0, 0.0)


def test_vcg_all_zero_values():
    inst = Instance(2, [TypeSpec("t", [0.0, 0.0], [1.0, 0.5])])
    assert vcg_prices_naive(inst) == (0.0, 0.0)
    sol = solve_adtypes(inst)
    assert vcg_prices_fast(inst, sol) == (0.0, 0.0)


def _uncertified(sol):
    u = [list(row) for row in sol.duals.u]
    u[0][0] += 5.0  # break tightness
    return OptimalSolution(sol.matching,
                           DualSolution(tuple(map(tuple, u)), sol.duals.p),
                           sol.welfare)


def test_vcg_rejects_uncertified_solution(two_bidders):
    broken = _uncertified(solve_adtypes(two_bidders))
    with pytest.raises(ValidationError, match="certification"):
        vcg_prices_fast(two_bidders, broken)


def test_reserve_pricing_rejects_an_allocator_without_duals(two_bidders):
    with pytest.raises(ValidationError, match="certifiable solution"):
        price_with_reserves(two_bidders, None, solve_greedy)


def test_reserve_pricing_rejects_uncertified_duals(two_bidders):
    with pytest.raises(ValidationError, match="certification"):
        price_with_reserves(two_bidders, None,
                            lambda inst: _uncertified(solve_adtypes(inst)))


def _short_instance(seed: int) -> Instance:
    """Fewer real ads than slots, so every solver fills some slots with
    zero-value padding; every value and discount family."""
    rng = np.random.default_rng(seed + 9000)
    n, k = int(rng.integers(2, 13)), int(rng.integers(1, 4))
    dist = ("uniform-int", "uniform-real", "pareto")[seed % 3]
    fam = ("geometric", "linear", "step")[seed // 3 % 3]
    full = gen_random(GenConfig(n, k, seed, dist, fam))
    counts = rng.integers(0, (n - 1) // k + 1, k)
    return Instance(n, [TypeSpec(spec.name, spec.values[:c], spec.discounts)
                        for spec, c in zip(full.types, counts)])


def _trimmed(inst, sol):
    """``sol`` less its padding, duals kept: a certified solution that
    leaves some slots empty."""
    return OptimalSolution(real_pairs(inst, sol.matching), sol.duals,
                           sol.welfare)


def test_fast_equals_naive_on_random_instances():
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, 5))
        dist = ("uniform-int", "uniform-real", "pareto")[seed % 3]
        inst = gen_random(GenConfig(n, k, seed, dist, "linear"))
        naive = np.asarray(vcg_prices_naive(inst))
        # minimal prices do not depend on which certified duals they start from
        for solver in (solve_adtypes, solve_generic_hungarian):
            fast = np.asarray(vcg_prices_fast(inst, solver(inst)))
            assert np.abs(fast - naive).max() <= 1e-9, \
                f"seed {seed} {solver.__name__}"
    # an empty slot's price is that of a zero-value ad in it: never below 0
    for seed in range(200):
        inst = _short_instance(seed)
        naive = vcg_prices_naive(inst)
        for solver in (solve_adtypes, solve_generic_hungarian):
            sol = _trimmed(inst, solver(inst))
            assert len(sol.matching) < inst.num_slots
            fast = vcg_prices_fast(inst, sol)
            assert all(price >= 0.0 and abs(price - want) <= tol_for(want)
                       for price, want in zip(fast, naive)), \
                (seed, solver.__name__, fast, naive)


def test_fast_equals_naive_exactly_on_dyadic_instances(tie_heavy):
    # dyadic values and discounts make every slack exact, so the
    # shortest-path pass must reproduce the re-solves bit for bit, ties,
    # equal values and zero values included
    cases = ([gen_exact_random(seed, max_n=8, max_k=4) for seed in range(100)]
             + [tie_heavy(seed) for seed in range(100)])
    for i, inst in enumerate(cases):
        naive = vcg_prices_naive(inst)
        for solver in (solve_adtypes, solve_generic_hungarian):
            assert vcg_prices_fast(inst, solver(inst)) == naive, \
                f"case {i} {solver.__name__}"


def test_pointwise_minimality_literal():
    # at the returned prices, every positive price sits within 1e-6 of a
    # binding feasibility constraint
    from adtypes.core import edge_value

    for seed in range(60):
        inst = gen_exact_random(seed, max_n=8, max_k=4)
        sol = solve_adtypes(inst)
        prices = vcg_prices_fast(inst, sol)
        winners = sol.matching.as_dict()
        u = {}
        for slot, ad in winners.items():
            u[ad] = edge_value(inst, ad, slot) - prices[slot]
        for slot, price in enumerate(prices):
            assert price >= -1e-12
            if price > 0:
                ad = winners[slot]
                slackest = u[ad] + price - edge_value(inst, ad, slot)
                assert slackest <= 1e-6, f"seed {seed} slot {slot}"


@pytest.mark.parametrize("reserve", [float("nan"), float("inf"), -1.0])
def test_reserve_vector_refuses_bad_reserves(reserve):
    with pytest.raises(ValidationError, match="finite and non-negative"):
        ReserveVector({AdRef(0, 0): reserve})


def test_reserve_lone_bidder_above():
    inst = Instance(1, [TypeSpec("t", [10.0], [1.0])])
    out = price_with_reserves(inst, {AdRef(0, 0): 4.0})
    assert out.payments[AdRef(0, 0)] == 4.0
    assert out.matching.as_dict() == {0: AdRef(0, 0)}


def test_reserve_lone_bidder_below_filtered():
    inst = Instance(1, [TypeSpec("t", [3.0], [1.0])])
    out = price_with_reserves(inst, {AdRef(0, 0): 4.0})
    assert out.payments[AdRef(0, 0)] == 0.0
    assert len(out.matching) == 0


def test_zero_reserves_reduce_to_vcg(two_bidders):
    out = price_with_reserves(two_bidders, None)
    assert out.payments[AdRef(0, 0)] == 3.0
    assert out.payments[AdRef(0, 1)] == 0.0
    assert out.min_raw_payment >= -1e-9


def test_zero_reserves_equal_vcg_exactly_on_integer_fixtures():
    for seed in range(80):
        inst = gen_exact_random(seed, max_n=6, max_k=3)
        out = price_with_reserves(inst, None)
        sol = solve_adtypes(inst)
        prices = vcg_prices_naive(inst)
        for slot, ad in sol.matching.pairs:
            if ad.rank < inst.real_counts[ad.ad_type]:
                assert out.payments[ad] == prices[slot], f"seed {seed}"


def test_reserve_pricing_resolves_only_for_winners():
    # the lowered welfares come from the certified duals: the allocator runs
    # once, whatever the number of winners
    for seed in range(30):
        inst = gen_exact_random(seed, max_n=6, max_k=3)
        reserves = {ad: 0.5 * inst.value_of(ad) for ad in inst.real_ads()[::2]}
        calls = []

        def counting(sub):
            calls.append(sub)
            return solve_adtypes(sub)

        out = price_with_reserves(inst, reserves, allocator=counting)
        assert len(calls) == 1, f"seed {seed}"
        assert out == price_with_reserves(inst, reserves)


def _resolved_payments(inst, reserves):
    """Reserve payments by definition: one re-solve per winner with its bid
    lowered to its reserve, charged ``W(b -> r) - (W - x * b)``."""
    rv = ReserveVector(reserves)
    filtered, keep = filter_by_reserves(inst, rv)
    sol = solve_adtypes(filtered)
    payments = dict.fromkeys(inst.real_ads(), 0.0)
    for orig, kept in keep.items():
        slot = sol.matching.slot_of(kept)
        x = 0.0 if slot is None else filtered.types[kept.ad_type].discounts[slot]
        if x == 0.0:
            continue
        lowered = solve_adtypes(with_bid(filtered, kept, rv.get(orig))[0])
        raw = lowered.welfare - (sol.welfare - x * inst.value_of(orig))
        payments[orig] = max(0.0, raw)
    return payments


def _unbounded_lowered_welfare(paths, s_i, r):
    """``paths.lowered_welfare(s_i, r)`` by a local pass that never stops
    early: it settles every slot a chain into ``s_i`` reaches below
    ``repair + D0`` and takes the placed term over all of them, the rule the
    bounded pass replaces.  It leaves ``paths.settled`` alone."""
    repair = paths.vacate[s_i]
    others = paths.welfare - paths.u_at[s_i]
    alpha = paths.d_at[s_i]
    far = max(r * a - q for a, q in zip(alpha, paths._p_d0))
    # the chains into s_i, searched only where they beat repair + D0;
    # s_i settles first, so nothing moves into it: its ad is gone
    room = [repair + d for d in paths.d0]
    room[s_i] = 0.0
    p = paths.p
    placed = max(r * alpha[j] + others - p[j] - d for d, j in
                 pricing._dijkstra(room, (s_i,), paths.movers, paths._move))
    return max(others - repair, others - repair + far, placed)


def test_lowered_welfares_match_the_resolve_oracle(tie_heavy):
    # every value and discount family, then the tie-heavy one; n <= 15 and
    # k <= 4, so padding ads and zero-discount (step) slots occur; then
    # solutions with their padding dropped, so slots are empty; each from
    # both solvers' duals; the bids run from 0 to twice the ad's value,
    # since the split into D0 and a local pass must hold above it too; the
    # pass that stops once no slot can raise the welfare gives the same
    # float as the one that settles every slot it reaches
    checked = 0
    for seed in range(360):
        rng = np.random.default_rng(seed + 7000)
        if seed < 180:
            dist = ("uniform-int", "uniform-real", "pareto")[seed % 3]
            fam = ("geometric", "linear", "step")[seed // 3 % 3]
            inst = gen_random(GenConfig(int(rng.integers(1, 16)),
                                        int(rng.integers(1, 5)), seed, dist,
                                        fam))
        elif seed < 280:
            inst = tie_heavy(seed)
        else:
            inst = _short_instance(seed)
        for solver in (solve_adtypes, solve_generic_hungarian):
            sol = solver(inst) if seed < 280 else _trimmed(inst, solver(inst))
            paths = pricing._SlotPaths(inst, sol)
            for slot, ad in sol.matching.pairs:
                value = inst.value_of(ad)
                for r in (0.0, value, float(rng.uniform(0.0, value)),
                          2.0 * value):
                    got = paths.lowered_welfare(slot, r)
                    assert got.hex() == \
                        _unbounded_lowered_welfare(paths, slot, r).hex(), \
                        (seed, solver.__name__, slot, r)
                    want = solve_adtypes(with_bid(inst, ad, r)[0]).welfare
                    assert abs(got - want) <= tol_for(want), \
                        (seed, solver.__name__, slot, r)
                    checked += 1
    assert checked > 16000


def test_reserve_payments_equal_resolving_bit_for_bit_on_exact_instances():
    # dyadic values, discounts and reserves: every sum is exact, so the
    # duals' route and the re-solves give the same floats
    positive = 0
    for seed in range(300):
        inst = gen_exact_random(seed, max_n=8, max_k=4)
        rng = np.random.default_rng(seed + 8000)
        reserves = {ad: float(rng.integers(0, 65)) / 4
                    for ad in inst.real_ads() if rng.random() < 0.5}
        out = price_with_reserves(inst, reserves)
        assert out.payments == _resolved_payments(inst, reserves), f"seed {seed}"
        positive += sum(pay > 0 for pay in out.payments.values())
    assert positive > 500


def test_reserve_pricing_memory_is_linear_in_the_slots():
    # one dense n x n float array at n=300 takes 720 KB; the passes over
    # the slots must stay below a quarter of it
    inst = gen_scaling_instance(300, 4, 0)
    sol = solve_adtypes(inst)
    tracemalloc.start()
    try:
        paths = pricing._SlotPaths(inst, sol)
        for slot, ad in sol.matching.pairs[::30]:
            paths.lowered_welfare(slot, 0.5 * inst.value_of(ad))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 300 * 8 // 4, peak


def test_bounded_winner_passes_match_the_unbounded_pass_bit_for_bit():
    # on a large instance, where long chains settle many slots, at bids
    # below, at and above each winner's value
    inst = gen_scaling_instance(200, 4, 0)
    sol = solve_adtypes(inst)
    paths = pricing._SlotPaths(inst, sol)
    for mult in (0.0, 0.5, 1.0, 2.0):
        for slot, ad in sol.matching.pairs:
            r = mult * inst.value_of(ad)
            assert paths.lowered_welfare(slot, r).hex() == \
                _unbounded_lowered_welfare(paths, slot, r).hex(), (mult, slot)


def test_winner_passes_stop_once_no_slot_can_raise_the_welfare():
    # a winner's pass stops at the first slot whose distance rules out
    # beating the best welfare found so far; at half its value and at 0 no
    # winner's slot can beat leaving it out or placing it by D0, so no
    # winner pass settles a slot, and over the bids 0, the value and twice
    # it all passes together settle about 0.30 * n * n slots per bid (0.52
    # * n * n when every pass ran until no chain beat D0); the exact counts
    # pin where each pass stops
    inst = gen_scaling_instance(400, 4, 0)
    sol = solve_adtypes(inst)
    paths = pricing._SlotPaths(inst, sol)
    n = inst.num_slots
    assert len(sol.matching) == n
    assert paths.settled == n  # vacate settles every slot
    paths.d0
    assert paths.settled == 2 * n  # and so does D0, once read
    for mult, settled in ((0.5, 800), (0.0, 800), (1.0, 71625),
                          (2.0, 145307)):
        for slot, ad in sol.matching.pairs:
            paths.lowered_welfare(slot, mult * inst.value_of(ad))
        assert paths.settled == settled, (mult, paths.settled)
    assert paths.settled - 2 * n <= 3 * 0.35 * n * n, paths.settled


def test_dijkstra_yields_each_slot_before_settling_it():
    # four slots from source 0: 0 -> 2 costs 1, 2 -> 3 costs 2, 0 -> 3
    # costs 5 and 0 -> 1 costs 4, which does not lower slot 1 below its
    # start distance 2.5
    moves = [[1, 3, 2], [], [3], []]
    lengths = {(0, 1): 4.0, (0, 3): 5.0, (0, 2): 1.0, (2, 3): 2.0}

    def length(x, y):
        return lengths[x, y]

    # slots come out in order of distance, the stale entry for slot 3 at 5
    # is skipped, and slot 1, never lowered, never enters
    dist = [0.0, 2.5, 10.0, 10.0]
    assert list(pricing._dijkstra(dist, (0,), moves, length)) == \
        [(0.0, 0), (1.0, 2), (3.0, 3)]
    assert dist == [0.0, 2.5, 1.0, 3.0]
    # breaking at slot 2 leaves it unsettled: nothing is relaxed from it,
    # so slot 3 keeps the distance slot 0 gave it
    dist = [0.0, 2.5, 10.0, 10.0]
    seen = []
    for d, x in pricing._dijkstra(dist, (0,), moves, length):
        seen.append((d, x))
        if x == 2:
            break
    assert seen == [(0.0, 0), (1.0, 2)]
    assert dist == [0.0, 2.5, 1.0, 5.0]


def test_one_heap_loop_serves_every_pricing_pass():
    # only _dijkstra touches a heap; a winner's pass reads its slots from
    # it and keeps no heap or settled list of its own
    tree = ast.parse(inspect.getsource(pricing))
    callers: dict[str, set[str]] = {}
    functions = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            functions[fn.name] = fn
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, set()).add(fn.name)
    assert callers.get("heappop") == {"_dijkstra"}, callers.get("heappop")
    assert callers.get("heappush") == {"_dijkstra"}, callers.get("heappush")
    assert "lowered_welfare" in callers.get("_dijkstra", set()), \
        callers.get("_dijkstra")
    bound = {node.id for node in ast.walk(functions["lowered_welfare"])
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert bound and not bound & {"heap", "settled"}, bound


def test_lowered_welfare_two_chain_case():
    # Lowering A (30 -> 10) moves it from slot 0 to slot 1.  The ad there,
    # B, is dropped, and slot 0 is refilled from outside by C, which is
    # worth more there than B: 6 + 9 = 15.  The one-chain repair (B moves
    # up into slot 0) gives only 4 + 9 = 13.
    inst = Instance(2, [TypeSpec("A", [30.0], [1.0, 0.9]),
                        TypeSpec("B", [4.0], [1.0, 1.0]),
                        TypeSpec("C", [6.0], [1.0, 0.0])])
    sol = solve_adtypes(inst)
    assert sol.matching == Matching({0: AdRef(0, 0), 1: AdRef(1, 0)})
    lowered = solve_adtypes(with_bid(inst, AdRef(0, 0), 10.0)[0])
    assert lowered.matching == Matching({0: AdRef(2, 0), 1: AdRef(0, 0)})
    assert lowered.welfare == 15.0
    assert pricing._SlotPaths(inst, sol).lowered_welfare(0, 10.0) == 15.0
    out = price_with_reserves(inst, {AdRef(0, 0): 10.0})
    assert out.payments == _resolved_payments(inst, {AdRef(0, 0): 10.0})
    assert out.payments[AdRef(0, 0)] == 15.0 - (34.0 - 30.0)


def test_myerson_lone_bidder_reserve():
    inst = Instance(1, [TypeSpec("t", [10.0], [1.0])])
    assert myerson_changepoint_prices(inst, solve_adtypes, AdRef(0, 0), 4.0) \
        == pytest.approx(4.0, abs=1e-12)


def test_myerson_bid_below_the_reserve_pays_nothing():
    # a bidder below its reserve is filtered out and wins nothing; priced
    # from the reserve up it would be charged the reserve, 4.0
    inst = Instance(1, [TypeSpec("t", [3.0], [1.0])])
    assert myerson_changepoint_prices(inst, solve_adtypes, AdRef(0, 0), 4.0) \
        == 0.0


def test_myerson_matches_reserve_pricing():
    for seed in range(100):
        rng = np.random.default_rng(seed + 99)
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 3))
        inst = gen_random(GenConfig(n, k, seed, "uniform-real", "linear"))
        reserves = {}
        for t in range(k):
            for r in range(inst.real_counts[t]):
                if rng.random() < 0.5:
                    reserves[AdRef(t, r)] = float(rng.uniform(0.0, 12.0))
        rv = ReserveVector(reserves)
        out = price_with_reserves(inst, rv)
        assert out.min_raw_payment >= -1e-9
        filtered, keep = filter_by_reserves(inst, rv)
        for orig, kept in keep.items():
            oracle = myerson_changepoint_prices(filtered, solve_adtypes,
                                                kept, rv.get(orig))
            assert abs(oracle - out.payments[orig]) <= 1e-9, f"seed {seed}"


def test_non_monotone_allocator_detected():
    inst = Instance(1, [TypeSpec("t", [4.0], [1.0])])

    def perverse(probe_inst):
        # drops the bidder once it bids above 2: not allocation-monotone
        sol = solve_adtypes(probe_inst)
        if probe_inst.types[0].values[0] > 2.0:
            return OptimalSolution(Matching({}), sol.duals, 0.0)
        return sol

    with pytest.raises(NonMonotoneAllocationError) as info:
        myerson_changepoint_prices(inst, perverse, AdRef(0, 0), 0.0)
    assert len(info.value.counterexample) == 4


def test_myerson_refuses_an_allocator_without_a_solution(two_bidders):
    # only an exact allocator's welfare locates the changepoints; a bare
    # matching is refused by name, not priced by some other route
    with pytest.raises(ValidationError, match="refuses a Matching"):
        myerson_changepoint_prices(two_bidders, solve_greedy, AdRef(0, 0), 0.0)


def test_outcomes_after_a_bid_change_price_real_ads_only(monkeypatch):
    # one ad per type on three slots: after the type-0 ad's bid changes,
    # its type's padding ads are still padding, so neither mechanism lists
    # one as a winner, charges it, or prices it by a shortest-path pass
    inst = Instance(3, [TypeSpec("a", [5.0], [1.0, 0.5, 0.25]),
                        TypeSpec("b", [4.0], [1.0, 0.5, 0.25])])
    probe, _, _ = with_bid(inst, AdRef(0, 0), 3.0)
    passes = []
    lowered = pricing._SlotPaths.lowered_welfare

    def counted(self, s_i, r):
        passes.append(s_i)
        return lowered(self, s_i, r)

    monkeypatch.setattr(pricing._SlotPaths, "lowered_welfare", counted)
    for out in (vcg_outcome(probe), price_with_reserves(probe, None)):
        assert out.matching.pairs == ((0, AdRef(1, 0)), (1, AdRef(0, 0)))
        assert sorted(out.payments) == [AdRef(0, 0), AdRef(1, 0)]
    assert passes == [0, 1]


def test_ic_no_profitable_deviation_vcg_example1(example1):
    rng = np.random.default_rng(5)
    mech = vcg_mechanism()
    for ad in example1.real_ads():
        deviations = rng.uniform(0.0, 2.0 * example1.value_of(ad), 50)
        report = pricing.test_ic_deviation(example1, mech, ad, deviations)
        assert report.ok, report.profitable


def test_ic_audit_reports_a_profitable_misreport(two_bidders):
    # a mechanism that allocates optimally and charges nothing rewards the
    # loser for overbidding: the audit must report it, skip the negative
    # bid, and pass VCG on the same bids
    def free(inst, ad_map):
        sol = solve_adtypes(inst)
        return PricedOutcome(sol.matching, dict.fromkeys(inst.real_ads(), 0.0),
                             "free", 0.0)

    bids = [-1.0, 5.0, 11.0]
    report = pricing.test_ic_deviation(two_bidders, free, AdRef(0, 1), bids)
    assert report.truthful_utility == 3.0
    assert report.tried == [(5.0, 3.0), (11.0, 6.0)]
    assert report.profitable == [(11.0, 6.0)]
    assert not report.ok
    report = pricing.test_ic_deviation(two_bidders, vcg_mechanism(),
                                       AdRef(0, 1), bids)
    assert report.tried == [(5.0, 3.0), (11.0, 1.0)]
    assert report.profitable == []
    assert report.ok


def test_ic_below_reserve_deviating_above_never_gains():
    inst = Instance(1, [TypeSpec("t", [3.0], [1.0])])
    mech = reserve_mechanism({AdRef(0, 0): 4.0})
    report = pricing.test_ic_deviation(inst, mech, AdRef(0, 0),
                                       [4.0, 4.5, 5.0, 10.0])
    assert report.ok
    assert report.truthful_utility == 0.0
    assert all(u <= 1e-12 for _, u in report.tried)


def test_ic_audit_random_instances():
    rng = np.random.default_rng(77)
    for trial in range(25):
        inst = gen_exact_random(int(rng.integers(0, 1 << 31)),
                                max_n=3, max_k=2)
        reserves = {ad: float(rng.uniform(0, 10)) for ad in inst.real_ads()
                    if rng.random() < 0.4}
        for mech in (vcg_mechanism(), reserve_mechanism(reserves)):
            for ad in inst.real_ads():
                deviations = rng.uniform(0, 20, 8)
                report = pricing.test_ic_deviation(inst, mech, ad, deviations)
                assert report.ok, (trial, ad, report.profitable)


def test_ic_audit_vcg_on_badly_scaled_instances():
    # values near 1e7 leave rounding noise well above 1e-9 in the utilities;
    # the audit compares within scaled_tol, so it is not a profitable misreport
    rng = np.random.default_rng(11)
    mech = vcg_mechanism()
    for seed in range(30):
        base = gen_random(GenConfig(6, 3, seed, "pareto", "geometric"))
        inst = Instance(6, [TypeSpec(s.name, [v * 1e7 for v in s.values],
                                     s.discounts) for s in base.types])
        for ad in inst.real_ads():
            deviations = rng.uniform(0.0, 2.0 * inst.value_of(ad), 10)
            report = pricing.test_ic_deviation(inst, mech, ad, deviations)
            assert report.ok, (seed, ad, report.profitable)


def test_losers_pay_zero_and_ir():
    for seed in range(40):
        inst = gen_exact_random(seed, max_n=5, max_k=3)
        out = vcg_outcome(inst)
        matched = dict(out.matching.pairs)
        paying = {ad for ad in out.payments if out.payments[ad] > 0}
        winners = set(matched.values())
        assert paying <= winners
        for slot, ad in out.matching.pairs:
            bid_quantity = inst.value_of(ad) * inst.types[ad.ad_type].discounts[slot]
            assert out.payments[ad] <= bid_quantity + 1e-9
