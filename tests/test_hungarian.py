import ast
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adtypes.baseline import solve_bruteforce, solve_generic_hungarian
from adtypes.bench import (
    GenConfig,
    assignment_to_adtypes,
    gen_exact_random,
    gen_random,
    gen_scaling_instance,
    gen_strict_random,
)
from adtypes.core import (
    AdRef,
    Instance,
    Matching,
    TypeSpec,
    ValidationError,
    scaled_tol,
    tol_for,
    welfare,
)
from adtypes import hungarian
from adtypes.hungarian import (
    DualSolution,
    OptimalSolution,
    PhaseInvariantError,
    _frontiers,
    _Tables,
    certify,
    crossing_violations,
    slot_movers,
    solve_adtypes,
)
from adtypes.pricing import vcg_prices_fast


def test_example1_assignment(example1):
    sol = solve_adtypes(example1)
    assert sol.welfare == 9.0
    assert sol.matching.as_dict() == {0: AdRef(1, 0), 1: AdRef(0, 0)}
    assert certify(example1, sol).passed


def test_single_edge():
    inst = Instance(1, [TypeSpec("t", [7.0], [1.0])])
    sol = solve_adtypes(inst)
    assert sol.welfare == 7.0
    assert sol.matching.as_dict() == {0: AdRef(0, 0)}


def test_rejects_gap_rules():
    inst = Instance(2, [TypeSpec("a", [1.0], [1.0, 0.5]),
                        TypeSpec("b", [1.0], [1.0, 0.5])],
                    gap=[[0, 1], [0, 0]])
    with pytest.raises(ValidationError, match="gap"):
        solve_adtypes(inst)


def test_all_zero_values_fully_matched():
    inst = Instance(3, [TypeSpec("t", [0.0, 0.0, 0.0], [1.0, 0.5, 0.25])])
    sol = solve_adtypes(inst)
    assert sol.welfare == 0.0
    assert len(sol.matching) == 3
    assert certify(inst, sol).passed


def test_matches_bruteforce_on_random_instances():
    for seed in range(200):
        inst = gen_exact_random(seed, max_n=8, max_k=3)
        sol = solve_adtypes(inst)
        oracle = welfare(inst, solve_bruteforce(inst))
        assert sol.welfare == oracle, f"seed {seed}"
        assert certify(inst, sol).passed, f"seed {seed}"


def test_instrumentation_budgets():
    # queue occupancy is bounded unconditionally; the three-ads-per-type scan
    # bound holds when values and discounts are strict within each type
    for seed in range(120):
        inst = gen_strict_random(seed)
        stats = solve_adtypes(inst).stats
        assert stats.max_queue_occupancy <= inst.num_slots + inst.num_types
        assert stats.max_scan_candidates <= 3 * inst.num_types
    for seed in range(120):
        inst = gen_exact_random(seed)
        stats = solve_adtypes(inst).stats
        assert stats.max_queue_occupancy <= inst.num_slots + inst.num_types


def _solver_state(tables: _Tables, m: Matching) -> tuple[list[int], list[int]]:
    """``slot_ad`` and ``ad_slot`` of matching ``m``, as the solver keeps
    them."""
    n = tables.n
    slot_ad, ad_slot = [-1] * n, [-1] * (tables.k * n)
    for s, ad in m.pairs:
        a = ad.ad_type * n + ad.rank
        slot_ad[s], ad_slot[a] = a, s
    return slot_ad, ad_slot


def _scan_refs(inst: Instance, m: Matching, slot: int) -> list[AdRef]:
    """The solver's candidate scan for ``slot`` under matching ``m``, with
    ads converted between ``AdRef`` and the solver's ``a = t*n + r``."""
    tables = _Tables(inst)
    frontiers = _frontiers(tables, *_solver_state(tables, m), range(tables.k))
    return [AdRef(*divmod(a, tables.n))
            for _, near, _ in frontiers for a, _ in near[slot]]


def test_scan_candidates_three_cases():
    # one type, three ads; rank 0 matched to slot 0, ranks 1-2 unmatched
    inst = Instance(3, [TypeSpec("t", [9.0, 5.0, 2.0], [1.0, 0.5, 0.25])])
    m = Matching({0: AdRef(0, 0)})
    assert set(_scan_refs(inst, m, 1)) == {AdRef(0, 1), AdRef(0, 0)}


def test_scan_candidates_matched_above_and_below():
    inst = Instance(4, [TypeSpec("t", [9.0, 5.0, 4.0, 2.0],
                                 [1.0, 0.5, 0.25, 0.125])])
    m = Matching({0: AdRef(0, 0), 3: AdRef(0, 1)})
    # lowest unmatched rank, highest rank matched below, lowest matched above
    assert set(_scan_refs(inst, m, 2)) == \
        {AdRef(0, 2), AdRef(0, 0), AdRef(0, 1)}


def test_slot_movers_stop_at_the_first_protecting_ad():
    # the tie (6, 6) widens the scan: each side stops once a listed ad
    # protects the rest (smaller value at a better discount), and the tied
    # ad at slot 2 protects nothing for slot 0
    inst = Instance(5, [TypeSpec("t", [8.0, 6.0, 6.0, 4.0, 2.0],
                                 [1.0, 0.5, 0.25, 0.125, 0.0625])])
    losers, movers = slot_movers(inst, Matching({s: AdRef(0, s)
                                                 for s in range(4)}))
    assert losers == [AdRef(0, 4)]
    assert [sorted(x) for x in movers] == [[1, 2], [0, 2], [1, 3], [1, 2], [3]]


def test_carried_frontiers_equal_a_full_rebuild(monkeypatch, tie_heavy):
    # solve_adtypes keeps the frontiers between phases and rebuilds only
    # the types whose ads the augmenting path moved; at the start of every
    # phase the carried list must equal one built from scratch on the
    # previous phase's matching
    phase = hungarian._phase
    checked = 0

    def checking_phase(tables, frontiers, slot_ad, ad_slot, u, p, root,
                       stats):
        nonlocal checked
        if root:
            previous = stats.phase_matchings[-1]
            assert (slot_ad, ad_slot) == _solver_state(tables, previous)
        assert frontiers == _frontiers(tables, slot_ad, ad_slot,
                                       range(tables.k)), root
        checked += 1
        return phase(tables, frontiers, slot_ad, ad_slot, u, p, root, stats)

    monkeypatch.setattr(hungarian, "_phase", checking_phase)
    cases = ([gen_exact_random(seed, max_n=12, max_k=4) for seed in range(60)]
             + [tie_heavy(seed) for seed in range(60)]
             + [gen_scaling_instance(40, 4, 0)])
    for inst in cases:
        solve_adtypes(inst, collect_phase_matchings=True)
    assert checked == sum(inst.num_slots for inst in cases)


def _protected_walk(head: int | None, by_rank: list[tuple[int, int]],
                    disc, val: list[float], slot: int
                    ) -> list[tuple[int, float]]:
    """The scan's candidates for ``slot`` by the protected walk, the rule
    the frontier tables replace: the ``(ad, value)`` pairs of the head; of
    the matched ads below ``slot`` from the highest rank down until one is
    strictly protected (an already-listed ad with strictly smaller value at
    a strictly better discount); and of the matched ads above it from the
    lowest rank up, symmetrically.  ``by_rank`` holds the type's matched
    ``(ad, slot)`` pairs sorted by rank."""
    cands = [] if head is None else [(head, val[head])]
    a_scan = disc[slot]
    # matched below the slot, descending rank (ascending value)
    protect_v = None
    for a, s in reversed(by_rank):
        if s >= slot:
            continue
        v = val[a]
        if protect_v is not None and protect_v < v:
            break
        cands.append((a, v))
        if disc[s] > a_scan and (protect_v is None or v < protect_v):
            protect_v = v
    # matched above the slot, ascending rank (descending value)
    protect_v = None
    for a, s in by_rank:
        if s <= slot:
            continue
        v = val[a]
        if protect_v is not None and protect_v > v:
            break
        cands.append((a, v))
        if disc[s] < a_scan and (protect_v is None or v > protect_v):
            protect_v = v
    return cands


def test_every_table_lists_what_the_protected_walk_lists(tie_heavy):
    # every type's frontier is a table; at every slot of every phase
    # matching it must list what the protected walk lists on the same
    # matching, each pair once (the order within a tie is no output); the
    # tie-heavy and step-curve cases put many slots inside a run of equal
    # discounts that holds a matched ad, where the table is rewritten
    steps = [gen_random(GenConfig(8 + seed % 33, 1 + seed % 4, seed,
                                  ("uniform-real", "pareto")[seed % 2],
                                  "step"))
             for seed in range(40)]
    cases = ([gen_strict_random(seed) for seed in range(40)]
             + [gen_exact_random(seed, max_n=12, max_k=4) for seed in range(40)]
             + [tie_heavy(seed) for seed in range(60)]
             + steps + [gen_scaling_instance(30, 4, 0)])
    checked = in_runs = 0
    for inst in cases:
        tables = _Tables(inst)
        n = tables.n
        sol = solve_adtypes(inst, collect_phase_matchings=True)
        for m in sol.stats.phase_matchings:
            slot_ad, ad_slot = _solver_state(tables, m)
            frontiers = _frontiers(tables, slot_ad, ad_slot, range(tables.k))
            for t, (head, near, disc) in enumerate(frontiers):
                assert isinstance(near, list) and len(near) == n
                by_rank = sorted((a, s) for s, a in enumerate(slot_ad)
                                 if a >= 0 and a // n == t)
                in_runs += sum(l + 1 - f for f, l in tables.runs[t]
                               if any(f <= s <= l for _, s in by_rank))
                for x in range(n):
                    listed = sorted(near[x])
                    assert listed == sorted(set(listed)), (m, t, x)
                    assert listed == sorted(_protected_walk(
                        head, by_rank, disc, tables.val, x)), (m, t, x)
                    checked += 1
    assert checked > 8000, checked
    assert in_runs > 3000, in_runs


def test_equal_discount_witness_does_not_protect():
    # an ad matched in the scanned slot's own run of equal discounts does
    # not protect the ads past it: with that rule this instance ends with
    # duals whose worst edge slack is -0.0225
    inst = Instance(6, [TypeSpec("a", [2.698, 2.477, 2.078, 2.061, 1.622,
                                       1.304],
                                 [0.75, 0.75, 0.75, 0.75, 0.5, 0.25]),
                        TypeSpec("b", [2.383, 2.315, 2.241, 2.072, 1.753,
                                       1.509],
                                 [0.75, 0.75, 0.75, 0.5, 0.25, 0.25])])
    sol = solve_adtypes(inst)
    assert certify(inst, sol).passed
    assert sol.welfare == solve_generic_hungarian(inst).welfare == 9.004


def test_phase_reads_the_frontiers_without_a_scan_call():
    # the phase loop reads each type's candidates as near[slot]: no scan
    # helper is left, and _phase neither walks nor rebuilds a frontier
    tree = ast.parse(inspect.getsource(hungarian))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_scan", "_Walk"}, defined
    [phase] = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_phase"]
    called = {node.func.id for node in ast.walk(phase)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called, "no calls found"
    assert not called & {"_scan", "_walk", "_frontiers"}, called


def test_scan_all_unmatched_one_candidate_per_type():
    types = [TypeSpec(f"t{i}", [3.0, 1.0], [1.0, 0.5]) for i in range(3)]
    inst = Instance(2, types)
    cands = _scan_refs(inst, Matching({}), 0)
    assert len(cands) == 3
    assert {ad.ad_type for ad in cands} == {0, 1, 2}
    assert len(_scan_refs(inst, Matching({}), 1)) == 3


def test_certify_flags_corrupted_dual(example1):
    sol = solve_adtypes(example1)
    p = list(sol.duals.p)
    p[0] -= 1.0
    corrupt = OptimalSolution(sol.matching, DualSolution(sol.duals.u, tuple(p)),
                              sol.welfare)
    report = certify(example1, corrupt)
    assert not report.passed
    assert report.worst_violation == pytest.approx(1.0)


def test_certify_fails_on_a_nan_dual(example1):
    # every comparison with NaN is false, so a check written as
    # "fail if x > tol" would pass it
    sol = solve_adtypes(example1)
    u = [list(row) for row in sol.duals.u]
    u[1][0] = float("nan")
    corrupt = OptimalSolution(sol.matching,
                              DualSolution(tuple(map(tuple, u)), sol.duals.p),
                              sol.welfare)
    assert not certify(example1, corrupt).passed


def test_certify_fails_on_a_priced_empty_slot():
    # the empty matching with the one slot priced at its only edge value is
    # feasible and tight on the (empty) matched subgraph, yet welfare 5 was
    # available: without zero prices on empty slots the duals prove nothing
    inst = Instance(1, [TypeSpec("t", [5.0], [1.0])])
    empty = OptimalSolution(Matching({}), DualSolution(((0.0,),), (5.0,)), 0.0)
    assert not certify(inst, empty).passed


def _dense_slack_findings(inst: Instance, sol: OptimalSolution):
    """The feasibility and tightness findings of a certificate, read off the
    whole k×n×n slack array at once: the messages and the worst of them."""
    tol = scaled_tol(inst)
    u, p = np.asarray(sol.duals.u), np.asarray(sol.duals.p)
    outer = np.array([np.outer(s.values, s.discounts) for s in inst.types])
    slack = u[:, :, None] + p - outer
    msgs, worst = [], 0.0
    min_slack = float(slack.min())
    if min_slack < -tol:
        msgs.append(f"dual infeasible: worst edge slack {min_slack:g}")
        worst = -min_slack
    for slot, ad in sol.matching.pairs:
        resid = abs(float(slack[ad.ad_type, ad.rank, slot]))
        if resid > tol:
            msgs.append(f"matched edge slot {slot} not tight "
                        f"(residual {resid:g})")
            worst = max(worst, resid)
    return msgs, worst


@pytest.mark.parametrize("c", [1.0, 1e7, 1e12])
def test_certify_matches_a_dense_slack_reference(c, tie_heavy):
    # certify reads feasibility off one lower envelope per type; on the
    # solvers' duals and on corrupted ones it must find what the dense
    # array shows, ties and equal slopes included.  Where several ads tie
    # exactly in a slot, the envelope may form the least slack from another
    # of them than the dense minimum does, and the two roundings can differ
    # in the last place: the worst violation may fall short by a few ulps
    equal_slopes = Instance(4, [TypeSpec("t", [6.0, 6.0, 6.0, 0.0],
                                         [1.0, 0.5, 0.5, 0.0]),
                                TypeSpec("s", [0.0, 0.0],
                                         [1.0, 1.0, 0.25, 0.25])])
    cases = ([gen_exact_random(seed) for seed in range(40)]
             + [tie_heavy(seed) for seed in range(40)] + [equal_slopes])
    for i, base in enumerate(cases):
        inst = _scaled(base, c)
        top = max(s.values[0] * s.discounts[0] for s in inst.types)
        rng = np.random.default_rng(i)
        for solver in (solve_adtypes, solve_generic_hungarian):
            sol = solver(inst)
            u, p = np.array(sol.duals.u), np.array(sol.duals.p)
            low_p, high_u = p.copy(), u.copy()
            low_p[rng.integers(p.size)] -= c * rng.uniform(0.5, 3.0)
            high_u[tuple(rng.integers(u.shape))] += c * rng.uniform(0.5, 3.0)
            for uu, pp in ((u, p), (u, low_p), (high_u, p)):
                case = OptimalSolution(
                    sol.matching,
                    DualSolution(tuple(map(tuple, uu.tolist())),
                                 tuple(pp.tolist())), sol.welfare)
                report = certify(inst, case)
                msgs, worst = _dense_slack_findings(inst, case)
                found = [m for m in report.messages
                         if m.startswith(("dual infeasible", "matched edge"))]
                assert found == msgs, (i, solver.__name__)
                ulps = 4 * math.ulp(np.abs(uu).max() + np.abs(pp).max() + top)
                assert report.worst_violation >= worst - ulps
                assert report.passed == (uu is u and pp is p)


def test_certify_reports_ragged_duals():
    # a utility row of the wrong length is a failed certificate, not an
    # exception out of certify
    inst = Instance(2, [TypeSpec("a", [3.0, 1.0], [1.0, 0.5]),
                        TypeSpec("b", [2.0, 1.0], [1.0, 0.5])])
    sol = solve_adtypes(inst)
    for u in (((0.0, 0.0), (0.0,)), ((0.0, 0.0, 0.0), (0.0, 0.0)),
              ((0.0, 0.0),)):
        report = certify(inst, OptimalSolution(sol.matching,
                                               DualSolution(u, sol.duals.p),
                                               sol.welfare))
        assert not report.passed
        assert report.messages == ["dual dimensions wrong"]


def test_certify_memory_is_linear_in_the_slots():
    # one dense k×n×n float array at n=300, k=4 takes 2,880 KB; certify
    # must stay below an eighth of it
    inst = gen_scaling_instance(300, 4, 0)
    sol = solve_adtypes(inst)
    tracemalloc.start()
    try:
        assert certify(inst, sol).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 300 * 300 * 8 // 8, peak


@pytest.mark.parametrize("discounts", [[1e308, 1.0], [1.0, 1.0]])
def test_overflowing_instance_refused(discounts):
    # [1e308, 1.0] overflows an edge value (NaN duals); [1.0, 1.0] keeps the
    # edges finite but overflows the welfare; either once passed certify
    with pytest.raises(ValidationError, match="welfare bound"):
        solve_adtypes(Instance(2, [TypeSpec("t", [1e308, 1e308], discounts)]))


def test_certify_accepts_generic_solver_output():
    for seed in range(30):
        inst = gen_exact_random(seed)
        sol = solve_generic_hungarian(inst)
        assert certify(inst, sol).passed, f"seed {seed}"


def test_no_crossing_tight_edges():
    for seed in range(150):
        inst = gen_exact_random(seed)
        sol = solve_adtypes(inst)
        assert crossing_violations(inst, sol.duals) == [], f"seed {seed}"


def _crossing_pairs_pairwise(inst: Instance, duals: DualSolution):
    """The crossing check by pairing every tight edge of a type with every
    other, in O(T^2) for T tight edges: the oracle of
    :func:`crossing_violations`."""
    out = []
    tol = scaled_tol(inst)
    p = duals.p
    for t, spec in enumerate(inst.types):
        vals, disc, u = spec.values, spec.discounts, duals.u[t]
        tight = [(r, s) for r, v in enumerate(vals) for s, a in enumerate(disc)
                 if abs(u[r] + p[s] - v * a) <= tol]
        for r1, s1 in tight:
            for r2, s2 in tight:
                if r1 < r2 and s2 < s1 and vals[r1] > vals[r2] \
                        and disc[s2] > disc[s1]:
                    out.append((t, r1, s1, r2, s2))
    return out


def test_crossing_violations_match_the_pairwise_oracle(tie_heavy):
    # on the solver's duals both find nothing; zero duals make every edge
    # of a zero value or a zero discount tight, and duals planted to make
    # each ad tight at a random slot are mostly infeasible, so both cross
    # often; one type of equal values and discounts makes every edge tight
    # and crosses nowhere
    cases = ([gen_exact_random(seed, max_n=12, max_k=4) for seed in range(60)]
             + [tie_heavy(seed) for seed in range(200)]
             + [Instance(30, [TypeSpec("flat", [4.0] * 30, [0.5] * 30)])])
    found = 0
    for i, inst in enumerate(cases):
        n, k = inst.num_slots, inst.num_types
        rng = np.random.default_rng(i)
        p = tuple(float(x) for x in rng.choice([0.0, 0.5, 1.0, 2.0], n))
        planted = DualSolution(
            tuple(tuple(spec.values[r] * spec.discounts[s] - p[s]
                        for r, s in enumerate(rng.integers(0, n, n)))
                  for spec in inst.types), p)
        zero = DualSolution(((0.0,) * n,) * k, (0.0,) * n)
        for duals in (solve_adtypes(inst).duals, zero, planted):
            expected = _crossing_pairs_pairwise(inst, duals)
            assert crossing_violations(inst, duals) == expected, i
            found += len(expected)
    assert found > 10000, found


def test_crossing_violations_scale_with_the_values():
    # near 1e12 one unit in the last place is about 1e-4, so edges tight up
    # to rounding miss an absolute 1e-9 test; the planted crossing (ad 0 in
    # slot 1, ad 1 in slot 0) must still be flagged
    c = 1e12
    inst = Instance(2, [TypeSpec("t", [3 * c, c], [1.0, 0.5])])
    p = (0.5 * c, 0.25 * c)
    u = ((float(np.nextafter(1.5 * c - p[1], np.inf)),
          float(np.nextafter(c - p[0], np.inf))),)
    assert abs(u[0][0] + p[1] - 1.5 * c) > 1e-9
    assert crossing_violations(inst, DualSolution(u, p)) == [(0, 0, 1, 1, 0)]


def test_prefix_optimal_after_each_phase():
    # the welfare after phase j is the optimum over slots 0..j, which is
    # also what a full-scan Hungarian rooting slots best-first reaches
    cases = [(seed, gen_exact_random(seed)) for seed in range(60)]
    cases += [(seed, gen_exact_random(seed, max_n=12, max_k=4))
              for seed in range(1000, 1040)]
    for seed, inst in cases:
        sol = solve_adtypes(inst, collect_phase_matchings=True)
        for j, m in enumerate(sol.stats.phase_matchings):
            assert all(s <= j for s, _ in m.pairs), f"seed {seed} phase {j}"
            trunc = Instance(j + 1,
                             [TypeSpec(spec.name, spec.values[:j + 1],
                                       spec.discounts[:j + 1])
                              for spec in inst.types])
            independent = solve_generic_hungarian(trunc)
            assert welfare(trunc, m) == independent.welfare, \
                f"seed {seed} phase {j}"


def test_trace_format(example1):
    lines = solve_adtypes(example1).stats.trace_lines()
    assert len(lines) == example1.num_slots
    for line in lines:
        assert re.fullmatch(
            r"phase=\d+ pops=\d+ delta=[-0-9.e+]+ pathlen=\d+", line)


def test_matched_ranks_ascend_with_slots():
    # exchange property: same-type ads appear in rank order by slot, except
    # between interchangeable pairs (equal values or equal discounts)
    for seed in range(100):
        inst = gen_exact_random(seed)
        sol = solve_adtypes(inst)
        per_type: dict[int, list[tuple[int, int]]] = {}
        for slot, ad in sol.matching.pairs:
            per_type.setdefault(ad.ad_type, []).append((slot, ad.rank))
        for t, pairs in per_type.items():
            pairs.sort()
            spec = inst.types[t]
            for (s1, r1), (s2, r2) in zip(pairs, pairs[1:]):
                if r1 > r2:
                    assert spec.values[r1] == spec.values[r2] or \
                        spec.discounts[s1] == spec.discounts[s2], f"seed {seed}"


def test_counters_pinned_on_scaling_instance():
    # the counters the AdRef-keyed phase loop gave before the flat-int one
    stats = solve_adtypes(gen_scaling_instance(100, 4, seed=0)).stats
    assert stats.total_pops == stats.scan_calls == 3828
    assert stats.max_queue_occupancy == 8
    assert stats.max_scan_candidates == 9
    assert sum(hops for _, _, _, hops in stats.phases) == 1996
    # pushes are counted from the pops, the stale pops and what each phase
    # leaves queued, with no counter in the offer loop
    assert stats.heap_pushes == 19750
    assert stats.stale_pops == 7


def test_output_bits_pinned_on_scaling_instance():
    # the welfare, the counters and the dual sums, to the last bit, that
    # the phase loop gave before it read per-slot candidate tables
    sol = solve_adtypes(gen_scaling_instance(200, 4, 0))
    stats = sol.stats
    assert sol.welfare.hex() == "0x1.450a8d3cbc553p+13"
    assert stats.total_pops == 14154
    assert sum(hops for _, _, _, hops in stats.phases) == 7338
    assert stats.heap_pushes == 73702
    assert stats.stale_pops == 27
    assert stats.max_scan_candidates == 9
    assert stats.max_queue_occupancy == 8
    assert math.fsum(sol.duals.p).hex() == "0x1.26a011107ae9ep+13"
    assert math.fsum(x for row in sol.duals.u for x in row).hex() == \
        "0x1.e6a7c2c416b58p+9"


def test_output_bits_pinned_on_a_tied_instance():
    # integer values and a step curve: ties in value and runs of equal
    # discounts at n=80, pinned to the last bit
    sol = solve_adtypes(gen_random(GenConfig(80, 4, 0, "uniform-int", "step")))
    stats = sol.stats
    assert sol.welfare.hex() == "0x1.14e0000000000p+8"
    assert stats.total_pops == 2999
    assert sum(hops for _, _, _, hops in stats.phases) == 84
    assert stats.heap_pushes == 3850
    assert stats.stale_pops == 0
    assert stats.max_scan_candidates == 76
    assert stats.max_queue_occupancy == 82
    assert math.fsum(sol.duals.p).hex() == "0x1.0240000000000p+8"
    assert math.fsum(x for row in sol.duals.u for x in row).hex() == \
        "0x1.2a00000000000p+4"


_SCALED_PARETO = """
from adtypes.bench import GenConfig, gen_random
from adtypes.core import Instance, TypeSpec

base = gen_random(GenConfig(60, 3, 0, "pareto", "geometric"))
inst = Instance(base.num_slots,
                [TypeSpec(spec.name,
                          [v * 1e7 for v in spec.values[:base.real_counts[t]]],
                          spec.discounts)
                 for t, spec in enumerate(base.types)])
"""


def test_badly_scaled_instance_solves_or_raises_named_error():
    # a pareto instance with values scaled by 1e7, whose keys near 1e8 once
    # outgrew an absolute tolerance in the queue check
    scope = {}
    exec(_SCALED_PARETO, scope)
    inst = scope["inst"]
    try:
        sol = solve_adtypes(inst)
    except PhaseInvariantError as exc:
        assert isinstance(exc, ValidationError)
        assert 0 <= exc.phase < inst.num_slots
        assert exc.key < exc.shift
        return
    assert certify(inst, sol).passed


def test_named_error_survives_python_O():
    # under -O an assert would vanish; the named error must not
    code = _SCALED_PARETO + """
import sys
from adtypes.hungarian import PhaseInvariantError, certify, solve_adtypes
try:
    ok = certify(inst, solve_adtypes(inst)).passed
except PhaseInvariantError:
    ok = True
sys.exit(0 if ok else 3)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _scaled(inst: Instance, c: float) -> Instance:
    return Instance(inst.num_slots,
                    [TypeSpec(spec.name,
                              [v * c for v in spec.values[:inst.real_counts[t]]],
                              spec.discounts)
                     for t, spec in enumerate(inst.types)])


@pytest.mark.parametrize("c", [1e7, 1e12])
def test_badly_scaled_pareto_solves_and_certifies(c):
    # the queue check and certify allow TOL relative to the largest edge
    # value, so rounding on values near 1e8 is not mistaken for a regression
    inst = _scaled(gen_random(GenConfig(60, 3, 0, "pareto", "geometric")), c)
    sol = solve_adtypes(inst)
    assert certify(inst, sol).passed
    assert len(vcg_prices_fast(inst, sol)) == inst.num_slots


def test_assignment_embedding_of_large_weights_certifies():
    # integer weights x1000 embed into edge values near 1e7, whose rounding
    # (slack -1.9e-9 here) an absolute tolerance would call infeasible
    rng = np.random.default_rng(2)
    inst, _ = assignment_to_adtypes(
        rng.integers(1, 100, size=(150, 150)).astype(float) * 1000)
    assert certify(inst, solve_adtypes(inst)).passed


@pytest.mark.parametrize("c", [2.0 ** -20, 2.0 ** 23, 2.0 ** 40])
def test_power_of_two_scaling_scales_every_output_exactly(c):
    # multiplying by a power of two is exact, so the solve and the prices
    # must be the unscaled ones times c, bit for bit
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        inst = gen_random(GenConfig(n, k, seed,
                                    ("uniform-int", "uniform-real", "pareto")[seed % 3],
                                    ("linear", "geometric", "step")[seed % 3]))
        sol = solve_adtypes(inst)
        big = _scaled(inst, c)
        sol_c = solve_adtypes(big)
        assert sol_c.matching == sol.matching, f"seed {seed}"
        assert sol_c.welfare == sol.welfare * c, f"seed {seed}"
        assert sol_c.duals.u == tuple(tuple(x * c for x in row)
                                      for row in sol.duals.u), f"seed {seed}"
        assert sol_c.duals.p == tuple(x * c for x in sol.duals.p), f"seed {seed}"
        assert vcg_prices_fast(big, sol_c) == \
            tuple(x * c for x in vcg_prices_fast(inst, sol)), f"seed {seed}"


_UNIT = st.floats(0.0, 1.0)
_MAGNITUDE = st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e)


@st.composite
def _scale_cases(draw):
    """A full instance (n real ads per type) with values of magnitude
    ``mag`` and a factor ``c`` that takes it to another magnitude, both in
    [1e-6, 1e12]."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    mag, target = draw(_MAGNITUDE), draw(_MAGNITUDE)
    types = [TypeSpec(f"t{t}",
                      sorted((x * mag for x in draw(st.lists(
                          _UNIT, min_size=n, max_size=n))), reverse=True),
                      sorted(draw(st.lists(_UNIT, min_size=n, max_size=n)),
                             reverse=True))
             for t in range(k)]
    return Instance(n, types), target / mag


@given(_scale_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_scaling_by_any_factor_scales_the_welfare(case):
    # the one tolerance rule in every unit: welfare scales by c within
    # tol_for, both solves certify, and with no tied edge values (so one
    # optimum) the matching does not move
    inst, c = case
    big = _scaled(inst, c)
    sol, sol_c = solve_adtypes(inst), solve_adtypes(big)
    assert certify(inst, sol).passed and certify(big, sol_c).passed
    assert abs(sol_c.welfare - c * sol.welfare) <= tol_for(c * sol.welfare)
    edges = [v * d for spec in inst.types for v in spec.values
             for d in spec.discounts]
    if len(set(edges)) == len(edges):
        assert sol_c.matching == sol.matching
