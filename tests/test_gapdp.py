import ast
import inspect
import math
import re

import numpy as np
import pytest

from adtypes import gapdp
from adtypes.bench import GenConfig, gen_gap_random, gen_random
from adtypes.core import (
    AdRef,
    GuardError,
    Instance,
    Matching,
    TypeSpec,
    tol_for,
    welfare,
)
from adtypes.gapdp import (
    Graph,
    _sparse_gap_dp,
    brute_force_gap,
    check_gap_feasible,
    max_independent_set_size,
    mis_to_adtypes,
    parse_graph_text,
    solve_gap_dp,
    solve_two_type_dp,
)
from adtypes.hungarian import solve_adtypes


def _zero_gap(inst: Instance) -> Instance:
    k = inst.num_types
    return Instance(inst.num_slots, inst.types, [[0] * k for _ in range(k)])


def test_zero_gap_degenerates_to_hungarian(example1):
    gapped = _zero_gap(example1)
    assert welfare(gapped, solve_gap_dp(gapped)) == solve_adtypes(example1).welfare


def test_triangle_reduction():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    inst = mis_to_adtypes(tri)
    assert welfare(inst, solve_gap_dp(inst)) == 1.0
    assert welfare(inst, brute_force_gap(inst)) == 1.0


def test_gap_dp_matches_bruteforce():
    for seed in range(100):
        inst = gen_gap_random(seed)
        dp = solve_gap_dp(inst)
        assert check_gap_feasible(inst, dp), f"seed {seed}"
        assert welfare(inst, dp) == welfare(inst, brute_force_gap(inst)), \
            f"seed {seed}"


def test_gap_dp_guard_slots():
    inst = Instance(13, [TypeSpec("t", [1.0] * 13, [1.0] * 13)], [[0]])
    with pytest.raises(GuardError, match="n <= 12"):
        _sparse_gap_dp(inst)


def test_gap_dp_state_budget(monkeypatch):
    types = [TypeSpec(f"t{i}", [1.0] * 8, [1.0] * 8) for i in range(4)]
    inst = Instance(8, types, [[0] * 4 for _ in range(4)])
    monkeypatch.setattr(gapdp, "MAX_STATES", 50)
    with pytest.raises(GuardError, match="states"):
        _sparse_gap_dp(inst)


def test_brute_force_gap_guard():
    types = [TypeSpec("t", [1.0] * 7, [1.0] * 7)]
    inst = Instance(7, types, [[0]])
    with pytest.raises(GuardError):
        brute_force_gap(inst)


def test_check_gap_feasible_examples():
    a = TypeSpec("a", [1.0], [1.0, 1.0])
    b = TypeSpec("b", [1.0], [1.0, 1.0])
    no_rules = Instance(2, [a, b], [[0, 0], [0, 0]])
    m = Matching({0: AdRef(0, 0), 1: AdRef(1, 0)})
    assert check_gap_feasible(no_rules, m)
    blocking = Instance(2, [a, b], [[0, 1], [0, 0]])
    assert not check_gap_feasible(blocking, m)
    reverse = Matching({0: AdRef(1, 0), 1: AdRef(0, 0)})
    assert check_gap_feasible(blocking, reverse)


def _pairwise_gap_feasible(inst: Instance, m: Matching) -> bool:
    # the rule as stated, over every ordered pair of assigned slots: the
    # oracle for check_gap_feasible's walk over each type's latest slot
    pairs = m.pairs
    for i, (s1, a1) in enumerate(pairs):
        for s2, a2 in pairs[i + 1:]:
            if s2 - s1 <= inst.gap[a1.ad_type][a2.ad_type]:
                return False
    return True


def test_check_gap_feasible_matches_the_pairwise_rule():
    rng = np.random.default_rng(29)
    verdicts = []
    for seed in range(2500):
        inst = gen_gap_random(seed)
        n, k = inst.num_slots, inst.num_types
        for _ in range(5):
            used = [0] * k
            pairs = []
            for slot in range(n):
                if rng.random() < 0.7:
                    t = int(rng.integers(0, k))
                    pairs.append((slot, AdRef(t, used[t])))
                    used[t] += 1
            m = Matching(pairs)
            verdicts.append(check_gap_feasible(inst, m))
            assert verdicts[-1] == _pairwise_gap_feasible(inst, m), (seed, pairs)
    assert len(verdicts) >= 10_000
    assert sum(verdicts) >= 3_000 and len(verdicts) - sum(verdicts) >= 3_000


def test_two_type_dp_example1(example1):
    assert welfare(example1, solve_two_type_dp(example1)) == 9.0


def test_two_type_dp_with_padded_type():
    # one type has no real ads: reduces to sorting the other type
    inst = Instance(3, [TypeSpec("real", [9.0, 4.0, 1.0], [1.0, 0.5, 0.25]),
                        TypeSpec("empty", [], [1.0, 0.5, 0.25])])
    assert welfare(inst, solve_two_type_dp(inst)) == 9.0 + 2.0 + 0.25


def test_two_type_dp_requires_two_types(example1):
    lone = Instance(2, [TypeSpec("t", [1.0], [1.0, 0.5])])
    with pytest.raises(Exception, match="k=2"):
        solve_two_type_dp(lone)


def test_two_type_dp_matches_hungarian():
    for seed in range(200):
        inst = gen_random(GenConfig(1 + seed % 8, 2, seed,
                                    "uniform-int", "geometric"))
        assert welfare(inst, solve_two_type_dp(inst)) == \
            solve_adtypes(inst).welfare, f"seed {seed}"


def test_mis_reduction_examples():
    edgeless = mis_to_adtypes(Graph(4, []))
    assert welfare(edgeless, solve_gap_dp(edgeless)) == 4.0
    tri = mis_to_adtypes(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert welfare(tri, solve_gap_dp(tri)) == 1.0
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert max_independent_set_size(c5) == 2
    inst5 = mis_to_adtypes(c5)
    assert welfare(inst5, solve_gap_dp(inst5)) == 2.0


def test_graph_text_round_trip():
    # the "n m" header, then one "u v" line per edge, either way round;
    # comments and blank lines are skipped
    text = "# two edges\n5 2\n\n1 0\n4 2\n"
    assert parse_graph_text(text) == Graph(5, [(0, 1), (2, 4)])


def test_gap_dp_outputs_rank_order():
    for seed in range(60):
        inst = gen_gap_random(seed + 300)
        m = solve_gap_dp(inst)
        per_type: dict[int, list[tuple[int, int]]] = {}
        for slot, ad in m.pairs:
            per_type.setdefault(ad.ad_type, []).append((slot, ad.rank))
        for pairs in per_type.values():
            pairs.sort()
            ranks = [r for _, r in pairs]
            assert ranks == sorted(ranks)


def _gap_instance(rng, n: int, k: int, max_cross: int) -> Instance:
    types = [TypeSpec(f"t{t}",
                      sorted(rng.integers(0, 20, int(rng.integers(0, n + 1)))
                             .astype(float), reverse=True),
                      sorted(rng.uniform(0.0, 1.0, n), reverse=True))
             for t in range(k)]
    gap = [[int(rng.integers(0, max_cross + 1)) for _ in range(k)]
           for _ in range(k)]
    return Instance(n, types, gap)


def _equal_values_instance(rng) -> Instance:
    # all values equal on flat discounts, one self-gap for every type: the
    # greedy incumbent is optimal, so pruning is at its strongest
    n, k, g = (int(rng.integers(7, 13)), int(rng.integers(1, 4)),
               int(rng.integers(1, 4)))
    types = [TypeSpec(f"t{t}", [1.0] * n, [1.0] * n) for t in range(k)]
    return Instance(n, types, [[g * (i == j) for j in range(k)]
                               for i in range(k)])


def _greedy_trap_instance(rng, n: int, k: int) -> Instance:
    # type 0 bids a little more but blocks every type for two slots: a
    # greedy incumbent reaches under half of the optimum, so pruning against
    # it does almost nothing
    types = [TypeSpec(f"t{t}", sorted(rng.uniform(1.0, 1.2, n)
                                      + 0.2 * (t == 0), reverse=True),
                      [1.0] * n)
             for t in range(k)]
    return Instance(n, types, [[2 * (i == 0) for _ in range(k)]
                               for i in range(k)])


def test_capped_dp_matches_sparse_oracle():
    # the sizes brute force (n <= 6) cannot reach
    cases = []
    for seed in range(120):
        rng = np.random.default_rng(seed + 7000)
        cases.append(_gap_instance(rng, int(rng.integers(7, 13)),
                                   int(rng.integers(1, 4)), 3))
    for seed in range(20):
        cases.append(_equal_values_instance(np.random.default_rng(seed + 7200)))
        rng = np.random.default_rng(seed + 7300)
        cases.append(_greedy_trap_instance(rng, int(rng.integers(7, 13)),
                                           int(rng.integers(2, 4))))
    for i, inst in enumerate(cases):
        dp = solve_gap_dp(inst)
        assert check_gap_feasible(inst, dp), f"case {i}"
        assert welfare(inst, dp) == welfare(inst, _sparse_gap_dp(inst)), \
            f"case {i}"


@pytest.mark.parametrize("n,k", [(30, 2), (15, 3)])
def test_capped_dp_without_gaps_matches_hungarian(n, k):
    for seed in range(5):
        base = gen_random(GenConfig(n, k, seed, "uniform-real", "geometric"))
        inst, best = _zero_gap(base), solve_adtypes(base).welfare
        assert abs(welfare(inst, solve_gap_dp(inst)) - best) <= tol_for(best)


def test_capped_dp_guard_names_the_state_count(monkeypatch):
    # one guard, the running count of the states stored, refuses with and
    # without gaps
    types = [TypeSpec(f"t{i}", [1.0] * 8, [1.0] * 8) for i in range(4)]
    free = Instance(8, types, [[0] * 4 for _ in range(4)])
    monkeypatch.setattr(gapdp, "MAX_STATES", 50)
    with pytest.raises(GuardError, match=r"stored 70 states by slot 4 of 8, "
                       r".*; best gap-feasible welfare found 8\.0$"):
        solve_gap_dp(free)
    spaced = Instance(8, types, [[int(i == j) for j in range(4)]
                                 for i in range(4)])
    monkeypatch.setattr(gapdp, "MAX_STATES", 400)
    with pytest.raises(GuardError, match=r"stored \d+ states by slot \d+"):
        solve_gap_dp(spaced)


def _decaying_instance(seed: int, k: int, n: int, self_gap: int) -> Instance:
    # values drawn from [10, 100], geometric discounts with ratios drawn from
    # [0.75, 0.95], and a gap of ``self_gap`` within each type only
    rng = np.random.default_rng(seed)
    types = [TypeSpec(f"t{t}", sorted(rng.uniform(10.0, 100.0, n),
                                      reverse=True),
                      [q ** j for j in range(n)])
             for t, q in enumerate(rng.uniform(0.75, 0.95, k))]
    return Instance(n, types, [[self_gap * (i == j) for j in range(k)]
                               for i in range(k)])


def test_pruning_finishes_what_the_unpruned_dp_refuses(monkeypatch):
    # one-slot self-gaps at k=4, n=24: the unpruned DP stores 365,821
    # states, the bound-pruned one 22,855
    inst = _decaying_instance(2024, 4, 24, 1)
    budget = gapdp.MAX_STATES
    monkeypatch.setattr(gapdp, "MAX_STATES", 100_000)
    pruned = solve_gap_dp(inst)
    assert check_gap_feasible(inst, pruned)
    # an infinite margin puts every cut at -inf: no offer is pruned
    monkeypatch.setattr(gapdp, "tol_for", lambda x: math.inf)
    with pytest.raises(GuardError, match="stored"):
        solve_gap_dp(inst)
    monkeypatch.setattr(gapdp, "MAX_STATES", budget)
    assert welfare(inst, pruned) == welfare(inst, solve_gap_dp(inst))


def test_gap_dp_shares_no_gap_window_code_with_its_oracles():
    # the DP reads the gap rules only through its wait counts, incumbent
    # included, and walks its transitions in one loop, which the beam and
    # the DP both run; _append_ok belongs to the feasibility check and the
    # oracles that cross-check the DP
    tree = ast.parse(inspect.getsource(gapdp))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    assert not [name for name in functions if "greedy" in name], functions
    dp = list(ast.walk(functions["solve_gap_dp"]))
    called = [node.func.id for node in dp
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called.count("moves_from") == 1, called
    move_loops = [node for node in dp if isinstance(node, ast.For)
                  and isinstance(node.target, ast.Tuple)
                  and [getattr(e, "id", None) for e in node.target.elts]
                  == ["t", "st", "rad", "cap", "delta"]]
    assert len(move_loops) == 1, move_loops
    assert "_append_ok" not in called and not any("greedy" in name
                                                  for name in called), called
    callers = {name for name, node in functions.items()
               for call in ast.walk(node) if isinstance(call, ast.Call)
               and isinstance(call.func, ast.Name)
               and call.func.id == "_append_ok"}
    assert callers == {"check_gap_feasible", "_sparse_gap_dp",
                       "brute_force_gap"}, callers


def test_guard_refuses_by_the_states_the_pruned_dp_stores():
    # the unpruned DP would store at least 9,366,819 states at k=5, n=40
    # without gaps and 2,307,767 at k=4, n=80 with one-slot self-gaps, both
    # over MAX_STATES; the pruned DP stores far fewer and solves both
    free = _decaying_instance(1, 5, 40, 0)
    best = solve_adtypes(free).welfare
    assert abs(welfare(free, solve_gap_dp(free)) - best) <= tol_for(best)
    spaced = _decaying_instance(1, 4, 80, 1)
    assert check_gap_feasible(spaced, solve_gap_dp(spaced))


def test_guard_stops_a_wide_layer_within_the_budget(monkeypatch):
    # k=200, n=4, zero gaps, flat values: the first three layers hold
    # 1,373,701 count vectors, so a check only after each layer would store
    # all of them; the in-layer check stops within 1024 * (k + 1) of the
    # budget
    k, n = 200, 4
    types = [TypeSpec(f"t{t}", [1.0] * n, [1.0] * n) for t in range(k)]
    wide = Instance(n, types, [[0] * k for _ in range(k)])
    monkeypatch.setattr(gapdp, "MAX_STATES", 50_000)
    with pytest.raises(GuardError, match=r"by slot 3 of 4") as refused:
        solve_gap_dp(wide)
    stored = int(re.search(r"stored (\d+) states", str(refused.value))[1])
    assert 50_000 < stored <= 50_000 + 1024 * (k + 1)


def _shape(name: str) -> Instance:
    # the four gap-DP shapes A to D that ROADMAP item 4 defines
    if name == "A":
        return _decaying_instance(2024, 4, 24, 1)
    if name == "B":
        return _decaying_instance(5, 3, 40, 1)
    if name == "C":  # gap 2 between distinct types, none within a type
        drawn = _decaying_instance(6, 3, 24, 0)
        return Instance(24, drawn.types, [[2 * (i != j) for j in range(3)]
                                          for i in range(3)])
    return _greedy_trap_instance(np.random.default_rng(7), 24, 3)


@pytest.mark.parametrize("name,stored", [("A", 22_855), ("B", 3_178),
                                         ("C", 702), ("D", 1_773)])
def test_the_beam_incumbent_prunes_the_shapes(monkeypatch, name, stored):
    # the states the pruned DP stores, which a budget one below them
    # reveals: the beam's incumbent decides how much is pruned
    inst = _shape(name)
    n = inst.num_slots
    monkeypatch.setattr(gapdp, "MAX_STATES", stored - 1)
    with pytest.raises(GuardError,
                       match=rf"stored {stored} states by slot {n} of {n},"):
        solve_gap_dp(inst)


@pytest.mark.parametrize("name", ["C", "D"])
def test_the_pruned_shapes_keep_the_unpruned_welfare(monkeypatch, name):
    # unpruned, shapes C and D store 62,734 and 20,475 states
    inst = _shape(name)
    pruned = welfare(inst, solve_gap_dp(inst))
    monkeypatch.setattr(gapdp, "tol_for", lambda x: math.inf)
    assert welfare(inst, solve_gap_dp(inst)).hex() == pruned.hex()
