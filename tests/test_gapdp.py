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
    graph_to_text,
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
    g = Graph(5, [(0, 1), (2, 4)])
    assert parse_graph_text(graph_to_text(g)) == g


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


def _greedy_trap_instance(rng) -> Instance:
    # type 0 bids a little more but blocks every type for two slots: the
    # greedy incumbent reaches under half of the optimum, so pruning does
    # almost nothing
    n, k = int(rng.integers(7, 13)), int(rng.integers(2, 4))
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
        cases.append(_greedy_trap_instance(np.random.default_rng(seed + 7300)))
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
    # refused up front by the lower bound (no gaps: every count vector is
    # a state) and while running (self-gaps leave the bound below the count)
    types = [TypeSpec(f"t{i}", [1.0] * 8, [1.0] * 8) for i in range(4)]
    free = Instance(8, types, [[0] * 4 for _ in range(4)])
    monkeypatch.setattr(gapdp, "MAX_STATES", 50)
    with pytest.raises(GuardError, match=r"at least \d+ states"):
        solve_gap_dp(free)
    spaced = Instance(8, types, [[int(i == j) for j in range(4)]
                                 for i in range(4)])
    assert gapdp._min_states(spaced.real_counts, 8, 2) <= 400
    monkeypatch.setattr(gapdp, "MAX_STATES", 400)
    with pytest.raises(GuardError, match=r"stored \d+ states by slot \d+"):
        solve_gap_dp(spaced)


def test_min_states_never_exceeds_the_states_stored(monkeypatch):
    # with the up-front check off, a budget one below the bound must still
    # be exceeded while running; a zero incumbent turns pruning off, so the
    # bound is checked against the unpruned DP the up-front guard relies on
    bound = gapdp._min_states
    monkeypatch.setattr(gapdp, "_min_states", lambda *args: 0)
    monkeypatch.setattr(gapdp, "_greedy_welfare", lambda inst: 0.0)
    for seed in range(80):
        rng = np.random.default_rng(seed + 9000)
        inst = _gap_instance(rng, int(rng.integers(1, 11)),
                             int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        least = bound(inst.real_counts, inst.num_slots,
                      max(map(max, inst.gap)) + 1)
        monkeypatch.setattr(gapdp, "MAX_STATES", least - 1)
        with pytest.raises(GuardError, match="stored"):
            solve_gap_dp(inst)


def test_pruning_finishes_what_the_unpruned_dp_refuses(monkeypatch):
    # one-slot self-gaps at k=4, n=24: the unpruned DP stores 365,821
    # states, the bound-pruned one 35,803
    rng = np.random.default_rng(2024)
    types = [TypeSpec(f"t{t}", sorted(rng.uniform(10.0, 100.0, 24),
                                      reverse=True),
                      [q ** j for j in range(24)])
             for t, q in enumerate(rng.uniform(0.75, 0.95, 4))]
    inst = Instance(24, types, [[int(i == j) for j in range(4)]
                                for i in range(4)])
    budget = gapdp.MAX_STATES
    monkeypatch.setattr(gapdp, "MAX_STATES", 100_000)
    pruned = solve_gap_dp(inst)
    assert check_gap_feasible(inst, pruned)
    monkeypatch.setattr(gapdp, "_greedy_welfare", lambda inst: 0.0)
    with pytest.raises(GuardError, match="stored"):
        solve_gap_dp(inst)
    monkeypatch.setattr(gapdp, "MAX_STATES", budget)
    assert welfare(inst, pruned) == welfare(inst, solve_gap_dp(inst))
