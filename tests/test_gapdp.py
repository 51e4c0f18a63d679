import pytest

from adtypes.bench import GenConfig, gen_gap_random, gen_random
from adtypes.core import AdRef, GuardError, Instance, Matching, TypeSpec, welfare
from adtypes.gapdp import (
    Graph,
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
        solve_gap_dp(inst)


def test_gap_dp_state_budget():
    types = [TypeSpec(f"t{i}", [1.0] * 8, [1.0] * 8) for i in range(4)]
    inst = Instance(8, types, [[0] * 4 for _ in range(4)])
    with pytest.raises(GuardError, match="states"):
        solve_gap_dp(inst, max_states=50)


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
