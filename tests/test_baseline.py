import numpy as np
import pytest

from adtypes.baseline import (
    solve_bruteforce,
    solve_generic_hungarian,
    solve_greedy,
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
        inst = gen_exact_random(seed, max_n=8, max_k=4)
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
                 + [gen_exact_random(seed, max_n=8, max_k=4) for seed in range(100)]):
        m = solve_greedy(inst)
        assert len(m) == inst.num_slots
        assert m == _edge_greedy(inst)
