import numpy as np
import pytest

from adtypes import bench
from adtypes.baseline import solve_bruteforce, solve_greedy
from adtypes.bench import (
    GenConfig,
    assignment_to_adtypes,
    assignment_value,
    bench_scaling,
    brute_force_assignment,
    gen_greedy_tight,
    gen_random,
    gen_scaling_instance,
)
from adtypes.core import validate_instance, welfare
from adtypes.hungarian import solve_adtypes


def test_gen_random_deterministic():
    cfg = GenConfig(5, 2, seed=1, discount_family="geometric")
    assert gen_random(cfg) == gen_random(cfg)


def test_gen_random_validates():
    for seed in range(30):
        for fam in ("geometric", "linear", "step"):
            for dist in ("uniform-int", "uniform-real", "pareto"):
                cfg = GenConfig(1 + seed % 7, 1 + seed % 3, seed, dist, fam)
                assert validate_instance(gen_random(cfg)).ok


def test_greedy_tight_values():
    inst = gen_greedy_tight(0.25)
    assert solve_adtypes(inst).welfare == 1.75
    assert welfare(inst, solve_bruteforce(inst)) == 1.75
    assert welfare(inst, solve_greedy(inst)) == 1.0


def test_greedy_tight_ratio_family():
    for eps in (0.5, 0.25, 0.125):
        inst = gen_greedy_tight(eps)
        optimal = solve_adtypes(inst).welfare
        greedy = welfare(inst, solve_greedy(inst))
        assert optimal == 2.0 - eps
        assert greedy == 1.0
        assert greedy / optimal == 1.0 / (2.0 - eps)


def test_greedy_tight_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        gen_greedy_tight(0.0)


def test_assignment_reduction_two_by_two():
    weights = [[3.0, 1.0], [1.0, 2.0]]
    inst, offset = assignment_to_adtypes(weights)
    sol = solve_adtypes(inst)
    assert sol.welfare - offset == pytest.approx(5.0, abs=1e-9)
    assert assignment_value(weights, sol.matching) == 5.0


def test_assignment_reduction_equal_weights():
    weights = np.full((4, 4), 7.0)
    inst, offset = assignment_to_adtypes(weights)
    sol = solve_adtypes(inst)
    assert sol.welfare - offset == pytest.approx(28.0, abs=1e-9)


def test_assignment_reduction_random_matrices():
    rng = np.random.default_rng(11)
    for trial in range(25):
        weights = rng.integers(1, 100, size=(6, 6)).astype(float)
        inst, offset = assignment_to_adtypes(weights)
        assert validate_instance(inst).ok
        sol = solve_adtypes(inst)
        best = brute_force_assignment(weights)
        assert sol.welfare - offset == pytest.approx(best, abs=1e-9)
        assert assignment_value(weights, sol.matching) == best


def test_assignment_reduction_rejects_nonpositive():
    with pytest.raises(ValueError):
        assignment_to_adtypes([[1.0, 0.0], [1.0, 1.0]])


def test_scaling_instance_shape():
    inst = gen_scaling_instance(30, 4, 0)
    assert validate_instance(inst).ok
    assert inst.num_slots == 30
    assert inst.num_types == 4


def test_bench_scaling_smoke():
    report = bench_scaling([(12, 2), (24, 2)], reps=2)
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "n,k,solver,median_ms,welfare"
    assert len(lines) == 5
    # welfare agrees between solvers per size
    for n in (12, 24):
        rows = [r for r in report.rows if r[0] == n]
        assert len(rows) == 2
        assert abs(rows[0][4] - rows[1][4]) <= 1e-9 * max(1.0, rows[0][4])
    assert report.median_ms(12, 2, "adtypes") > 0


def test_bench_scaling_times_in_interleaved_rounds(monkeypatch):
    calls = []

    def solver(name):
        def run(inst):
            calls.append((inst.num_slots, name))
            return 1.0
        return name, run

    monkeypatch.setattr(bench, "_SOLVERS", (solver("a"), solver("b")))
    report = bench_scaling([(3, 1), (5, 1)], reps=2)
    one_round = [(3, "a"), (3, "b"), (5, "a"), (5, "b")]
    # one warm-up per (size, solver), then every case once per round
    assert calls == one_round * 3
    assert [row[:3] for row in report.rows] == \
        [(n, 1, name) for n, name in one_round]


def test_bench_reps_consistency():
    one = bench_scaling([(16, 2)], reps=1, seed=3)
    five = bench_scaling([(16, 2)], reps=5, seed=3)
    assert one.rows[0][4] == five.rows[0][4]
