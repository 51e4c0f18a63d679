"""Instance generators and the timing harness.

Families: seeded random instances (with an exactly-representable variant for
oracle equality tests), the two-type family on which greedy loses half the
welfare, a reduction embedding an arbitrary assignment matrix, and the
strictly-decreasing family used for scaling measurements.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .core import GuardError, Instance, Matching, TypeSpec, tol_for
from .hungarian import solve_adtypes
from .baseline import solve_generic_hungarian

# dyadic ratios keep every edge value exactly representable
_DYADIC_RATIOS = (0.5, 0.625, 0.75, 0.875)
_DYADIC_LEVELS = (1.0, 0.75, 0.5, 0.25, 0.125)


@dataclass(frozen=True)
class GenConfig:
    """Knobs for :func:`gen_random`; identical configs give identical
    instances."""

    n: int
    k: int
    seed: int
    value_dist: str = "uniform-int"      # uniform-int | uniform-real | pareto
    discount_family: str = "geometric"   # geometric | linear | step


def gen_random(cfg: GenConfig) -> Instance:
    if cfg.n < 1 or cfg.k < 1:
        raise ValueError("n and k must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    types = []
    for t in range(cfg.k):
        if cfg.value_dist == "uniform-int":
            vals = np.sort(rng.integers(0, 17, cfg.n))[::-1].astype(float)
        elif cfg.value_dist == "uniform-real":
            vals = np.sort(rng.uniform(0.0, 16.0, cfg.n))[::-1]
        elif cfg.value_dist == "pareto":
            vals = np.sort(rng.pareto(2.5, cfg.n) + 1.0)[::-1]
        else:
            raise ValueError(f"unknown value distribution {cfg.value_dist!r}")
        if cfg.discount_family == "geometric":
            ratio = _DYADIC_RATIOS[rng.integers(0, len(_DYADIC_RATIOS))]
            disc = [ratio ** j for j in range(cfg.n)]
        elif cfg.discount_family == "linear":
            disc = [(cfg.n - j) / cfg.n for j in range(cfg.n)]
        elif cfg.discount_family == "step":
            # non-increasing dyadic levels, random step positions
            level = 0
            disc = []
            for j in range(cfg.n):
                disc.append(_DYADIC_LEVELS[level])
                if level + 1 < len(_DYADIC_LEVELS) and rng.random() < 0.35:
                    level += 1
        else:
            raise ValueError(f"unknown discount family {cfg.discount_family!r}")
        types.append(TypeSpec(f"type{t}", [float(v) for v in vals], disc))
    return Instance(cfg.n, types)


def gen_exact_random(seed: int, max_n: int = 8, max_k: int = 4) -> Instance:
    """Random instance whose edge values are all dyadic rationals, so welfare
    comparisons across solvers are exact in binary floating point."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    family = "geometric" if rng.random() < 0.5 else "step"
    return gen_random(GenConfig(n, k, int(rng.integers(0, 2 ** 31)),
                                "uniform-int", family))


def gen_strict_random(seed: int, max_n: int = 8, max_k: int = 4) -> Instance:
    """Like :func:`gen_exact_random` but with distinct integer values per
    type and strictly decreasing dyadic discounts: within every type both
    orders are strict, the regime in which the frontier scan provably
    inspects at most three ads per type."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    types = []
    for t in range(k):
        vals = sorted((int(v) for v in
                       rng.choice(17, size=n, replace=False)), reverse=True)
        ratio = _DYADIC_RATIOS[rng.integers(0, len(_DYADIC_RATIOS))]
        disc = [ratio ** j for j in range(n)]
        types.append(TypeSpec(f"type{t}", [float(v) for v in vals], disc))
    return Instance(n, types)


def gen_gap_random(seed: int) -> Instance:
    """Small random instance with gap rules, sized for the exhaustive gap
    oracle :func:`~adtypes.gapdp.brute_force_gap` (guard: n <= 6, <= 12
    ads): n <= 5, k <= 3, dyadic edge values and at most 12 ads in all."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    k = int(rng.integers(1, 4))
    types = []
    budget = 12
    for t in range(k):
        count = int(rng.integers(1, min(n, max(1, budget - (k - 1 - t))) + 1))
        budget -= count
        vals = sorted((int(v) for v in rng.integers(0, 17, count)), reverse=True)
        ratio = _DYADIC_RATIOS[rng.integers(0, len(_DYADIC_RATIOS))]
        disc = [ratio ** j for j in range(n)]
        types.append(TypeSpec(f"type{t}", [float(v) for v in vals], disc))
    gap = [[int(rng.integers(0, n + 1)) for _ in range(k)] for _ in range(k)]
    return Instance(n, types, gap)


def gen_greedy_tight(epsilon: float) -> Instance:
    """Two slots, two types: the steep type has two value-1 ads but zero
    second-slot discount; the flat type has one value-1 ad and one worthless
    ad.  Greedy takes slot 0 with the flat ad and ends at welfare 1 while the
    optimum is 2 - epsilon."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    steep = TypeSpec("steep", [1.0, 1.0], [1.0 - epsilon, 0.0])
    flat = TypeSpec("flat", [1.0, 0.0], [1.0, 1.0])
    return Instance(2, [steep, flat])


def assignment_to_adtypes(weights) -> tuple[Instance, float]:
    """Embed an arbitrary positive assignment matrix: adding a per-column
    bonus that dominates the spread makes every row strictly decreasing
    across columns, which factors into a value and a valid discount curve.
    The optimal matching is preserved; subtract ``offset`` from the solved
    welfare to recover the original assignment value."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weights must be a square matrix")
    if (w <= 0).any():
        raise ValueError("weights must be positive")
    n = w.shape[0]
    vstar = 1.0 + float(w.max())
    bonus = np.array([(n - 1 - j) * vstar for j in range(n)])
    wprime = w + bonus[None, :]
    types = []
    for i in range(n):
        top = float(wprime[i, 0])
        types.append(TypeSpec(f"row{i}", [top],
                              [float(x) / top for x in wprime[i]]))
    offset = vstar * n * (n - 1) / 2
    return Instance(n, types), offset


def assignment_value(weights, matching: Matching) -> float:
    """Original-matrix value of a matching produced on the embedded instance
    (type index = row, slot = column)."""
    w = np.asarray(weights, dtype=float)
    return float(sum(w[ad.ad_type, slot] for slot, ad in matching.pairs
                     if ad.rank == 0))


def brute_force_assignment(weights) -> float:
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if n > 8:
        raise GuardError("assignment enumeration limited to n <= 8")
    return max(sum(float(w[i, perm[i]]) for i in range(n))
               for perm in permutations(range(n)))


# ---------------------------------------------------------------------------
# Scaling harness

def gen_scaling_instance(n: int, k: int, seed: int) -> Instance:
    """Strictly decreasing values and slowly decaying, strictly decreasing
    discounts.  Every new slot displaces the incumbents, which drives the
    generic solver's alternating trees to full depth."""
    rng = np.random.default_rng(seed)
    exponents = [0.75 + 0.35 * t for t in range(k)]
    types = []
    base = [1.0 - j / (n + 1) for j in range(n)]
    for t in range(k):
        vals = np.sort(rng.uniform(50.0, 100.0, n))[::-1]
        disc = [b ** exponents[t] for b in base]
        types.append(TypeSpec(f"type{t}", [float(v) for v in vals], disc))
    return Instance(n, types)


@dataclass
class BenchReport:
    """Rows of (n, k, solver, median wall-time ms, welfare)."""

    rows: list[tuple[int, int, str, float, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["n,k,solver,median_ms,welfare"]
        for n, k, solver, ms, w in self.rows:
            lines.append(f"{n},{k},{solver},{ms:.3f},{w!r}")
        return "\n".join(lines) + "\n"

    def median_ms(self, n: int, k: int, solver: str) -> float:
        for rn, rk, rs, ms, _ in self.rows:
            if (rn, rk, rs) == (n, k, solver):
                return ms
        raise KeyError((n, k, solver))


_SOLVERS = (
    ("adtypes", lambda inst: solve_adtypes(inst).welfare),
    ("generic", lambda inst: solve_generic_hungarian(inst).welfare),
)


def bench_scaling(sizes, reps: int, *, seed: int = 0) -> BenchReport:
    """Median-of-reps wall times for both solvers on each (n, k).

    One warm-up run per (n, k, solver) is discarded; a welfare mismatch
    between the solvers' warm-up runs raises.  The timed runs go in
    interleaved rounds, each timing every (n, k, solver) once, so a drift in
    machine speed lands on every size alike instead of on one size's runs.
    """
    cases = []
    for n, k in sizes:
        inst = gen_scaling_instance(n, k, seed)
        welfares = {name: run(inst) for name, run in _SOLVERS}
        spread = max(welfares.values()) - min(welfares.values())
        if spread > tol_for(max(abs(w) for w in welfares.values())):
            raise AssertionError(f"solver welfare mismatch at n={n}, k={k}: "
                                 f"{welfares}")
        cases += [(n, k, name, welfares[name], run, inst, [])
                  for name, run in _SOLVERS]
    for _ in range(reps):
        for *_, run, inst, times in cases:
            t0 = time.perf_counter()
            run(inst)
            times.append((time.perf_counter() - t0) * 1000.0)
    return BenchReport([(n, k, name, statistics.median(times), w)
                        for n, k, name, w, _, _, times in cases])
