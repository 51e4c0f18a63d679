"""Seeded inputs for the three workloads, made without adtypes' own generators.

Op ``index`` of a run starts from a base instance drawn from
``SeedSequence([workload, phase, index])``; phase 0 is the timed list and
phase 1 the untimed warm-up op, so the warm-up never shares an instance (or a
cache entry) with a timed op.  ``--seed`` then relabels the types and scales
every value (and reserve) by a power of two drawn from
``SeedSequence([seed, workload, phase, index])``.  A power-of-two scale keeps
every floating-point step exact, and the solvers' work does not depend on the
order of the types, so every run does the same work while the seed still
changes every input.  Drawing the bases from the seed instead made the
run-to-run spread of ``op_p50_ms`` 10-12% on ``vcg-large`` and
``reserve-small`` from the instance mix alone.

Values and discounts are continuous draws, so optimal matchings are unique
and ties never decide an outcome.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TIMED, WARMUP = 0, 1


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    nominal_op_s: float  # sizes the op list so a run lasts about --seconds
    round: int = 1  # the op list is a whole number of rounds of this length

    def num_ops(self, seconds: float) -> int:
        ops = max(3, math.ceil(seconds / self.nominal_op_s))
        return math.ceil(ops / self.round) * self.round


WORKLOADS = {
    w.name: w for w in (
        Workload("vcg-large", 0, 0.75),
        Workload("reserve-small", 1, 0.85),
        Workload("gap-rules", 2, 0.37, round=9),
    )
}


def _rng(*entropy: int):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def _desc(xs) -> list[float]:
    return sorted((float(x) for x in xs), reverse=True)


def vcg_instance(rng, n: int = 200, k: int = 4) -> dict:
    """Scaling family: values uniform in [50, 100), discounts
    ``(1 - j/(n+1)) ** e_t`` with a per-type exponent, all strictly
    decreasing.  Every new slot displaces incumbents, so augmenting paths
    are long."""
    base = [1.0 - j / (n + 1) for j in range(n)]
    types = []
    for t in range(k):
        e = 0.75 + 0.35 * t + float(rng.uniform(-0.05, 0.05))
        types.append({"name": f"type{t}", "values": _desc(rng.uniform(50.0, 100.0, n)),
                      "discounts": [b ** e for b in base]})
    return {"num_slots": n, "types": types, "gap": None}


def reserve_instance(rng, n: int = 24, k: int = 4,
                     filtered: int = 14) -> tuple[dict, list[dict]]:
    """Geometric discounts and values uniform in [10, 100).  Of the k*n ads
    exactly a third have reserve 0, ``filtered`` bid below their reserve,
    and the rest have a reserve between 20% and 95% of their bid."""
    types = []
    for t in range(k):
        q = float(rng.uniform(0.80, 0.95))
        types.append({"name": f"type{t}", "values": _desc(rng.uniform(10.0, 100.0, n)),
                      "discounts": [q ** j for j in range(n)]})
    ads = [(t, r) for t in range(k) for r in range(n)]
    order = rng.permutation(len(ads))
    zero = len(ads) // 3
    reserves = []
    for pos, i in enumerate(order):
        t, r = ads[i]
        bid = types[t]["values"][r]
        if pos < zero:
            res = 0.0
        elif pos < zero + filtered:
            res = bid * float(rng.uniform(1.05, 1.5))
        else:
            res = bid * float(rng.uniform(0.2, 0.95))
        reserves.append({"type": t, "rank": r, "reserve": res})
    reserves.sort(key=lambda e: (e["type"], e["rank"]))
    return {"num_slots": n, "types": types, "gap": None}, reserves


# Cross gaps (from type, to type, gap) over self-gaps of one slot, cheapest
# DP first; approximate per-op times at k=3, n=12 on the machine the bounds
# were set on.  Op ``index`` of ``gap-rules`` takes shape
# ``GAP_ROUND[index % 9]``, so every run solves the same mix of shapes.  The
# middle shape fills a third of the round, and its neighbours cost within
# about 10% of it, so the median op is one of them in every run.
GAP_SHAPES = (
    ((0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 0, 1), (1, 2, 1), (2, 1, 1)),  # 0.07 s
    ((0, 1, 2), (1, 2, 2)),  # 0.19 s
    ((0, 1, 2),),  # 0.31 s
    ((0, 1, 1), (1, 2, 1)),  # 0.33 s
    ((0, 1, 1), (1, 0, 1)),  # 0.36 s
    ((0, 1, 1),),  # 0.50 s
    (),  # 0.64 s
)
GAP_ROUND = (0, 1, 2, 3, 3, 3, 4, 5, 6)


def gap_instance(rng, n: int = 12, k: int = 3,
                 cross=GAP_SHAPES[3]) -> dict:
    """Every type has a one-slot self-gap, plus the ``cross`` gaps.  The
    DP's state count depends on the gap shape only, so ops of one shape do
    the same amount of work while the instance data differ."""
    types = []
    for t in range(k):
        q = float(rng.uniform(0.75, 0.95))
        types.append({"name": f"type{t}", "values": _desc(rng.uniform(10.0, 100.0, n)),
                      "discounts": [q ** j for j in range(n)]})
    gap = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for a, b, g in cross:
        gap[a][b] = g
    return {"num_slots": n, "types": types, "gap": gap}


def relabel(rng, inst: dict, reserves: list[dict] | None = None):
    """The same instance with its types in a random order and every value
    and reserve scaled by 2**e, e in [-2, 2]."""
    k = len(inst["types"])
    order = [int(t) for t in rng.permutation(k)]  # new type j is old type order[j]
    scale = 2.0 ** int(rng.integers(-2, 3))
    types = [{"name": f"type{j}",
              "values": [v * scale for v in inst["types"][old]["values"]],
              "discounts": inst["types"][old]["discounts"]}
             for j, old in enumerate(order)]
    gap = inst["gap"]
    if gap is not None:
        gap = [[gap[a][b] for b in order] for a in order]
    out = {"num_slots": inst["num_slots"], "types": types, "gap": gap}
    if reserves is None:
        return out
    new_type = {old: j for j, old in enumerate(order)}
    return out, sorted(({"type": new_type[e["type"]], "rank": e["rank"],
                         "reserve": e["reserve"] * scale} for e in reserves),
                       key=lambda e: (e["type"], e["rank"]))


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv and the files it reads and writes."""

    argv: tuple[str, ...]
    instance: Path
    output: Path
    reserves: Path | None = None


def _write(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def make_op(workload: Workload, seed: int, phase: int, index: int,
            workdir: Path) -> Op:
    """Write one op's input files into ``workdir`` and return its argv."""
    base = _rng(workload.index, phase, index)
    rng = _rng(seed, workload.index, phase, index)
    stem = workdir / f"{phase}-{index}"
    inst, out = Path(f"{stem}-in.json"), Path(f"{stem}-out.json")
    if workload.name == "vcg-large":
        _write(inst, relabel(rng, vcg_instance(base)))
        argv = ("price", "--in", str(inst), "--mechanism", "vcg", "--out", str(out))
        return Op(argv, inst, out)
    if workload.name == "reserve-small":
        data, reserves = relabel(rng, *reserve_instance(base))
        res = Path(f"{stem}-reserves.json")
        _write(inst, data)
        _write(res, reserves)
        argv = ("price", "--in", str(inst), "--mechanism", "reserve",
                "--reserves", str(res), "--out", str(out))
        return Op(argv, inst, out, res)
    if workload.name == "gap-rules":
        shape = GAP_SHAPES[GAP_ROUND[index % len(GAP_ROUND)]]
        _write(inst, relabel(rng, gap_instance(base, cross=shape)))
        argv = ("solve", "--in", str(inst), "--algo", "gapdp", "--out", str(out))
        return Op(argv, inst, out)
    raise ValueError(f"unknown workload {workload.name!r}")
