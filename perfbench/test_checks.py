"""The benchmark's own checks accept the program's outputs and reject
perturbed ones.

    python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from adtypes import cli  # noqa: E402


def _run(tmp_path: Path, argv: list[str], inst: dict, reserves=None) -> dict:
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(inst))
    argv = argv + ["--in", str(src), "--out", str(out)]
    if reserves is not None:
        res = tmp_path / "reserves.json"
        res.write_text(json.dumps(reserves))
        argv += ["--reserves", str(res)]
    assert cli.run(argv) == 0
    return json.loads(out.read_text())


@pytest.fixture
def vcg_case(tmp_path):
    inst = workloads.vcg_instance(np.random.default_rng(3), n=30, k=3)
    out = _run(tmp_path, ["price", "--mechanism", "vcg"], inst)
    return inst, out


@pytest.fixture
def reserve_case(tmp_path):
    inst, reserves = workloads.reserve_instance(np.random.default_rng(4), n=8, k=3,
                                                filtered=4)
    out = _run(tmp_path, ["price", "--mechanism", "reserve"], inst, reserves)
    return inst, reserves, out


@pytest.fixture
def gap_case(tmp_path):
    inst = workloads.gap_instance(np.random.default_rng(5), n=8, k=3)
    out = _run(tmp_path, ["solve", "--algo", "gapdp"], inst)
    return inst, out


def _winner(out: dict, slot: int) -> dict:
    e = next(e for e in out["assignment"] if e["slot"] == slot)
    return next(p for p in out["payments"]
                if (p["type"], p["rank"]) == (e["type"], e["rank"]))


def test_program_outputs_pass(vcg_case, reserve_case, gap_case):
    assert checks.check_vcg(*vcg_case, sample_every=1) == []
    assert checks.check_reserve(*reserve_case) == []
    assert checks.check_gap(*gap_case) == []


@pytest.mark.parametrize("delta", [-1e-3, 1e-3])
def test_vcg_payment_off_by_a_little(vcg_case, delta):
    inst, out = vcg_case
    bad = copy.deepcopy(out)
    _winner(bad, 0)["pay"] += delta
    assert checks.check_vcg(inst, bad)


def test_vcg_loser_pays_or_slots_swapped(vcg_case):
    inst, out = vcg_case
    bad = copy.deepcopy(out)
    assigned = {(e["type"], e["rank"]) for e in bad["assignment"]}
    loser = next(p for p in bad["payments"] if (p["type"], p["rank"]) not in assigned)
    loser["pay"] = 1.0
    assert checks.check_vcg(inst, bad)
    bad = copy.deepcopy(out)
    a, b = bad["assignment"][0], bad["assignment"][-1]
    a["slot"], b["slot"] = b["slot"], a["slot"]
    assert any("optimum" in p for p in checks.check_vcg(inst, bad))


def test_reserve_payment_or_filtered_winner(reserve_case):
    inst, reserves, out = reserve_case
    bad = copy.deepcopy(out)
    _winner(bad, 0)["pay"] *= 1.001
    assert checks.check_reserve(inst, reserves, bad)
    below = next(e for e in reserves
                 if inst["types"][e["type"]]["values"][e["rank"]] < e["reserve"])
    bad = copy.deepcopy(out)
    bad["assignment"][-1].update(type=below["type"], rank=below["rank"])
    assert any("below its reserve" in p for p in checks.check_reserve(inst, reserves, bad))


def test_gap_violation_or_suboptimal(gap_case):
    inst, out = gap_case
    bad = copy.deepcopy(out)
    first = min(bad["assignment"], key=lambda e: e["slot"])
    used = {e["rank"] for e in bad["assignment"] if e["type"] == first["type"]}
    bad["assignment"] = [e for e in bad["assignment"] if e["slot"] != first["slot"] + 1]
    # the one-slot self-gap forbids a same-type ad right after another
    bad["assignment"].append({"slot": first["slot"] + 1, "type": first["type"],
                              "rank": max(used) + 1})
    assert any("gap rules" in p for p in checks.check_gap(inst, bad))
    bad = copy.deepcopy(out)
    dropped = bad["assignment"].pop()
    V, ads = checks._edges(inst)
    bad["welfare"] -= V[ads.index((dropped["type"], dropped["rank"])), dropped["slot"]]
    assert any("gap optimum" in p for p in checks.check_gap(inst, bad))


def test_gap_feasibility_rule():
    gap = [[1, 2], [0, 0]]
    assert checks.gap_feasible(gap, [(0, 0), (3, 1)])
    assert not checks.gap_feasible(gap, [(0, 0), (2, 1)])
    assert checks.gap_feasible(gap, [(0, 1), (1, 0)])
    assert not checks.gap_feasible(gap, [(0, 0), (1, 0)])


def test_refused_raised_or_missing_output_fails(tmp_path, gap_case):
    import run

    inst, out = gap_case
    (tmp_path / "op").mkdir()
    src, dst = tmp_path / "op" / "in.json", tmp_path / "op" / "out.json"
    src.write_text(json.dumps(inst))
    op = workloads.Op(("solve",), src, dst)
    assert run.check_op("gap-rules", op, 1) == ["exited 1"]
    assert run.check_op("gap-rules", op, None) == ["raised"]
    assert run.check_op("gap-rules", op, 0)  # no output written
    dst.write_text(json.dumps(out))
    assert run.check_op("gap-rules", op, 0) == []


def test_gap_shapes_cover_the_dp():
    # every shape keeps the one-slot self-gaps; the round uses every shape
    for cross in workloads.GAP_SHAPES:
        gap = workloads.gap_instance(np.random.default_rng(0), cross=cross)["gap"]
        assert all(gap[t][t] == 1 for t in range(3))
    assert set(workloads.GAP_ROUND) == set(range(len(workloads.GAP_SHAPES)))
    assert workloads.WORKLOADS["gap-rules"].num_ops(25) % len(workloads.GAP_ROUND) == 0
