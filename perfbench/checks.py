"""Independent checks of the CLI's outputs.

Nothing here imports adtypes: optima come from ``scipy.optimize`` (the
assignment solver and the MILP solver), and welfare, gap feasibility,
envy-freeness and the payment identities are recomputed from the instance
JSON.  Each check returns a list of problems; an empty list means the output
passed.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp

REL_TOL = 1e-9  # relative to the instance's welfare; observed error is ~1e-13


def _edges(inst: dict) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Rows = real ads in (type, rank) order, columns = slots."""
    n = inst["num_slots"]
    rows, ads = [], []
    for t, spec in enumerate(inst["types"]):
        disc = np.asarray(spec["discounts"], dtype=float)
        for r, v in enumerate(spec["values"][:n]):
            rows.append(float(v) * disc)
            ads.append((t, r))
    return np.asarray(rows).reshape(len(ads), n), ads


def _best(values: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(values, maximize=True)
    return float(values[rows, cols].sum())


def _parse_assignment(inst: dict, out: dict, ads, problems: list[str]):
    """Slot -> row index of the assigned ad, after range and injectivity
    checks.  Returns None when the assignment is malformed."""
    row_of = {ad: i for i, ad in enumerate(ads)}
    by_slot: dict[int, int] = {}
    for e in out.get("assignment", []):
        slot, ad = e["slot"], (e["type"], e["rank"])
        if not 0 <= slot < inst["num_slots"] or ad not in row_of:
            problems.append(f"assignment entry out of range: {e}")
            return None
        if slot in by_slot or row_of[ad] in by_slot.values():
            problems.append(f"slot or ad assigned twice: {e}")
            return None
        by_slot[slot] = row_of[ad]
    return by_slot


def _payments(out: dict, ads, problems: list[str]) -> np.ndarray | None:
    pay = {(e["type"], e["rank"]): float(e["pay"]) for e in out.get("payments", [])}
    if set(pay) != set(ads):
        problems.append("payments do not list every real ad exactly once")
        return None
    return np.asarray([pay[ad] for ad in ads])


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale))


def check_vcg(inst: dict, out: dict, sample_every: int = 100) -> list[str]:
    """Optimal welfare; envy-free and individually rational payments; and,
    for the winners of every ``sample_every``-th slot, payment equal to the
    externality (best welfare of the others without the ad minus their
    welfare now)."""
    problems: list[str] = []
    V, ads = _edges(inst)
    by_slot = _parse_assignment(inst, out, ads, problems)
    pay = _payments(out, ads, problems)
    if by_slot is None or pay is None:
        return problems
    w = sum(V[a, s] for s, a in by_slot.items())
    best = _best(V)
    if not _close(w, best, best):
        problems.append(f"welfare {w!r} is not the optimum {best!r}")
    n = inst["num_slots"]
    winners = set(by_slot.values())
    price = np.zeros(n)
    for s, a in by_slot.items():
        price[s] = pay[a]
    utility = np.zeros(len(ads))
    for s, a in by_slot.items():
        utility[a] = V[a, s] - pay[a]
    tol = REL_TOL * max(1.0, best)
    losers = [a for a in range(len(ads)) if a not in winners]
    if losers and np.abs(pay[losers]).max() > tol:
        problems.append("a losing ad pays")
    if utility.min() < -tol:
        problems.append(f"not individually rational: utility {utility.min()!r}")
    envy = (V - price[None, :]).max(axis=1) - utility
    if envy.max() > tol:
        problems.append(f"not envy-free: an ad prefers another slot by {envy.max()!r}")
    for s in range(0, n, sample_every):
        a = by_slot.get(s)
        if a is None:
            continue
        without = _best(np.delete(V, a, axis=0))
        externality = without - (w - V[a, s])
        if not _close(pay[a], externality, best):
            problems.append(f"slot {s}: payment {pay[a]!r} != externality {externality!r}")
    return problems


def check_reserve(inst: dict, reserves: list[dict], out: dict) -> list[str]:
    """Ads below their reserve are unassigned and pay 0; losers pay 0; each
    winner pays between reserve x quantity and bid x quantity; and every
    payment equals max(0, W(bid -> reserve) - W + quantity x bid), with W
    the best welfare over the ads that meet their reserve."""
    problems: list[str] = []
    V, ads = _edges(inst)
    by_slot = _parse_assignment(inst, out, ads, problems)
    pay = _payments(out, ads, problems)
    if by_slot is None or pay is None:
        return problems
    res = {(e["type"], e["rank"]): float(e["reserve"]) for e in reserves}
    bid = np.asarray([inst["types"][t]["values"][r] for t, r in ads], dtype=float)
    reserve = np.asarray([res.get(ad, 0.0) for ad in ads])
    kept = bid >= reserve
    slot_of = {a: s for s, a in by_slot.items()}
    quantity = np.zeros(len(ads))
    for a, s in slot_of.items():
        t, _ = ads[a]
        quantity[a] = inst["types"][t]["discounts"][s]
    w_out = sum(V[a, s] for s, a in by_slot.items())
    Vk = V * kept[:, None]
    best = _best(Vk)
    tol = REL_TOL * max(1.0, best)
    if not _close(w_out, best, best):
        problems.append(f"welfare {w_out!r} is not the optimum {best!r}")
    for a in range(len(ads)):
        if not kept[a]:
            if a in slot_of or abs(pay[a]) > tol:
                problems.append(f"ad {ads[a]} is below its reserve but wins or pays")
            continue
        if a not in slot_of:
            if abs(pay[a]) > tol:
                problems.append(f"losing ad {ads[a]} pays {pay[a]!r}")
        elif not (reserve[a] * quantity[a] - tol <= pay[a] <= bid[a] * quantity[a] + tol):
            problems.append(f"ad {ads[a]} pays {pay[a]!r} outside "
                            f"[reserve x q, bid x q]")
        lowered = Vk.copy()
        lowered[a] *= reserve[a] / bid[a]
        expected = max(0.0, _best(lowered) - best + quantity[a] * bid[a])
        if not _close(pay[a], expected, best):
            problems.append(f"ad {ads[a]}: payment {pay[a]!r} != {expected!r}")
    return problems


def gap_feasible(gap, pairs: list[tuple[int, int]]) -> bool:
    """``pairs`` are (slot, type).  A type-i ad in slot s blocks type j from
    slots s+1 .. s+gap[i][j]."""
    pairs = sorted(pairs)
    return all(s2 - s1 > gap[t1][t2]
               for i, (s1, t1) in enumerate(pairs) for s2, t2 in pairs[i + 1:])


def gap_optimum(inst: dict) -> float:
    """Best gap-feasible welfare by MILP: x[a, s] = 1 puts real ad a in slot
    s; each slot and ad used at most once; y[t, s] = sum of x over type t's
    ads in slot s, and y[i, s1] + y[j, s2] <= 1 whenever 0 < s2 - s1 <=
    gap[i][j]."""
    V, ads = _edges(inst)
    m, n = V.shape
    gap = inst["gap"]
    k = len(inst["types"])
    rows = []
    for s in range(n):
        row = np.zeros((m, n))
        row[:, s] = 1
        rows.append(row)
    for a in range(m):
        row = np.zeros((m, n))
        row[a, :] = 1
        rows.append(row)
    type_rows = [np.asarray([t == i for t, _ in ads], dtype=float) for i in range(k)]
    for i in range(k):
        for j in range(k):
            for s1 in range(n):
                for s2 in range(s1 + 1, min(n, s1 + gap[i][j] + 1)):
                    row = np.zeros((m, n))
                    row[:, s1] += type_rows[i]
                    row[:, s2] += type_rows[j]
                    rows.append(row)
    A = np.asarray([r.ravel() for r in rows])
    res = milp(-V.ravel(), constraints=LinearConstraint(A, -np.inf, 1),
               integrality=np.ones(m * n), bounds=Bounds(0, 1),
               options={"mip_rel_gap": 0.0})
    if not res.success:
        raise RuntimeError(f"MILP oracle failed: {res.message}")
    x = np.round(res.x).reshape(m, n)
    return float((V * x).sum())


def check_gap(inst: dict, out: dict) -> list[str]:
    """Gap-feasible assignment, stated welfare equal to its recomputed
    value, and welfare equal to the MILP optimum."""
    problems: list[str] = []
    V, ads = _edges(inst)
    by_slot = _parse_assignment(inst, out, ads, problems)
    if by_slot is None:
        return problems
    if not gap_feasible(inst["gap"], [(s, ads[a][0]) for s, a in by_slot.items()]):
        problems.append("assignment violates the gap rules")
    w = sum(V[a, s] for s, a in by_slot.items())
    if not _close(float(out.get("welfare", float("nan"))), w, w):
        problems.append(f"stated welfare {out.get('welfare')!r} != recomputed {w!r}")
    best = gap_optimum(inst)
    if not _close(w, best, best):
        problems.append(f"welfare {w!r} is not the gap optimum {best!r}")
    return problems
