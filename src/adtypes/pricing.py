"""Incentive-compatible payments for the slot allocation mechanisms.

Four pricing routes:

* fast VCG: the point-wise minimal competitive-equilibrium slot prices,
  which are the VCG prices, read off the solver's certified duals in one
  shortest-path pass over the slots;
* naive VCG, its oracle: re-solve with each winner's bid at 0 and charge
  the externality;
* reserve pricing without changepoint computation: each winner pays the
  welfare with its bid lowered to its reserve less the others' welfare now,
  that welfare read off the same certified duals by one shortest-path pass
  over the slots that every winner shares and a local pass per winner, so
  the allocator runs once and the winners together cost about one solve;
* a changepoint oracle for exact welfare maximizers: it sums bid x
  allocation-jump over the changepoints of one ad's allocation curve, found
  where welfare tangents cross, and refuses an allocator that returns no
  :class:`OptimalSolution`.

The shortest-path passes are heap Dijkstras over the moves the solver's own
candidate scan keeps on the final matching
(:func:`~adtypes.hungarian.slot_movers`): O(kn) of them, read from the
solver's lists.

Tolerances come from :mod:`adtypes.core`: certificates and utilities are
compared within ``scaled_tol`` (relative to the largest edge value), welfare
tangents within ``tol_for`` the welfare.  The changepoint oracle compares
quantities (discounts), which do not scale with the values, within a fixed
1e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Mapping

from .core import (
    AdRef,
    Instance,
    Matching,
    TypeSpec,
    ValidationError,
    edge_value,
    matching_to_list,
    scaled_tol,
    tol_for,
    with_bid,
)
from .hungarian import OptimalSolution, certify, slot_movers, solve_adtypes


class NonMonotoneAllocationError(RuntimeError):
    """The probed allocation decreased in the bid; carries a counterexample."""

    def __init__(self, bid_lo, bid_hi, q_lo, q_hi):
        self.counterexample = (bid_lo, bid_hi, q_lo, q_hi)
        super().__init__(
            f"allocation not monotone: x({bid_lo:g})={q_lo:g} but "
            f"x({bid_hi:g})={q_hi:g}")


@dataclass
class PricedOutcome:
    """A matching plus per-ad payments.  Losers and filtered bidders pay 0.
    ``min_raw_payment`` records the most negative pre-clamp payment so tests
    can assert clamping never exceeded rounding noise."""

    matching: Matching
    payments: dict[AdRef, float]
    mechanism: str
    min_raw_payment: float = 0.0


def received_discount(inst: Instance, m: Matching, ad: AdRef) -> float:
    """The discount ``ad`` gets in ``m``, or 0."""
    slot = m.slot_of(ad)
    return 0.0 if slot is None else inst.types[ad.ad_type].discounts[slot]


def _priced_outcome(inst: Instance, matching: Matching,
                    real: Mapping[AdRef, AdRef], raw: Mapping[AdRef, float],
                    mechanism: str) -> PricedOutcome:
    """``matching`` with its ads mapped to ``inst``'s by ``real`` (padding
    drops out); each ad charged in ``raw`` pays its charge clamped at 0, and
    every other real ad of ``inst`` pays 0."""
    payments = dict.fromkeys(inst.real_ads(), 0.0)
    payments.update((real[ad], max(0.0, charge)) for ad, charge in raw.items())
    m = Matching([(s, real[ad]) for s, ad in matching.pairs if ad in real])
    return PricedOutcome(m, payments, mechanism, min([0.0, *raw.values()]))


@dataclass(frozen=True)
class ReserveVector:
    """Per-ad minimum bids; ads missing from the mapping have reserve 0."""

    by_ad: tuple[tuple[AdRef, float], ...]

    def __init__(self, reserves: Mapping[AdRef, float] | ReserveVector | None):
        if isinstance(reserves, ReserveVector):
            reserves = reserves._lookup
        items = tuple(sorted((reserves or {}).items()))
        if not all(math.isfinite(r) and r >= 0 for _, r in items):
            raise ValidationError("reserves must be finite and non-negative")
        object.__setattr__(self, "by_ad", items)
        object.__setattr__(self, "_lookup", dict(items))

    def get(self, ad: AdRef) -> float:
        return self._lookup.get(ad, 0.0)

    def remap(self, ad_map: Mapping[AdRef, AdRef]) -> "ReserveVector":
        return ReserveVector({ad_map.get(ad, ad): r for ad, r in self.by_ad})


# ---------------------------------------------------------------------------
# Shortest paths over the slots of a certified solution

def _dijkstra(dist: list[float], sources: Iterable[int],
              moves: list[list[int]], length: Callable) -> list[int]:
    """Distances over the slots from the start distances ``dist`` of the
    ``sources``, in place: settle the nearest unsettled slot x, lower each
    unsettled slot y in ``moves[x]`` to ``dist[x] + length(x, y)`` where
    that is smaller, repeat.  A slot that is not a source enters only once
    lowered below its start distance, which thus bounds the search.  The
    lengths are reduced costs, never negative, so each slot settles once.
    Returns the settled slots in order."""
    settled = [False] * len(dist)
    order = []
    heap = [(dist[x], x) for x in sources]
    heapify(heap)
    while heap:
        d, x = heappop(heap)
        if settled[x]:
            continue
        settled[x] = True
        order.append(x)
        for y in moves[x]:
            if not settled[y]:
                dy = d + length(x, y)
                if dy < dist[y]:
                    dist[y] = dy
                    heappush(heap, (dy, y))
    return order


class _SlotPaths:
    """What changing one winner costs the others, read off a certified
    solution by Dijkstra over the slots, with no re-solve.

    Write ``M`` for the certified matching and ``slack(a, s) = u_a + p_s -
    v_a * alpha_{t(a), s}`` for ad a's reduced cost in slot s.  The duals are feasible, so every slack is
    non-negative, and tight, so a matched edge's slack is 0; a loser has
    ``u = 0`` and an empty slot ``p = 0``, so the welfare ``W`` is the sum
    of all duals.  Hence any matching falls short of ``W`` by the slacks of
    its edges plus the duals it leaves uncovered: ``u`` for each ad it does
    not place and ``p`` for each slot it leaves empty.  Every term is
    non-negative, so the best matching after a change is a shortest path
    with non-negative lengths (Tomizawa 1971; Mills-Tettey, Stentz & Dias
    2007, "The Dynamic Hungarian Algorithm"), and Dijkstra finds it.

    * ``vacate[y]``, the first pass: the least shortfall of repairing a
      vacancy at slot y.  The vacancy is left open (``p_y``), filled by a
      loser (its slack; each type's lowest-rank loser is the cheapest), or
      filled by the ad of a slot s, which moves the vacancy to s
      (``vacate[s] + slack(ad at s, y)``).  Slot y's VCG price is
      ``p_y - vacate[y]``, and without the winner i at slot ``s_i`` the
      others' best welfare is ``W_{-i} = W - u_i - vacate[s_i]``.
    * ``D0[y]``, the second pass, run on the first :meth:`lowered_welfare`
      call, since VCG prices read only ``vacate``: the least cost of
      making room at slot y when a displaced ad may be dropped.  The ad at
      y is dropped (``u``), or it takes another slot x, displacing x's ad
      in turn (``D0[x] + slack(ad at y, x)``).  An empty slot holds an ad
      of value and utility 0 that no scan lists as a mover: room there
      costs 0, and nothing moves out of it.
    * :meth:`lowered_welfare`, one local pass per winner: the welfare with
      i bidding r.  Either i is left out (``W_{-i}``), or it takes a slot j
      and earns ``r * alpha_{t_i, j}``, the others keeping ``W - u_i - p_j``
      less ``room[j]``, the least cost of making room at j once i has
      left ``s_i``.  The ad at j is displaced, and so is each ad it
      displaces in turn.  Either the chain ends in a dropped ad and the
      vacancy at ``s_i`` is repaired apart (``vacate[s_i] + D0[j]``), or
      it ends in ``s_i`` itself, which closes it at no further cost:
      ``d_i(j)``, a Dijkstra from ``d_i(s_i) = 0`` over the same moves.
      So ``room[j] = min(vacate[s_i] + D0[j], d_i(j))``, and the welfare
      is the largest of ``W_{-i}``; the far term ``W - u_i - vacate[s_i]
      + max_j (r * alpha_{t_i, j} - p_j - D0[j])``; and the placed term
      ``max_j (r * alpha_{t_i, j} + W - u_i - p_j - d_i(j))`` over the
      slots the local pass settles.

    Why ``D0`` can be shared by every winner.  ``D0`` is computed with the
    ad at ``s_i`` in place, and that ad is gone once i bids r, so ``D0``
    may route through ``s_i``.  Any such path costs at least its part from
    ``s_i`` on, which is a path of ``d_i``, and ``vacate[s_i] >= 0``; so
    wherever such a path is the shortest, ``d_i(j)`` is no larger and the
    min is still exact.  The local pass pushes y only while ``d_i(y) <
    vacate[s_i] + D0[y]``, and that is exact too.  ``D0`` obeys the same
    moves, ``D0[y] <= D0[x] + slack(ad at y, x)``, so a slot x that fails
    the test on a shortest path of ``d_i`` makes every later slot y on it
    fail as well.  Every slot where ``d_i`` beats the far term is thus
    reached along its shortest path, and the far term covers the rest.

    Why one pass per winner is exact.  With i left out and slot j taken,
    the others' best is ``W - u_i - p_j`` less the least shortfall, counted
    as above, of a matching of the other ads into the other slots.  Compare
    such a matching with ``M`` less i and less j's ad: their symmetric
    difference is alternating paths and cycles.  A component that touches
    neither deficient vertex (j's displaced ad, the vacancy at ``s_i``)
    falls short by at least 0, so undoing it loses nothing.  That leaves
    one chain from the displaced ad into ``s_i``, or two disjoint chains,
    one from each: the two-chain case, where the chain from j drops an ad
    while ``s_i`` is refilled from outside.  ``room`` prices that second
    chain by ``vacate[s_i]``, which was computed with slot j and its ad in
    place, so the two chains it pairs may share a slot z.  The pair still
    costs no less than some matching: follow the chain from j up to z and
    then the other one backwards from z into ``s_i``; that is one chain
    into ``s_i``, and what it cuts off has non-negative length.  So the
    least cost over the pairs ``room`` prices is the least over matchings.
    ``W_{-i}`` is the one-deficiency case: the vacancy at ``s_i`` alone.

    Why the solver's scan pruning is exact here.  Both passes move an ad
    a into a slot x only when :func:`~adtypes.hungarian.slot_movers` lists
    a for x.  Let a and w be ads of one type, w matched at ``y_w``; with
    feasible duals and tight matched edges, ``slack(a, x) - slack(w, x) -
    slack(a, y_w) = (v_a - v_w) * (alpha_{y_w} - alpha_x)``.  The scan
    drops a from x only when a listed witness w makes that non-negative,
    so the move "a into x" costs at least the two moves "w into x, then a
    into ``y_w``", which end with the same slots filled.  The scan never
    lists, and never takes as a witness, the ad at x itself, so in the
    ``vacate`` pass w is never the ad that left, and in the ``D0`` pass
    every ad is in place.  In a winner's pass w may be the winner itself,
    at ``s_i``; then ``d_i(s_i) = 0`` makes "a into ``s_i``" cost no more
    than the dropped move.  Losers move only as each type's lowest-rank
    loser, the scan's head.

    The ``vacate`` and ``D0`` passes settle n slots each through O(kn)
    moves (more where values or discounts tie) on a heap: O(kn log n)
    time.  A winner's pass settles only the slots where a chain into
    ``s_i`` beats ``vacate[s_i] + D0``, about half of them on
    :func:`~adtypes.bench.gen_scaling_instance` at n=400, plus O(n) for
    the far term; ``settled`` counts the slots all passes settle.  Memory
    is O(kn).  A solution that fails :func:`certify` is refused with
    ValidationError.
    """

    def __init__(self, inst: Instance, sol: OptimalSolution):
        report = certify(inst, sol)
        if not report.passed:
            raise ValidationError(["solution fails certification: "
                                   + "; ".join(report.messages)])
        n = inst.num_slots
        self.p = p = sol.duals.p
        self.welfare = sol.welfare
        u = sol.duals.u
        losers, self.movers = slot_movers(inst, sol.matching)
        # per slot: its ad's discounts, value and utility; an empty slot
        # holds an ad of value and utility 0 that never moves
        self.d_at = [None] * n
        self.v_at = [0.0] * n
        self.u_at = [0.0] * n
        for slot, ad in sol.matching.pairs:
            self.d_at[slot] = inst.types[ad.ad_type].discounts
            self.v_at[slot] = inst.value_of(ad)
            self.u_at[slot] = u[ad.ad_type][ad.rank]
        # a vacancy is left open (p) or filled by a type's lowest-rank loser
        start = list(p)
        for ad in losers:
            u_a, v_a = u[ad.ad_type][ad.rank], inst.value_of(ad)
            row = inst.types[ad.ad_type].discounts
            start = [min(d, u_a + p_y - v_a * a)
                     for d, p_y, a in zip(start, p, row)]
        # vacate follows the moves backwards, from the slot an ad leaves to
        # the slot it repairs
        into: list[list[int]] = [[] for _ in range(n)]
        for y, slots in enumerate(self.movers):
            for s in slots:
                into[s].append(y)
        u_at, v_at, d_at = self.u_at, self.v_at, self.d_at
        self.vacate = start
        # the ad at s moves into y
        self.settled = len(_dijkstra(start, range(n), into, lambda s, y: (
            u_at[s] + p[y] - v_at[s] * d_at[s][y])))
        # the ad at y moves into x
        self._move = lambda x, y: u_at[y] + p[x] - v_at[y] * d_at[y][x]

    @cached_property
    def d0(self) -> list[float]:
        """Room at each slot y with a displaced ad dropped: the ad at y is
        dropped or moves into x, displacing x's ad in turn.  Only
        :meth:`lowered_welfare` reads it, so the pass runs on its first
        call and VCG prices never pay for it."""
        d0 = list(self.u_at)
        self.settled += len(_dijkstra(d0, range(len(d0)), self.movers,
                                      self._move))
        return d0

    @cached_property
    def _p_d0(self) -> list[float]:
        return [p_y + d for p_y, d in zip(self.p, self.d0)]

    def lowered_welfare(self, s_i: int, r: float) -> float:
        """The welfare with the ad at slot ``s_i`` bidding ``r``."""
        repair = self.vacate[s_i]
        others = self.welfare - self.u_at[s_i]
        alpha = self.d_at[s_i]
        far = max(r * a - q for a, q in zip(alpha, self._p_d0))
        # the chains into s_i, searched only where they beat repair + D0;
        # s_i settles first, so nothing moves into it: its ad is gone
        room = [repair + d for d in self.d0]
        room[s_i] = 0.0
        near = _dijkstra(room, (s_i,), self.movers, self._move)
        self.settled += len(near)
        p = self.p
        placed = max(r * alpha[j] + others - p[j] - room[j] for j in near)
        return max(others - repair, others - repair + far, placed)


# ---------------------------------------------------------------------------
# VCG

def vcg_prices_fast(inst: Instance, sol: OptimalSolution) -> tuple[float, ...]:
    """Point-wise minimal competitive-equilibrium slot prices, which are the
    VCG prices, from a certified solution in one shortest-path pass.

    Lowering slot j's price by ``d_j`` raises its ad's utility as much.
    Feasibility caps ``d_j`` by ``p_j``, by the slack of each loser in j and
    by ``d_s + slack(ad at s, j)`` for each slot s; the greatest such ``d``
    is the distance ``vacate`` of :class:`_SlotPaths`, and slot j's price is
    ``p_j - d_j``.  An empty slot counts as holding an ad of value 0, so its
    price too lies between 0 and ``p_j``.
    """
    paths = _SlotPaths(inst, sol)
    return tuple(max(0.0, p - d) for p, d in zip(paths.p, paths.vacate))


def vcg_prices_naive(inst: Instance) -> tuple[float, ...]:
    """Definitional VCG: for each winner, re-solve with its bid lowered to 0
    (the welfare of the others without it) and charge the drop in everyone
    else's welfare.  One solve per slot plus one."""
    sol = solve_adtypes(inst)
    total = sol.welfare
    prices = [0.0] * inst.num_slots
    for slot, ad in sol.matching.pairs:
        others_now = total - edge_value(inst, ad, slot)
        others_best = solve_adtypes(with_bid(inst, ad, 0.0)[0]).welfare
        prices[slot] = max(0.0, others_best - others_now)
    return tuple(prices)


def vcg_outcome(inst: Instance) -> PricedOutcome:
    """Full VCG mechanism: optimal allocation, winners pay their slot's
    minimal feasible price, losers pay 0.  The outcome's matching names real
    ads only; slots the solver filled with zero-value padding are left out."""
    sol = solve_adtypes(inst)
    prices = vcg_prices_fast(inst, sol)
    real = {ad: ad for ad in inst.real_ads()}
    raw = {ad: prices[slot] for slot, ad in sol.matching.pairs if ad in real}
    return _priced_outcome(inst, sol.matching, real, raw, "vcg")


# ---------------------------------------------------------------------------
# Reserve pricing without changepoint computation

def filter_by_reserves(inst: Instance, reserves: ReserveVector):
    """Drop real ads bidding below their reserve.  Returns the filtered
    instance plus the map from surviving original refs to filtered refs.  A
    reserve for an ad the instance does not have (a type out of range, or a
    rank past the type's real ads) raises :class:`ValidationError`."""
    unknown = [ad for ad, _ in reserves.by_ad
               if not (0 <= ad.ad_type < inst.num_types
                       and 0 <= ad.rank < inst.real_counts[ad.ad_type])]
    if unknown:
        raise ValidationError(
            "reserves name ads the instance does not have: "
            + ", ".join(f"type {ad.ad_type} rank {ad.rank}" for ad in unknown))
    keep_map: dict[AdRef, AdRef] = {}
    types = []
    for t, spec in enumerate(inst.types):
        kept = []
        for r in range(inst.real_counts[t]):
            ad = AdRef(t, r)
            if spec.values[r] >= reserves.get(ad):
                keep_map[ad] = AdRef(t, len(kept))
                kept.append(spec.values[r])
        types.append(TypeSpec(spec.name, kept, spec.discounts))
    return Instance(inst.num_slots, types, inst.gap), keep_map


def price_with_reserves(inst: Instance, reserves: ReserveVector | Mapping | None,
                        allocator=solve_adtypes) -> PricedOutcome:
    """Incentive-compatible pricing with eager per-bidder reserves.

    Bidders below their reserve are filtered and pay 0.  Each surviving
    bidder is charged the harm to the others of it bidding its value rather
    than its reserve, plus the reserve for whatever it would still win at the
    reserve bid.  With ``x`` its quantity now, ``W`` the welfare now and
    ``W(b -> r)`` the welfare with its bid lowered to its reserve, the reserve
    terms cancel and the charge is ``W(b -> r) - (W - x * b)``.  Bidders that
    win nothing pay 0.

    ``allocator`` runs once, and its result is certified and rejected if the
    certificate fails, so it must be an exact welfare maximizer with duals.
    Each ``W(b -> r)`` then comes from those duals, not from a re-solve
    (:meth:`_SlotPaths.lowered_welfare`, where the proof is, the two-chain
    case and the shared ``D0`` pass included, and why the solver's scan
    pruning is exact).  Two passes over all the slots serve every winner;
    then each winner with positive quantity gets a local pass that settles
    only the slots where a chain into its own slot beats the shared pass,
    plus O(n) for the far term.  So a winner costs O(n) plus O(k log n)
    per slot it settles, at most O(kn log n), on top of the one solve
    (more where values or discounts tie), in O(kn) memory.
    """
    reserves = ReserveVector(reserves)
    filtered, keep_map = filter_by_reserves(inst, reserves)
    sol = allocator(filtered)
    if not isinstance(sol, OptimalSolution):
        raise ValidationError(["allocator must return a certifiable solution "
                               "with duals; inexact allocators are rejected"])
    total = sol.welfare
    paths = _SlotPaths(filtered, sol)
    inv = {kept: orig for orig, kept in keep_map.items()}
    raw = {}
    for slot, kept in sol.matching.pairs:
        orig = inv.get(kept)
        x_now = filtered.types[kept.ad_type].discounts[slot]
        if orig is None or x_now == 0.0:
            continue  # padding, or individual rationality caps it at 0
        lowered = paths.lowered_welfare(slot, reserves.get(orig))
        raw[kept] = lowered - (total - x_now * inst.value_of(orig))
    return _priced_outcome(inst, sol.matching, inv, raw, "reserve")


def reserve_mechanism(reserves: ReserveVector | Mapping | None) -> Callable:
    """Mechanism closure for audits: remaps the reserves when ranks shift."""
    base = ReserveVector(reserves)

    def run(inst: Instance, ad_map: Mapping[AdRef, AdRef] | None):
        res = base.remap(ad_map) if ad_map else base
        return price_with_reserves(inst, res)

    return run


def vcg_mechanism() -> Callable:
    def run(inst: Instance, ad_map):
        return vcg_outcome(inst)

    return run


# ---------------------------------------------------------------------------
# Myerson changepoint oracle

def myerson_changepoint_prices(inst: Instance, allocator, ad: AdRef,
                               r: float) -> float:
    """Price the probed ad by scanning its allocation curve: the payment is
    the sum over allocation changepoints of bid x quantity-jump, with the
    reserve as the first changepoint.

    ``allocator`` must be an exact welfare maximizer that returns an
    :class:`OptimalSolution`; its welfare is convex in one bid, so the
    changepoints are where welfare tangents cross.  An allocator that
    returns anything else is refused with :class:`ValidationError`.
    Raises :class:`NonMonotoneAllocationError` when the probed allocation
    decreases.
    """
    bid = inst.value_of(ad)
    if bid < r:
        return 0.0
    seen: dict[float, tuple[float, float]] = {}

    def run(b: float):
        if b not in seen:
            inst_b, ref_b, _ = with_bid(inst, ad, b)
            out = allocator(inst_b)
            if not isinstance(out, OptimalSolution):
                raise ValidationError(
                    "allocator must return an OptimalSolution; the "
                    f"changepoint oracle refuses a {type(out).__name__}")
            seen[b] = out.welfare, received_discount(inst_b, out.matching,
                                                     ref_b)
        return seen[b]

    return _envelope_payment(run, r, bid)


def _envelope_payment(f, lo: float, hi: float) -> float:
    jumps: list[tuple[float, float, float]] = []

    def rec(a: float, b: float, depth: int):
        if depth > 60:
            raise RuntimeError("changepoint search failed to converge")
        w_a, x_a = f(a)
        w_b, x_b = f(b)
        if x_b < x_a - 1e-12:
            raise NonMonotoneAllocationError(a, b, x_a, x_b)
        if x_b - x_a <= 1e-12:
            return
        # tangents through the endpoints; convexity puts their crossing inside
        cross = ((w_b - x_b * b) - (w_a - x_a * a)) / (x_a - x_b)
        cross = min(max(cross, a), b)
        if cross in (a, b):
            jumps.append((cross, x_a, x_b))
            return
        w_c, x_c = f(cross)
        line = w_a + x_a * (cross - a)
        if w_c - line <= tol_for(w_c):
            jumps.append((cross, x_a, x_b))
        else:
            rec(a, cross, depth + 1)
            rec(cross, b, depth + 1)

    rec(lo, hi, 0)
    payment = lo * f(lo)[1]
    for b, x_left, x_right in sorted(jumps):
        payment += b * (x_right - x_left)
    return payment


# ---------------------------------------------------------------------------
# Deviation audit

@dataclass
class DeviationReport:
    ad: AdRef
    truthful_utility: float
    tried: list[tuple[float, float]] = field(default_factory=list)
    profitable: list[tuple[float, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.profitable


def test_ic_deviation(inst: Instance, mechanism: Callable, ad: AdRef,
                      deviations) -> DeviationReport:
    """Check that no sampled misreport beats truthful bidding for ``ad`` by
    more than :func:`~adtypes.core.scaled_tol`.

    ``mechanism(instance, ad_map)`` must return a :class:`PricedOutcome`;
    ``ad_map`` carries the rank shifts caused by re-sorting the probed bid.
    Not a pytest case despite the name: this is the audit the suite drives.
    """
    value = inst.value_of(ad)
    truth = mechanism(inst, None)
    u_true = value * received_discount(inst, truth.matching, ad) - \
        truth.payments.get(ad, 0.0)
    report = DeviationReport(ad, u_true)
    tol = scaled_tol(inst)
    for b in deviations:
        if b < 0:
            continue
        inst_b, ref_b, rank_map = with_bid(inst, ad, b)
        ad_map = {AdRef(ad.ad_type, old): AdRef(ad.ad_type, new)
                  for old, new in rank_map.items()}
        out = mechanism(inst_b, ad_map)
        u_dev = value * received_discount(inst_b, out.matching, ref_b) - \
            out.payments.get(ref_b, 0.0)
        report.tried.append((b, u_dev))
        if u_dev > u_true + tol:
            report.profitable.append((b, u_dev))
    return report


# ---------------------------------------------------------------------------
# Wire format

def priced_outcome_to_dict(out: PricedOutcome) -> dict:
    return {
        "assignment": matching_to_list(out.matching),
        "payments": [{"type": ad.ad_type, "rank": ad.rank, "pay": pay}
                     for ad, pay in sorted(out.payments.items())],
        "mechanism": out.mechanism,
    }
