"""Specialized Hungarian solver for typed slot allocation.

Standard primal-dual matching, one phase per slot (best slot first), with two
structural shortcuts: the candidate scan when a slot joins the alternating
tree inspects only a few ads per type, and dual updates are implicit (a
single accumulated shift per phase plus per-node entry timestamps), written
back explicitly when the phase's augmenting path is applied.

The scan keeps an ad out of the queue only when a matched same-type witness
proves, by the crossing argument, that the ad's edge to the scanned slot can
never bind while the witness's matched edge stays tight; that proof needs
the witness to be strictly worse in value and strictly better in discount
(or vice versa).  With strictly decreasing values and discounts the witness
always exists and the scan touches at most three ads per type (unmatched
head, one matched below, one matched above); ties widen the scan just enough
to stay safe.  The argument needs only feasible duals with tight matched
edges, so it outlives the solve: :func:`slot_movers` reads the same
frontiers on the final matching for the pricing passes of
:mod:`adtypes.pricing`.

The duals certify optimality: feasible (u_i + p_j >= v_ij everywhere),
non-negative, tight on every matched edge, and zero on unmatched ads;
:func:`certify` checks them in O(kn) time and memory, reading feasibility
off one lower envelope per type (:func:`_least_slack`).

One function, :func:`_phase`, runs a phase over local variables: offer the
candidates the frontiers list for the slot that just joined the tree, pop
the next tight edge, grow the tree, and repeat until the pop reaches an
unmatched ad; then flip the augmenting path and write the duals back.  Its
counters go straight into :class:`SolveStats`.  Inside it an ad is the int
``a = t*n + r`` (type ``t``, rank ``r``, ``n`` slots).  The tree, the
best-key list, the heap entries, the per-type frontiers
(:func:`_frontiers`), the utilities ``u`` and the matching (``slot_ad`` and
``ad_slot``, with -1 for unmatched) are lists and dicts keyed by that int.
Every frontier has one shape, ``(head, near, disc)``, and the phase loop
reads each type's candidates as ``near[slot]``, with no call and no list
built per pop.  The frontier a pop reads changes only between phases, so
``near`` is a table: for each slot, the tuple of ``(ad, value)`` pairs the
scan lists there, built once per rebuild with one tuple per gap between
the type's matched slots, and the slots of a run of equal discounts that
holds a matched ad rewritten one by one.  An offer is one
multiplication and one key, ``u[a] + potential - value``, with the slot's
discount read once per type and its potential set when it joins the tree.
Tree membership lives in the best-key list: a popped ad's entry becomes
the sentinel ``_IN_TREE``, whose key no offer undercuts, so the offer loop
needs no membership test.
The frontiers are carried from phase to phase: a type's frontier reads only
that type's ads, so after each augmentation :func:`solve_adtypes` rebuilds
only the frontiers of the types whose ads the path moved.  :class:`AdRef`
and :class:`Matching` appear only at the edges: :func:`solve_adtypes`
reads the instance on the way in and builds the final matching (and the
per-phase ones, when ``collect_phase_matchings`` asks) on the way out.  A
solve can be followed phase by phase through :attr:`SolveStats.phases`
(printed by :meth:`SolveStats.trace_lines`) and
``collect_phase_matchings``.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Collection
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .core import (
    AdRef,
    Instance,
    Matching,
    ValidationError,
    has_gap_rules,
    scaled_tol,
    tol_for,
    welfare,
)


class PhaseInvariantError(ValidationError):
    """A phase broke an invariant that exact arithmetic guarantees: a queue
    key fell below the accumulated dual shift by more than the instance's
    tolerance (:func:`~adtypes.core.scaled_tol`).  Rounding can cause it;
    the solve is refused instead of returning duals that would not
    certify."""

    def __init__(self, phase: int, key: float, shift: float):
        self.phase = phase
        self.key = key
        self.shift = shift
        super().__init__(f"phase {phase}: queue key regressed "
                         f"(key {key!r}, shift {shift!r})")


@dataclass(frozen=True)
class DualSolution:
    """Per-ad utilities ``u`` (indexed [type][rank]) and slot prices ``p``."""

    u: tuple[tuple[float, ...], ...]
    p: tuple[float, ...]


@dataclass
class SolveStats:
    """Instrumentation collected during a solve.  ``phases`` holds one
    ``(root slot, pops, dual shift, path length)`` per phase.  Every heap
    push is popped live (a pop), popped stale (superseded by a lower key
    for the same ad, or the ad already in the tree) or left queued when its
    phase ends; ``heap_pushes`` counts all of them, ``stale_pops`` the
    second kind."""

    max_queue_occupancy: int = 0
    max_scan_candidates: int = 0
    heap_pushes: int = 0
    stale_pops: int = 0
    phases: list[tuple[int, int, float, int]] = field(default_factory=list)
    phase_matchings: list[Matching] | None = None

    @property
    def total_pops(self) -> int:
        return sum(pops for _, pops, _, _ in self.phases)

    # a phase scans its root, then each slot a pop adds: one scan per pop
    scan_calls = total_pops

    def trace_lines(self) -> list[str]:
        """One ``phase=j pops=... delta=... pathlen=...`` line per phase."""
        return [f"phase={j} pops={pops} delta={delta:g} pathlen={hops}"
                for j, pops, delta, hops in self.phases]


@dataclass
class OptimalSolution:
    matching: Matching
    duals: DualSolution
    welfare: float
    stats: SolveStats | None = None


class _Tables:
    """An instance's numbers as the phase loop reads them, built once per
    solve: ``val[a]`` for ``a = t*n + r``, the candidate pair ``pair[a] =
    (a, val[a])``, ``disc[t][slot]``, each type's runs of equal discounts
    ``runs[t]``, as ``(first, last)`` slots with ``first < last``, and the
    tolerance."""

    def __init__(self, inst: Instance):
        n = self.n = inst.num_slots
        self.k = inst.num_types
        self.val = [v for spec in inst.types for v in spec.values]
        self.pair = list(enumerate(self.val))
        self.disc = [spec.discounts for spec in inst.types]
        self.runs = []
        for d in self.disc:
            firsts = [s for s in range(n) if s == 0 or d[s] < d[s - 1]]
            self.runs.append([(f, end - 1) for f, end in
                              zip(firsts, firsts[1:] + [n]) if end - f > 1])
        self.tol = scaled_tol(inst)

    def initial_duals(self) -> tuple[list[float], list[float]]:
        """Zero utilities, and every slot priced at the largest edge value
        (the top ad in the top slot of the best type): feasible, since
        values and discounts are non-increasing."""
        n = self.n
        top = max(self.val[t * n] * self.disc[t][0] for t in range(self.k))
        return [0.0] * (self.k * n), [top] * n

    def matching(self, slot_ad: list[int]) -> Matching:
        return Matching([(s, AdRef(*divmod(a, self.n)))
                         for s, a in enumerate(slot_ad) if a >= 0])


def _frontiers(tables: _Tables, slot_ad: list[int], ad_slot: list[int],
               types: Collection[int]) -> list[tuple]:
    """The frontier of each type in ``types``, in that order, as ``(head,
    near, disc)``: the type's lowest unmatched ad (``None`` when all are
    matched), its candidates by slot and its discount curve.  ``near[x]``
    lists the ``(ad, value)`` pairs whose edge to slot x might yet go tight
    this phase, so the phase loop reads every type's candidates alike.
    ``slot_ad`` may end at the last filled slot.

    Take slot x, the run [f, l] of equal discounts on the type's curve
    that holds x (x alone on a strictly decreasing curve), v* the least
    value matched at a slot before f (inf if none) and w* the largest
    matched after l (-inf if none).  ``near[x]`` lists the head, the ads
    matched before x of value at most v* and the ads matched after x of
    value at least w*, never the ad at x itself.  That is the protected
    walk: from x outwards, list matched ads until one protects the rest,
    being strictly worse in value at a strictly better discount (the
    crossing argument), and then the ads tied with it in value.  An ad
    in x's own run has x's discount and protects nothing, so the first
    protector before x is an ad of value v* matched before f, the first
    after x one of value w* matched after l, and the walk lists exactly
    the ads above.

    Outside the runs that hold a matched ad, v* is the least value matched
    before x and w* the largest after it, so ``near[x]`` is the same for
    every slot between two of the type's matched slots: each gap's tuple
    is built once and repeated by list multiplication.  The slots of each
    run of equal discounts (:attr:`_Tables.runs`) that holds a matched ad
    are then rewritten by the formula; a strictly decreasing curve has no
    such run.

    A frontier reads only its own type's ads, so an augmentation changes
    only the frontiers of the types whose ads its path moved:
    :func:`solve_adtypes` keeps all k between phases and rebuilds just
    those, and a full build is every type."""
    n, val, pair = tables.n, tables.val, tables.pair
    by_slot: dict[int, list[tuple[int, int]]] = {t: [] for t in types}
    for s, a in enumerate(slot_ad):
        if a >= 0:
            pairs = by_slot.get(a // n)
            if pairs is not None:
                pairs.append((s, a))
    frontiers = []
    for t, pairs in by_slot.items():
        head, end, disc = t * n, t * n + n, tables.disc[t]
        while head < end and ad_slot[head] >= 0:
            head += 1
        head = head if head < end else None
        # ups[i]: the ads of the largest value matched at the i-th matched
        # slot or a later one; past the last one, nothing
        ups = []
        up, high = (), -math.inf
        for _, a in reversed(pairs):
            v = val[a]
            if v > high:
                up, high = (pair[a],), v
            elif v == high:
                up += (pair[a],)
            ups.append(up)
        ups.reverse()
        ups.append(())
        # down: the head and the ads of the least value matched below the slot
        top = () if head is None else (pair[head],)
        down, low = top, math.inf
        near: list[tuple] = []
        prev = -1
        for (s, a), up, up_past in zip(pairs, ups, ups[1:]):
            # the gap below s, then s itself, which skips its own ad
            near += [down + up] * (s - prev - 1)
            near.append(down + up_past)
            v = val[a]
            if v < low:
                down, low = top + (pair[a],), v
            elif v == low:
                down += (pair[a],)
            prev = s
        near += [down] * (n - 1 - prev)
        # a run of equal discounts that holds a matched ad: its slots list
        # the ads matched below them of at most the least value matched
        # before the run, and symmetrically above
        for f, l in tables.runs[t]:
            inner = [(s, pair[a]) for s, a in pairs if f <= s <= l]
            if not inner:
                continue
            low = min([val[a] for s, a in pairs if s < f], default=math.inf)
            high = max([val[a] for s, a in pairs if s > l], default=-math.inf)
            outer = top + tuple(pair[a] for s, a in pairs
                                if s < f and val[a] == low
                                or s > l and val[a] == high)
            for x in range(f, l + 1):
                near[x] = outer + tuple(c for s, c in inner
                                        if s < x and c[1] <= low
                                        or s > x and c[1] >= high)
        frontiers.append((head, near, disc))
    return frontiers


def slot_movers(inst: Instance, matching: Matching
                ) -> tuple[list[AdRef], list[list[int]]]:
    """The moves the solver's candidate scan keeps on a final ``matching``:
    each type's lowest-rank unmatched ad, and for each slot x the slots
    whose ad a frontier lists for x (:func:`_frontiers`).  With certified
    duals the crossing argument behind the scan still holds, so these are
    the only moves a shortest path over the slots needs (the proof is in
    :class:`adtypes.pricing._SlotPaths`)."""
    tables = _Tables(inst)
    n = tables.n
    slot_ad = [-1] * n
    ad_slot = [-1] * (tables.k * n)
    for s, ad in matching.pairs:
        slot_ad[s] = a = ad.ad_type * n + ad.rank
        ad_slot[a] = s
    frontiers = _frontiers(tables, slot_ad, ad_slot, range(tables.k))
    losers = [AdRef(*divmod(f[0], n)) for f in frontiers if f[0] is not None]
    movers = [[ad_slot[a] for _, near, _ in frontiers for a, _ in near[x]
               if ad_slot[a] >= 0] for x in range(n)]
    return losers, movers


# the best-key entry of an ad in the tree: no key is below it, so every
# later offer to that ad is skipped by the same test that drops a worse key
_IN_TREE = (-math.inf,)


def _phase(tables: _Tables, frontiers: list[tuple], slot_ad: list[int],
           ad_slot: list[int], u: list[float], p: list[float], root: int,
           stats: SolveStats) -> set[int]:
    """Phase ``root``: grow an alternating tree from slot ``root`` until it
    reaches an unmatched ad, flip that augmenting path into ``slot_ad`` and
    ``ad_slot``, and write the accumulated dual shift back into ``u`` and
    ``p``, all in place.  Appends ``(root, pops, shift, path length)`` to
    ``stats.phases``, adds to its heap counts and raises its running
    maxima.  Returns the types of the ads the path moved, the only ones
    whose entries in ``frontiers`` the flip made stale.

    The queue keys each candidate ad by the accumulated shift at which its
    best edge into the tree goes tight, so a pop is a dual update and a tree
    extension in one step.  Tree ads and slots record the shift at which
    they joined; the duals are written back once, at the end.  A popped ad's
    best-key entry becomes ``_IN_TREE``, which no later offer replaces.
    """
    n, tol = tables.n, tables.tol
    tree_ads: dict[int, float] = {}
    tree_slots: dict[int, float] = {root: 0.0}
    parent_slot: dict[int, int] = {}
    queue: list[tuple[float, float, int, int]] = []
    best: list[tuple | None] = [None] * (tables.k * n)
    max_queue, max_scan = stats.max_queue_occupancy, stats.max_scan_candidates
    delta = 0.0
    pops = stale = offered = 0
    slot = root
    potential = p[root]  # the root joins at shift 0
    while True:
        # offer the candidate edges into the slot that just joined the tree,
        # each type's read off its frontier by slot, lowering a candidate's
        # key when this edge goes tight sooner than its current best
        scanned = 0
        for _, near, disc in frontiers:
            ds = disc[slot]
            cands = near[slot]
            scanned += len(cands)
            for a, va in cands:
                value = ds * va
                key = u[a] + potential - value
                cur = best[a]
                if cur is None:
                    offered += 1
                elif not key < cur[0]:
                    continue
                # equal keys resolve in the global edge order: higher value,
                # then lower slot, lower type, lower rank
                entry = (key, -value, slot, a)
                best[a] = entry
                heappush(queue, entry)
        if scanned > max_scan:
            max_scan = scanned
        # the queued ads: every ad offered so far, less those popped into
        # the tree
        live = offered - pops
        if live > max_queue:
            max_queue = live
        # pop the live entry with minimal key and advance the shift to its
        # tightness point (the step can be zero); the queue never runs dry:
        # the root's scan queued every head (phase j starts with j of the
        # kn > j ads matched, so some type has one), and a head's live
        # entry leaves only by the pop that ends the phase
        while True:
            entry = heappop(queue)
            key, _, via, a = entry
            if best[a] is entry:
                break
            stale += 1  # superseded by a lower key, or already in the tree
        if key < delta - tol:
            raise PhaseInvariantError(root, key, delta)
        if key > delta:
            delta = key
        best[a] = _IN_TREE
        pops += 1
        # grow the tree by the popped ad, or stop at an unmatched one
        parent_slot[a] = via
        slot = ad_slot[a]
        if slot < 0:
            break
        tree_ads[a] = delta
        tree_slots[slot] = delta
        potential = p[slot] + delta

    # flip the path from the free ad back to the root
    moved = set()
    hops = 0
    while True:
        s = parent_slot[a]
        displaced = slot_ad[s]
        slot_ad[s] = a
        ad_slot[a] = s
        moved.add(a // n)
        hops += 1
        if s == root:
            break
        a = displaced
        hops += 1
    # in-tree ads gained, in-tree slots lost, each from its own entry time
    for a, entry_shift in tree_ads.items():
        u[a] += delta - entry_shift
    for s, entry_shift in tree_slots.items():
        p[s] -= delta - entry_shift
    stats.phases.append((root, pops, delta, hops))
    stats.max_queue_occupancy, stats.max_scan_candidates = max_queue, max_scan
    # every push was popped (live or stale) or is still queued
    stats.heap_pushes += pops + stale + len(queue)
    stats.stale_pops += stale
    return moved


def solve_adtypes(inst: Instance, *,
                  collect_phase_matchings: bool = False) -> OptimalSolution:
    """Optimal matching plus certifying duals.

    Slots are processed in descending discount order (slot 0 first), one
    phase per slot, so after phase ``j`` the matching is optimal for the
    sub-instance made of slots ``0..j``.  Rejects instances with gap rules,
    and raises :class:`PhaseInvariantError` if rounding breaks a phase.
    """
    if has_gap_rules(inst):
        raise ValidationError("instance has gap rules: use the gap dynamic program")
    tables = _Tables(inst)
    n, k = tables.n, tables.k
    u, p = tables.initial_duals()
    slot_ad = [-1] * n
    ad_slot = [-1] * (k * n)
    stats = SolveStats(phase_matchings=[] if collect_phase_matchings else None)
    frontiers = _frontiers(tables, slot_ad, ad_slot, range(k))

    for j in range(n):
        moved = _phase(tables, frontiers, slot_ad, ad_slot, u, p, j, stats)
        # after phase j exactly slots 0..j are filled
        for t, frontier in zip(moved, _frontiers(tables, slot_ad[:j + 1],
                                                 ad_slot, moved)):
            frontiers[t] = frontier
        if stats.phase_matchings is not None:
            stats.phase_matchings.append(tables.matching(slot_ad))

    matching = tables.matching(slot_ad)
    duals = DualSolution(tuple(tuple(u[t * n:(t + 1) * n]) for t in range(k)),
                         tuple(p))
    return OptimalSolution(matching, duals, welfare(inst, matching), stats)


# ---------------------------------------------------------------------------
# Certification

@dataclass
class CertificateReport:
    passed: bool
    worst_violation: float
    messages: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


def _least_slack(values, utils, disc, p) -> float:
    """The least ``utils[r] + p[s] - values[r] * disc[s]`` of one type, over
    every rank r and slot s, in O(n).

    Slot s's least slack is ``p[s] + g(disc[s])``, where ``g(x) = min_r
    (utils[r] - values[r] * x)`` is the lower envelope of n lines.  Values
    are non-increasing in the rank, so the lines come sorted by slope, and
    discounts are non-increasing in the slot, so the queries come sorted
    too: one monotone hull and one pointer walk answer every slot.  The
    slack is then formed at the envelope's line as the sum above, the one
    an edge-by-edge check would form."""
    # lines by increasing value: the envelope's order from x = -inf to +inf
    hull: list[int] = []
    for r in range(len(values) - 1, -1, -1):
        v, b = values[r], utils[r]
        if hull and values[hull[-1]] == v:
            if utils[hull[-1]] <= b:
                continue  # of two equal slopes, the lower intercept wins
            hull.pop()
        # the last line is never lowest once the new one overtakes it no
        # later than it overtook the line before it
        while len(hull) >= 2:
            r1, r2 = hull[-2], hull[-1]
            if (b - utils[r2]) / (v - values[r2]) > \
                    (utils[r2] - utils[r1]) / (values[r2] - values[r1]):
                break
            hull.pop()
        hull.append(r)
    least = math.inf
    i = 0
    for s in range(len(disc) - 1, -1, -1):  # increasing discount
        x, r = disc[s], hull[i]
        while i + 1 < len(hull) and (utils[hull[i + 1]] - values[hull[i + 1]]
                                     * x <= utils[r] - values[r] * x):
            i += 1
            r = hull[i]
        least = min(least, utils[r] + p[s] - values[r] * x)
    return least


def certify(inst: Instance, sol: OptimalSolution) -> CertificateReport:
    """Check the dual certificate: k rows of n utilities and n prices, all
    finite, finite slacks and welfare, feasibility on every edge,
    non-negative duals, tightness of matched edges, zero utility on
    unmatched ads, zero price on empty slots, and welfare against the dual
    value on the matched subgraph, in O(kn) time and memory: feasibility
    is read off one lower envelope per type (:func:`_least_slack`).  The
    per-edge checks allow :func:`~adtypes.core.scaled_tol`, the welfare
    checks :func:`~adtypes.core.tol_for` the welfare.  Every check is
    written so that a NaN fails it."""
    msgs: list[str] = []
    edge_tol = scaled_tol(inst)
    worst = 0.0
    k, n = inst.num_types, inst.num_slots
    rows, p = sol.duals.u, sol.duals.p
    if len(rows) != k or len(p) != n or any(len(row) != n for row in rows):
        return CertificateReport(False, float("inf"), ["dual dimensions wrong"])
    u = [x for row in rows for x in row]  # u[t*n + r], as the solver has it
    if not (all(map(math.isfinite, u)) and all(map(math.isfinite, p))):
        return CertificateReport(False, float("inf"),
                                 ["non-finite dual variable"])

    neg = min(min(u), min(p))
    if not neg >= -edge_tol:
        worst = max(worst, -neg)
        msgs.append(f"negative dual variable ({neg:g})")

    # edge values are finite and non-negative, so every slack is finite
    # when the least one and the largest u plus the largest p are
    min_slack = min(_least_slack(spec.values, rows[t], spec.discounts, p)
                    for t, spec in enumerate(inst.types))
    if not (math.isfinite(min_slack) and math.isfinite(max(u) + max(p))):
        return CertificateReport(False, float("inf"), ["non-finite edge slack"])
    if not min_slack >= -edge_tol:
        worst = max(worst, -min_slack)
        msgs.append(f"dual infeasible: worst edge slack {min_slack:g}")

    dual_on_matched = 0.0
    loser_u, empty_p = list(u), list(p)  # matched ads and filled slots: 0
    for slot, ad in sol.matching.pairs:
        if not (0 <= slot < n and 0 <= ad.ad_type < k and 0 <= ad.rank < n):
            return CertificateReport(False, float("inf"),
                                     [f"matched pair out of range: {slot}, {ad}"])
        t, r = ad.ad_type, ad.rank
        loser_u[t * n + r] = empty_p[slot] = 0.0
        resid = abs(rows[t][r] + p[slot]
                    - inst.types[t].values[r] * inst.types[t].discounts[slot])
        if not resid <= edge_tol:
            worst = max(worst, resid)
            msgs.append(f"matched edge slot {slot} not tight (residual {resid:g})")
        dual_on_matched += rows[t][r] + p[slot]

    # complementary slackness: losers carry no utility, empty slots no price
    loose = max(loser_u)
    if not loose <= edge_tol:
        worst = max(worst, loose)
        msgs.append(f"unmatched ad has positive utility ({loose:g})")
    idle = max(empty_p)
    if not idle <= edge_tol:
        worst = max(worst, idle)
        msgs.append(f"empty slot has positive price ({idle:g})")

    w = welfare(inst, sol.matching)
    if not (math.isfinite(w) and math.isfinite(sol.welfare)):
        return CertificateReport(False, float("inf"), msgs + [
            f"non-finite welfare (recomputed {w!r}, stored {sol.welfare!r})"])
    sum_tol = tol_for(w)
    if not abs(w - sol.welfare) <= sum_tol:
        worst = max(worst, abs(w - sol.welfare))
        msgs.append("stored welfare does not match the matching")
    if not abs(dual_on_matched - w) <= sum_tol:
        worst = max(worst, abs(dual_on_matched - w))
        msgs.append("dual value on matched subgraph != welfare")

    return CertificateReport(not msgs, worst, msgs)


def crossing_violations(inst: Instance, duals: DualSolution) -> list[tuple]:
    """Same-type tight-edge pairs that cross: ads i<i' (strictly ordered by
    value) and slots j<j' (strictly ordered by discount) with both (i,j') and
    (i',j) tight, within :func:`~adtypes.core.scaled_tol`, as sorted
    ``(type, i, j', i', j)`` tuples.  Feasible duals admit none;
    equal-value or equal-discount pairs are exempt since either order is
    then interchangeable.

    Per type, finding the T tight edges takes O(n^2), and pairing them
    O(n^2 + T log T + P log P) for the P pairs reported.  A tight edge
    (i, j') pairs with the tight edges of the ranks past i's value class
    whose slots come before j''s discount class.  The edges are swept by
    that slot bound, and a rank joins the sorted active ranks once its
    first tight slot falls below the bound, so every active rank past i's
    class yields a pair."""
    out = []
    tol = scaled_tol(inst)
    p = duals.p
    for t, spec in enumerate(inst.types):
        vals, disc, u = spec.values, spec.discounts, duals.u[t]
        tight = [[s for s, a in enumerate(disc)
                  if abs(u[r] + p[s] - v * a) <= tol]
                 for r, v in enumerate(vals)]
        # past[r]: the first rank of smaller value; first[s]: the first
        # slot of equal discount (values and discounts are non-increasing)
        past = list(range(1, len(vals) + 1))
        for r in range(len(vals) - 2, -1, -1):
            if vals[r + 1] == vals[r]:
                past[r] = past[r + 1]
        first = list(range(len(disc)))
        for s in range(1, len(disc)):
            if disc[s] == disc[s - 1]:
                first[s] = first[s - 1]
        edges = sorted((first[s], past[r], r, s)
                       for r, slots in enumerate(tight) for s in slots)
        joining = sorted((slots[0], r) for r, slots in enumerate(tight) if slots)
        active: list[int] = []
        joined = 0
        for bound, start, r1, s1 in edges:
            while joined < len(joining) and joining[joined][0] < bound:
                insort(active, joining[joined][1])
                joined += 1
            for r2 in active[bisect_left(active, start):]:
                for s2 in tight[r2]:
                    if s2 >= bound:
                        break
                    out.append((t, r1, s1, r2, s2))
    out.sort()
    return out
