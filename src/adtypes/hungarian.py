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
head, one matched below, one matched above).  Ties are another matter: a
tied ad protects nothing, so the scan lists every matched ad tied with the
witness it is looking for, up to every matched ad of the type when the
type's values or discounts are all equal.  The solve is then O(n^3) in
time and O(n^2) in memory (ROADMAP item 2, tie classes).  The same
argument protects the head, the type's lowest-rank unmatched ad, at every
slot before the run of equal discounts of the last ad worth more than it,
so the head is offered only from that run on.  The argument needs only
feasible duals with tight matched edges, so it outlives the solve:
:func:`slot_movers` reads the same frontiers on the final matching for the
pricing passes of :mod:`adtypes.pricing`.

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
Every frontier has one shape, ``(head, hfrom, near, disc)``, and the
phase loop reads each type's candidates as ``near[slot]``, plus the head
when ``slot >= hfrom``, with no call and no list built per pop.  The
frontier a pop reads changes only between phases, so ``near`` is a table:
for each slot, the tuple of matched ads the scan lists there, built once
per rebuild with one tuple per gap between the type's matched slots, and
the slots of a run of equal discounts that holds a matched ad rewritten
one by one.  An offer is one multiplication and one key, ``u[a] +
potential - value`` with ``value = disc[slot] * val[a]``, with the slot's
discount read once per type and its potential set when it joins the
tree.  Only matched ads enter the heap: a head's pop ends the phase, so
the least head entry is kept beside the heap, and a pop compares it with
the heap's top.  That entry only falls, so an entry above it is never
popped and is not pushed, and an offer is tested against its key before
anything else is read.
Tree membership lives in the best-key list: a popped ad's key becomes
-inf, which no offer undercuts, so the offer loop needs no membership test.
The tree itself is its slots, each keyed to the shift at which it and its
ad joined.  No counter runs per offer or per scan: a push adds its ad to
the set of live ads and a live pop takes it out, and the scan size is
counted by the instrumented solve alone, off each phase's tree slots.

The frontiers are carried from phase to phase: a type's frontier reads only
that type's ads, so after each augmentation :func:`solve_adtypes` rebuilds
only the frontiers of the types whose ads the path moved, each from the
lowest slot where its matched pairs changed; the path flip keeps every
type's pairs sorted by slot.  :class:`AdRef` and :class:`Matching` appear
only at the edges: :func:`solve_adtypes` reads the instance on the way in
and builds the final matching (and the per-phase ones, when
``collect_phase_matchings`` asks) on the way out.  A solve can be followed
phase by phase through :attr:`SolveStats.phases` (printed by
:meth:`SolveStats.trace_lines`) and ``collect_phase_matchings``.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
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
    push is popped live (a pop that grows the tree), popped stale
    (superseded by a lower key for the same ad, or the ad already in the
    tree) or left queued when its phase ends; ``heap_pushes`` counts all of
    them, ``stale_pops`` the second kind.  A phase's last pop, of an
    unmatched head, takes an entry kept off the heap, so it counts among
    the pops and not the pushes, and an offer above the least head entry
    is not pushed, as the phase ends before it could be popped.
    ``max_queue_occupancy`` is the most matched ads holding a live queued
    key at once, plus the kept head entry: the phase keeps the set of ads
    pushed and not yet popped live, a push adds its ad and a live pop
    removes it, and the set's size is read after each scan's offers.  A
    popped ad is never pushed again, so the count stays at most n + k.
    ``max_scan_candidates``, the most candidates one scan offered, heads
    included, is counted by the instrumented solve only
    (``collect_phase_matchings=True``) and is ``None`` otherwise."""

    max_queue_occupancy: int = 0
    max_scan_candidates: int | None = None
    heap_pushes: int = 0
    stale_pops: int = 0
    phases: list[tuple[int, int, float, int]] = field(default_factory=list)
    phase_matchings: list[Matching] | None = None

    @property
    def total_pops(self) -> int:
        return sum(pops for _, pops, _, _ in self.phases)

    # a phase scans its root, then each slot a pop adds: one scan per pop.
    # The second name is kept only because perfbench/tracing.py reads it
    # for its hungarian.scan_calls metric; ROADMAP item 1 (step 2) deletes
    # it once the benchmark reads the run record
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
    solve: ``val[a]`` for ``a = t*n + r``, ``disc[t][slot]``, each type's
    runs of equal discounts ``runs[t]``, as ``(first, last)`` slots with
    ``first < last``, and the tolerance."""

    def __init__(self, inst: Instance):
        n = self.n = inst.num_slots
        self.k = inst.num_types
        self.val = [v for spec in inst.types for v in spec.values]
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


def _frontiers(tables: _Tables, pairs: list[list[tuple[int, int]]],
               ad_slot: list[int], changed: dict[int, int],
               frontiers: list[tuple], kept: list[tuple[list, list]]) -> None:
    """Rebuild in place the frontier of each type t in ``changed`` on its
    matched ``(slot, ad)`` pairs ``pairs[t]``, sorted by slot, of which
    only those from slot ``changed[t]`` on differ from the last build's.
    A frontier is ``(head, hfrom, near, disc)``: the type's lowest
    unmatched ad (``None`` when all are matched), the first slot that lists
    it, its matched candidates by slot and its discount curve.  ``near[x]``
    lists the matched ads whose edge to slot x might yet go tight this
    phase, so the phase loop reads every type's candidates alike.
    ``kept[t]`` holds the type's ``ups`` and ``downs`` from the last build
    (below); a full build (:func:`_build_frontiers`) is this rebuild from
    slot 0 on no pairs.

    The head is a candidate at slot x iff ``x >= hfrom``.  Let z be the
    last slot that holds an ad of the type of value strictly above the
    head's; ``hfrom`` is the first slot of z's run of equal discounts, 0
    if there is no such slot and n if the type has no head.  With w at z,
    ``slack(h, x) - slack(w, x) - slack(h, z) = (v_h - v_w) * (alpha_z -
    alpha_x)``, strictly positive for every x before z's run, so w
    protects the head there (the crossing argument).  Every matched slot
    lies before a phase's root, so the root lists every head.  A matched
    ad stays matched, so the head only moves up the ranks, and its search
    starts at the last one.

    Take slot x, the run [f, l] of equal discounts on the type's curve
    that holds x (x alone on a strictly decreasing curve), v* the least
    value matched at a slot before f (inf if none) and w* the largest
    matched after l (-inf if none).  ``near[x]`` lists the ads matched
    before x of value at most v* and the ads matched after x of value at
    least w*, never the ad at x itself.  That is the protected walk: from
    x outwards, list matched ads until one protects the rest, being
    strictly worse in value at a strictly better discount, and then the
    ads tied with it in value.  An ad in x's own run has x's discount and
    protects nothing, so the first protector before x is an ad of value v*
    matched before f, the first after x one of value w* matched after l,
    and the walk lists exactly the ads above.

    Outside the runs that hold a matched ad, v* is the least value matched
    before x and w* the largest after it: ``downs[i]``, the ads of the
    least value among the first i pairs, and ``ups[i]``, those of the
    largest among the pairs from the i-th on.  So ``near[x]`` is the same
    for every slot between two matched slots: each gap's tuple is built
    once and repeated by list multiplication.  The slots of each run of
    equal discounts (:attr:`_Tables.runs`) that holds a matched ad are
    then rewritten by the formula, with v* and w* read off ``downs`` and
    ``ups``; a strictly decreasing curve has no such run.

    A rebuild pays only for the suffix that changed.  With c the first
    pair at or past slot ``changed[t]``, ``downs[:c + 1]`` still hold,
    and ``ups`` are recomputed from the last pair down to c and on below
    it until they equal the kept ones, at pair i0.  Only the ``near``
    entries from the slot of pair i0 - 1 on read a changed ``ups`` or
    ``downs``, so ``near`` is cut there and rebuilt, and a run that ends
    before that slot keeps its rewrite: its w* is an unchanged ``ups``.
    A run that reaches past it is rewritten whole, and holds a matched ad
    whenever it starts before it, the one at that slot."""
    n, val, disc_of = tables.n, tables.val, tables.disc
    inf = math.inf
    for t, low_slot in changed.items():
        mine = pairs[t]
        ups, downs = kept[t]
        head, _, near, _ = frontiers[t]
        c = bisect_left(mine, (low_slot,))
        # ups from the last pair down; below pair c, only until one equals
        # the kept one, at pair i0 - 1
        fresh = [()]
        up, high = (), -inf
        i0 = len(mine)
        while i0:
            a = mine[i0 - 1][1]
            v = val[a]
            if v > high:
                up, high = (a,), v
            elif v == high:
                up += (a,)
            if i0 <= c and up == ups[i0 - 1]:
                break
            i0 -= 1
            fresh.append(up)
        ups[i0:] = fresh[::-1]
        # near from the slot of pair i0 - 1 on: the gap below each pair,
        # then the pair's own slot, which skips its own ad
        if i0:
            start = prev = mine[i0 - 1][0]
            del near[prev:]
            near.append(downs[i0 - 1] + ups[i0])
        else:
            start, prev = 0, -1
            del near[:]
        del downs[i0 + 1:]
        down = downs[i0]
        low = val[down[0]] if down else inf
        for (s, a), up, up_past in zip(mine[i0:], ups[i0:], ups[i0 + 1:]):
            near += [down + up] * (s - prev - 1)
            near.append(down + up_past)
            v = val[a]
            if v < low:
                down, low = (a,), v
            elif v == low:
                down += (a,)
            downs.append(down)
            prev = s
        near += [down] * (n - 1 - prev)
        # a run of equal discounts that holds a matched ad: its slots list
        # the ads matched below them of at most the least value matched
        # before the run, and symmetrically above
        for f, l in tables.runs[t]:
            if l < start:
                continue
            lo, hi = bisect_left(mine, (f,)), bisect_left(mine, (l + 1,))
            if lo == hi:
                continue
            below, above = downs[lo], ups[hi]
            low = val[below[0]] if below else inf
            high = val[above[0]] if above else -inf
            outer = below + above[::-1]
            inner = mine[lo:hi]
            for x in range(f, l + 1):
                near[x] = outer + tuple(a for s, a in inner
                                        if s < x and val[a] <= low
                                        or s > x and val[a] >= high)
        disc = disc_of[t]
        if head is not None:
            end = t * n + n
            while head < end and ad_slot[head] >= 0:
                head += 1
            if head == end:
                head = None
        if head is None:
            frontiers[t] = (None, n, near, disc)
            continue
        # z: the last slot whose ad is worth more than the head (0 when
        # there is none: it starts slot 0's run too)
        z = next((s for s, a in reversed(mine) if val[a] > val[head]), 0)
        hfrom = z
        while hfrom and disc[hfrom - 1] == disc[z]:
            hfrom -= 1
        frontiers[t] = (head, hfrom, near, disc)


def _build_frontiers(tables: _Tables, slot_ad: list[int], ad_slot: list[int]
                     ) -> tuple[list[list[tuple[int, int]]], list[tuple],
                                list[tuple[list, list]]]:
    """Every type's matched ``(slot, ad)`` pairs, sorted by slot, its
    frontier and the ``ups`` and ``downs`` a rebuild keeps, on the
    matching ``slot_ad``: :func:`_frontiers` from slot 0, on a last build
    of no pairs whose head is rank 0."""
    n, k = tables.n, tables.k
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for s, a in enumerate(slot_ad):
        if a >= 0:
            pairs[a // n].append((s, a))
    frontiers = [(t * n, 0, [], disc)
                 for t, disc in enumerate(tables.disc)]
    kept = [([()], [()]) for _ in range(k)]
    _frontiers(tables, pairs, ad_slot, dict.fromkeys(range(k), 0), frontiers,
               kept)
    return pairs, frontiers, kept


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
    _, frontiers, _ = _build_frontiers(tables, slot_ad, ad_slot)
    losers = [AdRef(*divmod(f[0], n)) for f in frontiers if f[0] is not None]
    movers = [[ad_slot[a] for *_, near, _ in frontiers for a in near[x]]
              for x in range(n)]
    return losers, movers


def _phase(tables: _Tables, frontiers: list[tuple],
           pairs: list[list[tuple[int, int]]], slot_ad: list[int],
           ad_slot: list[int], u: list[float], p: list[float], root: int,
           stats: SolveStats) -> tuple[dict[int, int], dict[int, float]]:
    """Phase ``root``: grow an alternating tree from slot ``root`` until it
    reaches an unmatched ad, flip that augmenting path into ``slot_ad``,
    ``ad_slot`` and each type's sorted matched pairs ``pairs``, and write
    the accumulated dual shift back into ``u`` and ``p``, all in place.
    Appends ``(root, pops, shift, path length)`` to ``stats.phases``, adds
    to its heap counts and raises its queue maximum.  Returns, for each
    type whose pairs the path changed, the lowest slot where they changed
    (only those entries of ``frontiers`` are stale, and only from there
    on), and the tree's slots, the ones the phase scanned, keyed to the
    shift at which they joined.

    The queue keys each candidate ad by the accumulated shift at which its
    best edge into the tree goes tight, so a pop is a dual update and a tree
    extension in one step.  A popped matched ad and its slot join the tree
    at the same shift, so ``tree_slots`` keys each tree slot to it, and
    the duals are written back from it once, at the end, before the path
    flip moves the ads: each tree slot loses, and its ad (the root has
    none, as it starts empty) gains, the shift since they joined.  An ad's
    keys strictly fall, so a popped entry is live iff its key is still the
    ad's best, ``best[a]``; a popped ad's becomes -inf, which no later
    offer undercuts.

    Only matched ads enter the heap.  The only unmatched ads offered are
    the heads, and a head's pop ends the phase, so the heads' entries are
    kept out of it: ``hbest`` is the least head entry, in the heap's order,
    and a pop takes it as soon as it is below the heap's top, or the heap
    is empty.  ``hbest`` only falls, so an entry above it would still be
    queued when the phase ends: it is not pushed.  An offer is first
    tested against ``hb``, the key of ``hbest``: one above it can never be
    popped, and any later offer to the same ad that can be is below it,
    so such an offer is dropped before ``best`` is read.  ``best[a]`` is
    thus the least key offered to a at or below ``hb``, pushed or not: a
    later offer of an equal key is dropped even when its entry would
    precede ``hbest``.
    """
    n, val, tol = tables.n, tables.val, tables.tol
    tree_slots: dict[int, float] = {root: 0.0}
    parent_slot: dict[int, int] = {}
    queue: list[tuple[float, float, int, int]] = []
    inf = math.inf
    hbest: tuple = (inf,)
    hb = inf
    best = [inf] * (tables.k * n)
    # the matched ads pushed and not yet popped live: the most at once,
    # plus the kept head entry, is the queue's occupancy
    live: set[int] = set()
    most = 0
    delta = 0.0
    pops = stale = 0
    slot = root
    potential = p[root]  # the root joins at shift 0
    while True:
        # offer the candidate edges into the slot that just joined the tree,
        # each type's read off its frontier by slot, lowering a candidate's
        # key when this edge goes tight sooner than its current best
        for head, hfrom, near, disc in frontiers:
            ds = disc[slot]
            for a in near[slot]:
                value = ds * val[a]
                key = u[a] + potential - value
                if key <= hb and key < best[a]:
                    best[a] = key
                    # equal keys resolve in the global edge order: higher
                    # value, then lower slot, lower type, lower rank
                    entry = (key, -value, slot, a)
                    if entry < hbest:
                        heappush(queue, entry)
                        live.add(a)
            # the head, from hfrom on: its entry stays off the heap, and
            # its utility is 0, as no unmatched ad joins the tree
            if slot >= hfrom:
                value = ds * val[head]
                key = potential - value
                if key <= hb and key < best[head]:
                    best[head] = key
                    entry = (key, -value, slot, head)
                    if entry < hbest:
                        hbest, hb = entry, key
        if len(live) > most:  # cheaper than max() once per pop
            most = len(live)
        # pop the live entry with minimal key, a head's or the heap's, and
        # advance the shift to its tightness point (the step can be zero);
        # the root listed every head (phase j starts with j of the kn > j
        # ads matched, so some type has one), so ``hbest`` is always an
        # entry and the heap may run dry
        while True:
            if not queue or hbest < queue[0]:
                key, _, via, a = hbest
                break
            key, _, via, a = heappop(queue)
            if best[a] == key:
                live.discard(a)
                break
            stale += 1  # superseded by a lower key, or already in the tree
        if key < delta - tol:
            raise PhaseInvariantError(root, key, delta)
        if key > delta:
            delta = key
        best[a] = -inf  # in the tree
        pops += 1
        # grow the tree by the popped ad, or stop at an unmatched one
        parent_slot[a] = via
        slot = ad_slot[a]
        if slot < 0:
            break
        tree_slots[slot] = delta
        potential = p[slot] + delta

    # in-tree slots lost and their ads gained, each pair from the shift at
    # which both joined; the root was empty
    for s, joined in tree_slots.items():
        gain = delta - joined
        p[s] -= gain
        if s != root:
            u[slot_ad[s]] += gain

    # flip the path from the free ad back to the root; a slot leaves its
    # old ad's pairs and joins the new one's, and both change there
    changed: dict[int, int] = {}
    hops = 0
    while True:
        s = parent_slot[a]
        displaced = slot_ad[s]
        slot_ad[s] = a
        ad_slot[a] = s
        t, was = a // n, displaced // n  # -1 at the root, which was empty
        mine = pairs[t]
        if t == was:
            mine[bisect_left(mine, (s,))] = (s, a)
        else:
            insort(mine, (s, a))
            if displaced >= 0:
                theirs = pairs[was]
                del theirs[bisect_left(theirs, (s,))]
                changed[was] = min(s, changed.get(was, s))
        changed[t] = min(s, changed.get(t, s))
        hops += 1
        if s == root:
            break
        a = displaced
        hops += 1
    stats.phases.append((root, pops, delta, hops))
    stats.max_queue_occupancy = max(stats.max_queue_occupancy, most + 1)
    # every push was popped (live or stale) or is still queued; the last
    # pop, a head's, came from no push
    stats.heap_pushes += pops - 1 + stale + len(queue)
    stats.stale_pops += stale
    return changed, tree_slots


def solve_adtypes(inst: Instance, *,
                  collect_phase_matchings: bool = False) -> OptimalSolution:
    """Optimal matching plus certifying duals.

    Slots are processed in descending discount order (slot 0 first), one
    phase per slot, so after phase ``j`` the matching is optimal for the
    sub-instance made of slots ``0..j``.  Rejects instances with gap rules,
    and raises :class:`PhaseInvariantError` if rounding breaks a phase.

    The frontiers and their rebuild state are carried from phase to phase,
    and after each phase only the types its path changed are rebuilt, from
    the lowest slot that changed (:func:`_frontiers`).  The instrumented
    solve, ``collect_phase_matchings=True``, records each phase's matching
    and :attr:`SolveStats.max_scan_candidates`, counted off each phase's
    scanned slots and the frontiers it read; a default solve leaves that
    maximum ``None`` and counts nothing per scan.
    """
    if has_gap_rules(inst):
        raise ValidationError("instance has gap rules: use the gap dynamic program")
    tables = _Tables(inst)
    n, k = tables.n, tables.k
    u, p = tables.initial_duals()
    slot_ad = [-1] * n
    ad_slot = [-1] * (k * n)
    stats = SolveStats()
    if collect_phase_matchings:
        stats.max_scan_candidates, stats.phase_matchings = 0, []
    pairs, frontiers, kept = _build_frontiers(tables, slot_ad, ad_slot)

    for j in range(n):
        changed, scanned = _phase(tables, frontiers, pairs, slot_ad, ad_slot,
                                  u, p, j, stats)
        if collect_phase_matchings:
            stats.max_scan_candidates = max(
                stats.max_scan_candidates,
                *(sum(len(near[x]) + (x >= hfrom)
                      for _, hfrom, near, _ in frontiers) for x in scanned))
            stats.phase_matchings.append(tables.matching(slot_ad))
        _frontiers(tables, pairs, ad_slot, changed, frontiers, kept)

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
    messages: list[str]


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
    (i',j) tight, within :func:`~adtypes.core.scaled_tol` ``tol``, as sorted
    ``(type, i, j', i', j)`` tuples.  Equal-value or equal-discount pairs
    are exempt since either order is then interchangeable.

    The two crossing slacks minus those of (i,j) and (i',j') equal
    ``(v_i - v_i') * (alpha_j - alpha_j')``.  Tight slacks are at most
    ``tol`` and feasible ones at least ``-tol``, so duals feasible within
    ``tol`` (as :func:`certify` checks) admit no pair whose product exceeds
    ``4 * tol``, and only such pairs are reported.  Without that margin,
    geometric discounts that fall below ``tol`` make every tail edge tight,
    and certified duals report crossings the tolerance explains.

    Each type's tight edges are grouped into cells keyed by (value,
    discount), and a cell pairs only with the cells strictly below it in
    value and strictly above it in discount, by the margin; every edge of
    the one crosses every edge of the other, so their product is reported.
    Cells of equal value or equal discount never pair, which is the
    exemption.  Per type this takes O(n^2 + C^2 + P log P) for C cells and
    the P pairs reported.  On the solver's duals of strict curves the tight
    edges, and so the cells, number O(n); a type whose values or discounts
    all tie has at most n cells, one per discount or per value, and no two
    of them pair."""
    out = []
    tol = scaled_tol(inst)
    p = duals.p
    for t, spec in enumerate(inst.types):
        u = duals.u[t]
        cells: dict[tuple[float, float], list[tuple[int, int]]] = {}
        for r, v in enumerate(spec.values):
            for s, a in enumerate(spec.discounts):
                if abs(u[r] + p[s] - v * a) <= tol:
                    cells.setdefault((v, a), []).append((r, s))
        for (v1, a1), upper in cells.items():
            for (v2, a2), lower in cells.items():
                if v1 > v2 and (v1 - v2) * (a2 - a1) > 4 * tol:
                    out.extend((t, r1, s1, r2, s2)
                               for r1, s1 in upper for r2, s2 in lower)
    out.sort()
    return out
