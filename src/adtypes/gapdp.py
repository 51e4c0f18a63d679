"""Exact solvers for instances with gap rules.

The general solver, :func:`solve_gap_dp`, walks the slots once, front to
back.  At each slot it either leaves the slot empty or places some type's
next ad, in rank order.  Only what can still block a placement is
remembered: a state is ``(counts, wait)``, where ``counts[t]`` is the number
of type-t ads placed and ``wait[j]`` the number of coming slots in which the
ads already placed forbid a type-j ad.  This is the vector of slots since
each type's last ad reduced to what it blocks,
``wait[j] = max_m max(0, G[m][j] + 1 - since[m])``, so ``wait[j]`` is capped
at ``W_j = max_m G[m][j]``; an ad placed more than every window back, or
never, blocks nothing, and pasts that block alike are one state.  Type t may
go at the current slot when ``wait[t] == 0``; placing it sets ``wait[j]`` to
``max(wait[j] - 1, G[t][j])``, an empty slot to ``max(wait[j] - 1, 0)``.
With ``S`` the largest number of states in one layer,
``S <= prod_t (cap_t + 1) * (W_t + 1)`` (``cap_t`` is type t's real ad
count), and S never exceeds the number of since-vectors capped at
``max_j G[t][j] + 1``.  The work is O(k n S).  The one guard counts the
states the pruned DP (below) stores, summed over the layers, so it refuses
by the size of the work, not by ``n``.  It checks every 1024 source states
within a layer and after each layer, so a refusal overshoots
:data:`MAX_STATES` by at most 1024 * (k + 1) states however wide the layer,
and it costs the time and memory of storing those states.  A refusal names
the incumbent (below), the best gap-feasible welfare found.

The DP is bound-pruned, branch-and-bound style (Morin and Marsten 1976).
The incumbent is the best value of a beam search run first over the DP's
own layer step: each layer is built unpruned from the beam's states and cut
back to its best ``_BEAM`` (4) states, ties to the first reached.  A beam
state is a gap-feasible placement with the remaining slots left empty, so
its value is the welfare of a gap-feasible matching, and the beam reads the
gap rules as the DP does, through the wait counts.  With ``top``
the largest ad value and ``tail[s] = sum_{j >= s} max_t alpha_{t,j}``, a
placement at slot ``j`` adds at most ``top * max_t alpha_{t,j}``, so ``v +
top * tail[s]`` never grows along a transition, where ``v`` is the value of
a state entering slot ``s``.  An offer into that layer is stored only when
its value exceeds ``cut_s = incumbent - tol_for(incumbent) - top *
tail[s]``; the margin absorbs rounding.  Exactness: every state on an
optimal path has a bound of at least OPT, which is at least the incumbent,
so it is never cut, and a state that is cut cannot supply the best value
of a stored one.  The welfare is exact; the matching can differ from the
unpruned DP's only between optima of equal welfare, because cutting
changes the order in which a layer's states are first reached, and that
order breaks ties.  The cut is the default an offer must beat in the
"better than the stored value" compare, so pruning costs no work per
state, and the states "stored" are those above it: a subset of the
unpruned layers, so every instance the unpruned DP finishes is solved, and
each further prune also lowers what is refused.

Also here: the unpruned sparse DP over (ads per type, last slot per type),
the cross-check oracle for :func:`solve_gap_dp`, guarded to n <= 12; the
k=2 gap-free dynamic program; the independent-set reduction used for
hardness-style instances; and an exhaustive oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import nlargest
from itertools import accumulate
from operator import itemgetter

from .core import (
    AdRef,
    GuardError,
    Instance,
    Matching,
    TypeSpec,
    ValidationError,
    has_gap_rules,
    tol_for,
)

BOTTOM = None  # "no ad of this type placed yet"

#: The most states one gap DP may store; a larger instance is refused.
MAX_STATES = 2_000_000
# the states per layer that the incumbent's beam keeps
_BEAM = 4


def _gap(inst: Instance):
    if inst.gap is not None:
        return inst.gap
    k = inst.num_types
    return tuple((0,) * k for _ in range(k))


def check_gap_feasible(inst: Instance, m: Matching) -> bool:
    """True iff no assigned slot sits inside the blocking window that an
    earlier assigned ad's type imposes on its type.  The pairs are walked in
    slot order through :func:`_append_ok`, keeping each type's latest slot:
    the latest ad of a type blocks the longest, so it alone decides that
    type's window.  O(nk)."""
    gap = _gap(inst)
    lasts = [BOTTOM] * inst.num_types
    for slot, ad in m.pairs:
        if not _append_ok(gap, lasts, ad.ad_type, slot):
            return False
        lasts[ad.ad_type] = slot
    return True


def _append_ok(gap, last_slots, ad_type: int, slot: int) -> bool:
    """May an ad of ``ad_type`` go at ``slot``, past every current last?"""
    for m, s_m in enumerate(last_slots):
        if s_m is not BOTTOM and slot - s_m <= gap[m][ad_type]:
            return False
    return True


def solve_gap_dp(inst: Instance) -> Matching:
    """Welfare-maximizing gap-feasible matching via the slot-by-slot DP over
    capped ``(counts, wait)`` states described in the module docstring.

    Within a type, ads are placed in rank order (same-type swaps never
    change gap feasibility and sorted values make rank order optimal).  Of
    two ways into a state the first strictly better one is kept.  An offer
    is stored only when it exceeds its layer's cut (module docstring), with
    the beam's best welfare as the incumbent.  Refuses, with
    :class:`GuardError`, an instance whose layers together store more than
    :data:`MAX_STATES` states, checked every 1024 source states and after
    each layer: the count is of the states the pruned DP keeps, so a
    refusal comes only after those states are stored.  The refusal names
    the incumbent.
    """
    from array import array  # here, so commands without the DP never load it

    n, k = inst.num_slots, inst.num_types
    gap = _gap(inst)
    caps = inst.real_counts
    radix = [max(gap[m][j] for m in range(k)) + 1 for j in range(k)]
    # A state is one int.  Its low part, below ``width``, holds wait[j] in
    # mixed radix W_j + 1; above it, counts[t] in mixed radix cap_t + 1.
    weight = [1] * k
    for j in range(1, k):
        weight[j] = weight[j - 1] * radix[j - 1]
    width = weight[-1] * radix[-1]
    stride = [width] * k
    for t in range(1, k):
        stride[t] = stride[t - 1] * (caps[t - 1] + 1)

    def moves_from(code: int):
        """The key offset of leaving a slot empty from wait-code ``code``,
        and ``(t, stride, cap + 1, cap, key offset)`` for each type that may
        go next."""
        wait = [code // weight[j] % radix[j] for j in range(k)]
        aged = [max(w - 1, 0) for w in wait]
        empty = sum(a * w for a, w in zip(aged, weight)) - code
        places = tuple(
            (t, stride[t], caps[t] + 1, caps[t],
             sum(max(a, g) * w for a, g, w in zip(aged, gap[t], weight))
             - code + stride[t])
            for t in range(k) if caps[t] and wait[t] == 0)
        return empty, places

    vals = [spec.values for spec in inst.types]
    disc = [spec.discounts for spec in inst.types]
    moves: dict[int, tuple] = {}
    k1 = k + 1

    def layer(cur: dict[int, float], s: int, floor: float, room: int):
        """``(nxt, par)``: the states after slot ``s`` reached from
        ``cur`` and their values, an offer stored only above ``floor``, and
        each state's parent code, (k + 1) times its source's index in
        ``cur`` plus the move taken: 0 for an empty slot, t + 1 for a type-t
        ad.  Every 1024 source states it stops once it holds more than
        ``room`` states, so a refusal after it overshoots the budget by at
        most 1024 * (k + 1) states, however wide the layer."""
        here = [d[s] for d in disc]
        nxt: dict[int, float] = {}
        par: dict[int, int] = {}
        for i, (key, v) in enumerate(cur.items()):
            if not i & 1023 and len(nxt) > room:
                break
            code = key % width
            mv = moves.get(code)
            if mv is None:
                mv = moves[code] = moves_from(code)
            empty, places = mv
            p = i * k1
            nk = key + empty
            if v > nxt.get(nk, floor):
                nxt[nk] = v
                par[nk] = p
            for t, st, rad, cap, delta in places:
                c = key // st % rad
                if c < cap:
                    w = v + vals[t][c] * here[t]
                    nk = key + delta
                    if w > nxt.get(nk, floor):
                        nxt[nk] = w
                        par[nk] = p + t + 1
        return nxt, par

    # the incumbent: a beam through the same layers, each cut back to its
    # best _BEAM states
    beam = {0: 0.0}
    for s in range(n):
        nxt = layer(beam, s, -1.0, MAX_STATES)[0]
        beam = dict(nlargest(_BEAM, nxt.items(), key=itemgetter(1)))
    incumbent = max(beam.values())
    top = max(v[0] for v in vals)
    # tail[s] = sum over slots j >= s of max_t alpha_{t,j}
    peaks = (max(d[j] for d in disc) for j in range(n - 1, -1, -1))
    tail = list(accumulate(peaks, initial=0.0))[::-1]
    bar = incumbent - tol_for(incumbent)
    cur = {0: 0.0}
    stored = 1
    # history[s][j]: the parent code of state j of the layer after slot s,
    # in insertion order
    history: list[array] = []
    for s in range(n):
        # cut_{s+1}, for the layer built
        cur, par = layer(cur, s, bar - top * tail[s + 1], MAX_STATES - stored)
        stored += len(cur)
        if stored > MAX_STATES:
            raise GuardError(f"gap DP stored {stored} states by slot {s + 1} "
                             f"of {n}, over MAX_STATES={MAX_STATES} (k={k}); "
                             f"best gap-feasible welfare found {incumbent!r}")
        history.append(array("q", par.values()))

    final = list(cur.values())
    j = max(range(len(final)), key=final.__getitem__)
    placed: list[tuple[int, int]] = []
    for s in range(n - 1, -1, -1):
        j, move = divmod(history[s][j], k1)
        if move:
            placed.append((s, move - 1))
    assignment: dict[int, AdRef] = {}
    per_type = [0] * k
    for s, t in reversed(placed):
        assignment[s] = AdRef(t, per_type[t])
        per_type[t] += 1
    return Matching(assignment)


def _sparse_gap_dp(inst: Instance) -> Matching:
    """Cross-check oracle for :func:`solve_gap_dp`: the sparse DP over
    states (ads placed per type, last slot used per type).  States are
    reached forward, appending one ad at a time at a slot past every type's
    last; an append only has to clear each type's most recent ad, since the
    blocking window of an older same-type ad is contained in the newer
    one's.  An O(n) loop over target slots per state makes it much slower
    than the capped DP, so it is guarded twice: n <= 12, and at most
    :data:`MAX_STATES` reachable states, the capped DP's budget.
    """
    n, k = inst.num_slots, inst.num_types
    if n > 12:
        raise GuardError(f"gap DP refuses n={n} (guard: n <= 12, "
                         f"state space up to {(n + 1) ** (2 * k):.2e})")
    gap = _gap(inst)
    caps = inst.real_counts
    vals = [spec.values for spec in inst.types]
    disc = [spec.discounts for spec in inst.types]

    empty = ((0,) * k, (BOTTOM,) * k)
    value: dict[tuple, float] = {empty: 0.0}
    parent: dict[tuple, tuple] = {}
    frontier = [empty]
    best_state, best_value = empty, 0.0
    while frontier:
        nxt: list[tuple] = []
        for state in frontier:
            counts, lasts = state
            base = value[state]
            start = max((s for s in lasts if s is not BOTTOM), default=-1) + 1
            for t in range(k):
                c = counts[t]
                if c >= caps[t]:
                    continue
                for s in range(start, n):
                    if not _append_ok(gap, lasts, t, s):
                        continue
                    new = (counts[:t] + (c + 1,) + counts[t + 1:],
                           lasts[:t] + (s,) + lasts[t + 1:])
                    v = base + vals[t][c] * disc[t][s]
                    old = value.get(new)
                    if old is None:
                        if len(value) >= MAX_STATES:
                            raise GuardError(
                                f"gap DP exceeded {MAX_STATES} states "
                                f"(k={k}, n={n}; reachable space too large)")
                        value[new] = v
                        parent[new] = (state, t, s)
                        nxt.append(new)
                    elif v > old:
                        value[new] = v
                        parent[new] = (state, t, s)
                    if value[new] > best_value:
                        best_value, best_state = value[new], new
        frontier = nxt

    assignment: dict[int, AdRef] = {}
    placed: list[tuple[int, int]] = []
    state = best_state
    while state != empty:
        state, t, s = parent[state]
        placed.append((t, s))
    per_type = [0] * k
    for t, s in sorted(placed, key=lambda ts: ts[1]):
        assignment[s] = AdRef(t, per_type[t])
        per_type[t] += 1
    return Matching(assignment)


def brute_force_gap(inst: Instance) -> Matching:
    """Exhaustive gap-aware oracle: every slot takes some type's next ad or
    stays empty, with full rule checks along the way.  No memoization, no
    shortcuts beyond within-type rank order.  Guard: n <= 6, <= 12 real ads."""
    n, k = inst.num_slots, inst.num_types
    total = sum(inst.real_counts)
    if n > 6 or total > 12:
        raise GuardError(f"gap brute force refuses n={n}, ads={total} "
                         "(guard: n <= 6, <= 12 ads)")
    gap = _gap(inst)
    caps = inst.real_counts
    vals = [spec.values for spec in inst.types]
    disc = [spec.discounts for spec in inst.types]
    best = {"welfare": -1.0, "assignment": {}}
    counts = [0] * k
    lasts: list[int | None] = [BOTTOM] * k
    chosen: dict[int, AdRef] = {}

    def walk(slot: int, acc: float):
        if slot == n:
            if acc > best["welfare"]:
                best["welfare"] = acc
                best["assignment"] = dict(chosen)
            return
        for t in range(k):
            if counts[t] >= caps[t]:
                continue
            if not _append_ok(gap, lasts, t, slot):
                continue
            chosen[slot] = AdRef(t, counts[t])
            saved = lasts[t]
            counts[t] += 1
            lasts[t] = slot
            walk(slot + 1, acc + vals[t][counts[t] - 1] * disc[t][slot])
            counts[t] -= 1
            lasts[t] = saved
            del chosen[slot]
        walk(slot + 1, acc)

    walk(0, 0.0)
    return Matching(best["assignment"])


def solve_two_type_dp(inst: Instance) -> Matching:
    """Gap-free exact solver for exactly two types: a triangular table over
    (ads of type 0 used, ads of type 1 used), filling slots front to back
    with each type's ads in rank order."""
    if inst.num_types != 2:
        raise ValidationError(f"two-type solver needs k=2, got k={inst.num_types}")
    if has_gap_rules(inst):
        raise ValidationError("instance has gap rules: use the gap dynamic program")
    n = inst.num_slots
    v = [spec.values for spec in inst.types]
    d = [spec.discounts for spec in inst.types]
    table = [[0.0] * (n + 1) for _ in range(n + 1)]
    for total in range(n - 1, -1, -1):
        for i in range(total, -1, -1):
            j = total - i
            take0 = d[0][total] * v[0][i] + table[i + 1][j]
            take1 = d[1][total] * v[1][j] + table[i][j + 1]
            table[i][j] = max(take0, take1)
    assignment: dict[int, AdRef] = {}
    i = j = 0
    for slot in range(n):
        take0 = d[0][slot] * v[0][i] + table[i + 1][j]
        take1 = d[1][slot] * v[1][j] + table[i][j + 1]
        if take0 >= take1:
            assignment[slot] = AdRef(0, i)
            i += 1
        else:
            assignment[slot] = AdRef(1, j)
            j += 1
    return Matching(assignment)


# ---------------------------------------------------------------------------
# Independent-set reduction

@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, num_vertices: int, edges):
        canon = set()
        for a, b in edges:
            if a == b:
                raise ValueError("self-loop")
            if not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise ValueError("edge endpoint out of range")
            canon.add((min(a, b), max(a, b)))
        object.__setattr__(self, "num_vertices", int(num_vertices))
        object.__setattr__(self, "edges", tuple(sorted(canon)))


def mis_to_adtypes(g: Graph) -> Instance:
    """One type per vertex, one unit-value ad each, flat discounts, and a
    full-width gap between adjacent vertices' types: a gap-feasible set of
    placed ads is exactly an independent set, so the optimal welfare equals
    the maximum independent set size."""
    k = g.num_vertices
    gap = [[0] * k for _ in range(k)]
    for a, b in g.edges:
        gap[a][b] = k
        gap[b][a] = k
    types = [TypeSpec(f"v{i}", [1.0], [1.0] * k) for i in range(k)]
    return Instance(k, types, gap)


def max_independent_set_size(g: Graph) -> int:
    """Exhaustive independent-set oracle (fine up to ~20 vertices)."""
    if g.num_vertices > 20:
        raise GuardError("exhaustive independent set limited to 20 vertices")
    adj = [0] * g.num_vertices
    for a, b in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best = 0
    for mask in range(1 << g.num_vertices):
        if mask.bit_count() <= best:
            continue
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = mask.bit_count()
    return best


def parse_graph_text(text: str) -> Graph:
    """Edge-list format: first line "n m", then m lines "u v", 0-indexed;
    blank lines and lines starting with "#" are skipped.  Raises
    ``ValueError`` for a line that is not two integers, naming its line
    number in the file, and for an edge count other than m."""
    rows = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            a, b = map(int, line.split())
        except ValueError:
            raise ValueError(f"line {number}: expected two integers, "
                             f"found {line!r}") from None
        rows.append((a, b))
    if not rows:
        raise ValueError("empty graph file")
    (n, m), edges = rows[0], rows[1:]
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return Graph(n, edges)
