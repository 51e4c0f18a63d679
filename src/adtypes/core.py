"""Problem model shared by every solver.

An instance has ``n`` ordered slots and ``k`` ad types.  Each type carries a
list of per-ad values (sorted non-increasing) and a discount curve over the
slots (sorted non-increasing, one entry per slot).  The value of placing ad
``r`` of type ``t`` in slot ``s`` is ``discounts[t][s] * values[t][r]``.
Optional gap rules are a k-by-k integer matrix ``G``: after a type-``i`` ad in
slot ``s``, slots ``s+1 .. s+G[i][j]`` may not hold a type-``j`` ad.

An :class:`Instance` is valid by construction (its constructor raises
:class:`ValidationError`), so the solvers take validity as given.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

TOL = 1e-9


def tol_for(magnitude: float) -> float:
    """The one tolerance rule: ``TOL`` relative to ``magnitude`` (absolute
    when it is below 1), so a check means the same in any unit.  Per-edge
    quantities (slacks, duals, utilities, queue keys) pass the instance's
    largest edge value, through :func:`scaled_tol`; sums pass the welfare."""
    return TOL * max(1.0, abs(magnitude))


class ValidationError(ValueError):
    """Raised when an instance, or a document describing one, is invalid."""

    def __init__(self, errors):
        self.errors = list(errors) if not isinstance(errors, str) else [errors]
        super().__init__("; ".join(self.errors))


class GuardError(RuntimeError):
    """Raised when an exhaustive solver or the gap DP refuses an instance
    as too large."""


def as_number(x, what: str) -> float:
    """``x`` as a float when it is a number as JSON has them: an int or a
    float, and not a bool.  Anything else, an int too large for a float
    included, raises :class:`ValidationError`."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            pass
    raise ValidationError(f"{what}: {x!r} is not a number")


def as_integer(x, what: str) -> int:
    """``x`` as an int; anything else, bools included, is refused rather
    than rounded."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {x!r}")


class AdRef(NamedTuple):
    """Ad ``rank`` within its type's descending value order.  A named
    tuple, so it hashes, compares and sorts by ``(ad_type, rank)`` in C
    wherever it is a key."""

    ad_type: int
    rank: int


@dataclass(frozen=True)
class TypeSpec:
    """One ad type: a value list and a discount curve over the slots."""

    name: str
    values: tuple[float, ...]
    discounts: tuple[float, ...]

    def __init__(self, name: str, values: Sequence[float], discounts: Sequence[float]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", tuple(float(v) for v in values))
        object.__setattr__(self, "discounts", tuple(float(d) for d in discounts))


@dataclass(frozen=True)
class Instance:
    """A full problem: slots, typed value lists, discount curves, gap rules.

    Construction normalizes every type to exactly ``num_slots`` values by
    appending zero-value ads (or keeping only the top ``num_slots``); the
    pre-padding count per type is kept in ``real_counts``.  Nothing is
    re-sorted or rounded: a ``num_slots`` or gap entry that is not an
    integer, or any error :func:`validate_instance` finds (unsorted input
    included), raises :class:`ValidationError`.
    """

    num_slots: int
    types: tuple[TypeSpec, ...]
    gap: tuple[tuple[int, ...], ...] | None = None
    real_counts: tuple[int, ...] = field(default=(), compare=False)

    def __init__(self, num_slots, types, gap=None):
        n = as_integer(num_slots, "num_slots")
        object.__setattr__(self, "num_slots", n)
        norm, real = [], []
        for spec in types:
            vals = spec.values[:n] if n > 0 else spec.values
            real.append(len(vals))
            # pad no further than the discount curve reaches: a longer
            # num_slots is refused below, and padding to it first could
            # exhaust memory
            if len(vals) < n:
                vals += (0.0,) * (min(n, len(spec.discounts)) - len(vals))
            norm.append(TypeSpec(spec.name, vals, spec.discounts))
        object.__setattr__(self, "types", tuple(norm))
        object.__setattr__(self, "real_counts", tuple(real))
        if gap is not None:
            gap = tuple(tuple(as_integer(g, "gap entry") for g in row)
                        for row in gap)
        object.__setattr__(self, "gap", gap)
        rep = validate_instance(self)
        if not rep.ok:
            raise ValidationError(rep.errors)

    @property
    def num_types(self) -> int:
        return len(self.types)

    def real_ads(self) -> list[AdRef]:
        """Only the ads that were actually supplied (no padding)."""
        return [AdRef(t, r) for t in range(self.num_types)
                for r in range(self.real_counts[t])]

    def value_of(self, ad: AdRef) -> float:
        return self.types[ad.ad_type].values[ad.rank]


@dataclass(frozen=True)
class Matching:
    """Partial assignment of slots to ads; injective on both sides."""

    pairs: tuple[tuple[int, AdRef], ...]

    def __init__(self, assignment: Mapping[int, AdRef] | Iterable[tuple[int, AdRef]]):
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        pairs = tuple(sorted((int(s), ad) for s, ad in items))
        slots = [s for s, _ in pairs]
        ads = [ad for _, ad in pairs]
        if len(set(slots)) != len(slots):
            raise ValueError("slot assigned twice")
        if len(set(ads)) != len(ads):
            raise ValueError("ad assigned twice")
        object.__setattr__(self, "pairs", pairs)

    def as_dict(self) -> dict[int, AdRef]:
        return dict(self.pairs)

    def slot_of(self, ad: AdRef) -> int | None:
        for s, a in self.pairs:
            if a == ad:
                return s
        return None

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class ValidationReport:
    """Violations found in an instance.  ``errors`` make solvers refuse;
    ``warnings`` are advisory (discounts above 1 are tolerated but flagged)."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok


def validate_instance(inst: Instance) -> ValidationReport:
    """Check finiteness, monotonicity, signs, dimensions, the gap matrix
    shape, and that the welfare bound ``num_slots`` x largest value x largest
    discount is finite, so no sum the solvers form can overflow.  Every
    :class:`Instance` passes it, so on one it reports only warnings."""
    rep = ValidationReport()
    err = rep.errors.append
    if inst.num_slots < 1:
        err("num_slots must be >= 1")
    if inst.num_types < 1:
        err("at least one ad type required")
    n = inst.num_slots
    for t, spec in enumerate(inst.types):
        label = spec.name or f"type {t}"
        if not all(map(math.isfinite, spec.values)):
            err(f"{label}: non-finite value")
        if not all(map(math.isfinite, spec.discounts)):
            err(f"{label}: non-finite discount")
        if any(v < 0 for v in spec.values):
            err(f"{label}: negative value")
        if any(spec.values[i] < spec.values[i + 1] for i in range(len(spec.values) - 1)):
            err(f"{label}: values not non-increasing")
        if len(spec.discounts) != n:
            err(f"{label}: expected {n} discounts, got {len(spec.discounts)}")
        if any(d < 0 for d in spec.discounts):
            err(f"{label}: negative discount")
        if any(spec.discounts[i] < spec.discounts[i + 1] for i in range(len(spec.discounts) - 1)):
            err(f"{label}: discounts not non-increasing")
        if any(d > 1 for d in spec.discounts):
            rep.warnings.append(f"{label}: discount above 1 (treated as-is)")
    if inst.gap is not None:
        k = inst.num_types
        if len(inst.gap) != k or any(len(row) != k for row in inst.gap):
            err("gap matrix not k x k")
        else:
            if any(g < 0 for row in inst.gap for g in row):
                err("gap matrix has negative entries")
    # with the checks above passed, values and discounts are finite,
    # non-negative and non-increasing, so each type's largest is its first
    if rep.ok and not math.isfinite(max(s.values[0] for s in inst.types)
                                    * max(s.discounts[0] for s in inst.types)
                                    * n):
        err("welfare bound (num_slots x largest value x largest discount) "
            "overflows")
    return rep


def has_gap_rules(inst: Instance) -> bool:
    return inst.gap is not None and any(g != 0 for row in inst.gap for g in row)


def edge_value(inst: Instance, ad: AdRef, slot: int) -> float:
    """Value of placing ``ad`` in ``slot``: discount[slot] * value[rank]."""
    if not 0 <= slot < inst.num_slots:
        raise IndexError(f"slot {slot} out of range")
    if not 0 <= ad.ad_type < inst.num_types:
        raise IndexError(f"ad type {ad.ad_type} out of range")
    spec = inst.types[ad.ad_type]
    if not 0 <= ad.rank < len(spec.values):
        raise IndexError(f"rank {ad.rank} out of range for {spec.name}")
    return spec.discounts[slot] * spec.values[ad.rank]


def scaled_tol(inst: Instance) -> float:
    """The tolerance for per-edge quantities: :func:`tol_for` the instance's
    largest edge value."""
    return tol_for(max(s.values[0] * s.discounts[0] for s in inst.types))


def welfare(inst: Instance, m: Matching) -> float:
    """Total value of a matching.  Summed in slot order so the result does
    not depend on the mapping's iteration order."""
    return sum(edge_value(inst, ad, slot) for slot, ad in m.pairs)


def real_pairs(inst: Instance, m: Matching) -> Matching:
    """``m`` less the slots it fills with zero-value padding ads: the
    assignment every solver and mechanism writes out."""
    return Matching([(slot, ad) for slot, ad in m.pairs
                     if ad.rank < inst.real_counts[ad.ad_type]])


def with_bid(inst: Instance, ad: AdRef, bid: float):
    """Rebuild the instance with ``ad`` bidding ``bid`` instead of its value.

    The probed type's real values are re-sorted (the probed ad is placed
    ahead of equal values); ``real_counts`` is kept for a real probed ad.
    Returns ``(new_instance, new_ref, rank_map)`` where ``rank_map`` sends
    old ranks of the probed type to new ranks.  A negative or NaN bid makes
    the rebuilt instance invalid, so it raises :class:`ValidationError`.
    """
    t = ad.ad_type
    spec = inst.types[t]
    rest = [v for r, v in enumerate(spec.values[:inst.real_counts[t]])
            if r != ad.rank]
    pos = sum(1 for v in rest if v > bid)
    new_vals = rest[:pos] + [float(bid)] + rest[pos:]
    rank_map: dict[int, int] = {ad.rank: pos}
    for old in range(len(spec.values)):
        if old == ad.rank:
            continue
        idx = old - 1 if old > ad.rank else old
        rank_map[old] = idx + 1 if idx >= pos else idx
    new_types = [TypeSpec(s.name, s.values[:c], s.discounts)
                 for s, c in zip(inst.types, inst.real_counts)]
    new_types[t] = TypeSpec(spec.name, new_vals, spec.discounts)
    new_inst = Instance(inst.num_slots, new_types, inst.gap)
    return new_inst, AdRef(t, pos), rank_map


# ---------------------------------------------------------------------------
# JSON interchange:
#   {"num_slots": int,
#    "types": [{"name": str, "values": [num], "discounts": [num]}],
#    "gap": [[int]] | null}

def instance_to_dict(inst: Instance) -> dict:
    return {
        "num_slots": inst.num_slots,
        "types": [
            {
                "name": spec.name,
                "values": list(spec.values[: inst.real_counts[t]]),
                "discounts": list(spec.discounts),
            }
            for t, spec in enumerate(inst.types)
        ],
        "gap": [list(row) for row in inst.gap] if inst.gap is not None else None,
    }


def instance_from_dict(data: Mapping) -> Instance:
    """Build an instance from the JSON schema above.  A malformed document
    (no ``num_slots``, types not a list of objects, a type without values
    or discounts, values or discounts not lists of numbers, a
    ``num_slots`` or gap entry that is not an integer) raises
    :class:`ValidationError`, and so does an invalid instance, which the
    :class:`Instance` constructor refuses."""
    if not isinstance(data, Mapping) or not isinstance(data.get("types"), list):
        raise ValidationError("instance must be an object with a 'types' list")
    if "num_slots" not in data:
        raise ValidationError("instance: missing 'num_slots'")
    types = []
    for i, t in enumerate(data["types"]):
        if not isinstance(t, Mapping):
            raise ValidationError(f"type {i}: must be an object")
        name = t.get("name", f"type{i}")
        for key in ("values", "discounts"):
            if key not in t:
                raise ValidationError(f"type {i} ({name}): missing {key!r}")
        values, discounts = t["values"], t["discounts"]
        bad = f"{name}: 'values' and 'discounts' must be lists of numbers"
        if not (isinstance(values, list) and isinstance(discounts, list)):
            raise ValidationError(bad)
        types.append(TypeSpec(name, [as_number(v, bad) for v in values],
                              [as_number(d, bad) for d in discounts]))
    try:
        return Instance(data["num_slots"], types, data.get("gap"))
    except TypeError as exc:  # num_slots or gap of the wrong shape
        raise ValidationError(f"malformed instance: {exc}") from exc


def read_json(path):
    """The JSON document at ``path``; too deep a one is a ValidationError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested too deeply") from None


def load_instance(path) -> Instance:
    return instance_from_dict(read_json(path))


def matching_to_list(m: Matching) -> list[dict]:
    return [{"slot": s, "type": ad.ad_type, "rank": ad.rank} for s, ad in m.pairs]


def matching_from_list(entries: Iterable[Mapping]) -> Matching:
    """The inverse of :func:`matching_to_list`.  An entry that is not an
    object with integer ``slot``, ``type`` and ``rank`` raises
    :class:`ValidationError`; a slot or ad listed twice raises ValueError."""
    pairs = []
    for e in entries:
        if not isinstance(e, Mapping):
            raise ValidationError(f"assignment entry {e!r} is not an object")
        pairs.append((as_integer(e.get("slot"), "slot"),
                      AdRef(as_integer(e.get("type"), "type"),
                            as_integer(e.get("rank"), "rank"))))
    return Matching(pairs)
