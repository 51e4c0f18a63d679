import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adtypes.core import (
    AdRef,
    Instance,
    Matching,
    TypeSpec,
    ValidationError,
    edge_value,
    instance_from_dict,
    instance_to_dict,
    validate_instance,
    welfare,
    with_bid,
)


def test_wellformed_instance_is_valid():
    inst = Instance(2, [TypeSpec("t", [3.0, 1.0], [1.0, 0.5])])
    assert validate_instance(inst) == []


def test_increasing_discounts_flagged():
    with pytest.raises(ValidationError, match="discounts not non-increasing"):
        Instance(2, [TypeSpec("t", [3.0, 1.0], [0.5, 0.9])])


def test_gap_matrix_shape_flagged():
    with pytest.raises(ValidationError, match="gap matrix not k x k"):
        Instance(2, [TypeSpec("a", [1.0], [1.0, 0.5]),
                     TypeSpec("b", [1.0], [1.0, 0.5])],
                 gap=[[0, 0, 0], [0, 0, 0]])


def test_discount_above_one_is_accepted():
    inst = Instance(1, [TypeSpec("t", [1.0], [1.5])])
    assert inst.types[0].discounts == (1.5,)
    assert validate_instance(inst) == []


@pytest.mark.parametrize("num_slots,types,gap,message", [
    (0, [TypeSpec("t", [1.0], [])], None, "num_slots must be >= 1"),
    (2, [], None, "at least one ad type required"),
    (2, [TypeSpec("a", [1.0], [1.0, 0.5]), TypeSpec("b", [1.0], [1.0, 0.5])],
     [[0, -1], [0, 0]], "gap matrix has negative entries"),
], ids=["no-slots", "no-types", "negative-gap"])
def test_empty_or_negative_shapes_refused(num_slots, types, gap, message):
    with pytest.raises(ValidationError, match=message):
        Instance(num_slots, types, gap)


def test_unsorted_values_flagged_not_repaired():
    with pytest.raises(ValidationError, match="values not non-increasing"):
        Instance(2, [TypeSpec("t", [1.0, 3.0], [1.0, 0.5])])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_numbers_flagged(bad):
    with pytest.raises(ValidationError, match="non-finite value"):
        Instance(2, [TypeSpec("t", [bad, 1.0], [1.0, 0.5])])
    with pytest.raises(ValidationError, match="non-finite discount"):
        Instance(2, [TypeSpec("t", [3.0, 1.0], [1.0, bad])])


@pytest.mark.parametrize("field,bad", [
    ("values", 5), ("discounts", 0.5), ("values", "12"), ("values", [1.0, None]),
    ("discounts", {"a": 1}), ("discounts", [[1.0], 0.5]),
    ("values", [True, 1.0]), ("discounts", ["1", 0.5]), ("values", [10 ** 400]),
])
def test_malformed_number_lists_refused_on_load(field, bad):
    data = {"num_slots": 2, "types": [
        {"name": "t", "values": [3.0, 1.0], "discounts": [1.0, 0.5]}]}
    data["types"][0][field] = bad
    with pytest.raises(ValidationError, match=field):
        instance_from_dict(data)


@pytest.mark.parametrize("data", [
    {"num_slots": 2, "types": 3},
    {"num_slots": 2, "types": [7]},
    {"num_slots": None, "types": [{"values": [1.0], "discounts": [1.0, 0.5]}]},
    {"num_slots": 2, "gap": 4,
     "types": [{"values": [1.0], "discounts": [1.0, 0.5]}]},
    [1, 2],
])
def test_malformed_documents_refused_on_load(data):
    with pytest.raises(ValidationError):
        instance_from_dict(data)


@pytest.mark.parametrize("num_slots,gap", [
    (2.5, None), ("2", None), (True, None), (2.0, None),
    (2, [[0.5, 0], [0, 0]]), (2, [[0, "1"], [0, 0]]), (2, [[False, 0], [0, 0]]),
])
def test_non_integers_refused_not_rounded(num_slots, gap):
    # int() would turn 2.5 into 2, "2" into 2 and a gap of 0.5 into 0
    types = [TypeSpec("a", [1.0], [1.0, 0.5]), TypeSpec("b", [1.0], [1.0, 0.5])]
    with pytest.raises(ValidationError, match="integer"):
        Instance(num_slots, types, gap)
    doc = {"num_slots": num_slots, "gap": gap, "types": [
        {"name": "a", "values": [1.0], "discounts": [1.0, 0.5]},
        {"name": "b", "values": [1.0], "discounts": [1.0, 0.5]}]}
    with pytest.raises(ValidationError, match="integer"):
        instance_from_dict(doc)


@pytest.mark.parametrize("discounts", [[1e308, 1.0], [1.0, 1.0]])
def test_overflowing_welfare_bound_flagged(discounts):
    # every number is finite, but an edge value or the welfare is not
    with pytest.raises(ValidationError, match="welfare bound"):
        Instance(2, [TypeSpec("t", [1e308, 1e308], discounts)])


def test_padding_and_truncation():
    inst = Instance(3, [TypeSpec("short", [5.0], [1.0, 0.5, 0.25]),
                        TypeSpec("long", [9, 8, 7, 6], [1.0, 0.5, 0.25])])
    assert inst.types[0].values == (5.0, 0.0, 0.0)
    assert inst.types[1].values == (9.0, 8.0, 7.0)
    assert inst.real_counts == (1, 3)


def test_instances_that_differ_only_in_real_ads_differ():
    # padding makes the two value lists equal, but one ad is real in the
    # first and two in the second: they serialize and price differently,
    # so they compare and hash apart
    one = Instance(2, [TypeSpec("a", [1.0], [1, 1])])
    two = Instance(2, [TypeSpec("a", [1.0, 0.0], [1, 1])])
    assert one.types == two.types
    assert one != two
    assert len({one, two}) == 2
    assert instance_to_dict(one) != instance_to_dict(two)
    same = Instance(2, [TypeSpec("a", [1.0], [1, 1])])
    assert one == same and hash(one) == hash(same)


def test_edge_value_examples(example1):
    # video worth 12 in the second slot at discount 1/3
    assert edge_value(example1, AdRef(0, 0), 1) == pytest.approx(4.0)
    # link worth 10 in the first slot at discount 1/2
    assert edge_value(example1, AdRef(1, 0), 0) == 5.0
    zero = Instance(1, [TypeSpec("t", [7.0], [0.0])])
    assert edge_value(zero, AdRef(0, 0), 0) == 0.0


def test_edge_value_range_errors(example1):
    with pytest.raises(IndexError):
        edge_value(example1, AdRef(0, 0), 2)
    with pytest.raises(IndexError):
        edge_value(example1, AdRef(5, 0), 0)


def test_welfare_example1(example1):
    assert welfare(example1, Matching({})) == 0.0
    optimal = Matching({0: AdRef(1, 0), 1: AdRef(0, 0)})
    swapped = Matching({0: AdRef(0, 0), 1: AdRef(1, 0)})
    assert welfare(example1, optimal) == 9.0
    assert welfare(example1, swapped) == 8.5


def test_matching_rejects_duplicate_ad():
    with pytest.raises(ValueError, match="ad assigned twice"):
        Matching({0: AdRef(0, 0), 1: AdRef(0, 0)})


def test_matching_rejects_duplicate_slot():
    with pytest.raises(ValueError, match="slot assigned twice"):
        Matching([(0, AdRef(0, 0)), (0, AdRef(1, 0))])


def test_adref_is_a_named_pair():
    # hashed and sorted in C as a tuple, with the fields, order and repr of
    # the frozen record it replaced
    ad = AdRef(0, 1)
    assert repr(ad) == "AdRef(ad_type=0, rank=1)"
    assert (ad.ad_type, ad.rank) == (0, 1)
    assert sorted([AdRef(1, 0), AdRef(0, 2), ad]) == \
        [ad, AdRef(0, 2), AdRef(1, 0)]
    assert {ad: "x"}[AdRef(0, 1)] == "x"
    with pytest.raises(AttributeError):
        ad.rank = 2


def test_welfare_iteration_order_invariant(example1):
    a = Matching({0: AdRef(1, 0), 1: AdRef(0, 0)})
    b = Matching([(1, AdRef(0, 0)), (0, AdRef(1, 0))])
    assert welfare(example1, a) == welfare(example1, b)


def test_json_round_trip(example1):
    data = json.loads(json.dumps(instance_to_dict(example1)))
    again = instance_from_dict(data)
    assert again == example1
    assert again.real_counts == example1.real_counts


def test_with_bid_rank_shifts():
    inst = Instance(3, [TypeSpec("t", [9.0, 5.0, 2.0], [1.0, 0.5, 0.25])])
    up, ref, rank_map = with_bid(inst, AdRef(0, 2), 7.0)
    assert up.types[0].values == (9.0, 7.0, 5.0)
    assert ref == AdRef(0, 1)
    assert rank_map == {2: 1, 0: 0, 1: 2}
    # ties: the probed ad sorts ahead of equal values
    tie, ref2, _ = with_bid(inst, AdRef(0, 2), 5.0)
    assert ref2 == AdRef(0, 1)
    assert tie.types[0].values == (9.0, 5.0, 5.0)


@pytest.mark.parametrize("bid, error", [(-1.0, "negative value"),
                                        (float("nan"), "non-finite value")])
def test_with_bid_refuses_a_negative_or_nan_bid(bid, error):
    # the rebuilt instance is refused by its constructor, the one gate
    inst = Instance(2, [TypeSpec("t", [9.0, 5.0], [1.0, 0.5])])
    with pytest.raises(ValidationError, match=error):
        with_bid(inst, AdRef(0, 1), bid)


def test_with_bid_keeps_padding_ads_padding():
    # one ad per type on three slots: each type's other two ads are padding,
    # and stay so when a real ad's bid changes
    inst = Instance(3, [TypeSpec("a", [5.0], [1.0, 0.5, 0.25]),
                        TypeSpec("b", [4.0], [1.0, 0.5, 0.25])])
    probe, ref, _ = with_bid(inst, AdRef(0, 0), 3.0)
    assert probe.real_counts == (1, 1)
    assert probe.types[0].values == (3.0, 0.0, 0.0)
    assert probe.real_ads() == [ref, AdRef(1, 0)]


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    types = []
    for t in range(k):
        vals = sorted(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n)),
                      reverse=True)
        disc = sorted((draw(st.integers(0, 8)) / 8 for _ in range(n)),
                      reverse=True)
        types.append(TypeSpec(f"t{t}", [float(v) for v in vals], disc))
    return Instance(n, types)


@given(small_instances())
@settings(max_examples=120, deadline=None)
def test_edge_value_monotone(inst):
    assert validate_instance(inst) == []
    for t in range(inst.num_types):
        for r in range(inst.num_slots):
            row = [edge_value(inst, AdRef(t, r), s) for s in range(inst.num_slots)]
            assert all(row[i] >= row[i + 1] for i in range(len(row) - 1))
        for s in range(inst.num_slots):
            col = [edge_value(inst, AdRef(t, r), s) for r in range(inst.num_slots)]
            assert all(col[i] >= col[i + 1] for i in range(len(col) - 1))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def test_defaulted_parameter_count_ratchet():
    # every parameter with a default value, positional or keyword-only, in
    # every function, method and lambda under src/adtypes, and every
    # annotated field with a value in a @dataclass class: a knob that one
    # caller sets to one value is surface to keep in sync, so the count may
    # fall but not rise
    src = Path(__file__).resolve().parent.parent / "src" / "adtypes"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                name = getattr(node, "name", "<lambda>")
                found += [f"{path.name}:{name}({a.arg})" for a in named]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [f"{path.name}:{node.name}({stmt.target.id})"
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and stmt.value is not None]
    assert len(found) <= 13, "\n".join(found)


def test_validation_happens_only_in_the_instance_constructor():
    # an Instance is valid by construction, so no module validates one again:
    # no ensure_valid helper, and one validate_instance call in all, in
    # Instance.__init__
    src = Path(__file__).resolve().parent.parent / "src" / "adtypes"

    def calls(tree):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "validate_instance"]

    named, called, init = [], {}, None
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if "ensure_valid" in (getattr(node, "id", None),
                                  getattr(node, "attr", None),
                                  getattr(node, "name", None)):
                named.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and node.name == "Instance":
                init = next(f for f in node.body
                            if getattr(f, "name", None) == "__init__")
        if calls(tree):
            called[path.name] = calls(tree)
    assert named == [], named
    assert called == {"core.py": calls(init)} and len(calls(init)) == 1, called


def test_no_json_writer_indents():
    # an indent sends json.dump and json.dumps to the pure-Python encoder,
    # so every writer leaves it out and stays on the C one
    src = Path(__file__).resolve().parent.parent / "src" / "adtypes"
    writers, indented = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and getattr(node.func.value, "id", None) == "json"):
                writers.append(f"{path.name}:{node.lineno}")
                if any(kw.arg == "indent" for kw in node.keywords):
                    indented.append(writers[-1])
    assert writers, "no json.dump or json.dumps call found"
    assert indented == [], indented
