import contextlib
import io
import json
import os
import re
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adtypes import cli
from adtypes.bench import GenConfig, gen_random
from adtypes.cli import run
from adtypes.core import instance_to_dict, load_instance
from adtypes.hungarian import solve_adtypes

_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_example1(fixtures_dir, tmp_path):
    out = tmp_path / "sol.json"
    code = run(["solve", "--in", str(fixtures_dir / "example1.json"),
                "--out", str(out)])
    assert code == 0
    sol = _read(out)
    assert sol["welfare"] == 9.0
    assert {(e["slot"], e["type"]) for e in sol["assignment"]} == {(0, 1), (1, 0)}
    assert sol["duals"] is not None


@pytest.mark.parametrize("algo", ["adtypes", "generic", "greedy", "brute",
                                  "two-type"])
def test_solve_all_algorithms(fixtures_dir, tmp_path, algo):
    out = tmp_path / f"{algo}.json"
    code = run(["solve", "--in", str(fixtures_dir / "example1.json"),
                "--algo", algo, "--out", str(out)])
    assert code == 0
    expected = 8.5 if algo == "greedy" else 9.0
    assert _read(out)["welfare"] == expected


def test_solve_gapdp(fixtures_dir, tmp_path):
    out = tmp_path / "gap.json"
    code = run(["solve", "--in", str(fixtures_dir / "gap_small.json"),
                "--algo", "gapdp", "--out", str(out)])
    assert code == 0
    assert _read(out)["welfare"] > 0


def _flat_instance(path, n: int, k: int, gap) -> None:
    path.write_text(json.dumps({
        "num_slots": n,
        "types": [{"name": f"t{t}", "values": [1.0] * n,
                   "discounts": [1.0] * n} for t in range(k)],
        "gap": gap}))


def test_solve_gapdp_past_twelve_slots(tmp_path):
    # n <= 12 no longer caps the gap DP; its state count does
    inst, out = tmp_path / "in.json", tmp_path / "out.json"
    _flat_instance(inst, 13, 2, [[1, 0], [0, 1]])
    assert run(["solve", "--in", str(inst), "--algo", "gapdp",
                "--out", str(out)]) == 0
    assert _read(out)["welfare"] == 13.0


def test_solve_gapdp_refuses_a_large_state_space(tmp_path, capsys):
    # no gaps, k=6, n=60: about 8.7e8 states, refused before the work
    inst = tmp_path / "in.json"
    _flat_instance(inst, 60, 6, [[0] * 6 for _ in range(6)])
    start = time.perf_counter()
    assert run(["solve", "--in", str(inst), "--algo", "gapdp",
                "--out", str(tmp_path / "out.json")]) == 2
    assert time.perf_counter() - start < 5.0
    assert "states" in capsys.readouterr().err


def test_verify_round_trip(fixtures_dir, tmp_path, capsys):
    inst = str(fixtures_dir / "example1.json")
    out = tmp_path / "sol.json"
    assert run(["solve", "--in", inst, "--out", str(out)]) == 0
    assert run(["verify", "--in", inst, "--sol", str(out)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_verify_rejects_corrupted_solution(fixtures_dir, tmp_path, capsys):
    inst = str(fixtures_dir / "example1.json")
    out = tmp_path / "sol.json"
    run(["solve", "--in", inst, "--out", str(out)])
    sol = _read(out)
    sol["duals"]["p"][0] -= 1.0
    out.write_text(json.dumps(sol))
    assert run(["verify", "--in", inst, "--sol", str(out)]) == 1
    assert "violation" in capsys.readouterr().out


def test_verify_reports_ragged_duals(fixtures_dir, tmp_path, capsys):
    # utility rows of unequal length fail the certificate; they once
    # escaped as an array error and printed "invalid:"
    inst = str(fixtures_dir / "example1.json")
    out = tmp_path / "sol.json"
    run(["solve", "--in", inst, "--out", str(out)])
    sol = _read(out)
    sol["duals"]["u"][0].append(0.0)
    out.write_text(json.dumps(sol))
    assert run(["verify", "--in", inst, "--sol", str(out)]) == 1
    captured = capsys.readouterr()
    assert "violation: certificate failed: dual dimensions wrong" \
        in captured.out
    assert "invalid:" not in captured.err


def test_price_vcg_two_bidders(fixtures_dir, tmp_path):
    out = tmp_path / "priced.json"
    code = run(["price", "--in", str(fixtures_dir / "two_bidders.json"),
                "--mechanism", "vcg", "--out", str(out)])
    assert code == 0
    priced = _read(out)
    assert priced["mechanism"] == "vcg"
    pays = {(p["type"], p["rank"]): p["pay"] for p in priced["payments"]}
    assert pays[(0, 0)] == 3.0
    assert pays[(0, 1)] == 0.0


def test_price_with_reserves_file(fixtures_dir, tmp_path):
    reserves = tmp_path / "r.json"
    reserves.write_text(json.dumps([{"type": 0, "rank": 0, "reserve": 4.0}]))
    out = tmp_path / "priced.json"
    code = run(["price", "--in", str(fixtures_dir / "two_bidders.json"),
                "--mechanism", "reserve", "--reserves", str(reserves),
                "--out", str(out)])
    assert code == 0
    priced = _read(out)
    pays = {(p["type"], p["rank"]): p["pay"] for p in priced["payments"]}
    # reserve changepoint at 4 (quantity 1/2) plus the rival's at 6 (to 1)
    assert pays[(0, 0)] == 5.0
    assert pays[(0, 1)] == 0.0


@pytest.mark.parametrize("reserves", [
    [5],
    {"reserves": 5},
    {"floors": []},
    [{"type": 0, "rank": 0}],
    [{"type": "top", "rank": 0, "reserve": 1.0}],
    [{"type": 0, "rank": 0.5, "reserve": 1.0}],
    [{"type": 0, "rank": 0, "reserve": [1.0]}],
    [{"type": 0, "rank": 0, "reserve": float("nan")}],
    [{"type": 0, "rank": 0, "reserve": -1.0}],
    [{"type": 0, "rank": 0, "reserve": 10 ** 400}],
    [{"type": 0, "rank": 0, "reserve": "4.0"}],
    {"reserves": [{"type": 0, "rank": 0, "reserve": 1.0}]},
    [{"type": True, "rank": 0, "reserve": 1.0}],
    [{"type": 0, "rank": False, "reserve": 1.0}],
])
def test_bad_reserves_file_exit_code(fixtures_dir, tmp_path, capsys, reserves):
    # malformed entries and NaN reserves are refused, not a traceback and
    # not a bidder silently filtered out
    path = tmp_path / "r.json"
    path.write_text(json.dumps(reserves))
    assert run(["price", "--in", str(fixtures_dir / "two_bidders.json"),
                "--mechanism", "reserve", "--reserves", str(path),
                "--out", str(tmp_path / "x.json")]) == 1
    assert "invalid:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [{"type": 7, "rank": 0, "reserve": 1.0},
                                   {"type": 0, "rank": 99, "reserve": 1.0}])
def test_reserve_for_a_missing_ad_refused(fixtures_dir, tmp_path, capsys,
                                          entry):
    # two_bidders.json has one type with two ads: a reserve for type 7, or
    # for rank 99, names no ad and must not price as if it were absent
    path = tmp_path / "r.json"
    path.write_text(json.dumps([entry]))
    assert run(["price", "--in", str(fixtures_dir / "two_bidders.json"),
                "--mechanism", "reserve", "--reserves", str(path),
                "--out", str(tmp_path / "x.json")]) == 1
    assert "does not have" in capsys.readouterr().err


def test_price_myerson_greedy_refused(fixtures_dir, tmp_path, capsys):
    # there is no greedy mechanism to price: the name is an unknown choice,
    # refused before any output is written
    out = tmp_path / "priced.json"
    assert run(["price", "--in", str(fixtures_dir / "greedy_tight_25.json"),
                "--mechanism", "myerson-greedy", "--out", str(out)]) == 64
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def _short_instance(path):
    # three slots, one ad per type: a solver may fill slot 2 with a
    # zero-value padding ad
    path.write_text(json.dumps({"num_slots": 3, "types": [
        {"name": "a", "values": [5.0], "discounts": [1.0, 0.5, 0.25]},
        {"name": "b", "values": [4.0], "discounts": [1.0, 0.6, 0.3]}]}))
    return str(path)


def test_price_mechanisms_list_only_real_winners(tmp_path):
    # no mechanism may list the padding ad as assigned
    inst = _short_instance(tmp_path / "short.json")
    assignments = []
    for mechanism in ("vcg", "reserve"):
        out = tmp_path / f"{mechanism}.json"
        assert run(["price", "--in", inst, "--mechanism", mechanism,
                    "--out", str(out)]) == 0
        assignments.append(_read(out)["assignment"])
    assert assignments == [[{"slot": 0, "type": 0, "rank": 0},
                            {"slot": 1, "type": 1, "rank": 0}]] * 2


@pytest.mark.parametrize("algo", ["adtypes", "generic", "greedy", "brute",
                                  "gapdp", "two-type"])
def test_solve_lists_only_real_ads(tmp_path, capsys, algo):
    inst = _short_instance(tmp_path / "short.json")
    out = tmp_path / "sol.json"
    assert run(["solve", "--in", inst, "--algo", algo, "--out", str(out)]) == 0
    sol = _read(out)
    assert sol["assignment"] == [{"slot": 0, "type": 0, "rank": 0},
                                 {"slot": 1, "type": 1, "rank": 0}]
    assert sol["welfare"] == 5.0 + 4.0 * 0.6
    # the trimmed assignment still certifies against the duals
    assert (sol["duals"] is not None) == (algo in ("adtypes", "generic"))
    assert run(["verify", "--in", inst, "--sol", str(out)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_trimmed_solutions_certify(tmp_path, capsys):
    # fewer ads than slots in some types, so padding fills slots; with it
    # trimmed, the written duals still certify the written assignment
    for seed in range(40):
        doc = instance_to_dict(gen_random(GenConfig(
            2 + seed % 7, 1 + seed % 3, seed, "uniform-real", "linear")))
        for t, spec in enumerate(doc["types"]):
            del spec["values"][(seed + t) % len(spec["values"]):]
        inst = tmp_path / "in.json"
        inst.write_text(json.dumps(doc))
        for algo in ("adtypes", "generic"):
            out = tmp_path / f"{algo}.json"
            assert run(["solve", "--in", str(inst), "--algo", algo,
                        "--out", str(out)]) == 0
            assigned = _read(out)["assignment"]
            assert all(e["rank"] < len(doc["types"][e["type"]]["values"])
                       for e in assigned), (seed, algo)
            assert run(["verify", "--in", str(inst), "--sol", str(out)]) == 0, \
                (seed, algo, capsys.readouterr().out)


def test_verify_accepts_a_solution_listing_padding(tmp_path, capsys):
    # files written before padding was trimmed list slot 2's padding ad
    inst = _short_instance(tmp_path / "short.json")
    out = tmp_path / "sol.json"
    assert run(["solve", "--in", inst, "--out", str(out)]) == 0
    sol = _read(out)
    sol["assignment"].append({"slot": 2, "type": 0, "rank": 1})
    out.write_text(json.dumps(sol))
    assert run(["verify", "--in", inst, "--sol", str(out)]) == 0
    assert "ok: welfare 7.4, 2 slots assigned" in capsys.readouterr().out


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--family", "random", "--seed", "9", "--n", "5",
            "--k", "2"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_mis_family(fixtures_dir, tmp_path):
    out = tmp_path / "mis.json"
    code = run(["gen", "--family", "mis",
                "--graph", str(fixtures_dir / "triangle.graph"),
                "--out", str(out)])
    assert code == 0
    data = _read(out)
    assert data["num_slots"] == 3
    assert len(data["types"]) == 3
    assert data["gap"][0][1] == 3


def test_gen_greedy_tight_and_solve(tmp_path):
    inst = tmp_path / "tight.json"
    assert run(["gen", "--family", "greedy-tight", "--epsilon", "0.125",
                "--out", str(inst)]) == 0
    sol = tmp_path / "sol.json"
    assert run(["solve", "--in", str(inst), "--out", str(sol)]) == 0
    assert _read(sol)["welfare"] == 1.875


def test_gen_assignment_family(tmp_path, capsys):
    out = tmp_path / "asg.json"
    assert run(["gen", "--family", "assignment", "--n", "4", "--seed", "2",
                "--out", str(out)]) == 0
    assert "offset=" in capsys.readouterr().err
    assert len(_read(out)["types"]) == 4


def test_gen_assignment_family_stdout_is_the_instance(capsys):
    # the offset goes to stderr, so stdout redirected to a file is valid JSON
    assert run(["gen", "--family", "assignment", "--n", "2"]) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)["types"]) == 2
    assert "offset=" in captured.err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_assignment_refuses_n_below_one(n, capsys):
    # numpy's own errors once came out: a zero-size maximum for 0 and
    # negative dimensions for -1
    assert run(["gen", "--family", "assignment", "--n", n]) == 1
    captured = capsys.readouterr()
    assert f"invalid: n must be >= 1, not {n}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("family", ["random", "assignment"])
def test_gen_refuses_a_negative_seed(family, capsys):
    # numpy's bare "expected non-negative integer" once came out
    assert run(["gen", "--family", family, "--n", "3", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "invalid: --seed must be >= 0, not -1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("family", [["greedy-tight"],
                                    ["mis", "--graph", "triangle.graph"]])
def test_gen_families_without_a_seed_ignore_a_negative_one(
        family, fixtures_dir, monkeypatch, capsys):
    monkeypatch.chdir(fixtures_dir)
    assert run(["gen", "--family", *family, "--seed", "-1"]) == 0
    assert json.loads(capsys.readouterr().out)["types"]


def test_bench_refuses_a_negative_seed(capsys):
    assert run(["bench", "--sizes", "6:2", "--seed", "-1"]) == 64
    captured = capsys.readouterr()
    assert "usage error: --seed must be at least 0, not -1" in captured.err
    assert captured.out == ""


def test_guard_refusal_exit_code(tmp_path):
    inst = tmp_path / "big.json"
    assert run(["gen", "--family", "random", "--n", "12", "--k", "2",
                "--seed", "0", "--out", str(inst)]) == 0
    assert run(["solve", "--in", str(inst), "--algo", "brute",
                "--out", str(tmp_path / "x.json")]) == 2


def test_validation_failure_exit_code(fixtures_dir, tmp_path):
    # gap instance fed to the gap-free solver
    assert run(["solve", "--in", str(fixtures_dir / "gap_small.json"),
                "--algo", "adtypes", "--out", str(tmp_path / "x.json")]) == 1


def test_output_json_is_one_strict_line(fixtures_dir, tmp_path):
    out = tmp_path / "priced.json"
    assert run(["price", "--in", str(fixtures_dir / "two_bidders.json"),
                "--mechanism", "vcg", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert _strict_json(text)["mechanism"] == "vcg"
    nan = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        cli._write_json({"pay": float("nan")}, str(nan))
    assert not nan.exists()


@pytest.mark.parametrize("values", [[float("nan"), 1.0], [float("inf")], 5])
def test_bad_numbers_exit_code(tmp_path, capsys, values):
    # NaN, inf and a bare number are refused by the handler, not a traceback
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({"num_slots": 2, "types": [
        {"name": "t", "values": values, "discounts": [1.0, 0.5]}]}))
    for cmd in (["solve"], ["price", "--mechanism", "vcg"]):
        assert run(cmd + ["--in", str(inst),
                          "--out", str(tmp_path / "x.json")]) == 1
        assert "invalid:" in capsys.readouterr().err


@pytest.mark.parametrize("key,message", [
    ("values", "type 0 (a): missing 'values'"),
    ("discounts", "type 0 (a): missing 'discounts'"),
    ("num_slots", "instance: missing 'num_slots'"),
])
def test_missing_key_exit_code(tmp_path, capsys, key, message):
    # a missing key is refused with its name and the type lacking it, not
    # with the bare key a KeyError prints
    doc = {"num_slots": 2, "types": [
        {"name": "a", "values": [1.0], "discounts": [1.0, 0.5]}]}
    doc.pop(key, None)
    doc["types"][0].pop(key, None)
    inst = tmp_path / "missing.json"
    inst.write_text(json.dumps(doc))
    for cmd in (["solve"], ["price", "--mechanism", "vcg"]):
        assert run(cmd + ["--in", str(inst),
                          "--out", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == f"invalid: {message}\n"


@pytest.mark.parametrize("discounts", [[1e308, 1.0], [1.0, 1.0]])
def test_overflow_exit_code(tmp_path, capsys, discounts):
    # finite numbers whose edge value or welfare overflows: refused, not
    # written out as NaN or Infinity
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps({"num_slots": 2, "types": [
        {"name": "t", "values": [1e308, 1e308], "discounts": discounts}]}))
    for cmd in (["solve"], ["price", "--mechanism", "vcg"]):
        assert run(cmd + ["--in", str(inst),
                          "--out", str(tmp_path / "x.json")]) == 1
        assert "welfare bound" in capsys.readouterr().err


@pytest.mark.parametrize("num_slots", [2 ** 62, 10 ** 400])
def test_huge_num_slots_exit_code(tmp_path, capsys, num_slots):
    # values are padded no further than the discounts reach, so a num_slots
    # the discounts do not cover is refused, not allocated or overflowed
    inst = tmp_path / "huge.json"
    inst.write_text(json.dumps({"num_slots": num_slots, "types": [
        {"name": "t", "values": [1.0], "discounts": [1.0, 0.5]}]}))
    assert run(["solve", "--in", str(inst),
                "--out", str(tmp_path / "x.json")]) == 1
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda sol: "a string",
    lambda sol: [sol],
    lambda sol: dict(sol, duals={"u": 5, "p": sol["duals"]["p"]}),
    lambda sol: dict(sol, welfare="nan"),
    lambda sol: dict(sol, welfare=10 ** 400),
], ids=["string", "list", "duals-u-number", "welfare-nan", "welfare-huge-int"])
def test_verify_refuses_malformed_solution(fixtures_dir, tmp_path, capsys, edit):
    # each once raised TypeError out of run() or printed "ok"
    inst = str(fixtures_dir / "example1.json")
    out = tmp_path / "sol.json"
    assert run(["solve", "--in", inst, "--out", str(out)]) == 0
    out.write_text(json.dumps(edit(_read(out))))
    assert run(["verify", "--in", inst, "--sol", str(out)]) == 1
    captured = capsys.readouterr()
    assert "invalid:" in captured.err and "ok:" not in captured.out


def test_unknown_flag_exit_code(capsys):
    assert run(["solve", "--frobnicate"]) == 64
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    ["solve", "--in", "x.json", "--algo", "simplex"],
    ["price", "--in", "x.json", "--mechanism", "gsp"],
    ["gen", "--family", "zipf"],
])
def test_unknown_choice_exit_code(argv, capsys):
    assert run(argv) == 64
    err = capsys.readouterr().err
    assert "usage error:" in err and "invalid choice" in err


def test_help_width_ignores_the_terminal(monkeypatch, capsys):
    # help wraps at argparse's no-terminal width, whatever COLUMNS says
    pages = []
    for columns in ("200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            run(["price", "--help"])
        pages.append(capsys.readouterr().out)
    assert pages[0] == pages[1]
    assert max(map(len, pages[0].splitlines())) <= 78


@pytest.mark.parametrize("name", ["solve", "price", "gen", "bench", "verify"])
def test_a_named_command_builds_only_its_parser(name, fixtures_dir, tmp_path,
                                                monkeypatch):
    # building the top parser and all five subparsers cost more per call
    # than a gap-rules solve
    example1 = str(fixtures_dir / "example1.json")
    sol = str(tmp_path / "sol.json")
    assert run(["solve", "--in", example1, "--out", sol]) == 0
    argv = {
        "solve": ["--in", example1, "--out", sol],
        "price": ["--in", str(fixtures_dir / "two_bidders.json"),
                  "--mechanism", "vcg", "--out", str(tmp_path / "p.json")],
        "gen": ["--family", "greedy-tight", "--out", str(tmp_path / "g.json")],
        "bench": ["--sizes", "6:2", "--reps", "1",
                  "--out", str(tmp_path / "b.csv")],
        "verify": ["--in", example1, "--sol", sol],
    }[name]
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert run([name, *argv]) == 0
    assert built == [f"adtypes {name}"]


def _outcome(parse):
    """What ``parse()`` did: ("help", page) when it printed help and exited
    0; ("refused", message) when it raised a usage error, or ("refused",
    stderr) when it returned the usage exit code; else ("returned", value)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            value = parse()
    except SystemExit as stop:
        assert stop.code == 0, "only help may exit"
        return "help", out.getvalue()
    except cli._UsageError as exc:
        return "refused", str(exc)
    if value == cli.EXIT_USAGE:
        return "refused", err.getvalue()
    return "returned", value


@pytest.mark.parametrize("name", ["solve", "price", "gen", "bench", "verify"])
def test_command_parser_help_is_the_subparser_help(name):
    standalone = _outcome(lambda: cli._command_parser(name).parse_args(["-h"]))
    sub = _outcome(lambda: cli.build_parser().parse_args([name, "-h"]))
    assert standalone == sub
    assert standalone[0] == "help"
    assert standalone[1].startswith(f"usage: adtypes {name} [-h]")


def test_top_level_help_lists_every_command():
    kind, page = _outcome(lambda: run(["--help"]))
    assert kind == "help"
    assert page.startswith("usage: adtypes [-h] {solve,price,gen,bench,verify}")
    for name, line in [("solve", "solve an instance"),
                       ("price", "compute incentive-compatible payments"),
                       ("gen", "generate an instance"),
                       ("bench", "timing comparison of the two solvers"),
                       ("verify", "check a solution file")]:
        assert re.search(rf"^    {name} +{line}$", page, re.M), name


# argv for the parser property: each command's real flags with values it
# accepts or refuses, junk tokens, unknown commands, "--" and an empty argv
_PAIRS = {
    "solve": [["--in", "inst.json"], ["--in", "missing.json"],
              ["--out", "out.json"], ["--out", "-"], ["--algo", "adtypes"],
              ["--algo", "gapdp"], ["--algo", "brute"], ["--algo", "simplex"],
              ["--trace"]],
    "price": [["--in", "inst.json"], ["--mechanism", "vcg"],
              ["--mechanism", "reserve"], ["--mechanism", "myerson-greedy"],
              ["--mechanism", "gsp"], ["--reserves", "inst.json"],
              ["--reserves", "missing.json"], ["--out", "out.json"]],
    "gen": [["--family", "random"], ["--family", "greedy-tight"],
            ["--family", "mis"], ["--family", "assignment"],
            ["--family", "zipf"], ["--n", "3"], ["--n", "0"], ["--n", "-1"],
            ["--k", "2"], ["--k", "x"], ["--seed", "-1"],
            ["--values", "pareto"], ["--discounts", "step"],
            ["--epsilon", "0.5"], ["--epsilon", "2"], ["--graph", "tri.graph"],
            ["--graph", "inst.json"], ["--out", "out.json"]],
    "bench": [["--sizes", "6:2"], ["--sizes", "4:2,6:1"], ["--sizes", "a:b"],
              ["--reps", "1"], ["--reps", "0"], ["--seed", "3"],
              ["--out", "out.csv"]],
    "verify": [["--in", "inst.json"], ["--sol", "sol.json"],
               ["--sol", "inst.json"], ["--sol", "missing.json"]],
}
_REQUIRED = {"solve": ["--in", "inst.json"],
             "price": ["--in", "inst.json", "--mechanism", "vcg"],
             "gen": ["--family", "random"], "bench": ["--sizes", "6:2"],
             "verify": ["--in", "inst.json", "--sol", "sol.json"]}
_JUNK = st.sampled_from(["--", "-h", "--help", "--he", "--frobnicate", "-x",
                         "--in", "--out=-", "solve", "gen", "0", "-1"]) \
    | st.text(max_size=4)


@st.composite
def _argvs(draw):
    shape = draw(st.sampled_from(["command"] * 4 + ["junk", "empty"]))
    if shape == "empty":
        return []
    if shape == "junk":
        head = draw(st.sampled_from(["help", "solver", "", "--", "-h"]) | _JUNK)
        return [head] + draw(st.lists(_JUNK, max_size=6))
    name = draw(st.sampled_from(sorted(_PAIRS)))
    pairs = draw(st.lists(st.sampled_from(_PAIRS[name]), max_size=4))
    if draw(st.integers(0, 3)):
        pairs.insert(0, _REQUIRED[name])
    argv = [name] + [token for pair in pairs for token in pair]
    for _ in range(max(0, draw(st.integers(-2, 2)))):
        argv.insert(draw(st.integers(1, len(argv))), draw(_JUNK))
    return argv


@given(argv=_argvs())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_run_parses_as_the_full_parser_does(argv):
    # with every handler recording its namespace, run() parses each argv as
    # build_parser() does: the same namespace, help page or refusal
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for name, (help_line, _, add_arguments) in cli._COMMANDS.items():
            mp.setitem(cli._COMMANDS, name,
                       (help_line, lambda args: seen.append(args) or 0,
                        add_arguments))
        expected = _outcome(lambda: cli.build_parser().parse_args(argv))
        got = _outcome(lambda: run(argv))
    assert got[0] == expected[0]
    if expected[0] == "returned":
        assert got[1] == 0 and seen == [expected[1]]
    elif expected[0] == "refused":
        assert got[1].startswith(f"usage error: {expected[1]}\n")
        return
    else:
        assert got == expected
    # the real handlers, in a scratch directory that holds every path named
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(_FIXTURES / "example1.json", Path(tmp) / "inst.json")
        shutil.copy(_FIXTURES / "triangle.graph", Path(tmp) / "tri.graph")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            assert _outcome(lambda: run(["solve", "--in", "inst.json",
                                         "--out", "sol.json"])) \
                == ("returned", 0)
            kind, code = _outcome(lambda: run(argv))
        finally:
            os.chdir(cwd)
    if expected[0] == "help":
        assert kind == "help"
    elif kind == "returned":
        assert code in (0, 1, 2)


def test_bench_csv(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["bench", "--sizes", "10:2,20:2", "--reps", "1",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,solver,median_ms,welfare"
    assert len(lines) == 5


@pytest.mark.parametrize("args, named", [
    (["--sizes", "a:b"], "'a:b'"),
    (["--sizes", "4:2:3"], "'4:2:3'"),
    (["--sizes", "10:2", "--reps", "0"], "--reps"),
    (["--sizes", "10:2", "--reps", "-3"], "--reps"),
])
def test_bench_malformed_arguments_are_usage_errors(args, named, capsys):
    assert run(["bench", *args]) == 64
    err = capsys.readouterr().err
    assert "usage error:" in err and named in err


def test_trace_flag(fixtures_dir, tmp_path, capsys):
    # one line per slot, printed from the solve's SolveStats.phases
    path = fixtures_dir / "example1.json"
    assert run(["solve", "--in", str(path), "--trace",
                "--out", str(tmp_path / "s.json")]) == 0
    lines = capsys.readouterr().err.splitlines()
    inst = load_instance(path)
    assert len(lines) == inst.num_slots
    for j, line in enumerate(lines):
        assert re.fullmatch(
            rf"phase={j} pops=\d+ delta=[-0-9.e+]+ pathlen=\d+", line)
    assert lines == solve_adtypes(inst).stats.trace_lines()


@pytest.mark.parametrize("algo", ["generic", "greedy", "gapdp", "brute",
                                  "two-type"])
def test_trace_flag_without_a_trace_refused(fixtures_dir, tmp_path, capsys,
                                            algo):
    # only the specialized solver records phases; a trace request for any
    # other algorithm is a usage error, not silence
    out = tmp_path / "s.json"
    assert run(["solve", "--in", str(fixtures_dir / "example1.json"),
                "--algo", algo, "--trace", "--out", str(out)]) == 64
    assert "--trace" in capsys.readouterr().err
    assert not out.exists()


def test_reserves_with_vcg_refused(fixtures_dir, tmp_path, capsys):
    # VCG charges no reserves: the file would be ignored and the top bidder
    # would pay the plain VCG price of 3.0
    path = tmp_path / "r.json"
    path.write_text(json.dumps([{"type": 0, "rank": 0, "reserve": 9.5}]))
    out = tmp_path / "x.json"
    assert run(["price", "--in", str(fixtures_dir / "two_bidders.json"),
                "--mechanism", "vcg", "--reserves", str(path),
                "--out", str(out)]) == 64
    assert "--mechanism reserve" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_reserve_refused(fixtures_dir, tmp_path, capsys):
    # an ad listed twice must not silently keep its last reserve
    path = tmp_path / "r.json"
    path.write_text(json.dumps([{"type": 0, "rank": 0, "reserve": 9.5},
                                {"type": 0, "rank": 0, "reserve": 1.0}]))
    assert run(["price", "--in", str(fixtures_dir / "two_bidders.json"),
                "--mechanism", "reserve", "--reserves", str(path),
                "--out", str(tmp_path / "x.json")]) == 1
    assert "more than once" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--in", "--out", "--reserves", "--sol"])
def test_directory_path_refused(fixtures_dir, tmp_path, capsys, flag):
    # a path that cannot be opened as a file exits 1, not with a traceback
    inst = str(fixtures_dir / "two_bidders.json")
    sol = tmp_path / "sol.json"
    assert run(["solve", "--in", inst, "--out", str(sol)]) == 0
    argv = {"--in": ["solve", "--in", str(tmp_path)],
            "--out": ["solve", "--in", inst, "--out", str(tmp_path)],
            "--reserves": ["price", "--in", inst, "--mechanism", "reserve",
                           "--reserves", str(tmp_path)],
            "--sol": ["verify", "--in", inst, "--sol", str(tmp_path)]}[flag]
    assert run(argv) == 1
    assert "invalid:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--in", "--reserves", "--sol"])
def test_deeply_nested_json_refused(fixtures_dir, tmp_path, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    inst, out = str(fixtures_dir / "two_bidders.json"), str(tmp_path / "x")
    argv = {"--in": ["solve", "--in", str(deep), "--out", out],
            "--reserves": ["price", "--in", inst, "--mechanism", "reserve",
                           "--reserves", str(deep), "--out", out],
            "--sol": ["verify", "--in", inst, "--sol", str(deep)]}[flag]
    assert run(argv) == 1
    assert "invalid:" in capsys.readouterr().err


# Arbitrary small documents for the property test: mostly well-formed
# instances (n <= 6, k <= 3), some with one field replaced by arbitrary JSON
# or an awkward number, and arbitrary or edited solution documents.
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(max_size=3))
_ANY_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
_AWKWARD = st.sampled_from([1e308, -1.0, 0.5, float("nan"), float("inf"),
                            10 ** 400, True, "1", [], {}])


@st.composite
def _instance_docs(draw):
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    types = []
    for t in range(k):
        values = draw(st.lists(st.integers(0, 16) | st.floats(0, 16),
                               max_size=n))
        discounts = [d / 8 for d in draw(st.lists(st.integers(0, 8),
                                                  min_size=n, max_size=n))]
        types.append({"name": f"t{t}", "values": sorted(values, reverse=True),
                      "discounts": sorted(discounts, reverse=True)})
    gap = draw(st.none() | st.lists(st.lists(st.integers(0, 2), min_size=k,
                                             max_size=k), min_size=k, max_size=k))
    doc = {"num_slots": n, "types": types, "gap": gap}
    where = draw(st.sampled_from(["none", "doc", "num_slots", "gap", "type",
                                  "value", "discount"]))
    junk = draw(_ANY_JSON | _AWKWARD)
    if where == "doc":
        return junk
    if where in ("num_slots", "gap"):
        doc[where] = junk
    elif where == "type":
        types[draw(st.integers(0, k - 1))] = junk
    elif where != "none":
        spec = types[draw(st.integers(0, k - 1))]
        entries = spec["values" if where == "value" else "discounts"]
        entries.insert(draw(st.integers(0, len(entries))), junk)
    return doc


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-finite number {constant} in output")
    return json.loads(text, parse_constant=refuse)


@given(doc=_instance_docs(), data=st.data())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_cli_never_raises(doc, data):
    # every document is either solved (exit 0, strict JSON out, and the
    # adtypes solution verifies) or refused with exit 1 or 2; nothing
    # escapes run()
    with tempfile.TemporaryDirectory() as tmp:
        inst, out = Path(tmp) / "inst.json", Path(tmp) / "out.json"
        inst.write_text(json.dumps(doc))
        solved = None
        reserves = Path(tmp) / "reserves.json"
        reserves.write_text(json.dumps([{"type": 0, "rank": 0,
                                         "reserve": 2.0}]))
        for cmd in ([["solve", "--algo", algo] for algo in
                     ("adtypes", "gapdp", "generic", "greedy", "brute",
                      "two-type")]
                    + [["price", "--mechanism", "vcg"],
                       ["price", "--mechanism", "reserve"],
                       ["price", "--mechanism", "reserve",
                        "--reserves", str(reserves)]]):
            out.unlink(missing_ok=True)
            code = run(cmd + ["--in", str(inst), "--out", str(out)])
            assert code in (0, 1, 2), cmd
            if code == 0:
                result = _strict_json(out.read_text())
                if cmd[-1] == "adtypes":
                    solved = result
        sol = data.draw(st.one_of(st.just(solved), _ANY_JSON) if solved is None
                        else st.one_of(st.just(solved), _ANY_JSON,
                                       st.builds(dict, st.just(solved),
                                                 welfare=_ANY_JSON | _AWKWARD),
                                       st.builds(dict, st.just(solved),
                                                 duals=_ANY_JSON | _AWKWARD)))
        out.write_text(json.dumps(sol))
        code = run(["verify", "--in", str(inst), "--sol", str(out)])
        if solved is not None and sol == solved:
            assert code == 0  # the solver's own output passes verification
        else:
            assert code in (0, 1, 2)
