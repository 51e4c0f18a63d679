"""What a command imports: only the generators load numpy, the package
still exports every name it did before its imports were deferred, and the
benchmark's tracing still reaches every call it wraps."""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adtypes
from adtypes import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
HEAVY = {"numpy", "adtypes.pricing", "adtypes.bench"}

# Runs each argv of argv[1] (a JSON list) through cli.run in a fresh
# interpreter, then prints which modules the process holds.
PROBE = """
import json, sys
import adtypes.cli
for argv in json.loads(sys.argv[1]):
    assert adtypes.cli.run(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(argvs, code=PROBE) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_cli_loads_no_numpy():
    assert not HEAVY & _modules_after([])


@pytest.mark.parametrize("algo", ["adtypes", "generic", "greedy", "brute",
                                  "gapdp", "two-type"])
def test_solve_loads_no_numpy(tmp_path, algo):
    fixture = "gap_small.json" if algo == "gapdp" else "example1.json"
    argv = ["solve", "--in", str(FIXTURES / fixture), "--algo", algo,
            "--out", str(tmp_path / "sol.json")]
    assert not HEAVY & _modules_after([argv])


def test_verify_without_duals_loads_no_numpy(tmp_path):
    inst, sol = str(FIXTURES / "example1.json"), str(tmp_path / "sol.json")
    loaded = _modules_after([
        ["solve", "--in", inst, "--algo", "greedy", "--out", sol],
        ["verify", "--in", inst, "--sol", sol]])
    assert json.loads(Path(sol).read_text())["duals"] is None
    assert not HEAVY & loaded


def test_verify_with_duals_loads_no_numpy(tmp_path):
    inst, sol = str(FIXTURES / "example1.json"), str(tmp_path / "sol.json")
    loaded = _modules_after([
        ["solve", "--in", inst, "--out", sol],
        ["verify", "--in", inst, "--sol", sol]])
    assert json.loads(Path(sol).read_text())["duals"] is not None
    assert not HEAVY & loaded


@pytest.mark.parametrize("mechanism", ["vcg", "reserve"])
def test_price_loads_no_numpy(tmp_path, mechanism):
    argv = ["price", "--in", str(FIXTURES / "two_bidders.json"),
            "--mechanism", mechanism, "--out", str(tmp_path / "priced.json")]
    loaded = _modules_after([argv])
    assert "adtypes.pricing" in loaded
    assert not {"numpy", "adtypes.bench", "adtypes.baseline"} & loaded


def test_gen_loads_numpy(tmp_path):
    # the control: the probe does see numpy when a command needs it
    argv = ["gen", "--family", "random", "--out", str(tmp_path / "inst.json")]
    assert {"numpy", "adtypes.bench"} <= _modules_after([argv])


def _numpy_imports(path: Path) -> set[tuple[str, str | None]]:
    """``(file name, enclosing function or None)`` of each import of numpy
    in the source file ``path``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                found.add((path.name, scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), None)
    return found


def test_numpy_is_imported_only_by_the_generators():
    # the seeded draws that fix the tests' and the benchmark's instances
    # are numpy's; nothing else in the package may load it
    found = set()
    for path in sorted((ROOT / "src" / "adtypes").glob("*.py")):
        found |= _numpy_imports(path)
    assert found == {("bench.py", None), ("cli.py", "_cmd_gen")}


def test_import_package_loads_no_submodule():
    code = "import json, sys, adtypes; print(json.dumps(sorted(sys.modules)))"
    loaded = _modules_after([], code)
    assert "adtypes" in loaded
    assert not {"adtypes.core", "adtypes.hungarian", "numpy"} & loaded


# Every name the package exported when it imported its submodules eagerly.
EXPORTS = {
    "core": ["AdRef", "GuardError", "Instance", "Matching", "TypeSpec",
             "ValidationError", "ValidationReport", "edge_value",
             "has_gap_rules", "instance_from_dict", "instance_to_dict",
             "load_instance", "validate_instance", "welfare", "with_bid"],
    "hungarian": ["CertificateReport", "DualSolution", "OptimalSolution",
                  "PhaseInvariantError", "certify", "solve_adtypes"],
    "baseline": ["solve_bruteforce", "solve_generic_hungarian",
                 "solve_greedy"],
    "pricing": ["PricedOutcome", "ReserveVector",
                "myerson_changepoint_prices", "price_with_reserves",
                "test_ic_deviation", "vcg_outcome", "vcg_prices_fast",
                "vcg_prices_naive"],
    "gapdp": ["Graph", "brute_force_gap", "check_gap_feasible",
              "mis_to_adtypes", "solve_gap_dp", "solve_two_type_dp"],
    "bench": ["BenchReport", "GenConfig", "assignment_to_adtypes",
              "bench_scaling", "gen_greedy_tight", "gen_random"],
}


def test_every_export_is_its_submodule_attribute():
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"adtypes.{module}")
        for name in names:
            scope = {}
            exec(f"from adtypes import {name}", scope)
            assert scope[name] is getattr(sub, name), (module, name)
    assert sorted(adtypes.__all__) == sorted(
        name for names in EXPORTS.values() for name in names)


def test_unknown_export_is_an_attribute_error():
    assert not hasattr(adtypes, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        adtypes.no_such_name
    with pytest.raises(ImportError):
        from adtypes import no_such_name  # noqa: F401


def test_tracing_reaches_every_patched_call(tmp_path):
    # the benchmark wraps module attributes; a handler that bound one of
    # them at import would slip past its span
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert cli.run(["price", "--in", str(FIXTURES / "two_bidders.json"),
                        "--mechanism", "vcg",
                        "--out", str(tmp_path / "priced.json")]) == 0
        assert cli.run(["solve", "--in", str(FIXTURES / "gap_small.json"),
                        "--algo", "gapdp",
                        "--out", str(tmp_path / "sol.json")]) == 0
    finally:
        undo()
    assert {"core.load_instance", "cli.write_json", "hungarian.solve_adtypes",
            "pricing.vcg_prices_fast", "hungarian.certify",
            "gapdp.solve_gap_dp"} <= {s["name"] for s in tracer.spans}
