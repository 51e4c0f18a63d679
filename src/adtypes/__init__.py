"""Typed ad-to-slot allocation: optimal matching under per-type discount
curves, incentive-compatible pricing, and exact handling of gap rules.

``from adtypes import X`` imports the submodule that defines ``X`` on first
use (PEP 562), so ``import adtypes`` alone loads none of them, numpy
included."""

from importlib import import_module

_EXPORTS = {
    "core": (
        "AdRef",
        "GuardError",
        "Instance",
        "Matching",
        "TypeSpec",
        "ValidationError",
        "edge_value",
        "has_gap_rules",
        "instance_from_dict",
        "instance_to_dict",
        "load_instance",
        "validate_instance",
        "welfare",
        "with_bid",
    ),
    "hungarian": (
        "CertificateReport",
        "DualSolution",
        "OptimalSolution",
        "PhaseInvariantError",
        "certify",
        "solve_adtypes",
    ),
    "baseline": (
        "solve_bruteforce",
        "solve_generic_hungarian",
        "solve_greedy",
    ),
    "pricing": (
        "PricedOutcome",
        "ReserveVector",
        "myerson_changepoint_prices",
        "price_with_reserves",
        "test_ic_deviation",
        "vcg_outcome",
        "vcg_prices_fast",
        "vcg_prices_naive",
    ),
    "gapdp": (
        "Graph",
        "brute_force_gap",
        "check_gap_feasible",
        "mis_to_adtypes",
        "solve_gap_dp",
        "solve_two_type_dp",
    ),
    "bench": (
        "BenchReport",
        "GenConfig",
        "assignment_to_adtypes",
        "bench_scaling",
        "gen_greedy_tight",
        "gen_random",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
