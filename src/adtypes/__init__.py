"""Typed ad-to-slot allocation: optimal matching under per-type discount
curves, incentive-compatible pricing, and exact handling of gap rules."""

from .core import (
    AdRef,
    GuardError,
    Instance,
    Matching,
    TypeSpec,
    ValidationError,
    ValidationReport,
    edge_value,
    has_gap_rules,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    validate_instance,
    welfare,
    with_bid,
)
from .hungarian import (
    CertificateReport,
    DualSolution,
    OptimalSolution,
    PhaseInvariantError,
    certify,
    solve_adtypes,
)
from .baseline import (
    AllocationCurve,
    greedy_allocation_curve,
    solve_bruteforce,
    solve_generic_hungarian,
    solve_greedy,
)
from .pricing import (
    PricedOutcome,
    ReserveVector,
    myerson_changepoint_prices,
    myerson_greedy_outcome,
    price_with_reserves,
    test_ic_deviation,
    vcg_outcome,
    vcg_prices_fast,
    vcg_prices_naive,
)
from .gapdp import (
    Graph,
    brute_force_gap,
    check_gap_feasible,
    mis_to_adtypes,
    solve_gap_dp,
    solve_two_type_dp,
)
from .bench import (
    BenchReport,
    GenConfig,
    assignment_to_adtypes,
    bench_scaling,
    gen_greedy_tight,
    gen_random,
)

__version__ = "0.1.0"
