"""Spans around the program's public calls, recorded from outside it.

:func:`install` swaps traced wrappers into the module namespaces the CLI
calls through (``adtypes.cli``, ``adtypes.pricing``, ...) and returns a
function that puts the originals back.  A span is (id, op, name, start, end,
parent, counts); ``counts`` carries what the program itself returns, such as
a solve's :class:`SolveStats`.  Reserve re-solves are counted through the
public ``allocator=`` argument of ``price_with_reserves``.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1

    def start(self, name: str) -> dict:
        span = {"id": len(self.spans), "op": self.op, "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def install(tracer: Tracer):
    """Wrap the public calls an op makes; returns the undo function."""
    from adtypes import cli, core, gapdp, hungarian, pricing

    saved: list[tuple[object, str, object]] = []

    def patch(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    solve = hungarian.solve_adtypes

    def traced_solve(inst, **kwargs):
        span = tracer.start("hungarian.solve_adtypes")
        try:
            sol = solve(inst, **kwargs)
        finally:
            tracer.end(span)
        st = sol.stats
        span["counts"] = {"pops": st.total_pops, "scan_calls": st.scan_calls,
                          "max_queue": st.max_queue_occupancy,
                          "path_hops": sum(ph[3] for ph in st.phases)}
        return sol

    price = pricing.price_with_reserves

    def traced_price(inst, reserves, **kwargs):
        calls = 0

        def counting_allocator(sub):
            nonlocal calls
            calls += 1
            if calls == 1:
                return traced_solve(sub)
            return tracer.call("pricing.resolve", traced_solve, sub)

        span = tracer.start("pricing.price_with_reserves")
        try:
            outcome = price(inst, reserves, counting_allocator, **kwargs)
        finally:
            tracer.end(span)
        span["counts"] = {"resolves": calls - 1, "winners": len(outcome.matching)}
        return outcome

    patch(cli, "load_instance", tracer.wrap("core.load_instance", core.load_instance))
    patch(core, "validate_instance",
          tracer.wrap("core.validate_instance", core.validate_instance))
    patch(cli, "_write_json", tracer.wrap("cli.write_json", cli._write_json))
    patch(cli, "matching_to_list",
          tracer.wrap("cli.matching_to_list", cli.matching_to_list))
    patch(pricing, "priced_outcome_to_dict",
          tracer.wrap("cli.priced_outcome_to_dict", pricing.priced_outcome_to_dict))
    patch(hungarian, "solve_adtypes", traced_solve)
    patch(pricing, "solve_adtypes", traced_solve)
    patch(pricing, "certify", tracer.wrap("hungarian.certify", hungarian.certify))
    patch(pricing, "vcg_prices_fast",
          tracer.wrap("pricing.vcg_prices_fast", pricing.vcg_prices_fast))
    patch(pricing, "price_with_reserves", traced_price)
    patch(gapdp, "solve_gap_dp", tracer.wrap("gapdp.solve_gap_dp", gapdp.solve_gap_dp))

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


# Per-layer metric -> (unit, per-op value from that op's spans).

def _ms(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans) * 1000.0


def _self_ms(spans, op_spans) -> float:
    ids = {s["id"] for s in spans}
    return _ms(spans) - _ms(c for c in op_spans if c["parent"] in ids)


def _named(op_spans, *names):
    return [s for s in op_spans if s["name"] in names]


def _solve_counts(op_spans, key) -> list[int]:
    return [s["counts"][key] for s in _named(op_spans, "hungarian.solve_adtypes")]


def _ratio(op_spans) -> float:
    prices = _named(op_spans, "pricing.price_with_reserves")
    resolves = sum(s["counts"]["resolves"] for s in prices)
    return sum(s["counts"]["winners"] for s in prices) / resolves if resolves else 0.0


PER_LAYER = {
    "core.load_ms": ("ms", lambda o: _ms(_named(o, "core.load_instance"))),
    "core.validate_ms": ("ms", lambda o: _ms(_named(o, "core.validate_instance"))),
    "cli.write_ms": ("ms", lambda o: _ms(_named(
        o, "cli.write_json", "cli.matching_to_list", "cli.priced_outcome_to_dict"))),
    "hungarian.solve_ms": ("ms", lambda o: _ms(_named(o, "hungarian.solve_adtypes"))),
    "hungarian.pops": ("count", lambda o: sum(_solve_counts(o, "pops"))),
    "hungarian.scan_calls": ("count", lambda o: sum(_solve_counts(o, "scan_calls"))),
    "hungarian.max_queue": ("count", lambda o: max(_solve_counts(o, "max_queue"), default=0)),
    "hungarian.path_hops": ("count", lambda o: sum(_solve_counts(o, "path_hops"))),
    "hungarian.certify_ms": ("ms", lambda o: _ms(_named(o, "hungarian.certify"))),
    "pricing.vcg_ms": ("ms", lambda o: _ms(_named(o, "pricing.vcg_prices_fast"))),
    "pricing.vcg_self_ms": ("ms", lambda o: _self_ms(
        _named(o, "pricing.vcg_prices_fast"), o)),
    "pricing.reserve_ms": ("ms", lambda o: _ms(_named(o, "pricing.price_with_reserves"))),
    "pricing.resolves": ("count", lambda o: len(_named(o, "pricing.resolve"))),
    "pricing.resolve_ms": ("ms", lambda o: _ms(_named(o, "pricing.resolve"))),
    "pricing.reserve_self_ms": ("ms", lambda o: _self_ms(
        _named(o, "pricing.price_with_reserves"), o)),
    "pricing.useful_resolve_ratio": ("ratio", _ratio),
    "gapdp.solve_ms": ("ms", lambda o: _ms(_named(o, "gapdp.solve_gap_dp"))),
    "trace.op_ms": ("ms", lambda o: _ms(_named(o, "op"))),
}


def per_layer_metrics(tracer: Tracer, speeds: list[float]) -> dict:
    """Median over timed ops of each metric's per-op value.  Times are
    multiplied by the op's speed, ``speeds[op]``, as the end-to-end times
    are; counts take the lower median, so a count stays a count."""
    ops: dict[int, list[dict]] = {}
    for s in tracer.spans:
        if s["op"] >= 0:
            ops.setdefault(s["op"], []).append(s)
    out = {}
    for name, (unit, fn) in PER_LAYER.items():
        if unit == "ms":
            out[name] = {"value": statistics.median(
                fn(spans) * speeds[op] for op, spans in ops.items()), "unit": unit}
        else:
            median = statistics.median_low if unit == "count" else statistics.median
            out[name] = {"value": median([fn(spans) for spans in ops.values()]),
                         "unit": unit}
    return out
