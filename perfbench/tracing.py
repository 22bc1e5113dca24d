"""Spans around the layer calls of one report, from outside the engine.

`traced_report` redoes what `hilbertkunz.cli.run_problem` does with its
default settings (grevlex, one thread, no time budget), but calls the
public function of each module itself and wraps every call in a span. The
engine is not instrumented; a span covers one call into a layer.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from hilbertkunz.analysis import (
    HKSample,
    HKSeries,
    analyze_module_vs_ring,
    analyze_series,
    bounded_by_power,
)
from hilbertkunz.cli import ORACLE_EXTRA_DEGREES
from hilbertkunz.errors import MatrixTooLarge, NotZeroDimensional
from hilbertkunz.groebner import (
    buchberger,
    count_standard_monomials,
    default_module_order,
    is_zero_dimensional,
)
from hilbertkunz.oracle import oracle_length
from hilbertkunz.presentations import (
    free_module,
    frobenius_relations,
    ideal_spec,
    length_mod_frobenius,
    present_submodule,
    quotient_presentation,
    ring_spec,
)

# every span name; a layer's metric is `<name>_s`, its self time
LAYERS = (
    "presentations.build",
    "presentations.dimension",
    "presentations.frobenius_relations",
    "groebner.buchberger",
    "groebner.count",
    "analysis.analyze",
    "oracle.engine",
    "oracle.oracle_length",
)
ROOT_SPAN = "op"


class Tracer:
    """Spans and counts kept in memory until the run ends.

    A span is [name, start, end, parent index or None, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op_id: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def op(self, op_id: str):
        """The root span of one op; the spans inside carry its id."""
        self.op_id = op_id
        with self.span(ROOT_SPAN):
            yield

    def self_times(self) -> dict[str, float]:
        """Per span name: durations minus the time their children cover.

        Children never overlap (one thread), so summing them is exact."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def layer_seconds(self, passes: int) -> dict[str, float]:
        """Self time per layer and pass, as `<layer>_s` metrics; the root
        spans' own time is `trace.other_s`."""
        self_times = self.self_times()
        out = {f"{layer}_s": self_times.get(layer, 0.0) / passes for layer in LAYERS}
        out["trace.other_s"] = self_times.get(ROOT_SPAN, 0.0) / passes
        return out

    def as_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def _build(pf, t: Tracer):
    with t.span("presentations.build"):
        rs = ring_spec(" ".join(pf.variables), pf.p, pf.ring_relations)
        ideal = ideal_spec(rs, pf.ideal)
        if pf.module is not None:
            ambient = free_module(rs, pf.module_rank or 1)
            module = present_submodule(
                ambient, list(pf.module), declared_generic_rank=pf.rank
            )
        else:
            module = free_module(rs, 1)
    t.counts["presentations.relations"] += len(module.relations)
    return rs, ideal, module


def _dimension(rs, pf, t: Tracer) -> tuple[int, list[str]]:
    with t.span("presentations.dimension"):
        d = rs.dimension()
    if pf.dim is not None and pf.dim != d:
        return pf.dim, [f"dimension override {pf.dim} used; computed value is {d}"]
    return d, []


def _length(module, ideal, n: int, t: Tracer) -> int:
    with t.span("presentations.frobenius_relations"):
        gens = frobenius_relations(module, ideal, n)
    S = module.ringspec.ring
    with t.span("groebner.buchberger"):
        G = buchberger(gens, default_module_order(S, module.rank), rank=module.rank)
    with t.span("groebner.count"):
        if not is_zero_dimensional(G):
            raise NotZeroDimensional("I^[q]M does not have finite length")
        length = count_standard_monomials(G)
    c = t.counts
    c["groebner.samples"] += 1
    c["groebner.input_generators"] += len(gens)
    c["groebner.basis_size.sum"] += len(G.elements)
    c["groebner.basis_size.max"] = max(c["groebner.basis_size.max"], len(G.elements))
    return length


def _series(rs, ideal, module, pf, t: Tracer) -> HKSeries:
    d, notes = _dimension(rs, pf, t)
    samples = []
    for n in range(pf.n_min, pf.n_max + 1):
        t0 = time.monotonic()
        length = _length(module, ideal, n, t)
        samples.append(HKSample(n, rs.p**n, length, time.monotonic() - t0))
    return HKSeries(rs, ideal, module, d, tuple(samples), tuple(notes))


def _oracle_check(pf, t: Tracer) -> dict:
    rs, ideal, module = _build(pf, t)
    n = pf.n_min
    with t.span("oracle.engine"):
        engine = length_mod_frobenius(module, ideal, n)
    with t.span("presentations.frobenius_relations"):
        gens = frobenius_relations(module, ideal, n)
    start = max(
        (sum(e) for g in gens for c in g.components for e, _ in c.terms),
        default=1,
    )
    start = max(start, 1)
    count, stable = None, False
    for degree in range(start, start + ORACLE_EXTRA_DEGREES + 1):
        t.counts["oracle.calls"] += 1
        try:
            with t.span("oracle.oracle_length"):
                count, stable = oracle_length(gens, module.rank, pf.p, degree)
        except MatrixTooLarge:
            break
        if stable:
            break
    return {
        "engine": str(engine),
        "oracle": None if count is None else str(count),
    }


def traced_report(subcommand: str, pf, t: Tracer) -> dict:
    """The exact lengths `run_problem(subcommand, pf)` reports, in the
    shape of `workloads.report_lengths`, computed layer by layer."""
    if subcommand == "oracle-check":
        return _oracle_check(pf, t)
    rs, ideal, module = _build(pf, t)
    if subcommand == "fit":
        series = _series(rs, ideal, module, pf, t)
        with t.span("analysis.analyze"):
            analyze_series(series)
        return {"samples": [str(s.length) for s in series.samples]}
    if subcommand == "tau":
        series_m = _series(rs, ideal, module, pf, t)
        series_r = _series(rs, ideal, free_module(rs, 1), pf, t)
        with t.span("analysis.analyze"):
            analyze_module_vs_ring(series_m, series_r, pf.rank)
        return {
            "samples": [str(s.length) for s in series_m.samples],
            "ring": [str(s.length) for s in series_r.samples],
        }
    if subcommand == "additive-error":
        with t.span("presentations.build"):
            sub = present_submodule(module, list(pf.sequence))
            quot = quotient_presentation(module, list(pf.sequence))
        t.counts["presentations.relations"] += len(sub.relations) + len(quot.relations)
        triple = [_series(rs, ideal, m, pf, t) for m in (sub, module, quot)]
        rows = [
            [str(s.length) for s in samples]
            for samples in zip(*(ser.samples for ser in triple))
        ]
        errors = [int(c) - int(b) + int(a) for a, b, c in rows]
        qs = [s.q for s in triple[1].samples]
        if pf.dim is not None:
            d = pf.dim
        else:
            with t.span("presentations.dimension"):
                d = rs.dimension()
        with t.span("analysis.analyze"):
            bounded_by_power(errors, qs, d - 1, [s.n for s in triple[1].samples])
        return {"rows": rows}
    raise ValueError(f"unknown subcommand {subcommand!r}")
