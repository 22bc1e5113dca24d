#!/usr/bin/env python3
"""Benchmark of the hilbertkunz engine, driven through `cli.run_problem`.

    python3 perfbench/run.py --workload spairs --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the engine is imported from
./src. Each workload is a closed loop with one client: the next report is
requested only after the previous one returned, with default settings
(grevlex, one thread, no time budget). Passes repeat until --seconds have
gone by (at least one pass), and every report is checked.

--trace 0 prints the end-to-end metrics. --trace 1 alternates an untraced
pass with a traced pass of the same problems, redone layer by layer in
tracing.py, and prints the per-layer metrics: self time per layer, exact
counts, and the traced minus untraced wall time as the tracing overhead.
The spans go to .perfbench/ at the end of the run.

Every line but the last is for people; the last is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

SETUP_PROBES = 7
TRACE_DIR = workloads.ROOT / ".perfbench"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

END_TO_END_UNITS = {
    "wall_s": "s",
    "max_sample_s": "s",
    "instance_s.p50": "s",
    "instance_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def probe_setup(texts: list[str]) -> dict:
    """Import and parse in a fresh interpreter, one child at a time."""
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(workloads.SRC)],
        input="\0".join(texts),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    if not Path(out["module"]).resolve().is_relative_to(workloads.SRC.resolve()):
        raise RuntimeError(f"hilbertkunz imported from {out['module']}, not ./src")
    return out


class Run:
    """Everything one invocation measures."""

    def __init__(self, run_problem, parse_problem):
        self.run_problem = run_problem
        self.parse_problem = parse_problem
        self.pass_wall: list[float] = []
        self.pass_max: list[float] = []
        self.op_seconds: dict[str, list[float]] = {}
        self.attempted = 0
        self.outcomes: Counter = Counter()
        self.failures: dict[str, str] = {}

    def fail(self, op_id: str, reason: str) -> None:
        known = reason in (workloads.UNDECIDED, workloads.DISAGREE)
        self.outcomes[reason if known else "other"] += 1
        self.failures.setdefault(op_id, reason)

    def untraced_pass(self, ops, pfs) -> list[dict]:
        reports = []
        slowest = 0.0
        t_pass = time.perf_counter()
        for op, pf in zip(ops, pfs):
            t0 = time.perf_counter()
            report = self.run_problem(op.subcommand, pf)
            dt = time.perf_counter() - t0
            reports.append(report)
            self.op_seconds.setdefault(op.id, []).append(dt)
            if op.subcommand == "oracle-check":
                slowest = max(slowest, dt)
            else:
                slowest = max([slowest, *report["timing"]["per_n"].values()])
        self.pass_wall.append(time.perf_counter() - t_pass)
        self.pass_max.append(slowest)
        for op, report in zip(ops, reports):
            self.attempted += 1
            reason = op.check(report)
            if reason is not None:
                self.fail(op.id, reason)
        return reports

    @property
    def failed(self) -> int:
        return sum(self.outcomes.values())

    @property
    def correct(self) -> bool:
        return self.failed == self.outcomes[workloads.UNDECIDED]


def end_to_end(run: Run, setup: list[dict]) -> dict:
    # one value per op (its median over passes), so that each distinct
    # problem or instance weighs the same however many passes ran
    per_op = [statistics.median(v) for v in run.op_seconds.values()]
    return {
        "wall_s": statistics.median(run.pass_wall),
        "max_sample_s": statistics.median(run.pass_max),
        "instance_s.p50": statistics.median(per_op),
        "instance_s.p90": statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "setup_s": statistics.median(s["import_s"] + s["parse_s"] for s in setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setup),
    }


def measure(seconds: float, ops, run: Run, tracer) -> list[float]:
    """Passes until the time is up; with a tracer, each untraced pass is
    followed by a traced pass of the same problems. Returns the traced
    pass wall times."""
    import tracing

    traced_wall: list[float] = []
    t_start = time.perf_counter()
    pfs = [run.parse_problem(op.text) for op in ops]
    while True:
        reports = run.untraced_pass(ops, pfs)
        if tracer is not None:
            t_pass = time.perf_counter()
            for op, pf, report in zip(ops, pfs, reports):
                run.attempted += 1
                with tracer.op(op.id):
                    got = tracing.traced_report(op.subcommand, pf, tracer)
                want = workloads.report_lengths(op.subcommand, report)
                if got != want:
                    run.fail(op.id, f"traced lengths {got} != untraced {want}")
            traced_wall.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - t_start
        last = run.pass_wall[-1] + (traced_wall[-1] if traced_wall else 0.0)
        if elapsed + last / 2 >= seconds:
            return traced_wall


def per_layer(run: Run, tracer, traced_wall: list[float], setup: list[dict]) -> dict:
    passes = len(traced_wall)
    out = {
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "problemfile.parse_s": statistics.median(s["parse_s"] for s in setup),
        **tracer.layer_seconds(passes),
    }
    for name in (
        "groebner.samples",
        "groebner.input_generators",
        "groebner.basis_size.sum",
    ):
        out[name] = tracer.counts[name] / passes
    out["groebner.basis_size.max"] = tracer.counts["groebner.basis_size.max"]
    for name in ("presentations.relations", "oracle.calls"):
        out[name] = tracer.counts[name] / passes
    out["oracle.undecided"] = run.outcomes[workloads.UNDECIDED] / passes
    out["oracle.disagree"] = run.outcomes[workloads.DISAGREE] / passes
    out["trace.wall_s"] = statistics.median(traced_wall)
    out["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(run.pass_wall)
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "hilbertkunz" / "cli.py").is_file():
        print(f"no engine source at {workloads.SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    ops = workloads.workload_pass(args.workload, args.seed)
    setup = [probe_setup([op.text for op in ops]) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(workloads.SRC))
    import tracing
    from hilbertkunz.cli import run_problem
    from hilbertkunz.problemfile import parse_problem

    run = Run(run_problem, parse_problem)
    tracer = tracing.Tracer() if args.trace else None
    traced_wall = measure(args.seconds, ops, run, tracer)

    if tracer is None:
        metrics = end_to_end(run, setup)
    else:
        metrics = per_layer(run, tracer, traced_wall, setup)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.as_json()))
        print(f"spans: {path.relative_to(workloads.ROOT)} ({len(tracer.spans)})")

    print(f"workload {args.workload}, seed {args.seed}: {len(run.pass_wall)} "
          f"passes, {run.attempted} ops, {run.failed} failed, failed_frac "
          f"{run.failed / run.attempted:.4f}")
    for op_id, reason in run.failures.items():
        print(f"  failed {op_id}: {reason}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:14.6f} {unit_of(name)}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
