#!/usr/bin/env python3
"""Interleaved parent/change runs of perfbench/run.py, written to one BENCH file.

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR --out BENCH_<tag>.json

PARENT_DIR and CHANGE_DIR are source checkouts (`git clone` + `git
checkout`); if one holds compiled bytecode, the other must too. Each run
executes the checkout's own perfbench/run.py from its root, on every
workload of BENCHMARK.json and for its run_seconds, the same on both
sides, PAIRS pairs per workload. Pair k runs seed 1 + k on both sides,
parent first when k is even and change first when it is odd, so drift in
the machine's load falls on both sides alike.

For every workload and end-to-end metric the file holds each side's runs,
median and quartiles, and how many pairs the change read lower (every
end-to-end metric is lower-is-better; ties count for neither side), plus
the ops attempted and failed per run. TRACE_PAIRS further pairs of
--trace 1 runs on TRACE_WORKLOADS add the per-layer medians of both
sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10
TRACE_WORKLOADS = ["frobenius_tower", "spairs", "oracle_check"]
TRACE_PAIRS = 3


def label(checkout: Path) -> str:
    """The checkout's commit, marked when its tracked files differ."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True).stdout.strip()
    commit = git("rev-parse", "--short=12", "HEAD")
    if not commit:
        return checkout.name
    return commit + ("+dirty" if git("status", "--porcelain", "-uno") else "")


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    return {
        "seed": seed,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "correct": out["correct"],
        "metrics": {k: v["value"] for k, v in out["metrics"].items()},
        "units": {k: v["unit"] for k, v in out["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": values}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def interleaved(sides: dict, workload: str, pairs: int, trace: int) -> list[dict]:
    out = []
    for k in range(pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            pair[side] = run(sides[side], workload, 1 + k, trace)
            m = pair[side]["metrics"]
            shown = m.get("wall_s", m.get("trace.wall_s"))
            print(f"{workload} trace={trace} pair {k} {side}: {shown:.4f} s, "
                  f"{pair[side]['failed']}/{pair[side]['attempted']} failed", flush=True)
        out.append(pair)
    return out


def summary(pairs: list[dict], names: list[str]) -> dict:
    metrics = {}
    for name in names:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        metrics[name] = {
            "unit": pairs[0]["parent"]["units"][name],
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # setup_s times a fresh interpreter's import, which compiled bytecode
    # left in only one checkout would halve on that side alone
    compiled = {side: any(root.rglob("__pycache__")) for side, root in sides.items()}
    if compiled["parent"] != compiled["change"]:
        parser.error(f"only one checkout holds __pycache__ directories: {compiled}")
    result = {
        "parent": label(sides["parent"]),
        "change": label(sides["change"]),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0))},
        "settings": {"pairs": PAIRS, "seed": 1, "seconds": SECONDS,
                     "order": "parent first in even pairs, change first in odd"},
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in WORKLOADS:
        pairs = interleaved(sides, workload, PAIRS, trace=0)
        names = list(pairs[0]["parent"]["metrics"])
        result["end_to_end"][workload] = {
            "metrics": summary(pairs, names),
            "failed": {side: [f"{p[side]['failed']}/{p[side]['attempted']}" for p in pairs]
                       for side in sides},
        }
    for workload in TRACE_WORKLOADS:
        pairs = interleaved(sides, workload, TRACE_PAIRS, trace=1)
        names = list(pairs[0]["parent"]["metrics"])
        result["per_layer"][workload] = summary(pairs, names)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
