"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import copy
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

from hilbertkunz.cli import run_problem  # noqa: E402
from hilbertkunz.problemfile import parse_problem  # noqa: E402

import run as bench  # noqa: E402
import tracing  # noqa: E402


def fixture_report(stem: str, subcommand: str) -> dict:
    report = json.loads((workloads.CORPUS / f"{stem}.{subcommand}.json").read_text())
    report["timing"] = {"per_n": {"1": 0.001}, "total_seconds": 0.001}
    return report


def test_fixture_check_counts_a_corrupted_length_as_failed():
    report = fixture_report("additive_error", "additive-error")
    op = workloads.Op(
        "additive_error", "additive-error", workloads.corpus_text("additive_error"),
        workloads.fixture_check("additive_error", "additive-error"),
    )
    bad = copy.deepcopy(report)
    bad["samples"][1]["length"] = str(int(bad["samples"][1]["length"]) + 1)
    replies = iter([report, bad])
    run = bench.Run(lambda sub, pf: next(replies), parse_problem)
    pf = parse_problem(op.text)
    run.untraced_pass([op, op], [pf, pf])
    assert (run.attempted, run.failed) == (2, 1)
    assert not run.correct


def test_closed_form_checks_reject_a_corrupted_length():
    report = {
        "error": None,
        "samples": [
            {"n": n, "q": str(2**n), "length": str(workloads.quintic_length(2**n))}
            for n in range(1, 6)
        ],
    }
    check = workloads.quintic_check(1, 5)
    assert check(report) is None
    report["samples"][3]["length"] = "79"
    assert check(report) is not None

    omega = fixture_report("omega", "tau")
    assert workloads.omega_check(1, 3)(omega) is None
    omega["analysis"]["ring_lengths"][2] = "6519"
    assert workloads.omega_check(1, 3)(omega) is not None


def test_quintic_closed_form_matches_the_corpus_fixtures():
    for stem in ("monsky_p2", "monsky_p3", "monsky_p7"):
        report = fixture_report(stem, "fit")
        assert workloads.quintic_check(1, 8)(report) is None, stem


def test_oracle_outcome_classifies_by_stable_first():
    report = {"error": None, "analysis": {"stable": False, "agree": False}}
    assert workloads.oracle_outcome(report) == workloads.UNDECIDED
    report["analysis"] = {"stable": True, "agree": False}
    assert workloads.oracle_outcome(report) == workloads.DISAGREE
    report["analysis"] = {"stable": True, "agree": True}
    assert workloads.oracle_outcome(report) is None


def test_instance_generator_is_deterministic_per_seed():
    a = instances.instance_pass(random.Random(11))
    b = instances.instance_pass(random.Random(11))
    c = instances.instance_pass(random.Random(12))
    assert a == b
    assert a != c
    assert len(a) == len(instances.CELLS)
    assert instances.seeded_pool(5) == instances.seeded_pool(5)
    assert instances.seeded_pool(5) != instances.seeded_pool(6)
    for text in a:
        pf = parse_problem(text)
        assert pf.p ** pf.n_min <= 4


def test_workload_passes_depend_on_the_seed_only():
    for name in workloads.NAMES:
        ops = workloads.workload_pass(name, 3)
        again = workloads.workload_pass(name, 3)
        assert [(op.id, op.text) for op in ops] == [(op.id, op.text) for op in again]


def test_traced_composition_reproduces_run_problem_lengths():
    texts = [
        ("fit", workloads.corpus_text("monsky_p2")),
        ("tau", workloads._with_range(workloads.corpus_text("omega"), 1, 2)),
        ("additive-error",
         workloads._with_range(workloads.corpus_text("additive_error"), 1, 2)),
    ]
    texts += [
        ("oracle-check", t) for t in instances.instance_pass(random.Random(3))[:12]
    ]
    tracer = tracing.Tracer()
    for subcommand, text in texts:
        pf = parse_problem(text)
        want = workloads.report_lengths(subcommand, run_problem(subcommand, pf))
        with tracer.span(tracing.ROOT_SPAN):
            got = tracing.traced_report(subcommand, pf, tracer)
        assert got == want, text
    self_times = tracer.self_times()
    assert set(self_times) <= set(tracing.LAYERS) | {tracing.ROOT_SPAN}
    assert all(v >= 0 for v in self_times.values())
    assert tracer.counts["groebner.samples"] > 0


def test_interaction_table_names_known_metrics_and_workloads():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.NAMES)
    table = json.loads((HERE / "interactions.json").read_text())
    for row in table["predictions"]:
        assert row["layer_metric"] in layer, row
        assert row["moves"] in e2e, row
        assert set(row["on"]) <= names and set(row["no_change_on"]) <= names, row
