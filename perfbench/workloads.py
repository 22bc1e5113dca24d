"""The four benchmark workloads and the checks on every report they time.

A workload repeats one pass, a list of ops; an op is one `run_problem`
call on one problem file. The seed picks the order of the ops, the sign
of the quintic curve, and the variable order of the oracle_check pool.

Nothing here imports hilbertkunz, so the set-up probe can time that import
on its own.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import instances

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS = SRC / "hilbertkunz" / "corpus"

NAMES = ("frobenius_tower", "spairs", "modules", "oracle_check")

# outcomes of a check; anything else is a failed check on a timed output
UNDECIDED = "undecided"
DISAGREE = "disagree"


@dataclass(frozen=True)
class Op:
    id: str
    subcommand: str
    text: str
    check: Callable[[dict], str | None]


def corpus_text(stem: str) -> str:
    return (CORPUS / f"{stem}.hk").read_text()


def fixture_check(stem: str, subcommand: str) -> Callable[[dict], str | None]:
    """The report minus its timing block must equal the fixture byte for byte."""
    expected = (CORPUS / f"{stem}.{subcommand}.json").read_text()

    def check(report: dict) -> str | None:
        body = {k: v for k, v in report.items() if k != "timing"}
        if json.dumps(body, indent=2) + "\n" != expected:
            return f"report differs from fixture {stem}.{subcommand}.json"
        return None

    return check


def _sample_errors(report: dict, n_min: int, n_max: int) -> str | None:
    if report["error"] is not None:
        return f"error {report['error']['type']}: {report['error']['message']}"
    ns = [s["n"] for s in report["samples"]]
    if ns != list(range(n_min, n_max + 1)):
        return f"samples cover n={ns}, expected {n_min}..{n_max}"
    return None


def quintic_length(q: int) -> int:
    """Monsky (1983): x^5 + c*y^5 has length 5q - r(5 - r), r = q mod 5."""
    r = q % 5
    return 5 * q - r * (5 - r)


def quintic_check(n_min: int, n_max: int) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        bad = _sample_errors(report, n_min, n_max)
        if bad:
            return bad
        for s in report["samples"]:
            want = quintic_length(int(s["q"]))
            if int(s["length"]) != want:
                return f"n={s['n']}: length {s['length']}, closed form {want}"
        return None

    return check


def omega_check(n_min: int, n_max: int) -> Callable[[dict], str | None]:
    """tau on (u, x): the ring lengths are the determinantal fixture's, and
    phi_M = phi_R + q^3/2 + q/2 exactly."""
    fixture = json.loads((CORPUS / "determinantal.fit.json").read_text())
    ring = {s["n"]: int(s["length"]) for s in fixture["samples"]}

    def check(report: dict) -> str | None:
        bad = _sample_errors(report, n_min, n_max)
        if bad:
            return bad
        ring_lengths = [int(x) for x in report["analysis"]["ring_lengths"]]
        for s, phi_r in zip(report["samples"], ring_lengths):
            n, q = s["n"], int(s["q"])
            if phi_r != ring[n]:
                return f"n={n}: ring length {phi_r}, fixture {ring[n]}"
            want = phi_r + q**3 // 2 + q // 2
            if int(s["length"]) != want:
                return f"n={n}: module length {s['length']}, closed form {want}"
        return None

    return check


def oracle_outcome(report: dict) -> str | None:
    """Classify by `stable` first: an uncertified oracle count can differ
    from the engine without either being wrong."""
    if report["error"] is not None:
        return f"error {report['error']['type']}: {report['error']['message']}"
    analysis = report["analysis"]
    if not analysis["stable"]:
        return UNDECIDED
    if not analysis["agree"]:
        return DISAGREE
    return None


def _with_range(text: str, n_min: int, n_max: int) -> str:
    lines = [l for l in text.splitlines() if not l.startswith("n =")]
    return "\n".join(lines + [f"n = {n_min}..{n_max}"]) + "\n"


def _quintic(p: int, sign: str, n_max: int) -> Op:
    text = (
        f"p = {p}\nvars = x y\nring = x^5 {sign} y^5\nideal = x, y\n"
        f"dim = 1\nn = 1..{n_max}\n"
    )
    return Op(f"quintic_p{p}{sign}:fit:1..{n_max}", "fit", text, quintic_check(1, n_max))


def workload_pass(name: str, seed: int) -> list[Op]:
    """The ops of one pass; the same seed gives the same pass."""
    rng = random.Random(seed)
    if name == "frobenius_tower":
        ops = [
            _quintic(2, rng.choice("+-"), 20),
            _quintic(3, rng.choice("+-"), 13),
            Op("monsky_p7:fit:1..8", "fit", corpus_text("monsky_p7"),
               fixture_check("monsky_p7", "fit")),
        ]
    elif name == "spairs":
        ops = [
            Op(f"{stem}:fit", "fit", corpus_text(stem), fixture_check(stem, "fit"))
            for stem in ("determinantal", "hanmonsky")
        ]
    elif name == "modules":
        ops = [
            Op("omega:tau:1..4", "tau", _with_range(corpus_text("omega"), 1, 4),
               omega_check(1, 4)),
            Op("additive_error:additive-error", "additive-error",
               corpus_text("additive_error"),
               fixture_check("additive_error", "additive-error")),
        ]
    elif name == "oracle_check":
        return [
            Op(f"oracle#{k}", "oracle-check", text, oracle_outcome)
            for k, text in enumerate(instances.seeded_pool(seed))
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


def report_lengths(subcommand: str, report: dict) -> dict:
    """The exact integers of a report, for comparing traced and untraced runs."""
    analysis = report["analysis"] or {}
    if subcommand == "additive-error":
        return {
            "rows": [
                [r["length_sub"], r["length_ambient"], r["length_quotient"]]
                for r in analysis.get("rows", [])
            ]
        }
    if subcommand == "oracle-check":
        return {
            "engine": analysis.get("engine_length"),
            "oracle": analysis.get("oracle_count"),
        }
    out = {"samples": [s["length"] for s in report["samples"]]}
    if subcommand == "tau":
        out["ring"] = list(analysis.get("ring_lengths", []))
    return out
