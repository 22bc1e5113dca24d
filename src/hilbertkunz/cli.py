"""Command line front end.

Five subcommands, all reading the same problem-file format:

    compute         sample the length function, report the raw table
    fit             compute + full asymptotic analysis (alpha, beta, fit)
    tau             fit for a module measured against the rank-r free module
    additive-error  e_n table and its fit for 0 -> N -> M -> M/N -> 0
    oracle-check    cross-check the smallest sample with q > 1, if any,
                    against the dense matrix elimination oracle

Every run prints a single report. In JSON form the top level always has the
six keys input / samples / analysis / timing / warnings / error, in that
order; numbers that can be astronomically large (q, lengths) or exact
rationals are strings so nothing is rounded. The process exits 0 exactly
when "error" is null. Reports are byte-identical across runs except for the
timing block.

CSV form emits one row per sample with the columns
n,q,length,alpha_n,beta_n,delta_n,tau_n; columns the subcommand does not
produce stay empty. A failing CSV run prints the JSON error report to
stderr instead.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analysis import (
    AsymptoticReport,
    HKSeries,
    QuasiPolynomialFit,
    SecondCoefficient,
    additive_error,
    analyze_module_vs_ring,
    analyze_series,
    sample_hk,
)
from .errors import HilbertKunzError, SemanticError
# ORACLE_EXTRA_DEGREES is re-exported for perfbench/tracing.py, which bounds
# its own oracle walk
from .oracle import ORACLE_EXTRA_DEGREES, stable_length  # noqa: F401
from .presentations import (
    free_module,
    frobenius_relations,
    ideal_spec,
    length_mod_frobenius,
    present_submodule,
    quotient_presentation,
    ring_spec,
)
from .problemfile import ProblemFile, parse_problem


def _frac(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _frac_list(xs) -> list[str]:
    return [_frac(x) for x in xs]


def _problem_echo(pf: ProblemFile) -> dict:
    """JSON-friendly echo of the parsed problem, bijective with the file."""
    return {
        "p": pf.p,
        "vars": list(pf.variables),
        "ring": list(pf.ring_relations),
        "ideal": list(pf.ideal),
        "module": None if pf.module is None else [list(r) for r in pf.module],
        "module_rank": pf.module_rank,
        "rank": pf.rank,
        "dim": pf.dim,
        "n": [pf.n_min, pf.n_max],
        "sequence": (
            None if pf.sequence is None else [list(r) for r in pf.sequence]
        ),
    }


def _merge_per_n(per_n: dict, series: HKSeries) -> None:
    for s in series.samples:
        if s.seconds is not None:
            key = str(s.n)
            per_n[key] = round(per_n.get(key, 0.0) + s.seconds, 6)


def _fit_dict(fit: QuasiPolynomialFit | None) -> dict | None:
    if fit is None:
        return None
    return {
        "period": fit.period,
        "start_n": fit.start_n,
        # a constant, or its values indexed by n mod period
        "coefficients": [
            _frac(c) if isinstance(c, Fraction) else _frac_list(c)
            for c in fit.coefficients
        ],
        "spare_samples": fit.spare_samples,
    }


def _second_coefficient_dict(c: SecondCoefficient | None) -> dict | None:
    if c is None:
        return None
    limit = None if c.limit is None else _frac(c.limit)
    return {"sequence": _frac_list(c.sequence), "limit": limit}


def _analysis_dict(rep: AsymptoticReport) -> dict:
    out = {
        "alpha": {
            "raw": _frac_list(rep.alpha.raw),
            "refined": _frac_list(rep.alpha.refined),
            "extrapolated": _frac(rep.alpha.extrapolated),
            "method": rep.alpha.method,
        },
        "beta": _second_coefficient_dict(rep.beta),
        "polynomial_fit": _fit_dict(rep.polynomial_fit),
        "geometric_tail": None,
    }
    if rep.geometric_tail is not None:
        out["geometric_tail"] = {
            "leading": _frac(rep.geometric_tail.leading),
            "coefficient": _frac(rep.geometric_tail.coefficient),
            "ratio": rep.geometric_tail.ratio,
        }
    if rep.delta_sequence is not None:
        out["delta"] = [str(x) for x in rep.delta_sequence]
        out["tau"] = _second_coefficient_dict(rep.tau)
        out["delta_fit"] = _fit_dict(rep.delta_fit)
    return out


def _build(pf: ProblemFile, order: str):
    """Ring, ideal, and module of a problem file, in the requested order."""
    rs = ring_spec(" ".join(pf.variables), pf.p, pf.ring_relations, order)
    ideal = ideal_spec(rs, pf.ideal)
    if pf.module is not None:
        ambient = free_module(rs, pf.module_rank or 1)
        module = present_submodule(ambient, pf.module, declared_generic_rank=pf.rank)
    else:
        module = free_module(rs, 1)
    return rs, ideal, module


def _report(subcommand: str, problem: dict, order: str) -> dict:
    """The six-key report skeleton, before anything has run."""
    return {
        "input": {
            "subcommand": subcommand,
            "problem": problem,
            "order": order,
            "engine": f"hilbertkunz {__version__}",
        },
        "samples": [],
        "analysis": None,
        "timing": {"per_n": {}, "total_seconds": 0.0},
        "warnings": [],
        "error": None,
    }


def run_problem(
    subcommand: str,
    pf: ProblemFile,
    order: str = "grevlex",
    n_max_seconds: float | None = None,
) -> dict:
    """Execute one subcommand and return the full report dict."""
    t0 = time.monotonic()
    report = _report(subcommand, _problem_echo(pf), order)
    per_n: dict[str, float] = {}
    warnings: list[str] = []
    try:
        if subcommand in ("compute", "fit", "tau", "additive-error"):
            if subcommand == "tau" and (pf.module is None or pf.rank is None):
                raise SemanticError(
                    "tau needs both a module and its generic rank "
                    "(keys: module, rank)"
                )
            if subcommand == "additive-error" and pf.sequence is None:
                raise SemanticError(
                    "additive-error needs submodule generators (key: sequence)"
                )
            rs, ideal, module = _build(pf, order)
            if subcommand == "tau":
                modules = (module, free_module(rs, 1))
            elif subcommand == "additive-error":
                modules = (
                    present_submodule(module, pf.sequence),
                    module,
                    quotient_presentation(module, pf.sequence),
                )
            else:
                modules = (module,)
            series = sample_hk(
                ideal, modules, pf.n_min, pf.n_max,
                dim=pf.dim, max_seconds=n_max_seconds,
            )
            shown = series[1] if subcommand == "additive-error" else series[0]
            report["samples"] = [
                {"n": s.n, "q": str(s.q), "length": str(s.length)}
                for s in shown.samples
            ]
            for ser in series:
                _merge_per_n(per_n, ser)
            # the series of one sample_hk call share their notes
            warnings.extend(shown.notes)
            if subcommand == "fit":
                rep = analyze_series(*series)
                report["analysis"] = _analysis_dict(rep)
                warnings.extend(rep.warnings)
            elif subcommand == "tau":
                rep = analyze_module_vs_ring(*series, pf.rank)
                report["analysis"] = _analysis_dict(rep)
                report["analysis"]["ring_lengths"] = [
                    str(s.length) for s in series[1].samples
                ]
                warnings.extend(rep.warnings)
            elif subcommand == "additive-error":
                rep = additive_error(*series)
                report["analysis"] = {
                    "rows": [
                        {
                            "n": r.n,
                            "q": str(r.q),
                            "length_sub": str(r.length_sub),
                            "length_ambient": str(r.length_ambient),
                            "length_quotient": str(r.length_quotient),
                            "error": str(r.error),
                        }
                        for r in rep.rows
                    ],
                    "fit": _fit_dict(rep.fit),
                }
        elif subcommand == "oracle-check":
            rs, ideal, module = _build(pf, order)
            # n = 0 (q = 1) gives l(M/IM), which checks nothing
            n = 1 if pf.n_min == 0 < pf.n_max else pf.n_min
            t_engine = time.monotonic()
            engine = length_mod_frobenius(
                module, ideal, n, max_seconds=n_max_seconds
            )
            per_n[str(n)] = round(time.monotonic() - t_engine, 6)
            q = pf.p**n
            report["samples"] = [
                {"n": n, "q": str(q), "length": str(engine)}
            ]
            deadline = None
            if n_max_seconds is not None:
                deadline = time.monotonic() + n_max_seconds
            walk = stable_length(
                frobenius_relations(module, ideal, n), module.rank, pf.p,
                deadline=deadline,
            )
            count = walk.count
            if walk.stopped is not None:
                warnings.append(walk.stopped)
            elif not walk.stable:
                warnings.append(
                    f"oracle count never stabilized by degree {walk.degree}"
                )
            report["analysis"] = {
                "n": n,
                "q": str(q),
                "engine_length": str(engine),
                "oracle_count": None if count is None else str(count),
                "degree_bound": walk.degree,
                "stable": walk.stable,
                "agree": None if count is None else count == engine,
            }
        else:
            raise SemanticError(f"unknown subcommand {subcommand!r}")
    except HilbertKunzError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["warnings"] = warnings
    report["timing"]["per_n"] = per_n
    report["timing"]["total_seconds"] = round(time.monotonic() - t0, 6)
    return report


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "q", "length", "alpha_n", "beta_n", "delta_n", "tau_n"])
    analysis = report["analysis"] or {}
    alpha = (analysis.get("alpha") or {}).get("raw", [])
    beta_block = analysis.get("beta") or {}
    beta = beta_block.get("sequence", [])
    delta = analysis.get("delta", [])
    tau_block = analysis.get("tau") or {}
    tau = tau_block.get("sequence", [])

    def pick(seq, i):
        return seq[i] if i < len(seq) else ""

    for i, s in enumerate(report["samples"]):
        writer.writerow(
            [s["n"], s["q"], s["length"], pick(alpha, i), pick(beta, i),
             pick(delta, i), pick(tau, i)]
        )
    return buf.getvalue()


def _error_report(subcommand: str, path: str, order: str,
                  exc: Exception) -> dict:
    report = _report(subcommand, {"path": path}, order)
    kind = type(exc).__name__ if isinstance(exc, HilbertKunzError) else "IOError"
    report["error"] = {"type": kind, "message": str(exc)}
    return report


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbertkunz",
        description="Length of M/I^[p^n]M over F_p[x1..xv] and its asymptotics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "compute": "sample the length function over the requested n range",
        "fit": "compute plus full asymptotic analysis",
        "tau": "compare a module against the free module of its generic rank",
        "additive-error": "additivity defect along 0 -> N -> M -> M/N -> 0, fitted",
        "oracle-check": "cross-check the smallest sample with q > 1, if any, "
        "against a dense oracle",
    }
    for name in ("compute", "fit", "tau", "additive-error", "oracle-check"):
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("problem", help="path to a problem file")
        sp.add_argument(
            "--order", choices=("lex", "grevlex"), default="grevlex",
            help="monomial order used by the engine (default grevlex)",
        )
        sp.add_argument(
            "--n-max-seconds", type=float, default=None, dest="n_max_seconds",
            metavar="SECONDS",
            help="per-sample time budget; the first sample over budget "
            "ends the series with a warning (in tau and additive-error, "
            "every series stops at that n)",
        )
        sp.add_argument(
            "--format", choices=("json", "csv"), default="json", dest="fmt",
            help="output format (default json)",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    report = None
    try:
        text = Path(args.problem).read_text()
        pf = parse_problem(text)
    except (OSError, HilbertKunzError) as exc:
        report = _error_report(
            args.subcommand, args.problem, args.order, exc
        )
    if report is None:
        report = run_problem(
            args.subcommand,
            pf,
            order=args.order,
            n_max_seconds=args.n_max_seconds,
        )
    if args.fmt == "json":
        print(to_json(report))
    else:
        print(to_csv(report), end="")
        if report["error"] is not None:
            print(to_json(report), file=sys.stderr)
    return 0 if report["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
