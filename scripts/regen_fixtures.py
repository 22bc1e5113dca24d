#!/usr/bin/env python3
"""Regenerate the expected-report fixtures next to the corpus problem files.

Each fixture <stem>.<subcommand>.json is the JSON report of running that
subcommand on <stem>.hk with default flags, minus the timing block. Tests
compare byte for byte, so rerun this script whenever the report format or
the corpus changes, and eyeball the diff before committing.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hilbertkunz.cli import run_problem
from hilbertkunz.problemfile import parse_problem

CORPUS = Path(__file__).resolve().parents[1] / "src" / "hilbertkunz" / "corpus"

# (problem stem, subcommand) pairs; one fixture per pair
RUNS = [
    ("regular", "fit"),
    ("monsky_p2", "fit"),
    ("monsky_p3", "fit"),
    ("monsky_p7", "fit"),
    ("monsky_p2_long", "fit"),
    ("hanmonsky", "fit"),
    ("determinantal", "fit"),
    ("omega", "tau"),
    ("additive_error", "additive-error"),
]


def main() -> None:
    for stem, subcommand in RUNS:
        pf = parse_problem((CORPUS / f"{stem}.hk").read_text())
        report = run_problem(subcommand, pf)
        if report["error"] is not None:
            raise SystemExit(f"{stem}: {report['error']}")
        del report["timing"]
        out = CORPUS / f"{stem}.{subcommand}.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out.name}")


if __name__ == "__main__":
    main()
