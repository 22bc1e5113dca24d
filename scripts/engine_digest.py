#!/usr/bin/env python3
"""One-line digest of every Buchberger run behind the corpus fixtures.

    python3 scripts/engine_digest.py

Runs each (stem, subcommand) of regen_fixtures.RUNS with groebner._engine,
groebner._PairUpdate.pop and groebner._count_box wrapped, and hashes each
engine run's elements (the monic term lists, in the order the run created
them, each term decoded by groebner._Keys.decode back to the tuple
(key, comp, exps, coeff) the engine used before its keys were ints, with
key = (comp, *ring.order.key(exps)), so the hash stays comparable across
that change). Prints

    engine runs N, heap pops P, pairs Q, sha256 H, count nodes C

where P sums the reducer's heap pops over the runs, Q counts the S-pairs
the pair update handed out and C the nodes the standard-monomial counts
visited. Two trees that print the same engine fields (all but C) took the
same engine trajectory, not only the same lengths, so a refactor of the
engine can be checked with one diff; C tracks the count on its own.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from regen_fixtures import CORPUS, RUNS  # noqa: E402  (also puts src on the path)

from hilbertkunz import groebner  # noqa: E402
from hilbertkunz.cli import run_problem  # noqa: E402
from hilbertkunz.problemfile import parse_problem  # noqa: E402


def main() -> None:
    digest = hashlib.sha256()
    runs = pops = pairs = nodes = 0
    engine = groebner._engine
    pop = groebner._PairUpdate.pop
    count_box = groebner._count_box

    def traced(*args, **kwargs):
        nonlocal runs, pops
        red = engine(*args, **kwargs)
        runs += 1
        pops += red.steps
        decode, order = red.keys.decode, red.ring.order
        elements = [
            [((j, *order.key(e)), j, e, c) for (j, e), c in ((decode(K), c) for K, c in terms)]
            for terms in red.elements
        ]
        digest.update(repr(elements).encode())
        return red

    def counted(update):
        nonlocal pairs
        pair = pop(update)
        pairs += pair is not None
        return pair

    def node(*args):
        nonlocal nodes
        nodes += 1
        return count_box(*args)

    groebner._engine = traced
    groebner._PairUpdate.pop = counted
    groebner._count_box = node
    try:
        for stem, subcommand in RUNS:
            report = run_problem(subcommand, parse_problem((CORPUS / f"{stem}.hk").read_text()))
            if report["error"] is not None:
                raise SystemExit(f"{stem}: {report['error']}")
    finally:
        groebner._engine = engine
        groebner._PairUpdate.pop = pop
        groebner._count_box = count_box
    print(
        f"engine runs {runs}, heap pops {pops}, pairs {pairs}, "
        f"sha256 {digest.hexdigest()}, count nodes {nodes}"
    )


if __name__ == "__main__":
    main()
