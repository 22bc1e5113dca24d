"""Seeded random problems for the oracle_check workload.

The shape mirrors the engine-vs-oracle cross-check: p in {2, 3, 5}, one to
three variables, a pure power of degree 1..3 in every variable, up to two
random generators of degree at most 3, optional module rows, and p^n <= 4.
Degenerate draws (a constant term, hence the unit ideal; a polynomial whose
terms cancel to zero) are kept on purpose: dropping them would hide exactly
the oracle defects this workload exists to measure.

The problems come from a fixed pool: POOL_ROUNDS rounds of one random
instance per (p, n, variable count, module kind) cell, drawn with
POOL_SEED. The run's seed permutes the variables of every instance (which
changes the monomial order, so the engine's work, but not the length) and
the order of the pool. Instance cost spans four orders of magnitude, with a
heavy tail inside single cells, so fresh draws per seed made the time of a
pass vary threefold between seeds; a fixed pool keeps runs comparable.
"""

from __future__ import annotations

import random

PRIMES = (2, 3, 5)
N_MAX = {2: 2, 3: 1, 5: 0}  # largest n with p^n <= 4
KINDS = ("free", "cyclic", "rank2")
POOL_SEED = 0
POOL_ROUNDS = 2


def _monomial_text(names, exps) -> str:
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(names, exps)
        if e
    ]
    return "*".join(parts)


def random_polynomial(rng: random.Random, names, p: int, max_degree=3, max_terms=3) -> str:
    """Up to max_terms monomials of total degree <= max_degree; terms that
    cancel mod p drop out, and an empty sum is written as 0."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(names)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(names))] += 1
        key = tuple(exps)
        terms[key] = (terms.get(key, 0) + rng.randrange(1, p)) % p
    pieces = []
    for exps, c in sorted(terms.items(), reverse=True):
        if c == 0:
            continue
        mono = _monomial_text(names, exps)
        if not mono:
            pieces.append(str(c))
        elif c == 1:
            pieces.append(mono)
        else:
            pieces.append(f"{c}*{mono}")
    return " + ".join(pieces) if pieces else "0"


def random_problem(rng: random.Random, p: int, n: int, nvars: int, kind: str) -> str:
    """Problem-file text for one oracle-check instance of the given cell."""
    names = [f"x{i}" for i in range(nvars)]
    ideal = [f"{name}^{rng.randint(1, 3)}" for name in names]
    for _ in range(rng.randint(0, 2)):
        g = random_polynomial(rng, names, p)
        if g != "0":
            ideal.append(g)
    lines = [f"p = {p}", "vars = " + " ".join(names), "ideal = " + ", ".join(ideal)]
    if kind == "cyclic":
        lines.append("module = " + random_polynomial(rng, names, p))
    elif kind == "rank2":
        rows = [
            ", ".join(random_polynomial(rng, names, p) for _ in range(2))
            for _ in range(rng.randint(1, 2))
        ]
        lines.append("module = " + "; ".join(rows))
        lines.append("module_rank = 2")
    lines.append(f"n = {n}..{n}")
    return "\n".join(lines) + "\n"


CELLS = [
    (p, n, nvars, kind)
    for p in PRIMES
    for n in range(N_MAX[p] + 1)
    for nvars in (1, 2, 3)
    for kind in KINDS
]


def instance_pass(rng: random.Random) -> list[str]:
    """One instance per cell, in cell order."""
    return [random_problem(rng, *cell) for cell in CELLS]


def pool() -> list[str]:
    rng = random.Random(POOL_SEED)
    return [text for _ in range(POOL_ROUNDS) for text in instance_pass(rng)]


def permute_variables(text: str, rng: random.Random) -> str:
    """The same problem with its variables declared in a random order."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("vars = "):
            names = line[len("vars = "):].split()
            rng.shuffle(names)
            lines[i] = "vars = " + " ".join(names)
    return "\n".join(lines) + "\n"


def seeded_pool(seed: int) -> list[str]:
    """The pool with the run seed's variable orders, in the seed's order."""
    rng = random.Random(seed)
    texts = [permute_variables(text, rng) for text in pool()]
    rng.shuffle(texts)
    return texts
