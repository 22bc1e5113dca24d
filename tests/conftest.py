"""Shared fixtures: corpus access, cached CLI runs, and the random
engine-vs-oracle cross-check used by the property and acceptance suites."""

import random
from pathlib import Path

import pytest

import hilbertkunz as hk
from hilbertkunz.cli import run_problem
from hilbertkunz.oracle import stable_length
from hilbertkunz.problemfile import parse_problem

CORPUS = Path(hk.__file__).parent / "corpus"


def load_problem(stem: str):
    return parse_problem((CORPUS / f"{stem}.hk").read_text())


@pytest.fixture(scope="session")
def corpus_report():
    """Run a CLI subcommand on a corpus problem, caching across test files
    so the expensive series are computed once per session."""
    cache: dict = {}

    def get(stem: str, subcommand: str, **flags) -> dict:
        key = (stem, subcommand, tuple(sorted(flags.items())))
        if key not in cache:
            cache[key] = run_problem(subcommand, load_problem(stem), **flags)
        return cache[key]

    return get


def random_polynomial(rng: random.Random, S, max_degree=3, max_terms=3):
    """Nonzero-ish random polynomial: up to max_terms monomials of total
    degree <= max_degree with random nonzero coefficients."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * S.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(S.nvars)] += 1
        key = tuple(exps)
        terms[key] = (terms.get(key, 0) + rng.randrange(1, S.p)) % S.p
    return S.from_dict(terms)


def random_instance(rng: random.Random):
    """One cross-check instance: m-primary ideal, small module, tiny q.

    p in {2,3,5}, at most 3 variables, generators of degree at most 3,
    and p^n at most 4 (so n = 0 when p = 5).
    """
    p = rng.choice([2, 3, 5])
    nvars = rng.randint(1, 3)
    names = " ".join(f"x{i}" for i in range(nvars))
    rs = hk.ring_spec(names, p)
    S = rs.ring

    # pure powers in every variable force finite colength
    gens = [S.monomial(tuple(rng.randint(1, 3) if j == i else 0
                             for j in range(nvars)))
            for i in range(nvars)]
    for _ in range(rng.randint(0, 2)):
        gens.append(random_polynomial(rng, S))
    gens = [g for g in gens if not g.is_zero()]
    ideal = hk.ideal_spec(rs, gens)

    kind = rng.choice(["free", "cyclic", "rank2"])
    if kind == "free":
        module = hk.free_module(rs, 1)
    elif kind == "cyclic":
        module = hk.cyclic_module(rs, [random_polynomial(rng, S)])
    else:
        rel = hk.FreeElement(
            (random_polynomial(rng, S), random_polynomial(rng, S))
        )
        module = hk.module_presentation(rs, 2, [rel])

    n_max = {2: 2, 3: 1, 5: 0}[p]
    n = rng.randint(0, n_max)
    return rs, ideal, module, n


def run_cross_check(seed: int, count: int) -> int:
    """Compare engine and oracle lengths on `count` random instances.

    Returns the number of discrepancies (must be 0); raises on the first
    mismatch with the full instance data so failures are reproducible.
    """
    rng = random.Random(seed)
    checked = 0
    while checked < count:
        rs, ideal, module, n = random_instance(rng)
        engine = hk.length_mod_frobenius(module, ideal, n)
        relations = hk.frobenius_relations(module, ideal, n)
        walk = stable_length(relations, module.rank, rs.p)
        if walk.stopped is not None:
            continue  # a matrix cap ended the walk: too large to cross-check
        assert walk.stable, f"oracle count never stabilized ({walk.degree})"
        oracle = walk.count
        assert oracle == engine, (
            f"engine {engine} != oracle {oracle} for p={rs.p}, n={n}, "
            f"ideal={[str(g) for g in ideal.generators]}, "
            f"module rank {module.rank}, "
            f"relations={[[str(c) for c in r.components] for r in module.relations]}"
        )
        checked += 1
    return 0
