"""Randomized invariants: engine vs oracle, order independence, additivity,
Frobenius towers, and the closed form for monomial complete intersections."""

import random

import hilbertkunz as hk

from conftest import random_instance, random_polynomial, run_cross_check


def to_ring(f, S2):
    # exponent vectors are order independent, so rebuilding is a dict copy
    return S2.from_dict(dict(f.terms))


def rebuild(rs, ideal, module, order: str):
    rs2 = hk.ring_spec(" ".join(rs.ring.variables), rs.p, (), order)
    ideal2 = hk.ideal_spec(rs2, [to_ring(g, rs2.ring) for g in ideal.generators])
    rels2 = [
        hk.FreeElement(tuple(to_ring(c, rs2.ring) for c in r.components))
        for r in module.relations
    ]
    module2 = hk.module_presentation(rs2, module.rank, rels2)
    return rs2, ideal2, module2


def test_engine_matches_oracle_on_random_instances():
    assert run_cross_check(seed=90125, count=200) == 0


def test_length_is_order_independent():
    rng = random.Random(424242)
    for _ in range(15):
        rs, ideal, module, n = random_instance(rng)
        baseline = hk.length_mod_frobenius(module, ideal, n)
        _, ideal_lex, module_lex = rebuild(rs, ideal, module, "lex")
        assert hk.length_mod_frobenius(module_lex, ideal_lex, n) == baseline


def test_direct_sum_lengths_add():
    rng = random.Random(777)
    for _ in range(12):
        rs, ideal, m1, n = random_instance(rng)
        kind = rng.choice(["free", "cyclic"])
        if kind == "free":
            m2 = hk.free_module(rs, rng.randint(1, 2))
        else:
            m2 = hk.cyclic_module(rs, [random_polynomial(rng, rs.ring)])
        both = hk.length_mod_frobenius(hk.direct_sum(m1, m2), ideal, n)
        split = hk.length_mod_frobenius(m1, ideal, n) + hk.length_mod_frobenius(
            m2, ideal, n
        )
        assert both == split


def test_frobenius_tower():
    """Bracketing by p and then sampling at n equals sampling at n + 1."""
    rng = random.Random(31337)
    checked = 0
    while checked < 12:
        rs, ideal, module, n = random_instance(rng)
        if rs.p != 2:
            continue
        towered = ideal.frobenius_power(2)
        assert hk.length_mod_frobenius(module, towered, n) == (
            hk.length_mod_frobenius(module, ideal, n + 1)
        )
        checked += 1


def test_monomial_complete_intersection_closed_form():
    """For I = (x_1^{a_1}, .., x_v^{a_v}) the length of R/I^[q] is
    q^v * prod(a_i) exactly."""
    rng = random.Random(5151)
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        v = rng.randint(1, 3)
        rs = hk.ring_spec(" ".join(f"x{i}" for i in range(v)), p)
        exps = [rng.randint(1, 3) for _ in range(v)]
        gens = [
            rs.ring.monomial(tuple(e if j == i else 0 for j in range(v)))
            for i, e in enumerate(exps)
        ]
        ideal = hk.ideal_spec(rs, gens)
        n = rng.randint(0, 2 if p == 2 else 1)
        q = p**n
        product = 1
        for e in exps:
            product *= e
        got = hk.length_mod_frobenius(hk.free_module(rs, 1), ideal, n)
        assert got == product * q**v


def test_free_module_length_scales_with_rank():
    rng = random.Random(60609)
    for _ in range(10):
        rs, ideal, _, n = random_instance(rng)
        base = hk.length_mod_frobenius(hk.free_module(rs, 1), ideal, n)
        r = rng.randint(2, 3)
        assert hk.length_mod_frobenius(hk.free_module(rs, r), ideal, n) == r * base
