"""Groebner engine: bases, normal forms, syzygies, staircase counting."""

import itertools
import random
import time
import unittest.mock
from dataclasses import replace
from math import prod

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import load_problem
from hilbertkunz import groebner
from hilbertkunz.analysis import sample_hk
from hilbertkunz.cli import run_problem
from hilbertkunz.errors import (
    HilbertKunzError,
    NotZeroDimensional,
    ResourceLimit,
    RingMismatch,
)
from hilbertkunz.groebner import (
    FreeElement,
    buchberger,
    count_standard_monomials,
    default_module_order,
    is_zero_dimensional,
    krull_dimension,
    normal_forms,
    syzygies,
    unit_vector,
)
from hilbertkunz.poly import (
    MonomialOrder,
    Polynomial,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    parse_polynomial,
    ring,
)
from hilbertkunz.presentations import (
    free_module,
    frobenius_relations,
    length_mod_frobenius,
    maximal_ideal,
    ring_spec,
)


def polys(S, *texts):
    return [parse_polynomial(t, S) for t in texts]


def random_combination(rng, S, gens, max_terms=3):
    total = S.zero()
    for g in gens:
        coeff = S.from_dict({
            tuple(rng.randint(0, 2) for _ in range(S.nvars)): rng.randint(1, S.p - 1)
            for _ in range(rng.randint(1, max_terms))
        })
        total = total + coeff * g
    return total


def spairs_reduce_to_zero(G) -> bool:
    """Buchberger's criterion: every S-polynomial of two leads in one
    component reduces to zero modulo G, on the engine's own reducer."""
    red = groebner._loaded_reducer(G)
    leads = [red.keys.decode(terms[0][0]) for terms in red.elements]
    for i, j in itertools.combinations(range(len(leads)), 2):
        if leads[i][0] != leads[j][0]:
            continue
        lcm = monomial_lcm(leads[i][1], leads[j][1])
        if red.reduce(red.spoly_terms(i, j, lcm)):
            return False
    return True


# -- basic bases ----------------------------------------------------------------


def test_principal_ideal():
    S = ring("x y", 5)
    f = parse_polynomial("2*x^2 + y", S)
    G = buchberger([f])
    assert len(G.elements) == 1
    assert G.elements[0].components[0] == f.monic()


def test_reduced_basis_is_self_reduced():
    S = ring("x y z", 7)
    G = buchberger(polys(S, "x^2 - y*z", "y^2 - x*z", "z^2 - x*y"))
    assert spairs_reduce_to_zero(G)
    # minimality: no leading term divides any other
    lt = [exps for _, exps in G.leading_terms()]
    for i, a in enumerate(lt):
        for j, b in enumerate(lt):
            if i != j:
                assert not all(x <= y for x, y in zip(a, b))


def test_tails_are_reduced():
    S = ring("x y", 5)
    G = buchberger(polys(S, "x^2 + y", "x*y + x"))
    keyset = {exps for _, exps in G.leading_terms()}
    for e in G.elements:
        f = e.components[0]
        for exps, _ in f.terms[1:]:
            for lead in keyset:
                assert not all(a <= b for a, b in zip(lead, exps))


def test_membership_agrees_with_input_ideal():
    """Reduced basis of {x^2 - y, y^2 - x} under Lex: membership in the new
    basis agrees with membership in the original ideal on random products."""
    S = ring("x y", 5, "lex")
    gens = polys(S, "x^2 - y", "y^2 - x")
    G = buchberger(gens)
    assert spairs_reduce_to_zero(G)
    nf = normal_forms(G)
    rng = random.Random(3)
    for _ in range(50):
        f = random_combination(rng, S, gens)
        assert nf(f).is_zero()
    # x is not in the ideal: the variety contains points with x != 0
    assert not nf(parse_polynomial("x", S)).is_zero()


def test_reduced_basis_is_unique():
    S = ring("x y z", 3)
    gens = polys(S, "x^2*y - z", "y^2 - x + z^2", "x*z - y")
    G1 = buchberger(gens)
    rng = random.Random(9)
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g.scale(rng.randint(1, 2)) for g in shuffled]
        G2 = buchberger(scaled)
        assert G1.elements == G2.elements


def test_normal_form_is_linear_and_idempotent():
    S = ring("x y", 7)
    G = buchberger(polys(S, "x^3 - y", "y^2 - 2*x"))
    nf = normal_forms(G)
    rng = random.Random(4)
    for _ in range(20):
        f = random_combination(rng, S, [S.one()])
        g = random_combination(rng, S, [S.one()])
        r = nf(f)
        assert nf(r) == r
        assert nf(f + g) == nf(r + nf(g))


def test_unit_ideal():
    S = ring("x y", 2)
    G = buchberger(polys(S, "x + 1", "x"))
    assert len(G.elements) == 1
    assert G.elements[0].components[0] == S.one()


@st.composite
def submodule_generators(draw):
    """Random ideals and rank-2 submodules: p in {2,3,5}, lex or grevlex,
    2-3 variables, exponents up to 2, 2-5 generators, zero entries allowed."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["lex", "grevlex"]))
    nvars = draw(st.integers(2, 3))
    rank = draw(st.integers(1, 2))
    S = ring("x y z"[: 2 * nvars - 1], p, kind)
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * nvars), st.integers(1, p - 1)
    )
    gens = []
    for _ in range(draw(st.integers(2, 5))):
        row = []
        for _ in range(rank):
            size = draw(st.integers(0, 3))
            terms = draw(st.lists(term, min_size=size, max_size=size))
            row.append(S.from_dict(dict(terms)))
        gens.append(FreeElement(row))
    return rank, gens


# An ideal where criterion B checked on one side only (lcm(i,h) != lcm(i,j))
# drops a pair the basis needs.
ONE_SIDED_CRITERION_B = (1, [
    FreeElement((f,))
    for f in polys(ring("x y z", 2, "lex"), "y^2*z + z", "x*z^2 + y^2 + 1", "x^2")
])


@settings(max_examples=300, deadline=None)
@given(submodule_generators())
@example(ONE_SIDED_CRITERION_B)
def test_basis_is_reduced_groebner_basis(case):
    """The pair criteria drop only pairs that reduce to zero: the basis
    passes the S-pair test, contains every generator, and is reduced."""
    rank, gens = case
    try:
        G = buchberger(gens, rank=rank, deadline=time.monotonic() + 0.25)
    except ResourceLimit:
        reject()
    assert spairs_reduce_to_zero(G)
    nf = normal_forms(G)
    for g in gens:
        assert nf(g).is_zero()
    leads = G.leading_terms()
    for i, (ci, ei) in enumerate(leads):
        for j, (cj, ej) in enumerate(leads):
            assert i == j or ci != cj or not monomial_divides(ei, ej)
    for e, lead in zip(G.elements, leads):
        for comp, poly in enumerate(e.components):
            for exps, _ in poly.terms:
                if (comp, exps) == lead:
                    continue
                assert not any(
                    c == comp and monomial_divides(lt, exps) for c, lt in leads
                )


def _outcome(count):
    try:
        return count()
    except NotZeroDimensional:
        return "infinite"


@settings(max_examples=200, deadline=None)
@given(submodule_generators(), st.integers(0, 3))
def test_live_leads_count_as_the_reduced_basis(case, power):
    """The length path counts the engine's live leads and skips the tail
    reduction: the same count as the reduced basis, or the same infinite
    length. A power > 0 adds x_i^power in every component, which makes
    the length finite."""
    rank, gens = case
    S = gens[0].ring
    gens = gens + [
        unit_vector(S, rank, j, S.variable(i) ** power)
        for j in range(rank * (power > 0))
        for i in range(S.nvars)
    ]
    deadline = time.monotonic() + 0.5
    try:
        G = buchberger(gens, rank=rank, deadline=deadline)
        leads = groebner._live_leads(gens, rank, deadline)
    except ResourceLimit:
        reject()
    assert _outcome(lambda: groebner._count_leads(leads, S.nvars)) == _outcome(
        lambda: count_standard_monomials(G)
    )


# -- term keys and packed monomials ---------------------------------------------


@st.composite
def keyed_terms(draw):
    """1-6 variables, lex or grevlex, rank 1-3: two terms with exponents
    up to 2^31 - 1, edge values favoured, and a multiplier that keeps the
    first term's exponents in range."""
    nvars = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["lex", "grevlex"]))
    rank = draw(st.integers(1, 3))
    top = (1 << 31) - 1
    field = st.one_of(st.sampled_from([0, 1, top - 1, top]), st.integers(0, top))
    term = st.tuples(st.integers(0, rank - 1), st.tuples(*[field] * nvars))
    (ca, a), b = draw(term), draw(term)
    m = tuple(draw(st.one_of(st.just(top - x), st.integers(0, top - x))) for x in a)
    return kind, rank, (ca, a), b, m


@settings(max_examples=500, deadline=None)
@given(keyed_terms())
def test_term_keys_match_the_tuple_order(case):
    """One int per term: int order is position over term, a multiplier's
    key adds, decoding inverts the key, and the divisor bits answer
    divides as the tuple helper does."""
    kind, rank, (ca, a), (cb, b), m = case
    nvars = len(a)
    keys = groebner._keys(nvars, kind)
    order = MonomialOrder(kind)
    Ka, Kb = keys.key(ca, a), keys.key(cb, b)
    assert (Ka < Kb) == ((ca, *order.key(a)) < (cb, *order.key(b)))
    assert (Ka == Kb) == ((ca, a) == (cb, b))
    Km = keys.key(0, m) - keys.key(0, (0,) * nvars)
    assert Ka + Km == keys.key(ca, monomial_mul(a, m))
    assert keys.decode(Ka) == (ca, a) and keys.decode(Kb) == (cb, b)
    G = keys.guards
    da, db = (Ka ^ keys.flip) & keys.low, (Kb ^ keys.flip) & keys.low
    assert not (da | db) & G
    assert (((db | G) - da) & G == G) == monomial_divides(a, b)
    S = ring(" ".join(f"x{i}" for i in range(nvars)), 2, kind)
    e = unit_vector(S, rank, ca, Polynomial(S, ((a, 1),)))
    assert keys.terms(e) == [(Ka, 1)]


def test_exponents_at_the_key_cap_raise_resource_limit():
    """Term keys hold exponents below 2^31. An input exponent of 2^31, or
    one that a reduction reaches, ends in ResourceLimit, not in a wrong
    basis: lex x - y^(2^30) reduces x^2 to y^(2^31)."""
    S = ring("x y", 3, "lex")
    with pytest.raises(ResourceLimit, match=r"cap 2\^31"):
        buchberger([S.from_dict({(1 << 31, 0): 1, (0, 1): 1})])
    x_minus = S.from_dict({(1, 0): 1, (0, 1 << 30): 2})
    with pytest.raises(ResourceLimit, match=r"cap 2\^31"):
        buchberger([x_minus, S.from_dict({(2, 0): 1})])
    nf = normal_forms(buchberger([x_minus]))
    assert nf(S.from_dict({(1, 0): 1})) == S.from_dict({(0, 1 << 30): 1})
    with pytest.raises(ResourceLimit, match=r"cap 2\^31"):
        nf(S.from_dict({(2, 0): 1}))


def test_live_term_cap_stops_one_reduction(monkeypatch):
    """A reduction that grows past MAX_TERMS live terms stops with
    ResourceLimit, budget or not. At p = 65521 the first tower step of
    the diagonal quartic, NF(x^65521), has about 1.3e8 terms; with a cap
    of 2,000 it stops after a few thousand heap pops, and sample_hk
    reports the cause."""
    rs = ring_spec("x y z w", 65521, ["x^4 + y^4 + z^4 + w^4"])
    monkeypatch.setattr(groebner, "MAX_TERMS", 2000)
    start = time.monotonic()
    nf = normal_forms(rs.basis)
    with pytest.raises(ResourceLimit, match="passed 2000 live terms"):
        nf(parse_polynomial("x^65521", rs.ring))
    with pytest.raises(ResourceLimit, match="n=1 skipped: one reduction passed 2000 live"):
        sample_hk(maximal_ideal(rs), (free_module(rs, 1),), 1, 1)
    assert time.monotonic() - start < 0.5


# -- the divisor index ------------------------------------------------------------


def within(index_bits):
    """Whether an index's ints hold at most index_bits bits in all."""
    return lambda index: sum(o.bit_length() for ov in index.over for o in ov) <= index_bits


@st.composite
def index_runs(draw):
    """Ranks 1-2, 1-6 variables, lex or grevlex, and up to 40 steps: add
    a lead, with a tail half the time, kill a live element, or reduce one
    term. Exponents reach 2^20, with 0-3 favoured so that leads divide
    terms often. INDEX_BITS is the default or small enough that indexes
    are rebuilt and given up."""
    index_leads = draw(st.integers(0, 3))
    index_bits = draw(st.one_of(st.just(groebner.INDEX_BITS), st.integers(1, 400)))
    kind = draw(st.sampled_from(["lex", "grevlex"]))
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 6))
    comp = st.integers(0, rank - 1)
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 1 << 20))] * nvars)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("add"), comp, exps, st.booleans()),
        st.tuples(st.just("add"), comp, exps, st.booleans()),
        st.tuples(st.just("kill"), st.integers(0, 63)),
        st.tuples(st.just("reduce"), comp, exps),
    ), max_size=40))
    return index_leads, index_bits, kind, rank, nvars, ops


@settings(max_examples=400, deadline=None)
@given(index_runs())
# killing g0 (xy) leaves g1 (x) as the lowest general divisor of x^2 y
@example((0, groebner.INDEX_BITS, "grevlex", 1, 2, [
    ("add", 0, (1, 1), True), ("add", 0, (1, 0), True),
    ("kill", 0), ("reduce", 0, (2, 1)),
]))
# x y^0 lies below both stored values of x and of y
@example((0, groebner.INDEX_BITS, "lex", 1, 2, [
    ("add", 0, (2, 3), True), ("add", 0, (5, 1), False), ("add", 0, (1, 0), True),
    ("reduce", 0, (1, 5)), ("reduce", 0, (6, 4)),
]))
# x lies below every lead in x: no lead divides x y^7
@example((0, groebner.INDEX_BITS, "grevlex", 2, 2, [
    ("add", 0, (2, 1), True), ("add", 0, (3, 0), False), ("reduce", 0, (1, 7)),
]))
# at 7 values and 4 elements the index passes 24 bits; rebuilt without
# the killed xy and x^2 it holds 3 values, and x^2 y finds no divisor
@example((0, 24, "grevlex", 1, 2, [
    ("add", 0, (1, 1), True), ("add", 0, (2, 0), True), ("add", 0, (0, 2), True),
    ("kill", 0), ("kill", 1), ("add", 0, (0, 3), True),
    ("reduce", 0, (2, 1)), ("reduce", 0, (1, 3)),
]))
def test_divisor_index_keeps_the_scan_rule(case):
    """With the index on every component past INDEX_LEADS (0-3) leads,
    each heap pop it answers gets the scan's answer, read off the live
    leads with the tuple helper: no divisor, a single-term one whenever
    one divides, and otherwise the general divisor of lowest index. A
    tail is the constant of the last component, so reductions cross
    components. After every add the ints of each index hold at most
    INDEX_BITS bits, an index is given up only when one rebuilt from the
    live leads would hold more than half of them, and its live leads are
    the component's."""
    index_leads, index_bits, kind, rank, nvars, ops = case
    answers = []
    divisor = groebner._DivisorIndex.divisor

    def recorded(index, d):
        found = divisor(index, d)
        answers.append((index, index.fields(d), found))
        return found

    S = ring(" ".join(f"x{i}" for i in range(nvars)), 7, kind)
    red = groebner._Reducer(S, rank, None)
    leads = {}  # live element -> (comp, exps, single)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "INDEX_LEADS", index_leads)
        mp.setattr(groebner, "INDEX_BITS", index_bits)
        mp.setattr(groebner._DivisorIndex, "divisor", recorded)
        for op in ops:
            if op[0] == "add":
                _, comp, exps, tail = op
                terms = [(red.keys.key(comp, exps), 3)]
                if tail and (comp, any(exps)) != (rank - 1, False):
                    terms.append((red.keys.key(rank - 1, (0,) * nvars), 1))
                kept = red.index[comp] is not False
                leads[red.add(terms)] = (comp, exps, len(terms) == 1)
                assert all(map(within(index_bits), filter(None, red.index)))
                if kept and red.index[comp] is False:  # given up: a rebuild is too big
                    rebuilt = groebner._DivisorIndex(red, red.live[comp])
                    assert rebuilt.distinct * len(red.elements) > index_bits // 2
            elif op[0] == "kill" and leads:
                g = sorted(leads)[op[1] % len(leads)]
                red.kill(g)
                del leads[g]
            elif op[0] == "reduce":
                answers.clear()
                red.reduce({red.keys.key(op[1], op[2]): 1})
                for index, exps, found in answers:
                    comp = red.index.index(index)
                    hits = [
                        (not single, g) for g, (c, e, single) in leads.items()
                        if c == comp and monomial_divides(e, exps)
                    ]
                    if not hits:
                        assert found is None
                    elif min(hits)[0]:  # only general leads divide
                        assert found == min(hits)[1]
                    else:
                        assert (False, found) in hits
    for comp, index in enumerate(red.index):
        live = [g for g, (c, _, _) in leads.items() if c == comp]
        if index is None:
            assert len(live) <= index_leads
        elif index:
            assert index.live == sum(1 << g for g in live)
            assert index.single == sum(1 << g for g in live if leads[g][2])


def _engine_runs(index_leads, index_bits=groebner.INDEX_BITS):
    """The element lists of every engine run behind a few samples and a
    lex basis, with INDEX_LEADS and INDEX_BITS at the values given, and
    the state each component's index ended in. Every add is checked to
    leave the ints of each index within INDEX_BITS bits."""
    runs = []
    engine, add = groebner._engine, groebner._Reducer.add

    def recorded(*args, **kwargs):
        red = engine(*args, **kwargs)
        runs.append((red.rank, red.elements, [
            "scan" if i is None else "index" if i else "given up" for i in red.index
        ]))
        return red

    def bounded(red, terms):
        idx = add(red, terms)
        assert all(map(within(index_bits), filter(None, red.index)))
        return idx

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "INDEX_LEADS", index_leads)
        mp.setattr(groebner, "INDEX_BITS", index_bits)
        mp.setattr(groebner, "_engine", recorded)
        mp.setattr(groebner._Reducer, "add", bounded)
        for stem in ("determinantal", "hanmonsky", "omega"):
            run_problem("compute", replace(load_problem(stem), n_min=2, n_max=2))
        S = ring("x y z", 7, "lex")
        buchberger(polys(S, "x^2 + y*z + 1", "y^2 + x*z + 2", "z^2 + x*y + 3"))
    return runs


def test_divisor_index_keeps_the_engine_trajectory():
    """The index on every component, past 4 leads, or on none: every
    engine run makes the same elements in the same order, rank-2 omega
    and lex included."""
    on = _engine_runs(0)
    some = _engine_runs(4)
    off = _engine_runs(groebner.MAX_BASIS)
    assert [r[:2] for r in on] == [r[:2] for r in some] == [r[:2] for r in off]
    assert any(rank == 2 for rank, _, _ in on)
    assert {s for _, _, states in on for s in states} == {"index"}
    assert {s for _, _, states in off for s in states} == {"scan"}


def test_divisor_index_memory_is_capped():
    """With INDEX_BITS small, indexes are rebuilt and given up for the
    scan mid-run, stay within the cap after every add, and every engine
    run still makes the same elements."""
    capped = _engine_runs(0, 400)
    assert [r[:2] for r in capped] == [r[:2] for r in _engine_runs(groebner.MAX_BASIS)]
    states = {s for _, _, states in capped for s in states}
    assert states == {"index", "given up"}


def test_divisor_index_is_sized_by_distinct_exponents(monkeypatch):
    """The quintic's tower reaches exponents of 5*2^20 on bases of 1-3
    leads; with the index forced on every one the series up to q = 2^20
    stays fast, as it would not with storage indexed by exponent value."""
    monkeypatch.setattr(groebner, "INDEX_LEADS", 0)
    rs = ring_spec("x y", 2, ["x^5 + y^5"])
    module, ideal = free_module(rs, 1), maximal_ideal(rs)
    start = time.monotonic()
    lengths = [length_mod_frobenius(module, ideal, n) for n in range(1, 21)]
    assert time.monotonic() - start < 0.5
    assert lengths == [5 * 2**n - (2**n % 5) * (5 - 2**n % 5) for n in range(1, 21)]


@st.composite
def packed_operands(draw):
    """Two exponent vectors that fit w-bit fields, edge values favoured."""
    nvars = draw(st.integers(1, 8))
    w = draw(st.integers(1, 24))
    cap = (1 << w) - 1
    field = st.one_of(st.sampled_from([0, 1, cap - 1, cap]), st.integers(0, cap))
    vector = st.tuples(*[field] * nvars)
    return w, draw(vector), draw(vector)


@settings(max_examples=500, deadline=None)
@given(packed_operands())
def test_packed_primitives_match_the_tuple_helpers(case):
    """The pair update and the count trust these; the basis tests alone
    would not catch a packed-divisor bug shared by Buchberger and
    spairs_reduce_to_zero."""
    w, a, b = case
    packing = groebner._Packing(len(a), w)
    guards = packing.guards

    def divides(x, y):  # as the divisor scan and the count test it
        return ((y | guards) - x) & guards == guards

    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.fits(a) and packing.unpack(pa) == a
    assert divides(pa, pb) == monomial_divides(a, b)
    assert groebner._lcm(pa, pb, guards, w) == packing.pack(monomial_lcm(a, b))
    coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
    assert (groebner._lcm(pa, pb, guards, w) == pa + pb) == coprime
    if monomial_divides(a, b):
        assert pa <= pb  # sorting packed ints puts divisors first


REPACK_CASES = [
    # x^2 reduces to y^4 by x + y^2: a lead with a wider exponent than
    # any input term
    (["x + y^2", "x^2"], "x y", ["x + y^2", "y^4"]),
    # y^4 arrives while pairs are queued: their lcms must move to the new
    # width, or criterion B drops a pair the basis needs
    (
        ["x^2 + y^2", "x*y^2", "z^2 + x^2*y^2*z^2 + y*z"],
        "x y z",
        ["x^2 + y^2", "x*y^2", "x*z^3", "y^4", "y*z + z^2", "z^5"],
    ),
]


@pytest.mark.parametrize("gens, names, basis", REPACK_CASES)
def test_engine_repacks_when_a_lead_outgrows_the_width(monkeypatch, gens, names, basis):
    S = ring(names, 2, "lex")
    widths = []

    def recorded(nvars, w):
        widths.append(w)
        return groebner._Packing(nvars, w)

    monkeypatch.setattr(groebner, "_packing", recorded)
    G = buchberger(polys(S, *gens))
    assert widths == [2, 3]  # from the inputs' exponent 2, then for y^4
    assert [e.components[0] for e in G.elements] == polys(S, *basis)
    assert spairs_reduce_to_zero(G)


# -- module bases ---------------------------------------------------------------


def test_module_basis_positions_are_independent():
    S = ring("x y", 2)
    x, y = S.variable(0), S.variable(1)
    zero = S.zero()
    rels = [FreeElement((x, zero)), FreeElement((zero, y))]
    G = buchberger(rels, rank=2)
    assert normal_forms(G)(FreeElement((x, zero))).is_zero()
    assert not normal_forms(G)(FreeElement((zero, x))).is_zero()


def test_unit_vector_helper():
    S = ring("x y", 3)
    e1 = unit_vector(S, 2, 0)
    assert e1.components[0] == S.one()
    assert e1.components[1].is_zero()
    scaled = unit_vector(S, 2, 1, S.variable(0))
    assert scaled.components[1] == S.variable(0)


def test_generators_over_different_rings_rejected():
    F2, F3, lex2 = ring("x y", 2), ring("x y", 3), ring("x y", 2, "lex")
    with pytest.raises(RingMismatch, match="generators over different rings"):
        buchberger(polys(F2, "x^2") + polys(F3, "y^3 + x"))
    with pytest.raises(RingMismatch, match="generators over different rings"):
        buchberger(polys(F2, "x^2 + y^3") + polys(lex2, "y^3 + x"))


def test_order_mismatch_rejected():
    S = ring("x y", 3)
    other = ring("x y", 3, "lex")
    order = default_module_order(other, 1)
    with pytest.raises(HilbertKunzError):
        buchberger(polys(S, "x + y"), order=order)


# -- syzygies -------------------------------------------------------------------


def test_koszul_syzygy():
    S = ring("x y", 5)
    gens = polys(S, "x^2", "x*y")
    syz = syzygies(gens)
    G = buchberger(syz, rank=2)
    # the Koszul relation y*(x^2) - x*(x*y) = 0, normalized monic
    y_mx = FreeElement((S.variable(1), -S.variable(0)))
    assert normal_forms(G)(y_mx).is_zero()
    # every syzygy row really is a relation
    for row in syz:
        total = S.zero()
        for c, g in zip(row.components, gens):
            total = total + c * g
        assert total.is_zero()


def test_syzygies_of_regular_sequence_are_koszul_only():
    S = ring("x y z", 3)
    gens = polys(S, "x", "y", "z")
    syz = syzygies(gens)
    G = buchberger(syz, rank=3)
    for a, b, i, j in [("y", "x", 0, 1), ("z", "x", 0, 2), ("z", "y", 1, 2)]:
        comps = [S.zero()] * 3
        comps[i] = parse_polynomial(a, S)
        comps[j] = -parse_polynomial(b, S)
        assert normal_forms(G)(FreeElement(tuple(comps))).is_zero()
    # (1,0,0) is not a relation
    assert not normal_forms(G)(unit_vector(S, 3, 0)).is_zero()


def test_determinantal_column_relations():
    """Over the 2x3 minors ring, u*y = v*x and u*z = w*x force the module
    generated by (u, x) to carry the relations (y, v) and (z, w) mod p=2."""
    S = ring("u v w x y z", 2)
    minors = polys(S, "v*z + w*y", "w*x + u*z", "u*y + v*x")
    gens = polys(S, "u", "x") + minors
    syz = syzygies(gens)
    # project to the first two coordinates and check the expected rows land
    # in the projected span
    proj = [FreeElement(s.components[:2]) for s in syz]
    G = buchberger(proj, rank=2)
    for a, b in [("y", "v"), ("z", "w")]:
        row = FreeElement((parse_polynomial(a, S), parse_polynomial(b, S)))
        assert normal_forms(G)(row).is_zero()


# -- staircase counting ---------------------------------------------------------


def test_count_box():
    S = ring("x y", 5)
    G = buchberger(polys(S, "x^3", "y^2"))
    assert is_zero_dimensional(G)
    assert count_standard_monomials(G) == 6


def test_count_with_mixed_staircase():
    S = ring("x y", 5)
    G = buchberger(polys(S, "x^3", "y^2", "x*y"))
    assert count_standard_monomials(G) == 4  # 1, x, x^2, y


def test_count_determinantal():
    S = ring("u v w x y z", 2)
    G = buchberger(polys(
        S,
        "v*z + w*y", "w*x + u*z", "u*y + v*x",
        "u^2", "v^2", "w^2", "x^2", "y^2", "z^2",
    ))
    assert count_standard_monomials(G) == 23


def test_count_diagonal_quartic():
    S = ring("x y z w", 5)
    G = buchberger(polys(S, "x^4 + y^4 + z^4 + w^4", "x^5", "y^5", "z^5", "w^5"))
    assert count_standard_monomials(G) == 339


def test_not_zero_dimensional():
    S = ring("x y", 5)
    G = buchberger(polys(S, "x^2"))
    assert not is_zero_dimensional(G)
    with pytest.raises(NotZeroDimensional):
        count_standard_monomials(G)


@st.composite
def monomial_staircases(draw):
    """Monomial submodules in 2-4 variables with exponents up to 5: every
    pure power (listed first), mixed generators, the degree-k monomials
    (a power of the maximal ideal), multiples of generators and
    duplicates. Rank 2 adds a component that holds a unit. Returns
    (rank, the staircase's exponents, all generators)."""
    nvars = draw(st.integers(2, 4))
    rank = draw(st.integers(1, 2))
    comp = draw(st.integers(0, rank - 1))
    exps = st.tuples(*[st.integers(0, 5)] * nvars).filter(any)
    stair = [
        tuple(draw(st.integers(1, 5)) if j == i else 0 for j in range(nvars))
        for i in range(nvars)
    ]
    stair += draw(st.lists(exps, max_size=8))
    k = draw(st.integers(0, 5))  # m^k, every monomial of degree k, for k >= 2
    if k >= 2:
        cube = itertools.product(range(k + 1), repeat=nvars)
        stair += [e for e in cube if sum(e) == k]
    for g in draw(st.lists(st.sampled_from(stair), max_size=3)):
        stair.append(tuple(min(x + y, 5) for x, y in zip(g, draw(exps))))
    stair += draw(st.lists(st.sampled_from(stair), max_size=2))
    S = ring("a b c d"[: 2 * nvars - 1], 2)
    gens = [unit_vector(S, rank, comp, S.monomial(e)) for e in stair]
    if rank == 2:
        for e in [(0,) * nvars] + draw(st.lists(exps, max_size=2)):
            gens.append(unit_vector(S, rank, 1 - comp, S.monomial(e)))
    return rank, stair, gens


@settings(max_examples=200, deadline=None)
@given(monomial_staircases())
def test_count_matches_brute_force(case):
    """The staircase count equals the monomials of the box of pure powers
    that no generator divides; a unit component counts nothing."""
    rank, stair, gens = case
    box = [stair[i][i] for i in range(len(stair[0]))]  # the drawn pure powers
    want = sum(
        1
        for m in itertools.product(*map(range, box))
        if not any(monomial_divides(e, m) for e in stair)
    )
    G = buchberger(gens, rank=rank)
    assert is_zero_dimensional(G)
    assert count_standard_monomials(G) == want


@st.composite
def deep_staircases(draw):
    """Minimal leads of one component in 3-5 variables whose count splits
    many times: a box with sides up to 12 and at most 4,000 cells, and up
    to 30 generators, each in two or more variables strictly inside it.
    Most have one of two adjacent degrees, so few divide others.
    Returns (box, leads), the pure powers first."""
    nvars = draw(st.integers(3, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    box = [rng.randint(2, 12) for _ in range(nvars)]
    while prod(box) > 4000:
        box[box.index(max(box))] -= 1
    degree = rng.randint(nvars, sum(box) // 2)
    mixed = set()
    for _ in range(rng.randint(3, 30)):
        support = rng.sample(range(nvars), rng.randint(2, nvars))
        e = [int(i in support) for i in range(nvars)]
        for _ in range(degree + rng.randint(0, 1) - len(support)):
            room = [i for i in support if e[i] < box[i] - 1]
            if room:
                e[rng.choice(room)] += 1
        mixed.add(tuple(e))
    leads = [tuple(box[i] * (j == i) for j in range(nvars)) for i in range(nvars)]
    for g in sorted(mixed, key=sum):  # divisors first
        if not any(monomial_divides(h, g) for h in leads):
            leads.append(g)
    return box, leads


@settings(max_examples=100, deadline=None)
@given(deep_staircases())
# every rule once: a two-generator box, an L generator at t, an L image
# that another divides, one absorbed as a side, a U or H image dropped
@example(([4, 4, 4], [
    (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 2, 0), (3, 1, 0), (0, 2, 3), (3, 0, 3),
]))
def test_count_of_deep_staircases_matches_brute_force(case):
    """_count_leads equals enumeration of the box on staircases deep enough
    to reach every rule of the colon branch. At every node each generator
    has two or more variables, lies strictly inside the box and divides no
    other, which is why the colon never makes a unit."""
    box, leads = case
    count_box = groebner._count_box

    def node(sides, others, packing, nodes, deadline):
        exps = [packing.unpack(e) for e in others]
        for e in exps:
            assert sum(map(bool, e)) >= 2 and all(x < s for x, s in zip(e, sides))
            assert not any(f != e and monomial_divides(f, e) for f in exps)
        return count_box(sides, others, packing, nodes, deadline)

    divisible = set()
    for g in leads[len(box):]:
        divisible.update(itertools.product(*map(range, g, box)))
    want = prod(box) - len(divisible)
    with unittest.mock.patch.object(groebner, "_count_box", node):
        assert groebner._count_leads([leads], len(box)) == want


def test_count_node_cap(monkeypatch):
    """The count stops with ResourceLimit past COUNT_NODE_LIMIT nodes."""
    rs = ring_spec("u v w x y z", 2, ["v*z + w*y", "w*x + u*z", "u*y + v*x"])
    G = buchberger(
        frobenius_relations(free_module(rs, 1), maximal_ideal(rs), 4), rank=1
    )
    monkeypatch.setattr(groebner, "COUNT_NODE_LIMIT", 100)
    with pytest.raises(
        ResourceLimit, match="standard-monomial counting budget exceeded"
    ):
        count_standard_monomials(G)


def test_basis_size_cap(monkeypatch):
    """Buchberger stops with ResourceLimit once the basis would pass
    MAX_BASIS elements, and sample_hk turns that into a truncation note.
    The determinantal ring's basis has 15 elements at n=1, 33 at n=2."""
    rs = ring_spec("u v w x y z", 2, ["v*z + w*y", "w*x + u*z", "u*y + v*x"])
    module, ideal = free_module(rs, 1), maximal_ideal(rs)
    monkeypatch.setattr(groebner, "MAX_BASIS", 20)
    with pytest.raises(ResourceLimit, match="basis size cap exceeded"):
        buchberger(frobenius_relations(module, ideal, 2), rank=1)
    (series,) = sample_hk(ideal, (module,), 1, 3)
    assert [s.n for s in series.samples] == [1]
    assert series.notes == (
        "sample n=2 skipped: basis size cap exceeded",
        "series truncated at n=2 to keep n consecutive",
    )


def test_update_never_pairs_two_single_term_elements(monkeypatch):
    """Two single-term elements have a zero S-vector, so the update pairs
    a single-term element only with elements that have a tail. On the
    determinantal ring's Frobenius powers, where almost every basis
    element is a single term, no popped pair joins two of them, and the
    live leads are still the reduced basis's leads."""
    rs = ring_spec("u v w x y z", 2, ["v*z + w*y", "w*x + u*z", "u*y + v*x"])
    module, ideal = free_module(rs, 1), maximal_ideal(rs)
    pop = groebner._PairUpdate.pop
    popped = []

    def recorded(update):
        pair = pop(update)
        if pair is not None:
            popped.append([len(update.red.elements[g]) for g in pair[:2]])
        return pair

    monkeypatch.setattr(groebner._PairUpdate, "pop", recorded)
    for n in (1, 2, 3):
        gens = frobenius_relations(module, ideal, n)
        leads = groebner._live_leads(gens, 1)
        assert sorted(leads[0]) == sorted(e for _, e in buchberger(gens).leading_terms())
    assert popped
    assert all(max(sizes) > 1 for sizes in popped)


def test_krull_dimension():
    S = ring("u v w x y z", 2)
    G = buchberger(polys(S, "v*z + w*y", "w*x + u*z", "u*y + v*x"))
    assert krull_dimension(G) == 4
    S2 = ring("x y", 5)
    assert krull_dimension(buchberger(polys(S2, "x*y"))) == 1
    assert krull_dimension(buchberger(polys(S2, "x^2 + 1"))) == 1
    assert krull_dimension(buchberger([S2.one()])) == -1
    assert krull_dimension(buchberger([S2.zero()])) == 2


def test_resource_limit_on_deadline():
    S = ring("a b c d e", 3)
    gens = polys(
        S,
        "a^3*b - c*d^2 + e", "b^3*c - d*e^2 + a", "c^3*d - e*a^2 + b",
        "d^3*e - a*b^2 + c", "e^3*a - b*c^2 + d",
    )
    with pytest.raises(ResourceLimit):
        buchberger(gens, deadline=time.monotonic() - 1.0)


def test_deadline_holds_inside_one_reduction():
    """One long reduction of this rank-2 lex instance runs for many seconds;
    the deadline must stop it mid-reduction, not only between S-pairs."""
    S = ring("x y z", 2, "lex")
    gens = [
        FreeElement(tuple(polys(S, a, b)))
        for a, b in [
            ("x^2*y + x + y^2*z", "y^2*z^2 + y*z"),
            ("x^2*y + x*y*z + x*z", "x^2*z + z^2"),
            ("0", "x^2*y^2 + x^2*y*z + x*y^2*z^2 + y*z"),
            ("0", "y^2 + y + 1"),
        ]
    ]
    start = time.monotonic()
    with pytest.raises(ResourceLimit):
        buchberger(gens, rank=2, deadline=start + 0.2)
    assert time.monotonic() - start < 2.0


def test_deadline_counts_steps_across_short_reductions():
    """Each normal form here takes a few heap pops, fewer than one check
    interval; the count carries over, so a run of them still stops."""
    S = ring("x y", 2)
    G = buchberger(polys(S, "x^2 + y", "y^3"))
    f = parse_polynomial("x^3 + x*y + x", S)
    assert not normal_forms(G)(f).is_zero()
    nf = normal_forms(G, deadline=time.monotonic() - 1.0)
    with pytest.raises(ResourceLimit):
        for _ in range(100):
            nf(f)
