"""Groebner engine: bases, normal forms, syzygies, staircase counting."""

import itertools
import random
import time

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from hilbertkunz import groebner
from hilbertkunz.analysis import sample_hk
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
    normal_form,
    normal_forms,
    spairs_reduce_to_zero,
    syzygies,
    unit_vector,
)
from hilbertkunz.poly import monomial_divides, monomial_lcm, parse_polynomial, ring
from hilbertkunz.presentations import (
    free_module,
    frobenius_relations,
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
    rng = random.Random(3)
    for _ in range(50):
        f = random_combination(rng, S, gens)
        assert normal_form(f, G).is_zero()
    # x is not in the ideal: the variety contains points with x != 0
    assert not normal_form(parse_polynomial("x", S), G).is_zero()


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
    rng = random.Random(4)
    for _ in range(20):
        f = random_combination(rng, S, [S.one()])
        g = random_combination(rng, S, [S.one()])
        nf = normal_form(f, G)
        assert normal_form(nf, G) == nf
        assert normal_form(f + g, G) == normal_form(nf + normal_form(g, G), G)


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
    for g in gens:
        assert normal_form(g, G).is_zero()
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


# -- packed monomials -----------------------------------------------------------


@st.composite
def packed_operands(draw):
    """Two exponent vectors that fit w-bit fields, edge values favoured,
    and a query whose fields may be far wider than w."""
    nvars = draw(st.integers(1, 8))
    w = draw(st.integers(1, 24))
    cap = (1 << w) - 1
    field = st.one_of(st.sampled_from([0, 1, cap - 1, cap]), st.integers(0, cap))
    vector = st.tuples(*[field] * nvars)
    wide = st.tuples(*[st.integers(0, 1 << (w + 3))] * nvars)
    return w, draw(vector), draw(vector), draw(wide)


@settings(max_examples=500, deadline=None)
@given(packed_operands())
def test_packed_primitives_match_the_tuple_helpers(case):
    """The divisor scan, the pair update and the count trust these; the
    basis tests alone would not catch a packed-divisor bug shared by
    Buchberger and spairs_reduce_to_zero."""
    w, a, b, wide = case
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
    query = packing.pack_clamped(wide)
    assert divides(pa, query) == monomial_divides(a, wide)


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
    assert normal_form(FreeElement((x, zero)), G).is_zero()
    assert not normal_form(FreeElement((zero, x)), G).is_zero()


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
    assert normal_form(y_mx, G).is_zero()
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
        assert normal_form(FreeElement(tuple(comps)), G).is_zero()
    # (1,0,0) is not a relation
    assert not normal_form(unit_vector(S, 3, 0), G).is_zero()


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
        assert normal_form(row, G).is_zero()


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
    (series,) = sample_hk(rs, ideal, (module,), 1, 3)
    assert [s.n for s in series.samples] == [1]
    assert series.notes == (
        "sample n=2 skipped: basis size cap exceeded",
        "series truncated at n=2 to keep n consecutive",
    )


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
