"""Module presentations and the length function at Frobenius powers."""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hilbertkunz.groebner as groebner
import hilbertkunz.presentations as presentations
from conftest import load_problem
from hilbertkunz.cli import run_problem
from hilbertkunz.errors import (
    NotZeroDimensional,
    ResourceLimit,
    RingMismatch,
    SemanticError,
)
from hilbertkunz.groebner import (
    FreeElement,
    buchberger,
    count_standard_monomials,
    unit_vector,
)
from hilbertkunz.oracle import exact_box_count, stable_length
from hilbertkunz.poly import parse_polynomial, ring
from hilbertkunz.presentations import (
    RingSpec,
    cyclic_module,
    direct_sum,
    free_module,
    frobenius_relations,
    ideal_spec,
    length_mod_frobenius,
    maximal_ideal,
    module_presentation,
    present_submodule,
    quotient_presentation,
    ring_spec,
)

DET_MINORS = ["v*z + w*y", "w*x + u*z", "u*y + v*x"]


def det_ring(p=2):
    return ring_spec("u v w x y z", p, DET_MINORS)


def test_regular_ring_lengths():
    rs = ring_spec("x y", 3)
    I = maximal_ideal(rs)
    M = free_module(rs, 1)
    assert [length_mod_frobenius(M, I, n) for n in range(4)] == [1, 9, 81, 729]


def test_monomial_complete_intersection():
    rs = ring_spec("x y z", 3)
    I = ideal_spec(rs, ["x^2", "y^3", "z^4"])
    M = free_module(rs, 1)
    for n in range(3):
        q = 3**n
        assert length_mod_frobenius(M, I, n) == 24 * q**3


def test_determinantal_ring_lengths():
    rs = det_ring()
    I = maximal_ideal(rs)
    M = free_module(rs, 1)
    assert [length_mod_frobenius(M, I, n) for n in (1, 2, 3)] == [23, 397, 6518]


def test_diagonal_quartic_lengths():
    rs = ring_spec("x y z w", 5, ["x^4 + y^4 + z^4 + w^4"])
    I = maximal_ideal(rs)
    M = free_module(rs, 1)
    assert length_mod_frobenius(M, I, 1) == 339
    assert length_mod_frobenius(M, I, 2) == 43017


def test_hypersurface_dimension_check():
    rs = ring_spec("x y", 2, ["x^5 + y^5"])
    assert rs.dimension() == 1


def test_cyclic_module():
    rs = ring_spec("x y", 2)
    I = maximal_ideal(rs)
    M = cyclic_module(rs, ["x"])
    assert [length_mod_frobenius(M, I, n) for n in (0, 1, 2, 3)] == [1, 2, 4, 8]


def test_canonical_module_lengths():
    """The (u, x) submodule: phi_n = phi_n(R) + q^3/2 + q/2."""
    rs = det_ring()
    I = maximal_ideal(rs)
    omega = present_submodule(free_module(rs, 1), ["u", "x"])
    got = [length_mod_frobenius(omega, I, n) for n in (1, 2, 3)]
    assert got == [28, 431, 6778]
    ringvals = [23, 397, 6518]
    for v, rv, n in zip(got, ringvals, (1, 2, 3)):
        q = 2**n
        assert v == rv + q**3 // 2 + q // 2


def test_presentation_independence():
    # a redundant generator changes the presentation, never the lengths
    rs = det_ring()
    I = maximal_ideal(rs)
    a = present_submodule(free_module(rs, 1), ["u", "x"])
    b = present_submodule(free_module(rs, 1), ["u", "x", "u + x"])
    assert a.rank == 2 and b.rank == 3
    for n in (0, 1, 2):
        assert length_mod_frobenius(a, I, n) == length_mod_frobenius(b, I, n)


def test_ideal_as_module_matches_oracle():
    # N = (x, y) in F_2[x,y]: rank-2 cover with the relation (y, -x)
    rs = ring_spec("x y", 2)
    S = rs.ring
    I = maximal_ideal(rs)
    N = present_submodule(free_module(rs, 1), ["x", "y"])
    rel = FreeElement((parse_polynomial("y", S), parse_polynomial("x", S)))
    assert any(r == rel for r in N.relations)
    for n in (0, 1, 2):
        engine = length_mod_frobenius(N, I, n)
        oracle = exact_box_count(frobenius_relations(N, I, n), N.rank, 2)
        assert engine == oracle


def test_quotient_presentation():
    rs = det_ring()
    I = maximal_ideal(rs)
    Q = quotient_presentation(free_module(rs, 1), ["u", "v", "w"])
    assert [length_mod_frobenius(Q, I, n) for n in (1, 2, 3)] == [8, 64, 512]


def test_direct_sum_lengths_add():
    rs = det_ring()
    I = maximal_ideal(rs)
    R1 = free_module(rs, 1)
    omega = present_submodule(R1, ["u", "x"])
    both = direct_sum(R1, omega)
    assert both.rank == R1.rank + omega.rank
    for n in (0, 1, 2):
        assert length_mod_frobenius(both, I, n) == (
            length_mod_frobenius(R1, I, n) + length_mod_frobenius(omega, I, n)
        )


def test_frobenius_tower():
    rs = ring_spec("x y", 2, ["x^5 + y^5"])
    I = maximal_ideal(rs)
    M = free_module(rs, 1)
    I2 = I.frobenius_power(2)
    for n in (0, 1, 2):
        assert length_mod_frobenius(M, I2, n) == length_mod_frobenius(M, I, n + 1)


def test_bracket_power_respects_ideal_not_generators():
    rs = ring_spec("x y", 2)
    a = ideal_spec(rs, ["x", "y"])
    b = ideal_spec(rs, ["x", "y", "x + y"])  # same ideal, extra generator
    M = free_module(rs, 1)
    for n in (1, 2, 3):
        assert length_mod_frobenius(M, a, n) == length_mod_frobenius(M, b, n)


def test_module_rank_mismatch_rejected():
    rs = ring_spec("x y", 2)
    with pytest.raises(Exception):
        module_presentation(rs, 2, [FreeElement((rs.ring.one(),))])


def test_ring_mismatch_rejected():
    rs1 = ring_spec("x y", 2)
    rs2 = ring_spec("x y", 3)
    I = maximal_ideal(rs2)
    M = free_module(rs1, 1)
    with pytest.raises(RingMismatch):
        length_mod_frobenius(M, I, 1)


def test_not_zero_dimensional_rejected():
    rs = ring_spec("x y", 2)
    I = ideal_spec(rs, ["x"])
    M = free_module(rs, 1)
    with pytest.raises(NotZeroDimensional, match="does not have finite length"):
        length_mod_frobenius(M, I, 1)


def test_negative_exponent_rejected():
    rs = ring_spec("x y", 2)
    I = maximal_ideal(rs)
    with pytest.raises(SemanticError):
        length_mod_frobenius(free_module(rs, 1), I, -1)


def test_lengths_with_two_word_slots():
    """R = F_2[x1..x10]/(x10^2 + x1*x2) is free of rank 2 over
    F_2[x1..x9], so with J = (x1..x9) the length is 2*q^9. At n = 5 the
    leads pack into ten 7-bit fields, 70 bits, so each slot of the pair
    update takes two 64-bit words."""
    names = " ".join(f"x{i}" for i in range(1, 11))
    rs = ring_spec(names, 2, ["x10^2 + x1*x2"])
    J = ideal_spec(rs, [f"x{i}" for i in range(1, 10)])
    M = free_module(rs, 1)
    assert [length_mod_frobenius(M, J, n) for n in range(6)] == [
        2 * 2 ** (9 * n) for n in range(6)
    ]
    assert groebner._packing(10, (2**5).bit_length()).slot == 128


def test_time_budget():
    rs = det_ring()
    I = maximal_ideal(rs)
    M = free_module(rs, 1)
    with pytest.raises(ResourceLimit):
        length_mod_frobenius(M, I, 6, max_seconds=0.05)


def test_count_honours_the_deadline():
    rs = det_ring()
    G = buchberger(
        frobenius_relations(free_module(rs, 1), maximal_ideal(rs), 4), rank=1
    )
    with pytest.raises(ResourceLimit):
        count_standard_monomials(G, deadline=time.monotonic() - 1.0)


def test_tower_honours_the_deadline():
    """Each tower step reduces (x+y+z+1)^(3*7^k) modulo the diagonal cubic:
    reductions long enough to reach a deadline check."""
    rs = ring_spec("x y z", 7, ["x^3 + y^3 + z^3"])
    f = parse_polynomial("x + y + z + 1", rs.ring)
    M, I = free_module(rs, 1), ideal_spec(rs, [f * f * f])
    assert frobenius_relations(M, I, 2)
    with pytest.raises(ResourceLimit):
        frobenius_relations(M, I, 2, deadline=time.monotonic() - 1.0)


# -- one tower per ideal -----------------------------------------------------------


@pytest.mark.parametrize("stem,subcommand,steps", [
    ("monsky_p7", "fit", 8 * 2),  # n=1..8, ideal (x, y)
    ("omega", "tau", 3 * 6),  # n=1..3, two modules over the ideal (u..z)
])
def test_tower_steps_once_per_level(stem, subcommand, steps, monkeypatch):
    """A report takes one tower step per level and generator: the samples
    n=1..N, and every module sampled over the same ideal, share the
    levels. Rebuilding from g_0 for each sample and module would take
    72 steps in both reports."""
    calls = []
    power = presentations.frobenius_power_poly

    def counted(f, q):
        calls.append(q)
        return power(f, q)

    monkeypatch.setattr(presentations, "frobenius_power_poly", counted)
    report = run_problem(subcommand, load_problem(stem))
    assert report["error"] is None
    assert len(calls) == steps
    assert set(calls) == {report["input"]["problem"]["p"]}


def cold_relations(module, ideal, n):
    """frobenius_relations on a fresh copy of the ideal, so no level is kept."""
    fresh = ideal_spec(ideal.ringspec, ideal.generators)
    return frobenius_relations(module, fresh, n)


@pytest.mark.parametrize("rs,order", [
    (ring_spec("x y", 2, ["x^5 + y^5"]), [3, 1, 6, 0, 2, 4, 5]),
    (det_ring(), [2, 0, 3, 1]),
])
def test_kept_levels_match_a_fresh_tower(rs, order):
    """Levels kept from earlier calls, asked for in any order, give the
    same relations as a tower built from g_0, in every component."""
    I = maximal_ideal(rs)
    for module in (free_module(rs, 1), free_module(rs, 2)):
        for n in order:
            assert frobenius_relations(module, I, n) == cold_relations(module, I, n)
    assert len(I._tower) == max(order) + 1


def test_a_stopped_step_keeps_no_partial_level(monkeypatch):
    """A call past its deadline raises before it steps, and a step stopped
    partway through a level keeps nothing of it; the next call builds the
    level whole and matches a fresh tower."""
    rs = det_ring()
    M, I = free_module(rs, 1), maximal_ideal(rs)
    frobenius_relations(M, I, 1)
    assert len(I._tower) == 2
    with pytest.raises(ResourceLimit):
        frobenius_relations(M, I, 3, deadline=time.monotonic() - 1.0)
    assert len(I._tower) == 2

    power = presentations.frobenius_power_poly
    calls = []

    def stopped_at_the_third(f, q):
        calls.append(q)
        if len(calls) == 3:
            raise ResourceLimit("time budget exceeded")
        return power(f, q)

    monkeypatch.setattr(presentations, "frobenius_power_poly", stopped_at_the_third)
    with pytest.raises(ResourceLimit):
        frobenius_relations(M, I, 3)
    assert len(I._tower) == 2
    monkeypatch.setattr(presentations, "frobenius_power_poly", power)
    assert frobenius_relations(M, I, 3) == cold_relations(M, I, 3)
    assert len(I._tower) == 4


# -- the Frobenius tower against the raw q-th powers ---------------------------


def raw_relations(module, ideal, n):
    """The definition of M/I^[q]M: the presentation relations plus the raw
    q-th powers of the ideal generators in every component."""
    S = module.ringspec.ring
    raw = ideal.frobenius_power(S.p**n).generators
    return list(module.relations) + [
        unit_vector(S, module.rank, j, f)
        for j in range(module.rank)
        for f in raw
    ]


@st.composite
def tower_cases(draw):
    """One ring relation of degree <= 4 in 2-3 variables, an m-primary
    ideal, and a free, cyclic or rank-2 module, as in the cross-checks."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(2, 3))
    S = ring(" ".join("xyz"[:nvars]), p)

    def poly(max_degree):
        terms: dict = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = [0] * nvars
            for i in draw(st.lists(st.integers(0, nvars - 1), max_size=max_degree)):
                exps[i] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + draw(st.integers(1, p - 1))
        return S.from_dict(terms)

    rs = RingSpec(S, (poly(4),))
    pure = [
        S.monomial(tuple(draw(st.integers(1, 3)) if j == i else 0
                         for j in range(nvars)))
        for i in range(nvars)
    ]
    extra = [poly(3) for _ in range(draw(st.integers(0, 2)))]
    ideal = ideal_spec(rs, pure + [g for g in extra if not g.is_zero()])
    kind = draw(st.sampled_from(["free", "cyclic", "rank2"]))
    if kind == "free":
        module = free_module(rs, 1)
    elif kind == "cyclic":
        module = cyclic_module(rs, [poly(3)])
    else:
        module = module_presentation(rs, 2, [FreeElement((poly(3), poly(3)))])
    n = draw(st.integers(0, {2: 3, 3: 2, 5: 1}[p]))
    return module, ideal, n


QUINTIC = ring_spec("x y", 2, ["x^5 + y^5"])


@settings(max_examples=150, deadline=None)
@given(tower_cases())
@example((free_module(QUINTIC, 1), maximal_ideal(QUINTIC), 2))
def test_tower_gives_the_module_of_the_raw_powers(case):
    module, ideal, n = case
    raw = buchberger(raw_relations(module, ideal, n), rank=module.rank)
    assert length_mod_frobenius(module, ideal, n) == count_standard_monomials(raw)


@pytest.mark.parametrize(
    "rs,n", [(QUINTIC, 1), (QUINTIC, 2), (QUINTIC, 3), (det_ring(), 1)]
)
def test_oracle_on_the_raw_definition_matches_the_tower(rs, n):
    """The oracle never sees tower generators: it counts the raw q-th
    powers, and must land on the engine's length."""
    module, ideal = free_module(rs, 1), maximal_ideal(rs)
    walk = stable_length(raw_relations(module, ideal, n), 1, rs.p)
    assert walk.stable
    assert walk.count == length_mod_frobenius(module, ideal, n)
