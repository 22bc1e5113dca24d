"""Bounded-degree length oracle: counts, stability certificate, caps, the
degree walk, the rank routine, and the grown system against matrices built
from scratch."""

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hilbertkunz import oracle
from hilbertkunz.errors import HilbertKunzError, MatrixTooLarge
from hilbertkunz.groebner import FreeElement
from hilbertkunz.oracle import (
    ORACLE_EXTRA_DEGREES,
    MacaulaySystem,
    _monomials_of_degree,
    _rank,
    exact_box_count,
    oracle_length,
    stable_length,
)
from hilbertkunz.poly import parse_polynomial, ring


def polys(S, *texts):
    return [parse_polynomial(t, S) for t in texts]


def determinantal_point():
    """The 2x3 minors plus all squares over F_2; generator degree 2."""
    S = ring("u v w x y z", 2)
    return polys(
        S,
        "v*z + w*y", "w*x + u*z", "u*y + v*x",
        "u^2", "v^2", "w^2", "x^2", "y^2", "z^2",
    )


def unit_ideal():
    """1 = (x^2+1)^2 + x^4 over F_2; generator degree 6."""
    S = ring("x y", 2)
    return polys(S, "x^4", "y^6", "x^2*y^4 + x^2 + 1", "x^2*y^2")


def test_monomials_up_to():
    def up_to(nvars, degree):
        return [m for d in range(degree + 1) for m in _monomials_of_degree(nvars, d)]

    ms = up_to(2, 2)
    assert set(ms) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert up_to(3, 0) == [(0, 0, 0)]
    assert up_to(2, -1) == []


def test_pure_power_pair():
    S = ring("x y", 5)
    count, stable = oracle_length(polys(S, "x^2", "y^3"), 1, 5, 6)
    assert (count, stable) == (6, True)


def test_quintic_collapses_into_the_box():
    # x^5 - y^5 lies inside (x^2, y^2), so the count is the plain 2x2 box
    S = ring("x y", 2)
    gens = polys(S, "x^5 + y^5", "x^2", "y^2")
    count, stable = oracle_length(gens, 1, 2, 5)
    assert (count, stable) == (4, True)
    assert exact_box_count(gens, 1, 2) == 4


def test_determinantal_point():
    gens = determinantal_point()
    count, stable = oracle_length(gens, 1, 2, 7)
    assert (count, stable) == (23, True)
    assert exact_box_count(gens, 1, 2) == 23


def test_unstable_below_saturation():
    S = ring("x y", 5)
    count, stable = oracle_length(polys(S, "x^2", "y^3"), 1, 5, 3)
    assert not stable
    # the colength is 6; an uncertified count can lie on either side of it
    assert count >= 6


def test_truncated_counts_can_lie_below_the_colength():
    """For (x^3, y^3) over F_2 the count at bound 3, where the walk starts,
    is 8, below the colength 9; the certificate first holds at bound 5."""
    S = ring("x y", 2)
    gens = polys(S, "x^3", "y^3")
    system = MacaulaySystem(gens, 1, 2)
    system.grow(6)
    assert system.counts == [1, 3, 6, 8, 9, 9, 9]
    assert exact_box_count(gens, 1, 2) == 9
    assert oracle_length(gens, 1, 2, 3) == (8, False)
    assert stable_length(gens, 1, 2) == (9, True, 5, None)


def test_counts_non_increasing_in_degree():
    S = ring("x y", 3)
    gens = polys(S, "x^3 + x*y", "y^2 + x", "x^4", "y^4")
    counts = [oracle_length(gens, 1, 3, d)[0] for d in range(4, 12)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_plateau_alone_does_not_certify():
    """The count can sit still for one degree and then keep falling; the
    certificate must not fire until the true value is reached. Here the
    ideal is the unit ideal."""
    gens = unit_ideal()
    assert exact_box_count(gens, 1, 2) == 0
    seen_false_plateau = False
    prev = None
    for d in range(5, 14):
        count, stable = oracle_length(gens, 1, 2, d)
        if stable:
            assert count == 0
            break
        if prev is not None and count == prev and count != 0:
            seen_false_plateau = True
        prev = count
    else:
        pytest.fail("never stabilized")
    assert seen_false_plateau


def test_module_rank_two():
    # S^2 / (x e1, y e1, (x+y) e2, x^2 e2, y^2 e2): component 1 contributes
    # 1, component 2 contributes 2 (x^2, y^2, and x+y cut the 2x2 box to 2)
    S = ring("x y", 2)
    zero = S.zero()
    x, y = S.variable(0), S.variable(1)
    rels = [
        FreeElement((x, zero)),
        FreeElement((y, zero)),
        FreeElement((zero, x + y)),
        FreeElement((zero, x * x)),
        FreeElement((zero, y * y)),
    ]
    count, stable = oracle_length(rels, 2, 2, 4)
    assert stable
    assert count == 3


def test_rank_mismatch_rejected():
    S = ring("x y", 2)
    with pytest.raises(HilbertKunzError, match="rank"):
        oracle_length(polys(S, "x^2"), 2, 2, 4)


def test_wrong_characteristic_rejected():
    S = ring("x y", 3)
    with pytest.raises(HilbertKunzError, match="p="):
        oracle_length(polys(S, "x^2", "y^2"), 1, 2, 4)


def test_matrix_cap(monkeypatch):
    S = ring("x y z", 2)
    gens = polys(S, "x^2", "y^2", "z^2")
    monkeypatch.setattr(oracle, "CELL_CAP", 10_000)
    with pytest.raises(MatrixTooLarge):
        oracle_length(gens, 1, 2, 60)


def _no_rows(*args):
    raise AssertionError("a row was built before the size check")


def test_box_count_checks_its_size_before_any_row(monkeypatch):
    """The 3000 x 3000 box would take seconds to key row by row."""
    S = ring("x y", 2)
    monkeypatch.setattr(oracle, "CELL_CAP", 1000)
    monkeypatch.setattr(oracle, "_box_keys", _no_rows)
    with pytest.raises(MatrixTooLarge, match="^9000000 x 18000000 "):
        exact_box_count(polys(S, "x^3000", "y^3000"), 1, 2)


def test_a_system_without_columns_is_capped(monkeypatch):
    """At a bound below every relation's degree the system has rows and no
    columns; its C(103, 3) rows are capped like one column's."""
    S = ring("x y z", 2)
    monkeypatch.setattr(oracle, "CELL_CAP", 1000)
    monkeypatch.setattr(oracle, "_keys", _no_rows)
    with pytest.raises(MatrixTooLarge, match="^176851 x 0 "):
        oracle_length(polys(S, "x^200", "y^200", "z^200"), 1, 2, 100)


def test_row_keys_do_not_alias_past_16_bits():
    """With 16-bit exponent fields x^65537 would alias the row of x*y in
    the box, and in rank 2 the row of x^65536 e_1 would be that of e_2."""
    S = ring("x y", 2)
    assert exact_box_count(polys(S, "x^2", "y^2", "x^65537"), 1, 2) == 4
    R = ring("x", 2)
    n = 2**16 + 1
    (xn,) = polys(R, f"x^{n}")
    system = MacaulaySystem(
        [FreeElement((xn, R.zero())), FreeElement((R.zero(), xn))], 2, 2
    )
    system.grow(n)
    # S^2 / (x^n e_1, x^n e_2) has length 2n, and bound n holds all of it
    assert (system.n_rows, system.rank, system.count) == (2 * n + 2, 2, 2 * n)


def test_no_pure_powers_no_certificate():
    S = ring("x y", 2)
    gens = polys(S, "x^2 + y", "y^3")  # no pure power in x
    with pytest.raises(HilbertKunzError, match="pure-power"):
        exact_box_count(gens, 1, 2)
    count, stable = oracle_length(gens, 1, 2, 8)
    assert not stable


def test_zero_rows_are_ignored():
    S = ring("x y", 2)
    gens = polys(S, "x^2", "y^2") + [S.zero()]
    assert oracle_length(gens, 1, 2, 4) == (4, True)
    with pytest.raises(HilbertKunzError, match="no nonzero relations"):
        oracle_length([S.zero()], 1, 2, 3)


@pytest.mark.parametrize("gens, start", [(unit_ideal(), 6), (determinantal_point(), 2)])
def test_walk_matches_per_degree_certificate(gens, start):
    """The walk stops at the first bound where oracle_length certifies."""
    for degree in range(start, start + ORACLE_EXTRA_DEGREES + 1):
        count, stable = oracle_length(gens, 1, 2, degree)
        if stable:
            break
    assert stable
    assert stable_length(gens, 1, 2) == (count, True, degree, None)


def test_walk_keeps_last_count_when_a_cap_trips(monkeypatch):
    gens = unit_ideal()  # certified only at degree 13
    system = MacaulaySystem(gens, 1, 2)
    system.grow(10)
    monkeypatch.setattr(oracle, "CELL_CAP", system.n_rows * system.n_cols)
    walk = stable_length(gens, 1, 2)
    assert walk[:3] == (system.count, False, 10)
    assert walk.stopped.startswith("oracle stopped at degree 11: ")


def test_walk_keeps_last_count_when_the_deadline_passes(monkeypatch):
    """The clock passes the deadline between bounds 7 and 8."""
    clock = iter([0.0, 0.0, 10.0])
    monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    walk = stable_length(unit_ideal(), 1, 2, deadline=1.0)
    assert walk == (
        oracle_length(unit_ideal(), 1, 2, 7)[0], False, 7,
        "oracle stopped at degree 8: time budget exceeded",
    )


def test_walk_reports_a_cap_at_the_first_degree(monkeypatch):
    """The cap names the first bound's system (degree 3 here), not the
    smaller system at degree 2 that the walk also needs."""
    S = ring("x y z", 2)
    monkeypatch.setattr(oracle, "CELL_CAP", 10)
    walk = stable_length(polys(S, "x", "y^2", "z^3"), 1, 2)
    assert walk == (
        None, False, None,
        "oracle stopped at degree 3: 20 x 15 exceeds the configured oracle limits",
    )


def reference_rank(columns, p):
    """Plain row reduction of the matrix whose rows are the columns."""
    rows = [list(col) for col in columns]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def column_sets(draw):
    """Dense columns over F_p, with zero columns and linear combinations of
    earlier columns mixed in so that some reduce to zero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n_rows = draw(st.integers(1, 8))
    entry = st.integers(0, p - 1)
    columns = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "random" or (kind == "combination" and not columns):
            columns.append(draw(st.lists(entry, min_size=n_rows, max_size=n_rows)))
        elif kind == "zero":
            columns.append([0] * n_rows)
        else:
            coeffs = draw(st.lists(entry, min_size=len(columns), max_size=len(columns)))
            columns.append([
                sum(f * col[r] for f, col in zip(coeffs, columns)) % p
                for r in range(n_rows)
            ])
    return p, columns


@settings(max_examples=300, deadline=None)
@given(column_sets())
def test_rank_routines_match_row_reduction(case):
    p, columns = case
    expected = reference_rank(columns, p)
    def sparse(cols):
        return [{r: c for r, c in enumerate(col) if c} for col in cols]

    assert _rank({}, sparse(columns), p) == expected
    # a second call eliminates against the pivots the first one stored
    pivots = {}
    half = len(columns) // 2
    _rank(pivots, sparse(columns[:half]), p)
    assert _rank(pivots, sparse(columns[half:]), p) == expected


@st.composite
def macaulay_cases(draw):
    """Relations in rank 1-2 over 1-3 variables and p in {2, 3, 5}: not
    homogeneous, of mixed degree up to 3, and sometimes a unit."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 2))
    S = ring(" ".join(f"x{i}" for i in range(nvars)), p)
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda e: sum(e) <= 3)
    poly = st.dictionaries(exps, st.integers(1, p - 1), max_size=3).map(S.from_dict)
    relations = draw(st.lists(st.tuples(*[poly] * rank), min_size=1, max_size=3))
    if draw(st.booleans()):
        j = draw(st.integers(0, rank - 1))
        relations.append(tuple(S.one() if k == j else S.zero() for k in range(rank)))
    assume(any(c.terms for rel in relations for c in rel))
    return p, rank, nvars, relations


def dense_count(relations, rank, p, nvars, d):
    """Rows minus rank of the bound-d Macaulay matrix, built from scratch
    with the rows numbered component first."""
    monomials = [m for m in product(range(d + 1), repeat=nvars) if sum(m) <= d]
    rows = {(j, m): k for k, (j, m) in enumerate(product(range(rank), monomials))}
    columns = []
    for rel in relations:
        terms = [(j, e, c) for j, poly in enumerate(rel) for e, c in poly.terms]
        if not terms:
            continue
        for u in monomials:
            if sum(u) + max(sum(e) for _, e, _ in terms) > d:
                continue
            col = [0] * len(rows)
            for j, e, c in terms:
                col[rows[(j, tuple(a + b for a, b in zip(e, u)))]] = c
            columns.append(col)
    return len(rows) - reference_rank(columns, p)


@settings(max_examples=100, deadline=None)
@given(macaulay_cases())
def test_grown_counts_match_the_matrix_built_from_scratch(case):
    """Growing one system bound by bound gives, at every bound, the count
    of the Macaulay matrix assembled from scratch at that bound."""
    p, rank, nvars, relations = case
    system = MacaulaySystem(relations, rank, p)
    system.grow(4)
    assert system.counts == [
        dense_count(relations, rank, p, nvars, d) for d in range(5)
    ]
