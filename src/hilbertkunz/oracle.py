"""Independent length computation by bounded-degree linear algebra.

Builds the Macaulay-style matrix of all generator multiples up to a degree
bound and counts monomials outside the column span. Exists to validate the
Groebner pipeline on small instances, not to be fast. Elimination is pure
Python: int bitsets over F_2, sparse {row: coefficient} columns over odd p.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

from .errors import HilbertKunzError, MatrixTooLarge
from .poly import Exponents, Polynomial

CELL_CAP = 50_000_000
MAX_COLUMNS = 50_000
# stable_length raises the degree bound at most this many times
ORACLE_EXTRA_DEGREES = 60


def monomials_up_to(nvars: int, degree: int) -> list[Exponents]:
    """All exponent tuples with total degree <= degree, in a fixed order."""
    out = []
    # stars and bars over degree d for each d
    for d in range(degree + 1):
        for bars in combinations(range(d + nvars - 1), nvars - 1):
            exps = []
            prev = -1
            for b in bars:
                exps.append(b - prev - 1)
                prev = b
            exps.append(d + nvars - 1 - prev - 1)
            out.append(tuple(exps))
    return out


def _components(element, rank: int) -> tuple[Polynomial, ...]:
    comps = getattr(element, "components", None)
    if comps is None:
        if isinstance(element, Polynomial):
            comps = (element,)
        else:
            comps = tuple(element)
    if len(comps) != rank:
        raise HilbertKunzError("relation rank does not match the declared rank")
    return comps


def _nonzero_relations(relations, rank: int, p: int):
    """The nonzero relations as component tuples, and their variable count."""
    rels = [_components(g, rank) for g in relations]
    rels = [comps for comps in rels if any(c.terms for c in comps)]
    if not rels:
        raise HilbertKunzError("no nonzero relations given")
    ring = next(c.ring for comps in rels for c in comps)
    if ring.p != p:
        raise HilbertKunzError(f"relations live over p={ring.p}, not {p}")
    return rels, ring.nvars


@dataclass
class MacaulaySystem:
    """One bounded-degree system: row basis, columns, and the resulting count."""

    degree_bound: int
    n_rows: int
    n_cols: int
    rank: int
    count: int


def _columns(rels, multipliers, row_index) -> list[dict[int, int]]:
    """One {row: coefficient} column per relation and multiplier u: the
    multiple u * relation written in the rows of row_index.

    multipliers[k] lists the multipliers of rels[k]. A term whose monomial
    has no row is dropped; that is the box filter of exact_box_count, and
    never happens in build_system, whose multipliers keep every term within
    the degree bound. Distinct terms of a relation shift to distinct rows.
    """
    n_rows = len(row_index)
    n_cols = sum(len(mults) for mults in multipliers)
    if n_cols > MAX_COLUMNS or n_rows * n_cols > CELL_CAP:
        raise MatrixTooLarge(
            f"{n_rows} x {n_cols} exceeds the configured oracle limits"
        )
    cols = []
    for comps, mults in zip(rels, multipliers):
        entries = [
            (j, e, c)
            for j, poly in enumerate(comps)
            for e, c in poly.terms
        ]
        for u in mults:
            col = {}
            for j, e, c in entries:
                row = row_index.get((j, tuple(a + b for a, b in zip(e, u))))
                if row is not None:
                    col[row] = c
            cols.append(col)
    return cols


def _rank_gf2(columns: list[int]) -> int:
    """Rank over F_2 of columns given as int bitsets (bit r = row r)."""
    pivots: dict[int, int] = {}
    for col in columns:
        while col:
            top = col.bit_length() - 1
            if top in pivots:
                col ^= pivots[top]
            else:
                pivots[top] = col
                break
    return len(pivots)


def _rank_gfp(columns: list[dict[int, int]], p: int) -> int:
    """Rank over F_p of sparse {row: coefficient} columns, pivoting on each
    column's top row. Coefficients lie in [1, p); stored pivot columns are
    scaled to 1 at their pivot."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        col = dict(col)
        while col:
            top = max(col)
            pivot = pivots.get(top)
            if pivot is None:
                inv = pow(col[top], p - 2, p)
                pivots[top] = {r: c * inv % p for r, c in col.items()}
                break
            f = col[top]
            for r, c in pivot.items():
                v = (col.get(r, 0) - f * c) % p
                if v:
                    col[r] = v
                else:
                    # f * c is nonzero, so v == 0 means r was present
                    del col[r]
    return len(pivots)


def _rank(columns: list[dict[int, int]], p: int) -> int:
    if p == 2:
        return _rank_gf2([sum(1 << r for r in col) for col in columns])
    return _rank_gfp(columns, p)


def build_system(relations, rank: int, p: int, degree_bound: int) -> MacaulaySystem:
    """Assemble and eliminate the degree-bounded system once."""
    rels, v = _nonzero_relations(relations, rank, p)
    # a generator of degree above the bound gets no multipliers at all
    degs = [
        max(sum(e) for c in comps for e, _ in c.terms) for comps in rels
    ]
    mults = {d: monomials_up_to(v, degree_bound - d) for d in set(degs)}

    row_index = {}
    for j in range(rank):
        for m in monomials_up_to(v, degree_bound):
            row_index[(j, m)] = len(row_index)
    n_rows = len(row_index)

    cols = _columns(rels, [mults[d] for d in degs], row_index)
    rk = _rank(cols, p)
    return MacaulaySystem(degree_bound, n_rows, len(cols), rk, n_rows - rk)


def _pure_power_box(relations, rank: int):
    """Minimal pure-power degree for every (component, variable) pair, from
    single-term relations; None when some pair has no pure power. A unit
    relation zeroes its whole component."""
    rels = [_components(g, rank) for g in relations]
    ring = next(c.ring for comps in rels for c in comps)
    v = ring.nvars
    box: list[list[int | None]] = [[None] * v for _ in range(rank)]
    for comps in rels:
        terms = [(j, e) for j, poly in enumerate(comps) for e, _ in poly.terms]
        if len(terms) != 1:
            continue
        j, e = terms[0]
        support = [i for i, k in enumerate(e) if k > 0]
        if len(support) == 0:
            box[j] = [0] * v
        elif len(support) == 1:
            i = support[0]
            if box[j][i] is None or e[i] < box[j][i]:
                box[j][i] = e[i]
    if any(b is None for row in box for b in row):
        return None
    return box


def exact_box_count(relations, rank: int, p: int) -> int:
    """Exact colength when every (component, variable) pair has a pure-power
    relation x_i^b e_j.

    Work in V = sum_j S/(x^b_j): a finite monomial box per component. Any
    multiplier outside the componentwise-max box lands in every (x^b_j), so
    the image of the submodule in V is spanned by the box-bounded multiples
    alone. The count dim V - rank is exact, not a degree-truncated bound.
    """
    rels, v = _nonzero_relations(relations, rank, p)
    box = _pure_power_box(relations, rank)
    if box is None:
        raise HilbertKunzError(
            "no pure-power certificate: some (component, variable) pair "
            "lacks a single-term pure-power relation"
        )

    row_index: dict[tuple[int, Exponents], int] = {}
    for j in range(rank):
        for m in product(*[range(b) for b in box[j]]):
            row_index[(j, m)] = len(row_index)
    maxb = [max(box[j][i] for j in range(rank)) for i in range(v)]
    mults = list(product(*[range(b) for b in maxb]))

    cols = _columns(rels, [mults] * len(rels), row_index)
    return len(row_index) - _rank(cols, p)


def _certified(
    relations, rank: int, p: int, degree_bound: int, count: int,
    prev_count: int | None,
) -> bool:
    """oracle_length's certificate for `count` at `degree_bound`, given the
    count at degree_bound - 1 (None below degree 0)."""
    if count != prev_count:
        return False
    box = _pure_power_box(relations, rank)
    if box is None or any(b > degree_bound for row in box for b in row):
        return False
    return count == exact_box_count(relations, rank, p)


def oracle_length(
    relations,
    rank: int,
    p: int,
    degree_bound: int,
) -> tuple[int, bool]:
    """Count monomials of degree <= bound outside the span of all generator
    multiples.

    The count is a non-increasing upper bound on the colength as the bound
    grows. stable certifies the returned count is the true colength: the
    count matched the bound-1 run, every (component, variable) pair has a
    pure-power relation of degree <= bound, and the count equals the exact
    box computation those pure powers make possible. A plateau alone can
    lie (cancellation can resurface many degrees later), so the certificate
    is checked against the exact value, never inferred from the plateau.
    """
    count = build_system(relations, rank, p, degree_bound).count
    prev_count = None
    if degree_bound >= 1:
        prev_count = build_system(relations, rank, p, degree_bound - 1).count
    stable = _certified(relations, rank, p, degree_bound, count, prev_count)
    return count, stable


class StableLength(NamedTuple):
    """Outcome of the degree walk: the last completed count and its bound
    (None when the first bound already tripped a cap), whether oracle_length
    would certify it, and the warning text when a cap or the deadline ended
    the walk."""

    count: int | None
    stable: bool
    degree: int | None
    stopped: str | None


def stable_length(
    relations,
    rank: int,
    p: int,
    deadline: float | None = None,
) -> StableLength:
    """Raise the degree bound from the largest generator degree (at least
    1) until the certificate holds, at most ORACLE_EXTRA_DEGREES times.

    Agrees with calling oracle_length at each bound in turn, but builds each
    bound's system once. A cap (MatrixTooLarge), or a `time.monotonic()`
    deadline passed before a new bound, ends the walk with the last
    completed count, uncertified.
    """
    start = max(
        (sum(e) for g in relations for c in _components(g, rank)
         for e, _ in c.terms),
        default=1,
    )
    start = max(start, 1)
    count = degree = prev_count = None
    try:
        for d in range(start, start + ORACLE_EXTRA_DEGREES + 1):
            if deadline is not None and time.monotonic() > deadline:
                return StableLength(
                    count, False, degree,
                    f"oracle stopped at degree {d}: time budget exceeded",
                )
            current = build_system(relations, rank, p, d).count
            if prev_count is None:
                prev_count = build_system(relations, rank, p, d - 1).count
            if _certified(relations, rank, p, d, current, prev_count):
                return StableLength(current, True, d, None)
            count = prev_count = current
            degree = d
    except MatrixTooLarge as exc:
        return StableLength(
            count, False, degree, f"oracle stopped at degree {d}: {exc}"
        )
    return StableLength(count, False, degree, None)
