"""Independent length computation by bounded-degree linear algebra.

Counts the monomials of degree <= d outside the span of all relation
multiples u * g of degree <= d. One Macaulay system grows with d, degree by
degree as in Lazard (1983): rows are numbered by degree first, so bound d
keeps its rows, columns and pivots at d + 1 and adds only the degree-d rows
and the columns with |u| = d - deg g. Each row (component j, exponent e)
is looked up by one int key, with a field per variable and the component
above them, that is additive under multiplication: the row of u * term is
rows[key(term) + key(u)]. The fields are sized from CELL_CAP, which every
system passes before its first row is built. Exists to validate the
Groebner pipeline on small instances, not to be fast. Elimination is pure
Python, on sparse {row: coefficient} columns over F_p, against pivots
stored as (row, coefficient) lists without their top entry.
"""

from __future__ import annotations

import time
from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

from .errors import HilbertKunzError, MatrixTooLarge
from .poly import Exponents, Polynomial

CELL_CAP = 50_000_000
MAX_COLUMNS = 50_000
# stable_length raises the degree bound at most this many times
ORACLE_EXTRA_DEGREES = 60


@lru_cache(maxsize=256)
def _monomials_of_degree(nvars: int, degree: int) -> tuple[Exponents, ...]:
    """All exponent tuples of total degree exactly degree, in a fixed order."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),) if degree >= 0 else ()
    return tuple(
        (k, *rest) for k in range(degree, -1, -1)
        for rest in _monomials_of_degree(nvars - 1, degree - k)
    )


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


def _key_width() -> int:
    """Bits per exponent field of a row key, read when a system is built.
    Every system passes _check_size before it keys a row, so each keyed
    exponent, and the sum of two of them that a lookup forms, is below
    2 * CELL_CAP: no field carries into the next."""
    return CELL_CAP.bit_length() + 1


def _key(e: Exponents, width: int) -> int:
    """The row key of exponent e: one width-bit field per variable, so
    _key(e) + _key(u) == _key(e + u) while no field carries. Component j
    adds j << (width * nvars)."""
    return sum(k << (width * i) for i, k in enumerate(e))


@lru_cache(maxsize=256)
def _keys(nvars: int, degree: int, width: int) -> tuple[int, ...]:
    """The keys of _monomials_of_degree(nvars, degree), in its order."""
    return tuple(_key(m, width) for m in _monomials_of_degree(nvars, degree))


def _box_keys(box, width: int) -> list[int]:
    """The keys of the exponents below box, in itertools.product order."""
    keys = [0]
    for i, b in enumerate(box):
        keys = [k + (a << (width * i)) for k in keys for a in range(b)]
    return keys


def _add_rows(rows: dict[int, int], base: int, keys) -> None:
    """Number the rows base + k, k in keys, after those already in rows."""
    n = len(rows)
    rows.update(zip(map(base.__add__, keys), range(n, n + len(keys))))


def _columns(multiples, rows: dict[int, int]) -> list[dict[int, int]]:
    """One {row: coefficient} column u * relation per (terms, multiplier
    keys) pair of multiples and multiplier key u, where terms are the
    relation's (row key, coefficient) pairs. A term whose shifted key has
    no row is dropped; that is the box filter of exact_box_count, and never
    happens in a MacaulaySystem. Distinct terms of a relation shift to
    distinct rows."""
    cols = []
    for terms, mults in multiples:
        for u in mults:
            col = {}
            for k, c in terms:
                row = rows.get(k + u)
                if row is not None:
                    col[row] = c
            cols.append(col)
    return cols


def _check_size(n_rows: int, n_cols: int) -> None:
    """A system with no columns counts as one column, so the row count
    alone is capped too."""
    if n_cols > MAX_COLUMNS or n_rows * max(n_cols, 1) > CELL_CAP:
        raise MatrixTooLarge(
            f"{n_rows} x {n_cols} exceeds the configured oracle limits"
        )


def _rank(pivots: dict[int, list[tuple[int, int]]],
          columns: list[dict[int, int]], p: int) -> int:
    """Extend pivots by eliminating the sparse {row: coefficient} columns,
    with coefficients in [1, p), on their top rows; return the rank,
    len(pivots). The columns are consumed. A pivot is stored under its top
    row as the (row, coefficient) pairs of the rest of its column, scaled
    so that the top entry, which is left out, is 1."""
    for col in columns:
        while col:
            top = max(col)
            f = col.pop(top)
            pivot = pivots.get(top)
            if pivot is None:
                inv = pow(f, p - 2, p)
                pivots[top] = [(r, c * inv % p) for r, c in col.items()]
                break
            for r, c in pivot:
                v = (col.get(r, 0) - f * c) % p
                if v:
                    col[r] = v
                else:
                    # f * c is nonzero, so v == 0 means r was present
                    del col[r]
    return len(pivots)


class MacaulaySystem:
    """The relations' Macaulay system, grown from bound -1 (no rows) one
    degree at a time: degree_bound, n_rows, n_cols, rank and count describe
    the current bound, counts[d] the count at every bound d grown through.
    The rank does not depend on column order or row numbering, so each
    count is that of the system built from scratch at its bound."""

    def __init__(self, relations, rank: int, p: int):
        rels, self.nvars = _nonzero_relations(relations, rank, p)
        self.components, self.p = rank, p
        # (degree, relation); a relation's degree is its largest term's
        self.relations = [
            (max(sum(e) for c in comps for e, _ in c.terms), comps)
            for comps in rels
        ]
        self.degree_bound = -1
        self.n_rows = self.n_cols = self.rank = self.count = 0
        self.counts: list[int] = []
        self._width = _key_width()
        self._shift = self._width * self.nvars
        # (degree, [(row key, coefficient)]) per relation
        self._terms = [
            (deg, [
                ((j << self._shift) + _key(e, self._width), c)
                for j, poly in enumerate(comps)
                for e, c in poly.terms
            ])
            for deg, comps in self.relations
        ]
        self._rows: dict[int, int] = {}
        self._pivots: dict[int, list[tuple[int, int]]] = {}

    def grow(self, degree_bound: int) -> None:
        """Grow to degree_bound, one bound at a time. The limits are checked
        once, on the system at degree_bound, before anything grows, so a
        MatrixTooLarge names that system and leaves this one as it was."""
        v, width, rows = self.nvars, self._width, self._rows
        _check_size(
            self.components * comb(degree_bound + v, v),
            sum(comb(degree_bound - deg + v, v)
                for deg, _ in self.relations if deg <= degree_bound),
        )
        for d in range(self.degree_bound + 1, degree_bound + 1):
            keys = _keys(v, d, width)
            for j in range(self.components):
                _add_rows(rows, j << self._shift, keys)
            cols = _columns(
                [(terms, _keys(v, d - deg, width))
                 for deg, terms in self._terms if deg <= d],
                rows,
            )
            self.rank = _rank(self._pivots, cols, self.p)
            self.n_rows, self.n_cols = len(rows), self.n_cols + len(cols)
            self.degree_bound, self.count = d, self.n_rows - self.rank
            self.counts.append(self.count)


def _pure_power_box(rels, v: int, rank: int):
    """Minimal pure-power degree for every (component, variable) pair, from
    the single-term relations among the component tuples rels; None when
    some pair has no pure power. A unit relation zeroes its whole
    component."""
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
    box = _pure_power_box(rels, v, rank)
    if box is None:
        raise HilbertKunzError(
            "no pure-power certificate: some (component, variable) pair "
            "lacks a single-term pure-power relation"
        )

    maxb = [max(box[j][i] for j in range(rank)) for i in range(v)]
    _check_size(sum(prod(b) for b in box), len(rels) * prod(maxb))

    width = _key_width()
    rows: dict[int, int] = {}
    for j in range(rank):
        _add_rows(rows, j << (width * v), _box_keys(box[j], width))
    # a term outside the box stays outside for every multiplier; dropping
    # it before keying keeps every keyed exponent below its box
    mults = _box_keys(maxb, width)
    multiples = [
        ([((j << (width * v)) + _key(e, width), c)
          for j, poly in enumerate(comps)
          for e, c in poly.terms
          if all(map(int.__lt__, e, box[j]))],
         mults)
        for comps in rels
    ]
    return len(rows) - _rank({}, _columns(multiples, rows), p)


def _certified(system: MacaulaySystem, relations) -> bool:
    """oracle_length's certificate for the count of a system of relations
    at its current bound."""
    d, rank = system.degree_bound, system.components
    if d < 1 or system.counts[d - 1] != system.count:
        return False
    rels = [comps for _, comps in system.relations]
    box = _pure_power_box(rels, system.nvars, rank)
    if box is None or any(b > d for row in box for b in row):
        return False
    return system.count == exact_box_count(relations, rank, system.p)


def oracle_length(
    relations,
    rank: int,
    p: int,
    degree_bound: int,
) -> tuple[int, bool]:
    """Count monomials of degree <= bound outside the span of all generator
    multiples.

    Only a certified count is the colength. A truncated count can lie
    above it or below it: for (x^3, y^3) over F_2 the counts at bounds
    0..6 are 1, 3, 6, 8, 9, 9, 9, against the colength 9. stable certifies
    the returned count is the true colength: the count matched the bound-1
    run, every (component, variable) pair has a pure-power relation of
    degree <= bound, and the count equals the exact box computation those
    pure powers make possible. A plateau alone can lie (cancellation can
    resurface many degrees later), so the certificate is checked against
    the exact value, never inferred from the plateau.
    """
    system = MacaulaySystem(relations, rank, p)
    system.grow(degree_bound)
    return system.count, _certified(system, relations)


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

    Agrees with calling oracle_length at each bound in turn, but grows one
    MacaulaySystem through all the bounds. A cap (MatrixTooLarge) on the
    system at a bound, or a `time.monotonic()` deadline passed before it,
    ends the walk with the last completed count, uncertified.
    """
    system = MacaulaySystem(relations, rank, p)
    start = max(max(deg for deg, _ in system.relations), 1)
    count = degree = None
    try:
        for d in range(start, start + ORACLE_EXTRA_DEGREES + 1):
            if deadline is not None and time.monotonic() > deadline:
                return StableLength(
                    count, False, degree,
                    f"oracle stopped at degree {d}: time budget exceeded",
                )
            system.grow(d)
            if _certified(system, relations):
                return StableLength(system.count, True, d, None)
            count, degree = system.count, d
    except MatrixTooLarge as exc:
        return StableLength(
            count, False, degree, f"oracle stopped at degree {d}: {exc}"
        )
    return StableLength(count, False, degree, None)
