"""Buchberger engine for ideals and submodules of free F_p[x]-modules.

Everything below works on one uniform representation: a term is a
(component, exponents) pair, an element is a list of terms with precomputed
order keys, sorted leading-first. Rank 1 recovers the ideal case. There is
one module order: position over term, so the earlier component is larger
and the ring's monomial order breaks ties. Keys obey
key(m*t) == mult_key(m) + key(t) componentwise, which lets reductions derive
keys by tuple addition instead of recomputing them.

Divisibility and lcm, the inner operations of the divisor scan, the pair
update and the count, run on packed exponent vectors (_Packing): one int
per vector, each variable a field of w bits with a guard bit above it.
Then a | b is one subtraction and one mask, and lcm a few more, whatever
the number of variables. The width comes from the input's largest
exponent; a lead that outgrows it makes the engine re-pack at a wider w.
A basis loaded for normal forms takes the width of its leads, and a
reduced term with a wider field is clamped. The tuple helpers in poly.py
stay the reference.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import prod
from operator import add, lshift, sub

from .errors import (
    HilbertKunzError,
    NotZeroDimensional,
    OrderMismatch,
    RankMismatch,
    ResourceLimit,
    RingMismatch,
    TooManyVariables,
)
from .poly import (
    Exponents,
    MonomialOrder,
    PolyRing,
    Polynomial,
    monomial_lcm,
)

MAX_BASIS = 200_000
COUNT_NODE_LIMIT = 2_000_000


def default_module_order(ring: PolyRing, rank: int = 1) -> MonomialOrder:
    """The monomial order the engine pairs with position over term: the
    ring's own. The same for every rank."""
    return ring.order


class FreeElement:
    """Element of a free module S^rank: a vector of polynomials."""

    __slots__ = ("ring", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise RankMismatch("rank must be at least 1")
        ring = components[0].ring
        for c in components:
            if c.ring != ring:
                raise RingMismatch("components over different rings")
        self.ring = ring
        self.components = components

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FreeElement)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "FreeElement(" + ", ".join(str(c) for c in self.components) + ")"


def unit_vector(ring: PolyRing, rank: int, j: int, poly: Polynomial | None = None) -> FreeElement:
    comps = [ring.zero()] * rank
    comps[j] = poly if poly is not None else ring.one()
    return FreeElement(comps)


@dataclass(frozen=True)
class GroebnerBasis:
    elements: tuple[FreeElement, ...]
    rank: int
    ring: PolyRing

    def leading_terms(self) -> list[tuple[int, Exponents]]:
        """(component, exponents) of each element's leading term: the first
        term of its first nonzero component, under position over term."""
        out = []
        for e in self.elements:
            j = next(j for j, c in enumerate(e.components) if c.terms)
            out.append((j, e.components[j].terms[0][0]))
        return out


# -- engine ------------------------------------------------------------------


class _Keyed:
    """Position-over-term key builders for one (ring, rank) combination."""

    __slots__ = ("ring", "rank", "base")

    def __init__(self, ring: PolyRing, rank: int):
        self.ring = ring
        self.rank = rank
        self.base = ring.order

    def term_key(self, comp: int, exps: Exponents):
        return (comp, *self.base.key(exps))

    def mult_key(self, exps: Exponents):
        return (0, *self.base.key(exps))


def _element_terms(e: FreeElement, keyed: _Keyed):
    """[(key, comp, exps, coeff), ...] sorted leading-first."""
    terms = []
    for j, poly in enumerate(e.components):
        for exps, c in poly.terms:
            terms.append((keyed.term_key(j, exps), j, exps, c))
    terms.sort(key=lambda t: t[0])
    return terms


def _terms_to_element(terms, keyed: _Keyed) -> FreeElement:
    """The engine's term lists are sorted leading-first with coefficients in
    [1, p), so each component is already in canonical order."""
    comps: list[list] = [[] for _ in range(keyed.rank)]
    for _, j, exps, c in terms:
        comps[j].append((exps, c))
    return FreeElement(tuple(Polynomial(keyed.ring, tuple(t)) for t in comps))


def _monic_terms(terms, p: int):
    lead = terms[0][3]
    if lead == 1:
        return terms
    inv = pow(lead, p - 2, p)
    return [(k, j, e, c * inv % p) for k, j, e, c in terms]


class _Packing:
    """Exponent vectors as ints: variable i takes the w bits from
    i*(w+1) up, with a guard bit above them; `guards` masks the guard bits.

    With G = guards and a, b packed:
    - a | b exactly when ((b | G) - a) & G == G: the subtraction borrows
      from a field's guard bit only when that field of a is larger;
    - lcm(a, b) is a field-wise max, selected by the same guard bits;
      a and b are coprime exactly when lcm(a, b) == a + b.
    A packed a that divides b is at most b, so sorting packed ints puts
    every divisor before its multiples."""

    __slots__ = ("w", "cap", "shifts", "caps", "guards")

    def __init__(self, nvars: int, w: int):
        step = w + 1
        self.w = w
        self.cap = (1 << w) - 1
        self.shifts = tuple(range(0, nvars * step, step))
        self.caps = (self.cap,) * nvars
        self.guards = sum(map(lshift, (1 << w,) * nvars, self.shifts))

    def fits(self, exps: Exponents) -> bool:
        return not exps or max(exps) <= self.cap

    def pack(self, exps: Exponents) -> int:
        """Every field must fit in w bits."""
        return sum(map(lshift, exps, self.shifts))

    def pack_clamped(self, exps: Exponents) -> int:
        """Fields past 2^w - 1 are cut to it. Every packed lead fits, so
        no lead's divides answer against the query changes."""
        if exps and max(exps) > self.cap:
            exps = map(min, exps, self.caps)
        return sum(map(lshift, exps, self.shifts))

    def unpack(self, m: int) -> Exponents:
        return tuple((m >> s) & self.cap for s in self.shifts)


# packings are immutable: one per (nvars, w), built on first use
_packing = cache(_Packing)


def _width(vectors) -> int:
    """Field width for the largest exponent among the vectors."""
    return max(chain.from_iterable(vectors), default=0).bit_length() or 1


def _divides(a: int, b: int, guards: int) -> bool:
    return ((b | guards) - a) & guards == guards


def _lcm(a: int, b: int, guards: int, w: int) -> int:
    m = ((a | guards) - b) & guards  # guard set where a's field >= b's
    sel = m - (m >> w)  # the value bits of those fields
    return (a & sel) | (b & ~sel)


class _Reducer:
    """Shared reduction state: basis elements bucketed by leading component.

    Each lead is held as (component, exponents) and packed under
    `packing`; a lead that does not fit re-packs every lead at its width.
    The divisor scan in reduce packs the popped term once and tests each
    live lead of its component with one subtraction and a mask, so a pop
    costs from a microsecond to about 0.1 ms (a full scan of 1,125 leads,
    where the tuple scan took 1.2 ms).

    A deadline (a time.monotonic() value) makes every reduction stop with
    ResourceLimit once it has passed, checked every 16 heap pops counted
    across reductions, so many short reductions are covered too.
    """

    def __init__(self, keyed: _Keyed, p: int, deadline: float | None, width: int):
        self.keyed = keyed
        self.p = p
        self.deadline = deadline
        self.steps = 0
        self.packing = _packing(keyed.ring.nvars, width)
        self.elements: list[list] = []  # term lists, monic
        self.lead: list[tuple[int, Exponents]] = []
        self.packed: list[int] = []  # lead exponents under self.packing
        # per component, the live elements the divisor scan visits, in
        # index order: single-term elements, then general ones; kill
        # removes one
        self.mono_by_comp: list[list[int]] = [[] for _ in range(keyed.rank)]
        self.gen_by_comp: list[list[int]] = [[] for _ in range(keyed.rank)]

    def add(self, terms) -> int:
        idx = len(self.elements)
        terms = _monic_terms(terms, self.p)
        self.elements.append(terms)
        _, j, exps, _ = terms[0]
        self.lead.append((j, exps))
        if not self.packing.fits(exps):
            self.packing = _packing(len(exps), _width([exps]))
            self.packed = [self.packing.pack(e) for _, e in self.lead[:-1]]
        self.packed.append(self.packing.pack(exps))
        if len(terms) == 1:
            self.mono_by_comp[j].append(idx)
        else:
            self.gen_by_comp[j].append(idx)
        return idx

    def kill(self, idx: int):
        j = self.lead[idx][0]
        if len(self.elements[idx]) == 1:
            self.mono_by_comp[j].remove(idx)
        else:
            self.gen_by_comp[j].remove(idx)

    def check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit(
                "time budget exceeded", partial_basis_size=len(self.elements)
            )

    def reduce(self, work: dict, heap: list):
        """Full normal form of the work dict; returns canonical term list."""
        p = self.p
        keyed = self.keyed
        elements = self.elements
        # no element is added or killed during a reduction, so the packing
        # and the scan lists hold for all of it
        pack_query = self.packing.pack_clamped
        G = self.packing.guards
        packed = self.packed
        mono_by_comp, gen_by_comp = self.mono_by_comp, self.gen_by_comp
        out = []
        pop = heapq.heappop
        push = heapq.heappush
        steps = self.steps
        while heap:
            steps += 1
            if steps & 15 == 0:
                self.steps = steps  # kept when the deadline stops the reduction
                self.check_deadline()
            key, comp, exps = pop(heap)
            c = work.get((comp, exps))
            if not c:
                continue
            # the divisor scan: single-term leads first, then the others
            q = pack_query(exps) | G
            for ridx in mono_by_comp[comp]:
                if (q - packed[ridx]) & G == G:
                    break
            else:
                for ridx in gen_by_comp[comp]:
                    if (q - packed[ridx]) & G == G:
                        break
                else:
                    out.append((key, comp, exps, c))
                    del work[(comp, exps)]
                    continue
            rterms = elements[ridx]
            _, _, rexps, _ = rterms[0]
            shift = tuple(map(sub, exps, rexps))
            del work[(comp, exps)]
            if len(rterms) == 1:
                continue
            mkey = keyed.mult_key(shift)
            for tkey, tj, texps, tc in rterms[1:]:
                target = (tj, tuple(map(add, texps, shift)))
                prev = work.get(target)
                if prev is None:
                    val = -c * tc % p
                    if val:
                        work[target] = val
                        push(heap, (tuple(map(add, tkey, mkey)), target[0], target[1]))
                else:
                    val = (prev - c * tc) % p
                    if val:
                        work[target] = val
                    else:
                        del work[target]
        self.steps = steps
        return out

    def normal_form_terms(self, terms):
        work = {}
        heap = []
        for key, j, exps, c in terms:
            work[(j, exps)] = c
            heap.append((key, j, exps))
        heapq.heapify(heap)
        return self.reduce(work, heap)

    def spoly_terms(self, i: int, j: int):
        """S-vector of two monic elements with equal leading component."""
        ti, tj = self.elements[i], self.elements[j]
        (_, ci, ei, _), (_, cj, ej, _) = ti[0], tj[0]
        lcm = monomial_lcm(ei, ej)
        si = tuple(map(sub, lcm, ei))
        sj = tuple(map(sub, lcm, ej))
        keyed = self.keyed
        p = self.p
        work: dict = {}
        for _, tc_, texps, tcoef in ti[1:]:
            target = (tc_, tuple(map(add, texps, si)))
            work[target] = (work.get(target, 0) + tcoef) % p
        for _, tc_, texps, tcoef in tj[1:]:
            target = (tc_, tuple(map(add, texps, sj)))
            work[target] = (work.get(target, 0) - tcoef) % p
        heap = []
        dead = [t for t, c in work.items() if c == 0]
        for t in dead:
            del work[t]
        for (jc, exps) in work:
            heap.append((keyed.term_key(jc, exps), jc, exps))
        heapq.heapify(heap)
        return work, heap


def _buchberger_engine(
    input_terms: list,
    keyed: _Keyed,
    p: int,
    deadline: float | None = None,
) -> _Reducer:
    width = _width(exps for terms in input_terms for _, _, exps, _ in terms)
    red = _Reducer(keyed, p, deadline, width)
    pairs: dict[tuple[int, int], int] = {}  # packed lcm of each queued pair
    pair_heap: list = []
    ideal = keyed.rank == 1

    def add_element(terms):
        """The Gebauer-Moller update (1988) for a new element h."""
        if len(red.elements) >= MAX_BASIS:
            raise ResourceLimit(
                "basis size cap exceeded", partial_basis_size=len(red.elements)
            )
        packing = red.packing
        h = red.add(terms)
        lead, packed = red.lead, red.packed
        if red.packing is not packing:
            # h outgrew the fields: the queued lcms move to the new width
            packing = red.packing
            for i, j in pairs:
                pairs[(i, j)] = packing.pack(monomial_lcm(lead[i][1], lead[j][1]))
        G, w = packing.guards, packing.w
        comp_h, lt_h = lead[h]
        ph = packed[h]
        # criterion B: drop (i, j) when lt_h divides its lcm and neither
        # (i, h) nor (j, h) has that same lcm
        for (i, j), lcm_ij in list(pairs.items()):
            if (
                lead[i][0] == comp_h
                and ((lcm_ij | G) - ph) & G == G
                and _lcm(packed[i], ph, G, w) != lcm_ij
                and _lcm(packed[j], ph, G, w) != lcm_ij
            ):
                del pairs[(i, j)]
        # new pairs with the live elements of h's component; an element whose
        # lead lt_h divides leaves the basis
        new = []
        for g in red.mono_by_comp[comp_h] + red.gen_by_comp[comp_h]:
            if g == h:
                continue
            pg = packed[g]
            lcm = _lcm(ph, pg, G, w)
            new.append((lcm, not ideal or lcm != ph + pg, g))
            if _divides(ph, pg, G):
                red.kill(g)
        # criteria M and F: a pair stays only if no kept lcm divides its own.
        # Packed order puts every divisor first; coprime pairs (ideal case
        # only) sort first among equal lcms and are then dropped, since
        # their S-polynomials reduce to zero.
        new.sort()
        kept: list[int] = []
        for lcm, not_coprime, g in new:
            lcm_g = lcm | G
            for k in kept:
                if (lcm_g - k) & G == G:
                    break
            else:
                kept.append(lcm)
                if not_coprime:
                    pairs[(g, h)] = lcm
                    key_lcm = monomial_lcm(lt_h, lead[g][1])
                    heapq.heappush(
                        pair_heap, (sum(key_lcm), keyed.term_key(comp_h, key_lcm), g, h)
                    )

    for terms in input_terms:
        r = red.normal_form_terms(terms)
        if r:
            add_element(r)

    while pair_heap:
        red.check_deadline()
        _, _, i, j = heapq.heappop(pair_heap)
        if (i, j) not in pairs:
            continue
        del pairs[(i, j)]
        work, heap = red.spoly_terms(i, j)
        if not work:
            continue
        r = red.reduce(work, heap)
        if r:
            add_element(r)

    return red


def _reduced_from_engine(red: _Reducer) -> list:
    """Tail-reduce the live elements. No live lead divides another, so they
    already form a minimal basis, and a lead divides none of the smaller
    terms its reduction meets: only the tails need reducing."""
    live = chain.from_iterable(red.mono_by_comp + red.gen_by_comp)
    return [
        [terms[0], *red.normal_form_terms(terms[1:])]
        for terms in map(red.elements.__getitem__, live)
    ]


def _as_elements(generators, rank: int | None):
    elems = []
    for g in generators:
        if isinstance(g, Polynomial):
            g = FreeElement((g,))
        elems.append(g)
    if elems:
        r = elems[0].rank
        for e in elems:
            if e.rank != r:
                raise RankMismatch("generators of mixed rank")
        if rank is not None and rank != r:
            raise RankMismatch("declared rank does not match generators")
        rank = r
    if rank is None:
        raise RankMismatch("rank required for an empty generator list")
    return elems, rank


def buchberger(
    generators,
    order: MonomialOrder | None = None,
    rank: int | None = None,
    deadline: float | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule the generators span.

    `order` may only restate the ring's order; the basis always uses it.
    """
    elems, rank = _as_elements(generators, rank)
    if not elems:
        raise HilbertKunzError("cannot infer the ring from an empty input")
    ring = elems[0].ring
    if order is not None and order != ring.order:
        raise OrderMismatch("order differs from the ring order")
    nonzero = [e for e in elems if not e.is_zero()]
    if not nonzero:
        return GroebnerBasis((), rank, ring)
    keyed = _Keyed(ring, rank)
    inputs = [_element_terms(e, keyed) for e in nonzero]
    red = _buchberger_engine(inputs, keyed, ring.p, deadline)
    final = _reduced_from_engine(red)
    final.sort(key=lambda terms: terms[0][0])
    elements = tuple(_terms_to_element(t, keyed) for t in final)
    return GroebnerBasis(elements, rank, ring)


def _loaded_reducer(G: GroebnerBasis, deadline: float | None = None) -> _Reducer:
    keyed = _Keyed(G.ring, G.rank)
    elements = [_element_terms(e, keyed) for e in G.elements]
    # sized from the leads: queries wider than them are clamped, not re-packed
    red = _Reducer(keyed, G.ring.p, deadline, _width(t[0][2] for t in elements))
    for terms in elements:
        red.add(terms)
    return red


def normal_forms(G: GroebnerBasis, deadline: float | None = None):
    """The remainder map f -> NF(f) modulo G, with G loaded once for all its
    calls. Past the deadline a reduction stops with ResourceLimit."""
    red = _loaded_reducer(G, deadline)

    def nf(f: FreeElement | Polynomial):
        wrap = isinstance(f, Polynomial)
        if wrap:
            f = FreeElement((f,))
        if f.rank != G.rank:
            raise RankMismatch(f"rank {f.rank} vs basis rank {G.rank}")
        if f.ring != G.ring:
            raise RingMismatch("element and basis over different rings")
        out = red.normal_form_terms(_element_terms(f, red.keyed))
        result = _terms_to_element(out, red.keyed)
        return result.components[0] if wrap else result

    return nf


def normal_form(f: FreeElement | Polynomial, G: GroebnerBasis):
    """Remainder of f modulo G; unique for a reduced basis."""
    return normal_forms(G)(f)


def spairs_reduce_to_zero(G: GroebnerBasis) -> bool:
    """Test hook: verify the defining property of a Groebner basis."""
    red = _loaded_reducer(G)
    n = len(G.elements)
    for i in range(n):
        for j in range(i + 1, n):
            if red.lead[i][0] != red.lead[j][0]:
                continue
            work, heap = red.spoly_terms(i, j)
            if red.reduce(work, heap):
                return False
    return True


def syzygies(generators) -> list[FreeElement]:
    """Generators of the relation module among the given elements.

    Tags each generator g_i with a marker component e_i, computes a basis
    under position over term (which eliminates the original components,
    since they come first), and keeps the elements whose original
    components all vanish.
    """
    elems, rank = _as_elements(generators, None)
    if not elems:
        return []
    ring = elems[0].ring
    k = len(elems)
    big_rank = rank + k
    zero = ring.zero()
    tagged = []
    for i, e in enumerate(elems):
        comps = list(e.components) + [zero] * k
        comps[rank + i] = ring.one()
        tagged.append(FreeElement(comps))
    G = buchberger(tagged, rank=big_rank)
    out = []
    for e in G.elements:
        if all(c.is_zero() for c in e.components[:rank]):
            out.append(FreeElement(e.components[rank:]))
    return out


# -- staircase combinatorics --------------------------------------------------


def _check_deadline(deadline: float | None):
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceLimit("time budget exceeded")


def _minimalize(monos: list[int], guards: int, deadline: float | None = None) -> list[int]:
    """The minimal generators among packed monomials; the deadline is
    checked every 16 monomials, since each one is tested against all kept
    so far."""
    out: list[int] = []
    for i, m in enumerate(sorted(set(monos))):  # divisors sort first
        if i & 15 == 15:
            _check_deadline(deadline)
        mg = m | guards
        for o in out:
            if (mg - o) & guards == guards:
                break
        else:
            out.append(m)
    return out


def _staircases(G: GroebnerBasis) -> list[tuple[list[int], list[Exponents]]]:
    """(box, others) for each component of a reduced basis that holds no
    unit: box[i] is the exponent of the pure power of x_i among the leads,
    others the leads in two or more variables.

    The leads of a reduced basis are minimal, so each variable has at most
    one pure power and every other lead lies strictly inside the box.
    Raises NotZeroDimensional when a variable has no pure power."""
    v = G.ring.nvars
    by_comp: list[list[Exponents]] = [[] for _ in range(G.rank)]
    for comp, exps in G.leading_terms():
        by_comp[comp].append(exps)
    out = []
    for leads in by_comp:
        box: list = [None] * v
        others = []
        for e in leads:
            support = [i for i, x in enumerate(e) if x > 0]
            if len(support) == 1:
                box[support[0]] = e[support[0]]
            elif support:
                others.append(e)
            else:
                break  # a unit: the component contributes nothing
        else:
            if None in box:
                raise NotZeroDimensional(
                    "I^[q]M does not have finite length; the ideal is not "
                    "primary to the maximal ideal on this module"
                )
            out.append((box, others))
    return out


def is_zero_dimensional(G: GroebnerBasis) -> bool:
    """Every (variable, component) needs a pure-power leading term, unless
    the component holds a unit."""
    try:
        _staircases(G)
    except NotZeroDimensional:
        return False
    return True


def _count_box(box, others, packing, nodes, deadline) -> int:
    """Monomials in the box that no generator divides, by corner splitting.

    The generators are minimal, lie strictly inside the box and are packed
    under `packing`. nodes[0] counts the nodes visited; the deadline is
    checked every 16 nodes and inside _minimalize."""
    nodes[0] += 1
    if nodes[0] > COUNT_NODE_LIMIT:
        raise ResourceLimit("standard-monomial counting budget exceeded")
    if nodes[0] & 15 == 0:
        _check_deadline(deadline)
    if len(others) <= 1:
        return prod(box) - sum(prod(map(sub, box, packing.unpack(e))) for e in others)
    # pivot on the busiest variable at its median positive exponent, which
    # lies in 1..box-1 since every generator is inside the box; `field`
    # masks that variable's bits, so e & field is its exponent shifted
    best_var, best_hits = -1, -1
    for i, s in enumerate(packing.shifts):
        field = packing.cap << s
        hits = sum(1 for e in others if e & field)
        if hits > best_hits:
            best_hits, best_var = hits, i
    s = packing.shifts[best_var]
    field = packing.cap << s
    exps = sorted(e & field for e in others if e & field)
    t = exps[len(exps) // 2]
    # branch 1: add pure power x_best^t (tighten the box); a subset of
    # minimal generators stays minimal
    box1 = list(box)
    box1[best_var] = t >> s
    others1 = [e for e in others if e & field < t]
    n1 = _count_box(box1, others1, packing, nodes, deadline)
    # branch 2: colon by x_best^t, which can make generators non-minimal
    box2 = list(box)
    box2[best_var] = box[best_var] - (t >> s)
    others2 = _minimalize(
        [e - min(e & field, t) for e in others], packing.guards, deadline
    )
    n2 = _count_box(box2, others2, packing, nodes, deadline)
    return n1 + n2


def count_standard_monomials(G: GroebnerBasis, deadline: float | None = None) -> int:
    """Number of monomial-component pairs outside the leading-term module
    of a reduced basis.

    Raises NotZeroDimensional when that number is infinite; past the
    deadline the count stops with ResourceLimit."""
    nodes = [0]
    total = 0
    for box, others in _staircases(G):
        # every generator lies inside the box, so the box sets the width
        packing = _packing(len(box), _width([box]))
        packed = [packing.pack(e) for e in others]
        total += _count_box(box, packed, packing, nodes, deadline)
    return total


def krull_dimension(G: GroebnerBasis) -> int:
    """Dimension of S/I from the leading-term ideal: the largest variable
    subset meeting the support of no leading term."""
    if G.rank != 1:
        raise RankMismatch("Krull dimension is defined here for the ideal case")
    v = G.ring.nvars
    if v > 16:
        raise TooManyVariables(f"{v} variables exceeds the subset-search cap")
    supports = set()
    for _, exps in G.leading_terms():
        mask = 0
        for i, x in enumerate(exps):
            if x > 0:
                mask |= 1 << i
        if mask == 0:
            return -1  # unit ideal: empty spectrum
        supports.add(mask)
    best = 0
    for u in range(1 << v):
        pc = bin(u).count("1")
        if pc <= best:
            continue
        if all(s & ~u for s in supports):
            best = pc
    return best
