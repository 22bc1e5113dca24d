"""Buchberger engine for ideals and submodules of free F_p[x]-modules.

Everything below works on one uniform representation: a term is a
(component, exponents) pair, an element is a list of terms with precomputed
order keys, sorted leading-first. Rank 1 recovers the ideal case. There is
one module order: position over term, so the earlier component is larger
and the ring's monomial order breaks ties. Keys obey
key(m*t) == key(m) + key(t) componentwise, with the multiplier m keyed in
component 0, which lets reductions derive keys by tuple addition instead
of recomputing them.

Divisibility and lcm, the inner operations of the divisor scan, the pair
update and the count, run on packed exponent vectors (_Packing): one int
per vector, each variable a field of w bits with a guard bit above it.
Then a | b is one subtraction and one mask, and lcm a few more, whatever
the number of variables. The width comes from the input's largest
exponent; a lead that outgrows it makes the engine re-pack at a wider w.
A basis loaded for normal forms takes the width of its leads, and a
reduced term with a wider field is clamped. The tuple helpers in poly.py
stay the reference.

The pair update (_PairUpdate) goes one step further and works on whole
components: each component's leads, and the lcms of its queued pairs,
sit in the slots of one int (_Slots), so one subtraction tests a new lead
against all of them. A slot is 64k bits: a flag bit at the bottom, the
packed monomial just below the top bit, and the top bit free. A slot
that holds nothing live has its top bit set in a second int, the dead
bits, which keep it out of every answer. The update also owns the queue
of S-pairs: a queued pair is live exactly while it owns its slot.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cache, lru_cache
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


def _term_key(order: MonomialOrder, comp: int, exps: Exponents):
    """Position-over-term key: the earlier component is larger, and the
    ring's order breaks ties. The key of a multiplier is its key in
    component 0."""
    return (comp, *order.key(exps))


def _element_terms(e: FreeElement):
    """[(key, comp, exps, coeff), ...] leading-first: the components in
    order, each leading-first, is position over term."""
    order = e.ring.order
    return [
        (_term_key(order, j, exps), j, exps, c)
        for j, poly in enumerate(e.components)
        for exps, c in poly.terms
    ]


def _terms_to_element(terms, ring: PolyRing, rank: int) -> FreeElement:
    """The engine's term lists are sorted leading-first with coefficients in
    [1, p), so each component is already in canonical order."""
    comps: list[list] = [[] for _ in range(rank)]
    for _, j, exps, c in terms:
        comps[j].append((exps, c))
    return FreeElement(tuple(Polynomial(ring, tuple(t)) for t in comps))


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
    every divisor before its multiples.

    The pair update keeps packed monomials in slots of `slot` bits, the
    least multiple of 64 with room for a flag bit at the bottom and a free
    top bit. The fields sit just below the top bit, from bit `at` up, so
    the top 64-bit word of a slot holds the most significant fields;
    `slot_guards` is `guards` moved up to `at`."""

    __slots__ = ("w", "cap", "shifts", "caps", "guards", "slot", "at", "slot_guards")

    def __init__(self, nvars: int, w: int):
        step = w + 1
        self.w = w
        self.cap = (1 << w) - 1
        self.shifts = tuple(range(0, nvars * step, step))
        self.caps = (self.cap,) * nvars
        self.guards = sum(map(lshift, (1 << w,) * nvars, self.shifts))
        self.slot = ((nvars * step + 1) // 64 + 1) * 64
        self.at = self.slot - 1 - nvars * step
        self.slot_guards = self.guards << self.at

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


def _lcm(a: int, b: int, guards: int, w: int) -> int:
    m = ((a | guards) - b) & guards  # guard set where a's field >= b's
    sel = m - (m >> w)  # the value bits of those fields
    return (a & sel) | (b & ~sel)


def _check_deadline(deadline: float | None):
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceLimit("time budget exceeded")


class _Reducer:
    """Shared reduction state: basis elements bucketed by leading component.

    Element i is the monic term list elements[i], and its lead is
    elements[i][0]. Each lead is also packed under `packing`; a lead that
    does not fit re-packs every lead at its width. The divisor scan in
    reduce packs the popped term once and tests each live lead of its
    component with one subtraction and a mask, so a pop costs from a
    microsecond to about 0.1 ms (a full scan of 1,125 leads, where the
    tuple scan took 1.2 ms).

    `live[j]` is the one record of component j's live elements, in scan
    order: single-term elements first, then the others in index order. A
    single-term lead that divides a term deletes it with nothing left
    over, so it cannot matter which one the scan finds. They come first
    because that exit pushes nothing: in plain index order a general lead
    can be found first and push its tail, which cost about 3% more heap
    pops over the corpus runs.

    A deadline (a time.monotonic() value) makes every reduction stop with
    ResourceLimit once it has passed, checked every 16 heap pops counted
    across reductions, so many short reductions are covered too.
    """

    def __init__(self, ring: PolyRing, rank: int, deadline: float | None, width: int):
        self.ring = ring
        self.rank = rank
        self.deadline = deadline
        self.steps = 0
        self.packing = _packing(ring.nvars, width)
        self.elements: list[list] = []  # term lists, monic
        self.packed: list[int] = []  # lead exponents under self.packing
        self.live: list[list[int]] = [[] for _ in range(rank)]

    def add(self, terms) -> int:
        idx = len(self.elements)
        terms = _monic_terms(terms, self.ring.p)
        self.elements.append(terms)
        _, j, exps, _ = terms[0]
        if not self.packing.fits(exps):
            self.packing = _packing(len(exps), _width([exps]))
            self.packed = [self.packing.pack(t[0][2]) for t in self.elements[:-1]]
        self.packed.append(self.packing.pack(exps))
        if len(terms) == 1:
            self.live[j].insert(0, idx)
        else:
            self.live[j].append(idx)
        return idx

    def kill(self, idx: int):
        self.live[self.elements[idx][0][1]].remove(idx)

    def reduce(self, work: dict, heap: list):
        """Full normal form of the work dict; returns canonical term list."""
        p, order = self.ring.p, self.ring.order
        elements = self.elements
        # no element is added or killed during a reduction, so the packing
        # and the scan lists hold for all of it
        pack_query = self.packing.pack_clamped
        G = self.packing.guards
        packed = self.packed
        live = self.live
        out = []
        pop = heapq.heappop
        push = heapq.heappush
        steps = self.steps
        while heap:
            steps += 1
            if steps & 15 == 0:
                self.steps = steps  # kept when the deadline stops the reduction
                _check_deadline(self.deadline)
            key, comp, exps = pop(heap)
            c = work.get((comp, exps))
            if not c:
                continue
            q = pack_query(exps) | G
            for ridx in live[comp]:
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
            mkey = _term_key(order, 0, shift)
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

    def spoly_terms(self, i: int, j: int, lcm: Exponents):
        """S-vector of two monic elements with equal leading component,
        whose leads have the lcm given."""
        ti, tj = self.elements[i], self.elements[j]
        si = tuple(map(sub, lcm, ti[0][2]))
        sj = tuple(map(sub, lcm, tj[0][2]))
        p, order = self.ring.p, self.ring.order
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
            heap.append((_term_key(order, jc, exps), jc, exps))
        heapq.heapify(heap)
        return work, heap


def _join(values, slot: int) -> int:
    """One int holding values[s] in slot s."""
    size = slot // 8
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")


def _least_slot(x: int, cap: int, slot: int, owners: list) -> tuple[int, int]:
    """The least (value, owner) over the cap slots of x: the least top
    64-bit word picks the slot, and a tie on it is broken on the whole
    slot and then on the owner."""
    size = slot // 8
    buf = x.to_bytes(cap * size, "little")
    # cast reads native words: this takes a little-endian host, as x86-64
    # and AArch64 are
    tops = memoryview(buf).cast("Q")[slot // 64 - 1 :: slot // 64].tolist()
    top = min(tops)
    i = tops.index(top)
    least = int.from_bytes(buf[i * size : (i + 1) * size], "little"), owners[i]
    for _ in range(tops.count(top) - 1):
        i = tops.index(top, i + 1)
        least = min(least, (int.from_bytes(buf[i * size : (i + 1) * size], "little"), owners[i]))
    return least


@lru_cache(maxsize=64)
def _masks(packing: _Packing, cap: int) -> tuple[int, int, int, int]:
    """R, GG, TOP and C over cap slots; the engine runs of one sample
    series share them."""
    S = packing.slot
    R = ((1 << cap * S) - 1) // ((1 << S) - 1)
    TOP = R << (S - 1)
    return R, packing.slot_guards * R, TOP, TOP - R


class _Slots:
    """One component's leads, or its queued pairs' lcms, in the slots of
    the int `bits`: slot s is bits s*S to (s+1)*S, S = packing.slot, and
    holds its entry moved up to bit packing.at; `owners` says whose it
    is. `dead` has the top bit of each slot with no live entry (a dead
    slot may keep a stale one). A new entry takes the lowest dead slot;
    there are 4 at first, and a quarter and 4 more whenever none is dead.

    The masks R, GG, TOP and C repeat one slot's lowest bit, guard bits,
    top bit and 2^(S-1) - 1 over every slot, so one big-int operation
    works on all slots. If x has every top bit clear, a slot of x is
    nonzero where (x + C) & TOP has its top bit, and zero where
    (TOP - x) & TOP has it."""

    __slots__ = (
        "packing", "cap", "live", "bits", "dead", "entries", "owners", "free",
        "masks",
    )

    def __init__(self, packing: _Packing):
        self.packing = packing
        self.cap = 4
        self.live = self.bits = 0
        self.masks = _masks(packing, 4)
        self.dead = self.masks[2]
        self.entries: list[int] = [0] * 4  # each slot's entry, stale when dead
        self.owners: list = [None] * 4  # each slot's element or pair, None when dead
        self.free: list[int] = [0, 1, 2, 3]  # heap of the dead slots

    def put(self, entry: int, owner) -> int:
        if not self.free:
            start = self.cap
            self.cap += start // 4 + 4
            self.entries += [0] * (self.cap - start)
            self.owners += [None] * (self.cap - start)
            self.free = list(range(start, self.cap))
            self.masks = _masks(self.packing, self.cap)
            self.dead |= self.masks[2] >> (start * self.packing.slot) << (start * self.packing.slot)
        s = heapq.heappop(self.free)
        S = self.packing.slot
        self.bits ^= (self.entries[s] ^ entry) << (s * S)
        self.dead ^= 1 << (s * S + S - 1)
        self.entries[s] = entry
        self.owners[s] = owner
        self.live += 1
        return s

    def drop(self, s: int):
        self.dead |= 1 << ((s + 1) * self.packing.slot - 1)
        self.owners[s] = None
        heapq.heappush(self.free, s)
        self.live -= 1

    def repack(self, packing: _Packing, entries: list[int]):
        """Move to a new packing, with the new entry of every slot."""
        self.packing = packing
        self.entries = entries
        self.bits = _join(entries, packing.slot)
        top = 1 << (packing.slot - 1)
        self.dead = _join([top if o is None else 0 for o in self.owners], packing.slot)
        self.masks = _masks(packing, self.cap)


class _PairUpdate:
    """The Gebauer-Moller pair update (1988), on _Slots per component, and
    the queue of S-pairs it keeps.

    With ph = lt_h in every slot and X = (leads | GG) - ph, the guards
    m = X & GG are set where a lead's field is at least ph's: h kills the
    leads where m == GG, and Q = X & (m - (m >> w)) is lcm - ph, which
    divides and orders like the lcm. A pair is coprime where Q equals the
    lead. With a not-coprime flag below Q, criteria M and F keep the
    least (Q, flag, g) in rounds, each marking every slot its Q divides
    dead. Criterion B tests lt_h against every queued lcm at once, then
    checks the two lcms of each hit.

    A queued pair is one tuple (g, h, lcm) that owns its slot in the pairs
    of its component; the heap holds (degree, key, g, h, slot, pair) for
    it, ordered by the lcm's degree, then its term key, then g and h. A
    pair criterion B drops gives up its slot and stays in the heap, where
    pop skips it: its slot is then dead or owned by a later pair."""

    def __init__(self, red: _Reducer):
        self.red = red
        self.ideal = red.rank == 1
        self.packing = red.packing
        # each component's slots, made on its first lead
        self.leads: list = [None] * red.rank
        self.pairs: list = [None] * red.rank
        self.heap: list = []

    def pop(self) -> tuple[int, int, Exponents] | None:
        """The least queued pair (g, h, lcm) still live, dequeued; None when
        there is none."""
        heap = self.heap
        while heap:
            _, key, _, _, s, pair = heapq.heappop(heap)
            pairs = self.pairs[key[0]]
            if pairs.owners[s] is pair:
                pairs.drop(s)
                return pair
        return None

    def _repack(self):
        """h outgrew the fields: every lead and queued lcm moves to the
        new width, in the same slots."""
        packing = self.packing = self.red.packing
        packed = self.red.packed
        for leads in filter(None, self.leads):
            leads.repack(packing, [
                0 if g is None else packed[g] << packing.at for g in leads.owners
            ])
        for pairs in filter(None, self.pairs):
            pairs.repack(packing, [
                0 if pair is None else packing.pack(pair[2]) << packing.at
                for pair in pairs.owners
            ])

    def add(self, h: int):
        """Drop the queued pairs criterion B rules out, kill the live
        elements whose lead lt_h divides, and queue the new pairs (g, h)
        criteria M and F keep."""
        red = self.red
        if red.packing is not self.packing:
            self._repack()
        S, at, w, G = self.packing.slot, self.packing.at, self.packing.w, self.packing.guards
        comp = red.elements[h][0][1]
        packed = red.packed
        ph = packed[h]
        at_h = ph << at
        if self.leads[comp] is None:
            self.leads[comp] = _Slots(self.packing)
            self.pairs[comp] = _Slots(self.packing)
        pairs, leads = self.pairs[comp], self.leads[comp]
        # criterion B: drop (i, j) when lt_h divides its lcm and neither
        # (i, h) nor (j, h) has that same lcm
        if pairs.live:
            R, GG, TOP, _ = pairs.masks
            missed = ((pairs.bits | GG) - at_h * R) & GG ^ GG
            hits = (TOP - missed) & (TOP ^ pairs.dead)
            while hits:
                s = hits.bit_length() // S - 1  # the highest slot hit
                hits ^= 1 << ((s + 1) * S - 1)
                i, j, _ = pairs.owners[s]
                lcm_ij = pairs.entries[s] >> at
                if _lcm(packed[i], ph, G, w) != lcm_ij and _lcm(packed[j], ph, G, w) != lcm_ij:
                    pairs.drop(s)
        # criteria M and F over one candidate per live lead: the least left
        # is kept, and every candidate whose lcm it divides leaves. Among
        # equal lcms a coprime pair (ideal case only) comes first, and is
        # then dropped, since its S-polynomial reduces to zero.
        new = []
        if leads.live:
            R, GG, TOP, C = leads.masks
            X = (leads.bits | GG) - at_h * R
            m = X & GG
            Q = X & (m - (m >> w))  # lcm - ph
            killed = (TOP - (m ^ GG)) & (TOP ^ leads.dead)
            not_coprime = ((Q ^ leads.bits) + C) & TOP if self.ideal else TOP
            candidates = Q | not_coprime >> (S - 1) | leads.dead
            QG = Q | GG
            while candidates & TOP != TOP:
                least, g = _least_slot(candidates, leads.cap, S, leads.owners)
                lcm = least >> at << at
                if least & 1:
                    new.append((g, lcm + at_h))
                candidates |= (TOP - ((QG - lcm * R) & GG ^ GG)) & TOP
            while killed:
                s = killed.bit_length() // S - 1
                killed ^= 1 << ((s + 1) * S - 1)
                red.kill(leads.owners[s])
                leads.drop(s)
        leads.put(at_h, h)
        for g, entry in new:
            lcm = self.packing.unpack(entry >> at)
            pair = (g, h, lcm)
            s = pairs.put(entry, pair)
            heapq.heappush(self.heap, (sum(lcm), _term_key(red.ring.order, comp, lcm), g, h, s, pair))


def _reduced_from_engine(red: _Reducer) -> list:
    """Tail-reduce the live elements. No live lead divides another, so they
    already form a minimal basis, and a lead divides none of the smaller
    terms its reduction meets: only the tails need reducing."""
    live = chain.from_iterable(red.live)
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
        r, ring = elems[0].rank, elems[0].ring
        for e in elems:
            if e.rank != r:
                raise RankMismatch("generators of mixed rank")
            if e.ring != ring:
                raise RingMismatch("generators over different rings")
        if rank is not None and rank != r:
            raise RankMismatch("declared rank does not match generators")
        rank = r
    if rank is None:
        raise RankMismatch("rank required for an empty generator list")
    return elems, rank


def _engine(generators, rank, deadline, order=None) -> _Reducer:
    """The engine run on the generators, for buchberger and _live_leads:
    the inputs reduced one by one, then the S-pairs in the update's order."""
    elems, rank = _as_elements(generators, rank)
    if not elems:
        raise HilbertKunzError("cannot infer the ring from an empty input")
    ring = elems[0].ring
    if order is not None and order != ring.order:
        raise OrderMismatch("order differs from the ring order")
    inputs = [_element_terms(e) for e in elems if not e.is_zero()]
    width = _width(exps for terms in inputs for _, _, exps, _ in terms)
    red = _Reducer(ring, rank, deadline, width)
    update = _PairUpdate(red)

    def add_element(terms):
        if len(red.elements) >= MAX_BASIS:
            raise ResourceLimit("basis size cap exceeded")
        update.add(red.add(terms))

    for terms in inputs:
        r = red.normal_form_terms(terms)
        if r:
            add_element(r)
    while pair := update.pop():
        _check_deadline(deadline)
        work, heap = red.spoly_terms(*pair)
        if work:
            r = red.reduce(work, heap)
            if r:
                add_element(r)
    return red


def buchberger(
    generators,
    order: MonomialOrder | None = None,
    rank: int | None = None,
    deadline: float | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule the generators span.

    `order` may only restate the ring's order; the basis always uses it.
    """
    red = _engine(generators, rank, deadline, order)
    final = _reduced_from_engine(red)
    final.sort(key=lambda terms: terms[0][0])
    elements = tuple(_terms_to_element(t, red.ring, red.rank) for t in final)
    return GroebnerBasis(elements, red.rank, red.ring)


def _live_leads(generators, rank: int, deadline: float | None = None) -> list[list[Exponents]]:
    """Each component's leads when the engine stops, unreduced: no live
    lead divides another, so they are the leads of the reduced basis, and
    the count needs nothing else."""
    red = _engine(generators, rank, deadline)
    return [[red.elements[g][0][2] for g in live] for live in red.live]


def _loaded_reducer(G: GroebnerBasis, deadline: float | None = None) -> _Reducer:
    elements = [_element_terms(e) for e in G.elements]
    # sized from the leads: queries wider than them are clamped, not re-packed
    red = _Reducer(G.ring, G.rank, deadline, _width(t[0][2] for t in elements))
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
        out = red.normal_form_terms(_element_terms(f))
        result = _terms_to_element(out, G.ring, G.rank)
        return result.components[0] if wrap else result

    return nf


def normal_form(f: FreeElement | Polynomial, G: GroebnerBasis):
    """Remainder of f modulo G; unique for a reduced basis."""
    return normal_forms(G)(f)


def spairs_reduce_to_zero(G: GroebnerBasis) -> bool:
    """Test hook: verify the defining property of a Groebner basis."""
    red = _loaded_reducer(G)
    leads = [terms[0] for terms in red.elements]
    n = len(leads)
    for i in range(n):
        for j in range(i + 1, n):
            if leads[i][1] != leads[j][1]:
                continue
            lcm = monomial_lcm(leads[i][2], leads[j][2])
            if red.reduce(*red.spoly_terms(i, j, lcm)):
                return False
    return True


def syzygies(generators) -> list[FreeElement]:
    """Generators of the relation module among the given elements: the
    kernel of S^s -> S^rank, e_i -> g_i."""
    return _kernel(generators, ())


def _kernel(generators, relations) -> list[FreeElement]:
    """Generators of the kernel of S^s -> S^rank / (relations), e_i -> g_i.

    Tags each generator g_i with a marker component e_i and adds each
    relation untagged. A basis under position over term eliminates the
    original components, since they come first, so its elements whose
    original components all vanish generate the kernel, read in the
    marker components.
    """
    gens, rank = _as_elements(generators, None)
    if not gens:
        return []
    ring = gens[0].ring
    s = len(gens)
    tagged = [
        FreeElement(g.components + unit_vector(ring, s, i).components)
        for i, g in enumerate(gens)
    ]
    tagged += [FreeElement(r.components + (ring.zero(),) * s) for r in relations]
    G = buchberger(tagged, rank=rank + s)
    return [
        FreeElement(e.components[rank:])
        for e in G.elements
        if all(c.is_zero() for c in e.components[:rank])
    ]


# -- staircase combinatorics --------------------------------------------------


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


def _component_leads(G: GroebnerBasis) -> list[list[Exponents]]:
    by_comp: list[list[Exponents]] = [[] for _ in range(G.rank)]
    for comp, exps in G.leading_terms():
        by_comp[comp].append(exps)
    return by_comp


def _staircases(by_comp, v: int) -> list[tuple[list[int], list[Exponents]]]:
    """(box, others) for each component that holds no unit, from minimal
    leads by component in v variables: box[i] is the exponent of the pure
    power of x_i among the leads, others the leads in two or more
    variables.

    The leads are minimal, so each variable has at most one pure power and
    every other lead lies strictly inside the box. Raises
    NotZeroDimensional when a variable has no pure power."""
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
        _staircases(_component_leads(G), G.ring.nvars)
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
    return _count_leads(_component_leads(G), G.ring.nvars, deadline)


def _count_leads(by_comp, nvars: int, deadline: float | None = None) -> int:
    """count_standard_monomials on minimal leads by component."""
    nodes = [0]
    total = 0
    for box, others in _staircases(by_comp, nvars):
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
