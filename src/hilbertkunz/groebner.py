"""Buchberger engine for ideals and submodules of free F_p[x]-modules.

An element is a list of terms (K, coeff), leading first, where the int K
keys the term's (component, exponents) pair (_Keys); rank 1 is the ideal
case. The one module order is position over term: the earlier component
is larger, and the ring's order breaks ties. Int order on keys is that
order, and multiplying by a monomial adds its key, so the reducer's heap
and work dict hold ints and a reduction step is one addition. Terms are
keyed on input and decoded on output only.

Divisibility and lcm run on packed exponent vectors, one int each, every
variable a field with a guard bit above it: a | b is one subtraction and
a mask. The reducer's divisor scan reads the fields straight out of the
keys; the pair update and the count pack at a width from the largest
exponent (_Packing), and a lead that outgrows it re-packs the pair
update. The tuple helpers in poly.py stay the reference.

A component with more than INDEX_LEADS live leads drops the scan for a
divisor index (_DivisorIndex): per variable, the sorted distinct lead
exponents and, for each, an int of the leads above it, so a popped term
ORs one int per variable and reads all its divisors at once. It is built
once from the live leads, kept in step as leads are added and killed,
and answers as the scan does. It takes O(v * distinct exponents *
elements) bits, sized by how many exponents differ and never by their
values; past INDEX_BITS it is rebuilt without its killed leads, or given
up for the scan.

The pair update (_PairUpdate) goes one step further and works on whole
components: each component's leads, and the lcms of its queued pairs,
sit in the slots of one int (_Slots), so one subtraction tests a new lead
against all of them. A slot is 64k bits: a flag bit at the bottom, the
packed monomial just below the top bit, and the top bit free. A slot
that holds nothing live has its top bit set in a second int, the dead
bits, which keep it out of every answer. The update also owns the queue
of S-pairs: a queued pair is live exactly while it owns its slot.

Two single-term elements are never paired: their S-vector is zero. Over
the Frobenius powers of the model rings almost every basis element is a
single term (1,122 of 1,125 for the determinantal ring at q = 32), so
this skips nearly every round of criteria M and F (_tailed_pairs).
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain
from math import prod
from operator import lshift, sub
from struct import Struct, error as StructError

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
)

MAX_BASIS = 200_000
MAX_TERMS = 500_000
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


FIELD = 32  # bits per exponent in a term key, the top one a guard bit
PAST_CAP = f"an exponent reached the term keys' cap 2^{FIELD - 1}"


class _Keys:
    """Term keys as ints, for one number of variables and one order.

    K(comp, e) is comp·2^cshift + base plus a FIELD-bit field per variable.
    Under grevlex e_1 takes the lowest field, e_v the highest and
    OFF - deg(e) the bits above (OFF = v·2^FIELD); under lex e_1 takes the
    highest field, and each holds 2^FIELD - 1 - e_i. So int order is
    position over term, smaller more leading, and multiplying by m adds
    K(0, m) - K(0, 1): a reduction step is target = tK + (K - K_lead).

    The divisor bits (K ^ flip) & low hold each e_i plainly: a | b exactly
    when ((b | G) - a) & G == G, G = guards, the top bit of each field.
    Exponents stay below 2^(FIELD-1): input is checked when keyed, and a
    product of two in-range terms stays below 2^FIELD (and OFF in degree),
    so the reducer sees a term past the cap by its guard bit."""

    def __init__(self, nvars: int, kind: str):
        bits = FIELD * nvars
        lex = kind == "lex"
        self.low = (1 << bits) - 1
        self.guards = self.low // ((1 << FIELD) - 1) << (FIELD - 1)
        off = 0 if lex else nvars << FIELD
        self.cshift = bits + off.bit_length()
        self.base = off << bits
        self.dweight = 0 if lex else 1 << bits
        self.flip = self.low if lex else 0
        self.byteorder = "big" if lex else "little"
        # signed fields: packing an exponent of 2^31 or more fails
        self.struct = Struct(("<", ">")[lex] + "i" * nvars)

    def key(self, comp: int, exps: Exponents) -> int:
        fields = int.from_bytes(self.struct.pack(*exps), self.byteorder) ^ self.flip
        return (comp << self.cshift) + self.base + fields - sum(exps) * self.dweight

    def terms(self, e: FreeElement) -> list:
        """[(K, coeff), ...] of e, leading first; key's formula inlined,
        since every tower step keys its input."""
        pack, order, flip, dw = self.struct.pack, self.byteorder, self.flip, self.dweight
        out = []
        try:
            for j, poly in enumerate(e.components):
                b = (j << self.cshift) + self.base
                out += [
                    (b + (int.from_bytes(pack(*x), order) ^ flip) - sum(x) * dw, c)
                    for x, c in poly.terms
                ]
        except StructError:
            raise ResourceLimit(PAST_CAP) from None
        return out

    def decode(self, K: int) -> tuple[int, Exponents]:
        """(comp, exponents) of a term key."""
        d = (K ^ self.flip) & self.low
        return K >> self.cshift, self.struct.unpack(d.to_bytes(self.struct.size, self.byteorder))

    def element(self, terms, ring: PolyRing, rank: int) -> FreeElement:
        """The element of an engine term list, whose order is canonical."""
        comps: list[list] = [[] for _ in range(rank)]
        for K, c in terms:
            j, exps = self.decode(K)
            comps[j].append((exps, c))
        return FreeElement(tuple(Polynomial(ring, tuple(t)) for t in comps))


# one immutable layout per (nvars, order kind), built on first use
_keys = cache(_Keys)


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

    __slots__ = ("w", "cap", "shifts", "guards", "slot", "at", "slot_guards")

    def __init__(self, nvars: int, w: int):
        step = w + 1
        self.w = w
        self.cap = (1 << w) - 1
        self.shifts = tuple(range(0, nvars * step, step))
        self.guards = sum(map(lshift, (1 << w,) * nvars, self.shifts))
        self.slot = ((nvars * step + 1) // 64 + 1) * 64
        self.at = self.slot - 1 - nvars * step
        self.slot_guards = self.guards << self.at

    def fits(self, exps: Exponents) -> bool:
        return not exps or max(exps) <= self.cap

    def pack(self, exps: Exponents) -> int:
        """Every field must fit in w bits."""
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


# a component past this many live leads gets a _DivisorIndex; on the spairs
# fits any value from 16 to 64 measured alike, and no index took them about
# 20% longer
INDEX_LEADS = 32
# an index past this many bits (its distinct exponents times the element
# count; 4 MB) is rebuilt from its live leads, and given up for the scan if
# it still holds more than half of them; determinantal n=6 peaks at 1.7 M
INDEX_BITS = 1 << 25


class _DivisorIndex:
    """The live leads of one component, indexed for the divisor test.

    For variable i, vals[i] holds the distinct exponents of x_i among the
    indexed leads, ascending, and over[i][k] is an int whose bit g is set
    when lead g's exponent of x_i is at least vals[i][k] (over[i] ends in
    0). So over[i][bisect_right(vals[i], t_i)] holds the leads whose x_i
    exponent is above t_i, and the divisors of t are

        live & ~(over[1][...] | ... | over[v][...]).

    `live` and `single` hold the live leads and the live single-term
    leads. A killed lead only leaves those two, so over keeps its bits and
    values until a rebuild. The index takes at most `distinct` (the count
    of vals over all variables) times the element count bits, that is
    O(v * distinct exponents * elements): it is sized by how many
    exponents differ, never by their values, which reach 5*2^20 on the
    Frobenius tower."""

    __slots__ = ("fields", "elements", "divs", "vals", "over", "live",
                 "single", "distinct")

    def __init__(self, red: _Reducer, leads: list[int]):
        keys = red.keys
        unpack, size, order = keys.struct.unpack, keys.struct.size, keys.byteorder
        self.fields = lambda d: unpack(d.to_bytes(size, order))
        self.elements, self.divs = red.elements, red.divs
        self.build(leads)

    def build(self, leads: list[int]):
        """Index these leads from scratch, one sorted pass per variable."""
        elements = self.elements
        bits = [1 << g for g in leads]
        self.live = sum(bits)
        self.single = sum(b for g, b in zip(leads, bits) if len(elements[g]) == 1)
        self.vals, self.over = [], []
        for column in zip(*map(self.fields, (self.divs[g] for g in leads))):
            vals, over, acc = [], [0], 0
            for x, bit in sorted(zip(column, bits), reverse=True):
                acc |= bit
                if vals and vals[-1] == x:
                    over[-1] = acc
                else:
                    vals.append(x)
                    over.append(acc)
            self.vals.append(vals[::-1])
            self.over.append(over[::-1])
        self.distinct = sum(map(len, self.vals))

    def add(self, g: int):
        bit = 1 << g
        self.live |= bit
        if len(self.elements[g]) == 1:
            self.single |= bit
        for x, vals, over in zip(self.fields(self.divs[g]), self.vals, self.over):
            k = bisect_left(vals, x)
            if k == len(vals) or vals[k] != x:
                vals.insert(k, x)
                over.insert(k, over[k])
                self.distinct += 1
            for j in range(k + 1):
                over[j] |= bit

    def kill(self, g: int):
        self.live &= ~(1 << g)
        self.single &= ~(1 << g)

    def divisor(self, d: int) -> int | None:
        """The scan's divisor of the term with divisor bits d: None, a live
        single-term lead if one divides, else the live lead of lowest index
        that does."""
        over = 0
        for x, vals, ov in zip(self.fields(d), self.vals, self.over):
            over |= ov[bisect_right(vals, x)]
        hits = self.live & ~over
        if hits & self.single:
            hits &= self.single
        return (hits & -hits).bit_length() - 1 if hits else None


class _Reducer:
    """Shared reduction state: basis elements bucketed by leading component.

    Element i is the monic term list elements[i], and divs[i] holds its
    lead's divisor bits: the divisor scan in reduce tests each live lead
    of the popped term's component with one subtraction and a mask, so a
    term that no lead divides costs a pass over the whole list.

    `live[j]` is the one record of component j's live elements, in scan
    order: single-term elements first, then the others in index order. A
    single-term lead that divides a term deletes it with nothing left
    over, so it cannot matter which one the scan finds. They come first
    because that exit pushes nothing: in plain index order a general lead
    can be found first and push its tail, which cost about 3% more heap
    pops over the corpus runs.

    A component past INDEX_LEADS live leads gets a _DivisorIndex, built
    once from its live leads and kept in step by add and kill, of
    O(v * distinct exponents * elements) bits; its pops read all their
    divisors at once and keep the scan's rule: none, any single-term one,
    or else the general one of lowest index. So every trajectory is the
    scan's. An index past INDEX_BITS bits is rebuilt from the live leads,
    and if that leaves it above half of them the component goes back to
    the scan for good, so the index's memory stays bounded. The scan
    stays for short lists, where it is cheaper: the tower's bases hold
    1-3 leads, and an index kept there cost a frobenius_tower pass 10-15%.

    Every 16 heap pops, counted across reductions, a reduction stops with
    ResourceLimit once the deadline (a time.monotonic() value) has passed
    or it holds more than MAX_TERMS live terms.
    """

    def __init__(self, ring: PolyRing, rank: int, deadline: float | None):
        self.ring = ring
        self.rank = rank
        self.deadline = deadline
        self.steps = 0
        self.keys = _keys(ring.nvars, ring.order.kind)
        self.elements: list[list] = []  # term lists, monic
        self.divs: list[int] = []  # each lead's divisor bits
        self.live: list[list[int]] = [[] for _ in range(rank)]
        # None until a component passes INDEX_LEADS, False once given up
        self.index: list[_DivisorIndex | bool | None] = [None] * rank

    def add(self, terms) -> int:
        idx = len(self.elements)
        p = self.ring.p
        if terms[0][1] != 1:
            inv = pow(terms[0][1], p - 2, p)
            terms = [(K, c * inv % p) for K, c in terms]
        self.elements.append(terms)
        K = terms[0][0]
        self.divs.append((K ^ self.keys.flip) & self.keys.low)
        comp = K >> self.keys.cshift
        live = self.live[comp]
        live.insert(0 if len(terms) == 1 else len(live), idx)
        index = self.index[comp]
        if index:
            index.add(idx)
        elif index is None and len(live) > INDEX_LEADS:
            index = self.index[comp] = _DivisorIndex(self, live)
        if index and index.distinct * len(self.elements) > INDEX_BITS:
            index.build(live)  # drops the killed leads' bits and values
            if index.distinct * len(self.elements) > INDEX_BITS // 2:
                self.index[comp] = False
        return idx

    def kill(self, idx: int):
        comp = self.elements[idx][0][0] >> self.keys.cshift
        self.live[comp].remove(idx)
        if self.index[comp]:
            self.index[comp].kill(idx)

    def reduce(self, work: dict):
        """Full normal form of the work dict {K: coeff}; returns the
        canonical term list."""
        heap = list(work)
        heapq.heapify(heap)
        p = self.ring.p
        keys = self.keys
        flip, low, G, cshift = keys.flip, keys.low, keys.guards, keys.cshift
        # no element is added or killed during a reduction
        elements, divs, live, indexes = self.elements, self.divs, self.live, self.index
        out = []
        pop = heapq.heappop
        push = heapq.heappush
        steps = self.steps
        while heap:
            steps += 1
            if steps & 15 == 0:
                self.steps = steps  # kept when a cap stops the reduction
                _check_deadline(self.deadline)
                if len(work) + len(out) > MAX_TERMS:
                    raise ResourceLimit(f"one reduction passed {MAX_TERMS} live terms")
            K = pop(heap)
            c = work.pop(K, 0)
            if not c:
                continue
            d = (K ^ flip) & low
            if d & G:
                raise ResourceLimit(PAST_CAP)
            comp = K >> cshift
            index = indexes[comp]
            if not index:
                q = d | G
                for ridx in live[comp]:
                    if (q - divs[ridx]) & G == G:
                        break
                else:
                    out.append((K, c))
                    continue
            else:
                ridx = index.divisor(d)
                if ridx is None:
                    out.append((K, c))
                    continue
            rterms = elements[ridx]
            if len(rterms) == 1:
                continue
            shift = K - rterms[0][0]
            for tK, tc in rterms[1:]:
                target = tK + shift
                prev = work.get(target)
                if prev is None:
                    work[target] = -c * tc % p
                    push(heap, target)
                else:
                    val = (prev - c * tc) % p
                    if val:
                        work[target] = val
                    else:
                        del work[target]
        self.steps = steps
        return out

    def spoly_terms(self, i: int, j: int, lcm: Exponents):
        """S-vector of two monic elements with equal leading component,
        whose leads have the lcm given."""
        ti, tj = self.elements[i], self.elements[j]
        klcm = self.keys.key(ti[0][0] >> self.keys.cshift, lcm)
        si, sj = klcm - ti[0][0], klcm - tj[0][0]
        p = self.ring.p
        work = {tK + si: tc for tK, tc in ti[1:]}
        for tK, tc in tj[1:]:
            target = tK + sj
            work[target] = (work.get(target, 0) - tc) % p
        return {K: c for K, c in work.items() if c}


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
    pop skips it: its slot is then dead or owned by a later pair.

    A single-term h takes as candidates only the live elements with a
    tail (_tailed_pairs), in the same order and with the same coprime
    drop; its kills and criterion B are as above. Leaving out a pair of
    two single terms is sound since its S-vector is zero, so it needs no
    reduction, and it can stand in for a reduced pair in criterion B.
    Criteria M and F over the fewer candidates keep every tailed pair the
    full rounds keep, and a few more, which then reduce to zero."""

    def __init__(self, red: _Reducer, width: int):
        self.red = red
        self.ideal = red.rank == 1
        self.packing = _packing(red.ring.nvars, width)
        self.packed: list[int] = []  # each element's lead under packing
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
            pairs = self.pairs[key >> self.red.keys.cshift]
            if pairs.owners[s] is pair:
                pairs.drop(s)
                return pair
        return None

    def _repack(self, exps: Exponents):
        """A lead of exps outgrew the fields: every lead and queued lcm
        moves to the new width, in the same slots."""
        old = self.packing
        packing = self.packing = _packing(len(exps), _width([exps]))
        packed = self.packed = [packing.pack(old.unpack(m)) for m in self.packed]
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
        comp, exps = red.keys.decode(red.elements[h][0][0])
        if not self.packing.fits(exps):
            self._repack(exps)
        S, at, w, G = self.packing.slot, self.packing.at, self.packing.w, self.packing.guards
        packed = self.packed
        packed.append(self.packing.pack(exps))
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
        # criteria M and F over one candidate per live lead, or per live
        # element with a tail when h is a single term: the least left is
        # kept, and every candidate whose lcm it divides leaves. Among
        # equal lcms a coprime pair (ideal case only) comes first, and is
        # then dropped, since its S-polynomial reduces to zero.
        new = []
        if leads.live:
            R, GG, TOP, C = leads.masks
            X = (leads.bits | GG) - at_h * R
            m = X & GG
            killed = (TOP - (m ^ GG)) & (TOP ^ leads.dead)
            if len(red.elements[h]) == 1:
                new = self._tailed_pairs(h, comp)
            else:
                Q = X & (m - (m >> w))  # lcm - ph
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
            heapq.heappush(self.heap, (sum(lcm), red.keys.key(comp, lcm), g, h, s, pair))

    def _tailed_pairs(self, h: int, comp: int) -> list[tuple[int, int]]:
        """Criteria M and F for a single-term h, one pair at a time over
        the live elements of its component that have a tail: the back of
        _Reducer.live, behind the single-term elements and h itself.
        Returns the pairs to queue as (g, lcm moved up to packing.at),
        least first."""
        red = self.red
        elements, packed = red.elements, self.packed
        G, w, at = self.packing.guards, self.packing.w, self.packing.at
        ph = packed[h]
        candidates = []
        for g in reversed(red.live[comp]):
            if len(elements[g]) == 1:
                break
            lcm = _lcm(packed[g], ph, G, w)
            candidates.append((lcm, not self.ideal or lcm != packed[g] + ph, g))
        candidates.sort()
        kept: list[int] = []
        new = []
        for lcm, not_coprime, g in candidates:
            lg = lcm | G
            if all((lg - k) & G != G for k in kept):
                kept.append(lcm)
                if not_coprime:
                    new.append((g, lcm << at))
        return new


def _reduced_from_engine(red: _Reducer) -> list:
    """Tail-reduce the live elements. No live lead divides another, so they
    already form a minimal basis, and a lead divides none of the smaller
    terms its reduction meets: only the tails need reducing."""
    live = chain.from_iterable(red.live)
    return [
        [terms[0], *red.reduce(dict(terms[1:]))]
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
    red = _Reducer(ring, rank, deadline)
    inputs = [red.keys.terms(e) for e in elems if not e.is_zero()]
    width = _width(exps for e in elems for c in e.components for exps, _ in c.terms)
    update = _PairUpdate(red, width)

    def add_element(terms):
        if len(red.elements) >= MAX_BASIS:
            raise ResourceLimit("basis size cap exceeded")
        update.add(red.add(terms))

    for terms in inputs:
        if r := red.reduce(dict(terms)):
            add_element(r)
    while pair := update.pop():
        _check_deadline(deadline)
        if r := red.reduce(red.spoly_terms(*pair)):
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
    elements = tuple(red.keys.element(t, red.ring, red.rank) for t in final)
    return GroebnerBasis(elements, red.rank, red.ring)


def _live_leads(generators, rank: int, deadline: float | None = None) -> list[list[Exponents]]:
    """Each component's leads when the engine stops, unreduced: no live
    lead divides another, so they are the leads of the reduced basis, and
    the count needs nothing else."""
    red = _engine(generators, rank, deadline)
    return [[red.keys.decode(red.elements[g][0][0])[1] for g in live] for live in red.live]


def _loaded_reducer(G: GroebnerBasis, deadline: float | None = None) -> _Reducer:
    red = _Reducer(G.ring, G.rank, deadline)
    for e in G.elements:
        red.add(red.keys.terms(e))
    return red


def normal_forms(G: GroebnerBasis, deadline: float | None = None):
    """The remainder map f -> NF(f) modulo G, unique for a reduced basis,
    with G loaded once for all its calls. Past the deadline a reduction
    stops with ResourceLimit."""
    red = _loaded_reducer(G, deadline)

    def nf(f: FreeElement | Polynomial):
        wrap = isinstance(f, Polynomial)
        if wrap:
            f = FreeElement((f,))
        if f.rank != G.rank:
            raise RankMismatch(f"rank {f.rank} vs basis rank {G.rank}")
        if f.ring != G.ring:
            raise RingMismatch("element and basis over different rings")
        out = red.reduce(dict(red.keys.terms(f)))
        result = red.keys.element(out, G.ring, G.rank)
        return result.components[0] if wrap else result

    return nf


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

    The generators are minimal, lie strictly inside the box, each have two
    or more variables and are packed under `packing`. A box with at most
    two generators is counted by inclusion–exclusion, with the lcm of the
    two. Otherwise it splits at x_b^t: the box x_b < t, plus the colon by
    x_b^t. The colon sorts the generators by e = their x_b exponent:
    - U, e = 0: unchanged;
    - L, 0 < e <= t: x_b is zeroed, which can make one divide another;
    - H, e > t: x_b is lowered by t.
    An image from U or H divides no other image: for U, g | f' implies
    g | f, and for H, g - t | f - t exactly when g | f. So only L is
    minimalized, and an image from U or H that a kept L image divides is
    dropped. A kept L image in one variable becomes the box's side in
    that variable. Every L generator has a second variable, so the colon
    never makes a unit.

    nodes[0] counts the nodes visited; the deadline is checked every 16
    nodes and every 16 monomials of the colon's divisibility pass."""
    nodes[0] += 1
    if nodes[0] > COUNT_NODE_LIMIT:
        raise ResourceLimit("standard-monomial counting budget exceeded")
    if nodes[0] & 15 == 0:
        _check_deadline(deadline)
    guards = packing.guards
    if len(others) <= 2:
        n = prod(box) - sum(prod(map(sub, box, packing.unpack(e))) for e in others)
        if len(others) == 2:
            lcm = _lcm(*others, guards, packing.w)
            n += prod(map(sub, box, packing.unpack(lcm)))
        return n
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
    # branch 2: colon by x_best^t; U and H go to `kept`, L to `low`
    box2 = list(box)
    box2[best_var] = box[best_var] - (t >> s)
    kept, low = [], []
    for e in others:
        x = e & field
        if not x:
            kept.append(e)
        elif x <= t:
            low.append(e - x)
        else:
            kept.append(e - t)
    low = _minimalize(low, guards, deadline)
    others2 = []
    step = packing.w + 1
    for m in low:
        at = (m.bit_length() - 1) // step * step  # the field of m's last variable
        if m & ((1 << at) - 1):
            others2.append(m)
        else:  # m = x_i^a: the box's new side in x_i
            box2[at // step] = m >> at
    for i, e in enumerate(kept):
        if i & 15 == 15:
            _check_deadline(deadline)
        eg = e | guards
        for m in low:
            if (eg - m) & guards == guards:
                break
        else:
            others2.append(e)
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
