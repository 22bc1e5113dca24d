"""The batched Gebauer-Moller update against a per-pair loop."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbertkunz import groebner
from hilbertkunz.poly import monomial_divides, monomial_lcm, ring


class ReferenceUpdate:
    """The pair update (Gebauer and Moller 1988) one pair at a time on
    tuple exponents, as the engine ran it before the update was batched,
    except that two single-term elements are never paired: their
    S-vector is zero, so such a pair is no candidate in criteria M and F
    either."""

    def __init__(self, rank: int):
        self.ideal = rank == 1
        self.lead: list = []
        self.live: list[list[int]] = [[] for _ in range(rank)]
        self.pairs: dict = {}  # lcm of each queued pair (g, h)

    def add(self, comp, exps, one_term):
        h = len(self.lead)
        self.lead.append((comp, exps, one_term))
        lead = self.lead
        # criterion B
        for (i, j), lcm_ij in list(self.pairs.items()):
            if (
                lead[i][0] == comp
                and monomial_divides(exps, lcm_ij)
                and monomial_lcm(lead[i][1], exps) != lcm_ij
                and monomial_lcm(lead[j][1], exps) != lcm_ij
            ):
                del self.pairs[(i, j)]
        # new pairs; h kills every live element its lead divides
        new = []
        for g in list(self.live[comp]):
            lt_g = lead[g][1]
            if monomial_divides(exps, lt_g):
                self.live[comp].remove(g)
            if one_term and lead[g][2]:
                continue
            lcm = monomial_lcm(exps, lt_g)
            coprime = all(a == 0 or b == 0 for a, b in zip(exps, lt_g))
            # lcm[::-1] orders as the packed ints did: last variable first
            new.append((lcm[::-1], not self.ideal or not coprime, g, lcm))
        self.live[comp].append(h)
        # criteria M and F: a pair stays only if no kept lcm divides its own;
        # a coprime pair sorts first among equal lcms and is then dropped
        new.sort()
        kept = []
        for _, not_coprime, g, lcm in new:
            if not any(monomial_divides(k, lcm) for k in kept):
                kept.append(lcm)
                if not_coprime:
                    self.pairs[(g, h)] = lcm


@st.composite
def update_runs(draw):
    """Ranks 1-2, 1-4 variables, small exponents (many equal lcms, coprime
    pairs and kills), a start width that the exponents may outgrow (1 in
    half the draws) or, at 40 bits, one that puts two or more variables in
    two-word slots whose top words often tie, and up to 60 steps. An add
    gives its lead a constant tail half the time (never the lead 1), so
    both the single-term candidates and the batched rounds over every
    live lead are taken.

    The first 2-20 steps add squarefree leads other than 1, which fit
    every start width, so pairs are queued before any re-pack. The other
    5-40 steps, two in three an add and the rest a pop, allow exponents up
    to `top`, so a lead can outgrow the width while pairs are queued.
    There an exponent is 0 half the time, since a re-packing lead that a
    stale-width lcm would fool in criterion B has few variables."""
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 4))
    width = draw(st.sampled_from([1, 1, 2, 40]))
    top = draw(st.sampled_from([2, 3, 5]))

    comp = st.integers(0, rank - 1)
    squarefree = st.integers(1, (1 << nvars) - 1).map(
        lambda m: tuple(m >> i & 1 for i in range(nvars))
    )
    exps = st.tuples(*[st.sampled_from((0,) * top + tuple(range(1, top + 1)))] * nvars)
    first = st.tuples(st.just("add"), comp, squarefree, st.booleans())
    later = st.tuples(st.sampled_from(["add", "add", "pop"]), comp, exps, st.booleans())
    ops = draw(st.lists(first, min_size=2, max_size=20))
    return rank, nvars, width, ops + draw(st.lists(later, min_size=5, max_size=40))


# Every lead in these examples has a tail, so each add runs the batched
# rounds over every live lead.

# xz (g1) and yz (g2) tie on their lcm with xy; g2 took the slot g0 left,
# below g1's, so breaking the tie by slot instead of g keeps (2, 3)
TIE_AFTER_A_KILL = (1, 3, 2, [
    ("add", 0, (0, 2, 1), True),
    ("add", 0, (1, 0, 1), True),
    ("add", 0, (0, 1, 1), True),
    ("add", 0, (1, 1, 0), True),
])

# a (g3) drops (1, 2), lcm a^2 b^2, by criterion B, and (0, 3) takes its
# slot; the stale (1, 2) comes off the heap first, while (0, 3) owns it
STALE_SLOT_REUSE = (1, 3, 2, [
    ("add", 0, (1, 1, 2), True),
    ("add", 0, (0, 2, 0), True),
    ("add", 0, (2, 1, 0), True),
    ("add", 0, (1, 0, 0), True),
    ("pop", 0, (0, 0, 0), False),
    ("pop", 0, (0, 0, 0), False),
])

# a kills ab and queues (0, 1) at width 1; b^2 re-packs at width 2 while
# the pair is queued, and criterion B reads its re-packed lcm
REPACK_WITH_A_QUEUED_PAIR = (1, 2, 1, [
    ("add", 0, (1, 1), True),
    ("add", 0, (1, 0), True),
    ("add", 0, (0, 2), True),
])


@settings(max_examples=400, deadline=None)
@given(update_runs())
@example(TIE_AFTER_A_KILL)
@example(STALE_SLOT_REUSE)
@example(REPACK_WITH_A_QUEUED_PAIR)
@example((2, 2, 1, [
    ("add", 1, (1, 1), True), ("add", 1, (4, 0), True), ("add", 1, (0, 5), True),
]))
def test_batched_update_keeps_the_pairs_of_the_per_pair_loop(case):
    """The same queued pairs (g, h, lcm) after every step, through
    criterion B, criteria M and F, re-packs at a wider w and slots of one
    and two words; each pop returns the least pair under the engine's key,
    never one criterion B dropped; and the same live elements, with
    single-term and two-term elements mixed. Like the engine, a lead that
    a live lead divides is never added."""
    rank, nvars, width, ops = case
    R = ring("a b c d"[: 2 * nvars - 1], 2)
    red = groebner._Reducer(R, rank, None)
    update = groebner._PairUpdate(red, width)
    ref = ReferenceUpdate(rank)

    def engine_key(gh):
        g, h = gh
        lcm = ref.pairs[gh]
        return sum(lcm), red.keys.key(ref.lead[h][0], lcm), g, h

    for kind, comp, exps, tail in ops:
        if kind == "add":
            if any(monomial_divides(ref.lead[g][1], exps) for g in ref.live[comp]):
                continue
            monos = [exps, (0,) * nvars] if tail and any(exps) else [exps]
            update.add(red.add([(red.keys.key(comp, e), 1) for e in monos]))
            ref.add(comp, exps, len(monos) == 1)
        elif ref.pairs:
            least = min(ref.pairs, key=engine_key)
            assert update.pop() == (*least, ref.pairs.pop(least))
        else:
            assert update.pop() is None
        owned = {
            (g, h): lcm
            for slots in filter(None, update.pairs)
            for g, h, lcm in filter(None, slots.owners)
        }
        assert owned == ref.pairs
        for comp in range(rank):
            assert sorted(red.live[comp]) == sorted(ref.live[comp])
