"""Quotient rings, finitely presented modules, and Frobenius-power lengths.

A module is presented as S^rank / N where S = F_p[x_1..x_v] and N is spanned
by explicit relation vectors together with I_R times each free generator, so
the result is a module over R = S/I_R. Lengths of Frobenius quotients come
from counting standard monomials of a Groebner basis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    RankMismatch,
    RingMismatch,
    SemanticError,
)
from .groebner import (
    FreeElement,
    GroebnerBasis,
    _check_deadline,
    _count_leads,
    _kernel,
    _live_leads,
    buchberger,
    krull_dimension,
    normal_forms,
    unit_vector,
)
from .poly import (
    PolyRing,
    Polynomial,
    check_power_of_p,
    frobenius_power_poly,
    parse_polynomial,
    ring,
)


def _as_poly(f, S: PolyRing) -> Polynomial:
    if isinstance(f, Polynomial):
        if f.ring != S:
            raise RingMismatch("polynomial from a different ring")
        return f
    return parse_polynomial(str(f), S)


@dataclass(frozen=True)
class RingSpec:
    """R = F_p[variables]/(defining_ideal); an empty ideal gives S itself."""

    ring: PolyRing
    defining_ideal: tuple[Polynomial, ...] = ()

    def __post_init__(self):
        for g in self.defining_ideal:
            if g.ring != self.ring:
                raise RingMismatch("ideal generator from a different ring")

    @property
    def p(self) -> int:
        return self.ring.p

    @cached_property
    def basis(self) -> GroebnerBasis | None:
        """Reduced Groebner basis of the defining ideal, computed once;
        None when there are no relations."""
        if not self.defining_ideal:
            return None
        return buchberger(list(self.defining_ideal), rank=1)

    def dimension(self) -> int:
        """Krull dimension of R."""
        return self.ring.nvars if self.basis is None else krull_dimension(self.basis)


def ring_spec(variables: str, p: int, ideal=(), order: str = "grevlex") -> RingSpec:
    S = ring(variables, p, order)
    return RingSpec(S, tuple(_as_poly(g, S) for g in ideal))


@dataclass(frozen=True)
class IdealSpec:
    """An ideal of R, given by generators in S.

    Primary-ness to the maximal ideal is not checked here; the length
    computation raises NotZeroDimensional when it fails.
    """

    ringspec: RingSpec
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.ring != self.ringspec.ring:
                raise RingMismatch("generator from a different ring")

    @cached_property
    def _tower(self) -> list[list[Polynomial]]:
        """The Frobenius tower levels computed so far over a ring with
        relations: level k holds g_k for every generator, zeros kept.
        frobenius_relations extends it; it lives as long as this object."""
        return []

    def frobenius_power(self, q: int) -> "IdealSpec":
        """I^[q]: the q-th powers of the generators, q a power of p. Any
        generating set of I gives the same ideal."""
        check_power_of_p(q, self.ringspec.p)
        return IdealSpec(
            self.ringspec,
            tuple(frobenius_power_poly(g, q) for g in self.generators),
        )


def ideal_spec(rs: RingSpec, generators) -> IdealSpec:
    return IdealSpec(rs, tuple(_as_poly(g, rs.ring) for g in generators))


def maximal_ideal(rs: RingSpec) -> IdealSpec:
    S = rs.ring
    return IdealSpec(rs, tuple(S.variable(i) for i in range(S.nvars)))


@dataclass(frozen=True)
class ModulePresentation:
    """M = S^rank / (relations), presenting a module over R = S/I_R.

    Construction appends defining_ideal * e_j for every component j, so the
    stored relations always present an R-module. declared_generic_rank is
    the user's claim for the rank of M over R; it is recorded (and added
    up by direct_sum), not verified, and the analysis does not read it:
    analyze_module_vs_ring takes the rank as an argument.
    """

    ringspec: RingSpec
    rank: int
    relations: tuple[FreeElement, ...] = ()
    declared_generic_rank: int | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise RankMismatch("presentation rank must be at least 1")
        for r in self.relations:
            if r.ring != self.ringspec.ring:
                raise RingMismatch("relation from a different ring")
            if r.rank != self.rank:
                raise RankMismatch(
                    f"relation rank {r.rank} does not match presentation rank {self.rank}"
                )
        if (
            self.declared_generic_rank is not None
            and not 0 <= self.declared_generic_rank <= self.rank
        ):
            raise RankMismatch("declared generic rank must lie in 0..rank")
        S = self.ringspec.ring
        have = set(self.relations)
        extra = []
        for j in range(self.rank):
            for g in self.ringspec.defining_ideal:
                v = unit_vector(S, self.rank, j, g)
                if v not in have:
                    extra.append(v)
                    have.add(v)
        if extra:
            object.__setattr__(self, "relations", self.relations + tuple(extra))


def free_module(rs: RingSpec, rank: int = 1) -> ModulePresentation:
    return ModulePresentation(rs, rank, (), rank)


def cyclic_module(rs: RingSpec, generators) -> ModulePresentation:
    """R/(generators) as an R-module."""
    return ModulePresentation(rs, 1, tuple(_cover_elements(rs.ring, 1, generators)))


def module_presentation(
    rs: RingSpec, rank: int, relations, declared_generic_rank: int | None = None
) -> ModulePresentation:
    rels = _cover_elements(rs.ring, rank, relations)
    return ModulePresentation(rs, rank, tuple(rels), declared_generic_rank)


def _cover_elements(S: PolyRing, rank: int, generators) -> list[FreeElement]:
    """Coerce strings, polynomials, or component sequences to elements of
    the free module S^rank."""
    gens: list[FreeElement] = []
    for g in generators:
        if isinstance(g, FreeElement):
            pass
        elif isinstance(g, (Polynomial, str)):
            g = FreeElement((_as_poly(g, S),))
        else:
            g = FreeElement(tuple(_as_poly(c, S) for c in g))
        if g.rank != rank:
            raise RankMismatch(
                f"generator rank {g.rank} does not match the cover rank {rank}"
            )
        if g.ring != S:
            raise RingMismatch("generator from a different ring")
        gens.append(g)
    return gens


def present_submodule(
    module: ModulePresentation,
    generators,
    declared_generic_rank: int | None = None,
) -> ModulePresentation:
    """Presentation of the submodule of M spanned by the given elements:
    S^s modulo the kernel of S^s -> M, e_i -> g_i."""
    gens = _cover_elements(module.ringspec.ring, module.rank, generators)
    if not gens:
        raise RankMismatch("a submodule needs at least one generator")
    rels = _kernel(gens, module.relations)
    return ModulePresentation(
        module.ringspec, len(gens), tuple(rels), declared_generic_rank
    )


def quotient_presentation(module: ModulePresentation, generators) -> ModulePresentation:
    """M / (submodule spanned by the given elements of S^rank)."""
    extra = _cover_elements(module.ringspec.ring, module.rank, generators)
    return ModulePresentation(
        module.ringspec, module.rank, module.relations + tuple(extra)
    )


def direct_sum(m1: ModulePresentation, m2: ModulePresentation) -> ModulePresentation:
    if m1.ringspec != m2.ringspec:
        raise RingMismatch("direct sum needs a common ring")
    S = m1.ringspec.ring
    zero = S.zero()
    rank = m1.rank + m2.rank
    rels = []
    for r in m1.relations:
        rels.append(FreeElement(r.components + (zero,) * m2.rank))
    for r in m2.relations:
        rels.append(FreeElement((zero,) * m1.rank + r.components))
    generic = None
    if m1.declared_generic_rank is not None and m2.declared_generic_rank is not None:
        generic = m1.declared_generic_rank + m2.declared_generic_rank
    return ModulePresentation(m1.ringspec, rank, tuple(rels), generic)


def frobenius_relations(
    module: ModulePresentation,
    ideal: IdealSpec,
    n: int,
    deadline: float | None = None,
) -> list[FreeElement]:
    """Relations of M/I^[p^n]M over S: the presentation relations plus the
    generators of I^[p^n] in every component.

    Over a ring with relations each generator comes from the Frobenius
    tower g_0 = NF(f), g_{k+1} = NF(g_k^p), NF the normal form modulo the
    ring's basis; zeros are dropped. Frobenius is a ring map fixing F_p, so
    g_n differs from f^q by an element of I_R, and I_R*e_j is among the
    relations: the module is the same. The levels are kept on the ideal,
    so the samples n = 1, 2, ... of one ideal take one step each; a level
    is kept only once every generator has it. Past the deadline the tower
    raises ResourceLimit, whether or not level n is kept already."""
    if ideal.ringspec != module.ringspec:
        raise RingMismatch("ideal and module live over different rings")
    if n < 0:
        raise SemanticError("Frobenius exponent must be nonnegative")
    rs = module.ringspec
    S = rs.ring
    gens = list(module.relations)
    if rs.basis is None:
        frob = [frobenius_power_poly(f, S.p**n) for f in ideal.generators]
    else:
        _check_deadline(deadline)
        levels = ideal._tower
        if len(levels) <= n:
            nf = normal_forms(rs.basis, deadline)
            if not levels:
                levels.append([nf(f) for f in ideal.generators])
            while len(levels) <= n:
                levels.append([nf(frobenius_power_poly(g, S.p)) for g in levels[-1]])
        frob = [g for g in levels[n] if not g.is_zero()]
    for j in range(module.rank):
        for f in frob:
            gens.append(unit_vector(S, module.rank, j, f))
    return gens


def length_mod_frobenius(
    module: ModulePresentation,
    ideal: IdealSpec,
    n: int,
    max_seconds: float | None = None,
) -> int:
    """Length of M / I^[p^n] M: the value of the length function at n,
    counted on the Groebner basis of relations(M) + I^[p^n] acting on every
    generator. Only its leads are needed, so the basis is not tail-reduced.

    The Frobenius generators come from the tower kept on the ideal, so
    after n-1 the sample n takes one tower step. max_seconds bounds the
    missing tower steps, Buchberger and the count together. The count
    raises NotZeroDimensional when the length is infinite."""
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None
    gens = frobenius_relations(module, ideal, n, deadline)
    leads = _live_leads(gens, module.rank, deadline)
    return _count_leads(leads, module.ringspec.ring.nvars, deadline)
