"""Exact polynomial arithmetic over F_p with explicit monomial orders.

Coefficients are plain ints reduced into [0, p); a monomial is a tuple of
nonnegative exponents, one per declared variable. Monomial orders expose a
sort key with the convention that SMALLER keys sort MORE LEADING, and keys
add componentwise under monomial multiplication; the Groebner engine leans
on both facts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HilbertKunzError, NotAPowerOfP, RingMismatch

Exponents = tuple[int, ...]

MAX_PRIME = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on monomials: 'lex' or 'grevlex', the first variable
    most significant.

    key(e) returns a flat int tuple; key(a) < key(b) exactly when a is the
    larger monomial, and key(a*b) == key(a) + key(b) componentwise.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise HilbertKunzError(f"unknown order kind {self.kind!r}")

    def key(self, exponents: Exponents):
        if self.kind == "lex":
            return tuple(-x for x in exponents)
        # grevlex: higher total degree first; ties fall to the smaller
        # exponent at the last differing position, scanned last variable
        # first.
        return (-sum(exponents), *reversed(exponents))


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    """True when a divides b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class PolyRing:
    """Coefficient context: prime, variable names, and the active order."""

    p: int
    variables: tuple[str, ...]
    order: MonomialOrder

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise HilbertKunzError(f"{self.p!r} is not prime")
        if self.p >= MAX_PRIME:
            raise HilbertKunzError(f"prime {self.p} out of supported range (< 2^16)")
        if len(set(self.variables)) != len(self.variables):
            raise HilbertKunzError("duplicate variable names")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c: int) -> Polynomial:
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def variable(self, i: int) -> Polynomial:
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((tuple(e), 1),))

    def monomial(self, exponents: Exponents, coeff: int = 1) -> Polynomial:
        return self.from_dict({tuple(exponents): coeff})

    def from_dict(self, terms: dict[Exponents, int]) -> Polynomial:
        clean: list[tuple[Exponents, int]] = []
        for e, c in terms.items():
            c %= self.p
            if c == 0:
                continue
            if len(e) != self.nvars:
                raise RingMismatch("exponent vector has wrong length")
            if any(x < 0 for x in e):
                raise HilbertKunzError("negative exponent")
            clean.append((e, c))
        clean.sort(key=lambda t: self.order.key(t[0]))
        return Polynomial(self, tuple(clean))


def ring(spec: str, p: int, kind: str = "grevlex") -> PolyRing:
    """Convenience constructor: ring("x,y", 5) or ring("x y", 5, "lex")."""
    names = tuple(spec.replace(",", " ").split())
    return PolyRing(p, names, MonomialOrder(kind))


class Polynomial:
    """Immutable polynomial in canonical form: terms strictly descending
    in the ring's order, coefficients in [1, p)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple[tuple[Exponents, int], ...]):
        self.ring = ring
        self.terms = terms
        self._validate()

    def _validate(self):
        prev_key = None
        for e, c in self.terms:
            if not 0 < c < self.ring.p:
                raise HilbertKunzError(f"coefficient {c} out of canonical range")
            k = self.ring.order.key(e)
            if prev_key is not None and not prev_key < k:
                raise HilbertKunzError("terms not strictly descending")
            prev_key = k

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[Exponents, int]:
        return dict(self.terms)

    def monic(self) -> Polynomial:
        if self.is_zero() or self.terms[0][1] == 1:
            return self
        p = self.ring.p
        inv = pow(self.terms[0][1], p - 2, p)  # Fermat: a^(p-2) = 1/a mod p
        return Polynomial(self.ring, tuple((e, c * inv % p) for e, c in self.terms))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: Polynomial):
        if self.ring != other.ring:
            raise RingMismatch("polynomials over different rings")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return self.ring.from_dict(acc)

    def __sub__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) - c
        return self.ring.from_dict(acc)

    def __neg__(self) -> Polynomial:
        p = self.ring.p
        return Polynomial(self.ring, tuple((e, p - c) for e, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        acc: dict[Exponents, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = monomial_mul(e1, e2)
                acc[e] = acc.get(e, 0) + c1 * c2
        return self.ring.from_dict(acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> Polynomial:
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Polynomial(self.ring, tuple((e, ci * c % p) for e, ci in self.terms))

    def __pow__(self, k: int) -> Polynomial:
        if k < 0:
            raise HilbertKunzError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring.p, self.ring.variables, self.terms))

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(self.ring.variables[i])
                elif k > 1:
                    factors.append(f"{self.ring.variables[i]}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)


def check_power_of_p(q: int, p: int) -> int:
    """Return n with q == p**n, or raise NotAPowerOfP."""
    if q < 1:
        raise NotAPowerOfP(f"{q} is not a power of {p}")
    n = 0
    while q > 1:
        q, r = divmod(q, p)
        if r:
            raise NotAPowerOfP(f"q is not a power of {p}")
        n += 1
    return n


def frobenius_power_poly(f: Polynomial, q: int) -> Polynomial:
    """Raise every monomial to the q-th power, q a power of the prime.

    Coefficients are fixed because c^q == c in F_p when q = p^n.
    """
    check_power_of_p(q, f.ring.p)
    return Polynomial(
        f.ring, tuple((tuple(x * q for x in e), c) for e, c in f.terms)
    )


# -- text form ---------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.pos = 0
        self.line = line
        self.col = col

    def _advance(self, k: int):
        for ch in self.text[self.pos : self.pos + k]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += k

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self._advance(1)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def here(self) -> tuple[int, int]:
        self.skip_ws()
        return self.line, self.col

    def take_number(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self._advance(1)
        return int(self.text[start : self.pos])

    def take_ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self._advance(1)
        return self.text[start : self.pos]

    def take_char(self):
        self._advance(1)


def parse_polynomial(
    text: str, ring: PolyRing, line: int = 1, column: int = 1
) -> Polynomial:
    """Parse the textual form: '+'/'-'-separated terms, each an optional
    decimal coefficient followed by '*'-separated var or var^k factors."""
    from .errors import ParseError

    index = {name: i for i, name in enumerate(ring.variables)}
    toks = _Tokens(text, line, column)
    acc: dict[Exponents, int] = {}
    sign = 1
    ch = toks.peek()
    if ch in "+-":
        sign = -1 if ch == "-" else 1
        toks.take_char()
    elif ch == "":
        ln, col = toks.here()
        raise ParseError("empty polynomial", ln, col)

    while True:
        coeff = 1
        exps = [0] * ring.nvars
        saw_atom = False
        ch = toks.peek()
        if ch.isdigit():
            coeff = toks.take_number()
            saw_atom = True
            if toks.peek() == "*":
                toks.take_char()
                if not (toks.peek().isalpha() or toks.peek() == "_"):
                    ln, col = toks.here()
                    raise ParseError("expected a variable after '*'", ln, col)
        while toks.peek().isalpha() or toks.peek() == "_":
            ln, col = toks.here()
            name = toks.take_ident()
            if name not in index:
                raise ParseError(f"unknown variable {name!r}", ln, col)
            k = 1
            if toks.peek() == "^":
                toks.take_char()
                if not toks.peek().isdigit():
                    ln, col = toks.here()
                    raise ParseError("expected an exponent after '^'", ln, col)
                k = toks.take_number()
            exps[index[name]] += k
            saw_atom = True
            if toks.peek() == "*":
                toks.take_char()
                if not (toks.peek().isalpha() or toks.peek() == "_"):
                    ln, col = toks.here()
                    raise ParseError("expected a variable after '*'", ln, col)
        if not saw_atom:
            ln, col = toks.here()
            raise ParseError("expected a term", ln, col)
        e = tuple(exps)
        acc[e] = acc.get(e, 0) + sign * coeff

        ch = toks.peek()
        if ch == "":
            break
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            ln, col = toks.here()
            raise ParseError(f"unexpected character {ch!r}", ln, col)
        toks.take_char()

    return ring.from_dict(acc)
