"""Prime range, monomial order, polynomial arithmetic, and the parser."""

import random

import pytest

from hilbertkunz.errors import (
    HilbertKunzError,
    NotAPowerOfP,
    ParseError,
)
from hilbertkunz.poly import (
    MonomialOrder,
    check_power_of_p,
    frobenius_power_poly,
    parse_polynomial,
    ring,
)


# -- prime field ----------------------------------------------------------------


def test_field_requires_small_prime():
    with pytest.raises(HilbertKunzError, match="not prime"):
        ring("x", 4)
    with pytest.raises(HilbertKunzError, match="not prime"):
        ring("x", 1)
    with pytest.raises(HilbertKunzError, match="out of supported range"):
        ring("x", 65537)


def test_field_inverse():
    """monic() divides by the leading coefficient: 8 * 23 = 1 mod 61."""
    S = ring("x", 61)
    assert (8 * S.variable(0) + S.one()).monic() == S.variable(0) + S.constant(23)
    for a in range(1, 61):
        assert (a * S.variable(0)).monic() == S.variable(0)


# -- monomial orders ------------------------------------------------------------


def brute_lex_greater(a, b):
    for x, y in zip(a, b):
        if x != y:
            return x > y
    return False


def brute_grevlex_greater(a, b):
    """Higher total degree wins; on ties the smaller exponent at the last
    differing variable (scanning from the least significant side) wins."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    for i in reversed(range(len(a))):
        if a[i] != b[i]:
            return a[i] < b[i]
    return False


def test_grevlex_tiebreak_pinned():
    # a smaller key is the larger monomial. x*y^2 and x^2*z both have
    # degree 3; z differs last, so x*y^2 is larger
    key = MonomialOrder("grevlex").key
    assert key((1, 2, 0)) < key((2, 0, 1))
    assert key((5, 0, 0)) < key((0, 5, 0))
    # degree dominates everything
    assert key((0, 0, 4)) < key((3, 0, 0))


@pytest.mark.parametrize("kind,brute", [
    ("lex", brute_lex_greater),
    ("grevlex", brute_grevlex_greater),
])
def test_orders_match_brute_force(kind, brute):
    rng = random.Random(5)
    key = MonomialOrder(kind).key
    for nvars in (1, 2, 3, 4):
        for _ in range(300):
            a = tuple(rng.randint(0, 5) for _ in range(nvars))
            b = tuple(rng.randint(0, 5) for _ in range(nvars))
            assert (key(a) < key(b)) == brute(a, b), (kind, a, b)
            assert (key(b) < key(a)) == brute(b, a), (kind, a, b)


def test_order_keys_are_additive():
    rng = random.Random(6)
    for kind in ("lex", "grevlex"):
        order = MonomialOrder(kind)
        for _ in range(100):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            ka, kb = order.key(a), order.key(b)
            kab = order.key(tuple(x + y for x, y in zip(a, b)))
            assert kab == tuple(x + y for x, y in zip(ka, kb))


# -- polynomial arithmetic ------------------------------------------------------


def brute_multiply(f, g):
    out = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = (out.get(key, 0) + c1 * c2) % f.ring.p
    return f.ring.from_dict(out)


def test_canonical_form():
    S = ring("x y", 2)
    x, y = S.variable(0), S.variable(1)
    assert (x + x).is_zero()
    f = x * x + y
    assert [e for e, _ in f.terms] == [(2, 0), (0, 1)]
    assert all(0 < c < 2 for _, c in f.terms)


def test_freshman_dream():
    S = ring("x y", 2)
    x, y = S.variable(0), S.variable(1)
    assert (x + y) ** 2 == x**2 + y**2
    S5 = ring("x y", 5)
    x, y = S5.variable(0), S5.variable(1)
    assert (x + y) ** 5 == x**5 + y**5


def test_multiplication_matches_brute_force():
    rng = random.Random(7)
    S = ring("x y z", 5)
    for _ in range(60):
        f = S.from_dict({
            tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(1, 4)
            for _ in range(rng.randint(1, 4))
        })
        g = S.from_dict({
            tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(1, 4)
            for _ in range(rng.randint(1, 4))
        })
        assert f * g == brute_multiply(f, g)
        assert f * g == g * f
        h = f * (g + g) - (f * g + f * g)
        assert h.is_zero()


def test_scale_and_neg():
    S = ring("x", 7)
    x = S.variable(0)
    assert x.scale(0).is_zero()
    assert (-x) + x == S.zero()
    assert 3 * x == x.scale(3)


# -- Frobenius powers -----------------------------------------------------------


def test_check_power_of_p():
    assert check_power_of_p(1, 2) == 0
    assert check_power_of_p(8, 2) == 3
    assert check_power_of_p(125, 5) == 3
    with pytest.raises(NotAPowerOfP):
        check_power_of_p(12, 2)
    with pytest.raises(NotAPowerOfP):
        check_power_of_p(0, 2)


def test_frobenius_is_pth_power():
    S = ring("x y", 2)
    f = parse_polynomial("x^3 + x*y + 1", S)
    assert frobenius_power_poly(f, 4) == f**4
    assert frobenius_power_poly(frobenius_power_poly(f, 2), 4) == (
        frobenius_power_poly(f, 8)
    )


def test_frobenius_scales_exponents():
    S = ring("x y", 3)
    f = parse_polynomial("2*x^2*y + x", S)
    g = frobenius_power_poly(f, 9)
    assert g.as_dict() == {(18, 9): 2, (9, 0): 1}


# -- parser ---------------------------------------------------------------------


def test_parse_round_trip():
    S = ring("x y z", 7)
    for text in ["x + y", "x^2*y - 3*z + 1", "z", "0", "5", "-x*y*z"]:
        f = parse_polynomial(text, S)
        assert parse_polynomial(str(f), S) == f


def test_parse_implicit_coefficients():
    S = ring("x y", 5)
    assert parse_polynomial("3x", S) == parse_polynomial("3*x", S)
    assert parse_polynomial("x - x", S).is_zero()
    assert parse_polynomial("7*x", S) == parse_polynomial("2*x", S)


def test_parse_error_positions():
    S = ring("x y", 5)
    with pytest.raises(ParseError, match="line 1, column 5"):
        parse_polynomial("x + q", S)
    with pytest.raises(ParseError, match="line 3"):
        parse_polynomial("x +\n y +\n q", S)
    # offsets shift reported positions for embedded fragments
    with pytest.raises(ParseError, match="line 9"):
        parse_polynomial("q", S, line=9, column=40)


def test_parse_rejects_garbage():
    S = ring("x y", 5)
    for bad in ["x^", "x^-2", "(x", "x**2", "", "x 2x"]:
        with pytest.raises(ParseError):
            parse_polynomial(bad, S)
